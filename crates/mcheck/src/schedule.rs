//! Schedules: the serialized form of one explored interleaving.
//!
//! A schedule is a sequence of [`Choice`]s — the exact decisions the
//! explorer made at every nondeterministic point. Because the controlled
//! world is deterministic given the same choice sequence, a schedule *is* a
//! state: replaying it from a fresh world reconstructs the state it led
//! to. Counterexamples are therefore shipped as schedule files
//! ([`Schedule::to_jsonl`], byte-stable) that re-execute the violating
//! interleaving through the normal `World`, not through any
//! checker-internal snapshot format.

use std::fmt;

/// One scheduling decision at a nondeterministic choice point.
///
/// Message choices address the **earliest pending** message on a
/// *channel* — one `from → node` sender/destination pair. Messages on the
/// same channel stay FIFO (the radio does not reorder one sender's frames
/// to one receiver): that is the partial-order reduction. Messages from
/// different senders interleave freely at a destination, arrivals at
/// different destinations interleave freely, and any message can be
/// dropped instead of delivered while the drop budget lasts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Choice {
    /// Deliver the earliest pending message on the `from → node` channel.
    Deliver {
        /// Destination node.
        node: usize,
        /// Sending node.
        from: usize,
    },
    /// Drop the earliest pending message on the `from → node` channel
    /// (consumes one unit of the drop budget).
    Drop {
        /// Destination node.
        node: usize,
        /// Sending node.
        from: usize,
    },
    /// Fire the earliest armed timer on `node`.
    Timer {
        /// Owning node.
        node: usize,
    },
    /// Deliver the oldest verb the coordinator sent `node` after the
    /// prepare (commit, abort or revert). Verbs travel the in-process
    /// control channel — reliable, so not droppable — but *when* each
    /// participant learns the outcome is the scheduler's call: this is the
    /// window where split-brain compositions would live.
    Verdict {
        /// Receiving node.
        node: usize,
    },
    /// Let the deadline the coordinator is waiting on pass — the prepare
    /// deadline, or the end of the resolve budget — before anything else
    /// happens.
    Expire,
    /// Crash `node` (consumes one unit of the crash budget).
    Crash {
        /// Crashing node.
        node: usize,
    },
    /// Reboot the crashed `node`.
    Reboot {
        /// Rebooting node.
        node: usize,
    },
}

impl Choice {
    /// Stable operation name (the JSONL `op` value).
    #[must_use]
    pub fn op(self) -> &'static str {
        match self {
            Choice::Deliver { .. } => "deliver",
            Choice::Drop { .. } => "drop",
            Choice::Timer { .. } => "timer",
            Choice::Verdict { .. } => "verdict",
            Choice::Expire => "expire",
            Choice::Crash { .. } => "crash",
            Choice::Reboot { .. } => "reboot",
        }
    }

    /// The node the choice acts on (the destination, for message
    /// choices); `None` for an expiry, which acts on the coordinator.
    #[must_use]
    pub fn node(self) -> Option<usize> {
        match self {
            Choice::Deliver { node, .. }
            | Choice::Drop { node, .. }
            | Choice::Timer { node }
            | Choice::Verdict { node }
            | Choice::Crash { node }
            | Choice::Reboot { node } => Some(node),
            Choice::Expire => None,
        }
    }

    /// The sending node, for message choices.
    #[must_use]
    pub fn from(self) -> Option<usize> {
        match self {
            Choice::Deliver { from, .. } | Choice::Drop { from, .. } => Some(from),
            Choice::Timer { .. }
            | Choice::Verdict { .. }
            | Choice::Expire
            | Choice::Crash { .. }
            | Choice::Reboot { .. } => None,
        }
    }

    /// Rebuilds a choice from its stable name, node and (for message
    /// choices) sender.
    #[must_use]
    pub fn parse(op: &str, node: Option<usize>, from: Option<usize>) -> Option<Choice> {
        Some(match (op, node, from) {
            ("deliver", Some(node), Some(from)) => Choice::Deliver { node, from },
            ("drop", Some(node), Some(from)) => Choice::Drop { node, from },
            ("timer", Some(node), None) => Choice::Timer { node },
            ("verdict", Some(node), None) => Choice::Verdict { node },
            ("expire", None, None) => Choice::Expire,
            ("crash", Some(node), None) => Choice::Crash { node },
            ("reboot", Some(node), None) => Choice::Reboot { node },
            _ => return None,
        })
    }
}

impl fmt::Display for Choice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.node(), self.from()) {
            (Some(node), Some(from)) => write!(f, "{}@{node}<-{from}", self.op()),
            (Some(node), None) => write!(f, "{}@{node}", self.op()),
            (None, _) => f.write_str(self.op()),
        }
    }
}

/// A replayable interleaving: the scenario it belongs to plus the ordered
/// choice sequence.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schedule {
    /// Name of the scenario the schedule replays against (sanity-checked
    /// at replay time; the format carries it so a schedule file is
    /// self-describing).
    pub scenario: String,
    /// The ordered choices.
    pub choices: Vec<Choice>,
}

impl Schedule {
    /// Byte-stable JSONL serialization: a header line
    /// (`{"v":1,"format":"mcheck-schedule",...}`) followed by one line per
    /// step, fixed key order, no whitespace. A step carries `node` and
    /// `from` only where its choice has them.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        use fmt::Write as _;
        let mut out = String::with_capacity(64 + self.choices.len() * 40);
        let _ = writeln!(
            out,
            "{{\"v\":1,\"format\":\"mcheck-schedule\",\"scenario\":\"{}\",\"steps\":{}}}",
            self.scenario,
            self.choices.len()
        );
        for (i, c) in self.choices.iter().enumerate() {
            let _ = write!(out, "{{\"step\":{i},\"op\":\"{}\"", c.op());
            if let Some(node) = c.node() {
                let _ = write!(out, ",\"node\":{node}");
            }
            if let Some(from) = c.from() {
                let _ = write!(out, ",\"from\":{from}");
            }
            out.push_str("}\n");
        }
        out
    }

    /// Parses a schedule produced by [`Schedule::to_jsonl`].
    ///
    /// # Errors
    ///
    /// Returns a line-numbered message on a malformed header, step line,
    /// unknown op, out-of-order step index, or step-count mismatch.
    pub fn from_jsonl(s: &str) -> Result<Schedule, String> {
        let mut lines = s.lines().filter(|l| !l.trim().is_empty());
        let header = lines.next().ok_or_else(|| "empty schedule".to_string())?;
        if !header.contains("\"format\":\"mcheck-schedule\"") {
            return Err("line 1: not an mcheck-schedule header".to_string());
        }
        let scenario = str_field(header, "scenario")
            .ok_or_else(|| "line 1: header missing \"scenario\"".to_string())?;
        let steps = num_field(header, "steps")
            .ok_or_else(|| "line 1: header missing \"steps\"".to_string())?;
        let mut choices = Vec::new();
        for (i, line) in lines.enumerate() {
            let lineno = i + 2;
            let step = num_field(line, "step")
                .ok_or_else(|| format!("line {lineno}: missing \"step\""))?;
            if step != choices.len() {
                return Err(format!(
                    "line {lineno}: step {step} out of order (expected {})",
                    choices.len()
                ));
            }
            let op =
                str_field(line, "op").ok_or_else(|| format!("line {lineno}: missing \"op\""))?;
            let node = num_field(line, "node");
            let from = num_field(line, "from");
            let choice = Choice::parse(&op, node, from)
                .ok_or_else(|| format!("line {lineno}: bad op/node/from combination {op:?}"))?;
            choices.push(choice);
        }
        if choices.len() != steps {
            return Err(format!(
                "header promised {steps} steps, found {}",
                choices.len()
            ));
        }
        Ok(Schedule { scenario, choices })
    }
}

impl fmt::Display for Schedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "schedule[{}]", self.scenario)?;
        for c in &self.choices {
            write!(f, " {c}")?;
        }
        Ok(())
    }
}

/// Extracts `"key":"value"` from a flat one-line JSON object.
fn str_field(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\":\"");
    let start = line.find(&pat)? + pat.len();
    let end = line[start..].find('"')? + start;
    Some(line[start..end].to_string())
}

/// Extracts `"key":number` from a flat one-line JSON object.
fn num_field(line: &str, key: &str) -> Option<usize> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let digits: String = line[start..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Schedule {
        Schedule {
            scenario: "olsr_to_dymo_3".to_string(),
            choices: vec![
                Choice::Timer { node: 0 },
                Choice::Deliver { node: 2, from: 0 },
                Choice::Drop { node: 1, from: 2 },
                Choice::Verdict { node: 1 },
                Choice::Expire,
                Choice::Crash { node: 0 },
                Choice::Reboot { node: 0 },
            ],
        }
    }

    #[test]
    fn jsonl_round_trips_byte_identically() {
        let s = sample();
        let jsonl = s.to_jsonl();
        assert!(
            jsonl.contains("\n{\"step\":4,\"op\":\"expire\"}\n"),
            "{jsonl}"
        );
        let back = Schedule::from_jsonl(&jsonl).expect("parses");
        assert_eq!(back, s);
        assert_eq!(back.to_jsonl(), jsonl, "serialization is byte-stable");
    }

    #[test]
    fn parser_rejects_tampered_files() {
        let s = sample();
        let jsonl = s.to_jsonl();
        let no_header = jsonl.lines().skip(1).collect::<Vec<_>>().join("\n");
        assert!(Schedule::from_jsonl(&no_header).is_err());
        let bad_op = jsonl.replace("\"op\":\"crash\"", "\"op\":\"meltdown\"");
        assert!(Schedule::from_jsonl(&bad_op)
            .unwrap_err()
            .contains("meltdown"));
        let nodeless = jsonl.replace("\"op\":\"timer\",\"node\":0", "\"op\":\"timer\"");
        assert!(Schedule::from_jsonl(&nodeless).is_err());
        let expire_at = jsonl.replace("\"op\":\"expire\"", "\"op\":\"expire\",\"node\":1");
        assert!(Schedule::from_jsonl(&expire_at).is_err());
        let truncated: String = jsonl.lines().take(3).collect::<Vec<_>>().join("\n");
        assert!(Schedule::from_jsonl(&truncated)
            .unwrap_err()
            .contains("promised 7 steps"));
    }
}
