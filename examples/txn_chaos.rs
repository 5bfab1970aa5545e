//! E15 — transactional reconfiguration under chaos: repeated fleet-wide
//! two-phase OLSR ⇄ DYMO switches while scheduled crashes hit the 5-node
//! line, measuring the abort rate and proving no node is ever left
//! half-wired.
//!
//! Three distributed failure modes are scripted against the round starts:
//! a node down at round start (skipped + reconciled), a node crashing
//! before it can prepare (fleet-wide abort on the prepare deadline), and a
//! node crashing after it prepared (doomed transaction, rolled back at
//! reboot while the rest of the fleet commits).
//!
//! Writes `BENCH_txn_chaos.json` (outcome mix + counters) and, with the
//! flight recorder on, `BENCH_trace_txn.jsonl` — the reconfiguration
//! timeline (prepare/commit/abort/rollback records interleaved with the
//! fault events that caused them). `cargo test --example txn_chaos` checks
//! the campaign's consistency and that a same-seed replay is identical.
//!
//! ```text
//! cargo run --release --example txn_chaos
//! ```

use manetkit_repro::adapt::{install_fleet, Stack};
use manetkit_repro::manetkit::{
    assert_fleet_conservation, FleetTxnReport, ReconfigRequest, Strategy, TxnCounters, TxnOptions,
    TxnVerdict,
};
use manetkit_repro::netsim::fault::FaultPlan;
use manetkit_repro::netsim::WorldStats;
use manetkit_repro::prelude::*;

const NODES: usize = 5;
const WARMUP_S: u64 = 30;
const ROUND_GAP_S: u64 = 15;
const ROUNDS: u64 = 6;
const END_S: u64 = WARMUP_S + ROUNDS * ROUND_GAP_S + 30;

fn secs(n: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(n)
}

fn round_start(r: u64) -> u64 {
    WARMUP_S + r * ROUND_GAP_S
}

/// The fault script, phased against the round starts (see module docs).
/// The 500 µs offset on the round-2 crash is deterministically earlier
/// than any post-broadcast callback: the link model's minimum one-hop
/// latency is 800 µs and the protocol timers fire on whole-second
/// phases, so the node dies unprepared and the round must abort.
fn chaos_plan(seed: u64) -> FaultPlan {
    FaultPlan::builder(seed)
        .crash_for(
            secs(round_start(1) - 1),
            NodeId(1),
            SimDuration::from_secs(6),
        )
        .crash_for(
            secs(round_start(2)) + SimDuration::from_micros(500),
            NodeId(3),
            SimDuration::from_secs(10),
        )
        .crash_for(
            secs(round_start(3)) + SimDuration::from_millis(1_500),
            NodeId(2),
            SimDuration::from_secs(6),
        )
        .build()
}

/// The campaign's result.
#[derive(Debug, PartialEq)]
struct Outcome {
    /// The coordinator's report of each round.
    rounds: Vec<FleetTxnReport>,
    /// Nodes whose final stack disagrees with the verdict history.
    wedged: Vec<usize>,
    stats: WorldStats,
    /// The reconfiguration timeline: transaction phase records interleaved
    /// with the faults that caused them (packet-level records filtered out
    /// to keep the artifact small).
    #[cfg(feature = "trace")]
    timeline: String,
}

/// The nodes that missed a committed round and get its switch re-applied.
fn repaired(round: &FleetTxnReport) -> Vec<NodeId> {
    if round.verdict != TxnVerdict::Committed {
        return Vec::new();
    }
    round
        .skipped
        .iter()
        .chain(&round.unresolved)
        .copied()
        .collect()
}

impl Outcome {
    fn rounds_with(&self, verdict: TxnVerdict) -> usize {
        self.rounds.iter().filter(|r| r.verdict == verdict).count()
    }

    fn repairs(&self) -> usize {
        self.rounds.iter().map(|r| repaired(r).len()).sum()
    }

    /// The E15 acceptance check: no node is wedged in a half-applied
    /// composition, every prepared per-node transaction resolved exactly
    /// once, and the script produced all three outcomes.
    fn check(&self) {
        assert!(self.wedged.is_empty(), "nodes {:?} are wedged", self.wedged);
        assert_fleet_conservation(&self.stats, 0);
        assert!(
            self.rounds_with(TxnVerdict::Committed) >= 3,
            "most rounds commit"
        );
        assert!(
            self.rounds_with(TxnVerdict::Aborted) >= 1,
            "the pre-prepare crash aborts a round"
        );
        assert!(self.repairs() >= 1, "a missed committed round is repaired");
        assert_eq!(self.stats.node_crashes, 3);
        assert_eq!(self.stats.node_reboots, 3);
        assert!(
            self.stats.delivery_ratio() > 0.5,
            "traffic keeps flowing across the rounds"
        );
    }
}

/// Runs the campaign: [`ROUNDS`] alternating OLSR ⇄ DYMO two-phase
/// switches under [`chaos_plan`], with CBR traffic node 0 → node 4
/// throughout and a settle window at the end.
fn run(seed: u64) -> Outcome {
    let builder = World::builder()
        .topology(Topology::line(NODES))
        .seed(seed)
        .fault_plan(chaos_plan(seed));
    #[cfg(feature = "trace")]
    let builder = builder.trace(1 << 16);
    let mut world = builder.build();
    let fleet = install_fleet(&mut world, Stack::Olsr);

    // CBR 0 → 4 at 4 pkt/s across every phase.
    let dst = world.addr(NodeId(NODES - 1));
    let mut t = secs(WARMUP_S) + SimDuration::from_millis(125);
    while t < secs(END_S) {
        world.send_datagram_at(t, NodeId(0), dst, vec![0u8; 64]);
        t += SimDuration::from_millis(250);
    }

    let mut current = Stack::Olsr;
    let mut rounds = Vec::new();
    for r in 0..ROUNDS {
        world.run_until(secs(round_start(r)));
        let from = current;
        let to = if from == Stack::Olsr {
            Stack::Dymo
        } else {
            Stack::Olsr
        };
        let report = fleet.execute(
            &mut world,
            ReconfigRequest::new()
                .recipe(|| from.recipe_to(to))
                .strategy(Strategy::TwoPhase(TxnOptions::default())),
        );
        match report.verdict {
            TxnVerdict::Committed => current = to,
            TxnVerdict::Aborted => {}
            other => unreachable!("no health gate in this campaign: {other}"),
        }
        // Reconcile nodes that missed the committed round: the same recipe
        // enqueues best-effort and applies at their next (post-reboot)
        // quiescent point, after the doomed rollback.
        for id in repaired(&report) {
            let handle = fleet.handle_of(id).expect("fleet member");
            for op in from.recipe_to(to) {
                handle.apply(op);
            }
        }
        rounds.push(report);
    }

    // Settle: reboots, doomed rollbacks and repairs all land.
    world.run_until(secs(END_S));
    let expected = current.protocols();
    let wedged = (fleet.stacks().iter().enumerate())
        .filter(|(_, stack)| **stack != expected)
        .map(|(i, _)| i)
        .collect();
    Outcome {
        rounds,
        wedged,
        stats: world.stats(),
        #[cfg(feature = "trace")]
        timeline: {
            let keep = [
                "\"kind\":\"txn_",
                "\"kind\":\"quiesce_begin\"",
                "\"kind\":\"reconfig_apply\"",
                "\"kind\":\"state_transfer\"",
                "\"kind\":\"rebind\"",
                "\"kind\":\"resume\"",
                "\"kind\":\"fault\"",
                "\"kind\":\"node_crash\"",
                "\"kind\":\"node_reboot\"",
            ];
            let jsonl = world.trace_jsonl();
            jsonl
                .lines()
                .filter(|l| keep.iter().any(|k| l.contains(k)))
                .flat_map(|l| [l, "\n"])
                .collect()
        },
    }
}

fn main() {
    let out = run(7);
    for (r, round) in (0..).zip(&out.rounds) {
        println!("round {r} @ {:3}s: {round}", round_start(r));
        for id in repaired(round) {
            println!("         repair: re-applying the switch on node {}", id.0);
        }
    }
    out.check();
    let committed = out.rounds_with(TxnVerdict::Committed);
    let aborted = out.rounds_with(TxnVerdict::Aborted);
    let abort_rate = aborted as f64 / ROUNDS as f64;
    let repairs = out.repairs();
    let TxnCounters {
        prepared,
        committed: txn_committed,
        rolled_back,
    } = TxnCounters::from_lookup(|c| out.stats.agent_counter(c));
    println!(
        "\n{ROUNDS} rounds: {committed} committed, {aborted} aborted \
         (abort rate {:.0}%), {repairs} repairs; \
         counters prepared={prepared} committed={txn_committed} rolled_back={rolled_back}; \
         delivery {:.1}% — no wedged nodes",
        100.0 * abort_rate,
        100.0 * out.stats.delivery_ratio(),
    );

    let outcomes: Vec<String> = (out.rounds.iter())
        .map(|r| format!("{{\"txn\": {}, \"verdict\": \"{}\"}}", r.txn, r.verdict))
        .collect();
    let json = format!(
        "{{\n  \"experiment\": \"e15-txn-chaos\",\n  \"rounds\": {ROUNDS},\n  \
         \"committed\": {committed},\n  \"aborted\": {aborted},\n  \
         \"abort_rate\": {abort_rate:.4},\n  \"repairs\": {repairs},\n  \
         \"counters\": {{\"prepared\": {prepared}, \"committed\": {txn_committed}, \
         \"rolled_back\": {rolled_back}}},\n  \"delivery_ratio\": {:.4},\n  \
         \"outcomes\": [{}]\n}}\n",
        out.stats.delivery_ratio(),
        outcomes.join(", "),
    );
    std::fs::write("BENCH_txn_chaos.json", json).expect("write report");
    println!("report written to BENCH_txn_chaos.json");

    #[cfg(feature = "trace")]
    {
        assert!(
            out.timeline.contains("\"kind\":\"txn_rollback\""),
            "the abort round's rollbacks are on the timeline"
        );
        std::fs::write("BENCH_trace_txn.jsonl", &out.timeline).expect("write trace");
        println!(
            "transaction timeline ({} records) written to BENCH_trace_txn.jsonl",
            out.timeline.lines().count()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_commits_aborts_repairs_and_stays_consistent() {
        run(7).check();
    }

    #[test]
    fn same_seed_campaign_replays_identically() {
        assert_eq!(run(11), run(11), "the campaign must be deterministic");
    }
}
