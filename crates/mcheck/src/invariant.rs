//! Safety invariants checked at every explored state.
//!
//! An [`Invariant`] sees an [`Observation`] — the transaction-level
//! abstraction of one world state — and either passes or returns a
//! violation message. The three core invariants mirror the guarantees the
//! transactional reconfiguration engine claims:
//!
//! * [`CounterConservation`] — the `prepared == committed + rolled_back`
//!   ledger (the reusable law from `manetkit::txn::invariants`), per node,
//!   with an open-transaction allowance.
//! * [`RollbackExactness`] — a node whose transaction aborted, rolled back
//!   or reverted is structurally identical to its checkpoint.
//! * [`NoSplitBrain`] — at no observable point do two *different*
//!   committed compositions coexist on live nodes.
//!
//! [`StuckResolution`] is the liveness-ish companion: once the coordinator
//! has reported, no live node may be wedged in `Prepared` with nothing in
//! flight that could ever resolve it.
//!
//! Two more watch the coordinator itself: [`NoMixedOutcome`] — no node
//! refuses a prepare for a transaction another node committed — and
//! [`ExpiryProgress`] — a passed deadline always moves the coordinator on.

use manetkit::{CoordinatorPhase, FleetTxnReport, TxnCounters, TxnPhase};
use std::collections::BTreeSet;

/// The transaction-level abstraction of one node at one state.
#[derive(Debug, Clone)]
pub struct NodeObs {
    /// Node id.
    pub node: usize,
    /// Whether the node is up.
    pub alive: bool,
    /// The node's latest report for the checked transaction (`None` until
    /// it first processes a verb for it).
    pub phase: Option<TxnPhase>,
    /// Published structural hash of the node's live composition (`None`
    /// until the node publishes its first status).
    pub composition_hash: Option<u64>,
    /// The node's `txn.prepared`/`txn.committed`/`txn.rolled_back` ledger.
    pub counters: TxnCounters,
    /// The node's `txn.rollback_mismatch` counter: unwinds whose result
    /// did not verify byte-identical to the checkpoint.
    pub rollback_mismatch: u64,
    /// Control verbs queued at the node but not yet processed.
    pub pending_ctl: usize,
    /// A verb the coordinator sent this node after the prepare — commit,
    /// abort or revert — has not been delivered yet (it waits in the
    /// scenario's outbox for [`Choice::Verdict`](crate::Choice::Verdict)).
    /// The node can still be resolved, so it is not stuck.
    pub verdict_in_flight: bool,
}

/// The transaction-level abstraction of one explored state.
#[derive(Debug, Clone)]
pub struct Observation {
    /// The transaction id under test.
    pub txn: u64,
    /// Structural hash of the pre-transaction composition every node
    /// started from.
    pub baseline_hash: u64,
    /// The coordinator's phase.
    pub coordinator: CoordinatorPhase,
    /// The coordinator's final report, once it is done.
    pub report: Option<FleetTxnReport>,
    /// Whether the state is terminal: coordinator done, every node's
    /// report resolved, no undelivered or unprocessed verbs.
    pub terminal: bool,
    /// The choice that reached this state was a deadline expiry
    /// ([`Choice::Expire`](crate::Choice::Expire)) that left the
    /// coordinator's phase unchanged.
    pub stalled_expiry: bool,
    /// Per-node observations, in node-id order.
    pub nodes: Vec<NodeObs>,
}

/// A safety property over [`Observation`]s, checked at every explored
/// state. Implementations must be pure: same observation, same verdict —
/// the explorer checks each deduplicated state exactly once.
pub trait Invariant {
    /// Stable name, used in violation reports and counterexample files.
    fn name(&self) -> &'static str;

    /// Checks the observation.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the violation.
    fn check(&self, obs: &Observation) -> Result<(), String>;
}

/// Per-node `prepared == committed + rolled_back (+ open)` conservation,
/// delegating the law itself to [`manetkit::TxnCounters::conservation`] —
/// the same helper the engine's property tests assert.
#[derive(Debug, Default)]
pub struct CounterConservation;

impl Invariant for CounterConservation {
    fn name(&self) -> &'static str {
        "counter_conservation"
    }

    fn check(&self, obs: &Observation) -> Result<(), String> {
        for n in &obs.nodes {
            // A node reporting `Prepared` holds exactly one open
            // transaction (crashed nodes included: the prepared state
            // survives in memory and is doomed-rolled-back on reboot).
            let open = u64::from(n.phase == Some(TxnPhase::Prepared));
            n.counters
                .conservation(open)
                .map_err(|v| format!("node {}: {v}", n.node))?;
        }
        Ok(())
    }
}

/// A node that reports its transaction aborted, rolled back or reverted
/// must be structurally identical to the checkpoint: its published
/// composition hash equals the baseline and no unwind ever failed
/// fingerprint verification.
#[derive(Debug, Default)]
pub struct RollbackExactness;

impl Invariant for RollbackExactness {
    fn name(&self) -> &'static str {
        "rollback_exactness"
    }

    fn check(&self, obs: &Observation) -> Result<(), String> {
        for n in &obs.nodes {
            if !n.alive {
                // A crashed node's published status is stale by
                // definition; it is re-checked once it reboots and
                // publishes again.
                continue;
            }
            let rolled_back = matches!(
                n.phase,
                Some(TxnPhase::Aborted | TxnPhase::RolledBack | TxnPhase::Reverted)
            );
            if !rolled_back {
                continue;
            }
            if n.rollback_mismatch > 0 {
                return Err(format!(
                    "node {}: {} unwind(s) failed fingerprint verification",
                    n.node, n.rollback_mismatch
                ));
            }
            match n.composition_hash {
                Some(h) if h == obs.baseline_hash => {}
                Some(h) => {
                    let phase = n.phase.expect("matched a resolved phase above");
                    return Err(format!(
                        "node {}: reports {phase} but composition hash {h:#018x} != checkpoint {:#018x}",
                        n.node, obs.baseline_hash
                    ));
                }
                None => {
                    return Err(format!(
                        "node {}: reports a resolved transaction but never published a composition",
                        n.node
                    ));
                }
            }
        }
        Ok(())
    }
}

/// No two *different* committed compositions may be alive at once, and a
/// committed composition must actually differ from the checkpoint (a
/// commit that changed nothing means the switch was silently lost).
///
/// The engine's documented post-crash wrinkle is tolerated by
/// construction: a participant that crashes after preparing and reboots
/// after the fleet committed rolls its copy back and reports
/// `RolledBack`, not `Committed`, so it does not enter this check.
#[derive(Debug)]
pub struct NoSplitBrain {
    /// Require committed compositions to differ from the baseline.
    pub expect_changed: bool,
}

impl Default for NoSplitBrain {
    fn default() -> Self {
        NoSplitBrain {
            expect_changed: true,
        }
    }
}

impl Invariant for NoSplitBrain {
    fn name(&self) -> &'static str {
        "no_split_brain"
    }

    fn check(&self, obs: &Observation) -> Result<(), String> {
        let mut hashes = BTreeSet::new();
        for n in &obs.nodes {
            if !n.alive || n.phase != Some(TxnPhase::Committed) {
                continue;
            }
            let h = n.composition_hash.ok_or_else(|| {
                format!(
                    "node {}: committed but never published a composition",
                    n.node
                )
            })?;
            if self.expect_changed && h == obs.baseline_hash {
                return Err(format!(
                    "node {}: committed composition is identical to the checkpoint",
                    n.node
                ));
            }
            hashes.insert(h);
        }
        if hashes.len() > 1 {
            return Err(format!(
                "{} distinct committed compositions alive at once",
                hashes.len()
            ));
        }
        Ok(())
    }
}

/// Liveness-ish: once the coordinator has reported, a live node still
/// reporting `Prepared` with an empty verb queue *and no verdict on its
/// way* can never resolve — the coordinator never sent it a verdict, or
/// the verb was lost, which the delivery model makes impossible (verbs
/// ride the handle, not the radio, and wait in the scenario's outbox
/// until delivered). The outbox clause matters: a node that crashed
/// before preparing and reboots after the coordinator gave up on it
/// processes its still-queued `Prepare` and sits legitimately prepared
/// until its verdict arrives.
#[derive(Debug, Default)]
pub struct StuckResolution;

impl Invariant for StuckResolution {
    fn name(&self) -> &'static str {
        "stuck_resolution"
    }

    fn check(&self, obs: &Observation) -> Result<(), String> {
        if obs.coordinator != CoordinatorPhase::Done {
            return Ok(());
        }
        for n in &obs.nodes {
            if n.alive
                && n.phase == Some(TxnPhase::Prepared)
                && n.pending_ctl == 0
                && !n.verdict_in_flight
            {
                return Err(format!(
                    "node {}: coordinator resolved txn {} but the node is wedged in prepared with no verb in flight",
                    n.node, obs.txn
                ));
            }
        }
        Ok(())
    }
}

/// Once any participant reports the transaction `Committed`, none may
/// report a refused prepare (`Aborted`) for it: the coordinator commits
/// only when every participant prepared, so a refusal beside a commit is a
/// commit sent too early.
#[derive(Debug, Default)]
pub struct NoMixedOutcome;

impl Invariant for NoMixedOutcome {
    fn name(&self) -> &'static str {
        "no_mixed_outcome"
    }

    fn check(&self, obs: &Observation) -> Result<(), String> {
        let with = |phase| obs.nodes.iter().find(|n| n.phase == Some(phase));
        match (with(TxnPhase::Committed), with(TxnPhase::Aborted)) {
            (Some(committed), Some(refused)) => Err(format!(
                "node {} committed txn {} but node {} refused its prepare",
                committed.node, obs.txn, refused.node
            )),
            _ => Ok(()),
        }
    }
}

/// A passed deadline moves the coordinator: whatever the participants
/// reported, stepping the machine past its deadline resolves the phase it
/// waited in. An expiry that changes nothing means the deadline is tested
/// late (or not at all), and the fleet waits on a coordinator that has
/// stopped keeping time.
#[derive(Debug, Default)]
pub struct ExpiryProgress;

impl Invariant for ExpiryProgress {
    fn name(&self) -> &'static str {
        "expiry_progress"
    }

    fn check(&self, obs: &Observation) -> Result<(), String> {
        if obs.stalled_expiry {
            return Err(format!(
                "the coordinator's deadline passed and it stayed {:?}",
                obs.coordinator
            ));
        }
        Ok(())
    }
}

/// The default invariant suite the experiments run.
#[must_use]
pub fn default_suite() -> Vec<Box<dyn Invariant>> {
    vec![
        Box::new(CounterConservation),
        Box::new(RollbackExactness),
        Box::new(NoSplitBrain::default()),
        Box::new(StuckResolution),
        Box::new(NoMixedOutcome),
        Box::new(ExpiryProgress),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(id: usize) -> NodeObs {
        NodeObs {
            node: id,
            alive: true,
            phase: None,
            composition_hash: Some(1),
            counters: TxnCounters::default(),
            rollback_mismatch: 0,
            pending_ctl: 0,
            verdict_in_flight: false,
        }
    }

    fn obs(nodes: Vec<NodeObs>) -> Observation {
        Observation {
            txn: 1,
            baseline_hash: 1,
            coordinator: CoordinatorPhase::Preparing,
            report: None,
            terminal: false,
            stalled_expiry: false,
            nodes,
        }
    }

    #[test]
    fn conservation_flags_a_lost_rollback() {
        let mut n = node(0);
        n.phase = Some(TxnPhase::RolledBack);
        n.counters = TxnCounters {
            prepared: 1,
            committed: 0,
            rolled_back: 0,
        };
        let err = CounterConservation.check(&obs(vec![n])).unwrap_err();
        assert!(err.contains("node 0"), "{err}");
        assert!(err.contains("prepared 1"), "{err}");
    }

    #[test]
    fn conservation_allows_an_open_transaction() {
        let mut n = node(0);
        n.phase = Some(TxnPhase::Prepared);
        n.counters = TxnCounters {
            prepared: 1,
            committed: 0,
            rolled_back: 0,
        };
        assert!(CounterConservation.check(&obs(vec![n])).is_ok());
    }

    #[test]
    fn exactness_flags_a_divergent_rollback() {
        let mut n = node(0);
        n.phase = Some(TxnPhase::RolledBack);
        n.composition_hash = Some(99);
        let err = RollbackExactness.check(&obs(vec![n])).unwrap_err();
        assert!(err.contains("checkpoint"), "{err}");
    }

    #[test]
    fn split_brain_flags_two_committed_compositions() {
        let mut a = node(0);
        a.phase = Some(TxnPhase::Committed);
        a.composition_hash = Some(2);
        let mut b = node(1);
        b.phase = Some(TxnPhase::Committed);
        b.composition_hash = Some(3);
        let err = NoSplitBrain::default().check(&obs(vec![a, b])).unwrap_err();
        assert!(err.contains("2 distinct"), "{err}");
    }

    #[test]
    fn mixed_outcome_flags_a_refusal_beside_a_commit() {
        let mut a = node(0);
        a.phase = Some(TxnPhase::Committed);
        let mut b = node(1);
        b.phase = Some(TxnPhase::Aborted);
        let err = NoMixedOutcome.check(&obs(vec![a.clone(), b])).unwrap_err();
        assert!(err.contains("node 1 refused"), "{err}");
        // A rollback beside a commit is the crashed-prepared wrinkle, not a
        // refusal.
        let mut c = node(1);
        c.phase = Some(TxnPhase::RolledBack);
        assert!(NoMixedOutcome.check(&obs(vec![a, c])).is_ok());
    }

    #[test]
    fn expiry_progress_flags_a_stalled_expiry() {
        let mut o = obs(vec![node(0)]);
        assert!(ExpiryProgress.check(&o).is_ok());
        o.stalled_expiry = true;
        let err = ExpiryProgress.check(&o).unwrap_err();
        assert!(err.contains("Preparing"), "{err}");
    }

    #[test]
    fn stuck_resolution_needs_a_done_coordinator() {
        let mut n = node(0);
        n.phase = Some(TxnPhase::Prepared);
        let mut o = obs(vec![n]);
        assert!(StuckResolution.check(&o).is_ok(), "still preparing");
        o.coordinator = CoordinatorPhase::Done;
        assert!(StuckResolution.check(&o).is_err(), "wedged after verdict");
        o.nodes[0].pending_ctl = 1;
        assert!(StuckResolution.check(&o).is_ok(), "verb still in flight");
        o.nodes[0].pending_ctl = 0;
        o.nodes[0].verdict_in_flight = true;
        assert!(StuckResolution.check(&o).is_ok(), "verdict still in outbox");
    }
}
