//! The coordinator's two timeouts, found by directed search and pinned
//! through the counterexample pipeline: schedule-file export, re-parse,
//! replay through the normal `World`.
//!
//! The scenario's coordinator is the real [`manetkit::TwoPhaseMachine`],
//! and its deadlines expire only when the scheduler plays
//! [`Choice::Expire`]. These tests pin what the machine reports when they
//! do — the laggards it names in `unprepared` and `unresolved` — and that
//! the fleet still converges once the late verbs arrive.

use manetkit::{FleetTxnReport, TxnPhase, TxnVerdict};
use mcheck::{
    default_suite, Choice, Explorer, Model, Observation, ScenarioConfig, Schedule, TwoPhaseSwitch,
};
use netsim::NodeId;

fn explorer() -> Explorer<TwoPhaseSwitch> {
    Explorer::new(|| TwoPhaseSwitch::new(ScenarioConfig::default())).depth_bound(6)
}

/// Ships a schedule the way a counterexample ships — byte-stable JSONL
/// out to a file, strict parse back in — and replays the file.
fn ship_and_replay(schedule: &Schedule, file: &str) -> TwoPhaseSwitch {
    let path = std::env::temp_dir().join(file);
    std::fs::write(&path, schedule.to_jsonl()).expect("write schedule file");
    let bytes = std::fs::read_to_string(&path).expect("read schedule file");
    let parsed = Schedule::from_jsonl(&bytes).expect("exported schedule parses");
    assert_eq!(&parsed, schedule, "round trip is lossless");
    explorer().replay(&parsed).expect("schedule replays")
}

/// Delivers every undelivered verdict, then fires one timer per node, so
/// every node processes the verbs queued for it.
fn deliver_late_verbs(schedule: &mut Schedule, nodes: usize) {
    schedule
        .choices
        .extend((0..nodes).map(|node| Choice::Verdict { node }));
    schedule
        .choices
        .extend((0..nodes).map(|node| Choice::Timer { node }));
}

fn report(obs: &Observation) -> &FleetTxnReport {
    obs.report.as_ref().expect("the coordinator reported")
}

fn assert_invariants_hold(obs: &Observation) {
    for inv in default_suite() {
        assert!(inv.check(obs).is_ok(), "{} holds", inv.name());
    }
}

#[test]
fn prepare_deadline_aborts_with_a_live_laggard() {
    // Some participant prepared, every laggard is alive and simply has not
    // reached its quiescent point when the deadline passes.
    let found = explorer()
        .find(|obs| {
            obs.report.as_ref().is_some_and(|r| {
                r.verdict == TxnVerdict::Aborted
                    && !r.unprepared.is_empty()
                    && r.unprepared.len() < obs.nodes.len()
                    && r.unprepared.iter().all(|id| obs.nodes[id.0].alive)
            })
        })
        .expect("a prepare-deadline abort is reachable within depth 6");
    assert_eq!(
        found
            .choices
            .iter()
            .filter(|&&c| c == Choice::Expire)
            .count(),
        2,
        "the prepare deadline, then the resolve budget: {found}"
    );

    let model = ship_and_replay(&found, "mcheck_prepare_deadline.jsonl");
    let obs = model.observe();
    let r = report(&obs);
    let laggards: Vec<NodeId> = obs
        .nodes
        .iter()
        .filter(|n| n.phase != Some(TxnPhase::Prepared))
        .map(|n| NodeId(n.node))
        .collect();
    assert_eq!(r.unprepared, laggards, "{r}");
    let reason = r.reason.as_deref().unwrap_or_default();
    assert!(reason.starts_with("prepare deadline passed"), "{r}");
    assert_invariants_hold(&obs);

    // The aborts arrive late: laggards prepare and roll straight back,
    // and the prepared participant rolls back.
    let mut settled = found.clone();
    deliver_late_verbs(&mut settled, obs.nodes.len());
    let obs = ship_and_replay(&settled, "mcheck_prepare_deadline_settled.jsonl").observe();
    for n in &obs.nodes {
        assert_eq!(n.phase, Some(TxnPhase::RolledBack), "node {}", n.node);
        assert_eq!(n.composition_hash, Some(obs.baseline_hash));
    }
    assert!(obs.terminal, "{obs:?}");
    assert_invariants_hold(&obs);
}

#[test]
fn resolve_budget_names_the_participants_that_never_acknowledged() {
    // Every participant prepared and the commit went out, but no node had
    // processed it when the resolve budget ran out.
    let found = explorer()
        .find(|obs| {
            obs.report.as_ref().is_some_and(|r| {
                r.verdict == TxnVerdict::Committed && r.unresolved.len() == obs.nodes.len()
            })
        })
        .expect("a resolve timeout is reachable within depth 6");
    assert_eq!(found.choices.last(), Some(&Choice::Expire), "{found}");

    let model = ship_and_replay(&found, "mcheck_resolve_timeout.jsonl");
    let obs = model.observe();
    let r = report(&obs);
    let everyone: Vec<NodeId> = (0..obs.nodes.len()).map(NodeId).collect();
    assert_eq!(r.unresolved, everyone, "{r}");
    assert!(r.unprepared.is_empty() && r.reason.is_none(), "{r}");
    assert_invariants_hold(&obs);

    // The late commits still land: the fleet converges on one composition.
    let mut settled = found.clone();
    deliver_late_verbs(&mut settled, obs.nodes.len());
    let obs = ship_and_replay(&settled, "mcheck_resolve_timeout_settled.jsonl").observe();
    for n in &obs.nodes {
        assert_eq!(n.phase, Some(TxnPhase::Committed), "node {}", n.node);
        assert_ne!(n.composition_hash, Some(obs.baseline_hash));
    }
    assert!(obs.terminal, "{obs:?}");
    assert_invariants_hold(&obs);
}

#[test]
fn the_time_free_abstraction_merges_a_refusal_with_its_earlier_clock_twin() {
    use Choice::{Crash, Reboot, Timer};
    // Two ways to the same transaction-level state at 4 s of world time:
    // node 2 crashes and reboots after a HELLO, or before it. Only in the
    // first is node 2's next timer past the 5 s prepare deadline. The
    // fingerprint leaves time out, so the two merge and the refusal the
    // later clock allows is never explored from the merged state.
    let late = [
        Timer { node: 1 },
        Timer { node: 2 },
        Crash { node: 2 },
        Reboot { node: 2 },
        Timer { node: 2 },
        Crash { node: 2 },
        Reboot { node: 2 },
    ];
    let early = [
        Timer { node: 1 },
        Crash { node: 2 },
        Reboot { node: 2 },
        Crash { node: 2 },
        Reboot { node: 2 },
        Timer { node: 2 },
    ];
    let run = |prefix: &[Choice]| {
        let mut model = TwoPhaseSwitch::new(ScenarioConfig::default());
        for &c in prefix {
            assert!(model.apply(c), "{c}");
        }
        let fingerprint = model.fingerprint();
        // Node 2's next timer, then node 0's first callback.
        assert!(model.apply(Timer { node: 2 }) && model.apply(Timer { node: 0 }));
        (fingerprint, model.observe().nodes[0].phase)
    };
    let (late_fp, late_phase) = run(&late);
    let (early_fp, early_phase) = run(&early);
    assert_eq!(late_fp, early_fp, "one state under the default abstraction");
    assert_eq!(late_phase, Some(TxnPhase::Aborted), "refused after 5 s");
    assert_eq!(early_phase, Some(TxnPhase::Prepared));
}
