//! Satellite regression: a node that crashes *between* prepare and
//! commit must come back on the checkpointed composition, and the pinned
//! interleaving must survive the full counterexample pipeline — directed
//! search, schedule-file export, re-parse, replay through the normal
//! `World`.
//!
//! This is the 2PC window the paper's reconfiguration protocol is most
//! exposed in: the participant voted yes, holds the prepared (already
//! applied) composition, and dies before the verdict reaches it. On
//! reboot the doomed-transaction rollback must restore the checkpoint
//! byte-exactly.

use manetkit::{CoordinatorPhase, TxnPhase};
use mcheck::{default_suite, Choice, Explorer, Model, ScenarioConfig, Schedule, TwoPhaseSwitch};

fn explorer(cfg: ScenarioConfig) -> Explorer<TwoPhaseSwitch> {
    Explorer::new(move || TwoPhaseSwitch::new(cfg.clone()))
}

#[test]
fn replayed_schedule_pins_crash_between_prepare_and_commit() {
    // Directed search for the shortest interleaving where a participant
    // died holding a prepared transaction after the coordinator had
    // already sent the commit (BFS ⇒ shortest schedule, so the pinned
    // file stays minimal).
    let cfg = ScenarioConfig::default();
    let found = explorer(cfg.clone())
        .depth_bound(8)
        .find(|obs| {
            obs.coordinator == CoordinatorPhase::Committing
                && obs
                    .nodes
                    .iter()
                    .any(|n| !n.alive && n.phase == Some(TxnPhase::Prepared))
        })
        .expect("a crash-between-prepare-and-commit state exists within depth 8");

    let model = explorer(cfg.clone())
        .replay(&found)
        .expect("search result replays");
    let obs = model.observe();
    let victim = obs
        .nodes
        .iter()
        .find(|n| !n.alive && n.phase == Some(TxnPhase::Prepared))
        .expect("the goal guaranteed a dead prepared node")
        .node;

    // Extend the interleaving: the victim reboots, which is where the
    // doomed-transaction recovery runs.
    let mut pinned = found.clone();
    pinned.choices.push(Choice::Reboot { node: victim });

    // Ship it exactly like a counterexample ships: byte-stable JSONL out,
    // strict parse back in.
    let path = std::env::temp_dir().join("mcheck_crash_between_prepare_and_commit.jsonl");
    std::fs::write(&path, pinned.to_jsonl()).expect("write schedule file");
    let bytes = std::fs::read_to_string(&path).expect("read schedule file");
    let parsed = Schedule::from_jsonl(&bytes).expect("exported schedule parses");
    assert_eq!(parsed, pinned, "round trip is lossless");

    // Replay the file through a fresh world and pin the recovery.
    let model = explorer(cfg).replay(&parsed).expect("schedule replays");
    let obs = model.observe();
    let n = &obs.nodes[victim];
    assert!(n.alive, "the victim rebooted");
    assert_eq!(
        n.phase,
        Some(TxnPhase::RolledBack),
        "the doomed prepared transaction rolled back at start-up"
    );
    assert_eq!(
        n.composition_hash,
        Some(obs.baseline_hash),
        "recovery restored the checkpointed composition byte-exactly"
    );
    assert_eq!(n.counters.prepared, 1, "{:?}", n.counters);
    assert_eq!(n.counters.rolled_back, 1, "{:?}", n.counters);
    assert_eq!(n.rollback_mismatch, 0);
    for inv in default_suite() {
        assert!(
            inv.check(&obs).is_ok(),
            "{} holds on the recovered state",
            inv.name()
        );
    }
}
