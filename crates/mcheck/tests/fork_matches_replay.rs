//! Fork, don't replay — checked against replay. The explorer builds each
//! sibling group's parent once and forks it per child; this test walks the
//! first 3,000 states of the E17 BFS (depth bound 12), in the real engine
//! and under the seeded mutation, and at every state compares the forked
//! child with a replay of its whole prefix from a fresh model: the same
//! fingerprint, observation and enabled choices, and — with the flight
//! recorder compiled in — the same counterexample timeline bytes. A
//! four-node fleet, where each child writes at most one node and shares
//! the other three with its parent and siblings, is walked too.

use std::collections::{HashSet, VecDeque};

use mcheck::{Choice, Model, ScenarioConfig, TwoPhaseSwitch};

const STATES: usize = 3_000;
const DEPTH: usize = 12;

fn replay(cfg: &ScenarioConfig, prefix: &[Choice]) -> TwoPhaseSwitch {
    let mut model = TwoPhaseSwitch::new(cfg.clone());
    for &c in prefix {
        assert!(model.apply(c), "{c} replays");
    }
    model
}

/// What the explorer reads of a state.
fn seen_as(model: &TwoPhaseSwitch) -> (u64, String, Vec<Choice>, Option<String>) {
    (
        model.fingerprint(),
        format!("{:?}", model.observe()),
        model.enabled(),
        model.timeline(),
    )
}

fn fork_matches_replay(cfg: ScenarioConfig) {
    fork_matches_replay_for(cfg, STATES);
}

fn fork_matches_replay_for(cfg: ScenarioConfig, states: usize) {
    // BFS by sibling group: a frontier entry is a parent prefix and the
    // choices to try from it.
    let mut frontier: VecDeque<(Vec<Choice>, Vec<Choice>)> = VecDeque::new();
    let root = TwoPhaseSwitch::new(cfg.clone());
    let mut seen = HashSet::from([root.fingerprint()]);
    frontier.push_back((Vec::new(), root.enabled()));
    let (mut visited, mut forks_seen_dedup) = (1, 0);
    while let Some((prefix, choices)) = frontier.pop_front() {
        let parent = replay(&cfg, &prefix);
        let parent_was = seen_as(&parent);
        for c in choices {
            if visited == states {
                return assert!(forks_seen_dedup > 0);
            }
            visited += 1;
            let mut forked = parent.fork();
            assert!(forked.apply(c), "{c} applies to a fork");
            let mut child = prefix.clone();
            child.push(c);
            let got = seen_as(&forked);
            assert_eq!(got, seen_as(&replay(&cfg, &child)), "state {child:?}");
            if !seen.insert(got.0) {
                forks_seen_dedup += 1;
                continue;
            }
            let obs = forked.observe();
            if !obs.terminal && child.len() < DEPTH {
                frontier.push_back((child, got.2));
            }
        }
        // Forking and driving the children left the parent as it was.
        assert_eq!(seen_as(&parent), parent_was, "parent {prefix:?}");
    }
    panic!("the graph has fewer than {states} states");
}

#[test]
fn forking_the_parent_equals_replaying_the_prefix() {
    fork_matches_replay(ScenarioConfig {
        trace: cfg!(feature = "trace"),
        ..ScenarioConfig::default()
    });
}

#[test]
fn forking_equals_replaying_under_the_seeded_mutation() {
    fork_matches_replay(ScenarioConfig {
        trace: cfg!(feature = "trace"),
        skip_doomed_rollback: true,
        ..ScenarioConfig::default()
    });
}

#[test]
fn forking_equals_replaying_on_four_nodes() {
    fork_matches_replay_for(
        ScenarioConfig {
            nodes: 4,
            trace: cfg!(feature = "trace"),
            ..ScenarioConfig::default()
        },
        1_000,
    );
}
