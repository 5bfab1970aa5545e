//! Fork, don't replay — checked against replay. The explorer reaches each
//! sibling group's parent and forks it per child; this test walks the
//! first 3,000 states of the E17 BFS (depth bound 12), in the real engine
//! and under the seeded mutation, and at every state compares the forked
//! child with a replay of its whole prefix from a fresh model: the same
//! fingerprint, observation and enabled choices, and — with the flight
//! recorder compiled in — the same counterexample timeline bytes. A
//! four-node fleet, where each child writes at most one node and shares
//! the other three with its parent and siblings, is walked too.
//!
//! The explorer's workers reach a parent by forking its own parent, which
//! they still hold, so states are forks of forks many times over. The
//! chain walks reach every state only that way, breadth first and depth
//! first, so chains run to the depth bound, and check each state against
//! its replay and every ancestor still held against what it showed when
//! it was made.

use std::collections::{HashSet, VecDeque};
use std::rc::Rc;

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
type SeenAs = (u64, String, Vec<Choice>, Option<String>);

fn seen_as(model: &TwoPhaseSwitch) -> SeenAs {
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

/// A state of a chain walk: a fork of its parent's state plus one choice.
struct Held {
    prefix: Vec<Choice>,
    model: TwoPhaseSwitch,
    /// What the state showed when it was made.
    was: SeenAs,
    parent: Option<Rc<Held>>,
}

/// Walks `states` states of the E17 graph, breadth first or depth first,
/// reaching each state only by forking its parent's held state and
/// applying one choice. Returns the longest chain of forks walked.
fn fork_chains_match_replay(cfg: &ScenarioConfig, states: usize, depth_first: bool) -> usize {
    let root = TwoPhaseSwitch::new(cfg.clone());
    let was = seen_as(&root);
    let mut seen = HashSet::from([was.0]);
    let mut frontier = VecDeque::from([Rc::new(Held {
        prefix: Vec::new(),
        model: root,
        was,
        parent: None,
    })]);
    let (mut visited, mut longest) = (1, 0);
    while let Some(parent) = if depth_first {
        frontier.pop_back()
    } else {
        frontier.pop_front()
    } {
        // The enabled choices, as the state showed them when it was made.
        for &c in &parent.was.2 {
            if visited == states {
                return longest;
            }
            visited += 1;
            let mut model = parent.model.fork();
            assert!(model.apply(c), "{c} applies to a fork");
            let mut prefix = parent.prefix.clone();
            prefix.push(c);
            let was = seen_as(&model);
            assert_eq!(was, seen_as(&replay(cfg, &prefix)), "state {prefix:?}");
            longest = longest.max(prefix.len());
            if !seen.insert(was.0) || model.observe().terminal || prefix.len() >= DEPTH {
                continue;
            }
            frontier.push_back(Rc::new(Held {
                prefix,
                model,
                was,
                parent: Some(Rc::clone(&parent)),
            }));
        }
        // Forking and driving the children left every ancestor as it was.
        let mut held = Some(&parent);
        while let Some(state) = held {
            assert_eq!(
                seen_as(&state.model),
                state.was,
                "ancestor {:?}",
                state.prefix
            );
            held = state.parent.as_ref();
        }
    }
    panic!("the graph has fewer than {states} states");
}

fn fork_chains(cfg: ScenarioConfig) {
    let cfg = ScenarioConfig {
        trace: cfg!(feature = "trace"),
        ..cfg
    };
    assert!(fork_chains_match_replay(&cfg, 1_000, false) >= 5);
    assert_eq!(fork_chains_match_replay(&cfg, 1_000, true), DEPTH);
}

#[test]
fn chains_of_forks_equal_replaying() {
    fork_chains(ScenarioConfig::default());
}

#[test]
fn chains_of_forks_equal_replaying_under_the_seeded_mutation() {
    fork_chains(ScenarioConfig {
        skip_doomed_rollback: true,
        ..ScenarioConfig::default()
    });
}
