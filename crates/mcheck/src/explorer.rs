//! The bounded state-graph explorer.
//!
//! An explored state is represented by the schedule prefix that leads to
//! it (stateless-model-checking style). The frontier holds prefixes as
//! node ids of a **prefix tree** (each node is its parent's prefix plus one
//! [`Choice`]), so a queued prefix costs one tree node and is spelled out
//! only when it is visited. Visiting one builds its state, hashes it into
//! the dedup set, runs every [`Invariant`], and — unless the state is
//! terminal, at the depth bound, or pruned — pushes one child per enabled
//! [`Choice`]. A pop from the tail gives DFS, a pop from the head gives
//! BFS; BFS is the default because with hash dedup it visits every state at
//! its *shallowest* depth, so no state is ever dropped for depth reasons
//! that a shorter path could have reached.
//!
//! **Fork, don't replay.** An expansion pushes its children side by side,
//! so the frontier is a sequence of *sibling groups*. A visit takes one
//! group: it reaches the parent they share, forks it ([`Model::fork`]) for
//! every child but the last, which takes the parent itself, and applies
//! each child's one choice. Determinism of the controlled world makes this
//! exact: same prefix, same state, same pending-event ids, whether the
//! state was replayed or forked. Replay stays the oracle:
//! [`Explorer::replay`] and [`Explorer::counterexample`] rebuild from the
//! prefix alone.
//!
//! **Hold the path, not the prefix.** Each worker keeps the states along
//! the prefix of the last parent it reached, the root first, for the
//! whole walk. To reach the next parent it drops the states past the
//! longest prefix the two share and forks its way down from there, one
//! choice at a time. Under BFS the next group's parent is usually a
//! sibling of the last one, a single step away, so the factory runs at
//! most once per worker and walk and a parent costs one fork and one
//! choice instead of a whole replay. A worker holds at most
//! `depth_bound + 1` states: a path at most `depth_bound` long and the
//! child it is visiting.
//!
//! **Visits run on every core.** Under BFS the explorer pops up to
//! [`BATCH`] prefixes at once and hands their sibling groups to scoped
//! worker threads, which reach, fork, fingerprint and observe each state
//! and list its enabled choices. A sequential merge then does everything
//! that decides the outcome — dedup, invariants, the stop condition, the
//! state cap and the child pushes — in exactly the pop order of a
//! one-at-a-time walk, so every report, count and counterexample is
//! independent of the number of workers. DFS keeps a batch of one: its
//! next pop depends on the last expansion, so it runs on the first
//! worker alone. The walk owns one path per worker and lends each to a
//! scoped thread for a batch (the caller's thread takes the first), so
//! a [`Model`] is `Send`; the factory is shared (`Sync`).

use std::collections::{HashSet, VecDeque};
use std::num::NonZeroUsize;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::invariant::{Invariant, Observation};
use crate::schedule::{Choice, Schedule};

/// A system the explorer can drive: deterministic, rebuildable from
/// nothing, forkable, with enumerable choice points.
pub trait Model: Send {
    /// Scenario name, recorded in schedules.
    fn name(&self) -> &str;

    /// An independent copy in exactly this state. Whatever choices follow,
    /// the copy must answer [`fingerprint`](Self::fingerprint),
    /// [`observe`](Self::observe), [`enabled`](Self::enabled) and
    /// [`timeline`](Self::timeline) as a replay of the same prefix
    /// would, and the two must not see each other's choices.
    #[must_use]
    fn fork(&self) -> Self
    where
        Self: Sized;

    /// The choices enabled at the current state, in a canonical order
    /// (the order is part of the exploration determinism).
    fn enabled(&self) -> Vec<Choice>;

    /// Applies one choice. Returns `false` if the choice is not enabled
    /// (only reachable by replaying a foreign or stale schedule).
    fn apply(&mut self, choice: Choice) -> bool;

    /// A collision-resistant digest of the current state under the
    /// checker's abstraction, used for dedup. Must not incorporate
    /// absolute virtual time (states differing only by elapsed idle time
    /// must collide).
    fn fingerprint(&self) -> u64;

    /// The transaction-level observation invariants are checked against.
    fn observe(&self) -> Observation;

    /// A trace-crate timeline of everything that happened so far
    /// (`None` when the model was built without the flight recorder).
    fn timeline(&self) -> Option<String> {
        None
    }
}

/// Frontier discipline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Strategy {
    /// Depth-first: low memory, finds deep violations fast.
    Dfs,
    /// Breadth-first: shortest counterexamples, depth-optimal dedup.
    #[default]
    Bfs,
}

/// One invariant violation, with the schedule that reproduces it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Name of the violated invariant.
    pub invariant: &'static str,
    /// Human-readable description.
    pub detail: String,
    /// Depth (schedule length) at which it was found.
    pub depth: usize,
    /// The replayable schedule reaching the violating state.
    pub schedule: Schedule,
}

/// Exploration statistics and outcome.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExploreReport {
    /// States visited (schedule prefixes replayed).
    pub states_explored: u64,
    /// States that survived dedup and were invariant-checked.
    pub states_unique: u64,
    /// States whose fingerprint had already been seen.
    pub dedup_hits: u64,
    /// Unique states that were terminal (transaction fully resolved).
    pub terminal_states: u64,
    /// Unique states cut off by the depth bound.
    pub bound_hits: u64,
    /// Unique states cut off by the pruning hook.
    pub pruned: u64,
    /// Deepest unique state reached.
    pub max_depth: usize,
    /// Whether the state cap stopped exploration before the frontier
    /// drained.
    pub truncated: bool,
    /// Violations found (at most one unless `keep_going` was set).
    pub violations: Vec<Violation>,
}

impl ExploreReport {
    /// Whether every explored path ended in a terminal state — i.e. the
    /// bounded exploration was actually exhaustive for this scenario and
    /// the transaction resolved on every interleaving (the liveness-ish
    /// complement to the safety invariants).
    #[must_use]
    pub fn exhausted(&self) -> bool {
        !self.truncated && self.bound_hits == 0 && self.pruned == 0
    }
}

/// A counterexample in its two exported forms.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// Byte-stable schedule file replaying the violating interleaving
    /// through the normal `World` (see [`Schedule::to_jsonl`]).
    pub schedule_jsonl: String,
    /// Byte-stable trace-crate timeline of the violating run (empty when
    /// the model has no flight recorder).
    pub timeline_jsonl: String,
}

/// A pruning hook: observation + schedule prefix → skip this subtree?
type PruneHook = Box<dyn Fn(&Observation, &[Choice]) -> bool>;

/// Prefixes a BFS pops per batch of parallel visits. A constant, so the
/// work a batch skips (states already in the dedup set when it starts)
/// does not depend on the host either.
const BATCH: usize = 256;

/// The node id of the empty prefix in a [`PrefixTree`].
const ROOT: u32 = u32::MAX;

/// The frontier's schedule prefixes, stored once each: node `i` is the
/// prefix of its parent extended by one choice.
#[derive(Default)]
struct PrefixTree {
    nodes: Vec<(u32, Choice)>,
}

impl PrefixTree {
    /// Adds the prefix `parent` + `choice` and returns its id.
    fn push(&mut self, parent: u32, choice: Choice) -> u32 {
        let id = u32::try_from(self.nodes.len())
            .ok()
            .filter(|&id| id != ROOT)
            .expect("prefix tree overflow: more than 2^32 - 1 queued prefixes");
        self.nodes.push((parent, choice));
        id
    }

    /// The parent and last choice of prefix `id`; `None` for the empty
    /// prefix.
    fn last(&self, id: u32) -> Option<(u32, Choice)> {
        (id != ROOT).then(|| self.nodes[id as usize])
    }

    /// Spells out the prefix with id `id`.
    fn prefix(&self, mut id: u32) -> Vec<Choice> {
        let mut choices = Vec::new();
        while id != ROOT {
            let (parent, choice) = self.nodes[id as usize];
            choices.push(choice);
            id = parent;
        }
        choices.reverse();
        choices
    }
}

/// The states along the prefix of the last parent a worker reached:
/// `models[i]` is the state after the first `i` of `choices`, so
/// `models[0]` is the root. Both are empty until the first reach.
struct Path<M> {
    choices: Vec<Choice>,
    models: Vec<M>,
}

impl<M: Model> Path<M> {
    fn new() -> Self {
        Path {
            choices: Vec::new(),
            models: Vec::new(),
        }
    }

    /// Brings the path to the state after `prefix`: keeps the longest
    /// prefix of it already held, then forks the top state and applies
    /// one choice per remaining step.
    fn reach(&mut self, factory: &(dyn Fn() -> M + Sync), prefix: &[Choice]) -> &M {
        let held = self
            .choices
            .iter()
            .zip(prefix)
            .take_while(|(held, wanted)| held == wanted)
            .count();
        self.choices.truncate(held);
        self.models.truncate(held + 1);
        if self.models.is_empty() {
            self.models.push(factory());
        }
        for &c in &prefix[held..] {
            let mut next = self.top().fork();
            // Enabled sets are computed one step before the fork, so a
            // refused choice indicates a nondeterministic model — surface
            // it loudly rather than exploring garbage.
            assert!(next.apply(c), "fork diverged: model is not deterministic");
            self.choices.push(c);
            self.models.push(next);
        }
        self.top()
    }

    /// The state the last reach led to.
    fn top(&self) -> &M {
        self.models.last().expect("a reached path holds its root")
    }

    /// Takes the top state off the path, or a fork of it when it is the
    /// root, which the path keeps so that it never builds one twice.
    fn take(&mut self) -> M {
        if self.models.len() > 1 {
            self.choices.pop();
            self.models
                .pop()
                .expect("the path holds more than its root")
        } else {
            self.top().fork()
        }
    }
}

/// What a worker learns about one popped prefix.
enum Visit {
    /// The state's fingerprint was in the dedup set before the batch
    /// started: the merge only counts it.
    Seen,
    /// Everything the merge needs to dedup, check and expand the state.
    New {
        fingerprint: u64,
        obs: Box<Observation>,
        prefix: Vec<Choice>,
        /// Empty when the state is terminal or at the depth bound.
        enabled: Vec<Choice>,
    },
}

/// The bounded model checker.
pub struct Explorer<M: Model> {
    factory: Box<dyn Fn() -> M + Sync>,
    invariants: Vec<Box<dyn Invariant>>,
    strategy: Strategy,
    depth_bound: usize,
    max_states: u64,
    stop_at_first: bool,
    prune: Option<PruneHook>,
}

impl<M: Model> Explorer<M> {
    /// An explorer over fresh models built by `factory`: BFS, depth bound
    /// 20, no state cap, stop at the first violation, no pruning, no
    /// invariants (add them with [`Explorer::invariant`]). The factory is
    /// called from every worker thread, hence `Sync`.
    pub fn new(factory: impl Fn() -> M + Sync + 'static) -> Self {
        Explorer {
            factory: Box::new(factory),
            invariants: Vec::new(),
            strategy: Strategy::default(),
            depth_bound: 20,
            max_states: u64::MAX,
            stop_at_first: true,
            prune: None,
        }
    }

    /// Adds an invariant to check at every unique state.
    #[must_use]
    pub fn invariant(mut self, inv: impl Invariant + 'static) -> Self {
        self.invariants.push(Box::new(inv));
        self
    }

    /// Adds a whole invariant suite (e.g.
    /// [`default_suite`](crate::invariant::default_suite)).
    #[must_use]
    pub fn invariants(mut self, invs: Vec<Box<dyn Invariant>>) -> Self {
        self.invariants.extend(invs);
        self
    }

    /// Sets the frontier discipline.
    #[must_use]
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Sets the schedule-length bound.
    #[must_use]
    pub fn depth_bound(mut self, depth: usize) -> Self {
        self.depth_bound = depth;
        self
    }

    /// Caps the number of states visited (smoke-test budget).
    #[must_use]
    pub fn max_states(mut self, max: u64) -> Self {
        self.max_states = max;
        self
    }

    /// Collect every violation instead of stopping at the first.
    #[must_use]
    pub fn keep_going(mut self) -> Self {
        self.stop_at_first = false;
        self
    }

    /// Installs a pruning hook: called at every unique non-terminal state
    /// with its observation and schedule prefix; returning `true` skips
    /// expanding the state's successors (the state itself is still
    /// counted and invariant-checked).
    #[must_use]
    pub fn prune(mut self, hook: impl Fn(&Observation, &[Choice]) -> bool + 'static) -> Self {
        self.prune = Some(Box::new(hook));
        self
    }

    /// Rebuilds the state a schedule leads to by replaying it through a
    /// fresh model.
    ///
    /// # Errors
    ///
    /// Returns the offending step index when a choice is not enabled —
    /// the schedule belongs to a different scenario or code version.
    pub fn replay(&self, schedule: &Schedule) -> Result<M, String> {
        let mut model = (self.factory)();
        if schedule.scenario != model.name() {
            return Err(format!(
                "schedule is for scenario {:?}, model is {:?}",
                schedule.scenario,
                model.name()
            ));
        }
        for (i, &c) in schedule.choices.iter().enumerate() {
            if !model.apply(c) {
                return Err(format!("step {i}: choice {c} not applicable"));
            }
        }
        Ok(model)
    }

    /// Replays a violating schedule and packages both counterexample
    /// artifacts. Build the explorer with a *traced* factory to get a
    /// non-empty timeline.
    ///
    /// # Errors
    ///
    /// Propagates [`Explorer::replay`] errors.
    pub fn counterexample(&self, schedule: &Schedule) -> Result<Counterexample, String> {
        let model = self.replay(schedule)?;
        Ok(Counterexample {
            schedule_jsonl: schedule.to_jsonl(),
            timeline_jsonl: model.timeline().unwrap_or_default(),
        })
    }

    /// Explores the bounded state graph, checking every invariant at every
    /// unique state.
    #[must_use]
    pub fn run(&self) -> ExploreReport {
        let mut report = ExploreReport::default();
        self.walk(|_, _| false, &mut report);
        report
    }

    /// Directed search: explores until `goal` returns `true` for some
    /// unique state, returning the schedule that reaches it. Use BFS for
    /// a shortest such schedule. Invariants are still checked along the
    /// way (their violations land in the discarded report; use
    /// [`Explorer::run`] to audit them).
    #[must_use]
    pub fn find(&self, goal: impl Fn(&Observation) -> bool) -> Option<Schedule> {
        let mut report = ExploreReport::default();
        self.walk(|obs, _| goal(obs), &mut report)
            .map(|(name, choices)| Schedule {
                scenario: name,
                choices,
            })
    }

    /// The shared exploration loop, one worker per available core.
    /// `stop` is consulted at every unique state; returning `true` ends
    /// the walk with that state's prefix.
    fn walk(
        &self,
        stop: impl Fn(&Observation, &[Choice]) -> bool,
        report: &mut ExploreReport,
    ) -> Option<(String, Vec<Choice>)> {
        let workers = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
        self.walk_on(workers, stop, report)
    }

    /// [`Explorer::walk`] with its visits spread over `workers` threads
    /// (the caller's included). The merge below is the only place that
    /// changes the report, the dedup set or the frontier, and it takes
    /// the batch in pop order, so the outcome is the one-at-a-time walk's.
    fn walk_on(
        &self,
        workers: usize,
        stop: impl Fn(&Observation, &[Choice]) -> bool,
        report: &mut ExploreReport,
    ) -> Option<(String, Vec<Choice>)> {
        let mut tree = PrefixTree::default();
        let mut frontier: VecDeque<u32> = VecDeque::from([ROOT]);
        let mut seen: HashSet<u64> = HashSet::new();
        let mut scenario: Option<String> = None;
        let mut batch: Vec<u32> = Vec::new();
        let mut paths: Vec<Path<M>> = (0..workers.max(1)).map(|_| Path::new()).collect();
        while !frontier.is_empty() {
            let room = self.max_states - report.states_explored;
            if room == 0 {
                report.truncated = true;
                break;
            }
            batch.clear();
            match self.strategy {
                Strategy::Dfs => batch.extend(frontier.pop_back()),
                Strategy::Bfs => {
                    let room = usize::try_from(room).unwrap_or(usize::MAX);
                    batch.extend(frontier.drain(..frontier.len().min(BATCH).min(room)));
                }
            }
            let visits = self.visit_batch(&mut paths, &tree, &batch, &seen);
            for (&node, visit) in batch.iter().zip(visits) {
                report.states_explored += 1;
                let Visit::New {
                    fingerprint,
                    obs,
                    prefix,
                    enabled,
                } = visit
                else {
                    report.dedup_hits += 1;
                    continue;
                };
                if !seen.insert(fingerprint) {
                    report.dedup_hits += 1;
                    continue;
                }
                report.states_unique += 1;
                report.max_depth = report.max_depth.max(prefix.len());
                for inv in &self.invariants {
                    if let Err(detail) = inv.check(&obs) {
                        report.violations.push(Violation {
                            invariant: inv.name(),
                            detail,
                            depth: prefix.len(),
                            schedule: Schedule {
                                scenario: self.scenario(&mut scenario),
                                choices: prefix.clone(),
                            },
                        });
                        if self.stop_at_first {
                            return None;
                        }
                    }
                }
                if stop(&obs, &prefix) {
                    return Some((self.scenario(&mut scenario), prefix));
                }
                if obs.terminal {
                    report.terminal_states += 1;
                    continue;
                }
                if prefix.len() >= self.depth_bound {
                    report.bound_hits += 1;
                    continue;
                }
                if let Some(hook) = &self.prune {
                    if hook(&obs, &prefix) {
                        report.pruned += 1;
                        continue;
                    }
                }
                for c in enabled {
                    frontier.push_back(tree.push(node, c));
                }
            }
        }
        None
    }

    /// The scenario name schedules carry, read from one fresh model the
    /// first time a schedule needs it.
    fn scenario(&self, cached: &mut Option<String>) -> String {
        cached
            .get_or_insert_with(|| (self.factory)().name().to_string())
            .clone()
    }

    /// Visits every prefix of `batch` on up to one thread per path, the
    /// caller's walking the first, and returns the visits in batch order.
    /// Threads take the next unvisited sibling group as they free up, so
    /// deep and shallow groups balance.
    fn visit_batch(
        &self,
        paths: &mut [Path<M>],
        tree: &PrefixTree,
        batch: &[u32],
        seen: &HashSet<u64>,
    ) -> Vec<Visit> {
        let factory: &(dyn Fn() -> M + Sync) = &*self.factory;
        let depth_bound = self.depth_bound;
        let groups = sibling_groups(tree, batch);
        let next = AtomicUsize::new(0);
        let work = |path: &mut Path<M>| {
            let mut done = Vec::new();
            loop {
                let g = next.fetch_add(1, Ordering::Relaxed);
                let Some(group) = groups.get(g) else {
                    return done;
                };
                let siblings = &batch[group.clone()];
                let visits = visit_siblings(factory, path, depth_bound, tree, siblings, seen);
                done.extend((group.start..).zip(visits));
            }
        };
        let busy = paths.len().min(groups.len());
        let (first, others) = paths[..busy]
            .split_first_mut()
            .expect("a batch holds a group and a walk a path");
        let mut visits = std::thread::scope(|s| {
            let helpers: Vec<_> = others
                .iter_mut()
                .map(|path| s.spawn(move || work(path)))
                .collect();
            let mut visits = work(first);
            for helper in helpers {
                visits.extend(
                    helper
                        .join()
                        .unwrap_or_else(|panic| std::panic::resume_unwind(panic)),
                );
            }
            visits
        });
        visits.sort_unstable_by_key(|&(i, _)| i);
        visits.into_iter().map(|(_, visit)| visit).collect()
    }
}

/// Splits `batch` into its runs of prefixes with one parent, in order.
fn sibling_groups(tree: &PrefixTree, batch: &[u32]) -> Vec<Range<usize>> {
    let parent = |i: usize| tree.last(batch[i]).map(|(parent, _)| parent);
    let mut groups = Vec::new();
    let mut start = 0;
    for i in 1..=batch.len() {
        if i == batch.len() || parent(i) != parent(start) {
            groups.push(start..i);
            start = i;
        }
    }
    groups
}

/// Visits one sibling group: reaches the parent they share on `path`,
/// forks it for every sibling but the last, which takes the parent itself,
/// and applies each sibling's choice (see [`Visit`]).
fn visit_siblings<M: Model>(
    factory: &(dyn Fn() -> M + Sync),
    path: &mut Path<M>,
    depth_bound: usize,
    tree: &PrefixTree,
    siblings: &[u32],
    seen: &HashSet<u64>,
) -> Vec<Visit> {
    let Some((parent_id, _)) = tree.last(siblings[0]) else {
        // The empty prefix: the factory's own state.
        return vec![inspect(
            path.reach(factory, &[]),
            Vec::new(),
            depth_bound,
            seen,
        )];
    };
    let parent_prefix = tree.prefix(parent_id);
    let visit = |mut model: M, node: u32| {
        let (_, choice) = tree.last(node).expect("a sibling has a parent");
        assert!(
            model.apply(choice),
            "fork diverged: {choice} was enabled at the parent"
        );
        let mut prefix = Vec::with_capacity(parent_prefix.len() + 1);
        prefix.extend_from_slice(&parent_prefix);
        prefix.push(choice);
        inspect(&model, prefix, depth_bound, seen)
    };
    let (&last, forked) = siblings.split_last().expect("a group is never empty");
    let parent = path.reach(factory, &parent_prefix);
    let mut visits: Vec<Visit> = forked
        .iter()
        .map(|&node| visit(parent.fork(), node))
        .collect();
    visits.push(visit(path.take(), last));
    visits
}

/// Reports what the merge needs of the state `model` holds, reached by
/// `prefix` (see [`Visit`]).
fn inspect<M: Model>(
    model: &M,
    prefix: Vec<Choice>,
    depth_bound: usize,
    seen: &HashSet<u64>,
) -> Visit {
    let fingerprint = model.fingerprint();
    if seen.contains(&fingerprint) {
        return Visit::Seen;
    }
    let obs = Box::new(model.observe());
    let enabled = if obs.terminal || prefix.len() >= depth_bound {
        Vec::new()
    } else {
        model.enabled()
    };
    Visit::New {
        fingerprint,
        obs,
        prefix,
        enabled,
    }
}

#[cfg(test)]
mod tests {
    use std::hash::{Hash, Hasher};
    use std::sync::Arc;

    use super::*;
    use crate::invariant::{default_suite, NodeObs};
    use crate::scenario::{ScenarioConfig, TwoPhaseSwitch};
    use manetkit::{CoordinatorPhase, TxnPhase};

    impl<M: Model> Explorer<M> {
        /// The one-prefix-at-a-time walk, kept as it was before visits were
        /// batched across threads and prefixes shared a tree: the oracle
        /// every worker count must reproduce exactly.
        fn walk_sequential(
            &self,
            stop: impl Fn(&Observation, &[Choice]) -> bool,
            report: &mut ExploreReport,
        ) -> Option<(String, Vec<Choice>)> {
            let mut frontier: VecDeque<Vec<Choice>> = VecDeque::new();
            frontier.push_back(Vec::new());
            let mut seen: HashSet<u64> = HashSet::new();
            while let Some(prefix) = match self.strategy {
                Strategy::Dfs => frontier.pop_back(),
                Strategy::Bfs => frontier.pop_front(),
            } {
                if report.states_explored >= self.max_states {
                    report.truncated = true;
                    break;
                }
                report.states_explored += 1;
                let mut model = (self.factory)();
                for &c in &prefix {
                    assert!(
                        model.apply(c),
                        "replay diverged: model is not deterministic"
                    );
                }
                if !seen.insert(model.fingerprint()) {
                    report.dedup_hits += 1;
                    continue;
                }
                report.states_unique += 1;
                report.max_depth = report.max_depth.max(prefix.len());
                let obs = model.observe();
                for inv in &self.invariants {
                    if let Err(detail) = inv.check(&obs) {
                        report.violations.push(Violation {
                            invariant: inv.name(),
                            detail,
                            depth: prefix.len(),
                            schedule: Schedule {
                                scenario: model.name().to_string(),
                                choices: prefix.clone(),
                            },
                        });
                        if self.stop_at_first {
                            return None;
                        }
                    }
                }
                if stop(&obs, &prefix) {
                    return Some((model.name().to_string(), prefix));
                }
                if obs.terminal {
                    report.terminal_states += 1;
                    continue;
                }
                if prefix.len() >= self.depth_bound {
                    report.bound_hits += 1;
                    continue;
                }
                if let Some(hook) = &self.prune {
                    if hook(&obs, &prefix) {
                        report.pruned += 1;
                        continue;
                    }
                }
                for c in model.enabled() {
                    let mut child = prefix.clone();
                    child.push(c);
                    frontier.push_back(child);
                }
            }
            None
        }
    }

    /// Walks `explorer` with `stop` on the sequential oracle and on 1, 2, 3
    /// and 8 workers: every report field, every violation schedule and the
    /// stopping prefix must be equal. Returns the oracle's report.
    fn assert_worker_counts_agree<M: Model>(
        explorer: &Explorer<M>,
        stop: impl Fn(&Observation, &[Choice]) -> bool,
    ) -> (ExploreReport, Option<(String, Vec<Choice>)>) {
        let mut oracle = ExploreReport::default();
        let stopped = explorer.walk_sequential(&stop, &mut oracle);
        for workers in [1, 2, 3, 8] {
            let mut report = ExploreReport::default();
            let found = explorer.walk_on(workers, &stop, &mut report);
            assert_eq!(report, oracle, "{workers} workers");
            assert_eq!(found, stopped, "{workers} workers");
        }
        (oracle, stopped)
    }

    /// A cheap model to explore whole: a walk on a 40 × 30 grid, where
    /// `Timer` steps along an axis and `Reboot` sends `a` back to 0 on
    /// every third row, so paths merge (dedup hits), the corner is
    /// terminal and a depth bound below 69 cuts paths off.
    struct Grid {
        a: u32,
        b: u32,
    }

    impl Grid {
        fn can_reset(&self) -> bool {
            self.a > 0 && self.b.is_multiple_of(3)
        }
    }

    impl Model for Grid {
        fn name(&self) -> &str {
            "grid"
        }

        fn fork(&self) -> Self {
            Grid {
                a: self.a,
                b: self.b,
            }
        }

        fn enabled(&self) -> Vec<Choice> {
            let mut out = Vec::new();
            if self.a < 39 {
                out.push(Choice::Timer { node: 0 });
            }
            if self.b < 29 {
                out.push(Choice::Timer { node: 1 });
            }
            if self.can_reset() {
                out.push(Choice::Reboot { node: 0 });
            }
            out
        }

        fn apply(&mut self, choice: Choice) -> bool {
            match choice {
                Choice::Timer { node: 0 } if self.a < 39 => self.a += 1,
                Choice::Timer { node: 1 } if self.b < 29 => self.b += 1,
                Choice::Reboot { node: 0 } if self.can_reset() => self.a = 0,
                _ => return false,
            }
            true
        }

        fn fingerprint(&self) -> u64 {
            let mut h = std::collections::hash_map::DefaultHasher::new();
            (self.a, self.b).hash(&mut h);
            h.finish()
        }

        fn observe(&self) -> Observation {
            Observation {
                txn: 1,
                baseline_hash: 0,
                coordinator: CoordinatorPhase::Preparing,
                report: None,
                terminal: self.a == 39 && self.b == 29,
                stalled_expiry: false,
                nodes: vec![NodeObs {
                    node: 0,
                    alive: true,
                    phase: None,
                    composition_hash: Some(u64::from(self.a) << 32 | u64::from(self.b)),
                    counters: manetkit::TxnCounters::default(),
                    rollback_mismatch: 0,
                    pending_ctl: 0,
                    verdict_in_flight: false,
                }],
            }
        }
    }

    /// `(a, b)` of a [`Grid`] observation.
    fn grid_at(obs: &Observation) -> (u64, u64) {
        let h = obs.nodes[0].composition_hash.unwrap_or_default();
        (h >> 32, h & 0xffff_ffff)
    }

    /// Flags every grid state on the anti-diagonal `a + b == 20`.
    struct Diagonal;

    impl Invariant for Diagonal {
        fn name(&self) -> &'static str {
            "diagonal"
        }

        fn check(&self, obs: &Observation) -> Result<(), String> {
            match grid_at(obs) {
                (a, b) if a + b == 20 => Err(format!("a={a} b={b}")),
                _ => Ok(()),
            }
        }
    }

    fn grid(strategy: Strategy) -> Explorer<Grid> {
        Explorer::new(|| Grid { a: 0, b: 0 })
            .invariant(Diagonal)
            .strategy(strategy)
            .depth_bound(50)
    }

    #[test]
    fn grid_walks_agree_on_every_worker_count() {
        let never = |_: &Observation, _: &[Choice]| false;
        for strategy in [Strategy::Bfs, Strategy::Dfs] {
            // Uncapped, collecting every violation: several full batches.
            let (all, _) = assert_worker_counts_agree(&grid(strategy).keep_going(), never);
            assert!(!all.truncated && all.states_explored > 3 * BATCH as u64);
            assert!(all.dedup_hits > 0 && all.bound_hits > 0 && all.violations.len() > 1);
            assert_eq!(all.terminal_states, 0, "the corner lies beyond the bound");
            // Capped mid-batch, and stopping at the first violation.
            let (capped, _) =
                assert_worker_counts_agree(&grid(strategy).keep_going().max_states(700), never);
            assert!(capped.truncated && capped.states_explored == 700);
            let (first, _) = assert_worker_counts_agree(&grid(strategy), never);
            assert_eq!(first.violations.len(), 1);
            // A prune hook, and a search that stops at its goal.
            let pruned = grid(strategy)
                .keep_going()
                .prune(|obs, prefix| grid_at(obs).1 == 6 || prefix.len() == 33);
            assert!(assert_worker_counts_agree(&pruned, never).0.pruned > 0);
            let (_, found) = assert_worker_counts_agree(&grid(strategy).keep_going(), |obs, _| {
                grid_at(obs) == (17, 12)
            });
            assert!(found.is_some());
        }
        // The whole grid under a generous bound: the corner is terminal.
        let (whole, _) =
            assert_worker_counts_agree(&grid(Strategy::Bfs).keep_going().depth_bound(80), never);
        assert_eq!((whole.terminal_states, whole.bound_hits), (1, 0));
    }

    /// The batches and visits of a BFS of the uncapped grid under
    /// `depth_bound`: its frontier, replayed [`BATCH`] prefixes at a time.
    fn grid_bfs_batches(depth_bound: usize) -> (usize, u64) {
        let mut frontier = VecDeque::from([(Grid { a: 0, b: 0 }, 0)]);
        let mut seen = HashSet::new();
        let (mut batches, mut visits) = (0, 0);
        while !frontier.is_empty() {
            batches += 1;
            let batch: Vec<_> = frontier.drain(..frontier.len().min(BATCH)).collect();
            for (grid, depth) in batch {
                visits += 1;
                if !seen.insert(grid.fingerprint())
                    || grid.observe().terminal
                    || depth >= depth_bound
                {
                    continue;
                }
                for c in grid.enabled() {
                    let mut child = grid.fork();
                    assert!(child.apply(c));
                    frontier.push_back((child, depth + 1));
                }
            }
        }
        (batches, visits)
    }

    #[test]
    fn the_path_builds_one_root_per_worker_and_walk() {
        let never = |_: &Observation, _: &[Choice]| false;
        let builds = Arc::new(AtomicUsize::new(0));
        let counted = |strategy| {
            let builds = Arc::clone(&builds);
            Explorer::new(move || {
                builds.fetch_add(1, Ordering::Relaxed);
                Grid { a: 0, b: 0 }
            })
            .invariant(Diagonal)
            .strategy(strategy)
            .depth_bound(50)
            .keep_going()
        };
        let (batches, visits) = grid_bfs_batches(50);
        let (bfs, _) = assert_worker_counts_agree(&counted(Strategy::Bfs), never);
        assert_eq!(bfs.states_explored, visits);
        assert!(batches > 3);
        // Per worker at most one root over the whole walk, plus the one
        // that names the scenario of the first violation.
        for workers in [1, 2, 3, 8] {
            for (strategy, most) in [(Strategy::Bfs, 1 + workers), (Strategy::Dfs, 2)] {
                builds.store(0, Ordering::Relaxed);
                let _ = counted(strategy).walk_on(workers, never, &mut ExploreReport::default());
                let built = builds.load(Ordering::Relaxed);
                assert!(
                    built <= most,
                    "{strategy:?} on {workers} workers: {built} builds"
                );
            }
        }
        assert_worker_counts_agree(&counted(Strategy::Dfs), never);
    }

    fn switch(cfg: ScenarioConfig) -> Explorer<TwoPhaseSwitch> {
        Explorer::new(move || TwoPhaseSwitch::new(cfg.clone())).invariants(default_suite())
    }

    #[test]
    fn switch_walks_agree_on_every_worker_count() {
        let never = |_: &Observation, _: &[Choice]| false;
        let cfg = ScenarioConfig::default();
        let (bfs, _) =
            assert_worker_counts_agree(&switch(cfg.clone()).depth_bound(12).max_states(600), never);
        assert!(bfs.truncated && bfs.violations.is_empty() && bfs.dedup_hits > 0);
        let (dfs, _) = assert_worker_counts_agree(
            &switch(cfg.clone())
                .strategy(Strategy::Dfs)
                .depth_bound(8)
                .max_states(250),
            never,
        );
        assert!(dfs.truncated && dfs.bound_hits > 0);
        // Uncapped: the whole graph to depth 3.
        let (shallow, _) = assert_worker_counts_agree(&switch(cfg.clone()).depth_bound(3), never);
        assert!(!shallow.truncated && shallow.bound_hits > 0);
        // The directed search for a participant that died prepared after
        // the coordinator sent the commit.
        let (_, found) = assert_worker_counts_agree(&switch(cfg).depth_bound(8), |obs, _| {
            obs.coordinator == CoordinatorPhase::Committing
                && obs
                    .nodes
                    .iter()
                    .any(|n| !n.alive && n.phase == Some(TxnPhase::Prepared))
        });
        assert!(found.is_some());
    }

    #[test]
    fn the_seeded_mutation_is_caught_identically_on_every_worker_count() {
        let never = |_: &Observation, _: &[Choice]| false;
        let mutated = ScenarioConfig {
            skip_doomed_rollback: true,
            ..ScenarioConfig::default()
        };
        // Stop at the first violation: the E17 counterexample.
        let (first, _) =
            assert_worker_counts_agree(&switch(mutated.clone()).depth_bound(12), never);
        assert_eq!(first.states_explored, 85);
        assert_eq!(first.violations.len(), 1);
        assert_eq!(first.violations[0].depth, 3);
        // Keep going under a cap: many violations, in one order.
        let (all, _) = assert_worker_counts_agree(
            &switch(mutated).depth_bound(12).max_states(400).keep_going(),
            never,
        );
        assert!(all.violations.len() > 1);
    }

    #[test]
    fn prefix_tree_spells_prefixes_back() {
        let mut tree = PrefixTree::default();
        assert!(tree.prefix(ROOT).is_empty());
        let a = tree.push(ROOT, Choice::Timer { node: 0 });
        let b = tree.push(a, Choice::Crash { node: 1 });
        let c = tree.push(a, Choice::Verdict { node: 2 });
        assert_eq!(
            tree.prefix(b),
            [Choice::Timer { node: 0 }, Choice::Crash { node: 1 }]
        );
        assert_eq!(
            tree.prefix(c),
            [Choice::Timer { node: 0 }, Choice::Verdict { node: 2 }]
        );
    }
}
