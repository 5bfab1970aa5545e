//! Mobility: a random-waypoint walk over the unit square, sampled at
//! fixed steps.
//!
//! The MobiEmu tool the paper used replays connectivity changes derived
//! from node movement. Here the walk itself is the one model of movement,
//! [`Walk`], and it reaches a [`World`] in one of three encodings:
//!
//! * streamed: [`World::install_walk`] takes the walk and fires one event
//!   per step that moves the nodes, so a run holds O(n) walk state and one
//!   pending event instead of every future move;
//! * as a [`MoveSchedule`] ([`random_waypoint_field`]): every move of the
//!   walk, precomputed, for a spatial topology — what the streamed walk is
//!   tested against;
//! * as a [`MobilityTrace`] ([`random_waypoint`]): pairwise link changes
//!   for a dense topology, derived from a radio radius.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::packet::NodeId;
use crate::time::{SimDuration, SimTime};
use crate::topology::{LinkState, Topology};
use crate::world::World;

/// Parameters of a random-waypoint walk.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RandomWaypoint {
    /// Number of nodes.
    pub nodes: usize,
    /// Radio range in unit-square units (link up when within range).
    pub radius: f64,
    /// Node speed in unit-square units per second.
    pub speed: f64,
    /// Sampling step between connectivity re-evaluations.
    pub step: SimDuration,
    /// Total schedule duration.
    pub duration: SimDuration,
    /// How long a node rests at each waypoint before moving toward the
    /// next (classic random-waypoint pause time; rounded up to whole
    /// sampling steps). Zero — the default — reproduces the historical
    /// pause-free walk exactly.
    pub pause: SimDuration,
    /// RNG seed (same seed, same movement).
    pub seed: u64,
}

impl Default for RandomWaypoint {
    fn default() -> Self {
        RandomWaypoint {
            nodes: 10,
            radius: 0.4,
            speed: 0.02,
            step: SimDuration::from_secs(1),
            duration: SimDuration::from_secs(120),
            pause: SimDuration::ZERO,
            seed: 0,
        }
    }
}

/// A random-waypoint walk in progress: every node's position, waypoint and
/// remaining rest, and the walk's own seeded RNG — O(n) state, whatever
/// the duration. Steps fall at `step`, `2·step`, … until the duration is
/// covered.
#[derive(Debug, Clone)]
pub struct Walk {
    pos: Vec<(f64, f64)>,
    waypoint: Vec<(f64, f64)>,
    /// Steps each node still rests at its waypoint.
    hold: Vec<u64>,
    rng: StdRng,
    move_per_step: f64,
    /// Steps of rest on reaching a waypoint: the pause, rounded up.
    rest: u64,
    step: SimDuration,
    /// When the next step falls.
    next: SimTime,
    /// Steps not yet taken.
    left: u64,
}

impl Walk {
    /// Starts the walk `params` describes: positions first, then
    /// waypoints, drawn from an RNG seeded with `params.seed`.
    ///
    /// # Panics
    ///
    /// Panics when `nodes == 0`, the step is zero, or the radius or speed
    /// is not finite.
    #[must_use]
    pub fn new(params: RandomWaypoint) -> Self {
        assert!(params.nodes > 0, "need at least one node");
        let step = params.step.as_micros();
        assert!(step > 0, "step must be positive");
        assert!(
            params.radius.is_finite() && params.speed.is_finite(),
            "parameters must be finite"
        );
        let mut rng = StdRng::seed_from_u64(params.seed);
        let n = params.nodes;
        let pos = (0..n).map(|_| (rng.gen(), rng.gen())).collect();
        let waypoint = (0..n).map(|_| (rng.gen(), rng.gen())).collect();
        Walk {
            pos,
            waypoint,
            hold: vec![0; n],
            rng,
            move_per_step: params.speed * params.step.as_secs_f64(),
            rest: params.pause.as_micros().div_ceil(step),
            step: params.step,
            next: SimTime::ZERO + params.step,
            left: params.duration.as_micros().div_ceil(step),
        }
    }

    /// Every node's current position.
    #[must_use]
    pub fn positions(&self) -> &[(f64, f64)] {
        &self.pos
    }

    /// Steps not yet taken.
    #[must_use]
    pub fn steps_left(&self) -> u64 {
        self.left
    }

    /// When the next step falls; `None` once the duration is covered.
    #[must_use]
    pub fn next_at(&self) -> Option<SimTime> {
        (self.left > 0).then_some(self.next)
    }

    /// Takes the next step: every node that is not resting moves toward
    /// its waypoint, and one that reaches it draws the next and rests
    /// there. Calls `moved` for each node whose position changed, in node
    /// order. A resting node neither moves nor draws from the RNG, so a
    /// zero pause reproduces the pause-free walk byte for byte.
    ///
    /// # Panics
    ///
    /// Panics when the walk has no step left.
    pub fn step(&mut self, mut moved: impl FnMut(NodeId, (f64, f64))) {
        assert!(self.left > 0, "the walk is over");
        self.left -= 1;
        self.next += self.step;
        for i in 0..self.pos.len() {
            if self.hold[i] > 0 {
                self.hold[i] -= 1;
                continue;
            }
            let (wx, wy) = self.waypoint[i];
            let (x, y) = self.pos[i];
            let (dx, dy) = (wx - x, wy - y);
            let dist = (dx * dx + dy * dy).sqrt();
            let d = self.move_per_step;
            if dist <= d {
                self.pos[i] = (wx, wy);
                self.waypoint[i] = (self.rng.gen(), self.rng.gen());
                self.hold[i] = self.rest;
            } else {
                self.pos[i] = (x + dx / dist * d, y + dy / dist * d);
            }
            if self.pos[i] != (x, y) {
                moved(NodeId(i), self.pos[i]);
            }
        }
    }
}

/// One scheduled link change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkChange {
    /// When the change happens.
    pub at: SimTime,
    /// One endpoint.
    pub a: NodeId,
    /// The other endpoint.
    pub b: NodeId,
    /// The new state.
    pub state: LinkState,
}

/// The product of a mobility run: the initial topology and the change
/// schedule derived from movement.
#[derive(Debug, Clone, PartialEq)]
pub struct MobilityTrace {
    /// Connectivity at time zero.
    pub initial: Topology,
    /// Ordered link changes.
    pub changes: Vec<LinkChange>,
}

impl MobilityTrace {
    /// Applies the schedule to a world (the initial topology must have been
    /// passed to the builder).
    pub fn schedule_into(&self, world: &mut World) {
        for c in &self.changes {
            world.schedule_link_change(c.at, c.a, c.b, c.state);
        }
    }

    /// Number of link transitions in the trace.
    #[must_use]
    pub fn churn(&self) -> usize {
        self.changes.len()
    }
}

/// Every move of a walk, precomputed, for spatial topologies: O(n) position
/// updates per step where [`MobilityTrace`] holds O(n²) pairwise link
/// transitions, with the world's grid index deriving connectivity on
/// demand. A world normally streams the walk instead
/// ([`World::install_walk`]); scheduling this up front moves the nodes the
/// same way, in the same event order, and is the streamed walk's oracle.
#[derive(Debug, Clone, PartialEq)]
pub struct MoveSchedule {
    /// Spatial topology at time zero (positions plus radio radius).
    pub initial: Topology,
    /// Time-ordered node relocations `(at, node, x, y)`.
    pub moves: Vec<(SimTime, NodeId, f64, f64)>,
}

impl MoveSchedule {
    /// Applies the schedule to a world (the initial topology must have
    /// been passed to the builder).
    pub fn schedule_into(&self, world: &mut World) {
        for &(at, node, x, y) in &self.moves {
            world.schedule_node_move(at, node, x, y);
        }
    }

    /// Number of scheduled relocations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.moves.len()
    }

    /// Whether the schedule has no relocations.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.moves.is_empty()
    }
}

/// Runs a random-waypoint [`Walk`] to its end and returns its spatial
/// starting topology plus every move it made. The same parameters describe
/// the same physical movement as [`random_waypoint`]; only the encoding
/// differs.
///
/// # Panics
///
/// Panics when `nodes == 0`, the step is zero, the radius is not
/// positive, or parameters are non-finite.
#[must_use]
pub fn random_waypoint_field(params: RandomWaypoint) -> MoveSchedule {
    let mut walk = Walk::new(params);
    let initial = Topology::spatial(walk.positions().to_vec(), params.radius);
    let mut moves = Vec::new();
    while let Some(at) = walk.next_at() {
        walk.step(|node, (x, y)| moves.push((at, node, x, y)));
    }
    MoveSchedule { initial, moves }
}

/// Runs a random-waypoint [`Walk`] to its end and returns the dense
/// topology it starts from plus every link transition its movement causes
/// (a pair scan after each step).
///
/// # Panics
///
/// Panics when `nodes == 0`, the step is zero, or parameters are
/// non-finite.
#[must_use]
pub fn random_waypoint(params: RandomWaypoint) -> MobilityTrace {
    let mut walk = Walk::new(params);
    let n = params.nodes;
    let in_range = |pos: &[(f64, f64)], a: usize, b: usize| {
        let dx = pos[a].0 - pos[b].0;
        let dy = pos[a].1 - pos[b].1;
        (dx * dx + dy * dy).sqrt() <= params.radius
    };

    let mut initial = Topology::empty(n);
    for a in 0..n {
        for b in (a + 1)..n {
            if in_range(walk.positions(), a, b) {
                initial.set_link(NodeId(a), NodeId(b), LinkState::Up);
            }
        }
    }

    let mut current = initial.clone();
    let mut changes = Vec::new();
    while let Some(at) = walk.next_at() {
        walk.step(|_, _| {});
        let pos = walk.positions();
        for a in 0..n {
            for b in (a + 1)..n {
                let now_up = in_range(pos, a, b);
                if now_up != current.link_up(NodeId(a), NodeId(b)) {
                    let state = if now_up {
                        LinkState::Up
                    } else {
                        LinkState::Down
                    };
                    current.set_link(NodeId(a), NodeId(b), state);
                    changes.push(LinkChange {
                        at,
                        a: NodeId(a),
                        b: NodeId(b),
                        state,
                    });
                }
            }
        }
    }
    MobilityTrace { initial, changes }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_is_deterministic() {
        let p = RandomWaypoint {
            nodes: 8,
            seed: 5,
            ..RandomWaypoint::default()
        };
        assert_eq!(random_waypoint(p), random_waypoint(p));
        let other = RandomWaypoint { seed: 6, ..p };
        assert_ne!(random_waypoint(p), random_waypoint(other));
    }

    #[test]
    fn movement_produces_churn() {
        let p = RandomWaypoint {
            nodes: 10,
            speed: 0.05,
            duration: SimDuration::from_secs(120),
            seed: 2,
            ..RandomWaypoint::default()
        };
        let trace = random_waypoint(p);
        assert!(trace.churn() > 0, "fast movement must flap some links");
        // Changes are time-ordered and alternate per pair.
        let mut last = SimTime::ZERO;
        for c in &trace.changes {
            assert!(c.at >= last);
            last = c.at;
        }
    }

    #[test]
    fn zero_speed_means_no_churn() {
        let p = RandomWaypoint {
            nodes: 6,
            speed: 0.0,
            seed: 3,
            ..RandomWaypoint::default()
        };
        assert_eq!(random_waypoint(p).churn(), 0);
    }

    #[test]
    fn field_schedule_is_deterministic() {
        let p = RandomWaypoint {
            nodes: 8,
            seed: 5,
            ..RandomWaypoint::default()
        };
        assert_eq!(random_waypoint_field(p), random_waypoint_field(p));
        let other = RandomWaypoint { seed: 6, ..p };
        assert_ne!(random_waypoint_field(p), random_waypoint_field(other));
    }

    #[test]
    fn field_matches_pairwise_trace_connectivity() {
        // The two encodings draw from the RNG in the same order, so the
        // physical movement is identical: after running both schedules,
        // every node's neighbour set must agree.
        let p = RandomWaypoint {
            nodes: 20,
            radius: 0.3,
            speed: 0.06,
            duration: SimDuration::from_secs(30),
            seed: 9,
            ..RandomWaypoint::default()
        };
        let trace = random_waypoint(p);
        let field = random_waypoint_field(p);
        assert_eq!(
            trace.initial.neighbours(NodeId(0)),
            field.initial.neighbours(NodeId(0))
        );

        let mut dense = World::builder().topology(trace.initial.clone()).build();
        trace.schedule_into(&mut dense);
        let mut spatial = World::builder().topology(field.initial.clone()).build();
        field.schedule_into(&mut spatial);
        dense.run_for(p.duration);
        spatial.run_for(p.duration);
        for i in 0..p.nodes {
            assert_eq!(
                dense.topology().neighbours(NodeId(i)),
                spatial.topology().neighbours(NodeId(i)),
                "node {i} neighbour sets diverged"
            );
        }
    }

    #[test]
    fn zero_speed_field_emits_no_moves() {
        let p = RandomWaypoint {
            nodes: 6,
            speed: 0.0,
            seed: 3,
            ..RandomWaypoint::default()
        };
        assert!(random_waypoint_field(p).is_empty());
    }

    #[test]
    fn pause_time_rests_nodes_and_reduces_movement() {
        let base = RandomWaypoint {
            nodes: 12,
            radius: 0.3,
            speed: 0.2, // fast: nodes reach waypoints often, so pauses bite
            duration: SimDuration::from_secs(60),
            seed: 7,
            ..RandomWaypoint::default()
        };
        let paused = RandomWaypoint {
            pause: SimDuration::from_secs(5),
            ..base
        };
        let restless = random_waypoint_field(base);
        let resting = random_waypoint_field(paused);
        assert!(
            resting.len() < restless.len(),
            "pausing nodes must emit fewer moves ({} vs {})",
            resting.len(),
            restless.len()
        );
        assert!(
            !resting.is_empty(),
            "paused nodes still travel between rests"
        );
    }

    #[test]
    fn zero_pause_is_byte_identical_to_historical_walk() {
        let p = RandomWaypoint {
            nodes: 9,
            speed: 0.07,
            duration: SimDuration::from_secs(45),
            seed: 11,
            ..RandomWaypoint::default()
        };
        let explicit = RandomWaypoint {
            pause: SimDuration::ZERO,
            ..p
        };
        assert_eq!(random_waypoint(p), random_waypoint(explicit));
        assert_eq!(random_waypoint_field(p), random_waypoint_field(explicit));
    }

    #[test]
    fn pause_preserves_incremental_spatial_moves() {
        // The pairwise trace and the spatial move schedule must describe
        // the same paused movement: after replaying both into worlds, the
        // incrementally-maintained grid index agrees with the dense matrix.
        let p = RandomWaypoint {
            nodes: 16,
            radius: 0.35,
            speed: 0.15,
            duration: SimDuration::from_secs(40),
            pause: SimDuration::from_secs(3),
            seed: 21,
            ..RandomWaypoint::default()
        };
        let trace = random_waypoint(p);
        let field = random_waypoint_field(p);
        let mut dense = World::builder().topology(trace.initial.clone()).build();
        trace.schedule_into(&mut dense);
        let mut spatial = World::builder().topology(field.initial.clone()).build();
        field.schedule_into(&mut spatial);
        dense.run_for(p.duration);
        spatial.run_for(p.duration);
        for i in 0..p.nodes {
            assert_eq!(
                dense.topology().neighbours(NodeId(i)),
                spatial.topology().neighbours(NodeId(i)),
                "node {i} neighbour sets diverged under pause"
            );
        }
    }

    #[test]
    fn trace_applies_to_world() {
        let p = RandomWaypoint {
            nodes: 6,
            speed: 0.08,
            duration: SimDuration::from_secs(60),
            seed: 4,
            ..RandomWaypoint::default()
        };
        let trace = random_waypoint(p);
        let mut world = World::builder()
            .topology(trace.initial.clone())
            .seed(4)
            .build();
        trace.schedule_into(&mut world);
        let before = world.pending_events();
        assert_eq!(before, trace.churn());
        world.run_for(SimDuration::from_secs(60));
        assert_eq!(world.pending_events(), 0);
    }
}
