//! `mcheck` — a bounded model checker for transactional reconfiguration.
//!
//! The transactional machinery (prepare/commit/rollback, doomed-transaction
//! recovery, fleet 2PC) is exercised elsewhere by property tests and chaos
//! campaigns, but both sample the interleaving space. This crate walks it
//! **exhaustively** up to a bound: the deterministic `netsim` world is put
//! in controlled-delivery mode, where nothing fires behind the checker's
//! back, and every nondeterministic decision — which pending
//! message to deliver next, whether to drop it instead, when a node
//! crashes or reboots, which timer fires, when a coordinator verdict
//! reaches a node and when the coordinator's deadline passes — becomes an
//! explicit [`Choice`]. The [`Explorer`] then drives a fleet-wide 2PC
//! protocol switch, coordinated by the same
//! [`TwoPhaseMachine`](manetkit::TwoPhaseMachine) that
//! `FleetCoordinator::execute` steps, through every schedulable
//! interleaving within the crash/drop budgets, checking a reusable
//! [`Invariant`] suite at every state:
//! rollback exactness, no split-brain composition, no commit beside a
//! refused prepare, a coordinator that moves when its deadline passes, and
//! the `prepared == committed + rolled_back` ledger shared with the
//! engine's own tests via `manetkit::txn::invariants`.
//!
//! A state *is* the schedule prefix that reaches it (CHESS-style search
//! with fingerprint dedup), and queued prefixes share a prefix tree. The
//! world is deterministic and can be forked ([`netsim::World::fork`]), so
//! the checker forks rather than replays: the children of one expanded
//! state sit side by side in the frontier, and a visit rebuilds their
//! parent once, forks it per child and applies one choice to each. The
//! visits — rebuild, fork, fingerprint, observe — run on every core, while
//! a sequential merge makes every decision in the one-at-a-time order, so
//! reports and counterexamples do not depend on the number of cores.
//! Replaying a prefix through a fresh [`TwoPhaseSwitch`] stays the oracle
//! ([`Explorer::replay`]). On a violation
//! the schedule ships as the counterexample — a byte-stable JSONL file
//! that re-executes the exact interleaving through the normal `World`,
//! plus a trace-crate timeline of the violating run when the flight
//! recorder is on.
//!
//! ```
//! use mcheck::{default_suite, Explorer, ScenarioConfig, TwoPhaseSwitch};
//!
//! let cfg = ScenarioConfig {
//!     max_crashes: 1,
//!     max_drops: 1,
//!     ..ScenarioConfig::default()
//! };
//! let report = Explorer::new(move || TwoPhaseSwitch::new(cfg.clone()))
//!     .invariants(default_suite())
//!     .depth_bound(8)
//!     .max_states(2_000)
//!     .run();
//! assert!(report.violations.is_empty());
//! assert!(report.states_unique > 100);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod explorer;
mod invariant;
mod scenario;
mod schedule;

pub use explorer::{Counterexample, ExploreReport, Explorer, Model, Strategy, Violation};
pub use invariant::{
    default_suite, CounterConservation, ExpiryProgress, Invariant, NoMixedOutcome, NoSplitBrain,
    NodeObs, Observation, RollbackExactness, StuckResolution,
};
pub use scenario::{ScenarioConfig, TwoPhaseSwitch};
pub use schedule::{Choice, Schedule};
