//! Transactional reconfiguration: checkpoint, apply, validate, roll back.
//!
//! The quiescence discipline (§4.5) guarantees no event is *in flight* when
//! a reconfiguration runs, but it says nothing about what happens when the
//! reconfiguration itself fails halfway: a `SwitchProtocol` whose add leg is
//! vetoed would previously leave the node with the old protocol gone and the
//! new one never installed. This module wraps a batch of [`ReconfigOp`]s in
//! a transaction:
//!
//! 1. **Checkpoint** — capture a [`CompositionFingerprint`] of the
//!    protocol stack (names, tuples, plug-ins, reactivity), exported
//!    protocol state and System CF configuration.
//! 2. **Apply** — run each op, keeping what it displaced (removed CFs,
//!    plug-ins, S elements, tuples, System configuration) as a physical
//!    undo log: nothing is reconstructed, so every [`ReconfigOp`] undoes
//!    exactly.
//! 3. **Validate** — any op failure or integrity veto aborts the
//!    transaction.
//! 4. **Roll back** — unwind the undo log in reverse and verify the
//!    fingerprint matches the checkpoint, so an abort provably restores the
//!    pre-transaction composition.
//!
//! A prepared transaction can be held open (two-phase commit across a
//! fleet: see [`crate::reconfig::FleetCoordinator::execute`] with the
//! `TwoPhase` strategy) and either
//! committed or rolled back later; after commit the undo log is retained so
//! a health-gated coordinator can still *revert* a composition that turns
//! out to regress delivery.
//!
//! All transitions emit trace records (`txn_prepare`, `txn_commit`,
//! `txn_abort`, `txn_rollback`, `txn_revert`) and bump `txn.*` OS counters
//! that surface in `WorldStats::agent_counters`.

use std::collections::hash_map::DefaultHasher;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use netsim::NodeOs;

use crate::event::EventType;
use crate::node::{DeployError, Deployment, ReconfigOp, Switched};
use crate::protocol::{Displaced, ManetProtocolCf};
use crate::registry::EventTuple;
use crate::system::SystemConfig;

/// Interface name a reactive protocol provides in its component digest
/// (see [`structural_hash`]).
const REACTIVE_IFACE: &str = "IReactiveRouting";

/// Why a transaction aborted.
///
/// The reason tags are interned `&'static str`s so they double as trace
/// record tags.
#[derive(Debug, Clone)]
pub struct TxnAborted {
    /// Transaction id.
    pub id: u64,
    /// Machine-readable reason tag: `op_failed` or `integrity`.
    pub reason: &'static str,
    /// Human-readable detail (the underlying error).
    pub detail: String,
    /// Whether the rollback verified byte-identical to the checkpoint.
    pub rollback_clean: bool,
}

impl fmt::Display for TxnAborted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "txn {} aborted ({}): {}",
            self.id, self.reason, self.detail
        )?;
        if !self.rollback_clean {
            write!(f, " [rollback mismatch]")?;
        }
        Ok(())
    }
}

impl std::error::Error for TxnAborted {}

/// An id-free structural digest of a deployment: what the composition *is*,
/// independent of the unit ids that change when a protocol is removed and
/// reinserted. Two fingerprints compare equal iff every protocol's
/// name/tuple/plug-ins/reactivity, its exported state bytes, the stack
/// order and the System CF configuration all match.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompositionFingerprint {
    /// Per-protocol digests in stack order.
    pub protocols: Vec<ProtocolFingerprint>,
    /// System CF configuration.
    pub system: SystemConfig,
}

/// One protocol's contribution to a [`CompositionFingerprint`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolFingerprint {
    /// Protocol name.
    pub name: String,
    /// Declared event tuple.
    pub tuple: EventTuple,
    /// Loaded plug-in names.
    pub plugins: Vec<String>,
    /// Whether the protocol registered as reactive.
    pub reactive: bool,
    /// Exported state bytes (`None` when the protocol has no state codec).
    pub state: Option<Vec<u8>>,
}

/// Computes the [`CompositionFingerprint`] of a deployment.
#[must_use]
pub fn fingerprint(dep: &Deployment) -> CompositionFingerprint {
    let protocols = dep
        .protocols()
        .map(|cf| ProtocolFingerprint {
            name: cf.name().to_string(),
            tuple: cf.tuple().clone(),
            plugins: cf.plugin_names(),
            reactive: cf.is_reactive(),
            state: cf.export_state(),
        })
        .collect();
    CompositionFingerprint {
        protocols,
        system: dep.system().config().clone(),
    }
}

/// A 64-bit digest of the deployment's *structure*: the protocols as a
/// component multiset, their names/tuples/plug-ins/reactivity in stack
/// order and the System CF configuration — deliberately **excluding**
/// exported protocol state bytes. Routing soft state (neighbour tables,
/// sequence numbers) churns with every received frame, so a
/// state-inclusive hash would never be stable across two observations of
/// the same composition; the structural hash only moves when a
/// reconfiguration op changes what is composed.
///
/// This is the observable the `mcheck` invariants compare: rollback
/// exactness in the structural sense is `hash == pre-transaction hash`,
/// while full-fidelity (state-inclusive) exactness is verified at unwind
/// time by the engine itself and surfaced as `txn.rollback_mismatch`.
///
/// The hash is deterministic across processes: `DefaultHasher` with its
/// fixed keys, fed names only — interface, event-type and plug-in names,
/// never unit or intern ids — so it can sit in persisted model-checker
/// fingerprints. It reads the deployment in place (no string copies),
/// because the model checker computes it at every agent callback.
#[must_use]
pub fn structural_hash(dep: &Deployment) -> u64 {
    let mut h = DefaultHasher::new();
    // The component multiset: one digest per protocol, sorted, so stack
    // order drops out of this part.
    let mut order: Vec<usize> = Vec::new();
    let mut components: Vec<u64> = dep
        .protocols()
        .map(|cf| component_digest(cf, &mut order))
        .collect();
    components.sort_unstable();
    components.hash(&mut h);
    for cf in dep.protocols() {
        cf.name().hash(&mut h);
        let tuple = cf.tuple();
        for types in [&tuple.required, &tuple.provided, &tuple.exclusive] {
            hash_names(types, &mut h);
        }
        let mut plugins = 0usize;
        for plugin in cf.plugins() {
            plugin.hash(&mut h);
            plugins += 1;
        }
        plugins.hash(&mut h);
        cf.is_reactive().hash(&mut h);
    }
    let system = dep.system().config();
    system.registrations.len().hash(&mut h);
    for r in &system.registrations {
        r.msg_type.hash(&mut h);
        r.in_event.as_str().hash(&mut h);
        r.out_event.map(|t| t.as_str()).hash(&mut h);
    }
    system.netlink.hash(&mut h);
    system.power_status.hash(&mut h);
    h.finish()
}

/// One protocol's digest as a component: its name, then its provided
/// interfaces (`event:<type>` per provided type, and [`REACTIVE_IFACE`]
/// for a reactive protocol) and its required ones (`event:<type>` per
/// required type), each list counted and sorted by name. `order` is
/// scratch space.
fn component_digest(cf: &ManetProtocolCf, order: &mut Vec<usize>) -> u64 {
    let mut c = DefaultHasher::new();
    cf.name().hash(&mut c);
    let tuple = cf.tuple();
    (tuple.provided.len() + usize::from(cf.is_reactive())).hash(&mut c);
    if cf.is_reactive() {
        // Upper case sorts before every `event:` name.
        REACTIVE_IFACE.hash(&mut c);
    }
    hash_interfaces(&tuple.provided, order, &mut c);
    tuple.required.len().hash(&mut c);
    hash_interfaces(&tuple.required, order, &mut c);
    c.finish()
}

/// Hashes `event:<type>` for each of `types` in name order, each exactly
/// as `str::hash` hashes the formatted name, without formatting it.
fn hash_interfaces(types: &[EventType], order: &mut Vec<usize>, h: &mut impl Hasher) {
    order.clear();
    order.extend(0..types.len());
    order.sort_unstable_by(|&a, &b| types[a].as_str().cmp(types[b].as_str()));
    for &i in order.iter() {
        h.write(b"event:");
        h.write(types[i].as_str().as_bytes());
        h.write_u8(0xff);
    }
}

/// Hashes event types by name, in order, with their count.
fn hash_names(types: &[EventType], h: &mut impl Hasher) {
    types.len().hash(h);
    for t in types {
        t.as_str().hash(h);
    }
}

/// One reversible step of an applied transaction. Undo is *physical*:
/// removed CFs ride along in the log and are reinserted on rollback, which
/// is the only way to restore type-erased protocol state exactly.
pub(crate) enum Undo {
    /// An `AddProtocol` applied — undo removes it again.
    RemoveAdded { name: String },
    /// A `RemoveProtocol` applied — undo reinserts the kept CF at its old
    /// stack position.
    Reinsert { cf: ManetProtocolCf, index: usize },
    /// A `SwitchProtocol` applied — undo removes the new CF, moves the
    /// state slot back into the kept old CF if the switch moved it (a
    /// route carry-over was a copy: the old CF still holds the
    /// checkpointed state) and reinserts it.
    UnSwitch {
        new_name: String,
        old: ManetProtocolCf,
        index: usize,
        moved: bool,
    },
    /// An `UpdateTuple` applied — undo restores the previous tuple.
    RestoreTuple { protocol: String, tuple: EventTuple },
    /// A `Recompose` applied — undo puts back the plug-ins and the S
    /// element it displaced.
    Restore {
        protocol: String,
        displaced: Displaced,
    },
    /// A `LoadSystem` applied — undo restores the configuration snapshot
    /// taken just before.
    RestoreSystem { config: SystemConfig },
}

impl Undo {
    /// An independent copy, or `None` when a kept CF or displaced plug-in
    /// cannot fork.
    fn fork(&self) -> Option<Undo> {
        Some(match self {
            Undo::RemoveAdded { name } => Undo::RemoveAdded { name: name.clone() },
            Undo::Reinsert { cf, index } => Undo::Reinsert {
                cf: cf.fork()?,
                index: *index,
            },
            Undo::UnSwitch {
                new_name,
                old,
                index,
                moved,
            } => Undo::UnSwitch {
                new_name: new_name.clone(),
                old: old.fork()?,
                index: *index,
                moved: *moved,
            },
            Undo::RestoreTuple { protocol, tuple } => Undo::RestoreTuple {
                protocol: protocol.clone(),
                tuple: tuple.clone(),
            },
            Undo::Restore {
                protocol,
                displaced,
            } => Undo::Restore {
                protocol: protocol.clone(),
                displaced: displaced.fork()?,
            },
            Undo::RestoreSystem { config } => Undo::RestoreSystem {
                config: config.clone(),
            },
        })
    }
}

impl fmt::Debug for Undo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Undo::RemoveAdded { name } => write!(f, "RemoveAdded({name})"),
            Undo::Reinsert { cf, index } => write!(f, "Reinsert({} @ {index})", cf.name()),
            Undo::UnSwitch { new_name, old, .. } => {
                write!(f, "UnSwitch({new_name} -> {})", old.name())
            }
            Undo::RestoreTuple { protocol, .. } => write!(f, "RestoreTuple({protocol})"),
            Undo::Restore { protocol, .. } => write!(f, "Restore({protocol})"),
            Undo::RestoreSystem { .. } => write!(f, "RestoreSystem"),
        }
    }
}

/// A transaction whose ops have been applied but whose undo log is still
/// live: it can be [`commit`]ted, [`rollback`]ed, or (after commit)
/// [`revert`]ed by a health gate.
#[derive(Debug)]
pub struct PreparedTxn {
    /// Transaction id (coordinator-assigned).
    pub id: u64,
    /// Number of ops applied.
    pub ops_applied: u64,
    /// Read only by an unwind, so a fork shares it.
    checkpoint: Arc<CompositionFingerprint>,
    undo: Vec<Undo>,
}

impl PreparedTxn {
    /// The checkpoint fingerprint taken before any op ran.
    #[must_use]
    pub fn checkpoint(&self) -> &CompositionFingerprint {
        &self.checkpoint
    }

    /// An independent copy of the transaction and its undo log (for a
    /// forked node), or `None` when an entry cannot fork.
    #[must_use]
    pub fn fork(&self) -> Option<PreparedTxn> {
        Some(PreparedTxn {
            id: self.id,
            ops_applied: self.ops_applied,
            checkpoint: Arc::clone(&self.checkpoint),
            undo: crate::protocol::fork_all(&self.undo, Undo::fork)?,
        })
    }
}

/// Checkpoints the deployment, applies `ops` and returns the prepared
/// transaction with its undo log, or rolls everything back and reports why.
/// Call it at a quiescent point: no event may be in flight.
///
/// # Errors
///
/// Aborts (with rollback already performed) on any op failure or integrity
/// veto.
pub fn prepare(
    dep: &mut Deployment,
    id: u64,
    ops: Vec<ReconfigOp>,
    os: &mut NodeOs,
) -> Result<PreparedTxn, TxnAborted> {
    let checkpoint = fingerprint(dep);
    let mut undo: Vec<Undo> = Vec::with_capacity(ops.len());
    let mut failure: Option<DeployError> = None;
    for op in ops {
        // The first failure drops the remaining ops; the batch is atomic.
        match apply_one(dep, op, os) {
            Ok(entry) => undo.push(entry),
            Err(e) => {
                failure = Some(e);
                break;
            }
        }
    }
    let ops_applied = undo.len() as u64;
    if let Some(e) = failure {
        let cause = match &e {
            DeployError::SwitchUnrecovered { cause, .. } => cause.as_ref(),
            other => other,
        };
        let reason = match cause {
            DeployError::Integrity(_) => "integrity",
            _ => "op_failed",
        };
        let detail = e.to_string();
        let clean = unwind(dep, &checkpoint, undo, os);
        os.bump("txn.aborted");
        // NOT txn.rolled_back: that counter tracks *prepared* transactions
        // only, preserving prepared == committed + rolled_back. The unwind
        // is still visible as a txn_rollback trace record.
        os.trace_txn_abort(id, reason);
        os.trace_txn_rollback(id, ops_applied);
        return Err(TxnAborted {
            id,
            reason,
            detail,
            rollback_clean: clean,
        });
    }
    os.bump("txn.prepared");
    os.trace_txn_prepare(id, ops_applied);
    Ok(PreparedTxn {
        id,
        ops_applied,
        checkpoint: Arc::new(checkpoint),
        undo,
    })
}

/// Commits a prepared transaction: the new composition becomes the node's
/// configuration of record. The undo log is *returned retained* inside the
/// `PreparedTxn` so a health gate can still [`revert`] — drop it to
/// finalise.
pub fn commit(dep: &mut Deployment, txn: &PreparedTxn, os: &mut NodeOs) {
    dep.ops_applied += txn.ops_applied;
    os.bump_by("reconfig.ops_applied", txn.ops_applied);
    os.bump("txn.committed");
    os.trace_txn_commit(txn.id, txn.ops_applied);
}

/// Rolls a prepared (not yet committed) transaction back to its checkpoint.
/// Returns whether the post-rollback fingerprint matched the checkpoint.
pub fn rollback(dep: &mut Deployment, txn: PreparedTxn, os: &mut NodeOs) -> bool {
    let PreparedTxn {
        id,
        ops_applied,
        checkpoint,
        undo,
    } = txn;
    let clean = unwind(dep, &checkpoint, undo, os);
    os.bump("txn.rolled_back");
    os.trace_txn_rollback(id, ops_applied);
    clean
}

/// Reverts a *committed* transaction (health-gated back-out): same physical
/// unwind as [`rollback`], but recorded as a revert.
pub fn revert(dep: &mut Deployment, txn: PreparedTxn, os: &mut NodeOs) -> bool {
    let PreparedTxn {
        id,
        ops_applied,
        checkpoint,
        undo,
    } = txn;
    let clean = unwind(dep, &checkpoint, undo, os);
    os.bump("txn.reverted");
    os.trace_txn_revert(id, ops_applied);
    clean
}

/// Applies one op and returns the entry that undoes it: the one
/// implementation of every op, which
/// [`Deployment::apply`](crate::node::Deployment::apply) runs with the entry
/// dropped. On error the op itself has had no effect (individual ops are
/// atomic); a transaction unwinds the ops before it.
pub(crate) fn apply_one(
    dep: &mut Deployment,
    op: ReconfigOp,
    os: &mut NodeOs,
) -> Result<Undo, DeployError> {
    match op {
        ReconfigOp::AddProtocol(cf) => {
            let name = cf.name().to_string();
            let at = dep.protocols().count();
            dep.try_insert_protocol(at, cf, os).map_err(|(_, e)| e)?;
            os.trace_reconfig_apply("add_protocol");
            Ok(Undo::RemoveAdded { name })
        }
        ReconfigOp::RemoveProtocol { name } => {
            let index = dep
                .protocol_position(&name)
                .ok_or_else(|| DeployError::NoSuchProtocol(name.clone()))?;
            let cf = dep.remove_protocol(&name, os)?;
            os.trace_reconfig_apply("remove_protocol");
            Ok(Undo::Reinsert { cf, index })
        }
        ReconfigOp::SwitchProtocol {
            old,
            new,
            transfer_state,
        } => {
            let new_name = new.name().to_string();
            let Switched { old, index, moved } =
                dep.switch_protocol(&old, new, transfer_state, os)?;
            Ok(Undo::UnSwitch {
                new_name,
                old,
                index,
                moved,
            })
        }
        ReconfigOp::UpdateTuple { protocol, tuple } => {
            let tuple = dep.swap_protocol_tuple(&protocol, tuple)?;
            os.trace_rebind("update_tuple");
            Ok(Undo::RestoreTuple { protocol, tuple })
        }
        ReconfigOp::Recompose {
            protocol,
            plug,
            unplug,
            state,
        } => {
            let displaced = dep.recompose(&protocol, plug, &unplug, state, os)?;
            os.trace_rebind("recompose");
            Ok(Undo::Restore {
                protocol,
                displaced,
            })
        }
        ReconfigOp::LoadSystem(load) => {
            let config = dep.system().config().clone();
            dep.system_mut().load(&load);
            dep.refresh_system_tuple();
            os.trace_rebind("load_system");
            Ok(Undo::RestoreSystem { config })
        }
    }
}

/// Unwinds an undo log in reverse and verifies the result against the
/// checkpoint. A mismatch bumps `txn.rollback_mismatch` — it should never
/// happen (the property tests assert it doesn't) but is surfaced rather
/// than silently ignored.
fn unwind(
    dep: &mut Deployment,
    checkpoint: &CompositionFingerprint,
    undo: Vec<Undo>,
    os: &mut NodeOs,
) -> bool {
    for entry in undo.into_iter().rev() {
        match entry {
            Undo::RemoveAdded { name } => {
                let _ = dep.remove_protocol(&name, os);
            }
            Undo::Reinsert { cf, index } => {
                let _ = dep.try_insert_protocol(index, cf, os);
            }
            Undo::UnSwitch {
                new_name,
                mut old,
                index,
                moved,
            } => {
                if let Ok(mut new_cf) = dep.remove_protocol(&new_name, os) {
                    if moved {
                        old.replace_state(new_cf.take_state());
                    }
                }
                let _ = dep.try_insert_protocol(index, old, os);
            }
            Undo::RestoreTuple { protocol, tuple } => {
                let _ = dep.swap_protocol_tuple(&protocol, tuple);
            }
            Undo::Restore {
                protocol,
                displaced,
            } => dep.restore(&protocol, displaced, os),
            Undo::RestoreSystem { config } => {
                dep.system_mut().restore_config(config);
                dep.refresh_system_tuple();
            }
        }
    }
    let clean = fingerprint(dep) == *checkpoint;
    if !clean {
        os.bump("txn.rollback_mismatch");
    }
    clean
}

pub mod invariants {
    //! Reusable transaction-counter invariants.
    //!
    //! The conservation law `prepared == committed + rolled_back` (+1 while
    //! a transaction is open) was previously asserted ad hoc inside the
    //! rollback property tests and the health-gate e2e; this module is the
    //! single home both those tests and the `mcheck` bounded model checker
    //! consume, so the law is stated — and violated — in exactly one place.
    //!
    //! Counter semantics (see the engine functions in [`super`]):
    //! `txn.prepared` counts successful [`prepare`](super::prepare)s;
    //! `txn.committed` counts [`commit`](super::commit)s; `txn.rolled_back`
    //! counts [`rollback`](super::rollback)s of *prepared* transactions
    //! (aborts during prepare unwind without bumping it, and
    //! [`revert`](super::revert)s of committed transactions bump
    //! `txn.reverted` instead — a reverted transaction was still
    //! committed, so it stays on the committed side of the ledger).

    use std::fmt;

    /// The `txn.*` counters the conservation law ranges over.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct TxnCounters {
        /// `txn.prepared`.
        pub prepared: u64,
        /// `txn.committed`.
        pub committed: u64,
        /// `txn.rolled_back`.
        pub rolled_back: u64,
    }

    /// The conservation law failed: the ledger of prepared transactions
    /// does not balance against their resolutions.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct ConservationViolation {
        /// The counters that failed to balance.
        pub counters: TxnCounters,
        /// How many transactions were legitimately open (prepared,
        /// awaiting commit or abort) at observation time.
        pub open: u64,
    }

    impl fmt::Display for ConservationViolation {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(
                f,
                "txn counter conservation violated: prepared {} != committed {} + rolled_back {} + open {}",
                self.counters.prepared,
                self.counters.committed,
                self.counters.rolled_back,
                self.open
            )
        }
    }

    impl std::error::Error for ConservationViolation {}

    impl TxnCounters {
        /// Reads the three counters through a lookup function — pass a
        /// closure over `NodeOs::counter` for one node, or over
        /// `WorldStats::agent_counter` for a whole fleet (the counters are
        /// additive, so the law holds fleet-wide iff every open
        /// transaction is included in `open`).
        pub fn from_lookup(mut counter: impl FnMut(&str) -> u64) -> Self {
            TxnCounters {
                prepared: counter("txn.prepared"),
                committed: counter("txn.committed"),
                rolled_back: counter("txn.rolled_back"),
            }
        }

        /// Checks `prepared == committed + rolled_back + open`, where
        /// `open` is the number of transactions currently prepared and
        /// awaiting their verdict.
        ///
        /// # Errors
        ///
        /// Returns the unbalanced ledger when the law does not hold.
        pub fn conservation(self, open: u64) -> Result<(), ConservationViolation> {
            if self.prepared == self.committed + self.rolled_back + open {
                Ok(())
            } else {
                Err(ConservationViolation {
                    counters: self,
                    open,
                })
            }
        }
    }

    /// Fleet-level convenience over [`TxnCounters::conservation`]: checks
    /// the law against a world's merged agent counters.
    ///
    /// # Errors
    ///
    /// Returns the unbalanced ledger when the law does not hold.
    pub fn check_fleet_conservation(
        stats: &netsim::WorldStats,
        open: u64,
    ) -> Result<(), ConservationViolation> {
        TxnCounters::from_lookup(|name| stats.agent_counter(name)).conservation(open)
    }

    /// Panicking wrapper for tests: asserts the fleet-wide law.
    ///
    /// # Panics
    ///
    /// Panics with the unbalanced ledger when the law does not hold.
    pub fn assert_fleet_conservation(stats: &netsim::WorldStats, open: u64) {
        if let Err(v) = check_fleet_conservation(stats, open) {
            panic!("{v}");
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn balanced_ledgers_pass() {
            let c = TxnCounters {
                prepared: 5,
                committed: 3,
                rolled_back: 2,
            };
            assert!(c.conservation(0).is_ok());
            let open = TxnCounters {
                prepared: 6,
                committed: 3,
                rolled_back: 2,
            };
            assert!(open.conservation(1).is_ok());
        }

        #[test]
        fn unbalanced_ledgers_report_the_numbers() {
            let c = TxnCounters {
                prepared: 4,
                committed: 3,
                rolled_back: 0,
            };
            let v = c.conservation(0).expect_err("4 != 3");
            assert_eq!(v.counters, c);
            let msg = v.to_string();
            assert!(msg.contains("prepared 4"), "{msg}");
            assert!(msg.contains("rolled_back 0"), "{msg}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Interface names fed in pieces hash exactly like the formatted
    /// strings they stand for, which keeps persisted hashes stable.
    #[test]
    fn interface_names_hash_as_formatted_strings() {
        let types = [
            EventType::named("TXN_B_TYPE"),
            EventType::named("TXN_A_TYPE"),
        ];
        let mut fed = DefaultHasher::new();
        hash_interfaces(&types, &mut Vec::new(), &mut fed);
        let mut formatted = DefaultHasher::new();
        for name in ["event:TXN_A_TYPE", "event:TXN_B_TYPE"] {
            name.hash(&mut formatted);
        }
        assert_eq!(fed.finish(), formatted.finish());
    }
}
