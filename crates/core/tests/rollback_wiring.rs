//! A protocol that a rollback reinstates goes back to its old stack
//! position but under a new, highest unit id, and the wiring follows unit
//! ids, not stack order: the reinstated protocol hears a broadcast after
//! the protocols deployed before it, and loses an exclusive-consumer tie
//! to them. Delivery order, counters and fingerprints all rest on that
//! order, so a rollback of `RemoveProtocol` and of `SwitchProtocol` must
//! both keep it.

use std::sync::{Arc, Mutex};

use manetkit::event::{Event, EventType};
use manetkit::prelude::*;
use manetkit::protocol::{ProtoCtx, StateSlot};
use manetkit::txn;
use netsim::{NodeId, NodeOs};
use packetbb::Address;

const BROADCAST: &str = "ORDER_PROBE";
const EXCLUSIVE: &str = "ORDER_EXCLUSIVE";

type Log = Arc<Mutex<Vec<String>>>;

/// Writes `<protocol>:<event type>` to the log for every event it hears.
struct Recorder(Log);

impl EventHandler for Recorder {
    fn name(&self) -> &str {
        "recorder"
    }
    fn subscriptions(&self) -> Vec<EventType> {
        vec![EventType::named(BROADCAST), EventType::named(EXCLUSIVE)]
    }
    fn handle(&mut self, event: &Event, _: &mut StateSlot, ctx: &mut ProtoCtx<'_>) {
        let line = format!("{}:{}", ctx.protocol(), event.ty.as_str());
        self.0.lock().expect("log").push(line);
    }
}

/// A protocol that hears `BROADCAST` as a plain consumer and `EXCLUSIVE`
/// as an exclusive one.
fn listener(name: &str, log: &Log) -> ManetProtocolCf {
    ManetProtocolCf::builder(name)
        .tuple(
            EventTuple::new()
                .requires(EventType::named(BROADCAST))
                .requires_exclusive(EventType::named(EXCLUSIVE)),
        )
        .handler(Box::new(Recorder(Arc::clone(log))))
        .build()
}

/// A started deployment of `first` and then `second`.
fn deployment(log: &Log, os: &mut NodeOs) -> Deployment {
    let mut dep = Deployment::new(ConcurrencyModel::SingleThreaded);
    dep.add_protocol_offline(listener("first", log)).unwrap();
    dep.add_protocol_offline(listener("second", log)).unwrap();
    dep.start(os);
    dep
}

/// Who hears one `BROADCAST` and one `EXCLUSIVE`, in delivery order.
fn hearers(dep: &mut Deployment, log: &Log, os: &mut NodeOs) -> Vec<String> {
    log.lock().expect("log").clear();
    let probes = [BROADCAST, EXCLUSIVE].map(|ty| Event::signal(EventType::named(ty)));
    dep.dispatch(os, probes.into(), None);
    std::mem::take(&mut *log.lock().expect("log"))
}

/// Prepares `ops` and rolls them back; returns who hears the probes after.
fn rolled_back(ops: impl Fn(&Log) -> Vec<ReconfigOp>) -> Vec<String> {
    let log = Log::default();
    let mut os = NodeOs::standalone(NodeId(0), Address::v4([10, 0, 0, 1]));
    let mut dep = deployment(&log, &mut os);
    assert_eq!(
        hearers(&mut dep, &log, &mut os),
        [
            "first:ORDER_PROBE",
            "second:ORDER_PROBE",
            "first:ORDER_EXCLUSIVE"
        ],
        "before any transaction, deployment order is unit-id order"
    );
    let prepared = txn::prepare(&mut dep, 1, ops(&log), &mut os).expect("the batch prepares");
    assert!(txn::rollback(&mut dep, prepared, &mut os), "a clean unwind");
    assert_eq!(
        dep.protocol_names(),
        ["first", "second"],
        "stack order is back"
    );
    hearers(&mut dep, &log, &mut os)
}

/// Reinstated `first` now holds the highest unit id: `second` hears the
/// broadcast before it and wins the exclusive tie.
const REINSTATED_FIRST: [&str; 3] = [
    "second:ORDER_PROBE",
    "first:ORDER_PROBE",
    "second:ORDER_EXCLUSIVE",
];

#[test]
fn a_rolled_back_removal_rewires_the_reinstated_protocol_last() {
    let heard = rolled_back(|_| {
        vec![ReconfigOp::RemoveProtocol {
            name: "first".into(),
        }]
    });
    assert_eq!(heard, REINSTATED_FIRST);
}

#[test]
fn a_rolled_back_switch_rewires_the_reinstated_protocol_last() {
    let heard = rolled_back(|log| {
        vec![ReconfigOp::SwitchProtocol {
            old: "first".into(),
            new: listener("third", log),
            transfer_state: false,
        }]
    });
    assert_eq!(heard, REINSTATED_FIRST);
}
