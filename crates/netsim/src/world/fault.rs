//! Fault enactment: crashes, reboots, battery exhaustion and named
//! partitions, scheduled by a [`FaultPlan`](crate::fault::FaultPlan) or
//! forced by the model checker.

use super::{AgentSlot, DataDrop, EventKind, PhyJob, World};
use crate::fault::FaultKind;
use crate::packet::NodeId;

impl World {
    pub(super) fn apply_fault(&mut self, kind: FaultKind) {
        self.stats.faults_injected += 1;
        match kind {
            FaultKind::Crash(node) => self.crash_node(node, false),
            FaultKind::BatteryExhaust(node) => self.crash_node(node, true),
            FaultKind::Reboot(node) => self.reboot_node(node),
            FaultKind::PartitionStart { name, groups } => {
                if self.fault.start_partition(&name, &groups) {
                    self.stats.partitions_started += 1;
                    tr!(self, NodeId(0), Fault, "partition.start", groups.len(), 0);
                }
            }
            FaultKind::PartitionHeal { name } => {
                if self.fault.heal_partition(&name) {
                    self.stats.partitions_healed += 1;
                    tr!(self, NodeId(0), Fault, "partition.heal", 0, 0);
                }
            }
        }
    }

    /// Suspends a node: last-gasp `on_crash` callback (queued actions are
    /// discarded), OS flushed, pending timers cancelled. Idempotent.
    pub(super) fn crash_node(&mut self, node: NodeId, exhausted: bool) {
        let now = self.now;
        let slot = &mut self.nodes[node.0];
        if slot.crashed {
            return;
        }
        slot.crashed = true;
        slot.os.set_now(now);
        if exhausted {
            slot.os.battery.advance_to(now);
            slot.os.battery.exhaust();
            self.stats.battery_exhaustions += 1;
        } else {
            self.stats.node_crashes += 1;
        }
        if let Some(agent) = slot.agent.write() {
            agent.on_crash(&mut slot.os);
        }
        let dropped = slot.os.crash_flush();
        self.cancel_timers(node);
        self.stats.data_dropped_crash += dropped.len() as u64;
        tr!(
            self,
            node,
            NodeCrash,
            if exhausted { "battery" } else { "crash" },
            dropped.len(),
            0
        );
        for id in dropped {
            self.sent_at.settle(id);
        }
        // The radio dies with the node.
        let (waiting, aborted) = self.flush_radio(node);
        for job in waiting.into_iter().chain(aborted) {
            match job {
                PhyJob::Data { packet, .. } => self.drop_data(node, &packet, DataDrop::CRASH),
                PhyJob::Broadcast { .. } | PhyJob::Unicast { .. } => {
                    self.stats.control_lost += 1;
                }
            }
        }
    }

    /// Revives a crashed node: fresh battery, flushed OS, agent restarted
    /// cold (replaced when a reboot factory is registered). A no-op on a
    /// running node.
    pub(super) fn reboot_node(&mut self, node: NodeId) {
        let now = self.now;
        let slot = &mut self.nodes[node.0];
        if !slot.crashed {
            return;
        }
        slot.crashed = false;
        slot.os.set_now(now);
        slot.os.battery.recharge(now);
        let flushed = slot.os.crash_flush();
        if let Some(make) = slot.factory.as_ref() {
            slot.agent = AgentSlot::new(make());
        }
        self.stats.node_reboots += 1;
        // The buffer was flushed at crash time, so this is normally empty —
        // settled anyway so a future code path can't reintroduce the leak.
        for id in flushed {
            self.sent_at.settle(id);
        }
        tr!(self, node, NodeReboot, "reboot", 0, 0);
        if self.nodes[node.0].agent.get().is_some() {
            self.schedule(now, EventKind::StartAgent { node });
        }
    }
}
