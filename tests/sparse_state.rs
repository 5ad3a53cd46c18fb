//! Per-NIC state stays sparse: a NIC pays for the peers its program
//! exchanges with, not for every node of the cluster. A PE barrier touches
//! log₂N peers, so at N=1024 each NIC should hold ten connections and, once
//! the run drains, no unexpected-message record at all.

use nic_barrier_suite::barrier::programs::NicBarrierLoop;
use nic_barrier_suite::barrier::{compile, BarrierExtension, BarrierGroup, Descriptor};
use nic_barrier_suite::des::{RunOutcome, SimTime};
use nic_barrier_suite::gm::cluster::ClusterBuilder;
use nic_barrier_suite::gm::{GmConfig, NodeId, ScheduleStep};
use nic_barrier_suite::lanai::NicModel;
use nic_barrier_suite::myrinet::TopologyBuilder;

/// Distinct peer nodes `rank`'s compiled program sends to or receives from.
fn contacted_peers(desc: Descriptor, rank: usize, group: &BarrierGroup) -> Vec<NodeId> {
    let schedule = compile(desc, rank, group.members());
    let mut peers: Vec<NodeId> = schedule
        .steps
        .iter()
        .flat_map(|step| match step {
            ScheduleStep::SendTo { peers, .. } | ScheduleStep::RecvFrom { peers, .. } => {
                peers.as_slice()
            }
            ScheduleStep::DeliverCompletion(_) => &[],
        })
        .map(|p| p.node)
        .collect();
    peers.sort();
    peers.dedup();
    peers
}

#[test]
fn nic_pe_at_1024_nodes_holds_state_only_for_contacted_peers() {
    let n = 1024;
    let group = BarrierGroup::one_per_node(n, 1);
    let mut builder = ClusterBuilder::new(n)
        .config(GmConfig::paper_host(NicModel::LANAI_4_3))
        .topology(TopologyBuilder::for_cluster(n))
        .extension(BarrierExtension::factory());
    for rank in 0..n {
        builder = builder.program(
            group.member(rank),
            Box::new(NicBarrierLoop::new(group.clone(), rank, Descriptor::Pe, 3)),
            SimTime::from_us((rank % 7) as u64),
        );
    }
    let mut sim = builder.build();
    assert_eq!(sim.run(), RunOutcome::Quiescent);

    for rank in 0..n {
        let peers = contacted_peers(Descriptor::Pe, rank, &group);
        assert_eq!(peers.len(), 10, "rank {rank}: log2(1024) partners");
        let node = &sim.world().nodes[group.member(rank).node.0];
        assert_eq!(node.mcp.core.cluster_size(), n);
        let opened: Vec<NodeId> = node.mcp.core.connections().map(|c| c.peer()).collect();
        assert!(
            opened.windows(2).all(|w| w[0] < w[1]),
            "rank {rank}: connections not in ascending peer order: {opened:?}"
        );
        assert!(
            opened.iter().all(|p| peers.contains(p)),
            "rank {rank}: connections {opened:?} outside the program's peers {peers:?}"
        );
        let ext = node
            .mcp
            .ext()
            .as_any()
            .downcast_ref::<BarrierExtension>()
            .expect("BarrierExtension installed");
        assert_eq!(ext.record.outstanding(), 0, "rank {rank}");
        assert_eq!(ext.record.cells(), 0, "rank {rank}");
    }
}
