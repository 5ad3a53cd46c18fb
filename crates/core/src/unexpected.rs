//! The unexpected-barrier-message record (§3.1).
//!
//! "The NIC must be prepared to receive a barrier message from any process
//! on any node in any order at any time. However, once a process initiates
//! a barrier operation and is waiting for it to complete, it will not
//! initiate another one until that barrier completes. So the NIC can
//! receive at most one unexpected message from every other process on every
//! node." The paper records these in a bit array per connection (one bit
//! per remote port).
//!
//! We keep the bit array as the paper's fast path, stored sparsely: one
//! cell per `(local port, remote node)` that has something recorded, kept
//! in a sorted vector and found by binary search. A cell holds a pending
//! count per remote port; bit `p` of the paper's byte is "count `p` is
//! nonzero". A NIC holds at most one record per peer it exchanges with (a
//! PE barrier has log₂N), so the record costs O(peers), not O(cluster).
//! Behind the cells sit FIFO queues keyed by `(local port, sender endpoint,
//! team, packet kind)`, one flat sorted vector in which an empty queue
//! simply has no entries. The queues exist because the §8 value
//! collectives break the paper's one-outstanding invariant: a broadcast
//! root completes immediately and can race a second collective ahead, so
//! a slow receiver may legitimately hold a BCAST *and* a PE message (or
//! two BCASTs) from the same endpoint at once. For pure barrier traffic
//! every queue stays at depth ≤ 1, preserving the paper's argument (the
//! `queued_extra` counter proves it in tests).
//!
//! Entries also carry the sender's port *epoch* (for the §3.2
//! record-then-reject-on-open protocol) and an operand *value* (for
//! reductions/broadcasts).

use gmsim_gm::{GlobalPort, NodeId, PortId, TeamId, GM_NUM_PORTS};

/// Data stored with one recorded message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordMeta {
    /// The communicator the message belongs to — consumption is
    /// team-keyed so an overlapping team's flag can never satisfy this
    /// team's step (teams sharing a NIC stay isolated).
    pub team: TeamId,
    /// Packet type (PE / gather / broadcast) — consumption is type-keyed
    /// so a gather for a future GB barrier can never satisfy a PE step.
    pub kind: u8,
    /// The sender port's epoch when the message was sent (§3.2 staleness).
    pub epoch: u32,
    /// Operand carried by the packet (reduce partials, broadcast values).
    pub value: u64,
    /// Pipeline segment index for data-carrying collectives (0 for
    /// barriers and eager payloads).
    pub seg: u32,
}

/// Counters for the record (exposed for the ablation benches).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecordStats {
    /// Messages recorded as unexpected.
    pub recorded: u64,
    /// Recorded messages later consumed by a collective step.
    pub consumed: u64,
    /// Records queued behind an existing record from the same endpoint —
    /// zero for pure barrier streams (the paper's §3.1 invariant), nonzero
    /// only when §8 value collectives race ahead.
    pub queued_extra: u64,
    /// Records superseded across an endpoint epoch change (§3.2 endpoint
    /// reuse: the dead process's message is discarded).
    pub superseded: u64,
}

/// One `(local port, remote node)` cell of the paper's bit array, present
/// only while something from that node awaits that port.
#[derive(Debug, Clone)]
struct Cell {
    /// [`UnexpectedRecord::cell_key`] of the pair.
    key: u64,
    /// Records pending from each remote port of the node.
    pending: [u32; GM_NUM_PORTS as usize],
}

/// `(local port, sender node, sender port, team, kind)`: one FIFO queue.
/// The order puts every queue of a local port, and of one endpoint,
/// next to each other.
type QueueKey = (u8, u32, u8, TeamId, u8);

/// The per-NIC unexpected-message record.
#[derive(Debug, Clone)]
pub struct UnexpectedRecord {
    nodes: usize,
    /// The sparse bit array, sorted by key.
    cells: Vec<Cell>,
    /// Every recorded message, sorted by queue key and oldest first
    /// within a key.
    records: Vec<(QueueKey, RecordMeta)>,
    /// Counters.
    pub stats: RecordStats,
}

impl UnexpectedRecord {
    /// A record for a cluster of `nodes` nodes. Allocates nothing until a
    /// message is recorded.
    pub fn new(nodes: usize) -> Self {
        UnexpectedRecord {
            nodes,
            cells: Vec::new(),
            records: Vec::new(),
            stats: RecordStats::default(),
        }
    }

    fn cell_key(local: PortId, node: NodeId) -> u64 {
        (u64::from(local.0) << 32) | node.0 as u64
    }

    fn queue_key(local: PortId, team: TeamId, from: GlobalPort, kind: u8) -> QueueKey {
        let node = u32::try_from(from.node.0).expect("node id exceeds the record key range");
        (local.0, node, from.port.0, team, kind)
    }

    fn find_cell(&self, local: PortId, node: NodeId) -> Result<usize, usize> {
        let key = Self::cell_key(local, node);
        self.cells.binary_search_by_key(&key, |c| c.key)
    }

    /// The records queued under `key`, as a range of `records`.
    fn queue(&self, key: &QueueKey) -> std::ops::Range<usize> {
        let lo = self.records.partition_point(|(k, _)| k < key);
        let len = self.records[lo..]
            .iter()
            .take_while(|(k, _)| k == key)
            .count();
        lo..lo + len
    }

    /// Record an unexpected message from `from` addressed to `local`.
    /// Returns `false` if something was already recorded from that
    /// endpoint. A queued record from an *older* epoch of the same
    /// endpoint and kind is discarded first (its sender is dead, §3.2).
    pub fn set(&mut self, local: PortId, from: GlobalPort, meta: RecordMeta) -> bool {
        debug_assert!(from.node.0 < self.nodes);
        let key = Self::queue_key(local, meta.team, from, meta.kind);
        let range = self.queue(&key);
        // Epoch change supersedes everything the dead process left behind.
        let mut kept = range.start;
        for i in range.clone() {
            if self.records[i].1.epoch == meta.epoch {
                self.records.swap(kept, i);
                kept += 1;
            }
        }
        let superseded = range.end - kept;
        self.records.drain(kept..range.end);
        self.stats.superseded += superseded as u64;
        if kept > range.start {
            self.stats.queued_extra += 1;
        }
        self.records.insert(kept, (key, meta));
        self.stats.recorded += 1;

        let c = match self.find_cell(local, from.node) {
            Ok(c) => c,
            Err(c) => {
                let key = Self::cell_key(local, from.node);
                let pending = [0; GM_NUM_PORTS as usize];
                self.cells.insert(c, Cell { key, pending });
                c
            }
        };
        let pending = &mut self.cells[c].pending[from.port.idx()];
        let fresh = *pending == 0;
        *pending = *pending - superseded as u32 + 1;
        fresh
    }

    /// Non-destructive test: has `from` already sent something to `local`?
    pub fn peek(&self, local: PortId, from: GlobalPort) -> bool {
        self.find_cell(local, from.node)
            .is_ok_and(|c| self.cells[c].pending[from.port.idx()] != 0)
    }

    /// "After a bit is checked, the bit is cleared" (§4.3): consume the
    /// oldest record of `expect_kind` on `team` from `from`, if any. The
    /// bit array is shared across teams (it means "something from this
    /// endpoint"), so the queue lookup — keyed by team — is what keeps
    /// overlapping teams from consuming each other's flags.
    pub fn check_clear(
        &mut self,
        local: PortId,
        team: TeamId,
        from: GlobalPort,
        expect_kind: u8,
    ) -> Option<RecordMeta> {
        let c = self.find_cell(local, from.node).ok()?;
        if self.cells[c].pending[from.port.idx()] == 0 {
            return None;
        }
        let key = Self::queue_key(local, team, from, expect_kind);
        let i = self.records.partition_point(|(k, _)| *k < key);
        if self.records.get(i).is_none_or(|(k, _)| *k != key) {
            return None;
        }
        let (_, meta) = self.records.remove(i);
        self.stats.consumed += 1;
        let cell = &mut self.cells[c];
        cell.pending[from.port.idx()] -= 1;
        if cell.pending.iter().all(|&n| n == 0) {
            self.cells.remove(c);
        }
        Some(meta)
    }

    /// Drain every record addressed to `local` (port-open rejection, §3.2),
    /// ordered by sender endpoint, team and kind, oldest first within each.
    pub fn drain_port(&mut self, local: PortId) -> Vec<(GlobalPort, RecordMeta)> {
        let lo = self.records.partition_point(|(k, _)| k.0 < local.0);
        let hi = self.records.partition_point(|(k, _)| k.0 <= local.0);
        let out = self
            .records
            .drain(lo..hi)
            .map(|((_, node, port, _, _), meta)| (GlobalPort::new(node as usize, port), meta))
            .collect();
        self.cells.retain(|c| c.key >> 32 != u64::from(local.0));
        out
    }

    /// Total records currently held (diagnostics).
    pub fn outstanding(&self) -> usize {
        self.records.len()
    }

    /// `(local port, remote node)` cells currently allocated — at most one
    /// per peer that has a record pending, never one per cluster node.
    pub fn cells(&self) -> usize {
        self.cells.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gp(n: usize, p: u8) -> GlobalPort {
        GlobalPort::new(n, p)
    }

    const META: RecordMeta = RecordMeta {
        team: TeamId::GLOBAL,
        kind: 1,
        epoch: 1,
        value: 0,
        seg: 0,
    };

    #[test]
    fn set_then_check_clear_roundtrip() {
        let mut r = UnexpectedRecord::new(4);
        let meta = RecordMeta {
            team: TeamId::GLOBAL,
            kind: 2,
            epoch: 7,
            value: 99,
            seg: 0,
        };
        assert!(r.set(PortId(1), gp(2, 3), meta));
        assert!(r.peek(PortId(1), gp(2, 3)));
        assert_eq!(
            r.check_clear(PortId(1), TeamId::GLOBAL, gp(2, 3), 2),
            Some(meta)
        );
        assert!(!r.peek(PortId(1), gp(2, 3)));
        assert!(r
            .check_clear(PortId(1), TeamId::GLOBAL, gp(2, 3), 2)
            .is_none());
        assert_eq!(r.stats.consumed, 1);
    }

    #[test]
    fn records_are_per_local_port() {
        let mut r = UnexpectedRecord::new(2);
        r.set(PortId(1), gp(1, 1), META);
        assert!(!r.peek(PortId(2), gp(1, 1)));
        assert!(r
            .check_clear(PortId(2), TeamId::GLOBAL, gp(1, 1), 1)
            .is_none());
        assert!(r.peek(PortId(1), gp(1, 1)));
    }

    #[test]
    fn records_are_per_source_port() {
        let mut r = UnexpectedRecord::new(2);
        r.set(PortId(1), gp(1, 1), META);
        let meta2 = RecordMeta {
            team: TeamId::GLOBAL,
            kind: 1,
            epoch: 2,
            value: 5,
            seg: 0,
        };
        r.set(PortId(1), gp(1, 2), meta2);
        assert_eq!(r.outstanding(), 2);
        assert_eq!(
            r.check_clear(PortId(1), TeamId::GLOBAL, gp(1, 2), 1),
            Some(meta2)
        );
        assert!(r.peek(PortId(1), gp(1, 1)));
    }

    #[test]
    fn wrong_kind_is_not_consumed() {
        let mut r = UnexpectedRecord::new(2);
        r.set(PortId(1), gp(1, 1), META); // kind 1
        assert!(r
            .check_clear(PortId(1), TeamId::GLOBAL, gp(1, 1), 3)
            .is_none());
        assert!(r.peek(PortId(1), gp(1, 1)), "record stays in place");
    }

    #[test]
    fn different_kinds_coexist_from_one_endpoint() {
        // The broadcast-races-ahead case: BCAST then PE from one endpoint.
        let mut r = UnexpectedRecord::new(2);
        let bcast = RecordMeta {
            team: TeamId::GLOBAL,
            kind: 3,
            epoch: 1,
            value: 42,
            seg: 0,
        };
        let pe = RecordMeta {
            team: TeamId::GLOBAL,
            kind: 1,
            epoch: 1,
            value: 0,
            seg: 0,
        };
        r.set(PortId(1), gp(1, 1), bcast);
        r.set(PortId(1), gp(1, 1), pe);
        assert_eq!(r.outstanding(), 2);
        assert_eq!(
            r.check_clear(PortId(1), TeamId::GLOBAL, gp(1, 1), 1),
            Some(pe)
        );
        assert!(r.peek(PortId(1), gp(1, 1)), "bcast still recorded");
        assert_eq!(
            r.check_clear(PortId(1), TeamId::GLOBAL, gp(1, 1), 3),
            Some(bcast)
        );
        assert!(!r.peek(PortId(1), gp(1, 1)));
    }

    #[test]
    fn same_kind_queues_fifo() {
        let mut r = UnexpectedRecord::new(2);
        let v1 = RecordMeta {
            team: TeamId::GLOBAL,
            kind: 3,
            epoch: 1,
            value: 1,
            seg: 0,
        };
        let v2 = RecordMeta {
            team: TeamId::GLOBAL,
            kind: 3,
            epoch: 1,
            value: 2,
            seg: 0,
        };
        r.set(PortId(1), gp(1, 1), v1);
        r.set(PortId(1), gp(1, 1), v2);
        assert_eq!(r.stats.queued_extra, 1);
        assert_eq!(
            r.check_clear(PortId(1), TeamId::GLOBAL, gp(1, 1), 3),
            Some(v1)
        );
        assert_eq!(
            r.check_clear(PortId(1), TeamId::GLOBAL, gp(1, 1), 3),
            Some(v2)
        );
    }

    #[test]
    fn epoch_change_supersedes_old_records() {
        let mut r = UnexpectedRecord::new(2);
        r.set(PortId(1), gp(1, 1), META); // epoch 1
        let newer = RecordMeta {
            team: TeamId::GLOBAL,
            kind: 1,
            epoch: 2,
            value: 9,
            seg: 0,
        };
        assert!(!r.set(PortId(1), gp(1, 1), newer), "endpoint was recorded");
        assert_eq!(r.stats.superseded, 1);
        assert_eq!(
            r.check_clear(PortId(1), TeamId::GLOBAL, gp(1, 1), 1),
            Some(newer)
        );
        assert!(r
            .check_clear(PortId(1), TeamId::GLOBAL, gp(1, 1), 1)
            .is_none());
        // The superseded record no longer counts as pending.
        assert!(!r.peek(PortId(1), gp(1, 1)));
        assert_eq!(r.cells(), 0);
    }

    #[test]
    fn cells_exist_only_while_something_is_pending() {
        let mut r = UnexpectedRecord::new(1 << 20);
        assert_eq!(r.cells(), 0);
        r.set(PortId(1), gp(999_999, 1), META);
        r.set(PortId(1), gp(999_999, 2), META);
        r.set(PortId(2), gp(7, 1), META);
        assert_eq!(r.cells(), 2, "one cell per (local port, remote node)");
        r.check_clear(PortId(1), TeamId::GLOBAL, gp(999_999, 1), 1);
        assert_eq!(r.cells(), 2, "port 2 of node 999999 still pending");
        r.check_clear(PortId(1), TeamId::GLOBAL, gp(999_999, 2), 1);
        assert_eq!(r.cells(), 1);
        r.drain_port(PortId(2));
        assert_eq!((r.cells(), r.outstanding()), (0, 0));
    }

    #[test]
    fn drain_port_returns_everything_for_that_port() {
        let mut r = UnexpectedRecord::new(3);
        r.set(PortId(1), gp(0, 2), META);
        r.set(
            PortId(1),
            gp(2, 5),
            RecordMeta {
                team: TeamId::GLOBAL,
                kind: 1,
                epoch: 3,
                value: 1,
                seg: 0,
            },
        );
        r.set(PortId(4), gp(2, 5), META);
        let drained = r.drain_port(PortId(1));
        assert_eq!(drained.len(), 2);
        assert_eq!(drained[0].0, gp(0, 2));
        assert_eq!(drained[1].0, gp(2, 5));
        assert_eq!(drained[1].1.epoch, 3);
        assert_eq!(r.outstanding(), 1, "other port untouched");
        assert!(r.peek(PortId(4), gp(2, 5)));
    }

    #[test]
    fn drain_empty_port_is_empty() {
        let mut r = UnexpectedRecord::new(2);
        assert!(r.drain_port(PortId(3)).is_empty());
    }

    #[test]
    fn teams_do_not_cross_consume() {
        // Two teams sharing one (local port, sender endpoint): team 2's
        // recorded flag must not satisfy team 1's check, and vice versa.
        let mut r = UnexpectedRecord::new(2);
        let t1 = RecordMeta {
            team: TeamId(1),
            kind: 1,
            epoch: 1,
            value: 10,
            seg: 0,
        };
        let t2 = RecordMeta {
            team: TeamId(2),
            kind: 1,
            epoch: 1,
            value: 20,
            seg: 0,
        };
        r.set(PortId(1), gp(1, 1), t2);
        assert!(
            r.check_clear(PortId(1), TeamId(1), gp(1, 1), 1).is_none(),
            "team 1 must not consume team 2's record"
        );
        r.set(PortId(1), gp(1, 1), t1);
        assert_eq!(r.check_clear(PortId(1), TeamId(1), gp(1, 1), 1), Some(t1));
        assert!(r.peek(PortId(1), gp(1, 1)), "team 2's record survives");
        assert_eq!(r.check_clear(PortId(1), TeamId(2), gp(1, 1), 1), Some(t2));
        assert!(!r.peek(PortId(1), gp(1, 1)));
    }

    #[test]
    fn outstanding_counts_records() {
        let mut r = UnexpectedRecord::new(4);
        assert_eq!(r.outstanding(), 0);
        for p in 0..4u8 {
            r.set(PortId(1), gp(3, p), META);
        }
        assert_eq!(r.outstanding(), 4);
    }
}
