//! Randomized property tests for schedule construction and the
//! unexpected-message record, over the in-repo [`gmsim_des::check`]
//! harness (deterministic seeded cases).

use gmsim_des::check::forall;
use gmsim_gm::{GlobalPort, PortId, TeamId};
use nic_barrier::schedule::gb;
use nic_barrier::schedule::pe::{self, Step};
use nic_barrier::unexpected::{RecordMeta, UnexpectedRecord};
use std::collections::{HashMap, HashSet};

/// PE send/receive matching: across all ranks, every transmission has
/// exactly one matching reception (the global matching property that
/// makes the barrier deadlock-free).
#[test]
fn pe_sends_match_recvs() {
    forall(128, 0x5EED_0001, |g| {
        let n = g.usize_in(1, 64);
        let mut sends = Vec::new();
        let mut recvs = Vec::new();
        for rank in 0..n {
            for s in pe::schedule(rank, n) {
                match s {
                    Step::Exchange(p) => {
                        assert!(p != rank, "self-exchange");
                        sends.push((rank, p));
                        recvs.push((p, rank));
                    }
                    Step::SendTo(p) => sends.push((rank, p)),
                    Step::RecvFrom(p) => recvs.push((p, rank)),
                }
            }
        }
        sends.sort_unstable();
        recvs.sort_unstable();
        assert_eq!(sends, recvs);
    });
}

/// Each rank's schedule length is bounded by ceil(log2 n) + 2 fold
/// steps, and each peer appears at most twice (fold + release).
#[test]
fn pe_schedule_is_compact() {
    forall(256, 0x5EED_0002, |g| {
        let n = g.usize_in(1, 128);
        let rank = g.usize_in(0, 127) % n;
        let steps = pe::schedule(rank, n);
        let log2 = (n as f64).log2().ceil() as usize;
        assert!(steps.len() <= log2 + 2, "len {} for n={n}", steps.len());
        let mut per_peer: HashMap<usize, usize> = HashMap::new();
        for s in &steps {
            let p = match s {
                Step::Exchange(p) | Step::SendTo(p) | Step::RecvFrom(p) => *p,
            };
            *per_peer.entry(p).or_default() += 1;
        }
        assert!(per_peer.values().all(|&c| c <= 2));
    });
}

/// The PE dependency graph is acyclic under the simple round semantics:
/// simulate all ranks lock-step and verify the barrier drains (no
/// deadlock) — a direct executable check of schedule soundness.
#[test]
fn pe_schedules_drain_without_deadlock() {
    forall(128, 0x5EED_0003, |g| {
        let n = g.usize_in(1, 48);
        let mut idx = vec![0usize; n];
        let mut sent: HashSet<(usize, usize)> = HashSet::new(); // (from,to) pending
        let mut progressed = true;
        while progressed {
            progressed = false;
            for rank in 0..n {
                let steps = pe::schedule(rank, n);
                while idx[rank] < steps.len() {
                    match steps[idx[rank]] {
                        Step::SendTo(p) => {
                            sent.insert((rank, p));
                            idx[rank] += 1;
                            progressed = true;
                        }
                        Step::Exchange(p) => {
                            sent.insert((rank, p));
                            if sent.remove(&(p, rank)) {
                                idx[rank] += 1;
                                progressed = true;
                            } else {
                                break;
                            }
                        }
                        Step::RecvFrom(p) => {
                            if sent.remove(&(p, rank)) {
                                idx[rank] += 1;
                                progressed = true;
                            } else {
                                break;
                            }
                        }
                    }
                }
            }
        }
        assert!(
            (0..n).all(|r| idx[r] == pe::schedule(r, n).len()),
            "deadlock at idx {idx:?}"
        );
    });
}

/// GB trees are spanning: every rank reaches the root, parent/children
/// are mutually consistent, and child counts respect the dimension.
#[test]
fn gb_tree_is_spanning() {
    forall(256, 0x5EED_0004, |g| {
        let n = g.usize_in(1, 128);
        let dim = g.usize_in(1, 16);
        let mut reached = 0;
        for rank in 0..n {
            let kids = gb::children(rank, dim, n);
            assert!(kids.len() <= dim);
            for c in &kids {
                assert_eq!(gb::parent(*c, dim), Some(rank));
            }
            let mut r = rank;
            let mut hops = 0;
            while let Some(p) = gb::parent(r, dim) {
                r = p;
                hops += 1;
                assert!(hops <= n);
            }
            assert_eq!(r, 0);
            reached += 1;
        }
        assert_eq!(reached, n);
        let edges: usize = (0..n).map(|r| gb::children(r, dim, n).len()).sum();
        assert_eq!(edges, n - 1);
    });
}

/// Depth shrinks (weakly) as the dimension grows.
#[test]
fn gb_depth_monotone_in_dim() {
    forall(128, 0x5EED_0005, |g| {
        let n = g.usize_in(2, 100);
        let mut prev = usize::MAX;
        for dim in 1..n {
            let d = gb::depth(n, dim);
            assert!(d <= prev, "depth grew at dim={dim}");
            prev = d;
        }
        assert_eq!(gb::depth(n, n - 1), 1);
    });
}

/// Model-based test of the unexpected record against plain FIFO queues.
#[derive(Debug, Clone)]
enum RecOp {
    Set {
        port: u8,
        node: usize,
        sport: u8,
        kind: u8,
        value: u64,
    },
    CheckClear {
        port: u8,
        node: usize,
        sport: u8,
        kind: u8,
    },
    DrainPort {
        port: u8,
    },
}

#[test]
fn record_matches_reference_model() {
    forall(128, 0x5EED_0006, |g| {
        let ops = g.vec_of(1, 200, |g| match g.usize_in(0, 6) {
            0..=2 => RecOp::Set {
                port: g.u8_in(0, 7),
                node: g.usize_in(0, 3),
                sport: g.u8_in(0, 7),
                kind: g.u8_in(1, 3),
                value: g.any_u64(),
            },
            3..=5 => RecOp::CheckClear {
                port: g.u8_in(0, 7),
                node: g.usize_in(0, 3),
                sport: g.u8_in(0, 7),
                kind: g.u8_in(1, 3),
            },
            _ => RecOp::DrainPort {
                port: g.u8_in(0, 7),
            },
        });
        let mut real = UnexpectedRecord::new(4);
        // Reference: FIFO queue per (port, endpoint, kind). A fixed epoch
        // keeps supersession out of this model (covered by unit tests).
        let mut model: HashMap<(u8, GlobalPort, u8), Vec<RecordMeta>> = HashMap::new();
        for op in ops {
            match op {
                RecOp::Set {
                    port,
                    node,
                    sport,
                    kind,
                    value,
                } => {
                    let from = GlobalPort::new(node, sport);
                    let meta = RecordMeta {
                        team: TeamId::GLOBAL,
                        kind,
                        epoch: 1,
                        value,
                        seg: 0,
                    };
                    let fresh = !model
                        .iter()
                        .any(|((p, f, _), q)| *p == port && *f == from && !q.is_empty());
                    assert_eq!(real.set(PortId(port), from, meta), fresh);
                    model.entry((port, from, kind)).or_default().push(meta);
                }
                RecOp::CheckClear {
                    port,
                    node,
                    sport,
                    kind,
                } => {
                    let from = GlobalPort::new(node, sport);
                    let expected = match model.get_mut(&(port, from, kind)) {
                        Some(q) if !q.is_empty() => Some(q.remove(0)),
                        _ => None,
                    };
                    assert_eq!(
                        real.check_clear(PortId(port), TeamId::GLOBAL, from, kind),
                        expected
                    );
                    // peek agrees with "anything from this endpoint left"
                    let any_left = model
                        .iter()
                        .any(|((p, f, _), q)| *p == port && *f == from && !q.is_empty());
                    assert_eq!(real.peek(PortId(port), from), any_left);
                }
                RecOp::DrainPort { port } => {
                    let got = real.drain_port(PortId(port));
                    let mut want: Vec<(GlobalPort, RecordMeta)> = model
                        .iter()
                        .filter(|((p, _, _), _)| *p == port)
                        .flat_map(|((_, g, _), q)| q.iter().map(move |m| (*g, *m)))
                        .collect();
                    want.sort_by_key(|(g, m)| (g.node, g.port, m.team, m.kind));
                    model.retain(|(p, _, _), _| *p != port);
                    // drain is sorted by (endpoint, kind); same-key order
                    // is FIFO, matching the reference construction order.
                    assert_eq!(got, want);
                }
            }
            let model_total: usize = model.values().map(Vec::len).sum();
            assert_eq!(real.outstanding(), model_total);
            // One bit-array cell per (local port, node) with anything left.
            let mut cells: Vec<(u8, usize)> = model
                .iter()
                .filter(|(_, q)| !q.is_empty())
                .map(|((p, g, _), _)| (*p, g.node.0))
                .collect();
            cells.sort_unstable();
            cells.dedup();
            assert_eq!(real.cells(), cells.len());
        }
    });
}
