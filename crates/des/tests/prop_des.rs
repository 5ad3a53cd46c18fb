//! Randomized property tests for the DES engine: event ordering, statistics
//! merging, RNG determinism, typed-slab/boxed-closure equivalence, and the
//! wheel + far-heap scheduler against a binary-heap oracle.

use gmsim_des::check::forall;
use gmsim_des::scheduler::WHEEL_SLOTS;
use gmsim_des::{BoxedFn, Event, RunOutcome, Scheduler, SimRng, SimTime, Simulation, Summary};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Events fire in nondecreasing time order, with FIFO order at equal
/// timestamps, for arbitrary schedules.
#[test]
fn fire_order_is_total() {
    forall(128, 0xDE5_0001, |g| {
        let times = g.vec_of(1, 200, |g| g.u64_in(0, 999));
        let mut sim: Simulation<Vec<(u64, usize)>> = Simulation::new(Vec::new());
        for (i, &t) in times.iter().enumerate() {
            sim.scheduler_mut()
                .schedule_fn(SimTime::from_ns(t), move |w: &mut Vec<(u64, usize)>, _| {
                    w.push((t, i))
                });
        }
        sim.run();
        let fired = sim.world();
        assert_eq!(fired.len(), times.len());
        for w in fired.windows(2) {
            assert!(w[0].0 <= w[1].0, "time order violated");
            if w[0].0 == w[1].0 {
                assert!(w[0].1 < w[1].1, "FIFO tie-break violated");
            }
        }
    });
}

/// Nested scheduling preserves ordering too: every event schedules a
/// follow-up; the clock never runs backwards.
#[test]
fn nested_scheduling_never_goes_backwards() {
    forall(128, 0xDE5_0002, |g| {
        let seeds = g.vec_of(1, 50, |g| (g.u64_in(0, 499), g.u64_in(1, 99)));
        let mut sim: Simulation<Vec<u64>> = Simulation::new(Vec::new());
        for &(start, delay) in &seeds {
            sim.scheduler_mut()
                .schedule_fn(SimTime::from_ns(start), move |_: &mut Vec<u64>, s| {
                    let now = s.now();
                    s.schedule_in(SimTime::from_ns(delay), move |w: &mut Vec<u64>, s2| {
                        assert!(s2.now() >= now);
                        w.push(s2.now().as_ns());
                    });
                });
        }
        sim.run();
        let fired = sim.world();
        assert_eq!(fired.len(), seeds.len());
        for w in fired.windows(2) {
            assert!(w[0] <= w[1]);
        }
    });
}

/// `Summary::merge` is equivalent to a single-stream accumulation for
/// any split point, and merging is associative enough for sweeps.
#[test]
fn summary_merge_any_split() {
    forall(128, 0xDE5_0003, |g| {
        let data = g.vec_of(2, 300, |g| g.f64_in(-1e6, 1e6));
        let split = g.usize_in(0, 299) % data.len();
        let mut whole = Summary::new();
        data.iter().for_each(|&x| whole.record(x));
        let mut a = Summary::new();
        let mut b = Summary::new();
        data[..split].iter().for_each(|&x| a.record(x));
        data[split..].iter().for_each(|&x| b.record(x));
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() <= 1e-6 * whole.mean().abs().max(1.0));
        assert!((a.stddev() - whole.stddev()).abs() <= 1e-6 * whole.stddev().abs().max(1.0));
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
    });
}

/// Split RNG streams are stable: splitting with the same label always
/// yields the same stream, and distinct labels diverge.
#[test]
fn rng_split_determinism() {
    forall(256, 0xDE5_0004, |g| {
        let seed = g.any_u64();
        let l1 = g.any_u64();
        let l2 = g.any_u64();
        let parent = SimRng::new(seed);
        let mut a1 = parent.split(l1);
        let mut a2 = parent.split(l1);
        for _ in 0..8 {
            assert_eq!(a1.next(), a2.next());
        }
        if l1 != l2 {
            let mut b = parent.split(l2);
            let mut a = parent.split(l1);
            let agree = (0..8).filter(|_| a.next() == b.next()).count();
            assert!(agree < 8, "distinct labels produced identical streams");
        }
    });
}

/// run_until never advances the clock past the horizon, and running the
/// remainder afterwards fires everything exactly once.
#[test]
fn horizon_is_respected() {
    forall(128, 0xDE5_0005, |g| {
        let times = g.vec_of(1, 100, |g| g.u64_in(0, 999));
        let horizon = g.u64_in(0, 999);
        let mut sim: Simulation<usize> = Simulation::new(0);
        for &t in &times {
            sim.scheduler_mut()
                .schedule_fn(SimTime::from_ns(t), |w: &mut usize, _| *w += 1);
        }
        sim.run_until(SimTime::from_ns(horizon));
        let before = times.iter().filter(|&&t| t <= horizon).count();
        assert_eq!(*sim.world(), before);
        assert!(sim.now() <= SimTime::from_ns(horizon));
        sim.run();
        assert_eq!(*sim.world(), times.len());
    });
}

/// Deterministic replay: two identical simulations produce identical event
/// counts and final clocks even under a complex random workload.
#[test]
fn replay_is_bit_identical() {
    fn run(seed: u64) -> (u64, SimTime, u64) {
        let mut sim = Simulation::new(SimRng::new(seed));
        fn step(w: &mut SimRng, s: &mut Scheduler<SimRng>) {
            let jump = w.ns_between(1, 10_000);
            if w.chance(0.9) {
                s.schedule_in(SimTime::from_ns(jump), step);
            }
            if w.chance(0.3) {
                s.schedule_in(SimTime::from_ns(jump * 2), |_, _| {});
            }
        }
        for _ in 0..10 {
            sim.scheduler_mut().schedule_fn(SimTime::ZERO, step);
        }
        sim.run();
        let events = sim.events_fired();
        let now = sim.now();
        let mut world = sim.into_world();
        (events, now, world.next())
    }
    assert_eq!(run(1234), run(1234));
    assert_ne!(run(1234), run(4321));
}

/// Trace of fired events: `(fire time in ns, item index)`.
type Trace = Vec<(u64, usize)>;

/// A typed event mirroring the boxed-closure workload below: note the fire,
/// optionally chain a follow-up. The `Call` variant absorbs closures so the
/// typed scheduler still supports `schedule_fn` (mirroring `ClusterEvent`).
enum TypedEv {
    Note { idx: usize, followup: Option<u64> },
    Call(BoxedFn<Trace, TypedEv>),
}

impl Event<Trace> for TypedEv {
    fn fire(self, world: &mut Trace, sched: &mut Scheduler<Trace, TypedEv>) {
        match self {
            TypedEv::Note { idx, followup } => {
                world.push((sched.now().as_ns(), idx));
                if let Some(delay) = followup {
                    sched.schedule_after(
                        SimTime::from_ns(delay),
                        TypedEv::Note {
                            idx: idx + 1_000_000,
                            followup: None,
                        },
                    );
                }
            }
            TypedEv::Call(f) => f(world, sched),
        }
    }
    fn from_boxed(f: BoxedFn<Trace, TypedEv>) -> Self {
        TypedEv::Call(f)
    }
}

/// The typed slab path and the boxed-closure path produce bit-identical
/// traces for arbitrary workloads with chained follow-ups, including when
/// typed and closure events are mixed in one queue. This is the property the
/// `ClusterEvent` port of the GM stack relies on: retiming nothing, only
/// changing event representation.
#[test]
fn typed_path_matches_boxed_path() {
    forall(128, 0xDE5_0006, |g| {
        // Workload: (start time, follow-up delay or 0, schedule via closure?)
        let items: Vec<(u64, u64, bool)> = g.vec_of(1, 120, |g| {
            (g.u64_in(0, 99), g.u64_in(0, 19), g.u64_in(0, 3) == 0)
        });

        // Boxed run: everything through schedule_fn.
        let mut boxed: Simulation<Trace> = Simulation::new(Vec::new());
        for (i, &(t, d, _)) in items.iter().enumerate() {
            boxed
                .scheduler_mut()
                .schedule_fn(SimTime::from_ns(t), move |w: &mut Trace, s| {
                    w.push((s.now().as_ns(), i));
                    if d > 0 {
                        s.schedule_in(SimTime::from_ns(d), move |w: &mut Trace, s2| {
                            w.push((s2.now().as_ns(), i + 1_000_000));
                        });
                    }
                });
        }
        boxed.run();

        // Typed run: the same workload as slab events, except items flagged
        // `via_closure`, which go through the Call/from_boxed seam.
        let mut typed: Simulation<Trace, TypedEv> = Simulation::new(Vec::new());
        for (i, &(t, d, via_closure)) in items.iter().enumerate() {
            let followup = (d > 0).then_some(d);
            if via_closure {
                typed
                    .scheduler_mut()
                    .schedule_fn(SimTime::from_ns(t), move |w: &mut Trace, s| {
                        TypedEv::Note { idx: i, followup }.fire(w, s)
                    });
            } else {
                typed
                    .scheduler_mut()
                    .schedule(SimTime::from_ns(t), TypedEv::Note { idx: i, followup });
            }
        }
        typed.run();

        assert_eq!(typed.events_fired(), boxed.events_fired());
        assert_eq!(typed.now(), boxed.now());
        assert_eq!(typed.world(), boxed.world(), "fire traces diverged");
    });
}

/// FIFO tie-break at equal timestamps survives slab slot reuse: events
/// scheduled after earlier events have fired (and freed slots back onto the
/// freelist) still fire strictly after same-time events scheduled earlier.
#[test]
fn typed_fifo_ties_survive_slot_reuse() {
    forall(128, 0xDE5_0007, |g| {
        let wave1: Vec<u64> = g.vec_of(1, 60, |g| g.u64_in(0, 9));
        let wave2: Vec<u64> = g.vec_of(1, 60, |g| g.u64_in(5, 14));
        let steps = g.usize_in(1, wave1.len());

        let mut sim: Simulation<Trace, TypedEv> = Simulation::new(Vec::new());
        for (i, &t) in wave1.iter().enumerate() {
            sim.scheduler_mut().schedule(
                SimTime::from_ns(t),
                TypedEv::Note {
                    idx: i,
                    followup: None,
                },
            );
        }
        // Fire part of wave 1 so its slots return to the freelist, then
        // schedule wave 2 into the recycled slots (indices continue upward,
        // matching the global seq order).
        for _ in 0..steps {
            assert!(sim.step());
        }
        let now = sim.now().as_ns();
        for (j, &t) in wave2.iter().enumerate() {
            let at = now.max(t); // never schedule into the past
            sim.scheduler_mut().schedule(
                SimTime::from_ns(at),
                TypedEv::Note {
                    idx: wave1.len() + j,
                    followup: None,
                },
            );
        }
        sim.run();

        let fired = sim.world();
        assert_eq!(fired.len(), wave1.len() + wave2.len());
        for w in fired.windows(2) {
            assert!(w[0].0 <= w[1].0, "time order violated");
            if w[0].0 == w[1].0 {
                assert!(
                    w[0].1 < w[1].1,
                    "FIFO tie-break violated across slab reuse: {:?} then {:?}",
                    w[0],
                    w[1]
                );
            }
        }
        // Reuse actually happened: capacity never exceeds the high-water
        // mark of simultaneously pending events.
        assert!(sim.scheduler_mut().slab_capacity() <= wave1.len() + wave2.len());
    });
}

/// The wheel window in nanoseconds: events at least this far ahead of `now`
/// wait in the far heap.
const W: u64 = WHEEL_SLOTS as u64;

/// One fired event of the differential workload: `(fire time in ns, id,
/// scheduled at least one window ahead)`.
type Fired = (u64, u64, bool);

/// One follow-up delay, biased to the scheduler's edge cases: zero (a tie
/// with the firing event's time), both sides of the window edge, up to three
/// windows ahead, and targets on a coarse grid, so that events scheduled from
/// different times — some a window or more ahead, some not — tie exactly.
fn follow_up_delay(rng: &mut SimRng, now: u64) -> u64 {
    match rng.below(9) {
        0 => 0,
        1 => W - 1,
        2 => W,
        3 => W + 1,
        4 => rng.below(64),
        5 => rng.below(3 * W + 1),
        6 => 3 * W,
        _ => (now + rng.below(2 * W)).next_multiple_of(W / 8) - now,
    }
}

/// The follow-ups that event `id` at `depth`, firing at `now`, schedules as
/// `(delay, child id)`: a pure function of its arguments, so the scheduler
/// under test and the oracle grow the same tree as long as they fire in the
/// same order. One event in ten schedules an equal-timestamp burst.
fn follow_ups(seed: u64, id: u64, depth: u32, now: u64) -> Vec<(u64, u64)> {
    if depth >= 5 {
        return Vec::new();
    }
    let mut rng = SimRng::new(seed ^ id);
    let (count, burst) = match rng.below(10) {
        0..=2 => (0, false),
        3..=6 => (1, false),
        7 | 8 => (2, false),
        _ => (3 + rng.below(6), true),
    };
    let shared = follow_up_delay(&mut rng, now);
    (0..count)
        .map(|_| {
            let delay = if burst {
                shared
            } else {
                follow_up_delay(&mut rng, now)
            };
            (delay, rng.next())
        })
        .collect()
}

struct DiffWorld {
    seed: u64,
    fired: Vec<Fired>,
    /// Events scheduled so far, roots included.
    scheduled: u64,
}

struct Node {
    id: u64,
    depth: u32,
    far: bool,
}

impl Event<DiffWorld> for Node {
    fn fire(self, world: &mut DiffWorld, sched: &mut Scheduler<DiffWorld, Node>) {
        let now = sched.now().as_ns();
        world.fired.push((now, self.id, self.far));
        for (delay, id) in follow_ups(world.seed, self.id, self.depth, now) {
            let child = Node {
                id,
                depth: self.depth + 1,
                far: delay >= W,
            };
            sched.schedule_after(SimTime::from_ns(delay), child);
            world.scheduled += 1;
        }
    }
    fn from_boxed(_: BoxedFn<DiffWorld, Node>) -> Self {
        unreachable!("the differential workload never schedules closures")
    }
}

/// The reference order: one binary heap keyed by `(time, seq)`.
fn oracle_order(seed: u64, roots: &[(u64, u64)]) -> Vec<Fired> {
    let mut heap = BinaryHeap::new();
    let mut seq = 0u64;
    for &(at, id) in roots {
        heap.push(Reverse((at, seq, id, 0, at >= W)));
        seq += 1;
    }
    let mut fired = Vec::new();
    while let Some(Reverse((now, _, id, depth, far))) = heap.pop() {
        fired.push((now, id, far));
        for (delay, child) in follow_ups(seed, id, depth, now) {
            heap.push(Reverse((now + delay, seq, child, depth + 1, delay >= W)));
            seq += 1;
        }
    }
    fired
}

/// Differential check of the scheduler against a `BinaryHeap<(at, seq)>`
/// oracle: nested scheduling with delays from 0 to three windows, bursts
/// of equal timestamps, inserts at exactly `now + W - 1` and `now + W`,
/// far-heap entries tying with later direct wheel inserts after migration,
/// many wheel wrap-arounds, and `run_until` horizons that stop with events
/// still queued. Every prefix and the full fire order must match exactly.
#[test]
fn scheduler_matches_a_binary_heap_oracle() {
    let mut migration_ties = 0usize;
    let mut stops_with_pending = 0usize;
    forall(256, 0xDE5_0008, |g| {
        let seed = g.any_u64();
        let roots: Vec<(u64, u64)> = g.vec_of(1, 40, |g| {
            let at = if g.chance(0.25) {
                [0, W - 1, W, 2 * W][g.usize_in(0, 3)]
            } else {
                g.u64_in(0, 3 * W)
            };
            (at, g.any_u64())
        });
        let mut horizons = g.vec_of(0, 4, |g| g.u64_in(0, 8 * W));
        horizons.sort_unstable();
        let expected = oracle_order(seed, &roots);
        migration_ties += expected
            .windows(2)
            .filter(|p| p[0].0 == p[1].0 && p[0].2 && !p[1].2)
            .count();

        let mut sim: Simulation<DiffWorld, Node> = Simulation::new(DiffWorld {
            seed,
            fired: Vec::new(),
            scheduled: roots.len() as u64,
        });
        for &(at, id) in &roots {
            let root = Node {
                id,
                depth: 0,
                far: at >= W,
            };
            sim.scheduler_mut().schedule(SimTime::from_ns(at), root);
        }
        for &h in &horizons {
            let outcome = sim.run_until(SimTime::from_ns(h));
            let done = sim.world().fired.len();
            assert_eq!(sim.world().fired[..], expected[..done], "order before {h}");
            let next = expected.get(done).map(|e| e.0);
            assert!(next.is_none_or(|at| at > h), "stopped early at {h}");
            assert!(sim.now().as_ns() <= h, "clock passed the horizon");
            let want = if next.is_some() {
                RunOutcome::HorizonReached
            } else {
                RunOutcome::Quiescent
            };
            assert_eq!(outcome, want);
            let queued = sim.world().scheduled - sim.events_fired();
            let s = sim.scheduler_mut();
            assert_eq!(s.peek_next_at(), next.map(SimTime::from_ns));
            assert_eq!(s.pending() as u64, queued);
            stops_with_pending += usize::from(next.is_some());
        }
        assert_eq!(sim.run(), RunOutcome::Quiescent);
        assert_eq!(sim.world().fired, expected, "full fire order");
        assert_eq!(sim.scheduler_mut().pending(), 0);
    });
    // The workload really reaches the cases it is built for.
    assert!(
        migration_ties >= 100,
        "only {migration_ties} far-to-wheel ties"
    );
    assert!(
        stops_with_pending >= 100,
        "only {stops_with_pending} early stops"
    );
}
