//! The event scheduler and simulation driver.
//!
//! A [`Scheduler`] is a priority queue of events ordered by time, with ties
//! broken FIFO: events at equal timestamps fire in the order they were
//! scheduled, so ordering is total and deterministic. A [`Simulation`]
//! couples a scheduler with the simulated world and drives the loop.
//!
//! # Hot path
//!
//! The scheduler is generic over the event type `E`. With a typed event (an
//! enum such as the GM stack's `ClusterEvent`), payloads live in a slab with
//! an internal freelist and the ordering layer holds plain `u32` slot
//! indices — steady-state scheduling performs **zero heap allocations** once
//! the slab and far heap have grown to their high-water mark. The default
//! event type [`Boxed`] wraps `Box<dyn FnOnce>` closures, which keeps
//! `schedule_fn` ergonomics for cold paths and tests (one allocation per
//! event).
//!
//! # Ordering layer: exact-time wheel + far heap
//!
//! Almost every event a cluster simulation schedules lands within a few
//! microseconds of `now` (firmware cycles, wire hops, host overheads); only
//! retransmission timers and horizon sentinels sit further out. The near
//! band `[now, now + WHEEL_SLOTS ns)` lives in a wheel of one-nanosecond
//! buckets; everything later waits in a binary heap ordered by
//! `(time, seq)`. Three invariants make the fired order identical to a
//! single `(time, seq)` priority queue without comparing keys on the hot
//! path (each is `debug_assert`ed):
//!
//! 1. **FIFO buckets.** A bucket holds one timestamp, so FIFO within a
//!    bucket is `seq` order and insertion is an O(1) tail append.
//! 2. **Migrate before fire.** Whenever `now` advances, far entries that
//!    entered the window move to the wheel *before* the fired event runs, so
//!    they precede every later same-time insert.
//! 3. **Wheel before far.** After migration every far entry lies at or
//!    beyond `now + WHEEL_SLOTS`, past every wheel entry, so the far heap is
//!    consulted only when the wheel is empty.
//!
//! A two-level occupancy bitmap (one bit per bucket, one summary bit per
//! word) finds the next non-empty bucket in a handful of word reads.

use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::marker::PhantomData;

/// A schedulable event acting on world `W`.
///
/// `fire` consumes the event by value — typed events are moved out of the
/// slab, never boxed. `from_boxed` absorbs a closure so that
/// [`Scheduler::schedule_fn`] works with any event type; typed events keep a
/// closure variant for cold-path use.
pub trait Event<W>: Sized {
    /// Consume the event, mutating the world and possibly scheduling more.
    fn fire(self, world: &mut W, sched: &mut Scheduler<W, Self>);

    /// Wrap a boxed closure as an event (cold path / tests).
    fn from_boxed(f: BoxedFn<W, Self>) -> Self;
}

/// A boxed event closure: what [`Scheduler::schedule_fn`] wraps and
/// [`Event::from_boxed`] absorbs.
pub type BoxedFn<W, E> = Box<dyn FnOnce(&mut W, &mut Scheduler<W, E>) + Send>;

/// The default event type: a boxed closure. One heap allocation per event —
/// fine for tests and setup, replaced by typed enums on hot paths.
pub struct Boxed<W>(BoxedFn<W, Boxed<W>>);

impl<W> Event<W> for Boxed<W> {
    fn fire(self, world: &mut W, sched: &mut Scheduler<W>) {
        (self.0)(world, sched)
    }
    fn from_boxed(f: Box<dyn FnOnce(&mut W, &mut Scheduler<W>) + Send>) -> Self {
        Boxed(f)
    }
}

/// Link sentinel: empty bucket / end of freelist.
const NIL: u32 = u32::MAX;

/// Number of one-nanosecond wheel buckets, so also the width of the wheel
/// window in nanoseconds (~32.8 µs). That covers every per-event delay in
/// the barrier models; retransmission timers and horizon sentinels fall
/// through to the far heap. The bucket tails take 128 KiB, which every
/// `Simulation::new` initialises, so a wider window costs setup time.
pub const WHEEL_SLOTS: usize = 1 << 15;

const SLOT_MASK: u64 = WHEEL_SLOTS as u64 - 1;
const BITMAP_WORDS: usize = WHEEL_SLOTS / 64;
const SUMMARY_WORDS: usize = BITMAP_WORDS / 64;

/// A far-heap entry `(at, seq, slab slot)`, reversed so the max-heap pops
/// the earliest `(at, seq)`; `seq` is unique, so the slot never decides.
type FarEntry = Reverse<(SimTime, u64, u32)>;

/// What one attempt to fire found.
enum Step {
    Fired,
    Empty,
    Beyond,
}

/// First set bit at or after bit `from` of `words`, wrapping around.
fn next_set_circular(words: &[u64], from: usize) -> Option<usize> {
    let w0 = from / 64;
    let bits = words[w0] & (!0u64 << (from % 64));
    if bits != 0 {
        return Some(w0 * 64 + bits.trailing_zeros() as usize);
    }
    // The last word visited is `w0` again, whose bits at or after `from`
    // are known clear, so its remaining bits are the wrapped-around ones.
    (1..=words.len())
        .map(|i| (w0 + i) % words.len())
        .find(|&w| words[w] != 0)
        .map(|w| w * 64 + words[w].trailing_zeros() as usize)
}

/// Priority queue of pending events plus the current virtual time.
///
/// Ordering is split into a near-future exact-time wheel and a far-future
/// binary heap (see the module docs); the pop order is identical to a
/// single `(time, seq)` priority queue.
pub struct Scheduler<W, E: Event<W> = Boxed<W>> {
    /// Per bucket, the tail slot of a circular FIFO (`links[tail]` is the
    /// head), or [`NIL`] when empty. Bucket of time `t` is
    /// `t & SLOT_MASK`; every wheel entry lies in `[now, now + WHEEL_SLOTS)`,
    /// so buckets and timestamps are in bijection.
    tail: Vec<u32>,
    /// One bit per bucket: set iff it is non-empty.
    occupancy: Vec<u64>,
    /// One bit per `occupancy` word: set iff that word is non-zero.
    summary: [u64; SUMMARY_WORDS],
    /// Number of entries resident in the wheel.
    wheel_len: usize,
    /// Far-future band: everything at or beyond `now + WHEEL_SLOTS`.
    far: BinaryHeap<FarEntry>,
    /// Tie-break sequence for far entries.
    far_seq: u64,
    /// Event payloads by slab slot; `None` when the slot is free.
    events: Vec<Option<E>>,
    /// Per slot: the next slot in its bucket's circular chain while queued
    /// in the wheel, the next free slot while free.
    links: Vec<u32>,
    free_head: u32,
    now: SimTime,
    fired: u64,
    _world: PhantomData<fn(&mut W)>,
}

impl<W, E: Event<W>> Default for Scheduler<W, E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<W, E: Event<W>> Scheduler<W, E> {
    /// An empty scheduler at time zero.
    pub fn new() -> Self {
        Scheduler {
            tail: vec![NIL; WHEEL_SLOTS],
            occupancy: vec![0; BITMAP_WORDS],
            summary: [0; SUMMARY_WORDS],
            wheel_len: 0,
            far: BinaryHeap::new(),
            far_seq: 0,
            events: Vec::new(),
            links: Vec::new(),
            free_head: NIL,
            now: SimTime::ZERO,
            fired: 0,
            _world: PhantomData,
        }
    }

    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events fired so far.
    #[inline]
    pub fn fired(&self) -> u64 {
        self.fired
    }

    /// Number of events still pending.
    #[inline]
    pub fn pending(&self) -> usize {
        self.wheel_len + self.far.len()
    }

    /// Timestamp of the earliest pending event, if any.
    pub fn peek_next_at(&self) -> Option<SimTime> {
        match self.first_bucket() {
            Some(idx) => Some(self.bucket_time(idx)),
            None => self.far.peek().map(|&Reverse((at, _, _))| at),
        }
    }

    /// Slab capacity (high-water mark of simultaneously pending events) —
    /// instrumentation for allocation tests.
    pub fn slab_capacity(&self) -> usize {
        self.events.len()
    }

    /// The earliest non-empty bucket: the first occupied one at or after
    /// `now`'s bucket in circular order, which is time order because the
    /// wheel spans exactly one window from `now`.
    #[inline]
    fn first_bucket(&self) -> Option<usize> {
        if self.wheel_len == 0 {
            return None;
        }
        let start = (self.now.as_ns() & SLOT_MASK) as usize;
        let w0 = start / 64;
        let bits = self.occupancy[w0] & (!0u64 << (start % 64));
        let (w, bits) = if bits != 0 {
            (w0, bits)
        } else {
            let w = next_set_circular(&self.summary, (w0 + 1) % BITMAP_WORDS)
                .expect("wheel_len > 0 but the summary bitmap is empty");
            (w, self.occupancy[w])
        };
        Some(w * 64 + bits.trailing_zeros() as usize)
    }

    /// The timestamp held by wheel bucket `idx`.
    #[inline]
    fn bucket_time(&self, idx: usize) -> SimTime {
        let now = self.now.as_ns();
        SimTime::from_ns(now + ((idx as u64).wrapping_sub(now) & SLOT_MASK))
    }

    /// Append slab slot `slot`, due at `at`, to the tail of its bucket.
    #[inline]
    fn push_wheel(&mut self, slot: u32, at: SimTime) {
        debug_assert!(
            at.as_ns() - self.now.as_ns() < WHEEL_SLOTS as u64,
            "wheel entry outside the window"
        );
        let idx = (at.as_ns() & SLOT_MASK) as usize;
        let tail = self.tail[idx];
        if tail == NIL {
            self.links[slot as usize] = slot;
            self.occupancy[idx / 64] |= 1 << (idx % 64);
            self.summary[idx / 4096] |= 1 << (idx / 64 % 64);
        } else {
            self.links[slot as usize] = self.links[tail as usize];
            self.links[tail as usize] = slot;
        }
        self.tail[idx] = slot;
        self.wheel_len += 1;
    }

    /// Unlink and return the head slot of non-empty bucket `idx`.
    #[inline]
    fn pop_wheel(&mut self, idx: usize) -> u32 {
        let tail = self.tail[idx];
        debug_assert!(tail != NIL, "popping an empty bucket");
        let head = self.links[tail as usize];
        if head == tail {
            self.tail[idx] = NIL;
            let w = idx / 64;
            self.occupancy[w] &= !(1 << (idx % 64));
            if self.occupancy[w] == 0 {
                self.summary[w / 64] &= !(1 << (w % 64));
            }
        } else {
            self.links[tail as usize] = self.links[head as usize];
        }
        self.wheel_len -= 1;
        head
    }

    /// Move far entries that `now` has brought into the window to the
    /// wheel, earliest `(at, seq)` first, so same-time entries stay FIFO.
    fn migrate_far(&mut self) {
        let now = self.now.as_ns();
        while self
            .far
            .peek()
            .is_some_and(|&Reverse((at, _, _))| at.as_ns() - now < WHEEL_SLOTS as u64)
        {
            let Reverse((at, _, slot)) = self.far.pop().expect("peeked entry vanished");
            self.push_wheel(slot, at);
        }
    }

    /// Schedule `event` at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is in the past — scheduling backwards in time is always
    /// a model bug and must fail loudly.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "event scheduled in the past: at={at:?} now={:?}",
            self.now
        );
        let slot = if self.free_head == NIL {
            debug_assert!(self.events.len() < NIL as usize, "slab full");
            self.events.push(Some(event));
            self.links.push(NIL);
            (self.events.len() - 1) as u32
        } else {
            let slot = self.free_head;
            self.free_head = self.links[slot as usize];
            self.events[slot as usize] = Some(event);
            slot
        };
        if at.as_ns() - self.now.as_ns() < WHEEL_SLOTS as u64 {
            self.push_wheel(slot, at);
        } else {
            let seq = self.far_seq;
            self.far_seq += 1;
            self.far.push(Reverse((at, seq, slot)));
        }
    }

    /// Schedule a closure at absolute time `at`.
    #[inline]
    pub fn schedule_fn<F>(&mut self, at: SimTime, f: F)
    where
        F: FnOnce(&mut W, &mut Scheduler<W, E>) + Send + 'static,
    {
        self.schedule(at, E::from_boxed(Box::new(f)));
    }

    /// Schedule a closure `delay` after the current time.
    #[inline]
    pub fn schedule_in<F>(&mut self, delay: SimTime, f: F)
    where
        F: FnOnce(&mut W, &mut Scheduler<W, E>) + Send + 'static,
    {
        let at = self.now + delay;
        self.schedule_fn(at, f);
    }

    /// Schedule a typed event `delay` after the current time.
    #[inline]
    pub fn schedule_after(&mut self, delay: SimTime, event: E) {
        let at = self.now + delay;
        self.schedule(at, event);
    }

    /// Pop and fire the earliest event against `world`. Returns `false` when
    /// the queue is empty.
    pub fn step(&mut self, world: &mut W) -> bool {
        matches!(self.step_until(world, SimTime::MAX), Step::Fired)
    }

    /// Pop and fire the earliest event if it is due at or before `horizon`;
    /// one bucket lookup per fired event.
    fn step_until(&mut self, world: &mut W, horizon: SimTime) -> Step {
        let (at, slot) = if let Some(idx) = self.first_bucket() {
            let at = self.bucket_time(idx);
            if at > horizon {
                return Step::Beyond;
            }
            (at, self.pop_wheel(idx))
        } else {
            let Some(&Reverse((at, _, slot))) = self.far.peek() else {
                return Step::Empty;
            };
            if at > horizon {
                return Step::Beyond;
            }
            self.far.pop();
            (at, slot)
        };
        debug_assert!(at >= self.now, "time went backwards");
        self.now = at;
        self.fired += 1;
        self.migrate_far();
        debug_assert!(
            self.far
                .peek()
                .is_none_or(|&Reverse((t, _, _))| t.as_ns() - at.as_ns() >= WHEEL_SLOTS as u64),
            "far entry inside the window after migration"
        );
        let event = self.events[slot as usize]
            .take()
            .expect("queued slot holds no event");
        self.links[slot as usize] = self.free_head;
        self.free_head = slot;
        event.fire(world, self);
        Step::Fired
    }
}

/// Why [`Simulation::run`] stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The event queue drained — the normal way a simulation ends.
    Quiescent,
    /// The time horizon passed; events beyond it remain queued.
    HorizonReached,
    /// The event budget was exhausted — almost certainly a livelock bug.
    BudgetExhausted,
}

/// A world plus a scheduler, with guarded run loops.
pub struct Simulation<W, E: Event<W> = Boxed<W>> {
    world: W,
    sched: Scheduler<W, E>,
    /// Upper bound on the total number of fired events (livelock guard).
    budget: u64,
}

impl<W, E: Event<W>> Simulation<W, E> {
    /// Default budget: generous for real experiments, small enough that a
    /// livelocked unit test fails in well under a second.
    pub const DEFAULT_BUDGET: u64 = 500_000_000;

    /// Create a simulation around `world`.
    pub fn new(world: W) -> Self {
        Simulation {
            world,
            sched: Scheduler::new(),
            budget: Self::DEFAULT_BUDGET,
        }
    }

    /// Replace the event budget (livelock guard).
    pub fn with_budget(mut self, budget: u64) -> Self {
        self.budget = budget;
        self
    }

    /// Immutable world access.
    pub fn world(&self) -> &W {
        &self.world
    }

    /// Mutable world access (setup/teardown only — events mutate via firing).
    pub fn world_mut(&mut self) -> &mut W {
        &mut self.world
    }

    /// The scheduler, for seeding initial events.
    pub fn scheduler_mut(&mut self) -> &mut Scheduler<W, E> {
        &mut self.sched
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.sched.now()
    }

    /// Total events fired.
    pub fn events_fired(&self) -> u64 {
        self.sched.fired()
    }

    /// Fire one event; `false` if the queue was empty.
    pub fn step(&mut self) -> bool {
        self.sched.step(&mut self.world)
    }

    /// Run until the queue drains or the budget is exhausted.
    pub fn run(&mut self) -> RunOutcome {
        self.run_until(SimTime::MAX)
    }

    /// Run until the queue drains, the next event lies beyond `horizon`, or
    /// the budget is exhausted. The clock never advances past `horizon`.
    pub fn run_until(&mut self, horizon: SimTime) -> RunOutcome {
        loop {
            if self.sched.fired() >= self.budget {
                return RunOutcome::BudgetExhausted;
            }
            match self.sched.step_until(&mut self.world, horizon) {
                Step::Fired => {}
                Step::Empty => return RunOutcome::Quiescent,
                Step::Beyond => return RunOutcome::HorizonReached,
            }
        }
    }

    /// Run while `pred(world)` holds (checked before each event).
    pub fn run_while<P: FnMut(&W) -> bool>(&mut self, mut pred: P) -> RunOutcome {
        loop {
            if !pred(&self.world) {
                return RunOutcome::HorizonReached;
            }
            if self.sched.fired() >= self.budget {
                return RunOutcome::BudgetExhausted;
            }
            if !self.sched.step(&mut self.world) {
                return RunOutcome::Quiescent;
            }
        }
    }

    /// Consume the simulation, returning the world.
    pub fn into_world(self) -> W {
        self.world
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_fire_in_time_order() {
        let mut sim: Simulation<Vec<u32>> = Simulation::new(Vec::new());
        let s = sim.scheduler_mut();
        s.schedule_fn(SimTime::from_us(30), |w: &mut Vec<u32>, _| w.push(3));
        s.schedule_fn(SimTime::from_us(10), |w: &mut Vec<u32>, _| w.push(1));
        s.schedule_fn(SimTime::from_us(20), |w: &mut Vec<u32>, _| w.push(2));
        assert_eq!(sim.run(), RunOutcome::Quiescent);
        assert_eq!(sim.world(), &[1, 2, 3]);
        assert_eq!(sim.now(), SimTime::from_us(30));
    }

    #[test]
    fn ties_fire_fifo() {
        let mut sim: Simulation<Vec<u32>> = Simulation::new(Vec::new());
        let t = SimTime::from_us(5);
        for i in 0..100 {
            sim.scheduler_mut()
                .schedule_fn(t, move |w: &mut Vec<u32>, _| w.push(i));
        }
        sim.run();
        assert_eq!(*sim.world(), (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn events_can_schedule_events() {
        let mut sim = Simulation::new(0u64);
        fn tick(w: &mut u64, s: &mut Scheduler<u64>) {
            *w += 1;
            if *w < 10 {
                s.schedule_in(SimTime::from_us(1), tick);
            }
        }
        sim.scheduler_mut().schedule_fn(SimTime::ZERO, tick);
        assert_eq!(sim.run(), RunOutcome::Quiescent);
        assert_eq!(*sim.world(), 10);
        assert_eq!(sim.now(), SimTime::from_us(9));
    }

    #[test]
    fn horizon_stops_clock() {
        let mut sim: Simulation<u64> = Simulation::new(0);
        sim.scheduler_mut()
            .schedule_fn(SimTime::from_us(10), |w: &mut u64, _| *w = 1);
        sim.scheduler_mut()
            .schedule_fn(SimTime::from_us(100), |w: &mut u64, _| *w = 2);
        assert_eq!(
            sim.run_until(SimTime::from_us(50)),
            RunOutcome::HorizonReached
        );
        assert_eq!(*sim.world(), 1);
        assert_eq!(sim.now(), SimTime::from_us(10));
        // The remaining event still fires on a later run.
        assert_eq!(sim.run(), RunOutcome::Quiescent);
        assert_eq!(*sim.world(), 2);
    }

    #[test]
    fn budget_catches_livelock() {
        let mut sim = Simulation::new(0u64).with_budget(1_000);
        fn forever(_: &mut u64, s: &mut Scheduler<u64>) {
            s.schedule_in(SimTime::from_ns(1), forever);
        }
        sim.scheduler_mut().schedule_fn(SimTime::ZERO, forever);
        assert_eq!(sim.run(), RunOutcome::BudgetExhausted);
    }

    #[test]
    fn run_while_predicate() {
        let mut sim: Simulation<u64> = Simulation::new(0);
        for i in 0..20u64 {
            sim.scheduler_mut()
                .schedule_fn(SimTime::from_us(i), |w: &mut u64, _| *w += 1);
        }
        sim.run_while(|w| *w < 5);
        assert_eq!(*sim.world(), 5);
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn scheduling_in_the_past_panics() {
        let mut sim: Simulation<()> = Simulation::new(());
        sim.scheduler_mut()
            .schedule_fn(SimTime::from_us(10), |_, s: &mut Scheduler<()>| {
                s.schedule_fn(SimTime::from_us(5), |_, _| {});
            });
        sim.run();
    }

    #[test]
    fn step_returns_false_when_empty() {
        let mut sim: Simulation<()> = Simulation::new(());
        assert!(!sim.step());
        assert_eq!(sim.events_fired(), 0);
    }

    /// A minimal typed event for exercising the slab path directly.
    enum Typed {
        Push(u32),
        Chain { left: u32 },
    }

    impl Event<Vec<u32>> for Typed {
        fn fire(self, world: &mut Vec<u32>, sched: &mut Scheduler<Vec<u32>, Typed>) {
            match self {
                Typed::Push(v) => world.push(v),
                Typed::Chain { left } => {
                    world.push(left);
                    if left > 0 {
                        sched.schedule_after(SimTime::from_ns(5), Typed::Chain { left: left - 1 });
                    }
                }
            }
        }
        fn from_boxed(
            f: Box<dyn FnOnce(&mut Vec<u32>, &mut Scheduler<Vec<u32>, Typed>) + Send>,
        ) -> Self {
            // Tests only need a marker; real typed events keep a closure
            // variant. Run it immediately-on-fire via Chain-free encoding is
            // impossible here, so panic loudly if exercised.
            let _ = f;
            unreachable!("typed test event does not absorb closures")
        }
    }

    #[test]
    fn typed_events_fire_in_order_and_reuse_slots() {
        let mut sim: Simulation<Vec<u32>, Typed> = Simulation::new(Vec::new());
        let s = sim.scheduler_mut();
        s.schedule(SimTime::from_us(2), Typed::Push(20));
        s.schedule(SimTime::from_us(1), Typed::Push(10));
        s.schedule(SimTime::from_us(3), Typed::Chain { left: 3 });
        assert_eq!(sim.run(), RunOutcome::Quiescent);
        assert_eq!(*sim.world(), [10, 20, 3, 2, 1, 0]);
        // The chain reuses freed slots: capacity stays at the high-water
        // mark of simultaneously pending events, not the event count.
        assert_eq!(sim.scheduler_mut().slab_capacity(), 3);
        assert_eq!(sim.events_fired(), 6);
    }

    #[test]
    fn far_future_events_fire_in_order() {
        // Events beyond the wheel window land in the far heap; they must
        // still interleave correctly with near-future events.
        let window = SimTime::from_ns(WHEEL_SLOTS as u64);
        let mut sim: Simulation<Vec<u32>> = Simulation::new(Vec::new());
        let s = sim.scheduler_mut();
        s.schedule_fn(window * 3, |w: &mut Vec<u32>, _| w.push(4));
        s.schedule_fn(SimTime::from_ns(50), |w: &mut Vec<u32>, _| w.push(1));
        s.schedule_fn(window * 2, |w: &mut Vec<u32>, _| w.push(3));
        s.schedule_fn(window - SimTime::from_ns(1), |w: &mut Vec<u32>, _| {
            w.push(2)
        });
        assert_eq!(sim.run(), RunOutcome::Quiescent);
        assert_eq!(*sim.world(), [1, 2, 3, 4]);
    }

    #[test]
    fn ties_fire_fifo_across_wheel_and_far() {
        // First event scheduled while T is beyond the window (far heap),
        // second scheduled for the same T after the clock has advanced
        // enough that T is wheel-resident. FIFO by seq must still hold.
        let window = SimTime::from_ns(WHEEL_SLOTS as u64);
        let t = window * 2;
        let mut sim: Simulation<Vec<u32>> = Simulation::new(Vec::new());
        let s = sim.scheduler_mut();
        s.schedule_fn(t, |w: &mut Vec<u32>, _| w.push(1));
        let t2 = t;
        s.schedule_fn(
            t + t / 2, // make sure draining continues past t
            |w: &mut Vec<u32>, _| w.push(3),
        );
        s.schedule_fn(
            window + window / 2,
            move |_, s: &mut Scheduler<Vec<u32>>| {
                // Now `t` is within the window: this lands in the wheel while
                // its tie partner sits in the far heap.
                s.schedule_fn(t2, |w: &mut Vec<u32>, _| w.push(2));
            },
        );
        assert_eq!(sim.run(), RunOutcome::Quiescent);
        assert_eq!(*sim.world(), [1, 2, 3]);
    }

    #[test]
    fn long_horizon_chain_wraps_the_wheel_many_times() {
        // A self-rescheduling chain whose period forces thousands of bucket
        // advances and several full wheel wraps.
        let mut sim = Simulation::new(0u64);
        fn tick(w: &mut u64, s: &mut Scheduler<u64>) {
            *w += 1;
            if *w < 5_000 {
                // ~37 buckets per step, ~11 wraps over the whole run.
                s.schedule_in(SimTime::from_ns(2_401), tick);
            }
        }
        sim.scheduler_mut().schedule_fn(SimTime::ZERO, tick);
        assert_eq!(sim.run(), RunOutcome::Quiescent);
        assert_eq!(*sim.world(), 5_000);
        assert_eq!(sim.now(), SimTime::from_ns(2_401 * 4_999));
    }

    #[test]
    fn pending_counts_both_bands() {
        let window = SimTime::from_ns(WHEEL_SLOTS as u64);
        let mut sim: Simulation<()> = Simulation::new(());
        let s = sim.scheduler_mut();
        s.schedule_fn(SimTime::from_ns(10), |_, _| {});
        s.schedule_fn(window * 5, |_, _| {});
        assert_eq!(s.pending(), 2);
        assert_eq!(s.peek_next_at(), Some(SimTime::from_ns(10)));
        sim.run();
        assert_eq!(sim.scheduler_mut().pending(), 0);
    }

    #[test]
    fn typed_ties_fire_fifo_through_slab_reuse() {
        let mut sim: Simulation<Vec<u32>, Typed> = Simulation::new(Vec::new());
        let t = SimTime::from_us(5);
        for i in 0..50 {
            sim.scheduler_mut().schedule(t, Typed::Push(i));
        }
        sim.run();
        assert_eq!(*sim.world(), (0..50).collect::<Vec<_>>());
    }
}
