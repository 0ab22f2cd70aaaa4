//! Pending-event queues for the event-driven simulator.
//!
//! The simulator orders pending output transitions by `(time, seq)` —
//! time first, schedule sequence as the tie-break, so causes precede
//! effects at equal times and runs are deterministic. This module
//! provides two interchangeable implementations of that order behind the
//! [`EventQueue`] trait:
//!
//! * [`HeapQueue`] — the classic global `BinaryHeap`. `O(log n)` per
//!   operation, kept as the bit-exact reference backend
//!   ([`QueueBackend::Heap`], forced with `IVL_QUEUE=heap`).
//! * [`CalendarQueue`] — a bucketed calendar queue (timing wheel with a
//!   sorted drain buffer and an overflow level). Amortized `O(1)` push
//!   and pop: events land in a bucket chosen by integer division, only
//!   the *current* bucket is ever sorted, and events beyond the wheel
//!   horizon wait in an overflow list that is redistributed when the
//!   wheel catches up. Cancelled events are removed eagerly
//!   ([`EventQueue::discard`]) instead of lazily transiting the queue as
//!   stale keys.
//!
//! Both backends deliver *exactly* the same `(time, seq)` order, so a
//! simulation is bitwise identical under either — the
//! `queue_equivalence` proptest suite holds them to that bar. That
//! equivalence is what makes [`QueueBackend::Auto`] (the default) safe:
//! the simulator picks a backend from the event counts of the first runs
//! of a workload, and the choice can never change a result, only its
//! cost. The
//! calendar bucket width is sized from the circuit's channels via
//! [`OnlineChannel::delay_hint`](ivl_core::channel::OnlineChannel::delay_hint):
//! the involution channels' bounded delay ranges put typical event
//! horizons a small, known number of buckets ahead.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::sim::EventId;

/// Which pending-event queue implementation a simulator uses.
///
/// The default is [`Auto`](QueueBackend::Auto): the simulator runs on
/// the reference heap until it has scheduled 64 events, then commits to
/// the calendar queue if more than a quarter of them were cancelled and
/// to the heap otherwise (both deliver bit-identical results, so the
/// choice is invisible in the output). A concrete backend can be forced
/// per simulator with
/// [`Simulator::with_queue_backend`](crate::Simulator::with_queue_backend)
/// or process-wide with the `IVL_QUEUE` environment variable (see
/// [`from_env`](QueueBackend::from_env)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub enum QueueBackend {
    /// Adaptive: the heap until the first 64 scheduled events, then the
    /// calendar queue if more than a quarter of them were cancelled and
    /// the heap otherwise. Results are bit-identical either way.
    #[default]
    Auto,
    /// Bucketed calendar queue (timing wheel + sorted overflow): the
    /// fast choice on deep pipelines and cancel-heavy churn.
    Calendar,
    /// Global binary heap: the bit-exact reference implementation.
    Heap,
}

impl QueueBackend {
    /// The default backend, honouring the environment:
    /// `IVL_QUEUE=heap`, `IVL_QUEUE=wheel` (or `calendar`) and
    /// `IVL_QUEUE=auto` select the matching backend; anything else
    /// (including unset) yields [`Auto`](QueueBackend::Auto).
    #[must_use]
    pub fn from_env() -> Self {
        match std::env::var("IVL_QUEUE").as_deref() {
            Ok("heap") => QueueBackend::Heap,
            Ok("wheel" | "calendar") => QueueBackend::Calendar,
            _ => QueueBackend::Auto,
        }
    }
}

/// A pending event: its delivery time, schedule sequence number (the
/// total-order tie-break) and pool handle.
#[derive(Debug, Clone, Copy)]
pub(crate) struct EventKey {
    pub(crate) time: f64,
    pub(crate) seq: u64,
    pub(crate) id: EventId,
}

impl EventKey {
    fn order(&self, other: &Self) -> std::cmp::Ordering {
        self.time
            .total_cmp(&other.time)
            .then(self.seq.cmp(&other.seq))
    }
}

impl PartialEq for EventKey {
    fn eq(&self, other: &Self) -> bool {
        self.order(other) == std::cmp::Ordering::Equal
    }
}

impl Eq for EventKey {}

impl PartialOrd for EventKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for EventKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.order(other)
    }
}

/// Minimum-first queue of pending events, ordered by `(time, seq)`.
///
/// `peek`/`pop` take `&mut self` because the calendar backend advances
/// its wheel (and sorts the next bucket) lazily on access.
pub(crate) trait EventQueue {
    /// Removes every event, keeping allocated capacity.
    fn clear(&mut self);
    /// Inserts an event. Times earlier than already-popped events are
    /// permitted and are delivered next, exactly as a heap would.
    fn push(&mut self, key: EventKey);
    /// The minimum event, without removing it.
    fn peek(&mut self) -> Option<EventKey>;
    /// Removes and returns the minimum event.
    fn pop(&mut self) -> Option<EventKey>;
    /// Removes and returns the minimum event if its time is `≤ time` —
    /// the fused peek-compare-pop of the simulator's delivery loop.
    fn pop_at_or_before(&mut self, time: f64) -> Option<EventKey>;
    /// Eagerly removes a cancelled event identified by its exact
    /// `(time, seq)`. Backends may decline (lazy deletion): the caller
    /// must still filter stale pops by pool generation.
    fn discard(&mut self, time: f64, seq: u64);
}

// ======================================================================
// Heap backend
// ======================================================================

/// The reference backend: a global binary min-heap.
#[derive(Debug, Default)]
pub(crate) struct HeapQueue {
    heap: BinaryHeap<Reverse<EventKey>>,
}

impl EventQueue for HeapQueue {
    fn clear(&mut self) {
        self.heap.clear();
    }

    fn push(&mut self, key: EventKey) {
        self.heap.push(Reverse(key));
    }

    fn peek(&mut self) -> Option<EventKey> {
        self.heap.peek().map(|Reverse(k)| *k)
    }

    fn pop(&mut self) -> Option<EventKey> {
        self.heap.pop().map(|Reverse(k)| k)
    }

    fn pop_at_or_before(&mut self, time: f64) -> Option<EventKey> {
        match self.heap.peek() {
            Some(Reverse(k)) if k.time <= time => self.heap.pop().map(|Reverse(k)| k),
            _ => None,
        }
    }

    fn discard(&mut self, _time: f64, _seq: u64) {
        // lazy deletion: the stale key is filtered at pop time by the
        // caller's generation check
    }
}

// ======================================================================
// Calendar backend
// ======================================================================

/// Bucket geometry for a [`CalendarQueue`], derived from a circuit's
/// channel delay hints.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct CalendarConfig {
    /// Bucket width in simulation time units.
    pub(crate) width: f64,
    /// Number of wheel buckets (a power of two).
    pub(crate) buckets: usize,
}

impl Default for CalendarConfig {
    fn default() -> Self {
        CalendarConfig {
            width: 0.5,
            buckets: 256,
        }
    }
}

impl CalendarConfig {
    /// Sizes the wheel from channel delay hints: the bucket width is
    /// the *smallest* hint — the finest timescale at which any gate can
    /// reschedule, hence a good static proxy for event spacing (a width
    /// keyed to the largest delay would pile every in-flight event of a
    /// wide-fanout circuit into one bucket). The wheel covers four
    /// times the largest hint before spilling to the overflow level, so
    /// the bounded delay ranges of the involution channels keep
    /// steady-state operation overflow-free.
    pub(crate) fn from_delay_hints(hints: impl IntoIterator<Item = f64>) -> Self {
        let mut min = f64::INFINITY;
        let mut max = 0.0f64;
        for d in hints {
            if d.is_finite() && d > 0.0 {
                min = min.min(d);
                max = max.max(d);
            }
        }
        if !min.is_finite() {
            return CalendarConfig::default();
        }
        let width = min;
        let span = (4.0 * max / width).ceil();
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let buckets = if span.is_finite() && span >= 1.0 {
            (span as usize).next_power_of_two().clamp(64, 16384)
        } else {
            256
        };
        CalendarConfig { width, buckets }
    }
}

/// The calendar-queue backend: a timing wheel of unsorted buckets, a
/// sorted drain buffer for the current bucket, and an overflow level for
/// events beyond the wheel horizon.
///
/// Every event is assigned the *absolute* bucket number
/// `⌊time / width⌋`. Because that partition is a pure, monotone function
/// of the timestamp (no arithmetic against a moving wheel origin), two
/// events always land in correctly ordered buckets regardless of when
/// they were pushed — which is what makes the pop order *bitwise*
/// identical to the reference heap rather than merely approximately
/// time-sorted.
///
/// Invariants (`cur` is the absolute bucket number being drained):
///
/// * `drain` holds every stored event with bucket `≤ cur`, sorted
///   *descending* by `(time, seq)` — the minimum pops from the back.
/// * ring slot `n % buckets.len()` holds events of absolute bucket `n`
///   for `cur < n < cur + buckets.len()`, unsorted.
/// * `overflow` holds events at or beyond the wheel horizon, unsorted;
///   `overflow_min_bucket` is a lower bound on their minimum bucket.
///
/// Pushes into the past (relative to the drain position) are legal and
/// binary-insert into `drain`, preserving the global `(time, seq)` pop
/// order exactly as a heap would.
#[derive(Debug)]
pub(crate) struct CalendarQueue {
    width: f64,
    /// `1 / width`: multiplying is ~5× cheaper than dividing in the
    /// per-event bucket computation (consistency, not the exact
    /// quotient, is what ordering needs).
    inv_width: f64,
    /// `buckets.len() - 1`; the length is a power of two, so `n & mask`
    /// is `n mod len` (also for negative `n` in two's complement).
    mask: i64,
    buckets: Vec<Vec<EventKey>>,
    /// Absolute bucket number currently feeding `drain`.
    cur: i64,
    /// Events resident in wheel buckets (excludes `drain` and
    /// `overflow`).
    wheel_len: usize,
    drain: Vec<EventKey>,
    overflow: Vec<EventKey>,
    overflow_min_bucket: i64,
}

impl CalendarQueue {
    /// How many tail entries `discard` inspects before giving up and
    /// leaving a lazy stale key.
    const DISCARD_SCAN: usize = 8;

    pub(crate) fn new(config: CalendarConfig) -> Self {
        debug_assert!(config.buckets.is_power_of_two());
        debug_assert!(config.width > 0.0);
        CalendarQueue {
            width: config.width,
            inv_width: config.width.recip(),
            mask: config.buckets as i64 - 1,
            buckets: (0..config.buckets).map(|_| Vec::new()).collect(),
            cur: 0,
            wheel_len: 0,
            drain: Vec::new(),
            overflow: Vec::new(),
            overflow_min_bucket: i64::MAX,
        }
    }

    /// The geometry this queue was built with.
    pub(crate) fn config(&self) -> CalendarConfig {
        CalendarConfig {
            width: self.width,
            buckets: self.buckets.len(),
        }
    }

    /// The absolute bucket number of `time` — a pure monotone function
    /// of the timestamp (saturating at the `i64` range ends, which only
    /// degrades bucketing granularity, never ordering).
    fn bucket_of(&self, time: f64) -> i64 {
        #[allow(clippy::cast_possible_truncation)]
        let n = (time * self.inv_width).floor() as i64;
        n
    }

    fn ring_slot(&self, bucket: i64) -> usize {
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let slot = (bucket & self.mask) as usize;
        slot
    }

    /// Moves the contents of the wheel slot for absolute bucket
    /// `bucket` into `drain` and sorts it for popping.
    fn load_bucket(&mut self, bucket: i64) {
        debug_assert!(self.drain.is_empty());
        let slot = self.ring_slot(bucket);
        std::mem::swap(&mut self.drain, &mut self.buckets[slot]);
        self.wheel_len -= self.drain.len();
        // descending: the minimum pops from the back in O(1)
        self.drain.sort_unstable_by(|a, b| b.order(a));
    }

    /// Re-pushes every overflow event (after recomputing nothing): the
    /// ones whose bucket now falls inside the wheel window move into
    /// the wheel/drain, the rest return to overflow with an exactly
    /// recomputed `overflow_min_bucket`.
    fn migrate_overflow(&mut self) {
        self.overflow_min_bucket = i64::MAX;
        let pending = std::mem::take(&mut self.overflow);
        for key in pending {
            self.push(key);
        }
    }

    /// Ensures `drain` holds the queue minimum (advancing the wheel and
    /// redistributing overflow as needed). Returns `false` if the queue
    /// is empty.
    ///
    /// The wheel advance must never pass `overflow_min_bucket`: the
    /// overflow boundary is relative to where `cur` stood at *push*
    /// time, so a recently pushed wheel event can occupy a *later*
    /// bucket than an old overflow event — overflow is migrated into
    /// the wheel before `cur` crosses it.
    fn fill_drain(&mut self) -> bool {
        if !self.drain.is_empty() {
            return true;
        }
        loop {
            if self.wheel_len > 0 {
                // bounded by one wheel revolution: wheel_len > 0
                // guarantees a non-empty slot within buckets.len()
                // steps (or we stop earlier at the overflow boundary)
                while self.cur.saturating_add(1) < self.overflow_min_bucket {
                    self.cur += 1;
                    let slot = self.ring_slot(self.cur);
                    if !self.buckets[slot].is_empty() {
                        self.load_bucket(self.cur);
                        return true;
                    }
                }
                // the next occupied wheel bucket lies at or beyond the
                // overflow minimum: fold the overflow in (its minimum
                // is within one bucket of `cur`, hence inside the
                // window) and rescan
                self.migrate_overflow();
                continue;
            }
            if self.overflow.is_empty() {
                return false;
            }
            // the wheel is empty: rebase it at the overflow minimum and
            // redistribute. overflow_min_bucket is a lower bound (eager
            // discards may have removed the true minimum), so one
            // redistribution round may land everything back in
            // overflow — but then the bound is recomputed exactly, and
            // the next round makes progress.
            self.cur = self.overflow_min_bucket;
            self.migrate_overflow();
            if !self.drain.is_empty() {
                return true;
            }
        }
    }

    /// Binary-searches `drain` (sorted descending) for the insertion
    /// point of `key`.
    fn drain_position(&self, key: &EventKey) -> usize {
        self.drain
            .partition_point(|e| e.order(key) == std::cmp::Ordering::Greater)
    }
}

impl EventQueue for CalendarQueue {
    fn clear(&mut self) {
        for b in &mut self.buckets {
            b.clear();
        }
        self.cur = 0;
        self.wheel_len = 0;
        self.drain.clear();
        self.overflow.clear();
        self.overflow_min_bucket = i64::MAX;
    }

    fn push(&mut self, key: EventKey) {
        let n = self.bucket_of(key.time);
        if n <= self.cur {
            let pos = self.drain_position(&key);
            self.drain.insert(pos, key);
        } else if n.saturating_sub(self.cur) < self.buckets.len() as i64 {
            let slot = self.ring_slot(n);
            self.buckets[slot].push(key);
            self.wheel_len += 1;
        } else {
            if n < self.overflow_min_bucket {
                self.overflow_min_bucket = n;
            }
            self.overflow.push(key);
        }
    }

    fn peek(&mut self) -> Option<EventKey> {
        if self.fill_drain() {
            self.drain.last().copied()
        } else {
            None
        }
    }

    fn pop(&mut self) -> Option<EventKey> {
        if self.fill_drain() {
            self.drain.pop()
        } else {
            None
        }
    }

    fn pop_at_or_before(&mut self, time: f64) -> Option<EventKey> {
        if self.fill_drain() && self.drain.last().is_some_and(|k| k.time <= time) {
            self.drain.pop()
        } else {
            None
        }
    }

    fn discard(&mut self, time: f64, seq: u64) {
        let n = self.bucket_of(time);
        if n <= self.cur {
            // exact key: the id is irrelevant for ordering
            let probe = EventKey {
                time,
                seq,
                id: EventId::TOMBSTONE,
            };
            let pos = self.drain_position(&probe);
            if self
                .drain
                .get(pos)
                .is_some_and(|e| e.time == time && e.seq == seq)
            {
                self.drain.remove(pos);
            }
        } else if n.saturating_sub(self.cur) < self.buckets.len() as i64 {
            // scan only the most recent pushes: cancellations
            // overwhelmingly target an event scheduled moments ago, and
            // an unbounded scan would make wide-fanout cancel storms
            // quadratic. A miss simply leaves a stale key for the
            // pop-time generation filter (the heap's discipline).
            let slot = self.ring_slot(n);
            let bucket = &mut self.buckets[slot];
            let start = bucket.len().saturating_sub(Self::DISCARD_SCAN);
            if let Some(pos) = bucket[start..].iter().position(|e| e.seq == seq) {
                bucket.swap_remove(start + pos);
                self.wheel_len -= 1;
            }
        } else {
            let start = self.overflow.len().saturating_sub(Self::DISCARD_SCAN);
            if let Some(pos) = self.overflow[start..].iter().position(|e| e.seq == seq) {
                self.overflow.swap_remove(start + pos);
                // overflow_min_bucket may now underestimate the
                // survivors' minimum; it is only ever used as a lower
                // bound, so leaving it is sound.
            }
        }
    }
}

// ======================================================================
// Backend dispatch
// ======================================================================

/// The simulator's queue slot: enum dispatch over the two backends (no
/// vtable in the hot loop). A simulator switches backend at most once
/// (when [`QueueBackend::Auto`] commits to the calendar queue), so a
/// switch simply builds the new backend in place.
#[derive(Debug)]
pub(crate) enum QueueImpl {
    Heap(HeapQueue),
    Calendar(CalendarQueue),
}

impl QueueImpl {
    /// Makes `backend` (which must be concrete — the simulator resolves
    /// [`QueueBackend::Auto`] before preparing a run) the active,
    /// emptied queue, reusing existing allocations when the backend and
    /// geometry already match.
    pub(crate) fn ensure(&mut self, backend: QueueBackend, config: CalendarConfig) {
        let want_heap = match backend {
            QueueBackend::Heap => true,
            QueueBackend::Calendar => false,
            QueueBackend::Auto => unreachable!("Auto is resolved before queue construction"),
        };
        match self {
            QueueImpl::Heap(q) if want_heap => q.clear(),
            QueueImpl::Calendar(q) if !want_heap && q.config() == config => q.clear(),
            _ if want_heap => *self = QueueImpl::Heap(HeapQueue::default()),
            _ => *self = QueueImpl::Calendar(CalendarQueue::new(config)),
        }
    }

    #[cfg(test)]
    fn is_heap(&self) -> bool {
        matches!(self, QueueImpl::Heap(_))
    }
}

impl Default for QueueImpl {
    fn default() -> Self {
        QueueImpl::Heap(HeapQueue::default())
    }
}

impl EventQueue for QueueImpl {
    fn clear(&mut self) {
        match self {
            QueueImpl::Heap(q) => q.clear(),
            QueueImpl::Calendar(q) => q.clear(),
        }
    }

    fn push(&mut self, key: EventKey) {
        match self {
            QueueImpl::Heap(q) => q.push(key),
            QueueImpl::Calendar(q) => q.push(key),
        }
    }

    fn peek(&mut self) -> Option<EventKey> {
        match self {
            QueueImpl::Heap(q) => q.peek(),
            QueueImpl::Calendar(q) => q.peek(),
        }
    }

    fn pop(&mut self) -> Option<EventKey> {
        match self {
            QueueImpl::Heap(q) => q.pop(),
            QueueImpl::Calendar(q) => q.pop(),
        }
    }

    fn pop_at_or_before(&mut self, time: f64) -> Option<EventKey> {
        match self {
            QueueImpl::Heap(q) => q.pop_at_or_before(time),
            QueueImpl::Calendar(q) => q.pop_at_or_before(time),
        }
    }

    fn discard(&mut self, time: f64, seq: u64) {
        match self {
            QueueImpl::Heap(q) => q.discard(time, seq),
            QueueImpl::Calendar(q) => q.discard(time, seq),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(time: f64, seq: u64) -> EventKey {
        EventKey {
            time,
            seq,
            id: EventId::TOMBSTONE,
        }
    }

    fn drain_all(q: &mut impl EventQueue) -> Vec<(f64, u64)> {
        let mut out = Vec::new();
        while let Some(k) = q.pop() {
            out.push((k.time, k.seq));
        }
        out
    }

    fn both() -> (HeapQueue, CalendarQueue) {
        (
            HeapQueue::default(),
            CalendarQueue::new(CalendarConfig {
                width: 1.0,
                buckets: 8,
            }),
        )
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let (mut h, mut c) = both();
        let keys = [
            key(5.0, 0),
            key(1.0, 1),
            key(5.0, 2),
            key(0.0, 3),
            key(100.0, 4), // overflow (beyond the 8-bucket wheel)
            key(3.5, 5),
            key(3.5, 6),
        ];
        for k in keys {
            h.push(k);
            c.push(k);
        }
        let expect = vec![
            (0.0, 3),
            (1.0, 1),
            (3.5, 5),
            (3.5, 6),
            (5.0, 0),
            (5.0, 2),
            (100.0, 4),
        ];
        assert_eq!(drain_all(&mut h), expect);
        assert_eq!(drain_all(&mut c), expect);
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let (mut h, mut c) = both();
        for k in [key(2.0, 0), key(4.0, 1), key(50.0, 2)] {
            h.push(k);
            c.push(k);
        }
        assert_eq!(h.pop().unwrap().seq, 0);
        assert_eq!(c.pop().unwrap().seq, 0);
        // same-time-as-last-popped push (direct gate fanout does this)
        for k in [key(2.0, 3), key(3.0, 4)] {
            h.push(k);
            c.push(k);
        }
        let expect = vec![(2.0, 3), (3.0, 4), (4.0, 1), (50.0, 2)];
        assert_eq!(drain_all(&mut h), expect);
        assert_eq!(drain_all(&mut c), expect);
    }

    #[test]
    fn peek_does_not_consume() {
        let (mut h, mut c) = both();
        for q in [&mut h as &mut dyn EventQueue, &mut c] {
            q.push(key(7.0, 0));
            q.push(key(3.0, 1));
            assert_eq!(q.peek().unwrap().time, 3.0);
            assert_eq!(q.peek().unwrap().time, 3.0);
            assert_eq!(q.pop().unwrap().time, 3.0);
            assert_eq!(q.peek().unwrap().time, 7.0);
        }
    }

    #[test]
    fn calendar_discard_removes_everywhere() {
        let mut c = CalendarQueue::new(CalendarConfig {
            width: 1.0,
            buckets: 8,
        });
        c.push(key(0.5, 0)); // drain region
        c.push(key(3.0, 1)); // wheel
        c.push(key(200.0, 2)); // overflow
        c.push(key(4.0, 3));
        // materialize the drain so the 0.5 key sits in the sorted buffer
        assert_eq!(c.peek().unwrap().seq, 0);
        c.discard(0.5, 0);
        c.discard(3.0, 1);
        c.discard(200.0, 2);
        assert_eq!(drain_all(&mut c), vec![(4.0, 3)]);
    }

    #[test]
    fn calendar_clear_resets_time_base() {
        let mut c = CalendarQueue::new(CalendarConfig {
            width: 1.0,
            buckets: 8,
        });
        c.push(key(1000.0, 0));
        assert_eq!(c.pop().unwrap().seq, 0);
        c.clear();
        // events at small times must be reachable again after clear
        c.push(key(0.25, 1));
        assert_eq!(c.pop().unwrap().seq, 1);
        assert!(c.pop().is_none());
    }

    #[test]
    fn overflow_rebase_handles_sparse_far_future() {
        let mut c = CalendarQueue::new(CalendarConfig {
            width: 1.0,
            buckets: 8,
        });
        // all far beyond the wheel, in reverse order
        for (i, t) in [1e6, 5e5, 2e6, 5e5 + 0.25].iter().enumerate() {
            c.push(key(*t, i as u64));
        }
        assert_eq!(
            drain_all(&mut c),
            vec![(5e5, 1), (5e5 + 0.25, 3), (1e6, 0), (2e6, 2)]
        );
    }

    #[test]
    fn late_wheel_events_cannot_overtake_overflow() {
        // Regression: the overflow boundary is relative to `cur` at push
        // time. An event pushed early lands in overflow (bucket 100 ≥
        // 0 + 8); after the wheel advances, a *later-timed* event can
        // land in the wheel (bucket 110 within 50 + 8·…), and a naive
        // advance would deliver it first. The wheel must stop at the
        // overflow minimum and migrate.
        let mut c = CalendarQueue::new(CalendarConfig {
            width: 1.0,
            buckets: 64,
        });
        c.push(key(100.5, 0)); // overflow relative to cur = 0 (100 ≥ 64)
        c.push(key(50.5, 1)); // wheel
        assert_eq!(c.pop().unwrap().seq, 1); // cur advances to bucket 50
                                             // bucket 110 is now inside the wheel window (110 − 50 < 64)
                                             // while the earlier event at 100.5 still sits in overflow
        c.push(key(110.0, 40));
        assert_eq!(
            c.pop().unwrap().seq,
            0,
            "overflow event at 100.5 must precede the wheel event at 110"
        );
        assert_eq!(c.pop().unwrap().seq, 40);
        assert!(c.pop().is_none());
    }

    #[test]
    fn config_from_hints() {
        let cfg = CalendarConfig::from_delay_hints([1.0, 2.0, 4.0]);
        assert_eq!(cfg.width, 1.0); // the smallest hint
        assert_eq!(cfg.buckets, 64); // span 4·4/1 = 16, clamped up to 64
                                     // degenerate hints fall back to the default geometry
        assert_eq!(
            CalendarConfig::from_delay_hints([f64::NAN, -1.0, 0.0]),
            CalendarConfig::default()
        );
        assert_eq!(
            CalendarConfig::from_delay_hints(std::iter::empty()),
            CalendarConfig::default()
        );
        // extreme spans clamp to the bucket bounds
        let wide = CalendarConfig::from_delay_hints([1e-9, 1e-9, 1e9]);
        assert_eq!(wide.buckets, 16384);
    }

    #[test]
    fn backend_from_env_contract() {
        // from_env is read in Simulator::new; `IVL_QUEUE` is its only
        // knob, and the suite never sets it, so the process default
        // must be Auto. Setting variables here would race other tests
        // on the process environment.
        if std::env::var_os("IVL_QUEUE").is_none() {
            assert_eq!(QueueBackend::from_env(), QueueBackend::Auto);
        }
        assert_eq!(QueueBackend::default(), QueueBackend::Auto);
    }

    #[test]
    fn queue_impl_ensure_switches_backends() {
        let mut q = QueueImpl::default();
        assert!(q.is_heap());
        q.ensure(QueueBackend::Calendar, CalendarConfig::default());
        assert!(!q.is_heap());
        q.push(key(1.0, 0));
        q.ensure(QueueBackend::Calendar, CalendarConfig::default());
        assert!(q.pop().is_none(), "ensure clears the queue");
        q.push(key(2.0, 1));
        q.ensure(QueueBackend::Heap, CalendarConfig::default());
        assert!(q.is_heap());
        assert!(q.pop().is_none(), "a switch to the heap comes up empty");
        q.push(key(3.0, 2));
        q.ensure(QueueBackend::Calendar, CalendarConfig::default());
        assert!(!q.is_heap());
        assert!(q.pop().is_none(), "a switch to the calendar comes up empty");
    }
}
