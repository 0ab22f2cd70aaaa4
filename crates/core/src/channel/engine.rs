//! The shared single-history engine implementing the paper's output
//! transition generation algorithm.

use std::collections::VecDeque;

use crate::bit::Bit;
use crate::channel::FeedEffect;
use crate::signal::Transition;

/// When does a newly computed output transition cancel against the most
/// recent retained one?
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum CancelRule {
    /// Non-FIFO cancellation (the paper's rule): the `n`-th and `m`-th
    /// pending transitions cancel if `n < m` but `t_n + δ_n ≥ t_m + δ_m`.
    NonFifo,
    /// Minimum-separation cancellation (inertial delays): cancel the pair
    /// if the new output would follow the previous one within less than
    /// the window.
    MinSeparation(f64),
}

impl CancelRule {
    #[inline]
    fn cancels(self, last_retained: f64, new_time: f64) -> bool {
        match self {
            CancelRule::NonFifo => last_retained >= new_time,
            CancelRule::MinSeparation(w) => new_time - last_retained < w,
        }
    }
}

/// Outputs a channel keeps inline before its history spills to the
/// heap. Two cover a channel with at most two outputs in flight; only
/// deeper histories — η cancellation cascades, or input pulses shorter
/// than the channel delay — allocate. Every channel pays for the ring,
/// so a larger one costs memory on every edge of a large netlist.
const INLINE: usize = 2;

/// The overflow of a [`Retained`] history: a boxed `VecDeque`, so a
/// channel that never spills pays one pointer for it rather than the
/// deque's four words. The box is made on the first spill and kept
/// (with its buffer) for the next cascade; until then the spill reads
/// as an empty deque.
#[derive(Debug, Clone, Default)]
#[allow(clippy::box_collection)] // the box is the point: one word inline
struct Spill(Option<Box<VecDeque<Transition>>>);

static NO_SPILL: VecDeque<Transition> = VecDeque::new();

impl std::ops::Deref for Spill {
    type Target = VecDeque<Transition>;

    #[inline]
    fn deref(&self) -> &VecDeque<Transition> {
        self.0.as_deref().unwrap_or(&NO_SPILL)
    }
}

impl Spill {
    fn deque(&mut self) -> &mut VecDeque<Transition> {
        self.0.get_or_insert_with(Box::default)
    }

    fn clear(&mut self) {
        if let Some(d) = &mut self.0 {
            d.clear();
        }
    }
}

/// The retained-output stack in increasing time order: an inline ring of
/// up to [`INLINE`] entries, spilling into a [`Spill`] deque only while
/// more are pending. While spilled, `spill` holds every entry and the
/// ring is empty; once pops bring it back to [`INLINE`] entries they
/// return to the ring (the deque keeps its buffer for the next cascade).
#[derive(Debug, Clone)]
struct Retained {
    ring: [Transition; INLINE],
    spill: Spill,
    /// Ring index of the oldest inline entry. This and `len` are bytes
    /// so that a channel stays small enough to live inline in a
    /// circuit's channel array.
    head: u8,
    /// Number of inline entries (0 while spilled).
    len: u8,
}

impl Retained {
    fn new() -> Self {
        Retained {
            ring: [Transition::new(0.0, Bit::Zero); INLINE],
            spill: Spill::default(),
            head: 0,
            len: 0,
        }
    }

    /// Ring index of the `i`-th oldest inline entry.
    #[inline]
    fn slot(&self, i: usize) -> usize {
        (usize::from(self.head) + i) % INLINE
    }

    #[inline]
    fn front(&self) -> Option<Transition> {
        if !self.spill.is_empty() {
            return self.spill.front().copied();
        }
        (self.len > 0).then(|| self.ring[self.slot(0)])
    }

    #[inline]
    fn back(&self) -> Option<Transition> {
        if !self.spill.is_empty() {
            return self.spill.back().copied();
        }
        (self.len > 0).then(|| self.ring[self.slot(usize::from(self.len) - 1)])
    }

    #[inline]
    fn push_back(&mut self, tr: Transition) {
        if self.spill.is_empty() {
            let len = usize::from(self.len);
            if len < INLINE {
                let i = self.slot(len);
                self.ring[i] = tr;
                self.len += 1;
                return;
            }
            self.spill_ring();
        }
        self.spill.deque().push_back(tr);
    }

    /// Moves a full ring into the spill deque.
    #[cold]
    fn spill_ring(&mut self) {
        let ring: [Transition; INLINE] = std::array::from_fn(|i| self.ring[self.slot(i)]);
        self.spill.deque().extend(ring);
        self.len = 0;
    }

    #[inline]
    fn pop_back(&mut self) -> Option<Transition> {
        if !self.spill.is_empty() {
            let tr = self.spill.deque().pop_back();
            self.unspill();
            return tr;
        }
        if self.len == 0 {
            return None;
        }
        self.len -= 1;
        Some(self.ring[self.slot(usize::from(self.len))])
    }

    #[inline]
    fn pop_front(&mut self) {
        if !self.spill.is_empty() {
            self.spill.deque().pop_front();
            self.unspill();
        } else if self.len > 0 {
            self.head = self.slot(1) as u8;
            self.len -= 1;
        }
    }

    /// Moves a spilled history that fits back into the ring.
    fn unspill(&mut self) {
        let spill = self.spill.deque();
        if spill.len() <= INLINE {
            self.head = 0;
            self.len = spill.len() as u8;
            for (slot, tr) in self.ring.iter_mut().zip(spill.drain(..)) {
                *slot = tr;
            }
        }
    }

    fn clear(&mut self) {
        self.head = 0;
        self.len = 0;
        self.spill.clear();
    }
}

/// Single-history channel state machine.
///
/// Tracks `(t_{n−1}, δ_{n−1})` for the offset recursion and the stack of
/// retained (scheduled, not cancelled) output transitions for pairwise
/// cancellation. Concrete channels compute the delay `δ_n` and delegate
/// everything else here. The stack lives inline in the channel (see
/// [`Retained`]), so feeding a channel allocates nothing unless a
/// cancellation cascade keeps more than two outputs pending.
///
/// The [`CancelRule`] is not stored: each channel passes its own to
/// [`feed`](EngineCore::feed), which keeps the engine, and so every
/// channel, two words smaller.
#[derive(Debug, Clone)]
pub(crate) struct EngineCore {
    t_prev: f64,
    d_prev: f64,
    count: usize,
    /// Retained outputs in increasing time order; cancellation pops from
    /// the back, delivery bookkeeping drops from the front.
    retained: Retained,
}

impl EngineCore {
    pub(crate) fn new() -> Self {
        EngineCore {
            t_prev: f64::NEG_INFINITY,
            d_prev: 0.0,
            count: 0,
            retained: Retained::new(),
        }
    }

    /// The previous-output-to-input offset `T = t − t_{n−1} − δ_{n−1}`
    /// for a new input transition at `t` (`+∞` before the first
    /// transition, matching `t_0 = −∞, δ_0 = 0`).
    #[inline]
    pub(crate) fn offset(&self, t: f64) -> f64 {
        // IEEE-754 arithmetic gives the right answers at the extended
        // points: t − (−∞) − 0 = +∞ for the first transition, and
        // t − t_prev − (−∞) = +∞ after a domain-guarded transition.
        t - self.t_prev - self.d_prev
    }

    /// Number of input transitions fed so far.
    #[inline]
    pub(crate) fn count(&self) -> usize {
        self.count
    }

    /// Feeds an input transition whose delay `δ_n` has already been
    /// computed (`−∞` encodes the domain-guard case); `rule` decides
    /// whether its output cancels against the last retained one.
    #[inline]
    pub(crate) fn feed(&mut self, input: Transition, delay: f64, rule: CancelRule) -> FeedEffect {
        debug_assert!(!delay.is_nan(), "delay must not be NaN");
        debug_assert!(
            input.time > self.t_prev,
            "input transitions must be fed in strictly increasing time order"
        );
        self.t_prev = input.time;
        self.d_prev = delay;
        self.count += 1;
        let on = input.time + delay;
        let last = self.retained.back();
        let cancels = match last {
            Some(last) => rule.cancels(last.time, on),
            None => on == f64::NEG_INFINITY,
        };
        if cancels {
            match self.retained.pop_back() {
                Some(cancelled) => FeedEffect::CancelledPair { cancelled },
                None => FeedEffect::Dropped,
            }
        } else {
            if let Some(last) = last {
                debug_assert_ne!(
                    last.value, input.value,
                    "pairwise cancellation must preserve alternation"
                );
            }
            let tr = Transition::new(on, input.value);
            self.retained.push_back(tr);
            FeedEffect::Scheduled(tr)
        }
    }

    /// Drops retained entries scheduled at or before `before` (they have
    /// been delivered by the simulator and can no longer cancel).
    #[inline]
    pub(crate) fn discard_delivered(&mut self, before: f64) {
        while self.retained.front().is_some_and(|tr| tr.time <= before) {
            self.retained.pop_front();
        }
    }

    pub(crate) fn reset(&mut self) {
        self.t_prev = f64::NEG_INFINITY;
        self.d_prev = 0.0;
        self.count = 0;
        self.retained.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn tr(t: f64, v: u8) -> Transition {
        Transition::new(t, if v == 1 { Bit::One } else { Bit::Zero })
    }

    #[test]
    fn offset_extended_points() {
        let e = EngineCore::new();
        assert_eq!(e.offset(5.0), f64::INFINITY); // before first transition

        let mut e = EngineCore::new();
        e.feed(tr(1.0, 1), 0.5, CancelRule::NonFifo);
        assert_eq!(e.offset(2.0), 0.5); // 2 − 1 − 0.5

        // after a domain-guarded (−∞ delay) transition, offset is +∞
        let mut e = EngineCore::new();
        e.feed(tr(1.0, 1), 2.0, CancelRule::NonFifo);
        e.feed(tr(1.5, 0), f64::NEG_INFINITY, CancelRule::NonFifo);
        assert_eq!(e.offset(3.0), f64::INFINITY);
    }

    #[test]
    fn non_fifo_cancellation() {
        let mut e = EngineCore::new();
        assert_eq!(
            e.feed(tr(0.0, 1), 3.0, CancelRule::NonFifo),
            FeedEffect::Scheduled(tr(3.0, 1))
        );
        // output at 2.5 would precede the pending one at 3.0 → pair cancels
        assert_eq!(
            e.feed(tr(1.0, 0), 1.5, CancelRule::NonFifo),
            FeedEffect::CancelledPair {
                cancelled: tr(3.0, 1)
            }
        );
        // stack is empty again
        assert_eq!(
            e.feed(tr(2.0, 1), 1.0, CancelRule::NonFifo),
            FeedEffect::Scheduled(tr(3.0, 1))
        );
    }

    #[test]
    fn equal_times_cancel_under_non_fifo() {
        let mut e = EngineCore::new();
        e.feed(tr(0.0, 1), 2.0, CancelRule::NonFifo);
        assert!(matches!(
            e.feed(tr(1.0, 0), 1.0, CancelRule::NonFifo), // output also at 2.0
            FeedEffect::CancelledPair { .. }
        ));
    }

    #[test]
    fn cascaded_cancellation_exposes_older_entries() {
        let mut e = EngineCore::new();
        e.feed(tr(0.0, 1), 5.0, CancelRule::NonFifo); // pending at 5
        e.feed(tr(1.0, 0), 8.0, CancelRule::NonFifo); // pending at 9
                                                      // new output at 7 ≤ 9 → cancels the 9-pair; 5 survives
        assert_eq!(
            e.feed(tr(2.0, 1), 5.0, CancelRule::NonFifo),
            FeedEffect::CancelledPair {
                cancelled: tr(9.0, 0)
            }
        );
        // next transition now compares against 5
        assert_eq!(
            e.feed(tr(3.0, 0), 1.0, CancelRule::NonFifo), // output at 4 ≤ 5 → cancel with 5
            FeedEffect::CancelledPair {
                cancelled: tr(5.0, 1)
            }
        );
    }

    #[test]
    fn minus_infinity_delay_cancels_or_drops() {
        let mut e = EngineCore::new();
        // no pending partner → dropped alone
        assert_eq!(
            e.feed(tr(0.0, 1), f64::NEG_INFINITY, CancelRule::NonFifo),
            FeedEffect::Dropped
        );
        // with a pending partner → pair cancellation
        e.feed(tr(1.0, 0), 2.0, CancelRule::NonFifo);
        assert!(matches!(
            e.feed(tr(1.5, 1), f64::NEG_INFINITY, CancelRule::NonFifo),
            FeedEffect::CancelledPair { .. }
        ));
    }

    #[test]
    fn min_separation_rule() {
        let mut e = EngineCore::new();
        e.feed(tr(0.0, 1), 2.0, CancelRule::MinSeparation(1.0)); // out at 2
                                                                 // out at 2.5: separation 0.5 < 1 → cancel pair
        assert!(matches!(
            e.feed(tr(0.5, 0), 2.0, CancelRule::MinSeparation(1.0)),
            FeedEffect::CancelledPair { .. }
        ));
        // rebuild: out at 3, then out at 4.5 (separation 1.5) → retained
        e.feed(tr(1.0, 1), 2.0, CancelRule::MinSeparation(1.0));
        assert!(matches!(
            e.feed(tr(2.5, 0), 2.0, CancelRule::MinSeparation(1.0)),
            FeedEffect::Scheduled(_)
        ));
    }

    #[test]
    fn discard_delivered_prevents_cancellation_against_past() {
        let mut e = EngineCore::new();
        e.feed(tr(0.0, 1), 1.0, CancelRule::NonFifo); // out at 1
        e.discard_delivered(1.0); // simulator delivered it
                                  // a later non-FIFO output no longer has a partner
        assert_eq!(
            e.feed(tr(2.0, 0), -1.5, CancelRule::NonFifo),
            FeedEffect::Scheduled(tr(0.5, 0))
        );
    }

    #[test]
    fn count_and_reset() {
        let mut e = EngineCore::new();
        e.feed(tr(0.0, 1), 1.0, CancelRule::NonFifo);
        e.feed(tr(5.0, 0), 1.0, CancelRule::NonFifo);
        assert_eq!(e.count(), 2);
        e.reset();
        assert_eq!(e.count(), 0);
        assert_eq!(e.offset(3.0), f64::INFINITY);
    }

    #[test]
    fn retained_spills_past_the_ring_and_returns_inline() {
        let mut e = EngineCore::new();
        // four increasing outputs: the third and fourth spill
        for (k, d) in [1.0, 2.0, 3.0, 4.0].into_iter().enumerate() {
            let t = k as f64 * 0.1;
            assert!(matches!(
                e.feed(tr(t, (k % 2) as u8), d, CancelRule::NonFifo),
                FeedEffect::Scheduled(_)
            ));
        }
        assert_eq!(e.retained.spill.len(), 4);
        assert_eq!(e.retained.len, 0);
        // a cascade cancels from the top; at two pending the history is
        // inline again, with the oldest outputs in order
        let mut t = 0.4;
        for (expect, v) in [(4.3, 0), (3.2, 1)] {
            let effect = e.feed(tr(t, v), 0.0, CancelRule::NonFifo);
            assert!(matches!(
                effect,
                FeedEffect::CancelledPair { cancelled } if cancelled.time == expect
            ));
            t += 0.1;
        }
        assert!(e.retained.spill.is_empty());
        assert_eq!(e.retained.len, 2);
        assert_eq!(e.retained.front(), Some(tr(1.0, 0)));
        assert_eq!(e.retained.back(), Some(tr(2.1, 1)));
        e.discard_delivered(1.0);
        assert_eq!(e.retained.front(), Some(tr(2.1, 1)));
        e.reset();
        assert_eq!(e.retained.back(), None);
    }

    /// Reference model for the engine's history: the same feed and
    /// discard rules over a plain `Vec` stack.
    struct VecModel {
        rule: CancelRule,
        stack: Vec<Transition>,
    }

    impl VecModel {
        fn feed(&mut self, input: Transition, delay: f64) -> FeedEffect {
            let on = input.time + delay;
            let cancels = match self.stack.last() {
                Some(last) => self.rule.cancels(last.time, on),
                None => on == f64::NEG_INFINITY,
            };
            if cancels {
                self.stack.pop().map_or(FeedEffect::Dropped, |cancelled| {
                    FeedEffect::CancelledPair { cancelled }
                })
            } else {
                let tr = Transition::new(on, input.value);
                self.stack.push(tr);
                FeedEffect::Scheduled(tr)
            }
        }

        fn discard_delivered(&mut self, before: f64) {
            let n = self.stack.iter().take_while(|tr| tr.time <= before).count();
            self.stack.drain(..n);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        /// Each op is `(kind, gap, delay, lag)`: kind 0 discards outputs
        /// up to `lag` before the latest input, kind 1 feeds with the
        /// domain-guard delay `−∞`, every other kind feeds with `delay`.
        /// Delays up to 6 against gaps under 1 stack several outputs
        /// before a short delay cancels them one by one, so cascades
        /// deeper than the inline ring are common.
        #[test]
        fn history_matches_a_vec_stack(
            ops in proptest::collection::vec(
                (0u8..8, 0.05f64..1.0, 0.0f64..6.0, 0.0f64..3.0),
                1..160,
            ),
            inertial in 0u8..2,
        ) {
            let rule = if inertial == 1 {
                CancelRule::MinSeparation(0.5)
            } else {
                CancelRule::NonFifo
            };
            let mut engine = EngineCore::new();
            let mut model = VecModel { rule, stack: Vec::new() };
            let mut t = 0.0;
            let mut value = 0u8;
            for (i, &(kind, gap, delay, lag)) in ops.iter().enumerate() {
                if kind == 0 {
                    engine.discard_delivered(t - lag);
                    model.discard_delivered(t - lag);
                } else {
                    t += gap;
                    value ^= 1;
                    let delay = if kind == 1 { f64::NEG_INFINITY } else { delay };
                    let got = engine.feed(tr(t, value), delay, rule);
                    prop_assert_eq!(got, model.feed(tr(t, value), delay), "op {}", i);
                }
                prop_assert_eq!(engine.retained.front(), model.stack.first().copied());
                prop_assert_eq!(engine.retained.back(), model.stack.last().copied());
                prop_assert_eq!(
                    engine.retained.spill.is_empty(),
                    model.stack.len() <= INLINE,
                    "op {}: spilled iff more than {} pending", i, INLINE
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    #[cfg(debug_assertions)]
    fn non_monotone_feed_panics_in_debug() {
        let mut e = EngineCore::new();
        e.feed(tr(1.0, 1), 1.0, CancelRule::NonFifo);
        e.feed(tr(0.5, 0), 1.0, CancelRule::NonFifo);
    }
}
