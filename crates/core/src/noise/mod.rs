//! Noise sources: per-transition η choices for η-involution channels.
//!
//! Section III of the paper perturbs each output transition by an
//! adversarially chosen `η_n ∈ η = [−η⁻, η⁺]`. A [`NoiseSource`]
//! produces these choices; implementations range from benign
//! ([`ZeroNoise`], random jitter) to the worst-case adversaries used in
//! the faithfulness proof (Lemma 5).

mod flicker;
mod jitter;

pub use flicker::FlickerNoise;
pub use jitter::{BurstNoise, SineJitter};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::bit::Edge;
use crate::error::Error;

/// The non-determinism interval `η = [−η⁻, η⁺]` with `η⁻, η⁺ ≥ 0`.
///
/// Faithfulness requires constraint (C) of the paper,
/// `η⁺ + η⁻ < δ↓(−η⁺) − δ_min`, which can be checked with
/// [`EtaBounds::satisfies_constraint_c`].
///
/// ```
/// use ivl_core::noise::EtaBounds;
/// use ivl_core::delay::ExpChannel;
/// # fn main() -> Result<(), ivl_core::Error> {
/// let bounds = EtaBounds::new(0.01, 0.02)?;
/// let delay = ExpChannel::new(1.0, 0.5, 0.5)?;
/// assert!(bounds.satisfies_constraint_c(&delay));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EtaBounds {
    minus: f64,
    plus: f64,
}

impl EtaBounds {
    /// Creates bounds `[−minus, plus]`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidEtaBounds`] if either bound is negative or
    /// non-finite.
    pub fn new(minus: f64, plus: f64) -> Result<Self, Error> {
        if !(minus.is_finite() && plus.is_finite() && minus >= 0.0 && plus >= 0.0) {
            return Err(Error::InvalidEtaBounds { minus, plus });
        }
        Ok(EtaBounds { minus, plus })
    }

    /// The zero interval (no noise; the channel degenerates to a plain
    /// involution channel).
    #[must_use]
    pub fn zero() -> Self {
        EtaBounds {
            minus: 0.0,
            plus: 0.0,
        }
    }

    /// Symmetric bounds `[−e, e]`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidEtaBounds`] if `e < 0` or non-finite.
    pub fn symmetric(e: f64) -> Result<Self, Error> {
        EtaBounds::new(e, e)
    }

    /// `η⁻` (magnitude of the largest allowed early shift).
    #[must_use]
    pub fn minus(&self) -> f64 {
        self.minus
    }

    /// `η⁺` (largest allowed late shift).
    #[must_use]
    pub fn plus(&self) -> f64 {
        self.plus
    }

    /// Total interval width `η⁻ + η⁺`.
    #[must_use]
    pub fn width(&self) -> f64 {
        self.minus + self.plus
    }

    /// `true` if `eta` lies in `[−η⁻, η⁺]`.
    #[must_use]
    #[inline]
    pub fn contains(&self, eta: f64) -> bool {
        -self.minus <= eta && eta <= self.plus
    }

    /// Clamps `eta` into `[−η⁻, η⁺]`.
    #[must_use]
    #[inline]
    pub fn clamp(&self, eta: f64) -> f64 {
        eta.clamp(-self.minus, self.plus)
    }

    /// Checks constraint (C): `η⁺ + η⁻ < δ↓(−η⁺) − δ_min`.
    ///
    /// Under (C), the faithfulness results (Lemmas 5–8, Theorems 9/12)
    /// apply.
    #[must_use]
    pub fn satisfies_constraint_c<D: crate::delay::DelayPair + ?Sized>(&self, delay: &D) -> bool {
        let dmin = delay.delta_min();
        self.plus + self.minus < delay.delta_down(-self.plus) - dmin
    }

    /// The largest `η⁻` satisfying constraint (C) for a given `η⁺`
    /// (used in Section V: `η⁻ = δ↓(−η⁺) − δ_min − η⁺`), or `None` if
    /// even `η⁻ = 0` violates (C).
    #[must_use]
    pub fn max_minus_for_plus<D: crate::delay::DelayPair + ?Sized>(
        plus: f64,
        delay: &D,
    ) -> Option<f64> {
        let slack = delay.delta_down(-plus) - delay.delta_min() - plus;
        (slack > 0.0).then_some(slack)
    }
}

impl Default for EtaBounds {
    /// The zero interval.
    fn default() -> Self {
        EtaBounds::zero()
    }
}

/// Context handed to a [`NoiseSource`] for each transition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseContext {
    /// Index of the input transition (0-based).
    pub index: usize,
    /// Edge direction of the transition.
    pub edge: Edge,
    /// Input transition time `t_n`.
    pub input_time: f64,
    /// Previous-output-to-input offset `T = t_n − t_{n−1} − δ_{n−1}`
    /// (`+∞` for the first transition).
    pub offset: f64,
    /// The admissible interval.
    pub bounds: EtaBounds,
}

/// A per-transition source of η choices.
///
/// Implementations should return values in `ctx.bounds`; the channel
/// clamps defensively (and `debug_assert!`s) otherwise.
pub trait NoiseSource {
    /// Produces `η_n` for the transition described by `ctx`.
    fn sample(&mut self, ctx: &NoiseContext) -> f64;

    /// Resets any internal state (RNG streams are *not* reseeded).
    fn reset(&mut self) {}

    /// Replaces the seed of any internal RNG stream with `seed` and
    /// restarts the stream. Deterministic sources ignore this (the
    /// default). Used by scenario sweeps to decorrelate runs.
    fn reseed(&mut self, seed: u64) {
        let _ = seed;
    }
}

impl<N: NoiseSource + ?Sized> NoiseSource for Box<N> {
    fn sample(&mut self, ctx: &NoiseContext) -> f64 {
        (**self).sample(ctx)
    }
    fn reset(&mut self) {
        (**self).reset();
    }
    fn reseed(&mut self, seed: u64) {
        (**self).reseed(seed);
    }
}

impl<N: NoiseSource + ?Sized> NoiseSource for &mut N {
    fn sample(&mut self, ctx: &NoiseContext) -> f64 {
        (**self).sample(ctx)
    }
    fn reset(&mut self) {
        (**self).reset();
    }
    fn reseed(&mut self, seed: u64) {
        (**self).reseed(seed);
    }
}

/// Always returns 0: the η-involution channel degenerates to the
/// deterministic involution channel of DATE'15.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ZeroNoise;

impl NoiseSource for ZeroNoise {
    fn sample(&mut self, _ctx: &NoiseContext) -> f64 {
        0.0
    }
}

/// Returns a fixed shift for every transition (clamped to bounds by the
/// channel). Models a deterministic mis-calibration of the delay function.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConstantShift(pub f64);

impl NoiseSource for ConstantShift {
    fn sample(&mut self, _ctx: &NoiseContext) -> f64 {
        self.0
    }
}

/// Uniform random jitter over the full admissible interval `[−η⁻, η⁺]`.
#[derive(Debug, Clone)]
pub struct UniformNoise {
    rng: StdRng,
    seed: u64,
}

impl UniformNoise {
    /// Creates a seeded uniform noise source (deterministic runs).
    #[must_use]
    pub fn new(seed: u64) -> Self {
        UniformNoise {
            rng: StdRng::seed_from_u64(seed),
            seed,
        }
    }
}

impl NoiseSource for UniformNoise {
    #[inline]
    fn sample(&mut self, ctx: &NoiseContext) -> f64 {
        let (lo, hi) = (-ctx.bounds.minus(), ctx.bounds.plus());
        if hi <= lo {
            return 0.0;
        }
        self.rng.gen_range(lo..=hi)
    }

    fn reset(&mut self) {
        self.rng = StdRng::seed_from_u64(self.seed);
    }

    fn reseed(&mut self, seed: u64) {
        self.seed = seed;
        self.reset();
    }
}

/// Zero-mean Gaussian jitter with standard deviation `sigma`, truncated
/// to the admissible interval. Models white phase noise (cf. Calosso &
/// Rubiola, the paper's ref. \[4\]).
#[derive(Debug, Clone)]
pub struct TruncatedGaussian {
    sigma: f64,
    rng: StdRng,
    seed: u64,
}

impl TruncatedGaussian {
    /// Creates a seeded truncated-Gaussian source with the given standard
    /// deviation.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidDelayParameter`] if `sigma` is negative or
    /// non-finite.
    pub fn new(sigma: f64, seed: u64) -> Result<Self, Error> {
        if !(sigma.is_finite() && sigma >= 0.0) {
            return Err(Error::InvalidDelayParameter {
                name: "sigma",
                value: sigma,
                constraint: "must be finite and >= 0",
            });
        }
        Ok(TruncatedGaussian {
            sigma,
            rng: StdRng::seed_from_u64(seed),
            seed,
        })
    }

    /// Box–Muller standard normal.
    fn standard_normal(&mut self) -> f64 {
        let u1: f64 = self.rng.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = self.rng.gen_range(0.0..1.0);
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }
}

impl NoiseSource for TruncatedGaussian {
    fn sample(&mut self, ctx: &NoiseContext) -> f64 {
        ctx.bounds.clamp(self.sigma * self.standard_normal())
    }

    fn reset(&mut self) {
        self.rng = StdRng::seed_from_u64(self.seed);
    }

    fn reseed(&mut self, seed: u64) {
        self.seed = seed;
        self.reset();
    }
}

/// The worst-case adversary of Lemma 5: takes every **rising** transition
/// maximally *late* (`+η⁺`) and every **falling** transition maximally
/// *early* (`−η⁻`), minimizing the up-times of the generated pulse train.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorstCaseAdversary;

impl NoiseSource for WorstCaseAdversary {
    fn sample(&mut self, ctx: &NoiseContext) -> f64 {
        match ctx.edge {
            Edge::Rising => ctx.bounds.plus(),
            Edge::Falling => -ctx.bounds.minus(),
        }
    }
}

/// The pulse-extending adversary (dual of [`WorstCaseAdversary`]): rising
/// transitions maximally early, falling maximally late. This is the
/// adversary that "de-cancels" pulses in Fig. 4 of the paper.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExtendingAdversary;

impl NoiseSource for ExtendingAdversary {
    fn sample(&mut self, ctx: &NoiseContext) -> f64 {
        match ctx.edge {
            Edge::Rising => -ctx.bounds.minus(),
            Edge::Falling => ctx.bounds.plus(),
        }
    }
}

/// Replays a recorded sequence of η choices; after the sequence is
/// exhausted it returns 0. Useful for regression tests and for matching
/// measured traces (Section V).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecordedChoices {
    choices: Vec<f64>,
    cursor: usize,
}

impl RecordedChoices {
    /// Creates a source replaying `choices` in order.
    #[must_use]
    pub fn new(choices: Vec<f64>) -> Self {
        RecordedChoices { choices, cursor: 0 }
    }

    /// The remaining (unconsumed) choices.
    #[must_use]
    pub fn remaining(&self) -> &[f64] {
        &self.choices[self.cursor.min(self.choices.len())..]
    }
}

impl NoiseSource for RecordedChoices {
    fn sample(&mut self, _ctx: &NoiseContext) -> f64 {
        let eta = self.choices.get(self.cursor).copied().unwrap_or(0.0);
        self.cursor += 1;
        eta
    }

    fn reset(&mut self) {
        self.cursor = 0;
    }
}

/// Adapts a closure `(index, edge) → η` as a noise source.
pub struct FnNoise<F>(pub F);

impl<F: FnMut(&NoiseContext) -> f64> NoiseSource for FnNoise<F> {
    fn sample(&mut self, ctx: &NoiseContext) -> f64 {
        (self.0)(ctx)
    }
}

impl<F> std::fmt::Debug for FnNoise<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("FnNoise").finish()
    }
}

/// The noise sources a channel spec can name — the adversary of the
/// built-in η-involution channel in
/// [`AnyChannel`](crate::channel::AnyChannel), dispatched by `match`
/// rather than through a trait object. Each variant forwards to the
/// source it wraps, so it draws exactly the same η sequence.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum EtaNoise {
    /// [`ZeroNoise`] (`noise = "zero"`).
    Zero(ZeroNoise),
    /// [`WorstCaseAdversary`] (`noise = "worst_case"`).
    WorstCase(WorstCaseAdversary),
    /// [`ExtendingAdversary`] (`noise = "extending"`).
    Extending(ExtendingAdversary),
    /// [`UniformNoise`] (`noise = "uniform"`).
    Uniform(UniformNoise),
    /// [`TruncatedGaussian`] (`noise = "gaussian"`).
    Gaussian(TruncatedGaussian),
    /// [`ConstantShift`] (`noise = "constant"`).
    Constant(ConstantShift),
}

macro_rules! eta_noise_from {
    ($($variant:ident($source:ty)),* $(,)?) => {
        $(impl From<$source> for EtaNoise {
            fn from(n: $source) -> Self {
                EtaNoise::$variant(n)
            }
        })*

        impl NoiseSource for EtaNoise {
            #[inline]
            fn sample(&mut self, ctx: &NoiseContext) -> f64 {
                match self {
                    $(EtaNoise::$variant(n) => n.sample(ctx),)*
                }
            }

            fn reset(&mut self) {
                match self {
                    $(EtaNoise::$variant(n) => n.reset(),)*
                }
            }

            fn reseed(&mut self, seed: u64) {
                match self {
                    $(EtaNoise::$variant(n) => n.reseed(seed),)*
                }
            }
        }
    };
}

eta_noise_from!(
    Zero(ZeroNoise),
    WorstCase(WorstCaseAdversary),
    Extending(ExtendingAdversary),
    Uniform(UniformNoise),
    Gaussian(TruncatedGaussian),
    Constant(ConstantShift),
);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delay::ExpChannel;

    fn ctx(edge: Edge, bounds: EtaBounds) -> NoiseContext {
        NoiseContext {
            index: 0,
            edge,
            input_time: 1.0,
            offset: 0.5,
            bounds,
        }
    }

    #[test]
    fn bounds_construction_and_validation() {
        let b = EtaBounds::new(0.1, 0.2).unwrap();
        assert_eq!(b.minus(), 0.1);
        assert_eq!(b.plus(), 0.2);
        assert_eq!(b.width(), 0.1 + 0.2);
        assert!(EtaBounds::new(-0.1, 0.2).is_err());
        assert!(EtaBounds::new(0.1, f64::NAN).is_err());
        assert_eq!(EtaBounds::default(), EtaBounds::zero());
        let s = EtaBounds::symmetric(0.3).unwrap();
        assert_eq!(s.minus(), s.plus());
    }

    #[test]
    fn bounds_contains_and_clamp() {
        let b = EtaBounds::new(0.1, 0.2).unwrap();
        assert!(b.contains(0.0));
        assert!(b.contains(-0.1));
        assert!(b.contains(0.2));
        assert!(!b.contains(-0.11));
        assert!(!b.contains(0.21));
        assert_eq!(b.clamp(5.0), 0.2);
        assert_eq!(b.clamp(-5.0), -0.1);
        assert_eq!(b.clamp(0.05), 0.05);
    }

    #[test]
    fn constraint_c_holds_for_small_eta() {
        let d = ExpChannel::new(1.0, 0.5, 0.5).unwrap();
        assert!(EtaBounds::zero().satisfies_constraint_c(&d));
        assert!(EtaBounds::new(0.05, 0.05)
            .unwrap()
            .satisfies_constraint_c(&d));
        // very large eta must violate (C)
        assert!(!EtaBounds::new(2.0, 2.0).unwrap().satisfies_constraint_c(&d));
    }

    #[test]
    fn max_minus_for_plus_is_tight() {
        let d = ExpChannel::new(1.0, 0.5, 0.5).unwrap();
        let plus = 0.05;
        let minus = EtaBounds::max_minus_for_plus(plus, &d).unwrap();
        // at the boundary, (C) is an equality → strictly inside holds
        let just_inside = EtaBounds::new(minus * 0.999, plus).unwrap();
        assert!(just_inside.satisfies_constraint_c(&d));
        let outside = EtaBounds::new(minus * 1.001, plus).unwrap();
        assert!(!outside.satisfies_constraint_c(&d));
        // too large η⁺ leaves no room at all
        assert!(EtaBounds::max_minus_for_plus(10.0, &d).is_none());
    }

    #[test]
    fn zero_noise_and_constant_shift() {
        let b = EtaBounds::new(0.1, 0.1).unwrap();
        assert_eq!(ZeroNoise.sample(&ctx(Edge::Rising, b)), 0.0);
        assert_eq!(ConstantShift(0.07).sample(&ctx(Edge::Falling, b)), 0.07);
    }

    #[test]
    fn uniform_noise_stays_in_bounds_and_is_reproducible() {
        let b = EtaBounds::new(0.1, 0.2).unwrap();
        let mut n1 = UniformNoise::new(42);
        let mut n2 = UniformNoise::new(42);
        for i in 0..200 {
            let c = NoiseContext {
                index: i,
                ..ctx(Edge::Rising, b)
            };
            let a = n1.sample(&c);
            assert!(b.contains(a), "{a}");
            assert_eq!(a, n2.sample(&c));
        }
        // reset restores the stream
        let c = ctx(Edge::Rising, b);
        let mut n3 = UniformNoise::new(7);
        let first = n3.sample(&c);
        n3.sample(&c);
        n3.reset();
        assert_eq!(n3.sample(&c), first);
    }

    #[test]
    fn uniform_noise_with_zero_bounds() {
        let mut n = UniformNoise::new(1);
        assert_eq!(n.sample(&ctx(Edge::Rising, EtaBounds::zero())), 0.0);
    }

    #[test]
    fn gaussian_stays_in_bounds() {
        let b = EtaBounds::new(0.01, 0.01).unwrap();
        let mut n = TruncatedGaussian::new(0.05, 3).unwrap();
        let mut hit_edge = 0;
        for _ in 0..500 {
            let v = n.sample(&ctx(Edge::Falling, b));
            assert!(b.contains(v));
            if v == 0.01 || v == -0.01 {
                hit_edge += 1;
            }
        }
        // σ ≫ bound → truncation must actually occur
        assert!(hit_edge > 100);
        assert!(TruncatedGaussian::new(-1.0, 0).is_err());
    }

    #[test]
    fn adversaries_pick_extremes() {
        let b = EtaBounds::new(0.1, 0.2).unwrap();
        let mut w = WorstCaseAdversary;
        assert_eq!(w.sample(&ctx(Edge::Rising, b)), 0.2);
        assert_eq!(w.sample(&ctx(Edge::Falling, b)), -0.1);
        let mut e = ExtendingAdversary;
        assert_eq!(e.sample(&ctx(Edge::Rising, b)), -0.1);
        assert_eq!(e.sample(&ctx(Edge::Falling, b)), 0.2);
    }

    #[test]
    fn recorded_choices_replay_and_reset() {
        let b = EtaBounds::new(1.0, 1.0).unwrap();
        let mut r = RecordedChoices::new(vec![0.1, -0.2]);
        let c = ctx(Edge::Rising, b);
        assert_eq!(r.sample(&c), 0.1);
        assert_eq!(r.remaining(), &[-0.2]);
        assert_eq!(r.sample(&c), -0.2);
        assert_eq!(r.sample(&c), 0.0); // exhausted
        r.reset();
        assert_eq!(r.sample(&c), 0.1);
    }

    #[test]
    fn fn_noise_adapts_closures() {
        let b = EtaBounds::new(1.0, 1.0).unwrap();
        let mut n = FnNoise(|c: &NoiseContext| if c.edge.is_rising() { 0.5 } else { -0.5 });
        assert_eq!(n.sample(&ctx(Edge::Rising, b)), 0.5);
        assert_eq!(n.sample(&ctx(Edge::Falling, b)), -0.5);
        assert!(!format!("{n:?}").is_empty());
    }

    #[test]
    fn boxed_source_delegates() {
        let b = EtaBounds::new(0.1, 0.2).unwrap();
        let mut boxed: Box<dyn NoiseSource> = Box::new(WorstCaseAdversary);
        assert_eq!(boxed.sample(&ctx(Edge::Rising, b)), 0.2);
        boxed.reset();
    }
}
