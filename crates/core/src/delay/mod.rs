//! Involution delay functions.
//!
//! An involution channel is characterized by two strictly increasing
//! concave delay functions
//! `δ↑ : (−δ↓∞, ∞) → (−∞, δ↑∞)` and `δ↓ : (−δ↑∞, ∞) → (−∞, δ↓∞)`
//! with finite limits `δ↑∞`, `δ↓∞` satisfying the involution property
//!
//! ```text
//! −δ↑(−δ↓(T)) = T   and   −δ↓(−δ↑(T)) = T .
//! ```
//!
//! The trait [`DelayPair`] captures such a pair. Implementations:
//!
//! * [`ExpChannel`] — the closed-form family arising from gates driving
//!   RC loads with a switching threshold (`δ_min = T_p` exactly);
//! * [`RationalPair`] — a fully closed-form algebraic involution family,
//!   convenient for exact tests;
//! * [`DerivedPair`] — derives `δ↓` from an arbitrary user-supplied `δ↑`
//!   via `δ↓(T) = −δ↑⁻¹(−T)`, so the involution property holds by
//!   construction;
//! * [`PiecewiseLinearPair`] — built from measured `(T, δ↑)` samples,
//!   with the reflected polyline as `δ↓` (involution-exact);
//! * [`EmpiricalPair`] — two independently measured polylines, as lab
//!   data comes (involution property approximate, quantifiable).
//!
//! [`DelayFamily`] names the closed-form families a channel spec can
//! select (`exp` or `rational`) and is itself a `DelayPair`.
//!
//! Free functions [`delta_min_of`], [`check_involution`] and the
//! [`fit`] submodule (least-squares exp-channel fitting) operate on any
//! `DelayPair`.

mod derived;
mod empirical;
mod exp;
mod family;
pub mod fit;
mod piecewise;
mod polyline;
mod rational;

pub use derived::DerivedPair;
pub use empirical::EmpiricalPair;
pub use exp::ExpChannel;
pub use family::DelayFamily;
pub use piecewise::PiecewiseLinearPair;
pub use rational::RationalPair;

use crate::bit::Edge;
use crate::error::Error;

/// A pair of involution delay functions `(δ↑, δ↓)`.
///
/// # Conventions for extended arguments
///
/// Implementations must be total on `f64`:
///
/// * `delta_up(T)` returns `δ↑∞` for `T = +∞` and `−∞` for any
///   `T ≤ −δ↓∞` (outside the mathematical domain — this implements the
///   `max{·, −δ∞}` guard of the paper's Section III, under which such
///   transitions cancel);
/// * symmetrically for `delta_down`.
///
/// # Examples
///
/// ```
/// use ivl_core::delay::{DelayPair, ExpChannel};
/// # fn main() -> Result<(), ivl_core::Error> {
/// let d = ExpChannel::new(1.0, 0.5, 0.5)?;
/// let t = 0.3;
/// let roundtrip = -d.delta_up(-d.delta_down(t));
/// assert!((roundtrip - t).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub trait DelayPair {
    /// The rising delay `δ↑(T)`.
    fn delta_up(&self, t: f64) -> f64;

    /// The falling delay `δ↓(T)`.
    fn delta_down(&self, t: f64) -> f64;

    /// `δ↑∞ = lim_{T→∞} δ↑(T)`.
    fn delta_up_inf(&self) -> f64;

    /// `δ↓∞ = lim_{T→∞} δ↓(T)`.
    fn delta_down_inf(&self) -> f64;

    /// Dispatches on the edge: `δ↑` for rising, `δ↓` for falling.
    fn delta(&self, edge: Edge, t: f64) -> f64 {
        match edge {
            Edge::Rising => self.delta_up(t),
            Edge::Falling => self.delta_down(t),
        }
    }

    /// Limit for the given edge.
    fn delta_inf(&self, edge: Edge) -> f64 {
        match edge {
            Edge::Rising => self.delta_up_inf(),
            Edge::Falling => self.delta_down_inf(),
        }
    }

    /// The unique `δ_min > 0` with `δ↑(−δ_min) = δ_min = δ↓(−δ_min)`
    /// (Lemma 1 of the paper).
    ///
    /// The default implementation bisects; implementations with a closed
    /// form (e.g. [`ExpChannel`], where `δ_min = T_p`) override it.
    fn delta_min(&self) -> f64 {
        delta_min_of(self).expect("valid involution pair has a delta_min")
    }

    /// Derivative `δ↑′(T)`; default is a central finite difference.
    fn d_delta_up(&self, t: f64) -> f64 {
        central_difference(|x| self.delta_up(x), t)
    }

    /// Derivative `δ↓′(T)`; default is a central finite difference.
    fn d_delta_down(&self, t: f64) -> f64 {
        central_difference(|x| self.delta_down(x), t)
    }
}

impl<D: DelayPair + ?Sized> DelayPair for &D {
    fn delta_up(&self, t: f64) -> f64 {
        (**self).delta_up(t)
    }
    fn delta_down(&self, t: f64) -> f64 {
        (**self).delta_down(t)
    }
    fn delta_up_inf(&self) -> f64 {
        (**self).delta_up_inf()
    }
    fn delta_down_inf(&self) -> f64 {
        (**self).delta_down_inf()
    }
    fn delta_min(&self) -> f64 {
        (**self).delta_min()
    }
    fn d_delta_up(&self, t: f64) -> f64 {
        (**self).d_delta_up(t)
    }
    fn d_delta_down(&self, t: f64) -> f64 {
        (**self).d_delta_down(t)
    }
}

impl<D: DelayPair + ?Sized> DelayPair for Box<D> {
    fn delta_up(&self, t: f64) -> f64 {
        (**self).delta_up(t)
    }
    fn delta_down(&self, t: f64) -> f64 {
        (**self).delta_down(t)
    }
    fn delta_up_inf(&self) -> f64 {
        (**self).delta_up_inf()
    }
    fn delta_down_inf(&self) -> f64 {
        (**self).delta_down_inf()
    }
    fn delta_min(&self) -> f64 {
        (**self).delta_min()
    }
    fn d_delta_up(&self, t: f64) -> f64 {
        (**self).d_delta_up(t)
    }
    fn d_delta_down(&self, t: f64) -> f64 {
        (**self).d_delta_down(t)
    }
}

fn central_difference<F: Fn(f64) -> f64>(f: F, t: f64) -> f64 {
    let h = 1e-6 * t.abs().max(1.0);
    (f(t + h) - f(t - h)) / (2.0 * h)
}

/// Solves `δ↑(−x) = x` for the unique positive `δ_min` by bisection
/// (Lemma 1).
///
/// # Errors
///
/// Returns [`Error::SolverFailed`] if the pair is not strictly causal
/// (`δ↑(0) ≤ 0`) or no bracket can be established.
pub fn delta_min_of<D: DelayPair + ?Sized>(pair: &D) -> Result<f64, Error> {
    // g(x) = δ↑(−x) − x is strictly decreasing; g(0) = δ↑(0) > 0 for a
    // strictly causal channel, and g(x) → −∞ as x → δ↓∞.
    let g = |x: f64| pair.delta_up(-x) - x;
    let g0 = g(0.0);
    if !(g0.is_finite() && g0 > 0.0) {
        return Err(Error::SolverFailed {
            what: "delta_min: delta_up(0) must be finite and > 0 (strict causality)",
        });
    }
    // Expand hi until g(hi) < 0. For exact involution pairs g(x) → −∞ as
    // x → δ↓∞ (δ↑(−x) leaves its domain); for extrapolating families
    // (e.g. piecewise-linear) g still goes to −∞ linearly.
    let mut hi = 1.0_f64;
    let mut tries = 0;
    while g(hi) > 0.0 {
        hi *= 2.0;
        tries += 1;
        if tries > 200 {
            return Err(Error::SolverFailed {
                what: "delta_min: could not bracket root",
            });
        }
    }
    let mut lo = 0.0_f64;
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if mid <= lo || mid >= hi {
            break;
        }
        let v = g(mid);
        if v > 0.0 {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Ok(0.5 * (lo + hi))
}

/// Result of [`check_involution`]: the largest violations found.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct InvolutionReport {
    /// Largest `|−δ↑(−δ↓(T)) − T|` over the probed points.
    pub max_roundtrip_error: f64,
    /// Largest monotonicity violation of `δ↑` and `δ↓` over the probes
    /// (0 when strictly increasing).
    pub max_monotonicity_violation: f64,
    /// Largest convexity (anti-concavity) violation of the probed second
    /// differences (0 when concave).
    pub max_concavity_violation: f64,
}

impl InvolutionReport {
    /// `true` when all violations are within `tol`.
    #[must_use]
    pub fn is_valid(&self, tol: f64) -> bool {
        self.max_roundtrip_error <= tol
            && self.max_monotonicity_violation <= tol
            && self.max_concavity_violation <= tol
    }
}

/// Numerically checks the involution property, strict monotonicity and
/// concavity of a [`DelayPair`] over `n` probe points spanning
/// `(t_min, t_max)` of the *image*-side domain.
#[must_use]
pub fn check_involution<D: DelayPair + ?Sized>(
    pair: &D,
    t_min: f64,
    t_max: f64,
    n: usize,
) -> InvolutionReport {
    let mut report = InvolutionReport::default();
    if n < 3 || t_max <= t_min {
        return report;
    }
    let step = (t_max - t_min) / (n - 1) as f64;
    let mut prev_up = f64::NEG_INFINITY;
    let mut prev_down = f64::NEG_INFINITY;
    let mut prev_dup = f64::INFINITY;
    let mut prev_ddown = f64::INFINITY;
    for i in 0..n {
        let t = t_min + i as f64 * step;
        // involution round trips
        let rt1 = -pair.delta_up(-pair.delta_down(t)) - t;
        let rt2 = -pair.delta_down(-pair.delta_up(t)) - t;
        if rt1.is_finite() {
            report.max_roundtrip_error = report.max_roundtrip_error.max(rt1.abs());
        }
        if rt2.is_finite() {
            report.max_roundtrip_error = report.max_roundtrip_error.max(rt2.abs());
        }
        // monotonicity (values must strictly increase along probes)
        let up = pair.delta_up(t);
        let down = pair.delta_down(t);
        if up.is_finite() && prev_up.is_finite() {
            report.max_monotonicity_violation = report.max_monotonicity_violation.max(prev_up - up);
        }
        if down.is_finite() && prev_down.is_finite() {
            report.max_monotonicity_violation =
                report.max_monotonicity_violation.max(prev_down - down);
        }
        prev_up = up;
        prev_down = down;
        // concavity: derivative must be non-increasing
        let dup = pair.d_delta_up(t);
        let ddown = pair.d_delta_down(t);
        if dup.is_finite() && prev_dup.is_finite() {
            report.max_concavity_violation = report.max_concavity_violation.max(dup - prev_dup);
        }
        if ddown.is_finite() && prev_ddown.is_finite() {
            report.max_concavity_violation = report.max_concavity_violation.max(ddown - prev_ddown);
        }
        prev_dup = dup;
        prev_ddown = ddown;
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_min_of_exp_channel_is_tp() {
        let d = ExpChannel::new(1.0, 0.5, 0.5).unwrap();
        let dm = delta_min_of(&d).unwrap();
        assert!((dm - 0.5).abs() < 1e-9, "delta_min = {dm}, expected T_p");
    }

    #[test]
    fn delta_min_fixed_point_property() {
        let d = ExpChannel::new(2.0, 0.7, 0.4).unwrap();
        let dm = delta_min_of(&d).unwrap();
        assert!((d.delta_up(-dm) - dm).abs() < 1e-9);
        assert!((d.delta_down(-dm) - dm).abs() < 1e-9);
        assert!(dm > 0.0);
    }

    #[test]
    fn derivative_identity_of_lemma_1() {
        // δ′↑(−δ↓(T)) = 1/δ′↓(T)
        let d = ExpChannel::new(1.3, 0.4, 0.35).unwrap();
        for &t in &[-0.3, 0.0, 0.5, 2.0] {
            let lhs = d.d_delta_up(-d.delta_down(t));
            let rhs = 1.0 / d.d_delta_down(t);
            assert!(
                (lhs - rhs).abs() < 1e-4 * rhs.abs().max(1.0),
                "t={t}: {lhs} vs {rhs}"
            );
        }
    }

    #[test]
    fn check_involution_accepts_exp_channel() {
        let d = ExpChannel::new(1.0, 0.5, 0.45).unwrap();
        let report = check_involution(&d, -0.4, 5.0, 101);
        assert!(report.is_valid(1e-7), "{report:?}");
    }

    #[test]
    fn check_involution_rejects_broken_pair() {
        /// Deliberately broken pair: δ↓ shifted, so round trips fail.
        #[derive(Debug)]
        struct Broken(ExpChannel);
        impl DelayPair for Broken {
            fn delta_up(&self, t: f64) -> f64 {
                self.0.delta_up(t)
            }
            fn delta_down(&self, t: f64) -> f64 {
                self.0.delta_down(t) + 0.1
            }
            fn delta_up_inf(&self) -> f64 {
                self.0.delta_up_inf()
            }
            fn delta_down_inf(&self) -> f64 {
                self.0.delta_down_inf() + 0.1
            }
        }
        let d = Broken(ExpChannel::new(1.0, 0.5, 0.5).unwrap());
        let report = check_involution(&d, -0.3, 3.0, 51);
        assert!(!report.is_valid(1e-7));
        assert!(report.max_roundtrip_error > 0.01);
    }

    #[test]
    fn delta_dispatch_by_edge() {
        let d = ExpChannel::new(1.0, 0.5, 0.4).unwrap();
        assert_eq!(d.delta(Edge::Rising, 1.0), d.delta_up(1.0));
        assert_eq!(d.delta(Edge::Falling, 1.0), d.delta_down(1.0));
        assert_eq!(d.delta_inf(Edge::Rising), d.delta_up_inf());
        assert_eq!(d.delta_inf(Edge::Falling), d.delta_down_inf());
    }

    #[test]
    fn blanket_impls_delegate() {
        let d = ExpChannel::new(1.0, 0.5, 0.5).unwrap();
        let r = &d;
        let b: Box<dyn DelayPair> = Box::new(d.clone());
        assert_eq!(r.delta_up(0.3), d.delta_up(0.3));
        assert_eq!(b.delta_down(0.3), d.delta_down(0.3));
        assert_eq!(b.delta_min(), d.delta_min());
        assert_eq!(r.delta_up_inf(), d.delta_up_inf());
        assert_eq!(b.delta_down_inf(), d.delta_down_inf());
        assert!((b.d_delta_up(0.1) - d.d_delta_up(0.1)).abs() < 1e-12);
        assert!((r.d_delta_down(0.1) - d.d_delta_down(0.1)).abs() < 1e-12);
    }

    #[test]
    fn delta_min_rejects_non_causal() {
        // A pair with δ↑(0) < 0 is not strictly causal.
        #[derive(Debug)]
        struct Shifted(ExpChannel);
        impl DelayPair for Shifted {
            fn delta_up(&self, t: f64) -> f64 {
                self.0.delta_up(t) - 10.0
            }
            fn delta_down(&self, t: f64) -> f64 {
                self.0.delta_down(t) - 10.0
            }
            fn delta_up_inf(&self) -> f64 {
                self.0.delta_up_inf() - 10.0
            }
            fn delta_down_inf(&self) -> f64 {
                self.0.delta_down_inf() - 10.0
            }
        }
        let d = Shifted(ExpChannel::new(1.0, 0.5, 0.5).unwrap());
        assert!(delta_min_of(&d).is_err());
    }
}
