//! The exp-channel: closed-form involution delays from first-order RC
//! switching.

use crate::delay::DelayPair;
use crate::error::Error;

/// The exp-channel delay-function family of the paper (Section II).
///
/// Exp-channels arise when gates drive RC loads and digital transitions
/// are generated at a threshold voltage `V_th` (normalized to
/// `V_DD = 1`). With RC constant `τ` and pure-delay component `T_p`:
///
/// ```text
/// δ↑(T) = τ ln(1 − e^{−(T + T_p − τ ln V_th)/τ})       + T_p − τ ln(1 − V_th)
/// δ↓(T) = τ ln(1 − e^{−(T + T_p − τ ln(1 − V_th))/τ})  + T_p − τ ln V_th
/// ```
///
/// Key properties (Lemma 1): `δ_min = T_p` exactly,
/// `δ↑∞ = T_p − τ ln(1 − V_th)` and `δ↓∞ = T_p − τ ln V_th`.
///
/// # Examples
///
/// ```
/// use ivl_core::delay::{DelayPair, ExpChannel};
/// # fn main() -> Result<(), ivl_core::Error> {
/// let d = ExpChannel::new(1.0, 0.5, 0.5)?;
/// assert!((d.delta_min() - 0.5).abs() < 1e-12); // δ_min = T_p
/// // a symmetric threshold makes δ↑ = δ↓
/// assert_eq!(d.delta_up(1.0), d.delta_down(1.0));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ExpChannel {
    tau: f64,
    t_p: f64,
    v_th: f64,
    // cached constants
    up_inf: f64,
    down_inf: f64,
}

impl ExpChannel {
    /// Creates an exp-channel with RC constant `tau`, pure delay `t_p`,
    /// and normalized threshold `v_th ∈ (0, 1)`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidDelayParameter`] unless `tau > 0`,
    /// `t_p > 0` (strict causality) and `0 < v_th < 1`.
    pub fn new(tau: f64, t_p: f64, v_th: f64) -> Result<Self, Error> {
        if !(tau.is_finite() && tau > 0.0) {
            return Err(Error::InvalidDelayParameter {
                name: "tau",
                value: tau,
                constraint: "must be finite and > 0",
            });
        }
        if !(t_p.is_finite() && t_p > 0.0) {
            return Err(Error::InvalidDelayParameter {
                name: "t_p",
                value: t_p,
                constraint: "must be finite and > 0 (strict causality)",
            });
        }
        if !(v_th.is_finite() && v_th > 0.0 && v_th < 1.0) {
            return Err(Error::InvalidDelayParameter {
                name: "v_th",
                value: v_th,
                constraint: "must be in (0, 1)",
            });
        }
        Ok(ExpChannel {
            tau,
            t_p,
            v_th,
            up_inf: t_p - tau * (1.0 - v_th).ln(),
            down_inf: t_p - tau * v_th.ln(),
        })
    }

    /// A symmetric exp-channel (`V_th = ½`), for which `δ↑ = δ↓`.
    ///
    /// # Errors
    ///
    /// Same as [`ExpChannel::new`].
    pub fn symmetric(tau: f64, t_p: f64) -> Result<Self, Error> {
        ExpChannel::new(tau, t_p, 0.5)
    }

    /// The RC constant `τ`.
    #[must_use]
    pub fn tau(&self) -> f64 {
        self.tau
    }

    /// The pure-delay component `T_p` (equal to `δ_min`).
    #[must_use]
    pub fn t_p(&self) -> f64 {
        self.t_p
    }

    /// The normalized threshold `V_th`.
    #[must_use]
    pub fn v_th(&self) -> f64 {
        self.v_th
    }

    /// Shared evaluation: `τ ln(1 − e^{−(T + c_in)/τ}) + c_out`, with the
    /// extended-argument conventions of [`DelayPair`].
    #[inline]
    fn eval(&self, t: f64, c_in: f64, c_out: f64) -> f64 {
        if t == f64::INFINITY {
            return c_out;
        }
        let x = (t + c_in) / self.tau;
        if x <= 0.0 {
            return f64::NEG_INFINITY;
        }
        // ln(1 − e^{−x}) computed stably ("log1mexp"): for small x the
        // cancellation hides in 1 − e^{−x} (use expm1), for large x in
        // the logarithm (use ln_1p).
        let log1mexp = if x < std::f64::consts::LN_2 {
            (-(-x).exp_m1()).ln()
        } else {
            (-(-x).exp()).ln_1p()
        };
        self.tau * log1mexp + c_out
    }

    /// Shared derivative: `u / (1 − u)` with `u = e^{−(T + c_in)/τ}`.
    fn eval_derivative(&self, t: f64, c_in: f64) -> f64 {
        if t == f64::INFINITY {
            return 0.0;
        }
        let u = (-(t + c_in) / self.tau).exp();
        if u >= 1.0 {
            f64::INFINITY
        } else {
            u / (1.0 - u)
        }
    }
}

impl DelayPair for ExpChannel {
    #[inline]
    fn delta_up(&self, t: f64) -> f64 {
        // c_in = T_p − τ ln V_th = δ↓∞ ; c_out = T_p − τ ln(1 − V_th) = δ↑∞
        self.eval(t, self.down_inf, self.up_inf)
    }

    #[inline]
    fn delta_down(&self, t: f64) -> f64 {
        self.eval(t, self.up_inf, self.down_inf)
    }

    fn delta_up_inf(&self) -> f64 {
        self.up_inf
    }

    fn delta_down_inf(&self) -> f64 {
        self.down_inf
    }

    fn delta_min(&self) -> f64 {
        self.t_p
    }

    fn d_delta_up(&self, t: f64) -> f64 {
        self.eval_derivative(t, self.down_inf)
    }

    fn d_delta_down(&self, t: f64) -> f64 {
        self.eval_derivative(t, self.up_inf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delay::check_involution;

    fn channels() -> Vec<ExpChannel> {
        vec![
            ExpChannel::new(1.0, 0.5, 0.5).unwrap(),
            ExpChannel::new(0.3, 0.1, 0.3).unwrap(),
            ExpChannel::new(2.5, 1.0, 0.7).unwrap(),
            ExpChannel::new(10.0, 0.01, 0.55).unwrap(),
        ]
    }

    #[test]
    fn constructor_validates() {
        assert!(ExpChannel::new(0.0, 0.5, 0.5).is_err());
        assert!(ExpChannel::new(-1.0, 0.5, 0.5).is_err());
        assert!(ExpChannel::new(1.0, 0.0, 0.5).is_err());
        assert!(ExpChannel::new(1.0, 0.5, 0.0).is_err());
        assert!(ExpChannel::new(1.0, 0.5, 1.0).is_err());
        assert!(ExpChannel::new(f64::NAN, 0.5, 0.5).is_err());
        assert!(ExpChannel::new(1.0, f64::INFINITY, 0.5).is_err());
    }

    #[test]
    fn accessors() {
        let d = ExpChannel::new(1.5, 0.25, 0.6).unwrap();
        assert_eq!(d.tau(), 1.5);
        assert_eq!(d.t_p(), 0.25);
        assert_eq!(d.v_th(), 0.6);
    }

    #[test]
    fn limits_match_closed_form() {
        let d = ExpChannel::new(2.0, 0.5, 0.3).unwrap();
        assert!((d.delta_up_inf() - (0.5 - 2.0 * (0.7f64).ln())).abs() < 1e-12);
        assert!((d.delta_down_inf() - (0.5 - 2.0 * (0.3f64).ln())).abs() < 1e-12);
        // values approach limits from below
        assert!(d.delta_up(1e6) <= d.delta_up_inf());
        assert!((d.delta_up(1e3) - d.delta_up_inf()).abs() < 1e-9);
    }

    #[test]
    fn involution_property_for_all_parameterizations() {
        // Probe up to ~8τ: beyond that δ saturates to within ≲1e−15 of
        // δ∞ and the offset information is no longer representable in
        // f64, so round-trip errors there are representation artifacts,
        // not model errors (the delays themselves are exact to ~1e−15).
        for d in channels() {
            let hi = 8.0 * d.tau();
            let report = check_involution(&d, -0.9 * d.delta_min(), hi, 200);
            assert!(report.is_valid(1e-6), "{d:?}: {report:?}");
        }
    }

    #[test]
    fn delta_min_is_tp_for_all_parameterizations() {
        for d in channels() {
            assert!((d.delta_up(-d.t_p()) - d.t_p()).abs() < 1e-12, "{d:?}");
            assert!((d.delta_down(-d.t_p()) - d.t_p()).abs() < 1e-12, "{d:?}");
            assert_eq!(d.delta_min(), d.t_p());
        }
    }

    #[test]
    fn symmetric_channel_has_equal_functions() {
        let d = ExpChannel::symmetric(1.0, 0.4).unwrap();
        for &t in &[-0.3, 0.0, 1.0, 5.0] {
            assert_eq!(d.delta_up(t), d.delta_down(t));
        }
        assert_eq!(d.delta_up_inf(), d.delta_down_inf());
    }

    #[test]
    fn extended_arguments() {
        let d = ExpChannel::new(1.0, 0.5, 0.5).unwrap();
        assert_eq!(d.delta_up(f64::INFINITY), d.delta_up_inf());
        assert_eq!(d.delta_down(f64::INFINITY), d.delta_down_inf());
        assert_eq!(d.delta_up(-d.delta_down_inf()), f64::NEG_INFINITY);
        assert_eq!(d.delta_up(-d.delta_down_inf() - 5.0), f64::NEG_INFINITY);
        assert_eq!(d.delta_down(-d.delta_up_inf() - 1.0), f64::NEG_INFINITY);
    }

    #[test]
    fn strictly_increasing_and_concave() {
        let d = ExpChannel::new(1.0, 0.5, 0.4).unwrap();
        let mut prev = f64::NEG_INFINITY;
        let mut prev_d = f64::INFINITY;
        for i in 0..100 {
            let t = -0.45 + i as f64 * 0.1;
            let v = d.delta_up(t);
            assert!(v > prev, "not increasing at {t}");
            prev = v;
            let dv = d.d_delta_up(t);
            assert!(dv <= prev_d + 1e-12, "derivative not decreasing at {t}");
            assert!(dv > 0.0);
            prev_d = dv;
        }
    }

    #[test]
    fn closed_form_derivative_matches_finite_difference() {
        let d = ExpChannel::new(1.7, 0.6, 0.45).unwrap();
        for &t in &[-0.4, 0.0, 0.8, 3.0] {
            let h = 1e-6;
            let fd = (d.delta_up(t + h) - d.delta_up(t - h)) / (2.0 * h);
            assert!((d.d_delta_up(t) - fd).abs() < 1e-5 * fd.abs().max(1.0));
            let fd = (d.delta_down(t + h) - d.delta_down(t - h)) / (2.0 * h);
            assert!((d.d_delta_down(t) - fd).abs() < 1e-5 * fd.abs().max(1.0));
        }
    }

    #[test]
    fn strict_causality() {
        for d in channels() {
            assert!(d.delta_up(0.0) > 0.0);
            assert!(d.delta_down(0.0) > 0.0);
            // and in fact δ(0) > T_p
            assert!(d.delta_up(0.0) > d.t_p());
        }
    }
}
