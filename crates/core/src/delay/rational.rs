//! A fully algebraic involution family, useful for exact tests.

use crate::delay::DelayPair;
use crate::error::Error;

/// The rational involution pair
///
/// ```text
/// δ↑(T) = a − b/(T + c)   on (−c, ∞), with δ↑∞ = a,
/// δ↓(T) = c − b/(T + a)   on (−a, ∞), with δ↓∞ = c.
/// ```
///
/// Both functions are strictly increasing and concave on their domains,
/// and the involution property holds *exactly* (by algebra, not numerics):
/// solving `δ↑(x) = −T` gives `x = b/(a + T) − c`, hence
/// `−δ↑⁻¹(−T) = c − b/(T + a) = δ↓(T)`.
///
/// This family is convenient for tests because every quantity —
/// including `δ_min` — has a closed form:
/// `δ_min = ((a + c) − sqrt((a − c)² + 4b))/2` … the positive root of
/// `x² − (a + c)x + (ac − b) = 0` below `min(a, c)`.
///
/// # Examples
///
/// ```
/// use ivl_core::delay::{DelayPair, RationalPair};
/// # fn main() -> Result<(), ivl_core::Error> {
/// let d = RationalPair::new(2.0, 1.0, 2.0)?;
/// let t = 0.7;
/// assert!((-d.delta_up(-d.delta_down(t)) - t).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RationalPair {
    a: f64,
    b: f64,
    c: f64,
}

impl RationalPair {
    /// Creates the pair with `δ↑(T) = a − b/(T + c)` and
    /// `δ↓(T) = c − b/(T + a)`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidDelayParameter`] unless `a, b, c > 0` and
    /// strict causality holds: `δ↑(0) = a − b/c > 0` and
    /// `δ↓(0) = c − b/a > 0`, i.e. `b < min(ac, ca) = ac`.
    pub fn new(a: f64, b: f64, c: f64) -> Result<Self, Error> {
        for (name, value) in [("a", a), ("b", b), ("c", c)] {
            if !(value.is_finite() && value > 0.0) {
                return Err(Error::InvalidDelayParameter {
                    name: match name {
                        "a" => "a",
                        "b" => "b",
                        _ => "c",
                    },
                    value,
                    constraint: "must be finite and > 0",
                });
            }
        }
        if b >= a * c {
            return Err(Error::InvalidDelayParameter {
                name: "b",
                value: b,
                constraint: "must satisfy b < a*c (strict causality)",
            });
        }
        Ok(RationalPair { a, b, c })
    }

    /// A symmetric pair (`a = c`), for which `δ↑ = δ↓`.
    ///
    /// # Errors
    ///
    /// Same as [`RationalPair::new`].
    pub fn symmetric(a: f64, b: f64) -> Result<Self, Error> {
        RationalPair::new(a, b, a)
    }

    /// Closed-form `δ_min`: the smaller root of
    /// `x² − (a + c)x + (ac − b) = 0`.
    #[must_use]
    pub fn delta_min_closed_form(&self) -> f64 {
        let s = self.a + self.c;
        let disc = (self.a - self.c).powi(2) + 4.0 * self.b;
        0.5 * (s - disc.sqrt())
    }

    #[inline]
    fn eval(t: f64, shift: f64, b: f64, sup: f64) -> f64 {
        if t == f64::INFINITY {
            return sup;
        }
        let denom = t + shift;
        if denom <= 0.0 {
            f64::NEG_INFINITY
        } else {
            sup - b / denom
        }
    }

    fn eval_derivative(t: f64, shift: f64, b: f64) -> f64 {
        if t == f64::INFINITY {
            return 0.0;
        }
        let denom = t + shift;
        if denom <= 0.0 {
            f64::INFINITY
        } else {
            b / (denom * denom)
        }
    }
}

impl DelayPair for RationalPair {
    #[inline]
    fn delta_up(&self, t: f64) -> f64 {
        Self::eval(t, self.c, self.b, self.a)
    }

    #[inline]
    fn delta_down(&self, t: f64) -> f64 {
        Self::eval(t, self.a, self.b, self.c)
    }

    fn delta_up_inf(&self) -> f64 {
        self.a
    }

    fn delta_down_inf(&self) -> f64 {
        self.c
    }

    fn delta_min(&self) -> f64 {
        self.delta_min_closed_form()
    }

    fn d_delta_up(&self, t: f64) -> f64 {
        Self::eval_derivative(t, self.c, self.b)
    }

    fn d_delta_down(&self, t: f64) -> f64 {
        Self::eval_derivative(t, self.a, self.b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delay::{check_involution, delta_min_of};

    #[test]
    fn constructor_validates() {
        assert!(RationalPair::new(1.0, 0.5, 1.0).is_ok());
        assert!(RationalPair::new(1.0, 1.0, 1.0).is_err()); // b == a*c
        assert!(RationalPair::new(1.0, 2.0, 1.0).is_err());
        assert!(RationalPair::new(0.0, 0.5, 1.0).is_err());
        assert!(RationalPair::new(1.0, -0.5, 1.0).is_err());
        assert!(RationalPair::new(f64::NAN, 0.5, 1.0).is_err());
    }

    #[test]
    fn involution_exact() {
        let d = RationalPair::new(2.0, 1.5, 3.0).unwrap();
        for i in 0..200 {
            let t = -1.9 + i as f64 * 0.05;
            let rt = -d.delta_up(-d.delta_down(t));
            assert!((rt - t).abs() < 1e-10, "t={t}, roundtrip={rt}");
            let rt = -d.delta_down(-d.delta_up(t));
            assert!((rt - t).abs() < 1e-10);
        }
    }

    #[test]
    fn closed_form_delta_min_matches_solver() {
        for (a, b, c) in [(2.0, 1.0, 2.0), (1.0, 0.3, 2.0), (5.0, 2.0, 0.9)] {
            let d = RationalPair::new(a, b, c).unwrap();
            let solver = delta_min_of(&d).unwrap();
            let closed = d.delta_min_closed_form();
            assert!((solver - closed).abs() < 1e-9, "{a},{b},{c}");
            // and it is a fixed point
            assert!((d.delta_up(-closed) - closed).abs() < 1e-12);
            assert!((d.delta_down(-closed) - closed).abs() < 1e-12);
            assert!(closed > 0.0);
        }
    }

    #[test]
    fn symmetric_pair_has_equal_functions() {
        let d = RationalPair::symmetric(2.0, 1.0).unwrap();
        for &t in &[-1.5, 0.0, 1.0, 10.0] {
            assert_eq!(d.delta_up(t), d.delta_down(t));
        }
    }

    #[test]
    fn extended_arguments_and_limits() {
        let d = RationalPair::new(2.0, 1.0, 3.0).unwrap();
        assert_eq!(d.delta_up(f64::INFINITY), 2.0);
        assert_eq!(d.delta_down(f64::INFINITY), 3.0);
        assert_eq!(d.delta_up(-3.0), f64::NEG_INFINITY);
        assert_eq!(d.delta_up(-4.0), f64::NEG_INFINITY);
        assert_eq!(d.delta_down(-2.0), f64::NEG_INFINITY);
    }

    #[test]
    fn report_is_clean() {
        let d = RationalPair::new(2.0, 1.0, 2.5).unwrap();
        let report = check_involution(&d, -1.8, 8.0, 101);
        assert!(report.is_valid(1e-8), "{report:?}");
    }

    #[test]
    fn derivatives_exact() {
        let d = RationalPair::new(2.0, 1.0, 3.0).unwrap();
        // δ↑′(T) = b/(T+c)^2
        assert!((d.d_delta_up(1.0) - 1.0 / 16.0).abs() < 1e-12);
        assert!((d.d_delta_down(1.0) - 1.0 / 9.0).abs() < 1e-12);
        assert_eq!(d.d_delta_up(f64::INFINITY), 0.0);
        assert_eq!(d.d_delta_up(-3.0), f64::INFINITY);
    }
}
