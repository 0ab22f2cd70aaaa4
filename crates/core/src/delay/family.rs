//! The closed-form delay families a channel spec can name.

use crate::delay::{DelayPair, ExpChannel, RationalPair};

/// A delay pair constructed by name — one variant per closed-form
/// family the channel factories understand. It is the delay of the
/// built-in involution and η-involution channels in
/// [`AnyChannel`](crate::channel::AnyChannel), so it dispatches by
/// `match` rather than through a trait object.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum DelayFamily {
    /// First-order RC switching delays ([`ExpChannel`]).
    Exp(ExpChannel),
    /// The algebraic involution family ([`RationalPair`]).
    Rational(RationalPair),
}

impl From<ExpChannel> for DelayFamily {
    fn from(d: ExpChannel) -> Self {
        DelayFamily::Exp(d)
    }
}

impl From<RationalPair> for DelayFamily {
    fn from(d: RationalPair) -> Self {
        DelayFamily::Rational(d)
    }
}

/// Forwards every method, overridden defaults included, so a family
/// computes exactly what its inner pair does.
impl DelayPair for DelayFamily {
    #[inline]
    fn delta_up(&self, t: f64) -> f64 {
        match self {
            DelayFamily::Exp(d) => d.delta_up(t),
            DelayFamily::Rational(d) => d.delta_up(t),
        }
    }

    #[inline]
    fn delta_down(&self, t: f64) -> f64 {
        match self {
            DelayFamily::Exp(d) => d.delta_down(t),
            DelayFamily::Rational(d) => d.delta_down(t),
        }
    }

    fn delta_up_inf(&self) -> f64 {
        match self {
            DelayFamily::Exp(d) => d.delta_up_inf(),
            DelayFamily::Rational(d) => d.delta_up_inf(),
        }
    }

    fn delta_down_inf(&self) -> f64 {
        match self {
            DelayFamily::Exp(d) => d.delta_down_inf(),
            DelayFamily::Rational(d) => d.delta_down_inf(),
        }
    }

    fn delta_min(&self) -> f64 {
        match self {
            DelayFamily::Exp(d) => d.delta_min(),
            DelayFamily::Rational(d) => d.delta_min(),
        }
    }

    fn d_delta_up(&self, t: f64) -> f64 {
        match self {
            DelayFamily::Exp(d) => d.d_delta_up(t),
            DelayFamily::Rational(d) => d.d_delta_up(t),
        }
    }

    fn d_delta_down(&self, t: f64) -> f64 {
        match self {
            DelayFamily::Exp(d) => d.d_delta_down(t),
            DelayFamily::Rational(d) => d.d_delta_down(t),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forwards_to_the_inner_pair() {
        let exp = ExpChannel::new(1.0, 0.5, 0.4).unwrap();
        let rat = RationalPair::new(2.0, 0.5, 1.0).unwrap();
        let pairs: [(DelayFamily, &dyn DelayPair); 2] =
            [(exp.clone().into(), &exp), (rat.into(), &rat)];
        for (family, inner) in pairs {
            for t in [-0.3, 0.0, 0.7, f64::INFINITY] {
                assert_eq!(family.delta_up(t).to_bits(), inner.delta_up(t).to_bits());
                assert_eq!(
                    family.delta_down(t).to_bits(),
                    inner.delta_down(t).to_bits()
                );
                assert_eq!(
                    family.d_delta_up(t).to_bits(),
                    inner.d_delta_up(t).to_bits()
                );
                assert_eq!(
                    family.d_delta_down(t).to_bits(),
                    inner.d_delta_down(t).to_bits()
                );
            }
            assert_eq!(family.delta_up_inf(), inner.delta_up_inf());
            assert_eq!(family.delta_down_inf(), inner.delta_down_inf());
            assert_eq!(family.delta_min(), inner.delta_min());
        }
    }
}
