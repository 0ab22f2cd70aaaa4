//! The built-in channels as one value type.

use std::fmt;

use crate::channel::{
    DegradationDelay, EtaInvolutionChannel, FeedEffect, InertialDelay, InvolutionChannel,
    OnlineChannel, PureDelay, SimChannel,
};
use crate::delay::{DelayFamily, DelayPair};
use crate::noise::{EtaNoise, NoiseSource};
use crate::signal::Transition;

/// Any channel a circuit edge can carry, stored by value.
///
/// A channel is plain data — its single-history state `(t_{n−1},
/// δ_{n−1})`, the retained outputs that can still cancel, and its
/// parameters — so the built-in kinds live inline in the enum and are
/// called through a `match` the compiler can inline, rather than
/// behind one heap box and one virtual call per edge. A circuit's
/// channel array is then one allocation: cloning it for a sweep worker
/// is one `Vec` clone, and dropping it is one free.
///
/// The η-involution variant is boxed: its noise stream would make
/// every variant, and so every edge of every circuit, larger. Kinds
/// this crate does not ship (registry-defined factories, recorded or
/// closure noise, test doubles) go in [`AnyChannel::Custom`] through
/// [`AnyChannel::custom`].
///
/// Every built-in channel converts with `From`/`Into`, so
/// `builder.connect(a, b, 0, PureDelay::new(1.0)?)` needs no wrapping.
/// A built-in kind computes the same results inline as it does boxed.
///
/// ```
/// use ivl_core::channel::{AnyChannel, Channel, PureDelay};
/// use ivl_core::Signal;
/// # fn main() -> Result<(), ivl_core::Error> {
/// let mut ch = AnyChannel::from(PureDelay::new(1.5)?);
/// let out = ch.apply(&Signal::pulse(0.0, 2.0)?);
/// assert_eq!(out, Signal::pulse(1.5, 2.0)?);
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
#[non_exhaustive]
pub enum AnyChannel {
    /// A [`PureDelay`].
    Pure(PureDelay),
    /// An [`InertialDelay`].
    Inertial(InertialDelay),
    /// A [`DegradationDelay`] (DDM).
    Ddm(DegradationDelay),
    /// An [`InvolutionChannel`] over a named delay family.
    Involution(InvolutionChannel<DelayFamily>),
    /// An [`EtaInvolutionChannel`] over a named delay family and noise
    /// source.
    Eta(Box<EtaInvolutionChannel<DelayFamily, EtaNoise>>),
    /// Any other [`SimChannel`], called through its trait object.
    Custom(Box<dyn SimChannel>),
}

impl AnyChannel {
    /// Wraps a channel of a kind this crate does not ship. Built-in
    /// kinds should use `From`/`Into` instead, which stores them inline.
    pub fn custom<C: SimChannel + 'static>(channel: C) -> Self {
        AnyChannel::Custom(Box::new(channel))
    }
}

impl From<PureDelay> for AnyChannel {
    fn from(ch: PureDelay) -> Self {
        AnyChannel::Pure(ch)
    }
}

impl From<InertialDelay> for AnyChannel {
    fn from(ch: InertialDelay) -> Self {
        AnyChannel::Inertial(ch)
    }
}

impl From<DegradationDelay> for AnyChannel {
    fn from(ch: DegradationDelay) -> Self {
        AnyChannel::Ddm(ch)
    }
}

impl<D: DelayPair + Into<DelayFamily>> From<InvolutionChannel<D>> for AnyChannel {
    fn from(ch: InvolutionChannel<D>) -> Self {
        AnyChannel::Involution(ch.map_delay(Into::into))
    }
}

impl<D, N> From<EtaInvolutionChannel<D, N>> for AnyChannel
where
    D: DelayPair + Into<DelayFamily>,
    N: NoiseSource + Into<EtaNoise>,
{
    fn from(ch: EtaInvolutionChannel<D, N>) -> Self {
        AnyChannel::Eta(Box::new(ch.map_parts(Into::into, Into::into)))
    }
}

impl From<Box<dyn SimChannel>> for AnyChannel {
    fn from(ch: Box<dyn SimChannel>) -> Self {
        AnyChannel::Custom(ch)
    }
}

/// Calls `$body` with `$ch` bound to the variant's channel.
macro_rules! dispatch {
    ($self:expr, $ch:ident => $body:expr) => {
        match $self {
            AnyChannel::Pure($ch) => $body,
            AnyChannel::Inertial($ch) => $body,
            AnyChannel::Ddm($ch) => $body,
            AnyChannel::Involution($ch) => $body,
            AnyChannel::Eta($ch) => $body,
            AnyChannel::Custom($ch) => $body,
        }
    };
}

impl OnlineChannel for AnyChannel {
    #[inline]
    fn feed(&mut self, input: Transition) -> FeedEffect {
        dispatch!(self, ch => ch.feed(input))
    }

    fn reset(&mut self) {
        dispatch!(self, ch => ch.reset());
    }

    #[inline]
    fn discard_delivered(&mut self, before: f64) {
        dispatch!(self, ch => ch.discard_delivered(before));
    }

    fn reseed(&mut self, seed: u64) {
        dispatch!(self, ch => ch.reseed(seed));
    }

    fn delay_hint(&self) -> Option<f64> {
        dispatch!(self, ch => ch.delay_hint())
    }
}

impl fmt::Debug for AnyChannel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnyChannel::Pure(ch) => f.debug_tuple("Pure").field(ch).finish(),
            AnyChannel::Inertial(ch) => f.debug_tuple("Inertial").field(ch).finish(),
            AnyChannel::Ddm(ch) => f.debug_tuple("Ddm").field(ch).finish(),
            AnyChannel::Involution(ch) => f.debug_tuple("Involution").field(ch).finish(),
            AnyChannel::Eta(ch) => f.debug_tuple("Eta").field(ch).finish(),
            AnyChannel::Custom(_) => f.write_str("Custom(..)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bit::Bit;
    use crate::channel::Channel;
    use crate::delay::{ExpChannel, RationalPair};
    use crate::noise::{EtaBounds, RecordedChoices, UniformNoise};
    use crate::signal::Signal;

    /// An edge stored inline must cost no more than the boxed form it
    /// replaces: a 16-byte pointer plus a pure delay's 128-byte heap
    /// chunk.
    #[test]
    fn an_inline_channel_is_no_larger_than_a_boxed_one() {
        assert!(
            std::mem::size_of::<Option<AnyChannel>>() <= 144,
            "Option<AnyChannel> is {} bytes",
            std::mem::size_of::<Option<AnyChannel>>()
        );
    }

    #[test]
    fn conversions_pick_the_inline_variant() {
        let exp = ExpChannel::new(1.0, 0.5, 0.5).unwrap();
        let bounds = EtaBounds::new(0.02, 0.02).unwrap();
        assert!(matches!(
            AnyChannel::from(PureDelay::new(1.0).unwrap()),
            AnyChannel::Pure(_)
        ));
        assert!(matches!(
            AnyChannel::from(InvolutionChannel::new(
                RationalPair::new(2.0, 0.5, 1.0).unwrap()
            )),
            AnyChannel::Involution(_)
        ));
        assert!(matches!(
            AnyChannel::from(EtaInvolutionChannel::new(
                exp.clone(),
                bounds,
                UniformNoise::new(3)
            )),
            AnyChannel::Eta(_)
        ));
        // a noise source outside the named set stays a custom channel
        let recorded = EtaInvolutionChannel::new(exp, bounds, RecordedChoices::new(vec![0.01]));
        let custom = AnyChannel::custom(recorded);
        assert!(matches!(custom, AnyChannel::Custom(_)));
        assert_eq!(format!("{custom:?}"), "Custom(..)");
    }

    #[test]
    fn dispatch_forwards_every_method() {
        let exp = ExpChannel::new(1.0, 0.5, 0.5).unwrap();
        let bounds = EtaBounds::new(0.02, 0.02).unwrap();
        let inline = AnyChannel::from(EtaInvolutionChannel::new(exp, bounds, UniformNoise::new(1)));
        let boxed = AnyChannel::custom(inline.clone());
        assert_eq!(inline.delay_hint(), boxed.delay_hint());
        let input = Signal::pulse_train([(0.0, 4.0), (7.0, 0.62), (9.0, 3.0)]).unwrap();
        for (mut a, mut b) in [(inline.clone(), boxed.clone()), (inline, boxed)] {
            a.reseed(42);
            b.reseed(42);
            assert_eq!(a.apply(&input), b.apply(&input));
            let tr = Transition::new(20.0, Bit::One);
            assert_eq!(a.feed(tr), b.feed(tr));
            a.discard_delivered(30.0);
            b.discard_delivered(30.0);
        }
    }
}
