//! Channel factories: construct channels **by name** from flat
//! parameter lists.
//!
//! Spec-driven front ends (the `faithful::Experiment` facade, stored
//! experiment files, job queues) describe channels as data — a kind
//! string plus key/value parameters — rather than as Rust constructor
//! calls. A [`ChannelRegistry`] resolves such descriptions to
//! [`AnyChannel`]s. The registry ships with factories for every channel
//! family of this crate (`pure`, `inertial`, `ddm`, `involution`,
//! `eta`), which build the inline variants; custom channels plug in by
//! implementing [`ChannelFactory`] (returning
//! [`AnyChannel::custom`]) and calling [`ChannelRegistry::register`].
//!
//! ```
//! use ivl_core::factory::{ChannelParams, ChannelRegistry};
//! use ivl_core::channel::Channel;
//! use ivl_core::Signal;
//!
//! # fn main() -> Result<(), ivl_core::Error> {
//! let registry = ChannelRegistry::with_builtins();
//! let params = ChannelParams::new()
//!     .with_text("delay", "exp")
//!     .with_num("tau", 1.0)
//!     .with_num("t_p", 0.5)
//!     .with_num("v_th", 0.5);
//! let mut ch = registry.build("involution", &params)?;
//! let out = ch.apply(&Signal::pulse(0.0, 3.0)?);
//! assert_eq!(out.len(), 2);
//! # Ok(())
//! # }
//! ```

use std::fmt;

use crate::channel::{
    AnyChannel, DdmEdgeParams, DegradationDelay, EtaInvolutionChannel, InertialDelay,
    InvolutionChannel, PureDelay,
};
use crate::delay::{DelayFamily, ExpChannel, RationalPair};
use crate::error::Error;
use crate::noise::{
    ConstantShift, EtaBounds, EtaNoise, ExtendingAdversary, TruncatedGaussian, UniformNoise,
    WorstCaseAdversary, ZeroNoise,
};

/// A single channel parameter value.
///
/// Numbers and integers are kept apart so 64-bit seeds survive
/// serialization exactly (an `f64` cannot hold every `u64`).
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ParamValue {
    /// A real-valued parameter (delays, thresholds, bounds, …).
    Num(f64),
    /// A non-negative integer parameter (seeds, counts, …).
    Int(u64),
    /// A textual parameter (sub-kind selectors like `delay = "exp"`).
    Text(String),
}

impl fmt::Display for ParamValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamValue::Num(v) => write!(f, "{v:?}"),
            ParamValue::Int(v) => write!(f, "{v}"),
            ParamValue::Text(v) => write!(f, "{v}"),
        }
    }
}

/// An ordered, flat list of named channel parameters.
///
/// Order is preserved (it is part of the serialized form) but lookups
/// are by name; duplicate names resolve to the first entry.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ChannelParams {
    entries: Vec<(String, ParamValue)>,
}

impl ChannelParams {
    /// Creates an empty parameter list.
    #[must_use]
    pub fn new() -> Self {
        ChannelParams::default()
    }

    /// Appends a real-valued parameter (builder style).
    #[must_use]
    pub fn with_num(mut self, name: impl Into<String>, value: f64) -> Self {
        self.entries.push((name.into(), ParamValue::Num(value)));
        self
    }

    /// Appends an integer parameter (builder style).
    #[must_use]
    pub fn with_int(mut self, name: impl Into<String>, value: u64) -> Self {
        self.entries.push((name.into(), ParamValue::Int(value)));
        self
    }

    /// Appends a textual parameter (builder style).
    #[must_use]
    pub fn with_text(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        self.entries
            .push((name.into(), ParamValue::Text(value.into())));
        self
    }

    /// All entries, in insertion order.
    #[must_use]
    pub fn entries(&self) -> &[(String, ParamValue)] {
        &self.entries
    }

    /// Looks a parameter up by name.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&ParamValue> {
        self.entries.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    /// The real value of `name` (integers coerce losslessly enough for
    /// physical quantities).
    ///
    /// # Errors
    ///
    /// [`Error::InvalidChannelParams`] if absent or textual.
    pub fn num(&self, name: &str) -> Result<f64, Error> {
        match self.get(name) {
            Some(ParamValue::Num(v)) => Ok(*v),
            #[allow(clippy::cast_precision_loss)]
            Some(ParamValue::Int(v)) => Ok(*v as f64),
            Some(ParamValue::Text(_)) => Err(Error::InvalidChannelParams {
                reason: format!("parameter {name:?} must be numeric"),
            }),
            None => Err(Error::InvalidChannelParams {
                reason: format!("missing parameter {name:?}"),
            }),
        }
    }

    /// Like [`num`](Self::num) but with a default when absent.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidChannelParams`] if present but textual.
    pub fn num_or(&self, name: &str, default: f64) -> Result<f64, Error> {
        match self.get(name) {
            None => Ok(default),
            Some(_) => self.num(name),
        }
    }

    /// The integer value of `name`.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidChannelParams`] if absent or not an integer.
    pub fn int(&self, name: &str) -> Result<u64, Error> {
        match self.get(name) {
            Some(ParamValue::Int(v)) => Ok(*v),
            Some(_) => Err(Error::InvalidChannelParams {
                reason: format!("parameter {name:?} must be an integer"),
            }),
            None => Err(Error::InvalidChannelParams {
                reason: format!("missing parameter {name:?}"),
            }),
        }
    }

    /// Like [`int`](Self::int) but with a default when absent.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidChannelParams`] if present but not an integer.
    pub fn int_or(&self, name: &str, default: u64) -> Result<u64, Error> {
        match self.get(name) {
            None => Ok(default),
            Some(_) => self.int(name),
        }
    }

    /// The textual value of `name`.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidChannelParams`] if absent or not textual.
    pub fn text(&self, name: &str) -> Result<&str, Error> {
        match self.get(name) {
            Some(ParamValue::Text(v)) => Ok(v),
            Some(_) => Err(Error::InvalidChannelParams {
                reason: format!("parameter {name:?} must be textual"),
            }),
            None => Err(Error::InvalidChannelParams {
                reason: format!("missing parameter {name:?}"),
            }),
        }
    }

    /// Like [`text`](Self::text) but with a default when absent.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidChannelParams`] if present but not textual.
    pub fn text_or<'a>(&'a self, name: &str, default: &'a str) -> Result<&'a str, Error> {
        match self.get(name) {
            None => Ok(default),
            Some(_) => self.text(name),
        }
    }
}

/// Builds channels of one kind from [`ChannelParams`].
///
/// Implementations are registered in a [`ChannelRegistry`] and selected
/// by [`kind`](ChannelFactory::kind) string.
pub trait ChannelFactory: Send + Sync {
    /// The kind string this factory answers to (e.g. `"involution"`).
    fn kind(&self) -> &str;

    /// Builds a channel from the given parameters.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidChannelParams`] for missing or mistyped
    /// parameters, or any constructor error of the underlying channel.
    fn build(&self, params: &ChannelParams) -> Result<AnyChannel, Error>;
}

/// A name-indexed collection of [`ChannelFactory`]s.
pub struct ChannelRegistry {
    factories: Vec<Box<dyn ChannelFactory>>,
}

impl fmt::Debug for ChannelRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ChannelRegistry")
            .field("kinds", &self.kinds())
            .finish()
    }
}

impl Default for ChannelRegistry {
    fn default() -> Self {
        ChannelRegistry::with_builtins()
    }
}

impl ChannelRegistry {
    /// An empty registry (no kinds resolvable).
    #[must_use]
    pub fn empty() -> Self {
        ChannelRegistry {
            factories: Vec::new(),
        }
    }

    /// A registry with every built-in channel family registered:
    /// `pure`, `inertial`, `ddm`, `involution` and `eta`.
    #[must_use]
    pub fn with_builtins() -> Self {
        let mut r = ChannelRegistry::empty();
        r.register(Box::new(PureFactory));
        r.register(Box::new(InertialFactory));
        r.register(Box::new(DdmFactory));
        r.register(Box::new(InvolutionFactory));
        r.register(Box::new(EtaFactory));
        r
    }

    /// Registers a factory. Later registrations shadow earlier ones of
    /// the same kind, so built-ins can be overridden.
    pub fn register(&mut self, factory: Box<dyn ChannelFactory>) {
        self.factories.push(factory);
    }

    /// `true` if a factory for `kind` is registered.
    #[must_use]
    pub fn contains(&self, kind: &str) -> bool {
        self.factories.iter().any(|f| f.kind() == kind)
    }

    /// The registered kind strings, most recent registration first.
    #[must_use]
    pub fn kinds(&self) -> Vec<&str> {
        self.factories.iter().rev().map(|f| f.kind()).collect()
    }

    /// Builds a channel of the given kind.
    ///
    /// # Errors
    ///
    /// [`Error::UnknownChannelKind`] if no factory answers to `kind`;
    /// otherwise whatever the factory's
    /// [`build`](ChannelFactory::build) returns.
    pub fn build(&self, kind: &str, params: &ChannelParams) -> Result<AnyChannel, Error> {
        self.factories
            .iter()
            .rev()
            .find(|f| f.kind() == kind)
            .ok_or_else(|| Error::UnknownChannelKind {
                kind: kind.to_owned(),
            })?
            .build(params)
    }
}

/// Builds the delay pair selected by the `delay` parameter (`exp` with
/// `tau`/`t_p`/`v_th`, or `rational` with `a`/`b`/`c`), shared by the
/// `involution` and `eta` factories.
///
/// # Errors
///
/// [`Error::InvalidChannelParams`] for unknown delay families or
/// missing parameters; constructor errors for out-of-range values.
pub fn delay_pair_from(params: &ChannelParams) -> Result<DelayFamily, Error> {
    match params.text_or("delay", "exp")? {
        "exp" => Ok(DelayFamily::Exp(ExpChannel::new(
            params.num("tau")?,
            params.num("t_p")?,
            params.num_or("v_th", 0.5)?,
        )?)),
        "rational" => Ok(DelayFamily::Rational(RationalPair::new(
            params.num("a")?,
            params.num("b")?,
            params.num("c")?,
        )?)),
        other => Err(Error::InvalidChannelParams {
            reason: format!("unknown delay family {other:?} (expected exp or rational)"),
        }),
    }
}

struct PureFactory;

impl ChannelFactory for PureFactory {
    fn kind(&self) -> &str {
        "pure"
    }

    fn build(&self, params: &ChannelParams) -> Result<AnyChannel, Error> {
        Ok(PureDelay::new(params.num("delay")?)?.into())
    }
}

struct InertialFactory;

impl ChannelFactory for InertialFactory {
    fn kind(&self) -> &str {
        "inertial"
    }

    fn build(&self, params: &ChannelParams) -> Result<AnyChannel, Error> {
        Ok(InertialDelay::new(params.num("delay")?, params.num("window")?)?.into())
    }
}

struct DdmFactory;

impl ChannelFactory for DdmFactory {
    fn kind(&self) -> &str {
        "ddm"
    }

    fn build(&self, params: &ChannelParams) -> Result<AnyChannel, Error> {
        // symmetric form: t_p0 / t_0 / tau; per-edge form: up_* / down_*
        if params.get("t_p0").is_some() {
            let p =
                DdmEdgeParams::new(params.num("t_p0")?, params.num("t_0")?, params.num("tau")?)?;
            return Ok(DegradationDelay::symmetric(p).into());
        }
        let up = DdmEdgeParams::new(
            params.num("up_t_p0")?,
            params.num("up_t_0")?,
            params.num("up_tau")?,
        )?;
        let down = DdmEdgeParams::new(
            params.num("down_t_p0")?,
            params.num("down_t_0")?,
            params.num("down_tau")?,
        )?;
        Ok(DegradationDelay::new(up, down).into())
    }
}

struct InvolutionFactory;

impl ChannelFactory for InvolutionFactory {
    fn kind(&self) -> &str {
        "involution"
    }

    fn build(&self, params: &ChannelParams) -> Result<AnyChannel, Error> {
        Ok(InvolutionChannel::new(delay_pair_from(params)?).into())
    }
}

struct EtaFactory;

impl ChannelFactory for EtaFactory {
    fn kind(&self) -> &str {
        "eta"
    }

    fn build(&self, params: &ChannelParams) -> Result<AnyChannel, Error> {
        let bounds = EtaBounds::new(params.num_or("minus", 0.0)?, params.num_or("plus", 0.0)?)?;
        let delay = delay_pair_from(params)?;
        let noise: EtaNoise = match params.text_or("noise", "zero")? {
            "zero" => ZeroNoise.into(),
            "worst_case" => WorstCaseAdversary.into(),
            "extending" => ExtendingAdversary.into(),
            "uniform" => UniformNoise::new(params.int_or("seed", 0)?).into(),
            "gaussian" => {
                TruncatedGaussian::new(params.num("sigma")?, params.int_or("seed", 0)?)?.into()
            }
            "constant" => ConstantShift(params.num("shift")?).into(),
            other => {
                return Err(Error::InvalidChannelParams {
                    reason: format!("unknown noise kind {other:?}"),
                })
            }
        };
        Ok(EtaInvolutionChannel::new(delay, bounds, noise).into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::{Channel, FeedEffect, OnlineChannel, SimChannel};
    use crate::signal::{Signal, Transition};
    use crate::Bit;

    fn exp_params() -> ChannelParams {
        ChannelParams::new()
            .with_text("delay", "exp")
            .with_num("tau", 1.0)
            .with_num("t_p", 0.5)
            .with_num("v_th", 0.5)
    }

    #[test]
    fn builds_every_builtin_kind() {
        let r = ChannelRegistry::with_builtins();
        for kind in ["pure", "inertial", "ddm", "involution", "eta"] {
            assert!(r.contains(kind), "{kind} missing");
        }
        let input = Signal::pulse(0.0, 3.0).unwrap();
        let mut pure = r
            .build("pure", &ChannelParams::new().with_num("delay", 1.0))
            .unwrap();
        assert_eq!(pure.apply(&input).len(), 2);
        let mut inertial = r
            .build(
                "inertial",
                &ChannelParams::new()
                    .with_num("delay", 1.0)
                    .with_num("window", 0.5),
            )
            .unwrap();
        assert_eq!(inertial.apply(&input).len(), 2);
        let mut ddm = r
            .build(
                "ddm",
                &ChannelParams::new()
                    .with_num("t_p0", 1.2)
                    .with_num("t_0", 0.2)
                    .with_num("tau", 1.0),
            )
            .unwrap();
        assert_eq!(ddm.apply(&input).len(), 2);
        let mut invol = r.build("involution", &exp_params()).unwrap();
        assert_eq!(invol.apply(&input).len(), 2);
    }

    #[test]
    fn factory_channels_match_direct_construction() {
        let r = ChannelRegistry::with_builtins();
        let input = Signal::pulse_train([(0.0, 4.0), (7.0, 0.62)]).unwrap();
        let mut by_name = r.build("involution", &exp_params()).unwrap();
        let mut direct = InvolutionChannel::new(ExpChannel::new(1.0, 0.5, 0.5).unwrap());
        assert_eq!(by_name.apply(&input), direct.apply(&input));

        let eta = exp_params()
            .with_num("minus", 0.02)
            .with_num("plus", 0.02)
            .with_text("noise", "uniform")
            .with_int("seed", 7);
        let mut by_name = r.build("eta", &eta).unwrap();
        let mut direct = EtaInvolutionChannel::new(
            ExpChannel::new(1.0, 0.5, 0.5).unwrap(),
            EtaBounds::new(0.02, 0.02).unwrap(),
            UniformNoise::new(7),
        );
        assert_eq!(by_name.apply(&input), direct.apply(&input));
    }

    #[test]
    fn built_channels_clone_and_reseed() {
        let r = ChannelRegistry::with_builtins();
        let params = exp_params()
            .with_num("minus", 0.02)
            .with_num("plus", 0.02)
            .with_text("noise", "uniform")
            .with_int("seed", 1);
        let ch = r.build("eta", &params).unwrap();
        let mut a = ch.clone_box();
        let mut b = ch.clone_box();
        b.reseed(99);
        let tr = Transition::new(1.0, Bit::One);
        let fa = a.feed(tr);
        let fb = b.feed(tr);
        assert!(matches!(fa, FeedEffect::Scheduled(_)));
        assert_ne!(fa, fb, "reseeded clone must draw different noise");
    }

    #[test]
    fn unknown_kind_and_bad_params_are_rejected() {
        let r = ChannelRegistry::with_builtins();
        assert!(matches!(
            r.build("nope", &ChannelParams::new()),
            Err(Error::UnknownChannelKind { .. })
        ));
        assert!(matches!(
            r.build("pure", &ChannelParams::new()),
            Err(Error::InvalidChannelParams { .. })
        ));
        assert!(matches!(
            r.build(
                "involution",
                &ChannelParams::new().with_text("delay", "mystery")
            ),
            Err(Error::InvalidChannelParams { .. })
        ));
        assert!(matches!(
            r.build("eta", &exp_params().with_text("noise", "psychic")),
            Err(Error::InvalidChannelParams { .. })
        ));
        // type mismatches
        let p = ChannelParams::new()
            .with_text("delay", "exp")
            .with_text("tau", "one");
        assert!(matches!(
            r.build("involution", &p),
            Err(Error::InvalidChannelParams { .. })
        ));
        let p = exp_params()
            .with_num("seed", 3.5)
            .with_text("noise", "uniform");
        assert!(matches!(
            r.build("eta", &p),
            Err(Error::InvalidChannelParams { .. })
        ));
    }

    #[test]
    fn error_variants_carry_exact_payloads() {
        let r = ChannelRegistry::with_builtins();
        let fail = |kind: &str, params: &ChannelParams| {
            r.build(kind, params).expect_err("build must fail")
        };
        // unknown kind: the variant names the kind verbatim
        match fail("nope", &ChannelParams::new()) {
            Error::UnknownChannelKind { kind } => assert_eq!(kind, "nope"),
            other => panic!("expected UnknownChannelKind, got {other:?}"),
        }
        // invalid params: the reason names the offending parameter
        match fail("pure", &ChannelParams::new()) {
            Error::InvalidChannelParams { reason } => {
                assert!(reason.contains("delay"), "{reason}");
            }
            other => panic!("expected InvalidChannelParams, got {other:?}"),
        }
        match fail("inertial", &ChannelParams::new().with_num("delay", 1.0)) {
            Error::InvalidChannelParams { reason } => {
                assert!(reason.contains("window"), "{reason}");
            }
            other => panic!("expected InvalidChannelParams, got {other:?}"),
        }
    }

    #[test]
    fn shadowing_builtin_routes_error_paths_to_the_shadow() {
        struct Picky;
        impl ChannelFactory for Picky {
            fn kind(&self) -> &str {
                "pure"
            }
            fn build(&self, _params: &ChannelParams) -> Result<AnyChannel, Error> {
                Err(Error::InvalidChannelParams {
                    reason: "picky shadow rejects everything".into(),
                })
            }
        }
        let mut r = ChannelRegistry::with_builtins();
        r.register(Box::new(Picky));
        // parameters the builtin would happily accept now fail through
        // the shadow — later registrations win for errors too
        let err = r
            .build("pure", &ChannelParams::new().with_num("delay", 1.0))
            .expect_err("shadow must reject");
        match err {
            Error::InvalidChannelParams { reason } => {
                assert_eq!(reason, "picky shadow rejects everything");
            }
            other => panic!("expected the shadow's error, got {other:?}"),
        }
        // other kinds are untouched
        assert!(r
            .build(
                "inertial",
                &ChannelParams::new()
                    .with_num("delay", 1.0)
                    .with_num("window", 0.5)
            )
            .is_ok());
    }

    #[test]
    fn custom_factories_shadow_builtins() {
        struct Shadow;
        impl ChannelFactory for Shadow {
            fn kind(&self) -> &str {
                "pure"
            }
            fn build(&self, _params: &ChannelParams) -> Result<AnyChannel, Error> {
                Ok(PureDelay::new(42.0)?.into())
            }
        }
        let mut r = ChannelRegistry::with_builtins();
        r.register(Box::new(Shadow));
        let mut ch = r.build("pure", &ChannelParams::new()).unwrap();
        let out = ch.apply(&Signal::pulse(0.0, 100.0).unwrap());
        assert_eq!(out.transitions()[0].time, 42.0);
        assert!(r.kinds().contains(&"eta"));
        assert!(!format!("{r:?}").is_empty());
    }

    #[test]
    fn params_accessors() {
        let p = ChannelParams::new()
            .with_num("x", 1.5)
            .with_int("n", 3)
            .with_text("s", "abc");
        assert_eq!(p.num("x").unwrap(), 1.5);
        assert_eq!(p.num("n").unwrap(), 3.0);
        assert_eq!(p.int("n").unwrap(), 3);
        assert_eq!(p.text("s").unwrap(), "abc");
        assert_eq!(p.num_or("missing", 9.0).unwrap(), 9.0);
        assert_eq!(p.int_or("missing", 9).unwrap(), 9);
        assert_eq!(p.text_or("missing", "d").unwrap(), "d");
        assert!(p.num("s").is_err());
        assert!(p.int("x").is_err());
        assert!(p.text("x").is_err());
        assert!(p.num("missing").is_err());
        assert!(p.int("missing").is_err());
        assert!(p.text("missing").is_err());
        assert_eq!(p.entries().len(), 3);
        assert_eq!(format!("{}", ParamValue::Num(2.0)), "2.0");
        assert_eq!(format!("{}", ParamValue::Int(2)), "2");
        assert_eq!(format!("{}", ParamValue::Text("t".into())), "t");
    }
}
