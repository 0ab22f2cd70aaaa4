//! A one-shot latch built from the SPF circuit.
//!
//! The paper (Section I, following Barros & Johnson) notes that SPF and
//! the *one-shot latch* — a latch whose enable performs a single up and
//! a single down transition — are mutually reducible, so faithfulness
//! w.r.t. SPF extends to one-shot latches. This module realizes the
//! SPF → latch direction as an executable circuit:
//!
//! ```text
//!  d ──┐
//!      AND ──channel──► (fed-back OR) ──HT──► q
//! en ──┘                   ▲    │
//!                          └─ η-channel (storage loop)
//! ```
//!
//! The AND of data and enable produces a pulse whose width is the
//! overlap of `d = 1` with the enable window; the SPF stage stores a
//! sufficiently long overlap as a stable 1 and filters a short one to a
//! stable 0 — and for marginal overlaps it may take arbitrarily long to
//! decide (metastability), but its output is always *clean*: zero or a
//! single rising transition (condition F4).

use ivl_circuit::{CircuitBuilder, GateKind, Simulator};
use ivl_core::channel::{AnyChannel, EtaInvolutionChannel, InvolutionChannel};
use ivl_core::delay::{DelayPair, ExpChannel};
use ivl_core::noise::{EtaBounds, NoiseSource};
use ivl_core::{Bit, Signal};

use crate::circuit::dimension_buffer;
use crate::error::Error;
use crate::theory::SpfTheory;

/// A one-shot latch over η-involution channels.
///
/// ```
/// use ivl_core::delay::ExpChannel;
/// use ivl_core::noise::{EtaBounds, WorstCaseAdversary, ZeroNoise};
/// use ivl_core::Signal;
/// use ivl_spf::latch::OneShotLatch;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let latch = OneShotLatch::dimensioned(
///     ExpChannel::new(1.0, 0.5, 0.5)?,
///     EtaBounds::new(0.02, 0.02)?,
/// )?;
/// // data high across the whole enable window → captures 1
/// let d = Signal::pulse(0.0, 20.0)?;
/// let en = Signal::pulse(5.0, 10.0)?;
/// let run = latch.capture(ZeroNoise, WorstCaseAdversary, &d, &en, 200.0)?;
/// assert_eq!(run.q.len(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct OneShotLatch<D> {
    delay: D,
    bounds: EtaBounds,
    buffer: ExpChannel,
}

/// Recorded signals of one latch capture.
#[derive(Debug, Clone)]
pub struct LatchRun {
    /// The latch output.
    pub q: Signal,
    /// The AND (overlap) pulse driving the storage stage.
    pub overlap: Signal,
    /// The storage loop (OR output).
    pub loop_signal: Signal,
}

impl<D: DelayPair + Clone + Send + Sync + 'static> OneShotLatch<D> {
    /// Creates a latch with an explicit high-threshold buffer.
    #[must_use]
    pub fn new(delay: D, bounds: EtaBounds, buffer: ExpChannel) -> Self {
        OneShotLatch {
            delay,
            bounds,
            buffer,
        }
    }

    /// Creates a latch with the buffer dimensioned per Lemmas 10/11.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ConstraintCViolated`] if the bounds violate (C).
    pub fn dimensioned(delay: D, bounds: EtaBounds) -> Result<Self, Error> {
        let theory = SpfTheory::compute(&delay, bounds)?;
        Ok(OneShotLatch::new(delay, bounds, dimension_buffer(&theory)))
    }

    /// The theory bundle of the storage loop.
    ///
    /// # Errors
    ///
    /// As [`SpfTheory::compute`].
    pub fn theory(&self) -> Result<SpfTheory, Error> {
        SpfTheory::compute(&self.delay, self.bounds)
    }

    /// Captures `d` under the one-shot enable `en`.
    ///
    /// `noise_in` drives the AND→OR channel, `noise_loop` the storage
    /// loop's feedback channel.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Sim`]/[`Error::Circuit`] on simulation problems,
    /// and [`Error::Core`] if `en` is not one-shot (more than one pulse).
    pub fn capture<N1, N2>(
        &self,
        noise_in: N1,
        noise_loop: N2,
        d: &Signal,
        en: &Signal,
        horizon: f64,
    ) -> Result<LatchRun, Error>
    where
        N1: NoiseSource + Clone + Send + Sync + 'static,
        N2: NoiseSource + Clone + Send + Sync + 'static,
    {
        if en.len() > 2 || en.initial() == Bit::One {
            return Err(Error::Core(ivl_core::Error::InvalidSampleData {
                reason: "enable must be one-shot: initial 0 with at most one pulse",
            }));
        }
        let mut b = CircuitBuilder::new();
        let d_in = b.input("d");
        let en_in = b.input("en");
        let and = b.gate("and", GateKind::And, Bit::Zero);
        let or = b.gate("or", GateKind::Or, Bit::Zero);
        let q = b.output("q");
        b.connect_direct(d_in, and, 0)?;
        b.connect_direct(en_in, and, 1)?;
        b.connect(
            and,
            or,
            0,
            AnyChannel::custom(EtaInvolutionChannel::new(
                self.delay.clone(),
                self.bounds,
                noise_in,
            )),
        )?;
        b.connect(
            or,
            or,
            1,
            AnyChannel::custom(EtaInvolutionChannel::new(
                self.delay.clone(),
                self.bounds,
                noise_loop,
            )),
        )?;
        b.connect(or, q, 0, InvolutionChannel::new(self.buffer.clone()))?;
        let circuit = b.build()?;
        let and_id = circuit.node("and").expect("and exists");
        let or_id = circuit.node("or").expect("or exists");
        let mut sim = Simulator::new(circuit);
        sim.set_input("d", d.clone())?;
        sim.set_input("en", en.clone())?;
        let run = sim.run(horizon)?;
        Ok(LatchRun {
            q: run.signal("q")?.clone(),
            overlap: run.node_signal(and_id).clone(),
            loop_signal: run.node_signal(or_id).clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivl_core::noise::{UniformNoise, WorstCaseAdversary, ZeroNoise};

    fn latch() -> OneShotLatch<ExpChannel> {
        OneShotLatch::dimensioned(
            ExpChannel::new(1.0, 0.5, 0.5).unwrap(),
            EtaBounds::new(0.02, 0.02).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn captures_one_when_data_covers_enable() {
        let l = latch();
        let d = Signal::pulse(0.0, 30.0).unwrap();
        let en = Signal::pulse(5.0, 10.0).unwrap();
        let run = l.capture(ZeroNoise, ZeroNoise, &d, &en, 300.0).unwrap();
        assert_eq!(run.overlap.len(), 2, "overlap = en window");
        assert_eq!(run.q.len(), 1, "{}", run.q);
        assert_eq!(run.q.final_value(), Bit::One);
        assert_eq!(run.loop_signal.final_value(), Bit::One);
    }

    #[test]
    fn captures_zero_when_data_low() {
        let l = latch();
        let d = Signal::zero();
        let en = Signal::pulse(5.0, 10.0).unwrap();
        let run = l.capture(ZeroNoise, ZeroNoise, &d, &en, 300.0).unwrap();
        assert!(run.overlap.is_zero());
        assert!(run.q.is_zero());
    }

    #[test]
    fn captures_zero_for_tiny_overlap() {
        let l = latch();
        let th = l.theory().unwrap();
        // data goes high just before enable falls: overlap ≪ filter bound
        let overlap = th.filter_bound * 0.3;
        let en = Signal::pulse(5.0, 10.0).unwrap();
        let d = Signal::pulse(15.0 - overlap, 20.0).unwrap();
        let run = l.capture(ZeroNoise, ZeroNoise, &d, &en, 300.0).unwrap();
        assert!(run.q.is_zero(), "{}", run.q);
    }

    #[test]
    fn output_is_always_clean_across_overlap_sweep() {
        // the faithful latch never glitches: q is constant 0 or a single
        // rising transition, for any overlap and any adversary
        let l = latch();
        let th = l.theory().unwrap();
        let en = Signal::pulse(5.0, 10.0).unwrap();
        for i in 0..30 {
            let overlap = 0.05 + (th.lock_bound * 1.3 - 0.05) * i as f64 / 29.0;
            let d = Signal::pulse(15.0 - overlap, overlap + 20.0).unwrap();
            for seed in [3u64, 19] {
                let run = l
                    .capture(
                        UniformNoise::new(seed),
                        UniformNoise::new(seed.wrapping_add(1)),
                        &d,
                        &en,
                        400.0,
                    )
                    .unwrap();
                assert!(
                    run.q.len() <= 1,
                    "overlap {overlap}, seed {seed}: q = {}",
                    run.q
                );
                if run.q.len() == 1 {
                    assert_eq!(run.q.final_value(), Bit::One);
                }
            }
        }
    }

    #[test]
    fn marginal_overlap_can_oscillate_before_resolving() {
        let l = latch();
        let th = l.theory().unwrap();
        // the AND→OR channel attenuates the overlap pulse; aim the
        // *loop-side* pulse near ∆̃₀ by probing a few source widths
        let en = Signal::pulse(5.0, 30.0).unwrap();
        let mut max_pulses = 0;
        for i in 0..60 {
            let overlap = th.delta0_tilde * (0.9 + 0.02 * i as f64);
            let d = Signal::pulse(35.0 - overlap, overlap + 20.0).unwrap();
            let run = l
                .capture(WorstCaseAdversary, WorstCaseAdversary, &d, &en, 400.0)
                .unwrap();
            let pulses = ivl_core::PulseStats::of(&run.loop_signal).pulse_count();
            max_pulses = max_pulses.max(pulses);
        }
        assert!(
            max_pulses >= 3,
            "some marginal overlap must produce a metastable train, got {max_pulses}"
        );
    }

    #[test]
    fn rejects_non_one_shot_enable() {
        let l = latch();
        let en = Signal::pulse_train([(0.0, 1.0), (5.0, 1.0)]).unwrap();
        let d = Signal::pulse(0.0, 10.0).unwrap();
        assert!(l.capture(ZeroNoise, ZeroNoise, &d, &en, 100.0).is_err());
        let en_high = Signal::constant(Bit::One);
        assert!(l
            .capture(ZeroNoise, ZeroNoise, &d, &en_high, 100.0)
            .is_err());
    }
}
