//! Executable verification of the SPF conditions F1–F4 and outcome
//! classification for Theorem 9.

use ivl_core::delay::DelayPair;
use ivl_core::noise::{ExtendingAdversary, UniformNoise, WorstCaseAdversary, ZeroNoise};
use ivl_core::{Bit, Signal};

use crate::circuit::SpfCircuit;
use crate::error::Error;

/// Classified behaviour of the storage loop (the OR output) in one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LoopOutcome {
    /// The loop output returned to 0 and stayed there (pulse filtered).
    Filtered {
        /// Number of complete pulses seen at the OR output.
        pulses: usize,
    },
    /// The loop output latched to constant 1.
    Latched {
        /// Number of complete pulses before latching.
        pulses: usize,
        /// Time of the final rising transition.
        settled_at: f64,
    },
    /// The loop was still switching close to the horizon (metastable).
    Oscillating {
        /// Number of complete pulses observed.
        pulses: usize,
    },
}

impl LoopOutcome {
    /// Classifies an OR-output signal observed until `horizon`. A run
    /// counts as settled if its last transition precedes the horizon by
    /// at least `quiet_margin`.
    #[must_use]
    pub fn classify(or_signal: &Signal, horizon: f64, quiet_margin: f64) -> Self {
        let stats = ivl_core::PulseStats::of(or_signal);
        let pulses = stats.pulse_count();
        match or_signal.last_time() {
            None => LoopOutcome::Filtered { pulses },
            Some(t) if t + quiet_margin > horizon => LoopOutcome::Oscillating { pulses },
            Some(t) => {
                if or_signal.final_value() == Bit::One {
                    LoopOutcome::Latched {
                        pulses,
                        settled_at: t,
                    }
                } else {
                    LoopOutcome::Filtered { pulses }
                }
            }
        }
    }
}

/// Result of an F1–F4 verification battery.
#[derive(Debug, Clone)]
pub struct SpfReport {
    /// F1: exactly one input and one output port (by construction).
    pub f1_well_formed: bool,
    /// F2: every adversary mapped the zero input to the zero output.
    pub f2_no_generation: bool,
    /// F3: some pulse produced a non-zero output.
    pub f3_nontrivial: bool,
    /// F4: minimal output transition separation observed across the
    /// battery (`None` if no output ever had two transitions — the
    /// strongest possible pass).
    pub f4_min_output_interval: Option<f64>,
    /// Number of (pulse, adversary) runs executed.
    pub runs: usize,
    /// Runs whose output was neither zero nor a single rising transition
    /// (must be 0 for a correct SPF circuit).
    pub anomalies: usize,
}

impl SpfReport {
    /// `true` if all four conditions hold, with `epsilon` as the F4
    /// witness (vacuously satisfied when no output pulse exists).
    #[must_use]
    pub fn passes(&self, epsilon: f64) -> bool {
        self.f1_well_formed
            && self.f2_no_generation
            && self.f3_nontrivial
            && self.anomalies == 0
            && self.f4_min_output_interval.is_none_or(|m| m >= epsilon)
    }
}

/// Runs the F1–F4 battery for an [`SpfCircuit`]: the zero signal plus
/// every width in `pulse_widths`, each under the zero, worst-case,
/// extending and several uniform-random adversaries.
///
/// # Errors
///
/// Propagates simulation errors.
pub fn verify_spf<D>(
    circuit: &SpfCircuit<D>,
    pulse_widths: &[f64],
    horizon: f64,
) -> Result<SpfReport, Error>
where
    D: DelayPair + Clone + Send + Sync + 'static,
{
    let mut report = SpfReport {
        f1_well_formed: true, // the Fig. 5 builder has exactly one i and one o
        f2_no_generation: true,
        f3_nontrivial: false,
        f4_min_output_interval: None,
        runs: 0,
        anomalies: 0,
    };

    let consider = |output: &Signal, report: &mut SpfReport| {
        if !output.is_zero() {
            report.f3_nontrivial = true;
        }
        if let Some(min) = output.min_interval() {
            report.f4_min_output_interval = Some(
                report
                    .f4_min_output_interval
                    .map_or(min, |m: f64| m.min(min)),
            );
        }
        let clean = output.is_zero() || (output.len() == 1 && output.final_value() == Bit::One);
        if !clean {
            report.anomalies += 1;
        }
    };

    // F2: zero input under several adversaries
    for seed in 0..3u64 {
        let run = circuit.simulate(UniformNoise::new(seed), &Signal::zero(), horizon)?;
        report.runs += 1;
        if !run.output.is_zero() {
            report.f2_no_generation = false;
        }
    }
    {
        let run = circuit.simulate(ZeroNoise, &Signal::zero(), horizon)?;
        report.runs += 1;
        if !run.output.is_zero() {
            report.f2_no_generation = false;
        }
    }

    // pulse battery × adversary battery
    for &w in pulse_widths {
        let input = Signal::pulse(0.0, w).map_err(Error::Core)?;
        let run = circuit.simulate(ZeroNoise, &input, horizon)?;
        report.runs += 1;
        consider(&run.output, &mut report);
        let run = circuit.simulate(WorstCaseAdversary, &input, horizon)?;
        report.runs += 1;
        consider(&run.output, &mut report);
        let run = circuit.simulate(ExtendingAdversary, &input, horizon)?;
        report.runs += 1;
        consider(&run.output, &mut report);
        for seed in 0..4u64 {
            let run =
                circuit.simulate(UniformNoise::new(seed.wrapping_mul(97)), &input, horizon)?;
            report.runs += 1;
            consider(&run.output, &mut report);
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivl_core::delay::ExpChannel;
    use ivl_core::noise::EtaBounds;

    fn spf() -> SpfCircuit<ExpChannel> {
        SpfCircuit::dimensioned(
            ExpChannel::new(1.0, 0.5, 0.5).unwrap(),
            EtaBounds::new(0.02, 0.02).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn classify_outcomes() {
        let latched = Signal::from_times(Bit::Zero, &[1.0]).unwrap();
        assert!(matches!(
            LoopOutcome::classify(&latched, 100.0, 5.0),
            LoopOutcome::Latched { pulses: 0, .. }
        ));
        let filtered = Signal::pulse(0.0, 1.0).unwrap();
        assert!(matches!(
            LoopOutcome::classify(&filtered, 100.0, 5.0),
            LoopOutcome::Filtered { pulses: 1 }
        ));
        assert!(matches!(
            LoopOutcome::classify(&Signal::zero(), 100.0, 5.0),
            LoopOutcome::Filtered { pulses: 0 }
        ));
        // activity near the horizon counts as oscillating
        let busy = Signal::pulse(97.0, 1.0).unwrap();
        assert!(matches!(
            LoopOutcome::classify(&busy, 100.0, 5.0),
            LoopOutcome::Oscillating { pulses: 1 }
        ));
    }

    #[test]
    fn full_battery_passes_theorem_12() {
        let c = spf();
        let th = c.theory().unwrap();
        let widths = [
            th.filter_bound * 0.5,
            th.filter_bound,
            th.delta0_tilde * 0.98,
            th.delta0_tilde,
            th.delta0_tilde * 1.02,
            th.lock_bound,
            th.lock_bound * 2.0,
        ];
        let report = verify_spf(&c, &widths, 400.0).unwrap();
        assert!(report.f1_well_formed);
        assert!(report.f2_no_generation, "{report:?}");
        assert!(report.f3_nontrivial, "{report:?}");
        assert_eq!(report.anomalies, 0, "{report:?}");
        // outputs are only {zero, single rise} → F4 vacuous or large
        assert!(report.passes(1e-3), "{report:?}");
        assert!(report.runs > 20);
    }
}
