//! # ivl-spf
//!
//! Short-Pulse Filtration (SPF) with η-involution channels: the theory
//! and circuit of Section IV of *"A Faithful Binary Circuit Model with
//! Adversarial Noise"* (DATE 2018).
//!
//! A circuit solves SPF if (Definition 2 of the paper):
//!
//! * **F1** it has exactly one input and one output port;
//! * **F2** a zero input produces a zero output;
//! * **F3** some input pulse produces a non-zero output;
//! * **F4** there is an `ε > 0` such that no input pulse ever produces an
//!   output pulse shorter than `ε`.
//!
//! The crate provides:
//!
//! * [`theory`] — the analytic quantities of Lemmas 1–8: `δ_min`, the
//!   worst-case fixed point `τ` of `δ↓(η⁺−τ) + δ↑(−η⁻−τ) = τ`, the
//!   pulse-train bounds `∆`, `P`, `γ`, the threshold `∆̃₀` and the growth
//!   ratio `a = 1 + δ′↑(0)`;
//! * [`recurrence`] — the worst-case pulse-train recurrence (Eq. (2))
//!   and its fate classification;
//! * [`circuit`] — the SPF circuit of Fig. 5 (fed-back OR with an
//!   η-involution channel plus a high-threshold exp-channel buffer),
//!   including automatic buffer dimensioning per Lemmas 10/11;
//! * [`verify`] — executable checks of F1–F4 over pulse and adversary
//!   batteries.
//!
//! ```
//! use ivl_core::delay::ExpChannel;
//! use ivl_core::noise::EtaBounds;
//! use ivl_spf::theory::SpfTheory;
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let delay = ExpChannel::new(1.0, 0.5, 0.5)?;
//! let bounds = EtaBounds::new(0.02, 0.02)?;
//! let th = SpfTheory::compute(&delay, bounds)?;
//! assert!(th.delta_bar < th.delta_min); // Lemma 5: ∆ < δ_min
//! assert!(th.gamma < 1.0);              // Lemma 6: γ < 1
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod circuit;
mod error;
pub mod latch;
pub mod recurrence;
pub mod theory;
pub mod verify;

pub use circuit::{dimension_buffer, SpfCircuit, SpfRun};
pub use error::Error;
pub use recurrence::{PulseTrainFate, WorstCaseRecurrence};
pub use theory::SpfTheory;
pub use verify::{verify_spf, LoopOutcome, SpfReport};
