//! Built-in channels stored inline in a circuit simulate bit-identically
//! to the same channels behind a trait object: every built-in kind runs
//! twice through the event-driven simulator, once as its inline
//! `AnyChannel` variant and once wrapped as `AnyChannel::Custom`, and
//! every node signal, edge signal and counter must match bit for bit.

use ivl_circuit::{Circuit, CircuitBuilder, EdgeId, GateKind, SimError, SimResult, Simulator};
use ivl_core::channel::{
    AnyChannel, DdmEdgeParams, DegradationDelay, EtaInvolutionChannel, InertialDelay,
    InvolutionChannel, PureDelay, SimChannel,
};
use ivl_core::delay::{ExpChannel, RationalPair};
use ivl_core::noise::{
    ConstantShift, EtaBounds, ExtendingAdversary, NoiseSource, TruncatedGaussian, UniformNoise,
    WorstCaseAdversary, ZeroNoise,
};
use ivl_core::{Bit, Signal};
use proptest::prelude::*;

const STAGES: usize = 6;

/// Every built-in kind: the η kinds cover each noise source the specs
/// can name, over both delay families.
const KINDS: usize = 12;

/// The `kind`-th built-in channel, inline and wrapped as a custom
/// channel of its concrete type. `seed` seeds the random noise sources.
fn channel_pair(kind: usize, seed: u64) -> (AnyChannel, AnyChannel) {
    fn both<C: SimChannel + Clone + Into<AnyChannel> + 'static>(ch: C) -> (AnyChannel, AnyChannel) {
        (ch.clone().into(), AnyChannel::custom(ch))
    }
    fn eta<N>(noise: N) -> (AnyChannel, AnyChannel)
    where
        N: NoiseSource + Clone + Send + Sync + 'static,
        EtaInvolutionChannel<ExpChannel, N>: Into<AnyChannel>,
    {
        let bounds = EtaBounds::new(0.02, 0.03).unwrap();
        both(EtaInvolutionChannel::new(exp(), bounds, noise))
    }
    fn exp() -> ExpChannel {
        ExpChannel::new(1.0, 0.5, 0.5).unwrap()
    }
    let rational = RationalPair::new(1.2, 0.3, 1.0).unwrap();
    match kind {
        0 => both(PureDelay::new(0.7).unwrap()),
        1 => both(InertialDelay::new(0.8, 0.45).unwrap()),
        2 => both(DegradationDelay::new(
            DdmEdgeParams::new(1.0, 0.1, 0.8).unwrap(),
            DdmEdgeParams::new(0.9, 0.05, 0.6).unwrap(),
        )),
        3 => both(InvolutionChannel::new(exp())),
        4 => both(InvolutionChannel::new(rational)),
        5 => eta(ZeroNoise),
        6 => eta(WorstCaseAdversary),
        7 => eta(ExtendingAdversary),
        8 => eta(UniformNoise::new(seed)),
        9 => eta(TruncatedGaussian::new(0.01, seed).unwrap()),
        10 => eta(ConstantShift(0.015)),
        _ => both(EtaInvolutionChannel::new(
            rational,
            EtaBounds::new(0.01, 0.01).unwrap(),
            UniformNoise::new(seed),
        )),
    }
}

/// `a → inv0 → … → inv{STAGES-1} → y` with `channel` on every hop
/// after the first, and its edges.
fn chain(channel: &AnyChannel) -> (Circuit, Vec<EdgeId>) {
    let mut b = CircuitBuilder::new();
    let a = b.input("a");
    let y = b.output("y");
    let mut prev = a;
    let mut edges = Vec::new();
    for i in 0..STAGES {
        let init = if i % 2 == 0 { Bit::One } else { Bit::Zero };
        let g = b.gate(&format!("inv{i}"), GateKind::Not, init);
        edges.push(if i == 0 {
            b.connect_direct(prev, g, 0).unwrap()
        } else {
            b.connect(prev, g, 0, channel.clone()).unwrap()
        });
        prev = g;
    }
    edges.push(b.connect(prev, y, 0, channel.clone()).unwrap());
    (b.build().unwrap(), edges)
}

fn run(circuit: Circuit, input: &Signal, seed: u64) -> Result<SimResult, SimError> {
    let mut sim = Simulator::new(circuit);
    sim.reseed_noise(seed);
    sim.set_input("a", input.clone()).unwrap();
    sim.run(1e4)
}

fn bits(signal: &Signal) -> (Bit, Vec<(u64, Bit)>) {
    let transitions = signal
        .transitions()
        .iter()
        .map(|t| (t.time.to_bits(), t.value))
        .collect();
    (signal.initial(), transitions)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    /// Pulses of width 0.2–1.6 against delays near 1 straddle every
    /// kind's cancellation threshold, so both scheduling and pairwise
    /// cancellation run through the dispatch.
    #[test]
    fn inline_and_custom_channels_simulate_identically(
        kind in 0..KINDS,
        seed in 0u64..u64::MAX,
        pulses in proptest::collection::vec((0.2f64..2.0, 0.2f64..1.6), 1..12),
    ) {
        let mut t = 0.0;
        let train: Vec<(f64, f64)> = pulses
            .iter()
            .map(|&(gap, width)| {
                t += gap;
                let start = t;
                t += width;
                (start, width)
            })
            .collect();
        let input = Signal::pulse_train(train).unwrap();
        let (inline, custom) = channel_pair(kind, seed);
        prop_assert!(!matches!(inline, AnyChannel::Custom(_)), "kind {} not inline", kind);
        let (circuit, edges) = chain(&inline);
        let a = run(circuit.clone(), &input, seed);
        let b = run(chain(&custom).0, &input, seed);
        // a delay that goes negative can land an output in the past; the
        // simulator must then refuse both runs with the same error
        let (a, b) = match (a, b) {
            (Ok(a), Ok(b)) => (a, b),
            (a, b) => {
                prop_assert_eq!(format!("{:?}", a.err()), format!("{:?}", b.err()));
                return Ok(());
            }
        };
        prop_assert_eq!(a.processed_events(), b.processed_events());
        prop_assert_eq!(a.scheduled_events(), b.scheduled_events());
        prop_assert_eq!(a.dropped_transitions(), b.dropped_transitions());
        for name in circuit.node_names() {
            prop_assert_eq!(
                bits(a.signal(name).unwrap()),
                bits(b.signal(name).unwrap()),
                "kind {}: node {} diverges", kind, name
            );
        }
        for e in edges {
            prop_assert_eq!(bits(a.edge_signal(e)), bits(b.edge_signal(e)));
        }
    }
}
