//! A cross-coupled NOR SR-latch over η-involution channels: two
//! interlocking feedback loops — a harder topology than the single-loop
//! SPF circuit, and the classic metastability scenario behind the
//! paper's arbiter/synchronizer/latch equivalence (ref. [1]).

use faithful::circuit::{CircuitBuilder, GateKind, Simulator};
use faithful::core::channel::{AnyChannel, EtaInvolutionChannel};
use faithful::core::delay::ExpChannel;
use faithful::core::noise::{EtaBounds, NoiseSource, UniformNoise, ZeroNoise};
use faithful::{Bit, Signal};

/// Builds the latch: Q = NOR(R, Qb), Qb = NOR(S, Q), with η-involution
/// channels on the cross-coupling paths. Initial state: Q = 0, Qb = 1.
fn simulate_sr<N1, N2>(s: &Signal, r: &Signal, n1: N1, n2: N2, horizon: f64) -> (Signal, Signal)
where
    N1: NoiseSource + Clone + Send + Sync + 'static,
    N2: NoiseSource + Clone + Send + Sync + 'static,
{
    let d = ExpChannel::new(1.0, 0.5, 0.5).unwrap();
    let bounds = EtaBounds::new(0.02, 0.02).unwrap();
    let mut b = CircuitBuilder::new();
    let s_in = b.input("s");
    let r_in = b.input("r");
    let q_gate = b.gate("q", GateKind::Nor, Bit::Zero);
    let qb_gate = b.gate("qb", GateKind::Nor, Bit::One);
    let q_out = b.output("q_out");
    let qb_out = b.output("qb_out");
    b.connect_direct(r_in, q_gate, 0).unwrap();
    b.connect(
        qb_gate,
        q_gate,
        1,
        AnyChannel::custom(EtaInvolutionChannel::new(d.clone(), bounds, n1)),
    )
    .unwrap();
    b.connect_direct(s_in, qb_gate, 0).unwrap();
    b.connect(
        q_gate,
        qb_gate,
        1,
        AnyChannel::custom(EtaInvolutionChannel::new(d.clone(), bounds, n2)),
    )
    .unwrap();
    b.connect_direct(q_gate, q_out, 0).unwrap();
    b.connect_direct(qb_gate, qb_out, 0).unwrap();
    let mut sim = Simulator::new(b.build().unwrap());
    sim.set_input("s", s.clone()).unwrap();
    sim.set_input("r", r.clone()).unwrap();
    let run = sim.run(horizon).unwrap();
    (
        run.signal("q_out").unwrap().clone(),
        run.signal("qb_out").unwrap().clone(),
    )
}

#[test]
fn set_then_reset() {
    // S pulse latches Q high; a later R pulse brings it back down
    let s = Signal::pulse(0.0, 5.0).unwrap();
    let r = Signal::pulse(20.0, 5.0).unwrap();
    let (q, qb) = simulate_sr(&s, &r, ZeroNoise, ZeroNoise, 60.0);
    assert_eq!(q.value_at(15.0), Bit::One, "set: {q}");
    assert_eq!(qb.value_at(15.0), Bit::Zero);
    assert_eq!(q.final_value(), Bit::Zero, "reset: {q}");
    assert_eq!(qb.final_value(), Bit::One);
}

#[test]
fn outputs_are_complementary_when_settled() {
    let s = Signal::pulse(0.0, 5.0).unwrap();
    let r = Signal::pulse(30.0, 5.0).unwrap();
    let (q, qb) = simulate_sr(&s, &r, UniformNoise::new(3), UniformNoise::new(4), 80.0);
    // away from switching windows, Q and Qb are complementary
    for t in [20.0, 25.0, 60.0, 75.0] {
        assert_ne!(q.value_at(t), qb.value_at(t), "t = {t}: {q} / {qb}");
    }
}

#[test]
fn state_holds_without_inputs() {
    let s = Signal::pulse(0.0, 5.0).unwrap();
    let (q, _) = simulate_sr(&s, &Signal::zero(), ZeroNoise, ZeroNoise, 500.0);
    assert_eq!(q.final_value(), Bit::One);
    // exactly one rising transition — no re-glitching over a long horizon
    assert_eq!(q.len(), 1, "{q}");
}

#[test]
fn near_simultaneous_release_resolves_cleanly_under_noise() {
    // Both inputs high, released almost simultaneously — the classic
    // metastability hazard. Whatever the adversary does, the latch must
    // settle to *some* complementary state with no runt pulses at the
    // outputs beyond the decision window.
    for seed in 0..10u64 {
        for skew in [-0.3, -0.1, 0.0, 0.1, 0.3] {
            let s = Signal::pulse(0.0, 10.0).unwrap();
            let r = Signal::pulse(0.0, 10.0 + skew).unwrap();
            let (q, qb) = simulate_sr(
                &s,
                &r,
                UniformNoise::new(seed),
                UniformNoise::new(seed.wrapping_add(77)),
                400.0,
            );
            // settled well before the horizon
            let last = q
                .last_time()
                .unwrap_or(0.0)
                .max(qb.last_time().unwrap_or(0.0));
            assert!(
                last < 350.0,
                "seed {seed}, skew {skew}: still busy at {last}"
            );
            // complementary end state
            assert_ne!(
                q.final_value(),
                qb.final_value(),
                "seed {seed}, skew {skew}: {q} / {qb}"
            );
        }
    }
}

#[test]
fn metastability_duration_varies_with_adversary() {
    // at zero skew, different adversaries resolve at different times —
    // the non-determinism the η model is built to capture
    let mut settle_times = Vec::new();
    for seed in 0..12u64 {
        let s = Signal::pulse(0.0, 10.0).unwrap();
        let r = Signal::pulse(0.0, 10.0).unwrap();
        let (q, qb) = simulate_sr(
            &s,
            &r,
            UniformNoise::new(seed),
            UniformNoise::new(seed.wrapping_add(1000)),
            400.0,
        );
        let last = q
            .last_time()
            .unwrap_or(0.0)
            .max(qb.last_time().unwrap_or(0.0));
        settle_times.push(last);
    }
    let min = settle_times.iter().cloned().fold(f64::MAX, f64::min);
    let max = settle_times.iter().cloned().fold(f64::MIN, f64::max);
    assert!(
        max - min > 0.01,
        "adversaries must matter: {settle_times:?}"
    );
}
