//! The event-driven simulator must agree exactly with batch channel
//! composition on feed-forward circuits — property-tested over random
//! pipelines and random stimuli.

use faithful::circuit::{CircuitBuilder, GateKind, Simulator};
use faithful::core::channel::{
    AnyChannel, Channel, EtaInvolutionChannel, InvolutionChannel, PureDelay,
};
use faithful::core::delay::{DelayPair, ExpChannel};
use faithful::core::noise::{EtaBounds, RecordedChoices};
use faithful::{Bit, Signal};
use proptest::prelude::*;

fn arb_signal() -> impl Strategy<Value = Signal> {
    proptest::collection::vec(0.05f64..2.5, 1..16).prop_map(|gaps| {
        let mut t = 0.0;
        let mut times = Vec::new();
        for g in gaps {
            t += g;
            times.push(t);
        }
        Signal::from_times(Bit::Zero, &times).expect("increasing")
    })
}

fn arb_exp() -> impl Strategy<Value = ExpChannel> {
    (0.3f64..2.0, 0.1f64..0.8, 0.25f64..0.75)
        .prop_map(|(tau, tp, vth)| ExpChannel::new(tau, tp, vth).expect("valid"))
}

/// Builds an n-stage inverter pipeline with the given involution delay
/// and runs the stimulus through the event-driven simulator.
fn simulate_pipeline(stages: usize, d: &ExpChannel, input: &Signal, horizon: f64) -> Signal {
    let mut b = CircuitBuilder::new();
    let a = b.input("a");
    let y = b.output("y");
    let mut prev = a;
    let mut prev_initial = input.initial();
    for i in 0..stages {
        let initial = !prev_initial;
        let g = b.gate(&format!("inv{i}"), GateKind::Not, initial);
        if i == 0 {
            b.connect_direct(prev, g, 0).unwrap();
        } else {
            b.connect(prev, g, 0, InvolutionChannel::new(d.clone()))
                .unwrap();
        }
        prev = g;
        prev_initial = initial;
    }
    b.connect(prev, y, 0, InvolutionChannel::new(d.clone()))
        .unwrap();
    let mut sim = Simulator::new(b.build().unwrap());
    sim.set_input("a", input.clone()).unwrap();
    sim.run(horizon).unwrap().signal("y").unwrap().clone()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn event_driven_equals_batch_on_pipelines(
        input in arb_signal(),
        d in arb_exp(),
        stages in 1usize..5,
    ) {
        let horizon = 1e6;
        let sim_out = simulate_pipeline(stages, &d, &input, horizon);
        // batch reference: stage 0 has a direct connection, so the first
        // complement happens before any channel; each stage contributes
        // complement + channel, and the output channel closes the chain.
        let mut s = input.clone();
        for _ in 0..stages {
            s = s.complemented();
            // channel between this gate and the next element
            let mut c = InvolutionChannel::new(d.clone());
            s = c.apply(&s);
        }
        prop_assert!(
            sim_out.approx_eq(&s, 1e-9),
            "stages={stages}\nsim:   {sim_out}\nbatch: {s}"
        );
    }

    #[test]
    fn reused_sim_state_matches_fresh_simulator(
        input in arb_signal(),
        d in arb_exp(),
        stages in 1usize..5,
    ) {
        // the simulator rebuilds its per-run state in place; a second and
        // third run on warm buffers must agree *bitwise* with the first
        // run of a freshly constructed simulator
        let horizon = 1e6;
        let build = |stages: usize, d: &ExpChannel, input: &Signal| {
            let mut b = CircuitBuilder::new();
            let a = b.input("a");
            let y = b.output("y");
            let mut prev = a;
            let mut prev_initial = input.initial();
            for i in 0..stages {
                let initial = !prev_initial;
                let g = b.gate(&format!("inv{i}"), GateKind::Not, initial);
                if i == 0 {
                    b.connect_direct(prev, g, 0).unwrap();
                } else {
                    b.connect(prev, g, 0, InvolutionChannel::new(d.clone())).unwrap();
                }
                prev = g;
                prev_initial = initial;
            }
            b.connect(prev, y, 0, InvolutionChannel::new(d.clone())).unwrap();
            let mut sim = Simulator::new(b.build().unwrap());
            sim.set_input("a", input.clone()).unwrap();
            sim
        };
        let mut fresh = build(stages, &d, &input);
        let reference = fresh.run(horizon).unwrap();

        let mut reused = build(stages, &d, &input);
        for round in 0..3 {
            let run = reused.run(horizon).unwrap();
            prop_assert_eq!(
                run.signal("y").unwrap(),
                reference.signal("y").unwrap(),
                "round {} diverged", round
            );
            prop_assert_eq!(run.processed_events(), reference.processed_events());
            prop_assert_eq!(run.scheduled_events(), reference.scheduled_events());
        }
    }

    #[test]
    fn eta_channel_in_circuit_matches_batch_with_same_choices(
        input in arb_signal(),
        d in arb_exp(),
        etas in proptest::collection::vec(-0.02f64..0.02, 32),
    ) {
        // one buffer stage with an η-involution channel driven by a
        // recorded adversary: simulator and batch see identical choices
        let bounds = EtaBounds::new(0.02, 0.02).unwrap();
        let mut b = CircuitBuilder::new();
        let a = b.input("a");
        let g = b.gate("buf", GateKind::Buf, Bit::Zero);
        let y = b.output("y");
        b.connect_direct(a, g, 0).unwrap();
        b.connect(
            g,
            y,
            0,
            AnyChannel::custom(EtaInvolutionChannel::new(
                d.clone(),
                bounds,
                RecordedChoices::new(etas.clone()),
            )),
        )
        .unwrap();
        let mut sim = Simulator::new(b.build().unwrap());
        sim.set_input("a", input.clone()).unwrap();
        let sim_out = sim.run(1e6).unwrap().signal("y").unwrap().clone();

        let mut batch =
            EtaInvolutionChannel::new(d, bounds, RecordedChoices::new(etas));
        let want = batch.apply(&input);
        prop_assert!(sim_out.approx_eq(&want, 1e-9), "sim: {sim_out}\nwant: {want}");
    }

    #[test]
    fn fanout_delivers_identical_signals(input in arb_signal(), delay in 0.2f64..2.0) {
        // one driver, two pure-delay branches with equal delay: both
        // outputs must be identical
        let mut b = CircuitBuilder::new();
        let a = b.input("a");
        let g = b.gate("buf", GateKind::Buf, Bit::Zero);
        let y1 = b.output("y1");
        let y2 = b.output("y2");
        b.connect_direct(a, g, 0).unwrap();
        b.connect(g, y1, 0, PureDelay::new(delay).unwrap()).unwrap();
        b.connect(g, y2, 0, PureDelay::new(delay).unwrap()).unwrap();
        let mut sim = Simulator::new(b.build().unwrap());
        sim.set_input("a", input.clone()).unwrap();
        let run = sim.run(1e6).unwrap();
        prop_assert_eq!(run.signal("y1").unwrap(), run.signal("y2").unwrap());
        prop_assert!(run
            .signal("y1")
            .unwrap()
            .approx_eq(&input.shifted(delay), 1e-12));
    }

    #[test]
    fn xor_cancels_identical_paths(input in arb_signal(), delay in 0.2f64..2.0) {
        // a XOR of two identical delayed copies of one signal is
        // constant 0 — transient-free because the deliveries coincide
        // exactly and the gate evaluates once per batch
        let mut b = CircuitBuilder::new();
        let a = b.input("a");
        let buf = b.gate("buf", GateKind::Buf, Bit::Zero);
        let xor = b.gate("xor", GateKind::Xor, Bit::Zero);
        let y = b.output("y");
        b.connect_direct(a, buf, 0).unwrap();
        b.connect(buf, xor, 0, PureDelay::new(delay).unwrap()).unwrap();
        b.connect(buf, xor, 1, PureDelay::new(delay).unwrap()).unwrap();
        b.connect(xor, y, 0, PureDelay::new(0.1).unwrap()).unwrap();
        let mut sim = Simulator::new(b.build().unwrap());
        sim.set_input("a", input.clone()).unwrap();
        let run = sim.run(1e6).unwrap();
        prop_assert!(run.signal("y").unwrap().is_zero());
    }
}

#[test]
fn or_loop_with_involution_channel_latches_like_theory_says() {
    // smoke test bridging circuit and spf crates at the integration level
    let d = ExpChannel::new(1.0, 0.5, 0.5).unwrap();
    let lock = d.delta_up_inf(); // η = 0 lock bound (Lemma 3)
    let mut b = CircuitBuilder::new();
    let i = b.input("i");
    let or = b.gate("or", GateKind::Or, Bit::Zero);
    let y = b.output("y");
    b.connect_direct(i, or, 0).unwrap();
    b.connect(or, or, 1, InvolutionChannel::new(d.clone()))
        .unwrap();
    b.connect(or, y, 0, PureDelay::new(0.1).unwrap()).unwrap();
    let mut sim = Simulator::new(b.build().unwrap());
    sim.set_input("i", Signal::pulse(0.0, lock + 0.1).unwrap())
        .unwrap();
    let run = sim.run(100.0).unwrap();
    let or_sig = run.signal("or").unwrap();
    assert_eq!(or_sig.len(), 1, "{or_sig}");
    assert_eq!(or_sig.final_value(), Bit::One);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn zero_time_gates_match_signal_combinators(
        gaps_a in proptest::collection::vec(0.05f64..2.0, 0..12),
        gaps_b in proptest::collection::vec(0.05f64..2.0, 0..12),
    ) {
        // a gate wired directly between ports computes the zero-time
        // Boolean function — exactly what Signal::{and,or,xor} implement
        let to_signal = |gaps: &[f64]| {
            let mut t = 0.0;
            let times: Vec<f64> = gaps.iter().map(|g| { t += g; t }).collect();
            Signal::from_times(Bit::Zero, &times).unwrap()
        };
        let sa = to_signal(&gaps_a);
        let sb = to_signal(&gaps_b);
        for (kind, expect) in [
            (GateKind::And, sa.and(&sb)),
            (GateKind::Or, sa.or(&sb)),
            (GateKind::Xor, sa.xor(&sb)),
        ] {
            let mut b = CircuitBuilder::new();
            let a = b.input("a");
            let bb = b.input("b");
            let g = b.gate("g", kind, Bit::Zero);
            let y = b.output("y");
            b.connect_direct(a, g, 0).unwrap();
            b.connect_direct(bb, g, 1).unwrap();
            b.connect_direct(g, y, 0).unwrap();
            let mut sim = Simulator::new(b.build().unwrap());
            sim.set_input("a", sa.clone()).unwrap();
            sim.set_input("b", sb.clone()).unwrap();
            let run = sim.run(1e9).unwrap();
            prop_assert_eq!(run.signal("y").unwrap(), &expect);
        }
    }
}

#[test]
fn simulator_runs_are_deterministic_with_seeded_adversaries() {
    // two identical simulators with identical seeds must produce
    // bit-identical results — determinism is what makes adversarial
    // counterexamples reproducible
    use faithful::core::noise::UniformNoise;
    let build = || {
        let d = ExpChannel::new(1.0, 0.5, 0.5).unwrap();
        let bounds = EtaBounds::new(0.02, 0.02).unwrap();
        let mut b = CircuitBuilder::new();
        let i = b.input("i");
        let or = b.gate("or", GateKind::Or, Bit::Zero);
        let y = b.output("y");
        b.connect_direct(i, or, 0).unwrap();
        b.connect(
            or,
            or,
            1,
            EtaInvolutionChannel::new(d.clone(), bounds, UniformNoise::new(11)),
        )
        .unwrap();
        b.connect(or, y, 0, InvolutionChannel::new(d)).unwrap();
        let mut sim = Simulator::new(b.build().unwrap());
        sim.set_input("i", Signal::pulse(0.0, 1.18).unwrap())
            .unwrap();
        sim
    };
    let a = build().run(300.0).unwrap();
    let b = build().run(300.0).unwrap();
    assert_eq!(a.signal("or").unwrap(), b.signal("or").unwrap());
    assert_eq!(a.signal("y").unwrap(), b.signal("y").unwrap());
    assert_eq!(a.processed_events(), b.processed_events());
}
