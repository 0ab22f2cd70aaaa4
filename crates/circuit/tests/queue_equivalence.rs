//! The calendar queue's correctness bar: **bit-identical** runs against
//! the reference binary heap, under every workload class that stresses
//! the queue differently — involution pipelines (non-FIFO
//! cancellation), cancel-heavy inertial churn (eager discard + stale
//! generations), feedback oscillation (far-future pushes + overflow),
//! and seeded adversarial noise. [`QueueBackend::Auto`] gets the same
//! bar: its runs before and after it commits to a backend
//! must be indistinguishable from the reference heap on every workload
//! class — including wide fanout, the wheel's historical regression
//! case. Plus the scenario runner's determinism bar: identical
//! `SweepResult`s across 1/2/4/7/8 workers and across repeated `run()`
//! calls on one runner.

use ivl_circuit::{
    Circuit, CircuitBuilder, GateKind, QueueBackend, Scenario, ScenarioRunner, SimResult, Simulator,
};
use ivl_core::channel::{EtaInvolutionChannel, InertialDelay, InvolutionChannel, PureDelay};
use ivl_core::delay::ExpChannel;
use ivl_core::noise::{EtaBounds, UniformNoise};
use ivl_core::{Bit, Signal};
use proptest::prelude::*;

// ======================================================================
// Circuit generators
// ======================================================================

fn involution_chain(stages: usize) -> Circuit {
    let d = ExpChannel::new(1.0, 0.5, 0.5).unwrap();
    let mut b = CircuitBuilder::new();
    let a = b.input("a");
    let y = b.output("y");
    let mut prev = a;
    for i in 0..stages {
        let init = if i % 2 == 0 { Bit::One } else { Bit::Zero };
        let g = b.gate(&format!("inv{i}"), GateKind::Not, init);
        if i == 0 {
            b.connect_direct(prev, g, 0).unwrap();
        } else {
            b.connect(prev, g, 0, InvolutionChannel::new(d.clone()))
                .unwrap();
        }
        prev = g;
    }
    b.connect(prev, y, 0, InvolutionChannel::new(d)).unwrap();
    b.build().unwrap()
}

/// Inertial chain whose narrow input pulses are rejected in-channel:
/// heavy schedule-then-cancel churn, recycling pool slots and leaving
/// stale generations behind in the queue.
fn inertial_chain(stages: usize, window: f64) -> Circuit {
    let mut b = CircuitBuilder::new();
    let a = b.input("a");
    let mut prev = a;
    for i in 0..stages {
        let g = b.gate(&format!("buf{i}"), GateKind::Buf, Bit::Zero);
        if i == 0 {
            b.connect_direct(prev, g, 0).unwrap();
        } else {
            b.connect(prev, g, 0, InertialDelay::new(0.5, window).unwrap())
                .unwrap();
        }
        prev = g;
    }
    let y = b.output("y");
    b.connect(prev, y, 0, InertialDelay::new(0.5, window).unwrap())
        .unwrap();
    b.build().unwrap()
}

/// The Fig. 5-style feedback loop: a fed-back OR oscillates, pushing
/// events one loop-delay ahead forever (exercises wheel advancement and
/// the overflow level for long horizons).
fn feedback_loop(loop_delay: f64) -> Circuit {
    let mut b = CircuitBuilder::new();
    let i = b.input("i");
    let or = b.gate("or", GateKind::Or, Bit::Zero);
    let y = b.output("y");
    b.connect_direct(i, or, 0).unwrap();
    b.connect(or, or, 1, PureDelay::new(loop_delay).unwrap())
        .unwrap();
    b.connect(or, y, 0, PureDelay::new(0.5).unwrap()).unwrap();
    b.build().unwrap()
}

/// One driver fanning out to `branches` parallel buffers through
/// channels with widely spread delays: every batch scatters events over
/// many sparse calendar buckets (the `fanout_grid` regression shape).
fn fanout_star(branches: usize) -> Circuit {
    let mut b = CircuitBuilder::new();
    let a = b.input("a");
    let drv = b.gate("drv", GateKind::Buf, Bit::Zero);
    b.connect_direct(a, drv, 0).unwrap();
    for i in 0..branches {
        let g = b.gate(&format!("b{i}"), GateKind::Buf, Bit::Zero);
        b.connect(drv, g, 0, PureDelay::new(0.3 + 1.7 * i as f64).unwrap())
            .unwrap();
        let y = b.output(&format!("y{i}"));
        b.connect(g, y, 0, PureDelay::new(0.2).unwrap()).unwrap();
    }
    b.build().unwrap()
}

/// η-involution channel with a seeded uniform adversary: noise draws
/// must line up transition for transition across backends.
fn noisy_circuit() -> Circuit {
    let d = ExpChannel::new(1.0, 0.5, 0.5).unwrap();
    let bounds = EtaBounds::new(0.02, 0.02).unwrap();
    let mut b = CircuitBuilder::new();
    let a = b.input("a");
    let buf = b.gate("buf", GateKind::Buf, Bit::Zero);
    let y = b.output("y");
    b.connect_direct(a, buf, 0).unwrap();
    b.connect(
        buf,
        y,
        0,
        EtaInvolutionChannel::new(d, bounds, UniformNoise::new(0)),
    )
    .unwrap();
    b.build().unwrap()
}

// ======================================================================
// Comparison helpers
// ======================================================================

/// Runs the same circuit + input on both backends and demands bitwise
/// identical results (every node signal, every counter).
fn assert_backends_agree(circuit: &Circuit, input: &Signal, horizon: f64, seed: Option<u64>) {
    let run = |backend: QueueBackend| -> SimResult {
        let mut sim = Simulator::new(circuit.clone()).with_queue_backend(backend);
        if let Some(seed) = seed {
            sim.reseed_noise(seed);
        }
        sim.set_input("a", input.clone()).unwrap();
        sim.run(horizon).unwrap()
    };
    let heap = run(QueueBackend::Heap);
    let calendar = run(QueueBackend::Calendar);
    assert_eq!(heap.processed_events(), calendar.processed_events());
    assert_eq!(heap.scheduled_events(), calendar.scheduled_events());
    for name in circuit.node_names() {
        assert_eq!(
            heap.signal(name).unwrap(),
            calendar.signal(name).unwrap(),
            "node {name} diverges"
        );
    }
}

/// Runs the circuit once on the reference heap, then **three times** on
/// one `Auto` simulator — the first runs on the heap, the rest on
/// whichever backend it committed to — and demands every run match the
/// reference bitwise. Whatever it commits to, Auto must be invisible.
fn assert_auto_is_invisible(
    circuit: &Circuit,
    port: &str,
    input: &Signal,
    horizon: f64,
    seed: Option<u64>,
) {
    let reference = {
        let mut sim = Simulator::new(circuit.clone()).with_queue_backend(QueueBackend::Heap);
        if let Some(seed) = seed {
            sim.reseed_noise(seed);
        }
        sim.set_input(port, input.clone()).unwrap();
        sim.run(horizon).unwrap()
    };
    let mut auto = Simulator::new(circuit.clone()).with_queue_backend(QueueBackend::Auto);
    auto.set_input(port, input.clone()).unwrap();
    for round in 0..3 {
        if let Some(seed) = seed {
            auto.reseed_noise(seed);
        }
        let run = auto.run(horizon).unwrap();
        for name in circuit.node_names() {
            assert_eq!(
                reference.signal(name).unwrap(),
                run.signal(name).unwrap(),
                "auto round {round}: node {name} diverges"
            );
        }
        assert_eq!(reference.processed_events(), run.processed_events());
        assert_eq!(reference.scheduled_events(), run.scheduled_events());
    }
}

fn pulse_train(gaps: &[f64], widths: &[f64]) -> Signal {
    let mut t = 0.0;
    let mut pulses = Vec::new();
    for (gap, width) in gaps.iter().zip(widths) {
        t += gap;
        pulses.push((t, *width));
        t += width;
    }
    Signal::pulse_train(pulses).unwrap()
}

// ======================================================================
// Property tests
// ======================================================================

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Involution pipelines: non-FIFO cancellation, variable stage
    /// counts, irregular stimuli.
    #[test]
    fn calendar_matches_heap_on_involution_chains(
        stages in 1usize..24,
        gaps in proptest::collection::vec(0.1f64..6.0, 1..12),
        widths in proptest::collection::vec(0.05f64..4.0, 12),
    ) {
        let circuit = involution_chain(stages);
        let input = pulse_train(&gaps, &widths);
        assert_backends_agree(&circuit, &input, 500.0, None);
    }

    /// Cancel-heavy inertial churn: most pulses are rejected inside the
    /// channels, so the queue is dominated by eagerly-discarded (or
    /// stale) events and recycled pool generations.
    #[test]
    fn calendar_matches_heap_on_cancel_heavy_inertial(
        stages in 1usize..12,
        window in 0.6f64..3.0,
        gaps in proptest::collection::vec(0.5f64..4.0, 1..20),
        // most widths are below any sampled window: heavy rejection
        widths in proptest::collection::vec(0.01f64..0.7, 20),
    ) {
        let circuit = inertial_chain(stages, window);
        let input = pulse_train(&gaps, &widths);
        assert_backends_agree(&circuit, &input, 500.0, None);
    }

    /// Feedback oscillation: unbounded event generation until the
    /// horizon, wheel revolutions and far-future overflow.
    #[test]
    fn calendar_matches_heap_on_feedback_loops(
        loop_delay in 0.3f64..50.0,
        pulse_width in 0.05f64..10.0,
        horizon in 50.0f64..2000.0,
    ) {
        let circuit = feedback_loop(loop_delay);
        let pick = |backend| {
            let mut sim = Simulator::new(circuit.clone())
                .with_queue_backend(backend)
                .with_max_events(200_000);
            sim.set_input("i", Signal::pulse(0.0, pulse_width).unwrap()).unwrap();
            sim.run(horizon)
        };
        match (pick(QueueBackend::Heap), pick(QueueBackend::Calendar)) {
            (Ok(h), Ok(c)) => {
                prop_assert_eq!(h.signal("or").unwrap(), c.signal("or").unwrap());
                prop_assert_eq!(h.signal("y").unwrap(), c.signal("y").unwrap());
                prop_assert_eq!(h.processed_events(), c.processed_events());
            }
            // budget exhaustion must strike both backends identically
            (Err(h), Err(c)) => prop_assert_eq!(format!("{h}"), format!("{c}")),
            (h, c) => prop_assert!(false, "backends diverge: heap {h:?} vs calendar {c:?}"),
        }
    }

    /// Seeded adversarial noise: the η draws are consumed in feed order,
    /// so any delivery-order divergence would desynchronize the streams
    /// and show up as different waveforms.
    #[test]
    fn calendar_matches_heap_under_noise(
        seed in 0u64..1000,
        gaps in proptest::collection::vec(0.5f64..5.0, 1..10),
        widths in proptest::collection::vec(0.5f64..4.0, 10),
    ) {
        let circuit = noisy_circuit();
        let input = pulse_train(&gaps, &widths);
        assert_backends_agree(&circuit, &input, 500.0, Some(seed));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Auto on involution pipelines: bit-identical to the reference
    /// heap before and after it commits.
    #[test]
    fn auto_matches_heap_on_involution_chains(
        stages in 1usize..16,
        gaps in proptest::collection::vec(0.1f64..6.0, 1..10),
        widths in proptest::collection::vec(0.05f64..4.0, 10),
    ) {
        let circuit = involution_chain(stages);
        let input = pulse_train(&gaps, &widths);
        assert_auto_is_invisible(&circuit, "a", &input, 500.0, None);
    }

    /// Auto on wide fanout — the shape where the wheel historically
    /// *lost* to the heap, so this is exactly where Auto's choice
    /// matters and must stay invisible in the results.
    #[test]
    fn auto_matches_heap_on_fanout_stars(
        branches in 2usize..24,
        gaps in proptest::collection::vec(0.5f64..8.0, 1..8),
        widths in proptest::collection::vec(0.2f64..5.0, 8),
    ) {
        let circuit = fanout_star(branches);
        let input = pulse_train(&gaps, &widths);
        assert_auto_is_invisible(&circuit, "a", &input, 500.0, None);
        assert_backends_agree(&circuit, &input, 500.0, None);
    }

    /// Auto on cancel-heavy churn: the cancel rate commits the wheel;
    /// results must not notice.
    #[test]
    fn auto_matches_heap_on_cancel_heavy_inertial(
        stages in 1usize..10,
        window in 0.6f64..3.0,
        gaps in proptest::collection::vec(0.5f64..4.0, 1..16),
        widths in proptest::collection::vec(0.01f64..0.7, 16),
    ) {
        let circuit = inertial_chain(stages, window);
        let input = pulse_train(&gaps, &widths);
        assert_auto_is_invisible(&circuit, "a", &input, 500.0, None);
    }

    /// Auto on feedback oscillation (far-future pushes, overflow) and
    /// under seeded noise: Auto must track the heap reference
    /// transition for transition.
    #[test]
    fn auto_matches_heap_on_feedback_loops(
        loop_delay in 0.3f64..50.0,
        pulse_width in 0.05f64..10.0,
        horizon in 50.0f64..1000.0,
    ) {
        let circuit = feedback_loop(loop_delay);
        assert_auto_is_invisible(
            &circuit,
            "i",
            &Signal::pulse(0.0, pulse_width).unwrap(),
            horizon,
            None,
        );
    }

    /// Auto under seeded adversarial noise.
    #[test]
    fn auto_matches_heap_under_noise(
        seed in 0u64..1000,
        gaps in proptest::collection::vec(0.5f64..5.0, 1..8),
        widths in proptest::collection::vec(0.5f64..4.0, 8),
    ) {
        let circuit = noisy_circuit();
        let input = pulse_train(&gaps, &widths);
        assert_auto_is_invisible(&circuit, "a", &input, 500.0, Some(seed));
    }
}

// ======================================================================
// Sweep-level equivalence and pool determinism
// ======================================================================

fn sweep_scenarios(n: usize) -> Vec<Scenario> {
    (0..n)
        .map(|k| {
            Scenario::new(format!("s{k}"))
                .with_input(
                    "a",
                    pulse_train(
                        &[0.5 + 0.1 * k as f64, 1.0, 2.0],
                        &[3.0, 0.2, 1.0 + 0.05 * k as f64],
                    ),
                )
                .with_seed(k as u64)
        })
        .collect()
}

fn assert_sweeps_identical(a: &ivl_circuit::SweepResult, b: &ivl_circuit::SweepResult, ctx: &str) {
    assert_eq!(a.stats(), b.stats(), "{ctx}: stats diverge");
    for (x, y) in a.outcomes().iter().zip(b.outcomes()) {
        assert_eq!(x.label(), y.label(), "{ctx}");
        match (x.result(), y.result()) {
            (Ok(rx), Ok(ry)) => {
                assert_eq!(
                    rx.signal("y").unwrap(),
                    ry.signal("y").unwrap(),
                    "{ctx}: scenario {} diverges",
                    x.label()
                );
                assert_eq!(rx.processed_events(), ry.processed_events(), "{ctx}");
            }
            (Err(ex), Err(ey)) => assert_eq!(format!("{ex}"), format!("{ey}"), "{ctx}"),
            _ => panic!("{ctx}: ok/err mismatch on {}", x.label()),
        }
    }
}

/// `SweepResult`s must be bit-identical between queue backends —
/// Calendar *and* Auto (whose workers count their own scenarios and
/// commit independently, mid-sweep) — for every worker count.
#[test]
fn sweep_results_identical_across_backends_and_worker_counts() {
    let scenarios = sweep_scenarios(16);
    let reference = ScenarioRunner::new(noisy_circuit(), 300.0)
        .with_workers(1)
        .with_queue_backend(QueueBackend::Heap)
        .run(&scenarios);
    for backend in [QueueBackend::Calendar, QueueBackend::Auto] {
        for workers in [1, 2, 4, 7, 8] {
            let sweep = ScenarioRunner::new(noisy_circuit(), 300.0)
                .with_workers(workers)
                .with_queue_backend(backend)
                .run(&scenarios);
            assert_sweeps_identical(
                &reference,
                &sweep,
                &format!("{backend:?} workers={workers}"),
            );
        }
    }
}

/// Every `run()` builds its workers' simulators afresh; repeated
/// sweeps on one runner must stay bit-identical, for every worker
/// count.
#[test]
fn pool_is_deterministic_across_repeated_runs_and_worker_counts() {
    let scenarios = sweep_scenarios(13);
    let reference = ScenarioRunner::new(noisy_circuit(), 300.0)
        .with_workers(1)
        .run(&scenarios);
    for workers in [1, 2, 4, 7, 8] {
        let runner = ScenarioRunner::new(noisy_circuit(), 300.0).with_workers(workers);
        for round in 0..3 {
            let sweep = runner.run(&scenarios);
            assert_sweeps_identical(
                &reference,
                &sweep,
                &format!("workers={workers} round={round}"),
            );
        }
    }
}

/// Cancel-heavy inertial sweeps through the runner: the eager-discard
/// path and slab recycling under parallel, repeated execution.
#[test]
fn pool_sweeps_cancel_heavy_identical_across_backends() {
    let circuit = inertial_chain(6, 1.0);
    let scenarios: Vec<Scenario> = (0..10)
        .map(|k| {
            Scenario::new(format!("c{k}")).with_input(
                "a",
                pulse_train(
                    &[1.0, 2.0, 0.8, 3.0],
                    &[0.3, 4.0, 0.2, 0.4 + 0.01 * k as f64],
                ),
            )
        })
        .collect();
    let heap = ScenarioRunner::new(circuit.clone(), 400.0)
        .with_workers(2)
        .with_queue_backend(QueueBackend::Heap)
        .run(&scenarios);
    let calendar = ScenarioRunner::new(circuit, 400.0)
        .with_workers(2)
        .with_queue_backend(QueueBackend::Calendar)
        .run(&scenarios);
    assert_sweeps_identical(&heap, &calendar, "cancel-heavy pool");
}
