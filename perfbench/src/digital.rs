//! Exact simulated counters and the per-layer probe of a digital spec,
//! both built from the workspace's public API only.

use faithful::circuit::{
    Circuit, QueueBackend, Scenario, ScenarioRunner, SimError, SimResult, Simulator,
};
use faithful::{DigitalResult, DigitalSpec, Experiment, Signal};

use crate::report::{median, ratio, Outcome};
use crate::trace::SpanLog;

/// The simulated statistics that must not move when only speed does:
/// event counts plus every collected signal's transition count and a
/// digest of the transitions themselves.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Fingerprint {
    pub processed: u64,
    pub scheduled: u64,
    /// Transition count of each collected signal, scenario-major.
    pub transitions: Vec<u64>,
    /// FNV-1a over every collected transition's time bits and value.
    pub digest: u64,
}

impl Fingerprint {
    fn absorb(&mut self, signal: &Signal) {
        self.transitions.push(signal.len() as u64);
        for t in signal.transitions() {
            for byte in t.time.to_bits().to_le_bytes() {
                self.digest = (self.digest ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
            self.digest = (self.digest ^ u64::from(t.value == faithful::Bit::One))
                .wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn new() -> Self {
        Fingerprint {
            digest: 0xcbf2_9ce4_8422_2325,
            ..Fingerprint::default()
        }
    }

    pub fn total_transitions(&self) -> u64 {
        self.transitions.iter().sum()
    }

    /// The facade's view: totals from the sweep statistics, signals
    /// from the outcomes. `None` when the result lacks statistics.
    pub fn of_facade(result: &DigitalResult) -> Option<Fingerprint> {
        let stats = result.stats.as_ref()?;
        let mut fp = Fingerprint::new();
        fp.processed = stats.processed_events;
        fp.scheduled = stats.scheduled_events;
        for outcome in &result.outcomes {
            for (_, signal) in &outcome.signals {
                fp.absorb(signal);
            }
        }
        Some(fp)
    }
}

/// The signals the facade collects per scenario: output ports first,
/// then watched nodes that are not ports, in spec order.
fn collected_names(circuit: &Circuit, d: &DigitalSpec) -> Vec<String> {
    let mut names: Vec<String> = circuit
        .output_names()
        .into_iter()
        .map(str::to_owned)
        .collect();
    for w in &d.outputs.watch {
        if !names.contains(w) {
            names.push(w.clone());
        }
    }
    names
}

/// Gates (nodes that are neither input nor output ports).
fn gate_count(circuit: &Circuit) -> u64 {
    let ports = circuit.input_names().len() + circuit.output_names().len();
    (circuit.node_count() - ports) as u64
}

/// Each scenario's seed and built input signals.
type Stimuli = Vec<(Option<u64>, Vec<(String, Signal)>)>;

fn stimuli(d: &DigitalSpec) -> Result<Stimuli, String> {
    d.scenarios
        .iter()
        .map(|s| {
            let inputs = s
                .inputs
                .iter()
                .map(|(port, sig)| Ok((port.clone(), sig.build().map_err(|e| e.to_string())?)))
                .collect::<Result<Vec<_>, String>>()?;
            Ok((s.seed, inputs))
        })
        .collect()
}

fn scenarios(d: &DigitalSpec, stimuli: &Stimuli) -> Vec<Scenario> {
    d.scenarios
        .iter()
        .zip(stimuli)
        .map(|(s, (seed, inputs))| {
            let mut sc = Scenario::new(s.label.clone());
            if let Some(seed) = seed {
                sc = sc.with_seed(*seed);
            }
            for (port, signal) in inputs {
                sc = sc.with_input(port.clone(), signal.clone());
            }
            sc
        })
        .collect()
}

/// Counters of runner- or simulator-level runs, folded in scenario
/// order. Also returns the dropped-transition total, which the facade
/// result does not expose.
struct Fold {
    fp: Fingerprint,
    dropped: u64,
    failed: u64,
}

impl Fold {
    fn new() -> Self {
        Fold {
            fp: Fingerprint::new(),
            dropped: 0,
            failed: 0,
        }
    }

    fn add(&mut self, run: &Result<SimResult, SimError>, names: &[String]) {
        match run {
            Ok(run) => {
                self.fp.processed += run.processed_events() as u64;
                self.fp.scheduled += run.scheduled_events() as u64;
                self.dropped += run.dropped_transitions() as u64;
                for name in names {
                    match run.signal(name) {
                        Ok(signal) => self.fp.absorb(signal),
                        Err(_) => self.failed += 1,
                    }
                }
            }
            Err(_) => self.failed += 1,
        }
    }
}

fn runner(circuit: Circuit, d: &DigitalSpec) -> Result<ScenarioRunner, String> {
    let mut runner = ScenarioRunner::new(circuit, d.horizon);
    if !d.outputs.watch.is_empty() {
        runner = runner
            .with_watch(&d.outputs.watch)
            .map_err(|e| e.to_string())?;
    }
    if let Some(w) = d.workers {
        runner = runner.with_workers(w as usize);
    }
    if let Some(m) = d.max_events {
        runner = runner.with_max_events(usize::try_from(m).unwrap_or(usize::MAX));
    }
    Ok(runner)
}

/// The reference: the same sweep on the bit-exact binary-heap queue.
/// Returns its fingerprint and dropped-transition total.
pub fn heap_reference(text: &str) -> Result<(Fingerprint, u64), String> {
    let experiment = Experiment::parse(text).map_err(|e| e.to_string())?;
    let d = digital_spec(&experiment)?;
    let circuit = experiment
        .build_circuit(&d.topology)
        .map_err(|e| e.to_string())?;
    let names = collected_names(&circuit, d);
    let scenarios = scenarios(d, &stimuli(d)?);
    let sweep = runner(circuit, d)?
        .with_queue_backend(QueueBackend::Heap)
        .run(&scenarios);
    let mut fold = Fold::new();
    for outcome in sweep.outcomes() {
        fold.add(outcome.result(), &names);
    }
    if fold.failed > 0 {
        return Err(format!("{} reference scenarios failed", fold.failed));
    }
    Ok((fold.fp, fold.dropped))
}

fn digital_spec(experiment: &Experiment) -> Result<&DigitalSpec, String> {
    match &experiment.spec().workload {
        faithful::WorkloadSpec::Digital(d) => Ok(d),
        _ => Err("not a digital spec".to_owned()),
    }
}

/// What the per-layer probe of one digital spec measured.
pub struct Probe {
    pub build_s: f64,
    pub gates: u64,
    /// The pooled sweep: runner set-up and run plus its teardown.
    pub sweep_s: f64,
    /// The teardown alone: dropping the sweep's results and the runner.
    pub teardown_s: f64,
    pub serial_s: f64,
    pub sim_s: f64,
    /// Workers the sweep could keep busy: `min(workers, scenarios)`.
    pub busy_workers: f64,
    pub failed: u64,
    pub retried: u64,
    pub dropped: u64,
    pub wheel: bool,
    /// Fingerprints of the pooled sweep and of the serial pass.
    pub sweep_fp: Fingerprint,
    pub serial_fp: Fingerprint,
}

impl Probe {
    /// The event loop's share of a one-worker op: `sim.run` time over
    /// parse, lint, graph build, the serial pass and result assembly.
    pub fn loop_share(&self, parse_s: f64, lint_s: f64, assemble_s: f64) -> f64 {
        ratio(
            self.sim_s,
            parse_s + lint_s + self.build_s + self.serial_s + assemble_s,
        )
    }
}

/// Times each digital layer of `experiment` through its public entry
/// point: `Experiment::build_circuit` (graph), `ScenarioRunner::run`
/// (runner, default queue backend; its set-up and teardown in the
/// `runner.sweep` and `runner.teardown` spans) and the same scenarios
/// serially on one `Simulator` (sim), one `sim.run` span per scenario.
pub fn probe(
    log: &mut SpanLog,
    parent: u64,
    request: u64,
    experiment: &Experiment,
) -> Result<Probe, String> {
    let d = digital_spec(experiment)?;
    let stimuli = stimuli(d)?;
    let scenarios = scenarios(d, &stimuli);
    let circuit = log
        .span("graph.build", Some(parent), request, |_, _| {
            experiment.build_circuit(&d.topology)
        })
        .map_err(|e| e.to_string())?;
    let build_s = log.last_secs();
    let names = collected_names(&circuit, d);
    let gates = gate_count(&circuit);
    // The facade builds the runner, runs it and drops it (with its
    // worker pool, per-worker circuits and simulators, and the sweep's
    // results) inside `Experiment::run`; all three count to the sweep.
    // Only the benchmark's own fingerprinting in between is left out.
    let (pooled, sweep) = log.span("runner.sweep", Some(parent), request, |_, _| {
        let pooled = runner(circuit, d)?;
        let sweep = pooled.run(&scenarios);
        Ok::<_, String>((pooled, sweep))
    })?;
    let mut sweep_s = log.last_secs();
    let mut sweep_fold = Fold::new();
    for outcome in sweep.outcomes() {
        sweep_fold.add(outcome.result(), &names);
    }
    let (failed, retried) = (sweep.stats().failures as u64, sweep.stats().retried);
    log.span("runner.teardown", Some(parent), request, |_, _| {
        drop(sweep);
        drop(pooled);
    });
    let teardown_s = log.last_secs();
    sweep_s += teardown_s;

    // The same scenarios on one simulator, built, run and dropped
    // inside the span, so serial and pooled times cover the same work.
    // Its circuit is built afresh rather than cloned, as the facade's
    // is: a clone's memory layout, and so its locality, differs.
    let circuit = experiment
        .build_circuit(&d.topology)
        .map_err(|e| e.to_string())?;
    let mut serial = Fold::new();
    let mut sim_s = 0.0;
    let wheel = log.span("runner.serial", Some(parent), request, |log, serial_id| {
        let mut sim = Simulator::new(circuit);
        if !d.outputs.watch.is_empty() {
            sim.set_watch(names.iter()).map_err(|e| e.to_string())?;
        }
        if let Some(m) = d.max_events {
            sim.set_max_events(usize::try_from(m).unwrap_or(usize::MAX));
        }
        // the runner's per-scenario protocol, on one simulator
        for (seed, inputs) in &stimuli {
            sim.reset_inputs();
            if let Some(seed) = seed {
                sim.reseed_noise(*seed);
            }
            for (port, signal) in inputs {
                if sim.set_input(port, signal.clone()).is_err() {
                    serial.failed += 1;
                }
            }
            let result = log.span("sim.run", Some(serial_id), request, |_, _| {
                sim.run(d.horizon)
            });
            sim_s += log.last_secs();
            serial.add(&result, &names);
        }
        Ok::<_, String>(sim.effective_backend() == QueueBackend::Calendar)
    })?;
    let serial_s = log.last_secs();
    Ok(Probe {
        build_s,
        gates,
        sweep_s,
        teardown_s,
        serial_s,
        sim_s,
        busy_workers: f64::from(d.workers.unwrap_or_else(crate::gen::nproc))
            .min(scenarios.len() as f64),
        failed: failed + serial.failed,
        retried,
        dropped: serial.dropped,
        wheel,
        sweep_fp: sweep_fold.fp,
        serial_fp: serial.fp,
    })
}

/// Sets the graph, runner and sim metrics from probed sweeps: medians
/// per sweep, failures and retries as the most any one sweep had, and
/// `sim.wheel` as the share of sweeps that ended on the calendar queue.
pub fn set_metrics(out: &mut Outcome, probes: &[Probe]) {
    let of = |f: &dyn Fn(&Probe) -> f64| median(&probes.iter().map(f).collect::<Vec<_>>());
    let most = |f: &dyn Fn(&Probe) -> u64| probes.iter().map(f).max().unwrap_or(0) as f64;
    out.set("graph.build_s", of(&|p| p.build_s));
    out.set("graph.gates", of(&|p| p.gates as f64));
    out.set("runner.sweep_s", of(&|p| p.sweep_s));
    out.set("runner.teardown_s", of(&|p| p.teardown_s));
    out.set("runner.serial_s", of(&|p| p.serial_s));
    out.set(
        "runner.parallel_eff",
        of(&|p| ratio(p.serial_s, p.sweep_s * p.busy_workers)),
    );
    out.set("runner.failed", most(&|p| p.failed));
    out.set("runner.retried", most(&|p| p.retried));
    out.set("sim.run_s", of(&|p| p.sim_s));
    out.set(
        "sim.ns_per_event",
        of(&|p| ratio(p.sim_s * 1e9, p.serial_fp.processed as f64)),
    );
    out.set("sim.processed", of(&|p| p.serial_fp.processed as f64));
    out.set("sim.scheduled", of(&|p| p.serial_fp.scheduled as f64));
    out.set(
        "sim.useful_ratio",
        of(&|p| ratio(p.serial_fp.processed as f64, p.serial_fp.scheduled as f64)),
    );
    out.set("sim.dropped", most(&|p| p.dropped));
    out.set(
        "sim.wheel",
        ratio(
            probes.iter().filter(|p| p.wheel).count() as f64,
            probes.len() as f64,
        ),
    );
}
