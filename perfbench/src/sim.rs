//! `glitch_sweep` and `grid_1m`: one seeded digital spec, run again and
//! again through the facade (`Experiment::parse(text)?.run()`) for the
//! measured seconds.

use std::path::Path;
use std::time::{Duration, Instant};

use faithful::service::render_result;
use faithful::{Experiment, ExperimentResult, ExperimentSpec, LintConfig};

use crate::digital::{self, Fingerprint};
use crate::report::{median, quantile, ratio, slices, Outcome};
use crate::trace::SpanLog;
use crate::Args;

pub enum Kind {
    GlitchSweep,
    Grid1m,
}

impl Kind {
    fn spec(&self, seed: u64) -> String {
        match self {
            Kind::GlitchSweep => crate::gen::glitch_sweep(seed),
            Kind::Grid1m => crate::gen::grid_1m(seed),
        }
    }

    /// How often set-up and the traced probe repeat: three times on the
    /// sweep (about 2 s each), once on the scale tier (a repeat costs as
    /// much as an op, several seconds).
    fn reps(&self) -> usize {
        match self {
            Kind::GlitchSweep => 3,
            Kind::Grid1m => 1,
        }
    }
}

/// One facade op's counters, or why it failed.
fn check_op(result: &Result<ExperimentResult, faithful::Error>) -> Result<Fingerprint, String> {
    let result = result.as_ref().map_err(ToString::to_string)?;
    let d = result.digital().ok_or("not a digital result")?;
    if d.failed > 0 {
        return Err(format!("{} scenarios failed", d.failed));
    }
    Fingerprint::of_facade(d).ok_or_else(|| "result lacks sweep statistics".to_owned())
}

pub fn run(
    kind: &Kind,
    args: &Args,
    trace_path: &Path,
    host_json: &str,
) -> Result<Outcome, String> {
    // Set-up: generate the spec and run the heap-queue reference of it
    // (which doubles as the untimed warm-up). Repeated on the cheap
    // workload, so `setup_s` is a median.
    let reps = kind.reps();
    let mut setups = Vec::with_capacity(reps);
    let mut reference: Option<(Fingerprint, u64)> = None;
    let mut text = String::new();
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    for _ in 0..reps {
        let t = Instant::now();
        text = kind.spec(args.seed);
        let r = digital::heap_reference(&text)?;
        setups.push(t.elapsed().as_secs_f64());
        if reference.as_ref().is_some_and(|prev| *prev != r) {
            out.correct = false;
            out.note("check: heap reference differs between set-ups".to_owned());
        }
        reference = Some(r);
    }
    let (reference, ref_dropped) = reference.expect("at least one set-up");
    out.note(format!(
        "counters processed={} scheduled={} dropped={} transitions={} digest={:016x}",
        reference.processed,
        reference.scheduled,
        ref_dropped,
        reference.total_transitions(),
        reference.digest
    ));

    let epoch = Instant::now();
    let mut log = SpanLog::new(epoch, 0);
    let mut plain: Vec<f64> = Vec::new();
    let mut traced: Vec<f64> = Vec::new();
    let mut last_result = None;
    let start = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds);
    // Untraced: every op is `Experiment::parse(text)?.run()`. Traced:
    // ops alternate between that and the same calls split into spans
    // (parse, lint, run with the facade's own lint switched off).
    while out.attempted == 0 || start.elapsed() < budget {
        let request = out.attempted;
        out.attempted += 1;
        let with_spans = args.trace && request % 2 == 1;
        let t = Instant::now();
        let result = if with_spans {
            log.span("op", None, request, |log, op| {
                let parsed = log.span("spec.parse", Some(op), request, |_, _| {
                    text.parse::<ExperimentSpec>().map(Experiment::new)
                })?;
                let report = log.span("lint", Some(op), request, |_, _| parsed.lint_report());
                if report.has_errors() {
                    return Err(faithful::Error::Lint(report));
                }
                log.span("experiment.run", Some(op), request, |_, _| {
                    parsed.with_lint(LintConfig::Off).run()
                })
            })
        } else {
            Experiment::parse(&text).and_then(|e| e.run())
        };
        let secs = t.elapsed().as_secs_f64();
        match check_op(&result) {
            Ok(fp) => {
                if fp != reference {
                    out.correct = false;
                    out.note(format!(
                        "check: op {request} counters differ from the heap reference"
                    ));
                }
                if with_spans {
                    traced.push(secs);
                } else {
                    plain.push(secs);
                }
                last_result = result.ok();
            }
            Err(e) => {
                out.failed += 1;
                out.note(format!("failed: op {request}: {e}"));
            }
        }
    }
    // Ops run one after another, so a slice's throughput is its op
    // count over its summed op time.
    let per_slice = |f: &dyn Fn(&[f64]) -> f64| -> f64 {
        median(
            &slices(plain.len())
                .into_iter()
                .map(|r| f(&plain[r]))
                .collect::<Vec<_>>(),
        )
    };
    let (_, beyond) = quantile(&plain, 0.99);
    out.note(format!(
        "samples ops={} untraced={} slices={} p99_beyond={beyond} events_per_op={}",
        plain.len() + traced.len(),
        plain.len(),
        slices(plain.len()).len(),
        reference.processed
    ));
    if plain.len() + traced.len() <= 8 {
        out.note(format!("op_s untraced={plain:?} traced={traced:?}"));
    }
    let specs_per_s = per_slice(&|s| ratio(s.len() as f64, s.iter().sum()));
    out.set("setup_s", median(&setups));
    out.set("run_s", median(&plain));
    out.set("latency_p99_ms", per_slice(&|s| quantile(s, 0.99).0) * 1e3);
    out.set("specs_per_s", specs_per_s);
    out.set("events_per_s", specs_per_s * reference.processed as f64);

    match (args.trace, last_result) {
        (false, _) => {}
        (true, None) => {
            out.correct = false;
            out.note("check: no op completed, so no layer was probed".to_owned());
        }
        (true, Some(result)) => {
            layers(kind, &text, &result, &mut log, &mut out, &reference)?;
            let run_spans = log.secs_of("experiment.run");
            let op_s = median(&log.secs_of("op"));
            out.set("trace.overhead_ms", (op_s - median(&plain)) * 1e3);
            let (parse_s, lint_s) = (
                median(&log.secs_of("spec.parse")),
                median(&log.secs_of("lint")),
            );
            out.set("spec.parse_s", parse_s);
            out.set("lint.s", lint_s);
            // `runner.sweep_s` covers the runner's set-up, run and
            // teardown, so what is left is the facade's own work.
            let layer = |name| out.values.get(name).copied().unwrap_or(0.0);
            let assemble = median(&run_spans) - layer("graph.build_s") - layer("runner.sweep_s");
            let loop_share = ratio(
                layer("sim.run_s"),
                parse_s + lint_s + layer("graph.build_s") + layer("runner.serial_s") + assemble,
            );
            out.set("experiment.assemble_s", assemble);
            out.set("sim.loop_share", loop_share);
            out.set("trace.spans", log.spans.len() as f64);
            let header = format!(
                "\"workload\":\"{}\",\"seed\":{},\"host\":{host_json}",
                args.workload, args.seed
            );
            crate::trace::write_json(trace_path, &header, &log.spans)
                .map_err(|e| format!("writing {}: {e}", trace_path.display()))?;
            out.note(format!("trace written to {}", trace_path.display()));
        }
    }
    out.set("peak_rss_mb", crate::report::peak_rss_mb());
    Ok(out)
}

/// The traced run's per-layer probe, after the measured ops: canonical
/// hashing, lint findings, graph/runner/sim through
/// [`digital::probe`], and rendering of the last op's result.
fn layers(
    kind: &Kind,
    text: &str,
    result: &ExperimentResult,
    log: &mut SpanLog,
    out: &mut Outcome,
    reference: &Fingerprint,
) -> Result<(), String> {
    let experiment = Experiment::parse(text).map_err(|e| e.to_string())?;
    let reps = kind.reps();
    let mut probes = Vec::with_capacity(reps);
    let mut canonical = Vec::new();
    let mut render = Vec::new();
    let mut bytes = 0;
    for r in 0..reps {
        let request = 1_000_000 + r as u64;
        let probe = log.span("probe", None, request, |log, p| {
            log.span("spec.canonical", Some(p), request, |_, _| {
                std::hint::black_box(experiment.spec().canonical_hash())
            });
            canonical.push(log.last_secs());
            bytes = log.span("wire.render", Some(p), request, |_, _| {
                render_result(result).len()
            });
            render.push(log.last_secs());
            digital::probe(log, p, request, &experiment)
        })?;
        if probe.sweep_fp != *reference || probe.serial_fp != *reference {
            out.correct = false;
            out.note("check: probe counters differ from the heap reference".to_owned());
        }
        probes.push(probe);
    }
    let lint = experiment.lint_report();
    out.set("spec.canonical_s", median(&canonical));
    out.set("spec.bytes", text.len() as f64);
    out.set("lint.diagnostics", lint.diagnostics().len() as f64);
    digital::set_metrics(out, &probes);
    out.set("wire.render_s", median(&render));
    out.set("wire.bytes", bytes as f64);
    Ok(())
}
