//! Result assembly: statistics helpers, the host record, and the
//! output lines (human-readable metric lines, then one JSON result as
//! the last line of standard output).

use std::collections::BTreeMap;

/// End-to-end metrics, printed by every untraced run (`--trace 0`).
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("latency_p99_ms", "ms"),
    ("specs_per_s", "1/s"),
    ("events_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run (`--trace 1`). A
/// layer a workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 38] = [
    ("spec.parse_s", "s"),
    ("spec.canonical_s", "s"),
    ("spec.bytes", "bytes"),
    ("lint.s", "s"),
    ("lint.diagnostics", "count"),
    ("graph.build_s", "s"),
    ("graph.gates", "count"),
    ("runner.sweep_s", "s"),
    ("runner.teardown_s", "s"),
    ("runner.serial_s", "s"),
    ("runner.parallel_eff", "ratio"),
    ("runner.failed", "count"),
    ("runner.retried", "count"),
    ("sim.run_s", "s"),
    ("sim.ns_per_event", "ns"),
    ("sim.processed", "count"),
    ("sim.scheduled", "count"),
    ("sim.useful_ratio", "ratio"),
    ("sim.dropped", "count"),
    ("sim.wheel", "ratio"),
    ("sim.loop_share", "ratio"),
    ("experiment.assemble_s", "s"),
    ("wire.render_s", "s"),
    ("wire.bytes", "bytes"),
    ("service.hits", "count"),
    ("service.misses", "count"),
    ("service.evictions", "count"),
    ("service.hit_ratio", "ratio"),
    ("service.jobs", "count"),
    ("service.share_channel", "ratio"),
    ("service.share_spf", "ratio"),
    ("service.share_digital", "ratio"),
    ("service.errors", "count"),
    ("service.overhead_ms", "ms"),
    ("service.hit_p50_ms", "ms"),
    ("service.miss_p50_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.spans", "count"),
];

/// Median (mean of the middle pair for even counts); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank quantile `q` and the number of samples above its rank.
pub fn quantile(values: &[f64], q: f64) -> (f64, usize) {
    if values.is_empty() {
        return (0.0, 0);
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    (v[rank - 1], v.len() - rank)
}

/// Consecutive slices a run's samples are split into; throughput and
/// tail metrics are the median over slices, so a short stall of the
/// host moves one slice, not the run's figure.
const SLICES: usize = 5;

/// `n` items as up to [`SLICES`] contiguous, near-equal index ranges;
/// none when `n` is 0.
pub fn slices(n: usize) -> Vec<std::ops::Range<usize>> {
    let k = SLICES.min(n);
    (0..k).map(|i| i * n / k..(i + 1) * n / k).collect()
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The process's peak resident set (`VmHWM`), in MB (10⁶ bytes). Each
/// workload runs in its own process, so this is that workload's peak.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// What a result was measured on.
pub struct Host {
    pub nproc: u32,
    pub mem_total_mb: f64,
    pub rustc: String,
    pub commit: String,
    pub profile: &'static str,
    /// Every `IVL_*` variable set in the environment. They change what
    /// an op runs (queue backend, lint mode, injected faults), so two
    /// results are comparable only when these match.
    pub env: Vec<(String, String)>,
}

impl Host {
    pub fn probe() -> Self {
        let meminfo = std::fs::read_to_string("/proc/meminfo").unwrap_or_default();
        let mem_total_mb = meminfo
            .lines()
            .find_map(|l| l.strip_prefix("MemTotal:"))
            .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
            .map_or(0.0, |kb| kb * 1024.0 / 1e6);
        Host {
            nproc: crate::gen::nproc(),
            mem_total_mb,
            rustc: env!("PERFBENCH_RUSTC").to_owned(),
            commit: commit(),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            env: {
                let mut env: Vec<(String, String)> = std::env::vars_os()
                    .filter_map(|(k, v)| {
                        let k = k.into_string().ok()?;
                        k.starts_with("IVL_")
                            .then(|| (k, v.to_string_lossy().into_owned()))
                    })
                    .collect();
                env.sort();
                env
            },
        }
    }

    pub fn json(&self) -> String {
        let env: Vec<String> = self
            .env
            .iter()
            .map(|(k, v)| format!("\"{}\":\"{}\"", escape(k), escape(v)))
            .collect();
        format!(
            "{{\"nproc\":{},\"mem_total_mb\":{:.0},\"rustc\":\"{}\",\"commit\":\"{}\",\"profile\":\"{}\",\"env\":{{{}}}}}",
            self.nproc,
            self.mem_total_mb,
            escape(&self.rustc),
            escape(&self.commit),
            self.profile,
            env.join(",")
        )
    }
}

/// The repository commit, when the benchmark runs from a git work tree
/// (checked at the repository root only, so a checkout nested inside an
/// unrelated repository does not report that repository's commit).
fn commit() -> String {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    if !root.join(".git").exists() {
        return "unknown (not a git work tree)".to_owned();
    }
    std::process::Command::new("git")
        .arg("-C")
        .arg(&root)
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_owned(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_owned(),
        )
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// What one run measured and checked.
#[derive(Default)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub values: BTreeMap<&'static str, f64>,
    /// Extra human-readable lines (sample counts, counters, notes).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Prints the notes, one line per metric, then the JSON result.
    pub fn print(&self, traced: bool) {
        for n in &self.notes {
            println!("{n}");
        }
        println!(
            "error_rate {} ({} failed of {} attempted)",
            ratio(self.failed as f64, self.attempted as f64),
            self.failed,
            self.attempted
        );
        let list: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        let mut metrics = String::new();
        for (i, (name, unit)) in list.iter().enumerate() {
            let value = self.values.get(name).copied().unwrap_or(0.0);
            let value = if value.is_finite() { value } else { 0.0 };
            println!("metric {name} = {value} {unit}");
            let sep = if i == 0 { "" } else { "," };
            metrics.push_str(&format!(
                "{sep}\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
            ));
        }
        println!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
            self.correct, self.attempted, self.failed
        );
    }
}
