//! End-to-end and per-layer benchmark of the `faithful` workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <glitch_sweep|grid_1m|serve_mix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints the host record, one line per metric, and as the last line a
//! JSON result. See `README.md` next to this package for the workloads,
//! the metrics and how to read them.

mod digital;
mod gen;
mod report;
mod serve;
mod sim;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "usage: perfbench --workload <glitch_sweep|grid_1m|serve_mix> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// A run must end within 180 s; stop hard a little before that.
const HARD_STOP: Duration = Duration::from_secs(170);

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".to_owned()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    std::thread::spawn(|| {
        std::thread::sleep(HARD_STOP);
        eprintln!("perfbench: run exceeded {HARD_STOP:?}; stopping without a result");
        std::process::exit(3);
    });
    let host = report::Host::probe();
    let host_json = host.json();
    println!("host {host_json}");
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let trace_path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("traces")
        .join(format!("{}-seed{}.json", args.workload, args.seed));
    let outcome = match args.workload.as_str() {
        "glitch_sweep" => sim::run(&sim::Kind::GlitchSweep, &args, &trace_path, &host_json),
        "grid_1m" => sim::run(&sim::Kind::Grid1m, &args, &trace_path, &host_json),
        "serve_mix" => serve::run(&args, &trace_path, &host_json),
        other => {
            eprintln!("perfbench: unknown workload {other:?}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match outcome {
        Ok(outcome) => {
            outcome.print(args.trace);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            ExitCode::from(1)
        }
    }
}
