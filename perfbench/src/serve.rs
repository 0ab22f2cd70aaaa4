//! `serve_mix`: an in-process `Server` on loopback, driven closed-loop
//! by `nproc` client connections (each sends its next spec only after
//! the previous answer arrived) with a seeded, Zipf-popular stream of
//! small specs drawn from a key space four times the cache bound.

use std::collections::HashMap;
use std::path::Path;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use faithful::core::factory::ChannelRegistry;
use faithful::service::{
    render_result, ServeConfig, ServeSummary, ServedResult, Server, ServiceClient, ServiceHandle,
};
use faithful::{lint_text_for_service, Experiment, ExperimentSpec, LintConfig, WorkloadSpec};

use crate::gen::{self, Rng, ServeKind};
use crate::report::{median, quantile, ratio, slices, Outcome};
use crate::trace::SpanLog;
use crate::Args;

/// Requests per connection in each untimed warm-up. Two connections
/// draw about 1000 distinct keys, which fills the 1024-entry cache.
const WARMUP_PER_CONN: usize = 1500;
/// Keys replayed in-process per run to check served bytes.
const CHECKED_KEYS: usize = 16;
/// Keys replayed in-process with spans in a traced run.
const TRACED_KEYS: usize = 48;

/// One answered (or failed) request, packed small: the run keeps every
/// sample, and this process's peak RSS is a reported metric.
#[derive(Clone, Copy, Default)]
struct Sample {
    /// Client-observed latency, submit to answer.
    secs: f32,
    /// When the answer arrived, in microseconds since the run's epoch.
    done_us: u32,
    events: u32,
    key: u16,
    /// `OK`, `CACHED` and `TRACED` bits.
    flags: u8,
}

impl Sample {
    const OK: u8 = 1;
    const CACHED: u8 = 2;
    const TRACED: u8 = 4;

    fn ok(&self) -> bool {
        self.flags & Self::OK != 0
    }
    fn cached(&self) -> bool {
        self.flags & Self::CACHED != 0
    }
    fn traced(&self) -> bool {
        self.flags & Self::TRACED != 0
    }
}

fn micros(d: Duration) -> u32 {
    u32::try_from(d.as_micros()).unwrap_or(u32::MAX)
}

/// Samples per connection the store is pre-sized (and pre-touched) for,
/// so the benchmark's own memory does not grow with throughput.
const SAMPLE_CAPACITY: usize = 1 << 17;

struct Daemon {
    handle: ServiceHandle,
    join: JoinHandle<ServeSummary>,
    clients: Vec<ServiceClient>,
}

impl Daemon {
    fn start(conns: usize) -> Result<Daemon, String> {
        // the shipped defaults: one worker per core, 1024 cache entries
        let server = Server::bind(ServeConfig::default()).map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr().map_err(|e| e.to_string())?;
        let handle = server.handle();
        let join = std::thread::spawn(move || server.run());
        let mut clients = Vec::with_capacity(conns);
        for _ in 0..conns {
            match ServiceClient::connect(addr) {
                Ok(c) => clients.push(c),
                Err(e) => {
                    let daemon = Daemon {
                        handle,
                        join,
                        clients,
                    };
                    let _ = daemon.stop();
                    return Err(format!("connect: {e}"));
                }
            }
        }
        Ok(Daemon {
            handle,
            join,
            clients,
        })
    }

    /// Closes the connections, drains the daemon and returns its summary.
    fn stop(self) -> Result<ServeSummary, String> {
        drop(self.clients);
        self.handle.shutdown();
        self.join
            .join()
            .map_err(|_| "server thread panicked".to_owned())
    }
}

/// The traffic: the key space, its popularity CDF, and the clock spans
/// are measured against.
#[derive(Clone, Copy)]
struct Mix<'a> {
    keys: &'a [String],
    cdf: &'a [f64],
    epoch: Instant,
}

/// One connection's closed loop, until `limit`: it sends a spec, waits
/// for the answer, and only then sends the next. With `trace`, every
/// other request is recorded as spans. A request whose answer never
/// comes (broken connection, protocol error) counts as failed and ends
/// the loop.
fn client_loop(
    client: &mut ServiceClient,
    mix: Mix<'_>,
    rng: &mut Rng,
    limit: Limit,
    conn: u64,
    trace: bool,
) -> (Vec<Sample>, SpanLog, Seen) {
    let mut log = SpanLog::new(mix.epoch, conn);
    let mut seen = Seen::default();
    let mut samples = vec![Sample::default(); SAMPLE_CAPACITY];
    samples.clear();
    let mut sent = 0usize;
    while match limit {
        Limit::Count(c) => sent < c,
        Limit::Until(t) => Instant::now() < t,
    } {
        let key = gen::draw(mix.cdf, rng);
        let request = conn << 32 | sent as u64;
        let traced = trace && sent % 2 == 1;
        sent += 1;
        let spec = &mix.keys[key];
        let at = Instant::now();
        let answer = if traced {
            log.span("request", None, request, |log, r| {
                let id = log.span("service.submit", Some(r), request, |_, _| {
                    client.submit(spec)
                })?;
                let response = log.span("service.recv", Some(r), request, |_, _| client.recv())?;
                Ok((id, response))
            })
        } else {
            client
                .submit(spec)
                .and_then(|id| client.recv().map(|response| (id, response)))
        };
        let done = Instant::now();
        let mut sample = Sample {
            secs: done.duration_since(at).as_secs_f32(),
            done_us: micros(done.duration_since(mix.epoch)),
            key: u16::try_from(key).expect("key space fits u16"),
            flags: if traced { Sample::TRACED } else { 0 },
            ..Sample::default()
        };
        let response = match answer {
            Ok((id, response)) if response.id == id => response,
            _ => {
                samples.push(sample);
                break;
            }
        };
        if let Ok(reply) = &response.reply {
            sample.flags |= Sample::OK;
            if response.cached {
                sample.flags |= Sample::CACHED;
            } else if let ServedResult::Digital {
                stats: Some(stats), ..
            } = reply
            {
                sample.events = u32::try_from(stats.processed_events).unwrap_or(u32::MAX);
            }
            let first = seen
                .payloads
                .entry(key)
                .or_insert_with(|| response.payload.clone());
            if *first != response.payload {
                seen.mismatched.push(key);
            }
        }
        samples.push(sample);
    }
    (samples, log, seen)
}

/// The first payload served for each key on one connection, and the
/// keys later answered with different bytes.
#[derive(Default)]
struct Seen {
    payloads: HashMap<usize, String>,
    mismatched: Vec<usize>,
}

#[derive(Clone, Copy)]
enum Limit {
    Count(usize),
    Until(Instant),
}

/// Runs every connection's loop on its own thread and gathers samples
/// and span logs.
fn drive(
    daemon: &mut Daemon,
    mix: Mix<'_>,
    rngs: &mut [Rng],
    limit: Limit,
    traced: bool,
) -> (Vec<Sample>, Vec<SpanLog>, Vec<Seen>) {
    std::thread::scope(|s| {
        let workers: Vec<_> = daemon
            .clients
            .iter_mut()
            .zip(rngs.iter_mut())
            .enumerate()
            .map(|(i, (client, rng))| {
                s.spawn(move || client_loop(client, mix, rng, limit, i as u64 + 1, traced))
            })
            .collect();
        let (mut samples, mut logs, mut seen) = (Vec::new(), Vec::new(), Vec::new());
        for w in workers {
            let (s, l, p) = w.join().expect("client thread panicked");
            samples.extend(s);
            logs.push(l);
            seen.push(p);
        }
        (samples, logs, seen)
    })
}

pub fn run(args: &Args, trace_path: &Path, host_json: &str) -> Result<Outcome, String> {
    let conns = gen::nproc().max(1) as usize;
    let cdf = gen::zipf_cdf(gen::SERVE_KEYS);
    let epoch = Instant::now();
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };

    // Set-up, three times (the median is `setup_s`): generate the key
    // space, bind, connect, and warm the cache with a fixed number of
    // closed-loop requests. The last daemon is kept for the timed phase.
    let mut setups = Vec::new();
    let mut kept = None;
    for rep in 0..3 {
        let t = Instant::now();
        let keys = gen::serve_keys(args.seed);
        let mut rngs: Vec<Rng> = (0..conns as u64)
            .map(|c| Rng::new(args.seed, 100 + c))
            .collect();
        let mut daemon = Daemon::start(conns)?;
        let mix = Mix {
            keys: &keys,
            cdf: &cdf,
            epoch,
        };
        let (warm, _, _) = drive(
            &mut daemon,
            mix,
            &mut rngs,
            Limit::Count(WARMUP_PER_CONN),
            false,
        );
        setups.push(t.elapsed().as_secs_f64());
        let warm_failed = warm.iter().filter(|s| !s.ok()).count();
        if warm_failed > 0 {
            let _ = daemon.stop();
            return Err(format!("{warm_failed} warm-up requests failed"));
        }
        if rep < 2 {
            daemon.stop()?;
        } else {
            kept = Some((keys, rngs, daemon, warm.len()));
        }
    }
    let (keys, mut rngs, mut daemon, warm_count) = kept.expect("three set-ups");

    let start = Instant::now();
    let until = start + Duration::from_secs_f64(args.seconds);
    let mix = Mix {
        keys: &keys,
        cdf: &cdf,
        epoch,
    };
    let (samples, logs, seen) = drive(&mut daemon, mix, &mut rngs, Limit::Until(until), args.trace);
    let summary = daemon.stop()?;

    // Failure accounting: served ERROR frames and client I/O errors.
    out.attempted = samples.len() as u64;
    out.failed = samples.iter().filter(|s| !s.ok()).count() as u64;
    let ok: Vec<&Sample> = samples.iter().filter(|s| s.ok()).collect();
    if ok.is_empty() {
        out.correct = false;
        out.note("check: no request was answered, so nothing was checked".to_owned());
    }
    let lat = |pred: &dyn Fn(&Sample) -> bool| -> Vec<f64> {
        ok.iter()
            .filter(|s| pred(s))
            .map(|s| f64::from(s.secs))
            .collect()
    };
    let all = lat(&|s| !s.traced());
    let hits = lat(&|s| s.cached() && !s.traced());
    let misses = lat(&|s| !s.cached() && !s.traced());
    // Slices of the timed phase in completion order: each slice's
    // throughput is its answers over the time they took to arrive.
    let mut order: Vec<&Sample> = ok.clone();
    order.sort_by_key(|s| s.done_us);
    let ranges = slices(order.len());
    let slice_of = |f: &dyn Fn(&[&Sample], f64) -> f64| -> f64 {
        let values: Vec<f64> = ranges
            .iter()
            .map(|r| {
                let begin = if r.start == 0 {
                    micros(start.duration_since(epoch))
                } else {
                    order[r.start - 1].done_us
                };
                let secs = f64::from(order[r.end - 1].done_us.saturating_sub(begin)) * 1e-6;
                f(&order[r.clone()], secs)
            })
            .collect();
        median(&values)
    };
    let p99 = slice_of(&|s, _| {
        let untraced: Vec<f64> = s
            .iter()
            .filter(|x| !x.traced())
            .map(|x| f64::from(x.secs))
            .collect();
        quantile(&untraced, 0.99).0
    });
    let (_, beyond) = quantile(&all, 0.99);
    out.set("setup_s", median(&setups));
    out.set("run_s", median(&all));
    out.set("latency_p99_ms", p99 * 1e3);
    out.set(
        "specs_per_s",
        slice_of(&|s, secs| ratio(s.len() as f64, secs)),
    );
    out.set(
        "events_per_s",
        slice_of(&|s, secs| ratio(s.iter().map(|x| f64::from(x.events)).sum(), secs)),
    );
    out.set("service.hit_p50_ms", median(&hits) * 1e3);
    out.set("service.miss_p50_ms", median(&misses) * 1e3);
    out.note(format!(
        "samples specs={} untraced={} slices={} p99_beyond={beyond} hits={} misses={} hit_p50_ms={} miss_p50_ms={}",
        ok.len(),
        all.len(),
        ranges.len(),
        hits.len(),
        misses.len(),
        median(&hits) * 1e3,
        median(&misses) * 1e3
    ));

    // What the assumed mix (kind shares, Zipf exponent, key space)
    // amounts to: each kind's share of the client-observed time and the
    // timed phase's hit ratio.
    let served: f64 = all.iter().sum();
    let shares = ServeKind::ALL.map(|kind| {
        let secs: f64 = ok
            .iter()
            .filter(|s| !s.traced() && ServeKind::of_rank(usize::from(s.key)) == kind)
            .map(|s| f64::from(s.secs))
            .sum();
        ratio(secs, served)
    });
    out.note(format!(
        "mix timed_hit_ratio={} served_time_share channel={} spf={} digital={}",
        ratio(hits.len() as f64, all.len() as f64),
        shares[0],
        shares[1],
        shares[2]
    ));

    // Correctness: every answer for a key is byte-identical (fresh run
    // or cache replay, any connection); a seeded sample of keys equals
    // the in-process `render_result(&Experiment::run)`; the daemon's
    // own accounting adds up.
    let mut first: HashMap<usize, &str> = HashMap::new();
    for conn in &seen {
        for &key in &conn.mismatched {
            out.correct = false;
            out.note(format!("check: key {key} answered with differing bytes"));
        }
        for (&key, payload) in &conn.payloads {
            if *first.entry(key).or_insert(payload) != payload.as_str() {
                out.correct = false;
                out.note(format!("check: key {key} differs between connections"));
            }
        }
    }
    let mut answered: Vec<usize> = first.keys().copied().collect();
    answered.sort_unstable();
    let mut pick = Rng::new(args.seed, 200);
    for _ in 0..CHECKED_KEYS.min(answered.len()) {
        let key = answered[pick.below(answered.len() as u64) as usize];
        let local = Experiment::parse(&keys[key])
            .and_then(|e| e.run())
            .map(|r| render_result(&r))
            .map_err(|e| e.to_string())?;
        if local != first[&key] {
            out.correct = false;
            out.note(format!(
                "check: key {key} served bytes differ from in-process"
            ));
        }
    }
    let submitted = (warm_count + samples.len()) as u64;
    if summary.errors + summary.rejected > 0 || summary.jobs + summary.cache_hits != submitted {
        out.correct = false;
        out.note(format!(
            "check: daemon summary does not add up: {summary:?}"
        ));
    }
    let c = summary.cache;
    out.note(format!(
        "service hits={} misses={} evictions={} jobs={} errors={}",
        c.hits, c.misses, c.evictions, summary.jobs, summary.errors
    ));

    if args.trace {
        let mut spans: Vec<_> = logs.into_iter().flat_map(|l| l.spans).collect();
        let traced_lat = lat(&|s| s.traced());
        out.set(
            "trace.overhead_ms",
            (median(&traced_lat) - median(&all)) * 1e3,
        );
        out.set("service.hits", c.hits as f64);
        out.set("service.misses", c.misses as f64);
        out.set("service.evictions", c.evictions as f64);
        out.set(
            "service.hit_ratio",
            ratio(c.hits as f64, (c.hits + c.misses) as f64),
        );
        out.set("service.jobs", summary.jobs as f64);
        out.set("service.share_channel", shares[0]);
        out.set("service.share_spf", shares[1]);
        out.set("service.share_digital", shares[2]);
        out.set("service.errors", (summary.errors + summary.rejected) as f64);
        let mut log = SpanLog::new(epoch, 0);
        replay_layers(args.seed, &keys, &samples, &mut log, &mut out)?;
        spans.extend(log.spans);
        out.set("trace.spans", spans.len() as f64);
        let header = format!(
            "\"workload\":\"{}\",\"seed\":{},\"host\":{host_json}",
            args.workload, args.seed
        );
        crate::trace::write_json(trace_path, &header, &spans)
            .map_err(|e| format!("writing {}: {e}", trace_path.display()))?;
        out.note(format!("trace written to {}", trace_path.display()));
    }
    out.set("peak_rss_mb", crate::report::peak_rss_mb());
    Ok(out)
}

/// The traced run's in-process replay of a seeded sample of keys that
/// missed the cache in the timed phase, through the same public calls
/// the daemon makes: parse, canonical hash, service lint, run (one
/// worker, lint off) and render; digital keys also go through the
/// graph/runner/sim probe. Layer numbers are medians per spec (over
/// the specs a layer applies to). `service.overhead_ms` is the median,
/// over the timed misses of those keys, of client latency minus the
/// key's in-process cost: framing, queueing and client decode.
fn replay_layers(
    seed: u64,
    keys: &[String],
    samples: &[Sample],
    log: &mut SpanLog,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut missed: Vec<usize> = samples
        .iter()
        .filter(|s| !s.cached() && s.ok())
        .map(|s| usize::from(s.key))
        .collect();
    missed.sort_unstable();
    missed.dedup();
    let mut rng = Rng::new(seed, 300);
    let mut chosen = Vec::new();
    while chosen.len() < TRACED_KEYS.min(missed.len()) {
        let key = missed[rng.below(missed.len() as u64) as usize];
        if !chosen.contains(&key) {
            chosen.push(key);
        }
    }
    let registry = ChannelRegistry::with_builtins();
    let mut cost: HashMap<usize, f64> = HashMap::new();
    let (mut parse, mut canon, mut lint, mut render) = (vec![], vec![], vec![], vec![]);
    let (mut bytes, mut wire_bytes, mut diags) = (vec![], vec![], vec![]);
    let mut probes = Vec::new();
    let mut assemble = Vec::new();
    let mut loop_share = Vec::new();
    for &key in &chosen {
        let text = &keys[key];
        let request = key as u64;
        let mut spec = log
            .span("spec.parse", None, request, |_, _| {
                text.parse::<ExperimentSpec>()
            })
            .map_err(|e| e.to_string())?;
        parse.push(log.last_secs());
        log.span("spec.canonical", None, request, |_, _| {
            std::hint::black_box(spec.canonical_hash())
        });
        canon.push(log.last_secs());
        let report = log
            .span("lint", None, request, |_, _| {
                lint_text_for_service(text, &registry)
            })
            .map_err(|e| e.to_string())?;
        lint.push(log.last_secs());
        diags.push(report.diagnostics().len() as f64);
        if let WorkloadSpec::Digital(d) = &mut spec.workload {
            d.workers = Some(1);
        }
        let experiment = Experiment::new(spec).with_lint(LintConfig::Off);
        let result = log
            .span("experiment.run", None, request, |_, _| experiment.run())
            .map_err(|e| e.to_string())?;
        let run_s = log.last_secs();
        let rendered = log.span("wire.render", None, request, |_, _| render_result(&result));
        render.push(log.last_secs());
        bytes.push(text.len() as f64);
        wire_bytes.push(rendered.len() as f64);
        let n = parse.len() - 1;
        cost.insert(key, parse[n] + canon[n] + lint[n] + run_s + render[n]);
        if result.digital().is_some() {
            let probe = log.span("probe", None, request, |log, p| {
                crate::digital::probe(log, p, request, &experiment)
            })?;
            if probe.sweep_fp != probe.serial_fp {
                out.correct = false;
                out.note(format!("check: key {key} sweep and serial counters differ"));
            }
            let facade = run_s - probe.build_s - probe.sweep_s;
            loop_share.push(probe.loop_share(parse[n], lint[n], facade));
            assemble.push(facade);
            probes.push(probe);
        } else {
            assemble.push(run_s);
        }
    }
    let overhead: Vec<f64> = samples
        .iter()
        .filter(|s| !s.cached() && s.ok())
        .filter_map(|s| cost.get(&usize::from(s.key)).map(|c| f64::from(s.secs) - c))
        .collect();
    out.set("service.overhead_ms", median(&overhead) * 1e3);
    out.set("spec.parse_s", median(&parse));
    out.set("spec.canonical_s", median(&canon));
    out.set("spec.bytes", median(&bytes));
    out.set("lint.s", median(&lint));
    out.set("lint.diagnostics", median(&diags));
    out.set("wire.render_s", median(&render));
    out.set("wire.bytes", median(&wire_bytes));
    out.set("experiment.assemble_s", median(&assemble));
    out.set("sim.loop_share", median(&loop_share));
    crate::digital::set_metrics(out, &probes);
    Ok(())
}
