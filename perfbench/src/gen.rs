//! Seeded workload generation. Every input the program under test sees
//! is spec text produced here from the `--seed` argument alone (plus
//! the host's core count for the sweep's `workers` field), so the same
//! seed on the same host yields byte-identical inputs.

use faithful::{
    ChannelSpec, DigitalSpec, ExperimentSpec, NoiseSpec, OutputSelect, ScenarioSpec, SignalSpec,
    SpfSpec, TopologySpec,
};

/// SplitMix64: a tiny, well-mixed, platform-independent stream.
pub struct Rng(u64);

impl Rng {
    /// A stream for `(seed, stream)`; distinct streams are independent.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`, rounded to 1/1000 so the spec text stays
    /// short and human-readable.
    pub fn milli(&mut self, lo: f64, hi: f64) -> f64 {
        ((lo + (hi - lo) * self.unit()) * 1000.0).round() / 1000.0
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// The cores the workloads may use (`nproc`).
pub fn nproc() -> u32 {
    std::thread::available_parallelism().map_or(1, |n| u32::try_from(n.get()).unwrap_or(1))
}

/// Stages of the `glitch_sweep` chain.
const CHAIN_STAGES: u32 = 256;
/// Scenarios per `glitch_sweep` spec.
const GLITCH_SCENARIOS: u64 = 1000;
/// Pulses per scenario's glitch train, as in the sizing probe this
/// workload was specified from. With the widths drawn below, an op
/// processes about 17M events.
const GLITCH_PULSES: usize = 40;

/// The paper's hard case: an η-involution inverter chain (exp delay,
/// uniform η noise with bounds inside constraint (C), as in
/// `specs/digital_sweep.spec`) swept over many seeded scenarios. Each
/// scenario drives a glitch train whose high and low phases are drawn
/// around the chain's cancellation threshold (≈ 5.3 time units for 256
/// stages), so some pulses cross the whole chain and others are
/// cancelled part-way. Only the output `y` is watched: recording all
/// 258 nodes made an op allocate about 600 MB, and its time then
/// depended more on the host's memory than on the event loop.
pub fn glitch_sweep(seed: u64) -> String {
    let mut rng = Rng::new(seed, 1);
    let channel = ChannelSpec::eta_exp(
        1.0,
        0.5,
        0.5,
        0.02,
        0.02,
        NoiseSpec::Uniform {
            seed: rng.below(1 << 32),
        },
    );
    let mut spec = DigitalSpec::new(
        TopologySpec::InverterChain {
            stages: CHAIN_STAGES,
            channel,
        },
        800.0,
    )
    .with_workers(nproc())
    .with_outputs(OutputSelect::default().with_watch("y"));
    for k in 0..GLITCH_SCENARIOS {
        let mut t = rng.milli(1.0, 5.0);
        let mut pulses = Vec::with_capacity(GLITCH_PULSES);
        for _ in 0..GLITCH_PULSES {
            let width = rng.milli(4.6, 6.0);
            pulses.push((t, width));
            t += width + rng.milli(4.6, 6.0);
        }
        spec = spec.with_scenario(
            ScenarioSpec::new(format!("g{k}"))
                .with_seed(rng.next_u64() >> 16)
                .with_input("a", SignalSpec::train(pulses)),
        );
    }
    ExperimentSpec::digital(spec).to_string()
}

/// The scale tier: one scenario on a 1000×1000 grid of pure-delay
/// gates with only the output port watched. The seed picks the wire
/// delay and the stimulus pulse; the event count (two wavefronts over
/// the whole lattice) does not depend on them.
pub fn grid_1m(seed: u64) -> String {
    let mut rng = Rng::new(seed, 2);
    let spec = DigitalSpec::new(
        TopologySpec::Grid2d {
            width: 1000,
            height: 1000,
            channel: ChannelSpec::pure(rng.milli(0.5, 1.5)),
        },
        1.0e6,
    )
    .with_scenario(
        ScenarioSpec::new("grid")
            .with_seed(rng.next_u64() >> 16)
            .with_input(
                "a",
                SignalSpec::pulse(rng.milli(1.0, 10.0), rng.milli(100.0, 600.0)),
            ),
    )
    .with_outputs(OutputSelect::default().with_watch("y"));
    ExperimentSpec::digital(spec).to_string()
}

/// Distinct specs in the `serve_mix` key space: four times the entry
/// bound of the daemon's cache at its shipped default
/// (`ServeConfig::default().cache_entries`, 1024), so hits, misses and
/// evictions all occur.
pub const SERVE_KEYS: usize = 4096;

/// The three kinds of spec in the `serve_mix` key space.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum ServeKind {
    Channel,
    Spf,
    Digital,
}

impl ServeKind {
    pub const ALL: [ServeKind; 3] = [ServeKind::Channel, ServeKind::Spf, ServeKind::Digital];

    /// The kind at a popularity rank: channel applications 50%, SPF
    /// theory bundles 15%, short digital sweeps 35%, interleaved so
    /// every popularity band holds the same mix. These shares are an
    /// assumption (the repository has no record of served traffic); a
    /// traced run reports each kind's measured share of served time.
    pub fn of_rank(rank: usize) -> ServeKind {
        match rank % 20 {
            0..=9 => ServeKind::Channel,
            10..=12 => ServeKind::Spf,
            _ => ServeKind::Digital,
        }
    }
}

/// The `serve_mix` key space. Popularity goes by position (see
/// [`zipf_cdf`]), and each position's kind and sweep length are fixed,
/// so every seed has the same mix of kinds at every popularity; the
/// seed draws the parameters, noise seeds and stimuli.
pub fn serve_keys(seed: u64) -> Vec<String> {
    let mut rng = Rng::new(seed, 3);
    (0..SERVE_KEYS)
        .map(|rank| match ServeKind::of_rank(rank) {
            ServeKind::Channel => channel_spec(&mut rng),
            ServeKind::Spf => spf_spec(&mut rng),
            ServeKind::Digital => small_sweep(&mut rng, 8 + (rank as u32 * 7) % 17),
        })
        .collect()
}

fn channel_spec(rng: &mut Rng) -> String {
    let (tau, t_p) = (rng.milli(0.5, 2.0), rng.milli(0.2, 0.8));
    let channel = if rng.below(2) == 0 {
        ChannelSpec::involution_exp(tau, t_p, 0.5)
    } else {
        ChannelSpec::eta_exp(
            tau,
            t_p,
            0.5,
            0.01,
            0.01,
            NoiseSpec::Uniform {
                seed: rng.below(1 << 32),
            },
        )
    };
    let mut t = rng.milli(0.0, 2.0);
    let pulses: Vec<(f64, f64)> = (0..8)
        .map(|_| {
            let width = rng.milli(0.5, 4.0);
            let at = t;
            t += width + rng.milli(0.5, 4.0);
            (at, width)
        })
        .collect();
    ExperimentSpec::channel(channel, SignalSpec::train(pulses)).to_string()
}

fn spf_spec(rng: &mut Rng) -> String {
    let eta = rng.milli(0.005, 0.03);
    ExperimentSpec::spf(SpfSpec::exp(
        rng.milli(0.5, 2.0),
        rng.milli(0.3, 0.7),
        0.5,
        eta,
        eta,
    ))
    .to_string()
}

fn small_sweep(rng: &mut Rng, stages: u32) -> String {
    let channel = ChannelSpec::eta_exp(
        1.0,
        0.5,
        0.5,
        0.02,
        0.02,
        NoiseSpec::Uniform {
            seed: rng.below(1 << 32),
        },
    );
    let mut spec = DigitalSpec::new(TopologySpec::InverterChain { stages, channel }, 200.0);
    for k in 0..4 {
        let mut t = rng.milli(1.0, 3.0);
        let pulses: Vec<(f64, f64)> = (0..4)
            .map(|_| {
                let width = rng.milli(1.5, 6.0);
                let at = t;
                t += width + rng.milli(1.5, 6.0);
                (at, width)
            })
            .collect();
        spec = spec.with_scenario(
            ScenarioSpec::new(format!("s{k}"))
                .with_seed(rng.next_u64() >> 16)
                .with_input("a", SignalSpec::train(pulses)),
        );
    }
    ExperimentSpec::digital(spec).to_string()
}

/// Cumulative Zipf(1) popularity over `n` ranks: rank `r` is drawn with
/// probability ∝ 1/(r+1). The exponent is an assumption (the classic
/// fit for web and cache traffic), not a measurement of this service's
/// users; with 4096 keys the 1024 most popular draw 84% of requests.
pub fn zipf_cdf(n: usize) -> Vec<f64> {
    let mut acc = 0.0;
    let mut cdf: Vec<f64> = (0..n)
        .map(|r| {
            acc += 1.0 / (r as f64 + 1.0);
            acc
        })
        .collect();
    for c in &mut cdf {
        *c /= acc;
    }
    cdf
}

/// Draws a rank from a CDF built by [`zipf_cdf`].
pub fn draw(cdf: &[f64], rng: &mut Rng) -> usize {
    let u = rng.unit();
    cdf.partition_point(|&c| c <= u).min(cdf.len() - 1)
}
