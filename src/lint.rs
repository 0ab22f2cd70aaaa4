//! `faithful-lint`: static diagnostics over experiment specs.
//!
//! The involution model's faithfulness guarantees only hold for
//! well-formed inputs — channels must satisfy constraint (C), netlists
//! must not contain undelayed combinational cycles, and specs must name
//! real channel kinds with physical parameters. This module checks all
//! of that *statically*: every pass is pure and runs without scheduling
//! a single simulation event.
//!
//! Four passes produce [`Diagnostic`]s with stable codes:
//!
//! | code | severity | meaning |
//! |------|----------|---------|
//! | `IVL001` | error | combinational cycle with zero minimum delay on every edge |
//! | `IVL002` | info | delayed feedback loop (legal, but worth knowing about) |
//! | `IVL003` | warning | dangling node (undriven gate, or a node that drives nothing) |
//! | `IVL004` | error | output port no gate drives |
//! | `IVL005` | warning | node unreachable from any input |
//! | `IVL010` | error | channel parameters rejected by the factory |
//! | `IVL011` | error | constraint (C) violated for an `eta` channel or SPF spec |
//! | `IVL012` | error | delay pair has no positive `δ_min` fixed point |
//! | `IVL013` | warning | involution / monotonicity / concavity probing violation |
//! | `IVL014` | warning | `delay_hint()` inconsistent with sampled delays |
//! | `IVL015` | warning | delay-hint spread degenerates the calendar queue |
//! | `IVL020` | warning | a scenario's stimulus provably cancels inside a channel |
//! | `IVL021` | info | SPF input pulse provably filtered (Lemma 4 bound) |
//! | `IVL022` | info | pulse-width propagation truncated (probe budget) |
//! | `IVL030` | error | unknown channel kind |
//! | `IVL031` | error | duplicate node name |
//! | `IVL032` | error | edge references an unknown node |
//! | `IVL033` | error | scenario drives an unknown input port |
//! | `IVL034` | error | empty sweep axis / sample set |
//! | `IVL035` | error | non-finite or out-of-range numeric field |
//! | `IVL036` | error | signal spec that cannot build a valid signal |
//! | `IVL037` | warning | `workers = 0` (clamped to 1 at run time) |
//! | `IVL038` | warning | duplicate scenario label |
//! | `IVL039` | error | malformed truth table (rows ≠ 2^inputs) |
//! | `IVL040` | warning | `max_events` below the provable minimum event count |
//! | `IVL041` | warning | `retry(n)` policy on a fully deterministic workload |
//! | `IVL050` | info | `workers = n` is overridden by the experiment service's shared pool (service context only) |
//! | `IVL060` | error | degenerate generator parameters (zero-size grid or DAG, fat tree beyond the depth cap) |
//! | `IVL061` | warning | `random_dag` without an explicit seed (netlist not reproducible from the spec) |
//! | `IVL062` | error | watched node name not present in the (generated) topology |
//!
//! [`Experiment::run`](crate::Experiment::run) runs the linter as a
//! pre-flight: `Error`-severity diagnostics deny the run by default;
//! [`LintConfig`] (or the `IVL_LINT=off|warn|deny` environment knob)
//! overrides that.

use std::collections::{HashMap, HashSet};
use std::fmt;

use ivl_core::channel::{apply_online, OnlineChannel};
use ivl_core::delay::{check_involution, delta_min_of, DelayFamily, DelayPair};
use ivl_core::factory::{delay_pair_from, ChannelParams, ChannelRegistry, ParamValue};
use ivl_core::noise::EtaBounds;
use ivl_core::Signal;

use crate::error::{Span, SpecError};
use crate::spec::{
    channel_to_value, AnalogSpec, ChannelSpec, DelaySpec, DigitalSpec, ExperimentSpec,
    FailurePolicySpec, GateKindSpec, NodeSpec, ReferenceSpec, ScenarioSpec, SignalSpec, SpfSpec,
    SpfTask, TopologySpec, WorkloadSpec,
};
use crate::value::{parse_document, Value, ValueKind};

/// How bad a [`Diagnostic`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Informational: nothing wrong, but worth knowing.
    Info,
    /// Suspicious: the experiment runs, but probably not as intended.
    Warning,
    /// Broken: the experiment cannot produce a meaningful result.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// One finding of the linter.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Stable diagnostic code (`IVL001`…); see the module table.
    pub code: &'static str,
    /// How bad it is.
    pub severity: Severity,
    /// Human-readable description of the finding.
    pub message: String,
    /// Where in the spec text it points (for parsed specs).
    pub span: Option<Span>,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]: {}", self.severity, self.code, self.message)?;
        if let Some(span) = self.span {
            write!(f, " ({span})")?;
        }
        Ok(())
    }
}

/// Everything the linter found on one spec, in pass order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LintReport {
    diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// The findings, in the order the passes produced them.
    #[must_use]
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// `true` if nothing at all was found.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// `true` if any finding has [`Severity::Error`].
    #[must_use]
    pub fn has_errors(&self) -> bool {
        self.count(Severity::Error) > 0
    }

    /// Number of findings at exactly `severity`.
    #[must_use]
    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }
}

impl fmt::Display for LintReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for d in &self.diagnostics {
            writeln!(f, "{d}")?;
        }
        write!(
            f,
            "{} error(s), {} warning(s), {} note(s)",
            self.count(Severity::Error),
            self.count(Severity::Warning),
            self.count(Severity::Info)
        )
    }
}

/// What [`Experiment::run`](crate::Experiment::run) does with lint
/// findings before dispatching the workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LintConfig {
    /// Skip the pre-flight entirely.
    Off,
    /// Run the linter and print a non-clean report to stderr, but never
    /// refuse to run.
    Warn,
    /// Refuse to run a spec with `Error`-severity findings (the
    /// default).
    #[default]
    Deny,
}

impl LintConfig {
    /// Reads the `IVL_LINT` environment knob (`off`, `warn` or `deny`);
    /// `None` for unset or unrecognized values.
    #[must_use]
    pub fn from_env() -> Option<LintConfig> {
        match std::env::var("IVL_LINT").ok()?.as_str() {
            "off" => Some(LintConfig::Off),
            "warn" => Some(LintConfig::Warn),
            "deny" => Some(LintConfig::Deny),
            _ => None,
        }
    }
}

/// Lints a (typically programmatically built) spec.
///
/// Diagnostics carry no spans; parse via [`lint_text`] to get locations.
#[must_use]
pub fn lint(spec: &ExperimentSpec, registry: &ChannelRegistry) -> LintReport {
    Linter::new(registry, SpecSpans::default()).run(spec)
}

/// Parses a spec document and lints it, attaching line/column spans to
/// the diagnostics.
///
/// # Errors
///
/// [`SpecError`] when the text does not parse as a spec at all (lint
/// needs a structurally valid document to work on).
pub fn lint_text(text: &str, registry: &ChannelRegistry) -> Result<LintReport, SpecError> {
    let value = parse_document(text)?;
    let spans = SpecSpans::extract(&value);
    let spec = ExperimentSpec::from_value(value)?;
    Ok(Linter::new(registry, spans).run(&spec))
}

/// Lints a spec *as the experiment service would before running it*.
///
/// This is the same pass set as [`lint`], plus service-context
/// diagnostics for fields the daemon overrides server-side — today
/// `IVL050` (info) when a spec requests `workers = n`, which
/// `faithful-serve` ignores in favor of its own shared pool sizing.
/// Results are unaffected (sweeps are bit-identical across worker
/// counts), so the finding is informational, but clients should not be
/// silently surprised that the knob did nothing.
#[must_use]
pub fn lint_for_service(spec: &ExperimentSpec, registry: &ChannelRegistry) -> LintReport {
    Linter::new(registry, SpecSpans::default())
        .for_service()
        .run(spec)
}

/// Parses a spec document and lints it in service context (see
/// [`lint_for_service`]), attaching line/column spans.
///
/// # Errors
///
/// [`SpecError`] when the text does not parse as a spec at all.
pub fn lint_text_for_service(
    text: &str,
    registry: &ChannelRegistry,
) -> Result<LintReport, SpecError> {
    let value = parse_document(text)?;
    let spans = SpecSpans::extract(&value);
    let spec = ExperimentSpec::from_value(value)?;
    Ok(Linter::new(registry, spans).for_service().run(&spec))
}

// ======================================================================
// Span side-table
// ======================================================================

/// Spans harvested from the parsed [`Value`] tree, so diagnostics on the
/// typed spec (which carries no spans) can still point into the text.
#[derive(Debug, Default)]
struct SpecSpans {
    workload: Option<Span>,
    nodes: Vec<Option<Span>>,
    edges: Vec<Option<Span>>,
    scenarios: Vec<Option<Span>>,
    widths: Option<Span>,
    horizon: Option<Span>,
    workers: Option<Span>,
    max_events: Option<Span>,
    on_failure: Option<Span>,
    delay: Option<Span>,
    topology: Option<Span>,
    watch: Vec<Option<Span>>,
    /// Rendered channel spec text → span of its node in the document.
    channels: HashMap<String, Span>,
}

impl SpecSpans {
    fn extract(value: &Value) -> SpecSpans {
        let mut spans = SpecSpans {
            workload: value.span(),
            ..SpecSpans::default()
        };
        spans.collect_channels(value);
        let ValueKind::Node(_, fields) = value.kind() else {
            return spans;
        };
        for (name, v) in fields {
            match name.as_str() {
                "topology" => {
                    spans.topology = v.span();
                    spans.collect_topology(v);
                }
                "scenarios" => spans.scenarios = list_spans(v),
                "outputs" => {
                    if let ValueKind::Node(_, of) = v.kind() {
                        if let Some((_, w)) = of.iter().find(|(n, _)| n == "watch") {
                            spans.watch = list_spans(w);
                        }
                    }
                }
                "horizon" => spans.horizon = v.span(),
                "workers" => spans.workers = v.span(),
                "max_events" => spans.max_events = v.span(),
                "on_failure" => spans.on_failure = v.span(),
                "sweep" => {
                    if let ValueKind::Node(_, sf) = v.kind() {
                        if let Some((_, w)) = sf.iter().find(|(n, _)| n == "widths") {
                            spans.widths = w.span();
                        }
                    }
                }
                "delay" => spans.delay = v.span(),
                _ => {}
            }
        }
        spans
    }

    fn collect_topology(&mut self, v: &Value) {
        let ValueKind::Node(_, fields) = v.kind() else {
            return;
        };
        for (name, fv) in fields {
            match name.as_str() {
                "nodes" => self.nodes = list_spans(fv),
                "edges" => self.edges = list_spans(fv),
                _ => {}
            }
        }
    }

    /// Every node reached through a field named `channel` is a channel
    /// spec; key by its canonical rendering (which is what the typed
    /// spec re-renders to, so lookups match exactly).
    fn collect_channels(&mut self, v: &Value) {
        match v.kind() {
            ValueKind::Node(_, fields) => {
                for (name, fv) in fields {
                    if name == "channel"
                        && matches!(fv.kind(), ValueKind::Node(..) | ValueKind::Word(_))
                    {
                        if let Some(span) = fv.span() {
                            self.channels.entry(fv.to_string()).or_insert(span);
                        }
                    }
                    self.collect_channels(fv);
                }
            }
            ValueKind::List(items) => {
                for item in items {
                    self.collect_channels(item);
                }
            }
            _ => {}
        }
    }
}

fn list_spans(v: &Value) -> Vec<Option<Span>> {
    match v.kind() {
        ValueKind::List(items) => items.iter().map(Value::span).collect(),
        _ => Vec::new(),
    }
}

// ======================================================================
// The linter
// ======================================================================

/// Pulse-response probes per lint run; beyond this the hazard pass
/// truncates (and says so with `IVL022`) rather than stall a pre-flight.
const PROBE_BUDGET: usize = 4096;

/// Numerical tolerance for the involution probing pass (`IVL013`).
const INVOLUTION_TOL: f64 = 1e-6;

/// Output widths at or below this count as a cancelled pulse.
const DEAD_WIDTH: f64 = 1e-12;

/// Cached per-channel facts from the channel-verification pass.
#[derive(Clone, Copy, Default)]
struct ChannelFacts {
    builds: bool,
    hint: Option<f64>,
    /// `true` when a probed single transition was delivered with zero
    /// delay (the edge can sustain a zero-delay cycle).
    zero_delay: bool,
}

struct Linter<'a> {
    registry: &'a ChannelRegistry,
    spans: SpecSpans,
    diagnostics: Vec<Diagnostic>,
    /// Interned channel specs: canonical rendering → id.
    channel_ids: HashMap<String, usize>,
    /// Per interned id: where the spec text first wrote the channel
    /// and, once verified, the channel's facts.
    channels: Vec<(Option<Span>, Option<ChannelFacts>)>,
    /// `(channel id, width bits)` → surviving output width.
    probe_cache: HashMap<(usize, u64), Option<f64>>,
    probes_left: usize,
    truncated: bool,
    /// Lint for the experiment service: adds diagnostics about fields
    /// the daemon overrides server-side (`IVL050`).
    service: bool,
}

impl<'a> Linter<'a> {
    fn new(registry: &'a ChannelRegistry, spans: SpecSpans) -> Self {
        Linter {
            registry,
            spans,
            diagnostics: Vec::new(),
            channel_ids: HashMap::new(),
            channels: Vec::new(),
            probe_cache: HashMap::new(),
            probes_left: PROBE_BUDGET,
            truncated: false,
            service: false,
        }
    }

    fn for_service(mut self) -> Self {
        self.service = true;
        self
    }

    fn push(
        &mut self,
        code: &'static str,
        severity: Severity,
        span: Option<Span>,
        message: String,
    ) {
        self.diagnostics.push(Diagnostic {
            code,
            severity,
            message,
            span,
        });
    }

    fn run(mut self, spec: &ExperimentSpec) -> LintReport {
        match &spec.workload {
            WorkloadSpec::Channel(c) => {
                self.check_channel(&c.channel);
                self.check_signal(&c.input, "input", self.spans.workload);
            }
            WorkloadSpec::Digital(d) => self.lint_digital(d),
            WorkloadSpec::Analog(a) => self.lint_analog(a),
            WorkloadSpec::Spf(s) => self.lint_spf(s),
        }
        if self.truncated {
            let done = PROBE_BUDGET - self.probes_left;
            self.push(
                "IVL022",
                Severity::Info,
                None,
                format!("pulse-width propagation truncated after {done} channel probes"),
            );
        }
        LintReport {
            diagnostics: self.diagnostics,
        }
    }

    // ------------------------------------------------------------------
    // Pass 4 helpers shared by all workloads
    // ------------------------------------------------------------------

    fn check_signal(&mut self, s: &SignalSpec, what: &str, span: Option<Span>) {
        if let Err(e) = s.build() {
            self.push(
                "IVL036",
                Severity::Error,
                span,
                format!("{what}: signal spec builds no valid signal: {e}"),
            );
        }
    }

    fn check_finite(&mut self, value: f64, what: &str, span: Option<Span>) {
        if !value.is_finite() {
            self.push(
                "IVL035",
                Severity::Error,
                span,
                format!("{what} must be finite, got {value}"),
            );
        }
    }

    fn check_workers(&mut self, workers: Option<u32>) {
        if workers == Some(0) {
            self.push(
                "IVL037",
                Severity::Warning,
                self.spans.workers,
                "workers = 0 is clamped to 1 at run time".to_owned(),
            );
        }
        if let (true, Some(n)) = (self.service, workers) {
            self.push(
                "IVL050",
                Severity::Info,
                self.spans.workers,
                format!(
                    "workers = {n} is ignored by the experiment service, which schedules \
                     jobs onto its own shared pool (results are unaffected: sweeps are \
                     bit-identical across worker counts)"
                ),
            );
        }
    }

    // ------------------------------------------------------------------
    // Pass 2: channel-parameter verification
    // ------------------------------------------------------------------

    /// Interns `c` by its canonical rendering (rendered once per call):
    /// equal specs share one id, so their facts and pulse probes are
    /// computed once.
    fn intern(&mut self, c: &ChannelSpec) -> usize {
        let key = channel_to_value(c).to_string();
        if let Some(&id) = self.channel_ids.get(&key) {
            return id;
        }
        let id = self.channels.len();
        self.channels
            .push((self.spans.channels.get(&key).copied(), None));
        self.channel_ids.insert(key, id);
        id
    }

    /// Where the spec text first wrote the channel interned as `id`.
    fn channel_span(&self, id: usize) -> Option<Span> {
        self.channels[id].0
    }

    /// Verifies the channel interned as `ch.id` on first use and returns
    /// the cached facts about it.
    fn facts(&mut self, ch: GChannel<'_>) -> ChannelFacts {
        if let Some(facts) = self.channels[ch.id].1 {
            return facts;
        }
        let facts = self.verify_channel(ch.spec, self.channel_span(ch.id));
        self.channels[ch.id].1 = Some(facts);
        facts
    }

    /// Verifies one channel spec outside a lint graph.
    fn check_channel(&mut self, c: &ChannelSpec) {
        let id = self.intern(c);
        self.facts(GChannel { spec: c, id });
    }

    fn verify_channel(&mut self, c: &ChannelSpec, span: Option<Span>) -> ChannelFacts {
        let mut facts = ChannelFacts::default();
        if !self.registry.contains(&c.kind) {
            self.push(
                "IVL030",
                Severity::Error,
                span,
                format!(
                    "unknown channel kind {:?} (registered: {})",
                    c.kind,
                    self.registry.kinds().join(", ")
                ),
            );
            return facts;
        }
        let channel = match self.registry.build(&c.kind, &c.params) {
            Ok(ch) => ch,
            Err(e) => {
                self.push(
                    "IVL010",
                    Severity::Error,
                    span,
                    format!("channel {:?}: parameters rejected: {e}", c.kind),
                );
                return facts;
            }
        };
        facts.builds = true;
        facts.hint = channel.delay_hint();

        // probe the delivery delay of an isolated wide pulse: a zero (or
        // negative) first delay marks a zero-delay edge for pass 1, and
        // the sampled delays must be commensurate with `delay_hint()`
        // for the calendar queue sizing to make sense (IVL014).
        let mut channel = channel;
        let probe = Signal::pulse(0.0, 1e6).expect("static probe signal");
        let out = apply_online(&mut channel, &probe);
        let mut sampled: Vec<f64> = Vec::new();
        if let Some(first) = out.transitions().first() {
            sampled.push(first.time);
            facts.zero_delay = first.time <= DEAD_WIDTH;
        }
        if let Some(second) = out.transitions().get(1) {
            sampled.push(second.time - 1e6);
        }
        if let Some(hint) = facts.hint {
            let d_max = sampled.iter().copied().fold(0.0_f64, f64::max);
            if d_max > 0.0 && hint > 0.0 && (d_max > 4.0 * hint || hint > 4.0 * d_max) {
                self.push(
                    "IVL014",
                    Severity::Warning,
                    span,
                    format!(
                        "channel {:?}: delay_hint() = {hint} but sampled delays reach {d_max} \
                         (ratio > 4x degrades calendar-queue bucket sizing)",
                        c.kind
                    ),
                );
            }
        }

        // deep involution checks when the parameters describe one of the
        // built-in delay families (custom factories shadowing these
        // kinds get probing, not theory).
        if (c.kind == "involution" || c.kind == "eta") && delay_pair_from(&c.params).is_ok() {
            let eta = (c.kind == "eta").then(|| {
                (
                    c.params.num_or("minus", 0.0).unwrap_or(0.0),
                    c.params.num_or("plus", 0.0).unwrap_or(0.0),
                )
            });
            match delay_pair_from(&c.params).expect("checked above") {
                DelayFamily::Exp(d) => self.verify_pair(&d, eta, &c.kind, span),
                DelayFamily::Rational(d) => self.verify_pair(&d, eta, &c.kind, span),
                _ => {}
            }
        }
        facts
    }

    /// Involution-theory checks on one delay pair: `δ_min` existence
    /// (IVL012), grid probing (IVL013) and constraint (C) when η-bounds
    /// are present (IVL011).
    fn verify_pair<D: DelayPair>(
        &mut self,
        pair: &D,
        eta: Option<(f64, f64)>,
        kind: &str,
        span: Option<Span>,
    ) {
        let delta_min = match delta_min_of(pair) {
            Ok(d) => d,
            Err(e) => {
                self.push(
                    "IVL012",
                    Severity::Error,
                    span,
                    format!("channel {kind:?}: no positive delta_min fixed point: {e}"),
                );
                return;
            }
        };
        let hi = 5.0 * (pair.delta_up_inf() + pair.delta_down_inf()) + 1.0;
        let report = check_involution(pair, -0.9 * delta_min, hi, 96);
        if !report.is_valid(INVOLUTION_TOL) {
            self.push(
                "IVL013",
                Severity::Warning,
                span,
                format!(
                    "channel {kind:?}: delay pair fails involution probing \
                     (roundtrip {:.2e}, monotonicity {:.2e}, concavity {:.2e})",
                    report.max_roundtrip_error,
                    report.max_monotonicity_violation,
                    report.max_concavity_violation
                ),
            );
        }
        if let Some((minus, plus)) = eta {
            if let Ok(bounds) = EtaBounds::new(minus, plus) {
                if !bounds.satisfies_constraint_c(pair) {
                    let slack = pair.delta_down(-plus) - delta_min - (plus + minus);
                    self.push(
                        "IVL011",
                        Severity::Error,
                        span,
                        format!(
                            "channel {kind:?}: constraint (C) violated: \
                             eta+ + eta- = {} but delta_down(-eta+) - delta_min = {} \
                             (slack {slack:.6})",
                            plus + minus,
                            pair.delta_down(-plus) - delta_min
                        ),
                    );
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Digital workload: passes 1, 3 and 4
    // ------------------------------------------------------------------

    fn lint_digital(&mut self, d: &DigitalSpec) {
        self.check_finite(d.horizon, "digital: field \"horizon\"", self.spans.horizon);
        if d.horizon.is_finite() && d.horizon < 0.0 {
            self.push(
                "IVL035",
                Severity::Error,
                self.spans.horizon,
                format!("digital: field \"horizon\" must be >= 0, got {}", d.horizon),
            );
        }
        self.check_workers(d.workers);

        let graph = self.extract_graph(&d.topology);
        for edge in &graph.edges {
            if let Some(ch) = edge.channel {
                self.facts(ch);
            }
        }
        let scc = graph.sccs();
        self.graph_pass(&graph, &scc);
        self.hint_spread(&graph);

        let mut labels: HashSet<&str> = HashSet::new();
        // input port name -> node index
        let inputs: HashMap<&str, usize> = graph
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.kind == GKind::Input)
            .map(|(i, n)| (n.name.as_str(), i))
            .collect();
        for (i, s) in d.scenarios.iter().enumerate() {
            let span = self.spans.scenarios.get(i).copied().flatten();
            if !labels.insert(&s.label) {
                self.push(
                    "IVL038",
                    Severity::Warning,
                    span,
                    format!("duplicate scenario label {:?}", s.label),
                );
            }
            for (port, sig) in &s.inputs {
                if !inputs.contains_key(port.as_str()) {
                    self.push(
                        "IVL033",
                        Severity::Error,
                        span,
                        format!(
                            "scenario {:?} drives unknown input port {:?}",
                            s.label, port
                        ),
                    );
                }
                self.check_signal(sig, &format!("scenario {:?}, port {port:?}", s.label), span);
            }
        }

        // IVL062: a watched node must exist in the topology. Generator
        // node names follow a closed-form naming scheme, so membership
        // is decided without materializing the netlist.
        for (i, name) in d.outputs.watch.iter().enumerate() {
            if !topology_has_node(&d.topology, name) {
                let span = self
                    .spans
                    .watch
                    .get(i)
                    .copied()
                    .flatten()
                    .or(self.spans.topology);
                self.push(
                    "IVL062",
                    Severity::Error,
                    span,
                    format!("watched node {name:?} does not exist in the topology"),
                );
            }
        }

        self.hazard_pass(&graph, &scc, &d.scenarios, &inputs);
        self.budget_pass(&graph, d);
        self.retry_pass(&graph, d);
    }

    /// `IVL040`: per scenario, every input transition fed into a direct
    /// (channel-less) outgoing edge is scheduled verbatim, so the
    /// scheduled-event count is provably at least
    /// Σ_ports (transitions × direct out-edges). If that floor already
    /// exceeds `max_events`, the scenario is guaranteed to die with
    /// `MaxEventsExceeded` before a single gate fires.
    fn budget_pass(&mut self, g: &Graph<'_>, d: &DigitalSpec) {
        let Some(budget) = d.max_events else {
            return;
        };
        let mut direct_out: HashMap<&str, u64> = HashMap::new();
        for e in &g.edges {
            if e.channel.is_none() && g.nodes[e.from].kind == GKind::Input {
                *direct_out.entry(g.nodes[e.from].name.as_str()).or_insert(0) += 1;
            }
        }
        if direct_out.is_empty() {
            return;
        }
        for (i, s) in d.scenarios.iter().enumerate() {
            let mut floor: u64 = 0;
            for (port, sig) in &s.inputs {
                let Some(&fanout) = direct_out.get(port.as_str()) else {
                    continue;
                };
                let Ok(signal) = sig.build() else {
                    continue; // IVL036 already reported
                };
                floor += signal.transitions().len() as u64 * fanout;
            }
            if floor > budget {
                let span = self
                    .spans
                    .max_events
                    .or_else(|| self.spans.scenarios.get(i).copied().flatten());
                self.push(
                    "IVL040",
                    Severity::Warning,
                    span,
                    format!(
                        "scenario {:?} schedules at least {floor} events from its input \
                         stimuli alone, which already exceeds max_events = {budget}",
                        s.label
                    ),
                );
            }
        }
    }

    /// `IVL041`: a `retry(n)` failure policy re-runs a failed scenario
    /// with the same seed, so when every channel in the topology is
    /// deterministic the retries can only reproduce the failure.
    /// Channels of unknown (custom) kinds are conservatively assumed
    /// stochastic, so they never trigger this warning.
    fn retry_pass(&mut self, g: &Graph<'_>, d: &DigitalSpec) {
        let FailurePolicySpec::Retry { attempts } = d.on_failure else {
            return;
        };
        let deterministic = g
            .edges
            .iter()
            .all(|e| !e.channel.is_some_and(|ch| ch.spec.is_stochastic()));
        if deterministic {
            self.push(
                "IVL041",
                Severity::Warning,
                self.spans.on_failure,
                format!(
                    "on_failure = retry({attempts}) with a fully deterministic workload: \
                     retries re-run the same seed and can only reproduce the failure"
                ),
            );
        }
    }

    // ---- pass 1: graph analysis ----

    fn extract_graph<'s>(&mut self, topology: &'s TopologySpec) -> Graph<'s> {
        let mut g = Graph::default();
        match topology {
            TopologySpec::Netlist(n) => {
                let mut by_name: HashMap<&str, usize> = HashMap::new();
                for (i, node) in n.nodes.iter().enumerate() {
                    let span = self.spans.nodes.get(i).copied().flatten();
                    let (name, kind) = match node {
                        NodeSpec::Input { name } => (name, GKind::Input),
                        NodeSpec::Output { name } => (name, GKind::Output),
                        NodeSpec::Gate { name, kind, .. } => {
                            self.check_gate_kind(kind, span);
                            (name, GKind::Gate)
                        }
                    };
                    if by_name.contains_key(name.as_str()) {
                        self.push(
                            "IVL031",
                            Severity::Error,
                            span,
                            format!("duplicate node name {name:?}"),
                        );
                        continue;
                    }
                    by_name.insert(name.as_str(), g.nodes.len());
                    g.nodes.push(GNode {
                        name: name.clone(),
                        kind,
                        span,
                    });
                }
                for (i, e) in n.edges.iter().enumerate() {
                    let span = self.spans.edges.get(i).copied().flatten();
                    let from = by_name.get(e.from.as_str()).copied();
                    let to = by_name.get(e.to.as_str()).copied();
                    for (end, node) in [("from", &e.from), ("to", &e.to)] {
                        if !by_name.contains_key(node.as_str()) {
                            self.push(
                                "IVL032",
                                Severity::Error,
                                span,
                                format!("edge {end} references unknown node {node:?}"),
                            );
                        }
                    }
                    if let (Some(from), Some(to)) = (from, to) {
                        let channel = e.channel.as_ref().map(|spec| GChannel {
                            spec,
                            id: self.intern(spec),
                        });
                        g.edges.push(GEdge {
                            from,
                            to,
                            channel,
                            span,
                        });
                    }
                }
            }
            TopologySpec::InverterChain { stages, channel } => {
                g.nodes.push(GNode {
                    name: "a".to_owned(),
                    kind: GKind::Input,
                    span: None,
                });
                for i in 0..*stages {
                    g.nodes.push(GNode {
                        name: format!("inv{i}"),
                        kind: GKind::Gate,
                        span: None,
                    });
                }
                g.nodes.push(GNode {
                    name: "y".to_owned(),
                    kind: GKind::Output,
                    span: None,
                });
                let ch = GChannel {
                    spec: channel,
                    id: self.intern(channel),
                };
                let span = self.channel_span(ch.id);
                for i in 0..=*stages as usize {
                    g.edges.push(GEdge {
                        from: i,
                        to: i + 1,
                        // the first hop is a direct connection, matching
                        // how the facade builds the chain
                        channel: (i > 0).then_some(ch),
                        span,
                    });
                }
            }
            // scale generators (grid, random_dag, fat_tree) are acyclic
            // and fully connected by construction, so instead of
            // synthesizing up to a million nodes the lint graph is a
            // 3-node skeleton `a → gate → y` that exercises every
            // channel/stimulus pass exactly once (the input hop is
            // direct, matching how the generators wire their first
            // gate). Generator *parameters* are checked here (IVL060,
            // IVL061); watch-name membership is checked formulaically
            // in `lint_digital` (IVL062).
            TopologySpec::Grid2d {
                width,
                height,
                channel,
            } => {
                if *width == 0 || *height == 0 {
                    self.push(
                        "IVL060",
                        Severity::Error,
                        self.spans.topology,
                        format!(
                            "grid generator has zero size ({width} × {height}): \
                             no gate drives the output port"
                        ),
                    );
                }
                self.generator_skeleton(&mut g, channel);
            }
            TopologySpec::RandomDag {
                nodes,
                seed,
                channel,
            } => {
                if *nodes == 0 {
                    self.push(
                        "IVL060",
                        Severity::Error,
                        self.spans.topology,
                        "random_dag generator has zero gates: no gate drives the output port"
                            .to_owned(),
                    );
                }
                if seed.is_none() {
                    self.push(
                        "IVL061",
                        Severity::Warning,
                        self.spans.topology,
                        "random_dag without a seed defaults to 0 — state the seed so the \
                         netlist is reproducible from the spec alone"
                            .to_owned(),
                    );
                }
                self.generator_skeleton(&mut g, channel);
            }
            TopologySpec::FatTree { depth, channel } => {
                if *depth > 24 {
                    self.push(
                        "IVL060",
                        Severity::Error,
                        self.spans.topology,
                        format!(
                            "fat_tree depth {depth} exceeds the cap of 24 \
                             (2^24 leaves ≈ 33M gates)"
                        ),
                    );
                }
                self.generator_skeleton(&mut g, channel);
            }
        }
        g.index();
        g
    }

    /// The 3-node stand-in graph for a scale generator: input `"a"`
    /// directly into one gate, one generator channel to output `"y"`.
    fn generator_skeleton<'s>(&mut self, g: &mut Graph<'s>, channel: &'s ChannelSpec) {
        g.nodes.push(GNode {
            name: "a".to_owned(),
            kind: GKind::Input,
            span: None,
        });
        g.nodes.push(GNode {
            name: "g".to_owned(),
            kind: GKind::Gate,
            span: None,
        });
        g.nodes.push(GNode {
            name: "y".to_owned(),
            kind: GKind::Output,
            span: None,
        });
        let ch = GChannel {
            spec: channel,
            id: self.intern(channel),
        };
        let span = self.channel_span(ch.id);
        g.edges.push(GEdge {
            from: 0,
            to: 1,
            channel: None,
            span,
        });
        g.edges.push(GEdge {
            from: 1,
            to: 2,
            channel: Some(ch),
            span,
        });
    }

    fn check_gate_kind(&mut self, kind: &GateKindSpec, span: Option<Span>) {
        if let GateKindSpec::Table { inputs, rows } = kind {
            let expected = 1usize << (*inputs).min(24);
            if *inputs > 24 || rows.len() != expected {
                self.push(
                    "IVL039",
                    Severity::Error,
                    span,
                    format!(
                        "truth table with {inputs} input(s) needs {expected} rows, got {}",
                        rows.len()
                    ),
                );
            }
        }
    }

    fn graph_pass(&mut self, g: &Graph<'_>, scc: &SccResult) {
        // dangling / undriven / unreachable nodes
        for (i, node) in g.nodes.iter().enumerate() {
            let (ins, outs) = (g.in_degree[i], g.out_degree[i]);
            match node.kind {
                GKind::Input if outs == 0 => self.push(
                    "IVL003",
                    Severity::Warning,
                    node.span,
                    format!("input {:?} drives nothing", node.name),
                ),
                GKind::Output if ins == 0 => self.push(
                    "IVL004",
                    Severity::Error,
                    node.span,
                    format!("output port {:?} is driven by no gate", node.name),
                ),
                GKind::Gate if ins == 0 => self.push(
                    "IVL003",
                    Severity::Warning,
                    node.span,
                    format!(
                        "gate {:?} has no driver (its inputs never change)",
                        node.name
                    ),
                ),
                GKind::Gate if outs == 0 => self.push(
                    "IVL003",
                    Severity::Warning,
                    node.span,
                    format!("gate {:?} drives nothing", node.name),
                ),
                _ => {}
            }
        }
        let reachable = g.reachable_from_inputs();
        for (i, node) in g.nodes.iter().enumerate() {
            if node.kind != GKind::Input && !reachable[i] && g.in_degree[i] > 0 {
                self.push(
                    "IVL005",
                    Severity::Warning,
                    node.span,
                    format!("node {:?} is unreachable from any input", node.name),
                );
            }
        }

        // combinational cycles: an SCC whose zero-minimum-delay edges
        // alone still close a cycle deadlocks the simulator (IVL001);
        // feedback through genuinely delayed edges is legal (IVL002).
        // Edges inside each cyclic component, bucketed in one pass.
        let mut inner: Vec<Vec<&GEdge<'_>>> = vec![Vec::new(); scc.components.len()];
        for e in &g.edges {
            let c = scc.component[e.from];
            if scc.cyclic[e.from] && scc.component[e.to] == c {
                inner[c].push(e);
            }
        }
        for (component, inner) in scc.components.iter().zip(inner) {
            if !scc.cyclic[component[0]] {
                continue;
            }
            let names: Vec<&str> = component
                .iter()
                .map(|&i| g.nodes[i].name.as_str())
                .collect();
            let span = component.iter().find_map(|&i| g.nodes[i].span);
            let zero_edges: Vec<&GEdge<'_>> = inner
                .into_iter()
                .filter(|e| self.edge_is_zero_delay(e))
                .collect();
            if has_cycle(component, &zero_edges) {
                self.push(
                    "IVL001",
                    Severity::Error,
                    span,
                    format!(
                        "combinational cycle with zero minimum delay through {{{}}} \
                         (every edge delivers instantaneously; the simulation cannot make progress)",
                        names.join(", ")
                    ),
                );
            } else {
                self.push(
                    "IVL002",
                    Severity::Info,
                    span,
                    format!("delayed feedback loop through {{{}}}", names.join(", ")),
                );
            }
        }
    }

    fn edge_is_zero_delay(&mut self, e: &GEdge<'_>) -> bool {
        match e.channel {
            None => true,
            Some(ch) => {
                let facts = self.facts(ch);
                facts.builds && facts.zero_delay
            }
        }
    }

    /// IVL015: the calendar queue sizes buckets from the smallest
    /// `delay_hint()` and spans 4x the largest; a spread beyond the
    /// bucket-count clamp (16384 buckets) parks most events in the
    /// overflow level.
    fn hint_spread(&mut self, g: &Graph<'_>) {
        let mut min_hint = f64::INFINITY;
        let mut max_hint: f64 = 0.0;
        let mut span = None;
        for e in &g.edges {
            let Some(ch) = e.channel else { continue };
            let facts = self.facts(ch);
            if let Some(h) = facts.hint {
                if h > 0.0 {
                    if h < min_hint {
                        span = e.span;
                    }
                    min_hint = min_hint.min(h);
                    max_hint = max_hint.max(h);
                }
            }
        }
        if min_hint.is_finite() && max_hint / min_hint > 4096.0 {
            self.push(
                "IVL015",
                Severity::Warning,
                span,
                format!(
                    "delay hints spread from {min_hint} to {max_hint} (> 4096x): \
                     the calendar event queue degenerates to its overflow level"
                ),
            );
        }
    }

    // ---- pass 3: stimulus hazard analysis ----

    /// `inputs` maps each input port's name to its node; a scenario
    /// that drives any other node (already an `IVL033` error) falls
    /// back to a scan of every node.
    fn hazard_pass(
        &mut self,
        g: &Graph<'_>,
        scc: &SccResult,
        scenarios: &[ScenarioSpec],
        inputs: &HashMap<&str, usize>,
    ) {
        let cyclic = &scc.cyclic;
        let order = g.topo_order(cyclic);
        // edge index -> (first scenario label, death count)
        let mut deaths: HashMap<usize, (String, usize)> = HashMap::new();
        for s in scenarios {
            let mut width: Vec<Option<f64>> = vec![None; g.nodes.len()];
            for (port, sig) in &s.inputs {
                let node = inputs
                    .get(port.as_str())
                    .copied()
                    .or_else(|| g.nodes.iter().position(|n| n.name == *port));
                if let Some(idx) = node {
                    if let Some(w) = min_pulse_width(sig) {
                        width[idx] = Some(w);
                    }
                }
            }
            for &v in &order {
                let Some(w) = width[v] else { continue };
                if w <= DEAD_WIDTH {
                    continue;
                }
                for &ei in &g.out_edges[v] {
                    let e = &g.edges[ei];
                    if cyclic[e.to] {
                        continue;
                    }
                    let w_out = match e.channel {
                        None => Some(w),
                        Some(ch) => self.pulse_response(ch, w),
                    };
                    let Some(w_out) = w_out else { continue };
                    if w_out <= DEAD_WIDTH {
                        deaths
                            .entry(ei)
                            .and_modify(|(_, n)| *n += 1)
                            .or_insert_with(|| (s.label.clone(), 1));
                        continue;
                    }
                    let slot = &mut width[e.to];
                    *slot = Some(slot.map_or(w_out, |prev| prev.min(w_out)));
                }
            }
        }
        let mut dead_edges: Vec<(usize, (String, usize))> = deaths.into_iter().collect();
        dead_edges.sort_by_key(|(ei, _)| *ei);
        for (ei, (label, n)) in dead_edges {
            let e = &g.edges[ei];
            let more = if n > 1 {
                format!(" (and {} more scenario(s))", n - 1)
            } else {
                String::new()
            };
            self.push(
                "IVL020",
                Severity::Warning,
                e.span,
                format!(
                    "scenario {label:?}: stimulus provably cancels in the channel \
                     {:?} -> {:?}{more}",
                    g.nodes[e.from].name, g.nodes[e.to].name
                ),
            );
        }
    }

    /// The surviving output pulse width for an isolated input pulse of
    /// `width` through this channel, probed against the pulse-extending
    /// adversary for `eta` channels (so a death is a death under *every*
    /// admissible noise sequence). `None` when the channel cannot be
    /// probed or the budget ran out.
    fn pulse_response(&mut self, ch: GChannel<'_>, width: f64) -> Option<f64> {
        if !(width.is_finite() && width > 0.0) {
            return None;
        }
        let key = (ch.id, width.to_bits());
        if let Some(cached) = self.probe_cache.get(&key) {
            return *cached;
        }
        if self.probes_left == 0 {
            self.truncated = true;
            return None;
        }
        self.probes_left -= 1;
        let result = self.probe_once(ch, width);
        self.probe_cache.insert(key, result);
        result
    }

    fn probe_once(&mut self, ch: GChannel<'_>, width: f64) -> Option<f64> {
        if !self.facts(ch).builds {
            return None;
        }
        let c = ch.spec;
        let mut channel = if c.kind == "eta" {
            // the adversary may only *shrink* the surviving width, so
            // probe against the one that extends pulses the most
            let params = extending_params(&c.params);
            self.registry
                .build(&c.kind, &params)
                .or_else(|_| self.registry.build(&c.kind, &c.params))
                .ok()?
        } else {
            self.registry.build(&c.kind, &c.params).ok()?
        };
        let input = Signal::pulse(0.0, width).ok()?;
        let out = apply_online(&mut channel, &input);
        let t = out.transitions();
        Some(match (t.first(), t.get(1)) {
            (Some(a), Some(b)) => b.time - a.time,
            (Some(_), None) => width,
            _ => 0.0,
        })
    }

    // ------------------------------------------------------------------
    // Analog workload: pass 4
    // ------------------------------------------------------------------

    fn lint_analog(&mut self, a: &AnalogSpec) {
        self.check_workers(a.workers);
        if a.sweep.widths.is_empty() {
            self.push(
                "IVL034",
                Severity::Error,
                self.spans.widths,
                "sweep: the width axis is empty (the sweep would silently measure nothing)"
                    .to_owned(),
            );
        }
        for w in &a.sweep.widths {
            if !(w.is_finite() && *w > 0.0) {
                self.push(
                    "IVL035",
                    Severity::Error,
                    self.spans.widths,
                    format!("sweep: width axis entries must be finite and > 0, got {w}"),
                );
                break;
            }
        }
        for (value, what) in [
            (a.sweep.settle, "sweep: field \"settle\""),
            (a.sweep.tail, "sweep: field \"tail\""),
            (a.sweep.slew, "sweep: field \"slew\""),
        ] {
            self.check_finite(value, what, self.spans.widths);
        }
        if !(a.sweep.dt.is_finite() && a.sweep.dt > 0.0) {
            self.push(
                "IVL035",
                Severity::Error,
                self.spans.widths,
                format!(
                    "sweep: field \"dt\" must be finite and > 0, got {}",
                    a.sweep.dt
                ),
            );
        }
        if let crate::spec::AnalogTask::Deviations {
            reference: ReferenceSpec::Empirical { up, down },
            ..
        } = &a.task
        {
            if up.is_empty() || down.is_empty() {
                self.push(
                    "IVL034",
                    Severity::Error,
                    self.spans.workload,
                    "empirical reference with an empty sample set".to_owned(),
                );
            }
        }
    }

    // ------------------------------------------------------------------
    // SPF workload: passes 2 and 3
    // ------------------------------------------------------------------

    fn lint_spf(&mut self, s: &SpfSpec) {
        for (v, what) in [
            (s.eta_minus, "spf: eta_minus"),
            (s.eta_plus, "spf: eta_plus"),
        ] {
            self.check_finite(v, what, self.spans.workload);
        }
        if s.eta_minus < 0.0 || s.eta_plus < 0.0 {
            self.push(
                "IVL035",
                Severity::Error,
                self.spans.workload,
                format!(
                    "spf: eta bounds must be >= 0, got eta_minus = {}, eta_plus = {}",
                    s.eta_minus, s.eta_plus
                ),
            );
            return;
        }
        let span = self.spans.delay;
        match &s.delay {
            DelaySpec::Exp { tau, t_p, v_th } => {
                match ivl_core::delay::ExpChannel::new(*tau, *t_p, *v_th) {
                    Ok(d) => self.lint_spf_pair(&d, s, span),
                    Err(e) => self.push(
                        "IVL010",
                        Severity::Error,
                        span,
                        format!("spf: exp delay family rejected: {e}"),
                    ),
                }
            }
            DelaySpec::Rational { a, b, c } => {
                match ivl_core::delay::RationalPair::new(*a, *b, *c) {
                    Ok(d) => self.lint_spf_pair(&d, s, span),
                    Err(e) => self.push(
                        "IVL010",
                        Severity::Error,
                        span,
                        format!("spf: rational delay family rejected: {e}"),
                    ),
                }
            }
        }
        if let SpfTask::Simulate { input, horizon, .. } = &s.task {
            self.check_signal(input, "spf simulate input", self.spans.workload);
            self.check_finite(*horizon, "spf: simulate horizon", self.spans.workload);
        }
    }

    fn lint_spf_pair<D: DelayPair>(&mut self, pair: &D, s: &SpfSpec, span: Option<Span>) {
        self.verify_pair(pair, Some((s.eta_minus, s.eta_plus)), "spf delay", span);
        // Lemma 4 shadow: a simulated input pulse at or below the filter
        // bound is provably cancelled in the first channel, so the run
        // can only show the trivial outcome.
        let has_error = self.has_error_for(span);
        if has_error {
            return;
        }
        if let SpfTask::Simulate { input, .. } = &s.task {
            let Ok(bounds) = EtaBounds::new(s.eta_minus, s.eta_plus) else {
                return;
            };
            let Ok(theory) = ivl_spf::SpfTheory::compute(pair, bounds) else {
                return;
            };
            if let Some(w) = min_pulse_width(input) {
                if w <= theory.filter_bound {
                    self.push(
                        "IVL021",
                        Severity::Info,
                        self.spans.workload,
                        format!(
                            "spf: input pulse width {w} is at or below the filter bound \
                             {:.6} (Lemma 4): the pulse is provably cancelled",
                            theory.filter_bound
                        ),
                    );
                }
            }
        }
    }

    fn has_error_for(&self, span: Option<Span>) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error && d.span == span)
    }
}

/// Whether `name` names a node of the topology, without materializing
/// it: netlists are scanned, generators use their closed-form naming
/// scheme (`inv{i}` for chains, `g{x}_{y}` for grids, `n{i}` for
/// random DAGs, `t{level}_{i}` for fat trees, plus the ports `a`/`y`).
fn topology_has_node(topology: &TopologySpec, name: &str) -> bool {
    let ports = name == "a" || name == "y";
    match topology {
        TopologySpec::Netlist(n) => n.nodes.iter().any(|node| match node {
            NodeSpec::Input { name: n }
            | NodeSpec::Output { name: n }
            | NodeSpec::Gate { name: n, .. } => n == name,
        }),
        TopologySpec::InverterChain { stages, .. } => {
            ports || canonical_index(name, "inv").is_some_and(|i| i < u64::from(*stages))
        }
        TopologySpec::Grid2d { width, height, .. } => {
            ports
                || canonical_pair(name, "g")
                    .is_some_and(|(x, y)| x < u64::from(*width) && y < u64::from(*height))
        }
        TopologySpec::RandomDag { nodes, .. } => {
            ports || canonical_index(name, "n").is_some_and(|i| i < u64::from(*nodes))
        }
        TopologySpec::FatTree { depth, .. } => {
            ports
                || canonical_pair(name, "t").is_some_and(|(level, i)| {
                    level <= u64::from(*depth) && i < 1u64 << (u64::from(*depth) - level).min(63)
                })
        }
    }
}

/// Parses `"{prefix}{i}"` where `i` is rendered canonically (no sign,
/// no leading zeros), returning `i`.
fn canonical_index(name: &str, prefix: &str) -> Option<u64> {
    let digits = name.strip_prefix(prefix)?;
    let i: u64 = digits.parse().ok()?;
    (i.to_string() == digits).then_some(i)
}

/// Parses `"{prefix}{x}_{y}"` with canonically rendered coordinates.
fn canonical_pair(name: &str, prefix: &str) -> Option<(u64, u64)> {
    let rest = name.strip_prefix(prefix)?;
    let (x, y) = rest.split_once('_')?;
    let xv: u64 = x.parse().ok()?;
    let yv: u64 = y.parse().ok()?;
    (xv.to_string() == x && yv.to_string() == y).then_some((xv, yv))
}

/// Rebuilds `eta` parameters with the pulse-extending adversary (and
/// without the now-meaningless noise-source parameters).
fn extending_params(params: &ChannelParams) -> ChannelParams {
    let mut out = ChannelParams::new();
    for (name, v) in params.entries() {
        if matches!(name.as_str(), "noise" | "seed" | "sigma" | "shift") {
            continue;
        }
        out = match v {
            ParamValue::Num(x) => out.with_num(name.clone(), *x),
            ParamValue::Int(x) => out.with_int(name.clone(), *x),
            ParamValue::Text(s) => out.with_text(name.clone(), s.clone()),
            _ => out,
        };
    }
    out.with_text("noise", "extending")
}

/// The smallest pulse width (or inter-transition gap) a signal spec
/// presents to the circuit, if it presents any.
fn min_pulse_width(s: &SignalSpec) -> Option<f64> {
    match s {
        SignalSpec::Zero => None,
        SignalSpec::Pulse { width, .. } => Some(*width),
        SignalSpec::Train { pulses } => pulses
            .iter()
            .map(|(_, w)| *w)
            .min_by(f64::total_cmp)
            .filter(|w| w.is_finite()),
        SignalSpec::Times { times, .. } => times
            .windows(2)
            .map(|w| w[1] - w[0])
            .min_by(f64::total_cmp)
            .filter(|w| w.is_finite()),
    }
}

// ======================================================================
// Graph scaffolding
// ======================================================================

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GKind {
    Input,
    Output,
    Gate,
}

struct GNode {
    name: String,
    kind: GKind,
    span: Option<Span>,
}

/// A lint edge's channel: the spec plus its interned id.
#[derive(Clone, Copy)]
struct GChannel<'a> {
    spec: &'a ChannelSpec,
    id: usize,
}

struct GEdge<'a> {
    from: usize,
    to: usize,
    channel: Option<GChannel<'a>>,
    span: Option<Span>,
}

#[derive(Default)]
struct Graph<'a> {
    nodes: Vec<GNode>,
    edges: Vec<GEdge<'a>>,
    out_edges: Vec<Vec<usize>>,
    in_degree: Vec<usize>,
    out_degree: Vec<usize>,
}

struct SccResult {
    components: Vec<Vec<usize>>,
    /// Per node: the index of its component.
    component: Vec<usize>,
    /// Per node: whether its component closes a cycle (more than one
    /// member, or a self-loop).
    cyclic: Vec<bool>,
}

impl<'a> Graph<'a> {
    fn index(&mut self) {
        self.out_edges = vec![Vec::new(); self.nodes.len()];
        self.in_degree = vec![0; self.nodes.len()];
        self.out_degree = vec![0; self.nodes.len()];
        for (i, e) in self.edges.iter().enumerate() {
            self.out_edges[e.from].push(i);
            self.out_degree[e.from] += 1;
            self.in_degree[e.to] += 1;
        }
    }

    fn reachable_from_inputs(&self) -> Vec<bool> {
        let mut seen = vec![false; self.nodes.len()];
        let mut stack: Vec<usize> = self
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.kind == GKind::Input)
            .map(|(i, _)| i)
            .collect();
        for &i in &stack {
            seen[i] = true;
        }
        while let Some(v) = stack.pop() {
            for &ei in &self.out_edges[v] {
                let to = self.edges[ei].to;
                if !seen[to] {
                    seen[to] = true;
                    stack.push(to);
                }
            }
        }
        seen
    }

    /// Strongly connected components via iterative Kosaraju; component
    /// order and member order are deterministic.
    fn sccs(&self) -> SccResult {
        let n = self.nodes.len();
        let mut order = Vec::with_capacity(n);
        let mut seen = vec![false; n];
        for start in 0..n {
            if seen[start] {
                continue;
            }
            // iterative post-order DFS
            let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
            seen[start] = true;
            while let Some(top) = stack.last_mut() {
                let (v, next) = *top;
                if next < self.out_edges[v].len() {
                    top.1 += 1;
                    let to = self.edges[self.out_edges[v][next]].to;
                    if !seen[to] {
                        seen[to] = true;
                        stack.push((to, 0));
                    }
                } else {
                    order.push(v);
                    stack.pop();
                }
            }
        }
        let mut rev: Vec<Vec<usize>> = vec![Vec::new(); n];
        for e in &self.edges {
            rev[e.to].push(e.from);
        }
        let mut component = vec![usize::MAX; n];
        let mut components: Vec<Vec<usize>> = Vec::new();
        for &start in order.iter().rev() {
            if component[start] != usize::MAX {
                continue;
            }
            let id = components.len();
            let mut members = vec![start];
            component[start] = id;
            let mut stack = vec![start];
            while let Some(v) = stack.pop() {
                for &u in &rev[v] {
                    if component[u] == usize::MAX {
                        component[u] = id;
                        members.push(u);
                        stack.push(u);
                    }
                }
            }
            members.sort_unstable();
            components.push(members);
        }
        let mut closes = vec![false; components.len()];
        for e in &self.edges {
            if e.from == e.to {
                closes[component[e.from]] = true;
            }
        }
        for (id, members) in components.iter().enumerate() {
            closes[id] |= members.len() > 1;
        }
        let cyclic = component.iter().map(|&id| closes[id]).collect();
        SccResult {
            components,
            component,
            cyclic,
        }
    }

    /// A topological order of the acyclic part (nodes in `cyclic` are
    /// excluded; their downstream still appears, fed only by what
    /// reaches it acyclically).
    fn topo_order(&self, cyclic: &[bool]) -> Vec<usize> {
        let mut indeg = vec![0usize; self.nodes.len()];
        for e in &self.edges {
            if !cyclic[e.from] && !cyclic[e.to] {
                indeg[e.to] += 1;
            }
        }
        let mut queue: Vec<usize> = (0..self.nodes.len())
            .filter(|&v| !cyclic[v] && indeg[v] == 0)
            .collect();
        let mut order = Vec::with_capacity(queue.len());
        let mut head = 0;
        while head < queue.len() {
            let v = queue[head];
            head += 1;
            order.push(v);
            for &ei in &self.out_edges[v] {
                let to = self.edges[ei].to;
                if cyclic[to] {
                    continue;
                }
                indeg[to] -= 1;
                if indeg[to] == 0 {
                    queue.push(to);
                }
            }
        }
        order
    }
}

/// `true` if the given edges close a cycle within `component`.
fn has_cycle(component: &[usize], edges: &[&GEdge<'_>]) -> bool {
    if edges.iter().any(|e| e.from == e.to) {
        return true;
    }
    // Kahn's algorithm on the restricted subgraph: leftover nodes = cycle;
    // `component` is sorted, so a node's local index is a binary search
    let local = |v: usize| component.binary_search(&v).expect("edge within component");
    let mut indeg = vec![0usize; component.len()];
    let mut out: Vec<Vec<usize>> = vec![Vec::new(); component.len()];
    for e in edges {
        let (from, to) = (local(e.from), local(e.to));
        out[from].push(to);
        indeg[to] += 1;
    }
    let mut queue: Vec<usize> = (0..component.len()).filter(|&v| indeg[v] == 0).collect();
    let mut removed = 0;
    while let Some(v) = queue.pop() {
        removed += 1;
        for &to in &out[v] {
            indeg[to] -= 1;
            if indeg[to] == 0 {
                queue.push(to);
            }
        }
    }
    removed < component.len()
}
