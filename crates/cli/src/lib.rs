//! # ftqs-cli — command-line front end
//!
//! Drives the whole pipeline from application spec files (see
//! [`ftqs_workloads::spec`]): inspect, synthesize FTSS schedules and FTQS
//! trees through the [`ftqs_core::Engine`]/[`ftqs_core::Session`] API,
//! export DOT/JSON/C, simulate cycles, and compare schedulers.
//!
//! Every command implementation returns its output as `String` so the
//! binary stays a thin argv dispatcher ([`run`] is the dispatcher itself,
//! unit-testable without a process). `info`, `schedule`, `tree`,
//! `compare`, and `robustness` accept `--format json` and then emit
//! machine-readable reports: `schedule`/`tree` serialize the engine's
//! [`ftqs_core::SynthesisReport`] verbatim (stable field order via serde
//! declaration order), the others serialize the CLI-level
//! [`InfoReport`]/[`CompareReport`]/[`RobustnessReport`] structs.
//!
//! `simulate` and `robustness` expose the sim crate's fault-injection
//! subsystem: `--model` selects a [`ftqs_sim::FaultModel`] preset and
//! `--faults` (or the swept intensity grid) may exceed the design budget
//! `k`, in which case cycles run to completion and the reports carry
//! degradation statistics ([`ftqs_sim::DegradationVerdict`] aggregation)
//! instead of treating a hard miss as a scheduler bug.

#![warn(missing_docs)]

use ftqs_core::{Application, Engine, QuasiStaticTree, SynthesisRequest, Time};
use ftqs_service::{transport, Service, ServiceConfig};
use ftqs_sim::{
    DegradationVerdict, ExecutionScenario, FaultModel, FlatRuntime, FlatScenario,
    GreedyOnlineScheduler, MonteCarlo, NoTrace, OnlineScheduler, RunScratch, ScenarioSampler,
    Trace, FAULT_MODEL_NAMES,
};
use ftqs_workloads::spec;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt::Write as _;

/// Boxed error alias for command results (spec/I-O errors plus the typed
/// [`ftqs_core::Error`] from synthesis).
pub type CliError = Box<dyn Error>;

/// Output format of the report-emitting commands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OutputFormat {
    /// Human-readable text (the default).
    #[default]
    Text,
    /// Machine-readable JSON with a stable field order.
    Json,
}

/// Output format of [`tree`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TreeFormat {
    /// Human-readable listing.
    Text,
    /// Graphviz digraph.
    Dot,
    /// The serialized [`ftqs_core::SynthesisReport`] (the artifact an embedded
    /// runtime or a batch pipeline would load).
    Json,
}

/// Usage banner shared by the binary and error paths.
pub const USAGE: &str =
    "usage: ftqs <info|schedule|tree|graph|simulate|compare|robustness|trace|export> <spec> [options]
       ftqs <submit|serve> ... (batch service; see below)
  <spec>: a spec file path, '-' for stdin, or '--example' for the paper's Fig. 1

  info       --format text|json
  schedule   --format text|json
  tree       --budget N (default 8), --dot | --json | --format json
  simulate   --cycles N (1000), --faults F (0; may exceed k), --seed S (1),
             --budget N (8), --model independent|bursty|intermittent|wcet-stress, --trace
  compare    --scenarios N (500), --budget N (8), --seed S (1), --format text|json
  robustness --scenarios N (500), --budget N (8), --seed S (1),
             --model NAME (default: all models), --format text|json
  trace      --budget N (8)
  export     --budget N (8), --prefix SYM (ftqs; must be a C identifier)

  Service (batched synthesis over newline-delimited JSON):
  submit     <fig9|series-parallel|polar|hyper> — generate an NDJSON request batch:
             --count N (16), --size N (15), --seed S (0),
             --distinct D (=count; D < N makes the batch duplicate-heavy),
             --policy ftss|ftqs|ftsf (ftqs), --budget N (8),
             --priority interactive|bulk (bulk; interactive overtakes queued bulk),
             --deadline-ms N (none; expired-in-queue requests answer
             'deadline exceeded' without synthesis)
  serve      <batch.ndjson|-> — run a batch through the fleet service, one
             JSON response line per request in completion order:
             --workers N (0 = one per core), --queue N (1024), --cache N (256),
             --responses N (1024; bound of the response ring — a slow
             consumer throttles the workers instead of growing memory),
             --stats (append a final service-statistics line: completed,
             rejected, worker panics/respawns, deadline misses, service
             time of cache hits and misses, cache counters)
             Workers are supervised: a panicking job answers as an error
             response, a dead worker thread is respawned, and overload
             surfaces as backpressure — the batch always completes.";

/// The engine configuration every command synthesizes with: defaults plus
/// structural validation (CLI artifacts leave the process, so they are
/// checked before they are printed).
#[must_use]
pub fn engine() -> Engine {
    Engine::new().with_validation(true)
}

/// Loads an application: `--example` yields the paper's Fig. 1 spec, `-`
/// reads stdin, anything else is a file path.
///
/// # Errors
///
/// I/O errors and spec parse errors (with line numbers).
pub fn load(source: &str) -> Result<Application, CliError> {
    let text = match source {
        "--example" => spec::FIG1_SPEC.to_string(),
        "-" => std::io::read_to_string(std::io::stdin())?,
        path => std::fs::read_to_string(path)?,
    };
    Ok(spec::parse(&text)?)
}

/// Machine-readable result of `ftqs info`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InfoReport {
    /// Total process count.
    pub processes: usize,
    /// Hard process count.
    pub hard: usize,
    /// Soft process count.
    pub soft: usize,
    /// Application period in milliseconds.
    pub period_ms: u64,
    /// Fault budget `k`.
    pub k: usize,
    /// Recovery overhead µ in milliseconds.
    pub mu_ms: u64,
    /// Sum of worst-case execution times in milliseconds.
    pub total_wcet_ms: u64,
    /// Whether FTSS finds a schedulable solution.
    pub schedulable: bool,
    /// Entries in the FTSS schedule (0 when unschedulable).
    pub scheduled: usize,
    /// Statically dropped soft processes (0 when unschedulable).
    pub dropped: usize,
    /// The error message when unschedulable.
    pub error: Option<String>,
}

/// `ftqs info <spec>` — application summary and schedulability.
///
/// # Errors
///
/// Load/parse errors.
pub fn info(source: &str, format: OutputFormat) -> Result<String, CliError> {
    let app = load(source)?;
    let mut session = engine().session();
    let outcome = session.synthesize(&app, &SynthesisRequest::ftss());
    let report = InfoReport {
        processes: app.len(),
        hard: app.hard_processes().count(),
        soft: app.soft_processes().count(),
        period_ms: app.period().as_ms(),
        k: app.faults().k,
        mu_ms: app.faults().mu.as_ms(),
        total_wcet_ms: app.total_wcet().as_ms(),
        schedulable: outcome.is_ok(),
        scheduled: outcome
            .as_ref()
            .map_or(0, |r| r.root_schedule().entries().len()),
        dropped: outcome.as_ref().map_or(0, |r| r.dropped.count),
        error: outcome.as_ref().err().map(ToString::to_string),
    };
    match format {
        OutputFormat::Json => Ok(to_json_line(&report)?),
        OutputFormat::Text => {
            let mut out = String::new();
            let _ = writeln!(
                out,
                "{} processes ({} hard / {} soft), period {}, k = {}, mu = {}",
                report.processes,
                report.hard,
                report.soft,
                app.period(),
                report.k,
                app.faults().mu
            );
            let _ = writeln!(out, "total WCET {}", app.total_wcet());
            if report.schedulable {
                let _ = writeln!(
                    out,
                    "FTSS: schedulable ({} scheduled, {} dropped)",
                    report.scheduled, report.dropped
                );
            } else {
                let _ = writeln!(
                    out,
                    "FTSS: UNSCHEDULABLE — {}",
                    report.error.as_deref().unwrap_or("unknown")
                );
            }
            Ok(out)
        }
    }
}

/// `ftqs schedule <spec>` — the FTSS schedule with worst-case analysis;
/// `--format json` emits the engine's [`ftqs_core::SynthesisReport`].
///
/// # Errors
///
/// Load/parse errors or [`ftqs_core::Error`].
pub fn schedule(source: &str, format: OutputFormat) -> Result<String, CliError> {
    let app = load(source)?;
    let mut session = engine().session();
    let report = session.synthesize(&app, &SynthesisRequest::ftss())?;
    match format {
        OutputFormat::Json => Ok(to_json_pretty(&report)?),
        OutputFormat::Text => {
            let s = report.root_schedule();
            let a = s.analyze(&app);
            let k = app.faults().k;
            let mut out = String::new();
            let _ = writeln!(
                out,
                "{:<4} {:<20} {:>5} {:>7} {:>9} {:>9} {:>10}",
                "#", "process", "kind", "reexec", "nominal", "worst", "lst(k)"
            );
            for (pos, e) in s.entries().iter().enumerate() {
                let p = app.process(e.process);
                let lst = a.latest_start(&app, e, pos, k);
                let lst_str = if lst == Time::MAX {
                    "-".to_string()
                } else {
                    lst.to_string()
                };
                let _ = writeln!(
                    out,
                    "{:<4} {:<20} {:>5} {:>7} {:>9} {:>9} {:>10}",
                    pos,
                    p.name(),
                    if p.is_hard() { "hard" } else { "soft" },
                    e.reexecutions,
                    a.nominal_completion(pos).to_string(),
                    a.worst_completion(pos).to_string(),
                    lst_str,
                );
            }
            for d in s.statically_dropped() {
                let _ = writeln!(out, "dropped: {}", app.process(*d).name());
            }
            Ok(out)
        }
    }
}

/// `ftqs tree <spec> [--budget N] [--dot|--json]` — synthesize the
/// quasi-static tree; default output is a readable listing, `--json` (or
/// `--format json`) the serialized [`ftqs_core::SynthesisReport`].
///
/// # Errors
///
/// Load/parse/synthesis errors; JSON serialization errors.
pub fn tree(source: &str, budget: usize, format: TreeFormat) -> Result<String, CliError> {
    let app = load(source)?;
    let mut session = engine().session();
    let report = session.synthesize(&app, &SynthesisRequest::ftqs(budget))?;
    match format {
        TreeFormat::Text => Ok(render_tree_text(&app, &report.tree)),
        TreeFormat::Dot => Ok(report.tree.to_dot(&app)),
        TreeFormat::Json => Ok(to_json_pretty(&report)?),
    }
}

fn render_tree_text(app: &Application, tree: &QuasiStaticTree) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{} schedules, depth {}", tree.len(), tree.depth());
    for (id, node, schedule) in tree.iter_schedules() {
        let order: Vec<&str> = schedule
            .order_key()
            .iter()
            .map(|&p| app.process(p).name())
            .collect();
        let _ = writeln!(
            out,
            "node {id} (depth {}): {}",
            node.depth,
            order.join(" -> ")
        );
        for arc in &node.arcs {
            let _ = writeln!(
                out,
                "  if {} completes in {}..={} -> node {}",
                app.process(arc.pivot).name(),
                arc.lo,
                arc.hi,
                arc.child
            );
        }
    }
    out
}

/// `ftqs graph <spec>` — Graphviz DOT of the task graph.
///
/// # Errors
///
/// Load/parse errors.
pub fn graph(source: &str) -> Result<String, CliError> {
    let app = load(source)?;
    Ok(ftqs_graph::dot::to_dot(app.graph(), "application"))
}

/// Resolves a `--model` argument to a [`FaultModel`] preset.
///
/// # Errors
///
/// An unknown name — the error lists the valid presets.
pub fn parse_model(name: &str) -> Result<FaultModel, CliError> {
    FaultModel::preset(name).ok_or_else(|| {
        format!(
            "unknown fault model '{name}' (expected one of: {})",
            FAULT_MODEL_NAMES.join(", ")
        )
        .into()
    })
}

/// `ftqs simulate <spec> [--cycles N] [--faults F] [--seed S] [--budget N]
/// [--model NAME] [--trace]` — run Monte Carlo cycles against the
/// quasi-static tree.
///
/// `--faults` may exceed the design budget `k` and `--model` selects a
/// fault process beyond the paper's independent-uniform one; such
/// out-of-contract cycles run to completion and the summary reports how
/// often the runtime degraded or missed a hard deadline. Only when the
/// contract holds (independent model, `faults <= k`) is a hard-deadline
/// miss a hard error, because then it can only be a scheduler bug.
///
/// # Errors
///
/// Load/parse/synthesis errors; an unknown `--model`; an in-contract
/// deadline miss.
pub fn simulate(
    source: &str,
    cycles: usize,
    faults: usize,
    seed: u64,
    budget: usize,
    model_name: &str,
    show_trace: bool,
) -> Result<String, CliError> {
    let app = load(source)?;
    let model = parse_model(model_name)?;
    let k = app.faults().k;
    let in_contract = model == FaultModel::Independent && faults <= k;
    let mut session = engine().session();
    let tree = session
        .synthesize(&app, &SynthesisRequest::ftqs(budget))?
        .into_tree();
    // The flat runtime executes the cycles allocation-free; scenarios are
    // sampled into a reusable flat buffer from a single RNG stream (the
    // draw sequence is identical to the boxed sampler's).
    let runtime = FlatRuntime::new(&app, &tree);
    let sampler = ScenarioSampler::with_model(&app, model);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut scenario = FlatScenario::new();
    let mut scratch = RunScratch::new();
    let mut utility = ftqs_sim::stats::Accumulator::new();
    let mut switches = 0usize;
    let mut misses = 0usize;
    let mut degraded = 0usize;
    let mut first_trace: Option<String> = None;
    for cycle in 0..cycles {
        sampler.sample_into(&mut rng, faults, &mut scenario);
        // Only the first cycle records events (and only under --trace);
        // every other cycle runs with the no-op sink.
        let out = if show_trace && cycle == 0 {
            let mut trace = Trace::new();
            let out = runtime.run_cycle(&scenario, &mut scratch, &mut trace);
            first_trace = Some(trace.render(|n| app.process(n).name().to_string()));
            out
        } else {
            runtime.run_cycle(&scenario, &mut scratch, &mut NoTrace)
        };
        match out.verdict {
            DegradationVerdict::HardMiss { .. } if in_contract => {
                return Err(format!(
                    "hard deadline missed in-contract — scheduler bug or invalid \
                     schedule ({:?})",
                    out.deadline_miss
                )
                .into());
            }
            DegradationVerdict::HardMiss { .. } => misses += 1,
            DegradationVerdict::Degraded { .. } => degraded += 1,
            DegradationVerdict::InModel => {}
        }
        utility.add(out.utility);
        switches += out.switches;
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{cycles} cycles with {faults} fault(s) ({} model): utility {utility}, \
         {:.2} switches/cycle",
        model.name(),
        switches as f64 / cycles.max(1) as f64
    );
    if !in_contract {
        let _ = writeln!(
            out,
            "out of contract (k = {k}): {degraded} degraded cycle(s), \
             {misses} hard-deadline miss(es)"
        );
    }
    if let Some(t) = first_trace {
        let _ = writeln!(out, "\nfirst cycle trace:\n{t}");
    }
    Ok(out)
}

/// One row of a [`CompareReport`]: mean utilities at one fault count.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompareRow {
    /// Number of injected faults per scenario.
    pub faults: usize,
    /// Mean utility of the quasi-static tree.
    pub ftqs: f64,
    /// Mean utility of the single FTSS schedule.
    pub ftss: f64,
    /// Mean utility of the FTSF baseline.
    pub ftsf: f64,
    /// Mean utility of the purely online greedy scheduler.
    pub greedy: f64,
}

/// Machine-readable result of `ftqs compare`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompareReport {
    /// Scenarios evaluated per fault count.
    pub scenarios: usize,
    /// FTQS schedule budget.
    pub budget: usize,
    /// Scenario-stream seed.
    pub seed: u64,
    /// One row per fault count `0..=k`, identical scenario streams per
    /// row across schedulers.
    pub rows: Vec<CompareRow>,
}

/// `ftqs compare <spec> [--scenarios N] [--budget N] [--seed S]` — mean
/// utility of FTQS / FTSS / FTSF / the purely online greedy scheduler over
/// identical scenarios, per fault count.
///
/// # Errors
///
/// Load/parse/synthesis errors.
pub fn compare(
    source: &str,
    scenarios: usize,
    budget: usize,
    seed: u64,
    format: OutputFormat,
) -> Result<String, CliError> {
    let app = load(source)?;
    let k = app.faults().k;
    let mut session = engine().session();
    let tree = session
        .synthesize(&app, &SynthesisRequest::ftqs(budget))?
        .into_tree();
    let single = session
        .synthesize(&app, &SynthesisRequest::ftss())?
        .into_tree();
    let baseline = session
        .synthesize(&app, &SynthesisRequest::ftsf())?
        .into_tree();
    let greedy = GreedyOnlineScheduler::new(&app);
    let sampler = ScenarioSampler::new(&app);

    let mut rows = Vec::with_capacity(k + 1);
    for f in 0..=k {
        let mut sums = [0.0f64; 4];
        let mut rng = StdRng::seed_from_u64(seed ^ (f as u64) << 32);
        for _ in 0..scenarios {
            let sc = sampler.sample(&mut rng, f);
            for (slot, t) in [&tree, &single, &baseline].into_iter().enumerate() {
                let o = OnlineScheduler::new(&app, t).run(&sc);
                if o.deadline_miss.is_some() {
                    return Err("hard deadline missed".into());
                }
                sums[slot] += o.utility;
            }
            sums[3] += greedy.run(&sc).utility;
        }
        let n = scenarios.max(1) as f64;
        rows.push(CompareRow {
            faults: f,
            ftqs: sums[0] / n,
            ftss: sums[1] / n,
            ftsf: sums[2] / n,
            greedy: sums[3] / n,
        });
    }
    let report = CompareReport {
        scenarios,
        budget,
        seed,
        rows,
    };
    match format {
        OutputFormat::Json => Ok(to_json_pretty(&report)?),
        OutputFormat::Text => {
            let mut out = String::new();
            let _ = writeln!(
                out,
                "{:>7} {:>10} {:>10} {:>10} {:>10}",
                "faults", "FTQS", "FTSS", "FTSF", "greedy"
            );
            for r in &report.rows {
                let _ = writeln!(
                    out,
                    "{:>7} {:>10.2} {:>10.2} {:>10.2} {:>10.2}",
                    r.faults, r.ftqs, r.ftss, r.ftsf, r.greedy
                );
            }
            let _ = writeln!(
                out,
                "\n(identical scenario streams per row; greedy decides online at O(n^2) per decision)"
            );
            Ok(out)
        }
    }
}

/// One cell of a [`RobustnessReport`]: one (model, intensity, policy)
/// combination.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RobustnessCell {
    /// Fault-model preset name.
    pub model: String,
    /// Planned faults per cycle (may exceed the design budget `k`).
    pub intensity: usize,
    /// Scheduling policy (`ftqs`, `ftss`, or `ftsf`).
    pub policy: String,
    /// Mean total utility.
    pub utility_mean: f64,
    /// Fraction of scenarios that missed a hard deadline.
    pub miss_rate: f64,
    /// Fraction of scenarios that degraded without a hard miss.
    pub degraded_rate: f64,
    /// Mean materialized faults per cycle.
    pub faults_mean: f64,
    /// Mean WCET overruns per cycle.
    pub overruns_mean: f64,
}

/// Machine-readable result of `ftqs robustness`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RobustnessReport {
    /// Scenarios evaluated per cell.
    pub scenarios: usize,
    /// FTQS schedule budget.
    pub budget: usize,
    /// Scenario-stream seed.
    pub seed: u64,
    /// The application's design fault budget.
    pub k: usize,
    /// Fault intensities swept (`0..=2k`).
    pub intensities: Vec<usize>,
    /// Fault-model presets swept.
    pub models: Vec<String>,
    /// One cell per model × intensity × policy, in that nesting order.
    pub cells: Vec<RobustnessCell>,
}

/// `ftqs robustness <spec> [--scenarios N] [--budget N] [--seed S]
/// [--model NAME] [--format text|json]` — degradation sweep past the
/// design point: evaluates FTQS / FTSS / FTSF at fault intensities
/// `0..=2k` under each fault-model preset (or just `--model`), reporting
/// mean utility, hard-miss rate, and degradation rate per cell.
///
/// # Errors
///
/// Load/parse/synthesis errors; an unknown `--model`.
pub fn robustness(
    source: &str,
    scenarios: usize,
    budget: usize,
    seed: u64,
    model_filter: Option<&str>,
    format: OutputFormat,
) -> Result<String, CliError> {
    let app = load(source)?;
    let k = app.faults().k;
    let models: Vec<FaultModel> = match model_filter {
        Some(name) => vec![parse_model(name)?],
        None => FAULT_MODEL_NAMES
            .iter()
            .map(|n| parse_model(n))
            .collect::<Result<_, _>>()?,
    };
    let intensities: Vec<usize> = (0..=2 * k).collect();
    let mut session = engine().session();
    let tree = session
        .synthesize(&app, &SynthesisRequest::ftqs(budget))?
        .into_tree();
    let single = session
        .synthesize(&app, &SynthesisRequest::ftss())?
        .into_tree();
    let baseline = session
        .synthesize(&app, &SynthesisRequest::ftsf())?
        .into_tree();
    let policies = [("ftqs", &tree), ("ftss", &single), ("ftsf", &baseline)];
    let mc = MonteCarlo {
        scenarios,
        seed,
        threads: std::thread::available_parallelism().map_or(1, usize::from),
    };

    let mut cells = Vec::with_capacity(models.len() * intensities.len() * policies.len());
    for &model in &models {
        // Evaluate policy-major so each tree's sweep shares its sampler
        // state, then interleave into intensity-major report order.
        let sweeps: Vec<Vec<ftqs_sim::Evaluation>> = policies
            .iter()
            .map(|(_, t)| mc.evaluate_intensity_sweep(&app, t, model, &intensities))
            .collect();
        for (fi, &intensity) in intensities.iter().enumerate() {
            for (pi, (policy, _)) in policies.iter().enumerate() {
                let e = &sweeps[pi][fi];
                cells.push(RobustnessCell {
                    model: model.name().to_string(),
                    intensity,
                    policy: (*policy).to_string(),
                    utility_mean: e.utility.mean(),
                    miss_rate: e.miss_rate(),
                    degraded_rate: e.degraded_rate(),
                    faults_mean: e.faults.mean(),
                    overruns_mean: e.overruns.mean(),
                });
            }
        }
    }
    let report = RobustnessReport {
        scenarios,
        budget,
        seed,
        k,
        intensities,
        models: models.iter().map(|m| m.name().to_string()).collect(),
        cells,
    };
    match format {
        OutputFormat::Json => Ok(to_json_pretty(&report)?),
        OutputFormat::Text => {
            let mut out = String::new();
            let _ = writeln!(
                out,
                "design budget k = {k}; intensities 0..={} ({} in-model, {} beyond); \
                 {scenarios} scenarios per cell",
                2 * k,
                k + 1,
                k
            );
            for model in &report.models {
                let _ = writeln!(out, "\nmodel {model}");
                let _ = writeln!(
                    out,
                    "{:>7} {:>10} {:>10} {:>10} {:>10} {:>10}",
                    "faults", "FTQS", "FTSS", "FTSF", "miss", "degraded"
                );
                for &f in &report.intensities {
                    let row: Vec<&RobustnessCell> = report
                        .cells
                        .iter()
                        .filter(|c| c.model == *model && c.intensity == f)
                        .collect();
                    let by = |policy: &str| {
                        row.iter()
                            .find(|c| c.policy == policy)
                            .map_or(0.0, |c| c.utility_mean)
                    };
                    // Rates of the FTQS cell — the paper's primary policy.
                    let ftqs = row.iter().find(|c| c.policy == "ftqs");
                    let _ = writeln!(
                        out,
                        "{:>7} {:>10.2} {:>10.2} {:>10.2} {:>10.4} {:>10.4}",
                        f,
                        by("ftqs"),
                        by("ftss"),
                        by("ftsf"),
                        ftqs.map_or(0.0, |c| c.miss_rate),
                        ftqs.map_or(0.0, |c| c.degraded_rate),
                    );
                }
            }
            let _ = writeln!(
                out,
                "\n(miss/degraded rates are the FTQS policy's; --format json has all cells)"
            );
            Ok(out)
        }
    }
}

/// `ftqs export <spec> [--budget N] [--prefix SYM]` — emit the
/// quasi-static tree as a C header for an embedded runtime. The prefix is
/// interpolated into C identifiers, so it must be one.
///
/// # Errors
///
/// Load/parse/synthesis errors; an invalid `prefix`.
pub fn export_c(source: &str, budget: usize, prefix: &str) -> Result<String, CliError> {
    if !is_c_identifier(prefix) {
        return Err(format!(
            "--prefix '{prefix}' is not a valid C identifier \
             (expected [A-Za-z_][A-Za-z0-9_]*)"
        )
        .into());
    }
    let app = load(source)?;
    // The session from engine() validates every synthesized tree before
    // reporting it, so the header is emitted from a checked artifact.
    let mut session = engine().session();
    let tree = session
        .synthesize(&app, &SynthesisRequest::ftqs(budget))?
        .into_tree();
    Ok(ftqs_core::export::tree_to_c(&app, &tree, prefix))
}

/// `true` if `s` is a valid C identifier (what `export --prefix` splices
/// into the generated header).
#[must_use]
pub fn is_c_identifier(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Simulate one [`ExecutionScenario::average_case`] cycle and render its
/// trace — used by `ftqs trace`.
///
/// # Errors
///
/// Load/parse/synthesis errors.
pub fn trace_average(source: &str, budget: usize) -> Result<String, CliError> {
    let app = load(source)?;
    let mut session = engine().session();
    let tree = session
        .synthesize(&app, &SynthesisRequest::ftqs(budget))?
        .into_tree();
    let runner = OnlineScheduler::new(&app, &tree);
    let out = runner.run(&ExecutionScenario::average_case(&app));
    Ok(format!(
        "utility {:.2}\n{}",
        out.utility,
        out.trace.render(|n| app.process(n).name().to_string())
    ))
}

/// `ftqs submit <family>` — renders an NDJSON request batch for [`serve`]
/// (or any transport consumer). Seeds cycle through `distinct` values
/// starting at `seed`, so `distinct < count` produces the duplicate-heavy
/// mixes that exercise the service's outcome cache. `priority` and
/// `deadline_ms` (both optional) stamp every request with the service's
/// scheduling knobs: interactive requests overtake queued bulk ones, and
/// a request still queued past its deadline answers `deadline exceeded`
/// without synthesis.
///
/// # Errors
///
/// Unknown family, policy, or priority names, or a zero
/// `count`/`size`/`distinct`.
#[allow(clippy::too_many_arguments)]
pub fn submit(
    family: &str,
    count: usize,
    size: usize,
    seed: u64,
    distinct: usize,
    policy: &str,
    budget: usize,
    priority: Option<&str>,
    deadline_ms: Option<u64>,
) -> Result<String, CliError> {
    if ftqs_workloads::Family::parse(family).is_none() {
        let names: Vec<&str> = ftqs_workloads::Family::ALL
            .iter()
            .map(|f| f.name())
            .collect();
        return Err(format!(
            "unknown workload family '{family}' (expected one of: {})",
            names.join(", ")
        )
        .into());
    }
    if !matches!(policy, "ftss" | "ftqs" | "ftsf") {
        return Err(format!("unknown policy '{policy}' (ftss|ftqs|ftsf)").into());
    }
    if !matches!(priority, None | Some("interactive") | Some("bulk")) {
        return Err(format!(
            "unknown priority '{}' (interactive|bulk)",
            priority.unwrap_or_default()
        )
        .into());
    }
    if count == 0 || size == 0 || distinct == 0 {
        return Err("--count, --size, and --distinct must be positive".into());
    }
    let mut out = String::new();
    for i in 0..count {
        let line = transport::preset_request_line(
            i as u64,
            family,
            size,
            seed + (i % distinct) as u64,
            policy,
            budget,
            priority,
            deadline_ms,
        );
        out.push_str(&line);
        out.push('\n');
    }
    Ok(out)
}

/// `ftqs serve <batch.ndjson|->` — runs an NDJSON request batch through
/// the fleet service ([`ftqs_service::Service`]) and returns one JSON
/// response line per request in completion order. Malformed request
/// lines answer with a per-line error response; the rest of the batch is
/// unaffected. The workers are supervised (a panicking job answers as an
/// error response; a dead thread is respawned) and both buffers are
/// bounded — `response_capacity` caps the response ring, so a slow
/// output sink throttles the fleet instead of growing memory. With
/// `with_stats`, a final line carries the [`ftqs_service::ServiceStats`]
/// snapshot (completed/rejected/panics/respawns/deadline-miss counters
/// plus queue, ring, and cache occupancy).
///
/// # Errors
///
/// I/O errors opening or reading the batch. Per-request failures are
/// response lines, not errors.
pub fn serve(
    batch: &str,
    workers: usize,
    queue_capacity: usize,
    cache_capacity: usize,
    response_capacity: usize,
    with_stats: bool,
) -> Result<String, CliError> {
    let mut service = Service::start(ServiceConfig {
        workers,
        queue_capacity,
        cache_capacity,
        response_capacity,
        intra_parallelism: 1,
        engine: engine(),
        ..ServiceConfig::default()
    });
    let mut out = Vec::new();
    match batch {
        "-" => {
            let stdin = std::io::stdin();
            transport::serve(&service, stdin.lock(), &mut out)?;
        }
        path => {
            let file = std::io::BufReader::new(std::fs::File::open(path)?);
            transport::serve(&service, file, &mut out)?;
        }
    }
    let stats = service.shutdown();
    let mut rendered = String::from_utf8(out).expect("responses are UTF-8 JSON");
    if with_stats {
        rendered.push_str(&to_json_line(&stats)?);
    }
    Ok(rendered)
}

fn to_json_pretty<T: Serialize>(value: &T) -> Result<String, CliError> {
    let mut s = serde_json::to_string_pretty(value)?;
    s.push('\n');
    Ok(s)
}

fn to_json_line<T: Serialize>(value: &T) -> Result<String, CliError> {
    let mut s = serde_json::to_string(value)?;
    s.push('\n');
    Ok(s)
}

// ---------------------------------------------------------------------------
// argv dispatch (the `ftqs` binary is a thin wrapper around `run`)
// ---------------------------------------------------------------------------

/// Parses the value following flag `name` as a number; absent flag →
/// `default`, malformed or missing value → a hard error naming the flag.
fn parse_value(args: &[String], name: &str, default: u64) -> Result<u64, CliError> {
    let Some(i) = args.iter().position(|a| a == name) else {
        return Ok(default);
    };
    let raw = args
        .get(i + 1)
        .ok_or_else(|| format!("missing value for {name}"))?;
    raw.parse()
        .map_err(|_| format!("invalid value for {name}: '{raw}' is not a number").into())
}

/// Parses the value following a string-valued flag `name`; absent flag →
/// `None`, flag without a value → a hard error naming the flag.
fn parse_str(args: &[String], name: &str) -> Result<Option<String>, CliError> {
    let Some(i) = args.iter().position(|a| a == name) else {
        return Ok(None);
    };
    args.get(i + 1)
        .cloned()
        .map(Some)
        .ok_or_else(|| format!("missing value for {name}").into())
}

/// Parses `--format text|json`; absent → `Text`, anything else → error.
fn parse_format(args: &[String]) -> Result<OutputFormat, CliError> {
    let Some(i) = args.iter().position(|a| a == "--format") else {
        return Ok(OutputFormat::Text);
    };
    match args.get(i + 1).map(String::as_str) {
        Some("json") => Ok(OutputFormat::Json),
        Some("text") => Ok(OutputFormat::Text),
        Some(other) => Err(format!("invalid value for --format: '{other}' (text|json)").into()),
        None => Err("missing value for --format".into()),
    }
}

/// Dispatches one CLI invocation (`args` excludes the program name) and
/// returns the textual output.
///
/// # Errors
///
/// Unknown commands/flags, malformed numeric flags, and every command
/// error (load/parse/synthesis/serialization).
pub fn run(args: &[String]) -> Result<String, CliError> {
    let cmd = args.first().ok_or("missing command")?;
    let spec = args.get(1).ok_or("missing spec argument")?;
    let value = |name: &str, default: u64| parse_value(args, name, default);
    let flag = |name: &str| args.iter().any(|a| a == name);

    match cmd.as_str() {
        "info" => info(spec, parse_format(args)?),
        "schedule" => schedule(spec, parse_format(args)?),
        "tree" => {
            // Validate --format even when --dot/--json decide the output,
            // so a typo like `--format jsn` is reported, not ignored.
            let format_flag = parse_format(args)?;
            let format = if flag("--dot") {
                TreeFormat::Dot
            } else if flag("--json") || format_flag == OutputFormat::Json {
                TreeFormat::Json
            } else {
                TreeFormat::Text
            };
            tree(spec, value("--budget", 8)? as usize, format)
        }
        "graph" => graph(spec),
        "simulate" => simulate(
            spec,
            value("--cycles", 1000)? as usize,
            value("--faults", 0)? as usize,
            value("--seed", 1)?,
            value("--budget", 8)? as usize,
            parse_str(args, "--model")?
                .as_deref()
                .unwrap_or("independent"),
            flag("--trace"),
        ),
        "compare" => compare(
            spec,
            value("--scenarios", 500)? as usize,
            value("--budget", 8)? as usize,
            value("--seed", 1)?,
            parse_format(args)?,
        ),
        "robustness" => robustness(
            spec,
            value("--scenarios", 500)? as usize,
            value("--budget", 8)? as usize,
            value("--seed", 1)?,
            parse_str(args, "--model")?.as_deref(),
            parse_format(args)?,
        ),
        "trace" => trace_average(spec, value("--budget", 8)? as usize),
        "submit" => {
            let count = value("--count", 16)? as usize;
            // --deadline-ms is present-or-absent (there is no "default
            // deadline"), so it parses through the string path.
            let deadline_ms = parse_str(args, "--deadline-ms")?
                .map(|raw| {
                    raw.parse::<u64>().map_err(|_| {
                        format!("invalid value for --deadline-ms: '{raw}' is not a number")
                    })
                })
                .transpose()?;
            submit(
                spec,
                count,
                value("--size", 15)? as usize,
                value("--seed", 0)?,
                value("--distinct", count as u64)? as usize,
                parse_str(args, "--policy")?.as_deref().unwrap_or("ftqs"),
                value("--budget", 8)? as usize,
                parse_str(args, "--priority")?.as_deref(),
                deadline_ms,
            )
        }
        "serve" => serve(
            spec,
            value("--workers", 0)? as usize,
            value("--queue", 1024)? as usize,
            value("--cache", 256)? as usize,
            value("--responses", 1024)? as usize,
            flag("--stats"),
        ),
        "export" => {
            let prefix = match args.iter().position(|a| a == "--prefix") {
                Some(i) => args
                    .get(i + 1)
                    .cloned()
                    .ok_or("missing value for --prefix")?,
                None => "ftqs".to_string(),
            };
            export_c(spec, value("--budget", 8)? as usize, &prefix)
        }
        other => Err(format!("unknown command '{other}'").into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftqs_core::SynthesisReport;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn info_reports_fig1() {
        let s = info("--example", OutputFormat::Text).unwrap();
        assert!(s.contains("3 processes (1 hard / 2 soft)"));
        assert!(s.contains("schedulable"));
    }

    #[test]
    fn info_json_is_machine_readable() {
        let s = info("--example", OutputFormat::Json).unwrap();
        let report: InfoReport = serde_json::from_str(s.trim()).unwrap();
        assert_eq!(report.processes, 3);
        assert_eq!(report.hard, 1);
        assert!(report.schedulable);
        assert_eq!(report.error, None);
    }

    #[test]
    fn schedule_lists_all_entries() {
        let s = schedule("--example", OutputFormat::Text).unwrap();
        assert!(s.contains("P1"));
        assert!(s.contains("P2"));
        assert!(s.contains("P3"));
        assert!(s.contains("hard"));
    }

    #[test]
    fn schedule_json_is_a_synthesis_report() {
        let s = schedule("--example", OutputFormat::Json).unwrap();
        let report: SynthesisReport = serde_json::from_str(&s).unwrap();
        assert_eq!(report.stats.schedules, 1);
        assert_eq!(report.tree.root_schedule().entries().len(), 3);
    }

    #[test]
    fn tree_formats_render() {
        let text = tree("--example", 4, TreeFormat::Text).unwrap();
        assert!(text.contains("schedules"));
        let dot = tree("--example", 4, TreeFormat::Dot).unwrap();
        assert!(dot.starts_with("digraph"));
        let json = tree("--example", 4, TreeFormat::Json).unwrap();
        assert!(json.contains("\"tree\""));
        let report: SynthesisReport = serde_json::from_str(&json).unwrap();
        assert!(report.stats.schedules >= 2);
    }

    #[test]
    fn graph_renders_dot() {
        let s = graph("--example").unwrap();
        assert!(s.contains("digraph application"));
        assert!(s.contains("P1"));
    }

    #[test]
    fn simulate_accumulates_cycles() {
        let s = simulate("--example", 50, 1, 7, 4, "independent", true).unwrap();
        assert!(s.contains("50 cycles"));
        assert!(s.contains("independent model"));
        assert!(s.contains("trace"));
        // In contract: no degradation summary line.
        assert!(!s.contains("out of contract"));
    }

    #[test]
    fn simulate_runs_out_of_contract_without_erroring() {
        // Fig. 1 has k = 1; planning 4 faults under the intermittent model
        // is far out of contract — the command must complete and report
        // degradation statistics instead of failing.
        let s = simulate("--example", 40, 4, 7, 4, "intermittent", false).unwrap();
        assert!(s.contains("4 fault(s) (intermittent model)"));
        assert!(s.contains("out of contract (k = 1)"));
        assert!(s.contains("degraded cycle(s)"));
    }

    #[test]
    fn simulate_rejects_unknown_model() {
        let err = simulate("--example", 10, 0, 1, 4, "cosmic-rays", false)
            .unwrap_err()
            .to_string();
        assert!(err.contains("cosmic-rays"), "{err}");
        assert!(err.contains("independent"), "must list presets: {err}");
    }

    #[test]
    fn compare_lists_all_schedulers() {
        let s = compare("--example", 50, 4, 3, OutputFormat::Text).unwrap();
        assert!(s.contains("FTQS"));
        assert!(s.contains("greedy"));
        // One row per fault count 0..=k (k = 1 for the example).
        assert_eq!(
            s.lines()
                .filter(|l| l.trim_start().starts_with(char::is_numeric))
                .count(),
            2
        );
    }

    #[test]
    fn compare_json_round_trips() {
        let s = compare("--example", 50, 4, 3, OutputFormat::Json).unwrap();
        let report: CompareReport = serde_json::from_str(&s).unwrap();
        assert_eq!(report.rows.len(), 2);
        assert_eq!(report.scenarios, 50);
        assert!(report.rows[0].ftqs >= report.rows[0].ftss - 1e-9);
    }

    #[test]
    fn robustness_sweeps_all_models_and_crosses_the_budget() {
        let s = robustness("--example", 30, 4, 3, None, OutputFormat::Text).unwrap();
        assert!(s.contains("design budget k = 1"));
        for model in FAULT_MODEL_NAMES {
            assert!(s.contains(&format!("model {model}")), "missing {model}");
        }
        // Intensities 0..=2k with k = 1 → rows for f = 0, 1, 2 per model.
        assert!(s.contains("FTQS") && s.contains("FTSF"));
    }

    #[test]
    fn robustness_json_round_trips() {
        let s = robustness("--example", 30, 4, 3, None, OutputFormat::Json).unwrap();
        let report: RobustnessReport = serde_json::from_str(&s).unwrap();
        assert_eq!(report.k, 1);
        assert_eq!(report.intensities, vec![0, 1, 2]);
        assert_eq!(report.models.len(), FAULT_MODEL_NAMES.len());
        // models × intensities × policies.
        assert_eq!(report.cells.len(), 4 * 3 * 3);
        // In-model cells of duration-bounded models never miss.
        for c in report
            .cells
            .iter()
            .filter(|c| c.model != "wcet-stress" && c.intensity <= report.k)
        {
            assert_eq!(
                c.miss_rate, 0.0,
                "in-model miss: {}/{}/{}",
                c.model, c.intensity, c.policy
            );
        }
    }

    #[test]
    fn robustness_model_filter_narrows_the_sweep() {
        let s = robustness("--example", 20, 4, 3, Some("bursty"), OutputFormat::Json).unwrap();
        let report: RobustnessReport = serde_json::from_str(&s).unwrap();
        assert_eq!(report.models, vec!["bursty".to_string()]);
        assert!(report.cells.iter().all(|c| c.model == "bursty"));

        let err = robustness("--example", 20, 4, 3, Some("nope"), OutputFormat::Text)
            .unwrap_err()
            .to_string();
        assert!(err.contains("unknown fault model"), "{err}");
    }

    #[test]
    fn trace_average_renders_events() {
        let s = trace_average("--example", 4).unwrap();
        assert!(s.contains("utility"));
        assert!(s.contains("done"));
    }

    #[test]
    fn load_rejects_missing_file() {
        assert!(load("/nonexistent/path.ftqs").is_err());
    }

    #[test]
    fn export_emits_c_header() {
        let c = export_c("--example", 4, "fig1").unwrap();
        assert!(c.contains("#include <stdint.h>"));
        assert!(c.contains("fig1_tree"));
    }

    #[test]
    fn export_rejects_non_identifier_prefixes() {
        for bad in ["", "1abc", "my-prefix", "a b", "x;", "π", "a\"b"] {
            let err = export_c("--example", 4, bad).unwrap_err().to_string();
            assert!(err.contains("C identifier"), "'{bad}' slipped through");
        }
        for good in ["ftqs", "_t", "A9_b"] {
            assert!(export_c("--example", 4, good).is_ok(), "'{good}' rejected");
        }
    }

    // ----- service commands ------------------------------------------------

    #[test]
    fn submit_generates_parseable_duplicate_heavy_batches() {
        let batch = submit("fig9", 8, 12, 5, 2, "ftqs", 4, None, None).unwrap();
        let lines: Vec<&str> = batch.lines().collect();
        assert_eq!(lines.len(), 8);
        for (i, line) in lines.iter().enumerate() {
            let req = ftqs_service::transport::parse_request(line).unwrap();
            assert_eq!(req.id, i as u64);
        }
        // Two distinct seeds cycling (5, 6, 5, 6, …), so lines 0 and 2
        // name the same application while line 1 differs.
        let source = |line: &str| {
            ftqs_service::transport::parse_request(line)
                .unwrap()
                .source
                .digest()
        };
        assert_eq!(source(lines[0]), source(lines[2]));
        assert_ne!(source(lines[0]), source(lines[1]));
    }

    #[test]
    fn submit_validates_family_and_policy() {
        let err = submit("escher", 4, 12, 0, 4, "ftqs", 8, None, None)
            .unwrap_err()
            .to_string();
        assert!(err.contains("escher") && err.contains("fig9"), "{err}");
        let err = submit("fig9", 4, 12, 0, 4, "edf", 8, None, None)
            .unwrap_err()
            .to_string();
        assert!(err.contains("edf"), "{err}");
        let err = submit("fig9", 4, 12, 0, 4, "ftqs", 8, Some("vip"), None)
            .unwrap_err()
            .to_string();
        assert!(err.contains("vip") && err.contains("interactive"), "{err}");
        assert!(submit("fig9", 0, 12, 0, 4, "ftqs", 8, None, None).is_err());
    }

    #[test]
    fn submit_stamps_priority_and_deadline_on_every_line() {
        let batch = submit(
            "fig9",
            3,
            12,
            5,
            1,
            "ftss",
            8,
            Some("interactive"),
            Some(250),
        )
        .unwrap();
        for line in batch.lines() {
            let req = ftqs_service::transport::parse_request(line).unwrap();
            assert_eq!(req.priority, ftqs_service::Priority::Interactive);
            assert_eq!(req.deadline, Some(std::time::Duration::from_millis(250)));
        }
        // Omitted knobs stay off the wire entirely.
        let bare = submit("fig9", 1, 12, 5, 1, "ftss", 8, None, None).unwrap();
        assert!(!bare.contains("priority") && !bare.contains("deadline_ms"));
    }

    #[test]
    fn serve_answers_a_submitted_batch_end_to_end() {
        // submit | serve round trip through a temp file, duplicate-heavy so
        // the cache path is exercised; the final --stats line must report a
        // nonzero hit count.
        let batch = submit("fig9", 6, 12, 5, 1, "ftqs", 4, None, None).unwrap();
        let path = std::env::temp_dir().join("ftqs-cli-serve-test.ndjson");
        std::fs::write(&path, &batch).unwrap();
        let out = serve(path.to_str().unwrap(), 1, 16, 8, 64, true).unwrap();
        std::fs::remove_file(&path).ok();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 7, "6 responses + 1 stats line");
        for line in &lines[..6] {
            let response: ftqs_service::transport::WireResponse =
                serde_json::from_str(line).unwrap();
            assert!(response.ok, "seed 5 at size 12 is schedulable");
        }
        let stats: ftqs_service::ServiceStats = serde_json::from_str(lines[6]).unwrap();
        assert_eq!(stats.completed, 6);
        assert_eq!(stats.cache.hits, 5, "one cold build, five hits");
    }

    #[test]
    fn serve_keeps_going_past_malformed_lines() {
        let path = std::env::temp_dir().join("ftqs-cli-serve-poisoned.ndjson");
        std::fs::write(
            &path,
            "{\"id\": 1, \"preset\": {\"family\": \"fig9\", \"size\": 12, \"seed\": 5}}\n\
             not json\n\
             {\"id\": 2, \"preset\": {\"family\": \"fig9\", \"size\": 12, \"seed\": 5}}\n",
        )
        .unwrap();
        let out = serve(path.to_str().unwrap(), 1, 16, 8, 64, false).unwrap();
        std::fs::remove_file(&path).ok();
        let responses: Vec<ftqs_service::transport::WireResponse> = out
            .lines()
            .map(|l| serde_json::from_str(l).unwrap())
            .collect();
        assert_eq!(responses.len(), 3);
        assert_eq!(responses.iter().filter(|r| r.ok).count(), 2);
        let bad = responses.iter().find(|r| !r.ok).unwrap();
        assert!(bad.error.as_ref().unwrap().contains("line 2"));
    }

    #[test]
    fn serve_rejects_missing_batch_files() {
        assert!(serve("/nonexistent/batch.ndjson", 1, 4, 4, 4, false).is_err());
    }

    // ----- argv dispatch ---------------------------------------------------

    #[test]
    fn run_dispatches_every_command() {
        for cmd in ["info", "schedule", "tree", "graph", "trace"] {
            assert!(run(&args(&[cmd, "--example"])).is_ok(), "{cmd} failed");
        }
        assert!(run(&args(&["simulate", "--example", "--cycles", "5"])).is_ok());
        assert!(run(&args(&[
            "simulate",
            "--example",
            "--cycles",
            "5",
            "--faults",
            "3",
            "--model",
            "bursty"
        ]))
        .is_ok());
        assert!(run(&args(&["compare", "--example", "--scenarios", "5"])).is_ok());
        assert!(run(&args(&[
            "robustness",
            "--example",
            "--scenarios",
            "5",
            "--model",
            "independent"
        ]))
        .is_ok());
        assert!(run(&args(&["export", "--example", "--prefix", "x"])).is_ok());
        assert!(run(&args(&["submit", "fig9", "--count", "2", "--size", "12"])).is_ok());
    }

    #[test]
    fn run_dispatches_submit_into_serve() {
        let batch = run(&args(&[
            "submit",
            "fig9",
            "--count",
            "4",
            "--size",
            "12",
            "--seed",
            "5",
            "--distinct",
            "1",
            "--priority",
            "interactive",
            "--deadline-ms",
            "60000",
        ]))
        .unwrap();
        assert!(batch.contains("\"priority\"") && batch.contains("\"deadline_ms\""));
        let path = std::env::temp_dir().join("ftqs-cli-dispatch.ndjson");
        std::fs::write(&path, &batch).unwrap();
        let out = run(&args(&[
            "serve",
            path.to_str().unwrap(),
            "--workers",
            "1",
            "--responses",
            "32",
            "--stats",
        ]))
        .unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(out.lines().count(), 5, "4 responses + stats");
        assert!(out.contains("\"ok\": true") || out.contains("\"ok\":true"));
        // The generous deadline was met: no misses in the stats line.
        assert!(out.contains("\"deadline_misses\": 0") || out.contains("\"deadline_misses\":0"));
    }

    #[test]
    fn submit_deadline_flag_must_be_numeric() {
        let err = run(&args(&[
            "submit",
            "fig9",
            "--count",
            "2",
            "--deadline-ms",
            "soon",
        ]))
        .unwrap_err()
        .to_string();
        assert!(
            err.contains("--deadline-ms") && err.contains("soon"),
            "{err}"
        );
    }

    #[test]
    fn model_flag_without_value_is_a_hard_error() {
        let err = run(&args(&["simulate", "--example", "--model"]))
            .unwrap_err()
            .to_string();
        assert!(err.contains("missing value for --model"), "{err}");
    }

    #[test]
    fn run_rejects_unknown_commands_and_missing_args() {
        assert!(run(&[]).is_err());
        assert!(run(&args(&["info"])).is_err());
        assert!(run(&args(&["frobnicate", "--example"])).is_err());
    }

    #[test]
    fn malformed_numeric_flags_are_hard_errors() {
        // Historically `--budget abc` silently fell back to the default.
        let err = run(&args(&["tree", "--example", "--budget", "abc"]))
            .unwrap_err()
            .to_string();
        assert!(err.contains("--budget"), "error must name the flag: {err}");
        assert!(err.contains("abc"), "error must show the input: {err}");

        let err = run(&args(&["simulate", "--example", "--cycles", "1e3"]))
            .unwrap_err()
            .to_string();
        assert!(err.contains("--cycles"));

        // A flag present with no value is also an error.
        let err = run(&args(&["tree", "--example", "--budget"]))
            .unwrap_err()
            .to_string();
        assert!(err.contains("missing value"));

        // Absent flags still use defaults.
        assert!(run(&args(&["tree", "--example"])).is_ok());
    }

    #[test]
    fn format_flag_is_validated() {
        assert!(run(&args(&["info", "--example", "--format", "json"])).is_ok());
        assert!(run(&args(&["info", "--example", "--format", "text"])).is_ok());
        let err = run(&args(&["info", "--example", "--format", "xml"]))
            .unwrap_err()
            .to_string();
        assert!(err.contains("--format"));
        // A --format typo is reported even when --dot/--json already
        // decide the output.
        let err = run(&args(&["tree", "--example", "--dot", "--format", "jsn"]))
            .unwrap_err()
            .to_string();
        assert!(err.contains("--format"));
    }

    #[test]
    fn export_prefix_without_value_is_a_hard_error() {
        let err = run(&args(&["export", "--example", "--prefix"]))
            .unwrap_err()
            .to_string();
        assert!(err.contains("missing value for --prefix"), "{err}");
    }

    #[test]
    fn tree_json_via_format_flag_matches_legacy_json_flag() {
        let a = run(&args(&["tree", "--example", "--json"])).unwrap();
        let b = run(&args(&["tree", "--example", "--format", "json"])).unwrap();
        let ra: SynthesisReport = serde_json::from_str(&a).unwrap();
        let rb: SynthesisReport = serde_json::from_str(&b).unwrap();
        assert_eq!(ra.stats, rb.stats);
    }

    #[test]
    fn c_identifier_predicate() {
        assert!(is_c_identifier("_x9"));
        assert!(is_c_identifier("ftqs"));
        assert!(!is_c_identifier(""));
        assert!(!is_c_identifier("9x"));
        assert!(!is_c_identifier("a-b"));
    }
}
