//! The design-flow workloads, both closed loops with one client: the next
//! application starts only when the previous one is done, like a designer
//! waiting on each result.
//!
//! * `synth-deep`: ~40-process applications from all four workload
//!   families, each timed through preparation, FTQS synthesis at budget
//!   40 on one long-lived session, validation, runtime imaging and a small
//!   Monte Carlo batch. Synthesis dominates.
//! * `fig9-eval`: the paper's Fig. 9 experiment. Applications across
//!   every Fig. 9 size get FTQS at budget = size plus FTSS and FTSF, and
//!   each of the three trees is evaluated by Monte Carlo at 0..=k faults
//!   on every core. Monte Carlo dominates.
//!
//! Applications cycle through a fixed pool built at set-up. The first
//! time an application is run its outputs are checked against a
//! reference computed off the clock; every later run must repeat them
//! bit for bit.

use crate::stats::{median, Samples};
use crate::trace::{self, Tracer};
use crate::{host, par_map, Gate, Metrics, Outcome, RunArgs};
use ftqs_core::fschedule::ScheduleContext;
use ftqs_core::ftqs::FtqsConfig;
use ftqs_core::ftsf::expected_utility;
use ftqs_core::oracle::{ftqs_reference, ftss_reference};
use ftqs_core::{
    tree_digest, validate, Application, ContentDigest, Engine, FtssConfig, PreparedApp,
    QuasiStaticTree, Session, SynthesisReport, SynthesisRequest,
};
use ftqs_sim::montecarlo::scenario_seed;
use ftqs_sim::stats::Accumulator;
use ftqs_sim::{
    BatchRunner, FaultModel, FlatRuntime, MonteCarlo, OnlineScheduler, ScenarioSampler,
};
use ftqs_workloads::{family, presets, Family};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::{Duration, Instant};

const SYNTH_POOL: usize = 256;
const SYNTH_SIZE: usize = 40;
const SYNTH_BUDGET: usize = 40;
/// Scenarios of synth-deep's small Monte Carlo batch (at k faults, one
/// thread).
const SYNTH_SCENARIOS: usize = 256;
/// Median pipeline time within which an application counts as on time,
/// for `on_time_ratio`: about 1.5 times the p90 seen on a 2-vCPU host.
const SYNTH_LIMIT_MS: f64 = 12.0;

/// 108 applications: enough for a p90 with ten beyond it.
const FIG9_APPS_PER_SIZE: usize = 12;
/// Scenarios per fault count and tree in fig9-eval.
const FIG9_SCENARIOS: usize = 4_000;
/// As [`SYNTH_LIMIT_MS`], for fig9-eval.
const FIG9_LIMIT_MS: f64 = 100.0;

/// FTQS outputs of every `ORACLE_EVERY`-th pool application are checked
/// against `ftqs_core::oracle` (when the budget makes it affordable), the
/// rest against a cold `Session::synthesize`.
const ORACLE_EVERY: usize = 8;
const ORACLE_MAX_BUDGET: usize = 40;
/// Monte Carlo outputs of every `MC_CHECK_EVERY`-th pool application are
/// checked against the reference sampler and `OnlineScheduler`.
const MC_CHECK_EVERY: usize = 8;
/// Off-clock quality estimate for synth-deep: pool prefix and scenarios.
const QUALITY_APPS: usize = SYNTH_POOL;
const QUALITY_SCENARIOS: usize = 500;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Design {
    SynthDeep,
    Fig9Eval,
}

struct PoolApp {
    index: usize,
    size: usize,
    app: Arc<Application>,
    mc_seed: u64,
}

struct Pool {
    apps: Vec<PoolApp>,
    build_ms: f64,
    built: usize,
}

/// One Monte Carlo result: mean utility (as bits), hard misses, scenarios.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct McOut {
    mean_bits: u64,
    misses: u64,
    scenarios: u64,
}

/// Everything one application's pipeline produced that a reference can
/// check. Trees are in pipeline order (synth-deep: FTQS; fig9-eval:
/// FTQS, FTSS, FTSF); `mc` holds one entry per tree and fault count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct AppOut {
    digests: Vec<ContentDigest>,
    utility_bits: Vec<u64>,
    mc: Vec<McOut>,
    schedules: usize,
    arcs: usize,
    tree_bytes: usize,
}

struct Reference {
    digests: Vec<ContentDigest>,
    utility_bits: Vec<u64>,
    /// `(index into AppOut::mc, mean, misses)` for the checked subset.
    mc: Vec<(usize, f64, u64)>,
    quality: Option<(f64, f64)>,
}

impl Design {
    fn fault_counts(app: &Application) -> std::ops::RangeInclusive<usize> {
        0..=app.faults().k
    }

    fn build_pool(self, seed: u64) -> Result<Pool, String> {
        let shapes: Vec<(Family, usize)> = match self {
            Design::SynthDeep => (0..SYNTH_POOL)
                .map(|i| (Family::ALL[i % Family::ALL.len()], SYNTH_SIZE))
                .collect(),
            Design::Fig9Eval => (0..FIG9_APPS_PER_SIZE * presets::FIG9_SIZES.len())
                .map(|i| {
                    (
                        Family::Fig9,
                        presets::FIG9_SIZES[i % presets::FIG9_SIZES.len()],
                    )
                })
                .collect(),
        };
        let mut session = Engine::new().session();
        let mut build = Duration::ZERO;
        let mut built = 0usize;
        let mut apps = Vec::with_capacity(shapes.len());
        for (index, (fam, size)) in shapes.into_iter().enumerate() {
            let base = presets::app_seed(seed, index);
            let mut attempt = 0u64;
            let app = loop {
                if attempt == 1_000 {
                    return Err(format!("no schedulable {fam} application of size {size}"));
                }
                let t = Instant::now();
                let app = family::build(fam, size, base.wrapping_add(attempt));
                build += t.elapsed();
                built += 1;
                attempt += 1;
                // The paper's generator keeps only schedulable
                // applications; fig9-eval also needs the FTSF baseline.
                let ok = session.synthesize(&app, &SynthesisRequest::ftss()).is_ok()
                    && (self == Design::SynthDeep
                        || session.synthesize(&app, &SynthesisRequest::ftsf()).is_ok());
                if ok {
                    break app;
                }
            };
            apps.push(PoolApp {
                index,
                size: app.len(),
                app: Arc::new(app),
                mc_seed: scenario_seed(seed ^ 0x5EED_F7A5, index as u64),
            });
        }
        Ok(Pool {
            apps,
            build_ms: build.as_secs_f64() * 1e3,
            built,
        })
    }

    fn budget(self, app: &PoolApp) -> usize {
        match self {
            Design::SynthDeep => SYNTH_BUDGET,
            Design::Fig9Eval => app.size,
        }
    }

    fn monte_carlo(self, app: &PoolApp) -> MonteCarlo {
        match self {
            Design::SynthDeep => MonteCarlo {
                scenarios: SYNTH_SCENARIOS,
                seed: app.mc_seed,
                threads: 1,
            },
            Design::Fig9Eval => MonteCarlo {
                scenarios: FIG9_SCENARIOS,
                seed: app.mc_seed,
                threads: host::nproc(),
            },
        }
    }

    fn limit_ms(self) -> f64 {
        match self {
            Design::SynthDeep => SYNTH_LIMIT_MS,
            Design::Fig9Eval => FIG9_LIMIT_MS,
        }
    }

    /// Runs one application through the pipeline. Returns the pipeline
    /// time and its outputs; digesting the outputs is not timed.
    fn step(
        self,
        p: &PoolApp,
        session: &mut Session,
        tr: &mut Tracer,
    ) -> (Duration, Result<AppOut, String>) {
        let id = p.index as u64;
        let app = &p.app;
        let started = Instant::now();
        let mut reports: Vec<SynthesisReport> = Vec::with_capacity(3);
        let mut mc = Vec::new();
        let result = (|| -> Result<(), String> {
            let ftqs = SynthesisRequest::ftqs(self.budget(p));
            match self {
                Design::SynthDeep => {
                    let prepared = tr.span("core.prepare", id, |_| {
                        PreparedApp::from_arc(Arc::clone(app))
                    });
                    let report = tr
                        .span("core.ftqs", id, |_| {
                            session.synthesize_prepared(&prepared, &ftqs)
                        })
                        .map_err(|e| e.to_string())?;
                    tr.span("core.validate", id, |_| {
                        validate::validate_tree(app, &report.tree)
                    })
                    .map_err(|e| format!("invalid tree: {e}"))?;
                    reports.push(report);
                }
                Design::Fig9Eval => {
                    for (name, request) in [
                        ("core.ftqs", ftqs),
                        ("core.ftss", SynthesisRequest::ftss()),
                        ("core.ftsf", SynthesisRequest::ftsf()),
                    ] {
                        let report = tr
                            .span(name, id, |_| session.synthesize(app, &request))
                            .map_err(|e| e.to_string())?;
                        reports.push(report);
                    }
                }
            }
            let config = self.monte_carlo(p);
            let fault_counts = match self {
                Design::SynthDeep => app.faults().k..=app.faults().k,
                Design::Fig9Eval => Design::fault_counts(app),
            };
            for report in &reports {
                let runtime = tr.span("sim.image", id, |_| FlatRuntime::new(app, &report.tree));
                let runner = BatchRunner::new(app, &runtime, FaultModel::Independent);
                for f in fault_counts.clone() {
                    let eval = tr.span("sim.batch", id, |_| runner.evaluate(&config, f));
                    mc.push(McOut {
                        mean_bits: eval.utility.mean().to_bits(),
                        misses: eval.deadline_misses,
                        scenarios: eval.utility.count(),
                    });
                }
            }
            Ok(())
        })();
        let elapsed = started.elapsed();
        let out = result.map(|()| AppOut {
            digests: reports.iter().map(|r| tree_digest(&r.tree)).collect(),
            utility_bits: reports
                .iter()
                .map(|r| r.utility.expected_average_case.to_bits())
                .collect(),
            mc,
            schedules: reports.iter().map(|r| r.stats.schedules).sum(),
            arcs: reports.iter().map(|r| r.stats.arcs).sum(),
            tree_bytes: reports.iter().map(|r| r.stats.memory_bytes).sum(),
        });
        (elapsed, out)
    }

    /// Off-clock reference for one pool application.
    fn reference(self, p: &PoolApp) -> Result<Reference, String> {
        let app = &*p.app;
        let budget = self.budget(p);
        let mut session = Engine::new().session();
        let mut cold = |request: SynthesisRequest| {
            session
                .synthesize(app, &request)
                .map(SynthesisReport::into_tree)
                .map_err(|e| format!("reference synthesis failed: {e}"))
        };
        let mut trees = vec![
            if p.index.is_multiple_of(ORACLE_EVERY) && budget <= ORACLE_MAX_BUDGET {
                ftqs_reference(app, &FtqsConfig::with_budget(budget))
                    .map_err(|e| format!("oracle FTQS failed: {e}"))?
            } else {
                cold(SynthesisRequest::ftqs(budget))?
            },
        ];
        if self == Design::Fig9Eval {
            let root = ftss_reference(app, &ScheduleContext::root(app), &FtssConfig::default())
                .map_err(|e| format!("oracle FTSS failed: {e}"))?;
            trees.push(QuasiStaticTree::single(root));
            trees.push(cold(SynthesisRequest::ftsf())?);
        }
        let mut mc = Vec::new();
        if p.index % MC_CHECK_EVERY == MC_CHECK_EVERY / 2 {
            // The FTQS tree at k faults: the cell with the most switching.
            let k = app.faults().k;
            let config = self.monte_carlo(p);
            let (mean, misses) = reference_mc(app, &trees[0], &config, k);
            // `AppOut::mc` is tree-major: FTQS comes first, at k faults
            // only in synth-deep and at 0..=k in fig9-eval.
            let slot = match self {
                Design::SynthDeep => 0,
                Design::Fig9Eval => k,
            };
            mc.push((slot, mean, misses));
        }
        let quality = (self == Design::SynthDeep && p.index < QUALITY_APPS).then(|| {
            let root = QuasiStaticTree::single(trees[0].root_schedule().clone());
            utility_sums(app, &trees[0], &root, p.mc_seed)
        });
        Ok(Reference {
            digests: trees.iter().map(tree_digest).collect(),
            // A report's expected utility is that of its root schedule.
            utility_bits: trees
                .iter()
                .map(|t| expected_utility(app, t.root_schedule()).to_bits())
                .collect(),
            mc,
            quality,
        })
    }

    fn check(out: &AppOut, reference: &Reference) -> Result<(), String> {
        if out.digests != reference.digests {
            return Err("tree digest differs from the reference".to_string());
        }
        if out.utility_bits != reference.utility_bits {
            return Err("expected utility differs from the reference".to_string());
        }
        for m in &out.mc {
            if m.misses != 0 {
                return Err(format!("{} in-model hard deadline misses", m.misses));
            }
        }
        for &(slot, mean, misses) in &reference.mc {
            let got = out.mc.get(slot).ok_or("missing Monte Carlo result")?;
            let got_mean = f64::from_bits(got.mean_bits);
            if got.misses != misses || (got_mean - mean).abs() > 1e-9 * mean.abs().max(1.0) {
                return Err(format!(
                    "Monte Carlo mean {got_mean} differs from the reference {mean}"
                ));
            }
        }
        Ok(())
    }
}

/// Mean utility of `tree` over the reference sampler and the tree-walking
/// `OnlineScheduler`, accumulated like the batched runtime does.
fn reference_mc(
    app: &Application,
    tree: &QuasiStaticTree,
    config: &MonteCarlo,
    faults: usize,
) -> (f64, u64) {
    let sampler = ScenarioSampler::new(app);
    let scheduler = OnlineScheduler::new(app, tree);
    let mut acc = Accumulator::new();
    let mut misses = 0;
    for i in 0..config.scenarios {
        let mut rng = StdRng::seed_from_u64(scenario_seed(config.seed, i as u64));
        let scenario = sampler.sample_reference(&mut rng, faults);
        let out = scheduler.run_untraced(&scenario);
        acc.add(out.utility);
        misses += u64::from(out.deadline_miss.is_some());
    }
    (acc.mean(), misses)
}

/// Monte Carlo utility of `ftqs` and of `ftss`, each summed over 0..=k
/// faults on identical scenarios.
pub(crate) fn utility_sums(
    app: &Application,
    ftqs: &QuasiStaticTree,
    ftss: &QuasiStaticTree,
    seed: u64,
) -> (f64, f64) {
    let config = MonteCarlo {
        scenarios: QUALITY_SCENARIOS,
        seed,
        threads: 1,
    };
    let sum = |tree: &QuasiStaticTree| -> f64 {
        let runtime = FlatRuntime::new(app, tree);
        let runner = BatchRunner::new(app, &runtime, FaultModel::Independent);
        Design::fault_counts(app)
            .map(|f| runner.evaluate(&config, f).utility.mean())
            .sum()
    };
    (sum(ftqs), sum(ftss))
}

/// FTQS utility as a percentage of FTSS utility, pooled over
/// applications. Pooling keeps an application whose FTSS schedule earns
/// no utility from dividing by zero.
pub(crate) fn utility_vs_ftss_pct(sums: impl Iterator<Item = (f64, f64)>) -> f64 {
    let (ftqs, ftss) = sums.fold((0.0, 0.0), |(a, b), (x, y)| (a + x, b + y));
    100.0 * ftqs / ftss
}

struct Phase {
    wall: Duration,
    cpu_s: f64,
    steal_pct: f64,
    latencies_ms: Vec<f64>,
    completed: usize,
}

impl Phase {
    /// Applications per second, p50 and p90 of the pipeline time, and the
    /// share of applications within `limit_ms`, from each pool
    /// application's median time over its runs. Every application runs at
    /// least once; taking its median first makes the result robust to a
    /// slow stretch of the host, and each application weighs the same
    /// however many times it ran.
    fn per_app(&self, pool: usize, limit_ms: f64) -> Result<(f64, f64, f64, f64), String> {
        let mut runs: Vec<Vec<f64>> = vec![Vec::new(); pool];
        for (i, &ms) in self.latencies_ms.iter().enumerate() {
            runs[i % pool].push(ms);
        }
        let medians: Vec<f64> = runs.iter().map(|r| median(r)).collect();
        let rate = pool as f64 / (medians.iter().sum::<f64>() / 1e3);
        let on_time = medians.iter().filter(|&&ms| ms <= limit_ms).count() as f64 / pool as f64;
        let lat = Samples::new(medians);
        Ok((rate, lat.p(0.5), lat.tail(0.9, "pipeline time")?, on_time))
    }
}

struct Runner<'a> {
    kind: Design,
    pool: &'a Pool,
    references: &'a [Reference],
    first: Vec<Option<AppOut>>,
    gate: &'a mut Gate,
}

impl Runner<'_> {
    /// Runs applications until `deadline`, but at least one pass over the
    /// pool.
    fn phase(&mut self, session: &mut Session, deadline: Instant, tr: &mut Tracer) -> Phase {
        let pool = self.pool;
        let n = pool.apps.len();
        let mut latencies_ms = Vec::new();
        let cpu0 = host::cpu_seconds();
        let steal = host::Steal::now();
        let started = Instant::now();
        tr.span("bench.phase", 0, |tr| {
            for i in 0.. {
                if i >= n && Instant::now() >= deadline {
                    break;
                }
                let p = &pool.apps[i % n];
                tr.span("bench.app", p.index as u64, |tr| {
                    let (elapsed, out) = self.kind.step(p, session, tr);
                    let ms = elapsed.as_secs_f64() * 1e3;
                    latencies_ms.push(ms);
                    let verdict = out.and_then(|out| match &self.first[p.index] {
                        Some(first) if *first == out => Ok(()),
                        Some(_) => Err("output differs from this application's first run".into()),
                        None => {
                            let v = Design::check(&out, &self.references[p.index]);
                            self.first[p.index] = Some(out);
                            v
                        }
                    });
                    self.gate
                        .record(verdict.map_err(|e| format!("app {}: {e}", p.index)));
                });
            }
        });
        Phase {
            wall: started.elapsed(),
            cpu_s: host::cpu_seconds() - cpu0,
            steal_pct: steal.pct_since(),
            completed: latencies_ms.len(),
            latencies_ms,
        }
    }
}

pub fn run(kind: Design, args: &RunArgs, gate: &mut Gate) -> Result<Outcome, String> {
    let (pool, setup_s, setups) = crate::timed_setups(|| kind.build_pool(args.seed))?;
    let references = par_map(&pool.apps, |p| kind.reference(p))
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?;
    // `peak_rss_mb` covers the timed phase, not the references.
    let setup_peak_mb = host::reset_peak_rss()?;
    let mut session = Engine::new().session();
    let mut runner = Runner {
        kind,
        first: vec![None; pool.apps.len()],
        pool: &pool,
        references: &references,
        gate,
    };
    let mut m = Metrics::default();
    let mut tr = Tracer::new(args.trace);
    let origin = Instant::now();
    let deadline = origin + Duration::from_secs_f64(args.seconds);
    let ph = runner.phase(&mut session, deadline, &mut tr);
    if !args.trace {
        let (rate, p50, p90, on_time) = ph.per_app(pool.apps.len(), kind.limit_ms())?;
        m.set("setup_s", setup_s);
        m.set("apps_per_s", rate);
        m.set("latency_ms_p50", p50);
        m.set("latency_ms_p90", p90);
        m.set("on_time_ratio", on_time);
    } else {
        let spans = tr.spans();
        crate::write_trace(args, spans, origin);
        let own = trace::self_ms_by_name(spans);
        let wall_ms = ph.wall.as_secs_f64() * 1e3;
        let total = |name: &str| trace::durations_ms(spans, name).iter().sum::<f64>();
        let mean = |name: &str| Samples::new(trace::durations_ms(spans, name)).mean();
        let ftqs = Samples::new(trace::durations_ms(spans, "core.ftqs"));
        // Outputs repeat exactly on every run of an application, so the
        // first run's counts stand for every run.
        let run_outputs =
            || (0..ph.completed).filter_map(|i| runner.first[i % pool.apps.len()].as_ref());
        let schedules_run: usize = run_outputs().map(|o| o.schedules).sum();
        let scenarios_run: u64 = run_outputs()
            .flat_map(|o| o.mc.iter().map(|m| m.scenarios))
            .sum();
        m.set("workloads.build_ms", pool.build_ms);
        m.set(
            "workloads.schedulable_ratio",
            pool.apps.len() as f64 / pool.built as f64,
        );
        m.set("core.prepare_ms", mean("core.prepare"));
        m.set("core.ftqs_ms_p50", ftqs.p(0.5));
        m.set("core.ftqs_ms_p90", ftqs.tail(0.9, "core.ftqs")?);
        m.set(
            "core.ftqs_share",
            own.get("core.ftqs").copied().unwrap_or(0.0) / wall_ms,
        );
        m.set(
            "core.us_per_schedule",
            total("core.ftqs") * 1e3 / schedules_run.max(1) as f64,
        );
        m.set("core.ftss_ms", mean("core.ftss"));
        m.set("core.ftsf_ms", mean("core.ftsf"));
        m.set("core.validate_ms", mean("core.validate"));
        // One pass over the pool: exact counts of work and output.
        let pass = || runner.first.iter().flatten();
        m.set(
            "core.schedules",
            pass().map(|o| o.schedules).sum::<usize>() as f64,
        );
        m.set("core.arcs", pass().map(|o| o.arcs).sum::<usize>() as f64);
        m.set(
            "core.tree_bytes",
            pass().map(|o| o.tree_bytes).sum::<usize>() as f64,
        );
        m.set("sim.image_ms", mean("sim.image"));
        m.set("sim.batch_ms", mean("sim.batch"));
        m.set(
            "sim.scenarios_per_s",
            scenarios_run as f64 / (total("sim.batch") / 1e3).max(1e-9),
        );
        m.set(
            "sim.deadline_misses",
            pass()
                .flat_map(|o| o.mc.iter().map(|m| m.misses))
                .sum::<u64>() as f64,
        );
        m.set("process.cpu_util", ph.cpu_s / ph.wall.as_secs_f64());
        m.set("host.steal_pct", ph.steal_pct);
        m.set(
            "bench.self_pct",
            100.0 * (own["bench.phase"] + own["bench.app"]) / wall_ms,
        );
        m.set(
            "trace.accounted_pct",
            100.0 * own.values().sum::<f64>() / wall_ms,
        );
        m.set(
            "trace.overhead_pct",
            trace::overhead_pct(spans.len(), ph.wall),
        );
    }
    let quality = match kind {
        Design::SynthDeep => utility_vs_ftss_pct(references.iter().filter_map(|r| r.quality)),
        Design::Fig9Eval => utility_vs_ftss_pct(runner.first.iter().flatten().map(|o| {
            // `mc` is tree-major: FTQS, then FTSS, then FTSF.
            let per_tree = o.mc.len() / 3;
            let sum = |t: usize| -> f64 {
                o.mc[t * per_tree..(t + 1) * per_tree]
                    .iter()
                    .map(|m| f64::from_bits(m.mean_bits))
                    .sum()
            };
            (sum(0), sum(1))
        })),
    };
    m.set("utility_vs_ftss_pct", quality);
    Ok(Outcome {
        metrics: m,
        extra: vec![
            ("setups", setups.to_string()),
            ("setup_peak_rss_mb", format!("{setup_peak_mb:.2}")),
            ("steal_pct", format!("{:.2}", ph.steal_pct)),
            ("on_time_limit_ms", kind.limit_ms().to_string()),
            ("pool_apps", pool.apps.len().to_string()),
            (
                "scenarios_per_evaluation",
                match kind {
                    Design::SynthDeep => SYNTH_SCENARIOS,
                    Design::Fig9Eval => FIG9_SCENARIOS,
                }
                .to_string(),
            ),
        ],
    })
}
