//! The unified synthesis API: [`Engine`], [`Session`],
//! [`SynthesisRequest`], [`SynthesisReport`].
//!
//! The paper's pipeline exposes three synthesis policies — FTSS single
//! schedules, FTQS quasi-static trees, and the FTSF baseline. Historically
//! each was a free function returning a bare schedule or tree; batch and
//! server callers had no way to reuse scratch state across runs, inspect
//! structured results, or handle one error type. This module is the
//! front door that fixes that:
//!
//! * An [`Engine`] holds the synthesis configuration shared by many runs
//!   (FTSS tuning, FTQS expansion policy, sweep resolution, utility
//!   estimator, validation posture). It is cheap, immutable, and
//!   shareable.
//! * A [`Session`] (from [`Engine::session`]) owns the synthesis
//!   scratch buffers and is reused call-to-call, amortizing
//!   the synthesis allocations across whole batch runs instead of per
//!   run.
//! * A [`SynthesisRequest`] names the policy
//!   ([`SynthesisPolicy::Ftss`] / [`SynthesisPolicy::Ftqs`] /
//!   [`SynthesisPolicy::Ftsf`]) plus per-request overrides: expansion
//!   policy, sweep samples, estimator, a process-count limit, and a
//!   parallelism cap.
//! * Every policy returns the same structured, serializable
//!   [`SynthesisReport`] — the tree (single-node for FTSS/FTSF), tree
//!   statistics, expected utility, dropped-process accounting, and
//!   synthesis timing — and fails with the unified [`enum@crate::Error`].
//!
//! Results are **bit-identical** to the reference implementations in
//! [`crate::oracle`]; the equivalence tests pin this.
//!
//! # Example
//!
//! ```
//! use ftqs_core::{
//!     Application, Engine, ExecutionTimes, FaultModel, SynthesisRequest, Time, UtilityFunction,
//! };
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! # let mut b = Application::builder(Time::from_ms(300), FaultModel::new(1, Time::from_ms(10)));
//! # let p1 = b.add_hard("P1", ExecutionTimes::uniform(30.into(), 70.into())?, Time::from_ms(180));
//! # let p2 = b.add_soft(
//! #     "P2",
//! #     ExecutionTimes::uniform(30.into(), 70.into())?,
//! #     UtilityFunction::step(40.0, [(Time::from_ms(90), 20.0)])?,
//! # );
//! # b.add_dependency(p1, p2)?;
//! # let app = b.build()?;
//! let engine = Engine::new();
//! let mut session = engine.session();
//! let report = session.synthesize(&app, &SynthesisRequest::ftqs(8))?;
//! assert!(report.stats.schedules >= 1);
//! // The same session reuses its scratch buffers for the next run.
//! let ftss = session.synthesize(&app, &SynthesisRequest::ftss())?;
//! assert_eq!(ftss.stats.schedules, 1);
//! # Ok(())
//! # }
//! ```

use crate::digest::{application_digest, ContentDigest, Hasher};
use crate::fschedule::{CompiledUtilities, UtilityEstimator};
use crate::ftqs::{ftqs_prepared, ftqs_with, ExpansionPolicy, ExpansionStats, FtqsConfig};
use crate::ftsf::ftsf_with;
use crate::ftss::{ftss_from_context, ftss_with, AppModel, FtssConfig, SynthesisScratch};
use crate::tree::QuasiStaticTree;
use crate::validate::validate_tree;
use crate::{Application, Error, FSchedule, ScheduleContext};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::Instant;

/// Which synthesis pipeline a [`SynthesisRequest`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum SynthesisPolicy {
    /// One fault-tolerant static schedule (paper §5.2), returned as a
    /// single-node tree.
    Ftss,
    /// The quasi-static tree of schedules (paper §5.1).
    Ftqs {
        /// Maximum number of different schedules kept (`M`); must be > 0.
        budget: usize,
    },
    /// The straightforward baseline of the paper's evaluation (§6),
    /// returned as a single-node tree.
    Ftsf,
}

/// Shared synthesis configuration — create once, spawn [`Session`]s per
/// worker/batch. All knobs default to the paper-faithful settings of
/// [`FtqsConfig::default`].
#[derive(Debug, Clone, PartialEq)]
pub struct Engine {
    ftss: FtssConfig,
    expansion: ExpansionPolicy,
    interval_samples: u32,
    estimator: UtilityEstimator,
    validate: bool,
}

impl Default for Engine {
    fn default() -> Self {
        let d = FtqsConfig::default();
        Engine {
            ftss: d.ftss,
            expansion: d.policy,
            interval_samples: d.interval_samples,
            estimator: d.estimator,
            validate: false,
        }
    }
}

impl Engine {
    /// An engine with the paper-faithful default configuration.
    #[must_use]
    pub fn new() -> Self {
        Engine::default()
    }

    /// Replaces the FTSS tuning used by every policy.
    #[must_use]
    pub fn with_ftss_config(mut self, ftss: FtssConfig) -> Self {
        self.ftss = ftss;
        self
    }

    /// Sets the default FTQS expansion policy.
    #[must_use]
    pub fn with_expansion_policy(mut self, policy: ExpansionPolicy) -> Self {
        self.expansion = policy;
        self
    }

    /// Sets the default interval-partitioning sample count.
    #[must_use]
    pub fn with_interval_samples(mut self, samples: u32) -> Self {
        self.interval_samples = samples;
        self
    }

    /// Sets the default suffix-utility estimator.
    #[must_use]
    pub fn with_estimator(mut self, estimator: UtilityEstimator) -> Self {
        self.estimator = estimator;
        self
    }

    /// Enables (or disables) structural validation of every synthesized
    /// artifact before it is reported. Off by default — synthesis
    /// guarantees the invariants by construction; turn it on where the
    /// artifact is about to leave the process (CLI, export).
    #[must_use]
    pub fn with_validation(mut self, validate: bool) -> Self {
        self.validate = validate;
        self
    }

    /// Opens a synthesis session: the scratch-owning, reusable handle that
    /// actually runs requests. The session carries its own copy of the
    /// engine configuration (cheap — a handful of scalars), so sessions
    /// outlive the engine value and move freely across threads.
    #[must_use]
    pub fn session(&self) -> Session {
        Session {
            engine: self.clone(),
            scratch: SynthesisScratch::new(),
            completed: 0,
        }
    }

    /// The effective FTQS configuration for `request`.
    fn ftqs_config(&self, budget: usize, request: &SynthesisRequest) -> FtqsConfig {
        FtqsConfig {
            max_schedules: budget,
            policy: request.expansion.unwrap_or(self.expansion),
            interval_samples: request.interval_samples.unwrap_or(self.interval_samples),
            estimator: request.estimator.unwrap_or(self.estimator),
            ftss: self.ftss.clone(),
        }
    }

    /// Stable content digest of every engine knob that can influence a
    /// synthesized artifact. Combined with
    /// [`SynthesisRequest::knob_digest`] and
    /// [`crate::application_digest`] it forms a canonical cache key:
    /// equal keys guarantee bit-identical synthesis output.
    #[must_use]
    pub fn config_digest(&self) -> ContentDigest {
        let mut h = Hasher::new();
        digest_ftss(&mut h, &self.ftss);
        digest_expansion(&mut h, self.expansion);
        h.write_u64(u64::from(self.interval_samples));
        digest_estimator(&mut h, self.estimator);
        h.write_u8(u8::from(self.validate));
        h.finish()
    }
}

fn digest_ftss(h: &mut Hasher, ftss: &FtssConfig) {
    h.write_u8(u8::from(ftss.dropping));
    h.write_u8(u8::from(ftss.soft_reexecution));
    h.write_f64(ftss.successor_weight);
}

fn digest_expansion(h: &mut Hasher, policy: ExpansionPolicy) {
    h.write_u8(match policy {
        ExpansionPolicy::MostSimilar => 0,
        ExpansionPolicy::Fifo => 1,
        ExpansionPolicy::BestImprovement => 2,
    });
}

fn digest_estimator(h: &mut Hasher, estimator: UtilityEstimator) {
    h.write_u8(match estimator {
        UtilityEstimator::AverageCase => 0,
        UtilityEstimator::Quantile3 => 1,
    });
}

fn digest_option<T>(h: &mut Hasher, v: Option<T>, f: impl FnOnce(&mut Hasher, T)) {
    match v {
        None => h.write_u8(0),
        Some(v) => {
            h.write_u8(1);
            f(h, v);
        }
    }
}

/// One synthesis call: the policy plus per-request overrides and limits.
///
/// Build with [`SynthesisRequest::ftss`] / [`SynthesisRequest::ftqs`] /
/// [`SynthesisRequest::ftsf`] and chain `with_*` overrides.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthesisRequest {
    policy: SynthesisPolicy,
    expansion: Option<ExpansionPolicy>,
    interval_samples: Option<u32>,
    estimator: Option<UtilityEstimator>,
    validate: Option<bool>,
    max_processes: Option<usize>,
    max_parallelism: Option<usize>,
}

impl SynthesisRequest {
    /// A request running `policy` with the engine's defaults.
    #[must_use]
    pub fn new(policy: SynthesisPolicy) -> Self {
        SynthesisRequest {
            policy,
            expansion: None,
            interval_samples: None,
            estimator: None,
            validate: None,
            max_processes: None,
            max_parallelism: None,
        }
    }

    /// A single FTSS schedule.
    #[must_use]
    pub fn ftss() -> Self {
        SynthesisRequest::new(SynthesisPolicy::Ftss)
    }

    /// A quasi-static tree with at most `budget` schedules.
    #[must_use]
    pub fn ftqs(budget: usize) -> Self {
        SynthesisRequest::new(SynthesisPolicy::Ftqs { budget })
    }

    /// The FTSF baseline schedule.
    #[must_use]
    pub fn ftsf() -> Self {
        SynthesisRequest::new(SynthesisPolicy::Ftsf)
    }

    /// The requested policy.
    #[must_use]
    pub fn policy(&self) -> SynthesisPolicy {
        self.policy
    }

    /// Overrides the engine's FTQS expansion policy for this request.
    #[must_use]
    pub fn with_expansion_policy(mut self, policy: ExpansionPolicy) -> Self {
        self.expansion = Some(policy);
        self
    }

    /// Overrides the engine's interval-partitioning sample count.
    #[must_use]
    pub fn with_interval_samples(mut self, samples: u32) -> Self {
        self.interval_samples = Some(samples);
        self
    }

    /// Overrides the engine's suffix-utility estimator.
    #[must_use]
    pub fn with_estimator(mut self, estimator: UtilityEstimator) -> Self {
        self.estimator = Some(estimator);
        self
    }

    /// Overrides the engine's validation posture for this request.
    #[must_use]
    pub fn with_validation(mut self, validate: bool) -> Self {
        self.validate = Some(validate);
        self
    }

    /// Rejects applications larger than `n` processes with
    /// [`Error::InvalidRequest`] instead of synthesizing — a guard for
    /// servers accepting untrusted workloads.
    #[must_use]
    pub fn with_max_processes(mut self, n: usize) -> Self {
        self.max_processes = Some(n);
        self
    }

    /// The process-count limit set by
    /// [`SynthesisRequest::with_max_processes`], if any.
    #[must_use]
    pub fn max_processes(&self) -> Option<usize> {
        self.max_processes
    }

    /// Caps the worker threads the parallel synthesis layers may use for
    /// this request (`1` forces fully serial execution). Results are
    /// bit-identical at any setting; this only trades latency for CPU.
    #[must_use]
    pub fn with_max_parallelism(mut self, workers: usize) -> Self {
        self.max_parallelism = Some(workers.max(1));
        self
    }

    /// Stable content digest of every request knob that can influence the
    /// synthesized artifact: the policy (including the FTQS budget) and
    /// the per-request overrides. `max_processes` and `max_parallelism`
    /// are deliberately excluded — the former only gates acceptance and
    /// the latter is bit-identical at any setting — so requests differing
    /// only in those limits share a digest. A cache of *outcomes* must
    /// add the process limit to its key itself, since it decides between
    /// a report and a rejection (the fleet service does).
    #[must_use]
    pub fn knob_digest(&self) -> ContentDigest {
        let mut h = Hasher::new();
        match self.policy {
            SynthesisPolicy::Ftss => h.write_u8(0),
            SynthesisPolicy::Ftqs { budget } => {
                h.write_u8(1);
                h.write_usize(budget);
            }
            SynthesisPolicy::Ftsf => h.write_u8(2),
        }
        digest_option(&mut h, self.expansion, digest_expansion);
        digest_option(&mut h, self.interval_samples, |h, v| {
            h.write_u64(u64::from(v));
        });
        digest_option(&mut h, self.estimator, digest_estimator);
        digest_option(&mut h, self.validate, |h, v| h.write_u8(u8::from(v)));
        h.finish()
    }
}

/// An application pre-compiled for repeated synthesis: the dense
/// `AppModel` tables and compiled utility functions every FTSS/FTQS run
/// needs, built once and shared read-only by any number of sessions.
///
/// This is the cacheable synthesis artifact handle. A `PreparedApp` is
/// immutable, `Send + Sync`, and cheap to share behind an [`Arc`] by
/// callers that synthesize one application many times (several
/// policies, budgets or engine settings). [`Session::synthesize_prepared`]
/// runs against one without re-deriving any per-application table, and
/// its output is pinned bit-identical to [`Session::synthesize`] on the
/// same application.
///
/// FTSS and FTQS reuse the prepared tables directly. FTSF synthesizes
/// over a fault-free clone of the application (the baseline deliberately
/// ignores the fault model during scheduling), so it only reuses the
/// shared [`Arc`]'d application itself.
#[derive(Debug)]
pub struct PreparedApp {
    app: Arc<Application>,
    model: AppModel,
    compiled: CompiledUtilities,
    digest: ContentDigest,
}

impl PreparedApp {
    /// Prepares `app`, cloning it into shared ownership.
    #[must_use]
    pub fn new(app: &Application) -> Self {
        PreparedApp::from_arc(Arc::new(app.clone()))
    }

    /// Prepares an already-shared application without cloning it.
    #[must_use]
    pub fn from_arc(app: Arc<Application>) -> Self {
        let digest = application_digest(&app);
        let model = AppModel::build_shared(Arc::clone(&app));
        let compiled = CompiledUtilities::build(&app);
        PreparedApp {
            app,
            model,
            compiled,
            digest,
        }
    }

    /// The prepared application.
    #[must_use]
    pub fn app(&self) -> &Application {
        &self.app
    }

    /// A shared handle to the prepared application.
    #[must_use]
    pub fn app_arc(&self) -> Arc<Application> {
        Arc::clone(&self.app)
    }

    /// Content digest of the prepared application (see
    /// [`crate::application_digest`]).
    #[must_use]
    pub fn digest(&self) -> ContentDigest {
        self.digest
    }
}

/// A reusable synthesis handle owning the scratch buffers.
///
/// Obtained from [`Engine::session`]; call [`Session::synthesize`] any
/// number of times. The scratch allocations of the first run are reused by
/// every following run (they are re-primed, never re-allocated, as long as
/// application sizes do not grow).
#[derive(Debug)]
pub struct Session {
    engine: Engine,
    scratch: SynthesisScratch,
    completed: u64,
}

impl Session {
    /// Runs one synthesis request against `app`.
    ///
    /// # Errors
    ///
    /// * [`Error::InvalidRequest`] — zero FTQS budget, or `app` exceeds the
    ///   request's process limit.
    /// * [`Error::Scheduling`] — hard deadlines infeasible.
    /// * [`Error::Validation`] — only with validation enabled; indicates a
    ///   synthesis bug rather than a bad workload.
    pub fn synthesize(
        &mut self,
        app: &Application,
        request: &SynthesisRequest,
    ) -> Result<SynthesisReport, Error> {
        self.run(app, None, request)
    }

    /// Runs one synthesis request against a [`PreparedApp`], reusing its
    /// pre-built model tables and compiled utilities instead of deriving
    /// them per call. Output is bit-identical to
    /// [`Session::synthesize`] on the same application — the prepared
    /// path only removes redundant work, never changes a result.
    ///
    /// # Errors
    ///
    /// Same contract as [`Session::synthesize`].
    pub fn synthesize_prepared(
        &mut self,
        prepared: &PreparedApp,
        request: &SynthesisRequest,
    ) -> Result<SynthesisReport, Error> {
        self.run(prepared.app(), Some(prepared), request)
    }

    fn run(
        &mut self,
        app: &Application,
        prepared: Option<&PreparedApp>,
        request: &SynthesisRequest,
    ) -> Result<SynthesisReport, Error> {
        if let Some(max) = request.max_processes {
            if app.len() > max {
                return Err(Error::invalid_request(format!(
                    "application has {} processes, request allows at most {max}",
                    app.len()
                )));
            }
        }
        if let SynthesisPolicy::Ftqs { budget } = request.policy {
            if budget == 0 {
                return Err(Error::invalid_request(
                    "FTQS needs a schedule budget of at least one schedule",
                ));
            }
            // A zero sample count would make the sweep-step division
            // `range / samples` panic inside interval partitioning; reject
            // it up front where the knob is set.
            if request
                .interval_samples
                .unwrap_or(self.engine.interval_samples)
                == 0
            {
                return Err(Error::invalid_request(
                    "FTQS interval partitioning needs at least one completion-time sample per arc",
                ));
            }
        }
        let started = Instant::now();
        let scratch = &mut self.scratch;
        let engine = &self.engine;
        let (tree, expansion) =
            crate::par::with_max_workers(request.max_parallelism, || match request.policy {
                SynthesisPolicy::Ftss => {
                    let ctx = ScheduleContext::root(app);
                    let schedule = match prepared {
                        Some(p) => ftss_from_context(&p.model, &ctx, &engine.ftss, scratch)?,
                        None => ftss_with(app, &ctx, &engine.ftss, scratch)?,
                    };
                    Ok::<_, Error>((QuasiStaticTree::single(schedule), ExpansionStats::default()))
                }
                SynthesisPolicy::Ftqs { budget } => {
                    let config = engine.ftqs_config(budget, request);
                    match prepared {
                        Some(p) => Ok(ftqs_prepared(&p.model, &p.compiled, &config, scratch)?),
                        None => Ok(ftqs_with(app, &config, scratch)?),
                    }
                }
                SynthesisPolicy::Ftsf => {
                    // FTSF schedules a fault-free clone of the
                    // application, so the fault-aware prepared tables do
                    // not apply to it.
                    let schedule = ftsf_with(app, &engine.ftss, scratch)?;
                    Ok((QuasiStaticTree::single(schedule), ExpansionStats::default()))
                }
            })?;
        if request.validate.unwrap_or(engine.validate) {
            validate_tree(app, &tree)?;
        }
        let synthesis_micros = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
        self.completed += 1;
        Ok(SynthesisReport::assemble(
            app,
            request.policy,
            tree,
            expansion,
            synthesis_micros,
        ))
    }

    /// Number of successfully completed synthesize calls on this session.
    #[must_use]
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// The engine configuration this session synthesizes with.
    #[must_use]
    pub fn engine(&self) -> &Engine {
        &self.engine
    }
}

/// Structured result of one [`Session::synthesize`] call.
///
/// Serializes with a stable field order (declaration order) — the CLI's
/// `--format json` output and the golden tests rely on that. Everything a
/// downstream consumer needs is machine-readable here; the schedule/tree
/// artifact itself is the `tree` field (single-node for FTSS/FTSF).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SynthesisReport {
    /// The policy that produced this report.
    pub policy: SynthesisPolicy,
    /// Tree shape and footprint statistics.
    pub stats: TreeStats,
    /// Expected-utility accounting of the root schedule.
    pub utility: UtilityReport,
    /// Processes dropped at synthesis time.
    pub dropped: DropReport,
    /// Wall-clock synthesis cost. Excluded from golden comparisons (the
    /// only non-deterministic field; normalize before diffing).
    pub timing: TimingReport,
    /// The synthesized artifact: the quasi-static tree, with FTSS/FTSF
    /// results wrapped as single-node trees.
    pub tree: QuasiStaticTree,
}

/// Shape and footprint of a synthesized tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TreeStats {
    /// Number of schedules kept (the paper's "nodes" column of Table 1).
    pub schedules: usize,
    /// Maximum node depth (root = 0).
    pub depth: usize,
    /// Total switch arcs.
    pub arcs: usize,
    /// Estimated embedded-runtime footprint in bytes.
    pub memory_bytes: usize,
    /// Cumulative schedule-arena allocations during synthesis (capped by
    /// the FTQS budget; proves the tree was assembled without cloning).
    pub schedule_allocations: usize,
    /// Checkpoint/restore accounting of the FTQS expansion (all zero for
    /// FTSS/FTSF policies).
    pub expansion: ExpansionStats,
}

/// Expected-utility accounting of the root schedule.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UtilityReport {
    /// Expected overall utility at average execution times, fault-free
    /// (the paper's synthesis objective).
    pub expected_average_case: f64,
}

/// Synthesis-time dropped-process accounting.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DropReport {
    /// Number of soft processes dropped statically by the root schedule.
    pub count: usize,
    /// Their names, in drop order.
    pub processes: Vec<String>,
}

/// Wall-clock synthesis cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TimingReport {
    /// Microseconds spent synthesizing (and validating, when enabled).
    pub synthesis_micros: u64,
}

impl SynthesisReport {
    fn assemble(
        app: &Application,
        policy: SynthesisPolicy,
        tree: QuasiStaticTree,
        expansion: ExpansionStats,
        synthesis_micros: u64,
    ) -> Self {
        let root = tree.root_schedule();
        let dropped: Vec<String> = root
            .statically_dropped()
            .iter()
            .map(|&d| app.process(d).name().to_string())
            .collect();
        SynthesisReport {
            policy,
            stats: TreeStats {
                schedules: tree.len(),
                depth: tree.depth(),
                arcs: tree.arc_count(),
                memory_bytes: tree.memory_footprint_bytes(),
                schedule_allocations: tree.arena().allocations(),
                expansion,
            },
            utility: UtilityReport {
                expected_average_case: crate::ftsf::expected_utility(app, root),
            },
            dropped: DropReport {
                count: dropped.len(),
                processes: dropped,
            },
            timing: TimingReport { synthesis_micros },
            tree,
        }
    }

    /// The root schedule of the synthesized tree (the *only* schedule for
    /// FTSS/FTSF policies).
    #[must_use]
    pub fn root_schedule(&self) -> &FSchedule {
        self.tree.root_schedule()
    }

    /// Consumes the report, keeping just the tree artifact.
    #[must_use]
    pub fn into_tree(self) -> QuasiStaticTree {
        self.tree
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ExecutionTimes, FaultModel, Time, UtilityFunction};

    fn t(ms: u64) -> Time {
        Time::from_ms(ms)
    }

    /// The paper's Fig. 1 application.
    fn fig1_app() -> Application {
        let mut b = Application::builder(t(300), FaultModel::new(1, t(10)));
        let p1 = b.add_hard("P1", ExecutionTimes::uniform(t(30), t(70)).unwrap(), t(180));
        let p2 = b.add_soft(
            "P2",
            ExecutionTimes::uniform(t(30), t(70)).unwrap(),
            UtilityFunction::step(40.0, [(t(90), 20.0), (t(200), 10.0), (t(250), 0.0)]).unwrap(),
        );
        let p3 = b.add_soft(
            "P3",
            ExecutionTimes::uniform(t(40), t(80)).unwrap(),
            UtilityFunction::step(40.0, [(t(110), 30.0), (t(150), 10.0), (t(220), 0.0)]).unwrap(),
        );
        b.add_dependency(p1, p2).unwrap();
        b.add_dependency(p1, p3).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn session_runs_all_policies_and_counts_calls() {
        let app = fig1_app();
        let engine = Engine::new();
        let mut session = engine.session();
        let ftss = session.synthesize(&app, &SynthesisRequest::ftss()).unwrap();
        assert_eq!(ftss.stats.schedules, 1);
        assert_eq!(ftss.policy, SynthesisPolicy::Ftss);
        let ftqs = session
            .synthesize(&app, &SynthesisRequest::ftqs(4))
            .unwrap();
        assert!(ftqs.stats.schedules >= 2);
        assert!(ftqs.stats.arcs >= 1);
        let ftsf = session.synthesize(&app, &SynthesisRequest::ftsf()).unwrap();
        assert_eq!(ftsf.stats.schedules, 1);
        assert_eq!(session.completed(), 3);
    }

    #[test]
    fn engine_matches_reference_implementations_bit_for_bit() {
        let app = fig1_app();
        let mut session = Engine::new().session();
        let report = session
            .synthesize(&app, &SynthesisRequest::ftqs(6))
            .unwrap();
        let oracle = crate::oracle::ftqs_reference(&app, &FtqsConfig::with_budget(6)).unwrap();
        assert_eq!(report.tree.len(), oracle.len());
        for ((i, a), (_, b)) in report.tree.iter().zip(oracle.iter()) {
            assert_eq!(
                report.tree.schedule(a.schedule),
                oracle.schedule(b.schedule)
            );
            assert_eq!(a.arcs, b.arcs, "node {i}");
        }

        let ftss_report = session.synthesize(&app, &SynthesisRequest::ftss()).unwrap();
        let oracle_ftss = crate::oracle::ftss_reference(
            &app,
            &ScheduleContext::root(&app),
            &FtssConfig::default(),
        )
        .unwrap();
        assert_eq!(ftss_report.root_schedule(), &oracle_ftss);

        let ftsf_report = session.synthesize(&app, &SynthesisRequest::ftsf()).unwrap();
        let direct_ftsf = crate::ftsf::ftsf_with(
            &app,
            &FtssConfig::default(),
            &mut crate::ftss::SynthesisScratch::new(),
        )
        .unwrap();
        assert_eq!(ftsf_report.root_schedule(), &direct_ftsf);
    }

    #[test]
    fn zero_budget_is_an_invalid_request() {
        let app = fig1_app();
        let mut session = Engine::new().session();
        let err = session
            .synthesize(&app, &SynthesisRequest::ftqs(0))
            .unwrap_err();
        assert!(matches!(err, Error::InvalidRequest { .. }));
        // The diagnosis names the problem instead of echoing internals.
        assert!(err.to_string().contains("budget"));
    }

    #[test]
    fn zero_interval_samples_is_an_invalid_request() {
        // Regression: a zero sample count used to reach the sweep-step
        // division `range / samples` and panic inside interval
        // partitioning. Both the request override and the engine default
        // must be rejected up front.
        let app = fig1_app();
        let mut session = Engine::new().session();
        let err = session
            .synthesize(&app, &SynthesisRequest::ftqs(4).with_interval_samples(0))
            .unwrap_err();
        assert!(matches!(err, Error::InvalidRequest { .. }));
        assert!(err.to_string().contains("sample"));

        let mut bad_default = Engine::new().with_interval_samples(0).session();
        let err = bad_default
            .synthesize(&app, &SynthesisRequest::ftqs(4))
            .unwrap_err();
        assert!(matches!(err, Error::InvalidRequest { .. }));
        // A request override can still rescue a bad engine default, and
        // FTSS/FTSF never sweep, so the knob does not apply to them.
        assert!(bad_default
            .synthesize(&app, &SynthesisRequest::ftqs(4).with_interval_samples(1))
            .is_ok());
        assert!(bad_default
            .synthesize(&app, &SynthesisRequest::ftss())
            .is_ok());
    }

    #[test]
    fn degenerate_all_dropped_tree_is_a_scheduling_error() {
        // Every process is soft and worthless: FTSS statically drops them
        // all, the root schedule is empty, and the expansion loop has no
        // pivot. The engine must return a typed error, not an entry-less
        // single-node "tree".
        let mut b = Application::builder(t(1000), FaultModel::none());
        for i in 0..2 {
            b.add_soft(
                format!("dead{i}"),
                ExecutionTimes::uniform(t(100), t(200)).unwrap(),
                UtilityFunction::step(10.0, [(t(50), 0.0)]).unwrap(),
            );
        }
        let app = b.build().unwrap();
        let mut session = Engine::new().session();
        let err = session
            .synthesize(&app, &SynthesisRequest::ftqs(4))
            .unwrap_err();
        assert!(matches!(
            err,
            Error::Scheduling(crate::SchedulingError::EmptyRootSchedule)
        ));
    }

    #[test]
    fn process_limit_is_enforced() {
        let app = fig1_app();
        let mut session = Engine::new().session();
        let err = session
            .synthesize(&app, &SynthesisRequest::ftss().with_max_processes(2))
            .unwrap_err();
        assert!(matches!(err, Error::InvalidRequest { .. }));
        assert!(err.to_string().contains("3 processes"));
    }

    #[test]
    fn serial_cap_produces_identical_trees() {
        let app = fig1_app();
        let mut session = Engine::new().session();
        let parallel = session
            .synthesize(&app, &SynthesisRequest::ftqs(6))
            .unwrap();
        let serial = session
            .synthesize(&app, &SynthesisRequest::ftqs(6).with_max_parallelism(1))
            .unwrap();
        assert_eq!(parallel.tree.len(), serial.tree.len());
        for ((_, a), (_, b)) in parallel.tree.iter().zip(serial.tree.iter()) {
            assert_eq!(
                parallel.tree.schedule(a.schedule),
                serial.tree.schedule(b.schedule)
            );
            assert_eq!(a.arcs, b.arcs);
        }
    }

    #[test]
    fn validation_can_be_requested() {
        let app = fig1_app();
        let engine = Engine::new().with_validation(true);
        let mut session = engine.session();
        assert!(session.synthesize(&app, &SynthesisRequest::ftqs(4)).is_ok());
        // And switched off per request.
        assert!(session
            .synthesize(&app, &SynthesisRequest::ftqs(4).with_validation(false))
            .is_ok());
    }

    #[test]
    fn prepared_synthesis_is_bit_identical_to_cold() {
        // The prepared path must only remove redundant work — for every
        // policy the tree digest and the utility bits must match the cold
        // path exactly.
        let app = fig1_app();
        let prepared = PreparedApp::new(&app);
        let mut session = Engine::new().session();
        for request in [
            SynthesisRequest::ftss(),
            SynthesisRequest::ftqs(6),
            SynthesisRequest::ftsf(),
        ] {
            let cold = session.synthesize(&app, &request).unwrap();
            let warm = session.synthesize_prepared(&prepared, &request).unwrap();
            assert_eq!(
                crate::tree_digest(&cold.tree),
                crate::tree_digest(&warm.tree),
                "{:?}",
                request.policy()
            );
            assert_eq!(
                cold.utility.expected_average_case.to_bits(),
                warm.utility.expected_average_case.to_bits(),
                "{:?}",
                request.policy()
            );
            assert_eq!(cold.dropped, warm.dropped);
        }
    }

    #[test]
    fn prepared_app_reports_a_stable_application_digest() {
        let app = fig1_app();
        let prepared = PreparedApp::new(&app);
        assert_eq!(prepared.digest(), crate::application_digest(&app));
        assert_eq!(
            prepared.digest(),
            PreparedApp::from_arc(prepared.app_arc()).digest()
        );
    }

    #[test]
    fn knob_digests_separate_what_matters_and_ignore_what_does_not() {
        // Policy, budget and overrides steer synthesis: distinct digests.
        let base = SynthesisRequest::ftqs(6);
        assert_ne!(base.knob_digest(), SynthesisRequest::ftss().knob_digest());
        assert_ne!(base.knob_digest(), SynthesisRequest::ftqs(7).knob_digest());
        assert_ne!(
            base.knob_digest(),
            SynthesisRequest::ftqs(6)
                .with_expansion_policy(ExpansionPolicy::Fifo)
                .knob_digest()
        );
        assert_ne!(
            base.knob_digest(),
            SynthesisRequest::ftqs(6)
                .with_estimator(UtilityEstimator::AverageCase)
                .knob_digest()
        );
        // Acceptance/latency limits cannot change artifact bits: same key.
        assert_eq!(
            base.knob_digest(),
            SynthesisRequest::ftqs(6)
                .with_max_processes(100)
                .with_max_parallelism(1)
                .knob_digest()
        );
        // Engine knobs likewise.
        let engine = Engine::new();
        assert_ne!(
            engine.config_digest(),
            engine.clone().with_interval_samples(7).config_digest()
        );
        assert_ne!(
            engine.config_digest(),
            engine
                .clone()
                .with_expansion_policy(ExpansionPolicy::Fifo)
                .config_digest()
        );
        assert_eq!(engine.config_digest(), Engine::new().config_digest());
    }

    #[test]
    fn report_serializes_with_stable_field_order() {
        let app = fig1_app();
        let mut session = Engine::new().session();
        let report = session
            .synthesize(&app, &SynthesisRequest::ftqs(4))
            .unwrap();
        let json = serde_json::to_string(&report).unwrap();
        let policy_at = json.find("\"policy\"").unwrap();
        let stats_at = json.find("\"stats\"").unwrap();
        let utility_at = json.find("\"utility\"").unwrap();
        let dropped_at = json.find("\"dropped\"").unwrap();
        let timing_at = json.find("\"timing\"").unwrap();
        let tree_at = json.find("\"tree\"").unwrap();
        assert!(policy_at < stats_at);
        assert!(stats_at < utility_at);
        assert!(utility_at < dropped_at);
        assert!(dropped_at < timing_at);
        assert!(timing_at < tree_at);
        // And round-trips.
        let back: SynthesisReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.stats, report.stats);
        assert_eq!(back.dropped, report.dropped);
    }
}
