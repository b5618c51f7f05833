//! # ftqs-service — the long-lived synthesis fleet service
//!
//! Everything below `crates/cli` synthesizes one application per process
//! invocation. A synthesis *fleet* — sweeping thousands of generated
//! applications, or serving synthesis requests for a family of related
//! configurations — sees the same request again and again. In the paper
//! synthesis happens off-line, and it is a deterministic function of the
//! application, the engine configuration and the request knobs, so a
//! repeated request has nothing left to compute: its answer is the one
//! already given. This crate is the long-lived server shape for that
//! workload, std-only (no async runtime — synthesis is CPU-bound, so
//! threads *are* the right concurrency primitive offline), built to the
//! same fault-tolerance contract the paper demands of the scheduled
//! platform: faults beyond the design assumptions degrade service, they
//! never collapse it.
//!
//! ```text
//!  submit / NDJSON lines
//!        │  (rejected submissions are counted, never silently dropped)
//!        ▼
//!  bounded two-lane work queue ────► worker threads (one Session each,
//!   (interactive overtakes bulk,  │   per-job catch_unwind isolation)
//!    expired deadlines answered   │        │           ▲
//!    without synthesis,           │        │           │ respawn on
//!    poison-immune locks)         │        │           │ thread death
//!                                 │        │      supervisor thread
//!                                 │        ▼
//!                                 │  outcome cache ─── ContentDigest key:
//!                                 │  (LRU, single-     app ⊕ engine ⊕ knobs
//!                                 │   flight; a miss   ⊕ process limit
//!                                 │   synthesizes)
//!                                 │        │
//!                                 ▼        ▼
//!                     bounded response ring (completion order;
//!                      a slow consumer throttles the workers)
//! ```
//!
//! * The **work queue** is bounded and priority-aware:
//!   [`Service::try_submit`] surfaces overload as an explicit
//!   [`SubmitError::Backpressure`] error (counted in
//!   [`ServiceStats::rejected`]) the caller can retry, shed, or block on
//!   ([`Service::submit`]); [`Priority::Interactive`] requests overtake
//!   [`Priority::Bulk`] sweeps; a request whose
//!   [deadline](ServiceRequest::with_deadline) expired while queued is
//!   answered immediately with [`ServiceError::DeadlineExceeded`] —
//!   no worker time is spent synthesizing an answer nobody can use.
//! * **Workers** are plain threads, one per core by default, each owning
//!   a [`ftqs_core::Session`] whose scratch allocations amortize across
//!   every request the worker serves. Each job executes under
//!   `catch_unwind`: a panicking job is answered with
//!   [`ServiceError::WorkerPanic`] (payload message attached) and the
//!   worker keeps serving on a fresh session. If a thread nevertheless
//!   dies (a panic outside the per-job isolation), its supervisor
//!   guard still answers the in-flight request and the supervisor thread
//!   respawns the worker — [`ServiceStats::panics`] and
//!   [`ServiceStats::respawns`] count both events, and the queue's locks
//!   recover from poisoning so one bad job can never wedge the fleet.
//! * The **outcome cache** ([`cache`]) stores what each request
//!   produced — the [`SynthesisReport`] or the error — keyed by a
//!   canonical [`ContentDigest`] of the job source combined with
//!   [`Engine::config_digest`], [`SynthesisRequest::knob_digest`] and the
//!   request's process limit. A hit clones the stored outcome into the
//!   response and runs no generation, parsing or synthesis, so a hit
//!   response is bit-identical to a cold one (the cache-correctness
//!   tests pin this through [`ftqs_core::tree_digest`]); unschedulable
//!   applications answer their stored error. The cache is single-flight:
//!   concurrent requests for one key wait for the one synthesis. Worker
//!   panics and expired deadlines never reach it. A hit's
//!   `report.timing` is the timing of the synthesis that produced it;
//!   the response's `service_micros` is the request's own cost.
//! * **Responses** stream in completion order through a *bounded* ring,
//!   tagged with the request id and per-request queueing/service
//!   timings: when the consumer falls behind, workers block on the full
//!   ring instead of growing an unbounded buffer, so end-to-end memory
//!   is `queue_capacity + workers + response_capacity` responses at
//!   most. Shutdown lifts the ring's bound (the backlog is provably
//!   bounded by then) so draining workers never deadlock against the
//!   joining thread, and undelivered responses stay receivable after
//!   [`Service::shutdown`].
//! * The **chaos harness** ([`chaos`]) injects worker panics, thread
//!   kills, and slowdowns deterministically from a seed — the test and
//!   bench instrument that pins the whole contract above (exactly one
//!   response per request, bounded buffers, fleet survives sustained
//!   faults).
//!
//! The NDJSON transport ([`transport`]) wires the same service to files
//! and pipes for `ftqs serve` / `ftqs submit`; malformed request lines
//! produce per-request error responses instead of aborting the batch.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cache;
pub mod chaos;
mod queue;
mod supervisor;
pub mod transport;

pub use cache::{ArtifactCache, CacheStats};
pub use chaos::{ChaosDecision, ChaosPolicy};

use ftqs_core::digest::Hasher;
use ftqs_core::{
    Application, ContentDigest, Engine, PreparedApp, Session, SynthesisReport, SynthesisRequest,
};
use queue::{Lane, PushError, Queue};
use std::fmt;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use supervisor::{InFlight, WorkerGuard};

/// Where a job's application comes from. The source is hashed *without*
/// building the application, so a cache hit skips generation/parsing
/// entirely.
#[derive(Debug, Clone)]
pub enum JobSource {
    /// An already-built application (in-process callers). Keyed by
    /// [`ftqs_core::application_digest`] — structurally identical
    /// applications share a cache entry regardless of provenance.
    App(Arc<Application>),
    /// Spec text (see [`ftqs_workloads::spec`]). Keyed by the text
    /// itself: conservative (formatting changes re-key) but free.
    Spec(String),
    /// A deterministic workload-family triple (see
    /// [`ftqs_workloads::family`]). Keyed by the triple.
    Preset {
        /// Canonical family name (see [`ftqs_workloads::Family::name`]).
        family: String,
        /// Requested process count.
        size: usize,
        /// Generator seed.
        seed: u64,
    },
}

impl JobSource {
    /// Canonical content digest of the source (no application build).
    #[must_use]
    pub fn digest(&self) -> ContentDigest {
        let mut h = Hasher::new();
        match self {
            JobSource::App(app) => {
                h.write_u8(0);
                return h.finish().combine(ftqs_core::application_digest(app));
            }
            JobSource::Spec(text) => {
                h.write_u8(1);
                h.write_str(text);
            }
            JobSource::Preset { family, size, seed } => {
                h.write_u8(2);
                h.write_str(family);
                h.write_usize(*size);
                h.write_u64(*seed);
            }
        }
        h.finish()
    }

    /// Builds (or passes through) the application.
    ///
    /// # Errors
    ///
    /// [`ServiceError::InvalidSource`] on unparseable specs, unknown
    /// family names, or a zero preset size.
    pub fn resolve(&self) -> Result<Arc<Application>, ServiceError> {
        match self {
            JobSource::App(app) => Ok(Arc::clone(app)),
            JobSource::Spec(text) => ftqs_workloads::spec::parse(text)
                .map(Arc::new)
                .map_err(|e| ServiceError::InvalidSource(e.to_string())),
            JobSource::Preset { family, size, seed } => {
                let f = ftqs_workloads::Family::parse(family).ok_or_else(|| {
                    ServiceError::InvalidSource(format!("unknown workload family '{family}'"))
                })?;
                if *size == 0 {
                    return Err(ServiceError::InvalidSource(
                        "preset size must be positive".to_string(),
                    ));
                }
                Ok(Arc::new(ftqs_workloads::family::build(f, *size, *seed)))
            }
        }
    }
}

/// Scheduling class of a request: interactive requests overtake bulk
/// sweeps at every queue pop (FIFO within a class, per the ROADMAP's
/// fleet-service contract).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Priority {
    /// Served ahead of any queued bulk request.
    Interactive,
    /// The default: batch sweeps, served in arrival order behind
    /// interactive traffic.
    #[default]
    Bulk,
}

impl Priority {
    fn lane(self) -> Lane {
        match self {
            Priority::Interactive => Lane::Express,
            Priority::Bulk => Lane::Normal,
        }
    }
}

/// One unit of work: an id (echoed on the response), a job source, and
/// the synthesis request to run against it, plus optional service-level
/// scheduling knobs (priority, deadline).
#[derive(Debug, Clone)]
pub struct ServiceRequest {
    /// Caller-chosen id, echoed verbatim on the response.
    pub id: u64,
    /// Where the application comes from.
    pub source: JobSource,
    /// What to synthesize.
    pub request: SynthesisRequest,
    /// Scheduling class ([`Priority::Bulk`] by default).
    pub priority: Priority,
    /// Time budget measured from submission. A request still queued when
    /// it expires is answered with [`ServiceError::DeadlineExceeded`]
    /// without burning a worker; one that *completes* late still returns
    /// its report but is counted in [`ServiceStats::deadline_misses`]
    /// and flagged on the response.
    pub deadline: Option<Duration>,
}

impl ServiceRequest {
    /// Bundles the three parts of a request (bulk priority, no deadline).
    #[must_use]
    pub fn new(id: u64, source: JobSource, request: SynthesisRequest) -> Self {
        ServiceRequest {
            id,
            source,
            request,
            priority: Priority::default(),
            deadline: None,
        }
    }

    /// Sets the scheduling class.
    #[must_use]
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Sets the deadline, measured from the moment of submission.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

/// Why a request failed (carried per-response; other requests in the
/// batch are unaffected).
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// The job source could not produce an application.
    InvalidSource(String),
    /// Synthesis itself failed (unschedulable, invalid request knobs…).
    Synthesis(ftqs_core::Error),
    /// The job panicked. The worker survived (or was respawned); the
    /// payload message is attached when it was a string.
    WorkerPanic(String),
    /// The request's deadline expired while it waited in the queue; no
    /// synthesis was attempted.
    DeadlineExceeded {
        /// How long the request had waited when the expiry was observed,
        /// in microseconds.
        queued_micros: u64,
    },
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::InvalidSource(msg) => write!(f, "invalid job source: {msg}"),
            ServiceError::Synthesis(e) => e.fmt(f),
            ServiceError::WorkerPanic(msg) => {
                write!(f, "worker panicked while serving the request: {msg}")
            }
            ServiceError::DeadlineExceeded { queued_micros } => {
                write!(f, "deadline exceeded after {queued_micros} µs in the queue")
            }
        }
    }
}

impl std::error::Error for ServiceError {}

/// One completed (or failed) request, delivered in completion order.
#[derive(Debug, Clone)]
pub struct ServiceResponse {
    /// The request's id.
    pub id: u64,
    /// The report, or why there is none.
    pub outcome: Result<SynthesisReport, ServiceError>,
    /// Whether the outcome came from the cache; this request ran no
    /// synthesis. A cached report's `timing` is that of the synthesis
    /// that produced it.
    pub cache_hit: bool,
    /// Time spent waiting in the queue, in microseconds.
    pub queued_micros: u64,
    /// This request's own service time in microseconds: the cache
    /// lookup, plus resolving and synthesizing on a miss.
    pub service_micros: u64,
    /// Whether the request's deadline (if any) had passed by the time
    /// this response was produced. `true` both for
    /// [`ServiceError::DeadlineExceeded`] answers and for reports that
    /// completed late.
    pub deadline_missed: bool,
}

/// Why a submission was refused. Overload is an error value, never a
/// panic and never silent loss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded queue is full — retry later, shed the request, or use
    /// the blocking [`Service::submit`]. Counted in
    /// [`ServiceStats::rejected`].
    Backpressure {
        /// The queue's capacity bound.
        capacity: usize,
    },
    /// The service is shutting down.
    Stopped,
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::Backpressure { capacity } => {
                write!(f, "work queue full ({capacity} requests queued)")
            }
            SubmitError::Stopped => write!(f, "service is shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Service construction knobs.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads; `0` means one per available core.
    pub workers: usize,
    /// Bound of the work queue (requests awaiting a worker).
    pub queue_capacity: usize,
    /// Bound of the outcome cache (stored synthesis outcomes).
    pub cache_capacity: usize,
    /// Bound of the response ring (completed responses awaiting the
    /// consumer). Workers block on a full ring, so a slow consumer
    /// throttles the fleet instead of growing memory.
    pub response_capacity: usize,
    /// Per-request synthesis parallelism cap applied by the workers.
    /// The default `1` keeps each request on its worker's core — the
    /// fleet saturates cores by running many requests, not by splitting
    /// one. `0` leaves each request's own setting untouched.
    pub intra_parallelism: usize,
    /// The engine configuration every worker session synthesizes with.
    pub engine: Engine,
    /// Deterministic fault injection (test/bench harness only; see
    /// [`chaos`]). `None` — the default — injects nothing and costs
    /// nothing on the worker hot path.
    pub chaos: Option<ChaosPolicy>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 0,
            queue_capacity: 1024,
            cache_capacity: 256,
            response_capacity: 1024,
            intra_parallelism: 1,
            engine: Engine::new(),
            chaos: None,
        }
    }
}

/// Aggregate service counters and gauges, as one snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ServiceStats {
    /// Requests accepted into the queue.
    pub submitted: u64,
    /// Submissions refused with [`SubmitError::Backpressure`] by
    /// [`Service::try_submit`].
    pub rejected: u64,
    /// Responses produced (success or failure).
    pub completed: u64,
    /// Responses carrying an error outcome.
    pub failed: u64,
    /// Jobs that panicked while executing — whether caught by the
    /// per-job isolation or fatal to the worker thread. Each one was
    /// answered with [`ServiceError::WorkerPanic`].
    pub panics: u64,
    /// Worker threads respawned by the supervisor after dying.
    pub respawns: u64,
    /// Requests whose deadline had passed by response time: expired in
    /// the queue (answered without synthesis) or completed late.
    pub deadline_misses: u64,
    /// Queue depth at snapshot time (gauge).
    pub queue_depth: usize,
    /// Highest queue depth observed at any submission.
    pub queue_peak_depth: usize,
    /// The queue's capacity bound.
    pub queue_capacity: usize,
    /// Response-ring depth at snapshot time (gauge).
    pub response_depth: usize,
    /// Highest response-ring depth observed at any delivery.
    pub response_peak_depth: usize,
    /// The response ring's capacity bound.
    pub response_capacity: usize,
    /// Worker thread count.
    pub workers: usize,
    /// Sum of per-request queue-wait times, in microseconds.
    pub total_queued_micros: u64,
    /// Sum of the service times of responses served from the cache, in
    /// microseconds.
    pub hit_service_micros: u64,
    /// Sum of the service times of every other response (misses, worker
    /// panics, expired deadlines), in microseconds.
    pub miss_service_micros: u64,
    /// Outcome-cache counters.
    pub cache: CacheStats,
}

#[derive(Debug, Default)]
pub(crate) struct Counters {
    submitted: AtomicU64,
    rejected: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    pub(crate) panics: AtomicU64,
    pub(crate) respawns: AtomicU64,
    pub(crate) deadline_misses: AtomicU64,
    peak_depth: AtomicUsize,
    response_peak_depth: AtomicUsize,
    queued_micros: AtomicU64,
    hit_service_micros: AtomicU64,
    miss_service_micros: AtomicU64,
}

impl Counters {
    fn note_depth(&self, depth: usize) {
        self.peak_depth.fetch_max(depth, Ordering::Relaxed);
    }
}

#[derive(Debug)]
pub(crate) struct Job {
    req: ServiceRequest,
    enqueued: Instant,
    /// Absolute expiry, computed once at submission.
    deadline: Option<Instant>,
}

/// Everything a worker (and its supervisor) needs, shared once.
#[derive(Debug)]
pub(crate) struct WorkerContext {
    pub(crate) queue: Queue<Job>,
    pub(crate) responses: Queue<ServiceResponse>,
    pub(crate) cache: ArtifactCache<Outcome>,
    pub(crate) counters: Counters,
    engine: Engine,
    intra_parallelism: usize,
    chaos: Option<ChaosPolicy>,
}

/// The running fleet service: a bounded two-lane queue, a supervised
/// worker pool, the shared outcome cache, and a bounded response ring.
/// See the crate docs for the architecture.
///
/// Dropping the service closes the queue, drains in-flight work, and
/// joins the workers ([`Service::shutdown`] does the same and returns
/// the final stats; responses still buffered stay receivable after
/// either).
#[derive(Debug)]
pub struct Service {
    ctx: Arc<WorkerContext>,
    supervisor: Option<JoinHandle<()>>,
    workers: usize,
}

impl Service {
    /// Starts the supervisor and its worker pool.
    #[must_use]
    pub fn start(config: ServiceConfig) -> Self {
        let workers = if config.workers == 0 {
            std::thread::available_parallelism().map_or(1, usize::from)
        } else {
            config.workers
        };
        let ctx = Arc::new(WorkerContext {
            queue: Queue::new(config.queue_capacity),
            responses: Queue::new(config.response_capacity),
            cache: ArtifactCache::new(config.cache_capacity),
            counters: Counters::default(),
            engine: config.engine,
            intra_parallelism: config.intra_parallelism,
            chaos: config.chaos,
        });
        let supervisor = supervisor::start(Arc::clone(&ctx), workers);
        Service {
            ctx,
            supervisor: Some(supervisor),
            workers,
        }
    }

    fn make_job(req: ServiceRequest) -> Job {
        let enqueued = Instant::now();
        let deadline = req.deadline.and_then(|d| enqueued.checked_add(d));
        Job {
            req,
            enqueued,
            deadline,
        }
    }

    /// Non-blocking submission; overload surfaces as
    /// [`SubmitError::Backpressure`] and bumps [`ServiceStats::rejected`].
    ///
    /// # Errors
    ///
    /// [`SubmitError`] when the queue is full or the service stopped.
    pub fn try_submit(&self, req: ServiceRequest) -> Result<(), SubmitError> {
        let lane = req.priority.lane();
        match self.ctx.queue.try_push(Self::make_job(req), lane) {
            Ok(depth) => {
                self.note_submitted(depth);
                Ok(())
            }
            Err(PushError::Full(_)) => {
                self.ctx.counters.rejected.fetch_add(1, Ordering::Relaxed);
                Err(SubmitError::Backpressure {
                    capacity: self.ctx.queue.capacity(),
                })
            }
            Err(PushError::Closed(_)) => Err(SubmitError::Stopped),
        }
    }

    /// Blocking submission: waits for queue space instead of failing.
    ///
    /// Beware of single-threaded submit-then-drain loops: with both the
    /// work queue and the response ring bounded, a producer that never
    /// consumes responses while blocked here can deadlock the pipeline.
    /// Use [`Service::try_submit`] plus response draining on backpressure
    /// (what [`Service::run_batch`] and the transport do) when producer
    /// and consumer are the same thread.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Stopped`] when the service shut down while waiting.
    pub fn submit(&self, req: ServiceRequest) -> Result<(), SubmitError> {
        let lane = req.priority.lane();
        match self.ctx.queue.push(Self::make_job(req), lane) {
            Ok(depth) => {
                self.note_submitted(depth);
                Ok(())
            }
            Err(_) => Err(SubmitError::Stopped),
        }
    }

    fn note_submitted(&self, depth: usize) {
        self.ctx.counters.submitted.fetch_add(1, Ordering::Relaxed);
        self.ctx.counters.note_depth(depth);
    }

    /// Next response in completion order; blocks while requests are in
    /// flight. `None` only after the service stopped and drained.
    pub fn recv(&self) -> Option<ServiceResponse> {
        self.ctx.responses.pop()
    }

    /// Like [`Service::recv`] with a timeout; `None` on timeout or
    /// shutdown. A zero timeout is a non-blocking poll.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<ServiceResponse> {
        self.ctx.responses.pop_timeout(timeout)
    }

    /// Submits a whole batch and collects exactly one response per
    /// accepted request, in completion order. Backpressure from either
    /// bounded buffer is absorbed by draining responses while submitting
    /// (single-threaded and deadlock-free by construction). Assumes no
    /// other requests are in flight on this service.
    #[must_use]
    pub fn run_batch(&self, requests: Vec<ServiceRequest>) -> Vec<ServiceResponse> {
        let mut responses = Vec::with_capacity(requests.len());
        let mut expected = 0usize;
        for req in requests {
            loop {
                match self.try_submit(req.clone()) {
                    Ok(()) => {
                        expected += 1;
                        break;
                    }
                    Err(SubmitError::Backpressure { .. }) => {
                        // Make room by consuming: a full queue means the
                        // fleet is busy producing responses.
                        if let Some(r) = self.recv_timeout(Duration::from_millis(2)) {
                            responses.push(r);
                        }
                    }
                    Err(SubmitError::Stopped) => break,
                }
            }
        }
        while responses.len() < expected {
            match self.recv() {
                Some(r) => responses.push(r),
                None => break,
            }
        }
        responses
    }

    /// A snapshot of counters, gauges, and cache statistics.
    #[must_use]
    pub fn stats(&self) -> ServiceStats {
        let c = &self.ctx.counters;
        ServiceStats {
            submitted: c.submitted.load(Ordering::Relaxed),
            rejected: c.rejected.load(Ordering::Relaxed),
            completed: c.completed.load(Ordering::Relaxed),
            failed: c.failed.load(Ordering::Relaxed),
            panics: c.panics.load(Ordering::Relaxed),
            respawns: c.respawns.load(Ordering::Relaxed),
            deadline_misses: c.deadline_misses.load(Ordering::Relaxed),
            queue_depth: self.ctx.queue.len(),
            queue_peak_depth: c.peak_depth.load(Ordering::Relaxed),
            queue_capacity: self.ctx.queue.capacity(),
            response_depth: self.ctx.responses.len(),
            response_peak_depth: c.response_peak_depth.load(Ordering::Relaxed),
            response_capacity: self.ctx.responses.capacity(),
            workers: self.workers,
            total_queued_micros: c.queued_micros.load(Ordering::Relaxed),
            hit_service_micros: c.hit_service_micros.load(Ordering::Relaxed),
            miss_service_micros: c.miss_service_micros.load(Ordering::Relaxed),
            cache: self.ctx.cache.stats(),
        }
    }

    /// Begins shutdown without joining: the intake closes, so parked
    /// [`Service::submit`] callers return [`SubmitError::Stopped`]
    /// immediately and new submissions are refused, while already-queued
    /// requests are still served. Callable from any thread (it takes
    /// `&self`), which is what makes the shutdown race testable: a
    /// consumer can close the intake out from under blocked producers.
    /// Follow with [`Service::shutdown`] (or drop) to join the workers.
    pub fn close(&self) {
        // Close the intake first, then lift the response ring's bound:
        // workers blocked on a full ring must drain out, and with the
        // intake closed the backlog is bounded by the work outstanding
        // right now (≤ queue + workers in flight). The other order lets a
        // worker released by the lift free a queue slot that a parked
        // submitter takes before the close.
        self.ctx.queue.close();
        self.ctx.responses.lift_capacity();
    }

    /// Stops accepting work, drains the queue, joins the workers (via the
    /// supervisor), and returns the final statistics. Queued requests are
    /// still served; undelivered responses remain receivable through
    /// [`Service::recv`] until the service value drops.
    #[must_use]
    pub fn shutdown(&mut self) -> ServiceStats {
        self.join_workers();
        self.stats()
    }

    fn join_workers(&mut self) {
        self.close();
        if let Some(handle) = self.supervisor.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.join_workers();
    }
}

pub(crate) fn elapsed_micros(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// Renders a `catch_unwind` payload: panic messages are almost always
/// `&str` or `String`; anything else is reported by type only.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The single response path: every response — normal, panic-answered, or
/// deadline-expired — goes through here exactly once, updating the
/// aggregate counters and pushing onto the bounded ring (blocking, so a
/// slow consumer throttles the caller).
pub(crate) fn deliver(ctx: &WorkerContext, response: ServiceResponse) {
    let c = &ctx.counters;
    c.completed.fetch_add(1, Ordering::Relaxed);
    if response.outcome.is_err() {
        c.failed.fetch_add(1, Ordering::Relaxed);
    }
    c.queued_micros
        .fetch_add(response.queued_micros, Ordering::Relaxed);
    let service_micros = if response.cache_hit {
        &c.hit_service_micros
    } else {
        &c.miss_service_micros
    };
    service_micros.fetch_add(response.service_micros, Ordering::Relaxed);
    // A Closed error means the ring was torn down with the response
    // undeliverable (the consumer is gone); nothing left to do with it.
    if let Ok(depth) = ctx.responses.push(response, Lane::Normal) {
        c.response_peak_depth.fetch_max(depth, Ordering::Relaxed);
    }
}

/// The outcome of one executed request, as the cache stores it.
type Outcome = Result<SynthesisReport, ServiceError>;

/// Answers the request from the outcome cache, resolving the application
/// and synthesizing it only on a miss. The key is the job source, the
/// engine configuration, the request knobs and the request's process
/// limit: the limit does not change a report, but it decides between a
/// report and a rejection, so it must not share an outcome.
fn execute(
    session: &mut Session,
    ctx: &WorkerContext,
    config_digest: ContentDigest,
    source: &JobSource,
    request: &SynthesisRequest,
) -> (Outcome, bool) {
    let mut limit = Hasher::new();
    match request.max_processes() {
        None => limit.write_u8(0),
        Some(max) => {
            limit.write_u8(1);
            limit.write_usize(max);
        }
    }
    let key = source
        .digest()
        .combine(config_digest)
        .combine(request.knob_digest())
        .combine(limit.finish());
    ctx.cache.get_or_init(key, || {
        let prepared = PreparedApp::from_arc(source.resolve()?);
        session
            .synthesize_prepared(&prepared, request)
            .map_err(ServiceError::Synthesis)
    })
}

pub(crate) fn worker_loop(ctx: &Arc<WorkerContext>, guard: &mut WorkerGuard) {
    let mut session = ctx.engine.session();
    let config_digest = ctx.engine.config_digest();
    while let Some(job) = ctx.queue.pop() {
        let queued_micros = elapsed_micros(job.enqueued);

        // Expired while queued: answer immediately, no synthesis. The
        // worker spends microseconds, not a service time, on it.
        if job.deadline.is_some_and(|d| Instant::now() >= d) {
            ctx.counters.deadline_misses.fetch_add(1, Ordering::Relaxed);
            deliver(
                ctx,
                ServiceResponse {
                    id: job.req.id,
                    outcome: Err(ServiceError::DeadlineExceeded { queued_micros }),
                    cache_hit: false,
                    queued_micros,
                    service_micros: 0,
                    deadline_missed: true,
                },
            );
            continue;
        }

        let chaos = ctx
            .chaos
            .as_ref()
            .map_or_else(ChaosDecision::default, |c| c.decide(job.req.id));
        let started = Instant::now();
        // From here until the response is delivered, the guard owns the
        // request: if this thread dies, the guard answers it.
        guard.inflight = Some(InFlight {
            id: job.req.id,
            queued_micros,
            started,
            deadline: job.deadline,
        });
        if chaos.kill {
            // Outside the per-job isolation on purpose: the thread dies,
            // the guard delivers WorkerPanic, the supervisor respawns.
            panic!("chaos: killing worker on request {}", job.req.id);
        }

        let request = if ctx.intra_parallelism == 0 {
            job.req.request.clone()
        } else {
            job.req
                .request
                .clone()
                .with_max_parallelism(ctx.intra_parallelism)
        };
        let executed = std::panic::catch_unwind(AssertUnwindSafe(|| {
            if let Some(stall) = chaos.slow {
                std::thread::sleep(stall);
            }
            if chaos.panic {
                panic!("chaos: injected panic on request {}", job.req.id);
            }
            execute(&mut session, ctx, config_digest, &job.req.source, &request)
        }));
        guard.inflight = None;
        let service_micros = elapsed_micros(started);
        let (outcome, cache_hit) = match executed {
            Ok(result) => result,
            Err(payload) => {
                ctx.counters.panics.fetch_add(1, Ordering::Relaxed);
                // The session's scratch may have been mid-mutation when
                // the panic unwound through it; start clean.
                session = ctx.engine.session();
                (
                    Err(ServiceError::WorkerPanic(panic_message(payload.as_ref()))),
                    false,
                )
            }
        };
        let deadline_missed = job.deadline.is_some_and(|d| Instant::now() > d);
        if deadline_missed {
            ctx.counters.deadline_misses.fetch_add(1, Ordering::Relaxed);
        }
        deliver(
            ctx,
            ServiceResponse {
                id: job.req.id,
                outcome,
                cache_hit,
                queued_micros,
                service_micros,
                deadline_missed,
            },
        );
    }
}
