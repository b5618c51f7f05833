//! Fleet-service throughput and degraded-mode behavior: what does the
//! cross-request outcome cache buy on batched synthesis, and what does
//! sustained fault injection cost? Writes `BENCH_service.json`.
//!
//! Queues batches of fig9-style preset requests (1k–100k, per
//! `--depths`) through [`ftqs_service::Service`] in two calm mixes:
//!
//! * **duplicate-heavy** — requests cycle over a small pool of distinct
//!   applications (64 by default), the fleet-sweep shape where the same
//!   model is requested under many arrival orders; nearly every request
//!   hits the outcome cache and runs no synthesis at all;
//! * **all-distinct** — every request names a fresh seed, so every
//!   request pays the full cold path and the cache can only miss.
//!
//! plus one **degraded** cell at the headline depth: the duplicate-heavy
//! mix re-run under a seeded [`ftqs_service::ChaosPolicy`] (injected job
//! panics, worker-thread kills, slowdowns) with tight deadlines on a
//! slice of the requests. The degraded cell *asserts* the service's
//! fault contract — exactly one response per request id (none lost, none
//! duplicated), every injected fault answered as a worker-panic
//! response, dead workers respawned, and both the work queue and the
//! response ring bounded throughout — and reports what degraded
//! operation costs in throughput next to the calm rows.
//!
//! Per cell the harness reports wall-clock requests/sec, p50/p99
//! end-to-end latency (queue wait + service time), the mean service time
//! of a cache hit and of every other response, cache counters, and the
//! robustness counters (rejected submissions, panics, respawns, deadline
//! misses). A hit returns the stored outcome of the synthesis that
//! missed — the cache never changes output bits (pinned by the service
//! test suite), only the time to produce them. The file records the host
//! (`nproc`, `cpu_model`, `rustc`), since absolute rates only compare
//! within one host.
//!
//! The headline acceptance is asserted when the 10k depth is swept: the
//! duplicate-heavy mix must show a hit rate ≥ 50% and beat the
//! all-distinct mix on requests/sec.
//!
//! Usage: `cargo run --release -p ftqs-bench --bin bench_service
//! [--out PATH] [--size N] [--budget N] [--distinct N] [--seed N]
//! [--smoke]`
//!
//! `--smoke` shrinks the sweep to one 400-request depth per mix (the
//! degraded cell included) and asserts the duplicate-heavy cache path is
//! exercised (nonzero hits).

use ftqs_bench::{cpu_model, print_row, rustc_version, Options};
use ftqs_core::{Engine, SynthesisRequest};
use ftqs_service::{
    ChaosPolicy, JobSource, Service, ServiceConfig, ServiceError, ServiceRequest, ServiceStats,
    SubmitError,
};
use std::fmt::Write as _;
use std::time::Duration;

const QUEUE_CAPACITY: usize = 1024;
const CACHE_CAPACITY: usize = 256;
const RESPONSE_CAPACITY: usize = 1024;
/// Every `DEADLINE_EVERY`-th request of the degraded cell carries this
/// deadline — tight enough that queue waits at depth expire a slice of
/// them, exercising the answered-without-synthesis path under load.
const DEADLINE_EVERY: u64 = 8;
const DEADLINE_MS: u64 = 5;

#[derive(Debug, Clone, Copy)]
struct Mix {
    name: &'static str,
    /// Distinct seeds the batch cycles over; `None` = one per request.
    distinct: Option<usize>,
    /// Fault injection; `None` = calm operation.
    chaos: Option<ChaosPolicy>,
    /// Stamp tight deadlines on a slice of the requests.
    deadlines: bool,
}

#[derive(Debug)]
struct Cell {
    mix: &'static str,
    mode: &'static str,
    requests: usize,
    distinct: usize,
    seconds: f64,
    requests_per_sec: f64,
    p50_micros: u64,
    p99_micros: u64,
    failed: u64,
    worker_panics: u64,
    deadline_exceeded: u64,
    stats: ServiceStats,
}

/// `total / count`, 0 when nothing was counted.
fn mean(total: u64, count: u64) -> f64 {
    total as f64 / count.max(1) as f64
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[rank]
}

/// Per-cell response bookkeeping with the exactly-once check built in.
#[derive(Debug)]
struct Ledger {
    latencies: Vec<u64>,
    failed: u64,
    worker_panics: u64,
    deadline_exceeded: u64,
    seen: Vec<bool>,
}

impl Ledger {
    fn new(requests: usize) -> Self {
        Ledger {
            latencies: Vec::with_capacity(requests),
            failed: 0,
            worker_panics: 0,
            deadline_exceeded: 0,
            seen: vec![false; requests],
        }
    }

    fn record(&mut self, response: &ftqs_service::ServiceResponse) {
        assert!(
            !std::mem::replace(&mut self.seen[response.id as usize], true),
            "duplicate response for id {}",
            response.id
        );
        self.latencies
            .push(response.queued_micros + response.service_micros);
        self.failed += u64::from(response.outcome.is_err());
        match response.outcome {
            Err(ServiceError::WorkerPanic(_)) => self.worker_panics += 1,
            Err(ServiceError::DeadlineExceeded { .. }) => self.deadline_exceeded += 1,
            _ => {}
        }
    }
}

fn run_cell(mix: Mix, requests: usize, size: usize, budget: usize, seed_base: u64) -> Cell {
    let distinct = mix.distinct.map_or(requests, |d| d.min(requests));
    let mut service = Service::start(ServiceConfig {
        workers: 0,
        queue_capacity: QUEUE_CAPACITY,
        cache_capacity: CACHE_CAPACITY,
        response_capacity: RESPONSE_CAPACITY,
        intra_parallelism: 1,
        engine: Engine::new(),
        chaos: mix.chaos,
    });
    let started = std::time::Instant::now();
    let mut ledger = Ledger::new(requests);
    for i in 0..requests {
        let mut req = ServiceRequest::new(
            i as u64,
            JobSource::Preset {
                family: "fig9".to_string(),
                size,
                seed: seed_base + (i % distinct) as u64,
            },
            SynthesisRequest::ftqs(budget),
        );
        if mix.deadlines && (i as u64).is_multiple_of(DEADLINE_EVERY) {
            req = req.with_deadline(Duration::from_millis(DEADLINE_MS));
        }
        // Producer and consumer are the same thread and both buffers are
        // bounded, so backpressure is absorbed by draining responses —
        // blocking submit here could deadlock the pipeline by design.
        loop {
            match service.try_submit(req.clone()) {
                Ok(()) => break,
                Err(SubmitError::Backpressure { .. }) => {
                    if let Some(response) = service.recv_timeout(Duration::from_millis(1)) {
                        ledger.record(&response);
                    }
                }
                Err(SubmitError::Stopped) => unreachable!("service is running"),
            }
        }
    }
    while ledger.latencies.len() < requests {
        let response = service.recv().expect("every request is answered");
        ledger.record(&response);
    }
    let seconds = started.elapsed().as_secs_f64();
    let stats = service.shutdown();
    assert!(ledger.seen.iter().all(|&s| s), "every request id answered");
    assert!(
        stats.queue_peak_depth <= QUEUE_CAPACITY,
        "work queue stayed bounded"
    );
    assert!(
        stats.response_peak_depth <= RESPONSE_CAPACITY,
        "response ring stayed bounded"
    );
    ledger.latencies.sort_unstable();
    Cell {
        mix: mix.name,
        mode: if mix.chaos.is_some() {
            "degraded"
        } else {
            "calm"
        },
        requests,
        distinct,
        seconds,
        requests_per_sec: requests as f64 / seconds,
        p50_micros: percentile(&ledger.latencies, 0.50),
        p99_micros: percentile(&ledger.latencies, 0.99),
        failed: ledger.failed,
        worker_panics: ledger.worker_panics,
        deadline_exceeded: ledger.deadline_exceeded,
        stats,
    }
}

/// Chaos kills unwind worker threads on purpose; keep their panic
/// messages out of the bench output while real panics still print.
fn quiet_chaos_panics() {
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let payload = info.payload();
        let message = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned());
        if message.as_deref().is_some_and(|m| m.starts_with("chaos:")) {
            return;
        }
        default(info);
    }));
}

fn main() {
    let opts = Options::from_env();
    let out_path: String = opts.value("--out", "BENCH_service.json".to_string());
    let smoke = opts.flag("--smoke");
    let size: usize = opts.value("--size", 25);
    let budget: usize = opts.value("--budget", 4);
    let distinct_pool: usize = opts.value("--distinct", 64);
    let seed: u64 = opts.value("--seed", 1);
    let depths: Vec<usize> = if smoke {
        vec![400]
    } else {
        vec![1_000, 10_000, 100_000]
    };
    let chaos = ChaosPolicy {
        seed: seed ^ 0xC405_5EED,
        panic_per_mille: 20,
        kill_per_mille: 10,
        slow_per_mille: 10,
        slow_micros: 200,
    };
    let calm_mixes = [
        Mix {
            name: "duplicate-heavy",
            distinct: Some(distinct_pool),
            chaos: None,
            deadlines: false,
        },
        Mix {
            name: "all-distinct",
            distinct: None,
            chaos: None,
            deadlines: false,
        },
    ];
    let degraded_mix = Mix {
        name: "degraded",
        distinct: Some(distinct_pool),
        chaos: Some(chaos),
        deadlines: true,
    };
    quiet_chaos_panics();

    println!(
        "service sweep: fig9 size {size}, ftqs budget {budget}, depths {depths:?}, \
         duplicate pool {distinct_pool}, queue {QUEUE_CAPACITY}, cache {CACHE_CAPACITY}, \
         responses {RESPONSE_CAPACITY}"
    );
    print_row(
        &[
            "mix".into(),
            "requests".into(),
            "req/s".into(),
            "p50 µs".into(),
            "p99 µs".into(),
            "hit rate".into(),
            "failed".into(),
            "panics".into(),
        ],
        12,
    );

    // Untimed warmup: the first service in the process pays one-off costs
    // (binary paging, allocator growth, thread spawn) that would otherwise
    // land entirely on the first measured cell.
    let _ = run_cell(calm_mixes[1], 200, size, budget, seed);

    let mut cells: Vec<Cell> = Vec::new();
    // The degraded sweep runs at the headline depth only: chaos cost is a
    // contract demonstration, not a scaling curve.
    let headline_depth = if smoke { depths[0] } else { 10_000 };
    for &depth in &depths {
        for mix in calm_mixes
            .iter()
            .copied()
            .chain((depth == headline_depth).then_some(degraded_mix))
        {
            let cell = run_cell(mix, depth, size, budget, seed);
            print_row(
                &[
                    cell.mix.to_string(),
                    cell.requests.to_string(),
                    format!("{:.0}", cell.requests_per_sec),
                    cell.p50_micros.to_string(),
                    cell.p99_micros.to_string(),
                    format!("{:.3}", cell.stats.cache.hit_rate()),
                    cell.failed.to_string(),
                    cell.stats.panics.to_string(),
                ],
                12,
            );
            cells.push(cell);
        }
    }

    // The acceptance pair: at the headline depth, the duplicate-heavy mix
    // must actually use the cache and beat the all-distinct mix on
    // throughput.
    let heavy = cells
        .iter()
        .find(|c| c.mix == "duplicate-heavy" && c.requests == headline_depth)
        .expect("duplicate-heavy cell exists");
    let cold = cells
        .iter()
        .find(|c| c.mix == "all-distinct" && c.requests == headline_depth)
        .expect("all-distinct cell exists");
    assert!(
        heavy.stats.cache.hits > 0,
        "duplicate-heavy mix must hit the cache"
    );
    if smoke {
        println!(
            "smoke: duplicate-heavy hit rate {:.3}, {} hits",
            heavy.stats.cache.hit_rate(),
            heavy.stats.cache.hits
        );
    } else {
        assert!(
            heavy.stats.cache.hit_rate() >= 0.5,
            "duplicate-heavy hit rate {:.3} < 0.5",
            heavy.stats.cache.hit_rate()
        );
        assert!(
            heavy.requests_per_sec > cold.requests_per_sec,
            "cache must buy throughput: {:.0} vs {:.0} req/s",
            heavy.requests_per_sec,
            cold.requests_per_sec
        );
    }

    // The degraded acceptance: faults were actually injected, every one
    // was answered as a worker-panic response, and the fleet respawned
    // its dead workers. (Exactly-once and boundedness were asserted
    // inside run_cell for every cell.)
    let degraded = cells
        .iter()
        .find(|c| c.mode == "degraded")
        .expect("degraded cell exists");
    // Chaos decisions are a pure function of (policy seed, request id),
    // but a request whose deadline expires in the queue is answered
    // before chaos applies — so injected faults land on at most the
    // promised ids, and every non-expired promised id must show up.
    let promised = (0..headline_depth as u64)
        .filter(|&id| {
            let d = chaos.decide(id);
            d.panic || d.kill
        })
        .count() as u64;
    assert!(
        degraded.worker_panics > 0 && degraded.stats.panics == degraded.worker_panics,
        "every injected fault answers as exactly one worker-panic response"
    );
    assert!(
        degraded.worker_panics + degraded.deadline_exceeded >= promised,
        "no injected fault may vanish: {} panics + {} expired < {} promised",
        degraded.worker_panics,
        degraded.deadline_exceeded,
        promised
    );
    assert!(
        degraded.stats.respawns > 0,
        "chaos kills must be survived by respawning"
    );
    println!(
        "degraded: {} injected faults answered ({} promised), {} respawns, \
         {} deadline misses, {:.0} req/s vs {:.0} calm",
        degraded.worker_panics,
        promised,
        degraded.stats.respawns,
        degraded.stats.deadline_misses,
        degraded.requests_per_sec,
        heavy.requests_per_sec
    );

    let workers = cells.first().map_or(0, |c| c.stats.workers);
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"schema\": \"ftqs-bench-service/3\",");
    let _ = writeln!(json, "  \"smoke\": {smoke},");
    let _ = writeln!(json, "  \"family\": \"fig9\",");
    let _ = writeln!(json, "  \"size\": {size},");
    let _ = writeln!(json, "  \"policy\": \"ftqs\",");
    let _ = writeln!(json, "  \"budget\": {budget},");
    let _ = writeln!(json, "  \"seed\": {seed},");
    let _ = writeln!(json, "  \"workers\": {workers},");
    let _ = writeln!(
        json,
        "  \"nproc\": {},",
        std::thread::available_parallelism().map_or(1, usize::from)
    );
    let _ = writeln!(json, "  \"cpu_model\": \"{}\",", cpu_model());
    let _ = writeln!(json, "  \"rustc\": \"{}\",", rustc_version());
    let _ = writeln!(json, "  \"queue_capacity\": {QUEUE_CAPACITY},");
    let _ = writeln!(json, "  \"cache_capacity\": {CACHE_CAPACITY},");
    let _ = writeln!(json, "  \"response_capacity\": {RESPONSE_CAPACITY},");
    let _ = writeln!(
        json,
        "  \"chaos\": {{\"panic_per_mille\": {}, \"kill_per_mille\": {}, \
         \"slow_per_mille\": {}, \"slow_micros\": {}, \"deadline_every\": {DEADLINE_EVERY}, \
         \"deadline_ms\": {DEADLINE_MS}}},",
        chaos.panic_per_mille, chaos.kill_per_mille, chaos.slow_per_mille, chaos.slow_micros
    );
    let _ = writeln!(
        json,
        "  \"parallel_feature\": {},",
        cfg!(feature = "parallel")
    );
    let _ = writeln!(
        json,
        "  \"latency\": \"p50/p99 are end-to-end micros (queue wait + service) under a \
         producer that retries on backpressure, so they are dominated by the bounded \
         queue by design; 'rejected' counts those retried refusals\","
    );
    json.push_str("  \"results\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"mix\": \"{}\", \"mode\": \"{}\", \"requests\": {}, \"distinct\": {}, \
             \"seconds\": {:.3}, \"requests_per_sec\": {:.1}, \
             \"p50_micros\": {}, \"p99_micros\": {}, \
             \"hit_service_micros_mean\": {:.1}, \"miss_service_micros_mean\": {:.1}, \
             \"cache_hit_rate\": {:.4}, \"hits\": {}, \"misses\": {}, \
             \"evictions\": {}, \"failed\": {}, \"rejected\": {}, \
             \"panics\": {}, \"respawns\": {}, \"deadline_misses\": {}, \
             \"worker_panics\": {}, \"deadline_exceeded\": {}}}",
            c.mix,
            c.mode,
            c.requests,
            c.distinct,
            c.seconds,
            c.requests_per_sec,
            c.p50_micros,
            c.p99_micros,
            mean(c.stats.hit_service_micros, c.stats.cache.hits),
            mean(
                c.stats.miss_service_micros,
                c.stats.completed - c.stats.cache.hits
            ),
            c.stats.cache.hit_rate(),
            c.stats.cache.hits,
            c.stats.cache.misses,
            c.stats.cache.evictions,
            c.failed,
            c.stats.rejected,
            c.stats.panics,
            c.stats.respawns,
            c.stats.deadline_misses,
            c.worker_panics,
            c.deadline_exceeded
        );
        json.push_str(if i + 1 < cells.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");

    std::fs::write(&out_path, &json).expect("write BENCH_service.json");
    println!("wrote {out_path} ({} cells)", cells.len());
}
