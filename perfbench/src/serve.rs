//! The `ftqs serve` workloads: a drain phase that feeds the head of a
//! request batch unthrottled, as `ftqs serve batch.ndjson` is used, then
//! one open-loop phase over the same batch at a fixed arrival rate.
//!
//! * `serve-repeat`: preset request lines (fig9, size 25, FTQS budget 4)
//!   cycling over a 64-seed pool, so nearly every request hits the
//!   service's cache.
//! * `serve-fresh`: every request carries distinct spec text rendered
//!   from a generated application, so every request misses, inserts and
//!   evicts.
//!
//! The harness drives `ftqs_service::transport::serve`, the streaming
//! function behind the CLI, directly. Its reader releases each request
//! line at its due time (evenly spaced); its writer timestamps each
//! response line.
//! `serve` drains finished responses only between input lines, so under
//! an open-loop rate a finished response waits for the next request to
//! arrive; latency is measured from the due time and shows that cost.

use crate::design::{utility_sums, utility_vs_ftss_pct};
use crate::stats::{median, Samples};
use crate::trace::{self, Tracer};
use crate::{host, par_map, Gate, Metrics, Outcome, RunArgs};
use ftqs_core::{tree_digest, ContentDigest, Engine, QuasiStaticTree, SynthesisRequest};
use ftqs_service::transport::{self, WireResponse};
use ftqs_service::{Service, ServiceConfig, ServiceStats};
use ftqs_workloads::{family, presets, spec, Family};
use std::io::{self, BufRead, Cursor, Read, Write};
use std::time::{Duration, Instant};

/// Open-loop arrival rate, requests per second, evenly spaced.
pub const RATE_PER_S: f64 = 100.0;
/// Share of `--seconds` spent in the open-loop phase; the drain phase
/// takes the rest.
const OPEN_LOOP_SHARE: f64 = 0.55;
/// Each drain round feeds this many leading lines of the batch to its own
/// service; `apps_per_s` is the median round.
const DRAIN_LINES: usize = 1_000;
/// Drain rounds per second of the drain share of `--seconds`, and at
/// least three. The count does not depend on how fast rounds go, so the
/// run's work, and with it its peak memory, does not either. Rounds
/// differ by up to half from each other (each gets its own threads, and
/// where the scheduler puts them sets its pace), so `apps_per_s` needs
/// many of them.
const DRAIN_ROUNDS_PER_S: f64 = 2.0;
const MIN_DRAIN_ROUNDS: usize = 3;
/// A request answered later than this after its due time is late. `serve`
/// writes a response when the line after its request comes in, so a
/// response finished within one arrival gap reads one gap plus ~0.3 ms,
/// and one finished later reads two gaps or more: the limit counts the
/// first kind.
pub const LATENCY_LIMIT_MS: f64 = 12.0;
const REPEAT_POOL: usize = 64;
/// Pool seeds whose application is unschedulable (~31 %).
const REPEAT_UNSCHEDULABLE: usize = 20;
const REPEAT_SIZE: usize = 25;
const FRESH_SIZES: std::ops::RangeInclusive<usize> = 15..=35;
const BUDGET: usize = 4;
/// Distinct schedulable requests whose trees feed `utility_vs_ftss_pct`.
const QUALITY_APPS: usize = 64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeKind {
    Repeat,
    Fresh,
}

/// What a request's response must carry: a cold synthesis of the
/// request as the service receives it.
#[derive(Debug, Clone, PartialEq)]
enum Expected {
    Report {
        digest: ContentDigest,
        utility_bits: u64,
        schedules: usize,
        arcs: usize,
        tree_bytes: usize,
    },
    Error(String),
}

struct Setup {
    /// Request lines, newline-terminated; the line index is the id. The
    /// open loop sends the first `arrivals.len()`, each drain round the
    /// first [`DRAIN_LINES`].
    lines: Vec<String>,
    /// Distinct request sources: a fig9 preset seed, or spec text.
    sources: Vec<Source>,
    /// `sources` index of each line.
    source_of: Vec<usize>,
    /// Due time of each line, from the start of the open-loop phase.
    arrivals: Vec<Duration>,
    open: Service,
    /// One service per drain round, started at set-up: each round gets
    /// its own cold cache and its own worker threads, so the median round
    /// does not hang on how one set of threads happened to be placed.
    drains: Vec<Service>,
    build_ms: f64,
}

enum Source {
    Preset(u64),
    Spec(String),
}

fn request_line(id: u64, source: &Source) -> String {
    let mut line = match source {
        Source::Preset(seed) => transport::preset_request_line(
            id,
            Family::Fig9.name(),
            REPEAT_SIZE,
            *seed,
            "ftqs",
            BUDGET,
            None,
            None,
        ),
        Source::Spec(text) => {
            use serde::Value;
            let fields = vec![
                ("id".to_string(), Value::U64(id)),
                ("spec".to_string(), Value::Str(text.clone())),
                ("policy".to_string(), Value::Str("ftqs".to_string())),
                ("budget".to_string(), Value::U64(BUDGET as u64)),
            ];
            serde_json::to_string(&Value::Map(fields)).expect("value rendering is infallible")
        }
    };
    line.push('\n');
    line
}

fn requests(args: &RunArgs) -> usize {
    (RATE_PER_S * OPEN_LOOP_SHARE * args.seconds)
        .round()
        .max(1.0) as usize
}

fn drain_rounds(args: &RunArgs) -> usize {
    ((args.seconds * (1.0 - OPEN_LOOP_SHARE) * DRAIN_ROUNDS_PER_S).round() as usize)
        .max(MIN_DRAIN_ROUNDS)
}

fn start_service() -> Service {
    let workers = host::nproc();
    Service::start(ServiceConfig {
        workers,
        ..ServiceConfig::default()
    })
}

/// A few requests that share no cache key with the batch, so threads and
/// allocations are warm before timing.
fn warm_up(service: &Service) -> Result<(), String> {
    let lines: String = (0..4u64)
        .map(|i| {
            transport::preset_request_line(
                1_000_000 + i,
                Family::SeriesParallel.name(),
                10,
                i,
                "ftqs",
                BUDGET,
                None,
                None,
            ) + "\n"
        })
        .collect();
    transport::serve(service, Cursor::new(lines), &mut io::sink())
        .map(|_| ())
        .map_err(|e| format!("warm-up failed: {e}"))
}

impl ServeKind {
    fn setup(self, args: &RunArgs) -> Result<Setup, String> {
        // The open loop sends the first `n` lines; the drain rounds send
        // the first DRAIN_LINES.
        let n = requests(args);
        let total = n.max(DRAIN_LINES);
        let mut build = Duration::ZERO;
        let (sources, source_of): (Vec<Source>, Vec<usize>) = match self {
            ServeKind::Repeat => (
                repeat_pool(args.seed)?,
                (0..total).map(|i| i % REPEAT_POOL).collect(),
            ),
            ServeKind::Fresh => {
                let sizes = FRESH_SIZES.count();
                let sources = (0..total)
                    .map(|i| {
                        let fam = Family::ALL[i % Family::ALL.len()];
                        let size = FRESH_SIZES.start() + (i / Family::ALL.len()) % sizes;
                        let t = Instant::now();
                        let app = family::build(fam, size, presets::app_seed(args.seed, i));
                        build += t.elapsed();
                        Source::Spec(spec::render(&app))
                    })
                    .collect();
                (sources, (0..total).collect())
            }
        };
        let lines = source_of
            .iter()
            .enumerate()
            .map(|(id, &s)| request_line(id as u64, &sources[s]))
            .collect();
        let arrivals = (0..n)
            .map(|i| Duration::from_secs_f64(i as f64 / RATE_PER_S))
            .collect();
        let open = start_service();
        warm_up(&open)?;
        let drains = (0..drain_rounds(args))
            .map(|_| {
                let service = start_service();
                warm_up(&service).map(|()| service)
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Setup {
            lines,
            sources,
            source_of,
            arrivals,
            open,
            drains,
            build_ms: build.as_secs_f64() * 1e3,
        })
    }
}

/// The 64 preset seeds of serve-repeat, the first of them in seed order
/// that give exactly [`REPEAT_UNSCHEDULABLE`] FTSS-unschedulable
/// applications. A fixed mix keeps the seed from changing the cost of the
/// traffic; the share matches fig9 applications of size 25 at large.
fn repeat_pool(seed: u64) -> Result<Vec<Source>, String> {
    let mut session = Engine::new().session();
    let (mut schedulable, mut unschedulable) = (0, 0);
    let mut pool = Vec::with_capacity(REPEAT_POOL);
    for i in 0..100 * REPEAT_POOL {
        if pool.len() == REPEAT_POOL {
            return Ok(pool);
        }
        let s = presets::app_seed(seed, i);
        let app = family::build(Family::Fig9, REPEAT_SIZE, s);
        let ok = session.synthesize(&app, &SynthesisRequest::ftss()).is_ok();
        let slot = if ok {
            &mut schedulable
        } else {
            &mut unschedulable
        };
        let cap = if ok {
            REPEAT_POOL - REPEAT_UNSCHEDULABLE
        } else {
            REPEAT_UNSCHEDULABLE
        };
        if *slot < cap {
            *slot += 1;
            pool.push(Source::Preset(s));
        }
    }
    Err("could not fill the serve-repeat seed pool".to_string())
}

/// Cold synthesis of one source, plus its quality when `quality` is set.
fn reference(source: &Source, quality: bool, seed: u64) -> (Expected, Option<(f64, f64)>) {
    let app = match source {
        Source::Preset(s) => family::build(Family::Fig9, REPEAT_SIZE, *s),
        // The service parses the submitted text; `spec::render` is not
        // lossless, so the generator's application is not the reference.
        Source::Spec(text) => match spec::parse(text) {
            Ok(app) => app,
            Err(e) => return (Expected::Error(format!("invalid job source: {e}")), None),
        },
    };
    match Engine::new()
        .session()
        .synthesize(&app, &SynthesisRequest::ftqs(BUDGET))
    {
        Ok(r) => {
            let q = quality.then(|| {
                let root = QuasiStaticTree::single(r.tree.root_schedule().clone());
                utility_sums(&app, &r.tree, &root, seed)
            });
            let expected = Expected::Report {
                digest: tree_digest(&r.tree),
                utility_bits: r.utility.expected_average_case.to_bits(),
                schedules: r.stats.schedules,
                arcs: r.stats.arcs,
                tree_bytes: r.stats.memory_bytes,
            };
            (expected, q)
        }
        Err(e) => (Expected::Error(e.to_string()), None),
    }
}

/// Releases each request line at its due time, `start + arrivals[i]`,
/// and records when each line was actually released.
struct PacedReader<'a> {
    lines: &'a [String],
    start: Instant,
    arrivals: &'a [Duration],
    next: usize,
    current: usize,
    pos: usize,
    released: Vec<Instant>,
    tracer: &'a mut Tracer,
}

impl<'a> PacedReader<'a> {
    fn new(
        lines: &'a [String],
        start: Instant,
        arrivals: &'a [Duration],
        tracer: &'a mut Tracer,
    ) -> Self {
        PacedReader {
            lines,
            start,
            arrivals,
            next: 0,
            current: 0,
            pos: 0,
            released: Vec::with_capacity(lines.len()),
            tracer,
        }
    }
}

impl BufRead for PacedReader<'_> {
    fn fill_buf(&mut self) -> io::Result<&[u8]> {
        let exhausted = self.released.is_empty() || self.pos >= self.lines[self.current].len();
        if exhausted {
            if self.next >= self.lines.len() {
                return Ok(&[]);
            }
            let due = self.start + self.arrivals[self.next];
            let now = Instant::now();
            if due > now {
                let id = self.next as u64;
                self.tracer
                    .span("loadgen.wait", id, |_| std::thread::sleep(due - now));
            }
            self.released.push(Instant::now());
            self.current = self.next;
            self.next += 1;
            self.pos = 0;
        }
        Ok(&self.lines[self.current].as_bytes()[self.pos..])
    }

    fn consume(&mut self, amt: usize) {
        self.pos += amt;
    }
}

impl Read for PacedReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let available = self.fill_buf()?;
        let n = available.len().min(buf.len());
        buf[..n].copy_from_slice(&available[..n]);
        self.consume(n);
        Ok(n)
    }
}

/// Bytes reserved per response line; responses here average ~2.5 KB.
const RESPONSE_BYTES: usize = 4 << 10;

/// Keeps every response byte in memory and the instant each line ended.
#[derive(Default)]
struct StampedWriter {
    bytes: Vec<u8>,
    ends: Vec<(usize, Instant)>,
}

impl Write for StampedWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if buf.contains(&b'\n') {
            let now = Instant::now();
            let base = self.bytes.len();
            self.ends.extend(
                buf.iter()
                    .enumerate()
                    .filter(|(_, &b)| b == b'\n')
                    .map(|(i, _)| (base + i + 1, now)),
            );
        }
        self.bytes.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl StampedWriter {
    /// Room for `lines` responses of typical size, allocated up front so
    /// that buffer growth does not add to the peak memory at random.
    fn with_capacity(lines: usize) -> Self {
        StampedWriter {
            bytes: Vec::with_capacity(lines * RESPONSE_BYTES),
            ends: Vec::with_capacity(lines),
        }
    }

    fn clear(&mut self) {
        self.bytes.clear();
        self.ends.clear();
    }

    /// Each complete response line with the instant it was written.
    fn lines(&self) -> Vec<(&str, Instant)> {
        let mut begin = 0;
        self.ends
            .iter()
            .map(|&(end, at)| {
                let line = std::str::from_utf8(&self.bytes[begin..end - 1]).unwrap_or("");
                begin = end;
                (line, at)
            })
            .collect()
    }
}

/// The fields of one response line the benchmark uses.
#[derive(Debug, Clone, PartialEq)]
struct Response {
    id: u64,
    written: Instant,
    bytes: usize,
    cache_hit: bool,
    queued_ms: f64,
    service_ms: f64,
    outcome: Result<Expected, String>,
}

/// Parses one response line and reduces its report, if any, to the
/// outcome a reference can check.
fn parse_response(line: &str, written: Instant) -> Result<Response, String> {
    let wire: WireResponse =
        serde_json::from_str(line).map_err(|e| format!("unparseable response: {e}"))?;
    let outcome = if wire.deadline_missed {
        Err("response reports a missed deadline".to_string())
    } else {
        match (wire.ok, wire.report, wire.error) {
            (true, Some(r), _) => Ok(Expected::Report {
                digest: tree_digest(&r.tree),
                utility_bits: r.utility.expected_average_case.to_bits(),
                schedules: r.stats.schedules,
                arcs: r.stats.arcs,
                tree_bytes: r.stats.memory_bytes,
            }),
            (false, None, Some(e)) => Ok(Expected::Error(e)),
            _ => Err("response is neither a report nor an error".to_string()),
        }
    };
    Ok(Response {
        id: wire.id,
        written,
        bytes: line.len() + 1,
        cache_hit: wire.cache_hit,
        queued_ms: wire.queued_micros as f64 / 1e3,
        service_ms: wire.service_micros as f64 / 1e3,
        outcome,
    })
}

/// Parses the responses of `writer` and checks them against `expected`
/// (indexed by request id): every request answered exactly once, with
/// the reference outcome. Returns the correct responses indexed by id.
fn verify(
    writer: &StampedWriter,
    requests: usize,
    expected: impl Fn(usize) -> Expected + Sync,
    gate: &mut Gate,
    what: &str,
) -> Vec<Option<Response>> {
    gate.attempt(requests as u64);
    let mut by_id: Vec<Option<Result<Response, String>>> = vec![None; requests];
    for parsed in writer
        .lines()
        .into_iter()
        .map(|(line, at)| parse_response(line, at))
    {
        let r = match parsed {
            Ok(r) => r,
            Err(e) => {
                gate.fail(format!("{what}: {e}"));
                continue;
            }
        };
        let id = r.id as usize;
        let verdict = match &r.outcome {
            Err(e) => Err(format!("request {id}: {e}")),
            Ok(got) if *got == expected(id) => Ok(r),
            Ok(got) => Err(format!(
                "request {id}: {got:?} differs from the reference {:?}",
                expected(id)
            )),
        };
        match by_id.get_mut(id) {
            None => gate.fail(format!("{what}: unknown request id {id}")),
            Some(slot @ None) => *slot = Some(verdict),
            Some(slot) => *slot = Some(Err(format!("request {id} answered twice"))),
        }
    }
    by_id
        .into_iter()
        .enumerate()
        .map(|(id, slot)| match slot {
            Some(Ok(r)) => Some(r),
            Some(Err(e)) => {
                gate.fail(format!("{what}: {e}"));
                None
            }
            None => {
                gate.fail(format!("{what}: request {id} got no response"));
                None
            }
        })
        .collect()
}

/// Open-loop latency of each request, in milliseconds from its due time
/// to its response line; `None` for a request without a correct response.
fn latencies_ms(
    start: Instant,
    arrivals: &[Duration],
    responses: &[Option<Response>],
) -> Vec<Option<f64>> {
    responses
        .iter()
        .zip(arrivals)
        .map(|(r, &due)| {
            r.as_ref().map(|r| {
                r.written
                    .saturating_duration_since(start + due)
                    .as_secs_f64()
                    * 1e3
            })
        })
        .collect()
}

/// Windows of due time over which open-loop percentiles are taken.
const WINDOW: Duration = Duration::from_secs(1);

/// Median over whole [`WINDOW`]s of due time of the p50 and p90 latency
/// and of the share of requests within [`LATENCY_LIMIT_MS`] in each
/// window; a missing response counts as infinitely late. A slow stretch of
/// the host then moves a few windows, not the result.
fn windowed_latency(
    arrivals: &[Duration],
    latencies: &[Option<f64>],
) -> Result<(f64, f64, f64), String> {
    let window = |d: &Duration| (d.as_micros() / WINDOW.as_micros()) as usize;
    let windows = arrivals.last().map_or(0, window);
    if windows == 0 {
        return Err("the open-loop phase is shorter than one window".to_string());
    }
    let mut per_window: Vec<Vec<f64>> = vec![Vec::new(); windows];
    for (due, l) in arrivals.iter().zip(latencies) {
        if let Some(w) = per_window.get_mut(window(due)) {
            w.push(l.unwrap_or(f64::INFINITY));
        }
    }
    let mut p50 = Vec::with_capacity(windows);
    let mut p90 = Vec::with_capacity(windows);
    let mut on_time = Vec::with_capacity(windows);
    for w in per_window {
        let within = w.iter().filter(|&&ms| ms <= LATENCY_LIMIT_MS).count();
        on_time.push(within as f64 / w.len() as f64);
        let s = Samples::new(w);
        p50.push(s.p(0.5));
        p90.push(s.tail(0.9, "latency in one window")?);
    }
    Ok((median(&p50), median(&p90), median(&on_time)))
}

fn add_stats(total: &mut (u64, usize, usize), s: &ServiceStats) {
    total.0 += s.rejected;
    total.1 = total.1.max(s.queue_peak_depth);
    total.2 = total.2.max(s.response_peak_depth);
}

pub fn run(kind: ServeKind, args: &RunArgs, gate: &mut Gate) -> Result<Outcome, String> {
    let (mut setup, setup_s, setups) = crate::timed_setups(|| kind.setup(args))?;
    let drains = std::mem::take(&mut setup.drains);
    let distinct = setup.sources.len();
    let quality_seed = args.seed ^ 0x0A11_7E57;
    // Quality is estimated on the first distinct sources; enough of them
    // are schedulable for QUALITY_APPS trees in both workloads.
    let refs = par_map(&(0..distinct).collect::<Vec<_>>(), |&i| {
        reference(&setup.sources[i], i < 2 * QUALITY_APPS, quality_seed)
    });
    let quality = utility_vs_ftss_pct(refs.iter().filter_map(|r| r.1).take(QUALITY_APPS));
    let expected = |id: usize| refs[setup.source_of[id]].0.clone();
    let n = setup.arrivals.len();
    let drain_n = DRAIN_LINES;
    // `peak_rss_mb` covers the timed phases, not the references.
    let setup_peak_mb = host::reset_peak_rss()?;

    let mut tr = Tracer::new(args.trace);
    let steal = host::Steal::now();
    let origin = Instant::now();
    let mut start = origin;
    let mut released = Vec::new();
    let mut open = Vec::new();
    let mut open_window = (Duration::ZERO, 0.0);
    let mut drain_secs: Vec<f64> = Vec::new();
    let mut totals = (0, 0, 0);
    tr.span("bench.phase", 0, |tr| -> Result<(), String> {
        let mut writer = StampedWriter::with_capacity(n.max(drain_n));
        // The drain runs first, while the cores are still busy from the
        // references: run after the mostly idle open loop, its first
        // rounds ran up to half as fast as the later ones.
        let drain_input: String = setup.lines[..drain_n].concat();
        for (round, service) in drains.into_iter().enumerate() {
            writer.clear();
            let t0 = Instant::now();
            tr.span("transport.serve", 1 + round as u64, |_| {
                let input = Cursor::new(drain_input.as_bytes());
                transport::serve(&service, input, &mut writer)
            })
            .map_err(|e| format!("drain serve failed: {e}"))?;
            drain_secs.push(t0.elapsed().as_secs_f64());
            verify(&writer, drain_n, expected, gate, "drain");
            add_stats(&mut totals, &service.stats());
            // Shut the round's service down (off the clock) so that the
            // caches of past rounds do not add up in the peak memory.
            drop(service);
        }

        // The open loop reuses the drain's buffer.
        writer.clear();
        let cpu0 = host::cpu_seconds();
        start = Instant::now() + Duration::from_millis(5);
        tr.span("transport.serve", 0, |tr| {
            let mut reader = PacedReader::new(&setup.lines[..n], start, &setup.arrivals, tr);
            let result = transport::serve(&setup.open, &mut reader, &mut writer);
            released = std::mem::take(&mut reader.released);
            result
        })
        .map_err(|e| format!("open-loop serve failed: {e}"))?;
        open_window = (start.elapsed(), host::cpu_seconds() - cpu0);
        add_stats(&mut totals, &setup.open.stats());
        open = verify(&writer, n, expected, gate, "open loop");
        Ok(())
    })?;
    let wall = origin.elapsed();
    let steal_pct = steal.pct_since();

    let latencies = latencies_ms(start, &setup.arrivals, &open);
    let lat = Samples::new(
        latencies
            .iter()
            .map(|l| l.unwrap_or(f64::INFINITY))
            .collect(),
    );
    let (p50, p90, on_time) = windowed_latency(&setup.arrivals, &latencies)?;
    let rps: Vec<f64> = drain_secs.iter().map(|s| drain_n as f64 / s).collect();

    let mut m = Metrics::default();
    m.set("setup_s", setup_s);
    m.set("apps_per_s", median(&rps));
    m.set("latency_ms_p50", p50);
    m.set("latency_ms_p90", p90);
    m.set("utility_vs_ftss_pct", quality);
    m.set("on_time_ratio", on_time);
    if args.trace {
        let answered: Vec<&Response> = open.iter().flatten().collect();
        let due = |r: &Response| start + setup.arrivals[r.id as usize];
        let ms = |f: &dyn Fn(&Response) -> Option<f64>| {
            Samples::new(answered.iter().filter_map(|r| f(r)).collect())
        };
        let queued = ms(&|r| Some(r.queued_ms));
        let delivery = ms(&|r| {
            let latency = r.written.saturating_duration_since(due(r)).as_secs_f64() * 1e3;
            Some(latency - r.queued_ms - r.service_ms)
        });
        // Request spans: due time to response line, with the service's
        // queue wait and run time as children, placed from the release of
        // the line (when it was submitted).
        let mut requests_tr = Tracer::new(true);
        for r in &answered {
            let request = requests_tr.record("serve.request", r.id, due(r), r.written, None);
            let queued_from = released[r.id as usize];
            let ran_from = queued_from + Duration::from_secs_f64(r.queued_ms / 1e3);
            let ran_to = ran_from + Duration::from_secs_f64(r.service_ms / 1e3);
            requests_tr.record("service.queue", r.id, queued_from, ran_from, request);
            requests_tr.record("service.run", r.id, ran_from, ran_to, request);
        }
        let late = Samples::new(
            released
                .iter()
                .zip(&setup.arrivals)
                .map(|(&at, &d)| at.saturating_duration_since(start + d).as_secs_f64() * 1e3)
                .collect(),
        );
        let stats = setup.open.stats();
        let lookups = stats.cache.hits + stats.cache.misses;
        let reports = || {
            answered.iter().filter_map(|r| match &r.outcome {
                Ok(Expected::Report {
                    schedules,
                    arcs,
                    tree_bytes,
                    ..
                }) => Some((*schedules, *arcs, *tree_bytes)),
                _ => None,
            })
        };
        let schedulable = refs
            .iter()
            .filter(|r| matches!(r.0, Expected::Report { .. }))
            .count();
        m.set("workloads.build_ms", setup.build_ms);
        m.set(
            "workloads.schedulable_ratio",
            schedulable as f64 / distinct as f64,
        );
        m.set(
            "core.schedules",
            reports().map(|r| r.0).sum::<usize>() as f64,
        );
        m.set("core.arcs", reports().map(|r| r.1).sum::<usize>() as f64);
        m.set(
            "core.tree_bytes",
            reports().map(|r| r.2).sum::<usize>() as f64,
        );
        m.set("service.queue_wait_ms_p50", queued.p(0.5));
        m.set(
            "service.queue_wait_ms_p99",
            queued.tail(0.99, "queue wait")?,
        );
        m.set(
            "service.hit_service_ms_p50",
            ms(&|r| r.cache_hit.then_some(r.service_ms)).p(0.5),
        );
        m.set(
            "service.miss_service_ms_p50",
            ms(&|r| (!r.cache_hit).then_some(r.service_ms)).p(0.5),
        );
        m.set(
            "service.cache_hit_ratio",
            stats.cache.hits as f64 / lookups.max(1) as f64,
        );
        m.set("service.cache_evictions", stats.cache.evictions as f64);
        m.set(
            "service.error_outcome_ratio",
            answered
                .iter()
                .filter(|r| matches!(r.outcome, Ok(Expected::Error(_))))
                .count() as f64
                / n as f64,
        );
        m.set("service.rejected", totals.0 as f64);
        m.set("service.queue_peak_depth", totals.1 as f64);
        m.set("service.response_peak_depth", totals.2 as f64);
        m.set("transport.latency_ms_p99", lat.tail(0.99, "latency")?);
        m.set("transport.delivery_ms_p50", delivery.p(0.5));
        m.set(
            "transport.delivery_ms_p99",
            delivery.tail(0.99, "delivery")?,
        );
        m.set(
            "transport.request_bytes_mean",
            setup.lines[..n].iter().map(String::len).sum::<usize>() as f64 / n as f64,
        );
        m.set(
            "transport.response_bytes_mean",
            answered.iter().map(|r| r.bytes).sum::<usize>() as f64 / answered.len().max(1) as f64,
        );
        m.set("loadgen.late_ms_p99", late.tail(0.99, "loadgen lateness")?);
        m.set(
            "process.cpu_util",
            open_window.1 / open_window.0.as_secs_f64(),
        );
        m.set("host.steal_pct", steal_pct);
        let own = trace::self_ms_by_name(tr.spans());
        let wall_ms = wall.as_secs_f64() * 1e3;
        m.set("bench.self_pct", 100.0 * own["bench.phase"] / wall_ms);
        m.set(
            "trace.accounted_pct",
            100.0 * own.values().sum::<f64>() / wall_ms,
        );
        m.set(
            "trace.overhead_pct",
            trace::overhead_pct(tr.spans().len(), wall),
        );
        let mut spans = tr.spans().to_vec();
        let offset = spans.len();
        spans.extend(requests_tr.spans().iter().cloned().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
        crate::write_trace(args, &spans, origin);
    }
    Ok(Outcome {
        metrics: m,
        extra: vec![
            ("setups", setups.to_string()),
            ("setup_peak_rss_mb", format!("{setup_peak_mb:.2}")),
            ("steal_pct", format!("{steal_pct:.2}")),
            ("rate_per_s", RATE_PER_S.to_string()),
            ("latency_limit_ms", LATENCY_LIMIT_MS.to_string()),
            ("open_loop_requests", n.to_string()),
            ("drain_requests_per_round", drain_n.to_string()),
            ("drain_rounds", drain_secs.len().to_string()),
            ("distinct_sources", distinct.to_string()),
        ],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn response_timings_parse_back_out_of_wire_lines() {
        let wire = WireResponse {
            id: 17,
            ok: false,
            error: Some("synthesis failed: unschedulable".to_string()),
            cache_hit: true,
            queued_micros: 1_234,
            service_micros: 56_789,
            deadline_missed: false,
            report: None,
        };
        let line = serde_json::to_string(&wire).expect("serializes");
        let at = Instant::now();
        let r = parse_response(&line, at).expect("parses");
        assert_eq!(r.id, 17);
        assert!(r.cache_hit);
        assert_eq!(r.queued_ms, 1.234);
        assert_eq!(r.service_ms, 56.789);
        assert_eq!(r.bytes, line.len() + 1);
        assert_eq!(
            r.outcome,
            Ok(Expected::Error(
                "synthesis failed: unschedulable".to_string()
            ))
        );
        let late = WireResponse {
            deadline_missed: true,
            ..wire
        };
        let line = serde_json::to_string(&late).expect("serializes");
        assert!(parse_response(&line, at).expect("parses").outcome.is_err());
    }

    #[test]
    fn reports_decode_to_their_digest() {
        let app = spec::parse(spec::FIG1_SPEC).expect("example spec parses");
        let report = Engine::new()
            .session()
            .synthesize(&app, &SynthesisRequest::ftqs(BUDGET))
            .expect("example is schedulable");
        let want = Expected::Report {
            digest: tree_digest(&report.tree),
            utility_bits: report.utility.expected_average_case.to_bits(),
            schedules: report.stats.schedules,
            arcs: report.stats.arcs,
            tree_bytes: report.stats.memory_bytes,
        };
        let wire = WireResponse {
            id: 3,
            ok: true,
            error: None,
            cache_hit: false,
            queued_micros: 5,
            service_micros: 7,
            deadline_missed: false,
            report: Some(report),
        };
        let line = serde_json::to_string(&wire).expect("serializes");
        let r = parse_response(&line, Instant::now()).expect("parses");
        assert_eq!(r.id, 3);
        assert_eq!(r.outcome, Ok(want));
    }

    #[test]
    fn writer_stamps_each_line_when_its_newline_is_written() {
        let mut w = StampedWriter::default();
        w.write_all(b"{\"a\":1}").unwrap();
        w.write_all(b"\n{\"b\"").unwrap();
        w.write_all(b":2}\n").unwrap();
        let lines = w.lines();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].0, "{\"a\":1}");
        assert_eq!(lines[1].0, "{\"b\":2}");
        assert!(lines[0].1 <= lines[1].1);
    }

    #[test]
    fn latency_counts_from_the_due_time_even_when_the_reader_is_late() {
        let lines: Vec<String> = (0..4).map(|i| format!("line {i}\n")).collect();
        let arrivals: Vec<Duration> = (0..4).map(|i| Duration::from_millis(10 * i)).collect();
        // The load generator starts 50 ms behind: every line is overdue.
        let start = Instant::now() - Duration::from_millis(50);
        let mut tr = Tracer::new(false);
        let mut reader = PacedReader::new(&lines, start, &arrivals, &mut tr);
        let read: Vec<String> = (&mut reader).lines().map(Result::unwrap).collect();
        assert_eq!(read, ["line 0", "line 1", "line 2", "line 3"]);
        let released = reader.released.clone();
        assert!(released[0] >= start + Duration::from_millis(50));
        // A response written right at release still carries the lateness.
        let responses: Vec<Option<Response>> = released[..3]
            .iter()
            .enumerate()
            .map(|(i, &at)| {
                Some(Response {
                    id: i as u64,
                    written: at,
                    bytes: 1,
                    cache_hit: false,
                    queued_ms: 0.0,
                    service_ms: 0.0,
                    outcome: Err(String::new()),
                })
            })
            .chain([None])
            .collect();
        let lat = latencies_ms(start, &arrivals, &responses);
        assert!(lat[0].unwrap() >= 50.0);
        assert!(lat[2].unwrap() >= 30.0);
        assert!(lat[2].unwrap() < lat[0].unwrap());
        // A request without a response has no latency: it counts as late.
        assert_eq!(lat[3], None);
    }

    #[test]
    fn windowed_latency_takes_the_median_window() {
        // Three whole windows of 100 requests, plus a partial one that is
        // left out; the middle window is slow, and the last one has its
        // ten slowest requests past the limit.
        let arrivals: Vec<Duration> = (0..350).map(|i| WINDOW * i / 100).collect();
        let latencies: Vec<Option<f64>> = (0..350)
            .map(|i| {
                let base = if (100..200).contains(&i) { 100.0 } else { 1.0 };
                let late = (290..300).contains(&i);
                Some(if late {
                    15.0
                } else {
                    base + (i % 100) as f64 / 100.0
                })
            })
            .collect();
        let (p50, p90, on_time) = windowed_latency(&arrivals, &latencies).unwrap();
        assert!((p50 - 1.49).abs() < 1e-9, "{p50}");
        assert!((p90 - 1.89).abs() < 1e-9, "{p90}");
        // Window shares 1, 0 and 0.9: the median window is the last one.
        assert!((on_time - 0.9).abs() < 1e-9, "{on_time}");
        assert!(windowed_latency(&arrivals[..50], &latencies[..50]).is_err());
    }

    #[test]
    fn reader_waits_for_due_times() {
        let lines: Vec<String> = (0..3).map(|i| format!("{i}\n")).collect();
        let arrivals: Vec<Duration> = (0..3).map(|i| Duration::from_millis(5 * i)).collect();
        let start = Instant::now();
        let mut tr = Tracer::new(true);
        let mut reader = PacedReader::new(&lines, start, &arrivals, &mut tr);
        let mut s = String::new();
        reader.read_to_string(&mut s).unwrap();
        assert_eq!(s, "0\n1\n2\n");
        assert!(reader.released[2] >= start + Duration::from_millis(10));
        assert!(tr.spans().iter().all(|s| s.name == "loadgen.wait"));
    }
}
