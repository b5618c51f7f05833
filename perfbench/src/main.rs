//! One benchmark for the ftqs design flow and the `ftqs serve` transport.
//!
//! ```text
//! perfbench --workload <synth-deep|fig9-eval|serve-repeat|serve-fresh>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the last line of standard output is a JSON object
//! holding every end-to-end metric; with `--trace 1` it holds every
//! per-layer metric, measured from spans recorded around each call into
//! the program's crates. The line before it is the host and build
//! fingerprint. Any output that differs from its reference makes the run
//! exit non-zero. See `README.md` in this directory for the workloads and
//! metrics.

mod design;
mod host;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// End-to-end metrics, reported by every workload from the untraced run.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("apps_per_s", "1/s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_p90", "ms"),
    ("utility_vs_ftss_pct", "%"),
    ("on_time_ratio", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported by every workload from the traced run. A
/// layer the workload does not exercise reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.build_ms", "ms"),
    ("workloads.schedulable_ratio", "ratio"),
    ("core.prepare_ms", "ms"),
    ("core.ftqs_ms_p50", "ms"),
    ("core.ftqs_ms_p90", "ms"),
    ("core.ftqs_share", "ratio"),
    ("core.us_per_schedule", "us"),
    ("core.ftss_ms", "ms"),
    ("core.ftsf_ms", "ms"),
    ("core.validate_ms", "ms"),
    ("core.schedules", "count"),
    ("core.arcs", "count"),
    ("core.tree_bytes", "bytes"),
    ("sim.image_ms", "ms"),
    ("sim.batch_ms", "ms"),
    ("sim.scenarios_per_s", "1/s"),
    ("sim.deadline_misses", "count"),
    ("service.queue_wait_ms_p50", "ms"),
    ("service.queue_wait_ms_p99", "ms"),
    ("service.hit_service_ms_p50", "ms"),
    ("service.miss_service_ms_p50", "ms"),
    ("service.cache_hit_ratio", "ratio"),
    ("service.cache_evictions", "count"),
    ("service.error_outcome_ratio", "ratio"),
    ("service.rejected", "count"),
    ("service.queue_peak_depth", "count"),
    ("service.response_peak_depth", "count"),
    ("transport.latency_ms_p99", "ms"),
    ("transport.delivery_ms_p50", "ms"),
    ("transport.delivery_ms_p99", "ms"),
    ("transport.request_bytes_mean", "bytes"),
    ("transport.response_bytes_mean", "bytes"),
    ("loadgen.late_ms_p99", "ms"),
    ("process.cpu_util", "ratio"),
    ("host.steal_pct", "%"),
    ("bench.self_pct", "%"),
    ("trace.accounted_pct", "%"),
    ("trace.overhead_pct", "%"),
];

/// Set-ups per run: at least `MIN_SETUPS`, then more until `SETUP_SPAN`
/// has passed or `MAX_SETUPS` are done. `setup_s` is their median.
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 25;
const SETUP_SPAN: Duration = Duration::from_secs(1);

#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Metric values by name.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }
}

/// What a workload run produced besides its pass/fail record.
pub struct Outcome {
    pub metrics: Metrics,
    /// Workload parameters added to the fingerprint.
    pub extra: Vec<(&'static str, String)>,
}

/// Counts attempted and failed operations and keeps the first failure
/// messages.
#[derive(Debug, Default)]
pub struct Gate {
    attempted: u64,
    failed: u64,
    messages: Vec<String>,
}

impl Gate {
    pub fn attempt(&mut self, n: u64) {
        self.attempted += n;
    }

    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.messages.len() < 20 {
            self.messages.push(message);
        }
    }

    /// One attempted operation; returns whether it succeeded.
    pub fn record(&mut self, verdict: Result<(), String>) -> bool {
        self.attempt(1);
        match verdict {
            Ok(()) => true,
            Err(e) => {
                self.fail(e);
                false
            }
        }
    }
}

/// Runs `setup` several times (see [`MIN_SETUPS`]) and keeps the last
/// state, with the median set-up time in seconds and the set-up count.
pub fn timed_setups<S>(
    mut setup: impl FnMut() -> Result<S, String>,
) -> Result<(S, f64, usize), String> {
    let mut times = Vec::with_capacity(MAX_SETUPS);
    let mut state = None;
    let started = Instant::now();
    while times.len() < MIN_SETUPS || (times.len() < MAX_SETUPS && started.elapsed() < SETUP_SPAN) {
        // Drop the previous state first: it may own running services.
        drop(state.take());
        let t = Instant::now();
        state = Some(setup()?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((
        state.expect("at least one set-up"),
        stats::median(&times),
        times.len(),
    ))
}

/// Runs `f` over `items` on every core, keeping the input order.
pub fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let threads = host::nproc().min(items.len()).max(1);
    let mut slots: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                scope.spawn(move || {
                    (t..items.len())
                        .step_by(threads)
                        .map(|i| (i, f(&items[i])))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            for (i, r) in h.join().expect("reference worker panicked") {
                slots[i] = Some(r);
            }
        }
    });
    slots
        .into_iter()
        .map(|r| r.expect("every item is mapped"))
        .collect()
}

/// Writes the spans of a traced run under the build directory.
pub fn write_trace(args: &RunArgs, spans: &[trace::Span], origin: Instant) {
    let dir = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("perfbench/target"), PathBuf::from);
    let path = dir
        .join("traces")
        .join(format!("{}-{}.tsv", args.workload, args.seed));
    match trace::write_tsv(spans, origin, &path) {
        Ok(()) => eprintln!("spans written to {}", path.display()),
        Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
    }
}

fn parse_args(args: &[String]) -> Result<RunArgs, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".to_string()),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(RunArgs {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn run(args: &RunArgs, gate: &mut Gate) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "synth-deep" => design::run(design::Design::SynthDeep, args, gate),
        "fig9-eval" => design::run(design::Design::Fig9Eval, args, gate),
        "serve-repeat" => serve::run(serve::ServeKind::Repeat, args, gate),
        "serve-fresh" => serve::run(serve::ServeKind::Fresh, args, gate),
        other => Err(format!(
            "unknown workload {other} (synth-deep|fig9-eval|serve-repeat|serve-fresh)"
        )),
    }
}

/// The result line: every metric of `names` by name with its unit.
fn result_line(gate: &Gate, metrics: &Metrics, names: &[(&str, &str)]) -> Result<String, String> {
    let mut body = Vec::with_capacity(names.len());
    for &(name, unit) in names {
        let value = metrics.0.get(name).copied().unwrap_or(0.0);
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite ({value})"));
        }
        body.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        gate.failed == 0,
        gate.attempted,
        gate.failed,
        body.join(", ")
    ))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut gate = Gate::default();
    let outcome = match run(&args, &mut gate) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    let mut metrics = outcome.metrics;
    metrics.set("peak_rss_mb", host::peak_rss_mb());
    println!(
        "{}",
        host::fingerprint(&args.workload, args.seed, &outcome.extra)
    );
    for m in &gate.messages {
        eprintln!("perfbench: FAILED {m}");
    }
    if gate.failed > 0 {
        eprintln!(
            "perfbench: {} of {} operations failed their reference check",
            gate.failed, gate.attempted
        );
        std::process::exit(1);
    }
    let names = if args.trace { PER_LAYER } else { END_TO_END };
    if !args.trace {
        if let Some((name, _)) = names.iter().find(|(n, _)| !metrics.0.contains_key(n)) {
            eprintln!("perfbench: end-to-end metric {name} was not measured");
            std::process::exit(1);
        }
    }
    let line = match result_line(&gate, &metrics, names) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    println!("{line}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_lists_every_metric_with_its_unit() {
        let mut m = Metrics::default();
        m.set("setup_s", 0.8127);
        let mut gate = Gate::default();
        gate.record(Ok(()));
        let line = result_line(&gate, &m, &[("setup_s", "s"), ("apps_per_s", "1/s")]).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}, \
             \"apps_per_s\": {\"value\": 0.0, \"unit\": \"1/s\"}}}"
        );
        m.set("apps_per_s", f64::NAN);
        assert!(result_line(&gate, &m, &[("apps_per_s", "1/s")]).is_err());
    }

    #[test]
    fn arguments_are_checked() {
        let ok: Vec<String> = [
            "--workload",
            "fig9-eval",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]
        .map(String::from)
        .to_vec();
        let a = parse_args(&ok).unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("fig9-eval", 7, 10.0, true)
        );
        let bad: Vec<String> = [
            "--workload",
            "x",
            "--seed",
            "7",
            "--seconds",
            "0",
            "--trace",
            "1",
        ]
        .map(String::from)
        .to_vec();
        assert!(parse_args(&bad).is_err());
        assert!(parse_args(&ok[..6]).is_err());
    }
}
