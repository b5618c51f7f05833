//! Machine-readable synthesis-performance snapshot: `BENCH_synthesis.json`.
//!
//! Times FTSS and FTQS synthesis (optimized hot paths vs the preserved
//! straightforward baselines in `ftqs_core::oracle`) on seeded synthetic
//! applications of 10, 20 and 40 processes, and writes median
//! nanoseconds plus speedup factors as JSON. Future PRs regenerate the
//! file on the same machine to track the performance trajectory.
//!
//! Schema `ftqs-bench-synthesis/6`: every FTQS row carries its `budget`
//! and is measured twice — once at the base budget (default 16) and once
//! at budget 40, so deep trees are tracked alongside the shallow default.
//! Oracle baselines are measured at the base budget only (the reference
//! implementation is orders of magnitude slower on deep trees). The file
//! records the host it ran on (`nproc`, `cpu_model`, `rustc`), since
//! absolute numbers only compare within one host.
//!
//! Usage: `cargo run --release -p ftqs-bench --bin bench_synthesis
//! [--out PATH] [--reps N] [--budget M] [--skip-baseline] [--smoke]`
//!
//! Defaults: out `BENCH_synthesis.json`, 9 timed reps per measurement
//! (median reported), base FTQS budget 16 (the `FtqsConfig` default).
//! `--smoke` is the CI fast path: 1 rep, baselines skipped.

use ftqs_bench::{cpu_model, rustc_version, Options};
use ftqs_core::ftqs::FtqsConfig;
use ftqs_core::oracle::{ftqs_reference, ftss_reference};
use ftqs_core::{Application, Engine, FtssConfig, ScheduleContext, SynthesisRequest};
use ftqs_workloads::{presets, synthetic};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;
use std::time::Instant;

const SIZES: [usize; 3] = [10, 20, 40];
const DEEP_BUDGET: usize = 40;

fn median_ns(reps: usize, mut run: impl FnMut()) -> u128 {
    // Warm-up pass, then `reps` timed passes.
    run();
    let mut samples: Vec<u128> = (0..reps.max(1))
        .map(|_| {
            let t0 = Instant::now();
            run();
            t0.elapsed().as_nanos()
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

struct Row {
    algorithm: &'static str,
    processes: usize,
    budget: Option<usize>,
    optimized_ns: u128,
    baseline_ns: Option<u128>,
}

fn main() {
    let opts = Options::from_env();
    let out_path: String = opts.value("--out", "BENCH_synthesis.json".to_string());
    let smoke = opts.flag("--smoke");
    let reps: usize = opts.value("--reps", if smoke { 1 } else { 9usize });
    let base_budget: usize = opts.value("--budget", FtqsConfig::default().max_schedules);
    let skip_baseline = smoke || opts.flag("--skip-baseline");

    // Optimized path: one engine session, reused across every timed rep —
    // the amortized hot path production callers run. Baselines stay on the
    // oracle reference functions.
    let mut session = Engine::new().session();
    let ftss_req = SynthesisRequest::ftss();
    let ftss_cfg = FtssConfig::default();
    let mut rows: Vec<Row> = Vec::new();

    // The deep-budget row set keeps deep trees tracked; collapse it when
    // `--budget` already asks for it.
    let budgets: &[usize] = if base_budget == DEEP_BUDGET {
        &[DEEP_BUDGET]
    } else {
        &[base_budget, DEEP_BUDGET]
    };

    for &size in &SIZES {
        let params = presets::fig9_params(size);
        let mut rng = StdRng::seed_from_u64(presets::app_seed(0xBE9C, size));
        let app: Application = synthetic::generate_schedulable(&params, &mut rng, 50);
        let ctx = ScheduleContext::root(&app);

        let ftss_ns = median_ns(reps, || {
            session.synthesize(&app, &ftss_req).expect("schedulable");
        });
        let ftss_base = (!skip_baseline).then(|| {
            median_ns(reps, || {
                ftss_reference(&app, &ctx, &ftss_cfg).expect("schedulable");
            })
        });
        rows.push(Row {
            algorithm: "ftss",
            processes: size,
            budget: None,
            optimized_ns: ftss_ns,
            baseline_ns: ftss_base,
        });
        eprintln!(
            "ftss/{size}: optimized {ftss_ns} ns{}",
            match ftss_base {
                Some(b) => format!(
                    ", baseline {b} ns, speedup {:.2}x",
                    b as f64 / ftss_ns as f64
                ),
                None => String::new(),
            }
        );

        for &budget in budgets {
            let ftqs_req = SynthesisRequest::ftqs(budget);
            let ftqs_cfg = FtqsConfig::with_budget(budget);
            let ftqs_ns = median_ns(reps, || {
                session.synthesize(&app, &ftqs_req).expect("schedulable");
            });
            // Baselines only at the base budget: the oracle re-derives the
            // whole tree per pivot and deep budgets would take minutes.
            let ftqs_base = (!skip_baseline && budget == base_budget).then(|| {
                // The baseline is substantially slower; a few reps suffice
                // for a stable median without hour-long runs at 40
                // processes.
                median_ns(reps.min(5), || {
                    ftqs_reference(&app, &ftqs_cfg).expect("schedulable");
                })
            });
            rows.push(Row {
                algorithm: "ftqs",
                processes: size,
                budget: Some(budget),
                optimized_ns: ftqs_ns,
                baseline_ns: ftqs_base,
            });
            eprintln!(
                "ftqs/{size}/b{budget}: optimized {ftqs_ns} ns{}",
                match ftqs_base {
                    Some(b) => format!(
                        ", baseline {b} ns, speedup {:.2}x",
                        b as f64 / ftqs_ns as f64
                    ),
                    None => String::new(),
                }
            );
        }
    }

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"schema\": \"ftqs-bench-synthesis/6\",");
    let _ = writeln!(json, "  \"reps\": {reps},");
    let _ = writeln!(json, "  \"ftqs_budget\": {base_budget},");
    let _ = writeln!(
        json,
        "  \"parallel_feature\": {},",
        cfg!(feature = "parallel")
    );
    let _ = writeln!(
        json,
        "  \"nproc\": {},",
        std::thread::available_parallelism().map_or(1, usize::from)
    );
    let _ = writeln!(json, "  \"cpu_model\": \"{}\",", cpu_model());
    let _ = writeln!(json, "  \"rustc\": \"{}\",", rustc_version());
    json.push_str("  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"algorithm\": \"{}\", \"processes\": {}",
            r.algorithm, r.processes
        );
        if let Some(b) = r.budget {
            let _ = write!(json, ", \"budget\": {b}");
        }
        let _ = write!(json, ", \"optimized_median_ns\": {}", r.optimized_ns);
        if let Some(b) = r.baseline_ns {
            let _ = write!(
                json,
                ", \"baseline_median_ns\": {b}, \"speedup\": {:.2}",
                b as f64 / r.optimized_ns.max(1) as f64
            );
        }
        json.push('}');
        json.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");

    std::fs::write(&out_path, &json).expect("write BENCH_synthesis.json");
    println!("wrote {out_path}");
}
