//! Golden-output tests for the CLI's `--format json` reports.
//!
//! The JSON shapes are an interface: batch pipelines and embedded-runtime
//! tooling parse them, so field order (serde declaration order) and value
//! layout must stay stable. Each golden file under `tests/golden/` is the
//! exact expected output on the paper's Fig. 1 example with fixed seeds;
//! the only nondeterministic field — `timing.synthesis_micros` — is
//! normalized to 0 on both sides before comparison.
//!
//! To regenerate after an *intentional* schema change:
//!
//! ```text
//! cargo run -p ftqs-cli --bin ftqs -- tree --example --budget 4 --format json
//! cargo run -p ftqs-cli --bin ftqs -- compare --example --scenarios 50 --budget 4 --seed 3 --format json
//! cargo run -p ftqs-cli --bin ftqs -- info --example --format json
//! ```
//!
//! (normalize `synthesis_micros` to 0 by hand) — and read the diff; every
//! changed line is a consumer-visible schema change.

use ftqs_cli::{compare, info, run, tree, OutputFormat, TreeFormat};

/// Zeroes the value of every `"synthesis_micros": N` occurrence — the one
/// wall-clock field in a report.
fn normalize_timing(json: &str) -> String {
    let needle = "\"synthesis_micros\": ";
    let mut out = String::with_capacity(json.len());
    let mut rest = json;
    while let Some(at) = rest.find(needle) {
        let value_start = at + needle.len();
        out.push_str(&rest[..value_start]);
        let tail = &rest[value_start..];
        let digits = tail.chars().take_while(char::is_ascii_digit).count();
        out.push('0');
        rest = &tail[digits..];
    }
    out.push_str(rest);
    out
}

fn assert_matches_golden(actual: &str, golden: &str, name: &str) {
    let actual = normalize_timing(actual);
    let golden = normalize_timing(golden);
    if actual != golden {
        // Locate the first diverging line for a readable failure.
        for (i, (a, g)) in actual.lines().zip(golden.lines()).enumerate() {
            assert_eq!(
                a,
                g,
                "golden mismatch in {name} at line {} — schema drift is a \
                 consumer-visible break; regenerate deliberately (see module docs)",
                i + 1
            );
        }
        assert_eq!(
            actual.lines().count(),
            golden.lines().count(),
            "golden mismatch in {name}: line counts differ"
        );
        panic!("golden mismatch in {name}");
    }
}

#[test]
fn tree_json_matches_golden() {
    let actual = tree("--example", 4, TreeFormat::Json).unwrap();
    assert_matches_golden(
        &actual,
        include_str!("golden/tree_fig1_budget4.json"),
        "tree --example --budget 4 --format json",
    );
}

#[test]
fn tree_json_exposes_checkpoint_counters() {
    // The expansion stats are part of the public report schema: batch
    // pipelines read these counters to see what checkpointing saved.
    let actual = tree("--example", 4, TreeFormat::Json).unwrap();
    for field in [
        "\"expansion\"",
        "\"snapshots\"",
        "\"restores\"",
        "\"prefix_steps_saved\"",
    ] {
        assert!(
            actual.contains(field),
            "tree --format json lost the {field} checkpoint counter"
        );
    }
}

#[test]
fn compare_json_matches_golden() {
    let actual = compare("--example", 50, 4, 3, OutputFormat::Json).unwrap();
    assert_matches_golden(
        &actual,
        include_str!("golden/compare_fig1_s50_b4_seed3.json"),
        "compare --example --scenarios 50 --budget 4 --seed 3 --format json",
    );
}

#[test]
fn info_json_matches_golden() {
    let actual = info("--example", OutputFormat::Json).unwrap();
    assert_matches_golden(
        &actual,
        include_str!("golden/info_fig1.json"),
        "info --example --format json",
    );
}

#[test]
fn goldens_hold_through_the_argv_dispatcher() {
    // The same bytes must come out of the full `ftqs tree ... --json` path.
    let args: Vec<String> = ["tree", "--example", "--budget", "4", "--json"]
        .iter()
        .map(ToString::to_string)
        .collect();
    let actual = run(&args).unwrap();
    assert_matches_golden(
        &actual,
        include_str!("golden/tree_fig1_budget4.json"),
        "argv tree --json",
    );
}

#[test]
fn normalize_timing_only_touches_the_timing_field() {
    let s = "{\n  \"synthesis_micros\": 123456,\n  \"other\": 123\n}";
    assert_eq!(
        normalize_timing(s),
        "{\n  \"synthesis_micros\": 0,\n  \"other\": 123\n}"
    );
}
