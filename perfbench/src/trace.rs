//! In-memory spans recorded around calls into the program's crates.
//!
//! A span holds a name, its start and end, the span that caused it and the
//! application or request id it belongs to. Spans stay in memory during the
//! timed phase and are written out when the run ends. A span's self time
//! is its duration minus the part of it that its children cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: Instant,
    pub end: Instant,
    pub parent: Option<usize>,
    pub id: u64,
}

impl Span {
    pub fn duration(&self) -> Duration {
        self.end.saturating_duration_since(self.start)
    }
}

/// Records nested spans when enabled; otherwise only runs the closures.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name`, a child of the innermost open
    /// span.
    pub fn span<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let start = Instant::now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.stack.last().copied(),
            id,
        });
        self.stack.push(index);
        let out = f(self);
        self.stack.pop();
        self.spans[index].end = Instant::now();
        out
    }

    /// Records an interval measured elsewhere as a child of `parent`
    /// (or of the innermost open span when `parent` is `None`). Returns
    /// its index.
    pub fn record(
        &mut self,
        name: &'static str,
        id: u64,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            name,
            start,
            end,
            parent: parent.or_else(|| self.stack.last().copied()),
            id,
        });
        Some(self.spans.len() - 1)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, each clipped to the parent.
pub fn self_times(spans: &[Span]) -> Vec<Duration> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(parent, kids)| {
            let mut intervals: Vec<(Instant, Instant)> = kids
                .iter()
                .map(|&k| {
                    (
                        spans[k].start.max(parent.start),
                        spans[k].end.min(parent.end),
                    )
                })
                .filter(|(a, b)| a < b)
                .collect();
            intervals.sort();
            let mut covered = Duration::ZERO;
            let mut reach: Option<Instant> = None;
            for (a, b) in intervals {
                let a = reach.map_or(a, |r| a.max(r));
                if b > a {
                    covered += b - a;
                }
                reach = Some(reach.map_or(b, |r| r.max(b)));
            }
            parent.duration().saturating_sub(covered)
        })
        .collect()
}

/// Total self time in milliseconds per span name.
pub fn self_ms_by_name(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.name).or_insert(0.0) += t.as_secs_f64() * 1e3;
    }
    out
}

/// Inclusive durations in milliseconds of every span named `name`.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration().as_secs_f64() * 1e3)
        .collect()
}

/// Estimated tracing overhead, in percent of `wall`: `live_spans` times
/// the cost of recording one span, measured here on a scratch tracer.
/// Spans cost tens of nanoseconds, far below the run-to-run spread of
/// two separate runs, so an A/B of a traced and an untraced run could
/// not resolve them.
pub fn overhead_pct(live_spans: usize, wall: Duration) -> f64 {
    const CALIBRATION: u32 = 100_000;
    let mut scratch = Tracer::new(true);
    let t = Instant::now();
    for i in 0..CALIBRATION {
        scratch.span("calibration", u64::from(i), |t| {
            std::hint::black_box(t);
        });
    }
    let per_span = t.elapsed() / CALIBRATION;
    100.0 * per_span.as_secs_f64() * live_spans as f64 / wall.as_secs_f64()
}

/// Writes one tab-separated line per span: index, parent, id, name,
/// start and end in microseconds since `origin`, and self time.
pub fn write_tsv(spans: &[Span], origin: Instant, path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "index\tparent\tid\tname\tstart_us\tend_us\tself_us")?;
    let us = |t: Instant| t.saturating_duration_since(origin).as_secs_f64() * 1e6;
    for (i, (s, own)) in spans.iter().zip(self_times(spans)).enumerate() {
        let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{i}\t{parent}\t{}\t{}\t{:.1}\t{:.1}\t{:.1}",
            s.id,
            s.name,
            us(s.start),
            us(s.end),
            own.as_secs_f64() * 1e6
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(origin: Instant, ms: u64) -> Instant {
        origin + Duration::from_millis(ms)
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let o = Instant::now();
        let mut t = Tracer::new(true);
        let root = t.record("root", 0, at(o, 0), at(o, 100), None);
        // Two overlapping children cover 10..50 (40 ms) and one more
        // child covers 60..70; a grandchild covers part of the first.
        let a = t.record("a", 1, at(o, 10), at(o, 40), root);
        t.record("b", 1, at(o, 30), at(o, 50), root);
        t.record("c", 2, at(o, 60), at(o, 70), root);
        t.record("a.inner", 1, at(o, 15), at(o, 20), a);
        // A child poking out of its parent is clipped to it.
        t.record("late", 3, at(o, 95), at(o, 120), root);
        let own = self_times(t.spans());
        let ms = |d: Duration| d.as_millis();
        assert_eq!(ms(own[0]), 100 - 40 - 10 - 5);
        assert_eq!(ms(own[1]), 30 - 5);
        assert_eq!(ms(own[2]), 20);
        assert_eq!(ms(own[4]), 5);
    }

    #[test]
    fn self_times_of_a_nested_tree_sum_to_the_root() {
        let o = Instant::now();
        let mut t = Tracer::new(true);
        let root = t.record("root", 0, at(o, 0), at(o, 100), None);
        let app = t.record("app", 1, at(o, 5), at(o, 90), root);
        t.record("core", 1, at(o, 10), at(o, 60), app);
        t.record("sim", 1, at(o, 60), at(o, 85), app);
        let by_name = self_ms_by_name(t.spans());
        assert_eq!(by_name["root"].round(), 15.0);
        assert_eq!(by_name["app"].round(), 10.0);
        let total: f64 = by_name.values().sum();
        assert!((total - 100.0).abs() < 1e-6, "{total}");
    }

    #[test]
    fn nested_closures_set_parents_and_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(true);
        let v = t.span("outer", 7, |t| t.span("inner", 7, |_| 41) + 1);
        assert_eq!(v, 42);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[0].parent, None);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(t.spans()[1].start >= t.spans()[0].start);
        assert!(t.spans()[1].end <= t.spans()[0].end);

        let mut off = Tracer::new(false);
        assert_eq!(off.span("outer", 0, |t| t.span("inner", 0, |_| 3)), 3);
        assert!(off
            .record("x", 0, Instant::now(), Instant::now(), None)
            .is_none());
        assert!(off.spans().is_empty());
    }
}
