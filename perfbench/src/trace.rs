//! In-memory spans recorded around the benchmark's own calls into each layer.
//!
//! A span has a name, a layer, start and end times, the span that caused it
//! and the request it belongs to. The top-level call of a request is its root
//! span. Calls into lower layers are replayed right after the root returns,
//! on identically built state, and recorded as children of the span whose
//! work they reproduce; a span's self time is its duration minus the
//! durations of its children.
//!
//! Self times add up to the root durations by construction, so they cannot
//! test the replays. The attribution check instead asks whether the replays
//! reproduce the real call: the part of a root's duration its replayed
//! children do not explain must fall in a band stated per root call.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::stats::Ledger;

/// Per root call with replayed children: the band its unexplained share,
/// (Σ root durations − Σ their children's durations) / Σ root durations, must
/// fall in. Replays are separate executions, so a share outside the band
/// means they no longer reproduce the work the call does.
pub const BANDS: [(&str, f64, f64); 3] = [
    // The engine's own scheduling, less what its sweep memo saves over the
    // 240 queries run one by one.
    ("psb_batch", -0.10, 0.10),
    // The front end's bookkeeping beside admission, cache and routing.
    ("ResilientRouter::serve_batch", -0.10, 0.15),
    // The replay is one shard-sized base search at k. The read itself
    // searches every shard MINDIST does not prune, over-fetching past each
    // shard's tombstones, and scans each delta buffer: work no lower layer's
    // public call reproduces. So this band bounds the dynamic layer's own
    // share; it does not show that the replay accounts for the read.
    ("DynamicShardRouter::knn", 0.50, 0.99),
];

/// The band of root call `name`, if it has one.
pub fn band(name: &str) -> Option<(f64, f64)> {
    BANDS.iter().find(|b| b.0 == name).map(|b| (b.1, b.2))
}

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub layer: &'static str,
    pub req: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
    /// Wall time of the traced requests as the load loop clocks them, root
    /// calls plus the loop's own per-request work (replays excluded); the
    /// tracing overhead is measured on it.
    pub live_ns: u64,
    pub roots: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer { epoch: Instant::now(), spans: Vec::new(), live_ns: 0, roots: 0 }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        layer: &'static str,
        req: u64,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        let id = self.spans.len();
        self.spans.push(Span { id, parent, name, layer, req, start_ns, end_ns });
        id
    }

    /// Runs `f` inside a span and returns its result, the span id and the
    /// duration in ns.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        req: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> (R, usize, u64) {
        let start = self.now_ns();
        let r = f();
        let end = self.now_ns();
        (r, self.record(name, layer, req, parent, start, end), end - start)
    }

    /// Writes every span as one JSON object per line.
    pub fn to_jsonl(&self) -> String {
        let mut s = String::new();
        for sp in &self.spans {
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                s,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"layer\":\"{}\",\"req\":{},\"start_ns\":{},\"end_ns\":{}}}",
                sp.id, parent, sp.name, sp.layer, sp.req, sp.start_ns, sp.end_ns
            );
        }
        s
    }
}

/// Per span: duration minus the summed durations of its direct children.
pub fn self_times(spans: &[Span]) -> Vec<i64> {
    let mut out: Vec<i64> = spans.iter().map(|s| s.dur_ns() as i64).collect();
    for s in spans {
        if let Some(p) = s.parent {
            out[p] -= s.dur_ns() as i64;
        }
    }
    out
}

/// Per-layer metrics derived from spans: for each span name, the metric its
/// duration feeds, the metric its self time feeds, and the unit scale.
const SPAN_METRICS: [(&str, Option<&str>, Option<&str>, &str); 11] = [
    ("psb_batch", Some("engine.batch_ms"), Some("engine.self_ms"), "ms"),
    ("launch_blocks_fused", Some("gpu.launch_ms"), None, "ms"),
    ("psb_query/simulated", Some("kernels.query_us"), Some("gpu.accounting_us"), "us"),
    ("ResilientRouter::serve_batch", Some("serve.request_us"), Some("serve.self_us"), "us"),
    ("AdmissionControl::try_admit", Some("serve.admission_us"), None, "us"),
    ("QueryCache::get+insert", Some("serve.cache_us"), None, "us"),
    ("ShardRouter::serve_batch", Some("router.route_us"), Some("router.self_us"), "us"),
    ("DynamicShardRouter::knn", Some("dynamic.read_us"), Some("dynamic.read_self_us"), "us"),
    ("knn_best_first", Some("sstree.knn_us"), None, "us"),
    ("DynamicShardRouter::insert", Some("dynamic.insert_us"), None, "us"),
    ("DynamicShardRouter::remove", Some("dynamic.remove_us"), None, "us"),
];

/// Adds one ledger sample per span for the metrics of [`SPAN_METRICS`].
pub fn to_ledger(spans: &[Span], ledger: &mut Ledger) {
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        let Some(&(_, dur, slf, unit)) = SPAN_METRICS.iter().find(|m| m.0 == s.name) else {
            continue;
        };
        let scale = if unit == "ms" { 1e-6 } else { 1e-3 };
        if let Some(name) = dur {
            ledger.sample(name, unit, s.dur_ns() as f64 * scale);
        }
        if let Some(name) = slf {
            ledger.sample(name, unit, self_ns as f64 * scale);
        }
    }
}

/// Checks that every parent exists, precedes its child and belongs to the
/// same request.
pub fn check_structure(spans: &[Span]) -> Result<(), String> {
    for s in spans {
        if let Some(p) = s.parent {
            let parent = spans.get(p).ok_or(format!("span {} has no parent {p}", s.id))?;
            if p >= s.id || parent.req != s.req {
                return Err(format!("span {} ({}) has a foreign parent {p}", s.id, s.name));
            }
        }
    }
    Ok(())
}

/// One root call's attribution: its total duration and the part its replayed
/// children do not explain, in seconds.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Check {
    pub name: &'static str,
    pub calls: u64,
    pub root_s: f64,
    pub unexplained_s: f64,
}

impl Check {
    pub fn frac(&self) -> f64 {
        self.unexplained_s / self.root_s.max(1e-12)
    }

    pub fn holds(&self) -> bool {
        let (lo, hi) = band(self.name).expect("checks exist only for banded calls");
        (lo..=hi).contains(&self.frac())
    }
}

/// The attribution of the traced root calls to layers.
pub struct Attribution {
    /// Self time per layer in seconds, banded roots left out.
    pub rows: BTreeMap<&'static str, f64>,
    /// Summed duration of every root span, in seconds.
    pub total_s: f64,
    /// One entry per banded root call name that occurred.
    pub checks: Vec<Check>,
}

impl Attribution {
    pub fn of(spans: &[Span]) -> Result<Self, String> {
        check_structure(spans)?;
        let mut rows = BTreeMap::new();
        let mut checks = BTreeMap::new();
        let mut total_s = 0.0;
        for (s, self_ns) in spans.iter().zip(self_times(spans)) {
            let self_s = self_ns as f64 * 1e-9;
            if s.parent.is_none() {
                total_s += s.dur_ns() as f64 * 1e-9;
                if band(s.name).is_some() {
                    let c =
                        checks.entry(s.name).or_insert(Check { name: s.name, ..Check::default() });
                    c.calls += 1;
                    c.root_s += s.dur_ns() as f64 * 1e-9;
                    c.unexplained_s += self_s;
                    continue;
                }
            }
            *rows.entry(s.layer).or_insert(0.0) += self_s;
        }
        if checks.is_empty() {
            return Err("the traced loop made no call the attribution check covers".to_string());
        }
        Ok(Attribution { rows, total_s, checks: checks.into_values().collect() })
    }

    pub fn unattributed_s(&self) -> f64 {
        self.checks.iter().map(|c| c.unexplained_s).sum()
    }

    /// Unexplained share of the banded root calls' time.
    pub fn unattributed_frac(&self) -> f64 {
        self.unattributed_s() / self.checks.iter().map(|c| c.root_s).sum::<f64>().max(1e-12)
    }

    pub fn holds(&self) -> bool {
        self.checks.iter().all(Check::holds)
    }

    pub fn table(&self) -> String {
        let mut s = String::from("layer                      self_s      share\n");
        let rows = self.rows.iter().map(|(k, v)| (*k, *v));
        for (layer, v) in rows.chain([("unattributed", self.unattributed_s())]) {
            let _ = writeln!(s, "{layer:<24} {v:>10.4} {:>9.2}%", 100.0 * v / self.total_s);
        }
        for c in &self.checks {
            let (lo, hi) = band(c.name).expect("banded");
            let _ = writeln!(
                s,
                "{}: {} calls, {:.3} s; replays leave {:.2}% unexplained (band {:.0}% to {:.0}%): {}",
                c.name,
                c.calls,
                c.root_s,
                100.0 * c.frac(),
                100.0 * lo,
                100.0 * hi,
                if c.holds() { "ok" } else { "FAILED" }
            );
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, layer: &'static str, start: u64, end: u64) -> Span {
        Span { id, parent, name: layer, layer, req: 0, start_ns: start, end_ns: end }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root 0..100 has children 1 (10..40) and 2 (50..60); 1 has child 3.
        let spans = vec![
            span(0, None, "serve", 0, 100),
            span(1, Some(0), "router", 110, 140),
            span(2, Some(0), "cache", 150, 160),
            span(3, Some(1), "kernel", 200, 225),
        ];
        assert_eq!(self_times(&spans), vec![60, 5, 10, 25]);
        assert_eq!(self_times(&spans).iter().sum::<i64>(), 100, "self times telescope to the root");
    }

    #[test]
    fn replayed_children_can_exceed_their_parent() {
        let spans = vec![span(0, None, "engine", 0, 10), span(1, Some(0), "kernel", 20, 35)];
        assert_eq!(self_times(&spans), vec![-5, 15]);
    }

    #[test]
    fn spans_feed_duration_and_self_metrics() {
        let spans = vec![
            span(0, None, "psb_batch", 0, 3_000_000),
            span(1, Some(0), "launch_blocks_fused", 0, 1_000_000),
        ];
        let mut l = Ledger::default();
        to_ledger(&spans, &mut l);
        let value = |name: &str| l.metrics().into_iter().find(|m| m.name == name).map(|m| m.value);
        assert_eq!(value("engine.batch_ms"), Some(3.0));
        assert_eq!(value("engine.self_ms"), Some(2.0));
        assert_eq!(value("gpu.launch_ms"), Some(1.0));
    }

    #[test]
    fn structure_check_rejects_dangling_and_foreign_parents() {
        let mut spans = vec![span(0, None, "a", 0, 1), span(1, Some(0), "b", 1, 2)];
        assert!(check_structure(&spans).is_ok());
        spans[1].req = 7;
        assert!(check_structure(&spans).is_err());
        spans[1].req = 0;
        spans[1].parent = Some(5);
        assert!(check_structure(&spans).is_err());
    }

    #[test]
    fn attribution_compares_each_root_with_its_replays() {
        let mut spans = vec![
            // A batch whose replays explain 95 of its 100 ns.
            Span { name: "psb_batch", ..span(0, None, "engine", 0, 100) },
            span(1, Some(0), "kernel", 100, 180),
            span(2, Some(0), "launch", 180, 195),
            // A root without a band is a layer row, not part of the check.
            span(3, None, "writes", 200, 260),
        ];
        let a = Attribution::of(&spans).expect("well-formed spans");
        assert_eq!(a.checks.len(), 1);
        assert!((a.unattributed_s() - 5e-9).abs() < 1e-15);
        assert!((a.unattributed_frac() - 0.05).abs() < 1e-9);
        assert!(a.holds());
        assert!((a.rows["writes"] - 60e-9).abs() < 1e-15);
        assert!(a.table().contains("unattributed"));
        // Replays that miss half of the call's work fail the check.
        spans[1].end_ns = 130;
        let a = Attribution::of(&spans).expect("well-formed spans");
        assert!((a.unattributed_frac() - 0.55).abs() < 1e-9);
        assert!(!a.holds());
        // So do replays that cost far more than the call.
        spans[1].end_ns = 300;
        assert!(!Attribution::of(&spans).expect("well-formed spans").holds());
    }

    #[test]
    fn attribution_needs_a_checked_call() {
        let spans = vec![span(0, None, "writes", 0, 10)];
        assert!(Attribution::of(&spans).is_err());
    }
}
