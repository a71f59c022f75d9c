//! Sample summaries and the metric ledger.
//!
//! Every timed metric is summarised as its median plus the highest
//! percentile that still has at least [`TAIL_BEYOND`] samples above it, with
//! the sample count beside it.

use std::collections::BTreeMap;

/// Percentile levels a tail may be reported at, highest first.
pub const TAIL_LADDER: [f64; 4] = [99.9, 99.0, 90.0, 50.0];

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice: the smallest sample with at
/// least `p`% of the samples at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples. The small
/// guard keeps float error in `p * n` from bumping an exact rank up by one.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Samples strictly above the nearest-rank position of `p`.
pub fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// The highest ladder level with at least [`TAIL_BEYOND`] samples beyond it.
/// Fewer than 20 samples leave no such level; the median stands in.
pub fn tail_level(n: usize) -> f64 {
    TAIL_LADDER.into_iter().find(|&p| beyond(n, p) >= TAIL_BEYOND).unwrap_or(50.0)
}

/// Median of an ascending slice (mean of the middle pair for even counts).
pub fn median(sorted: &[f64]) -> f64 {
    assert!(!sorted.is_empty(), "median of no samples");
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The percentile at which [`fast_level`] reads a run's windows.
pub const FAST_PCT: f64 = 5.0;

/// The level a statistic reaches in a run's faster windows: `stat` of each
/// consecutive window of `window` samples, in time order, read at the
/// [`FAST_PCT`] percentile (lower is faster). A remainder shorter than a
/// window is left out unless there is no full window.
///
/// A shared host runs each vCPU in a fast and a slow state, for seconds at a
/// time and in shares that change from run to run. A statistic of the whole
/// run follows those shares; this one follows the program in the fast state,
/// as long as a twentieth of the run's windows fall in it. A program that is
/// slower in every window is slower here by the same factor. Windows must be
/// long enough to hold the workload's mix of requests, or the level reads the
/// cheapest part of the mix instead.
pub fn fast_level(samples: &[f64], window: usize, stat: impl Fn(&[f64]) -> f64) -> f64 {
    let mut per: Vec<f64> = samples.chunks_exact(window).map(&stat).collect();
    if per.is_empty() {
        per.push(stat(samples));
    }
    percentile(&sorted(&per), FAST_PCT)
}

/// Median of samples in any order.
pub fn median_of(samples: &[f64]) -> f64 {
    median(&sorted(samples))
}

/// Sorts a copy of `samples` ascending.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median, tail and count of one timed metric.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub tail: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Self {
        let s = sorted(samples);
        Summary { median: median(&s), tail: percentile(&s, tail_level(s.len())), n: s.len() }
    }
}

/// One reported metric value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Named samples and values gathered during a run.
#[derive(Default)]
pub struct Ledger {
    timed: BTreeMap<String, (&'static str, Vec<f64>)>,
    values: BTreeMap<String, (&'static str, f64)>,
}

impl Ledger {
    /// Adds one sample of a timed metric.
    pub fn sample(&mut self, name: &str, unit: &'static str, v: f64) {
        self.timed.entry(name.to_string()).or_insert_with(|| (unit, Vec::new())).1.push(v);
    }

    /// Sets a single-valued metric.
    pub fn set(&mut self, name: &str, unit: &'static str, v: f64) {
        self.values.insert(name.to_string(), (unit, v));
    }

    /// Every metric: timed ones expand to `name` (median), `name.tail` and
    /// `name.n`.
    pub fn metrics(&self) -> Vec<Metric> {
        let mut out = Vec::new();
        for (name, (unit, samples)) in &self.timed {
            let s = Summary::of(samples);
            out.push(Metric { name: name.clone(), value: s.median, unit });
            out.push(Metric { name: format!("{name}.tail"), value: s.tail, unit });
            out.push(Metric { name: format!("{name}.n"), value: s.n as f64, unit: "count" });
        }
        for (name, (unit, v)) in &self.values {
            out.push(Metric { name: name.clone(), value: *v, unit });
        }
        out.sort_by(|a, b| a.name.cmp(&b.name));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.9), 7.0);
    }

    #[test]
    fn tail_is_highest_level_with_ten_beyond() {
        // 1000 samples: p99 leaves exactly 10 beyond, p99.9 only 1.
        assert_eq!(tail_level(1000), 99.0);
        assert_eq!(beyond(1000, 99.0), 10);
        // 999 samples: p99 leaves 9 beyond, so the tail drops to p90.
        assert_eq!(tail_level(999), 90.0);
        assert_eq!(tail_level(10_000), 99.9);
        assert_eq!(tail_level(100), 90.0);
        assert_eq!(tail_level(20), 50.0);
        assert_eq!(tail_level(3), 50.0);
    }

    #[test]
    fn fast_level_reads_the_faster_windows() {
        // Twenty windows of four: twelve fast ones (medians 10 or 11) among
        // slow ones (medians 30). The 5th percentile of the twenty medians
        // is the smallest.
        let mut run = Vec::new();
        for w in 0..20 {
            let level = match w % 5 {
                0 => 10.0,
                1 | 2 => 11.0,
                _ => 30.0,
            };
            run.extend([level - 1.0, level, level, level + 5.0]);
        }
        assert_eq!(fast_level(&run, 4, median_of), 10.0);
        // Slowing every sample by 1.5x moves the level by the same factor.
        let slower: Vec<f64> = run.iter().map(|x| x * 1.5).collect();
        assert_eq!(fast_level(&slower, 4, median_of), 15.0);
        // Window sums give the time of a window's work.
        assert_eq!(fast_level(&run, 4, |w| w.iter().sum()), 44.0);
        // Fewer samples than a window: the statistic of them all.
        assert_eq!(fast_level(&[4.0, 2.0, 9.0], 8, median_of), 4.0);
        // A remainder shorter than a window is left out.
        assert_eq!(fast_level(&[1.0, 1.0, 0.0], 2, median_of), 1.0);
    }

    #[test]
    fn summary_reports_median_tail_and_count() {
        let samples: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let s = Summary::of(&samples);
        assert_eq!(s.median, 500.5);
        assert_eq!(s.tail, 990.0, "p99 of 1..=1000");
        assert_eq!(s.n, 1000);
    }

    #[test]
    fn ledger_expands_timed_metrics() {
        let mut l = Ledger::default();
        l.sample("x_us", "us", 2.0);
        l.sample("x_us", "us", 4.0);
        l.set("y", "count", 3.0);
        let m = l.metrics();
        let names: Vec<&str> = m.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, ["x_us", "x_us.n", "x_us.tail", "y"]);
        assert_eq!(m[0].value, 3.0);
        assert_eq!(m[1].value, 2.0);
    }
}
