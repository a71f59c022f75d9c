//! Pieces every workload shares: run settings, the report, a seeded RNG, the
//! simulator counters and the single-layer micro probes.

use std::time::{Duration, Instant};

use psb_core::kernels::psb::psb_query;
use psb_core::{GpuIndex, KernelOptions, Metering};
use psb_geom::{DistKernel, PointSet};
use psb_gpu::{DeviceConfig, KernelStats, Phase};
use psb_sstree::{build, BuildMethod, SsTree};

use crate::stats::Ledger;

pub const SSTREE: &str = "psb-sstree";
pub const GPU: &str = "psb-gpu";
pub const KERNELS: &str = "psb-core/kernels";
pub const ENGINE: &str = "psb-core/engine";
pub const RESILIENT: &str = "psb-serve/resilient";
pub const ADMISSION: &str = "psb-serve/admission";
pub const ROUTER: &str = "psb-serve/router";
pub const DYNAMIC: &str = "psb-serve/dynamic";

/// SS-tree fan-out used by every index the benchmark builds.
pub const DEGREE: usize = 16;

/// Neighbors per query in every workload.
pub const K: usize = 8;

/// Seed of every workload's dataset. The dataset is the same in every run;
/// `--seed` varies the queries, the operation stream and the fault plans, so
/// runs with different seeds measure the same index.
pub const DATA_SEED: u64 = 2016;

/// Queries the simulated-device metrics average over.
pub const SIM_QUERIES: usize = 2_400;

#[derive(Clone, Copy, Debug)]
pub struct Cfg {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Cfg {
    /// A share of the run's measuring time.
    pub fn share(&self, frac: f64) -> Duration {
        Duration::from_secs_f64(self.seconds * frac)
    }
}

/// What a workload run hands back to `main`.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub ledger: Ledger,
}

/// SplitMix64: a small seeded generator for the benchmark's own choices.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Derives an independent seed for one input of a workload.
pub fn subseed(seed: u64, salt: u64) -> u64 {
    Rng::new(seed ^ salt.wrapping_mul(0xA24B_AED4_963E_E407)).next_u64()
}

/// A seeded shuffle of `0..n`.
pub fn permutation(n: usize, seed: u64) -> Vec<u32> {
    let mut rng = Rng::new(seed);
    let mut p: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        p.swap(i, rng.below(i + 1));
    }
    p
}

/// A one-query point set.
pub fn single(q: &[f32]) -> PointSet {
    PointSet::from_flat(q.len(), q.to_vec())
}

/// `count` consecutive queries of `qs` starting at `from`, wrapping around.
pub fn batch_of(qs: &PointSet, from: usize, count: usize) -> PointSet {
    let mut b = PointSet::with_capacity(qs.dims(), count);
    for i in 0..count {
        b.push(qs.point((from + i) % qs.len()));
    }
    b
}

pub fn build_tree(points: &PointSet) -> SsTree {
    build(points, DEGREE, &BuildMethod::Hilbert)
}

/// Set-up times of one run. The first build is timed before the run
/// measures anything; the rest are spread evenly over its measuring loop,
/// between calls and outside every timed region. Builds made in a row all
/// see the host in whatever state it is in at that moment, so their median
/// would jump between the host's fast and slow levels from run to run;
/// spread over the run, it moves with the share of each.
pub struct SetupTimes {
    reps: usize,
    secs: Vec<f64>,
}

impl SetupTimes {
    pub fn new(reps: usize) -> Self {
        assert!(reps > 0);
        SetupTimes { reps, secs: Vec::with_capacity(reps) }
    }

    /// Times one build and returns what it built.
    pub fn time<R>(&mut self, build: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = build();
        self.secs.push(t.elapsed().as_secs_f64());
        r
    }

    /// In a loop `done` of the way through its measuring time (0 to 1):
    /// times one more build, and drops it, if the next one is due. Returns
    /// the wall time spent, which the loop leaves out of its budget.
    pub fn during<R>(&mut self, done: f64, build: impl FnOnce() -> R) -> Duration {
        let next = self.secs.len();
        if next == 0 || next >= self.reps || done < next as f64 / self.reps as f64 {
            return Duration::ZERO;
        }
        let t = Instant::now();
        drop(self.time(build));
        t.elapsed()
    }

    /// The median set-up time, after timing any builds a short loop left.
    pub fn median(mut self, mut build: impl FnMut()) -> f64 {
        while self.secs.len() < self.reps {
            self.time(&mut build);
        }
        crate::stats::median_of(&self.secs)
    }
}

pub fn sim_opts() -> KernelOptions {
    KernelOptions { metering: Metering::Simulated, ..KernelOptions::default() }
}

pub fn off_opts() -> KernelOptions {
    KernelOptions { metering: Metering::Off, ..KernelOptions::default() }
}

/// Simulator counters merged over every metered kernel call a run replays.
#[derive(Default)]
pub struct GpuCounts {
    merged: KernelStats,
    queries: u64,
}

impl GpuCounts {
    pub fn add(&mut self, st: &KernelStats) {
        self.merged.merge(st);
        self.queries += 1;
    }

    pub fn into_ledger(self, l: &mut Ledger) {
        if self.queries == 0 {
            return;
        }
        let m = &self.merged;
        let per_q = |v: u64| v as f64 / self.queries as f64;
        let phases = [
            ("descend", Phase::Descend),
            ("leaf_scan", Phase::LeafScan),
            ("backtrack", Phase::Backtrack),
        ];
        for (name, p) in phases {
            let ph = m.phase(p);
            l.set(&format!("kernels.nodes_visited.{name}"), "count/query", per_q(ph.nodes_visited));
            l.set(&format!("gpu.warp_efficiency.{name}"), "fraction", ph.warp_efficiency());
        }
        l.set("kernels.backtracks", "count/query", per_q(m.backtracks));
        l.set("gpu.warp_efficiency", "fraction", m.warp_efficiency());
        l.set("gpu.global_mb", "MB/query", m.accessed_mb() / self.queries as f64);
        l.set("gpu.transactions", "count/query", per_q(m.global_transactions));
        let stream = m.stream_transactions as f64 / m.global_transactions.max(1) as f64;
        l.set("gpu.stream_fraction", "fraction", stream);
    }
}

/// One PSB query replayed under both metering modes: the simulated call as a
/// child of `parent`, the unmetered call as its child, so the simulated span's
/// self time is the accounting cost.
pub fn replay_query(
    tracer: &mut crate::trace::Tracer,
    tree: &SsTree,
    q: &[f32],
    req: u64,
    parent: usize,
    dev: &DeviceConfig,
    gpu: &mut GpuCounts,
) {
    let ((_, st), sim, _) = tracer.time("psb_query/simulated", GPU, req, Some(parent), || {
        psb_query(tree, q, K, dev, &sim_opts())
    });
    tracer
        .time("psb_query/off", KERNELS, req, Some(sim), || psb_query(tree, q, K, dev, &off_opts()));
    gpu.add(&st);
}

/// Single-layer probes over a workload's own points and queries:
/// `geom.dist_ns` (one query against 256 consecutive rows, per distance),
/// `sstree.build_s` over all points and, for a sharded workload,
/// `sstree.shard_build_s` over one of its shards.
pub fn micro_probes(
    points: &PointSet,
    queries: &PointSet,
    shard: Option<&PointSet>,
    l: &mut Ledger,
) {
    const ROWS: usize = 256;
    let dims = points.dims();
    let kern = DistKernel::for_dims(dims);
    let mut out = Vec::with_capacity(ROWS);
    let blocks = points.len() / ROWS;
    for i in 0..4000 {
        let q = queries.point(i % queries.len());
        let b = (i * 7919) % blocks;
        let rows = &points.as_flat()[b * ROWS * dims..(b + 1) * ROWS * dims];
        out.clear();
        let t = Instant::now();
        kern.sq_rows(q, rows, &mut out);
        let ns = t.elapsed().as_nanos() as f64;
        std::hint::black_box(&out);
        l.sample("geom.dist_ns", "ns", ns / ROWS as f64);
    }
    for _ in 0..3 {
        let t = Instant::now();
        std::hint::black_box(build_tree(points).num_points());
        l.sample("sstree.build_s", "s", t.elapsed().as_secs_f64());
    }
    if let Some(shard) = shard {
        for _ in 0..5 {
            let t = Instant::now();
            std::hint::black_box(build_tree(shard).num_points());
            l.sample("sstree.shard_build_s", "s", t.elapsed().as_secs_f64());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setup_builds_are_spread_over_the_loop() {
        let mut builds = 0;
        let mut setup = SetupTimes::new(3);
        setup.time(|| builds += 1);
        // Due at a third and at two thirds of the loop, once each.
        for done in [0.0, 0.2, 0.34, 0.5, 0.6, 0.7, 0.9, 0.99] {
            setup.during(done, || builds += 1);
        }
        assert_eq!(builds, 3);
        assert_eq!(setup.secs.len(), 3);
        // A loop cut short leaves builds for the end.
        let mut short = SetupTimes::new(4);
        short.time(|| ());
        short.during(0.3, || ());
        let mut left = 0;
        assert!(short.median(|| left += 1) >= 0.0);
        assert_eq!(left, 2);
    }
}
