//! `batch-hd16`: one closed-loop client submitting 240-query batches of 16-d
//! queries through `psb_batch` with default `KernelOptions`.

use std::time::{Duration, Instant};

use psb_core::{psb_batch, GpuIndex, KernelOptions};
use psb_data::{sample_queries, ClusteredSpec};
use psb_geom::PointSet;
use psb_gpu::{launch_blocks_fused, DeviceConfig};
use psb_sstree::{Neighbor, SsTree};

use crate::common::*;
use crate::oracle;
use crate::stats::{median_of, percentile, sorted, FAST_PCT};
use crate::trace::Tracer;

pub const DIMS: usize = 16;
pub const CLUSTERS: usize = 100;
pub const PER_CLUSTER: usize = 1_000;
pub const SIGMA: f32 = 1_280.0;
/// Queries per batch, the paper's §V-B batch size.
pub const BATCH: usize = 240;
/// Distinct batches the client cycles through.
pub const POOL: usize = 8;
/// Tree builds timed for `setup_s`.
pub const SETUP_REPS: usize = 5;

pub fn data(seed: u64) -> (PointSet, Vec<PointSet>) {
    let points = ClusteredSpec {
        clusters: CLUSTERS,
        points_per_cluster: PER_CLUSTER,
        dims: DIMS,
        sigma: SIGMA,
        seed: DATA_SEED,
    }
    .generate();
    let pool = (0..POOL as u64)
        .map(|b| sample_queries(&points, BATCH, 0.01, subseed(seed, 100 + b)))
        .collect();
    (points, pool)
}

pub fn run(cfg: &Cfg) -> Result<Report, String> {
    let dev = DeviceConfig::k40();
    let (points, pool) = data(cfg.seed);
    let mut rep = Report::default();
    let mut setup = SetupTimes::new(SETUP_REPS);
    let tree = setup.time(|| build_tree(&points));
    if cfg.trace {
        traced(cfg, &points, &pool, &tree, &dev, &mut rep)?;
        return Ok(rep);
    }
    let l = &mut rep.ledger;
    l.set("index_bytes_per_point", "B", tree.index_bytes() as f64 / points.len() as f64);
    // Simulated cost, averaged over every batch of the pool.
    let (mut sim_ms, mut sim_mb) = (0.0, 0.0);
    for qs in &pool {
        let r = psb_batch(&tree, qs, K, &dev, &sim_opts()).map_err(|e| e.to_string())?.report;
        sim_ms += r.avg_response_ms / POOL as f64;
        sim_mb += r.avg_accessed_mb / POOL as f64;
    }
    l.set("sim_response_ms", "ms", sim_ms);
    l.set("sim_accessed_mb", "MB", sim_mb);

    let opts = KernelOptions::default();
    let mut answers = Answers::new(POOL);
    let mut lat_us = Vec::new();
    let started = Instant::now();
    let mut paused = Duration::ZERO;
    let mut b = 0;
    while started.elapsed() - paused < cfg.share(1.0) {
        let done = (started.elapsed() - paused).as_secs_f64() / cfg.seconds;
        paused += setup.during(done, || build_tree(&points));
        let qs = &pool[b % POOL];
        let t = Instant::now();
        let res = psb_batch(&tree, qs, K, &dev, &opts);
        lat_us.push(t.elapsed().as_secs_f64() * 1e6);
        rep.attempted += BATCH as u64;
        match res {
            Err(_) => rep.failed += BATCH as u64,
            Ok(r) => rep.failed += answers.keep(b % POOL, r.neighbors),
        }
        b += 1;
    }
    rep.failed += answers.check(&points, &pool, &dev);
    // Each distinct batch at its fast level, the 5th percentile of its runs
    // (see `stats::fast_level`): the mix of batches sets p50, not the
    // host's state.
    let fast: Vec<f64> = (0..POOL.min(lat_us.len()))
        .map(|b| {
            let runs: Vec<f64> = lat_us.iter().skip(b).step_by(POOL).copied().collect();
            percentile(&sorted(&runs), FAST_PCT)
        })
        .collect();
    let l = &mut rep.ledger;
    l.set("setup_s", "s", setup.median(|| drop(build_tree(&points))));
    l.set("qps", "1/s", (BATCH * fast.len()) as f64 / (fast.iter().sum::<f64>() * 1e-6));
    l.set("p50_us", "us", median_of(&fast));
    l.set("answered_frac", "fraction", 1.0 - rep.failed as f64 / rep.attempted as f64);
    Ok(rep)
}

fn traced(
    cfg: &Cfg,
    points: &PointSet,
    pool: &[PointSet],
    tree: &SsTree,
    dev: &DeviceConfig,
    rep: &mut Report,
) -> Result<(), String> {
    // Untraced baseline over the same batches, for the tracing overhead.
    let opts = KernelOptions::default();
    let mut base_us = Vec::new();
    let started = Instant::now();
    let mut last_end: Option<Instant> = None;
    while started.elapsed() < cfg.share(0.25) {
        let t = Instant::now();
        if let Some(end) = last_end {
            rep.ledger.sample("loadgen.lag_us", "us", (t - end).as_secs_f64() * 1e6);
        }
        let _ = psb_batch(tree, &pool[base_us.len() % POOL], K, dev, &opts);
        base_us.push(t.elapsed().as_secs_f64() * 1e6);
        last_end = Some(Instant::now());
    }
    // A closed loop never queues.
    rep.ledger.set("loadgen.backlog", "count", 0.0);
    let mut tracer = Tracer::new();
    let mut gpu = GpuCounts::default();
    let mut answers = Answers::new(POOL);
    let (attempted, failed) =
        traced_batches(tree, pool, dev, cfg.share(0.5), &mut tracer, &mut gpu, &mut answers);
    rep.attempted += attempted;
    rep.failed += failed + answers.check(points, pool, dev);
    crate::finish_trace(cfg, "batch-hd16", &tracer, &base_us, gpu, &mut rep.ledger)?;
    micro_probes(points, &pool[0], None, &mut rep.ledger);
    Ok(())
}

/// The answers to each distinct batch of a pool: the first run's are kept for
/// the oracle, later runs must repeat them exactly.
struct Answers {
    first: Vec<Option<Vec<Vec<Neighbor>>>>,
    runs: Vec<u64>,
}

impl Answers {
    pub fn new(batches: usize) -> Self {
        Answers { first: vec![None; batches], runs: vec![0; batches] }
    }

    /// Records a run of batch `b`; returns how many answers differ from the
    /// batch's first run.
    pub fn keep(&mut self, b: usize, got: Vec<Vec<Neighbor>>) -> u64 {
        self.runs[b] += 1;
        match &self.first[b] {
            None => {
                self.first[b] = Some(got);
                0
            }
            Some(first) => {
                first.iter().zip(&got).filter(|(a, g)| !oracle::matches(a, g)).count() as u64
            }
        }
    }

    /// Checks every first answer against the brute oracle; a wrong first
    /// answer counts once per run of its batch, since every later run
    /// repeated it.
    pub fn check(&self, points: &PointSet, pool: &[PointSet], dev: &DeviceConfig) -> u64 {
        let mut failed = 0;
        for ((qs, first), runs) in pool.iter().zip(&self.first).zip(&self.runs) {
            let Some(first) = first else { continue };
            for (i, got) in first.iter().enumerate() {
                if !oracle::matches(&oracle::brute(points, qs.point(i), K, dev), got) {
                    failed += runs;
                }
            }
        }
        failed
    }
}

/// Traced closed loop over `batches`: each real `psb_batch` call is the root
/// span; every query is then replayed through `psb_query` under both
/// metering modes, and the engine's launch aggregation through
/// `launch_blocks_fused`. Returns (queries attempted, queries failed).
fn traced_batches(
    tree: &SsTree,
    batches: &[PointSet],
    dev: &DeviceConfig,
    budget: Duration,
    tracer: &mut Tracer,
    gpu: &mut GpuCounts,
    answers: &mut Answers,
) -> (u64, u64) {
    let opts = KernelOptions::default();
    let warps = opts.threads_per_block.div_ceil(dev.warp_size);
    let (mut attempted, mut failed) = (0, 0);
    let started = Instant::now();
    let mut b = 0u64;
    while started.elapsed() < budget {
        let qs = &batches[b as usize % batches.len()];
        let live = tracer.now_ns();
        let (res, root, _) =
            tracer.time("psb_batch", ENGINE, b, None, || psb_batch(tree, qs, K, dev, &opts));
        tracer.live_ns += tracer.now_ns() - live;
        tracer.roots += 1;
        attempted += qs.len() as u64;
        let Ok(res) = res else {
            failed += qs.len() as u64;
            b += 1;
            continue;
        };
        failed += answers.keep(b as usize % batches.len(), res.neighbors.clone());
        for i in 0..qs.len() {
            replay_query(tracer, tree, qs.point(i), b, root, dev, gpu);
        }
        tracer.time("launch_blocks_fused", GPU, b, Some(root), || {
            launch_blocks_fused(dev, warps, &res.per_block, opts.fuse, None)
        });
        b += 1;
    }
    (attempted, failed)
}
