//! Batched query execution: one simulated thread block per query, host-parallel.
//!
//! The paper's experiments submit 240 queries per batch (§V-B). Each query runs
//! as an independent simulated block on the rayon pool; the per-block counters
//! are collected in query order (deterministic under any host thread count) and
//! aggregated by the device cost model into the figures' metrics.
//!
//! Every engine runs through one runner, the recovery ladder: each query is
//! attempted under its own deterministic substream of
//! [`KernelOptions::faults`], retried once on a typed [`KernelError`], and
//! finally degraded to an exact brute-force scan that follows no structural
//! links. The default [`FaultPlan::none`](psb_gpu::FaultPlan::none) attaches
//! no fault state, so a valid tree never leaves the first rung and a corrupt
//! one degrades instead of panicking. Results are exact under every rung; the
//! rung taken per query is recorded in [`QueryBatchResult::outcomes`]. The
//! bounding-volume kernels share one dispatch keyed by [`BatchKernel`], which
//! [`QueryStream`](crate::QueryStream) calls too.

use std::borrow::Cow;

use psb_geom::PointSet;
use psb_gpu::{
    launch_blocks_fused, DeviceConfig, FaultState, KernelStats, LaunchReport, NoopSink, Phase,
    PhaseBreakdown,
};
use psb_sstree::Neighbor;

use crate::error::{EngineError, KernelError, QueryOutcome};
use crate::index::{BoundingVolumeIndex, ImplicitKdIndex};
use rayon::prelude::*;

use crate::kernels::{
    bnb::bnb_try_query, brute::brute_index_query, brute::brute_index_range, brute::brute_query,
    brute::brute_try_query, psb::psb_try_query, psb::psb_try_query_replay, range::range_try_query,
    restart::restart_try_query, stackfree::stackfree_try_query,
};
use crate::options::KernelOptions;
use crate::schedule::{hilbert_order, QuerySchedule};
use crate::wave::{run_wave, WaveMode};

/// Merge per-block counters into one (sums; peak shared memory is a max).
pub fn merge_stats(blocks: &[KernelStats]) -> KernelStats {
    let mut m = KernelStats::default();
    for b in blocks {
        m.merge(b);
    }
    m
}

/// Exact results plus the aggregated device-model report for a query batch.
#[derive(Clone, Debug)]
pub struct QueryBatchResult {
    /// Per-query neighbor lists, in query order.
    pub neighbors: Vec<Vec<Neighbor>>,
    /// Per-query (per-block) raw counters, in query order: the counters of
    /// the attempt that produced the result (failed attempts' partial
    /// counters are discarded — they model work a real device would have
    /// thrown away with the faulted launch).
    pub per_block: Vec<KernelStats>,
    /// Which recovery rung produced each query's result, in query order.
    /// All-[`QueryOutcome::Clean`] on a valid tree under
    /// [`FaultPlan::none`](psb_gpu::FaultPlan::none).
    pub outcomes: Vec<QueryOutcome>,
    /// Aggregated metrics under the cost model.
    pub report: LaunchReport,
}

impl QueryBatchResult {
    /// Per-phase warp-efficiency / accessed-MB breakdown of the batch, one row
    /// per [`Phase`] in [`Phase::ALL`] order.
    pub fn phase_breakdown(&self) -> [PhaseBreakdown; Phase::COUNT] {
        self.report.phase_breakdown()
    }

    /// The batch's merged counters for one traversal phase.
    pub fn phase(&self, phase: Phase) -> &psb_gpu::PhaseStats {
        self.report.merged.phase(phase)
    }
}

/// Warps per simulated (pre-fusion) block under these options.
pub(crate) fn warps_of(cfg: &DeviceConfig, opts: &KernelOptions) -> u32 {
    opts.threads_per_block.div_ceil(cfg.warp_size)
}

/// The execution order of a batch: `order` when the caller precomputed one
/// (the streaming pipeline schedules chunk N+1 while chunk N executes),
/// otherwise what [`KernelOptions::schedule`] asks for. `None` is submission
/// order; `Some(perm)` executes `perm[j]` as the `j`-th query.
pub(crate) fn batch_order<'a>(
    queries: &PointSet,
    opts: &KernelOptions,
    order: Option<&'a [u32]>,
) -> Option<Cow<'a, [u32]>> {
    match (order, opts.schedule) {
        (Some(perm), _) => Some(Cow::Borrowed(perm)),
        (None, QuerySchedule::Submission) => None,
        (None, QuerySchedule::Hilbert) => Some(Cow::Owned(hilbert_order(queries))),
    }
}

/// Per-batch telemetry shared by every runner: wall-clock latency histogram,
/// batch/query counters, and the launch report's simulated figures, all keyed
/// by the kernel `label`. `started` is `Some` only when a registry is attached
/// (the no-op path reads no clock).
pub(crate) fn record_batch(
    opts: &KernelOptions,
    label: &str,
    started: Option<std::time::Instant>,
    report: &LaunchReport,
) {
    let m = &opts.metrics;
    if let Some(t0) = started {
        let tag = format!("{{kernel=\"{label}\"}}");
        m.observe(&format!("engine.batch_us{tag}"), t0.elapsed().as_secs_f64() * 1e6);
        m.counter(&format!("engine.batches{tag}"), 1);
        m.counter(&format!("engine.queries{tag}"), report.merged.blocks);
    }
    report.record_into(m, label);
}

type LadderResult = (Vec<Neighbor>, KernelStats, QueryOutcome);

/// The one batch runner: the recovery ladder, applied per query on the rayon
/// pool in the order [`batch_order`] resolves.
///
/// 1. **Attempt 0** under the query's fault substream
///    (`opts.faults.state_for(i, 0)`).
/// 2. **Retry** once under a fresh substream (`state_for(i, 1)`) — a real
///    driver re-launching the failed block; transient upsets usually miss the
///    second run.
/// 3. **Degrade** to `fallback`, an exact scan that attaches no fault state
///    and follows no structural links.
///
/// A no-op plan attaches no fault state at all, so attempt 0 is the plain
/// kernel and only a corrupt tree advances the ladder. Queries execute in
/// scheduled order; neighbors, counters and outcomes are un-permuted back to
/// submission order, so every per-query output is bit-identical to the
/// submission-order engine. Only the launch aggregation sees the schedule (it
/// groups scheduled neighbors when fusing blocks).
fn run_batch(
    queries: &PointSet,
    cfg: &DeviceConfig,
    opts: &KernelOptions,
    order: Option<&[u32]>,
    label: &str,
    attempt: impl Fn(&[f32], Option<FaultState>) -> Result<(Vec<Neighbor>, KernelStats), KernelError>
        + Sync,
    fallback: impl Fn(&[f32]) -> (Vec<Neighbor>, KernelStats) + Sync,
) -> Result<QueryBatchResult, EngineError> {
    if queries.is_empty() {
        return Err(EngineError::EmptyBatch);
    }
    let m = &opts.metrics;
    let started = m.is_attached().then(std::time::Instant::now);
    let _batch_span = m.span("engine");
    let _kernel_span = m.span(label);
    let n = queries.len();
    let order = batch_order(queries, opts, order);
    let plan = &opts.faults;
    // Fault substreams are keyed by *submission* index, so the ladder a query
    // climbs is independent of where the schedule places it.
    let ladder = |i: usize| -> LadderResult {
        let q = queries.point(i);
        let faults =
            |attempt_no: u32| (!plan.is_noop()).then(|| plan.state_for(i as u64, attempt_no));
        match attempt(q, faults(0)) {
            Ok((nb, st)) => (nb, st, QueryOutcome::Clean),
            Err(first) => match attempt(q, faults(1)) {
                Ok((nb, st)) => (nb, st, QueryOutcome::Retried { first }),
                Err(retry) => {
                    let (nb, st) = fallback(q);
                    (nb, st, QueryOutcome::Degraded { first, retry })
                }
            },
        }
    };
    let results: Vec<(usize, LadderResult)> = m.time("execute", || match order.as_deref() {
        None => (0..n).into_par_iter().map(|i| (i, ladder(i))).collect(),
        Some(perm) => {
            debug_assert_eq!(perm.len(), n);
            perm.par_iter().map(|&i| (i as usize, ladder(i as usize))).collect()
        }
    });
    // Un-permute into submission order. The order is a permutation, so every
    // slot is overwritten exactly once.
    let mut neighbors = vec![Vec::new(); n];
    let mut per_block = vec![KernelStats::default(); n];
    let mut outcomes = vec![QueryOutcome::Clean; n];
    for (i, (nb, st, o)) in results {
        neighbors[i] = nb;
        per_block[i] = st;
        outcomes[i] = o;
    }
    let mut report = m.time("aggregate", || {
        launch_blocks_fused(cfg, warps_of(cfg, opts), &per_block, opts.fuse, order.as_deref())
    });
    report.retried_queries =
        outcomes.iter().filter(|o| matches!(o, QueryOutcome::Retried { .. })).count() as u64;
    report.degraded_queries =
        outcomes.iter().filter(|o| matches!(o, QueryOutcome::Degraded { .. })).count() as u64;
    record_batch(opts, label, started, &report);
    Ok(QueryBatchResult { neighbors, per_block, outcomes, report })
}

/// Which bounding-volume kernel a batch runs. One value keys the dispatch
/// shared by [`psb_batch`], [`bnb_batch`], [`restart_batch`],
/// [`range_batch`] and [`QueryStream`](crate::QueryStream).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum BatchKernel {
    /// PSB kNN (Algorithm 1). Under [`QuerySchedule::Hilbert`] the batch runs
    /// the throughput (sweep-replay) variant.
    Psb { k: usize },
    /// Branch-and-bound kNN.
    Bnb { k: usize },
    /// Scan-and-restart kNN (no parent links).
    Restart { k: usize },
    /// Fixed-radius range query.
    Range { radius: f32 },
}

impl BatchKernel {
    fn label(self) -> &'static str {
        match self {
            BatchKernel::Psb { .. } => "psb",
            BatchKernel::Bnb { .. } => "bnb",
            BatchKernel::Restart { .. } => "restart",
            BatchKernel::Range { .. } => "range",
        }
    }
}

/// The bounding-volume dispatch, written once:
///
/// - with [`KernelOptions::wave`] set and a no-op fault plan, the whole batch
///   runs through the buffer-wave engine (`wave.rs`): neighbors and outcomes
///   are bit-identical, counters reflect the amortized coalesced-sweep
///   schedule. A real plan disables waves (the wave engine serves the
///   fault-free path only, like the sweep-replay memo);
/// - otherwise [`run_batch`] climbs the ladder with the kernel's `try` form —
///   PSB under [`QuerySchedule::Hilbert`] through the sweep-replay memo, which
///   self-disables whenever a fault state is attached — and degrades to
///   `brute_index_query` / `brute_index_range`.
///
/// `order` is a precomputed execution order, `None` to derive it from
/// [`KernelOptions::schedule`].
pub(crate) fn run_kernel<T: BoundingVolumeIndex>(
    tree: &T,
    queries: &PointSet,
    kernel: BatchKernel,
    cfg: &DeviceConfig,
    opts: &KernelOptions,
    order: Option<&[u32]>,
) -> Result<QueryBatchResult, EngineError> {
    if opts.wave.is_some() && opts.faults.is_noop() {
        let mode = match kernel {
            BatchKernel::Psb { k } | BatchKernel::Bnb { k } | BatchKernel::Restart { k } => {
                WaveMode::Knn { k }
            }
            BatchKernel::Range { radius } => WaveMode::Range { radius },
        };
        return run_wave(tree, queries, mode, cfg, opts, order).map(|(r, _)| r);
    }
    let label = kernel.label();
    run_batch(
        queries,
        cfg,
        opts,
        order,
        label,
        |q, faults| {
            let sink = &mut NoopSink;
            match kernel {
                BatchKernel::Psb { k } => match opts.schedule {
                    QuerySchedule::Submission => psb_try_query(tree, q, k, cfg, opts, faults, sink),
                    QuerySchedule::Hilbert => {
                        psb_try_query_replay(tree, q, k, cfg, opts, faults, sink)
                    }
                },
                BatchKernel::Bnb { k } => bnb_try_query(tree, q, k, cfg, opts, faults, sink),
                BatchKernel::Restart { k } => {
                    restart_try_query(tree, q, k, cfg, opts, faults, sink)
                }
                BatchKernel::Range { radius } => {
                    range_try_query(tree, q, radius, cfg, opts, faults, sink)
                }
            }
        },
        |q| match kernel {
            BatchKernel::Range { radius } => brute_index_range(tree, q, radius, cfg, opts),
            BatchKernel::Psb { k } | BatchKernel::Bnb { k } | BatchKernel::Restart { k } => {
                brute_index_query(tree, q, k, cfg, opts)
            }
        },
    )
}

/// PSB over a batch of queries. Under [`QuerySchedule::Hilbert`] the batch
/// runs through the throughput kernel (sweep-replay memo) in Hilbert order —
/// results, per-query counters, and the fuse-1 report are bit-identical to the
/// submission-order engine (`tests/schedule_parity.rs`), only the wall-clock
/// host cost drops. [`KernelOptions::wave`] and [`KernelOptions::faults`]
/// apply as [`BatchKernel`] describes.
pub fn psb_batch<T: BoundingVolumeIndex>(
    tree: &T,
    queries: &PointSet,
    k: usize,
    cfg: &DeviceConfig,
    opts: &KernelOptions,
) -> Result<QueryBatchResult, EngineError> {
    run_kernel(tree, queries, BatchKernel::Psb { k }, cfg, opts, None)
}

/// Branch-and-bound over a batch of queries.
pub fn bnb_batch<T: BoundingVolumeIndex>(
    tree: &T,
    queries: &PointSet,
    k: usize,
    cfg: &DeviceConfig,
    opts: &KernelOptions,
) -> Result<QueryBatchResult, EngineError> {
    run_kernel(tree, queries, BatchKernel::Bnb { k }, cfg, opts, None)
}

/// Fixed-radius range queries over a batch (PSB-style sweep, fixed bound).
/// The degraded rung is an exact brute-force range scan over the flat point
/// array.
pub fn range_batch<T: BoundingVolumeIndex>(
    tree: &T,
    queries: &PointSet,
    radius: f32,
    cfg: &DeviceConfig,
    opts: &KernelOptions,
) -> Result<QueryBatchResult, EngineError> {
    run_kernel(tree, queries, BatchKernel::Range { radius }, cfg, opts, None)
}

/// Scan-and-restart (no parent links) over a batch of queries.
pub fn restart_batch<T: BoundingVolumeIndex>(
    tree: &T,
    queries: &PointSet,
    k: usize,
    cfg: &DeviceConfig,
    opts: &KernelOptions,
) -> Result<QueryBatchResult, EngineError> {
    run_kernel(tree, queries, BatchKernel::Restart { k }, cfg, opts, None)
}

/// Stack-free kNN over a batch of queries (the implicit left-balanced kd-tree
/// family — see `kernels::stackfree`).
///
/// [`KernelOptions::wave`] is ignored here by design: the buffer-wave engine
/// amortizes *node-block* fetches over query buffers, and the implicit tree
/// has no node blocks to amortize (every node is one point entry), so there
/// is no wave schedule to run. Everything else — Hilbert scheduling,
/// metering modes, metrics, the fault plan — behaves like the other
/// per-query engines. The degraded rung is the same exact brute scan as
/// every other engine's: it touches only the flat point array, which the
/// implicit tree has by construction.
pub fn stackfree_batch<T: ImplicitKdIndex>(
    tree: &T,
    queries: &PointSet,
    k: usize,
    cfg: &DeviceConfig,
    opts: &KernelOptions,
) -> Result<QueryBatchResult, EngineError> {
    run_batch(
        queries,
        cfg,
        opts,
        None,
        "stackfree",
        |q, faults| stackfree_try_query(tree, q, k, cfg, opts, faults, &mut NoopSink),
        |q| brute_index_query(tree, q, k, cfg, opts),
    )
}

/// Brute-force scan over a batch of queries. Under a fault plan the last
/// rung is the same scan with no fault state attached.
pub fn brute_batch(
    points: &PointSet,
    queries: &PointSet,
    k: usize,
    cfg: &DeviceConfig,
    opts: &KernelOptions,
) -> Result<QueryBatchResult, EngineError> {
    run_batch(
        queries,
        cfg,
        opts,
        None,
        "brute",
        |q, faults| brute_try_query(points, q, k, cfg, opts, faults, &mut NoopSink),
        |q| brute_query(points, q, k, cfg, opts),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use psb_data::{sample_queries, ClusteredSpec};
    use psb_sstree::{build, linear_knn, BuildMethod, SsTree};

    fn setup() -> (PointSet, SsTree, PointSet) {
        let ps =
            ClusteredSpec { clusters: 5, points_per_cluster: 400, dims: 8, sigma: 150.0, seed: 41 }
                .generate();
        let tree = build(&ps, 32, &BuildMethod::Hilbert);
        let queries = sample_queries(&ps, 24, 0.01, 42);
        (ps, tree, queries)
    }

    #[test]
    fn all_engines_agree_with_oracle() {
        let (ps, tree, queries) = setup();
        let cfg = DeviceConfig::k40();
        let opts = KernelOptions::default();
        let k = 10;
        let a = psb_batch(&tree, &queries, k, &cfg, &opts).expect("batch");
        let b = bnb_batch(&tree, &queries, k, &cfg, &opts).expect("batch");
        let c = brute_batch(&ps, &queries, k, &cfg, &opts).expect("batch");
        for (qi, q) in queries.iter().enumerate() {
            let want = linear_knn(&ps, q, k);
            for got in [&a.neighbors[qi], &b.neighbors[qi], &c.neighbors[qi]] {
                assert_eq!(got.len(), want.len());
                for (g, w) in got.iter().zip(&want) {
                    let scale = w.dist.max(1.0);
                    assert!((g.dist - w.dist).abs() <= scale * 1e-4);
                }
            }
        }
    }

    #[test]
    fn batch_is_deterministic_under_parallelism() {
        let (_, tree, queries) = setup();
        let cfg = DeviceConfig::k40();
        let opts = KernelOptions::default();
        let a = psb_batch(&tree, &queries, 8, &cfg, &opts).expect("batch");
        let b = psb_batch(&tree, &queries, 8, &cfg, &opts).expect("batch");
        assert_eq!(a.per_block, b.per_block);
        assert_eq!(a.report.merged, b.report.merged);
    }

    #[test]
    fn report_covers_all_blocks() {
        let (_, tree, queries) = setup();
        let cfg = DeviceConfig::k40();
        let r = psb_batch(&tree, &queries, 8, &cfg, &KernelOptions::default()).expect("batch");
        assert_eq!(r.report.merged.blocks as usize, queries.len());
        assert!(r.report.avg_response_ms > 0.0);
        assert!(r.report.warp_efficiency > 0.0 && r.report.warp_efficiency <= 1.0);
    }

    #[test]
    fn empty_batch_is_a_typed_error() {
        let (_, tree, _) = setup();
        let cfg = DeviceConfig::k40();
        let opts = KernelOptions::default();
        let empty = PointSet::new(tree.dims);
        assert!(matches!(psb_batch(&tree, &empty, 4, &cfg, &opts), Err(EngineError::EmptyBatch)));
        let faulted = KernelOptions { faults: psb_gpu::FaultPlan::bit_flips(1, 5), ..opts };
        assert!(matches!(
            psb_batch(&tree, &empty, 4, &cfg, &faulted),
            Err(EngineError::EmptyBatch)
        ));
    }

    #[test]
    fn index_beats_brute_force_on_bytes_for_tight_clusters() {
        let ps =
            ClusteredSpec { clusters: 8, points_per_cluster: 500, dims: 8, sigma: 30.0, seed: 43 }
                .generate();
        let tree = build(&ps, 32, &BuildMethod::Hilbert);
        let queries = sample_queries(&ps, 8, 0.005, 44);
        let cfg = DeviceConfig::k40();
        let opts = KernelOptions::default();
        let psb = psb_batch(&tree, &queries, 8, &cfg, &opts).expect("batch");
        let brute = brute_batch(&ps, &queries, 8, &cfg, &opts).expect("batch");
        assert!(
            psb.report.avg_accessed_mb < brute.report.avg_accessed_mb,
            "PSB {} MB >= brute {} MB",
            psb.report.avg_accessed_mb,
            brute.report.avg_accessed_mb
        );
    }
}
