//! Streaming batched execution: the throughput pipeline of DESIGN.md §12.
//!
//! A [`QueryStream`] accepts queries one at a time and executes them in
//! fixed-size chunks (default [`QueryStream::DEFAULT_CHUNK`] = 240, the
//! paper's batch size). Chunks are double-buffered: when chunk N+1 fills, its
//! schedule (the Hilbert permutation, under
//! [`QuerySchedule::Hilbert`]) is computed *before* chunk N executes, so on a
//! real device the host-side sort of the next batch would overlap the
//! in-flight launch — the sequential simulation interleaves the two stages in
//! the same order. One per-stream [`ScheduleScratch`] arena backs every
//! chunk's scheduling, so a long session reuses the same key and permutation
//! buffers instead of allocating per chunk (the kernels' own scratch is
//! likewise pooled, per host thread).
//!
//! Results surface per chunk as ordinary [`QueryBatchResult`]s, in submission
//! order both across chunks and within each chunk — scheduling never leaks
//! into what the caller observes (`tests/schedule_parity.rs`). Each chunk
//! runs through the batch engine's dispatch ([`BatchKernel`]), so
//! [`KernelOptions::faults`] applies per chunk: a query's fault substream is
//! keyed by its index within the chunk.

use std::collections::VecDeque;

use psb_geom::PointSet;
use psb_gpu::DeviceConfig;

use crate::engine::{run_kernel, BatchKernel, QueryBatchResult};
use crate::index::BoundingVolumeIndex;
use crate::options::KernelOptions;
use crate::schedule::{hilbert_permutation, QuerySchedule, ScheduleScratch};

/// A double-buffered streaming pipeline over one index.
///
/// ```
/// use psb_core::{QueryStream, BatchKernel, KernelOptions, QuerySchedule};
/// # use psb_data::{sample_queries, ClusteredSpec};
/// # use psb_sstree::{build, BuildMethod};
/// # let ps = ClusteredSpec { clusters: 3, points_per_cluster: 200, dims: 4, sigma: 80.0, seed: 7 }
/// #     .generate();
/// # let tree = build(&ps, 16, &BuildMethod::Hilbert);
/// # let queries = sample_queries(&ps, 10, 0.01, 8);
/// let cfg = psb_gpu::DeviceConfig::k40();
/// let opts = KernelOptions { schedule: QuerySchedule::Hilbert, ..Default::default() };
/// let mut stream = QueryStream::with_chunk_size(&tree, BatchKernel::Psb { k: 4 }, cfg, opts, 4);
/// for q in queries.iter() {
///     stream.push(q);
///     while let Some(chunk) = stream.poll() {
///         assert_eq!(chunk.neighbors.len(), 4); // a full chunk, submission order
///     }
/// }
/// for tail in stream.finish() {
///     assert!(!tail.neighbors.is_empty());
/// }
/// ```
pub struct QueryStream<'t, T: BoundingVolumeIndex> {
    tree: &'t T,
    kernel: BatchKernel,
    cfg: DeviceConfig,
    opts: KernelOptions,
    chunk: usize,
    /// Chunk currently filling (N+1 in flight of arrival).
    pending: PointSet,
    /// Full chunk staged behind the filling one, with its precomputed
    /// schedule: it executes when the next chunk fills (or at `finish`).
    staged: Option<(PointSet, Option<Vec<u32>>)>,
    /// The per-stream scheduling arena, reused by every chunk.
    sched: ScheduleScratch,
    /// Completed chunk results awaiting [`poll`](Self::poll), oldest first.
    done: VecDeque<QueryBatchResult>,
    submitted: u64,
    /// Cumulative wall time spent computing chunk schedules (the stage that a
    /// real device overlaps with the in-flight launch). Only accumulated when
    /// `opts.metrics` is attached; nanoseconds.
    staging_ns: u64,
    /// Cumulative wall time spent executing chunks; nanoseconds, gated the
    /// same way.
    execute_ns: u64,
}

impl<'t, T: BoundingVolumeIndex> QueryStream<'t, T> {
    /// The default chunk size: the paper's 240-query batch (§V-B).
    pub const DEFAULT_CHUNK: usize = 240;

    /// A stream executing [`Self::DEFAULT_CHUNK`]-query chunks.
    pub fn new(tree: &'t T, kernel: BatchKernel, cfg: DeviceConfig, opts: KernelOptions) -> Self {
        Self::with_chunk_size(tree, kernel, cfg, opts, Self::DEFAULT_CHUNK)
    }

    /// A stream with an explicit chunk size (at least 1).
    pub fn with_chunk_size(
        tree: &'t T,
        kernel: BatchKernel,
        cfg: DeviceConfig,
        opts: KernelOptions,
        chunk: usize,
    ) -> Self {
        assert!(chunk >= 1, "chunk size must be at least 1");
        let pending = PointSet::with_capacity(tree.dims(), chunk);
        Self {
            tree,
            kernel,
            cfg,
            opts,
            chunk,
            pending,
            staged: None,
            sched: ScheduleScratch::default(),
            done: VecDeque::new(),
            submitted: 0,
            staging_ns: 0,
            execute_ns: 0,
        }
    }

    /// The stream's chunk size.
    pub fn chunk_size(&self) -> usize {
        self.chunk
    }

    /// Total queries pushed so far.
    pub fn submitted(&self) -> u64 {
        self.submitted
    }

    /// Queries accepted but not yet executed (filling + staged chunks).
    pub fn queued(&self) -> usize {
        self.pending.len() + self.staged.as_ref().map_or(0, |(ps, _)| ps.len())
    }

    /// Submit one query. When this fills the current chunk, the chunk is
    /// scheduled (staged) and the previously staged chunk executes — results
    /// become available through [`poll`](Self::poll).
    pub fn push(&mut self, q: &[f32]) {
        self.pending.push(q);
        self.submitted += 1;
        if self.pending.len() == self.chunk {
            self.stage();
        }
    }

    /// Take the oldest completed chunk result, if any. Chunks complete in
    /// submission order, and each result's per-query vectors are in
    /// submission order within the chunk.
    pub fn poll(&mut self) -> Option<QueryBatchResult> {
        self.done.pop_front()
    }

    /// Drain the pipeline: execute the staged chunk and any partial chunk
    /// still filling, and return every not-yet-polled result, oldest first.
    pub fn finish(&mut self) -> Vec<QueryBatchResult> {
        if !self.pending.is_empty() {
            self.stage();
        }
        if let Some((chunk, order)) = self.staged.take() {
            self.execute(chunk, order);
        }
        self.done.drain(..).collect()
    }

    /// Move the filling chunk into the staged slot, computing its schedule
    /// now; execute whatever was staged before it.
    fn stage(&mut self) {
        let chunk = std::mem::replace(
            &mut self.pending,
            PointSet::with_capacity(self.tree.dims(), self.chunk),
        );
        let m = &self.opts.metrics;
        let started = m.is_attached().then(std::time::Instant::now);
        let order = match self.opts.schedule {
            QuerySchedule::Submission => None,
            QuerySchedule::Hilbert => Some(hilbert_permutation(&chunk, &mut self.sched)),
        };
        if let Some(t0) = started {
            let ns = t0.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            self.staging_ns = self.staging_ns.saturating_add(ns);
            self.opts.metrics.observe("stream.stage_us", ns as f64 / 1e3);
        }
        if let Some((prev, prev_order)) = self.staged.replace((chunk, order)) {
            self.execute(prev, prev_order);
        }
    }

    /// Publish the pipeline-overlap view after a chunk executes: how much of
    /// the cumulative staging (scheduling) time fits under the cumulative
    /// execution time. 1.0 means scheduling hides completely behind in-flight
    /// chunks on a real device; values below 1.0 mean the host-side sort is
    /// the bottleneck.
    fn record_overlap(&self) {
        let m = &self.opts.metrics;
        m.gauge("stream.staging_us", self.staging_ns as f64 / 1e3);
        m.gauge("stream.execute_us", self.execute_ns as f64 / 1e3);
        let overlap = if self.staging_ns == 0 {
            1.0
        } else {
            (self.execute_ns as f64 / self.staging_ns as f64).min(1.0)
        };
        m.gauge("stream.overlap_ratio", overlap);
    }

    fn execute(&mut self, chunk: PointSet, order: Option<Vec<u32>>) {
        let (tree, cfg, opts) = (self.tree, &self.cfg, &self.opts);
        let started = opts.metrics.is_attached().then(std::time::Instant::now);
        // The batch engine's dispatch, with this chunk's precomputed
        // schedule: wave routing, the PSB replay kernel under Hilbert order,
        // the fault plan's ladder and the brute last rung all apply per chunk.
        let result = run_kernel(tree, &chunk, self.kernel, cfg, opts, order.as_deref());
        // Chunks are only ever staged non-empty, so the launch cannot fail.
        let result = result.unwrap_or_else(|e| panic!("non-empty chunk failed to launch: {e}"));
        if let Some(t0) = started {
            let ns = t0.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            self.execute_ns = self.execute_ns.saturating_add(ns);
            let m = &self.opts.metrics;
            m.observe("stream.chunk_us", ns as f64 / 1e3);
            m.counter("stream.chunks", 1);
            m.counter("stream.queries", result.neighbors.len() as u64);
            self.record_overlap();
        }
        self.done.push_back(result);
        if let Some(perm) = order {
            self.sched.recycle(perm);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::psb_batch;
    use psb_data::{sample_queries, ClusteredSpec};
    use psb_sstree::{build, BuildMethod, SsTree};

    fn setup() -> (PointSet, SsTree, PointSet) {
        let ps =
            ClusteredSpec { clusters: 4, points_per_cluster: 300, dims: 6, sigma: 120.0, seed: 91 }
                .generate();
        let tree = build(&ps, 16, &BuildMethod::Hilbert);
        let queries = sample_queries(&ps, 25, 0.01, 92);
        (ps, tree, queries)
    }

    fn push_all(stream: &mut QueryStream<SsTree>, queries: &PointSet) -> Vec<QueryBatchResult> {
        let mut out = Vec::new();
        for q in queries.iter() {
            stream.push(q);
            while let Some(r) = stream.poll() {
                out.push(r);
            }
        }
        out.extend(stream.finish());
        out
    }

    #[test]
    fn stream_chunks_match_the_batch_engine_bit_for_bit() {
        let (_, tree, queries) = setup();
        let cfg = DeviceConfig::k40();
        for schedule in [QuerySchedule::Submission, QuerySchedule::Hilbert] {
            let opts = KernelOptions { schedule, ..Default::default() };
            let mut stream = QueryStream::with_chunk_size(
                &tree,
                BatchKernel::Psb { k: 5 },
                cfg.clone(),
                opts.clone(),
                10,
            );
            let chunks = push_all(&mut stream, &queries);
            // 25 queries, chunk 10: two full chunks plus a 5-query tail.
            assert_eq!(chunks.iter().map(|c| c.neighbors.len()).collect::<Vec<_>>(), [10, 10, 5]);
            for (ci, chunk) in chunks.iter().enumerate() {
                let lo = ci * 10;
                let sub = queries
                    .gather(&(lo as u32..(lo + chunk.neighbors.len()) as u32).collect::<Vec<_>>());
                let whole = psb_batch(&tree, &sub, 5, &cfg, &opts).expect("batch");
                assert_eq!(chunk.per_block, whole.per_block);
                for (a, b) in chunk.neighbors.iter().zip(&whole.neighbors) {
                    assert_eq!(a.len(), b.len());
                    for (x, y) in a.iter().zip(b) {
                        assert_eq!(x.id, y.id);
                        assert_eq!(x.dist.to_bits(), y.dist.to_bits());
                    }
                }
            }
        }
    }

    #[test]
    fn double_buffer_holds_back_one_chunk_until_the_next_fills() {
        let (_, tree, queries) = setup();
        let cfg = DeviceConfig::k40();
        let opts = KernelOptions { schedule: QuerySchedule::Hilbert, ..Default::default() };
        let mut stream =
            QueryStream::with_chunk_size(&tree, BatchKernel::Psb { k: 3 }, cfg, opts, 8);
        for i in 0..8 {
            stream.push(queries.point(i));
        }
        // First chunk is staged (scheduled), not yet executed.
        assert_eq!(stream.queued(), 8);
        assert!(stream.poll().is_none());
        for i in 8..16 {
            stream.push(queries.point(i));
        }
        // Filling the second chunk executed the first.
        assert_eq!(stream.queued(), 8);
        assert!(stream.poll().is_some());
        assert!(stream.poll().is_none());
        assert_eq!(stream.submitted(), 16);
        assert_eq!(stream.finish().len(), 1);
    }

    #[test]
    fn all_stream_kernels_drain_cleanly() {
        let (_, tree, queries) = setup();
        let cfg = DeviceConfig::k40();
        let opts = KernelOptions { schedule: QuerySchedule::Hilbert, ..Default::default() };
        for kernel in [
            BatchKernel::Bnb { k: 4 },
            BatchKernel::Restart { k: 4 },
            BatchKernel::Range { radius: 250.0 },
        ] {
            let mut stream =
                QueryStream::with_chunk_size(&tree, kernel, cfg.clone(), opts.clone(), 9);
            let chunks = push_all(&mut stream, &queries);
            assert_eq!(chunks.iter().map(|c| c.neighbors.len()).sum::<usize>(), queries.len());
        }
    }

    #[test]
    fn attached_stream_records_chunks_and_overlap() {
        let (_, tree, queries) = setup();
        let cfg = DeviceConfig::k40();
        let reg = psb_metrics::Registry::new();
        let opts = KernelOptions {
            schedule: QuerySchedule::Hilbert,
            metrics: psb_metrics::MetricsHandle::attached(&reg),
            ..Default::default()
        };
        let mut stream =
            QueryStream::with_chunk_size(&tree, BatchKernel::Psb { k: 3 }, cfg, opts, 8);
        let chunks = push_all(&mut stream, &queries);
        let snap = reg.snapshot();
        let counter = |name: &str| {
            snap.counters.iter().find(|(k, _)| k == name).map(|(_, v)| *v).unwrap_or(0)
        };
        assert_eq!(counter("stream.chunks"), chunks.len() as u64);
        assert_eq!(counter("stream.queries"), queries.len() as u64);
        let overlap = snap
            .gauges
            .iter()
            .find(|(k, _)| k == "stream.overlap_ratio")
            .map(|(_, v)| *v)
            .expect("overlap gauge");
        assert!((0.0..=1.0).contains(&overlap), "overlap {overlap}");
        // The chunk latency histogram saw every chunk.
        let hist = snap
            .histograms
            .iter()
            .find(|(k, _)| k == "stream.chunk_us")
            .map(|(_, h)| *h)
            .expect("chunk histogram");
        assert_eq!(hist.count, chunks.len() as u64);
    }

    #[test]
    #[should_panic(expected = "chunk size must be at least 1")]
    fn zero_chunk_is_rejected() {
        let (_, tree, _) = setup();
        let _ = QueryStream::with_chunk_size(
            &tree,
            BatchKernel::Psb { k: 1 },
            DeviceConfig::k40(),
            KernelOptions::default(),
            0,
        );
    }
}
