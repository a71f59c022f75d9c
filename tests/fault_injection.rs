//! Fault-injection suite: seeded device faults must never cost exactness.
//!
//! The recovery ladder (retry on a fresh fault substream, then degrade to the
//! exact brute-force fallback) has three externally visible guarantees:
//!
//! 1. A zero-fault plan is *bit-identical* to the plain kernels — results,
//!    per-query counters, and the aggregated report — and a corrupt tree
//!    degrades to exact answers instead of panicking.
//! 2. Under any seeded plan, every answer still matches the CPU oracle
//!    exactly; faults shift queries down the ladder but never corrupt output.
//! 3. The ladder's accounting is consistent: per-query outcomes and the
//!    report's retried/degraded counters tell the same story, and repeated
//!    runs of the same plan are deterministic.

use psb::prelude::*;

const K: usize = 8;

fn workload(seed: u64) -> (PointSet, SsTree, PointSet) {
    let data = ClusteredSpec { clusters: 8, points_per_cluster: 250, dims: 6, sigma: 80.0, seed }
        .generate();
    let tree = build(&data, 16, &BuildMethod::Hilbert);
    let queries = sample_queries(&data, 24, 0.01, seed ^ 9);
    (data, tree, queries)
}

/// (clean, retried, degraded) tallies from the per-query outcomes.
fn tally(r: &QueryBatchResult) -> (u64, u64, u64) {
    let mut c = (0, 0, 0);
    for o in &r.outcomes {
        match o {
            QueryOutcome::Clean => c.0 += 1,
            QueryOutcome::Retried { .. } => c.1 += 1,
            QueryOutcome::Degraded { .. } => c.2 += 1,
            QueryOutcome::DeadlineDegraded { .. } => {
                unreachable!("the batch engine never emits serving-layer deadline outcomes")
            }
        }
    }
    c
}

/// Outcomes, counters, and batch shape must agree with each other.
fn assert_accounting_consistent(r: &QueryBatchResult, nq: usize) {
    let (clean, retried, degraded) = tally(r);
    assert_eq!(r.outcomes.len(), nq);
    assert_eq!(r.neighbors.len(), nq);
    assert_eq!(r.per_block.len(), nq);
    assert_eq!(clean + retried + degraded, nq as u64, "outcomes must cover every query");
    assert_eq!(r.report.retried_queries, retried, "report vs outcomes: retried");
    assert_eq!(r.report.degraded_queries, degraded, "report vs outcomes: degraded");
}

/// Default options with `plan` as the batch engine's fault plan.
fn faulted(plan: FaultPlan) -> KernelOptions {
    KernelOptions { faults: plan, ..KernelOptions::default() }
}

fn assert_exact_knn(r: &QueryBatchResult, data: &PointSet, queries: &PointSet, ctx: &str) {
    for (qi, q) in queries.iter().enumerate() {
        let want = linear_knn(data, q, K);
        let got = &r.neighbors[qi];
        assert_eq!(got.len(), want.len(), "{ctx}: query {qi} result count");
        for (g, w) in got.iter().zip(&want) {
            assert!(
                (g.dist - w.dist).abs() <= w.dist.max(1.0) * 1e-4,
                "{ctx}: query {qi} distance {} != oracle {}",
                g.dist,
                w.dist
            );
        }
    }
}

#[test]
fn zero_fault_plan_is_bit_identical_to_the_plain_engine() {
    let (_, tree, queries) = workload(11);
    let cfg = DeviceConfig::k40();
    let opts = KernelOptions::default();
    assert!(opts.faults.is_noop(), "the default plan injects nothing");
    // The plain engine, spelled out: the trusted per-query kernel in
    // submission order, aggregated by the cost model.
    let (neighbors, per_block): (Vec<_>, Vec<_>) =
        queries.iter().map(|q| psb_query(&tree, q, K, &cfg, &opts)).unzip();
    let report = launch_blocks_fused(&cfg, 1, &per_block, opts.fuse, None);
    let plain = QueryBatchResult {
        neighbors,
        per_block,
        outcomes: vec![QueryOutcome::Clean; queries.len()],
        report,
    };
    let rec = psb_batch(&tree, &queries, K, &cfg, &opts).expect("batch");

    assert_eq!(rec.neighbors, plain.neighbors, "results must be bit-identical");
    assert_eq!(rec.per_block, plain.per_block, "per-query counters must be bit-identical");
    assert_eq!(rec.report.merged, plain.report.merged, "merged counters must be bit-identical");
    assert!(
        rec.report.avg_response_ms == plain.report.avg_response_ms
            && rec.report.avg_accessed_mb == plain.report.avg_accessed_mb
            && rec.report.warp_efficiency == plain.report.warp_efficiency,
        "modeled metrics must be bit-identical under a no-fault plan"
    );
    assert!(rec.outcomes.iter().all(|o| o.is_clean()));
    assert_eq!(rec.report.retried_queries, 0);
    assert_eq!(rec.report.degraded_queries, 0);
    assert_accounting_consistent(&rec, queries.len());
}

#[test]
fn bit_flips_walk_the_ladder_and_stay_exact() {
    let (data, tree, queries) = workload(12);
    let cfg = DeviceConfig::k40();
    let opts = faulted(FaultPlan::bit_flips(0xF00D, 1));
    let rec = psb_batch(&tree, &queries, K, &cfg, &opts).expect("batch");

    assert_accounting_consistent(&rec, queries.len());
    assert_exact_knn(&rec, &data, &queries, "bit-flips");
    let (_, retried, degraded) = tally(&rec);
    assert!(
        retried > 0 && degraded > 0,
        "plan must exercise both recovery rungs (retried {retried}, degraded {degraded})"
    );

    // Same plan, same workload: the ladder is deterministic end to end.
    let again = psb_batch(&tree, &queries, K, &cfg, &opts).expect("batch");
    assert_eq!(again.neighbors, rec.neighbors);
    assert_eq!(again.outcomes, rec.outcomes);
    assert_eq!(again.per_block, rec.per_block);
}

#[test]
fn truncation_faults_degrade_every_query_exactly() {
    let (data, tree, queries) = workload(13);
    let cfg = DeviceConfig::k40();
    // Truncating after a handful of transactions kills both tree attempts of
    // every query, forcing the whole batch onto the brute-force rung.
    let opts = faulted(FaultPlan::truncation(8));
    let rec = psb_batch(&tree, &queries, K, &cfg, &opts).expect("batch");

    assert_accounting_consistent(&rec, queries.len());
    assert_exact_knn(&rec, &data, &queries, "truncation");
    let (clean, _, degraded) = tally(&rec);
    assert_eq!(clean, 0, "an 8-transaction budget cannot complete any tree traversal");
    assert_eq!(degraded, queries.len() as u64);
}

#[test]
fn watchdog_faults_degrade_every_query_exactly() {
    let (data, tree, queries) = workload(14);
    let cfg = DeviceConfig::k40();
    let opts = faulted(FaultPlan::watchdog(32));
    let rec = psb_batch(&tree, &queries, K, &cfg, &opts).expect("batch");

    assert_accounting_consistent(&rec, queries.len());
    assert_exact_knn(&rec, &data, &queries, "watchdog");
    let (clean, _, degraded) = tally(&rec);
    assert_eq!(clean, 0, "a 32-issue watchdog cannot complete any tree traversal");
    assert_eq!(degraded, queries.len() as u64);
}

#[test]
fn other_engines_recover_too() {
    let (data, tree, queries) = workload(15);
    let cfg = DeviceConfig::k40();
    let opts = faulted(FaultPlan::bit_flips(0xBEEF, 1));
    for (name, rec) in [
        ("bnb", bnb_batch(&tree, &queries, K, &cfg, &opts).expect("batch")),
        ("restart", restart_batch(&tree, &queries, K, &cfg, &opts).expect("batch")),
    ] {
        assert_accounting_consistent(&rec, queries.len());
        assert_exact_knn(&rec, &data, &queries, name);
        let (_, retried, degraded) = tally(&rec);
        assert!(retried + degraded > 0, "{name}: the plan must actually inject faults");
    }
}

#[test]
fn range_recovery_matches_the_linear_oracle() {
    let (data, tree, queries) = workload(16);
    let cfg = DeviceConfig::k40();
    // A radius around the first query's 12th neighbor guarantees the batch
    // actually selects points in this dimensionality.
    let radius = linear_knn(&data, queries.point(0), 12).last().expect("oracle").dist * 1.1;
    let opts = faulted(FaultPlan::bit_flips(0xCAFE, 1));
    let rec = range_batch(&tree, &queries, radius, &cfg, &opts).expect("batch");

    assert_accounting_consistent(&rec, queries.len());
    let mut total_hits = 0usize;
    for (qi, q) in queries.iter().enumerate() {
        let want = linear_range(&data, q, radius);
        let got = &rec.neighbors[qi];
        assert_eq!(got.len(), want.len(), "query {qi} hit count");
        total_hits += got.len();
        for (g, w) in got.iter().zip(&want) {
            assert!(
                (g.dist - w.dist).abs() <= w.dist.max(1.0) * 1e-4,
                "query {qi}: range hit {} != oracle {}",
                g.dist,
                w.dist
            );
        }
    }
    assert!(total_hits > 0, "the workload radius must actually select points");
    let (_, retried, degraded) = tally(&rec);
    assert!(retried + degraded > 0, "the plan must actually inject faults");
}

#[test]
fn empty_batches_are_a_typed_error_under_recovery() {
    let (_, tree, _) = workload(17);
    let cfg = DeviceConfig::k40();
    let empty = PointSet::new(tree.dims);
    for plan in [FaultPlan::none(), FaultPlan::bit_flips(0xE0, 1)] {
        let err = psb_batch(&tree, &empty, K, &cfg, &faulted(plan))
            .expect_err("empty batch must be rejected");
        assert!(matches!(err, EngineError::EmptyBatch));
    }
}

/// Every outcome degraded, every answer equal to the brute-force kernel's on
/// ids and distance bits.
fn assert_degraded_to_brute(r: &QueryBatchResult, data: &PointSet, queries: &PointSet, ctx: &str) {
    let cfg = DeviceConfig::k40();
    let opts = KernelOptions::default();
    assert_accounting_consistent(r, queries.len());
    for (qi, q) in queries.iter().enumerate() {
        assert!(
            matches!(r.outcomes[qi], QueryOutcome::Degraded { .. }),
            "{ctx}: query {qi} outcome {:?}, want Degraded",
            r.outcomes[qi]
        );
        let (want, _) = brute_query(data, q, K, &cfg, &opts);
        let got = &r.neighbors[qi];
        assert_eq!(got.len(), want.len(), "{ctx}: query {qi} result count");
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.id, w.id, "{ctx}: query {qi} neighbor id");
            assert_eq!(g.dist.to_bits(), w.dist.to_bits(), "{ctx}: query {qi} distance bits");
        }
    }
}

#[test]
fn corrupt_tree_degrades_instead_of_panicking() {
    // The stale-arena corruption of `tests/layout_parity.rs`: the root's
    // child range, shifted by one, stays inside the node array but no longer
    // matches the root's packed block, so every tree attempt fails with a
    // typed CorruptNode error. With no fault plan at all, the batch engine
    // and the stream must still answer every query exactly from the last
    // rung.
    let (data, tree, queries) = workload(18);
    let root = tree.root as usize;
    assert!(tree.child_count[root] >= 2 && tree.height() >= 3, "need an interior root range");
    let mut bad = tree.clone();
    bad.first_child[root] += 1;
    assert!(bad.first_child[root] + bad.child_count[root] <= bad.num_nodes() as u32);

    let cfg = DeviceConfig::k40();
    for schedule in [QuerySchedule::Submission, QuerySchedule::Hilbert] {
        let opts = KernelOptions { schedule, ..KernelOptions::default() };
        assert!(opts.faults.is_noop());
        let batch = psb_batch(&bad, &queries, K, &cfg, &opts).expect("batch");
        assert_degraded_to_brute(&batch, &data, &queries, &format!("psb_batch/{schedule:?}"));

        let mut stream =
            QueryStream::with_chunk_size(&bad, BatchKernel::Psb { k: K }, cfg.clone(), opts, 10);
        let mut chunks = Vec::new();
        for q in queries.iter() {
            stream.push(q);
            chunks.extend(std::iter::from_fn(|| stream.poll()));
        }
        chunks.extend(stream.finish());
        let mut lo = 0u32;
        for chunk in &chunks {
            let hi = lo + chunk.neighbors.len() as u32;
            let sub = queries.gather(&(lo..hi).collect::<Vec<_>>());
            assert_degraded_to_brute(chunk, &data, &sub, &format!("stream/{schedule:?}"));
            lo = hi;
        }
        assert_eq!(lo as usize, queries.len(), "the stream must answer every query");
    }
}
