//! Oracle parity for the packed device arenas, the one node representation
//! the kernels read.
//!
//! Every kernel must return exactly the brute-force oracle's answer — ids AND
//! distance bits, equal distances ordered by id — when it reads node geometry
//! from the arena. The suite covers all six kernels, both index types, a
//! dimension with a specialized distance kernel (4) and one on the generic
//! fallback (6), plus a duplicate-point workload that forces distance ties so
//! the tie-breaking order is pinned too. Rebuilding the arena must change
//! nothing, and an arena that no longer matches its tree must surface as a
//! typed kernel error from every hardened kernel.

use psb::prelude::*;

const RADIUS: f32 = 250.0;

/// Bitwise equality for neighbor lists: ids must match exactly and distances
/// must match *to the bit* — `PartialEq` on f32 would let -0.0 == 0.0 slide.
fn assert_neighbors_bit_identical(got: &[Vec<Neighbor>], want: &[Vec<Neighbor>], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: query count differs");
    for (qi, (x, y)) in got.iter().zip(want).enumerate() {
        assert_eq!(x.len(), y.len(), "{what}: query {qi} result length differs");
        for (j, (nx, ny)) in x.iter().zip(y).enumerate() {
            assert_eq!(nx.id, ny.id, "{what}: query {qi} rank {j} id differs");
            assert_eq!(
                nx.dist.to_bits(),
                ny.dist.to_bits(),
                "{what}: query {qi} rank {j} distance bits differ"
            );
        }
    }
}

fn dataset(dims: usize, seed: u64) -> PointSet {
    ClusteredSpec { clusters: 5, points_per_cluster: 300, dims, sigma: 140.0, seed }.generate()
}

/// Runs all six kernels over `tree` and asserts each batch's neighbors are
/// bit-identical to the oracle: `brute_query` over the raw points for kNN,
/// `brute_index_range` (which reads only the flat point array) for range.
fn check_against_oracle<T: BoundingVolumeIndex>(
    tree: &T,
    ps: &PointSet,
    queries: &PointSet,
    k: usize,
    label: &str,
) {
    let cfg = DeviceConfig::k40();
    let opts = KernelOptions::default();
    let knn: Vec<Vec<Neighbor>> =
        queries.iter().map(|q| brute_query(ps, q, k, &cfg, &opts).0).collect();
    let range: Vec<Vec<Neighbor>> =
        queries.iter().map(|q| brute_index_range(tree, q, RADIUS, &cfg, &opts).0).collect();

    for (kernel, batch) in [
        ("psb", psb_batch(tree, queries, k, &cfg, &opts)),
        ("bnb", bnb_batch(tree, queries, k, &cfg, &opts)),
        ("restart", restart_batch(tree, queries, k, &cfg, &opts)),
        ("brute", brute_batch(ps, queries, k, &cfg, &opts)),
    ] {
        let batch = batch.unwrap_or_else(|e| panic!("{label}/{kernel}: {e}"));
        assert_neighbors_bit_identical(&batch.neighbors, &knn, &format!("{label}/{kernel}"));
    }
    let batch = range_batch(tree, queries, RADIUS, &cfg, &opts).expect("range batch");
    assert_neighbors_bit_identical(&batch.neighbors, &range, &format!("{label}/range"));
    let (tpss, _) = tpss_batch(tree, queries, k, &cfg, 128);
    assert_neighbors_bit_identical(&tpss, &knn, &format!("{label}/tpss"));
}

#[test]
fn sstree_arena_is_bit_identical_specialized_dims() {
    let ps = dataset(4, 1201);
    let queries = sample_queries(&ps, 24, 0.01, 1202);
    check_against_oracle(&build(&ps, 16, &BuildMethod::Hilbert), &ps, &queries, 8, "sstree-d4");
}

#[test]
fn sstree_arena_is_bit_identical_generic_dims() {
    let ps = dataset(6, 1301);
    let queries = sample_queries(&ps, 24, 0.01, 1302);
    check_against_oracle(&build(&ps, 16, &BuildMethod::Hilbert), &ps, &queries, 8, "sstree-d6");
}

#[test]
fn rtree_arena_is_bit_identical_specialized_dims() {
    let ps = dataset(4, 1401);
    let queries = sample_queries(&ps, 24, 0.01, 1402);
    let tree = build_rtree(&ps, 16, &RtreeBuildMethod::Hilbert);
    check_against_oracle(&tree, &ps, &queries, 8, "rtree-d4");
}

#[test]
fn rtree_arena_is_bit_identical_generic_dims() {
    let ps = dataset(6, 1501);
    let queries = sample_queries(&ps, 24, 0.01, 1502);
    let tree = build_rtree(&ps, 16, &RtreeBuildMethod::Hilbert);
    check_against_oracle(&tree, &ps, &queries, 8, "rtree-d6");
}

#[test]
fn duplicate_distances_tie_break_identically() {
    // Stacks of coincident points force exact distance ties; every kernel
    // must keep the same survivors as the oracle, lowest id first.
    let mut ps = PointSet::new(3);
    for i in 0..120 {
        let base = [(i / 4) as f32 * 10.0, ((i / 4) % 5) as f32 * 10.0, 0.0];
        ps.push(&base); // 4 coincident copies of each site
    }
    let queries = sample_queries(&ps, 12, 0.05, 1601);
    check_against_oracle(&build(&ps, 8, &BuildMethod::Hilbert), &ps, &queries, 6, "ties/sstree");
    let tree = build_rtree(&ps, 8, &RtreeBuildMethod::Hilbert);
    check_against_oracle(&tree, &ps, &queries, 6, "ties/rtree");
}

#[test]
fn rebuild_arena_is_idempotent() {
    // Repacking the arena from unchanged node arrays must reproduce it
    // exactly: neighbors and every per-block counter stay bit-identical.
    let ps = dataset(4, 1701);
    let queries = sample_queries(&ps, 8, 0.01, 1702);
    let cfg = DeviceConfig::k40();
    let opts = KernelOptions::default();
    let mut tree = build(&ps, 16, &BuildMethod::Hilbert);
    let before = psb_batch(&tree, &queries, 8, &cfg, &opts).expect("first run");
    tree.rebuild_arena();
    tree.rebuild_arena();
    let after = psb_batch(&tree, &queries, 8, &cfg, &opts).expect("rebuilt run");
    assert_neighbors_bit_identical(&after.neighbors, &before.neighbors, "rebuild/sstree");
    assert_eq!(after.per_block, before.per_block, "rebuild/sstree: KernelStats differ");

    let mut tree = build_rtree(&ps, 16, &RtreeBuildMethod::Hilbert);
    let before = range_batch(&tree, &queries, RADIUS, &cfg, &opts).expect("first run");
    tree.rebuild_arena();
    let after = range_batch(&tree, &queries, RADIUS, &cfg, &opts).expect("rebuilt run");
    assert_neighbors_bit_identical(&after.neighbors, &before.neighbors, "rebuild/rtree");
    assert_eq!(after.per_block, before.per_block, "rebuild/rtree: KernelStats differ");
}

type KernelResult = Result<(Vec<Neighbor>, KernelStats), KernelError>;

/// Every hardened bounding-volume kernel, started at the root of `tree`.
fn try_all<T: BoundingVolumeIndex>(tree: &T, q: &[f32]) -> [(&'static str, KernelResult); 4] {
    let cfg = DeviceConfig::k40();
    let opts = KernelOptions::default();
    let mut s = NoopSink;
    [
        ("psb", psb_try_query(tree, q, 4, &cfg, &opts, None, &mut s)),
        ("bnb", bnb_try_query(tree, q, 4, &cfg, &opts, None, &mut s)),
        ("restart", restart_try_query(tree, q, 4, &cfg, &opts, None, &mut s)),
        ("range", range_try_query(tree, q, RADIUS, &cfg, &opts, None, &mut s)),
    ]
}

fn assert_all_corrupt<T: BoundingVolumeIndex>(tree: &T, q: &[f32], what: &str) {
    for (kernel, r) in try_all(tree, q) {
        assert!(
            matches!(r, Err(KernelError::CorruptNode { .. })),
            "{what}/{kernel}: stale arena gave {:?}, want a CorruptNode error",
            r.map(|(nb, _)| nb.len())
        );
    }
}

#[test]
fn stale_arena_is_a_typed_error_on_every_kernel() {
    // Shift the root's child range by one, or shorten it by one: the range
    // stays inside the node array, so the link checks pass, but it no longer
    // matches the root's packed block. The kernels must report that rather
    // than read geometry from anywhere else.
    let ps = dataset(4, 1801);
    let q = ps.point(7).to_vec();
    let tree = build(&ps, 16, &BuildMethod::Hilbert);
    let root = tree.root as usize;
    assert!(tree.child_count[root] >= 2 && tree.height() >= 3, "need an interior root range");
    for (what, shift, shrink) in [("shifted", 1, 0), ("shortened", 0, 1)] {
        let mut t = tree.clone();
        t.first_child[root] += shift;
        t.child_count[root] -= shrink;
        assert!(t.first_child[root] + t.child_count[root] <= t.num_nodes() as u32);
        assert_all_corrupt(&t, &q, &format!("sstree/{what}"));
    }

    let tree = build_rtree(&ps, 16, &RtreeBuildMethod::Hilbert);
    let root = tree.root as usize;
    assert!(tree.child_count[root] >= 2, "need an interior root range");
    for (what, shift, shrink) in [("shifted", 1, 0), ("shortened", 0, 1)] {
        let mut t = tree.clone();
        t.first_child[root] += shift;
        t.child_count[root] -= shrink;
        assert!(t.first_child[root] + t.child_count[root] <= t.num_nodes() as u32);
        assert_all_corrupt(&t, &q, &format!("rtree/{what}"));
    }
}
