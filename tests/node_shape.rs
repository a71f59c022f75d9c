//! Node-shape comparison: the identical GPU kernels over bounding spheres
//! (SS-tree) and bounding rectangles (packed R-tree).
//!
//! This pins down the paper's §II-C computational argument — "SS-tree just
//! computes the distance between a query and a centroid and adds or subtracts
//! the radius", while rectangles do per-facet work and pay again for MAXDIST —
//! as a measurable property of the cost model, with exactness preserved on
//! both structures.

use psb::prelude::*;
use psb::rtree::{build_rtree, RsTree, RtreeBuildMethod};

fn dataset(dims: usize) -> PointSet {
    ClusteredSpec { clusters: 12, points_per_cluster: 400, dims, sigma: 140.0, seed: 301 }
        .generate()
}

#[test]
fn all_kernels_exact_over_rtree() {
    let ps = dataset(6);
    let queries = sample_queries(&ps, 12, 0.01, 302);
    let cfg = DeviceConfig::k40();
    let opts = KernelOptions::default();
    for method in [RtreeBuildMethod::Hilbert, RtreeBuildMethod::Str] {
        let tree = build_rtree(&ps, 32, &method);
        tree.validate().unwrap();
        for q in queries.iter() {
            let want = linear_knn(&ps, q, 10);
            let (a, _) = psb_query(&tree, q, 10, &cfg, &opts);
            let (b, _) = bnb_query(&tree, q, 10, &cfg, &opts);
            let (c, _) = restart_query(&tree, q, 10, &cfg, &opts);
            for got in [&a, &b, &c] {
                assert_eq!(got.len(), want.len());
                for (g, w) in got.iter().zip(&want) {
                    assert!(
                        (g.dist - w.dist).abs() <= w.dist.max(1.0) * 1e-4,
                        "{method:?}: {} vs {}",
                        g.dist,
                        w.dist
                    );
                }
            }
            // Range query too.
            let (r, _) = range_query_gpu(&tree, q, 300.0, &cfg, &opts);
            let want_r = linear_range(&ps, q, 300.0);
            assert_eq!(r.len(), want_r.len());
        }
    }
}

#[test]
fn rectangles_cost_more_compute_per_child_in_high_dims() {
    // Same traversal, same degree, same data: the rectangle index must issue
    // more compute per child evaluation (per-facet MINDIST + a separate
    // MAXDIST pass). Compare the per-node evaluation costs directly and the
    // end-to-end issue counts.
    let ps = dataset(32);
    let queries = sample_queries(&ps, 16, 0.01, 303);
    let cfg = DeviceConfig::k40();
    let opts = KernelOptions::default();

    let st = build(&ps, 64, &BuildMethod::Hilbert);
    let rt = build_rtree(&ps, 64, &RtreeBuildMethod::Hilbert);

    use psb::core::BoundingVolumeIndex;
    assert!(
        BoundingVolumeIndex::child_eval_cost(&rt, true)
            > BoundingVolumeIndex::child_eval_cost(&st, true)
    );

    let s = psb_batch(&st, &queries, 32, &cfg, &opts).expect("batch");
    let r = psb_batch(&rt, &queries, 32, &cfg, &opts).expect("batch");
    // Rect nodes are also ~2x larger (two corners), so bytes grow too.
    assert!(
        r.report.merged.global_bytes > s.report.merged.global_bytes,
        "rect bytes {} <= sphere bytes {}",
        r.report.merged.global_bytes,
        s.report.merged.global_bytes
    );
}

#[test]
fn both_shapes_prune_on_clustered_data() {
    let ps = dataset(8);
    let queries = sample_queries(&ps, 8, 0.005, 304);
    let cfg = DeviceConfig::k40();
    let opts = KernelOptions::default();
    let st = build(&ps, 32, &BuildMethod::Hilbert);
    let rt: RsTree = build_rtree(&ps, 32, &RtreeBuildMethod::Str);
    let brute = brute_batch(&ps, &queries, 8, &cfg, &opts).expect("batch");
    for report in [
        psb_batch(&st, &queries, 8, &cfg, &opts).expect("batch").report,
        psb_batch(&rt, &queries, 8, &cfg, &opts).expect("batch").report,
    ] {
        assert!(report.avg_accessed_mb < brute.report.avg_accessed_mb);
    }
}
