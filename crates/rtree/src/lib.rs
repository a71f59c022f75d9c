//! Packed R-tree: the bounding-rectangle counterpart of the SS-tree.
//!
//! The paper's §II-C argues for spheres over rectangles on computational
//! grounds: an SS-tree "computes the distance between a query and a centroid
//! and adds or subtracts the radius", whereas "rectangular bounding boxes ...
//! require the calculation of distances to each facet". This crate provides a
//! bounding-rectangle index with *exactly the same flattened layout* as the
//! SS-tree (contiguous children, dense left-to-right leaf ids, parent links,
//! subtree leaf ranges), so every GPU kernel in `psb-core` — PSB,
//! branch-and-bound, restart, range — runs over it unchanged via the
//! [`BoundingVolumeIndex`] trait. Comparing the two under identical
//! traversals isolates the node-shape effect the paper asserts.
//!
//! Construction is bulk loading ("Packed R-tree", Kamel & Faloutsos, the
//! paper's [20]): either Hilbert-curve packing or Sort-Tile-Recursive (STR).

pub mod arena;
pub mod build;
pub mod tree;

pub use arena::RectArena;
pub use build::{build_rtree, RtreeBuildMethod};
pub use tree::RsTree;

use psb_core::{BoundingVolumeIndex, GpuIndex, KernelError, SweepScratch};
use psb_geom::{DistKernel, RectKernel, RectRowsOut};

impl GpuIndex for RsTree {
    fn dims(&self) -> usize {
        self.dims
    }
    fn num_nodes(&self) -> usize {
        self.parent.len()
    }
    fn num_points(&self) -> usize {
        self.points.len()
    }
    fn point(&self, pos: usize) -> &[f32] {
        self.points.point(pos)
    }
    fn point_id(&self, pos: usize) -> u32 {
        self.point_ids[pos]
    }
    fn index_bytes(&self) -> u64 {
        self.total_bytes()
    }
    fn point_entry_bytes(&self) -> u64 {
        self.dims as u64 * 4 + 4
    }
}

impl BoundingVolumeIndex for RsTree {
    fn degree(&self) -> usize {
        self.degree
    }
    fn root(&self) -> u32 {
        self.root
    }
    fn is_leaf(&self, n: u32) -> bool {
        RsTree::is_leaf(self, n)
    }
    fn children(&self, n: u32) -> std::ops::Range<u32> {
        RsTree::children(self, n)
    }
    fn parent(&self, n: u32) -> u32 {
        self.parent[n as usize]
    }
    fn leaf_points(&self, n: u32) -> std::ops::Range<usize> {
        RsTree::leaf_points(self, n)
    }
    fn leaf_id(&self, n: u32) -> u32 {
        self.leaf_id[n as usize]
    }
    fn leaf_node_of(&self, l: u32) -> u32 {
        self.leaf_node_of[l as usize]
    }
    fn num_leaves(&self) -> usize {
        self.leaf_node_of.len()
    }
    fn subtree_max_leaf(&self, n: u32) -> u32 {
        self.subtree_max_leaf[n as usize]
    }
    fn rope(&self, n: u32) -> Option<u32> {
        self.rope.get(n as usize).copied()
    }
    fn node_depth(&self, n: u32) -> u32 {
        (self.level[self.root as usize] - self.level[n as usize]) as u32
    }
    fn internal_node_bytes(&self, n: u32) -> u64 {
        RsTree::internal_node_bytes(self, n)
    }
    fn leaf_node_bytes(&self, n: u32) -> u64 {
        RsTree::leaf_node_bytes(self, n)
    }
    fn child_entry_bytes(&self) -> u64 {
        // Two corners per rectangle: twice the sphere's center payload.
        2 * self.dims as u64 * 4 + 12
    }

    fn child_min_max(&self, c: u32, q: &[f32], with_max: bool) -> Result<(f32, f32), KernelError> {
        let stale = || KernelError::stale_arena(c);
        let p = *self.parent.get(c as usize).ok_or_else(stale)?;
        let first = *self.first_child.get(p as usize).ok_or_else(stale)?;
        let cnt = *self.child_count.get(p as usize).ok_or_else(stale)?;
        let blk = self.arena.internal(p, first, cnt as usize).ok_or_else(stale)?;
        let i = c.wrapping_sub(first) as usize;
        if i >= blk.count() {
            return Err(stale());
        }
        let rows = i * self.dims..(i + 1) * self.dims;
        let (lo, hi) = (&blk.lo[rows.clone()], &blk.hi[rows]);
        let mut min_acc = 0f32;
        let mut max_acc = 0f32;
        for ((&l, &h), &x) in lo.iter().zip(hi).zip(q) {
            let d = if x < l {
                l - x
            } else if x > h {
                x - h
            } else {
                0.0
            };
            min_acc += d * d;
            if with_max {
                let far = (x - l).abs().max((x - h).abs());
                max_acc += far * far;
            }
        }
        Ok((min_acc.sqrt(), max_acc.sqrt()))
    }

    fn child_eval_cost(&self, with_max: bool) -> u64 {
        // MINDIST: per-dimension clamp + square (≈2 ops/dim); MAXDIST needs a
        // second per-facet pass — rectangles pay where spheres don't (§II-C).
        let d = self.dims as u64;
        let min_cost = (2 * d).div_ceil(4) + 2;
        if with_max {
            min_cost + (2 * d).div_ceil(4)
        } else {
            min_cost
        }
    }

    fn child_sweep(
        &self,
        n: u32,
        q: &[f32],
        _dk: &DistKernel,
        with_max: bool,
        with_anchor: bool,
        out: &mut SweepScratch,
    ) -> Result<(), KernelError> {
        let kids = RsTree::children(self, n);
        let blk = self
            .arena
            .internal(n, kids.start, kids.len())
            .ok_or_else(|| KernelError::stale_arena(n))?;
        // Batched one-query-vs-many-rows evaluation over the arena's SoA
        // corner rows; bit-identical to `child_min_max` per row.
        let rk = RectKernel::for_dims(self.dims);
        rk.eval_rows(
            q,
            blk.lo,
            blk.hi,
            with_max,
            with_anchor,
            &mut RectRowsOut {
                min_d: &mut out.min_d,
                max_d: &mut out.max_d,
                anchor_d: &mut out.anchor_d,
            },
        );
        Ok(())
    }

    fn leaf_sweep(
        &self,
        n: u32,
        q: &[f32],
        dk: &DistKernel,
        tmp: &mut Vec<f32>,
        out: &mut Vec<(f32, u32)>,
    ) -> Result<(), KernelError> {
        let run = RsTree::leaf_points(self, n);
        let blk = self
            .arena
            .leaf(n, run.start as u32, run.len())
            .ok_or_else(|| KernelError::stale_arena(n))?;
        tmp.clear();
        dk.dist_rows(q, blk.coords, tmp);
        for (i, &d) in tmp.iter().enumerate() {
            out.push((d, blk.id(i)));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psb_data::ClusteredSpec;

    #[test]
    fn rect_maxdist_costs_more_than_mindist() {
        let ps =
            ClusteredSpec { clusters: 2, points_per_cluster: 100, dims: 16, sigma: 30.0, seed: 81 }
                .generate();
        let t = build_rtree(&ps, 16, &RtreeBuildMethod::Hilbert);
        assert!(
            BoundingVolumeIndex::child_eval_cost(&t, true)
                > BoundingVolumeIndex::child_eval_cost(&t, false)
        );
    }

    #[test]
    fn rect_bounds_bracket_points() {
        let ps =
            ClusteredSpec { clusters: 3, points_per_cluster: 150, dims: 4, sigma: 60.0, seed: 82 }
                .generate();
        let t = build_rtree(&ps, 16, &RtreeBuildMethod::Str);
        let q = vec![100.0f32; 4];
        for c in RsTree::children(&t, t.root) {
            let (lo, hi) = BoundingVolumeIndex::child_min_max(&t, c, &q, true).expect("fresh");
            assert!(lo <= hi);
            // Every point in the subtree obeys the bracket.
            let mut stack = vec![c];
            while let Some(n) = stack.pop() {
                if RsTree::is_leaf(&t, n) {
                    for p in RsTree::leaf_points(&t, n) {
                        let d = psb_geom::dist(&q, t.points.point(p));
                        assert!(d >= lo - 1e-3 && d <= hi + hi * 1e-5 + 1e-3);
                    }
                } else {
                    stack.extend(RsTree::children(&t, n));
                }
            }
        }
    }
}
