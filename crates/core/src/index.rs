//! The index abstractions the GPU kernels traverse.
//!
//! The paper's title promise is *parallel tree traversal for n-ary
//! multi-dimensional trees* — the traversal (PSB, branch-and-bound, restart,
//! range) is independent of the node *shape*. Three traits split what each
//! consumer actually reads, so routing a kernel to an index family that
//! cannot serve it is a compile error rather than a runtime panic:
//!
//! * [`GpuIndex`] — the common surface: dimensionality, the reordered point
//!   array with its original ids, node/point counts and byte sizes. The batch
//!   engine, the recovery ladder's exact brute-force rung
//!   ([`brute_index_query`](crate::brute_index_query)) and the memory
//!   reports need nothing more.
//! * [`BoundingVolumeIndex`] — the flattened bounding-volume hierarchy
//!   (contiguous children, dense left-to-right leaf ids, parent links, rope
//!   links, subtree leaf ranges) plus the per-node volume evaluation with its
//!   instruction cost. PSB, branch-and-bound, restart, range, TPSS, the wave
//!   engine, [`QueryStream`](crate::QueryStream) and the serving routers
//!   require it. Two implementations exist: the SS-tree (bounding spheres —
//!   one distance plus a radius add/subtract yields MINDIST *and* MAXDIST)
//!   and the packed R-tree in `psb-rtree` (bounding rectangles — per-facet
//!   work, and a separate farthest-corner pass for MAXDIST). Running the
//!   identical kernel over both turns the paper's §II-C computational-cost
//!   argument into a measurement.
//! * [`ImplicitKdIndex`] — the implicit left-balanced kd-tree read by the
//!   stack-free kernel: heap-order points and a splitting dimension per node,
//!   nothing else.

use psb_geom::DistKernel;
use psb_sstree::SsTree;

use crate::error::KernelError;

/// Sentinel rope link: "no next subtree" — returned by
/// [`BoundingVolumeIndex::rope`] for the root and every node on the rightmost
/// root-to-leaf spine. Matches the tree crates' own `NO_ROPE` constants
/// bit-for-bit.
pub const NO_ROPE: u32 = u32::MAX;

/// Reusable output buffers for a per-node child sweep. Pooled in the engine's
/// per-thread [`Scratch`](crate::kernels::Scratch) so the batch loop performs
/// no per-node allocation.
#[derive(Clone, Debug, Default)]
pub struct SweepScratch {
    /// MINDIST per child, in child order.
    pub min_d: Vec<f32>,
    /// MAXDIST per child (filled only when the sweep ran `with_max`).
    pub max_d: Vec<f32>,
    /// Anchor (representative-point) distance per child (filled only when the
    /// sweep ran `with_anchor`).
    pub anchor_d: Vec<f32>,
    /// Staging row for the batched one-query-vs-many-rows distance kernels:
    /// sweeps write raw row distances here before deriving their outputs, so
    /// no sweep allocates. Transient — valid only within one sweep call.
    pub tmp: Vec<f32>,
}

impl SweepScratch {
    /// Empty all buffers, keeping their capacity.
    #[inline]
    pub fn clear(&mut self) {
        self.min_d.clear();
        self.max_d.clear();
        self.anchor_d.clear();
        self.tmp.clear();
    }
}

/// The surface every index family shares: the reordered point array with its
/// original ids, the node and point counts, and the byte sizes the memory
/// reports and the point-fetch metering read. The batch engine's plumbing and
/// the recovery ladder's brute-force rung need nothing more; the traversal
/// kernels require one of the two family traits built on top of it.
pub trait GpuIndex: Sync {
    /// Dimensionality of the indexed space.
    fn dims(&self) -> usize;
    /// Total number of nodes (exclusive bound on valid node ids). The
    /// hardened kernels bounds-check every followed link against this and
    /// derive their traversal step budget from it.
    fn num_nodes(&self) -> usize;
    /// Total number of indexed point positions (exclusive bound on valid
    /// positions). Also the domain of the exact brute-force fallback scan.
    fn num_points(&self) -> usize;
    /// Coordinates at point position `pos`.
    fn point(&self, pos: usize) -> &[f32];
    /// Original dataset id at point position `pos`.
    fn point_id(&self, pos: usize) -> u32;
    /// Total modeled device-resident footprint of the index in bytes: every
    /// node's fetched representation (for the bounding-volume families the
    /// packed arena *and* the reordered points it holds). This is the
    /// paper's index-memory comparison number, reported by `inspect` and the
    /// bench harness's `memory` section.
    fn index_bytes(&self) -> u64;
    /// Bytes per point entry (coordinates plus id).
    fn point_entry_bytes(&self) -> u64;
}

/// A flattened n-ary bounding-volume hierarchy traversable by the
/// data-parallel kernels (PSB, branch-and-bound, restart, range, TPSS and
/// the buffer-wave engine).
///
/// Structural contract (checked by each implementation's `validate`):
/// children of a node are contiguous node ids; leaves are numbered densely
/// left-to-right and own contiguous runs of the reordered point array; every
/// node knows the max leaf id under it; `leaf_node_of(l + 1)` is the right
/// sibling of leaf `l`.
///
/// Node geometry is read through [`child_sweep`](Self::child_sweep) and
/// [`leaf_sweep`](Self::leaf_sweep), which stream the index's packed per-node
/// arena — the one representation of a node a kernel sees. A node whose live
/// fields no longer match its arena block is a [`KernelError`], never a
/// silent second read path.
///
/// The implicit kd-tree family does not implement this trait, so routing a
/// bounding-volume kernel to it does not compile:
///
/// ```compile_fail,E0277
/// use psb_core::kernels::psb::psb_query;
/// use psb_core::KernelOptions;
/// use psb_gpu::DeviceConfig;
/// use psb_kdtree::LbKdTree;
///
/// let points = psb_data::UniformSpec { len: 64, dims: 3, seed: 1 }.generate();
/// let tree = LbKdTree::build(&points);
/// let opts = KernelOptions::default();
/// // error[E0277]: the trait bound `LbKdTree: BoundingVolumeIndex` is not satisfied
/// psb_query(&tree, points.point(0), 4, &DeviceConfig::k40(), &opts);
/// ```
///
/// The same setup with the stack-free kernel, which the family does serve,
/// compiles and runs:
///
/// ```
/// use psb_core::kernels::stackfree::stackfree_query;
/// use psb_core::KernelOptions;
/// use psb_gpu::DeviceConfig;
/// use psb_kdtree::LbKdTree;
///
/// let points = psb_data::UniformSpec { len: 64, dims: 3, seed: 1 }.generate();
/// let tree = LbKdTree::build(&points);
/// let opts = KernelOptions::default();
/// let (nb, _) = stackfree_query(&tree, points.point(0), 4, &DeviceConfig::k40(), &opts);
/// assert_eq!(nb[0].dist, 0.0);
/// ```
pub trait BoundingVolumeIndex: GpuIndex {
    /// Maximum children per node (= leaf capacity).
    fn degree(&self) -> usize;
    /// Root node id.
    fn root(&self) -> u32;
    /// Whether `n` is a leaf.
    fn is_leaf(&self, n: u32) -> bool;
    /// Children of internal node `n` (contiguous).
    fn children(&self, n: u32) -> std::ops::Range<u32>;
    /// Parent of `n` (undefined for the root).
    fn parent(&self, n: u32) -> u32;
    /// Point positions of leaf `n`.
    fn leaf_points(&self, n: u32) -> std::ops::Range<usize>;
    /// Dense left-to-right leaf number of leaf `n`.
    fn leaf_id(&self, n: u32) -> u32;
    /// Node id of leaf number `l`.
    fn leaf_node_of(&self, l: u32) -> u32;
    /// Number of leaves.
    fn num_leaves(&self) -> usize;
    /// Largest leaf id under `n`'s subtree.
    fn subtree_max_leaf(&self, n: u32) -> u32;
    /// Rope (escape) link of node `n`: the next node in depth-first preorder
    /// *after skipping `n`'s entire subtree* — the right sibling when one
    /// exists, else the nearest ancestor's right sibling — or [`NO_ROPE`] for
    /// the root and the rightmost spine. Stack-free traversals
    /// ([`KernelOptions::rope`](crate::KernelOptions)) follow it instead of
    /// backtracking through parent links or re-descending from the root.
    /// `None` when the index carries no link for `n` (a missing or short
    /// rope array); the kernels turn that into a [`KernelError`].
    fn rope(&self, n: u32) -> Option<u32>;
    /// Depth of node `n` below the root (root = 0). Feeds the per-level visit
    /// histogram when a stack-free traversal arrives at a node without having
    /// tracked a descent counter.
    fn node_depth(&self, n: u32) -> u32;
    /// Bytes fetched for internal node `n` (its child bounding volumes, SoA).
    fn internal_node_bytes(&self, n: u32) -> u64;
    /// Bytes fetched for leaf node `n` (its points, SoA).
    fn leaf_node_bytes(&self, n: u32) -> u64;
    /// Bytes per child entry (for the AoS strided-layout ablation).
    fn child_entry_bytes(&self) -> u64;

    /// MINDIST (and MAXDIST when `with_max`) from `q` to non-root node `c`'s
    /// bounding volume, read from `c`'s slot in its parent's packed arena
    /// block. When `with_max` is false the second component is unspecified.
    /// The single-node evaluation of the rope traversals and TPSS lanes;
    /// bit-identical to the corresponding [`child_sweep`](Self::child_sweep)
    /// entry, and fails like it when that block is stale (or `c` is the
    /// root, which has no parent block).
    fn child_min_max(&self, c: u32, q: &[f32], with_max: bool) -> Result<(f32, f32), KernelError>;

    /// Instruction cost of one `child_min_max` evaluation under the cost
    /// model. This is where sphere and rectangle indexes differ (§II-C).
    fn child_eval_cost(&self, with_max: bool) -> u64;

    /// Evaluate every child of internal node `n` against `q` in one pass over
    /// the node's packed SoA block: MINDIST always, MAXDIST when `with_max`,
    /// and the distance to each child's representative point (sphere center
    /// / rectangle center — the descent's tie-break when several overlapping
    /// volumes report `MINDIST = 0`) when `with_anchor`, appended to `out` in
    /// child order. Fails with [`KernelError::stale_arena`] when the packed
    /// block does not match the node's live child range.
    fn child_sweep(
        &self,
        n: u32,
        q: &[f32],
        dk: &DistKernel,
        with_max: bool,
        with_anchor: bool,
        out: &mut SweepScratch,
    ) -> Result<(), KernelError>;

    /// Evaluate every point of leaf node `n` against `q`, appending
    /// `(distance, original id)` pairs to `out` in point order. `tmp` is
    /// pooled staging for the batched row kernel ([`DistKernel::dist_rows`]
    /// runs into it, then zips with the packed ids). Same staleness contract
    /// as [`child_sweep`](Self::child_sweep).
    fn leaf_sweep(
        &self,
        n: u32,
        q: &[f32],
        dk: &DistKernel,
        tmp: &mut Vec<f32>,
        out: &mut Vec<(f32, u32)>,
    ) -> Result<(), KernelError>;
}

/// An implicit left-balanced kd-tree traversable by the stack-free kernel
/// (Wald's arithmetic parent-link traversal — see `kernels::stackfree`).
///
/// The index *is* the reordered points array: every node holds exactly one
/// point in heap order, children live at `2n + 1` / `2n + 2`, and the
/// splitting plane is the node's own coordinate in [`split_dim`]. There are
/// no bounding volumes, no child pointers and no per-node metadata, so the
/// node arithmetic below is provided and an implementation supplies only the
/// splitting rule.
///
/// [`split_dim`]: Self::split_dim
pub trait ImplicitKdIndex: GpuIndex {
    /// Splitting dimension of node `n` (round-robin by depth in Wald's
    /// construction).
    fn split_dim(&self, n: u32) -> usize;
    /// Point position held by node `n`: the identity in heap order.
    fn node_point(&self, n: u32) -> usize {
        n as usize
    }
    /// Parent of node `n`, or `u32::MAX` for the root.
    fn parent(&self, n: u32) -> u32 {
        if n == 0 {
            u32::MAX
        } else {
            (n - 1) >> 1
        }
    }
    /// Whether node `n` has no children inside the node array.
    fn is_leaf(&self, n: u32) -> bool {
        2 * n as usize + 1 >= self.num_nodes()
    }
    /// Depth of node `n` below the root (root = 0): `floor(log2(n + 1))`.
    fn node_depth(&self, n: u32) -> u32 {
        31 - (n + 1).leading_zeros()
    }
}

impl GpuIndex for SsTree {
    fn dims(&self) -> usize {
        self.dims
    }
    fn num_nodes(&self) -> usize {
        SsTree::num_nodes(self)
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
        // Node bytes already include the leaf point blocks: internal nodes
        // carry the child-sphere SoA, leaves carry their packed points + ids.
        self.total_bytes()
    }
    fn point_entry_bytes(&self) -> u64 {
        self.dims as u64 * 4 + 4
    }
}

impl BoundingVolumeIndex for SsTree {
    fn degree(&self) -> usize {
        self.degree
    }
    fn root(&self) -> u32 {
        self.root
    }
    fn is_leaf(&self, n: u32) -> bool {
        SsTree::is_leaf(self, n)
    }
    fn children(&self, n: u32) -> std::ops::Range<u32> {
        SsTree::children(self, n)
    }
    fn parent(&self, n: u32) -> u32 {
        self.parent[n as usize]
    }
    fn leaf_points(&self, n: u32) -> std::ops::Range<usize> {
        SsTree::leaf_points(self, n)
    }
    fn leaf_id(&self, n: u32) -> u32 {
        self.leaf_id[n as usize]
    }
    fn leaf_node_of(&self, l: u32) -> u32 {
        self.leaf_node_of[l as usize]
    }
    fn num_leaves(&self) -> usize {
        SsTree::num_leaves(self)
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
        SsTree::internal_node_bytes(self, n)
    }
    fn leaf_node_bytes(&self, n: u32) -> u64 {
        SsTree::leaf_node_bytes(self, n)
    }
    fn child_entry_bytes(&self) -> u64 {
        self.dims as u64 * 4 + 4 + 12
    }

    fn child_min_max(&self, c: u32, q: &[f32], _with_max: bool) -> Result<(f32, f32), KernelError> {
        let stale = || KernelError::stale_arena(c);
        let p = *self.parent.get(c as usize).ok_or_else(stale)?;
        let first = *self.first_child.get(p as usize).ok_or_else(stale)?;
        let cnt = *self.child_count.get(p as usize).ok_or_else(stale)?;
        let blk = self.arena.internal(p, first, cnt as usize).ok_or_else(stale)?;
        let i = c.wrapping_sub(first) as usize;
        let r = *blk.radii.get(i).ok_or_else(stale)?;
        // One center distance yields both bounds — the sphere advantage.
        let center_d = psb_geom::dist(q, &blk.centers[i * self.dims..(i + 1) * self.dims]);
        Ok(((center_d - r).max(0.0), center_d + r))
    }

    fn child_eval_cost(&self, _with_max: bool) -> u64 {
        // Distance + radius add/subtract; MAXDIST is free (same distance).
        crate::dist_cost(self.dims) + 2
    }

    fn child_sweep(
        &self,
        n: u32,
        q: &[f32],
        dk: &DistKernel,
        with_max: bool,
        with_anchor: bool,
        out: &mut SweepScratch,
    ) -> Result<(), KernelError> {
        let kids = SsTree::children(self, n);
        let blk = self
            .arena
            .internal(n, kids.start, kids.len())
            .ok_or_else(|| KernelError::stale_arena(n))?;
        // One batched row sweep over the packed center block (center distance
        // once per child), then both bounds and the anchor derived from it —
        // the same values `child_min_max` computes per child.
        out.tmp.clear();
        dk.dist_rows(q, blk.centers, &mut out.tmp);
        for (&cd, &r) in out.tmp.iter().zip(blk.radii) {
            out.min_d.push((cd - r).max(0.0));
            if with_max {
                out.max_d.push(cd + r);
            }
            if with_anchor {
                out.anchor_d.push(cd);
            }
        }
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
        let run = SsTree::leaf_points(self, n);
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
    use psb_sstree::{build, BuildMethod};

    #[test]
    fn sstree_implements_the_contract() {
        let ps =
            ClusteredSpec { clusters: 4, points_per_cluster: 200, dims: 3, sigma: 50.0, seed: 71 }
                .generate();
        let tree = build(&ps, 16, &BuildMethod::Hilbert);
        let t: &dyn Fn(&SsTree) = &|tree| {
            assert_eq!(GpuIndex::dims(tree), 3);
            assert_eq!(BoundingVolumeIndex::degree(tree), 16);
            let root = BoundingVolumeIndex::root(tree);
            assert!(!BoundingVolumeIndex::is_leaf(tree, root));
            let kids = BoundingVolumeIndex::children(tree, root);
            assert!(!kids.is_empty());
            for c in kids {
                assert_eq!(BoundingVolumeIndex::parent(tree, c), root);
            }
            // Leaf chain is dense and consistent.
            for l in 0..BoundingVolumeIndex::num_leaves(tree) as u32 {
                let n = BoundingVolumeIndex::leaf_node_of(tree, l);
                assert_eq!(BoundingVolumeIndex::leaf_id(tree, n), l);
                assert_eq!(BoundingVolumeIndex::subtree_max_leaf(tree, n), l);
            }
        };
        t(&tree);
    }

    #[test]
    fn sphere_min_max_from_one_distance() {
        let ps =
            ClusteredSpec { clusters: 2, points_per_cluster: 100, dims: 2, sigma: 20.0, seed: 72 }
                .generate();
        let tree = build(&ps, 8, &BuildMethod::Hilbert);
        let c = BoundingVolumeIndex::children(&tree, tree.root).start;
        let q = vec![0.0f32, 0.0];
        let (lo, hi) = BoundingVolumeIndex::child_min_max(&tree, c, &q, true).expect("fresh");
        assert!(lo <= hi);
        assert_eq!(lo, tree.sphere(c).min_dist(&q));
        assert_eq!(hi, tree.sphere(c).max_dist(&q));
        // The volume is read from the parent's packed block: the root has
        // none, and a parent whose live range no longer matches it is stale.
        let root_eval = BoundingVolumeIndex::child_min_max(&tree, tree.root, &q, true);
        assert!(matches!(root_eval, Err(KernelError::CorruptNode { .. })));
        let mut stale = tree.clone();
        stale.child_count[tree.root as usize] -= 1;
        let stale_eval = BoundingVolumeIndex::child_min_max(&stale, c, &q, true);
        assert_eq!(stale_eval, Err(KernelError::stale_arena(c)));
    }

    #[test]
    fn maxdist_costs_nothing_extra_for_spheres() {
        let ps =
            ClusteredSpec { clusters: 2, points_per_cluster: 50, dims: 8, sigma: 20.0, seed: 73 }
                .generate();
        let tree = build(&ps, 8, &BuildMethod::Hilbert);
        assert_eq!(
            BoundingVolumeIndex::child_eval_cost(&tree, false),
            BoundingVolumeIndex::child_eval_cost(&tree, true)
        );
    }
}
