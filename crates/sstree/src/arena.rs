//! The packed per-node device arena: the layout `internal_node_bytes` claims,
//! made real on the host.
//!
//! The flattened [`SsTree`](crate::SsTree) stores node geometry node-major
//! (the arrays construction, validation and persistence work on), where
//! evaluating the children of node `n` would *gather* one scattered
//! `center(c)` slice per child. The simulated GPU already meters the fetch as one linear
//! SoA block (§V-A of the paper: "we store the bounding spheres of child nodes
//! as the structure of array (SOA)"); this module builds that block for real so
//! host sweeps stream one contiguous, 64-byte-aligned run per node.
//!
//! Per **internal** node the block is, in order:
//!
//! ```text
//! [ child centers: cnt × dims f32 | child radii: cnt | child ids: cnt | subtree-max-leaf ids: cnt ]
//! ```
//!
//! Per **leaf** node:
//!
//! ```text
//! [ point coords: cnt × dims f32 | point ids: cnt ]
//! ```
//!
//! Ids are stored as raw `u32` bit patterns inside the `f32` pool
//! (`f32::from_bits` / `to_bits` round-trip losslessly); every block starts on
//! a 64-byte boundary inside one [`AlignedF32`] pool.
//!
//! The arena is the **one node representation** the query kernels read: it
//! is packed from the tree after every construction or load, never
//! persisted, and never trusted blindly. Every lookup takes the *live*
//! first-child/count values and returns `None` on any mismatch with the
//! build-time snapshot (or on a kind change); the kernels report that as a
//! typed corrupt-node error, since there is no second read path to fall back
//! on. A default (empty) arena has no blocks, so every lookup misses.

use psb_geom::layout::{align_up_f32, AlignedF32};

use crate::tree::SsTree;

/// Sentinel offset for "no block recorded for this node".
const NO_BLOCK: u32 = u32::MAX;

/// A packed, 64-byte-aligned, per-node SoA arena over an [`SsTree`].
#[derive(Clone, Debug, Default)]
pub struct SphereArena {
    /// Per-node block offset into the pool (f32 index), [`NO_BLOCK`] if absent.
    node_off: Vec<u32>,
    /// Build-time child count (internal) / point count (leaf) per node.
    node_cnt: Vec<u32>,
    /// Build-time first child id (internal) / first point position (leaf).
    node_first: Vec<u32>,
    /// Build-time leaf flag per node.
    node_is_leaf: Vec<bool>,
    /// Dimensionality the blocks were packed with.
    dims: usize,
    /// One contiguous pool holding every per-node block.
    pool: AlignedF32,
}

/// A borrowed internal-node block: the node's child spheres and ids as one
/// linear SoA run.
pub struct InternalBlock<'a> {
    /// Child sphere centers, row-major (`cnt × dims`).
    pub centers: &'a [f32],
    /// Child sphere radii (`cnt`).
    pub radii: &'a [f32],
    children: &'a [f32],
    max_leaf: &'a [f32],
}

impl InternalBlock<'_> {
    /// Number of children in the block.
    #[inline]
    pub fn count(&self) -> usize {
        self.radii.len()
    }

    /// Child node id at block position `i`.
    #[inline]
    pub fn child_id(&self, i: usize) -> u32 {
        self.children[i].to_bits()
    }

    /// Subtree-max-leaf id of the child at block position `i`.
    #[inline]
    pub fn max_leaf(&self, i: usize) -> u32 {
        self.max_leaf[i].to_bits()
    }
}

/// A borrowed leaf block: the leaf's point run and original ids.
pub struct LeafBlock<'a> {
    /// Point coordinates, row-major (`cnt × dims`).
    pub coords: &'a [f32],
    ids: &'a [f32],
}

impl LeafBlock<'_> {
    /// Number of points in the block.
    #[inline]
    pub fn count(&self) -> usize {
        self.ids.len()
    }

    /// Original dataset id of the point at block position `i`.
    #[inline]
    pub fn id(&self, i: usize) -> u32 {
        self.ids[i].to_bits()
    }
}

impl SphereArena {
    /// Pack every node of `tree` into a fresh arena. The tree must be
    /// structurally valid (construction and load both validate first).
    pub fn build(tree: &SsTree) -> Self {
        let nn = tree.num_nodes();
        let dims = tree.dims;
        let mut node_off = vec![NO_BLOCK; nn];
        let mut node_cnt = vec![0u32; nn];
        let mut node_first = vec![0u32; nn];
        let mut node_is_leaf = vec![false; nn];

        // Pre-size: per node, cnt*dims + (3 or 1)*cnt lanes plus padding.
        let lanes: usize = (0..nn)
            .map(|ni| {
                let c = tree.child_count[ni] as usize;
                let meta = if tree.level[ni] == 0 { c } else { 3 * c };
                align_up_f32(c * dims + meta)
            })
            .sum();
        let mut data: Vec<f32> = Vec::with_capacity(lanes);

        for n in 0..nn as u32 {
            let ni = n as usize;
            data.resize(align_up_f32(data.len()), 0.0);
            node_off[ni] = data.len() as u32;
            node_cnt[ni] = tree.child_count[ni];
            node_first[ni] = tree.first_child[ni];
            if tree.is_leaf(n) {
                node_is_leaf[ni] = true;
                let run = tree.leaf_points(n);
                for p in run.clone() {
                    data.extend_from_slice(tree.points.point(p));
                }
                for p in run {
                    data.push(f32::from_bits(tree.point_ids[p]));
                }
            } else {
                let kids = tree.children(n);
                for c in kids.clone() {
                    data.extend_from_slice(tree.center(c));
                }
                for c in kids.clone() {
                    data.push(tree.radii[c as usize]);
                }
                for c in kids.clone() {
                    data.push(f32::from_bits(c));
                }
                for c in kids {
                    data.push(f32::from_bits(tree.subtree_max_leaf[c as usize]));
                }
            }
        }

        Self {
            node_off,
            node_cnt,
            node_first,
            node_is_leaf,
            dims,
            pool: AlignedF32::from_slice(&data),
        }
    }

    /// Dimensionality the arena was packed with.
    #[inline]
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Pool size in bytes (for memory accounting).
    pub fn pool_bytes(&self) -> u64 {
        self.pool.len() as u64 * 4
    }

    /// Common staleness guard: the node must exist, match the recorded kind,
    /// and its live first/count must equal the build-time snapshot.
    #[inline]
    fn check(&self, n: u32, is_leaf: bool, live_first: u32, live_cnt: usize) -> Option<usize> {
        let ni = n as usize;
        if ni >= self.node_off.len()
            || self.node_is_leaf[ni] != is_leaf
            || self.node_off[ni] == NO_BLOCK
            || self.node_first[ni] != live_first
            || self.node_cnt[ni] as usize != live_cnt
        {
            return None;
        }
        Some(self.node_off[ni] as usize)
    }

    /// The packed block of internal node `n`, or `None` when the live tree no
    /// longer matches the build-time snapshot.
    #[inline]
    pub fn internal(&self, n: u32, live_first: u32, live_cnt: usize) -> Option<InternalBlock<'_>> {
        let off = self.check(n, false, live_first, live_cnt)?;
        let c = live_cnt;
        let end = off.checked_add(c * self.dims + 3 * c)?;
        let blk = self.pool.as_slice().get(off..end)?;
        let (centers, rest) = blk.split_at(c * self.dims);
        let (radii, rest) = rest.split_at(c);
        let (children, max_leaf) = rest.split_at(c);
        Some(InternalBlock { centers, radii, children, max_leaf })
    }

    /// The packed block of leaf node `n`, or `None` when stale (see
    /// [`SphereArena::internal`]).
    #[inline]
    pub fn leaf(&self, n: u32, live_first: u32, live_cnt: usize) -> Option<LeafBlock<'_>> {
        let off = self.check(n, true, live_first, live_cnt)?;
        let c = live_cnt;
        let end = off.checked_add(c * self.dims + c)?;
        let blk = self.pool.as_slice().get(off..end)?;
        let (coords, ids) = blk.split_at(c * self.dims);
        Some(LeafBlock { coords, ids })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{build, BuildMethod};
    use psb_data::ClusteredSpec;
    use psb_geom::layout::ALIGN_BYTES;

    fn tree() -> SsTree {
        let ps =
            ClusteredSpec { clusters: 5, points_per_cluster: 200, dims: 4, sigma: 70.0, seed: 51 }
                .generate();
        build(&ps, 16, &BuildMethod::Hilbert)
    }

    #[test]
    fn blocks_mirror_the_tree_exactly() {
        let t = tree();
        let arena = &t.arena;
        for n in 0..t.num_nodes() as u32 {
            if t.is_leaf(n) {
                let run = t.leaf_points(n);
                let blk = arena.leaf(n, run.start as u32, run.len()).expect("fresh arena");
                assert_eq!(blk.count(), run.len());
                for (i, p) in run.enumerate() {
                    assert_eq!(&blk.coords[i * t.dims..(i + 1) * t.dims], t.points.point(p));
                    assert_eq!(blk.id(i), t.point_ids[p]);
                }
            } else {
                let kids = t.children(n);
                let blk = arena.internal(n, kids.start, kids.len()).expect("fresh arena");
                assert_eq!(blk.count(), kids.len());
                for (i, c) in kids.enumerate() {
                    assert_eq!(&blk.centers[i * t.dims..(i + 1) * t.dims], t.center(c));
                    assert_eq!(blk.radii[i].to_bits(), t.radii[c as usize].to_bits());
                    assert_eq!(blk.child_id(i), c);
                    assert_eq!(blk.max_leaf(i), t.subtree_max_leaf[c as usize]);
                }
            }
        }
    }

    #[test]
    fn every_block_is_64_byte_aligned() {
        let t = tree();
        let arena = &t.arena;
        for n in 0..t.num_nodes() as u32 {
            let ptr = if t.is_leaf(n) {
                let run = t.leaf_points(n);
                arena.leaf(n, run.start as u32, run.len()).expect("block").coords.as_ptr()
            } else {
                let kids = t.children(n);
                arena.internal(n, kids.start, kids.len()).expect("block").centers.as_ptr()
            };
            assert_eq!(ptr as usize % ALIGN_BYTES, 0, "node {n} block not aligned");
        }
    }

    #[test]
    fn stale_lookups_return_none() {
        let t = tree();
        let root = t.root;
        let kids = t.children(root);
        let arena = &t.arena;
        // An unpacked (default) arena holds no blocks at all.
        assert!(SphereArena::default().internal(root, kids.start, kids.len()).is_none());
        // Kind mismatch: asking for the root as a leaf.
        assert!(arena.leaf(root, kids.start, kids.len()).is_none());
        // Count mismatch (a corrupted child_count).
        assert!(arena.internal(root, kids.start, kids.len() + 3).is_none());
        // First-child mismatch (a corrupted first_child).
        assert!(arena.internal(root, kids.start ^ 1, kids.len()).is_none());
        // Out-of-range node id.
        assert!(arena.internal(u32::MAX - 1, 0, 1).is_none());
        // The untouched lookup still works.
        assert!(arena.internal(root, kids.start, kids.len()).is_some());
    }

    #[test]
    fn clone_keeps_blocks_identical() {
        let t = tree();
        let a = &t.arena;
        let b = a.clone();
        let kids = t.children(t.root);
        let x = a.internal(t.root, kids.start, kids.len()).expect("block");
        let y = b.internal(t.root, kids.start, kids.len()).expect("block");
        assert_eq!(x.centers, y.centers);
        assert_eq!(x.radii, y.radii);
        assert!(b.pool_bytes() > 0);
        assert_eq!(b.dims(), t.dims);
    }
}
