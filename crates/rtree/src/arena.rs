//! Packed per-node device arena for the R-tree — the rectangle counterpart of
//! `psb_sstree::arena`.
//!
//! Per **internal** node the block is, in order:
//!
//! ```text
//! [ child low corners: cnt × dims | child high corners: cnt × dims | child ids: cnt | subtree-max-leaf ids: cnt ]
//! ```
//!
//! Per **leaf** node:
//!
//! ```text
//! [ point coords: cnt × dims | point ids: cnt ]
//! ```
//!
//! Ids are `u32` bit patterns stored in the `f32` pool; every block starts on
//! a 64-byte boundary. Like the sphere arena, this is the one node
//! representation the kernels read: every lookup revalidates against the
//! live first-child/count values and returns `None` on mismatch, which the
//! kernels report as a typed corrupt-node error. A default (empty) arena has
//! no blocks.

use psb_geom::layout::{align_up_f32, AlignedF32};

use crate::tree::RsTree;

/// Sentinel offset for "no block recorded for this node".
const NO_BLOCK: u32 = u32::MAX;

/// A packed, 64-byte-aligned, per-node SoA arena over an [`RsTree`].
#[derive(Clone, Debug, Default)]
pub struct RectArena {
    node_off: Vec<u32>,
    node_cnt: Vec<u32>,
    node_first: Vec<u32>,
    node_is_leaf: Vec<bool>,
    dims: usize,
    pool: AlignedF32,
}

/// A borrowed internal-node block: child rectangles and ids as one linear run.
pub struct RectInternalBlock<'a> {
    /// Child MBR low corners, row-major (`cnt × dims`).
    pub lo: &'a [f32],
    /// Child MBR high corners, row-major (`cnt × dims`).
    pub hi: &'a [f32],
    children: &'a [f32],
    max_leaf: &'a [f32],
}

impl RectInternalBlock<'_> {
    /// Number of children in the block.
    #[inline]
    pub fn count(&self) -> usize {
        self.children.len()
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
pub struct RectLeafBlock<'a> {
    /// Point coordinates, row-major (`cnt × dims`).
    pub coords: &'a [f32],
    ids: &'a [f32],
}

impl RectLeafBlock<'_> {
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

impl RectArena {
    /// Pack every node of `tree` into a fresh arena.
    pub fn build(tree: &RsTree) -> Self {
        let nn = tree.num_nodes();
        let dims = tree.dims;
        let mut node_off = vec![NO_BLOCK; nn];
        let mut node_cnt = vec![0u32; nn];
        let mut node_first = vec![0u32; nn];
        let mut node_is_leaf = vec![false; nn];

        let lanes: usize = (0..nn)
            .map(|ni| {
                let c = tree.child_count[ni] as usize;
                let payload = if tree.level[ni] == 0 { c * dims + c } else { 2 * c * dims + 2 * c };
                align_up_f32(payload)
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
                    data.extend_from_slice(tree.mbr(c).0);
                }
                for c in kids.clone() {
                    data.extend_from_slice(tree.mbr(c).1);
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

    /// Pool size in bytes.
    pub fn pool_bytes(&self) -> u64 {
        self.pool.len() as u64 * 4
    }

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

    /// The packed block of internal node `n`, or `None` when stale.
    #[inline]
    pub fn internal(
        &self,
        n: u32,
        live_first: u32,
        live_cnt: usize,
    ) -> Option<RectInternalBlock<'_>> {
        let off = self.check(n, false, live_first, live_cnt)?;
        let c = live_cnt;
        let end = off.checked_add(2 * c * self.dims + 2 * c)?;
        let blk = self.pool.as_slice().get(off..end)?;
        let (lo, rest) = blk.split_at(c * self.dims);
        let (hi, rest) = rest.split_at(c * self.dims);
        let (children, max_leaf) = rest.split_at(c);
        Some(RectInternalBlock { lo, hi, children, max_leaf })
    }

    /// The packed block of leaf node `n`, or `None` when stale.
    #[inline]
    pub fn leaf(&self, n: u32, live_first: u32, live_cnt: usize) -> Option<RectLeafBlock<'_>> {
        let off = self.check(n, true, live_first, live_cnt)?;
        let c = live_cnt;
        let end = off.checked_add(c * self.dims + c)?;
        let blk = self.pool.as_slice().get(off..end)?;
        let (coords, ids) = blk.split_at(c * self.dims);
        Some(RectLeafBlock { coords, ids })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{build_rtree, RtreeBuildMethod};
    use psb_data::ClusteredSpec;
    use psb_geom::layout::ALIGN_BYTES;

    fn tree() -> RsTree {
        let ps =
            ClusteredSpec { clusters: 4, points_per_cluster: 250, dims: 3, sigma: 60.0, seed: 93 }
                .generate();
        build_rtree(&ps, 16, &RtreeBuildMethod::Hilbert)
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
                    let (lo, hi) = t.mbr(c);
                    assert_eq!(&blk.lo[i * t.dims..(i + 1) * t.dims], lo);
                    assert_eq!(&blk.hi[i * t.dims..(i + 1) * t.dims], hi);
                    assert_eq!(blk.child_id(i), c);
                    assert_eq!(blk.max_leaf(i), t.subtree_max_leaf[c as usize]);
                }
            }
        }
    }

    #[test]
    fn blocks_are_64_byte_aligned_and_stale_lookups_fail() {
        let t = tree();
        let arena = &t.arena;
        let kids = t.children(t.root);
        let blk = arena.internal(t.root, kids.start, kids.len()).expect("block");
        assert_eq!(blk.lo.as_ptr() as usize % ALIGN_BYTES, 0);
        assert!(arena.internal(t.root, kids.start, kids.len() + 1).is_none());
        assert!(arena.leaf(t.root, kids.start, kids.len()).is_none());
        assert!(arena.internal(u32::MAX - 1, 0, 1).is_none());
        assert!(RectArena::default().internal(t.root, kids.start, kids.len()).is_none());
        assert!(arena.pool_bytes() > 0);
        assert_eq!(arena.dims(), t.dims);
    }
}
