//! Exact answers to check the program's answers against, outside any timed
//! region: the repository's brute-force kernel over a static point set, and a
//! linear scan over a live set the benchmark mirrors for the mutable index.

use std::collections::HashMap;

use psb_core::kernels::brute::brute_query;
use psb_core::{KernelOptions, Metering};
use psb_geom::{dist, PointSet};
use psb_gpu::DeviceConfig;
use psb_sstree::Neighbor;

/// Sorts by distance, ties broken by id.
pub fn sort_neighbors(v: &mut [Neighbor]) {
    v.sort_by(|a, b| a.dist.total_cmp(&b.dist).then(a.id.cmp(&b.id)));
}

/// Whether `got` is exactly `expected`: same ids in the same order, same
/// distance bits.
pub fn matches(expected: &[Neighbor], got: &[Neighbor]) -> bool {
    expected.len() == got.len()
        && expected
            .iter()
            .zip(got)
            .all(|(e, g)| e.id == g.id && e.dist.to_bits() == g.dist.to_bits())
}

/// `brute_query` over the full point set, ties broken by id.
pub fn brute(points: &PointSet, q: &[f32], k: usize, dev: &DeviceConfig) -> Vec<Neighbor> {
    let opts = KernelOptions { metering: Metering::Off, ..KernelOptions::default() };
    let (mut nb, _) = brute_query(points, q, k, dev, &opts);
    sort_neighbors(&mut nb);
    nb
}

/// The live points of a mutable index, kept beside it by the benchmark.
#[derive(Default)]
pub struct Mirror {
    dims: usize,
    ids: Vec<u32>,
    coords: Vec<f32>,
    pos: HashMap<u32, usize>,
}

impl Mirror {
    /// Points `0..n` of `ps` with their positions as ids.
    pub fn of(ps: &PointSet) -> Self {
        let mut m = Mirror { dims: ps.dims(), ..Mirror::default() };
        for i in 0..ps.len() {
            m.insert(i as u32, ps.point(i));
        }
        m
    }

    pub fn len(&self) -> usize {
        self.ids.len()
    }

    pub fn id_at(&self, i: usize) -> u32 {
        self.ids[i]
    }

    pub fn insert(&mut self, id: u32, p: &[f32]) {
        self.pos.insert(id, self.ids.len());
        self.ids.push(id);
        self.coords.extend_from_slice(p);
    }

    pub fn remove(&mut self, id: u32) -> bool {
        let Some(i) = self.pos.remove(&id) else {
            return false;
        };
        let last = self.ids.len() - 1;
        self.ids.swap_remove(i);
        let d = self.dims;
        if i != last {
            self.coords.copy_within(last * d..(last + 1) * d, i * d);
            self.pos.insert(self.ids[i], i);
        }
        self.coords.truncate(last * d);
        true
    }

    /// The live points as a point set, in mirror order.
    pub fn points(&self) -> PointSet {
        PointSet::from_flat(self.dims, self.coords.clone())
    }

    /// Exact kNN over the live points by linear scan.
    pub fn knn(&self, q: &[f32], k: usize) -> Vec<Neighbor> {
        let mut all: Vec<Neighbor> = self
            .coords
            .chunks_exact(self.dims)
            .zip(&self.ids)
            .map(|(p, &id)| Neighbor { dist: dist(q, p), id })
            .collect();
        if all.len() > k {
            let kth = |a: &Neighbor, b: &Neighbor| a.dist.total_cmp(&b.dist).then(a.id.cmp(&b.id));
            all.select_nth_unstable_by(k, kth);
            all.truncate(k);
        }
        sort_neighbors(&mut all);
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> PointSet {
        let mut ps = PointSet::new(2);
        for x in 0..8 {
            for y in 0..8 {
                ps.push(&[x as f32, y as f32]);
            }
        }
        ps
    }

    #[test]
    fn brute_answers_break_ties_by_id() {
        let ps = grid();
        let nb = brute(&ps, &[3.5, 3.5], 4, &DeviceConfig::k40());
        // Four points at the same distance: ids 27, 28, 35, 36.
        assert_eq!(nb.iter().map(|n| n.id).collect::<Vec<_>>(), vec![27, 28, 35, 36]);
    }

    #[test]
    fn a_planted_wrong_answer_is_caught() {
        let ps = grid();
        let dev = DeviceConfig::k40();
        let q = [1.2, 6.7];
        let truth = brute(&ps, &q, 3, &dev);
        assert!(matches(&truth, &truth.clone()));
        let mut swapped = truth.clone();
        swapped.swap(0, 1);
        assert!(!matches(&truth, &swapped), "order matters");
        let mut wrong_id = truth.clone();
        wrong_id[2].id += 1;
        assert!(!matches(&truth, &wrong_id), "a wrong id is caught");
        let mut wrong_dist = truth.clone();
        wrong_dist[1].dist = f32::from_bits(wrong_dist[1].dist.to_bits() + 1);
        assert!(!matches(&truth, &wrong_dist), "one ulp of distance is caught");
        assert!(!matches(&truth, &truth[..2]), "a short answer is caught");
    }

    #[test]
    fn mirror_tracks_inserts_and_removes() {
        let ps = grid();
        let mut m = Mirror::of(&ps);
        assert!(m.remove(0));
        assert!(!m.remove(0));
        m.insert(100, &[0.0, 0.0]);
        let nb = m.knn(&[0.0, 0.0], 2);
        assert_eq!(nb.iter().map(|n| n.id).collect::<Vec<_>>(), vec![100, 1]);
        assert_eq!(m.len(), 64);
        let expected = brute(&m.points(), &[5.0, 5.0], 1, &DeviceConfig::k40());
        assert_eq!(m.knn(&[5.0, 5.0], 1)[0].dist, expected[0].dist);
    }
}
