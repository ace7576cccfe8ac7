//! Synthetic sparse tensor generators.
//!
//! The adaptive launching result (§IV-B) hinges on tensors *differing* in
//! size, sparsity and nnz distribution, so the generators cover three
//! structural regimes:
//!
//! * [`uniform`] — coordinates i.i.d. uniform (nell-2-like homogeneous
//!   sparsity),
//! * [`zipf_slices`] — mode-0 slice populations follow a Zipf law (the
//!   heavy-tailed slice skew of web-crawl tensors like deli/flickr),
//! * [`blocked`] — non-zeros clustered into random dense-ish blocks
//!   (co-occurrence tensors like enron).
//!
//! All generators are deterministic in their seed and deduplicate
//! coordinates, so `nnz` is exact.

use crate::coo::CoordSet;
use crate::{CooTensor, Idx};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Maximum attempts per requested nnz before giving up on finding distinct
/// coordinates (only reachable when `nnz` approaches the dense size).
const MAX_OVERSAMPLE: usize = 64;

fn checked_budget(dims: &[Idx], nnz: usize) {
    let cells: f64 = dims.iter().map(|&d| d as f64).product();
    assert!((nnz as f64) <= cells, "requested {nnz} nnz exceeds the {cells} cells of the tensor");
}

/// Generates `nnz` distinct uniform-random coordinates.
pub fn uniform(dims: &[Idx], nnz: usize, seed: u64) -> CooTensor {
    checked_budget(dims, nnz);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5ca1_f4a6_0000_0001);
    let mut seen = CoordSet::with_capacity(dims, nnz * 2);
    let mut t = CooTensor::new(dims);
    let mut coord = vec![0 as Idx; dims.len()];
    let mut guard = 0usize;
    while t.nnz() < nnz {
        for (c, &d) in coord.iter_mut().zip(dims) {
            *c = rng.gen_range(0..d);
        }
        if seen.insert(&coord) {
            t.push(&coord, 0.0);
            guard = 0;
        } else {
            guard += 1;
            assert!(guard < MAX_OVERSAMPLE * nnz.max(1), "cannot find distinct coordinates");
        }
    }
    t.randomize_values(&mut rng);
    t
}

/// Draws one sample from a Zipf(`s`) distribution over `{0, …, n-1}` using
/// inverse-CDF on precomputed cumulative weights.
pub(crate) struct ZipfSampler {
    cdf: Vec<f64>,
}

impl ZipfSampler {
    /// Builds a sampler over `n` ranks with exponent `s` (s=0 → uniform,
    /// s≈1 → classic web-data skew).
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf support must be non-empty");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for k in 0..n {
            acc += 1.0 / ((k + 1) as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        Self { cdf }
    }

    /// Samples a rank in `0..n`.
    pub fn sample(&self, rng: &mut impl Rng) -> usize {
        let u: f64 = rng.gen();
        // Binary search for the first cdf entry >= u.
        match self.cdf.binary_search_by(|c| c.partial_cmp(&u).unwrap()) {
            Ok(i) => i,
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }
}

/// Generates a tensor whose mode-0 slice populations follow Zipf(`skew`):
/// a few slices hold most of the non-zeros, the long tail is near-empty.
/// The remaining modes are uniform. This is the distribution that makes
/// `maxNnzPerSlice ≫ avgNnzPerSlice` and stresses atomic contention.
pub fn zipf_slices(dims: &[Idx], nnz: usize, skew: f64, seed: u64) -> CooTensor {
    checked_budget(dims, nnz);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5ca1_f4a6_0000_0002);
    // Randomly permute slice ranks so the "hot" slices are not simply 0,1,2…
    let n0 = dims[0] as usize;
    let mut slice_of_rank: Vec<Idx> = (0..n0 as Idx).collect();
    for i in (1..n0).rev() {
        let j = rng.gen_range(0..=i);
        slice_of_rank.swap(i, j);
    }
    let zipf = ZipfSampler::new(n0, skew);

    let mut seen = CoordSet::with_capacity(dims, nnz * 2);
    let mut t = CooTensor::new(dims);
    let mut coord = vec![0 as Idx; dims.len()];
    let mut guard = 0usize;
    while t.nnz() < nnz {
        coord[0] = slice_of_rank[zipf.sample(&mut rng)];
        for m in 1..dims.len() {
            coord[m] = rng.gen_range(0..dims[m]);
        }
        if seen.insert(&coord) {
            t.push(&coord, 0.0);
            guard = 0;
        } else {
            guard += 1;
            if guard > MAX_OVERSAMPLE {
                // Hot slices saturate when nnz is large relative to the slice
                // area; place a uniform coordinate instead so generation
                // always terminates (the budget check guarantees room).
                push_uniform_fallback(&mut t, &mut seen, dims, &mut rng);
                guard = 0;
            }
        }
    }
    t.randomize_values(&mut rng);
    t
}

/// Draws uniform coordinates until an unseen one is found and pushes it —
/// the terminating fallback for generators whose primary distribution has
/// saturated. `checked_budget` guarantees free cells exist; the expected
/// number of draws is `cells / (cells - nnz)`.
fn push_uniform_fallback(t: &mut CooTensor, seen: &mut CoordSet, dims: &[Idx], rng: &mut impl Rng) {
    let mut coord = vec![0 as Idx; dims.len()];
    loop {
        for (c, &d) in coord.iter_mut().zip(dims) {
            *c = rng.gen_range(0..d);
        }
        if seen.insert(&coord) {
            t.push(&coord, 0.0);
            return;
        }
    }
}

/// Generates a tensor whose non-zeros are clustered into `num_blocks`
/// random axis-aligned blocks of edge `block_edge` (clipped at the mode
/// borders). Mimics co-occurrence tensors and is the regime where blocked
/// formats (HiCOO) and shared-memory tiling shine.
pub fn blocked(
    dims: &[Idx],
    nnz: usize,
    num_blocks: usize,
    block_edge: Idx,
    seed: u64,
) -> CooTensor {
    checked_budget(dims, nnz);
    assert!(num_blocks > 0 && block_edge > 0);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5ca1_f4a6_0000_0003);
    // Pick block origins.
    let origins: Vec<Vec<Idx>> =
        (0..num_blocks).map(|_| dims.iter().map(|&d| rng.gen_range(0..d)).collect()).collect();

    let mut seen = CoordSet::with_capacity(dims, nnz * 2);
    let mut t = CooTensor::new(dims);
    let mut coord = vec![0 as Idx; dims.len()];
    let mut guard = 0usize;
    while t.nnz() < nnz {
        let b = &origins[rng.gen_range(0..num_blocks)];
        for (m, (&o, &d)) in b.iter().zip(dims).enumerate() {
            let span = block_edge.min(d - o).max(1);
            coord[m] = o + rng.gen_range(0..span);
        }
        if seen.insert(&coord) {
            t.push(&coord, 0.0);
            guard = 0;
        } else {
            guard += 1;
            if guard > MAX_OVERSAMPLE {
                // Blocks saturated — sprinkle uniformly to reach the target.
                push_uniform_fallback(&mut t, &mut seen, dims, &mut rng);
                guard = 0;
            }
        }
    }
    t.randomize_values(&mut rng);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_exact_nnz_and_distinct() {
        let t = uniform(&[50, 60, 70], 500, 3);
        assert_eq!(t.nnz(), 500);
        assert!(t.validate().is_ok());
        let mut coords: Vec<Vec<Idx>> = (0..t.nnz()).map(|e| t.coord(e)).collect();
        coords.sort_unstable();
        coords.dedup();
        assert_eq!(coords.len(), 500, "coordinates must be distinct");
    }

    #[test]
    fn uniform_can_fill_dense() {
        // nnz == number of cells must terminate.
        let t = uniform(&[4, 4], 16, 1);
        assert_eq!(t.nnz(), 16);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn overfull_request_panics() {
        let _ = uniform(&[2, 2], 5, 0);
    }

    #[test]
    fn zipf_sampler_prefers_low_ranks() {
        let z = ZipfSampler::new(100, 1.2);
        let mut rng = StdRng::seed_from_u64(11);
        let mut counts = vec![0usize; 100];
        for _ in 0..20_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[10] && counts[10] > counts[70]);
        // rank 0 should dominate strongly at s=1.2
        assert!(counts[0] as f64 > 0.1 * 20_000.0 * 0.5);
    }

    #[test]
    fn zipf_sampler_uniform_at_zero_skew() {
        let z = ZipfSampler::new(10, 0.0);
        let mut rng = StdRng::seed_from_u64(5);
        let mut counts = vec![0usize; 10];
        for _ in 0..50_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        for &c in &counts {
            let p = c as f64 / 50_000.0;
            assert!((p - 0.1).abs() < 0.02, "uniform expected, got {p}");
        }
    }

    #[test]
    fn zipf_slices_produces_skewed_histogram() {
        let t = zipf_slices(&[200, 100, 100], 5_000, 1.1, 17);
        assert_eq!(t.nnz(), 5_000);
        let hist = t.slice_nnz_histogram(0);
        let max = *hist.iter().max().unwrap() as f64;
        let avg = 5_000.0 / 200.0;
        assert!(max / avg > 4.0, "expected heavy skew, max/avg = {}", max / avg);
    }

    #[test]
    fn blocked_clusters_nonzeros() {
        let t = blocked(&[256, 256, 256], 2_000, 8, 16, 23);
        assert_eq!(t.nnz(), 2_000);
        assert!(t.validate().is_ok());
        // Clustering: the number of distinct 16-aligned block coordinates
        // touched should be far below nnz.
        let mut blocks: Vec<(Idx, Idx, Idx)> = (0..t.nnz())
            .map(|e| {
                let c = t.coord(e);
                (c[0] / 16, c[1] / 16, c[2] / 16)
            })
            .collect();
        blocks.sort_unstable();
        blocks.dedup();
        assert!(blocks.len() < 200, "expected clustering, got {} blocks", blocks.len());
    }

    #[test]
    fn blocked_terminates_when_blocks_saturate() {
        // 4 blocks of edge 4 hold at most 256 cells, far below the 2_000
        // requested non-zeros: the uniform fallback must fill the rest.
        let t = blocked(&[64, 64, 64], 2_000, 4, 4, 3);
        assert_eq!(t.nnz(), 2_000);
        assert!(t.validate().is_ok());
    }

    #[test]
    fn zipf_terminates_when_hot_slices_saturate() {
        // Extreme skew on a tensor whose head slice holds only 16 cells.
        let t = zipf_slices(&[100, 4, 4], 1_000, 3.0, 5);
        assert_eq!(t.nnz(), 1_000);
        assert!(t.validate().is_ok());
    }

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(
            zipf_slices(&[64, 64, 64], 300, 1.0, 9),
            zipf_slices(&[64, 64, 64], 300, 1.0, 9)
        );
        assert_eq!(blocked(&[64, 64, 64], 300, 4, 8, 9), blocked(&[64, 64, 64], 300, 4, 8, 9));
    }

    /// FNV-1a over a tensor's dims, indices (mode by mode) and value bits.
    fn fnv(t: &CooTensor) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |x: u32| {
            for b in x.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for &d in t.dims() {
            eat(d);
        }
        for m in 0..t.order() {
            for &i in t.mode_indices(m) {
                eat(i);
            }
        }
        for v in t.values() {
            eat(v.to_bits());
        }
        h
    }

    #[test]
    fn generator_output_is_pinned() {
        // Digests of the generators before their dedup set stored packed
        // keys: the RNG draws and accept/reject decisions must not move.
        // The cases cover packed keys, spans too wide to pack (90 and 150
        // bits) and both saturating fallbacks.
        let cases = [
            ("uniform", uniform(&[50, 60, 70], 500, 3), 0x475e_776a_492c_0805),
            ("uniform dense", uniform(&[4, 4], 16, 1), 0x2774_c508_f6a7_168f),
            ("uniform 90-bit", uniform(&[1 << 30; 3], 300, 4), 0x1b4c_2398_b465_0b0a),
            ("uniform 150-bit", uniform(&[1 << 30; 5], 300, 5), 0xe090_c6b6_943b_bd84),
            ("zipf", zipf_slices(&[200, 100, 100], 2_000, 1.1, 17), 0x4207_2220_02bf_b985),
            ("zipf fallback", zipf_slices(&[100, 4, 4], 1_000, 3.0, 5), 0x915b_35f5_64ad_ad73),
            ("blocked", blocked(&[256, 256, 256], 2_000, 8, 16, 23), 0xabd3_82ff_e012_5be3),
            ("blocked fallback", blocked(&[64, 64, 64], 2_000, 4, 4, 3), 0x70c1_e053_cd8e_d872),
        ];
        for (name, t, pin) in &cases {
            assert_eq!(fnv(t), *pin, "{name}: {:#018x}", fnv(t));
        }
    }
}
