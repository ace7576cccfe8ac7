//! Coordinate (COO) sparse tensor format.
//!
//! COO stores one `(i₁, …, i_N, val)` entry per non-zero (§II-D, Fig. 2).
//! Indices are stored structure-of-arrays: one `Vec<Idx>` per mode, which is
//! exactly the layout transferred to the device by ParTI and by ScalFrag's
//! segmented pipeline, and the layout the simulated kernels read.

use crate::{Idx, Val};
use rand::Rng;
use std::cmp::Ordering;
use std::collections::HashSet;

/// A sparse tensor in coordinate format.
///
/// Invariants maintained by every constructor:
/// * every index is strictly less than the corresponding mode size,
/// * `inds[m].len() == vals.len()` for every mode `m`.
///
/// Sorting/deduplication are explicit operations ([`CooTensor::sort_for_mode`],
/// [`CooTensor::dedup_sum`]) because the GPU pipeline cares about entry order.
#[derive(Clone, Debug, PartialEq)]
pub struct CooTensor {
    dims: Vec<Idx>,
    /// `inds[m][e]` is the mode-`m` coordinate of entry `e`.
    inds: Vec<Vec<Idx>>,
    vals: Vec<Val>,
}

impl CooTensor {
    /// Creates an empty tensor with the given mode sizes.
    ///
    /// # Panics
    /// Panics if `dims` is empty or any mode size is zero.
    pub fn new(dims: &[Idx]) -> Self {
        assert!(!dims.is_empty(), "a tensor needs at least one mode");
        assert!(dims.iter().all(|&d| d > 0), "mode sizes must be positive");
        Self { dims: dims.to_vec(), inds: vec![Vec::new(); dims.len()], vals: Vec::new() }
    }

    /// Builds a tensor from parallel per-mode index vectors and values.
    ///
    /// # Panics
    /// Panics on length mismatches or out-of-range indices.
    pub fn from_parts(dims: &[Idx], inds: Vec<Vec<Idx>>, vals: Vec<Val>) -> Self {
        assert_eq!(inds.len(), dims.len(), "one index vector per mode required");
        for (m, iv) in inds.iter().enumerate() {
            assert_eq!(iv.len(), vals.len(), "mode {m} index count != value count");
            assert!(
                iv.iter().all(|&i| i < dims[m]),
                "mode {m} contains an index >= dim {}",
                dims[m]
            );
        }
        Self { dims: dims.to_vec(), inds, vals }
    }

    /// Builds a tensor from `(coordinate, value)` entries.
    ///
    /// # Panics
    /// Panics if any entry's coordinate arity differs from `dims.len()` or is
    /// out of range.
    pub fn from_entries(dims: &[Idx], entries: &[(Vec<Idx>, Val)]) -> Self {
        let mut t = Self::new(dims);
        for (coord, v) in entries {
            t.push(coord, *v);
        }
        t
    }

    /// Appends one non-zero entry.
    ///
    /// # Panics
    /// Panics if `coord.len() != order` or any index is out of range.
    pub fn push(&mut self, coord: &[Idx], val: Val) {
        assert_eq!(coord.len(), self.order(), "coordinate arity mismatch");
        for (m, (&c, &d)) in coord.iter().zip(&self.dims).enumerate() {
            assert!(c < d, "mode {m} index {c} out of range {d}");
            self.inds[m].push(c);
        }
        self.vals.push(val);
    }

    /// Number of modes (`N`, the tensor order).
    #[inline]
    pub fn order(&self) -> usize {
        self.dims.len()
    }

    /// Mode sizes `I₁ × … × I_N`.
    #[inline]
    pub fn dims(&self) -> &[Idx] {
        &self.dims
    }

    /// Number of stored non-zero entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// The mode-`m` coordinates of all entries.
    #[inline]
    pub fn mode_indices(&self, m: usize) -> &[Idx] {
        &self.inds[m]
    }

    /// All entry values.
    #[inline]
    pub fn values(&self) -> &[Val] {
        &self.vals
    }

    /// Mutable access to values (used by tests and scaling utilities).
    #[inline]
    pub fn values_mut(&mut self) -> &mut [Val] {
        &mut self.vals
    }

    /// The coordinate of entry `e` as a vector (allocates; prefer
    /// [`CooTensor::mode_indices`] in hot paths).
    pub fn coord(&self, e: usize) -> Vec<Idx> {
        self.inds.iter().map(|iv| iv[e]).collect()
    }

    /// Density `nnz / ∏ dims` as in Table III.
    pub fn density(&self) -> f64 {
        let cells: f64 = self.dims.iter().map(|&d| d as f64).product();
        self.nnz() as f64 / cells
    }

    /// Bytes this tensor occupies in the COO device layout
    /// (`order` index arrays + one value array).
    pub fn byte_size(&self) -> usize {
        self.nnz() * (self.order() * std::mem::size_of::<Idx>() + std::mem::size_of::<Val>())
    }

    /// The mode ordering `[mode, 0, 1, …]` (mode first, remaining modes
    /// ascending) used for mode-`n` kernels: sorting by it groups entries of
    /// the same mode-`n` slice together.
    pub fn mode_order(&self, mode: usize) -> Vec<usize> {
        assert!(mode < self.order(), "mode out of range");
        let mut order = vec![mode];
        order.extend((0..self.order()).filter(|&m| m != mode));
        order
    }

    /// Sorts entries lexicographically by the given mode ordering
    /// (e.g. `[1, 0, 2]` sorts by mode-1 index first). The sort is stable:
    /// entries with equal coordinates keep their original relative order.
    pub fn sort_by_order(&mut self, order: &[usize]) {
        assert_eq!(order.len(), self.order(), "ordering must mention every mode");
        if let Some(perm) = self.sorted_positions(order) {
            self.apply_permutation(&perm);
        }
    }

    /// Sorts entries for mode-`n` processing: primary key mode `n`, then the
    /// remaining modes ascending.
    pub fn sort_for_mode(&mut self, mode: usize) {
        let order = self.mode_order(mode);
        self.sort_by_order(&order);
    }

    /// True when entries are sorted by the given mode ordering.
    pub fn is_sorted_by_order(&self, order: &[usize]) -> bool {
        (1..self.nnz()).all(|e| self.cmp_entries(order, e - 1, e).is_le())
    }

    /// Merges duplicate coordinates by summing their values.
    /// Requires and preserves lexicographic sorting by `order`.
    pub fn dedup_sum(&mut self, order: &[usize]) {
        debug_assert!(self.is_sorted_by_order(order));
        if self.nnz() <= 1 {
            return;
        }
        let n = self.nnz();
        let mut write = 0usize;
        for read in 1..n {
            let same = (0..self.order()).all(|m| self.inds[m][read] == self.inds[m][write]);
            if same {
                self.vals[write] += self.vals[read];
            } else {
                write += 1;
                if write != read {
                    for m in 0..self.order() {
                        self.inds[m][write] = self.inds[m][read];
                    }
                    self.vals[write] = self.vals[read];
                }
            }
        }
        let new_len = write + 1;
        for iv in &mut self.inds {
            iv.truncate(new_len);
        }
        self.vals.truncate(new_len);
    }

    /// Compares entries `a` and `b` lexicographically over `modes`.
    fn cmp_entries(&self, modes: &[usize], a: usize, b: usize) -> Ordering {
        modes
            .iter()
            .map(|&m| self.inds[m][a].cmp(&self.inds[m][b]))
            .find(|o| o.is_ne())
            .unwrap_or(Ordering::Equal)
    }

    /// Entry positions in stable lexicographic order of their coordinates
    /// over `modes`, or `None` when the entries are in that order already.
    fn sorted_positions(&self, modes: &[usize]) -> Option<Vec<usize>> {
        // The entry position is the key's least significant digit, so the
        // radix sort moves plain keys and equal coordinates stay in
        // position order.
        let pos_bits = usize::BITS - self.nnz().saturating_sub(1).leading_zeros();
        let Some(bits) =
            key_bits(&self.dims, modes).map(|bits| bits + pos_bits).filter(|&b| b <= u64::BITS)
        else {
            return Some(self.comparator_positions(modes));
        };
        let mut keys = self.packed_keys(modes);
        for (k, e) in keys.iter_mut().zip(0..) {
            *k = *k << pos_bits | e;
        }
        if keys.is_sorted() {
            return None;
        }
        radix_sort(&mut keys, pos_bits, bits);
        let pos_mask = (1 << pos_bits) - 1;
        Some(keys.iter().map(|&k| (k & pos_mask) as usize).collect())
    }

    /// The fallback for keys wider than 64 bits.
    fn comparator_positions(&self, modes: &[usize]) -> Vec<usize> {
        let mut perm: Vec<usize> = (0..self.nnz()).collect();
        perm.sort_by(|&a, &b| self.cmp_entries(modes, a, b));
        perm
    }

    /// Every entry's coordinate over `modes` as a mixed-radix key. A
    /// coordinate over modes `m₁ … m_k` packs to
    /// `(…(i₁·d₂ + i₂)·d₃ + …)·d_k + i_k`, so numeric key order is
    /// lexicographic coordinate order and the largest key is `∏ d − 1`.
    /// The caller checks that the span fits a `u64` ([`key_bits`]).
    fn packed_keys(&self, modes: &[usize]) -> Vec<u64> {
        let mut keys = vec![0; self.nnz()];
        for &m in modes {
            let radix = u64::from(self.dims[m]);
            for (k, &i) in keys.iter_mut().zip(&self.inds[m]) {
                *k = *k * radix + u64::from(i);
            }
        }
        keys
    }

    fn apply_permutation(&mut self, perm: &[usize]) {
        for iv in &mut self.inds {
            let new: Vec<Idx> = perm.iter().map(|&p| iv[p]).collect();
            *iv = new;
        }
        self.vals = perm.iter().map(|&p| self.vals[p]).collect();
    }

    /// Extracts the contiguous entry range `[start, end)` as its own tensor
    /// (same dims) — the unit of work of the segmented pipeline (§IV-C).
    pub fn slice_range(&self, start: usize, end: usize) -> CooTensor {
        assert!(start <= end && end <= self.nnz(), "range out of bounds");
        CooTensor {
            dims: self.dims.clone(),
            inds: self.inds.iter().map(|iv| iv[start..end].to_vec()).collect(),
            vals: self.vals[start..end].to_vec(),
        }
    }

    /// Counts non-zeros per mode-`m` index value (`slice histogram` —
    /// the raw material of the paper's `maxNnzPerSlice` feature and of
    /// atomic-contention modelling).
    pub fn slice_nnz_histogram(&self, mode: usize) -> Vec<u32> {
        let mut hist = vec![0u32; self.dims[mode] as usize];
        for &i in &self.inds[mode] {
            hist[i as usize] += 1;
        }
        hist
    }

    /// Number of non-empty mode-`m` slices.
    pub fn num_nonempty_slices(&self, mode: usize) -> usize {
        self.slice_nnz_histogram(mode).iter().filter(|&&c| c > 0).count()
    }

    /// Non-zero counts per distinct mode-`m` fiber (a fiber fixes every
    /// index except mode `m`), in lexicographic fiber order — the raw
    /// material of the `maxFiberLength` imbalance features that drive the
    /// load-balanced kernel arm. `counts.len()` is the number of distinct
    /// fibers and `counts.iter().sum() == nnz`.
    pub fn fiber_nnz_counts(&self, mode: usize) -> Vec<u32> {
        assert!(mode < self.order(), "mode out of range");
        let modes: Vec<usize> = (0..self.order()).filter(|&m| m != mode).collect();
        match key_bits(&self.dims, &modes) {
            Some(bits) => {
                let mut keys = self.packed_keys(&modes);
                radix_sort(&mut keys, 0, bits);
                run_lengths(&keys, |a, b| a == b)
            }
            None => run_lengths(&self.comparator_positions(&modes), |&a, &b| {
                self.cmp_entries(&modes, a, b).is_eq()
            }),
        }
    }

    /// A random tensor with `nnz` distinct uniform coordinates and values in
    /// `(0, 1]`. Deterministic in `seed`.
    pub fn random_uniform(dims: &[Idx], nnz: usize, seed: u64) -> Self {
        crate::gen::uniform(dims, nnz, seed)
    }

    /// Dense reconstruction as a flat row-major vector — only for tiny
    /// validation tensors.
    ///
    /// # Panics
    /// Panics if the dense size exceeds `1 << 24` elements.
    pub fn to_dense(&self) -> Vec<Val> {
        let size: usize = self.dims.iter().map(|&d| d as usize).product();
        assert!(size <= 1 << 24, "to_dense is only for small validation tensors");
        let mut dense = vec![0.0; size];
        for e in 0..self.nnz() {
            let mut flat = 0usize;
            for m in 0..self.order() {
                flat = flat * self.dims[m] as usize + self.inds[m][e] as usize;
            }
            dense[flat] += self.vals[e];
        }
        dense
    }

    /// Checks all structural invariants; returns an error string describing
    /// the first violation. Useful in tests and after I/O.
    pub fn validate(&self) -> Result<(), String> {
        if self.inds.len() != self.dims.len() {
            return Err("index vector count != order".into());
        }
        for (m, iv) in self.inds.iter().enumerate() {
            if iv.len() != self.vals.len() {
                return Err(format!("mode {m} length mismatch"));
            }
            if let Some(&bad) = iv.iter().find(|&&i| i >= self.dims[m]) {
                return Err(format!("mode {m} index {bad} >= dim {}", self.dims[m]));
            }
        }
        Ok(())
    }

    /// Random values regenerated in-place (used by generators after
    /// structural construction).
    pub(crate) fn randomize_values(&mut self, rng: &mut impl Rng) {
        for v in &mut self.vals {
            *v = rng.gen_range(0.0f32..1.0) + f32::EPSILON;
        }
    }
}

/// Widest digit of the LSD radix sort, in bits: the 2¹¹ counters of one
/// pass stay in L1.
const RADIX_BITS: u32 = 11;

/// Significant bits of the packed key over `modes` (`⌈log₂ ∏ d⌉`), or
/// `None` when the span `∏ d` does not fit a `u64` key.
fn key_bits(dims: &[Idx], modes: &[usize]) -> Option<u32> {
    let span = modes.iter().try_fold(1u64, |s, &m| s.checked_mul(u64::from(dims[m])))?;
    Some(u64::BITS - (span - 1).leading_zeros())
}

/// Stable LSD radix sort of `keys` by their bits `lo..hi`; the bits below
/// `lo` must already be in order and the bits from `hi` up must be zero.
/// Only those significant bits are visited, in equal-width digits of at
/// most [`RADIX_BITS`]. One read builds every digit's histogram, and a
/// digit that all keys share skips its scatter.
fn radix_sort(keys: &mut Vec<u64>, lo: u32, hi: u32) {
    let passes = (hi - lo).div_ceil(RADIX_BITS);
    if passes == 0 || keys.len() < 2 {
        return;
    }
    let width = (hi - lo).div_ceil(passes);
    let mask = (1usize << width) - 1;
    let shifts: Vec<u32> = (0..passes).map(|p| lo + p * width).collect();
    let mut counts = vec![0usize; shifts.len() << width];
    for &k in keys.iter() {
        for (p, &shift) in shifts.iter().enumerate() {
            counts[(p << width) + ((k >> shift) as usize & mask)] += 1;
        }
    }
    let mut scratch = vec![0; keys.len()];
    for (hist, &shift) in counts.chunks_exact_mut(mask + 1).zip(&shifts) {
        if hist.contains(&keys.len()) {
            continue;
        }
        let mut start = 0;
        for c in hist.iter_mut() {
            (*c, start) = (start, start + *c);
        }
        for &k in keys.iter() {
            let d = (k >> shift) as usize & mask;
            scratch[hist[d]] = k;
            hist[d] += 1;
        }
        std::mem::swap(keys, &mut scratch);
    }
}

/// Lengths of the runs of equal neighbours in `sorted`.
fn run_lengths<T>(sorted: &[T], same: impl FnMut(&T, &T) -> bool) -> Vec<u32> {
    sorted.chunk_by(same).map(|run| run.len() as u32).collect()
}

/// A set of coordinates of one tensor shape — the generators' dedup set.
/// It stores packed keys, falling back to whole coordinates for shapes
/// whose span does not fit a `u64`.
pub(crate) enum CoordSet {
    Packed { dims: Vec<Idx>, keys: HashSet<u64> },
    Wide(HashSet<Vec<Idx>>),
}

impl CoordSet {
    pub(crate) fn with_capacity(dims: &[Idx], capacity: usize) -> Self {
        let all: Vec<usize> = (0..dims.len()).collect();
        match key_bits(dims, &all) {
            Some(_) => Self::Packed { dims: dims.to_vec(), keys: HashSet::with_capacity(capacity) },
            None => Self::Wide(HashSet::with_capacity(capacity)),
        }
    }

    /// Adds `coord`, returning whether it was absent.
    pub(crate) fn insert(&mut self, coord: &[Idx]) -> bool {
        match self {
            Self::Packed { dims, keys } => keys.insert(
                coord
                    .iter()
                    .zip(dims.iter())
                    .fold(0, |k, (&i, &d)| k * u64::from(d) + u64::from(i)),
            ),
            Self::Wide(set) => set.insert(coord.to_vec()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CooTensor {
        // The example tensor of Fig. 2 (4x4x2, 8 nnz), values 1..8.
        CooTensor::from_entries(
            &[4, 4, 2],
            &[
                (vec![0, 0, 0], 1.0),
                (vec![0, 2, 1], 2.0),
                (vec![1, 0, 1], 3.0),
                (vec![1, 3, 0], 4.0),
                (vec![2, 1, 0], 5.0),
                (vec![2, 1, 1], 6.0),
                (vec![3, 2, 0], 7.0),
                (vec![3, 3, 1], 8.0),
            ],
        )
    }

    #[test]
    fn construction_and_accessors() {
        let t = small();
        assert_eq!(t.order(), 3);
        assert_eq!(t.dims(), &[4, 4, 2]);
        assert_eq!(t.nnz(), 8);
        assert_eq!(t.coord(3), vec![1, 3, 0]);
        assert!(t.validate().is_ok());
        assert!((t.density() - 8.0 / 32.0).abs() < 1e-12);
        assert_eq!(t.byte_size(), 8 * (3 * 4 + 4));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn push_checks_range() {
        let mut t = CooTensor::new(&[2, 2]);
        t.push(&[2, 0], 1.0);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn push_checks_arity() {
        let mut t = CooTensor::new(&[2, 2]);
        t.push(&[0], 1.0);
    }

    #[test]
    fn sort_for_each_mode() {
        for mode in 0..3 {
            let mut t = small();
            t.sort_for_mode(mode);
            let order = t.mode_order(mode);
            assert!(t.is_sorted_by_order(&order), "mode {mode} not sorted");
            assert!(t.validate().is_ok());
            // Sorting must preserve the multiset of entries.
            assert_eq!(t.nnz(), 8);
            let sum: f32 = t.values().iter().sum();
            assert_eq!(sum, 36.0);
        }
    }

    #[test]
    fn sort_is_stable_on_sorted_input() {
        let mut t = small();
        t.sort_for_mode(0);
        let before = t.clone();
        t.sort_for_mode(0);
        assert_eq!(t, before);
    }

    #[test]
    fn dedup_sums_duplicates() {
        let mut t = CooTensor::from_entries(
            &[2, 2],
            &[(vec![0, 1], 1.0), (vec![0, 1], 2.5), (vec![1, 0], 3.0), (vec![0, 1], 0.5)],
        );
        let order = t.mode_order(0);
        t.sort_by_order(&order);
        t.dedup_sum(&order);
        assert_eq!(t.nnz(), 2);
        let dense = t.to_dense();
        assert_eq!(dense, vec![0.0, 4.0, 3.0, 0.0]);
    }

    #[test]
    fn dedup_on_empty_and_singleton() {
        let mut t = CooTensor::new(&[3, 3]);
        t.dedup_sum(&[0, 1]);
        assert_eq!(t.nnz(), 0);
        t.push(&[1, 1], 2.0);
        t.dedup_sum(&[0, 1]);
        assert_eq!(t.nnz(), 1);
    }

    #[test]
    fn slice_range_extracts_contiguous_entries() {
        let mut t = small();
        t.sort_for_mode(0);
        let part = t.slice_range(2, 5);
        assert_eq!(part.nnz(), 3);
        assert_eq!(part.dims(), t.dims());
        assert_eq!(part.values(), &t.values()[2..5]);
        assert!(part.validate().is_ok());
    }

    #[test]
    fn histogram_counts_per_slice() {
        let t = small();
        assert_eq!(t.slice_nnz_histogram(0), vec![2, 2, 2, 2]);
        assert_eq!(t.slice_nnz_histogram(2), vec![4, 4]);
        assert_eq!(t.num_nonempty_slices(0), 4);
    }

    #[test]
    fn fiber_count_matches_manual() {
        let t = small();
        // Mode-2 fibers fix (i, j): (2,1) appears twice, so 7 distinct.
        assert_eq!(t.fiber_nnz_counts(2).len(), 7);
        // Mode-1 fibers fix (i, k).
        // Pairs: (0,0),(0,1),(1,1),(1,0),(2,0),(2,1),(3,0),(3,1) -> 8 distinct.
        assert_eq!(t.fiber_nnz_counts(1).len(), 8);
    }

    #[test]
    fn fiber_counts_partition_the_nnz() {
        let t = small();
        for mode in 0..3 {
            let counts = t.fiber_nnz_counts(mode);
            assert_eq!(counts.iter().sum::<u32>() as usize, t.nnz());
            assert!(counts.iter().all(|&c| c > 0));
        }
        // Mode-2: the (2,1) fiber holds two entries, every other fiber one.
        let mut c2 = t.fiber_nnz_counts(2);
        c2.sort_unstable();
        assert_eq!(c2, vec![1, 1, 1, 1, 1, 1, 2]);
    }

    #[test]
    #[allow(clippy::identity_op, clippy::erasing_op)] // spelled-out index maths
    fn to_dense_round_trip() {
        let t = small();
        let dense = t.to_dense();
        assert_eq!(dense.len(), 32);
        let total: f32 = dense.iter().sum();
        assert_eq!(total, 36.0);
        // Spot check X(1,3,0) == 4.0, flat = (1*4 + 3)*2 + 0
        assert_eq!(dense[(1 * 4 + 3) * 2], 4.0);
    }

    /// Oracle: entry positions stably sorted by coordinate over `modes`.
    fn oracle_positions(t: &CooTensor, modes: &[usize]) -> Vec<usize> {
        let coord =
            |e: usize| -> Vec<Idx> { modes.iter().map(|&m| t.mode_indices(m)[e]).collect() };
        let mut perm: Vec<usize> = (0..t.nnz()).collect();
        perm.sort_by_key(|&e| coord(e));
        perm
    }

    /// Oracle: fiber populations in lexicographic fiber order.
    fn oracle_fiber_counts(t: &CooTensor, mode: usize) -> Vec<u32> {
        let mut fibers = std::collections::BTreeMap::<Vec<Idx>, u32>::new();
        for e in 0..t.nnz() {
            let mut c = t.coord(e);
            c.remove(mode);
            *fibers.entry(c).or_default() += 1;
        }
        fibers.into_values().collect()
    }

    /// A seeded tensor whose coordinates repeat: each index is drawn from
    /// `{0, 1, d − 1}` half the time, so duplicates and shared fibers are
    /// common even on huge modes. Values number the entries.
    fn with_duplicates(dims: &[Idx], nnz: usize, seed: u64) -> CooTensor {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut t = CooTensor::new(dims);
        let mut coord = vec![0; dims.len()];
        for e in 0..nnz {
            for (c, &d) in coord.iter_mut().zip(dims) {
                *c = match rng.gen_range(0..6u32) {
                    0 => 0,
                    1 => 1.min(d - 1),
                    2 => d - 1,
                    _ => rng.gen_range(0..d),
                };
            }
            t.push(&coord, e as Val);
        }
        t
    }

    /// One shape per key path: orders 1–5 and a 50-bit span on the packed
    /// key, and spans beyond 64 bits on the comparator fallback, for the
    /// sort alone (`[2²⁰; 3]` once the position bits are added, `[2³⁰; 3]`
    /// whose fiber keys take 60 bits) or for both.
    fn property_shapes() -> Vec<Vec<Idx>> {
        vec![
            vec![7],
            vec![1],
            vec![5, 3],
            vec![6, 1, 4],
            vec![4, 5, 3, 2],
            vec![3, 2, 4, 2, 3],
            vec![70_000, 1 << 20, 9_000],
            vec![1 << 20, 1 << 20, 1 << 20],
            vec![1 << 30, 1 << 30, 1 << 30],
            vec![Idx::MAX, Idx::MAX, Idx::MAX, Idx::MAX],
            vec![1 << 30, 1 << 30, 1 << 30, 1 << 30, 1 << 30],
            vec![Idx::MAX; 5],
        ]
    }

    #[test]
    fn key_width_follows_the_span() {
        assert_eq!(key_bits(&[1], &[0]), Some(0));
        assert_eq!(key_bits(&[4, 4, 2], &[0, 1, 2]), Some(5));
        assert_eq!(key_bits(&[4, 4, 2], &[]), Some(0));
        assert_eq!(key_bits(&[1 << 30, 1 << 30, 1 << 30], &[0, 2]), Some(60));
        assert_eq!(key_bits(&[Idx::MAX; 2], &[0, 1]), Some(64));
        assert_eq!(key_bits(&[1 << 30, 1 << 30, 1 << 30], &[0, 1, 2]), None);
        assert_eq!(key_bits(&[1 << 30; 5], &[0, 1, 2, 3, 4]), None);
    }

    #[test]
    fn packed_sort_matches_the_comparator_oracle() {
        for (s, dims) in property_shapes().iter().enumerate() {
            for seed in 0..4 {
                let t = with_duplicates(dims, 300, 100 * s as u64 + seed);
                for mode in 0..t.order() {
                    let order = t.mode_order(mode);
                    let perm = oracle_positions(&t, &order);
                    let mut sorted = t.clone();
                    sorted.sort_by_order(&order);
                    assert!(sorted.is_sorted_by_order(&order), "{dims:?} mode {mode}");
                    // Values number the entries, so this also checks that
                    // ties keep their original position order.
                    let expect: Vec<Val> = perm.iter().map(|&e| t.values()[e]).collect();
                    assert_eq!(sorted.values(), expect, "{dims:?} mode {mode} seed {seed}");
                    for m in 0..t.order() {
                        let idx: Vec<Idx> = perm.iter().map(|&e| t.mode_indices(m)[e]).collect();
                        assert_eq!(sorted.mode_indices(m), idx, "{dims:?} mode {mode}");
                    }
                }
                // A non-`mode_order` ordering takes the same path.
                let rev: Vec<usize> = (0..t.order()).rev().collect();
                let mut sorted = t.clone();
                sorted.sort_by_order(&rev);
                let expect: Vec<Val> =
                    oracle_positions(&t, &rev).iter().map(|&e| t.values()[e]).collect();
                assert_eq!(sorted.values(), expect, "{dims:?} reversed order");
            }
        }
    }

    #[test]
    fn packed_fiber_counts_match_the_btreemap_oracle() {
        for (s, dims) in property_shapes().iter().enumerate() {
            for seed in 0..4 {
                let t = with_duplicates(dims, 300, 100 * s as u64 + seed);
                for mode in 0..t.order() {
                    assert_eq!(
                        t.fiber_nnz_counts(mode),
                        oracle_fiber_counts(&t, mode),
                        "{dims:?} mode {mode} seed {seed}"
                    );
                }
            }
        }
    }

    #[test]
    fn packed_paths_handle_empty_tensors() {
        for dims in property_shapes() {
            let mut t = CooTensor::new(&dims);
            assert!(t.fiber_nnz_counts(0).is_empty());
            t.sort_for_mode(0);
            assert_eq!(t.nnz(), 0);
        }
    }

    #[test]
    fn coord_set_matches_a_vec_set_on_both_paths() {
        use std::collections::HashSet;
        for (s, dims) in property_shapes().iter().enumerate() {
            let t = with_duplicates(dims, 300, 7 + s as u64);
            let mut packed = CoordSet::with_capacity(dims, 16);
            let mut plain = HashSet::new();
            for e in 0..t.nnz() {
                let c = t.coord(e);
                assert_eq!(packed.insert(&c), plain.insert(c.clone()), "{dims:?} entry {e}");
            }
        }
    }

    #[test]
    fn random_uniform_respects_bounds_and_seed() {
        let a = CooTensor::random_uniform(&[10, 20, 30], 100, 7);
        let b = CooTensor::random_uniform(&[10, 20, 30], 100, 7);
        assert_eq!(a, b, "same seed must give identical tensors");
        assert_eq!(a.nnz(), 100);
        assert!(a.validate().is_ok());
        let c = CooTensor::random_uniform(&[10, 20, 30], 100, 8);
        assert_ne!(a, c, "different seeds should differ");
    }
}
