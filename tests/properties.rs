//! Property-based tests (proptest) on the core invariants of the stack.

use proptest::prelude::*;
use scalfrag::gpusim::{DeviceSpec, Gpu, LaunchConfig};
use scalfrag::kernels::reference::mttkrp_seq;
use scalfrag::prelude::*;
use scalfrag::tensor::segment;

/// Strategy: a small random tensor (order 3, bounded dims/nnz).
fn arb_tensor() -> impl Strategy<Value = CooTensor> {
    (2u32..24, 2u32..24, 2u32..24, 1usize..200, any::<u64>()).prop_map(|(i, j, k, nnz, seed)| {
        let cells = (i as usize) * (j as usize) * (k as usize);
        CooTensor::random_uniform(&[i, j, k], nnz.min(cells / 2).max(1), seed)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sort_preserves_entries_and_orders(t in arb_tensor(), mode in 0usize..3) {
        let mut sorted = t.clone();
        sorted.sort_for_mode(mode);
        let order = sorted.mode_order(mode);
        prop_assert!(sorted.is_sorted_by_order(&order));
        prop_assert_eq!(sorted.nnz(), t.nnz());
        // Same multiset of entries.
        let mut a: Vec<(Vec<u32>, f32)> = (0..t.nnz()).map(|e| (t.coord(e), t.values()[e])).collect();
        let mut b: Vec<(Vec<u32>, f32)> =
            (0..sorted.nnz()).map(|e| (sorted.coord(e), sorted.values()[e])).collect();
        a.sort_by(|x, y| x.0.cmp(&y.0));
        b.sort_by(|x, y| x.0.cmp(&y.0));
        prop_assert_eq!(a, b);
    }

    #[test]
    fn csf_round_trip_preserves_dense_form(t in arb_tensor(), mode in 0usize..3) {
        let csf = CsfTensor::from_coo(&t, mode);
        let mut sorted = t.clone();
        sorted.sort_for_mode(mode);
        prop_assert_eq!(csf.to_coo().to_dense(), sorted.to_dense());
    }

    #[test]
    fn hicoo_round_trip_preserves_dense_form(t in arb_tensor(), bits in 1u32..6) {
        let h = scalfrag::tensor::HiCooTensor::from_coo(&t, bits);
        prop_assert_eq!(h.nnz(), t.nnz());
        prop_assert_eq!(h.to_coo().to_dense(), t.to_dense());
    }

    #[test]
    fn segmentation_partitions_nnz_exactly(t in arb_tensor(), segs in 1usize..10) {
        let mut sorted = t.clone();
        sorted.sort_for_mode(0);
        let parts = segment::segment_on_slice_boundaries(&sorted, 0, segs);
        let total: usize = parts.iter().map(|s| s.nnz()).sum();
        prop_assert_eq!(total, t.nnz());
        for w in parts.windows(2) {
            prop_assert_eq!(w[0].end, w[1].start);
        }
        if let (Some(first), Some(last)) = (parts.first(), parts.last()) {
            prop_assert_eq!(first.start, 0);
            prop_assert_eq!(last.end, t.nnz());
        }
    }

    #[test]
    fn mttkrp_is_additive_over_segments(t in arb_tensor(), segs in 1usize..6) {
        // MTTKRP(X) == Σ MTTKRP(segment) — the invariant the pipeline
        // relies on when it accumulates per-segment kernels.
        let mut sorted = t.clone();
        sorted.sort_for_mode(0);
        let f = FactorSet::random(sorted.dims(), 4, 7);
        let whole = mttkrp_seq(&sorted, &f, 0);
        let parts = segment::segment_by_nnz(sorted.nnz(), segs);
        let mut acc = Mat::zeros(whole.rows(), whole.cols());
        for s in &parts {
            let piece = sorted.slice_range(s.start, s.end);
            acc.axpy(1.0, &mttkrp_seq(&piece, &f, 0));
        }
        prop_assert!(acc.max_abs_diff(&whole) < 1e-3);
    }

    #[test]
    fn mttkrp_is_linear_in_the_tensor(t in arb_tensor(), alpha in 0.1f32..4.0) {
        let f = FactorSet::random(t.dims(), 4, 9);
        let mut scaled_t = t.clone();
        for v in scaled_t.values_mut() { *v *= alpha; }
        let mut lhs = mttkrp_seq(&t, &f, 1);
        lhs.scale(alpha);
        let rhs = mttkrp_seq(&scaled_t, &f, 1);
        prop_assert!(lhs.max_abs_diff(&rhs) < 1e-2 * alpha.max(1.0));
    }

    #[test]
    fn features_are_finite_and_bounded(t in arb_tensor(), mode in 0usize..3) {
        let feats = TensorFeatures::extract(&t, mode);
        let v = feats.to_vec();
        prop_assert!(v.iter().all(|x| x.is_finite()));
        prop_assert!(feats.slice_ratio > 0.0 && feats.slice_ratio <= 1.0);
        prop_assert!(feats.fiber_ratio > 0.0 && feats.fiber_ratio <= 1.0 + 1e-9);
        prop_assert!(feats.max_nnz_per_slice as usize <= t.nnz());
        prop_assert!(feats.slice_imbalance >= 1.0 - 1e-9);
    }

    #[test]
    fn timeline_is_causal_and_engine_exclusive(
        copies in proptest::collection::vec((1u64..50_000_000, 0usize..4), 1..12)
    ) {
        let mut gpu = Gpu::new(DeviceSpec::rtx3090());
        let streams: Vec<_> = (0..4).map(|_| gpu.create_stream()).collect();
        for (bytes, s) in &copies {
            gpu.h2d(streams[*s], *bytes, "c");
        }
        let t = gpu.synchronize();
        prop_assert!(t.validate().is_ok());
        prop_assert!(t.makespan() >= t.spans.iter().map(|s| s.duration()).fold(0.0, f64::max));
    }

    #[test]
    fn pinv_reconstructs_gram_action(rows in 3usize..12, rank in 1usize..5, seed in any::<u64>()) {
        // For V = GᵀG + I (well-conditioned), V · V† ≈ I.
        use scalfrag::linalg::{gram, matmul, pinv_spd};
        let mut rng = rand::rngs::mock::StepRng::new(seed, 0x9E3779B97F4A7C15);
        let g = Mat::random(rows, rank, &mut rng);
        let mut v = gram(&g);
        for i in 0..rank { v[(i, i)] += 1.0; }
        let prod = matmul(&v, &pinv_spd(&v));
        prop_assert!(prod.max_abs_diff(&Mat::identity(rank)) < 1e-2);
    }

    #[test]
    fn fcoo_round_trip_preserves_dense_form(t in arb_tensor(), mode in 0usize..3, seg in 1usize..128) {
        let fcoo = scalfrag::tensor::FCooTensor::from_coo(&t, mode, seg);
        let mut sorted = t.clone();
        sorted.sort_for_mode(mode);
        prop_assert_eq!(fcoo.to_coo().to_dense(), sorted.to_dense());
        // Partition carry flags are consistent with the start flags.
        for p in 0..fcoo.num_partitions() {
            let r = fcoo.partition_range(p);
            if fcoo.partition_continues(p) {
                prop_assert!(!fcoo.starts_row(r.start));
            }
        }
    }

    #[test]
    fn fcoo_kernel_matches_reference(t in arb_tensor(), seg in 1usize..64) {
        let f = FactorSet::random(t.dims(), 3, 5);
        let fcoo = scalfrag::tensor::FCooTensor::from_coo(&t, 0, seg);
        let out = scalfrag::kernels::AtomicF32Buffer::new(t.dims()[0] as usize * 3);
        scalfrag::kernels::FCooKernel::execute(&fcoo, &f, &out);
        let m = Mat::from_vec(t.dims()[0] as usize, 3, out.to_vec());
        let expect = mttkrp_seq(&t, &f, 0);
        prop_assert!(m.max_abs_diff(&expect) < 1e-2);
    }

    #[test]
    fn bcsf_split_is_a_partition(t in arb_tensor(), threshold in 1u32..40) {
        let mut sorted = t.clone();
        sorted.sort_for_mode(0);
        let split = scalfrag::kernels::BcsfKernel::split(&sorted, 0, threshold);
        let mut covered = vec![false; sorted.nnz()];
        for r in split.heavy.iter().chain(split.light_runs.iter()) {
            for e in r.clone() {
                prop_assert!(!covered[e], "entry {e} covered twice");
                covered[e] = true;
            }
        }
        prop_assert!(covered.into_iter().all(|c| c));
    }

    #[test]
    fn launch_config_sweep_members_always_validate(idx in 0usize..64) {
        let d = DeviceSpec::rtx3090();
        let space = LaunchConfig::sweep_space(&d);
        let cfg = space[idx % space.len()];
        prop_assert!(cfg.validate(&d).is_ok());
    }

    #[test]
    fn sharding_partitions_nnz_exactly(t in arb_tensor(), shards in 1usize..8, mode in 0usize..3) {
        use scalfrag::cluster::{shard_tensor, ShardPolicy};
        let mut sorted = t.clone();
        sorted.sort_for_mode(mode);
        for policy in [ShardPolicy::NnzBalanced, ShardPolicy::SliceAligned] {
            let parts = shard_tensor(&sorted, mode, policy, shards);
            let total: usize = parts.iter().map(|s| s.nnz()).sum();
            prop_assert_eq!(total, t.nnz());
            // Contiguous, gap-free cover of the entry range.
            for w in parts.windows(2) {
                prop_assert_eq!(w[0].range.end, w[1].range.start);
            }
            if let (Some(first), Some(last)) = (parts.first(), parts.last()) {
                prop_assert_eq!(first.range.start, 0);
                prop_assert_eq!(last.range.end, t.nnz());
            }
        }
    }

    #[test]
    fn slice_aligned_shards_never_share_output_rows(t in arb_tensor(), shards in 1usize..8) {
        use scalfrag::cluster::{shard_tensor, ShardPolicy};
        let mut sorted = t.clone();
        sorted.sort_for_mode(0);
        let parts = shard_tensor(&sorted, 0, ShardPolicy::SliceAligned, shards);
        let mut owner = std::collections::HashMap::new();
        for s in &parts {
            let (lo, hi) = s.rows.expect("slice-aligned shards own a row range");
            prop_assert!(lo <= hi);
            for r in lo..=hi {
                prop_assert!(
                    owner.insert(r, s.index).is_none(),
                    "row {r} owned by two shards"
                );
            }
            // Every entry of the shard writes inside its owned range.
            for &i in s.tensor.mode_indices(0) {
                prop_assert!((lo..=hi).contains(&i));
            }
        }
    }
}
