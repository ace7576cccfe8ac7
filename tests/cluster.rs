//! Multi-GPU integration: an N-device cluster MTTKRP must agree with the
//! single-GPU stack and the CPU reference — bitwise where the design
//! promises it.
//!
//! The bitwise claims lean on two facts: the rayon shim executes
//! sequentially (entry-order adds, like `mttkrp_seq`), and the cluster
//! executor keeps partial outputs per *shard* and folds them in shard
//! order, independent of device count and scheduler.

use scalfrag::cluster::{shard_tensor, DeviceScheduler, NodeSpec, ShardPolicy};
use scalfrag::kernels::reference::mttkrp_seq;
use scalfrag::prelude::*;

/// One 3-way and one 4-way test tensor with rank-8 factors.
fn cases() -> Vec<(CooTensor, FactorSet)> {
    let t3 = scalfrag::tensor::gen::zipf_slices(&[120, 90, 70], 9_000, 0.8, 31);
    let f3 = FactorSet::random(t3.dims(), 8, 32);
    let t4 = scalfrag::tensor::gen::uniform(&[40, 30, 25, 20], 6_000, 33);
    let f4 = FactorSet::random(t4.dims(), 8, 34);
    vec![(t3, f3), (t4, f4)]
}

fn cluster(n: usize, policy: ShardPolicy) -> ClusterScalFrag {
    ClusterScalFrag::builder()
        .node(NodeSpec::homogeneous(DeviceSpec::rtx3090(), n))
        .fixed_config(LaunchConfig::new(512, 256))
        // Fixed shard count: the precondition for bitwise stability
        // across device counts.
        .shards(4)
        .shard_policy(policy)
        // The atomic COO kernel accumulates in entry order under the
        // sequential rayon shim — the bitwise-comparable configuration.
        .tiled_kernel(false)
        .build()
}

#[test]
fn slice_aligned_cluster_bit_matches_cpu_reference() {
    for (t, f) in cases() {
        for mode in 0..t.order() {
            let mut sorted = t.clone();
            sorted.sort_for_mode(mode);
            let expect = mttkrp_seq(&sorted, &f, mode);
            for n in [1usize, 2, 4] {
                let r = cluster(n, ShardPolicy::SliceAligned).mttkrp(&t, &f, mode);
                assert_eq!(
                    r.output.as_slice(),
                    expect.as_slice(),
                    "order-{} mode-{mode} N={n} must bit-match the reference",
                    t.order()
                );
            }
        }
    }
}

#[test]
fn nnz_balanced_cluster_bit_matches_shard_folded_reference() {
    for (t, f) in cases() {
        let mode = 0;
        let mut sorted = t.clone();
        sorted.sort_for_mode(mode);
        // Reference built exactly as the executor folds: per-shard
        // sequential MTTKRP partials, summed in shard-index order.
        let shards = shard_tensor(&sorted, mode, ShardPolicy::NnzBalanced, 4);
        let mut expect = Mat::zeros(t.dims()[mode] as usize, f.rank());
        for s in &shards {
            expect.axpy(1.0, &mttkrp_seq(&s.tensor, &f, mode));
        }
        for n in [1usize, 2, 4] {
            let r = cluster(n, ShardPolicy::NnzBalanced).mttkrp(&t, &f, mode);
            assert_eq!(
                r.output.as_slice(),
                expect.as_slice(),
                "order-{} N={n} must bit-match the shard-folded reference",
                t.order()
            );
            // And the shard-folded reference itself is the true MTTKRP up
            // to reassociation.
            assert!(r.output.max_abs_diff(&mttkrp_seq(&sorted, &f, mode)) < 1e-3);
        }
    }
}

#[test]
fn schedulers_move_work_but_not_bits() {
    // Rank 64 is compute-bound, where LPT visibly tilts work toward the
    // 3090 instead of mirroring round-robin's even split.
    let (t, _) = cases().remove(0);
    let f = FactorSet::random(t.dims(), 64, 35);
    let out = |sched: DeviceScheduler| {
        ClusterScalFrag::builder()
            .node(NodeSpec::heterogeneous(vec![DeviceSpec::rtx3090(), DeviceSpec::rtx3060()]))
            .fixed_config(LaunchConfig::new(512, 256))
            .shards(8)
            .tiled_kernel(false)
            .scheduler(sched)
            .build()
            .mttkrp(&t, &f, 0)
    };
    let rr = out(DeviceScheduler::RoundRobin);
    let lpt = out(DeviceScheduler::Lpt);
    assert_eq!(rr.output.as_slice(), lpt.output.as_slice());
    let shards = |r: &MttkrpReport| r.devices.iter().map(|d| d.shards.clone()).collect::<Vec<_>>();
    assert_ne!(shards(&rr), shards(&lpt), "schedulers should differ on 3090+3060");
    assert!(
        lpt.timing.total_s < rr.timing.total_s,
        "LPT ({}s) should beat round-robin ({}s) on a heterogeneous node",
        lpt.timing.total_s,
        rr.timing.total_s
    );
}

#[test]
fn tiled_cluster_matches_cpu_reference_within_tolerance() {
    // The tiled kernel's windowed flushes reassociate additions, so the
    // production configuration is checked with a tolerance instead.
    for (t, f) in cases() {
        let expect = mttkrp_seq(&t, &f, 0);
        for policy in [ShardPolicy::SliceAligned, ShardPolicy::NnzBalanced] {
            let r = ClusterScalFrag::builder()
                .node(NodeSpec::homogeneous(DeviceSpec::rtx3090(), 4))
                .fixed_config(LaunchConfig::new(512, 256))
                .shard_policy(policy)
                .build()
                .mttkrp(&t, &f, 0);
            assert!(
                r.output.max_abs_diff(&expect) < 1e-2,
                "{policy:?}: diff {}",
                r.output.max_abs_diff(&expect)
            );
        }
    }
}

#[test]
fn cluster_agrees_with_single_gpu_scalfrag() {
    let (t, f) = cases().remove(0);
    let single =
        ScalFrag::builder().fixed_config(LaunchConfig::new(512, 256)).build().mttkrp(&t, &f, 0);
    let multi = ClusterScalFrag::builder()
        .node(NodeSpec::homogeneous(DeviceSpec::rtx3090(), 2))
        .fixed_config(LaunchConfig::new(512, 256))
        .build()
        .mttkrp(&t, &f, 0);
    assert!(single.output.max_abs_diff(&multi.output) < 1e-3);
}
