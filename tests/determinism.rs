//! Determinism: the simulator, generators and frameworks must be exactly
//! reproducible — a requirement for trustworthy benchmarking.

use scalfrag::prelude::*;

#[test]
fn dataset_presets_are_reproducible() {
    for p in scalfrag::tensor::frostt::all_presets() {
        let a = p.materialize(4096);
        let b = p.materialize(4096);
        assert_eq!(a, b, "{} not reproducible", p.name);
    }
}

#[test]
fn simulated_timings_are_bit_identical_across_runs() {
    let t = scalfrag::tensor::gen::zipf_slices(&[400, 300, 200], 20_000, 0.9, 5);
    let f = FactorSet::random(t.dims(), 16, 6);
    let run = || {
        let ctx =
            ScalFrag::builder().fixed_config(LaunchConfig::new(1024, 256)).segments(4).build();
        let r = ctx.mttkrp_dry(&t, &f, 0);
        (r.timing.h2d_s, r.timing.kernel_s, r.timing.d2h_s, r.timing.total_s, r.overlap_ratio)
    };
    assert_eq!(run(), run());

    let parti = || {
        let p = Parti::rtx3090();
        p.mttkrp_dry(&t, &f, 0).timing.total_s
    };
    assert_eq!(parti(), parti());
}

#[test]
fn functional_outputs_are_deterministic_up_to_float_reassociation() {
    // The atomic-buffer kernels race on addition order, so bit-exactness is
    // not guaranteed — but results must agree tightly across runs.
    let t = scalfrag::tensor::gen::uniform(&[150, 100, 80], 10_000, 7);
    let f = FactorSet::random(t.dims(), 8, 8);
    let ctx = ScalFrag::builder().fixed_config(LaunchConfig::new(512, 128)).build();
    let a = ctx.mttkrp(&t, &f, 0).output;
    let b = ctx.mttkrp(&t, &f, 0).output;
    assert!(a.max_abs_diff(&b) < 1e-3);
}

#[test]
fn trained_predictor_is_deterministic() {
    let d = scalfrag::gpusim::DeviceSpec::rtx3090();
    let p1 = scalfrag::autotune::LaunchPredictor::train_with_tiers(&d, 16, 3, &[5_000, 20_000]);
    let p2 = scalfrag::autotune::LaunchPredictor::train_with_tiers(&d, 16, 3, &[5_000, 20_000]);
    let t = scalfrag::tensor::gen::uniform(&[500, 300, 200], 15_000, 9);
    assert_eq!(p1.predict(&t, 0), p2.predict(&t, 0));
}

#[test]
fn multi_gpu_timelines_are_bit_identical_across_runs() {
    use scalfrag::cluster::NodeSpec;
    let t = scalfrag::tensor::gen::zipf_slices(&[400, 300, 200], 20_000, 0.9, 5);
    let f = FactorSet::random(t.dims(), 16, 6);
    let run = || {
        let ctx = ClusterScalFrag::builder()
            .node(NodeSpec::heterogeneous(vec![DeviceSpec::rtx3090(), DeviceSpec::rtx3060()]))
            .fixed_config(LaunchConfig::new(1024, 256))
            .shards(4)
            .build();
        let r = ctx.mttkrp_dry(&t, &f, 0);
        (r.devices, r.reduction_s, r.timing.total_s)
    };
    assert_eq!(run(), run());
    // The parallel runtime is now a real work-stealing pool, so the old
    // "exactly one worker by construction" assumption is gone. What holds
    // instead — and what matters — is thread-count invariance: the
    // simulated schedule is a pure function of the plan, not of how many
    // workers happened to execute it.
    scalfrag::host::check::assert_thread_invariant("cluster-dry-timeline", || {
        let (devices, reduction_s, total_s) = run();
        (devices, reduction_s.to_bits(), total_s.to_bits())
    });
}

#[test]
fn feature_extraction_is_deterministic() {
    let t = scalfrag::tensor::gen::blocked(&[256, 256, 256], 8_000, 16, 16, 11);
    let a = TensorFeatures::extract(&t, 0).to_vec();
    let b = TensorFeatures::extract(&t, 0).to_vec();
    assert_eq!(a, b);
}

/// The tentpole property: every registered kernel format produces
/// **bit-identical** output at pool sizes 1/2/4/8. The inner loops fan
/// out across the work-stealing pool, but per-unit partials fold in
/// submission order, so the add sequence — and therefore every output
/// bit — is a function of the unit decomposition alone.
#[test]
fn kernel_formats_are_bit_identical_across_pool_sizes() {
    use scalfrag::conformance::kernel_backends;
    let backends = kernel_backends();
    assert!(backends.len() >= 6, "expected the six kernel formats, got {}", backends.len());
    // Zipf skew forces uneven units (steal-heavy schedules) and large
    // per-row populations (order-sensitive f32 sums).
    let t = scalfrag::tensor::gen::zipf_slices(&[48, 32, 24], 4_000, 1.3, 21);
    let f = FactorSet::random(t.dims(), 16, 22);
    for b in &backends {
        for mode in 0..3 {
            scalfrag::host::check::assert_thread_invariant(
                &format!("{} mode {mode}", b.name),
                || {
                    (b.run)(&t, &f, mode)
                        .as_slice()
                        .iter()
                        .map(|v| v.to_bits())
                        .collect::<Vec<u32>>()
                },
            );
        }
    }
}

/// Same property one layer up: every registered plan builder, executed
/// functionally through the ScheduleIR interpreter, lands bit-identical
/// output *and* an identical plan-trace fingerprint at every pool size.
#[test]
fn plan_builders_are_bit_identical_across_pool_sizes() {
    use scalfrag::conformance::all_plan_builders;
    let t = scalfrag::tensor::gen::zipf_slices(&[40, 30, 20], 3_000, 1.1, 23);
    let f = FactorSet::random(t.dims(), 8, 24);
    let builders = all_plan_builders();
    assert!(builders.len() >= 6, "expected ≥6 plan builders, got {}", builders.len());
    for b in &builders {
        scalfrag::host::check::assert_thread_invariant(&format!("plan:{}", b.name), || {
            let plan = (b.build)(&t, &f, 0);
            let run = run_plan(&plan, ExecMode::Functional);
            let bits: Vec<u32> = run.output.as_slice().iter().map(|v| v.to_bits()).collect();
            (bits, run.trace.fingerprint())
        });
    }
}
