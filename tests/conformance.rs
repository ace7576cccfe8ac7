//! The conformance harness as an integration gate (DESIGN.md §10).
//!
//! Differential: all kernel formats × the full ≥20-case seeded corpus ×
//! every mode against the `f64` oracle; execution paths over a diverse
//! subset. Metamorphic: the invariant catalogue applied to raw kernels
//! and full paths. Race: the checker self-test. Plus pinned regressions
//! for the degenerate inputs and the historically-suspect spots (HiCOO
//! block-edge accumulation, BCSF threshold extremes, resilient retries).

use scalfrag::conformance::{
    self, all_plan_builders, corpus, kernel_backends, max_ulp, oracle_mttkrp, path_backends,
    race_self_test, run_differential, run_differential_parallel, smoke_corpus, tolerance_for,
    Exactness,
};
use scalfrag::exec::run_plan;
use scalfrag::kernels::{AtomicF32Buffer, BcsfKernel, HiCooKernel};
use scalfrag::prelude::*;
use scalfrag::tensor::{gen, HiCooTensor, ModePermutation};

const SEED: u64 = 0xc04f_0041;

fn mat_of(buf: AtomicF32Buffer, rows: usize, rank: usize) -> Mat {
    Mat::from_vec(rows, rank, buf.to_vec())
}

#[test]
fn all_kernel_formats_conform_on_the_full_corpus() {
    let cases = corpus(SEED);
    assert!(cases.len() >= 20);
    let report = run_differential(&kernel_backends(), &cases, SEED);
    assert!(report.all_pass(), "kernel conformance failed:\n{}", report.table());
    // The table satellite: one line per backend, PASS/FAIL visible.
    let table = report.table();
    for b in &kernel_backends() {
        assert!(table.contains(b.name), "table missing backend {}", b.name);
    }
}

/// The parallel-sweep satellite: the full ≥20-case corpus through the
/// pool-backed runner is **field-for-field identical** to the sequential
/// runner — same `max_ulp`, same `worst_case`, same `first_divergence` —
/// and that equality holds at every pool size. ULP budgets and
/// first-divergence semantics are unchanged by parallelism.
#[test]
fn parallel_corpus_runner_matches_sequential_field_for_field() {
    let cases = corpus(SEED);
    assert!(cases.len() >= 20);
    let backends = kernel_backends();
    let sequential = run_differential(&backends, &cases, SEED);
    scalfrag::host::check::assert_thread_invariant("parallel-corpus-runner", || {
        let parallel = run_differential_parallel(&backends, &cases, SEED);
        assert_eq!(sequential, parallel, "parallel report diverged from sequential");
        parallel.cases
    });
    assert!(sequential.all_pass(), "corpus must pass:\n{}", sequential.table());
}

/// Divergence reporting under parallelism: a broken backend must yield
/// the *same* first-divergence coordinates from the parallel runner as
/// from the sequential one — submission-order folding means "first" is
/// (case, mode) order, not completion order.
#[test]
fn parallel_runner_reports_identical_divergence_for_a_mutant() {
    use scalfrag::conformance::backends::Backend;
    let make = || {
        vec![
            Backend { name: "honest-oracle", run: Box::new(oracle_mttkrp) },
            Backend {
                name: "mutant-double",
                run: Box::new(|t, f, mode| {
                    let mut y = oracle_mttkrp(t, f, mode);
                    y.scale(2.0);
                    y
                }),
            },
        ]
    };
    let cases: Vec<_> =
        smoke_corpus(SEED ^ 21).into_iter().filter(|c| c.tensor.nnz() > 0).take(4).collect();
    let sequential = run_differential(&make(), &cases, SEED ^ 21);
    let parallel =
        scalfrag::host::with_threads(4, || run_differential_parallel(&make(), &cases, SEED ^ 21));
    assert_eq!(sequential, parallel);
    assert!(sequential.verdicts[0].pass());
    let d = parallel.verdicts[1].first_divergence.as_ref().expect("mutant must be flagged");
    let e = sequential.verdicts[1].first_divergence.as_ref().unwrap();
    assert_eq!((&d.case, d.mode, d.row, d.col, d.ulp), (&e.case, e.mode, e.row, e.col, e.ulp));
}

#[test]
fn execution_paths_conform_on_a_diverse_subset() {
    let cases: Vec<_> = smoke_corpus(SEED ^ 7)
        .into_iter()
        .filter(|c| c.name != "smoke/empty") // paths run the empty case below
        .take(3)
        .collect();
    let report = run_differential(&path_backends(), &cases, SEED ^ 7);
    assert!(report.all_pass(), "path conformance failed:\n{}", report.table());
    assert!(report.verdicts.len() >= 3, "need ≥3 execution paths");
}

#[test]
fn degenerate_regressions_empty_one_slice_rank1() {
    // Empty tensor: every kernel format must produce an all-zero output
    // of the right shape without panicking.
    let empty = CooTensor::new(&[8, 6, 4]);
    let f = FactorSet::random(empty.dims(), 4, SEED);
    for b in kernel_backends() {
        for mode in 0..3 {
            let y = (b.run)(&empty, &f, mode);
            assert_eq!(y.rows(), empty.dims()[mode] as usize, "{}", b.name);
            assert!(y.as_slice().iter().all(|&v| v == 0.0), "{} nonzero on empty", b.name);
        }
    }

    // All nnz in one slice: maximum row contention, single heavy slice.
    let mut one_slice = CooTensor::new(&[16, 8, 8]);
    {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(SEED);
        for _ in 0..600 {
            one_slice.push(
                &[0, rng.gen_range(0..8u32), rng.gen_range(0..8u32)],
                rng.gen::<f32>() * 0.999 + 1e-3,
            );
        }
    }
    let f = FactorSet::random(one_slice.dims(), 8, SEED ^ 2);
    let expected = oracle_mttkrp(&one_slice, &f, 0);
    let tol = tolerance_for(&one_slice, 0);
    for b in kernel_backends() {
        let y = (b.run)(&one_slice, &f, 0);
        let w = max_ulp(expected.as_slice(), y.as_slice());
        assert!(w.max_ulp <= tol, "{}: {} ulp > {tol} on one-slice", b.name, w.max_ulp);
    }

    // Rank 1: the degenerate factor width.
    let t = gen::uniform(&[24, 16, 12], 800, SEED ^ 3);
    let f1 = FactorSet::random(t.dims(), 1, SEED ^ 4);
    let expected = oracle_mttkrp(&t, &f1, 0);
    let tol = tolerance_for(&t, 0);
    for b in kernel_backends() {
        let y = (b.run)(&t, &f1, 0);
        let w = max_ulp(expected.as_slice(), y.as_slice());
        assert!(w.max_ulp <= tol, "{}: {} ulp > {tol} at rank 1", b.name, w.max_ulp);
    }
}

#[test]
fn metamorphic_catalogue_holds_for_kernels_and_paths() {
    let t = gen::zipf_slices(&[48, 32, 24], 3_000, 1.0, SEED);
    let f = FactorSet::random(t.dims(), 8, SEED ^ 5);
    let perm = ModePermutation::new(vec![1, 2, 0]);

    for b in kernel_backends() {
        let run = |t: &CooTensor, f: &FactorSet, m: usize| (b.run)(t, f, m);
        // Sorting kernels tie-break on relabelled modes → ULP class.
        conformance::metamorphic::mode_permutation(
            run,
            &t,
            &f,
            0,
            &perm,
            Exactness::Ulp(tolerance_for(&t, 0)),
        )
        .unwrap_or_else(|e| panic!("{}: {e}", b.name));
        conformance::metamorphic::nnz_shuffle(run, &t, &f, 0, SEED ^ 6)
            .unwrap_or_else(|e| panic!("{}: {e}", b.name));
        conformance::metamorphic::factor_scaling(run, &t, &f, 0, 4)
            .unwrap_or_else(|e| panic!("{}: {e}", b.name));
        conformance::metamorphic::rank_column_permutation(run, &t, &f, 0, SEED ^ 8)
            .unwrap_or_else(|e| panic!("{}: {e}", b.name));
    }

    // Paths: scaling linearity on the single-GPU facades (bitwise).
    for b in path_backends().into_iter().filter(|b| b.name.starts_with("path:scalfrag")) {
        let run = |t: &CooTensor, f: &FactorSet, m: usize| (b.run)(t, f, m);
        conformance::metamorphic::factor_scaling(run, &t, &f, 0, -3)
            .unwrap_or_else(|e| panic!("{}: {e}", b.name));
    }
}

#[test]
fn segment_and_device_count_invariance() {
    let t = gen::zipf_slices(&[64, 40, 32], 4_000, 0.9, SEED ^ 9);
    let f = FactorSet::random(t.dims(), 8, SEED ^ 10);
    let cfg = LaunchConfig::new(512, 256);

    conformance::metamorphic::segment_count_invariance(
        |t, f, m, segs| {
            ScalFrag::builder().fixed_config(cfg).segments(segs).build().mttkrp(t, f, m).output
        },
        &t,
        &f,
        0,
        &[1, 2, 4, 8],
    )
    .unwrap();

    // Pinned shard count ⇒ the reduction folds identical shards in the
    // same global order regardless of how many devices ran them.
    conformance::metamorphic::device_count_invariance(
        |t, f, m, devices| {
            ClusterScalFrag::builder()
                .node(NodeSpec::homogeneous(DeviceSpec::rtx3090(), devices))
                .fixed_config(cfg)
                .shards(8)
                .build()
                .mttkrp(t, f, m)
                .output
        },
        &t,
        &f,
        0,
        &[1, 2, 4],
    )
    .unwrap();
}

#[test]
fn race_checker_catches_mutant_and_passes_kernels() {
    race_self_test().unwrap();
}

/// The ScheduleIR gate: every registered plan builder, interpreted
/// functionally, lands ULP-clean against the `f64` oracle — and the same
/// plan interpreted dry (pre-numerics) schedules the identical trace as
/// the functional run (post-numerics), fingerprint-equal.
#[test]
fn plan_builders_conform_ulp_clean_pre_and_post_execution() {
    let t = gen::zipf_slices(&[48, 32, 24], 3_000, 1.0, SEED ^ 17);
    let f = FactorSet::random(t.dims(), 8, SEED ^ 18);
    let expected = oracle_mttkrp(&t, &f, 0);
    let tol = tolerance_for(&t, 0);
    let builders = all_plan_builders();
    assert!(builders.len() >= 6, "the workspace registers at least six plan builders");
    for b in &builders {
        let plan = (b.build)(&t, &f, 0);
        let wet = run_plan(&plan, ExecMode::Functional);
        let dry = run_plan(&plan, ExecMode::Dry);
        assert!(!wet.trace.is_empty(), "{}: functional run must emit a plan trace", b.name);
        let w = max_ulp(expected.as_slice(), wet.output.as_slice());
        assert!(w.max_ulp <= tol, "{}: {} ulp > {tol} against the oracle", b.name, w.max_ulp);
        assert_eq!(
            wet.trace.fingerprint(),
            dry.trace.fingerprint(),
            "{}: dry and functional runs must schedule the identical trace",
            b.name
        );
        assert!(
            dry.output.as_slice().iter().all(|&v| v == 0.0),
            "{}: dry runs keep no numerics",
            b.name
        );
    }
}

/// Pinned regression: HiCOO block-edge accumulation on dims that are not
/// multiples of the block edge, across block sizes. (Named a likely
/// suspect when this harness was built; proven clean — keep it that way.)
#[test]
fn regression_hicoo_block_edges_on_unaligned_dims() {
    let t = gen::zipf_slices(&[30, 23, 17], 2_000, 1.1, SEED ^ 11);
    let f = FactorSet::random(t.dims(), 8, SEED ^ 12);
    for mode in 0..3 {
        let expected = oracle_mttkrp(&t, &f, mode);
        let tol = tolerance_for(&t, mode);
        for bits in 1..=5u32 {
            let h = HiCooTensor::from_coo(&t, bits);
            let out = AtomicF32Buffer::new(t.dims()[mode] as usize * 8);
            HiCooKernel::execute(&h, &f, mode, &out);
            let w =
                max_ulp(expected.as_slice(), mat_of(out, t.dims()[mode] as usize, 8).as_slice());
            assert!(w.max_ulp <= tol, "hicoo mode {mode} bits {bits}: {} ulp > {tol}", w.max_ulp);
        }
    }
}

/// Pinned regression: BCSF heavy/light split at threshold extremes —
/// everything-heavy (0, 1) and everything-light (huge) must both conform.
#[test]
fn regression_bcsf_threshold_extremes() {
    let mut t = gen::zipf_slices(&[40, 24, 20], 2_500, 1.2, SEED ^ 13);
    t.sort_for_mode(0);
    let f = FactorSet::random(t.dims(), 8, SEED ^ 14);
    let expected = oracle_mttkrp(&t, &f, 0);
    let tol = tolerance_for(&t, 0);
    for thr in [0u32, 1, 2, 64, 1_000_000] {
        let split = BcsfKernel::split(&t, 0, thr);
        let out = AtomicF32Buffer::new(t.dims()[0] as usize * 8);
        BcsfKernel::execute(&t, &f, 0, &split, &out);
        let w = max_ulp(expected.as_slice(), mat_of(out, t.dims()[0] as usize, 8).as_slice());
        assert!(w.max_ulp <= tol, "bcsf threshold {thr}: {} ulp > {tol}", w.max_ulp);
    }
}

/// Pinned regression: the resilient cluster path must not double-count a
/// retried segment — recovered runs land bitwise on the fault-free output.
#[test]
fn regression_resilient_retry_has_no_double_accumulation() {
    let t = gen::zipf_slices(&[64, 48, 32], 5_000, 1.0, SEED ^ 15);
    let f = FactorSet::random(t.dims(), 8, SEED ^ 16);
    let build = || {
        ClusterScalFrag::builder()
            .node(NodeSpec::homogeneous(DeviceSpec::rtx3090(), 3))
            .fixed_config(LaunchConfig::new(512, 256))
            .shards(6)
            .build()
    };
    let clean = build().mttkrp(&t, &f, 0).output;
    let plan = FaultPlan::new()
        .fault(0, FaultTrigger::AtOp(2), FaultKind::KernelAbort)
        .fault(1, FaultTrigger::AtOp(4), FaultKind::DeviceFail { down_s: Some(1e-3) })
        .fault(2, FaultTrigger::AtOp(3), FaultKind::TransferCorruption);
    let mut inj = FaultInjector::new(plan);
    let run = build().mttkrp_resilient(&t, &f, 0, &mut inj, &FaultRecoveryPolicy::retry_reshard());
    assert_eq!(run.failed_segments, 0);
    assert!(run.retries > 0, "the plan must actually force retries");
    let w = max_ulp(clean.as_slice(), run.output.as_slice());
    assert_eq!(w.max_ulp, 0, "retried output differs from fault-free bits by {} ulp", w.max_ulp);
}
