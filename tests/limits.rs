//! Failure-injection and resource-limit behaviour: device out-of-memory,
//! auto-segmentation under pressure, degenerate tensors, and hostile
//! configurations must fail loudly or adapt — never silently corrupt.

use scalfrag::gpusim::{DeviceSpec, Gpu, MemoryPool};
use scalfrag::prelude::*;

#[test]
fn memory_pool_rejects_oversubscription_exactly() {
    let pool = MemoryPool::new(1_000);
    let a = pool.alloc(999).unwrap();
    assert!(pool.alloc(2).is_err());
    let b = pool.alloc(1).unwrap();
    pool.free(a);
    pool.free(b);
    assert_eq!(pool.used(), 0);
    assert_eq!(pool.peak(), 1_000);
}

#[test]
fn auto_plan_segments_more_under_memory_pressure() {
    let mut t = scalfrag::tensor::gen::uniform(&[500, 400, 300], 100_000, 1);
    t.sort_for_mode(0);
    let cfg = LaunchConfig::new(1024, 256);

    let roomy = scalfrag::pipeline::PipelinePlan::auto(&t, 0, cfg, &DeviceSpec::rtx3090(), 1 << 20);

    let mut tiny = DeviceSpec::rtx3090();
    tiny.global_mem_bytes = (t.byte_size() / 8) as u64;
    let squeezed = scalfrag::pipeline::PipelinePlan::auto(&t, 0, cfg, &tiny, 0);
    assert!(
        squeezed.num_segments() > roomy.num_segments(),
        "pressure {} vs roomy {}",
        squeezed.num_segments(),
        roomy.num_segments()
    );
}

#[test]
#[should_panic(expected = "OutOfMemory")]
fn sync_execution_panics_when_the_tensor_cannot_fit() {
    let t = scalfrag::tensor::gen::uniform(&[100, 100, 100], 20_000, 2);
    let f = FactorSet::random(t.dims(), 8, 3);
    let mut spec = DeviceSpec::rtx3090();
    spec.global_mem_bytes = 1_000; // absurdly small device
    let plan = scalfrag::pipeline::build_sync_plan(
        &spec,
        &t,
        &f,
        0,
        LaunchConfig::new(256, 128),
        scalfrag::pipeline::KernelChoice::Tiled,
    );
    let _ = scalfrag::exec::run_plan_on(&mut Gpu::new(spec), &plan, ExecMode::Functional);
}

#[test]
fn single_entry_tensor_works_end_to_end() {
    let t = CooTensor::from_entries(&[4, 4, 4], &[(vec![1, 2, 3], 5.0)]);
    let f = FactorSet::random(t.dims(), 4, 4);
    let ctx = ScalFrag::builder().fixed_config(LaunchConfig::new(32, 32)).build();
    let r = ctx.mttkrp(&t, &f, 0);
    let expect = scalfrag::kernels::reference::mttkrp_seq(&t, &f, 0);
    assert!(r.output.max_abs_diff(&expect) < 1e-4);
}

#[test]
fn requesting_more_segments_than_slices_degrades_gracefully() {
    // Only 3 distinct slices, 16 segments requested: the plan clamps.
    let mut entries = Vec::new();
    for j in 0..30u32 {
        entries.push((vec![j % 3, j, 0], 1.0f32));
    }
    let mut t = CooTensor::from_entries(&[3, 30, 2], &entries);
    t.sort_for_mode(0);
    let plan = scalfrag::pipeline::PipelinePlan::new(&t, 0, LaunchConfig::new(64, 64), 16, 16);
    assert!(plan.num_segments() <= 3);
    assert_eq!(plan.total_nnz(), 30);
}

#[test]
fn zero_value_entries_flow_through() {
    let mut t = CooTensor::new(&[8, 8, 8]);
    t.push(&[1, 1, 1], 0.0);
    t.push(&[2, 2, 2], 3.0);
    let f = FactorSet::random(t.dims(), 4, 5);
    let ctx = ScalFrag::builder().fixed_config(LaunchConfig::new(32, 32)).build();
    let r = ctx.mttkrp(&t, &f, 1);
    let expect = scalfrag::kernels::reference::mttkrp_seq(&t, &f, 1);
    assert!(r.output.max_abs_diff(&expect) < 1e-4);
}

#[test]
fn pathological_rank_one_still_works() {
    let t = scalfrag::tensor::gen::uniform(&[20, 20, 20], 500, 6);
    let f = FactorSet::random(t.dims(), 1, 7);
    let ctx = ScalFrag::builder().fixed_config(LaunchConfig::new(64, 32)).build();
    let r = ctx.mttkrp(&t, &f, 2);
    let expect = scalfrag::kernels::reference::mttkrp_seq(&t, &f, 2);
    assert!(r.output.max_abs_diff(&expect) < 1e-3);
}

#[test]
fn hybrid_with_everything_on_cpu_matches() {
    // Threshold above every slice population: the GPU part is empty.
    let t = scalfrag::tensor::gen::uniform(&[50, 40, 30], 2_000, 8);
    let f = FactorSet::random(t.dims(), 4, 9);
    let split = scalfrag::pipeline::split_by_slice_population(&t, 0, u32::MAX);
    assert_eq!(split.gpu_part.nnz(), 0);
    let plan = scalfrag::pipeline::build_hybrid_plan(
        &DeviceSpec::rtx3090(),
        &split,
        &f,
        0,
        LaunchConfig::new(64, 64),
        2,
        2,
        scalfrag::pipeline::KernelChoice::Tiled,
    );
    let run = scalfrag::exec::run_plan_on(
        &mut Gpu::new(DeviceSpec::rtx3090()),
        &plan,
        ExecMode::Functional,
    );
    let expect = scalfrag::kernels::reference::mttkrp_seq(&t, &f, 0);
    assert!(run.output.max_abs_diff(&expect) < 1e-3);
}
