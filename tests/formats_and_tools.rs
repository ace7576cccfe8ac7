//! Integration coverage of the secondary formats (F-COO, HiCOO), slice
//! reordering and the tooling layer (profiler, Chrome trace) through
//! the facade crate.

use scalfrag::gpusim::{profiler, trace, DeviceSpec, Gpu};
use scalfrag::kernels::reference::mttkrp_seq;
use scalfrag::kernels::{AtomicF32Buffer, FCooKernel, HiCooKernel};
use scalfrag::prelude::*;
use scalfrag::tensor::reorder::SliceOrder;
use scalfrag::tensor::{FCooTensor, HiCooTensor};

fn tensor() -> CooTensor {
    scalfrag::tensor::gen::zipf_slices(&[120, 90, 60], 6_000, 1.0, 77)
}

#[test]
fn every_kernel_family_agrees_on_the_same_tensor() {
    let t = tensor();
    let f = FactorSet::random(t.dims(), 8, 78);
    let expect = mttkrp_seq(&t, &f, 0);
    let rank = f.rank();
    let rows = t.dims()[0] as usize;

    // F-COO.
    let fcoo = FCooTensor::from_coo(&t, 0, 256);
    let out = AtomicF32Buffer::new(rows * rank);
    FCooKernel::execute(&fcoo, &f, &out);
    let m = Mat::from_vec(rows, rank, out.to_vec());
    assert!(m.max_abs_diff(&expect) < 1e-2, "F-COO diff {}", m.max_abs_diff(&expect));

    // HiCOO.
    let hicoo = HiCooTensor::from_coo(&t, 4);
    let out = AtomicF32Buffer::new(rows * rank);
    HiCooKernel::execute(&hicoo, &f, 0, &out);
    let m = Mat::from_vec(rows, rank, out.to_vec());
    assert!(m.max_abs_diff(&expect) < 1e-2, "HiCOO diff {}", m.max_abs_diff(&expect));

    // CSF.
    let csf = CsfTensor::from_coo(&t, 0);
    let m = scalfrag::kernels::reference::mttkrp_csf(&csf, &f);
    assert!(m.max_abs_diff(&expect) < 1e-2, "CSF diff {}", m.max_abs_diff(&expect));
}

#[test]
fn mttkrp_after_slice_reordering_maps_back() {
    let t = tensor();
    let f = FactorSet::random(t.dims(), 4, 79);
    let expect = mttkrp_seq(&t, &f, 0);

    let order = SliceOrder::by_descending_population(&t, 0);
    let reordered = order.apply(&t);
    // The mode-0 factor rows must be permuted consistently.
    let mut perm_factor = Mat::zeros(f.get(0).rows(), f.rank());
    for old in 0..f.get(0).rows() {
        let new = order.new_index(old as u32) as usize;
        perm_factor.row_mut(new).copy_from_slice(f.get(0).row(old));
    }
    let mut pf = f.clone();
    pf.set(0, perm_factor);
    let m = mttkrp_seq(&reordered, &pf, 0);
    let back = order.unpermute_rows(m.as_slice(), f.rank());
    let back = Mat::from_vec(m.rows(), m.cols(), back);
    assert!(back.max_abs_diff(&expect) < 1e-3);
}

#[test]
fn profiler_and_trace_cover_a_real_pipeline_run() {
    let mut t = tensor();
    t.sort_for_mode(0);
    let f = FactorSet::random(t.dims(), 8, 81);
    let plan = scalfrag::pipeline::PipelinePlan::new(&t, 0, LaunchConfig::new(1024, 256), 4, 4);
    let plan = scalfrag::pipeline::build_pipelined_plan(
        &DeviceSpec::rtx3090(),
        &t,
        &f,
        &plan,
        scalfrag::pipeline::KernelChoice::Tiled,
    );
    let mut gpu = Gpu::new(DeviceSpec::rtx3090());
    let run = scalfrag::exec::run_plan_on(&mut gpu, &plan, scalfrag::exec::ExecMode::Dry);

    let p = profiler::profile(&run.timeline);
    assert_eq!(p.by_label.iter().filter(|(l, _)| l.contains("kernel")).count(), 4);
    assert!(p.h2d_s > 0.0 && p.kernel_s > 0.0 && p.d2h_s > 0.0);
    assert!((p.makespan_s - run.makespan()).abs() < 1e-15);
    let rendered = p.render();
    assert!(rendered.contains("seg0 kernel"));

    let json = trace::chrome_trace_string(&run.timeline);
    assert_eq!(json.matches("\"ph\":\"X\"").count(), run.timeline.spans.len());
    assert!(json.contains("factors H2D"));
}

#[test]
fn kernel_analysis_explains_the_fig4_corner() {
    // The tiny-corner cell of Fig. 4 must be bound by the serial chain or
    // memory-latency, never by compute.
    let d = DeviceSpec::rtx3090();
    let t = tensor();
    let stats = scalfrag::kernels::SegmentStats::compute(&t, 0);
    let w = scalfrag::kernels::workload::coo_atomic_workload(&stats, 16);
    let corner = profiler::analyze_kernel(&d, &LaunchConfig::new(32, 32), &w);
    assert_ne!(corner.bound_by, "compute");
    let good = profiler::analyze_kernel(&d, &LaunchConfig::new(2048, 256), &w);
    assert!(good.breakdown.total < corner.breakdown.total);
}
