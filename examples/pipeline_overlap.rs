//! Visualising the pipelined parallelism of §IV-C: how segmented transfers
//! overlap with kernels across CUDA-style streams, and what that does to
//! the end-to-end MTTKRP time (the mechanism behind Fig. 10 and Fig. 11).
//!
//! Run with `cargo run --release --example pipeline_overlap`.

use scalfrag::gpusim::DeviceSpec;
use scalfrag::kernels::FactorSet;
use scalfrag::pipeline::{build_pipelined_plan, build_sync_plan, KernelChoice, PipelinePlan};
use scalfrag::prelude::*;

fn main() {
    // A flickr-like tensor: heavy-tailed slices, ~1.8 M non-zeros.
    let preset = scalfrag::tensor::frostt::by_name("flickr-3d").unwrap();
    let mut tensor = preset.materialize(64);
    tensor.sort_for_mode(0);
    let factors = FactorSet::random(tensor.dims(), 16, 5);
    println!("tensor: {} ({} nnz), factors rank {}\n", preset.name, tensor.nnz(), factors.rank());
    let cfg = LaunchConfig::new(4096, 256);

    // --- The ParTI-style synchronous schedule (§III-B). ---
    let device = DeviceSpec::rtx3090();
    let sync = build_sync_plan(&device, &tensor, &factors, 0, cfg, KernelChoice::Tiled);
    let sync = run_plan(&sync, ExecMode::Dry);
    println!("synchronous schedule ({}):", scalfrag_fmt(sync.makespan()));
    println!("{}", sync.timeline.ascii_gantt(90));

    // --- The ScalFrag pipeline: 4 segments on 4 streams. ---
    let plan = PipelinePlan::new(&tensor, 0, cfg, 4, 4);
    let piped = build_pipelined_plan(&device, &tensor, &factors, &plan, KernelChoice::Tiled);
    let piped = run_plan(&piped, ExecMode::Dry);
    println!(
        "pipelined schedule, {} segments / {} streams ({}; overlap {:.0}%):",
        plan.num_segments(),
        plan.num_streams,
        scalfrag_fmt(piped.makespan()),
        piped.timeline.overlap_ratio() * 100.0
    );
    println!("{}", piped.timeline.ascii_gantt(90));
    println!("speedup over the synchronous schedule: {:.2}x\n", sync.makespan() / piped.makespan());

    // --- The Fig. 11 sensitivity in one loop. ---
    println!("segments x streams sensitivity (end-to-end time):");
    print!("{:>10}", "segs\\strm");
    for streams in [1usize, 2, 4, 8] {
        print!("{streams:>11}");
    }
    println!();
    for segments in [1usize, 2, 4, 8, 16] {
        print!("{segments:>10}");
        for streams in [1usize, 2, 4, 8] {
            let plan = PipelinePlan::new(&tensor, 0, cfg, segments, streams);
            let plan = build_pipelined_plan(&device, &tensor, &factors, &plan, KernelChoice::Tiled);
            print!("{:>11}", scalfrag_fmt(run_plan(&plan, ExecMode::Dry).makespan()));
        }
        println!();
    }
    println!("\nReading: one segment/stream is serial; a few segments hide most of");
    println!("the transfer; many tiny segments re-pay the per-transfer latency.");
}

fn scalfrag_fmt(seconds: f64) -> String {
    if seconds < 1e-3 {
        format!("{:.0}µs", seconds * 1e6)
    } else {
        format!("{:.2}ms", seconds * 1e3)
    }
}
