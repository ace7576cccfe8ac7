//! `scalfrag-cli` — run the ScalFrag stack on real `.tns` tensors (or the
//! built-in synthetic presets) from the command line.
//!
//! ```text
//! scalfrag-cli info   <tensor>                      inspect a tensor + features
//! scalfrag-cli mttkrp <tensor> [--mode M] [--rank R] [--backend scalfrag|parti|cpu]
//! scalfrag-cli cpd    <tensor> [--rank R] [--iters N] [--backend ...]
//! scalfrag-cli tune   <tensor> [--mode M] [--rank R]  compare tuning strategies
//! scalfrag-cli trace  <tensor> [--out FILE]           export a Chrome trace
//! ```
//!
//! `<tensor>` is a `.tns` path, or `preset:<name>[@scale]` for one of the
//! Table III stand-ins (e.g. `preset:nell-2@512`).

use scalfrag::autotune::tuner::{tune, TuningStrategy};
use scalfrag::autotune::LaunchPredictor;
use scalfrag::gpusim::{trace, DeviceSpec};
use scalfrag::kernels::{cpd_als, CpdOptions, CpuParallelBackend, MttkrpBackend};
use scalfrag::prelude::*;

fn usage() -> ! {
    eprintln!(
        "usage: scalfrag-cli <info|mttkrp|cpd|tune|trace> <tensor> [options]\n\
         tensor: a FROSTT .tns file path, or preset:<name>[@scale]\n\
         options: --mode M  --rank R  --iters N  --backend scalfrag|parti|cpu  --out FILE"
    );
    std::process::exit(2);
}

struct Args {
    cmd: String,
    tensor: String,
    mode: usize,
    rank: usize,
    iters: usize,
    backend: String,
    out: Option<String>,
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.len() < 2 {
        usage();
    }
    let mut a = Args {
        cmd: argv[0].clone(),
        tensor: argv[1].clone(),
        mode: 0,
        rank: 16,
        iters: 10,
        backend: "scalfrag".into(),
        out: None,
    };
    let mut i = 2;
    while i < argv.len() {
        let need = |i: usize| argv.get(i + 1).unwrap_or_else(|| usage());
        match argv[i].as_str() {
            "--mode" => a.mode = need(i).parse().unwrap_or_else(|_| usage()),
            "--rank" => a.rank = need(i).parse().unwrap_or_else(|_| usage()),
            "--iters" => a.iters = need(i).parse().unwrap_or_else(|_| usage()),
            "--backend" => a.backend = need(i).clone(),
            "--out" => a.out = Some(need(i).clone()),
            _ => usage(),
        }
        i += 2;
    }
    a
}

fn load_tensor(spec: &str) -> CooTensor {
    if let Some(rest) = spec.strip_prefix("preset:") {
        let (name, scale) = match rest.split_once('@') {
            Some((n, s)) => (n, s.parse().unwrap_or_else(|_| usage())),
            None => (rest, 512u64),
        };
        let preset = scalfrag::tensor::frostt::by_name(name).unwrap_or_else(|| {
            eprintln!("unknown preset '{name}'; available:");
            for p in scalfrag::tensor::frostt::all_presets() {
                eprintln!("  {}", p.name);
            }
            std::process::exit(2);
        });
        eprintln!("materialising preset {name} at 1/{scale} scale...");
        preset.materialize(scale)
    } else {
        match scalfrag::tensor::io::read_tns_file(spec) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("failed to read '{spec}': {e}");
                std::process::exit(1);
            }
        }
    }
}

fn main() {
    let args = parse_args();
    let tensor = load_tensor(&args.tensor);
    if args.mode >= tensor.order() {
        eprintln!("mode {} out of range for an order-{} tensor", args.mode, tensor.order());
        std::process::exit(2);
    }

    match args.cmd.as_str() {
        "info" => cmd_info(&tensor, args.mode),
        "mttkrp" => cmd_mttkrp(&tensor, &args),
        "cpd" => cmd_cpd(&tensor, &args),
        "tune" => cmd_tune(&tensor, &args),
        "trace" => cmd_trace(&tensor, &args),
        _ => usage(),
    }
}

fn cmd_info(tensor: &CooTensor, mode: usize) {
    println!("order     : {}", tensor.order());
    println!("dims      : {:?}", tensor.dims());
    println!("nnz       : {}", tensor.nnz());
    println!("density   : {:.3e}", tensor.density());
    println!("COO bytes : {}", tensor.byte_size());
    let f = TensorFeatures::extract(tensor, mode);
    println!("-- mode-{mode} features (SS IV-B) --");
    println!("numSlices       : {}", f.num_slices);
    println!("numFibers       : {}", f.num_fibers);
    println!("sliceRatio      : {:.4}", f.slice_ratio);
    println!("fiberRatio      : {:.4}", f.fiber_ratio);
    println!("maxNnzPerSlice  : {}", f.max_nnz_per_slice);
    println!("avgNnzPerSlice  : {:.2}", f.avg_nnz_per_slice);
    println!("sliceImbalance  : {:.2}", f.slice_imbalance);
}

fn cmd_mttkrp(tensor: &CooTensor, args: &Args) {
    let factors = FactorSet::random(tensor.dims(), args.rank, 42);
    match args.backend.as_str() {
        "scalfrag" => {
            let ctx = ScalFrag::builder().build();
            let r = ctx.mttkrp(tensor, &factors, args.mode);
            println!("{}", r.summary());
        }
        "parti" => {
            let r = Parti::rtx3090().mttkrp(tensor, &factors, args.mode);
            println!("{}", r.summary());
        }
        "cpu" => {
            let t0 = std::time::Instant::now();
            let m = scalfrag::kernels::reference::mttkrp_par(tensor, &factors, args.mode);
            println!(
                "cpu-par   mode-{} | wall {:.3}ms | output {}x{} (Frobenius {:.4})",
                args.mode,
                t0.elapsed().as_secs_f64() * 1e3,
                m.rows(),
                m.cols(),
                m.frob_norm()
            );
        }
        other => {
            eprintln!("unknown backend '{other}'");
            std::process::exit(2);
        }
    }
}

fn cmd_cpd(tensor: &CooTensor, args: &Args) {
    let opts = CpdOptions {
        rank: args.rank,
        max_iters: args.iters,
        tol: 1e-4,
        seed: 42,
        nonnegative: false,
    };
    let run = |backend: &mut dyn MttkrpBackend| {
        let t0 = std::time::Instant::now();
        let res = cpd_als(tensor, &opts, backend);
        println!(
            "{:<9} rank {} | {} sweeps | fit {:.4} | wall {:.2}s",
            backend.name(),
            args.rank,
            res.iters,
            res.final_fit(),
            t0.elapsed().as_secs_f64()
        );
        for (i, fit) in res.fits.iter().enumerate() {
            println!("  sweep {:>2}: fit {fit:.5}", i + 1);
        }
    };
    match args.backend.as_str() {
        "scalfrag" => {
            let ctx = ScalFrag::builder().build();
            let mut b = ctx.backend();
            run(&mut b);
            println!("simulated device seconds: {:.4}", b.simulated_seconds);
        }
        "parti" => {
            let parti = Parti::rtx3090();
            let mut b = parti.backend();
            run(&mut b);
            println!("simulated device seconds: {:.4}", b.simulated_seconds);
        }
        "cpu" => run(&mut CpuParallelBackend),
        other => {
            eprintln!("unknown backend '{other}'");
            std::process::exit(2);
        }
    }
}

fn cmd_tune(tensor: &CooTensor, args: &Args) {
    let device = DeviceSpec::rtx3090();
    let space = LaunchConfig::sweep_space(&device);
    eprintln!("training the launch predictor (one-off)...");
    let predictor = LaunchPredictor::train_default(&device, args.rank as u32, 1);
    println!(
        "{:<12} {:>22} {:>10} {:>12} {:>14}",
        "strategy", "chosen", "quality", "measure", "amortise-after"
    );
    for strat in [
        TuningStrategy::ModelGuided,
        TuningStrategy::Random(8),
        TuningStrategy::Random(32),
        TuningStrategy::Exhaustive,
    ] {
        let o = tune(&device, tensor, args.mode, args.rank as u32, &space, strat, Some(&predictor));
        println!(
            "{:<12} {:>22} {:>9.3}x {:>10.3}ms {:>12.1} runs",
            o.strategy,
            format!("{}", o.chosen),
            o.quality(),
            o.measure_cost_s * 1e3,
            o.amortisation_runs()
        );
    }
}

fn cmd_trace(tensor: &CooTensor, args: &Args) {
    let factors = FactorSet::random(tensor.dims(), args.rank, 42);
    let ctx = ScalFrag::builder().fixed_config(LaunchConfig::new(4096, 256)).build();
    let r = ctx.mttkrp_dry(tensor, &factors, args.mode);
    println!("{}", r.summary());
    // Re-run through the pipeline to capture the timeline for export.
    let mut sorted = tensor.clone();
    sorted.sort_for_mode(args.mode);
    let plan = scalfrag::pipeline::PipelinePlan::new(
        &sorted,
        args.mode,
        LaunchConfig::new(4096, 256),
        4,
        4,
    );
    let plan = scalfrag::pipeline::build_pipelined_plan(
        &DeviceSpec::rtx3090(),
        &sorted,
        &factors,
        &plan,
        scalfrag::pipeline::KernelChoice::Tiled,
    );
    let run = scalfrag::exec::run_plan(&plan, scalfrag::exec::ExecMode::Dry);
    let path = args.out.clone().unwrap_or_else(|| "scalfrag_trace.json".into());
    let file = std::fs::File::create(&path).expect("create trace file");
    trace::write_chrome_trace(&run.timeline, file).expect("write trace");
    println!("wrote Chrome trace to {path} (open at chrome://tracing or ui.perfetto.dev)");
    println!("{}", run.timeline.ascii_gantt(90));
}
