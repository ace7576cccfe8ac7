//! `cpd-nell2`: CPD-ALS on the nell-2 FROSTT stand-in through the default
//! `ScalFrag` facade, exactly as the CLI's `cpd` command drives it
//! (adaptive launch trained on the default tiers, tiled kernel,
//! pipelined). A closed loop with one caller: every MTTKRP call
//! re-extracts features and re-sorts, and no serving layer is involved.

use crate::metrics::{median, peak_rss_mib, percentile, Layers, Metrics};
use crate::{outputs_match, Outcome, RunOpts};
use scalfrag_core::ScalFrag;
use scalfrag_exec::{run_plan_on, ExecMode};
use scalfrag_gpusim::Gpu;
use scalfrag_kernels::reference::mttkrp_seq;
use scalfrag_kernels::{
    cpd_als, CpdOptions, CpuSequentialBackend, FactorSet, MttkrpBackend, SegmentStats,
};
use scalfrag_linalg::Mat;
use scalfrag_pipeline::{build_pipelined_plan, KernelChoice, PipelinePlan};
use scalfrag_serve::queue::NORMAL_SLO_S;
use scalfrag_serve::{PLAN_HIT_S, PLAN_MISS_S};
use scalfrag_tensor::frostt::{self, GenKind};
use scalfrag_tensor::{gen, CooTensor, TensorFeatures};
use std::time::Instant;

const RANK: usize = 16;
/// Fixed ALS sweeps per solve (the CLI's default `--iters`), `tol = 0`.
const SWEEPS: usize = 10;
/// Facade calls at least, so that p90 has ten samples beyond it.
const MIN_CALLS: usize = 100;
/// `|fit − CPU-reference fit|` allowed: the two backends round the MTTKRP
/// differently in f32, which moves the fit by far less than this.
pub const FIT_TOL: f64 = 1e-6;
/// Small predictor tiers for the self-test; the workload uses the defaults.
const TINY_TIERS: [usize; 2] = [3_000, 12_000];

pub struct CpdCase {
    tensor: CooTensor,
    opts: CpdOptions,
    tiny: bool,
}

/// The nell-2 preset at the CLI's default 1/512 scale (about 150k nnz;
/// 1/4096 in the self-test), generated with the preset's own Zipf skew
/// from the benchmark seed instead of the preset's fixed seed.
pub fn nell2(seed: u64, tiny: bool) -> CpdCase {
    let preset = frostt::by_name("nell-2").expect("nell-2 preset exists");
    let scale = if tiny { 4_096 } else { frostt::DEFAULT_SCALE };
    let GenKind::Zipf(skew) = preset.kind else { panic!("nell-2 is a Zipf preset") };
    let tensor = gen::zipf_slices(&preset.scaled_dims(scale), preset.scaled_nnz(scale), skew, seed);
    let opts = CpdOptions { rank: RANK, max_iters: SWEEPS, tol: 0.0, seed, nonnegative: false };
    CpdCase { tensor, opts, tiny }
}

fn facade(tiny: bool) -> ScalFrag {
    if tiny {
        ScalFrag::builder().train_tiers(TINY_TIERS.to_vec()).build()
    } else {
        ScalFrag::builder().build()
    }
}

/// Per-call observations of the facade's MTTKRP, plus, when tracing, a
/// replay of each call's layer calls on the same inputs.
struct TimedBackend<'a> {
    ctx: &'a ScalFrag,
    wall: Vec<f64>,
    sim: Vec<f64>,
    /// `Some(ok)` once the first call was checked against `mttkrp_seq`.
    first_ok: Option<bool>,
    verify_first: bool,
    trace: Option<Traced>,
}

#[derive(Default)]
struct Traced {
    layers: Layers,
    replay_s: f64,
    raw_ops: usize,
    flops: f64,
    bytes: f64,
    h2d: f64,
    kernel: f64,
    d2h: f64,
    overlap_sum: f64,
}

impl MttkrpBackend for TimedBackend<'_> {
    fn name(&self) -> &'static str {
        "scalfrag"
    }

    fn mttkrp(&mut self, tensor: &CooTensor, factors: &FactorSet, mode: usize) -> Mat {
        let t0 = Instant::now();
        let report = self.ctx.mttkrp(tensor, factors, mode);
        self.wall.push(t0.elapsed().as_secs_f64());
        self.sim.push(report.timing.total_s);
        if self.verify_first && self.first_ok.is_none() {
            self.first_ok = Some(outputs_match(&report.output, &mttkrp_seq(tensor, factors, mode)));
        }
        if let Some(tr) = self.trace.as_mut() {
            tr.layers.add("core.mttkrp", *self.wall.last().expect("just pushed"));
            let t0 = Instant::now();
            tr.raw_ops += replay_call(self.ctx, tensor, factors, mode, &mut tr.layers);
            let stats = SegmentStats::compute(tensor, mode);
            tr.replay_s += t0.elapsed().as_secs_f64();
            tr.flops += report.flops as f64;
            tr.bytes += stats.bytes_read(factors.rank() as u32) as f64;
            tr.h2d += report.timing.h2d_s;
            tr.kernel += report.timing.kernel_s;
            tr.d2h += report.timing.d2h_s;
            tr.overlap_sum += report.overlap_ratio;
        }
        report.output
    }
}

/// The layers one facade call spends its time in.
pub const FACADE_LAYERS: [&str; 5] =
    ["tensor.features", "autotune.predict", "tensor.sort", "pipeline.build", "exec.functional"];

/// Replays the layer calls of one `ScalFrag::mttkrp` call on the default
/// facade path: features → predictor → mode-sort → pipelined plan →
/// interpretation, dry and then functional (the difference is the real
/// kernels). Returns the built plan's op count.
pub fn replay_call(
    ctx: &ScalFrag,
    tensor: &CooTensor,
    factors: &FactorSet,
    mode: usize,
    layers: &mut Layers,
) -> usize {
    let c = ctx.config();
    assert!(
        c.adaptive_launch
            && c.tiled_kernel
            && c.pipelined
            && !c.hybrid
            && !c.balanced_kernel
            && !c.mode_agnostic_kernel
            && c.segments.is_none()
            && c.streams.is_none(),
        "the replay mirrors the default facade path"
    );
    let device = ctx.device();
    let features = layers.time("tensor.features", || TensorFeatures::extract(tensor, mode));
    let config = layers.time("autotune.predict", || {
        ctx.trained_predictor()
            .for_rank(factors.rank() as u32)
            .predict_from_features(&features.to_vec())
    });
    let sorted = layers.time("tensor.sort", || {
        let mut s = tensor.clone();
        s.sort_for_mode(mode);
        s
    });
    let plan = layers.time("pipeline.build", || {
        let pp = PipelinePlan::auto(&sorted, mode, config, device, factors.byte_size());
        build_pipelined_plan(device, &sorted, factors, &pp, KernelChoice::Tiled)
    });
    layers.time("exec.interp", || run_plan_on(&mut Gpu::new(device.clone()), &plan, ExecMode::Dry));
    layers.time("exec.functional", || {
        run_plan_on(&mut Gpu::new(device.clone()), &plan, ExecMode::Functional)
    });
    plan.total_ops()
}

/// Compares `calls` facade calls with the replay of their layer calls,
/// each replay right after its call: returns the median call wall time,
/// the median replayed layer time and the median of each replay's share
/// of its own call (pairing keeps the modes' different costs and the
/// host's drift out of the share).
pub fn facade_replay_medians(calls: usize) -> (f64, f64, f64) {
    let case = nell2(1, false);
    let ctx = facade(true);
    let factors = FactorSet::random(case.tensor.dims(), RANK, 7);
    let (mut call, mut replayed) = (Vec::new(), Vec::new());
    for i in 0..calls {
        let mode = i % case.tensor.order();
        let t0 = Instant::now();
        std::hint::black_box(ctx.mttkrp(&case.tensor, &factors, mode));
        call.push(t0.elapsed().as_secs_f64());
        let mut layers = Layers::default();
        replay_call(&ctx, &case.tensor, &factors, mode, &mut layers);
        replayed.push(layers.sum_busy_s(&FACADE_LAYERS));
    }
    let shares: Vec<f64> = replayed.iter().zip(&call).map(|(r, c)| r / c).collect();
    (median(&call), median(&replayed), median(&shares))
}

pub fn run(case: &CpdCase, opts: &RunOpts) -> Outcome {
    let t0 = Instant::now();
    let ctx = facade(case.tiny);
    let t1 = Instant::now();
    ctx.trained_predictor().for_rank(RANK as u32);
    let setup_s = t0.elapsed().as_secs_f64();
    let train_s = t1.elapsed().as_secs_f64();

    let calls_per_solve = SWEEPS * case.tensor.order();
    let mut walls = Vec::new();
    let mut call_walls = Vec::new();
    let mut first_sim = Vec::new();
    let mut fit: Option<f64> = None;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let t_phase = Instant::now();
    while call_walls.len() < MIN_CALLS || t_phase.elapsed().as_secs_f64() < opts.seconds {
        let mut b = TimedBackend {
            ctx: &ctx,
            wall: Vec::new(),
            sim: Vec::new(),
            first_ok: None,
            verify_first: fit.is_none(),
            trace: None,
        };
        let t0 = Instant::now();
        let res = cpd_als(&case.tensor, &case.opts, &mut b);
        walls.push(t0.elapsed().as_secs_f64());
        attempted += b.wall.len() as u64;
        if b.first_ok == Some(false) {
            failed += 1;
        }
        match fit {
            None => {
                fit = Some(res.final_fit());
                first_sim = b.sim;
            }
            Some(f) if f.to_bits() != res.final_fit().to_bits() => failed += b.wall.len() as u64,
            Some(_) => {}
        }
        call_walls.extend(b.wall);
    }
    let fit = fit.expect("at least one solve");
    let reference = cpd_als(&case.tensor, &case.opts, &mut CpuSequentialBackend).final_fit();
    println!("cpd fit {fit:.9} | CPU-reference fit {reference:.9} | tolerance {FIT_TOL:e}");
    if (fit - reference).abs() > FIT_TOL {
        failed += attempted;
    }
    let run_wall = median(&walls);
    let sim_total: f64 = first_sim.iter().sum();

    let mut m = Metrics::default();
    if !opts.trace {
        let slo_met = first_sim.iter().filter(|&&s| s <= NORMAL_SLO_S).count();
        m.set("setup_s", setup_s);
        m.set("run_wall_s", run_wall);
        m.set("host_jobs_per_s", calls_per_solve as f64 / run_wall);
        m.set("mttkrp_p50_ms", percentile(&call_walls, 0.5) * 1e3);
        m.set("mttkrp_p90_ms", percentile(&call_walls, 0.9) * 1e3);
        m.set("sim_p50_ms", percentile(&first_sim, 0.5) * 1e3);
        m.set("sim_p99_ms", percentile(&first_sim, 0.99) * 1e3);
        m.set("sim_jobs_per_s", first_sim.len() as f64 / sim_total);
        m.set("sim_slo_met_rate", slo_met as f64 / first_sim.len() as f64);
        m.set("admit_rate", 1.0);
        m.set("sim_device_s", sim_total);
        m.set("peak_rss_mb", peak_rss_mib());
        return Outcome { attempted, failed, metrics: m, samples: call_walls.len() };
    }

    // Traced pass: one more solve, each facade call timed and followed by
    // a replay of its layer calls on the same inputs.
    let mut b = TimedBackend {
        ctx: &ctx,
        wall: Vec::new(),
        sim: Vec::new(),
        first_ok: None,
        verify_first: false,
        trace: Some(Traced::default()),
    };
    let t0 = Instant::now();
    let res = cpd_als(&case.tensor, &case.opts, &mut b);
    let traced_s = t0.elapsed().as_secs_f64();
    if res.final_fit().to_bits() != fit.to_bits() {
        failed += b.wall.len() as u64;
    }
    let tr = b.trace.take().expect("traced backend");
    let l = &tr.layers;
    let calls = l.calls("core.mttkrp");
    let calls_f = calls.max(1) as f64;
    let children = l.sum_busy_s(&FACADE_LAYERS);
    let core_self = l.busy_s("core.mttkrp") - children;
    let linalg_self = traced_s - l.busy_s("core.mttkrp") - tr.replay_s;
    let kernels_s = l.busy_s("exec.functional") - l.busy_s("exec.interp");
    let predict_per_call = l.busy_s("autotune.predict") / calls_f;
    let plan_measured = l.sum_busy_s(&["tensor.features", "autotune.predict"]);
    let accounted = children + core_self + linalg_self;

    m.set("tensor.features.calls", l.calls("tensor.features") as f64);
    m.set("tensor.features.busy_s", l.busy_s("tensor.features"));
    m.set("tensor.sort.calls", l.calls("tensor.sort") as f64);
    m.set("tensor.sort.busy_s", l.busy_s("tensor.sort"));
    m.set("autotune.train.ranks", ctx.trained_predictor().trainings() as f64);
    m.set("autotune.train.busy_s", train_s);
    m.set("autotune.predict.calls", l.calls("autotune.predict") as f64);
    m.set("autotune.predict.busy_s", l.busy_s("autotune.predict"));
    m.set("autotune.inference_vs_host_mttkrp", predict_per_call / median(&call_walls));
    m.set(
        "autotune.inference_vs_sim_mttkrp",
        predict_per_call / (sim_total / first_sim.len() as f64),
    );
    m.set("serve.plan.measured_s", plan_measured);
    m.set("serve.plan.modelled_s", calls as f64 * PLAN_MISS_S);
    m.set("serve.plan.measured_miss_ms", plan_measured * 1e3 / calls_f);
    m.set("serve.plan.modelled_miss_ms", PLAN_MISS_S * 1e3);
    m.set("serve.plan.modelled_hit_ms", PLAN_HIT_S * 1e3);
    for name in [
        "serve.cache.hits",
        "serve.cache.misses",
        "serve.cache.hit_rate",
        "serve.batch.groups",
        "serve.batch.mean_occupancy",
        "serve.batch.mean_wait_ms",
        "serve.queue.mean_wait_ms",
        "serve.queue.peak_depth",
        "serve.submitted",
        "serve.completed",
        "serve.rejected",
        "serve.rate_limited",
        "serve.self_s",
        "opt.optimize.calls",
        "opt.optimize.busy_s",
        "opt.optimize.ops_kept",
    ] {
        m.set(name, 0.0);
    }
    m.set("pipeline.build.calls", l.calls("pipeline.build") as f64);
    m.set("pipeline.build.busy_s", l.busy_s("pipeline.build"));
    m.set("pipeline.build.mean_ops", tr.raw_ops as f64 / calls_f);
    m.set("exec.interp.calls", l.calls("exec.interp") as f64);
    m.set("exec.interp.busy_s", l.busy_s("exec.interp"));
    m.set("kernels.busy_s", kernels_s);
    m.set("kernels.flops", tr.flops);
    m.set("kernels.bytes", tr.bytes);
    m.set("kernels.host_gflops", tr.flops / kernels_s / 1e9);
    m.set("gpusim.h2d_s", tr.h2d);
    m.set("gpusim.kernel_s", tr.kernel);
    m.set("gpusim.d2h_s", tr.d2h);
    m.set("gpusim.overlap_ratio", tr.overlap_sum / calls_f);
    m.set("gpusim.sim_gflops", tr.flops / tr.kernel / 1e9);
    m.set("core.mttkrp.calls", calls as f64);
    m.set("core.mttkrp.busy_s", l.busy_s("core.mttkrp"));
    m.set("core.self_s", core_self);
    m.set("linalg.self_s", linalg_self);
    m.set("cpd.fit", fit);
    m.set("host.threads", scalfrag_host::current_num_threads() as f64);
    let replayed = children + l.busy_s("exec.interp");
    m.set("trace.overhead_s", traced_s - replayed - run_wall);
    m.set("trace.accounted_share", accounted / run_wall);
    failed += crate::accounting_failures(opts, &[core_self, linalg_self], accounted, &walls);
    Outcome { attempted, failed, metrics: m, samples: call_walls.len() }
}
