//! The two serving workloads: open-loop job streams served by
//! `ScalFragServer::run`, plus the traced replay that splits a run's host
//! time into layers.
//!
//! * `serve-skewed` — the `serve::workload::synthesize` stream configured
//!   like `serve_load`'s seeded load run (Zipf-popular shape classes,
//!   bursty arrivals, six tenants, an autoscaled four-device pool with
//!   token buckets), in dry mode. Its jobs are tensor-dominated and almost
//!   never fuse, so the host work is planning: feature extraction per
//!   unique tensor, a dry build/optimize/interpret per dispatch, and the
//!   scheduler's own bookkeeping.
//! * `serve-fused` — bursts of small tensors that share one rank-64
//!   factor handle per class, in functional mode. Fusion, large fused
//!   plans, the interpreter and real kernels on the host pool do the work;
//!   feature extraction and training are near zero.

use crate::metrics::{median, peak_rss_mib, percentile, Layers, Metrics};
use crate::{outputs_match, Outcome, RunOpts};
use rand::{Rng, SeedableRng};
use scalfrag_exec::{run_plan, ExecMode};
use scalfrag_gpusim::{DeviceSpec, LaunchConfig};
use scalfrag_kernels::reference::mttkrp_seq;
use scalfrag_kernels::{FactorSet, SegmentStats};
use scalfrag_linalg::Mat;
use scalfrag_pipeline::plan::MAX_SEGMENTS;
use scalfrag_pipeline::{build_batched_plan, BatchedJobSpec, KernelChoice};
use scalfrag_serve::workload::mean_service_estimate_s;
use scalfrag_serve::{
    slo_target_s, synthesize, AdmissionPolicy, AutoscalePolicy, DevicePool, MttkrpJob, Priority,
    QosConfig, ScalFragServer, ServeReport, WorkloadSpec, PLAN_HIT_S, PLAN_MISS_S,
};
use scalfrag_tensor::{gen, segment, CooTensor, FeatureKey, TensorFeatures};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

/// `serve_load`'s predictor tiers: serving workloads plan small tensors.
const SERVE_TIERS: [usize; 2] = [3_000, 12_000];
/// Server builds (with predictor training) per run; `setup_s` is their median.
const SETUPS: usize = 21;
/// Timed repetitions at least, whatever `--seconds` says (the medians
/// need three).
const MIN_REPS: usize = 3;
/// Traced passes per `--trace 1` run (odd, for a median).
const TRACE_PASSES: usize = 5;

/// A generated job stream and the server configuration that serves it.
pub struct ServeCase {
    jobs: Vec<MttkrpJob>,
    functional: bool,
    server: Box<dyn Fn() -> ScalFragServer>,
}

/// Key of one (tensor handle, mode) pair — what the scheduler memoizes.
fn pair(job: &MttkrpJob) -> (usize, usize) {
    (Arc::as_ptr(&job.tensor) as usize, job.mode)
}

/// `serve-skewed`: 8,000 jobs (200 in the self-test) over 12 Zipf-popular
/// shape classes × 3 variants, rank 16, arriving at 1.5× the capacity of
/// the two devices the autoscaled pool starts with. The smallest class has
/// 1,000 nnz (`serve_load` uses 3,000; the classes grow by 1.6× each), so
/// a repetition takes about a second and a run's median rests on many
/// repetitions; fusion, admission and cache behaviour are those of the
/// 3,000-nnz stream. 8,000 jobs rather than 2,000 keep the simulated tail
/// latency from moving by a fifth between seeds.
pub fn skewed(seed: u64, tiny: bool) -> ServeCase {
    let spec = WorkloadSpec {
        jobs: if tiny { 200 } else { 8_000 },
        tenants: 6,
        shape_classes: 12,
        variants_per_class: 3,
        skew: 1.0,
        mean_interarrival_s: 1.0,
        burstiness: 3.0,
        rank: 16,
        base_nnz: if tiny { 600 } else { 1_000 },
        seed,
    };
    // Synthesize on a unit gap, then stretch the schedule to the gap the
    // stream's own service estimate asks for (what `serve_load` gets by
    // synthesizing twice, without generating the tensors twice).
    let mut jobs = synthesize(&spec);
    let gap = mean_service_estimate_s(&jobs, &DeviceSpec::rtx3090()) / (1.5 * 2.0);
    for j in &mut jobs {
        j.arrival_s *= gap;
        if let Some(d) = j.deadline_s.as_mut() {
            *d *= gap;
        }
    }
    let server = move || {
        ScalFragServer::builder()
            .pool(DevicePool::homogeneous(DeviceSpec::rtx3090(), 4))
            .max_batch(8)
            .batch_window_s(0.5 * gap)
            .qos(QosConfig {
                rate_jobs_per_s: Some(0.4 / gap),
                burst: 8.0,
                tenant_weights: vec![("tenant-0".into(), 2.0)],
            })
            .autoscale(AutoscalePolicy {
                min_devices: 2,
                high_watermark: 12,
                low_watermark: 2,
                sustain_s: 40.0 * gap,
                attach_delay_s: 10.0 * gap,
            })
            .admission(AdmissionPolicy { max_queue_depth: 64, makespan_budget_s: 0.05 })
            .train_tiers(SERVE_TIERS.to_vec())
            .build()
    };
    ServeCase { jobs, functional: false, server: Box::new(server) }
}

/// Jobs per burst: on an idle two-device pool the first two jobs dispatch
/// solo and the other sixteen queue behind them, forming two full groups
/// of `max_batch` 8.
const BURST: usize = 18;
const FUSED_CLASSES: usize = 4;
const FUSED_VARIANTS: usize = 2;
const FUSED_RANK: usize = 64;

/// `serve-fused`: 300 bursts (4 in the self-test) of 18 jobs, each burst
/// from one of 4 shape classes. A class's tensors are small (600–1,200
/// nnz, drawn per seed) and its rank-64 factors large, and the target mode is the class's
/// short mode, so the shared factor upload dominates each job.
pub fn fused(seed: u64, tiny: bool) -> ServeCase {
    let bursts = if tiny { 4 } else { 300 };
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let classes: Vec<(Vec<Arc<CooTensor>>, Arc<FactorSet>, usize)> = (0..FUSED_CLASSES)
        .map(|c| {
            let mode = c % 3;
            let mut dims = [900 + 100 * c as u32, 700 + 80 * c as u32, 500 + 60 * c as u32];
            dims[mode] = 48 + 8 * c as u32;
            let nnz = 600 + 150 * c + rng.gen_range(0..150usize);
            let tensors = (0..FUSED_VARIANTS)
                .map(|v| {
                    let s = seed ^ (c as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (v as u64 + 1);
                    Arc::new(gen::uniform(&dims, nnz, s))
                })
                .collect();
            let factors = Arc::new(FactorSet::random(&dims, FUSED_RANK, seed ^ 0xfac ^ c as u64));
            (tensors, factors, mode)
        })
        .collect();
    let device = DeviceSpec::rtx3090();
    let solo_est = {
        let probe: Vec<MttkrpJob> = classes
            .iter()
            .map(|(t, f, m)| MttkrpJob::new(0, "probe", Arc::clone(&t[0]), Arc::clone(f), *m))
            .collect();
        mean_service_estimate_s(&probe, &device)
    };
    // One burst per two solo-estimated burst services: fusion makes the
    // real load a fraction of that, so bursts rarely wait on each other.
    let gap = 2.0 * solo_est * BURST as f64 / 2.0;
    let mut jobs = Vec::with_capacity(bursts * BURST);
    let mut t = 0.0f64;
    for _ in 0..bursts {
        let u: f64 = rng.gen();
        t += gap * (0.5 + u);
        let (tensors, factors, mode) = &classes[rng.gen_range(0..FUSED_CLASSES)];
        for _ in 0..BURST {
            let tensor = Arc::clone(&tensors[rng.gen_range(0..FUSED_VARIANTS)]);
            let tenant = format!("tenant-{}", rng.gen_range(0..4usize));
            let id = jobs.len() as u64;
            jobs.push(
                MttkrpJob::new(id, &tenant, tensor, Arc::clone(factors), *mode)
                    .at(t)
                    .with_priority(Priority::Normal),
            );
        }
    }
    let server = || {
        ScalFragServer::builder()
            .pool(DevicePool::homogeneous(DeviceSpec::rtx3090(), 2))
            .max_batch(8)
            .functional(true)
            .admission(AdmissionPolicy { max_queue_depth: 4_096, makespan_budget_s: 100.0 })
            .train_tiers(SERVE_TIERS.to_vec())
            .build()
    };
    ServeCase { jobs, functional: true, server: Box::new(server) }
}

/// Per-run checks; returns the number of jobs that failed them.
/// `first` is the warm-up repetition's fingerprint.
fn check_run(
    case: &ServeCase,
    report: &ServeReport,
    first: Option<u64>,
    refs: &mut HashMap<(usize, usize), Mat>,
    by_id: &HashMap<u64, &MttkrpJob>,
) -> u64 {
    let submitted = case.jobs.len();
    let settled = report.completed.len() + report.rejected.len();
    let mut failed = submitted.abs_diff(settled) as u64 + report.timing_inconsistencies as u64;
    if first.is_some_and(|f| f != report.fingerprint()) {
        return submitted as u64;
    }
    if case.functional {
        for r in &report.completed {
            let job = by_id[&r.id];
            let expect = refs
                .entry(pair(job))
                .or_insert_with(|| mttkrp_seq(&job.tensor, &job.factors, job.mode));
            if !r.output.as_ref().is_some_and(|out| outputs_match(out, expect)) {
                failed += 1;
            }
        }
    }
    failed
}

/// Runs a serving workload: set-up, the timed repetitions, the checks and,
/// with `opts.trace`, the traced passes.
pub fn run(case: &ServeCase, opts: &RunOpts) -> Outcome {
    let rank = case.jobs[0].rank();
    let mut setup = Vec::with_capacity(SETUPS);
    let mut train = Vec::with_capacity(SETUPS);
    let mut server = None;
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        let s = (case.server)();
        let t1 = Instant::now();
        s.trained_predictor().for_rank(rank);
        setup.push(t0.elapsed().as_secs_f64());
        train.push(t1.elapsed().as_secs_f64());
        server = Some(s);
    }
    let server = server.expect("at least one set-up");

    let by_id: HashMap<u64, &MttkrpJob> = case.jobs.iter().map(|j| (j.id, j)).collect();
    let mut refs = HashMap::new();
    // Untimed warm-up repetition; its report is the reference the timed
    // repetitions' fingerprints must equal.
    let report = server.run(case.jobs.clone());
    let mut attempted = case.jobs.len() as u64;
    let mut failed = check_run(case, &report, None, &mut refs, &by_id);
    let mut walls = Vec::new();
    let t_phase = Instant::now();
    while walls.len() < MIN_REPS || t_phase.elapsed().as_secs_f64() < opts.seconds {
        let jobs = case.jobs.clone();
        let t0 = Instant::now();
        let rep = server.run(jobs);
        walls.push(t0.elapsed().as_secs_f64());
        attempted += case.jobs.len() as u64;
        failed += check_run(case, &rep, Some(report.fingerprint()), &mut refs, &by_id);
    }
    eprintln!("repetition walls (s): {walls:.3?}");
    let run_wall = median(&walls);
    let completed = report.completed.len();
    let submitted = case.jobs.len();
    let per_job_ms: Vec<f64> = walls.iter().map(|w| w * 1e3 / completed.max(1) as f64).collect();
    let sim_device_s = sim_device_s(&report);

    let mut m = Metrics::default();
    if !opts.trace {
        let slo_met =
            report.completed.iter().filter(|r| r.finish_s <= slo_target_s(by_id[&r.id])).count();
        m.set("setup_s", median(&setup));
        m.set("run_wall_s", run_wall);
        m.set("host_jobs_per_s", completed as f64 / run_wall);
        m.set("mttkrp_p50_ms", percentile(&per_job_ms, 0.5));
        m.set("mttkrp_p90_ms", percentile(&per_job_ms, 0.9));
        m.set("sim_p50_ms", report.p50_latency_s() * 1e3);
        m.set("sim_p99_ms", report.p99_latency_s() * 1e3);
        m.set("sim_jobs_per_s", report.throughput_jobs_per_s());
        m.set("sim_slo_met_rate", slo_met as f64 / submitted as f64);
        m.set("admit_rate", completed as f64 / submitted as f64);
        m.set("sim_device_s", sim_device_s);
        m.set("peak_rss_mb", peak_rss_mib());
        return Outcome { attempted, failed, metrics: m, samples: walls.len() };
    }

    // Traced passes: the same run, then a replay of the layer calls the
    // scheduler made for it. One pass is a single sample of each clock, so
    // the pass with the median self time is the one reported.
    let run_layers = [
        "tensor.features",
        "tensor.sort",
        "autotune.predict",
        "pipeline.build",
        "opt.optimize",
        if case.functional { "exec.functional" } else { "exec.interp" },
    ];
    let mut passes = Vec::with_capacity(TRACE_PASSES);
    for _ in 0..TRACE_PASSES {
        let jobs = case.jobs.clone();
        let t0 = Instant::now();
        let traced = server.run(jobs);
        let traced_run_s = t0.elapsed().as_secs_f64();
        failed += check_run(case, &traced, Some(report.fingerprint()), &mut refs, &by_id);
        let mut layers = Layers::default();
        let t0 = Instant::now();
        let rs = replay(&server, &case.jobs, &traced, case.functional, &mut layers);
        let replay_s = t0.elapsed().as_secs_f64();
        failed += rs.cache_mismatches;
        let self_s = traced_run_s - layers.sum_busy_s(&run_layers);
        passes.push((self_s, traced_run_s, replay_s, layers, rs));
    }
    passes.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (self_s, traced_run_s, replay_s, layers, rs) = passes.swap_remove(TRACE_PASSES / 2);
    let busy = layers.sum_busy_s(&run_layers);
    let kernels_s = if case.functional {
        layers.busy_s("exec.functional") - layers.busy_s("exec.interp")
    } else {
        0.0
    };
    let predict_per_call =
        layers.busy_s("autotune.predict") / layers.calls("autotune.predict").max(1) as f64;
    let plan_measured = layers.sum_busy_s(&["tensor.features", "autotune.predict"]);
    let misses = report.cache.misses;
    let groups = report.dispatch_groups.max(1) as f64;
    let sum =
        |f: fn(&scalfrag_serve::JobRecord) -> f64| report.completed.iter().map(f).sum::<f64>();
    let (h2d, kern, d2h) =
        (sum(|r| r.timing.h2d_s), sum(|r| r.timing.kernel_s), sum(|r| r.timing.d2h_s));

    m.set("tensor.features.calls", layers.calls("tensor.features") as f64);
    m.set("tensor.features.busy_s", layers.busy_s("tensor.features"));
    m.set("tensor.sort.calls", layers.calls("tensor.sort") as f64);
    m.set("tensor.sort.busy_s", layers.busy_s("tensor.sort"));
    m.set("autotune.train.ranks", server.trained_predictor().trainings() as f64);
    m.set("autotune.train.busy_s", median(&train));
    m.set("autotune.predict.calls", layers.calls("autotune.predict") as f64);
    m.set("autotune.predict.busy_s", layers.busy_s("autotune.predict"));
    m.set("autotune.inference_vs_host_mttkrp", predict_per_call / (run_wall / completed as f64));
    m.set("autotune.inference_vs_sim_mttkrp", predict_per_call / (sim_device_s / completed as f64));
    m.set("serve.plan.measured_s", plan_measured);
    m.set("serve.plan.modelled_s", report.total_plan_s());
    m.set("serve.plan.measured_miss_ms", plan_measured * 1e3 / misses.max(1) as f64);
    m.set("serve.plan.modelled_miss_ms", PLAN_MISS_S * 1e3);
    m.set("serve.plan.modelled_hit_ms", PLAN_HIT_S * 1e3);
    m.set("serve.cache.hits", report.cache.hits as f64);
    m.set("serve.cache.misses", misses as f64);
    m.set("serve.cache.hit_rate", report.cache.hit_rate());
    m.set("serve.batch.groups", report.dispatch_groups as f64);
    m.set("serve.batch.mean_occupancy", report.mean_batch_occupancy());
    m.set(
        "serve.batch.mean_wait_ms",
        sum(|r| r.timing.batch_wait_s) * 1e3 / completed.max(1) as f64,
    );
    m.set("serve.queue.mean_wait_ms", report.mean_queue_wait_s() * 1e3);
    m.set("serve.queue.peak_depth", report.peak_queue_depth as f64);
    m.set("serve.submitted", submitted as f64);
    m.set("serve.completed", completed as f64);
    m.set("serve.rejected", report.rejected.len() as f64);
    m.set("serve.rate_limited", report.rate_limited_rejections() as f64);
    m.set("serve.self_s", self_s);
    m.set("pipeline.build.calls", layers.calls("pipeline.build") as f64);
    m.set("pipeline.build.busy_s", layers.busy_s("pipeline.build"));
    m.set("pipeline.build.mean_ops", rs.raw_ops as f64 / groups);
    m.set("opt.optimize.calls", layers.calls("opt.optimize") as f64);
    m.set("opt.optimize.busy_s", layers.busy_s("opt.optimize"));
    m.set("opt.optimize.ops_kept", rs.kept_ops as f64 / rs.raw_ops.max(1) as f64);
    m.set("exec.interp.calls", layers.calls("exec.interp") as f64);
    m.set("exec.interp.busy_s", layers.busy_s("exec.interp"));
    m.set("kernels.busy_s", kernels_s);
    let (flops, bytes) = if case.functional { (rs.flops, rs.bytes) } else { (0.0, 0.0) };
    m.set("kernels.flops", flops);
    m.set("kernels.bytes", bytes);
    m.set("kernels.host_gflops", if kernels_s > 0.0 { flops / kernels_s / 1e9 } else { 0.0 });
    m.set("gpusim.h2d_s", h2d);
    m.set("gpusim.kernel_s", kern);
    m.set("gpusim.d2h_s", d2h);
    m.set("gpusim.overlap_ratio", rs.overlap_sum / groups);
    m.set("gpusim.sim_gflops", rs.flops / kern / 1e9);
    m.set("core.mttkrp.calls", 0.0);
    m.set("core.mttkrp.busy_s", 0.0);
    m.set("core.self_s", 0.0);
    m.set("linalg.self_s", 0.0);
    m.set("cpd.fit", 0.0);
    m.set("host.threads", scalfrag_host::current_num_threads() as f64);
    let replayed =
        busy + layers.busy_s(if case.functional { "exec.interp" } else { "exec.functional" });
    m.set("trace.overhead_s", traced_run_s + replay_s - replayed - run_wall);
    m.set("trace.accounted_share", (busy + self_s) / run_wall);
    failed += crate::accounting_failures(opts, &[self_s], busy + self_s, &walls);
    Outcome { attempted, failed, metrics: m, samples: walls.len() }
}

/// Simulated device time: each dispatched group holds its device for its
/// planning charge plus the fused plan's makespan.
fn sim_device_s(report: &ServeReport) -> f64 {
    groups(report)
        .map(|g| {
            g.iter().map(|r| r.plan_s).sum::<f64>()
                + g.iter().map(|r| r.timing.total_s).fold(0.0, f64::max)
        })
        .sum()
}

/// The dispatched groups, read back from the completion-ordered records:
/// the scheduler pushes each group's members contiguously, lead first.
fn groups(report: &ServeReport) -> impl Iterator<Item = &[scalfrag_serve::JobRecord]> {
    let mut rest = &report.completed[..];
    std::iter::from_fn(move || {
        let n = rest.first()?.group_size.max(1).min(rest.len());
        let (g, tail) = rest.split_at(n);
        rest = tail;
        Some(g)
    })
}

#[derive(Default)]
struct ReplayStats {
    raw_ops: usize,
    kept_ops: usize,
    overlap_sum: f64,
    flops: f64,
    bytes: f64,
    /// Groups whose replayed plan-cache verdict disagreed with the record.
    cache_mismatches: u64,
}

/// Replays the layer calls `ScalFragServer::run` made for `report`:
/// features once per admitted (tensor, mode) pair in arrival order, then
/// per dispatched group the plan-cache lookup (predictor inference on a
/// miss), one mode-sort per new member pair, the fused plan build, the
/// default optimizer and the interpretation (dry, and functional too when
/// the server ran functional).
fn replay(
    server: &ScalFragServer,
    jobs: &[MttkrpJob],
    report: &ServeReport,
    functional: bool,
    layers: &mut Layers,
) -> ReplayStats {
    let cfg = server.config();
    assert!(
        cfg.adaptive_launch
            && cfg.tiled_kernel
            && cfg.plan_caching
            && cfg.hybrid_threshold.is_none(),
        "the replay mirrors the default planning path"
    );
    let by_id: HashMap<u64, &MttkrpJob> = jobs.iter().map(|j| (j.id, j)).collect();
    let done: HashSet<u64> = report.completed.iter().map(|r| r.id).collect();
    let mut order: Vec<&MttkrpJob> = jobs.iter().filter(|j| done.contains(&j.id)).collect();
    order.sort_by(|a, b| a.arrival_s.total_cmp(&b.arrival_s).then(a.id.cmp(&b.id)));

    let mut features: HashMap<(usize, usize), TensorFeatures> = HashMap::new();
    for job in order {
        if let std::collections::hash_map::Entry::Vacant(e) = features.entry(pair(job)) {
            e.insert(
                layers.time("tensor.features", || TensorFeatures::extract(&job.tensor, job.mode)),
            );
        }
    }

    let mut st = ReplayStats::default();
    let mut plans: HashMap<FeatureKey, (LaunchConfig, usize)> = HashMap::new();
    let mut sorted: HashMap<(usize, usize), Arc<CooTensor>> = HashMap::new();
    let mut job_stats: HashMap<(usize, usize), SegmentStats> = HashMap::new();
    for group in groups(report) {
        let lead = by_id[&group[0].id];
        let f = &features[&pair(lead)];
        let key = FeatureKey::quantize(f, lead.mode, lead.rank());
        let hit = plans.contains_key(&key);
        if hit != group[0].cache_hit {
            st.cache_mismatches += 1;
        }
        let (config, streams) = *plans.entry(key).or_insert_with(|| {
            let config = layers.time("autotune.predict", || {
                server.trained_predictor().for_rank(lead.rank()).predict_from_features(&f.to_vec())
            });
            let segments = segment::auto_segment_count(
                lead.tensor.byte_size(),
                lead.factors.byte_size(),
                server.pool().planning_device().global_mem_bytes as usize,
                MAX_SEGMENTS,
            )
            .clamp(4, MAX_SEGMENTS);
            (config, segments.min(4))
        });
        let device = &server.pool().devices()[group[0].device];
        let config = if config.validate(device).is_ok() {
            config
        } else {
            LaunchConfig::parti_default(lead.tensor.nnz())
        };
        let specs: Vec<BatchedJobSpec> = group
            .iter()
            .map(|r| {
                let job = by_id[&r.id];
                let tensor = Arc::clone(sorted.entry(pair(job)).or_insert_with(|| {
                    layers.time("tensor.sort", || {
                        let mut t = (*job.tensor).clone();
                        t.sort_for_mode(job.mode);
                        Arc::new(t)
                    })
                }));
                let s = job_stats
                    .entry(pair(job))
                    .or_insert_with(|| SegmentStats::compute(&job.tensor, job.mode));
                st.flops += s.flops(job.rank()) as f64;
                st.bytes += s.bytes_read(job.rank()) as f64;
                BatchedJobSpec { id: job.id, tensor }
            })
            .collect();
        let plan = layers.time("pipeline.build", || {
            build_batched_plan(
                device,
                &specs,
                Arc::clone(&lead.factors),
                lead.mode,
                config,
                KernelChoice::Tiled,
                streams,
            )
        });
        let plan_opt = layers.time("opt.optimize", || scalfrag_opt::optimize_default(&plan));
        st.raw_ops += plan.total_ops();
        st.kept_ops += plan_opt.total_ops();
        let dry = layers.time("exec.interp", || run_plan(&plan_opt, ExecMode::Dry));
        st.overlap_sum += dry.timeline.overlap_ratio();
        if functional {
            layers.time("exec.functional", || run_plan(&plan_opt, ExecMode::Functional));
        }
    }
    st
}
