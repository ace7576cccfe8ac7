//! Serving-layer load test: an open-loop, bursty, multi-tenant MTTKRP
//! request stream against the `scalfrag-serve` scheduler, in six runs:
//!
//! 1. **Steady state** (~60 % utilisation) — headline throughput, latency
//!    percentiles and plan-cache hit rate on a skewed 200-job workload.
//! 2. **Cache-off ablation** — the identical stream with plan caching
//!    disabled; the total planning time ratio is the cache's payoff.
//! 3. **2× overload** — the arrival rate doubled past pool capacity;
//!    admission control must answer with typed rejections while the
//!    latency of admitted jobs stays bounded.
//! 4. **Batching A/B** — a factor-heavy burst (rank 64, small nnz, one
//!    shared factor set) served with `max_batch` 8 versus 1; fusing the
//!    group uploads the factors once, so throughput must rise ≥ 1.5×.
//! 5. **Snapshot warm start** — run 1's plan cache is serialized and
//!    restored into a fresh server; the same stream must then hit the
//!    cache ≥ 80 % (in fact: never miss).
//! 6. **Seeded load** — a 1,000,000-job stream (2,000 under `--smoke`)
//!    against an autoscaled pool with per-tenant rate limits and a batch
//!    window: p50/p99/p999, rejection rate and the batch-occupancy curve
//!    land in `results/BENCH_serve.json` (under `--smoke`, in
//!    `target/bench-smoke/` instead, so CI leaves the tree clean).
//!
//! Regenerate with `cargo run --release -p scalfrag-bench --bin serve_load`
//! (the full 1M-job run takes minutes). CI runs `serve_load --smoke`,
//! which additionally asserts the acceptance thresholds (hit rate ≥ 80 %,
//! plan time ≥ 5× down, batching ≥ 1.5×, warm-start hit rate ≥ 80 %,
//! typed rejections with bounded p99 under overload, deterministic
//! replay of the load run).

use scalfrag_bench::save_bench_json;
use scalfrag_gpusim::DeviceSpec;
use scalfrag_kernels::FactorSet;
use scalfrag_serve::{
    synthesize, workload::mean_service_estimate_s, AdmissionPolicy, AutoscalePolicy, DevicePool,
    MttkrpJob, QosConfig, ScalFragServer, ServeReport, WorkloadSpec,
};
use scalfrag_tensor::CooTensor;
use std::sync::Arc;

const DEVICES: usize = 2;
const JOBS: usize = 200;
const BATCH_AB_JOBS: usize = 48;
const TRAIN_TIERS: [usize; 2] = [3_000, 12_000];

fn spec(seed: u64, mean_interarrival_s: f64) -> WorkloadSpec {
    WorkloadSpec {
        jobs: JOBS,
        tenants: 4,
        shape_classes: 12,
        variants_per_class: 3,
        skew: 1.0,
        mean_interarrival_s,
        burstiness: 3.0,
        rank: 16,
        base_nnz: 3_000,
        seed,
    }
}

fn server(pool: DevicePool, caching: bool, server0: Option<&ScalFragServer>) -> ScalFragServer {
    let mut b = ScalFragServer::builder()
        .pool(pool)
        .plan_caching(caching)
        .snapshot_cache(caching)
        .train_tiers(TRAIN_TIERS.to_vec())
        .admission(AdmissionPolicy { max_queue_depth: 32, makespan_budget_s: 0.05 });
    // Every run shares one trained predictor, so training cost never
    // skews the plan-time comparison.
    if let Some(s) = server0 {
        b = b.predictor(s.trained_predictor().clone());
    }
    b.build()
}

/// A factor-heavy burst: every job reads the *same* tensor under the
/// *same* rank-64 factor handle, all submitted at t = 0. The factor
/// matrices (~1 MB) dwarf the 600-nnz tensor payload, so a fused group
/// amortises the dominant transfer — the regime batching exists for.
fn batching_burst() -> Vec<MttkrpJob> {
    let dims = [1_600u32, 1_200, 900];
    let tensor = Arc::new(CooTensor::random_uniform(&dims, 600, 0xab5));
    let factors = Arc::new(FactorSet::random(&dims, 64, 0xfac7));
    (0..BATCH_AB_JOBS as u64)
        .map(|i| {
            let tenant = format!("tenant-{}", i % 2);
            MttkrpJob::new(i, &tenant, Arc::clone(&tensor), Arc::clone(&factors), 0).at(0.0)
        })
        .collect()
}

fn batching_server(max_batch: usize, server0: &ScalFragServer) -> ScalFragServer {
    ScalFragServer::builder()
        .device(DeviceSpec::rtx3090())
        .max_batch(max_batch)
        .admission(AdmissionPolicy { max_queue_depth: 4_096, makespan_budget_s: 100.0 })
        .predictor(server0.trained_predictor().clone())
        .build()
}

fn load_spec(jobs: usize, mean_interarrival_s: f64) -> WorkloadSpec {
    WorkloadSpec {
        jobs,
        tenants: 6,
        shape_classes: 12,
        variants_per_class: 3,
        skew: 1.0,
        mean_interarrival_s,
        burstiness: 3.0,
        rank: 16,
        base_nnz: 3_000,
        seed: 0x10ad,
    }
}

/// The load-run server: a 4-device pool that *starts* with two active
/// devices (the autoscaler attaches the rest under sustained backlog),
/// per-tenant token buckets, a batch window half an interarrival wide,
/// and snapshotting enabled so the cache state is part of the artifact.
fn load_server(gap: f64, server0: &ScalFragServer) -> ScalFragServer {
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
        .predictor(server0.trained_predictor().clone())
        .build()
}

fn print_run(title: &str, report: &ServeReport) {
    println!("--- {title} ---");
    print!("{}", report.render());
    println!();
}

fn occupancy_json(report: &ServeReport) -> String {
    let buckets: Vec<String> = report
        .batch_occupancy_curve()
        .iter()
        .map(|(size, groups)| format!("[{size}, {groups}]"))
        .collect();
    format!("[{}]", buckets.join(", "))
}

#[allow(clippy::too_many_arguments)]
fn write_bench_json(
    steady: &ServeReport,
    plan_ratio: f64,
    overload: &ServeReport,
    solo: &ServeReport,
    batched: &ServeReport,
    batch_speedup: f64,
    warm: &ServeReport,
    load: &ServeReport,
    load_jobs: usize,
    smoke: bool,
) -> String {
    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"devices\": {DEVICES},\n  \"steady\": {{\"jobs\": {}, \"throughput_jobs_per_s\": \
         {:.3}, \"p50_ms\": {:.4}, \"p99_ms\": {:.4}, \"hit_rate\": {:.4}}},\n",
        steady.completed.len(),
        steady.throughput_jobs_per_s(),
        steady.p50_latency_s() * 1e3,
        steady.p99_latency_s() * 1e3,
        steady.cache.hit_rate(),
    ));
    json.push_str(&format!("  \"plan_time_ratio\": {plan_ratio:.2},\n"));
    json.push_str(&format!(
        "  \"overload\": {{\"rejection_rate\": {:.4}, \"p99_ms\": {:.4}, \"peak_queue_depth\": \
         {}}},\n",
        overload.rejection_rate(),
        overload.p99_latency_s() * 1e3,
        overload.peak_queue_depth,
    ));
    json.push_str(&format!(
        "  \"batching\": {{\"jobs\": {BATCH_AB_JOBS}, \"solo_jobs_per_s\": {:.3}, \
         \"batched_jobs_per_s\": {:.3}, \"speedup\": {:.3}, \"mean_occupancy\": {:.3}, \
         \"occupancy_curve\": {}}},\n",
        solo.throughput_jobs_per_s(),
        batched.throughput_jobs_per_s(),
        batch_speedup,
        batched.mean_batch_occupancy(),
        occupancy_json(batched),
    ));
    json.push_str(&format!(
        "  \"warm_start\": {{\"hits\": {}, \"misses\": {}, \"hit_rate\": {:.4}}},\n",
        warm.cache.hits,
        warm.cache.misses,
        warm.cache.hit_rate(),
    ));
    json.push_str(&format!(
        "  \"load\": {{\"jobs\": {load_jobs}, \"smoke\": {smoke}, \"completed\": {}, \
         \"p50_ms\": {:.4}, \"p99_ms\": {:.4}, \"p999_ms\": {:.4}, \"rejection_rate\": {:.4}, \
         \"rate_limited\": {}, \"mean_occupancy\": {:.3}, \"dispatch_groups\": {}, \
         \"device_attaches\": {}, \"device_detaches\": {}, \"occupancy_curve\": {}, \
         \"fingerprint\": \"{:#018x}\"}}\n",
        load.completed.len(),
        load.p50_latency_s() * 1e3,
        load.p99_latency_s() * 1e3,
        load.p999_latency_s() * 1e3,
        load.rejection_rate(),
        load.rate_limited_rejections(),
        load.mean_batch_occupancy(),
        load.dispatch_groups,
        load.device_attaches,
        load.device_detaches,
        occupancy_json(load),
        load.fingerprint(),
    ));
    json.push_str("}\n");
    json
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let device = DeviceSpec::rtx3090();
    let pool = DevicePool::homogeneous(device.clone(), DEVICES);
    println!(
        "ScalFrag serving load test: {JOBS} jobs, 12 shape classes (zipf popularity), \
         4 tenants, {DEVICES}x {}\n",
        device.name
    );

    // Calibrate the arrival rate against the admission-time service
    // estimate: steady state at ~60 % utilisation, overload at 2x capacity.
    let probe = synthesize(&spec(7, 1.0));
    let mean_est = mean_service_estimate_s(&probe, &device);
    let steady_gap = mean_est / (0.6 * DEVICES as f64);
    let overload_gap = mean_est / (2.0 * DEVICES as f64);
    println!(
        "mean service estimate {:.3}ms -> interarrival {:.3}ms steady / {:.3}ms overload\n",
        mean_est * 1e3,
        steady_gap * 1e3,
        overload_gap * 1e3
    );

    let steady_jobs = synthesize(&spec(7, steady_gap));
    let srv = server(pool.clone(), true, None);
    let steady = srv.run(steady_jobs.clone());
    print_run("steady state (plan cache on)", &steady);

    let srv_nocache = server(pool.clone(), false, Some(&srv));
    let nocache = srv_nocache.run(steady_jobs.clone());
    print_run("cache-off ablation", &nocache);

    let srv_overload = server(pool, true, Some(&srv));
    let overload = srv_overload.run(synthesize(&spec(7, overload_gap)));
    print_run("2x overload", &overload);

    let plan_ratio = nocache.total_plan_s() / steady.total_plan_s().max(1e-12);
    println!("plan-time ratio (cache off / on): {plan_ratio:.1}x");
    println!(
        "overload: {} rejected ({:.0}%), p99 of admitted {:.3}ms (steady p99 {:.3}ms)",
        overload.rejected.len(),
        overload.rejection_rate() * 100.0,
        overload.p99_latency_s() * 1e3,
        steady.p99_latency_s() * 1e3,
    );

    // Batching A/B: the identical factor-heavy burst with fusion off
    // (max_batch 1) and on (max_batch 8).
    let solo = batching_server(1, &srv).run(batching_burst());
    print_run("batching off (max_batch 1)", &solo);
    let batched = batching_server(8, &srv).run(batching_burst());
    print_run("batching on (max_batch 8)", &batched);
    let batch_speedup = batched.throughput_jobs_per_s() / solo.throughput_jobs_per_s().max(1e-12);
    println!(
        "batching: {:.1} -> {:.1} jobs/s ({batch_speedup:.2}x), mean occupancy {:.2}\n",
        solo.throughput_jobs_per_s(),
        batched.throughput_jobs_per_s(),
        batched.mean_batch_occupancy(),
    );

    // Snapshot warm start: restore run 1's serialized cache into a fresh
    // server and replay the same stream — every lookup should hit.
    let snapshot = steady.cache_snapshot.clone().expect("steady server snapshots its cache");
    let warm_srv = ScalFragServer::builder()
        .pool(DevicePool::homogeneous(device.clone(), DEVICES))
        .train_tiers(TRAIN_TIERS.to_vec())
        .admission(AdmissionPolicy { max_queue_depth: 32, makespan_budget_s: 0.05 })
        .warm_snapshot(snapshot)
        .predictor(srv.trained_predictor().clone())
        .build();
    let warm = warm_srv.run(steady_jobs);
    println!(
        "warm start: {} hits / {} misses (hit rate {:.0}%)\n",
        warm.cache.hits,
        warm.cache.misses,
        warm.cache.hit_rate() * 100.0
    );

    // Seeded load run: 1M jobs (2k under --smoke) against the autoscaled,
    // rate-limited, batch-windowed pool at ~1.5x the initially-active
    // capacity, so the run shows rejections AND attaches.
    let load_jobs_n = if smoke { 2_000 } else { 1_000_000 };
    let load_gap = mean_est / (1.5 * 2.0);
    let load_jobs = synthesize(&load_spec(load_jobs_n, load_gap));
    let load = load_server(load_gap, &srv).run(load_jobs);
    print_run(&format!("seeded load ({load_jobs_n} jobs, autoscaled pool)"), &load);

    let json = write_bench_json(
        &steady,
        plan_ratio,
        &overload,
        &solo,
        &batched,
        batch_speedup,
        &warm,
        &load,
        load_jobs_n,
        smoke,
    );
    let path = save_bench_json("serve", smoke, &json).expect("write bench json");
    println!("wrote {path}");

    if smoke {
        // Steady state: every job admitted, the skewed working set mostly
        // hits the cache, and caching pays >= 5x on planning time.
        assert!(steady.rejected.is_empty(), "steady state must admit everything");
        assert_eq!(steady.completed.len(), JOBS);
        assert!(steady.throughput_jobs_per_s() > 0.0);
        assert!(
            steady.cache.hit_rate() >= 0.80,
            "hit rate {:.3} below the 0.80 acceptance floor",
            steady.cache.hit_rate()
        );
        assert!(
            plan_ratio >= 5.0,
            "plan caching must cut total plan time >= 5x, got {plan_ratio:.2}x"
        );
        // Determinism: same seed + same stream -> identical report.
        let replay =
            server(DevicePool::homogeneous(DeviceSpec::rtx3090(), DEVICES), true, Some(&srv))
                .run(synthesize(&spec(7, steady_gap)));
        assert_eq!(replay.fingerprint(), steady.fingerprint(), "replay must be bit-identical");

        // Overload: typed rejections, bounded queue, bounded p99 of the
        // jobs that were admitted.
        assert!(!overload.rejected.is_empty(), "2x overload must produce rejections");
        assert!(overload.peak_queue_depth <= 32, "queue depth must respect the cap");
        for r in &overload.rejected {
            assert!(
                r.retry_after_s.is_finite() && r.retry_after_s > 0.0,
                "rejection must carry a usable retry hint: {r}"
            );
        }
        let budget = 0.05;
        let p99_cap = budget + 20.0 * mean_est;
        assert!(
            overload.p99_latency_s() <= p99_cap,
            "admitted p99 {:.4}s exceeds bound {:.4}s under overload",
            overload.p99_latency_s(),
            p99_cap
        );

        // Batching: the fused path must clear the 1.5x acceptance gate on
        // the factor-heavy burst, with no job lost in either arm.
        assert_eq!(solo.completed.len(), BATCH_AB_JOBS, "solo arm must complete the burst");
        assert_eq!(batched.completed.len(), BATCH_AB_JOBS, "batched arm must complete the burst");
        assert!(
            batch_speedup >= 1.5,
            "batched serving must deliver >= 1.5x throughput, got {batch_speedup:.2}x"
        );
        assert!(
            batched.mean_batch_occupancy() > 1.0,
            "the batched arm must actually fuse groups (mean occupancy {:.2})",
            batched.mean_batch_occupancy()
        );

        // Warm start: the restored snapshot must serve the stream >= 80 %
        // from cache (by construction it never misses).
        assert!(
            warm.cache.hit_rate() >= 0.80,
            "warm-start hit rate {:.3} below the 0.80 acceptance floor",
            warm.cache.hit_rate()
        );
        assert_eq!(warm.cache.misses, 0, "a snapshot of the same stream must never miss");

        // Load run: conservation, fused dispatch, deterministic replay.
        assert_eq!(load.completed.len() + load.rejected.len(), load_jobs_n, "no job lost silently");
        assert!(
            load.mean_batch_occupancy() > 1.0,
            "the load run must form batches (mean occupancy {:.2})",
            load.mean_batch_occupancy()
        );
        let load_replay =
            load_server(load_gap, &srv).run(synthesize(&load_spec(load_jobs_n, load_gap)));
        assert_eq!(
            load_replay.fingerprint(),
            load.fingerprint(),
            "load replay must be bit-identical"
        );
        println!("\nsmoke assertions passed.");
    }
}
