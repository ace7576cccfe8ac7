//! Fig. 12 — multi-GPU sharded MTTKRP: strong scaling and
//! interconnect-aware scheduling.
//!
//! Three exhibits:
//!
//! 1. **Strong scaling** — 1/2/4 × RTX 3090 behind a shared host link
//!    (the commodity regime: every extra device derates the per-link H2D
//!    bandwidth, 24.3 → 15.6 → 7.8 GB/s), fixed 8 shards so the numeric
//!    output is identical at every node size. Expect > 1× but clearly
//!    sub-linear speedups.
//! 2. **Heterogeneous scheduling** — RTX 3090 + RTX 3060: speed-weighted
//!    LPT vs round-robin. Round-robin makes the 3060 the straggler; LPT
//!    shifts nnz toward the 3090 until both finish together.
//! 3. **Interconnect × shard policy** — where the reduction cost goes:
//!    slice-aligned shards reduce for free; nnz-balanced shards pay a
//!    D2H + host add, unless peer links carry the partials.
//!
//! Regenerate with `cargo run --release -p scalfrag-bench --bin fig12_multi_gpu`.

use scalfrag_bench::{factors_for, fmt_time, render_table, scaled_small_suite};
use scalfrag_cluster::{DeviceScheduler, Interconnect, NodeSpec, ShardPolicy};
use scalfrag_core::ClusterScalFrag;
use scalfrag_gpusim::{DeviceSpec, LaunchConfig};
use scalfrag_kernels::FactorSet;

/// Shard count pinned across node sizes (bitwise-comparable outputs).
const SHARDS: usize = 8;

fn homogeneous(n: usize) -> ClusterScalFrag {
    ClusterScalFrag::builder()
        .node(NodeSpec::homogeneous(DeviceSpec::rtx3090(), n))
        .shards(SHARDS)
        .build()
}

fn main() {
    println!("Fig. 12: multi-GPU sharded MTTKRP with interconnect-aware scheduling\n");

    // ---- Exhibit 1: strong scaling on 1/2/4 × RTX 3090 (shared host link).
    println!("Strong scaling, N x RTX 3090, shared-host interconnect, {SHARDS} shards, mode 0:");
    let suite = scaled_small_suite();
    let ctxs: Vec<(usize, ClusterScalFrag)> =
        [1usize, 2, 4].into_iter().map(|n| (n, homogeneous(n))).collect();
    let mut rows = Vec::new();
    let mut cats = Vec::new();
    let mut series: Vec<(String, Vec<f64>)> =
        ctxs.iter().map(|(n, _)| (format!("{n} GPU"), Vec::new())).collect();
    let mut all_speedups: Vec<(usize, f64)> = Vec::new();
    for (name, tensor) in &suite {
        let factors = factors_for(tensor);
        let mut row = vec![name.clone(), tensor.nnz().to_string()];
        let mut base = 0.0;
        for (i, (n, ctx)) in ctxs.iter().enumerate() {
            let r = ctx.mttkrp_dry(tensor, &factors, 0);
            if *n == 1 {
                base = r.timing.total_s;
                row.push(fmt_time(r.timing.total_s));
            } else {
                let speedup = base / r.timing.total_s;
                all_speedups.push((*n, speedup));
                row.push(format!("{} ({speedup:.2}x)", fmt_time(r.timing.total_s)));
            }
            series[i].1.push(r.timing.total_s * 1e3);
        }
        cats.push(name.clone());
        rows.push(row);
    }
    println!("{}", render_table(&["Tensor", "nnz", "1 GPU", "2 GPUs", "4 GPUs"], &rows));
    let agg = |n: usize| {
        let v: Vec<f64> = all_speedups.iter().filter(|(m, _)| *m == n).map(|(_, s)| *s).collect();
        (v.iter().copied().fold(f64::INFINITY, f64::min), v.iter().sum::<f64>() / v.len() as f64)
    };
    let (min2, mean2) = agg(2);
    let (min4, mean4) = agg(4);
    println!("2-GPU speedup: mean {mean2:.2}x (min {min2:.2}x); ideal 2.00x");
    println!("4-GPU speedup: mean {mean4:.2}x (min {min4:.2}x); ideal 4.00x");
    println!(
        "Sub-linear as expected: the shared host link derates per-device H2D \
         24.3 -> {:.1} -> {:.1} GB/s at N=2,4.\n",
        31.2 / 2.0,
        31.2 / 4.0
    );

    // ---- Exhibit 2: heterogeneous node, LPT vs round-robin.
    //
    // Rank 64 makes the kernel (memory-bandwidth bound, 936 vs 360 GB/s)
    // the binding resource; at small ranks both cards are limited by
    // their identical host links and placement barely matters. A fixed
    // launch configuration isolates the scheduler as the only variable.
    println!("Heterogeneous node (RTX 3090 + RTX 3060), LPT vs round-robin, rank 64, mode 0:");
    let hetero = |sched: DeviceScheduler| {
        ClusterScalFrag::builder()
            .node(NodeSpec::heterogeneous(vec![DeviceSpec::rtx3090(), DeviceSpec::rtx3060()]))
            .shards(SHARDS)
            .scheduler(sched)
            .fixed_config(LaunchConfig::new(1024, 256))
            .build()
    };
    let rr_ctx = hetero(DeviceScheduler::RoundRobin);
    let lpt_ctx = hetero(DeviceScheduler::Lpt);
    let mut rows = Vec::new();
    let mut lpt_wins = 0usize;
    for (name, tensor) in &suite {
        let factors = FactorSet::random(tensor.dims(), 64, 0xFAC70);
        let rr = rr_ctx.mttkrp_dry(tensor, &factors, 0);
        let lpt = lpt_ctx.mttkrp_dry(tensor, &factors, 0);
        let gain = rr.timing.total_s / lpt.timing.total_s;
        if lpt.timing.total_s < rr.timing.total_s {
            lpt_wins += 1;
        }
        let lpt_3090_shards = lpt.devices[0].shards.len();
        rows.push(vec![
            name.clone(),
            fmt_time(rr.timing.total_s),
            fmt_time(lpt.timing.total_s),
            format!("{gain:.2}x"),
            format!("{}/{}", lpt_3090_shards, SHARDS),
        ]);
    }
    println!(
        "{}",
        render_table(&["Tensor", "RoundRobin", "LPT", "LPT gain", "3090 shards (LPT)"], &rows)
    );
    println!(
        "LPT beats round-robin on {lpt_wins}/{} datasets (round-robin leaves the \
         3060 as the straggler).\n",
        suite.len()
    );

    // ---- Exhibit 3: interconnect × shard policy on the largest tensor.
    let (name, tensor) = suite.iter().max_by_key(|(_, t)| t.nnz()).expect("suite is non-empty");
    let factors = factors_for(tensor);
    println!("Interconnect x shard policy, 4 x RTX 3090, {name} (mode 0):");
    let interconnects = [
        ("shared-host", Interconnect::SharedHost { total_gbs: 31.2 }),
        ("per-link-pcie", Interconnect::PerLinkPcie),
        ("peer-links-300", Interconnect::PeerLinks { peer_gbs: 300.0 }),
    ];
    let mut rows = Vec::new();
    for (ic_name, ic) in interconnects {
        for policy in [ShardPolicy::SliceAligned, ShardPolicy::NnzBalanced] {
            let ctx = ClusterScalFrag::builder()
                .node(NodeSpec::homogeneous(DeviceSpec::rtx3090(), 4).with_interconnect(ic))
                .shards(SHARDS)
                .shard_policy(policy)
                .build();
            let r = ctx.mttkrp_dry(tensor, &factors, 0);
            let (h2d, kernel, d2h) = (r.timing.h2d_s, r.timing.kernel_s, r.timing.d2h_s);
            rows.push(vec![
                ic_name.to_string(),
                format!("{policy:?}"),
                fmt_time(h2d),
                fmt_time(kernel),
                fmt_time(d2h),
                fmt_time(r.reduction_s),
                fmt_time(r.timing.total_s),
            ]);
        }
    }
    println!(
        "{}",
        render_table(
            &["Interconnect", "Policy", "H2D(sum)", "Kernel(sum)", "D2H(sum)", "Reduce", "Total"],
            &rows
        )
    );
    println!(
        "Slice-aligned shards reduce for free; nnz-balanced shards pay D2H + host \
         adds unless peer links carry the partials."
    );

    let chart = scalfrag_bench::svg::BarChart {
        title: "Fig. 12: multi-GPU MTTKRP strong scaling (ms, lower is better)".into(),
        y_label: "ms".into(),
        categories: cats,
        series,
    };
    if let Ok(path) = scalfrag_bench::write_svg("fig12_multi_gpu", &chart.render(860, 420)) {
        println!("(SVG written to {path})");
    }
}
