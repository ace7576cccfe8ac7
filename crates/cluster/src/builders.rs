//! Plan builder: lowers a multi-device cluster schedule (shard →
//! per-device pipeline → reduce) into a ScheduleIR [`Plan`] for the
//! `scalfrag-exec` interpreter. Pure construction — no simulated time
//! passes here.
//!
//! The node/interconnect knowledge the interpreter must not own —
//! initial placement, re-placement of orphaned work, the analytic
//! reduction cost — travels with the plan as a [`ClusterPolicy`]
//! implementation ([`NodePlacement`]).
//!
//! Partial outputs are kept **per shard**, not per device, and folded on
//! the host in shard-index order — so the numeric result is bitwise
//! invariant to the device count and the scheduler, which only move work
//! between timelines.
//!
//! The reduction stage depends on the shard policy:
//!
//! * slice-aligned shards own disjoint output rows; each device returns
//!   exactly its final row block and the merge costs nothing;
//! * nnz-balanced shards overlap on rows; every shard's full partial
//!   output returns D2H and the host pays one add per extra shard — or,
//!   with peer links, partials gather device-to-device and only the merged
//!   result crosses PCIe.

use crate::node::{Interconnect, NodeSpec};
use crate::schedule::{assign_shards, DeviceScheduler};
use crate::shard::{shard_tensor, Shard, ShardPolicy};
use scalfrag_exec::{
    ClusterPolicy, DeviceOps, KernelChoice, PlaceStrategy, Plan, PlanBuilder, PlanMeta, Reduce,
    ShardDesc, ShardWork, WorkUnit,
};
use scalfrag_gpusim::{DeviceSpec, LaunchConfig};
use scalfrag_kernels::FactorSet;
use scalfrag_tensor::segment::{segment_by_nnz, Segment};
use scalfrag_tensor::CooTensor;
use std::sync::Arc;

/// Execution knobs of one cluster MTTKRP.
#[derive(Clone, Copy, Debug)]
pub struct ClusterOptions {
    /// Kernel launched per segment (tiled or ParTI-style atomic COO).
    pub kernel: KernelChoice,
    /// How the tensor is cut into shards.
    pub policy: ShardPolicy,
    /// How shards are placed on devices.
    pub scheduler: DeviceScheduler,
    /// Shard count. Fixing this independently of the device count keeps
    /// the numeric output bitwise identical across node sizes.
    pub num_shards: usize,
    /// Pipeline segments per shard (transfer/compute overlap within a
    /// device).
    pub segments_per_shard: usize,
    /// Streams per device.
    pub streams_per_device: usize,
    /// Kernel launch configuration (shared by all devices).
    pub config: LaunchConfig,
}

impl ClusterOptions {
    /// Paper-style defaults: tiled kernel, slice-aligned shards, LPT
    /// placement, 2 segments per shard on 2 streams.
    pub fn new(config: LaunchConfig, num_shards: usize) -> Self {
        assert!(num_shards > 0, "need at least one shard");
        Self {
            kernel: KernelChoice::Tiled,
            policy: ShardPolicy::SliceAligned,
            scheduler: DeviceScheduler::Lpt,
            num_shards,
            segments_per_shard: 2,
            streams_per_device: 2,
            config,
        }
    }
}

/// The placement callbacks a cluster plan carries: assignment over the
/// healthy devices (re-running the scheduler on a sub-node that preserves
/// device order), the re-placement strategy, the per-device speed proxy
/// and the analytic reduction cost.
pub struct NodePlacement {
    node: NodeSpec,
    shards: Vec<Shard>,
    scheduler: DeviceScheduler,
    rank: usize,
    rows: usize,
}

impl ClusterPolicy for NodePlacement {
    fn assign(&self, alive: &[usize]) -> Vec<Vec<usize>> {
        // `assign_shards` always sees the FULL shard list (its round-robin
        // branch keys on global shard indices), on a sub-node preserving
        // device order; results map back through `alive`.
        let mut assignment: Vec<Vec<usize>> = vec![Vec::new(); self.node.num_devices()];
        if alive.is_empty() {
            return assignment;
        }
        let sub = NodeSpec {
            devices: alive.iter().map(|&d| self.node.devices[d].clone()).collect(),
            host: self.node.host.clone(),
            interconnect: self.node.interconnect,
        };
        for (k, list) in
            assign_shards(&self.shards, &sub, self.scheduler, self.rank).into_iter().enumerate()
        {
            assignment[alive[k]] = list;
        }
        assignment
    }

    fn strategy(&self) -> PlaceStrategy {
        match self.scheduler {
            DeviceScheduler::RoundRobin => PlaceStrategy::RoundRobin,
            DeviceScheduler::Lpt => PlaceStrategy::Lpt,
        }
    }

    fn speed_proxy(&self, d: usize) -> f64 {
        self.node.device_speed_proxy(d, self.rank)
    }

    fn reduction_s(&self, assignment: &[Vec<usize>]) -> f64 {
        reduction_seconds(&self.node, &self.shards, assignment, self.rows, self.rank)
    }
}

/// Lowers one cluster MTTKRP: the mode-sorted tensor is sharded, shards
/// are placed by the scheduler, and each device's shards become pipelined
/// `H2D → Launch` units on round-robin streams with a per-shard partial
/// D2H on a dedicated return stream (absent under peer reduction).
pub fn build_cluster_plan(
    node: &NodeSpec,
    tensor: &CooTensor,
    factors: &FactorSet,
    mode: usize,
    opts: &ClusterOptions,
) -> Plan {
    assert!(opts.segments_per_shard > 0, "need at least one segment per shard");
    assert!(opts.streams_per_device > 0, "need at least one stream per device");
    let rank = factors.rank();
    let rows = tensor.dims()[mode] as usize;
    let out_bytes = (rows * rank * 4) as u64;
    let factors_bytes = factors.byte_size() as u64;

    let mut sorted = tensor.clone();
    sorted.sort_for_mode(mode);
    let order = sorted.order();
    let shards = shard_tensor(&sorted, mode, opts.policy, opts.num_shards);
    let assignment = assign_shards(&shards, node, opts.scheduler, rank);
    let seg_lists: Vec<Vec<Segment>> =
        shards.iter().map(|s| segment_by_nnz(s.nnz(), opts.segments_per_shard)).collect();

    // Peer-linked nodes gather row-overlapping partials device-to-device,
    // so the per-shard D2H hop disappears from the device timelines.
    let peer_reduce =
        opts.policy == ShardPolicy::NnzBalanced && node.peer_bandwidth_gbs().is_some();

    let shard_descs: Vec<ShardDesc> = shards
        .iter()
        .map(|s| ShardDesc { index: s.index, tensor: Arc::new(s.tensor.clone()), rows: s.rows })
        .collect();

    let mut devices = Vec::with_capacity(node.num_devices());
    for (d, shard_indices) in assignment.iter().enumerate() {
        let spec = node.effective_device(d);
        let mut units: Vec<WorkUnit> = Vec::new();
        let mut shard_work: Vec<ShardWork> = Vec::new();
        for &si in shard_indices {
            let d2h_bytes = shard_output_bytes(&shards[si], rank, out_bytes);
            let mut unit_ids = Vec::with_capacity(seg_lists[si].len());
            for (j, seg) in seg_lists[si].iter().enumerate() {
                let bytes = seg.byte_size(order) as u64;
                unit_ids.push(units.len());
                units.push(WorkUnit {
                    shard: si,
                    segment: j,
                    seg: seg.clone(),
                    stream: None, // the device's round-robin counter places it
                    alloc: Some((bytes, "segment must fit")),
                    h2d_bytes: bytes,
                    h2d_label: format!("shard{si} seg{j} H2D"),
                    kernel_label: format!("shard{si} seg{j} kernel"),
                    workload: None,
                });
            }
            shard_work.push(ShardWork {
                shard: si,
                output_alloc: Some((d2h_bytes, "shard output must fit")),
                units: unit_ids,
                d2h: (!peer_reduce).then(|| (d2h_bytes, format!("shard{si} D2H"))),
            });
        }
        devices.push(DeviceOps {
            device: d,
            name: spec.name,
            spec,
            host: Some(node.host.clone()),
            worker_streams: opts.streams_per_device,
            dedicated_d2h: true,
            residue: None,
            prologue_allocs: vec![(factors_bytes, "factor matrices must fit on each device")],
            units,
            shard_work,
            final_d2h: None,
            shard_list: shard_indices.clone(),
            skip_if_idle: true,
            program: None,
        });
    }

    let reduction_s = reduction_seconds(node, &shards, &assignment, rows, rank);
    let policy =
        NodePlacement { node: node.clone(), shards, scheduler: opts.scheduler, rank, rows };
    Plan {
        name: "scalfrag-cluster",
        mode,
        rank,
        rows,
        order,
        config: opts.config,
        kernel: opts.kernel,
        factors: Arc::new(factors.clone()),
        factors_bytes,
        seg_lists,
        shards: shard_descs,
        devices,
        reduce: Reduce::FoldShards,
        reduction_s,
        peer_reduce,
        replay_spec: node.effective_device(0),
        cluster: Some(Arc::new(policy)),
        sync_after_prologue: true,
        resilient_prologue: vec![(factors_bytes, "factor matrices must fit")],
        seg_alloc_what: "segment must fit",
        static_streams: None,
        tag_shards: true,
        meta: PlanMeta {
            segment_map: format!(
                "{} shard(s) ({:?}) × {} segment(s), {:?} over {} device(s)",
                opts.num_shards,
                opts.policy,
                opts.segments_per_shard,
                opts.scheduler,
                node.num_devices(),
            ),
            predictor: "fixed config".to_string(),
            retry: None,
            optimizer: String::new(),
            batch_jobs: 0,
        },
    }
}

/// Bytes of one shard's D2H result: its owned row block when slice-aligned,
/// the full partial output otherwise.
fn shard_output_bytes(shard: &Shard, rank: usize, full_out_bytes: u64) -> u64 {
    match shard.rows {
        Some((lo, hi)) => ((hi - lo + 1) as u64) * rank as u64 * 4,
        None => full_out_bytes,
    }
}

/// Analytic cost of the cross-shard reduction stage.
fn reduction_seconds(
    node: &NodeSpec,
    shards: &[Shard],
    assignment: &[Vec<usize>],
    rows: usize,
    rank: usize,
) -> f64 {
    let num_shards = shards.len();
    if num_shards <= 1 {
        return 0.0;
    }
    // Slice-aligned shards own disjoint rows: the per-shard D2H copies in
    // the device timelines already returned the final rows.
    if shards.iter().all(|s| s.rows.is_some()) {
        return 0.0;
    }
    let bytes = (rows * rank * 4) as f64;
    let extra = (num_shards - 1) as f64;
    match node.interconnect {
        Interconnect::PerLinkPcie | Interconnect::SharedHost { .. } => {
            // Host sums S partial matrices: one add per extra shard,
            // streaming two operands in and one result out.
            extra * node.host.task_duration_s((rows * rank) as u64, 3 * (rows * rank * 4) as u64)
        }
        Interconnect::PeerLinks { peer_gbs } => {
            // Gather on the device owning shard 0: off-root partials hop
            // one peer link each, every extra shard costs one device-side
            // add, and the merged matrix crosses PCIe once.
            let root = assignment.iter().position(|list| list.contains(&0)).unwrap_or(0);
            let off_root =
                shards.iter().skip(1).filter(|s| !assignment[root].contains(&s.index)).count()
                    as f64;
            let gather = off_root * bytes / (peer_gbs * 1e9);
            let root_spec = node.effective_device(root);
            let adds = extra * 3.0 * bytes / (root_spec.mem_bandwidth_gbs * 1e9);
            let d2h = root_spec.pcie_latency_us * 1e-6 + bytes / (root_spec.pcie_d2h_gbs * 1e9);
            gather + adds + d2h
        }
    }
}

/// The cluster crate's registered plan builders (mirroring the
/// conformance path backends).
pub fn plan_builders() -> Vec<PlanBuilder> {
    let cfg = LaunchConfig::new(512, 256);
    let node = |n: usize| NodeSpec::homogeneous(DeviceSpec::rtx3090(), n);
    vec![
        PlanBuilder::new("cluster-rr-nnz", move |tensor, factors, mode| {
            let mut opts = ClusterOptions::new(cfg, 4);
            opts.kernel = KernelChoice::Tiled;
            opts.scheduler = DeviceScheduler::RoundRobin;
            opts.policy = ShardPolicy::NnzBalanced;
            let mut p = build_cluster_plan(&node(2), tensor, factors, mode, &opts);
            p.name = "cluster-rr-nnz";
            p
        }),
        PlanBuilder::new("cluster-lpt-slice", move |tensor, factors, mode| {
            let mut opts = ClusterOptions::new(cfg, 6);
            opts.kernel = KernelChoice::Tiled;
            opts.scheduler = DeviceScheduler::Lpt;
            opts.policy = ShardPolicy::SliceAligned;
            let mut p = build_cluster_plan(&node(3), tensor, factors, mode, &opts);
            p.name = "cluster-lpt-slice";
            p
        }),
        PlanBuilder::new("cluster-resilient", move |tensor, factors, mode| {
            let opts = ClusterOptions::new(cfg, 6);
            let mut p = build_cluster_plan(&node(3), tensor, factors, mode, &opts);
            p.name = "cluster-resilient";
            p
        }),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use scalfrag_exec::{run_plan, run_plan_resilient, ExecMode, ExecOutcome, FaultRecoveryPolicy};
    use scalfrag_faults::{FaultInjector, FaultKind, FaultPlan, FaultTrigger};
    use scalfrag_kernels::reference::mttkrp_seq;
    use scalfrag_linalg::Mat;

    fn setup() -> (CooTensor, FactorSet) {
        let dims = [120u32, 90, 70];
        let t = scalfrag_tensor::gen::zipf_slices(&dims, 9_000, 0.8, 41);
        let f = FactorSet::random(&dims, 8, 42);
        (t, f)
    }

    fn opts(policy: ShardPolicy, kernel: KernelChoice) -> ClusterOptions {
        let mut o = ClusterOptions::new(LaunchConfig::new(512, 256), 4);
        o.policy = policy;
        o.kernel = kernel;
        o
    }

    fn tiled() -> ClusterOptions {
        opts(ShardPolicy::SliceAligned, KernelChoice::Tiled)
    }

    fn node(n: usize) -> NodeSpec {
        NodeSpec::homogeneous(DeviceSpec::rtx3090(), n)
    }

    fn run(
        node: &NodeSpec,
        t: &CooTensor,
        f: &FactorSet,
        o: &ClusterOptions,
        exec: ExecMode,
    ) -> ExecOutcome {
        run_plan(&build_cluster_plan(node, t, f, 0, o), exec)
    }

    fn run_resilient(
        node: &NodeSpec,
        t: &CooTensor,
        f: &FactorSet,
        o: &ClusterOptions,
        injector: &mut FaultInjector,
        policy: &FaultRecoveryPolicy,
    ) -> ExecOutcome {
        let plan = build_cluster_plan(node, t, f, 0, o);
        run_plan_resilient(&plan, injector, policy, ExecMode::Functional)
    }

    fn bits(m: &Mat) -> Vec<u32> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    fn device_fail_at_op(device: usize, op: u64, down_s: Option<f64>) -> FaultPlan {
        FaultPlan::new().fault(device, FaultTrigger::AtOp(op), FaultKind::DeviceFail { down_s })
    }

    #[test]
    fn slice_aligned_output_matches_reference() {
        let (t, f) = setup();
        let run = run(&node(2), &t, &f, &tiled(), ExecMode::Functional);
        let mut sorted = t.clone();
        sorted.sort_for_mode(0);
        let expect = mttkrp_seq(&sorted, &f, 0);
        assert!(run.output.max_abs_diff(&expect) < 1e-2);
        assert_eq!(run.reduction_s, 0.0, "slice-aligned reduce is free");
        for tl in &run.device_timelines {
            assert!(tl.validate().is_ok());
        }
    }

    #[test]
    fn nnz_balanced_pays_for_reduction() {
        let (t, f) = setup();
        let o = opts(ShardPolicy::NnzBalanced, KernelChoice::Tiled);
        let run = run(&node(2), &t, &f, &o, ExecMode::Functional);
        let mut sorted = t.clone();
        sorted.sort_for_mode(0);
        let expect = mttkrp_seq(&sorted, &f, 0);
        assert!(run.output.max_abs_diff(&expect) < 1e-2);
        assert!(run.reduction_s > 0.0, "cross-shard rows must cost a reduction");
    }

    #[test]
    fn output_is_bitwise_invariant_to_device_count() {
        let (t, f) = setup();
        let o = opts(ShardPolicy::SliceAligned, KernelChoice::CooAtomic);
        let outputs: Vec<Vec<f32>> = [1usize, 2, 3]
            .iter()
            .map(|&n| run(&node(n), &t, &f, &o, ExecMode::Functional).output.into_vec())
            .collect();
        assert_eq!(outputs[0], outputs[1]);
        assert_eq!(outputs[1], outputs[2]);
    }

    #[test]
    fn dry_run_matches_functional_timing_and_computes_nothing() {
        let (t, f) = setup();
        let wet = run(&node(2), &t, &f, &tiled(), ExecMode::Functional);
        let dry = run(&node(2), &t, &f, &tiled(), ExecMode::Dry);
        assert_eq!(wet.makespan(), dry.makespan());
        assert_eq!(wet.trace.fingerprint(), dry.trace.fingerprint());
        assert_eq!(dry.output.frob_norm(), 0.0);
    }

    #[test]
    fn peer_links_cheapen_the_nnz_balanced_reduction() {
        // Output large enough for bandwidth (not PCIe latency) to dominate
        // the reduction: 4000 rows × rank 32 ≈ 512 KB of partial output.
        let dims = [4_000u32, 90, 70];
        let t = scalfrag_tensor::gen::zipf_slices(&dims, 20_000, 0.8, 41);
        let f = FactorSet::random(&dims, 32, 42);
        let base = node(2).with_interconnect(Interconnect::PerLinkPcie);
        let peered = node(2).with_interconnect(Interconnect::PeerLinks { peer_gbs: 300.0 });
        let o = opts(ShardPolicy::NnzBalanced, KernelChoice::Tiled);
        let host_path = run(&base, &t, &f, &o, ExecMode::Dry);
        let peer_path = run(&peered, &t, &f, &o, ExecMode::Dry);
        assert!(
            peer_path.reduction_s < host_path.reduction_s,
            "peer gather {} should beat host adds {}",
            peer_path.reduction_s,
            host_path.reduction_s
        );
        // Peer reduction also drops the per-shard D2H hops from the device
        // timelines, so the end-to-end makespan improves as well.
        assert!(peer_path.makespan() < host_path.makespan());
    }

    #[test]
    fn devices_beyond_shard_count_stay_idle() {
        let (t, f) = setup();
        let mut o = tiled();
        o.num_shards = 2;
        let run = run(&node(6), &t, &f, &o, ExecMode::Dry);
        let idle: Vec<usize> = (0..6).filter(|&d| run.device_shards[d].is_empty()).collect();
        assert!(idle.len() >= 4, "only 2 shards: at least 4 of 6 devices idle");
        for d in idle {
            assert_eq!(run.device_timelines[d].makespan(), 0.0);
        }
    }

    #[test]
    fn cluster_plan_renders_a_typed_ir_dump() {
        let (t, f) = setup();
        let p = build_cluster_plan(&node(2), &t, &f, 0, &tiled());
        let dump = p.render();
        assert!(dump.contains("device 0"), "dump:\n{dump}");
        assert!(dump.contains("device 1"), "dump:\n{dump}");
        assert!(dump.contains("shard0 seg0 H2D"), "dump:\n{dump}");
        assert!(dump.contains("D2H"), "dump:\n{dump}");
    }

    #[test]
    fn fault_free_resilient_is_bit_identical_to_cluster() {
        let (t, f) = setup();
        let o = tiled();
        let base = run(&node(3), &t, &f, &o, ExecMode::Functional);
        let mut inj = FaultInjector::inert();
        let policy = FaultRecoveryPolicy::retry_reshard();
        let run = run_resilient(&node(3), &t, &f, &o, &mut inj, &policy);
        assert!(run.all_complete());
        assert_eq!(run.retries, 0);
        assert!(run.dead_devices.is_empty());
        assert_eq!(bits(&base.output), bits(&run.output), "clean run must be bit-identical");
        // Detection is not free: the checksum scans show up in the clock.
        assert!(run.makespan() >= base.makespan());
    }

    #[test]
    fn permanent_death_is_recovered_by_resharding() {
        let (t, f) = setup();
        let o = tiled();
        let base = run(&node(3), &t, &f, &o, ExecMode::Functional);
        let mut inj = FaultInjector::new(device_fail_at_op(1, 2, None));
        let policy = FaultRecoveryPolicy::retry_reshard();
        let run = run_resilient(&node(3), &t, &f, &o, &mut inj, &policy);
        assert!(run.all_complete(), "re-sharding must rescue the dead device's work");
        assert_eq!(run.dead_devices, vec![1]);
        assert!(run.replaced_segments > 0, "rescued segments must be accounted");
        assert!(inj.log().recoveries() > 0);
        assert_eq!(
            bits(&base.output),
            bits(&run.output),
            "recovered run must be bit-identical to fault-free"
        );
    }

    #[test]
    fn without_resharding_a_dead_device_loses_work() {
        let (t, f) = setup();
        let o = tiled();
        let plan = device_fail_at_op(1, 2, None);
        for policy in [FaultRecoveryPolicy::retry(), FaultRecoveryPolicy::no_retry()] {
            let mut inj = FaultInjector::new(plan.clone());
            let run = run_resilient(&node(3), &t, &f, &o, &mut inj, &policy);
            assert!(run.failed_segments() > 0, "{policy:?} must demonstrably lose work");
            assert_eq!(run.replaced_segments, 0);
        }
    }

    #[test]
    fn transient_outage_is_waited_out_in_place() {
        let (t, f) = setup();
        let o = tiled();
        let base = run(&node(3), &t, &f, &o, ExecMode::Functional);
        let mut inj = FaultInjector::new(device_fail_at_op(1, 2, Some(2e-3)));
        let run = run_resilient(&node(3), &t, &f, &o, &mut inj, &FaultRecoveryPolicy::retry());
        assert!(run.all_complete(), "transient downtime must be recoverable in place");
        assert!(run.dead_devices.is_empty());
        assert!(run.retries > 0);
        assert_eq!(bits(&base.output), bits(&run.output));
        assert!(run.device_timelines[1].makespan() >= 2e-3, "the outage must show in the clock");
    }

    #[test]
    fn device_down_at_start_is_excluded_from_placement() {
        let (t, f) = setup();
        let o = tiled();
        let base = run(&node(3), &t, &f, &o, ExecMode::Functional);
        let plan = FaultPlan::new().fault(
            0,
            FaultTrigger::AtTime(0.0),
            FaultKind::DeviceFail { down_s: None },
        );
        let mut inj = FaultInjector::new(plan);
        let run = run_resilient(&node(3), &t, &f, &o, &mut inj, &FaultRecoveryPolicy::retry());
        assert!(run.all_complete(), "survivors must absorb the full tensor");
        assert_eq!(run.dead_devices, vec![0]);
        assert!(run.device_shards[0].is_empty());
        assert_eq!(
            bits(&base.output),
            bits(&run.output),
            "placement is timing-only: fewer devices, same bits"
        );
    }

    #[test]
    fn straggler_slows_the_device_but_keeps_numerics() {
        let (t, f) = setup();
        let o = tiled();
        let policy = FaultRecoveryPolicy::retry();
        let mut clean_inj = FaultInjector::inert();
        let clean = run_resilient(&node(3), &t, &f, &o, &mut clean_inj, &policy);
        let plan = FaultPlan::new().fault(
            0,
            FaultTrigger::AtTime(0.0),
            FaultKind::Straggler { derate: 4.0 },
        );
        let mut inj = FaultInjector::new(plan);
        let run = run_resilient(&node(3), &t, &f, &o, &mut inj, &policy);
        assert!(run.all_complete());
        assert_eq!(bits(&clean.output), bits(&run.output), "slowdown must not touch numerics");
        assert!(
            run.device_timelines[0].makespan() > clean.device_timelines[0].makespan(),
            "a 4x straggler must be visibly slower"
        );
    }

    #[test]
    fn nnz_balanced_recovery_is_bit_identical_too() {
        // Row-straddling shards exercise the FoldShards axpy path under
        // recovery: the replay order must keep the fold deterministic.
        let (t, f) = setup();
        let o = opts(ShardPolicy::NnzBalanced, KernelChoice::Tiled);
        let base = run(&node(3), &t, &f, &o, ExecMode::Functional);
        let mut inj = FaultInjector::new(device_fail_at_op(1, 2, None));
        let policy = FaultRecoveryPolicy::retry_reshard();
        let run = run_resilient(&node(3), &t, &f, &o, &mut inj, &policy);
        assert!(run.all_complete());
        assert_eq!(bits(&base.output), bits(&run.output));
    }

    #[test]
    fn cluster_options_default_to_the_paper_settings() {
        let o = ClusterOptions::new(LaunchConfig::new(512, 256), 6);
        assert_eq!(o.kernel, KernelChoice::Tiled);
        assert_eq!((o.policy, o.scheduler), (ShardPolicy::SliceAligned, DeviceScheduler::Lpt));
        assert_eq!((o.num_shards, o.segments_per_shard, o.streams_per_device), (6, 2, 2));
    }

    #[test]
    #[should_panic(expected = "need at least one shard")]
    fn cluster_options_reject_zero_shards() {
        let _ = ClusterOptions::new(LaunchConfig::new(512, 256), 0);
    }

    fn sorted_shards(policy: ShardPolicy, n: usize) -> Vec<Shard> {
        let (mut t, _) = setup();
        t.sort_for_mode(0);
        shard_tensor(&t, 0, policy, n)
    }

    #[test]
    fn only_slice_aligned_shards_return_a_row_block() {
        let (rows, rank) = (120, 8);
        let full = (rows * rank * 4) as u64;
        let aligned = sorted_shards(ShardPolicy::SliceAligned, 4);
        let returned: u64 = aligned.iter().map(|s| shard_output_bytes(s, rank, full)).sum();
        assert!(returned <= full, "disjoint row blocks add up to at most one output");
        for s in sorted_shards(ShardPolicy::NnzBalanced, 4) {
            assert_eq!(shard_output_bytes(&s, rank, full), full, "overlapping rows return all");
        }
    }

    #[test]
    fn host_reduction_pays_one_add_per_extra_shard() {
        let host = node(2).with_interconnect(Interconnect::PerLinkPcie);
        let cost = |policy: ShardPolicy, n: usize| {
            let assignment = [(0..n).collect(), Vec::new()];
            reduction_seconds(&host, &sorted_shards(policy, n), &assignment, 120, 8)
        };
        assert_eq!(cost(ShardPolicy::NnzBalanced, 1), 0.0, "one shard needs no reduction");
        assert_eq!(cost(ShardPolicy::SliceAligned, 4), 0.0, "owned rows need no reduction");
        let two = cost(ShardPolicy::NnzBalanced, 2);
        assert!(two > 0.0);
        let five = cost(ShardPolicy::NnzBalanced, 5);
        assert!((five - 4.0 * two).abs() <= 1e-12 * five, "{five} vs 4 × {two}");
    }

    #[test]
    fn peer_gather_skips_partials_already_on_the_root() {
        let peer_gbs = 300.0;
        let peered = node(2).with_interconnect(Interconnect::PeerLinks { peer_gbs });
        let shards = sorted_shards(ShardPolicy::NnzBalanced, 4);
        let (rows, rank) = (120, 8);
        let colocated =
            reduction_seconds(&peered, &shards, &[vec![0, 1, 2, 3], vec![]], rows, rank);
        let spread = reduction_seconds(&peered, &shards, &[vec![0, 2], vec![1, 3]], rows, rank);
        let hop = (rows * rank * 4) as f64 / (peer_gbs * 1e9);
        assert!(
            (spread - colocated - 2.0 * hop).abs() < 1e-6 * hop,
            "two off-root partials cost two peer hops: {spread} vs {colocated}"
        );
    }
}
