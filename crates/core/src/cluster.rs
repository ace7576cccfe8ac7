//! The multi-GPU ScalFrag facade: the [`ScalFrag`](crate::ScalFrag)
//! builder pattern lifted onto a [`NodeSpec`] of simulated devices.

use crate::report::MttkrpReport;
use scalfrag_autotune::TrainedPredictor;
use scalfrag_cluster::{
    build_cluster_plan, ClusterOptions, DeviceScheduler, FaultRecoveryPolicy, NodeSpec, ShardPolicy,
};
use scalfrag_exec::{run_plan, run_plan_resilient, ExecMode, KernelChoice, Plan};
use scalfrag_faults::FaultInjector;
use scalfrag_gpusim::{DeviceSpec, LaunchConfig};
use scalfrag_kernels::{FactorSet, SegmentStats};
use scalfrag_tensor::{CooTensor, TensorFeatures};

/// Feature toggles of the cluster stack — the multi-GPU ablation surface.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Pick the launch configuration with the trained predictor (per
    /// shard-sized tensor features); otherwise use `fixed_config` or the
    /// ParTI heuristic.
    pub adaptive_launch: bool,
    /// Launch the shared-memory tiled kernel instead of the atomic COO
    /// kernel.
    pub tiled_kernel: bool,
    /// How the tensor is cut into shards.
    pub shard_policy: ShardPolicy,
    /// How shards are placed on devices.
    pub scheduler: DeviceScheduler,
    /// Shard count override. `None` = `2 × num_devices`. Pin this
    /// explicitly when comparing node sizes: the numeric output is bitwise
    /// stable across device counts only for a fixed shard count.
    pub shards: Option<usize>,
    /// Pipeline segments per shard.
    pub segments_per_shard: usize,
    /// Streams per device.
    pub streams_per_device: usize,
    /// Launch configuration override used when `adaptive_launch` is off.
    pub fixed_config: Option<LaunchConfig>,
    /// Seed for predictor training.
    pub train_seed: u64,
    /// Non-zero tiers for predictor training (`None` = autotune defaults).
    pub train_tiers: Option<Vec<usize>>,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self {
            adaptive_launch: true,
            tiled_kernel: true,
            shard_policy: ShardPolicy::SliceAligned,
            scheduler: DeviceScheduler::Lpt,
            shards: None,
            segments_per_shard: 2,
            streams_per_device: 2,
            fixed_config: None,
            train_seed: 0x5ca1,
            train_tiers: None,
        }
    }
}

/// Builder for [`ClusterScalFrag`].
pub struct ClusterScalFragBuilder {
    node: NodeSpec,
    config: ClusterConfig,
    predictor: Option<TrainedPredictor>,
}

impl ClusterScalFragBuilder {
    /// Sets the node (default: 2 × RTX 3090 with shared-host contention).
    pub fn node(mut self, node: NodeSpec) -> Self {
        self.node = node;
        self
    }

    /// Enables/disables the adaptive launching strategy.
    pub fn adaptive_launch(mut self, on: bool) -> Self {
        self.config.adaptive_launch = on;
        self
    }

    /// Enables/disables the tiled kernel.
    pub fn tiled_kernel(mut self, on: bool) -> Self {
        self.config.tiled_kernel = on;
        self
    }

    /// Sets the shard policy.
    pub fn shard_policy(mut self, p: ShardPolicy) -> Self {
        self.config.shard_policy = p;
        self
    }

    /// Sets the device scheduler.
    pub fn scheduler(mut self, s: DeviceScheduler) -> Self {
        self.config.scheduler = s;
        self
    }

    /// Pins the shard count (required for bitwise-stable comparisons
    /// across different device counts).
    pub fn shards(mut self, n: usize) -> Self {
        self.config.shards = Some(n);
        self
    }

    /// Sets pipeline segments per shard.
    pub fn segments(mut self, n: usize) -> Self {
        self.config.segments_per_shard = n;
        self
    }

    /// Sets streams per device.
    pub fn streams(mut self, n: usize) -> Self {
        self.config.streams_per_device = n;
        self
    }

    /// Overrides the nnz tiers used to train the launch predictor.
    pub fn train_tiers(mut self, tiers: Vec<usize>) -> Self {
        self.config.train_tiers = Some(tiers);
        self
    }

    /// Pins a fixed launch configuration (implies `adaptive_launch(false)`).
    pub fn fixed_config(mut self, c: LaunchConfig) -> Self {
        self.config.fixed_config = Some(c);
        self.config.adaptive_launch = false;
        self
    }

    /// Shares an already-created [`TrainedPredictor`] handle instead of
    /// training privately (see [`crate::ScalFragBuilder::predictor`]).
    pub fn predictor(mut self, handle: TrainedPredictor) -> Self {
        self.predictor = Some(handle);
        self
    }

    /// Finalises the framework instance.
    pub fn build(self) -> ClusterScalFrag {
        let predictor = self.predictor.unwrap_or_else(|| {
            // Train against the node's first device; the launch space is
            // shared by all devices in the node.
            TrainedPredictor::train_once(
                &self.node.devices[0],
                self.config.train_seed,
                self.config.train_tiers.clone(),
            )
        });
        ClusterScalFrag { node: self.node, config: self.config, predictor }
    }
}

/// The multi-GPU ScalFrag framework: shard → schedule → per-device
/// pipeline → reduce, behind the same builder/report surface as the
/// single-GPU [`ScalFrag`](crate::ScalFrag).
pub struct ClusterScalFrag {
    node: NodeSpec,
    config: ClusterConfig,
    predictor: TrainedPredictor,
}

impl ClusterScalFrag {
    /// Starts a builder with the defaults: 2 × RTX 3090 behind a shared
    /// host link, slice-aligned shards, LPT placement, everything on.
    pub fn builder() -> ClusterScalFragBuilder {
        ClusterScalFragBuilder {
            node: NodeSpec::homogeneous(DeviceSpec::rtx3090(), 2),
            config: ClusterConfig::default(),
            predictor: None,
        }
    }

    /// The node model.
    pub fn node(&self) -> &NodeSpec {
        &self.node
    }

    /// The active configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// The shared trained-predictor handle.
    pub fn trained_predictor(&self) -> &TrainedPredictor {
        &self.predictor
    }

    /// Selects the launch configuration for `(tensor, mode)`.
    pub fn select_config(&self, tensor: &CooTensor, mode: usize, rank: u32) -> LaunchConfig {
        if self.config.adaptive_launch {
            let features = TensorFeatures::extract(tensor, mode).to_vec();
            self.predictor.for_rank(rank).predict_from_features(&features)
        } else {
            self.config.fixed_config.unwrap_or_else(|| LaunchConfig::parti_default(tensor.nnz()))
        }
    }

    fn options(&self, cfg: LaunchConfig) -> ClusterOptions {
        let num_shards = self.config.shards.unwrap_or(2 * self.node.num_devices());
        ClusterOptions {
            kernel: if self.config.tiled_kernel {
                KernelChoice::Tiled
            } else {
                KernelChoice::CooAtomic
            },
            policy: self.config.shard_policy,
            scheduler: self.config.scheduler,
            num_shards,
            segments_per_shard: self.config.segments_per_shard,
            streams_per_device: self.config.streams_per_device,
            config: cfg,
        }
    }

    /// Runs one end-to-end multi-device MTTKRP (functional).
    pub fn mttkrp(&self, tensor: &CooTensor, factors: &FactorSet, mode: usize) -> MttkrpReport {
        let (plan, flops) = self.plan(tensor, factors, mode);
        MttkrpReport::new("cluster", &plan, run_plan(&plan, ExecMode::Functional), flops)
    }

    /// Timing-only variant for benchmark sweeps.
    pub fn mttkrp_dry(&self, tensor: &CooTensor, factors: &FactorSet, mode: usize) -> MttkrpReport {
        let (plan, flops) = self.plan(tensor, factors, mode);
        MttkrpReport::new("cluster", &plan, run_plan(&plan, ExecMode::Dry), flops)
    }

    /// Runs one multi-device MTTKRP under injected faults, recovering per
    /// `policy` (segment retries, transient-outage waits and — in
    /// re-shard mode — placement of a dead device's shards onto the
    /// survivors). The report's recovery counters say what was lost and
    /// rescued. When the run completes fully, the output is bitwise
    /// identical to [`ClusterScalFrag::mttkrp`] on the same inputs.
    pub fn mttkrp_resilient(
        &self,
        tensor: &CooTensor,
        factors: &FactorSet,
        mode: usize,
        injector: &mut FaultInjector,
        policy: &FaultRecoveryPolicy,
    ) -> MttkrpReport {
        let (plan, flops) = self.plan(tensor, factors, mode);
        let outcome = run_plan_resilient(&plan, injector, policy, ExecMode::Functional);
        MttkrpReport::new("cluster", &plan, outcome, flops)
    }

    /// Lowers one MTTKRP to a cluster plan and counts its FLOPs.
    fn plan(&self, tensor: &CooTensor, factors: &FactorSet, mode: usize) -> (Plan, u64) {
        let rank = factors.rank() as u32;
        let cfg = self.select_config(tensor, mode, rank);
        let plan = build_cluster_plan(&self.node, tensor, factors, mode, &self.options(cfg));
        (plan, SegmentStats::compute(tensor, mode).flops(rank))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{DeviceReport, PhaseTiming};
    use scalfrag_kernels::reference::mttkrp_seq;

    fn small() -> (CooTensor, FactorSet) {
        let dims = [150u32, 100, 80];
        let t = scalfrag_tensor::gen::zipf_slices(&dims, 8_000, 0.9, 51);
        let f = FactorSet::random(&dims, 16, 52);
        (t, f)
    }

    #[test]
    fn cluster_facade_matches_reference() {
        let (t, f) = small();
        let ctx = ClusterScalFrag::builder().fixed_config(LaunchConfig::new(1024, 256)).build();
        let r = ctx.mttkrp(&t, &f, 0);
        let expect = mttkrp_seq(&t, &f, 0);
        assert!(r.output.max_abs_diff(&expect) < 1e-2, "diff {}", r.output.max_abs_diff(&expect));
        assert_eq!(r.num_devices(), 2);
        assert_eq!(r.num_shards, 4, "default shards = 2 × devices");
        assert!(r.timing.total_s > 0.0);
        assert_eq!(r.reduction_s, 0.0, "slice-aligned default reduces for free");
        assert!(r.all_complete() && r.retries == 0);
    }

    #[test]
    fn more_devices_cut_the_makespan() {
        let (t, f) = small();
        let run = |n: usize| {
            ClusterScalFrag::builder()
                .node(NodeSpec::homogeneous(DeviceSpec::rtx3090(), n))
                .fixed_config(LaunchConfig::new(1024, 256))
                .shards(4)
                .build()
                .mttkrp_dry(&t, &f, 0)
                .timing
                .total_s
        };
        let one = run(1);
        let two = run(2);
        assert!(two < one, "2 GPUs ({two}s) must beat 1 GPU ({one}s)");
    }

    #[test]
    fn adaptive_launch_trains_once_per_rank() {
        let (t, f) = small();
        let ctx = ClusterScalFrag::builder().train_tiers(vec![3_000, 12_000]).build();
        let c1 = ctx.select_config(&t, 0, f.rank() as u32);
        let c2 = ctx.select_config(&t, 0, f.rank() as u32);
        assert_eq!(c1, c2, "cached predictor must be deterministic");
        assert!(c1.validate(&ctx.node().devices[0]).is_ok());
    }

    #[test]
    fn resilient_facade_recovers_a_dead_device_bit_exactly() {
        use scalfrag_faults::{FaultKind, FaultPlan, FaultTrigger};
        let (t, f) = small();
        let ctx =
            ClusterScalFrag::builder().fixed_config(LaunchConfig::new(1024, 256)).shards(4).build();
        let clean = ctx.mttkrp(&t, &f, 0);
        let mut inj = FaultInjector::new(FaultPlan::new().fault(
            1,
            FaultTrigger::AtOp(2),
            FaultKind::DeviceFail { down_s: None },
        ));
        let r = ctx.mttkrp_resilient(&t, &f, 0, &mut inj, &FaultRecoveryPolicy::retry_reshard());
        assert!(r.all_complete(), "re-sharding must rescue the dead device's shards");
        assert_eq!(r.dead_devices, vec![1]);
        assert!(r.replaced_segments > 0);
        let same = clean
            .output
            .as_slice()
            .iter()
            .zip(r.output.as_slice())
            .all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(same, "recovered output must be bitwise identical to the fault-free run");
    }

    #[test]
    fn fault_free_resilient_report_has_clean_counters() {
        let (t, f) = small();
        let ctx =
            ClusterScalFrag::builder().fixed_config(LaunchConfig::new(1024, 256)).shards(4).build();
        let clean = ctx.mttkrp(&t, &f, 1);
        let mut inj = FaultInjector::inert();
        let r = ctx.mttkrp_resilient(&t, &f, 1, &mut inj, &FaultRecoveryPolicy::retry_reshard());
        assert!(r.all_complete());
        assert_eq!(r.completed_segments, r.segments);
        assert_eq!((r.retries, r.replaced_segments), (0, 0));
        assert!(r.dead_devices.is_empty());
        assert_eq!(r.output.as_slice(), clean.output.as_slice());
        assert!(r.timing.total_s >= clean.timing.total_s, "checksum scans cost time");
    }

    #[test]
    fn dry_cluster_report_times_like_the_functional_one() {
        let (t, f) = small();
        let ctx = ClusterScalFrag::builder()
            .fixed_config(LaunchConfig::new(512, 256))
            .shard_policy(ShardPolicy::NnzBalanced)
            .shards(3)
            .build();
        let wet = ctx.mttkrp(&t, &f, 0);
        let dry = ctx.mttkrp_dry(&t, &f, 0);
        assert_eq!(wet.timing, dry.timing);
        assert_eq!(wet.reduction_s, dry.reduction_s);
        assert_eq!(wet.devices, dry.devices);
        assert!(wet.output.frob_norm() > 0.0);
        assert_eq!(dry.output.frob_norm(), 0.0);
    }

    #[test]
    fn device_reports_follow_the_node_order() {
        let (t, f) = small();
        let node = NodeSpec::heterogeneous(vec![
            DeviceSpec::rtx3090(),
            DeviceSpec::a100(),
            DeviceSpec::rtx3060(),
            DeviceSpec::rtx3090(),
        ]);
        let names: Vec<_> = node.devices.iter().map(|d| d.name).collect();
        let r = ClusterScalFrag::builder()
            .node(node)
            .fixed_config(LaunchConfig::new(512, 256))
            .shards(2)
            .build()
            .mttkrp_dry(&t, &f, 0);
        assert_eq!(r.devices.iter().map(|d| d.name).collect::<Vec<_>>(), names);
        let idle: Vec<&DeviceReport> = r.devices.iter().filter(|d| d.shards.is_empty()).collect();
        assert!(idle.len() >= 2, "2 shards leave at least 2 of 4 devices idle");
        for d in idle {
            assert_eq!(d.timing, PhaseTiming::default(), "{} is idle", d.name);
        }
    }

    #[test]
    fn report_summary_mentions_the_node_shape() {
        let (t, f) = small();
        let ctx =
            ClusterScalFrag::builder().fixed_config(LaunchConfig::new(512, 256)).shards(3).build();
        let r = ctx.mttkrp_dry(&t, &f, 1);
        let s = r.summary();
        assert!(s.contains("gpus=2") && s.contains("shards=3"), "{s}");
    }

    #[test]
    fn multi_device_timing_pools_the_devices() {
        // Busy phases are summed across devices; the makespan is the
        // slowest device plus the reduction stage.
        let (t, f) = small();
        let r = ClusterScalFrag::builder()
            .node(NodeSpec::homogeneous(DeviceSpec::rtx3090(), 3))
            .fixed_config(LaunchConfig::new(512, 256))
            .shard_policy(ShardPolicy::NnzBalanced)
            .shards(6)
            .build()
            .mttkrp_dry(&t, &f, 0);
        assert_eq!(r.num_devices(), 3);
        assert_eq!(r.segments, 6 * r.streams, "2 segments per shard on 2 streams");
        let sum = |phase: fn(&PhaseTiming) -> f64| r.devices.iter().map(|d| phase(&d.timing)).sum();
        assert_eq!(r.timing.h2d_s, sum(|p| p.h2d_s));
        assert_eq!(r.timing.kernel_s, sum(|p| p.kernel_s));
        assert_eq!(r.timing.d2h_s, sum(|p| p.d2h_s));
        let slowest = r.devices.iter().map(|d| d.timing.total_s).fold(0.0, f64::max);
        assert!(r.reduction_s > 0.0, "row-overlapping shards pay a reduction");
        assert_eq!(r.timing.total_s, slowest + r.reduction_s);
        let mut shards: Vec<usize> = r.devices.iter().flat_map(|d| d.shards.clone()).collect();
        shards.sort_unstable();
        assert_eq!(shards, (0..6).collect::<Vec<_>>(), "every shard runs exactly once");
    }

    #[test]
    fn resilient_report_counts_lost_work_without_retries() {
        use scalfrag_faults::{FaultKind, FaultPlan, FaultTrigger};
        let (t, f) = small();
        let ctx =
            ClusterScalFrag::builder().fixed_config(LaunchConfig::new(1024, 256)).shards(4).build();
        let mut inj = FaultInjector::new(FaultPlan::new().fault(
            1,
            FaultTrigger::AtOp(2),
            FaultKind::DeviceFail { down_s: None },
        ));
        let r = ctx.mttkrp_resilient(&t, &f, 0, &mut inj, &FaultRecoveryPolicy::no_retry());
        assert!(!r.all_complete(), "no-retry must lose the dead device's work");
        assert_eq!(r.failed_segments + r.completed_segments, 4 * 2, "4 shards × 2 segments");
        assert_eq!((r.replaced_segments, r.dead_devices.clone()), (0, vec![1]));
    }
}
