//! Metric names, units and clocks, plus the layer-span accumulator the
//! traced runs fill.
//!
//! Every metric the benchmark can print is declared once in [`END_TO_END`]
//! or [`PER_LAYER`]; `BENCHMARK.json` and `README.md` list the same names.
//! A run must set every metric of its table exactly once, which
//! [`Metrics::finish`] enforces.

use std::collections::BTreeMap;
use std::time::Instant;

/// Which clock a metric is read from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Clock {
    /// Host wall-clock time of the real program.
    Host,
    /// Simulated device time from the gpusim cost model.
    Sim,
    /// A count, share or value that no clock measures.
    None,
}

impl Clock {
    pub fn name(self) -> &'static str {
        match self {
            Clock::Host => "host",
            Clock::Sim => "sim",
            Clock::None => "-",
        }
    }
}

/// One declared metric.
pub struct Spec {
    pub name: &'static str,
    pub unit: &'static str,
    pub clock: Clock,
}

const fn spec(name: &'static str, unit: &'static str, clock: Clock) -> Spec {
    Spec { name, unit, clock }
}

/// Printed with `--trace 0`, on every workload.
pub const END_TO_END: &[Spec] = &[
    spec("setup_s", "s", Clock::Host),
    spec("run_wall_s", "s", Clock::Host),
    spec("host_jobs_per_s", "1/s", Clock::Host),
    spec("mttkrp_p50_ms", "ms", Clock::Host),
    spec("mttkrp_p90_ms", "ms", Clock::Host),
    spec("sim_p50_ms", "ms", Clock::Sim),
    spec("sim_p99_ms", "ms", Clock::Sim),
    spec("sim_jobs_per_s", "1/s", Clock::Sim),
    spec("sim_slo_met_rate", "share", Clock::Sim),
    spec("admit_rate", "share", Clock::Sim),
    spec("sim_device_s", "s", Clock::Sim),
    spec("peak_rss_mb", "MiB", Clock::Host),
];

/// Printed with `--trace 1`, on every workload (0 where a layer is not
/// used by the workload).
pub const PER_LAYER: &[Spec] = &[
    spec("tensor.features.calls", "count", Clock::None),
    spec("tensor.features.busy_s", "s", Clock::Host),
    spec("tensor.sort.calls", "count", Clock::None),
    spec("tensor.sort.busy_s", "s", Clock::Host),
    spec("autotune.train.ranks", "count", Clock::None),
    spec("autotune.train.busy_s", "s", Clock::Host),
    spec("autotune.predict.calls", "count", Clock::None),
    spec("autotune.predict.busy_s", "s", Clock::Host),
    spec("autotune.inference_vs_host_mttkrp", "ratio", Clock::Host),
    spec("autotune.inference_vs_sim_mttkrp", "ratio", Clock::None),
    spec("serve.plan.measured_s", "s", Clock::Host),
    spec("serve.plan.modelled_s", "s", Clock::Sim),
    spec("serve.plan.measured_miss_ms", "ms", Clock::Host),
    spec("serve.plan.modelled_miss_ms", "ms", Clock::Sim),
    spec("serve.plan.modelled_hit_ms", "ms", Clock::Sim),
    spec("serve.cache.hits", "count", Clock::None),
    spec("serve.cache.misses", "count", Clock::None),
    spec("serve.cache.hit_rate", "share", Clock::None),
    spec("serve.batch.groups", "count", Clock::None),
    spec("serve.batch.mean_occupancy", "jobs", Clock::None),
    spec("serve.batch.mean_wait_ms", "ms", Clock::Sim),
    spec("serve.queue.mean_wait_ms", "ms", Clock::Sim),
    spec("serve.queue.peak_depth", "count", Clock::None),
    spec("serve.submitted", "count", Clock::None),
    spec("serve.completed", "count", Clock::None),
    spec("serve.rejected", "count", Clock::None),
    spec("serve.rate_limited", "count", Clock::None),
    spec("serve.self_s", "s", Clock::Host),
    spec("pipeline.build.calls", "count", Clock::None),
    spec("pipeline.build.busy_s", "s", Clock::Host),
    spec("pipeline.build.mean_ops", "ops", Clock::None),
    spec("opt.optimize.calls", "count", Clock::None),
    spec("opt.optimize.busy_s", "s", Clock::Host),
    spec("opt.optimize.ops_kept", "share", Clock::None),
    spec("exec.interp.calls", "count", Clock::None),
    spec("exec.interp.busy_s", "s", Clock::Host),
    spec("kernels.busy_s", "s", Clock::Host),
    spec("kernels.flops", "flop", Clock::None),
    spec("kernels.bytes", "B", Clock::None),
    spec("kernels.host_gflops", "GFLOP/s", Clock::Host),
    spec("gpusim.h2d_s", "s", Clock::Sim),
    spec("gpusim.kernel_s", "s", Clock::Sim),
    spec("gpusim.d2h_s", "s", Clock::Sim),
    spec("gpusim.overlap_ratio", "share", Clock::Sim),
    spec("gpusim.sim_gflops", "GFLOP/s", Clock::Sim),
    spec("core.mttkrp.calls", "count", Clock::None),
    spec("core.mttkrp.busy_s", "s", Clock::Host),
    spec("core.self_s", "s", Clock::Host),
    spec("linalg.self_s", "s", Clock::Host),
    spec("cpd.fit", "fit", Clock::None),
    spec("host.threads", "count", Clock::None),
    spec("trace.overhead_s", "s", Clock::Host),
    spec("trace.accounted_share", "share", Clock::Host),
];

/// The metric values of one run, in the order they were set.
#[derive(Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// Sets `name`, which must be declared and not yet set.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|s| s.name == name),
            "undeclared metric {name}"
        );
        assert!(self.values.insert(name, value).is_none(), "metric {name} set twice");
    }

    /// Checks that exactly the metrics of `table` are set, each to a finite
    /// value, and returns them in table order.
    pub fn finish(self, table: &'static [Spec]) -> Vec<(&'static Spec, f64)> {
        for name in self.values.keys() {
            assert!(table.iter().any(|s| s.name == *name), "metric {name} is not in this table");
        }
        table
            .iter()
            .map(|s| {
                let v =
                    *self.values.get(s.name).unwrap_or_else(|| panic!("metric {} unset", s.name));
                assert!(v.is_finite(), "metric {} is not finite: {v}", s.name);
                (s, v)
            })
            .collect()
    }
}

/// Accumulated calls and busy seconds per layer, filled by timing calls
/// into each layer's public functions.
#[derive(Default)]
pub struct Layers {
    stats: BTreeMap<&'static str, (u64, f64)>,
}

impl Layers {
    /// Runs `f` as one call of `layer` and adds its wall time.
    pub fn time<R>(&mut self, layer: &'static str, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = std::hint::black_box(f());
        self.add(layer, t0.elapsed().as_secs_f64());
        r
    }

    pub fn add(&mut self, layer: &'static str, secs: f64) {
        let e = self.stats.entry(layer).or_insert((0, 0.0));
        e.0 += 1;
        e.1 += secs;
    }

    pub fn calls(&self, layer: &str) -> u64 {
        self.stats.get(layer).map_or(0, |e| e.0)
    }

    pub fn busy_s(&self, layer: &str) -> f64 {
        self.stats.get(layer).map_or(0.0, |e| e.1)
    }

    /// Busy seconds summed over `layers`.
    pub fn sum_busy_s(&self, layers: &[&str]) -> f64 {
        layers.iter().map(|l| self.busy_s(l)).sum()
    }
}

/// Nearest-rank percentile, `p` in `[0, 1]`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let idx = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len()) - 1;
    v[idx]
}

/// Median (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}
