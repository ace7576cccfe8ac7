//! Admission control: bounded queue depth plus an estimated-makespan
//! budget, with typed rejections instead of panics or unbounded queues.
//!
//! Overload behaviour is the point: when the offered load exceeds the
//! device pool's capacity, the queue must not grow without bound and the
//! latency of *admitted* jobs must stay near the configured budget. Both
//! follow from rejecting at the door — a job is admitted only if (a) a
//! queue slot is free and (b) its estimated wait fits the budget.

use crate::job::JobId;
use scalfrag_gpusim::DeviceSpec;

/// Admission thresholds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AdmissionPolicy {
    /// Hard cap on total queued jobs (across all tenants).
    pub max_queue_depth: usize,
    /// Maximum tolerated *estimated* wait (s) for a newly admitted job:
    /// residual work in flight plus queued backlog, divided over the pool.
    pub makespan_budget_s: f64,
}

impl Default for AdmissionPolicy {
    fn default() -> Self {
        Self { max_queue_depth: 64, makespan_budget_s: 0.05 }
    }
}

impl AdmissionPolicy {
    /// Decides whether a job with estimated wait `wait_est_s` may join a
    /// queue currently `depth` deep. On rejection returns the typed reason
    /// plus a retry hint (s) — roughly when the gate should open again.
    pub fn admit(
        &self,
        depth: usize,
        wait_est_s: f64,
        mean_queued_est_s: f64,
    ) -> Result<(), (RejectReason, f64)> {
        if depth >= self.max_queue_depth {
            // One slot opens once one queued job drains somewhere in the
            // pool — about one mean service time away.
            let retry = mean_queued_est_s.max(1e-6);
            return Err((RejectReason::QueueFull { depth, limit: self.max_queue_depth }, retry));
        }
        if wait_est_s > self.makespan_budget_s {
            let retry = (wait_est_s - self.makespan_budget_s).max(1e-6);
            return Err((
                RejectReason::BacklogExceeded { wait_est_s, budget_s: self.makespan_budget_s },
                retry,
            ));
        }
        Ok(())
    }

    /// The policy this gate degrades to when only `healthy` of `total`
    /// devices accept work: the makespan budget shrinks proportionally, so
    /// a half-dead pool admits roughly half the backlog it would healthy.
    /// With every device up (or a trivial pool) the policy is unchanged.
    pub fn degraded(&self, healthy: usize, total: usize) -> Self {
        if healthy >= total || total == 0 {
            return *self;
        }
        Self {
            max_queue_depth: self.max_queue_depth,
            makespan_budget_s: self.makespan_budget_s * healthy as f64 / total as f64,
        }
    }
}

/// Why a job was turned away.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum RejectReason {
    /// Every queue slot is taken.
    QueueFull {
        /// Queue depth at rejection time.
        depth: usize,
        /// The configured cap.
        limit: usize,
    },
    /// The estimated wait exceeds the makespan budget.
    BacklogExceeded {
        /// Estimated wait (s) had the job been admitted.
        wait_est_s: f64,
        /// The configured budget (s).
        budget_s: f64,
    },
    /// The job's device failed mid-service (or the whole pool is down) and
    /// its retry budget is exhausted.
    DeviceFailure {
        /// Pool index of the failed device.
        device: usize,
    },
    /// The tenant's token bucket ran dry: it submitted faster than its
    /// configured sustained rate for longer than its burst allowance.
    RateLimited {
        /// The configured sustained rate (jobs/s).
        rate_jobs_per_s: f64,
    },
    /// The job's arrival time is NaN, infinite or negative, so it has no
    /// place on the simulated clock.
    InvalidArrival {
        /// The arrival time as submitted.
        arrival_s: f64,
    },
}

/// A typed rejection: the serving layer's answer under overload — never a
/// panic, never silent loss.
#[derive(Clone, Debug, PartialEq)]
pub struct Rejected {
    /// The rejected job.
    pub job_id: JobId,
    /// Its tenant.
    pub tenant: String,
    /// Why it was rejected.
    pub reason: RejectReason,
    /// Suggested back-off before resubmitting (s). It is 0 for
    /// [`RejectReason::InvalidArrival`]: no back-off helps until the
    /// job's arrival time is corrected.
    pub retry_after_s: f64,
    /// When the rejection happened on the simulated clock (s). An
    /// [`RejectReason::InvalidArrival`] rejection happens before the
    /// clock starts, at 0; the reason keeps the submitted time.
    pub arrival_s: f64,
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RejectReason::QueueFull { depth, limit } => {
                write!(f, "queue full ({depth}/{limit})")
            }
            RejectReason::BacklogExceeded { wait_est_s, budget_s } => {
                write!(f, "backlog exceeded (est wait {wait_est_s:.4}s > budget {budget_s:.4}s)")
            }
            RejectReason::DeviceFailure { device } => {
                write!(f, "device {device} failed and retries are exhausted")
            }
            RejectReason::RateLimited { rate_jobs_per_s } => {
                write!(f, "tenant rate limit exceeded ({rate_jobs_per_s:.1} jobs/s)")
            }
            RejectReason::InvalidArrival { arrival_s } => {
                write!(f, "invalid arrival time {arrival_s}")
            }
        }
    }
}

impl std::fmt::Display for Rejected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "job {} (tenant {}) rejected: {}; retry after {:.4}s",
            self.job_id, self.tenant, self.reason, self.retry_after_s
        )
    }
}

impl std::error::Error for Rejected {}

/// Admission-time service estimate (s) for moving `bytes` through one pool
/// device and contracting them at CPD rank `rank`.
///
/// Serial-path model, mirroring the cluster scheduler's speed proxy: the
/// pipeline is transfer-bound on the host link and bandwidth-bound in the
/// kernel, with γ ≈ 1.5 × rank bytes of device-memory traffic per
/// transferred byte, plus fixed per-launch latencies.
pub fn estimate_service_s(bytes: usize, rank: u32, device: &DeviceSpec) -> f64 {
    let gamma = 1.5 * rank as f64;
    let eff_gbs = 1.0 / (1.0 / device.pcie_h2d_gbs + gamma / device.mem_bandwidth_gbs);
    bytes as f64 / (eff_gbs * 1e9) + (device.pcie_latency_us + device.kernel_launch_us) * 1e-6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admits_under_both_limits() {
        let p = AdmissionPolicy { max_queue_depth: 4, makespan_budget_s: 1.0 };
        assert!(p.admit(3, 0.5, 0.1).is_ok());
    }

    #[test]
    fn rejects_on_depth_with_retry_hint() {
        let p = AdmissionPolicy { max_queue_depth: 4, makespan_budget_s: 1.0 };
        let (reason, retry) = p.admit(4, 0.5, 0.2).unwrap_err();
        assert_eq!(reason, RejectReason::QueueFull { depth: 4, limit: 4 });
        assert!(retry > 0.0);
    }

    #[test]
    fn rejects_on_backlog_with_drain_time_hint() {
        let p = AdmissionPolicy { max_queue_depth: 64, makespan_budget_s: 1.0 };
        let (reason, retry) = p.admit(2, 2.5, 0.2).unwrap_err();
        match reason {
            RejectReason::BacklogExceeded { wait_est_s, budget_s } => {
                assert_eq!((wait_est_s, budget_s), (2.5, 1.0));
            }
            other => panic!("wrong reason: {other:?}"),
        }
        assert!((retry - 1.5).abs() < 1e-12, "retry hint is the excess backlog");
    }

    #[test]
    fn degraded_policy_scales_the_budget_with_surviving_devices() {
        let p = AdmissionPolicy { max_queue_depth: 8, makespan_budget_s: 1.0 };
        assert_eq!(p.degraded(4, 4), p, "full health leaves the policy alone");
        let half = p.degraded(2, 4);
        assert_eq!(half.max_queue_depth, 8);
        assert!((half.makespan_budget_s - 0.5).abs() < 1e-12);
        let dead = p.degraded(0, 4);
        assert_eq!(dead.makespan_budget_s, 0.0, "an all-down pool admits no backlog");
    }

    #[test]
    fn rate_limited_rejection_formats() {
        let r = RejectReason::RateLimited { rate_jobs_per_s: 50.0 };
        let msg = format!("{r}");
        assert!(msg.contains("rate limit") && msg.contains("50.0"), "unhelpful message: {msg}");
    }

    #[test]
    fn rejection_formats_and_is_an_error() {
        let r = Rejected {
            job_id: 9,
            tenant: "acme".into(),
            reason: RejectReason::QueueFull { depth: 8, limit: 8 },
            retry_after_s: 0.25,
            arrival_s: 1.0,
        };
        let msg = format!("{r}");
        assert!(msg.contains("job 9") && msg.contains("queue full"));
        let _: &dyn std::error::Error = &r;
    }

    #[test]
    fn service_estimate_scales_with_bytes_and_rank() {
        let d = DeviceSpec::rtx3090();
        let small = estimate_service_s(1 << 16, 8, &d);
        let big = estimate_service_s(1 << 22, 8, &d);
        let big_rank = estimate_service_s(1 << 22, 64, &d);
        assert!(small > 0.0);
        assert!(big > small);
        assert!(big_rank > big, "higher rank means more kernel traffic");
    }
}
