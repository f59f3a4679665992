//! Recovery policies: what a system does after each fault class.
//!
//! Every system under test must define how it reacts to faults so
//! failure experiments compare recovery *strategies*, not accidents of
//! wiring. The engine consults one [`RecoveryPolicy`] per run.

use simcore::SimDuration;

use crate::schedule::{CorrelatedFaultConfig, FaultConfig};

/// The Young/Daly first-order optimal checkpoint interval,
/// `sqrt(2 · MTBF · write_cost)`, in seconds. Minimises the overhead
/// model `overhead(T) = write/T + T/(2·MTBF)` — the checkpoint-write
/// amortisation plus the expected half-period of work lost per failure.
pub fn young_daly_period(mtbf_secs: f64, write_secs: f64) -> f64 {
    (2.0 * mtbf_secs * write_secs).sqrt()
}

/// How the checkpoint period for a training task is chosen.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum CheckpointPeriod {
    /// One fixed period for every task, in accrued running time.
    Fixed(SimDuration),
    /// Per-task Young/Daly optimum: `sqrt(2 · MTBF · write_cost)`,
    /// where the write cost comes from the task's working-set size and
    /// the policy's checkpoint bandwidth. Tasks with a zero write cost
    /// (fault-free runs) fall back to [`CheckpointPeriod::DEFAULT_SECS`].
    YoungDaly,
}

impl CheckpointPeriod {
    /// The fixed fallback period (10 minutes) used when Young/Daly is
    /// undefined — zero write cost or an unknown MTBF.
    pub const DEFAULT_SECS: f64 = 600.0;

    /// Resolves the concrete period for a task given the device MTBF
    /// and the task's checkpoint write cost, both in seconds.
    pub fn resolve(&self, mtbf_secs: f64, write_secs: f64) -> SimDuration {
        match *self {
            CheckpointPeriod::Fixed(period) => period,
            CheckpointPeriod::YoungDaly => {
                if write_secs > 0.0 && mtbf_secs.is_finite() && mtbf_secs > 0.0 {
                    SimDuration::from_secs(young_daly_period(mtbf_secs, write_secs))
                } else {
                    SimDuration::from_secs(Self::DEFAULT_SECS)
                }
            }
        }
    }
}

/// Warm-standby shadow-instance pool configuration.
///
/// A standby is a pre-provisioned inference instance parked on a
/// healthy device with a reserved GPU% slice (and, optionally,
/// pre-loaded weights). When a replica of its service fails, the
/// standby promotes to serving within a bounded hand-off latency
/// instead of re-routing traffic onto already-loaded survivors or
/// paying the cold `deploy_inference` path. The reserved slice is
/// charged to the device the whole time — the pool's cost — and is
/// booked as `standby_reserved_gpu_secs` in the fault metrics.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StandbyPolicy {
    /// Shadow instances kept warm per service; `0` disables the pool
    /// (bit-identical to the plain failover path).
    pub pool_per_service: usize,
    /// GPU% slice each idle standby reserves on its host device.
    pub reserve_fraction: f64,
    /// Whether standby weights are resident in GPU memory. Pre-loaded
    /// standbys promote at the shadow hand-off latency (sub-second);
    /// cold standbys pay an MPS-restart-class delay and hold no memory
    /// while idle.
    pub preloaded_weights: bool,
}

impl StandbyPolicy {
    /// No standby pool: the engine's behaviour is byte-identical to
    /// the pre-standby failover path.
    pub fn disabled() -> Self {
        StandbyPolicy {
            pool_per_service: 0,
            reserve_fraction: 0.0,
            preloaded_weights: true,
        }
    }

    /// A warm pool of `pool` pre-loaded standbys per service, each
    /// reserving a 10% GPU slice on its host.
    pub fn warm(pool: usize) -> Self {
        StandbyPolicy {
            pool_per_service: pool,
            reserve_fraction: 0.10,
            preloaded_weights: true,
        }
    }

    /// Whether the pool does anything at all.
    pub fn is_enabled(&self) -> bool {
        self.pool_per_service > 0 && self.reserve_fraction > 0.0
    }
}

impl Default for StandbyPolicy {
    fn default() -> Self {
        Self::disabled()
    }
}

/// Knobs controlling recovery behaviour after injected faults.
#[derive(Clone, Copy, Debug)]
pub struct RecoveryPolicy {
    /// Period between training checkpoints, in accrued running time.
    pub checkpoint_period: CheckpointPeriod,
    /// Re-place inference replicas evicted by a device failure onto
    /// surviving devices (re-running the system's placement logic).
    /// When `false`, the failed replica's traffic is dropped — and
    /// counted as SLO violations — until the device returns.
    pub failover_inference: bool,
    /// Requeue training jobs evicted by a device failure so the
    /// scheduler can restart them elsewhere. When `false`, evicted jobs
    /// wait for their original device to be repaired.
    pub requeue_training: bool,
    /// Cold-restart time for a crashed training process (MPS teardown,
    /// relaunch, checkpoint reload).
    pub process_restart: SimDuration,
    /// Anti-thrashing dwell: minimum spacing between fault-triggered
    /// retunes of the same device (see `mudi::RetuneGuard`).
    pub retune_dwell: SimDuration,
    /// While a device is in post-failure degraded mode, cap best-effort
    /// training at this fraction of its normal GPU% share (the SLO
    /// circuit-breaker; `1.0` disables shedding).
    pub degraded_training_share: f64,
    /// How long a freshly repaired device stays in degraded mode
    /// (burn-in: reduced clocks while the driver re-validates memory).
    pub degraded_hold: SimDuration,
    /// Effective bandwidth for writing a training checkpoint (PCIe to
    /// host then NVMe, end to end), in GB/s. Each checkpoint stalls the
    /// job for `working_set_gb / checkpoint_write_gbps` seconds of
    /// accrued running time, so checkpoints are no longer free — the
    /// first step toward a Young/Daly-optimal period.
    pub checkpoint_write_gbps: f64,
    /// Warm-standby shadow-instance pool; disabled by default.
    pub standby: StandbyPolicy,
}

impl RecoveryPolicy {
    /// The full recovery stack: checkpointing, inference failover,
    /// training requeue, and guardrails. What Mudi and the adaptive
    /// baselines run with.
    pub fn standard() -> Self {
        RecoveryPolicy {
            checkpoint_period: CheckpointPeriod::Fixed(SimDuration::from_mins(10.0)),
            failover_inference: true,
            requeue_training: true,
            process_restart: SimDuration::from_secs(20.0),
            retune_dwell: SimDuration::from_secs(10.0),
            degraded_training_share: 0.5,
            degraded_hold: SimDuration::from_mins(5.0),
            checkpoint_write_gbps: 4.0,
            standby: StandbyPolicy::disabled(),
        }
    }

    /// Standard recovery with a custom fixed checkpoint period.
    pub fn with_checkpoint_period(period: SimDuration) -> Self {
        RecoveryPolicy {
            checkpoint_period: CheckpointPeriod::Fixed(period),
            ..Self::standard()
        }
    }
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        Self::standard()
    }
}

/// A complete failure experiment: what faults to inject and how the
/// system recovers from them. Attached to a cluster run's config.
#[derive(Clone, Copy, Debug)]
pub struct FaultProfile {
    /// Fault rates and magnitudes.
    pub faults: FaultConfig,
    /// Correlated node/rack outage rates; `None` keeps faults strictly
    /// device-local (the pre-topology behaviour).
    pub correlated: Option<CorrelatedFaultConfig>,
    /// Recovery strategy.
    pub recovery: RecoveryPolicy,
}

impl FaultProfile {
    /// Standard recovery under the baseline fault mix scaled by `rate`,
    /// device-local faults only.
    pub fn scaled(rate: f64) -> Self {
        FaultProfile {
            faults: FaultConfig::scaled(rate),
            correlated: None,
            recovery: RecoveryPolicy::standard(),
        }
    }

    /// Adds correlated node/rack outage classes to this profile.
    pub fn with_correlated(self, correlated: CorrelatedFaultConfig) -> Self {
        FaultProfile {
            correlated: Some(correlated),
            ..self
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_enables_the_full_stack() {
        let p = RecoveryPolicy::standard();
        assert!(p.failover_inference);
        assert!(p.requeue_training);
        assert!(p.checkpoint_period.resolve(f64::INFINITY, 0.0).as_secs() > 0.0);
        assert!(p.degraded_training_share < 1.0);
        assert!(!p.standby.is_enabled(), "standby must default off");
    }

    #[test]
    fn standby_policy_enablement() {
        assert!(!StandbyPolicy::disabled().is_enabled());
        assert!(StandbyPolicy::warm(1).is_enabled());
        assert!(!StandbyPolicy::warm(0).is_enabled());
        let p = StandbyPolicy::warm(2);
        assert_eq!(p.pool_per_service, 2);
        assert!(p.preloaded_weights);
        assert!(p.reserve_fraction > 0.0);
    }

    /// The closed-form Young/Daly period lands on the argmin of the
    /// overhead model `overhead(T) = w/T + T/(2·MTBF)` — checked
    /// against a brute-force sweep over a fine grid of periods.
    #[test]
    fn young_daly_matches_brute_force_optimum() {
        for (mtbf, write) in [
            (720.0 * 3600.0, 30.0),
            (72.0 * 3600.0, 120.0),
            (2.0 * 3600.0, 5.0),
            (24.0 * 3600.0, 600.0),
        ] {
            let overhead = |t: f64| write / t + t / (2.0 * mtbf);
            let closed = young_daly_period(mtbf, write);
            // Sweep a dense log grid spanning well past the optimum.
            let mut best_t = f64::NAN;
            let mut best = f64::INFINITY;
            let steps = 20_000;
            let (lo, hi) = (1.0f64, 100.0 * closed.max(1.0));
            for i in 0..=steps {
                let t = lo * (hi / lo).powf(i as f64 / steps as f64);
                let o = overhead(t);
                if o < best {
                    best = o;
                    best_t = t;
                }
            }
            assert!(
                (closed - best_t).abs() / best_t < 2e-3,
                "mtbf={mtbf} write={write}: closed {closed} vs swept {best_t}"
            );
            assert!(overhead(closed) <= best * (1.0 + 1e-6));
        }
    }

    #[test]
    fn young_daly_resolution_and_fallback() {
        let yd = CheckpointPeriod::YoungDaly;
        let mtbf = 720.0 * 3600.0;
        let resolved = yd.resolve(mtbf, 30.0);
        assert!((resolved.as_secs() - (2.0 * mtbf * 30.0).sqrt()).abs() < 1e-9);
        // No write cost (fault-free run) or unknown MTBF: fixed default.
        assert_eq!(
            yd.resolve(mtbf, 0.0).as_secs(),
            CheckpointPeriod::DEFAULT_SECS
        );
        assert_eq!(
            yd.resolve(f64::INFINITY, 30.0).as_secs(),
            CheckpointPeriod::DEFAULT_SECS
        );
        // Fixed periods resolve to themselves regardless of inputs.
        let fixed = CheckpointPeriod::Fixed(SimDuration::from_secs(42.0));
        assert_eq!(fixed.resolve(mtbf, 30.0).as_secs(), 42.0);
    }
}
