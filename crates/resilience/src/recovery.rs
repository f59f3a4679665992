//! Recovery policies: what a system does after each fault class.
//!
//! Every system under test must define how it reacts to faults so
//! failure experiments compare recovery *strategies*, not accidents of
//! wiring. The engine consults one [`RecoveryPolicy`] per run.

use crate::schedule::{CorrelatedFaultConfig, FaultConfig};

/// Period between training checkpoints, in seconds of accrued running
/// time (10 minutes).
pub const CHECKPOINT_PERIOD_SECS: f64 = 600.0;

/// Cold-restart time for a crashed training process (MPS teardown,
/// relaunch, checkpoint reload), in seconds.
pub const PROCESS_RESTART_SECS: f64 = 20.0;

/// Anti-thrashing dwell: minimum spacing between fault-triggered
/// retunes of the same device (see `mudi::RetuneGuard`), in seconds.
pub const RETUNE_DWELL_SECS: f64 = 10.0;

/// While a device is in post-failure degraded mode, best-effort
/// training is capped at this fraction of its normal GPU% share (the
/// SLO circuit-breaker, `mudi::CircuitBreaker`).
pub const DEGRADED_TRAINING_SHARE: f64 = 0.5;

/// How long a freshly repaired device stays in degraded mode (burn-in:
/// reduced clocks while the driver re-validates memory), in seconds.
pub const DEGRADED_HOLD_SECS: f64 = 300.0;

/// Effective bandwidth for writing a training checkpoint (PCIe to host
/// then NVMe, end to end), in GB/s. Under fault injection each
/// checkpoint stalls the job for `working_set_gb / CHECKPOINT_WRITE_GBPS`
/// seconds of accrued running time.
pub const CHECKPOINT_WRITE_GBPS: f64 = 4.0;

/// GPU% slice each idle warm standby reserves on its host device; the
/// reserved slice doubles as its serving allocation once promoted.
pub const STANDBY_RESERVE_FRACTION: f64 = 0.10;

/// Warm-standby shadow-instance pool configuration.
///
/// A standby is a pre-provisioned inference instance parked on a
/// healthy device with a reserved GPU% slice
/// ([`STANDBY_RESERVE_FRACTION`]) and its weights resident in GPU
/// memory. When a replica of its service fails, the standby promotes
/// to serving within a bounded hand-off latency instead of re-routing
/// traffic onto already-loaded survivors or paying the cold
/// `deploy_inference` path. The reserved slice is charged to the
/// device the whole time — the pool's cost — and is booked as
/// `standby_reserved_gpu_secs` in the fault metrics.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StandbyPolicy {
    /// Shadow instances kept warm per service; `0` disables the pool
    /// (bit-identical to the plain failover path).
    pub pool_per_service: usize,
}

impl StandbyPolicy {
    /// No standby pool: the engine's behaviour is byte-identical to
    /// the pre-standby failover path.
    pub fn disabled() -> Self {
        Self::warm(0)
    }

    /// A warm pool of `pool` standbys per service.
    pub fn warm(pool: usize) -> Self {
        StandbyPolicy {
            pool_per_service: pool,
        }
    }

    /// Whether the pool does anything at all.
    pub fn is_enabled(&self) -> bool {
        self.pool_per_service > 0
    }
}

impl Default for StandbyPolicy {
    fn default() -> Self {
        Self::disabled()
    }
}

/// Recovery behaviour after injected faults.
///
/// Every run checkpoints training, fails inference over to surviving
/// same-service replicas, requeues evicted training through the
/// system's placement logic, and applies the guardrails, with the
/// fixed values above. The one strategy that varies is the warm-standby
/// pool.
#[derive(Clone, Copy, Debug, Default)]
pub struct RecoveryPolicy {
    /// Warm-standby shadow-instance pool; disabled by default.
    pub standby: StandbyPolicy,
}

impl RecoveryPolicy {
    /// The full recovery stack with the standby pool off. What Mudi and
    /// the adaptive baselines run with.
    pub fn standard() -> Self {
        RecoveryPolicy {
            standby: StandbyPolicy::disabled(),
        }
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
    fn standard_keeps_the_standby_pool_off() {
        assert!(!RecoveryPolicy::standard().standby.is_enabled());
        assert!(!RecoveryPolicy::default().standby.is_enabled());
    }

    #[test]
    fn standby_policy_enablement() {
        assert!(!StandbyPolicy::disabled().is_enabled());
        assert!(StandbyPolicy::warm(1).is_enabled());
        assert!(!StandbyPolicy::warm(0).is_enabled());
        assert_eq!(StandbyPolicy::warm(2).pool_per_service, 2);
    }
}
