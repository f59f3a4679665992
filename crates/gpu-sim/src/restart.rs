//! MPS reconfiguration costs (§5.3.2).
//!
//! Changing a process's GPU% under MPS requires terminating and
//! restarting it with a new `CUDA_MPS_ACTIVE_THREAD_PERCENTAGE`, a
//! tens-of-seconds outage. Mudi hides this by warming a *shadow
//! instance* with the new configuration and switching over once it is
//! ready; the visible disruption is then a brief hand-off. Batching-size
//! changes, by contrast, are free: the new size is passed as a parameter
//! without restarting the service (§5.3.1).

use simcore::SimDuration;

/// Cold MPS restart time: terminate + relaunch + model reload.
pub const MPS_RESTART_SECS: f64 = 20.0;

/// Hand-off time when a pre-warmed shadow instance takes over.
pub const SHADOW_SWITCH_SECS: f64 = 0.5;

/// How GPU% reconfigurations are applied.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReconfigPolicy {
    /// Naive restart: the service is down for the full restart.
    Restart,
    /// Mudi's shadow instance: the old instance keeps serving while the
    /// replacement warms up; only the hand-off is visible.
    ShadowInstance,
}

impl ReconfigPolicy {
    /// Service downtime visible to requests during a GPU% change.
    pub fn visible_downtime(self) -> SimDuration {
        match self {
            ReconfigPolicy::Restart => SimDuration::from_secs(MPS_RESTART_SECS),
            ReconfigPolicy::ShadowInstance => SimDuration::from_secs(SHADOW_SWITCH_SECS),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shadow_hides_most_of_the_restart() {
        let shadow = ReconfigPolicy::ShadowInstance.visible_downtime();
        let cold = ReconfigPolicy::Restart.visible_downtime();
        assert!(shadow.as_secs() < cold.as_secs() / 10.0);
    }
}
