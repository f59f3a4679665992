//! Session admin operations: deploying replicas, scaling services,
//! and injecting live faults. Every operation executes at the session
//! clock and routes through the same kernel stages a scheduled event
//! would (accrual, retune, fault delivery), so scripted admin
//! sequences replay bit-identically.

use std::cmp::Reverse;

use gpu_sim::InferenceInstance;
use mudi::TuneTrigger;
use resilience::{FaultEvent, FaultKind};
use simcore::SimDuration;
use workloads::ServiceId;

use super::super::control::Control;
use super::super::faults::Faults;
use super::{ClusterSession, SessionError};

/// A fault injected live through the admin API, mirroring the
/// resilience crate's fault classes with operator-chosen parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum LiveFault {
    /// Hard device failure, repaired after `repair_secs`.
    DeviceFailure {
        /// Outage length, seconds.
        repair_secs: f64,
    },
    /// Transient compute slowdown.
    Slowdown {
        /// Effective-compute factor in `(0, 1]`.
        factor: f64,
        /// Window length, seconds.
        duration_secs: f64,
    },
    /// One training-process crash (the `salt` picks the victim).
    ProcessCrash {
        /// Victim selector (`salt % residents`).
        salt: u64,
    },
    /// MPS daemon restart: every resident takes a cold restart.
    MpsRestart,
}

impl LiveFault {
    /// Rejects a non-finite parameter (JSON `1e999` parses to `inf`).
    /// An infinite `repair_secs` or `duration_secs` would trip the
    /// `SimDuration` assert mid-fault and poison the session. `factor`
    /// cannot panic that way (`kind` clamps it), so rejecting it is API
    /// policy: a non-finite factor is a malformed request, not a full or
    /// minimal slowdown.
    fn check(self) -> Result<(), SessionError> {
        let bad = match self {
            LiveFault::DeviceFailure { repair_secs } if !repair_secs.is_finite() => "repair_secs",
            LiveFault::Slowdown { factor, .. } if !factor.is_finite() => "factor",
            LiveFault::Slowdown { duration_secs, .. } if !duration_secs.is_finite() => {
                "duration_secs"
            }
            _ => return Ok(()),
        };
        Err(SessionError::InvalidFault(bad))
    }

    fn kind(self) -> FaultKind {
        match self {
            LiveFault::DeviceFailure { repair_secs } => FaultKind::DeviceFailure {
                repair: SimDuration::from_secs(repair_secs.max(1.0)),
            },
            LiveFault::Slowdown {
                factor,
                duration_secs,
            } => FaultKind::Slowdown {
                factor: factor.clamp(0.05, 1.0),
                duration: SimDuration::from_secs(duration_secs.max(1.0)),
            },
            LiveFault::ProcessCrash { salt } => FaultKind::ProcessCrash { salt },
            LiveFault::MpsRestart => FaultKind::MpsRestartFailure,
        }
    }
}

/// The report of one scale operation: which devices switched service.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ScaleOutcome {
    /// Live replicas after the operation.
    pub achieved: usize,
    /// `(device, from, to)` for every repurposed device, in order.
    pub moves: Vec<(usize, ServiceId, ServiceId)>,
}

impl ClusterSession {
    /// Repurposes `device` to serve `service`: the old replica is
    /// replaced by a fresh one at the current demand level and the
    /// system immediately retunes the device. The device must be up
    /// and not mid-failover. Deploying the service a device already
    /// hosts is a no-op.
    pub fn deploy_replica(
        &mut self,
        device: usize,
        service: ServiceId,
    ) -> Result<(), SessionError> {
        self.check_service(service)?;
        if device >= self.st.devices.len() {
            return Err(SessionError::UnknownDevice(device));
        }
        if !self.st.devices[device].is_up() {
            return Err(SessionError::DeviceDown(device));
        }
        if !self.eligible(device) {
            return Err(SessionError::DeviceBusy(device));
        }
        if self.st.dstate[device].service == service {
            return Ok(());
        }
        self.routes.clear();
        let now = self.now;
        Control.accrue(&mut self.st, now, device);
        let qps = self.st.demand(device, service, now);
        let (dev, gt) = self.st.device_mut(device);
        dev.deploy_inference(gt, now, InferenceInstance::new(service, 16, 0.6, qps));
        self.st.repin(device, service);
        self.st.dstate[device]
            .monitor
            .redeploy(self.st.shared.gt.zoo().service(service).slo);
        self.st.dstate[device].last_p99 = None;
        // This deploy restores the service if it was in total outage.
        self.st.close_outage(service, now);
        Control.refresh_memory_pause(&mut self.st, now, device);
        Control.reconfigure(&mut self.st, now, device, TuneTrigger::Operator);
        Ok(())
    }

    /// Scales `service` to `target` live replicas by repurposing
    /// devices: scale-up takes devices from the most-replicated other
    /// services, scale-down returns this service's highest-index
    /// devices to the least-replicated ones. Both directions skip
    /// down or mid-failover devices; the outcome reports what was
    /// actually achieved (a partial move is not an error).
    pub fn scale_service(
        &mut self,
        service: ServiceId,
        target: usize,
    ) -> Result<ScaleOutcome, SessionError> {
        self.check_service(service)?;
        let mut outcome = ScaleOutcome::default();
        loop {
            let up = self.up_replicas(service);
            if up < target {
                // Donor: an eligible device of the service with the
                // most live replicas (tie: lowest service id), lowest
                // device index first.
                let counts = self.up_replica_counts();
                let mut order: Vec<ServiceId> = (0..counts.len()).map(ServiceId).collect();
                order.sort_by_key(|s| (Reverse(counts[s.0]), s.0));
                let donor = order.into_iter().find_map(|svc| {
                    self.st
                        .primaries(svc)
                        .find(|&d| self.eligible_for_switch(d, service, &counts))
                });
                let Some(d) = donor else {
                    break; // Nothing left to repurpose.
                };
                let from = self.st.dstate[d].service;
                self.deploy_replica(d, service)?;
                outcome.moves.push((d, from, service));
            } else if up > target {
                // Victim: this service's highest-index eligible device,
                // moved to the least-replicated other service.
                let victim = self.st.primaries(service).rev().find(|&d| self.eligible(d));
                let Some(d) = victim else {
                    break;
                };
                let counts = self.up_replica_counts();
                let to = (0..counts.len())
                    .map(ServiceId)
                    .filter(|&s| s != service)
                    .min_by_key(|&s| (counts[s.0], s.0))
                    .expect("zoo has more than one service");
                self.deploy_replica(d, to)?;
                outcome.moves.push((d, service, to));
            } else {
                break;
            }
        }
        outcome.achieved = self.up_replicas(service);
        Ok(outcome)
    }

    /// Injects a fault on `device` at the current session time,
    /// delivered through the same faults stage as scheduled faults
    /// (blast bookkeeping, failover, standby promotion all apply).
    /// A non-finite parameter is rejected before anything changes.
    pub fn inject_fault(&mut self, device: usize, fault: LiveFault) -> Result<(), SessionError> {
        if device >= self.st.devices.len() {
            return Err(SessionError::UnknownDevice(device));
        }
        fault.check()?;
        self.routes.clear();
        let now = self.now;
        let idx = self
            .st
            .fault_schedule
            .push(FaultEvent::device_local(now, device, fault.kind()));
        Faults.on_fault(&mut self.st, now, idx);
        Ok(())
    }
}
