//! A simulated GPU device.
//!
//! A device hosts at most one inference instance and up to
//! [`MAX_TRAININGS_PER_GPU`] training processes (§5.5), tracks their
//! GPU fractions, feeds the unified-memory manager, and integrates SM
//! and memory utilization over time (Fig. 10).

use std::cell::Cell;

use simcore::{SimDuration, SimTime, UtilizationIntegrator};
use workloads::{ColoWorkload, GroundTruth, ServiceId, TaskId};

use crate::memory::MemoryManager;
use crate::process::{InferenceInstance, ResidentId, StandbyInstance, TrainingProcess};

/// Mudi multiplexes one inference service with at most three training
/// tasks per GPU (§5.5).
pub const MAX_TRAININGS_PER_GPU: usize = 3;

/// A co-location set never exceeds the training cap plus one active
/// standby, so the latency-profile memo key can hold it inline.
const COLO_KEY_MAX: usize = MAX_TRAININGS_PER_GPU + 1;

/// Capacity of the stack buffer [`GpuDevice::colo_for_training_buf`]
/// returns: the inference replica, every co-resident training, and an
/// active standby.
pub const COLO_VIEW_MAX: usize = MAX_TRAININGS_PER_GPU + 2;

/// Exact-input key of one memoized latency-profile evaluation.
#[derive(Clone, Copy, Debug, PartialEq)]
struct InfProfileKey {
    service: ServiceId,
    batch: u32,
    frac_bits: u64,
    colo_len: usize,
    colo: [Option<ColoWorkload>; COLO_KEY_MAX],
}

impl InfProfileKey {
    /// Builds the key, or `None` for oversized co-location sets (never
    /// produced by this device model, but a memo must not guess).
    fn new(service: ServiceId, batch: u32, frac: f64, colo: &[ColoWorkload]) -> Option<Self> {
        if colo.len() > COLO_KEY_MAX {
            return None;
        }
        let mut inline = [None; COLO_KEY_MAX];
        for (slot, &w) in inline.iter_mut().zip(colo) {
            *slot = Some(w);
        }
        Some(InfProfileKey {
            service,
            batch,
            frac_bits: frac.to_bits(),
            colo_len: colo.len(),
            colo: inline,
        })
    }

    /// Whether this stored key matches the given inputs, compared in
    /// place — the hit path avoids materializing a fresh key (and its
    /// inline colo array) on every lookup.
    fn matches(&self, service: ServiceId, batch: u32, frac: f64, colo: &[ColoWorkload]) -> bool {
        self.service == service
            && self.batch == batch
            && self.frac_bits == frac.to_bits()
            && self.colo_len == colo.len()
            && colo
                .iter()
                .zip(&self.colo)
                .all(|(w, slot)| *slot == Some(*w))
    }
}

/// One memoized `(mean, sigma, p99)` latency profile.
#[derive(Clone, Copy, Debug)]
struct InfProfile {
    key: InfProfileKey,
    mean: f64,
    sigma: f64,
    p99: f64,
}

/// Memoized latency profile for exact inputs. [`GroundTruth`] is pure,
/// so equal inputs give bit-equal outputs and the memo is
/// behavior-invisible; one entry per consumer suffices because
/// steady-state stepping re-queries an unchanged configuration on every
/// QPS segment between retunes.
fn profile_cached(
    cache: &Cell<Option<InfProfile>>,
    gt: &GroundTruth,
    service: ServiceId,
    batch: u32,
    frac: f64,
    colo: &[ColoWorkload],
) -> (f64, f64, f64) {
    if let Some(e) = cache.get() {
        if e.key.matches(service, batch, frac, colo) {
            return (e.mean, e.sigma, e.p99);
        }
    }
    let mean = gt.inference_latency(service, batch, frac, colo);
    let sigma = gt.effective_sigma(service, batch, frac, colo);
    let p99 = mean * (2.326 * sigma).exp();
    if let Some(key) = InfProfileKey::new(service, batch, frac, colo) {
        cache.set(Some(InfProfile {
            key,
            mean,
            sigma,
            p99,
        }));
    }
    (mean, sigma, p99)
}

/// Index of a device within the cluster.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DeviceId(pub usize);

/// Operational state of a device.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum DeviceHealth {
    /// Fully operational.
    Healthy,
    /// Operational but delivering only `perf_factor` of its effective
    /// compute (ECC scrubbing, thermal throttling, post-repair burn-in).
    Degraded {
        /// Retained fraction of effective GPU%, in `(0, 1]`.
        perf_factor: f64,
    },
    /// Failed: nothing runs until repaired.
    Down,
}

/// A simulated GPU.
#[derive(Clone, Debug)]
pub struct GpuDevice {
    id: DeviceId,
    memory: MemoryManager,
    inference: Option<InferenceInstance>,
    standby: Option<StandbyInstance>,
    trainings: Vec<TrainingProcess>,
    health: DeviceHealth,
    sm_util: UtilizationIntegrator,
    mem_util: UtilizationIntegrator,
    /// Latency-profile memo for the primary inference instance.
    inf_profile: Cell<Option<InfProfile>>,
    /// Latency-profile memo for an active standby.
    standby_profile: Cell<Option<InfProfile>>,
}

impl GpuDevice {
    /// Creates an empty device.
    pub fn new(id: DeviceId, capacity_gb: f64) -> Self {
        let mut sm_util = UtilizationIntegrator::new();
        sm_util.set(SimTime::ZERO, 0.0);
        let mut mem_util = UtilizationIntegrator::new();
        mem_util.set(SimTime::ZERO, 0.0);
        GpuDevice {
            id,
            memory: MemoryManager::new(capacity_gb),
            inference: None,
            standby: None,
            trainings: Vec::new(),
            health: DeviceHealth::Healthy,
            sm_util,
            mem_util,
            inf_profile: Cell::new(None),
            standby_profile: Cell::new(None),
        }
    }

    /// Memoized `(mean latency, effective sigma, P99)` of an inference
    /// profile evaluated against `gt` — bit-identical to calling
    /// [`GroundTruth::inference_latency`] / `effective_sigma` /
    /// `mean·exp(2.326σ)` directly, but cached across the steady-state
    /// stepping loop.
    pub fn latency_profile(
        &self,
        gt: &GroundTruth,
        service: ServiceId,
        batch: u32,
        frac: f64,
        colo: &[ColoWorkload],
    ) -> (f64, f64, f64) {
        profile_cached(&self.inf_profile, gt, service, batch, frac, colo)
    }

    /// [`GpuDevice::latency_profile`] through the standby's own memo
    /// slot (so primary and standby lookups never evict each other).
    pub fn standby_latency_profile(
        &self,
        gt: &GroundTruth,
        service: ServiceId,
        batch: u32,
        frac: f64,
        colo: &[ColoWorkload],
    ) -> (f64, f64, f64) {
        profile_cached(&self.standby_profile, gt, service, batch, frac, colo)
    }

    /// Device id.
    pub fn id(&self) -> DeviceId {
        self.id
    }

    /// Current operational state.
    pub fn health(&self) -> DeviceHealth {
        self.health
    }

    /// Whether the device can run work (healthy or degraded).
    pub fn is_up(&self) -> bool {
        self.health != DeviceHealth::Down
    }

    /// Effective-compute multiplier from the current health: `1.0`
    /// healthy, the degradation factor while degraded, `0.0` down.
    pub fn perf_factor(&self) -> f64 {
        match self.health {
            DeviceHealth::Healthy => 1.0,
            DeviceHealth::Degraded { perf_factor } => perf_factor,
            DeviceHealth::Down => 0.0,
        }
    }

    /// Marks the device degraded to `perf_factor` of its compute.
    ///
    /// # Panics
    ///
    /// Panics if the factor is outside `(0, 1]` or the device is down.
    pub fn set_degraded(&mut self, perf_factor: f64) {
        assert!(
            perf_factor > 0.0 && perf_factor <= 1.0,
            "invalid perf factor {perf_factor}"
        );
        assert!(self.is_up(), "cannot degrade a down device");
        self.health = DeviceHealth::Degraded { perf_factor };
    }

    /// Clears a degraded state back to healthy. No-op while down.
    pub fn clear_degraded(&mut self) {
        if let DeviceHealth::Degraded { .. } = self.health {
            self.health = DeviceHealth::Healthy;
        }
    }

    /// Takes the device down hard: every resident process is evicted
    /// and returned, and the memory manager releases all state (device
    /// memory does not survive a failure). The caller decides what to
    /// do with the evicted work.
    pub fn fail(&mut self, now: SimTime) -> (Option<InferenceInstance>, Vec<TrainingProcess>) {
        self.health = DeviceHealth::Down;
        let inference = self.inference.take();
        let trainings = std::mem::take(&mut self.trainings);
        self.standby = None;
        self.memory.release_all(now);
        (inference, trainings)
    }

    /// Brings a failed device back into service, empty. The caller
    /// re-deploys inference and restores any training processes, which
    /// rebuilds the memory manager's state.
    ///
    /// # Panics
    ///
    /// Panics if the device is not down.
    pub fn repair(&mut self) {
        assert!(self.health == DeviceHealth::Down, "repairing a live device");
        self.health = DeviceHealth::Healthy;
    }

    /// The resident inference instance, if any.
    pub fn inference(&self) -> Option<&InferenceInstance> {
        self.inference.as_ref()
    }

    /// The parked warm-standby shadow instance, if any.
    pub fn standby(&self) -> Option<&StandbyInstance> {
        self.standby.as_ref()
    }

    /// GPU% currently reserved by the standby (0 when none is parked).
    pub fn standby_reserve(&self) -> f64 {
        self.standby.as_ref().map_or(0.0, |s| s.reserve_fraction)
    }

    /// Parks a warm-standby shadow instance on the device, pinning its
    /// model memory. Returns the swap transfer time from the memory
    /// rebalance.
    ///
    /// # Panics
    ///
    /// Panics if the device is down or already hosts a standby.
    pub fn seed_standby(
        &mut self,
        gt: &GroundTruth,
        now: SimTime,
        instance: StandbyInstance,
    ) -> SimDuration {
        assert!(self.is_up(), "cannot seed a standby on a down device");
        assert!(self.standby.is_none(), "device already hosts a standby");
        let demand = gt.inference_memory_gb(instance.service, instance.batch, 0.0);
        self.standby = Some(instance);
        self.memory.set_standby_demand(now, demand)
    }

    /// Promotes the parked standby to serving `qps` (the shadow
    /// hand-off: traffic starts routing to the reserved slice), or
    /// updates the traffic an active standby serves. Returns the swap
    /// transfer time from the staging-pool change.
    ///
    /// # Panics
    ///
    /// Panics if no standby is parked.
    pub fn promote_standby(&mut self, gt: &GroundTruth, now: SimTime, qps: f64) -> SimDuration {
        assert!(qps >= 0.0);
        let s = self.standby.as_mut().expect("no standby to promote");
        s.qps = qps;
        let demand = gt.inference_memory_gb(s.service, s.batch, s.qps);
        self.memory.set_standby_demand(now, demand)
    }

    /// Returns an active standby to the idle pool (the covered replica
    /// rejoined): traffic stops, memory shrinks back to the pinned
    /// weights.
    ///
    /// # Panics
    ///
    /// Panics if no standby is parked.
    pub fn demote_standby(&mut self, gt: &GroundTruth, now: SimTime) -> SimDuration {
        let s = self.standby.as_mut().expect("no standby to demote");
        s.qps = 0.0;
        let demand = gt.inference_memory_gb(s.service, s.batch, 0.0);
        self.memory.set_standby_demand(now, demand)
    }

    /// Resident training processes.
    pub fn trainings(&self) -> &[TrainingProcess] {
        &self.trainings
    }

    /// Mutable access to a training process by id.
    pub fn training_mut(&mut self, id: ResidentId) -> Option<&mut TrainingProcess> {
        self.trainings.iter_mut().find(|t| t.id == id)
    }

    /// The unified-memory manager.
    pub fn memory(&self) -> &MemoryManager {
        &self.memory
    }

    /// Whether another training task fits (§5.5 cap).
    pub fn has_training_slot(&self) -> bool {
        self.trainings.len() < MAX_TRAININGS_PER_GPU
    }

    /// Deploys (or replaces) the inference instance. Returns the swap
    /// transfer time incurred by the memory rebalance.
    pub fn deploy_inference(
        &mut self,
        gt: &GroundTruth,
        now: SimTime,
        instance: InferenceInstance,
    ) -> SimDuration {
        let demand = gt.inference_memory_gb(instance.service, instance.batch, instance.qps);
        self.inference = Some(instance);
        self.memory.set_inference_demand(now, demand)
    }

    /// Changes the inference batching size (free, §5.3.1) and updates
    /// the memory demand. Returns swap transfer time.
    ///
    /// # Panics
    ///
    /// Panics if no inference instance is deployed.
    pub fn set_inference_batch(
        &mut self,
        gt: &GroundTruth,
        now: SimTime,
        batch: u32,
    ) -> SimDuration {
        let inst = self.inference.as_mut().expect("no inference deployed");
        inst.batch = batch.max(1);
        let demand = gt.inference_memory_gb(inst.service, inst.batch, inst.qps);
        self.memory.set_inference_demand(now, demand)
    }

    /// Changes the inference GPU fraction (requires a restart or shadow
    /// switch, accounted by the caller).
    ///
    /// # Panics
    ///
    /// Panics if no inference instance is deployed or the fraction is
    /// invalid.
    pub fn set_inference_fraction(&mut self, fraction: f64) {
        assert!(fraction > 0.0 && fraction <= 1.0, "invalid fraction");
        self.inference
            .as_mut()
            .expect("no inference deployed")
            .gpu_fraction = fraction;
    }

    /// Updates the replica's observed QPS, re-sizing the staging pool
    /// (the serving runtime pins in-flight buffers proportional to
    /// load). Returns the swap transfer time from the rebalance.
    ///
    /// # Panics
    ///
    /// Panics if no inference instance is deployed.
    pub fn set_inference_qps(&mut self, gt: &GroundTruth, now: SimTime, qps: f64) -> SimDuration {
        assert!(qps >= 0.0);
        let inst = self.inference.as_mut().expect("no inference deployed");
        inst.qps = qps;
        let demand = gt.inference_memory_gb(inst.service, inst.batch, inst.qps);
        self.memory.set_inference_demand(now, demand)
    }

    /// Adds a training process. Returns the swap transfer time, or
    /// `None` if the device has no free training slot.
    pub fn add_training(
        &mut self,
        gt: &GroundTruth,
        now: SimTime,
        proc: TrainingProcess,
    ) -> Option<SimDuration> {
        if !self.has_training_slot() {
            return None;
        }
        let demand = gt.training_memory_gb(proc.task);
        let id = proc.id;
        self.trainings.push(proc);
        Some(self.memory.add_training(now, id, demand))
    }

    /// Removes a training process (completed or migrated), returning it
    /// with the swap-in transfer time.
    pub fn remove_training(
        &mut self,
        now: SimTime,
        id: ResidentId,
    ) -> Option<(TrainingProcess, SimDuration)> {
        let pos = self.trainings.iter().position(|t| t.id == id)?;
        let proc = self.trainings.remove(pos);
        let transfer = self.memory.remove_training(now, id);
        Some((proc, transfer))
    }

    /// Re-splits the GPU left over by inference evenly among the
    /// resident training tasks (§5.5), returning the per-task fraction.
    ///
    /// `share_cap` bounds the *total* training allocation: Mudi hands
    /// training the entire leftover (cap 1.0), while baselines without
    /// interference prediction cap it conservatively to protect the
    /// latency-critical service, leaving GPU idle (the under-
    /// utilization Fig. 10 reports).
    pub fn rebalance_training_fractions(&mut self, share_cap: f64) -> f64 {
        assert!(share_cap > 0.0 && share_cap <= 1.0, "invalid cap");
        let inf_frac = self.inference.as_ref().map_or(0.0, |i| i.gpu_fraction);
        let n = self.trainings.len();
        if n == 0 {
            return 0.0;
        }
        let total = (1.0 - inf_frac - self.standby_reserve())
            .max(0.0)
            .min(share_cap);
        let share = (total / n as f64).max(0.01);
        for t in &mut self.trainings {
            t.gpu_fraction = share;
        }
        share
    }

    /// The co-location set as seen by the inference instance (all
    /// resident trainings and an active standby), into a fixed stack
    /// buffer as `(buffer, len)`.
    pub fn colo_for_inference_buf(&self) -> ([ColoWorkload; COLO_VIEW_MAX], usize) {
        let mut buf = [ColoWorkload::training(TaskId(0), 0.0); COLO_VIEW_MAX];
        let mut n = 0;
        for t in &self.trainings {
            buf[n] = ColoWorkload::training(t.task, t.gpu_fraction);
            n += 1;
        }
        if let Some(s) = self.standby.as_ref().filter(|s| s.is_active()) {
            buf[n] = ColoWorkload::inference(s.service, s.batch, s.reserve_fraction);
            n += 1;
        }
        (buf, n)
    }

    /// The co-location set as seen by an *active* standby (the primary
    /// inference instance plus all resident trainings), into a fixed
    /// stack buffer as `(buffer, len)`.
    pub fn colo_for_standby_buf(&self) -> ([ColoWorkload; COLO_VIEW_MAX], usize) {
        let mut buf = [ColoWorkload::training(TaskId(0), 0.0); COLO_VIEW_MAX];
        let mut n = 0;
        if let Some(inf) = &self.inference {
            buf[n] = ColoWorkload::inference(inf.service, inf.batch, inf.gpu_fraction);
            n += 1;
        }
        for t in &self.trainings {
            buf[n] = ColoWorkload::training(t.task, t.gpu_fraction);
            n += 1;
        }
        (buf, n)
    }

    /// The co-location set as seen by training `id` (the inference
    /// instance, the other trainings and an active standby), into a
    /// fixed stack buffer as `(buffer, len)`. [`COLO_VIEW_MAX`] covers
    /// that worst case.
    pub fn colo_for_training_buf(&self, id: ResidentId) -> ([ColoWorkload; COLO_VIEW_MAX], usize) {
        let mut buf = [ColoWorkload::training(TaskId(0), 0.0); COLO_VIEW_MAX];
        let mut n = 0;
        if let Some(inf) = &self.inference {
            buf[n] = ColoWorkload::inference(inf.service, inf.batch, inf.gpu_fraction);
            n += 1;
        }
        for t in &self.trainings {
            if t.id != id {
                buf[n] = ColoWorkload::training(t.task, t.gpu_fraction);
                n += 1;
            }
        }
        if let Some(s) = self.standby.as_ref().filter(|s| s.is_active()) {
            buf[n] = ColoWorkload::inference(s.service, s.batch, s.reserve_fraction);
            n += 1;
        }
        (buf, n)
    }

    /// Instantaneous SM utilization estimate: training partitions run
    /// busy; the inference partition is busy for the fraction of time
    /// its batches are executing (`qps · latency / batch`, capped).
    pub fn sm_utilization(&self, gt: &GroundTruth) -> f64 {
        let mut util = 0.0;
        for t in &self.trainings {
            util += t.gpu_fraction * 0.95;
        }
        if let Some(inf) = &self.inference {
            let (colo, cn) = self.colo_for_inference_buf();
            let (latency, _, _) =
                self.latency_profile(gt, inf.service, inf.batch, inf.gpu_fraction, &colo[..cn]);
            let busy = if inf.qps > 0.0 {
                (inf.qps * latency / inf.batch as f64).min(1.0)
            } else {
                0.0
            };
            util += inf.gpu_fraction * busy;
        }
        if let Some(s) = self.standby.as_ref().filter(|s| s.is_active()) {
            let (colo, cn) = self.colo_for_standby_buf();
            let (latency, _, _) = self.standby_latency_profile(
                gt,
                s.service,
                s.batch,
                s.reserve_fraction,
                &colo[..cn],
            );
            let busy = (s.qps * latency / s.batch as f64).min(1.0);
            util += s.reserve_fraction * busy;
        }
        util.min(1.0)
    }

    /// Records utilization samples at `now` into the integrators.
    pub fn record_utilization(&mut self, gt: &GroundTruth, now: SimTime) {
        let sm = self.sm_utilization(gt);
        let mem = self.memory.utilization();
        self.sm_util.set(now, sm);
        self.mem_util.set(now, mem);
    }

    /// Closes the utilization windows at `now`.
    pub fn finish(&mut self, now: SimTime) {
        self.sm_util.finish(now);
        self.mem_util.finish(now);
        self.memory.finish(now);
    }

    /// Time-averaged SM utilization.
    pub fn mean_sm_utilization(&self) -> f64 {
        self.sm_util.time_average()
    }

    /// Time-averaged memory utilization.
    pub fn mean_mem_utilization(&self) -> f64 {
        self.mem_util.time_average()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::{ServiceId, TaskId, Zoo};

    fn gt() -> GroundTruth {
        GroundTruth::new(Zoo::standard(), 7)
    }

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn deploy_and_reconfigure_inference() {
        let g = gt();
        let mut d = GpuDevice::new(DeviceId(0), 40.0);
        d.deploy_inference(
            &g,
            t(0.0),
            InferenceInstance::new(ServiceId(0), 32, 0.5, 200.0),
        );
        assert_eq!(d.inference().unwrap().batch, 32);
        d.set_inference_batch(&g, t(1.0), 128);
        assert_eq!(d.inference().unwrap().batch, 128);
        d.set_inference_fraction(0.3);
        assert_eq!(d.inference().unwrap().gpu_fraction, 0.3);
        d.set_inference_qps(&g, t(2.0), 400.0);
        assert_eq!(d.inference().unwrap().qps, 400.0);
    }

    #[test]
    fn training_slots_cap_at_three() {
        let g = gt();
        let mut d = GpuDevice::new(DeviceId(0), 400.0); // Big memory: slots are the limit.
        for i in 0..3 {
            let p = TrainingProcess::new(ResidentId(i), TaskId(i as usize % 3), 0.2, 100);
            assert!(d.add_training(&g, t(i as f64), p).is_some());
        }
        let p4 = TrainingProcess::new(ResidentId(9), TaskId(0), 0.2, 100);
        assert!(d.add_training(&g, t(4.0), p4).is_none());
        assert_eq!(d.trainings().len(), 3);
    }

    #[test]
    fn colo_views_exclude_self() {
        let g = gt();
        let mut d = GpuDevice::new(DeviceId(0), 40.0);
        d.deploy_inference(
            &g,
            t(0.0),
            InferenceInstance::new(ServiceId(2), 16, 0.4, 200.0),
        );
        d.add_training(
            &g,
            t(1.0),
            TrainingProcess::new(ResidentId(1), TaskId(3), 0.3, 100),
        )
        .unwrap();
        d.add_training(
            &g,
            t(2.0),
            TrainingProcess::new(ResidentId(2), TaskId(4), 0.3, 100),
        )
        .unwrap();
        assert_eq!(d.colo_for_inference_buf().1, 2);
        // Inference + the *other* training.
        assert_eq!(d.colo_for_training_buf(ResidentId(1)).1, 2);
    }

    #[test]
    fn rebalance_splits_leftover_evenly() {
        let g = gt();
        let mut d = GpuDevice::new(DeviceId(0), 40.0);
        d.deploy_inference(
            &g,
            t(0.0),
            InferenceInstance::new(ServiceId(0), 16, 0.4, 200.0),
        );
        d.add_training(
            &g,
            t(1.0),
            TrainingProcess::new(ResidentId(1), TaskId(0), 0.1, 100),
        )
        .unwrap();
        d.add_training(
            &g,
            t(1.0),
            TrainingProcess::new(ResidentId(2), TaskId(1), 0.1, 100),
        )
        .unwrap();
        let share = d.rebalance_training_fractions(1.0);
        assert!((share - 0.3).abs() < 1e-12);
        assert!(d
            .trainings()
            .iter()
            .all(|p| (p.gpu_fraction - 0.3).abs() < 1e-12));
        // A conservative cap limits the total training allocation.
        let capped = d.rebalance_training_fractions(0.4);
        assert!((capped - 0.2).abs() < 1e-12);
        assert!(d
            .trainings()
            .iter()
            .all(|p| (p.gpu_fraction - 0.2).abs() < 1e-12));
    }

    #[test]
    fn removing_training_returns_process() {
        let g = gt();
        let mut d = GpuDevice::new(DeviceId(0), 40.0);
        d.add_training(
            &g,
            t(0.0),
            TrainingProcess::new(ResidentId(5), TaskId(0), 0.5, 100),
        )
        .unwrap();
        let (proc, _) = d.remove_training(t(1.0), ResidentId(5)).unwrap();
        assert_eq!(proc.id, ResidentId(5));
        assert!(d.trainings().is_empty());
        assert!(d.remove_training(t(2.0), ResidentId(5)).is_none());
    }

    #[test]
    fn sm_utilization_combines_residents() {
        let g = gt();
        let mut d = GpuDevice::new(DeviceId(0), 40.0);
        assert_eq!(d.sm_utilization(&g), 0.0);
        d.add_training(
            &g,
            t(0.0),
            TrainingProcess::new(ResidentId(1), TaskId(0), 0.5, 100),
        )
        .unwrap();
        let train_only = d.sm_utilization(&g);
        assert!((train_only - 0.475).abs() < 1e-9);
        d.deploy_inference(
            &g,
            t(1.0),
            InferenceInstance::new(ServiceId(0), 16, 0.5, 300.0),
        );
        assert!(d.sm_utilization(&g) > train_only);
        assert!(d.sm_utilization(&g) <= 1.0);
    }

    #[test]
    fn utilization_integrates_over_time() {
        let g = gt();
        let mut d = GpuDevice::new(DeviceId(0), 40.0);
        d.record_utilization(&g, t(0.0));
        d.add_training(
            &g,
            t(10.0),
            TrainingProcess::new(ResidentId(1), TaskId(0), 1.0, 100),
        )
        .unwrap();
        d.record_utilization(&g, t(10.0));
        d.finish(t(20.0));
        // 10 s idle + 10 s at 0.95 => mean 0.475.
        assert!((d.mean_sm_utilization() - 0.475).abs() < 1e-9);
        assert!(d.mean_mem_utilization() > 0.0);
    }

    #[test]
    fn fail_evicts_everything_and_releases_memory() {
        let g = gt();
        let mut d = GpuDevice::new(DeviceId(0), 40.0);
        d.deploy_inference(
            &g,
            t(0.0),
            InferenceInstance::new(ServiceId(0), 32, 0.5, 200.0),
        );
        d.add_training(
            &g,
            t(1.0),
            TrainingProcess::new(ResidentId(1), TaskId(0), 0.3, 100),
        )
        .unwrap();
        assert!(d.is_up());
        let (inf, procs) = d.fail(t(10.0));
        assert_eq!(d.health(), DeviceHealth::Down);
        assert_eq!(d.perf_factor(), 0.0);
        assert!(inf.is_some());
        assert_eq!(procs.len(), 1);
        assert!(d.inference().is_none());
        assert!(d.trainings().is_empty());
        assert_eq!(d.memory().total_demand_gb(), 0.0);
        assert_eq!(d.sm_utilization(&g), 0.0);
    }

    #[test]
    fn repair_restores_service_from_checkpoint() {
        let g = gt();
        let mut d = GpuDevice::new(DeviceId(0), 40.0);
        d.deploy_inference(
            &g,
            t(0.0),
            InferenceInstance::new(ServiceId(1), 16, 0.5, 100.0),
        );
        d.add_training(
            &g,
            t(0.0),
            TrainingProcess::new(ResidentId(2), TaskId(1), 0.4, 1000),
        )
        .unwrap();
        let (inf, _) = d.fail(t(5.0));
        d.repair();
        assert_eq!(d.health(), DeviceHealth::Healthy);
        d.deploy_inference(&g, t(10.0), inf.unwrap());
        // The restored process resumes from its checkpointed progress.
        d.add_training(
            &g,
            t(10.0),
            TrainingProcess::with_progress(ResidentId(2), TaskId(1), 0.4, 600, 1000),
        )
        .unwrap();
        assert_eq!(d.trainings()[0].remaining_iterations(), 400);
        assert!(d.memory().total_demand_gb() > 0.0, "memory state rebuilt");
    }

    #[test]
    fn degraded_scales_perf_factor() {
        let mut d = GpuDevice::new(DeviceId(0), 40.0);
        assert_eq!(d.perf_factor(), 1.0);
        d.set_degraded(0.6);
        assert_eq!(d.perf_factor(), 0.6);
        assert!(d.is_up());
        d.clear_degraded();
        assert_eq!(d.health(), DeviceHealth::Healthy);
    }

    #[test]
    #[should_panic(expected = "repairing a live device")]
    fn repair_requires_down() {
        let mut d = GpuDevice::new(DeviceId(0), 40.0);
        d.repair();
    }

    #[test]
    fn standby_lifecycle_reserves_and_releases() {
        let g = gt();
        let mut d = GpuDevice::new(DeviceId(0), 40.0);
        d.deploy_inference(
            &g,
            t(0.0),
            InferenceInstance::new(ServiceId(0), 16, 0.6, 200.0),
        );
        d.add_training(
            &g,
            t(0.0),
            TrainingProcess::new(ResidentId(1), TaskId(0), 0.2, 100),
        )
        .unwrap();
        let idle_demand = d.memory().total_demand_gb();
        d.seed_standby(&g, t(1.0), StandbyInstance::new(ServiceId(2), 16, 0.1));
        assert_eq!(d.standby_reserve(), 0.1);
        assert!(!d.standby().unwrap().is_active());
        assert!(
            d.memory().total_demand_gb() > idle_demand,
            "pre-loaded weights must pin memory"
        );
        // The reserve comes out of the training leftover.
        let share = d.rebalance_training_fractions(1.0);
        assert!((share - (1.0 - 0.6 - 0.1)).abs() < 1e-12);
        // An idle standby is invisible to the interference sets.
        assert_eq!(d.colo_for_inference_buf().1, 1);
        let parked = d.memory().total_demand_gb();

        d.promote_standby(&g, t(2.0), 150.0);
        assert!(d.standby().unwrap().is_active());
        assert!(d.memory().total_demand_gb() >= parked);
        assert_eq!(d.colo_for_inference_buf().1, 2, "active standby co-runs");
        assert_eq!(d.colo_for_training_buf(ResidentId(1)).1, 2);
        assert!(d.sm_utilization(&g) <= 1.0);

        d.demote_standby(&g, t(3.0));
        assert!(!d.standby().unwrap().is_active());
        assert!((d.memory().total_demand_gb() - parked).abs() < 1e-9);

        // Failure wipes the standby with everything else.
        d.fail(t(4.0));
        assert!(d.standby().is_none());
        assert_eq!(d.standby_reserve(), 0.0);
        assert_eq!(d.memory().total_demand_gb(), 0.0);
    }

    #[test]
    fn memory_pressure_reaches_manager() {
        let g = gt();
        let mut d = GpuDevice::new(DeviceId(0), 40.0);
        // YOLOv5 (26 GB activations) + a big inference batch overflows.
        d.add_training(
            &g,
            t(0.0),
            TrainingProcess::new(
                ResidentId(1),
                g.zoo().task_by_name("YOLOv5").unwrap().id,
                0.5,
                100,
            ),
        )
        .unwrap();
        d.deploy_inference(
            &g,
            t(1.0),
            InferenceInstance::new(ServiceId(0), 512, 0.5, 200.0),
        );
        assert!(d.memory().is_overflowed());
        assert!(d.memory().training_slowdown(ResidentId(1)) > 1.0);
    }
}
