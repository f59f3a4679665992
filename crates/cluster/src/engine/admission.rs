//! Admission stage: training-task arrivals and §5.2 device selection.
//!
//! Owns job submission (the Philly-like arrival process), the pending
//! queue, candidate-set construction (reliability priors and rack
//! anti-affinity included under fault injection), and dispatch through
//! the system's `Multiplexer::place`. Every placement decision —
//! including deferrals — is published on the trace bus with the
//! candidate set the selector saw.

use std::time::Instant;

use gpu_sim::GpuDevice;
use mudi::{DeviceCandidate, ReliabilityPrior, TuneTrigger};
use resilience::{CHECKPOINT_PERIOD_SECS, CHECKPOINT_WRITE_GBPS};
use simcore::{SimDuration, SimEvent, SimTime, Topology};
use workloads::PhillyArrivals;

use crate::job::{JobId, TrainingJob};

use super::control::Control;
use super::state::{GlobalEvent, SimState};

/// The admission stage. Stateless: everything lives in [`SimState`].
pub(super) struct Admission;

/// The shared, read-only inputs of one candidate-scan, bundled so the
/// chunked fan-out can hand every worker the same view.
struct CandidateView<'a> {
    dstate: &'a [super::state::DeviceState],
    topo: &'a Topology,
    rack_load: &'a [f64],
    max_t: usize,
    reliability_on: bool,
    elapsed_days: f64,
}

/// Builds the candidate entries for one contiguous device range
/// (`base..base + devices.len()`), in device-ascending order.
fn build_candidates(
    view: &CandidateView<'_>,
    base: usize,
    devices: &[GpuDevice],
) -> Vec<DeviceCandidate> {
    devices
        .iter()
        .enumerate()
        .filter(|(_, dev)| dev.is_up() && dev.trainings().len() < view.max_t)
        .map(|(li, dev)| {
            let i = base + li;
            let service = dev.inference().expect("replica deployed").service;
            let (reliability, domain_training_load) = if view.reliability_on {
                let prior = ReliabilityPrior {
                    faults_per_day: view.dstate[i].faults_seen as f64 / view.elapsed_days,
                    degraded: dev.perf_factor() < 1.0,
                };
                (prior, view.rack_load[view.topo.rack_of(i)])
            } else {
                (ReliabilityPrior::default(), 0.0)
            };
            DeviceCandidate {
                device: i,
                service,
                existing_tasks: dev.trainings().iter().map(|t| t.task).collect(),
                mem_headroom_gb: (dev.memory().capacity_gb() - dev.memory().total_demand_gb())
                    .max(-20.0),
                reliability,
                domain_training_load,
            }
        })
        .collect()
}

impl Admission {
    /// Draws the run's arrival process and schedules every job's
    /// arrival event (with its checkpoint tracker resolved).
    pub fn submit_jobs(&self, st: &mut SimState) {
        let mut arrivals = PhillyArrivals::new(
            st.config.arrival_rate,
            st.config.arrival_scale,
            st.shared.rng.fork("arrivals"),
        );
        let times = arrivals.generate(SimTime::ZERO, st.config.jobs);
        let weights: Vec<f64> = st
            .shared
            .gt
            .zoo()
            .tasks()
            .iter()
            .map(|t| t.arrival_fraction)
            .collect();
        let mut task_rng = st.shared.rng.fork("task-mix");
        for (i, &t) in times.iter().enumerate() {
            let task_idx = task_rng.pick_weighted(&weights);
            let task = st.shared.gt.zoo().tasks()[task_idx].id;
            let total = ((st.shared.gt.zoo().task(task).total_iterations() as f64 * st.iter_scale)
                .round() as u64)
                .max(10);
            let job = TrainingJob::new(JobId(i as u64), task, t, total);
            st.jobs.push(job);
            // Checkpoint writes cost wall-clock time proportional to the
            // task's working set over the write bandwidth — but only
            // under fault injection; fault-free runs keep the paper's
            // free-checkpoint accounting bit-for-bit.
            let write_secs = if st.config.faults.is_some() {
                st.shared.gt.training_memory_gb(task) / CHECKPOINT_WRITE_GBPS
            } else {
                0.0
            };
            let period = SimDuration::from_secs(CHECKPOINT_PERIOD_SECS);
            st.ckpt.push(resilience::CheckpointTracker::with_write_cost(
                period, 0.0, write_secs,
            ));
            st.events
                .schedule_at(t, GlobalEvent::JobArrival(JobId(i as u64)));
        }
    }

    /// A job arrives: enqueue it and try to place the queue head.
    pub fn on_arrival(&self, st: &mut SimState, now: SimTime, job: JobId) {
        st.queue.push(job);
        self.try_dispatch(st, now);
    }

    /// The candidate view the §5.2 selector scores: every up device
    /// with a free training slot, with reliability terms only under
    /// fault injection.
    ///
    /// The device scan is a pure read in device-ascending order, so it
    /// fans out over fixed 4096-device chunks: each chunk builds its own
    /// slice of the candidate list and the slices concatenate in chunk
    /// order — byte-identical for every `(shards, workers)` grid point.
    /// The list is sized for every device up front, so concatenating
    /// never regrows it. Its wall time accrues to
    /// [`SimState::phase_place_secs`] (parallelizable serial-phase work,
    /// like the utilization sample's fan-out).
    pub fn candidates(&self, st: &mut SimState, now: SimTime) -> Vec<DeviceCandidate> {
        const CHUNK: usize = 4096;
        let t0 = Instant::now();
        let max_t = st.config.system.max_trainings();
        // Reliability terms only engage under fault injection so the
        // fault-free paper-reproduction runs see exactly the flat-pool
        // scores (the prior is all-healthy and the anti-affinity term
        // zero; `MudiConfig::flat` additionally zeroes the weights).
        let reliability_on = st.config.faults.is_some();
        // Fraction of each rack already hosting training work — the
        // anti-affinity signal spreading jobs across fault domains.
        let rack_load: Vec<f64> = (0..st.topo.shape().racks)
            .map(|r| {
                let range = st.topo.devices_in_rack(r);
                if range.is_empty() {
                    return 0.0;
                }
                let busy = range
                    .clone()
                    .filter(|&d| !st.devices[d].trainings().is_empty())
                    .count();
                busy as f64 / range.len() as f64
            })
            .collect();
        let elapsed_days = (now.as_secs() / 86_400.0).max(0.25);
        let view = CandidateView {
            dstate: &st.dstate,
            topo: &st.topo,
            rack_load: &rack_load,
            max_t,
            reliability_on,
            elapsed_days,
        };
        let mut out = Vec::with_capacity(st.devices.len());
        simcore::fan_out(
            st.devices.chunks_mut(CHUNK).enumerate(),
            st.workers,
            |(i, chunk)| build_candidates(&view, i * CHUNK, chunk),
            |mut part| out.append(&mut part),
        );
        st.phase_place_secs += t0.elapsed().as_secs_f64();
        out
    }

    /// Drains the pending queue head-first while the system keeps
    /// finding placements. The head is the job submitted earliest, ties
    /// going to the lower queue index: first come, first served (the
    /// paper's default, §6). A requeued job keeps its original
    /// `submitted`, so it goes back to the front of later arrivals.
    pub fn try_dispatch(&self, st: &mut SimState, now: SimTime) {
        loop {
            if st.queue.is_empty() {
                return;
            }
            let candidates = self.candidates(st, now);
            if candidates.is_empty() {
                return;
            }
            let Some((idx, &job_id)) = st
                .queue
                .iter()
                .enumerate()
                .min_by_key(|&(i, j)| (st.jobs[j.0 as usize].submitted, i))
            else {
                return;
            };
            let task = st.jobs[job_id.0 as usize].task;

            // Placement is serial-phase work on one canonical replica
            // (lane 0) and draws from the dedicated `place` substream:
            // the draw sequence depends only on the global dispatch
            // order, which is itself partition-invariant.
            let t0 = Instant::now();
            let placed = st.lanes[0].system.place(
                &st.shared.gt,
                task,
                &candidates,
                &mut st.shared.place_rng,
            );
            st.placement_secs.push(t0.elapsed().as_secs_f64());

            let Some(device) = placed else {
                // Head of queue cannot be placed; wait.
                st.trace.emit_with(now, || SimEvent::PlacementDeferred {
                    task: task.0,
                    candidates: candidates.len(),
                });
                return;
            };
            st.queue.remove(idx);
            st.trace.emit_with(now, || SimEvent::Placement {
                task: task.0,
                device,
                candidates: candidates.iter().map(|c| (c.device, c.service.0)).collect(),
            });

            // The chosen device's lane may have stepped past `now`
            // this window: clamp to its watermark.
            let td = st.dev_time(device, now);
            Control.accrue(st, td, device);
            // Requeued jobs resume from their checkpointed progress.
            let proc = st.restored_process(job_id);
            let (dev, gt) = st.device_mut(device);
            dev.add_training(gt, td, proc)
                .expect("candidate had a free slot");
            st.jobs[job_id.0 as usize].start(td, device);
            let cap = st.dstate[device].applied_share_cap(td);
            st.device_mut(device).0.rebalance_training_fractions(cap);
            Control.refresh_memory_pause(st, td, device);
            Control.reconfigure(st, td, device, TuneTrigger::NewTraining);
        }
    }
}
