//! Stepper stage: one window of the simulation time loop.
//!
//! Owns window execution for the parallel-commit kernel. The session's
//! window loop advances time in epoch windows (`(0, e], (e, 2e], …` per
//! [`super::shard::epoch_end_after`]); each window runs rounds of
//!
//! 1. **lane phase** — every lane executes its own events up to the
//!    window end, device by device, fanned out over the worker pool
//!    (in the calling thread with one worker, through the same code);
//! 2. **barrier** — all lane outboxes are merged in `(time, device,
//!    seq)` key order and applied to shared state;
//! 3. **global phase** — the global queue's events up to the window
//!    end dispatch serially.
//!
//! until the window is quiet. Because the window structure is derived
//! from the config alone and both phases run the same handler code at
//! every grid point, results are bit-identical across every
//! `shards × workers` combination; only wall-clock time changes.
//!
//! Also owns initial event seeding, end-of-run finalization (final
//! accrual spans, open-outage closure, accumulator materialization),
//! and result assembly.

use std::collections::HashMap;
use std::time::Instant;

use gpu_sim::GpuDevice;
use simcore::{SimDuration, SimTime};
use workloads::ServiceId;

use crate::metrics::ExperimentResult;

use super::admission::Admission;
use super::control::{self, Control};
use super::faults::{self, Faults};
use super::shard::Envelope;
use super::state::{DeviceState, GlobalEvent, LaneBox, LaneCtx, LaneEvent, SessionMemo, SimState};

/// The stepper. Stateless: everything lives in [`SimState`].
pub(super) struct Stepper;

/// Executes every event of one lane up to (and including) `t1`: the
/// single lane event loop. Sweeps the lane's devices in ascending
/// order, firing each device's events (including the ones its
/// handlers schedule inside the window) before moving on; per-device
/// state is then read in memory order.
fn drain_lane(ctx: &mut LaneCtx, t1: SimTime) {
    for li in 0..ctx.devices.len() {
        while let Some((now, ev)) = ctx.lane.events.pop_device_until(li, t1) {
            match ev {
                LaneEvent::QpsChange(d) => control::on_qps_change(ctx, now, d),
                LaneEvent::Retune(d) => control::on_retune(ctx, now, d),
                LaneEvent::SlowdownEnd { device, token } => {
                    faults::on_slowdown_end(ctx, now, device, token)
                }
                LaneEvent::ProcessRestart { device, job } => {
                    faults::on_process_restart(ctx, now, device, job)
                }
            }
        }
    }
}

impl Stepper {
    /// Seeds the initial event population: first QPS segment change per
    /// device, the first utilization sample, and the fault schedule.
    pub fn schedule_initial_events(&self, st: &mut SimState) {
        for d in 0..st.devices.len() {
            // First QPS segment change per device (lane-local).
            let dwell = SimDuration::from_secs(
                st.shared
                    .rng
                    .fork_indexed("dwell0", d)
                    .uniform(1.0, st.config.qps_dwell_secs),
            );
            st.schedule_lane(SimTime::ZERO + dwell, LaneEvent::QpsChange(d));
        }
        st.events.schedule_at(
            SimTime::from_secs(st.config.util_sample_secs),
            GlobalEvent::UtilSample,
        );
        // Fault injection is global: recovery touches survivors, the
        // job table, and admission.
        for (i, ev) in st.fault_schedule.events().iter().enumerate() {
            st.events.schedule_at(ev.at, GlobalEvent::Fault(i));
        }
    }

    /// Runs one stepping window: rounds of lane phase → barrier →
    /// global phase until no event at or before `t1` remains anywhere.
    /// Returns `true` when `check_done` is set and every job completed
    /// mid-window (the run-to-end stop rule).
    pub fn run_window(
        &self,
        st: &mut SimState,
        t1: SimTime,
        last_finish: &mut SimTime,
        check_done: bool,
    ) -> bool {
        loop {
            let lanes_pending = st.lanes_pending(t1);
            let global_pending = st.events.peek_time().is_some_and(|t| t <= t1);
            if !lanes_pending && !global_pending {
                return false;
            }
            if lanes_pending {
                self.lane_phase(st, t1);
                let t0 = Instant::now();
                st.drain_all_outboxes();
                st.phase_serial_secs += t0.elapsed().as_secs_f64();
            }
            let t0 = Instant::now();
            while let Some((now, event)) = st.events.pop_until(t1) {
                if let Some(tf) = self.dispatch(st, now, event) {
                    *last_finish = tf;
                }
                if check_done && st.all_done() {
                    st.phase_serial_secs += t0.elapsed().as_secs_f64();
                    return true;
                }
            }
            st.phase_serial_secs += t0.elapsed().as_secs_f64();
        }
    }

    /// The lane phase: every lane drains its events up to `t1`, fanned
    /// out over `simcore::pool` with one part per lane. Traced or not,
    /// and at every worker count, this is the one path: a lane defers
    /// its trace events into its outbox, and the barrier emits them in
    /// merge-key order.
    fn lane_phase(&self, st: &mut SimState, t1: SimTime) {
        let t0 = Instant::now();
        let workers = st.workers;
        let tracing = st.trace.is_enabled();
        let (gt, config, jobs, ckpt) = (&st.shared.gt, &st.config, &st.jobs[..], &st.ckpt[..]);
        let session_memo = &st.session_memo;
        let (mut devices, mut dstate) = (&mut st.devices[..], &mut st.dstate[..]);
        let mut hints = &mut st.route_hints[..];
        let lanes = st.lanes.iter_mut().map(|lane| {
            // Lanes own contiguous ascending ranges: peel each one off.
            let len = lane.range.len();
            let (dev, dev_rest) = std::mem::take(&mut devices).split_at_mut(len);
            let (ds, ds_rest) = std::mem::take(&mut dstate).split_at_mut(len);
            let (rh, rh_rest) = std::mem::take(&mut hints).split_at_mut(len);
            (devices, dstate, hints) = (dev_rest, ds_rest, rh_rest);
            LaneCtx {
                base: lane.range.start,
                devices: dev,
                dstate: ds,
                route_hints: rh,
                lane,
                gt,
                config,
                jobs,
                ckpt,
                tracing,
                session_memo: SessionMemo::Shared(session_memo),
            }
        });
        simcore::fan_out(lanes, workers, |mut ctx| drain_lane(&mut ctx, t1), |()| {});
        st.phase_lane_secs += t0.elapsed().as_secs_f64();
    }

    /// Routes one popped *global* event to its stage. Returns the
    /// finish time when the event completed a training job (callers
    /// track the last finish for the makespan).
    pub fn dispatch(&self, st: &mut SimState, now: SimTime, event: GlobalEvent) -> Option<SimTime> {
        match event {
            GlobalEvent::JobArrival(job) => Admission.on_arrival(st, now, job),
            GlobalEvent::JobCompletion { job, epoch } => {
                return Control.on_completion(st, now, job, epoch);
            }
            GlobalEvent::UtilSample => Control.on_util_sample(st, now),
            GlobalEvent::Fault(idx) => Faults.on_fault(st, now, idx),
            GlobalEvent::DeviceRepair(d) => Faults.on_device_repair(st, now, d),
            GlobalEvent::StandbyPromote { host, token } => {
                Faults.on_standby_promote(st, now, host, token)
            }
        }
        None
    }

    /// End-of-run finalization: accrues every device's final span to
    /// `end`, closes utilization integrators, closes still-open
    /// total-outage windows, and materializes the per-device float
    /// partials into [`SimState::fmetrics`]. Must run exactly once,
    /// before [`Stepper::build_result`].
    pub fn finalize(&self, st: &mut SimState, end: SimTime) {
        for d in 0..st.devices.len() {
            Control.accrue(st, end, d);
            st.devices[d].finish(end);
        }
        // Close the total-outage windows still open, in service-id
        // order: the float sum is order-sensitive.
        for s in 0..st.outage_start.len() {
            st.close_outage(ServiceId(s), end);
        }
        // Materialize the folded fault-metric partials exactly once,
        // then zero them so a later observability read cannot
        // double-count.
        st.fmetrics = st.folded_fmetrics();
        for ds in &mut st.dstate {
            ds.acc.dropped_requests = 0.0;
            ds.acc.rerouted_requests = 0.0;
            ds.acc.standby_reserved_gpu_secs = 0.0;
            ds.acc.standby_served_requests = 0.0;
        }
    }

    pub fn build_result(
        &self,
        st: &mut SimState,
        last_finish: SimTime,
        wall: f64,
    ) -> ExperimentResult {
        let mut result = ExperimentResult {
            system: st.config.system.name().to_string(),
            services: st.fold_services().take_map(),
            ..Default::default()
        };
        let first_submit = st
            .jobs
            .iter()
            .map(|j| j.submitted)
            .min()
            .unwrap_or(SimTime::ZERO);
        result.makespan_secs = last_finish.since(first_submit).as_secs();
        for j in &st.jobs {
            if let Some(ct) = j.completion_time() {
                result.ct.record(ct.as_secs());
                result.jobs_completed += 1;
            }
            if let Some(w) = j.waiting_time() {
                result.waiting.record(w.as_secs());
            }
        }
        result.jobs_submitted = st.jobs.len();
        // Goodput counts only retained progress; work rolled back to a
        // checkpoint was subtracted from `completed_iterations` and
        // shows up in `faults.lost_iterations` instead.
        result.useful_iterations = st.jobs.iter().map(|j| j.completed_iterations).sum();
        for ck in &st.ckpt {
            st.fmetrics.checkpoint_writes += ck.checkpoints_taken();
            st.fmetrics.checkpoint_write_secs += ck.write_time_spent();
        }
        result.faults = std::mem::take(&mut st.fmetrics);

        let n = st.devices.len() as f64;
        result.mean_sm_util = st
            .devices
            .iter()
            .map(GpuDevice::mean_sm_utilization)
            .sum::<f64>()
            / n;
        result.mean_mem_util = st
            .devices
            .iter()
            .map(GpuDevice::mean_mem_utilization)
            .sum::<f64>()
            / n;
        result.util_series = std::mem::take(&mut st.util_series);

        // Swap accounting per service (Tab. 4).
        let mut frac_by_service: HashMap<ServiceId, (f64, usize)> = HashMap::new();
        let mut transfer_sum = 0.0;
        let mut transfer_events = 0u64;
        for (i, dev) in st.devices.iter().enumerate() {
            // A device can finish the run mid-outage with no replica
            // deployed; its service binding lives in the engine state.
            let svc = st.dstate[i].service;
            let e = frac_by_service.entry(svc).or_insert((0.0, 0));
            e.0 += dev.memory().overflow_time_fraction();
            e.1 += 1;
            let s = dev.memory().stats();
            transfer_sum += s.total_transfer_secs;
            transfer_events += s.swap_in_events + s.swap_out_events;
        }
        result.swap_time_fraction = frac_by_service
            .into_iter()
            .map(|(s, (sum, n))| (s, sum / n as f64))
            .collect();
        result.mean_swap_transfer_secs = if transfer_events == 0 {
            0.0
        } else {
            transfer_sum / transfer_events as f64
        };

        // Widened while the engine state is still alive: freed first,
        // the session's multi-MiB tables raise glibc's dynamic mmap
        // threshold past this vector, which would then land on the
        // heap and stay resident after the result is dropped.
        result.overhead.bo_iterations = std::mem::take(&mut st.bo_iterations)
            .into_iter()
            .map(usize::from)
            .collect();
        result.overhead.placement_secs = std::mem::take(&mut st.placement_secs);
        result.wall_clock_secs = wall;
        result
    }
}

// The lane phase moves these across threads; fail at compile time (not
// deep inside `fan_out`'s bounds) if a future field change breaks that.
const _: fn() = || {
    fn assert_send<T: Send + ?Sized>() {}
    assert_send::<[GpuDevice]>();
    assert_send::<[DeviceState]>();
    assert_send::<LaneBox>();
    assert_send::<LaneCtx>();
};

// The barrier sorts envelopes by value; keep trace variants from
// growing its sort element.
#[cfg(target_pointer_width = "64")]
const _: () = assert!(std::mem::size_of::<Envelope>() == 56);
