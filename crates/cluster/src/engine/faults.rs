//! Faults stage: schedule application, blast expansion, and recovery.
//!
//! Owns the dispatch of pre-drawn [`resilience::FaultSchedule`] events
//! into device failures, slowdowns, process crashes, and MPS restarts,
//! plus every recovery path: repair, inference failover, warm-standby
//! promotion/demotion, checkpoint rollback and requeue, and post-repair
//! burn-in. Each fault application, failover, repair and standby
//! hand-off is published on the trace bus where this stage acts (fault
//! applications via [`resilience::FaultEvent::trace_event`]).
//!
//! Fault *injection* and recovery are serial-phase work — a failure
//! touches survivors across the whole cluster, the job table, and the
//! admission queue. Only the two device-local follow-up events
//! (`SlowdownEnd`, `ProcessRestart`) are lane events, with lane
//! handlers here. Serial handlers clamp every per-device operation to
//! that device's accrual watermark ([`SimState::dev_time`]) so device
//! timelines stay monotone inside a stepping window.

use gpu_sim::{ResidentId, StandbyInstance, MPS_RESTART_SECS, SHADOW_SWITCH_SECS};
use mudi::TuneTrigger;
use resilience::{
    FaultDomain, FaultKind, DEGRADED_HOLD_SECS, PROCESS_RESTART_SECS, STANDBY_RESERVE_FRACTION,
};
use simcore::{SimDuration, SimEvent, SimTime};

use crate::job::{JobId, JobState};

use super::admission::Admission;
use super::control::{self, Control};
use super::state::{GlobalEvent, LaneCtx, LaneEvent, SimState};

/// Effective-compute factor of a freshly repaired device during its
/// burn-in window (reduced clocks while the driver re-validates
/// memory); cleared after [`resilience::DEGRADED_HOLD_SECS`].
pub(super) const POST_REPAIR_FACTOR: f64 = 0.85;

/// The faults stage. Stateless: everything lives in [`SimState`].
pub(super) struct Faults;

// ----------------------------------------------------------------------
// Lane handlers.
// ----------------------------------------------------------------------

/// A fault-triggered retune, gated by the anti-thrashing guard: a
/// burst of faults on one device retunes at most once per dwell,
/// and not at all during an explicit cooldown. Load-driven retunes
/// (Monitor drift, SLO risk) are not gated — only fault reactions.
pub(super) fn reconfigure_guarded(ctx: &mut LaneCtx, now: SimTime, d: usize, trigger: TuneTrigger) {
    let li = d - ctx.base;
    if !ctx.devices[li].is_up() {
        return;
    }
    if ctx.dstate[li].guard.allows(now) {
        ctx.dstate[li].guard.record(now);
        control::reconfigure(ctx, now, d, trigger);
    }
}

/// A slowdown or burn-in window closes (token-guarded).
pub(super) fn on_slowdown_end(ctx: &mut LaneCtx, now: SimTime, d: usize, token: u64) {
    let li = d - ctx.base;
    if ctx.dstate[li].degrade_token != token || !ctx.devices[li].is_up() {
        return; // Superseded by a newer window or a failure.
    }
    control::accrue(ctx, now, d);
    ctx.devices[li].clear_degraded();
    ctx.invalidate_route(d);
    reconfigure_guarded(ctx, now, d, TuneTrigger::DeviceFault);
    control::reschedule_completions(ctx, now, d);
}

/// A process restart completes (superseded entries are no-ops).
pub(super) fn on_process_restart(ctx: &mut LaneCtx, now: SimTime, d: usize, job: JobId) {
    let li = d - ctx.base;
    let before = ctx.dstate[li].restarting.len();
    ctx.dstate[li]
        .restarting
        .retain(|&(id, until)| id.0 != job.0 || until > now);
    if before == ctx.dstate[li].restarting.len() {
        return; // Entry superseded (e.g. the device failed meanwhile).
    }
    if ctx.devices[li].is_up() {
        control::accrue(ctx, now, d);
        control::reschedule_completions(ctx, now, d);
    }
}

// ----------------------------------------------------------------------
// Serial-phase handlers.
// ----------------------------------------------------------------------

impl Faults {
    /// Serial-phase guarded retune for device `d`.
    pub fn reconfigure_guarded(
        &self,
        st: &mut SimState,
        now: SimTime,
        d: usize,
        trigger: TuneTrigger,
    ) {
        st.with_lane_of(d, |ctx| reconfigure_guarded(ctx, now, d, trigger));
    }

    /// Dispatches schedule entry `idx` to its class handler.
    pub fn on_fault(&self, st: &mut SimState, now: SimTime, idx: usize) {
        let ev = st.fault_schedule.events()[idx];
        // Every observed fault — any class — feeds the device's
        // reliability prior.
        st.dstate[ev.device].faults_seen += 1;
        st.trace.emit_with(now, || ev.trace_event());
        match ev.kind {
            FaultKind::DeviceFailure { repair } => {
                self.on_device_failure(st, now, ev.device, repair, ev.domain)
            }
            FaultKind::Slowdown { factor, duration } => {
                self.on_slowdown(st, now, ev.device, factor, duration)
            }
            FaultKind::ProcessCrash { salt } => self.on_process_crash(st, now, ev.device, salt),
            FaultKind::MpsRestartFailure => self.on_mps_failure(st, now, ev.device),
        }
    }

    /// Hard device failure: the replica and every training process are
    /// evicted, memory state is lost, and the device stays down until
    /// `repair` later. Inference fails over to surviving same-service
    /// replicas, or to a warm standby, or its traffic drops (every
    /// request a violation); training rolls back to its last checkpoint
    /// and requeues through the system's placement logic.
    pub fn on_device_failure(
        &self,
        st: &mut SimState,
        now: SimTime,
        d: usize,
        repair: SimDuration,
        domain: FaultDomain,
    ) {
        if !st.devices[d].is_up() {
            return; // Already down (schedules never overlap, but be safe).
        }
        let td = st.dev_time(d, now);
        Control.accrue(st, td, d);
        st.fmetrics.device_failures += 1;
        st.fmetrics.device_down_secs += repair.as_secs();

        let (inf, procs) = st.device_mut(d).0.fail(td);
        let inf = inf.expect("replica deployed");
        // Split the replica's demand into its own (`base`) and carried
        // failover traffic; only the base fails over onward — carried
        // shares stay ledgered to their origin devices and drop here.
        let base = (inf.qps - st.dstate[d].extra_qps).max(0.0);
        let mut stash = inf;
        stash.qps = base;
        st.dstate[d].stashed_inference = Some(stash);

        if st.standby.is_enabled() {
            // A standby hosted on `d` dies with it: the device it was
            // covering (one of the slot's service) loses coverage. Its
            // traffic drops until repair, and the service may now be
            // in total outage.
            let covered = st.dstate[d].standby_slot.and_then(|svc| {
                let mut list = st.roster.of(svc).iter().copied();
                Some((svc, list.find(|&f| st.dstate[f].standby_host == Some(d))?))
            });
            if let Some((svc, f)) = covered {
                // Book the covered span as served before the coverage
                // flag flips (the span up to this instant was genuinely
                // standby-served).
                let tf = st.dev_time(f, now);
                Control.accrue(st, tf, f);
                st.dstate[f].standby_host = None;
                st.dstate[f].standby_pviol = 0.0;
                if st.service_down(svc) {
                    st.open_outage(svc, now, domain);
                }
            }
            // Cancel any promotion this device was about to perform.
            if st.dstate[d].pending_promote.take().is_some() {
                st.dstate[d].promote_token += 1;
            }
        }

        let svc = st.dstate[d].service;
        let mut standby_covered = false;
        if base > 0.0 {
            let survivors: Vec<usize> = st.up_primaries(svc).collect();
            if !survivors.is_empty() {
                st.fmetrics.inference_failovers += 1;
                st.trace.emit_with(now, || SimEvent::FailoverRerouted {
                    from: d,
                    survivors: survivors.len(),
                });
                // Survivors absorb the load within the same instant,
                // in ascending-device order (each clamped to its own
                // watermark — a survivor's lane may have stepped past
                // `now` this window).
                let share = base / survivors.len() as f64;
                for &s in &survivors {
                    let ts = st.dev_time(s, now);
                    Control.accrue(st, ts, s);
                    st.dstate[s].extra_qps += share;
                    let cur = st.devices[s].inference().expect("up replica").qps;
                    st.devices[s].set_inference_qps(&st.shared.gt, ts, cur + share);
                    st.dstate[d].rerouted.push((s, share));
                    self.reconfigure_guarded(st, ts, s, TuneTrigger::Failover);
                }
                st.fmetrics.failover_latency_secs.push(0.0);
            } else {
                // No survivor left — the blast swallowed every replica.
                // The warm-standby pool is the last line of defense: an
                // idle standby for this service on another up device is
                // promoted after a bounded switch latency instead of
                // dropping every request until repair.
                if st.standby.is_enabled() {
                    let host = st.roster.of(svc).iter().copied().find(|&h| {
                        h != d
                            && st.devices[h].is_up()
                            && st.dstate[h].pending_promote.is_none()
                            && st.standby_for(h, svc).is_some_and(|s| !s.is_active())
                    });
                    if let Some(h) = host {
                        st.dstate[h].promote_token += 1;
                        let token = st.dstate[h].promote_token;
                        st.dstate[h].pending_promote = Some((d, token));
                        st.events.schedule_at(
                            now + SimDuration::from_secs(SHADOW_SWITCH_SECS),
                            GlobalEvent::StandbyPromote { host: h, token },
                        );
                        st.fmetrics.failover_latency_secs.push(SHADOW_SWITCH_SECS);
                        st.fmetrics.inference_failovers += 1;
                        standby_covered = true;
                    }
                }
                if !standby_covered {
                    // Nobody can take the load: dropped until repair.
                    st.fmetrics.failover_latency_secs.push(repair.as_secs());
                }
            }
        }

        // Total-outage accounting: if this failure left the service
        // down, open an outage window, so the outage is explicit rather
        // than folded into the per-span drop violations. A promote
        // scheduled above keeps the service alive: traffic resumes
        // within the bounded promote window.
        if !standby_covered && st.service_down(svc) {
            st.open_outage(svc, now, domain);
        }

        // Training: roll back to the checkpoint, then requeue (the
        // scheduler re-places through the system's DeviceSelector).
        for proc in procs {
            let ji = proc.id.0 as usize;
            let ck = st.ckpt[ji].rollback();
            let lost = (st.jobs[ji].completed_iterations - ck).max(0.0);
            st.fmetrics.lost_iterations += lost;
            st.jobs[ji].rollback_to(ck);
            st.fmetrics.training_evictions += 1;
            let job = &mut st.jobs[ji];
            job.state = JobState::Queued;
            job.device = None;
            st.queue.push(JobId(proc.id.0));
        }

        st.dstate[d].restarting.clear();
        st.dstate[d].training_paused = false;
        st.dstate[d].paused_since = None;
        st.dstate[d].epoch += 1; // Invalidate in-flight completions.
        st.dstate[d].guard.cooldown(td, repair);
        st.events
            .schedule_at(now + repair, GlobalEvent::DeviceRepair(d));
        Admission.try_dispatch(st, now);
    }

    /// Repair: redeploy the replica at the current demand level, return
    /// failover traffic to this device, and enter a degraded burn-in
    /// window with the circuit-breaker shedding training share.
    pub fn on_device_repair(&self, st: &mut SimState, now: SimTime, d: usize) {
        let td = st.dev_time(d, now);
        Control.accrue(st, td, d); // Final span of the outage (drop accounting).
        st.device_mut(d).0.repair();
        st.trace
            .emit_with(td, || SimEvent::DeviceRepaired { device: d });

        // This repair brings the service's replica count back above
        // zero; close any open total-outage window.
        st.close_outage(st.dstate[d].service, now);

        // Release warm-standby coverage: the covering standby drains
        // back to idle and waits for the next failure.
        if let Some(h) = st.dstate[d].standby_host.take() {
            st.dstate[d].standby_pviol = 0.0;
            if st.devices[h].is_up() {
                let th = st.dev_time(h, now);
                Control.accrue(st, th, h);
                let (dev, gt) = st.device_mut(h);
                dev.demote_standby(gt, th);
                st.trace.emit_with(th, || SimEvent::StandbyDemoted {
                    host: h,
                    covered: d,
                });
                st.fmetrics.standby_reseeds += 1;
                self.reconfigure_guarded(st, th, h, TuneTrigger::Repair);
            }
        }
        // Cancel any promotion still pending on this device's behalf
        // (its host holds a standby slot of this device's service).
        let svc = st.dstate[d].service;
        for i in 0..st.roster.of(svc).len() {
            let h = st.roster.of(svc)[i];
            if matches!(st.dstate[h].pending_promote, Some((t, _)) if t == d) {
                st.dstate[h].pending_promote = None;
                st.dstate[h].promote_token += 1;
            }
        }

        // Undo the failover: survivors stop serving this replica's
        // share, in the ascending-survivor order the ledger was built
        // in (each clamped to its own watermark).
        let rerouted = std::mem::take(&mut st.dstate[d].rerouted);
        for &(s, share) in &rerouted {
            st.dstate[s].extra_qps = (st.dstate[s].extra_qps - share).max(0.0);
            if st.devices[s].is_up() {
                let ts = st.dev_time(s, now);
                Control.accrue(st, ts, s);
                let cur = st.devices[s].inference().expect("up replica").qps;
                st.devices[s].set_inference_qps(&st.shared.gt, ts, (cur - share).max(0.0));
                self.reconfigure_guarded(st, ts, s, TuneTrigger::Repair);
            }
        }

        // Redeploy at the demand the generator currently calls for.
        let mut inst = st.dstate[d]
            .stashed_inference
            .take()
            .expect("replica stashed at failure");
        let base = st.demand(d, st.dstate[d].service, now);
        inst.qps = base + st.dstate[d].extra_qps;
        let (dev, gt) = st.device_mut(d);
        dev.deploy_inference(gt, td, inst);

        // Re-seed the pool: a repaired device that held a standby slot
        // rejoins with a fresh idle standby.
        if st.standby.is_enabled() {
            if let Some(svc) = st.dstate[d].standby_slot {
                if st.devices[d].standby().is_none() {
                    let (dev, gt) = st.device_mut(d);
                    dev.seed_standby(
                        gt,
                        td,
                        StandbyInstance::new(svc, 16, STANDBY_RESERVE_FRACTION),
                    );
                    st.fmetrics.standby_reseeds += 1;
                }
            }
        }

        if !st.devices[d].trainings().is_empty() {
            let cap = st.dstate[d].applied_share_cap(td);
            st.device_mut(d).0.rebalance_training_fractions(cap);
        }

        // Post-repair burn-in: degraded clocks + training share shed.
        let hold = SimDuration::from_secs(DEGRADED_HOLD_SECS);
        st.device_mut(d).0.set_degraded(POST_REPAIR_FACTOR);
        st.dstate[d].degrade_token += 1;
        let token = st.dstate[d].degrade_token;
        st.schedule_lane(now + hold, LaneEvent::SlowdownEnd { device: d, token });
        st.dstate[d].breaker.trip(td, hold);

        Control.refresh_memory_pause(st, td, d);
        Control.reconfigure(st, td, d, TuneTrigger::Repair);
        Admission.try_dispatch(st, now);
    }

    /// A scheduled standby promotion fires. If still valid (the token
    /// matches, the host is up, the covered device is still down), the
    /// standby starts serving the failed replica's base traffic on its
    /// reserved slice; otherwise the event is a stale no-op.
    pub fn on_standby_promote(&self, st: &mut SimState, now: SimTime, host: usize, token: u64) {
        if st.dstate[host].promote_token != token {
            return; // Cancelled or superseded.
        }
        let Some((target, t)) = st.dstate[host].pending_promote.take() else {
            return;
        };
        debug_assert_eq!(t, token);
        if !st.devices[host].is_up() || st.devices[target].is_up() {
            return; // Host died meanwhile, or the target already repaired.
        }
        let qps = st.dstate[target]
            .stashed_inference
            .as_ref()
            .map_or(0.0, |i| i.qps);
        if qps <= 0.0 {
            return; // Demand vanished during the promote window.
        }
        // Book the drop span on the target up to the promote instant,
        // then hand its traffic to the standby.
        let tt = st.dev_time(target, now);
        Control.accrue(st, tt, target);
        let th = st.dev_time(host, now);
        Control.accrue(st, th, host);
        let (dev, gt) = st.device_mut(host);
        dev.promote_standby(gt, th, qps);
        st.trace.emit_with(th, || SimEvent::StandbyPromoted {
            host,
            covered: target,
        });
        st.dstate[target].standby_host = Some(host);
        st.dstate[target].standby_pviol =
            control::standby_score(&st.shared.gt, &st.devices[host]).map_or(0.0, |(p, ..)| p);
        st.fmetrics.standby_promotions += 1;
        self.reconfigure_guarded(st, th, host, TuneTrigger::Failover);
    }

    /// Transient slowdown: the device keeps running at `factor` of its
    /// effective compute for `duration`; the breaker sheds training
    /// share and a (guarded) retune lets the system adapt its batch.
    pub fn on_slowdown(
        &self,
        st: &mut SimState,
        now: SimTime,
        d: usize,
        factor: f64,
        duration: SimDuration,
    ) {
        if !st.devices[d].is_up() {
            return;
        }
        let td = st.dev_time(d, now);
        Control.accrue(st, td, d);
        st.fmetrics.slowdowns += 1;
        st.device_mut(d).0.set_degraded(factor.clamp(0.05, 1.0));
        st.dstate[d].degrade_token += 1;
        let token = st.dstate[d].degrade_token;
        st.schedule_lane(now + duration, LaneEvent::SlowdownEnd { device: d, token });
        st.dstate[d].breaker.trip(td, duration);
        self.reconfigure_guarded(st, td, d, TuneTrigger::DeviceFault);
        Control.reschedule_completions(st, td, d);
    }

    /// One training process dies and restarts from its checkpoint:
    /// rolled-back work is lost and the process sits out the restart.
    pub fn on_process_crash(&self, st: &mut SimState, now: SimTime, d: usize, salt: u64) {
        if !st.devices[d].is_up() || st.devices[d].trainings().is_empty() {
            return;
        }
        let td = st.dev_time(d, now);
        Control.accrue(st, td, d);
        st.fmetrics.process_crashes += 1;
        let n = st.devices[d].trainings().len();
        let victim = st.devices[d].trainings()[salt as usize % n].id;
        let ji = victim.0 as usize;
        let ck = st.ckpt[ji].rollback();
        let lost = (st.jobs[ji].completed_iterations - ck).max(0.0);
        st.fmetrics.lost_iterations += lost;
        st.jobs[ji].rollback_to(ck);
        if let Some(proc) = st.devices[d].training_mut(victim) {
            proc.completed_iterations = ck.max(0.0) as u64;
        }
        let restart = SimDuration::from_secs(PROCESS_RESTART_SECS);
        st.fmetrics.restart_downtime_secs += restart.as_secs();
        let until = td + restart;
        st.dstate[d].restarting.retain(|&(id, _)| id != victim);
        st.dstate[d].restarting.push((victim, until));
        st.schedule_lane(
            until,
            LaneEvent::ProcessRestart {
                device: d,
                job: JobId(victim.0),
            },
        );
        Control.reschedule_completions(st, td, d);
    }

    /// MPS daemon failure: every process on the device takes a cold
    /// restart. No training work is lost (the processes were healthy),
    /// but inference is down for the restart — every request in the
    /// window violates — and training sits out the outage.
    pub fn on_mps_failure(&self, st: &mut SimState, now: SimTime, d: usize) {
        if !st.devices[d].is_up() {
            return;
        }
        let td = st.dev_time(d, now);
        Control.accrue(st, td, d);
        st.fmetrics.mps_failures += 1;
        let q = st.devices[d].inference().expect("up replica").qps;
        let lost = q * MPS_RESTART_SECS;
        // Lane-accrued floats always go through the per-device
        // partials, even from serial handlers, so the folded totals
        // have one consistent reduction path.
        let svc = st.dstate[d].service;
        let acc = &mut st.dstate[d].acc;
        let m = acc.svc_entry(svc);
        m.requests += lost;
        m.violations += lost;
        acc.dropped_requests += lost;

        let restart = SimDuration::from_secs(MPS_RESTART_SECS);
        let until = td + restart;
        let ids: Vec<ResidentId> = st.devices[d].trainings().iter().map(|t| t.id).collect();
        for id in ids {
            st.fmetrics.restart_downtime_secs += MPS_RESTART_SECS;
            st.dstate[d].restarting.retain(|&(i, _)| i != id);
            st.dstate[d].restarting.push((id, until));
            st.schedule_lane(
                until,
                LaneEvent::ProcessRestart {
                    device: d,
                    job: JobId(id.0),
                },
            );
        }
        st.dstate[d].guard.cooldown(td, restart);
        Control.reschedule_completions(st, td, d);
    }
}
