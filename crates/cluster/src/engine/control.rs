//! Control stage: analytic accrual and per-device resource control.
//!
//! Owns the closed-form integration of SLO violations and training
//! progress over piecewise-constant spans (`accrue`), the per-device
//! GP-LCB retune path (`reconfigure` and the Monitor/SLO-risk triggers
//! in `on_qps_change`), completion handling and rescheduling, memory
//! pause bookkeeping, stuck-device eviction, and the periodic
//! cluster-utilization sample. Retune accept/reject decisions and
//! training evictions are published on the trace bus.
//!
//! The per-device handlers are free functions over [`LaneCtx`] so the
//! parallel lane phase and the serial phase execute the *same code*:
//! a lane handler only touches its own devices, draws from per-device
//! substreams ([`super::state::DeviceState::retune_rng`]), books floats
//! into per-device accumulators ([`super::state::DevAccum`]), and
//! defers every shared-state effect as an [`OutMsg`] envelope. The
//! [`Control`] methods are the serial-phase entry points: thin
//! wrappers that build the lane view for the target device and drain
//! its outbox immediately.

use gpu_sim::device::MAX_TRAININGS_PER_GPU;
use gpu_sim::{GpuDevice, ResidentId, SHADOW_SWITCH_SECS};
use mudi::TuneTrigger;
use simcore::{lognormal_exceedance, lognormal_tail_is_zero, SimDuration, SimEvent, SimTime};
use workloads::GroundTruth;

use crate::job::{JobId, JobState};
use crate::systems::{ConfigDecision, DeviceView, SystemKind};

use super::admission::Admission;
use super::shard::OutMsg;
use super::state::{GlobalEvent, LaneCtx, LaneEvent, SimState};

/// The control stage. Stateless: everything lives in [`SimState`].
pub(super) struct Control;

// ----------------------------------------------------------------------
// Lane handlers: the single implementation of per-device control,
// executed by the parallel lane phase and (through the `Control`
// wrappers) by the serial phase.
// ----------------------------------------------------------------------

/// Integrates SLO violations and training progress for device `d`
/// over `[last_accrue, now]` under the current configuration.
///
/// Training progress lands as a deferred [`OutMsg::Progress`] envelope
/// (the job/checkpoint tables are shared state); the resident's own
/// iteration counter advances in-lane so colocation views stay fresh.
pub(super) fn accrue(ctx: &mut LaneCtx, now: SimTime, d: usize) {
    let li = d - ctx.base;
    let span_start = ctx.dstate[li].last_accrue;
    let dt = now.since(span_start).as_secs();
    if dt <= 0.0 {
        // Nothing to integrate. Checked *before* the watermark update:
        // a serial-phase caller clamps to the watermark, so `now` can
        // tie it but must never regress it.
        return;
    }
    ctx.dstate[li].last_accrue = now;
    if !ctx.devices[li].is_up() {
        // Down device: traffic addressed to its replica is dropped
        // — and every dropped request is an SLO violation — unless
        // failover moved the base demand to survivors or a promoted
        // standby is serving it. Standby-served demand is booked
        // *here*, on the covered device's own lane: this lane tracks
        // the stash QPS trajectory exactly (the host's mirror lags by
        // up to an epoch window), so dropped + served mass conserves
        // bit-exactly under any partition. Carried failover traffic
        // (`extra_qps`) is always dropped here.
        let ds = &ctx.dstate[li];
        let covered = ds.standby_host.is_some();
        let base = if ds.rerouted.is_empty() {
            ds.stashed_inference.as_ref().map_or(0.0, |i| i.qps)
        } else {
            0.0
        };
        let dropped = if covered { 0.0 } else { base } + ds.extra_qps;
        let served = if covered { base } else { 0.0 };
        let service = ds.service;
        let pviol = ds.standby_pviol;
        if dropped > 0.0 {
            let generative = ctx.gt.zoo().service(service).generative;
            let acc = &mut ctx.dstate[li].acc;
            let m = acc.svc_entry(service);
            m.requests += dropped * dt;
            m.violations += dropped * dt;
            if let Some(gp) = generative {
                // Every token the dropped requests would have
                // generated is booked as a violated token — dropped
                // decode work is never silently lost.
                let tokens = dropped * dt * gp.decode_tokens_mean;
                m.tokens += tokens;
                m.itl_violations += tokens;
                m.ttft_violations += dropped * dt;
            }
            acc.dropped_requests += dropped * dt;
        }
        if served > 0.0 {
            // Quality (violation probability) is frozen from the
            // host's profile at the last serial-phase refresh; the
            // request mass itself is exact.
            let acc = &mut ctx.dstate[li].acc;
            let m = acc.svc_entry(service);
            m.requests += served * dt;
            m.violations += served * dt * pviol;
            acc.standby_served_requests += served * dt;
        }
        ctx.devices[li].record_utilization(ctx.gt, now, None);
        return;
    }
    let dev = &ctx.devices[li];
    let Some(inf) = dev.inference() else {
        return;
    };
    let (service, batch, configured, qps) = (inf.service, inf.batch, inf.gpu_fraction, inf.qps);
    let slo = ctx.gt.zoo().service(service).slo_secs();
    // Degraded devices deliver only `pf` of their effective compute:
    // the same model query at a proportionally smaller GPU share.
    let pf = dev.perf_factor();
    let frac = (configured * pf).max(0.01);
    let generative = ctx.gt.zoo().service(service).generative;
    // The running continuous batch of a generative replica is the
    // steady-state fixed point of arrivals against the batch-dependent
    // iteration latency; the tuned batch acts as the admission cap. A
    // classifier runs its configured batch.
    let (bsz, (mean, sigma, p99)) = dev.with_inference_colo(|colo| {
        let bsz = match generative {
            Some(_) => ctx.gt.steady_decode_batch(service, batch, frac, qps, colo),
            None => batch,
        };
        (bsz, dev.latency_profile(ctx.gt, service, bsz, frac, colo))
    });
    // When this span's key is the configured one (a healthy device,
    // and a generative loop running at its cap), the utilization
    // record below reads the same profile: hand it the mean.
    let configured_mean = (bsz == batch && frac.to_bits() == configured.to_bits()).then_some(mean);
    ctx.dstate[li].last_p99 = Some(p99);

    // --- SLO violations. ---
    if let Some(gp) = generative {
        // Generative decode accrual. Per-token (ITL) and TTFT targets
        // accrue in closed form exactly like classifier SLOs: for a
        // generative spec `slo` *is* the p99 inter-token target.
        // One iteration emits one token per resident sequence, so
        // the loop's token service rate is `bsz / mean`.
        let tok_rate = qps * gp.decode_tokens_mean;
        let util = if tok_rate > 0.0 {
            mean * tok_rate / bsz as f64
        } else {
            0.0
        };
        ctx.dstate[li].last_util = util;
        let p_itl = itl_violation_probability(slo, mean, sigma, util);
        // TTFT: chunked prefill of the mean prompt at the running
        // batch's iteration latency, under the same saturation ramp
        // (a saturated decode loop starves admission just as hard).
        let ttft_mean = gp.prefill_iterations() * mean;
        let p_ttft = itl_violation_probability(gp.ttft_slo_secs(), ttft_mean, sigma, util);
        ctx.dstate[li].last_pviol = p_itl.max(p_ttft);
        let requests = qps * dt;
        let tokens = tok_rate * dt;
        let m = ctx.dstate[li].acc.svc_entry(service);
        m.requests += requests;
        // The request-level violation of a generative service is the
        // TTFT miss, so request-weighted aggregates stay comparable
        // across mixed classifier + LLM fleets.
        m.violations += requests * p_ttft;
        m.ttft_violations += requests * p_ttft;
        m.tokens += tokens;
        m.itl_violations += tokens * p_itl;
        m.p99_stats.record(p99);
    } else {
        ctx.dstate[li].last_util = if qps > 0.0 {
            mean / (batch as f64 / qps)
        } else {
            0.0
        };
        let p_violation = violation_probability(qps, batch, slo, mean, sigma);
        ctx.lane.accrual.record();
        ctx.dstate[li].last_pviol = p_violation;
        let requests = qps * dt;
        let m = ctx.dstate[li].acc.svc_entry(service);
        m.requests += requests;
        m.violations += requests * p_violation;
        m.p99_stats.record(p99);
    }
    // Failover traffic served here counts toward the reroute ledger.
    let extra = ctx.dstate[li].extra_qps.min(qps);
    if extra > 0.0 {
        ctx.dstate[li].acc.rerouted_requests += extra * dt;
    }

    // --- Warm-standby accounting. ---
    // The served *demand mass* is booked on the covered device's lane
    // (the only lane that tracks the stash QPS exactly); the host
    // charges the standing reserve and records latency quality.
    let dev = &ctx.devices[li];
    if let Some(s) = dev.standby() {
        // The reserved slice is charged for the whole span, active
        // or idle: the pool's standing GPU% cost.
        let reserved = s.reserve_fraction * dt;
        if s.is_active() {
            let (s_service, s_batch) = (s.service, s.batch);
            let s_frac = (s.reserve_fraction * pf).max(0.01);
            let (s_colo_buf, s_colo_n) = dev.colo_for_standby_buf();
            let s_colo = &s_colo_buf[..s_colo_n];
            let (_s_mean, _s_sigma, s_p99) =
                dev.standby_latency_profile(ctx.gt, s_service, s_batch, s_frac, s_colo);
            let acc = &mut ctx.dstate[li].acc;
            acc.svc_entry(s_service).p99_stats.record(s_p99);
        }
        ctx.dstate[li].acc.standby_reserved_gpu_secs += reserved;
    }

    // --- Training progress. ---
    if !ctx.dstate[li].training_paused {
        // Pooled scratch: empty between events, capacity retained.
        let mut advanced = std::mem::take(&mut ctx.lane.scratch_advance);
        let dev = &ctx.devices[li];
        for proc in dev.trainings() {
            // A restarting process makes no progress until its
            // restart completes; clip the span accordingly.
            let run_dt = match ctx.dstate[li]
                .restarting
                .iter()
                .find(|(id, _)| *id == proc.id)
            {
                Some(&(_, until)) => now.since(until.max(span_start)).as_secs().max(0.0),
                None => dt,
            };
            if run_dt <= 0.0 {
                continue;
            }
            let (view, vn) = dev.colo_for_training_buf(proc.id);
            let eff = (proc.gpu_fraction * pf).max(1e-3);
            let iter = ctx.gt.training_iteration(proc.task, eff, &view[..vn]);
            let slow = dev.memory().training_slowdown(proc.id);
            // Checkpoint writes steal a fixed fraction of the run
            // time (1.0 when writes are free).
            let ck_eff = ctx
                .ckpt
                .get(proc.id.0 as usize)
                .map_or(1.0, |c| c.efficiency());
            advanced.push((proc.id, run_dt * ck_eff / (iter * slow), run_dt));
        }
        for &(rid, iters, run_dt) in &advanced {
            // The job/checkpoint tables are shared: defer. The
            // resident's own counter advances in-lane so this lane's
            // subsequent spans see fresh colocation state.
            ctx.push_msg(
                now,
                d,
                OutMsg::Progress {
                    job: JobId(rid.0),
                    iters,
                    run_dt,
                },
            );
            if let Some(proc) = ctx.devices[li].training_mut(rid) {
                proc.advance(iters as u64);
            }
        }
        advanced.clear();
        ctx.lane.scratch_advance = advanced;
    }

    // Utilization integrators see the (constant) current state.
    ctx.devices[li].record_utilization(ctx.gt, now, configured_mean);
}

/// A replica's QPS segment rolls over and the Monitor (§5.3.2) decides
/// whether it is retuned.
pub(super) fn on_qps_change(ctx: &mut LaneCtx, now: SimTime, d: usize) {
    accrue(ctx, now, d);
    let li = d - ctx.base;
    let (dwell, raw_qps) = ctx.dstate[li].qps_gen.next_segment();
    let burst = ctx.config.burst_multiplier(now);
    let rate_scale = ctx
        .gt
        .zoo()
        .service(ctx.dstate[li].service)
        .request_rate_scale();
    let qps = raw_qps * ctx.config.load_multiplier * burst * rate_scale;
    if !ctx.devices[li].is_up() {
        // The replica is down but demand keeps fluctuating. If the
        // traffic was not failed over, the drop rate follows demand;
        // if it was, survivors keep serving the frozen failover
        // share and the new demand level applies at repair.
        if ctx.dstate[li].rerouted.is_empty() {
            if let Some(stash) = ctx.dstate[li].stashed_inference.as_mut() {
                stash.qps = qps;
            }
            // An active standby keeps tracking the demand it covers.
            // The host may live on another lane: deferred, with the
            // host's liveness re-checked at the barrier.
            if let Some(h) = ctx.dstate[li].standby_host {
                ctx.push_msg(now, d, OutMsg::StandbyQps { host: h, qps });
            }
        }
        ctx.schedule(
            now + dwell.max(SimDuration::from_secs(0.5)),
            LaneEvent::QpsChange(d),
        );
        return;
    }
    let extra = ctx.dstate[li].extra_qps;
    ctx.devices[li].set_inference_qps(ctx.gt, now, qps + extra);

    // Monitor check (§5.3.2): QPS drift or SLO risk retunes.
    let ds = &mut ctx.dstate[li];
    if let Some(trigger) = ds
        .monitor
        .check(now, qps, ds.last_p99, ds.last_util, ds.last_pviol)
    {
        reconfigure(ctx, now, d, trigger);
    }

    // Cap the next dwell so bursts (Fig. 16) are noticed promptly.
    let mut next = dwell;
    if let Some(b) = &ctx.config.burst {
        if let Some(t) = b.next_change_after(now) {
            next = next.min(t - now + SimDuration::from_secs(0.1));
        }
    }
    ctx.schedule(
        now + next.max(SimDuration::from_secs(0.5)),
        LaneEvent::QpsChange(d),
    );
}

/// The Retune heartbeat fires for a paused device: re-evaluate, and
/// evict training that is stuck
/// ([`super::state::DeviceState::training_stuck`]).
pub(super) fn on_retune(ctx: &mut LaneCtx, now: SimTime, d: usize) {
    let li = d - ctx.base;
    ctx.dstate[li].retune_pending = false;
    if ctx.dstate[li].training_paused {
        reconfigure(ctx, now, d, TuneTrigger::Paused);
        // Systems without unified-memory swapping can stay
        // overcommitted indefinitely (e.g. a static split that never
        // shrinks); after 30 simulated minutes the operator evicts
        // the training task back to the queue, as a real cluster
        // would. Eviction requeues into shared state: deferred, with
        // the stuck condition re-validated at the barrier.
        if ctx.dstate[li].training_stuck(now, ctx.config.system.manages_memory()) {
            ctx.push_msg(now, d, OutMsg::EvictStuck { device: d });
        }
    }
}

/// The end-to-end P99 a latency monitor would measure on device
/// `d`: batch P99 plus tail fill wait, inflated by queueing once
/// utilization approaches 1 (feedback systems like GSLICE consume
/// this signal).
pub(super) fn observed_p99(ctx: &LaneCtx, d: usize) -> Option<f64> {
    let li = d - ctx.base;
    let p99 = ctx.dstate[li].last_p99?;
    let inf = ctx.devices[li].inference()?;
    let fill = if inf.qps > 0.0 {
        inf.batch as f64 / inf.qps
    } else {
        0.0
    };
    let queue_factor = 1.0 + 10.0 * (ctx.dstate[li].last_util - 0.85).max(0.0);
    Some((p99 + fill * 5.0 / 6.0) * queue_factor)
}

/// Runs the system's configure step for device `d` and applies the
/// decision: batch (free), fraction (visible downtime accounted as
/// violated requests), training pause state, and memory effects.
///
/// The tuner runs on the lane's own system replica and draws from the
/// device's `retune_rng` substream — the draws depend only on
/// `(seed, device, draw index)`, never on cross-device ordering. Its
/// proposals go through the session memo
/// ([`super::state::SessionMemo::memos`]), and the pass is counted
/// under `trigger` on the lane.
pub(super) fn reconfigure(ctx: &mut LaneCtx, now: SimTime, d: usize, trigger: TuneTrigger) {
    let li = d - ctx.base;
    if !ctx.devices[li].is_up() {
        return; // Nothing to tune on a down device.
    }
    ctx.lane.tune_passes[trigger as usize] += 1;
    accrue(ctx, now, d);
    // The task list rides in a pooled vector (taken here, returned
    // after configure) so a steady-state retune never allocates.
    let mut tasks = std::mem::take(&mut ctx.lane.scratch_tasks);
    let measured_p99 = observed_p99(ctx, d);
    let dev = &ctx.devices[li];
    let key_before = retune_key(dev);
    let inf = dev.inference().expect("replica deployed");
    tasks.extend(dev.trainings().iter().map(|t| t.task));
    let view = DeviceView {
        device: d,
        service: inf.service,
        qps: inf.qps,
        slo_secs: ctx.gt.zoo().service(inf.service).slo_secs(),
        tasks,
        batch: inf.batch,
        fraction: inf.gpu_fraction,
        measured_p99,
        mem_headroom_gb: dev.memory().capacity_gb() - dev.memory().total_demand_gb(),
    };
    let qps = inf.qps;
    let old_fraction = inf.gpu_fraction;
    let memos = ctx.session_memo.memos(&mut ctx.lane.search);
    let mut decision: ConfigDecision =
        ctx.lane
            .system
            .configure(ctx.gt, &view, &mut ctx.dstate[li].retune_rng, memos);
    let mut tasks = view.tasks;
    tasks.clear();
    ctx.lane.scratch_tasks = tasks;
    if decision.bo_iterations > 0 {
        // The BO history is a shared run-level ledger: defer, so it
        // lands in (time, device, seq) order at the barrier.
        ctx.push_msg(
            now,
            d,
            OutMsg::Bo {
                iters: u8::try_from(decision.bo_iterations)
                    .expect("the tuner caps a pass at 255 iterations"),
            },
        );
    }
    // A standby's reserved slice is invisible to the tuner; clamp so
    // the primary plus the reserve never overcommits the device.
    decision.clamp_for_reserve(ctx.devices[li].standby_reserve());

    // Apply the batch (free) and memory demand.
    ctx.devices[li].set_inference_batch(ctx.gt, now, decision.batch);

    // Apply the fraction; a change costs visible downtime, accrued
    // as violated requests at the current QPS. Hysteresis: tiny
    // adjustments are not worth an instance hand-off — keep the old
    // partition unless the move exceeds 5 GPU-percentage points or
    // shrinks below a requirement increase.
    if (decision.fraction - old_fraction).abs() > 0.05
        || (decision.fraction > old_fraction && decision.pause_training)
    {
        ctx.devices[li].set_inference_fraction(decision.fraction);
        let downtime = match ctx.config.system {
            SystemKind::Gslice | SystemKind::Gpulets | SystemKind::MuxFlow => {
                SimDuration::from_secs(1.0)
            }
            _ => SimDuration::from_secs(SHADOW_SWITCH_SECS),
        };
        let svc = ctx.devices[li].inference().expect("replica").service;
        let lost = qps * downtime.as_secs();
        let m = ctx.dstate[li].acc.svc_entry(svc);
        m.requests += lost;
        m.violations += lost;
        ctx.push_trace(
            now,
            d,
            OutMsg::RetuneApplied {
                batch: decision.batch,
                old_fraction,
                new_fraction: decision.fraction,
                pause_training: decision.pause_training,
            },
        );
    } else {
        ctx.push_trace(
            now,
            d,
            OutMsg::RetuneRejected {
                fraction_delta: decision.fraction - old_fraction,
            },
        );
    }
    ctx.dstate[li].training_share_cap = decision.training_share_cap;
    // The SLO circuit-breaker sheds best-effort training share while
    // the device is post-failure degraded.
    let cap = ctx.dstate[li].applied_share_cap(now);
    ctx.devices[li].rebalance_training_fractions(cap);
    // A retune that moved the primary's profile key, or that finds its
    // route hint stale, writes the hint fresh, so the request path
    // reads this device from the table until its next key-changing
    // write. One that kept the key keeps a fresh hint as it is.
    if retune_key(&ctx.devices[li]) != key_before || ctx.route_hints[li].is_stale() {
        ctx.refresh_route(d);
    }

    // Pause bookkeeping: SLO infeasibility (any system) or memory
    // overflow (systems without Mudi's Memory Manager). A paused
    // device re-evaluates soon — pausing is meant to be transient
    // ("until suitable resources become available", §5.3.2).
    ctx.dstate[li].training_paused = decision.pause_training;
    refresh_memory_pause(ctx, now, d);
    if ctx.dstate[li].training_paused {
        if ctx.dstate[li].paused_since.is_none() {
            ctx.dstate[li].paused_since = Some(now);
        }
        schedule_retune(ctx, now, d);
    } else {
        ctx.dstate[li].paused_since = None;
    }
    ctx.dstate[li].monitor.mark_tuned(qps);
    reschedule_completions(ctx, now, d);
}

/// The parts of a primary's profile key a retune writes: its batch,
/// its GPU share and the co-located training shares (as bits).
fn retune_key(dev: &GpuDevice) -> (Option<(u32, u64)>, [u64; MAX_TRAININGS_PER_GPU]) {
    let mut shares = [0; MAX_TRAININGS_PER_GPU];
    for (bits, t) in shares.iter_mut().zip(dev.trainings()) {
        *bits = t.gpu_fraction.to_bits();
    }
    let primary = dev.inference().map(|i| (i.batch, i.gpu_fraction.to_bits()));
    (primary, shares)
}

/// For systems without unified-memory swapping, training cannot run
/// while the device is overcommitted.
pub(super) fn refresh_memory_pause(ctx: &mut LaneCtx, now: SimTime, d: usize) {
    let li = d - ctx.base;
    if !ctx.config.system.manages_memory() && ctx.devices[li].memory().is_overflowed() {
        if !ctx.dstate[li].training_paused {
            ctx.dstate[li].training_paused = true;
            // Keep the original pause start across reconfigure's
            // transient unpause/repause so eviction can trigger.
            if ctx.dstate[li].paused_since.is_none() {
                ctx.dstate[li].paused_since = Some(now);
            }
            // Memory pauses need their own re-evaluation heartbeat:
            // nothing else may touch this device for a long time.
            schedule_retune(ctx, now, d);
        }
    } else if !ctx.config.system.manages_memory() {
        // Overflow cleared: resume unless paused for SLO reasons —
        // heuristic systems only pause for memory.
        ctx.dstate[li].training_paused = false;
        ctx.dstate[li].paused_since = None;
    }
}

/// Schedules a single pending Retune heartbeat for `d` (lane-local).
pub(super) fn schedule_retune(ctx: &mut LaneCtx, now: SimTime, d: usize) {
    let li = d - ctx.base;
    if !ctx.dstate[li].retune_pending {
        ctx.dstate[li].retune_pending = true;
        ctx.schedule(now + SimDuration::from_secs(60.0), LaneEvent::Retune(d));
    }
}

/// Re-derives completion events for every training resident on `d`
/// from its current progress and rate; bumps the epoch so stale
/// events are ignored. Completions are global events (they touch the
/// job table and the admission queue), so they travel as deferred
/// [`OutMsg::Completion`] envelopes and land on the global queue at
/// the barrier.
pub(super) fn reschedule_completions(ctx: &mut LaneCtx, now: SimTime, d: usize) {
    let li = d - ctx.base;
    ctx.dstate[li].epoch += 1;
    let epoch = ctx.dstate[li].epoch;
    if ctx.dstate[li].training_paused {
        return; // No completion while paused; resume reschedules.
    }
    let pf = ctx.devices[li].perf_factor();
    if pf <= 0.0 {
        return; // Down: completions resume at repair.
    }
    // Pooled scratch: empty between events, capacity retained.
    let mut to_schedule = std::mem::take(&mut ctx.lane.scratch_schedule);
    {
        let dev = &ctx.devices[li];
        for proc in dev.trainings() {
            let job = &ctx.jobs[proc.id.0 as usize];
            let (view, vn) = dev.colo_for_training_buf(proc.id);
            let eff = (proc.gpu_fraction * pf).max(1e-3);
            let iter = ctx.gt.training_iteration(proc.task, eff, &view[..vn]);
            let slow = dev.memory().training_slowdown(proc.id);
            let ck_eff = ctx
                .ckpt
                .get(proc.id.0 as usize)
                .map_or(1.0, |c| c.efficiency());
            let mut remaining = job.remaining_iterations() * iter * slow / ck_eff;
            // A restarting process only resumes once its restart ends.
            if let Some(&(_, until)) = ctx.dstate[li]
                .restarting
                .iter()
                .find(|(id, _)| *id == proc.id)
            {
                remaining += until.since(now).as_secs().max(0.0);
            }
            to_schedule.push((proc.id, remaining.max(1e-3)));
        }
    }
    for &(rid, secs) in &to_schedule {
        ctx.push_msg(
            now,
            d,
            OutMsg::Completion {
                job: JobId(rid.0),
                epoch,
                at: now + SimDuration::from_secs(secs),
            },
        );
    }
    to_schedule.clear();
    ctx.lane.scratch_schedule = to_schedule;
}

// ----------------------------------------------------------------------
// Serial-phase entry points.
// ----------------------------------------------------------------------

impl Control {
    /// Serial-phase accrual for device `d` (lane view + instant drain).
    pub fn accrue(&self, st: &mut SimState, now: SimTime, d: usize) {
        st.with_lane_of(d, |ctx| accrue(ctx, now, d));
    }

    /// Serial-phase reconfigure for device `d`.
    pub fn reconfigure(&self, st: &mut SimState, now: SimTime, d: usize, trigger: TuneTrigger) {
        st.with_lane_of(d, |ctx| reconfigure(ctx, now, d, trigger));
    }

    /// Serial-phase memory-pause refresh for device `d`.
    pub fn refresh_memory_pause(&self, st: &mut SimState, now: SimTime, d: usize) {
        st.with_lane_of(d, |ctx| refresh_memory_pause(ctx, now, d));
    }

    /// Serial-phase completion rescheduling for device `d`.
    pub fn reschedule_completions(&self, st: &mut SimState, now: SimTime, d: usize) {
        st.with_lane_of(d, |ctx| reschedule_completions(ctx, now, d));
    }

    /// A training job's completion event fires. Returns the finish
    /// time when the job actually finished (the stepper tracks the
    /// last finish for the makespan).
    pub fn on_completion(
        &self,
        st: &mut SimState,
        now: SimTime,
        job: JobId,
        epoch: u64,
    ) -> Option<SimTime> {
        let device = st.jobs[job.0 as usize].device?;
        if st.dstate[device].epoch != epoch {
            return None; // Stale event; a reconfiguration rescheduled it.
        }
        // The owning lane may have stepped past `now` this window.
        let t = st.dev_time(device, now);
        self.accrue(st, t, device);
        let j = &st.jobs[job.0 as usize];
        if j.remaining_iterations() > 1.0 {
            // Progress drifted from the estimate (noise, pauses,
            // barrier quantization): reschedule from the true
            // remaining work.
            self.reschedule_completions(st, t, device);
            return None;
        }
        let rid = ResidentId(job.0);
        st.device_mut(device).0.remove_training(t, rid);
        st.jobs[job.0 as usize].finish(t);
        let cap = st.dstate[device].applied_share_cap(t);
        st.device_mut(device).0.rebalance_training_fractions(cap);
        self.refresh_memory_pause(st, t, device);
        self.reconfigure(st, t, device, TuneTrigger::TrainingDone);
        Admission.try_dispatch(st, now);
        Some(t)
    }

    /// Periodic cluster-utilization sample (global: reads every
    /// device's integrators).
    ///
    /// The walk over every device is a pure read and dominates the
    /// serial phase at 100k devices, so it fans out over the worker
    /// pool. The chunking is a fixed 4096-device grid — independent of
    /// the shard partition — and the reduction adds chunk partials in
    /// index order, so the sampled means are bit-identical across
    /// every `(shards, workers)` grid point. One worker walks the same
    /// chunk grid without allocating (the kernel's zero-allocation
    /// steady state covers this event).
    pub fn on_util_sample(&self, st: &mut SimState, now: SimTime) {
        const CHUNK: usize = 4096;
        let t0 = std::time::Instant::now();
        let gt = &st.shared.gt;
        let (mut sm, mut mem) = (0.0, 0.0);
        simcore::fan_out(
            st.devices.chunks_mut(CHUNK),
            st.workers,
            |chunk| {
                let (mut cs, mut cm) = (0.0, 0.0);
                for dev in chunk.iter() {
                    cs += dev.sm_utilization(gt);
                    cm += dev.memory().utilization();
                }
                (cs, cm)
            },
            |(cs, cm)| {
                sm += cs;
                mem += cm;
            },
        );
        let n = st.devices.len() as f64;
        st.util_series.push((now.as_secs(), sm / n, mem / n));
        st.phase_sample_secs += t0.elapsed().as_secs_f64();
        if !st.all_done() {
            st.events.schedule_in(
                SimDuration::from_secs(st.config.util_sample_secs),
                GlobalEvent::UtilSample,
            );
        }
    }

    /// Evicts every training resident of `d` back to the pending queue
    /// (keeping their progress), then redistributes them. Serial-only:
    /// touches the job table, the queue, and admission.
    pub fn evict_trainings(&self, st: &mut SimState, now: SimTime, d: usize) {
        self.accrue(st, now, d);
        let ids: Vec<ResidentId> = st.devices[d].trainings().iter().map(|t| t.id).collect();
        st.trace.emit_with(now, || SimEvent::TrainingEvicted {
            device: d,
            jobs: ids.len(),
        });
        for rid in ids {
            st.device_mut(d).0.remove_training(now, rid);
            let job = &mut st.jobs[rid.0 as usize];
            job.state = JobState::Queued;
            job.device = None;
            st.queue.push(JobId(rid.0));
        }
        st.dstate[d].training_paused = false;
        st.dstate[d].paused_since = None;
        st.dstate[d].epoch += 1; // Invalidate stale completions.
        Admission.try_dispatch(st, now);
    }
}

/// Per-token SLO-violation probability for a continuous-batching
/// decode loop: the log-normal iteration latency against the target,
/// under the same >95 % utilization instability ramp as
/// [`violation_probability`] (a saturated loop backs tokens up and
/// eventually violates every one). There is no batch-fill wait term —
/// in continuous batching the next token follows the previous
/// iteration directly. Also prices TTFT misses, with `mean` the
/// chunked-prefill latency and `slo` the TTFT target.
pub fn itl_violation_probability(slo: f64, mean: f64, sigma: f64, util: f64) -> f64 {
    let mut p = if slo <= 0.0 || mean <= 0.0 {
        1.0
    } else {
        lognormal_exceedance(slo, mean, sigma)
    };
    if util > 0.95 {
        p = p.max(((util - 0.95) * 2.5).min(1.0));
    }
    p.clamp(0.0, 1.0)
}

/// The score of `dev`'s active warm standby: `(violation probability,
/// mean, sigma)` of its batch latency at its mirrored QPS, on its
/// reserved slice under the device's current colocation. `None` when
/// the device hosts no active standby. Routing ranks a standby by it,
/// and a promote or mirror refresh freezes its probability into the
/// covered device's [`super::state::DeviceState::standby_pviol`].
pub(super) fn standby_score(gt: &GroundTruth, dev: &GpuDevice) -> Option<(f64, f64, f64)> {
    let s = dev.standby().filter(|s| s.is_active())?;
    let frac = (s.reserve_fraction * dev.perf_factor()).max(0.01);
    let (colo_buf, colo_n) = dev.colo_for_standby_buf();
    let slo = gt.zoo().service(s.service).slo_secs();
    let (mean, sigma, _p99) =
        dev.standby_latency_profile(gt, s.service, s.batch, frac, &colo_buf[..colo_n]);
    let p = violation_probability(s.qps, s.batch, slo, mean, sigma);
    Some((p, mean, sigma))
}

/// Per-request SLO-violation probability under a constant
/// configuration.
///
/// A request waits `u · b/W` for its batch to fill (`u` its position)
/// and then experiences the log-normal batch latency `L · ε`. The
/// probability is averaged over three batch positions; an unstable
/// service (`L ≥ b/W`, batches finishing slower than they form) is
/// driven toward certain violation.
pub fn violation_probability(qps: f64, batch: u32, slo: f64, mean: f64, sigma: f64) -> f64 {
    if qps <= 0.0 {
        return 0.0;
    }
    let fill = batch as f64 / qps;
    let mut p = 0.0;
    // The last position has the smallest budget. When its tail is
    // provably zero, so are the other two, and `p` stays 0.0: the
    // verdict holds only for a positive `mean`, and then it is
    // monotone in the budget.
    let smallest = slo - 5.0 / 6.0 * fill;
    if !(smallest > 0.0 && lognormal_tail_is_zero(smallest, mean, sigma)) {
        for u in [1.0 / 6.0, 0.5, 5.0 / 6.0] {
            let budget = slo - u * fill;
            p += if budget <= 0.0 {
                1.0
            } else {
                lognormal_exceedance(budget, mean, sigma)
            };
        }
    }
    let mut p = p / 3.0;
    // Stability: sustained utilization near or above 1 grows the queue
    // and eventually violates every request; the penalty ramps from
    // 95 % utilization (transient queueing absorbs brief overloads).
    let util = mean / fill;
    if util > 0.95 {
        p = p.max(((util - 0.95) * 2.5).min(1.0));
    }
    p.clamp(0.0, 1.0)
}
