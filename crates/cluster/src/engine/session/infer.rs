//! The session request path: interference-aware replica scoring and
//! per-request latency sampling for classifier and generative
//! services. Draws come from the session's dedicated `serve-infer`
//! stream, so individually routed requests never perturb the kernel's
//! own substreams.

use gpu_sim::GpuDevice;
use simcore::{SimEvent, SimTime};
use workloads::{ColoWorkload, GenerativeProfile, GroundTruth, ServiceId};

use super::super::control::{itl_violation_probability, standby_score, violation_probability};
use super::super::state::SimState;
use super::{ClusterSession, RouteCounters, SessionError};

/// The outcome of one routed inference request.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct InferOutcome {
    /// The service the request addressed.
    pub service: ServiceId,
    /// The replica (device index) that served it.
    pub device: usize,
    /// Whether a promoted warm standby (rather than a primary replica)
    /// served the request.
    pub via_standby: bool,
    /// Sampled end-to-end latency, seconds (batch-fill wait plus the
    /// log-normal batch latency draw).
    pub latency_secs: f64,
    /// The service's SLO, seconds.
    pub slo_secs: f64,
    /// Whether the sampled latency violated the SLO.
    pub violation: bool,
    /// Simulated time the request was served at.
    pub at: SimTime,
}

/// One decoded token's sampled verdict.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TokenVerdict {
    /// Sampled inter-token latency, seconds (log-normal draw at the
    /// replica's steady decode cadence).
    pub latency_secs: f64,
    /// Whether the draw violated the per-token ITL target.
    pub violation: bool,
}

/// The outcome of one routed generative request: a time-to-first-token
/// verdict plus one verdict per decoded token.
#[derive(Clone, Debug, PartialEq)]
pub struct GenInferOutcome {
    /// The service the request addressed.
    pub service: ServiceId,
    /// The replica (device index) that served it.
    pub device: usize,
    /// Whether a promoted warm standby served the request.
    pub via_standby: bool,
    /// Sampled time to first token, seconds (all prefill chunks at the
    /// replica's iteration cadence).
    pub ttft_secs: f64,
    /// The service's TTFT SLO, seconds.
    pub ttft_slo_secs: f64,
    /// Whether the TTFT sample violated its SLO.
    pub ttft_violation: bool,
    /// The per-token ITL target, seconds.
    pub itl_slo_secs: f64,
    /// One verdict per decoded token, in emission order.
    pub tokens: Vec<TokenVerdict>,
    /// Simulated time the request was served at.
    pub at: SimTime,
}

impl GenInferOutcome {
    /// How many of the decoded tokens violated the ITL target.
    pub fn itl_violations(&self) -> usize {
        self.tokens.iter().filter(|t| t.violation).count()
    }
}

impl ClusterSession {
    /// Routes one inference request through the replica selector and
    /// samples its end-to-end latency.
    ///
    /// Candidates are every live replica of the service (plus promoted
    /// standbys covering it); the request goes to the replica with the
    /// lowest predicted violation probability — the same
    /// interference-aware latency model the §5.2 selector scores
    /// placements with — breaking ties by predicted mean latency, then
    /// device index. A replica that provably cannot win is not scored,
    /// which leaves the choice unchanged. The sampled latency is the
    /// batch-fill wait plus a log-normal batch-latency draw from the
    /// ground-truth model at the replica's current configuration.
    pub fn infer(&mut self, service: ServiceId) -> Result<InferOutcome, SessionError> {
        self.check_service(service)?;
        let now = self.now;
        let slo = self.st.shared.gt.zoo().service(service).slo_secs();
        let (device, best) = self.route(service, Scorer::Classifier { slo })?;
        let Candidate {
            mean,
            sigma,
            fill,
            via_standby,
            ..
        } = best;

        // Sample the request: position in the forming batch, then the
        // log-normal batch-latency tail.
        let wait = self.infer_rng.f64() * fill;
        let z = simcore::normal_quantile(self.infer_rng.f64().clamp(1e-12, 1.0 - 1e-12));
        let latency_secs = wait + mean * (sigma * z).exp();
        let violation = latency_secs > slo;

        self.tally(service, device, violation);
        Ok(InferOutcome {
            service,
            device,
            via_standby,
            latency_secs,
            slo_secs: slo,
            violation,
            at: now,
        })
    }

    /// Routes one generative request and samples a per-token outcome:
    /// time to first token (all prefill chunks at the replica's
    /// iteration cadence) plus `max_tokens` decode iterations, each
    /// with its own log-normal inter-token latency draw judged against
    /// the service's ITL target.
    ///
    /// Candidates are scored like [`ClusterSession::infer`], except the
    /// violation probability is the ITL tail at the replica's *steady
    /// running batch* (continuous batching has no batch-fill wait).
    /// Addressing a classifier service is a structured error — the
    /// HTTP layer maps [`SessionError::NotGenerative`] to `400`.
    pub fn infer_tokens(
        &mut self,
        service: ServiceId,
        max_tokens: u32,
    ) -> Result<GenInferOutcome, SessionError> {
        self.check_service(service)?;
        let spec = self.st.shared.gt.zoo().service(service);
        let Some(gp) = spec.generative else {
            return Err(SessionError::NotGenerative(service));
        };
        let itl_slo = spec.slo_secs();
        let now = self.now;
        let (device, best) = self.route(service, Scorer::Generative { gp, itl_slo })?;
        let Candidate {
            mean,
            sigma,
            via_standby,
            ..
        } = best;

        // Sample the request: one draw for the prefill phase (all
        // chunks share the GPU state that produced the draw), then an
        // independent draw per decode iteration.
        let mut draw = |scale: f64| -> f64 {
            let z = simcore::normal_quantile(self.infer_rng.f64().clamp(1e-12, 1.0 - 1e-12));
            scale * (sigma * z).exp()
        };
        let ttft_secs = draw(gp.prefill_iterations() * mean);
        let ttft_slo_secs = gp.ttft_slo_secs();
        let ttft_violation = ttft_secs > ttft_slo_secs;
        let n = max_tokens.clamp(1, 4096) as usize;
        let mut tokens = Vec::with_capacity(n);
        for _ in 0..n {
            let latency_secs = draw(mean);
            tokens.push(TokenVerdict {
                latency_secs,
                violation: latency_secs > itl_slo,
            });
        }

        // Request-level tally mirrors the engine's accounting: the
        // request-weighted violation for a generative service is the
        // TTFT miss.
        self.tally(service, device, ttft_violation);
        Ok(GenInferOutcome {
            service,
            device,
            via_standby,
            ttft_secs,
            ttft_slo_secs,
            ttft_violation,
            itl_slo_secs: itl_slo,
            tokens,
            at: now,
        })
    }

    /// Counts one routed request in the service's API tally and
    /// publishes it on the trace bus.
    fn tally(&mut self, service: ServiceId, device: usize, violation: bool) {
        let (requests, violations) = &mut self.api[service.0];
        *requests += 1;
        *violations += u64::from(violation);
        self.st
            .trace
            .emit_with(self.now, || SimEvent::InferenceRouted {
                service: service.0,
                device,
                violation,
            });
    }

    /// The replica selector shared by both request kinds: the choice
    /// of [`ClusterSession::scan`], kept in the session's route cache
    /// until the next call that can change device state, so repeated
    /// requests between two steps scan the replicas once. Each scan and
    /// each cache hit counts in [`RouteCounters`]; the debug rescan on a
    /// hit does not.
    fn route(
        &mut self,
        service: ServiceId,
        scorer: Scorer,
    ) -> Result<(usize, Candidate), SessionError> {
        let key = 2 * service.0 + scorer.kind();
        if let Some(hit) = self.routes.get(key).copied().flatten() {
            debug_assert!(
                self.scan(service, scorer)
                    .0
                    .is_some_and(|fresh| same_route(hit, fresh)),
                "stale route for service {}: a device-state change did not clear the route cache",
                service.0
            );
            self.route_counters.cached += 1;
            return Ok(hit);
        }
        let (best, counts) = self.scan(service, scorer);
        self.route_counters.add(&counts);
        let best = best.ok_or(SessionError::NoReplica(service))?;
        if self.routes.len() <= key {
            self.routes.resize(key + 1, None);
        }
        self.routes[key] = Some(best);
        Ok(best)
    }

    /// Walks `service`'s roster in order, over every up device that
    /// serves it (its primary replica, or an active standby covering
    /// it), and keeps the first replica with the smallest `(p, mean)`
    /// under a strict `<`: the lowest violation probability, ties
    /// broken by mean latency, then by roster order.
    ///
    /// The walk skips the violation probability of a replica that
    /// cannot win. `p` lies in `[0, 1]`, so once the running best has
    /// `p == 0.0` a candidate wins only with a strictly smaller mean.
    /// A classifier primary whose
    /// [`RouteHint`](super::super::route_hint::RouteHint) is fresh for the
    /// service and whose mean is `>=` the best's is skipped from the
    /// table alone, without reading its device. Any other classifier
    /// primary (a stale entry among them) reads its mean from the
    /// device's profile memo and stops there when the mean is `>=` the
    /// best's; a NaN mean compares false and gets the full score. A
    /// standby keeps its frozen score and a generative replica its full
    /// score (its mean is taken at the steady decode batch), so neither
    /// is skipped. The scan only reads the table: the retune keeps it
    /// fresh. The choice is therefore the one a full scan makes, bit for
    /// bit. Returns the choice (`None` when no replica is up) and the
    /// scan's work counts.
    fn scan(
        &self,
        service: ServiceId,
        scorer: Scorer,
    ) -> (Option<(usize, Candidate)>, RouteCounters) {
        let classifier = matches!(scorer, Scorer::Classifier { .. });
        let mut best: Option<(usize, Candidate)> = None;
        let mut counts = RouteCounters {
            scans: 1,
            ..RouteCounters::default()
        };
        for &d in self.st.roster.of(service) {
            let beat = best.filter(|(_, b)| b.p == 0.0).map(|(_, b)| b.mean);
            if let (true, Some(b)) = (classifier, beat) {
                if let Some(mean) = self.st.route_hints[d].mean_for(service) {
                    if mean >= b {
                        debug_assert!(
                            primary_mean(&self.st, d, service)
                                .is_some_and(|m| m.to_bits() == mean.to_bits()),
                            "stale route hint on device {d} for service {}: a write that \
                             changed its profile key did not mark it",
                            service.0
                        );
                        counts.visited += 1;
                        counts.hinted += 1;
                        continue;
                    }
                }
            }
            let Some(slot) = Slot::of(&self.st.devices[d], service) else {
                continue;
            };
            counts.visited += 1;
            let Score::Full(c) = scorer.score(&self.st, d, service, &slot, beat) else {
                continue;
            };
            counts.scored += 1;
            if best.is_none_or(|(_, b)| (c.p, c.mean) < (b.p, b.mean)) {
                best = Some((d, c));
            }
        }
        (best, counts)
    }
}

/// How a routing decision scores a replica: a generative service can
/// be addressed by either request kind, and the two score its replicas
/// differently.
#[derive(Clone, Copy)]
enum Scorer {
    /// The batch-queue violation probability against the SLO.
    Classifier { slo: f64 },
    /// The inter-token violation probability at the steady decode
    /// batch.
    Generative { gp: GenerativeProfile, itl_slo: f64 },
}

impl Scorer {
    /// The scorer's slot in the route cache key.
    fn kind(self) -> usize {
        match self {
            Scorer::Classifier { .. } => 0,
            Scorer::Generative { .. } => 1,
        }
    }

    /// Scores `service`'s slot on device `d`. `beat` is the mean a
    /// candidate must undercut to win, when the running best has
    /// `p == 0.0` (see [`ClusterSession::scan`]); a classifier primary
    /// that cannot is pruned.
    fn score(
        self,
        st: &SimState,
        d: usize,
        service: ServiceId,
        slot: &Slot,
        beat: Option<f64>,
    ) -> Score {
        match self {
            Scorer::Classifier { slo } => classifier_candidate(st, d, service, slo, slot, beat),
            Scorer::Generative { gp, itl_slo } => {
                Score::Full(generative_candidate(st, d, service, gp, itl_slo, slot))
            }
        }
    }
}

/// A replica's score, or that it cannot win.
enum Score {
    Full(Candidate),
    /// A classifier primary whose profile mean does not undercut the
    /// running best's.
    Pruned,
}

/// Whether two routing decisions agree bit for bit.
fn same_route(a: (usize, Candidate), b: (usize, Candidate)) -> bool {
    let bits = |c: Candidate| {
        (
            [c.p, c.mean, c.sigma, c.fill].map(f64::to_bits),
            c.via_standby,
        )
    };
    a.0 == b.0 && bits(a.1) == bits(b.1)
}

/// A scored routing candidate.
#[derive(Clone, Copy)]
pub(super) struct Candidate {
    /// Predicted violation probability: the routing key.
    p: f64,
    /// Predicted mean (batch or iteration) latency, seconds.
    mean: f64,
    /// Log-normal sigma of the latency draw.
    sigma: f64,
    /// Batch-fill time, seconds (zero under continuous batching).
    fill: f64,
    via_standby: bool,
}

/// The slot a device serves a service from: its primary replica, or an
/// active warm standby covering the service.
struct Slot {
    batch: u32,
    /// Effective GPU share (the configured share times the device's
    /// perf factor, floored at 1%).
    frac: f64,
    qps: f64,
    standby: bool,
}

impl Slot {
    /// `service`'s slot on `dev`, `None` when the device is down or
    /// serves something else.
    fn of(dev: &GpuDevice, service: ServiceId) -> Option<Slot> {
        if !dev.is_up() {
            return None;
        }
        let pf = dev.perf_factor();
        if let Some(inf) = dev.inference().filter(|i| i.service == service) {
            return Some(Slot {
                batch: inf.batch,
                frac: (inf.gpu_fraction * pf).max(0.01),
                qps: inf.qps,
                standby: false,
            });
        }
        let s = dev
            .standby()
            .filter(|s| s.service == service && s.is_active())?;
        Some(Slot {
            batch: s.batch,
            frac: (s.reserve_fraction * pf).max(0.01),
            qps: s.qps,
            standby: true,
        })
    }

    /// Calls `f` with the workloads colocated with this slot on `dev`.
    fn with_colo<R>(&self, dev: &GpuDevice, f: impl FnOnce(&[ColoWorkload]) -> R) -> R {
        if self.standby {
            let (buf, n) = dev.colo_for_standby_buf();
            f(&buf[..n])
        } else {
            dev.with_inference_colo(f)
        }
    }

    /// `(mean, sigma)` at `batch` through the device's memo for this
    /// slot — the same memo accrual reads, bit-identical to the
    /// direct ground-truth calls.
    fn profile(
        &self,
        dev: &GpuDevice,
        gt: &GroundTruth,
        service: ServiceId,
        batch: u32,
        colo: &[ColoWorkload],
    ) -> (f64, f64) {
        let (mean, sigma, _p99) = if self.standby {
            dev.standby_latency_profile(gt, service, batch, self.frac, colo)
        } else {
            dev.latency_profile(gt, service, batch, self.frac, colo)
        };
        (mean, sigma)
    }
}

/// The profile mean of `service`'s primary on `d` at the device's
/// current key, read from the device: what a fresh `RouteHint` must
/// hold. `None` when `d` is down or its primary serves another service.
fn primary_mean(st: &SimState, d: usize, service: ServiceId) -> Option<f64> {
    let dev = &st.devices[d];
    let slot = Slot::of(dev, service).filter(|s| !s.standby)?;
    Some(slot.with_colo(dev, |colo| {
        slot.profile(dev, &st.shared.gt, service, slot.batch, colo)
            .0
    }))
}

/// Scores a classifier slot: the batch-queue violation probability at
/// the slot's configured batch. A primary computes it from its latency
/// profile, unless its mean does not undercut `beat` and so cannot win
/// ([`Score::Pruned`]); a standby takes the score a promote freezes for
/// the device it covers.
fn classifier_candidate(
    st: &SimState,
    d: usize,
    service: ServiceId,
    slo: f64,
    slot: &Slot,
    beat: Option<f64>,
) -> Score {
    let dev = &st.devices[d];
    let (p, mean, sigma) = if slot.standby {
        standby_score(&st.shared.gt, dev).expect("active standby")
    } else {
        let (mean, sigma) = slot.with_colo(dev, |colo| {
            slot.profile(dev, &st.shared.gt, service, slot.batch, colo)
        });
        if beat.is_some_and(|b| mean >= b) {
            return Score::Pruned;
        }
        let p = violation_probability(slot.qps, slot.batch, slo, mean, sigma);
        (p, mean, sigma)
    };
    let fill = if slot.qps > 0.0 {
        slot.batch as f64 / slot.qps
    } else {
        0.0
    };
    Score::Full(Candidate {
        p,
        mean,
        sigma,
        fill,
        via_standby: slot.standby,
    })
}

/// Scores a generative slot: the inter-token violation probability at
/// the slot's steady running decode batch.
fn generative_candidate(
    st: &SimState,
    d: usize,
    service: ServiceId,
    gp: GenerativeProfile,
    itl_slo: f64,
    slot: &Slot,
) -> Candidate {
    let (gt, dev) = (&st.shared.gt, &st.devices[d]);
    let (bsz, (mean, sigma)) = slot.with_colo(dev, |colo| {
        let bsz = gt.steady_decode_batch(service, slot.batch, slot.frac, slot.qps, colo);
        (bsz, slot.profile(dev, gt, service, bsz, colo))
    });
    let tok_rate = slot.qps * gp.decode_tokens_mean;
    let util = if tok_rate > 0.0 {
        mean * tok_rate / bsz as f64
    } else {
        0.0
    };
    Candidate {
        p: itl_violation_probability(itl_slo, mean, sigma, util),
        mean,
        sigma,
        fill: 0.0,
        via_standby: slot.standby,
    }
}

#[cfg(test)]
mod tests {
    use super::super::super::control::Control;
    use super::*;
    use crate::engine::{ClusterConfig, LiveFault, ScalePreset};
    use crate::job::JobId;
    use crate::systems::SystemKind;
    use mudi::TuneTrigger;
    use resilience::{FaultProfile, StandbyPolicy};
    use simcore::{SimDuration, SimRng};

    /// How many routing decisions met each regime the prune must get
    /// right.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    struct Regimes {
        /// Scans that skipped at least one replica's score.
        pruned: u64,
        /// Scans where a classifier primary took the lead from a best
        /// with `p > 0` on `p` alone, its mean no smaller: a prune that
        /// ignored the best's `p` would have skipped it.
        won_on_p: u64,
        /// Scans that visited an active standby.
        standby: u64,
        /// Scans that visited a degraded device.
        degraded: u64,
        /// Scans that skipped a replica on a fresh routing-table entry.
        hinted: u64,
        /// Classifier scans that met a stale routing-table entry of an
        /// up primary, and so read that device.
        stale: u64,
    }

    impl Regimes {
        fn add(&mut self, other: Regimes) {
            self.pruned += other.pruned;
            self.won_on_p += other.won_on_p;
            self.standby += other.standby;
            self.degraded += other.degraded;
            self.hinted += other.hinted;
            self.stale += other.stale;
        }
    }

    /// The scan as first written: every replica fully scored in roster
    /// order, the first smallest `(p, mean)` kept. Also says which
    /// regimes the scan met (the `pruned` count is left to the caller).
    fn unpruned_scan(
        s: &ClusterSession,
        service: ServiceId,
        scorer: Scorer,
    ) -> (Option<(usize, Candidate)>, Regimes) {
        let mut best: Option<(usize, Candidate)> = None;
        let (mut won_on_p, mut standby, mut degraded) = (false, false, false);
        for &d in s.st.roster.of(service) {
            let dev = &s.st.devices[d];
            let Some(slot) = Slot::of(dev, service) else {
                continue;
            };
            let Score::Full(c) = scorer.score(&s.st, d, service, &slot, None) else {
                unreachable!("an unbounded score prunes nothing");
            };
            standby |= slot.standby;
            degraded |= dev.perf_factor() < 1.0;
            if best.is_none_or(|(_, b)| (c.p, c.mean) < (b.p, b.mean)) {
                let prunable = matches!(scorer, Scorer::Classifier { .. }) && !slot.standby;
                won_on_p |= prunable && best.is_some_and(|(_, b)| b.p > 0.0 && c.mean >= b.mean);
                best = Some((d, c));
            }
        }
        let met = Regimes {
            won_on_p: u64::from(won_on_p),
            standby: u64::from(standby),
            degraded: u64::from(degraded),
            ..Regimes::default()
        };
        (best, met)
    }

    /// Routes every service with the classifier scorer, and every
    /// generative one with the token scorer too, through
    /// [`ClusterSession::route`] with a cold cache, checks each choice
    /// against [`unpruned_scan`] bit for bit, and tallies the regimes.
    /// The routing table carries over from the previous call, so a scan
    /// meets both entries the retunes in between left fresh and entries
    /// the other operations marked stale.
    fn route_all_against_the_oracle(s: &mut ClusterSession, regimes: &mut Regimes, at: &str) {
        let services: Vec<_> = s.zoo().services().to_vec();
        for spec in &services {
            let slo = spec.slo_secs();
            let token = spec
                .generative
                .map(|gp| Scorer::Generative { gp, itl_slo: slo });
            for scorer in std::iter::once(Scorer::Classifier { slo }).chain(token) {
                let (want, met) = unpruned_scan(s, spec.id, scorer);
                let before = s.route_counters;
                let stale = matches!(scorer, Scorer::Classifier { .. })
                    && s.st.roster.of(spec.id).iter().any(|&d| {
                        s.st.route_hints[d].is_stale()
                            && Slot::of(&s.st.devices[d], spec.id).is_some_and(|slot| !slot.standby)
                    });
                s.routes.clear();
                let got = s.route(spec.id, scorer).ok();
                let after = s.route_counters;
                let pruned = (after.visited - before.visited) - (after.scored - before.scored);
                assert!(
                    got.is_some() == want.is_some()
                        && got.zip(want).is_none_or(|(g, w)| same_route(g, w)),
                    "{at}: service {} scorer {}: pruned {:?} vs unpruned {:?}",
                    spec.id.0,
                    scorer.kind(),
                    got.map(|(d, c)| (d, c.p, c.mean)),
                    want.map(|(d, c)| (d, c.p, c.mean)),
                );
                regimes.add(Regimes {
                    pruned: u64::from(pruned > 0),
                    hinted: u64::from(after.hinted > before.hinted),
                    stale: u64::from(stale),
                    ..met
                });
            }
        }
    }

    /// One random live operation.
    #[derive(Clone, Copy, Debug)]
    enum Op {
        Step(f64),
        Fail(usize, f64),
        Slowdown(usize, f64),
        /// Fails every up primary of a service: the first comes back
        /// after a minute, the rest stay down, so the last one's traffic
        /// moves to a promoted standby that then serves beside the
        /// repaired primary.
        Blackout(usize),
        /// Gives every up primary of a service the first one's batch and
        /// GPU share, and the `k`-th in roster order the load that puts
        /// its utilization at `util + k * step`: replicas with equal
        /// means (those without co-located work) whose scores differ,
        /// saturated so that `p > 0`.
        Saturate(usize, f64, f64),
        /// Scales a service to a replica count, repinning devices.
        Scale(usize, usize),
        /// Evicts the training of the `k`-th device (mod their count)
        /// that holds some back to the queue, which places it again.
        Evict(usize),
        /// Completes the first training job of the `k`-th device (mod
        /// their count) that holds some, which frees its slot and
        /// places the next queued job.
        Complete(usize),
    }

    fn random_op(rng: &mut SimRng, devices: usize, services: usize) -> Op {
        match rng.uniform_usize(0, 9) {
            0..=2 => Op::Step(rng.uniform(30.0, 400.0)),
            3 | 4 => Op::Fail(rng.uniform_usize(0, devices), rng.uniform(60.0, 3000.0)),
            5 | 6 => Op::Slowdown(rng.uniform_usize(0, devices), rng.uniform(0.2, 0.9)),
            7 => Op::Blackout(rng.uniform_usize(0, services)),
            _ => Op::Saturate(
                rng.uniform_usize(0, services),
                rng.uniform(0.9, 1.3),
                rng.uniform(-0.05, 0.05),
            ),
        }
    }

    /// One random operation that moves replicas or training: the
    /// routing-table invalidations no fault or step is sure to reach.
    fn churn_op(rng: &mut SimRng, devices: usize, services: usize) -> Op {
        match rng.uniform_usize(0, 4) {
            0 => Op::Scale(rng.uniform_usize(0, services), rng.uniform_usize(1, 9)),
            1 => Op::Evict(rng.uniform_usize(0, devices)),
            2 => Op::Complete(rng.uniform_usize(0, devices)),
            _ => Op::Step(rng.uniform(30.0, 400.0)),
        }
    }

    /// The `k`-th device (mod their count) that holds training.
    fn training_device(st: &SimState, k: usize) -> Option<usize> {
        let held: Vec<usize> = (0..st.devices.len())
            .filter(|&d| !st.devices[d].trainings().is_empty())
            .collect();
        (!held.is_empty()).then(|| held[k % held.len()])
    }

    fn apply(s: &mut ClusterSession, op: Op) {
        match op {
            Op::Step(secs) => {
                s.step_until(s.now() + SimDuration::from_secs(secs));
            }
            Op::Fail(d, repair_secs) => {
                // A device that is already down rejects the fault.
                let _ = s.inject_fault(d, LiveFault::DeviceFailure { repair_secs });
            }
            Op::Slowdown(d, factor) => {
                let _ = s.inject_fault(
                    d,
                    LiveFault::Slowdown {
                        factor,
                        duration_secs: 900.0,
                    },
                );
            }
            Op::Blackout(svc) => {
                let up: Vec<usize> = s.st.up_primaries(ServiceId(svc)).collect();
                for (i, d) in up.into_iter().enumerate() {
                    let repair_secs = if i == 0 { 60.0 } else { 5000.0 };
                    s.inject_fault(d, LiveFault::DeviceFailure { repair_secs })
                        .expect("an up device takes the fault");
                }
                s.step_until(s.now() + SimDuration::from_secs(90.0));
            }
            Op::Saturate(svc, util, step) => {
                let svc = ServiceId(svc);
                let (st, now) = s.state_mut();
                let primaries: Vec<usize> = st.up_primaries(svc).collect();
                let Some(inf) = primaries.first().and_then(|&d| st.devices[d].inference()) else {
                    return;
                };
                let (batch, fraction) = (inf.batch, inf.gpu_fraction);
                for (k, &d) in primaries.iter().enumerate() {
                    let (dev, gt) = st.device_mut(d);
                    dev.set_inference_batch(gt, now, batch);
                    dev.set_inference_fraction(fraction);
                    let slot = Slot::of(dev, svc).expect("an up primary");
                    let mean =
                        slot.with_colo(dev, |colo| slot.profile(dev, gt, svc, batch, colo).0);
                    let qps = (util + k as f64 * step) * batch as f64 / mean;
                    dev.set_inference_qps(gt, now, qps.max(0.0));
                }
            }
            Op::Scale(svc, target) => {
                s.scale_service(ServiceId(svc), target)
                    .expect("a known service");
            }
            Op::Evict(k) => {
                let (st, now) = s.state_mut();
                let Some(d) = training_device(st, k) else {
                    return;
                };
                let t = st.dev_time(d, now);
                Control.evict_trainings(st, t, d);
            }
            Op::Complete(k) => {
                let (st, now) = s.state_mut();
                let Some(d) = training_device(st, k) else {
                    return;
                };
                let rid = st.devices[d].trainings()[0].id;
                let job = &mut st.jobs[rid.0 as usize];
                job.completed_iterations = job.total_iterations as f64;
                let epoch = st.dstate[d].epoch;
                Control
                    .on_completion(st, now, JobId(rid.0), epoch)
                    .expect("the job finishes");
            }
        }
    }

    /// A random session (seed, size, co-located training, load, warm
    /// standbys under faults) and 8 random live operations, then 4 that
    /// move replicas or training: draw `case` of the property `name`.
    struct CaseDraw {
        seed: u64,
        devices: usize,
        jobs: usize,
        load: f64,
        ops: Vec<Op>,
    }

    impl CaseDraw {
        fn new(name: &str, case: u32) -> Self {
            let mut draw = proptest::TestRng::for_case(name, case);
            let seed = draw.next_u64();
            let devices = 24 + draw.below(25) as usize;
            let jobs = draw.below(40) as usize;
            // Up to 6x the base load, where saturated replicas score p > 0.
            let load = 1.0 + 5.0 * draw.next_f64();
            let mut rng = SimRng::seed(draw.next_u64());
            let mut ops: Vec<Op> = (0..8).map(|_| random_op(&mut rng, devices, 8)).collect();
            ops.extend((0..4).map(|_| churn_op(&mut rng, devices, 8)));
            CaseDraw {
                seed,
                devices,
                jobs,
                load,
                ops,
            }
        }

        /// The drawn session at `(shards, workers)`, stepped to 120 s.
        fn session(&self, shards: usize, workers: usize) -> ClusterSession {
            let mut faults = FaultProfile::scaled(20.0);
            faults.recovery.standby = StandbyPolicy::warm(1);
            let cfg = ClusterConfig::builder(ScalePreset::Tiny, SystemKind::Mudi, self.seed)
                .devices(self.devices)
                .jobs(self.jobs)
                .load_multiplier(self.load)
                .llm_services(true)
                .shards(shards)
                .workers(workers)
                .shard_epoch_secs(30.0)
                .build()
                .with_faults(faults);
            let mut s = ClusterSession::new_scaled(cfg, 0.002);
            s.step_until(SimTime::from_secs(120.0));
            s
        }
    }

    /// Draw `case` of the oracle property, replayed at (shards,
    /// workers) = (1, 1) and (4, 2). Before and after every operation
    /// each service is routed with each scorer and checked against the
    /// unpruned scan. Returns the regimes the draw met.
    fn oracle_case(case: u32) -> Regimes {
        let draw = CaseDraw::new("route_oracle", case);
        let mut regimes = None;
        for (shards, workers) in [(1, 1), (4, 2)] {
            let mut s = draw.session(shards, workers);
            let at = |i: usize| format!("case {case} at ({shards}, {workers}) after op {i}");
            let mut met = Regimes::default();
            route_all_against_the_oracle(&mut s, &mut met, &at(0));
            for (i, &op) in draw.ops.iter().enumerate() {
                apply(&mut s, op);
                route_all_against_the_oracle(&mut s, &mut met, &at(i + 1));
            }
            let first = *regimes.get_or_insert(met);
            assert_eq!(
                met, first,
                "case {case}: the regimes differ across the grid"
            );
        }
        regimes.expect("two grid points")
    }

    /// The pruned scan picks the same replica with the same candidate
    /// bits as the unpruned scan, for both request kinds, on random
    /// sessions.
    #[test]
    fn pruned_route_matches_the_unpruned_scan() {
        for case in 0..proptest::cases_or(6) {
            oracle_case(case);
        }
    }

    /// The routing counters on a fixed script: each request the route
    /// cache cannot answer scans once, a repeat between two steps scans
    /// nothing, and the counts are the same at every grid point.
    #[test]
    fn route_counters_pin_a_fixed_script() {
        for (shards, workers) in [(1, 1), (4, 2)] {
            let cfg = ClusterConfig::builder(ScalePreset::Tiny, SystemKind::Mudi, 11)
                .devices(32)
                .jobs(12)
                .llm_services(true)
                .shards(shards)
                .workers(workers)
                .shard_epoch_secs(30.0)
                .build();
            let mut s = ClusterSession::new_scaled(cfg, 0.002);
            let services: Vec<_> = s.zoo().services().to_vec();
            for horizon in [600.0, 900.0] {
                s.step_until(SimTime::from_secs(horizon));
                for spec in &services {
                    for _ in 0..2 {
                        s.infer(spec.id).expect("a replica");
                        if spec.is_generative() {
                            s.infer_tokens(spec.id, 4).expect("a replica");
                        }
                    }
                }
            }
            // Two horizons, eight services and two generative ones: 20
            // scans of four replicas each, and 20 repeats the route
            // cache answers. The classifier scans answer 21 visits from
            // the routing table the retunes left fresh.
            assert_eq!(
                s.phase_profile().routing,
                RouteCounters {
                    scans: 20,
                    cached: 20,
                    visited: 80,
                    hinted: 21,
                    scored: 59,
                },
                "at ({shards}, {workers})"
            );
        }
    }

    /// The oracle's first draws reach every regime the prune has to get
    /// right, whatever `PROPTEST_CASES` says.
    #[test]
    fn oracle_draws_reach_every_regime() {
        let mut total = Regimes::default();
        for case in 0..4 {
            total.add(oracle_case(case));
        }
        assert!(total.pruned > 0, "{total:?}");
        assert!(total.won_on_p > 0, "{total:?}");
        assert!(total.standby > 0, "{total:?}");
        assert!(total.degraded > 0, "{total:?}");
        assert!(total.hinted > 0, "{total:?}");
        assert!(total.stale > 0, "{total:?}");
    }

    /// The routing table as `(service, mean bits)` per device, `None`
    /// where stale, after asserting that every fresh entry bit-equals
    /// its primary's mean read from the device.
    fn checked_table(s: &ClusterSession, at: &str) -> Vec<Option<(usize, u64)>> {
        (0..s.st.devices.len())
            .map(|d| {
                let entry = s.st.route_hints[d].entry();
                if let Some((service, mean)) = entry {
                    assert_eq!(
                        primary_mean(&s.st, d, service).map(f64::to_bits),
                        Some(mean.to_bits()),
                        "{at}: device {d}'s fresh entry for service {}",
                        service.0
                    );
                }
                entry.map(|(service, mean)| (service.0, mean.to_bits()))
            })
            .collect()
    }

    /// On random sessions, after every operation of the oracle's kinds,
    /// each fresh routing-table entry equals its device's primary mean
    /// bit for bit, and the whole table is the same at (1, 1) and
    /// (4, 2).
    #[test]
    fn route_table_matches_its_devices() {
        for case in 0..proptest::cases_or(6) {
            let draw = CaseDraw::new("route_table", case);
            let mut tables = Vec::new();
            for (shards, workers) in [(1, 1), (4, 2)] {
                let mut s = draw.session(shards, workers);
                let at = |i: usize| format!("case {case} at ({shards}, {workers}) after op {i}");
                let mut table = vec![checked_table(&s, &at(0))];
                for (i, &op) in draw.ops.iter().enumerate() {
                    apply(&mut s, op);
                    table.push(checked_table(&s, &at(i + 1)));
                }
                assert!(
                    table.iter().flatten().any(Option::is_some),
                    "case {case}: no entry was ever fresh"
                );
                tables.push(table);
            }
            assert!(
                tables[0] == tables[1],
                "case {case}: the table differs across the grid"
            );
        }
    }

    /// A retune that moves its primary's key leaves the device's entry
    /// fresh at the new key. A serial write then marks it stale, and a
    /// routed request leaves it so, until the device's next retune.
    #[test]
    fn retune_leaves_its_route_entry_fresh() {
        let cfg = ClusterConfig::builder(ScalePreset::Tiny, SystemKind::Mudi, 11)
            .devices(32)
            .jobs(12)
            .shard_epoch_secs(30.0)
            .build();
        let mut s = ClusterSession::new_scaled(cfg, 0.002);
        s.step_until(SimTime::from_secs(600.0));
        let (st, now) = s.state_mut();
        // Triple a primary's QPS, which marks nothing, and retune it,
        // until a retune moves the batch or the GPU share.
        let key = |st: &SimState, d: usize| {
            st.devices[d]
                .inference()
                .map(|i| (i.batch, i.gpu_fraction.to_bits()))
        };
        let d = (0..st.devices.len())
            .find(|&d| {
                if !st.devices[d].is_up() || st.devices[d].inference().is_none() {
                    return false;
                }
                let before = key(st, d);
                let t = st.dev_time(d, now);
                let qps = 3.0 * st.devices[d].inference().expect("a primary").qps;
                st.devices[d].set_inference_qps(&st.shared.gt, t, qps);
                Control.reconfigure(st, t, d, TuneTrigger::QpsChange);
                key(st, d) != before
            })
            .expect("a retune that moves its key");
        let service = st.devices[d].inference().expect("a primary").service;
        let fresh = |st: &SimState| {
            let mean = st.route_hints[d].mean_for(service)?;
            let want = primary_mean(st, d, service)?;
            Some(mean.to_bits() == want.to_bits())
        };
        assert_eq!(fresh(st), Some(true), "after the key-moving retune");

        st.device_mut(d);
        assert!(st.route_hints[d].is_stale(), "after a serial write");
        s.infer(service).expect("a replica");
        assert!(s.st.route_hints[d].is_stale(), "after a routed request");

        let (st, now) = s.state_mut();
        let t = st.dev_time(d, now);
        Control.reconfigure(st, t, d, TuneTrigger::QpsChange);
        assert_eq!(fresh(st), Some(true), "after the next retune");
    }
}
