//! The session request path: interference-aware replica scoring and
//! per-request latency sampling for classifier and generative
//! services. Draws come from the session's dedicated `serve-infer`
//! stream, so individually routed requests never perturb the kernel's
//! own substreams.

use gpu_sim::device::COLO_VIEW_MAX;
use gpu_sim::GpuDevice;
use simcore::{SimEvent, SimTime};
use workloads::{ColoWorkload, GenerativeProfile, GroundTruth, ServiceId};

use super::super::control::{itl_violation_probability, standby_score, violation_probability};
use super::super::state::SimState;
use super::{ClusterSession, SessionError};

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
    /// device index. The sampled latency is the batch-fill wait plus a
    /// log-normal batch-latency draw from the ground-truth model at the
    /// replica's current configuration.
    pub fn infer(&mut self, service: ServiceId) -> Result<InferOutcome, SessionError> {
        self.check_service(service)?;
        let now = self.now;
        let slo = self.st.shared.gt.zoo().service(service).slo_secs();
        let (device, best) = self.route(service, RouteKind::Classifier, |st, d, slot| {
            classifier_candidate(st, d, service, slo, slot)
        })?;
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
        let (device, best) = self.route(service, RouteKind::Generative, |st, d, slot| {
            generative_candidate(st, d, service, gp, itl_slo, slot)
        })?;
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

    /// The replica selector shared by both request kinds: scores every
    /// up device that serves `service` (its primary replica, or an
    /// active standby covering it) and keeps the lowest
    /// `(p_violation, mean)`, breaking exact ties by device index.
    /// The choice is kept in the session's route cache until the
    /// next call that can change device state, so repeated requests
    /// between two steps score the replicas once.
    fn route(
        &mut self,
        service: ServiceId,
        kind: RouteKind,
        score: impl Fn(&SimState, usize, &Slot) -> Candidate,
    ) -> Result<(usize, Candidate), SessionError> {
        let key = 2 * service.0 + kind as usize;
        if let Some(hit) = self.routes.get(key).copied().flatten() {
            debug_assert!(
                same_route(hit, self.scan(service, score)?),
                "stale route for service {}: a device-state change did not clear the route cache",
                service.0
            );
            return Ok(hit);
        }
        let best = self.scan(service, score)?;
        if self.routes.len() <= key {
            self.routes.resize(key + 1, None);
        }
        self.routes[key] = Some(best);
        Ok(best)
    }

    /// Scores every replica of `service` on its roster (see
    /// [`ClusterSession::route`]).
    fn scan(
        &self,
        service: ServiceId,
        score: impl Fn(&SimState, usize, &Slot) -> Candidate,
    ) -> Result<(usize, Candidate), SessionError> {
        let mut best: Option<(usize, Candidate)> = None;
        for &d in self.st.roster.of(service) {
            let Some(slot) = Slot::of(&self.st.devices[d], service) else {
                continue;
            };
            let c = score(&self.st, d, &slot);
            if best.is_none_or(|(_, b)| (c.p, c.mean) < (b.p, b.mean)) {
                best = Some((d, c));
            }
        }
        best.ok_or(SessionError::NoReplica(service))
    }
}

/// Which scorer a routing decision came from: a generative service
/// can be addressed by either request kind, and the two score its
/// replicas differently.
#[derive(Clone, Copy)]
enum RouteKind {
    Classifier,
    Generative,
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

    /// The workloads colocated with this slot on `dev`.
    fn colo(&self, dev: &GpuDevice) -> ([ColoWorkload; COLO_VIEW_MAX], usize) {
        if self.standby {
            dev.colo_for_standby_buf()
        } else {
            dev.colo_for_inference_buf()
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

/// Scores a classifier slot: the batch-queue violation probability at
/// the slot's configured batch. A primary computes it from its latency
/// profile; a standby takes the score a promote freezes for the device
/// it covers.
fn classifier_candidate(
    st: &SimState,
    d: usize,
    service: ServiceId,
    slo: f64,
    slot: &Slot,
) -> Candidate {
    let dev = &st.devices[d];
    let (p, mean, sigma) = if slot.standby {
        standby_score(&st.shared.gt, dev).expect("active standby")
    } else {
        let (colo_buf, colo_n) = slot.colo(dev);
        let colo = &colo_buf[..colo_n];
        let (mean, sigma) = slot.profile(dev, &st.shared.gt, service, slot.batch, colo);
        let p = violation_probability(slot.qps, slot.batch, slo, mean, sigma);
        (p, mean, sigma)
    };
    let fill = if slot.qps > 0.0 {
        slot.batch as f64 / slot.qps
    } else {
        0.0
    };
    Candidate {
        p,
        mean,
        sigma,
        fill,
        via_standby: slot.standby,
    }
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
    let (colo_buf, colo_n) = slot.colo(dev);
    let colo = &colo_buf[..colo_n];
    let bsz = gt.steady_decode_batch(service, slot.batch, slot.frac, slot.qps, colo);
    let (mean, sigma) = slot.profile(dev, gt, service, bsz, colo);
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
