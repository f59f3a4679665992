//! In-process driving: booting a session (with the traced pass's
//! per-layer set-up probe), stepping it in fixed windows with SLO
//! reports at a fixed cadence and a fixed number of user requests
//! after each window, and serving an open-loop rate ladder (`fleet`),
//! plus the request mix both workloads use.

use std::hint::black_box;
use std::time::Instant;

use cluster::engine::{ClusterConfig, ClusterSession, ServiceSlo};
use mudi::{InterferencePredictor, LatencyProfiler, MudiConfig};
use simcore::{SimRng, SimTime, TraceConfig};
use workloads::{GroundTruth, ServiceId, Zoo};

use crate::cpu::{Cost, Stopwatch};
use crate::openloop::OpenLoop;
use crate::spans::Spans;

/// One user request.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Req {
    /// A classifier request (`/v1/infer` without `tokens`).
    Infer(ServiceId),
    /// A generative request decoding this many tokens.
    Tokens(ServiceId, u32),
}

/// Seeded request mix, weighted the way the catalogue weights demand:
/// a classifier service counts 1, a generative service its
/// `request_rate_scale` (the share of a classifier replica's request
/// rate it sustains). A generative request decodes the service's mean
/// decode length.
pub struct RequestMix {
    rng: SimRng,
    /// (service, cumulative weight, decode tokens for generative ones).
    services: Vec<(ServiceId, f64, Option<u32>)>,
}

impl RequestMix {
    pub fn new(seed: u64) -> Self {
        RequestMix {
            rng: SimRng::seed(seed).fork("bench-requests"),
            services: Vec::new(),
        }
    }

    /// Targets the services of `zoo` from now on.
    pub fn set_zoo(&mut self, zoo: &Zoo) {
        let mut total = 0.0;
        self.services = zoo
            .services()
            .iter()
            .map(|s| {
                total += s.generative.map_or(1.0, |g| g.request_rate_scale);
                let tokens = s.generative.map(|g| g.decode_tokens_mean.round() as u32);
                (s.id, total, tokens)
            })
            .collect();
    }

    pub fn next(&mut self) -> Req {
        let total = self.services.last().expect("set_zoo was called").1;
        let x = self.rng.f64() * total;
        let &(svc, _, tokens) = self
            .services
            .iter()
            .find(|(_, cum, _)| x < *cum)
            .unwrap_or(self.services.last().expect("non-empty"));
        match tokens {
            Some(n) => Req::Tokens(svc, n),
            None => Req::Infer(svc),
        }
    }
}

/// Set-up times of every boot in a pass.
#[derive(Default)]
pub struct Boots {
    /// `ClusterSession::new` per boot (config to ready).
    pub session_new: Vec<Cost>,
    pub ground_truth_s: Vec<f64>,
    pub profile_s: Vec<f64>,
    pub profile_records: Vec<f64>,
    pub predictor_fit_s: Vec<f64>,
}

/// Times `f` under a span, on the wall and the process CPU clock.
pub fn timed<T>(
    spans: &mut Spans,
    name: &'static str,
    req: u64,
    f: impl FnOnce() -> T,
) -> (T, Cost) {
    let open = spans.enter(name, req);
    let watch = Stopwatch::start();
    let value = f();
    let cost = watch.stop();
    spans.exit(open);
    (value, cost)
}

/// Calls each set-up layer's public entry point on the same inputs a
/// Mudi session's constructor uses: the ground truth, the offline
/// profiling run and one predictor fit.
fn probe_setup_layers(cfg: &ClusterConfig, spans: &mut Spans, boots: &mut Boots) {
    let probe = spans.enter("bench.setup_probe", 0);
    let zoo = if cfg.llm_services {
        Zoo::with_llms()
    } else {
        Zoo::standard()
    };
    let (gt, cost) = timed(spans, "workloads.ground_truth", 0, || {
        GroundTruth::new(zoo, cfg.seed ^ 0xA100)
    });
    boots.ground_truth_s.push(cost.wall_s);
    let profiler = LatencyProfiler::new(MudiConfig::default());
    let mut rng = SimRng::seed(cfg.seed)
        .fork("system")
        .fork("offline-profiling");
    let tasks = gt.zoo().profiled_task_ids();
    let (db, cost) = timed(spans, "mudi.profile", 0, || {
        profiler.build_database(&gt, &tasks, &mut rng)
    });
    boots.profile_s.push(cost.wall_s);
    boots.profile_records.push(db.len() as f64);
    let (predictor, cost) = timed(spans, "modeling.predictor_fit", 0, || {
        InterferencePredictor::new(db, &mut rng)
    });
    black_box(predictor.expect("offline profiling produced records"));
    boots.predictor_fit_s.push(cost.wall_s);
    spans.exit(probe);
}

/// Boots a session. The traced pass first probes the set-up layers and
/// turns the program's trace bus on for counters.
pub fn boot(cfg: ClusterConfig, spans: &mut Spans, boots: &mut Boots) -> ClusterSession {
    let traced = spans.enabled();
    if traced {
        probe_setup_layers(&cfg, spans, boots);
    }
    let (mut session, cost) = timed(spans, "cluster.session_new", 0, || ClusterSession::new(cfg));
    boots.session_new.push(cost);
    if traced {
        session.set_trace_config(TraceConfig::enabled());
    }
    session
}

/// How a session is stepped.
pub struct Plan {
    /// Simulated seconds per `step_until` window.
    pub window_s: f64,
    /// Simulated horizon to stop at.
    pub horizon_s: f64,
    /// An SLO report after every this many windows.
    pub report_every: usize,
    /// Keep the rows of this many reports (for cross-checks).
    pub keep_reports: usize,
}

/// What stepping recorded (accumulates across sessions).
#[derive(Default)]
pub struct Stepping {
    /// Each `step_until` window and each SLO report, in order.
    pub windows: Vec<Cost>,
    pub reports: Vec<Cost>,
    /// Wall microseconds of each in-process user request, by kind.
    pub infer_us: Vec<f64>,
    pub tokens_us: Vec<f64>,
    /// Process CPU milliseconds of each user request served between
    /// windows (both kinds, in order).
    pub user_cpu_ms: Vec<f64>,
    /// Of those, how many failed.
    pub user_failed: u64,
    pub sim_s: f64,
    pub events: u64,
    pub kept_reports: Vec<(f64, Vec<ServiceSlo>)>,
    /// User requests whose verdict contradicted their own latency.
    pub inconsistent: u64,
    next_request: u64,
}

/// Steps `session` along `plan`. After each window it serves
/// `users.0` requests of the mix back to back, as a control loop that
/// holds the session while it steps would serve the requests queued
/// meanwhile; a fixed count keeps the sample size independent of how
/// fast the program or the host is.
pub fn step(
    session: &mut ClusterSession,
    plan: &Plan,
    mut users: Option<(usize, &mut RequestMix)>,
    spans: &mut Spans,
    acc: &mut Stepping,
) {
    let mut windows = 0usize;
    let kept_before = acc.kept_reports.len();
    while session.now().as_secs() < plan.horizon_s {
        let sim0 = session.now().as_secs();
        let target = SimTime::from_secs((sim0 + plan.window_s).min(plan.horizon_s));
        let (fired, cost) = timed(spans, "cluster.session.step_until", 0, || {
            session.step_until(target)
        });
        let advanced = session.now().as_secs() - sim0;
        // `step_until` clamps to the config's time cap; a plan past it
        // would otherwise never end.
        assert!(
            advanced > 0.0,
            "plan horizon lies past the session's time cap"
        );
        acc.events += fired;
        acc.windows.push(cost);
        acc.sim_s += advanced;
        windows += 1;
        if windows.is_multiple_of(plan.report_every) {
            let (rows, cost) = timed(spans, "cluster.session.service_report", 0, || {
                session.service_report()
            });
            acc.reports.push(cost);
            if acc.kept_reports.len() - kept_before < plan.keep_reports {
                acc.kept_reports.push((session.now().as_secs(), rows));
            }
        }
        if let Some((count, mix)) = users.as_mut() {
            for _ in 0..*count {
                let req = mix.next();
                let (ok, cost) = serve_one(session, req, spans, acc);
                acc.user_cpu_ms.push(cost.cpu_s * 1e3);
                acc.user_failed += u64::from(!ok);
            }
        }
    }
}

/// Serves the open-loop ladder `gen` with nothing else holding the
/// session, each request when it falls due. Returns how many requests
/// this served.
pub fn drain(
    session: &mut ClusterSession,
    gen: &mut OpenLoop,
    mix: &mut RequestMix,
    spans: &mut Spans,
    acc: &mut Stepping,
) -> u64 {
    let before = gen.attempted();
    gen.mark_free(Instant::now());
    while let Some(due) = gen.next_due() {
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let start = Instant::now();
        let (ok, _) = serve_one(session, mix.next(), spans, acc);
        gen.record(due, start, Instant::now(), ok);
    }
    gen.attempted() - before
}

/// Serves one user request in-process and checks the response against
/// itself. Returns whether the request succeeded, and its cost.
fn serve_one(
    session: &mut ClusterSession,
    req: Req,
    spans: &mut Spans,
    acc: &mut Stepping,
) -> (bool, Cost) {
    let id = acc.next_request;
    acc.next_request += 1;
    let (verdict, cost) = match req {
        Req::Infer(svc) => timed(spans, "cluster.session.infer", id, || {
            session
                .infer(svc)
                .map(|o| o.violation == (o.latency_secs > o.slo_secs))
        }),
        Req::Tokens(svc, n) => timed(spans, "cluster.session.infer_tokens", id, || {
            session.infer_tokens(svc, n).map(|o| {
                o.ttft_violation == (o.ttft_secs > o.ttft_slo_secs)
                    && o.tokens.len() == n as usize
                    && o.tokens
                        .iter()
                        .all(|t| t.violation == (t.latency_secs > o.itl_slo_secs))
            })
        }),
    };
    match req {
        Req::Infer(_) => acc.infer_us.push(cost.wall_s * 1e6),
        Req::Tokens(..) => acc.tokens_us.push(cost.wall_s * 1e6),
    }
    acc.inconsistent += u64::from(verdict == Ok(false));
    (verdict.is_ok(), cost)
}

/// The analytic (kernel-owned) fields of a report row; API tallies are
/// left out because user requests never touch the kernel.
pub fn analytic(rows: &[ServiceSlo]) -> Vec<(usize, usize, usize, u64, u64, u64, bool)> {
    rows.iter()
        .map(|r| {
            (
                r.id.0,
                r.replicas_assigned,
                r.replicas_up,
                r.requests.to_bits(),
                r.violations.to_bits(),
                r.violation_rate.to_bits(),
                r.in_outage,
            )
        })
        .collect()
}
