//! The control-plane application: route table and handlers.
//!
//! [`App`] owns the live [`ClusterSession`] behind a mutex plus the
//! pacing [`ServeClock`]. Every handler first pulls the session up to
//! the clock's target time, then performs its operation at that
//! instant — so responses depend only on the seed and the request
//! sequence, never on connection interleaving (the mutex serializes)
//! or wall-clock jitter (on a virtual clock the target moves only via
//! `POST /admin/clock`). A handler reads what its response needs into
//! a [`Reply`] under the lock; the body is written after it drops.
//!
//! Endpoint catalogue (see DESIGN.md for the full contract):
//!
//! | Method | Path              | Purpose                                |
//! |--------|-------------------|----------------------------------------|
//! | GET    | `/healthz`        | liveness + cluster shape               |
//! | POST   | `/v1/infer`       | route one request via the §5.2 selector|
//! | POST   | `/admin/services` | deploy a replica / scale a service     |
//! | POST   | `/admin/faults`   | inject a fault live                    |
//! | POST   | `/admin/clock`    | advance a virtual clock                |
//! | GET    | `/admin/slo`      | per-service SLO compliance             |
//! | GET    | `/metrics`        | Prometheus text exposition             |
//! | GET    | `/events`         | SSE tail of the trace bus              |

use std::borrow::Cow;
use std::sync::{Arc, Mutex};

use cluster::engine::{
    ClusterSession, GenInferOutcome, InferOutcome, LiveFault, ScaleOutcome, ServiceSlo,
    SessionError,
};
use cluster::metrics::FaultMetrics;
use simcore::{SimDuration, SimTime, TraceConfig, TraceSummary, TracedEvent};
use workloads::ServiceId;

use crate::clock::ServeClock;
use crate::http::{Request, Response};
use crate::json::{object, Json};
use crate::metrics::Gauges;

/// The shared application state.
pub struct App {
    session: Mutex<ClusterSession>,
    clock: ServeClock,
}

/// What one request read or changed under the session lock: exactly
/// what its response needs, owned, so [`Reply::into_response`] writes
/// the body after the guard drops and the lock covers only the session
/// call.
#[derive(Debug)]
pub enum Reply {
    /// `GET /healthz`: the live cluster shape, and whether the clock
    /// is virtual.
    Health(Gauges, bool),
    /// A routed classifier request.
    Infer(InferOutcome),
    /// A routed generative (`tokens`) request.
    Tokens(GenInferOutcome),
    /// A deploy: `(device, service, now)`.
    Deployed(usize, ServiceId, SimTime),
    /// A scale: `(service, target, outcome, now)`.
    Scaled(ServiceId, usize, ScaleOutcome, SimTime),
    /// An injected fault: `(device, now)`.
    Faulted(usize, SimTime),
    /// A clock advance: `(now, events fired)`.
    Clock(SimTime, u64),
    /// `GET /admin/slo`: `(now, one row per service)`.
    Slo(SimTime, Vec<ServiceSlo>),
    /// `GET /metrics` (boxed: it is several times any other reply).
    Metrics(Box<(TraceSummary, FaultMetrics, Gauges)>),
    /// `GET /events`: `(events, how many the ring dropped)`.
    Events(Vec<TracedEvent>, u64),
    /// A model the zoo does not contain: `(model, the catalogue)`.
    UnknownModel(String, Vec<&'static str>),
    /// A session rejection.
    Rejected(SessionError),
    /// Any other error: `(status, message)`.
    Error(u16, Cow<'static, str>),
}

impl From<SessionError> for Reply {
    fn from(e: SessionError) -> Self {
        Reply::Rejected(e)
    }
}

fn fail(status: u16, message: &'static str) -> Reply {
    Reply::Error(status, Cow::Borrowed(message))
}

/// The longest a number prints (`-2.2250738585072014e-308`), for
/// sizing bodies up front.
const NUM: usize = 24;

impl App {
    /// Wraps a session. Tracing is forced on — `/metrics` and
    /// `/events` are the whole point of the control plane.
    pub fn new(mut session: ClusterSession, clock: ServeClock) -> Arc<App> {
        session.set_trace_config(TraceConfig::enabled());
        Arc::new(App {
            session: Mutex::new(session),
            clock,
        })
    }

    /// The pacing clock.
    pub fn clock(&self) -> &ServeClock {
        &self.clock
    }

    /// Direct access to the session (tests compare HTTP-visible
    /// numbers against the engine's own state).
    pub fn session(&self) -> &Mutex<ClusterSession> {
        &self.session
    }

    /// Pulls the session up to the clock target. The binary's pacer
    /// thread calls this periodically so simulated time advances even
    /// with no requests in flight. A poisoned session (a handler
    /// panicked mid-operation) is left unstepped.
    pub fn pace(&self) {
        if let Ok(mut s) = self.session.lock() {
            s.step_until(self.clock.target_now());
        }
    }

    /// Routes one request: [`App::apply`] under the lock, then the
    /// body written after it drops. Never panics on malformed input —
    /// every parse failure maps to a 4xx.
    pub fn handle(&self, req: &Request) -> Response {
        self.apply(req).into_response()
    }

    /// Pulls the session up to the clock target, performs the
    /// request's operation, and returns what the response needs; the
    /// session lock is held for exactly this call. Once a handler has
    /// panicked while holding the session, its state may be
    /// half-updated, so every later request gets a `503 session
    /// unavailable` instead.
    pub fn apply(&self, req: &Request) -> Reply {
        let Ok(mut s) = self.session.lock() else {
            return fail(503, "session unavailable");
        };
        s.step_until(self.clock.target_now());
        let s = &mut *s;
        match (req.method, req.path) {
            ("GET", "/healthz") => Ok(Reply::Health(gauges(s), self.clock.is_virtual())),
            ("POST", "/v1/infer") => infer(s, req),
            ("POST", "/admin/services") => admin_services(s, req),
            ("POST", "/admin/faults") => admin_faults(s, req),
            ("POST", "/admin/clock") => self.admin_clock(s, req),
            ("GET", "/admin/slo") => Ok(Reply::Slo(s.now(), s.service_report())),
            ("GET", "/metrics") => Ok(Reply::Metrics(Box::new((
                s.trace_summary(),
                s.fault_metrics(),
                gauges(s),
            )))),
            ("GET", "/events") => {
                let from = req
                    .query_param("from")
                    .and_then(|v| v.parse::<u64>().ok())
                    .unwrap_or(0);
                let (events, missed) = s.trace_events_since(from);
                Ok(Reply::Events(events, missed))
            }
            (
                _,
                "/healthz" | "/v1/infer" | "/admin/services" | "/admin/faults" | "/admin/clock"
                | "/admin/slo" | "/metrics" | "/events",
            ) => Err(fail(405, "method not allowed")),
            _ => Err(fail(404, "no such endpoint")),
        }
        // A rejected request short-circuits as `Err`; either way it is
        // the reply.
        .unwrap_or_else(|e| e)
    }

    fn admin_clock(&self, s: &mut ClusterSession, req: &Request) -> Result<Reply, Reply> {
        let body = parse_body(req)?;
        let Some(secs) = body.get("advance_s").and_then(Json::as_f64) else {
            return Err(fail(400, "clock needs a number \"advance_s\""));
        };
        if !secs.is_finite() || secs < 0.0 {
            return Err(fail(400, "\"advance_s\" must be finite and >= 0"));
        }
        let Ok(target) = self.clock.advance(SimDuration::from_secs(secs)) else {
            return Err(fail(409, "wall-paced clock cannot be advanced explicitly"));
        };
        let fired = s.step_until(target);
        Ok(Reply::Clock(s.now(), fired))
    }
}

fn gauges(s: &ClusterSession) -> Gauges {
    let (done, submitted) = s.job_counts();
    Gauges {
        sim_time_secs: s.now().as_secs(),
        devices: s.device_count(),
        devices_up: s.devices_up(),
        jobs_completed: done,
        jobs_submitted: submitted,
        events_fired: s.events_fired(),
    }
}

fn infer(s: &mut ClusterSession, req: &Request) -> Result<Reply, Reply> {
    let body = parse_body(req)?;
    let service = resolve_service(s, body.get("service"))?;
    // A "tokens" field switches to the generative path: the request
    // decodes that many tokens and the response carries a verdict per
    // token (TTFT plus per-token ITL), not one end-to-end latency.
    let Some(tokens) = body.get("tokens") else {
        return Ok(Reply::Infer(s.infer(service)?));
    };
    let Some(n) = tokens.as_u64().filter(|&n| n > 0) else {
        return Err(fail(400, "\"tokens\" must be a positive integer"));
    };
    let n = n.min(u64::from(u32::MAX)) as u32;
    Ok(Reply::Tokens(s.infer_tokens(service, n)?))
}

fn admin_services(s: &mut ClusterSession, req: &Request) -> Result<Reply, Reply> {
    let body = parse_body(req)?;
    let service = resolve_service(s, body.get("service"))?;
    match body.get("action").and_then(Json::as_str) {
        Some("deploy") => {
            let Some(device) = body.get("device").and_then(Json::as_usize) else {
                return Err(fail(400, "deploy needs an integer \"device\""));
            };
            s.deploy_replica(device, service)?;
            Ok(Reply::Deployed(device, service, s.now()))
        }
        Some("scale") => {
            let Some(target) = body.get("target").and_then(Json::as_usize) else {
                return Err(fail(400, "scale needs an integer \"target\""));
            };
            let outcome = s.scale_service(service, target)?;
            Ok(Reply::Scaled(service, target, outcome, s.now()))
        }
        _ => Err(fail(400, "\"action\" must be \"deploy\" or \"scale\"")),
    }
}

fn admin_faults(s: &mut ClusterSession, req: &Request) -> Result<Reply, Reply> {
    let body = parse_body(req)?;
    let Some(device) = body.get("device").and_then(Json::as_usize) else {
        return Err(fail(400, "fault needs an integer \"device\""));
    };
    let fault = match body.get("kind").and_then(Json::as_str) {
        Some("device-failure") => LiveFault::DeviceFailure {
            repair_secs: body.get("repair_s").and_then(Json::as_f64).unwrap_or(300.0),
        },
        Some("slowdown") => LiveFault::Slowdown {
            factor: body.get("factor").and_then(Json::as_f64).unwrap_or(0.5),
            duration_secs: body
                .get("duration_s")
                .and_then(Json::as_f64)
                .unwrap_or(120.0),
        },
        Some("process-crash") => LiveFault::ProcessCrash {
            salt: body.get("salt").and_then(Json::as_u64).unwrap_or(0),
        },
        Some("mps-restart") => LiveFault::MpsRestart,
        _ => {
            return Err(fail(
                400,
                "\"kind\" must be device-failure | slowdown | process-crash | mps-restart",
            ))
        }
    };
    s.inject_fault(device, fault)?;
    Ok(Reply::Faulted(device, s.now()))
}

impl Reply {
    /// Writes the response. A JSON body goes straight into one buffer
    /// sized for its worst case, with no value tree.
    pub fn into_response(self) -> Response {
        let body = match self {
            Reply::Health(g, virtual_clock) => object(128 + 5 * NUM, |w| {
                w.key("ok").bool(true);
                w.key("sim_time_s").num(g.sim_time_secs);
                w.key("devices").num(g.devices as f64);
                w.key("devices_up").num(g.devices_up as f64);
                w.key("jobs_completed").num(g.jobs_completed as f64);
                w.key("jobs_submitted").num(g.jobs_submitted as f64);
                w.key("virtual_clock").bool(virtual_clock);
            }),
            Reply::Infer(out) => object(96 + 7 * NUM, |w| {
                w.key("service").num(out.service.0 as f64);
                w.key("device").num(out.device as f64);
                w.key("via_standby").bool(out.via_standby);
                w.key("latency_ms").num(out.latency_secs * 1e3);
                w.key("slo_ms").num(out.slo_secs * 1e3);
                w.key("violation").bool(out.violation);
                w.key("sim_time_s").num(out.at.as_secs());
            }),
            Reply::Tokens(out) => object(160 + 10 * NUM + out.tokens.len() * (40 + NUM), |w| {
                w.key("service").num(out.service.0 as f64);
                w.key("device").num(out.device as f64);
                w.key("via_standby").bool(out.via_standby);
                w.key("ttft_ms").num(out.ttft_secs * 1e3);
                w.key("ttft_slo_ms").num(out.ttft_slo_secs * 1e3);
                w.key("ttft_violation").bool(out.ttft_violation);
                w.key("itl_slo_ms").num(out.itl_slo_secs * 1e3);
                w.key("itl_violations").num(out.itl_violations() as f64);
                w.key("tokens").open_arr();
                for t in &out.tokens {
                    w.open_obj().key("latency_ms").num(t.latency_secs * 1e3);
                    w.key("violation").bool(t.violation).close_obj();
                }
                w.close_arr().key("sim_time_s").num(out.at.as_secs());
            }),
            Reply::Deployed(device, service, now) => object(48 + 3 * NUM, |w| {
                w.key("ok").bool(true);
                w.key("device").num(device as f64);
                w.key("service").num(service.0 as f64);
                w.key("sim_time_s").num(now.as_secs());
            }),
            Reply::Scaled(service, target, outcome, now) => {
                object(64 + 4 * NUM + outcome.moves.len() * (8 + 3 * NUM), |w| {
                    w.key("service").num(service.0 as f64);
                    w.key("target").num(target as f64);
                    w.key("achieved").num(outcome.achieved as f64);
                    w.key("moves").open_arr();
                    for &(d, from, to) in &outcome.moves {
                        w.open_arr().num(d as f64).num(from.0 as f64);
                        w.num(to.0 as f64).close_arr();
                    }
                    w.close_arr().key("sim_time_s").num(now.as_secs());
                })
            }
            Reply::Faulted(device, now) => object(40 + 2 * NUM, |w| {
                w.key("ok").bool(true);
                w.key("device").num(device as f64);
                w.key("sim_time_s").num(now.as_secs());
            }),
            Reply::Clock(now, fired) => object(32 + 2 * NUM, |w| {
                w.key("sim_time_s").num(now.as_secs());
                w.key("events_fired").num(fired as f64);
            }),
            Reply::Slo(now, rows) => {
                let row_bytes: usize = rows.iter().map(|r| 168 + 9 * NUM + r.name.len()).sum();
                object(32 + NUM + row_bytes, |w| {
                    w.key("sim_time_s").num(now.as_secs());
                    w.key("services").open_arr();
                    for r in &rows {
                        w.open_obj().key("service").num(r.id.0 as f64);
                        w.key("name").str(r.name);
                        w.key("slo_ms").num(r.slo_secs * 1e3);
                        w.key("replicas_assigned").num(r.replicas_assigned as f64);
                        w.key("replicas_up").num(r.replicas_up as f64);
                        w.key("requests").num(r.requests);
                        w.key("violations").num(r.violations);
                        w.key("violation_rate").num(r.violation_rate);
                        w.key("api_requests").num(r.api_requests as f64);
                        w.key("api_violations").num(r.api_violations as f64);
                        w.key("in_outage").bool(r.in_outage).close_obj();
                    }
                    w.close_arr();
                })
            }
            Reply::Metrics(page) => {
                let (summary, faults, gauges) = *page;
                return Response {
                    status: 200,
                    content_type: "text/plain; version=0.0.4; charset=utf-8",
                    body: crate::metrics::render(&summary, &faults, &gauges).into_bytes(),
                    close: false,
                };
            }
            Reply::Events(events, missed) => {
                return Response {
                    status: 200,
                    content_type: "text/event-stream",
                    body: crate::sse::render_tail(&events, missed).into_bytes(),
                    // SSE consumers treat the response as a stream; the
                    // snapshot ends it, so signal close rather than
                    // keep-alive reuse.
                    close: true,
                };
            }
            // The structured 404 for a model the zoo does not contain,
            // listing the catalogue so a typo'd LLM name is diagnosable
            // from the wire.
            Reply::UnknownModel(model, available) => {
                let names: usize = available.iter().map(|n| n.len() + 3).sum();
                let body = object(56 + model.len() + names, |w| {
                    w.key("error").str("unknown_model");
                    w.key("model").str(&model);
                    w.key("available").open_arr();
                    for name in &available {
                        w.str(name);
                    }
                    w.close_arr();
                });
                return Response::json(404, body);
            }
            Reply::Rejected(e) => return Response::error(session_status(&e), &e.to_string()),
            Reply::Error(status, message) => return Response::error(status, &message),
        };
        Response::json(200, body)
    }
}

/// Parses the request body as a JSON object.
fn parse_body(req: &Request) -> Result<Json, Reply> {
    let Some(text) = req.body_str() else {
        return Err(fail(400, "body must be UTF-8"));
    };
    match Json::parse(text) {
        Ok(v @ Json::Obj(_)) => Ok(v),
        Ok(_) => Err(fail(400, "body must be a JSON object")),
        Err(e) => Err(Reply::Error(400, e.to_string().into())),
    }
}

/// Resolves `"service"` from a body: numeric id or model name. Unknown
/// models map to a structured `unknown_model` 404, never a panic on a
/// missing zoo entry.
fn resolve_service(s: &ClusterSession, field: Option<&Json>) -> Result<ServiceId, Reply> {
    let services = s.zoo().services();
    let unknown =
        |model: String| Reply::UnknownModel(model, services.iter().map(|spec| spec.name).collect());
    match field {
        Some(num @ Json::Num(_)) => {
            let id = num
                .as_usize()
                .ok_or_else(|| fail(400, "\"service\" id must be a non-negative integer"))?;
            let id = ServiceId(id);
            if services.iter().any(|spec| spec.id == id) {
                Ok(id)
            } else {
                Err(unknown(id.0.to_string()))
            }
        }
        Some(Json::Str(name)) => services
            .iter()
            .find(|spec| spec.name.eq_ignore_ascii_case(name))
            .map(|spec| spec.id)
            .ok_or_else(|| unknown(name.clone())),
        _ => Err(fail(400, "missing \"service\" (id or name)")),
    }
}

/// The HTTP status of a session rejection.
fn session_status(e: &SessionError) -> u16 {
    match e {
        SessionError::UnknownService(_) | SessionError::UnknownDevice(_) => 404,
        SessionError::NoReplica(_) => 503,
        SessionError::DeviceDown(_) | SessionError::DeviceBusy(_) => 409,
        SessionError::NotGenerative(_) | SessionError::InvalidFault(_) => 400,
    }
}
