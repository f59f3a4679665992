//! The control-plane application: route table and handlers.
//!
//! [`App`] owns the live [`ClusterSession`] behind a mutex plus the
//! pacing [`ServeClock`]. Every handler first pulls the session up to
//! the clock's target time, then performs its operation at that
//! instant — so responses depend only on the seed and the request
//! sequence, never on connection interleaving (the mutex serializes)
//! or wall-clock jitter (on a virtual clock the target moves only via
//! `POST /admin/clock`).
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

use std::sync::{Arc, Mutex};

use cluster::engine::{ClusterSession, LiveFault, SessionError};
use simcore::{SimDuration, TraceConfig};
use workloads::ServiceId;

use crate::clock::ServeClock;
use crate::http::{Request, Response};
use crate::json::{obj, Json};
use crate::metrics::Gauges;

/// The shared application state.
pub struct App {
    session: Mutex<ClusterSession>,
    clock: ServeClock,
}

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

    /// Routes one request. Never panics on malformed input — every
    /// parse failure maps to a 4xx. Once a handler has panicked while
    /// holding the session, its state may be half-updated, so every
    /// later request gets a `503 session unavailable` instead.
    pub fn handle(&self, req: &Request) -> Response {
        let Ok(mut s) = self.session.lock() else {
            return Response::error(503, "session unavailable");
        };
        s.step_until(self.clock.target_now());
        match (req.method, req.path) {
            ("GET", "/healthz") => self.healthz(&s),
            ("POST", "/v1/infer") => self.infer(&mut s, req),
            ("POST", "/admin/services") => self.admin_services(&mut s, req),
            ("POST", "/admin/faults") => self.admin_faults(&mut s, req),
            ("POST", "/admin/clock") => self.admin_clock(&mut s, req),
            ("GET", "/admin/slo") => self.admin_slo(&mut s),
            ("GET", "/metrics") => self.metrics(&s),
            ("GET", "/events") => self.events(&s, req),
            (
                _,
                "/healthz" | "/v1/infer" | "/admin/services" | "/admin/faults" | "/admin/clock"
                | "/admin/slo" | "/metrics" | "/events",
            ) => Response::error(405, "method not allowed"),
            _ => Response::error(404, "no such endpoint"),
        }
    }

    fn healthz(&self, s: &ClusterSession) -> Response {
        let (done, submitted) = s.job_counts();
        Response::json(
            200,
            obj(vec![
                ("ok", Json::Bool(true)),
                ("sim_time_s", Json::Num(s.now().as_secs())),
                ("devices", Json::Num(s.device_count() as f64)),
                ("devices_up", Json::Num(s.devices_up() as f64)),
                ("jobs_completed", Json::Num(done as f64)),
                ("jobs_submitted", Json::Num(submitted as f64)),
                ("virtual_clock", Json::Bool(self.clock.is_virtual())),
            ])
            .render(),
        )
    }

    fn infer(&self, s: &mut ClusterSession, req: &Request) -> Response {
        let body = match parse_body(req) {
            Ok(b) => b,
            Err(resp) => return resp,
        };
        let service = match resolve_service(s, body.get("service")) {
            Ok(id) => id,
            Err(resp) => return resp,
        };
        // A "tokens" field switches to the generative path: the request
        // decodes that many tokens and the response carries a verdict
        // per token (TTFT plus per-token ITL), not one end-to-end
        // latency.
        if let Some(tokens) = body.get("tokens") {
            let Some(n) = tokens.as_u64().filter(|&n| n > 0) else {
                return Response::error(400, "\"tokens\" must be a positive integer");
            };
            return match s.infer_tokens(service, n.min(u64::from(u32::MAX)) as u32) {
                Ok(out) => {
                    let verdicts = out
                        .tokens
                        .iter()
                        .map(|t| {
                            obj(vec![
                                ("latency_ms", Json::Num(t.latency_secs * 1e3)),
                                ("violation", Json::Bool(t.violation)),
                            ])
                        })
                        .collect();
                    Response::json(
                        200,
                        obj(vec![
                            ("service", Json::Num(out.service.0 as f64)),
                            ("device", Json::Num(out.device as f64)),
                            ("via_standby", Json::Bool(out.via_standby)),
                            ("ttft_ms", Json::Num(out.ttft_secs * 1e3)),
                            ("ttft_slo_ms", Json::Num(out.ttft_slo_secs * 1e3)),
                            ("ttft_violation", Json::Bool(out.ttft_violation)),
                            ("itl_slo_ms", Json::Num(out.itl_slo_secs * 1e3)),
                            ("itl_violations", Json::Num(out.itl_violations() as f64)),
                            ("tokens", Json::Arr(verdicts)),
                            ("sim_time_s", Json::Num(out.at.as_secs())),
                        ])
                        .render(),
                    )
                }
                Err(e) => session_error(&e),
            };
        }
        match s.infer(service) {
            Ok(out) => Response::json(
                200,
                obj(vec![
                    ("service", Json::Num(out.service.0 as f64)),
                    ("device", Json::Num(out.device as f64)),
                    ("via_standby", Json::Bool(out.via_standby)),
                    ("latency_ms", Json::Num(out.latency_secs * 1e3)),
                    ("slo_ms", Json::Num(out.slo_secs * 1e3)),
                    ("violation", Json::Bool(out.violation)),
                    ("sim_time_s", Json::Num(out.at.as_secs())),
                ])
                .render(),
            ),
            Err(e) => session_error(&e),
        }
    }

    fn admin_services(&self, s: &mut ClusterSession, req: &Request) -> Response {
        let body = match parse_body(req) {
            Ok(b) => b,
            Err(resp) => return resp,
        };
        let service = match resolve_service(s, body.get("service")) {
            Ok(id) => id,
            Err(resp) => return resp,
        };
        match body.get("action").and_then(Json::as_str) {
            Some("deploy") => {
                let Some(device) = body.get("device").and_then(Json::as_usize) else {
                    return Response::error(400, "deploy needs an integer \"device\"");
                };
                match s.deploy_replica(device, service) {
                    Ok(()) => Response::json(
                        200,
                        obj(vec![
                            ("ok", Json::Bool(true)),
                            ("device", Json::Num(device as f64)),
                            ("service", Json::Num(service.0 as f64)),
                            ("sim_time_s", Json::Num(s.now().as_secs())),
                        ])
                        .render(),
                    ),
                    Err(e) => session_error(&e),
                }
            }
            Some("scale") => {
                let Some(target) = body.get("target").and_then(Json::as_usize) else {
                    return Response::error(400, "scale needs an integer \"target\"");
                };
                match s.scale_service(service, target) {
                    Ok(outcome) => {
                        let moves = outcome
                            .moves
                            .iter()
                            .map(|&(d, from, to)| {
                                Json::Arr(vec![
                                    Json::Num(d as f64),
                                    Json::Num(from.0 as f64),
                                    Json::Num(to.0 as f64),
                                ])
                            })
                            .collect();
                        Response::json(
                            200,
                            obj(vec![
                                ("service", Json::Num(service.0 as f64)),
                                ("target", Json::Num(target as f64)),
                                ("achieved", Json::Num(outcome.achieved as f64)),
                                ("moves", Json::Arr(moves)),
                                ("sim_time_s", Json::Num(s.now().as_secs())),
                            ])
                            .render(),
                        )
                    }
                    Err(e) => session_error(&e),
                }
            }
            _ => Response::error(400, "\"action\" must be \"deploy\" or \"scale\""),
        }
    }

    fn admin_faults(&self, s: &mut ClusterSession, req: &Request) -> Response {
        let body = match parse_body(req) {
            Ok(b) => b,
            Err(resp) => return resp,
        };
        let Some(device) = body.get("device").and_then(Json::as_usize) else {
            return Response::error(400, "fault needs an integer \"device\"");
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
                return Response::error(
                    400,
                    "\"kind\" must be device-failure | slowdown | process-crash | mps-restart",
                )
            }
        };
        match s.inject_fault(device, fault) {
            Ok(()) => Response::json(
                200,
                obj(vec![
                    ("ok", Json::Bool(true)),
                    ("device", Json::Num(device as f64)),
                    ("sim_time_s", Json::Num(s.now().as_secs())),
                ])
                .render(),
            ),
            Err(e) => session_error(&e),
        }
    }

    fn admin_clock(&self, s: &mut ClusterSession, req: &Request) -> Response {
        let body = match parse_body(req) {
            Ok(b) => b,
            Err(resp) => return resp,
        };
        let Some(secs) = body.get("advance_s").and_then(Json::as_f64) else {
            return Response::error(400, "clock needs a number \"advance_s\"");
        };
        if !secs.is_finite() || secs < 0.0 {
            return Response::error(400, "\"advance_s\" must be finite and >= 0");
        }
        match self.clock.advance(SimDuration::from_secs(secs)) {
            Err(_) => Response::error(409, "wall-paced clock cannot be advanced explicitly"),
            Ok(target) => {
                let fired = s.step_until(target);
                Response::json(
                    200,
                    obj(vec![
                        ("sim_time_s", Json::Num(s.now().as_secs())),
                        ("events_fired", Json::Num(fired as f64)),
                    ])
                    .render(),
                )
            }
        }
    }

    fn admin_slo(&self, s: &mut ClusterSession) -> Response {
        let rows = s
            .service_report()
            .into_iter()
            .map(|r| {
                obj(vec![
                    ("service", Json::Num(r.id.0 as f64)),
                    ("name", Json::Str(r.name.to_string())),
                    ("slo_ms", Json::Num(r.slo_secs * 1e3)),
                    ("replicas_assigned", Json::Num(r.replicas_assigned as f64)),
                    ("replicas_up", Json::Num(r.replicas_up as f64)),
                    ("requests", Json::Num(r.requests)),
                    ("violations", Json::Num(r.violations)),
                    ("violation_rate", Json::Num(r.violation_rate)),
                    ("api_requests", Json::Num(r.api_requests as f64)),
                    ("api_violations", Json::Num(r.api_violations as f64)),
                    ("in_outage", Json::Bool(r.in_outage)),
                ])
            })
            .collect();
        Response::json(
            200,
            obj(vec![
                ("sim_time_s", Json::Num(s.now().as_secs())),
                ("services", Json::Arr(rows)),
            ])
            .render(),
        )
    }

    fn metrics(&self, s: &ClusterSession) -> Response {
        let (done, submitted) = s.job_counts();
        let gauges = Gauges {
            sim_time_secs: s.now().as_secs(),
            devices: s.device_count(),
            devices_up: s.devices_up(),
            jobs_completed: done,
            jobs_submitted: submitted,
            events_fired: s.events_fired(),
        };
        let page = crate::metrics::render(&s.trace_summary(), &s.fault_metrics(), &gauges);
        Response {
            status: 200,
            content_type: "text/plain; version=0.0.4; charset=utf-8",
            body: page.into_bytes(),
            close: false,
        }
    }

    fn events(&self, s: &ClusterSession, req: &Request) -> Response {
        let from = req
            .query_param("from")
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(0);
        let (events, missed) = s.trace_events_since(from);
        Response {
            status: 200,
            content_type: "text/event-stream",
            body: crate::sse::render_tail(&events, missed).into_bytes(),
            // SSE consumers treat the response as a stream; the snapshot
            // ends it, so signal close rather than keep-alive reuse.
            close: true,
        }
    }
}

/// Parses the request body as a JSON object.
fn parse_body(req: &Request) -> Result<Json, Response> {
    let Some(text) = req.body_str() else {
        return Err(Response::error(400, "body must be UTF-8"));
    };
    match Json::parse(text) {
        Ok(v @ Json::Obj(_)) => Ok(v),
        Ok(_) => Err(Response::error(400, "body must be a JSON object")),
        Err(e) => Err(Response::error(400, &e.to_string())),
    }
}

/// Resolves `"service"` from a body: numeric id or model name. Unknown
/// models map to a structured `unknown_model` 404 (never a panic on a
/// missing zoo entry), listing the catalogue so a typo'd LLM name is
/// diagnosable from the wire.
fn resolve_service(s: &ClusterSession, field: Option<&Json>) -> Result<ServiceId, Response> {
    match field {
        Some(num @ Json::Num(_)) => {
            let id = num.as_usize().ok_or_else(|| {
                Response::error(400, "\"service\" id must be a non-negative integer")
            })?;
            let id = ServiceId(id);
            if s.zoo().services().iter().any(|spec| spec.id == id) {
                Ok(id)
            } else {
                Err(unknown_model(s, &id.0.to_string()))
            }
        }
        Some(Json::Str(name)) => s
            .zoo()
            .services()
            .iter()
            .find(|spec| spec.name.eq_ignore_ascii_case(name))
            .map(|spec| spec.id)
            .ok_or_else(|| unknown_model(s, name)),
        _ => Err(Response::error(400, "missing \"service\" (id or name)")),
    }
}

/// The structured 404 body for a model the zoo does not contain:
/// `{"error": "unknown_model", "model": ..., "available": [...]}`.
fn unknown_model(s: &ClusterSession, model: &str) -> Response {
    let available = s
        .zoo()
        .services()
        .iter()
        .map(|spec| Json::Str(spec.name.to_string()))
        .collect();
    Response::json(
        404,
        obj(vec![
            ("error", Json::Str("unknown_model".to_string())),
            ("model", Json::Str(model.to_string())),
            ("available", Json::Arr(available)),
        ])
        .render(),
    )
}

/// Maps a session rejection to an HTTP response.
fn session_error(e: &SessionError) -> Response {
    let status = match e {
        SessionError::UnknownService(_) | SessionError::UnknownDevice(_) => 404,
        SessionError::NoReplica(_) => 503,
        SessionError::DeviceDown(_) | SessionError::DeviceBusy(_) => 409,
        SessionError::NotGenerative(_) | SessionError::InvalidFault(_) => 400,
    };
    Response::error(status, &e.to_string())
}
