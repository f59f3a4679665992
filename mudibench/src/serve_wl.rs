//! `serve`: `mudi-serve` booted in-process on loopback with the physical
//! preset, the LLM services and a virtual clock. One generator thread drives two keep-alive
//! connections:
//!
//! - the user connection, an open loop of `/v1/infer` classifier and
//!   `tokens` requests on the rate ladder, each timed from when it was
//!   due;
//! - the operator connection, which carries the pacer's clock ticks
//!   (`/admin/clock` every [`PACER_TICK`], advancing [`PACE`] times the
//!   tick, as the binary's pacer thread does) and, [`OPS_PER_TICK`]
//!   times between ticks, `/admin/slo` and `/metrics` polls (the reads)
//!   and every fourth call a write to `/admin/services` or
//!   `/admin/faults`;
//! - after every clock tick, a burst of [`INFER_BURST`] user requests
//!   and [`READ_BURST`] `/admin/slo` reads, back to back with the
//!   generator and the server's connection threads on one core: the
//!   samples of the CPU-time metrics.
//!
//! Every exchange is logged in the order it ran. Afterwards the log is
//! replayed against an in-process `ClusterSession` (infer uses its own
//! RNG stream, so the replay's kernel sees exactly the operator
//! sequence) and every visible number is compared. The traced pass also
//! replays the raw requests through `App::handle` to split the round
//! trip into parse, handle and transport.

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cluster::engine::{ClusterConfig, ClusterSession, LiveFault, ScalePreset};
use cluster::systems::SystemKind;
use serve::http::{parse_request, ParseStatus};
use serve::json::Json;
use serve::{App, ServeClock, Server};
use simcore::{SimRng, SimTime, TopologyShape};
use workloads::ServiceId;

use crate::cpu::{self, Cost, Stopwatch};
use crate::drive::{self, Boots, Req, RequestMix, Stepping};
use crate::layers::{self, Layers};
use crate::openloop::{self, OpenLoop};
use crate::report::{EndToEnd, Outcome};
use crate::spans::Spans;
use crate::stats::percentile;
use crate::Args;

/// The binary's pacer sleeps this long between pulls of the session up
/// to the wall-paced clock target.
const PACER_TICK: Duration = Duration::from_millis(100);
/// Simulated seconds per wall second, as the binary runs with
/// `MUDI_SERVE_PACE=60480`: a base phase of the declared 20 s then
/// covers the first 14 of the physical preset's 40 simulated days, the
/// stretch in which its 300 jobs arrive and most of them finish (185 on
/// seed 1). The binary's default pace of 60 would cover 20 minutes, and
/// its 6 s ticks would leave the ticks' stepping cost to host noise.
const PACE: f64 = 14.0 * 24.0 * 3600.0 / 20.0;
/// Operator reads and writes between two clock ticks, evenly spaced.
const OPS_PER_TICK: u32 = 3;
/// p99 limit for user requests, from when each was due.
const LIMIT_MS: f64 = 50.0;
/// The base rate, which runs for `--seconds`, and the overload rung
/// above it: one generator thread cannot send 128k requests a second.
/// The base rate is the benchmark's choice, not the paper's: the model
/// accounts each service's tens of thousands of requests per second
/// analytically, and these HTTP requests sample that traffic. At this
/// rate users and operator together keep the generator's connections
/// busy under a tenth of the time, so a host that runs the threads
/// several times slower does not yet queue requests and the base
/// rung's `max_rps` verdict holds; at 2000/s it did not.
const BASE_RATE: f64 = 500.0;
const OVERLOAD: (f64, f64) = (128_000.0, 0.125);
/// After every clock tick the generator sends this many `/v1/infer`
/// requests, then this many `/admin/slo` reads, back to back. All but
/// the first of each burst are the samples `infer_cpu_ms_*` and
/// `report_cpu_ms_p50` are read from: an exchange that follows an idle
/// gap pays for waking the core and refilling its caches (twice the
/// CPU time of a back-to-back request, moving with the host's load),
/// and bursts spread over the whole run average over the host's
/// slower and faster stretches.
const INFER_BURST: usize = 50;
const READ_BURST: usize = 5;

/// The cluster every `serve` run boots: the job trace and the device
/// layout are the same whatever `--seed` is, which picks the traffic
/// (arrival times, request mix, operator script). On 12 devices one
/// trace keeps more jobs running than another: across ten traces the
/// median clock tick cost 4.0–4.7 ms of CPU on a quiet host, a spread
/// of 0.09 of the median from the trace alone, and the predictor fit
/// behind `setup_s` moved with it. The operator's writes still make
/// every seed's cluster evolve differently.
const CLUSTER_SEED: u64 = crate::DEFAULT_SEED;

fn config() -> ClusterConfig {
    let mut cfg = ClusterConfig::builder(ScalePreset::Physical, SystemKind::Mudi, CLUSTER_SEED)
        .topology(TopologyShape::new(4, 2))
        .shards(1)
        .workers(1)
        .build();
    cfg.llm_services = true;
    cfg
}

/// One logged call.
#[derive(Clone, Debug)]
enum Action {
    User(Req),
    /// Advance the virtual clock by this many simulated seconds.
    Clock(f64),
    Slo,
    Metrics,
    Scale(ServiceId, usize),
    Fault(usize, LiveFault),
}

impl Action {
    fn route(&self) -> &'static str {
        match self {
            Action::User(Req::Infer(_)) => "infer",
            Action::User(Req::Tokens(..)) => "tokens",
            Action::Clock(_) => "clock",
            Action::Slo => "slo",
            Action::Metrics => "metrics",
            Action::Scale(..) => "services",
            Action::Fault(..) => "faults",
        }
    }

    fn request(&self) -> Vec<u8> {
        let (method, path, body) = match self {
            Action::User(Req::Infer(s)) => ("POST", "/v1/infer", format!("{{\"service\":{}}}", s.0)),
            Action::User(Req::Tokens(s, n)) => (
                "POST",
                "/v1/infer",
                format!("{{\"service\":{},\"tokens\":{n}}}", s.0),
            ),
            Action::Clock(secs) => ("POST", "/admin/clock", format!("{{\"advance_s\":{secs}}}")),
            Action::Slo => ("GET", "/admin/slo", String::new()),
            Action::Metrics => ("GET", "/metrics", String::new()),
            Action::Scale(s, t) => (
                "POST",
                "/admin/services",
                format!("{{\"action\":\"scale\",\"service\":{},\"target\":{t}}}", s.0),
            ),
            Action::Fault(d, LiveFault::Slowdown { factor, duration_secs }) => (
                "POST",
                "/admin/faults",
                format!(
                    "{{\"device\":{d},\"kind\":\"slowdown\",\"factor\":{factor},\"duration_s\":{duration_secs}}}"
                ),
            ),
            Action::Fault(d, LiveFault::ProcessCrash { salt }) => (
                "POST",
                "/admin/faults",
                format!("{{\"device\":{d},\"kind\":\"process-crash\",\"salt\":{salt}}}"),
            ),
            Action::Fault(..) => unreachable!("the operator injects slowdowns and crashes only"),
        };
        format!(
            "{method} {path} HTTP/1.1\r\nhost: bench\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        )
        .into_bytes()
    }
}

/// The operator's seeded read and write sequence.
struct Operator {
    rng: SimRng,
    calls: u64,
    devices: usize,
}

impl Operator {
    fn next(&mut self) -> Action {
        let k = self.calls;
        self.calls += 1;
        if k % 4 != 3 {
            return if k % 4 == 1 {
                Action::Metrics
            } else {
                Action::Slo
            };
        }
        let w = k / 4;
        let device = self.rng.uniform_usize(0, self.devices);
        match w % 4 {
            // Services 0..4 hold two replicas each on the 12-device
            // LLM layout; scaling one up and back never empties one.
            0 => Action::Scale(ServiceId(self.rng.uniform_usize(0, 4)), 3),
            2 => Action::Scale(ServiceId((w / 4 % 4) as usize), 2),
            1 => Action::Fault(
                device,
                LiveFault::Slowdown {
                    factor: 0.5,
                    duration_secs: 600.0,
                },
            ),
            _ => Action::Fault(device, LiveFault::ProcessCrash { salt: k }),
        }
    }
}

/// One logged exchange.
struct Exchange {
    action: Action,
    raw: Vec<u8>,
    status: u16,
    body: Vec<u8>,
    /// The round trip: client and server threads on the CPU clock (the
    /// generator keeps one request in flight, so nothing else runs).
    cost: Cost,
    /// A warm exchange of a burst: a sample of the CPU-time metrics.
    sample: bool,
}

/// A keep-alive client connection.
struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(8192),
        })
    }

    /// Sends one request and reads its response: `(status, body)`.
    fn round_trip(&mut self, raw: &[u8]) -> std::io::Result<(u16, Vec<u8>)> {
        self.stream.write_all(raw)?;
        let bad = |m: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, m.to_string());
        let mut chunk = [0u8; 8192];
        loop {
            if let Some(end) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                let head = std::str::from_utf8(&self.buf[..end]).map_err(|_| bad("head"))?;
                let status = head
                    .split(' ')
                    .nth(1)
                    .and_then(|s| s.parse::<u16>().ok())
                    .ok_or_else(|| bad("status line"))?;
                let len = head
                    .lines()
                    .find_map(|l| {
                        let (k, v) = l.split_once(':')?;
                        k.eq_ignore_ascii_case("content-length")
                            .then(|| v.trim().parse::<usize>().ok())?
                    })
                    .ok_or_else(|| bad("content-length"))?;
                let total = end + 4 + len;
                while self.buf.len() < total {
                    let n = self.stream.read(&mut chunk)?;
                    if n == 0 {
                        return Err(bad("connection closed mid-body"));
                    }
                    self.buf.extend_from_slice(&chunk[..n]);
                }
                let body = self.buf[end + 4..total].to_vec();
                self.buf.drain(..total);
                return Ok((status, body));
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(bad("connection closed"));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }
}

/// Sleeps until `due`. No spinning: a spinning generator would compete
/// with the server's threads for the two cores.
fn wait_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

struct Pass {
    log: Vec<Exchange>,
    users: OpenLoop,
    boots: Boots,
    spans: Spans,
    /// Per service: (succeeded requests, violations) as the client saw.
    client: Vec<(u64, u64)>,
    final_slo: Vec<u8>,
    final_metrics: String,
    errors: Vec<String>,
    wall_s: f64,
}

fn pass(seed: u64, seconds: f64, traced: bool) -> Pass {
    let started = Instant::now();
    let mut spans = Spans::new(traced);
    let mut boots = Boots::default();
    let boot = spans.enter("bench.boot", 0);
    let session = drive::boot(config(), &mut spans, &mut boots);
    let devices = session.device_count();
    let n_services = session.zoo().services().len();
    let mut mix = RequestMix::new(seed);
    mix.set_zoo(session.zoo());
    let (server, app) = {
        let watch = Stopwatch::start();
        let app = App::new(session, ServeClock::frozen());
        let server = Server::start(Arc::clone(&app), "127.0.0.1:0").expect("bind loopback");
        (server, watch.stop())
    };
    // The server boot is the session plus the app and listener.
    let boot_cost = boots.session_new.last_mut().expect("one boot");
    boot_cost.wall_s += app.wall_s;
    boot_cost.cpu_s += app.cpu_s;
    spans.exit(boot);

    let mut errors = Vec::new();
    let mut user = Conn::open(server.addr()).expect("user connection");
    let mut oper = Conn::open(server.addr()).expect("operator connection");
    let mut operator = Operator {
        rng: SimRng::seed(seed).fork("bench-operator"),
        calls: 0,
        devices,
    };
    let ladder = openloop::ladder(&[(BASE_RATE, seconds), OVERLOAD]);
    let t0 = Instant::now();
    let mut users = OpenLoop::new(ladder, seed, t0);
    // The operator's calls fall due on a fixed grid: a tick every
    // PACER_TICK for the base phase, each followed by OPS_PER_TICK
    // calls evenly spaced before the next. A late call delays the rest
    // but never reorders them, so the session sees the same sequence of
    // ticks and writes on every run of a seed, however fast the host.
    let ticks = (seconds / PACER_TICK.as_secs_f64()).round() as u32;
    let op_gap = PACER_TICK / (OPS_PER_TICK + 1);
    let mut schedule = (1..=ticks).flat_map(|k| {
        let tick = t0 + PACER_TICK * k;
        std::iter::once((true, tick))
            .chain((1..=OPS_PER_TICK).map(move |j| (false, tick + op_gap * j)))
    });
    let mut next_op = schedule.next();
    let mut log = Vec::new();
    let mut client = vec![(0u64, 0u64); n_services];
    let mut request_id = 0u64;
    let root = spans.enter("bench.generator", 0);
    loop {
        let (is_user, is_tick, due) = match (users.next_due(), next_op) {
            (None, None) => break,
            (Some(u), Some((_, o))) if u <= o => (true, false, u),
            (Some(u), None) => (true, false, u),
            (_, Some((tick, o))) => {
                next_op = schedule.next();
                (false, tick, o)
            }
        };
        wait_until(due);
        let action = if is_user {
            Action::User(mix.next())
        } else if is_tick {
            Action::Clock(PACE * PACER_TICK.as_secs_f64())
        } else {
            operator.next()
        };
        let conn = if is_user { &mut user } else { &mut oper };
        request_id += 1;
        let (ex, start, end) = exchange(conn, action, &mut spans, request_id, &mut errors);
        if is_user {
            let ok = ex.status == 200;
            if ok {
                tally_user(&ex.action, &ex.body, &mut client, &mut errors);
            }
            users.record(due, start, end, ok);
        }
        log.push(ex);
        if is_tick {
            // The generator and the server's connection threads share
            // one core for the bursts.
            let mut tids = cpu::threads_named("mudi-serve-conn");
            tids.push(0);
            let _pinned = cpu::OneCore::pin(&tids);
            for (n, is_user) in [(INFER_BURST, true), (READ_BURST, false)] {
                for k in 0..n {
                    let (conn, action) = if is_user {
                        (&mut user, Action::User(mix.next()))
                    } else {
                        (&mut oper, Action::Slo)
                    };
                    request_id += 1;
                    let (mut ex, _, _) =
                        exchange(conn, action, &mut spans, request_id, &mut errors);
                    if is_user && ex.status == 200 {
                        tally_user(&ex.action, &ex.body, &mut client, &mut errors);
                    }
                    // The first exchange of each burst warms up.
                    ex.sample = k > 0;
                    log.push(ex);
                }
            }
        }
        if !is_user {
            users.mark_free(Instant::now());
        }
    }
    spans.exit(root);
    let (_, final_slo) = oper
        .round_trip(&Action::Slo.request())
        .expect("final SLO poll");
    let (_, metrics) = oper
        .round_trip(&Action::Metrics.request())
        .expect("final metrics poll");
    drop(user);
    drop(oper);
    server.stop();
    drop(server);
    Pass {
        log,
        users,
        boots,
        spans,
        client,
        final_slo,
        final_metrics: String::from_utf8_lossy(&metrics).into_owned(),
        errors,
        wall_s: started.elapsed().as_secs_f64(),
    }
}

/// Sends one logged request and checks its status; returns the
/// exchange and when the round trip started and ended.
fn exchange(
    conn: &mut Conn,
    action: Action,
    spans: &mut Spans,
    request_id: u64,
    errors: &mut Vec<String>,
) -> (Exchange, Instant, Instant) {
    let raw = action.request();
    let open = spans.enter(span_name(&action), request_id);
    let start = Instant::now();
    let watch = Stopwatch::start();
    let reply = conn.round_trip(&raw);
    let cost = watch.stop();
    let end = Instant::now();
    spans.exit(open);
    let (status, body) = reply.unwrap_or_else(|e| {
        errors.push(format!(
            "{} request failed on the wire: {e}",
            action.route()
        ));
        (0, Vec::new())
    });
    if status >= 500 {
        errors.push(format!("{} answered {status}", action.route()));
    } else if status != 200 && !matches!(action, Action::User(_)) {
        errors.push(format!("operator {} answered {status}", action.route()));
    }
    let ex = Exchange {
        action,
        raw,
        status,
        body,
        cost,
        sample: false,
    };
    (ex, start, end)
}

fn span_name(action: &Action) -> &'static str {
    match action {
        Action::User(Req::Infer(_)) => "serve.round_trip.infer",
        Action::User(Req::Tokens(..)) => "serve.round_trip.tokens",
        Action::Clock(_) => "serve.round_trip.clock",
        Action::Slo => "serve.round_trip.slo",
        Action::Metrics => "serve.round_trip.metrics",
        Action::Scale(..) => "serve.round_trip.services",
        Action::Fault(..) => "serve.round_trip.faults",
    }
}

/// Checks one user response against itself and tallies it.
fn tally_user(action: &Action, body: &[u8], client: &mut [(u64, u64)], errors: &mut Vec<String>) {
    let Some(j) = std::str::from_utf8(body)
        .ok()
        .and_then(|t| Json::parse(t).ok())
    else {
        errors.push("user response is not JSON".into());
        return;
    };
    let num = |k: &str| j.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
    let flag = |v: &Json, k: &str| {
        v.get(k).and_then(|b| match b {
            Json::Bool(b) => Some(*b),
            _ => None,
        })
    };
    let (svc, violation, consistent) = match action {
        Action::User(Req::Infer(s)) => {
            let v = flag(&j, "violation");
            (
                s.0,
                v == Some(true),
                v == Some(num("latency_ms") > num("slo_ms")),
            )
        }
        Action::User(Req::Tokens(s, n)) => {
            let v = flag(&j, "ttft_violation");
            let itl = num("itl_slo_ms");
            let tokens = match j.get("tokens") {
                Some(Json::Arr(t)) => t.as_slice(),
                _ => &[],
            };
            let per_token = tokens.len() == *n as usize
                && tokens.iter().all(|t| {
                    flag(t, "violation")
                        == Some(
                            t.get("latency_ms")
                                .and_then(Json::as_f64)
                                .unwrap_or(f64::NAN)
                                > itl,
                        )
                });
            (
                s.0,
                v == Some(true),
                per_token && v == Some(num("ttft_ms") > num("ttft_slo_ms")),
            )
        }
        _ => unreachable!("only user actions are tallied"),
    };
    if !consistent {
        errors.push(format!("self-inconsistent {} response", action.route()));
    }
    client[svc].0 += 1;
    client[svc].1 += u64::from(violation);
}

/// Session-layer timings from the in-process replay: the stepping
/// record plus the admin calls' microseconds.
struct SessionTimes {
    stepping: Stepping,
    admin_us: Vec<f64>,
}

/// Replays the logged sequence against a fresh in-process session and
/// compares every HTTP-visible number. Returns the session layer's
/// timings and the replay's boot cost.
fn replay_session(
    p: &Pass,
    spans: &mut Spans,
    layers: &mut Layers,
    out: &mut Outcome,
) -> (SessionTimes, Cost) {
    let (mut s, boot) = drive::timed(spans, "cluster.session_new", 0, || {
        ClusterSession::new(config())
    });
    // Like `App::new`, so the replay's trace counters match the server's.
    s.set_trace_config(simcore::TraceConfig::enabled());
    let mut times = SessionTimes {
        stepping: Stepping::default(),
        admin_us: Vec::new(),
    };
    let mut micros = 0u64;
    let mut mismatches = Vec::new();
    for (i, ex) in p.log.iter().enumerate() {
        let resp = std::str::from_utf8(&ex.body)
            .ok()
            .and_then(|t| Json::parse(t).ok());
        let num = |k: &str| resp.as_ref().and_then(|j| j.get(k)).and_then(Json::as_f64);
        let id = i as u64;
        let same = match &ex.action {
            Action::User(Req::Infer(svc)) => {
                let (o, cost) = drive::timed(spans, "cluster.session.infer", id, || s.infer(*svc));
                times.stepping.infer_us.push(cost.wall_s * 1e6);
                o.ok().is_some_and(|o| {
                    num("device") == Some(o.device as f64)
                        && num("latency_ms") == Some(o.latency_secs * 1e3)
                })
            }
            Action::User(Req::Tokens(svc, n)) => {
                let (o, cost) = drive::timed(spans, "cluster.session.infer_tokens", id, || {
                    s.infer_tokens(*svc, *n)
                });
                times.stepping.tokens_us.push(cost.wall_s * 1e6);
                o.ok().is_some_and(|o| {
                    num("device") == Some(o.device as f64)
                        && num("ttft_ms") == Some(o.ttft_secs * 1e3)
                })
            }
            Action::Clock(secs) => {
                let add = (secs * 1e6).round() as u64;
                micros += add;
                let target = SimTime::from_secs(micros as f64 / 1e6);
                let (fired, cost) = drive::timed(spans, "cluster.session.step_until", id, || {
                    s.step_until(target)
                });
                times.stepping.windows.push(cost);
                times.stepping.events += fired;
                num("events_fired") == Some(fired as f64)
            }
            Action::Slo => {
                let (rows, cost) =
                    drive::timed(spans, "cluster.session.service_report", id, || {
                        s.service_report()
                    });
                times.stepping.reports.push(cost);
                slo_matches(&ex.body, &rows)
            }
            Action::Metrics => true,
            Action::Scale(svc, target) => {
                let (o, cost) = drive::timed(spans, "cluster.session.admin", id, || {
                    s.scale_service(*svc, *target)
                });
                times.admin_us.push(cost.wall_s * 1e6);
                o.ok().map(|o| o.achieved as f64) == num("achieved")
            }
            Action::Fault(dev, fault) => {
                let (o, cost) = drive::timed(spans, "cluster.session.admin", id, || {
                    s.inject_fault(*dev, *fault)
                });
                times.admin_us.push(cost.wall_s * 1e6);
                o.is_ok() == (ex.status == 200)
            }
        };
        if !same && mismatches.len() < 5 {
            mismatches.push(format!("#{i} {}", ex.action.route()));
        }
    }
    let final_rows = s.service_report();
    out.check(slo_matches(&p.final_slo, &final_rows), || {
        "final /admin/slo differs from the in-process replay".into()
    });
    out.check(mismatches.is_empty(), || {
        format!(
            "HTTP responses differ from the in-process session replay at {}",
            mismatches.join(", ")
        )
    });
    layers.absorb_session(&s);
    layers.absorb_result(&s.finish());
    (times, boot)
}

/// Whether an `/admin/slo` body matches session rows field for field.
fn slo_matches(body: &[u8], rows: &[cluster::engine::ServiceSlo]) -> bool {
    let Some(j) = std::str::from_utf8(body)
        .ok()
        .and_then(|t| Json::parse(t).ok())
    else {
        return false;
    };
    let Some(Json::Arr(services)) = j.get("services") else {
        return false;
    };
    services.len() == rows.len()
        && services.iter().zip(rows).all(|(v, r)| {
            let f = |k: &str| v.get(k).and_then(Json::as_f64);
            f("service") == Some(r.id.0 as f64)
                && f("replicas_assigned") == Some(r.replicas_assigned as f64)
                && f("replicas_up") == Some(r.replicas_up as f64)
                && f("requests") == Some(r.requests)
                && f("violations") == Some(r.violations)
                && f("violation_rate") == Some(r.violation_rate)
                && f("api_requests") == Some(r.api_requests as f64)
                && f("api_violations") == Some(r.api_violations as f64)
        })
}

/// Checks the server's own tallies against what the client counted.
fn check_tallies(p: &Pass, out: &mut Outcome) {
    let rows: Vec<(u64, u64)> = std::str::from_utf8(&p.final_slo)
        .ok()
        .and_then(|t| Json::parse(t).ok())
        .and_then(|j| match j.get("services") {
            Some(Json::Arr(s)) => Some(
                s.iter()
                    .map(|r| {
                        let n = |k: &str| r.get(k).and_then(Json::as_u64).unwrap_or(u64::MAX);
                        (n("api_requests"), n("api_violations"))
                    })
                    .collect(),
            ),
            _ => None,
        })
        .unwrap_or_default();
    out.check(rows == p.client, || {
        format!(
            "/admin/slo API tallies {rows:?} differ from the client's counts {:?}",
            p.client
        )
    });
    let routed = p
        .final_metrics
        .lines()
        .find(|l| l.starts_with("mudi_trace_events_total{kind=\"inference-routed\"}"))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse::<f64>().ok());
    let sent: u64 = p.client.iter().map(|c| c.0).sum();
    out.check(routed == Some(sent as f64), || {
        format!("/metrics counts {routed:?} routed requests; the client got {sent} answers")
    });
}

/// The round trips of one route, in order.
fn costs(p: &Pass, route: &str) -> Vec<Cost> {
    p.log
        .iter()
        .filter(|e| e.action.route() == route)
        .map(|e| e.cost)
        .collect()
}

/// Replays the raw requests through the parser and `App::handle`
/// in-process, comparing each response body byte for byte.
fn replay_app(p: &Pass, spans: &mut Spans, out: &mut Outcome) {
    let app = App::new(ClusterSession::new(config()), ServeClock::frozen());
    let mut http_us = Vec::new();
    let mut json_us = Vec::new();
    let mut handle_us: Vec<(&'static str, Vec<f64>)> = Vec::new();
    let mut differ = 0usize;
    for (i, ex) in p.log.iter().enumerate() {
        let id = i as u64;
        let (parsed, cost) = drive::timed(spans, "serve.http.parse_request", id, || {
            parse_request(&ex.raw)
        });
        http_us.push(cost.wall_s * 1e6);
        let ParseStatus::Complete { request, .. } = parsed else {
            differ += 1;
            continue;
        };
        if let Some(body) = request.body_str().filter(|b| !b.is_empty()) {
            let (_, cost) = drive::timed(spans, "serve.json.parse", id, || Json::parse(body));
            json_us.push(cost.wall_s * 1e6);
        }
        let route = ex.action.route();
        let (resp, cost) = drive::timed(spans, "serve.api.handle", id, || app.handle(&request));
        let us = cost.wall_s * 1e6;
        match handle_us.iter_mut().find(|(r, _)| *r == route) {
            Some((_, v)) => v.push(us),
            None => handle_us.push((route, vec![us])),
        }
        differ += usize::from(resp.status != ex.status || resp.body != ex.body);
    }
    out.check(differ == 0, || {
        format!("{differ} responses differ between HTTP and in-process App::handle")
    });
    let p50 = |v: &[f64]| percentile(v, 50.0).unwrap_or(f64::NAN);
    out.line(format!("layer serve.http.parse_us_p50={}", p50(&http_us)));
    out.line(format!("layer serve.json.parse_us_p50={}", p50(&json_us)));
    for (route, v) in &handle_us {
        out.line(format!(
            "layer serve.api.handle_us_p50.{route}={} samples={}",
            p50(v),
            v.len()
        ));
    }
    let handle_infer = handle_us
        .iter()
        .find(|(r, _)| *r == "infer")
        .map_or(f64::NAN, |(_, v)| p50(v));
    let rtt_us: Vec<f64> = costs(p, "infer").iter().map(|c| c.wall_s * 1e6).collect();
    let rtt_infer = p50(&rtt_us);
    out.line(format!(
        "layer serve.transport_us_p50={} (infer round trip p50 {rtt_infer} us minus handle p50 {handle_infer} us; transport share {:.3})",
        rtt_infer - handle_infer,
        (rtt_infer - handle_infer) / rtt_infer
    ));
}

pub fn run(args: &Args, out: &mut Outcome) {
    let base = pass(args.seed, args.seconds as f64, false);
    let mut spans = Spans::new(false);
    let mut layers = Layers::default();
    let (_, replay_boot) = replay_session(&base, &mut spans, &mut layers, out);
    check_tallies(&base, out);
    for e in base.errors.iter().take(5) {
        out.check(false, || e.clone());
    }
    let failed = |v: &[&Exchange]| v.iter().filter(|e| e.status != 200).count();
    let (user_log, op_log): (Vec<&Exchange>, Vec<&Exchange>) = base
        .log
        .iter()
        .partition(|e| matches!(e.action, Action::User(_)));
    out.attempted = base.log.len() as u64;
    out.failed = (failed(&user_log) + failed(&op_log)) as u64;
    let bursts = user_log.len() as u64 - base.users.attempted();
    out.line(format!(
        "operator attempted={} succeeded={} failed={}",
        op_log.len(),
        op_log.len() - failed(&op_log),
        failed(&op_log)
    ));
    out.line(format!(
        "user bursts attempted={bursts} (open loop {}, failed in all {})",
        base.users.attempted(),
        failed(&user_log)
    ));
    for l in base.users.describe(LIMIT_MS) {
        out.line(l);
    }
    if !args.trace {
        let windows = costs(&base, "clock");
        let ticks_cpu: Vec<f64> = windows.iter().map(|c| c.cpu_s).collect();
        let samples = |route: &str| {
            base.log
                .iter()
                .filter(|e| e.sample && e.action.route() == route)
                .map(|e| e.cost)
                .collect::<Vec<Cost>>()
        };
        let infer_cpu_ms: Vec<f64> = samples("infer").iter().map(|c| c.cpu_s * 1e3).collect();
        // The same boot costs 1.2 to 2.0 CPU s from one call to the
        // next in one process, so `setup_s` is the median of five.
        let mut boots = vec![base.boots.session_new[0], replay_boot];
        for _ in 0..3 {
            let (_, cost) = drive::timed(&mut spans, "cluster.session_new", 0, || {
                ClusterSession::new(config())
            });
            boots.push(cost);
        }
        EndToEnd {
            boots: &boots,
            sim_s_per_cpu_s: sim_seconds(&base) / ticks_cpu.iter().sum::<f64>(),
            windows: &windows,
            reports: &samples("slo"),
            infer_cpu_ms: &infer_cpu_ms,
            users: &base.users,
            limit_ms: LIMIT_MS,
        }
        .emit(out);
        return;
    }
    let mut traced = pass(args.seed, args.seconds as f64, true);
    let overhead = traced.wall_s - layers::probe_secs(&traced.spans) - base.wall_s;
    let mut spans = std::mem::replace(&mut traced.spans, Spans::new(false));
    let mut layers = Layers::default();
    let replay = spans.enter("bench.replay", 0);
    let (times, _) = replay_session(&traced, &mut spans, &mut layers, out);
    spans.exit(replay);
    let app_replay = spans.enter("bench.app_replay", 0);
    replay_app(&traced, &mut spans, out);
    spans.exit(app_replay);
    check_tallies(&traced, out);
    for e in traced.errors.iter().take(5) {
        out.check(false, || e.clone());
    }
    layers.emit(out, &traced.boots, &times.stepping, &spans, overhead);
    out.line(format!(
        "layer cluster.session.admin_us_p50={} samples={}",
        percentile(&times.admin_us, 50.0).unwrap_or(f64::NAN),
        times.admin_us.len()
    ));
    // Every serve service set includes the generative models, so the
    // in-process stepping rate is the LLM regime's throughput.
    let step_s: f64 = times.stepping.windows.iter().map(|c| c.wall_s).sum();
    out.line(format!(
        "layer gpu-sim.llm_sim_s_per_wall_s={} (sim_s={} over in-process step_until wall {step_s} s)",
        sim_seconds(&traced) / step_s.max(1e-12),
        sim_seconds(&traced)
    ));
}

/// Simulated seconds the pass's clock ticks advanced.
fn sim_seconds(p: &Pass) -> f64 {
    p.log
        .iter()
        .map(|e| match e.action {
            Action::Clock(secs) => secs,
            _ => 0.0,
        })
        .sum()
}
