//! End-to-end API tests over real loopback HTTP on the virtual clock.
//!
//! The headline property is the determinism contract: the control
//! plane's responses are a pure function of (seed, request sequence).
//! Two freshly booted servers driven through an identical scripted
//! session — time advances, deploys, scales, faults, inference traffic,
//! SLO queries, metrics scrapes, event tails — must produce
//! **byte-identical** transcripts.

use std::net::SocketAddr;
use std::sync::Arc;

use cluster::engine::{ClusterConfig, ClusterSession};
use cluster::systems::SystemKind;
use serve::client::request;
use serve::http::Request;
use serve::json::Json;
use serve::{App, ServeClock, Server};
use simcore::SimEventKind;

fn boot(seed: u64) -> (Server, SocketAddr, Arc<App>) {
    boot_config(ClusterConfig::tiny(SystemKind::Mudi, seed))
}

fn boot_config(cfg: ClusterConfig) -> (Server, SocketAddr, Arc<App>) {
    let session = ClusterSession::new_scaled(cfg, 0.002);
    let app = App::new(session, ServeClock::frozen());
    let server = Server::start(Arc::clone(&app), "127.0.0.1:0").expect("bind");
    let addr = server.addr();
    (server, addr, app)
}

/// `(method, path, body)` — the canonical scripted session.
const SCRIPT: &[(&str, &str, Option<&str>)] = &[
    ("GET", "/healthz", None),
    ("POST", "/admin/clock", Some(r#"{"advance_s":1200}"#)),
    ("POST", "/v1/infer", Some(r#"{"service":0}"#)),
    ("POST", "/v1/infer", Some(r#"{"service":"GPT2"}"#)),
    (
        "POST",
        "/admin/faults",
        Some(r#"{"device":3,"kind":"slowdown","factor":0.4,"duration_s":300}"#),
    ),
    ("POST", "/admin/clock", Some(r#"{"advance_s":600}"#)),
    ("POST", "/v1/infer", Some(r#"{"service":3}"#)),
    (
        "POST",
        "/admin/services",
        Some(r#"{"action":"scale","service":2,"target":2}"#),
    ),
    ("POST", "/v1/infer", Some(r#"{"service":2}"#)),
    (
        "POST",
        "/admin/faults",
        Some(r#"{"device":5,"kind":"device-failure","repair_s":900}"#),
    ),
    ("GET", "/healthz", None),
    ("POST", "/admin/clock", Some(r#"{"advance_s":1800}"#)),
    ("POST", "/v1/infer", Some(r#"{"service":4}"#)),
    ("GET", "/admin/slo", None),
    ("GET", "/metrics", None),
    ("GET", "/events?from=0", None),
];

const SEED7_GOLDEN: &str = "transcript_seed7.txt";

/// The script's replies: status, every response header in order, and
/// the body.
fn run_script(addr: SocketAddr, script: &[(&str, &str, Option<&str>)]) -> String {
    let mut transcript = String::new();
    for (method, path, body) in script {
        let reply = request(addr, method, path, *body).expect("request");
        transcript.push_str(&format!("### {method} {path} -> {}\n", reply.status));
        for (name, value) in &reply.headers {
            transcript.push_str(&format!("{name}: {value}\n"));
        }
        transcript.push_str(&format!("{}\n", reply.body_str()));
    }
    transcript
}

/// Compares a transcript with its committed golden, so a change to the
/// wire layer cannot alter a response byte unnoticed. Re-record an
/// intentional change with `MUDI_BLESS=1 cargo test -p serve --test
/// http_api`.
fn check_transcript_golden(actual: &str, golden: &str) {
    if simcore::env::flag("MUDI_BLESS") {
        std::fs::write(transcript_golden_path(golden), actual).expect("write golden");
        return;
    }
    check_transcript_golden_at(actual, golden, "");
}

/// Compares against the committed golden even under `MUDI_BLESS`, so a
/// re-record still checks the other grid points against it.
fn check_transcript_golden_at(actual: &str, golden: &str, point: &str) {
    let path = transcript_golden_path(golden);
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {}: {e}", path.display()));
    assert!(
        expected == actual,
        "transcript drifted from its golden{point}\n--- expected ---\n{expected}\n--- actual ---\n{actual}"
    );
}

fn transcript_golden_path(golden: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(golden)
}

#[test]
fn scripted_transcripts_are_byte_identical_across_runs() {
    let (server_a, addr_a, _app_a) = boot(7);
    let a = run_script(addr_a, SCRIPT);
    server_a.stop();
    let (server_b, addr_b, _app_b) = boot(7);
    let b = run_script(addr_b, SCRIPT);
    server_b.stop();
    assert!(
        a == b,
        "transcripts diverged\n--- run A ---\n{a}\n--- run B ---\n{b}"
    );
    check_transcript_golden(&a, SEED7_GOLDEN);
    // The engine's partition is unobservable: a 4-shard session with
    // lanes on 2 worker threads serves the same bytes.
    let mut sharded = ClusterConfig::tiny(SystemKind::Mudi, 7);
    sharded.shards = 4;
    sharded.workers = 2;
    let (server_s, addr_s, _app_s) = boot_config(sharded);
    let s = run_script(addr_s, SCRIPT);
    server_s.stop();
    check_transcript_golden_at(&s, SEED7_GOLDEN, " at shards=4 workers=2");
    // And the script actually exercised the interesting paths.
    assert!(a.contains("\"violation\""), "no inference outcomes: {a}");
    assert!(
        a.contains("mudi_fault_device_failures_total 1"),
        "no fault counter"
    );
    assert!(a.contains("event: fault-applied"), "no fault event in tail");

    // A different seed gives a different cluster — transcripts differ.
    let (server_c, addr_c, _app_c) = boot(8);
    let c = run_script(addr_c, SCRIPT);
    server_c.stop();
    assert_ne!(a, c, "seed must matter");
}

/// Every other response shape, against an LLM-enabled session: a
/// generative `tokens` reply, a deploy, and each error body the route
/// table writes (400 bad JSON, non-object body, bad field, session
/// rejection; 404 unknown route, device and model, with the catalogue;
/// 405; 409 deploy onto a down device; 503 with no live replica).
const SHAPES_SCRIPT: &[(&str, &str, Option<&str>)] = &[
    ("GET", "/healthz", None),
    ("POST", "/admin/clock", Some(r#"{"advance_s":900}"#)),
    (
        "POST",
        "/v1/infer",
        Some(r#"{"service":"Llama-7B","tokens":6}"#),
    ),
    ("POST", "/v1/infer", Some(r#"{"service":"resnet50"}"#)),
    (
        "POST",
        "/admin/services",
        Some(r#"{"action":"deploy","device":2,"service":1}"#),
    ),
    (
        "POST",
        "/admin/faults",
        Some(r#"{"device":4,"kind":"device-failure","repair_s":600}"#),
    ),
    (
        "POST",
        "/admin/services",
        Some(r#"{"action":"deploy","device":4,"service":0}"#),
    ),
    (
        "POST",
        "/admin/services",
        Some(r#"{"action":"scale","service":1,"target":0}"#),
    ),
    ("POST", "/v1/infer", Some(r#"{"service":1}"#)),
    ("POST", "/v1/infer", Some("not json")),
    ("POST", "/v1/infer", Some("[1]")),
    ("POST", "/v1/infer", Some(r#"{"service":2.5}"#)),
    (
        "POST",
        "/v1/infer",
        Some(r#"{"service":"Llama-7B","tokens":0}"#),
    ),
    (
        "POST",
        "/v1/infer",
        Some(r#"{"service":"ResNet50","tokens":4}"#),
    ),
    (
        "POST",
        "/v1/infer",
        Some(r#"{"service":"Llama\"70B\u00e9\n\u0001"}"#),
    ),
    ("POST", "/v1/infer", Some(r#"{"service":99}"#)),
    (
        "POST",
        "/admin/faults",
        Some(r#"{"device":99,"kind":"mps-restart"}"#),
    ),
    (
        "POST",
        "/admin/faults",
        Some(r#"{"device":1,"kind":"slowdown","factor":1e999}"#),
    ),
    ("POST", "/admin/clock", Some(r#"{"advance_s":-1}"#)),
    ("GET", "/nope", None),
    ("DELETE", "/admin/slo", None),
    ("POST", "/admin/clock", Some(r#"{"advance_s":300}"#)),
    ("GET", "/admin/slo", None),
    ("GET", "/events?from=0", None),
];

#[test]
fn every_response_shape_matches_its_golden() {
    let (server, addr, _app) = boot_llm(7);
    let t = run_script(addr, SHAPES_SCRIPT);
    server.stop();
    check_transcript_golden(&t, "transcript_shapes_seed7.txt");
    for status in [200, 400, 404, 405, 409, 503] {
        assert!(t.contains(&format!("-> {status}\n")), "no {status} reply");
    }
    assert!(t.contains("\"available\":["), "no catalogue listing");
    assert!(t.contains("\"ttft_ms\":"), "no tokens reply");
    assert!(t.contains("event: "), "no events in tail");
}

#[test]
fn metrics_page_matches_the_trace_bus_exactly() {
    let (server, addr, app) = boot(11);
    for (method, path, body) in SCRIPT {
        request(addr, method, path, *body).expect("request");
    }
    let page = request(addr, "GET", "/metrics", None).unwrap().body_str();
    let summary = app.session().lock().unwrap().trace_summary();
    for kind in SimEventKind::ALL {
        let needle = format!("mudi_trace_events_total{{kind=\"{}\"}} ", kind.name());
        let value: u64 = page
            .lines()
            .find_map(|l| l.strip_prefix(&needle))
            .unwrap_or_else(|| panic!("missing series for {}", kind.name()))
            .parse()
            .expect("integer counter");
        assert_eq!(value, summary.count(kind), "kind {}", kind.name());
    }
    let emitted: u64 = page
        .lines()
        .find_map(|l| l.strip_prefix("mudi_trace_events_emitted_total "))
        .expect("emitted total")
        .parse()
        .unwrap();
    assert_eq!(emitted, summary.emitted());
    server.stop();
}

#[test]
fn slo_report_tracks_individual_requests() {
    let (server, addr, _app) = boot(13);
    request(addr, "POST", "/admin/clock", Some(r#"{"advance_s":900}"#)).unwrap();
    for _ in 0..7 {
        let reply = request(addr, "POST", "/v1/infer", Some(r#"{"service":1}"#)).unwrap();
        assert_eq!(reply.status, 200, "{}", reply.body_str());
    }
    let slo = request(addr, "GET", "/admin/slo", None).unwrap();
    let doc = Json::parse(&slo.body_str()).unwrap();
    let Some(Json::Arr(rows)) = doc.get("services") else {
        panic!("bad payload: {}", slo.body_str());
    };
    let row = rows
        .iter()
        .find(|r| r.get("service").unwrap().as_usize() == Some(1))
        .expect("service 1 present");
    assert_eq!(row.get("api_requests").unwrap().as_u64(), Some(7));
    assert!(
        row.get("requests").unwrap().as_f64().unwrap() > 0.0,
        "analytic mass accrued"
    );
    server.stop();
}

#[test]
fn error_paths_return_clean_statuses() {
    let (server, addr, _app) = boot(17);
    let cases: &[(&str, &str, Option<&str>, u16)] = &[
        ("POST", "/v1/infer", Some("not json"), 400),
        ("POST", "/v1/infer", Some("[]"), 400),
        ("POST", "/v1/infer", Some(r#"{"service":99}"#), 404),
        ("POST", "/v1/infer", Some(r#"{"service":"nope"}"#), 404),
        (
            "POST",
            "/admin/services",
            Some(r#"{"action":"resize","service":0}"#),
            400,
        ),
        (
            "POST",
            "/admin/services",
            Some(r#"{"action":"deploy","service":0}"#),
            400,
        ),
        (
            "POST",
            "/admin/faults",
            Some(r#"{"device":99,"kind":"mps-restart"}"#),
            404,
        ),
        (
            "POST",
            "/admin/faults",
            Some(r#"{"device":0,"kind":"gamma-ray"}"#),
            400,
        ),
        ("POST", "/admin/clock", Some(r#"{"advance_s":-5}"#), 400),
        ("GET", "/nope", None, 404),
        ("DELETE", "/healthz", None, 405),
    ];
    for (method, path, body, expect) in cases {
        let reply = request(addr, method, path, *body).expect("request");
        assert_eq!(
            reply.status,
            *expect,
            "{method} {path} {body:?}: {}",
            reply.body_str()
        );
        assert!(
            reply.body_str().starts_with("{\"error\":"),
            "error envelope for {method} {path}"
        );
    }
    server.stop();
}

/// JSON `1e999` parses to infinity. A fault carrying it is a client
/// error, and the session must keep serving afterwards.
#[test]
fn non_finite_fault_parameters_are_rejected_and_the_session_survives() {
    let (server, addr, _app) = boot(29);
    let advance =
        request(addr, "POST", "/admin/clock", Some(r#"{"advance_s":600}"#)).expect("request");
    assert_eq!(advance.status, 200, "{}", advance.body_str());
    for body in [
        r#"{"device":3,"kind":"slowdown","duration_s":1e999}"#,
        r#"{"device":3,"kind":"slowdown","factor":-1e999}"#,
        r#"{"device":3,"kind":"device-failure","repair_s":1e999}"#,
    ] {
        let reply = request(addr, "POST", "/admin/faults", Some(body)).expect("request");
        assert_eq!(reply.status, 400, "{body}: {}", reply.body_str());
        assert!(
            reply.body_str().contains("must be finite"),
            "{}",
            reply.body_str()
        );
        let infer = request(addr, "POST", "/v1/infer", Some(r#"{"service":0}"#)).expect("request");
        assert_eq!(infer.status, 200, "after {body}: {}", infer.body_str());
    }
    server.stop();
}

/// A handler that panics while holding the session poisons its mutex.
/// Later requests must get a clean 503 (over HTTP too) and the pacer
/// must keep running, instead of every later thread panicking.
#[test]
fn poisoned_session_returns_503_and_pacer_survives() {
    let (server, addr, app) = boot(23);
    let poisoner = Arc::clone(&app);
    let joined = std::thread::spawn(move || {
        let _session = poisoner.session().lock().expect("fresh lock");
        panic!("handler panicked while holding the session");
    })
    .join();
    assert!(joined.is_err());
    assert!(app.session().is_poisoned());

    let healthz = Request {
        method: "GET",
        path: "/healthz",
        ..Request::default()
    };
    let resp = app.handle(&healthz);
    assert_eq!(resp.status, 503);
    assert_eq!(
        std::str::from_utf8(&resp.body).unwrap(),
        r#"{"error":"session unavailable"}"#
    );
    app.pace();

    let reply = request(addr, "GET", "/healthz", None).expect("request");
    assert_eq!(reply.status, 503, "{}", reply.body_str());
    server.stop();
}

/// Two huge `POST /admin/clock` advances saturate the virtual clock
/// instead of overflowing it: the session stays healthy and simulated
/// time never moves backward.
#[test]
fn huge_clock_advances_saturate() {
    let session = ClusterSession::new_scaled(ClusterConfig::tiny(SystemKind::Mudi, 3), 0.002);
    let app = App::new(session, ServeClock::frozen());
    let post = |body: &'static str| Request {
        method: "POST",
        path: "/admin/clock",
        body: body.as_bytes(),
        ..Request::default()
    };
    let sim_time = |resp: &serve::http::Response| {
        let doc = Json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        doc.get("sim_time_s").and_then(Json::as_f64).unwrap()
    };
    let first = app.handle(&post(r#"{"advance_s":1e300}"#));
    assert_eq!(first.status, 200);
    let t1 = sim_time(&first);
    let second = app.handle(&post(r#"{"advance_s":1}"#));
    assert_eq!(second.status, 200);
    let healthz = app.handle(&Request {
        method: "GET",
        path: "/healthz",
        ..Request::default()
    });
    assert_eq!(healthz.status, 200);
    assert!(sim_time(&healthz) >= t1, "clock moved backward");
    assert!(app.clock().target_now().as_secs() >= 1.8e13);
}

/// Boots a server over an LLM-mix cluster (physical preset so the
/// striped layout actually deploys the generative services).
fn boot_llm(seed: u64) -> (Server, SocketAddr, Arc<App>) {
    let config = cluster::engine::ClusterConfig::builder(
        cluster::engine::ScalePreset::Physical,
        SystemKind::Mudi,
        seed,
    )
    .jobs(12)
    .llm_services(true)
    .build();
    let session = ClusterSession::new_scaled(config, 0.002);
    let app = App::new(session, ServeClock::frozen());
    let server = Server::start(Arc::clone(&app), "127.0.0.1:0").expect("bind");
    let addr = server.addr();
    (server, addr, app)
}

#[test]
fn generative_infer_returns_per_token_verdicts() {
    let (server, addr, _app) = boot_llm(23);
    request(addr, "POST", "/admin/clock", Some(r#"{"advance_s":900}"#)).unwrap();
    let reply = request(
        addr,
        "POST",
        "/v1/infer",
        Some(r#"{"service":"Llama-7B","tokens":16}"#),
    )
    .unwrap();
    assert_eq!(reply.status, 200, "{}", reply.body_str());
    let doc = Json::parse(&reply.body_str()).unwrap();
    assert!(doc.get("ttft_ms").unwrap().as_f64().unwrap() > 0.0);
    assert!(doc.get("ttft_slo_ms").unwrap().as_f64().unwrap() > 0.0);
    let Some(Json::Arr(tokens)) = doc.get("tokens") else {
        panic!("no token verdicts: {}", reply.body_str());
    };
    assert_eq!(tokens.len(), 16, "one verdict per requested token");
    let booked = doc.get("itl_violations").unwrap().as_u64().unwrap();
    let counted = tokens
        .iter()
        .filter(|t| t.get("violation").unwrap() == &Json::Bool(true))
        .count() as u64;
    assert_eq!(booked, counted, "violation count matches the verdicts");
    for t in tokens {
        assert!(t.get("latency_ms").unwrap().as_f64().unwrap() > 0.0);
    }

    // Token mode on a classifier is a structured 400, and a
    // non-positive count is rejected before routing.
    let reply = request(
        addr,
        "POST",
        "/v1/infer",
        Some(r#"{"service":"ResNet50","tokens":4}"#),
    )
    .unwrap();
    assert_eq!(reply.status, 400, "{}", reply.body_str());
    let reply = request(
        addr,
        "POST",
        "/v1/infer",
        Some(r#"{"service":"Llama-7B","tokens":0}"#),
    )
    .unwrap();
    assert_eq!(reply.status, 400, "{}", reply.body_str());
    server.stop();
}

#[test]
fn unknown_llm_returns_structured_404() {
    let (server, addr, _app) = boot_llm(29);
    let reply = request(
        addr,
        "POST",
        "/v1/infer",
        Some(r#"{"service":"Llama-70B","tokens":8}"#),
    )
    .unwrap();
    assert_eq!(reply.status, 404, "{}", reply.body_str());
    let doc = Json::parse(&reply.body_str()).expect("JSON error body");
    assert_eq!(
        doc.get("error").unwrap(),
        &Json::Str("unknown_model".to_string())
    );
    assert_eq!(
        doc.get("model").unwrap(),
        &Json::Str("Llama-70B".to_string())
    );
    let Some(Json::Arr(available)) = doc.get("available") else {
        panic!("no catalogue listing: {}", reply.body_str());
    };
    assert!(
        available.contains(&Json::Str("Llama-7B".to_string())),
        "catalogue lists the generative services: {}",
        reply.body_str()
    );
    server.stop();
}

#[test]
fn wall_clock_rejects_explicit_advance_with_409() {
    let session = ClusterSession::new_scaled(ClusterConfig::tiny(SystemKind::Mudi, 19), 0.002);
    let app = App::new(session, ServeClock::wall(60.0));
    let server = Server::start(app, "127.0.0.1:0").expect("bind");
    let reply = request(
        server.addr(),
        "POST",
        "/admin/clock",
        Some(r#"{"advance_s":60}"#),
    )
    .unwrap();
    assert_eq!(reply.status, 409, "{}", reply.body_str());
    server.stop();
}
