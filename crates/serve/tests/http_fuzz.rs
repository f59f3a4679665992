//! Property tests of the connection loop and the parser, via the
//! in-tree proptest shim.
//!
//! * A pipelined stream of valid requests yields the same requests,
//!   and the same response bytes, however `read()` splits it — one
//!   byte at a time included. Bodies up to a few KiB push the input
//!   buffer through its compaction and growth paths.
//! * No byte sequence panics `parse_request` or the connection loop.
//! * No input panics `Json::parse`.
//! * What the response writer writes parses back to the values it was
//!   given, under the number and string rules responses rely on.
//! * No request — any method, path, query and body — panics
//!   `App::handle` on a live session; every status is one the route
//!   table emits, every JSON body parses, and `/healthz` still answers
//!   200 afterwards.
//!
//! CI runs this file with `PROPTEST_CASES=512`.

use std::io::{self, Read, Write};
use std::sync::{Arc, OnceLock};

use cluster::engine::{ClusterConfig, ClusterSession, ScalePreset};
use cluster::systems::SystemKind;
use proptest::prelude::*;
use serve::http::{parse_request, ParseStatus, Request, Response};
use serve::json::{object, Json, MAX_DEPTH};
use serve::server::serve_stream;
use serve::{App, ServeClock};

/// An owned copy of a parsed request, to compare across runs.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Owned {
    method: String,
    path: String,
    query: String,
    headers: Vec<(String, String)>,
    body: Vec<u8>,
    keep_alive: bool,
}

impl Owned {
    fn of(req: &Request<'_>) -> Owned {
        Owned {
            method: req.method.to_string(),
            path: req.path.to_string(),
            query: req.query.to_string(),
            headers: req
                .headers
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            body: req.body.to_vec(),
            keep_alive: req.keep_alive,
        }
    }

    /// The request on the wire.
    fn wire(&self) -> Vec<u8> {
        let target = if self.query.is_empty() {
            self.path.clone()
        } else {
            format!("{}?{}", self.path, self.query)
        };
        let mut out = format!("{} {target} HTTP/1.1\r\n", self.method);
        for (k, v) in &self.headers {
            out.push_str(&format!("{k}: {v}\r\n"));
        }
        out.push_str("\r\n");
        let mut out = out.into_bytes();
        out.extend_from_slice(&self.body);
        out
    }
}

/// SplitMix64, for deriving a request's shape from one drawn `u64`.
fn mix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A valid request derived from `seed`. One in sixteen asks to close
/// the connection; bodies are mostly small, sometimes larger than the
/// input buffer's initial 4 KiB.
fn request_from(seed: u64) -> Owned {
    let mut s = seed;
    let method = ["GET", "POST", "PUT", "DELETE"][(mix(&mut s) % 4) as usize];
    let path = format!("/p{}", mix(&mut s) % 1000);
    let query = match mix(&mut s) % 3 {
        0 => String::new(),
        1 => format!("from={}", mix(&mut s) % 100),
        _ => format!("a={}&b=x", mix(&mut s) % 10),
    };
    let body_len = match mix(&mut s) % 8 {
        0..=3 => 0,
        4..=5 => (mix(&mut s) % 200) as usize,
        6 => (mix(&mut s) % 2500) as usize,
        _ => 3000 + (mix(&mut s) % 3000) as usize,
    };
    let body: Vec<u8> = (0..body_len).map(|_| (mix(&mut s) % 256) as u8).collect();
    let mut headers = Vec::new();
    for _ in 0..mix(&mut s) % 4 {
        let name = ["Host", "x-tag", "Content-Type", "X-Trace-Id"][(mix(&mut s) % 4) as usize];
        headers.push((name.to_string(), format!("v{}", mix(&mut s) % 10_000)));
    }
    if body_len > 0 || mix(&mut s).is_multiple_of(2) {
        let name = ["content-length", "Content-Length"][(mix(&mut s) % 2) as usize];
        headers.push((name.to_string(), body_len.to_string()));
    }
    let keep_alive = !mix(&mut s).is_multiple_of(16);
    if !keep_alive {
        headers.push(("Connection".to_string(), "close".to_string()));
    }
    Owned {
        method: method.to_string(),
        path,
        query,
        headers,
        body,
        keep_alive,
    }
}

/// Characters a generated string draws from: every escape the writer
/// emits, other control bytes, `/`, and 2-, 3- and 4-byte scalars.
const STRING_CHARS: &str = "aZ0 \"\\/\n\r\t\u{0}\u{8}\u{c}\u{1f}\u{7f}éß漢€\u{fffd}🙂\u{10ffff}";

fn string_from(s: &mut u64) -> String {
    (0..mix(s) % 12)
        .map(|_| match mix(s) % 4 {
            // Any scalar value at all; surrogates fall back to 'x'.
            0 => char::from_u32((mix(s) % 0x11_0000) as u32).unwrap_or('x'),
            _ => {
                let n = STRING_CHARS.chars().count() as u64;
                STRING_CHARS.chars().nth((mix(s) % n) as usize).unwrap()
            }
        })
        .collect()
}

/// A finite number: small integers, short fractions, or any finite
/// bit pattern (subnormals and extremes included).
fn number_from(s: &mut u64) -> f64 {
    match mix(s) % 3 {
        0 => (mix(s) % 2001) as f64 - 1000.0,
        1 => (mix(s) % 100_000) as f64 / 64.0 - 700.0,
        _ => loop {
            let v = f64::from_bits(mix(s));
            if v.is_finite() {
                break v;
            }
        },
    }
}

/// A `Json` value derived from `seed` whose deepest container chain
/// reaches `spine` levels below `depth` (capped so the document stays
/// within the parser's `MAX_DEPTH`), with a few small random siblings
/// along the way.
fn json_from(s: &mut u64, depth: usize, spine: usize) -> Json {
    // A container at `MAX_DEPTH` could not hold even an object key.
    let can_nest = depth < MAX_DEPTH;
    if spine == 0 || !can_nest {
        // A leaf, or (sometimes) a small bushy subtree.
        return match mix(s) % 8 {
            0 => Json::Null,
            1 => Json::Bool(mix(s).is_multiple_of(2)),
            2 | 3 => Json::Num(number_from(s)),
            4 | 5 => Json::Str(string_from(s)),
            _ if can_nest && depth < 28 => {
                let spine = 1 + (mix(s) % 2) as usize;
                json_from(s, depth, spine)
            }
            _ => Json::Arr(Vec::new()),
        };
    }
    let len = 1 + (mix(s) % 3) as usize;
    let on_spine = (mix(s) % len as u64) as usize;
    let child = |s: &mut u64, i: usize| {
        let next = if i == on_spine { spine - 1 } else { 0 };
        json_from(s, depth + 1, next)
    };
    if mix(s).is_multiple_of(2) {
        Json::Arr((0..len).map(|i| child(s, i)).collect())
    } else {
        Json::Obj((0..len).map(|i| (string_from(s), child(s, i))).collect())
    }
}

/// Any `f64` a response might carry: the finite draws of
/// [`number_from`], or one of the values the writer special-cases.
fn any_number(s: &mut u64) -> f64 {
    const EDGES: [f64; 10] = [
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        -0.0,
        9_007_199_254_740_991.0,
        9_007_199_254_740_992.0,
        -9_007_199_254_740_994.0,
        1e300,
        5e-324,
        0.1,
    ];
    match mix(s) % 4 {
        0 => EDGES[(mix(s) % EDGES.len() as u64) as usize],
        _ => number_from(s),
    }
}

/// The text a number must print as: `null` when not finite, an integer
/// (no fraction, `-0.0` as `0`) below 2^53, otherwise Rust's
/// shortest-round-trip `Display`.
fn number_text(v: f64) -> String {
    if !v.is_finite() {
        "null".to_string()
    } else if v.fract() == 0.0 && v.abs() < 9_007_199_254_740_992.0 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// The text a string must print as: quotes, backslashes and control
/// characters escaped, everything else (non-ASCII included) verbatim.
fn string_text(s: &str) -> String {
    let mut out = String::from('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Every route the table serves, by method.
const ROUTES: [(&str, &str); 8] = [
    ("GET", "/healthz"),
    ("POST", "/v1/infer"),
    ("POST", "/admin/services"),
    ("POST", "/admin/faults"),
    ("POST", "/admin/clock"),
    ("GET", "/admin/slo"),
    ("GET", "/metrics"),
    ("GET", "/events"),
];

/// One live session shared by every case, so requests land on a
/// cluster that earlier cases have already advanced, scaled and
/// faulted: the physical preset with the LLM services, on a virtual
/// clock.
fn live_app() -> &'static App {
    static APP: OnceLock<Arc<App>> = OnceLock::new();
    APP.get_or_init(|| {
        let config = ClusterConfig::builder(ScalePreset::Physical, SystemKind::Mudi, 31)
            .jobs(12)
            .llm_services(true)
            .build();
        App::new(
            ClusterSession::new_scaled(config, 0.002),
            ServeClock::frozen(),
        )
    })
}

/// The body fields each POST route reads.
const FIELDS: [(&str, &[&str]); 4] = [
    ("/v1/infer", &["service", "tokens"]),
    (
        "/admin/services",
        &["action", "service", "device", "target"],
    ),
    (
        "/admin/faults",
        &["device", "kind", "repair_s", "factor", "duration_s", "salt"],
    ),
    ("/admin/clock", &["advance_s"]),
];

/// A value the handler reading `key` would accept (an unknown model
/// name aside), so requests get past validation into the session.
fn plausible(s: &mut u64, key: &str) -> String {
    let pick = |s: &mut u64, options: &[&str]| {
        string_text(options[(mix(s) % options.len() as u64) as usize])
    };
    match key {
        "service" if mix(s).is_multiple_of(2) => {
            pick(s, &["Llama-7B", "OPT-13B", "resnet50", "GPT2", "Llama-70B"])
        }
        "service" | "device" => (mix(s) % 14).to_string(),
        "tokens" => (mix(s) % 64).to_string(),
        "target" => (mix(s) % 4).to_string(),
        "action" => pick(s, &["deploy", "scale"]),
        "kind" => pick(
            s,
            &["device-failure", "slowdown", "process-crash", "mps-restart"],
        ),
        "factor" => format!("{}", (mix(s) % 100) as f64 / 100.0),
        _ => (mix(s) % 3600).to_string(),
    }
}

/// A value no handler should accept as it stands.
fn hostile(s: &mut u64) -> String {
    const ODD: [&str; 10] = [
        "1e999",
        "-1e999",
        "-1",
        "0.5",
        "1e20",
        "4294967296",
        "null",
        "true",
        "\"\"",
        "[]",
    ];
    match mix(s) % 3 {
        0 => ODD[(mix(s) % ODD.len() as u64) as usize].to_string(),
        1 => string_text(&string_from(s)),
        _ => {
            let spine = (mix(s) % 3) as usize;
            json_from(s, 1, spine).render()
        }
    }
}

/// A request body: usually an object over the fields the route reads
/// (any route's, for one that reads none), each present two times in
/// three and hostile one time in eight; otherwise a random document,
/// raw noise, or nothing.
fn body_from(s: &mut u64, path: &str) -> Vec<u8> {
    match mix(s) % 8 {
        0 => Vec::new(),
        1 => {
            let spine = (mix(s) % 4) as usize;
            json_from(s, 0, spine).render().into_bytes()
        }
        2 => (0..mix(s) % 64).map(|_| (mix(s) % 256) as u8).collect(),
        _ => {
            let any = FIELDS[(mix(s) % FIELDS.len() as u64) as usize];
            let (_, keys) = FIELDS.iter().find(|(p, _)| *p == path).unwrap_or(&any);
            let mut fields = Vec::new();
            for key in keys.iter() {
                if mix(s).is_multiple_of(3) {
                    continue;
                }
                let value = if mix(s).is_multiple_of(8) {
                    hostile(s)
                } else {
                    plausible(s, key)
                };
                fields.push(format!("\"{key}\":{value}"));
            }
            format!("{{{}}}", fields.join(",")).into_bytes()
        }
    }
}

/// Sends one request derived from `seed` through `App::handle` and
/// checks the response against the route table.
fn handle_one(app: &App, seed: u64) {
    let mut s = seed;
    let (method, path) = match mix(&mut s) % 4 {
        0 => {
            let methods = ["GET", "POST", "PUT", "DELETE", "get", ""];
            let paths = [
                "/",
                "/nope",
                "/admin",
                "/healthz/",
                "/v1/infer/x",
                "/Metrics",
            ];
            (
                methods[(mix(&mut s) % methods.len() as u64) as usize],
                paths[(mix(&mut s) % paths.len() as u64) as usize],
            )
        }
        _ => ROUTES[(mix(&mut s) % ROUTES.len() as u64) as usize],
    };
    // Mostly the route's own method; sometimes the wrong one.
    let method = if mix(&mut s).is_multiple_of(8) {
        ["GET", "POST", "PATCH"][(mix(&mut s) % 3) as usize]
    } else {
        method
    };
    let query = match mix(&mut s) % 6 {
        0 => format!("from={}", mix(&mut s) % 5000),
        1 => [
            "from=-1",
            "from=x",
            "from=18446744073709551616",
            "from",
            "&&=",
            "from=1&from=2",
        ][(mix(&mut s) % 6) as usize]
            .to_string(),
        _ => String::new(),
    };
    let body = body_from(&mut s, path);
    let req = Request {
        method,
        path,
        query: &query,
        body: &body,
        ..Request::default()
    };
    let resp = app.handle(&req);
    let what = || {
        format!(
            "{method} {path}?{query} {:?}",
            String::from_utf8_lossy(&body)
        )
    };
    assert!(
        [200, 400, 404, 405, 409, 503].contains(&resp.status),
        "status {} for {}",
        resp.status,
        what()
    );
    if !ROUTES.iter().any(|&(_, p)| p == path) {
        assert_eq!(resp.status, 404, "unrouted {}", what());
    } else if !ROUTES.contains(&(method, path)) {
        assert_eq!(resp.status, 405, "wrong method {}", what());
    }
    let text = std::str::from_utf8(&resp.body).expect("UTF-8 body");
    match resp.content_type {
        "application/json" => {
            let parsed = Json::parse(text);
            assert!(parsed.is_ok(), "{} answered {text:?}: {parsed:?}", what());
        }
        "text/event-stream" => {
            for data in text.lines().filter_map(|l| l.strip_prefix("data: ")) {
                assert!(Json::parse(data).is_ok(), "bad event data {data:?}");
            }
        }
        _ => assert_eq!(path, "/metrics"),
    }
}

/// A stream whose reads end at the given offsets, and which records
/// what is written to it.
struct Pieces {
    input: Vec<u8>,
    /// Ascending offsets at which a `read()` stops early.
    cuts: Vec<usize>,
    pos: usize,
    output: Vec<u8>,
    writes: usize,
}

impl Pieces {
    fn new(input: Vec<u8>, mut cuts: Vec<usize>) -> Pieces {
        cuts.retain(|&c| c > 0 && c < input.len());
        cuts.sort_unstable();
        cuts.dedup();
        Pieces {
            input,
            cuts,
            pos: 0,
            output: Vec::new(),
            writes: 0,
        }
    }
}

impl Read for Pieces {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let stop = self
            .cuts
            .iter()
            .copied()
            .find(|&c| c > self.pos)
            .unwrap_or(self.input.len());
        let n = (stop - self.pos).min(buf.len());
        buf[..n].copy_from_slice(&self.input[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

impl Write for Pieces {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.writes += 1;
        self.output.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Runs the connection loop over `stream`; returns the requests it
/// parsed, in order.
fn serve(stream: &mut Pieces) -> Vec<Owned> {
    let mut seen = Vec::new();
    serve_stream(stream, |req| {
        seen.push(Owned::of(req));
        Response::json(
            200,
            format!("{{\"path\":\"{}\",\"bytes\":{}}}", req.path, req.body.len()),
        )
    });
    seen
}

proptest! {
    #[test]
    fn split_reads_parse_like_one_stream(
        seeds in prop::collection::vec(any::<u64>(), 1..12),
        cut_draws in prop::collection::vec(any::<u64>(), 0..48),
        trickle in 0u32..4,
    ) {
        let requests: Vec<Owned> = seeds.iter().map(|&s| request_from(s)).collect();
        let wire: Vec<u8> = requests.iter().flat_map(Owned::wire).collect();
        // The loop stops after the first request that closes.
        let served = requests
            .iter()
            .position(|r| !r.keep_alive)
            .map_or(requests.len(), |i| i + 1);

        let mut whole = Pieces::new(wire.clone(), Vec::new());
        let parsed = serve(&mut whole);
        prop_assert_eq!(&parsed, &requests[..served]);
        prop_assert_eq!(whole.writes, served, "one write per response");

        // One case in four trickles the stream a byte per read.
        let cuts = if trickle == 0 {
            (1..wire.len()).collect()
        } else {
            cut_draws.iter().map(|&c| (c % wire.len() as u64) as usize).collect()
        };
        let mut split = Pieces::new(wire, cuts);
        prop_assert_eq!(serve(&mut split), parsed);
        prop_assert_eq!(split.writes, served, "one write per response");
        prop_assert!(split.output == whole.output, "response bytes differ");
    }

    #[test]
    fn arbitrary_bytes_never_panic_the_parser(
        noise in prop::collection::vec(0u16..256, 0..600),
        seed in any::<u64>(),
        edits in prop::collection::vec(any::<u64>(), 0..8),
    ) {
        let noise: Vec<u8> = noise.into_iter().map(|b| b as u8).collect();
        // A valid request with a few bytes overwritten reaches deeper
        // into the parser than pure noise does.
        let mut mutated = request_from(seed).wire();
        for e in &edits {
            let at = (e % mutated.len() as u64) as usize;
            mutated[at] = (e >> 32) as u8;
        }
        for input in [noise, mutated] {
            // Every prefix of a short input; about 512 of a long one.
            let step = 1 + input.len() / 512;
            for end in (0..input.len()).step_by(step).chain([input.len()]) {
                if let ParseStatus::Complete { consumed, .. } = parse_request(&input[..end]) {
                    prop_assert!(consumed >= 4 && consumed <= end);
                }
            }
            let mut stream = Pieces::new(input, Vec::new());
            serve(&mut stream);
        }
    }

    #[test]
    fn written_values_parse_back_under_the_response_rules(
        seed in any::<u64>(),
        spine in 0usize..MAX_DEPTH,
    ) {
        let mut s = seed;
        let tree = json_from(&mut s, 1, spine);
        let (num, text) = (any_number(&mut s), string_from(&mut s));
        let body = object(0, |w| {
            w.key("tree").value(&tree);
            w.key("num").num(num);
            w.key("str").str(&text);
            w.key("list").open_arr().num(num).str(&text).close_arr();
        });
        let parsed = Json::parse(&body);
        prop_assert!(parsed.is_ok(), "{:?} rejected: {:?}", body, parsed);
        let parsed = parsed.unwrap();
        prop_assert_eq!(parsed.get("tree"), Some(&tree));
        prop_assert_eq!(tree.render(), Json::parse(&tree.render()).unwrap().render());
        let (num_text, str_text) = (number_text(num), string_text(&text));
        prop_assert!(
            body.ends_with(&format!(
                ",\"num\":{num_text},\"str\":{str_text},\"list\":[{num_text},{str_text}]}}"
            )),
            "{:?} broke the rules for {:?} / {:?}",
            body,
            num,
            text
        );
        let expect = if num.is_finite() { Json::Num(num) } else { Json::Null };
        prop_assert_eq!(parsed.get("num"), Some(&expect));
        prop_assert_eq!(parsed.get("str"), Some(&Json::Str(text.clone())));
    }

    #[test]
    fn no_request_panics_a_live_session(
        seeds in prop::collection::vec(any::<u64>(), 1..8),
    ) {
        let app = live_app();
        for seed in seeds {
            handle_one(app, seed);
        }
        let healthz = app.handle(&Request {
            method: "GET",
            path: "/healthz",
            ..Request::default()
        });
        prop_assert_eq!(healthz.status, 200);
    }

    #[test]
    fn arbitrary_input_never_panics_the_json_parser(
        noise in prop::collection::vec(0u16..256, 0..400),
        seed in any::<u64>(),
        spine in 1usize..MAX_DEPTH + 4,
        edits in prop::collection::vec(any::<u64>(), 0..6),
    ) {
        let noise: Vec<u8> = noise.into_iter().map(|b| b as u8).collect();
        // A valid document with a few bytes overwritten — mostly with
        // JSON's own punctuation — reaches deeper than pure noise.
        let mut s = seed;
        let mut mutated = json_from(&mut s, 0, spine).render().into_bytes();
        for e in &edits {
            if mutated.is_empty() {
                break;
            }
            let at = (e % mutated.len() as u64) as usize;
            let punct = b"{}[]\",:\\u0e-.tfn ";
            mutated[at] = match (e >> 32) % 2 {
                0 => punct[((e >> 40) % punct.len() as u64) as usize],
                _ => (e >> 48) as u8,
            };
        }
        // `spine` nested arrays: the innermost sits at depth
        // `spine - 1`, so one level past the limit is refused.
        let deep = "[".repeat(spine) + &"]".repeat(spine);
        prop_assert_eq!(Json::parse(&deep).is_ok(), spine <= MAX_DEPTH + 1);
        for input in [noise, mutated] {
            let text = String::from_utf8_lossy(&input);
            let _ = Json::parse(&text);
            // Every prefix ending on a character boundary, too.
            for end in (0..text.len()).filter(|&i| text.is_char_boundary(i)) {
                let _ = Json::parse(&text[..end]);
            }
        }
    }
}
