//! Property tests of the connection loop and the parser, via the
//! in-tree proptest shim.
//!
//! * A pipelined stream of valid requests yields the same requests,
//!   and the same response bytes, however `read()` splits it — one
//!   byte at a time included. Bodies up to a few KiB push the input
//!   buffer through its compaction and growth paths.
//! * No byte sequence panics `parse_request` or the connection loop.
//! * No input panics `Json::parse`, and every generated `Json` value
//!   renders to text that parses back to an equal value.
//!
//! CI runs this file with `PROPTEST_CASES=512`.

use std::io::{self, Read, Write};

use proptest::prelude::*;
use serve::http::{parse_request, ParseStatus, Request, Response};
use serve::json::{Json, MAX_DEPTH};
use serve::server::serve_stream;

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
    fn json_values_round_trip_through_text(
        seed in any::<u64>(),
        spine in 0usize..MAX_DEPTH + 1,
    ) {
        let mut s = seed;
        let value = json_from(&mut s, 0, spine);
        let text = value.render();
        let parsed = Json::parse(&text);
        prop_assert!(parsed.is_ok(), "{:?} rejected: {:?}", text, parsed);
        let parsed = parsed.unwrap();
        prop_assert_eq!(&parsed, &value);
        prop_assert_eq!(parsed.render(), text);
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
