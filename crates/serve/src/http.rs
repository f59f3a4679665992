//! A std-only HTTP/1.1 subset: incremental request parsing and
//! response serialization.
//!
//! The parser is *incremental*: the connection loop appends whatever
//! `read()` produced into a buffer and re-offers it; until the head and
//! declared body have fully arrived the answer is
//! [`ParseStatus::Partial`]. A complete [`Request`] borrows from that
//! buffer instead of copying out of it. Limits are enforced as the
//! bytes arrive — an oversized head is rejected (`431`) even if the
//! terminator never shows up, so a peer cannot balloon the buffer.
//!
//! Deliberately out of scope: chunked transfer encoding, multiple
//! header folding, HTTP/2. The in-tree client and common CLI tools
//! (`curl`) stay well inside the subset.

use std::io;

/// Hard cap on the request head (request line + headers + CRLFCRLF).
pub const MAX_HEAD_BYTES: usize = 8 * 1024;
/// Hard cap on a request body.
pub const MAX_BODY_BYTES: usize = 256 * 1024;

/// One parsed request. Every field borrows from the buffer it was
/// parsed out of, so parsing allocates nothing.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Request<'a> {
    /// Uppercase method (`GET`, `POST`, …) as sent.
    pub method: &'a str,
    /// Path component of the target, percent-decoding not applied.
    pub path: &'a str,
    /// Raw query string (no leading `?`), empty if absent.
    pub query: &'a str,
    /// The header lines, in arrival order.
    pub headers: Headers<'a>,
    /// The body (exactly `Content-Length` bytes).
    pub body: &'a [u8],
    /// Whether the connection should stay open after the response.
    pub keep_alive: bool,
}

impl<'a> Request<'a> {
    /// First header with this name (matched case-insensitively).
    pub fn header(&self, name: &str) -> Option<&'a str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v)
    }

    /// The body as UTF-8 (`None` if it is not).
    pub fn body_str(&self) -> Option<&'a str> {
        std::str::from_utf8(self.body).ok()
    }

    /// First value of a query parameter (`a=1&b=2` form; no decoding).
    pub fn query_param(&self, name: &str) -> Option<&'a str> {
        self.query.split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=')?;
            (k == name).then_some(v)
        })
    }
}

/// A request's header block as received: `name: value` lines separated
/// by CRLF. Names keep the case they were sent in; values are yielded
/// trimmed.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Headers<'a>(&'a str);

impl<'a> Headers<'a> {
    /// `(name, value)` pairs in arrival order.
    pub fn iter(&self) -> impl Iterator<Item = (&'a str, &'a str)> {
        self.0
            .split("\r\n")
            .filter_map(|line| line.split_once(':'))
            .map(|(name, value)| (name, value.trim()))
    }
}

/// Result of offering the buffer to the parser.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ParseStatus<'a> {
    /// A full request; `consumed` bytes of the buffer belong to it.
    Complete {
        /// The parsed request, borrowing from the offered buffer.
        request: Request<'a>,
        /// How many buffer bytes the request occupied (consume these).
        consumed: usize,
    },
    /// Valid so far, but incomplete — read more bytes.
    Partial,
    /// Protocol violation; respond with `status` and close.
    Invalid {
        /// The HTTP status to answer with (`400`, `431`, `413`, `505`).
        status: u16,
        /// Human-readable cause (ends up in the error body).
        reason: &'static str,
    },
}

fn invalid(status: u16, reason: &'static str) -> ParseStatus<'static> {
    ParseStatus::Invalid { status, reason }
}

/// Offers `buf` (the bytes received so far on a connection) to the
/// parser. See [`ParseStatus`].
pub fn parse_request(buf: &[u8]) -> ParseStatus<'_> {
    let Some(head_end) = find_head_end(buf) else {
        // No terminator yet: partial, unless the head already blew the
        // cap — then the terminator can never arrive in time.
        if buf.len() > MAX_HEAD_BYTES {
            return invalid(431, "request head too large");
        }
        return ParseStatus::Partial;
    };
    if head_end > MAX_HEAD_BYTES {
        return invalid(431, "request head too large");
    }
    let head = match std::str::from_utf8(&buf[..head_end]) {
        Ok(h) => h,
        Err(_) => return invalid(400, "request head is not UTF-8"),
    };
    let (request_line, header_block) = head.split_once("\r\n").unwrap_or((head, ""));
    let mut parts = request_line.split(' ');
    let (Some(method), Some(target), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return invalid(400, "malformed request line");
    };
    if parts.next().is_some() || method.is_empty() || target.is_empty() {
        return invalid(400, "malformed request line");
    }
    if !method.bytes().all(|b| b.is_ascii_uppercase()) {
        return invalid(400, "malformed method");
    }
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return invalid(505, "unsupported HTTP version");
    }
    if !target.starts_with('/') {
        return invalid(400, "target must be origin-form");
    }

    // One pass validates every header line and picks out the first
    // value of each header the framing depends on. A repeated
    // `Content-Length` must repeat the same length: two that disagree
    // would frame the body one way here and another way at a proxy
    // that took the other value.
    let mut content_length = None;
    let mut connection = None;
    let mut chunked = false;
    for line in header_block.split("\r\n") {
        if line.is_empty() {
            continue;
        }
        let Some((name, value)) = line.split_once(':') else {
            return invalid(400, "malformed header line");
        };
        if name.is_empty() || name.contains(' ') {
            return invalid(400, "malformed header name");
        }
        if name.eq_ignore_ascii_case("content-length") {
            match (parse_length(value.trim()), content_length) {
                (Some(n), None) => content_length = Some(n),
                (Some(n), Some(first)) if n == first => {}
                _ => return invalid(400, "bad Content-Length"),
            }
        } else if name.eq_ignore_ascii_case("connection") {
            connection.get_or_insert(value.trim());
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            chunked = true;
        }
    }

    let content_length = content_length.unwrap_or(0);
    if content_length > MAX_BODY_BYTES {
        return invalid(413, "body too large");
    }
    if chunked {
        return invalid(501, "chunked bodies not supported");
    }
    let body_start = head_end + 4;
    if buf.len() < body_start + content_length {
        return ParseStatus::Partial;
    }

    let has = |token: &str| connection.is_some_and(|v: &str| v.eq_ignore_ascii_case(token));
    let keep_alive = !has("close") && (version == "HTTP/1.1" || has("keep-alive"));
    let (path, query) = target.split_once('?').unwrap_or((target, ""));
    ParseStatus::Complete {
        request: Request {
            method,
            path,
            query,
            headers: Headers(header_block),
            body: &buf[body_start..body_start + content_length],
            keep_alive,
        },
        consumed: body_start + content_length,
    }
}

/// A `Content-Length` value: `1*DIGIT` (RFC 9110 §8.6), so no sign,
/// separator or list, and small enough for a `usize`.
fn parse_length(value: &str) -> Option<usize> {
    if value.is_empty() || !value.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    value.parse().ok()
}

/// Index of `\r\n\r\n` (start of the terminator), if present.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// One response to serialize.
#[derive(Clone, Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` value.
    pub content_type: &'static str,
    /// Response body.
    pub body: Vec<u8>,
    /// Close the connection after this response.
    pub close: bool,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: String) -> Self {
        Response {
            status,
            content_type: "application/json",
            body: body.into_bytes(),
            close: false,
        }
    }

    /// A JSON error envelope: `{"error": "..."}`.
    pub fn error(status: u16, message: &str) -> Self {
        let body = crate::json::object(12 + message.len(), |w| {
            w.key("error").str(message);
        });
        Response::json(status, body)
    }

    /// Serializes status line, headers and body into `out` (cleared
    /// first; a connection reuses one for its lifetime) and sends them
    /// with a single `write_all`, so the response leaves as one segment
    /// on a `TCP_NODELAY` socket. No `Date` header: responses must be
    /// byte-identical across replays.
    pub fn write_to(&self, w: &mut impl io::Write, out: &mut Vec<u8>) -> io::Result<()> {
        out.clear();
        out.extend_from_slice(b"HTTP/1.1 ");
        push_decimal(out, usize::from(self.status));
        out.push(b' ');
        out.extend_from_slice(reason_phrase(self.status).as_bytes());
        out.extend_from_slice(b"\r\ncontent-type: ");
        out.extend_from_slice(self.content_type.as_bytes());
        out.extend_from_slice(b"\r\ncontent-length: ");
        push_decimal(out, self.body.len());
        out.extend_from_slice(b"\r\n");
        if self.close {
            out.extend_from_slice(b"connection: close\r\n");
        }
        out.extend_from_slice(b"\r\n");
        out.extend_from_slice(&self.body);
        w.write_all(out)?;
        w.flush()
    }
}

/// Appends `n` in decimal.
fn push_decimal(out: &mut Vec<u8>, mut n: usize) {
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[i..]);
}

/// The canonical reason phrase for the statuses this server emits.
pub fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        505 => "HTTP Version Not Supported",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn complete(buf: &[u8]) -> (Request<'_>, usize) {
        match parse_request(buf) {
            ParseStatus::Complete { request, consumed } => (request, consumed),
            other => panic!("expected Complete, got {other:?}"),
        }
    }

    #[test]
    fn parses_a_get_with_query() {
        let (req, used) = complete(b"GET /events?from=12 HTTP/1.1\r\nHost: x\r\n\r\n");
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/events");
        assert_eq!(req.query_param("from"), Some("12"));
        assert!(req.keep_alive);
        assert_eq!(used, 41);
    }

    #[test]
    fn parses_a_post_with_body_split_across_offers() {
        let full = b"POST /v1/infer HTTP/1.1\r\ncontent-length: 13\r\n\r\n{\"service\":0}";
        for cut in 1..full.len() {
            assert_eq!(
                parse_request(&full[..cut]),
                ParseStatus::Partial,
                "cut at {cut}"
            );
        }
        let (req, used) = complete(full);
        assert_eq!(req.body_str(), Some("{\"service\":0}"));
        assert_eq!(used, full.len());
    }

    #[test]
    fn rejects_malformed_request_lines() {
        for bad in [
            &b"GARBAGE\r\n\r\n"[..],
            b"GET /\r\n\r\n",
            b"GET / HTTP/1.1 extra\r\n\r\n",
            b"get / HTTP/1.1\r\n\r\n",
            b"GET relative HTTP/1.1\r\n\r\n",
        ] {
            assert!(
                matches!(parse_request(bad), ParseStatus::Invalid { status: 400, .. }),
                "accepted {:?}",
                String::from_utf8_lossy(bad)
            );
        }
        assert!(matches!(
            parse_request(b"GET / HTTP/2.0\r\n\r\n"),
            ParseStatus::Invalid { status: 505, .. }
        ));
    }

    #[test]
    fn rejects_oversized_heads_even_without_terminator() {
        let mut buf = b"GET / HTTP/1.1\r\nx-pad: ".to_vec();
        buf.extend(std::iter::repeat_n(b'a', MAX_HEAD_BYTES + 1));
        assert!(matches!(
            parse_request(&buf),
            ParseStatus::Invalid { status: 431, .. }
        ));
    }

    #[test]
    fn rejects_oversized_declared_bodies() {
        let head = format!(
            "POST / HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert!(matches!(
            parse_request(head.as_bytes()),
            ParseStatus::Invalid { status: 413, .. }
        ));
    }

    fn with_lengths(lengths: &[&str]) -> String {
        let mut req = "POST / HTTP/1.1\r\n".to_string();
        for l in lengths {
            req.push_str(&format!("Content-Length:{l}\r\n"));
        }
        req + "\r\n{\"service\":0}"
    }

    #[test]
    fn content_length_must_be_plain_digits() {
        for bad in ["+13", "1_3", "13, 13", "-13", "", "0x0d"] {
            assert_eq!(
                parse_request(with_lengths(&[bad]).as_bytes()),
                ParseStatus::Invalid {
                    status: 400,
                    reason: "bad Content-Length"
                },
                "accepted {bad:?}"
            );
        }
        // Surrounding whitespace is the header's, not the value's.
        let req = with_lengths(&[" 13 "]);
        assert_eq!(
            complete(req.as_bytes()).0.body_str(),
            Some("{\"service\":0}")
        );
    }

    #[test]
    fn repeated_content_lengths_must_agree() {
        let same = with_lengths(&["13", " 13"]);
        let (req, used) = complete(same.as_bytes());
        assert_eq!(req.body_str(), Some("{\"service\":0}"));
        assert_eq!(used, same.len());
        for lengths in [&["13", "14"][..], &["14", "13"], &["13", "+13"]] {
            assert_eq!(
                parse_request(with_lengths(lengths).as_bytes()),
                ParseStatus::Invalid {
                    status: 400,
                    reason: "bad Content-Length"
                },
                "accepted {lengths:?}"
            );
        }
    }

    #[test]
    fn connection_close_and_http10_semantics() {
        let (req, _) = complete(b"GET / HTTP/1.1\r\nconnection: close\r\n\r\n");
        assert!(!req.keep_alive);
        let (req, _) = complete(b"GET / HTTP/1.0\r\n\r\n");
        assert!(!req.keep_alive);
        let (req, _) = complete(b"GET / HTTP/1.0\r\nconnection: keep-alive\r\n\r\n");
        assert!(req.keep_alive);
    }

    #[test]
    fn pipelined_requests_consume_exactly_one() {
        let two = b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n";
        let (req, used) = complete(two);
        assert_eq!(req.path, "/a");
        let (req2, _) = complete(&two[used..]);
        assert_eq!(req2.path, "/b");
    }

    #[test]
    fn headers_are_found_case_insensitively_in_arrival_order() {
        let (req, _) = complete(
            b"POST /x HTTP/1.1\r\nHost: a\r\nX-Tag:  one \r\nx-tag: two\r\nContent-Length: 0\r\n\r\n",
        );
        assert_eq!(req.header("x-tag"), Some("one"));
        assert_eq!(req.header("HOST"), Some("a"));
        assert_eq!(req.header("missing"), None);
        let all: Vec<_> = req.headers.iter().collect();
        assert_eq!(
            all,
            [
                ("Host", "a"),
                ("X-Tag", "one"),
                ("x-tag", "two"),
                ("Content-Length", "0")
            ]
        );
    }

    /// A `Write` that records every call it receives.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl io::Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn each_response_is_one_write_of_the_exact_bytes() {
        let mut closing = Response::json(200, "{\"ok\":true}".into());
        closing.close = true;
        let cases = [
            (
                Response::json(200, "{\"ok\":true}".into()),
                "HTTP/1.1 200 OK\r\ncontent-type: application/json\r\ncontent-length: 11\r\n\r\n{\"ok\":true}",
            ),
            (
                closing,
                "HTTP/1.1 200 OK\r\ncontent-type: application/json\r\ncontent-length: 11\r\nconnection: close\r\n\r\n{\"ok\":true}",
            ),
            (
                Response::error(404, "no such endpoint"),
                "HTTP/1.1 404 Not Found\r\ncontent-type: application/json\r\ncontent-length: 28\r\n\r\n{\"error\":\"no such endpoint\"}",
            ),
        ];
        // One buffer across the responses, as a connection keeps it.
        let mut buf = Vec::new();
        for (response, expected) in cases {
            let mut w = CountingWriter::default();
            response.write_to(&mut w, &mut buf).unwrap();
            assert_eq!(w.writes, 1, "{expected:?}");
            assert_eq!(String::from_utf8(w.bytes).unwrap(), expected);
        }
    }

    #[test]
    fn decimal_rendering_matches_display() {
        for n in [0, 7, 10, 99, 100, 65535, 262_144, usize::MAX] {
            let mut out = Vec::new();
            push_decimal(&mut out, n);
            assert_eq!(String::from_utf8(out).unwrap(), n.to_string());
        }
    }
}
