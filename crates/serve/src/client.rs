//! A minimal blocking HTTP/1.1 client for the in-tree drivers: the CI
//! smoke binary, the closed-loop example, and the integration tests.
//!
//! One request per call over a fresh connection (`connection: close`),
//! which keeps the client trivially correct; keep-alive reuse is
//! exercised separately by the HTTP-layer tests with raw sockets.

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A decoded response.
#[derive(Clone, Debug)]
pub struct HttpReply {
    /// Status code from the status line.
    pub status: u16,
    /// Headers, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// Body bytes (exactly `Content-Length` of them).
    pub body: Vec<u8>,
}

impl HttpReply {
    /// The body as UTF-8 (lossy).
    pub fn body_str(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }

    /// First header with this (lower-case) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Issues one request. `body` implies `content-type: application/json`.
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> std::io::Result<HttpReply> {
    let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    stream.set_nodelay(true)?;
    let body = body.unwrap_or("");
    // Head and body in one write, so the request leaves as one segment.
    let message = format!(
        "{method} {path} HTTP/1.1\r\nhost: {addr}\r\nconnection: close\r\n\
         content-length: {}\r\n{}\r\n{body}",
        body.len(),
        if body.is_empty() {
            ""
        } else {
            "content-type: application/json\r\n"
        }
    );
    stream.write_all(message.as_bytes())?;

    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    parse_reply(&raw)
}

fn bad(reason: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, reason.to_string())
}

fn parse_reply(raw: &[u8]) -> std::io::Result<HttpReply> {
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| bad("no header terminator"))?;
    let head = std::str::from_utf8(&raw[..head_end]).map_err(|_| bad("non-UTF-8 response head"))?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or("");
    let status = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    let mut headers = Vec::new();
    for line in lines {
        if let Some((k, v)) = line.split_once(':') {
            headers.push((k.to_ascii_lowercase(), v.trim().to_string()));
        }
    }
    let body_start = head_end + 4;
    let body = match headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .and_then(|(_, v)| v.parse::<usize>().ok())
    {
        Some(len) => match body_start.checked_add(len) {
            Some(end) if end <= raw.len() => raw[body_start..end].to_vec(),
            _ => return Err(bad("truncated body")),
        },
        None => raw[body_start..].to_vec(),
    };
    Ok(HttpReply {
        status,
        headers,
        body,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_reply_with_content_length() {
        let raw =
            b"HTTP/1.1 200 OK\r\ncontent-type: application/json\r\ncontent-length: 2\r\n\r\n{}";
        let reply = parse_reply(raw).unwrap();
        assert_eq!(reply.status, 200);
        assert_eq!(reply.body_str(), "{}");
        assert_eq!(reply.header("content-type"), Some("application/json"));
    }

    #[test]
    fn rejects_truncated_replies() {
        assert!(parse_reply(b"HTTP/1.1 200 OK\r\ncontent-length: 5\r\n\r\nab").is_err());
        assert!(parse_reply(b"garbage").is_err());
        // A length that overflows the body offset is refused, not a
        // panic (debug) or a wrapped slice bound (release).
        let hostile =
            parse_reply(b"HTTP/1.1 200 OK\r\ncontent-length: 18446744073709551615\r\n\r\nab");
        assert_eq!(hostile.unwrap_err().kind(), std::io::ErrorKind::InvalidData);
    }
}
