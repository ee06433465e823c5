//! A deliberately small HTTP/1.1 layer over [`std::net::TcpStream`].
//!
//! The daemon needs exactly four things from HTTP: a request line, a
//! `Content-Length`-framed body, a status line back, and `Connection:
//! close` semantics (one request per connection — admission control is
//! per request, so keep-alive would complicate the accounting for no
//! benefit at the daemon's request sizes). Everything else — chunked
//! encoding, compression, TLS — is out of scope on purpose; the
//! workspace is std-only and this layer must stay auditable.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Upper bound on the request head (request line + headers).
const MAX_HEAD_BYTES: usize = 16 * 1024;

/// How long a connected client may take to deliver its request before
/// the read aborts. Bounds slow-loris connections: an accepted socket
/// can stall the accept loop for at most this long.
pub const READ_TIMEOUT: Duration = Duration::from_secs(5);

/// A parsed request: method, path, headers and (possibly empty) body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request method (`GET`, `POST`, …), uppercased by the client.
    pub method: String,
    /// Request path including any query string, e.g. `/synth`.
    pub path: String,
    /// Header `(name, value)` pairs in wire order; names lowercased,
    /// values trimmed. Duplicates are kept as received.
    pub headers: Vec<(String, String)>,
    /// The request body (empty when no `Content-Length` was sent).
    pub body: String,
}

impl Request {
    /// The value of the first header with this (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum HttpError {
    /// The bytes on the wire were not a well-formed HTTP/1.1 request.
    Malformed(String),
    /// The head or body exceeded the configured bound → 413.
    TooLarge(String),
    /// The socket failed or timed out mid-request.
    Io(io::Error),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Malformed(m) => write!(f, "malformed request: {m}"),
            HttpError::TooLarge(m) => write!(f, "request too large: {m}"),
            HttpError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for HttpError {}

impl From<io::Error> for HttpError {
    fn from(e: io::Error) -> Self {
        HttpError::Io(e)
    }
}

/// Reads one request from `stream`. `max_body` bounds the body size
/// (a `Content-Length` beyond it fails fast with
/// [`HttpError::TooLarge`] before any body byte is read).
pub fn read_request(stream: &mut TcpStream, max_body: usize) -> Result<Request, HttpError> {
    stream.set_read_timeout(Some(READ_TIMEOUT))?;
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 1024];
    // Read until the blank line ending the head.
    let head_end = loop {
        if let Some(pos) = find_head_end(&buf) {
            break pos;
        }
        if buf.len() > MAX_HEAD_BYTES {
            return Err(HttpError::TooLarge(format!(
                "request head exceeds {MAX_HEAD_BYTES} bytes"
            )));
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(HttpError::Malformed("connection closed mid-head".into()));
        }
        buf.extend_from_slice(&chunk[..n]);
    };

    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| HttpError::Malformed("head is not UTF-8".into()))?
        .to_owned();
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v), None) if !m.is_empty() && p.starts_with('/') => (m, p, v),
        _ => {
            return Err(HttpError::Malformed(format!(
                "bad request line: {request_line:?}"
            )))
        }
    };
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed(format!("bad version: {version:?}")));
    }

    let mut content_length = None;
    let mut headers = Vec::new();
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::Malformed(format!("bad header line: {line:?}")));
        };
        if name.eq_ignore_ascii_case("content-length") {
            let length = (value.trim().parse())
                .map_err(|_| HttpError::Malformed(format!("bad content-length: {value:?}")))?;
            // RFC 9112 §6.3: differing lengths leave the framing unknown.
            if content_length.is_some_and(|seen| seen != length) {
                return Err(HttpError::Malformed("conflicting content-length".into()));
            }
            content_length = Some(length);
        }
        if name.eq_ignore_ascii_case("transfer-encoding") {
            return Err(HttpError::Malformed(
                "chunked transfer encoding is not supported".into(),
            ));
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_owned()));
    }
    let content_length = content_length.unwrap_or(0);
    if content_length > max_body {
        return Err(HttpError::TooLarge(format!(
            "content-length {content_length} exceeds limit {max_body}"
        )));
    }

    // The body: whatever followed the head in `buf`, then the rest.
    let mut body = buf.split_off(head_end + 4);
    if body.len() > content_length {
        return Err(HttpError::Malformed(
            "body longer than content-length".into(),
        ));
    }
    while body.len() < content_length {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(HttpError::Malformed("connection closed mid-body".into()));
        }
        body.extend_from_slice(&chunk[..n]);
        if body.len() > content_length {
            return Err(HttpError::Malformed(
                "body longer than content-length".into(),
            ));
        }
    }
    let body =
        String::from_utf8(body).map_err(|_| HttpError::Malformed("body is not UTF-8".into()))?;
    Ok(Request {
        method: method.to_owned(),
        path: path.to_owned(),
        headers,
        body,
    })
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// The reason phrase for the handful of status codes the daemon emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// Writes one `Connection: close` response and flushes it. Errors are
/// returned, not panicked — a client that hung up mid-response is
/// routine for a server.
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &str,
) -> io::Result<()> {
    write_response_with(stream, status, content_type, &[], body)
}

/// [`write_response`] with extra response headers (e.g. the
/// `x-request-id` echo). Header names and values must be wire-safe; the
/// caller controls both.
pub fn write_response_with(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    extra_headers: &[(&str, &str)],
    body: &str,
) -> io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n",
        status,
        reason(status),
        content_type,
        body.len(),
    );
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("Connection: close\r\n\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};
    use std::thread;

    /// Runs `read_request` against raw bytes delivered over a real
    /// socket pair, mirroring production framing exactly.
    fn read_raw(raw: &[u8], max_body: usize) -> Result<Request, HttpError> {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let raw = raw.to_vec();
        let writer = thread::spawn(move || {
            let mut s = TcpStream::connect(addr).expect("connect");
            s.write_all(&raw).expect("write");
            // Keep the socket open until the reader is done; dropping
            // early would race a clean close against a mid-body close.
            s.shutdown(std::net::Shutdown::Write).ok();
            let mut sink = Vec::new();
            s.read_to_end(&mut sink).ok();
        });
        let (mut conn, _) = listener.accept().expect("accept");
        let result = read_request(&mut conn, max_body);
        drop(conn);
        writer.join().expect("writer");
        result
    }

    #[test]
    fn parses_a_post_with_body() {
        let req = read_raw(
            b"POST /synth HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\n{\"a\"",
            1024,
        )
        .expect("parsed");
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/synth");
        assert_eq!(req.body, "{\"a\"");
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.header("HOST"), Some("x"), "lookup is case-insensitive");
        assert_eq!(req.header("content-length"), Some("4"));
        assert_eq!(req.header("absent"), None);
    }

    #[test]
    fn captures_headers_in_order_with_trimmed_values() {
        let req = read_raw(
            b"GET /x HTTP/1.1\r\nX-Request-Id: abc123  \r\nTraceparent: 00-ff-ee-01\r\n\r\n",
            1024,
        )
        .expect("parsed");
        assert_eq!(req.header("x-request-id"), Some("abc123"));
        assert_eq!(req.header("traceparent"), Some("00-ff-ee-01"));
        assert_eq!(req.headers[0].0, "x-request-id", "names are lowercased");
    }

    #[test]
    fn parses_a_get_without_body() {
        let req = read_raw(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n", 1024).expect("parsed");
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert_eq!(req.body, "");
    }

    #[test]
    fn rejects_garbage_and_bad_framing() {
        assert!(matches!(
            read_raw(b"not http at all\r\n\r\n", 1024),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            read_raw(b"GET /x HTTP/2.0\r\n\r\n", 1024),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            read_raw(b"POST /x HTTP/1.1\r\nContent-Length: ten\r\n\r\n", 1024),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            read_raw(
                b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
                1024
            ),
            Err(HttpError::Malformed(_))
        ));
    }

    #[test]
    fn rejects_conflicting_content_lengths() {
        let conflicting = b"POST /x HTTP/1.1\r\nContent-Length: 2\r\ncontent-length: 4\r\n\r\n{}{}";
        assert!(matches!(
            read_raw(conflicting, 1024),
            Err(HttpError::Malformed(m)) if m.contains("conflicting content-length")
        ));
        // A repeated equal length frames the body unambiguously.
        let repeated = b"POST /x HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\n{}";
        assert_eq!(read_raw(repeated, 1024).expect("framed").body, "{}");
    }

    #[test]
    fn caps_oversize_bodies_before_reading_them() {
        let result = read_raw(b"POST /x HTTP/1.1\r\nContent-Length: 999999\r\n\r\n", 1024);
        assert!(matches!(result, Err(HttpError::TooLarge(_))));
    }

    #[test]
    fn write_response_with_emits_extra_headers() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let reader = thread::spawn(move || {
            let mut s = TcpStream::connect(addr).expect("connect");
            let mut out = String::new();
            s.read_to_string(&mut out).expect("read");
            out
        });
        let (mut conn, _) = listener.accept().expect("accept");
        write_response_with(
            &mut conn,
            200,
            "application/json",
            &[("x-request-id", "deadbeef")],
            "{}",
        )
        .expect("write");
        drop(conn);
        let out = reader.join().expect("reader");
        assert!(out.contains("\r\nx-request-id: deadbeef\r\n"), "{out}");
        assert!(out.contains("Connection: close\r\n\r\n{}"), "{out}");
    }

    #[test]
    fn reports_truncated_bodies() {
        let result = read_raw(b"POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc", 1024);
        assert!(matches!(result, Err(HttpError::Malformed(_))));
    }
}
