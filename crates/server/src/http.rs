//! A minimal HTTP/1.1 layer over blocking [`TcpStream`]s — just enough
//! protocol for a loopback control plane, with the ceilings a resident
//! service needs (header and body size limits, read deadlines) enforced
//! *before* memory is committed.
//!
//! The distinctive piece is the quantum-sliced read loop: instead of one
//! long blocking `read`, [`Conn::read_request`] waits in short
//! `SO_RCVTIMEO` quanta and re-checks an `idle_abort` predicate between
//! them. That is what lets a draining server wake its idle keep-alive
//! connections within ~100 ms without an async runtime, signals, or
//! platform-specific polling.
//!
//! Scope (deliberate): `Content-Length` bodies only (`Transfer-Encoding`
//! is answered with 501), no multiline headers, no TLS. Requests whose
//! first byte has arrived are always read to completion — draining only
//! aborts waits for a *next* request.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Hard ceiling on a request's head (request line + headers).
pub const DEFAULT_MAX_HEADER_BYTES: usize = 16 * 1024;

/// One parsed HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Uppercase method (`GET`, `POST`, ...), as sent.
    pub method: String,
    /// Decoded path without the query string (e.g. `/disambiguate`).
    pub path: String,
    /// Decoded query parameters, in order of appearance.
    pub query: Vec<(String, String)>,
    /// Headers with lowercased names, values trimmed, in order.
    pub headers: Vec<(String, String)>,
    /// The request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
    /// Whether the connection must close after the response
    /// (`Connection: close`, or HTTP/1.0 without keep-alive).
    pub close: bool,
}

impl Request {
    /// First header with the given (lowercase) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// First query parameter with the given name.
    pub fn query_get(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be read. Each variant maps onto one canonical
/// HTTP status (see [`HttpError::status`]).
#[derive(Debug)]
pub enum HttpError {
    /// The bytes are not a parseable HTTP/1.x request → 400.
    Malformed(String),
    /// The head outgrew the configured ceiling → 431.
    HeadersTooLarge(usize),
    /// A body-bearing method arrived without `Content-Length` → 411.
    LengthRequired,
    /// `Transfer-Encoding` is out of scope for this server → 501.
    UnsupportedTransfer,
    /// `Content-Length` exceeds the configured body ceiling → 413.
    /// Detected from the declared length, before reading the body.
    BodyTooLarge {
        /// The configured ceiling in bytes.
        limit: usize,
        /// The declared `Content-Length`.
        actual: usize,
    },
    /// A started request stalled past the read deadline → 408.
    Timeout,
    /// The socket failed; no response is possible.
    Io(io::Error),
}

impl HttpError {
    /// The HTTP status this error answers with (0 for [`HttpError::Io`],
    /// where no response can be written).
    pub fn status(&self) -> u16 {
        match self {
            Self::Malformed(_) => 400,
            Self::HeadersTooLarge(_) => 431,
            Self::LengthRequired => 411,
            Self::UnsupportedTransfer => 501,
            Self::BodyTooLarge { .. } => 413,
            Self::Timeout => 408,
            Self::Io(_) => 0,
        }
    }

    /// Human-readable detail for the error response body.
    pub fn message(&self) -> String {
        match self {
            Self::Malformed(detail) => format!("malformed request: {detail}"),
            Self::HeadersTooLarge(limit) => {
                format!("request head exceeds {limit} bytes")
            }
            Self::LengthRequired => "Content-Length required".to_string(),
            Self::UnsupportedTransfer => {
                "Transfer-Encoding is not supported; send Content-Length".to_string()
            }
            Self::BodyTooLarge { limit, actual } => {
                format!("body of {actual} bytes exceeds the {limit} byte limit")
            }
            Self::Timeout => "timed out reading the request".to_string(),
            Self::Io(e) => format!("i/o error: {e}"),
        }
    }
}

/// How patiently [`Conn::read_request`] waits, and how much it accepts.
pub struct ReadOpts<'a> {
    /// Maximum wait for the *first* byte of the next request before the
    /// connection is considered idle and closed (`Ok(None)`).
    pub idle_timeout: Duration,
    /// Maximum wall-clock to finish reading a request once its first byte
    /// has arrived.
    pub read_timeout: Duration,
    /// Poll slice: the longest the reader blocks before re-checking
    /// `idle_abort` and the deadlines.
    pub quantum: Duration,
    /// Ceiling on the request head (line + headers).
    pub max_header_bytes: usize,
    /// Ceiling on the declared `Content-Length`, if any.
    pub max_body_bytes: Option<usize>,
    /// Checked between quanta while waiting for a request's first byte;
    /// returning `true` closes the idle connection (`Ok(None)`). This is
    /// the drain hook.
    pub idle_abort: Option<&'a (dyn Fn() -> bool + 'a)>,
}

impl Default for ReadOpts<'_> {
    fn default() -> Self {
        Self {
            idle_timeout: Duration::from_secs(30),
            read_timeout: Duration::from_secs(10),
            quantum: Duration::from_millis(100),
            max_header_bytes: DEFAULT_MAX_HEADER_BYTES,
            max_body_bytes: None,
            idle_abort: None,
        }
    }
}

/// One outcome of pulling bytes off the socket.
enum Fill {
    /// At least one byte arrived.
    Data,
    /// Orderly remote close.
    Eof,
    /// The read quantum elapsed with nothing to read.
    Quantum,
}

/// A server-side connection: the stream plus the carry-over buffer that
/// keeps pipelined bytes between requests.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    /// Wraps an accepted stream.
    pub fn new(stream: TcpStream) -> Self {
        // Small request/response exchanges on loopback: never Nagle.
        stream.set_nodelay(true).ok();
        Self {
            stream,
            buf: Vec::new(),
        }
    }

    /// Pulls more bytes into the buffer, waiting at most `quantum`.
    fn fill(&mut self, quantum: Duration) -> Result<Fill, HttpError> {
        self.stream
            .set_read_timeout(Some(quantum.max(Duration::from_millis(1))))
            .map_err(HttpError::Io)?;
        let mut chunk = [0u8; 4096];
        match self.stream.read(&mut chunk) {
            Ok(0) => Ok(Fill::Eof),
            Ok(n) => {
                self.buf.extend_from_slice(&chunk[..n]);
                Ok(Fill::Data)
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) =>
            {
                Ok(Fill::Quantum)
            }
            Err(e) => Err(HttpError::Io(e)),
        }
    }

    /// Reads the next request. `Ok(None)` means the connection ended
    /// quietly: remote close between requests, idle timeout, or an
    /// `idle_abort` (drain) — nothing to respond to.
    pub fn read_request(&mut self, opts: &ReadOpts) -> Result<Option<Request>, HttpError> {
        let started = Instant::now();
        // Carried-over pipelined bytes count as a started request.
        let mut first_byte: Option<Instant> = (!self.buf.is_empty()).then(Instant::now);

        // Phase 1: accumulate the head.
        let head_end = loop {
            if let Some(end) = find_subslice(&self.buf, b"\r\n\r\n") {
                break end;
            }
            if self.buf.len() > opts.max_header_bytes {
                return Err(HttpError::HeadersTooLarge(opts.max_header_bytes));
            }
            match self.fill(opts.quantum)? {
                Fill::Data => {
                    first_byte.get_or_insert_with(Instant::now);
                }
                Fill::Eof => {
                    return if self.buf.is_empty() {
                        Ok(None)
                    } else {
                        Err(HttpError::Malformed("connection closed mid-head".into()))
                    };
                }
                Fill::Quantum => match first_byte {
                    None => {
                        if opts.idle_abort.is_some_and(|abort| abort()) {
                            return Ok(None);
                        }
                        if started.elapsed() >= opts.idle_timeout {
                            return Ok(None);
                        }
                    }
                    Some(t0) => {
                        if t0.elapsed() >= opts.read_timeout {
                            return Err(HttpError::Timeout);
                        }
                    }
                },
            }
        };

        let head = String::from_utf8(self.buf[..head_end].to_vec())
            .map_err(|_| HttpError::Malformed("head is not valid UTF-8".into()))?;
        self.buf.drain(..head_end + 4);
        let (method, target, headers, http10) = parse_head(&head)?;

        let mut close = header_value(&headers, "connection")
            .map(|v| v.eq_ignore_ascii_case("close"))
            .unwrap_or(false);
        if http10 {
            close = !header_value(&headers, "connection")
                .map(|v| v.eq_ignore_ascii_case("keep-alive"))
                .unwrap_or(false);
        }

        // Phase 2: the body.
        if header_value(&headers, "transfer-encoding").is_some() {
            return Err(HttpError::UnsupportedTransfer);
        }
        let content_length = match header_value(&headers, "content-length") {
            Some(v) => Some(
                v.trim()
                    .parse::<usize>()
                    .map_err(|_| HttpError::Malformed(format!("bad Content-Length {v:?}")))?,
            ),
            None => None,
        };
        let body_len = match content_length {
            Some(n) => n,
            // Body-bearing methods must declare a length; the rest have
            // no body by convention.
            None if method == "POST" || method == "PUT" || method == "PATCH" => {
                return Err(HttpError::LengthRequired);
            }
            None => 0,
        };
        if let Some(limit) = opts.max_body_bytes {
            if body_len > limit {
                return Err(HttpError::BodyTooLarge {
                    limit,
                    actual: body_len,
                });
            }
        }
        if body_len > 0
            && header_value(&headers, "expect")
                .is_some_and(|v| v.to_ascii_lowercase().contains("100-continue"))
        {
            self.stream
                .write_all(b"HTTP/1.1 100 Continue\r\n\r\n")
                .map_err(HttpError::Io)?;
        }
        let body_started = Instant::now();
        while self.buf.len() < body_len {
            match self.fill(opts.quantum)? {
                Fill::Data => {}
                Fill::Eof => {
                    return Err(HttpError::Malformed("connection closed mid-body".into()));
                }
                Fill::Quantum => {
                    if body_started.elapsed() >= opts.read_timeout {
                        return Err(HttpError::Timeout);
                    }
                }
            }
        }
        let body: Vec<u8> = self.buf.drain(..body_len).collect();

        let (path, query) = split_target(&target);
        Ok(Some(Request {
            method,
            path,
            query,
            headers,
            body,
            close,
        }))
    }

    /// Writes a full response. The writer owns `Content-Length` and
    /// `Connection`; callers must not set either.
    pub fn write_response(&mut self, resp: &Response) -> io::Result<()> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\n",
            resp.status,
            reason_phrase(resp.status)
        );
        for (name, value) in &resp.headers {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        head.push_str(&format!("Content-Length: {}\r\n", resp.body.len()));
        head.push_str(if resp.close {
            "Connection: close\r\n"
        } else {
            "Connection: keep-alive\r\n"
        });
        head.push_str("\r\n");
        self.stream.write_all(head.as_bytes())?;
        self.stream.write_all(&resp.body)?;
        self.stream.flush()
    }
}

/// One response about to be written.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Extra headers (never `Content-Length`/`Connection` — the writer
    /// owns those).
    pub headers: Vec<(String, String)>,
    /// Response body bytes.
    pub body: Vec<u8>,
    /// Whether to close the connection after this response.
    pub close: bool,
}

impl Response {
    /// An empty response with the given status.
    pub fn new(status: u16) -> Self {
        Self {
            status,
            headers: Vec::new(),
            body: Vec::new(),
            close: false,
        }
    }

    /// Adds a header.
    pub fn header(mut self, name: &str, value: impl Into<String>) -> Self {
        self.headers.push((name.to_string(), value.into()));
        self
    }

    /// Sets the body and its content type.
    pub fn body(mut self, content_type: &str, body: impl Into<Vec<u8>>) -> Self {
        self.headers
            .push(("Content-Type".to_string(), content_type.to_string()));
        self.body = body.into();
        self
    }

    /// A JSON response (body should already be serialized).
    pub fn json(status: u16, body: impl Into<Vec<u8>>) -> Self {
        Self::new(status).body("application/json", body)
    }

    /// Marks the connection for close after this response.
    pub fn closing(mut self) -> Self {
        self.close = true;
        self
    }
}

/// The canonical reason phrase for the statuses this server emits.
pub fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        411 => "Length Required",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// Parses the head block (request line + headers, no trailing CRLFCRLF)
/// into `(method, target, headers, is_http10)`.
#[allow(clippy::type_complexity)]
fn parse_head(head: &str) -> Result<(String, String, Vec<(String, String)>, bool), HttpError> {
    let mut lines = head.split("\r\n");
    let request_line = lines
        .next()
        .ok_or_else(|| HttpError::Malformed("empty request".into()))?;
    let mut parts = request_line.split(' ');
    let (Some(method), Some(target), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return Err(HttpError::Malformed(format!(
            "bad request line {request_line:?}"
        )));
    };
    if parts.next().is_some() || method.is_empty() || target.is_empty() {
        return Err(HttpError::Malformed(format!(
            "bad request line {request_line:?}"
        )));
    }
    let http10 = match version {
        "HTTP/1.1" => false,
        "HTTP/1.0" => true,
        other => {
            return Err(HttpError::Malformed(format!(
                "unsupported version {other:?}"
            )));
        }
    };
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::Malformed(format!("bad header line {line:?}")));
        };
        if name.is_empty() || name.contains(' ') {
            return Err(HttpError::Malformed(format!("bad header name {name:?}")));
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
    }
    Ok((method.to_string(), target.to_string(), headers, http10))
}

/// First value of a (lowercase) header name.
fn header_value<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v.as_str())
}

/// Splits a request target into a decoded path and query pairs.
fn split_target(target: &str) -> (String, Vec<(String, String)>) {
    match target.split_once('?') {
        None => (percent_decode(target, false), Vec::new()),
        Some((path, query)) => {
            let pairs = query
                .split('&')
                .filter(|pair| !pair.is_empty())
                .map(|pair| match pair.split_once('=') {
                    Some((k, v)) => (percent_decode(k, true), percent_decode(v, true)),
                    None => (percent_decode(pair, true), String::new()),
                })
                .collect();
            (percent_decode(path, false), pairs)
        }
    }
}

/// Percent-decoding; in query components `+` also decodes to space.
/// Invalid escapes pass through literally (this is a loopback control
/// plane, not a hardened edge).
fn percent_decode(s: &str, in_query: bool) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hex = bytes.get(i + 1..i + 3);
                match hex.and_then(|h| u8::from_str_radix(std::str::from_utf8(h).ok()?, 16).ok()) {
                    Some(byte) => {
                        out.push(byte);
                        i += 3;
                    }
                    None => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b'+' if in_query => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// First index of `needle` in `haystack`.
fn find_subslice(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack
        .windows(needle.len())
        .position(|window| window == needle)
}

// ---------------------------------------------------------------------
// Client side: just enough to drive the server from the benchmark
// (`perfbench`) and the protocol tests.
// ---------------------------------------------------------------------

/// One response as seen by the minimal client.
#[derive(Debug, Clone)]
pub struct ClientResponse {
    /// HTTP status code.
    pub status: u16,
    /// Headers with lowercased names.
    pub headers: Vec<(String, String)>,
    /// Response body bytes.
    pub body: Vec<u8>,
    /// Whether the server asked to close the connection.
    pub close: bool,
}

impl ClientResponse {
    /// First header with the given (lowercase) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        header_value(&self.headers, name)
    }
}

/// Sends one request and reads the full response on a keep-alive
/// connection. `carry` holds the client-side read buffer across calls on
/// the same stream.
pub fn client_roundtrip(
    stream: &mut TcpStream,
    carry: &mut Vec<u8>,
    method: &str,
    target: &str,
    headers: &[(&str, &str)],
    body: &[u8],
) -> io::Result<ClientResponse> {
    let mut head = format!("{method} {target} HTTP/1.1\r\nHost: xsdf\r\n");
    for (name, value) in headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    if !body.is_empty() || method == "POST" {
        head.push_str(&format!("Content-Length: {}\r\n", body.len()));
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()?;
    read_client_response(stream, carry)
}

/// Reads one response off the stream (headers then a `Content-Length`
/// body). Interim `100 Continue` responses are skipped.
pub fn read_client_response(
    stream: &mut TcpStream,
    carry: &mut Vec<u8>,
) -> io::Result<ClientResponse> {
    loop {
        let head_end = loop {
            if let Some(end) = find_subslice(carry, b"\r\n\r\n") {
                break end;
            }
            let mut chunk = [0u8; 4096];
            let n = stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-response",
                ));
            }
            carry.extend_from_slice(&chunk[..n]);
        };
        let head = String::from_utf8_lossy(&carry[..head_end]).into_owned();
        carry.drain(..head_end + 4);
        let mut lines = head.split("\r\n");
        let status_line = lines.next().unwrap_or("");
        let status: u16 = status_line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("bad status line {status_line:?}"),
                )
            })?;
        if status == 100 {
            continue; // interim response; the real one follows
        }
        let headers: Vec<(String, String)> = lines
            .filter_map(|line| line.split_once(':'))
            .map(|(k, v)| (k.to_ascii_lowercase(), v.trim().to_string()))
            .collect();
        let body_len: usize = header_value(&headers, "content-length")
            .and_then(|v| v.parse().ok())
            .unwrap_or(0);
        while carry.len() < body_len {
            let mut chunk = [0u8; 4096];
            let n = stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-body",
                ));
            }
            carry.extend_from_slice(&chunk[..n]);
        }
        let body: Vec<u8> = carry.drain(..body_len).collect();
        let close = header_value(&headers, "connection")
            .map(|v| v.eq_ignore_ascii_case("close"))
            .unwrap_or(false);
        return Ok(ClientResponse {
            status,
            headers,
            body,
            close,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn head_parses_method_target_version_and_headers() {
        let (method, target, headers, http10) = parse_head(
            "POST /disambiguate?radius=2 HTTP/1.1\r\nHost: x\r\nContent-Type: application/xml",
        )
        .unwrap();
        assert_eq!(method, "POST");
        assert_eq!(target, "/disambiguate?radius=2");
        assert!(!http10);
        assert_eq!(
            headers,
            vec![
                ("host".to_string(), "x".to_string()),
                ("content-type".to_string(), "application/xml".to_string()),
            ]
        );
    }

    #[test]
    fn malformed_heads_are_rejected() {
        for head in [
            "",
            "GET",
            "GET /x",
            "GET /x HTTP/2.0",
            "GET /x HTTP/1.1 extra",
            "GET /x HTTP/1.1\r\nno-colon-here",
            "GET /x HTTP/1.1\r\nbad name: v",
        ] {
            let err = parse_head(head).unwrap_err();
            assert_eq!(err.status(), 400, "{head:?} should be malformed");
        }
    }

    #[test]
    fn http10_is_accepted_and_marked() {
        let (.., http10) = parse_head("GET / HTTP/1.0").unwrap();
        assert!(http10);
    }

    #[test]
    fn target_splits_and_decodes() {
        let (path, query) = split_target("/disambiguate?radius=3&process=concept&x=a%20b+c");
        assert_eq!(path, "/disambiguate");
        assert_eq!(
            query,
            vec![
                ("radius".to_string(), "3".to_string()),
                ("process".to_string(), "concept".to_string()),
                ("x".to_string(), "a b c".to_string()),
            ]
        );
        let (path, query) = split_target("/metrics");
        assert_eq!(path, "/metrics");
        assert!(query.is_empty());
    }

    #[test]
    fn percent_decoding_tolerates_bad_escapes() {
        assert_eq!(percent_decode("a%2Fb", false), "a/b");
        assert_eq!(percent_decode("100%", false), "100%");
        assert_eq!(percent_decode("%zz", false), "%zz");
        // `+` is a space only in query components.
        assert_eq!(percent_decode("a+b", false), "a+b");
        assert_eq!(percent_decode("a+b", true), "a b");
    }

    #[test]
    fn error_statuses_are_stable() {
        assert_eq!(HttpError::Malformed("x".into()).status(), 400);
        assert_eq!(HttpError::HeadersTooLarge(16).status(), 431);
        assert_eq!(HttpError::LengthRequired.status(), 411);
        assert_eq!(HttpError::UnsupportedTransfer.status(), 501);
        assert_eq!(
            HttpError::BodyTooLarge {
                limit: 1,
                actual: 2
            }
            .status(),
            413
        );
        assert_eq!(HttpError::Timeout.status(), 408);
    }

    #[test]
    fn reason_phrases_cover_emitted_statuses() {
        for status in [
            200, 400, 404, 405, 408, 411, 413, 429, 431, 500, 501, 503, 504,
        ] {
            assert_ne!(reason_phrase(status), "Unknown", "status {status}");
        }
    }
}
