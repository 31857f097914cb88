//! Minimal HTTP/1.1 framing — just enough for the prediction API.
//!
//! Zero-dependency by construction: the parser owns a byte buffer fed
//! from any `Read`, locates the `\r\n\r\n` head/body split itself, and
//! keeps unconsumed bytes across requests so pipelined or keep-alive
//! traffic needs no re-buffering layer. Every malformed input maps to a
//! typed [`HttpError`] — the crate-wide no-panic rule means a fuzzer (or
//! a hostile client) can only ever produce a 4xx, never a crash.
//!
//! Hard limits, enforced before any allocation proportional to the
//! claimed size: request head ≤ [`MAX_HEAD_BYTES`], header count ≤
//! [`MAX_HEADERS`], body ≤ [`MAX_BODY_BYTES`].
//!
//! Framing is strict: a body is exactly the one `Content-Length` (ASCII
//! digits only) bytes after the head. A second `Content-Length` or any
//! `Transfer-Encoding` is a 400, so no connection can hide a second
//! request inside the first one's body.

use std::io::{Read, Write};

/// Maximum bytes in the request line + headers block.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Maximum number of header lines.
pub const MAX_HEADERS: usize = 64;
/// Maximum request body size (the prediction API takes small JSON).
pub const MAX_BODY_BYTES: usize = 1024 * 1024;

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    /// Upper-cased method token (`GET`, `POST`, ...).
    pub method: String,
    /// Request target, e.g. `/predict`.
    pub path: String,
    /// Parsed headers as `(lowercased-name, value)` pairs.
    pub headers: Vec<(String, String)>,
    /// Request body (`Content-Length` bytes; empty without the header).
    pub body: Vec<u8>,
    /// Whether the connection should stay open after the response.
    pub keep_alive: bool,
}

impl Request {
    /// First value of a header, by lowercase name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum HttpError {
    /// Malformed framing — answer 400 and close.
    BadRequest(&'static str),
    /// Body larger than [`MAX_BODY_BYTES`] — answer 413 and close.
    PayloadTooLarge,
    /// Peer closed the connection mid-request; nothing to answer.
    Disconnected,
    /// The read timed out. `idle` is true when no request bytes had
    /// arrived yet (a quiet keep-alive connection), false when a partial
    /// request is buffered. Either way nothing was consumed, so the
    /// caller may read again.
    Timeout {
        /// No partial request buffered when the timer fired.
        idle: bool,
    },
    /// Any other transport error; nothing to answer.
    Io(std::io::Error),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::BadRequest(what) => write!(f, "bad request: {what}"),
            HttpError::PayloadTooLarge => write!(f, "payload too large"),
            HttpError::Disconnected => write!(f, "peer disconnected"),
            HttpError::Timeout { idle } => write!(f, "timeout (idle={idle})"),
            HttpError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

/// Result of waiting for the next request on a connection.
#[derive(Debug)]
pub enum ReadOutcome {
    /// A complete request was framed.
    Request(Request),
    /// The peer closed the connection cleanly between requests.
    Closed,
}

/// A connection's read side: transport plus the carry-over buffer.
pub struct HttpConn<R> {
    inner: R,
    /// Received-but-unconsumed bytes (next request head, or body tail of
    /// a pipelined request).
    buf: Vec<u8>,
}

impl<R: Read> HttpConn<R> {
    /// Wraps a transport (a `TcpStream`, or any `Read` in tests).
    pub fn new(inner: R) -> Self {
        HttpConn {
            inner,
            buf: Vec::new(),
        }
    }

    /// The wrapped transport (to write the response to).
    pub fn get_mut(&mut self) -> &mut R {
        &mut self.inner
    }

    /// Pulls more bytes into the carry-over buffer. Returns the number
    /// read; 0 means EOF.
    fn fill(&mut self) -> Result<usize, HttpError> {
        let mut chunk = [0u8; 4096];
        loop {
            match self.inner.read(&mut chunk) {
                Ok(n) => {
                    self.buf.extend_from_slice(&chunk[..n]);
                    return Ok(n);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    return Err(HttpError::Timeout {
                        idle: self.buf.is_empty(),
                    });
                }
                Err(e) => return Err(HttpError::Io(e)),
            }
        }
    }

    /// Reads and frames the next request, blocking until it is complete
    /// (or the transport's own read timeout fires).
    ///
    /// Nothing is consumed from the buffer until the whole request —
    /// head *and* body — has arrived, so after a `Timeout` the
    /// connection can simply be polled again.
    pub fn read_request(&mut self) -> Result<ReadOutcome, HttpError> {
        // 1. Accumulate until the head/body split is buffered.
        let head_end = loop {
            if let Some(pos) = find_subslice(&self.buf, b"\r\n\r\n") {
                break pos;
            }
            if self.buf.len() > MAX_HEAD_BYTES {
                return Err(HttpError::BadRequest("request head too large"));
            }
            if self.fill()? == 0 {
                if self.buf.is_empty() {
                    return Ok(ReadOutcome::Closed);
                }
                return Err(HttpError::Disconnected);
            }
        };
        if head_end > MAX_HEAD_BYTES {
            return Err(HttpError::BadRequest("request head too large"));
        }
        let head = String::from_utf8(self.buf[..head_end].to_vec())
            .map_err(|_| HttpError::BadRequest("request head is not UTF-8"))?;
        let head = head.as_str();

        // 2. Request line: METHOD SP TARGET SP VERSION.
        let mut lines = head.split("\r\n");
        let request_line = lines.next().unwrap_or("");
        let mut parts = request_line.split(' ');
        let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next())
        {
            (Some(m), Some(p), Some(v), None) if !m.is_empty() && !p.is_empty() => (m, p, v),
            _ => return Err(HttpError::BadRequest("malformed request line")),
        };
        if !method.bytes().all(|b| b.is_ascii_uppercase()) {
            return Err(HttpError::BadRequest("malformed method token"));
        }
        if !path.starts_with('/') {
            return Err(HttpError::BadRequest("request target must be absolute"));
        }
        let http11 = match version {
            "HTTP/1.1" => true,
            "HTTP/1.0" => false,
            _ => return Err(HttpError::BadRequest("unsupported HTTP version")),
        };

        // 3. Headers.
        let mut headers = Vec::new();
        for line in lines {
            if headers.len() >= MAX_HEADERS {
                return Err(HttpError::BadRequest("too many headers"));
            }
            let (name, value) = line
                .split_once(':')
                .ok_or(HttpError::BadRequest("malformed header line"))?;
            if name.is_empty() || name.contains(' ') {
                return Err(HttpError::BadRequest("malformed header name"));
            }
            headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
        }
        // Bodies are framed by one Content-Length alone. A second length
        // or a transfer coding would let the bytes after this body be
        // read as another request, so both are rejected.
        let mut content_length = None;
        for (name, value) in &headers {
            match name.as_str() {
                "content-length" if content_length.is_some() => {
                    return Err(HttpError::BadRequest("duplicate Content-Length"));
                }
                "content-length" => content_length = Some(parse_content_length(value)?),
                "transfer-encoding" => {
                    return Err(HttpError::BadRequest("Transfer-Encoding is not supported"));
                }
                _ => {}
            }
        }
        let content_length = content_length.unwrap_or(0);
        if content_length > MAX_BODY_BYTES {
            return Err(HttpError::PayloadTooLarge);
        }
        let connection = headers
            .iter()
            .find(|(n, _)| n == "connection")
            .map(|(_, v)| v.to_ascii_lowercase());
        let keep_alive = match connection.as_deref() {
            Some("close") => false,
            Some("keep-alive") => true,
            _ => http11,
        };

        // 4. Body: exactly Content-Length bytes past the head; only now
        // is anything consumed from the carry-over buffer.
        let total = head_end + 4 + content_length;
        while self.buf.len() < total {
            if self.fill()? == 0 {
                return Err(HttpError::Disconnected);
            }
        }
        let body: Vec<u8> = self.buf.drain(..total).skip(head_end + 4).collect();

        Ok(ReadOutcome::Request(Request {
            method: method.to_string(),
            path: path.to_string(),
            headers,
            body,
            keep_alive,
        }))
    }
}

/// A `Content-Length` value: one or more ASCII digits, nothing else
/// (`usize::from_str` alone would also take a leading `+`).
fn parse_content_length(value: &str) -> Result<usize, HttpError> {
    match value.parse() {
        Ok(n) if value.bytes().all(|b| b.is_ascii_digit()) => Ok(n),
        _ => Err(HttpError::BadRequest("malformed Content-Length")),
    }
}

/// First index of `needle` in `haystack`.
fn find_subslice(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

/// Reason phrases for the statuses this server emits.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

/// Writes a complete response with `Content-Length` framing.
///
/// Head and body go out as ONE `write_all` — two small writes on a
/// socket without `TCP_NODELAY` trip Nagle/delayed-ACK stalls (~40 ms
/// per response under keep-alive load).
pub fn write_response(
    w: &mut impl Write,
    status: u16,
    content_type: &str,
    body: &[u8],
    keep_alive: bool,
) -> std::io::Result<()> {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    let mut wire = Vec::with_capacity(128 + body.len());
    write!(
        wire,
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {connection}\r\n\r\n",
        reason(status),
        body.len(),
    )?;
    wire.extend_from_slice(body);
    w.write_all(&wire)?;
    w.flush()
}

/// A parsed response (the loadgen client side).
#[derive(Debug)]
pub struct Response {
    /// Numeric status code.
    pub status: u16,
    /// Response body.
    pub body: Vec<u8>,
}

impl<R: Read> HttpConn<R> {
    /// Reads one response (client side). Responses reuse the request
    /// framing rules: head ends at `\r\n\r\n`, body is `Content-Length`.
    pub fn read_response(&mut self) -> Result<Response, HttpError> {
        let head_end = loop {
            if let Some(pos) = find_subslice(&self.buf, b"\r\n\r\n") {
                break pos;
            }
            if self.buf.len() > MAX_HEAD_BYTES {
                return Err(HttpError::BadRequest("response head too large"));
            }
            if self.fill()? == 0 {
                return Err(HttpError::Disconnected);
            }
        };
        let head: Vec<u8> = self.buf.drain(..head_end + 4).take(head_end).collect();
        let head = std::str::from_utf8(&head)
            .map_err(|_| HttpError::BadRequest("response head is not UTF-8"))?;
        let mut lines = head.split("\r\n");
        let status_line = lines.next().unwrap_or("");
        let status = status_line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or(HttpError::BadRequest("malformed status line"))?;
        let mut content_length = 0usize;
        for line in lines {
            if let Some((name, value)) = line.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value
                        .trim()
                        .parse()
                        .map_err(|_| HttpError::BadRequest("malformed Content-Length"))?;
                }
            }
        }
        if content_length > MAX_BODY_BYTES {
            return Err(HttpError::PayloadTooLarge);
        }
        while self.buf.len() < content_length {
            if self.fill()? == 0 {
                return Err(HttpError::Disconnected);
            }
        }
        let body: Vec<u8> = self.buf.drain(..content_length).collect();
        Ok(Response { status, body })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(bytes: &[u8]) -> Result<ReadOutcome, HttpError> {
        HttpConn::new(bytes).read_request()
    }

    fn expect_request(bytes: &[u8]) -> Request {
        match parse(bytes) {
            Ok(ReadOutcome::Request(r)) => r,
            other => panic!("expected a request, got {other:?}"),
        }
    }

    #[test]
    fn parses_a_post_with_body() {
        let r =
            expect_request(b"POST /predict HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello");
        assert_eq!(r.method, "POST");
        assert_eq!(r.path, "/predict");
        assert_eq!(r.body, b"hello");
        assert!(r.keep_alive, "HTTP/1.1 defaults to keep-alive");
        assert_eq!(r.header("host"), Some("x"));
    }

    #[test]
    fn keep_alive_reuse_frames_back_to_back_requests() {
        let wire =
            b"POST /predict HTTP/1.1\r\nContent-Length: 3\r\n\r\nabcGET /healthz HTTP/1.1\r\n\r\n";
        let mut conn = HttpConn::new(&wire[..]);
        match conn.read_request() {
            Ok(ReadOutcome::Request(r)) => {
                assert_eq!(r.body, b"abc");
            }
            other => panic!("first request: {other:?}"),
        }
        match conn.read_request() {
            Ok(ReadOutcome::Request(r)) => {
                assert_eq!(r.method, "GET");
                assert_eq!(r.path, "/healthz");
                assert!(r.body.is_empty());
            }
            other => panic!("pipelined request: {other:?}"),
        }
        assert!(matches!(conn.read_request(), Ok(ReadOutcome::Closed)));
    }

    #[test]
    fn connection_close_overrides_http11_default() {
        let r = expect_request(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert!(!r.keep_alive);
        let r10 = expect_request(b"GET / HTTP/1.0\r\n\r\n");
        assert!(!r10.keep_alive, "HTTP/1.0 defaults to close");
        let r10ka = expect_request(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n");
        assert!(r10ka.keep_alive);
    }

    #[test]
    fn malformed_request_lines_are_clean_400s() {
        for bad in [
            &b"\r\n\r\n"[..],
            b"GET\r\n\r\n",
            b"GET /\r\n\r\n",
            b"GET / HTTP/1.1 extra\r\n\r\n",
            b"get / HTTP/1.1\r\n\r\n",
            b"GET relative HTTP/1.1\r\n\r\n",
            b"GET / SPDY/9\r\n\r\n",
            b"GET / HTTP/1.1\r\nno-colon-header\r\n\r\n",
            b"GET / HTTP/1.1\r\nBad Name: x\r\n\r\n",
            b"GET / HTTP/1.1\r\n: empty\r\n\r\n",
            b"POST / HTTP/1.1\r\nContent-Length: banana\r\n\r\n",
            b"POST / HTTP/1.1\r\nContent-Length: -1\r\n\r\n",
            b"POST / HTTP/1.1\r\nContent-Length: +3\r\n\r\nabc",
            b"POST / HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 10\r\n\r\nabcGET /healthz HTTP/1.1\r\n\r\n",
            b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n0\r\n\r\n",
            b"\xff\xfe / HTTP/1.1\r\n\r\n",
        ] {
            assert!(
                matches!(parse(bad), Err(HttpError::BadRequest(_))),
                "input {:?} must be a 400",
                String::from_utf8_lossy(bad)
            );
        }
    }

    #[test]
    fn oversized_inputs_are_rejected_without_allocation() {
        // Claimed body over the cap: rejected from the header alone.
        let huge = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert!(matches!(
            parse(huge.as_bytes()),
            Err(HttpError::PayloadTooLarge)
        ));
        // Unterminated giant head: rejected once the cap is crossed.
        let mut head = b"GET / HTTP/1.1\r\n".to_vec();
        head.extend(std::iter::repeat_n(b'a', MAX_HEAD_BYTES + 10));
        assert!(matches!(
            parse(&head),
            Err(HttpError::BadRequest("request head too large"))
        ));
        // Too many header lines.
        let mut many = String::from("GET / HTTP/1.1\r\n");
        for i in 0..(MAX_HEADERS + 1) {
            many.push_str(&format!("h{i}: v\r\n"));
        }
        many.push_str("\r\n");
        assert!(matches!(
            parse(many.as_bytes()),
            Err(HttpError::BadRequest("too many headers"))
        ));
    }

    #[test]
    fn connection_drop_mid_request_is_disconnected_not_a_panic() {
        // Head cut off before the blank line.
        assert!(matches!(
            parse(b"POST /predict HTTP/1.1\r\nContent-"),
            Err(HttpError::Disconnected)
        ));
        // Body shorter than Content-Length.
        assert!(matches!(
            parse(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc"),
            Err(HttpError::Disconnected)
        ));
    }

    #[test]
    fn clean_eof_between_requests_is_closed() {
        assert!(matches!(parse(b""), Ok(ReadOutcome::Closed)));
    }

    #[test]
    fn response_round_trip() {
        let mut wire = Vec::new();
        write_response(&mut wire, 200, "application/json", b"{\"x\":1}", true).unwrap();
        let text = String::from_utf8(wire.clone()).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("Connection: keep-alive"), "{text}");
        let resp = HttpConn::new(&wire[..]).read_response().unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, b"{\"x\":1}");
    }
}
