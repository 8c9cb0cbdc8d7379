//! A minimal, strict HTTP/1.1 codec on `std` byte streams.
//!
//! The service only needs plain request/response exchanges (`Connection:
//! close` on every response, no keep-alive, no chunked bodies), so the codec
//! is hand-rolled rather than vendored: a bounds-checked request parser with
//! hard limits on every dimension an untrusted peer controls — request-line
//! length, header count and size, body size — and a response writer.
//! Anything outside the accepted subset is rejected with the matching 4xx
//! status, never a panic or an unbounded allocation.

use serde_json::Value;
use std::io::{BufRead, IoSlice, Write};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Longest accepted request line (method + target + version), in bytes.
pub const MAX_REQUEST_LINE: usize = 8 * 1024;
/// Longest accepted single header line, in bytes.
pub const MAX_HEADER_LINE: usize = 8 * 1024;
/// Most headers accepted per request.
pub const MAX_HEADERS: usize = 64;
/// Absolute deadline for reading one full request.  Per-read socket timeouts
/// alone would let a slow-drip peer (one byte per read-timeout) pin a worker
/// indefinitely; the deadline bounds the whole parse.
pub const MAX_REQUEST_DURATION: Duration = Duration::from_secs(30);

/// The request methods the service routes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// `GET`
    Get,
    /// `POST`
    Post,
    /// `DELETE`
    Delete,
}

impl Method {
    /// The wire spelling (for request log lines).
    pub fn as_str(self) -> &'static str {
        match self {
            Method::Get => "GET",
            Method::Post => "POST",
            Method::Delete => "DELETE",
        }
    }

    fn parse(raw: &str) -> Option<Self> {
        match raw {
            "GET" => Some(Method::Get),
            "POST" => Some(Method::Post),
            "DELETE" => Some(Method::Delete),
            _ => None,
        }
    }
}

/// A parsed request: method, decoded path, decoded query pairs, headers
/// (names lowercased), body.
#[derive(Debug)]
pub struct Request {
    /// Request method.
    pub method: Method,
    /// Percent-decoded path, without the query string.
    pub path: String,
    /// Percent-decoded `key=value` query pairs, in order.
    pub query: Vec<(String, String)>,
    /// Headers with lowercased names, in order.
    pub headers: Vec<(String, String)>,
    /// Request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

impl Request {
    /// First header with the given lowercase name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }

    /// First query parameter with the given name.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }

    /// Whether the client asked for the binary edge-list encoding
    /// (`Accept: application/octet-stream`).
    pub fn wants_binary(&self) -> bool {
        self.header("accept").is_some_and(|a| a.contains("application/octet-stream"))
    }
}

/// Why a request could not be parsed.
#[derive(Debug)]
pub enum HttpError {
    /// Socket-level failure (peer went away, timeout); no response is owed.
    Io(std::io::Error),
    /// Malformed request → `400`.
    BadRequest(String),
    /// Unsupported method → `405`.
    MethodNotAllowed(String),
    /// Body or line limits exceeded → `413`.
    TooLarge(String),
}

impl HttpError {
    /// The response this error owes the peer (`None` for I/O failures,
    /// where the connection is simply dropped).
    pub fn into_response(self) -> Option<Response> {
        match self {
            HttpError::Io(_) => None,
            HttpError::BadRequest(msg) => Some(Response::error(400, &msg)),
            HttpError::MethodNotAllowed(msg) => Some(Response::error(405, &msg)),
            HttpError::TooLarge(msg) => Some(Response::error(413, &msg)),
        }
    }
}

/// Fail with 408-ish semantics once `deadline` passed (mapped to a dropped
/// connection: a peer this slow is not owed a response body).
fn check_deadline(deadline: Instant) -> Result<(), HttpError> {
    if Instant::now() >= deadline {
        return Err(HttpError::Io(std::io::Error::new(
            std::io::ErrorKind::TimedOut,
            "request exceeded the read deadline",
        )));
    }
    Ok(())
}

/// Read one `\r\n`- (or `\n`-) terminated line, rejecting lines over `cap`.
fn read_line<R: BufRead>(
    reader: &mut R,
    cap: usize,
    what: &str,
    deadline: Instant,
) -> Result<String, HttpError> {
    let mut buf = Vec::with_capacity(128);
    loop {
        check_deadline(deadline)?;
        let chunk = reader.fill_buf().map_err(HttpError::Io)?;
        if chunk.is_empty() {
            return Err(HttpError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed mid-line",
            )));
        }
        match chunk.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                if buf.len() + pos > cap {
                    return Err(HttpError::TooLarge(format!("{what} exceeds {cap} bytes")));
                }
                buf.extend_from_slice(&chunk[..pos]);
                reader.consume(pos + 1);
                if buf.last() == Some(&b'\r') {
                    buf.pop();
                }
                return String::from_utf8(buf)
                    .map_err(|_| HttpError::BadRequest(format!("{what} is not UTF-8")));
            }
            None => {
                if buf.len() + chunk.len() > cap {
                    return Err(HttpError::TooLarge(format!("{what} exceeds {cap} bytes")));
                }
                let len = chunk.len();
                buf.extend_from_slice(chunk);
                reader.consume(len);
            }
        }
    }
}

/// Decode `%XX` escapes and `+` (as space) in a URL component.  Malformed
/// escapes are passed through verbatim rather than rejected.
pub fn percent_decode(raw: &str) -> String {
    let bytes = raw.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' if i + 2 < bytes.len() => {
                let hex = |b: u8| (b as char).to_digit(16);
                match (hex(bytes[i + 1]), hex(bytes[i + 2])) {
                    (Some(hi), Some(lo)) => {
                        out.push((hi * 16 + lo) as u8);
                        i += 3;
                    }
                    _ => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Split and decode a raw query string into `key=value` pairs.
pub fn parse_query(raw: &str) -> Vec<(String, String)> {
    raw.split('&')
        .filter(|part| !part.is_empty())
        .map(|part| match part.split_once('=') {
            Some((k, v)) => (percent_decode(k), percent_decode(v)),
            None => (percent_decode(part), String::new()),
        })
        .collect()
}

/// Parse one request from `reader`, enforcing all limits; `max_body` caps
/// the accepted `Content-Length`, and the whole parse must finish within
/// [`MAX_REQUEST_DURATION`].
pub fn read_request<R: BufRead>(reader: &mut R, max_body: usize) -> Result<Request, HttpError> {
    let deadline = Instant::now() + MAX_REQUEST_DURATION;
    let request_line = read_line(reader, MAX_REQUEST_LINE, "request line", deadline)?;
    let mut parts = request_line.split(' ');
    let (method_raw, target, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v)) if parts.next().is_none() => (m, t, v),
        _ => return Err(HttpError::BadRequest(format!("malformed request line {request_line:?}"))),
    };
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(HttpError::BadRequest(format!("unsupported protocol {version:?}")));
    }
    let method = Method::parse(method_raw)
        .ok_or_else(|| HttpError::MethodNotAllowed(format!("method {method_raw} not supported")))?;

    let (path_raw, query_raw) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let path = percent_decode(path_raw);
    let query = parse_query(query_raw);

    let mut headers = Vec::new();
    loop {
        let line = read_line(reader, MAX_HEADER_LINE, "header line", deadline)?;
        if line.is_empty() {
            break;
        }
        if headers.len() >= MAX_HEADERS {
            return Err(HttpError::TooLarge(format!("more than {MAX_HEADERS} headers")));
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::BadRequest(format!("malformed header {line:?}")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let find = |name: &str| headers.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str());
    if find("transfer-encoding").is_some_and(|v| !v.eq_ignore_ascii_case("identity")) {
        return Err(HttpError::BadRequest("chunked bodies are not supported".to_string()));
    }
    let body = match find("content-length") {
        None => Vec::new(),
        Some(raw) => {
            let len: usize = raw
                .parse()
                .map_err(|_| HttpError::BadRequest(format!("bad Content-Length {raw:?}")))?;
            if len > max_body {
                return Err(HttpError::TooLarge(format!(
                    "body of {len} bytes exceeds the {max_body}-byte limit"
                )));
            }
            let mut body = vec![0u8; len];
            let mut filled = 0;
            while filled < len {
                check_deadline(deadline)?;
                match std::io::Read::read(reader, &mut body[filled..]) {
                    Ok(0) => {
                        return Err(HttpError::Io(std::io::Error::new(
                            std::io::ErrorKind::UnexpectedEof,
                            "connection closed mid-body",
                        )))
                    }
                    Ok(n) => filled += n,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(HttpError::Io(e)),
                }
            }
            body
        }
    };

    Ok(Request { method, path, query, headers, body })
}

/// The standard reason phrase for the status codes the service emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        204 => "No Content",
        400 => "Bad Request",
        403 => "Forbidden",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// A response body: owned bytes, or a shared reference into the sample
/// cache (so serving a cache hit never copies the payload).
#[derive(Debug)]
pub enum Body {
    /// Bytes owned by the response.
    Owned(Vec<u8>),
    /// Bytes shared with a cache entry.
    Shared(Arc<Vec<u8>>),
}

impl Body {
    /// The payload bytes.
    pub fn as_slice(&self) -> &[u8] {
        match self {
            Body::Owned(bytes) => bytes,
            Body::Shared(bytes) => bytes,
        }
    }
}

/// An HTTP response under construction.
#[derive(Debug)]
pub struct Response {
    /// Status code.
    pub status: u16,
    headers: Vec<(String, String)>,
    body: Body,
}

impl Response {
    /// A `text/plain` response.
    pub fn text(status: u16, body: impl Into<String>) -> Self {
        Self {
            status,
            headers: vec![("Content-Type".to_string(), "text/plain; charset=utf-8".to_string())],
            body: Body::Owned(body.into().into_bytes()),
        }
    }

    /// An `application/json` response serialising `value`.
    pub fn json(status: u16, value: &Value) -> Self {
        let body = serde_json::to_string(value).unwrap_or_else(|_| "{}".to_string());
        Self {
            status,
            headers: vec![("Content-Type".to_string(), "application/json".to_string())],
            body: Body::Owned(body.into_bytes()),
        }
    }

    /// An `application/octet-stream` response.
    pub fn binary(status: u16, body: Vec<u8>) -> Self {
        Self {
            status,
            headers: vec![("Content-Type".to_string(), "application/octet-stream".to_string())],
            body: Body::Owned(body),
        }
    }

    /// A zero-copy response sharing `body` (e.g. a warm-cache entry).
    pub fn shared(status: u16, content_type: &str, body: Arc<Vec<u8>>) -> Self {
        Self {
            status,
            headers: vec![("Content-Type".to_string(), content_type.to_string())],
            body: Body::Shared(body),
        }
    }

    /// The response payload.
    pub fn body(&self) -> &[u8] {
        self.body.as_slice()
    }

    /// The uniform JSON error shape: `{"error": message}`.
    pub fn error(status: u16, message: &str) -> Self {
        let mut map = serde_json::Map::new();
        map.insert("error".to_string(), Value::String(message.to_string()));
        Self::json(status, &Value::Object(map))
    }

    /// Builder-style extra header.
    pub fn with_header(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        self.headers.push((name.into(), value.into()));
        self
    }

    /// Replace the `Content-Type` set by the constructor (e.g. the
    /// Prometheus exposition type on `/metrics`).
    pub fn with_content_type(mut self, value: &str) -> Self {
        match self.headers.iter_mut().find(|(name, _)| name == "Content-Type") {
            Some(slot) => slot.1 = value.to_string(),
            None => self.headers.insert(0, ("Content-Type".to_string(), value.to_string())),
        }
        self
    }

    /// Serialise the response (status line, headers, `Content-Length`,
    /// `Connection: close`, body) onto `writer`.
    ///
    /// The head is formatted into one buffer and sent together with the body
    /// in a single vectored write (`writev` on a socket); the body itself is
    /// never copied.
    pub fn write_to<W: Write>(&self, writer: &mut W) -> std::io::Result<()> {
        let body = self.body.as_slice();
        let mut head = format!("HTTP/1.1 {} {}\r\n", self.status, reason(self.status));
        for (name, value) in &self.headers {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        head.push_str(&format!("Content-Length: {}\r\nConnection: close\r\n\r\n", body.len()));
        write_head_and_body(writer, head.as_bytes(), body)?;
        writer.flush()
    }
}

/// Write `head` then `body` with one `write_vectored` call and finish
/// whatever a short write left with `write_all`.
fn write_head_and_body<W: Write>(writer: &mut W, head: &[u8], body: &[u8]) -> std::io::Result<()> {
    let mut written = loop {
        match writer.write_vectored(&[IoSlice::new(head), IoSlice::new(body)]) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::WriteZero,
                    "failed to write whole buffer",
                ))
            }
            Ok(n) => break n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    };
    if written < head.len() {
        writer.write_all(&head[written..])?;
        written = head.len();
    }
    writer.write_all(&body[written - head.len()..])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &[u8]) -> Result<Request, HttpError> {
        read_request(&mut BufReader::new(raw), 1024)
    }

    #[test]
    fn parses_a_get_with_query_and_headers() {
        let req = parse(
            b"GET /v1/sample?graph=pld:m=100&algo=par-global-es%3Fpl%3D0.01&x HTTP/1.1\r\n\
              Host: localhost\r\nAccept: application/octet-stream\r\n\r\n",
        )
        .unwrap();
        assert_eq!(req.method, Method::Get);
        assert_eq!(req.path, "/v1/sample");
        assert_eq!(req.query_param("graph"), Some("pld:m=100"));
        assert_eq!(req.query_param("algo"), Some("par-global-es?pl=0.01"));
        assert_eq!(req.query_param("x"), Some(""));
        assert_eq!(req.header("host"), Some("localhost"));
        assert!(req.wants_binary());
        assert!(req.body.is_empty());
    }

    #[test]
    fn parses_a_post_body_by_content_length() {
        let req = parse(b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 4\r\n\r\n{\"a\":1}").unwrap();
        assert_eq!(req.method, Method::Post);
        assert_eq!(req.body, b"{\"a\"");
    }

    #[test]
    fn rejects_malformed_and_oversized_requests() {
        assert!(matches!(parse(b"NONSENSE\r\n\r\n"), Err(HttpError::BadRequest(_))));
        assert!(matches!(parse(b"PUT / HTTP/1.1\r\n\r\n"), Err(HttpError::MethodNotAllowed(_))));
        assert!(matches!(parse(b"GET / SPDY/3\r\n\r\n"), Err(HttpError::BadRequest(_))));
        assert!(matches!(
            parse(b"GET / HTTP/1.1\r\nbroken header\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
        assert!(matches!(
            parse(b"POST / HTTP/1.1\r\nContent-Length: 9999\r\n\r\n"),
            Err(HttpError::TooLarge(_))
        ));
        assert!(matches!(
            parse(b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
        let long_line = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_REQUEST_LINE));
        assert!(matches!(parse(long_line.as_bytes()), Err(HttpError::TooLarge(_))));
        let many_headers = format!(
            "GET / HTTP/1.1\r\n{}\r\n",
            (0..=MAX_HEADERS).map(|i| format!("h{i}: v\r\n")).collect::<String>()
        );
        assert!(matches!(parse(many_headers.as_bytes()), Err(HttpError::TooLarge(_))));
    }

    #[test]
    fn percent_decoding() {
        assert_eq!(percent_decode("a%20b+c"), "a b c");
        assert_eq!(percent_decode("pl%3D0.01"), "pl=0.01");
        assert_eq!(percent_decode("100%"), "100%", "malformed escapes pass through");
        assert_eq!(percent_decode("%zz"), "%zz");
    }

    #[test]
    fn encoded_query_values_round_trip_through_the_decoder() {
        use gesmc_cluster::encode_query_value;
        // What the SDK and the cluster forwarder encode: graph specs, chain
        // specs with parameters, and values holding every special byte.
        let values = [
            "pld:m=2000,gamma=2.5,seed=7",
            "par-global-es?pl=0.001&prefetch=off",
            "50% a+b c=d \u{fc}",
            "%41%zz%",
        ];
        for value in values {
            let encoded = encode_query_value(value);
            assert_eq!(percent_decode(&encoded), value, "{encoded}");
        }
        for (graph, algo) in values.iter().zip(values.iter().rev()) {
            let query =
                format!("graph={}&algo={}", encode_query_value(graph), encode_query_value(algo));
            let pairs = vec![
                ("graph".to_string(), graph.to_string()),
                ("algo".to_string(), algo.to_string()),
            ];
            assert_eq!(parse_query(&query), pairs, "{query}");
        }
    }

    /// A `Write` that counts its calls and takes at most `cap` bytes per
    /// call, spanning slices in `write_vectored` as `writev` does.
    struct CappedWriter {
        out: Vec<u8>,
        calls: usize,
        cap: usize,
    }

    impl Write for CappedWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            self.calls += 1;
            let start = self.out.len();
            for buf in bufs {
                let room = self.cap - (self.out.len() - start);
                self.out.extend_from_slice(&buf[..buf.len().min(room)]);
            }
            Ok(self.out.len() - start)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn response_wire_format() {
        // Shaped like a cache hit: the content type plus four headers.
        let response =
            Response::shared(200, "text/plain; charset=utf-8", Arc::new(b"0 1\n".to_vec()))
                .with_header("X-Gesmc-Cache", "hit")
                .with_header("X-Gesmc-Seed", "42")
                .with_header("X-Gesmc-Request-Id", "r-7")
                .with_header("X-Gesmc-Trace-Id", "0123456789abcdef0123456789abcdef");
        let golden: &[u8] = b"HTTP/1.1 200 OK\r\n\
            Content-Type: text/plain; charset=utf-8\r\n\
            X-Gesmc-Cache: hit\r\n\
            X-Gesmc-Seed: 42\r\n\
            X-Gesmc-Request-Id: r-7\r\n\
            X-Gesmc-Trace-Id: 0123456789abcdef0123456789abcdef\r\n\
            Content-Length: 4\r\n\
            Connection: close\r\n\
            \r\n\
            0 1\n";
        // Unlimited: the whole response in one call.  At most 7 bytes per
        // call: the short write ends inside the head.  One byte short: it
        // ends inside the body.  Every writer must see the same bytes.
        for cap in [usize::MAX, 7, golden.len() - 1] {
            let mut writer = CappedWriter { out: Vec::new(), calls: 0, cap };
            response.write_to(&mut writer).unwrap();
            assert_eq!(
                String::from_utf8_lossy(&writer.out),
                String::from_utf8_lossy(golden),
                "cap {cap}"
            );
            if cap == usize::MAX {
                assert_eq!(writer.calls, 1, "one write per response");
            }
        }
    }

    #[test]
    fn content_type_can_be_overridden_without_duplication() {
        let mut out = Vec::new();
        Response::text(200, "x")
            .with_content_type("text/plain; version=0.0.4; charset=utf-8")
            .write_to(&mut out)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"));
        assert_eq!(text.matches("Content-Type:").count(), 1);
        assert_eq!(Method::Get.as_str(), "GET");
    }

    #[test]
    fn error_responses_are_json() {
        let resp = Response::error(429, "try later");
        assert_eq!(resp.status, 429);
        let parsed = serde_json::from_str(std::str::from_utf8(resp.body()).unwrap()).unwrap();
        assert_eq!(parsed.get("error").and_then(|v| v.as_str()), Some("try later"));
    }

    #[test]
    fn shared_bodies_serialise_without_copying_the_arc_contents() {
        let payload = Arc::new(b"0 1\n".to_vec());
        let resp = Response::shared(200, "text/plain; charset=utf-8", Arc::clone(&payload));
        assert_eq!(resp.body(), payload.as_slice());
        let mut out = Vec::new();
        resp.write_to(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Content-Length: 4\r\n"));
        assert!(text.ends_with("\r\n\r\n0 1\n"));
    }
}
