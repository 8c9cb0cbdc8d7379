//! A minimal HTTP/1.1 client codec over `std::net`.
//!
//! The serve stack speaks hand-rolled HTTP/1.1 (`Connection: close`, no
//! chunked encoding) and this is the matching client half: the workspace's
//! one HTTP client, used for peer-to-peer forwarding inside the cluster, as
//! the transport under the typed SDK and `gesmc trace`, and by the tests and
//! benches that drive a server.  One function, one connection, one request:
//! no pools, no keep-alive, no async runtime — exactly the simplicity budget
//! of the server side.  [`encode_query_value`] is the one query encoder.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Upper bound on response header bytes before the request is abandoned.
const MAX_HEADER_BYTES: usize = 64 * 1024;
/// Upper bound on response body bytes (64 MiB, far above any sample blob).
const MAX_BODY_BYTES: usize = 64 * 1024 * 1024;

/// Why a wire request failed.
#[derive(Debug)]
pub enum WireError {
    /// Connecting to the peer failed (refused, unreachable, timed out).
    Connect(std::io::Error),
    /// Reading or writing on an established connection failed.
    Io(std::io::Error),
    /// The peer sent bytes that do not parse as an HTTP/1.1 response.
    Malformed(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Connect(e) => write!(f, "connect failed: {e}"),
            WireError::Io(e) => write!(f, "i/o failed: {e}"),
            WireError::Malformed(what) => write!(f, "malformed response: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// A fully buffered HTTP response.
#[derive(Debug, Clone)]
pub struct WireResponse {
    /// HTTP status code.
    pub status: u16,
    /// Header `(name, value)` pairs in wire order, names lowercased.
    pub headers: Vec<(String, String)>,
    /// Response body bytes.
    pub body: Vec<u8>,
}

impl WireResponse {
    /// The first value of `name` (case-insensitive), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers.iter().find(|(n, _)| *n == name).map(|(_, v)| v.as_str())
    }

    /// Whether the status is a success (2xx).
    pub fn is_success(&self) -> bool {
        (200..300).contains(&self.status)
    }
}

/// Encode a query value so the serve stack's percent-decoder round-trips
/// it: `%`, `&`, `+`, and space are the only bytes it treats specially.
pub fn encode_query_value(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    for ch in raw.chars() {
        match ch {
            '%' => out.push_str("%25"),
            '&' => out.push_str("%26"),
            '+' => out.push_str("%2B"),
            ' ' => out.push_str("%20"),
            other => out.push(other),
        }
    }
    out
}

/// [`request_with_timeouts`] with 2s connect and 30s read/write timeouts —
/// generous enough for a cold sample generation on the far side.
pub fn request(
    addr: &str,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &[u8],
) -> Result<WireResponse, WireError> {
    request_with_timeouts(
        addr,
        method,
        path,
        headers,
        body,
        Duration::from_secs(2),
        Duration::from_secs(30),
    )
}

/// Send one HTTP/1.1 request to `addr` and read the full response.
///
/// `path` must include any query string.  `Host`, `Content-Length`, and
/// `Connection: close` are added automatically; `headers` supplies extras
/// (`Accept`, the forwarding loop guard, …).  The body is read to
/// `Content-Length` when the peer declares one, otherwise to EOF — matching
/// the serve stack's `Connection: close` framing.
pub fn request_with_timeouts(
    addr: &str,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &[u8],
    connect_timeout: Duration,
    io_timeout: Duration,
) -> Result<WireResponse, WireError> {
    let sock_addr =
        addr.to_socket_addrs().map_err(WireError::Connect)?.next().ok_or_else(|| {
            WireError::Connect(std::io::Error::other("address resolved to nothing"))
        })?;
    let stream =
        TcpStream::connect_timeout(&sock_addr, connect_timeout).map_err(WireError::Connect)?;
    stream.set_read_timeout(Some(io_timeout)).map_err(WireError::Io)?;
    stream.set_write_timeout(Some(io_timeout)).map_err(WireError::Io)?;
    stream.set_nodelay(true).ok();

    let mut head = String::with_capacity(256);
    head.push_str(&format!("{method} {path} HTTP/1.1\r\n"));
    head.push_str(&format!("Host: {addr}\r\n"));
    head.push_str("Connection: close\r\n");
    head.push_str(&format!("Content-Length: {}\r\n", body.len()));
    for (name, value) in headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str("\r\n");

    let mut stream = stream;
    stream.write_all(head.as_bytes()).map_err(WireError::Io)?;
    if !body.is_empty() {
        stream.write_all(body).map_err(WireError::Io)?;
    }
    stream.flush().map_err(WireError::Io)?;

    read_response(BufReader::new(stream))
}

fn read_response<R: BufRead>(mut reader: R) -> Result<WireResponse, WireError> {
    let status_line = read_line(&mut reader)?;
    let mut parts = status_line.splitn(3, ' ');
    let version = parts.next().unwrap_or("");
    if !version.starts_with("HTTP/1.") {
        return Err(WireError::Malformed(format!("bad status line {status_line:?}")));
    }
    let status: u16 = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| WireError::Malformed(format!("bad status line {status_line:?}")))?;

    let mut headers = Vec::new();
    let mut header_bytes = 0usize;
    loop {
        let line = read_line(&mut reader)?;
        if line.is_empty() {
            break;
        }
        header_bytes += line.len();
        if header_bytes > MAX_HEADER_BYTES {
            return Err(WireError::Malformed("response headers exceed 64 KiB".to_string()));
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| WireError::Malformed(format!("bad header line {line:?}")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let content_length = headers
        .iter()
        .find(|(n, _)| n == "content-length")
        .map(|(_, v)| {
            v.parse::<usize>()
                .map_err(|_| WireError::Malformed(format!("bad content-length {v:?}")))
        })
        .transpose()?;

    let body = match content_length {
        Some(len) if len > MAX_BODY_BYTES => {
            return Err(WireError::Malformed(format!("declared body of {len} bytes is too large")))
        }
        Some(len) => {
            let mut body = vec![0u8; len];
            reader.read_exact(&mut body).map_err(WireError::Io)?;
            body
        }
        None => {
            let mut body = Vec::new();
            reader
                .by_ref()
                .take(MAX_BODY_BYTES as u64 + 1)
                .read_to_end(&mut body)
                .map_err(WireError::Io)?;
            if body.len() > MAX_BODY_BYTES {
                return Err(WireError::Malformed("unframed body exceeds 64 MiB".to_string()));
            }
            body
        }
    };

    Ok(WireResponse { status, headers, body })
}

fn read_line<R: BufRead>(reader: &mut R) -> Result<String, WireError> {
    let mut line = String::new();
    let n = reader
        .by_ref()
        .take(MAX_HEADER_BYTES as u64)
        .read_line(&mut line)
        .map_err(WireError::Io)?;
    if n == 0 {
        return Err(WireError::Malformed("connection closed mid-response".to_string()));
    }
    while line.ends_with('\n') || line.ends_with('\r') {
        line.pop();
    }
    Ok(line)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn parses_a_framed_response() {
        let raw =
            b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 2\r\n\r\n{}";
        let resp = read_response(Cursor::new(&raw[..])).unwrap();
        assert_eq!(resp.status, 200);
        assert!(resp.is_success());
        assert_eq!(resp.header("content-type"), Some("application/json"));
        assert_eq!(resp.header("Content-Type"), Some("application/json"));
        assert_eq!(resp.body, b"{}");
    }

    #[test]
    fn reads_unframed_body_to_eof() {
        let raw = b"HTTP/1.1 503 Unavailable\r\nRetry-After: 7\r\n\r\nbusy";
        let resp = read_response(Cursor::new(&raw[..])).unwrap();
        assert_eq!(resp.status, 503);
        assert!(!resp.is_success());
        assert_eq!(resp.header("retry-after"), Some("7"));
        assert_eq!(resp.body, b"busy");
    }

    #[test]
    fn rejects_garbage() {
        assert!(matches!(
            read_response(Cursor::new(&b"SMTP nope\r\n\r\n"[..])),
            Err(WireError::Malformed(_))
        ));
        assert!(matches!(
            read_response(Cursor::new(&b"HTTP/1.1 abc\r\n\r\n"[..])),
            Err(WireError::Malformed(_))
        ));
        assert!(matches!(read_response(Cursor::new(&b""[..])), Err(WireError::Malformed(_))));
    }

    #[test]
    fn query_values_encode_the_decoder_specials() {
        assert_eq!(encode_query_value("pld:m=2000,gamma=2.5"), "pld:m=2000,gamma=2.5");
        assert_eq!(encode_query_value("a&b+c d%e"), "a%26b%2Bc%20d%25e");
    }

    #[test]
    fn refuses_to_connect_to_a_dead_port() {
        // Bind then drop a listener so the port is known-dead.
        let addr = {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            listener.local_addr().unwrap().to_string()
        };
        let err = request_with_timeouts(
            &addr,
            "GET",
            "/healthz",
            &[],
            b"",
            Duration::from_millis(200),
            Duration::from_millis(200),
        )
        .unwrap_err();
        assert!(matches!(err, WireError::Connect(_)), "{err}");
    }
}
