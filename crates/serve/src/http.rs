//! Hand-rolled HTTP/1.1 wire format (the build environment is
//! offline, so there is no HTTP dependency to reach for).
//!
//! Deliberately minimal: one request per connection
//! (`Connection: close`), bodies sized by `Content-Length`, a head read
//! through a size limit, a bounded body, and a socket read timeout. A
//! peer that stops sending frees its pooled connection handler after
//! [`READ_TIMEOUT`]; one that trickles bytes holds it longer, up to
//! one timeout per read (DESIGN §10).

use std::io::{BufRead, BufReader, Read, Take, Write};
use std::net::{Shutdown, TcpStream};
use std::time::{Duration, Instant};

/// Largest accepted header block, in bytes.
const MAX_HEADER_BYTES: usize = 8 * 1024;
/// Largest accepted request body, in bytes.
const MAX_BODY_BYTES: usize = 64 * 1024;
/// Longest wait for one read of a request (and of a response, in
/// [`request`]).
pub const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// A parsed request head plus body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpRequest {
    /// Request method, uppercased by the client (`GET`, `POST`, …).
    pub method: String,
    /// Request path (`/query`, `/healthz`, …), query string included.
    pub path: String,
    /// Request body (empty when no `Content-Length`).
    pub body: String,
}

/// Why a request could not be read off the wire.
#[derive(Debug)]
pub enum HttpError {
    /// Socket-level failure (including read timeout).
    Io(std::io::Error),
    /// The bytes did not form an acceptable request.
    Malformed(&'static str),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Io(err) => write!(f, "i/o error: {err}"),
            HttpError::Malformed(why) => write!(f, "malformed request: {why}"),
        }
    }
}

impl From<std::io::Error> for HttpError {
    fn from(err: std::io::Error) -> Self {
        HttpError::Io(err)
    }
}

/// Reads one request from `stream`, each read waiting at most
/// [`READ_TIMEOUT`].
///
/// # Errors
///
/// [`HttpError::Io`] on socket failure or timeout; otherwise as
/// [`parse_request`].
pub fn read_request(stream: &mut TcpStream) -> Result<HttpRequest, HttpError> {
    stream.set_read_timeout(Some(READ_TIMEOUT))?;
    parse_request(&mut BufReader::new(stream))
}

/// Parses one request off `reader`: the head through an 8 KiB `take`
/// limit, so a line that never ends costs at most that much, then a
/// body of at most 64 KiB. A head cut short by the end of input ends
/// where the input does.
///
/// # Errors
///
/// [`HttpError::Io`] when `reader` fails or the body is cut short;
/// [`HttpError::Malformed`] when the bytes violate the accepted subset
/// (bad request line, oversized headers or body, bad
/// `Content-Length`, non-UTF-8 head or body).
pub fn parse_request<R: BufRead>(reader: &mut R) -> Result<HttpRequest, HttpError> {
    let mut head = reader.take(MAX_HEADER_BYTES as u64);
    let line = head_line(&mut head)?;
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or(HttpError::Malformed("empty request line"))?
        .to_string();
    let path = parts
        .next()
        .ok_or(HttpError::Malformed("request line lacks a path"))?
        .to_string();
    if !parts
        .next()
        .is_some_and(|version| version.starts_with("HTTP/1."))
    {
        return Err(HttpError::Malformed("not HTTP/1.x"));
    }

    let mut content_length = 0usize;
    loop {
        let header = head_line(&mut head)?;
        let trimmed = header.trim_end();
        if trimmed.is_empty() {
            break;
        }
        if let Some((name, value)) = trimmed.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| HttpError::Malformed("bad Content-Length"))?;
            }
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(HttpError::Malformed("body too large"));
    }
    let mut body = vec![0u8; content_length];
    head.into_inner().read_exact(&mut body)?;
    let body = String::from_utf8(body).map_err(|_| HttpError::Malformed("body is not UTF-8"))?;
    Ok(HttpRequest { method, path, body })
}

/// The next line of a request head, its newline included; a line
/// without one is the end of input, or the head outgrew its limit.
fn head_line<R: BufRead>(head: &mut Take<R>) -> Result<String, HttpError> {
    let mut line = Vec::new();
    head.read_until(b'\n', &mut line)?;
    if line.last() != Some(&b'\n') && head.limit() == 0 {
        return Err(HttpError::Malformed("headers too large"));
    }
    String::from_utf8(line).map_err(|_| HttpError::Malformed("head is not UTF-8"))
}

/// Most bytes [`linger_close`] discards: one whole request.
const LINGER_BYTES: usize = MAX_HEADER_BYTES + MAX_BODY_BYTES;

/// Closes a connection whose request may be partly unread, after an
/// error answer. Closing a socket with unread input resets it, and the
/// reset can destroy the answer before the peer reads it; so this
/// half-closes the write side (the peer reads the answer to its end)
/// and discards what the peer still sends until it closes, for at most
/// `linger` and [`LINGER_BYTES`].
pub(crate) fn linger_close(stream: &mut TcpStream, linger: Duration) {
    let deadline = Instant::now() + linger;
    if stream.shutdown(Shutdown::Write).is_err() {
        return;
    }
    let mut sink = [0u8; 4096];
    let mut left = LINGER_BYTES;
    while left > 0 {
        let wait = deadline.saturating_duration_since(Instant::now());
        if wait.is_zero() || stream.set_read_timeout(Some(wait)).is_err() {
            return;
        }
        match stream.read(&mut sink) {
            Ok(0) | Err(_) => return,
            Ok(n) => left = left.saturating_sub(n),
        }
    }
}

/// The standard reason phrase for the status codes the service emits.
#[must_use]
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Error",
    }
}

/// Seconds a shed client is told to wait before it retries.
const RETRY_AFTER_SECS: u32 = 1;

/// Writes a full response (`Connection: close`, JSON content type; a
/// `503` carries `Retry-After`) in one `write_all`.
///
/// # Errors
///
/// Propagates socket write failures.
pub fn write_response(stream: &mut TcpStream, status: u16, body: &str) -> std::io::Result<()> {
    use std::fmt::Write as _;
    let mut response = String::with_capacity(128 + body.len());
    let _ = write!(
        response,
        "HTTP/1.1 {status} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n",
        reason(status),
        body.len()
    );
    if status == 503 {
        let _ = write!(response, "Retry-After: {RETRY_AFTER_SECS}\r\n");
    }
    response.push_str("Connection: close\r\n\r\n");
    response.push_str(body);
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

/// Issues one request to `addr` and returns `(status, body)` — the
/// client half used by the `heb_serve` CLI's `--post` mode, the CI
/// smoke test, and the integration suite.
///
/// # Errors
///
/// Socket failures, or `InvalidData` when the peer's response is not
/// parseable HTTP.
pub fn request(addr: &str, method: &str, path: &str, body: &str) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(READ_TIMEOUT))?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()?;

    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let text = String::from_utf8(raw)
        .map_err(|_| std::io::Error::new(std::io::ErrorKind::InvalidData, "non-UTF-8 response"))?;
    let (head, response_body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "no header break"))?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "no status code"))?;
    Ok((status, response_body.to_string()))
}
