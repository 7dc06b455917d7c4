//! Minimal hand-rolled HTTP/1.1 listener for observability pulls.
//!
//! GET-only, loopback-oriented, dependency-free: enough HTTP for a
//! Prometheus scraper, a `curl`, or a CI probe over bash `/dev/tcp` —
//! not a general web server. Three routes:
//!
//! * `/metrics` — the Prometheus text exposition (same bytes as the
//!   binary `METRICS` frame).
//! * `/healthz` — readiness JSON; `200` when ready, `503` while the
//!   server is inside a degraded incident window (recent shedding,
//!   reaping or handshake rejects).
//! * `/vars` — JSON snapshot: every metric and the slow-log tail.
//!
//! Requests are read with a hard size bound ([`MAX_REQUEST_BYTES`]);
//! anything oversized, non-GET, or malformed gets a terse error
//! status and the connection is closed (`Connection: close` always —
//! no keep-alive state machine).
//!
//! The listener is served by the server's maintainer thread, one
//! connection at a time: the routes are all cheap snapshots and this is
//! a diagnostics port, not a data plane — one slow scraper delaying
//! another is acceptable, a thread per probe is not. Each exchange has
//! one [`EXCHANGE_DEADLINE`] from accept, so no peer holds that thread
//! for longer.

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use crate::server::Shared;

/// Upper bound on a request head. A legitimate probe is < 200 bytes;
/// anything larger is either an attack or a mistake.
const MAX_REQUEST_BYTES: usize = 8 * 1024;

/// How long one connection may take, request and answer together,
/// before we hang up.
const EXCHANGE_DEADLINE: Duration = Duration::from_secs(2);

/// Accepts one pending connection on the nonblocking `listener` and
/// answers it. Nothing pending is `Ok`; any other accept failure
/// (`EMFILE` with a connection still queued, say) is returned, so the
/// caller can stop polling the listener instead of spinning on it.
pub(crate) fn accept_one(listener: &TcpListener, shared: &Shared) -> io::Result<()> {
    match listener.accept() {
        Ok((stream, _)) => {
            let _ = serve_one(stream, shared);
            Ok(())
        }
        Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(()),
        Err(e) => Err(e),
    }
}

/// Time left before `deadline`, as a socket timeout (which must be
/// nonzero); `TimedOut` once it has passed.
fn time_left(deadline: Instant) -> io::Result<Option<Duration>> {
    match deadline.checked_duration_since(Instant::now()) {
        Some(left) if !left.is_zero() => Ok(Some(left)),
        _ => Err(io::ErrorKind::TimedOut.into()),
    }
}

fn serve_one(mut stream: TcpStream, shared: &Shared) -> io::Result<()> {
    let deadline = Instant::now() + EXCHANGE_DEADLINE;
    stream.set_nonblocking(false)?;

    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    let (status, content_type, body) = loop {
        stream.set_read_timeout(time_left(deadline)?)?;
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Ok(()); // peer hung up mid-request
        }
        buf.extend_from_slice(&chunk[..n]);
        if let Some(head_end) = find_head_end(&buf) {
            break route(&buf[..head_end], shared);
        }
        if buf.len() > MAX_REQUEST_BYTES {
            break (413, "text/plain", "request too large\n".to_string());
        }
    };
    respond(&mut stream, deadline, status, content_type, &body)
}

/// The answer to one request head: status, content type and body.
fn route(head: &[u8], shared: &Shared) -> (u16, &'static str, String) {
    let head = String::from_utf8_lossy(head);
    let request_line = head.lines().next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let (method, target) = match (parts.next(), parts.next()) {
        (Some(m), Some(t)) => (m, t),
        _ => return (400, "text/plain", "bad request\n".to_string()),
    };
    if method != "GET" {
        return (405, "text/plain", "method not allowed\n".to_string());
    }
    // Ignore any query string: `/healthz?probe=ci` is still /healthz.
    let path = target.split('?').next().unwrap_or(target);

    match path {
        "/metrics" => (200, "text/plain; version=0.0.4", shared.metrics_text()),
        "/healthz" => {
            let (ready, body) = shared.healthz();
            let status = if ready { 200 } else { 503 };
            (status, "application/json", body)
        }
        "/vars" => (200, "application/json", shared.vars_json()),
        _ => (404, "text/plain", "not found\n".to_string()),
    }
}

/// Position just past the `\r\n\r\n` (or lone `\n\n`) head terminator.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|p| p + 4)
        .or_else(|| buf.windows(2).position(|w| w == b"\n\n").map(|p| p + 2))
}

fn respond(
    stream: &mut TcpStream,
    deadline: Instant,
    status: u16,
    content_type: &str,
    body: &str,
) -> io::Result<()> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        503 => "Service Unavailable",
        _ => "Error",
    };
    let mut out = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body.as_bytes());
    // `write_all` would give every partial write a fresh timeout.
    let mut rest = &out[..];
    while !rest.is_empty() {
        stream.set_write_timeout(time_left(deadline)?)?;
        match stream.write(rest)? {
            0 => return Err(io::ErrorKind::WriteZero.into()),
            n => rest = &rest[n..],
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn head_end_detection() {
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n\r\n"), Some(18));
        assert_eq!(find_head_end(b"GET / HTTP/1.1\n\n"), Some(16));
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n"), None);
        assert_eq!(find_head_end(b""), None);
    }
}
