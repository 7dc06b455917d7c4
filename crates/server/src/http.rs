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
//! * `/vars` — JSON snapshot: every metric, recent time-series
//!   rollups, and the slow-log tail.
//!
//! Requests are read with a hard size bound ([`MAX_REQUEST_BYTES`]);
//! anything oversized, non-GET, or malformed gets a terse error
//! status and the connection is closed (`Connection: close` always —
//! no keep-alive state machine).

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::server::Shared;

/// Upper bound on a request head. A legitimate probe is < 200 bytes;
/// anything larger is either an attack or a mistake.
const MAX_REQUEST_BYTES: usize = 8 * 1024;

/// How long a connection may dribble its request in before we hang up.
const READ_TIMEOUT: Duration = Duration::from_secs(2);

/// Binds `127.0.0.1:port` and spawns the accept loop. Returns the
/// bound address (so `port` 0 works in tests) and the listener thread
/// handle; `Server::shutdown` wakes the loop with a no-op connect and
/// joins the handle.
pub(crate) fn start(
    shared: Arc<Shared>,
    port: u16,
) -> std::io::Result<(SocketAddr, JoinHandle<()>)> {
    let listener = TcpListener::bind(("127.0.0.1", port))?;
    let addr = listener.local_addr()?;
    let handle = std::thread::Builder::new()
        .name("srj-http".into())
        .spawn(move || accept_loop(listener, shared))
        .expect("spawn srj-http thread");
    Ok((addr, handle))
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shared.is_shutting_down() {
                    return;
                }
                continue;
            }
        };
        if shared.is_shutting_down() {
            return;
        }
        // Serve inline: the routes are all cheap snapshots and the
        // listener is a diagnostics port, not a data plane — one
        // slow scraper delaying another is acceptable, a thread per
        // probe is not.
        let _ = serve_one(stream, &shared);
    }
}

fn serve_one(mut stream: TcpStream, shared: &Arc<Shared>) -> std::io::Result<()> {
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let _ = stream.set_write_timeout(Some(READ_TIMEOUT));

    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    let head_end = loop {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Ok(()); // peer hung up mid-request
        }
        buf.extend_from_slice(&chunk[..n]);
        if let Some(pos) = find_head_end(&buf) {
            break pos;
        }
        if buf.len() > MAX_REQUEST_BYTES {
            return respond(&mut stream, 413, "text/plain", "request too large\n");
        }
    };

    let head = String::from_utf8_lossy(&buf[..head_end]);
    let request_line = head.lines().next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let (method, target) = match (parts.next(), parts.next()) {
        (Some(m), Some(t)) => (m, t),
        _ => return respond(&mut stream, 400, "text/plain", "bad request\n"),
    };
    if method != "GET" {
        return respond(&mut stream, 405, "text/plain", "method not allowed\n");
    }
    // Ignore any query string: `/healthz?probe=ci` is still /healthz.
    let path = target.split('?').next().unwrap_or(target);

    match path {
        "/metrics" => {
            let body = shared.metrics_text();
            respond(&mut stream, 200, "text/plain; version=0.0.4", &body)
        }
        "/healthz" => {
            let (ready, body) = shared.healthz();
            let status = if ready { 200 } else { 503 };
            respond(&mut stream, status, "application/json", &body)
        }
        "/vars" => {
            let body = shared.vars_json();
            respond(&mut stream, 200, "application/json", &body)
        }
        _ => respond(&mut stream, 404, "text/plain", "not found\n"),
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
    status: u16,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        503 => "Service Unavailable",
        _ => "Error",
    };
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
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
