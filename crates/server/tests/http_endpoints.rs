//! The HTTP observability listener and the profiler sweep, both served
//! by the maintainer thread: every endpoint's status and body shape,
//! sweeps that keep their period, a prompt shutdown, and a listener a
//! trickling client cannot hold.

use std::collections::BTreeSet;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use srj_server::{Client, DatasetRegistry, SampleRequest, Server, ServerConfig};

mod common;
use common::pseudo_points;

fn start(config: ServerConfig) -> Server {
    let mut registry = DatasetRegistry::new();
    registry.register(1, pseudo_points(200, 1, 50.0), pseudo_points(300, 2, 50.0));
    let config = ServerConfig {
        workers: 1,
        http_port: Some(0),
        ..config
    };
    Server::start("127.0.0.1:0", registry, config).expect("bind loopback")
}

/// Sends `request` as it is and reads the answer to EOF. A read error
/// after the answer — the reset of a server that hung up on unread
/// request bytes — is not this helper's business.
fn http(addr: SocketAddr, request: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect to the HTTP listener");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(request).expect("send the request");
    let mut out = Vec::new();
    let _ = stream.read_to_end(&mut out);
    String::from_utf8_lossy(&out).into_owned()
}

fn get(addr: SocketAddr, path: &str) -> String {
    http(
        addr,
        format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes(),
    )
}

/// The `# TYPE` families of a Prometheus exposition.
fn families(text: &str) -> BTreeSet<&str> {
    text.lines()
        .filter_map(|line| line.strip_prefix("# TYPE ")?.split(' ').next())
        .collect()
}

/// Profiler observations so far, over every state.
fn state_samples(exposition: &str) -> f64 {
    exposition
        .lines()
        .filter(|line| line.starts_with("srj_worker_state_samples_total{"))
        .filter_map(|line| line.rsplit(' ').next()?.parse::<f64>().ok())
        .sum()
}

#[test]
fn endpoints_and_sweeps_share_the_maintainer_and_shutdown_is_prompt() {
    let mut server = start(ServerConfig::default());
    let addr = server.http_addr().expect("http listener must be up");
    let mut client = Client::connect(server.local_addr()).unwrap();
    client
        .sample(SampleRequest {
            req_id: 0,
            dataset: 1,
            l: 5.0,
            algorithm: None,
            shards: 1,
            t: 100,
            seed: 3,
        })
        .unwrap();

    // `/metrics` is the `METRICS` frame's exposition. One connection
    // is open, counted once, under the one family that counts it.
    let frame = client.metrics().unwrap();
    let page = get(addr, "/metrics");
    assert!(page.starts_with("HTTP/1.1 200 OK"), "{page}");
    let (_, body) = page.split_once("\r\n\r\n").expect("an HTTP head");
    assert_eq!(families(body), families(&frame));
    assert!(
        frame.lines().any(|line| line == "srj_conn_open 1"),
        "{frame}"
    );
    assert!(!frame.contains("srj_active_connections"), "{frame}");

    let health = get(addr, "/healthz");
    assert!(health.starts_with("HTTP/1.1 200 OK"), "{health}");
    assert!(health.contains("\"status\":\"ready\""), "{health}");

    let vars = get(addr, "/vars");
    assert!(vars.starts_with("HTTP/1.1 200 OK"), "{vars}");

    // Two live tags (one worker, the event loop), one sweep per 50 ms:
    // 16 observations in 400 ms; three sweeps is the floor asserted.
    let before = state_samples(&client.metrics().unwrap());
    std::thread::sleep(Duration::from_millis(400));
    let swept = state_samples(&client.metrics().unwrap()) - before;
    assert!(swept >= 6.0, "{swept} profiler observations in 400 ms");

    assert!(get(addr, "/nope").starts_with("HTTP/1.1 404"));
    let post = http(addr, b"POST /metrics HTTP/1.1\r\nHost: t\r\n\r\n");
    assert!(post.starts_with("HTTP/1.1 405"), "{post}");
    let padded = format!(
        "GET /metrics HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
        "a".repeat(9 * 1024)
    );
    let oversized = http(addr, padded.as_bytes());
    assert!(oversized.starts_with("HTTP/1.1 413"), "{oversized}");

    drop(client);
    let t0 = Instant::now();
    server.shutdown();
    let took = t0.elapsed();
    assert!(took < Duration::from_millis(100), "shutdown took {took:?}");

    // Once every thread has settled into its wait too: none sleeps
    // through a sweep before it sees the shutdown.
    let mut server = start(ServerConfig::default());
    std::thread::sleep(Duration::from_millis(50));
    let t0 = Instant::now();
    server.shutdown();
    let took = t0.elapsed();
    assert!(took < Duration::from_millis(100), "shutdown took {took:?}");
}

/// A peer that dribbles its request in holds the listener — and the
/// maintainer with it — for one two-second deadline from accept, not
/// for a read timeout per byte: a probe queued behind it is answered
/// within about two seconds.
#[test]
fn a_trickling_client_holds_the_listener_for_one_deadline() {
    let mut server = start(ServerConfig::default());
    let addr = server.http_addr().expect("http listener must be up");
    // Connected first, so accepted first.
    let mut trickler = TcpStream::connect(addr).unwrap();
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            // One byte per 500 ms, and never the end of the head.
            let bytes = b"GET /metrics HTTP/1.1\r\nX-Slow: ".iter();
            for &byte in bytes.chain(std::iter::repeat(&b'a')) {
                if stop.load(Ordering::Relaxed) || trickler.write_all(&[byte]).is_err() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(500));
            }
        });
        let t0 = Instant::now();
        let answer = get(addr, "/healthz");
        let took = t0.elapsed();
        stop.store(true, Ordering::Relaxed);
        assert!(answer.starts_with("HTTP/1.1 200 OK"), "{answer}");
        assert!(
            took < Duration::from_secs(3),
            "the probe waited {took:?} behind a trickling client"
        );
    });
    server.shutdown();
}
