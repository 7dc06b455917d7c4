//! Graceful fd-exhaustion: when `accept(2)` hits `EMFILE`, the event
//! loop must pause accepting with exponential backoff — journaled and
//! counted — while every established connection keeps being served,
//! and must resume accepting on its own once descriptors free up. The
//! HTTP listener, with a probe queued on it, must not spin either.
//! Runs in its own test binary because it manipulates the process-wide
//! `RLIMIT_NOFILE`.

use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use srj_geom::Point;
use srj_net::rlimit;
use srj_obs::journal::{journal, EventKind};
use srj_server::{Client, ClientConfig, DatasetRegistry, Server, ServerConfig};

mod common;
use common::metric_value;

fn registry_with(dataset: u64, n: usize) -> DatasetRegistry {
    let mut state = 0x9E37_79B9u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut points = |_side: u8| -> Vec<Point> {
        (0..n)
            .map(|_| Point::new(next() * 50.0, next() * 50.0))
            .collect()
    };
    let mut registry = DatasetRegistry::new();
    registry.register(dataset, points(0), points(1));
    registry
}

/// CPU time this process has used, in ms: utime + stime of
/// `/proc/self/stat`, read through a file opened while descriptors were
/// still free. The fields count `USER_HZ` (100 on Linux) ticks.
fn cpu_ms(stat: &mut File) -> u64 {
    let mut text = String::new();
    stat.seek(SeekFrom::Start(0))
        .expect("rewind /proc/self/stat");
    stat.read_to_string(&mut text)
        .expect("read /proc/self/stat");
    // Fields 14 and 15; the command name before them may hold spaces.
    let (_, rest) = text.rsplit_once(')').expect("a stat line");
    let fields: Vec<u64> = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .map(|f| f.parse().expect("a tick count"))
        .collect();
    (fields[0] + fields[1]) * 10
}

#[test]
fn emfile_backs_off_accept_and_recovers() {
    let (soft0, _) = rlimit::nofile().expect("read RLIMIT_NOFILE");
    // Lower the soft limit to just above what the process already
    // holds: enough headroom for the server (epoll fd, waker pipe,
    // listener, one accepted socket plus its shutdown clone) and one
    // client, so the hoard below has only a handful of slots to fill.
    let used = std::fs::read_dir("/proc/self/fd")
        .expect("/proc/self/fd")
        .count() as u64;
    let lowered = rlimit::set_nofile_soft(used + 24).expect("lower RLIMIT_NOFILE");
    assert!(lowered <= used + 24, "soft limit did not drop: {lowered}");

    let config = ServerConfig {
        workers: 1,
        http_port: Some(0),
        ..ServerConfig::default()
    };
    let mut server = Server::start("127.0.0.1:0", registry_with(1, 64), config).unwrap();
    let addr = server.local_addr().to_string();
    let http_addr = server.http_addr().expect("http listener must be up");
    let cfg = ClientConfig::default();
    let mut stat = File::open("/proc/self/stat").expect("open /proc/self/stat");

    // An established connection from *before* the exhaustion — it must
    // keep answering throughout.
    let mut c0 = Client::connect_with(addr.as_str(), cfg).expect("connect before exhaustion");
    c0.ping().expect("ping before exhaustion");

    // Fill the fd table, then hand back one slot at a time, each spent
    // on a client socket at once, so the server's accept(2) calls are
    // the ones that run out. Two slots handed back together would race:
    // an accept landing between the two connects takes the second.
    let mut hoard = Vec::new();
    while let Ok(f) = File::open("/dev/null") {
        hoard.push(f);
    }
    assert!(hoard.len() >= 2, "fd table was already exhausted");
    hoard.pop();
    let trigger = TcpStream::connect(addr.as_str()).expect("trigger connect");

    // The failed accept must surface as a counted, journaled backoff —
    // observed through the still-healthy established connection.
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut backoffs = 0.0;
    while Instant::now() < deadline {
        let text = c0.metrics().expect("METRICS over established conn");
        backoffs = metric_value(&text, "srj_accept_backoff_total");
        if backoffs >= 1.0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(
        backoffs >= 1.0,
        "accept never backed off under EMFILE (counter {backoffs})"
    );
    c0.ping()
        .expect("established connection died during exhaustion");
    assert!(
        journal()
            .recent(256)
            .iter()
            .any(|e| e.kind == EventKind::AcceptBackoff),
        "no AcceptBackoff journal event"
    );
    hoard.pop();
    let mut probe = TcpStream::connect(http_addr).expect("HTTP probe connect");
    probe
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
        .expect("send the HTTP probe");

    // Neither listener spins while a connection it cannot accept is
    // queued on it.
    let cpu0 = cpu_ms(&mut stat);
    std::thread::sleep(Duration::from_millis(300));
    let cpu = cpu_ms(&mut stat) - cpu0;
    assert!(cpu < 150, "{cpu} ms of CPU in 300 ms of fd exhaustion");

    // Free the descriptors: the resume timer must re-register the
    // listener and accept again without any restart, and the HTTP
    // probe is answered once its listener is back.
    drop(hoard);
    let mut c1 = Client::connect_with(addr.as_str(), cfg).expect("connect after recovery");
    c1.ping().expect("ping after recovery");
    c0.ping().expect("original connection after recovery");
    probe
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("probe read timeout");
    let mut answer = String::new();
    let _ = probe.read_to_string(&mut answer);
    assert!(answer.starts_with("HTTP/1.1 200 OK"), "{answer:?}");

    drop(trigger);
    server.shutdown();
    rlimit::set_nofile_soft(soft0).expect("restore RLIMIT_NOFILE");
}
