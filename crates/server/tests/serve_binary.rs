//! `srj-serve` and `srj-top` as processes: the command line, the
//! `listening on` line scripts parse, serving over a real socket, and a
//! clean exit on a `SHUTDOWN` frame — the path nothing in-process
//! covers.

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use srj_server::{Client, ClientConfig, RequestStatus, SampleRequest};

const SERVE: &str = env!("CARGO_BIN_EXE_srj-serve");
const TOP: &str = env!("CARGO_BIN_EXE_srj-top");

/// A failed assertion must not leave a server running.
struct KillOnDrop(Child);

impl Drop for KillOnDrop {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn serves_over_tcp_and_exits_cleanly_on_a_shutdown_frame() {
    let mut serve = KillOnDrop(
        Command::new(SERVE)
            .args(["--addr", "127.0.0.1:0", "--workers", "1"])
            .args(["--dataset", "1=uniform:0.02"])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn srj-serve"),
    );
    let mut first_line = String::new();
    BufReader::new(serve.0.stdout.take().expect("piped stdout"))
        .read_line(&mut first_line)
        .expect("read srj-serve's stdout");
    let addr = first_line
        .trim_end()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("expected `listening on ADDR`, got {first_line:?}"));

    // No retries: a transport failure or a BUSY must surface as this
    // test's error, not as a second, silent SAMPLE in the counts below.
    let config = ClientConfig {
        retries: 0,
        ..ClientConfig::default()
    };
    let mut client = Client::connect_with(addr, config).expect("connect to srj-serve");
    let outcome = client
        .sample(SampleRequest {
            req_id: 0,
            dataset: 1,
            l: 100.0,
            algorithm: None,
            shards: 1,
            t: 1_000,
            seed: 7,
        })
        .unwrap();
    assert_eq!(outcome.status, RequestStatus::Ok);
    assert_eq!(outcome.pairs.len(), 1_000);
    let metrics = client.metrics().unwrap();
    assert!(
        metrics.contains("srj_requests_total{dataset=\"1\"} 1"),
        "one SAMPLE sent (client retries {}, BUSY answers {}, DONE {:?}), yet:\n{metrics}",
        client.retries(),
        client.busy_answers(),
        outcome.stats,
    );

    let top = Command::new(TOP)
        .args(["--addr", addr, "--once", "--raw"])
        .output()
        .expect("run srj-top");
    assert!(top.status.success(), "srj-top: {top:?}");
    assert!(
        String::from_utf8_lossy(&top.stdout).contains("srj_requests_total"),
        "srj-top --raw printed no exposition: {top:?}"
    );

    client.shutdown_server().expect("send SHUTDOWN");
    let deadline = Instant::now() + Duration::from_secs(20);
    let status = loop {
        if let Some(status) = serve.0.try_wait().expect("wait for srj-serve") {
            break status;
        }
        assert!(
            Instant::now() < deadline,
            "srj-serve still running 20 s after SHUTDOWN"
        );
        std::thread::sleep(Duration::from_millis(10));
    };
    assert!(status.success(), "srj-serve exited with {status}");
}

/// A scale of zero, a non-number or a dataset beyond `u32` point ids is
/// a usage error (exit code 2), not a panic or an allocation abort.
#[test]
fn unusable_dataset_scales_are_usage_errors() {
    for scale in ["0", "-1", "nan", "inf", "1e9"] {
        let out = Command::new(SERVE)
            .args(["--addr", "127.0.0.1:0"])
            .args(["--dataset", &format!("1=uniform:{scale}")])
            .output()
            .expect("run srj-serve");
        assert_eq!(out.status.code(), Some(2), "scale {scale}: {out:?}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("usage: srj-serve"),
            "scale {scale}: {out:?}"
        );
    }
}
