//! `srj-serve` and `srj-top` as processes: the command line, the
//! `listening on` line scripts parse, serving over a real socket, and a
//! clean exit on a `SHUTDOWN` frame — the path nothing in-process
//! covers.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
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

impl KillOnDrop {
    /// The process's exit status, waiting 20 s at most: a server still
    /// running by then fails the test, naming `what` it should have
    /// exited on, instead of hanging it.
    fn exit_status(&mut self, what: &str) -> std::process::ExitStatus {
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            if let Some(status) = self.0.try_wait().expect("wait for srj-serve") {
                return status;
            }
            assert!(
                Instant::now() < deadline,
                "srj-serve still running 20 s after {what}"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

#[test]
fn serves_over_tcp_and_exits_cleanly_on_a_shutdown_frame() {
    let mut serve = KillOnDrop(
        Command::new(SERVE)
            .args(["--addr", "127.0.0.1:0", "--workers", "1"])
            .args(["--dataset", "1=uniform:0.02", "--http-port", "0"])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn srj-serve"),
    );
    let mut stdout = BufReader::new(serve.0.stdout.take().expect("piped stdout"));
    let mut line = |prefix: &str| {
        let mut line = String::new();
        stdout
            .read_line(&mut line)
            .expect("read srj-serve's stdout");
        line.trim_end()
            .strip_prefix(prefix)
            .unwrap_or_else(|| panic!("expected `{prefix}ADDR`, got {line:?}"))
            .to_string()
    };
    let addr = line("listening on ");
    let addr = addr.as_str();
    let http_addr = line("http on ");

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

    let mut probe = TcpStream::connect(&http_addr).expect("connect to the HTTP listener");
    probe
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("probe read timeout");
    probe
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
        .expect("send GET /healthz");
    let mut health = String::new();
    probe.read_to_string(&mut health).expect("read /healthz");
    assert!(health.starts_with("HTTP/1.1 200 OK"), "{health}");

    client.shutdown_server().expect("send SHUTDOWN");
    let status = serve.exit_status("SHUTDOWN");
    assert!(status.success(), "srj-serve exited with {status}");
}

/// A scale of zero, a non-number or a dataset beyond `u32` point ids is
/// a usage error (exit code 2), not a panic or an allocation abort — and
/// so is a retired flag, refused and never silently ignored, and a value
/// below a flag's minimum (an engine cache or a response queue of 0). A
/// command line the binary accepts fails the test rather than serving
/// on.
#[test]
fn unusable_dataset_scales_are_usage_errors() {
    let scales =
        ["0", "-1", "nan", "inf", "1e9"].map(|s| ["--dataset".into(), format!("1=uniform:{s}")]);
    let retired = [
        ("--repair-factor", "2"),
        ("--replan-factor", "2"),
        ("--buffers", "on"),
        ("--timeseries-cadence-ms", "1000"),
    ]
    .map(|(f, v)| [f.into(), v.into()]);
    let below_minimum = ["--cache", "--queue-frames"].map(|f| [f.into(), "0".into()]);
    for args in scales.iter().chain(&retired).chain(&below_minimum) {
        let mut serve = KillOnDrop(
            Command::new(SERVE)
                .args(["--addr", "127.0.0.1:0"])
                .args(args)
                .stdout(Stdio::null())
                .stderr(Stdio::piped())
                .spawn()
                .expect("spawn srj-serve"),
        );
        let status = serve.exit_status(&format!("{args:?}"));
        let mut stderr = String::new();
        let mut pipe = serve.0.stderr.take().expect("piped stderr");
        pipe.read_to_string(&mut stderr).expect("read stderr");
        assert_eq!(status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: srj-serve"), "{args:?}: {stderr}");
    }
}

/// The `--flag` tokens of `text`.
fn flags(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
        .filter(|t| t.len() > 2 && t.starts_with("--"))
}

/// Every flag README.md documents for `srj-serve` is one the binary's
/// usage text names. The README documents a flag as an inline code span
/// that opens with `--` (which may be `srj-top`'s instead) or with
/// `srj-serve `, or as an argument of an `srj-serve` command in a fenced
/// block.
#[test]
fn every_flag_the_readme_documents_is_in_the_usage_text() {
    let usage = |bin: &str| {
        let out = Command::new(bin)
            .arg("--help")
            .output()
            .expect("run --help");
        String::from_utf8(out.stderr).expect("usage is UTF-8")
    };
    let (serve, top) = (usage(SERVE), usage(TOP));
    let serve: Vec<&str> = flags(&serve).collect();
    let top: Vec<&str> = flags(&top).collect();
    let readme = concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md");
    let readme = std::fs::read_to_string(readme).expect("README.md at the workspace root");

    let mut checked = 0;
    let mut check = |flag: &str, or_top: bool, at: &str| {
        checked += 1;
        assert!(
            serve.contains(&flag) || (or_top && top.contains(&flag)),
            "README.md documents {flag} ({at:?}); srj-serve's usage does not"
        );
    };
    // Fenced blocks alternate with prose; inside prose, code spans
    // alternate with text.
    for (i, part) in readme.split("```").enumerate() {
        if i % 2 == 1 {
            for command in part.replace("\\\n", " ").lines() {
                if let Some((_, args)) = command.split_once("srj-serve ") {
                    flags(args).for_each(|f| check(f, false, command));
                }
            }
            continue;
        }
        for span in part.split('`').skip(1).step_by(2) {
            if span.starts_with("--") {
                flags(span).take(1).for_each(|f| check(f, true, span));
            } else if span.starts_with("srj-serve ") {
                flags(span).for_each(|f| check(f, false, span));
            }
        }
    }
    assert!(
        checked >= 20,
        "only {checked} flags found: the README moved"
    );
}
