//! What the benchmark reads from the machine it runs on: process CPU
//! time and peak memory for the metrics, and the host description every
//! result file records.

use std::process::Command;

use crate::json::Json;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// A `cpu_set_t`: 1024 CPUs, one bit each.
type CpuSet = [u64; 16];

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User + system CPU time of this process, all threads, nanoseconds.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `timespec` (two 64-bit fields on
    // every 64-bit Linux target, the only ones this benchmark supports)
    // and the call writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Confines this process — and every thread it starts afterwards — to
/// one of the CPUs it may run on: the highest-numbered, since CPU 0
/// takes most interrupts. Returns that CPU, or `None` if the kernel
/// refused.
///
/// Why: with client, loop thread and worker free to move between two
/// virtual CPUs, each request pays zero, one or two cross-CPU wake-ups
/// depending on where the scheduler happens to put them, and on a
/// virtualised host one such wake-up costs more than the whole request
/// (measured: `small_requests` p50 flips between 40 and 120 us from
/// round to round). On one CPU every round sees the same schedule.
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut allowed: CpuSet = [0; 16];
    // SAFETY: `allowed` is a valid, writable buffer of the size passed;
    // pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut allowed) };
    if rc != 0 {
        return None;
    }
    let cpu = (0..allowed.len() * 64)
        .rev()
        .find(|&cpu| allowed[cpu / 64] & (1 << (cpu % 64)) != 0)?;
    let mut only: CpuSet = [0; 16];
    only[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `only` is a valid buffer of the size passed, read only.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &only) };
    (rc == 0).then_some(cpu)
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

/// The host description recorded in every result file. The driver's
/// checkout is not a git repository; the revision then reads "unknown".
pub fn describe() -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    // Only ask git when the working directory is itself a repository:
    // git would otherwise search the parent directories, and the
    // benchmark reads nothing outside its checkout.
    let git_rev = std::path::Path::new(".git")
        .exists()
        .then(|| command_line("git", &["rev-parse", "--short", "HEAD"]))
        .flatten();
    Json::obj([
        ("nproc", Json::Num(nproc as f64)),
        ("kernel", Json::str(kernel)),
        (
            "rustc",
            Json::str(command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into())),
        ),
        (
            "git_rev",
            Json::str(git_rev.unwrap_or_else(|| "unknown".into())),
        ),
    ])
}
