//! A process-monotone nanosecond clock.
//!
//! Journal events and slow-log entries carry timestamps from one shared
//! origin (the first call in the process), so nanosecond deltas
//! between any two records are meaningful and `u64` never overflows
//! in practice (585 years of uptime).

use std::sync::OnceLock;
use std::time::Instant;

static START: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds elapsed since the process-wide clock origin.
///
/// Monotone: never decreases across threads (modulo the platform's
/// `Instant` guarantees, which are monotonic by contract).
pub fn now_ns() -> u64 {
    START.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_is_monotone() {
        let a = now_ns();
        let b = now_ns();
        let c = now_ns();
        assert!(a <= b && b <= c);
    }
}
