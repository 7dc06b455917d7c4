//! `srj-net` — dependency-free readiness primitives for the serving
//! stack.
//!
//! The build environment has no registry access, so this crate binds
//! the handful of syscalls a readiness loop needs directly via
//! `extern "C"` (the symbols live in the libc that `std` already
//! links on every supported target) instead of pulling in `libc`/
//! `mio`:
//!
//! * [`Poller`] — level-triggered readiness over a set of fds, backed
//!   by `epoll(7)`;
//! * [`Waker`] — a nonblocking pipe for waking a [`Poller::wait`]
//!   from another thread (workers kick the event loop through this);
//! * [`TimerWheel`] — a hashed timer wheel; everything the server
//!   used blocking-socket timeouts for (handshake/read/write/idle
//!   deadlines, fault delays, accept backoff) becomes an entry here;
//! * [`rlimit`] — `RLIMIT_NOFILE` helpers for the high-fanout load
//!   generator (raise) and the fd-exhaustion test (lower).
//!
//! Everything is synchronous and single-threaded by design: one
//! event-loop thread owns the poller and the wheel; only [`Waker`]
//! is shared across threads.

mod poller;
pub mod rlimit;
mod sys;
mod timer;

pub use poller::{Event, Interest, Poller, Waker};
pub use timer::TimerWheel;
