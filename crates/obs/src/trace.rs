//! The retired span-tracing hook.
//!
//! A request's server-side time is one stage record carried by the
//! request itself ([`crate::Stages`]), which [`crate::SlowLog`] keeps
//! when the request finishes slow; no span is recorded anywhere.

/// Does nothing. Kept because `benchmark/src/layers.rs` still times a
/// call to it (`obs.trace_event_off_ns`); ROADMAP item 5 (d) deletes it.
#[doc(hidden)]
#[inline]
pub fn event(_span: &'static str, _what: &'static str) {}
