//! Spans recorded by the benchmark's own code around the calls into each
//! layer (choosing-metrics §4): kept in memory, written out when the run
//! ends. End-to-end rounds never record spans.

use std::time::Instant;

use crate::json::Json;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<u32>,
    /// Spans of one replayed operation share its index.
    pub request: u32,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    request: u32,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// A tracer that records nothing until [`Tracer::set_enabled`].
    pub fn new() -> Tracer {
        Tracer {
            enabled: false,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            request: 0,
        }
    }

    pub fn set_request(&mut self, request: u32) {
        self.request = request;
    }

    /// Switches recording on or off; only between spans.
    pub fn set_enabled(&mut self, enabled: bool) {
        debug_assert!(self.stack.is_empty(), "toggled inside a span");
        self.enabled = enabled;
    }

    #[inline]
    pub fn enter(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let parent = self.stack.last().copied();
        self.stack.push(self.spans.len() as u32);
        self.spans.push(Span {
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent,
            request: self.request,
        });
    }

    #[inline]
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let now = self.origin.elapsed().as_nanos() as u64;
        let idx = self.stack.pop().expect("exit without a matching enter");
        self.spans[idx as usize].end_ns = now;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part its child
    /// spans cover. Parallel to [`Tracer::spans`].
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self
            .spans
            .iter()
            .map(|s| s.end_ns.saturating_sub(s.start_ns))
            .collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                let child = s.end_ns.saturating_sub(s.start_ns);
                own[p as usize] = own[p as usize].saturating_sub(child);
            }
        }
        own
    }

    /// The spans of the first `max_requests` operations, as written to
    /// `trace.json`.
    pub fn to_json(&self, max_requests: u32) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .filter(|(_, s)| s.request < max_requests)
                .map(|(i, s)| {
                    Json::obj([
                        ("id", Json::Num(i as f64)),
                        ("name", Json::str(s.name)),
                        ("start_ns", Json::Num(s.start_ns as f64)),
                        ("end_ns", Json::Num(s.end_ns as f64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(f64::from(p))),
                        ),
                        ("request", Json::Num(f64::from(s.request))),
                    ])
                })
                .collect(),
        )
    }
}
