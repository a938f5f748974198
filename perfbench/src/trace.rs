//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span is recorded at a layer boundary: its name, the job it belongs
//! to, the span that caused it, and its start and end relative to the
//! run's origin. Spans stay in memory and are written out once, when the
//! run ends. With tracing off every call returns at its first branch, so
//! the untraced runs pay nothing but that branch.

use std::fmt::Write as _;
use std::time::Instant;

/// Job id used for spans that belong to no job (set-up, checks).
pub const NO_JOB: u64 = u64::MAX;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer boundary, `module.call`.
    pub name: &'static str,
    /// Job the span belongs to ([`NO_JOB`] for none).
    pub job: u64,
    /// Index of the causing span in the same [`Trace`], if any.
    pub parent: Option<usize>,
    /// Start, µs since the trace origin.
    pub start_us: f64,
    /// End, µs since the trace origin.
    pub end_us: f64,
    /// `true` when the interval was taken from a report the system
    /// returned (server queue wait, engine run) rather than timed here.
    pub reported: bool,
}

/// A span buffer. Threads each fill their own and [`Trace::absorb`] them.
#[derive(Debug, Clone)]
pub struct Trace {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Trace {
    /// A buffer that records when `on`, timed from `origin`.
    pub fn new(on: bool, origin: Instant) -> Trace {
        Trace {
            on,
            origin,
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Record `[start, end]` as `name`; returns its index for children.
    pub fn record(
        &mut self,
        name: &'static str,
        job: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        let us = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64() * 1e6;
        self.spans.push(Span {
            name,
            job,
            parent,
            start_us: us(start),
            end_us: us(end),
            reported: false,
        });
        Some(self.spans.len() - 1)
    }

    /// Record a child interval whose length a system report gave, laid
    /// from `offset_us` after the parent's start.
    pub fn record_reported(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        offset_us: f64,
        len_us: f64,
    ) {
        let Some(p) = parent.filter(|_| self.on) else {
            return;
        };
        let (job, start) = (self.spans[p].job, self.spans[p].start_us + offset_us);
        self.spans.push(Span {
            name,
            job,
            parent,
            start_us: start,
            end_us: start + len_us,
            reported: true,
        });
    }

    /// Time `f` as a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, job: u64, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, job, None, start, Instant::now());
        out
    }

    /// Move another buffer's spans into this one, re-basing parent links.
    pub fn absorb(&mut self, other: Trace) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Render as a JSON array, one object per span.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let job = if s.job == NO_JOB {
                "null".to_string()
            } else {
                s.job.to_string()
            };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"job\":{job},\"parent\":{parent},\
                 \"start_us\":{:.1},\"end_us\":{:.1},\"reported\":{}}}",
                s.name, s.start_us, s.end_us, s.reported
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn off_records_nothing() {
        let t0 = Instant::now();
        let mut t = Trace::new(false, t0);
        assert_eq!(t.record("a", 1, None, t0, t0), None);
        t.record_reported("b", Some(0), 0.0, 1.0);
        assert!(t.spans.is_empty());
    }

    #[test]
    fn reported_children_hang_off_their_parent() {
        let t0 = Instant::now();
        let mut t = Trace::new(true, t0);
        let p = t.record("serve.submit", 7, None, t0, t0 + Duration::from_millis(10));
        t.record_reported("scheduler.queue_wait", p, 0.0, 2000.0);
        let s = &t.spans[1];
        assert_eq!((s.job, s.parent, s.reported), (7, Some(0), true));
        assert_eq!(s.end_us - s.start_us, 2000.0);
        let mut other = Trace::new(true, t0);
        let q = other.record("x", 1, None, t0, t0);
        other.record_reported("y", q, 0.0, 1.0);
        t.absorb(other);
        assert_eq!(t.spans[3].parent, Some(2));
        assert!(t.to_json().contains("\"name\":\"scheduler.queue_wait\""));
    }
}
