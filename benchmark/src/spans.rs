//! Host-time spans recorded by the benchmark around its calls into the
//! simulator's layers (spans *inside* the simulator are a later change).
//!
//! A span is `{name, start, end, parent, id}`: `id` is the repetition or
//! trial the span belongs to, `parent` the span that was open when it
//! began. Spans stay in memory and are written out as JSON when the run
//! ends. A layer's self time is its span's duration minus the part of
//! that interval its child spans cover.

use crate::json::Value;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// The span recorder. Disabled (the end-to-end runs) it records nothing
/// and every call is one branch.
#[derive(Debug)]
pub struct SpanLog {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl SpanLog {
    pub fn new(enabled: bool) -> SpanLog {
        SpanLog {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` become
    /// its children.
    pub fn scope<T>(
        &mut self,
        name: &'static str,
        id: u64,
        f: impl FnOnce(&mut SpanLog) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            id,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.ns(Instant::now());
        out
    }

    /// Records a finished span from two timestamps taken elsewhere (the
    /// recovery phases are stamped inside a `RecoveryControl` callback).
    /// Its parent is the span open now.
    pub fn record(&mut self, name: &'static str, id: u64, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        self.spans.push(Span {
            name,
            id,
            parent: self.open.last().copied(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed duration of every span called `name`, in ms.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.total_ms_where(|s| s.name == name)
    }

    pub fn total_ms_where(&self, keep: impl Fn(&Span) -> bool) -> f64 {
        let ns: u64 = self
            .spans
            .iter()
            .filter(|s| keep(s))
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        ns as f64 / 1e6
    }

    /// Summed self time of every span called `name`, in ms: duration
    /// minus the duration of direct children.
    pub fn self_ms(&self, name: &str) -> f64 {
        let mut ns = 0i128;
        for (i, s) in self.spans.iter().enumerate() {
            if s.name != name {
                continue;
            }
            ns += (s.end_ns - s.start_ns) as i128;
            for c in self.spans.iter().filter(|c| c.parent == Some(i)) {
                ns -= (c.end_ns - c.start_ns) as i128;
            }
        }
        ns as f64 / 1e6
    }

    pub fn to_json(&self) -> Value {
        Value::Arr(
            self.spans
                .iter()
                .map(|s| {
                    let mut v = Value::obj();
                    v.set("name", s.name)
                        .set("id", s.id)
                        .set("start_ns", s.start_ns)
                        .set("end_ns", s.end_ns)
                        .set("parent", s.parent.map_or(Value::Null, Value::from));
                    v
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_have_parents_and_self_time() {
        let mut log = SpanLog::new(true);
        log.scope("outer", 7, |log| {
            log.scope("inner", 7, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            let t0 = Instant::now();
            log.record("stamped", 7, t0, t0 + std::time::Duration::from_millis(1));
        });
        let spans = log.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(log.total_ms("inner") >= 2.0);
        let expect_self = log.total_ms("outer") - log.total_ms("inner") - log.total_ms("stamped");
        assert!((log.self_ms("outer") - expect_self).abs() < 1e-9);
    }

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = SpanLog::new(false);
        assert_eq!(log.scope("x", 0, |_| 5), 5);
        log.record("y", 0, Instant::now(), Instant::now());
        assert!(log.spans().is_empty());
    }
}
