//! The benchmark's own spans: one per call into a layer, recorded from
//! outside the program (choosing-metrics §4). Kept in memory; the traced
//! run writes them out when it ends. A measured run uses the same timing
//! helper with recording off, so both modes time a call the same way.

use std::time::Instant;
use tsjson::Value;

/// One closed span. `parent` indexes the span list.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// A span recorder; all spans of one process share `run_id`.
pub struct Spans {
    recording: bool,
    origin: Instant,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Spans {
    /// Times calls without recording them.
    pub fn off() -> Spans {
        Spans::new(false)
    }

    /// Times calls and records a span for each.
    pub fn on() -> Spans {
        Spans::new(true)
    }

    fn new(recording: bool) -> Spans {
        Spans {
            recording,
            origin: Instant::now(),
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Runs `f` and returns its result with its wall seconds; the span is
    /// a child of whichever span is open.
    pub fn time<R>(&mut self, name: &str, f: impl FnOnce(&mut Spans) -> R) -> (R, f64) {
        let id = self.recording.then(|| {
            self.spans.push(Span {
                name: name.to_string(),
                start_ns: 0,
                end_ns: 0,
                parent: self.open.last().copied(),
            });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        let start = Instant::now();
        let out = f(self);
        let end = Instant::now();
        if let Some(id) = id {
            self.open.pop();
            self.spans[id].start_ns = (start - self.origin).as_nanos() as u64;
            self.spans[id].end_ns = (end - self.origin).as_nanos() as u64;
        }
        (out, (end - start).as_secs_f64())
    }

    /// Wall seconds of the most recent closed span called `name`.
    pub fn last_secs(&self, name: &str) -> Option<f64> {
        self.spans
            .iter()
            .rev()
            .find(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
    }

    /// The spans as a JSON array; `self_ns` is a span's duration minus what
    /// its children cover.
    pub fn to_json(&self, run_id: u64) -> Value {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        Value::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    tsjson::json!({
                        "id": i as u64,
                        "run": run_id,
                        "name": s.name,
                        "start_ns": s.start_ns,
                        "end_ns": s.end_ns,
                        "self_ns": (s.end_ns - s.start_ns).saturating_sub(child_ns[i]),
                        "parent": s.parent.map(|p| p as u64)
                    })
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_off_records_nothing() {
        let mut on = Spans::on();
        let ((), outer) = on.time("outer", |s| {
            s.time("inner", |_| std::hint::black_box(1 + 1));
        });
        assert!(outer >= 0.0);
        let spans = &on.spans;
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);

        let mut off = Spans::off();
        let (v, _) = off.time("x", |_| 7);
        assert_eq!(v, 7);
        assert!(off.spans.is_empty());
    }
}
