//! The benchmark's own span recorder. A span wraps one call into a
//! layer's public function; spans nest, are held in memory, and are
//! written once at exit as Chrome `trace_event` JSON. Spans inside
//! `Engine::run` belong to a later change inside the simulator.
//!
//! [`Spans::time`] always returns the call's duration, so the untraced
//! run uses the same code path and pays two clock reads per call.

use std::collections::BTreeMap;
use std::time::Instant;
use updown_sim::json::JsonWriter;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

pub struct Spans {
    recording: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new(recording: bool) -> Spans {
        Spans {
            recording,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Switch recording between spans. A span must end under the setting
    /// it began under.
    pub fn set_recording(&mut self, on: bool) {
        self.recording = on;
    }

    /// Number of open spans; pass to [`Spans::unwind`].
    pub fn depth(&self) -> usize {
        self.open.len()
    }

    /// Close open spans down to `depth` — also after a panic cut their
    /// `end` calls short.
    pub fn unwind(&mut self, depth: usize) {
        let now = self.origin.elapsed().as_nanos() as u64;
        while self.open.len() > depth {
            let i = self.open.pop().expect("len > depth >= 0");
            self.spans[i].end_ns = now;
        }
    }

    /// Open a span that will enclose later ones; close it with [`Spans::end`].
    pub fn begin(&mut self, name: &'static str) {
        if !self.recording {
            return;
        }
        let now = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span.
    pub fn end(&mut self) {
        if !self.recording {
            return;
        }
        let i = self
            .open
            .pop()
            .expect("Spans::end without a matching begin");
        self.spans[i].end_ns = self.origin.elapsed().as_nanos() as u64;
    }

    /// Run `f` inside a leaf span and return its result with its duration
    /// in seconds.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        self.begin(name);
        let t0 = Instant::now();
        let out = f();
        let secs = t0.elapsed().as_secs_f64();
        self.end();
        (out, secs)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name in seconds: each span's duration minus the
    /// part covered by its direct children, summed over spans of a name.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut by_name = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(covered);
            *by_name.entry(s.name).or_insert(0.0) += own as f64 / 1e9;
        }
        by_name
    }

    /// Chrome `trace_event` document (load in `chrome://tracing` or
    /// Perfetto). Each event carries its own index, its parent's index and
    /// the workload id, so the tree can be rebuilt without relying on
    /// interval containment.
    pub fn chrome_trace_json(&self, workload: &str) -> String {
        let mut w = JsonWriter::new();
        w.begin_obj();
        w.key("displayTimeUnit").string("ms");
        w.key("traceEvents").begin_arr();
        for (i, s) in self.spans.iter().enumerate() {
            w.begin_obj();
            w.key("name").string(s.name);
            w.key("cat")
                .string(s.name.split('.').next().unwrap_or(s.name));
            w.key("ph").string("X");
            w.key("ts").f64(s.start_ns as f64 / 1e3);
            w.key("dur").f64((s.end_ns - s.start_ns) as f64 / 1e3);
            w.key("pid").u64(1);
            w.key("tid").u64(1);
            w.key("args").begin_obj();
            w.key("id").u64(i as u64);
            match s.parent {
                Some(p) => w.key("parent").u64(p as u64),
                None => w.key("parent").null(),
            };
            w.key("workload").string(workload);
            w.end_obj();
            w.end_obj();
        }
        w.end_arr();
        w.end_obj();
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use updown_sim::json::JsonValue;

    #[test]
    fn nesting_parents_and_self_time() {
        let mut s = Spans::new(true);
        s.begin("outer");
        let ((), inner) = s.time("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        s.end();
        assert!(inner >= 0.005);
        assert_eq!(s.spans().len(), 2);
        assert_eq!(s.spans()[1].parent, Some(0));
        let own = s.self_seconds();
        let outer_total = (s.spans()[0].end_ns - s.spans()[0].start_ns) as f64 / 1e9;
        assert!(own["inner"] >= 0.005);
        assert!((own["outer"] + own["inner"] - outer_total).abs() < 1e-6);

        let doc = JsonValue::parse(&s.chrome_trace_json("w")).expect("valid JSON");
        let evs = doc.get("traceEvents").and_then(|e| e.as_arr()).unwrap();
        assert_eq!(evs.len(), 2);
        assert_eq!(
            evs[1].get("args").unwrap().get("parent").unwrap().as_u64(),
            Some(0)
        );
    }

    #[test]
    fn off_records_nothing_but_still_times() {
        let mut s = Spans::new(false);
        s.begin("outer");
        let (v, secs) = s.time("inner", || 7);
        s.end();
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert!(s.spans().is_empty());
    }
}
