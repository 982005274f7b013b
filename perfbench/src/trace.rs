//! Spans around the benchmark's calls into each layer, kept in memory
//! and written out when the run ends.
//!
//! A span records its name, start, end, parent span and request id.
//! Spans only ever wrap public calls made from this benchmark; nothing
//! inside the program is instrumented. A layer's self time is its
//! span's duration minus the time its child spans cover.

use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span in the same tracer.
    pub parent: Option<usize>,
    pub request: u64,
    pub thread: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle to an open span, returned by [`Tracer::begin`].
#[must_use = "close the span with Tracer::end"]
pub struct Open(Option<usize>);

/// One thread's span recorder. A disabled tracer records nothing and
/// costs one branch per call.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    thread: u32,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool, epoch: Instant, thread: u32) -> Self {
        Self {
            enabled,
            epoch,
            thread,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span; the innermost open span is its parent.
    pub fn begin(&mut self, name: &'static str, request: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let at = self.now();
        self.spans.push(Span {
            name,
            start_ns: at,
            end_ns: at,
            parent: self.stack.last().copied(),
            request,
            thread: self.thread,
        });
        let id = self.spans.len() - 1;
        self.stack.push(id);
        Open(Some(id))
    }

    /// Closes `open` and returns its duration in ns (0 when disabled).
    pub fn end(&mut self, open: Open) -> u64 {
        let Some(id) = open.0 else { return 0 };
        let at = self.now();
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = at;
        self.spans[id].dur_ns()
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name, request);
        let out = f();
        self.end(open);
        out
    }

    /// Runs `f` inside a span named `name` and returns the host time it
    /// took in ns (measured even when tracing is off).
    pub fn span_ns<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> u64 {
        let open = self.begin(name, request);
        let t = Instant::now();
        std::hint::black_box(f());
        let ns = t.elapsed().as_nanos() as u64;
        self.end(open);
        ns
    }

    /// A tracer for another thread, on the same clock and switch.
    pub fn for_thread(&self, thread: u32) -> Tracer {
        Tracer::new(self.enabled, self.epoch, thread)
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Moves another thread's spans into this tracer.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span: its duration minus the time its children cover.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(covered)
            .map(|(s, c)| s.dur_ns().saturating_sub(c))
            .collect()
    }

    /// Durations of the spans named `name`, in `scale` units per ns.
    pub fn durations(&self, name: &str, scale: f64) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 * scale)
            .collect()
    }

    /// The spans as JSON lines, one object per span.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (s, own) in self.spans.iter().zip(self.self_times_ns()) {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"parent\":{},\"request\":{},\"thread\":{}}}",
                s.name, s.start_ns, s.end_ns, own, parent, s.request, s.thread
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true, Instant::now(), 0);
        let outer = t.begin("outer", 1);
        let inner = t.begin("inner", 1);
        std::thread::sleep(std::time::Duration::from_millis(2));
        let inner_ns = t.end(inner);
        let outer_ns = t.end(outer);
        let own = t.self_times_ns();
        assert_eq!(own[0], outer_ns - inner_ns);
        assert_eq!(own[1], inner_ns);
        assert_eq!(t.spans()[1].parent, Some(0));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now(), 0);
        let s = t.begin("x", 0);
        assert_eq!(t.end(s), 0);
        assert!(t.spans().is_empty());
    }
}
