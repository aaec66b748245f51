//! Host-time spans recorded around calls into the simulator's layers.
//!
//! Every span has a layer, a name, a start, an end and the span that
//! encloses it. Spans are kept in memory while the traced run works and
//! written out once, when it ends. A span's *self time* is its duration
//! minus the durations of its direct children; summed over all spans,
//! self time is exactly the root spans' total, so a per-layer split plus
//! the enclosing spans' remainder ("glue") always adds up.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Layer of the benchmark's own enclosing spans (a session, a visit, a
/// user): their self time is the glue between the layer calls.
pub const GLUE: &str = "glue";

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer the call goes into (`browser`, `net`, …) or [`GLUE`].
    pub layer: &'static str,
    /// The function called.
    pub name: &'static str,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration, ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An open span; close it with [`Tracer::close`].
#[derive(Debug)]
#[must_use = "an opened span must be closed"]
pub struct Open(usize);

/// In-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    base: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            base: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn open(&mut self, layer: &'static str, name: &'static str) -> Open {
        let idx = self.spans.len();
        let parent = self.stack.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        self.stack.push(idx);
        Open(idx)
    }

    /// Closes `open`, which must be the innermost open span.
    ///
    /// # Panics
    ///
    /// Panics when spans are closed out of order.
    pub fn close(&mut self, open: Open) {
        let top = self.stack.pop();
        assert_eq!(top, Some(open.0), "spans must close innermost first");
        self.spans[open.0].end_ns = self.now_ns();
    }

    /// Runs `f` inside a leaf span.
    pub fn time<T>(&mut self, layer: &'static str, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.open(layer, name);
        let out = f();
        self.close(open);
        out
    }

    /// Spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Index the next opened span will get: spans from here on belong to
    /// whatever runs next, so `spans()[mark..]` is one phase's record.
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Self-time totals of the spans in `spans()[from..to]`.
    pub fn profile(&self, from: usize, to: usize) -> Profile {
        let mut child_ns = vec![0u64; to - from];
        for s in &self.spans[from..to] {
            if let Some(p) = s.parent.filter(|&p| p >= from) {
                child_ns[p - from] += s.dur_ns();
            }
        }
        let mut p = Profile::default();
        for (i, s) in self.spans[from..to].iter().enumerate() {
            let self_ns = s.dur_ns() - child_ns[i];
            *p.by_layer.entry(s.layer).or_default() += self_ns;
            *p.by_call.entry((s.layer, s.name)).or_default() += s.dur_ns();
            if s.parent.filter(|&q| q >= from).is_none() {
                p.root_ns += s.dur_ns();
            }
        }
        p
    }

    /// The spans as JSON lines (`{"layer", "name", "start_ns", "end_ns",
    /// "parent"}`), one span a line.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"layer\": \"{}\", \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}",
                s.layer, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// Self-time totals of a run of spans.
#[derive(Debug, Default)]
pub struct Profile {
    /// Self time per layer, ns.
    pub by_layer: BTreeMap<&'static str, u64>,
    /// Total (inclusive) duration per (layer, function), ns.
    pub by_call: BTreeMap<(&'static str, &'static str), u64>,
    /// Total duration of the root spans, ns — the sum of every self time.
    pub root_ns: u64,
}

impl Profile {
    /// Self time of `layer`, ns.
    pub fn layer_ns(&self, layer: &str) -> u64 {
        self.by_layer.get(layer).copied().unwrap_or(0)
    }

    /// Inclusive time of calls to `name` in `layer`, ns.
    pub fn call_ns(&self, layer: &str, name: &str) -> u64 {
        self.by_call
            .iter()
            .find(|((l, n), _)| *l == layer && *n == name)
            .map_or(0, |(_, &ns)| ns)
    }

    /// Whether the self times add up to the root total exactly.
    pub fn balanced(&self) -> bool {
        self.by_layer.values().sum::<u64>() == self.root_ns
    }

    /// Human-readable split, µs per `unit` over `units` units.
    pub fn table(&self, units: f64, unit: &str) -> String {
        let mut out = String::new();
        for (layer, ns) in &self.by_layer {
            let _ = writeln!(
                out,
                "  self {layer:<10} {:>12.3} us/{unit}  ({:5.1}%)",
                *ns as f64 / 1e3 / units,
                100.0 * *ns as f64 / self.root_ns.max(1) as f64
            );
        }
        let _ = writeln!(
            out,
            "  total           {:>12.3} us/{unit}",
            self.root_ns as f64 / 1e3 / units
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_add_up_to_the_roots() {
        let mut tr = Tracer::new();
        let root = tr.open(GLUE, "session");
        tr.time("browser", "load", || std::hint::black_box(3u64.pow(5)));
        let inner = tr.open(GLUE, "visit");
        tr.time("net", "events", || std::hint::black_box(2u64.pow(7)));
        tr.close(inner);
        tr.close(root);
        let p = tr.profile(0, tr.mark());
        assert!(p.balanced());
        assert_eq!(p.root_ns, tr.spans()[0].dur_ns());
        assert_eq!(p.call_ns("net", "events"), tr.spans()[3].dur_ns());
        assert_eq!(tr.to_json_lines().lines().count(), 4);
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn out_of_order_close_panics() {
        let mut tr = Tracer::new();
        let a = tr.open(GLUE, "a");
        let _b = tr.open(GLUE, "b");
        tr.close(a);
    }
}
