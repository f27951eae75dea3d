//! In-memory spans around the calls into each layer.
//!
//! The spans are recorded here, in the benchmark, not in the program: a span
//! opens right before the benchmark calls a layer's public entry point and
//! closes right after.  They stay in a pre-allocated vector until the run
//! ends and are then exported in Chrome trace-event format, which Perfetto
//! (<https://ui.perfetto.dev>) opens directly.

use dibella_testutil::PeakAlloc;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `<layer>.<call>`; the layer is the crate the call goes into.
    pub name: &'static str,
    /// Index of the enclosing span, `None` for the root.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Peak bytes allocated above what was resident when the span opened.
    pub peak_bytes: u64,
}

impl Span {
    /// Wall time of the span in seconds.
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

struct OpenSpan {
    index: usize,
    /// Bytes resident when the span opened.
    base: u64,
    /// Highest absolute resident bytes seen inside the span so far.  Kept
    /// here because opening a child resets the allocator's own high-water
    /// mark, which would otherwise forget the parent's peak.
    high_water: u64,
}

/// Records nested spans with wall time and allocation peaks.
pub struct Tracer<'a> {
    alloc: &'a PeakAlloc,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<OpenSpan>,
}

/// Room for the deepest span tree any workload records, reserved up front so
/// that recording a span never allocates inside a measured scope.
const SPAN_CAPACITY: usize = 32;

impl<'a> Tracer<'a> {
    /// A tracer reading allocation counters from `alloc`, which must be the
    /// process's `#[global_allocator]` for the peaks to mean anything.
    pub fn new(alloc: &'a PeakAlloc) -> Self {
        Self {
            alloc,
            origin: Instant::now(),
            spans: Vec::with_capacity(SPAN_CAPACITY),
            open: Vec::with_capacity(SPAN_CAPACITY),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("a run shorter than 584 years")
    }

    /// Run `body` inside a span named `name`, nested in whichever span is
    /// open.  `body` gets the tracer back to open child spans.
    pub fn span<T>(&mut self, name: &'static str, body: impl FnOnce(&mut Self) -> T) -> T {
        if let Some(parent) = self.open.last_mut() {
            parent.high_water = parent.high_water.max(self.alloc.peak_resident());
        }
        let index = self.spans.len();
        let parent = self.open.last().map(|o| o.index);
        self.alloc.reset_peak();
        let base = self.alloc.current();
        self.open.push(OpenSpan {
            index,
            base,
            high_water: base,
        });
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: start_ns,
            peak_bytes: 0,
        });

        let result = body(self);

        let end_ns = self.now_ns();
        let closed = self.open.pop().expect("the span opened above");
        let high_water = closed.high_water.max(self.alloc.peak_resident());
        let span = &mut self.spans[index];
        span.end_ns = end_ns;
        span.peak_bytes = high_water.saturating_sub(closed.base);
        if let Some(parent) = self.open.last_mut() {
            parent.high_water = parent.high_water.max(high_water);
        }
        result
    }

    /// The spans recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Hand over the recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span in nanoseconds: its duration minus the part of
/// that interval its direct children cover (overlapping children are merged,
/// so time two children share is subtracted once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            let parent = &spans[p];
            let start = span.start_ns.clamp(parent.start_ns, parent.end_ns);
            let end = span.end_ns.clamp(parent.start_ns, parent.end_ns);
            children[p].push((start, end));
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(span, intervals)| {
            intervals.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for &(start, end) in intervals.iter() {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (span.end_ns - span.start_ns) - covered
        })
        .collect()
}

/// The first span called `name`, if the run recorded one.
pub fn find<'s>(spans: &'s [Span], name: &str) -> Option<&'s Span> {
    spans.iter().find(|s| s.name == name)
}

/// Render spans as a Chrome trace-event JSON document (complete events,
/// microsecond timestamps).  `workload` and `threads` go into every event so
/// that traces of several workloads can be loaded side by side.
pub fn chrome_trace_json(spans: &[Span], workload: &str, threads: usize) -> String {
    let selfs = self_times_ns(spans);
    let mut out = String::from("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    for (i, span) in spans.iter().enumerate() {
        let parent = span
            .parent
            .map_or("null".to_string(), |p| format!("\"{}\"", spans[p].name));
        let comma = if i + 1 == spans.len() { "" } else { "," };
        writeln!(
            out,
            "  {{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \
             \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"parent\": {}, \"start_ns\": {}, \
             \"end_ns\": {}, \"self_ns\": {}, \"peak_bytes\": {}, \"workload\": \"{}\", \
             \"threads\": {}}}}}{}",
            span.name,
            span.name.split('.').next().unwrap_or(span.name),
            span.start_ns as f64 / 1e3,
            (span.end_ns - span.start_ns) as f64 / 1e3,
            parent,
            span.start_ns,
            span.end_ns,
            selfs[i],
            span.peak_bytes,
            workload,
            threads,
            comma,
        )
        .expect("writing to a String cannot fail");
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            start_ns,
            end_ns,
            peak_bytes: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_what_children_cover() {
        let spans = [
            span("pipeline.run", None, 0, 1_000),
            span("seq.parse", Some(0), 100, 300),
            span("overlap.align", Some(0), 300, 700),
            // A grandchild takes from its parent only, not from the root.
            span("align.xdrop", Some(2), 350, 650),
        ];
        assert_eq!(self_times_ns(&spans), vec![400, 200, 100, 300]);
    }

    #[test]
    fn overlapping_children_are_subtracted_once() {
        let spans = [
            span("root", None, 0, 100),
            span("a", Some(0), 10, 60),
            span("b", Some(0), 40, 80),
            // Entirely inside `a`: adds nothing to the covered time.
            span("c", Some(0), 20, 30),
        ];
        assert_eq!(self_times_ns(&spans)[0], 100 - 70);
    }

    #[test]
    fn tracer_nests_spans_and_keeps_parent_links() {
        // Not installed as the global allocator here, so peaks read zero; the
        // nesting and the clock are what this checks.
        let alloc = PeakAlloc::new();
        let mut tracer = Tracer::new(&alloc);
        let value = tracer.span("pipeline.run", |t| {
            t.span("seq.parse", |_| ());
            t.span("strgraph.tr", |t| t.span("sparse.spgemm", |_| 41) + 1)
        });
        assert_eq!(value, 42);
        let spans = tracer.into_spans();
        let names: Vec<_> = spans.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            ["pipeline.run", "seq.parse", "strgraph.tr", "sparse.spgemm"]
        );
        let parents: Vec<_> = spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, [None, Some(0), Some(0), Some(2)]);
        for s in &spans[1..] {
            let p = &spans[s.parent.unwrap()];
            assert!(
                p.start_ns <= s.start_ns && s.end_ns <= p.end_ns,
                "{} inside {}",
                s.name,
                p.name
            );
        }
        let selfs = self_times_ns(&spans);
        let children: u64 = [1, 2]
            .iter()
            .map(|&i| spans[i].end_ns - spans[i].start_ns)
            .sum();
        assert_eq!(selfs[0] + children, spans[0].end_ns - spans[0].start_ns);
    }

    #[test]
    fn span_peak_survives_a_child_resetting_the_allocator_mark() {
        use std::alloc::{GlobalAlloc, Layout};
        let alloc = PeakAlloc::new();
        let big = Layout::from_size_align(1 << 20, 8).unwrap();
        let small = Layout::from_size_align(1 << 10, 8).unwrap();
        let mut tracer = Tracer::new(&alloc);
        tracer.span("root", |t| {
            // SAFETY: each block is freed with the layout it was allocated with.
            unsafe {
                let p = alloc.alloc(big);
                alloc.dealloc(p, big);
            }
            t.span("child", |_| unsafe {
                let p = alloc.alloc(small);
                alloc.dealloc(p, small);
            });
        });
        let spans = tracer.into_spans();
        assert_eq!(spans[1].peak_bytes, 1 << 10);
        assert_eq!(
            spans[0].peak_bytes,
            1 << 20,
            "the root keeps the peak from before the child"
        );
    }

    #[test]
    fn chrome_trace_lists_every_span_once() {
        let spans = [
            span("pipeline.run", None, 0, 2_000),
            span("seq.parse", Some(0), 500, 1_500),
        ];
        let json = chrome_trace_json(&spans, "clr-long", 2);
        assert_eq!(json.matches("\"ph\": \"X\"").count(), 2);
        assert!(json.contains("\"name\": \"seq.parse\", \"cat\": \"seq\""));
        assert!(json.contains("\"ts\": 0.500, \"dur\": 1.000"));
        assert!(json.contains("\"parent\": \"pipeline.run\""));
        assert!(json.contains("\"self_ns\": 1000"));
        assert!(json.contains("\"workload\": \"clr-long\", \"threads\": 2"));
        assert!(json.trim_end().ends_with("]}"));
    }
}
