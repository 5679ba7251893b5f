//! In-memory spans for the traced run.
//!
//! Every span is recorded from the benchmark's own files, around a call
//! into a layer's public function (or rebuilt from the oracle wrapper's
//! timestamps for calls the production loop makes itself). Spans stay in
//! memory until the run ends and are then written out as JSON.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed interval at a layer boundary.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// `layer.operation`, the prefix naming the layer the time belongs to.
    pub name: &'static str,
    /// Nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Which session the span belongs to: 0 is the traced session itself,
    /// higher ids are the shadow probes replayed after it.
    pub session: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Session id of the traced labeling session.
pub const SESSION: u32 = 0;
/// Session id of the classifier/ingest shadow replay.
pub const REPLAY: u32 = 1;

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    session: u32,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            session: SESSION,
        }
    }

    /// Spans recorded from here on belong to `session`.
    pub fn set_session(&mut self, session: u32) {
        self.session = session;
    }

    pub fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Time `f` as a span named `name`, nested under the innermost span
    /// still open.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Open a span by hand, for calls that themselves need the tracer.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let now = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            session: self.session,
        });
        self.open.push(id);
        id
    }

    pub fn exit(&mut self, id: usize) {
        let now = self.ns(Instant::now());
        self.spans[id].end_ns = now;
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans close innermost first");
    }

    /// Record a span from timestamps taken elsewhere (the oracle wrappers
    /// stamp their own calls), nested under the innermost span of the
    /// current session that contains it.
    pub fn add_nested(&mut self, name: &'static str, start: Instant, end: Instant) {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        let parent = self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| {
                s.session == self.session && s.start_ns <= start_ns && s.end_ns >= end_ns
            })
            .max_by_key(|(_, s)| s.start_ns)
            .map(|(id, _)| id);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent,
            session: self.session,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// A span's duration minus the part of it its child spans cover.
    pub fn self_time_ns(&self, id: usize) -> u64 {
        self_time_ns(&self.spans, id)
    }

    /// Durations of every span called `name`, in milliseconds.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect()
    }

    /// Total seconds spent in spans called `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.durations_ms(name).iter().sum::<f64>() / 1e3
    }

    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Share of the window `[start, end]` that the traced session's spans
    /// account for.
    pub fn closure_frac(&self, start: Instant, end: Instant) -> f64 {
        closure_frac(&self.spans, self.ns(start), self.ns(end))
    }

    /// The spans as a JSON array, one object per span.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"session\": {}}}",
                s.name, s.start_ns, s.end_ns, s.session
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

/// The traced run's switch: with tracing off every `span` is a plain call
/// (no clock is read), so the untraced and the traced repetition share
/// their code and differ only in whether intervals are kept.
pub struct Probe {
    tracer: Option<Tracer>,
}

impl Probe {
    pub fn off() -> Probe {
        Probe { tracer: None }
    }

    pub fn on() -> Probe {
        Probe {
            tracer: Some(Tracer::new()),
        }
    }

    pub fn is_on(&self) -> bool {
        self.tracer.is_some()
    }

    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        match &mut self.tracer {
            Some(tracer) => tracer.span(name, f),
            None => f(),
        }
    }

    /// Current resident set in MB when tracing, 0 otherwise (reading
    /// `/proc` costs a syscall the untraced run should not pay).
    pub fn rss_mb(&self) -> f64 {
        if self.is_on() {
            crate::procfs::rss_mb()
        } else {
            0.0
        }
    }

    pub fn into_tracer(self) -> Option<Tracer> {
        self.tracer
    }
}

/// Duration of span `id` minus the union of its direct children, clipped
/// to the span. Children recorded from the same thread never overlap each
/// other, but the union is taken anyway so a double-recorded interval
/// cannot push self time below zero.
pub fn self_time_ns(spans: &[Span], id: usize) -> u64 {
    let me = &spans[id];
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| (s.start_ns.max(me.start_ns), s.end_ns.min(me.end_ns)))
        .filter(|&(a, b)| b > a)
        .collect();
    kids.sort_unstable();
    let mut covered = 0u64;
    let mut reach = me.start_ns;
    for (a, b) in kids {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    me.duration_ns() - covered
}

/// Share of the window `[start_ns, end_ns]` covered by the traced
/// session's top-level spans (clipped to the window, overlaps counted
/// once). Children lie inside their parents, so this is the top-level
/// spans' self time plus everything nested under them — whatever is left
/// is time no layer has been charged for.
pub fn closure_frac(spans: &[Span], start_ns: u64, end_ns: u64) -> f64 {
    if end_ns <= start_ns {
        return 0.0;
    }
    let window = Span {
        name: "window",
        start_ns,
        end_ns,
        parent: None,
        session: SESSION,
    };
    // Self time of a synthetic span whose children are the top-level
    // spans is exactly the uncovered part of the window.
    let mut with_window: Vec<Span> = spans
        .iter()
        .filter(|s| s.session == SESSION && s.parent.is_none())
        .map(|s| Span {
            parent: Some(0),
            ..s.clone()
        })
        .collect();
    with_window.insert(0, window);
    let uncovered = self_time_ns(&with_window, 0);
    1.0 - uncovered as f64 / (end_ns - start_ns) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            session: SESSION,
        }
    }

    #[test]
    fn self_time_subtracts_child_cover_once() {
        let spans = vec![
            span("drive", 0, 100, None),
            span("poll", 10, 30, Some(0)),
            span("poll", 50, 70, Some(0)),
            // Overlaps the previous child: the union counts 50..80 once.
            span("submit", 60, 80, Some(0)),
            // A grandchild does not reduce the grandparent's self time.
            span("inner", 12, 20, Some(1)),
        ];
        assert_eq!(self_time_ns(&spans, 0), 100 - 20 - 30);
        assert_eq!(self_time_ns(&spans, 1), 20 - 8);
        assert_eq!(self_time_ns(&spans, 4), 8);
    }

    #[test]
    fn closure_is_attributed_time_over_the_window() {
        let mut spans = vec![
            span("setup", 0, 50, None), // before the window: not counted
            span("select", 100, 110, None),
            span("retrain", 110, 180, None),
            span("fit", 115, 170, Some(2)),
        ];
        // 80 of the 100 ns window are inside a span; children add nothing.
        assert!((closure_frac(&spans, 100, 200) - 0.8).abs() < 1e-12);
        // A span straddling the window's start counts for its inside part.
        assert!((closure_frac(&spans, 105, 205) - 0.75).abs() < 1e-12);
        // A replay span inside the window belongs to another session.
        spans.push(Span {
            session: REPLAY,
            ..span("fit", 180, 200, None)
        });
        assert!((closure_frac(&spans, 100, 200) - 0.8).abs() < 1e-12);
        assert_eq!(closure_frac(&spans, 5, 5), 0.0);
    }

    #[test]
    fn tracer_nests_and_serialises() {
        let mut t = Tracer::new();
        let outer = t.enter("core.stream.drive");
        t.span("core.oracle.poll", || std::hint::black_box(1 + 1));
        t.exit(outer);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.count("core.oracle.poll"), 1);
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
        assert!(t.self_time_ns(0) <= t.spans()[0].duration_ns());
        let json = t.to_json();
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(json.contains("\"name\": \"core.oracle.poll\""));
        assert!(json.contains("\"parent\": 0"));
        assert!(json.contains("\"parent\": null"));
    }
}
