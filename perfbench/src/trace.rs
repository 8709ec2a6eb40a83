//! In-memory spans around every call into a layer, recorded by the
//! benchmark's own threads and written out when the run ends.
//!
//! A span has a name (`layer.call`), start and end in nanoseconds since the
//! run's origin, the span that caused it, and the frame it belongs to, so
//! every span of one frame shares an identifier. A layer's self time is its
//! spans' durations minus the part of each covered by that span's children.
//! When tracing is off, [`SpanLog::time`] calls straight through.

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

/// No parent / no frame.
pub const NONE: u64 = u64::MAX;

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Unique id: thread log number in the high half, index in the low.
    pub id: u64,
    /// The causing span, or [`NONE`].
    pub parent: u64,
    /// `layer.call`.
    pub name: &'static str,
    /// The frame all spans of one frame share, or [`NONE`].
    pub frame: u64,
    /// Start, ns since the run's origin.
    pub start_ns: u64,
    /// End, ns since the run's origin.
    pub end_ns: u64,
}

impl Span {
    /// The layer: the name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// One thread's span log.
#[derive(Debug)]
pub struct SpanLog {
    on: bool,
    origin: Instant,
    log: u64,
    spans: Vec<Span>,
}

impl SpanLog {
    /// A log numbered `log` (unique per thread) against a shared origin.
    pub fn new(on: bool, origin: Instant, log: u64) -> Self {
        SpanLog { on, origin, log, spans: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span that stays open until [`SpanLog::close`]; returns its id
    /// ([`NONE`] when tracing is off).
    pub fn open(&mut self, name: &'static str, parent: u64) -> u64 {
        if !self.on {
            return NONE;
        }
        let id = self.log << 32 | self.spans.len() as u64;
        let start_ns = self.now_ns();
        self.spans.push(Span { id, parent, name, frame: NONE, start_ns, end_ns: start_ns });
        id
    }

    /// Closes a span opened on this log.
    pub fn close(&mut self, id: u64) {
        if id != NONE {
            let end = self.now_ns();
            self.spans[(id & 0xFFFF_FFFF) as usize].end_ns = end;
        }
    }

    /// Runs `f` inside a span and returns its result.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: u64,
        frame: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        if !self.on {
            return f();
        }
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        let id = self.log << 32 | self.spans.len() as u64;
        self.spans.push(Span { id, parent, name, frame, start_ns, end_ns });
        out
    }

    /// Records an already-timed span (for calls whose frame is only known
    /// once they return).
    pub fn record(&mut self, name: &'static str, parent: u64, frame: u64, start: Instant) {
        if self.on {
            let start_ns = start.saturating_duration_since(self.origin).as_nanos() as u64;
            let end_ns = self.now_ns();
            let id = self.log << 32 | self.spans.len() as u64;
            self.spans.push(Span { id, parent, name, frame, start_ns, end_ns });
        }
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time per span: duration minus the union of its children's
/// intervals clipped to it.
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if s.parent != NONE {
            children.entry(s.parent).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut cursor = s.start_ns;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(cursor), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        cursor = b;
                    }
                }
            }
            (s.id, (s.end_ns - s.start_ns).saturating_sub(covered))
        })
        .collect()
}

/// Self time summed per layer, in ms.
pub fn self_ms_by_layer(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let own = self_times(spans);
    let mut by_layer = BTreeMap::new();
    for s in spans {
        *by_layer.entry(s.layer()).or_insert(0.0) += own[&s.id] as f64 / 1e6;
    }
    by_layer
}

/// One span per line: `id parent name frame start_ns end_ns self_ns`.
pub fn to_tsv(spans: &[Span]) -> String {
    let own = self_times(spans);
    let mut out = String::from("id\tparent\tname\tframe\tstart_ns\tend_ns\tself_ns\n");
    let show = |v: u64| if v == NONE { "-".to_owned() } else { v.to_string() };
    for s in spans {
        out.push_str(&format!(
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\n",
            s.id,
            show(s.parent),
            s.name,
            show(s.frame),
            s.start_ns,
            s.end_ns,
            own[&s.id]
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, name, frame: NONE, start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, NONE, "bench.rung", 0, 100),
            // Two overlapping children from different threads, one poking
            // out past the parent's end.
            span(2, 1, "service.submit", 10, 40),
            span(3, 1, "service.next_output", 30, 50),
            span(4, 1, "dvbs2.bbframe", 90, 120),
            span(5, 2, "pipeline.push", 15, 20),
        ];
        let own = self_times(&spans);
        assert_eq!(own[&1], 100 - 40 - 10);
        assert_eq!(own[&2], 30 - 5);
        assert_eq!(own[&3], 20);
        assert_eq!(own[&4], 30);
        let layers = self_ms_by_layer(&spans);
        assert!((layers["bench"] - 50e-6).abs() < 1e-12);
        assert!((layers["service"] - 45e-6).abs() < 1e-12);
    }

    #[test]
    fn an_off_log_records_nothing() {
        let mut log = SpanLog::new(false, Instant::now(), 0);
        assert_eq!(log.time("decoder.decode", NONE, 1, || 7), 7);
        let root = log.open("bench.rung", NONE);
        log.close(root);
        assert!(log.into_spans().is_empty());
        let mut on = SpanLog::new(true, Instant::now(), 3);
        let root = on.open("bench.rung", NONE);
        on.time("decoder.decode", root, 1, || ());
        on.close(root);
        let spans = on.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, 3 << 32);
        assert_eq!((spans[1].frame, spans[1].layer()), (1, "decoder"));
    }
}
