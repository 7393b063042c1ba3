//! Harness-side spans for the traced pass: one span around every call into
//! the program (name, start, end, parent, iteration id), kept in memory and
//! written out when the pass ends. A layer's *self time* is its span minus
//! the part of that interval its children cover.

use std::path::Path;
use std::time::Instant;

/// Index of a span in its tracer; `NO_PARENT` marks a root.
pub type SpanId = u32;
pub const NO_PARENT: SpanId = u32::MAX;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: SpanId,
    pub iteration: u32,
}

/// Monotonic nanosecond clock shared by samples and spans, plus the span
/// store. Disabled (the untraced pass) it keeps the clock and drops spans.
#[derive(Debug)]
pub struct Tracer {
    anchor: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            anchor: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    /// Starts or stops keeping spans; the clock runs on either way.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Nanoseconds since the tracer was created.
    pub fn now(&self) -> u64 {
        self.anchor.elapsed().as_nanos() as u64
    }

    /// Opens a span that will have children; close it with [`close`](Self::close).
    pub fn open(
        &mut self,
        name: &'static str,
        start_ns: u64,
        parent: SpanId,
        iteration: u32,
    ) -> SpanId {
        if !self.enabled {
            return NO_PARENT;
        }
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            iteration,
        });
        (self.spans.len() - 1) as SpanId
    }

    pub fn close(&mut self, id: SpanId, end_ns: u64) {
        if let Some(span) = self.spans.get_mut(id as usize) {
            span.end_ns = end_ns;
        }
    }

    /// Records a finished span in one step.
    pub fn leaf(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: SpanId,
        iteration: u32,
    ) {
        let id = self.open(name, start_ns, parent, iteration);
        self.close(id, end_ns);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as one JSON object: `{"spans": [[name, start_ns,
    /// end_ns, parent, iteration], ...]}` with `parent` −1 for roots.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        use std::io::Write;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "{{\"columns\": [\"name\", \"start_ns\", \"end_ns\", \"parent\", \"iteration\"],"
        )?;
        writeln!(out, "\"spans\": [")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            let comma = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "[\"{}\", {}, {}, {}, {}]{}",
                s.name, s.start_ns, s.end_ns, parent, s.iteration, comma
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, each clipped to the span itself (so overlapping
/// or overhanging children are not counted twice or beyond the parent).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(list) = children.get_mut(s.parent as usize) {
            list.push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for (start, end) in kids {
                let start = start.max(cursor);
                let end = end.min(s.end_ns);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Durations (ns) of every span called `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<u64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.end_ns - s.start_ns)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: SpanId) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            iteration: 0,
        }
    }

    #[test]
    fn nested_children_are_subtracted_once_per_level() {
        let spans = [
            span("iteration", 0, 100, NO_PARENT),
            span("io_phase", 10, 60, 0),
            span("write", 20, 30, 1),
            span("write", 30, 50, 1),
            span("query", 70, 90, 0),
        ];
        // iteration: 100 − (50 + 20); io_phase: 50 − (10 + 20); leaves whole.
        assert_eq!(self_times(&spans), vec![30, 20, 10, 20, 20]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_the_union() {
        let spans = [
            span("parent", 100, 200, NO_PARENT),
            span("a", 110, 150, 0),
            span("b", 140, 170, 0), // overlaps a by 10
            span("c", 190, 250, 0), // overhangs the parent's end
            span("d", 50, 105, 0),  // starts before the parent
            span("e", 120, 130, 0), // wholly inside a
        ];
        // Union inside [100, 200]: [100,105] ∪ [110,170] ∪ [190,200] = 75.
        assert_eq!(self_times(&spans)[0], 25);
    }

    #[test]
    fn disabled_tracer_keeps_the_clock_and_drops_spans() {
        let mut t = Tracer::new(false);
        let id = t.open("iteration", 0, NO_PARENT, 0);
        t.leaf("write", 1, 2, id, 0);
        t.close(id, 3);
        assert!(t.spans().is_empty());
        let a = t.now();
        assert!(t.now() >= a);
    }

    #[test]
    fn enabled_tracer_links_children_to_parents() {
        let mut t = Tracer::new(true);
        let root = t.open("iteration", 5, NO_PARENT, 9);
        t.leaf("write", 6, 8, root, 9);
        t.close(root, 10);
        assert_eq!(
            t.spans(),
            &[
                Span {
                    name: "iteration",
                    start_ns: 5,
                    end_ns: 10,
                    parent: NO_PARENT,
                    iteration: 9
                },
                Span {
                    name: "write",
                    start_ns: 6,
                    end_ns: 8,
                    parent: 0,
                    iteration: 9
                },
            ]
        );
        assert_eq!(durations(t.spans(), "write"), vec![2]);
    }
}
