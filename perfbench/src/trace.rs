//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer (never inside the program), kept in memory and written out once
//! the run ends. A span has a name, start, end and parent; every span of
//! one operation shares the operation id. A layer's self time is its
//! span's duration minus the part of that interval its children cover.

use std::collections::HashMap;
use std::io::Write;
use std::time::Instant;

/// Spans of one name written to the span file at most.
pub const WRITTEN_PER_NAME: usize = 50_000;

/// Handle of an open span: its index and operation id; `None` when
/// tracing is off.
pub type SpanId = Option<(usize, u64)>;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub parent: Option<usize>,
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans when enabled; every call is a no-op otherwise, so the
/// untraced run pays one branch per call site.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    next_op: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            next_op: 0,
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Open a span under `parent`, sharing its operation id, or a root
    /// span under a fresh operation id; close it with [`exit`](Self::exit).
    pub fn enter(&mut self, name: &'static str, parent: SpanId) -> SpanId {
        if !self.enabled {
            return None;
        }
        let op = match parent {
            Some((_, op)) => op,
            None => {
                self.next_op += 1;
                self.next_op
            }
        };
        let now = self.now_ns();
        self.spans.push(Span {
            parent: parent.map(|(i, _)| i),
            op,
            name,
            start_ns: now,
            end_ns: now,
        });
        Some((self.spans.len() - 1, op))
    }

    pub fn exit(&mut self, id: SpanId) {
        if let Some((i, _)) = id {
            let now = self.now_ns();
            self.spans[i].end_ns = now;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in nanoseconds of the spans named `name` recorded since
    /// `since` (a past `spans().len()`).
    pub fn durations_ns(&self, name: &str, since: usize) -> Vec<f64> {
        self.spans[since..]
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .collect()
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Write one JSON line per span (`id`, `parent`, `op`, `name`,
    /// `start_ns`, `end_ns`, `self_ns`) after a header line of `facts`.
    /// Only the first [`WRITTEN_PER_NAME`] spans of each name are written,
    /// which bounds the file for hot per-batch spans; self times are
    /// computed over every recorded span, and the header counts both.
    pub fn write_jsonl(
        &self,
        path: &std::path::Path,
        facts: &[(&str, String)],
    ) -> std::io::Result<()> {
        let selfs = self_times(&self.spans);
        let mut written: HashMap<&str, usize> = HashMap::new();
        let keep: Vec<bool> = self
            .spans
            .iter()
            .map(|s| {
                let n = written.entry(s.name).or_default();
                *n += 1;
                *n <= WRITTEN_PER_NAME
            })
            .collect();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let mut header: Vec<String> = facts
            .iter()
            .map(|(k, v)| format!("{}:{}", crate::json::quote(k), crate::json::quote(v)))
            .collect();
        let kept = keep.iter().filter(|&&k| k).count();
        header.push(format!(
            "\"spans_recorded\":{},\"spans_written\":{kept}",
            self.spans.len()
        ));
        writeln!(out, "{{\"header\":{{{}}}}}", header.join(","))?;
        for (id, ((s, self_ns), _)) in self
            .spans
            .iter()
            .zip(&selfs)
            .zip(&keep)
            .enumerate()
            .filter(|(_, (_, &k))| k)
        {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}",
                s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the union of its direct
/// children's intervals, each clipped to the parent's interval.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                let end = end.min(s.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration_ns() - covered.min(s.duration_ns())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            parent,
            op: 1,
            name: "s",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_time_once() {
        // root [0,100) has children [10,40) and [30,60) (overlapping, so
        // [10,60) is covered once) and [90,120) (clipped to [90,100)).
        // The first child has a grandchild [15,25) that must not count
        // against the root.
        let spans = vec![
            span(None, 0, 100),
            span(Some(0), 10, 40),
            span(Some(1), 15, 25),
            span(Some(0), 30, 60),
            span(Some(0), 90, 120),
        ];
        assert_eq!(self_times(&spans), vec![40, 20, 10, 30, 30]);
    }

    #[test]
    fn recorded_spans_nest_and_sum() {
        let mut t = Tracer::new(true);
        let root = t.enter("root", None);
        let child = t.enter("child", root);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.exit(child);
        t.exit(root);
        let spans = t.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].op, spans[0].op);
        let selfs = self_times(spans);
        assert_eq!(selfs[0] + spans[1].duration_ns(), spans[0].duration_ns());
        assert_eq!(selfs[1], spans[1].duration_ns());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let root = t.enter("root", None);
        t.exit(root);
        assert!(root.is_none());
        assert!(t.spans().is_empty());
    }
}
