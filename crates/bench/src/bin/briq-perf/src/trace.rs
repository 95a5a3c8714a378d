//! In-memory span recording for traced runs, and self time from the span
//! tree.
//!
//! The benchmark opens spans around its own calls into each layer
//! (page parse, segmentation, the batch engine, output encoding) and
//! grafts the per-document span trees the batch
//! engine records when `BatchConfig.trace` is on underneath them. Spans
//! stay in memory; `--spans FILE` writes them as JSON Lines at exit.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

use briq_core::DocTrace;

/// One closed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request id: the document index for pipeline spans, the pass
    /// number for pass-level spans.
    pub req: u64,
}

/// Span recorder with one clock for the whole run. A disabled recorder
/// records nothing, so untraced passes run the same code.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    enabled: bool,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            enabled: true,
        }
    }

    pub fn disabled() -> Tracer {
        Tracer {
            enabled: false,
            ..Tracer::new()
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds since the tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span at the current time; [`Tracer::close`] ends it.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, req: u64) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            req,
        });
        Some(self.spans.len() - 1)
    }

    pub fn close(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Graft one document's span tree, recorded by the batch engine
    /// relative to the batch start, under `parent`. `origin_ns` is the
    /// batch start on this tracer's clock.
    pub fn graft(&mut self, parent: Option<usize>, req: u64, origin_ns: u64, doc: &DocTrace) {
        let Some(parent) = parent.filter(|_| self.enabled) else {
            return;
        };
        let base = self.spans.len();
        for s in &doc.spans {
            let start_ns = origin_ns + s.start_us * 1_000;
            self.spans.push(Span {
                name: s.name,
                start_ns,
                end_ns: start_ns + s.dur_us * 1_000,
                parent: Some(s.parent.map_or(parent, |p| base + p)),
                req,
            });
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}",
                s.name, s.start_ns, s.end_ns, s.req
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that the union of its children's intervals covers. Children may
/// overlap one another (documents aligned on parallel workers), so the
/// covered part is a union, clipped to the parent's interval.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(s, kids)| {
            let mut iv: Vec<(u64, u64)> = kids
                .iter()
                .map(|&k| {
                    let c = &spans[k];
                    (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns))
                })
                .filter(|(a, b)| a < b)
                .collect();
            iv.sort_unstable();
            let mut covered = 0u64;
            let mut cur: Option<(u64, u64)> = None;
            for (a, b) in iv {
                cur = match cur {
                    Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            (s.end_ns.saturating_sub(s.start_ns)).saturating_sub(covered)
        })
        .collect()
}

/// Total self time (ns) and span count per span name.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        let e = out.entry(s.name).or_default();
        e.0 += t;
        e.1 += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            req: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("pass", 0, 100, None),
            // Two overlapping children cover 10..50 once, not twice.
            span("doc", 10, 40, Some(0)),
            span("doc", 30, 50, Some(0)),
            // Disjoint child.
            span("encode", 80, 90, Some(0)),
            // Grandchild: counts against "doc", not "pass".
            span("classify", 12, 20, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![50, 22, 20, 10, 8]);
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name["doc"], (42, 2));
        assert_eq!(by_name["pass"], (50, 1));
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = vec![span("a", 10, 20, None), span("b", 0, 15, Some(0))];
        assert_eq!(self_times(&spans), vec![5, 15]);
        let spans = vec![span("a", 10, 20, None), span("b", 25, 30, Some(0))];
        assert_eq!(self_times(&spans)[0], 10);
    }

    #[test]
    fn grafted_document_trees_keep_their_shape() {
        let rec = briq_core::Recorder::enabled();
        {
            let _a = rec.span("align");
            let _c = rec.span("classify");
        }
        let doc = rec.finish().expect("enabled recorder yields a trace");
        let mut t = Tracer::new();
        let root = t.open("batch", None, 0);
        t.graft(root, 7, 1_000, &doc);
        t.close(root);
        let s = t.spans();
        assert_eq!(s.len(), 3);
        let mut off = Tracer::disabled();
        let root = off.open("batch", None, 0);
        off.graft(root, 7, 1_000, &doc);
        off.close(root);
        assert!(root.is_none() && off.spans().is_empty());
        assert_eq!((s[1].name, s[1].parent, s[1].req), ("align", Some(0), 7));
        assert_eq!((s[2].name, s[2].parent), ("classify", Some(1)));
        assert!(s[2].start_ns >= s[1].start_ns && s[2].end_ns <= s[1].end_ns);
    }
}
