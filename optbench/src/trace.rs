//! In-memory spans recorded by the benchmark around its calls into each
//! layer. The program itself is not instrumented: a span covers exactly
//! one call the benchmark makes into a public function.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// One timed call. `name` is the per-layer metric stem, `tag` the
/// strategy it ran under (empty for strategy-independent layers), `id`
/// the function or request the call worked on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub tag: &'static str,
    pub id: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Collects spans from any number of threads. A disabled tracer records
/// nothing and costs one branch per span.
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            origin: Instant::now(),
            enabled,
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`. `f` receives the new span's
    /// handle, to pass as the parent of spans it opens.
    pub fn span<T>(
        &self,
        name: &'static str,
        tag: &'static str,
        id: u64,
        parent: Option<usize>,
        f: impl FnOnce(Option<usize>) -> T,
    ) -> T {
        if !self.enabled {
            return f(None);
        }
        let start_ns = self.now_ns();
        let index = {
            let mut spans = self.spans.lock().expect("span list poisoned");
            spans.push(Span {
                name,
                tag,
                id,
                parent,
                start_ns,
                end_ns: start_ns,
            });
            spans.len() - 1
        };
        let out = f(Some(index));
        let end_ns = self.now_ns();
        self.spans.lock().expect("span list poisoned")[index].end_ns = end_ns;
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list poisoned").clone()
    }
}

/// Each span's self time: its duration minus the part of its interval
/// that its child spans cover. Children may overlap one another (spans
/// from concurrent threads), so their union is subtracted, not their sum.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Summed self time (ns) and call count per `(name, tag)`.
pub fn totals(spans: &[Span]) -> BTreeMap<(&'static str, &'static str), (u64, u64)> {
    let mut out: BTreeMap<_, (u64, u64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let e = out.entry((s.name, s.tag)).or_default();
        e.0 += own;
        e.1 += 1;
    }
    out
}

/// Write every span as one JSON line.
pub fn write_jsonl(spans: &[Span], path: &Path) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"name\":\"{}\",\"tag\":\"{}\",\"id\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.name, s.tag, s.id, parent, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            tag: "",
            id: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = vec![
            span("request", None, 0, 100),
            span("parse", Some(0), 10, 40),
            span("canonical", Some(0), 30, 60), // overlaps parse by 10
            span("json", Some(0), 90, 120),     // runs past its parent
        ];
        // Children cover [10, 60) and [90, 100): 60 of the parent's 100.
        assert_eq!(self_times(&spans), vec![40, 30, 30, 30]);
    }

    #[test]
    fn self_time_ignores_grandchildren() {
        let spans = vec![
            span("alloc", None, 0, 50),
            span("build", Some(0), 0, 30),
            span("renumber", Some(1), 5, 25),
        ];
        assert_eq!(self_times(&spans), vec![20, 10, 20]);
        let t = totals(&spans);
        assert_eq!(t[&("build", "")], (10, 1));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x", "", 1, None, |p| p), None);
        assert!(t.spans().is_empty());
        let t = Tracer::new(true);
        let inner = t.span("outer", "", 1, None, |p| t.span("inner", "", 1, p, |q| q));
        let spans = t.spans();
        assert_eq!(inner, Some(1));
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }
}
