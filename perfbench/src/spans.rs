//! In-memory spans recorded by the benchmark around its calls into each
//! layer. Kept in a vector during the traced pass and written out as JSON
//! Lines when the benchmark ends.

use std::fmt::Write as _;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    /// The document (request) this span belongs to.
    pub doc: u32,
    /// Index of the enclosing span, `None` for a document's root span.
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn with_capacity(n: usize) -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::with_capacity(n),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str, doc: u32, parent: Option<u32>) -> u32 {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            doc,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        (self.spans.len() - 1) as u32
    }

    pub fn close(&mut self, id: u32) {
        let now = self.now();
        self.spans[id as usize].end_ns = now;
    }

    /// Runs `f` inside a span named `name`.
    pub fn scope<T>(
        &mut self,
        name: &'static str,
        doc: u32,
        parent: u32,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, doc, Some(parent));
        let out = f();
        self.close(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name, in ns: each span's duration minus the part
    /// its direct children cover.
    pub fn self_times(&self) -> Vec<(&'static str, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut totals: Vec<(&'static str, u64)> = Vec::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(child);
            match totals.iter_mut().find(|(name, _)| *name == s.name) {
                Some((_, t)) => *t += own,
                None => totals.push((s.name, own)),
            }
        }
        totals
    }

    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"doc\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.doc, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}
