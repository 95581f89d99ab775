//! Spans the benchmark records around its own calls into the program's
//! layers. Spans stay in memory and are written out when the run ends.
//!
//! A span's self time is its duration minus the part of its interval
//! that its child spans cover.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::clock;

static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);

/// One timed call.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub op: u64,
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// A per-thread span buffer; disabled tracers record nothing.
#[derive(Debug, Default)]
pub struct Tracer {
    enabled: bool,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            spans: Vec::new(),
        }
    }

    pub fn new_id() -> u64 {
        NEXT_SPAN.fetch_add(1, Ordering::Relaxed)
    }

    /// Runs `f` inside a span named `name` when enabled.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: u64,
        op: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.enabled {
            return f();
        }
        let start = clock::now_ns();
        let out = f();
        let end = clock::now_ns();
        self.spans.push(Span {
            id: Tracer::new_id(),
            parent,
            op,
            name,
            start,
            end,
        });
        out
    }

    pub fn record(&mut self, span: Span) {
        if self.enabled {
            self.spans.push(span);
        }
    }

    pub fn absorb(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
    }

    /// Median duration in ns of the spans named `name`.
    pub fn median_ns(&self, name: &str) -> Option<f64> {
        let mut d: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur() as f64)
            .collect();
        crate::stats::median(&mut d)
    }

    /// Median self time in ns of the spans named `name`.
    pub fn median_self_ns(&self, name: &str) -> Option<f64> {
        let mut children: std::collections::HashMap<u64, Vec<(u64, u64)>> = Default::default();
        for s in &self.spans {
            if s.parent != 0 {
                children.entry(s.parent).or_default().push((s.start, s.end));
            }
        }
        let mut selfs: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| {
                let covered = children.get(&s.id).map_or(0, |c| covered_ns(s, c));
                s.dur().saturating_sub(covered) as f64
            })
            .collect();
        crate::stats::median(&mut selfs)
    }

    /// Writes every span as one tab-separated line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\top\tname\tstart_ns\tend_ns")?;
        for s in &self.spans {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.id, s.parent, s.op, s.name, s.start, s.end
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `children` clipped to `span`'s interval.
fn covered_ns(span: &Span, children: &[(u64, u64)]) -> u64 {
    let mut iv: Vec<(u64, u64)> = children
        .iter()
        .map(|&(a, b)| (a.max(span.start), b.min(span.end)))
        .filter(|(a, b)| a < b)
        .collect();
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in iv {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((a, b)) = cur {
        total += b - a;
    }
    total
}
