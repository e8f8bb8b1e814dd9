//! In-memory spans recorded by the benchmark around its calls into the
//! workspace crates. Spans live in a `Vec` until the run ends and are
//! written out as JSON afterwards; nothing here touches the program
//! under test.

use crate::stats::Samples;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed interval. `parent` indexes the span that caused it; spans
/// of one event share its `epoch`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub epoch: u64,
}

impl Span {
    pub fn duration_ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// A single-threaded span recorder. Threads that record concurrently
/// each own one (sharing `origin`) and are merged with [`Tracer::absorb`].
pub struct Tracer {
    origin: Instant,
    on: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            on: false,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// An empty recorder on the same clock, for another thread; merge it
    /// back with [`Tracer::absorb`].
    pub fn sibling(&self) -> Tracer {
        Tracer::new(self.origin)
    }

    /// Switch recording on or off; a traced pass flips this per
    /// operation so traced and untraced operations interleave in one
    /// window and their difference is the tracing overhead.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Open a span under the innermost open one. `None` while off.
    pub fn enter(&mut self, name: &'static str, epoch: u64) -> Option<usize> {
        if !self.on {
            return None;
        }
        let id = self.spans.len();
        let now = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            epoch,
        });
        self.open.push(id);
        Some(id)
    }

    /// Open a span that began at `start` (an event's due time, before
    /// this thread got to it). `None` while off.
    pub fn enter_at(&mut self, name: &'static str, epoch: u64, start: Instant) -> Option<usize> {
        let id = self.enter(name, epoch)?;
        self.spans[id].start_ns = self.ns(start);
        Some(id)
    }

    /// Move the end of an already closed span to `end` (its last part
    /// was observed on another thread).
    pub fn set_end(&mut self, id: Option<usize>, end: Instant) {
        if let Some(id) = id {
            self.spans[id].end_ns = self.ns(end).max(self.spans[id].start_ns);
        }
    }

    /// Close the span `enter` returned (a `None` is a no-op).
    pub fn exit(&mut self, id: Option<usize>) {
        let Some(id) = id else { return };
        let now = self.ns(Instant::now());
        self.spans[id].end_ns = now;
        while let Some(top) = self.open.pop() {
            if top == id {
                break;
            }
        }
    }

    /// Record an interval observed from outside (socket instants
    /// stamped by another thread), filed under `parent`.
    pub fn record(
        &mut self,
        name: &'static str,
        epoch: u64,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        let start_ns = self.ns(start);
        let end_ns = self.ns(end).max(start_ns);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            epoch,
        });
        Some(self.spans.len() - 1)
    }

    /// Merge another recorder's spans, re-basing their parent indices.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every span called `name`, in milliseconds.
    pub fn durations_ms(&self, name: &str) -> Samples {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ms)
            .collect()
    }

    /// Self time per span: its duration minus the part of its interval
    /// that its child spans cover (children clipped to the parent and
    /// overlapping children counted once).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                let p = &self.spans[parent];
                let lo = span.start_ns.max(p.start_ns);
                let hi = span.end_ns.min(p.end_ns);
                if hi > lo {
                    children[parent].push((lo, hi));
                }
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(span, kids)| {
                kids.sort_unstable();
                let mut covered = 0;
                let mut reach = span.start_ns;
                for &(lo, hi) in kids.iter() {
                    let lo = lo.max(reach);
                    if hi > lo {
                        covered += hi - lo;
                        reach = hi;
                    }
                }
                (span.end_ns - span.start_ns) - covered
            })
            .collect()
    }

    /// Self time summed by span name, in milliseconds, largest first.
    pub fn self_ms_by_name(&self) -> Vec<(&'static str, f64, usize)> {
        let mut by_name: Vec<(&'static str, f64, usize)> = Vec::new();
        for (span, own) in self.spans.iter().zip(self.self_ns()) {
            match by_name.iter_mut().find(|(n, _, _)| *n == span.name) {
                Some(row) => {
                    row.1 += own as f64 / 1e6;
                    row.2 += 1;
                }
                None => by_name.push((span.name, own as f64 / 1e6, 1)),
            }
        }
        by_name.sort_by(|a, b| b.1.total_cmp(&a.1));
        by_name
    }

    /// Write every span as one JSON array.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let comma = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                w,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"epoch\":{}}}{}",
                s.name, s.start_ns, s.end_ns, parent, s.epoch, comma
            )?;
        }
        writeln!(w, "]")?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn at(origin: Instant, ns: u64) -> Instant {
        origin + Duration::from_nanos(ns)
    }

    #[test]
    fn self_time_subtracts_clipped_and_merged_children() {
        let origin = Instant::now();
        let mut t = Tracer::new(origin);
        t.set_on(true);
        let parent = t.record("parent", 1, at(origin, 100), at(origin, 1_100), None);
        // Two overlapping children cover [200, 600) once, not twice.
        t.record("a", 1, at(origin, 200), at(origin, 500), parent);
        t.record("b", 1, at(origin, 400), at(origin, 600), parent);
        // A child that outlives the parent is clipped at 1_100.
        t.record("late", 1, at(origin, 1_000), at(origin, 2_000), parent);
        // A grandchild shortens its own parent, not the grandparent.
        let a = Some(1);
        t.record("inner", 1, at(origin, 250), at(origin, 300), a);
        let own = t.self_ns();
        assert_eq!(own[0], 1_000 - 400 - 100);
        assert_eq!(own[1], 300 - 50);
        assert_eq!(own[2], 200);
        assert_eq!(own[3], 1_000);
        assert_eq!(own[4], 50);
    }

    #[test]
    fn enter_exit_nest_and_stay_silent_when_off() {
        let mut t = Tracer::new(Instant::now());
        assert_eq!(t.enter("off", 0), None);
        t.exit(None);
        assert!(t.spans().is_empty());
        t.set_on(true);
        let outer = t.enter("outer", 7);
        let inner = t.enter("inner", 7);
        t.exit(inner);
        t.exit(outer);
        let after = t.enter("after", 8);
        t.exit(after);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[2].parent, None);
        assert_eq!(t.spans()[1].epoch, 7);
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
    }

    #[test]
    fn absorb_rebases_parents() {
        let origin = Instant::now();
        let mut a = Tracer::new(origin);
        a.set_on(true);
        a.record("x", 1, origin, origin, None);
        let mut b = Tracer::new(origin);
        b.set_on(true);
        let p = b.record("p", 2, origin, origin, None);
        b.record("c", 2, origin, origin, p);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
    }
}
