//! Spans recorded by the benchmark around its own calls into the engine
//! (traced runs only). A span has a name, start, end, parent and request
//! id; spans stay in memory and are written out when the run ends. A
//! layer's self time is its span's duration minus the time its child
//! spans cover (children of one span never overlap).

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Parent of a root span.
pub const ROOT: u32 = u32::MAX;

/// Spans written to the span file, beyond which only set-up and recovery
/// spans (request 0) are kept: the file stays a few MB however long the
/// run, while self times are derived from every span.
const FILE_SPANS: usize = 50_000;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span in the same list, or [`ROOT`].
    pub parent: u32,
    pub req: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One thread's span list. When `on` is false nothing is stored, but the
/// timing helpers still return elapsed seconds.
pub struct Spans {
    on: bool,
    base: Instant,
    pub list: Vec<Span>,
}

impl Spans {
    pub fn new(on: bool, base: Instant) -> Spans {
        Spans {
            on,
            base,
            list: Vec::new(),
        }
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.base).as_nanos() as u64
    }

    /// Record a finished span; returns its id ([`ROOT`] when off).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u32,
        req: u64,
        start: Instant,
        end: Instant,
    ) -> u32 {
        if !self.on {
            return ROOT;
        }
        self.list.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            req,
        });
        (self.list.len() - 1) as u32
    }

    /// Open a span whose end [`Spans::close`] sets later.
    pub fn open(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        req: u64,
        start: Instant,
    ) -> u32 {
        self.record(name, parent.unwrap_or(ROOT), req, start, start)
    }

    /// Close span `id` (opened at `start`) now; returns its seconds.
    pub fn close(&mut self, id: u32, start: Instant) -> f64 {
        let now = Instant::now();
        if let Some(s) = self.list.get_mut(id as usize) {
            s.end_ns = now.saturating_duration_since(self.base).as_nanos() as u64;
        }
        now.duration_since(start).as_secs_f64()
    }

    /// Record a child of `parent` that ran from `start` until now;
    /// returns its seconds.
    pub fn close_child(
        &mut self,
        name: &'static str,
        parent: u32,
        req: u64,
        start: Instant,
    ) -> f64 {
        let now = Instant::now();
        self.record(name, parent, req, start, now);
        now.duration_since(start).as_secs_f64()
    }

    /// Append `other`'s spans, re-basing its parent indices.
    pub fn absorb(&mut self, other: Spans) {
        let off = self.list.len() as u32;
        self.list.extend(other.list.into_iter().map(|mut s| {
            if s.parent != ROOT {
                s.parent += off;
            }
            s
        }));
    }
}

/// Per span name: how many, total duration, total self time (ns).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Layer {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Self time of every span, summed per name.
pub fn layers(spans: &[Span]) -> BTreeMap<&'static str, Layer> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != ROOT {
            covered[s.parent as usize] += s.dur_ns();
        }
    }
    let mut out: BTreeMap<&'static str, Layer> = BTreeMap::new();
    for (s, cov) in spans.iter().zip(covered) {
        let l = out.entry(s.name).or_default();
        l.count += 1;
        l.total_ns += s.dur_ns();
        l.self_ns += s.dur_ns().saturating_sub(cov);
    }
    out
}

/// Write the span file: a header line (host stamp, span count), then
/// one JSON object per span.
pub fn write_file(path: &Path, header: &str, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "{{\"host\":{header},\"spans\":{}}}", spans.len())?;
    for (i, s) in spans.iter().enumerate() {
        if i >= FILE_SPANS && s.req != 0 {
            continue;
        }
        let parent = if s.parent == ROOT {
            "null".to_string()
        } else {
            s.parent.to_string()
        };
        writeln!(
            w,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}",
            s.name, s.start_ns, s.end_ns, s.req
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            req: 1,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            span("query", 0, 100, ROOT),
            span("o1", 0, 10, 0),
            span("o3.exec", 10, 70, 0),
        ];
        let l = layers(&spans);
        assert_eq!(l["query"].total_ns, 100);
        assert_eq!(l["query"].self_ns, 30);
        assert_eq!(l["o3.exec"].self_ns, 60);
    }

    #[test]
    fn absorb_rebases_parents() {
        let base = Instant::now();
        let mut a = Spans::new(true, base);
        a.record("x", ROOT, 1, base, base);
        let mut b = Spans::new(true, base);
        let p = b.record("query", ROOT, 2, base, base);
        b.record("o1", p, 2, base, base);
        a.absorb(b);
        assert_eq!(a.list[2].parent, 1);
    }
}
