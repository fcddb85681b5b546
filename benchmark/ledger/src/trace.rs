//! Spans the harness records around each call it makes into a layer. Kept
//! in memory, written out when the run ends. Spans inside the program are
//! a later change (ROADMAP item E); these are taken from outside.

use std::io::Write;
use std::time::Instant;

pub const NO_PARENT: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Index of the span that caused this one, or [`NO_PARENT`].
    pub parent: u32,
    /// Identifier shared by all spans of one op.
    pub op: u32,
    /// Backend arm the op ran on (index into `ARMS`).
    pub arm: u8,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    /// Off: `begin` and `end` return at once and record nothing. The
    /// traced run flips this per round, so traced and untraced ops
    /// interleave and their difference is the tracing overhead.
    pub on: bool,
    t0: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(t0: Instant, capacity: usize) -> Tracer {
        Tracer {
            on: false,
            t0,
            spans: Vec::with_capacity(capacity),
        }
    }

    /// The instant span times count from; per-thread tracers share it.
    pub fn t0(&self) -> Instant {
        self.t0
    }

    #[inline]
    pub fn begin(&mut self, name: &'static str, parent: u32, op: u32, arm: usize) -> u32 {
        if !self.on {
            return NO_PARENT;
        }
        let start_ns = self.t0.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            parent,
            op,
            arm: arm as u8,
            start_ns,
            end_ns: start_ns,
        });
        (self.spans.len() - 1) as u32
    }

    #[inline]
    pub fn end(&mut self, id: u32) {
        if id != NO_PARENT {
            self.spans[id as usize].end_ns = self.t0.elapsed().as_nanos() as u64;
        }
    }

    /// Appends another thread's spans, re-basing their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != NO_PARENT {
                s.parent += base;
            }
            s
        }));
    }

    /// Self time, in ms, of every span called `name`: its duration minus
    /// the part its child spans cover (children of one span never overlap
    /// here: the harness makes its calls one after another).
    pub fn self_ms(&self, name: &str) -> Vec<f64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                covered[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(&covered)
            .filter(|(s, _)| s.name == name)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(*c) as f64 / 1e6)
            .collect()
    }

    /// One span per line, so the file can be read with line tools.
    pub fn write_json(&self, mut w: impl Write, arms: &[&str]) -> std::io::Result<()> {
        writeln!(w, "{{\"unit\": \"ns\", \"spans\": [")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            let comma = if i + 1 < self.spans.len() { "," } else { "" };
            writeln!(
                w,
                "{{\"id\": {i}, \"parent\": {parent}, \"op\": {}, \"arm\": \"{}\", \"name\": \"{}\", \"start\": {}, \"end\": {}}}{comma}",
                s.op, arms[s.arm as usize], s.name, s.start_ns, s.end_ns
            )?;
        }
        writeln!(w, "]}}")?;
        w.flush()
    }
}
