//! In-memory span recording around calls into each layer's public
//! functions, and the self-time aggregation the per-layer metrics come
//! from.
//!
//! A span has a name, a start, an end, its parent span and the request
//! id shared by every span of one operation. Spans stay in memory and
//! are written out once, when the run ends. A layer's self time is its
//! span minus the part covered by its child spans. With tracing off,
//! [`Tracer::enter`] and [`Tracer::exit`] only test a flag.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Accepted range of [`Profile::coverage`].
pub const COVERAGE_RANGE: (f64, f64) = (0.9, 1.1);

const NONE: u32 = u32::MAX;

/// What a span stands for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// One measured operation (a root). Coverage is taken over these.
    Op,
    /// Work inside the window that belongs to no operation (a root),
    /// e.g. a republish between requests.
    Aux,
    /// A call into one layer (never a root).
    Layer,
}

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer or operation name.
    pub name: &'static str,
    /// Root operation, root side work, or layer call.
    pub kind: Kind,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the parent span, `u32::MAX` for roots.
    pub parent: u32,
    /// Request id shared by a root and its descendants.
    pub req: u64,
}

/// Span recorder for one thread.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    req: u64,
}

impl Tracer {
    /// A recorder; with `on == false` every call is a no-op.
    pub fn new(on: bool) -> Tracer {
        Tracer { on, origin: Instant::now(), spans: Vec::new(), stack: Vec::new(), req: 0 }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a root span (an operation or side work); a new request id.
    pub fn root(&mut self, name: &'static str, kind: Kind) -> u32 {
        if !self.on {
            return NONE;
        }
        assert!(self.stack.is_empty(), "root span {name} opened inside another span");
        self.req += 1;
        self.open(name, kind)
    }

    /// Open a layer span under the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> u32 {
        if !self.on {
            return NONE;
        }
        assert!(!self.stack.is_empty(), "layer span {name} opened outside an operation");
        self.open(name, Kind::Layer)
    }

    fn open(&mut self, name: &'static str, kind: Kind) -> u32 {
        let parent = self.stack.last().copied().unwrap_or(NONE);
        let id = u32::try_from(self.spans.len()).expect("span count fits u32");
        let start_ns = self.now_ns();
        self.spans.push(Span { name, kind, start_ns, end_ns: start_ns, parent, req: self.req });
        self.stack.push(id);
        id
    }

    /// Close span `id` (must be the innermost open span).
    pub fn exit(&mut self, id: u32) {
        if !self.on {
            return;
        }
        let top = self.stack.pop();
        assert_eq!(top, Some(id), "spans closed out of order");
        let end = self.now_ns();
        self.spans[id as usize].end_ns = end;
    }

    /// Switch recording on or off between operations.
    pub fn set_on(&mut self, on: bool) {
        assert!(self.stack.is_empty(), "tracing switched inside a span");
        self.on = on;
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Per-name aggregate of layer spans.
#[derive(Clone, Debug, Default)]
pub struct LayerStat {
    /// Spans recorded.
    pub calls: u64,
    /// Σ span durations, ns.
    pub total_ns: u64,
    /// Σ self times, ns.
    pub self_ns: u64,
    /// Each span's duration, ns (unsorted).
    pub durations_ns: Vec<u64>,
}

impl LayerStat {
    /// Mean span duration in `unit_ns` units (0 with no calls).
    #[allow(clippy::cast_precision_loss)]
    pub fn mean(&self, unit_ns: f64) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.calls as f64 / unit_ns
        }
    }

    /// Median span duration in `unit_ns` units (0 with no calls).
    #[allow(clippy::cast_precision_loss)]
    pub fn median(&self, unit_ns: f64) -> f64 {
        let v: Vec<f64> = self.durations_ns.iter().map(|&d| d as f64 / unit_ns).collect();
        crate::stats::median(&v)
    }
}

/// Aggregates over a span log.
#[derive(Clone, Debug, Default)]
pub struct Profile {
    /// Layer spans (those under an operation root) by name.
    pub layers: BTreeMap<&'static str, LayerStat>,
    /// Root operation spans.
    pub ops: u64,
    /// Σ root operation durations, ns.
    pub op_ns: u64,
    /// Σ layer self times under operation roots, ns.
    pub layer_self_ns: u64,
}

impl Profile {
    /// Aggregate a span log.
    pub fn of(spans: &[Span]) -> Profile {
        let mut child_ns = vec![0u64; spans.len()];
        let mut root = vec![0usize; spans.len()];
        for (i, s) in spans.iter().enumerate() {
            if s.parent == NONE {
                root[i] = i;
            } else {
                let p = s.parent as usize;
                child_ns[p] += s.end_ns - s.start_ns;
                root[i] = root[p];
            }
        }
        let mut prof = Profile::default();
        for (i, s) in spans.iter().enumerate() {
            let dur = s.end_ns - s.start_ns;
            match s.kind {
                Kind::Op => {
                    prof.ops += 1;
                    prof.op_ns += dur;
                }
                Kind::Aux => {}
                Kind::Layer => {
                    if spans[root[i]].kind != Kind::Op {
                        continue;
                    }
                    let self_ns = dur.saturating_sub(child_ns[i]);
                    prof.layer_self_ns += self_ns;
                    let st = prof.layers.entry(s.name).or_default();
                    st.calls += 1;
                    st.total_ns += dur;
                    st.self_ns += self_ns;
                    st.durations_ns.push(dur);
                }
            }
        }
        prof
    }

    /// Σ layer self time / Σ operation time: how much of each operation
    /// the layer spans account for.
    #[allow(clippy::cast_precision_loss)]
    pub fn coverage(&self) -> f64 {
        if self.op_ns == 0 {
            0.0
        } else {
            self.layer_self_ns as f64 / self.op_ns as f64
        }
    }

    /// The named layer's aggregate (empty if it never ran).
    pub fn layer(&self, name: &str) -> LayerStat {
        self.layers.get(name).cloned().unwrap_or_default()
    }
}

/// The trace self-check: coverage outside [`COVERAGE_RANGE`] means the
/// layer spans missed part of the operations (or overlap), so the
/// per-layer numbers cannot be trusted.
///
/// # Errors
/// When `coverage` is outside the range.
pub fn check_coverage(coverage: f64) -> Result<(), String> {
    let (lo, hi) = COVERAGE_RANGE;
    if (lo..=hi).contains(&coverage) {
        Ok(())
    } else {
        Err(format!("trace coverage {coverage:.3} outside {lo}–{hi}"))
    }
}

/// Write up to `cap` spans as tab-separated lines
/// (`req name kind start_ns end_ns parent`).
///
/// # Errors
/// On I/O failure.
pub fn write_tsv(path: &Path, spans: &[Span], cap: usize) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "# {} spans recorded, first {} written", spans.len(), spans.len().min(cap))?;
    writeln!(w, "req\tname\tkind\tstart_ns\tend_ns\tparent")?;
    for s in spans.iter().take(cap) {
        let parent = if s.parent == NONE { -1 } else { i64::from(s.parent) };
        writeln!(w, "{}\t{}\t{:?}\t{}\t{}\t{parent}", s.req, s.name, s.kind, s.start_ns, s.end_ns)?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coverage_outside_range_is_a_failed_trace() {
        assert!(check_coverage(0.95).is_ok());
        assert!(check_coverage(1.05).is_ok());
        assert!(check_coverage(0.89).is_err());
        assert!(check_coverage(1.11).is_err());
        assert!(check_coverage(0.0).is_err());
    }

    fn span(name: &'static str, kind: Kind, start: u64, end: u64, parent: u32) -> Span {
        Span { name, kind, start_ns: start, end_ns: end, parent, req: 1 }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("op", Kind::Op, 0, 100, NONE),
            span("outer", Kind::Layer, 10, 90, 0),
            span("inner", Kind::Layer, 20, 50, 1),
            span("publish", Kind::Aux, 100, 400, NONE),
        ];
        let p = Profile::of(&spans);
        assert_eq!(p.ops, 1);
        assert_eq!(p.op_ns, 100);
        assert_eq!(p.layer("outer").self_ns, 50);
        assert_eq!(p.layer("inner").self_ns, 30);
        assert_eq!(p.layer_self_ns, 80);
        assert!((p.coverage() - 0.8).abs() < 1e-9);
        assert!(check_coverage(p.coverage()).is_err());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let r = t.root("op", Kind::Op);
        let s = t.enter("layer");
        t.exit(s);
        t.exit(r);
        assert!(t.spans().is_empty());
    }
}
