//! Spans around the benchmark's calls into each layer, and the statistics
//! the metrics are computed from.
//!
//! Every timed call goes through [`Tracer::begin`] / [`Tracer::end`]. The
//! elapsed time is always returned, so the untraced run times the same
//! calls the same way; only a traced run keeps the span (name, start, end,
//! parent span, request id and the amount of work it covered) in memory.
//! Spans are written out once the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One finished call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span this call ran inside (0: none).
    pub parent: u64,
    /// The operation this call serves: a batch, a read, a pass or a call.
    pub request: u64,
    /// Records, calls or bytes the call processed.
    pub work: u64,
}

/// A span that has begun and not yet ended.
#[derive(Debug)]
pub struct Open {
    /// Id to name as a child's parent (0 when tracing is off).
    pub id: u64,
    index: usize,
    started: Instant,
}

/// Per-thread span recorder.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    id_base: u64,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder for one thread. `lane` keeps span ids unique across the
    /// threads of one run; `origin` is the run's common time zero.
    pub fn new(on: bool, origin: Instant, lane: u64) -> Tracer {
        Tracer {
            on,
            origin,
            id_base: lane << 40,
            spans: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    pub fn origin(&self) -> Instant {
        self.origin
    }

    pub fn begin(&mut self, name: &'static str, parent: u64, request: u64) -> Open {
        if !self.on {
            return Open {
                id: 0,
                index: usize::MAX,
                started: Instant::now(),
            };
        }
        let id = self.id_base + self.spans.len() as u64 + 1;
        let index = self.spans.len();
        let started = Instant::now();
        let start_ns = started.duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            id,
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
            work: 0,
        });
        Open { id, index, started }
    }

    /// Ends `open` after it processed `work` units; returns its duration.
    pub fn end(&mut self, open: Open, work: u64) -> u64 {
        let now = Instant::now();
        let elapsed = now.duration_since(open.started).as_nanos() as u64;
        if let Some(span) = self.spans.get_mut(open.index) {
            span.end_ns = now.duration_since(self.origin).as_nanos() as u64;
            span.work = work;
        }
        elapsed
    }

    /// Times `f` as one span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: u64,
        request: u64,
        work: u64,
        f: impl FnOnce() -> R,
    ) -> (R, u64) {
        let open = self.begin(name, parent, request);
        let out = f();
        (out, self.end(open, work))
    }

    pub fn absorb(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one CSV line.
    pub fn write_csv(&self, out: &mut impl Write) -> std::io::Result<()> {
        writeln!(out, "id,name,start_ns,end_ns,parent,request,work")?;
        for s in &self.spans {
            writeln!(
                out,
                "{},{},{},{},{},{},{}",
                s.id, s.name, s.start_ns, s.end_ns, s.parent, s.request, s.work
            )?;
        }
        Ok(())
    }

    /// Duration and work totals plus every duration, per span name.
    pub fn by_name(&self) -> BTreeMap<&'static str, SpanStats> {
        let mut out: BTreeMap<&'static str, SpanStats> = BTreeMap::new();
        for s in &self.spans {
            let e = out.entry(s.name).or_default();
            e.total_ns += s.end_ns - s.start_ns;
            e.work += s.work;
            e.durations.push(s.end_ns - s.start_ns);
        }
        out
    }
}

/// Aggregate of the spans sharing one name.
#[derive(Debug, Default, Clone)]
pub struct SpanStats {
    pub total_ns: u64,
    pub work: u64,
    pub durations: Vec<u64>,
}

impl SpanStats {
    /// Nanoseconds per unit of work.
    pub fn ns_per_work(&self) -> f64 {
        self.total_ns as f64 / self.work.max(1) as f64
    }

    pub fn p50_ns(&self) -> f64 {
        quantile(&mut self.durations.clone(), 0.5)
    }
}

/// The `q` quantile of `values`, averaged over the order statistics
/// within ±0.05% of its rank: as steady as the plain quantile, and not
/// stuck on the clock's resolution. 0 when empty.
pub fn quantile(values: &mut [u64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_unstable();
    let n = values.len();
    let rank = ((n as f64 * q).ceil() as usize).clamp(1, n) - 1;
    let band = n / 2000;
    let (lo, hi) = (rank.saturating_sub(band), (rank + band).min(n - 1));
    values[lo..=hi].iter().map(|&v| v as f64).sum::<f64>() / (hi - lo + 1) as f64
}

/// Rounds a run is cut into. Each round runs every phase for its share of
/// the round, so each phase's samples spread over the whole run. On a
/// shared 2-vCPU VM the host's speed drifts by ±25% over a few seconds
/// (median collocated call time per 2 s stretch: 1.0–1.8 µs within one
/// run); the more stretches a phase samples, the less its median follows
/// that drift.
pub const ROUNDS: usize = 40;

/// Median of `values`, 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[(v.len() - 1) / 2]
}
