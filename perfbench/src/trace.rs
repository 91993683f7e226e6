//! In-memory spans taken around calls into the program's public
//! functions, their self times, and the per-layer table built from them.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use sp_engine::{ElementBatch, Emitter, EngineError, Operator, OperatorStats};

/// Nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// One timed call. `id` is unique within a [`Tracer`]; `parent` is the
/// id of the span whose interval caused this one (0 for a root); spans
/// of one input element or frame share `trace`.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub trace: u64,
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    /// Elements handed to the call.
    pub items: u32,
    /// Data tuples among them.
    pub tuples: u32,
}

impl Span {
    /// A root span over `start..end`; its id is set when recorded.
    pub fn new(name: &'static str, trace: u64, start: u64, end: u64) -> Span {
        Span { id: 0, parent: 0, trace, name, start, end, items: 0, tuples: 0 }
    }

    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

thread_local! {
    /// The (span id, trace id) operator spans on this thread nest under.
    static CURRENT: Cell<(u32, u64)> = const { Cell::new((0, 0)) };
}

/// Hands out span ids and collects spans from every thread.
#[derive(Clone, Default)]
pub struct Tracer {
    next: Arc<AtomicU32>,
    collected: Arc<Mutex<Vec<Span>>>,
}

impl Tracer {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn next_id(&self) -> u32 {
        // Relaxed: the id publishes no other data.
        self.next.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Times `f` as a span named `name`; operator spans it causes on this
    /// thread become its children.
    pub fn root<R>(
        &self,
        local: &mut Vec<Span>,
        name: &'static str,
        trace: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.next_id();
        CURRENT.with(|c| c.set((id, trace)));
        let start = now_ns();
        let r = f();
        let end = now_ns();
        CURRENT.with(|c| c.set((0, 0)));
        local.push(Span { id, ..Span::new(name, trace, start, end) });
        r
    }

    /// Records a span measured by the caller under a fresh id.
    pub fn record(&self, local: &mut Vec<Span>, span: Span) -> u32 {
        let id = self.next_id();
        local.push(Span { id, ..span });
        id
    }

    pub fn collect(&self, spans: &mut Vec<Span>) {
        self.collected.lock().expect("no span writer panicked").append(spans);
    }

    /// Every span collected so far, sorted by start.
    pub fn take(&self) -> Vec<Span> {
        let mut v = std::mem::take(&mut *self.collected.lock().expect("no span writer panicked"));
        v.sort_by_key(|s| (s.start, s.id));
        v
    }
}

/// An operator wrapper that records one span per `process_batch` call
/// and otherwise forwards every trait method to the wrapped operator.
/// Spans stay in the wrapper until it is dropped with its executor, so
/// recording a span takes no lock.
pub struct Traced<O: Operator> {
    inner: O,
    name: &'static str,
    tracer: Tracer,
    local: Vec<Span>,
}

impl<O: Operator> Traced<O> {
    pub fn new(inner: O, tracer: &Tracer) -> Self {
        let name = match inner.name() {
            "select" => "ops.select",
            "ss" => "ops.shield",
            "project" => "ops.project",
            _ => "ops.other",
        };
        Self { inner, name, tracer: tracer.clone(), local: Vec::with_capacity(1 << 14) }
    }
}

impl<O: Operator> Drop for Traced<O> {
    fn drop(&mut self) {
        if let Ok(mut v) = self.tracer.collected.lock() {
            v.append(&mut self.local);
        }
    }
}

impl<O: Operator> Operator for Traced<O> {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn arity(&self) -> usize {
        self.inner.arity()
    }
    fn process(
        &mut self,
        port: usize,
        elem: sp_engine::Element,
        out: &mut Emitter,
    ) -> Result<(), EngineError> {
        self.process_batch(port, ElementBatch::single(elem), out)
    }
    fn process_batch(
        &mut self,
        port: usize,
        batch: ElementBatch,
        out: &mut Emitter,
    ) -> Result<(), EngineError> {
        let (parent, trace) = CURRENT.with(Cell::get);
        let items = u32::try_from(batch.len()).unwrap_or(u32::MAX);
        let tuples = if batch.is_tuples() { items } else { 0 };
        let id = self.tracer.next_id();
        let start = now_ns();
        let r = self.inner.process_batch(port, batch, out);
        let end = now_ns();
        self.local.push(Span { id, parent, trace, name: self.name, start, end, items, tuples });
        r
    }
    fn stats(&self) -> &OperatorStats {
        self.inner.stats()
    }
    fn degradation(&self) -> Option<sp_engine::DegradationStats> {
        self.inner.degradation()
    }
    fn shard_safe(&self) -> bool {
        self.inner.shard_safe()
    }
    fn delays_sps(&self) -> bool {
        self.inner.delays_sps()
    }
    fn policy_transparent(&self) -> bool {
        self.inner.policy_transparent()
    }
    fn merge_shard_state(&self, parts: &[&[u8]]) -> Result<Vec<u8>, EngineError> {
        self.inner.merge_shard_state(parts)
    }
    fn state_mem_bytes(&self) -> usize {
        self.inner.state_mem_bytes()
    }
    fn update_predicate(&mut self, roles: &sp_core::RoleSet) -> bool {
        self.inner.update_predicate(roles)
    }
    fn set_audit(&mut self, capacity: usize) -> bool {
        self.inner.set_audit(capacity)
    }
    fn audit(&self) -> Option<&sp_engine::FlightRecorder> {
        self.inner.audit()
    }
    fn set_spans(&mut self, capacity: usize) -> bool {
        self.inner.set_spans(capacity)
    }
    fn spans(&self) -> Option<&sp_engine::SpanRecorder> {
        self.inner.spans()
    }
    fn lag(&self) -> Option<&sp_engine::LagTracker> {
        self.inner.lag()
    }
    fn snapshot(&self, buf: &mut Vec<u8>) {
        self.inner.snapshot(buf);
    }
    fn restore(&mut self, bytes: &[u8]) -> Result<(), EngineError> {
        self.inner.restore(bytes)
    }
}

/// Per span name: calls, total duration, self time (duration minus the
/// part covered by child spans), and tuples handed in.
#[derive(Debug, Clone, Copy, Default)]
pub struct Agg {
    pub calls: u64,
    pub dur: u64,
    pub self_ns: u64,
    pub tuples: u64,
}

pub fn aggregate(spans: &[Span]) -> BTreeMap<&'static str, Agg> {
    let mut child: std::collections::HashMap<u32, u64> = std::collections::HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child.entry(s.parent).or_default() += s.dur();
    }
    let mut out: BTreeMap<&'static str, Agg> = BTreeMap::new();
    for s in spans {
        let a = out.entry(s.name).or_default();
        a.calls += 1;
        a.dur += s.dur();
        a.self_ns += s.dur().saturating_sub(child.get(&s.id).copied().unwrap_or(0));
        a.tuples += u64::from(s.tuples);
    }
    out
}

/// Total duration of the root spans taken on the measuring thread(s).
pub fn root_ns(spans: &[Span], roots: &[&str]) -> u64 {
    spans.iter().filter(|s| s.parent == 0 && roots.contains(&s.name)).map(Span::dur).sum()
}

/// One row of the per-layer table.
#[derive(Debug, Clone)]
pub struct Row {
    pub layer: &'static str,
    pub self_ns: f64,
    /// False for work measured outside the traced wall time, such as a
    /// replay with operator spans: reported, but not part of the sum.
    pub in_sum: bool,
}

/// The per-layer table of one traced pass: every layer's self time on
/// the measuring thread(s), plus wall time no layer accounts for.
#[derive(Debug, Clone)]
pub struct LayerTable {
    pub wall_ns: f64,
    pub roots_ns: f64,
    pub rows: Vec<Row>,
}

impl LayerTable {
    pub fn unaccounted_ns(&self) -> f64 {
        self.wall_ns - self.roots_ns
    }

    /// The layer-sum check: the layers' self times plus the unaccounted
    /// time must reproduce the traced wall time within 1%.
    pub fn check(&self) -> Result<(), String> {
        let err = self.sum_error();
        if err <= 0.01 {
            Ok(())
        } else {
            Err(format!(
                "layer self times + unaccounted and the traced wall of {:.0} ns are {:.1}% apart",
                self.wall_ns,
                err * 100.0
            ))
        }
    }

    /// |Σ in-sum self times + unaccounted − wall| as a share of wall.
    pub fn sum_error(&self) -> f64 {
        let sum: f64 = self.rows.iter().filter(|r| r.in_sum).map(|r| r.self_ns).sum::<f64>()
            + self.unaccounted_ns();
        (sum - self.wall_ns).abs() / self.wall_ns.max(1.0)
    }

    pub fn render(&self) -> String {
        let mut s = format!("{:<22} {:>12} {:>8}\n", "layer", "self ms", "share");
        let rows = self.rows.iter().map(|r| (r.layer, r.self_ns, r.in_sum));
        for (layer, ns, in_sum) in rows.chain([("unaccounted", self.unaccounted_ns(), true)]) {
            s.push_str(&format!(
                "{:<22} {:>12.3} {:>7.1}%{}\n",
                layer,
                ns / 1e6,
                100.0 * ns / self.wall_ns.max(1.0),
                if in_sum { "" } else { "  (off the wall-time sum)" }
            ));
        }
        s.push_str(&format!("{:<22} {:>12.3}\n", "traced wall", self.wall_ns / 1e6));
        s
    }
}

/// Writes up to `cap` spans as tab-separated lines.
pub fn write_spans(path: &std::path::Path, spans: &[Span], cap: usize) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "trace\tspan\tparent\tname\tstart_ns\tend_ns\titems")?;
    for s in spans.iter().take(cap) {
        writeln!(
            w,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}",
            s.trace, s.id, s.parent, s.name, s.start, s.end, s.items
        )?;
    }
    w.flush()
}
