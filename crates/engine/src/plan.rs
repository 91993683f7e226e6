//! Physical query plans and the pipelined executor.
//!
//! A plan is a DAG of operators fed by registered streams through
//! per-stream [`SpAnalyzer`]s (Fig. 1). Plans are built with
//! [`PlanBuilder`]; shared subplans (an operator output feeding several
//! consumers — the multi-query sharing of Fig. 5) are expressed by adding
//! several edges from one node. Execution is push-based and deterministic:
//! [`Executor::push`] runs an arriving raw element through the analyzer and
//! then drains a FIFO work queue of `(target, batch)` items.
//!
//! **Batch execution.** The queue moves [`ElementBatch`]es — contiguous
//! kind-homogeneous runs of elements — rather than single elements. Runs
//! are formed by coalescing: a routed element joins the queue's tail batch
//! when the tail targets the same destination and holds the same element
//! kind, and otherwise starts a new batch. Coalescing only ever merges
//! *adjacent* queue entries, which preserves the tuple-at-a-time engine's
//! per-operator input order exactly (adjacent same-target entries were
//! processed back-to-back anyway, and their outputs are appended to the
//! queue tail in the same order either way) — so released tuples, final
//! policy tables, snapshots, and audit trails are byte-identical to
//! per-element execution. Fan-out to several consumers routes
//! element-major (each element to every target before the next element),
//! which makes coalescing degrade to singleton batches across a split and
//! keeps cross-branch interleaving at downstream binary merges unchanged.
//! [`Executor::push_all`] additionally *defers* drains across inputs on
//! binary-free plans (where per-operator input order alone fixes every
//! observable), letting whole segments accumulate into one run between
//! punctuation cuts; [`MAX_DEFERRED_INPUTS`] bounds queue growth.

use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

use sp_core::{RoleCatalog, Schema, StreamElement, StreamId};

use crate::analyzer::SpAnalyzer;
use crate::batch::ElementBatch;
use crate::checkpoint::sections;
use crate::element::Element;
use crate::error::EngineError;
use crate::operator::{Emitter, Operator};
use crate::ops::sink::Sink;
use crate::stats::OperatorStats;
use crate::telemetry::{
    add_plan_metrics, operator_labels, plan_sheet, AuditTrail, Histogram, MetricsRegistry,
    SpanSheet, TelemetryConfig,
};

/// Reference to a plan node (an operator added to a builder).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeRef(usize);

/// Reference to a registered source stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SourceRef(usize);

/// Reference to a sink (one registered query's result collector).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SinkRef(usize);

impl SinkRef {
    /// The sink's index within the plan (stable across executors built
    /// from the same builder shape).
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

/// Upper bound on raw inputs staged between drains by
/// [`Executor::push_all`] in deferred-batching mode, bounding work-queue
/// growth. One segment of the paper's workloads (an sp-batch plus its
/// governed tuples) comfortably fits, so segment runs still coalesce
/// whole.
pub const MAX_DEFERRED_INPUTS: usize = 256;

/// Mean number of elements between two timed calls of one operator.
const TIMING_STRIDE: u64 = 64;

/// Decides which of a node's `process_batch` calls the executor times,
/// and estimates the cost of the calls it does not time.
///
/// A call is timed once the elements since the node's last timed call,
/// plus the call's own `len`, reach `gap`. Each timed call draws the
/// next gap uniformly from `[1, 2 * TIMING_STRIDE - 1]`, so one clock
/// pair covers about `TIMING_STRIDE` elements, the first call is always
/// timed, and any call of `2 * TIMING_STRIDE - 1` or more elements is
/// too. The jitter matters: with a fixed stride of 64, every
/// power-of-two-periodic spike (a `Vec` doubling, a frame of 64, a ring
/// wrap) lands on a timed call and is charged to the whole stride.
///
/// An untimed call is charged the median per-element cost of the last
/// three timed calls, so counts stay exact, sums become estimates, and
/// one spiky timed call (allocator growth, preemption) is charged to
/// itself only, never carried to the calls after it.
struct CallSampler {
    /// Elements processed since the last timed call.
    untimed: u64,
    /// Elements at which the next call is timed; 0 before the first.
    gap: u64,
    /// Xorshift64 state; never zero.
    rng: u64,
    /// Per-element costs of the last three timed calls, oldest first,
    /// in nanoseconds.
    recent_ns: [u64; 3],
    /// The median of `recent_ns`: what an untimed call is charged per
    /// element.
    carried_ns: u64,
    /// Per-element cost charged to the last call, in nanoseconds.
    per_elem_ns: u64,
}

impl CallSampler {
    /// A sampler seeded by the node's index in the plan.
    fn new(node: usize) -> Self {
        // Multiplying by an odd constant is a bijection mod 2^64, so a
        // non-zero input gives a non-zero xorshift state.
        let rng = (node as u64).wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        Self { untimed: 0, gap: 0, rng, recent_ns: [0; 3], carried_ns: 0, per_elem_ns: 0 }
    }

    /// Whether a call of `len` elements is to be timed.
    fn due(&self, len: u64) -> bool {
        self.untimed + len >= self.gap
    }

    /// Accounts one call of `len` elements, `measured` when it was
    /// timed, and returns the wall time to charge it.
    fn charge(&mut self, measured: Option<Duration>, len: u64) -> Duration {
        let Some(measured) = measured else {
            self.untimed += len;
            self.per_elem_ns = self.carried_ns;
            return Duration::from_nanos(self.carried_ns.saturating_mul(len));
        };
        #[allow(clippy::cast_possible_truncation)] // < 585 years
        let ns = measured.as_nanos() as u64;
        self.per_elem_ns = ns / len.max(1);
        let [_, b, c] = self.recent_ns;
        // The first timed call stands in for all three.
        self.recent_ns =
            if self.gap == 0 { [self.per_elem_ns; 3] } else { [b, c, self.per_elem_ns] };
        let [a, b, c] = self.recent_ns;
        self.carried_ns = a.min(b).max(a.max(b).min(c));
        self.untimed = 0;
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        self.gap = 1 + self.rng % (2 * TIMING_STRIDE - 1);
        measured
    }
}

/// An edge destination inside the plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Target {
    /// Operator node index and input port.
    Node(usize, usize),
    /// Sink index.
    Sink(usize),
}

/// Either a source or a node — anything that can feed another operator.
#[derive(Debug, Clone, Copy)]
pub enum Upstream {
    /// A registered stream source.
    Source(SourceRef),
    /// An operator node.
    Node(NodeRef),
}

impl From<SourceRef> for Upstream {
    fn from(s: SourceRef) -> Self {
        Upstream::Source(s)
    }
}

impl From<NodeRef> for Upstream {
    fn from(n: NodeRef) -> Self {
        Upstream::Node(n)
    }
}

pub(crate) struct Node {
    pub(crate) op: Box<dyn Operator>,
    pub(crate) outputs: Vec<Target>,
    /// Wall time spent inside `process`: measured on the calls the
    /// sampler times, estimated from the last measured per-element cost
    /// on the others.
    pub(crate) elapsed: Duration,
    sampler: CallSampler,
}

impl Node {
    fn new(op: Box<dyn Operator>, index: usize) -> Self {
        Self { op, outputs: Vec::new(), elapsed: Duration::ZERO, sampler: CallSampler::new(index) }
    }
}

pub(crate) struct Source {
    pub(crate) stream: StreamId,
    pub(crate) analyzer: SpAnalyzer,
    pub(crate) outputs: Vec<Target>,
}

/// Builds an executable plan.
pub struct PlanBuilder {
    catalog: Arc<RoleCatalog>,
    pub(crate) nodes: Vec<Node>,
    pub(crate) sources: Vec<Source>,
    pub(crate) sinks: Vec<Sink>,
    telemetry: TelemetryConfig,
}

impl PlanBuilder {
    /// A builder using the given role catalog for punctuation resolution.
    #[must_use]
    pub fn new(catalog: Arc<RoleCatalog>) -> Self {
        Self {
            catalog,
            nodes: Vec::new(),
            sources: Vec::new(),
            sinks: Vec::new(),
            telemetry: TelemetryConfig::disabled(),
        }
    }

    /// Configures telemetry (audit trail + metrics) for the built plan.
    /// Applies to every source and node, including ones added after this
    /// call. Off by default.
    pub fn enable_telemetry(&mut self, config: TelemetryConfig) {
        self.telemetry = config;
    }

    /// Propagates the audit and span capacities to every analyzer and
    /// operator. Runs at finalization so late-added nodes are covered too.
    fn apply_telemetry(&mut self) {
        if self.telemetry.audit_capacity > 0 {
            for source in &mut self.sources {
                source.analyzer.set_audit(self.telemetry.audit_capacity);
            }
            for node in &mut self.nodes {
                node.op.set_audit(self.telemetry.audit_capacity);
            }
        }
        if self.telemetry.span_capacity > 0 {
            for source in &mut self.sources {
                source.analyzer.set_spans(self.telemetry.span_capacity);
            }
            for node in &mut self.nodes {
                node.op.set_spans(self.telemetry.span_capacity);
            }
        }
    }

    /// Registers a source stream.
    pub fn source(&mut self, stream: StreamId, schema: Arc<Schema>) -> SourceRef {
        self.sources.push(Source {
            stream,
            analyzer: SpAnalyzer::new(schema, self.catalog.clone()),
            outputs: Vec::new(),
        });
        SourceRef(self.sources.len() - 1)
    }

    /// Installs a server-side policy on a source (see
    /// [`SpAnalyzer::set_server_policy`]).
    pub fn set_server_policy(&mut self, source: SourceRef, policy: Option<sp_core::Policy>) {
        self.sources[source.0].analyzer.set_server_policy(policy);
    }

    /// Enables incremental-policy mode on a source (see
    /// [`SpAnalyzer::set_incremental`]).
    pub fn set_incremental(&mut self, source: SourceRef, incremental: bool) {
        self.sources[source.0].analyzer.set_incremental(incremental);
    }

    /// Switches a source into hardened fail-closed mode (see
    /// [`SpAnalyzer::harden`]): uncovered tuples are quarantined, late
    /// sp-batches discarded.
    pub fn harden_source(&mut self, source: SourceRef, policy: crate::QuarantinePolicy) {
        self.sources[source.0].analyzer.harden(policy);
    }

    /// Adds a unary operator downstream of `input`.
    pub fn add(&mut self, op: impl Operator + 'static, input: impl Into<Upstream>) -> NodeRef {
        debug_assert_eq!(op.arity(), 1, "use add_binary for binary operators");
        let node = NodeRef(self.nodes.len());
        self.nodes.push(Node::new(Box::new(op), node.0));
        self.connect(input.into(), Target::Node(node.0, 0));
        node
    }

    /// Adds a binary operator with the given left (port 0) and right
    /// (port 1) inputs.
    pub fn add_binary(
        &mut self,
        op: impl Operator + 'static,
        left: impl Into<Upstream>,
        right: impl Into<Upstream>,
    ) -> NodeRef {
        debug_assert_eq!(op.arity(), 2, "operator is not binary");
        let node = NodeRef(self.nodes.len());
        self.nodes.push(Node::new(Box::new(op), node.0));
        self.connect(left.into(), Target::Node(node.0, 0));
        self.connect(right.into(), Target::Node(node.0, 1));
        node
    }

    /// Terminates a branch with a result sink (one per registered query).
    pub fn sink(&mut self, input: impl Into<Upstream>) -> SinkRef {
        self.sinks.push(Sink::new());
        let sink = SinkRef(self.sinks.len() - 1);
        self.connect(input.into(), Target::Sink(sink.0));
        sink
    }

    fn connect(&mut self, from: Upstream, to: Target) {
        match from {
            Upstream::Source(s) => self.sources[s.0].outputs.push(to),
            Upstream::Node(n) => self.nodes[n.0].outputs.push(to),
        }
    }

    /// Decomposes the builder for the sharded executor's coordinator.
    pub(crate) fn into_parts(mut self) -> (Vec<Node>, Vec<Source>, Vec<Sink>, TelemetryConfig) {
        self.apply_telemetry();
        (self.nodes, self.sources, self.sinks, self.telemetry)
    }

    /// Finalizes the plan into an executor.
    #[must_use]
    pub fn build(mut self) -> Executor {
        self.apply_telemetry();
        let mut by_stream: HashMap<StreamId, Vec<usize>> = HashMap::new();
        for (i, s) in self.sources.iter().enumerate() {
            by_stream.entry(s.stream).or_default().push(i);
        }
        let latency = vec![Histogram::new(); self.nodes.len()];
        let has_binary = self.nodes.iter().any(|n| n.op.arity() > 1);
        Executor {
            nodes: self.nodes,
            sources: self.sources,
            sinks: self.sinks,
            by_stream,
            queue: VecDeque::with_capacity(64),
            staged: Vec::with_capacity(16),
            emitter: Emitter::with_capacity(64),
            telemetry: self.telemetry,
            latency,
            queue_depth: Histogram::new(),
            batching: true,
            has_binary,
        }
    }
}

/// Routes one emitted element to a target: coalesce into the queue's tail
/// batch when the tail has the same target and element kind, else start a
/// new singleton batch. Merging only ever touches the *tail*, so the
/// per-target element order is exactly the order routed here.
fn route(
    queue: &mut VecDeque<(Target, ElementBatch)>,
    target: Target,
    elem: Element,
    coalesce: bool,
) {
    if coalesce {
        if let Some((t, batch)) = queue.back_mut() {
            if *t == target && batch.accepts(&elem) {
                batch.push(elem);
                return;
            }
        }
    }
    queue.push_back((target, ElementBatch::single(elem)));
}

/// Routes a run of elements to every target, element-major: each element
/// visits all targets before the next element, cloning for all targets
/// but the last (which takes the element by move). Element-major order
/// keeps cross-branch interleaving at downstream merges identical to
/// tuple-at-a-time routing; across a multi-target split, tail coalescing
/// then naturally degrades to singleton batches, while single-consumer
/// chains — the common case — coalesce whole runs.
fn enqueue_fanout(
    queue: &mut VecDeque<(Target, ElementBatch)>,
    targets: &[Target],
    elems: impl Iterator<Item = Element>,
    coalesce: bool,
) {
    let Some((&last, rest)) = targets.split_last() else {
        return;
    };
    for elem in elems {
        for &t in rest {
            route(queue, t, elem.clone(), coalesce);
        }
        route(queue, last, elem, coalesce);
    }
}

/// The pipelined plan executor.
pub struct Executor {
    nodes: Vec<Node>,
    sources: Vec<Source>,
    sinks: Vec<Sink>,
    by_stream: HashMap<StreamId, Vec<usize>>,
    queue: VecDeque<(Target, ElementBatch)>,
    /// Reusable analyzer-output scratch (avoids a fresh allocation per push).
    staged: Vec<Element>,
    /// Reusable operator-output scratch.
    emitter: Emitter,
    telemetry: TelemetryConfig,
    /// Per-node, per-element `process` latency in nanoseconds (metrics
    /// mode only). Every element is counted; the values are the sampler's
    /// measured or carried per-element costs, so sums are estimates.
    latency: Vec<Histogram>,
    /// Work-queue depth sampled at each dequeue (metrics mode only).
    queue_depth: Histogram,
    /// Batch coalescing + deferred draining enabled (default). Disabled,
    /// the executor routes singleton batches and drains eagerly — the
    /// tuple-at-a-time reference mode.
    batching: bool,
    /// Whether any node is binary. Binary merges observe the *interleaving*
    /// of their two input sequences, so deferred draining is only safe on
    /// binary-free plans, where each operator's input sequence alone
    /// determines every observable.
    has_binary: bool,
}

impl Executor {
    /// Feeds one raw stream element into every source registered for its
    /// stream and runs the plan to quiescence.
    ///
    /// # Errors
    ///
    /// Propagates the first [`EngineError`] an operator reports; pending
    /// work queued behind the failing element is discarded (fail-closed:
    /// nothing is released past a failed operator).
    pub fn push(&mut self, stream: StreamId, elem: StreamElement) -> Result<(), EngineError> {
        self.stage(stream, elem);
        self.drain()
    }

    /// Feeds a whole batch, then drains.
    ///
    /// On binary-free plans with batching enabled, inputs are *staged*
    /// and the plan drained only every [`MAX_DEFERRED_INPUTS`] inputs (and
    /// once at the end), so whole segment runs coalesce into single
    /// batches. This is output-equivalent to draining per input: without a
    /// binary merge, each operator's input sequence — which deferral
    /// preserves exactly — determines every observable. Plans with a
    /// binary node drain per input, where within-push coalescing still
    /// applies.
    ///
    /// # Errors
    ///
    /// Stops at and returns the first [`EngineError`]. In deferred mode
    /// the failure discards all staged work, including outputs of inputs
    /// staged before the failing one — strictly more fail-closed than the
    /// per-input path (never releases more).
    pub fn push_all(
        &mut self,
        items: impl IntoIterator<Item = (StreamId, StreamElement)>,
    ) -> Result<(), EngineError> {
        if !self.batching || self.has_binary {
            for (stream, elem) in items {
                self.push(stream, elem)?;
            }
            return Ok(());
        }
        let mut pending = 0usize;
        for (stream, elem) in items {
            self.stage(stream, elem);
            pending += 1;
            if pending >= MAX_DEFERRED_INPUTS {
                self.drain()?;
                pending = 0;
            }
        }
        self.drain()
    }

    /// Enables or disables batch coalescing and deferred draining (on by
    /// default). Disabled, the executor routes singleton batches through
    /// `process_batch` and drains after every input — the tuple-at-a-time
    /// reference mode the differential equivalence suite and the `fig7 b`
    /// benchmark baseline compare against.
    pub fn set_batching(&mut self, batching: bool) {
        self.batching = batching;
    }

    /// Runs one raw element through the analyzers of every source
    /// registered for its stream and routes the resolved elements into the
    /// work queue (no draining). The raw element is cloned only for
    /// multiply-registered streams: the last source takes it by move.
    fn stage(&mut self, stream: StreamId, elem: StreamElement) {
        let Some(source_ids) = self.by_stream.get(&stream) else {
            return;
        };
        let Some((&last_sid, rest)) = source_ids.split_last() else {
            return;
        };
        let mut staged = std::mem::take(&mut self.staged);
        for &sid in rest {
            let source = &mut self.sources[sid];
            source.analyzer.push(elem.clone(), &mut staged);
            enqueue_fanout(&mut self.queue, &source.outputs, staged.drain(..), self.batching);
        }
        let source = &mut self.sources[last_sid];
        source.analyzer.push(elem, &mut staged);
        enqueue_fanout(&mut self.queue, &source.outputs, staged.drain(..), self.batching);
        self.staged = staged;
    }

    fn drain(&mut self) -> Result<(), EngineError> {
        let mut emitter = std::mem::take(&mut self.emitter);
        while let Some((target, batch)) = self.queue.pop_front() {
            match target {
                Target::Sink(i) => {
                    let result = self.sinks[i].process_batch(0, batch, &mut emitter);
                    debug_assert!(emitter.is_empty(), "sinks do not emit");
                    if let Err(e) = result {
                        self.queue.clear();
                        let _ = emitter.take();
                        self.emitter = emitter;
                        return Err(e);
                    }
                }
                Target::Node(n, port) => {
                    let node = &mut self.nodes[n];
                    let len = batch.len() as u64;
                    let start = node.sampler.due(len).then(std::time::Instant::now);
                    let result = node.op.process_batch(port, batch, &mut emitter);
                    node.elapsed += node.sampler.charge(start.map(|s| s.elapsed()), len);
                    if self.telemetry.metrics {
                        // Every call records its per-element cost (measured
                        // or carried) `len` times, so counts still mean
                        // "elements processed".
                        self.latency[n].record_n(node.sampler.per_elem_ns, len);
                        self.queue_depth.record(self.queue.len() as u64);
                    }
                    if let Err(e) = result {
                        self.queue.clear();
                        let _ = emitter.take();
                        self.emitter = emitter;
                        return Err(e);
                    }
                    let outputs = &self.nodes[n].outputs;
                    enqueue_fanout(&mut self.queue, outputs, emitter.drain(), self.batching);
                }
            }
        }
        self.emitter = emitter;
        Ok(())
    }

    /// The sink's collected results.
    #[must_use]
    pub fn sink(&self, s: SinkRef) -> &Sink {
        &self.sinks[s.0]
    }

    /// A node's cost counters.
    #[must_use]
    pub fn stats(&self, n: NodeRef) -> &OperatorStats {
        self.nodes[n.0].op.stats()
    }

    /// Wall time the executor spent inside a node's `process`: an
    /// estimate, measured on sampled calls (always the first) and carried
    /// per element to the calls in between.
    #[must_use]
    pub fn elapsed(&self, n: NodeRef) -> Duration {
        self.nodes[n.0].elapsed
    }

    /// A node's state footprint in bytes.
    #[must_use]
    pub fn state_mem_bytes(&self, n: NodeRef) -> usize {
        self.nodes[n.0].op.state_mem_bytes()
    }

    /// Total state footprint across all operators.
    #[must_use]
    pub fn total_state_mem_bytes(&self) -> usize {
        self.nodes.iter().map(|n| n.op.state_mem_bytes()).sum()
    }

    /// Access to a source's analyzer statistics.
    #[must_use]
    pub fn analyzer(&self, s: SourceRef) -> &SpAnalyzer {
        &self.sources[s.0].analyzer
    }

    /// Flushes any trailing sp-batches held by the analyzers and runs the
    /// plan to quiescence, so end-of-stream policies are not lost.
    ///
    /// # Errors
    ///
    /// Propagates the first [`EngineError`] an operator reports.
    pub fn finish(&mut self) -> Result<(), EngineError> {
        let coalesce = self.batching;
        let mut staged = std::mem::take(&mut self.staged);
        for source in &mut self.sources {
            source.analyzer.flush(&mut staged);
            enqueue_fanout(&mut self.queue, &source.outputs, staged.drain(..), coalesce);
        }
        self.staged = staged;
        self.drain()
    }

    /// Routes one pre-analyzed batch into the plan at source slot `idx`,
    /// bypassing the sp-analyzer, and runs it to completion. Shard
    /// replicas use this: the sharded coordinator runs the analyzers
    /// once, centrally, and ships already-analyzed elements to shards,
    /// so per-shard analyzer state cannot exist (let alone diverge).
    pub(crate) fn inject(&mut self, idx: usize, batch: ElementBatch) -> Result<(), EngineError> {
        let coalesce = self.batching;
        enqueue_fanout(&mut self.queue, &self.sources[idx].outputs, batch.into_iter(), coalesce);
        self.drain()
    }

    /// Number of source slots (shard plumbing).
    pub(crate) fn source_count(&self) -> usize {
        self.sources.len()
    }

    /// Number of plan nodes (shard plumbing).
    pub(crate) fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The operator at node slot `i` (shard plumbing: recorder reads).
    pub(crate) fn node_op(&self, i: usize) -> &dyn Operator {
        self.nodes[i].op.as_ref()
    }

    /// Drains sink `i`'s collected output accumulated since the last
    /// take (shard plumbing: output increments for the exchange merge).
    pub(crate) fn take_sink_elements(&mut self, i: usize) -> Vec<Element> {
        self.sinks[i].take_elements()
    }

    /// Number of sink slots (shard plumbing).
    pub(crate) fn sink_count(&self) -> usize {
        self.sinks.len()
    }

    /// Fail-closed degradation counters summed over every source analyzer
    /// and every degradation-participating operator (load shedders).
    #[must_use]
    pub fn degradation(&self) -> crate::stats::DegradationStats {
        let mut total = crate::stats::DegradationStats::new();
        for source in &self.sources {
            total.absorb(&source.analyzer.degradation());
        }
        for node in &self.nodes {
            if let Some(d) = node.op.degradation() {
                total.absorb(&d);
            }
        }
        total
    }

    /// Arms audit recording on every analyzer and every auditing operator.
    ///
    /// Recorders start empty; the supervisor calls this after each rebuild
    /// or restore so the flight recorder never replays pre-crash history.
    pub fn set_audit(&mut self, capacity: usize) {
        if capacity == 0 {
            return;
        }
        for source in &mut self.sources {
            source.analyzer.set_audit(capacity);
        }
        for node in &mut self.nodes {
            node.op.set_audit(capacity);
        }
    }

    /// Arms sp-trace span recording (and enforcement-lag tracking) on
    /// every analyzer and every span-recording operator. Like audit
    /// recorders, span recorders start empty after a rebuild or restore.
    pub fn set_spans(&mut self, capacity: usize) {
        if capacity == 0 {
            return;
        }
        for source in &mut self.sources {
            source.analyzer.set_spans(capacity);
        }
        for node in &mut self.nodes {
            node.op.set_spans(capacity);
        }
    }

    /// The plan-wide span sheet: analyzer sections (by source index),
    /// then operator sections (by node index), disabled recorders
    /// omitted — byte-identical to a sharded run's
    /// [`SpanSheet::encode_to_vec`] over the same input.
    #[must_use]
    pub fn span_sheet(&self) -> SpanSheet {
        plan_sheet(
            self.sources.iter().map(|s| s.analyzer.spans()),
            self.nodes.iter().map(|n| n.op.spans()),
        )
    }

    /// The plan-wide audit trail, in the same section order as
    /// [`Executor::span_sheet`] and byte-identical to a sharded run's
    /// [`AuditTrail::encode_to_vec`] over the same input.
    #[must_use]
    pub fn audit_trail(&self) -> AuditTrail {
        plan_sheet(
            self.sources.iter().map(|s| s.analyzer.audit()),
            self.nodes.iter().map(|n| n.op.audit()),
        )
    }

    /// Builds a point-in-time metrics snapshot: per-operator tuple/sp
    /// counters, fail-closed degradation counters, audit-trail pressure,
    /// and — when metrics collection is enabled — per-node process-latency
    /// and queue-depth histograms.
    #[must_use]
    pub fn metrics(&self) -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        add_plan_metrics(
            &mut reg,
            self.nodes.iter().enumerate().map(|(i, node)| {
                let s = node.op.stats();
                let counters = [s.tuples_in, s.tuples_out, s.sps_in, s.sps_out, s.tuples_shielded];
                (i, node.op.name(), counters)
            }),
            &self.degradation(),
            &self.audit_trail(),
            &self.span_sheet(),
        );
        for (i, node) in self.nodes.iter().enumerate() {
            let labels = operator_labels(node.op.name(), i);
            if self.telemetry.metrics {
                reg.merge_histogram(
                    "sp_operator_latency_ns",
                    "Per-element operator process latency in nanoseconds (sampled)",
                    &labels,
                    &self.latency[i],
                );
            }
            if let Some(lag) = node.op.lag() {
                // Paper-grounded enforcement-lag windows, in stream time:
                // how far behind the stream clock each sp took effect, and
                // how wide the "security hole" between a revocation and
                // the first suppressed tuple was.
                reg.merge_histogram(
                    "sp_enforce_lag_ms",
                    "Stream-time lag between sp arrival and shield enforcement (0 = immediate enforcement)",
                    &labels,
                    lag.enforce(),
                );
                reg.merge_histogram(
                    "sp_first_release_lag_ms",
                    "Stream-time lag between an sp taking effect and the first tuple it released",
                    &labels,
                    lag.release(),
                );
                reg.merge_histogram(
                    "sp_suppress_lag_ms",
                    "Stream-time lag between a revocation taking effect and the first tuple it suppressed (security-hole width)",
                    &labels,
                    lag.suppress(),
                );
            }
        }
        if self.telemetry.metrics {
            reg.merge_histogram(
                "sp_queue_depth",
                "Executor work-queue depth sampled at each dequeue",
                "",
                &self.queue_depth,
            );
        }
        reg
    }

    /// Takes a consistent cut of the whole plan at an epoch boundary. Must
    /// be called at quiescence (no queued work): the sequential executor
    /// runs every pushed element to completion, so any point between
    /// `push` calls is a consistent cut.
    #[must_use]
    pub fn checkpoint(&self, epoch: u64, input_pos: u64) -> crate::checkpoint::Checkpoint {
        debug_assert!(self.queue.is_empty(), "checkpoint requires quiescence");
        crate::checkpoint::Checkpoint {
            epoch,
            input_pos,
            analyzers: sections(&self.sources, |s, buf| s.analyzer.snapshot(buf)),
            nodes: sections(&self.nodes, |n, buf| n.op.snapshot(buf)),
            sinks: sections(&self.sinks, Operator::snapshot),
        }
    }

    /// Restores every analyzer, operator, and sink from a checkpoint taken
    /// on a plan built by the same builder.
    ///
    /// # Errors
    ///
    /// Fails closed ([`EngineError::CheckpointCorrupt`]) when the
    /// checkpoint's shape does not match this plan or any section fails to
    /// decode; the executor must then be discarded — state may be partially
    /// restored.
    pub fn restore(&mut self, ckpt: &crate::checkpoint::Checkpoint) -> Result<(), EngineError> {
        ckpt.check_shape(self.sources.len(), self.nodes.len(), self.sinks.len())?;
        self.queue.clear();
        for (source, bytes) in self.sources.iter_mut().zip(&ckpt.analyzers) {
            source.analyzer.restore(bytes)?;
        }
        for (node, bytes) in self.nodes.iter_mut().zip(&ckpt.nodes) {
            node.op.restore(bytes)?;
        }
        for (sink, bytes) in self.sinks.iter_mut().zip(&ckpt.sinks) {
            Operator::restore(sink, bytes)?;
        }
        Ok(())
    }

    /// Replaces the security predicate of the operator at `n` (runtime
    /// role reassignment, §IX future work). Returns false if that operator
    /// has no predicate.
    pub fn update_predicate(&mut self, n: NodeRef, roles: &sp_core::RoleSet) -> bool {
        self.nodes[n.0].op.update_predicate(roles)
    }

    /// A human-readable per-operator report: counts, shielded tuples,
    /// estimated wall time (see [`Executor::elapsed`]) and state
    /// footprint — the runtime introspection a DSMS operator console would
    /// show.
    #[must_use]
    pub fn report(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<3} {:<10} {:>10} {:>10} {:>8} {:>8} {:>9} {:>10} {:>10}",
            "#",
            "op",
            "tuples in",
            "tuples out",
            "sps in",
            "sps out",
            "shielded",
            "time µs",
            "state B"
        );
        for (i, node) in self.nodes.iter().enumerate() {
            let s = node.op.stats();
            let _ = writeln!(
                out,
                "{:<3} {:<10} {:>10} {:>10} {:>8} {:>8} {:>9} {:>10.0} {:>10}",
                i,
                node.op.name(),
                s.tuples_in,
                s.tuples_out,
                s.sps_in,
                s.sps_out,
                s.tuples_shielded,
                node.elapsed.as_secs_f64() * 1e6,
                node.op.state_mem_bytes(),
            );
        }
        for (i, sink) in self.sinks.iter().enumerate() {
            let s = sink.stats();
            let _ = writeln!(
                out,
                "q{:<2} {:<10} {:>10} {:>10} {:>8} {:>8}",
                i, "sink", s.tuples_in, "-", s.sps_in, "-"
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use crate::expr::{CmpOp, Expr};
    use crate::ops::select::Select;
    use crate::ops::shield::SecurityShield;
    use sp_core::{
        Policy, RoleSet, SecurityPunctuation, Timestamp, Tuple, TupleId, Value, ValueType,
    };

    fn schema() -> Arc<Schema> {
        Schema::of("loc", &[("id", ValueType::Int), ("x", ValueType::Int)])
    }

    fn catalog() -> Arc<RoleCatalog> {
        let mut c = RoleCatalog::new();
        c.register_synthetic_roles(8);
        Arc::new(c)
    }

    fn tup(tid: u64, ts: u64, x: i64) -> StreamElement {
        StreamElement::tuple(Tuple::new(
            StreamId(1),
            TupleId(tid),
            Timestamp(ts),
            vec![Value::Int(tid as i64), Value::Int(x)],
        ))
    }

    fn sp(roles: &[u32], ts: u64) -> StreamElement {
        StreamElement::punctuation(SecurityPunctuation::grant_all(
            roles.iter().map(|&r| sp_core::RoleId(r)).collect(),
            Timestamp(ts),
        ))
    }

    #[test]
    fn select_shield_pipeline() {
        let mut b = PlanBuilder::new(catalog());
        let src = b.source(StreamId(1), schema());
        let sel = b
            .add(Select::new(Expr::cmp(CmpOp::Gt, Expr::Attr(1), Expr::Const(Value::Int(5)))), src);
        let ss = b.add(SecurityShield::new(RoleSet::from([1])), sel);
        let sink = b.sink(ss);
        let mut exec = b.build();

        exec.push_all([
            (StreamId(1), sp(&[1], 0)),
            (StreamId(1), tup(1, 1, 10)), // passes both
            (StreamId(1), tup(2, 2, 3)),  // filtered by select
            (StreamId(1), sp(&[2], 3)),
            (StreamId(1), tup(3, 4, 10)), // shielded
        ])
        .unwrap();

        let tuples: Vec<u64> = exec.sink(sink).tuples().map(|t| t.tid.raw()).collect();
        assert_eq!(tuples, vec![1]);
        assert!(exec.elapsed(ss) > Duration::ZERO);
        assert!(exec.stats(ss).tuples_in >= 1);
    }

    #[test]
    fn shared_subplan_feeds_multiple_queries() {
        // One select shared by two queries with different access rights
        // (Fig. 5): SS operators placed per-query after the shared part.
        let mut b = PlanBuilder::new(catalog());
        let src = b.source(StreamId(1), schema());
        let shared = b
            .add(Select::new(Expr::cmp(CmpOp::Ge, Expr::Attr(1), Expr::Const(Value::Int(0)))), src);
        let ss1 = b.add(SecurityShield::new(RoleSet::from([1])), shared);
        let ss2 = b.add(SecurityShield::new(RoleSet::from([2])), shared);
        let q1 = b.sink(ss1);
        let q2 = b.sink(ss2);
        let mut exec = b.build();

        exec.push_all([
            (StreamId(1), sp(&[1], 0)),
            (StreamId(1), tup(1, 1, 1)),
            (StreamId(1), sp(&[2], 2)),
            (StreamId(1), tup(2, 3, 1)),
            (StreamId(1), sp(&[1, 2], 4)),
            (StreamId(1), tup(3, 5, 1)),
        ])
        .unwrap();

        let q1_ids: Vec<u64> = exec.sink(q1).tuples().map(|t| t.tid.raw()).collect();
        let q2_ids: Vec<u64> = exec.sink(q2).tuples().map(|t| t.tid.raw()).collect();
        assert_eq!(q1_ids, vec![1, 3]);
        assert_eq!(q2_ids, vec![2, 3]);
    }

    #[test]
    fn report_renders_per_operator_rows() {
        let mut b = PlanBuilder::new(catalog());
        let src = b.source(StreamId(1), schema());
        let ss = b.add(SecurityShield::new(RoleSet::from([1])), src);
        let _sink = b.sink(ss);
        let mut exec = b.build();
        exec.push_all([(StreamId(1), sp(&[1], 0)), (StreamId(1), tup(1, 1, 2))]).unwrap();
        let report = exec.report();
        assert!(report.contains("ss"), "{report}");
        assert!(report.contains("sink"), "{report}");
        assert!(report.lines().count() >= 3);
    }

    #[test]
    fn unknown_stream_is_ignored() {
        let mut b = PlanBuilder::new(catalog());
        let src = b.source(StreamId(1), schema());
        let sink = b.sink(src);
        let mut exec = b.build();
        exec.push(StreamId(99), tup(1, 1, 1)).unwrap();
        assert_eq!(exec.sink(sink).tuple_count(), 0);
        exec.push(StreamId(1), tup(1, 1, 1)).unwrap();
        assert_eq!(exec.sink(sink).tuple_count(), 1);
    }

    #[test]
    fn server_policy_installed_through_builder() {
        let mut b = PlanBuilder::new(catalog());
        let src = b.source(StreamId(1), schema());
        b.set_server_policy(src, Some(Policy::tuple_level(RoleSet::from([1]), Timestamp(0))));
        let ss = b.add(SecurityShield::new(RoleSet::from([2])), src);
        let sink = b.sink(ss);
        let mut exec = b.build();
        exec.push_all([(StreamId(1), sp(&[1, 2], 1)), (StreamId(1), tup(1, 2, 1))]).unwrap();
        // Server policy removed role 2, so query with role 2 sees nothing.
        assert_eq!(exec.sink(sink).tuple_count(), 0);
        assert!(exec.total_state_mem_bytes() > 0);
        assert_eq!(exec.analyzer(src).sps_filtered, 0);
    }

    #[test]
    fn hardened_source_fails_closed_end_to_end() {
        let mut b = PlanBuilder::new(catalog());
        let src = b.source(StreamId(1), schema());
        b.harden_source(src, crate::QuarantinePolicy { ttl_ms: 10, slack_ms: 10, capacity: 8 });
        let ss = b.add(SecurityShield::new(RoleSet::from([1])), src);
        let sink = b.sink(ss);
        let mut exec = b.build();
        exec.push_all([
            (StreamId(1), tup(1, 1, 1)),  // no policy yet: quarantined
            (StreamId(1), sp(&[1], 1)),   // its sp arrives within slack
            (StreamId(1), tup(2, 2, 1)),  // governed
            (StreamId(1), tup(3, 50, 1)), // 39 past the policy: quarantined
            (StreamId(1), tup(4, 90, 1)), // expires tuple 3, quarantined
        ])
        .unwrap();
        let ids: Vec<u64> = exec.sink(sink).tuples().map(|t| t.tid.raw()).collect();
        assert_eq!(ids, vec![1, 2], "only governed tuples released");
        let d = exec.degradation();
        assert_eq!(d.quarantine_released, 1);
        assert_eq!(d.quarantined, 3);
        assert!(d.quarantine_dropped >= 1, "tuple 3 timed out");
        assert!(d.total_dropped() >= 1);
    }

    /// Drives a sampler through calls of the given lengths, each timed
    /// call measuring 10 ns per element; returns the timed call indices.
    fn timed_calls(node: usize, lens: impl IntoIterator<Item = u64>) -> Vec<usize> {
        let mut sampler = CallSampler::new(node);
        let mut timed = Vec::new();
        for (i, len) in lens.into_iter().enumerate() {
            let measured = sampler.due(len).then(|| Duration::from_nanos(10 * len));
            if measured.is_some() {
                timed.push(i);
            }
            sampler.charge(measured, len);
        }
        timed
    }

    #[test]
    fn sampler_times_about_one_single_element_call_in_the_stride() {
        for node in 0..8 {
            let timed = timed_calls(node, std::iter::repeat_n(1, 64_000));
            assert!((750..=1250).contains(&timed.len()), "node {node}: {} timed", timed.len());
            // A fixed power-of-two stride would hit one residue only.
            let residues: std::collections::HashSet<usize> = timed.iter().map(|i| i % 64).collect();
            assert!(residues.len() >= 32, "node {node}: {} residues mod 64", residues.len());
        }
    }

    #[test]
    fn sampler_times_the_first_call_and_every_long_run() {
        let mut rng = 0x2545_F491_4F6C_DD1Du64;
        let lens: Vec<u64> = (0..10_000)
            .map(|_| {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                if rng.is_multiple_of(4) {
                    127 + rng % 300
                } else {
                    1 + rng % 40
                }
            })
            .collect();
        for node in 0..8 {
            let timed = timed_calls(node, lens.iter().copied());
            assert_eq!(timed.first(), Some(&0), "node {node}: first call untimed");
            for (i, len) in lens.iter().enumerate() {
                if *len >= 2 * TIMING_STRIDE - 1 {
                    assert!(
                        timed.binary_search(&i).is_ok(),
                        "node {node}: call {i} ({len}) untimed"
                    );
                }
            }
        }
    }

    #[test]
    fn untimed_calls_carry_the_last_measured_cost() {
        let mut sampler = CallSampler::new(0);
        assert!(sampler.due(4));
        let d = Duration::from_nanos(400);
        assert_eq!(sampler.charge(Some(d), 4), d);
        assert_eq!(sampler.per_elem_ns, 100);
        assert_eq!(sampler.charge(None, 3), Duration::from_nanos(300));
        assert_eq!(sampler.per_elem_ns, 100);
    }

    #[test]
    fn one_spiky_timed_call_is_not_carried() {
        let mut sampler = CallSampler::new(0);
        for _ in 0..4 {
            sampler.charge(Some(Duration::from_nanos(100 * 8)), 8);
        }
        // One timed call at 100 µs per element: charged in full to itself.
        let spike = Duration::from_micros(100 * 8);
        assert_eq!(sampler.charge(Some(spike), 8), spike);
        for _ in 0..126 {
            assert_eq!(sampler.charge(None, 1), Duration::from_nanos(100));
            assert_eq!(sampler.per_elem_ns, 100);
        }
        // A lasting change of cost is carried once it is the median.
        sampler.charge(Some(Duration::from_nanos(300 * 8)), 8);
        assert_eq!(sampler.charge(None, 1), Duration::from_nanos(300));
    }

    #[test]
    fn finish_flushes_trailing_batches() {
        let mut b = PlanBuilder::new(catalog());
        let src = b.source(StreamId(1), schema());
        let sink = b.sink(src);
        let mut exec = b.build();
        exec.push(StreamId(1), sp(&[1], 9)).unwrap();
        assert_eq!(exec.sink(sink).stats().sps_in, 0, "batch still open");
        exec.finish().unwrap();
        assert_eq!(exec.sink(sink).stats().sps_in, 1);
    }
}
