//! The in-process workloads, steady-shield and policy-churn, driven
//! through `Dsms::try_start` and `RunningDsms::try_push` exactly as a
//! server tenant worker drives them.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use sp_engine::{
    CheckpointStore, Element, ElementBatch, Emitter, Executor, MetricsRegistry, Operator, Sink,
    SinkRef, SpAnalyzer,
};
use sp_query::Dsms;

use crate::stats::Tail;
use crate::tenant::{
    mirror_plan, tenant_dsms, Digest, Input, Reference, SizingStore, FRAME_ELEMENTS,
};
use crate::trace::{aggregate, now_ns, root_ns, Agg, LayerTable, Row, Span, Tracer};

/// Elements attempted and failed over a run, with a note per failure kind.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Tally {
    pub fn fail(&mut self, n: u64, note: String) {
        self.failed += n;
        if self.notes.len() < 16 {
            self.notes.push(note);
        }
    }

    /// Checks one pass's released tuples against the reference; a
    /// mismatch counts as one failure.
    pub fn check_released(&mut self, what: &str, got: Digest, want: Digest) {
        if got != want {
            self.fail(1, format!("{what}: released {got:?}, reference {want:?}"));
        }
    }
}

/// Session set-ups timed per pass: each is microseconds, so one pass
/// times several and keeps the last session.
const SETUP_REPEATS: usize = 8;

/// One untraced pass.
pub struct Sample {
    /// Registration, `submit` and `try_start`, once per repeat.
    pub setup_s: Vec<f64>,
    /// First push to the return of the first accessor call after the
    /// last push, which on a sharded session waits for the shards.
    pub wall_s: f64,
    /// The part of `wall_s` spent in that accessor call.
    pub sync_s: f64,
    pub tuples_per_s: f64,
    /// Per 64-element frame: first `try_push` to the last one returning.
    pub frames: Tail,
    pub state_bytes: usize,
    /// A sharded session's own counters (read after timing).
    pub metrics: Option<MetricsRegistry>,
}

/// Runs `input` once through a fresh tenant session of `shards` width.
pub fn untraced_pass(
    input: &Input,
    reference: &Reference,
    shards: usize,
    telemetry: bool,
    tally: &mut Tally,
) -> Sample {
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut session = None;
    for _ in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        let dsms = tenant_dsms(0, shards, telemetry);
        let running = dsms.try_start().expect("tenant session starts");
        setup_s.push(t0.elapsed().as_secs_f64());
        session = Some((dsms, running));
    }
    let (dsms, mut running) = session.expect("at least one set-up");
    let query = dsms.queries()[0].id;
    let mut frame_ns = Vec::with_capacity(input.elements.len() / FRAME_ELEMENTS + 1);
    let mut refused = 0u64;
    let start = Instant::now();
    for frame in input.elements.chunks(FRAME_ELEMENTS) {
        let f0 = Instant::now();
        for e in frame {
            if running.try_push(input.stream, e.clone()).is_err() {
                refused += 1;
            }
        }
        frame_ns.push(f0.elapsed().as_nanos() as f64);
    }
    let pushed = start.elapsed().as_secs_f64();
    let _ = running.results(query).tuple_count();
    let wall_s = start.elapsed().as_secs_f64();
    tally.attempted += input.elements.len() as u64;
    if refused > 0 {
        tally.fail(refused, format!("{refused} elements refused by try_push"));
    }
    let got = Digest::of_tuples(running.results(query).tuples());
    tally.check_released("session", got, reference.digest);
    if shards >= 2 && telemetry && running.audit_trail().encode_to_vec() != reference.audit {
        tally.fail(1, "sharded audit trail differs from the sequential session's".into());
    }
    let mut store = SizingStore::default();
    if running.checkpoint_to(1, &mut store).is_err() {
        tally.fail(1, "end-of-run checkpoint failed".into());
    }
    Sample {
        setup_s,
        wall_s,
        sync_s: wall_s - pushed,
        tuples_per_s: input.tuples as f64 / wall_s,
        frames: Tail::of(&frame_ns),
        state_bytes: store.bytes,
        metrics: (shards >= 2).then(|| running.metrics()),
    }
}

/// Replays `input` through a twin of the tenant's source analyzer, one
/// `SpAnalyzer::push` span per element. The executor's own analyzer runs
/// inside `Executor::push`, out of the benchmark's reach; its cost is
/// taken from the twin, fed the identical elements.
pub fn analyzer_twin(dsms: &Dsms, input: &Input, tracer: &Tracer, out: &mut Vec<Span>) {
    let schema = sp_mog::MovingObjectSim::location_schema();
    let mut analyzer = SpAnalyzer::new(schema, Arc::new(dsms.catalog.roles.clone()));
    if let Some(cfg) = dsms.telemetry {
        if cfg.audit_capacity > 0 {
            analyzer.set_audit(cfg.audit_capacity);
        }
        if cfg.span_capacity > 0 {
            analyzer.set_spans(cfg.span_capacity);
        }
    }
    let mut staged = Vec::new();
    for (i, e) in input.elements.iter().enumerate() {
        let e = e.clone();
        let start = now_ns();
        analyzer.push(e, &mut staged);
        let end = now_ns();
        staged.clear();
        tracer.record(out, Span::new("analyzer.push", i as u64, start, end));
    }
}

/// Replays what reached the sink into a twin `Sink`, one element per
/// call as the per-element tenant path delivers it.
pub fn sink_twin(released: &[Element], tracer: &Tracer, out: &mut Vec<Span>) {
    let mut sink = Sink::new();
    let mut em = Emitter::new();
    for (i, e) in released.iter().enumerate() {
        let batch = ElementBatch::single(e.clone());
        let start = now_ns();
        let _ = sink.process_batch(0, batch, &mut em);
        let end = now_ns();
        tracer.record(out, Span::new("ops.sink", i as u64, start, end));
    }
}

/// Counter lookup by operator name over the mirror plan's nodes.
fn op_counter(reg: &MetricsRegistry, family: &str, op: &str) -> u64 {
    (0..8).filter_map(|n| reg.counter(family, &format!("op=\"{op}\",node=\"{n}\""))).sum()
}

/// The session's shard fleet counters: max ÷ mean of the runs routed to
/// each shard, and the elements broadcast to every shard.
pub fn shard_counters(reg: &MetricsRegistry, shards: usize) -> (f64, f64) {
    let routed: Vec<f64> = (0..shards)
        .filter_map(|k| reg.counter("sp_shard_routed_total", &format!("shard=\"{k}\"")))
        .map(|v| v as f64)
        .collect();
    let mean = routed.iter().sum::<f64>() / routed.len().max(1) as f64;
    let skew = routed.iter().copied().fold(0.0, f64::max) / mean.max(1.0);
    (skew, reg.counter("sp_shard_broadcast_total", "").unwrap_or(0) as f64)
}

/// Pushes every element of `input` through `exec`, one `query.push`
/// span each; operator spans nest under it. Returns the refusals.
pub fn traced_pushes(
    exec: &mut Executor,
    input: &Input,
    tracer: &Tracer,
    local: &mut Vec<Span>,
) -> u64 {
    let mut refused = 0;
    for (i, e) in input.elements.iter().enumerate() {
        let r = tracer.root(local, "query.push", i as u64, || exec.push(input.stream, e.clone()));
        refused += u64::from(r.is_err());
    }
    refused
}

/// The engine's share of a traced replay: the executor's counters and
/// telemetry after the pushes, and what reached its sink.
pub struct EngineState {
    pub reg: MetricsRegistry,
    pub audit_records: u64,
    pub audit_evicted: u64,
    pub span_records: u64,
    pub released: Vec<Element>,
}

impl EngineState {
    pub fn read(exec: &Executor, sink: SinkRef) -> EngineState {
        let (trail, sheet) = (exec.audit_trail(), exec.span_sheet());
        EngineState {
            reg: exec.metrics(),
            audit_records: trail.len() as u64,
            audit_evicted: trail.evicted(),
            span_records: sheet.len() as u64,
            released: exec.sink(sink).elements().to_vec(),
        }
    }

    /// Sums the state of another tenant's executor into this one.
    pub fn absorb(&mut self, other: EngineState) {
        self.reg.merge(&other.reg);
        self.audit_records += other.audit_records;
        self.audit_evicted += other.audit_evicted;
        self.span_records += other.span_records;
        self.released.extend(other.released);
    }
}

/// Per-element engine layers from `query.push` spans with operator
/// children (`pushes`) and the analyzer and sink twins (`twins`):
/// `query.push` self time is analyzer + routing and queue + sink, so the
/// plan layer is what remains after the twins. Returns the layer rows
/// and the per-layer metrics.
pub fn engine_layers(
    pushes: &[Span],
    twins: &[Span],
    st: &EngineState,
    inputs: &[Input],
    wall_ns: f64,
    in_sum: bool,
) -> (Vec<Row>, Vec<(&'static str, f64)>) {
    let (agg, twin) = (aggregate(pushes), aggregate(twins));
    let get = |m: &BTreeMap<&str, Agg>, k: &str| m.get(k).copied().unwrap_or_default();
    let analyzer = get(&twin, "analyzer.push").dur as f64;
    let sink = get(&twin, "ops.sink").dur as f64;
    let plan = get(&agg, "query.push").self_ns as f64 - analyzer - sink;
    let mut rows = vec![
        Row { layer: "analyzer", self_ns: analyzer, in_sum },
        Row { layer: "plan", self_ns: plan, in_sum },
    ];
    for op in ["ops.select", "ops.shield", "ops.project"] {
        rows.push(Row { layer: op, self_ns: get(&agg, op).self_ns as f64, in_sum });
    }
    rows.push(Row { layer: "ops.sink", self_ns: sink, in_sum });

    let elems: f64 = inputs.iter().map(|i| i.elements.len() as f64).sum();
    let per_tuple = |k: &str| {
        let a = get(&agg, k);
        a.dur as f64 / a.tuples.max(1) as f64
    };
    let ss_in = op_counter(&st.reg, "sp_tuples_in_total", "ss");
    let ss_out = op_counter(&st.reg, "sp_tuples_out_total", "ss");
    let sps_fwd: u64 = ["select", "ss", "project"]
        .iter()
        .map(|op| op_counter(&st.reg, "sp_sps_out_total", op))
        .sum();
    let sink_tuples = st.released.iter().filter(|e| e.is_tuple()).count().max(1) as f64;
    let metrics = vec![
        ("analyzer.ns_per_elem", analyzer / elems),
        ("analyzer.share", analyzer / wall_ns),
        ("analyzer.sps_in", inputs.iter().map(|i| i.sps as f64).sum()),
        ("ops.select.ns_per_tuple", per_tuple("ops.select")),
        ("ops.shield.ns_per_tuple", per_tuple("ops.shield")),
        ("ops.project.ns_per_tuple", per_tuple("ops.project")),
        ("ops.sink.ns_per_tuple", sink / sink_tuples),
        ("ops.shield.pass_ratio", ss_out as f64 / ss_in.max(1) as f64),
        ("ops.sps_forwarded", sps_fwd as f64),
        ("plan.self_ns_per_elem", plan / elems),
        (
            "plan.queue_depth_p99",
            st.reg.histogram("sp_queue_depth", "").map_or(0, |h| h.percentile(99.0)) as f64,
        ),
        ("telemetry.audit_records", st.audit_records as f64),
        ("telemetry.audit_evicted", st.audit_evicted as f64),
        ("telemetry.span_records", st.span_records as f64),
    ];
    (rows, metrics)
}

/// A traced pass's results.
pub struct TracedPass {
    pub table: LayerTable,
    /// Traced tuples/s: first push to the last push returning.
    pub tuples_per_s: f64,
    pub spans: Vec<Span>,
    pub metrics: Vec<(&'static str, f64)>,
}

/// One traced pass over the mirror plan: a `query.push` span per element
/// with operator spans beneath it and an end-of-run cut as its own span,
/// then the analyzer and sink twins.
pub fn traced_pass(input: &Input, reference: &Reference, tally: &mut Tally) -> TracedPass {
    let tracer = Tracer::new();
    let mut local: Vec<Span> = Vec::with_capacity(input.elements.len() + 8);
    let t0 = now_ns();
    let dsms = tenant_dsms(0, 0, true);
    let t1 = now_ns();
    drop(dsms.try_start().expect("tenant session starts"));
    let t2 = now_ns();
    let (builder, sink) = mirror_plan(&dsms, Some(&tracer));
    let mut exec = builder.build();

    let w0 = now_ns();
    let refused = traced_pushes(&mut exec, input, &tracer, &mut local);
    let pushed = now_ns();
    let mut store = SizingStore::default();
    let cut = tracer.root(&mut local, "checkpoint.cut", u64::MAX, || {
        store.save(&exec.checkpoint(1, input.elements.len() as u64))
    });
    let w1 = now_ns();

    tally.attempted += input.elements.len() as u64;
    if refused > 0 {
        tally.fail(refused, format!("traced pass: {refused} elements refused"));
    }
    if cut.is_err() {
        tally.fail(1, "traced pass: end-of-run checkpoint failed".into());
    }
    let got = Digest::of_tuples(exec.sink(sink).tuples());
    tally.check_released("traced mirror plan", got, reference.digest);
    let st = EngineState::read(&exec, sink);
    drop(exec); // the Traced wrappers hand their spans over on drop

    let mut twins = Vec::with_capacity(input.elements.len() + st.released.len());
    analyzer_twin(&dsms, input, &tracer, &mut twins);
    sink_twin(&st.released, &tracer, &mut twins);
    tracer.collect(&mut local);
    let pass = tracer.take();

    let wall_ns = (w1 - w0) as f64;
    let (mut rows, mut metrics) =
        engine_layers(&pass, &twins, &st, std::slice::from_ref(input), wall_ns, true);
    let cut_ns = aggregate(&pass).get("checkpoint.cut").map_or(0, |a| a.dur) as f64;
    rows.push(Row { layer: "checkpoint", self_ns: cut_ns, in_sum: true });
    let table = LayerTable {
        wall_ns,
        roots_ns: root_ns(&pass, &["query.push", "checkpoint.cut"]) as f64,
        rows,
    };

    // Cross-check: the executor times the same operator calls into
    // log2-bucketed histograms, so its sums should sit above the spans
    // by at most the bucket rounding.
    let own: u64 = (0..3)
        .filter_map(|n| {
            ["select", "ss", "project"].iter().find_map(|op| {
                st.reg.histogram("sp_operator_latency_ns", &format!("op=\"{op}\",node=\"{n}\""))
            })
        })
        .map(|h| h.sum())
        .sum();
    let spans: f64 = table
        .rows
        .iter()
        .filter(|r| r.layer.starts_with("ops.") && r.layer != "ops.sink")
        .map(|r| r.self_ns)
        .sum();
    eprintln!(
        "  cross-check: sp_operator_latency_ns sums {:.2} ms, operator spans {:.2} ms",
        own as f64 / 1e6,
        spans / 1e6
    );
    metrics.extend([
        ("query.submit_ms", (t1 - t0) as f64 / 1e6),
        ("query.start_ms", (t2 - t1) as f64 / 1e6),
        ("checkpoint.ms_per_cut", cut_ns / 1e6),
        ("checkpoint.bytes", store.bytes as f64),
        ("checkpoint.cuts", store.cuts as f64),
    ]);
    TracedPass {
        tuples_per_s: input.tuples as f64 / ((pushed - w0) as f64 / 1e9),
        table,
        spans: pass,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tenant::{generate_ticks, reference, Kind, SHARD_WIDTH};

    fn small(kind: Kind) -> (Input, Reference) {
        let input = generate_ticks(kind, 7, 0, 10);
        let reference = reference(&input);
        (input, reference)
    }

    #[test]
    fn a_dropped_released_tuple_fails_the_correctness_check() {
        let (input, reference) = small(Kind::SteadyShield);
        let mut tally = Tally::default();
        untraced_pass(&input, &reference, 0, true, &mut tally);
        assert_eq!(tally.failed, 0, "{:?}", tally.notes);

        let dsms = tenant_dsms(0, 0, true);
        let mut running = dsms.try_start().unwrap();
        for e in &input.elements {
            running.try_push(input.stream, e.clone()).unwrap();
        }
        let mut released: Vec<_> =
            running.results(dsms.queries()[0].id).tuples().cloned().collect();
        assert!(released.len() > 2);
        released.remove(released.len() / 2);
        tally.check_released("one tuple dropped", Digest::of_tuples(&released), reference.digest);
        assert_eq!(tally.failed, 1);
    }

    #[test]
    fn the_sharded_session_matches_the_sequential_reference() {
        let (input, reference) = small(Kind::SteadyShield);
        let mut tally = Tally::default();
        let sample = untraced_pass(&input, &reference, SHARD_WIDTH, true, &mut tally);
        assert_eq!(tally.failed, 0, "{:?}", tally.notes);
        let (skew, broadcast) = shard_counters(sample.metrics.as_ref().unwrap(), SHARD_WIDTH);
        assert!(skew >= 1.0 && broadcast >= input.sps as f64, "{skew} {broadcast}");
    }

    #[test]
    fn leaving_a_layer_out_fails_the_layer_sum_check() {
        for kind in [Kind::SteadyShield, Kind::PolicyChurn] {
            let (input, reference) = small(kind);
            let mut tally = Tally::default();
            let pass = traced_pass(&input, &reference, &mut tally);
            assert_eq!(tally.failed, 0, "{:?}", tally.notes);
            pass.table.check().unwrap();
            let mut table = pass.table.clone();
            table.rows.retain(|r| r.layer != "analyzer");
            assert!(table.check().is_err(), "{}", table.render());
        }
    }
}
