//! The DSMS facade: register streams, roles and subjects, submit CQL
//! queries, inject punctuations, run the engine.
//!
//! This is the top-level API the examples use:
//!
//! ```
//! use sp_core::{Schema, StreamId, ValueType};
//! use sp_query::Dsms;
//!
//! let mut dsms = Dsms::new();
//! dsms.register_stream(StreamId(1), Schema::of("S", &[("x", ValueType::Int)])).unwrap();
//! dsms.register_role("doctor").unwrap();
//! let alice = dsms.register_subject("alice", &["doctor"]).unwrap();
//! let q = dsms.submit("SELECT x FROM S", alice).unwrap();
//! let mut running = dsms.start();
//! // push StreamElements, then read running.results(q)
//! # let _ = (q, &mut running);
//! ```

use std::collections::HashMap;
use std::sync::Arc;

use sp_core::{
    QueryId, RoleId, RoleSet, Schema, SecurityPunctuation, StreamElement, StreamId, SubjectId,
    Timestamp,
};
use sp_engine::{Engine, PlanBuilder, SinkRef};

use crate::ast::Statement;
use crate::catalog::Catalog;
use crate::cost::CostModel;
use crate::lexer::QueryError;
use crate::logical::LogicalPlan;
use crate::optimizer::{Optimizer, OptimizerReport};
use crate::parser::parse;
use crate::physical::{instantiate_with, InstantiateOptions};
use crate::planner::{plan_insert_sp, plan_select};

/// A registered continuous query awaiting execution.
#[derive(Debug)]
pub struct PlannedQuery {
    /// Query id.
    pub id: QueryId,
    /// The (optimized) logical plan.
    pub plan: LogicalPlan,
    /// The roles the query inherited from its specifier.
    pub roles: RoleSet,
    /// What the optimizer did.
    pub report: OptimizerReport,
}

/// The data stream management system under construction.
#[derive(Debug, Default)]
pub struct Dsms {
    /// Streams, roles and query registrations.
    pub catalog: Catalog,
    /// The cost model used for optimization.
    pub cost_model: CostModel,
    /// Disable optimization (plans run exactly as written).
    pub optimize: bool,
    /// Enforcement granularity for every query's shields (§III-A): `Tuple`
    /// (default) drops unauthorized tuples; `Attribute` masks unauthorized
    /// attributes instead, releasing tuples visible through
    /// attribute-scoped grants.
    pub granularity: sp_engine::Granularity,
    /// Optional ingestion admission control: when set, each started
    /// session rate-limits data tuples per stream with a token bucket
    /// (burst allowance + deadline-based debt) and refuses the excess
    /// with [`sp_engine::EngineError::Overloaded`]. Security punctuations
    /// always bypass admission — overload can delay or drop data, never
    /// policy updates.
    pub admission: Option<sp_engine::AdmissionConfig>,
    /// Optional telemetry: when set, every started session arms the
    /// security audit trail (a bounded flight recorder on each analyzer
    /// and shield) and the per-operator metrics histograms; read them
    /// back via [`RunningDsms::audit_trail`] and
    /// [`RunningDsms::metrics_prometheus`].
    pub telemetry: Option<sp_engine::TelemetryConfig>,
    /// Key-partitioned shard replicas per started session. `0` (default)
    /// and `1` run the sequential executor; `n ≥ 2` makes
    /// [`Dsms::try_start`] spin up `n` shard replicas of the whole plan
    /// behind a deterministic exchange — byte-identical released sets,
    /// audit trails, and checkpoints at any shard count. Sharding
    /// requires every operator in every registered plan to be
    /// shard-safe; [`Dsms::try_start`] refuses otherwise, fail-closed.
    pub shards: usize,
    queries: Vec<PlannedQuery>,
}

impl Dsms {
    /// An empty DSMS with optimization enabled.
    #[must_use]
    pub fn new() -> Self {
        Self { optimize: true, ..Self::default() }
    }

    /// Registers a stream.
    ///
    /// # Errors
    ///
    /// Fails on duplicate names or ids.
    pub fn register_stream(&mut self, id: StreamId, schema: Arc<Schema>) -> Result<(), QueryError> {
        self.catalog.register_stream(id, schema)
    }

    /// Registers a role, returning its id.
    ///
    /// # Errors
    ///
    /// Fails on duplicates.
    pub fn register_role(&mut self, name: &str) -> Result<RoleId, QueryError> {
        self.catalog.roles.register_role(name).map_err(|e| QueryError::new(e.to_string(), 0))
    }

    /// Registers a subject with activated roles.
    ///
    /// # Errors
    ///
    /// Fails on duplicates or unknown roles.
    pub fn register_subject(
        &mut self,
        name: &str,
        roles: &[&str],
    ) -> Result<SubjectId, QueryError> {
        self.catalog
            .roles
            .register_subject(name, roles)
            .map_err(|e| QueryError::new(e.to_string(), 0))
    }

    /// Parses, plans and (optionally) optimizes a continuous SELECT query
    /// on behalf of `subject`; the query inherits the subject's roles.
    ///
    /// # Errors
    ///
    /// Fails on syntax errors, unknown streams/columns, or unknown subjects.
    pub fn submit(&mut self, sql: &str, subject: SubjectId) -> Result<QueryId, QueryError> {
        let Statement::Select(stmt) = parse(sql)? else {
            return Err(QueryError::new("expected a SELECT statement", 0));
        };
        let (id, roles) = self.catalog.register_query(subject)?;
        let plan = plan_select(&self.catalog, &stmt, &roles)?;
        let (plan, report) = if self.optimize {
            Optimizer::new(self.cost_model.clone()).optimize(&plan)
        } else {
            (plan, OptimizerReport::default())
        };
        self.queries.push(PlannedQuery { id, plan, roles, report });
        Ok(id)
    }

    /// Lowers an `INSERT SP` statement into a punctuation for injection at
    /// time `ts`.
    ///
    /// # Errors
    ///
    /// Fails on syntax errors or unknown streams.
    pub fn insert_sp(
        &self,
        sql: &str,
        ts: Timestamp,
    ) -> Result<(StreamId, SecurityPunctuation), QueryError> {
        let Statement::InsertSp(stmt) = parse(sql)? else {
            return Err(QueryError::new("expected an INSERT SP statement", 0));
        };
        plan_insert_sp(&self.catalog, &stmt, ts)
    }

    /// Registered queries (in submission order).
    #[must_use]
    pub fn queries(&self) -> &[PlannedQuery] {
        &self.queries
    }

    /// Withdraws a registered query before `start`, releasing its
    /// subject's role-assignment pin (§II-A). Returns false if the query
    /// id is unknown.
    pub fn withdraw(&mut self, id: QueryId) -> bool {
        let Some(pos) = self.queries.iter().position(|q| q.id == id) else {
            return false;
        };
        self.queries.remove(pos);
        self.catalog.deregister_query(id);
        true
    }

    /// Builds the shared physical plan (deterministically — sharded
    /// execution rebuilds it once per replica) and the query → sink map.
    ///
    /// `eager_selects` instantiates selections without the §IV-B policy
    /// delay — required under sharding, where a delaying selection
    /// mid-plan would make the shield's shard-local flushes
    /// non-deduplicable (the sharded builder refuses such plans).
    fn build_plan(&self, eager_selects: bool) -> (PlanBuilder, HashMap<QueryId, SinkRef>) {
        let mut builder = PlanBuilder::new(Arc::new(self.catalog.roles.clone()));
        let mut sources = HashMap::new();
        let mut sinks = HashMap::new();
        let opts = InstantiateOptions { granularity: self.granularity, eager_selects };
        for q in &self.queries {
            let root = instantiate_with(&q.plan, &mut builder, &mut sources, opts);
            sinks.insert(q.id, builder.sink(root));
        }
        if let Some(cfg) = self.telemetry {
            builder.enable_telemetry(cfg);
        }
        (builder, sinks)
    }

    fn running(&self, engine: Engine, sinks: HashMap<QueryId, SinkRef>) -> RunningDsms {
        RunningDsms {
            engine,
            sinks,
            errors: Vec::new(),
            input_pos: 0,
            admission: self.admission.map(sp_engine::AdmissionController::new),
        }
    }

    /// Builds the shared physical plan and starts the engine on the
    /// sequential (single-lane) executor, regardless of [`Dsms::shards`].
    /// Use [`Dsms::try_start`] for the shards-aware entry point.
    #[must_use]
    pub fn start(&self) -> RunningDsms {
        let (builder, sinks) = self.build_plan(false);
        self.running(Engine::Sequential(builder.build()), sinks)
    }

    /// Builds the shared physical plan and starts the engine honoring
    /// [`Dsms::shards`]: `0`/`1` behave exactly like [`Dsms::start`];
    /// `n ≥ 2` runs `n` key-partitioned shard replicas of the whole plan
    /// behind a deterministic exchange merge, with security punctuations
    /// broadcast to every replica.
    ///
    /// # Errors
    ///
    /// Fails closed with [`sp_engine::EngineError::ShardUnsupported`]
    /// when `shards ≥ 2` and a registered plan contains an operator
    /// whose state needs the whole stream (joins, duplicate
    /// elimination, aggregation) — hash partitioning would silently
    /// change its results, so the session is refused instead.
    /// Sharded sessions instantiate their selections *eagerly* (no
    /// §IV-B policy delay): an eager selection is policy-transparent,
    /// so the shield's shard-local flushes stay deduplicable down to
    /// the sink. Released tuples are unaffected — only policy traffic
    /// between operators grows.
    pub fn try_start(&self) -> Result<RunningDsms, sp_engine::EngineError> {
        // Every build yields the same sink map; keep the last one, so the
        // sequential path builds the plan exactly once.
        let mut sinks = HashMap::new();
        let engine = Engine::new(
            || {
                let (builder, s) = self.build_plan(self.shards > 1);
                sinks = s;
                builder
            },
            self.shards,
        )?;
        Ok(self.running(engine, sinks))
    }

    /// Restarts the DSMS from the latest durable checkpoint in `store`,
    /// or cold-starts when the store is empty.
    ///
    /// The plan is rebuilt from the registered queries (plan shape is
    /// configuration, not state), then every operator's state — including
    /// the analyzers' policy state — is restored byte-exactly. The caller
    /// replays its input from [`RunningDsms::input_pos`]; replayed
    /// elements flow through the restored policy state, so recovery can
    /// lose results but can never release a tuple the uninterrupted run
    /// would have withheld.
    ///
    /// Checkpoints are canonical across shard counts, so a session
    /// checkpointed sequentially (or at `n` shards) may resume at any
    /// [`Dsms::shards`] setting — the restore re-shards.
    ///
    /// # Errors
    ///
    /// Fails closed when the checkpoint does not match the current plan
    /// shape or any section is corrupt: no partially-restored session is
    /// ever returned.
    pub fn resume(
        &self,
        store: &dyn sp_engine::CheckpointStore,
    ) -> Result<RunningDsms, sp_engine::EngineError> {
        let mut running = self.try_start()?;
        if let Some(ckpt) = store.load_latest() {
            running.engine.restore(&ckpt)?;
            running.input_pos = ckpt.input_pos;
        }
        Ok(running)
    }
}

/// A running DSMS instance.
///
/// Observability accessors ([`RunningDsms::results`],
/// [`RunningDsms::audit_trail`], …) take `&mut self`: a sharded session
/// first synchronizes with its shard workers so the canonical state is
/// exactly up to date with everything pushed so far. Sequential sessions
/// pay nothing for the same signature.
pub struct RunningDsms {
    engine: Engine,
    sinks: HashMap<QueryId, SinkRef>,
    errors: Vec<sp_engine::EngineError>,
    input_pos: u64,
    admission: Option<sp_engine::AdmissionController>,
}

impl RunningDsms {
    /// Feeds one raw stream element.
    ///
    /// Engine errors are absorbed, not propagated: the executor fails
    /// closed (in-flight elements of the failed push are discarded, never
    /// released), and the error is recorded for [`RunningDsms::errors`].
    /// Use [`RunningDsms::try_push`] to propagate instead.
    pub fn push(&mut self, stream: StreamId, elem: StreamElement) {
        if let Err(e) = self.try_push(stream, elem) {
            self.errors.push(e);
        }
    }

    /// Feeds one raw stream element, propagating engine errors.
    ///
    /// # Errors
    ///
    /// Returns the engine's typed error when the plan rejects the element
    /// (malformed input, operator failure). The executor has already
    /// dropped the in-flight elements of this push — nothing from a
    /// failed push is released.
    pub fn try_push(
        &mut self,
        stream: StreamId,
        elem: StreamElement,
    ) -> Result<(), sp_engine::EngineError> {
        // Count the element even when the push fails: a checkpoint taken
        // afterwards must not invite a replay of the rejected element.
        self.input_pos += 1;
        if let Some(ac) = &mut self.admission {
            let is_tuple = matches!(elem, StreamElement::Tuple(_));
            ac.admit(stream, is_tuple, elem.ts())?;
        }
        self.engine.push(stream, elem)
    }

    /// How many shard replicas this session runs on (1 for sequential).
    #[must_use]
    pub fn shards(&self) -> usize {
        self.engine.shards()
    }

    /// Degradation counters for the whole session: every operator's
    /// losses (shedding, quarantine, reorder drops, ladder state) plus
    /// the ingestion admission controller's rejections.
    #[must_use]
    pub fn degradation(&mut self) -> sp_engine::DegradationStats {
        let mut d = self.engine.degradation();
        if let Some(ac) = &self.admission {
            d.absorb(&ac.degradation());
        }
        d
    }

    /// How many raw input elements this session has consumed — after
    /// [`Dsms::resume`], the position replay should continue from.
    #[must_use]
    pub fn input_pos(&self) -> u64 {
        self.input_pos
    }

    /// Takes an epoch checkpoint of the whole session (analyzer policy
    /// state, every operator, sink counters) and appends it to `store`.
    ///
    /// # Errors
    ///
    /// Propagates the store's write error; the session itself is
    /// unaffected by a failed save. A sharded session can additionally
    /// fail the cut itself when a shard worker died — the session is
    /// then failed (fail-closed), not the store.
    pub fn checkpoint_to(
        &mut self,
        epoch: u64,
        store: &mut dyn sp_engine::CheckpointStore,
    ) -> Result<(), sp_engine::EngineError> {
        let ckpt = self.engine.checkpoint(epoch, self.input_pos)?;
        store.save(&ckpt)
    }

    /// Engine errors absorbed by [`RunningDsms::push`] so far.
    #[must_use]
    pub fn errors(&self) -> &[sp_engine::EngineError] {
        &self.errors
    }

    /// The result sink of a query.
    ///
    /// # Panics
    ///
    /// Panics if the query id was not registered before `start`.
    #[must_use]
    pub fn results(&mut self, query: QueryId) -> &sp_engine::Sink {
        self.engine.sink(self.sinks[&query])
    }

    /// The session's security audit trail: every release, suppression,
    /// and quarantine decision made so far, in canonical operator order.
    /// Empty unless [`Dsms::telemetry`] was set before `start`.
    #[must_use]
    pub fn audit_trail(&mut self) -> sp_engine::AuditTrail {
        self.engine.audit_trail()
    }

    /// The session's sp-trace span sheet: the causal spans recorded by
    /// every analyzer and shield so far, in canonical operator order.
    /// Empty unless [`Dsms::telemetry`] was set with a span capacity
    /// before `start`.
    #[must_use]
    pub fn span_sheet(&mut self) -> sp_engine::SpanSheet {
        self.engine.span_sheet()
    }

    /// The session's metrics registry: per-operator logical counters
    /// (canonical — identical at any shard count), plus `sp_shard_*`
    /// series describing the shard layout when sharded.
    #[must_use]
    pub fn metrics(&mut self) -> sp_engine::MetricsRegistry {
        self.engine.metrics()
    }

    /// The session's metrics snapshot in Prometheus text exposition
    /// format (counters always; latency/queue histograms when
    /// [`Dsms::telemetry`] enabled metrics collection).
    #[must_use]
    pub fn metrics_prometheus(&mut self) -> String {
        self.engine.metrics().render_prometheus()
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use sp_core::{Tuple, TupleId, Value, ValueType};

    fn dsms() -> Dsms {
        let mut d = Dsms::new();
        d.register_stream(
            StreamId(1),
            Schema::of(
                "LocationUpdates",
                &[("obj_id", ValueType::Int), ("x", ValueType::Float), ("speed", ValueType::Float)],
            ),
        )
        .unwrap();
        d.register_role("family").unwrap();
        d.register_role("store").unwrap();
        d
    }

    fn tup(tid: u64, ts: u64, x: f64, speed: f64) -> StreamElement {
        StreamElement::tuple(Tuple::new(
            StreamId(1),
            TupleId(tid),
            Timestamp(ts),
            vec![Value::Int(tid as i64), Value::Float(x), Value::Float(speed)],
        ))
    }

    #[test]
    fn end_to_end_query_with_cql_punctuations() {
        let mut d = dsms();
        let alice = d.register_subject("alice", &["family"]).unwrap();
        let q = d.submit("SELECT obj_id, x FROM LocationUpdates WHERE speed > 1", alice).unwrap();

        let (sid, sp) = d
            .insert_sp(
                "INSERT SP INTO STREAM LocationUpdates LET DDP = ('*', '*', '*'), SRP = 'family'",
                Timestamp(0),
            )
            .unwrap();

        let mut running = d.start();
        running.push(sid, StreamElement::punctuation(sp));
        running.push(StreamId(1), tup(1, 1, 5.0, 2.0));
        running.push(StreamId(1), tup(2, 2, 6.0, 0.5)); // filtered by speed
        let results: Vec<u64> = running.results(q).tuples().map(|t| t.tid.raw()).collect();
        assert_eq!(results, vec![1]);
    }

    #[test]
    fn unauthorized_subject_sees_nothing() {
        let mut d = dsms();
        let bob = d.register_subject("bob", &["store"]).unwrap();
        let q = d.submit("SELECT obj_id FROM LocationUpdates", bob).unwrap();
        let (sid, sp) = d
            .insert_sp(
                "INSERT SP INTO STREAM LocationUpdates LET DDP = ('*', '*', '*'), SRP = 'family'",
                Timestamp(0),
            )
            .unwrap();
        let mut running = d.start();
        running.push(sid, StreamElement::punctuation(sp));
        running.push(StreamId(1), tup(1, 1, 5.0, 2.0));
        assert_eq!(running.results(q).tuple_count(), 0);
    }

    #[test]
    fn multiple_queries_share_the_source() {
        let mut d = dsms();
        let alice = d.register_subject("alice", &["family"]).unwrap();
        let bob = d.register_subject("bob", &["store"]).unwrap();
        let qa = d.submit("SELECT obj_id FROM LocationUpdates", alice).unwrap();
        let qb = d.submit("SELECT obj_id FROM LocationUpdates", bob).unwrap();
        let (sid, sp) = d
            .insert_sp(
                "INSERT SP INTO STREAM LocationUpdates LET DDP = ('*', '*', '*'), SRP = 'store'",
                Timestamp(0),
            )
            .unwrap();
        let mut running = d.start();
        running.push(sid, StreamElement::punctuation(sp));
        running.push(StreamId(1), tup(7, 1, 0.0, 0.0));
        assert_eq!(running.results(qa).tuple_count(), 0);
        assert_eq!(running.results(qb).tuple_count(), 1);
    }

    #[test]
    fn submit_rejects_non_select() {
        let mut d = dsms();
        let alice = d.register_subject("alice", &["family"]).unwrap();
        assert!(d
            .submit("INSERT SP INTO STREAM LocationUpdates LET DDP = ('*','*','*'), SRP='x'", alice)
            .is_err());
    }

    #[test]
    fn withdraw_releases_the_subject_pin() {
        let mut d = dsms();
        let alice = d.register_subject("alice", &["family"]).unwrap();
        let q = d.submit("SELECT obj_id FROM LocationUpdates", alice).unwrap();
        // Pinned while registered.
        assert!(d.catalog.roles.reassign_subject_roles(alice, &["store"]).is_err());
        assert!(d.withdraw(q));
        assert!(!d.withdraw(q), "second withdrawal is a no-op");
        assert!(d.catalog.roles.reassign_subject_roles(alice, &["store"]).is_ok());
        assert!(d.queries().is_empty());
    }

    #[test]
    fn checkpoint_resume_continues_without_leaking() {
        let mut d = dsms();
        let alice = d.register_subject("alice", &["family"]).unwrap();
        let q = d.submit("SELECT obj_id FROM LocationUpdates", alice).unwrap();
        let (sid, sp) = d
            .insert_sp(
                "INSERT SP INTO STREAM LocationUpdates LET DDP = ('*', '*', '*'), SRP = 'family'",
                Timestamp(0),
            )
            .unwrap();
        let mut input = vec![(sid, StreamElement::punctuation(sp))];
        for i in 1..=12 {
            input.push((StreamId(1), tup(i, i, 1.0, 2.0)));
        }

        // Uninterrupted baseline.
        let mut base = d.start();
        for (s, e) in &input {
            base.push(*s, e.clone());
        }
        let baseline: Vec<u64> = base.results(q).tuples().map(|t| t.tid.raw()).collect();
        assert_eq!(baseline.len(), 12);

        // Run half, checkpoint, crash, resume, replay the rest.
        let mut store = sp_engine::MemStore::default();
        let mut run = d.start();
        for (s, e) in input.iter().take(7) {
            run.push(*s, e.clone());
        }
        run.checkpoint_to(1, &mut store).unwrap();
        drop(run); // crash

        let mut resumed = d.resume(&store).unwrap();
        assert_eq!(resumed.input_pos(), 7);
        for (s, e) in input.iter().skip(7) {
            resumed.push(*s, e.clone());
        }
        let got: Vec<u64> = resumed.results(q).tuples().map(|t| t.tid.raw()).collect();
        // Pre-crash deliveries left the system; post-resume output is
        // exactly the baseline's suffix — the restored policy state
        // releases the same tuples, never more.
        assert_eq!(got.len(), 6);
        assert!(baseline.ends_with(&got), "resumed run released {got:?}");
        assert!(resumed.errors().is_empty());
    }

    #[test]
    fn resume_from_empty_store_cold_starts() {
        let mut d = dsms();
        let alice = d.register_subject("alice", &["family"]).unwrap();
        let _q = d.submit("SELECT obj_id FROM LocationUpdates", alice).unwrap();
        let store = sp_engine::MemStore::default();
        let running = d.resume(&store).unwrap();
        assert_eq!(running.input_pos(), 0);
    }

    #[test]
    fn resume_refuses_checkpoint_from_a_different_plan() {
        let mut d = dsms();
        let alice = d.register_subject("alice", &["family"]).unwrap();
        let _q = d.submit("SELECT obj_id FROM LocationUpdates", alice).unwrap();
        let mut store = sp_engine::MemStore::default();
        d.start().checkpoint_to(0, &mut store).unwrap();

        // A second query changes the plan shape; the stale checkpoint
        // must be refused outright, not partially applied.
        let bob = d.register_subject("bob", &["store"]).unwrap();
        let _q2 = d.submit("SELECT x FROM LocationUpdates", bob).unwrap();
        assert!(d.resume(&store).is_err());
    }

    #[test]
    fn optimizer_report_is_recorded() {
        let mut d = dsms();
        d.register_stream(
            StreamId(2),
            Schema::of("Regions", &[("obj_id", ValueType::Int), ("region", ValueType::Int)]),
        )
        .unwrap();
        let alice = d.register_subject("alice", &["family"]).unwrap();
        let _q = d
            .submit(
                "SELECT a.obj_id FROM LocationUpdates [RANGE 10 SECONDS] AS a, \
                 Regions [RANGE 10 SECONDS] AS b WHERE a.obj_id = b.obj_id",
                alice,
            )
            .unwrap();
        let q = &d.queries()[0];
        assert!(q.report.final_cost <= q.report.initial_cost);
        assert!(q.plan.shield_count() >= 1);
    }

    #[test]
    fn admission_refuses_excess_tuples_with_retry_hint() {
        let mut d = dsms();
        let alice = d.register_subject("alice", &["family"]).unwrap();
        let q = d.submit("SELECT obj_id FROM LocationUpdates", alice).unwrap();
        let (sid, sp) = d
            .insert_sp(
                "INSERT SP INTO STREAM LocationUpdates LET DDP = ('*', '*', '*'), SRP = 'family'",
                Timestamp(0),
            )
            .unwrap();
        // 1 token/sec, burst of 2, no debt allowance: the third tuple in
        // the same millisecond must be refused with a retry hint.
        d.admission = Some(sp_engine::AdmissionConfig {
            tokens_per_sec: 1,
            burst: 2,
            enqueue_deadline_ms: 0,
        });
        let mut running = d.start();
        running.push(sid, StreamElement::punctuation(sp));
        assert!(running.try_push(StreamId(1), tup(1, 1, 5.0, 2.0)).is_ok());
        assert!(running.try_push(StreamId(1), tup(2, 1, 5.0, 2.0)).is_ok());
        let err = running.try_push(StreamId(1), tup(3, 1, 5.0, 2.0)).unwrap_err();
        match err {
            sp_engine::EngineError::Overloaded { retry_after_ms } => {
                assert!(retry_after_ms > 0);
            }
            other => panic!("expected Overloaded, got {other:?}"),
        }
        // The admitted tuples were released; the refused one never
        // entered the plan.
        let results: Vec<u64> = running.results(q).tuples().map(|t| t.tid.raw()).collect();
        assert_eq!(results, vec![1, 2]);
        assert_eq!(running.degradation().admission_rejected, 1);
    }

    #[test]
    fn admission_never_refuses_punctuations() {
        let mut d = dsms();
        let alice = d.register_subject("alice", &["family"]).unwrap();
        let q = d.submit("SELECT obj_id FROM LocationUpdates", alice).unwrap();
        d.admission = Some(sp_engine::AdmissionConfig {
            tokens_per_sec: 1,
            burst: 1,
            enqueue_deadline_ms: 0,
        });
        let mut running = d.start();
        // Exhaust the bucket with the single burst token.
        assert!(running.try_push(StreamId(1), tup(1, 1, 5.0, 2.0)).is_ok());
        assert!(running.try_push(StreamId(1), tup(2, 1, 5.0, 2.0)).is_err());
        // A punctuation still goes through at zero balance: overload may
        // drop data, never policy updates.
        let (sid, sp) = d
            .insert_sp(
                "INSERT SP INTO STREAM LocationUpdates LET DDP = ('*', '*', '*'), SRP = 'family'",
                Timestamp(1),
            )
            .unwrap();
        assert!(running.try_push(sid, StreamElement::punctuation(sp)).is_ok());
        // The sp arrived after the tuples, so nothing is released — but
        // the policy state advanced, which is what matters here.
        assert_eq!(running.results(q).tuple_count(), 0);
    }

    #[test]
    fn sharded_session_matches_sequential() {
        let mut d = dsms();
        let alice = d.register_subject("alice", &["family"]).unwrap();
        let q = d.submit("SELECT obj_id, x FROM LocationUpdates WHERE speed > 1", alice).unwrap();
        let (sid, sp) = d
            .insert_sp(
                "INSERT SP INTO STREAM LocationUpdates LET DDP = ('*', '*', '*'), SRP = 'family'",
                Timestamp(0),
            )
            .unwrap();
        d.telemetry = Some(sp_engine::TelemetryConfig {
            audit_capacity: 1024,
            span_capacity: 1024,
            metrics: false,
        });
        let mut input = vec![(sid, StreamElement::punctuation(sp))];
        for i in 1..=40 {
            input.push((StreamId(1), tup(i, i, 1.0, if i % 3 == 0 { 0.5 } else { 2.0 })));
        }

        let mut seq = d.start();
        for (s, e) in &input {
            seq.push(*s, e.clone());
        }
        let want: Vec<u64> = seq.results(q).tuples().map(|t| t.tid.raw()).collect();
        let want_trail = seq.audit_trail().encode_to_vec();
        assert!(!want.is_empty());

        for shards in [1usize, 2, 4] {
            d.shards = shards;
            let mut run = d.try_start().unwrap();
            assert_eq!(run.shards(), shards.max(1));
            for (s, e) in &input {
                run.push(*s, e.clone());
            }
            let got: Vec<u64> = run.results(q).tuples().map(|t| t.tid.raw()).collect();
            assert_eq!(got, want, "released set diverged at {shards} shards");
            assert_eq!(
                run.audit_trail().encode_to_vec(),
                want_trail,
                "audit trail diverged at {shards} shards"
            );
            assert!(run.errors().is_empty());
        }
    }

    #[test]
    fn sharded_session_checkpoint_resumes_at_other_width() {
        let mut d = dsms();
        let alice = d.register_subject("alice", &["family"]).unwrap();
        let q = d.submit("SELECT obj_id FROM LocationUpdates", alice).unwrap();
        let (sid, sp) = d
            .insert_sp(
                "INSERT SP INTO STREAM LocationUpdates LET DDP = ('*', '*', '*'), SRP = 'family'",
                Timestamp(0),
            )
            .unwrap();
        let mut input = vec![(sid, StreamElement::punctuation(sp))];
        for i in 1..=20 {
            input.push((StreamId(1), tup(i, i, 1.0, 2.0)));
        }

        let mut base = d.start();
        for (s, e) in &input {
            base.push(*s, e.clone());
        }
        let baseline: Vec<u64> = base.results(q).tuples().map(|t| t.tid.raw()).collect();

        // Checkpoint at 4 shards, resume at 2.
        d.shards = 4;
        let mut store = sp_engine::MemStore::default();
        let mut run = d.try_start().unwrap();
        for (s, e) in input.iter().take(11) {
            run.push(*s, e.clone());
        }
        run.checkpoint_to(1, &mut store).unwrap();
        drop(run);

        d.shards = 2;
        let mut resumed = d.resume(&store).unwrap();
        assert_eq!(resumed.shards(), 2);
        assert_eq!(resumed.input_pos(), 11);
        for (s, e) in input.iter().skip(11) {
            resumed.push(*s, e.clone());
        }
        let got: Vec<u64> = resumed.results(q).tuples().map(|t| t.tid.raw()).collect();
        assert!(baseline.ends_with(&got), "re-sharded resume released {got:?}");
        assert!(resumed.errors().is_empty());
    }

    #[test]
    fn try_start_refuses_unshardable_plans() {
        let mut d = dsms();
        d.register_stream(
            StreamId(2),
            Schema::of("Regions", &[("obj_id", ValueType::Int), ("region", ValueType::Int)]),
        )
        .unwrap();
        let alice = d.register_subject("alice", &["family"]).unwrap();
        let _q = d
            .submit(
                "SELECT a.obj_id FROM LocationUpdates [RANGE 10 SECONDS] AS a, \
                 Regions [RANGE 10 SECONDS] AS b WHERE a.obj_id = b.obj_id",
                alice,
            )
            .unwrap();
        d.shards = 4;
        let got = d.try_start();
        assert!(matches!(got, Err(sp_engine::EngineError::ShardUnsupported { .. })));
        // shards ≤ 1 still starts the same plan sequentially.
        d.shards = 0;
        let _running = d.try_start().unwrap();
    }

    #[test]
    fn push_records_admission_errors() {
        let mut d = dsms();
        let alice = d.register_subject("alice", &["family"]).unwrap();
        let _q = d.submit("SELECT obj_id FROM LocationUpdates", alice).unwrap();
        d.admission = Some(sp_engine::AdmissionConfig {
            tokens_per_sec: 1,
            burst: 1,
            enqueue_deadline_ms: 0,
        });
        let mut running = d.start();
        running.push(StreamId(1), tup(1, 1, 5.0, 2.0));
        running.push(StreamId(1), tup(2, 1, 5.0, 2.0));
        assert_eq!(running.errors().len(), 1);
        assert!(matches!(running.errors()[0], sp_engine::EngineError::Overloaded { .. }));
        // input_pos still counts the rejected element so a later
        // checkpoint does not invite its replay.
        assert_eq!(running.input_pos(), 2);
    }
}
