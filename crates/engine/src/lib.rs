//! # sp-engine — a security-aware stream operator framework
//!
//! A from-scratch DSMS substrate (standing in for CAPE, the engine used by
//! the paper) implementing the *security-aware query algebra* of
//! *"A Security Punctuation Framework for Enforcing Access Control on
//! Streaming Data"* (ICDE 2008):
//!
//! * [`element`] — engine stream elements: tuples interleaved with resolved
//!   segment policies;
//! * [`analyzer`] — the SP Analyzer: sp-batch resolution, server-policy
//!   combination, similar-policy merging;
//! * [`batch`] — segment-run batches ([`batch::ElementBatch`]): the
//!   executors move kind-homogeneous runs of elements
//!   cut at sp-batch / punctuation / epoch boundaries, amortizing
//!   dispatch, queueing, and telemetry over whole runs;
//! * [`expr`] — scalar expressions for predicates and join conditions;
//! * [`operator`] / [`stats`] — the pipelined operator abstraction with
//!   per-cause cost accounting;
//! * [`ops`] — the algebra: Security Shield (ψ), select (σ), project (π),
//!   SAJoin (⋈, nested-loop PF/FP and SPIndex variants), duplicate
//!   elimination (δ), group-by with attribute subgroups;
//! * [`plan`] — plan DAGs with shared subplans and the push-based executor;
//! * [`shard`] — key-partitioned scale-*out*: N shard replicas behind a
//!   deterministic exchange merge, with broadcast sps, shard-spanning
//!   canonical checkpoints, and byte-identical observables at any shard
//!   count;
//! * [`engine`] — one executor surface ([`Engine`]) over the sequential
//!   and the sharded executor, which the supervisor and the query
//!   session drive;
//! * [`error`] — typed runtime errors: hostile input fails a query, not
//!   the process;
//! * [`fault`] — deterministic seeded fault injection (drop / duplicate /
//!   reorder / delay / corrupt) and the chaos harness over whole plans;
//! * [`reorder`] — a K-slack buffer restoring timestamp order for
//!   out-of-order arrivals (the substrate §II-B defers to prior work);
//! * [`slack`] — the shared lateness bound ([`slack::Slack`]) used by both
//!   the reorder buffer and the load shedder, so "late" means one thing;
//! * [`overload`] — security-aware overload management: the degradation
//!   ladder, semantic load shedding (sps are lossless control traffic,
//!   only data tuples shed), and token-bucket admission control at the
//!   ingestion boundary;
//! * [`checkpoint`] — epoch checkpoints: canonical per-operator snapshots,
//!   CRC-framed [`Checkpoint`] records, and append-only durable stores
//!   that fall back past torn or corrupted frames;
//! * [`supervisor`] — crash supervision: periodic epoch cuts, restart
//!   with restore + deterministic replay, bounded exponential backoff,
//!   and a terminal fail-closed state that refuses input rather than
//!   leak it;
//! * [`predicate_index`] — the CACQ-style grouped filter over SS states
//!   that §V-A suggests for many-query shields;
//! * [`telemetry`] — the security-decision audit trail and the sp-trace
//!   span plane (deterministic per-operator record rings), and mergeable
//!   log₂ histograms with Prometheus text export.

#![warn(missing_docs)]

pub mod analyzer;
pub mod batch;
pub mod checkpoint;
pub mod element;
pub mod engine;
pub mod error;
pub mod expr;
pub mod fault;
pub mod operator;
pub mod ops;
pub mod overload;
pub mod plan;
pub mod predicate_index;
pub mod reorder;
pub mod shard;
pub mod slack;
pub mod stats;
pub mod supervisor;
pub mod telemetry;
pub mod window;

pub use analyzer::{QuarantinePolicy, SpAnalyzer};
pub use batch::ElementBatch;
pub use checkpoint::{Checkpoint, CheckpointStore, FileStore, MemStore};
pub use element::{Element, PolicyEntry, SegmentPolicy};
pub use engine::Engine;
pub use error::EngineError;
pub use expr::{ArithOp, CmpOp, Expr};
pub use fault::{
    ChaosReport, CipherFaultInjector, CipherFaultPlan, CipherFaultStats, FaultInjector, FaultPlan,
    FaultStats, LinkFaultInjector, LinkFaultPlan, LinkFaultStats, SocketEvent, SocketFaultInjector,
    SocketFaultPlan, SocketFaultStats,
};
pub use operator::{run_unary, Emitter, Operator};
pub use ops::{
    AggFunc, DupElim, Granularity, GroupBy, JoinVariant, MatchMode, Project, SAIntersect, SAJoin,
    SecurityShield, Select, Sink, Union,
};
pub use overload::{
    AdmissionConfig, AdmissionController, DegradationLadder, LadderTransition, OverloadLevel,
    ShedPolicy, Shedder, ShedderConfig, WatermarkConfig,
};
pub use plan::{Executor, NodeRef, PlanBuilder, SinkRef, SourceRef, Upstream};
pub use predicate_index::{PredicateIndex, QuerySet};
pub use reorder::ReorderBuffer;
pub use shard::{Partitioner, ShardedExecutor};
pub use slack::Slack;
pub use stats::{CostKind, DegradationStats, OperatorStats};
pub use supervisor::{
    run_supervised, RecoveryReport, SupervisedRun, SupervisorConfig, DEFAULT_EPOCH_INTERVAL,
};
pub use telemetry::{
    AuditEvent, AuditOp, AuditRecord, AuditTrail, CipherViolation, FlightRecorder, Histogram,
    LagTracker, MetricsRegistry, QuarantineReason, Record, Ring, Sheet, SpanRecord, SpanRecorder,
    SpanSheet, TelemetryConfig,
};
pub use window::WindowSpec;
