//! One executor surface over both ways of running a plan.
//!
//! An [`Engine`] is either the sequential [`Executor`] or the
//! key-partitioned [`ShardedExecutor`]; callers (the supervisor, the
//! query session) drive it through one set of methods and never pick
//! between the two themselves. Width 0 or 1 *is* the sequential
//! executor: [`Engine::new`] builds the plan once and runs it on one
//! lane. Both kinds release the same tuples and write byte-identical
//! audit trails, span sheets and checkpoints, so the choice is only a
//! question of speed.

use sp_core::{StreamElement, StreamId};

use crate::checkpoint::Checkpoint;
use crate::error::EngineError;
use crate::ops::Sink;
use crate::plan::{Executor, PlanBuilder, SinkRef};
use crate::shard::ShardedExecutor;
use crate::stats::DegradationStats;
use crate::telemetry::{AuditTrail, MetricsRegistry, SpanSheet};

/// A running plan: one sequential lane, or `n ≥ 2` key-partitioned
/// shard replicas behind a deterministic exchange merge.
///
/// Accessors take `&mut self` because a sharded engine first
/// synchronizes with its shard workers; the sequential engine pays
/// nothing for the same signature.
pub enum Engine {
    /// The pipelined single-thread executor.
    Sequential(Executor),
    /// `n ≥ 2` shard replicas of the plan.
    Sharded(ShardedExecutor),
}

impl Engine {
    /// Runs the plan `make` produces at `shards` replicas. `0` and `1`
    /// call `make` once and run the sequential executor; `n ≥ 2` calls
    /// it `n + 1` times (see [`ShardedExecutor::new`]), so it must build
    /// the same plan every call.
    ///
    /// # Errors
    ///
    /// [`EngineError::ShardUnsupported`] when `shards ≥ 2` and an
    /// operator cannot be replicated across key partitions.
    pub fn new(mut make: impl FnMut() -> PlanBuilder, shards: usize) -> Result<Self, EngineError> {
        if shards <= 1 {
            Ok(Self::Sequential(make().build()))
        } else {
            ShardedExecutor::new(make, shards).map(Self::Sharded)
        }
    }

    /// Feeds one raw stream element (see [`Executor::push`]).
    ///
    /// # Errors
    ///
    /// The first engine error, fail-closed: nothing from a failed push
    /// is released.
    #[inline]
    pub fn push(&mut self, stream: StreamId, elem: StreamElement) -> Result<(), EngineError> {
        match self {
            Self::Sequential(exec) => exec.push(stream, elem),
            Self::Sharded(exec) => exec.push(stream, elem),
        }
    }

    /// Feeds a whole recorded input (see [`Executor::push_all`]).
    ///
    /// # Errors
    ///
    /// Stops at and returns the first engine error, fail-closed.
    pub fn push_all(
        &mut self,
        items: impl IntoIterator<Item = (StreamId, StreamElement)>,
    ) -> Result<(), EngineError> {
        match self {
            Self::Sequential(exec) => exec.push_all(items),
            Self::Sharded(exec) => exec.push_all(items),
        }
    }

    /// Flushes end-of-stream work (see [`Executor::finish`]).
    ///
    /// # Errors
    ///
    /// Propagates the first engine error.
    pub fn finish(&mut self) -> Result<(), EngineError> {
        match self {
            Self::Sequential(exec) => exec.finish(),
            Self::Sharded(exec) => exec.finish(),
        }
    }

    /// Cuts a canonical checkpoint at the current (quiescent) point; the
    /// bytes are the same at any shard count.
    ///
    /// # Errors
    ///
    /// A sharded engine fails the cut when a shard worker died or the
    /// replicas diverged; the sequential cut cannot fail.
    pub fn checkpoint(&mut self, epoch: u64, input_pos: u64) -> Result<Checkpoint, EngineError> {
        match self {
            Self::Sequential(exec) => Ok(exec.checkpoint(epoch, input_pos)),
            Self::Sharded(exec) => exec.checkpoint(epoch, input_pos),
        }
    }

    /// Restores a freshly built engine from a checkpoint cut at any
    /// shard count.
    ///
    /// # Errors
    ///
    /// Fails closed on a shape mismatch or a corrupt section; the engine
    /// must then be discarded.
    pub fn restore(&mut self, ckpt: &Checkpoint) -> Result<(), EngineError> {
        match self {
            Self::Sequential(exec) => exec.restore(ckpt),
            Self::Sharded(exec) => exec.restore(ckpt),
        }
    }

    /// Arms per-operator flight recorders (0 leaves them off). Call
    /// before the first push.
    pub fn set_audit(&mut self, capacity: usize) {
        match self {
            Self::Sequential(exec) => exec.set_audit(capacity),
            Self::Sharded(exec) => exec.set_audit(capacity),
        }
    }

    /// Arms sp-trace span recorders (0 leaves them off). Call before the
    /// first push.
    pub fn set_spans(&mut self, capacity: usize) {
        match self {
            Self::Sequential(exec) => exec.set_spans(capacity),
            Self::Sharded(exec) => exec.set_spans(capacity),
        }
    }

    /// A sink's collected results.
    pub fn sink(&mut self, s: SinkRef) -> &Sink {
        match self {
            Self::Sequential(exec) => exec.sink(s),
            Self::Sharded(exec) => exec.sink(s),
        }
    }

    /// Fail-closed degradation counters over every analyzer and operator.
    pub fn degradation(&mut self) -> DegradationStats {
        match self {
            Self::Sequential(exec) => exec.degradation(),
            Self::Sharded(exec) => exec.degradation(),
        }
    }

    /// The plan-wide audit trail in canonical section order.
    pub fn audit_trail(&mut self) -> AuditTrail {
        match self {
            Self::Sequential(exec) => exec.audit_trail(),
            Self::Sharded(exec) => exec.audit_trail(),
        }
    }

    /// The plan-wide span sheet in canonical section order.
    pub fn span_sheet(&mut self) -> SpanSheet {
        match self {
            Self::Sequential(exec) => exec.span_sheet(),
            Self::Sharded(exec) => exec.span_sheet(),
        }
    }

    /// A point-in-time metrics snapshot: canonical per-operator counters
    /// (identical at any shard count), plus the `sp_shard_*` series when
    /// sharded. Render it with
    /// [`MetricsRegistry::render_prometheus`].
    pub fn metrics(&mut self) -> MetricsRegistry {
        match self {
            Self::Sequential(exec) => exec.metrics(),
            Self::Sharded(exec) => exec.metrics(),
        }
    }

    /// How many replicas run the plan (1 for the sequential executor).
    #[must_use]
    pub fn shards(&self) -> usize {
        match self {
            Self::Sequential(_) => 1,
            Self::Sharded(exec) => exec.shards(),
        }
    }
}
