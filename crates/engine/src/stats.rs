//! Per-operator cost accounting.
//!
//! Every operator owns an [`OperatorStats`]: logical counters (tuples and
//! sps in and out, tuples shielded) plus time buckets by cause. Per-call
//! operator time is not kept here: the executor samples it, timing about
//! one `process_batch` call per 64 elements and charging the calls in
//! between the last measured per-element cost (`Executor::elapsed`, the
//! `sp_operator_latency_ns` histogram). Only the stateful binary
//! operators, `SAJoin` and `SAIntersect`, charge buckets by cause — join
//! probing, punctuation maintenance, window maintenance — because the
//! executor cannot see inside a call; the Fig. 9 harness reads that
//! split. Every other operator reads no clock at all.

use std::time::Duration;

/// Cost buckets of the stateful binary operators (the Fig. 9 split).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CostKind {
    /// Join probing and result construction (SAJoin breakdown).
    Join,
    /// Punctuation/index maintenance in stateful operators.
    SpMaintenance,
    /// Window/tuple state maintenance (insertion + invalidation).
    TupleMaintenance,
}

/// Mutable counters for one operator instance.
#[derive(Debug, Default, Clone)]
pub struct OperatorStats {
    /// Tuples processed.
    pub tuples_in: u64,
    /// Tuples emitted.
    pub tuples_out: u64,
    /// Policies (sp-batches) processed.
    pub sps_in: u64,
    /// Policies emitted.
    pub sps_out: u64,
    /// Tuples discarded by access control.
    pub tuples_shielded: u64,
    join_time: Duration,
    sp_maint_time: Duration,
    tuple_maint_time: Duration,
}

impl OperatorStats {
    /// Fresh counters.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Charges `elapsed` into the given bucket.
    pub fn charge(&mut self, kind: CostKind, elapsed: Duration) {
        match kind {
            CostKind::Join => self.join_time += elapsed,
            CostKind::SpMaintenance => self.sp_maint_time += elapsed,
            CostKind::TupleMaintenance => self.tuple_maint_time += elapsed,
        }
    }

    /// Time spent in the given bucket.
    #[must_use]
    pub fn time(&self, kind: CostKind) -> Duration {
        match kind {
            CostKind::Join => self.join_time,
            CostKind::SpMaintenance => self.sp_maint_time,
            CostKind::TupleMaintenance => self.tuple_maint_time,
        }
    }

    /// Total time across all buckets.
    #[must_use]
    pub fn total_time(&self) -> Duration {
        self.join_time + self.sp_maint_time + self.tuple_maint_time
    }

    /// Serializes the five logical counters (big-endian `u64`s) for an
    /// epoch checkpoint. The wall-clock cost buckets are deliberately
    /// excluded: they are host-dependent measurements, not replayable
    /// state, and including them would break byte-identical checkpoint
    /// comparison across runs.
    pub fn encode_counters(&self, buf: &mut Vec<u8>) {
        for v in [self.tuples_in, self.tuples_out, self.sps_in, self.sps_out, self.tuples_shielded]
        {
            buf.extend_from_slice(&v.to_be_bytes());
        }
    }

    /// Restores the logical counters written by
    /// [`OperatorStats::encode_counters`], leaving time buckets untouched.
    ///
    /// # Errors
    ///
    /// Fails on truncation.
    pub fn decode_counters(&mut self, buf: &mut impl bytes::Buf) -> Result<(), String> {
        if buf.remaining() < 5 * 8 {
            return Err("truncated operator counters".into());
        }
        self.tuples_in = buf.get_u64();
        self.tuples_out = buf.get_u64();
        self.sps_in = buf.get_u64();
        self.sps_out = buf.get_u64();
        self.tuples_shielded = buf.get_u64();
        Ok(())
    }

    /// Merges another operator's counters into this one.
    pub fn merge(&mut self, other: &OperatorStats) {
        self.tuples_in += other.tuples_in;
        self.tuples_out += other.tuples_out;
        self.sps_in += other.sps_in;
        self.sps_out += other.sps_out;
        self.tuples_shielded += other.tuples_shielded;
        self.join_time += other.join_time;
        self.sp_maint_time += other.sp_maint_time;
        self.tuple_maint_time += other.tuple_maint_time;
    }
}

/// Counters describing **fail-closed degradation**: what the engine
/// refused to release (rather than guessed at) when the stream
/// misbehaved — lost/late sps, out-of-order arrivals, corrupted frames.
///
/// Aggregated per stream by the SP Analyzer and summed across a plan by
/// `Executor::degradation`; the evaluation harness prints them so every
/// run makes its losses visible instead of silently under-reporting.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DegradationStats {
    /// Punctuations dropped because their DDP named another stream.
    pub sps_filtered: u64,
    /// Segment policies suppressed as identical to the previous one.
    pub sps_merged: u64,
    /// Sp-batches discarded for arriving older than the current policy
    /// (hardened mode: a late batch must not roll authorizations back).
    pub stale_sp_batches: u64,
    /// Tuples held back because no fresh-enough policy governed them.
    pub quarantined: u64,
    /// Quarantined tuples released when their policy arrived in time.
    pub quarantine_released: u64,
    /// Quarantined tuples dropped — timed out, or evicted by the
    /// quarantine capacity bound. Never released unshielded.
    pub quarantine_dropped: u64,
    /// Elements dropped by a `ReorderBuffer` for arriving too late.
    pub reorder_dropped: u64,
    /// Wire frames lost to corruption (from `sp_core::wire::FrameDecoder`).
    pub corrupted_frames: u64,
    /// Epoch checkpoints persisted by a supervisor.
    pub checkpoints_taken: u64,
    /// Checkpoints restored into a rebuilt pipeline after a crash.
    pub checkpoints_restored: u64,
    /// Epochs re-processed from source replay during recovery.
    pub epochs_replayed: u64,
    /// Input elements refused (never processed) because recovery entered
    /// its terminal fail-closed state. Lost, never leaked.
    pub recovery_dropped: u64,
    /// Pipeline restart attempts made by a supervisor.
    pub restart_attempts: u64,
    /// Data tuples dropped by a load shedder. Policies/sps are control
    /// traffic and are never counted here — a shedder that drops one is
    /// broken, and the overload proptests prove the harness catches it.
    pub shed_tuples: u64,
    /// Tuples shed at the top rungs of the degradation ladder
    /// (CriticalShedding discards predicate-unmatched tuples, FailClosed
    /// refuses all data). A subset of [`DegradationStats::shed_tuples`].
    pub shed_critical: u64,
    /// Data tuples refused by the admission controller at the ingestion
    /// boundary (typed `Overloaded { retry_after }`, never buffered).
    pub admission_rejected: u64,
    /// Degradation-ladder escalations (one per upward rung transition).
    pub ladder_escalations: u64,
    /// Degradation-ladder recoveries (one per downward rung transition).
    pub ladder_recoveries: u64,
    /// Highest ladder rung reached: 0 Normal, 1 Shedding,
    /// 2 CriticalShedding, 3 FailClosed. `absorb` takes the max.
    pub overload_peak: u64,
    /// Current ladder rung at the time the stats were read (same scale as
    /// [`DegradationStats::overload_peak`]). `absorb` takes the max.
    pub overload_level: u64,
}

impl DegradationStats {
    /// Fresh zeroed counters.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Accumulates another block of counters into this one.
    pub fn absorb(&mut self, other: &DegradationStats) {
        self.sps_filtered += other.sps_filtered;
        self.sps_merged += other.sps_merged;
        self.stale_sp_batches += other.stale_sp_batches;
        self.quarantined += other.quarantined;
        self.quarantine_released += other.quarantine_released;
        self.quarantine_dropped += other.quarantine_dropped;
        self.reorder_dropped += other.reorder_dropped;
        self.corrupted_frames += other.corrupted_frames;
        self.checkpoints_taken += other.checkpoints_taken;
        self.checkpoints_restored += other.checkpoints_restored;
        self.epochs_replayed += other.epochs_replayed;
        self.recovery_dropped += other.recovery_dropped;
        self.restart_attempts += other.restart_attempts;
        self.shed_tuples += other.shed_tuples;
        self.shed_critical += other.shed_critical;
        self.admission_rejected += other.admission_rejected;
        self.ladder_escalations += other.ladder_escalations;
        self.ladder_recoveries += other.ladder_recoveries;
        self.overload_peak = self.overload_peak.max(other.overload_peak);
        self.overload_level = self.overload_level.max(other.overload_level);
    }

    /// Every counter paired with a stable metric name, in declaration
    /// order — the telemetry layer's export surface, so a new counter
    /// added here shows up in the Prometheus/JSON snapshots without
    /// further wiring. The last two (`overload_peak`, `overload_level`)
    /// are gauges combined by max in [`DegradationStats::absorb`], not
    /// monotone counts.
    #[must_use]
    pub fn named_counters(&self) -> [(&'static str, u64); 20] {
        [
            ("sps_filtered", self.sps_filtered),
            ("sps_merged", self.sps_merged),
            ("stale_sp_batches", self.stale_sp_batches),
            ("quarantined", self.quarantined),
            ("quarantine_released", self.quarantine_released),
            ("quarantine_dropped", self.quarantine_dropped),
            ("reorder_dropped", self.reorder_dropped),
            ("corrupted_frames", self.corrupted_frames),
            ("checkpoints_taken", self.checkpoints_taken),
            ("checkpoints_restored", self.checkpoints_restored),
            ("epochs_replayed", self.epochs_replayed),
            ("recovery_dropped", self.recovery_dropped),
            ("restart_attempts", self.restart_attempts),
            ("shed_tuples", self.shed_tuples),
            ("shed_critical", self.shed_critical),
            ("admission_rejected", self.admission_rejected),
            ("ladder_escalations", self.ladder_escalations),
            ("ladder_recoveries", self.ladder_recoveries),
            ("overload_peak", self.overload_peak),
            ("overload_level", self.overload_level),
        ]
    }

    /// Total elements lost (not merely delayed) to degradation.
    #[must_use]
    pub fn total_dropped(&self) -> u64 {
        self.sps_filtered
            + self.stale_sp_batches
            + self.quarantine_dropped
            + self.reorder_dropped
            + self.corrupted_frames
            + self.recovery_dropped
            + self.shed_tuples
            + self.admission_rejected
    }
}

impl std::fmt::Display for DegradationStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "sps filtered {} / merged {} / stale {}; quarantine in {} out {} dropped {}; \
             reorder dropped {}; corrupted frames {}; checkpoints taken {} restored {}; \
             epochs replayed {}; recovery dropped {}; restarts {}; shed {} (critical {}); \
             admission rejected {}; ladder up {} down {} peak {} level {}",
            self.sps_filtered,
            self.sps_merged,
            self.stale_sp_batches,
            self.quarantined,
            self.quarantine_released,
            self.quarantine_dropped,
            self.reorder_dropped,
            self.corrupted_frames,
            self.checkpoints_taken,
            self.checkpoints_restored,
            self.epochs_replayed,
            self.recovery_dropped,
            self.restart_attempts,
            self.shed_tuples,
            self.shed_critical,
            self.admission_rejected,
            self.ladder_escalations,
            self.ladder_recoveries,
            self.overload_peak,
            self.overload_level,
        )
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;

    #[test]
    fn degradation_absorbs_and_totals() {
        let mut a = DegradationStats::new();
        a.quarantined = 3;
        a.quarantine_dropped = 2;
        let mut b = DegradationStats::new();
        b.quarantine_dropped = 1;
        b.reorder_dropped = 4;
        b.corrupted_frames = 5;
        a.absorb(&b);
        assert_eq!(a.quarantine_dropped, 3);
        assert_eq!(a.total_dropped(), 3 + 4 + 5);
        assert!(a.to_string().contains("dropped 3"));
    }

    #[test]
    fn overload_counters_absorb_and_total() {
        let mut a = DegradationStats::new();
        a.shed_tuples = 10;
        a.shed_critical = 4;
        a.overload_peak = 3;
        a.overload_level = 0;
        let mut b = DegradationStats::new();
        b.shed_tuples = 5;
        b.admission_rejected = 7;
        b.ladder_escalations = 2;
        b.ladder_recoveries = 2;
        b.overload_peak = 1;
        b.overload_level = 1;
        a.absorb(&b);
        assert_eq!(a.shed_tuples, 15);
        assert_eq!(a.admission_rejected, 7);
        assert_eq!(a.overload_peak, 3, "peak takes the max");
        assert_eq!(a.overload_level, 1, "level takes the max");
        assert_eq!(a.total_dropped(), 15 + 7);
        let line = a.to_string();
        assert!(line.contains("shed 15 (critical 4)"), "{line}");
        assert!(line.contains("admission rejected 7"), "{line}");
        assert!(line.contains("ladder up 2 down 2 peak 3"), "{line}");
    }

    #[test]
    fn charge_and_read() {
        let mut s = OperatorStats::new();
        s.charge(CostKind::TupleMaintenance, Duration::from_millis(3));
        s.charge(CostKind::SpMaintenance, Duration::from_millis(2));
        s.charge(CostKind::Join, Duration::from_millis(1));
        assert_eq!(s.time(CostKind::TupleMaintenance), Duration::from_millis(3));
        assert_eq!(s.total_time(), Duration::from_millis(6));
    }

    #[test]
    fn merge_accumulates() {
        let mut a = OperatorStats::new();
        a.tuples_in = 5;
        a.charge(CostKind::SpMaintenance, Duration::from_millis(1));
        let mut b = OperatorStats::new();
        b.tuples_in = 7;
        b.tuples_shielded = 2;
        b.charge(CostKind::SpMaintenance, Duration::from_millis(2));
        a.merge(&b);
        assert_eq!(a.tuples_in, 12);
        assert_eq!(a.tuples_shielded, 2);
        assert_eq!(a.time(CostKind::SpMaintenance), Duration::from_millis(3));
    }
}
