//! Property tests for the telemetry layer's mergeable state.
//!
//! Statistics gathered in pieces (per shard, per tenant, per process)
//! merge in whatever order the pieces arrive, so every merge operation
//! the telemetry layer exposes must be **associative and
//! order-insensitive**: histograms, operator counters, degradation stats,
//! and the metrics registry itself. The flight recorder's encoding must
//! be a pure function of the recorded sequence.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use proptest::prelude::*;
use sp_engine::{
    AuditEvent, AuditRecord, CostKind, DegradationStats, FlightRecorder, Histogram,
    MetricsRegistry, OperatorStats,
};

fn hist_of(values: &[u64]) -> Histogram {
    let mut h = Histogram::new();
    for &v in values {
        h.record(v);
    }
    h
}

/// A `DegradationStats` with every counter driven from one seed array.
fn degradation_of(vals: &[u64]) -> DegradationStats {
    let mut d = DegradationStats::new();
    let mut names = d.named_counters().map(|(n, _)| n).into_iter();
    // Assign by declaration order, matching `named_counters`.
    d.sps_filtered = vals[0];
    d.sps_merged = vals[1];
    d.stale_sp_batches = vals[2];
    d.quarantined = vals[3];
    d.quarantine_released = vals[4];
    d.quarantine_dropped = vals[5];
    d.reorder_dropped = vals[6];
    d.corrupted_frames = vals[7];
    d.checkpoints_taken = vals[8];
    d.checkpoints_restored = vals[9];
    d.epochs_replayed = vals[10];
    d.recovery_dropped = vals[11];
    d.restart_attempts = vals[12];
    d.shed_tuples = vals[13];
    d.shed_critical = vals[14];
    d.admission_rejected = vals[15];
    d.ladder_escalations = vals[16];
    d.ladder_recoveries = vals[17];
    d.overload_peak = vals[18];
    d.overload_level = vals[19];
    assert_eq!(names.next(), Some("sps_filtered"), "named_counters order drifted");
    d
}

fn stats_of(vals: &[u64], nanos: u64) -> OperatorStats {
    let mut s = OperatorStats::new();
    s.tuples_in = vals[0];
    s.tuples_out = vals[1];
    s.sps_in = vals[2];
    s.sps_out = vals[3];
    s.tuples_shielded = vals[4];
    s.charge(CostKind::Join, std::time::Duration::from_nanos(nanos));
    s
}

/// `OperatorStats` has no `PartialEq` (time buckets are measurements);
/// compare the checkpointable counters plus the charged time.
fn stats_key(s: &OperatorStats) -> (Vec<u8>, std::time::Duration) {
    let mut buf = Vec::new();
    s.encode_counters(&mut buf);
    (buf, s.total_time())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn histogram_merge_is_commutative(
        a in prop::collection::vec(0u64..u64::MAX, 0..64),
        b in prop::collection::vec(0u64..u64::MAX, 0..64),
    ) {
        let (ha, hb) = (hist_of(&a), hist_of(&b));
        let mut ab = ha.clone();
        ab.merge(&hb);
        let mut ba = hb.clone();
        ba.merge(&ha);
        prop_assert_eq!(ab, ba);
    }

    #[test]
    fn histogram_merge_is_associative(
        a in prop::collection::vec(0u64..1 << 40, 0..32),
        b in prop::collection::vec(0u64..1 << 40, 0..32),
        c in prop::collection::vec(0u64..1 << 40, 0..32),
    ) {
        let (ha, hb, hc) = (hist_of(&a), hist_of(&b), hist_of(&c));
        let mut left = ha.clone();
        left.merge(&hb);
        left.merge(&hc);
        let mut right_tail = hb.clone();
        right_tail.merge(&hc);
        let mut right = ha.clone();
        right.merge(&right_tail);
        prop_assert_eq!(left, right);
    }

    #[test]
    fn histogram_merge_equals_single_pass(
        a in prop::collection::vec(0u64..1 << 40, 0..48),
        b in prop::collection::vec(0u64..1 << 40, 0..48),
    ) {
        // Splitting a stream across workers and merging loses nothing.
        let mut merged = hist_of(&a);
        merged.merge(&hist_of(&b));
        let mut whole: Vec<u64> = a.clone();
        whole.extend_from_slice(&b);
        prop_assert_eq!(merged, hist_of(&whole));
    }

    #[test]
    fn histogram_percentile_is_an_upper_bound(
        values in prop::collection::vec(0u64..1 << 30, 1..64),
        p in 1.0f64..100.0,
    ) {
        // Log-bucketing rounds up to a bucket boundary: the reported
        // percentile never under-states the true order statistic.
        let h = hist_of(&values);
        let mut sorted = values.clone();
        sorted.sort_unstable();
        let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
        let exact = sorted[rank.min(sorted.len()) - 1];
        prop_assert!(h.percentile(p) >= exact);
    }

    #[test]
    fn degradation_absorb_is_commutative(
        a in prop::collection::vec(0u64..1 << 40, 20..21),
        b in prop::collection::vec(0u64..1 << 40, 20..21),
    ) {
        let (da, db) = (degradation_of(&a), degradation_of(&b));
        let mut ab = da;
        ab.absorb(&db);
        let mut ba = db;
        ba.absorb(&da);
        prop_assert_eq!(ab, ba);
    }

    #[test]
    fn degradation_absorb_is_associative(
        a in prop::collection::vec(0u64..1 << 40, 20..21),
        b in prop::collection::vec(0u64..1 << 40, 20..21),
        c in prop::collection::vec(0u64..1 << 40, 20..21),
    ) {
        let (da, db, dc) = (degradation_of(&a), degradation_of(&b), degradation_of(&c));
        let mut left = da;
        left.absorb(&db);
        left.absorb(&dc);
        let mut tail = db;
        tail.absorb(&dc);
        let mut right = da;
        right.absorb(&tail);
        prop_assert_eq!(left, right);
    }

    #[test]
    fn operator_stats_merge_is_commutative(
        a in prop::collection::vec(0u64..1 << 40, 5..6),
        na in 0u64..1_000_000,
        b in prop::collection::vec(0u64..1 << 40, 5..6),
        nb in 0u64..1_000_000,
    ) {
        let (sa, sb) = (stats_of(&a, na), stats_of(&b, nb));
        let mut ab = sa.clone();
        ab.merge(&sb);
        let mut ba = sb.clone();
        ba.merge(&sa);
        prop_assert_eq!(stats_key(&ab), stats_key(&ba));
    }

    #[test]
    fn flight_recorder_encoding_is_deterministic(
        events in prop::collection::vec((0u64..100, 0u64..1000, 0u32..8, 0u64..1000), 0..40),
        capacity in 1usize..16,
    ) {
        // Two recorders fed the same sequence — including ring evictions —
        // encode identically; the encoding depends only on the sequence.
        let mut r1 = FlightRecorder::new(capacity);
        let mut r2 = FlightRecorder::new(capacity);
        for &(tid, ts, role, sp_ts) in &events {
            r1.record(AuditRecord::new(tid, ts, AuditEvent::Released { role, sp_ts }));
            r2.record(AuditRecord::new(tid, ts, AuditEvent::Released { role, sp_ts }));
        }
        let mut b1 = Vec::new();
        let mut b2 = Vec::new();
        r1.encode(&mut b1);
        r2.encode(&mut b2);
        prop_assert_eq!(b1, b2);
        prop_assert!(r1.len() <= capacity);
        prop_assert_eq!(r1.len() as u64 + r1.evicted(), events.len() as u64);
    }

    #[test]
    fn registry_merge_is_order_insensitive(
        counts in prop::collection::vec((0usize..4, 0u64..1000), 0..24),
        lats in prop::collection::vec((0usize..4, 0u64..1 << 30), 0..24),
    ) {
        // Build per-"worker" registries, merge them in two different
        // orders, and demand an identical exposition either way.
        let ops = ["ss", "select", "shed", "sajoin"];
        let mut workers: Vec<MetricsRegistry> = (0..4).map(|_| MetricsRegistry::new()).collect();
        for (i, &(op, v)) in counts.iter().enumerate() {
            workers[i % 4].add_counter(
                "sp_tuples_in_total",
                "Tuples entering an operator",
                &format!("op=\"{}\"", ops[op]),
                v,
            );
        }
        for (i, &(op, v)) in lats.iter().enumerate() {
            let mut h = Histogram::new();
            h.record(v);
            workers[i % 4].merge_histogram(
                "sp_operator_latency_ns",
                "Per-call operator process latency",
                &format!("op=\"{}\"", ops[op]),
                &h,
            );
        }
        let mut forward = MetricsRegistry::new();
        for w in &workers {
            forward.merge(w);
        }
        let mut backward = MetricsRegistry::new();
        for w in workers.iter().rev() {
            backward.merge(w);
        }
        prop_assert_eq!(forward.render_prometheus(), backward.render_prometheus());
    }
}
