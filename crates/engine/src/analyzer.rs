//! The SP Analyzer (§II-B, Fig. 1).
//!
//! The analyzer sits between arriving raw streams and the query plans. It
//! (1) assembles consecutive same-timestamp punctuations into sp-batches and
//! resolves them — patterns evaluated against the role catalog and the
//! stream's schema — into [`SegmentPolicy`] elements; (2) combines the
//! data-provider policies with **server-specified policies** using
//! `intersect()` semantics, so the server may refine but never broaden
//! access (immutable sps opt out); and (3) *combines sps with similar
//! policies*: a segment policy identical to the previous one is not
//! re-emitted, saving downstream sp processing.

use std::collections::VecDeque;
use std::sync::Arc;

use sp_core::{
    combine_batch, Policy, RoleCatalog, Schema, SecurityPunctuation, StreamElement, Timestamp,
    Tuple,
};

use crate::element::{Element, PolicyEntry, SegmentPolicy};
use crate::stats::DegradationStats;
use crate::telemetry::{
    AuditEvent, AuditRecord, FlightRecorder, QuarantineReason, SpanRecord, SpanRecorder, NO_TUPLE,
};

/// Hardened-mode parameters: how fresh a policy must be to govern a
/// tuple, and how long an uncovered tuple may wait for its policy.
///
/// All times are stream timestamps (milliseconds), so behaviour is
/// deterministic and replayable — no wall clocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuarantinePolicy {
    /// A policy with timestamp `p` governs tuples with
    /// `p <= ts <= p + ttl_ms`. Tuples outside every policy's window are
    /// quarantined instead of inheriting a stale policy.
    pub ttl_ms: u64,
    /// How long (in stream time) a quarantined tuple may wait for its
    /// sp-batch before being dropped.
    pub slack_ms: u64,
    /// Maximum quarantined tuples held; the oldest is dropped when full.
    pub capacity: usize,
}

impl Default for QuarantinePolicy {
    fn default() -> Self {
        Self { ttl_ms: 1_000, slack_ms: 1_000, capacity: 1_024 }
    }
}

/// Per-stream punctuation analyzer.
#[derive(Debug)]
pub struct SpAnalyzer {
    schema: Arc<Schema>,
    catalog: Arc<RoleCatalog>,
    /// Server-side policy applied (by intersection) to every mutable
    /// data-provider policy on this stream.
    server_policy: Option<Policy>,
    batch: Vec<Arc<SecurityPunctuation>>,
    last_emitted: Option<Arc<SegmentPolicy>>,
    /// Incremental-policy mode (§IX future work): an sp-batch *modifies*
    /// the previous policy (grants add roles, negative sps revoke them)
    /// instead of replacing it wholesale. Applies to unscoped
    /// (whole-segment) batches; scoped batches always replace.
    incremental: bool,
    /// Punctuations dropped because their DDP does not cover this stream.
    pub sps_filtered: u64,
    /// Segment policies suppressed because they repeated the previous one.
    pub sps_merged: u64,
    /// Hardened fail-closed mode; `None` (the default) preserves the
    /// paper's pass-through behaviour.
    hardening: Option<QuarantinePolicy>,
    /// Timestamp of the governing policy (hardened mode only).
    current_ts: Option<Timestamp>,
    /// High-water mark over every element timestamp seen.
    clock: u64,
    /// Tuples awaiting a governing policy, in arrival order.
    quarantine: VecDeque<Arc<Tuple>>,
    /// Sp-batches discarded for arriving older than the governing policy.
    pub stale_sp_batches: u64,
    /// Tuples ever sent to quarantine.
    pub quarantined: u64,
    /// Quarantined tuples released by a policy that arrived in time.
    pub quarantine_released: u64,
    /// Quarantined tuples dropped: timed out, evicted by the capacity
    /// bound, or passed over by a newer policy. Never emitted unshielded.
    pub quarantine_dropped: u64,
    /// Security flight recorder: quarantine decisions and stale-sp
    /// discards, each with its [`QuarantineReason`]. Disabled by default.
    recorder: FlightRecorder,
    /// sp-trace span recorder: one `analyze` span per emitted segment
    /// policy, linking the wire frame that carried the sp-batch to the
    /// shield enforcement downstream. Disabled by default.
    spans: SpanRecorder,
}

impl SpAnalyzer {
    /// An analyzer for one registered stream.
    #[must_use]
    pub fn new(schema: Arc<Schema>, catalog: Arc<RoleCatalog>) -> Self {
        Self {
            schema,
            catalog,
            server_policy: None,
            batch: Vec::new(),
            last_emitted: None,
            incremental: false,
            sps_filtered: 0,
            sps_merged: 0,
            hardening: None,
            current_ts: None,
            clock: 0,
            quarantine: VecDeque::new(),
            stale_sp_batches: 0,
            quarantined: 0,
            quarantine_released: 0,
            quarantine_dropped: 0,
            recorder: FlightRecorder::default(),
            spans: SpanRecorder::default(),
        }
    }

    /// Enables the security flight recorder with the given ring capacity
    /// (0 disables it again).
    pub fn set_audit(&mut self, capacity: usize) {
        self.recorder = FlightRecorder::new(capacity);
    }

    /// The flight recorder, when enabled.
    #[must_use]
    pub fn audit(&self) -> Option<&FlightRecorder> {
        self.recorder.enabled().then_some(&self.recorder)
    }

    /// Enables the sp-trace span recorder with the given ring capacity
    /// (0 disables it again).
    pub fn set_spans(&mut self, capacity: usize) {
        self.spans = SpanRecorder::new(capacity);
    }

    /// The span recorder, when enabled.
    #[must_use]
    pub fn spans(&self) -> Option<&SpanRecorder> {
        self.spans.enabled().then_some(&self.spans)
    }

    /// Switches this analyzer into hardened fail-closed mode: a tuple not
    /// governed by a fresh-enough policy is quarantined instead of
    /// forwarded, a late sp-batch cannot roll authorizations back, and the
    /// bounded buffer plus stream-time timeout cap the memory a hostile
    /// stream can pin.
    pub fn harden(&mut self, policy: QuarantinePolicy) {
        self.hardening = Some(policy);
    }

    /// Fail-closed degradation counters accumulated by this stream.
    #[must_use]
    pub fn degradation(&self) -> DegradationStats {
        DegradationStats {
            sps_filtered: self.sps_filtered,
            sps_merged: self.sps_merged,
            stale_sp_batches: self.stale_sp_batches,
            quarantined: self.quarantined,
            quarantine_released: self.quarantine_released,
            quarantine_dropped: self.quarantine_dropped,
            ..DegradationStats::new()
        }
    }

    /// Enables or disables incremental-policy mode (§IX future work):
    /// subsequent unscoped sp-batches apply on top of the previous policy
    /// — a positive sp adds its roles, a negative sp revokes them —
    /// instead of starting from denial-by-default.
    pub fn set_incremental(&mut self, incremental: bool) {
        self.incremental = incremental;
    }

    /// Installs a server-specified policy (§II-B: organizations may refine
    /// data-provider policies, e.g. a hospital adding constraints on top of
    /// a patient's own).
    pub fn set_server_policy(&mut self, policy: Option<Policy>) {
        self.server_policy = policy;
        // The cached last emission no longer reflects the combination.
        self.last_emitted = None;
    }

    /// The stream schema this analyzer serves.
    #[must_use]
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Processes one raw stream element, appending engine elements to `out`.
    pub fn push(&mut self, elem: StreamElement, out: &mut Vec<Element>) {
        match elem {
            StreamElement::Punctuation(sp) => {
                if !sp.matches_stream(self.schema.name()) {
                    self.sps_filtered += 1;
                    return;
                }
                self.advance_clock(sp.ts.0);
                if let Some(first) = self.batch.first() {
                    if sp.ts != first.ts {
                        self.flush(out);
                    }
                }
                self.batch.push(sp);
            }
            StreamElement::Tuple(tuple) => {
                self.advance_clock(tuple.ts.0);
                self.flush(out);
                match self.hardening {
                    Some(qp) if !self.governs(tuple.ts, qp.ttl_ms) => {
                        self.quarantined += 1;
                        self.recorder.record(AuditRecord::new(
                            tuple.tid.raw(),
                            tuple.ts.0,
                            AuditEvent::Quarantined { reason: QuarantineReason::Uncovered },
                        ));
                        if self.quarantine.len() >= qp.capacity {
                            if let Some(evicted) = self.quarantine.pop_front() {
                                self.quarantine_dropped += 1;
                                self.recorder.record(AuditRecord::new(
                                    evicted.tid.raw(),
                                    evicted.ts.0,
                                    AuditEvent::QuarantineDropped {
                                        reason: QuarantineReason::CapacityEvicted,
                                    },
                                ));
                            }
                        }
                        self.quarantine.push_back(tuple);
                    }
                    _ => out.push(Element::Tuple(tuple)),
                }
            }
        }
    }

    /// Whether the governing policy covers a tuple at `ts`: the policy must
    /// precede the tuple and still be within its freshness window.
    fn governs(&self, ts: Timestamp, ttl_ms: u64) -> bool {
        self.current_ts.is_some_and(|p| p <= ts && ts.0 - p.0 <= ttl_ms)
    }

    /// Advances stream time and expires quarantined tuples whose slack ran
    /// out before their policy arrived.
    fn advance_clock(&mut self, ts: u64) {
        if ts > self.clock {
            self.clock = ts;
        }
        if let Some(qp) = self.hardening {
            // Reordered arrivals mean the queue is not ts-sorted, so scan
            // it all rather than popping from the front.
            let clock = self.clock;
            if self.recorder.enabled() {
                // Separate pre-pass: `retain`'s closure cannot reach the
                // recorder, and this path costs nothing when auditing is
                // off.
                for t in &self.quarantine {
                    if t.ts.0.saturating_add(qp.slack_ms) < clock {
                        self.recorder.record(AuditRecord::new(
                            t.tid.raw(),
                            t.ts.0,
                            AuditEvent::QuarantineDropped {
                                reason: QuarantineReason::SlackExpired,
                            },
                        ));
                    }
                }
            }
            let before = self.quarantine.len();
            self.quarantine.retain(|t| t.ts.0.saturating_add(qp.slack_ms) >= clock);
            self.quarantine_dropped += (before - self.quarantine.len()) as u64;
        }
    }

    /// Resolves and emits the pending batch, if any.
    pub fn flush(&mut self, out: &mut Vec<Element>) {
        if self.batch.is_empty() {
            return;
        }
        let batch = std::mem::take(&mut self.batch);
        let ts = batch[0].ts;
        if self.hardening.is_some() && self.current_ts.is_some_and(|cur| ts < cur) {
            // A batch older than the governing policy must not roll
            // authorizations back — a delayed or replayed grant could widen
            // access retroactively. Fail closed: discard the whole batch.
            self.stale_sp_batches += 1;
            self.recorder.record(AuditRecord::new(NO_TUPLE, ts.0, AuditEvent::StaleSpDiscarded));
            return;
        }
        // Group the batch by tuple scope: sps with identical tuple patterns
        // combine into one policy entry.
        let mut groups: Vec<(&str, Vec<Arc<SecurityPunctuation>>)> = Vec::new();
        for sp in &batch {
            let scope = sp.ddp.tuple.source();
            match groups.iter_mut().find(|(s, _)| *s == scope) {
                Some((_, list)) => list.push(sp.clone()),
                None => groups.push((scope, vec![sp.clone()])),
            }
        }
        // Incremental mode: a single unscoped batch modifies the previous
        // uniform policy instead of replacing it.
        let incremental_base = if self.incremental && groups.len() == 1 && groups[0].0 == "*" {
            self.last_emitted.as_ref().and_then(|seg| seg.as_uniform()).map(|p| (**p).clone())
        } else {
            None
        };
        let entries: Vec<PolicyEntry> = groups
            .into_iter()
            .map(|(_, sps)| {
                let scope = sps[0].ddp.tuple.clone();
                let mut policy = match &incremental_base {
                    Some(base) => {
                        let mut p = base.clone();
                        p.ts = ts;
                        for sp in &sps {
                            sp.apply_to(&mut p, &self.catalog, &self.schema);
                        }
                        p
                    }
                    None => combine_batch(&sps, &self.catalog, &self.schema),
                };
                if let Some(server) = &self.server_policy {
                    // `Policy::intersect` honours the immutable flag.
                    policy = policy.intersect(server);
                }
                PolicyEntry { scope, policy: Arc::new(policy) }
            })
            .collect();
        let seg = Arc::new(SegmentPolicy::new(entries, ts));
        // Similar-policy combining: skip emission when the authorizations
        // are unchanged (timestamps aside).
        let merged = self.last_emitted.as_ref().is_some_and(|prev| {
            prev.entries().len() == seg.entries().len()
                && prev
                    .entries()
                    .iter()
                    .zip(seg.entries())
                    .all(|(a, b)| a.scope == b.scope && a.policy.same_authorizations(&b.policy))
        });
        if merged {
            self.sps_merged += 1;
        } else {
            self.last_emitted = Some(seg.clone());
            if self.spans.enabled() {
                // The analyze span for an sp-batch hangs off the wire
                // frame that carried it: same trace id (derived from the
                // batch timestamp), parent = the wire_frame span.
                use sp_core::trace::{site, span_id, trace_id_for_sp};
                let trace = trace_id_for_sp(ts.0);
                self.spans.record(SpanRecord::at(
                    trace,
                    site::ANALYZE,
                    span_id(trace, site::WIRE_FRAME),
                    NO_TUPLE,
                    ts.0,
                ));
            }
            out.push(Element::Policy(seg));
        }
        if let Some(qp) = self.hardening {
            // Even a merge-suppressed batch re-asserts its authorizations
            // at `ts`, so it refreshes the governing timestamp.
            self.current_ts = Some(ts);
            // Settle the quarantine against the new policy: release tuples
            // it governs, condemn tuples now permanently ungovernable (the
            // governing timestamp only advances, so a tuple older than it
            // can never be covered), keep the rest waiting.
            for t in std::mem::take(&mut self.quarantine) {
                if ts <= t.ts && t.ts.0 - ts.0 <= qp.ttl_ms {
                    self.quarantine_released += 1;
                    self.recorder.record(AuditRecord::new(
                        t.tid.raw(),
                        t.ts.0,
                        AuditEvent::QuarantineReleased,
                    ));
                    out.push(Element::Tuple(t));
                } else if t.ts < ts {
                    self.quarantine_dropped += 1;
                    self.recorder.record(AuditRecord::new(
                        t.tid.raw(),
                        t.ts.0,
                        AuditEvent::QuarantineDropped { reason: QuarantineReason::PassedOver },
                    ));
                } else {
                    self.quarantine.push_back(t);
                }
            }
        }
    }

    /// Canonical encoding of the analyzer's **policy table** alone — the
    /// pending sp-batch, the last emitted segment policy, and the
    /// governing policy timestamp — excluding every tuple-dependent
    /// field (stream clock, quarantine contents, degradation counters).
    ///
    /// This is the overload suite's leak-detection probe: load shedding
    /// and admission control may refuse *data tuples*, but must never
    /// shed, delay, or reorder security punctuations, so this encoding
    /// must be byte-identical between an overloaded run and an unloaded
    /// run over the same input. Comparing only policy state (rather than
    /// the full [`SpAnalyzer::snapshot`]) keeps the check valid even for
    /// admission-controlled runs, where fewer tuples reaching the
    /// analyzer legitimately changes the clock and quarantine.
    #[must_use]
    pub fn policy_table_bytes(&self) -> Vec<u8> {
        use bytes::BufMut;
        let mut buf = Vec::new();
        buf.put_u32(self.batch.len() as u32);
        for sp in &self.batch {
            sp.encode(&mut buf);
        }
        crate::checkpoint::encode_opt_segment(self.last_emitted.as_ref(), &mut buf);
        match self.current_ts {
            Some(ts) => {
                buf.put_u8(1);
                buf.put_u64(ts.0);
            }
            None => buf.put_u8(0),
        }
        buf
    }

    /// Serializes the analyzer's dynamic state: the pending sp-batch, the
    /// last emitted segment policy (the similar-policy-combining cache and
    /// incremental-mode base), the governing policy timestamp, the stream
    /// clock, the quarantine queue, and the degradation counters.
    /// Configuration — schema, catalog, server policy, incremental flag,
    /// hardening parameters — is not serialized; it is rebuilt from the
    /// plan on recovery.
    pub fn snapshot(&self, buf: &mut Vec<u8>) {
        use bytes::BufMut;
        buf.put_u32(self.batch.len() as u32);
        for sp in &self.batch {
            sp.encode(buf);
        }
        crate::checkpoint::encode_opt_segment(self.last_emitted.as_ref(), buf);
        match self.current_ts {
            Some(ts) => {
                buf.put_u8(1);
                buf.put_u64(ts.0);
            }
            None => buf.put_u8(0),
        }
        buf.put_u64(self.clock);
        buf.put_u32(self.quarantine.len() as u32);
        for t in &self.quarantine {
            sp_core::wire::encode_tuple(t, buf);
        }
        for counter in [
            self.sps_filtered,
            self.sps_merged,
            self.stale_sp_batches,
            self.quarantined,
            self.quarantine_released,
            self.quarantine_dropped,
        ] {
            buf.put_u64(counter);
        }
    }

    /// Restores state serialized by [`SpAnalyzer::snapshot`] into an
    /// analyzer built with the same configuration.
    ///
    /// # Errors
    ///
    /// Fails closed ([`crate::EngineError::CheckpointCorrupt`]) on any
    /// truncation, trailing bytes, or malformed field.
    pub fn restore(&mut self, bytes: &[u8]) -> Result<(), crate::EngineError> {
        use crate::checkpoint as ckpt;
        use bytes::Buf;
        let mut slice = bytes;
        let buf = &mut slice;
        let mut apply = || -> Result<(), ckpt::CodecError> {
            ckpt::need(buf, 4, "analyzer batch length")?;
            let n = buf.get_u32() as usize;
            let mut batch = Vec::with_capacity(n);
            for _ in 0..n {
                batch.push(Arc::new(SecurityPunctuation::decode(buf)?));
            }
            self.batch = batch;
            self.last_emitted = ckpt::decode_opt_segment(buf)?;
            ckpt::need(buf, 1, "analyzer governing-ts flag")?;
            self.current_ts = match buf.get_u8() {
                0 => None,
                1 => {
                    ckpt::need(buf, 8, "analyzer governing ts")?;
                    Some(Timestamp(buf.get_u64()))
                }
                b => return Err(format!("bad governing-ts flag {b}")),
            };
            ckpt::need(buf, 8, "analyzer clock")?;
            self.clock = buf.get_u64();
            ckpt::need(buf, 4, "analyzer quarantine length")?;
            let n = buf.get_u32() as usize;
            let mut quarantine = VecDeque::with_capacity(n);
            for _ in 0..n {
                quarantine.push_back(Arc::new(
                    sp_core::wire::decode_tuple(buf).map_err(|e| e.to_string())?,
                ));
            }
            self.quarantine = quarantine;
            ckpt::need(buf, 6 * 8, "analyzer counters")?;
            self.sps_filtered = buf.get_u64();
            self.sps_merged = buf.get_u64();
            self.stale_sp_batches = buf.get_u64();
            self.quarantined = buf.get_u64();
            self.quarantine_released = buf.get_u64();
            self.quarantine_dropped = buf.get_u64();
            ckpt::done(buf)
        };
        apply().map_err(|e| ckpt::corrupt("analyzer", e))?;
        // Audit/span state is not checkpointed; replay repopulates the rings.
        self.recorder.clear();
        self.spans.clear();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use sp_core::{
        DataDescription, RoleId, RoleSet, StreamId, Timestamp, Tuple, TupleId, Value, ValueType,
    };

    fn setup() -> SpAnalyzer {
        let mut catalog = RoleCatalog::new();
        catalog.register_synthetic_roles(8);
        SpAnalyzer::new(Schema::of("loc", &[("id", ValueType::Int)]), Arc::new(catalog))
    }

    fn sp(roles: &[u32], ts: u64) -> StreamElement {
        StreamElement::punctuation(SecurityPunctuation::grant_all(
            roles.iter().map(|&r| RoleId(r)).collect(),
            Timestamp(ts),
        ))
    }

    fn tup(tid: u64, ts: u64) -> StreamElement {
        StreamElement::tuple(Tuple::new(
            StreamId(0),
            TupleId(tid),
            Timestamp(ts),
            vec![Value::Int(tid as i64)],
        ))
    }

    fn push_all(a: &mut SpAnalyzer, elems: Vec<StreamElement>) -> Vec<Element> {
        let mut out = Vec::new();
        for e in elems {
            a.push(e, &mut out);
        }
        out
    }

    #[test]
    fn batches_same_timestamp_sps() {
        let mut a = setup();
        let out = push_all(&mut a, vec![sp(&[1], 5), sp(&[2], 5), tup(1, 6)]);
        assert_eq!(out.len(), 2);
        let seg = out[0].as_policy().unwrap();
        let p = seg.as_uniform().unwrap();
        assert!(p.allows(&RoleSet::from([1])) && p.allows(&RoleSet::from([2])));
    }

    #[test]
    fn different_timestamps_split_batches() {
        let mut a = setup();
        let out = push_all(&mut a, vec![sp(&[1], 5), sp(&[2], 6), tup(1, 7)]);
        // Two policies emitted; the second (newer) replaces the first
        // downstream via the override rule.
        let policies: Vec<_> = out.iter().filter_map(|e| e.as_policy()).collect();
        assert_eq!(policies.len(), 2);
        assert_eq!(policies[0].ts, Timestamp(5));
        assert_eq!(policies[1].ts, Timestamp(6));
    }

    #[test]
    fn foreign_stream_sps_are_dropped() {
        let mut a = setup();
        let foreign = StreamElement::punctuation(
            SecurityPunctuation::grant_all(RoleSet::from([1]), Timestamp(1))
                .with_ddp(DataDescription::stream("other")),
        );
        let out = push_all(&mut a, vec![foreign, tup(1, 2)]);
        assert_eq!(out.len(), 1, "only the tuple passes");
        assert_eq!(a.sps_filtered, 1);
    }

    #[test]
    fn identical_policies_are_merged() {
        let mut a = setup();
        let out = push_all(
            &mut a,
            vec![sp(&[1], 1), tup(1, 2), sp(&[1], 3), tup(2, 4), sp(&[2], 5), tup(3, 6)],
        );
        let policies = out.iter().filter(|e| e.as_policy().is_some()).count();
        assert_eq!(policies, 2, "repeat of {{r1}} suppressed");
        assert_eq!(a.sps_merged, 1);
    }

    #[test]
    fn server_policy_refines_by_intersection() {
        let mut a = setup();
        a.set_server_policy(Some(Policy::tuple_level(RoleSet::from([1]), Timestamp(0))));
        let out = push_all(&mut a, vec![sp(&[1, 2], 1), tup(1, 2)]);
        let p = out[0].as_policy().unwrap().policy_for(out[1].as_tuple().unwrap());
        assert!(p.allows(&RoleSet::from([1])));
        assert!(!p.allows(&RoleSet::from([2])), "server removed role 2");
    }

    #[test]
    fn immutable_sps_ignore_server_policy() {
        let mut a = setup();
        a.set_server_policy(Some(Policy::tuple_level(RoleSet::from([1]), Timestamp(0))));
        let immutable = StreamElement::punctuation(
            SecurityPunctuation::grant_all(RoleSet::from([1, 2]), Timestamp(1)).immutable(),
        );
        let out = push_all(&mut a, vec![immutable, tup(1, 2)]);
        let p = out[0].as_policy().unwrap().policy_for(out[1].as_tuple().unwrap());
        assert!(p.allows(&RoleSet::from([2])), "immutable sp wins");
    }

    #[test]
    fn scoped_sps_group_by_tuple_pattern() {
        let mut a = setup();
        let scoped = |lo: u64, hi: u64, role: u32, ts: u64| {
            StreamElement::punctuation(
                SecurityPunctuation::grant_all(RoleSet::from([role]), Timestamp(ts))
                    .with_ddp(DataDescription::tuple_range(lo, hi)),
            )
        };
        let out = push_all(
            &mut a,
            vec![scoped(0, 10, 1, 5), scoped(20, 30, 2, 5), tup(5, 6), tup(25, 7)],
        );
        let seg = out[0].as_policy().unwrap();
        assert_eq!(seg.entries().len(), 2);
        let p5 = seg.policy_for(out[1].as_tuple().unwrap());
        assert!(p5.allows(&RoleSet::from([1])) && !p5.allows(&RoleSet::from([2])));
        let p25 = seg.policy_for(out[2].as_tuple().unwrap());
        assert!(p25.allows(&RoleSet::from([2])) && !p25.allows(&RoleSet::from([1])));
    }

    #[test]
    fn incremental_mode_accumulates_grants_and_revocations() {
        let mut a = setup();
        a.set_incremental(true);
        let deny = |roles: &[u32], ts: u64| {
            StreamElement::punctuation(
                SecurityPunctuation::grant_all(
                    roles.iter().map(|&r| RoleId(r)).collect(),
                    Timestamp(ts),
                )
                .negative(),
            )
        };
        let out = push_all(
            &mut a,
            vec![
                sp(&[1], 1),
                tup(1, 2),
                sp(&[2], 3), // incremental: ADDS role 2
                tup(2, 4),
                deny(&[1], 5), // incremental: REVOKES role 1
                tup(3, 6),
            ],
        );
        let policies: Vec<_> = out.iter().filter_map(|e| e.as_policy()).collect();
        assert_eq!(policies.len(), 3);
        let p1 = policies[0].as_uniform().unwrap();
        assert!(p1.allows(&RoleSet::from([1])) && !p1.allows(&RoleSet::from([2])));
        let p2 = policies[1].as_uniform().unwrap();
        assert!(p2.allows(&RoleSet::from([1])) && p2.allows(&RoleSet::from([2])));
        let p3 = policies[2].as_uniform().unwrap();
        assert!(!p3.allows(&RoleSet::from([1])) && p3.allows(&RoleSet::from([2])));
    }

    #[test]
    fn absolute_mode_replaces_wholesale() {
        let mut a = setup();
        let out = push_all(&mut a, vec![sp(&[1], 1), tup(1, 2), sp(&[2], 3), tup(2, 4)]);
        let policies: Vec<_> = out.iter().filter_map(|e| e.as_policy()).collect();
        let p2 = policies[1].as_uniform().unwrap();
        assert!(!p2.allows(&RoleSet::from([1])), "override replaces the policy");
    }

    #[test]
    fn trailing_batch_flushes_on_demand() {
        let mut a = setup();
        let mut out = Vec::new();
        a.push(sp(&[3], 9), &mut out);
        assert!(out.is_empty(), "batch still open");
        a.flush(&mut out);
        assert_eq!(out.len(), 1);
    }

    fn hardened(ttl: u64, slack: u64, cap: usize) -> SpAnalyzer {
        let mut a = setup();
        a.harden(QuarantinePolicy { ttl_ms: ttl, slack_ms: slack, capacity: cap });
        a
    }

    #[test]
    fn hardened_quarantines_uncovered_tuples() {
        let mut a = hardened(10, 100, 16);
        // No policy yet: the tuple must not pass.
        let out = push_all(&mut a, vec![tup(1, 5)]);
        assert!(out.is_empty(), "unshielded tuple held back");
        assert_eq!(a.quarantined, 1);
        // Its sp arrives late but within slack: released after the policy.
        let out = push_all(&mut a, vec![sp(&[1], 5), tup(2, 6)]);
        let kinds: Vec<bool> = out.iter().map(Element::is_tuple).collect();
        assert_eq!(kinds, vec![false, true, true], "policy, then releases");
        assert_eq!(a.quarantine_released, 1);
        assert_eq!(a.quarantine_dropped, 0);
    }

    #[test]
    fn hardened_drops_quarantined_tuples_on_timeout() {
        let mut a = hardened(10, 20, 16);
        // Tuple at ts 5 with no policy; stream time then advances past
        // 5 + slack without its sp ever arriving.
        let out = push_all(&mut a, vec![tup(1, 5), tup(2, 40)]);
        assert!(out.is_empty(), "neither tuple has a policy");
        assert_eq!(a.quarantine_dropped, 1, "ts-5 tuple timed out");
        assert_eq!(a.quarantined, 2);
        // A much later policy governs only the survivor... which has also
        // timed out by the time ts 80 rolls around.
        let out = push_all(&mut a, vec![sp(&[1], 80), tup(3, 81)]);
        assert_eq!(out.iter().filter(|e| e.is_tuple()).count(), 1);
        assert_eq!(a.quarantine_dropped, 2);
    }

    #[test]
    fn hardened_caps_quarantine_capacity() {
        let mut a = hardened(10, 1_000, 2);
        let out = push_all(&mut a, vec![tup(1, 1), tup(2, 2), tup(3, 3)]);
        assert!(out.is_empty());
        assert_eq!(a.quarantine_dropped, 1, "oldest evicted at capacity");
        assert_eq!(a.quarantine.len(), 2);
    }

    #[test]
    fn hardened_rejects_stale_sp_batches() {
        let mut a = hardened(100, 100, 16);
        let out = push_all(&mut a, vec![sp(&[1, 2], 50), tup(1, 55)]);
        assert_eq!(out.len(), 2);
        // A delayed batch from ts 10 must not replace the ts-50 policy.
        let out = push_all(&mut a, vec![sp(&[3], 10), tup(2, 56)]);
        let policies = out.iter().filter(|e| e.as_policy().is_some()).count();
        assert_eq!(policies, 0, "stale batch discarded");
        assert_eq!(a.stale_sp_batches, 1);
        // The ts-56 tuple is still governed by the ts-50 policy.
        assert_eq!(out.iter().filter(|e| e.is_tuple()).count(), 1);
    }

    #[test]
    fn hardened_expires_policy_after_ttl() {
        let mut a = hardened(10, 5, 16);
        let out = push_all(&mut a, vec![sp(&[1], 10), tup(1, 15), tup(2, 30)]);
        // ts-15 governed (within ttl); ts-30 is 20 past the policy: held.
        assert_eq!(out.iter().filter(|e| e.is_tuple()).count(), 1);
        assert_eq!(a.quarantined, 1);
    }

    #[test]
    fn merge_suppressed_batch_still_refreshes_governing_ts() {
        let mut a = hardened(10, 100, 16);
        let out = push_all(&mut a, vec![sp(&[1], 10), tup(1, 11), sp(&[1], 30), tup(2, 31)]);
        // Second batch repeats {r1}: no policy re-emitted, but the ts-31
        // tuple is governed by the refreshed ts-30 policy.
        assert_eq!(out.iter().filter(|e| e.as_policy().is_some()).count(), 1);
        assert_eq!(out.iter().filter(|e| e.is_tuple()).count(), 2);
        assert_eq!(a.sps_merged, 1);
        assert_eq!(a.quarantined, 0);
    }

    #[test]
    fn degradation_reports_all_counters() {
        let mut a = hardened(10, 20, 16);
        let _ = push_all(&mut a, vec![tup(1, 5), tup(2, 40), sp(&[1], 50), tup(3, 51)]);
        let d = a.degradation();
        assert_eq!(d.quarantined, 2);
        assert_eq!(d.quarantine_dropped, 2);
        assert_eq!(d.total_dropped(), 2);
    }
}
