//! The Security Shield (SS) operator — `ψ_p(T)` of the security-aware
//! algebra (Table I, §V-A).
//!
//! SS is a stateful filter. Its state is a *security predicate*: the set of
//! roles of the queries it protects. Arriving segment policies are checked
//! against that predicate; tuples governed by a non-intersecting policy are
//! discarded together with their punctuations, enforcing denial-by-default.
//!
//! Faithful cost behaviour (§VI-A): a tuple under an already-checked policy
//! is processed in O(1) — the verdict is cached per segment — while each
//! arriving punctuation pays a scan of the SS state. The more tuples share
//! one sp, the cheaper SS becomes per tuple (Fig. 8a). Two predicate-
//! evaluation modes are provided: `Bitmap` (word-parallel role-set
//! intersection — the paper's suggested bitmap encoding) and `Scan` (role-
//! by-role probing, the unindexed baseline whose cost grows linearly with
//! the SS state size, Fig. 8b).

use std::sync::Arc;

use sp_core::{RoleSet, SharedPolicy};

use crate::checkpoint as ckpt;
use crate::element::{Element, SegmentPolicy};
use crate::error::EngineError;
use crate::operator::{Emitter, Operator};
use crate::stats::OperatorStats;
use crate::telemetry::{
    AuditEvent, AuditRecord, FlightRecorder, LagTracker, SpanRecord, SpanRecorder, NO_SP, NO_TUPLE,
};

/// Enforcement granularity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Granularity {
    /// Drop whole tuples whose policy does not authorize the predicate.
    #[default]
    Tuple,
    /// Pass tuples visible through attribute-scoped grants, masking (i.e.
    /// nulling) the attributes the predicate may not read.
    Attribute,
}

/// How the security predicate is evaluated against a policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MatchMode {
    /// Word-parallel bitmap intersection (compact encoding, §I-C).
    #[default]
    Bitmap,
    /// Role-by-role membership probing — models an SS without a role
    /// index; cost grows with the SS-state size (cf. Fig. 8b).
    Scan,
}

/// Cached verdict for the current segment.
#[derive(Debug, Clone)]
enum Verdict {
    /// No policy seen yet: denial-by-default.
    Deny,
    /// Uniform segment, predicate authorized. In attribute granularity the
    /// policy is kept to derive per-arity attribute masks.
    Pass { mask_from: Option<SharedPolicy> },
    /// Uniform segment, predicate not authorized.
    Fail,
    /// Scoped segment: resolve per tuple.
    PerTuple,
}

/// Cached scoped-segment decision: the resolved policy allocation, the
/// release mask (if attribute granularity), and the authorizing role.
type TupleVerdictCache = (SharedPolicy, Option<Arc<[usize]>>, u32);

/// The Security Shield operator.
#[derive(Debug)]
pub struct SecurityShield {
    roles: RoleSet,
    granularity: Granularity,
    mode: MatchMode,
    current: Option<Arc<SegmentPolicy>>,
    verdict: Verdict,
    /// Lazily emitted before the first passing tuple of the segment, so
    /// that discarded segments' punctuations are discarded too.
    pending_policy: Option<Arc<SegmentPolicy>>,
    /// `(arity, mask)` cache for attribute-granularity uniform segments.
    mask_cache: Option<(usize, Arc<[usize]>)>,
    /// Per-tuple verdict cache for scoped segments: consecutive tuples of
    /// one segment resolve to the *same shared policy allocation*, so a
    /// pointer compare reuses the previous decision ("once an sp has been
    /// processed, the decision applies to all tuples that follow it").
    /// Keeping the `Arc` alive makes the identity check sound. The third
    /// component is the authorizing role for the audit trail.
    tuple_cache: Option<TupleVerdictCache>,
    /// Authorizing role of the current uniform segment (for audit
    /// records); `u32::MAX` when denying or per-tuple.
    seg_role: u32,
    /// Security flight recorder (disabled unless telemetry is on).
    recorder: FlightRecorder,
    /// Causal span recorder (disabled unless spans are on): one span per
    /// policy absorption, first release, and first suppression.
    spans: SpanRecorder,
    /// Enforcement-lag histograms (armed together with `spans`).
    lag: LagTracker,
    stats: OperatorStats,
}

impl SecurityShield {
    /// An SS with the given predicate roles (tuple granularity, bitmap
    /// matching).
    #[must_use]
    pub fn new(roles: RoleSet) -> Self {
        Self {
            roles,
            granularity: Granularity::Tuple,
            mode: MatchMode::Bitmap,
            current: None,
            verdict: Verdict::Deny,
            pending_policy: None,
            mask_cache: None,
            tuple_cache: None,
            seg_role: u32::MAX,
            recorder: FlightRecorder::default(),
            spans: SpanRecorder::default(),
            lag: LagTracker::new(),
            stats: OperatorStats::new(),
        }
    }

    /// Sets the enforcement granularity.
    #[must_use]
    pub fn with_granularity(mut self, g: Granularity) -> Self {
        self.granularity = g;
        self
    }

    /// Sets the predicate evaluation mode.
    #[must_use]
    pub fn with_mode(mut self, m: MatchMode) -> Self {
        self.mode = m;
        self
    }

    /// The predicate roles (SS state).
    #[must_use]
    pub fn predicate(&self) -> &RoleSet {
        &self.roles
    }

    /// Splitting rule (Rule 1): splits this SS into one shield per
    /// predicate role. `ψ_{p1∧…∧pn} ≡ ψ_{p1}(…(ψ_{pn}))` — for
    /// disjunctive role predicates the useful split is by role subsets;
    /// this helper splits into singletons.
    #[must_use]
    pub fn split(&self) -> Vec<SecurityShield> {
        self.roles
            .iter()
            .map(|r| {
                SecurityShield::new(RoleSet::single(r))
                    .with_granularity(self.granularity)
                    .with_mode(self.mode)
            })
            .collect()
    }

    /// Merging rule (Rule 1, reverse): one SS whose predicate is the union
    /// of the given shields' predicates.
    #[must_use]
    pub fn merge(shields: &[SecurityShield]) -> SecurityShield {
        let mut roles = RoleSet::new();
        for s in shields {
            roles.union_with(&s.roles);
        }
        let (granularity, mode) = shields
            .first()
            .map_or((Granularity::Tuple, MatchMode::Bitmap), |s| (s.granularity, s.mode));
        SecurityShield::new(roles).with_granularity(granularity).with_mode(mode)
    }

    /// Predicate check in the configured mode.
    fn authorized(&self, policy: &SharedPolicy) -> bool {
        match (self.mode, self.granularity) {
            (MatchMode::Bitmap, Granularity::Tuple) => policy.allows(&self.roles),
            (MatchMode::Bitmap, Granularity::Attribute) => policy.allows_any_attr(&self.roles),
            (MatchMode::Scan, _) => {
                // Role-by-role probe of the SS state (unindexed predicate
                // list), per the cost model's λ_sp(NR_sp + NR) term.
                let mut hit = false;
                for role in self.roles.iter() {
                    if policy.tuple_roles().contains(role) {
                        hit = true;
                    }
                }
                if !hit && self.granularity == Granularity::Attribute {
                    hit = policy.allows_any_attr(&self.roles);
                }
                hit
            }
        }
    }

    /// First predicate role the policy grants at tuple level, falling
    /// back to the first predicate role (attribute-scoped grants), or
    /// `u32::MAX` for an empty predicate. This is the role an audit
    /// record cites as the release justification.
    fn authorizing_role(&self, policy: &SharedPolicy) -> u32 {
        let mut fallback = u32::MAX;
        for role in self.roles.iter() {
            if fallback == u32::MAX {
                fallback = role.raw();
            }
            if policy.tuple_roles().contains(role) {
                return role.raw();
            }
        }
        fallback
    }

    fn evaluate_segment(&mut self, seg: &Arc<SegmentPolicy>) -> Verdict {
        self.mask_cache = None;
        self.tuple_cache = None;
        self.seg_role = u32::MAX;
        match seg.as_uniform() {
            Some(policy) => {
                if self.authorized(policy) {
                    self.seg_role = self.authorizing_role(policy);
                    let mask_from =
                        (self.granularity == Granularity::Attribute).then(|| policy.clone());
                    Verdict::Pass { mask_from }
                } else {
                    Verdict::Fail
                }
            }
            None => Verdict::PerTuple,
        }
    }

    /// Evaluates the predicate against a resolved policy, producing the
    /// pass verdict (with attribute mask) or `None` for deny.
    fn judge(&self, policy: &SharedPolicy, arity: usize) -> Option<Arc<[usize]>> {
        let pass = match self.granularity {
            Granularity::Tuple => policy.allows(&self.roles),
            Granularity::Attribute => policy.allows_any_attr(&self.roles),
        };
        if !pass {
            return None;
        }
        let masked: Arc<[usize]> = if self.granularity == Granularity::Attribute {
            policy.masked_attrs(arity, &self.roles).into()
        } else {
            Arc::from([])
        };
        Some(masked)
    }

    /// The attribute mask for a uniform segment at the given arity, cached.
    fn cached_mask(&mut self, policy: &SharedPolicy, arity: usize) -> Arc<[usize]> {
        match &self.mask_cache {
            Some((a, mask)) if *a == arity => mask.clone(),
            _ => {
                let mask: Arc<[usize]> = policy.masked_attrs(arity, &self.roles).into();
                self.mask_cache = Some((arity, mask.clone()));
                mask
            }
        }
    }

    /// Absorbs one arriving segment policy (the `process` policy arm,
    /// minus timing).
    fn absorb_policy(&mut self, seg: Arc<SegmentPolicy>) {
        self.stats.sps_in += 1;
        // An sp-batch with a newer timestamp replaces the buffered
        // policy (§V-A); older ones are ignored.
        let replace = self.current.as_ref().is_none_or(|cur| seg.ts >= cur.ts);
        if replace {
            self.verdict = self.evaluate_segment(&seg);
            self.pending_policy = match self.verdict {
                Verdict::Fail | Verdict::Deny => None,
                // Forward the policy narrowed to this shield's
                // predicate: downstream of ψ_p nothing may observe
                // access beyond p (least privilege), and narrowing
                // makes the Table II push-down rules exact.
                _ => Some(Arc::new(seg.map_policies(|p| p.restrict_to(&self.roles)))),
            };
            // The enforcement moment: span + enforcement-lag sample,
            // keyed to the sp-batch stamp (stream time only).
            let sp_ts = seg.ts.0;
            if self.spans.enabled() {
                let trace = sp_core::trace::trace_id_for_sp(sp_ts);
                self.spans.record(SpanRecord::at(
                    trace,
                    sp_core::trace::site::SHIELD_ENFORCE,
                    sp_core::trace::span_id(trace, sp_core::trace::site::ANALYZE),
                    NO_TUPLE,
                    sp_ts,
                ));
            }
            self.lag.observe_policy(sp_ts);
            self.current = Some(seg);
        }
    }

    /// Records the tuple-level causal span for a release/suppression
    /// decision, parented under the governing sp's enforcement span.
    fn record_decision_span(&mut self, site: u8, tid: u64, ts: u64, sp_ts: u64) {
        let trace = sp_core::trace::trace_id_for_tuple(tid);
        let parent = if sp_ts == NO_SP {
            0
        } else {
            sp_core::trace::span_id(
                sp_core::trace::trace_id_for_sp(sp_ts),
                sp_core::trace::site::SHIELD_ENFORCE,
            )
        };
        self.spans.record(SpanRecord::at(trace, site, parent, tid, ts));
    }

    /// Judges one tuple under the current verdict (the `process` tuple
    /// arm, minus timing).
    fn shield_tuple(&mut self, tuple: Arc<sp_core::Tuple>, out: &mut Emitter) {
        self.stats.tuples_in += 1;
        let (tid_raw, ts_raw) = (tuple.tid.raw(), tuple.ts.0);
        self.lag.observe_tuple(ts_raw);
        let mut audit_role = u32::MAX;
        let decision = match &self.verdict {
            Verdict::Deny | Verdict::Fail => None,
            Verdict::Pass { mask_from } => {
                audit_role = self.seg_role;
                match mask_from.clone() {
                    None => Some(Arc::from([])),
                    Some(policy) => Some(self.cached_mask(&policy, tuple.arity())),
                }
            }
            Verdict::PerTuple => {
                // Resolve with a scoped borrow, deferring any
                // mutation of the verdict cache.
                enum Hit {
                    Deny,
                    Cached(Option<Arc<[usize]>>, u32),
                    Evaluate(SharedPolicy),
                    Combined(SharedPolicy),
                }
                let hit = {
                    // Audited: the PerTuple verdict is only produced
                    // while a segment is current.
                    #[allow(clippy::expect_used)]
                    let seg = self.current.as_ref().expect("PerTuple implies a segment");
                    match seg.resolve_ref(&tuple) {
                        crate::element::Resolved::None => Hit::Deny,
                        crate::element::Resolved::One(policy) => {
                            // Hot path: consecutive tuples of one
                            // segment resolve to the same policy
                            // allocation — a pointer compare
                            // reuses the previous verdict.
                            match &self.tuple_cache {
                                Some((cached, verdict, role)) if Arc::ptr_eq(cached, policy) => {
                                    Hit::Cached(verdict.clone(), *role)
                                }
                                _ => Hit::Evaluate(policy.clone()),
                            }
                        }
                        crate::element::Resolved::Many => Hit::Combined(seg.policy_for(&tuple)),
                    }
                };
                match hit {
                    Hit::Deny => None,
                    Hit::Cached(verdict, role) => {
                        audit_role = role;
                        verdict
                    }
                    Hit::Evaluate(policy) => {
                        let verdict = self.judge(&policy, tuple.arity());
                        let role = self.authorizing_role(&policy);
                        self.tuple_cache = Some((policy, verdict.clone(), role));
                        audit_role = role;
                        verdict
                    }
                    Hit::Combined(policy) => {
                        audit_role = self.authorizing_role(&policy);
                        self.judge(&policy, tuple.arity())
                    }
                }
            }
        };
        match decision {
            Some(masked) => {
                if let Some(policy) = self.pending_policy.take() {
                    self.stats.sps_out += 1;
                    out.push(Element::Policy(policy));
                }
                self.stats.tuples_out += 1;
                let sp_ts = self.current.as_ref().map_or(NO_SP, |seg| seg.ts.0);
                if self.recorder.enabled() {
                    self.recorder.record(AuditRecord::new(
                        tid_raw,
                        ts_raw,
                        AuditEvent::Released { role: audit_role, sp_ts },
                    ));
                }
                self.lag.observe_release(ts_raw);
                if self.spans.enabled() {
                    self.record_decision_span(
                        sp_core::trace::site::RELEASE,
                        tid_raw,
                        ts_raw,
                        sp_ts,
                    );
                }
                if masked.is_empty() {
                    out.push(Element::Tuple(tuple));
                } else {
                    out.push(Element::tuple(tuple.mask(&masked)));
                }
            }
            None => {
                self.stats.tuples_shielded += 1;
                let sp_ts = self.current.as_ref().map_or(NO_SP, |seg| seg.ts.0);
                if self.recorder.enabled() {
                    self.recorder.record(AuditRecord::new(
                        tid_raw,
                        ts_raw,
                        AuditEvent::Suppressed { sp_ts },
                    ));
                }
                self.lag.observe_suppress(ts_raw);
                if self.spans.enabled() {
                    self.record_decision_span(
                        sp_core::trace::site::SUPPRESS,
                        tid_raw,
                        ts_raw,
                        sp_ts,
                    );
                }
            }
        }
    }
}

impl Operator for SecurityShield {
    fn name(&self) -> &str {
        "ss"
    }

    fn process(
        &mut self,
        port: usize,
        elem: Element,
        out: &mut Emitter,
    ) -> Result<(), EngineError> {
        if port != 0 {
            return Err(EngineError::BadPort { operator: "ss".into(), port, arity: 1 });
        }
        match elem {
            Element::Policy(seg) => self.absorb_policy(seg),
            Element::Tuple(tuple) => self.shield_tuple(tuple, out),
        }
        Ok(())
    }

    /// Vectorized fast path: a tuple-only run is judged under one cached
    /// verdict — the whole run is released (uniform pass, tuple
    /// granularity) or suppressed (deny/fail) with O(1) counter updates.
    /// Attribute-masked and scoped (per-tuple) segments, and any batch
    /// containing policies, fall back to the per-element cores, so
    /// outputs, counters, audit records, and snapshots are identical to
    /// element-at-a-time processing for every batch shape. The executor
    /// times the call; the shield reads no clock.
    fn process_batch(
        &mut self,
        port: usize,
        batch: crate::batch::ElementBatch,
        out: &mut Emitter,
    ) -> Result<(), EngineError> {
        if port != 0 {
            return Err(EngineError::BadPort { operator: "ss".into(), port, arity: 1 });
        }
        if batch.is_control() {
            // Policy run (or a mixed test batch): per-element cores.
            for elem in batch {
                match elem {
                    Element::Policy(seg) => self.absorb_policy(seg),
                    Element::Tuple(tuple) => self.shield_tuple(tuple, out),
                }
            }
        } else {
            // Tuple-only run: no policy can arrive mid-batch, so one
            // verdict governs the entire run.
            let n = batch.len() as u64;
            match &self.verdict {
                Verdict::Deny | Verdict::Fail => {
                    self.stats.tuples_in += n;
                    self.stats.tuples_shielded += n;
                    let audit = self.recorder.enabled();
                    if audit || self.spans.enabled() || self.lag.armed() {
                        let sp_ts = self.current.as_ref().map_or(NO_SP, |seg| seg.ts.0);
                        for elem in &batch {
                            if let Some(t) = elem.as_tuple() {
                                let (tid, ts) = (t.tid.raw(), t.ts.0);
                                self.lag.observe_tuple(ts);
                                if audit {
                                    self.recorder.record(AuditRecord::new(
                                        tid,
                                        ts,
                                        AuditEvent::Suppressed { sp_ts },
                                    ));
                                }
                                self.lag.observe_suppress(ts);
                                if self.spans.enabled() {
                                    self.record_decision_span(
                                        sp_core::trace::site::SUPPRESS,
                                        tid,
                                        ts,
                                        sp_ts,
                                    );
                                }
                            }
                        }
                    }
                }
                Verdict::Pass { mask_from: None } => {
                    self.stats.tuples_in += n;
                    self.stats.tuples_out += n;
                    if let Some(policy) = self.pending_policy.take() {
                        self.stats.sps_out += 1;
                        out.push(Element::Policy(policy));
                    }
                    out.reserve(batch.len());
                    let audit = self.recorder.enabled();
                    if audit || self.spans.enabled() || self.lag.armed() {
                        let sp_ts = self.current.as_ref().map_or(NO_SP, |seg| seg.ts.0);
                        let role = self.seg_role;
                        for elem in batch {
                            if let Some(t) = elem.as_tuple() {
                                let (tid, ts) = (t.tid.raw(), t.ts.0);
                                self.lag.observe_tuple(ts);
                                if audit {
                                    self.recorder.record(AuditRecord::new(
                                        tid,
                                        ts,
                                        AuditEvent::Released { role, sp_ts },
                                    ));
                                }
                                self.lag.observe_release(ts);
                                if self.spans.enabled() {
                                    self.record_decision_span(
                                        sp_core::trace::site::RELEASE,
                                        tid,
                                        ts,
                                        sp_ts,
                                    );
                                }
                            }
                            out.push(elem);
                        }
                    } else {
                        for elem in batch {
                            out.push(elem);
                        }
                    }
                }
                // Attribute masks and scoped segments need per-tuple
                // resolution; caches inside the core keep it O(1) per
                // tuple.
                Verdict::Pass { mask_from: Some(_) } | Verdict::PerTuple => {
                    for elem in batch {
                        match elem {
                            Element::Tuple(tuple) => self.shield_tuple(tuple, out),
                            Element::Policy(seg) => self.absorb_policy(seg),
                        }
                    }
                }
            }
        }
        Ok(())
    }

    fn stats(&self) -> &OperatorStats {
        &self.stats
    }

    fn set_audit(&mut self, capacity: usize) -> bool {
        self.recorder = FlightRecorder::new(capacity);
        true
    }

    fn audit(&self) -> Option<&FlightRecorder> {
        self.recorder.enabled().then_some(&self.recorder)
    }

    fn set_spans(&mut self, capacity: usize) -> bool {
        self.spans = SpanRecorder::new(capacity);
        self.lag.set_armed(capacity > 0);
        true
    }

    fn spans(&self) -> Option<&SpanRecorder> {
        self.spans.enabled().then_some(&self.spans)
    }

    fn lag(&self) -> Option<&LagTracker> {
        self.lag.armed().then_some(&self.lag)
    }

    fn state_mem_bytes(&self) -> usize {
        self.roles.mem_bytes() + self.current.as_ref().map_or(0, |seg| seg.mem_bytes())
    }

    /// The shield decides per tuple from policy state built *only* from
    /// broadcast sps, so shard replicas hold identical policy state:
    /// safe to replicate across shards. Its lazy policy forwarding is
    /// tuple-dependent, though, so the sharded builder additionally
    /// requires it to feed its sink directly (see
    /// [`Operator::delays_sps`]).
    fn shard_safe(&self) -> bool {
        true
    }

    /// The narrowed pending policy is emitted before the first *released*
    /// tuple — a shard-local event under key partitioning.
    fn delays_sps(&self) -> bool {
        true
    }

    /// Suffix layout: the buffered segment (replicated — built from
    /// broadcast sps alone) followed by the pending narrowed policy
    /// (canonically flushed when any shard released a tuple).
    fn merge_shard_state(&self, parts: &[&[u8]]) -> Result<Vec<u8>, EngineError> {
        ckpt::merge_delayed_suffix("ss", parts, 1)
    }

    /// Snapshot: counters, the buffered segment policy, and the pending
    /// (not-yet-emitted) narrowed policy. The verdict and both caches are
    /// derived state, re-evaluated on restore.
    fn snapshot(&self, buf: &mut Vec<u8>) {
        self.stats.encode_counters(buf);
        ckpt::encode_opt_segment(self.current.as_ref(), buf);
        ckpt::encode_opt_segment(self.pending_policy.as_ref(), buf);
    }

    fn restore(&mut self, bytes: &[u8]) -> Result<(), EngineError> {
        let mut slice = bytes;
        let buf = &mut slice;
        let mut apply = || -> Result<(), ckpt::CodecError> {
            self.stats.decode_counters(buf)?;
            self.current = ckpt::decode_opt_segment(buf)?;
            self.pending_policy = ckpt::decode_opt_segment(buf)?;
            ckpt::done(buf)
        };
        apply().map_err(|e| EngineError::corrupt("ss", e))?;
        // Audit/span/lag state is not checkpointed; replay repopulates.
        self.recorder.clear();
        self.spans.clear();
        self.lag.clear();
        self.verdict = match self.current.clone() {
            Some(seg) => self.evaluate_segment(&seg),
            None => {
                self.mask_cache = None;
                self.tuple_cache = None;
                self.seg_role = u32::MAX;
                Verdict::Deny
            }
        };
        Ok(())
    }

    /// Runtime role reassignment (§IX future work): swaps the predicate
    /// and re-evaluates the buffered segment so the very next tuple is
    /// judged under the new roles.
    fn update_predicate(&mut self, roles: &RoleSet) -> bool {
        self.roles = roles.clone();
        self.mask_cache = None;
        self.tuple_cache = None;
        if let Some(seg) = self.current.clone() {
            self.verdict = self.evaluate_segment(&seg);
            self.pending_policy = match self.verdict {
                Verdict::Fail | Verdict::Deny => None,
                _ => Some(Arc::new(seg.map_policies(|p| p.restrict_to(&self.roles)))),
            };
        }
        true
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use crate::operator::run_unary;
    use sp_core::{Policy, RoleId, StreamId, Timestamp, Tuple, TupleId, Value};
    use sp_pattern::Pattern;

    fn tup(tid: u64, ts: u64) -> Element {
        Element::tuple(Tuple::new(
            StreamId(0),
            TupleId(tid),
            Timestamp(ts),
            vec![Value::Int(tid as i64), Value::Int(7)],
        ))
    }

    fn pol(roles: &[u32], ts: u64) -> Element {
        Element::policy(SegmentPolicy::uniform(Policy::tuple_level(
            roles.iter().map(|&r| RoleId(r)).collect(),
            Timestamp(ts),
        )))
    }

    fn tuples_of(elems: &[Element]) -> Vec<u64> {
        elems.iter().filter_map(|e| e.as_tuple().map(|t| t.tid.raw())).collect()
    }

    #[test]
    fn denial_by_default() {
        let mut ss = SecurityShield::new(RoleSet::from([1]));
        let out = run_unary(&mut ss, vec![tup(1, 0), tup(2, 1)]);
        assert!(out.is_empty());
        assert_eq!(ss.stats().tuples_shielded, 2);
    }

    #[test]
    fn passing_segment_flows_with_policy_first() {
        let mut ss = SecurityShield::new(RoleSet::from([1]));
        let out = run_unary(&mut ss, vec![pol(&[1, 2], 0), tup(1, 1), tup(2, 2)]);
        assert_eq!(out.len(), 3);
        assert!(out[0].as_policy().is_some(), "policy precedes its tuples");
        assert_eq!(tuples_of(&out), vec![1, 2]);
        assert_eq!(ss.stats().sps_out, 1);
    }

    #[test]
    fn failing_segment_discards_tuples_and_sps() {
        let mut ss = SecurityShield::new(RoleSet::from([9]));
        let out = run_unary(&mut ss, vec![pol(&[1], 0), tup(1, 1), pol(&[9], 2), tup(2, 3)]);
        assert_eq!(tuples_of(&out), vec![2]);
        // Only the passing segment's policy is forwarded.
        assert_eq!(out.iter().filter(|e| e.as_policy().is_some()).count(), 1);
        assert_eq!(ss.stats().tuples_shielded, 1);
    }

    #[test]
    fn newer_policy_overrides_older() {
        let mut ss = SecurityShield::new(RoleSet::from([1]));
        let out = run_unary(&mut ss, vec![pol(&[1], 10), tup(1, 11), pol(&[2], 12), tup(2, 13)]);
        assert_eq!(tuples_of(&out), vec![1]);
    }

    #[test]
    fn stale_policy_is_ignored() {
        let mut ss = SecurityShield::new(RoleSet::from([1]));
        let out = run_unary(&mut ss, vec![pol(&[1], 10), pol(&[2], 5), tup(1, 11)]);
        assert_eq!(tuples_of(&out), vec![1], "older sp must not override");
    }

    #[test]
    fn scan_mode_agrees_with_bitmap() {
        for roles in [vec![1u32], vec![5], vec![1, 5, 9]] {
            let input = vec![pol(&[1, 7], 0), tup(1, 1), pol(&[4], 2), tup(2, 3)];
            let mut bitmap = SecurityShield::new(roles.iter().map(|&r| RoleId(r)).collect());
            let mut scan = SecurityShield::new(roles.iter().map(|&r| RoleId(r)).collect())
                .with_mode(MatchMode::Scan);
            assert_eq!(
                tuples_of(&run_unary(&mut bitmap, input.clone())),
                tuples_of(&run_unary(&mut scan, input))
            );
        }
    }

    #[test]
    fn per_tuple_scoped_segments() {
        let seg = SegmentPolicy::new(
            vec![crate::element::PolicyEntry {
                scope: Pattern::numeric_range(0, 5),
                policy: std::sync::Arc::new(Policy::tuple_level(RoleSet::from([1]), Timestamp(0))),
            }],
            Timestamp(0),
        );
        let mut ss = SecurityShield::new(RoleSet::from([1]));
        let out = run_unary(&mut ss, vec![Element::policy(seg), tup(3, 1), tup(9, 2)]);
        assert_eq!(tuples_of(&out), vec![3], "tuple 9 is outside the scope");
    }

    #[test]
    fn attribute_granularity_masks() {
        let policy = Policy::tuple_level(RoleSet::new(), Timestamp(0))
            .with_attr_grant(1, RoleSet::from([1]));
        let seg = SegmentPolicy::uniform(policy);
        let mut ss =
            SecurityShield::new(RoleSet::from([1])).with_granularity(Granularity::Attribute);
        let out = run_unary(&mut ss, vec![Element::policy(seg), tup(42, 1)]);
        let t = out.iter().find_map(|e| e.as_tuple()).expect("tuple passes via attribute grant");
        assert!(t.value(0).unwrap().is_null(), "unauthorized attr masked");
        assert_eq!(t.value(1), Some(&Value::Int(7)));

        // Tuple granularity would have dropped it entirely.
        let seg2 = SegmentPolicy::uniform(
            Policy::tuple_level(RoleSet::new(), Timestamp(0))
                .with_attr_grant(1, RoleSet::from([1])),
        );
        let mut strict = SecurityShield::new(RoleSet::from([1]));
        let out2 = run_unary(&mut strict, vec![Element::policy(seg2), tup(42, 1)]);
        assert!(tuples_of(&out2).is_empty());
    }

    #[test]
    fn split_and_merge_round_trip() {
        let ss = SecurityShield::new(RoleSet::from([1, 4, 7]));
        let parts = ss.split();
        assert_eq!(parts.len(), 3);
        for p in &parts {
            assert_eq!(p.predicate().len(), 1);
        }
        let merged = SecurityShield::merge(&parts);
        assert_eq!(merged.predicate(), ss.predicate());
    }

    #[test]
    fn policy_emitted_once_per_segment() {
        let mut ss = SecurityShield::new(RoleSet::from([1]));
        let out = run_unary(&mut ss, vec![pol(&[1], 0), tup(1, 1), tup(2, 2), tup(3, 3)]);
        assert_eq!(out.iter().filter(|e| e.as_policy().is_some()).count(), 1);
        assert_eq!(tuples_of(&out).len(), 3);
    }

    #[test]
    fn mem_accounting_includes_state() {
        let mut ss = SecurityShield::new(RoleSet::from([1]));
        let empty = ss.state_mem_bytes();
        let _ = run_unary(&mut ss, vec![pol(&[1, 2, 3], 0)]);
        assert!(ss.state_mem_bytes() > empty);
        assert_eq!(ss.name(), "ss");
    }
}
