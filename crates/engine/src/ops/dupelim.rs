//! Security-aware duplicate elimination `δ(T)` (Table I, §IV-B).
//!
//! Over a sliding window, the output contains exactly one tuple per
//! distinct value. Policies are stored with the output state, and a new
//! duplicate is released only to the subjects that could *not* already see
//! the previously released copy:
//!
//! 1. `P_old ∩ P_new = ∅` — the earlier output was invisible to the new
//!    tuple's audience: emit the value under `P_new`;
//! 2. `P_old ∩ P_new = P_new` — the earlier output was already visible to
//!    everyone authorized now: emit nothing;
//! 3. otherwise — emit under `P_new − (P_old ∩ P_new)` (only the roles that
//!    gained visibility).
//!
//! In every emitting case the stored policy widens to `P_old ∪ P_new`: the
//! output state tracks the *cumulative audience* that has been shown the
//! value. (The paper's literal text stores only `P_new` in case 1, which
//! forgets earlier viewers and re-releases values to audiences that
//! already saw them whenever a disjoint policy intervenes; the cumulative
//! form is what makes the Table II shield/δ commute rule sound. All three
//! cases then coincide with the unified rule: release `P_new − P_seen`
//! when non-empty, then `P_seen ← P_seen ∪ P_new`.)

use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use sp_core::{Policy, RoleSet, SharedPolicy, Timestamp, Tuple, Value};

use crate::checkpoint as ckpt;
use crate::element::{Element, SegmentPolicy};
use crate::error::EngineError;
use crate::operator::{Emitter, Operator};
use crate::stats::OperatorStats;
use crate::window::WindowSpec;

/// Output-state entry for one distinct value.
#[derive(Debug)]
struct OutEntry {
    /// Roles that have been shown this value.
    roles: RoleSet,
    /// Number of window tuples supporting the value.
    support: usize,
}

/// The duplicate-elimination operator.
#[derive(Debug)]
pub struct DupElim {
    /// Attributes forming the distinctness key (empty = all attributes).
    key_attrs: Vec<usize>,
    window: WindowSpec,
    /// Input window contents, for support counting and expiry.
    buffer: VecDeque<(Arc<Tuple>, SharedPolicy)>,
    output: HashMap<Vec<Value>, OutEntry>,
    current: Option<Arc<SegmentPolicy>>,
    last_policy: Option<Policy>,
    stats: OperatorStats,
}

impl DupElim {
    /// Duplicate elimination on the given key attributes over a sliding
    /// window of `window_ms` (an empty key list means whole-tuple values).
    #[must_use]
    pub fn new(key_attrs: Vec<usize>, window_ms: u64) -> Self {
        Self {
            key_attrs,
            window: WindowSpec::Time(window_ms),
            buffer: VecDeque::new(),
            output: HashMap::new(),
            current: None,
            last_policy: None,
            stats: OperatorStats::new(),
        }
    }

    /// Replaces the window specification (e.g. a `ROWS n` count window).
    #[must_use]
    pub fn with_window(mut self, window: WindowSpec) -> Self {
        self.window = window;
        self
    }

    fn key_of(&self, tuple: &Tuple) -> Vec<Value> {
        if self.key_attrs.is_empty() {
            tuple.values().to_vec()
        } else {
            self.key_attrs.iter().map(|&i| tuple.value(i).cloned().unwrap_or(Value::Null)).collect()
        }
    }

    fn expire(&mut self, now: Timestamp) {
        let Some(horizon) = self.window.horizon(now) else { return };
        while self.buffer.front().is_some_and(|(t, _)| t.ts <= horizon) {
            self.evict_front();
        }
    }

    fn trim_rows(&mut self) {
        if let Some(capacity) = self.window.capacity() {
            while self.buffer.len() > capacity {
                self.evict_front();
            }
        }
    }

    fn evict_front(&mut self) {
        let Some((t, _)) = self.buffer.pop_front() else { return };
        let key = self.key_of(&t);
        if let Entry::Occupied(mut e) = self.output.entry(key) {
            e.get_mut().support -= 1;
            if e.get().support == 0 {
                e.remove();
            }
        }
    }

    fn emit(&mut self, out: &mut Emitter, tuple: Arc<Tuple>, roles: RoleSet, ts: Timestamp) {
        // Output policies carry the released tuple's timestamp (keeping
        // output sps ordered) and repeat only when authorizations change.
        let policy = Policy::tuple_level(roles, ts);
        let repeated =
            self.last_policy.as_ref().is_some_and(|prev| prev.same_authorizations(&policy));
        if !repeated {
            self.stats.sps_out += 1;
            out.push(Element::policy(SegmentPolicy::uniform(policy.clone())));
        }
        self.last_policy = Some(policy);
        self.stats.tuples_out += 1;
        out.push(Element::Tuple(tuple));
    }
}

impl Operator for DupElim {
    fn name(&self) -> &str {
        "dupelim"
    }

    fn process(
        &mut self,
        port: usize,
        elem: Element,
        out: &mut Emitter,
    ) -> Result<(), EngineError> {
        if port != 0 {
            return Err(EngineError::BadPort { operator: "dupelim".into(), port, arity: 1 });
        }
        match elem {
            Element::Policy(seg) => {
                self.stats.sps_in += 1;
                let newer = self.current.as_ref().is_none_or(|c| seg.ts >= c.ts);
                if newer {
                    self.current = Some(seg);
                }
            }
            Element::Tuple(tuple) => {
                self.stats.tuples_in += 1;
                self.expire(tuple.ts);
                let p_new: SharedPolicy = match &self.current {
                    Some(seg) => seg.policy_for(&tuple),
                    None => Arc::new(Policy::deny_all(Timestamp::ZERO)),
                };
                let key = self.key_of(&tuple);
                // Take the roles first so the policy Arc can move into the
                // window without an extra refcount round-trip.
                let new_roles = p_new.tuple_roles().clone();
                self.buffer.push_back((tuple.clone(), p_new));
                self.trim_rows();
                let action = match self.output.get_mut(&key) {
                    None => {
                        self.output.insert(key, OutEntry { roles: new_roles.clone(), support: 1 });
                        Some(new_roles)
                    }
                    Some(entry) => {
                        entry.support += 1;
                        let common = entry.roles.intersect(&new_roles);
                        if common.is_empty() {
                            // Case 1: previous output was invisible to this
                            // audience — re-release under P_new; the stored
                            // audience accumulates.
                            entry.roles.union_with(&new_roles);
                            if new_roles.is_empty() {
                                None // deny-all tuples are never released
                            } else {
                                Some(new_roles)
                            }
                        } else if common == new_roles {
                            // Case 2: already visible to everyone in P_new.
                            None
                        } else {
                            // Case 3: release only the newly-covered roles.
                            let delta = new_roles.minus(&common);
                            entry.roles.union_with(&new_roles);
                            Some(delta)
                        }
                    }
                };
                if let Some(roles) = action {
                    if !roles.is_empty() {
                        let ts = tuple.ts;
                        self.emit(out, tuple, roles, ts);
                    } else {
                        self.stats.tuples_shielded += 1;
                    }
                }
            }
        }
        Ok(())
    }

    fn stats(&self) -> &OperatorStats {
        &self.stats
    }

    fn state_mem_bytes(&self) -> usize {
        let window: usize = self
            .buffer
            .iter()
            .map(|(t, _)| t.mem_bytes() + std::mem::size_of::<SharedPolicy>())
            .sum();
        let output: usize = self
            .output
            .values()
            .map(|e| e.roles.mem_bytes() + std::mem::size_of::<OutEntry>())
            .sum();
        window + output
    }

    /// Snapshot: counters, the input window, the output state (one entry
    /// per distinct value, serialized in byte-sorted key order so equal
    /// states always snapshot to identical bytes), the current segment
    /// policy, and the last emitted policy.
    fn snapshot(&self, buf: &mut Vec<u8>) {
        use bytes::BufMut;
        self.stats.encode_counters(buf);
        buf.put_u32(self.buffer.len() as u32);
        for (t, p) in &self.buffer {
            ckpt::encode_tuple_policy(t, p, buf);
        }
        let mut entries: Vec<Vec<u8>> = self
            .output
            .iter()
            .map(|(key, entry)| {
                let mut e = Vec::new();
                e.put_u16(key.len() as u16);
                for v in key {
                    sp_core::wire::encode_value(v, &mut e);
                }
                entry.roles.encode(&mut e);
                e.put_u64(entry.support as u64);
                e
            })
            .collect();
        entries.sort_unstable();
        buf.put_u32(entries.len() as u32);
        for e in entries {
            buf.extend_from_slice(&e);
        }
        ckpt::encode_opt_segment(self.current.as_ref(), buf);
        ckpt::encode_opt_policy(self.last_policy.as_ref(), buf);
    }

    fn restore(&mut self, bytes: &[u8]) -> Result<(), EngineError> {
        use bytes::Buf;
        let mut slice = bytes;
        let buf = &mut slice;
        let mut apply = || -> Result<(), ckpt::CodecError> {
            self.stats.decode_counters(buf)?;
            ckpt::need(buf, 4, "dupelim buffer length")?;
            let n = buf.get_u32() as usize;
            let mut buffer = VecDeque::with_capacity(n);
            for _ in 0..n {
                buffer.push_back(ckpt::decode_tuple_policy(buf)?);
            }
            self.buffer = buffer;
            ckpt::need(buf, 4, "dupelim output length")?;
            let n = buf.get_u32() as usize;
            let mut output = HashMap::with_capacity(n);
            for _ in 0..n {
                ckpt::need(buf, 2, "dupelim key arity")?;
                let arity = buf.get_u16() as usize;
                let mut key = Vec::with_capacity(arity);
                for _ in 0..arity {
                    key.push(sp_core::wire::decode_value(buf).map_err(|e| e.to_string())?);
                }
                let roles = RoleSet::decode(buf)?;
                ckpt::need(buf, 8, "dupelim support count")?;
                let support = buf.get_u64() as usize;
                if output.insert(key, OutEntry { roles, support }).is_some() {
                    return Err("duplicate dupelim output key".into());
                }
            }
            self.output = output;
            self.current = ckpt::decode_opt_segment(buf)?;
            self.last_policy = ckpt::decode_opt_policy(buf)?;
            ckpt::done(buf)
        };
        apply().map_err(|e| EngineError::corrupt("dupelim", e))
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use crate::operator::run_unary;
    use sp_core::{RoleId, StreamId, TupleId};

    fn tup(tid: u64, ts: u64, v: i64) -> Element {
        Element::tuple(Tuple::new(StreamId(0), TupleId(tid), Timestamp(ts), vec![Value::Int(v)]))
    }

    fn pol(roles: &[u32], ts: u64) -> Element {
        Element::policy(SegmentPolicy::uniform(Policy::tuple_level(
            roles.iter().map(|&r| RoleId(r)).collect(),
            Timestamp(ts),
        )))
    }

    fn released(out: &[Element]) -> Vec<(i64, Vec<u32>)> {
        // (value, roles of the preceding policy)
        let mut current: Vec<u32> = Vec::new();
        let mut results = Vec::new();
        for e in out {
            match e {
                Element::Policy(p) => {
                    current =
                        p.as_uniform().unwrap().tuple_roles().iter().map(|r| r.raw()).collect();
                }
                Element::Tuple(t) => {
                    results.push((t.value(0).unwrap().as_i64().unwrap(), current.clone()));
                }
            }
        }
        results
    }

    #[test]
    fn distinct_values_pass_once() {
        let mut de = DupElim::new(vec![0], 1000);
        let out = run_unary(&mut de, vec![pol(&[1], 0), tup(1, 1, 5), tup(2, 2, 5), tup(3, 3, 6)]);
        assert_eq!(released(&out), vec![(5, vec![1]), (6, vec![1])]);
    }

    #[test]
    fn case1_disjoint_policies_rerelease() {
        let mut de = DupElim::new(vec![0], 1000);
        let out = run_unary(&mut de, vec![pol(&[1], 0), tup(1, 1, 5), pol(&[2], 2), tup(2, 3, 5)]);
        // Audience {2} never saw 5: re-released under {2}.
        assert_eq!(released(&out), vec![(5, vec![1]), (5, vec![2])]);
    }

    #[test]
    fn case2_subset_policy_suppressed() {
        let mut de = DupElim::new(vec![0], 1000);
        let out =
            run_unary(&mut de, vec![pol(&[1, 2], 0), tup(1, 1, 5), pol(&[2], 2), tup(2, 3, 5)]);
        // Audience {2} already saw 5 via the first release.
        assert_eq!(released(&out), vec![(5, vec![1, 2])]);
    }

    #[test]
    fn case3_partial_overlap_releases_delta() {
        let mut de = DupElim::new(vec![0], 1000);
        let out =
            run_unary(&mut de, vec![pol(&[1, 2], 0), tup(1, 1, 5), pol(&[2, 3], 2), tup(2, 3, 5)]);
        // Role 3 is the only newcomer.
        assert_eq!(released(&out), vec![(5, vec![1, 2]), (5, vec![3])]);
    }

    #[test]
    fn case3_widens_stored_policy() {
        let mut de = DupElim::new(vec![0], 1000);
        let out = run_unary(
            &mut de,
            vec![
                pol(&[1, 2], 0),
                tup(1, 1, 5),
                pol(&[2, 3], 2),
                tup(2, 3, 5),
                // {3} has now seen it through the delta release: suppress.
                pol(&[3], 4),
                tup(3, 5, 5),
            ],
        );
        assert_eq!(released(&out).len(), 2);
    }

    #[test]
    fn expiry_forgets_values() {
        let mut de = DupElim::new(vec![0], 100);
        let out = run_unary(&mut de, vec![pol(&[1], 0), tup(1, 1, 5), tup(2, 250, 5)]);
        // First copy expired before the second arrived → released again.
        assert_eq!(released(&out).len(), 2);
        assert!(de.state_mem_bytes() > 0);
    }

    #[test]
    fn deny_all_tuples_never_released() {
        let mut de = DupElim::new(vec![0], 1000);
        let out = run_unary(&mut de, vec![tup(1, 1, 5)]);
        assert!(released(&out).is_empty());
        // And a later authorized duplicate IS released.
        let out = run_unary(&mut de, vec![pol(&[4], 2), tup(2, 3, 5)]);
        assert_eq!(released(&out), vec![(5, vec![4])]);
    }

    #[test]
    fn row_window_forgets_by_count() {
        use crate::window::WindowSpec;
        let mut de = DupElim::new(vec![0], 0).with_window(WindowSpec::Rows(1));
        let out = run_unary(&mut de, vec![pol(&[1], 0), tup(1, 1, 5), tup(2, 2, 6), tup(3, 3, 5)]);
        // Value 5 was evicted by value 6, so its reappearance re-releases.
        assert_eq!(released(&out), vec![(5, vec![1]), (6, vec![1]), (5, vec![1])]);
    }

    #[test]
    fn whole_tuple_key_when_no_attrs_given() {
        let mut de = DupElim::new(vec![], 1000);
        let out = run_unary(&mut de, vec![pol(&[1], 0), tup(1, 1, 5), tup(2, 2, 5)]);
        assert_eq!(released(&out).len(), 1);
        assert_eq!(de.name(), "dupelim");
    }
}
