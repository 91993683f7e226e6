//! Security-aware group-by / aggregation `G_A^{agg}(T)` (Table I, §IV-B).
//!
//! Each attribute group (AG — tuples sharing a grouping value) is
//! partitioned into *attribute subgroups* (ASGs): tuples with the same
//! grouping value **and** the same policy. An aggregate is maintained per
//! ASG and every update is emitted preceded by the subgroup's policy, so a
//! subject only ever sees aggregates over tuples it was authorized to read.
//! Aggregation without grouping is a group-by with a single group.

use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::sync::Arc;

use sp_core::{Policy, RoleSet, SharedPolicy, Timestamp, Tuple, Value};

use crate::checkpoint as ckpt;
use crate::element::{Element, SegmentPolicy};
use crate::error::EngineError;
use crate::operator::{Emitter, Operator};
use crate::stats::OperatorStats;
use crate::window::WindowSpec;

/// Supported aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// Row count.
    Count,
    /// Numeric sum.
    Sum,
    /// Numeric average.
    Avg,
    /// Minimum (total order).
    Min,
    /// Maximum (total order).
    Max,
}

impl AggFunc {
    /// SQL-ish name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            AggFunc::Count => "COUNT",
            AggFunc::Sum => "SUM",
            AggFunc::Avg => "AVG",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
        }
    }
}

/// `Value` wrapper ordered by [`Value::cmp_total`], usable as a BTree key.
#[derive(Debug, Clone, PartialEq, Eq)]
struct OrdValue(Value);

impl PartialOrd for OrdValue {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrdValue {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.cmp_total(&other.0)
    }
}

/// Incremental aggregate state (supports retraction on window expiry).
#[derive(Debug, Default)]
struct AggState {
    count: u64,
    sum: f64,
    /// Multiset of values for Min/Max retraction.
    values: BTreeMap<OrdValue, usize>,
}

impl AggState {
    fn add(&mut self, v: &Value) {
        self.count += 1;
        if let Some(x) = v.as_f64() {
            self.sum += x;
        }
        *self.values.entry(OrdValue(v.clone())).or_insert(0) += 1;
    }

    fn retract(&mut self, v: &Value) {
        self.count = self.count.saturating_sub(1);
        if let Some(x) = v.as_f64() {
            self.sum -= x;
        }
        // One key construction for both the lookup and the removal.
        let key = OrdValue(v.clone());
        if let Some(n) = self.values.get_mut(&key) {
            *n -= 1;
            if *n == 0 {
                self.values.remove(&key);
            }
        }
    }

    fn result(&self, f: AggFunc) -> Value {
        match f {
            AggFunc::Count => Value::Int(self.count as i64),
            AggFunc::Sum => Value::Float(self.sum),
            AggFunc::Avg => {
                if self.count == 0 {
                    Value::Null
                } else {
                    Value::Float(self.sum / self.count as f64)
                }
            }
            AggFunc::Min => self.values.keys().next().map_or(Value::Null, |k| k.0.clone()),
            AggFunc::Max => self.values.keys().next_back().map_or(Value::Null, |k| k.0.clone()),
        }
    }
}

/// One attribute subgroup: a (group value, policy) pair and its aggregate.
#[derive(Debug)]
struct Asg {
    group: Value,
    roles: RoleSet,
    state: AggState,
}

/// The group-by operator.
#[derive(Debug)]
pub struct GroupBy {
    /// Grouping attribute (`None` = one global group).
    group_attr: Option<usize>,
    agg: AggFunc,
    /// Aggregated attribute (ignored by COUNT).
    agg_attr: usize,
    window: WindowSpec,
    buffer: VecDeque<(Arc<Tuple>, SharedPolicy)>,
    asgs: Vec<Asg>,
    current: Option<Arc<SegmentPolicy>>,
    last_policy: Option<Policy>,
    stats: OperatorStats,
}

impl GroupBy {
    /// A windowed aggregate, optionally grouped by `group_attr`.
    #[must_use]
    pub fn new(group_attr: Option<usize>, agg: AggFunc, agg_attr: usize, window_ms: u64) -> Self {
        Self {
            group_attr,
            agg,
            agg_attr,
            window: WindowSpec::Time(window_ms),
            buffer: VecDeque::new(),
            asgs: Vec::new(),
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

    fn group_of(&self, t: &Tuple) -> Value {
        match self.group_attr {
            Some(i) => t.value(i).cloned().unwrap_or(Value::Null),
            None => Value::Null,
        }
    }

    fn asg_index(&self, group: &Value, roles: &RoleSet) -> Option<usize> {
        self.asgs.iter().position(|a| &a.group == group && &a.roles == roles)
    }

    /// Emits the updated aggregate of the ASG at `idx`, preceded by the
    /// subgroup's policy.
    fn emit_asg(&mut self, idx: usize, ts: Timestamp, out: &mut Emitter) {
        let asg = &self.asgs[idx];
        if asg.roles.is_empty() {
            // A deny-all subgroup's aggregate is visible to no one.
            self.stats.tuples_shielded += 1;
            return;
        }
        // The emitted policy carries the update's timestamp so output sps
        // stay ordered across subgroups.
        let policy = Policy::tuple_level(asg.roles.clone(), ts);
        // The output tuple id identifies the group stably (a hash of the
        // grouping value), independent of internal ASG bookkeeping.
        let tid = {
            use std::hash::{Hash, Hasher};
            let mut h = std::collections::hash_map::DefaultHasher::new();
            asg.group.hash(&mut h);
            h.finish()
        };
        let result = Tuple::new(
            sp_core::StreamId(0),
            sp_core::TupleId(tid),
            ts,
            vec![asg.group.clone(), asg.state.result(self.agg)],
        );
        let repeated =
            self.last_policy.as_ref().is_some_and(|prev| prev.same_authorizations(&policy));
        if !repeated {
            self.stats.sps_out += 1;
            out.push(Element::policy(SegmentPolicy::uniform(policy.clone())));
        }
        self.last_policy = Some(policy);
        self.stats.tuples_out += 1;
        out.push(Element::tuple(result));
    }

    fn expire(&mut self, now: Timestamp, out: &mut Emitter) {
        let Some(horizon) = self.window.horizon(now) else { return };
        while self.buffer.front().is_some_and(|(t, _)| t.ts <= horizon) {
            self.evict_front(now, out);
        }
    }

    fn trim_rows(&mut self, now: Timestamp, out: &mut Emitter) {
        if let Some(capacity) = self.window.capacity() {
            while self.buffer.len() > capacity {
                self.evict_front(now, out);
            }
        }
    }

    fn evict_front(&mut self, now: Timestamp, out: &mut Emitter) {
        let Some((t, p)) = self.buffer.pop_front() else { return };
        let group = self.group_of(&t);
        if let Some(idx) = self.asg_index(&group, p.tuple_roles()) {
            let null = Value::Null;
            let v = t.value(self.agg_attr).unwrap_or(&null);
            self.asgs[idx].state.retract(v);
            if self.asgs[idx].state.count == 0 {
                self.asgs.swap_remove(idx);
            } else {
                // Every tuple changes the aggregate twice: on arrival
                // and on expiry (§VI-A cost model).
                self.emit_asg(idx, now, out);
            }
        }
    }
}

impl Operator for GroupBy {
    fn name(&self) -> &str {
        "groupby"
    }

    fn process(
        &mut self,
        port: usize,
        elem: Element,
        out: &mut Emitter,
    ) -> Result<(), EngineError> {
        if port != 0 {
            return Err(EngineError::BadPort { operator: "groupby".into(), port, arity: 1 });
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
                self.expire(tuple.ts, out);
                let policy: SharedPolicy = match &self.current {
                    Some(seg) => seg.policy_for(&tuple),
                    None => Arc::new(Policy::deny_all(Timestamp::ZERO)),
                };
                let group = self.group_of(&tuple);
                let idx = match self.asg_index(&group, policy.tuple_roles()) {
                    Some(i) => i,
                    None => {
                        // `group` is not needed again: move it into the ASG.
                        self.asgs.push(Asg {
                            group,
                            roles: policy.tuple_roles().clone(),
                            state: AggState::default(),
                        });
                        self.asgs.len() - 1
                    }
                };
                let null = Value::Null;
                self.asgs[idx].state.add(tuple.value(self.agg_attr).unwrap_or(&null));
                let ts = tuple.ts;
                self.buffer.push_back((tuple, policy));
                self.trim_rows(ts, out);
                self.emit_asg(idx, ts, out);
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
        let asgs: usize =
            self.asgs.iter().map(|a| std::mem::size_of::<Asg>() + a.roles.mem_bytes()).sum();
        window + asgs
    }

    /// Snapshot: counters, the input window, every attribute subgroup with
    /// its full aggregate state (the float sum via `to_bits` so restore is
    /// bit-exact; the Min/Max multiset in its `BTreeMap` order, which is
    /// already canonical), the current segment policy, and the last emitted
    /// policy. ASGs keep their `Vec` order: replay is deterministic, so
    /// order evolves identically in recovered and uninterrupted runs.
    fn snapshot(&self, buf: &mut Vec<u8>) {
        use bytes::BufMut;
        self.stats.encode_counters(buf);
        buf.put_u32(self.buffer.len() as u32);
        for (t, p) in &self.buffer {
            ckpt::encode_tuple_policy(t, p, buf);
        }
        buf.put_u32(self.asgs.len() as u32);
        for asg in &self.asgs {
            sp_core::wire::encode_value(&asg.group, buf);
            asg.roles.encode(buf);
            buf.put_u64(asg.state.count);
            buf.put_u64(asg.state.sum.to_bits());
            buf.put_u32(asg.state.values.len() as u32);
            for (v, n) in &asg.state.values {
                sp_core::wire::encode_value(&v.0, buf);
                buf.put_u64(*n as u64);
            }
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
            ckpt::need(buf, 4, "groupby buffer length")?;
            let n = buf.get_u32() as usize;
            let mut buffer = VecDeque::with_capacity(n);
            for _ in 0..n {
                buffer.push_back(ckpt::decode_tuple_policy(buf)?);
            }
            self.buffer = buffer;
            ckpt::need(buf, 4, "groupby asg count")?;
            let n = buf.get_u32() as usize;
            let mut asgs = Vec::with_capacity(n);
            for _ in 0..n {
                let group = sp_core::wire::decode_value(buf).map_err(|e| e.to_string())?;
                let roles = RoleSet::decode(buf)?;
                ckpt::need(buf, 8 + 8 + 4, "groupby aggregate state")?;
                let count = buf.get_u64();
                let sum = f64::from_bits(buf.get_u64());
                let m = buf.get_u32() as usize;
                let mut values = BTreeMap::new();
                for _ in 0..m {
                    let v = sp_core::wire::decode_value(buf).map_err(|e| e.to_string())?;
                    ckpt::need(buf, 8, "groupby multiset count")?;
                    let c = buf.get_u64() as usize;
                    if c == 0 {
                        return Err("zero-count multiset entry".into());
                    }
                    if values.insert(OrdValue(v), c).is_some() {
                        return Err("duplicate multiset value".into());
                    }
                }
                asgs.push(Asg { group, roles, state: AggState { count, sum, values } });
            }
            self.asgs = asgs;
            self.current = ckpt::decode_opt_segment(buf)?;
            self.last_policy = ckpt::decode_opt_policy(buf)?;
            ckpt::done(buf)
        };
        apply().map_err(|e| EngineError::corrupt("groupby", e))
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use crate::operator::run_unary;
    use sp_core::{RoleId, StreamId, TupleId};

    fn tup(ts: u64, group: i64, v: i64) -> Element {
        Element::tuple(Tuple::new(
            StreamId(0),
            TupleId(ts),
            Timestamp(ts),
            vec![Value::Int(group), Value::Int(v)],
        ))
    }

    fn pol(roles: &[u32], ts: u64) -> Element {
        Element::policy(SegmentPolicy::uniform(Policy::tuple_level(
            roles.iter().map(|&r| RoleId(r)).collect(),
            Timestamp(ts),
        )))
    }

    /// Collects `(group, aggregate, roles)` triples in emission order.
    fn results(out: &[Element]) -> Vec<(Value, Value, Vec<u32>)> {
        let mut current = Vec::new();
        let mut res = Vec::new();
        for e in out {
            match e {
                Element::Policy(p) => {
                    current =
                        p.as_uniform().unwrap().tuple_roles().iter().map(|r| r.raw()).collect();
                }
                Element::Tuple(t) => res.push((
                    t.value(0).unwrap().clone(),
                    t.value(1).unwrap().clone(),
                    current.clone(),
                )),
            }
        }
        res
    }

    #[test]
    fn count_per_group() {
        let mut gb = GroupBy::new(Some(0), AggFunc::Count, 1, 1000);
        let out =
            run_unary(&mut gb, vec![pol(&[1], 0), tup(1, 7, 10), tup(2, 7, 20), tup(3, 8, 30)]);
        let r = results(&out);
        assert_eq!(r[0], (Value::Int(7), Value::Int(1), vec![1]));
        assert_eq!(r[1], (Value::Int(7), Value::Int(2), vec![1]));
        assert_eq!(r[2], (Value::Int(8), Value::Int(1), vec![1]));
    }

    #[test]
    fn asg_partitioning_by_policy() {
        // Same group value, two different policies → two ASGs whose
        // aggregates never mix.
        let mut gb = GroupBy::new(Some(0), AggFunc::Sum, 1, 1000);
        let out = run_unary(
            &mut gb,
            vec![
                pol(&[1], 0),
                tup(1, 7, 10),
                pol(&[2], 2),
                tup(3, 7, 5),
                pol(&[1], 4),
                tup(5, 7, 1),
            ],
        );
        let r = results(&out);
        assert_eq!(r[0], (Value::Int(7), Value::Float(10.0), vec![1]));
        assert_eq!(r[1], (Value::Int(7), Value::Float(5.0), vec![2]));
        // The third tuple re-joins ASG(roles={1}): 10 + 1.
        assert_eq!(r[2], (Value::Int(7), Value::Float(11.0), vec![1]));
    }

    #[test]
    fn avg_min_max() {
        for (f, expect) in [
            (AggFunc::Avg, Value::Float(15.0)),
            (AggFunc::Min, Value::Int(10)),
            (AggFunc::Max, Value::Int(20)),
        ] {
            let mut gb = GroupBy::new(None, f, 1, 1000);
            let out = run_unary(&mut gb, vec![pol(&[1], 0), tup(1, 0, 10), tup(2, 0, 20)]);
            let r = results(&out);
            assert_eq!(r.last().unwrap().1, expect, "{}", f.name());
        }
    }

    #[test]
    fn expiry_retracts_and_reemits() {
        let mut gb = GroupBy::new(None, AggFunc::Count, 1, 100);
        let out =
            run_unary(&mut gb, vec![pol(&[1], 0), tup(1, 0, 10), tup(50, 0, 20), tup(250, 0, 30)]);
        let r = results(&out);
        // counts: 1, 2, then both expired and re-emitted count after
        // retraction of remaining... the last arrival first expires the two
        // old tuples (emitting count 1 after first retraction, then the ASG
        // empties silently), then emits count 1 for itself.
        assert_eq!(r[0].1, Value::Int(1));
        assert_eq!(r[1].1, Value::Int(2));
        let last = r.last().unwrap();
        assert_eq!(last.1, Value::Int(1));
    }

    #[test]
    fn min_max_retraction_uses_multiset() {
        let mut gb = GroupBy::new(None, AggFunc::Max, 1, 100);
        let out = run_unary(
            &mut gb,
            vec![
                pol(&[1], 0),
                tup(1, 0, 99),
                tup(50, 0, 10),
                // 99 expires; max must fall back to 10, not stay 99.
                tup(140, 0, 5),
            ],
        );
        let r = results(&out);
        let maxes: Vec<&Value> = r.iter().map(|(_, v, _)| v).collect();
        assert_eq!(maxes.last().unwrap(), &&Value::Int(10));
    }

    #[test]
    fn deny_all_subgroup_is_invisible() {
        let mut gb = GroupBy::new(None, AggFunc::Count, 1, 1000);
        let out = run_unary(&mut gb, vec![tup(1, 0, 10)]);
        assert!(results(&out).is_empty());
        assert_eq!(gb.stats().tuples_shielded, 1);
        assert_eq!(gb.name(), "groupby");
        assert!(gb.state_mem_bytes() > 0);
    }

    #[test]
    fn row_window_aggregates_last_n() {
        use crate::window::WindowSpec;
        let mut gb = GroupBy::new(None, AggFunc::Sum, 1, 0).with_window(WindowSpec::Rows(2));
        let out =
            run_unary(&mut gb, vec![pol(&[1], 0), tup(1, 0, 10), tup(2, 0, 20), tup(3, 0, 30)]);
        let r = results(&out);
        // Sums: 10, 30, then insertion of 30 evicts 10 first → 20+30=50.
        let sums: Vec<&Value> = r.iter().map(|(_, v, _)| v).collect();
        assert_eq!(sums.last().unwrap(), &&Value::Float(50.0));
    }

    #[test]
    fn global_aggregate_when_no_group_attr() {
        let mut gb = GroupBy::new(None, AggFunc::Sum, 1, 1000);
        let out = run_unary(&mut gb, vec![pol(&[1], 0), tup(1, 3, 10), tup(2, 4, 20)]);
        let r = results(&out);
        assert_eq!(r.last().unwrap().1, Value::Float(30.0));
        assert!(r.iter().all(|(g, _, _)| g.is_null()));
    }
}
