//! The security-aware projection operator `π_a(T)` (Table I).
//!
//! Projection discards unwanted attributes on the fly and propagates
//! streaming punctuations, rewriting attribute-scoped grants to the new
//! attribute positions. Grants that only concerned projected-out
//! attributes disappear (the paper's "the sp is discarded", §IV-B) — but
//! the punctuation itself still propagates, now denying everything: under
//! override semantics a new segment's policy must replace the previous
//! one, and silently dropping it would leave a stale grant governing the
//! segment's tuples downstream.

use crate::element::Element;
use crate::error::EngineError;
use crate::operator::{Emitter, Operator};
use crate::stats::OperatorStats;

/// The projection operator.
#[derive(Debug)]
pub struct Project {
    /// Attribute indices to keep, in output order.
    indices: Vec<usize>,
    stats: OperatorStats,
}

impl Project {
    /// A projection keeping `indices` (in the given order).
    #[must_use]
    pub fn new(indices: Vec<usize>) -> Self {
        Self { indices, stats: OperatorStats::new() }
    }

    /// The projected attribute indices.
    #[must_use]
    pub fn indices(&self) -> &[usize] {
        &self.indices
    }

    /// Remaps one segment policy's attribute-scoped grants to the output
    /// attribute positions.
    fn remap_policy(&mut self, seg: &crate::element::SegmentPolicy, out: &mut Emitter) {
        self.stats.sps_in += 1;
        let remapped = seg.map_policies(|p| {
            p.remap_attrs(|old| {
                self.indices.iter().position(|&k| k == old as usize).map(|new| new as u16)
            })
        });
        self.stats.sps_out += 1;
        out.push(Element::policy(remapped));
    }
}

impl Operator for Project {
    fn name(&self) -> &str {
        "project"
    }

    fn process(
        &mut self,
        port: usize,
        elem: Element,
        out: &mut Emitter,
    ) -> Result<(), EngineError> {
        if port != 0 {
            return Err(EngineError::BadPort { operator: "project".into(), port, arity: 1 });
        }
        match elem {
            Element::Policy(seg) => self.remap_policy(&seg, out),
            Element::Tuple(tuple) => {
                self.stats.tuples_in += 1;
                self.stats.tuples_out += 1;
                out.push(Element::tuple(tuple.project(&self.indices)));
            }
        }
        Ok(())
    }

    /// Vectorized fast path: a tuple run projects in one tight loop with
    /// bulk counter updates and one output reservation. The executor
    /// times the call; the projection reads no clock.
    fn process_batch(
        &mut self,
        port: usize,
        batch: crate::batch::ElementBatch,
        out: &mut Emitter,
    ) -> Result<(), EngineError> {
        if port != 0 {
            return Err(EngineError::BadPort { operator: "project".into(), port, arity: 1 });
        }
        if batch.is_tuples() && !batch.is_control() {
            let n = batch.len();
            self.stats.tuples_in += n as u64;
            self.stats.tuples_out += n as u64;
            out.reserve(n);
            for elem in batch {
                if let Element::Tuple(tuple) = elem {
                    out.push(Element::tuple(tuple.project(&self.indices)));
                }
            }
        } else {
            for elem in batch {
                match elem {
                    Element::Policy(seg) => self.remap_policy(&seg, out),
                    Element::Tuple(tuple) => {
                        self.stats.tuples_in += 1;
                        self.stats.tuples_out += 1;
                        out.push(Element::tuple(tuple.project(&self.indices)));
                    }
                }
            }
        }
        Ok(())
    }

    fn stats(&self) -> &OperatorStats {
        &self.stats
    }

    /// Projection is per-tuple: safe to replicate across shards.
    fn shard_safe(&self) -> bool {
        true
    }

    /// Every policy is forwarded immediately, exactly once, and
    /// deterministically (grants remapped to output positions), so
    /// projection may sit between a delayed-propagation operator and
    /// its sink: duplicate flushes stay byte-equal through the remap.
    fn policy_transparent(&self) -> bool {
        true
    }

    /// Snapshot: counters only — projection holds no stream state.
    fn snapshot(&self, buf: &mut Vec<u8>) {
        self.stats.encode_counters(buf);
    }

    fn restore(&mut self, bytes: &[u8]) -> Result<(), EngineError> {
        let mut slice = bytes;
        let buf = &mut slice;
        self.stats
            .decode_counters(buf)
            .and_then(|()| crate::checkpoint::done(buf))
            .map_err(|e| EngineError::corrupt("project", e))
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use crate::element::SegmentPolicy;
    use crate::operator::run_unary;
    use sp_core::{Policy, RoleId, RoleSet, StreamId, Timestamp, Tuple, TupleId, Value};

    fn tup(vals: Vec<Value>) -> Element {
        Element::tuple(Tuple::new(StreamId(0), TupleId(1), Timestamp(0), vals))
    }

    #[test]
    fn projects_values_in_order() {
        let mut proj = Project::new(vec![2, 0]);
        let out =
            run_unary(&mut proj, vec![tup(vec![Value::Int(1), Value::Int(2), Value::Int(3)])]);
        let t = out[0].as_tuple().unwrap();
        assert_eq!(t.values(), &[Value::Int(3), Value::Int(1)]);
        assert_eq!(proj.indices(), &[2, 0]);
    }

    #[test]
    fn tuple_level_policies_propagate() {
        let mut proj = Project::new(vec![0]);
        let seg = SegmentPolicy::uniform(Policy::tuple_level(RoleSet::from([1]), Timestamp(0)));
        let out = run_unary(&mut proj, vec![Element::policy(seg)]);
        assert_eq!(out.len(), 1);
        assert!(out[0]
            .as_policy()
            .unwrap()
            .policy_for(&Tuple::new(StreamId(0), TupleId(0), Timestamp(0), vec![]))
            .allows(&RoleSet::from([1])));
    }

    #[test]
    fn attr_grants_are_remapped() {
        // Grant on attr 2; project [2, 0] → grant moves to output attr 0.
        let policy = Policy::tuple_level(RoleSet::new(), Timestamp(0))
            .with_attr_grant(2, RoleSet::single(RoleId(5)));
        let mut proj = Project::new(vec![2, 0]);
        let out = run_unary(&mut proj, vec![Element::policy(SegmentPolicy::uniform(policy))]);
        let seg = out[0].as_policy().unwrap();
        let p = seg.policy_for(&Tuple::new(StreamId(0), TupleId(0), Timestamp(0), vec![]));
        assert!(p.allows_attr(0, &RoleSet::from([5])));
        assert!(!p.allows_attr(1, &RoleSet::from([5])));
    }

    #[test]
    fn policy_for_only_dropped_attrs_becomes_deny() {
        // Grant exists only on attr 1, which the projection drops: the
        // grant disappears but the punctuation still propagates (it must
        // override whatever policy preceded it downstream).
        let policy = Policy::tuple_level(RoleSet::new(), Timestamp(0))
            .with_attr_grant(1, RoleSet::single(RoleId(5)));
        let mut proj = Project::new(vec![0]);
        let out = run_unary(&mut proj, vec![Element::policy(SegmentPolicy::uniform(policy))]);
        assert_eq!(out.len(), 1);
        let seg = out[0].as_policy().unwrap();
        assert!(seg.is_deny_all(), "orphaned grants leave a deny policy");
        assert_eq!(proj.stats().sps_in, 1);
        assert_eq!(proj.stats().sps_out, 1);
    }

    #[test]
    fn counts_and_name() {
        let mut proj = Project::new(vec![0]);
        let _ = run_unary(&mut proj, vec![tup(vec![Value::Int(1)])]);
        assert_eq!(proj.stats().tuples_in, 1);
        assert_eq!(proj.name(), "project");
    }
}
