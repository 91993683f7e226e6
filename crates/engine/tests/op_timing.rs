//! One sampled timer per operator, in the executor.
//!
//! The executor times a sample of `process_batch` calls (always the
//! first, then about one per 64 elements) and charges the calls in
//! between the last measured per-element cost; that feeds
//! `Executor::elapsed` and the `sp_operator_latency_ns` histogram, whose
//! count is exactly the elements processed. Stateless operators read no
//! clock of their own, so their cost buckets stay empty. Only the
//! stateful binary operators (`SAJoin`, `SAIntersect`) still charge
//! buckets by cause, because the executor cannot see inside a call.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::sync::Arc;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sp_core::{
    RoleCatalog, RoleSet, Schema, SecurityPunctuation, StreamElement, StreamId, Timestamp, Tuple,
    TupleId, Value, ValueType,
};
use sp_engine::{
    CmpOp, CostKind, Expr, JoinVariant, PlanBuilder, Project, SAJoin, SecurityShield, Select,
    TelemetryConfig,
};

fn schema(name: &str) -> Arc<Schema> {
    Schema::of(name, &[("id", ValueType::Int), ("v", ValueType::Int)])
}

fn catalog() -> Arc<RoleCatalog> {
    let mut c = RoleCatalog::new();
    c.register_synthetic_roles(8);
    Arc::new(c)
}

fn tuple(stream: u32, tid: u64, ts: u64, key: i64, v: i64) -> StreamElement {
    StreamElement::tuple(Tuple::new(
        StreamId(stream),
        TupleId(tid),
        Timestamp(ts),
        vec![Value::Int(key), Value::Int(v)],
    ))
}

fn grant(roles: RoleSet, ts: u64) -> StreamElement {
    StreamElement::punctuation(SecurityPunctuation::grant_all(roles, Timestamp(ts)))
}

/// Seeded segmented input: each segment opens with an sp granting one
/// random role out of four, then carries 1–40 tuples with `v` in 0..8.
fn seeded_input(seed: u64) -> Vec<(StreamId, StreamElement)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::new();
    let (mut ts, mut tid) = (1u64, 0u64);
    for _ in 0..60 {
        let role = rng.gen_range(0..4u32);
        out.push((StreamId(1), grant(RoleSet::from([role]), ts)));
        for _ in 0..rng.gen_range(1..=40) {
            ts += 1;
            tid += 1;
            out.push((StreamId(1), tuple(1, tid, ts, tid as i64, rng.gen_range(0..8))));
        }
        ts += 1;
    }
    out
}

#[test]
fn stateless_operators_are_timed_once_by_the_executor() {
    for batching in [true, false] {
        let mut b = PlanBuilder::new(catalog());
        let src = b.source(StreamId(1), schema("r"));
        let ss = b.add(SecurityShield::new(RoleSet::from([1])), src);
        let sel =
            b.add(Select::new(Expr::cmp(CmpOp::Ge, Expr::Attr(1), Expr::Const(Value::Int(3)))), ss);
        let proj = b.add(Project::new(vec![0]), sel);
        let sink = b.sink(proj);
        b.enable_telemetry(TelemetryConfig::enabled());
        let mut exec = b.build();
        exec.set_batching(batching);
        exec.push_all(seeded_input(7)).unwrap();
        exec.finish().unwrap();
        assert!(exec.sink(sink).tuples().count() > 0, "workload must release something");

        let reg = exec.metrics();
        for (i, (n, name)) in [(ss, "ss"), (sel, "select"), (proj, "project")].iter().enumerate() {
            let mode = if batching { "batched" } else { "tuple-at-a-time" };
            assert_eq!(
                exec.stats(*n).total_time(),
                Duration::ZERO,
                "{name} ({mode}) charged its own time"
            );
            assert!(exec.elapsed(*n) > Duration::ZERO, "{name} ({mode}) was never timed");
            let labels = format!("op=\"{name}\",node=\"{i}\"");
            let calls = reg.histogram("sp_operator_latency_ns", &labels).unwrap().count();
            // Elements processed: every tuple and every policy taken in.
            let elems = exec.stats(*n).tuples_in + exec.stats(*n).sps_in;
            assert!(elems > 0, "{name} ({mode}) saw no input");
            assert_eq!(calls, elems, "{name} ({mode}) latency count != elements processed");
        }
    }
}

#[test]
fn sajoin_still_charges_join_cost_by_cause() {
    let mut b = PlanBuilder::new(catalog());
    let left = b.source(StreamId(1), schema("l"));
    let right = b.source(StreamId(2), schema("r"));
    let join = b.add_binary(SAJoin::new(JoinVariant::Index, 1_000, 0, 0, 2), left, right);
    let sink = b.sink(join);
    b.enable_telemetry(TelemetryConfig::enabled());
    let mut exec = b.build();

    let roles = RoleSet::from([1]);
    let mut input =
        vec![(StreamId(1), grant(roles.clone(), 1)), (StreamId(2), grant(roles.clone(), 1))];
    for k in 0..50u64 {
        input.push((StreamId(1), tuple(1, 2 * k, 2 + k, (k % 5) as i64, 0)));
        input.push((StreamId(2), tuple(2, 2 * k + 1, 2 + k, (k % 5) as i64, 1)));
    }
    exec.push_all(input).unwrap();
    exec.finish().unwrap();

    assert!(exec.sink(sink).tuples().count() > 0, "the join must produce results");
    assert!(exec.stats(join).time(CostKind::Join) > Duration::ZERO);
    assert!(exec.elapsed(join) > Duration::ZERO);
}
