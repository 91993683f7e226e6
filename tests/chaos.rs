//! Chaos campaign: the engine and all three enforcement mechanisms must
//! **fail closed** under hostile stream conditions.
//!
//! Every test perturbs a recorded punctuated workload with seeded faults
//! (dropped / duplicated / delayed / reordered sps and tuples) and checks
//! the two degradation invariants from `sp_engine::fault`:
//!
//! 1. no panic, ever;
//! 2. the set of tuples released under faults is a subset of the tuples
//!    released on the clean input — losing an sp may suppress output but
//!    must never reveal tuples the clean run withheld.

use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use sp_baselines::{
    run_mechanism, EnforcementMechanism, SpMechanism, StoreAndProbe, TupleEmbedded,
};
use sp_core::{
    DataDescription, RoleCatalog, RoleId, RoleSet, Schema, SecurityPunctuation, StreamElement,
    StreamId, Timestamp, Tuple, TupleId, Value, ValueType,
};
use sp_engine::fault::{run_chaos, FaultInjector, FaultPlan};
use sp_engine::{
    CmpOp, Expr, PlanBuilder, QuarantinePolicy, SecurityShield, Select, ShedPolicy, Shedder,
    ShedderConfig, WatermarkConfig,
};
use sp_mog::{location_stream, BurstConfig, WorkloadConfig};

/// Stream-time gap between consecutive sp-batches. Must exceed the
/// quarantine TTL so a lost sp leaves its segment *ungoverned* (tuples
/// quarantined and dropped) instead of inheriting the previous policy.
const SEGMENT_MS: u64 = 1_000;
/// Policy freshness window for hardened sources. Larger than the widest
/// in-segment tuple offset, so the clean run releases every granted tuple.
const TTL_MS: u64 = 500;
const TUPLES_PER_SEGMENT: u64 = 14;
const SEGMENTS: u64 = 24;

fn schema() -> Arc<Schema> {
    Schema::of("loc", &[("id", ValueType::Int), ("v", ValueType::Int)])
}

fn catalog() -> Arc<RoleCatalog> {
    let mut c = RoleCatalog::new();
    c.register_synthetic_roles(16);
    Arc::new(c)
}

fn tuple(tid: u64, ts: u64) -> StreamElement {
    StreamElement::tuple(Tuple::new(
        StreamId(1),
        TupleId(tid),
        Timestamp(ts),
        vec![Value::Int(tid as i64), Value::Int((tid % 7) as i64)],
    ))
}

/// Segment `k` grants role `k % 3` plus the always-on role 3. Tuples sit
/// well inside the TTL window of their own sp and far outside every other
/// segment's window.
fn segmented_workload() -> Vec<(StreamId, StreamElement)> {
    let mut out = Vec::new();
    for k in 0..SEGMENTS {
        let base = (k + 1) * SEGMENT_MS;
        let mut roles = RoleSet::from([3]);
        roles.insert(RoleId((k % 3) as u32));
        out.push((
            StreamId(1),
            StreamElement::punctuation(SecurityPunctuation::grant_all(roles, Timestamp(base))),
        ));
        for i in 1..=TUPLES_PER_SEGMENT {
            out.push((StreamId(1), tuple(k * 100 + i, base + i * 10)));
        }
    }
    out
}

/// The engine invariant, at the acceptance bar: 60 seeded fault scenarios
/// over a fig-7-style shielded plan (shared select feeding two queries
/// with different roles) with a hardened, fail-closed source.
#[test]
fn engine_fails_closed_across_60_seeded_scenarios() {
    let input = segmented_workload();
    let schema = schema();
    let catalog = catalog();
    let report = run_chaos(&input, 60, 0xDEC0_DE01, || {
        let mut b = PlanBuilder::new(catalog.clone());
        let src = b.source(StreamId(1), schema.clone());
        b.harden_source(src, QuarantinePolicy { ttl_ms: TTL_MS, slack_ms: 400, capacity: 64 });
        let sel = b
            .add(Select::new(Expr::cmp(CmpOp::Ge, Expr::Attr(1), Expr::Const(Value::Int(0)))), src);
        let q0 = b.add(SecurityShield::new(RoleSet::from([0])), sel);
        let q3 = b.add(SecurityShield::new(RoleSet::from([3])), sel);
        let s0 = b.sink(q0);
        let s3 = b.sink(q3);
        (b, vec![s0, s3])
    });
    assert!(report.passed(), "{}\n{:?}", report.summary(), report.violations);
    assert_eq!(report.scenarios, 60);
    assert!(report.faults.total() > 0, "campaign must actually inject faults");
}

/// Batch execution under chaos: the same seeded fault scenarios, run once
/// with segment-batched dataflow (`push_all`, the default) and once in
/// tuple-at-a-time mode. Faults land mid-batch — dropped/duplicated/
/// reordered sps move the batch-cut points — so this pins the equivalence
/// argument exactly where it is most fragile. When both modes accept the
/// whole faulty input their sink contents must be **identical**; when the
/// hostile input is refused, the batched run (which discards deferred
/// work on error, strictly more fail-closed) must release a subset of the
/// tuple-mode run.
#[test]
fn batched_execution_matches_tuple_mode_under_faults() {
    let input = segmented_workload();
    let schema = schema();
    let catalog = catalog();
    let builder = |catalog: &Arc<RoleCatalog>, schema: &Arc<Schema>| {
        let mut b = PlanBuilder::new(catalog.clone());
        let src = b.source(StreamId(1), schema.clone());
        b.harden_source(src, QuarantinePolicy { ttl_ms: TTL_MS, slack_ms: 400, capacity: 64 });
        let sel = b
            .add(Select::new(Expr::cmp(CmpOp::Ge, Expr::Attr(1), Expr::Const(Value::Int(0)))), src);
        let q0 = b.add(SecurityShield::new(RoleSet::from([0])), sel);
        let q3 = b.add(SecurityShield::new(RoleSet::from([3])), sel);
        let s0 = b.sink(q0);
        let s3 = b.sink(q3);
        (b, vec![s0, s3])
    };

    let mut clean_scenarios = 0u64;
    for s in 0..30u64 {
        let plan = FaultPlan::scenario(0xBA7C_4ED0 ^ s.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut injector = FaultInjector::new(plan);
        let faulty = injector.apply(&input);

        let run = |batching: bool| {
            let faulty = faulty.clone();
            let (b, sinks) = builder(&catalog, &schema);
            catch_unwind(AssertUnwindSafe(move || {
                let mut exec = b.build();
                exec.set_batching(batching);
                let ok = exec.push_all(faulty).is_ok();
                let sets: Vec<HashSet<String>> = sinks
                    .iter()
                    .map(|r| exec.sink(*r).tuples().map(|t| t.to_string()).collect())
                    .collect();
                (ok, sets)
            }))
            .unwrap_or_else(|_| panic!("scenario {s}: engine panicked (batching={batching})"))
        };

        let (ok_batched, batched) = run(true);
        let (ok_tuple, tuple_mode) = run(false);
        assert_eq!(ok_batched, ok_tuple, "scenario {s}: modes disagree on input acceptance");
        for (i, (bset, tset)) in batched.iter().zip(&tuple_mode).enumerate() {
            if ok_batched {
                assert_eq!(
                    bset, tset,
                    "scenario {s} sink {i}: batched and tuple mode released different sets"
                );
            } else {
                assert!(
                    bset.is_subset(tset),
                    "scenario {s} sink {i}: batched error path leaked past tuple mode"
                );
            }
        }
        if ok_batched {
            clean_scenarios += 1;
        }
    }
    assert!(clean_scenarios > 0, "some scenarios must exercise the exact-equality arm");
}

/// The workload for the cross-mechanism equivalence campaign: each sp is
/// *scoped* to its own segment's disjoint tuple-id range, so under any
/// drop/delay/reorder a tuple is either governed by its own policy or by
/// none — every mechanism denies ungoverned tuples.
fn scoped_workload() -> Vec<StreamElement> {
    let mut out = Vec::new();
    for k in 0..SEGMENTS {
        let base = (k + 1) * SEGMENT_MS;
        // Roles alternate so faults flip real grant/deny decisions.
        let roles: RoleSet = if k % 2 == 0 { RoleSet::from([0, 1]) } else { RoleSet::from([1, 2]) };
        out.push(StreamElement::punctuation(
            SecurityPunctuation::grant_all(roles, Timestamp(base))
                .with_ddp(DataDescription::tuple_range(k * 100, k * 100 + 99)),
        ));
        for i in 1..=TUPLES_PER_SEGMENT {
            out.push(tuple(k * 100 + i, base + i * 10));
        }
    }
    out
}

/// Runs the 50-scenario fail-closed campaign against one mechanism.
fn mechanism_chaos(make: &dyn Fn() -> Box<dyn EnforcementMechanism>) {
    let elements = scoped_workload();
    let input: Vec<(StreamId, StreamElement)> =
        elements.iter().map(|e| (StreamId(1), e.clone())).collect();

    let mut m = make();
    let baseline: HashSet<String> =
        run_mechanism(m.as_mut(), elements).iter().map(|t| t.to_string()).collect();
    assert!(!baseline.is_empty(), "clean run must release something");
    assert!(m.denied() > 0, "clean run must deny something");

    for s in 0..50u64 {
        let plan = FaultPlan::scenario(0xBA5E ^ s.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut injector = FaultInjector::new(plan);
        let faulty = injector.apply(&input);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let mut m = make();
            run_mechanism(m.as_mut(), faulty.into_iter().map(|(_, e)| e))
                .iter()
                .map(|t| t.to_string())
                .collect::<HashSet<String>>()
        }));
        let released = match outcome {
            Ok(set) => set,
            Err(_) => panic!("scenario {s}: mechanism panicked"),
        };
        let leaked: Vec<&String> = released.difference(&baseline).collect();
        assert!(
            leaked.is_empty(),
            "scenario {s}: {} tuple(s) leaked that the clean run withheld, e.g. {:?}",
            leaked.len(),
            &leaked[..leaked.len().min(3)],
        );
    }
}

#[test]
fn store_and_probe_fails_closed_under_chaos() {
    let catalog = catalog();
    let schema = schema();
    mechanism_chaos(&|| {
        Box::new(StoreAndProbe::new(catalog.clone(), schema.clone(), RoleSet::from([0]), 512))
    });
}

#[test]
fn tuple_embedded_fails_closed_under_chaos() {
    let catalog = catalog();
    let schema = schema();
    mechanism_chaos(&|| {
        Box::new(TupleEmbedded::new(catalog.clone(), schema.clone(), RoleSet::from([0]), 512))
    });
}

#[test]
fn sp_mechanism_fails_closed_under_chaos() {
    let catalog = catalog();
    let schema = schema();
    mechanism_chaos(&|| {
        Box::new(SpMechanism::new(catalog.clone(), schema.clone(), RoleSet::from([0]), 512))
    });
}

// ---------------------------------------------------------------------------
// Crash-recovery chaos: kill the supervised pipeline at random epochs and
// require recovery to uphold the same fail-closed contract.
//
// Two invariants per kill:
//
// 1. *recovery subset*: tuples released across the crash and restart are a
//    subset of what the uninterrupted run released — recovery may lose
//    tuples (counted in `recovery_dropped`) but never reveal one;
// 2. *zero policy-state divergence*: once recovered to the end of the
//    input, analyzer and operator snapshots are byte-identical to the
//    uninterrupted run's (sinks excepted: their counters are per-life).
// ---------------------------------------------------------------------------

/// The supervised fig-7-style plan: hardened source, shared select, two
/// shields. Must be deterministic — checkpoint sections are positional.
fn supervised_builder() -> (PlanBuilder, Vec<sp_engine::SinkRef>) {
    let mut b = PlanBuilder::new(catalog());
    let src = b.source(StreamId(1), schema());
    b.harden_source(src, QuarantinePolicy { ttl_ms: TTL_MS, slack_ms: 400, capacity: 64 });
    let sel =
        b.add(Select::new(Expr::cmp(CmpOp::Ge, Expr::Attr(1), Expr::Const(Value::Int(0)))), src);
    let q0 = b.add(SecurityShield::new(RoleSet::from([0])), sel);
    let q3 = b.add(SecurityShield::new(RoleSet::from([3])), sel);
    let s0 = b.sink(q0);
    let s3 = b.sink(q3);
    (b, vec![s0, s3])
}

/// Everything the plan's sinks released, tagged by sink so the subset
/// check distinguishes the two queries.
fn supervised_released(exec: &mut sp_engine::Engine) -> HashSet<String> {
    let (_, sinks) = supervised_builder();
    let mut released = HashSet::new();
    for (i, s) in sinks.iter().enumerate() {
        released.extend(exec.sink(*s).tuples().map(|t| format!("{i}:{}", t.tid.raw())));
    }
    released
}

/// The uninterrupted run: its released set and final operator state.
fn supervised_baseline(
    input: &[(StreamId, StreamElement)],
    cfg: &sp_engine::SupervisorConfig,
) -> (HashSet<String>, sp_engine::Checkpoint) {
    let mut store = sp_engine::MemStore::default();
    let mut clean = sp_engine::run_supervised(
        || supervised_builder().0,
        input,
        cfg,
        &mut store,
        &mut |_, _| false,
    )
    .expect("store never fails");
    assert!(clean.completed(), "clean supervised run must complete");
    let released = supervised_released(&mut clean.executor);
    assert!(!released.is_empty(), "clean run must release something");
    (released, clean.executor.checkpoint(0, 0).expect("sequential cut"))
}

#[test]
fn recovery_upholds_subset_invariant_across_random_epoch_kills() {
    let input = segmented_workload();
    let cfg = sp_engine::SupervisorConfig { epoch_interval: 16, ..Default::default() };
    let total_epochs = input.len() as u64 / cfg.epoch_interval;
    assert!(total_epochs >= 20, "workload must span enough epochs to sample");
    let (baseline, clean_final) = supervised_baseline(&input, &cfg);

    // Seeded LCG choice of at least 20 distinct kill epochs.
    let mut rng = 0x5EED_CAFE_u64;
    let mut kill_epochs = std::collections::BTreeSet::new();
    while kill_epochs.len() < 20 {
        rng = rng.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        kill_epochs.insert(1 + (rng >> 33) % total_epochs);
    }

    for &ke in &kill_epochs {
        let mut store = sp_engine::MemStore::default();
        let mut killed = false;
        let mut oracle = move |e: u64, _p: u64| {
            if !killed && e == ke {
                killed = true;
                return true;
            }
            false
        };
        let mut run = sp_engine::run_supervised(
            || supervised_builder().0,
            &input,
            &cfg,
            &mut store,
            &mut oracle,
        )
        .expect("store never fails");
        assert!(run.completed(), "kill at epoch {ke}: recovery must complete");
        assert_eq!(run.report.checkpoints_restored, 1, "kill at epoch {ke}");
        assert!(run.report.epochs_replayed <= 1, "kill at epoch {ke}: replay stays bounded");

        // 1. Recovery subset: nothing released that the clean run withheld.
        let released = supervised_released(&mut run.executor);
        let leaked: Vec<&String> = released.difference(&baseline).collect();
        assert!(
            leaked.is_empty(),
            "kill at epoch {ke}: {} tuple(s) leaked that the clean run withheld, e.g. {:?}",
            leaked.len(),
            &leaked[..leaked.len().min(3)],
        );

        // 2. Zero policy-state divergence at the end of the input.
        let fin = run.executor.checkpoint(0, 0).expect("sequential cut");
        assert_eq!(fin.analyzers, clean_final.analyzers, "kill at epoch {ke}: analyzer state");
        assert_eq!(fin.nodes, clean_final.nodes, "kill at epoch {ke}: operator state");
    }
}

/// Multiple kills per life, and a killer that outlasts the restart budget:
/// even the terminal fail-closed exit must not leak.
#[test]
fn repeated_and_exhausting_kills_stay_fail_closed() {
    let input = segmented_workload();
    let cfg = sp_engine::SupervisorConfig { epoch_interval: 16, ..Default::default() };
    let (baseline, clean_final) = supervised_baseline(&input, &cfg);

    // Two kills in one supervised run, at epoch pairs spread over the input.
    for (e1, e2) in [(1u64, 9u64), (3, 4), (7, 19), (12, 21)] {
        let mut store = sp_engine::MemStore::default();
        let (mut hit1, mut hit2) = (false, false);
        let mut oracle = move |e: u64, _p: u64| {
            if !hit1 && e == e1 {
                hit1 = true;
                return true;
            }
            if hit1 && !hit2 && e == e2 {
                hit2 = true;
                return true;
            }
            false
        };
        let mut run = sp_engine::run_supervised(
            || supervised_builder().0,
            &input,
            &cfg,
            &mut store,
            &mut oracle,
        )
        .expect("store never fails");
        assert!(run.completed(), "kills at epochs {e1},{e2}");
        assert_eq!(run.report.restart_attempts, 2, "kills at epochs {e1},{e2}");
        let released = supervised_released(&mut run.executor);
        assert!(released.is_subset(&baseline), "kills at epochs {e1},{e2}: leak");
        let fin = run.executor.checkpoint(0, 0).expect("sequential cut");
        assert_eq!(fin.analyzers, clean_final.analyzers, "kills at epochs {e1},{e2}");
        assert_eq!(fin.nodes, clean_final.nodes, "kills at epochs {e1},{e2}");
    }

    // A crash the supervisor can never get past: terminal fail-closed.
    let mut store = sp_engine::MemStore::default();
    let cfg = sp_engine::SupervisorConfig { max_restarts: 3, ..cfg };
    let mut run = sp_engine::run_supervised(
        || supervised_builder().0,
        &input,
        &cfg,
        &mut store,
        &mut |_, p| p == 100,
    )
    .expect("store never fails");
    assert!(!run.completed(), "persistent killer must exhaust the budget");
    assert!(run.report.recovery_dropped > 0, "rest of the input refused");
    let released = supervised_released(&mut run.executor);
    assert!(released.is_subset(&baseline), "terminal fail-closed exit leaked");
}

// ---------------------------------------------------------------------------
// Durability chaos: a crash in the middle of appending a checkpoint frame
// leaves a torn frame at the log tail. Recovery must fall back to the
// last *fully committed* checkpoint — the torn tail is dead weight, not
// fatal — and replay from there must reproduce the baseline released set
// exactly (as the union across the two lives).
// ---------------------------------------------------------------------------

#[test]
fn kill_during_checkpoint_append_falls_back_to_last_committed() {
    use sp_engine::CheckpointStore;

    let input = segmented_workload();
    let cfg = sp_engine::SupervisorConfig { epoch_interval: 16, ..Default::default() };
    let (baseline, clean_final) = supervised_baseline(&input, &cfg);

    let dir = std::env::temp_dir().join(format!("sp-ckpt-append-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("tenant.ckpt");
    let _ = std::fs::remove_file(&path);

    // Life 1: run two thirds of the input, checkpointing every 64
    // elements to the on-disk log.
    let cut = input.len() * 2 / 3;
    let mut store = sp_engine::FileStore::new(&path);
    let (b, _) = supervised_builder();
    let mut exec = sp_engine::Engine::Sequential(b.build());
    let mut epoch = 0u64;
    let mut len_before_last_save = 0u64;
    for (i, (sid, e)) in input[..cut].iter().enumerate() {
        exec.push(*sid, e.clone()).expect("clean input must not error");
        if (i + 1) % 64 == 0 {
            epoch += 1;
            len_before_last_save = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
            store.save(&exec.checkpoint(epoch, (i + 1) as u64).expect("cut")).expect("save");
        }
    }
    let released_life1 = supervised_released(&mut exec);
    assert!(epoch >= 3, "need several committed checkpoints, got {epoch}");

    // The crash: the last appended frame is cut in half, exactly what a
    // kill mid-append leaves on disk.
    let full = std::fs::metadata(&path).unwrap().len();
    assert!(full > len_before_last_save);
    let torn = len_before_last_save + (full - len_before_last_save) / 2;
    let fh = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
    fh.set_len(torn).unwrap();
    drop(fh);

    // Recovery: a fresh handle must fall back to the last fully
    // committed checkpoint, one epoch behind the torn one.
    let store = sp_engine::FileStore::new(&path);
    let recovered = store.load_latest().expect("fallback checkpoint must load");
    assert_eq!(recovered.epoch, epoch - 1, "must fall back exactly one committed epoch");

    // Life 2: restore and replay everything past the recovered cut. The
    // union of the two lives' released sets must equal the baseline:
    // the torn checkpoint lost no release and leaked none.
    let (b2, _) = supervised_builder();
    let mut exec2 = sp_engine::Engine::Sequential(b2.build());
    exec2.restore(&recovered).expect("recovered checkpoint must restore");
    for (sid, e) in &input[recovered.input_pos as usize..] {
        exec2.push(*sid, e.clone()).expect("replay must not error");
    }
    let mut released = released_life1;
    released.extend(supervised_released(&mut exec2));
    assert_eq!(released, baseline, "crash recovery must reproduce the baseline released set");

    // Zero policy-state divergence after the replay.
    let fin = exec2.checkpoint(0, 0).expect("sequential cut");
    assert_eq!(fin.analyzers, clean_final.analyzers, "analyzer state diverged");
    assert_eq!(fin.nodes, clean_final.nodes, "operator state diverged");

    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// Overload chaos: bursty arrivals drive a load-shedding plan up the
// degradation ladder (through FailClosed and back), alone and combined
// with the seeded fault campaign and with mid-burst crash recovery. The
// invariant is the same fail-closed contract: overload may suppress
// output, never widen it, and sps are never shed.
// ---------------------------------------------------------------------------

/// A bursty moving-object workload: every policy grants the probe role 0,
/// so the unshedded clean run releases every tuple — the tightest
/// possible baseline for the subset check. ON phases compress 32 tuples
/// into each stream-time millisecond; the shedder drains 2/ms, so bursts
/// overload it ~16× and lulls (1 tuple/ms) let the queue fully drain.
fn bursty_workload() -> (Vec<(StreamId, StreamElement)>, Arc<Schema>) {
    let w = location_stream(&WorkloadConfig {
        objects: 20,
        ticks: 36,
        sp_every: 20,
        policy_roles: 3,
        role_universe: 64,
        grant_selectivity: 1.0,
        scoped_sps: false,
        tick_ms: 100,
        burst: Some(BurstConfig { on_ticks: 4, off_ticks: 8, amplitude: 32 }),
        seed: 7,
    });
    let stream = w.stream;
    let schema = w.schema.clone();
    (w.elements.into_iter().map(|e| (stream, e)).collect(), schema)
}

fn burst_shed_cfg() -> ShedderConfig {
    ShedderConfig {
        capacity: 48,
        drain_per_ms: 2,
        watermarks: WatermarkConfig::default(),
        // p is kept light so shedding alone cannot hold occupancy below
        // the critical rungs — the test needs the full climb.
        policy: ShedPolicy::RandomP { p: 0.25, seed: 0xB00 },
    }
}

/// Hardened source → (optional shedder) → probe-role shield → sink.
fn bursty_builder(
    schema: &Arc<Schema>,
    shed: Option<ShedderConfig>,
) -> (PlanBuilder, sp_engine::SinkRef) {
    let mut b = PlanBuilder::new(catalog());
    let src = b.source(StreamId(1), schema.clone());
    b.harden_source(src, QuarantinePolicy { ttl_ms: TTL_MS, slack_ms: 400, capacity: 256 });
    let shield = SecurityShield::new(RoleSet::from([0]));
    let q = match shed {
        Some(cfg) => {
            let sh = b.add(Shedder::new(cfg), src);
            b.add(shield, sh)
        }
        None => b.add(shield, src),
    };
    let s = b.sink(q);
    (b, s)
}

fn run_bursty(
    input: &[(StreamId, StreamElement)],
    schema: &Arc<Schema>,
    shed: Option<ShedderConfig>,
) -> (HashSet<String>, sp_engine::DegradationStats) {
    let (b, s) = bursty_builder(schema, shed);
    let mut exec = b.build();
    for (sid, e) in input {
        exec.push(*sid, e.clone()).expect("clean input must not error");
    }
    (exec.sink(s).tuples().map(|t| t.to_string()).collect(), exec.degradation())
}

/// The acceptance scenario: bursts push the ladder all the way to
/// FailClosed, the lulls bring it all the way back to Normal, and the
/// whole episode is visible in the degradation counters — while the
/// released set stays inside the unshedded baseline.
#[test]
fn burst_overload_reaches_fail_closed_and_recovers_to_normal() {
    let (input, schema) = bursty_workload();
    let (baseline, base_deg) = run_bursty(&input, &schema, None);
    assert!(!baseline.is_empty(), "clean run must release something");
    assert_eq!(base_deg.shed_tuples, 0, "unshedded plan must not shed");

    let (released, deg) = run_bursty(&input, &schema, Some(burst_shed_cfg()));
    assert!(
        released.is_subset(&baseline),
        "overloaded run released tuples the unloaded run withheld"
    );
    assert!(deg.shed_tuples > 0, "bursts must force shedding");
    assert!(deg.shed_critical > 0, "bursts must reach the critical rungs");
    assert_eq!(deg.overload_peak, 3, "ladder must reach FailClosed: {deg}");
    assert_eq!(deg.overload_level, 0, "ladder must recover to Normal: {deg}");
    assert!(deg.ladder_escalations >= 3, "full climb: {deg}");
    assert!(deg.ladder_recoveries >= 3, "full descent: {deg}");
}

/// Bursts *and* seeded faults together: 30 drop/duplicate/delay/reorder
/// scenarios through the shedding plan. The released set must stay inside
/// the clean **unshedded** baseline — faults shift which tuples the
/// shedder picks, so the unloaded run is the only sound reference.
#[test]
fn shedded_plan_fails_closed_under_bursts_and_faults() {
    let (input, schema) = bursty_workload();
    let (baseline, _) = run_bursty(&input, &schema, None);

    let mut total_faults = 0u64;
    for s in 0..30u64 {
        let plan = FaultPlan::scenario(0x05ED_10AD ^ s.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut injector = FaultInjector::new(plan);
        let faulty = injector.apply(&input);
        total_faults += injector.stats().total();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let (b, sk) = bursty_builder(&schema, Some(burst_shed_cfg()));
            let mut exec = b.build();
            for (sid, e) in faulty {
                // Hostile input may be refused; refusal is fail-closed.
                let _ = exec.push(sid, e);
            }
            let released: HashSet<String> = exec.sink(sk).tuples().map(|t| t.to_string()).collect();
            (released, exec.degradation())
        }));
        let (released, deg) = match outcome {
            Ok(r) => r,
            Err(_) => panic!("scenario {s}: shedded plan panicked"),
        };
        let leaked: Vec<&String> = released.difference(&baseline).collect();
        assert!(
            leaked.is_empty(),
            "scenario {s}: {} tuple(s) leaked under burst+faults, e.g. {:?}",
            leaked.len(),
            &leaked[..leaked.len().min(3)],
        );
        assert_eq!(deg.overload_level, 0, "scenario {s}: ladder must recover");
    }
    assert!(total_faults > 0, "campaign must actually inject faults");
}

/// Mid-burst crash: kill the supervised shedding pipeline while the
/// ladder is elevated. Recovery restores the shedder byte-exactly, so
/// the recovered run repeats the same shed decisions — released tuples
/// stay a subset of the uninterrupted shedded run, and the full
/// FailClosed→Normal episode still shows in the counters.
#[test]
fn mid_burst_kill_recovers_with_identical_shed_decisions() {
    let (input, schema) = bursty_workload();
    let cfg = sp_engine::SupervisorConfig { epoch_interval: 32, ..Default::default() };

    let mut store = sp_engine::MemStore::default();
    let mut clean = sp_engine::run_supervised(
        || bursty_builder(&schema, Some(burst_shed_cfg())).0,
        &input,
        &cfg,
        &mut store,
        &mut |_, _| false,
    )
    .expect("store never fails");
    assert!(clean.completed());
    let clean_deg = clean.executor.degradation();
    assert_eq!(clean_deg.overload_peak, 3, "setup: bursts must reach FailClosed");
    let (_, sink) = bursty_builder(&schema, Some(burst_shed_cfg()));
    let baseline: HashSet<String> =
        clean.executor.sink(sink).tuples().map(|t| t.to_string()).collect();

    // Epoch 9 × 32 elements lands inside the second burst (ticks 12–15).
    for kill_epoch in [2u64, 9, 17] {
        let mut store = sp_engine::MemStore::default();
        let mut killed = false;
        let mut oracle = move |e: u64, _p: u64| {
            if !killed && e == kill_epoch {
                killed = true;
                return true;
            }
            false
        };
        let mut run = sp_engine::run_supervised(
            || bursty_builder(&schema, Some(burst_shed_cfg())).0,
            &input,
            &cfg,
            &mut store,
            &mut oracle,
        )
        .expect("store never fails");
        assert!(run.completed(), "kill at epoch {kill_epoch}: recovery must complete");
        assert_eq!(run.report.checkpoints_restored, 1, "kill at epoch {kill_epoch}");

        let released: HashSet<String> =
            run.executor.sink(sink).tuples().map(|t| t.to_string()).collect();
        assert!(
            released.is_subset(&baseline),
            "kill at epoch {kill_epoch}: recovery leaked past the shedded baseline"
        );
        // Byte-exact shedder restore ⇒ identical end-of-run shed story.
        let deg = run.executor.degradation();
        assert_eq!(deg.shed_tuples, clean_deg.shed_tuples, "kill at epoch {kill_epoch}");
        assert_eq!(deg.overload_peak, 3, "kill at epoch {kill_epoch}");
        assert_eq!(deg.overload_level, 0, "kill at epoch {kill_epoch}");
        assert_eq!(
            deg.ladder_escalations, clean_deg.ladder_escalations,
            "kill at epoch {kill_epoch}"
        );
        assert_eq!(
            deg.ladder_recoveries, clean_deg.ladder_recoveries,
            "kill at epoch {kill_epoch}"
        );
    }
}

// ---------------------------------------------------------------------------
// Ciphertext-corruption campaign: the crypto-enforced mechanism against a
// *malicious* forwarder. The untrusted relay is replaced by a seeded
// `CipherFaultInjector` that flips ciphertext bytes, truncates frames,
// drops digests, replays whole segments, swaps nonces, and perturbs key
// epochs. Under every schedule:
//
// 1. no panic, ever;
// 2. released ⊆ the fault-free plaintext baseline (what the shield-based
//    sp mechanism releases on the clean stream) — corruption may suppress
//    output but must never forge or resurrect it;
// 3. zero unauthenticated releases — nothing leaves the client without a
//    verified AEAD tag and segment digest;
// 4. every suppression is audited: CipherSuppressed records match the
//    violation counters one-to-one (nothing is dropped silently);
// 5. the whole story is deterministic: same seed ⇒ byte-identical audit
//    trail and identical release sequence.
// ---------------------------------------------------------------------------

use sp_baselines::{CryptoClient, CryptoEnforced, CryptoProvider, KeyAuthority};
use sp_engine::fault::{CipherFaultInjector, CipherFaultPlan};
use sp_engine::telemetry::AuditEvent;

const CRYPTO_MASTER: [u8; 32] = [0xA7; 32];
const CRYPTO_IN_FLIGHT: usize = 512;

/// Encodes the scoped workload into cipher frames with a fresh
/// provider/authority, returning the frames and the authority the client
/// must share.
fn crypto_frames() -> (Vec<Vec<u8>>, Arc<KeyAuthority>) {
    let authority = Arc::new(KeyAuthority::new(CRYPTO_MASTER));
    let mut provider = CryptoProvider::new(catalog(), schema(), authority.clone());
    let mut frames = Vec::new();
    for e in scoped_workload() {
        provider.push(e, &mut frames);
    }
    provider.finish(&mut frames);
    (frames, authority)
}

/// Feeds `frames` into a fresh client holding role 0, returning the
/// released tuple strings (ordered) and the client for inspection.
fn crypto_deliver(
    frames: &[Vec<u8>],
    authority: &Arc<KeyAuthority>,
) -> (Vec<String>, CryptoClient) {
    let mut client = CryptoClient::new(authority.clone(), &RoleSet::from([0]), CRYPTO_IN_FLIGHT);
    let mut out = Vec::new();
    for f in frames {
        client.feed(f, &mut out);
    }
    (out.iter().map(|t| t.to_string()).collect(), client)
}

/// The plaintext baseline: what the paper's own (trusted-server) sp
/// mechanism releases on the clean stream. The crypto path may only ever
/// release a subset of this, faults or not.
fn plaintext_baseline() -> HashSet<String> {
    let mut m = SpMechanism::new(catalog(), schema(), RoleSet::from([0]), CRYPTO_IN_FLIGHT);
    run_mechanism(&mut m, scoped_workload()).iter().map(|t| t.to_string()).collect()
}

#[test]
fn crypto_clean_run_matches_plaintext_baseline() {
    let baseline = plaintext_baseline();
    assert!(!baseline.is_empty(), "clean plaintext run must release something");
    let (frames, authority) = crypto_frames();
    let (released, client) = crypto_deliver(&frames, &authority);
    let released_set: HashSet<String> = released.iter().cloned().collect();
    assert_eq!(released_set, baseline, "clean ciphertext run must equal plaintext");
    assert_eq!(client.released_unauthenticated(), 0);
    assert_eq!(client.violations_total(), 0, "clean frames must not trip violations");
    assert_eq!(client.cipher_buffer_bytes(), 0, "journal drained at end of stream");
}

#[test]
fn ciphertext_corruption_campaign_fails_closed() {
    let baseline = plaintext_baseline();
    let (frames, authority) = crypto_frames();
    let mut scenarios_with_injection = 0u32;
    let mut scenarios_with_suppression = 0u32;
    for s in 0..40u64 {
        let plan = CipherFaultPlan::scenario(0xC1F4 ^ s.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut injector = CipherFaultInjector::new(plan);
        let delivered = injector.apply(&frames);
        if injector.stats().total() > 0 {
            scenarios_with_injection += 1;
        }
        let outcome = catch_unwind(AssertUnwindSafe(|| crypto_deliver(&delivered, &authority)));
        let (released, client) = match outcome {
            Ok(r) => r,
            Err(_) => panic!("scenario {s}: crypto client panicked"),
        };
        // (2) subset of the plaintext baseline.
        let released_set: HashSet<String> = released.iter().cloned().collect();
        let leaked: Vec<&String> = released_set.difference(&baseline).collect();
        assert!(
            leaked.is_empty(),
            "scenario {s}: {} tuple(s) released that plaintext enforcement withheld, e.g. {:?}",
            leaked.len(),
            &leaked[..leaked.len().min(3)],
        );
        // No duplicates either: a replayed segment must not double-release.
        assert_eq!(released.len(), released_set.len(), "scenario {s}: duplicate releases");
        // (3) nothing unauthenticated.
        assert_eq!(client.released_unauthenticated(), 0, "scenario {s}");
        // (4) audit completeness: one CipherSuppressed record per counted
        // violation, one TentativeRolledBack per rolled-back journal entry
        // — and the journal is empty at end of stream.
        let suppressed_records = client
            .recorder()
            .records()
            .filter(|r| matches!(r.event, AuditEvent::CipherSuppressed { .. }))
            .count() as u64;
        assert_eq!(
            suppressed_records,
            client.violations_total(),
            "scenario {s}: unaudited suppression"
        );
        assert_eq!(client.cipher_buffer_bytes(), 0, "scenario {s}: journal not drained");
        if client.violations_total() > 0 {
            scenarios_with_suppression += 1;
        }
        // (5) determinism: replay the same delivery; audit trail and
        // release sequence must be byte-identical.
        let (released2, client2) = crypto_deliver(&delivered, &authority);
        assert_eq!(released, released2, "scenario {s}: nondeterministic releases");
        assert_eq!(client.audit_bytes(), client2.audit_bytes(), "scenario {s}: audit diverged");
    }
    assert!(scenarios_with_injection >= 35, "campaign must actually inject faults");
    assert!(scenarios_with_suppression >= 20, "faults must actually trip suppressions");
}

/// Negative control: a deliberately broken client that releases frames
/// whose AEAD tag check failed. The campaign's own invariants must catch
/// it — proving the assertions above have teeth.
#[test]
fn broken_tag_check_client_is_caught_by_the_campaign() {
    let (frames, authority) = crypto_frames();
    let mut caught = false;
    for s in 0..10u64 {
        let plan = CipherFaultPlan::scenario(0xBAD ^ s.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut injector = CipherFaultInjector::new(plan);
        let delivered = injector.apply(&frames);
        let mut client =
            CryptoClient::new(authority.clone(), &RoleSet::from([0]), CRYPTO_IN_FLIGHT)
                .with_broken_tag_check();
        let mut out = Vec::new();
        for f in &delivered {
            client.feed(f, &mut out);
        }
        if client.released_unauthenticated() > 0 {
            caught = true;
            break;
        }
    }
    assert!(caught, "the unauthenticated-release counter must flag the broken client");
}

/// The element-level chaos campaign (dropped/duplicated/reordered raw
/// elements, upstream of encryption) holds for the fourth mechanism too.
#[test]
fn crypto_enforced_fails_closed_under_element_chaos() {
    let catalog = catalog();
    let schema = schema();
    mechanism_chaos(&|| {
        Box::new(CryptoEnforced::new(catalog.clone(), schema.clone(), RoleSet::from([0]), 512))
    });
}
