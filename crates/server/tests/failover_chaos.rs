//! Failover chaos campaign: primary/standby replication under injected
//! failures.
//!
//! Every scenario kills (or deposes) a replicating primary at a hostile
//! moment — mid-epoch, mid-checkpoint-ship, with the link partitioned,
//! lagging, or duplicating frames — promotes the standby, and checks
//! the paper's guarantee survived the switch:
//!
//! * the promoted standby's released set is a suffix of (⊆) the
//!   unfailed baseline — failover may lose results, never leak them;
//! * its audit trail and policy-table bytes are *identical* to an
//!   unfailed control resumed from the same replicated checkpoint —
//!   replication adds no divergence on top of plain crash recovery;
//! * a fenced ex-primary releases **zero** further tuples (split-brain
//!   negative control), with in-flight refusals audited as
//!   `RecoveryFailClosed`.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sp_core::{StreamElement, StreamId};
use sp_engine::{Checkpoint, CheckpointStore, LinkFaultPlan, MemStore, TelemetryConfig};
use sp_mog::{location_stream, MovingObjectSim, WorkloadConfig};
use sp_query::Dsms;
use sp_server::{
    ClientConfig, LoadClient, Server, ServerConfig, SessionFactory, Standby, StandbyHandle,
    StoreMap, TenantReport,
};

// ---------------------------------------------------------------- helpers

fn factory() -> SessionFactory {
    Arc::new(move |tenant: u32| {
        let mut dsms = Dsms::new();
        dsms.register_stream(StreamId(1), MovingObjectSim::location_schema()).unwrap();
        dsms.register_role("analyst").unwrap();
        let subject = dsms.register_subject(&format!("tenant-{tenant}"), &["analyst"]).unwrap();
        dsms.submit("SELECT obj_id, speed FROM LocationUpdates WHERE speed >= 5.0", subject)
            .unwrap();
        dsms.telemetry = Some(TelemetryConfig::enabled());
        dsms
    })
}

fn workload_input(seed: u64) -> Vec<(StreamId, StreamElement)> {
    let w = location_stream(&WorkloadConfig {
        objects: 40,
        ticks: 20,
        sp_every: 8,
        grant_selectivity: 0.6,
        seed,
        ..WorkloadConfig::default()
    });
    w.elements.into_iter().map(|e| (w.stream, e)).collect()
}

fn default_cfg() -> ServerConfig {
    ServerConfig { read_timeout_ms: 10, idle_timeout_ms: 5_000, ..ServerConfig::default() }
}

/// The full unfailed baseline: the whole input through one in-memory run.
fn baseline_released(
    f: &SessionFactory,
    tenant: u32,
    input: &[(StreamId, StreamElement)],
) -> Vec<(u32, Vec<String>)> {
    let dsms = f(tenant);
    let mut running = dsms.start();
    for (s, e) in input {
        let _ = running.try_push(*s, e.clone());
    }
    dsms.queries()
        .iter()
        .map(|q| (q.id.raw(), running.results(q.id).tuples().map(|t| t.to_string()).collect()))
        .collect()
}

/// What an unfailed node would produce from the replicated checkpoint:
/// resume from exactly the bytes the standby applied, replay the input
/// tail. Captures the released set, audit bytes, and the policy-table /
/// operator-state bytes of a fresh cut at the end.
struct Control {
    released: Vec<(u32, Vec<String>)>,
    audit: Vec<u8>,
    analyzers: Vec<Vec<u8>>,
    nodes: Vec<Vec<u8>>,
}

fn resume_control(
    f: &SessionFactory,
    tenant: u32,
    ckpt: Option<&Checkpoint>,
    input: &[(StreamId, StreamElement)],
) -> Control {
    let dsms = f(tenant);
    let mut store = MemStore::new();
    if let Some(c) = ckpt {
        store.save(c).unwrap();
    }
    let mut running = dsms.resume(&store).unwrap();
    let from = usize::try_from(running.input_pos()).unwrap().min(input.len());
    for (s, e) in &input[from..] {
        let _ = running.try_push(*s, e.clone());
    }
    let released = dsms
        .queries()
        .iter()
        .map(|q| (q.id.raw(), running.results(q.id).tuples().map(|t| t.to_string()).collect()))
        .collect();
    let audit = running.audit_trail().encode_to_vec();
    let mut cut = MemStore::new();
    running.checkpoint_to(u64::MAX, &mut cut).unwrap();
    let fin = cut.load_latest().unwrap();
    Control { released, audit, analyzers: fin.analyzers, nodes: fin.nodes }
}

/// The failed-over run leaked nothing and diverged nowhere: released and
/// audit ≡ the unfailed control (same resume, same replay), released ⊆
/// the full baseline (a suffix, per query).
fn assert_failover_invariants(
    label: &str,
    report: &TenantReport,
    control: &Control,
    full_baseline: &[(u32, Vec<String>)],
) {
    assert!(!report.quarantined, "{label}: promoted tenant must be live");
    assert_eq!(
        report.released, control.released,
        "{label}: promoted releases must equal the unfailed control"
    );
    assert_eq!(
        report.audit, control.audit,
        "{label}: audit trail must be byte-identical to the unfailed control"
    );
    assert_eq!(report.released.len(), full_baseline.len());
    for ((qid, got), (want_qid, want)) in report.released.iter().zip(full_baseline) {
        assert_eq!(qid, want_qid);
        assert!(
            want.ends_with(got),
            "{label}: query {qid} releases must be a suffix of the unfailed baseline \
             (got {} baseline {})",
            got.len(),
            want.len(),
        );
    }
}

/// Waits until the standby has applied a checkpoint epoch ≥ `min_epoch`
/// for `tenant` (replication is asynchronous).
fn wait_applied(standby: &StandbyHandle, tenant: u32, min_epoch: u64, timeout: Duration) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if standby.applied_epochs().iter().any(|(t, e)| *t == tenant && *e >= min_epoch) {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    false
}

fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(format!("GET {path} HTTP/1.0\r\n\r\n").as_bytes()).unwrap();
    let mut out = String::new();
    let _ = stream.read_to_string(&mut out);
    out
}

/// Only the engine-recorded sections of a span sheet (the worker's
/// wire-frame ingress section depends on how the client chunked frames,
/// which an in-process control has no counterpart for).
fn engine_sections(sheet: &sp_engine::SpanSheet) -> sp_engine::SpanSheet {
    let mut out = sp_engine::SpanSheet::new();
    for (op, rec) in sheet.sections() {
        if op != sp_engine::AuditOp::Ingress {
            out.push_section(op, rec.clone());
        }
    }
    out
}

/// Total observations across every series of one lag-histogram family.
fn lag_count(text: &str, family: &str) -> u64 {
    let prefix = format!("{family}_count");
    text.lines()
        .filter(|l| l.starts_with(&prefix))
        .filter_map(|l| l.rsplit(' ').next())
        .filter_map(|v| v.parse::<f64>().ok())
        .sum::<f64>() as u64
}

// ------------------------------------------------------------------ tests

/// Clean replication: the standby converges to the primary's durable
/// state, lag reaches zero, and observability tells the story.
#[test]
fn standby_applies_shipped_checkpoints_and_reports_lag() {
    let f = factory();
    let input = workload_input(21);

    let standby = Standby::start(Arc::clone(&f), StoreMap::new(), true).unwrap();
    let cfg = ServerConfig {
        checkpoint_every_frames: 4,
        replicate_to: Some(standby.repl_addr),
        metrics: true,
        ..default_cfg()
    };
    let primary = Server::start(cfg, Arc::clone(&f), StoreMap::new()).unwrap();
    let r = LoadClient::new(ClientConfig::default()).run(primary.addr, &input);
    assert!(r.completed, "{r:?}");
    assert!(wait_applied(&standby, 0, 1, Duration::from_secs(10)), "standby never applied");

    // Observability: the primary is primary, the standby is standby.
    let pm = http_get(primary.metrics_addr.unwrap(), "/metrics");
    assert!(pm.contains("sp_server_role{role=\"primary\"} 1"), "{pm}");
    assert!(pm.contains("sp_server_fencing_epoch 1"), "{pm}");
    assert!(pm.contains("sp_server_fenced 0"), "{pm}");
    let sm = http_get(standby.metrics_addr.unwrap(), "/metrics");
    assert!(sm.contains("sp_server_role{role=\"standby\"} 1"), "{sm}");
    assert!(sm.contains("sp_server_repl_commits_applied_total"), "{sm}");
    let sh = http_get(standby.metrics_addr.unwrap(), "/healthz");
    assert!(sh.starts_with("HTTP/1.0 200"), "{sh}");

    // Drain ships the final checkpoint; the standby converges to the
    // primary's exact durable state.
    let report = primary.drain();
    assert!(report.clean);
    assert!(report.repl_frames_shipped > 0);
    assert!(!report.fenced);
    let t = report.tenant(0).unwrap();
    assert!(t.checkpoints_taken > 0);
    // Worker epochs are 1-based, so the drain checkpoint's epoch equals
    // the number of checkpoints taken.
    let final_epoch = t.checkpoints_taken;
    assert!(
        wait_applied(&standby, 0, final_epoch, Duration::from_secs(10)),
        "standby must converge to the drain checkpoint: applied {:?}, want epoch {final_epoch}",
        standby.applied_epochs(),
    );
    assert_eq!(standby.lag_epochs().iter().map(|(_, l)| *l).max().unwrap_or(0), 0);
    assert_eq!(standby.apply_failures(), 0);
    let replicated = standby.stores().store(0).load_latest().unwrap();
    assert_eq!(replicated.input_pos, input.len() as u64);
    standby.stop();
}

/// One full failover round: deliver part of the input, hard-kill the
/// primary at whatever moment the scenario dictates, promote the
/// standby, finish the run against it, and verify the invariants
/// against the replicated checkpoint.
fn failover_round(label: &str, seed: u64, cfg_mut: impl Fn(&mut ServerConfig)) {
    let f = factory();
    let input = workload_input(seed);
    let full_baseline = baseline_released(&f, 0, &input);

    let standby = Standby::start(Arc::clone(&f), StoreMap::new(), false).unwrap();
    let mut cfg = ServerConfig {
        checkpoint_every_frames: 4,
        replicate_to: Some(standby.repl_addr),
        ..default_cfg()
    };
    cfg_mut(&mut cfg);
    let primary = Server::start(cfg, Arc::clone(&f), StoreMap::new()).unwrap();

    // Kill mid-epoch: the client stops partway through the input,
    // between checkpoint boundaries, and the primary crashes.
    let part = &input[..input.len() * 2 / 3];
    let r1 = LoadClient::new(ClientConfig::default()).run(primary.addr, part);
    assert!(r1.completed, "{label}: {r1:?}");
    // Give asynchronous shipping a moment, then crash. How much actually
    // arrived is the scenario's business — partitions, lag, and the
    // mid-ship chaos knob may have eaten any amount of it.
    std::thread::sleep(Duration::from_millis(120));
    let killed = primary.kill();
    assert!(!killed.clean, "{label}: a kill is not a clean drain");

    // The replicated checkpoint as of the crash — exactly what the
    // promoted server will resume from (`stores()` shares the Arc the
    // promoted incarnation keeps using).
    let repl_stores = standby.stores();
    let replicated = repl_stores.store(0).load_latest();
    if let Some(c) = &replicated {
        assert!(
            c.input_pos <= part.len() as u64,
            "{label}: the standby cannot know a future the primary never had"
        );
    }
    let control = resume_control(&f, 0, replicated.as_ref(), &input);

    let promoted = standby.promote(default_cfg()).unwrap();
    let r2 = LoadClient::new(ClientConfig::default()).run(promoted.addr, &input);
    assert!(r2.completed, "{label}: client must finish against the promoted standby: {r2:?}");

    let report = promoted.drain();
    assert!(report.clean, "{label}");
    assert!(report.fencing_epoch >= 2, "{label}: promotion must raise the fencing epoch");
    assert!(!report.fenced, "{label}: the promoted node is primary, not deposed");
    let t = report.tenant(0).unwrap();
    assert_eq!(t.input_pos, input.len() as u64, "{label}: exactly-once across the switch");
    assert_failover_invariants(label, t, &control, &full_baseline);

    // Policy-table and operator-state bytes of the promoted node's final
    // (drain) checkpoint must match the unfailed control's cut.
    let final_ckpt = repl_stores.store(0).load_latest().unwrap();
    assert_eq!(
        final_ckpt.analyzers, control.analyzers,
        "{label}: policy-table bytes must match the unfailed control"
    );
    assert_eq!(
        final_ckpt.nodes, control.nodes,
        "{label}: operator-state bytes must match the unfailed control"
    );
}

#[test]
fn kill_primary_mid_epoch_standby_takes_over() {
    failover_round("mid-epoch", 22, |_| {});
}

#[test]
fn kill_primary_mid_checkpoint_ship() {
    // The link goes silent after a handful of frames: the last
    // checkpoint ships only partially and must never be applied — the
    // standby stands on the last fully-committed one.
    for stop_after in [3u64, 7, 13] {
        failover_round("mid-ship", 23, |cfg| {
            cfg.chaos_repl_stop_after_frames = stop_after;
            cfg.repl_chunk_bytes = 512; // many segments per checkpoint
        });
    }
}

#[test]
fn partitioned_lagging_duplicating_link_still_fails_over_safely() {
    for seed in [1u64, 2, 3, 4, 5] {
        failover_round("hostile-link", 24, |cfg| {
            cfg.repl_faults = Some(LinkFaultPlan::scenario(seed));
            cfg.repl_chunk_bytes = 1024;
        });
    }
}

/// An aggressively duplicating + lagging (reordering) link: commits
/// arrive twice and out of order. Applied state must stay monotone —
/// an old epoch arriving late is acked but never rolls back a newer one.
#[test]
fn duplicate_and_reordered_delivery_never_rolls_state_backwards() {
    let f = factory();
    let input = workload_input(25);
    let standby = Standby::start(Arc::clone(&f), StoreMap::new(), false).unwrap();
    let cfg = ServerConfig {
        checkpoint_every_frames: 2,
        replicate_to: Some(standby.repl_addr),
        repl_chunk_bytes: 64 * 1024, // one segment per checkpoint: lag reorders whole commits
        repl_faults: Some(LinkFaultPlan {
            seed: 99,
            partition: 0.0,
            partition_len: 0,
            lag: 0.5,
            lag_max: 6,
            duplicate: 0.8,
        }),
        ..default_cfg()
    };
    let primary = Server::start(cfg, Arc::clone(&f), StoreMap::new()).unwrap();
    let r = LoadClient::new(ClientConfig::default()).run(primary.addr, &input);
    assert!(r.completed, "{r:?}");
    let report = primary.drain();
    assert!(report.clean);
    let taken = report.tenant(0).unwrap().checkpoints_taken;
    assert!(taken > 4, "the run must checkpoint a lot: {taken}");
    assert!(
        wait_applied(&standby, 0, 1, Duration::from_secs(10)),
        "standby applied nothing: {:?}",
        standby.applied_epochs()
    );
    // Let stragglers and duplicates land, then check monotonicity held:
    // the store's latest checkpoint is the highest applied epoch — no
    // late duplicate rolled it back — and it resumes cleanly at a
    // position the primary actually checkpointed.
    std::thread::sleep(Duration::from_millis(200));
    let applied = standby.applied_epochs();
    let replicated = standby.stores().store(0).load_latest().unwrap();
    assert_eq!(
        applied,
        vec![(0, replicated.epoch)],
        "the store's latest checkpoint must be the highest applied epoch — no rollback"
    );
    let control = resume_control(&f, 0, Some(&replicated), &input);
    assert!(!control.released.is_empty());
    standby.stop();
}

/// Split-brain negative control: promote the standby while the primary
/// is alive. The deposed primary must fence itself the moment the
/// higher epoch reaches it: zero further releases, fenced healthz and
/// metrics, clients re-homed to the promoted node exactly-once.
#[test]
fn stale_primary_is_fenced_and_releases_nothing() {
    let f = factory();
    let input = workload_input(26);
    let full_baseline = baseline_released(&f, 0, &input);

    let standby = Standby::start(Arc::clone(&f), StoreMap::new(), false).unwrap();
    let cfg = ServerConfig {
        checkpoint_every_frames: 4,
        replicate_to: Some(standby.repl_addr),
        metrics: true,
        ..default_cfg()
    };
    let primary = Server::start(cfg, Arc::clone(&f), StoreMap::new()).unwrap();

    // Deliver part of the stream, let replication catch up.
    let half = &input[..input.len() / 2];
    let r1 = LoadClient::new(ClientConfig::default()).run(primary.addr, half);
    assert!(r1.completed, "{r1:?}");
    assert!(wait_applied(&standby, 0, 1, Duration::from_secs(10)));

    // Promote while the primary is alive and its replication link is up:
    // the standby writes the Fence straight onto that link. The control
    // resumes from what the promoted node resumes from: the replicated
    // checkpoint as of after promotion, since a commit may still land
    // while the fence settles.
    let stores = standby.stores();
    let promoted = standby.promote(default_cfg()).unwrap();
    let replicated = stores.store(0).load_latest();
    let control = resume_control(&f, 0, replicated.as_ref(), &input);

    // The deposed primary must notice and fail closed.
    let deadline = Instant::now() + Duration::from_secs(5);
    while !primary.is_fenced() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(primary.is_fenced(), "the deposed primary must fence itself");
    assert!(primary.fencing_epoch() >= 2);
    let health = http_get(primary.metrics_addr.unwrap(), "/healthz");
    assert!(health.contains("503"), "fenced node must be unhealthy: {health}");
    assert!(health.contains("fenced"), "{health}");
    let pm = http_get(primary.metrics_addr.unwrap(), "/metrics");
    assert!(pm.contains("sp_server_role{role=\"fenced\"} 1"), "{pm}");
    assert!(pm.contains("sp_server_fenced 1"), "{pm}");

    // Negative control: hammer the fenced primary with the rest of the
    // input — it must refuse the stream and release nothing new.
    let at_fence = primary.tenant_report(0).unwrap();
    let rude = LoadClient::new(ClientConfig { max_reconnects: 2, ..ClientConfig::default() })
        .run(primary.addr, &input);
    assert!(!rude.completed, "a fenced node must not accept the stream: {rude:?}");
    let after = primary.tenant_report(0).unwrap();
    assert_eq!(after.input_pos, at_fence.input_pos, "fenced node consumed input");
    assert_eq!(after.released, at_fence.released, "fenced node released tuples after deposal");

    // A failover-aware client re-homes and finishes exactly-once.
    let r2 = LoadClient::new(ClientConfig {
        failover: Some(promoted.addr),
        connect_patience_ms: 3_000,
        ..ClientConfig::default()
    })
    .run(primary.addr, &input);
    assert!(r2.completed, "failover client must finish on the promoted node: {r2:?}");
    assert_eq!(r2.failovers, 1, "{r2:?}");

    // The deposed primary's post-mortem shows the deposal.
    let dead = primary.drain();
    assert!(dead.fenced);
    assert!(dead.fencing_epoch >= 2);
    let t_dead = dead.tenant(0).unwrap();
    assert_eq!(t_dead.released, at_fence.released, "zero releases after the fence");

    // And the promoted node carries the stream to completion correctly.
    let report = promoted.drain();
    assert!(report.clean);
    let t = report.tenant(0).unwrap();
    assert_eq!(t.input_pos, input.len() as u64);
    assert_failover_invariants("split-brain", t, &control, &full_baseline);
}

/// sp-trace across failover: one client-submitted stream is traceable
/// end-to-end on the primary (wire frame → analyzer decision → shield
/// enforcement → verdict), the standby records a deterministic apply
/// span per committed epoch, and after promotion the replayed suffix's
/// span tree and enforcement-lag histograms are *identical* to an
/// unfailed control resumed from the same replicated checkpoint.
#[test]
fn failover_preserves_span_trees_and_enforcement_lag() {
    use sp_core::trace::{site, span_id, trace_id_for_checkpoint};

    let f = factory();
    let input = workload_input(28);

    let standby = Standby::start(Arc::clone(&f), StoreMap::new(), true).unwrap();
    let cfg = ServerConfig {
        checkpoint_every_frames: 4,
        replicate_to: Some(standby.repl_addr),
        metrics: true,
        ..default_cfg()
    };
    let primary = Server::start(cfg, Arc::clone(&f), StoreMap::new()).unwrap();

    let part = &input[..input.len() * 2 / 3];
    let r1 = LoadClient::new(ClientConfig::default()).run(primary.addr, part);
    assert!(r1.completed, "{r1:?}");
    assert!(wait_applied(&standby, 0, 1, Duration::from_secs(10)), "standby never applied");

    // End-to-end on the live primary: the merged span sheet carries the
    // whole enforcement path, causally linked.
    let sheet = primary.tenant_spans(0).unwrap();
    let spans: Vec<sp_engine::SpanRecord> = sheet.records().map(|(_, r)| *r).collect();
    let has = |s: u8| spans.iter().any(|r| r.site == s);
    for s in [site::WIRE_FRAME, site::ANALYZE, site::SHIELD_ENFORCE] {
        assert!(has(s), "missing {} spans", site::name(s));
    }
    assert!(has(site::RELEASE) || has(site::SUPPRESS), "no verdict spans recorded");
    for r in &spans {
        match r.site {
            // The client stamped every frame, so no ingress span is a
            // root: each hangs off the client's submit span.
            site::WIRE_FRAME => assert_ne!(r.parent, 0, "ingress span lost its client root"),
            // An sp's analyze span hangs off the wire frame that
            // carried it; enforcement hangs off the decision.
            site::ANALYZE => assert_eq!(r.parent, span_id(r.trace_id, site::WIRE_FRAME)),
            site::SHIELD_ENFORCE => assert_eq!(r.parent, span_id(r.trace_id, site::ANALYZE)),
            _ => {}
        }
    }

    // The same story over HTTP, next to /metrics.
    let tj = http_get(primary.metrics_addr.unwrap(), "/trace");
    assert!(tj.contains("traceEvents"), "{tj}");
    for name in ["wire_frame", "analyze", "shield_enforce"] {
        assert!(tj.contains(name), "/trace is missing {name} lanes");
    }
    assert!(http_get(primary.metrics_addr.unwrap(), "/audit").contains("-- spans --"));
    let pm = http_get(primary.metrics_addr.unwrap(), "/metrics");
    assert!(lag_count(&pm, "sp_enforce_lag_ms") > 0, "no enforcement-lag observations: {pm}");

    // Crash the primary mid-run.
    std::thread::sleep(Duration::from_millis(120));
    assert!(!primary.kill().clean);

    // The standby traced every commit it applied — deterministically:
    // trace id derived from (tenant, epoch), stamped with the epoch
    // itself, never wall clock.
    let s_sheet = standby.span_sheet();
    let applies: Vec<sp_engine::SpanRecord> =
        s_sheet.records().filter(|(_, r)| r.site == site::STANDBY_APPLY).map(|(_, r)| *r).collect();
    assert!(!applies.is_empty(), "standby applied commits but traced none");
    for r in &applies {
        assert_eq!(r.trace_id, trace_id_for_checkpoint(0, r.ts));
        assert_eq!(r.parent, 0, "apply spans are roots of the replication trace");
    }
    assert!(http_get(standby.metrics_addr.unwrap(), "/trace").contains("standby_apply"));

    // Unfailed control: resume from the very checkpoint the standby
    // holds, replay the tail in-process, capture spans + lag.
    let replicated = standby.stores().store(0).load_latest();
    let (control_spans, control_metrics) = {
        let dsms = f(0);
        let mut store = MemStore::new();
        if let Some(c) = &replicated {
            store.save(c).unwrap();
        }
        let mut running = {
            let mut running = dsms.resume(&store).unwrap();
            let from = usize::try_from(running.input_pos()).unwrap().min(input.len());
            for (s, e) in &input[from..] {
                let _ = running.try_push(*s, e.clone());
            }
            running
        };
        (running.span_sheet(), running.metrics_prometheus())
    };

    // Promote and finish the run against the standby.
    let promoted = standby.promote(ServerConfig { metrics: true, ..default_cfg() }).unwrap();
    let r2 = LoadClient::new(ClientConfig::default()).run(promoted.addr, &input);
    assert!(r2.completed, "{r2:?}");

    // The promoted node's engine span tree for the replayed suffix is
    // byte-identical to the unfailed control's, and its wire-frame
    // ingress section ties that replay back to client frames.
    let p_sheet = promoted.tenant_spans(0).unwrap();
    assert!(p_sheet.sections().any(|(op, _)| op == sp_engine::AuditOp::Ingress));
    assert_eq!(
        engine_sections(&p_sheet).encode_to_vec(),
        control_spans.encode_to_vec(),
        "promoted span tree diverged from the unfailed control"
    );

    // Enforcement-lag histograms agree observation-for-observation.
    let pm2 = http_get(promoted.metrics_addr.unwrap(), "/metrics");
    for fam in ["sp_enforce_lag_ms", "sp_first_release_lag_ms", "sp_suppress_lag_ms"] {
        assert_eq!(
            lag_count(&pm2, fam),
            lag_count(&control_metrics, fam),
            "{fam} diverged across failover"
        );
    }
    assert!(lag_count(&pm2, "sp_enforce_lag_ms") > 0);
    assert!(promoted.drain().clean);
}

/// The worker-level fail-closed gate: a deposing epoch lands while a
/// frame is already past the connection-level fence check (the
/// `chaos_fence_at_frame` knob makes that race deterministic). The
/// frame's elements must be refused, counted, and audited as
/// `RecoveryFailClosed` — never fed to the engine.
#[test]
fn fence_racing_an_in_flight_frame_fails_closed_and_audits() {
    let f = factory();
    let input = workload_input(27);
    let full_baseline = baseline_released(&f, 0, &input);

    let cfg = ServerConfig { chaos_fence_at_frame: 5, ..default_cfg() };
    let handle = Server::start(cfg, Arc::clone(&f), StoreMap::new()).unwrap();
    let r = LoadClient::new(ClientConfig::default()).run(handle.addr, &input);
    assert!(!r.completed, "the fence must cut the session short: {r:?}");
    assert!(handle.is_fenced());

    let pos_at_fence = handle.tenant_report(0).unwrap().input_pos;
    let dead = handle.drain();
    assert!(dead.fenced);
    let t = dead.tenant(0).unwrap();
    assert!(t.fenced_refused > 0, "the in-flight frame's elements must be refused: {t:?}");
    assert!(!t.fence_audit.is_empty(), "refusals must be audited (RecoveryFailClosed)");
    assert_eq!(t.input_pos, pos_at_fence, "nothing consumed after the fence");
    // Fail closed, not open: everything released before the fence is a
    // prefix of the baseline — the refused elements leaked nothing.
    for ((qid, got), (want_qid, want)) in t.released.iter().zip(&full_baseline) {
        assert_eq!(qid, want_qid);
        assert!(
            want.starts_with(got),
            "query {qid}: pre-fence releases must be a prefix of the baseline"
        );
    }
}
