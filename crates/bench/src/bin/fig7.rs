//! Figure 7: comparison of the three access-control enforcement
//! mechanisms (§VII-B).
//!
//! * 7a — output rate (tuples/ms) vs sp:tuple ratio;
//! * 7p — processing cost per tuple (µs) vs sp:tuple ratio;
//! * 7c — policy memory (KB) vs policy size |R|;
//! * 7d — processing cost per 100 tuples (µs) vs policy size |R|.
//!
//! Usage: `cargo run --release -p sp-bench --bin fig7 -- [a|p|c|d|b|r|t|x|s|all]`
//!
//! `b` measures segment-batch execution: the same select+shield-heavy
//! plan driven tuple-at-a-time vs in segment batches, reporting the
//! throughput gain (target ≥ 1.5×) and writing a machine-readable
//! summary to `target/BENCH_batch.json`. It doubles as a release lint:
//! the process exits nonzero if the batched run releases a different
//! tuple multiset than the tuple-at-a-time run.
//!
//! `r` prints the hostile-stream degradation report: the same workload is
//! replayed through the wire with seeded faults (drops, reorders, byte
//! corruption) into a hardened plan, and every fail-closed loss counter is
//! reported — nothing is dropped silently. It then reruns the workload
//! under a crash supervisor with injected pipeline kills, reporting the
//! recovery counters and the checkpoint overhead at the default epoch
//! interval (target: under 10%).
//!
//! `t` measures the telemetry layer itself: the same shielded workload
//! with the flight recorder and metrics histograms off vs on, reporting
//! the overhead (target: under 5%) and writing the Prometheus exposition
//! to `target/telemetry.prom` plus a machine-readable summary to
//! `target/BENCH_telemetry.json`.
//!
//! `x` measures the sp-trace observability plane: the same shielded
//! workload with span recording toggled off vs on at runtime, reporting
//! the overhead (target: under 5%), the span counts per causal site, and
//! the paper-grounded enforcement-lag histograms (sp arrival → shield
//! enforcement, sp → first release, revocation → first suppression). It
//! writes the Chrome trace-event export to `target/trace.json` and a
//! machine-readable summary to `target/BENCH_trace.json`, and doubles as
//! a release lint: the process exits nonzero when the overhead exceeds
//! 5% or any enforcement-lag histogram is empty on this workload.
//!
//! `s` measures key-partitioned shard scale-out: the same shield-heavy
//! plan behind the deterministic exchange at widths 2/4/8, reporting the
//! wall-clock speedup over width 1 — the sequential executor — and
//! writing a machine-readable summary to `target/BENCH_shard.json`. It
//! doubles as a release lint: the released sequence, the audit trail,
//! and the checkpoint must be byte-identical to the sequential run's at
//! every width (and a checkpoint cut at one width must resume at
//! another) — any divergence exits nonzero. The ≥3× speedup target at 8
//! shards is enforced only on hosts with at least 8 cores; elsewhere the
//! skip is recorded in the summary instead of failing the build.

use sp_bench::mechanisms::{all_mechanisms, catalog, drive, probe_roles, MechRun};
use sp_bench::workloads::fig7_workload;
use sp_bench::{log_rows, print_table, us_per, warn_if_debug, Row};
use sp_core::wire::{FrameDecoder, Message};
use sp_core::{RoleSet, StreamId};
use sp_engine::{
    run_supervised, DegradationStats, FaultInjector, FaultPlan, MemStore, PlanBuilder,
    QuarantinePolicy, ReorderBuffer, SecurityShield, SupervisorConfig, TelemetryConfig,
};

const RATIOS: [usize; 5] = [1, 10, 25, 50, 100];
const POLICY_SIZES: [u32; 5] = [1, 10, 25, 50, 100];
/// Fixed sp:tuple ratio for the policy-size experiments (paper: 1/10).
const MEM_RATIO: usize = 10;

/// Runs mechanism `idx` over the workload three times (fresh instance each
/// run), keeping the fastest run — one-shot wall timings are noisy.
fn best_of_3(
    catalog: &std::sync::Arc<sp_core::RoleCatalog>,
    workload: &sp_mog::Workload,
    idx: usize,
) -> MechRun {
    let mut best: Option<MechRun> = None;
    for _ in 0..3 {
        let mut mechs = all_mechanisms(catalog, &workload.schema, &probe_roles());
        let mut mech = mechs.swap_remove(idx);
        let run = drive(mech.as_mut(), &workload.elements);
        if best.as_ref().is_none_or(|b| run.elapsed < b.elapsed) {
            best = Some(run);
        }
    }
    best.expect("three runs")
}

fn main() {
    warn_if_debug();
    let which = std::env::args().nth(1).unwrap_or_else(|| "all".into());
    match which.as_str() {
        "a" => ratio_sweep(true),
        "p" => ratio_sweep(false),
        "c" => policy_size_sweep(true),
        "d" => policy_size_sweep(false),
        "b" => batch_report(),
        "r" => degradation_report(),
        "t" => telemetry_report(),
        "x" => trace_report(),
        "s" => shard_report(),
        "all" => {
            ratio_sweep(true);
            ratio_sweep(false);
            policy_size_sweep(true);
            policy_size_sweep(false);
            batch_report();
            degradation_report();
            telemetry_report();
            trace_report();
            shard_report();
        }
        other => {
            eprintln!("fig7: unknown report {other:?}");
            eprintln!("usage: fig7 [a|p|c|d|b|r|t|x|s|all]  (no argument runs all)");
            std::process::exit(2);
        }
    }
}

/// Batch-execution gain: one select+shield-heavy plan, driven once in
/// tuple-at-a-time mode and once in segment batches. The executor's
/// sampled operator timer runs in both modes: tuple-at-a-time calls are
/// timed about one in 64, batched runs of 127 or more elements always.
///
/// Doubles as a **release lint**: the two modes must release the same
/// tuple multiset per sink — any divergence exits nonzero, failing CI.
fn batch_report() {
    use sp_engine::{CmpOp, Expr, Select};
    use std::collections::HashMap;

    let catalog = catalog(128);
    // sp:tuple = 1/50 → long same-segment tuple runs, the shape batch
    // execution exploits (and the common case in the paper's workloads).
    let workload = fig7_workload(50, 3, 0.5, 4242);
    let input: Vec<(StreamId, sp_core::StreamElement)> =
        workload.elements.iter().map(|e| (workload.stream, e.clone())).collect();
    let stream = workload.stream;
    let schema = &workload.schema;
    let builder = || {
        let mut b = PlanBuilder::new(catalog.clone());
        let src = b.source(stream, schema.clone());
        let sel = b.add(
            Select::new(Expr::cmp(CmpOp::Ge, Expr::Attr(0), Expr::Const(sp_core::Value::Int(0)))),
            src,
        );
        let ss = b.add(SecurityShield::new(RoleSet::from([0])), sel);
        let sink = b.sink(ss);
        (b, sink)
    };

    // Released tuple multiset of one run (tid → count), for the lint.
    let run = |batching: bool| {
        let (b, sink) = builder();
        let mut exec = b.build();
        exec.set_batching(batching);
        if batching {
            exec.push_all(input.iter().cloned()).expect("clean input");
        } else {
            for (s, e) in &input {
                exec.push(*s, e.clone()).expect("clean input");
            }
        }
        exec.finish().expect("clean finish");
        let mut released: HashMap<u64, u64> = HashMap::new();
        for t in exec.sink(sink).tuples() {
            *released.entry(t.tid.raw()).or_insert(0) += 1;
        }
        released
    };
    let tuple_released = run(false);
    let batched_released = run(true);

    let tuple_ms = time_best_of_3(|| {
        run(false);
    });
    let batched_ms = time_best_of_3(|| {
        run(true);
    });
    let speedup = tuple_ms.as_secs_f64() / batched_ms.as_secs_f64().max(1e-9);
    let released: u64 = tuple_released.values().sum();

    println!("\nFig 7 batch: segment-batch vs tuple-at-a-time execution");
    println!("  tuples              {:>10}", workload.tuples);
    println!("  released            {released:>10}");
    println!("  tuple-at-a-time     {:>10.2} ms", tuple_ms.as_secs_f64() * 1e3);
    println!("  segment batches     {:>10.2} ms", batched_ms.as_secs_f64() * 1e3);
    println!("  speedup             {speedup:>9.2}x (target >= 1.5x)");

    let multiset_ok = tuple_released == batched_released;
    if std::fs::create_dir_all("target").is_ok() {
        let json = format!(
            concat!(
                "{{\n  \"experiment\": \"fig7_batch\",\n",
                "  \"tuples\": {},\n  \"released\": {},\n",
                "  \"tuple_mode_ms\": {:.3},\n  \"batched_ms\": {:.3},\n",
                "  \"speedup\": {:.3},\n  \"multiset_identical\": {}\n}}\n"
            ),
            workload.tuples,
            released,
            tuple_ms.as_secs_f64() * 1e3,
            batched_ms.as_secs_f64() * 1e3,
            speedup,
            multiset_ok,
        );
        let _ = std::fs::write("target/BENCH_batch.json", json);
        println!("  wrote target/BENCH_batch.json");
    }

    let row = |metric: &'static str, measured: f64| Row {
        experiment: "fig7batch",
        param: "mode",
        value: "batched-vs-tuple".into(),
        series: "sp".into(),
        metric,
        measured,
    };
    log_rows(&[
        row("speedup", speedup),
        row("tuple_mode_ms", tuple_ms.as_secs_f64() * 1e3),
        row("batched_ms", batched_ms.as_secs_f64() * 1e3),
        row("released", released as f64),
    ]);

    if !multiset_ok {
        eprintln!(
            "LINT FAILURE: batched execution released a different tuple multiset \
             than tuple-at-a-time execution ({} vs {} distinct tids)",
            batched_released.len(),
            tuple_released.len(),
        );
        std::process::exit(1);
    }
    println!("  release lint        identical multisets (pass)");
}

/// Shard scale-out: one shield-heavy plan behind the key partitioner at
/// widths 1/2/4/8. Large policies (|R| = 100) make the shield's
/// per-tuple probe the dominant cost — the work the partitioner spreads
/// across cores — while the coordinator's routing stays cheap. Width 1
/// is `Engine::new(_, 1)`, the sequential `Executor`, so every printed
/// speedup is against the fastest existing path.
///
/// Doubles as a **release lint** for the §V equivalence invariants:
/// every width must release the same tuple sequence, encode the same
/// audit trail, and cut the same checkpoint bytes as the sequential
/// executor, and a checkpoint cut at width 4 must resume at width 2.
/// Divergence exits nonzero unconditionally. The ≥3× speedup target at 8 shards is
/// enforced only when the host has at least 8 cores; on smaller hosts
/// the skip is recorded in `target/BENCH_shard.json` instead.
fn shard_report() {
    use sp_engine::{CmpOp, Engine, Expr, Select};

    const WIDTHS: [usize; 4] = [1, 2, 4, 8];
    let catalog = catalog(128);
    let workload = fig7_workload(25, 100, 0.5, 0x5A4D);
    let input: Vec<(StreamId, sp_core::StreamElement)> =
        workload.elements.iter().map(|e| (workload.stream, e.clone())).collect();
    let stream = workload.stream;
    let schema = &workload.schema;
    // src → select (eager: forwards sps immediately, so the plan shards)
    // → shield → sink, with telemetry on so the audit-trail invariant is
    // exercised, not vacuous.
    let builder = || {
        let mut b = PlanBuilder::new(catalog.clone());
        let src = b.source(stream, schema.clone());
        let sel = b.add(
            Select::eager(Expr::cmp(CmpOp::Ge, Expr::Attr(0), Expr::Const(sp_core::Value::Int(0)))),
            src,
        );
        let ss = b.add(SecurityShield::new(RoleSet::from([0])), sel);
        let sink = b.sink(ss);
        b.enable_telemetry(TelemetryConfig::enabled());
        (b, sink)
    };
    let (_, sink) = builder();

    struct WidthRun {
        width: usize,
        elapsed: std::time::Duration,
        released: Vec<u64>,
        audit: Vec<u8>,
        ckpt: Vec<u8>,
    }
    let runs: Vec<WidthRun> = WIDTHS
        .iter()
        .map(|&w| {
            let elapsed = time_best_of_3(|| {
                let mut exec = Engine::new(|| builder().0, w).expect("plan is shardable");
                exec.push_all(input.iter().cloned()).expect("clean input");
                exec.finish().expect("clean finish");
            });
            // A kept run for the invariant lint, outside the timing loop.
            let mut exec = Engine::new(|| builder().0, w).expect("plan is shardable");
            exec.push_all(input.iter().cloned()).expect("clean input");
            exec.finish().expect("clean finish");
            let released: Vec<u64> = exec.sink(sink).tuples().map(|t| t.tid.raw()).collect();
            let audit = exec.audit_trail().encode_to_vec();
            let ckpt =
                exec.checkpoint(1, input.len() as u64).expect("checkpoint cuts").encode_to_vec();
            WidthRun { width: w, elapsed, released, audit, ckpt }
        })
        .collect();

    // Cross-width resume: cut mid-stream at width 4, restore at width 2,
    // finish the input there. The resumed run's releases must be exactly
    // the sequential run's tail.
    let half = input.len() / 2;
    let resumed_ok = {
        let mut a = Engine::new(|| builder().0, 4).expect("plan is shardable");
        a.push_all(input[..half].iter().cloned()).expect("clean input");
        let cut = a.checkpoint(1, half as u64).expect("checkpoint cuts");
        let mut b = Engine::new(|| builder().0, 2).expect("plan is shardable");
        b.restore(&cut).expect("checkpoint restores at another width");
        b.push_all(input[half..].iter().cloned()).expect("clean input");
        b.finish().expect("clean finish");
        let resumed: Vec<u64> = b.sink(sink).tuples().map(|t| t.tid.raw()).collect();
        !resumed.is_empty() && runs[0].released.ends_with(&resumed)
    };

    let base = runs[0].elapsed.as_secs_f64();
    let speedups: Vec<f64> =
        runs.iter().map(|r| base / r.elapsed.as_secs_f64().max(1e-9)).collect();
    let invariants_ok = runs.iter().all(|r| {
        r.released == runs[0].released && r.audit == runs[0].audit && r.ckpt == runs[0].ckpt
    }) && resumed_ok;
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let enforce_speedup = cores >= 8;
    let speedup8 = speedups[WIDTHS.len() - 1];

    println!("\nFig 7s: key-partitioned shard scale-out (|R| = 100, sp:tuple = 1/25)");
    println!("  tuples              {:>10}", workload.tuples);
    println!("  released            {:>10}", runs[0].released.len());
    println!("  host cores          {cores:>10}");
    for (r, s) in runs.iter().zip(&speedups) {
        println!(
            "  {} shard{}            {:>10.2} ms   {s:>5.2}x",
            r.width,
            if r.width == 1 { " " } else { "s" },
            r.elapsed.as_secs_f64() * 1e3,
        );
    }
    println!(
        "  target              {:>10} (8 shards >= 3x, {})",
        "",
        if enforce_speedup { "enforced" } else { "recorded only: fewer than 8 cores" },
    );

    if std::fs::create_dir_all("target").is_ok() {
        let fmt_list = |f: &dyn Fn(&WidthRun) -> String| -> String {
            runs.iter().map(f).collect::<Vec<_>>().join(", ")
        };
        let json = format!(
            concat!(
                "{{\n  \"experiment\": \"fig7s_shard\",\n",
                "  \"tuples\": {},\n  \"released\": {},\n  \"cores\": {},\n",
                "  \"widths\": [{}],\n  \"elapsed_ms\": [{}],\n  \"speedup\": [{}],\n",
                "  \"speedup_enforced\": {},\n  \"speedup_skip_reason\": {},\n",
                "  \"invariants_identical\": {},\n  \"cross_width_resume\": {}\n}}\n"
            ),
            workload.tuples,
            runs[0].released.len(),
            cores,
            fmt_list(&|r| r.width.to_string()),
            fmt_list(&|r| format!("{:.3}", r.elapsed.as_secs_f64() * 1e3)),
            speedups.iter().map(|s| format!("{s:.3}")).collect::<Vec<_>>().join(", "),
            enforce_speedup,
            if enforce_speedup {
                "null".to_string()
            } else {
                format!("\"host has {cores} cores; the 3x-at-8-shards gate needs 8\"")
            },
            invariants_ok,
            resumed_ok,
        );
        let _ = std::fs::write("target/BENCH_shard.json", json);
        println!("  wrote target/BENCH_shard.json");
    }

    let rows: Vec<Row> = runs
        .iter()
        .zip(&speedups)
        .flat_map(|(r, &s)| {
            let mk = |metric: &'static str, measured: f64| Row {
                experiment: "fig7s",
                param: "shards",
                value: r.width.to_string(),
                series: "sp".into(),
                metric,
                measured,
            };
            [mk("elapsed_ms", r.elapsed.as_secs_f64() * 1e3), mk("speedup", s)]
        })
        .collect();
    log_rows(&rows);

    if !invariants_ok {
        eprintln!(
            "LINT FAILURE: sharded execution diverged from the sequential run \
             (released/audit/checkpoint must be byte-identical at every width, \
             and a width-4 checkpoint must resume at width 2)"
        );
        std::process::exit(1);
    }
    println!("  release lint        byte-identical at every width (pass)");
    if enforce_speedup && speedup8 < 3.0 {
        eprintln!(
            "LINT FAILURE: 8-shard speedup {speedup8:.2}x is below the 3x target \
             on a {cores}-core host"
        );
        std::process::exit(1);
    }
}

/// Telemetry overhead: the same shielded workload with the audit trail
/// and metrics histograms disarmed vs armed. The flight recorder and the
/// log-scale histograms are designed to cost a few arithmetic ops per
/// decision, so the armed run must stay within 5% of the bare one.
fn telemetry_report() {
    let catalog = catalog(128);
    let workload = fig7_workload(10, 3, 0.5, 42);
    let input: Vec<(StreamId, sp_core::StreamElement)> =
        workload.elements.iter().map(|e| (workload.stream, e.clone())).collect();
    let stream = workload.stream;
    let schema = &workload.schema;
    let builder = |telemetry: Option<TelemetryConfig>| {
        let mut b = PlanBuilder::new(catalog.clone());
        let src = b.source(stream, schema.clone());
        b.harden_source(src, QuarantinePolicy { ttl_ms: 40, slack_ms: 100, capacity: 1_024 });
        let ss = b.add(SecurityShield::new(RoleSet::from([0])), src);
        let _sink = b.sink(ss);
        if let Some(cfg) = telemetry {
            b.enable_telemetry(cfg);
        }
        b
    };
    let drive = |telemetry: Option<TelemetryConfig>| {
        let mut exec = builder(telemetry).build();
        for (s, e) in &input {
            let _ = exec.push(*s, e.clone());
        }
        let _ = exec.finish();
    };

    let plain = time_best_of_3(|| drive(None));
    let armed = time_best_of_3(|| drive(Some(TelemetryConfig::enabled())));
    let overhead =
        (armed.as_secs_f64() - plain.as_secs_f64()) / plain.as_secs_f64().max(1e-9) * 100.0;

    // One more armed run kept alive so the exposition and trail can be
    // inspected after the timing loop.
    let mut exec = builder(Some(TelemetryConfig::enabled())).build();
    for (s, e) in &input {
        let _ = exec.push(*s, e.clone());
    }
    let _ = exec.finish();
    let trail = exec.audit_trail();
    let audit_records = trail.len() as u64 + trail.evicted();
    let prom = exec.metrics().render_prometheus();

    println!("\nFig 7t: telemetry overhead (audit trail + metrics histograms)");
    println!("  bare run            {:>10.2} ms", plain.as_secs_f64() * 1e3);
    println!("  telemetry on        {:>10.2} ms", armed.as_secs_f64() * 1e3);
    println!("  overhead            {overhead:>9.1}% (target < 5%)");
    println!("  decisions audited   {audit_records} ({} evicted)", trail.evicted());
    println!("  exposition          {} lines", prom.lines().count());

    if std::fs::create_dir_all("target").is_ok() {
        let _ = std::fs::write("target/telemetry.prom", &prom);
        println!("  wrote target/telemetry.prom");
        let json = format!(
            concat!(
                "{{\n  \"experiment\": \"fig7t_telemetry\",\n",
                "  \"tuples\": {},\n  \"bare_ms\": {:.3},\n  \"telemetry_ms\": {:.3},\n",
                "  \"overhead_pct\": {:.2},\n  \"audit_records\": {},\n",
                "  \"audit_evicted\": {},\n  \"exposition_lines\": {}\n}}\n"
            ),
            workload.tuples,
            plain.as_secs_f64() * 1e3,
            armed.as_secs_f64() * 1e3,
            overhead,
            audit_records,
            trail.evicted(),
            prom.lines().count(),
        );
        let _ = std::fs::write("target/BENCH_telemetry.json", json);
        println!("  wrote target/BENCH_telemetry.json");
    }

    let row = |metric: &'static str, measured: f64| Row {
        experiment: "fig7t",
        param: "telemetry",
        value: "on-vs-off".into(),
        series: "sp".into(),
        metric,
        measured,
    };
    log_rows(&[
        row("telemetry_overhead_pct", overhead),
        row("audit_records", audit_records as f64),
        row("exposition_lines", prom.lines().count() as f64),
    ]);
}

/// Sp-trace overhead + enforcement lag: the same shielded workload built
/// with span rings off (`span_capacity: 0`) vs on
/// (`DEFAULT_SPAN_CAPACITY`), audit and metrics on in both so the
/// comparison isolates the span plane, then one kept run whose span
/// sheet and enforcement-lag histograms are exported and linted.
fn trace_report() {
    use sp_engine::telemetry::DEFAULT_SPAN_CAPACITY;

    let catalog = catalog(128);
    let workload = fig7_workload(10, 3, 0.5, 42);
    let input: Vec<(StreamId, sp_core::StreamElement)> =
        workload.elements.iter().map(|e| (workload.stream, e.clone())).collect();
    let stream = workload.stream;
    let schema = &workload.schema;
    let builder = |span_capacity: usize| {
        let mut b = PlanBuilder::new(catalog.clone());
        let src = b.source(stream, schema.clone());
        b.harden_source(src, QuarantinePolicy { ttl_ms: 40, slack_ms: 100, capacity: 1_024 });
        let ss = b.add(SecurityShield::new(RoleSet::from([0])), src);
        let _sink = b.sink(ss);
        b.enable_telemetry(TelemetryConfig { span_capacity, ..TelemetryConfig::enabled() });
        b
    };
    let drive = |span_capacity: usize| {
        let mut exec = builder(span_capacity).build();
        for (s, e) in &input {
            let _ = exec.push(*s, e.clone());
        }
        let _ = exec.finish();
    };

    let off = time_best_of_3(|| drive(0));
    let on = time_best_of_3(|| drive(DEFAULT_SPAN_CAPACITY));
    let overhead = (on.as_secs_f64() - off.as_secs_f64()) / off.as_secs_f64().max(1e-9) * 100.0;

    // One more traced run kept alive so the span sheet and the lag
    // histograms can be exported after the timing loop.
    let mut exec = builder(DEFAULT_SPAN_CAPACITY).build();
    for (s, e) in &input {
        let _ = exec.push(*s, e.clone());
    }
    let _ = exec.finish();
    let sheet = exec.span_sheet();
    let prom = exec.metrics().render_prometheus();

    // Span count per causal site, from the merged sheet.
    let mut per_site: std::collections::BTreeMap<&'static str, u64> = Default::default();
    for (_, rec) in sheet.records() {
        *per_site.entry(sp_core::trace::site::name(rec.site)).or_insert(0) += 1;
    }
    // `<family>_count{...} N` series sums from the exposition.
    let hist_count = |family: &str| -> u64 {
        let prefix = format!("{family}_count");
        prom.lines()
            .filter(|l| l.starts_with(&prefix))
            .filter_map(|l| l.rsplit(' ').next())
            .filter_map(|v| v.parse::<u64>().ok())
            .sum()
    };
    let enforce = hist_count("sp_enforce_lag_ms");
    let release = hist_count("sp_first_release_lag_ms");
    let suppress = hist_count("sp_suppress_lag_ms");

    println!("\nFig 7x: sp-trace overhead + enforcement lag");
    println!("  spans off           {:>10.2} ms", off.as_secs_f64() * 1e3);
    println!("  spans on            {:>10.2} ms", on.as_secs_f64() * 1e3);
    println!("  overhead            {overhead:>9.1}% (target < 5%)");
    println!("  spans recorded      {:>10} ({} evicted)", sheet.len(), sheet.evicted());
    for (site, n) in &per_site {
        println!("    {site:<16}  {n:>10}");
    }
    println!("  enforce-lag obs     {enforce:>10}");
    println!("  first-release obs   {release:>10}");
    println!("  suppress-lag obs    {suppress:>10}");

    if std::fs::create_dir_all("target").is_ok() {
        let _ = std::fs::write("target/trace.json", sheet.render_chrome_json());
        println!("  wrote target/trace.json");
        let json = format!(
            concat!(
                "{{\n  \"experiment\": \"fig7x_trace\",\n",
                "  \"tuples\": {},\n  \"spans_off_ms\": {:.3},\n  \"spans_on_ms\": {:.3},\n",
                "  \"overhead_pct\": {:.2},\n  \"spans\": {},\n  \"spans_evicted\": {},\n",
                "  \"enforce_lag_observations\": {},\n",
                "  \"first_release_lag_observations\": {},\n",
                "  \"suppress_lag_observations\": {}\n}}\n"
            ),
            workload.tuples,
            off.as_secs_f64() * 1e3,
            on.as_secs_f64() * 1e3,
            overhead,
            sheet.len(),
            sheet.evicted(),
            enforce,
            release,
            suppress,
        );
        let _ = std::fs::write("target/BENCH_trace.json", json);
        println!("  wrote target/BENCH_trace.json");
    }

    let row = |metric: &'static str, measured: f64| Row {
        experiment: "fig7x",
        param: "trace",
        value: "on-vs-off".into(),
        series: "sp".into(),
        metric,
        measured,
    };
    log_rows(&[
        row("trace_overhead_pct", overhead),
        row("spans", sheet.len() as f64),
        row("enforce_lag_observations", enforce as f64),
        row("first_release_lag_observations", release as f64),
        row("suppress_lag_observations", suppress as f64),
    ]);

    // Release lints. The overhead gate tolerates sub-millisecond jitter:
    // on a workload this small a scheduler blip can exceed 5% without
    // meaning anything.
    let delta_ms = (on.as_secs_f64() - off.as_secs_f64()) * 1e3;
    if overhead > 5.0 && delta_ms > 1.0 {
        eprintln!(
            "LINT FAILURE: sp-trace overhead {overhead:.1}% exceeds the 5% budget \
             ({delta_ms:.2} ms over a {:.2} ms baseline)",
            off.as_secs_f64() * 1e3,
        );
        std::process::exit(1);
    }
    if enforce == 0 || release == 0 || suppress == 0 {
        eprintln!(
            "LINT FAILURE: an enforcement-lag histogram is empty on the fig7 workload \
             (enforce={enforce} release={release} suppress={suppress}) — \
             the lag plane lost an observation point"
        );
        std::process::exit(1);
    }
    println!("  trace lint          overhead + lag coverage (pass)");
}

/// Hostile-stream degradation: replays the Fig. 7 workload over the wire
/// under seeded faults into a hardened shielded plan and prints what was
/// refused — corrupted frames, late arrivals, quarantined tuples. The
/// fail-closed contract is that every loss shows up in a counter.
fn degradation_report() {
    let catalog = catalog(128);
    let workload = fig7_workload(10, 3, 0.5, 42);
    let input: Vec<(StreamId, sp_core::StreamElement)> =
        workload.elements.iter().map(|e| (workload.stream, e.clone())).collect();

    // Element-level faults: drop/duplicate/delay/reorder sps and tuples.
    // Moderate rates — a lossy network, not a bit-flood — so the report
    // shows partial degradation rather than total loss.
    let plan = FaultPlan {
        drop_sp: 0.10,
        drop_tuple: 0.02,
        dup_sp: 0.05,
        dup_tuple: 0.02,
        // Delays long enough to push an sp a whole tick (200 elements)
        // or more behind its segment — past the reorder buffer's slack.
        delay_sp: 0.15,
        delay_slots: 450,
        reorder: 0.05,
        reorder_window: 4,
        corrupt_byte: 0.000_02,
        ..FaultPlan::none(0xF167)
    };
    let mut injector = FaultInjector::new(plan);
    let faulty = injector.apply(&input);

    // Wire-level faults: frame the stream and flip bytes; the decoder
    // resynchronizes past corrupted frames and counts them.
    let mut bytes = Vec::new();
    for chunk in faulty.chunks(16) {
        let elems: Vec<_> = chunk.iter().map(|(_, e)| e.clone()).collect();
        Message::new(workload.stream, elems).encode(&mut bytes);
    }
    injector.corrupt(&mut bytes);
    let mut decoder = FrameDecoder::new();
    let messages = decoder.decode_stream(&bytes);

    // A K-slack reorder buffer restores timestamp order, dropping
    // hopelessly late arrivals, before the hardened analyzer.
    let mut b = PlanBuilder::new(catalog);
    let src = b.source(workload.stream, workload.schema.clone());
    // The workload ticks every 50 ms, so a 40 ms policy TTL means a lost
    // tick-opening sp strands its tuples on the previous tick's policy —
    // exactly the case that must quarantine rather than inherit.
    b.harden_source(src, QuarantinePolicy { ttl_ms: 40, slack_ms: 100, capacity: 1_024 });
    let ss = b.add(SecurityShield::new(RoleSet::from([0])), src);
    let sink = b.sink(ss);
    let mut exec = b.build();

    let mut reorder = ReorderBuffer::new(25);
    let mut ordered = Vec::new();
    for msg in messages {
        for elem in msg.elements {
            reorder.push(elem, &mut ordered);
        }
    }
    reorder.flush(&mut ordered);
    let mut engine_errors = 0u64;
    for elem in ordered {
        if exec.push(workload.stream, elem).is_err() {
            engine_errors += 1;
        }
    }
    if exec.finish().is_err() {
        engine_errors += 1;
    }

    let mut deg: DegradationStats = exec.degradation();
    deg.reorder_dropped = reorder.dropped;
    deg.corrupted_frames = decoder.corrupted_frames;

    println!("\nFig 7r: fail-closed degradation under a hostile replay");
    println!("  faults injected     {}", injector.stats().total());
    println!("  wire bytes skipped  {}", decoder.skipped_bytes);
    println!("  engine errors       {engine_errors}");
    println!("  {deg}");
    println!(
        "  released {} of {} tuples; total refused (fail-closed): {}",
        exec.sink(sink).tuple_count(),
        workload.tuples,
        deg.total_dropped(),
    );

    recovery_report();
}

/// Fastest of three runs of `f` — one-shot wall timings are noisy.
fn time_best_of_3(mut f: impl FnMut()) -> std::time::Duration {
    (0..3)
        .map(|_| {
            let start = std::time::Instant::now();
            f();
            start.elapsed()
        })
        .min()
        .expect("three runs")
}

/// Crash-recovery degradation: the Fig. 7 workload under a crash
/// supervisor that loses the whole pipeline at three separate points, and
/// the wall-clock cost of checkpointing at the default epoch interval.
fn recovery_report() {
    let catalog = catalog(128);
    let workload = fig7_workload(10, 3, 0.5, 42);
    let input: Vec<(StreamId, sp_core::StreamElement)> =
        workload.elements.iter().map(|e| (workload.stream, e.clone())).collect();
    let stream = workload.stream;
    let schema = &workload.schema;
    let build_with_sink = || {
        let mut b = PlanBuilder::new(catalog.clone());
        let src = b.source(stream, schema.clone());
        b.harden_source(src, QuarantinePolicy { ttl_ms: 40, slack_ms: 100, capacity: 1_024 });
        let ss = b.add(SecurityShield::new(RoleSet::from([0])), src);
        let sink = b.sink(ss);
        (b, sink)
    };
    let builder = || build_with_sink().0;
    // SinkRefs are positional, so one taken from an identically-built plan
    // addresses the same sink in every builder() executor.
    let (_, sink) = build_with_sink();
    let cfg = SupervisorConfig::default();

    // Checkpoint overhead: the same uninterrupted run with and without a
    // supervisor cutting epochs at the default interval.
    let plain = time_best_of_3(|| {
        let mut exec = builder().build();
        for (s, e) in &input {
            let _ = exec.push(*s, e.clone());
        }
        let _ = exec.finish();
    });
    let supervised = time_best_of_3(|| {
        let mut store = MemStore::default();
        let _ = run_supervised(builder, &input, &cfg, &mut store, &mut |_, _| false);
    });
    let overhead =
        (supervised.as_secs_f64() - plain.as_secs_f64()) / plain.as_secs_f64().max(1e-9) * 100.0;

    // Crash recovery: kill the pipeline at three spread-out positions;
    // each death drops the live executor and restores the last durable
    // checkpoint, replaying the epoch's input from the source log.
    let len = input.len() as u64;
    let mut pending = vec![len / 4, len / 2, 3 * len / 4];
    let mut oracle = move |_e: u64, p: u64| {
        if pending.first().is_some_and(|&k| p == k) {
            pending.remove(0);
            return true;
        }
        false
    };
    let mut store = MemStore::default();
    let mut run = run_supervised(builder, &input, &cfg, &mut store, &mut oracle)
        .expect("in-memory store never fails");
    let deg = run.degradation();

    println!("\nFig 7r: crash recovery under supervision (3 injected kills)");
    println!("  run completed       {}", run.completed());
    println!(
        "  released            {} of {} tuples",
        run.executor.sink(sink).tuple_count(),
        workload.tuples
    );
    println!("  {deg}");
    println!(
        "  checkpoint overhead {overhead:.1}% at epoch interval {} (target < 10%)",
        cfg.epoch_interval
    );
    let row = |metric: &'static str, measured: f64| Row {
        experiment: "fig7r",
        param: "recovery",
        value: "3-kills".into(),
        series: "supervised".into(),
        metric,
        measured,
    };
    log_rows(&[
        row("checkpoint_overhead_pct", overhead),
        row("checkpoints_taken", deg.checkpoints_taken as f64),
        row("checkpoints_restored", deg.checkpoints_restored as f64),
        row("epochs_replayed", deg.epochs_replayed as f64),
        row("recovery_dropped", deg.recovery_dropped as f64),
        row("restart_attempts", deg.restart_attempts as f64),
        // Overload counters ride along so the report shape matches the
        // fig10 sweep; this plan has no shedder or admission control, so
        // nonzero values here would flag a regression.
        row("shed_tuples", deg.shed_tuples as f64),
        row("admission_rejected", deg.admission_rejected as f64),
        row("overload_peak", deg.overload_peak as f64),
    ]);
}

/// Figures 7a (output rate) and 7b (processing cost per tuple).
fn ratio_sweep(output_rate: bool) {
    let catalog = catalog(128);
    let mut table = Vec::new();
    let mut rows = Vec::new();
    let mut header: Vec<&str> = vec!["sp:tuple"];
    let mut names_done = false;
    for ratio in RATIOS {
        let workload = fig7_workload(ratio, 3, 0.5, 42 + ratio as u64);
        let mut line = vec![format!("1/{ratio}")];
        for idx in 0..3usize {
            let run = best_of_3(&catalog, &workload, idx);
            if !names_done {
                header.push(match run.name {
                    "store-and-probe" => "store-probe",
                    "tuple-embedded" => "tuple-embed",
                    other => other,
                });
            }
            let measured = if output_rate {
                // tuples processed per millisecond of mechanism time
                workload.tuples as f64 / run.elapsed.as_secs_f64().max(1e-9) / 1000.0
            } else {
                us_per(run.elapsed, workload.tuples as u64)
            };
            line.push(format!("{measured:.2}"));
            rows.push(Row {
                experiment: if output_rate { "fig7a" } else { "fig7b" },
                param: "sp_ratio",
                value: format!("1/{ratio}"),
                series: run.name.to_owned(),
                metric: if output_rate { "tuples_per_ms" } else { "us_per_tuple" },
                measured,
            });
        }
        names_done = true;
        table.push(line);
    }
    let title = if output_rate {
        "Fig 7a: output rate (tuples/ms) vs sp:tuple ratio"
    } else {
        "Fig 7b: processing cost per tuple (µs) vs sp:tuple ratio"
    };
    print_table(title, &header, &table);
    log_rows(&rows);
}

/// Figures 7c (memory) and 7d (processing cost per 100 tuples).
fn policy_size_sweep(memory: bool) {
    let catalog = catalog(128);
    let mut table = Vec::new();
    let mut rows = Vec::new();
    let mut header: Vec<&str> = vec!["|R|"];
    let mut names_done = false;
    for size in POLICY_SIZES {
        let workload = fig7_workload(MEM_RATIO, size, 0.5, 99 + u64::from(size));
        let mut line = vec![format!("{size}")];
        for idx in 0..3usize {
            let run = best_of_3(&catalog, &workload, idx);
            if !names_done {
                header.push(match run.name {
                    "store-and-probe" => "store-probe",
                    "tuple-embedded" => "tuple-embed",
                    other => other,
                });
            }
            let measured = if memory {
                run.policy_mem as f64 / 1024.0
            } else {
                us_per(run.elapsed, workload.tuples as u64) * 100.0
            };
            line.push(format!("{measured:.1}"));
            rows.push(Row {
                experiment: if memory { "fig7c" } else { "fig7d" },
                param: "policy_size",
                value: size.to_string(),
                series: run.name.to_owned(),
                metric: if memory { "policy_kb" } else { "us_per_100_tuples" },
                measured,
            });
        }
        names_done = true;
        table.push(line);
    }
    let title = if memory {
        "Fig 7c: policy memory (KB) vs policy size |R| (sp:tuple = 1/10)"
    } else {
        "Fig 7d: processing cost per 100 tuples (µs) vs policy size |R|"
    };
    print_table(title, &header, &table);
    log_rows(&rows);
}
