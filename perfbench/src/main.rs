//! Seeded end-to-end and per-layer benchmark of the tenant path.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <steady-shield|policy-churn|front-door> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Inputs are generated from the seed before any timing. The run then
//! repeats passes over them for `--seconds`, checks every pass's output
//! against a tuple-at-a-time reference, and prints one JSON line last:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics of
//! traced passes with `--trace 1`. See `perfbench/README.md`.

mod frontdoor;
mod inproc;
mod stats;
mod tenant;
mod trace;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use inproc::Tally;
use stats::{median, vm_kb, Tail};
use tenant::{generate, reference, Input, Kind, Reference, SHARD_WIDTH};

/// End-to-end metrics (reported with `--trace 0`).
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("tuples_per_s", "1/s"),
    ("ack_p50_us", "us"),
    ("state_kb", "KiB"),
    ("rss_growth_mb", "MiB"),
];

/// Per-layer metrics (reported with `--trace 1`); a layer a workload
/// bypasses reports 0.
const PER_LAYER: [(&str, &str); 45] = [
    ("query.submit_ms", "ms"),
    ("query.start_ms", "ms"),
    ("analyzer.ns_per_elem", "ns"),
    ("analyzer.share", "ratio"),
    ("analyzer.sps_in", "count"),
    ("ops.select.ns_per_tuple", "ns"),
    ("ops.shield.ns_per_tuple", "ns"),
    ("ops.project.ns_per_tuple", "ns"),
    ("ops.sink.ns_per_tuple", "ns"),
    ("ops.shield.pass_ratio", "ratio"),
    ("ops.sps_forwarded", "count"),
    ("plan.self_ns_per_elem", "ns"),
    ("plan.queue_depth_p99", "count"),
    ("telemetry.overhead_frac", "ratio"),
    ("telemetry.off_tuples_per_s", "1/s"),
    ("telemetry.audit_records", "count"),
    ("telemetry.audit_evicted", "count"),
    ("telemetry.span_records", "count"),
    ("shard.exchange_ns_per_elem", "ns"),
    ("shard.speedup_vs_executor", "ratio"),
    ("shard.sharded_tuples_per_s", "1/s"),
    ("shard.sync_ms", "ms"),
    ("shard.routed_skew", "ratio"),
    ("shard.broadcast", "count"),
    ("checkpoint.ms_per_cut", "ms"),
    ("checkpoint.bytes", "bytes"),
    ("checkpoint.cuts", "count"),
    ("wire.encode_ns_per_frame", "ns"),
    ("wire.decode_ns_per_frame", "ns"),
    ("wire.bytes_per_tuple", "bytes"),
    ("server.frame_handle_p50_us", "us"),
    ("server.frame_handle_p99_us", "us"),
    ("server.transport_us", "us"),
    ("server.frames", "count"),
    ("server.overload_replies", "count"),
    ("replication.commits_applied", "count"),
    ("replication.lag_epochs_end", "count"),
    ("replication.apply_failures", "count"),
    ("unaccounted.frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("trace.untraced_tuples_per_s", "1/s"),
    ("trace.traced_tuples_per_s", "1/s"),
    ("trace.layer_sum_error", "ratio"),
    ("ack.p99_us", "us"),
    ("ack.samples", "count"),
];

/// Passes a run makes at least, whatever `--seconds` says.
const MIN_PASSES: usize = 3;

/// Spans written to `perfbench/out/` at the end of a traced run.
const SPAN_FILE_CAP: usize = 50_000;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad seconds {value}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// A run's outcome: the JSON line's fields.
struct Outcome {
    tally: Tally,
    metrics: BTreeMap<&'static str, f64>,
}

fn json(o: &Outcome, units: &[(&'static str, &'static str)]) -> String {
    let fields: Vec<String> = units
        .iter()
        .map(|(name, unit)| {
            let v = o.metrics.get(name).copied().unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.tally.failed == 0,
        o.tally.attempted,
        o.tally.failed,
        fields.join(", ")
    )
}

/// The frame count and median per-pass tail of a run, in µs.
fn latency_line(tails: &[Tail]) -> String {
    let q = |f: fn(&Tail) -> f64| median(&tails.iter().map(f).collect::<Vec<_>>()) / 1e3;
    format!(
        "{} frames timed; median per-pass p50 {:.1} p90 {:.1} p99 {:.1} p99.9 {:.1} us",
        tails.iter().map(|t| t.frames).sum::<usize>(),
        q(|t| t.p50),
        q(|t| t.p90),
        q(|t| t.p99),
        q(|t| t.p999)
    )
}

/// Pins a single-threaded pass to CPU `k mod n`, so a run's passes
/// alternate between the host's cores. On a shared host each core's
/// speed drifts on its own over seconds; alternating makes a run sample
/// every core instead of the one the scheduler happened to pick.
/// Multi-threaded passes stay unpinned. Dropping the guard unpins.
struct Pin(Option<u64>);

impl Pin {
    fn pass(shards: usize, k: usize) -> Pin {
        let allowed = if shards <= 1 { stats::thread_cpus() } else { None };
        let Some(allowed) = allowed.filter(|m| m.count_ones() > 1) else { return Pin(None) };
        let cpus: Vec<u32> = (0..64).filter(|i| allowed >> i & 1 == 1).collect();
        Pin(stats::pin_thread(1 << cpus[k % cpus.len()]).then_some(allowed))
    }
}

impl Drop for Pin {
    fn drop(&mut self) {
        if let Some(allowed) = self.0 {
            stats::pin_thread(allowed);
        }
    }
}

fn until(deadline: Instant, passes: usize) -> bool {
    Instant::now() < deadline || passes < MIN_PASSES
}

fn run_inproc(args: &Args, inputs: &[Input], refs: &[Reference], rss0: u64, out: &mut Outcome) {
    let (input, reference) = (&inputs[0], &refs[0]);
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let tally = &mut out.tally;
    let m = &mut out.metrics;
    if !args.trace {
        let mut samples = Vec::new();
        while until(deadline, samples.len()) {
            let _pin = Pin::pass(0, samples.len());
            samples.push(inproc::untraced_pass(input, reference, 0, true, tally));
        }
        let hwm = vm_kb("VmHWM:").unwrap_or(0);
        let pick =
            |f: fn(&inproc::Sample) -> f64| median(&samples.iter().map(f).collect::<Vec<_>>());
        let setups: Vec<f64> = samples.iter().flat_map(|s| s.setup_s.iter().copied()).collect();
        m.insert("setup_s", median(&setups));
        m.insert("tuples_per_s", pick(|s| s.tuples_per_s));
        m.insert("ack_p50_us", pick(|s| s.frames.p50) / 1e3);
        m.insert("state_kb", pick(|s| s.state_bytes as f64) / 1024.0);
        m.insert("rss_growth_mb", hwm.saturating_sub(rss0) as f64 / 1024.0);
        let tails: Vec<Tail> = samples.iter().map(|s| s.frames).collect();
        eprintln!("  passes {}, {}", samples.len(), latency_line(&tails));
        return;
    }
    // Interleave untraced (telemetry on), traced and telemetry-off passes
    // and, on steady-shield, sharded passes over the same input, so drift
    // hits all of them alike.
    let cycle = if args.kind == Kind::SteadyShield { 4 } else { 3 };
    let (mut on, mut off, mut sharded, mut traced) = (vec![], vec![], vec![], vec![]);
    // Only the last traced pass's spans are kept: each pass makes ~300k.
    let mut last_spans = Vec::new();
    let mut k = 0;
    while until(deadline, k / cycle) {
        let shards = if k % cycle == 3 { SHARD_WIDTH } else { 0 };
        let _pin = Pin::pass(shards, k / cycle);
        match k % cycle {
            0 => on.push(inproc::untraced_pass(input, reference, 0, true, tally)),
            1 => {
                let mut pass = inproc::traced_pass(input, reference, tally);
                last_spans = std::mem::take(&mut pass.spans);
                traced.push(pass);
            }
            2 => off.push(inproc::untraced_pass(input, reference, 0, false, tally)),
            _ => sharded.push(inproc::untraced_pass(input, reference, shards, true, tally)),
        }
        k += 1;
    }
    let med = |v: &[inproc::Sample], f: fn(&inproc::Sample) -> f64| {
        median(&v.iter().map(f).collect::<Vec<_>>())
    };
    let tpps = |v: &[inproc::Sample]| med(v, |s| s.tuples_per_s);
    let tables: Vec<_> = traced.iter().map(|t| t.table.clone()).collect();
    let layer_metrics: Vec<_> = traced.iter().map(|t| t.metrics.clone()).collect();
    report_traced(
        args,
        tally,
        m,
        &tables,
        &layer_metrics,
        traced.iter().map(|t| t.tuples_per_s).collect(),
    );
    m.insert("trace.untraced_tuples_per_s", tpps(&on));
    m.insert("trace.overhead_frac", tpps(&on) / m["trace.traced_tuples_per_s"] - 1.0);
    m.insert("telemetry.off_tuples_per_s", tpps(&off));
    m.insert("telemetry.overhead_frac", tpps(&off) / tpps(&on) - 1.0);
    m.insert("ack.samples", on.iter().map(|s| s.frames.frames as f64).sum());
    m.insert("ack.p99_us", med(&on, |s| s.frames.p99) / 1e3);
    if let Some(last) = sharded.last() {
        let exchange = med(&sharded, |s| s.wall_s) - med(&on, |s| s.wall_s);
        m.insert("shard.exchange_ns_per_elem", exchange * 1e9 / input.elements.len() as f64);
        m.insert("shard.speedup_vs_executor", tpps(&sharded) / tpps(&on));
        m.insert("shard.sharded_tuples_per_s", tpps(&sharded));
        m.insert("shard.sync_ms", med(&sharded, |s| s.sync_s) * 1e3);
        if let Some(reg) = &last.metrics {
            let (skew, broadcast) = inproc::shard_counters(reg, SHARD_WIDTH);
            m.insert("shard.routed_skew", skew);
            m.insert("shard.broadcast", broadcast);
        }
    }
    write_spans(args, &last_spans);
}

fn run_front_door(args: &Args, inputs: &[Input], refs: &[Reference], rss0: u64, out: &mut Outcome) {
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let tally = &mut out.tally;
    let m = &mut out.metrics;
    if !args.trace {
        let mut passes = Vec::new();
        while until(deadline, passes.len()) {
            passes.push(frontdoor::pass(inputs, refs, true, None, tally).0);
        }
        let hwm = vm_kb("VmHWM:").unwrap_or(0);
        let pick =
            |f: fn(&frontdoor::Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
        m.insert("setup_s", pick(|p| p.setup_s));
        m.insert("tuples_per_s", pick(|p| p.tuples_per_s));
        m.insert("ack_p50_us", pick(|p| p.acks.p50) / 1e3);
        m.insert("state_kb", pick(|p| p.state_bytes as f64) / 1024.0);
        m.insert("rss_growth_mb", hwm.saturating_sub(rss0) as f64 / 1024.0);
        let tails: Vec<Tail> = passes.iter().map(|p| p.acks).collect();
        eprintln!("  passes {}, {}", passes.len(), latency_line(&tails));
        return;
    }
    let (mut on, mut off, mut tables, mut layer_metrics, mut traced_tpps) =
        (vec![], vec![], vec![], vec![], vec![]);
    let mut last_spans = Vec::new();
    let mut k = 0;
    while until(deadline, k / 3) {
        match k % 3 {
            0 => on.push(frontdoor::pass(inputs, refs, true, None, tally).0),
            1 => {
                let tracer = trace::Tracer::new();
                let (p, clients) = frontdoor::pass(inputs, refs, true, Some(&tracer), tally);
                let (table, metrics, spans) = frontdoor::traced_layers(inputs, &p, &clients, tally);
                traced_tpps.push(p.tuples_per_s);
                tables.push(table);
                layer_metrics.push(metrics);
                last_spans = spans;
            }
            _ => off.push(frontdoor::pass(inputs, refs, false, None, tally).0.tuples_per_s),
        }
        k += 1;
    }
    report_traced(args, tally, m, &tables, &layer_metrics, traced_tpps);
    let on_tpps = median(&on.iter().map(|p| p.tuples_per_s).collect::<Vec<_>>());
    m.insert("trace.untraced_tuples_per_s", on_tpps);
    m.insert("trace.overhead_frac", on_tpps / m["trace.traced_tuples_per_s"] - 1.0);
    m.insert("telemetry.off_tuples_per_s", median(&off));
    m.insert("telemetry.overhead_frac", median(&off) / on_tpps - 1.0);
    m.insert("ack.samples", m["server.frames"]);
    m.insert("ack.p99_us", median(&on.iter().map(|p| p.acks.p99).collect::<Vec<_>>()) / 1e3);
    write_spans(args, &last_spans);
}

/// Medians of the traced passes' per-layer metrics, the layer-sum
/// check on every traced pass, and the last pass's table on stderr.
fn report_traced(
    args: &Args,
    tally: &mut Tally,
    m: &mut BTreeMap<&'static str, f64>,
    tables: &[trace::LayerTable],
    layer_metrics: &[Vec<(&'static str, f64)>],
    traced_tpps: Vec<f64>,
) {
    for (name, _) in PER_LAYER {
        let vals: Vec<f64> = layer_metrics
            .iter()
            .filter_map(|ms| ms.iter().find(|(n, _)| *n == name).map(|(_, v)| *v))
            .collect();
        if !vals.is_empty() {
            m.insert(name, median(&vals));
        }
    }
    let mut errs = Vec::new();
    for t in tables {
        if let Err(e) = t.check() {
            tally.fail(1, format!("layer-sum check: {e}"));
        }
        errs.push(t.sum_error());
    }
    m.insert("trace.layer_sum_error", median(&errs));
    m.insert(
        "unaccounted.frac",
        median(&tables.iter().map(|t| t.unaccounted_ns() / t.wall_ns).collect::<Vec<_>>()),
    );
    m.insert("trace.traced_tuples_per_s", median(&traced_tpps));
    if let Some(t) = tables.last() {
        eprintln!(
            "per-layer table ({}, seed {}, last traced pass):\n{}",
            args.kind.name(),
            args.seed,
            t.render()
        );
    }
}

fn write_spans(args: &Args, spans: &[trace::Span]) {
    let path = std::path::PathBuf::from(format!(
        "perfbench/out/spans-{}-{}.tsv",
        args.kind.name(),
        args.seed
    ));
    match trace::write_spans(&path, spans, SPAN_FILE_CAP) {
        Ok(()) => eprintln!(
            "  wrote {} of {} spans to {}",
            spans.len().min(SPAN_FILE_CAP),
            spans.len(),
            path.display()
        ),
        Err(e) => eprintln!("  could not write spans to {}: {e}", path.display()),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\nusage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let inputs: Vec<Input> =
        (0..args.kind.tenants()).map(|t| generate(args.kind, args.seed, t)).collect();
    let rss0 = vm_kb("VmRSS:").unwrap_or(0);
    let refs: Vec<Reference> = inputs.iter().map(reference).collect();
    eprintln!(
        "{}: seed {}, {} tenant(s) x {} elements ({} tuples, {} sps), {} s, trace {}",
        args.kind.name(),
        args.seed,
        inputs.len(),
        inputs[0].elements.len(),
        inputs[0].tuples,
        inputs[0].sps,
        args.seconds,
        u8::from(args.trace)
    );
    let mut out = Outcome { tally: Tally::default(), metrics: BTreeMap::new() };
    match args.kind {
        Kind::FrontDoor => run_front_door(&args, &inputs, &refs, rss0, &mut out),
        _ => run_inproc(&args, &inputs, &refs, rss0, &mut out),
    }
    let units: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for (name, unit) in units {
        eprintln!("  {name:<30} {:>16.4} {unit}", out.metrics.get(name).copied().unwrap_or(0.0));
    }
    let failed_frac = out.tally.failed as f64 / out.tally.attempted.max(1) as f64;
    eprintln!("  failed_frac {failed_frac} ({} of {})", out.tally.failed, out.tally.attempted);
    for note in &out.tally.notes {
        eprintln!("  FAILED: {note}");
    }
    println!("{}", json(&out, units));
    if out.tally.failed > 0 {
        std::process::exit(1);
    }
}
