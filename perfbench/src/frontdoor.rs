//! The front-door workload: two closed-loop clients on loopback TCP, each
//! its own tenant on one connection, sending 64-element frames and
//! waiting for each `Ack`; tenants checkpoint every 32 frames (the
//! `sp-server` binary's cadence) and ship to an in-process `Standby`.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sp_core::wire::{Control, Message, StreamDecoder, WireFrame};
use sp_engine::CheckpointStore;
use sp_server::{Server, ServerConfig, SessionFactory, Standby, StoreMap, TenantReport};

use crate::inproc::{analyzer_twin, engine_layers, sink_twin, traced_pushes, EngineState, Tally};
use crate::stats::Tail;
use crate::tenant::{
    mirror_plan, tenant_dsms, Digest, Input, Reference, SizingStore, FRAME_ELEMENTS,
};
use crate::trace::{aggregate, now_ns, LayerTable, Row, Span, Tracer};

/// The `sp-server` binary's checkpoint cadence.
pub const CHECKPOINT_EVERY_FRAMES: u64 = 32;

/// How long a client waits for one reply before counting the frame unacked.
const REPLY_DEADLINE: Duration = Duration::from_secs(10);

fn factory(telemetry: bool) -> SessionFactory {
    Arc::new(move |tenant| tenant_dsms(tenant, 0, telemetry))
}

/// Reads until one control frame decodes; `None` on EOF, error or timeout.
fn read_ctrl(stream: &mut TcpStream, dec: &mut StreamDecoder) -> Option<Control> {
    let mut buf = [0u8; 4096];
    loop {
        let n = stream.read(&mut buf).ok().filter(|&n| n > 0)?;
        if let Some(c) = dec.feed(&buf[..n]).into_iter().find_map(|f| match f {
            WireFrame::Control(c) => Some(c),
            _ => None,
        }) {
            return Some(c);
        }
    }
}

/// What one client saw.
#[derive(Default)]
pub struct ClientOut {
    /// Per frame: send → `Ack`.
    pub ack_ns: Vec<f64>,
    /// First frame's encode start to last frame's `Ack`.
    pub start: u64,
    pub end: u64,
    pub bytes: u64,
    pub overloads: u64,
    /// Elements sent but never acknowledged at the expected position.
    pub unacked: u64,
    /// The bytes of every frame (traced passes only, for the replay).
    pub frames: Vec<Vec<u8>>,
    pub spans: Vec<Span>,
}

fn client(mut stream: TcpStream, tenant: u32, input: &Input, tracer: Option<&Tracer>) -> ClientOut {
    let mut out = ClientOut { start: now_ns(), ..ClientOut::default() };
    let mut dec = StreamDecoder::new(1 << 20);
    let mut acked = 0u64;
    for (f, frame) in input.elements.chunks(FRAME_ELEMENTS).enumerate() {
        let f0 = now_ns();
        let bytes = Message::new(input.stream, frame.to_vec()).encode_to_vec();
        let f1 = now_ns();
        let reply = match stream.write_all(&bytes) {
            Ok(()) => read_ctrl(&mut stream, &mut dec),
            Err(_) => None,
        };
        let f2 = now_ns();
        out.bytes += bytes.len() as u64;
        let want = acked + frame.len() as u64;
        match reply {
            Some(Control::Ack { pos }) if pos == want => acked = pos,
            Some(Control::Overloaded { .. }) => {
                out.overloads += 1;
                break;
            }
            _ => break,
        }
        out.ack_ns.push((f2 - f1) as f64);
        if let Some(t) = tracer {
            let trace = (u64::from(tenant) << 32) | f as u64;
            let items = frame.len() as u32;
            let id = t
                .record(&mut out.spans, Span { items, ..Span::new("client.frame", trace, f0, f2) });
            for (name, start, end) in [("wire.encode", f0, f1), ("ack.wait", f1, f2)] {
                t.record(
                    &mut out.spans,
                    Span { parent: id, items, ..Span::new(name, trace, start, end) },
                );
            }
            out.frames.push(bytes);
        }
    }
    out.end = now_ns();
    // A missing, refused or misplaced `Ack` fails the rest of the input.
    out.unacked = (input.elements.len() as u64).saturating_sub(acked);
    out
}

/// One front-door pass's results.
pub struct Pass {
    pub setup_s: f64,
    pub tuples_per_s: f64,
    /// Both clients' send → `Ack` latencies.
    pub acks: Tail,
    pub state_bytes: usize,
    pub frame_handle_p50_us: f64,
    pub frame_handle_p99_us: f64,
    pub frames: u64,
    pub checkpoints: u64,
    pub commits_applied: u64,
    pub lag_epochs_end: u64,
    pub apply_failures: u64,
}

/// Checks one tenant of a pass: every element acknowledged, zero sp
/// loss, an exactly-once cursor, and released tuples equal to the
/// in-process reference.
pub fn check_tenant(
    tally: &mut Tally,
    tenant: u32,
    input: &Input,
    reference: &Reference,
    client: &ClientOut,
    report: Option<&TenantReport>,
) {
    tally.attempted += input.elements.len() as u64;
    if client.unacked > 0 {
        tally.fail(client.unacked, format!("tenant {tenant}: {} elements unacked", client.unacked));
    }
    let Some(t) = report else {
        tally.fail(1, format!("tenant {tenant}: no report"));
        return;
    };
    if t.sps_ingested != input.sps as u64 {
        tally.fail(1, format!("tenant {tenant}: {} of {} sps ingested", t.sps_ingested, input.sps));
    }
    if t.input_pos != input.elements.len() as u64 {
        let n = input.elements.len();
        tally.fail(1, format!("tenant {tenant}: cursor {} != input {n}", t.input_pos));
    }
    if t.quarantined {
        tally.fail(1, format!("tenant {tenant}: quarantined"));
    }
    let released = t.released.first().map(|(_, r)| r.as_slice()).unwrap_or_default();
    let got = Digest::of_strings(released.iter().map(String::as_str));
    tally.check_released(&format!("tenant {tenant}"), got, reference.digest);
}

/// Starts a standby and a replicating server, connects one client per
/// tenant, streams every tenant's input closed-loop, stops, and checks
/// each tenant's report against its reference. Returns the pass and what
/// each client saw.
pub fn pass(
    inputs: &[Input],
    refs: &[Reference],
    telemetry: bool,
    tracer: Option<&Tracer>,
    tally: &mut Tally,
) -> (Pass, Vec<ClientOut>) {
    let t0 = Instant::now();
    let standby =
        Standby::start(factory(telemetry), StoreMap::new(), false).expect("standby binds");
    let stores = StoreMap::new();
    let cfg = ServerConfig {
        checkpoint_every_frames: CHECKPOINT_EVERY_FRAMES,
        replicate_to: Some(standby.repl_addr),
        ..ServerConfig::default()
    };
    let server = Server::start(cfg, factory(telemetry), stores.clone()).expect("server binds");
    let mut conns = Vec::new();
    for tenant in 0..inputs.len() as u32 {
        let mut s = TcpStream::connect(server.addr).expect("loopback connect");
        s.set_nodelay(true).expect("nodelay");
        s.set_read_timeout(Some(REPLY_DEADLINE)).expect("read timeout");
        s.write_all(&Control::Hello { tenant, acked: 0 }.encode_to_vec()).expect("hello");
        let mut dec = StreamDecoder::new(1 << 20);
        match read_ctrl(&mut s, &mut dec) {
            Some(Control::HelloAck { resume_from: 0 }) => {}
            other => panic!("tenant {tenant}: expected a fresh HelloAck, got {other:?}"),
        }
        conns.push(s);
    }
    let setup_s = t0.elapsed().as_secs_f64();

    let clients: Vec<ClientOut> = std::thread::scope(|scope| {
        let joins: Vec<_> = conns
            .into_iter()
            .zip(inputs)
            .enumerate()
            .map(|(t, (s, input))| scope.spawn(move || client(s, t as u32, input, tracer)))
            .collect();
        joins.into_iter().map(|j| j.join().expect("client thread")).collect()
    });
    let first = clients.iter().map(|c| c.start).min().unwrap_or(0);
    let last = clients.iter().map(|c| c.end).max().unwrap_or(0);
    let tuples: usize = inputs.iter().map(|i| i.tuples).sum();

    // Every tenant's live report, then a hard stop: a graceful drain
    // would first wait for the shipper to work off its whole queue,
    // which teardown does not need to measure.
    let lag_epochs_end = standby.lag_epochs().iter().map(|(_, l)| l).sum();
    let reports: Vec<_> = (0..inputs.len() as u32).map(|t| server.tenant_report(t)).collect();
    let report = server.kill();
    let sheet = standby.span_sheet();
    let commits_applied = sheet.len() as u64 + sheet.evicted();
    let apply_failures = standby.apply_failures();
    standby.stop();

    let mut state_bytes = 0;
    let mut checkpoints = 0;
    for (tenant, ((input, reference), c)) in inputs.iter().zip(refs).zip(&clients).enumerate() {
        let report = reports[tenant].as_ref();
        check_tenant(tally, tenant as u32, input, reference, c, report);
        let store = stores.store(tenant as u32);
        state_bytes += store.load_latest().map_or(0, |c| c.encode_to_vec().len());
        checkpoints += report.map_or(0, |t| t.checkpoints_taken);
    }
    let acks: Vec<f64> = clients.iter().flat_map(|c| c.ack_ns.iter().copied()).collect();
    let pass = Pass {
        setup_s,
        tuples_per_s: tuples as f64 / ((last - first) as f64 / 1e9),
        acks: Tail::of(&acks),
        state_bytes,
        frame_handle_p50_us: report.latency.percentile(50.0) as f64,
        frame_handle_p99_us: report.latency.percentile(99.0) as f64,
        frames: report.frames,
        checkpoints,
        commits_applied,
        lag_epochs_end,
        apply_failures,
    };
    (pass, clients)
}

/// The per-layer table of a traced front-door pass.
///
/// The client spans (encode, then the wait for the `Ack`) are measured
/// live. The server's share of each wait is taken by replaying the bytes
/// each tenant sent, in process and untraced, through the calls its
/// worker makes: `StreamDecoder::feed`, `RunningDsms::try_push` per
/// element, and `checkpoint_to` every 32 frames. What remains of the
/// wait is transport: socket hops, the connection thread, the worker
/// queue and the reply. A second replay with operator spans and the
/// analyzer and sink twins splits the engine's time; its rows stay off
/// the wall-time sum, because tracing every operator call inflates them.
pub fn traced_layers(
    inputs: &[Input],
    p: &Pass,
    clients: &[ClientOut],
    tally: &mut Tally,
) -> (LayerTable, Vec<(&'static str, f64)>, Vec<Span>) {
    let rt = Tracer::new();
    let mut replay: Vec<Span> = Vec::new();
    let (mut submit_ns, mut start_ns, mut cut_bytes) = (0u64, 0u64, 0usize);
    for (tenant, c) in clients.iter().enumerate() {
        let t0 = now_ns();
        let dsms = tenant_dsms(tenant as u32, 0, true);
        let t1 = now_ns();
        let mut running = dsms.try_start().expect("tenant session starts");
        submit_ns += t1 - t0;
        start_ns += now_ns() - t1;
        let mut dec = StreamDecoder::new(1 << 20);
        let mut epoch = 0;
        for (f, bytes) in c.frames.iter().enumerate() {
            let trace = ((tenant as u64) << 32) | f as u64;
            let d0 = now_ns();
            let decoded = dec.feed(bytes);
            let d1 = now_ns();
            let mut refused = 0;
            for frame in decoded {
                let WireFrame::Message(m) = frame else { continue };
                for e in m.elements {
                    refused += u64::from(running.try_push(m.stream, e).is_err());
                }
            }
            let d2 = now_ns();
            if refused > 0 {
                tally.fail(refused, format!("replay: tenant {tenant} refused {refused} elements"));
            }
            rt.record(&mut replay, Span::new("wire.decode", trace, d0, d1));
            rt.record(&mut replay, Span::new("query.push", trace, d1, d2));
            if (f as u64 + 1).is_multiple_of(CHECKPOINT_EVERY_FRAMES) {
                epoch += 1;
                let mut store = SizingStore::default();
                let c0 = now_ns();
                let cut = running.checkpoint_to(epoch, &mut store);
                rt.record(&mut replay, Span::new("checkpoint.cut", trace, c0, now_ns()));
                if cut.is_err() {
                    tally.fail(1, format!("replay: tenant {tenant} checkpoint failed"));
                }
                cut_bytes += store.bytes;
            }
        }
    }

    // The engine split: per-element pushes with operator spans, twins.
    let et = Tracer::new();
    let (mut pushes, mut twins) = (Vec::new(), Vec::new());
    let mut state: Option<EngineState> = None;
    for (tenant, input) in inputs.iter().enumerate() {
        let dsms = tenant_dsms(tenant as u32, 0, true);
        let (builder, sink) = mirror_plan(&dsms, Some(&et));
        let mut exec = builder.build();
        let refused = traced_pushes(&mut exec, input, &et, &mut pushes);
        if refused > 0 {
            tally.fail(
                refused,
                format!("engine replay: tenant {tenant} refused {refused} elements"),
            );
        }
        let st = EngineState::read(&exec, sink);
        drop(exec);
        analyzer_twin(&dsms, input, &et, &mut twins);
        sink_twin(&st.released, &et, &mut twins);
        match &mut state {
            Some(s) => s.absorb(st),
            None => state = Some(st),
        }
    }
    et.collect(&mut pushes);
    let pushes = et.take();
    let state = state.expect("front-door runs at least one tenant");

    let live: Vec<Span> = clients.iter().flat_map(|c| c.spans.iter().copied()).collect();
    let (l, r) = (aggregate(&live), aggregate(&replay));
    let dur = |m: &std::collections::BTreeMap<&str, crate::trace::Agg>, k: &str| {
        m.get(k).map_or(0.0, |a| a.dur as f64)
    };
    let frames = replay.iter().filter(|s| s.name == "wire.decode").count().max(1) as f64;
    let cut_ns = dur(&r, "checkpoint.cut");
    let replayed = dur(&r, "wire.decode") + dur(&r, "query.push") + cut_ns;
    // Per frame: the Ack wait minus the frame's replayed decode and
    // pushes and an even share of the cuts.
    let mut per_frame: std::collections::HashMap<u64, f64> = std::collections::HashMap::new();
    for s in replay.iter().filter(|s| s.name != "checkpoint.cut") {
        *per_frame.entry(s.trace).or_default() += s.dur() as f64;
    }
    let transport_us: Vec<f64> = live
        .iter()
        .filter(|s| s.name == "ack.wait")
        .map(|s| {
            (s.dur() as f64 - per_frame.get(&s.trace).copied().unwrap_or(0.0) - cut_ns / frames)
                / 1e3
        })
        .collect();

    let wall_ns: f64 = clients.iter().map(|c| (c.end - c.start) as f64).sum();
    let mut rows = vec![
        Row {
            layer: "client",
            self_ns: l.get("client.frame").map_or(0.0, |a| a.self_ns as f64),
            in_sum: true,
        },
        Row { layer: "wire.encode", self_ns: dur(&l, "wire.encode"), in_sum: true },
        Row { layer: "wire.decode", self_ns: dur(&r, "wire.decode"), in_sum: true },
        Row { layer: "query.push", self_ns: dur(&r, "query.push"), in_sum: true },
        Row { layer: "checkpoint", self_ns: cut_ns, in_sum: true },
        Row { layer: "server.transport", self_ns: dur(&l, "ack.wait") - replayed, in_sum: true },
    ];
    let (engine_rows, mut metrics) = engine_layers(&pushes, &twins, &state, inputs, wall_ns, false);
    rows.extend(engine_rows);
    let table = LayerTable { wall_ns, roots_ns: dur(&l, "client.frame"), rows };

    let tuples: f64 = inputs.iter().map(|i| i.tuples as f64).sum();
    let cuts = r.get("checkpoint.cut").map_or(0, |a| a.calls).max(1) as f64;
    metrics.extend([
        ("query.submit_ms", submit_ns as f64 / 1e6),
        ("query.start_ms", start_ns as f64 / 1e6),
        ("checkpoint.ms_per_cut", cut_ns / 1e6 / cuts),
        ("checkpoint.bytes", cut_bytes as f64 / cuts),
        ("checkpoint.cuts", p.checkpoints as f64),
        ("wire.encode_ns_per_frame", dur(&l, "wire.encode") / frames),
        ("wire.decode_ns_per_frame", dur(&r, "wire.decode") / frames),
        ("wire.bytes_per_tuple", clients.iter().map(|c| c.bytes as f64).sum::<f64>() / tuples),
        ("server.frame_handle_p50_us", p.frame_handle_p50_us),
        ("server.frame_handle_p99_us", p.frame_handle_p99_us),
        ("server.transport_us", crate::stats::median(&transport_us)),
        ("server.frames", p.frames as f64),
        ("server.overload_replies", clients.iter().map(|c| c.overloads as f64).sum()),
        ("replication.commits_applied", p.commits_applied as f64),
        ("replication.lag_epochs_end", p.lag_epochs_end as f64),
        ("replication.apply_failures", p.apply_failures as f64),
    ]);
    let mut spans = live;
    spans.extend(replay);
    (table, metrics, spans)
}

#[cfg(test)]
mod tests {
    use std::net::TcpListener;

    use super::*;
    use crate::tenant::{generate_ticks, reference, Kind};

    /// A stand-in server that acknowledges `acks` frames, then hangs up.
    fn flaky_server(acks: usize) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let join = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut dec = StreamDecoder::new(1 << 20);
            let (mut pos, mut buf) = (0u64, [0u8; 4096]);
            for _ in 0..acks {
                loop {
                    let n = s.read(&mut buf).unwrap();
                    let msgs: Vec<_> = dec.feed(&buf[..n]);
                    if let Some(WireFrame::Message(m)) = msgs.into_iter().next() {
                        pos += m.elements.len() as u64;
                        break;
                    }
                }
                s.write_all(&Control::Ack { pos }.encode_to_vec()).unwrap();
            }
        });
        (addr, join)
    }

    #[test]
    fn an_unacked_frame_raises_failed() {
        let input = generate_ticks(Kind::FrontDoor, 7, 0, 10);
        let reference = reference(&input);
        let (addr, server) = flaky_server(2);
        let out = client(TcpStream::connect(addr).unwrap(), 0, &input, None);
        server.join().unwrap();
        assert_eq!(out.unacked, (input.elements.len() - 2 * FRAME_ELEMENTS) as u64);

        // Everything else about the tenant is in order: the missing
        // acknowledgements alone must fail the pass.
        let report = TenantReport {
            tenant: 0,
            input_pos: input.elements.len() as u64,
            quarantined: false,
            quarantine_code: None,
            tuples_ingested: input.tuples as u64,
            sps_ingested: input.sps as u64,
            admission_rejected: 0,
            released: vec![(0, reference_strings(&input))],
            audit: Vec::new(),
            checkpoints_taken: 0,
            fenced_refused: 0,
            fence_audit: Vec::new(),
        };
        let mut tally = Tally::default();
        check_tenant(&mut tally, 0, &input, &reference, &ClientOut::default(), Some(&report));
        assert_eq!(tally.failed, 0, "{:?}", tally.notes);
        check_tenant(&mut tally, 0, &input, &reference, &out, Some(&report));
        assert_eq!(tally.failed, out.unacked);
    }

    fn reference_strings(input: &Input) -> Vec<String> {
        let dsms = tenant_dsms(0, 0, true);
        let mut running = dsms.try_start().unwrap();
        for e in &input.elements {
            running.try_push(input.stream, e.clone()).unwrap();
        }
        running.results(dsms.queries()[0].id).tuples().map(|t| t.to_string()).collect()
    }

    #[test]
    fn a_short_front_door_pass_is_correct_and_accounts_for_its_wall_time() {
        let inputs: Vec<Input> =
            (0..2).map(|t| generate_ticks(Kind::FrontDoor, 7, t, 40)).collect();
        let refs: Vec<Reference> = inputs.iter().map(reference).collect();
        let mut tally = Tally::default();
        let tracer = Tracer::new();
        let (p, clients) = pass(&inputs, &refs, true, Some(&tracer), &mut tally);
        let (table, _, _) = traced_layers(&inputs, &p, &clients, &mut tally);
        assert_eq!(tally.failed, 0, "{:?}", tally.notes);
        table.check().unwrap();
    }
}
