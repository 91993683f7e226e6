//! The tenant every workload runs: its generated input, its session
//! factory, a mirror of its physical plan, and the tuple-at-a-time
//! reference its released tuples are checked against.

use std::collections::HashMap;
use std::sync::Arc;

use sp_core::{StreamElement, StreamId, Tuple};
use sp_engine::{
    Checkpoint, CheckpointStore, EngineError, Executor, Operator, PlanBuilder, Project,
    SecurityShield, Select, SinkRef, TelemetryConfig, Upstream,
};
use sp_mog::{location_stream, MovingObjectSim, WorkloadConfig};
use sp_query::{Dsms, LogicalPlan};

use crate::trace::{Traced, Tracer};

/// The planner-shaped tenant query (scan → select → shield → project → sink).
pub const QUERY: &str = "SELECT obj_id, speed FROM LocationUpdates WHERE speed >= 5.0";

/// Elements per frame: the unit a front-door client sends and waits an
/// `Ack` for, and the unit in-process frame latency is timed over.
pub const FRAME_ELEMENTS: usize = 64;

/// Shard width of the sharded sessions that traced steady-shield runs
/// compare against the sequential executor.
pub const SHARD_WIDTH: usize = 2;

/// The workloads, by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    SteadyShield,
    PolicyChurn,
    FrontDoor,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::SteadyShield, Kind::PolicyChurn, Kind::FrontDoor];

    pub fn name(self) -> &'static str {
        match self {
            Kind::SteadyShield => "steady-shield",
            Kind::PolicyChurn => "policy-churn",
            Kind::FrontDoor => "front-door",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// Front-door tenants, one client connection each.
    pub fn tenants(self) -> u32 {
        if self == Kind::FrontDoor {
            2
        } else {
            1
        }
    }
}

/// One tenant's generated input. The program under test only ever sees
/// `elements`.
pub struct Input {
    pub stream: StreamId,
    pub elements: Vec<StreamElement>,
    pub tuples: usize,
    pub sps: usize,
}

/// Generates tenant `tenant`'s input for `kind` from `seed`.
///
/// steady-shield and front-door share one shape: scoped
/// sps at 1/50 with |R| = 3, so segments are long and mostly
/// same-policy. policy-churn puts a fresh |R| = 100 policy (out of 400
/// roles) ahead of every tuple.
pub fn generate(kind: Kind, seed: u64, tenant: u32) -> Input {
    let ticks = match kind {
        Kind::SteadyShield => 500,
        Kind::PolicyChurn => 200,
        Kind::FrontDoor => 250,
    };
    generate_ticks(kind, seed, tenant, ticks)
}

/// [`generate`] with 200 objects reporting for `ticks` ticks.
pub fn generate_ticks(kind: Kind, seed: u64, tenant: u32, ticks: usize) -> Input {
    let (sp_every, policy_roles, role_universe) = match kind {
        Kind::PolicyChurn => (1, 100, 400),
        _ => (50, 3, 100),
    };
    let w = location_stream(&WorkloadConfig {
        objects: 200,
        ticks,
        sp_every,
        policy_roles,
        role_universe,
        grant_selectivity: 0.5,
        scoped_sps: true,
        tick_ms: 50,
        burst: None,
        seed: seed.wrapping_mul(1_000_003).wrapping_add(u64::from(tenant)),
    });
    Input { stream: w.stream, elements: w.elements, tuples: w.tuples, sps: w.sps }
}

/// Registers the tenant's stream, role and subject and submits the query.
///
/// # Panics
///
/// Panics if the fixed tenant catalog fails to register, which would be
/// a bug in the program under test.
pub fn tenant_dsms(tenant: u32, shards: usize, telemetry: bool) -> Dsms {
    let mut dsms = Dsms::new();
    dsms.register_stream(StreamId(1), MovingObjectSim::location_schema())
        .expect("stream registers");
    dsms.register_role("analyst").expect("role registers");
    let subject = dsms
        .register_subject(&format!("tenant-{tenant}"), &["analyst"])
        .expect("subject registers");
    dsms.submit(QUERY, subject).expect("tenant query plans");
    dsms.telemetry = telemetry.then(TelemetryConfig::enabled);
    dsms.shards = shards;
    dsms
}

/// Builds the tenant's plan from its optimized logical plan exactly as
/// `Dsms::try_start` does, optionally wrapping every operator in a
/// [`Traced`] span recorder. The benchmark needs its own copy of the
/// plan because spans can only be taken around calls it makes itself.
pub fn mirror_plan(dsms: &Dsms, tracer: Option<&Tracer>) -> (PlanBuilder, SinkRef) {
    let mut builder = PlanBuilder::new(Arc::new(dsms.catalog.roles.clone()));
    let mut sources = HashMap::new();
    let plan = &dsms.queries()[0].plan;
    let root = instantiate(plan, &mut builder, &mut sources, dsms, tracer);
    let sink = builder.sink(root);
    if let Some(cfg) = dsms.telemetry {
        builder.enable_telemetry(cfg);
    }
    (builder, sink)
}

fn add(
    builder: &mut PlanBuilder,
    op: impl Operator + 'static,
    up: Upstream,
    tracer: Option<&Tracer>,
) -> Upstream {
    Upstream::Node(match tracer {
        Some(t) => builder.add(Traced::new(op, t), up),
        None => builder.add(op, up),
    })
}

fn instantiate(
    plan: &LogicalPlan,
    builder: &mut PlanBuilder,
    sources: &mut HashMap<StreamId, sp_engine::SourceRef>,
    dsms: &Dsms,
    tracer: Option<&Tracer>,
) -> Upstream {
    match plan {
        LogicalPlan::Scan { stream, schema, .. } => Upstream::Source(
            *sources.entry(*stream).or_insert_with(|| builder.source(*stream, schema.clone())),
        ),
        LogicalPlan::Shield { input, roles } => {
            let up = instantiate(input, builder, sources, dsms, tracer);
            let op = SecurityShield::new(roles.clone()).with_granularity(dsms.granularity);
            add(builder, op, up, tracer)
        }
        LogicalPlan::Select { input, predicate } => {
            let up = instantiate(input, builder, sources, dsms, tracer);
            add(builder, Select::new(predicate.clone()), up, tracer)
        }
        LogicalPlan::Project { input, indices } => {
            let up = instantiate(input, builder, sources, dsms, tracer);
            add(builder, Project::new(indices.clone()), up, tracer)
        }
        other => panic!("the tenant query plans only scan/select/shield/project, got {other:?}"),
    }
}

/// Order-sensitive digest of released tuples: FNV-1a over each tuple's
/// canonical text, the form `TenantReport::released` carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    pub hash: u64,
    pub count: u64,
}

impl Digest {
    pub fn of_strings<'a>(items: impl IntoIterator<Item = &'a str>) -> Digest {
        let mut d = Digest { hash: 0xcbf2_9ce4_8422_2325, count: 0 };
        for s in items {
            for b in s.bytes().chain(std::iter::once(b'\n')) {
                d.hash ^= u64::from(b);
                d.hash = d.hash.wrapping_mul(0x0100_0000_01b3);
            }
            d.count += 1;
        }
        d
    }

    pub fn of_tuples<'a>(tuples: impl IntoIterator<Item = &'a Arc<Tuple>>) -> Digest {
        let texts: Vec<String> = tuples.into_iter().map(|t| t.to_string()).collect();
        Digest::of_strings(texts.iter().map(String::as_str))
    }
}

/// What every pass of a workload must reproduce.
pub struct Reference {
    pub digest: Digest,
    /// The sequential session's audit trail bytes; sharded runs must
    /// match it byte for byte.
    pub audit: Vec<u8>,
}

/// Runs `input` tuple at a time through the tenant plan (no batch
/// coalescing, drain after every element) and records what it releases,
/// plus the audit trail of a sequential tenant session on the same input.
///
/// # Panics
///
/// Panics when the reference itself refuses an element: the workloads
/// are built so that no operation fails.
pub fn reference(input: &Input) -> Reference {
    let dsms = tenant_dsms(0, 0, true);
    let (builder, sink) = mirror_plan(&dsms, None);
    let mut exec: Executor = builder.build();
    exec.set_batching(false);
    for e in &input.elements {
        exec.push(input.stream, e.clone()).expect("reference run accepts every element");
    }
    let digest = Digest::of_tuples(exec.sink(sink).tuples());
    let mut running = dsms.try_start().expect("sequential session starts");
    for e in &input.elements {
        running
            .try_push(input.stream, e.clone())
            .expect("sequential session accepts every element");
    }
    Reference { digest, audit: running.audit_trail().encode_to_vec() }
}

/// A checkpoint store that keeps only the size of what it was given.
#[derive(Default)]
pub struct SizingStore {
    pub bytes: usize,
    pub cuts: usize,
}

impl CheckpointStore for SizingStore {
    fn save(&mut self, ckpt: &Checkpoint) -> Result<(), EngineError> {
        self.bytes = ckpt.encode_to_vec().len();
        self.cuts += 1;
        Ok(())
    }

    fn load_latest(&self) -> Option<Checkpoint> {
        None
    }

    fn count(&self) -> usize {
        self.cuts
    }
}
