//! # security-punctuations
//!
//! A from-scratch Rust implementation of **security punctuations** — the
//! stream-centric access-control enforcement mechanism of Nehme,
//! Rundensteiner and Bertino, *"A Security Punctuation Framework for
//! Enforcing Access Control on Streaming Data"* (ICDE 2008).
//!
//! This crate is a facade re-exporting the workspace members:
//!
//! * [`sp_pattern`] — the DDP/SRP pattern-expression dialect;
//! * [`sp_core`] — tuples, role bitmaps, policies, punctuations, wire
//!   framing;
//! * [`sp_engine`] — the pipelined security-aware stream engine (Security
//!   Shield, SAJoin with SPIndex, δ, group-by, set operations, sharded
//!   executor, reorder buffer);
//! * [`sp_query`] — CQL + `INSERT SP`, plans, Table II rewrite rules,
//!   the §VI-A cost model and the optimizer;
//! * [`sp_baselines`] — the store-and-probe and tuple-embedded
//!   enforcement mechanisms the paper compares against;
//! * [`sp_mog`] — moving-object and health-telemetry workload generators.
//!
//! Start with [`sp_query::Dsms`] for the end-to-end API, or the
//! `examples/` directory for runnable scenarios. `DESIGN.md` maps every
//! paper section to its implementing module; `EXPERIMENTS.md` records the
//! reproduction of every figure in the paper's evaluation.

pub use sp_baselines;
pub use sp_core;
pub use sp_engine;
pub use sp_mog;
pub use sp_pattern;
pub use sp_query;
