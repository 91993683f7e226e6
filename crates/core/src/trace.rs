//! Deterministic causal trace identifiers (sp-trace).
//!
//! Every identifier here is a pure function of *element identity* —
//! tenant, stream, frame sequence, tuple id, or sp-batch timestamp —
//! never a wall clock or a random source. Two processes that observe the
//! same element therefore derive the *same* trace and span ids without
//! coordination, which is what makes span trees recorded by the client,
//! the server ingress loop, the sequential executor, a shard replica,
//! and a promoted standby mergeable after the fact: merging is
//! set union, and replay after a crash regenerates byte-identical spans.
//!
//! Ids are produced by the SplitMix64 finalizer ([`mix64`]) over salted
//! inputs. The salts keep the id spaces of frames, tuples, sp-batches
//! and checkpoints disjoint, so a tuple with id 7 never collides with
//! the sp stamped at 7 ms.

/// SplitMix64 finalizer: a cheap, well-mixed 64-bit permutation.
///
/// Used for every id derivation in this module; it is a bijection, so
/// distinct inputs always produce distinct ids within one salt space.
#[must_use]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Salt for frame-level trace ids ([`TraceContext::derive`]).
const SALT_FRAME: u64 = 0xF7A3_0000_0000_0001;
/// Salt for tuple-derived trace ids.
const SALT_TUPLE: u64 = 0xF7A3_0000_0000_0002;
/// Salt for sp-batch-derived trace ids.
const SALT_SP: u64 = 0xF7A3_0000_0000_0003;
/// Salt for checkpoint-derived trace ids (replication apply).
const SALT_CKPT: u64 = 0xF7A3_0000_0000_0004;

/// Span sites, in causal order. Each site is one hop of an element's
/// journey; span ids are derived per `(trace, site)` pair so every
/// process names the same hop identically.
pub mod site {
    /// The element crossed the wire into the server's tenant worker.
    pub const WIRE_FRAME: u8 = 0;
    /// The SP Analyzer resolved the sp-batch into a segment policy.
    pub const ANALYZE: u8 = 1;
    /// The Security Shield absorbed the policy (enforcement moment).
    pub const SHIELD_ENFORCE: u8 = 2;
    /// A tuple was released under the governing policy.
    pub const RELEASE: u8 = 3;
    /// A tuple was suppressed under the governing policy.
    pub const SUPPRESS: u8 = 4;
    /// A promoted/standby node applied a replicated checkpoint.
    pub const STANDBY_APPLY: u8 = 5;

    /// Human-readable site name.
    #[must_use]
    pub const fn name(site: u8) -> &'static str {
        match site {
            WIRE_FRAME => "wire_frame",
            ANALYZE => "analyze",
            SHIELD_ENFORCE => "shield_enforce",
            RELEASE => "release",
            SUPPRESS => "suppress",
            STANDBY_APPLY => "standby_apply",
            _ => "unknown",
        }
    }
}

/// The causal context a client attaches to one wire frame
/// ([`crate::wire::Control::Trace`]): which trace the frame belongs to
/// and which client-side span fathered it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// Trace id of the frame (derived from tenant + stream + sequence).
    pub trace_id: u64,
    /// The client-side root span the server-side spans hang under.
    pub parent_span: u64,
}

impl TraceContext {
    /// Derives the deterministic context for frame `seq` of a tenant's
    /// stream. Same inputs, same context — on the client, the server,
    /// and any replay.
    #[must_use]
    pub fn derive(tenant: u32, stream: u32, seq: u64) -> Self {
        let trace_id =
            mix64(SALT_FRAME ^ (u64::from(tenant) << 32) ^ u64::from(stream) ^ mix64(seq));
        Self { trace_id, parent_span: mix64(trace_id ^ SALT_FRAME) }
    }
}

/// Trace id of a data tuple, derived from its tuple id.
#[must_use]
pub fn trace_id_for_tuple(tid: u64) -> u64 {
    mix64(SALT_TUPLE ^ tid)
}

/// Trace id of a security punctuation (sp-batch), derived from its
/// stream timestamp — the batch's DDP identity.
#[must_use]
pub fn trace_id_for_sp(ts: u64) -> u64 {
    mix64(SALT_SP ^ ts)
}

/// Trace id of a replicated checkpoint apply, derived from the tenant
/// and the checkpoint epoch.
#[must_use]
pub fn trace_id_for_checkpoint(tenant: u32, epoch: u64) -> u64 {
    mix64(SALT_CKPT ^ (u64::from(tenant) << 48) ^ epoch)
}

/// Deterministic span id for one site of one trace. Every process
/// derives the same id for the same hop, so span trees recorded in
/// different processes link up without coordination.
#[must_use]
pub fn span_id(trace_id: u64, site: u8) -> u64 {
    mix64(trace_id ^ 0x5BD1_E995u64.wrapping_mul(u64::from(site) + 1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derivation_is_deterministic() {
        assert_eq!(TraceContext::derive(1, 2, 3), TraceContext::derive(1, 2, 3));
        assert_eq!(trace_id_for_tuple(42), trace_id_for_tuple(42));
        assert_eq!(trace_id_for_sp(42), trace_id_for_sp(42));
        assert_eq!(span_id(7, site::ANALYZE), span_id(7, site::ANALYZE));
    }

    #[test]
    fn salt_spaces_are_disjoint() {
        // Same raw input, different identity kinds: ids must differ.
        for v in [0u64, 1, 42, u64::MAX] {
            assert_ne!(trace_id_for_tuple(v), trace_id_for_sp(v));
            assert_ne!(trace_id_for_sp(v), trace_id_for_checkpoint(0, v));
        }
    }

    #[test]
    fn sites_have_distinct_span_ids() {
        let t = trace_id_for_sp(1000);
        let ids = [
            span_id(t, site::WIRE_FRAME),
            span_id(t, site::ANALYZE),
            span_id(t, site::SHIELD_ENFORCE),
            span_id(t, site::RELEASE),
            span_id(t, site::SUPPRESS),
            span_id(t, site::STANDBY_APPLY),
        ];
        for i in 0..ids.len() {
            for j in (i + 1)..ids.len() {
                assert_ne!(ids[i], ids[j]);
            }
        }
    }

    #[test]
    fn frame_contexts_differ_by_every_input() {
        let base = TraceContext::derive(1, 1, 0);
        assert_ne!(base, TraceContext::derive(2, 1, 0));
        assert_ne!(base, TraceContext::derive(1, 2, 0));
        assert_ne!(base, TraceContext::derive(1, 1, 1));
    }

    #[test]
    fn site_names_cover_all_sites() {
        for s in 0..=5u8 {
            assert_ne!(site::name(s), "unknown");
        }
        assert_eq!(site::name(99), "unknown");
    }
}
