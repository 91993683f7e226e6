//! Typed engine errors.
//!
//! Streaming input is adversarial by assumption: frames arrive corrupted,
//! punctuations go missing, operators built from user queries can fail.
//! Every runtime path that ingests stream data reports failures through
//! [`EngineError`] instead of panicking, so a hostile stream can at worst
//! terminate one query with a diagnosable error — never the process.

use std::fmt;

/// An error surfaced by the streaming engine at runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// An element arrived on a port the operator does not have.
    BadPort {
        /// Operator name.
        operator: String,
        /// The offending port.
        port: usize,
        /// The operator's input arity.
        arity: usize,
    },
    /// An element failed the operator's structural expectations.
    MalformedElement {
        /// Operator name.
        operator: String,
        /// Human-readable cause.
        reason: String,
    },
    /// A worker thread's operator panicked; the panic was contained and
    /// converted (sharded runtime).
    OperatorPanic {
        /// Operator (or stage) name.
        operator: String,
        /// The panic payload, when it was a string.
        message: String,
    },
    /// A runtime channel disconnected before the stream completed,
    /// usually because a peer stage failed.
    ChannelDisconnected {
        /// The stage that observed the disconnect.
        stage: String,
    },
    /// Workers failed to drain within the shutdown deadline.
    ShutdownTimeout {
        /// Number of workers still running at the deadline.
        pending_workers: usize,
        /// Stage names of the stalled workers, when known, so a wedged
        /// graph names the culprit instead of just counting it.
        stalled: Vec<String>,
    },
    /// Two shard replicas of the same plan disagreed on policy state at
    /// a consistent cut. Replicated policy state (security punctuations
    /// are broadcast to every shard) must be byte-identical everywhere;
    /// a divergence means enforcement can no longer be trusted, so the
    /// sharded executor fails closed rather than pick a winner.
    ShardDivergence {
        /// The plan component whose replicas disagreed.
        stage: String,
        /// Human-readable detail.
        reason: String,
    },
    /// The plan cannot run sharded: it contains an operator whose state
    /// depends on seeing the *whole* tuple stream (joins, dup-elim,
    /// aggregation, load shedders), which hash partitioning would
    /// silently corrupt. Fail-closed: refused at build time.
    ShardUnsupported {
        /// The offending operator's name.
        operator: String,
        /// Why the plan shape cannot be partitioned.
        reason: String,
    },
    /// A checkpoint (or one operator's snapshot within it) failed to
    /// decode during recovery. Restore is fail-closed: a corrupt snapshot
    /// aborts the restore rather than starting with partial policy state.
    CheckpointCorrupt {
        /// The component whose snapshot failed ("supervisor", an operator
        /// name, "analyzer", …).
        stage: String,
        /// Human-readable cause.
        reason: String,
    },
    /// The supervisor exhausted its restart budget and entered the
    /// terminal fail-closed state; the rest of the input was refused.
    RecoveryExhausted {
        /// Restart attempts made before giving up.
        attempts: u32,
        /// Input elements refused (never processed) after the terminal
        /// failure.
        refused: u64,
    },
    /// The ingestion boundary refused an element because the session is
    /// over its admitted rate (token bucket empty beyond the enqueue
    /// deadline). Unlike the other variants this is *not* a pipeline
    /// death: the element was never enqueued and the caller should retry
    /// after the indicated delay. Security punctuations are never refused
    /// this way — only data tuples pay admission tokens.
    Overloaded {
        /// Milliseconds (stream time) until a token accrues and a retry
        /// can succeed.
        retry_after_ms: u64,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::BadPort { operator, port, arity } => write!(
                f,
                "operator {operator:?} received input on port {port} but has arity {arity}"
            ),
            Self::MalformedElement { operator, reason } => {
                write!(f, "operator {operator:?} rejected element: {reason}")
            }
            Self::OperatorPanic { operator, message } => {
                write!(f, "operator {operator:?} panicked: {message}")
            }
            Self::ChannelDisconnected { stage } => {
                write!(f, "stage {stage:?} lost its channel before end of stream")
            }
            Self::ShutdownTimeout { pending_workers, stalled } => {
                write!(f, "{pending_workers} worker(s) still running at shutdown deadline")?;
                if stalled.is_empty() {
                    Ok(())
                } else {
                    write!(f, " (stalled: {})", stalled.join(", "))
                }
            }
            Self::ShardDivergence { stage, reason } => {
                write!(f, "shard replicas diverged at {stage:?}: {reason}")
            }
            Self::ShardUnsupported { operator, reason } => {
                write!(f, "operator {operator:?} cannot run key-partitioned: {reason}")
            }
            Self::CheckpointCorrupt { stage, reason } => {
                write!(f, "checkpoint snapshot for {stage:?} is corrupt: {reason}")
            }
            Self::RecoveryExhausted { attempts, refused } => write!(
                f,
                "recovery exhausted after {attempts} restart attempt(s); \
                 {refused} element(s) refused fail-closed"
            ),
            Self::Overloaded { retry_after_ms } => {
                write!(f, "session overloaded; retry after {retry_after_ms} ms")
            }
        }
    }
}

impl std::error::Error for EngineError {}

impl EngineError {
    /// Builds [`EngineError::OperatorPanic`] from a `catch_unwind` payload,
    /// extracting the message when the panic carried one.
    #[must_use]
    pub fn from_panic(operator: &str, payload: &(dyn std::any::Any + Send)) -> Self {
        let message = payload
            .downcast_ref::<&'static str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string());
        Self::OperatorPanic { operator: operator.to_string(), message }
    }

    /// Builds [`EngineError::CheckpointCorrupt`] from a codec error string.
    #[must_use]
    pub fn corrupt(stage: &str, reason: impl Into<String>) -> Self {
        Self::CheckpointCorrupt { stage: stage.to_string(), reason: reason.into() }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;

    #[test]
    fn display_is_informative() {
        let e = EngineError::BadPort { operator: "sajoin".into(), port: 3, arity: 2 };
        assert!(e.to_string().contains("port 3"));
        let e = EngineError::ShutdownTimeout { pending_workers: 2, stalled: vec![] };
        assert!(e.to_string().contains("2 worker"));
        let e = EngineError::ShutdownTimeout {
            pending_workers: 2,
            stalled: vec!["node 1 shield".into(), "sink 0".into()],
        };
        assert!(e.to_string().contains("stalled: node 1 shield, sink 0"));
        let e = EngineError::Overloaded { retry_after_ms: 40 };
        assert!(e.to_string().contains("retry after 40 ms"));
    }

    #[test]
    fn panic_payloads_extract() {
        let boxed: Box<dyn std::any::Any + Send> = Box::new("boom");
        let e = EngineError::from_panic("select", boxed.as_ref());
        assert_eq!(
            e,
            EngineError::OperatorPanic { operator: "select".into(), message: "boom".into() }
        );
        let boxed: Box<dyn std::any::Any + Send> = Box::new(format!("bad {}", 7));
        let e = EngineError::from_panic("x", boxed.as_ref());
        assert!(matches!(e, EngineError::OperatorPanic { message, .. } if message == "bad 7"));
    }
}
