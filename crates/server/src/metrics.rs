//! Dedicated `/metrics` + `/healthz` listener.
//!
//! A deliberately tiny HTTP/1.0 responder on its own port, so operators
//! can scrape telemetry without speaking the framed ingest protocol and
//! without competing with data connections for the accept queue.
//! Readiness fails closed: a draining, fenced, or gone node answers 503.
//! Both the primary/fenced server and the standby serve the same two
//! endpoints through [`Observe`].

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use sp_engine::MetricsRegistry;

use crate::replication::StandbyState;
use crate::server::ServerState;

/// What the observability listener needs from the node it describes.
pub(crate) trait Observe: Send + Sync + 'static {
    /// True once the node stopped (the listener thread exits).
    fn stopped(&self) -> bool;
    /// The `/metrics` body (Prometheus text exposition format).
    fn metrics_text(&self) -> String;
    /// The `/trace` body (Chrome trace-event JSON).
    fn trace_text(&self) -> String;
    /// The `/audit` body (human-readable audit trail + span tree).
    fn audit_text(&self) -> String;
    /// Readiness: `(ready, status line)`.
    fn health(&self) -> (bool, String);
}

impl Observe for ServerState {
    fn stopped(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    fn metrics_text(&self) -> String {
        self.metrics().render_prometheus()
    }

    fn trace_text(&self) -> String {
        self.trace_json()
    }

    fn audit_text(&self) -> String {
        self.audit_text()
    }

    fn health(&self) -> (bool, String) {
        self.healthz()
    }
}

impl Observe for StandbyState {
    fn stopped(&self) -> bool {
        self.stopping.load(Ordering::SeqCst)
    }

    fn metrics_text(&self) -> String {
        let mut reg = MetricsRegistry::new();
        reg.add_counter(
            "sp_server_role",
            "Replication role of this node (the labeled series is 1)",
            "role=\"standby\"",
            1,
        );
        reg.add_counter(
            "sp_server_fencing_epoch",
            "Highest fencing epoch seen from a primary",
            "",
            self.seen_epoch.load(Ordering::SeqCst),
        );
        reg.add_counter(
            "sp_server_repl_commits_applied_total",
            "Checkpoint commits verified and applied",
            "",
            self.commits_applied.load(Ordering::SeqCst),
        );
        reg.add_counter(
            "sp_server_repl_segments_evicted_total",
            "Checkpoint reassembly buffers evicted at the open-buffer cap",
            "",
            self.segments_evicted.load(Ordering::SeqCst),
        );
        reg.add_counter(
            "sp_server_repl_apply_failures_total",
            "Checkpoint commits refused (bad bytes, stale epoch, failed resume dry run)",
            "",
            self.apply_failures.load(Ordering::SeqCst),
        );
        for (tenant, lag) in self.lag_epochs() {
            reg.add_counter(
                "sp_server_replication_lag_epochs",
                "Checkpoint epochs shipped but not yet applied, per tenant",
                &format!("tenant=\"{tenant}\""),
                lag,
            );
        }
        reg.render_prometheus()
    }

    fn trace_text(&self) -> String {
        self.span_sheet().render_chrome_json()
    }

    fn audit_text(&self) -> String {
        self.span_sheet().render_tree()
    }

    fn health(&self) -> (bool, String) {
        let applied = {
            let map = self.applied.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            map.len()
        };
        (true, format!("ok role=standby tenants_applied={applied}\n"))
    }
}

/// Binds the observability listener on an ephemeral loopback port and
/// serves it until the node stops.
pub(crate) fn spawn<S: Observe>(state: Arc<S>) -> std::io::Result<(SocketAddr, JoinHandle<()>)> {
    let listener = TcpListener::bind(("127.0.0.1", 0))?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let join = std::thread::Builder::new().name("sp-metrics".into()).spawn(move || loop {
        if state.stopped() {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => serve_one(&*state, stream),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => return,
        }
    })?;
    Ok((addr, join))
}

fn serve_one(state: &dyn Observe, mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
    let mut req = [0u8; 1024];
    let n = stream.read(&mut req).unwrap_or(0);
    let line = String::from_utf8_lossy(&req[..n]);
    let path = line.split_whitespace().nth(1).unwrap_or("/");
    let (status, content_type, body) = match path {
        "/metrics" => ("200 OK", "text/plain; version=0.0.4", state.metrics_text()),
        "/trace" => ("200 OK", "application/json", state.trace_text()),
        "/audit" => ("200 OK", "text/plain", state.audit_text()),
        "/healthz" => {
            let (ready, text) = state.health();
            (if ready { "200 OK" } else { "503 Service Unavailable" }, "text/plain", text)
        }
        _ => ("404 Not Found", "text/plain", "not found\n".to_string()),
    };
    let resp = format!(
        "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = stream.write_all(resp.as_bytes());
}
