//! TCP accept loop and per-connection handlers.
//!
//! The listener blocks in `accept` on one `par::spawn_detached` thread,
//! and [`Server::shutdown`] wakes it with one loopback connection. Each
//! accepted connection is a thread of its own, so open connections never
//! hold back scoped training or bench work. Handlers use a short socket
//! read timeout so a connection re-checks the shutdown flag every ~50 ms
//! instead of blocking forever. A request stalled mid-transfer keeps
//! its connection for a few seconds: one lost TCP segment alone costs a
//! 200 ms retransmission.
//!
//! Routes: `POST /predict` (batched inference), `GET /metrics`
//! (Prometheus text format), `GET /healthz`, `GET /trace/{id}` and
//! `GET /traces/slow` (tail-sampled request traces).
//!
//! Every request runs under a [`TraceContext`]: propagated from a W3C
//! `traceparent` header when one parses, freshly minted (unsampled)
//! otherwise — a malformed header silently falls back, never a 400.

use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use env2vec_obs::TraceContext;
use env2vec_telemetry::registry::RegistryHub;

use crate::batch::{BatchOptions, BatchTrace, Batcher};
use crate::http::{self, HttpConn, HttpError, ReadOutcome, Request};
use crate::model_cache::ModelCache;
use crate::trace_store::{TraceBuffer, TraceBufferConfig, TraceRecord};
use crate::{ErrorResponse, PredictRequest, PredictResponse};

/// How long a connection read blocks before re-checking shutdown.
const READ_POLL: Duration = Duration::from_millis(50);
/// How long a partial request may stall, counted from its first read
/// timeout, before its connection is closed without a response.
const STALL_LIMIT: Duration = Duration::from_secs(2);
/// Accept-loop back-off after a failed `accept` (e.g. out of file
/// descriptors), so a persistent error does not spin the thread.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(1);

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Address to bind; use port 0 for an ephemeral port.
    pub addr: SocketAddr,
    /// Batching knobs forwarded to the [`Batcher`].
    pub batch: BatchOptions,
    /// Trace retention rules forwarded to the [`TraceBuffer`].
    pub trace: TraceBufferConfig,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            batch: BatchOptions::default(),
            trace: TraceBufferConfig::default(),
        }
    }
}

/// Shared server state.
struct Inner {
    batcher: Batcher,
    traces: TraceBuffer,
    started: Instant,
    shutdown: AtomicBool,
    /// Accept loop has fully exited.
    stopped: AtomicBool,
    open_connections: AtomicUsize,
}

/// A running server; dropping the handle does NOT stop it — call
/// [`Server::shutdown`].
pub struct Server {
    addr: SocketAddr,
    inner: Arc<Inner>,
}

impl Server {
    /// Binds and starts serving `hub` in the background. Returns once
    /// the listener is accepting.
    pub fn start(hub: Arc<RegistryHub>, opts: ServerOptions) -> std::io::Result<Server> {
        let listener = TcpListener::bind(opts.addr)?;
        let addr = listener.local_addr()?;
        let inner = Arc::new(Inner {
            batcher: Batcher::new(Arc::new(ModelCache::new(hub)), opts.batch),
            traces: TraceBuffer::new(opts.trace),
            started: Instant::now(),
            shutdown: AtomicBool::new(false),
            stopped: AtomicBool::new(false),
            open_connections: AtomicUsize::new(0),
        });
        let loop_inner = Arc::clone(&inner);
        env2vec_par::spawn_detached(format!("serve-accept:{addr}"), move || {
            accept_loop(listener, loop_inner);
        })?;
        Ok(Server { addr, inner })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The batcher (for direct in-process predictions in tests/bench).
    pub fn batcher(&self) -> &Batcher {
        &self.inner.batcher
    }

    /// Retained request traces (for assertions in tests/bench).
    pub fn traces(&self) -> &TraceBuffer {
        &self.inner.traces
    }

    /// Connections currently open.
    pub fn open_connections(&self) -> usize {
        self.inner.open_connections.load(Ordering::Acquire)
    }

    /// Signals shutdown and waits (bounded) for the accept loop and all
    /// connection handlers to wind down.
    pub fn shutdown(&self) {
        self.inner.shutdown.store(true, Ordering::Release);
        // Wake the accept loop from its blocking `accept`; it checks the
        // flag before serving what it accepted. An unspecified bind
        // address is reached over loopback.
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let _ = TcpStream::connect_timeout(&wake, Duration::from_secs(1));
        // Handlers notice within READ_POLL. 100 polls ≫ that, so a hang
        // here means a bug.
        for _ in 0..100 {
            if self.inner.stopped.load(Ordering::Acquire)
                && self.inner.open_connections.load(Ordering::Acquire) == 0
            {
                return;
            }
            std::thread::sleep(READ_POLL);
        }
    }
}

fn accept_loop(listener: TcpListener, inner: Arc<Inner>) {
    let metrics = env2vec_obs::metrics();
    loop {
        let accepted = listener.accept();
        if inner.shutdown.load(Ordering::Acquire) {
            break;
        }
        match accepted {
            Ok((stream, _peer)) => {
                metrics.counter("serve_connections_total").inc();
                let conn_inner = Arc::clone(&inner);
                let spawned = env2vec_par::spawn_detached("serve-conn", move || {
                    handle_connection(stream, conn_inner);
                });
                if spawned.is_err() {
                    metrics.counter("serve_accept_errors_total").inc();
                }
            }
            Err(_) => {
                metrics.counter("serve_accept_errors_total").inc();
                std::thread::sleep(ACCEPT_ERROR_BACKOFF);
            }
        }
    }
    // Closed before `stopped` is set, so a shut-down port refuses.
    drop(listener);
    inner.stopped.store(true, Ordering::Release);
}

/// Decrements the open-connection count even if the handler errors out.
struct ConnGuard(Arc<Inner>);

impl ConnGuard {
    fn new(inner: Arc<Inner>) -> Self {
        let open = inner.open_connections.fetch_add(1, Ordering::AcqRel) + 1;
        env2vec_obs::metrics()
            .gauge("serve_open_connections")
            .set(open as f64);
        ConnGuard(inner)
    }
}

impl Drop for ConnGuard {
    fn drop(&mut self) {
        let open = self.0.open_connections.fetch_sub(1, Ordering::AcqRel) - 1;
        env2vec_obs::metrics()
            .gauge("serve_open_connections")
            .set(open as f64);
    }
}

fn handle_connection(stream: TcpStream, inner: Arc<Inner>) {
    let _guard = ConnGuard::new(Arc::clone(&inner));
    // Responses are latency-sensitive and already coalesced into one
    // write; never let Nagle hold them back.
    let _ = stream.set_nodelay(true);
    if stream.set_read_timeout(Some(READ_POLL)).is_err() {
        return;
    }
    let metrics = env2vec_obs::metrics();
    let mut conn = HttpConn::new(stream);
    // When the partial request now buffered first timed out.
    let mut stalled_since: Option<Instant> = None;
    loop {
        if inner.shutdown.load(Ordering::Acquire) {
            return;
        }
        match conn.read_request() {
            Ok(ReadOutcome::Request(request)) => {
                stalled_since = None;
                let started = Instant::now();
                // W3C traceparent propagation: a parsed header yields a
                // child context (same trace id, new span id); absent or
                // malformed headers fall back to a fresh unsampled
                // context — never a 400.
                let ctx = request
                    .header("traceparent")
                    .and_then(TraceContext::parse)
                    .map(|c| c.child())
                    .unwrap_or_else(TraceContext::fresh);
                let outcome = match respond(&mut conn, &request, &inner) {
                    Ok(outcome) => outcome,
                    Err(_) => return,
                };
                let total_seconds = started.elapsed().as_secs_f64();
                metrics
                    .histogram("serve_request_seconds")
                    .observe_traced(total_seconds, ctx.sampled.then_some(ctx.trace_id));
                metrics.counter("serve_requests_total").inc();
                let batch = outcome.batch;
                inner.traces.record(
                    &ctx,
                    TraceRecord {
                        trace_id: ctx.trace_id_hex(),
                        span_id: format!("{:016x}", ctx.span_id),
                        sampled: ctx.sampled,
                        method: request.method.clone(),
                        path: request.path.clone(),
                        status: outcome.status as u64,
                        total_seconds,
                        batch_wait_seconds: batch.wait_seconds,
                        batch_rows: batch.batch_rows,
                        batch_requests: batch.batch_requests,
                        batch_role: if batch.batch_requests == 0 {
                            "-"
                        } else if batch.leader {
                            "leader"
                        } else {
                            "follower"
                        }
                        .to_string(),
                        model_version: outcome.model_version,
                    },
                );
                if !outcome.keep_alive {
                    return;
                }
            }
            Ok(ReadOutcome::Closed) => return,
            // Quiet keep-alive connection: poll again (and re-check
            // shutdown).
            Err(HttpError::Timeout { idle: true }) => continue,
            // A partial request: poll again until it has stalled for
            // STALL_LIMIT, then drop the client.
            Err(HttpError::Timeout { idle: false }) => {
                let since = *stalled_since.get_or_insert_with(Instant::now);
                if since.elapsed() >= STALL_LIMIT {
                    metrics.counter("serve_errors_total").inc();
                    return;
                }
            }
            Err(HttpError::BadRequest(what)) => {
                metrics.counter("serve_errors_total").inc();
                let _ = write_error(&mut conn, 400, what);
                return;
            }
            Err(HttpError::PayloadTooLarge) => {
                metrics.counter("serve_errors_total").inc();
                let _ = write_error(&mut conn, 413, "payload too large");
                return;
            }
            Err(HttpError::Disconnected) | Err(HttpError::Io(_)) => return,
        }
    }
}

fn write_error(conn: &mut HttpConn<TcpStream>, status: u16, error: &str) -> std::io::Result<()> {
    let body = serde_json::to_string(&ErrorResponse {
        error: error.to_string(),
    })
    .unwrap_or_else(|_| "{\"error\":\"internal\"}".to_string());
    http::write_response(
        conn.get_mut(),
        status,
        "application/json",
        body.as_bytes(),
        false,
    )
}

/// What one routed request produced, for trace recording.
struct RouteOutcome {
    keep_alive: bool,
    status: u16,
    /// Batch diagnostics when the request reached the batcher
    /// (`batch_requests == 0` otherwise).
    batch: BatchTrace,
    model_version: u64,
}

/// Routes one request and writes its response.
fn respond(
    conn: &mut HttpConn<TcpStream>,
    request: &Request,
    inner: &Inner,
) -> std::io::Result<RouteOutcome> {
    let keep_alive = request.keep_alive;
    let mut outcome = RouteOutcome {
        keep_alive,
        status: 200,
        batch: BatchTrace::default(),
        model_version: 0,
    };
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/predict") => {
            let (status, body, batch, model_version) =
                predict_response(&inner.batcher, &request.body);
            outcome.status = status;
            outcome.batch = batch;
            outcome.model_version = model_version;
            http::write_response(
                conn.get_mut(),
                status,
                "application/json",
                body.as_bytes(),
                keep_alive,
            )?;
        }
        ("GET", "/metrics") => {
            env2vec_obs::metrics()
                .gauge("serve_uptime_seconds")
                .set(inner.started.elapsed().as_secs_f64());
            let body = env2vec_obs::prometheus::render(env2vec_obs::metrics());
            http::write_response(
                conn.get_mut(),
                200,
                "text/plain; version=0.0.4",
                body.as_bytes(),
                keep_alive,
            )?;
        }
        ("GET", "/healthz") => {
            http::write_response(conn.get_mut(), 200, "text/plain", b"ok\n", keep_alive)?;
        }
        ("GET", "/traces/slow") => {
            let body = serde_json::to_string(&inner.traces.slow())
                .unwrap_or_else(|_| "{\"retained\":0,\"traces\":[]}".to_string());
            http::write_response(
                conn.get_mut(),
                200,
                "application/json",
                body.as_bytes(),
                keep_alive,
            )?;
        }
        ("GET", path) if path.strip_prefix("/trace/").is_some() => {
            let id = path.strip_prefix("/trace/").unwrap_or_default();
            match inner.traces.get(id) {
                Some(record) => {
                    let body = serde_json::to_string(&record)
                        .unwrap_or_else(|_| "{\"error\":\"internal\"}".to_string());
                    http::write_response(
                        conn.get_mut(),
                        200,
                        "application/json",
                        body.as_bytes(),
                        keep_alive,
                    )?;
                }
                None => {
                    // A miss is not a server error: the trace was simply
                    // not retained (or evicted).
                    outcome.status = 404;
                    let body = error_body("no such trace");
                    http::write_response(
                        conn.get_mut(),
                        404,
                        "application/json",
                        body.as_bytes(),
                        keep_alive,
                    )?;
                }
            }
        }
        (_, "/predict") | (_, "/metrics") | (_, "/healthz") | (_, "/traces/slow") => {
            env2vec_obs::metrics().counter("serve_errors_total").inc();
            outcome.status = 405;
            let body = error_body("method not allowed");
            http::write_response(
                conn.get_mut(),
                405,
                "application/json",
                body.as_bytes(),
                keep_alive,
            )?;
        }
        _ => {
            env2vec_obs::metrics().counter("serve_errors_total").inc();
            outcome.status = 404;
            let body = error_body("no such route");
            http::write_response(
                conn.get_mut(),
                404,
                "application/json",
                body.as_bytes(),
                keep_alive,
            )?;
        }
    }
    Ok(outcome)
}

fn error_body(error: &str) -> String {
    serde_json::to_string(&ErrorResponse {
        error: error.to_string(),
    })
    .unwrap_or_else(|_| "{\"error\":\"internal\"}".to_string())
}

/// Parses, batches, and serialises one `/predict` call. Returns
/// `(status, body, batch diagnostics, model version)`.
fn predict_response(batcher: &Batcher, body: &[u8]) -> (u16, String, BatchTrace, u64) {
    let text = match std::str::from_utf8(body) {
        Ok(text) => text,
        Err(_) => {
            return (
                400,
                error_body("body is not UTF-8"),
                BatchTrace::default(),
                0,
            )
        }
    };
    let request: PredictRequest = match serde_json::from_str(text) {
        Ok(request) => request,
        Err(e) => {
            return (
                400,
                error_body(&format!("malformed JSON: {e}")),
                BatchTrace::default(),
                0,
            )
        }
    };
    let (result, trace) = batcher.predict_traced(request);
    match result {
        Ok((model_version, predictions)) => {
            let response = PredictResponse {
                model_version,
                predictions,
            };
            match serde_json::to_string(&response) {
                Ok(body) => (200, body, trace, model_version),
                Err(_) => (
                    500,
                    error_body("serialisation failed"),
                    trace,
                    model_version,
                ),
            }
        }
        Err(e) => {
            env2vec_obs::metrics().counter("serve_errors_total").inc();
            (e.status(), error_body(&e.to_string()), trace, 0)
        }
    }
}
