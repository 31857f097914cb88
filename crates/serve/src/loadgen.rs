//! Load generation against a running server.
//!
//! Two storm shapes:
//!
//! - **closed-loop** — each connection fires its next request the moment
//!   the previous response lands; measures peak sustainable throughput.
//! - **open-loop** — requests are released on a fixed schedule whether
//!   or not earlier ones have completed, and latency is measured from
//!   the *scheduled* send time, so a stalling server inflates the tail
//!   instead of silently slowing the generator (no coordinated
//!   omission).
//!
//! Payloads are deterministic functions of the request index — no RNG —
//! so any storm row can be re-predicted solo and compared bit-for-bit
//! against what the server returned.

use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use env2vec_obs::metrics::Histogram;
use env2vec_obs::TraceContext;
use serde::Serialize;

use crate::http::{self, HttpConn, Response};
use crate::{PredictRequest, PredictResponse, PredictRow};

/// Storm pacing.
#[derive(Debug, Clone, Copy)]
pub enum Pacing {
    /// Back-to-back requests per connection.
    ClosedLoop,
    /// Fixed aggregate request rate (requests/second) across all
    /// connections.
    OpenLoop {
        /// Aggregate request release rate, requests per second.
        rate: f64,
    },
}

/// Storm configuration.
#[derive(Debug, Clone)]
pub struct LoadgenOptions {
    /// Server address.
    pub addr: SocketAddr,
    /// Environment to predict for.
    pub env: String,
    /// EM tuple sent with every request.
    pub em: Vec<String>,
    /// Concurrent keep-alive connections.
    pub connections: usize,
    /// Requests sent per connection.
    pub requests_per_connection: usize,
    /// Rows packed into each request.
    pub rows_per_request: usize,
    /// Width of each cf row (must match the served model).
    pub num_cf: usize,
    /// Width of each history row (must match the served model).
    pub history_window: usize,
    /// Closed- or open-loop release schedule.
    pub pacing: Pacing,
    /// Stamp a W3C `traceparent` header with `sampled=1` on every Nth
    /// request (by global request index, deterministic). `None` sends no
    /// trace headers at all.
    pub trace_every: Option<usize>,
}

/// Storm result.
#[derive(Debug, Clone, Serialize)]
pub struct LoadgenReport {
    /// Requests that completed with HTTP 200.
    pub requests: u64,
    /// Total predicted rows across successful requests.
    pub predictions: u64,
    /// Requests that failed (non-200, transport error, or bad body).
    pub errors: u64,
    /// Wall-clock storm duration in seconds.
    pub elapsed_secs: f64,
    /// Successful predicted rows per second.
    pub predictions_per_sec: f64,
    /// Median request latency, milliseconds.
    pub p50_ms: f64,
    /// 95th-percentile request latency, milliseconds.
    pub p95_ms: f64,
    /// 99th-percentile request latency, milliseconds.
    pub p99_ms: f64,
}

/// The deterministic row a given global row index maps to. Shared with
/// the bench golden-row check: re-predicting this row solo must be
/// bit-identical to the storm's batched answer.
pub fn deterministic_row(index: usize, num_cf: usize, history_window: usize) -> PredictRow {
    PredictRow {
        cf: (0..num_cf)
            .map(|f| ((index * 7 + f * 3) % 13) as f64)
            .collect(),
        history: (0..history_window)
            .map(|s| 25.0 + ((index * 5 + s) % 11) as f64)
            .collect(),
    }
}

/// The deterministic request a given (connection, sequence) pair sends.
pub fn deterministic_request(
    opts: &LoadgenOptions,
    connection: usize,
    sequence: usize,
) -> PredictRequest {
    let base = (connection * opts.requests_per_connection + sequence) * opts.rows_per_request;
    PredictRequest {
        env: opts.env.clone(),
        em: opts.em.clone(),
        rows: (0..opts.rows_per_request)
            .map(|r| deterministic_row(base + r, opts.num_cf, opts.history_window))
            .collect(),
    }
}

/// The `traceparent` header value a given (connection, sequence) pair
/// sends, if any: every `trace_every`-th request by global index is
/// stamped `sampled=1`, with the trace id seeded from that index so a
/// replayed storm emits identical ids.
pub fn traceparent_for(
    opts: &LoadgenOptions,
    connection: usize,
    sequence: usize,
) -> Option<String> {
    let every = opts.trace_every.filter(|&n| n > 0)?;
    let index = connection * opts.requests_per_connection + sequence;
    index
        .is_multiple_of(every)
        .then(|| TraceContext::from_seed(index as u64, true).format())
}

struct ConnOutcome {
    requests: u64,
    predictions: u64,
    errors: u64,
}

/// Runs the storm to completion and reports aggregate throughput and
/// client-observed latency quantiles.
pub fn run(opts: &LoadgenOptions) -> LoadgenReport {
    // Connections observe straight into the storm's histogram and the
    // global one (mirrored for self-scraping into the TSDB).
    let latencies = Histogram::durations();
    let global = env2vec_obs::metrics().histogram("loadgen_request_seconds");
    let sinks = [&latencies, &*global];
    let started = Instant::now();
    let outcomes: Vec<ConnOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..opts.connections)
            .map(|c| scope.spawn(move || run_connection(opts, c, &sinks)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or(ConnOutcome {
                    requests: 0,
                    predictions: 0,
                    errors: 1,
                })
            })
            .collect()
    });
    let elapsed_secs = started.elapsed().as_secs_f64().max(1e-9);
    let requests = outcomes.iter().map(|o| o.requests).sum();
    let predictions = outcomes.iter().map(|o| o.predictions).sum::<u64>();
    let errors = outcomes.iter().map(|o| o.errors).sum();
    LoadgenReport {
        requests,
        predictions,
        errors,
        elapsed_secs,
        predictions_per_sec: predictions as f64 / elapsed_secs,
        p50_ms: latencies.quantile(0.50) * 1e3,
        p95_ms: latencies.quantile(0.95) * 1e3,
        p99_ms: latencies.quantile(0.99) * 1e3,
    }
}

fn run_connection(
    opts: &LoadgenOptions,
    connection: usize,
    latencies: &[&Histogram],
) -> ConnOutcome {
    let mut outcome = ConnOutcome {
        requests: 0,
        predictions: 0,
        errors: 0,
    };
    let stream = match TcpStream::connect(opts.addr) {
        Ok(stream) => stream,
        Err(_) => {
            outcome.errors += opts.requests_per_connection as u64;
            return outcome;
        }
    };
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let mut conn = HttpConn::new(stream);
    // Open-loop: this connection releases requests every
    // `connections / rate` seconds, offset by its index so the
    // aggregate schedule is evenly interleaved.
    let interval = match opts.pacing {
        Pacing::ClosedLoop => None,
        Pacing::OpenLoop { rate } => {
            let per_conn = rate / opts.connections.max(1) as f64;
            Some(Duration::from_secs_f64(1.0 / per_conn.max(1e-6)))
        }
    };
    let schedule_start = Instant::now();
    for sequence in 0..opts.requests_per_connection {
        let scheduled = interval.map(|step| {
            let target = schedule_start
                + step.mul_f64(sequence as f64)
                + step.mul_f64(connection as f64 / opts.connections.max(1) as f64);
            let now = Instant::now();
            if target > now {
                std::thread::sleep(target - now);
            }
            target
        });
        let request = deterministic_request(opts, connection, sequence);
        let body = match serde_json::to_string(&request) {
            Ok(body) => body,
            Err(_) => {
                outcome.errors += 1;
                continue;
            }
        };
        let traceparent = traceparent_for(opts, connection, sequence);
        // Latency clock starts at the *scheduled* release for open-loop
        // storms, at the actual send for closed-loop.
        let sent = Instant::now();
        let started = scheduled.unwrap_or(sent);
        match exchange(&mut conn, &body, traceparent.as_deref()) {
            Ok(response) if response.status == 200 => {
                match std::str::from_utf8(&response.body)
                    .ok()
                    .and_then(|text| serde_json::from_str::<PredictResponse>(text).ok())
                {
                    Some(parsed) => {
                        outcome.requests += 1;
                        outcome.predictions += parsed.predictions.len() as u64;
                        let seconds = started.elapsed().as_secs_f64();
                        for h in latencies {
                            h.observe(seconds);
                        }
                    }
                    None => outcome.errors += 1,
                }
            }
            Ok(_) => outcome.errors += 1,
            Err(_) => {
                // Transport error: the connection is unusable; count the
                // remaining schedule as failed.
                outcome.errors += (opts.requests_per_connection - sequence) as u64;
                return outcome;
            }
        }
    }
    outcome
}

fn exchange(
    conn: &mut HttpConn<TcpStream>,
    body: &str,
    traceparent: Option<&str>,
) -> Result<Response, crate::http::HttpError> {
    let trace_header = traceparent
        .map(|tp| format!("Traceparent: {tp}\r\n"))
        .unwrap_or_default();
    let head = format!(
        "POST /predict HTTP/1.1\r\nHost: loadgen\r\nContent-Type: application/json\r\n{trace_header}Content-Length: {}\r\n\r\n",
        body.len()
    );
    conn.get_mut()
        .write_all(head.as_bytes())
        .and_then(|_| conn.get_mut().write_all(body.as_bytes()))
        .and_then(|_| conn.get_mut().flush())
        .map_err(http::HttpError::Io)?;
    conn.read_response()
}

/// One-shot `GET` against the server — used by the CLI to pull retained
/// traces (`/traces/slow`, `/trace/{id}`) after a storm.
pub fn http_get(addr: SocketAddr, path: &str) -> Result<Response, crate::http::HttpError> {
    let stream = TcpStream::connect(addr).map_err(http::HttpError::Io)?;
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let mut conn = HttpConn::new(stream);
    let head = format!("GET {path} HTTP/1.1\r\nHost: loadgen\r\nConnection: close\r\n\r\n");
    conn.get_mut()
        .write_all(head.as_bytes())
        .and_then(|_| conn.get_mut().flush())
        .map_err(http::HttpError::Io)?;
    conn.read_response()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_payloads_are_reproducible() {
        let opts = LoadgenOptions {
            addr: "127.0.0.1:1".parse().expect("addr"),
            env: "edge".to_string(),
            em: vec!["tb".into()],
            connections: 4,
            requests_per_connection: 8,
            rows_per_request: 3,
            num_cf: 3,
            history_window: 2,
            pacing: Pacing::ClosedLoop,
            trace_every: Some(4),
        };
        let a = deterministic_request(&opts, 2, 5);
        let b = deterministic_request(&opts, 2, 5);
        assert_eq!(a.rows.len(), 3);
        for (ra, rb) in a.rows.iter().zip(&b.rows) {
            assert_eq!(ra.cf, rb.cf);
            assert_eq!(ra.history, rb.history);
        }
        // Distinct (connection, sequence) pairs produce distinct rows.
        let c = deterministic_request(&opts, 3, 5);
        assert_ne!(a.rows[0].cf, c.rows[0].cf);
    }

    #[test]
    fn traceparent_stamping_is_every_nth_and_deterministic() {
        let opts = LoadgenOptions {
            addr: "127.0.0.1:1".parse().expect("addr"),
            env: "edge".to_string(),
            em: vec!["tb".into()],
            connections: 2,
            requests_per_connection: 8,
            rows_per_request: 1,
            num_cf: 3,
            history_window: 2,
            pacing: Pacing::ClosedLoop,
            trace_every: Some(4),
        };
        // Global indices 0..16; every 4th is stamped, sampled=1.
        let mut stamped = Vec::new();
        for connection in 0..2 {
            for sequence in 0..8 {
                if let Some(tp) = traceparent_for(&opts, connection, sequence) {
                    assert!(tp.ends_with("-01"), "sampled flag set: {tp}");
                    assert!(TraceContext::parse(&tp).is_some(), "well-formed: {tp}");
                    stamped.push((connection, sequence, tp));
                }
            }
        }
        assert_eq!(stamped.len(), 4);
        // Replay stamps the identical headers.
        for (connection, sequence, tp) in &stamped {
            assert_eq!(
                traceparent_for(&opts, *connection, *sequence).as_deref(),
                Some(tp.as_str())
            );
        }
        // trace_every: None sends nothing.
        let quiet = LoadgenOptions {
            trace_every: None,
            ..opts
        };
        assert!(traceparent_for(&quiet, 0, 0).is_none());
    }
}
