//! Batched online inference server for the Env2Vec model registry.
//!
//! The paper fronts per-environment models with an HTTP model server
//! (§3 step 5); this crate is that serving tier, grown onto the
//! workspace's own infrastructure with zero external dependencies:
//!
//! - [`http`] — a minimal HTTP/1.1 parser/writer with hard input limits
//!   and typed errors (no panic paths);
//! - [`model_cache`] — per-environment deserialised-model cache fed from
//!   [`env2vec_telemetry::registry::RegistryHub`], invalidated by the
//!   registry's lock-free `latest_version` probe;
//! - [`batch`] — the request coalescer: concurrent predictions for the
//!   same environment merge into one batched `Model::predict` (one GEMM
//!   per layer instead of one per request) inside a time/size-bounded
//!   window;
//! - [`server`] — the TCP accept loop and connection handlers, each on a
//!   `par::spawn_detached` thread of its own;
//! - [`loadgen`] — closed- and open-loop request storms with client-side
//!   latency capture;
//! - [`trace_store`] — tail-sampled retention of completed request
//!   traces, served back over `GET /trace/{id}` and `GET /traces/slow`.
//!
//! Batching changes throughput, never bits: `Model::predict` is
//! row-independent (per-row dot products with a fixed reduction order,
//! no cross-row ops at inference), so a row predicted inside any batch
//! is bit-identical to the same row predicted alone — asserted by this
//! crate's tests and re-checked by the bench workload's golden rows.

pub mod batch;
pub mod http;
pub mod loadgen;
pub mod model_cache;
pub mod server;
pub mod trace_store;

use serde::{Deserialize, Serialize};

/// One row of prediction input.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PredictRow {
    /// Contextual features, `model.num_cf()` wide.
    pub cf: Vec<f64>,
    /// RU history, oldest first, `config.history_window` wide.
    pub history: Vec<f64>,
}

/// `POST /predict` request body.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PredictRequest {
    /// Environment name — selects the registry and the model.
    pub env: String,
    /// EM value tuple of the environment (unknown values fall back to
    /// the `<unk>` embedding).
    pub em: Vec<String>,
    /// Rows to predict; all share the request's environment.
    pub rows: Vec<PredictRow>,
}

/// `POST /predict` success body.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PredictResponse {
    /// Registry version of the model that produced the predictions.
    pub model_version: u64,
    /// One predicted RU value per request row, in request order.
    pub predictions: Vec<f64>,
}

/// Error body for every non-2xx response.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ErrorResponse {
    /// Human-readable cause.
    pub error: String,
}

/// Why a prediction could not be served.
#[derive(Debug, Clone)]
pub enum ServeError {
    /// No registry exists for the requested environment (404).
    UnknownEnv(String),
    /// The environment's registry has no published model yet (503).
    NoModelPublished(String),
    /// The latest published blob failed to deserialise (503).
    BadModelBlob(String),
    /// The request payload is malformed or shape-mismatched (400).
    InvalidRequest(String),
}

impl ServeError {
    /// HTTP status the error maps to.
    pub fn status(&self) -> u16 {
        match self {
            ServeError::UnknownEnv(_) => 404,
            ServeError::NoModelPublished(_) | ServeError::BadModelBlob(_) => 503,
            ServeError::InvalidRequest(_) => 400,
        }
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::UnknownEnv(env) => write!(f, "unknown environment `{env}`"),
            ServeError::NoModelPublished(env) => {
                write!(f, "no model published yet for environment `{env}`")
            }
            ServeError::BadModelBlob(env) => {
                write!(f, "latest model blob for `{env}` failed to load")
            }
            ServeError::InvalidRequest(what) => write!(f, "invalid request: {what}"),
        }
    }
}

impl std::error::Error for ServeError {}
