//! `loadgen` — request storms against an `env2vec-serve` server.
//!
//! ```text
//! loadgen --self-host [--connections N] [--requests N] [--rows N]
//!         [--mode closed|open] [--rate R] [--trace-every N]
//! loadgen --addr HOST:PORT --env NAME [--connections N] ...
//! ```
//!
//! `--trace-every N` stamps a W3C `traceparent` header (`sampled=1`) on
//! every Nth request; after the storm the retained-trace count is pulled
//! from `GET /traces/slow` and one retained trace is round-tripped
//! through `GET /trace/{id}`.
//!
//! `--self-host` trains a small model, publishes it to an in-process
//! registry, starts the server on an ephemeral port with the server's
//! default batching, and storms it — a one-command demo and the shape
//! the CI smoke test uses. With `--addr`, the storm targets an
//! already-running server instead.

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::Arc;

use env2vec::config::Env2VecConfig;
use env2vec::dataframe::Dataframe;
use env2vec::model::Env2VecModel;
use env2vec::serialize::save_model;
use env2vec::vocab::EmVocabulary;
use env2vec_linalg::Matrix;
use env2vec_serve::batch::BatchOptions;
use env2vec_serve::loadgen::{self, LoadgenOptions, Pacing};
use env2vec_serve::server::{Server, ServerOptions};
use env2vec_serve::trace_store::TraceBufferConfig;
use env2vec_telemetry::registry::RegistryHub;

fn usage() -> &'static str {
    "usage:\n  loadgen --self-host [--connections N] [--requests N] [--rows N] \
     [--mode closed|open] [--rate R] [--trace-every N]\n  \
     loadgen --addr HOST:PORT --env NAME [--em a,b,c,d] [--num-cf N] [--history N] \
     [--connections N] [--requests N] [--rows N] [--mode closed|open] [--rate R] \
     [--trace-every N]"
}

const BOOLEAN_FLAGS: [&str; 1] = ["self-host"];

/// Every flag that takes a value. A key in neither this list nor
/// [`BOOLEAN_FLAGS`] is rejected, so a misspelt flag cannot silently
/// fall back to its default.
const VALUE_FLAGS: [&str; 11] = [
    "connections",
    "requests",
    "rows",
    "mode",
    "rate",
    "trace-every",
    "addr",
    "env",
    "em",
    "num-cf",
    "history",
];

fn parse_flags(args: &[String]) -> Result<BTreeMap<String, String>, String> {
    let mut flags = BTreeMap::new();
    let mut i = 0;
    while i < args.len() {
        let key = args[i]
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --flag, got '{}'\n{}", args[i], usage()))?;
        if BOOLEAN_FLAGS.contains(&key) {
            flags.insert(key.to_string(), "true".to_string());
            i += 1;
            continue;
        }
        if !VALUE_FLAGS.contains(&key) {
            return Err(format!("unknown flag --{key}\n{}", usage()));
        }
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("--{key} needs a value"))?;
        flags.insert(key.to_string(), value.clone());
        i += 2;
    }
    Ok(flags)
}

fn numeric<T: std::str::FromStr>(
    flags: &BTreeMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, String> {
    match flags.get(key) {
        Some(raw) => raw
            .parse()
            .map_err(|_| format!("--{key}: bad value '{raw}'")),
        None => Ok(default),
    }
}

/// The small in-process model `--self-host` serves.
fn self_host_model() -> Result<Env2VecModel, String> {
    let mut vocab = EmVocabulary::telecom();
    let cf = Matrix::from_fn(60, 3, |i, j| ((i * 3 + j) % 11) as f64);
    let ru: Vec<f64> = (0..60).map(|i| 25.0 + (i % 9) as f64).collect();
    let df = Dataframe::from_series(&cf, &ru, &["tb", "s", "tc", "b"], 2, &mut vocab)
        .map_err(|e| format!("dataframe: {e:?}"))?;
    Env2VecModel::new(Env2VecConfig::fast(), vocab, &df).map_err(|e| format!("model: {e:?}"))
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flags = parse_flags(&args)?;
    let connections = numeric(&flags, "connections", 4usize)?;
    let requests = numeric(&flags, "requests", 200usize)?;
    let rows = numeric(&flags, "rows", 32usize)?;
    let trace_every = numeric(&flags, "trace-every", 0usize)?;
    let pacing = match flags.get("mode").map(String::as_str) {
        None | Some("closed") => Pacing::ClosedLoop,
        Some("open") => Pacing::OpenLoop {
            rate: numeric(&flags, "rate", 500.0f64)?,
        },
        Some(other) => return Err(format!("--mode: '{other}' (expected closed|open)")),
    };

    // Self-hosted server, if requested; kept alive for the storm.
    let hosted: Option<Server>;
    let (addr, env, em, num_cf, history_window) = if flags.contains_key("self-host") {
        let model = self_host_model()?;
        let hub = Arc::new(RegistryHub::new());
        hub.registry("selfhost")
            .publish("loadgen", save_model(&model).into_bytes());
        let server = Server::start(
            hub,
            ServerOptions {
                addr: "127.0.0.1:0".parse().map_err(|_| "addr".to_string())?,
                batch: BatchOptions::default(),
                // Mirror the client's 1-in-N rate as server-side head
                // sampling so unsampled-but-interesting traffic is
                // retained at the same deterministic rate.
                trace: TraceBufferConfig {
                    head_sample_every: trace_every as u64,
                },
            },
        )
        .map_err(|e| format!("server start: {e}"))?;
        let addr = server.addr();
        hosted = Some(server);
        (
            addr,
            "selfhost".to_string(),
            vec!["tb".into(), "s".into(), "tc".into(), "b".into()],
            3,
            2,
        )
    } else {
        hosted = None;
        let addr = flags
            .get("addr")
            .ok_or_else(|| format!("--addr or --self-host required\n{}", usage()))?
            .parse()
            .map_err(|_| "--addr: bad HOST:PORT".to_string())?;
        let env = flags
            .get("env")
            .ok_or_else(|| "--env required with --addr".to_string())?
            .clone();
        let em: Vec<String> = flags
            .get("em")
            .map(|s| s.split(',').map(str::to_string).collect())
            .unwrap_or_else(|| vec!["tb".into(), "s".into(), "tc".into(), "b".into()]);
        (
            addr,
            env,
            em,
            numeric(&flags, "num-cf", 3usize)?,
            numeric(&flags, "history", 2usize)?,
        )
    };

    let report = loadgen::run(&LoadgenOptions {
        addr,
        env,
        em,
        connections,
        requests_per_connection: requests,
        rows_per_request: rows,
        num_cf,
        history_window,
        pacing,
        trace_every: (trace_every > 0).then_some(trace_every),
    });
    // Pull retained traces while the (possibly self-hosted) server is
    // still up.
    let trace_summary = if trace_every > 0 {
        Some(check_traces(addr, connections * requests, trace_every)?)
    } else {
        None
    };
    if let Some(server) = &hosted {
        server.shutdown();
    }
    println!(
        "{}",
        serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?
    );
    if let Some(line) = trace_summary {
        println!("{line}");
    }
    if report.errors > 0 {
        return Err(format!("{} requests failed", report.errors));
    }
    Ok(())
}

/// Fetches `/traces/slow`, echoes the retained count, and round-trips
/// one retained trace through `GET /trace/{id}`. Errors if the server
/// retained nothing despite tracing being on, or if the round-trip
/// fails.
fn check_traces(
    addr: std::net::SocketAddr,
    total_requests: usize,
    trace_every: usize,
) -> Result<String, String> {
    let response = loadgen::http_get(addr, "/traces/slow")
        .map_err(|e| format!("GET /traces/slow failed: {e:?}"))?;
    if response.status != 200 {
        return Err(format!("GET /traces/slow -> HTTP {}", response.status));
    }
    let text =
        std::str::from_utf8(&response.body).map_err(|_| "traces body not UTF-8".to_string())?;
    let parsed = serde_json::parse_value(text).map_err(|_| "traces body not JSON".to_string())?;
    let retained = match parsed.field("retained") {
        Ok(serde::Value::Int(n)) => *n as u64,
        Ok(serde::Value::UInt(n)) => *n,
        _ => return Err("traces body missing `retained`".to_string()),
    };
    if retained == 0 {
        return Err("tracing was on but the server retained no traces".to_string());
    }
    let slow = match parsed.field("traces") {
        Ok(serde::Value::Array(traces)) => traces.len(),
        _ => return Err("traces body missing `traces`".to_string()),
    };
    // Round-trip one retained trace by id: prefer a slow one; when none
    // crossed the slow threshold, fall back to the last stamped request,
    // whose trace id is deterministic (seeded from the global request
    // index, and the server's child context keeps the trace id).
    let id = match parsed.field("traces") {
        Ok(serde::Value::Array(traces)) => match traces.first().map(|t| t.field("trace_id")) {
            Some(Ok(serde::Value::Str(id))) => id.clone(),
            Some(_) => return Err("trace record missing `trace_id`".to_string()),
            None => {
                let last_stamped = ((total_requests.max(1) - 1) / trace_every) * trace_every;
                env2vec_obs::TraceContext::from_seed(last_stamped as u64, true).trace_id_hex()
            }
        },
        _ => return Err("traces body missing `traces`".to_string()),
    };
    let one = loadgen::http_get(addr, &format!("/trace/{id}"))
        .map_err(|e| format!("GET /trace/{id} failed: {e:?}"))?;
    if one.status != 200 {
        return Err(format!("GET /trace/{id} -> HTTP {}", one.status));
    }
    let body = std::str::from_utf8(&one.body).map_err(|_| "trace body not UTF-8".to_string())?;
    if !body.contains(&id) {
        return Err(format!("GET /trace/{id} body does not echo the id"));
    }
    Ok(format!(
        "traces: retained={retained} slow={slow} round-trip={id} ok"
    ))
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("loadgen: {message}");
            ExitCode::FAILURE
        }
    }
}
