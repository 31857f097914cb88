//! Library backing the `env2vec` command-line tool.
//!
//! Each subcommand is a plain function over values (JSON strings in,
//! JSON/plain strings out) so the whole tool is unit-testable without a
//! process boundary; `src/bin/env2vec.rs` only parses arguments and does
//! file I/O. Alarm output uses a stable JSON schema (see [`AlarmRecord`])
//! suitable for piping into downstream tooling.

#![warn(missing_docs)]

use env2vec::anomaly::AnomalyDetector;
use env2vec::config::Env2VecConfig;
use env2vec::dataframe::Dataframe;
use env2vec::pipeline::{history_error_distribution, Resource};
use env2vec::serialize::{load_model, save_model};
use env2vec::train::{train_env2vec_observed, ObsTrainObserver};
use env2vec::vocab::EmVocabulary;
use env2vec::Env2VecModel;
use env2vec_datagen::telecom::{BuildChain, TelecomConfig, TelecomDataset};
use serde::{Deserialize, Serialize};

/// Errors surfaced to the CLI user.
#[derive(Debug)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

impl From<env2vec_linalg::Error> for CliError {
    fn from(e: env2vec_linalg::Error) -> Self {
        CliError(e.to_string())
    }
}

/// Convenient result alias.
pub type Result<T> = std::result::Result<T, CliError>;

/// Dataset preset names accepted by `generate`.
pub fn preset(name: &str) -> Result<TelecomConfig> {
    match name {
        "small" => Ok(TelecomConfig::small()),
        "medium" => Ok(TelecomConfig::medium()),
        "paper" => Ok(TelecomConfig::paper()),
        other => Err(CliError(format!(
            "unknown preset '{other}' (expected small|medium|paper)"
        ))),
    }
}

/// `generate`: produces a synthetic testing campaign as JSON.
pub fn generate(preset_name: &str, seed: Option<u64>) -> Result<String> {
    let mut cfg = preset(preset_name)?;
    if let Some(seed) = seed {
        cfg.seed = seed;
    }
    let dataset = TelecomDataset::generate(cfg);
    serde_json::to_string(&dataset).map_err(|e| CliError(e.to_string()))
}

/// Parses a dataset produced by [`generate`].
pub fn parse_dataset(json: &str) -> Result<TelecomDataset> {
    serde_json::from_str(json).map_err(|e| CliError(format!("malformed dataset JSON: {e}")))
}

/// `train`: fits an Env2Vec model on every chain's historical builds.
///
/// Returns `(model_json, summary_line)`.
pub fn train(
    dataset_json: &str,
    epochs: Option<usize>,
    seed: Option<u64>,
) -> Result<(String, String)> {
    let dataset = parse_dataset(dataset_json)?;
    let mut config = Env2VecConfig::default();
    if let Some(epochs) = epochs {
        config.max_epochs = epochs;
    }
    if let Some(seed) = seed {
        config.seed = seed;
    }
    let window = config.history_window;

    let mut vocab = EmVocabulary::telecom();
    let mut frames = Vec::new();
    for chain in &dataset.chains {
        for ex in chain.history() {
            frames.push(Dataframe::from_series(
                &ex.cf,
                &ex.cpu,
                &ex.labels.values(),
                window,
                &mut vocab,
            )?);
        }
    }
    let (train_df, val_df) = Dataframe::pooled_split(&frames, 0.15)?;
    let mut observer = ObsTrainObserver::new("env2vec_cli");
    let (model, report) = train_env2vec_observed(config, vocab, &train_df, &val_df, &mut observer)?;
    let summary = format!(
        "trained on {} rows from {} chains; {} weights; best epoch {} (val MSE {:.5})",
        train_df.len(),
        dataset.chains.len(),
        model.params().num_weights(),
        report.best_epoch,
        report.val_losses[report.best_epoch],
    );
    Ok((save_model(&model), summary))
}

/// One alarm in the `screen` output schema.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AlarmRecord {
    /// Chain the alarm belongs to.
    pub chain_id: usize,
    /// Testbed of the screened execution.
    pub testbed: String,
    /// Build under test.
    pub build: String,
    /// First anomalous timestep (raw execution coordinates).
    pub start: usize,
    /// Last anomalous timestep (inclusive).
    pub end: usize,
    /// Model prediction at the peak deviation.
    pub predicted: f64,
    /// Observation at the peak deviation.
    pub observed: f64,
    /// γ used.
    pub gamma: f64,
}

/// `screen`: scores every chain's current build against its history.
///
/// Returns `(alarms_json, summary_line)`.
pub fn screen(dataset_json: &str, model_json: &str, gamma: f64) -> Result<(String, String)> {
    let dataset = parse_dataset(dataset_json)?;
    let model = load_model(model_json)?;
    let detector = AnomalyDetector::new(gamma);
    let mut alarms = Vec::new();
    for chain in &dataset.chains {
        alarms.extend(screen_chain(&model, chain, &detector)?);
    }
    let summary = format!(
        "screened {} chains at gamma = {gamma}: {} alarms",
        dataset.chains.len(),
        alarms.len()
    );
    let json = serde_json::to_string_pretty(&alarms).map_err(|e| CliError(e.to_string()))?;
    Ok((json, summary))
}

/// Screens one chain, returning its alarm records.
fn screen_chain(
    model: &Env2VecModel,
    chain: &BuildChain,
    detector: &AnomalyDetector,
) -> Result<Vec<AlarmRecord>> {
    let window = model.config.history_window;
    let dist = history_error_distribution(model, chain, Resource::Cpu)?;
    let current = chain.current();
    let df = Dataframe::from_series_frozen(
        &current.cf,
        &current.cpu,
        &current.labels.values(),
        window,
        model.vocab(),
    )?;
    let predicted = model.predict(&df)?;
    Ok(detector
        .detect(&dist, &predicted, &df.target)?
        .into_iter()
        .map(|iv| AlarmRecord {
            chain_id: chain.id,
            testbed: chain.testbed.clone(),
            build: current.labels.build.clone(),
            start: iv.start + window,
            end: iv.end - 1 + window,
            predicted: iv.predicted_at_peak,
            observed: iv.observed_at_peak,
            gamma: detector.gamma,
        })
        .collect())
}

/// `embed`: prints the concatenated environment embedding of an EM tuple.
pub fn embed(
    model_json: &str,
    testbed: &str,
    sut: &str,
    testcase: &str,
    build: &str,
) -> Result<String> {
    let model = load_model(model_json)?;
    let e = model.environment_embedding(&[testbed, sut, testcase, build])?;
    let formatted: Vec<String> = e.iter().map(|v| format!("{v:.4}")).collect();
    Ok(format!(
        "environment <{testbed}, {sut}, {testcase}, {build}>\nembedding ({} dims): [{}]",
        e.len(),
        formatted.join(", ")
    ))
}

/// `serve`: publishes a saved model into an in-process registry and
/// starts the batched inference server on `addr`.
///
/// Returns the running server; the binary blocks on it (Ctrl-C to
/// stop), tests shut it down explicitly.
pub fn serve(model_json: &str, env: &str, addr: &str) -> Result<env2vec_serve::server::Server> {
    // Validate the blob up front so a bad model file fails at startup,
    // not on the first request.
    load_model(model_json)?;
    let hub = std::sync::Arc::new(env2vec_telemetry::registry::RegistryHub::new());
    hub.registry(env)
        .publish("cli", model_json.as_bytes().to_vec());
    let opts = env2vec_serve::server::ServerOptions {
        addr: addr
            .parse()
            .map_err(|_| CliError(format!("--addr: bad HOST:PORT '{addr}'")))?,
        batch: env2vec_serve::batch::BatchOptions::default(),
        // Slow/error tail-sampling only; head sampling stays off until
        // a client stamps `traceparent` headers.
        trace: env2vec_serve::trace_store::TraceBufferConfig::default(),
    };
    env2vec_serve::server::Server::start(hub, opts)
        .map_err(|e| CliError(format!("server failed to start: {e}")))
}

/// `info`: summarises a saved model.
pub fn info(model_json: &str) -> Result<String> {
    let model = load_model(model_json)?;
    let vocab = model.vocab();
    let vocab_lines: Vec<String> = (0..vocab.num_features())
        .map(|f| {
            format!(
                "  {:<10} {} known values",
                vocab.feature_names()[f],
                vocab.feature(f).len()
            )
        })
        .collect();
    Ok(format!(
        "Env2Vec model\n  weights:      {}\n  CF features:  {}\n  history:      {} steps\n  embedding:    {} dims/feature\n  combination:  {:?}\n  attention:    {}\nEM vocabulary:\n{}",
        model.params().num_weights(),
        model.num_cf(),
        model.config.history_window,
        model.config.embedding_dim,
        model.config.combination,
        model.config.attention,
        vocab_lines.join("\n"),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tests propagate failures with `?` instead of unwrapping so a
    /// broken fixture reports the underlying error, not a panic site.
    type TestResult = std::result::Result<(), Box<dyn std::error::Error>>;

    fn tiny_dataset_json() -> Result<String> {
        let mut cfg = TelecomConfig::small();
        cfg.num_chains = 3;
        cfg.steps_per_execution = 48;
        cfg.fault_fraction = 1.0;
        serde_json::to_string(&TelecomDataset::generate(cfg)).map_err(|e| CliError(e.to_string()))
    }

    #[test]
    fn generate_parses_back() -> TestResult {
        let json = generate("small", Some(9))?;
        let ds = parse_dataset(&json)?;
        assert_eq!(ds.chains.len(), TelecomConfig::small().num_chains);
        assert_eq!(ds.config.seed, 9);
        assert!(preset("nope").is_err());
        assert!(parse_dataset("{bad").is_err());
        Ok(())
    }

    #[test]
    fn train_screen_embed_info_round_trip() -> TestResult {
        let dataset = tiny_dataset_json()?;
        let (model_json, summary) = train(&dataset, Some(10), Some(4))?;
        assert!(summary.contains("trained on"));

        let (alarms_json, screen_summary) = screen(&dataset, &model_json, 1.0)?;
        assert!(screen_summary.contains("screened 3 chains"));
        let alarms: Vec<AlarmRecord> = serde_json::from_str(&alarms_json)?;
        for a in &alarms {
            assert!(a.start <= a.end);
            assert!(a.testbed.starts_with("Testbed_"));
        }

        let ds = parse_dataset(&dataset)?;
        let labels = &ds.chains[0].executions[0].labels;
        let out = embed(
            &model_json,
            &labels.testbed,
            &labels.sut,
            &labels.testcase,
            &labels.build,
        )?;
        assert!(out.contains("embedding (40 dims)"));

        let info_out = info(&model_json)?;
        assert!(info_out.contains("weights"));
        assert!(info_out.contains("testbed"));
        Ok(())
    }

    #[test]
    fn serve_subcommand_boots_and_answers_healthz() -> TestResult {
        use std::io::{Read, Write};
        let dataset = tiny_dataset_json()?;
        let (model_json, _) = train(&dataset, Some(3), Some(4))?;
        assert!(serve("{not a model", "edge", "127.0.0.1:0").is_err());
        assert!(serve(&model_json, "edge", "not-an-addr").is_err());
        let server = serve(&model_json, "edge", "127.0.0.1:0")?;
        let cached = server
            .batcher()
            .cache()
            .get("edge")
            .map_err(|e| e.to_string())?;
        assert_eq!(cached.version, 1);
        let mut stream = std::net::TcpStream::connect(server.addr())?;
        stream.set_read_timeout(Some(std::time::Duration::from_secs(5)))?;
        stream.write_all(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")?;
        let mut response = String::new();
        stream.read_to_string(&mut response)?;
        assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
        server.shutdown();
        Ok(())
    }

    #[test]
    fn screen_rejects_mismatched_model() -> TestResult {
        let dataset = tiny_dataset_json()?;
        assert!(screen(&dataset, "{not a model", 1.0).is_err());
        assert!(train("[]", None, None).is_err());
        Ok(())
    }

    #[test]
    fn malformed_inputs_surface_errors_not_panics() {
        // Every entry point must turn malformed input into a CliError
        // with a useful message.
        let err = parse_dataset("{\"chains\": 3}").expect_err("type mismatch must fail");
        assert!(err.to_string().contains("malformed dataset JSON"));
        assert!(train("{\"chains\": \"oops\"}", None, None).is_err());
        assert!(info("").is_err());
        assert!(embed("null", "t", "s", "c", "b").is_err());
        assert!(generate("smal", None).is_err());
    }
}
