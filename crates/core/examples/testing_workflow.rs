//! The complete Figure 2 testing workflow against the telemetry substrate.
//!
//! Walks all five numbered steps of the paper's §3:
//!
//! 1. testbed data collection into the TSDB + service discovery,
//! 2. daily model training on unflagged data,
//! 3. the prediction pipeline reading dataframes back from the TSDB,
//! 4. alarms pushed into the alarm store (the PostgreSQL stand-in),
//! 5. model publish/fetch through the registry (the HTTP server stand-in).
//!
//! Run with: `cargo run --release -p env2vec --example testing_workflow`

use env2vec::anomaly::AnomalyDetector;
use env2vec::config::Env2VecConfig;
use env2vec::dataframe::Dataframe;
use env2vec::pipeline::{
    collect_execution, em_record_id, fetch_latest_model, publish_model, read_dataframe,
    screen_new_build,
};
use env2vec::train::train_env2vec;
use env2vec::vocab::EmVocabulary;
use env2vec_datagen::telecom::{TelecomConfig, TelecomDataset};
use env2vec_telemetry::alarms::AlarmStore;
use env2vec_telemetry::discovery::ServiceDiscovery;
use env2vec_telemetry::registry::ModelRegistry;
use env2vec_telemetry::tsdb::TimeSeriesDb;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut gen = TelecomConfig::small();
    gen.fault_fraction = 0.6;
    let dataset = TelecomDataset::generate(gen);
    let window = 2;

    // Shared infrastructure, as in Figure 2.
    let tsdb = TimeSeriesDb::new();
    let mut discovery = ServiceDiscovery::new();
    let alarms = AlarmStore::new();
    let registry = ModelRegistry::new();

    // Step 1: every execution streams its metrics into the TSDB, keyed by
    // its EM record id via service discovery.
    for chain in &dataset.chains {
        for ex in &chain.executions {
            collect_execution(&tsdb, &mut discovery, ex);
        }
    }
    println!(
        "step 1: collected {} series / {} samples; discovery file:\n{}...\n",
        tsdb.num_series(),
        tsdb.num_samples(),
        &discovery.to_json()[..200.min(discovery.to_json().len())]
    );

    // Step 2: daily training on all *historical* (unflagged) data, read
    // back out of the TSDB like the real training pipeline would.
    let mut vocab = EmVocabulary::telecom();
    let mut frames = Vec::new();
    for chain in &dataset.chains {
        for ex in chain.history() {
            // Grow the vocabulary from the EM labels...
            vocab.encode_or_add(&ex.labels.values());
            // ...and assemble the dataframe from TSDB queries.
            frames.push(read_dataframe(&tsdb, ex, window, &vocab)?);
        }
    }
    let (train, val) = Dataframe::pooled_split(&frames, 0.15)?;
    let (model, _) = train_env2vec(Env2VecConfig::fast(), vocab, &train, &val)?;
    println!("step 2: trained daily model on {} rows", train.len());

    // Step 5 (publish side): the training pipeline publishes the model.
    let version = publish_model(&registry, "daily", &model);
    println!("step 5: published model version {version}");

    // Step 5 (fetch side) + steps 3–4: the prediction pipeline fetches the
    // latest model and screens every chain's new build.
    let model = fetch_latest_model(&registry)?;
    let detector = AnomalyDetector::new(2.0);
    let mut chains_alarmed = 0;
    for chain in &dataset.chains {
        let ids = screen_new_build(&model, chain, &detector, &alarms)?;
        if !ids.is_empty() {
            chains_alarmed += 1;
        }
    }
    println!(
        "steps 3-4: screened {} new builds; {} raised alarms ({} alarms total)\n",
        dataset.chains.len(),
        chains_alarmed,
        alarms.len()
    );

    // A testing engineer reviews the alarm store, pinpointing testbeds and
    // intervals (the paper's step 4 requirement).
    for alarm in alarms.all().iter().take(5) {
        println!(
            "alarm #{} {} on {}: t={}..{} observed {:.1}% vs predicted {:.1}% (gamma {})",
            alarm.id,
            alarm.env.get("build").unwrap_or("?"),
            alarm.env.get("testbed").unwrap_or("?"),
            alarm.start,
            alarm.end,
            alarm.observed,
            alarm.predicted,
            alarm.gamma
        );
    }
    // Cross-check one alarm against the generator's ground truth.
    if let Some(alarm) = alarms.all().first() {
        let env = alarm.env.get("env").expect("alarms carry the EM id");
        let chain = dataset
            .chains
            .iter()
            .find(|c| em_record_id(c.current()) == env)
            .expect("alarm points at a generated execution");
        println!(
            "\nground truth for {}: {:?}",
            env,
            chain
                .current()
                .faults
                .iter()
                .map(|f| (f.kind, f.start, f.end))
                .collect::<Vec<_>>()
        );
    }
    Ok(())
}
