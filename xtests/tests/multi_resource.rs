//! §4.2 multi-resource claim: the same architecture screens memory
//! problems (leak-style drifts) exactly as it screens CPU — only the
//! target series changes.

use env2vec::anomaly::AnomalyDetector;
use env2vec::config::Env2VecConfig;
use env2vec::dataframe::Dataframe;
use env2vec::pipeline::{screen_new_build_resource, Resource};
use env2vec::train::train_env2vec;
use env2vec::vocab::EmVocabulary;
use env2vec_datagen::telecom::{TelecomConfig, TelecomDataset};
use env2vec_telemetry::alarms::AlarmStore;

fn dataset() -> TelecomDataset {
    let mut cfg = TelecomConfig::small();
    cfg.num_chains = 6;
    cfg.fault_fraction = 1.0;
    TelecomDataset::generate(cfg)
}

fn train_memory_model(dataset: &TelecomDataset) -> env2vec::Env2VecModel {
    let window = 2;
    let mut vocab = EmVocabulary::telecom();
    let mut frames = Vec::new();
    for chain in &dataset.chains {
        for ex in chain.history() {
            frames.push(
                Dataframe::from_series(&ex.cf, &ex.mem, &ex.labels.values(), window, &mut vocab)
                    .unwrap(),
            );
        }
    }
    let (train, val) = Dataframe::pooled_split(&frames, 0.15).unwrap();
    let mut cfg = Env2VecConfig::fast();
    cfg.max_epochs = 20;
    train_env2vec(cfg, vocab, &train, &val).unwrap().0
}

#[test]
fn memory_model_fits_memory_series() {
    let ds = dataset();
    let model = train_memory_model(&ds);
    // Clean-memory MAE should be small across chains: memory is
    // session-driven and observable through the CFs.
    let mut total = 0.0;
    for chain in &ds.chains {
        let cur = chain.current();
        let df = Dataframe::from_series_frozen(
            &cur.cf,
            &cur.clean_mem,
            &cur.labels.values(),
            2,
            model.vocab(),
        )
        .unwrap();
        let pred = model.predict(&df).unwrap();
        total += pred
            .iter()
            .zip(&df.target)
            .map(|(p, t)| (p - t).abs())
            .sum::<f64>()
            / df.len() as f64;
    }
    let mean_mae = total / ds.chains.len() as f64;
    assert!(mean_mae < 6.0, "memory model MAE {mean_mae}");
}

#[test]
fn memory_leaks_raise_memory_alarms() {
    let ds = dataset();
    let model = train_memory_model(&ds);
    let alarms = AlarmStore::new();
    let detector = AnomalyDetector::new(2.0);

    let mut chains_with_mem_faults = 0;
    let mut chains_alarmed = 0;
    for chain in &ds.chains {
        screen_new_build_resource(&model, chain, &detector, &alarms, Resource::Memory).unwrap();
        let current = chain.current();
        if current.mem_faults.is_empty() {
            continue;
        }
        chains_with_mem_faults += 1;
        let env_alarms = alarms.by_env_label("env", &env2vec::pipeline::em_record_id(current));
        let hit = env_alarms.iter().any(|a| {
            current
                .mem_faults
                .iter()
                .any(|f| a.start <= (f.end + 2) as i64 && f.start as i64 <= a.end)
        });
        if hit {
            chains_alarmed += 1;
        }
    }
    assert!(
        chains_with_mem_faults > 0,
        "generator must inject memory faults"
    );
    assert!(
        chains_alarmed * 2 >= chains_with_mem_faults,
        "memory leaks detected on only {chains_alarmed}/{chains_with_mem_faults} chains"
    );
    // Alarms are labelled with the memory metric.
    assert!(alarms.all().iter().all(|a| a.metric == "mem_usage"));
}
