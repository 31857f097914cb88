//! End-to-end integration: datagen → telemetry → core → alarm scoring.
//!
//! Exercises the complete Figure 2 loop across crate boundaries, asserting
//! the properties the paper's deployment relies on.

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
use env2vec_telemetry::labels::LabelMatcher;
use env2vec_telemetry::registry::ModelRegistry;
use env2vec_telemetry::tsdb::TimeSeriesDb;

fn small_dataset() -> TelecomDataset {
    let mut cfg = TelecomConfig::small();
    cfg.num_chains = 6;
    cfg.fault_fraction = 1.0;
    TelecomDataset::generate(cfg)
}

fn train_on(dataset: &TelecomDataset) -> env2vec::Env2VecModel {
    let window = 2;
    let mut vocab = EmVocabulary::telecom();
    let mut frames = Vec::new();
    for chain in &dataset.chains {
        for ex in chain.history() {
            frames.push(
                Dataframe::from_series(&ex.cf, &ex.cpu, &ex.labels.values(), window, &mut vocab)
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
fn full_workflow_detects_injected_problems() {
    let dataset = small_dataset();
    let tsdb = TimeSeriesDb::new();
    let mut discovery = ServiceDiscovery::new();
    let alarms = AlarmStore::new();
    let registry = ModelRegistry::new();

    // Step 1: collect everything.
    for ex in dataset.executions() {
        collect_execution(&tsdb, &mut discovery, ex);
    }
    // One TSDB series per (metric, execution): 14 CFs + CPU + memory.
    let execs = dataset.chains.len() * dataset.config.builds_per_chain;
    assert_eq!(tsdb.num_series(), execs * 16);
    assert_eq!(discovery.targets().len(), execs);

    // Step 2 + 5: train and round-trip through the registry.
    let model = train_on(&dataset);
    publish_model(&registry, "it", &model);
    let model = fetch_latest_model(&registry).unwrap();

    // Steps 3-4: screen every chain.
    let detector = AnomalyDetector::new(2.0);
    let mut caught = 0;
    for chain in &dataset.chains {
        let ids = screen_new_build(&model, chain, &detector, &alarms).unwrap();
        // Every returned id resolves in the store.
        for id in &ids {
            assert!(alarms.all().iter().any(|a| a.id == *id));
        }
        let current = chain.current();
        let hit = alarms
            .by_env_label("env", &em_record_id(current))
            .iter()
            .any(|a| {
                current.faults.iter().any(|f| {
                    a.start <= (f.end + model.config.history_window) as i64
                        && (f.start as i64) <= a.end
                })
            });
        if hit {
            caught += 1;
        }
    }
    // Every chain is faulty here; the detector must catch most of them.
    assert!(
        caught * 2 >= dataset.chains.len(),
        "only {caught}/{} faulty chains produced matching alarms",
        dataset.chains.len()
    );
}

#[test]
fn tsdb_round_trip_preserves_model_input() {
    let dataset = small_dataset();
    let tsdb = TimeSeriesDb::new();
    let mut discovery = ServiceDiscovery::new();
    let ex = &dataset.chains[2].executions[1];
    collect_execution(&tsdb, &mut discovery, ex);

    let mut vocab = EmVocabulary::telecom();
    vocab.encode_or_add(&ex.labels.values());
    let from_tsdb = read_dataframe(&tsdb, ex, 3, &vocab).unwrap();
    let direct =
        Dataframe::from_series_frozen(&ex.cf, &ex.cpu, &ex.labels.values(), 3, &vocab).unwrap();
    assert_eq!(from_tsdb.cf, direct.cf);
    assert_eq!(from_tsdb.history, direct.history);
    assert_eq!(from_tsdb.target, direct.target);
    assert_eq!(from_tsdb.em, direct.em);

    // The TSDB query layer also answers targeted label queries.
    let series = tsdb.query_range(
        "cpu_usage",
        &[LabelMatcher::eq("env", em_record_id(ex))],
        0,
        i64::MAX,
    );
    assert_eq!(series.len(), 1);
    assert_eq!(series[0].samples.len(), ex.len());
}

#[test]
fn alarms_pinpoint_testbed_and_interval() {
    // The paper's step 4 requirement end-to-end: alarms carry everything
    // an engineer needs.
    let dataset = small_dataset();
    let model = train_on(&dataset);
    let alarms = AlarmStore::new();
    let detector = AnomalyDetector::new(1.0);
    for chain in &dataset.chains {
        screen_new_build(&model, chain, &detector, &alarms).unwrap();
    }
    assert!(
        !alarms.is_empty(),
        "gamma=1 must raise alarms on faulty data"
    );
    for alarm in alarms.all() {
        let testbed = alarm.env.get("testbed").expect("testbed label present");
        assert!(testbed.starts_with("Testbed_"));
        assert!(alarm.env.get("build").is_some());
        assert!(alarm.start <= alarm.end);
        assert_eq!(alarm.gamma, 1.0);
        assert!(alarm.message.contains(testbed));
    }
}
