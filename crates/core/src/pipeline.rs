//! The Figure 2 testing workflow, end to end.
//!
//! Wires the model into the telemetry substrate exactly as the paper's
//! deployment does:
//!
//! 1. **Testbed data collection** — [`collect_execution`] registers the
//!    execution's collector endpoint in service discovery (with its EM
//!    record id under the `env` label) and streams WMs/PMs/RU into the
//!    TSDB.
//! 3. **Prediction pipeline** — [`read_dataframe`] pulls the monitoring
//!    data back out of the TSDB by `env` label and assembles the Table 2
//!    dataframe.
//! 4. **Raising alarms** — [`history_error_distribution`] fits the
//!    chain's error distribution on its historical builds;
//!    [`screen_new_build`] scores the new build against it and pushes one
//!    alarm per anomalous interval into the alarm store, each pinpointing
//!    the testbed and the time interval.
//! 5. **Updating the model** — [`publish_model`] / [`fetch_latest_model`]
//!    round-trip the serialised model through the registry.
//!
//! (Step 2, training, lives in [`crate::train`].)

use env2vec_datagen::telecom::workload::CF_NAMES;
use env2vec_datagen::telecom::{BuildChain, Execution};
use env2vec_linalg::stats::Gaussian;
use env2vec_linalg::{Error, Matrix, Result};
use env2vec_telemetry::alarms::{AlarmStore, NewAlarm};
use env2vec_telemetry::discovery::{ScrapeTarget, ServiceDiscovery};
use env2vec_telemetry::labels::{LabelMatcher, LabelSet};
use env2vec_telemetry::registry::ModelRegistry;
use env2vec_telemetry::tsdb::{Sample, TimeSeriesDb};

use crate::anomaly::AnomalyDetector;
use crate::dataframe::Dataframe;
use crate::model::Env2VecModel;
use crate::serialize::{load_model, save_model};
use crate::vocab::EmVocabulary;

/// The EM record id linking an execution's metrics to its metadata.
pub fn em_record_id(ex: &Execution) -> String {
    format!(
        "EM_{}_{}_{}_{}",
        ex.labels.testbed, ex.labels.sut, ex.labels.testcase, ex.labels.build
    )
}

/// The full label set attached to an execution's series.
pub fn execution_labels(ex: &Execution) -> LabelSet {
    LabelSet::new()
        .with("env", em_record_id(ex))
        .with("testbed", ex.labels.testbed.clone())
        .with("sut", ex.labels.sut.clone())
        .with("testcase", ex.labels.testcase.clone())
        .with("build", ex.labels.build.clone())
}

/// Step 1: registers the execution in service discovery and streams its
/// metrics into the TSDB.
///
/// CF columns are stored as `cf_<name>` series and the CPU as
/// `cpu_usage`, all labelled with the EM record id.
pub fn collect_execution(tsdb: &TimeSeriesDb, discovery: &mut ServiceDiscovery, ex: &Execution) {
    let _span = env2vec_obs::span!("pipeline/collect_execution", chain = ex.chain_id);
    env2vec_obs::metrics()
        .counter("pipeline_collections_total")
        .inc();
    let env_id = em_record_id(ex);
    discovery.register(ScrapeTarget::for_env(
        format!("collector-{}:9100", ex.chain_id),
        env_id,
    ));
    let labels = execution_labels(ex);
    for (col, name) in CF_NAMES.iter().enumerate() {
        let samples: Vec<Sample> = (0..ex.len())
            .map(|t| Sample {
                timestamp: t as i64,
                value: ex.cf.get(t, col),
            })
            .collect();
        tsdb.append_series(&format!("cf_{name}"), &labels, &samples);
    }
    let cpu: Vec<Sample> = ex
        .cpu
        .iter()
        .enumerate()
        .map(|(t, &v)| Sample {
            timestamp: t as i64,
            value: v,
        })
        .collect();
    tsdb.append_series("cpu_usage", &labels, &cpu);
    let mem: Vec<Sample> = ex
        .mem
        .iter()
        .enumerate()
        .map(|(t, &v)| Sample {
            timestamp: t as i64,
            value: v,
        })
        .collect();
    tsdb.append_series("mem_usage", &labels, &mem);
}

/// Step 3 input: reads an execution's series back out of the TSDB and
/// assembles the model dataframe with a frozen vocabulary.
///
/// Returns an error when the environment has no data or series lengths
/// disagree.
pub fn read_dataframe(
    tsdb: &TimeSeriesDb,
    ex: &Execution,
    window: usize,
    vocab: &EmVocabulary,
) -> Result<Dataframe> {
    let env_id = em_record_id(ex);
    let _span = env2vec_obs::span!("pipeline/read_dataframe", env = env_id);
    env2vec_obs::metrics()
        .counter("pipeline_dataframe_reads_total")
        .inc();
    let matchers = [LabelMatcher::eq("env", env_id)];
    let cpu_series = tsdb.query_range("cpu_usage", &matchers, 0, i64::MAX);
    let cpu_series = cpu_series.first().ok_or(Error::Empty {
        routine: "read_dataframe: no cpu series",
    })?;
    let cpu: Vec<f64> = cpu_series.samples.iter().map(|s| s.value).collect();

    let mut columns: Vec<Vec<f64>> = Vec::with_capacity(CF_NAMES.len());
    for name in CF_NAMES {
        let series = tsdb.query_range(&format!("cf_{name}"), &matchers, 0, i64::MAX);
        let series = series.first().ok_or(Error::Empty {
            routine: "read_dataframe: missing cf series",
        })?;
        if series.samples.len() != cpu.len() {
            return Err(Error::ShapeMismatch {
                op: "read_dataframe",
                lhs: (series.samples.len(), 1),
                rhs: (cpu.len(), 1),
            });
        }
        columns.push(series.samples.iter().map(|s| s.value).collect());
    }
    let cf = Matrix::from_fn(cpu.len(), CF_NAMES.len(), |t, j| columns[j][t]);
    Dataframe::from_series_frozen(&cf, &cpu, &ex.labels.values(), window, vocab)
}

/// Which resource series of an execution a model predicts and screens.
///
/// §4.2: "This approach can be used for detecting performance problems
/// across many types of resources such as CPU, memory and disk, or other
/// VNF specific KPIs."
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resource {
    /// CPU utilisation (the paper's headline target).
    Cpu,
    /// Memory utilisation (leak-style problems).
    Memory,
}

impl Resource {
    /// The TSDB metric name for this resource.
    pub fn metric(self) -> &'static str {
        match self {
            Resource::Cpu => "cpu_usage",
            Resource::Memory => "mem_usage",
        }
    }

    /// The observed series of an execution.
    pub fn series(self, ex: &Execution) -> &[f64] {
        match self {
            Resource::Cpu => &ex.cpu,
            Resource::Memory => &ex.mem,
        }
    }
}

/// The chain's baseline for step 4: the Gaussian of the model's
/// prediction errors over every historical build of `chain`, predicted in
/// build order with the model's own vocabulary and history window.
///
/// Returns an error when the chain has no history, a build is not longer
/// than the window, or prediction fails.
pub fn history_error_distribution(
    model: &Env2VecModel,
    chain: &BuildChain,
    resource: Resource,
) -> Result<Gaussian> {
    let mut predicted = Vec::new();
    let mut observed = Vec::new();
    for ex in chain.history() {
        let df = Dataframe::from_series_frozen(
            &ex.cf,
            resource.series(ex),
            &ex.labels.values(),
            model.config.history_window,
            model.vocab(),
        )?;
        predicted.extend(model.predict(&df)?);
        observed.extend_from_slice(&df.target);
    }
    AnomalyDetector::fit_error_distribution(&predicted, &observed)
}

/// Steps 3–4: scores a chain's current build against its history and
/// pushes one alarm per anomalous interval (CPU, the paper's headline
/// resource).
///
/// Returns the raised alarm ids. Historical executions provide the error
/// distribution; the dataframe window offset is added back so alarm
/// intervals are in raw timestep coordinates.
pub fn screen_new_build(
    model: &Env2VecModel,
    chain: &BuildChain,
    detector: &AnomalyDetector,
    alarms: &AlarmStore,
) -> Result<Vec<u64>> {
    screen_new_build_resource(model, chain, detector, alarms, Resource::Cpu)
}

/// [`screen_new_build`] generalised over the target resource: the model
/// must have been trained on the same resource's series.
pub fn screen_new_build_resource(
    model: &Env2VecModel,
    chain: &BuildChain,
    detector: &AnomalyDetector,
    alarms: &AlarmStore,
    resource: Resource,
) -> Result<Vec<u64>> {
    let mut span = env2vec_obs::span!(
        "pipeline/screen_new_build",
        testbed = chain.testbed,
        resource = resource.metric(),
    );
    env2vec_obs::metrics()
        .counter("pipeline_screens_total")
        .inc();
    let window = model.config.history_window;
    let dist = history_error_distribution(model, chain, resource)?;

    // Score the new build.
    let current = chain.current();
    let df = Dataframe::from_series_frozen(
        &current.cf,
        resource.series(current),
        &current.labels.values(),
        window,
        model.vocab(),
    )?;
    let predicted = model.predict(&df)?;
    let intervals = detector.detect(&dist, &predicted, &df.target)?;

    span.arg("alarms", intervals.len());
    env2vec_obs::metrics()
        .counter_with(
            "pipeline_alarms_total",
            LabelSet::new().with("resource", resource.metric()),
        )
        .inc_by(intervals.len() as u64);
    if !intervals.is_empty() {
        env2vec_obs::info!(
            "alarms raised";
            testbed = chain.testbed,
            build = current.labels.build,
            resource = resource.metric(),
            count = intervals.len(),
        );
    }

    let labels = execution_labels(current);
    let ids = intervals
        .iter()
        .map(|iv| {
            alarms.push(NewAlarm {
                env: labels.clone(),
                metric: resource.metric().into(),
                start: (iv.start + window) as i64,
                end: (iv.end - 1 + window) as i64,
                gamma: detector.gamma,
                predicted: iv.predicted_at_peak,
                observed: iv.observed_at_peak,
                message: format!(
                    "{} deviates from chain baseline on {} ({})",
                    resource.metric(),
                    chain.testbed,
                    current.labels.build
                ),
            })
        })
        .collect();
    Ok(ids)
}

/// Step 2 output / step 5 input: publishes a trained model to the
/// registry.
pub fn publish_model(registry: &ModelRegistry, tag: &str, model: &Env2VecModel) -> u64 {
    registry.publish(tag, save_model(model).into_bytes())
}

/// Step 5: fetches and deserialises the latest published model.
///
/// Returns an error when the registry is empty or the blob is malformed.
pub fn fetch_latest_model(registry: &ModelRegistry) -> Result<Env2VecModel> {
    let latest = registry.latest().ok_or(Error::Empty {
        routine: "fetch_latest_model",
    })?;
    let json = String::from_utf8(latest.blob).map_err(|_| Error::InvalidArgument {
        what: "model blob is not UTF-8",
    })?;
    load_model(&json)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Env2VecConfig;
    use crate::train::train_env2vec;
    use env2vec_datagen::telecom::{TelecomConfig, TelecomDataset};

    fn tiny_dataset() -> TelecomDataset {
        let mut cfg = TelecomConfig::small();
        cfg.num_chains = 4;
        cfg.builds_per_chain = 3;
        cfg.steps_per_execution = 72;
        cfg.fault_fraction = 1.0;
        TelecomDataset::generate(cfg)
    }

    /// Trains a quick model on the dataset's historical executions.
    fn quick_model(ds: &TelecomDataset) -> Env2VecModel {
        let window = 2;
        let mut vocab = EmVocabulary::telecom();
        let mut frames = Vec::new();
        for chain in &ds.chains {
            for ex in chain.history() {
                frames.push(
                    Dataframe::from_series(
                        &ex.cf,
                        &ex.cpu,
                        &ex.labels.values(),
                        window,
                        &mut vocab,
                    )
                    .unwrap(),
                );
            }
        }
        let all = Dataframe::concat(&frames).unwrap();
        let (train, val) = all.split_validation(0.15).unwrap();
        let mut cfg = Env2VecConfig::fast();
        cfg.max_epochs = 12;
        let (model, _) = train_env2vec(cfg, vocab, &train, &val).unwrap();
        model
    }

    #[test]
    fn collect_and_read_round_trip() {
        let ds = tiny_dataset();
        let tsdb = TimeSeriesDb::new();
        let mut discovery = ServiceDiscovery::new();
        let ex = &ds.chains[0].executions[0];
        collect_execution(&tsdb, &mut discovery, ex);

        // Service discovery carries the EM record id, as in §3 step 1.
        assert_eq!(discovery.targets().len(), 1);
        assert_eq!(
            discovery.targets()[0].env(),
            Some(em_record_id(ex).as_str())
        );

        // Dataframe read back from the TSDB matches one built directly.
        let mut vocab = EmVocabulary::telecom();
        vocab.encode_or_add(&ex.labels.values());
        let via_tsdb = read_dataframe(&tsdb, ex, 2, &vocab).unwrap();
        let direct =
            Dataframe::from_series_frozen(&ex.cf, &ex.cpu, &ex.labels.values(), 2, &vocab).unwrap();
        assert_eq!(via_tsdb.target, direct.target);
        assert_eq!(via_tsdb.cf, direct.cf);
        assert_eq!(via_tsdb.em, direct.em);
    }

    #[test]
    fn read_dataframe_fails_without_collection() {
        let ds = tiny_dataset();
        let tsdb = TimeSeriesDb::new();
        let vocab = EmVocabulary::telecom();
        let ex = &ds.chains[0].executions[0];
        assert!(read_dataframe(&tsdb, ex, 2, &vocab).is_err());
    }

    #[test]
    fn screening_faulty_build_raises_located_alarms() {
        let ds = tiny_dataset();
        let model = quick_model(&ds);
        let alarms = AlarmStore::new();
        let detector = AnomalyDetector::new(2.0);

        let mut any_faulty_alarmed = false;
        for chain in &ds.chains {
            let ids = screen_new_build(&model, chain, &detector, &alarms).unwrap();
            if chain.current().has_faults() && !ids.is_empty() {
                any_faulty_alarmed = true;
            }
        }
        assert!(
            any_faulty_alarmed,
            "at least one injected fault must raise an alarm"
        );
        // Every alarm pinpoints a testbed and a valid interval.
        for alarm in alarms.all() {
            assert!(alarm.env.get("testbed").is_some());
            assert!(alarm.start <= alarm.end);
            assert_eq!(alarm.metric, "cpu_usage");
        }
    }

    #[test]
    fn resource_selector_maps_series_and_metric() {
        let ds = tiny_dataset();
        let ex = &ds.chains[0].executions[0];
        assert_eq!(Resource::Cpu.metric(), "cpu_usage");
        assert_eq!(Resource::Memory.metric(), "mem_usage");
        assert_eq!(Resource::Cpu.series(ex), ex.cpu.as_slice());
        assert_eq!(Resource::Memory.series(ex), ex.mem.as_slice());
    }

    #[test]
    fn collected_memory_series_round_trips_through_tsdb() {
        let ds = tiny_dataset();
        let tsdb = TimeSeriesDb::new();
        let mut discovery = ServiceDiscovery::new();
        let ex = &ds.chains[1].executions[0];
        collect_execution(&tsdb, &mut discovery, ex);
        let series = tsdb.query_range(
            "mem_usage",
            &[LabelMatcher::eq("env", em_record_id(ex))],
            0,
            i64::MAX,
        );
        assert_eq!(series.len(), 1);
        let values: Vec<f64> = series[0].samples.iter().map(|s| s.value).collect();
        assert_eq!(values, ex.mem);
    }

    #[test]
    fn model_registry_round_trip() {
        let ds = tiny_dataset();
        let model = quick_model(&ds);
        let registry = ModelRegistry::new();
        assert!(fetch_latest_model(&registry).is_err());
        let v = publish_model(&registry, "daily-2020-04-27", &model);
        assert_eq!(v, 1);
        let fetched = fetch_latest_model(&registry).unwrap();
        // Same predictions after the fetch, as required for step 5.
        let ex = &ds.chains[0].executions[0];
        let df = Dataframe::from_series_frozen(
            &ex.cf,
            &ex.cpu,
            &ex.labels.values(),
            model.config.history_window,
            model.vocab(),
        )
        .unwrap();
        assert_eq!(model.predict(&df).unwrap(), fetched.predict(&df).unwrap());
    }
}
