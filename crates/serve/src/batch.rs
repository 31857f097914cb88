//! Request batcher: coalesces concurrent same-environment predictions.
//!
//! # Algorithm (leader/follower, natural batching)
//!
//! Each environment has one queue. The first submission to find the
//! queue leaderless appoints itself **leader**; everyone else is a
//! **follower** that appends its rows and sleeps on a per-submission
//! result slot. A leader whose environment has no batch executing runs
//! at once. Otherwise it waits on the queue's condvar until that
//! environment's running batch finishes or `max_rows` rows are queued,
//! so requests coalesce when they arrive while their environment's
//! batch runs, and no request ever waits for a clock. The
//! leader then takes the whole queue (its own rows included), clears
//! the leader flag so the next arrival starts the *next* batch while
//! this one computes (pipelining), runs one batched `Model::predict`,
//! and distributes the per-row results to each submission's slot.
//!
//! Batching is invisible in the outputs: `Model::predict` is
//! row-independent, so a row's prediction does not depend on which
//! batch carried it (asserted against solo `predict` by the tests
//! below).

use std::collections::BTreeMap;
use std::sync::{Arc, Condvar};
use std::time::Instant;

use env2vec::dataframe::Dataframe;
use env2vec_linalg::Matrix;
use env2vec_telemetry::locks::{self, TrackedMutex, TrackedRwLock};

use crate::model_cache::{CachedModel, ModelCache};
use crate::{PredictRequest, ServeError};

/// Bucket bounds for the rows-per-batch occupancy histogram (powers of
/// two up to `max_rows`' default).
const BATCH_ROWS_BOUNDS: [f64; 9] = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0];

/// Batching knobs.
#[derive(Debug, Clone, Copy)]
pub struct BatchOptions {
    /// Queued row count at which a leader stops waiting for its
    /// environment's running batch and starts the next one alongside it.
    pub max_rows: usize,
}

impl Default for BatchOptions {
    fn default() -> Self {
        BatchOptions { max_rows: 256 }
    }
}

type RowResult = Result<(u64, Vec<f64>), ServeError>;

/// What the batch did with one submission — diagnostics riding along
/// with the result, recorded into the request's trace. Carries no
/// numeric payload, so it can never perturb predictions.
#[derive(Debug, Clone, Copy, Default)]
pub struct BatchTrace {
    /// Seconds the submission's rows sat queued before the batch ran.
    pub wait_seconds: f64,
    /// Total rows in the batch that carried this submission.
    pub batch_rows: u64,
    /// Number of requests coalesced into that batch.
    pub batch_requests: u64,
    /// Whether this submission ran the batch (leader) or rode along
    /// (follower).
    pub leader: bool,
}

/// Where a submission's results land; the submitter sleeps on `ready`.
struct ResultSlot {
    value: TrackedMutex<Option<(RowResult, BatchTrace)>>,
    ready: Condvar,
}

impl ResultSlot {
    fn new() -> Self {
        ResultSlot {
            value: TrackedMutex::new("serve.batch.slot", None),
            ready: Condvar::new(),
        }
    }

    fn set(&self, result: RowResult, trace: BatchTrace) {
        *self.value.lock() = Some((result, trace));
        self.ready.notify_all();
    }

    fn wait(&self) -> (RowResult, BatchTrace) {
        let mut value = self.value.lock();
        loop {
            if let Some(result) = value.take() {
                return result;
            }
            value = locks::wait(&self.ready, value);
        }
    }
}

/// One queued submission: a whole request's rows plus its result slot.
struct Submission {
    request: PredictRequest,
    slot: Arc<ResultSlot>,
    enqueued: Instant,
}

struct QueueState {
    pending: Vec<Submission>,
    rows: usize,
    has_leader: bool,
    /// Batches taken off this queue whose `execute` has not returned.
    running: usize,
}

/// One environment's coalescing queue.
struct EnvQueue {
    state: TrackedMutex<QueueState>,
    /// Wakes a waiting leader when `max_rows` rows are queued or a
    /// running batch finishes.
    filled: Condvar,
}

impl EnvQueue {
    fn new() -> Self {
        EnvQueue {
            state: TrackedMutex::new(
                "serve.batch.queue",
                QueueState {
                    pending: Vec::new(),
                    rows: 0,
                    has_leader: false,
                    running: 0,
                },
            ),
            filled: Condvar::new(),
        }
    }
}

/// The batcher: per-environment queues over a shared model cache.
pub struct Batcher {
    cache: Arc<ModelCache>,
    opts: BatchOptions,
    queues: TrackedRwLock<BTreeMap<String, Arc<EnvQueue>>>,
}

impl Batcher {
    /// A batcher serving predictions from `cache`.
    pub fn new(cache: Arc<ModelCache>, opts: BatchOptions) -> Self {
        Batcher {
            cache,
            opts,
            queues: TrackedRwLock::new("serve.batch.queues", BTreeMap::new()),
        }
    }

    /// The model cache predictions are served from.
    pub fn cache(&self) -> &Arc<ModelCache> {
        &self.cache
    }

    fn queue(&self, env: &str) -> Arc<EnvQueue> {
        if let Some(q) = self.queues.read().get(env) {
            return Arc::clone(q);
        }
        let mut queues = self.queues.write();
        Arc::clone(
            queues
                .entry(env.to_string())
                .or_insert_with(|| Arc::new(EnvQueue::new())),
        )
    }

    /// Serves one request, possibly coalesced with concurrent requests
    /// for the same environment. Returns the model version used and one
    /// prediction per request row, in request order.
    pub fn predict(&self, request: PredictRequest) -> RowResult {
        self.predict_traced(request).0
    }

    /// [`Batcher::predict`] plus the [`BatchTrace`] recorded into the
    /// request's trace: queue wait, batch occupancy, and the
    /// submission's leader/follower role.
    pub fn predict_traced(&self, request: PredictRequest) -> (RowResult, BatchTrace) {
        if request.rows.is_empty() {
            return (
                Err(ServeError::InvalidRequest("empty rows".to_string())),
                BatchTrace::default(),
            );
        }
        // Checked before `queue()`, which would otherwise keep a queue
        // for every env name a client ever sends.
        if self.cache.hub().get(&request.env).is_none() {
            return (
                Err(ServeError::UnknownEnv(request.env)),
                BatchTrace::default(),
            );
        }
        let queue = self.queue(&request.env);
        let env = request.env.clone();
        let slot = Arc::new(ResultSlot::new());
        let is_leader = {
            let mut state = queue.state.lock();
            state.rows += request.rows.len();
            state.pending.push(Submission {
                request,
                slot: Arc::clone(&slot),
                enqueued: Instant::now(),
            });
            if state.rows >= self.opts.max_rows {
                queue.filled.notify_all();
            }
            if state.has_leader {
                false
            } else {
                state.has_leader = true;
                true
            }
        };
        if is_leader {
            let batch = {
                let mut state = queue.state.lock();
                while state.running > 0 && state.rows < self.opts.max_rows {
                    state = locks::wait(&queue.filled, state);
                }
                let pending = std::mem::take(&mut state.pending);
                state.rows = 0;
                state.has_leader = false;
                state.running += 1;
                pending
            };
            self.execute(&env, batch);
            queue.state.lock().running -= 1;
            queue.filled.notify_all();
        }
        let metrics = env2vec_obs::metrics();
        if is_leader {
            metrics.counter("serve_batch_leader_total").inc();
        } else {
            metrics.counter("serve_batch_follower_total").inc();
        }
        let (result, mut trace) = slot.wait();
        trace.leader = is_leader;
        (result, trace)
    }

    /// Runs one batched prediction and distributes per-submission
    /// results.
    fn execute(&self, env: &str, batch: Vec<Submission>) {
        let metrics = env2vec_obs::metrics();
        // Batch occupancy, observed once per batch regardless of
        // outcome: how many rows it carried, and how long its members
        // waited.
        let queued_rows: usize = batch.iter().map(|s| s.request.rows.len()).sum();
        let batch_requests = batch.len() as u64;
        metrics
            .histogram_with_bounds("serve_batch_rows", &BATCH_ROWS_BOUNDS)
            .observe(queued_rows as f64);
        let executed = Instant::now();
        let trace_of = |s: &Submission| BatchTrace {
            wait_seconds: executed.duration_since(s.enqueued).as_secs_f64(),
            batch_rows: queued_rows as u64,
            batch_requests,
            leader: false,
        };
        let cached = match self.cache.get(env) {
            Ok(cached) => cached,
            Err(e) => {
                for submission in &batch {
                    submission.slot.set(Err(e.clone()), trace_of(submission));
                }
                return;
            }
        };
        // Validate each submission against the model's shapes; invalid
        // ones error out individually without poisoning the batch.
        let mut valid: Vec<&Submission> = Vec::with_capacity(batch.len());
        for submission in &batch {
            match validate(&cached, &submission.request) {
                Ok(()) => valid.push(submission),
                Err(e) => submission.slot.set(Err(e), trace_of(submission)),
            }
        }
        if valid.is_empty() {
            return;
        }
        let total_rows: usize = valid.iter().map(|s| s.request.rows.len()).sum();
        let mut cf = Vec::with_capacity(total_rows);
        let mut history = Vec::with_capacity(total_rows);
        let mut em = Vec::with_capacity(total_rows);
        for submission in &valid {
            let tuple: Vec<&str> = submission.request.em.iter().map(String::as_str).collect();
            let encoded = cached.model.vocab().encode(&tuple);
            for row in &submission.request.rows {
                cf.push(row.cf.clone());
                history.push(row.history.clone());
                em.push(encoded.clone());
            }
        }
        let frame = match (Matrix::from_rows(&cf), Matrix::from_rows(&history)) {
            (Ok(cf), Ok(history)) => Dataframe {
                cf,
                history,
                em,
                target: vec![0.0; total_rows],
            },
            _ => {
                let e = ServeError::InvalidRequest("ragged row widths".to_string());
                for submission in &valid {
                    submission.slot.set(Err(e.clone()), trace_of(submission));
                }
                return;
            }
        };
        match cached.model.predict(&frame) {
            Ok(predictions) => {
                metrics.counter("serve_batches_total").inc();
                metrics
                    .counter("serve_batched_rows_total")
                    .inc_by(total_rows as u64);
                if batch.len() > 1 {
                    metrics.counter("serve_coalesced_batches_total").inc();
                }
                let mut offset = 0;
                for submission in &valid {
                    let n = submission.request.rows.len();
                    let rows = predictions[offset..offset + n].to_vec();
                    offset += n;
                    submission
                        .slot
                        .set(Ok((cached.version, rows)), trace_of(submission));
                }
            }
            Err(e) => {
                let e = ServeError::InvalidRequest(format!("prediction failed: {e:?}"));
                for submission in &valid {
                    submission.slot.set(Err(e.clone()), trace_of(submission));
                }
            }
        }
    }
}

/// Shape checks a request must pass before joining a batch.
fn validate(cached: &CachedModel, request: &PredictRequest) -> Result<(), ServeError> {
    let model = &cached.model;
    if request.em.len() != model.vocab().num_features() {
        return Err(ServeError::InvalidRequest(format!(
            "em tuple has {} values, model expects {}",
            request.em.len(),
            model.vocab().num_features()
        )));
    }
    let window = model.config.history_window;
    let num_cf = model.num_cf();
    for row in &request.rows {
        if row.cf.len() != num_cf {
            return Err(ServeError::InvalidRequest(format!(
                "cf row has {} features, model expects {num_cf}",
                row.cf.len()
            )));
        }
        if row.history.len() != window {
            return Err(ServeError::InvalidRequest(format!(
                "history row has {} steps, model expects {window}",
                row.history.len()
            )));
        }
        if row.cf.iter().chain(&row.history).any(|v| !v.is_finite()) {
            return Err(ServeError::InvalidRequest(
                "non-finite value in row".to_string(),
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PredictRow;
    use env2vec::config::Env2VecConfig;
    use env2vec::model::Env2VecModel;
    use env2vec::serialize::save_model;
    use env2vec::vocab::EmVocabulary;
    use env2vec_telemetry::registry::RegistryHub;
    use std::time::Duration;

    fn published_hub(env: &str) -> (Arc<RegistryHub>, Env2VecModel) {
        let mut vocab = EmVocabulary::telecom();
        let cf = Matrix::from_fn(30, 3, |i, j| ((i * 3 + j) % 11) as f64);
        let ru: Vec<f64> = (0..30).map(|i| 25.0 + (i % 9) as f64).collect();
        let df = Dataframe::from_series(&cf, &ru, &["tb", "s", "tc", "b"], 2, &mut vocab)
            .expect("dataframe");
        let model = Env2VecModel::new(Env2VecConfig::fast(), vocab, &df).expect("model");
        let hub = Arc::new(RegistryHub::new());
        hub.registry(env)
            .publish("t", save_model(&model).into_bytes());
        (hub, model)
    }

    fn request(env: &str, rows: Vec<PredictRow>) -> PredictRequest {
        PredictRequest {
            env: env.to_string(),
            em: vec!["tb".into(), "s".into(), "tc".into(), "b".into()],
            rows,
        }
    }

    fn row(i: usize) -> PredictRow {
        PredictRow {
            cf: vec![i as f64, (i % 5) as f64, (i % 3) as f64],
            history: vec![28.0 + (i % 4) as f64, 29.0 + (i % 6) as f64],
        }
    }

    #[test]
    fn single_request_predicts_through_the_batcher() {
        let (hub, model) = published_hub("edge");
        let batcher = Batcher::new(Arc::new(ModelCache::new(hub)), BatchOptions { max_rows: 8 });
        let (version, preds) = batcher
            .predict(request("edge", vec![row(0), row(1)]))
            .expect("predict");
        assert_eq!(version, 1);
        assert_eq!(preds.len(), 2);
        // Direct single-row predictions must match bit-for-bit.
        for (i, &p) in preds.iter().enumerate() {
            let r = row(i);
            let df = Dataframe {
                cf: Matrix::from_rows(std::slice::from_ref(&r.cf)).expect("cf"),
                history: Matrix::from_rows(std::slice::from_ref(&r.history)).expect("history"),
                em: vec![model.vocab().encode(&["tb", "s", "tc", "b"])],
                target: vec![0.0],
            };
            let solo = model.predict(&df).expect("solo predict");
            assert_eq!(solo[0].to_bits(), p.to_bits(), "row {i}");
        }
    }

    /// Marks `env` as having a batch executing, as a leader inside
    /// `execute` does, until [`release`].
    fn hold(batcher: &Batcher, env: &str) {
        batcher.queue(env).state.lock().running += 1;
    }

    /// Ends a [`hold`] the way a finished batch does.
    fn release(batcher: &Batcher, env: &str) {
        let queue = batcher.queue(env);
        queue.state.lock().running -= 1;
        queue.filled.notify_all();
    }

    fn running(batcher: &Batcher, env: &str) -> usize {
        batcher.queue(env).state.lock().running
    }

    #[test]
    fn concurrent_requests_coalesce_and_stay_bit_identical() {
        let (hub, model) = published_hub("edge");
        let batcher = Arc::new(Batcher::new(
            Arc::new(ModelCache::new(hub)),
            BatchOptions { max_rows: 32 },
        ));
        // With `edge` held running, the leader leaves only when all 8
        // submissions (32 rows) are queued, so the batch is the same on
        // every run.
        hold(&batcher, "edge");
        let mut handles = Vec::new();
        for t in 0..8usize {
            let batcher = Arc::clone(&batcher);
            handles.push(std::thread::spawn(move || {
                let rows: Vec<PredictRow> = (0..4).map(|k| row(t * 4 + k)).collect();
                (t, batcher.predict_traced(request("edge", rows)))
            }));
        }
        for handle in handles {
            let (t, (result, trace)) = handle.join().expect("thread");
            assert_eq!(
                (trace.batch_requests, trace.batch_rows),
                (8, 32),
                "request {t} rode a different batch"
            );
            let (_, preds) = result.expect("predict");
            assert_eq!(preds.len(), 4);
            for (k, &p) in preds.iter().enumerate() {
                let r = row(t * 4 + k);
                let df = Dataframe {
                    cf: Matrix::from_rows(std::slice::from_ref(&r.cf)).expect("cf"),
                    history: Matrix::from_rows(std::slice::from_ref(&r.history)).expect("history"),
                    em: vec![model.vocab().encode(&["tb", "s", "tc", "b"])],
                    target: vec![0.0],
                };
                let solo = model.predict(&df).expect("solo predict");
                assert_eq!(
                    solo[0].to_bits(),
                    p.to_bits(),
                    "request {t} row {k}: batching changed the bits"
                );
            }
        }
        release(&batcher, "edge");
        assert_eq!(running(&batcher, "edge"), 0);
    }

    #[test]
    fn a_leader_waits_only_for_its_envs_running_batch() {
        let (hub, model) = published_hub("edge");
        hub.registry("core")
            .publish("t", save_model(&model).into_bytes());
        let batcher = Arc::new(Batcher::new(
            Arc::new(ModelCache::new(hub)),
            BatchOptions::default(),
        ));
        hold(&batcher, "edge");
        let handles: Vec<_> = (0..3usize)
            .map(|t| {
                let batcher = Arc::clone(&batcher);
                std::thread::spawn(move || batcher.predict_traced(request("edge", vec![row(t)])))
            })
            .collect();
        // Polls queue state, not a clock: the deadline only turns a hang
        // into a failure.
        let deadline = Instant::now() + Duration::from_secs(60);
        while batcher.queue("edge").state.lock().pending.len() < 3 {
            assert!(
                Instant::now() < deadline,
                "the submissions never queued together"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        // Another env in the same hub runs at once while `edge` waits.
        let (version, preds) = batcher
            .predict(request("core", vec![row(5)]))
            .expect("core predict");
        assert_eq!((version, preds.len()), (1, 1));
        assert_eq!(batcher.queue("edge").state.lock().pending.len(), 3);
        assert!(handles.iter().all(|h| !h.is_finished()));
        release(&batcher, "edge");
        let mut leaders = 0;
        for handle in handles {
            let (result, trace) = handle.join().expect("thread");
            assert_eq!(result.expect("predict").1.len(), 1);
            assert_eq!((trace.batch_requests, trace.batch_rows), (3, 3));
            leaders += usize::from(trace.leader);
        }
        assert_eq!(leaders, 1);
        assert_eq!(running(&batcher, "edge"), 0);
    }

    #[test]
    fn traced_predictions_report_batch_occupancy_and_role() {
        let (hub, model) = published_hub("edge");
        let batcher = Batcher::new(Arc::new(ModelCache::new(hub)), BatchOptions { max_rows: 8 });
        let (result, trace) = batcher.predict_traced(request("edge", vec![row(0), row(1)]));
        let (_, preds) = result.expect("predict");
        assert_eq!(preds.len(), 2);
        assert!(trace.leader, "sole submitter is the leader");
        assert_eq!(trace.batch_rows, 2);
        assert_eq!(trace.batch_requests, 1);
        assert!(trace.wait_seconds >= 0.0);
        // Reporting the batch changes nothing about the numbers.
        let untraced = batcher
            .predict(request("edge", vec![row(0), row(1)]))
            .expect("untraced predict");
        for (i, (&a, &b)) in preds.iter().zip(&untraced.1).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "row {i}");
        }
        drop(model);
    }

    #[test]
    fn invalid_submissions_fail_alone_without_poisoning_the_batch() {
        let (hub, _) = published_hub("edge");
        // A registry with nothing published yet.
        hub.registry("empty");
        let batcher = Batcher::new(Arc::new(ModelCache::new(hub)), BatchOptions::default());
        assert!(matches!(
            batcher.predict(request("empty", vec![row(0)])),
            Err(ServeError::NoModelPublished(_))
        ));
        assert_eq!(running(&batcher, "empty"), 0);
        // Wrong cf width.
        let bad = PredictRequest {
            env: "edge".to_string(),
            em: vec!["tb".into(), "s".into(), "tc".into(), "b".into()],
            rows: vec![PredictRow {
                cf: vec![1.0],
                history: vec![1.0, 2.0],
            }],
        };
        assert!(matches!(
            batcher.predict(bad),
            Err(ServeError::InvalidRequest(_))
        ));
        assert_eq!(running(&batcher, "edge"), 0);
        // Wrong em width.
        let bad_em = PredictRequest {
            env: "edge".to_string(),
            em: vec!["tb".into()],
            rows: vec![row(0)],
        };
        assert!(matches!(
            batcher.predict(bad_em),
            Err(ServeError::InvalidRequest(_))
        ));
        assert_eq!(running(&batcher, "edge"), 0);
        // Non-finite input.
        let nan = PredictRequest {
            env: "edge".to_string(),
            em: vec!["tb".into(), "s".into(), "tc".into(), "b".into()],
            rows: vec![PredictRow {
                cf: vec![f64::NAN, 0.0, 0.0],
                history: vec![1.0, 2.0],
            }],
        };
        assert!(matches!(
            batcher.predict(nan),
            Err(ServeError::InvalidRequest(_))
        ));
        assert_eq!(running(&batcher, "edge"), 0);
        // Empty rows.
        assert!(matches!(
            batcher.predict(request("edge", Vec::new())),
            Err(ServeError::InvalidRequest(_))
        ));
        // A good request still works afterwards.
        assert!(batcher.predict(request("edge", vec![row(1)])).is_ok());
    }

    #[test]
    fn unknown_env_is_a_404_shaped_error() {
        let hub = Arc::new(RegistryHub::new());
        let batcher = Batcher::new(Arc::new(ModelCache::new(hub)), BatchOptions::default());
        assert!(matches!(
            batcher.predict(request("nowhere", vec![row(0)])),
            Err(ServeError::UnknownEnv(_))
        ));
    }

    #[test]
    fn unknown_envs_leave_no_queue_behind() {
        let (hub, _) = published_hub("edge");
        let batcher = Batcher::new(Arc::new(ModelCache::new(hub)), BatchOptions::default());
        for i in 0..100 {
            assert!(matches!(
                batcher.predict(request(&format!("nowhere-{i}"), vec![row(0)])),
                Err(ServeError::UnknownEnv(_))
            ));
        }
        assert!(batcher.queues.read().is_empty());
    }
}
