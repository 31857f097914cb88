//! Per-environment deserialised-model cache with versioned invalidation.
//!
//! The registry stores opaque JSON blobs; deserialising one on every
//! request would dwarf the prediction itself. The cache keeps one
//! [`Env2VecModel`] per environment and revalidates it per request with
//! the registry's lock-free [`latest_version`] probe — a single atomic
//! load on the hit path, no blob clone, no registry lock.
//!
//! Invalidation protocol: a publisher bumps `latest_version` only after
//! its blob is fetchable (the registry's `Release`-under-write-guard
//! contract), so the cache can act on a version probe without ever
//! observing a version whose blob is missing. Concurrent reloads of the
//! same environment are allowed (thundering herd on a version bump) but
//! harmless: insertion keeps whichever cached model is newest.
//!
//! [`latest_version`]: env2vec_telemetry::registry::ModelRegistry::latest_version

use std::collections::BTreeMap;
use std::sync::Arc;

use env2vec::model::Env2VecModel;
use env2vec::serialize::load_model;
use env2vec_telemetry::locks::TrackedRwLock;
use env2vec_telemetry::registry::RegistryHub;

use crate::ServeError;

/// One cached environment model.
#[derive(Debug)]
pub struct CachedModel {
    /// Registry version the model was loaded from.
    pub version: u64,
    /// The deserialised model, shared with in-flight batches.
    pub model: Arc<Env2VecModel>,
}

/// Version-checked cache over a [`RegistryHub`].
pub struct ModelCache {
    hub: Arc<RegistryHub>,
    entries: TrackedRwLock<BTreeMap<String, Arc<CachedModel>>>,
}

impl ModelCache {
    /// An empty cache over `hub`.
    pub fn new(hub: Arc<RegistryHub>) -> Self {
        ModelCache {
            hub,
            entries: TrackedRwLock::new("serve.model_cache.entries", BTreeMap::new()),
        }
    }

    /// The hub this cache serves from.
    pub fn hub(&self) -> &Arc<RegistryHub> {
        &self.hub
    }

    /// The current model for `env`, reloading if the registry has moved
    /// past the cached version.
    pub fn get(&self, env: &str) -> Result<Arc<CachedModel>, ServeError> {
        let registry = self
            .hub
            .get(env)
            .ok_or_else(|| ServeError::UnknownEnv(env.to_string()))?;
        let latest = registry.latest_version();
        if latest == 0 {
            return Err(ServeError::NoModelPublished(env.to_string()));
        }
        if let Some(cached) = self.entries.read().get(env) {
            if cached.version == latest {
                env2vec_obs::metrics()
                    .counter("serve_model_cache_hits_total")
                    .inc();
                return Ok(Arc::clone(cached));
            }
        }
        // Stale or cold: load outside any lock (deserialisation is the
        // expensive part), then insert unless a concurrent reload beat
        // us to an even newer version.
        let published = registry
            .get(latest)
            .ok_or_else(|| ServeError::BadModelBlob(env.to_string()))?;
        let json = std::str::from_utf8(&published.blob)
            .map_err(|_| ServeError::BadModelBlob(env.to_string()))?;
        let model = load_model(json).map_err(|_| ServeError::BadModelBlob(env.to_string()))?;
        let loaded = Arc::new(CachedModel {
            version: latest,
            model: Arc::new(model),
        });
        let mut entries = self.entries.write();
        let slot = entries
            .entry(env.to_string())
            .or_insert_with(|| Arc::clone(&loaded));
        if slot.version < loaded.version {
            *slot = Arc::clone(&loaded);
        }
        let winner = Arc::clone(slot);
        drop(entries);
        env2vec_obs::metrics()
            .counter("serve_model_cache_reloads_total")
            .inc();
        Ok(winner)
    }

    /// Number of environments currently cached.
    pub fn len(&self) -> usize {
        self.entries.read().len()
    }

    /// Whether the cache holds no models.
    pub fn is_empty(&self) -> bool {
        self.entries.read().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use env2vec::config::Env2VecConfig;
    use env2vec::dataframe::Dataframe;
    use env2vec::serialize::save_model;
    use env2vec::vocab::EmVocabulary;
    use env2vec_linalg::Matrix;

    fn model_blob(seed: usize) -> Vec<u8> {
        let mut vocab = EmVocabulary::telecom();
        let cf = Matrix::from_fn(20, 3, |i, j| ((i + j + seed) % 9) as f64);
        let ru: Vec<f64> = (0..20).map(|i| 30.0 + ((i + seed) % 7) as f64).collect();
        let df = Dataframe::from_series(&cf, &ru, &["tb", "s", "tc", "b"], 2, &mut vocab)
            .expect("dataframe");
        let model = Env2VecModel::new(Env2VecConfig::fast(), vocab, &df).expect("model");
        save_model(&model).into_bytes()
    }

    #[test]
    fn hit_miss_and_versioned_invalidation() {
        let hub = Arc::new(RegistryHub::new());
        let cache = ModelCache::new(Arc::clone(&hub));
        assert!(matches!(cache.get("edge"), Err(ServeError::UnknownEnv(_))));
        let reg = hub.registry("edge");
        assert!(matches!(
            cache.get("edge"),
            Err(ServeError::NoModelPublished(_))
        ));
        reg.publish("v1", model_blob(1));
        let first = cache.get("edge").expect("load v1");
        assert_eq!(first.version, 1);
        // Same version: the identical Arc comes back (a hit, no reload).
        let again = cache.get("edge").expect("hit v1");
        assert!(Arc::ptr_eq(&first.model, &again.model));
        // Publish invalidates: the next get serves the new version.
        reg.publish("v2", model_blob(2));
        let second = cache.get("edge").expect("load v2");
        assert_eq!(second.version, 2);
        assert!(!Arc::ptr_eq(&first.model, &second.model));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn corrupt_blob_is_a_clean_error() {
        let hub = Arc::new(RegistryHub::new());
        let cache = ModelCache::new(Arc::clone(&hub));
        hub.registry("bad").publish("junk", b"not json".to_vec());
        assert!(matches!(cache.get("bad"), Err(ServeError::BadModelBlob(_))));
        assert!(cache.is_empty());
    }
}
