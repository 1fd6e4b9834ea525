//! The policy manager's cross-epoch (and cross-server) characterization
//! cache.
//!
//! Characterizing a candidate grid by simulation is the runtime's
//! dominant cost, yet data-center load is diurnal: the predicted
//! utilization revisits the same handful of levels for hours at a time
//! (cf. the energy-proportionality literature's scale-out utilization
//! profiles). Selections are therefore cached under a key that captures
//! everything the characterization actually depends on:
//!
//! * the **quantized predicted utilization** `ρ̂` (the manager rounds
//!   `ρ̂` to [`crate::manager::RHO_QUANTUM`] *before* replaying, so a
//!   cached selection is exact for its bucket, not merely close), and
//! * the job log's **coarse signature**
//!   ([`sleepscale_workloads::JobLog::coarse_signature`]) — bucketed
//!   means and CVs of the logged gaps/sizes plus the occupancy scale.
//!   The log's exact contents churn every epoch; its signature only
//!   moves when the workload's replay statistics move.
//!
//! The candidate set and QoS constraint are fixed per manager, so they
//! are part of the cache's identity rather than the key: a cache must
//! only ever be shared between managers with identical configuration.
//! That sharing is the point — a homogeneous cluster hands one handle
//! ([`CharacterizationCache::clone`] shares storage) to every server's
//! strategy, so N servers predicting the same load characterize once
//! per epoch instead of N times.

use crate::manager::{SearchMode, Selection};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// Default number of cached selections (`(ρ̂ bucket, log signature)`
/// pairs); a day-long diurnal trace touches far fewer distinct keys.
pub const DEFAULT_CACHE_CAPACITY: usize = 256;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct CacheKey {
    /// Quantized predicted utilization (bucket index).
    pub rho_bucket: u32,
    /// The job log's coarse signature.
    pub log_signature: u64,
    /// The search mode that produced the selection. Part of the key so
    /// that a cloned manager switched to another mode (e.g. an
    /// exhaustive baseline cloned from a pruned manager) can share the
    /// handle without being served the other mode's selections.
    pub search: SearchMode,
}

#[derive(Debug, Default)]
struct CacheInner {
    map: HashMap<CacheKey, Selection>,
    /// Insertion order for FIFO eviction.
    order: VecDeque<CacheKey>,
    capacity: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// Hit/miss counters and current occupancy of a
/// [`CharacterizationCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CacheStats {
    /// Lookups answered from the cache (each saves a full
    /// characterization sweep).
    pub hits: u64,
    /// Lookups that fell through to simulation.
    pub misses: u64,
    /// Entries dropped by FIFO eviction since the cache was created.
    /// Nonzero evictions matter beyond recomputation cost: fleet
    /// engines that elect characterization owners from a planning peek
    /// rely on keys staying resident within an epoch, so a run that
    /// evicts is no longer guaranteed byte-reproducible across engines
    /// or worker counts (size the cache so this stays 0).
    pub evictions: u64,
    /// Selections currently stored.
    pub entries: usize,
}

impl CacheStats {
    /// Hit fraction over all lookups (0 when none happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A shareable store of epoch selections keyed by (quantized `ρ̂`, log
/// signature): the manager rounds `ρ̂` to its quantum before replaying,
/// so a cached selection is exact for its bucket, and the signature is
/// [`JobLog::coarse_signature`](sleepscale_workloads::JobLog::coarse_signature).
///
/// Cloning is cheap and *shares* the underlying storage, which is how a
/// homogeneous cluster amortizes characterization across servers. Only
/// share a cache between managers with identical environment, QoS
/// constraint, candidate set, and evaluation depth; the key re-encodes
/// the search mode (so mixed-mode sharing is safe) but not those.
#[derive(Debug, Clone)]
pub struct CharacterizationCache {
    inner: Arc<Mutex<CacheInner>>,
}

impl Default for CharacterizationCache {
    fn default() -> CharacterizationCache {
        CharacterizationCache::new(DEFAULT_CACHE_CAPACITY)
    }
}

impl CharacterizationCache {
    /// A cache bounded to `capacity` selections (clamped to ≥ 1),
    /// evicting first-in-first-out.
    pub fn new(capacity: usize) -> CharacterizationCache {
        let inner = CacheInner { capacity: capacity.max(1), ..CacheInner::default() };
        CharacterizationCache { inner: Arc::new(Mutex::new(inner)) }
    }

    pub(crate) fn get(&self, key: &CacheKey) -> Option<Selection> {
        let mut inner = self.inner.lock().expect("cache lock is never poisoned");
        match inner.map.get(key).cloned() {
            Some(selection) => {
                inner.hits += 1;
                Some(selection)
            }
            None => {
                inner.misses += 1;
                None
            }
        }
    }

    pub(crate) fn insert(&self, key: CacheKey, selection: Selection) {
        let mut inner = self.inner.lock().expect("cache lock is never poisoned");
        if inner.map.insert(key, selection).is_none() {
            inner.order.push_back(key);
            while inner.order.len() > inner.capacity {
                if let Some(evicted) = inner.order.pop_front() {
                    inner.map.remove(&evicted);
                    inner.evictions += 1;
                }
            }
        }
    }

    /// Whether a selection for `key` is stored, *without* counting a
    /// lookup — the planning peek fleet engines use to elect one owner
    /// per missing key before parallel epoch control (counting it would
    /// skew the hit/miss telemetry relative to a serial fleet run).
    pub fn contains(&self, key: &crate::manager::CharacterizationKey) -> bool {
        let inner = self.inner.lock().expect("cache lock is never poisoned");
        inner.map.contains_key(&key.0)
    }

    /// Puts the entries inserted since the cache held `len` entries into
    /// the order of `keys`; entries not listed keep their relative order
    /// after the listed ones. Fleet engines insert concurrently, in the
    /// order their characterization owners finish, and call this after
    /// the owner pass so [`CharacterizationCache::snapshot_state`] lists
    /// keys in owner-election order whatever the worker count.
    pub fn order_inserted_since(&self, len: usize, keys: &[crate::manager::CharacterizationKey]) {
        let mut inner = self.inner.lock().expect("cache lock is never poisoned");
        let rank: HashMap<CacheKey, usize> =
            keys.iter().enumerate().map(|(i, k)| (k.0, i)).collect();
        let start = len.min(inner.order.len());
        inner.order.make_contiguous()[start..]
            .sort_by_key(|k| rank.get(k).copied().unwrap_or(usize::MAX));
    }

    /// Snapshot of the hit/miss counters and occupancy.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock().expect("cache lock is never poisoned");
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
            entries: inner.map.len(),
        }
    }

    /// Drops every stored selection and resets the counters.
    pub fn clear(&self) {
        let mut inner = self.inner.lock().expect("cache lock is never poisoned");
        inner.map.clear();
        inner.order.clear();
        inner.hits = 0;
        inner.misses = 0;
        inner.evictions = 0;
    }

    /// Serializes contents and counters for checkpointing. Entries are
    /// written in insertion (`order`) sequence — never by iterating the
    /// hash map — so the bytes are deterministic across runs and builds.
    pub fn snapshot_state(&self, w: &mut sleepscale_journal::ByteWriter) {
        use sleepscale_journal::Snapshot;
        let inner = self.inner.lock().expect("cache lock is never poisoned");
        w.put_usize(inner.capacity);
        w.put_u64(inner.hits);
        w.put_u64(inner.misses);
        w.put_u64(inner.evictions);
        w.put_usize(inner.order.len());
        for key in &inner.order {
            key.snapshot(w);
            inner.map[key].snapshot(w);
        }
    }

    /// Replaces this cache's contents and counters from a
    /// [`CharacterizationCache::snapshot_state`] record. Mutates through
    /// the shared handle, so every clone observes the restored state.
    ///
    /// # Errors
    ///
    /// Returns [`sleepscale_journal::CodecError`] on truncated or
    /// malformed bytes; the cache is left unchanged in that case.
    pub fn restore_state(
        &self,
        r: &mut sleepscale_journal::ByteReader<'_>,
    ) -> Result<(), sleepscale_journal::CodecError> {
        use sleepscale_journal::Snapshot;
        let capacity = r.get_usize()?.max(1);
        let hits = r.get_u64()?;
        let misses = r.get_u64()?;
        let evictions = r.get_u64()?;
        let n = r.get_usize()?;
        if n > capacity {
            return Err(sleepscale_journal::CodecError::Invalid(format!(
                "cache snapshot holds {n} entries but capacity is {capacity}"
            )));
        }
        let mut map = HashMap::with_capacity(n.min(1024));
        let mut order = VecDeque::new();
        for _ in 0..n {
            let key = CacheKey::restore(r)?;
            let selection = Selection::restore(r)?;
            if map.insert(key, selection).is_none() {
                order.push_back(key);
            }
        }
        let mut inner = self.inner.lock().expect("cache lock is never poisoned");
        *inner = CacheInner { map, order, capacity, hits, misses, evictions };
        Ok(())
    }
}

impl sleepscale_journal::Snapshot for CacheKey {
    fn snapshot(&self, w: &mut sleepscale_journal::ByteWriter) {
        w.put_u32(self.rho_bucket);
        w.put_u64(self.log_signature);
        self.search.snapshot(w);
    }

    fn restore(
        r: &mut sleepscale_journal::ByteReader<'_>,
    ) -> Result<CacheKey, sleepscale_journal::CodecError> {
        Ok(CacheKey {
            rho_bucket: r.get_u32()?,
            log_signature: r.get_u64()?,
            search: SearchMode::restore(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sleepscale_power::Policy;

    fn selection(power: f64) -> Selection {
        Selection {
            policy: Policy::full_speed_no_sleep(),
            predicted_power: power,
            predicted_norm_response: 1.0,
            feasible: true,
            evaluated: 10,
        }
    }

    fn key(rho_bucket: u32, log_signature: u64) -> CacheKey {
        CacheKey { rho_bucket, log_signature, search: SearchMode::CoarseToFine }
    }

    #[test]
    fn hit_miss_accounting() {
        let cache = CharacterizationCache::new(8);
        assert!(cache.get(&key(1, 2)).is_none());
        cache.insert(key(1, 2), selection(100.0));
        let got = cache.get(&key(1, 2)).unwrap();
        assert_eq!(got.predicted_power, 100.0);
        assert!(cache.get(&key(1, 3)).is_none());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 2, 1));
        assert!((stats.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn clones_share_storage() {
        let a = CharacterizationCache::new(8);
        let b = a.clone();
        a.insert(key(5, 5), selection(42.0));
        assert_eq!(b.get(&key(5, 5)).unwrap().predicted_power, 42.0);
        b.clear();
        assert!(a.get(&key(5, 5)).is_none());
    }

    #[test]
    fn search_mode_partitions_the_key_space() {
        let cache = CharacterizationCache::new(8);
        cache.insert(key(1, 1), selection(10.0));
        let exhaustive = CacheKey { search: SearchMode::Exhaustive, ..key(1, 1) };
        assert!(cache.get(&exhaustive).is_none(), "modes must not alias");
        cache.insert(exhaustive, selection(20.0));
        assert_eq!(cache.get(&key(1, 1)).unwrap().predicted_power, 10.0);
        assert_eq!(cache.get(&exhaustive).unwrap().predicted_power, 20.0);
    }

    #[test]
    fn fifo_eviction_respects_capacity() {
        let cache = CharacterizationCache::new(2);
        cache.insert(key(1, 0), selection(1.0));
        cache.insert(key(2, 0), selection(2.0));
        cache.insert(key(3, 0), selection(3.0));
        assert!(cache.get(&key(1, 0)).is_none(), "oldest entry evicted");
        assert!(cache.get(&key(2, 0)).is_some());
        assert!(cache.get(&key(3, 0)).is_some());
        assert_eq!(cache.stats().entries, 2);
        assert_eq!(cache.stats().evictions, 1, "evictions are counted");
        cache.clear();
        assert_eq!(cache.stats().evictions, 0);
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// PR 8 round-trip property: snapshot → restore into a fresh
        /// cache → snapshot reproduces the original bytes exactly, with
        /// counters, occupancy, and insertion order all intact.
        #[test]
        fn snapshot_round_trip_is_byte_equal(
            entries in proptest::collection::vec((0u32..64, 0u64..1_000, 20.0f64..200.0, 0u8..2), 0..24),
            probes in proptest::collection::vec((0u32..64, 0u64..1_000), 0..12),
        ) {
            use sleepscale_journal::{ByteReader, ByteWriter};
            let cache = CharacterizationCache::new(16);
            for &(rho_bucket, log_signature, power, mode) in &entries {
                let search =
                    if mode == 0 { SearchMode::CoarseToFine } else { SearchMode::Exhaustive };
                let k = CacheKey { rho_bucket, log_signature, search };
                let _ = cache.get(&k);
                cache.insert(k, selection(power));
            }
            // Extra lookups move the hit/miss counters independently of
            // the contents, so they must survive the trip too.
            for &(rho_bucket, log_signature) in &probes {
                let _ = cache.get(&key(rho_bucket, log_signature));
            }
            let mut w = ByteWriter::new();
            cache.snapshot_state(&mut w);
            let bytes = w.into_bytes();
            let restored = CharacterizationCache::new(1);
            restored
                .restore_state(&mut ByteReader::new(&bytes))
                .expect("snapshot bytes decode");
            let mut w2 = ByteWriter::new();
            restored.snapshot_state(&mut w2);
            prop_assert_eq!(&bytes, &w2.into_bytes());
            prop_assert_eq!(restored.stats(), cache.stats());
        }

        /// Truncated snapshot bytes are a typed decode error and leave
        /// the target cache exactly as it was — never a panic, never a
        /// half-restored cache.
        #[test]
        fn truncated_snapshot_is_an_error_and_leaves_cache_intact(cut in 0usize..10_000) {
            use sleepscale_journal::{ByteReader, ByteWriter};
            let cache = CharacterizationCache::new(8);
            cache.insert(key(1, 2), selection(50.0));
            cache.insert(key(3, 4), selection(60.0));
            let mut w = ByteWriter::new();
            cache.snapshot_state(&mut w);
            let bytes = w.into_bytes();
            let cut = cut % bytes.len();
            let target = CharacterizationCache::new(8);
            target.insert(key(9, 9), selection(70.0));
            let before = target.stats();
            prop_assert!(target.restore_state(&mut ByteReader::new(&bytes[..cut])).is_err());
            prop_assert_eq!(target.stats(), before);
            prop_assert_eq!(target.get(&key(9, 9)).map(|s| s.predicted_power), Some(70.0));
        }
    }
}
