//! Sharded asynchronous two-layer cache store (Figure 5, §3.5.1).
//!
//! "Employed to manage frequent searches and adapt to daily traffic
//! patterns, this store efficiently captures user queries through a
//! two-layered caching strategy, combining pre-loaded yearly frequent
//! searches and batch-processed daily requests."
//!
//! * **L1** — immutable after load: the yearly frequent searches, shared
//!   behind one read-mostly lock over an `Arc`'d map;
//! * **L2** — the daily layer, **sharded N ways by query hash**: each
//!   shard has its own read-write map, hit counter, and pending queue, so
//!   concurrent request threads and the batch writer contend only when
//!   they touch the same shard;
//! * misses land in a **bounded, deduplicated** per-shard pending queue —
//!   a membership set ensures N identical misses cost one slot, and an
//!   explicit [`AdmissionPolicy`] decides what happens when the queue is
//!   full (drop the oldest entry or reject the newcomer), with both
//!   outcomes surfaced in [`CacheMetrics`]. A missing query never blocks
//!   the request path on model inference, and a miss storm can never grow
//!   the queue without bound.

use crate::features::StructuredFeatures;
use cosmo_text::hash::hash_str_ns;
use cosmo_text::{FxHashMap, FxHashSet};
use parking_lot::{Mutex, RwLock};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Hash namespace for shard routing (distinct from the view namespaces).
const SHARD_NS: u32 = 0x5EED;

/// Where a cache answer came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheLayer {
    /// Pre-loaded yearly-frequent layer.
    L1,
    /// Daily batch-processed layer.
    L2,
}

/// Outcome of a request-path cache lookup, including what happened to
/// the query on a miss — the information the wire protocol's
/// `status` field reports.
#[derive(Debug, Clone)]
pub enum CacheLookup {
    /// Served from the given layer.
    Hit(Arc<StructuredFeatures>, CacheLayer),
    /// Miss: the query is queued (or was already queued — dedupe) for
    /// the next batch cycle.
    MissEnqueued,
    /// Miss: the shard's pending queue is full and
    /// [`AdmissionPolicy::RejectNew`] refused the query.
    MissRejected,
}

/// What to do with a new pending query when its shard's queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdmissionPolicy {
    /// Evict the oldest queued query to make room (favours recency —
    /// the dropped query will be re-queued on its next miss).
    #[default]
    DropOldest,
    /// Refuse the new query (favours queue stability — the rejected
    /// query will be re-queued on its next miss once there is room).
    RejectNew,
}

/// Cache sizing and admission parameters.
#[derive(Debug, Clone)]
pub struct CacheConfig {
    /// Max entries in the pre-loaded / promoted L1 layer.
    pub l1_capacity: usize,
    /// Max entries across all L2 shards (split evenly per shard).
    pub l2_capacity: usize,
    /// Number of shards for L2 / pending / hit-count state.
    pub shards: usize,
    /// Max queued pending queries across all shards (split evenly).
    pub pending_bound: usize,
    /// What to do with a miss when its shard's pending queue is full.
    pub admission: AdmissionPolicy,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            l1_capacity: 4096,
            l2_capacity: 16384,
            shards: 8,
            pending_bound: 4096,
            admission: AdmissionPolicy::DropOldest,
        }
    }
}

/// Hit/miss/admission counters.
#[derive(Debug, Default)]
pub struct CacheMetrics {
    /// L1 hits.
    pub l1_hits: AtomicU64,
    /// L2 hits.
    pub l2_hits: AtomicU64,
    /// Misses (enqueued for batch processing, subject to admission).
    pub misses: AtomicU64,
    /// Pending entries evicted by [`AdmissionPolicy::DropOldest`].
    pub dropped: AtomicU64,
    /// Pending enqueues refused by [`AdmissionPolicy::RejectNew`].
    pub rejected: AtomicU64,
    /// Distinct queries currently queued (live gauge).
    pending_now: AtomicU64,
    /// High-water mark of `pending_now` since the last reset.
    pending_high_water: AtomicU64,
}

impl CacheMetrics {
    /// Overall hit rate.
    pub fn hit_rate(&self) -> f64 {
        let h = self.l1_hits.load(Ordering::Relaxed) + self.l2_hits.load(Ordering::Relaxed);
        let total = h + self.misses.load(Ordering::Relaxed);
        if total == 0 {
            0.0
        } else {
            h as f64 / total as f64
        }
    }

    /// Distinct queries currently queued across all shards.
    pub fn pending_now(&self) -> usize {
        self.pending_now.load(Ordering::Relaxed) as usize
    }

    /// High-water mark of the pending queue since the last reset.
    pub fn pending_high_water(&self) -> usize {
        self.pending_high_water.load(Ordering::Relaxed) as usize
    }

    /// Reset all counters (the live pending gauge is preserved; the
    /// high-water mark restarts from the current queue depth).
    pub fn reset(&self) {
        self.l1_hits.store(0, Ordering::Relaxed);
        self.l2_hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.dropped.store(0, Ordering::Relaxed);
        self.rejected.store(0, Ordering::Relaxed);
        self.pending_high_water
            .store(self.pending_now.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    fn note_enqueued(&self) {
        let now = self.pending_now.fetch_add(1, Ordering::Relaxed) + 1;
        self.pending_high_water.fetch_max(now, Ordering::Relaxed);
    }

    fn note_removed(&self) {
        self.pending_now.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Daily layer of one shard: the map plus insertion order for eviction.
#[derive(Default)]
struct L2Shard {
    map: FxHashMap<String, Arc<StructuredFeatures>>,
    order: VecDeque<String>,
}

/// Pending queue of one shard: FIFO plus a membership set for dedupe.
#[derive(Default)]
struct PendingShard {
    queue: VecDeque<String>,
    members: FxHashSet<String>,
}

/// What the pending queue did with a missed query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EnqueueOutcome {
    /// Added to the queue (possibly evicting the oldest entry).
    Queued,
    /// Already queued — the miss cost no slot.
    Duplicate,
    /// Refused by [`AdmissionPolicy::RejectNew`].
    Rejected,
}

/// All mutable state owned by one shard.
#[derive(Default)]
struct Shard {
    l2: RwLock<L2Shard>,
    /// L2 access counts (for promotion on refresh).
    hits: Mutex<FxHashMap<String, u64>>,
    pending: Mutex<PendingShard>,
}

/// The sharded two-layer asynchronous cache.
pub struct CacheStore {
    l1: RwLock<Arc<FxHashMap<String, Arc<StructuredFeatures>>>>,
    shards: Vec<Shard>,
    /// Max entries promoted to L1 per refresh.
    l1_capacity: usize,
    /// Max entries held per L2 shard between refreshes (oldest evicted).
    l2_capacity_per_shard: usize,
    /// Max pending queries per shard.
    pending_bound_per_shard: usize,
    admission: AdmissionPolicy,
    /// Hit/miss/admission counters.
    pub metrics: CacheMetrics,
}

impl CacheStore {
    /// Create with a pre-loaded L1 layer (the "yearly frequent searches").
    pub fn new(preloaded: Vec<StructuredFeatures>, cfg: CacheConfig) -> Self {
        let l1: FxHashMap<String, Arc<StructuredFeatures>> = preloaded
            .into_iter()
            .map(|f| (f.query.clone(), Arc::new(f)))
            .collect();
        let shards = cfg.shards.max(1);
        CacheStore {
            l1: RwLock::new(Arc::new(l1)),
            shards: (0..shards).map(|_| Shard::default()).collect(),
            l1_capacity: cfg.l1_capacity.max(1),
            l2_capacity_per_shard: cfg.l2_capacity.div_ceil(shards).max(1),
            pending_bound_per_shard: cfg.pending_bound.div_ceil(shards).max(1),
            admission: cfg.admission,
            metrics: CacheMetrics::default(),
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    fn shard_of(&self, query: &str) -> &Shard {
        let idx = (hash_str_ns(query, SHARD_NS) % self.shards.len() as u64) as usize;
        // PANIC: idx is hash mod shards.len(), always in range; shards is
        // non-empty by construction (capacity is clamped to >= 1 shard).
        &self.shards[idx]
    }

    /// Request-path lookup: L1, then the query's L2 shard; on miss the
    /// query is queued (deduplicated, bounded) for the next batch cycle
    /// and the admission outcome is reported — the request path never
    /// blocks on model inference.
    pub fn lookup(&self, query: &str) -> CacheLookup {
        if let Some(f) = self.l1.read().get(query) {
            self.metrics.l1_hits.fetch_add(1, Ordering::Relaxed);
            return CacheLookup::Hit(f.clone(), CacheLayer::L1);
        }
        let shard = self.shard_of(query);
        if let Some(f) = shard.l2.read().map.get(query) {
            self.metrics.l2_hits.fetch_add(1, Ordering::Relaxed);
            // Held under the l2 read guard, so the count can only be
            // created for a key that is in L2 (install drops it on evict).
            let mut hits = shard.hits.lock();
            if let Some(n) = hits.get_mut(query) {
                *n += 1;
            } else {
                hits.insert(query.to_string(), 1);
            }
            return CacheLookup::Hit(f.clone(), CacheLayer::L2);
        }
        self.metrics.misses.fetch_add(1, Ordering::Relaxed);
        match self.enqueue(shard, query) {
            EnqueueOutcome::Queued | EnqueueOutcome::Duplicate => CacheLookup::MissEnqueued,
            EnqueueOutcome::Rejected => CacheLookup::MissRejected,
        }
    }

    /// [`CacheStore::lookup`] flattened to an `Option` for callers that
    /// do not care whether a miss was enqueued or rejected.
    pub fn get(&self, query: &str) -> Option<(Arc<StructuredFeatures>, CacheLayer)> {
        match self.lookup(query) {
            CacheLookup::Hit(f, layer) => Some((f, layer)),
            CacheLookup::MissEnqueued | CacheLookup::MissRejected => None,
        }
    }

    /// Enqueue a missed query subject to dedupe and admission.
    fn enqueue(&self, shard: &Shard, query: &str) -> EnqueueOutcome {
        let mut pending = shard.pending.lock();
        if pending.members.contains(query) {
            // already queued: N identical misses cost one slot
            return EnqueueOutcome::Duplicate;
        }
        if pending.queue.len() >= self.pending_bound_per_shard {
            match self.admission {
                AdmissionPolicy::DropOldest => {
                    if let Some(oldest) = pending.queue.pop_front() {
                        pending.members.remove(&oldest);
                        self.metrics.dropped.fetch_add(1, Ordering::Relaxed);
                        self.metrics.note_removed();
                    }
                }
                AdmissionPolicy::RejectNew => {
                    self.metrics.rejected.fetch_add(1, Ordering::Relaxed);
                    return EnqueueOutcome::Rejected;
                }
            }
        }
        pending.queue.push_back(query.to_string());
        pending.members.insert(query.to_string());
        self.metrics.note_enqueued();
        EnqueueOutcome::Queued
    }

    /// Put queries back on the queue (used when a batch chunk fails);
    /// does not count misses. Returns how many were actually queued.
    pub fn requeue(&self, queries: &[String]) -> usize {
        queries
            .iter()
            .filter(|q| matches!(self.enqueue(self.shard_of(q), q), EnqueueOutcome::Queued))
            .count()
    }

    /// Drain up to `max` pending queries for batch processing,
    /// round-robin across shards so no shard starves. Entries are
    /// already distinct (dedupe happens at enqueue time).
    pub fn drain_pending(&self, max: usize) -> Vec<String> {
        let mut out = Vec::new();
        while out.len() < max {
            let mut progressed = false;
            for shard in &self.shards {
                if out.len() >= max {
                    break;
                }
                let mut pending = shard.pending.lock();
                if let Some(q) = pending.queue.pop_front() {
                    pending.members.remove(&q);
                    self.metrics.note_removed();
                    out.push(q);
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }
        out
    }

    /// Number of distinct queued pending queries across all shards.
    pub fn pending_len(&self) -> usize {
        self.metrics.pending_now()
    }

    /// Batch-processor write path: install computed features into the
    /// owning L2 shards, evicting the oldest entries beyond each shard's
    /// capacity. Returns the evicted entries that are no longer cached:
    /// not re-installed later in this call and not held by L1. The caller
    /// drops them from its feature store, which then stays bounded by
    /// L1 ∪ L2.
    pub fn install(&self, features: Vec<Arc<StructuredFeatures>>) -> Vec<Arc<StructuredFeatures>> {
        let mut by_shard: Vec<Vec<Arc<StructuredFeatures>>> =
            (0..self.shards.len()).map(|_| Vec::new()).collect();
        for f in features {
            let idx = (hash_str_ns(&f.query, SHARD_NS) % self.shards.len() as u64) as usize;
            by_shard[idx].push(f); // PANIC: idx is hash mod len of this very vec
        }
        let mut gone = Vec::new();
        for (idx, batch) in by_shard.into_iter().enumerate() {
            if batch.is_empty() {
                continue;
            }
            // PANIC: by_shard was built with exactly shards.len() buckets
            let shard = &self.shards[idx];
            let mut l2 = shard.l2.write();
            let mut evicted = Vec::new();
            for f in batch {
                if l2.map.insert(f.query.clone(), f.clone()).is_none() {
                    l2.order.push_back(f.query.clone());
                }
                while l2.map.len() > self.l2_capacity_per_shard {
                    let Some(oldest) = l2.order.pop_front() else {
                        break;
                    };
                    if let Some(entry) = l2.map.remove(&oldest) {
                        evicted.push(entry);
                    }
                }
            }
            if !evicted.is_empty() {
                // l2-then-hits, the read path's order: an evicted key's
                // count goes with it, so the map stays bounded by L2.
                let mut hits = shard.hits.lock();
                for entry in &evicted {
                    hits.remove(&entry.query);
                }
                evicted.retain(|entry| !l2.map.contains_key(&entry.query));
                gone.append(&mut evicted);
            }
        }
        if !gone.is_empty() {
            let l1 = Arc::clone(&self.l1.read());
            gone.retain(|entry| !l1.contains_key(&entry.query));
        }
        gone
    }

    /// Every L2 query, shard by shard (ascending index), each shard in
    /// insertion (eviction) order — the order [`CacheStore::install`]
    /// must replay to rebuild the same FIFO state in a cache of the same
    /// shape.
    pub(crate) fn l2_queries(&self) -> Vec<String> {
        let mut out = Vec::new();
        for shard in &self.shards {
            out.extend(shard.l2.read().order.iter().cloned());
        }
        out
    }

    /// Daily refresh: promote the hottest L2 entries (across all shards)
    /// into L1 up to the L1 capacity, then clear L2 — "adapt to daily
    /// traffic patterns". Returns the number of promoted entries.
    pub fn daily_refresh(&self) -> usize {
        // Lock order: every L2 shard (ascending), then every hits map —
        // the read path takes l2-then-hits within one shard, so this
        // global ordering cannot deadlock against it.
        // LOCK-ORDER: every shard's l2 lock, in ascending shard index.
        let mut l2_guards: Vec<_> = self.shards.iter().map(|s| s.l2.write()).collect();
        // LOCK-ORDER: hits after all l2, same ascending index discipline.
        let mut hits_guards: Vec<_> = self.shards.iter().map(|s| s.hits.lock()).collect();
        let mut scored: Vec<(u64, String, usize)> = Vec::new();
        for (idx, l2) in l2_guards.iter().enumerate() {
            for k in l2.map.keys() {
                let h = hits_guards
                    .get(idx)
                    .and_then(|g| g.get(k))
                    .copied()
                    .unwrap_or(0);
                scored.push((h, k.clone(), idx));
            }
        }
        scored.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));

        let old_l1 = self.l1.read().clone();
        let mut new_l1: FxHashMap<String, Arc<StructuredFeatures>> = (*old_l1).clone();
        let mut promoted = 0usize;
        for (_, key, idx) in scored {
            if new_l1.len() >= self.l1_capacity {
                break;
            }
            if let Some(f) = l2_guards.get(idx).and_then(|g| g.map.get(&key)) {
                if new_l1.insert(key.clone(), f.clone()).is_none() {
                    promoted += 1;
                }
            }
        }
        *self.l1.write() = Arc::new(new_l1);
        for l2 in l2_guards.iter_mut() {
            l2.map.clear();
            l2.order.clear();
        }
        for hits in hits_guards.iter_mut() {
            hits.clear();
        }
        promoted
    }

    /// Sizes of `(L1, total L2)`.
    pub fn sizes(&self) -> (usize, usize) {
        let l2: usize = self.shards.iter().map(|s| s.l2.read().map.len()).sum();
        (self.l1.read().len(), l2)
    }

    /// Per-shard L2 entry counts (for ops dashboards).
    pub fn l2_shard_sizes(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.l2.read().map.len()).collect()
    }

    /// Per-shard pending queue depths.
    pub fn pending_shard_sizes(&self) -> Vec<usize> {
        self.shards
            .iter()
            .map(|s| s.pending.lock().queue.len())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feat(q: &str) -> StructuredFeatures {
        StructuredFeatures {
            query: q.to_string(),
            intents: vec![],
            subcategory: vec![0.0; 4],
            strong_intent: None,
        }
    }

    fn single_shard(l1_capacity: usize) -> CacheConfig {
        CacheConfig {
            l1_capacity,
            shards: 1,
            ..CacheConfig::default()
        }
    }

    #[test]
    fn l1_hits_preloaded() {
        let cache = CacheStore::new(vec![feat("camping")], single_shard(10));
        let (f, layer) = cache.get("camping").unwrap();
        assert_eq!(layer, CacheLayer::L1);
        assert_eq!(f.query, "camping");
        assert_eq!(cache.metrics.l1_hits.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn miss_enqueues_then_l2_serves() {
        let cache = CacheStore::new(vec![], single_shard(10));
        assert!(cache.get("new query").is_none());
        assert_eq!(cache.pending_len(), 1);
        let drained = cache.drain_pending(10);
        assert_eq!(drained, vec!["new query"]);
        assert_eq!(cache.pending_len(), 0);
        cache.install(vec![Arc::new(feat("new query"))]);
        let (_, layer) = cache.get("new query").unwrap();
        assert_eq!(layer, CacheLayer::L2);
    }

    #[test]
    fn identical_misses_cost_one_slot() {
        let cache = CacheStore::new(vec![], single_shard(10));
        for _ in 0..5 {
            let _ = cache.get("dup");
        }
        // dedupe happens at enqueue time: pending_len reports distinct queries
        assert_eq!(cache.pending_len(), 1);
        assert_eq!(cache.metrics.misses.load(Ordering::Relaxed), 5);
        assert_eq!(cache.drain_pending(10), vec!["dup"]);
    }

    #[test]
    fn full_queue_drops_oldest() {
        let cfg = CacheConfig {
            shards: 1,
            pending_bound: 3,
            admission: AdmissionPolicy::DropOldest,
            ..CacheConfig::default()
        };
        let cache = CacheStore::new(vec![], cfg);
        for q in ["a", "b", "c", "d", "e"] {
            let _ = cache.get(q);
        }
        assert_eq!(cache.pending_len(), 3);
        assert_eq!(cache.metrics.dropped.load(Ordering::Relaxed), 2);
        assert_eq!(cache.metrics.rejected.load(Ordering::Relaxed), 0);
        // the oldest two were evicted; the newest three survive in order
        assert_eq!(cache.drain_pending(10), vec!["c", "d", "e"]);
    }

    #[test]
    fn full_queue_rejects_new() {
        let cfg = CacheConfig {
            shards: 1,
            pending_bound: 3,
            admission: AdmissionPolicy::RejectNew,
            ..CacheConfig::default()
        };
        let cache = CacheStore::new(vec![], cfg);
        for q in ["a", "b", "c", "d", "e"] {
            let _ = cache.get(q);
        }
        assert_eq!(cache.pending_len(), 3);
        assert_eq!(cache.metrics.rejected.load(Ordering::Relaxed), 2);
        assert_eq!(cache.metrics.dropped.load(Ordering::Relaxed), 0);
        // the first three keep their slots
        assert_eq!(cache.drain_pending(10), vec!["a", "b", "c"]);
    }

    #[test]
    fn lookup_reports_admission_outcome() {
        let cfg = CacheConfig {
            shards: 1,
            pending_bound: 1,
            admission: AdmissionPolicy::RejectNew,
            ..CacheConfig::default()
        };
        let cache = CacheStore::new(vec![feat("hot")], cfg);
        assert!(matches!(
            cache.lookup("hot"),
            CacheLookup::Hit(_, CacheLayer::L1)
        ));
        assert!(matches!(cache.lookup("a"), CacheLookup::MissEnqueued));
        // duplicate miss of a queued query still reports enqueued
        assert!(matches!(cache.lookup("a"), CacheLookup::MissEnqueued));
        // queue full: a new query is rejected
        assert!(matches!(cache.lookup("b"), CacheLookup::MissRejected));
        assert_eq!(cache.metrics.rejected.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn high_water_mark_tracks_peak() {
        let cache = CacheStore::new(vec![], single_shard(10));
        for q in ["a", "b", "c", "d"] {
            let _ = cache.get(q);
        }
        assert_eq!(cache.metrics.pending_high_water(), 4);
        let _ = cache.drain_pending(10);
        assert_eq!(
            cache.metrics.pending_high_water(),
            4,
            "high water survives drain"
        );
        cache.metrics.reset();
        assert_eq!(
            cache.metrics.pending_high_water(),
            0,
            "reset restarts from live depth"
        );
    }

    #[test]
    fn requeue_skips_miss_accounting() {
        let cache = CacheStore::new(vec![], single_shard(10));
        let n = cache.requeue(&["x".to_string(), "y".to_string(), "x".to_string()]);
        assert_eq!(n, 2, "duplicates are not re-queued");
        assert_eq!(cache.pending_len(), 2);
        assert_eq!(cache.metrics.misses.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn daily_refresh_promotes_hot_entries() {
        let cache = CacheStore::new(vec![feat("old")], single_shard(3));
        cache.install(vec![Arc::new(feat("hot")), Arc::new(feat("cold"))]);
        // touch "hot" several times
        for _ in 0..4 {
            let _ = cache.get("hot");
        }
        let _ = cache.get("cold");
        let promoted = cache.daily_refresh();
        assert_eq!(promoted, 2, "capacity 3 fits old + both");
        let (l1, l2) = cache.sizes();
        assert_eq!((l1, l2), (3, 0));
        let (_, layer) = cache.get("hot").unwrap();
        assert_eq!(layer, CacheLayer::L1);
    }

    #[test]
    fn refresh_respects_l1_capacity() {
        let cache = CacheStore::new(vec![feat("a")], single_shard(2));
        cache.install(vec![Arc::new(feat("b")), Arc::new(feat("c"))]);
        for _ in 0..3 {
            let _ = cache.get("b");
        }
        let _ = cache.get("c");
        let promoted = cache.daily_refresh();
        assert_eq!(promoted, 1, "only one slot free");
        assert!(cache.get("b").is_some(), "hotter entry promoted");
        assert!(cache.get("c").is_none());
    }

    #[test]
    fn l2_capacity_evicts_oldest() {
        let cfg = CacheConfig {
            shards: 1,
            l2_capacity: 2,
            ..CacheConfig::default()
        };
        let cache = CacheStore::new(vec![], cfg);
        cache.install(vec![
            Arc::new(feat("a")),
            Arc::new(feat("b")),
            Arc::new(feat("c")),
        ]);
        assert_eq!(cache.sizes().1, 2);
        assert!(cache.get("a").is_none(), "oldest entry evicted");
        assert!(cache.get("b").is_some());
        assert!(cache.get("c").is_some());
        // reinstalling an existing key does not double-count the order
        cache.install(vec![Arc::new(feat("c")), Arc::new(feat("d"))]);
        assert_eq!(cache.sizes().1, 2);
        assert!(cache.get("d").is_some());
    }

    #[test]
    fn install_reports_only_entries_no_longer_cached() {
        let cfg = CacheConfig {
            shards: 1,
            l2_capacity: 2,
            ..CacheConfig::default()
        };
        let cache = CacheStore::new(vec![feat("l1")], cfg);
        let queries = |gone: Vec<Arc<StructuredFeatures>>| -> Vec<String> {
            gone.iter().map(|f| f.query.clone()).collect()
        };
        assert!(cache
            .install(vec![Arc::new(feat("a")), Arc::new(feat("b"))])
            .is_empty());
        assert_eq!(queries(cache.install(vec![Arc::new(feat("c"))])), ["a"]);
        // "b" is evicted by "d" and re-installed right after: still cached
        let gone = cache.install(vec![
            Arc::new(feat("d")),
            Arc::new(feat("b")),
            Arc::new(feat("e")),
        ]);
        assert_eq!(queries(gone), ["c", "d"]);
        // an L1 query that also sat in L2 stays cached when L2 drops it
        assert_eq!(queries(cache.install(vec![Arc::new(feat("l1"))])), ["b"]);
        let gone = cache.install(vec![Arc::new(feat("f")), Arc::new(feat("g"))]);
        assert_eq!(queries(gone), ["e"], "l1 left L2 but is still in L1");
    }

    #[test]
    fn hit_counts_stay_bounded_by_l2() {
        let cfg = CacheConfig {
            l2_capacity: 16,
            shards: 4,
            ..CacheConfig::default()
        };
        let cache = CacheStore::new(vec![], cfg);
        for i in 0..1000 {
            let q = format!("q{i}");
            cache.install(vec![Arc::new(feat(&q))]);
            assert_eq!(cache.get(&q).map(|(_, layer)| layer), Some(CacheLayer::L2));
        }
        let counted: usize = cache.shards.iter().map(|s| s.hits.lock().len()).sum();
        let (_, l2) = cache.sizes();
        assert!(l2 <= 16);
        assert!(
            counted <= l2,
            "{counted} hit counts kept for {l2} L2 entries"
        );
    }

    #[test]
    fn l2_queries_replay_into_identical_fifo_state() {
        let cfg = CacheConfig {
            l2_capacity: 8,
            shards: 2,
            ..CacheConfig::default()
        };
        let cache = CacheStore::new(vec![], cfg.clone());
        for i in 0..20 {
            cache.install(vec![Arc::new(feat(&format!("q{i}")))]);
        }
        let queries = cache.l2_queries();
        assert_eq!(queries.len(), cache.sizes().1);
        let copy = CacheStore::new(vec![], cfg);
        copy.install(queries.iter().map(|q| Arc::new(feat(q))).collect());
        assert_eq!(copy.l2_queries(), queries);
        // the next install evicts the same entry from both
        for c in [&cache, &copy] {
            c.install(vec![Arc::new(feat("new")), Arc::new(feat("newer"))]);
        }
        assert_eq!(copy.l2_queries(), cache.l2_queries());
    }

    #[test]
    fn sharded_refresh_promotes_across_shards() {
        let cfg = CacheConfig {
            l1_capacity: 8,
            shards: 4,
            ..CacheConfig::default()
        };
        let cache = CacheStore::new(vec![], cfg);
        let keys: Vec<String> = (0..6).map(|i| format!("q{i}")).collect();
        cache.install(keys.iter().map(|k| Arc::new(feat(k))).collect());
        assert_eq!(cache.sizes().1, 6);
        assert_eq!(cache.l2_shard_sizes().iter().sum::<usize>(), 6);
        for k in &keys {
            let _ = cache.get(k);
        }
        let promoted = cache.daily_refresh();
        assert_eq!(promoted, 6, "all entries fit the L1 capacity");
        assert_eq!(cache.sizes(), (6, 0));
        for k in &keys {
            assert_eq!(cache.get(k).unwrap().1, CacheLayer::L1);
        }
    }

    #[test]
    fn hit_rate_computation() {
        let cache = CacheStore::new(vec![feat("x")], single_shard(10));
        let _ = cache.get("x");
        let _ = cache.get("y");
        assert!((cache.metrics.hit_rate() - 0.5).abs() < 1e-9);
        cache.metrics.reset();
        assert_eq!(cache.metrics.hit_rate(), 0.0);
    }

    #[test]
    fn concurrent_access_is_safe() {
        let cfg = CacheConfig {
            l1_capacity: 100,
            shards: 8,
            ..CacheConfig::default()
        };
        let cache = Arc::new(CacheStore::new(vec![feat("hot")], cfg));
        let mut handles = Vec::new();
        for t in 0..4 {
            let c = cache.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..500 {
                    let _ = c.get("hot");
                    let _ = c.get(&format!("miss-{t}-{i}"));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(cache.metrics.l1_hits.load(Ordering::Relaxed), 2000);
        assert_eq!(cache.metrics.misses.load(Ordering::Relaxed), 2000);
    }
}
