//! The deployed serving system (Figure 5, §3.5.2).
//!
//! Operational flow implemented here:
//!
//! * **Request handling** — "initial query checks against the Asynchronous
//!   Cache Store quickly retrieve responses for frequent queries or forward
//!   others for batch processing"; the request path is cache-only and
//!   never blocks on model inference;
//! * **Batch processing and cache update** — pending queries are drained
//!   from the bounded queue and dispatched to the shared persistent
//!   worker pool ([`cosmo_exec::WorkerPool`], spawned once at build time
//!   and fed over a bounded channel — no per-cycle thread spawning),
//!   formatted into structured features by the Feature Store, and
//!   installed into the daily cache layer. A panicking worker chunk
//!   degrades the cycle (re-queued + surfaced in metrics) instead of
//!   killing the caller;
//! * **Daily refresh** — the model ingests new behaviour logs (simulated
//!   as a refresh counter) and the cache promotes hot entries;
//! * **Feedback loop** — served interactions are recorded and can be fed
//!   back as new behaviour data.
//!
//! Systems are built with [`ServingSystem::builder`]:
//!
//! ```text
//! let system = ServingSystem::builder()
//!     .kg(kg)
//!     .lm(lm)
//!     .preload(hot_queries)
//!     .workers(8)
//!     .shards(16)
//!     .build()?;
//! ```

use crate::cache::{AdmissionPolicy, CacheConfig, CacheLayer, CacheLookup, CacheStore};
use crate::error::ServingError;
use crate::features::{compute_features_batch, FeatureStore, StructuredFeatures};
pub use crate::histogram::LatencyRecorder;
use crate::protocol::{OpsStats, ServeRequest, ServeResponse, ServeStatus, OPS_VERSION};
use crate::swap::{SnapshotGeneration, SnapshotHandle};
use cosmo_exec::{ChunkResult, WorkerPool};
use cosmo_kg::{KgSnapshot, KgSnapshotView, KnowledgeGraph};
use cosmo_lm::CosmoLm;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Serving configuration: worker pool, batching, cache sizing, and
/// pending-queue admission, validated at build time.
#[derive(Debug, Clone)]
pub struct ServingConfig {
    /// Worker threads in the persistent batch pool.
    pub workers: usize,
    /// Max queries per batch cycle.
    pub batch_size: usize,
    /// L1 capacity (yearly-frequent layer).
    pub l1_capacity: usize,
    /// Total L2 capacity (daily layer, split across shards).
    pub l2_capacity: usize,
    /// Shard count for L2 / pending / hit-count / feature-store state.
    pub shards: usize,
    /// Total bound on queued pending queries (split across shards).
    pub pending_bound: usize,
    /// What to do with a miss when its pending queue shard is full.
    pub admission: AdmissionPolicy,
}

impl Default for ServingConfig {
    fn default() -> Self {
        ServingConfig {
            workers: 4,
            batch_size: 256,
            l1_capacity: 4096,
            l2_capacity: 16384,
            shards: 8,
            pending_bound: 4096,
            admission: AdmissionPolicy::DropOldest,
        }
    }
}

impl ServingConfig {
    /// Reject configurations that cannot serve: zero workers, zero batch
    /// size, zero capacities, zero shards, or a zero queue bound.
    pub fn validate(&self) -> Result<(), ServingError> {
        for (value, what) in [
            (self.workers, "workers"),
            (self.batch_size, "batch_size"),
            (self.l1_capacity, "l1_capacity"),
            (self.l2_capacity, "l2_capacity"),
            (self.shards, "shards"),
            (self.pending_bound, "pending_bound"),
        ] {
            if value == 0 {
                return Err(ServingError::InvalidConfig(format!("{what} must be > 0")));
            }
        }
        Ok(())
    }

    fn cache_config(&self) -> CacheConfig {
        CacheConfig {
            l1_capacity: self.l1_capacity,
            l2_capacity: self.l2_capacity,
            shards: self.shards,
            pending_bound: self.pending_bound,
            admission: self.admission,
        }
    }
}

/// Response of the request path.
#[derive(Debug, Clone)]
pub struct ServeResult {
    /// Features when cached; `None` means the query was forwarded to batch
    /// processing and downstream applications fall back this request.
    pub features: Option<Arc<StructuredFeatures>>,
    /// Which layer answered (when cached).
    pub layer: Option<CacheLayer>,
    /// Request-path latency in microseconds.
    pub latency_us: u64,
}

/// A typed request answered in-process: the wire-identical
/// [`ServeResponse`] plus the in-process extras (the full feature object
/// and the measured latency) that deliberately stay off the wire.
#[derive(Debug, Clone)]
pub struct Served {
    /// The response, exactly as the HTTP front end would serialise it.
    pub response: ServeResponse,
    /// The full cached features on a hit (in-process callers get the
    /// whole object, not just the rendered intents).
    pub features: Option<Arc<StructuredFeatures>>,
    /// Request-path latency in microseconds (measured, not part of the
    /// response body — that is what keeps the body deterministic).
    pub latency_us: u64,
}

/// One operational snapshot of the serving system (the quantities an ops
/// dashboard for Figure 5 would chart).
#[deprecated(
    since = "0.6.0",
    note = "use the versioned `protocol::OpsStats` returned by `ServingSystem::ops()`"
)]
#[derive(Debug, Clone, PartialEq)]
pub struct SystemSnapshot {
    /// Entries in the pre-loaded L1 layer.
    pub l1_size: usize,
    /// Entries in the daily L2 layer (all shards).
    pub l2_size: usize,
    /// Per-shard L2 entry counts.
    pub l2_shard_sizes: Vec<usize>,
    /// Distinct queries queued for the next batch cycle.
    pub pending: usize,
    /// Peak queue depth since the last metrics reset.
    pub queue_high_water: usize,
    /// Pending entries evicted under `AdmissionPolicy::DropOldest`.
    pub dropped: u64,
    /// Pending enqueues refused under `AdmissionPolicy::RejectNew`.
    pub rejected: u64,
    /// Batch-worker chunks that panicked (queries were re-queued).
    pub batch_failed_chunks: u64,
    /// Cumulative cache hit rate.
    pub hit_rate: f64,
    /// p50 request latency (µs).
    pub p50_us: u64,
    /// p99 request latency (µs).
    pub p99_us: u64,
    /// Feature-store size.
    pub features: usize,
    /// Current model version.
    pub model_version: u64,
}

/// Test hook: a query with this text makes a worker panic mid-chunk.
#[cfg(test)]
pub(crate) const PANIC_QUERY: &str = "__cosmo_injected_worker_panic__";

/// Builder for [`ServingSystem`]: named, validated configuration — the
/// only way to construct a system.
#[derive(Default)]
pub struct ServingSystemBuilder {
    kg: Option<Arc<KnowledgeGraph>>,
    snapshot: Option<Arc<KgSnapshot>>,
    view: Option<KgSnapshotView>,
    lm: Option<Arc<CosmoLm>>,
    preload: Vec<String>,
    cfg: ServingConfig,
}

impl ServingSystemBuilder {
    /// Knowledge graph backing feature computation. Frozen into a
    /// [`KgSnapshot`] at build time — serving only ever reads the graph,
    /// and the CSR snapshot answers lookups several times faster than the
    /// hashmap-backed builder. Pass a pre-frozen (or file-loaded) snapshot
    /// via [`ServingSystemBuilder::snapshot`] to skip the freeze; one of
    /// the two is required.
    pub fn kg(mut self, kg: Arc<KnowledgeGraph>) -> Self {
        self.kg = Some(kg);
        self
    }

    /// Frozen knowledge-graph snapshot backing feature computation —
    /// typically loaded from a file written offline ([`KgSnapshot::load`]),
    /// mirroring the paper's offline-materialise → online-serve boundary.
    /// Takes precedence over [`ServingSystemBuilder::kg`].
    pub fn snapshot(mut self, snapshot: Arc<KgSnapshot>) -> Self {
        self.snapshot = Some(snapshot);
        self
    }

    /// Snapshot view of either format version — the way to serve a
    /// zero-copy mapped v2 file ([`KgSnapshotView::open`]). Takes
    /// precedence over [`ServingSystemBuilder::snapshot`] and
    /// [`ServingSystemBuilder::kg`].
    pub fn view(mut self, view: KgSnapshotView) -> Self {
        self.view = Some(view);
        self
    }

    /// COSMO-LM student model for cold queries (required).
    pub fn lm(mut self, lm: Arc<CosmoLm>) -> Self {
        self.lm = Some(lm);
        self
    }

    /// Queries to pre-compute into the L1 yearly-frequent layer.
    pub fn preload<I, S>(mut self, queries: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.preload = queries.into_iter().map(Into::into).collect();
        self
    }

    /// Replace the whole configuration at once.
    pub fn config(mut self, cfg: ServingConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Worker threads in the persistent batch pool.
    pub fn workers(mut self, workers: usize) -> Self {
        self.cfg.workers = workers;
        self
    }

    /// Max queries per batch cycle.
    pub fn batch_size(mut self, batch_size: usize) -> Self {
        self.cfg.batch_size = batch_size;
        self
    }

    /// L1 (yearly-frequent layer) capacity.
    pub fn l1_capacity(mut self, l1_capacity: usize) -> Self {
        self.cfg.l1_capacity = l1_capacity;
        self
    }

    /// Total L2 (daily layer) capacity.
    pub fn l2_capacity(mut self, l2_capacity: usize) -> Self {
        self.cfg.l2_capacity = l2_capacity;
        self
    }

    /// Shard count for cache and feature-store state.
    pub fn shards(mut self, shards: usize) -> Self {
        self.cfg.shards = shards;
        self
    }

    /// Total bound on queued pending queries.
    pub fn pending_bound(mut self, pending_bound: usize) -> Self {
        self.cfg.pending_bound = pending_bound;
        self
    }

    /// Admission policy for a full pending queue.
    pub fn admission(mut self, admission: AdmissionPolicy) -> Self {
        self.cfg.admission = admission;
        self
    }

    /// Validate the configuration, pre-compute the preloaded features,
    /// spawn the worker pool, and assemble the system.
    pub fn build(self) -> Result<ServingSystem, ServingError> {
        self.cfg.validate()?;
        let view = match (self.view, self.snapshot, self.kg) {
            (Some(view), _, _) => view,
            (None, Some(snapshot), _) => {
                KgSnapshotView::Owned(Arc::try_unwrap(snapshot).unwrap_or_else(|a| (*a).clone()))
            }
            (None, None, Some(kg)) => KgSnapshotView::Owned(kg.freeze()),
            (None, None, None) => return Err(ServingError::MissingKnowledgeGraph),
        };
        let lm = self.lm.ok_or(ServingError::MissingModel)?;
        let generation =
            ServingSystem::build_generation(1, Arc::new(view), &self.preload, &self.cfg, &lm);
        let pool = WorkerPool::new(self.cfg.workers);
        Ok(ServingSystem {
            handle: SnapshotHandle::new(generation),
            latency: LatencyRecorder::default(),
            preload: self.preload,
            cfg: self.cfg,
            lm,
            pool,
            swap_lock: Mutex::new(()),
            batch_failed_chunks: AtomicU64::new(0),
            model_version: AtomicU64::new(1),
            feedback: Mutex::new(Vec::new()),
        })
    }
}

/// The full serving system.
///
/// All graph-derived state (view + cache + feature store) lives in the
/// current [`SnapshotGeneration`] behind the RCU [`SnapshotHandle`];
/// access it through [`ServingSystem::current`]. Latency, model version
/// and the worker pool are generation-independent and stay here.
pub struct ServingSystem {
    /// Request-path latency histogram (survives snapshot swaps).
    pub latency: LatencyRecorder,
    handle: SnapshotHandle,
    preload: Vec<String>,
    cfg: ServingConfig,
    lm: Arc<CosmoLm>,
    pool: WorkerPool,
    /// Serialises swaps so generation numbers are strictly increasing.
    swap_lock: Mutex<()>,
    batch_failed_chunks: AtomicU64,
    model_version: AtomicU64,
    feedback: Mutex<Vec<(String, String)>>,
}

impl ServingSystem {
    /// Start building a serving system.
    pub fn builder() -> ServingSystemBuilder {
        ServingSystemBuilder::default()
    }

    /// The active configuration.
    pub fn config(&self) -> &ServingConfig {
        &self.cfg
    }

    /// The currently published snapshot generation (view + cache +
    /// feature store). Take it once per logical operation so a
    /// concurrent swap cannot tear your reads across generations.
    pub fn current(&self) -> Arc<SnapshotGeneration> {
        self.handle.load()
    }

    /// The current generation number (1 at build, +1 per swap).
    pub fn generation(&self) -> u64 {
        self.current().generation
    }

    /// The graph view the current generation answers from.
    pub fn kg_view(&self) -> Arc<KgSnapshotView> {
        Arc::clone(&self.current().view)
    }

    /// Atomically replace the serving snapshot under live traffic.
    ///
    /// The entire next generation — view, preload-warmed cache, feature
    /// store — is built off to the side and then published with one
    /// pointer store; requests in flight finish on the generation they
    /// started on. Returns the new generation number.
    ///
    /// The new generation starts warm: the outgoing L2 queries are
    /// recomputed against `view` on the worker pool and installed in the
    /// outgoing FIFO order (one `compute_features_batch` over at most
    /// `l2_capacity` queries), and the outgoing pending queue is
    /// re-queued without counting misses. A warm chunk that panics is
    /// dropped — its queries miss and refill. Hit counts restart, and
    /// entries installed into the outgoing generation during the build
    /// are lost. [`SnapshotGeneration::warmed`] counts what carried.
    pub fn swap_snapshot(&self, view: KgSnapshotView) -> u64 {
        let _serialised = self.swap_lock.lock();
        let outgoing = self.handle.load();
        let next = outgoing.generation + 1;
        let mut generation =
            Self::build_generation(next, Arc::new(view), &self.preload, &self.cfg, &self.lm);
        generation.warmed = self.carry_l2(&outgoing, &generation);
        generation
            .cache
            .requeue(&outgoing.cache.drain_pending(usize::MAX));
        self.handle.publish(generation);
        next
    }

    /// Recompute `outgoing`'s L2 queries against `next`'s view and
    /// install them into `next` in the outgoing FIFO order. Returns the
    /// number of entries carried.
    fn carry_l2(&self, outgoing: &SnapshotGeneration, next: &SnapshotGeneration) -> usize {
        let queries = outgoing.cache.l2_queries();
        let mut warmed = 0;
        for outcome in self.compute_on_pool(&queries, self.cfg.batch_size, &next.view) {
            if let ChunkResult::Computed { results, .. } = outcome {
                warmed += results.len();
                let arcs = results.into_iter().map(|f| next.features.put(f)).collect();
                for gone in next.cache.install(arcs) {
                    next.features.remove_entry(&gone);
                }
            }
        }
        warmed
    }

    /// Compute features for `queries` against `view` on the persistent
    /// worker pool, `chunk` queries per job, isolating panicking chunks.
    fn compute_on_pool(
        &self,
        queries: &[String],
        chunk: usize,
        view: &KgSnapshotView,
    ) -> Vec<ChunkResult<StructuredFeatures>> {
        // Each worker scores its whole chunk through the student's batched
        // candidate path: one generation matmul for the chunk's cold
        // queries and one embedding matmul for the chunk, bitwise
        // identical to the per-query formulation.
        self.pool.try_map_slices(queries, chunk, |_, qs| {
            #[cfg(test)]
            assert!(
                !qs.iter().any(|q| q == PANIC_QUERY),
                "injected worker panic"
            );
            let refs: Vec<&str> = qs.iter().map(String::as_str).collect();
            compute_features_batch(&refs, view, &self.lm)
        })
    }

    /// Assemble one generation: preload features computed against *its*
    /// view, a fresh cache warmed with them, a fresh feature store.
    fn build_generation(
        generation: u64,
        view: Arc<KgSnapshotView>,
        preload: &[String],
        cfg: &ServingConfig,
        lm: &Arc<CosmoLm>,
    ) -> SnapshotGeneration {
        let preload_refs: Vec<&str> = preload.iter().map(String::as_str).collect();
        let preloaded: Vec<StructuredFeatures> = compute_features_batch(&preload_refs, &*view, lm);
        let features = FeatureStore::with_shards(cfg.shards);
        for f in &preloaded {
            features.put(f.clone());
        }
        let cache = CacheStore::new(preloaded, cfg.cache_config());
        SnapshotGeneration {
            generation,
            view,
            cache,
            features,
            warmed: 0,
        }
    }

    /// Typed request path: cache-only, never blocks on model inference.
    ///
    /// This is the single entry point both surfaces share — the HTTP
    /// front end serialises [`Served::response`] verbatim, so network
    /// and in-process callers get byte-identical answers for the same
    /// cache state.
    pub fn serve(&self, req: &ServeRequest) -> Served {
        let start = Instant::now();
        let generation = self.current();
        let lookup = generation.cache.lookup(&req.query);
        let latency_us = start.elapsed().as_micros() as u64;
        self.latency.record(latency_us);
        let model_version = self.model_version();
        let snapshot_generation = generation.generation;
        match lookup {
            CacheLookup::Hit(f, layer) => Served {
                response: ServeResponse::for_hit(
                    req,
                    &f,
                    layer,
                    model_version,
                    snapshot_generation,
                ),
                features: Some(f),
                latency_us,
            },
            CacheLookup::MissEnqueued => Served {
                response: ServeResponse::for_miss(
                    req,
                    ServeStatus::Enqueued,
                    model_version,
                    snapshot_generation,
                ),
                features: None,
                latency_us,
            },
            CacheLookup::MissRejected => Served {
                response: ServeResponse::for_miss(
                    req,
                    ServeStatus::Rejected,
                    model_version,
                    snapshot_generation,
                ),
                features: None,
                latency_us,
            },
        }
    }

    /// [`ServingSystem::serve`] reduced to the wire response.
    pub fn handle(&self, req: &ServeRequest) -> ServeResponse {
        self.serve(req).response
    }

    /// Untyped request path, kept for callers that only have a query
    /// string: a thin wrapper over [`ServingSystem::serve`].
    pub fn handle_request(&self, query: &str) -> ServeResult {
        let served = self.serve(&ServeRequest::new(query));
        ServeResult {
            layer: served.response.layer,
            features: served.features,
            latency_us: served.latency_us,
        }
    }

    /// One batch cycle: drain pending queries, compute features on the
    /// persistent worker pool, install into L2 and the feature store.
    ///
    /// Returns the number of queries processed. A panicking worker chunk
    /// does not kill the caller: its queries are re-queued for the next
    /// cycle, the failure is counted in the snapshot, the surviving
    /// chunks are still installed, and `Err(ServingError::BatchWorker)`
    /// reports the degradation.
    pub fn run_batch_cycle(&self) -> Result<usize, ServingError> {
        // The whole cycle runs against one generation: drained queries are
        // installed into the same cache they were drained from. If a swap
        // lands mid-cycle the installs go to the retiring generation and
        // die with it — the swap has already read the L2 set it carries.
        let generation = self.current();
        let queries = generation.cache.drain_pending(self.cfg.batch_size);
        if queries.is_empty() {
            return Ok(0);
        }
        let chunk = queries.len().div_ceil(self.cfg.workers.max(1)).max(1);
        let outcomes = self.compute_on_pool(&queries, chunk, &generation.view);
        let mut installed = 0usize;
        let mut failed_chunks = 0usize;
        let mut requeued = 0usize;
        for outcome in outcomes {
            match outcome {
                ChunkResult::Computed { results, .. } => {
                    let mut arcs = Vec::with_capacity(results.len());
                    for f in results {
                        arcs.push(generation.features.put(f));
                    }
                    installed += arcs.len();
                    for gone in generation.cache.install(arcs) {
                        generation.features.remove_entry(&gone);
                    }
                }
                ChunkResult::Panicked { start, len } => {
                    failed_chunks += 1;
                    if let Some(chunk) = queries.get(start..start + len) {
                        requeued += generation.cache.requeue(chunk);
                    }
                    self.batch_failed_chunks.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        if failed_chunks > 0 {
            Err(ServingError::BatchWorker {
                failed_chunks,
                requeued,
            })
        } else {
            Ok(installed)
        }
    }

    /// Daily refresh: bump the model version (simulating the SageMaker
    /// re-deployment with fresh behaviour logs) and rotate the cache.
    /// Returns the number of promoted L1 entries.
    pub fn daily_refresh(&self) -> usize {
        self.model_version.fetch_add(1, Ordering::Relaxed);
        self.current().cache.daily_refresh()
    }

    /// Current model version (increments per daily refresh).
    pub fn model_version(&self) -> u64 {
        self.model_version.load(Ordering::Relaxed)
    }

    /// The versioned operational stats schema: everything the ops
    /// dashboard charts, identical between in-process callers and
    /// `GET /ops/stats` on the HTTP front end.
    pub fn ops(&self) -> OpsStats {
        let generation = self.current();
        let (l1_size, l2_size) = generation.cache.sizes();
        OpsStats {
            ops_version: OPS_VERSION,
            model_version: self.model_version(),
            l1_size,
            l2_size,
            l2_shard_sizes: generation.cache.l2_shard_sizes(),
            pending: generation.cache.pending_len(),
            pending_shard_depths: generation.cache.pending_shard_sizes(),
            queue_high_water: generation.cache.metrics.pending_high_water(),
            dropped: generation.cache.metrics.dropped.load(Ordering::Relaxed),
            rejected: generation.cache.metrics.rejected.load(Ordering::Relaxed),
            batch_failed_chunks: self.batch_failed_chunks.load(Ordering::Relaxed),
            l1_hits: generation.cache.metrics.l1_hits.load(Ordering::Relaxed),
            l2_hits: generation.cache.metrics.l2_hits.load(Ordering::Relaxed),
            misses: generation.cache.metrics.misses.load(Ordering::Relaxed),
            hit_rate: generation.cache.metrics.hit_rate(),
            p50_us: self.latency.percentile(0.5),
            p99_us: self.latency.percentile(0.99),
            latency_count: self.latency.len() as u64,
            latency_buckets: self.latency.nonzero_buckets(),
            features: generation.features.len(),
            snapshot_generation: generation.generation,
            swap_warmed: generation.warmed,
        }
    }

    /// Operational snapshot for dashboards/alerts.
    #[deprecated(since = "0.6.0", note = "use `ServingSystem::ops()`")]
    #[allow(deprecated)] // the deprecated shim must mention its own deprecated return type
    pub fn snapshot(&self) -> SystemSnapshot {
        let ops = self.ops();
        SystemSnapshot {
            l1_size: ops.l1_size,
            l2_size: ops.l2_size,
            l2_shard_sizes: ops.l2_shard_sizes,
            pending: ops.pending,
            queue_high_water: ops.queue_high_water,
            dropped: ops.dropped,
            rejected: ops.rejected,
            batch_failed_chunks: ops.batch_failed_chunks,
            hit_rate: ops.hit_rate,
            p50_us: ops.p50_us,
            p99_us: ops.p99_us,
            features: ops.features,
            model_version: ops.model_version,
        }
    }

    /// Feedback loop: record a served interaction (query, purchased
    /// product) for the next model refresh.
    pub fn record_feedback(&self, query: &str, product: &str) {
        self.feedback
            .lock()
            .push((query.to_string(), product.to_string()));
    }

    /// Drain accumulated feedback (consumed by the next offline run).
    pub fn drain_feedback(&self) -> Vec<(String, String)> {
        std::mem::take(&mut self.feedback.lock())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cosmo_kg::Relation;
    use cosmo_lm::StudentConfig;

    fn parts() -> (Arc<KnowledgeGraph>, Arc<CosmoLm>) {
        let lm = Arc::new(CosmoLm::new(
            StudentConfig::default(),
            vec![
                ("sleeping outdoors".into(), Some(Relation::UsedForFunc)),
                ("keeping warm".into(), Some(Relation::CapableOf)),
            ],
        ));
        (Arc::new(KnowledgeGraph::new()), lm)
    }

    fn system(preload: &[&str]) -> ServingSystem {
        let (kg, lm) = parts();
        ServingSystem::builder()
            .kg(kg)
            .lm(lm)
            .preload(preload.iter().copied())
            .workers(2)
            .build()
            .unwrap()
    }

    #[test]
    fn preloaded_queries_hit_l1() {
        let sys = system(&["camping"]);
        let r = sys.handle_request("camping");
        assert!(r.features.is_some());
        assert_eq!(r.layer, Some(CacheLayer::L1));
    }

    #[test]
    fn miss_then_batch_then_l2_hit() {
        let sys = system(&[]);
        let r = sys.handle_request("hiking gear");
        assert!(r.features.is_none(), "first request must not block");
        let processed = sys.run_batch_cycle().unwrap();
        assert_eq!(processed, 1);
        let r2 = sys.handle_request("hiking gear");
        assert_eq!(r2.layer, Some(CacheLayer::L2));
        assert!(sys.current().features.get("hiking gear").is_some());
    }

    #[test]
    fn batch_cycle_uses_all_pending() {
        let sys = system(&[]);
        for i in 0..20 {
            let _ = sys.handle_request(&format!("query {i}"));
        }
        assert_eq!(sys.run_batch_cycle().unwrap(), 20);
        assert_eq!(sys.run_batch_cycle().unwrap(), 0, "queue drained");
    }

    #[test]
    fn daily_refresh_bumps_model_version() {
        let sys = system(&[]);
        assert_eq!(sys.model_version(), 1);
        let _ = sys.handle_request("q");
        sys.run_batch_cycle().unwrap();
        let _ = sys.handle_request("q"); // L2 hit → promotion candidate
        let promoted = sys.daily_refresh();
        assert_eq!(sys.model_version(), 2);
        assert_eq!(promoted, 1);
        let r = sys.handle_request("q");
        assert_eq!(r.layer, Some(CacheLayer::L1));
    }

    #[test]
    fn ops_reflects_state() {
        let sys = system(&["hot"]);
        let _ = sys.handle_request("hot");
        let _ = sys.handle_request("cold");
        let ops = sys.ops();
        assert_eq!(ops.ops_version, OPS_VERSION);
        assert_eq!(ops.l1_size, 1);
        assert_eq!(ops.pending, 1);
        assert_eq!(ops.pending_shard_depths.iter().sum::<usize>(), 1);
        assert_eq!(ops.queue_high_water, 1);
        assert_eq!((ops.l1_hits, ops.l2_hits, ops.misses), (1, 0, 1));
        assert!((ops.hit_rate - 0.5).abs() < 1e-9);
        assert_eq!(ops.model_version, 1);
        assert_eq!(ops.dropped + ops.rejected, 0);
        assert_eq!(ops.latency_count, 2);
        assert_eq!(
            ops.latency_buckets.iter().map(|(_, c)| c).sum::<u64>(),
            2,
            "histogram buckets account for every sample"
        );
        sys.run_batch_cycle().unwrap();
        let ops2 = sys.ops();
        assert_eq!(ops2.pending, 0);
        assert_eq!(ops2.l2_size, 1);
        assert_eq!(ops2.l2_shard_sizes.iter().sum::<usize>(), 1);
        assert!(ops2.features >= 2);
        // the ops schema round-trips over its own wire encoding
        use crate::protocol::OpsStats;
        assert_eq!(OpsStats::from_json(&ops2.to_json()).unwrap(), ops2);
    }

    #[test]
    fn typed_serve_matches_untyped_path() {
        let sys = system(&["hot"]);
        let served = sys.serve(&ServeRequest::new("hot"));
        assert_eq!(served.response.status, ServeStatus::Hit);
        assert_eq!(served.response.layer, Some(CacheLayer::L1));
        assert!(served.features.is_some());
        assert!(!served.response.intents.is_empty());
        // a miss reports the admission outcome on the wire
        let miss = sys.handle(&ServeRequest::new("cold"));
        assert_eq!(miss.status, ServeStatus::Enqueued);
        assert_eq!(miss.layer, None);
        // handle_request stays a thin wrapper over serve
        let r = sys.handle_request("hot");
        assert_eq!(r.layer, Some(CacheLayer::L1));
        assert!(r.features.is_some());
    }

    #[test]
    fn rejected_miss_is_surfaced_in_response() {
        let (kg, lm) = parts();
        let sys = ServingSystem::builder()
            .kg(kg)
            .lm(lm)
            .shards(1)
            .pending_bound(1)
            .admission(AdmissionPolicy::RejectNew)
            .build()
            .unwrap();
        assert_eq!(
            sys.handle(&ServeRequest::new("a")).status,
            ServeStatus::Enqueued
        );
        assert_eq!(
            sys.handle(&ServeRequest::new("b")).status,
            ServeStatus::Rejected
        );
        assert_eq!(sys.ops().rejected, 1);
    }

    #[test]
    #[allow(deprecated)] // locks the deprecated SystemSnapshot shim to the ops() values
    fn deprecated_snapshot_shim_matches_ops() {
        let sys = system(&["hot"]);
        let _ = sys.handle_request("hot");
        let _ = sys.handle_request("cold");
        let snap = sys.snapshot();
        let ops = sys.ops();
        assert_eq!(snap.l1_size, ops.l1_size);
        assert_eq!(snap.pending, ops.pending);
        assert_eq!(snap.hit_rate, ops.hit_rate);
        assert_eq!(snap.model_version, ops.model_version);
    }

    #[test]
    fn builder_validates_config() {
        let (kg, lm) = parts();
        let err = ServingSystem::builder().kg(kg).lm(lm).workers(0).build();
        assert!(matches!(err, Err(ServingError::InvalidConfig(_))));
    }

    #[test]
    fn builder_requires_kg_and_lm() {
        let (kg, lm) = parts();
        assert_eq!(
            ServingSystem::builder().lm(lm.clone()).build().err(),
            Some(ServingError::MissingKnowledgeGraph)
        );
        assert_eq!(
            ServingSystem::builder().kg(kg).build().err(),
            Some(ServingError::MissingModel)
        );
    }

    #[test]
    fn worker_panic_degrades_instead_of_killing_caller() {
        let sys = system(&[]);
        let _ = sys.handle_request(PANIC_QUERY);
        for i in 0..7 {
            let _ = sys.handle_request(&format!("healthy {i}"));
        }
        let err = sys.run_batch_cycle().unwrap_err();
        let ServingError::BatchWorker {
            failed_chunks,
            requeued,
        } = err
        else {
            panic!("expected BatchWorker error");
        };
        assert_eq!(failed_chunks, 1, "only the poisoned chunk fails");
        assert!(requeued >= 1, "poisoned chunk re-queued");
        assert_eq!(sys.current().cache.pending_len(), requeued);
        let ops = sys.ops();
        assert_eq!(ops.batch_failed_chunks, 1);
        assert_eq!(
            ops.l2_size,
            8 - requeued,
            "surviving chunks are still installed"
        );
        // the poisoned query keeps failing but never panics the caller
        assert!(sys.run_batch_cycle().is_err());
    }

    /// A graph answering `query → intent` for each pair.
    fn kg_of(pairs: &[(&str, &str)]) -> KnowledgeGraph {
        use cosmo_kg::{BehaviorKind, Edge, NodeKind};
        let mut kg = KnowledgeGraph::new();
        for (query, intent) in pairs {
            let head = kg.intern_node(NodeKind::Query, query);
            let tail = kg.intern_node(NodeKind::Intention, intent);
            kg.add_edge(Edge {
                head,
                relation: Relation::UsedForFunc,
                tail,
                behavior: BehaviorKind::SearchBuy,
                category: 0,
                plausibility: 0.9,
                typicality: 0.7,
                support: 3,
            });
        }
        kg
    }

    fn view_of(kg: &KnowledgeGraph) -> KgSnapshotView {
        KgSnapshotView::Owned(kg.freeze())
    }

    /// Wire bytes a generation-2 system over `kg` serves for `query`
    /// after a miss and one batch cycle.
    fn filled_body(kg: &KnowledgeGraph, query: &str) -> String {
        let (_, lm) = parts();
        let fresh = ServingSystem::builder()
            .view(view_of(kg))
            .lm(lm)
            .workers(2)
            .build()
            .unwrap();
        assert_eq!(fresh.swap_snapshot(view_of(kg)), 2);
        let miss = fresh.handle(&ServeRequest::new(query));
        assert_eq!(miss.status, ServeStatus::Enqueued);
        fresh.run_batch_cycle().unwrap();
        let hit = fresh.handle(&ServeRequest::new(query));
        assert_eq!(hit.layer, Some(CacheLayer::L2));
        hit.to_json()
    }

    #[test]
    fn swap_carries_l2_recomputed_against_the_new_view() {
        let old_kg = kg_of(&[
            ("tent", "sleeping outdoors"),
            ("rain jacket", "staying dry"),
        ]);
        // "tent" changes its answer; "rain jacket" leaves the graph (cold)
        let new_kg = kg_of(&[("tent", "backyard camping")]);
        let (_, lm) = parts();
        let sys = ServingSystem::builder()
            .view(view_of(&old_kg))
            .lm(lm)
            .workers(2)
            .build()
            .unwrap();
        let queries = ["tent", "rain jacket", "novel query"];
        for q in queries {
            let _ = sys.handle(&ServeRequest::new(q));
        }
        assert_eq!(sys.run_batch_cycle().unwrap(), 3);
        let before: Vec<String> = queries
            .iter()
            .map(|q| sys.handle(&ServeRequest::new(*q)).to_json())
            .collect();

        assert_eq!(sys.swap_snapshot(view_of(&new_kg)), 2);
        assert_eq!(sys.current().warmed, 3);
        assert_eq!(sys.ops().swap_warmed, 3);
        for (q, old_body) in queries.iter().zip(&before) {
            let served = sys.handle(&ServeRequest::new(*q));
            assert_eq!(served.layer, Some(CacheLayer::L2), "{q} carried");
            assert_eq!(served.to_json(), filled_body(&new_kg, q), "{q}");
            if *q != "novel query" {
                let old = ServeResponse::from_json(old_body).unwrap();
                assert_ne!(
                    served.intents, old.intents,
                    "{q} served the old view's answer"
                );
            }
        }
        let ops = sys.ops();
        assert_eq!((ops.l2_hits, ops.misses), (3, 0));
    }

    #[test]
    fn feature_store_stays_bounded_by_the_cache() {
        let kg = kg_of(&[("tent", "sleeping outdoors")]);
        let (_, lm) = parts();
        let l2_capacity = 16;
        let sys = ServingSystem::builder()
            .view(view_of(&kg))
            .lm(lm)
            .preload(["tent", "hot query"])
            .l2_capacity(l2_capacity)
            .shards(4)
            .batch_size(8)
            .workers(2)
            .build()
            .unwrap();
        let check = |generation: &SnapshotGeneration| {
            let (l1, l2) = generation.cache.sizes();
            assert_eq!((l1, l2), (2, l2_capacity));
            assert_eq!(generation.features.len(), l1 + l2, "store holds L1 ∪ L2");
            for q in generation.cache.l2_queries().iter().map(String::as_str) {
                assert!(generation.features.get(q).is_some(), "{q}");
            }
            for q in ["tent", "hot query"] {
                assert!(generation.features.get(q).is_some(), "{q}");
            }
        };
        for i in 0..10 * l2_capacity {
            let _ = sys.handle(&ServeRequest::new(format!("query {i}")));
            if i % 8 == 7 {
                sys.run_batch_cycle().unwrap();
            }
        }
        check(&sys.current());
        sys.swap_snapshot(view_of(&kg));
        check(&sys.current());
    }

    #[test]
    fn pending_miss_survives_swap() {
        let kg = kg_of(&[("tent", "sleeping outdoors")]);
        let (_, lm) = parts();
        let sys = ServingSystem::builder()
            .view(view_of(&kg))
            .lm(lm)
            .workers(2)
            .build()
            .unwrap();
        let miss = sys.handle(&ServeRequest::new("tent"));
        assert_eq!(miss.status, ServeStatus::Enqueued);
        sys.swap_snapshot(view_of(&kg));
        let ops = sys.ops();
        assert_eq!((ops.pending, ops.misses), (1, 0), "requeued, not re-missed");
        assert_eq!(sys.run_batch_cycle().unwrap(), 1);
        let hit = sys.handle(&ServeRequest::new("tent"));
        assert_eq!(hit.layer, Some(CacheLayer::L2));
        assert_eq!(hit.to_json(), filled_body(&kg, "tent"));
    }

    #[test]
    fn panicking_warm_chunk_is_dropped_not_fatal() {
        let (kg, lm) = parts();
        let sys = ServingSystem::builder()
            .kg(kg)
            .lm(lm)
            .workers(2)
            .batch_size(1)
            .build()
            .unwrap();
        for q in ["a", "b"] {
            let _ = sys.handle(&ServeRequest::new(q));
        }
        sys.run_batch_cycle().unwrap();
        sys.run_batch_cycle().unwrap();
        // plant the poisoned query in L2 (a batch cycle would refuse it)
        let poisoned = sys.current().features.put(StructuredFeatures {
            query: PANIC_QUERY.to_string(),
            intents: vec![],
            subcategory: vec![],
            strong_intent: None,
        });
        sys.current().cache.install(vec![poisoned]);
        assert_eq!(sys.current().cache.sizes().1, 3);
        assert_eq!(sys.swap_snapshot(view_of(&KnowledgeGraph::new())), 2);
        assert_eq!(sys.current().warmed, 2);
        assert_eq!(sys.current().cache.sizes().1, 2);
        assert_eq!(
            sys.handle(&ServeRequest::new("a")).layer,
            Some(CacheLayer::L2)
        );
        assert_eq!(
            sys.handle(&ServeRequest::new(PANIC_QUERY)).status,
            ServeStatus::Enqueued,
            "the dropped chunk's query misses and refills"
        );
    }

    #[test]
    fn feedback_loop_roundtrip() {
        let sys = system(&[]);
        sys.record_feedback("camping", "acme tent");
        sys.record_feedback("camping", "acme mattress");
        let fb = sys.drain_feedback();
        assert_eq!(fb.len(), 2);
        assert!(sys.drain_feedback().is_empty());
    }
}
