//! The serving workloads: `serve-hot` and `serve-churn`.
//!
//! Both stand up the shipped serving stack (`ServingConfig::default()`,
//! `ServerConfig::default()`) over a stream-frozen `ScaleConfig::mid`
//! world, then drive it open-loop over two keep-alive connections while a
//! bench-owned thread calls `ServingSystem::run_batch_cycle` at a fixed
//! cadence, standing in for the deployment's batch scheduler.

use crate::gen::{self, QueryStream, Route, Schedule, TrafficSpec};
use crate::report::Report;
use crate::trace::{median, percentile, Recorder};
use cosmo_core::{PipelineConfig, ScaleFreezeReport};
use cosmo_http::{HttpClient, HttpServer, HttpStats, ServerConfig, ServerHandle};
use cosmo_kg::{GraphView, KgSnapshotView, NodeKind, StreamOptions};
use cosmo_lm::{CosmoLm, StudentConfig};
use cosmo_nav::{NavigationEngine, Suggestion};
use cosmo_serving::{
    NavigateItem, NavigateRequest, NavigateResponse, ReloadResponse, ServeRequest, ServeResponse,
    ServeStatus, ServingConfig, ServingSystem, SnapshotGeneration, PROTOCOL_VERSION,
};
use cosmo_synth::scale::{head_text, mix64, ScaleConfig};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Client connections (and client threads) the load uses, reloads
/// included.
pub const CONNS: u8 = 2;
/// Preloaded L1 set: the most popular queries at time zero.
pub const L1_SET: usize = 2_048;
/// Queries warmed into L2 by miss + batch cycles before timing.
pub const L2_SET: usize = 6_144;
/// Epochs of the serving student (trained on `PipelineConfig::tiny`).
pub const STUDENT_EPOCHS: usize = 2;
/// Batch-scheduler cadence.
pub const BATCH_CADENCE: Duration = Duration::from_millis(20);
/// Share of arrivals that are navigate requests.
pub const NAV_SHARE: f64 = 0.10;
/// Reference offered rate (requests/s over both connections).
pub const REF_RATE: f64 = 3_000.0;
/// serve-intents p99 limit for goodput, timed from each request's due time.
pub const LAT_LIMIT_US: f64 = 20_000.0;
/// Goodput ladder: `LADDER_BASE * LADDER_RATIO^k`, `k < LADDER_STEPS`.
pub const LADDER_BASE: f64 = 4_000.0;
/// Ladder step ratio (5 %, finer than the throughput bound).
pub const LADDER_RATIO: f64 = 1.05;
/// Ladder length (top rung ≈ 115k requests/s).
pub const LADDER_STEPS: usize = 70;
/// Length of one goodput probe window.
pub const PROBE_SECS: f64 = 0.5;
/// serve-churn: Zipf exponent over the mid world's query heads. The
/// query skew of the repository's own Figure 5 traffic model
/// (`cosmo_serving::sim::TrafficConfig::default().zipf`), restated here so
/// that a change to that model does not silently change the workload.
pub const CHURN_ZIPF_S: f64 = 1.0;
/// serve-churn: popularity drift, ranks per second. Over a 25 s run the
/// popular head moves 10,000 ranks, about 60 % of `l2_capacity`, so L2
/// keeps admitting and evicting through the window instead of warming
/// once and going quiet.
pub const CHURN_DRIFT_PER_S: f64 = 400.0;
/// serve-churn: share of serve-intents carrying a never-seen query: the
/// brand-new-query share of the Figure 5 traffic model
/// (`TrafficConfig::default().drift`).
pub const CHURN_NOVEL_SHARE: f64 = 0.05;
/// serve-churn: `/ops/reload` cadence, the daily refresh compressed into
/// the run: two swaps in a 25 s run, at 6.25 s and 18.75 s, one in each
/// half of the window. Each reload raises the resident peak by about 70 MB
/// that the run does not give back, so about half of serve-churn's
/// `peak_rss_mb` is reload growth (see README); a cadence this low keeps
/// the stack's own footprint the other half.
pub const RELOAD_EVERY_S: f64 = 12.5;
/// serve-hot: Zipf exponent over the hot set, the same query skew as
/// [`CHURN_ZIPF_S`].
pub const HOT_ZIPF_S: f64 = CHURN_ZIPF_S;
/// Time the batch scheduler keeps running after the last response, so
/// late enqueues still fill (windows with novel queries only).
const GRACE: Duration = Duration::from_millis(300);

/// The running serving stack of one set-up.
pub struct Stack {
    /// The serving system the server answers from.
    pub system: Arc<ServingSystem>,
    server: ServerHandle,
    /// Bound server address.
    pub addr: SocketAddr,
    /// The frozen v2 snapshot the system opened.
    pub snapshot_path: PathBuf,
    /// The prepared v2 file `/ops/reload` names.
    pub reload_path: PathBuf,
    /// All query heads of the mid world in popularity order.
    pub ranked: Arc<Vec<String>>,
    /// The hot set: the L1 preload followed by the warmed L2 set.
    pub hot: Arc<Vec<String>>,
    /// Writer stats of the freeze.
    pub freeze: ScaleFreezeReport,
    /// Student the batch path generates with.
    pub student: Arc<CosmoLm>,
}

impl Stack {
    /// Stop the server, drop the system (unmapping the snapshots) and
    /// delete the snapshot files.
    pub fn shutdown(self) {
        let Stack {
            server,
            system,
            snapshot_path,
            reload_path,
            ..
        } = self;
        server.shutdown();
        drop(system);
        let _ = std::fs::remove_file(snapshot_path);
        let _ = std::fs::remove_file(reload_path);
    }
}

/// Build the serving stack: pipeline context + student, mid-world
/// stream freeze, verified open, serving system with the L1 preload,
/// L2 warm-up by miss + batch cycles, HTTP server.
pub fn setup(seed: u64, work: &Path, tag: usize) -> Result<Stack, String> {
    let pcfg = PipelineConfig::tiny(seed);
    let out = cosmo_core::run(pcfg);
    let instructions =
        cosmo_lm::build_instructions(&out.world, &out.filtered, &out.annotation, seed ^ 2);
    let mut student = CosmoLm::new(
        StudentConfig {
            seed: seed ^ 3,
            epochs: STUDENT_EPOCHS,
            ..StudentConfig::default()
        },
        cosmo_lm::tail_vocab_from_pipeline(&out),
    );
    student.train(&instructions);
    let student = Arc::new(student);

    let scale = ScaleConfig::mid(seed);
    let snapshot_path = work.join(format!("serve-{seed}-{tag}.kg2"));
    let threads = cosmo_exec::WorkerPool::available_parallelism();
    let freeze = cosmo_core::generate_and_freeze(
        &scale,
        threads,
        &snapshot_path,
        StreamOptions {
            spill_dir: Some(work.to_path_buf()),
            ..StreamOptions::default()
        },
    )
    .map_err(|e| format!("freeze: {e}"))?;
    let reload_path = work.join(format!("reload-{seed}-{tag}.kg2"));
    std::fs::copy(&snapshot_path, &reload_path).map_err(|e| format!("reload copy: {e}"))?;

    let mut rng = gen::Rng::new(seed, 0xA11);
    let ranked: Vec<String> = gen::permutation(scale.queries as usize, &mut rng)
        .into_iter()
        .map(|h| head_text(&scale, h as u64).1)
        .collect();

    let view = KgSnapshotView::open_verified(&snapshot_path).map_err(|e| format!("open: {e}"))?;
    let system = Arc::new(
        ServingSystem::builder()
            .view(view)
            .lm(Arc::clone(&student))
            .preload(ranked[..L1_SET].iter().cloned())
            .config(ServingConfig::default())
            .build()
            .map_err(|e| format!("serving build: {e}"))?,
    );
    warm_l2(&system, &ranked[L1_SET..L1_SET + L2_SET])?;
    let server = HttpServer::start(Arc::clone(&system), ServerConfig::default())
        .map_err(|e| format!("server start: {e}"))?;
    Ok(Stack {
        addr: server.addr(),
        system,
        server,
        snapshot_path,
        reload_path,
        hot: Arc::new(ranked[..L1_SET + L2_SET].to_vec()),
        ranked: Arc::new(ranked),
        freeze,
        student,
    })
}

/// Miss every L2-set query once and run batch cycles until the queue is
/// empty, in slices the pending bound admits without dropping.
fn warm_l2(system: &ServingSystem, queries: &[String]) -> Result<(), String> {
    for chunk in queries.chunks(1_024) {
        for q in chunk {
            system.handle(&ServeRequest::new(q.clone()));
        }
        while system.current().cache.pending_len() > 0 {
            system
                .run_batch_cycle()
                .map_err(|e| format!("warm-up batch: {e}"))?;
        }
    }
    let generation = system.current();
    let missing = queries
        .iter()
        .filter(|q| generation.features.get(q).is_none())
        .count();
    let (_, l2) = generation.cache.sizes();
    if missing > 0 || l2 != queries.len() {
        return Err(format!(
            "warm-up left {missing} queries unfilled, L2 holds {l2} of {}",
            queries.len()
        ));
    }
    Ok(())
}

/// What happened to one arrival.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// When the request went out, ns from the window start.
    pub send_ns: u64,
    /// When its response was read (or the transport failed).
    pub done_ns: u64,
    /// HTTP status; 0 for a transport error.
    pub status: u16,
    /// serve-intents answered from cache.
    pub hit: bool,
    /// serve-intents answered `enqueued`.
    pub enqueued: bool,
    /// The connection was replaced after this request: the server
    /// closed it, or the transport failed.
    pub reconnect: bool,
    /// Response body, kept for a seeded sample and every reload.
    pub body: Option<String>,
}

impl Outcome {
    fn failed(&self) -> bool {
        self.status != 200
    }
}

/// One batch cycle of the bench-owned batch scheduler.
#[derive(Debug, Clone)]
pub struct Cycle {
    /// Start, ns from the window start.
    pub start_ns: u64,
    /// End, ns from the window start.
    pub end_ns: u64,
    /// Queries the cycle drained (installed plus re-queued).
    pub queries: usize,
    /// Failed chunks it reported.
    pub failed_chunks: usize,
}

/// The result of one measurement window.
pub struct Window {
    /// The schedule that was sent.
    pub schedule: Schedule,
    /// Per-arrival outcomes, index-aligned with the schedule's arrivals.
    pub outcomes: Vec<Outcome>,
    /// Batch cycles run during the window (and its grace period).
    pub cycles: Vec<Cycle>,
    /// Novel-query fills: `(fill ns, queue-wait ns)`.
    pub fills: Vec<(u64, u64)>,
    /// Novel queries answered `enqueued` that never became answerable.
    pub lost_fills: usize,
    /// Numbers of every generation the window saw, oldest first.
    pub generations: Vec<u64>,
    /// Cache counters summed over those generations.
    pub cache: CacheCounters,
    /// HTTP counters at the start and end.
    pub http: (HttpStats, HttpStats),
    /// Window length, seconds (schedule horizon).
    pub secs: f64,
    /// Batch scheduler ran past the horizon for this long, seconds.
    pub scheduler_secs: f64,
    /// Hash of the schedule's canonical bytes (0 when not computed).
    pub fingerprint: u64,
}

/// Sleep, then yield, until `due_ns`; returns the send time.
fn wait_until(epoch: Instant, due_ns: u64) -> u64 {
    loop {
        let now = epoch.elapsed().as_nanos() as u64;
        if now >= due_ns {
            return now;
        }
        let left = due_ns - now;
        if left > 150_000 {
            std::thread::sleep(Duration::from_nanos(left - 100_000));
        } else {
            std::thread::yield_now();
        }
    }
}

/// Whether arrival `i` keeps its response body for the output checks.
fn sampled(seed: u64, i: usize) -> bool {
    mix64(seed ^ mix64(i as u64 ^ 0xB0D1)).is_multiple_of(16)
}

/// Drive one window: `CONNS` client threads send the schedule open-loop
/// while the batch scheduler cycles at [`BATCH_CADENCE`].
pub fn run_window(
    stack: &Stack,
    seed: u64,
    schedule: Schedule,
    secs: f64,
    rec: Option<&Recorder>,
) -> Window {
    let system = &stack.system;
    system.current().cache.metrics.reset();
    let http_before = stack.server.stats();
    let fresh: Mutex<Vec<(String, Instant)>> = Mutex::new(Vec::new());
    let clients_done = AtomicBool::new(false);
    let epoch = Instant::now();
    let horizon_ns = (secs * 1e9) as u64;
    let (fresh, clients_done) = (&fresh, &clients_done);

    let (per_conn, scheduler) = std::thread::scope(|s| {
        let clients: Vec<_> = (0..CONNS)
            .map(|conn| {
                let schedule = &schedule;
                s.spawn(move || client(conn, stack.addr, schedule, epoch, seed, fresh, rec))
            })
            .collect();
        let grace = if schedule.arrivals.iter().any(|a| a.novel) {
            GRACE
        } else {
            Duration::ZERO
        };
        let scheduler =
            s.spawn(move || batch_scheduler(system, epoch, fresh, clients_done, grace, rec));
        let per_conn: Vec<Vec<(usize, Outcome)>> = clients
            .into_iter()
            .map(|c| c.join().expect("client thread panicked"))
            .collect();
        clients_done.store(true, Ordering::SeqCst);
        (
            per_conn,
            scheduler.join().expect("batch scheduler panicked"),
        )
    });

    let mut outcomes = vec![Outcome::default(); schedule.arrivals.len()];
    for (i, o) in per_conn.into_iter().flatten() {
        outcomes[i] = o;
    }
    Window {
        schedule,
        outcomes,
        cycles: scheduler.cycles,
        fills: scheduler.fills,
        lost_fills: scheduler.lost_fills,
        generations: scheduler.generations,
        cache: scheduler.cache,
        http: (http_before, stack.server.stats()),
        secs,
        scheduler_secs: scheduler.end_ns.saturating_sub(horizon_ns) as f64 / 1e9,
        fingerprint: 0,
    }
}

/// One client connection: send this connection's arrivals at their due
/// times, reconnecting after transport errors.
fn client(
    conn: u8,
    addr: SocketAddr,
    schedule: &Schedule,
    epoch: Instant,
    seed: u64,
    fresh: &Mutex<Vec<(String, Instant)>>,
    rec: Option<&Recorder>,
) -> Vec<(usize, Outcome)> {
    let mut http = HttpClient::connect(addr).ok();
    let mut out = Vec::new();
    let mine = schedule
        .arrivals
        .iter()
        .enumerate()
        .filter(|(_, a)| a.conn == conn);
    for (i, a) in mine {
        // render before waiting, so the body costs no time past the due time
        let body = schedule.body(a);
        let send_ns = wait_until(epoch, a.due_ns);
        let start = Instant::now();
        let resp = match http.as_mut() {
            Some(c) => c.request("POST", a.route.path(), &body),
            None => Err(std::io::Error::other("not connected")),
        };
        let done = Instant::now();
        let done_ns = done.duration_since(epoch).as_nanos() as u64;
        if let Some(rec) = rec {
            rec.push(
                "http.round_trip",
                rec.at(start),
                rec.at(done),
                None,
                i as u64,
            );
        }
        let mut o = Outcome {
            send_ns,
            done_ns,
            ..Outcome::default()
        };
        match resp {
            Ok(r) => {
                o.status = r.status;
                o.reconnect = r.header("connection") == Some("close");
                if a.route == Route::Serve {
                    o.hit = r.body.contains(",\"status\":\"hit\"");
                    o.enqueued = r.body.contains(",\"status\":\"enqueued\"");
                    if a.novel && o.enqueued {
                        fresh
                            .lock()
                            .expect("fill list poisoned")
                            .push((schedule.query(a), done));
                    }
                }
                if a.route == Route::Reload || sampled(seed, i) {
                    o.body = Some(r.body);
                }
            }
            Err(_) => {
                o.reconnect = true;
                http = HttpClient::connect(addr).ok();
            }
        }
        out.push((i, o));
    }
    out
}

/// Cache counters of one window (each generation's counters start at
/// zero; the first generation's were reset at the window start).
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheCounters {
    /// L1 hits.
    pub l1_hits: u64,
    /// L2 hits.
    pub l2_hits: u64,
    /// Misses.
    pub misses: u64,
    /// Pending entries dropped by admission.
    pub dropped: u64,
    /// Misses rejected by admission.
    pub rejected: u64,
    /// Highest pending-queue depth of any generation.
    pub queue_high_water: usize,
}

impl CacheCounters {
    /// Add one generation's counters.
    fn add(&mut self, g: &SnapshotGeneration) {
        let m = &g.cache.metrics;
        self.l1_hits += m.l1_hits.load(Ordering::Relaxed);
        self.l2_hits += m.l2_hits.load(Ordering::Relaxed);
        self.misses += m.misses.load(Ordering::Relaxed);
        self.dropped += m.dropped.load(Ordering::Relaxed);
        self.rejected += m.rejected.load(Ordering::Relaxed);
        self.queue_high_water = self.queue_high_water.max(m.pending_high_water());
    }
}

/// What the batch scheduler saw over a window.
struct SchedulerOut {
    cycles: Vec<Cycle>,
    fills: Vec<(u64, u64)>,
    lost_fills: usize,
    generations: Vec<u64>,
    cache: CacheCounters,
    end_ns: u64,
}

/// The bench-owned batch scheduler: one `run_batch_cycle` per tick, and
/// after each cycle a check of which novel queries became answerable.
fn batch_scheduler(
    system: &ServingSystem,
    epoch: Instant,
    fresh: &Mutex<Vec<(String, Instant)>>,
    clients_done: &AtomicBool,
    grace: Duration,
    rec: Option<&Recorder>,
) -> SchedulerOut {
    let mut cycles = Vec::new();
    let mut fills = Vec::new();
    let mut outstanding: Vec<(String, Instant)> = Vec::new();
    // Only the newest generation is held, so retired ones free their
    // memory: a swap folds the retiring generation's counters in.
    let mut held = system.current();
    let mut generations = vec![held.generation];
    let mut counters = CacheCounters::default();
    let mut stop_at: Option<Instant> = None;
    let mut tick = epoch;
    loop {
        tick += BATCH_CADENCE;
        let now = Instant::now();
        if tick > now {
            std::thread::sleep(tick - now);
        } else {
            tick = now; // overran: the next tick starts from here
        }
        let start = Instant::now();
        let result = system.run_batch_cycle();
        let end = Instant::now();
        let (queries, failed_chunks) = match result {
            Ok(n) => (n, 0),
            Err(cosmo_serving::ServingError::BatchWorker {
                failed_chunks,
                requeued,
            }) => (requeued, failed_chunks),
            Err(_) => (0, 1),
        };
        if let Some(rec) = rec {
            rec.push(
                "serving.batch.cycle",
                rec.at(start),
                rec.at(end),
                None,
                cycles.len() as u64,
            );
        }
        cycles.push(Cycle {
            start_ns: start.duration_since(epoch).as_nanos() as u64,
            end_ns: end.duration_since(epoch).as_nanos() as u64,
            queries,
            failed_chunks,
        });
        let current = system.current();
        if current.generation != held.generation {
            counters.add(&held);
            generations.push(current.generation);
            held = Arc::clone(&current);
        }
        outstanding.append(&mut fresh.lock().expect("fill list poisoned"));
        outstanding.retain(|(q, enq)| {
            if current.features.get(q).is_none() {
                return true;
            }
            let fill = end.saturating_duration_since(*enq).as_nanos() as u64;
            let wait = start.saturating_duration_since(*enq).as_nanos() as u64;
            fills.push((fill, wait));
            false
        });
        match stop_at {
            None if clients_done.load(Ordering::SeqCst) => stop_at = Some(Instant::now() + grace),
            Some(t) if Instant::now() >= t => break,
            _ => {}
        }
    }
    counters.add(&held);
    SchedulerOut {
        cycles,
        fills,
        lost_fills: outstanding.len(),
        generations,
        cache: counters,
        end_ns: epoch.elapsed().as_nanos() as u64,
    }
}

/// Latency samples (µs, from due time) of one route's successful
/// requests.
fn latencies(w: &Window, route: Route) -> Vec<f64> {
    w.schedule
        .arrivals
        .iter()
        .zip(&w.outcomes)
        .filter(|(a, o)| a.route == route && !o.failed())
        .map(|(a, o)| (o.done_ns.saturating_sub(a.due_ns)) as f64 / 1e3)
        .collect()
}

/// Window totals: `(attempted, failed)` over every arrival.
fn attempts(w: &Window) -> (u64, u64) {
    let failed = w.outcomes.iter().filter(|o| o.failed()).count() as u64;
    (w.schedule.arrivals.len() as u64, failed)
}

/// The hot query stream: Zipf over the preloaded L1 set followed by the
/// warmed L2 set.
fn hot_stream(stack: &Stack) -> QueryStream {
    QueryStream {
        ranked: Arc::clone(&stack.hot),
        zipf_s: HOT_ZIPF_S,
        drift_per_s: 0.0,
        novel_share: 0.0,
    }
}

/// The drifting churn stream over every query head, plus novel queries.
fn churn_stream(stack: &Stack) -> QueryStream {
    QueryStream {
        ranked: Arc::clone(&stack.ranked),
        zipf_s: CHURN_ZIPF_S,
        drift_per_s: CHURN_DRIFT_PER_S,
        novel_share: CHURN_NOVEL_SHARE,
    }
}

fn spec(stack: &Stack, rate: f64, secs: f64, reload_every_s: Option<f64>) -> TrafficSpec {
    TrafficSpec {
        rate,
        secs,
        conns: CONNS,
        nav_share: NAV_SHARE,
        reload_every_s,
        reload_path: stack.reload_path.display().to_string(),
    }
}

/// Goodput probe verdict at one rate.
struct Probe {
    passed: bool,
    achieved_rps: f64,
    p99_us: f64,
    attempted: u64,
    failed: u64,
}

fn probe(stack: &Stack, seed: u64, window: u64, rate: f64, secs: f64) -> Probe {
    let schedule = gen::schedule(
        seed,
        window,
        &spec(stack, rate, secs, None),
        &hot_stream(stack),
    );
    let w = run_window(stack, seed, schedule, secs, None);
    let (attempted, failed) = attempts(&w);
    // the verdict uses the median of three sub-window p99s, so one
    // scheduler hiccup cannot decide a rung on its own
    let third = (secs * 1e9 / 3.0) as u64;
    let mut p99s: Vec<f64> = (0..3u64)
        .map(|k| {
            let mut lat: Vec<f64> = w
                .schedule
                .arrivals
                .iter()
                .zip(&w.outcomes)
                .filter(|(a, o)| a.route == Route::Serve && !o.failed() && a.due_ns / third == k)
                .map(|(a, o)| o.done_ns.saturating_sub(a.due_ns) as f64 / 1e3)
                .collect();
            lat.sort_by(f64::total_cmp);
            let idx = ((lat.len() as f64 * 0.99).ceil() as usize).saturating_sub(1);
            lat.get(idx).copied().unwrap_or(f64::INFINITY)
        })
        .collect();
    p99s.sort_by(f64::total_cmp);
    let p99 = p99s[1];
    let horizon_ns = (secs * 1e9) as u64;
    let last_done = w.outcomes.iter().map(|o| o.done_ns).max().unwrap_or(0);
    let backlog_ok = last_done <= horizon_ns + (LAT_LIMIT_US * 1e3) as u64;
    let within = w
        .schedule
        .arrivals
        .iter()
        .zip(&w.outcomes)
        .filter(|(a, o)| {
            !o.failed() && (o.done_ns.saturating_sub(a.due_ns) as f64) <= LAT_LIMIT_US * 1e3
        })
        .count();
    Probe {
        passed: failed == 0 && p99 <= LAT_LIMIT_US && backlog_ok,
        achieved_rps: within as f64 / secs,
        p99_us: p99,
        attempted,
        failed,
    }
}

/// The highest ladder rung whose p99 meets [`LAT_LIMIT_US`] with no
/// growing backlog, found in `budget` seconds of [`PROBE_SECS`] probes:
/// a binary search brackets the knee, then an up-one-on-pass /
/// down-one-on-fail staircase keeps probing around it. Goodput is the
/// median within-limit rate of the staircase's passing probes, so no
/// single noisy probe decides it.
fn goodput(stack: &Stack, seed: u64, budget: f64, report: &mut Report) -> Option<f64> {
    let rate = |k: usize| LADDER_BASE * LADDER_RATIO.powi(k as i32);
    let probes = ((budget / PROBE_SECS) as usize).max(1);
    let mut window = 100u64;
    let mut run = |k: usize, report: &mut Report| {
        let p = probe(stack, seed, window, rate(k), PROBE_SECS);
        window += 1;
        report.attempted += p.attempted;
        report.failed += p.failed;
        report.line(format!(
            "  probe rung {k:>2} {:>9.1} req/s: median sub-window p99 {:>9.1} us, {} failed -> {}",
            rate(k),
            p.p99_us,
            p.failed,
            if p.passed { "pass" } else { "fail" }
        ));
        p
    };
    let (mut low, mut high) = (0usize, LADDER_STEPS);
    let mut used = 0;
    let mut bracket = None;
    while low < high && used < probes {
        let mid = (low + high) / 2;
        used += 1;
        let p = run(mid, report);
        if p.passed {
            bracket = Some(p.achieved_rps);
            low = mid + 1;
        } else {
            high = mid;
        }
    }
    // `low` is the first rung that failed (or the top); staircase from the
    // last one that passed
    let mut k = low.saturating_sub(1);
    let mut passing = Vec::new();
    while used < probes {
        used += 1;
        let p = run(k, report);
        if p.passed {
            passing.push(p.achieved_rps);
            k = (k + 1).min(LADDER_STEPS - 1);
        } else {
            k = k.saturating_sub(1);
        }
    }
    report.line(format!(
        "  goodput: median of {} passing staircase probes out of {probes} probes",
        passing.len()
    ));
    if passing.is_empty() {
        // no staircase probe passed: fall back to the bracketing search
        return bracket;
    }
    Some(median(&passing))
}

/// Summaries every serving window reports.
fn report_window(w: &Window, report: &mut Report, label: &str) {
    let (attempted, failed) = attempts(w);
    report.attempted += attempted;
    report.failed += failed;
    let serve = latencies(w, Route::Serve);
    let nav = latencies(w, Route::Navigate);
    let late: Vec<f64> = w
        .schedule
        .arrivals
        .iter()
        .zip(&w.outcomes)
        .map(|(a, o)| o.send_ns.saturating_sub(a.due_ns) as f64 / 1e3)
        .collect();
    let n_serve = serve.len();
    report.line(format!(
        "{label}: {attempted} requests in {:.1} s, schedule fingerprint {:016x}",
        w.secs, w.fingerprint
    ));
    let base = |n: usize| format!("n={n}");
    report.metric("lat_p50_us", percentile(&serve, 0.5), "us", &base(n_serve));
    report.metric("lat_p99_us", percentile(&serve, 0.99), "us", &base(n_serve));
    report.metric("nav_p50_us", percentile(&nav, 0.5), "us", &base(nav.len()));
    report.metric("nav_p99_us", percentile(&nav, 0.99), "us", &base(nav.len()));
    report.metric(
        "gen_late_p50_us",
        percentile(&late, 0.5),
        "us",
        &base(late.len()),
    );
    report.metric(
        "gen_late_p99_us",
        percentile(&late, 0.99),
        "us",
        &base(late.len()),
    );
    let serve_attempts = w
        .schedule
        .arrivals
        .iter()
        .filter(|a| a.route == Route::Serve)
        .count();
    let hits = w.outcomes.iter().filter(|o| o.hit).count();
    report.metric(
        "hit_rate",
        Some(hits as f64 / serve_attempts.max(1) as f64),
        "ratio",
        &format!("{hits} hits / {serve_attempts} serve-intents attempted"),
    );
    report.metric(
        "fail_ratio",
        Some(failed as f64 / attempted.max(1) as f64),
        "ratio",
        &format!("{failed} failed / {attempted} attempted, transport errors included"),
    );
}

/// Output checks shared by both serving workloads. Every sampled
/// serve-intents hit that the still-live generation served in the window
/// must be byte-identical to what in-process `ServingSystem::handle`
/// answers for the same query now, whenever that is a hit too (a hit's
/// body is a pure function of query, view, model and generation). A
/// sample an earlier generation served, or whose entry has left the
/// cache since, cannot be compared and is counted instead. Sampled
/// navigate bodies must equal `NavigationEngine::interpret` over the
/// same view.
fn check_bodies(stack: &Stack, w: &Window, report: &mut Report) {
    let system = &stack.system;
    let generation = system.current();
    let (mut compared, mut equal, mut older, mut evicted) = (0usize, 0usize, 0usize, 0usize);
    for (a, o) in w.schedule.arrivals.iter().zip(&w.outcomes) {
        let (Route::Serve, true, Some(body)) = (a.route, o.hit, &o.body) else {
            continue;
        };
        let Ok(served) = ServeResponse::from_json(body) else {
            // an undecodable hit body is a mismatch
            compared += 1;
            continue;
        };
        if served.snapshot_generation != generation.generation {
            older += 1;
            continue;
        }
        let now = system.handle(&ServeRequest::new(w.schedule.query(a)));
        if now.status != ServeStatus::Hit {
            evicted += 1;
            continue;
        }
        compared += 1;
        if now.to_json() == *body {
            equal += 1;
        }
    }
    report.check(
        format!(
            "sampled serve-intents hits byte-identical to in-process handle ({equal}/{compared} \
             compared; skipped {older} served by an earlier generation, {evicted} no longer cached)"
        ),
        compared > 0 && equal == compared,
    );

    let engine = NavigationEngine::new(Arc::clone(&generation.view));
    let mut nav_compared = 0usize;
    let mut nav_equal = 0usize;
    for (a, o) in w.schedule.arrivals.iter().zip(&w.outcomes) {
        let (Route::Navigate, Some(body)) = (a.route, &o.body) else {
            continue;
        };
        nav_compared += 1;
        if navigate_body(&engine, &w.schedule.query(a)) == *body {
            nav_equal += 1;
        }
    }
    report.check(
        format!("navigate bodies equal NavigationEngine::interpret ({nav_equal}/{nav_compared} sampled)"),
        nav_compared > 0 && nav_equal == nav_compared,
    );
}

/// The navigate response the engine's interpretation renders to.
fn navigate_body<G: GraphView>(engine: &NavigationEngine<G>, query: &str) -> String {
    let suggestions = engine
        .interpret(query, gen::NAV_K)
        .into_iter()
        .map(|s| NavigateItem {
            kind: match s {
                Suggestion::Intent(_) => "intent",
                Suggestion::ProductType(_) => "product_type",
                Suggestion::Attribute(_) => "attribute",
            }
            .to_string(),
            label: s.label().to_string(),
        })
        .collect();
    NavigateResponse {
        protocol_version: PROTOCOL_VERSION,
        query: query.to_string(),
        suggestions,
    }
    .to_json()
}

/// The window's cache counters as per-layer metrics.
fn cache_deltas(w: &Window, report: &mut Report) {
    let c = w.cache;
    report.set("serving.cache.l1_hits", c.l1_hits as f64);
    report.set("serving.cache.l2_hits", c.l2_hits as f64);
    report.set("serving.cache.misses", c.misses as f64);
    report.set("serving.cache.dropped", c.dropped as f64);
    report.set("serving.cache.rejected", c.rejected as f64);
    report.set("serving.cache.queue_high_water", c.queue_high_water as f64);
    report.set(
        "serving.cache.dropped_per_miss",
        c.dropped as f64 / c.misses.max(1) as f64,
    );
    report.line(format!(
        "  cache window over {} generation(s): l1_hits {} l2_hits {} misses {} dropped {} \
         (dropped_per_miss base: {} misses) rejected {} queue_high_water {}",
        w.generations.len(),
        c.l1_hits,
        c.l2_hits,
        c.misses,
        c.dropped,
        c.misses,
        c.rejected,
        c.queue_high_water
    ));
}

/// HTTP counter deltas and batch-scheduler spans of a window.
fn window_layers(w: &Window, report: &mut Report) {
    let (a, b) = w.http;
    report.set("http.accepted", (b.accepted - a.accepted) as f64);
    report.set("http.shed_conns", (b.shed_conns - a.shed_conns) as f64);
    report.set(
        "http.rejected_conns",
        (b.rejected_conns - a.rejected_conns) as f64,
    );
    report.set(
        "http.bad_requests",
        (b.bad_requests - a.bad_requests) as f64,
    );
    report.set(
        "http.reconnects",
        w.outcomes.iter().filter(|o| o.reconnect).count() as f64,
    );
    cache_deltas(w, report);

    let busy: Vec<&Cycle> = w.cycles.iter().filter(|c| c.queries > 0).collect();
    let cycle_ms: Vec<f64> = busy
        .iter()
        .map(|c| (c.end_ns - c.start_ns) as f64 / 1e6)
        .collect();
    let total_busy: f64 = w
        .cycles
        .iter()
        .map(|c| (c.end_ns - c.start_ns) as f64)
        .sum();
    let span = (w.secs + w.scheduler_secs) * 1e9;
    report.set("serving.batch.cycles", w.cycles.len() as f64);
    report.set("serving.batch.cycle_ms", median(&cycle_ms));
    report.set(
        "serving.batch.queries_per_cycle",
        median(&busy.iter().map(|c| c.queries as f64).collect::<Vec<_>>()),
    );
    report.set("serving.batch.busy_share", total_busy / span);
    report.set(
        "serving.batch.failed_chunks",
        w.cycles.iter().map(|c| c.failed_chunks as f64).sum(),
    );
    let waits: Vec<f64> = w.fills.iter().map(|&(_, q)| q as f64 / 1e6).collect();
    report.set("serving.batch.queue_wait_ms", median(&waits));
    report.line(format!(
        "  batch scheduler: {} cycles every {} ms, {} non-empty (cycle_ms median over those), busy {:.4} of {:.2} s",
        w.cycles.len(),
        BATCH_CADENCE.as_millis(),
        busy.len(),
        total_busy / 1e9,
        span / 1e9
    ));
}

impl Window {
    /// The workload's primary latency, µs: serve-intents p50 from due
    /// time on serve-hot, novel-query fill p50 on serve-churn.
    pub fn primary_us(&self, workload: Workload) -> f64 {
        let samples = match workload {
            Workload::Hot => latencies(self, Route::Serve),
            Workload::Churn => self.fills.iter().map(|&(f, _)| f as f64 / 1e3).collect(),
        };
        percentile(&samples, 0.5).unwrap_or(0.0)
    }
}

/// Report a window of either workload: metrics, layer counters, checks.
pub fn report_window_of(workload: Workload, stack: &Stack, w: &Window, report: &mut Report) {
    match workload {
        Workload::Hot => report_hot(stack, w, report),
        Workload::Churn => report_churn(stack, w, report),
    }
}

/// Which serving workload a window belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `serve-hot`.
    Hot,
    /// `serve-churn`.
    Churn,
}

/// The workload's reference-rate window: serve-hot's hot-set stream, or
/// serve-churn's drifting stream with novel queries and reloads.
pub fn window(
    stack: &Stack,
    seed: u64,
    secs: f64,
    workload: Workload,
    rec: Option<&Recorder>,
) -> Window {
    let churn = workload == Workload::Churn;
    let stream = if churn {
        churn_stream(stack)
    } else {
        hot_stream(stack)
    };
    let reloads = churn.then_some(RELOAD_EVERY_S);
    let schedule = gen::schedule(seed, 0, &spec(stack, REF_RATE, secs, reloads), &stream);
    let fingerprint = schedule.bytes().chunks(8).fold(0u64, |h, c| {
        mix64(h ^ c.iter().fold(0u64, |x, &b| x << 8 | b as u64))
    });
    let mut w = run_window(stack, seed, schedule, secs, rec);
    w.fingerprint = fingerprint;
    w
}

/// serve-hot's reference window: metrics, layer counters and checks.
fn report_hot(stack: &Stack, w: &Window, report: &mut Report) {
    report_window(
        w,
        report,
        &format!("serve-hot reference window at {REF_RATE} req/s"),
    );
    window_layers(w, report);
    let misses = w.cache.misses;
    report.check(
        format!("serve-hot records zero misses ({misses})"),
        misses == 0,
    );
    let serve = w
        .schedule
        .arrivals
        .iter()
        .filter(|a| a.route == Route::Serve)
        .count();
    let hits = w.outcomes.iter().filter(|o| o.hit).count();
    report.check(
        format!("serve-hot hit_rate reads 1.0 ({hits}/{serve})"),
        serve > 0 && hits == serve,
    );
    check_bodies(stack, w, report);
    report.set("latency_p50_us", w.primary_us(Workload::Hot));
    report.set(
        "read_p50_us",
        percentile(&latencies(w, Route::Navigate), 0.5).unwrap_or(0.0),
    );
}

/// serve-hot's goodput: the ladder search after the reference window,
/// in `budget` seconds.
pub fn report_goodput(stack: &Stack, seed: u64, budget: f64, report: &mut Report) {
    report.line(format!(
        "goodput ladder: {LADDER_BASE} * {LADDER_RATIO}^k req/s, k < {LADDER_STEPS}; \
         limit p99 <= {LAT_LIMIT_US} us from due time, no failures, backlog drained within the limit"
    ));
    let goodput = goodput(stack, seed, budget, report);
    report.metric(
        "goodput_rps",
        goodput,
        "req/s",
        "requests within the limit per second at the highest passing rung",
    );
    report.check("goodput ladder found a passing rate", goodput.is_some());
    report.set("throughput_per_s", goodput.unwrap_or(0.0));
}

/// serve-churn's window: fill and reload metrics, layer counters and
/// checks.
fn report_churn(stack: &Stack, w: &Window, report: &mut Report) {
    report_window(
        w,
        report,
        &format!("serve-churn window at {REF_RATE} req/s, reload every {RELOAD_EVERY_S} s"),
    );
    window_layers(w, report);

    let fills: Vec<f64> = w.fills.iter().map(|&(f, _)| f as f64 / 1e6).collect();
    let base = format!(
        "n={} filled, {} enqueued novel queries never filled",
        fills.len(),
        w.lost_fills
    );
    report.metric("fill_p50_ms", percentile(&fills, 0.5), "ms", &base);
    report.metric("fill_p99_ms", percentile(&fills, 0.99), "ms", &base);
    let reloads: Vec<(f64, Option<u64>)> = w
        .schedule
        .arrivals
        .iter()
        .zip(&w.outcomes)
        .filter(|(a, _)| a.route == Route::Reload)
        .map(|(_, o)| {
            let generation = o
                .body
                .as_deref()
                .filter(|_| o.status == 200)
                .and_then(|b| ReloadResponse::from_json(b).ok())
                .map(|r| r.generation);
            ((o.done_ns - o.send_ns) as f64 / 1e6, generation)
        })
        .collect();
    let reload_ms: Vec<f64> = reloads.iter().map(|r| r.0).collect();
    report.metric(
        "reload_p50_ms",
        Some(median(&reload_ms)),
        "ms",
        &format!("median of {} reload round trips", reload_ms.len()),
    );

    let serve = w
        .schedule
        .arrivals
        .iter()
        .filter(|a| a.route == Route::Serve)
        .count();
    let hits = w.outcomes.iter().filter(|o| o.hit).count();
    let hit_rate = hits as f64 / serve.max(1) as f64;
    let first = w.generations.first().copied().unwrap_or(0);
    let sequential = reloads
        .iter()
        .enumerate()
        .all(|(i, r)| r.1 == Some(first + 1 + i as u64));
    report.check(
        format!(
            "every reload answered 200 with strictly sequential generations ({} reloads)",
            reloads.len()
        ),
        !reloads.is_empty() && sequential,
    );
    report.check(
        format!("serve-churn hit_rate strictly between 0 and 1 ({hit_rate:.4})"),
        hit_rate > 0.0 && hit_rate < 1.0,
    );
    report.check(
        format!(
            "novel queries filled ({} of {})",
            fills.len(),
            fills.len() + w.lost_fills
        ),
        !fills.is_empty(),
    );
    check_bodies(stack, w, report);

    report.set("throughput_per_s", hits as f64 / w.secs);
    report.set("latency_p50_us", w.primary_us(Workload::Churn));
    // the request path while installs and swaps run beside it
    report.set(
        "read_p50_us",
        percentile(&latencies(w, Route::Serve), 0.5).unwrap_or(0.0),
    );
    report.line(format!(
        "  cache-answered serve-intents: {:.1} /s ({hits} hits over {:.1} s)",
        hits as f64 / w.secs,
        w.secs
    ));
}

/// Per-layer replay: the window's inputs pushed once each through the
/// public entry point of every layer the request and batch paths cross.
pub fn replay_layers(stack: &Stack, w: &Window, rec: &Recorder, report: &mut Report, churn: bool) {
    let system = &stack.system;
    let router = cosmo_http::Router::new(Arc::clone(system));
    // one engine build per view the window served from (capped at 3)
    let builds = if churn {
        w.generations.len().clamp(1, 3)
    } else {
        1
    };
    let mut build_ms = Vec::new();
    let mut engine = None;
    for _ in 0..builds {
        let (e, ns) = rec.timed("nav.engine_build", None, 0, || {
            NavigationEngine::new(Arc::clone(&system.current().view))
        });
        build_ms.push(ns as f64 / 1e6);
        engine = Some(e);
    }
    let engine = engine.expect("at least one engine build");
    report.set("nav.engine_build_ms", median(&build_ms));

    // request path: even arrivals through Router::route, odd arrivals
    // through decode → serve → encode, so each input meets each layer once
    let us = |ns: u64| ns as f64 / 1e3;
    let (mut route_us, mut nav_us) = (Vec::new(), Vec::new());
    let (mut dec, mut srv, mut enc) = (Vec::new(), Vec::new(), Vec::new());
    for (i, a) in w.schedule.arrivals.iter().enumerate() {
        let id = i as u64;
        let body = w.schedule.body(a);
        match a.route {
            Route::Serve if i % 2 == 0 => {
                let req = cosmo_http::Request {
                    method: "POST".to_string(),
                    path: a.route.path().to_string(),
                    headers: Vec::new(),
                    body: body.into_bytes(),
                    close: false,
                };
                let (resp, ns) = rec.timed("http.route", None, id, || router.route(&req));
                std::hint::black_box(resp);
                route_us.push(us(ns));
            }
            Route::Serve => {
                let parent = rec.open("serving.request_path", None, id);
                let (req, d) = rec.timed("serving.decode", Some(parent), id, || {
                    ServeRequest::from_json(&body)
                });
                let Ok(req) = req else {
                    rec.close(parent);
                    continue;
                };
                let (served, s) =
                    rec.timed("serving.serve", Some(parent), id, || system.serve(&req));
                let (json, e) = rec.timed("serving.encode", Some(parent), id, || {
                    served.response.to_json()
                });
                rec.close(parent);
                std::hint::black_box(json);
                dec.push(us(d));
                srv.push(us(s));
                enc.push(us(e));
            }
            Route::Navigate => {
                let Ok(req) = NavigateRequest::from_json(&body) else {
                    continue;
                };
                let (s, ns) = rec.timed("nav.interpret", None, id, || {
                    engine.interpret(&req.query, req.k)
                });
                std::hint::black_box(s);
                nav_us.push(us(ns));
            }
            Route::Reload => {}
        }
    }
    let p50 = |v: &[f64]| percentile(v, 0.5).unwrap_or(0.0);
    let serve_rt: Vec<f64> = w
        .schedule
        .arrivals
        .iter()
        .zip(&w.outcomes)
        .filter(|(a, o)| a.route == Route::Serve && !o.failed())
        .map(|(_, o)| us(o.done_ns - o.send_ns))
        .collect();
    let rt50 = p50(&serve_rt);
    let route50 = p50(&route_us);
    let (d, s, e) = (p50(&dec), p50(&srv), p50(&enc));
    let unaccounted = if rt50 > 0.0 {
        ((rt50 - d - s - e) / rt50).max(0.0)
    } else {
        0.0
    };
    report.set(
        "http.requests",
        (w.http.1.requests - w.http.0.requests) as f64,
    );
    report.set("http.round_trip_us", rt50);
    report.set("http.route_us", route50);
    report.set("http.transport_self_us", (rt50 - route50).max(0.0));
    report.set("serving.replayed", (route_us.len() + srv.len()) as f64);
    report.set("serving.decode_us", d);
    report.set("serving.serve_us", s);
    report.set("serving.encode_us", e);
    report.set("serving.route_self_us", (route50 - d - s - e).max(0.0));
    report.set("trace.outer_p50_us", rt50);
    report.set("trace.unaccounted_frac", unaccounted);
    report.line(format!(
        "  request path (p50, us): round trip {rt50:.2} = transport self {:.2} + route {route50:.2}; \
         route = decode {d:.3} + serve {s:.3} + encode {e:.3} + router self {:.3}; \
         unaccounted (round trip minus measured serving layers) {unaccounted:.4} of {rt50:.2} us",
        (rt50 - route50).max(0.0),
        (route50 - d - s - e).max(0.0),
    ));
    report.set("nav.interpreted", nav_us.len() as f64);
    report.set("nav.interpret_us", p50(&nav_us));

    if churn {
        replay_batch_path(stack, w, rec, report);
    }
}

/// Batch-path replay over the queries the window enqueued: the features
/// batch in `batch_size` slices, its KG and LM parts separately, then
/// snapshot open and swap.
fn replay_batch_path(stack: &Stack, w: &Window, rec: &Recorder, report: &mut Report) {
    let system = &stack.system;
    let mut seen = std::collections::BTreeSet::new();
    let owned: Vec<String> = w
        .schedule
        .arrivals
        .iter()
        .zip(&w.outcomes)
        .filter(|(a, o)| a.route == Route::Serve && o.enqueued)
        .map(|(a, _)| w.schedule.query(a))
        .filter(|q| seen.insert(q.clone()))
        .collect();
    let queries: Vec<&str> = owned.iter().map(String::as_str).collect();
    let generation = system.current();
    let view = &*generation.view;
    let lm = &*stack.student;
    let batch = system.config().batch_size;

    let mut features_ns = 0;
    for (k, slice) in queries.chunks(batch).enumerate() {
        let (out, ns) = rec.timed("serving.features.batch", None, k as u64, || {
            cosmo_serving::features::compute_features_batch(slice, view, lm)
        });
        std::hint::black_box(out);
        features_ns += ns;
    }
    let features_us = features_ns as f64 / 1e3 / queries.len().max(1) as f64;

    let mut find_ns = Vec::new();
    let mut top_ns = Vec::new();
    let mut cold: Vec<String> = Vec::new();
    for (k, q) in queries.iter().enumerate() {
        let (node, ns) = rec.timed("kg.find_node", None, k as u64, || {
            view.find_node(NodeKind::Query, q)
        });
        find_ns.push(ns as f64);
        let intents = node.map_or(0, |n| {
            let (top, ns) = rec.timed("kg.top_intents", None, k as u64, || view.top_intents(n, 5));
            top_ns.push(ns as f64);
            top.len()
        });
        // cold, as compute_features_batch decides it: no KG intents
        if intents == 0 {
            cold.push(cold_prompt(q));
        }
    }
    let cold_refs: Vec<&str> = cold.iter().map(String::as_str).collect();
    let mut gen_ns = 0;
    for (k, slice) in cold_refs.chunks(batch).enumerate() {
        let (out, ns) = rec.timed("lm.generate_batch", None, k as u64, || {
            lm.generate_batch(slice, None, 5)
        });
        std::hint::black_box(out);
        gen_ns += ns;
    }
    let mut embed_ns = 0;
    for (k, slice) in queries.chunks(batch).enumerate() {
        let (out, ns) = rec.timed("lm.embed_batch", None, k as u64, || lm.embed_batch(slice));
        std::hint::black_box(out);
        embed_ns += ns;
    }
    let n = queries.len().max(1) as f64;
    report.set("serving.features.queries", queries.len() as f64);
    report.set("serving.features.batch_us_per_query", features_us);
    report.set(
        "serving.features.kg_answered_share",
        (queries.len() - cold.len()) as f64 / n,
    );
    report.set("lm.generate_items", cold.len() as f64);
    report.set(
        "lm.generate_batch_us_per_item",
        gen_ns as f64 / 1e3 / cold.len().max(1) as f64,
    );
    report.set("lm.embed_batch_us_per_item", embed_ns as f64 / 1e3 / n);
    report.set("kg.lookups", find_ns.len() as f64);
    report.set("kg.find_node_ns", median(&find_ns));
    report.set("kg.top_intents_ns", median(&top_ns));

    // FLOPs and bytes per query, computed from tensor shapes (not
    // counted by hardware): the embedding bag reads `features × dim`
    // encoder weights per input; a cold query adds its prompt's bag and
    // one `[1×dim]·[tails×dim]ᵀ` matmul over the tail table.
    let dim = lm.dim() as f64;
    let tails = lm.num_tails() as f64;
    let (mut flops, mut bytes) = (0.0, 0.0);
    for q in &queries {
        let f = lm.features(q).len() as f64;
        flops += f * dim + dim;
        bytes += (f * dim + dim) * 4.0;
    }
    for p in &cold {
        let f = lm.features(p).len() as f64;
        flops += f * dim + dim + 2.0 * dim * tails;
        bytes += (f * dim + dim + tails * dim + tails) * 4.0;
    }
    report.set("nn.flops_per_query", flops / n);
    report.set("nn.bytes_per_query", bytes / n);
    report.line(format!(
        "  batch path replay over {} enqueued queries ({} cold): features {features_us:.2} us/query, \
         kg answered {:.4} of {}; nn flops/bytes per query computed from tensor shapes",
        queries.len(),
        cold.len(),
        (queries.len() - cold.len()) as f64 / n,
        queries.len()
    ));
    let cycle_ms = report.get("serving.batch.cycle_ms").unwrap_or(0.0);
    let per_cycle = report.get("serving.batch.queries_per_cycle").unwrap_or(0.0);
    let explained_ms = features_us * per_cycle / 1e3;
    report.set(
        "serving.batch.unaccounted_frac",
        if cycle_ms > 0.0 {
            ((cycle_ms - explained_ms) / cycle_ms).max(0.0)
        } else {
            0.0
        },
    );

    // open + swap replay (last: it replaces the live generation)
    let mut open_ms = Vec::new();
    let mut swap_ms = Vec::new();
    for k in 0..3u64 {
        let (view, ns) = rec.timed("kg.open_verified", None, k, || {
            KgSnapshotView::open_verified(&stack.reload_path)
        });
        open_ms.push(ns as f64 / 1e6);
        let Ok(view) = view else { continue };
        let (_, ns) = rec.timed("serving.swap", None, k, || system.swap_snapshot(view));
        swap_ms.push(ns as f64 / 1e6);
    }
    report.set("kg.open_verified_ms", median(&open_ms));
    report.set("serving.swap.build_ms", median(&swap_ms));
}

/// A copy of the private `cold_prompt` in `crates/serving/src/features.rs`:
/// the prompt `compute_features_batch` generates from for a query the KG
/// has no intents for. Keep the two equal.
fn cold_prompt(query: &str) -> String {
    format!("generate a USED_FOR_FUNC explanation in domain unknown for: search query: {query}")
}
