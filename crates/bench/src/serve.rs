//! The `serve` experiment: stand up the real HTTP front end over a
//! frozen [`cosmo_kg::KgSnapshot`] and drive it closed-loop with
//! synthetic query streams, sweeping offered concurrency to saturation.
//!
//! Two modes:
//!
//! - **smoke** (`repro -- serve --smoke`, and the tier-1 gate): one short
//!   fixed-concurrency window at tiny load; asserts nonzero throughput
//!   and zero 5xx responses, so CI catches a wedged server in seconds.
//! - **full** (`repro -- serve`): doubles concurrency until sustained
//!   throughput stops improving ≥5% per step, reporting p50/p99 latency
//!   and drop/reject rates at every point.
//!
//! Both write `BENCH_serve.json` for machine consumption: the full mode at
//! the repo root, the smoke mode under `artifacts/` (gitignored), so a
//! gate run never replaces the committed numbers.

use crate::context::Ctx;
use cosmo_http::{
    run_load, sweep_to_saturation, HttpClient, HttpServer, LoadConfig, LoadReport, ServerConfig,
};
use cosmo_serving::{AdmissionPolicy, ServeRequest, ServeResponse, ServingSystem};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Stand up the serving system + HTTP server, run the load shape, write
/// `BENCH_serve.json` (under `artifacts/` when `smoke`), and render the
/// human-readable summary.
pub fn serve(ctx: &Ctx, smoke: bool) -> String {
    let snapshot = Arc::new(ctx.out.kg.freeze());

    // synthetic query stream: the world's real generated queries, with a
    // slice of them preloaded so the sweep exercises the hit path too
    let queries: Vec<String> = ctx
        .out
        .world
        .queries
        .iter()
        .take(256)
        .map(|q| q.text.clone())
        .collect();
    let preload: Vec<String> = queries.iter().step_by(2).cloned().collect();
    let bodies: Vec<String> = queries
        .iter()
        .map(|q| ServeRequest::new(q.clone()).to_json())
        .collect();

    let system = Arc::new(
        ServingSystem::builder()
            .snapshot(snapshot)
            .lm(ctx.student.clone())
            .preload(preload)
            .build()
            .expect("default serving config is valid"),
    );

    let server_cfg = ServerConfig {
        conn_workers: if smoke { 2 } else { 8 },
        conn_backlog: 256,
        admission: AdmissionPolicy::RejectNew,
        ..ServerConfig::default()
    };
    let handle = HttpServer::start(Arc::clone(&system), server_cfg).expect("bind ephemeral port");
    let addr = handle.addr();

    // background batch thread: turn enqueued misses into L2 entries while
    // the load runs, like the Figure 5 async refresh path
    let stop_batch = Arc::new(AtomicBool::new(false));
    let batch = {
        let system = Arc::clone(&system);
        let stop = Arc::clone(&stop_batch);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                let _ = system.run_batch_cycle();
                std::thread::sleep(Duration::from_millis(5));
            }
        })
    };

    let reports: Vec<LoadReport> = if smoke {
        vec![run_load(
            addr,
            &LoadConfig {
                concurrency: 2,
                duration: Duration::from_millis(400),
                bodies,
            },
        )]
    } else {
        sweep_to_saturation(addr, bodies, Duration::from_secs(2), 32, 0.05)
    };

    stop_batch.store(true, Ordering::Relaxed);
    let _ = batch.join();
    let http_stats = handle.stats();
    handle.shutdown();

    // render
    let mut out = String::new();
    let _ = writeln!(
        out,
        "HTTP front end over frozen snapshot ({} nodes / {} edges), {} mode",
        system.kg_view().num_nodes(),
        system.kg_view().num_edges(),
        if smoke { "smoke" } else { "sweep" }
    );
    let _ = writeln!(
        out,
        "{:<12} {:>10} {:>10} {:>9} {:>9} {:>9} {:>10} {:>10}",
        "concurrency", "req/s", "requests", "ok", "rejected", "errors", "p50(us)", "p99(us)"
    );
    for r in &reports {
        let _ = writeln!(
            out,
            "{:<12} {:>10.1} {:>10} {:>9} {:>9} {:>9} {:>10} {:>10}",
            r.concurrency,
            r.throughput_rps,
            r.requests,
            r.ok,
            r.rejected,
            r.other_errors + r.transport_errors,
            r.p50_us,
            r.p99_us
        );
    }
    let best = reports
        .iter()
        .max_by(|a, b| a.throughput_rps.total_cmp(&b.throughput_rps))
        .expect("at least one load window ran");
    let _ = writeln!(
        out,
        "saturation: {:.1} req/s at concurrency {} (p99 {}us); \
         conns accepted {}, shed {}, rejected-at-accept {}",
        best.throughput_rps,
        best.concurrency,
        best.p99_us,
        http_stats.accepted,
        http_stats.shed_conns,
        http_stats.rejected_conns
    );

    let mut json = String::from("{");
    let _ = write!(
        json,
        "\"mode\":\"{}\",\"snapshot_nodes\":{},\"snapshot_edges\":{},\"runs\":[",
        if smoke { "smoke" } else { "sweep" },
        system.kg_view().num_nodes(),
        system.kg_view().num_edges()
    );
    for (i, r) in reports.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        json.push_str(&r.to_json());
    }
    let _ = write!(
        json,
        "],\"saturation_rps\":{:.1},\"saturation_concurrency\":{},\
         \"conns_accepted\":{},\"conns_shed\":{},\"conns_rejected\":{}}}",
        best.throughput_rps,
        best.concurrency,
        http_stats.accepted,
        http_stats.shed_conns,
        http_stats.rejected_conns
    );
    let _ = writeln!(
        out,
        "\n{}",
        crate::output::write_bench_json("BENCH_serve.json", &json, smoke)
    );

    if smoke {
        let total_5xx: u64 = reports.iter().map(|r| r.rejected + r.other_errors).sum();
        assert!(
            best.requests > 0 && best.throughput_rps > 0.0,
            "smoke: server answered no requests"
        );
        assert_eq!(
            total_5xx, 0,
            "smoke: server answered {total_5xx} 5xx responses"
        );
        let _ = writeln!(out, "smoke ok: nonzero throughput, zero 5xx");
    }
    out
}

/// The `serve --swap` experiment: hot snapshot reloads under live
/// traffic.
///
/// Every query the clients send is preloaded, so each request must be a
/// cache hit — which makes "zero 5xx across N swaps" a hard assertion
/// rather than a statistical hope. Request threads additionally record
/// the response body per `(query, snapshot_generation)` pair and assert
/// byte-identity within each generation: a torn read across the RCU
/// boundary (old graph, new cache, or vice versa) would surface here.
///
/// Smoke mode (the tier-1 gate) runs 3 swaps with 2 client threads; the
/// full mode runs 10 swaps with 4. Writes `BENCH_serve_swap.json` (under
/// `artifacts/` when `smoke`).
pub fn serve_swap(ctx: &Ctx, smoke: bool) -> String {
    use std::collections::HashMap;
    use std::sync::Mutex;

    let swaps: u64 = if smoke { 3 } else { 10 };
    let client_threads = if smoke { 2 } else { 4 };
    let window = Duration::from_millis(if smoke { 25 } else { 60 });

    let queries: Vec<String> = ctx
        .out
        .world
        .queries
        .iter()
        .take(64)
        .map(|q| q.text.clone())
        .collect();
    let system = Arc::new(
        ServingSystem::builder()
            .snapshot(Arc::new(ctx.out.kg.freeze()))
            .lm(ctx.student.clone())
            .preload(queries.iter().cloned())
            .build()
            .expect("default serving config is valid"),
    );
    let handle = HttpServer::start(
        Arc::clone(&system),
        ServerConfig {
            conn_workers: client_threads + 1,
            ..ServerConfig::default()
        },
    )
    .expect("bind ephemeral port");
    let addr = handle.addr();

    // Pre-write the v2 snapshot files the reloads will map: the real
    // pipeline KG plus i extra nodes, so every generation differs.
    let dir = std::env::temp_dir().join(format!("cosmo_serve_swap_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("swap snapshot dir");
    let paths: Vec<std::path::PathBuf> = (1..=swaps)
        .map(|i| {
            let mut kg = ctx.out.kg.clone();
            for j in 0..i {
                let head = kg.intern_node(
                    cosmo_kg::NodeKind::Product,
                    &format!("swap-bench product {i}-{j}"),
                );
                let tail = kg.intern_node(cosmo_kg::NodeKind::Intention, "swap bench traffic");
                kg.add_edge(cosmo_kg::Edge {
                    head,
                    relation: cosmo_kg::Relation::UsedForFunc,
                    tail,
                    behavior: cosmo_kg::BehaviorKind::SearchBuy,
                    category: 0,
                    plausibility: 0.75,
                    typicality: 0.5,
                    support: 1,
                });
            }
            let path = dir.join(format!("gen_{i}.kg2"));
            kg.freeze().save_v2(&path).expect("v2 snapshot save");
            path
        })
        .collect();

    let stop = Arc::new(AtomicBool::new(false));
    let fivexx = Arc::new(AtomicU64::new(0));
    let bodies_by_gen: Arc<Mutex<HashMap<(usize, u64), String>>> =
        Arc::new(Mutex::new(HashMap::new()));
    let divergent = Arc::new(AtomicU64::new(0));
    let clients: Vec<_> = (0..client_threads)
        .map(|t| {
            let stop = Arc::clone(&stop);
            let fivexx = Arc::clone(&fivexx);
            let bodies_by_gen = Arc::clone(&bodies_by_gen);
            let divergent = Arc::clone(&divergent);
            let queries = queries.clone();
            std::thread::spawn(move || {
                let mut client = HttpClient::connect(addr).expect("client connect");
                let mut served = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let qi = (t + served as usize) % queries.len();
                    let body = ServeRequest::new(queries[qi].clone()).to_json();
                    match client.request("POST", "/v1/serve-intents", &body) {
                        Ok(resp) => {
                            if resp.status >= 500 {
                                fivexx.fetch_add(1, Ordering::Relaxed);
                            } else if let Ok(decoded) = ServeResponse::from_json(&resp.body) {
                                let mut seen = bodies_by_gen.lock().expect("bodies map");
                                let prior = seen
                                    .entry((qi, decoded.snapshot_generation))
                                    .or_insert_with(|| resp.body.clone());
                                if *prior != resp.body {
                                    divergent.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                            served += 1;
                        }
                        Err(_) => break,
                    }
                }
                served
            })
        })
        .collect();

    let mut ops = HttpClient::connect(addr).expect("ops client connect");
    let mut reload_secs = Vec::with_capacity(paths.len());
    for path in &paths {
        std::thread::sleep(window);
        let body = format!("{{\"path\":{:?}}}", path.display().to_string());
        let t0 = std::time::Instant::now();
        let resp = ops
            .request("POST", "/ops/reload", &body)
            .expect("reload request");
        reload_secs.push(t0.elapsed().as_secs_f64());
        assert_eq!(resp.status, 200, "reload refused: {}", resp.body);
    }
    std::thread::sleep(window);
    stop.store(true, Ordering::Relaxed);
    let served: u64 = clients.into_iter().map(|c| c.join().expect("client")).sum();
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    let fivexx = fivexx.load(Ordering::Relaxed);
    let divergent = divergent.load(Ordering::Relaxed);
    let final_generation = system.generation();
    let generations: std::collections::BTreeSet<u64> = bodies_by_gen
        .lock()
        .expect("bodies map")
        .keys()
        .map(|&(_, g)| g)
        .collect();
    assert_eq!(fivexx, 0, "swap: {fivexx} 5xx responses under reload");
    assert_eq!(divergent, 0, "swap: bodies diverged within a generation");
    assert_eq!(
        final_generation,
        swaps + 1,
        "swap: generations are sequential"
    );
    assert!(served > 0, "swap: clients made no progress");

    let worst_reload = reload_secs.iter().cloned().fold(0.0f64, f64::max);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "hot swap under live traffic: {swaps} reloads, {served} requests on \
         {client_threads} connections, 0 5xx, 0 divergent bodies"
    );
    let _ = writeln!(
        out,
        "generations observed by traffic: {generations:?}; final generation {final_generation}; \
         worst reload {worst_reload:.4}s"
    );

    let mut json = String::from("{\"mode\":\"swap\",");
    let _ = write!(
        json,
        "\"swaps\":{swaps},\"requests\":{served},\"client_threads\":{client_threads},\
         \"fivexx\":{fivexx},\"divergent_bodies\":{divergent},\
         \"final_generation\":{final_generation},\"generations_observed\":{},\
         \"worst_reload_secs\":{worst_reload:.6}}}",
        generations.len()
    );
    let _ = writeln!(
        out,
        "\n{}",
        crate::output::write_bench_json("BENCH_serve_swap.json", &json, smoke)
    );
    out
}
