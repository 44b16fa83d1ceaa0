//! Extension experiments beyond the paper's published tables: the §4.2.4
//! future-work question (query-rewrite reduction), the Figure 5 feedback
//! loop exercised end-to-end, and the compute-engine scaling sweeps
//! (pipeline threads, nn kernels/trainers).

use crate::context::{Ctx, Scale};
use crate::output::write_bench_json;
use crate::rss::{peak_rss_bytes, reset_peak_rss};
use cosmo_core::{apply_feedback, generate_and_freeze};
use cosmo_kg::{
    BehaviorKind, Edge, KgSnapshot, KgSnapshotView, KnowledgeGraph, MappedSnapshot, NodeId,
    NodeKind, Relation, StreamOptions,
};
use cosmo_lm::TaskType;
use cosmo_sessrec::{
    attach_knowledge, drift_analysis, generate_sessions, CosmoGnn, GceGnn, Gru4Rec, SessionConfig,
    SessionModel, TrainConfig,
};
use cosmo_synth::scale::{head_text, mix64, ScaleConfig};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Duration;

/// §4.2.4 future work: drift-step vs stable-step accuracy per model —
/// the mechanism by which COSMO reduces query rewrites.
pub fn rewrites(ctx: &Ctx) -> String {
    let per_day = match ctx.scale {
        Scale::Tiny => 50,
        Scale::Small => 200,
        Scale::Full => 300,
    };
    let epochs = if ctx.scale == Scale::Tiny { 3 } else { 8 };
    // electronics: the drift-heavy domain (Table 7: 2.47 unique queries)
    let mut ds = generate_sessions(
        &ctx.out.world,
        &SessionConfig::electronics(0xD21F7, per_day),
    );
    let kg = &ctx.out.kg;
    let student = &ctx.student;
    attach_knowledge(&mut ds, |query| {
        let f = cosmo_serving::compute_features(query, kg, student);
        cosmo_serving::recommendation_view(&f, 128)
    });
    let cfg = TrainConfig {
        epochs,
        ..Default::default()
    };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<12} {:>12} {:>13} {:>14} (electronics, Hits@10)",
        "Model", "drift steps", "stable steps", "drift penalty"
    );
    let models: Vec<Box<dyn SessionModel>> = vec![
        Box::new(Gru4Rec::new()),
        Box::new(GceGnn::new()),
        Box::new(CosmoGnn::new()),
    ];
    for mut m in models {
        m.fit(&ds, &cfg);
        let r = drift_analysis(&ds, m.as_ref(), 10, 6);
        let _ = writeln!(
            out,
            "{:<12} {:>11.1}% {:>12.1}% {:>13.1}pt   (n={}/{})",
            r.model,
            r.drift_hits,
            r.stable_hits,
            r.drift_penalty(),
            r.n_drift,
            r.n_stable
        );
    }
    let _ = writeln!(
        out,
        "\nA model that holds accuracy on drift steps answers the *new* intent\n\
         immediately — the user does not need to keep refining the query."
    );
    out
}

/// Figure 5 feedback loop, end-to-end: serve → record interactions →
/// incremental refresh → the fed-back queries become servable.
pub fn feedback_loop(ctx: &Ctx) -> String {
    // clone the pipeline state we mutate (the shared ctx stays pristine)
    let cfg = ctx.scale.pipeline_config(0x0FEE_DBAC);
    let mut out_state = cosmo_core::run(cfg.clone());
    let before = out_state.kg.num_edges();

    // pick queries the KG has never seen and simulate purchases for them
    let mut feedback = Vec::new();
    for q in &out_state.world.queries {
        if out_state.kg.find_node(NodeKind::Query, &q.text).is_none() && !q.target_types.is_empty()
        {
            let p = out_state.world.products_of_type(q.target_types[0])[0];
            feedback.push((q.text.clone(), out_state.world.product(p).title.clone()));
            if feedback.len() >= 25 {
                break;
            }
        }
    }
    let update = apply_feedback(&mut out_state, &cfg, &feedback, 1);
    let servable_after = feedback
        .iter()
        .filter(|(q, _)| out_state.kg.find_node(NodeKind::Query, q).is_some())
        .count();
    format!(
        "fed back {} interactions ({} resolved, {} unresolved)\n\
         teacher generated {} candidates; {} survived the coarse filter\n\
         KG: {} → {} edges (+{} from the refresh)\n\
         {}/{} fed-back queries are now servable from the KG\n",
        feedback.len(),
        update.resolved_pairs,
        update.unresolved,
        update.candidates,
        update.kept,
        before,
        out_state.kg.num_edges(),
        update.edges,
        servable_after,
        feedback.len()
    )
}

/// Pipeline thread-scaling: run the identical Figure-2 pipeline at
/// 1/2/4/8 worker threads, assert every run produces the same output, and
/// report wall-clock speedups over the sequential (1-thread) run.
pub fn pipeline_scaling(ctx: &Ctx) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{:<8} {:>10} {:>9}", "threads", "wall (s)", "speedup");
    let mut base: Option<(f64, cosmo_core::PipelineReport, usize, usize)> = None;
    for threads in [1usize, 2, 4, 8] {
        let mut cfg = ctx.scale.pipeline_config(ctx.seed);
        cfg.threads = threads;
        let t0 = std::time::Instant::now();
        let run_out = cosmo_core::run(cfg);
        let secs = t0.elapsed().as_secs_f64();
        let (nodes, edges) = (run_out.kg.num_nodes(), run_out.kg.num_edges());
        if let Some((base_secs, report, n, e)) = &base {
            assert_eq!(
                report, &run_out.report,
                "pipeline report diverged at {threads} threads"
            );
            assert_eq!(
                (*n, *e),
                (nodes, edges),
                "KG size diverged at {threads} threads"
            );
            let _ = writeln!(
                out,
                "{:<8} {:>10.2} {:>8.2}x",
                threads,
                secs,
                base_secs / secs
            );
        } else {
            let _ = writeln!(out, "{:<8} {:>10.2} {:>8.2}x", threads, secs, 1.0);
            base = Some((secs, run_out.report.clone(), nodes, edges));
        }
    }
    let _ = writeln!(
        out,
        "\nEvery thread count produced the same report and KG; the fan-out\n\
         (per-task seeded generation + index-ordered merges) changes\n\
         wall-clock only."
    );
    out
}

/// Deterministic pseudo-random matrix in [-1, 1] (pure arithmetic — the
/// same bits on every platform and build).
fn bench_matrix(rows: usize, cols: usize, salt: u64) -> cosmo_nn::Tensor {
    let data: Vec<f32> = (0..rows * cols)
        .map(|i| {
            let h = (i as u64 + salt).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            ((h >> 33) % 2001) as f32 / 1000.0 - 1.0
        })
        .collect();
    cosmo_nn::Tensor::from_vec(rows, cols, data)
}

/// Best-of-`reps` wall-clock seconds for `f`, after one untimed warmup
/// call (first-touch page faults and frequency ramp-up would otherwise
/// land in the first sample).
fn best_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = std::time::Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

/// The seed commit's matmul, verbatim (i-k-j with the `a == 0.0` skip that
/// the library kernel has since dropped for IEEE correctness): this is the
/// "seed scalar" baseline the blocked-kernel speedup is measured against.
/// On finite inputs the skip only elides `acc + (±0·b)`, which never
/// changes the accumulator's bits, so it still matches the library bitwise.
fn matmul_seed_scalar(a: &cosmo_nn::Tensor, b: &cosmo_nn::Tensor) -> cosmo_nn::Tensor {
    let (n, k) = a.shape();
    let m = b.shape().1;
    let mut out = vec![0.0f32; n * m];
    for i in 0..n {
        let out_row = &mut out[i * m..(i + 1) * m];
        for kk in 0..k {
            let av = a.data()[i * k + kk];
            if av == 0.0 {
                continue;
            }
            let b_row = &b.data()[kk * m..(kk + 1) * m];
            for (o, &bv) in out_row.iter_mut().zip(b_row.iter()) {
                *o += av * bv;
            }
        }
    }
    cosmo_nn::Tensor::from_vec(n, m, out)
}

/// Measured matmul GFLOP/s for one `[m×k]·[k×n]` shape.
#[derive(Debug, Clone, Copy)]
pub struct MatmulGflops {
    /// Seed-era scalar triple loop.
    pub reference: f64,
    /// Blocked no-FMA tier. Always the same kernel bytes-wise in every
    /// build: `matmul` at default features, `matmul_unfused` under
    /// `fast-math` (the feature leaves the unfused tier untouched
    /// precisely so one binary can measure both).
    pub blocked: f64,
    /// 4-thread row-partitioned production kernel.
    pub threaded4: f64,
    /// FMA reduction-tree production kernel — `Some` only when the
    /// `fast-math` feature is compiled in.
    pub fma: Option<f64>,
}

/// Measures every matmul tier at one shape. Panics unless each kernel is
/// bitwise identical to its configuration's scalar oracle: the seed loop
/// and blocked tier against the IEEE-exact reference loop in every build,
/// and (under `fast-math`) the fused production kernel against the
/// fixed-shape FMA reduction-tree reference.
pub fn matmul_gflops(m: usize, k: usize, n: usize) -> MatmulGflops {
    let a = bench_matrix(m, k, 1);
    let b = bench_matrix(k, n, 2);
    let flops = 2.0 * m as f64 * k as f64 * n as f64;
    // enough repetitions for a stable best-of measurement at every shape
    let reps = ((1u64 << 29) as f64 / flops).clamp(8.0, 200.0) as usize;
    let expect = a.matmul_reference(&b);
    assert_eq!(
        matmul_seed_scalar(&a, &b).data(),
        expect.data(),
        "seed loop diverged from the reference at {m}x{k}x{n}"
    );
    assert_eq!(
        a.matmul_unfused(&b).data(),
        expect.data(),
        "blocked no-FMA kernel diverged from the reference at {m}x{k}x{n}"
    );
    let pool = cosmo_exec::WorkerPool::new(4);
    assert_eq!(
        a.matmul_par(&b, &pool).data(),
        a.matmul(&b).data(),
        "threaded kernel diverged from the single-thread kernel at {m}x{k}x{n}"
    );
    #[cfg(not(feature = "fast-math"))]
    assert_eq!(
        a.matmul(&b).data(),
        expect.data(),
        "production kernel diverged from the reference at {m}x{k}x{n}"
    );
    #[cfg(feature = "fast-math")]
    assert_eq!(
        a.matmul(&b).data(),
        a.matmul_fma_reference(&b).data(),
        "fused kernel diverged from the FMA reduction-tree reference at {m}x{k}x{n}"
    );
    let t_ref = best_secs(reps, || {
        std::hint::black_box(matmul_seed_scalar(
            std::hint::black_box(&a),
            std::hint::black_box(&b),
        ));
    });
    let t_blk = best_secs(reps, || {
        std::hint::black_box(a.matmul_unfused(std::hint::black_box(&b)));
    });
    let t_par = best_secs(reps, || {
        std::hint::black_box(a.matmul_par(std::hint::black_box(&b), &pool));
    });
    #[cfg(feature = "fast-math")]
    let fma = Some(
        flops
            / best_secs(reps, || {
                std::hint::black_box(a.matmul(std::hint::black_box(&b)));
            })
            / 1e9,
    );
    #[cfg(not(feature = "fast-math"))]
    let fma = None;
    MatmulGflops {
        reference: flops / t_ref / 1e9,
        blocked: flops / t_blk / 1e9,
        threaded4: flops / t_par / 1e9,
        fma,
    }
}

/// Deterministic synthetic KG: `n_heads` query nodes, each with `deg`
/// intent edges drawn from a shared intent pool, relations cycling through
/// all 15 types (pure arithmetic — identical graph in every build).
fn scaling_kg(n_heads: usize, deg: usize) -> KnowledgeGraph {
    let mut kg = KnowledgeGraph::new();
    for i in 0..n_heads {
        let q = kg.intern_node(NodeKind::Query, &format!("query {i}"));
        for j in 0..deg {
            let t_idx = (i * 31 + j * 131) % n_heads;
            let t = kg.intern_node(NodeKind::Intention, &format!("intent {t_idx}"));
            kg.add_edge(Edge {
                head: q,
                relation: Relation::ALL[(i * 7 + j) % Relation::ALL.len()],
                tail: t,
                behavior: BehaviorKind::SearchBuy,
                category: (i % 23) as u8,
                plausibility: 0.5 + (j % 10) as f32 / 20.0,
                typicality: 0.3 + (i % 10) as f32 / 20.0,
                support: 1 + (j as u32 % 7),
            });
        }
    }
    kg
}

/// Rebuild a mutable store from a snapshot via the intern/merge write path —
/// the baseline that `KgSnapshot::load` is measured against (what a serving
/// host would have to do without the binary snapshot format).
fn rebuild_via_intern(snap: &KgSnapshot) -> KnowledgeGraph {
    let mut kg = KnowledgeGraph::new();
    // interning in id order reproduces the same dense ids, so edges
    // carry over without remapping
    for id in 0..snap.num_nodes() {
        let id = NodeId(id as u32);
        kg.intern_node(snap.node_kind(id), snap.node_text(id));
    }
    for e in snap.edges() {
        kg.add_edge(e.clone());
    }
    kg
}

/// Comparable fingerprint of serving features: every float by bit pattern.
type FeatureBits = (
    String,
    Vec<(Relation, String, u32)>,
    Vec<u32>,
    Option<String>,
);

fn feature_bits(f: &cosmo_serving::StructuredFeatures) -> FeatureBits {
    (
        f.query.clone(),
        f.intents
            .iter()
            .map(|(r, t, s)| (*r, t.clone(), s.to_bits()))
            .collect(),
        f.subcategory.iter().map(|x| x.to_bits()).collect(),
        f.strong_intent.clone(),
    )
}

/// Effort tier for [`kg_scaling`]: how far up the size axis to push the
/// streamed sharded world.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KgTier {
    /// CI gate (`repro -- kg-scaling --smoke`): smallest in-memory size
    /// plus a tiny streamed world with forced spills — seconds.
    Smoke,
    /// `repro -- kg-scaling`: the full in-memory sweep plus tiny and mid
    /// streamed worlds.
    Default,
    /// `repro -- kg-scaling --paper`: adds the 6.3M-node / 29M-edge world
    /// of the paper's Table 1 (minutes of wall clock, ~2 GB peak RSS,
    /// ~3 GB of scratch disk).
    Paper,
}

/// KG read-path scaling: build vs freeze vs snapshot save/load wall-clock,
/// `tails_of_rel` lookups/sec over the hashmap adjacency vs the CSR slice,
/// and embeds/sec for the allocating `embed` vs scratch-reusing
/// `embed_into`, at three graph sizes. Also asserts the serving and nav
/// read paths produce bitwise-identical answers over the store and the
/// snapshot, then exercises the sharded streaming write path
/// ([`stream_row`]) up to the tier's largest world. Writes
/// `BENCH_kg.json` at the repo root (under `artifacts/` for the smoke
/// tier) and returns the human summary.
pub fn kg_scaling(ctx: &Ctx, tier: KgTier) -> String {
    let mut out = String::new();
    let mut json = String::from("{\n  \"sizes\": [\n");

    let _ = writeln!(
        out,
        "{:<12} {:>9} {:>10} {:>10} {:>10} {:>10} {:>11} {:>9} {:>11} {:>11} {:>8}",
        "graph",
        "edges",
        "build(s)",
        "freeze(s)",
        "load(s)",
        "load-spd",
        "v2 open(s)",
        "v2-spd",
        "map lk/s",
        "csr lk/s",
        "csr-spd"
    );
    let sizes: &[(usize, usize)] = match tier {
        KgTier::Smoke => &[(500, 8)],
        _ => &[(500, 8), (2000, 24), (8000, 64)],
    };
    let (mut csr_speedup_largest, mut load_speedup_largest) = (0.0f64, 0.0f64);
    let mut v2_speedup_largest = 0.0f64;
    for (si, &(n_heads, deg)) in sizes.iter().enumerate() {
        let t0 = std::time::Instant::now();
        let kg = scaling_kg(n_heads, deg);
        let build_secs = t0.elapsed().as_secs_f64();

        let t0 = std::time::Instant::now();
        let snap = kg.freeze();
        let freeze_secs = t0.elapsed().as_secs_f64();

        let path = std::env::temp_dir().join(format!(
            "cosmo_bench_kg_{}_{}.snap",
            std::process::id(),
            n_heads
        ));
        let t0 = std::time::Instant::now();
        snap.save(&path).expect("snapshot save");
        let save_secs = t0.elapsed().as_secs_f64();
        let t0 = std::time::Instant::now();
        let loaded = KgSnapshot::load(&path).expect("snapshot load");
        let load_secs = t0.elapsed().as_secs_f64();
        assert_eq!(loaded, snap, "loaded snapshot differs at {n_heads} heads");
        let _ = std::fs::remove_file(&path);

        // v2 zero-copy open: mmap + structural validation, no Vec
        // materialisation — compare against the v1 full parse above
        let path_v2 = std::env::temp_dir().join(format!(
            "cosmo_bench_kg_{}_{}.kg2",
            std::process::id(),
            n_heads
        ));
        snap.save_v2(&path_v2).expect("v2 snapshot save");
        let v2_load_secs = best_secs(9, || {
            let mapped = cosmo_kg::MappedSnapshot::open(&path_v2).expect("v2 snapshot open");
            std::hint::black_box(mapped.num_edges());
        });
        let mapped = cosmo_kg::MappedSnapshot::open(&path_v2).expect("v2 snapshot open");
        assert_eq!(
            mapped.to_owned_snapshot(),
            snap,
            "v2 mapped snapshot differs at {n_heads} heads"
        );
        drop(mapped);
        let _ = std::fs::remove_file(&path_v2);
        let v2_load_speedup = load_secs / v2_load_secs;

        let t0 = std::time::Instant::now();
        let rebuilt = rebuild_via_intern(&snap);
        let rebuild_secs = t0.elapsed().as_secs_f64();
        assert_eq!(
            (rebuilt.num_nodes(), rebuilt.num_edges()),
            (snap.num_nodes(), snap.num_edges()),
            "rebuild diverged at {n_heads} heads"
        );
        let load_speedup = rebuild_secs / load_secs;

        // lookup probes: head × relation pairs spread over the whole graph
        let heads: Vec<NodeId> = (0..n_heads)
            .map(|i| {
                kg.find_node(NodeKind::Query, &format!("query {i}"))
                    .expect("probe head")
            })
            .collect();
        let probes: Vec<(NodeId, Relation)> = (0..2048u64)
            .map(|p| {
                let h = p.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                (
                    heads[(h % n_heads as u64) as usize],
                    Relation::ALL[(h >> 32) as usize % Relation::ALL.len()],
                )
            })
            .collect();
        let t_map = best_secs(9, || {
            let mut acc = 0u64;
            for &(h, r) in &probes {
                for e in kg.tails_of_rel(h, r) {
                    acc += e.tail.0 as u64;
                }
            }
            std::hint::black_box(acc);
        });
        let t_csr = best_secs(9, || {
            let mut acc = 0u64;
            for &(h, r) in &probes {
                for e in snap.tails_of_rel_slice(h, r) {
                    acc += e.tail.0 as u64;
                }
            }
            std::hint::black_box(acc);
        });
        let (map_rate, csr_rate) = (probes.len() as f64 / t_map, probes.len() as f64 / t_csr);
        let csr_speedup = csr_rate / map_rate;
        if si + 1 == sizes.len() {
            csr_speedup_largest = csr_speedup;
            load_speedup_largest = load_speedup;
            v2_speedup_largest = v2_load_speedup;
        }

        let _ = writeln!(
            out,
            "{:<12} {:>9} {:>10.3} {:>10.3} {:>10.4} {:>9.1}x {:>11.6} {:>8.0}x {:>11.0} {:>11.0} {:>7.1}x",
            format!("{n_heads}x{deg}"),
            kg.num_edges(),
            build_secs,
            freeze_secs,
            load_secs,
            load_speedup,
            v2_load_secs,
            v2_load_speedup,
            map_rate,
            csr_rate,
            csr_speedup
        );
        let _ = write!(
            json,
            "    {{\"heads\": {n_heads}, \"degree\": {deg}, \"nodes\": {}, \"edges\": {}, \
             \"build_secs\": {build_secs:.6}, \"freeze_secs\": {freeze_secs:.6}, \
             \"save_secs\": {save_secs:.6}, \"load_secs\": {load_secs:.6}, \
             \"v2_load_secs\": {v2_load_secs:.6}, \"v2_load_speedup\": {v2_load_speedup:.3}, \
             \"rebuild_secs\": {rebuild_secs:.6}, \"load_speedup\": {load_speedup:.3}, \
             \"map_lookups_per_sec\": {map_rate:.0}, \"csr_lookups_per_sec\": {csr_rate:.0}, \
             \"csr_speedup\": {csr_speedup:.3}}}{}",
            kg.num_nodes(),
            kg.num_edges(),
            if si + 1 < sizes.len() { ",\n" } else { "\n" }
        );
    }
    json.push_str("  ],\n");

    // embedding fast path: allocating embed() vs scratch-reusing embed_into()
    let corpus: Vec<String> = (0..256)
        .map(|i| {
            format!(
                "sample product {i} for camping hiking outdoor use {}",
                i % 7
            )
        })
        .collect();
    let embedder = cosmo_text::HashedEmbedder::fit(&corpus, 64);
    let texts: Vec<String> = (0..512)
        .map(|i| format!("winter camping air mattress model {i} portable"))
        .collect();
    let t_alloc = best_secs(9, || {
        let mut acc = 0.0f32;
        for t in &texts {
            acc += embedder.embed(t)[0];
        }
        std::hint::black_box(acc);
    });
    let mut scratch = cosmo_text::EmbedScratch::default();
    let mut buf = vec![0.0f32; 64];
    let t_into = best_secs(9, || {
        let mut acc = 0.0f32;
        for t in &texts {
            embedder.embed_into(t, &mut scratch, &mut buf);
            acc += buf[0];
        }
        std::hint::black_box(acc);
    });
    let (embed_rate, into_rate) = (texts.len() as f64 / t_alloc, texts.len() as f64 / t_into);
    let _ = writeln!(
        out,
        "\nembedding: {:.0} embeds/s allocating, {:.0} embeds/s with scratch reuse ({:.2}x)",
        embed_rate,
        into_rate,
        into_rate / embed_rate
    );
    let _ = writeln!(
        json,
        "  \"embed\": {{\"embed_per_sec\": {embed_rate:.0}, \"embed_into_per_sec\": {into_rate:.0}, \
         \"speedup\": {:.3}}},",
        into_rate / embed_rate
    );

    // read-path identity: the pipeline's real KG served from the mutable
    // store and from the frozen snapshot must answer bitwise-identically
    let kg = &ctx.out.kg;
    let snap = kg.freeze();
    let mut serving_identical = true;
    for q in ctx.out.world.queries.iter().take(50) {
        let a = cosmo_serving::compute_features(&q.text, kg, &ctx.student);
        let b = cosmo_serving::compute_features(&q.text, &snap, &ctx.student);
        if feature_bits(&a) != feature_bits(&b) {
            serving_identical = false;
        }
    }
    assert!(serving_identical, "serving features diverged on snapshot");
    let store_engine = cosmo_nav::NavigationEngine::new(kg.clone());
    let snap_engine = cosmo_nav::NavigationEngine::new(kg.freeze());
    let mut nav_identical = true;
    for q in ctx.out.world.queries.iter().take(25) {
        let a = store_engine.interpret(&q.text, 5);
        let b = snap_engine.interpret(&q.text, 5);
        if a != b {
            nav_identical = false;
        }
        for s in &a {
            if store_engine.products_for_intent(s.label(), 8)
                != snap_engine.products_for_intent(s.label(), 8)
            {
                nav_identical = false;
            }
        }
    }
    assert!(nav_identical, "navigation diverged on snapshot");
    let _ = writeln!(
        out,
        "serving + navigation answers over the snapshot: bitwise-identical \
         to the mutable store"
    );

    // ---- streamed sharded world: the paper-scale write path ----
    // seed fixed independently of ctx so every tier regenerates the same
    // worlds and the committed BENCH rows are comparable across runs
    let stream_rows: Vec<(&str, ScaleConfig, usize)> = match tier {
        KgTier::Smoke => vec![("tiny", ScaleConfig::tiny(0x5CA1E), 4_096)],
        KgTier::Default => vec![
            ("tiny", ScaleConfig::tiny(0x5CA1E), 4_096),
            ("mid", ScaleConfig::mid(0x5CA1E), 200_000),
        ],
        KgTier::Paper => vec![
            ("tiny", ScaleConfig::tiny(0x5CA1E), 4_096),
            ("mid", ScaleConfig::mid(0x5CA1E), 200_000),
            ("paper", ScaleConfig::paper(0x5CA1E), 2_000_000),
        ],
    };
    let threads = cosmo_exec::WorkerPool::available_parallelism();
    let _ = writeln!(
        out,
        "\nstreamed sharded generation -> v2 file ({} worker threads):",
        threads
    );
    let _ = writeln!(
        out,
        "{:<7} {:>10} {:>10} {:>5} {:>9} {:>9} {:>9} {:>11} {:>9} {:>9} {:>10} {:>8} {:>11}",
        "world",
        "nodes",
        "edges",
        "runs",
        "spill MB",
        "file MB",
        "frz (s)",
        "edges/s",
        "peak MB",
        "rss/file",
        "v2 op(s)",
        "v1/v2",
        "csr lk/s"
    );
    json.push_str("  \"stream\": [\n");
    for (i, (label, cfg, buffer)) in stream_rows.iter().enumerate() {
        let (human, row_json) = stream_row(ctx, cfg, label, *buffer, threads);
        out.push_str(&human);
        json.push_str(&row_json);
        json.push_str(if i + 1 < stream_rows.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    json.push_str("  ],\n");
    let tier_name = match tier {
        KgTier::Smoke => "smoke",
        KgTier::Default => "default",
        KgTier::Paper => "paper",
    };

    let _ = write!(
        json,
        "  \"stream_tier\": \"{tier_name}\",\n  \
         \"csr_speedup_largest\": {csr_speedup_largest:.3},\n  \
         \"load_speedup_largest\": {load_speedup_largest:.3},\n  \
         \"v2_load_speedup_largest\": {v2_speedup_largest:.3},\n  \
         \"serving_identical\": {serving_identical},\n  \
         \"nav_identical\": {nav_identical}\n}}\n"
    );
    let _ = writeln!(
        out,
        "\n{}",
        write_bench_json("BENCH_kg.json", &json, tier == KgTier::Smoke)
    );
    out
}

/// Replay the streamed world's shard sequence through the mutable store —
/// the semantics oracle every streamed measurement is checked against.
fn replay_store(cfg: &ScaleConfig) -> KnowledgeGraph {
    let mut kg = KnowledgeGraph::new();
    for shard in 0..cfg.num_shards() {
        let o = cosmo_synth::generate_shard(cfg, shard);
        let ids: Vec<NodeId> = o
            .nodes
            .iter()
            .map(|(kind, text)| kg.intern_node(*kind, text))
            .collect();
        for e in &o.edges {
            kg.add_edge(Edge {
                head: ids[e.head as usize],
                relation: e.relation,
                tail: ids[e.tail as usize],
                behavior: e.behavior,
                category: e.category,
                plausibility: e.plausibility,
                typicality: e.typicality,
                support: e.support,
            });
        }
    }
    kg
}

/// One streamed-world row: sharded parallel generation stream-frozen to a
/// v2 file with peak-RSS accounting, then the read path measured over the
/// mapped file at that scale. Small worlds are checked byte-for-byte
/// against the store freeze; the paper world (where an in-memory freeze is
/// exactly what we refuse to pay for twice) is checked by replaying the
/// store and asserting serving/nav/HTTP answers are bitwise identical.
/// Returns `(human table lines, json row)`.
fn stream_row(
    ctx: &Ctx,
    cfg: &ScaleConfig,
    label: &str,
    buffer_edges: usize,
    threads: usize,
) -> (String, String) {
    let mut human = String::new();
    let paper_checks = label == "paper";
    let path = std::env::temp_dir().join(format!(
        "cosmo_bench_stream_{}_{label}.kg2",
        std::process::id()
    ));

    // window the kernel's RSS high-water mark around the freeze alone
    let rss_windowed = reset_peak_rss();
    let t0 = std::time::Instant::now();
    let report = generate_and_freeze(
        cfg,
        threads,
        &path,
        StreamOptions {
            buffer_edges,
            spill_dir: None,
        },
    )
    .expect("streamed freeze");
    let freeze_secs = t0.elapsed().as_secs_f64();
    let peak_rss = peak_rss_bytes();
    let (shards, ran_threads) = (report.shards, report.threads);
    let stats = report.stats;
    let mb = |b: u64| b as f64 / (1u64 << 20) as f64;
    let edges_per_sec = stats.edges as f64 / freeze_secs;
    let rss_over_file = peak_rss.map(|p| p as f64 / stats.file_bytes as f64);
    if paper_checks && rss_windowed {
        let ratio = rss_over_file.expect("probe read VmHWM after windowing");
        assert!(
            ratio <= 2.0,
            "streaming freeze peaked at {ratio:.2}x the snapshot size — the \
             spill/merge path is supposed to cap RSS at 2x"
        );
    }

    // structural mmap open vs the v1-equivalent full parse, at this scale
    let big = stats.edges > 4_000_000;
    let reps = if big { 3 } else { 9 };
    let v2_open_secs = best_secs(reps, || {
        let m = MappedSnapshot::open(&path).expect("v2 open");
        std::hint::black_box(m.num_edges());
    });
    let mapped = MappedSnapshot::open(&path).expect("v2 open");
    let path_v1 = path.with_extension("snap");
    mapped
        .to_owned_snapshot()
        .save(&path_v1)
        .expect("v1-equivalent save");
    let v1_load_secs = best_secs(if big { 2 } else { 9 }, || {
        let s = KgSnapshot::load(&path_v1).expect("v1 load");
        std::hint::black_box(s.num_edges());
    });
    let _ = std::fs::remove_file(&path_v1);
    let v1_over_v2 = v1_load_secs / v2_open_secs;
    if paper_checks {
        assert!(
            v1_over_v2 >= 10.0,
            "v2 structural open is only {v1_over_v2:.1}x faster than the \
             v1-equivalent parse at paper scale (target: >= 10x)"
        );
    }

    // CSR adjacency + node-lookup throughput over the mapped file
    let n_heads = cfg.total_heads();
    let probes: Vec<(NodeId, Relation)> = (0..2048u64)
        .map(|p| {
            let h = mix64(p ^ 0xBEEF_CAFE) % n_heads;
            let (kind, text) = head_text(cfg, h);
            let id = mapped
                .find_node(kind, &text)
                .expect("generated head resolves");
            (id, Relation::ALL[(p % Relation::ALL.len() as u64) as usize])
        })
        .collect();
    let t_csr = best_secs(reps, || {
        let mut acc = 0u64;
        for &(h, r) in &probes {
            for e in mapped.tails_of_rel_slice(h, r) {
                acc += e.tail.0 as u64;
            }
        }
        std::hint::black_box(acc);
    });
    let csr_rate = probes.len() as f64 / t_csr;
    let lookup_texts: Vec<(NodeKind, String)> = (0..512u64)
        .map(|p| head_text(cfg, mix64(p ^ 0xF00D) % n_heads))
        .collect();
    let t_find = best_secs(reps, || {
        let mut found = 0usize;
        for (kind, text) in &lookup_texts {
            found += usize::from(mapped.find_node(*kind, text).is_some());
        }
        assert_eq!(found, lookup_texts.len());
    });
    let find_rate = lookup_texts.len() as f64 / t_find;

    let _ = writeln!(
        human,
        "{:<7} {:>10} {:>10} {:>5} {:>9.1} {:>9.1} {:>9.2} {:>11.0} {:>9} {:>9} {:>10.4} {:>7.0}x {:>11.0}",
        label,
        stats.nodes,
        stats.edges,
        stats.spill_runs,
        mb(stats.spilled_bytes),
        mb(stats.file_bytes),
        freeze_secs,
        edges_per_sec,
        peak_rss.map_or("n/a".into(), |p| format!("{:.0}", mb(p))),
        rss_over_file.map_or("n/a".into(), |r| format!("{r:.2}x")),
        v2_open_secs,
        v1_over_v2,
        csr_rate
    );

    // identity vs the mutable store
    let (mut serving_identical, mut nav_identical, mut http_identical) = (true, true, true);
    let mut http_rps = 0.0f64;
    let byte_identical: &str;
    if paper_checks {
        byte_identical = "null"; // not re-frozen in memory at this scale
        let store = replay_store(cfg);
        assert_eq!(
            (store.num_nodes(), store.num_edges()),
            (stats.nodes, stats.edges),
            "store replay disagrees with the streamed writer on graph size"
        );
        let sample: Vec<String> = (0..200u64)
            .map(|p| head_text(cfg, mix64(p ^ 0x51DE) % n_heads).1)
            .collect();
        for text in &sample {
            let a = cosmo_serving::compute_features(text, &store, &ctx.student);
            let b = cosmo_serving::compute_features(text, &mapped, &ctx.student);
            if feature_bits(&a) != feature_bits(&b) {
                serving_identical = false;
            }
        }
        assert!(
            serving_identical,
            "serving features diverged between store and mapped at paper scale"
        );

        // HTTP identity: two identical systems over the same file — one
        // behind the real server, one driven in process — fed the same
        // queries in the same order must answer byte-for-byte alike
        let wire_view = KgSnapshotView::open(&path).expect("serving view open");
        let local_view = KgSnapshotView::open(&path).expect("serving view open");
        let wire_system = Arc::new(
            cosmo_serving::ServingSystem::builder()
                .view(wire_view)
                .lm(ctx.student.clone())
                .build()
                .expect("default serving config is valid"),
        );
        let local_system = cosmo_serving::ServingSystem::builder()
            .view(local_view)
            .lm(ctx.student.clone())
            .build()
            .expect("default serving config is valid");
        let server = cosmo_http::HttpServer::start(
            Arc::clone(&wire_system),
            cosmo_http::ServerConfig {
                conn_workers: 2,
                conn_backlog: 64,
                admission: cosmo_serving::AdmissionPolicy::RejectNew,
                ..cosmo_http::ServerConfig::default()
            },
        )
        .expect("bind ephemeral port");
        let addr = server.addr();
        let mut client = cosmo_http::HttpClient::connect(addr).expect("client connect");
        for text in sample.iter().take(64) {
            let req = cosmo_serving::ServeRequest::new(text.clone());
            let wire = client
                .request("POST", "/v1/serve-intents", &req.to_json())
                .expect("serve request");
            let local = local_system.handle(&req).to_json();
            if wire.status != 200 || wire.body != local {
                http_identical = false;
            }
        }
        assert!(
            http_identical,
            "HTTP bodies diverged from the in-process system at paper scale"
        );
        let bodies: Vec<String> = sample
            .iter()
            .take(128)
            .map(|t| cosmo_serving::ServeRequest::new(t.clone()).to_json())
            .collect();
        let load = cosmo_http::run_load(
            addr,
            &cosmo_http::LoadConfig {
                concurrency: 4,
                duration: Duration::from_secs(2),
                bodies,
            },
        );
        http_rps = load.throughput_rps;
        server.shutdown();
        let _ = writeln!(
            human,
            "        paper: serving + HTTP answers bitwise-identical to the \
             store ({} wire checks, {:.0} req/s under load)",
            64, http_rps
        );

        // navigation identity last: the engines take the graphs by value
        let store_engine = cosmo_nav::NavigationEngine::new(store);
        let mapped_engine =
            cosmo_nav::NavigationEngine::new(MappedSnapshot::open(&path).expect("v2 open"));
        for text in sample.iter().take(50) {
            if store_engine.interpret(text, 5) != mapped_engine.interpret(text, 5) {
                nav_identical = false;
            }
        }
        assert!(
            nav_identical,
            "navigation diverged between store and mapped at paper scale"
        );
    } else {
        // small enough to pay for the in-memory freeze: demand the
        // strongest possible statement — the exact same bytes (which
        // subsumes the serving/nav/HTTP identity asserted at paper scale)
        let streamed = std::fs::read(&path).expect("read streamed file");
        let store = replay_store(cfg);
        assert!(
            streamed == store.freeze().to_bytes_v2(),
            "streamed {label} world differs from the store freeze bytes"
        );
        byte_identical = "true";
    }
    drop(mapped);
    let _ = std::fs::remove_file(&path);

    let json = format!(
        "    {{\"label\": \"{label}\", \"nodes\": {}, \"edges\": {}, \"raw_edges\": {}, \
         \"shards\": {}, \"threads\": {}, \"buffer_edges\": {buffer_edges}, \
         \"spill_runs\": {}, \"spilled_mb\": {:.1}, \"file_mb\": {:.1}, \
         \"generate_freeze_secs\": {freeze_secs:.3}, \"edges_per_sec\": {edges_per_sec:.0}, \
         \"peak_rss_mb\": {}, \"rss_over_file\": {}, \
         \"v2_open_secs\": {v2_open_secs:.6}, \"v1_load_secs\": {v1_load_secs:.6}, \
         \"v1_over_v2_open\": {v1_over_v2:.2}, \"csr_lookups_per_sec\": {csr_rate:.0}, \
         \"find_node_per_sec\": {find_rate:.0}, \"byte_identical_to_store\": {byte_identical}, \
         \"serving_identical\": {serving_identical}, \"nav_identical\": {nav_identical}, \
         \"http_identical\": {http_identical}, \"http_rps\": {http_rps:.1}}}",
        stats.nodes,
        stats.edges,
        stats.raw_edges,
        shards,
        ran_threads,
        stats.spill_runs,
        mb(stats.spilled_bytes),
        mb(stats.file_bytes),
        peak_rss.map_or("null".into(), |p| format!("{:.1}", mb(p))),
        rss_over_file.map_or("null".into(), |r| format!("{r:.3}")),
    );
    (human, json)
}

/// Deterministic synthetic critic training set (no RNG: identical bits in
/// every build).
fn synthetic_critic_examples(n: usize, buckets: usize) -> Vec<cosmo_core::CriticExample> {
    (0..n)
        .map(|i| {
            let features: Vec<usize> = (0..24)
                .map(|j| {
                    let h = ((i * 31 + j * 7 + 3) as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    (h >> 40) as usize % buckets
                })
                .collect();
            cosmo_core::CriticExample {
                features,
                plausible: Some(i % 3 != 0),
                typical: if i % 5 == 0 { None } else { Some(i % 2 == 0) },
            }
        })
        .collect()
}

/// cosmo-nn compute-engine scaling: matmul GFLOP/s (seed reference loop vs
/// blocked kernel vs 4-thread row-partitioned kernel, plus the FMA
/// reduction-tree tier when the `fast-math` feature is compiled in) across
/// shapes, batched student inference against the per-item path, and
/// per-epoch critic-training wall clock at 1/2/4 worker threads with a
/// byte-identity assertion across thread counts. Writes `BENCH_nn.json`
/// at the repo root and returns the human-readable summary.
pub fn nn_scaling(ctx: &Ctx) -> String {
    let fast_math = cfg!(feature = "fast-math");
    let mut out = String::new();
    let mut json = String::from("{\n  \"matmul\": [\n");

    let _ = writeln!(
        out,
        "{:<14} {:>10} {:>10} {:>12} {:>9} {:>9}",
        "shape", "ref GF/s", "blocked", "threaded(4)", "speedup", "fma"
    );
    let shapes = [
        (64, 64, 64),
        (128, 128, 128),
        (256, 256, 256),
        (96, 512, 160),
    ];
    let mut blocked_speedup_256 = 0.0f64;
    let mut fma_speedup_256 = 0.0f64;
    for (i, &(m, k, n)) in shapes.iter().enumerate() {
        let g = matmul_gflops(m, k, n);
        let speedup = g.blocked / g.reference;
        if (m, k, n) == (256, 256, 256) {
            blocked_speedup_256 = speedup;
            if let Some(f) = g.fma {
                fma_speedup_256 = f / g.blocked;
            }
        }
        let _ = writeln!(
            out,
            "{:<14} {:>10.2} {:>10.2} {:>12.2} {:>8.2}x {:>9}",
            format!("{m}x{k}x{n}"),
            g.reference,
            g.blocked,
            g.threaded4,
            speedup,
            match g.fma {
                Some(f) => format!("{f:.2}"),
                None => "-".to_string(),
            }
        );
        let fma_fields = match g.fma {
            Some(f) => format!(
                ", \"fma_gflops\": {f:.3}, \"fma_speedup_vs_blocked\": {:.3}",
                f / g.blocked
            ),
            None => String::new(),
        };
        let _ = write!(
            json,
            "    {{\"m\": {m}, \"k\": {k}, \"n\": {n}, \"reference_gflops\": {:.3}, \
             \"blocked_gflops\": {:.3}, \"threaded4_gflops\": {:.3}, \
             \"blocked_speedup\": {speedup:.3}{fma_fields}}}{}",
            g.reference,
            g.blocked,
            g.threaded4,
            if i + 1 < shapes.len() { ",\n" } else { "\n" }
        );
    }
    json.push_str("  ],\n  \"student_predict\": [\n");

    // Batched student inference vs the per-item pooled-tape path — the same
    // trained student every other experiment serves, probed with synthetic
    // relevance prompts. The two paths are bitwise identical (locked by
    // tests in cosmo-lm); only throughput differs.
    let lm = &*ctx.student;
    let prompts: Vec<String> = (0..256)
        .map(|i| {
            format!("is the product relevant to the query: camping trip {i} | acme tent model {i}")
        })
        .collect();
    let prompt_refs: Vec<&str> = prompts.iter().map(String::as_str).collect();
    let _ = writeln!(
        out,
        "\n{:<8} {:>16} {:>16} {:>9}  (student relevance head, items/s)",
        "batch", "per-item", "batched", "speedup"
    );
    let mut predict_batch_speedup_256 = 0.0f64;
    let batches = [1usize, 32, 256];
    for (i, &batch) in batches.iter().enumerate() {
        let slice = &prompt_refs[..batch];
        let per_item: Vec<f32> = slice
            .iter()
            .map(|q| lm.predict(TaskType::RelevancePrediction, q))
            .collect();
        let batched = lm.predict_batch(TaskType::RelevancePrediction, slice);
        assert_eq!(
            per_item.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            batched.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "predict_batch diverged from per-item predict at batch {batch}"
        );
        let reps = (2048 / batch).clamp(8, 512);
        let t_item = best_secs(reps, || {
            for q in slice {
                std::hint::black_box(
                    lm.predict(TaskType::RelevancePrediction, std::hint::black_box(q)),
                );
            }
        });
        let t_batch = best_secs(reps, || {
            std::hint::black_box(
                lm.predict_batch(TaskType::RelevancePrediction, std::hint::black_box(slice)),
            );
        });
        let items_per_s = batch as f64 / t_item;
        let batched_per_s = batch as f64 / t_batch;
        let speedup = t_item / t_batch;
        if batch == 256 {
            predict_batch_speedup_256 = speedup;
        }
        let _ = writeln!(
            out,
            "{:<8} {:>16.0} {:>16.0} {:>8.2}x",
            batch, items_per_s, batched_per_s, speedup
        );
        let _ = write!(
            json,
            "    {{\"batch\": {batch}, \"per_item_per_s\": {items_per_s:.1}, \
             \"batched_per_s\": {batched_per_s:.1}, \"speedup\": {speedup:.3}}}{}",
            if i + 1 < batches.len() { ",\n" } else { "\n" }
        );
    }
    json.push_str("  ],\n  \"training\": [\n");

    // sized so each batch carries 8 microbatch shards of real gradient
    // work: at the old 256-example/dim-32 load the per-shard compute was
    // smaller than the fan-out overhead and 4 threads bought only ~1.04x
    let examples = synthetic_critic_examples(8192, 1 << 13);
    let epochs = 2usize;
    let cores = cosmo_exec::WorkerPool::available_parallelism();
    let _ = writeln!(
        out,
        "\n{:<8} {:>14} {:>9}  (critic, {} examples, dim 64, batch 256, \
         microbatch 32; {} cores available)",
        "threads",
        "epoch (ms)",
        "speedup",
        examples.len(),
        cores
    );
    let mut base: Option<(f64, cosmo_core::CriticReport)> = None;
    let threads_sweep = [1usize, 2, 4];
    for (i, &threads) in threads_sweep.iter().enumerate() {
        let cfg = cosmo_core::CriticConfig {
            buckets: 1 << 13,
            dim: 64,
            epochs,
            batch: 256,
            threads,
            microbatch: 32,
            ..Default::default()
        };
        let mut critic = cosmo_core::Critic::new(cfg);
        let t0 = std::time::Instant::now();
        let report = critic.train(&examples);
        let epoch_secs = t0.elapsed().as_secs_f64() / epochs as f64;
        let speedup = match &base {
            Some((base_secs, base_report)) => {
                assert_eq!(
                    base_report, &report,
                    "critic training diverged at {threads} threads"
                );
                base_secs / epoch_secs
            }
            None => {
                base = Some((epoch_secs, report.clone()));
                1.0
            }
        };
        let _ = writeln!(
            out,
            "{:<8} {:>14.2} {:>8.2}x",
            threads,
            epoch_secs * 1e3,
            speedup
        );
        let _ = write!(
            json,
            "    {{\"threads\": {threads}, \"epoch_secs\": {epoch_secs:.6}, \
             \"speedup\": {speedup:.3}}}{}",
            if i + 1 < threads_sweep.len() {
                ",\n"
            } else {
                "\n"
            }
        );
    }
    let fma_field = if fast_math {
        format!("  \"fma_speedup_256\": {fma_speedup_256:.3},\n")
    } else {
        String::new()
    };
    let _ = write!(
        json,
        "  ],\n  \"training_examples\": {},\n  \"training_dim\": 64,\n  \
         \"available_cores\": {cores},\n  \
         \"fast_math\": {fast_math},\n\
         {fma_field}  \
         \"blocked_speedup_256\": {blocked_speedup_256:.3},\n  \
         \"predict_batch_speedup_256\": {predict_batch_speedup_256:.3},\n  \
         \"identical_across_threads\": true\n}}\n",
        examples.len()
    );
    let _ = writeln!(out, "\n{}", write_bench_json("BENCH_nn.json", &json, false));
    let _ = writeln!(
        out,
        "Every kernel and every thread count produced identical bytes:\n\
         blocked/threaded matmuls keep the per-row accumulation order of\n\
         the seed loop, and trainer shards merge in fixed index order."
    );
    if cores < 2 {
        let _ = writeln!(
            out,
            "note: only {cores} core(s) visible to this run — thread-count\n\
             speedups cannot materialise here; the sweep still proves the\n\
             sharded trainer is bit-identical at every thread count."
        );
    }
    out
}
