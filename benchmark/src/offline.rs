//! The `offline-build` workload: one Figure 2/4 build per iteration.
//!
//! Set-up generates the world and behaviour log; the build runs
//! `cosmo_core::run_over`, trains the student, stream-freezes the mid
//! world with `generate_and_freeze`, and opens the result with
//! `KgSnapshotView::open_verified`. Builds repeat until the run's time is
//! used, and the medians are reported.

use crate::report::Report;
use crate::trace::{median, Recorder};
use cosmo_core::{
    annotate, features, sample_behaviors, CoarseFilter, Critic, CriticExample, PipelineConfig,
};
use cosmo_exec::WorkerPool;
use cosmo_kg::{KgSnapshotView, StreamOptions};
use cosmo_lm::{CosmoLm, StudentConfig};
use cosmo_synth::{
    BehaviorConfig, BehaviorLog, ScaleConfig, SpecificityService, World, WorldConfig,
};
use cosmo_teacher::{BehaviorRef, Teacher};
use std::path::Path;
use std::time::Instant;

/// Student epochs of the offline build.
pub const STUDENT_EPOCHS: usize = 3;
/// Fewest builds a run makes, whatever `--seconds` says.
pub const MIN_BUILDS: usize = 3;

/// The stated `PipelineConfig` of the build: the default world with a
/// 4,000 search-buy / 6,000 co-buy log and a 600-per-behaviour
/// annotation budget.
pub fn pipeline_config(seed: u64) -> PipelineConfig {
    PipelineConfig {
        world: WorldConfig {
            seed,
            ..WorldConfig::default()
        },
        behavior: BehaviorConfig {
            seed: seed ^ 1,
            total_search_buys: 4_000,
            total_cobuys: 6_000,
            ..BehaviorConfig::default()
        },
        annotation: cosmo_core::AnnotationConfig {
            budget_per_behavior: 600,
            ..cosmo_core::AnnotationConfig::default()
        },
        critic: cosmo_core::CriticConfig {
            epochs: 8,
            ..cosmo_core::CriticConfig::default()
        },
        gens_per_searchbuy: 3,
        gens_per_cobuy: 4,
        ..PipelineConfig::default()
    }
}

/// Timings and counts of one build.
#[derive(Debug, Clone)]
struct Build {
    setup_s: f64,
    world_s: f64,
    log_s: f64,
    run_over_s: f64,
    train_s: f64,
    freeze_s: f64,
    open_s: f64,
    candidates: usize,
    /// Candidates the coarse filter kept.
    kept: usize,
    train_examples: usize,
    /// `(kg nodes, kg edges, admitted edges, v2 nodes, v2 edges, v2 bytes)`
    counts: [u64; 6],
    stream: cosmo_kg::StreamStats,
}

impl Build {
    fn build_s(&self) -> f64 {
        self.run_over_s + self.train_s + self.freeze_s + self.open_s
    }
}

fn set_up(cfg: &PipelineConfig, rec: Option<&Recorder>) -> (World, BehaviorLog, f64, f64) {
    let t = Instant::now();
    let world = World::generate(cfg.world.clone());
    let world_s = t.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let log = BehaviorLog::generate(&world, &cfg.behavior);
    let log_s = t1.elapsed().as_secs_f64();
    if let Some(rec) = rec {
        rec.push("synth.world", rec.at(t), rec.at(t1), None, 0);
        rec.push("synth.log", rec.at(t1), rec.now_ns(), None, 0);
    }
    (world, log, world_s, log_s)
}

fn build(seed: u64, work: &Path, rec: Option<&Recorder>) -> Result<Build, String> {
    let cfg = pipeline_config(seed);
    let (world, log, world_s, log_s) = set_up(&cfg, rec);
    let outer = rec.map(|r| r.open("offline.build", None, 0));
    let span = |name: &'static str, t: Instant| {
        if let (Some(r), Some(p)) = (rec, outer) {
            r.push(name, r.at(t), r.now_ns(), Some(p), 0);
        }
    };

    let t = Instant::now();
    let out = cosmo_core::run_over(world, log, &cfg);
    let run_over_s = t.elapsed().as_secs_f64();
    span("core.run_over", t);

    let t = Instant::now();
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
    let train_s = t.elapsed().as_secs_f64();
    span("lm.train", t);

    let path = work.join(format!("offline-{seed}.kg2"));
    let t = Instant::now();
    let freeze = cosmo_core::generate_and_freeze(
        &ScaleConfig::mid(seed),
        WorkerPool::available_parallelism(),
        &path,
        StreamOptions {
            spill_dir: Some(work.to_path_buf()),
            ..StreamOptions::default()
        },
    )
    .map_err(|e| format!("freeze: {e}"))?;
    let freeze_s = t.elapsed().as_secs_f64();
    span("kg.freeze", t);

    let t = Instant::now();
    let view = KgSnapshotView::open_verified(&path).map_err(|e| format!("open: {e}"))?;
    let open_s = t.elapsed().as_secs_f64();
    span("kg.open_verified", t);
    if let (Some(r), Some(p)) = (rec, outer) {
        r.close(p);
    }
    let counts = [
        out.kg.num_nodes() as u64,
        out.kg.num_edges() as u64,
        out.report.edges_admitted as u64,
        view.num_nodes() as u64,
        view.num_edges() as u64,
        freeze.stats.file_bytes,
    ];
    drop(view);
    let _ = std::fs::remove_file(&path);
    Ok(Build {
        setup_s: world_s + log_s,
        world_s,
        log_s,
        run_over_s,
        train_s,
        freeze_s,
        open_s,
        candidates: out.report.candidates,
        kept: out.report.kept_after_filter,
        train_examples: instructions.len() * STUDENT_EPOCHS,
        counts,
        stream: freeze.stats,
    })
}

/// Run builds until `secs` is used (at least [`MIN_BUILDS`]).
fn builds(seed: u64, work: &Path, secs: f64, report: &mut Report) -> Vec<Build> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < MIN_BUILDS || start.elapsed().as_secs_f64() < secs {
        report.attempted += 1;
        match build(seed, work, None) {
            Ok(b) => {
                if out.is_empty() {
                    // a user runs one build per process: later builds
                    // only add allocator leftovers to the high-water mark
                    report.set("peak_rss_mb", crate::peak_rss_mb());
                }
                out.push(b);
            }
            Err(e) => {
                report.failed += 1;
                report.line(format!("build failed: {e}"));
                break;
            }
        }
    }
    out
}

/// Median of one field over the builds.
fn med(builds: &[Build], f: impl Fn(&Build) -> f64) -> f64 {
    median(&builds.iter().map(f).collect::<Vec<_>>())
}

/// `offline-build` with tracing off: the end-to-end numbers.
pub fn run(seed: u64, work: &Path, secs: f64, report: &mut Report) {
    let b = builds(seed, work, secs, report);
    let cfg = pipeline_config(seed);
    report.line(format!(
        "offline-build: {} builds; PipelineConfig: default world (seed {seed}), {} search-buys / {} co-buys, \
         annotation budget {}, critic epochs {}, gens {}/{}; student epochs {STUDENT_EPOCHS}; ScaleConfig::mid freeze",
        b.len(),
        cfg.behavior.total_search_buys,
        cfg.behavior.total_cobuys,
        cfg.annotation.budget_per_behavior,
        cfg.critic.epochs,
        cfg.gens_per_searchbuy,
        cfg.gens_per_cobuy
    ));
    let n = format!("median of {} builds", b.len());
    let cands = med(&b, |x| x.candidates as f64 / x.run_over_s);
    report.metric("pipeline_cands_per_s", Some(cands), "1/s", &n);
    report.metric(
        "train_examples_per_s",
        Some(med(&b, |x| x.train_examples as f64 / x.train_s)),
        "1/s",
        &n,
    );
    report.metric(
        "freeze_edges_per_s",
        Some(med(&b, |x| x.stream.edges as f64 / x.freeze_s)),
        "1/s",
        &format!("{n}; merged edges written to the v2 file"),
    );
    let open_us = med(&b, |x| x.open_s * 1e6);
    report.metric("open_ms", Some(open_us / 1e3), "ms", &n);
    let build_us = med(&b, |x| x.build_s() * 1e6);
    report.metric("build_s", Some(build_us / 1e6), "s", &n);
    report.metric(
        "fail_ratio",
        Some(report.failed as f64 / report.attempted.max(1) as f64),
        "ratio",
        &format!(
            "{} failed / {} builds attempted",
            report.failed, report.attempted
        ),
    );
    check_counts(seed, work, &b, report);
    report.metric(
        "setup_s",
        Some(med(&b, |x| x.setup_s)),
        "s",
        &format!("median of {} set-ups (world + log generation)", b.len()),
    );
    report.set("setup_s", med(&b, |x| x.setup_s));
    report.set("throughput_per_s", cands);
    report.set("latency_p50_us", build_us);
    report.set("read_p50_us", open_us);
}

/// The KG and v2 file counts must be equal across builds of one seed,
/// within this run and against the record an earlier run of the same
/// revision left.
fn check_counts(seed: u64, work: &Path, b: &[Build], report: &mut Report) {
    let Some(first) = b.first() else {
        report.check("offline-build produced at least one build", false);
        return;
    };
    let same = b.iter().all(|x| x.counts == first.counts);
    report.check(
        format!(
            "KG and v2 counts equal across {} builds {:?}",
            b.len(),
            first.counts
        ),
        same,
    );
    report.check(
        "opened v2 file matches the writer's node and edge counts",
        first.counts[3] == first.stream.nodes as u64
            && first.counts[4] == first.stream.edges as u64,
    );
    // keyed by revision too, so a change that alters the pipeline's output
    // starts its own record
    let rev: String = env!("BENCH_GIT_REV").chars().take(12).collect();
    let record = work.join(format!("offline-{seed}-{rev}.counts"));
    let text = format!("{:?}", first.counts);
    match std::fs::read_to_string(&record) {
        Ok(prev) => report.check(
            format!("counts equal the earlier run of seed {seed} ({prev})"),
            prev == text,
        ),
        Err(_) => {
            let _ = std::fs::write(&record, &text);
        }
    }
}

/// `offline-build` with tracing on: untraced builds for the baseline,
/// one traced build, and a stage-by-stage replay of `run_over`.
pub fn traced(seed: u64, work: &Path, secs: f64, rec: &Recorder, report: &mut Report) {
    let untraced = builds(seed, work, secs / 2.0, report);
    report.attempted += 1;
    let b = match build(seed, work, Some(rec)) {
        Ok(b) => b,
        Err(e) => {
            report.failed += 1;
            report.check(format!("traced build: {e}"), false);
            return;
        }
    };
    check_counts(
        seed,
        work,
        &[untraced.clone(), vec![b.clone()]].concat(),
        report,
    );
    let base = med(&untraced, |x| x.build_s()) * 1e6;
    let traced = b.build_s() * 1e6;
    report.set("trace.untraced_us", base);
    report.set("trace.traced_us", traced);
    report.set("trace.overhead_frac", (traced - base) / base);
    report.set("synth.world_s", b.world_s);
    report.set("synth.log_s", b.log_s);
    report.set("core.run_over_s", b.run_over_s);
    report.set("lm.train_examples", b.train_examples as f64);
    report.set("lm.train_epoch_s", b.train_s / STUDENT_EPOCHS as f64);
    report.set("kg.open_verified_ms", b.open_s * 1e3);
    report.set("kg.stream.edges", b.stream.edges as f64);
    report.set("kg.stream.spill_runs", b.stream.spill_runs as f64);
    report.set("kg.stream.spilled_mb", b.stream.spilled_bytes as f64 / 1e6);
    report.set("kg.stream.file_mb", b.stream.file_bytes as f64 / 1e6);
    report.set(
        "kg.bytes_per_edge",
        b.stream.file_bytes as f64 / b.stream.edges.max(1) as f64,
    );
    report.line(format!(
        "  traced build {:.4} s vs untraced median {:.4} s ({} builds): overhead {:.4} of the untraced build",
        traced / 1e6,
        base / 1e6,
        untraced.len(),
        (traced - base) / base
    ));
    replay_stages(seed, &b, rec, report);
}

/// Replay `run_over`'s stages through their public entry points, in the
/// pipeline's order, over a freshly generated world and log. The replay
/// restates `run_over`'s glue (task fan-out, 512-row scoring chunks, the
/// admission rule), so its candidate, kept and admitted counts are
/// checked against the traced build's: a `run_over` that changes shape
/// fails the check instead of leaving stage times for a stale copy.
fn replay_stages(seed: u64, b: &Build, rec: &Recorder, report: &mut Report) {
    let run_over_s = b.run_over_s;
    let cfg = pipeline_config(seed);
    let world = World::generate(cfg.world.clone());
    let log = BehaviorLog::generate(&world, &cfg.behavior);
    let pool = WorkerPool::new(cfg.effective_threads());
    let outer = rec.open("core.replay", None, 0);
    let timed = |name: &'static str, f: &mut dyn FnMut()| -> f64 {
        let t = Instant::now();
        rec.time(name, Some(outer), 0, f);
        t.elapsed().as_secs_f64()
    };

    let mut sampled = None;
    let sampling_s = timed("core.sampling", &mut || {
        let specificity = SpecificityService::new(cfg.world.seed ^ 0x5FEC, 0.05);
        sampled = Some(sample_behaviors(&world, &log, &specificity, &cfg.sampling));
    });
    let sampled = sampled.expect("sampling ran");

    let mut tasks: Vec<(u64, u64, BehaviorRef)> = Vec::new();
    for (bi, &(q, p)) in sampled.search_buys.iter().enumerate() {
        for gi in 0..cfg.gens_per_searchbuy {
            tasks.push((bi as u64, gi as u64, BehaviorRef::SearchBuy(q, p)));
        }
    }
    let base = sampled.search_buys.len() as u64;
    for (bi, &(p1, p2)) in sampled.cobuys.iter().enumerate() {
        for gi in 0..cfg.gens_per_cobuy {
            tasks.push((base + bi as u64, gi as u64, BehaviorRef::CoBuy(p1, p2)));
        }
    }
    let mut generated = Vec::new();
    let generate_s = timed("teacher.generate", &mut || {
        generated = pool.map(
            &tasks,
            pool.chunk_for(tasks.len()),
            |_, &(bi, gi, behavior)| {
                let mut teacher = Teacher::for_task(&world, cfg.teacher.clone(), bi, gi);
                match behavior {
                    BehaviorRef::SearchBuy(q, p) => teacher.generate_search_buy(q, p),
                    BehaviorRef::CoBuy(p1, p2) => teacher.generate_cobuy(p1, p2),
                }
            },
        );
    });
    let n_candidates = generated.len();

    let mut filtered = Vec::new();
    let filter_s = timed("core.filter", &mut || {
        let filter = CoarseFilter::fit(&cosmo_synth::corpus(&world), cfg.filter.clone());
        filtered = filter.filter_with(&world, std::mem::take(&mut generated), &pool);
    });
    let kept_idx: Vec<usize> = (0..filtered.len())
        .filter(|&i| filtered[i].decision.kept())
        .collect();

    let mut annotation = None;
    let annotate_s = timed("core.annotate", &mut || {
        annotation = Some(annotate(&world, &log, &filtered, &cfg.annotation));
    });
    let annotation = annotation.expect("annotation ran");

    let tail_of = |i: usize| -> &str {
        filtered[i]
            .parsed
            .as_ref()
            .map(|p| p.tail.as_str())
            .unwrap_or("")
    };
    let mut critic = Critic::new(cfg.critic.clone());
    let critic_train_s = timed("core.critic_train", &mut || {
        let annotations = &annotation.annotations;
        let examples: Vec<CriticExample> =
            pool.map(annotations, pool.chunk_for(annotations.len()), |_, a| {
                CriticExample {
                    features: features(
                        &world,
                        &filtered[a.candidate_idx].candidate,
                        tail_of(a.candidate_idx),
                        cfg.critic.buckets,
                    ),
                    plausible: a.answers.plausible.as_bool(),
                    typical: a.answers.typical.as_bool(),
                }
            });
        critic.train(&examples);
    });

    let mut scores: Vec<(f32, f32)> = Vec::new();
    let critic_score_s = timed("core.critic_score", &mut || {
        let feats: Vec<Vec<usize>> =
            pool.map(&kept_idx, pool.chunk_for(kept_idx.len()), |_, &i| {
                features(
                    &world,
                    &filtered[i].candidate,
                    tail_of(i),
                    cfg.critic.buckets,
                )
            });
        let starts: Vec<usize> = (0..feats.len()).step_by(512).collect();
        scores = pool
            .map(&starts, 1, |_, &start| {
                critic.score_batch(&feats[start..(start + 512).min(feats.len())])
            })
            .concat();
    });
    rec.close(outer);
    let admitted = kept_idx
        .iter()
        .zip(&scores)
        .filter(|(&i, s)| s.0 > cfg.plausibility_threshold && !tail_of(i).is_empty())
        .count();

    let stages = sampling_s + generate_s + filter_s + annotate_s + critic_train_s + critic_score_s;
    report.set("core.candidates", n_candidates as f64);
    report.set("core.sampling_s", sampling_s);
    report.set("teacher.generate_s", generate_s);
    report.set("core.filter_s", filter_s);
    report.set(
        "core.filter_keep_ratio",
        kept_idx.len() as f64 / n_candidates.max(1) as f64,
    );
    report.set("core.annotate_s", annotate_s);
    report.set("core.critic_train_s", critic_train_s);
    report.set("core.critic_score_s", critic_score_s);
    report.set(
        "core.admit_ratio",
        admitted as f64 / kept_idx.len().max(1) as f64,
    );
    report.set("core.unaccounted_s", run_over_s - stages);
    report.set("trace.outer_p50_us", run_over_s * 1e6);
    report.set("trace.unaccounted_frac", (run_over_s - stages) / run_over_s);
    report.line(format!(
        "  run_over {run_over_s:.4} s = sampling {sampling_s:.4} + teacher {generate_s:.4} + filter {filter_s:.4} \
         + annotate {annotate_s:.4} + critic train {critic_train_s:.4} + critic score {critic_score_s:.4} \
         + unaccounted {:.4} ({:.4} of run_over); keep ratio {} kept / {n_candidates} candidates, \
         admit ratio {admitted} admitted / {} kept",
        run_over_s - stages,
        (run_over_s - stages) / run_over_s,
        kept_idx.len(),
        kept_idx.len()
    ));
    report.check(
        format!(
            "stage replay generated, kept and admitted as run_over did: candidates {n_candidates} \
             vs {}, kept {} vs {}, admitted edges {} vs {} (two heads per admitted candidate)",
            b.candidates,
            kept_idx.len(),
            b.kept,
            2 * admitted,
            b.counts[2]
        ),
        n_candidates == b.candidates
            && kept_idx.len() == b.kept
            && 2 * admitted as u64 == b.counts[2],
    );
}
