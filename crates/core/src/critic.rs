//! Critic classifiers (§3.3.2).
//!
//! "We then build a classification model using this data to score all the
//! knowledge candidates after coarse-grained filtering. We fine-tuned both
//! DeBERTa-large and our in-house language model to populate the human
//! judgements to the whole knowledge candidates … knowledge candidates
//! whose plausibility score is above 0.5 are left."
//!
//! Offline stand-in: a shared hashed-feature embedding bag with two
//! sigmoid heads (plausibility, typicality), trained with Adam on the
//! simulated annotations and applied to every surviving candidate. The
//! feature map includes head/tail unigrams, tail bigrams, head-base ×
//! tail-token cross features (the signal that lets plausibility generalise
//! across products of the same type), relation and domain ids.

use cosmo_nn::infer::{self, ScratchPool};
use cosmo_nn::layers::{Embedding, Linear};
use cosmo_nn::opt::Adam;
use cosmo_nn::train::{shard_ranges, ShardRunner};
use cosmo_nn::ParamStore;
use cosmo_synth::World;
use cosmo_teacher::{BehaviorRef, Candidate};
use cosmo_text::hash::hash_str_ns;
use cosmo_text::tokenize_spans;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Feature namespaces.
const NS_TAIL_UNI: u32 = 11;
const NS_TAIL_BI: u32 = 12;
const NS_HEAD_UNI: u32 = 13;
const NS_CROSS: u32 = 14;
const NS_RELATION: u32 = 15;
const NS_DOMAIN: u32 = 16;
const NS_BEHAVIOR: u32 = 17;
const NS_DOMAIN_TAIL: u32 = 18;
const NS_REL_TAIL: u32 = 19;

/// Critic hyperparameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CriticConfig {
    /// RNG seed.
    pub seed: u64,
    /// Hash-bucket count (feature vocabulary).
    pub buckets: usize,
    /// Embedding width.
    pub dim: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Minibatch size.
    pub batch: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Worker threads for sharded gradient steps (`0` = all cores,
    /// `1` = inline). Thread count never changes the result — see
    /// `cosmo_nn::train`.
    #[serde(default = "default_threads")]
    pub threads: usize,
    /// Shard size for data-parallel gradient steps. `0` keeps each batch
    /// on a single tape — the exact whole-batch formulation; any other
    /// value fixes the shard structure independently of `threads`.
    #[serde(default)]
    pub microbatch: usize,
}

fn default_threads() -> usize {
    1
}

impl Default for CriticConfig {
    fn default() -> Self {
        CriticConfig {
            seed: 0xC417,
            buckets: 1 << 13,
            dim: 32,
            epochs: 14,
            batch: 64,
            lr: 0.01,
            threads: 1,
            microbatch: 0,
        }
    }
}

/// One training example: hashed features + the two labels (when decided).
#[derive(Debug, Clone)]
pub struct CriticExample {
    /// Hashed feature ids.
    pub features: Vec<usize>,
    /// Plausibility label (None = annotator not sure).
    pub plausible: Option<bool>,
    /// Typicality label.
    pub typical: Option<bool>,
}

/// Hash a candidate's text into critic features. Tokens are spans of one
/// lowercase buffer, and every composite key (bigram, head × tail,
/// domain × tail, relation × tail) is written into one reused `String`:
/// the hashed bytes are those of the `format!`ted keys, without their
/// allocations.
pub fn features(world: &World, c: &Candidate, tail: &str, buckets: usize) -> Vec<usize> {
    let mut out = Vec::with_capacity(48);
    let mut push = |h: u64| out.push((h % buckets as u64) as usize);
    let (mut lower, mut spans) = (String::new(), Vec::new());
    tokenize_spans(tail, &mut lower, &mut spans);
    let tail_toks: Vec<&str> = spans
        .iter()
        .map(|&(s, e)| &lower[s as usize..e as usize])
        .collect();
    let mut key = String::new();
    let mut hash_joined = |a: &str, sep: char, b: &str, ns: u32| {
        key.clear();
        key.push_str(a);
        key.push(sep);
        key.push_str(b);
        hash_str_ns(&key, ns)
    };
    for t in &tail_toks {
        push(hash_str_ns(t, NS_TAIL_UNI));
    }
    for w in tail_toks.windows(2) {
        push(hash_joined(w[0], ' ', w[1], NS_TAIL_BI));
    }
    let heads: [&str; 2] = match c.behavior {
        BehaviorRef::SearchBuy(q, p) => [&world.query(q).text, &world.ptype_of(p).base],
        BehaviorRef::CoBuy(p1, p2) => [&world.ptype_of(p1).base, &world.ptype_of(p2).base],
    };
    let (mut head_lower, mut head_spans) = (String::new(), Vec::new());
    for h in heads {
        head_lower.clear();
        head_spans.clear();
        tokenize_spans(h, &mut head_lower, &mut head_spans);
        for &(s, e) in &head_spans {
            push(hash_str_ns(
                &head_lower[s as usize..e as usize],
                NS_HEAD_UNI,
            ));
        }
        // cross features: head base × tail token
        for t in &tail_toks {
            push(hash_joined(h, '|', t, NS_CROSS));
        }
    }
    push(hash_str_ns(c.relation.name(), NS_RELATION));
    push(hash_str_ns(c.domain.name(), NS_DOMAIN));
    push(hash_str_ns(c.behavior.kind().name(), NS_BEHAVIOR));
    // domain × tail and relation × tail crosses: catch cross-domain
    // hallucinations and relation-incompatible tails, which generalise far
    // beyond the annotated (head, tail) pairs
    for t in &tail_toks {
        push(hash_joined(c.domain.name(), '|', t, NS_DOMAIN_TAIL));
        push(hash_joined(c.relation.name(), '|', t, NS_REL_TAIL));
    }
    out
}

/// The trained critic: shared embedding + two heads.
pub struct Critic {
    store: ParamStore,
    emb: Embedding,
    head_plausible: Linear,
    head_typical: Linear,
    cfg: CriticConfig,
    /// Recycled tape-free scratch buffers for the scoring entry points.
    scratch_pool: ScratchPool,
}

/// Training metrics.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CriticReport {
    /// Examples with a plausibility label.
    pub n_plausible: usize,
    /// Examples with a typicality label.
    pub n_typical: usize,
    /// Final-epoch mean loss.
    pub final_loss: f32,
    /// Held-out plausibility accuracy.
    pub plausible_accuracy: f64,
    /// Held-out typicality accuracy.
    pub typical_accuracy: f64,
    /// Held-out plausibility AUC.
    pub plausible_auc: f64,
}

impl Critic {
    /// Fresh, untrained critic.
    pub fn new(cfg: CriticConfig) -> Self {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let emb = Embedding::new(&mut store, "critic.emb", cfg.buckets, cfg.dim, &mut rng);
        let head_plausible = Linear::new(&mut store, "critic.plaus", cfg.dim, 1, &mut rng);
        let head_typical = Linear::new(&mut store, "critic.typ", cfg.dim, 1, &mut rng);
        Critic {
            store,
            emb,
            head_plausible,
            head_typical,
            cfg,
            scratch_pool: ScratchPool::new(),
        }
    }

    /// Train on annotated examples; the last 15% (by shuffled order) are
    /// held out for the accuracy/AUC report.
    pub fn train(&mut self, examples: &[CriticExample]) -> CriticReport {
        let mut rng = StdRng::seed_from_u64(self.cfg.seed ^ 0x5EED);
        let mut order: Vec<usize> = (0..examples.len()).collect();
        order.shuffle(&mut rng);
        let split = (examples.len() as f64 * 0.85) as usize;
        let (train_idx, test_idx) = order.split_at(split.max(1).min(examples.len()));

        let mut opt = Adam::new(self.cfg.lr);
        let mut runner = ShardRunner::new(self.cfg.threads);
        let mut report = CriticReport::default();
        for e in examples {
            report.n_plausible += usize::from(e.plausible.is_some());
            report.n_typical += usize::from(e.typical.is_some());
        }

        for _epoch in 0..self.cfg.epochs {
            let mut idx = train_idx.to_vec();
            idx.shuffle(&mut rng);
            let mut epoch_loss = 0.0f32;
            let mut steps = 0;
            for chunk in idx.chunks(self.cfg.batch) {
                let batch: Vec<&CriticExample> = chunk.iter().map(|&i| &examples[i]).collect();
                let loss = self.train_step(&batch, &mut opt, &mut runner);
                epoch_loss += loss;
                steps += 1;
            }
            report.final_loss = epoch_loss / steps.max(1) as f32;
        }

        // held-out evaluation
        let mut p_correct = 0usize;
        let mut p_total = 0usize;
        let mut t_correct = 0usize;
        let mut t_total = 0usize;
        let mut scored: Vec<(f32, bool)> = Vec::new();
        for &i in test_idx {
            let e = &examples[i];
            let (p, t) = self.score(&e.features);
            if let Some(lbl) = e.plausible {
                p_total += 1;
                p_correct += usize::from((p > 0.5) == lbl);
                scored.push((p, lbl));
            }
            if let Some(lbl) = e.typical {
                t_total += 1;
                t_correct += usize::from((t > 0.5) == lbl);
            }
        }
        report.plausible_accuracy = p_correct as f64 / p_total.max(1) as f64;
        report.typical_accuracy = t_correct as f64 / t_total.max(1) as f64;
        report.plausible_auc = auc(&scored);
        report
    }

    /// One sharded gradient step. Each shard records the same graph the
    /// whole-batch formulation would, scaled by `shard_len / batch_len` so
    /// shard losses (and gradients) sum to the batch mean; with one shard
    /// the scale is `1.0` and the step is the exact legacy computation.
    fn train_step(
        &mut self,
        batch: &[&CriticExample],
        opt: &mut Adam,
        runner: &mut ShardRunner,
    ) -> f32 {
        let shards = shard_ranges(batch.len(), self.cfg.microbatch);
        let batch_len = batch.len();
        let Critic {
            store,
            emb,
            head_plausible,
            head_typical,
            ..
        } = self;
        let losses = runner.grad_step(store, shards.len(), |tape, s, shard_i| {
            let range = shards[shard_i].clone();
            let shard = &batch[range.start..range.end];
            // build one flat gather with segment ids
            let mut ids = Vec::new();
            let mut segments = Vec::new();
            for (seg, e) in shard.iter().enumerate() {
                for &f in &e.features {
                    ids.push(f);
                    segments.push(seg);
                }
            }
            let table = emb.table(tape, s);
            let rows = tape.gather(table, &ids);
            let pooled = tape.segment_mean(rows, &segments, shard.len());
            let logit_p = head_plausible.forward(tape, s, pooled);
            let logit_t = head_typical.forward(tape, s, pooled);

            // mask missing labels by zero-weighting: build target vectors
            // with the predicted value substituted (gradient = 0)
            let vp = tape.value(logit_p);
            let targets_p: Vec<f32> = shard
                .iter()
                .enumerate()
                .map(|(i, e)| match e.plausible {
                    Some(b) => f32::from(b),
                    None => sigmoid(vp.get(i, 0)),
                })
                .collect();
            let vt = tape.value(logit_t);
            let targets_t: Vec<f32> = shard
                .iter()
                .enumerate()
                .map(|(i, e)| match e.typical {
                    Some(b) => f32::from(b),
                    None => sigmoid(vt.get(i, 0)),
                })
                .collect();
            let loss_p = tape.bce_with_logits(logit_p, &targets_p);
            let loss_t = tape.bce_with_logits(logit_t, &targets_t);
            let loss = tape.add(loss_p, loss_t);
            tape.scale(loss, range.len() as f32 / batch_len as f32)
        });
        opt.step(store);
        losses.iter().sum()
    }

    /// Score features → `(plausibility, typicality)` probabilities.
    ///
    /// Runs tape-free through pooled scratch buffers (no parameter copies,
    /// no autodiff bookkeeping, no steady-state allocation); outputs are
    /// bitwise identical to the historical fresh-tape formulation, locked
    /// by a test below. Empty feature lists mean-pool to a zero row, which
    /// matches the old explicit zeros input exactly.
    pub fn score(&self, feats: &[usize]) -> (f32, f32) {
        let mut s = self.scratch_pool.take();
        s.clear_ids();
        s.ids.extend_from_slice(feats);
        s.segments.resize(feats.len(), 0);
        let out = {
            self.forward_scratch(&mut s, 1);
            (sigmoid(s.hidden.get(0, 0)), sigmoid(s.out.get(0, 0)))
        };
        self.scratch_pool.put(s);
        out
    }

    /// Score a whole batch at once: one flat embedding-bag encode and one
    /// matmul per head over the `[batch×dim]` pooled block. Bitwise
    /// identical to scoring each row alone (the per-element reduction
    /// chains depend only on the inner dimension, never the batch size).
    pub fn score_batch(&self, batch: &[Vec<usize>]) -> Vec<(f32, f32)> {
        if batch.is_empty() {
            return Vec::new();
        }
        let mut s = self.scratch_pool.take();
        s.clear_ids();
        for (seg, feats) in batch.iter().enumerate() {
            for &f in feats {
                s.ids.push(f);
                s.segments.push(seg);
            }
        }
        self.forward_scratch(&mut s, batch.len());
        let out = (0..batch.len())
            .map(|i| (sigmoid(s.hidden.get(i, 0)), sigmoid(s.out.get(i, 0))))
            .collect();
        self.scratch_pool.put(s);
        out
    }

    /// Shared scoring forward: mean-pool the staged ids/segments into
    /// `[batch×dim]`, then run both heads (plausibility logits land in
    /// `scratch.hidden`, typicality in `scratch.out`).
    fn forward_scratch(&self, s: &mut infer::InferScratch, batch: usize) {
        infer::embed_bag_into(
            self.emb.table_value(&self.store),
            &s.ids,
            &s.segments,
            batch,
            &mut s.counts,
            &mut s.pooled,
        );
        let (wp, bp) = self.head_plausible.params(&self.store);
        infer::linear_into(&s.pooled, wp, bp, &mut s.hidden);
        let (wt, bt) = self.head_typical.params(&self.store);
        infer::linear_into(&s.pooled, wt, bt, &mut s.out);
    }

    /// Hash-bucket count this critic was built with.
    pub fn buckets(&self) -> usize {
        self.cfg.buckets
    }
}

fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// Area under the ROC curve of `(score, label)` pairs.
pub fn auc(scored: &[(f32, bool)]) -> f64 {
    let mut pos = 0u64;
    let mut neg = 0u64;
    let mut sorted: Vec<(f32, bool)> = scored.to_vec();
    sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut rank_sum = 0.0f64;
    for (rank, (_, label)) in sorted.iter().enumerate() {
        if *label {
            pos += 1;
            rank_sum += (rank + 1) as f64;
        } else {
            neg += 1;
        }
    }
    if pos == 0 || neg == 0 {
        return 0.5;
    }
    (rank_sum - (pos * (pos + 1)) as f64 / 2.0) / (pos as f64 * neg as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The original `format!`-keyed feature hashing, kept as the oracle.
    fn features_oracle(world: &World, c: &Candidate, tail: &str, buckets: usize) -> Vec<usize> {
        let mut out = Vec::new();
        let mut push = |h: u64| out.push((h % buckets as u64) as usize);
        let tail_toks = cosmo_text::tokenize(tail);
        for t in &tail_toks {
            push(hash_str_ns(t, NS_TAIL_UNI));
        }
        for w in tail_toks.windows(2) {
            push(hash_str_ns(&format!("{} {}", w[0], w[1]), NS_TAIL_BI));
        }
        let heads: Vec<String> = match c.behavior {
            BehaviorRef::SearchBuy(q, p) => {
                vec![world.query(q).text.clone(), world.ptype_of(p).base.clone()]
            }
            BehaviorRef::CoBuy(p1, p2) => vec![
                world.ptype_of(p1).base.clone(),
                world.ptype_of(p2).base.clone(),
            ],
        };
        for h in &heads {
            for t in cosmo_text::tokenize(h) {
                push(hash_str_ns(&t, NS_HEAD_UNI));
            }
            for t in &tail_toks {
                push(hash_str_ns(&format!("{h}|{t}"), NS_CROSS));
            }
        }
        push(hash_str_ns(c.relation.name(), NS_RELATION));
        push(hash_str_ns(c.domain.name(), NS_DOMAIN));
        push(hash_str_ns(c.behavior.kind().name(), NS_BEHAVIOR));
        for t in &tail_toks {
            push(hash_str_ns(
                &format!("{}|{t}", c.domain.name()),
                NS_DOMAIN_TAIL,
            ));
            push(hash_str_ns(
                &format!("{}|{t}", c.relation.name()),
                NS_REL_TAIL,
            ));
        }
        out
    }

    #[test]
    fn features_match_the_format_keyed_oracle() {
        use cosmo_synth::{BehaviorConfig, BehaviorLog, WorldConfig};
        use cosmo_teacher::{parse_candidate, Teacher, TeacherConfig};
        let w = World::generate(WorldConfig::tiny(7));
        let log = BehaviorLog::generate(&w, &BehaviorConfig::tiny(8));
        let mut teacher = Teacher::new(&w, TeacherConfig::default());
        let mut cands = Vec::new();
        for sb in log.search_buys.iter().take(300) {
            cands.push(teacher.generate_search_buy(sb.query, sb.product));
        }
        for cb in log.cobuys.iter().take(300) {
            cands.push(teacher.generate_cobuy(cb.p1, cb.p2));
        }
        let odd_tails = [
            "",
            "Über-Größe straße",
            "a",
            "used for the used for",
            "x-y 'z",
        ];
        for (i, c) in cands.iter().enumerate() {
            let parsed = parse_candidate(&c.raw).map(|p| p.tail).unwrap_or_default();
            for tail in [
                parsed.as_str(),
                c.raw.as_str(),
                odd_tails[i % odd_tails.len()],
            ] {
                assert_eq!(
                    features(&w, c, tail, 4096),
                    features_oracle(&w, c, tail, 4096),
                    "tail={tail:?}"
                );
            }
        }
    }

    #[test]
    fn auc_of_perfect_separation_is_one() {
        let scored = vec![(0.9, true), (0.8, true), (0.2, false), (0.1, false)];
        assert!((auc(&scored) - 1.0).abs() < 1e-9);
        let reversed = vec![(0.1, true), (0.2, true), (0.8, false), (0.9, false)];
        assert!(auc(&reversed) < 1e-9);
        assert_eq!(auc(&[(0.5, true)]), 0.5);
    }

    #[test]
    fn critic_learns_separable_features() {
        // Synthetic task: feature 7 present → plausible, feature 13 → typical.
        let mut rng = StdRng::seed_from_u64(99);
        let mut examples = Vec::new();
        for i in 0..600 {
            let plaus = i % 2 == 0;
            let typ = i % 3 == 0;
            let mut feats = vec![(i * 31) % 4096 + 100];
            if plaus {
                feats.push(7);
            }
            if typ {
                feats.push(13);
            }
            feats.shuffle(&mut rng);
            examples.push(CriticExample {
                features: feats,
                plausible: Some(plaus),
                typical: Some(typ),
            });
        }
        let mut critic = Critic::new(CriticConfig {
            epochs: 16,
            ..Default::default()
        });
        let report = critic.train(&examples);
        assert!(
            report.plausible_accuracy > 0.85,
            "plausible acc {}",
            report.plausible_accuracy
        );
        assert!(
            report.typical_accuracy > 0.8,
            "typical acc {}",
            report.typical_accuracy
        );
        assert!(report.plausible_auc > 0.95, "auc {}", report.plausible_auc);
    }

    #[test]
    fn missing_labels_are_ignored() {
        let examples: Vec<CriticExample> = (0..100)
            .map(|i| CriticExample {
                features: vec![i % 50],
                plausible: None,
                typical: Some(i % 2 == 0),
            })
            .collect();
        let mut critic = Critic::new(CriticConfig {
            epochs: 3,
            ..Default::default()
        });
        let report = critic.train(&examples);
        assert_eq!(report.n_plausible, 0);
        assert_eq!(report.n_typical, 100);
    }

    #[test]
    fn score_batch_matches_single_scores() {
        let mut critic = Critic::new(CriticConfig::default());
        let examples: Vec<CriticExample> = (0..50)
            .map(|i| CriticExample {
                features: vec![i, i + 1, 7 * i % 100],
                plausible: Some(i % 2 == 0),
                typical: Some(i % 2 == 1),
            })
            .collect();
        critic.train(&examples);
        let batch: Vec<Vec<usize>> = vec![vec![1, 2, 3], vec![40, 50]];
        let b = critic.score_batch(&batch);
        for (i, feats) in batch.iter().enumerate() {
            let s = critic.score(feats);
            assert!((s.0 - b[i].0).abs() < 1e-5);
            assert!((s.1 - b[i].1).abs() < 1e-5);
        }
    }

    #[test]
    fn empty_features_scored_safely() {
        let critic = Critic::new(CriticConfig::default());
        let (p, t) = critic.score(&[]);
        assert!((0.0..=1.0).contains(&p) && (0.0..=1.0).contains(&t));
    }

    /// The tape-free scoring path must reproduce the historical tape
    /// formulation (param copy → gather → segment_mean → head forwards)
    /// bit for bit, including the empty-features zeros-input special case
    /// and repeated calls on recycled scratch buffers.
    #[test]
    fn direct_scoring_is_bitwise_identical_to_tape_formulation() {
        use cosmo_nn::Tape;
        let mut critic = Critic::new(CriticConfig {
            epochs: 2,
            ..Default::default()
        });
        let examples: Vec<CriticExample> = (0..60)
            .map(|i| CriticExample {
                features: vec![i % 37, (i * 13) % 200],
                plausible: Some(i % 2 == 0),
                typical: Some(i % 3 == 0),
            })
            .collect();
        critic.train(&examples);

        let tape_score = |feats: &[usize]| -> (f32, f32) {
            let mut tape = Tape::new();
            let table = critic.emb.table(&mut tape, &critic.store);
            let segments = vec![0usize; feats.len()];
            let pooled = if feats.is_empty() {
                tape.input(cosmo_nn::Tensor::zeros(1, critic.emb.dim()))
            } else {
                let rows = tape.gather(table, feats);
                tape.segment_mean(rows, &segments, 1)
            };
            let lp = critic
                .head_plausible
                .forward(&mut tape, &critic.store, pooled);
            let lt = critic
                .head_typical
                .forward(&mut tape, &critic.store, pooled);
            (
                sigmoid(tape.value(lp).item()),
                sigmoid(tape.value(lt).item()),
            )
        };

        let probes: &[&[usize]] = &[&[], &[7], &[1, 2, 3], &[5, 5, 5, 40], &[199, 0, 36]];
        for &feats in probes {
            let want = tape_score(feats);
            // twice: the second call runs on the recycled scratch
            for round in 0..2 {
                let got = critic.score(feats);
                assert_eq!(
                    (got.0.to_bits(), got.1.to_bits()),
                    (want.0.to_bits(), want.1.to_bits()),
                    "feats {feats:?} round {round}"
                );
            }
        }
        let batch: Vec<Vec<usize>> = probes.iter().map(|f| f.to_vec()).collect();
        for (feats, got) in probes.iter().zip(critic.score_batch(&batch)) {
            let want = tape_score(feats);
            assert_eq!(
                (got.0.to_bits(), got.1.to_bits()),
                (want.0.to_bits(), want.1.to_bits()),
                "batched feats {feats:?}"
            );
        }
    }

    /// Data-parallel training must be a pure function of the data and the
    /// shard structure: with sharding engaged (`microbatch`), `threads = 1`
    /// and `threads = 4` must produce byte-identical reports and scores.
    #[test]
    fn critic_training_is_thread_count_invariant() {
        let examples: Vec<CriticExample> = (0..200)
            .map(|i| CriticExample {
                features: vec![i % 97, (i * 31) % 4096 + 100, 7 + (i % 2) * 6],
                plausible: Some(i % 2 == 0),
                typical: (i % 5 != 0).then_some(i % 3 == 0),
            })
            .collect();
        let train_with = |threads: usize| {
            let mut critic = Critic::new(CriticConfig {
                epochs: 2,
                microbatch: 16,
                threads,
                ..Default::default()
            });
            let report = critic.train(&examples);
            let probe = critic.score(&[7, 13, 150]);
            (report, probe)
        };
        let (r1, p1) = train_with(1);
        let (r4, p4) = train_with(4);
        assert_eq!(r1, r4, "critic reports diverged across thread counts");
        assert_eq!(p1, p4, "critic scores diverged across thread counts");
    }
}
