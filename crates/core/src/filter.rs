//! Coarse-grained knowledge refinement (§3.3.1).
//!
//! Two stages, exactly as the paper describes:
//!
//! **Rule-based filtering** — extract the first sentence (nltk →
//! [`cosmo_text::segment`]), drop incomplete sentences via a perplexity
//! threshold (GPT-2 → [`cosmo_text::NgramLm`]), drop generations that echo
//! the query / product type / product title (exact or small edit distance),
//! and drop *generic* knowledge ("used for the same reason") identified by
//! combining tail frequency with the entropy of its head distribution —
//! generic tails "co-occur with many products or queries rather than
//! specific ones".
//!
//! **Similarity filtering** — embed the knowledge tail and the behaviour
//! context with the e-commerce embedder and drop tails whose cosine
//! similarity is above a threshold (Eq. 1): those are "essentially
//! paraphrases of original user behavior contexts".
//!
//! **Cost.** [`CoarseFilter::filter_with`] computes once per call: the
//! generic-tail statistics and one embedding per *distinct* behaviour
//! context string (contexts repeat across the many generations of one
//! behaviour and across behaviours sharing a product). Once per candidate:
//! the first sentence (a slice of the raw text), the parse, the
//! completeness and perplexity rules, the echo edit distances, and — for
//! candidates that reach the similarity filter — one tail embedding and a
//! cosine per context. Both per-candidate passes fan out over the pool.

use cosmo_exec::WorkerPool;
use cosmo_synth::World;
use cosmo_teacher::{parse_first_sentence, BehaviorRef, Candidate, Parsed};
use cosmo_text::distance::edit_distance_bounded;
use cosmo_text::{segment, FxHashMap, HashedEmbedder, NgramLm, Vocab};
use serde::{Deserialize, Serialize};

/// Why a candidate was dropped (or kept).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FilterDecision {
    /// Survived all filters.
    Keep,
    /// Unparseable or incomplete sentence.
    Incomplete,
    /// Perplexity above threshold.
    HighPerplexity,
    /// Echoes the query / product type / product title.
    Echo,
    /// Generic platitude (frequency × entropy rule).
    Generic,
    /// Paraphrase of the behaviour context (similarity filter).
    Paraphrase,
}

impl FilterDecision {
    /// Did the candidate survive?
    pub fn kept(self) -> bool {
        self == FilterDecision::Keep
    }
}

/// Filter thresholds.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FilterConfig {
    /// N-gram LM order.
    pub lm_order: usize,
    /// Drop sentences whose per-token perplexity exceeds this.
    pub perplexity_threshold: f64,
    /// Max edit distance for the echo rule.
    pub echo_edit_distance: usize,
    /// A tail is generic when it appears at least this often …
    pub generic_min_freq: u32,
    /// … across heads with at least this entropy (nats) …
    pub generic_min_entropy: f64,
    /// … spanning at least this many distinct product domains. Genuine
    /// intents are domain-specific; platitudes appear everywhere. The
    /// domain-spread test keeps the rule scale-free (raw frequency grows
    /// with corpus size, but legitimate popular intents stay in-domain).
    pub generic_min_domains: usize,
    /// Drop tails whose cosine similarity with the context exceeds this.
    pub similarity_threshold: f32,
    /// Embedding dimensionality.
    pub embed_dim: usize,
}

impl Default for FilterConfig {
    fn default() -> Self {
        FilterConfig {
            lm_order: 3,
            perplexity_threshold: 320.0,
            echo_edit_distance: 3,
            generic_min_freq: 12,
            generic_min_entropy: 2.3,
            generic_min_domains: 12,
            similarity_threshold: 0.82,
            embed_dim: 256,
        }
    }
}

/// A candidate with its parse and filter outcome.
#[derive(Debug, Clone)]
pub struct FilteredCandidate {
    /// The raw candidate.
    pub candidate: Candidate,
    /// Parsed tail + relation hint (`None` when unparseable).
    pub parsed: Option<Parsed>,
    /// Filter decision.
    pub decision: FilterDecision,
}

/// The fitted coarse filter (LM + embedder trained on the world corpus).
pub struct CoarseFilter {
    vocab: Vocab,
    lm: NgramLm,
    embedder: HashedEmbedder,
    cfg: FilterConfig,
}

/// One of the two independently fitted filter models.
enum Fitted {
    Lm(Vocab, NgramLm),
    Embedder(HashedEmbedder),
}

impl CoarseFilter {
    /// Fit the LM and embedder on the e-commerce corpus, one after the
    /// other on the caller thread.
    pub fn fit(corpus: &[String], cfg: FilterConfig) -> Self {
        Self::fit_with(corpus, cfg, &WorkerPool::new(1))
    }

    /// [`CoarseFilter::fit`] with the LM and the embedder fitted side by
    /// side as two pool jobs. Neither fit reads the other, so the models
    /// are the same at any thread count.
    pub fn fit_with(corpus: &[String], cfg: FilterConfig, pool: &WorkerPool) -> Self {
        let fitted = pool.map(&[(); 2], 1, |job, _| match job {
            0 => {
                let (vocab, lm) = cosmo_text::ngram::train_lm(corpus, cfg.lm_order);
                Fitted::Lm(vocab, lm)
            }
            _ => Fitted::Embedder(HashedEmbedder::fit(corpus, cfg.embed_dim)),
        });
        let mut fitted = fitted.into_iter();
        match (fitted.next(), fitted.next()) {
            (Some(Fitted::Lm(vocab, lm)), Some(Fitted::Embedder(embedder))) => CoarseFilter {
                vocab,
                lm,
                embedder,
                cfg,
            },
            _ => unreachable!("pool.map returns the two jobs in index order"),
        }
    }

    /// Access the fitted embedder (reused by serving/feature extraction).
    pub fn embedder(&self) -> &HashedEmbedder {
        &self.embedder
    }

    /// Perplexity of a raw sentence under the corpus LM.
    pub fn perplexity(&self, text: &str) -> f64 {
        self.lm.perplexity_str(text, &self.vocab)
    }

    /// Run both filter stages over a candidate batch. Generic detection is
    /// corpus-level (frequency + head entropy), hence the batch interface.
    pub fn filter(&self, world: &World, candidates: Vec<Candidate>) -> Vec<FilteredCandidate> {
        self.filter_with(world, candidates, &WorkerPool::new(1))
    }

    /// [`CoarseFilter::filter`], fanning the per-candidate work out over a
    /// worker pool. Parsing (pass 1) and the decisions (pass 2) are
    /// independent per candidate and merge index-ordered; the corpus-level
    /// generic-tail statistics and the gathering of distinct behaviour
    /// contexts stay sequential. The output is identical at any thread
    /// count.
    pub fn filter_with(
        &self,
        world: &World,
        candidates: Vec<Candidate>,
        pool: &WorkerPool,
    ) -> Vec<FilteredCandidate> {
        let chunk = pool.chunk_for(candidates.len());
        // Pass 1: segment and parse everything, then build tail → head-count
        // stats.
        let raws: Vec<&str> = candidates.iter().map(|c| c.raw.as_str()).collect();
        let (sentences, parses): (Vec<Option<&str>>, Vec<Option<Parsed>>) = pool
            .map(&raws, chunk, |_, &raw| {
                let sentence = segment::first_sentence_str(raw);
                (sentence, sentence.and_then(parse_first_sentence))
            })
            .into_iter()
            .unzip();
        let mut tail_heads: FxHashMap<&str, FxHashMap<u64, u64>> = FxHashMap::default();
        let mut tail_domains: FxHashMap<&str, std::collections::HashSet<u8>> = FxHashMap::default();
        for (c, p) in candidates.iter().zip(parses.iter()) {
            if let Some(p) = p {
                if !p.tail.is_empty() {
                    let head_key = match c.behavior {
                        BehaviorRef::SearchBuy(q, _) => q.0 as u64,
                        BehaviorRef::CoBuy(p1, _) => (1u64 << 32) | p1.0 as u64,
                    };
                    *tail_heads
                        .entry(p.tail.as_str())
                        .or_default()
                        .entry(head_key)
                        .or_insert(0) += 1;
                    tail_domains
                        .entry(p.tail.as_str())
                        .or_default()
                        .insert(c.domain.0);
                }
            }
        }
        let generic_tails: std::collections::HashSet<&str> = tail_heads
            .iter()
            .filter(|(tail, heads)| {
                let freq: u64 = heads.values().sum();
                if freq < self.cfg.generic_min_freq as u64 {
                    return false;
                }
                let spread = tail_domains.get(*tail).map_or(0, |d| d.len());
                if spread < self.cfg.generic_min_domains {
                    return false;
                }
                let counts: Vec<u64> = heads.values().copied().collect();
                cosmo_text::entropy(&counts) >= self.cfg.generic_min_entropy
            })
            .map(|(t, _)| *t)
            .collect();

        // The behaviour contexts repeat across candidates (many
        // generations per behaviour, popular products in many behaviours):
        // embed each distinct string once, gathered in first-seen order.
        let mut context_index: FxHashMap<&str, usize> = FxHashMap::default();
        let mut distinct: Vec<&str> = Vec::new();
        for c in &candidates {
            for ctx in contexts(world, c) {
                context_index.entry(ctx).or_insert_with(|| {
                    distinct.push(ctx);
                    distinct.len() - 1
                });
            }
        }
        let embedded = pool.map(&distinct, pool.chunk_for(distinct.len()), |_, ctx| {
            self.embedder.embed(ctx)
        });
        let context_vector = |ctx: &str| embedded[context_index[ctx]].as_slice();

        // Pass 2: per-candidate decisions, fanned out over the pool.
        let decisions: Vec<FilterDecision> = pool.map(&candidates, chunk, |i, c| {
            self.decide(
                world,
                c,
                sentences[i],
                parses[i].as_ref(),
                &generic_tails,
                &context_vector,
            )
        });
        candidates
            .into_iter()
            .zip(parses)
            .zip(decisions)
            .map(|((candidate, parsed), decision)| FilteredCandidate {
                candidate,
                parsed,
                decision,
            })
            .collect()
    }

    /// One candidate's decision. `sentence` is its first sentence and
    /// `context_vector` maps each behaviour context to its embedding.
    fn decide<'a>(
        &self,
        world: &World,
        c: &Candidate,
        sentence: Option<&str>,
        parsed: Option<&Parsed>,
        generic_tails: &std::collections::HashSet<&str>,
        context_vector: &impl Fn(&str) -> &'a [f32],
    ) -> FilterDecision {
        // rule 1: completeness
        let (Some(parsed), Some(sentence)) = (parsed, sentence) else {
            return FilterDecision::Incomplete;
        };
        if parsed.tail.is_empty() || !segment::looks_complete(sentence.trim_end_matches('.')) {
            return FilterDecision::Incomplete;
        }
        // rule 2: perplexity
        if self.perplexity(sentence) > self.cfg.perplexity_threshold {
            return FilterDecision::HighPerplexity;
        }
        // rule 3: echo of query / product type / title
        let contexts = contexts(world, c);
        for &ctx in &contexts {
            let close = parsed.tail == ctx
                || edit_distance_bounded(&parsed.tail, ctx, self.cfg.echo_edit_distance).is_some();
            if close {
                return FilterDecision::Echo;
            }
        }
        // rule 4: generic (frequency × entropy)
        if generic_tails.contains(parsed.tail.as_str()) {
            return FilterDecision::Generic;
        }
        // similarity filter (Eq. 1): the tail is embedded once and compared
        // with the stored context embeddings. `embed_into` is deterministic
        // and `cosine` pure, so these are the cosines `similarity` returns,
        // bitwise.
        let tail = self.embedder.embed(&parsed.tail);
        if contexts.into_iter().any(|ctx| {
            cosmo_text::cosine(&tail, context_vector(ctx)) > self.cfg.similarity_threshold
        }) {
            return FilterDecision::Paraphrase;
        }
        FilterDecision::Keep
    }
}

/// Behaviour context strings, borrowed from the world: query text and
/// product title and type name for a search-buy; both titles and both type
/// names for a co-buy.
fn contexts<'w>(world: &'w World, c: &Candidate) -> Vec<&'w str> {
    match c.behavior {
        BehaviorRef::SearchBuy(q, p) => vec![
            &world.query(q).text,
            &world.product(p).title,
            &world.ptype_of(p).name,
        ],
        BehaviorRef::CoBuy(p1, p2) => vec![
            &world.product(p1).title,
            &world.product(p2).title,
            &world.ptype_of(p1).name,
            &world.ptype_of(p2).name,
        ],
    }
}

/// Filter-quality report against the hidden provenance labels
/// (**evaluation only** — the filter itself never sees provenance).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FilterReport {
    /// Candidates in.
    pub total: usize,
    /// Candidates kept.
    pub kept: usize,
    /// Of the dropped, how many were genuinely junk
    /// (generic/paraphrase/incomplete provenance).
    pub true_drops: usize,
    /// Of the dropped, how many were typical knowledge (collateral damage).
    pub typical_dropped: usize,
    /// Of the kept, how many are junk that leaked through.
    pub junk_kept: usize,
    /// Drop counts per decision: (incomplete, perplexity, echo, generic,
    /// paraphrase).
    pub drops_by_rule: [usize; 5],
}

impl FilterReport {
    /// Evaluate filter decisions against provenance.
    pub fn evaluate(filtered: &[FilteredCandidate]) -> Self {
        use cosmo_teacher::Provenance as P;
        let mut r = FilterReport {
            total: filtered.len(),
            ..Default::default()
        };
        for f in filtered {
            match f.decision {
                FilterDecision::Incomplete => r.drops_by_rule[0] += 1,
                FilterDecision::HighPerplexity => r.drops_by_rule[1] += 1,
                FilterDecision::Echo => r.drops_by_rule[2] += 1,
                FilterDecision::Generic => r.drops_by_rule[3] += 1,
                FilterDecision::Paraphrase => r.drops_by_rule[4] += 1,
                FilterDecision::Keep => {}
            }
            let junk = matches!(
                f.candidate.provenance,
                P::Generic | P::Paraphrase | P::Incomplete
            );
            if f.decision.kept() {
                r.kept += 1;
                if junk {
                    r.junk_kept += 1;
                }
            } else {
                if junk {
                    r.true_drops += 1;
                }
                if f.candidate.provenance == P::Typical {
                    r.typical_dropped += 1;
                }
            }
        }
        r
    }

    /// Precision of drops: dropped-junk / dropped.
    pub fn drop_precision(&self) -> f64 {
        let dropped = self.total - self.kept;
        if dropped == 0 {
            1.0
        } else {
            self.true_drops as f64 / dropped as f64
        }
    }

    /// Recall of junk removal: dropped-junk / total-junk.
    pub fn junk_recall(&self) -> f64 {
        let junk = self.true_drops + self.junk_kept;
        if junk == 0 {
            1.0
        } else {
            self.true_drops as f64 / junk as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cosmo_synth::{BehaviorConfig, BehaviorLog, WorldConfig};
    use cosmo_teacher::{Provenance, Teacher, TeacherConfig};

    fn batch_inputs() -> (World, Vec<Candidate>) {
        let w = World::generate(WorldConfig::tiny(41));
        let log = BehaviorLog::generate(&w, &BehaviorConfig::tiny(42));
        let mut teacher = Teacher::new(&w, TeacherConfig::default());
        let mut cands = Vec::new();
        for sb in log.search_buys.iter().take(900) {
            cands.push(teacher.generate_search_buy(sb.query, sb.product));
        }
        for cb in log.cobuys.iter().take(900) {
            cands.push(teacher.generate_cobuy(cb.p1, cb.p2));
        }
        (w, cands)
    }

    fn filtered_batch() -> Vec<FilteredCandidate> {
        let (w, cands) = batch_inputs();
        let filter = CoarseFilter::fit(&cosmo_synth::corpus(&w), FilterConfig::default());
        filter.filter(&w, cands)
    }

    /// `filter_with` on the fixed batch: the report and a digest of every
    /// decision and parse, as the per-candidate implementation (similarity
    /// re-embedding every context, owned token vectors) produced them.
    #[test]
    fn filter_golden() {
        use std::hash::Hasher;
        let batch = filtered_batch();
        let r = FilterReport::evaluate(&batch);
        assert_eq!((r.total, r.kept), (1800, 1028));
        assert_eq!(r.drops_by_rule, [144, 255, 287, 84, 2]);
        assert_eq!((r.true_drops, r.typical_dropped, r.junk_kept), (533, 43, 0));
        let mut h = cosmo_text::FxHasher::default();
        for f in &batch {
            h.write(format!("{:?}|{:?}", f.decision, f.parsed).as_bytes());
        }
        assert_eq!(h.finish(), 0xe45d88a823ce9767);
    }

    #[test]
    fn fit_with_thread_count_does_not_change_decisions() {
        let (w, cands) = batch_inputs();
        let corpus = cosmo_synth::corpus(&w);
        let run = |threads: usize| {
            let pool = WorkerPool::new(threads);
            let filter = CoarseFilter::fit_with(&corpus, FilterConfig::default(), &pool);
            filter
                .filter_with(&w, cands.clone(), &pool)
                .into_iter()
                .map(|f| (f.decision, f.parsed))
                .collect::<Vec<_>>()
        };
        let inline = run(1);
        assert!(inline.iter().any(|(d, _)| d.kept()));
        assert!(inline.iter().any(|(d, _)| *d == FilterDecision::Paraphrase));
        for threads in [2, 4] {
            assert_eq!(run(threads), inline, "threads={threads}");
        }
    }

    #[test]
    fn incomplete_candidates_are_dropped() {
        let batch = filtered_batch();
        for f in &batch {
            if f.candidate.provenance == Provenance::Incomplete {
                assert!(
                    !f.decision.kept(),
                    "incomplete candidate kept: {:?}",
                    f.candidate.raw
                );
            }
        }
    }

    #[test]
    fn generic_candidates_are_mostly_dropped() {
        let batch = filtered_batch();
        let (mut dropped, mut total) = (0, 0);
        for f in &batch {
            if f.candidate.provenance == Provenance::Generic {
                total += 1;
                if !f.decision.kept() {
                    dropped += 1;
                }
            }
        }
        assert!(total > 30, "need generic candidates to test against");
        let frac = dropped as f64 / total as f64;
        assert!(frac > 0.7, "generic drop rate {frac} too low");
    }

    #[test]
    fn paraphrases_are_mostly_dropped() {
        let batch = filtered_batch();
        let (mut dropped, mut total) = (0, 0);
        for f in &batch {
            if f.candidate.provenance == Provenance::Paraphrase {
                total += 1;
                if !f.decision.kept() {
                    dropped += 1;
                }
            }
        }
        assert!(total > 20);
        let frac = dropped as f64 / total as f64;
        assert!(frac > 0.6, "paraphrase drop rate {frac} too low");
    }

    #[test]
    fn typical_knowledge_mostly_survives() {
        let batch = filtered_batch();
        let (mut kept, mut total) = (0, 0);
        for f in &batch {
            if f.candidate.provenance == Provenance::Typical {
                total += 1;
                if f.decision.kept() {
                    kept += 1;
                }
            }
        }
        assert!(total > 30);
        let frac = kept as f64 / total as f64;
        assert!(frac > 0.75, "typical survival rate {frac} too low");
    }

    #[test]
    fn report_metrics_consistent() {
        let batch = filtered_batch();
        let r = FilterReport::evaluate(&batch);
        assert_eq!(r.total, batch.len());
        assert!(r.kept <= r.total);
        assert!(
            r.drop_precision() > 0.5,
            "drop precision {}",
            r.drop_precision()
        );
        assert!(r.junk_recall() > 0.6, "junk recall {}", r.junk_recall());
    }
}
