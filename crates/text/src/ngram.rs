//! Interpolated n-gram language model with Witten–Bell smoothing.
//!
//! Stands in for the GPT-2 perplexity scorer of §3.3.1. The model is trained
//! on the synthetic corpus (product titles, queries, well-formed knowledge
//! sentences) and assigns high perplexity to truncated or garbled
//! generations, which the rule-based filter then drops with a tuned
//! threshold — the same division of labour as in the paper.
//!
//! Witten–Bell interpolation: for each order `k`,
//! `p_k(w | h) = λ(h)·p_ml(w | h) + (1 − λ(h))·p_{k−1}(w | h')`
//! with `λ(h) = c(h) / (c(h) + T(h))` where `T(h)` is the number of distinct
//! continuations of history `h`. The base case is a uniform-smoothed unigram.

use crate::hash::FxHashMap;
use crate::vocab::{Vocab, BOS, EOS};

/// Key for an n-gram history: the history token ids packed into a `u64`
/// hash. We additionally store the raw length to namespace different orders.
#[inline]
fn history_key(history: &[u32]) -> u64 {
    use std::hash::Hasher;
    let mut h = crate::hash::FxHasher::default();
    h.write_usize(history.len());
    for &t in history {
        h.write_u32(t);
    }
    h.finish()
}

#[derive(Debug, Default, Clone)]
struct HistoryStats {
    /// total count of tokens following this history
    total: u64,
    /// distinct continuation types
    distinct: u32,
    /// continuation counts
    conts: FxHashMap<u32, u64>,
}

/// Interpolated Witten–Bell n-gram language model.
#[derive(Debug, Clone)]
pub struct NgramLm {
    order: usize,
    /// per-order history tables; index 0 = unigram (empty history).
    tables: Vec<FxHashMap<u64, HistoryStats>>,
    vocab_size: usize,
    total_tokens: u64,
}

impl NgramLm {
    /// Create an untrained model of the given maximum order (≥ 1).
    pub fn new(order: usize) -> Self {
        assert!(order >= 1, "n-gram order must be >= 1");
        NgramLm {
            order,
            tables: vec![FxHashMap::default(); order],
            vocab_size: 0,
            total_tokens: 0,
        }
    }

    /// Maximum order of the model.
    pub fn order(&self) -> usize {
        self.order
    }

    /// Observe one sentence (already encoded with BOS/EOS by
    /// [`Vocab::encode_sentence`]).
    pub fn observe(&mut self, ids: &[u32]) {
        for i in 0..ids.len() {
            if ids[i] == BOS {
                continue; // BOS is only ever history, never predicted
            }
            self.total_tokens += 1;
            for k in 0..self.order {
                if i < k {
                    break;
                }
                let history = &ids[i - k..i];
                let key = history_key(history);
                let stats = self.tables[k].entry(key).or_default();
                let c = stats.conts.entry(ids[i]).or_insert(0);
                if *c == 0 {
                    stats.distinct += 1;
                }
                *c += 1;
                stats.total += 1;
            }
        }
    }

    /// Train from an iterator of token-id sentences and record the vocab size
    /// used for the uniform floor.
    pub fn train<'a>(&mut self, sentences: impl Iterator<Item = &'a [u32]>, vocab: &Vocab) {
        for s in sentences {
            self.observe(s);
        }
        self.vocab_size = vocab.len();
    }

    /// Set the vocabulary size used by the uniform smoothing floor.
    pub fn set_vocab_size(&mut self, v: usize) {
        self.vocab_size = v.max(1);
    }

    /// Interpolated probability of `word` given up to `order-1` tokens of
    /// history. Always strictly positive once trained on any data.
    pub fn prob(&self, history: &[u32], word: u32) -> f64 {
        let v = self.vocab_size.max(2) as f64;
        // base: unigram interpolated with uniform
        let mut p = 1.0 / v;
        for k in 0..self.order {
            if history.len() < k {
                break;
            }
            let h = &history[history.len() - k..];
            let key = history_key(h);
            let Some(stats) = self.tables[k].get(&key) else {
                // unseen history: lambda = 0, keep lower-order estimate
                continue;
            };
            let lambda = stats.total as f64 / (stats.total as f64 + stats.distinct as f64);
            let ml = stats.conts.get(&word).copied().unwrap_or(0) as f64 / stats.total as f64;
            p = lambda * ml + (1.0 - lambda) * p;
        }
        p
    }

    /// Log₂ probability of an encoded sentence (predicting every non-BOS
    /// token, including EOS).
    pub fn log2_prob(&self, ids: &[u32]) -> f64 {
        let mut lp = 0.0;
        for i in 0..ids.len() {
            if ids[i] == BOS {
                continue;
            }
            let start = i.saturating_sub(self.order - 1);
            let p = self.prob(&ids[start..i], ids[i]);
            lp += p.log2();
        }
        lp
    }

    /// Per-token perplexity of an encoded sentence: `2^(−log2P / n)`.
    /// Returns `f64::INFINITY` for empty input.
    pub fn perplexity(&self, ids: &[u32]) -> f64 {
        let n = ids.iter().filter(|&&t| t != BOS).count();
        if n == 0 {
            return f64::INFINITY;
        }
        let lp = self.log2_prob(ids);
        2f64.powf(-lp / n as f64)
    }

    /// Convenience: tokenize, encode with `vocab`, and return perplexity.
    /// Tokens are looked up as spans of one lowercase buffer, so no
    /// per-token `String` is built.
    pub fn perplexity_str(&self, text: &str, vocab: &Vocab) -> f64 {
        let mut lower = String::new();
        let mut spans = Vec::new();
        crate::tokenize::tokenize_spans(text, &mut lower, &mut spans);
        let mut ids = Vec::with_capacity(spans.len() + 2);
        ids.push(BOS);
        ids.extend(
            spans
                .iter()
                .map(|&(s, e)| vocab.get(&lower[s as usize..e as usize])),
        );
        ids.push(EOS);
        self.perplexity(&ids)
    }

    /// Number of distinct histories stored at each order (diagnostics).
    pub fn table_sizes(&self) -> Vec<usize> {
        self.tables.iter().map(|t| t.len()).collect()
    }
}

/// Train a vocabulary and n-gram LM jointly from raw sentences, in one
/// pass: vocabulary ids are append-only, so the id a token gets when it is
/// added is the id encoding with the finished vocabulary would give it.
pub fn train_lm(sentences: &[String], order: usize) -> (Vocab, NgramLm) {
    let mut vocab = Vocab::new();
    let mut lm = NgramLm::new(order);
    let (mut lower, mut spans, mut ids) = (String::new(), Vec::new(), Vec::new());
    for s in sentences {
        lower.clear();
        spans.clear();
        crate::tokenize::tokenize_spans(s, &mut lower, &mut spans);
        ids.clear();
        ids.push(BOS);
        ids.extend(
            spans
                .iter()
                .map(|&(s, e)| vocab.add(&lower[s as usize..e as usize])),
        );
        ids.push(EOS);
        lm.observe(&ids);
    }
    lm.set_vocab_size(vocab.len());
    (vocab, lm)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus() -> Vec<String> {
        vec![
            "they are used for camping in the mountains".to_string(),
            "they are used for hiking in the woods".to_string(),
            "it is capable of holding water".to_string(),
            "it is capable of keeping food warm".to_string(),
            "customers bought them because they are used for camping".to_string(),
            "used for walking the dog in the park".to_string(),
            "used for walking the dog every morning".to_string(),
        ]
    }

    #[test]
    fn probabilities_positive_and_le_one() {
        let (vocab, lm) = train_lm(&corpus(), 3);
        for (id, _, _) in vocab.iter() {
            let p = lm.prob(&[], id);
            assert!(p > 0.0 && p <= 1.0, "p={p}");
        }
    }

    #[test]
    fn unigram_distribution_sums_to_one() {
        let (vocab, lm) = train_lm(&corpus(), 3);
        let mut sum = 0.0;
        for id in 0..vocab.len() as u32 {
            sum += lm.prob(&[], id);
        }
        // BOS never predicted but still gets uniform floor mass; allow slack.
        assert!((sum - 1.0).abs() < 0.1, "sum={sum}");
    }

    #[test]
    fn seen_sentence_beats_garbled() {
        let (vocab, lm) = train_lm(&corpus(), 3);
        let fluent = lm.perplexity_str("they are used for camping", &vocab);
        let garbled = lm.perplexity_str("camping the of used for they", &vocab);
        assert!(
            fluent < garbled,
            "fluent={fluent} should be lower than garbled={garbled}"
        );
    }

    #[test]
    fn incomplete_sentence_has_high_eos_surprise() {
        let (vocab, lm) = train_lm(&corpus(), 3);
        let complete = lm.perplexity_str("used for walking the dog", &vocab);
        let truncated = lm.perplexity_str("used for walking the", &vocab);
        assert!(
            complete < truncated,
            "complete={complete} truncated={truncated}"
        );
    }

    #[test]
    fn empty_input_is_infinite() {
        let (_vocab, lm) = train_lm(&corpus(), 3);
        assert!(lm.perplexity(&[BOS]).is_infinite());
    }

    #[test]
    fn higher_order_fits_training_data_better() {
        let sents = corpus();
        let (vocab1, lm1) = train_lm(&sents, 1);
        let (vocab3, lm3) = train_lm(&sents, 3);
        let s = "they are used for camping in the mountains";
        assert!(lm3.perplexity_str(s, &vocab3) < lm1.perplexity_str(s, &vocab1));
    }

    /// The original two-pass trainer: intern every token of every
    /// sentence, then encode each sentence with the finished vocabulary.
    fn train_lm_oracle(sentences: &[String], order: usize) -> (Vocab, NgramLm) {
        let mut vocab = Vocab::new();
        let mut encoded = Vec::with_capacity(sentences.len());
        for s in sentences {
            let toks = crate::tokenize::tokenize(s);
            for t in &toks {
                vocab.add(t);
            }
            encoded.push(toks);
        }
        let mut lm = NgramLm::new(order);
        for toks in &encoded {
            lm.observe(&vocab.encode_sentence(toks));
        }
        lm.set_vocab_size(vocab.len());
        (vocab, lm)
    }

    #[test]
    fn one_pass_training_and_span_scoring_match_the_token_vector_path() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        const WORDS: &[&str] = &[
            "they", "are", "used", "for", "camping", "hiking", "the", "dog", "Über", "it's",
            "4-person", "of", ",", ".", "capable", "zzz", "\u{130}x",
        ];
        let mut rng = StdRng::seed_from_u64(0x1A);
        let sentence = |rng: &mut StdRng| {
            let n = rng.gen_range(0..10);
            (0..n)
                .map(|_| WORDS[rng.gen_range(0..WORDS.len())])
                .collect::<Vec<_>>()
                .join(" ")
        };
        let mut sentences: Vec<String> = (0..300).map(|_| sentence(&mut rng)).collect();
        sentences.extend(corpus());
        let (vocab, lm) = train_lm(&sentences, 3);
        let (oracle_vocab, oracle_lm) = train_lm_oracle(&sentences, 3);
        assert_eq!(vocab.len(), oracle_vocab.len());
        assert_eq!(lm.table_sizes(), oracle_lm.table_sizes());
        for _ in 0..2_000 {
            let text = sentence(&mut rng);
            let old = oracle_lm
                .perplexity(&oracle_vocab.encode_sentence(&crate::tokenize::tokenize(&text)));
            let new = lm.perplexity_str(&text, &vocab);
            assert_eq!(new.to_bits(), old.to_bits(), "text={text:?}");
            let encoded = lm.perplexity(&vocab.encode_sentence(&crate::tokenize::tokenize(&text)));
            assert_eq!(new.to_bits(), encoded.to_bits(), "text={text:?}");
        }
    }

    #[test]
    fn eos_is_modelled() {
        let (vocab, lm) = train_lm(&corpus(), 2);
        // "dog" is followed by "in"/"every" in training; EOS after "dog"
        // should still have nonzero probability via interpolation.
        let dog = vocab.get("dog");
        assert!(lm.prob(&[dog], EOS) > 0.0);
    }
}
