//! TF-IDF statistics over a corpus of documents.
//!
//! Backs the similarity filter's embedder ([`crate::embed`]) and the
//! feature extraction of the critic classifiers in `cosmo-core`: rare,
//! content-bearing tokens should dominate similarity, while stop-ish tokens
//! ("used", "for", "the") — ubiquitous in knowledge tails — should not.

use crate::hash::FxHashMap;

/// Corpus-level document-frequency statistics with smoothed IDF.
#[derive(Debug, Clone, Default)]
pub struct TfIdf {
    doc_freq: FxHashMap<String, u32>,
    num_docs: u32,
}

impl TfIdf {
    /// Create empty statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Observe one document given as a token slice; each distinct token's
    /// document frequency is incremented once.
    pub fn observe_doc(&mut self, tokens: &[String]) {
        self.observe_tokens(tokens.len(), |i| &tokens[i]);
    }

    /// Observe one document of `n` tokens, `token(i)` being the `i`-th. A
    /// token's key is allocated only the first time the corpus shows it.
    fn observe_tokens<'t>(&mut self, n: usize, token: impl Fn(usize) -> &'t str) {
        self.num_docs += 1;
        for i in 0..n {
            let t = token(i);
            if (0..i).any(|j| token(j) == t) {
                continue; // counted once per document
            }
            match self.doc_freq.get_mut(t) {
                Some(df) => *df += 1,
                None => {
                    self.doc_freq.insert(t.to_string(), 1);
                }
            }
        }
    }

    /// Train from raw strings, tokenising each through one reused span
    /// buffer.
    pub fn fit(corpus: &[String]) -> Self {
        let mut s = Self::new();
        let (mut lower, mut spans) = (String::new(), Vec::new());
        for doc in corpus {
            lower.clear();
            spans.clear();
            crate::tokenize::tokenize_spans(doc, &mut lower, &mut spans);
            let (lower, spans) = (&lower, &spans);
            s.observe_tokens(spans.len(), |i| {
                let (a, b) = spans[i];
                &lower[a as usize..b as usize]
            });
        }
        s
    }

    /// Number of observed documents.
    pub fn num_docs(&self) -> u32 {
        self.num_docs
    }

    /// Smoothed inverse document frequency:
    /// `ln((1 + N) / (1 + df)) + 1`, always positive.
    pub fn idf(&self, token: &str) -> f32 {
        let df = self.doc_freq.get(token).copied().unwrap_or(0);
        (((1 + self.num_docs) as f32 / (1 + df) as f32).ln()) + 1.0
    }

    /// TF-IDF weights of a document's tokens (raw term frequency × IDF),
    /// returned as `(token, weight)` pairs with duplicates merged.
    pub fn weigh<'a>(&self, tokens: &'a [String]) -> Vec<(&'a str, f32)> {
        let mut tf: FxHashMap<&str, f32> = FxHashMap::default();
        for t in tokens {
            *tf.entry(t.as_str()).or_insert(0.0) += 1.0;
        }
        let mut out: Vec<(&str, f32)> = tf.into_iter().map(|(t, f)| (t, f * self.idf(t))).collect();
        out.sort_by(|a, b| a.0.cmp(b.0));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rare_tokens_have_higher_idf() {
        let corpus: Vec<String> = vec![
            "used for camping".into(),
            "used for hiking".into(),
            "used for swimming".into(),
            "capable of snorkeling".into(),
        ];
        let stats = TfIdf::fit(&corpus);
        assert!(stats.idf("snorkeling") > stats.idf("used"));
        assert!(stats.idf("for") < stats.idf("camping"));
    }

    #[test]
    fn unseen_token_gets_max_idf() {
        let stats = TfIdf::fit(&["a b c".into(), "a b".into()]);
        assert!(stats.idf("zzz") >= stats.idf("c"));
        assert!(stats.idf("zzz") > stats.idf("a"));
    }

    #[test]
    fn idf_always_positive() {
        let docs = vec!["common common".to_string(); 50];
        let stats = TfIdf::fit(&docs);
        assert!(stats.idf("common") > 0.0);
    }

    #[test]
    fn weigh_merges_duplicates() {
        let stats = TfIdf::fit(&["x y".into(), "x z".into()]);
        let toks = crate::tokenize::tokenize("x x y");
        let w = stats.weigh(&toks);
        assert_eq!(w.len(), 2);
        let x = w.iter().find(|(t, _)| *t == "x").unwrap().1;
        let y = w.iter().find(|(t, _)| *t == "y").unwrap().1;
        assert!(x > 0.0 && y > 0.0);
        // x appears twice in the doc; tf doubles its weight relative to its idf
        assert!(x / stats.idf("x") > y / stats.idf("y"));
    }

    #[test]
    fn span_fit_matches_the_token_vector_formulation() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        const WORDS: &[&str] = &["used", "for", "camping", "Über", "x", "it's", "-", "a-b"];
        let mut rng = StdRng::seed_from_u64(0x1DF);
        let corpus: Vec<String> = (0..500)
            .map(|_| {
                let n = rng.gen_range(0..8);
                (0..n)
                    .map(|_| WORDS[rng.gen_range(0..WORDS.len())])
                    .collect::<Vec<_>>()
                    .join(" ")
            })
            .collect();
        let fitted = TfIdf::fit(&corpus);
        // the original formulation: one owned token vector per document,
        // deduplicated with a seen-list, every token key cloned
        let mut oracle = TfIdf::new();
        for doc in &corpus {
            oracle.num_docs += 1;
            let toks = crate::tokenize::tokenize(doc);
            let mut seen: Vec<&str> = Vec::new();
            for t in &toks {
                if !seen.contains(&t.as_str()) {
                    seen.push(t);
                    *oracle.doc_freq.entry(t.clone()).or_insert(0) += 1;
                }
            }
        }
        assert_eq!(fitted.num_docs(), oracle.num_docs());
        assert_eq!(fitted.doc_freq, oracle.doc_freq);
        for doc in &corpus {
            for t in crate::tokenize::tokenize(doc) {
                assert_eq!(fitted.idf(&t).to_bits(), oracle.idf(&t).to_bits(), "{t}");
            }
        }
        let mut via_observe = TfIdf::new();
        for doc in &corpus {
            via_observe.observe_doc(&crate::tokenize::tokenize(doc));
        }
        assert_eq!(via_observe.doc_freq, oracle.doc_freq);
    }

    #[test]
    fn empty_corpus_is_safe() {
        let stats = TfIdf::new();
        assert_eq!(stats.num_docs(), 0);
        assert!(stats.idf("anything") > 0.0);
    }
}
