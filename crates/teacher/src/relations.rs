//! Data-driven relation discovery (§3.1, Table 2).
//!
//! The paper cannot align millions of generations to ConceptNet relations,
//! so it mines frequent predicate patterns from raw generations — "the most
//! common pattern is 'the product is capable of being used \[Prep\]'" — and
//! manually canonicalises them into the 15 relations of Table 2. This
//! module implements that mining: extract the predicate span of each raw
//! generation (auxiliary + participle + preposition), count pattern
//! frequencies, and map each frequent pattern to its canonical relation
//! and tail type.

use crate::generate::Candidate;
use cosmo_kg::{Relation, TailType};
use cosmo_text::{segment, tokenize, tokenize_spans, FxHashMap};

/// A mined predicate pattern with its frequency and canonical relation.
#[derive(Debug, Clone, PartialEq)]
pub struct MinedPattern {
    /// The surface pattern ("used for", "capable of", …).
    pub pattern: String,
    /// Occurrences across the generation corpus.
    pub count: u64,
    /// Canonicalised relation.
    pub relation: Relation,
    /// Tail semantic type.
    pub tail_type: TailType,
}

/// Known predicate surface patterns in priority order (longest match wins).
const PATTERNS: &[(&str, Relation)] = &[
    ("capable of", Relation::CapableOf),
    ("interested in", Relation::XInterestedIn),
    ("wanting to", Relation::XWant),
    ("a kind of", Relation::IsA),
    ("bought by", Relation::XIsA),
    ("used with", Relation::UsedWith),
    ("used by", Relation::UsedBy),
    ("used as", Relation::UsedAs),
    ("used on", Relation::UsedOn),
    ("used in", Relation::UsedInLoc),
    ("used to", Relation::UsedTo),
    ("used for", Relation::UsedForFunc),
    ("is a", Relation::IsA),
];

/// A parsed knowledge candidate: the tail text with its relation hint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Parsed {
    /// Canonicalised tail phrase (may be empty for truncated generations).
    pub tail: String,
    /// Relation implied by the detected predicate pattern, if any.
    pub relation_hint: Option<Relation>,
}

/// Parse a raw generation into `(tail, relation hint)`: first sentence,
/// list marker stripped, predicate pattern located and removed, remainder
/// canonicalised. This is the pipeline's structured view of a generation
/// (§3.1: "generations with different prepositions represent different
/// tail types, which can be further canonicalized").
pub fn parse_candidate(raw: &str) -> Option<Parsed> {
    parse_first_sentence(segment::first_sentence_str(raw)?)
}

/// [`parse_candidate`] for a generation whose first sentence
/// ([`segment::first_sentence_str`]) is already extracted. The sentence is
/// tokenised once and its tokens joined into one string.
pub fn parse_first_sentence(first: &str) -> Option<Parsed> {
    let sentence = crate::prompts::trim_sentence(first)?;
    let (mut lower, mut spans) = (String::new(), Vec::new());
    tokenize_spans(sentence, &mut lower, &mut spans);
    let mut joined = String::with_capacity(lower.len() + spans.len());
    for &(s, e) in &spans {
        if !joined.is_empty() {
            joined.push(' ');
        }
        joined.push_str(&lower[s as usize..e as usize]);
    }
    for (p, r) in PATTERNS {
        if let Some(pos) = joined.find(p) {
            let tail = joined[pos + p.len()..].trim();
            return Some(Parsed {
                tail: cosmo_text::canonicalize_tail(tail),
                relation_hint: Some(*r),
            });
        }
    }
    Some(Parsed {
        tail: cosmo_text::canonicalize_tail(&joined),
        relation_hint: None,
    })
}

/// Extract the predicate pattern from a raw generation (lowercased bigram/
/// trigram around "used"/"capable"/…). Returns `None` when no known
/// predicate shape appears.
pub fn extract_pattern(raw: &str) -> Option<&'static str> {
    let toks = tokenize(raw);
    let joined = toks.join(" ");
    PATTERNS
        .iter()
        .find(|(p, _)| joined.contains(p))
        .map(|(p, _)| *p)
}

/// Canonical relation for a pattern.
pub fn canonical_relation(pattern: &str) -> Option<Relation> {
    PATTERNS
        .iter()
        .find(|(p, _)| *p == pattern)
        .map(|(_, r)| *r)
}

/// Mine the relation table from a generation corpus: frequency-count
/// predicate patterns and return them sorted by count (Table 2's rows
/// emerge as the frequent patterns, seeded from the four ConceptNet
/// relations `usedFor, capableOf, isA, cause`).
pub fn mine_relations(candidates: &[Candidate]) -> Vec<MinedPattern> {
    let mut counts: FxHashMap<&'static str, u64> = FxHashMap::default();
    for c in candidates {
        if let Some(p) = extract_pattern(&c.raw) {
            *counts.entry(p).or_insert(0) += 1;
        }
    }
    let mut out: Vec<MinedPattern> = counts
        .into_iter()
        .map(|(pattern, count)| {
            let relation = canonical_relation(pattern).expect("pattern table is closed");
            MinedPattern {
                pattern: pattern.to_string(),
                count,
                relation,
                tail_type: relation.tail_type(),
            }
        })
        .collect();
    out.sort_by(|a, b| b.count.cmp(&a.count).then(a.pattern.cmp(&b.pattern)));
    out
}

/// Render the mined Table 2 (relation, tail type, example).
pub fn render_table2(patterns: &[MinedPattern]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<16} {:<24} {:<18} {:>10}\n",
        "Relation Type", "Tail Type", "Example", "Mined n"
    ));
    // one row per canonical relation, in Table 2 order, with mined counts
    for rel in Relation::ALL {
        let count: u64 = patterns
            .iter()
            .filter(|p| p.relation == rel)
            .map(|p| p.count)
            .sum();
        out.push_str(&format!(
            "{:<16} {:<24} {:<18} {:>10}\n",
            rel.name(),
            rel.tail_type().name(),
            rel.example(),
            count
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{Teacher, TeacherConfig};
    use cosmo_synth::{BehaviorConfig, BehaviorLog, World, WorldConfig};

    #[test]
    fn pattern_extraction_longest_first() {
        assert_eq!(
            extract_pattern("1. they are capable of being used for storage."),
            Some("capable of"),
            "'capable of' must win over 'used for'"
        );
        assert_eq!(
            extract_pattern("1. it is used with a tripod."),
            Some("used with")
        );
        assert_eq!(extract_pattern("no predicate here"), None);
    }

    #[test]
    fn mining_covers_most_relations() {
        let w = World::generate(WorldConfig::tiny(21));
        let log = BehaviorLog::generate(&w, &BehaviorConfig::tiny(22));
        let mut teacher = Teacher::new(&w, TeacherConfig::default());
        let mut cands = Vec::new();
        for sb in log.search_buys.iter().take(800) {
            cands.push(teacher.generate_search_buy(sb.query, sb.product));
        }
        for cb in log.cobuys.iter().take(800) {
            cands.push(teacher.generate_cobuy(cb.p1, cb.p2));
        }
        let mined = mine_relations(&cands);
        assert!(mined.len() >= 6, "only {} patterns mined", mined.len());
        // counts sorted descending
        for w in mined.windows(2) {
            assert!(w[0].count >= w[1].count);
        }
        let table = render_table2(&mined);
        assert!(table.contains("USED_FOR_FUNC"));
        assert!(table.contains("xWant"));
    }

    /// The original formulation: owned first sentence, owned token
    /// vector, joined with `join`.
    fn parse_candidate_oracle(raw: &str) -> Option<Parsed> {
        let first = cosmo_text::first_sentence(raw)?;
        let sentence = first.trim_end_matches(['.', '!', '?']).trim().to_string();
        if sentence.is_empty() {
            return None;
        }
        let joined = tokenize(&sentence).join(" ");
        for (p, r) in PATTERNS {
            if let Some(pos) = joined.find(p) {
                let tail = joined[pos + p.len()..].trim();
                return Some(Parsed {
                    tail: cosmo_text::canonicalize_tail(tail),
                    relation_hint: Some(*r),
                });
            }
        }
        Some(Parsed {
            tail: cosmo_text::canonicalize_tail(&joined),
            relation_hint: None,
        })
    }

    #[test]
    fn parse_matches_the_owned_formulation_on_random_text() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        const PIECES: &[&str] = &[
            "1.", "2)", "-", "they", "are", "used", "for", "form", "capable", "of", "is", "a",
            "this", "analysis", "by", "in", "Über", "\u{130}x", "dogs", ".", "!", "?", "\n", "Mr.",
            "2.5", ",", "'", "used-for",
        ];
        let mut rng = StdRng::seed_from_u64(0xFA75E);
        for _ in 0..20_000 {
            let n = rng.gen_range(0..14);
            let mut raw = String::new();
            for _ in 0..n {
                raw.push_str(PIECES[rng.gen_range(0..PIECES.len())]);
                if rng.gen_range(0..4) > 0 {
                    raw.push(' ');
                }
            }
            assert_eq!(
                parse_candidate(&raw),
                parse_candidate_oracle(&raw),
                "raw={raw:?}"
            );
        }
    }

    /// Parses and canonical tails of the teacher's own generations, pinned
    /// to the digest the token-vector implementations produced.
    #[test]
    fn parses_of_teacher_generations_are_pinned() {
        use std::hash::Hasher;
        let w = World::generate(WorldConfig::tiny(21));
        let log = BehaviorLog::generate(&w, &BehaviorConfig::tiny(22));
        let mut teacher = Teacher::new(&w, TeacherConfig::default());
        let mut h = cosmo_text::FxHasher::default();
        let mut parsed = 0;
        for sb in log.search_buys.iter().take(800) {
            let c = teacher.generate_search_buy(sb.query, sb.product);
            let p = parse_candidate(&c.raw);
            assert_eq!(p, parse_candidate_oracle(&c.raw), "raw={:?}", c.raw);
            parsed += usize::from(p.is_some());
            h.write(format!("{p:?}|{}", cosmo_text::canonicalize_tail(&c.raw)).as_bytes());
        }
        for cb in log.cobuys.iter().take(800) {
            let c = teacher.generate_cobuy(cb.p1, cb.p2);
            let p = parse_candidate(&c.raw);
            assert_eq!(p, parse_candidate_oracle(&c.raw), "raw={:?}", c.raw);
            parsed += usize::from(p.is_some());
            h.write(format!("{p:?}|{}", cosmo_text::canonicalize_tail(&c.raw)).as_bytes());
        }
        assert_eq!((parsed, h.finish()), PINNED_PARSES);
    }

    const PINNED_PARSES: (usize, u64) = (1600, 0xe79290d7ba621968);

    #[test]
    fn canonical_relation_is_total_over_patterns() {
        for (p, _) in PATTERNS {
            assert!(canonical_relation(p).is_some());
        }
        assert_eq!(canonical_relation("no such"), None);
    }
}
