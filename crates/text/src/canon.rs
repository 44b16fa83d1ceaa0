//! Canonicalisation of knowledge tails.
//!
//! §3.1 of the paper: generations sharing a predicate pattern ("the product
//! is capable of being used \[Prep\] …") are canonicalised so the knowledge
//! graph is structured — e.g. "Used for walking the dogs." and "used for
//! walking the dog" become one tail node. We lowercase, strip punctuation
//! and leading auxiliary boilerplate, apply a light plural/inflection
//! stemmer to the final noun, and collapse whitespace.

use crate::tokenize::tokenize_spans;

/// Boilerplate prefixes the teacher tends to emit before the actual tail.
const BOILERPLATE_PREFIXES: &[&[&str]] = &[
    &["they", "are"],
    &["it", "is"],
    &["this", "product", "is"],
    &["the", "product", "is"],
    &["because", "they", "are"],
    &["because", "it", "is"],
    &["because"],
    &["both", "are"],
];

/// A light suffix stemmer applied to the last token only (tails are short
/// noun/verb phrases; stemming every token would merge distinct meanings).
/// Returns the stem and the suffix to append to it.
fn stem_last(t: &str) -> (&str, &'static str) {
    if t.len() > 4 && t.ends_with("ies") {
        return (&t[..t.len() - 3], "y");
    }
    if t.len() > 3 && t.ends_with("es") && !t.ends_with("ses") && !t.ends_with("oes") {
        return (&t[..t.len() - 1], ""); // "boxes" -> "boxe"? keep simple: drop 's'
    }
    if t.len() > 3 && t.ends_with('s') && !t.ends_with("ss") && !t.ends_with("us") {
        return (&t[..t.len() - 1], "");
    }
    (t, "")
}

/// Canonicalise a knowledge tail string. Tokenises once into spans and
/// builds the result string once.
pub fn canonicalize_tail(raw: &str) -> String {
    let mut lower = String::new();
    let mut spans = Vec::new();
    tokenize_spans(raw, &mut lower, &mut spans);
    let token = |(s, e): (u32, u32)| &lower[s as usize..e as usize];
    // strip boilerplate prefixes, longest first, repeatedly
    let mut toks = spans.as_slice();
    'strip: loop {
        for prefix in BOILERPLATE_PREFIXES {
            if toks.len() > prefix.len()
                && toks
                    .iter()
                    .zip(prefix.iter())
                    .all(|(&span, p)| token(span) == *p)
            {
                toks = &toks[prefix.len()..];
                continue 'strip;
            }
        }
        break;
    }
    let mut out = String::with_capacity(lower.len() + toks.len());
    if let Some((&last, rest)) = toks.split_last() {
        for &span in rest {
            out.push_str(token(span));
            out.push(' ');
        }
        let (stem, suffix) = stem_last(token(last));
        out.push_str(stem);
        out.push_str(suffix);
    }
    out
}

/// True when two raw tails canonicalise to the same node.
pub fn same_tail(a: &str, b: &str) -> bool {
    canonicalize_tail(a) == canonicalize_tail(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strips_case_and_punct() {
        assert_eq!(canonicalize_tail("Used for Camping!"), "used for camping");
    }

    #[test]
    fn strips_boilerplate() {
        assert_eq!(
            canonicalize_tail("they are used for camping"),
            "used for camping"
        );
        assert_eq!(
            canonicalize_tail("because they are capable of holding snacks"),
            "capable of holding snack"
        );
        assert_eq!(canonicalize_tail("it is a smart watch"), "a smart watch");
    }

    #[test]
    fn plural_merge() {
        assert!(same_tail(
            "used for walking the dogs",
            "used for walking the dog"
        ));
        assert!(same_tail("used by cat owners", "used by cat owner"));
    }

    #[test]
    fn distinct_tails_stay_distinct() {
        assert!(!same_tail("used for camping", "used for hiking"));
    }

    #[test]
    fn does_not_overstem() {
        // "ss"/"us" endings are not plurals
        assert_eq!(canonicalize_tail("used for fitness"), "used for fitness");
        assert_eq!(
            canonicalize_tail("protects the walrus"),
            "protects the walrus"
        );
    }

    /// The original token-vector formulation, kept as the oracle.
    fn canonicalize_tail_oracle(raw: &str) -> String {
        let mut toks = crate::tokenize::tokenize(raw);
        loop {
            let mut stripped = false;
            for prefix in BOILERPLATE_PREFIXES {
                if toks.len() > prefix.len()
                    && toks[..prefix.len()]
                        .iter()
                        .map(|s| s.as_str())
                        .eq(prefix.iter().copied())
                {
                    toks.drain(..prefix.len());
                    stripped = true;
                    break;
                }
            }
            if !stripped {
                break;
            }
        }
        fn stem_last(t: &str) -> String {
            if t.len() > 4 && t.ends_with("ies") {
                return format!("{}y", &t[..t.len() - 3]);
            }
            if t.len() > 3 && t.ends_with("es") && !t.ends_with("ses") && !t.ends_with("oes") {
                return t[..t.len() - 1].to_string();
            }
            if t.len() > 3 && t.ends_with('s') && !t.ends_with("ss") && !t.ends_with("us") {
                return t[..t.len() - 1].to_string();
            }
            t.to_string()
        }
        if let Some(last) = toks.last_mut() {
            *last = stem_last(last);
        }
        toks.join(" ")
    }

    #[test]
    fn matches_the_token_vector_formulation_on_random_tails() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        const WORDS: &[&str] = &[
            "they",
            "are",
            "it",
            "is",
            "this",
            "the",
            "product",
            "because",
            "both",
            "used",
            "for",
            "dogs",
            "puppies",
            "boxes",
            "glasses",
            "heroes",
            "fitness",
            "walrus",
            "cats",
            "Über",
            "\u{130}es",
            "ies",
            "es",
            "s",
            "-",
            "'",
            ",",
            ".",
            "!",
        ];
        let mut rng = StdRng::seed_from_u64(0xCA40);
        for _ in 0..20_000 {
            let n = rng.gen_range(0..9);
            let mut raw = String::new();
            for _ in 0..n {
                raw.push_str(WORDS[rng.gen_range(0..WORDS.len())]);
                if rng.gen_range(0..4) > 0 {
                    raw.push(' ');
                }
            }
            assert_eq!(
                canonicalize_tail(&raw),
                canonicalize_tail_oracle(&raw),
                "raw={raw:?}"
            );
        }
    }

    #[test]
    fn empty_is_empty() {
        assert_eq!(canonicalize_tail(""), "");
        assert_eq!(canonicalize_tail("because"), "because");
    }
}
