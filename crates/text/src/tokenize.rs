//! Lightweight word tokenizer.
//!
//! All text in the synthetic world is ASCII-ish English, so tokenisation is:
//! lowercase, split into maximal runs of alphanumeric characters (keeping
//! internal apostrophes and hyphens, as in `cat's` or `4-person`), dropping
//! everything else. This matches what the paper's filters need: token
//! streams for n-gram LM scoring, duplicate checks and embeddings.

/// Returns `true` for characters that may appear inside a token.
#[inline]
fn is_token_char(c: char) -> bool {
    c.is_alphanumeric()
}

/// Returns `true` for characters that join two token chars (kept only when
/// surrounded by token characters on both sides).
#[inline]
fn is_joiner(c: char) -> bool {
    c == '\'' || c == '-'
}

/// Tokenize `text` into lowercase tokens represented as byte spans into a
/// shared lowercase buffer: each `(start, end)` in `spans` indexes
/// `lower[start..end]`. Appends to both buffers, so both can be reused
/// across calls without reallocating (clear them between unrelated texts).
///
/// This is the zero-allocation core; [`tokenize_into`] and [`tokenize`] are
/// wrappers that materialise owned `String`s from the spans, so the token
/// *text* produced by every path is identical by construction.
pub fn tokenize_spans(text: &str, lower: &mut String, spans: &mut Vec<(u32, u32)>) {
    if text.is_ascii() {
        tokenize_spans_ascii(text.as_bytes(), lower, spans);
    } else {
        tokenize_spans_chars(text, lower, spans);
    }
}

/// The general path: Unicode lowercasing (which may change a char's byte
/// length) and Unicode alphanumerics.
fn tokenize_spans_chars(text: &str, lower: &mut String, spans: &mut Vec<(u32, u32)>) {
    let mut start = lower.len() as u32;
    let mut it = text.chars().peekable();
    while let Some(c) = it.next() {
        if is_token_char(c) {
            for lc in c.to_lowercase() {
                lower.push(lc);
            }
        } else if is_joiner(c)
            && lower.len() as u32 > start
            && it.peek().is_some_and(|&next| is_token_char(next))
        {
            lower.push(c);
        } else if lower.len() as u32 > start {
            spans.push((start, lower.len() as u32));
            start = lower.len() as u32;
        }
    }
    if lower.len() as u32 > start {
        spans.push((start, lower.len() as u32));
    }
}

/// [`tokenize_spans_chars`] for ASCII text, byte by byte: for ASCII,
/// `char::is_alphanumeric` and `char::to_lowercase` are their `ascii`
/// counterparts, so the output is the same.
fn tokenize_spans_ascii(text: &[u8], lower: &mut String, spans: &mut Vec<(u32, u32)>) {
    let mut start = lower.len() as u32;
    for (i, &b) in text.iter().enumerate() {
        if b.is_ascii_alphanumeric() {
            lower.push(b.to_ascii_lowercase() as char);
        } else if (b == b'\'' || b == b'-')
            && lower.len() as u32 > start
            && text.get(i + 1).is_some_and(u8::is_ascii_alphanumeric)
        {
            lower.push(b as char);
        } else if lower.len() as u32 > start {
            spans.push((start, lower.len() as u32));
            start = lower.len() as u32;
        }
    }
    if lower.len() as u32 > start {
        spans.push((start, lower.len() as u32));
    }
}

/// Tokenize `text` into lowercase word tokens, appending into `out`.
///
/// Reusing the output buffer avoids per-call allocations on hot paths
/// (the coarse filter tokenises millions of candidate strings).
pub fn tokenize_into(text: &str, out: &mut Vec<String>) {
    let mut lower = String::new();
    let mut spans = Vec::new();
    tokenize_spans(text, &mut lower, &mut spans);
    out.extend(
        spans
            .iter()
            .map(|&(s, e)| lower[s as usize..e as usize].to_string()),
    );
}

/// Tokenize `text` into a fresh vector. See [`tokenize_into`].
pub fn tokenize(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    tokenize_into(text, &mut out);
    out
}

/// Join tokens back into a canonical single-space string.
pub fn detokenize(tokens: &[String]) -> String {
    tokens.join(" ")
}

/// Produce character n-grams (as `(start, len)` byte-range strings) of a
/// token, used by the hashed embedder for robustness to morphology
/// ("camping" vs "camp"). Boundaries are marked with `^`/`$`.
pub fn char_ngrams(token: &str, n: usize) -> Vec<String> {
    let marked: Vec<char> = std::iter::once('^')
        .chain(token.chars())
        .chain(std::iter::once('$'))
        .collect();
    if marked.len() < n {
        return vec![marked.iter().collect()];
    }
    marked.windows(n).map(|w| w.iter().collect()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_tokenization() {
        assert_eq!(
            tokenize("Camping Air-Mattress, 4-person!"),
            vec!["camping", "air-mattress", "4-person"]
        );
    }

    #[test]
    fn apostrophes_kept_inside() {
        assert_eq!(tokenize("the cat's toy"), vec!["the", "cat's", "toy"]);
    }

    #[test]
    fn dangling_joiners_dropped() {
        assert_eq!(tokenize("- hello -world '"), vec!["hello", "world"]);
        assert_eq!(tokenize("trailing-"), vec!["trailing"]);
    }

    #[test]
    fn empty_and_punct_only() {
        assert!(tokenize("").is_empty());
        assert!(tokenize("!!! ... ???").is_empty());
    }

    #[test]
    fn reuse_buffer() {
        let mut buf = Vec::new();
        tokenize_into("one two", &mut buf);
        tokenize_into("three", &mut buf);
        assert_eq!(buf, vec!["one", "two", "three"]);
    }

    #[test]
    fn spans_match_owned_tokens() {
        for text in [
            "Camping Air-Mattress, 4-person!",
            "the cat's toy",
            "- hello -world '",
            "trailing-",
            "",
            "!!! ... ???",
            "ÜBER-Größe straße",
            "a-b-c--d",
        ] {
            let mut lower = String::new();
            let mut spans = Vec::new();
            tokenize_spans(text, &mut lower, &mut spans);
            let from_spans: Vec<&str> = spans
                .iter()
                .map(|&(s, e)| &lower[s as usize..e as usize])
                .collect();
            assert_eq!(from_spans, tokenize(text), "text={text:?}");
        }
    }

    #[test]
    fn ascii_fast_path_matches_char_path() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        const ALPHABET: &[u8] = b"aZq09 -'\t\n.,!?-'xY";
        let mut rng = StdRng::seed_from_u64(0xA5C11);
        for _ in 0..20_000 {
            let len = rng.gen_range(0..32);
            let text: String = (0..len)
                .map(|_| ALPHABET[rng.gen_range(0..ALPHABET.len())] as char)
                .collect();
            let (mut fast, mut fast_spans) = (String::from("x"), vec![(0, 1)]);
            tokenize_spans_ascii(text.as_bytes(), &mut fast, &mut fast_spans);
            let (mut slow, mut slow_spans) = (String::from("x"), vec![(0, 1)]);
            tokenize_spans_chars(&text, &mut slow, &mut slow_spans);
            assert_eq!((fast, fast_spans), (slow, slow_spans), "text={text:?}");
        }
    }

    #[test]
    fn spans_append_across_calls() {
        let mut lower = String::new();
        let mut spans = Vec::new();
        tokenize_spans("one two", &mut lower, &mut spans);
        tokenize_spans("three", &mut lower, &mut spans);
        let toks: Vec<&str> = spans
            .iter()
            .map(|&(s, e)| &lower[s as usize..e as usize])
            .collect();
        assert_eq!(toks, vec!["one", "two", "three"]);
    }

    #[test]
    fn char_ngrams_short_token() {
        assert_eq!(char_ngrams("a", 3), vec!["^a$"]);
    }

    #[test]
    fn char_ngrams_basic() {
        assert_eq!(char_ngrams("cat", 3), vec!["^ca", "cat", "at$"]);
    }

    #[test]
    fn detokenize_roundtrip() {
        let toks = tokenize("used for walking the dog");
        assert_eq!(detokenize(&toks), "used for walking the dog");
    }
}
