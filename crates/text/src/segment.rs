//! Sentence segmentation.
//!
//! §3.3.1 of the paper: "We first use the sentence segmentation tool from
//! nltk to extract the first sentence from generation." The teacher model
//! produces free-running continuations ("1. they are capable of ... 2. ...")
//! and only the first complete sentence/item is a knowledge candidate.
//!
//! This is a pragmatic rule-based segmenter: it splits on `.`, `!`, `?` and
//! newline, is aware of a small abbreviation list and of enumerated-list
//! markers ("1.", "2)"), which are exactly the patterns the QA prompt of
//! Figure 3 induces.

/// Abbreviations after which a period does not end a sentence.
const ABBREVIATIONS: &[&str] = &[
    "mr", "mrs", "ms", "dr", "st", "etc", "e.g", "i.e", "vs", "oz", "lb", "ft", "in",
];

/// Split `text` into sentences.
pub fn split_sentences(text: &str) -> Vec<String> {
    Sentences { text, pos: 0 }.map(str::to_string).collect()
}

/// Iterator over the trimmed, non-empty sentences of a text, borrowed
/// from it. A sentence never spans a newline and every other character
/// of it is kept, so each one is a contiguous slice of the input.
struct Sentences<'a> {
    text: &'a str,
    /// Byte offset where the next sentence starts.
    pos: usize,
}

impl<'a> Iterator for Sentences<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        while self.pos < self.text.len() {
            let rest = &self.text[self.pos..];
            // (end of this sentence, where the next one starts), both
            // relative to `rest`; no terminator runs to the end of text
            let mut bounds = (rest.len(), rest.len());
            let mut chars = rest.char_indices().peekable();
            while let Some((i, c)) = chars.next() {
                let ends = match c {
                    '\n' => {
                        bounds = (i, i + 1);
                        break;
                    }
                    '!' | '?' => true,
                    '.' => {
                        let next_is_digit = chars.peek().is_some_and(|&(_, d)| d.is_ascii_digit());
                        !next_is_digit && period_ends_sentence(&rest[..i])
                    }
                    _ => false,
                };
                if ends {
                    bounds = (i + 1, i + 1);
                    break;
                }
            }
            self.pos += bounds.1;
            let sentence = rest[..bounds.0].trim();
            if !sentence.is_empty() {
                return Some(sentence);
            }
        }
        None
    }
}

/// Does a period after `before` (the sentence so far) end the sentence?
/// Not after an enumerated list marker like "1." at sentence start, an
/// abbreviation, or a single letter.
fn period_ends_sentence(before: &str) -> bool {
    let body = before.trim_start();
    if !body.is_empty() && body.bytes().all(|b| b.is_ascii_digit()) {
        return false;
    }
    let last_word = body
        .rsplit(char::is_whitespace)
        .next()
        .unwrap_or("")
        .trim_matches(|ch: char| !ch.is_alphanumeric() && ch != '.');
    !is_abbreviation(last_word)
}

/// Case-insensitive abbreviation test; allocates only for non-ASCII words,
/// whose lowercase form may differ in length.
fn is_abbreviation(word: &str) -> bool {
    if word.is_ascii() {
        return ABBREVIATIONS.iter().any(|a| a.eq_ignore_ascii_case(word))
            || (word.len() == 1 && word.as_bytes()[0].is_ascii_alphabetic());
    }
    let lower = word.to_lowercase();
    ABBREVIATIONS.contains(&lower.as_str())
        || (lower.len() == 1 && lower.chars().all(|ch| ch.is_alphabetic()))
}

/// Extract the first sentence of a generation, stripping a leading
/// enumerated-list marker ("1.", "2)", "-"). Returns `None` when the text
/// contains no sentence material at all.
pub fn first_sentence(text: &str) -> Option<String> {
    first_sentence_str(text).map(str::to_string)
}

/// [`first_sentence`] borrowed from `text`: scanning stops at the end of
/// the first sentence, and nothing is allocated.
pub fn first_sentence_str(text: &str) -> Option<&str> {
    Sentences { text, pos: 0 }.next().map(strip_list_marker)
}

/// Remove a leading list marker such as "1.", "23)", "-", "*".
pub fn strip_list_marker(s: &str) -> &str {
    let t = s.trim_start();
    let bytes = t.as_bytes();
    let mut i = 0;
    while i < bytes.len() && bytes[i].is_ascii_digit() {
        i += 1;
    }
    if i > 0 && i < bytes.len() && (bytes[i] == b'.' || bytes[i] == b')') {
        return t[i + 1..].trim_start();
    }
    if let Some(rest) = t.strip_prefix('-').or_else(|| t.strip_prefix('*')) {
        return rest.trim_start();
    }
    t
}

/// Heuristic completeness check: a candidate explanation must end with a
/// sentence terminator or look like a full clause (≥ 2 tokens, not ending
/// in a function word). Incomplete continuations such as "they are capable
/// of" are the main failure mode of autoregressive truncation.
pub fn looks_complete(sentence: &str) -> bool {
    let mut lower = String::new();
    let mut spans = Vec::new();
    crate::tokenize::tokenize_spans(sentence, &mut lower, &mut spans);
    const DANGLING: &[&str] = &[
        "a", "an", "the", "of", "for", "to", "and", "or", "with", "in", "on", "at", "by", "is",
        "are", "be", "being", "their", "its", "his", "her", "very", "so", "because", "that",
        "which", "who", "can", "could", "will", "would", "as",
    ];
    match spans.as_slice() {
        [_, .., (s, e)] => !DANGLING.contains(&&lower[*s as usize..*e as usize]),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The original char-by-char segmenter, kept as the oracle for the
    /// borrowing [`Sentences`] scanner.
    fn split_sentences_oracle(text: &str) -> Vec<String> {
        fn push(out: &mut Vec<String>, cur: &mut String) {
            let s = cur.trim();
            if !s.is_empty() {
                out.push(s.to_string());
            }
            cur.clear();
        }
        let mut sentences = Vec::new();
        let mut cur = String::new();
        let chars: Vec<char> = text.chars().collect();
        for (i, &c) in chars.iter().enumerate() {
            if c == '\n' {
                push(&mut sentences, &mut cur);
                continue;
            }
            cur.push(c);
            if c == '!' || c == '?' {
                push(&mut sentences, &mut cur);
                continue;
            }
            if c == '.' {
                let trimmed = cur.trim_start();
                let body = &trimmed[..trimmed.len() - 1];
                let is_enum_marker = !body.is_empty() && body.chars().all(|d| d.is_ascii_digit());
                let last_word = body
                    .rsplit(|ch: char| ch.is_whitespace())
                    .next()
                    .unwrap_or("")
                    .trim_matches(|ch: char| !ch.is_alphanumeric() && ch != '.')
                    .to_lowercase();
                let is_abbrev = ABBREVIATIONS.contains(&last_word.as_str())
                    || (last_word.len() == 1 && last_word.chars().all(|ch| ch.is_alphabetic()));
                let next_is_digit = chars.get(i + 1).is_some_and(|ch| ch.is_ascii_digit());
                if !is_enum_marker && !is_abbrev && !next_is_digit {
                    push(&mut sentences, &mut cur);
                }
            }
        }
        push(&mut sentences, &mut cur);
        sentences
    }

    /// The original token-vector completeness check.
    fn looks_complete_oracle(sentence: &str) -> bool {
        let toks = crate::tokenize::tokenize(sentence);
        if toks.len() < 2 {
            return false;
        }
        const DANGLING: &[&str] = &[
            "a", "an", "the", "of", "for", "to", "and", "or", "with", "in", "on", "at", "by", "is",
            "are", "be", "being", "their", "its", "his", "her", "very", "so", "because", "that",
            "which", "who", "can", "could", "will", "would", "as",
        ];
        !DANGLING.contains(&toks.last().unwrap().as_str())
    }

    /// Seeded generation-like text: words, abbreviations, enumeration
    /// markers, decimals, terminators, newlines and a few non-ASCII words
    /// whose lowercase form changes length (`İ`, the Kelvin sign).
    fn random_text(rng: &mut StdRng) -> String {
        const PIECES: &[&str] = &[
            "they", "are", "used", "for", "camping", "the", "of", "Mr", "e.g", "i.e", "oz", "St",
            "etc", "vs", "a", "K", "\u{212A}", "\u{130}x", "\u{130}", "Über", "straße", "1", "23",
            "2.5", "4-person", "cat's", ".", ". ", "! ", "? ", "\n", "\n\n", "1. ", "2) ", "- ",
            "* ", " ", "  ", "\t", ",", "'", "-", "...", ".5", "3.",
        ];
        let n = rng.gen_range(0..24);
        let mut s = String::new();
        for _ in 0..n {
            s.push_str(PIECES[rng.gen_range(0..PIECES.len())]);
            if rng.gen_range(0..3) > 0 {
                s.push(' ');
            }
        }
        s
    }

    #[test]
    fn scanner_matches_the_char_segmenter_on_random_text() {
        let mut rng = StdRng::seed_from_u64(0x5E6);
        for _ in 0..20_000 {
            let text = random_text(&mut rng);
            let oracle = split_sentences_oracle(&text);
            assert_eq!(split_sentences(&text), oracle, "text={text:?}");
            let first = oracle.first().map(|s| strip_list_marker(s));
            assert_eq!(first_sentence_str(&text), first, "text={text:?}");
            assert_eq!(
                first_sentence(&text),
                first.map(str::to_string),
                "text={text:?}"
            );
        }
    }

    #[test]
    fn looks_complete_matches_the_token_vector_check() {
        let mut rng = StdRng::seed_from_u64(0xC0);
        for _ in 0..20_000 {
            let text = random_text(&mut rng);
            assert_eq!(
                looks_complete(&text),
                looks_complete_oracle(&text),
                "text={text:?}"
            );
        }
        for text in ["they are used for camping", "used for the", "because", ""] {
            assert_eq!(looks_complete(text), looks_complete_oracle(text));
        }
    }

    #[test]
    fn splits_on_terminators() {
        let s = split_sentences("First one. Second one! Third?");
        assert_eq!(s, vec!["First one.", "Second one!", "Third?"]);
    }

    #[test]
    fn keeps_abbreviations() {
        let s = split_sentences("It weighs 3 oz. roughly speaking.");
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn decimal_numbers_not_split() {
        let s = split_sentences("It is 2.5 inches long.");
        assert_eq!(s, vec!["It is 2.5 inches long."]);
    }

    #[test]
    fn list_markers_not_sentence_ends() {
        let s = split_sentences("1. they are used for camping. 2. they are durable.");
        assert_eq!(s[0], "1. they are used for camping.");
    }

    #[test]
    fn first_sentence_strips_marker() {
        assert_eq!(
            first_sentence("1. they are used for camping. 2. more.").as_deref(),
            Some("they are used for camping.")
        );
        assert_eq!(
            first_sentence("- bullet item. next.").as_deref(),
            Some("bullet item.")
        );
        assert_eq!(first_sentence("   \n \n"), None);
    }

    #[test]
    fn newline_separates() {
        let s = split_sentences("line one\nline two");
        assert_eq!(s, vec!["line one", "line two"]);
    }

    #[test]
    fn completeness_heuristic() {
        assert!(looks_complete("they are used for camping"));
        assert!(!looks_complete("they are capable of"));
        assert!(!looks_complete("because"));
        assert!(!looks_complete("used for the"));
    }
}
