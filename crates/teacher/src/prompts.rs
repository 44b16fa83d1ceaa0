//! QA-prompted generation prompts (Figure 3, §3.2.2).
//!
//! The paper verbalises each user behaviour as a question-answering context:
//! a task description, the behaviour's surface forms, a relation-specific
//! question, and a partial answer ending in the list marker `1.` — "a useful
//! prompt engineering trick to generate a list of knowledge candidates".
//! Parsing a generation is the inverse: take the first sentence, strip the
//! list marker and relation boilerplate, and keep the tail.

use cosmo_kg::Relation;
use cosmo_text::segment;

/// A fully rendered prompt ready for the (simulated) LLM.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Prompt {
    /// The prompt text.
    pub text: String,
    /// The relation the question asks about.
    pub relation: Relation,
}

/// Question phrasing per relation, mirroring the relation-aware prompts
/// of FolkScope/COSMO.
fn relation_question(relation: Relation) -> String {
    use Relation::*;
    match relation {
        UsedForFunc | UsedForEve | UsedForAud => "What can the product be used for?".to_string(),
        CapableOf => "What is the product capable of?".to_string(),
        UsedTo => "What is the product used to do?".to_string(),
        UsedAs => "What can the product be used as?".to_string(),
        IsA => "What kind of product is it?".to_string(),
        UsedOn => "On what occasion or season is the product used?".to_string(),
        UsedInLoc => "Where is the product used?".to_string(),
        UsedInBody => "On which body part is the product used?".to_string(),
        UsedWith => "What is the product used together with?".to_string(),
        UsedBy => "Who uses the product?".to_string(),
        XInterestedIn => "What is the customer interested in?".to_string(),
        XIsA => "Who is the customer?".to_string(),
        XWant => "What does the customer want to do?".to_string(),
    }
}

/// Render the search-buy prompt of Figure 3.
pub fn search_buy_prompt(query: &str, product_title: &str, relation: Relation) -> Prompt {
    let text = format!(
        "The following search query caused the following product purchases.\n\
         Query: \"{query}\"\n\
         Product: \"{product_title}\"\n\
         Question: {q} Explain why the customer bought this product given the query.\n\
         Answer: 1.",
        q = relation_question(relation),
    );
    Prompt { text, relation }
}

/// Render the co-buy prompt.
pub fn cobuy_prompt(title1: &str, title2: &str, relation: Relation) -> Prompt {
    let text = format!(
        "The following two products were bought together by the same customer.\n\
         Product A: \"{title1}\"\n\
         Product B: \"{title2}\"\n\
         Question: {q} Explain why the customer bought the two products together.\n\
         Answer: 1.",
        q = relation_question(relation),
    );
    Prompt { text, relation }
}

/// Extract the knowledge-tail candidate from a raw LLM continuation:
/// first sentence, minus list markers. Returns `None` when the generation
/// contains no sentence material.
pub fn parse_generation(raw: &str) -> Option<String> {
    trim_sentence(segment::first_sentence_str(raw)?).map(str::to_string)
}

/// The tail material of a first sentence: trailing terminators and
/// surrounding whitespace removed; `None` when nothing is left.
pub(crate) fn trim_sentence(first: &str) -> Option<&str> {
    Some(first.trim_end_matches(['.', '!', '?']).trim()).filter(|s| !s.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn search_buy_prompt_contains_behaviour() {
        let p = search_buy_prompt("camping", "acme air mattress", Relation::CapableOf);
        assert!(p.text.contains("Query: \"camping\""));
        assert!(p.text.contains("Product: \"acme air mattress\""));
        assert!(p.text.ends_with("1."), "list-marker trick must be present");
        assert_eq!(p.relation, Relation::CapableOf);
    }

    #[test]
    fn cobuy_prompt_contains_both_products() {
        let p = cobuy_prompt("camera case", "screen protector glass", Relation::UsedWith);
        assert!(p.text.contains("Product A: \"camera case\""));
        assert!(p.text.contains("Product B: \"screen protector glass\""));
    }

    #[test]
    fn questions_differ_by_relation() {
        let a = search_buy_prompt("q", "p", Relation::UsedInLoc);
        let b = search_buy_prompt("q", "p", Relation::UsedBy);
        assert_ne!(a.text, b.text);
    }

    #[test]
    fn parse_strips_markers_and_keeps_first() {
        assert_eq!(
            parse_generation("1. they are used for camping. 2. they are durable."),
            Some("they are used for camping".to_string())
        );
        assert_eq!(
            parse_generation("they are capable of holding snacks"),
            Some("they are capable of holding snacks".to_string())
        );
        assert_eq!(parse_generation("   \n"), None);
    }
}
