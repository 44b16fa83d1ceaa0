//! # cosmo-teacher
//!
//! The simulated teacher LLM (substituting for OPT-30B/175B on 16×A100,
//! §3.2.2) plus the QA prompt templates of Figure 3, the data-driven
//! relation discovery of §3.1/Table 2, and the simulated inference-cost
//! model used by the efficiency comparison against COSMO-LM.
//!
//! The teacher emits knowledge-candidate continuations drawn from the
//! synthetic world's ground-truth intent profiles mixed with a calibrated
//! noise model (generic tails, paraphrases, hallucinations, truncations,
//! one-sided co-buy intents). The noise mixture is tuned so that the
//! *annotated* pool reproduces Table 4's plausibility/typicality ratios.

#![forbid(unsafe_code)]

pub mod cost;
pub mod generate;
pub mod prompts;
pub mod relations;

pub use cost::{CostMeter, TeacherModel};
pub use generate::{
    relation_from_text, BehaviorRef, Candidate, Provenance, QualityMixture, Teacher, TeacherConfig,
};
pub use prompts::{cobuy_prompt, parse_generation, search_buy_prompt, Prompt};
pub use relations::{
    mine_relations, parse_candidate, parse_first_sentence, render_table2, MinedPattern, Parsed,
};
