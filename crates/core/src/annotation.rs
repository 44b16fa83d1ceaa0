//! Human-in-the-loop annotation simulation (§3.3.2, Appendix B).
//!
//! The paper annotates 30k knowledge candidates through a vendor: each
//! candidate is judged on five yes/no/not-sure questions (complete,
//! relevant, informative, plausible, typical) by two annotators, with a
//! third adjudicating disagreements; 5% of annotations are audited
//! internally (accuracy > 90%).
//!
//! Candidates are *not* sampled uniformly: Eq. 2 re-weights by
//! `log(f(t)) / (pop(q) × pop(p))` — frequent knowledge over unpopular
//! heads — so long-tail knowledge is represented and critics trained on
//! the annotations generalise beyond head products.
//!
//! Offline, the two annotators are the world [`Oracle`] corrupted by a
//! per-annotator noise model (random flips + "not sure" abstentions).

use crate::filter::FilteredCandidate;
use cosmo_kg::BehaviorKind;
use cosmo_synth::{BehaviorLog, Oracle, World};
use cosmo_teacher::BehaviorRef;
use cosmo_text::{segment, FxHashMap};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// One answer to an annotation question.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Ans {
    /// Yes.
    Yes,
    /// No.
    No,
    /// Not sure.
    NotSure,
}

impl Ans {
    fn from_bool(b: bool) -> Self {
        if b {
            Ans::Yes
        } else {
            Ans::No
        }
    }

    /// Yes → `Some(true)`, No → `Some(false)`, NotSure → `None`.
    pub fn as_bool(self) -> Option<bool> {
        match self {
            Ans::Yes => Some(true),
            Ans::No => Some(false),
            Ans::NotSure => None,
        }
    }
}

/// The five annotation questions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Answers {
    /// Q1: is the explanation a complete sentence?
    pub complete: Ans,
    /// Q2: is it relevant?
    pub relevant: Ans,
    /// Q3: is it informative?
    pub informative: Ans,
    /// Q4: is it plausible?
    pub plausible: Ans,
    /// Q5: is it typical?
    pub typical: Ans,
}

/// One adjudicated annotation.
#[derive(Debug, Clone)]
pub struct Annotation {
    /// Index into the filtered-candidate batch.
    pub candidate_idx: usize,
    /// Final adjudicated answers.
    pub answers: Answers,
    /// How many of the five questions the annotators disagreed on.
    pub disagreements: u8,
    /// The candidate's behaviour kind (for Table 4 splits).
    pub behavior: BehaviorKind,
}

/// Annotation process parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AnnotationConfig {
    /// RNG seed.
    pub seed: u64,
    /// Annotation budget per behaviour kind (the paper uses 15k + 15k).
    pub budget_per_behavior: usize,
    /// Per-question probability an annotator flips the true answer.
    pub annotator_error: f64,
    /// Per-question probability an annotator abstains ("not sure").
    pub not_sure_rate: f64,
    /// Audit sample fraction (the paper audits 5%).
    pub audit_fraction: f64,
}

impl Default for AnnotationConfig {
    fn default() -> Self {
        AnnotationConfig {
            seed: 0xA0_0A7E,
            budget_per_behavior: 1_500,
            annotator_error: 0.06,
            not_sure_rate: 0.03,
            audit_fraction: 0.05,
        }
    }
}

/// Output of the annotation stage.
#[derive(Debug)]
pub struct AnnotationOutput {
    /// All adjudicated annotations.
    pub annotations: Vec<Annotation>,
    /// Per-question disagreement rate (disagreed questions / all
    /// questions) — the quantity the paper's pilot study tracks.
    pub disagreement_rate: f64,
    /// Audit accuracy (adjudicated vs ground truth over the audit sample).
    pub audit_accuracy: f64,
}

impl AnnotationOutput {
    /// Table 4: `(plausibility ratio, typicality ratio)` among annotations
    /// of one behaviour kind (Yes / (Yes + No), NotSure excluded).
    pub fn table4_ratios(&self, behavior: BehaviorKind) -> (f64, f64) {
        let mut p_yes = 0u32;
        let mut p_tot = 0u32;
        let mut t_yes = 0u32;
        let mut t_tot = 0u32;
        for a in self.annotations.iter().filter(|a| a.behavior == behavior) {
            if let Some(b) = a.answers.plausible.as_bool() {
                p_tot += 1;
                p_yes += u32::from(b);
            }
            if let Some(b) = a.answers.typical.as_bool() {
                t_tot += 1;
                t_yes += u32::from(b);
            }
        }
        (
            p_yes as f64 / p_tot.max(1) as f64,
            t_yes as f64 / t_tot.max(1) as f64,
        )
    }
}

/// Eq. 2: `w = log(f(t)) / (pop(q) × pop(p))`.
fn eq2_weight(tail_freq: u64, pop_head1: u32, pop_head2: u32) -> f64 {
    let num = (1.0 + tail_freq as f64).ln();
    num / (pop_head1 as f64 * pop_head2 as f64)
}

/// Run the annotation stage over the *kept* candidates of a filtered batch.
pub fn annotate(
    world: &World,
    log: &BehaviorLog,
    filtered: &[FilteredCandidate],
    cfg: &AnnotationConfig,
) -> AnnotationOutput {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let oracle = Oracle::new(world);

    // tail frequency for Eq. 2
    let mut tail_freq: FxHashMap<&str, u64> = FxHashMap::default();
    for f in filtered {
        if let Some(p) = &f.parsed {
            if f.decision.kept() {
                *tail_freq.entry(p.tail.as_str()).or_insert(0) += 1;
            }
        }
    }

    // candidate pools per behaviour with Eq. 2 weights
    let mut pools: [Vec<(usize, f64)>; 2] = [Vec::new(), Vec::new()];
    for (i, f) in filtered.iter().enumerate() {
        if !f.decision.kept() {
            continue;
        }
        let Some(parsed) = &f.parsed else { continue };
        let freq = tail_freq.get(parsed.tail.as_str()).copied().unwrap_or(1);
        let (pool, weight) = match f.candidate.behavior {
            BehaviorRef::SearchBuy(q, p) => {
                (0, eq2_weight(freq, log.pop_query(q), log.pop_product(p)))
            }
            BehaviorRef::CoBuy(p1, p2) => (
                1,
                eq2_weight(freq, log.pop_product(p1), log.pop_product(p2)),
            ),
        };
        pools[pool].push((i, weight));
    }

    let mut annotations = Vec::new();
    let mut disagreements = 0usize;
    let mut audit_correct = 0usize;
    let mut audit_total = 0usize;

    for pool in pools.iter_mut() {
        // weighted sampling without replacement (exponential sort trick)
        let mut keyed: Vec<(f64, usize)> = pool
            .iter()
            .map(|&(i, w)| {
                let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                // key = -ln(u)/w; smallest keys win
                ((-u.ln()) / w.max(1e-12), i)
            })
            .collect();
        keyed.sort_by(|a, b| a.0.total_cmp(&b.0));
        for &(_, idx) in keyed.iter().take(cfg.budget_per_behavior) {
            let f = &filtered[idx];
            let parsed = f.parsed.as_ref().expect("kept candidates are parsed");
            // ground truth
            let truth_complete = segment::first_sentence_str(&f.candidate.raw)
                .map(|s| segment::looks_complete(s.trim_end_matches('.')))
                .unwrap_or(false);
            let j = match f.candidate.behavior {
                BehaviorRef::SearchBuy(q, p) => {
                    oracle.judge_search_buy(q, p, f.candidate.relation, &parsed.tail)
                }
                BehaviorRef::CoBuy(p1, p2) => {
                    oracle.judge_cobuy(p1, p2, f.candidate.relation, &parsed.tail)
                }
            };
            let truth = [
                truth_complete,
                j.relevant,
                j.informative,
                j.plausible,
                j.typical,
            ];
            // two noisy annotators
            let a1 = noisy_answers(&truth, cfg, &mut rng);
            let a2 = noisy_answers(&truth, cfg, &mut rng);
            let mut final_ans = [Ans::NotSure; 5];
            let mut disagreed_q = 0u8;
            for k in 0..5 {
                if a1[k] == a2[k] && a1[k] != Ans::NotSure {
                    final_ans[k] = a1[k];
                } else {
                    // third person checks: resolves to the truth
                    disagreed_q += 1;
                    final_ans[k] = Ans::from_bool(truth[k]);
                }
            }
            disagreements += disagreed_q as usize;
            // audit sample
            if rng.gen_bool(cfg.audit_fraction) {
                for k in 0..5 {
                    audit_total += 1;
                    if final_ans[k].as_bool() == Some(truth[k]) {
                        audit_correct += 1;
                    }
                }
            }
            annotations.push(Annotation {
                candidate_idx: idx,
                answers: Answers {
                    complete: final_ans[0],
                    relevant: final_ans[1],
                    informative: final_ans[2],
                    plausible: final_ans[3],
                    typical: final_ans[4],
                },
                disagreements: disagreed_q,
                behavior: f.candidate.behavior.kind(),
            });
        }
    }

    AnnotationOutput {
        disagreement_rate: disagreements as f64 / (5 * annotations.len().max(1)) as f64,
        audit_accuracy: if audit_total == 0 {
            1.0
        } else {
            audit_correct as f64 / audit_total as f64
        },
        annotations,
    }
}

fn noisy_answers(truth: &[bool; 5], cfg: &AnnotationConfig, rng: &mut StdRng) -> [Ans; 5] {
    let mut out = [Ans::NotSure; 5];
    for k in 0..5 {
        out[k] = if rng.gen_bool(cfg.not_sure_rate) {
            Ans::NotSure
        } else if rng.gen_bool(cfg.annotator_error) {
            Ans::from_bool(!truth[k])
        } else {
            Ans::from_bool(truth[k])
        };
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::{CoarseFilter, FilterConfig};
    use cosmo_synth::{BehaviorConfig, WorldConfig};
    use cosmo_teacher::{Teacher, TeacherConfig};

    fn setup() -> (World, BehaviorLog, Vec<FilteredCandidate>) {
        let w = World::generate(WorldConfig::tiny(51));
        let log = BehaviorLog::generate(&w, &BehaviorConfig::tiny(52));
        let mut teacher = Teacher::new(&w, TeacherConfig::default());
        let mut cands = Vec::new();
        for sb in log.search_buys.iter().take(1200) {
            cands.push(teacher.generate_search_buy(sb.query, sb.product));
        }
        for cb in log.cobuys.iter().take(1200) {
            cands.push(teacher.generate_cobuy(cb.p1, cb.p2));
        }
        let filter = CoarseFilter::fit(&cosmo_synth::corpus(&w), FilterConfig::default());
        let filtered = filter.filter(&w, cands);
        (w, log, filtered)
    }

    #[test]
    fn budget_respected_per_behavior() {
        let (w, log, filtered) = setup();
        let cfg = AnnotationConfig {
            budget_per_behavior: 200,
            ..Default::default()
        };
        let out = annotate(&w, &log, &filtered, &cfg);
        let sb = out
            .annotations
            .iter()
            .filter(|a| a.behavior == BehaviorKind::SearchBuy)
            .count();
        let cb = out.annotations.len() - sb;
        assert!(sb <= 200 && cb <= 200);
        assert!(
            sb > 150 && cb > 150,
            "pools should be large enough: sb={sb} cb={cb}"
        );
    }

    #[test]
    fn audit_accuracy_above_90_percent() {
        let (w, log, filtered) = setup();
        let out = annotate(&w, &log, &filtered, &AnnotationConfig::default());
        assert!(
            out.audit_accuracy > 0.9,
            "audit accuracy {} (paper reports >90%)",
            out.audit_accuracy
        );
    }

    #[test]
    fn searchbuy_more_typical_than_cobuy() {
        let (w, log, filtered) = setup();
        let out = annotate(&w, &log, &filtered, &AnnotationConfig::default());
        let (sp, st) = out.table4_ratios(BehaviorKind::SearchBuy);
        let (cp, ct) = out.table4_ratios(BehaviorKind::CoBuy);
        assert!(
            st > ct,
            "search-buy typicality ({st:.2}) must exceed co-buy ({ct:.2}) — Table 4"
        );
        assert!(
            sp > cp,
            "search-buy plausibility ({sp:.2}) vs co-buy ({cp:.2})"
        );
        // search-buy typicality should land in the Table 4 ballpark (~35%)
        assert!((0.2..=0.55).contains(&st), "search-buy typicality {st}");
    }

    #[test]
    fn adjudication_reduces_disagreement_errors() {
        let (w, log, filtered) = setup();
        let noisy = AnnotationConfig {
            annotator_error: 0.25,
            ..Default::default()
        };
        let out = annotate(&w, &log, &filtered, &noisy);
        assert!(
            out.disagreement_rate > 0.2,
            "high noise must cause disagreement"
        );
        // adjudication resolves to truth, so audits stay accurate even with
        // noisy annotators (only agreeing-but-both-wrong survives)
        assert!(out.audit_accuracy > 0.85, "audit {}", out.audit_accuracy);
    }

    #[test]
    fn deterministic() {
        let (w, log, filtered) = setup();
        let a = annotate(&w, &log, &filtered, &AnnotationConfig::default());
        let b = annotate(&w, &log, &filtered, &AnnotationConfig::default());
        assert_eq!(a.annotations.len(), b.annotations.len());
        assert_eq!(
            a.annotations[0].candidate_idx,
            b.annotations[0].candidate_idx
        );
    }

    #[test]
    fn eq2_prefers_frequent_tails_on_unpopular_heads() {
        let frequent_unpopular = eq2_weight(50, 2, 2);
        let rare_popular = eq2_weight(2, 20, 20);
        assert!(frequent_unpopular > rare_popular * 10.0);
    }
}

/// The Appendix-B instruction text shown to annotators for each question.
pub const QUESTION_INSTRUCTIONS: [(&str, &str); 5] = [
    (
        "Completeness",
        "the explanation must be a complete, meaningful sentence.",
    ),
    (
        "Relevance",
        "the explanation should be relevant i.e., very closely connected in \
         meaning to the products it refers to.",
    ),
    (
        "Informativeness",
        "each explanation describes the shopping behavior of a customer, and \
         in so doing, it should also specify what the user may be looking for \
         in terms of a product's functional requirements.",
    ),
    (
        "Plausibility",
        "the explanation should describe the user's shopping behavior in a \
         way that is accurate, reasonable and appropriate in the particular \
         context determined by the query.",
    ),
    (
        "Typicality",
        "although we may have equally valid inferences about a customer's \
         shopping intention, those statements can be ranked differently with \
         regard to how representative they are of typical user shopping \
         behavior given what is known about the queried product.",
    ),
];

/// Render one annotation task the way the vendor interface of Figure 11
/// presents it: the behaviour context, the candidate explanation, and the
/// five yes/no/not-sure questions with their Appendix-B instructions.
pub fn render_annotation_task(
    world: &World,
    candidate: &crate::filter::FilteredCandidate,
) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "=== Annotation task ===");
    match candidate.candidate.behavior {
        BehaviorRef::SearchBuy(q, p) => {
            let _ = writeln!(out, "Behavior: search-buy");
            let _ = writeln!(out, "  Query:   {}", world.query(q).text);
            let _ = writeln!(out, "  Product: {}", world.product(p).title);
        }
        BehaviorRef::CoBuy(p1, p2) => {
            let _ = writeln!(out, "Behavior: co-buy");
            let _ = writeln!(out, "  Product A: {}", world.product(p1).title);
            let _ = writeln!(out, "  Product B: {}", world.product(p2).title);
        }
    }
    let _ = writeln!(
        out,
        "Candidate explanation: {}",
        candidate.candidate.raw.trim()
    );
    if let Some(parsed) = &candidate.parsed {
        let _ = writeln!(
            out,
            "Parsed knowledge: [{}] {}",
            candidate.candidate.relation.name(),
            parsed.tail
        );
    }
    let _ = writeln!(out, "\nAnswer yes / no / not sure:");
    for (i, (name, instruction)) in QUESTION_INSTRUCTIONS.iter().enumerate() {
        let _ = writeln!(out, "  Q{}. {name}: {instruction}", i + 1);
    }
    out
}

#[cfg(test)]
mod render_tests {
    use super::*;
    use crate::filter::{CoarseFilter, FilterConfig};
    use cosmo_synth::WorldConfig;
    use cosmo_teacher::{Teacher, TeacherConfig};

    #[test]
    fn annotation_task_renders_all_five_questions() {
        let w = World::generate(WorldConfig::tiny(501));
        let log = cosmo_synth::BehaviorLog::generate(&w, &cosmo_synth::BehaviorConfig::tiny(502));
        let mut teacher = Teacher::new(&w, TeacherConfig::default());
        let sb = log.search_buys[0];
        let cand = teacher.generate_search_buy(sb.query, sb.product);
        let filter = CoarseFilter::fit(&cosmo_synth::corpus(&w), FilterConfig::default());
        let filtered = filter.filter(&w, vec![cand]);
        let rendered = render_annotation_task(&w, &filtered[0]);
        for q in [
            "Completeness",
            "Relevance",
            "Informativeness",
            "Plausibility",
            "Typicality",
        ] {
            assert!(rendered.contains(q), "missing question {q}");
        }
        assert!(rendered.contains("Query:"));
        assert!(rendered.contains("Candidate explanation:"));
    }

    #[test]
    fn cobuy_task_shows_both_products() {
        let w = World::generate(WorldConfig::tiny(501));
        let log = cosmo_synth::BehaviorLog::generate(&w, &cosmo_synth::BehaviorConfig::tiny(502));
        let mut teacher = Teacher::new(&w, TeacherConfig::default());
        let cb = log.cobuys[0];
        let cand = teacher.generate_cobuy(cb.p1, cb.p2);
        let filter = CoarseFilter::fit(&cosmo_synth::corpus(&w), FilterConfig::default());
        let filtered = filter.filter(&w, vec![cand]);
        let rendered = render_annotation_task(&w, &filtered[0]);
        assert!(rendered.contains("Product A:"));
        assert!(rendered.contains("Product B:"));
    }
}
