//! `score#` and `bestSplit#` (§4.6, §5.1, Appendix B.2).
//!
//! `bestSplit#(⟨T,n⟩)` must return *every* predicate that could be the
//! best split for *some* concretization. It scores each candidate as an
//! interval
//!
//! ```text
//! score#(⟨T,n⟩, φ) = |⟨T,n⟩↓#φ| · ent#(⟨T,n⟩↓#φ)
//!                  + |⟨T,n⟩↓#¬φ| · ent#(⟨T,n⟩↓#¬φ)
//! ```
//!
//! and keeps the candidates whose interval overlaps the *minimal interval*
//! — the one with the lowest upper bound (`lubΦ∀`) among the predicates
//! that split every concretization non-trivially (Φ∀). When Φ∀ is empty,
//! some concretization may admit no non-trivial split at all, so the null
//! predicate ⋄ joins the result alongside all of Φ∃.
//!
//! ## Candidate generation
//!
//! Boolean features contribute their concrete bit test. Real features
//! contribute one *symbolic* predicate `x_i ≤ [a, b)` per adjacent pair of
//! observed values in `T` (Appendix B.2) — a linear-size set that covers
//! the `≈ n·|T|` thresholds a concretization-aware enumeration would need.
//! Because the gap `(a, b)` contains no value of the *current* base set,
//! `⟨T,n⟩↓#ρ` at scoring time coincides with the prefix restriction, so one
//! sorted sweep per feature scores every candidate in O(k) each.

use antidote_data::{Dataset, FeatureKind, Subset};
use antidote_domains::trainset::side_score_from_counts;
use antidote_domains::{AbsPredicate, AbstractSet, CprobTransformer, Interval};
use antidote_tree::split::{bool_left_counts, dense_enough};
use antidote_tree::Predicate;

/// Slack used when comparing score-interval bounds: including a borderline
/// predicate is sound, excluding one is not, so comparisons lean inclusive.
const SCORE_EPS: f64 = 1e-9;

/// The result of `bestSplit#`: the kept candidate predicates and whether ⋄
/// is possible.
#[derive(Debug, Clone, PartialEq)]
pub struct AbsSplitResult {
    /// Predicates whose score interval overlaps the minimal interval.
    pub preds: Vec<AbsPredicate>,
    /// Whether some concretization may have no non-trivial split (Φ∀ = ∅).
    pub diamond: bool,
}

/// One scored candidate (exposed for diagnostics and tests).
#[derive(Debug, Clone, PartialEq)]
pub struct ScoredCandidate {
    /// The candidate predicate.
    pub pred: AbsPredicate,
    /// Its `score#` interval.
    pub score: Interval,
    /// Whether the candidate is in Φ∀ (non-trivial for every
    /// concretization): both sides keep more than `n` elements.
    pub forall: bool,
}

/// Reusable per-thread scratch for the candidate sweep: the class-count
/// accumulators and the sparse-path row gather buffer. `scored_candidates`
/// runs once per feature per live disjunct — the hottest loop of the
/// abstract learner — so these buffers are hoisted out of the call
/// entirely instead of being reallocated per disjunct.
struct SweepScratch {
    left: Vec<u32>,
    right: Vec<u32>,
    sparse_rows: Vec<u32>,
}

thread_local! {
    static SWEEP_SCRATCH: std::cell::RefCell<SweepScratch> =
        const {
            std::cell::RefCell::new(SweepScratch {
                left: Vec::new(),
                right: Vec::new(),
                sparse_rows: Vec::new(),
            })
        };
}

/// Scores every candidate predicate of `a` (all features), in deterministic
/// order.
pub fn scored_candidates(
    ds: &Dataset,
    a: &AbstractSet,
    transformer: CprobTransformer,
) -> Vec<ScoredCandidate> {
    SWEEP_SCRATCH
        .with(|scratch| scored_candidates_with(ds, a, transformer, &mut scratch.borrow_mut()))
}

fn scored_candidates_with(
    ds: &Dataset,
    a: &AbstractSet,
    transformer: CprobTransformer,
    scratch: &mut SweepScratch,
) -> Vec<ScoredCandidate> {
    let n = a.n();
    let base = a.base();
    let total_counts = base.class_counts();
    let total_len = a.len();
    let k = total_counts.len();
    // Pre-size for the common shape: one candidate per adjacent value
    // pair of the first feature, amortised growth for the rest.
    let mut out = Vec::with_capacity(base.len().max(8));
    let SweepScratch {
        left,
        right,
        sparse_rows,
    } = scratch;
    left.clear();
    left.resize(k, 0);
    right.clear();
    right.resize(k, 0);
    let dense = dense_enough(base.len(), ds.len());
    for (feature, feat) in ds.schema().features().iter().enumerate() {
        if feat.kind == FeatureKind::Bool {
            out.extend(bool_candidate(
                ds,
                base,
                feature,
                total_counts,
                n,
                transformer,
                left,
                right,
            ));
            continue;
        }
        // Dense base sets walk the dataset's precomputed value order
        // restricted by the O(1) bit test — no per-disjunct gather + sort
        // (this sweep runs once per feature per live disjunct and was the
        // hottest loop of the abstract learner); sparse fragments gather
        // and stably sort their own rows instead of scanning the whole
        // order. Both equal a stable sort of the base's rows, so
        // candidates are generated in the exact historical sequence.
        left.iter_mut().for_each(|c| *c = 0);
        let mut left_len = 0usize;
        let mut prev = f64::NAN;
        let mut step = |row: u32, out: &mut Vec<ScoredCandidate>| {
            let v = ds.value(row, feature);
            // `left_len` rows strictly precede the threshold candidate.
            if left_len > 0 && v > prev {
                let right_len = total_len - left_len;
                for (r, (&t, &l)) in right.iter_mut().zip(total_counts.iter().zip(left.iter())) {
                    *r = t - l;
                }
                let score = score_interval_from_sides(
                    left.as_slice(),
                    left_len,
                    right.as_slice(),
                    right_len,
                    n,
                    transformer,
                );
                let pred = AbsPredicate::Symbolic {
                    feature,
                    lo: prev,
                    hi: v,
                };
                out.push(ScoredCandidate {
                    pred,
                    score,
                    forall: left_len > n && right_len > n,
                });
            }
            left[ds.label(row) as usize] += 1;
            prev = v;
            left_len += 1;
        };
        if dense {
            for &row in ds.feature_order(feature) {
                if base.contains(row) {
                    step(row, &mut out);
                }
            }
        } else {
            sparse_rows.clear();
            sparse_rows.extend(base.iter());
            sparse_rows.sort_by(|&a, &b| ds.value(a, feature).total_cmp(&ds.value(b, feature)));
            for &row in sparse_rows.iter() {
                step(row, &mut out);
            }
        }
    }
    out
}

/// The one candidate of boolean `feature`, its bit test, scored from the
/// AND-popcount of its 0 side ([`bool_left_counts`]) instead of a walk
/// over the feature order; `None` when the base set holds only one of
/// the two values. The score arithmetic is the walk's, so the candidate
/// is bit-identical to the one the walk would emit.
///
/// Kept out of line, and fed only values the caller's loop already
/// holds, so the real-feature walk in [`scored_candidates_with`]
/// compiles as it did before: variants that passed the abstract set or
/// a context struct instead ran the wdbc Disjuncts ladder 5–10% slower
/// (2 vCPU).
#[inline(never)]
#[allow(clippy::too_many_arguments)]
fn bool_candidate(
    ds: &Dataset,
    base: &Subset,
    feature: usize,
    total_counts: &[u32],
    n: usize,
    transformer: CprobTransformer,
    left: &mut [u32],
    right: &mut [u32],
) -> Option<ScoredCandidate> {
    let left_len = bool_left_counts(ds, base, feature, left)?;
    let right_len = base.len() - left_len;
    for (r, (&t, &l)) in right.iter_mut().zip(total_counts.iter().zip(left.iter())) {
        *r = t - l;
    }
    Some(ScoredCandidate {
        pred: AbsPredicate::Concrete(Predicate::boolean(feature)),
        score: score_interval_from_sides(left, left_len, right, right_len, n, transformer),
        forall: left_len > n && right_len > n,
    })
}

/// `score#` from the two sides' class counts: each side contributes
/// `[len − n', len] · ent#(counts, n')` with `n' = min(n, len)`.
///
/// At candidate-generation time the symbolic gap `(a, b)` contains no value
/// of the base set, so both endpoint restrictions of `⟨T,n⟩↓#ρ` coincide
/// with the prefix and this formula is exactly the paper's `score#`.
pub fn score_interval_from_sides(
    left: &[u32],
    left_len: usize,
    right: &[u32],
    right_len: usize,
    n: usize,
    transformer: CprobTransformer,
) -> Interval {
    side_term(left, left_len, n, transformer) + side_term(right, right_len, n, transformer)
}

fn side_term(counts: &[u32], len: usize, n: usize, transformer: CprobTransformer) -> Interval {
    // Fused `[len − n', len] · ent#` — bit-identical to the compositional
    // form (see `side_score_from_counts`), minus the per-class interval
    // plumbing that dominated the dense sweep's profile.
    side_score_from_counts(counts, len, n, transformer)
}

/// `score#(⟨T,n⟩, ρ)` for an explicit abstract predicate, built from the
/// restriction transformers (used by tests to cross-check the sweep and by
/// Lemma B.5-style soundness properties).
pub fn score_interval(
    ds: &Dataset,
    a: &AbstractSet,
    pred: &AbsPredicate,
    transformer: CprobTransformer,
) -> Interval {
    let yes = pred.restrict(ds, a);
    let no = pred.restrict_neg(ds, a);
    let term = |s: &AbstractSet| s.size_interval() * s.ent_interval(transformer);
    term(&yes) + term(&no)
}

/// `bestSplit#(⟨T,n⟩)` (§4.6):
///
/// * if Φ∀ = ∅ — return Φ∃ ∪ {⋄};
/// * otherwise — return `{φ ∈ Φ∃ : lb(score#(φ)) ≤ lubΦ∀}` where `lubΦ∀`
///   is the lowest upper bound among Φ∀ scores.
///
/// Φ∃ membership is structural here: every generated candidate splits the
/// *base set* non-trivially by construction (boolean candidates only appear
/// when both bit values occur; symbolic candidates sit between two observed
/// values), which is exactly `⟨T,n⟩↓#φ ≠ ⟨∅,·⟩ ∧ ⟨T,n⟩↓#¬φ ≠ ⟨∅,·⟩`.
pub fn best_split_abs(
    ds: &Dataset,
    a: &AbstractSet,
    transformer: CprobTransformer,
) -> AbsSplitResult {
    let cands = scored_candidates(ds, a, transformer);
    select_from_candidates(&cands)
}

/// The selection rule of `bestSplit#`, separated so tests can drive it with
/// hand-built candidate lists.
pub fn select_from_candidates(cands: &[ScoredCandidate]) -> AbsSplitResult {
    let lub = cands
        .iter()
        .filter(|c| c.forall)
        .map(|c| c.score.ub())
        .min_by(f64::total_cmp);
    match lub {
        None => AbsSplitResult {
            preds: cands.iter().map(|c| c.pred).collect(),
            diamond: true,
        },
        Some(lub) => AbsSplitResult {
            preds: cands
                .iter()
                .filter(|c| c.score.lb() <= lub + SCORE_EPS)
                .map(|c| c.pred)
                .collect(),
            diamond: false,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use antidote_data::{synth, Schema, Subset};
    use antidote_tree::split::{best_split, score_split};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    #[test]
    fn n_zero_reduces_to_concrete_best_split() {
        // With no poisoning the score intervals are points, Φ∀ = Φ', and
        // the kept set is exactly the concrete argmin (all ties).
        let ds = synth::figure2();
        let a = AbstractSet::full(&ds, 0);
        let r = best_split_abs(&ds, &a, CprobTransformer::Optimal);
        assert!(!r.diamond);
        let concrete = best_split(&ds, &Subset::full(&ds)).unwrap();
        assert_eq!(r.preds.len(), 1);
        assert!(r.preds[0].concretizes(&concrete.predicate));
    }

    #[test]
    fn figure2_n2_keeps_x_le_10() {
        // §2: no matter which 2 elements are dropped, x ≤ 10 remains a
        // best split — so it must be among the returned predicates.
        let ds = synth::figure2();
        let a = AbstractSet::full(&ds, 2);
        let r = best_split_abs(&ds, &a, CprobTransformer::Optimal);
        assert!(
            !r.diamond,
            "with n=2 < sides, some predicate is always non-trivial"
        );
        let target = Predicate {
            feature: 0,
            threshold: 10.5,
        };
        assert!(
            r.preds.iter().any(|p| p.concretizes(&target)),
            "x <= 10 must be a candidate best split"
        );
    }

    #[test]
    fn diamond_when_budget_swallows_a_side() {
        // Two rows, one feature value apart, n = 1: dropping either row
        // leaves a singleton where every split is trivial → Φ∀ = ∅.
        let ds = antidote_data::Dataset::from_rows(
            Schema::real(1, 2),
            &[(vec![0.0], 0), (vec![1.0], 1)],
        )
        .unwrap();
        let a = AbstractSet::full(&ds, 1);
        let r = best_split_abs(&ds, &a, CprobTransformer::Optimal);
        assert!(r.diamond);
        // Φ∃ is still returned.
        assert_eq!(r.preds.len(), 1);
    }

    #[test]
    fn no_candidates_gives_diamond_only() {
        let ds = antidote_data::Dataset::from_rows(
            Schema::real(1, 2),
            &[(vec![3.0], 0), (vec![3.0], 1)],
        )
        .unwrap();
        let a = AbstractSet::full(&ds, 0);
        let r = best_split_abs(&ds, &a, CprobTransformer::Optimal);
        assert!(r.diamond);
        assert!(r.preds.is_empty());
    }

    #[test]
    fn example_4_9_selection_rule() {
        // Four intervals as in Example 4.9: φ₁ has the lowest upper bound;
        // φ₁, φ₂, φ₃ overlap it; φ₄ lies strictly above.
        let mk = |lo: f64, hi: f64, i: usize| ScoredCandidate {
            pred: AbsPredicate::Concrete(Predicate {
                feature: i,
                threshold: 0.0,
            }),
            score: Interval::new(lo, hi),
            forall: true,
        };
        let cands = vec![
            mk(1.0, 3.0, 1),
            mk(2.0, 5.0, 2),
            mk(2.5, 6.0, 3),
            mk(3.5, 7.0, 4),
        ];
        let r = select_from_candidates(&cands);
        assert!(!r.diamond);
        let kept: Vec<usize> = r.preds.iter().map(|p| p.feature()).collect();
        assert_eq!(kept, vec![1, 2, 3]);
    }

    #[test]
    fn sweep_scores_match_restriction_scores() {
        // The prefix-sweep score# must equal the restriction-based score#
        // for every candidate (they are the same definition).
        let ds = synth::figure2();
        let a = AbstractSet::full(&ds, 2);
        for c in scored_candidates(&ds, &a, CprobTransformer::Optimal) {
            let via_restrict = score_interval(&ds, &a, &c.pred, CprobTransformer::Optimal);
            assert!(
                (c.score.lb() - via_restrict.lb()).abs() < 1e-9
                    && (c.score.ub() - via_restrict.ub()).abs() < 1e-9,
                "{}: sweep {} vs restrict {}",
                c.pred,
                c.score,
                via_restrict
            );
        }
    }

    #[test]
    fn boolean_features_get_concrete_candidates() {
        let ds = antidote_data::Dataset::from_rows(
            Schema::boolean(2, 2),
            &[
                (vec![0.0, 0.0], 0),
                (vec![1.0, 0.0], 1),
                (vec![0.0, 1.0], 0),
                (vec![1.0, 1.0], 1),
            ],
        )
        .unwrap();
        let a = AbstractSet::full(&ds, 1);
        let cands = scored_candidates(&ds, &a, CprobTransformer::Optimal);
        assert_eq!(cands.len(), 2);
        assert!(cands
            .iter()
            .all(|c| matches!(c.pred, AbsPredicate::Concrete(p) if p.threshold == 0.5)));
    }

    /// Builds a small random dataset, its abstraction, and a sampled
    /// concretization subset.
    fn random_instance(seed: u64) -> (antidote_data::Dataset, AbstractSet, Subset) {
        let mut rng = StdRng::seed_from_u64(seed);
        let len = rng.random_range(2..16usize);
        let k = rng.random_range(2..4usize);
        let rows: Vec<(Vec<f64>, u16)> = (0..len)
            .map(|_| {
                (
                    vec![rng.random_range(0..6) as f64, rng.random_range(0..4) as f64],
                    rng.random_range(0..k) as u16,
                )
            })
            .collect();
        let ds = antidote_data::Dataset::from_rows(Schema::real(2, k), &rows).unwrap();
        let n = rng.random_range(0..len); // keep at least one element
        let abs = AbstractSet::full(&ds, n);
        let drop = rng.random_range(0..=n);
        let mut idx: Vec<u32> = (0..len as u32).collect();
        idx.shuffle(&mut rng);
        idx.truncate(len - drop);
        let t_prime = Subset::from_indices(&ds, idx);
        (ds, abs, t_prime)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Lemma 4.10 / B.5: bestSplit(T') ∈ γ(bestSplit#(⟨T,n⟩)).
        #[test]
        fn best_split_soundness(seed in 0u64..1_000_000) {
            let (ds, abs, t_prime) = random_instance(seed);
            if t_prime.is_empty() {
                return Ok(());
            }
            let r = best_split_abs(&ds, &abs, CprobTransformer::Optimal);
            match best_split(&ds, &t_prime) {
                None => prop_assert!(r.diamond, "concrete ⋄ must be covered"),
                Some(choice) => {
                    prop_assert!(
                        r.preds.iter().any(|p| p.concretizes(&choice.predicate)),
                        "concrete best split {} (score {}) not covered; kept {:?}",
                        choice.predicate,
                        choice.score,
                        r.preds
                    );
                }
            }
        }

        /// score# soundness: score(T', φ) ∈ score#(⟨T,n⟩, ρ) for φ ∈ γ(ρ).
        #[test]
        fn score_interval_soundness(seed in 0u64..1_000_000) {
            let (ds, abs, t_prime) = random_instance(seed);
            if t_prime.is_empty() {
                return Ok(());
            }
            // Check the concrete candidates of T' against their covering
            // abstract candidates.
            let concrete_preds = antidote_tree::predicate::candidate_predicates(&ds, &t_prime);
            let abs_cands = scored_candidates(&ds, &abs, CprobTransformer::Optimal);
            for cp in concrete_preds {
                let cscore = score_split(&ds, &t_prime, &cp);
                // Some abstract candidate must cover cp (γ-membership)…
                let cover: Vec<_> =
                    abs_cands.iter().filter(|c| c.pred.concretizes(&cp)).collect();
                prop_assert!(!cover.is_empty(), "no abstract candidate covers {cp}");
                // …and via the restriction-based score#, its interval must
                // contain the concrete score.
                for c in cover {
                    let iv = score_interval(&ds, &abs, &c.pred, CprobTransformer::Optimal);
                    prop_assert!(
                        iv.lb() - 1e-6 <= cscore && cscore <= iv.ub() + 1e-6,
                        "score {cscore} of {cp} outside {iv} of {}",
                        c.pred
                    );
                }
            }
        }
    }
}
