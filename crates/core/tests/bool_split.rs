//! Boolean features are scored by AND-popcount, not by a row walk.
//!
//! Both threshold sweeps — the abstract `scored_candidates` behind
//! `bestSplit#` and the concrete `sweep_feature` behind `best_split`,
//! `DTrace` and `best_split_flip` — count a boolean feature's `x ≤ 0.5`
//! side from the subset's words, the feature's 0-mask and the class
//! masks. This suite keeps the row walk those sweeps used before as a
//! test-only oracle ([`walk_feature`]) that treats every feature alike,
//! and checks on boolean and mixed bool/real schemas — dense and sparse
//! subsets, constant columns, and epochs after removals, label flips and
//! appends — that the three entry points produce the walk's answers bit
//! for bit: same candidates in the same order, same predicates, same
//! `forall` flags, same score bits.

use antidote_core::flip::best_split_flip;
use antidote_core::score::{score_interval_from_sides, scored_candidates, ScoredCandidate};
use antidote_data::dataset::Feature;
use antidote_data::synth::one_hot_categorical;
use antidote_data::{ClassId, Dataset, DatasetDelta, FeatureKind, RowId, Schema, Subset};
use antidote_domains::flipset::score_interval_flip;
use antidote_domains::{AbsPredicate, AbstractSet, CprobTransformer, FlipSet};
use antidote_tree::predicate::midpoint;
use antidote_tree::split::{best_split, dense_enough, SplitChoice};
use antidote_tree::Predicate;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

// ---------------------------------------------------------------------
// The oracle: the row walk, for every feature kind.
// ---------------------------------------------------------------------

/// Visits the subset's rows of `feature` in ascending value order (ties
/// by row id) and calls `visit(prev, next, left_counts, left_len)` at
/// every boundary between two adjacent distinct values. Dense subsets
/// filter the dataset's precomputed order; sparse ones sort their own
/// rows, exactly as the sweeps did before boolean features got their
/// word path.
fn walk_feature(
    ds: &Dataset,
    subset: &Subset,
    feature: usize,
    mut visit: impl FnMut(f64, f64, &[u32], usize),
) {
    let rows: Vec<RowId> = if dense_enough(subset.len(), ds.len()) {
        ds.feature_order(feature)
            .iter()
            .copied()
            .filter(|&r| subset.contains(r))
            .collect()
    } else {
        let mut rows: Vec<RowId> = subset.iter().collect();
        rows.sort_by(|&a, &b| ds.value(a, feature).total_cmp(&ds.value(b, feature)));
        rows
    };
    let mut left = vec![0u32; subset.n_classes()];
    let mut prev = f64::NAN;
    for (seen, &r) in rows.iter().enumerate() {
        let v = ds.value(r, feature);
        if seen > 0 && v > prev {
            visit(prev, v, &left, seen);
        }
        left[ds.label(r) as usize] += 1;
        prev = v;
    }
}

/// `total − left`, per class.
fn rest(total: &[u32], left: &[u32]) -> Vec<u32> {
    total.iter().zip(left).map(|(&t, &l)| t - l).collect()
}

/// `scored_candidates` by the walk.
fn walk_scored_candidates(
    ds: &Dataset,
    a: &AbstractSet,
    transformer: CprobTransformer,
) -> Vec<ScoredCandidate> {
    let (base, n) = (a.base(), a.n());
    let mut out = Vec::new();
    for (feature, feat) in ds.schema().features().iter().enumerate() {
        walk_feature(ds, base, feature, |lo, hi, left, left_len| {
            let right = rest(base.class_counts(), left);
            let right_len = base.len() - left_len;
            let pred = match feat.kind {
                FeatureKind::Bool => AbsPredicate::Concrete(Predicate::boolean(feature)),
                FeatureKind::Real => AbsPredicate::Symbolic { feature, lo, hi },
            };
            out.push(ScoredCandidate {
                pred,
                score: score_interval_from_sides(left, left_len, &right, right_len, n, transformer),
                forall: left_len > n && right_len > n,
            });
        });
    }
    out
}

/// `|T|·ent(T)` from counts whose total is `len`.
fn weighted_gini(counts: &[u32], len: usize) -> f64 {
    if len == 0 {
        return 0.0;
    }
    let t = len as f64;
    let sq: f64 = counts.iter().map(|&c| (c as f64) * (c as f64)).sum();
    t - sq / t
}

/// The concrete `best_split` by the walk (ties by predicate order).
fn walk_best_split(ds: &Dataset, subset: &Subset) -> Option<SplitChoice> {
    let mut best: Option<SplitChoice> = None;
    for feature in 0..ds.n_features() {
        walk_feature(ds, subset, feature, |lo, hi, left, left_len| {
            let right = rest(subset.class_counts(), left);
            let score =
                weighted_gini(left, left_len) + weighted_gini(&right, subset.len() - left_len);
            let predicate = Predicate {
                feature,
                threshold: midpoint(lo, hi),
            };
            let better = match &best {
                None => true,
                Some(b) => score < b.score || (score == b.score && predicate < b.predicate),
            };
            if better {
                best = Some(SplitChoice { predicate, score });
            }
        });
    }
    best
}

/// `best_split_flip` by the walk.
fn walk_best_split_flip(ds: &Dataset, f: &FlipSet) -> (Vec<Predicate>, bool) {
    let mut cands: Vec<(Predicate, f64, f64)> = Vec::new();
    for feature in 0..ds.n_features() {
        walk_feature(ds, f.subset(), feature, |lo, hi, left, _| {
            let right = rest(f.subset().class_counts(), left);
            let iv = score_interval_flip(left, &right, f.n());
            let threshold = midpoint(lo, hi);
            cands.push((Predicate { feature, threshold }, iv.lb(), iv.ub()));
        });
    }
    if cands.is_empty() {
        return (Vec::new(), true);
    }
    let lub = cands.iter().map(|c| c.2).fold(f64::MAX, f64::min);
    let kept = cands
        .into_iter()
        .filter(|c| c.1 <= lub + 1e-9)
        .map(|c| c.0)
        .collect();
    (kept, false)
}

// ---------------------------------------------------------------------
// Bit-level comparison keys.
// ---------------------------------------------------------------------

/// A predicate as plain bits: `(kind, feature, lo bits, hi bits)`, with
/// concrete predicates carrying their threshold as `lo`.
fn pred_key(p: &AbsPredicate) -> (u8, usize, u64, u64) {
    match *p {
        AbsPredicate::Concrete(q) => (0, q.feature, q.threshold.to_bits(), 0),
        AbsPredicate::Symbolic { feature, lo, hi } => (1, feature, lo.to_bits(), hi.to_bits()),
    }
}

type CandKey = ((u8, usize, u64, u64), bool, u64, u64);

fn cand_keys(cands: &[ScoredCandidate]) -> Vec<CandKey> {
    cands
        .iter()
        .map(|c| {
            (
                pred_key(&c.pred),
                c.forall,
                c.score.lb().to_bits(),
                c.score.ub().to_bits(),
            )
        })
        .collect()
}

fn choice_key(c: Option<SplitChoice>) -> Option<(usize, u64, u64)> {
    c.map(|c| {
        (
            c.predicate.feature,
            c.predicate.threshold.to_bits(),
            c.score.to_bits(),
        )
    })
}

fn flip_key((preds, diamond): (Vec<Predicate>, bool)) -> (Vec<(usize, u64)>, bool) {
    let preds = preds
        .iter()
        .map(|p| (p.feature, p.threshold.to_bits()))
        .collect();
    (preds, diamond)
}

/// Checks all three entry points against the walk on one subset.
fn check_subset(ds: &Dataset, subset: &Subset, n: usize) -> Result<(), TestCaseError> {
    let a = AbstractSet::new(subset.clone(), n);
    for transformer in [CprobTransformer::Optimal, CprobTransformer::Natural] {
        prop_assert_eq!(
            cand_keys(&scored_candidates(ds, &a, transformer)),
            cand_keys(&walk_scored_candidates(ds, &a, transformer)),
            "scored_candidates diverged from the walk ({:?}, |S| = {}, n = {})",
            transformer,
            subset.len(),
            n
        );
    }
    prop_assert_eq!(
        choice_key(best_split(ds, subset)),
        choice_key(walk_best_split(ds, subset)),
        "best_split diverged from the walk (|S| = {})",
        subset.len()
    );
    let f = FlipSet::new(subset.clone(), n);
    prop_assert_eq!(
        flip_key(best_split_flip(ds, &f)),
        flip_key(walk_best_split_flip(ds, &f)),
        "best_split_flip diverged from the walk (|S| = {}, n = {})",
        subset.len(),
        n
    );
    Ok(())
}

// ---------------------------------------------------------------------
// Instances.
// ---------------------------------------------------------------------

/// How one generated column is filled.
#[derive(Debug, Clone, Copy)]
enum ColumnFill {
    /// Boolean bits set with the given probability.
    Bits(f64),
    /// A boolean column holding only 0.
    AllZero,
    /// A boolean column holding only 1.
    AllOne,
    /// Small integers (many ties), as reals.
    Real,
}

impl ColumnFill {
    fn kind(self) -> FeatureKind {
        match self {
            ColumnFill::Real => FeatureKind::Real,
            _ => FeatureKind::Bool,
        }
    }

    fn draw(self, rng: &mut StdRng) -> f64 {
        match self {
            ColumnFill::Bits(p) => f64::from(u8::from(rng.random::<f64>() < p)),
            ColumnFill::AllZero => 0.0,
            ColumnFill::AllOne => 1.0,
            ColumnFill::Real => f64::from(rng.random_range(0..5u32)),
        }
    }
}

/// A random dataset: `fills` columns, `rows` rows, `k` classes.
fn random_dataset(fills: &[ColumnFill], rows: usize, k: usize, rng: &mut StdRng) -> Dataset {
    let features = fills
        .iter()
        .enumerate()
        .map(|(i, f)| Feature {
            name: format!("f{i}"),
            kind: f.kind(),
        })
        .collect();
    let classes = (0..k).map(|c| format!("c{c}")).collect();
    let schema = Schema::new(features, classes).expect("valid schema");
    let data: Vec<(Vec<f64>, ClassId)> = (0..rows)
        .map(|_| {
            let values = fills.iter().map(|f| f.draw(rng)).collect();
            (values, rng.random_range(0..k) as ClassId)
        })
        .collect();
    Dataset::from_rows(schema, &data).expect("valid rows")
}

fn random_fills(n_features: usize, with_real: bool, rng: &mut StdRng) -> Vec<ColumnFill> {
    (0..n_features)
        .map(
            |_| match rng.random_range(0..if with_real { 6 } else { 5 }) {
                0 => ColumnFill::AllZero,
                1 => ColumnFill::AllOne,
                5 => ColumnFill::Real,
                _ => ColumnFill::Bits(rng.random_range(0.05..0.95)),
            },
        )
        .collect()
}

/// A dense subset (each live row kept with probability `keep`, at least
/// an eighth of the rows) and a sparse one (fewer than an eighth).
fn subsets(ds: &Dataset, keep: f64, rng: &mut StdRng) -> [Subset; 2] {
    let live: Vec<RowId> = ds.rows().collect();
    let mut dense: Vec<RowId> = live
        .iter()
        .copied()
        .filter(|_| rng.random::<f64>() < keep)
        .collect();
    if !dense_enough(dense.len(), ds.len()) {
        dense = live.clone();
    }
    let sparse_len = (ds.len().saturating_sub(1) / 8).min(live.len());
    let sparse: Vec<RowId> = (0..sparse_len)
        .map(|_| live[rng.random_range(0..live.len())])
        .collect();
    let sparse = Subset::from_indices(ds, sparse);
    assert!(!dense_enough(sparse.len(), ds.len()) || sparse.is_empty());
    [Subset::from_indices(ds, dense), sparse]
}

/// One random epoch step: removals, label flips and appends.
fn random_delta(ds: &Dataset, fills: &[ColumnFill], rng: &mut StdRng) -> DatasetDelta {
    let live: Vec<RowId> = ds.rows().collect();
    let mut delta = DatasetDelta::new();
    let mut touched = std::collections::BTreeSet::new();
    for _ in 0..rng.random_range(0..=live.len() / 4) {
        let r = live[rng.random_range(0..live.len())];
        if touched.insert(r) {
            delta.remove(r);
        }
    }
    for _ in 0..rng.random_range(0..=live.len() / 4) {
        let r = live[rng.random_range(0..live.len())];
        if touched.insert(r) {
            delta.flip_label(r, rng.random_range(0..ds.n_classes()) as ClassId);
        }
    }
    for _ in 0..rng.random_range(0..=70usize) {
        let values: Vec<f64> = fills.iter().map(|f| f.draw(rng)).collect();
        delta.append(&values, rng.random_range(0..ds.n_classes()) as ClassId);
    }
    delta
}

/// Checks a dataset and up to three later epochs of it. With `warm`,
/// each epoch is checked (building its boolean indexes) before the next
/// one is derived, so later epochs see bit-patched indexes; without, the
/// last epoch builds its own.
fn check_epochs(
    mut ds: Dataset,
    fills: &[ColumnFill],
    epochs: usize,
    warm: bool,
    rng: &mut StdRng,
) -> Result<(), TestCaseError> {
    for epoch in 0..=epochs {
        if warm || epoch == epochs {
            let keep = rng.random_range(0.2..1.0);
            for subset in subsets(&ds, keep, rng) {
                check_subset(&ds, &subset, rng.random_range(0..6))?;
            }
        }
        if epoch < epochs {
            let delta = random_delta(&ds, fills, rng);
            let next = ds.apply(&delta).expect("valid delta");
            if next.is_empty() {
                break;
            }
            ds = next;
        }
    }
    Ok(())
}

proptest! {
    /// All-boolean schemas, 1–6 features, up to 3 classes and 3 epochs.
    #[test]
    fn boolean_schemas_match_the_walk(
        seed in 0u64..u64::MAX,
        n_features in 1usize..7,
        rows in 1usize..200,
        (k, epochs, warm) in (2usize..4, 0usize..4, 0u8..2),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let fills = random_fills(n_features, false, &mut rng);
        let ds = random_dataset(&fills, rows, k, &mut rng);
        check_epochs(ds, &fills, epochs, warm == 1, &mut rng)?;
    }

    /// Mixed bool/real schemas: real columns keep the walk, so the full
    /// candidate list interleaves both kinds in feature order.
    #[test]
    fn mixed_schemas_match_the_walk(
        seed in 0u64..u64::MAX,
        n_features in 2usize..7,
        rows in 1usize..200,
        (k, epochs, warm) in (2usize..4, 0usize..4, 0u8..2),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut fills = random_fills(n_features, true, &mut rng);
        fills[rng.random_range(0..n_features)] = ColumnFill::Real;
        let ds = random_dataset(&fills, rows, k, &mut rng);
        check_epochs(ds, &fills, epochs, warm == 1, &mut rng)?;
    }

    /// One-hot categorical data: every category column is sparse, and the
    /// two noise columns are fair coins.
    #[test]
    fn one_hot_categorical_matches_the_walk(
        seed in 0u64..u64::MAX,
        categories in 1usize..6,
        rows in 1usize..160,
        (epochs, warm) in (0usize..3, 0u8..2),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let ds = one_hot_categorical(categories, rows, 0.1, seed);
        let mut fills = vec![ColumnFill::Bits(1.0 / categories as f64); categories];
        fills.extend([ColumnFill::Bits(0.5); 2]);
        check_epochs(ds, &fills, epochs, warm == 1, &mut rng)?;
    }
}

/// The mnist stand-in at full width (784 pixels) on a small row count:
/// the shape the committed `ladder-mnist-box` workload runs.
#[test]
fn mnist_binary_matches_the_walk() {
    let ds = antidote_data::synth::mnist17_like(antidote_data::synth::MnistVariant::Binary, 150, 3);
    let mut rng = StdRng::seed_from_u64(11);
    for subset in subsets(&ds, 0.7, &mut rng) {
        for n in [0, 2, 9] {
            check_subset(&ds, &subset, n).unwrap();
        }
    }
}
