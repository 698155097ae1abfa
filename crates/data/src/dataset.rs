//! Immutable, columnar labelled datasets.
//!
//! A [`Dataset`] stores features column-major so that split-search sweeps
//! (the hot loop of both the concrete and the abstract learner) touch one
//! contiguous column at a time. Datasets are immutable after construction;
//! every later stage of the pipeline works with [`crate::Subset`] index
//! views instead of copying rows.
//!
//! # Epochs and deltas
//!
//! A dataset is *versioned*: every dataset carries an [`Dataset::epoch`]
//! stamp, and [`Dataset::apply`] turns a [`DatasetDelta`] (appends, row
//! removals, label flips) into a **new** dataset at `epoch + 1` without
//! touching — or rebuilding — the original. Row ids are *stable slots*:
//! a removed row's id is never reused and never remapped, so certificates,
//! witnesses, and caches keyed by row id stay meaningful across epochs.
//! Dead slots keep their storage but are excluded from the live-row mask,
//! the class masks, and every subset built via [`crate::Subset::full`];
//! the split sweeps filter the per-feature orders by subset membership, so
//! dead slots can never contribute a candidate threshold. Unchanged
//! storage (columns, labels, per-feature orders, built threshold indexes)
//! is structurally shared between epochs wherever the delta leaves it
//! valid, and *patched* behind fresh cells where it does not — an old
//! epoch's clone can never observe a patched index.

use crate::error::DataError;
use crate::{ClassId, RowId};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, OnceLock};

/// The kind of values a feature column holds.
///
/// The paper distinguishes Boolean predicates (MNIST-1-7-Binary) from
/// real-valued features with dynamically chosen thresholds (§5.1); the
/// distinction lives here, on the column, and the predicate generator in
/// `antidote-tree` consults it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FeatureKind {
    /// Boolean feature: predicates test the bit directly.
    Bool,
    /// Real-valued feature: predicates are thresholds `x_i ≤ τ` with τ chosen
    /// between adjacent observed values.
    Real,
}

/// Description of one feature column.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Feature {
    /// Human-readable feature name (used by CSV I/O and diagnostics).
    pub name: String,
    /// Kind of values this feature holds.
    pub kind: FeatureKind,
}

/// Dataset schema: feature descriptions plus class names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    features: Vec<Feature>,
    classes: Vec<String>,
}

impl Schema {
    /// Creates a schema from feature descriptions and class names.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::EmptySchema`] if either list is empty.
    pub fn new(features: Vec<Feature>, classes: Vec<String>) -> Result<Self, DataError> {
        if features.is_empty() || classes.is_empty() {
            return Err(DataError::EmptySchema);
        }
        Ok(Schema { features, classes })
    }

    /// Convenience constructor: `n` real-valued features named `x0..` and
    /// classes named `c0..`.
    ///
    /// # Panics
    ///
    /// Panics if `n_features` or `n_classes` is zero.
    pub fn real(n_features: usize, n_classes: usize) -> Self {
        Self::homogeneous(n_features, n_classes, FeatureKind::Real)
    }

    /// Convenience constructor: `n` boolean features named `x0..` and classes
    /// named `c0..`.
    ///
    /// # Panics
    ///
    /// Panics if `n_features` or `n_classes` is zero.
    pub fn boolean(n_features: usize, n_classes: usize) -> Self {
        Self::homogeneous(n_features, n_classes, FeatureKind::Bool)
    }

    fn homogeneous(n_features: usize, n_classes: usize, kind: FeatureKind) -> Self {
        assert!(n_features > 0 && n_classes > 0, "schema must be non-empty");
        Schema {
            features: (0..n_features)
                .map(|i| Feature {
                    name: format!("x{i}"),
                    kind,
                })
                .collect(),
            classes: (0..n_classes).map(|i| format!("c{i}")).collect(),
        }
    }

    /// The feature descriptions, in column order.
    pub fn features(&self) -> &[Feature] {
        &self.features
    }

    /// The class names, indexed by [`ClassId`].
    pub fn classes(&self) -> &[String] {
        &self.classes
    }

    /// Number of feature columns.
    pub fn n_features(&self) -> usize {
        self.features.len()
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.classes.len()
    }

    /// Checks one row of feature values against the schema: the right
    /// number of values, finite reals, and exactly 0 or 1 in bool
    /// columns. The one value check behind [`DatasetBuilder::push_row`],
    /// appended delta rows, and the service's query points; `row` only
    /// labels the error.
    ///
    /// # Errors
    ///
    /// * [`DataError::ArityMismatch`] — wrong number of values;
    /// * [`DataError::NonFiniteValue`] — NaN/∞ in a real column;
    /// * [`DataError::NotBoolean`] — value other than 0/1 in a bool column.
    pub fn check_values(&self, values: &[f64], row: usize) -> Result<(), DataError> {
        if values.len() != self.n_features() {
            return Err(DataError::ArityMismatch {
                row,
                got: values.len(),
                expected: self.n_features(),
            });
        }
        for (feature, (&v, f)) in values.iter().zip(&self.features).enumerate() {
            match f.kind {
                FeatureKind::Real if !v.is_finite() => {
                    return Err(DataError::NonFiniteValue { row, feature });
                }
                FeatureKind::Bool if v != 0.0 && v != 1.0 => {
                    return Err(DataError::NotBoolean {
                        row,
                        feature,
                        value: v,
                    });
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Renames the classes (e.g. `["white", "black"]`). Extra names are
    /// ignored; missing names keep their defaults.
    pub fn with_class_names<I: IntoIterator<Item = S>, S: Into<String>>(
        mut self,
        names: I,
    ) -> Self {
        for (slot, name) in self.classes.iter_mut().zip(names) {
            *slot = name.into();
        }
        self
    }
}

/// One feature column of a dataset.
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    /// A boolean column.
    Bool(Vec<bool>),
    /// A real-valued column (always finite).
    Real(Vec<f64>),
}

impl Column {
    /// Value at `row`, as `f64` (`false → 0.0`, `true → 1.0`).
    #[inline]
    pub fn value(&self, row: RowId) -> f64 {
        match self {
            Column::Bool(v) => {
                if v[row as usize] {
                    1.0
                } else {
                    0.0
                }
            }
            Column::Real(v) => v[row as usize],
        }
    }

    /// Number of rows in the column.
    pub fn len(&self) -> usize {
        match self {
            Column::Bool(v) => v.len(),
            Column::Real(v) => v.len(),
        }
    }

    /// Whether the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The kind of this column.
    pub fn kind(&self) -> FeatureKind {
        match self {
            Column::Bool(_) => FeatureKind::Bool,
            Column::Real(_) => FeatureKind::Real,
        }
    }
}

/// An immutable labelled dataset.
///
/// Construct with [`DatasetBuilder`] (row-at-a-time, validated) or
/// [`Dataset::from_rows`] (bulk). All values are finite; labels are dense in
/// `0..n_classes`.
#[derive(Debug, Clone)]
pub struct Dataset {
    schema: Schema,
    /// Column storage over *slots* (live and dead rows alike), shared
    /// between epochs whenever a delta leaves the values untouched
    /// (removals and label flips share; appends copy-and-extend).
    columns: Arc<Vec<Column>>,
    /// Per-slot labels; shared between epochs unless a flip or append
    /// rewrites them.
    labels: Arc<Vec<ClassId>>,
    /// Mutation generation: 0 for freshly built datasets, bumped by every
    /// [`Dataset::apply`]. Caches keyed by dataset state carry this stamp
    /// so consulting them against a different epoch is a hard error.
    epoch: u64,
    /// Live-slot bitmask, `ceil(n_slots / 64)` words: bit `r` set iff slot
    /// `r` holds a live row. All ones at epoch 0; removals clear bits and
    /// never set them again (dead slots are not reused).
    live: Vec<u64>,
    /// Cached popcount of `live` (the number of live rows).
    n_live: usize,
    /// One row bitmask per class (`masks[c]` has bit `r` set iff slot `r`
    /// is **live** and `labels[r] == c`), each `ceil(n_slots / 64)` words
    /// long. Derived from `labels` at construction and patched word-wise
    /// by [`Dataset::apply`]; [`crate::Subset`]'s word-packed algebra
    /// recomputes per-class counts by AND-popcount against these masks.
    class_masks: Vec<Vec<u64>>,
    /// Per feature: every slot id, sorted ascending by that feature's
    /// value (stable — ties stay in ascending slot order). Split-candidate
    /// sweeps walk this order filtered by a subset's O(1) bit test instead
    /// of gathering and sorting the subset's rows per call, which was the
    /// hottest loop of both the concrete and the abstract learner. Dead
    /// slots stay in the order (every traversal filters by a live-only
    /// subset); appends splice new slots in by stable sorted merge.
    feature_order: Arc<Vec<Vec<RowId>>>,
    /// Per feature: the lazily-built threshold index backing word-parallel
    /// `x ≤ τ` restrictions. Wrapped in `Arc<OnceLock<…>>` so commands
    /// that never restrict (stats, accuracy) pay nothing, clones and
    /// feature projections share the built masks, and the inner `None`
    /// marks very-high-cardinality columns (see
    /// [`MAX_THRESHOLD_INDEX_VALUES`]) where callers fall back to the
    /// row-predicate filter. [`Dataset::apply`] shares these cells only
    /// when the delta leaves them valid (pure label flips); otherwise the
    /// new epoch gets *fresh* cells (bit-patched copies of already-built
    /// indexes), so an old epoch's clone can never observe a patched mask.
    threshold_index: Vec<Arc<OnceLock<Option<ThresholdIndex>>>>,
}

/// Two datasets are equal when their schema, feature values, labels, and
/// live-row masks are — the bitmask/order/threshold caches are pure
/// functions of those and deliberately excluded (a lazily-built index
/// must not make a dataset unequal to its clone), and the epoch stamp is
/// an *identity*, not content (a no-op delta yields an equal dataset at a
/// later epoch).
impl PartialEq for Dataset {
    fn eq(&self, other: &Self) -> bool {
        self.schema == other.schema
            && self.live == other.live
            && self.columns == other.columns
            && self.labels == other.labels
    }
}

/// Distinct-value cap above which a feature gets no [`ThresholdIndex`]:
/// the prefix masks cost `distinct × ceil(rows/64)` words, so an
/// effectively-continuous column on a huge dataset would dominate the
/// dataset's own footprint. Every dataset in the evaluation (quantized
/// synthetics, UCI-scale reals, binary pixels) sits far below the cap.
const MAX_THRESHOLD_INDEX_VALUES: usize = 4096;

/// Sorted distinct values of one column plus, per distinct value, the
/// bitmask of rows with value ≤ it — one binary search + one AND pass
/// answers any threshold restriction on the column.
#[derive(Debug, Clone, PartialEq)]
struct ThresholdIndex {
    /// The column's distinct values, ascending (IEEE-distinct: `-0.0` and
    /// `0.0` collapse).
    values: Vec<f64>,
    /// `masks[j]`: bitmask of rows whose value is ≤ `values[j]`.
    masks: Vec<Vec<u64>>,
}

/// Builds one feature's [`ThresholdIndex`] from its value-sorted slot
/// order, or `None` when the column has too many distinct values. Only
/// live slots (per `live`) contribute values or mask bits, so a lazily
/// rebuilt index and a bit-patched one answer [`Dataset::le_mask`]
/// identically.
fn build_threshold_index(col: &Column, order: &[RowId], live: &[u64]) -> Option<ThresholdIndex> {
    let n_words = col.len().div_ceil(64);
    let mut values: Vec<f64> = Vec::new();
    let mut masks: Vec<Vec<u64>> = Vec::new();
    let mut running = vec![0u64; n_words];
    let mut prev: Option<f64> = None;
    for &r in order {
        if live[r as usize / 64] >> (r % 64) & 1 == 0 {
            continue;
        }
        let v = col.value(r);
        if let Some(p) = prev {
            if v > p {
                if values.len() >= MAX_THRESHOLD_INDEX_VALUES {
                    return None;
                }
                values.push(p);
                masks.push(running.clone());
            }
        }
        running[r as usize / 64] |= 1u64 << (r % 64);
        prev = Some(v);
    }
    if let Some(p) = prev {
        if values.len() >= MAX_THRESHOLD_INDEX_VALUES {
            return None;
        }
        values.push(p);
        masks.push(running);
    }
    Some(ThresholdIndex { values, masks })
}

/// Builds the per-class row bitmasks for [`Dataset::class_mask`].
fn build_class_masks(labels: &[ClassId], n_classes: usize) -> Vec<Vec<u64>> {
    let n_words = labels.len().div_ceil(64);
    let mut masks = vec![vec![0u64; n_words]; n_classes];
    for (row, &label) in labels.iter().enumerate() {
        masks[label as usize][row / 64] |= 1u64 << (row % 64);
    }
    masks
}

/// Builds the per-feature value-sorted row orders for
/// [`Dataset::feature_order`].
fn build_feature_order(columns: &[Column]) -> Vec<Vec<RowId>> {
    columns
        .iter()
        .map(|col| {
            let mut order: Vec<RowId> = (0..col.len() as RowId).collect();
            // Stable: equal values keep ascending row order, matching what
            // a stable sort of any subset's rows would produce.
            order.sort_by(|&a, &b| col.value(a).total_cmp(&col.value(b)));
            order
        })
        .collect()
}

impl Dataset {
    /// Builds a dataset from rows of `f64` values (booleans as 0/1).
    ///
    /// # Errors
    ///
    /// Propagates validation failures from [`DatasetBuilder::push_row`].
    pub fn from_rows(schema: Schema, rows: &[(Vec<f64>, ClassId)]) -> Result<Self, DataError> {
        let mut b = DatasetBuilder::new(schema);
        for (values, label) in rows {
            b.push_row(values, *label)?;
        }
        Ok(b.finish())
    }

    /// The dataset schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of **live** rows (dead slots left behind by
    /// [`Dataset::apply`] removals are not counted).
    pub fn len(&self) -> usize {
        self.n_live
    }

    /// Whether the dataset has no live rows.
    pub fn is_empty(&self) -> bool {
        self.n_live == 0
    }

    /// The mutation epoch: 0 for freshly built datasets, bumped by every
    /// [`Dataset::apply`] (including no-op deltas — the epoch is an
    /// identity stamp, not a content hash).
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of physical row *slots* (live rows plus dead slots). Always
    /// `>= len()`; equal at epoch 0 and after pure appends/flips.
    #[inline]
    pub fn n_slots(&self) -> usize {
        self.labels.len()
    }

    /// FNV-1a content hash of exactly what [`PartialEq`] compares:
    /// schema shape, live-slot mask, feature values (IEEE bit patterns),
    /// and labels. Equal datasets fingerprint equally regardless of how
    /// they were built, and the epoch stamp is deliberately excluded —
    /// the warm-state index (`antidote_core::session`) keys on
    /// `(fingerprint, epoch, config)` so two registries that loaded the
    /// same snapshot independently still land on the same warm unit.
    /// O(slots × features) per call; callers that need it repeatedly
    /// (session opens) cache the result.
    pub fn content_fingerprint(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = FNV_OFFSET;
        let mut mix = |v: u64| {
            for byte in v.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(FNV_PRIME);
            }
        };
        mix(self.schema.n_features() as u64);
        mix(self.schema.n_classes() as u64);
        for f in self.schema.features() {
            mix(matches!(f.kind, FeatureKind::Bool) as u64);
        }
        mix(self.n_slots() as u64);
        for &w in &self.live {
            mix(w);
        }
        for col in self.columns.iter() {
            match col {
                Column::Bool(v) => {
                    for &b in v {
                        mix(b as u64);
                    }
                }
                Column::Real(v) => {
                    for &x in v {
                        mix(x.to_bits());
                    }
                }
            }
        }
        for &l in self.labels.iter() {
            mix(u64::from(l));
        }
        h
    }

    /// Whether slot `row` holds a live row. Out-of-range slots are dead.
    #[inline]
    pub fn is_live(&self, row: RowId) -> bool {
        self.live
            .get(row as usize / 64)
            .is_some_and(|w| w >> (row % 64) & 1 == 1)
    }

    /// The live-slot bitmask (`ceil(n_slots / 64)` words; bit `r` set iff
    /// slot `r` is live). [`crate::Subset::full`] seeds from this.
    #[inline]
    pub fn live_words(&self) -> &[u64] {
        &self.live
    }

    /// Iterator over the live row ids, strictly ascending. The canonical
    /// way to visit "every row" — plain `0..len()` ranges are wrong on
    /// post-removal epochs, where slot ids are not dense.
    pub fn rows(&self) -> impl Iterator<Item = RowId> + '_ {
        (0..self.n_slots() as RowId).filter(|&r| self.is_live(r))
    }

    /// Number of feature columns.
    pub fn n_features(&self) -> usize {
        self.schema.n_features()
    }

    /// Number of classes (`k` in the paper).
    pub fn n_classes(&self) -> usize {
        self.schema.n_classes()
    }

    /// Feature value of `row` in column `feature`, as `f64`. Liveness is
    /// *not* checked (this is the innermost loop of every sweep); callers
    /// reach rows through live-only subsets or [`Dataset::rows`].
    ///
    /// # Panics
    ///
    /// Panics if `row` or `feature` is out of bounds.
    #[inline]
    pub fn value(&self, row: RowId, feature: usize) -> f64 {
        self.columns[feature].value(row)
    }

    /// Class label of `row` (liveness unchecked, like [`Dataset::value`]).
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of bounds.
    #[inline]
    pub fn label(&self, row: RowId) -> ClassId {
        self.labels[row as usize]
    }

    /// All labels, indexed by slot (dead slots keep their last label).
    pub fn labels(&self) -> &[ClassId] {
        &self.labels
    }

    /// The feature columns, in schema order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Copies out the feature vector of one row (handy for using dataset rows
    /// as test inputs).
    pub fn row_values(&self, row: RowId) -> Vec<f64> {
        (0..self.n_features()).map(|f| self.value(row, f)).collect()
    }

    /// Per-class **live** row counts for the whole dataset. The class
    /// masks carry live bits only, so a popcount per class suffices.
    pub fn class_counts(&self) -> Vec<u32> {
        self.class_masks
            .iter()
            .map(|m| m.iter().map(|w| w.count_ones()).sum())
            .collect()
    }

    /// The row bitmask of `class`: bit `r` is set iff row `r` carries that
    /// label. `ceil(len / 64)` words long; the word-parallel backbone of
    /// [`crate::Subset`]'s class-count maintenance.
    ///
    /// # Panics
    ///
    /// Panics if `class` is out of range.
    #[inline]
    pub fn class_mask(&self, class: ClassId) -> &[u64] {
        &self.class_masks[class as usize]
    }

    /// All row ids sorted ascending by `feature`'s value (stable: ties in
    /// ascending row order). Computed once at construction; threshold
    /// sweeps restrict it to a subset via [`crate::Subset::contains`]
    /// instead of re-sorting the subset's rows on every call.
    ///
    /// # Panics
    ///
    /// Panics if `feature` is out of bounds.
    #[inline]
    pub fn feature_order(&self, feature: usize) -> &[RowId] {
        &self.feature_order[feature]
    }

    /// The bitmask of rows whose `feature` value is `≤ tau` (or `< tau`
    /// when `strict`), from the feature's threshold index (built on first
    /// use, then shared by clones and projections). `None` when the column
    /// is too high-cardinality to be indexed (the caller falls back to a
    /// row filter); `Some(&[])` when no row qualifies.
    ///
    /// # Panics
    ///
    /// Panics if `feature` is out of bounds.
    pub fn le_mask(&self, feature: usize, tau: f64, strict: bool) -> Option<&[u64]> {
        let idx = self.threshold_index[feature]
            .get_or_init(|| {
                build_threshold_index(
                    &self.columns[feature],
                    &self.feature_order[feature],
                    &self.live,
                )
            })
            .as_ref()?;
        let j = idx
            .values
            .partition_point(|&v| if strict { v < tau } else { v <= tau });
        Some(if j == 0 { &[] } else { &idx.masks[j - 1] })
    }

    /// Forces construction of every lazily-built index so later reads pay
    /// no first-touch cost: the per-feature threshold indexes behind
    /// [`Dataset::le_mask`] are materialized now (class masks and feature
    /// orders are already built eagerly at construction). A
    /// [`crate::registry::DatasetRegistry`] calls this once per loaded
    /// dataset so every request served from the shared `Arc` finds the
    /// indexes warm.
    pub fn warm_indexes(&self) {
        for f in 0..self.n_features() {
            // Any threshold forces the OnceLock build; the returned mask
            // (or the high-cardinality `None`) is irrelevant here.
            let _ = self.le_mask(f, 0.0, false);
        }
    }

    /// Projects the dataset onto a subset of its feature columns (labels
    /// unchanged). Used by the random-subspace forest learner, where each
    /// tree sees its own feature subset.
    ///
    /// # Panics
    ///
    /// Panics if `features` is empty or contains an out-of-range index.
    pub fn select_features(&self, features: &[usize]) -> Dataset {
        assert!(
            !features.is_empty(),
            "a projection needs at least one feature"
        );
        let columns: Vec<Column> = features.iter().map(|&f| self.columns[f].clone()).collect();
        let schema = Schema::new(
            features
                .iter()
                .map(|&f| self.schema.features()[f].clone())
                .collect(),
            self.schema.classes().to_vec(),
        )
        .expect("projection of a valid schema is valid");
        Dataset {
            schema,
            columns: Arc::new(columns),
            labels: Arc::clone(&self.labels),
            epoch: self.epoch,
            live: self.live.clone(),
            n_live: self.n_live,
            class_masks: self.class_masks.clone(),
            feature_order: Arc::new(
                features
                    .iter()
                    .map(|&f| self.feature_order[f].clone())
                    .collect(),
            ),
            // Arc-shared: a projected column equals its source column, so
            // the (lazily built) threshold index is shared, not recomputed
            // or deep-copied per projection.
            threshold_index: features
                .iter()
                .map(|&f| Arc::clone(&self.threshold_index[f]))
                .collect(),
        }
    }

    /// Approximate in-memory footprint in bytes (used by the benchmark
    /// harness's memory-proxy accounting).
    pub fn approx_bytes(&self) -> usize {
        let cols: usize = self
            .columns
            .iter()
            .map(|c| match c {
                Column::Bool(v) => v.len(),
                Column::Real(v) => v.len() * 8,
            })
            .sum();
        cols + self.labels.len() * 2 + self.live.len() * 8
    }

    /// Applies `delta`, producing a new dataset at `epoch() + 1`. The
    /// receiver is untouched — it keeps answering for its own epoch —
    /// and unchanged storage is structurally shared rather than copied:
    ///
    /// * removals and flips share the column storage (`Arc` bump);
    /// * removals share the label vector; appends/flips copy it;
    /// * removals and flips share the per-feature slot orders; appends
    ///   splice the new slots in by stable sorted merge;
    /// * pure flips share the built threshold-index cells (thresholds are
    ///   label-independent); removals/appends give the new epoch fresh
    ///   cells holding bit-patched copies of any already-built index.
    ///
    /// Class masks are patched by word-level set/clear, never rebuilt.
    ///
    /// # Errors
    ///
    /// [`DataError::InvalidDelta`] when a removal or flip targets a dead
    /// or out-of-range row, or one delta both removes and flips a row;
    /// [`DataError::LabelOutOfRange`] for a flip to an undeclared class;
    /// appended rows are validated exactly like
    /// [`DatasetBuilder::push_row`].
    pub fn apply(&self, delta: &DatasetDelta) -> Result<Dataset, DataError> {
        Ok(self.apply_summarized(delta)?.0)
    }

    /// [`Dataset::apply`], also returning the [`DeltaSummary`] of what
    /// effectively changed (the input normalized: duplicate removals
    /// collapsed, last flip per row kept, flips to the current label
    /// dropped). The summary is what certificate transfer reasons about.
    ///
    /// # Errors
    ///
    /// See [`Dataset::apply`].
    pub fn apply_summarized(
        &self,
        delta: &DatasetDelta,
    ) -> Result<(Dataset, DeltaSummary), DataError> {
        let old_slots = self.n_slots();
        // --- Normalize and validate ------------------------------------
        let mut removed: BTreeSet<RowId> = BTreeSet::new();
        for &r in &delta.removes {
            if !self.is_live(r) {
                return Err(DataError::InvalidDelta {
                    row: r,
                    reason: "remove targets a row that is not live",
                });
            }
            removed.insert(r);
        }
        let mut flips: BTreeMap<RowId, ClassId> = BTreeMap::new();
        for &(r, c) in &delta.flips {
            if !self.is_live(r) {
                return Err(DataError::InvalidDelta {
                    row: r,
                    reason: "flip targets a row that is not live",
                });
            }
            if removed.contains(&r) {
                return Err(DataError::InvalidDelta {
                    row: r,
                    reason: "row is both removed and flipped in one delta",
                });
            }
            if (c as usize) >= self.n_classes() {
                return Err(DataError::LabelOutOfRange {
                    row: r as usize,
                    label: c,
                    n_classes: self.n_classes(),
                });
            }
            flips.insert(r, c); // last flip per row wins
        }
        flips.retain(|&r, &mut c| self.label(r) != c);
        for (i, (values, label)) in delta.appends.iter().enumerate() {
            let row = old_slots + i;
            self.schema.check_values(values, row)?;
            if (*label as usize) >= self.n_classes() {
                return Err(DataError::LabelOutOfRange {
                    row,
                    label: *label,
                    n_classes: self.n_classes(),
                });
            }
            if row >= u32::MAX as usize {
                return Err(DataError::TooManyRows);
            }
        }
        let appended = delta.appends.len();
        let new_slots = old_slots + appended;
        let n_words = new_slots.div_ceil(64);

        // --- Columns: share on remove/flip, copy-and-extend on append --
        let columns = if appended == 0 {
            Arc::clone(&self.columns)
        } else {
            let mut cols: Vec<Column> = (*self.columns).clone();
            for (values, _) in &delta.appends {
                for (&v, col) in values.iter().zip(cols.iter_mut()) {
                    match col {
                        Column::Bool(c) => c.push(v == 1.0),
                        Column::Real(c) => c.push(v),
                    }
                }
            }
            Arc::new(cols)
        };

        // --- Labels: share unless flips or appends rewrite them --------
        let labels = if appended == 0 && flips.is_empty() {
            Arc::clone(&self.labels)
        } else {
            let mut l: Vec<ClassId> = (*self.labels).clone();
            for (&r, &c) in &flips {
                l[r as usize] = c;
            }
            l.extend(delta.appends.iter().map(|&(_, c)| c));
            Arc::new(l)
        };

        // --- Live mask: clear removals, set appended slots -------------
        let mut live = self.live.clone();
        live.resize(n_words, 0);
        for &r in &removed {
            live[r as usize / 64] &= !(1u64 << (r % 64));
        }
        for slot in old_slots..new_slots {
            live[slot / 64] |= 1u64 << (slot % 64);
        }
        let n_live = self.n_live - removed.len() + appended;

        // --- Class masks: word-level set/clear patches -----------------
        let mut class_masks = self.class_masks.clone();
        for mask in &mut class_masks {
            mask.resize(n_words, 0);
        }
        for &r in &removed {
            class_masks[self.label(r) as usize][r as usize / 64] &= !(1u64 << (r % 64));
        }
        for (&r, &c) in &flips {
            class_masks[self.label(r) as usize][r as usize / 64] &= !(1u64 << (r % 64));
            class_masks[c as usize][r as usize / 64] |= 1u64 << (r % 64);
        }
        for (i, &(_, c)) in delta.appends.iter().enumerate() {
            let slot = old_slots + i;
            class_masks[c as usize][slot / 64] |= 1u64 << (slot % 64);
        }

        // --- Feature orders: share, or stable sorted merge of appends --
        let feature_order = if appended == 0 {
            Arc::clone(&self.feature_order)
        } else {
            Arc::new(
                (0..self.n_features())
                    .map(|f| {
                        let col = &columns[f];
                        let mut added: Vec<RowId> =
                            (old_slots as RowId..new_slots as RowId).collect();
                        // Stable on the ascending slot ids, matching what
                        // build_feature_order would produce.
                        added.sort_by(|&a, &b| col.value(a).total_cmp(&col.value(b)));
                        merge_orders(&self.feature_order[f], &added, col)
                    })
                    .collect(),
            )
        };

        // --- Threshold indexes: share only when still valid ------------
        let pure_flip = removed.is_empty() && appended == 0;
        let threshold_index = (0..self.n_features())
            .map(|f| {
                if pure_flip {
                    // Thresholds and their prefix masks are label-blind:
                    // the old cells stay exactly right, share them.
                    return Arc::clone(&self.threshold_index[f]);
                }
                // Fresh cell — the old epoch keeps its own (never-patched)
                // index. If the old cell was already built, patch a copy;
                // otherwise leave the new cell to lazy construction.
                let cell = Arc::new(OnceLock::new());
                match self.threshold_index[f].get() {
                    None => {}
                    Some(None) => {
                        // Over the cardinality cap before the delta; a
                        // removal can only shrink and an append only grow
                        // the distinct count, but `None` (fall back to the
                        // row filter) is always a sound answer — keep it.
                        let _ = cell.set(None);
                    }
                    Some(Some(idx)) => {
                        let appends: Vec<(usize, f64)> = (0..appended)
                            .map(|i| {
                                let slot = old_slots + i;
                                (slot, columns[f].value(slot as RowId))
                            })
                            .collect();
                        let _ = cell.set(patch_threshold_index(idx, &removed, &appends, n_words));
                    }
                }
                cell
            })
            .collect();

        let summary = DeltaSummary {
            appended,
            removed: removed.iter().copied().collect(),
            flipped: flips.keys().copied().collect(),
        };
        let ds = Dataset {
            schema: self.schema.clone(),
            columns,
            labels,
            epoch: self.epoch + 1,
            live,
            n_live,
            class_masks,
            feature_order,
            threshold_index,
        };
        Ok((ds, summary))
    }
}

/// Stable merge of an existing value-sorted slot order with the sorted
/// freshly appended slots: equal values keep ascending slot order, and
/// every appended slot id exceeds every existing one, so existing slots
/// win ties. The result equals what [`build_feature_order`] would produce
/// over the extended column.
fn merge_orders(existing: &[RowId], added: &[RowId], col: &Column) -> Vec<RowId> {
    let mut out = Vec::with_capacity(existing.len() + added.len());
    let (mut i, mut j) = (0, 0);
    while i < existing.len() && j < added.len() {
        if col.value(existing[i]) <= col.value(added[j]) {
            out.push(existing[i]);
            i += 1;
        } else {
            out.push(added[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&existing[i..]);
    out.extend_from_slice(&added[j..]);
    out
}

/// Bit-patches a built [`ThresholdIndex`] for a delta: removed slots are
/// cleared from every prefix mask, value entries no live slot holds any
/// more are dropped (their prefix mask collapses onto the preceding
/// entry's, which is how a stale value is detected), and appended
/// `(slot, value)` pairs extend the masks and splice in any new distinct
/// values. The result is structurally identical to what a lazy rebuild
/// at the new epoch would produce. Returns `None` when the patched index
/// would exceed [`MAX_THRESHOLD_INDEX_VALUES`].
fn patch_threshold_index(
    idx: &ThresholdIndex,
    removed: &BTreeSet<RowId>,
    appends: &[(usize, f64)],
    n_words: usize,
) -> Option<ThresholdIndex> {
    let mut values = idx.values.clone();
    let mut masks: Vec<Vec<u64>> = idx
        .masks
        .iter()
        .map(|m| {
            let mut m = m.clone();
            m.resize(n_words, 0);
            m
        })
        .collect();
    if !removed.is_empty() {
        for &r in removed {
            let (w, bit) = (r as usize / 64, 1u64 << (r % 64));
            for m in &mut masks {
                m[w] &= !bit;
            }
        }
        // A value whose prefix mask now equals its predecessor's has no
        // live slot left: drop it, matching a from-scratch build.
        let zeros = vec![0u64; n_words];
        let mut kept = 0;
        for i in 0..values.len() {
            let prev: &[u64] = if kept == 0 { &zeros } else { &masks[kept - 1] };
            if masks[i] != prev {
                values.swap(kept, i);
                masks.swap(kept, i);
                kept += 1;
            }
        }
        values.truncate(kept);
        masks.truncate(kept);
    }
    for &(slot, v) in appends {
        let p = values.partition_point(|&x| x < v);
        if p == values.len() || values[p] != v {
            if values.len() >= MAX_THRESHOLD_INDEX_VALUES {
                return None;
            }
            let base = if p == 0 {
                vec![0u64; n_words]
            } else {
                masks[p - 1].clone()
            };
            values.insert(p, v);
            masks.insert(p, base);
        }
        let (w, bit) = (slot / 64, 1u64 << (slot % 64));
        for m in &mut masks[p..] {
            m[w] |= bit;
        }
    }
    Some(ThresholdIndex { values, masks })
}

/// A batch of dataset mutations: appended rows, removed rows, and label
/// flips, applied atomically by [`Dataset::apply`] to produce the next
/// epoch. Building a delta performs no validation — rows are checked
/// against the dataset the delta is applied to.
///
/// ```
/// use antidote_data::{Dataset, DatasetDelta, Schema};
///
/// # fn main() -> Result<(), antidote_data::DataError> {
/// let ds = Dataset::from_rows(
///     Schema::real(1, 2),
///     &[(vec![0.0], 0), (vec![1.0], 1), (vec![2.0], 1)],
/// )?;
/// let mut delta = DatasetDelta::new();
/// delta.remove(1).flip_label(0, 1).append(&[3.0], 0);
/// let next = ds.apply(&delta)?;
/// assert_eq!(next.epoch(), 1);
/// assert_eq!(next.len(), 3);
/// assert_eq!(ds.len(), 3, "the old epoch is untouched");
/// assert!(!next.is_live(1));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct DatasetDelta {
    appends: Vec<(Vec<f64>, ClassId)>,
    removes: Vec<RowId>,
    flips: Vec<(RowId, ClassId)>,
}

impl DatasetDelta {
    /// An empty delta (applying it still bumps the epoch).
    pub fn new() -> Self {
        DatasetDelta::default()
    }

    /// Queues a row append (validated like [`DatasetBuilder::push_row`]
    /// at apply time). The row lands in a fresh slot past `n_slots()`.
    pub fn append(&mut self, values: &[f64], label: ClassId) -> &mut Self {
        self.appends.push((values.to_vec(), label));
        self
    }

    /// Queues a row removal. Duplicate removals of one row collapse.
    pub fn remove(&mut self, row: RowId) -> &mut Self {
        self.removes.push(row);
        self
    }

    /// Queues a label flip. The last flip per row wins; a flip to the
    /// row's current label is an effective no-op.
    pub fn flip_label(&mut self, row: RowId, new_label: ClassId) -> &mut Self {
        self.flips.push((row, new_label));
        self
    }

    /// Whether the delta queues no operations at all.
    pub fn is_empty(&self) -> bool {
        self.appends.is_empty() && self.removes.is_empty() && self.flips.is_empty()
    }
}

/// What a [`DatasetDelta`] *effectively* changed, after normalization
/// (duplicate removals collapsed, last flip per row kept, flips to the
/// current label dropped). Certificate transfer keys off this: a sound
/// transfer across the epoch exists only for [`DeltaSummary::pure_removal`]
/// deltas (see `antidote-core`'s cache-transfer docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaSummary {
    /// Number of rows appended.
    pub appended: usize,
    /// Row ids effectively removed, ascending.
    pub removed: Vec<RowId>,
    /// Row ids whose label effectively changed, ascending.
    pub flipped: Vec<RowId>,
}

impl DeltaSummary {
    /// Whether the delta only removed rows (the condition under which a
    /// `Robust(n)` certificate transfers to the next epoch with budget
    /// `n - removed.len()`).
    pub fn pure_removal(&self) -> bool {
        self.appended == 0 && self.flipped.is_empty()
    }

    /// Folds a run of consecutive per-epoch summaries into one summary
    /// describing the whole span, for a single batched certificate
    /// transfer across several epochs at once.
    ///
    /// The fold is **counting-only**: each summary's row ids live in its
    /// own epoch's id space, so the concatenated `removed`/`flipped`
    /// vectors are meaningful as *counts* (and that is all the transfer
    /// rule consumes — the combined shrink is `removed.len()` and
    /// soundness needs only [`DeltaSummary::pure_removal`]). Removed ids
    /// never collide across a chain — a removed slot stays dead forever —
    /// so the concatenation never double-counts a removal.
    ///
    /// # Panics
    ///
    /// Panics when `summaries` is empty: a zero-epoch fold has no
    /// well-defined span.
    pub fn fold(summaries: &[DeltaSummary]) -> DeltaSummary {
        assert!(
            !summaries.is_empty(),
            "DeltaSummary::fold needs at least one epoch"
        );
        let mut removed = Vec::new();
        let mut flipped = Vec::new();
        let mut appended = 0;
        for s in summaries {
            appended += s.appended;
            removed.extend_from_slice(&s.removed);
            flipped.extend_from_slice(&s.flipped);
        }
        DeltaSummary {
            appended,
            removed,
            flipped,
        }
    }
}

/// Validating row-at-a-time builder for [`Dataset`].
///
/// ```
/// use antidote_data::{DatasetBuilder, Schema};
///
/// # fn main() -> Result<(), antidote_data::DataError> {
/// let mut b = DatasetBuilder::new(Schema::real(2, 2));
/// b.push_row(&[0.5, 1.0], 0)?;
/// b.push_row(&[1.5, -1.0], 1)?;
/// let ds = b.finish();
/// assert_eq!(ds.len(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct DatasetBuilder {
    schema: Schema,
    columns: Vec<Column>,
    labels: Vec<ClassId>,
}

impl DatasetBuilder {
    /// Creates an empty builder for the given schema.
    pub fn new(schema: Schema) -> Self {
        let columns = schema
            .features()
            .iter()
            .map(|f| match f.kind {
                FeatureKind::Bool => Column::Bool(Vec::new()),
                FeatureKind::Real => Column::Real(Vec::new()),
            })
            .collect();
        DatasetBuilder {
            schema,
            columns,
            labels: Vec::new(),
        }
    }

    /// Appends one row.
    ///
    /// # Errors
    ///
    /// * [`DataError::ArityMismatch`] — wrong number of values;
    /// * [`DataError::LabelOutOfRange`] — label ≥ number of classes;
    /// * [`DataError::NonFiniteValue`] — NaN/∞ in a real column;
    /// * [`DataError::NotBoolean`] — value other than 0/1 in a bool column;
    /// * [`DataError::TooManyRows`] — more than `u32::MAX` rows.
    pub fn push_row(&mut self, values: &[f64], label: ClassId) -> Result<(), DataError> {
        let row = self.labels.len();
        // Validate before mutating any column, so a failed push leaves
        // the builder unchanged.
        self.schema.check_values(values, row)?;
        if (label as usize) >= self.schema.n_classes() {
            return Err(DataError::LabelOutOfRange {
                row,
                label,
                n_classes: self.schema.n_classes(),
            });
        }
        if row >= u32::MAX as usize {
            return Err(DataError::TooManyRows);
        }
        for (&v, col) in values.iter().zip(&mut self.columns) {
            match col {
                Column::Bool(c) => c.push(v == 1.0),
                Column::Real(c) => c.push(v),
            }
        }
        self.labels.push(label);
        Ok(())
    }

    /// Number of rows pushed so far.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether no rows have been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Finalises the dataset (at epoch 0, every row live).
    pub fn finish(self) -> Dataset {
        let n = self.labels.len();
        let class_masks = build_class_masks(&self.labels, self.schema.n_classes());
        let feature_order = build_feature_order(&self.columns);
        // Threshold indexes are built lazily on first restriction (see
        // Dataset::le_mask), so loading a dataset for stats/accuracy-style
        // commands pays nothing for them.
        let threshold_index = (0..self.columns.len())
            .map(|_| Arc::new(OnceLock::new()))
            .collect();
        let mut live = vec![!0u64; n / 64];
        if !n.is_multiple_of(64) {
            live.push((1u64 << (n % 64)) - 1);
        }
        Dataset {
            schema: self.schema,
            columns: Arc::new(self.columns),
            labels: Arc::new(self.labels),
            epoch: 0,
            live,
            n_live: n,
            class_masks,
            feature_order: Arc::new(feature_order),
            threshold_index,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema2x2() -> Schema {
        Schema::real(2, 2)
    }

    #[test]
    fn build_and_access() {
        let ds = Dataset::from_rows(
            schema2x2(),
            &[
                (vec![1.0, 2.0], 0),
                (vec![3.0, 4.0], 1),
                (vec![5.0, 6.0], 0),
            ],
        )
        .unwrap();
        assert_eq!(ds.len(), 3);
        assert_eq!(ds.n_features(), 2);
        assert_eq!(ds.n_classes(), 2);
        assert_eq!(ds.value(1, 0), 3.0);
        assert_eq!(ds.value(2, 1), 6.0);
        assert_eq!(ds.label(1), 1);
        assert_eq!(ds.class_counts(), vec![2, 1]);
        assert_eq!(ds.row_values(0), vec![1.0, 2.0]);
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut b = DatasetBuilder::new(schema2x2());
        let err = b.push_row(&[1.0], 0).unwrap_err();
        assert!(matches!(
            err,
            DataError::ArityMismatch {
                got: 1,
                expected: 2,
                ..
            }
        ));
        assert!(b.is_empty(), "failed push must not mutate the builder");
    }

    #[test]
    fn label_out_of_range_rejected() {
        let mut b = DatasetBuilder::new(schema2x2());
        let err = b.push_row(&[1.0, 2.0], 2).unwrap_err();
        assert!(matches!(
            err,
            DataError::LabelOutOfRange {
                label: 2,
                n_classes: 2,
                ..
            }
        ));
    }

    #[test]
    fn non_finite_rejected() {
        let mut b = DatasetBuilder::new(schema2x2());
        assert!(matches!(
            b.push_row(&[f64::NAN, 0.0], 0).unwrap_err(),
            DataError::NonFiniteValue { feature: 0, .. }
        ));
        assert!(matches!(
            b.push_row(&[0.0, f64::INFINITY], 0).unwrap_err(),
            DataError::NonFiniteValue { feature: 1, .. }
        ));
        assert!(matches!(
            b.push_row(&[f64::NEG_INFINITY, 0.0], 0).unwrap_err(),
            DataError::NonFiniteValue { feature: 0, .. }
        ));
        assert_eq!(b.len(), 0);
        // The bulk path rejects identically (it shares the builder).
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(matches!(
                Dataset::from_rows(schema2x2(), &[(vec![0.0, bad], 0)]),
                Err(DataError::NonFiniteValue { row: 0, feature: 1 })
            ));
        }
        // Extreme-but-finite magnitudes (exponent-form inputs) are fine.
        let ds = Dataset::from_rows(schema2x2(), &[(vec![1e3, -2.5e-2], 0)]).unwrap();
        assert_eq!(ds.value(0, 0), 1000.0);
    }

    #[test]
    fn boolean_column_accepts_only_bits() {
        let mut b = DatasetBuilder::new(Schema::boolean(1, 2));
        b.push_row(&[0.0], 0).unwrap();
        b.push_row(&[1.0], 1).unwrap();
        let err = b.push_row(&[0.5], 0).unwrap_err();
        assert!(matches!(err, DataError::NotBoolean { value, .. } if value == 0.5));
        let ds = b.finish();
        assert_eq!(ds.value(0, 0), 0.0);
        assert_eq!(ds.value(1, 0), 1.0);
        assert_eq!(ds.columns()[0].kind(), FeatureKind::Bool);
    }

    #[test]
    fn failed_push_keeps_columns_aligned() {
        // A row that fails validation on the *second* column must not leave a
        // value behind in the first.
        let schema = Schema::new(
            vec![
                Feature {
                    name: "a".into(),
                    kind: FeatureKind::Real,
                },
                Feature {
                    name: "b".into(),
                    kind: FeatureKind::Bool,
                },
            ],
            vec!["c0".into(), "c1".into()],
        )
        .unwrap();
        let mut b = DatasetBuilder::new(schema);
        assert!(b.push_row(&[1.0, 0.7], 0).is_err());
        b.push_row(&[2.0, 1.0], 1).unwrap();
        let ds = b.finish();
        assert_eq!(ds.len(), 1);
        assert_eq!(ds.value(0, 0), 2.0);
        assert_eq!(ds.value(0, 1), 1.0);
    }

    #[test]
    fn schema_helpers() {
        let s = Schema::boolean(3, 2).with_class_names(["one", "seven"]);
        assert_eq!(s.classes(), &["one".to_string(), "seven".to_string()]);
        assert_eq!(s.n_features(), 3);
        assert!(s.features().iter().all(|f| f.kind == FeatureKind::Bool));
        assert!(Schema::new(vec![], vec!["a".into()]).is_err());
    }

    #[test]
    fn select_features_projects_columns() {
        let ds = Dataset::from_rows(
            Schema::real(3, 2),
            &[(vec![1.0, 2.0, 3.0], 0), (vec![4.0, 5.0, 6.0], 1)],
        )
        .unwrap();
        let p = ds.select_features(&[2, 0]);
        assert_eq!(p.n_features(), 2);
        assert_eq!(p.value(0, 0), 3.0);
        assert_eq!(p.value(0, 1), 1.0);
        assert_eq!(p.value(1, 0), 6.0);
        assert_eq!(p.label(1), 1);
        assert_eq!(p.schema().features()[0].name, "x2");
    }

    #[test]
    #[should_panic(expected = "at least one feature")]
    fn select_features_rejects_empty() {
        let ds = Dataset::from_rows(schema2x2(), &[(vec![0.0, 0.0], 0)]).unwrap();
        let _ = ds.select_features(&[]);
    }

    #[test]
    fn class_masks_mirror_labels() {
        let rows: Vec<(Vec<f64>, ClassId)> = (0..70)
            .map(|i| (vec![i as f64, 0.0], (i % 3 == 0) as ClassId))
            .collect();
        let ds = Dataset::from_rows(Schema::real(2, 2), &rows).unwrap();
        for class in 0..2 {
            let mask = ds.class_mask(class);
            assert_eq!(mask.len(), 2, "70 rows pack into 2 words");
            for row in 0..ds.len() {
                let bit = mask[row / 64] >> (row % 64) & 1;
                assert_eq!(bit == 1, ds.label(row as RowId) == class, "row {row}");
            }
        }
        // Masks survive feature projection (labels are unchanged).
        let p = ds.select_features(&[1]);
        assert_eq!(p.class_mask(0), ds.class_mask(0));
    }

    #[test]
    fn le_mask_boundaries_and_sharing() {
        let ds = Dataset::from_rows(
            schema2x2(),
            &[
                (vec![1.0, 0.0], 0),
                (vec![2.0, 0.0], 1),
                (vec![2.0, 0.0], 0),
                (vec![4.0, 0.0], 1),
            ],
        )
        .unwrap();
        // Below / between / at / above the observed values.
        assert_eq!(ds.le_mask(0, 0.5, false), Some(&[][..]));
        assert_eq!(ds.le_mask(0, 1.0, false), Some(&[0b0001u64][..]));
        assert_eq!(ds.le_mask(0, 2.0, false), Some(&[0b0111u64][..]));
        assert_eq!(ds.le_mask(0, 2.0, true), Some(&[0b0001u64][..]));
        assert_eq!(ds.le_mask(0, 3.0, false), Some(&[0b0111u64][..]));
        assert_eq!(ds.le_mask(0, 99.0, false), Some(&[0b1111u64][..]));
        // A projection shares the already-built index (same allocation).
        let p = ds.select_features(&[0]);
        let a = ds.le_mask(0, 2.0, false).unwrap().as_ptr();
        let b = p.le_mask(0, 2.0, false).unwrap().as_ptr();
        assert_eq!(a, b, "projections must share the lazily-built masks");
        // Laziness is observational equality: a clone built before first
        // use answers identically.
        assert_eq!(ds.clone().le_mask(0, 2.0, true), ds.le_mask(0, 2.0, true));
    }

    #[test]
    fn feature_order_is_value_sorted_and_tie_stable() {
        let ds = Dataset::from_rows(
            schema2x2(),
            &[
                (vec![3.0, 1.0], 0),
                (vec![1.0, 1.0], 1),
                (vec![3.0, 0.0], 0),
                (vec![2.0, 1.0], 1),
            ],
        )
        .unwrap();
        // Feature 0: value order 1,2,3,3 — the tied 3s keep row order.
        assert_eq!(ds.feature_order(0), &[1, 3, 0, 2]);
        // Feature 1: 0 first, then the tied 1s in ascending row order.
        assert_eq!(ds.feature_order(1), &[2, 0, 1, 3]);
        // Projection keeps the selected features' orders.
        let p = ds.select_features(&[1]);
        assert_eq!(p.feature_order(0), ds.feature_order(1));
    }

    #[test]
    fn approx_bytes_scales_with_size() {
        let small = Dataset::from_rows(schema2x2(), &[(vec![0.0, 0.0], 0)]).unwrap();
        let rows: Vec<_> = (0..100).map(|i| (vec![i as f64, 0.0], 0)).collect();
        let big = Dataset::from_rows(schema2x2(), &rows).unwrap();
        assert!(big.approx_bytes() > small.approx_bytes());
    }

    // ---- Epoch / delta tests -------------------------------------------

    fn five_rows() -> Dataset {
        Dataset::from_rows(
            schema2x2(),
            &[
                (vec![1.0, 9.0], 0),
                (vec![2.0, 8.0], 1),
                (vec![3.0, 7.0], 0),
                (vec![4.0, 6.0], 1),
                (vec![5.0, 5.0], 0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn empty_delta_still_bumps_epoch() {
        let ds = five_rows();
        assert_eq!(ds.epoch(), 0);
        let (next, summary) = ds.apply_summarized(&DatasetDelta::new()).unwrap();
        assert_eq!(next.epoch(), 1);
        assert_eq!(
            summary,
            DeltaSummary {
                appended: 0,
                removed: vec![],
                flipped: vec![],
            }
        );
        assert!(summary.pure_removal());
        assert_eq!(next, ds, "content-equal; epochs differ");
    }

    #[test]
    fn content_fingerprint_tracks_equality_not_epoch() {
        let ds = five_rows();
        // Independently built equal datasets fingerprint equally.
        assert_eq!(ds.content_fingerprint(), five_rows().content_fingerprint());
        // A no-op delta bumps the epoch but not the fingerprint...
        let noop = ds.apply(&DatasetDelta::new()).unwrap();
        assert_eq!(noop.epoch(), 1);
        assert_eq!(noop.content_fingerprint(), ds.content_fingerprint());
        // ...while content mutations change it.
        let mut delta = DatasetDelta::new();
        delta.remove(1);
        let removed = ds.apply(&delta).unwrap();
        assert_ne!(removed.content_fingerprint(), ds.content_fingerprint());
        let mut delta = DatasetDelta::new();
        delta.flip_label(0, 1);
        let flipped = ds.apply(&delta).unwrap();
        assert_ne!(flipped.content_fingerprint(), ds.content_fingerprint());
        assert_ne!(flipped.content_fingerprint(), removed.content_fingerprint());
    }

    #[test]
    fn remove_clears_live_and_class_bits_but_shares_storage() {
        let ds = five_rows();
        let mut delta = DatasetDelta::new();
        delta.remove(1).remove(4).remove(1); // duplicate collapses
        let (next, summary) = ds.apply_summarized(&delta).unwrap();
        assert_eq!(summary.removed, vec![1, 4]);
        assert!(summary.pure_removal());
        assert_eq!(next.epoch(), 1);
        assert_eq!(next.len(), 3);
        assert_eq!(next.n_slots(), 5, "slots are stable, never compacted");
        assert!(!next.is_live(1) && !next.is_live(4));
        assert_eq!(next.rows().collect::<Vec<_>>(), vec![0, 2, 3]);
        assert_eq!(next.class_counts(), vec![2, 1]);
        // Storage the delta did not touch is shared, not copied.
        assert_eq!(
            ds.columns().as_ptr(),
            next.columns().as_ptr(),
            "removal must share column storage"
        );
        assert_eq!(
            ds.feature_order(0).as_ptr(),
            next.feature_order(0).as_ptr(),
            "removal must share slot orders (subsets filter dead slots)"
        );
        // The prefix masks reflect the removal: live rows 0/2/3 hold
        // values 1/3/4, so `<= 2` catches only row 0 and `<= 5` all three.
        assert_eq!(next.le_mask(0, 2.0, false), Some(&[0b00001u64][..]));
        assert_eq!(next.le_mask(0, 5.0, false), Some(&[0b01101u64][..]));
        // Out-of-range liveness queries are false, not panics.
        assert!(!next.is_live(5));
    }

    #[test]
    fn append_extends_columns_and_merges_orders() {
        let ds = five_rows();
        let mut delta = DatasetDelta::new();
        // 2.0 ties an existing value; 0.5 lands in front; ties between the
        // two appended rows keep append order.
        delta.append(&[2.0, 4.0], 1).append(&[0.5, 4.0], 0);
        let next = ds.apply(&delta).unwrap();
        assert_eq!(next.len(), 7);
        assert_eq!(next.n_slots(), 7);
        assert_eq!(next.value(5, 0), 2.0);
        assert_eq!(next.value(6, 0), 0.5);
        assert_eq!(next.label(5), 1);
        assert_eq!(next.class_counts(), vec![4, 3]);
        // The merged order equals what a from-scratch build produces.
        let rebuilt = Dataset::from_rows(
            schema2x2(),
            &[
                (vec![1.0, 9.0], 0),
                (vec![2.0, 8.0], 1),
                (vec![3.0, 7.0], 0),
                (vec![4.0, 6.0], 1),
                (vec![5.0, 5.0], 0),
                (vec![2.0, 4.0], 1),
                (vec![0.5, 4.0], 0),
            ],
        )
        .unwrap();
        for f in 0..2 {
            assert_eq!(
                next.feature_order(f),
                rebuilt.feature_order(f),
                "feature {f}"
            );
        }
        // The old epoch never sees the appended slots.
        assert_eq!(ds.len(), 5);
        assert!(!ds.is_live(5));
    }

    #[test]
    fn pure_flip_shares_threshold_cells_and_moves_class_bits() {
        let ds = five_rows();
        let before = ds.le_mask(0, 3.0, false).unwrap().as_ptr();
        let mut delta = DatasetDelta::new();
        delta.flip_label(0, 1).flip_label(2, 0); // second is a no-op flip
        let (next, summary) = ds.apply_summarized(&delta).unwrap();
        assert_eq!(summary.flipped, vec![0], "no-op flips are normalized away");
        assert!(!summary.pure_removal());
        assert_eq!(next.label(0), 1);
        assert_eq!(ds.label(0), 0, "old epoch keeps its label");
        assert_eq!(next.class_counts(), vec![2, 3]);
        assert_eq!(
            next.le_mask(0, 3.0, false).unwrap().as_ptr(),
            before,
            "thresholds are label-blind: pure flips share the built cells"
        );
        for class in 0..2u16 {
            for r in next.rows() {
                let bit = next.class_mask(class)[r as usize / 64] >> (r % 64) & 1;
                assert_eq!(bit == 1, next.label(r) == class, "class {class} row {r}");
            }
        }
    }

    #[test]
    fn patched_threshold_index_equals_lazy_rebuild() {
        // Two independently built copies of the same data: force the index
        // on one so its post-delta cells are *patched*, leave the other to
        // rebuild lazily at the new epoch. Both must answer identically.
        let eager = five_rows();
        let lazy = five_rows();
        let _ = eager.le_mask(0, 3.0, false); // build before the delta
        let _ = eager.le_mask(1, 7.0, false);
        let mut delta = DatasetDelta::new();
        delta
            .remove(2)
            .append(&[3.5, 6.5], 1)
            .append(&[1.0, 9.5], 0); // value 1.0 ties slot 0 on feature 0
        let pe = eager.apply(&delta).unwrap();
        let pl = lazy.apply(&delta).unwrap();
        for f in 0..2 {
            for t in [0.4, 0.5, 1.0, 2.0, 3.0, 3.5, 5.0, 6.5, 7.0, 9.5, 10.0] {
                for strict in [false, true] {
                    assert_eq!(
                        pe.le_mask(f, t, strict),
                        pl.le_mask(f, t, strict),
                        "feature {f}, threshold {t}, strict {strict}"
                    );
                }
            }
            assert_eq!(pe.feature_order(f), pl.feature_order(f));
        }
        assert_eq!(pe, pl);
        // A removal-only patch also matches the lazy rebuild, including
        // the stale value entry it may retain.
        let mut rm = DatasetDelta::new();
        rm.remove(0);
        let pe = eager.apply(&rm).unwrap();
        let pl = lazy.apply(&rm).unwrap();
        for t in [0.5, 1.0, 1.5, 5.0] {
            assert_eq!(pe.le_mask(0, t, false), pl.le_mask(0, t, false), "{t}");
        }
    }

    #[test]
    fn old_epoch_clone_is_immune_to_parent_mutation() {
        // The satellite-2 staleness property: a clone taken at epoch e
        // keeps answering for epoch e after the parent is mutated, even
        // for indexes built lazily *after* the mutation.
        let ds = five_rows();
        let clone = ds.clone();
        let pristine = five_rows();
        let mut delta = DatasetDelta::new();
        delta.remove(1).append(&[2.5, 6.0], 1).flip_label(0, 1);
        let next = ds.apply(&delta).unwrap();
        assert_eq!(next.epoch(), 1);
        // The clone still sees epoch-0 data; its lazily built indexes are
        // constructed against its own live set, not the parent's.
        assert_eq!(clone.epoch(), 0);
        assert_eq!(clone.len(), 5);
        assert_eq!(clone.class_counts(), pristine.class_counts());
        for f in 0..2 {
            assert_eq!(clone.feature_order(f), pristine.feature_order(f));
            for t in [0.5, 1.0, 2.0, 2.5, 3.0, 5.0, 9.0] {
                assert_eq!(
                    clone.le_mask(f, t, false),
                    pristine.le_mask(f, t, false),
                    "feature {f}, threshold {t}"
                );
            }
        }
        assert!(clone.is_live(1));
        assert_eq!(clone.label(0), 0);
        assert_eq!(next.label(0), 1);
    }

    #[test]
    fn chained_epochs_keep_every_generation_consistent() {
        let e0 = five_rows();
        let mut d1 = DatasetDelta::new();
        d1.remove(3);
        let e1 = e0.apply(&d1).unwrap();
        let mut d2 = DatasetDelta::new();
        d2.append(&[6.0, 4.0], 1).flip_label(4, 1);
        let e2 = e1.apply(&d2).unwrap();
        assert_eq!((e0.epoch(), e1.epoch(), e2.epoch()), (0, 1, 2));
        assert_eq!((e0.len(), e1.len(), e2.len()), (5, 4, 5));
        assert_eq!(e2.rows().collect::<Vec<_>>(), vec![0, 1, 2, 4, 5]);
        assert_eq!(e2.class_counts(), vec![2, 3]);
        assert_eq!(e0.class_counts(), vec![3, 2]);
        // Removing an already-dead slot at a later epoch is an error.
        let mut bad = DatasetDelta::new();
        bad.remove(3);
        assert!(matches!(
            e2.apply(&bad),
            Err(DataError::InvalidDelta { row: 3, .. })
        ));
    }

    #[test]
    fn invalid_deltas_rejected() {
        let ds = five_rows();
        let mut d = DatasetDelta::new();
        d.remove(7);
        assert!(matches!(
            ds.apply(&d),
            Err(DataError::InvalidDelta { row: 7, .. })
        ));
        let mut d = DatasetDelta::new();
        d.flip_label(9, 0);
        assert!(matches!(
            ds.apply(&d),
            Err(DataError::InvalidDelta { row: 9, .. })
        ));
        let mut d = DatasetDelta::new();
        d.remove(2).flip_label(2, 1);
        assert!(matches!(
            ds.apply(&d),
            Err(DataError::InvalidDelta { row: 2, .. })
        ));
        let mut d = DatasetDelta::new();
        d.flip_label(0, 5);
        assert!(matches!(
            ds.apply(&d),
            Err(DataError::LabelOutOfRange { label: 5, .. })
        ));
        let mut d = DatasetDelta::new();
        d.append(&[1.0], 0);
        assert!(matches!(ds.apply(&d), Err(DataError::ArityMismatch { .. })));
        let mut d = DatasetDelta::new();
        d.append(&[1.0, f64::NAN], 0);
        assert!(matches!(
            ds.apply(&d),
            Err(DataError::NonFiniteValue { feature: 1, .. })
        ));
        // A failed apply leaves the receiver fully intact.
        assert_eq!(ds, five_rows());
        assert_eq!(ds.epoch(), 0);
    }

    #[test]
    fn delta_builder_api() {
        let mut d = DatasetDelta::new();
        assert!(d.is_empty());
        d.remove(0);
        assert!(!d.is_empty());
        let mut d = DatasetDelta::new();
        d.flip_label(1, 0).flip_label(1, 1); // last wins
        let ds = five_rows();
        let (_, summary) = ds.apply_summarized(&d).unwrap();
        assert_eq!(summary.flipped, vec![], "1 already has label 1: no-op");
    }
}
