//! The parallel, cancellation-aware execution engine (DESIGN.md §5).
//!
//! Every certification entry point used to thread an ad-hoc `Limits`
//! struct (deadline + disjunct budget) and a scatter of `Instant::now()`
//! calls through the abstract interpreter. This module replaces that
//! plumbing with one value, [`ExecContext`], which owns:
//!
//! * the **deadline** (absolute; checked cooperatively),
//! * the **disjunct budget** (the paper's out-of-memory stand-in),
//! * a **cooperative cancellation flag**, chained from parent to child so
//!   cancelling a sweep cancels every in-flight certification, while a
//!   child timing out never stalls its siblings,
//! * shared [`RunMetrics`], and
//! * the **thread count** used by [`ExecContext::par_map`].
//!
//! Parallelism is built on a **persistent worker pool** (the [`pool`]
//! module, DESIGN.md §9.3) — the build environment vendors no external
//! crates (see `shims/README.md`), so the engine provides the rayon-like
//! primitive itself: an order-preserving, chunked, work-stealing
//! `par_map` whose batches are drained by long-lived pool workers plus
//! the calling thread (no per-call thread spawning). `threads(1)` is the
//! escape hatch that restores the exact sequential behavior: `par_map`
//! then runs inline, in index order, on the calling thread, and
//! single-item calls take the same inline fast path without touching the
//! pool.
//!
//! [`pool`]: crate::pool
//!
//! # Determinism contract
//!
//! `par_map` returns results in **input order** regardless of which
//! worker computed them, so any caller that folds the results in order
//! observes output identical to a sequential run. All engine users
//! (`sweep`, `run_abstract`'s disjunct frontier, `certify_forest`,
//! `baselines::enumerate`) rely on this: parallel and sequential runs
//! return identical verdicts (timings aside).

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub use crate::pool::{pool_stats, PoolStats};

/// Live metrics of one engine run; shared with child contexts' parents
/// and updated atomically from worker threads.
#[derive(Debug, Default)]
pub struct RunMetrics {
    peak_disjuncts: AtomicUsize,
    peak_bytes: AtomicUsize,
    disjuncts_processed: AtomicU64,
    disjuncts_subsumed: AtomicU64,
    parallel_tasks: AtomicU64,
    certify_calls: AtomicU64,
    cache_hits: AtomicU64,
    cache_shortcircuits: AtomicU64,
    cache_misses: AtomicU64,
    cache_transfers: AtomicU64,
    cache_invalidations: AtomicU64,
    split_memo_hits: AtomicU64,
    split_memo_misses: AtomicU64,
    interner_hits: AtomicU64,
    arena_bytes: AtomicUsize,
    arena_resets: AtomicU64,
    simd_lanes: AtomicUsize,
    requests_served: AtomicU64,
    cross_request_cache_hits: AtomicU64,
    probes_scheduled: AtomicU64,
    probes_deferred: AtomicU64,
    deadline_degradations: AtomicU64,
    warm_state_shared_hits: AtomicU64,
    sessions_evicted: AtomicU64,
    pool_batches: AtomicU64,
}

impl RunMetrics {
    /// Raises the peak-disjunct watermark to at least `v`.
    pub fn record_peak_disjuncts(&self, v: usize) {
        self.peak_disjuncts.fetch_max(v, Ordering::Relaxed);
    }

    /// Raises the peak-memory watermark (bytes) to at least `v`.
    pub fn record_peak_bytes(&self, v: usize) {
        self.peak_bytes.fetch_max(v, Ordering::Relaxed);
    }

    /// Adds to the processed-disjunct counter.
    pub fn add_disjuncts_processed(&self, v: u64) {
        self.disjuncts_processed.fetch_add(v, Ordering::Relaxed);
    }

    /// Peak simultaneous disjuncts observed so far.
    pub fn peak_disjuncts(&self) -> usize {
        self.peak_disjuncts.load(Ordering::Relaxed)
    }

    /// Peak memory proxy (bytes) observed so far (DESIGN.md §4).
    pub fn peak_bytes(&self) -> usize {
        self.peak_bytes.load(Ordering::Relaxed)
    }

    /// Total disjuncts processed.
    pub fn disjuncts_processed(&self) -> u64 {
        self.disjuncts_processed.load(Ordering::Relaxed)
    }

    /// Adds to the subsumption-pruned disjunct counter: frontier elements
    /// dropped because another disjunct dominates them under the `⟨T,n⟩`
    /// partial order (the learner's `--no-subsume`-gated pruning pass).
    pub fn add_disjuncts_subsumed(&self, v: u64) {
        self.disjuncts_subsumed.fetch_add(v, Ordering::Relaxed);
    }

    /// Total disjuncts dropped by frontier subsumption pruning.
    pub fn disjuncts_subsumed(&self) -> u64 {
        self.disjuncts_subsumed.load(Ordering::Relaxed)
    }

    /// Total items executed through [`ExecContext::par_map`].
    pub fn parallel_tasks(&self) -> u64 {
        self.parallel_tasks.load(Ordering::Relaxed)
    }

    /// Counts one *full* certifier invocation: a from-scratch derivation
    /// of the concrete reference trace plus a fresh abstract run. The
    /// incremental cache (`antidote_core::cache`) deliberately does not
    /// count resumed or short-circuited probes here.
    pub fn add_certify_call(&self) {
        self.certify_calls.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one cache hit: a probe answered with cached state, either
    /// incrementally (cached trace + budget-widened seed, abstract run
    /// only) or fully (no abstract run at all — also counted by
    /// [`RunMetrics::add_cache_shortcircuit`]).
    pub fn add_cache_hit(&self) {
        self.cache_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one full short-circuit: a probe answered from the verdict
    /// intervals or a counterexample witness without running the abstract
    /// interpreter. Always paired with [`RunMetrics::add_cache_hit`].
    pub fn add_cache_shortcircuit(&self) {
        self.cache_shortcircuits.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one cache miss: a probe for a point with no cached state
    /// yet (always paired with [`RunMetrics::add_certify_call`]).
    pub fn add_cache_miss(&self) {
        self.cache_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Total full certifier invocations (see [`RunMetrics::add_certify_call`]).
    pub fn certify_calls(&self) -> u64 {
        self.certify_calls.load(Ordering::Relaxed)
    }

    /// Total cache hits (incremental + short-circuit).
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits.load(Ordering::Relaxed)
    }

    /// Total full short-circuits (no abstract run).
    pub fn cache_shortcircuits(&self) -> u64 {
        self.cache_shortcircuits.load(Ordering::Relaxed)
    }

    /// Total cache misses.
    pub fn cache_misses(&self) -> u64 {
        self.cache_misses.load(Ordering::Relaxed)
    }

    /// Counts one certificate transfer: a per-point verdict bound carried
    /// from a [`CertCache`] at epoch `e` into its successor at epoch
    /// `e + 1` under the sound pure-removal transfer rule (budget shrunk
    /// by the number of removed support rows; see `antidote_core::cache`).
    ///
    /// [`CertCache`]: crate::CertCache
    pub fn add_cache_transfer(&self) {
        self.cache_transfers.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one certificate invalidation: cached per-point state that
    /// could *not* be carried across an epoch boundary (the delta
    /// appended or flipped rows, or the removal count exhausted the
    /// certified budget) and was dropped for fresh re-certification.
    pub fn add_cache_invalidation(&self) {
        self.cache_invalidations.fetch_add(1, Ordering::Relaxed);
    }

    /// Total certificates transferred across epoch boundaries.
    pub fn cache_transfers(&self) -> u64 {
        self.cache_transfers.load(Ordering::Relaxed)
    }

    /// Total certificates invalidated at epoch boundaries.
    pub fn cache_invalidations(&self) -> u64 {
        self.cache_invalidations.load(Ordering::Relaxed)
    }

    /// Counts one `bestSplit#` memo hit: a frontier disjunct whose
    /// scored-candidate sweep was answered from the per-certify-call memo
    /// table (DESIGN.md §9.2) instead of re-running.
    pub fn add_split_memo_hit(&self) {
        self.split_memo_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one `bestSplit#` memo miss: the first time a
    /// `(base, n)` state is scored within one certify call (always paired
    /// with an actual candidate sweep).
    pub fn add_split_memo_miss(&self) {
        self.split_memo_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds to the interner-hit counter: frontier base sets whose payload
    /// was already hash-consed earlier in the same run, so the disjunct
    /// was rewired to the canonical allocation (DESIGN.md §9.1).
    pub fn add_interner_hits(&self, v: u64) {
        self.interner_hits.fetch_add(v, Ordering::Relaxed);
    }

    /// Counts one `par_map` batch dispatched to the persistent worker
    /// pool (inline/sequential calls are deliberately not counted — the
    /// fast-path regression test relies on this staying zero for
    /// `threads(1)` and single-item calls).
    fn add_pool_batch(&self) {
        self.pool_batches.fetch_add(1, Ordering::Relaxed);
    }

    /// Total `bestSplit#` memo hits.
    pub fn split_memo_hits(&self) -> u64 {
        self.split_memo_hits.load(Ordering::Relaxed)
    }

    /// Total `bestSplit#` memo misses.
    pub fn split_memo_misses(&self) -> u64 {
        self.split_memo_misses.load(Ordering::Relaxed)
    }

    /// Total interner hits (structure-sharing events).
    pub fn interner_hits(&self) -> u64 {
        self.interner_hits.load(Ordering::Relaxed)
    }

    /// Raises the arena high-water mark (bytes held by the learner's
    /// per-thread [`WordArena`]s, DESIGN.md §10.2) to at least `v`.
    ///
    /// [`WordArena`]: antidote_data::WordArena
    pub fn record_arena_bytes(&self, v: usize) {
        self.arena_bytes.fetch_max(v, Ordering::Relaxed);
    }

    /// Adds to the arena run-boundary counter: one per `run_abstract`
    /// invocation that resets its thread's scratch arena. Thread-invariant
    /// (a run resets exactly one arena no matter where it executes), so
    /// the perf gate pins it.
    pub fn add_arena_resets(&self, v: u64) {
        self.arena_resets.fetch_add(v, Ordering::Relaxed);
    }

    /// Raises the SIMD lane-width watermark: the word-kernel lane count
    /// the run was configured with (4 when the `simd` feature is compiled
    /// and armed, 1 under `--no-simd` or the scalar fallback build).
    pub fn record_simd_lanes(&self, v: usize) {
        self.simd_lanes.fetch_max(v, Ordering::Relaxed);
    }

    /// Peak bytes held by the learner's scratch arenas.
    pub fn arena_bytes(&self) -> usize {
        self.arena_bytes.load(Ordering::Relaxed)
    }

    /// Total arena run boundaries (one per abstract-learner run).
    pub fn arena_resets(&self) -> u64 {
        self.arena_resets.load(Ordering::Relaxed)
    }

    /// Widest word-kernel lane count recorded by any run (0 before the
    /// first run records one).
    pub fn simd_lanes(&self) -> usize {
        self.simd_lanes.load(Ordering::Relaxed)
    }

    /// Counts one admitted service request (certify or sweep), including
    /// requests the request engine coalesced onto an identical in-flight
    /// twin — every admitted request is served exactly once.
    pub fn add_request_served(&self) {
        self.requests_served.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one certify request answered entirely from session state —
    /// a cached-interval short-circuit, a transferred bound, or a
    /// coalesced duplicate — without executing a single abstract run.
    /// This is the service's warm-path counter: `cross_request_cache_hits
    /// / requests_served` is the cross-request hit rate `BENCH_serve.json`
    /// reports.
    pub fn add_cross_request_cache_hit(&self) {
        self.cross_request_cache_hits
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Total admitted service requests.
    pub fn requests_served(&self) -> u64 {
        self.requests_served.load(Ordering::Relaxed)
    }

    /// Total certify requests answered without any abstract run.
    pub fn cross_request_cache_hits(&self) -> u64 {
        self.cross_request_cache_hits.load(Ordering::Relaxed)
    }

    /// Adds to the scheduled-probe counter: (point, rung) probes the
    /// probe scheduler (`antidote_core::sched`, DESIGN.md §13) issued,
    /// whether as a full rung, a priority-ordered partial rung under a
    /// binding budget, or an interval-tightening probe.
    pub fn add_probes_scheduled(&self, v: u64) {
        self.probes_scheduled.fetch_add(v, Ordering::Relaxed);
    }

    /// Adds to the deferred-probe counter: (point, rung) probes the
    /// scheduler declined to issue because the sweep-global deadline or
    /// probe budget was exhausted.
    pub fn add_probes_deferred(&self, v: u64) {
        self.probes_deferred.fetch_add(v, Ordering::Relaxed);
    }

    /// Counts one deadline degradation: the first time a point's probe is
    /// deferred by the scheduler, leaving that point at its current —
    /// still sound — `[max_robust, min_unknown]` interval instead of a
    /// refined one (at most one per point per sweep).
    pub fn add_deadline_degradation(&self) {
        self.deadline_degradations.fetch_add(1, Ordering::Relaxed);
    }

    /// Total probes issued by the scheduler.
    pub fn probes_scheduled(&self) -> u64 {
        self.probes_scheduled.load(Ordering::Relaxed)
    }

    /// Total probes deferred by the scheduler.
    pub fn probes_deferred(&self) -> u64 {
        self.probes_deferred.load(Ordering::Relaxed)
    }

    /// Total points degraded to their current interval by a binding
    /// deadline or probe budget.
    pub fn deadline_degradations(&self) -> u64 {
        self.deadline_degradations.load(Ordering::Relaxed)
    }

    /// Counts one warm-state join: a session opened against the
    /// process-wide `WarmStateIndex` found a live warm unit under the
    /// same `(dataset fingerprint, epoch, config fingerprint)` key and
    /// attached to it instead of building cold caches (DESIGN.md §14).
    pub fn add_warm_state_shared_hit(&self) {
        self.warm_state_shared_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one session eviction: a service session dropped by the LRU
    /// policy (`--max-sessions` / byte watermark) or an explicit `evict`
    /// op; a later request under the same handle re-certifies from cold.
    pub fn add_session_evicted(&self) {
        self.sessions_evicted.fetch_add(1, Ordering::Relaxed);
    }

    /// Total warm-state index joins by newly opened sessions.
    pub fn warm_state_shared_hits(&self) -> u64 {
        self.warm_state_shared_hits.load(Ordering::Relaxed)
    }

    /// Total sessions evicted (LRU policy or explicit `evict` op).
    pub fn sessions_evicted(&self) -> u64 {
        self.sessions_evicted.load(Ordering::Relaxed)
    }

    /// Total `par_map` batches this context's runs dispatched to the
    /// persistent pool (not part of [`MetricsSnapshot`]: whether a call
    /// takes the pool path can depend on the host's core count via
    /// `threads(0)`, unlike every snapshot counter, which is
    /// thread-invariant).
    pub fn pool_batches(&self) -> u64 {
        self.pool_batches.load(Ordering::Relaxed)
    }

    /// `hits / (hits + misses)`, or 0 when the cache saw no probes.
    pub fn cache_hit_rate(&self) -> f64 {
        let h = self.cache_hits() as f64;
        let m = self.cache_misses() as f64;
        if h + m == 0.0 {
            0.0
        } else {
            h / (h + m)
        }
    }

    /// A point-in-time copy of every counter and watermark.
    ///
    /// The matrix runner gives each grid cell a context with its own
    /// `RunMetrics` (see [`ExecContext::fresh_metrics`]), snapshots it
    /// when the cell finishes, and [absorbs](RunMetrics::absorb) the
    /// snapshot into the run-wide metrics — per-cell attribution without
    /// losing the aggregate.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            peak_disjuncts: self.peak_disjuncts(),
            peak_bytes: self.peak_bytes(),
            disjuncts_processed: self.disjuncts_processed(),
            disjuncts_subsumed: self.disjuncts_subsumed(),
            parallel_tasks: self.parallel_tasks(),
            certify_calls: self.certify_calls(),
            cache_hits: self.cache_hits(),
            cache_shortcircuits: self.cache_shortcircuits(),
            cache_misses: self.cache_misses(),
            cache_transfers: self.cache_transfers(),
            cache_invalidations: self.cache_invalidations(),
            split_memo_hits: self.split_memo_hits(),
            split_memo_misses: self.split_memo_misses(),
            interner_hits: self.interner_hits(),
            arena_bytes: self.arena_bytes(),
            arena_resets: self.arena_resets(),
            simd_lanes: self.simd_lanes(),
            requests_served: self.requests_served(),
            cross_request_cache_hits: self.cross_request_cache_hits(),
            probes_scheduled: self.probes_scheduled(),
            probes_deferred: self.probes_deferred(),
            deadline_degradations: self.deadline_degradations(),
            warm_state_shared_hits: self.warm_state_shared_hits(),
            sessions_evicted: self.sessions_evicted(),
        }
    }

    /// Rolls a snapshot up into these metrics: watermarks are raised
    /// (`max`), counters are added. The inverse of carving a cell off via
    /// [`ExecContext::fresh_metrics`] — absorbing every cell's snapshot
    /// reproduces the totals a shared-metrics run would have recorded.
    pub fn absorb(&self, s: &MetricsSnapshot) {
        self.peak_disjuncts
            .fetch_max(s.peak_disjuncts, Ordering::Relaxed);
        self.peak_bytes.fetch_max(s.peak_bytes, Ordering::Relaxed);
        self.disjuncts_processed
            .fetch_add(s.disjuncts_processed, Ordering::Relaxed);
        self.disjuncts_subsumed
            .fetch_add(s.disjuncts_subsumed, Ordering::Relaxed);
        self.parallel_tasks
            .fetch_add(s.parallel_tasks, Ordering::Relaxed);
        self.certify_calls
            .fetch_add(s.certify_calls, Ordering::Relaxed);
        self.cache_hits.fetch_add(s.cache_hits, Ordering::Relaxed);
        self.cache_shortcircuits
            .fetch_add(s.cache_shortcircuits, Ordering::Relaxed);
        self.cache_misses
            .fetch_add(s.cache_misses, Ordering::Relaxed);
        self.cache_transfers
            .fetch_add(s.cache_transfers, Ordering::Relaxed);
        self.cache_invalidations
            .fetch_add(s.cache_invalidations, Ordering::Relaxed);
        self.split_memo_hits
            .fetch_add(s.split_memo_hits, Ordering::Relaxed);
        self.split_memo_misses
            .fetch_add(s.split_memo_misses, Ordering::Relaxed);
        self.interner_hits
            .fetch_add(s.interner_hits, Ordering::Relaxed);
        self.arena_bytes.fetch_max(s.arena_bytes, Ordering::Relaxed);
        self.arena_resets
            .fetch_add(s.arena_resets, Ordering::Relaxed);
        self.simd_lanes.fetch_max(s.simd_lanes, Ordering::Relaxed);
        self.requests_served
            .fetch_add(s.requests_served, Ordering::Relaxed);
        self.cross_request_cache_hits
            .fetch_add(s.cross_request_cache_hits, Ordering::Relaxed);
        self.probes_scheduled
            .fetch_add(s.probes_scheduled, Ordering::Relaxed);
        self.probes_deferred
            .fetch_add(s.probes_deferred, Ordering::Relaxed);
        self.deadline_degradations
            .fetch_add(s.deadline_degradations, Ordering::Relaxed);
        self.warm_state_shared_hits
            .fetch_add(s.warm_state_shared_hits, Ordering::Relaxed);
        self.sessions_evicted
            .fetch_add(s.sessions_evicted, Ordering::Relaxed);
    }
}

/// A plain-data copy of one [`RunMetrics`] at a point in time.
///
/// Produced by [`RunMetrics::snapshot`]; `Copy`, comparable, and
/// serialisable by hand — the per-cell counter block of
/// `BENCH_matrix.json` is exactly this struct.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Peak simultaneous disjuncts observed.
    pub peak_disjuncts: usize,
    /// Peak memory proxy (bytes) observed.
    pub peak_bytes: usize,
    /// Total disjuncts processed.
    pub disjuncts_processed: u64,
    /// Disjuncts dropped by frontier subsumption pruning.
    pub disjuncts_subsumed: u64,
    /// Items executed through [`ExecContext::par_map`].
    pub parallel_tasks: u64,
    /// Full certifier invocations.
    pub certify_calls: u64,
    /// Cache hits (incremental + short-circuit).
    pub cache_hits: u64,
    /// Certifier-free short-circuits.
    pub cache_shortcircuits: u64,
    /// Cache misses.
    pub cache_misses: u64,
    /// Certificates transferred across an epoch boundary (pure-removal
    /// transfer rule; see `antidote_core::cache`).
    pub cache_transfers: u64,
    /// Certificates invalidated at an epoch boundary (no sound transfer).
    pub cache_invalidations: u64,
    /// `bestSplit#` memo hits (per-certify-call memo, DESIGN.md §9.2).
    pub split_memo_hits: u64,
    /// `bestSplit#` memo misses.
    pub split_memo_misses: u64,
    /// Interner hits: frontier payloads rewired to an already hash-consed
    /// allocation (DESIGN.md §9.1).
    pub interner_hits: u64,
    /// Peak bytes held by the learner's scratch arenas (watermark,
    /// DESIGN.md §10.2).
    pub arena_bytes: usize,
    /// Arena run boundaries: one per abstract-learner run.
    pub arena_resets: u64,
    /// Widest word-kernel lane count any run recorded (4 = SIMD armed,
    /// 1 = scalar fallback, 0 = no runs).
    pub simd_lanes: usize,
    /// Admitted service requests (certify + sweep), coalesced duplicates
    /// included.
    pub requests_served: u64,
    /// Certify requests answered from session state without any abstract
    /// run (the service's warm path).
    pub cross_request_cache_hits: u64,
    /// Probes issued by the sweep's probe scheduler (DESIGN.md §13).
    pub probes_scheduled: u64,
    /// Probes the scheduler deferred under a binding deadline or budget.
    pub probes_deferred: u64,
    /// Points degraded to their current sound interval by a binding
    /// deadline or budget (at most one per point per sweep).
    pub deadline_degradations: u64,
    /// Sessions that joined a live warm unit through the process-wide
    /// `WarmStateIndex` instead of building cold caches (DESIGN.md §14).
    pub warm_state_shared_hits: u64,
    /// Service sessions dropped by the LRU eviction policy or an
    /// explicit `evict` op.
    pub sessions_evicted: u64,
}

impl MetricsSnapshot {
    /// `hits / (hits + misses)`, or 0 when the cache saw no probes.
    pub fn cache_hit_rate(&self) -> f64 {
        let h = self.cache_hits as f64;
        let m = self.cache_misses as f64;
        if h + m == 0.0 {
            0.0
        } else {
            h / (h + m)
        }
    }
}

/// The earlier of two optional deadlines.
fn min_deadline(a: Option<Instant>, b: Option<Instant>) -> Option<Instant> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.min(y)),
        (x, y) => x.or(y),
    }
}

/// Execution context for one certification run (or a whole sweep).
///
/// Cheap to clone: limits are `Copy`, the cancellation flag and metrics
/// are shared `Arc`s. Construct with [`ExecContext::new`] (all cores) or
/// [`ExecContext::sequential`], then refine with the builder methods.
///
/// ```
/// use antidote_core::engine::ExecContext;
/// use std::time::Duration;
///
/// let ctx = ExecContext::new()
///     .threads(4)
///     .timeout(Duration::from_secs(10))
///     .disjunct_budget(1 << 20);
/// assert_eq!(ctx.effective_threads(), 4);
/// assert!(!ctx.should_stop());
/// ```
#[derive(Debug, Clone)]
pub struct ExecContext {
    deadline: Option<Instant>,
    /// Earliest deadline anywhere up the ancestor chain: a parent's
    /// deadline bounds every descendant, even though each child starts
    /// its own clock.
    ancestor_deadline: Option<Instant>,
    disjunct_budget: Option<usize>,
    /// Requested worker count; 0 = all available cores.
    threads: usize,
    cancel: Arc<AtomicBool>,
    /// Cancellation flags of every ancestor, nearest-first; a raised flag
    /// anywhere in the chain cancels this context.
    ancestor_cancels: Vec<Arc<AtomicBool>>,
    metrics: Arc<RunMetrics>,
}

impl Default for ExecContext {
    fn default() -> Self {
        ExecContext::new()
    }
}

impl ExecContext {
    /// A context with no limits, using every available core.
    pub fn new() -> Self {
        ExecContext {
            deadline: None,
            ancestor_deadline: None,
            disjunct_budget: None,
            threads: 0,
            cancel: Arc::new(AtomicBool::new(false)),
            ancestor_cancels: Vec::new(),
            metrics: Arc::new(RunMetrics::default()),
        }
    }

    /// A context with no limits, running strictly sequentially — the
    /// escape hatch restoring pre-engine behavior.
    pub fn sequential() -> Self {
        ExecContext::new().threads(1)
    }

    /// Sets the worker count (0 = all available cores).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets an absolute deadline.
    pub fn deadline(mut self, at: Instant) -> Self {
        self.deadline = Some(at);
        self
    }

    /// Sets the deadline `timeout` from now.
    pub fn timeout(self, timeout: Duration) -> Self {
        self.deadline(Instant::now() + timeout)
    }

    /// Sets the deadline `timeout` from now, when given.
    pub fn maybe_timeout(self, timeout: Option<Duration>) -> Self {
        match timeout {
            Some(t) => self.timeout(t),
            None => self,
        }
    }

    /// Sets the maximum live disjuncts (active + terminal) per run.
    pub fn disjunct_budget(mut self, max: usize) -> Self {
        self.disjunct_budget = Some(max);
        self
    }

    /// Sets the disjunct budget, when given.
    pub fn maybe_disjunct_budget(mut self, max: Option<usize>) -> Self {
        self.disjunct_budget = max.or(self.disjunct_budget);
        self
    }

    /// A child context: a fresh cancellation flag (so the child's timeout
    /// or cancellation never stalls its siblings) with the whole ancestor
    /// chain retained — cancelling *any* ancestor, however deep the
    /// nesting, cancels the child. The parent's thread count, disjunct
    /// budget, and metrics are shared (metrics aggregate run-wide:
    /// watermarks max, counters sum). The child's *own* deadline starts
    /// unset — each child runs its own clock — but every ancestor
    /// deadline still bounds the child: a sweep given one second stops
    /// its in-flight instances at one second no matter what per-instance
    /// timeouts they carry.
    pub fn child(&self) -> ExecContext {
        let mut ancestor_cancels = Vec::with_capacity(self.ancestor_cancels.len() + 1);
        ancestor_cancels.push(self.cancel.clone());
        ancestor_cancels.extend(self.ancestor_cancels.iter().cloned());
        ExecContext {
            deadline: None,
            ancestor_deadline: min_deadline(self.deadline, self.ancestor_deadline),
            disjunct_budget: self.disjunct_budget,
            threads: self.threads,
            cancel: Arc::new(AtomicBool::new(false)),
            ancestor_cancels,
            metrics: self.metrics.clone(),
        }
    }

    /// Detaches this context from the metrics it currently shares,
    /// giving it (and every context derived from it afterwards) a fresh
    /// zeroed [`RunMetrics`].
    ///
    /// Combined with [`child`](ExecContext::child) this carves an
    /// isolated metrics scope out of a larger run — the matrix runner's
    /// per-cell attribution — while cancellation and deadlines still
    /// chain through the ancestor contexts. Roll the cell's counters
    /// back into the parent with [`RunMetrics::absorb`]:
    ///
    /// ```
    /// use antidote_core::engine::ExecContext;
    ///
    /// let parent = ExecContext::new();
    /// let cell = parent.child().fresh_metrics();
    /// cell.metrics().add_certify_call();
    /// assert_eq!(parent.metrics().certify_calls(), 0); // isolated…
    /// parent.metrics().absorb(&cell.metrics().snapshot());
    /// assert_eq!(parent.metrics().certify_calls(), 1); // …then rolled up
    /// ```
    pub fn fresh_metrics(mut self) -> Self {
        self.metrics = Arc::new(RunMetrics::default());
        self
    }

    /// Requests cooperative cancellation of this context and its children.
    pub fn cancel(&self) {
        self.cancel.store(true, Ordering::Release);
    }

    /// Whether this context (or any ancestor) was cancelled.
    pub fn is_cancelled(&self) -> bool {
        self.cancel.load(Ordering::Acquire)
            || self
                .ancestor_cancels
                .iter()
                .any(|p| p.load(Ordering::Acquire))
    }

    /// Whether this context's deadline — or any ancestor's — has passed.
    pub fn deadline_exceeded(&self) -> bool {
        match min_deadline(self.deadline, self.ancestor_deadline) {
            Some(d) => Instant::now() >= d,
            None => false,
        }
    }

    /// Whether work should stop now (cancelled or past the deadline).
    pub fn should_stop(&self) -> bool {
        self.is_cancelled() || self.deadline_exceeded()
    }

    /// Whether `live` disjuncts exceed the budget.
    pub fn over_disjunct_budget(&self, live: usize) -> bool {
        self.disjunct_budget.is_some_and(|max| live > max)
    }

    /// The configured disjunct budget, if any.
    pub fn disjunct_budget_limit(&self) -> Option<usize> {
        self.disjunct_budget
    }

    /// The configured absolute deadline, if any.
    pub fn deadline_at(&self) -> Option<Instant> {
        self.deadline
    }

    /// Worker count to hand each child of a `fan_out`-wide parallel
    /// fan-out: when the fan-out saturates this context's workers each
    /// child steps sequentially; leftover workers are split evenly when
    /// the fan-out is narrower (so the last surviving instance of a
    /// ladder gets the whole machine for its disjunct frontier).
    pub fn child_threads_for(&self, fan_out: usize) -> usize {
        (self.effective_threads() / fan_out.max(1)).max(1)
    }

    /// The resolved worker count (≥ 1).
    pub fn effective_threads(&self) -> usize {
        if self.threads == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            self.threads
        }
    }

    /// The raw requested thread count (0 = all cores).
    pub fn requested_threads(&self) -> usize {
        self.threads
    }

    /// This run's metrics.
    pub fn metrics(&self) -> &RunMetrics {
        &self.metrics
    }

    /// Applies `f` to every item, in parallel across this context's
    /// workers, returning results in **input order**.
    ///
    /// Work distribution is a chunked atomic cursor over the persistent
    /// engine pool (idle workers steal the next chunk, the calling thread
    /// participates), so imbalanced items do not serialize the tail and
    /// no OS threads are spawned per call once the pool is warm. Results
    /// are written into input-indexed slots — no post-hoc reordering.
    ///
    /// With one effective thread **or one item** it runs inline on the
    /// calling thread, in index order, without touching the pool — the
    /// `threads(1)` escape hatch and the single-item fast path (pinned by
    /// a regression test against [`RunMetrics::pool_batches`]).
    ///
    /// Cancellation is cooperative: `f` is still invoked for every index
    /// (the result length always equals `items.len()`), so `f` should
    /// consult [`ExecContext::should_stop`] early when it can be
    /// expensive.
    ///
    /// # Panics
    ///
    /// Propagates panics from `f`.
    pub fn par_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        self.metrics
            .parallel_tasks
            .fetch_add(items.len() as u64, Ordering::Relaxed);
        let threads = self.effective_threads().min(items.len());
        if threads <= 1 || items.len() <= 1 {
            return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
        }
        self.metrics.add_pool_batch();
        crate::pool::run_batch(items, f, threads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_input_order() {
        let ctx = ExecContext::new().threads(8);
        let items: Vec<usize> = (0..500).collect();
        let out = ctx.par_map(&items, |i, &v| {
            assert_eq!(i, v);
            v * 2
        });
        assert_eq!(out, (0..500).map(|v| v * 2).collect::<Vec<_>>());
    }

    #[test]
    fn sequential_escape_hatch_runs_inline() {
        let ctx = ExecContext::sequential();
        assert_eq!(ctx.effective_threads(), 1);
        let caller = std::thread::current().id();
        let out = ctx.par_map(&[1, 2, 3], |_, &v| {
            assert_eq!(std::thread::current().id(), caller);
            v + 1
        });
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn parallel_equals_sequential() {
        let items: Vec<u64> = (0..237).collect();
        let f = |_: usize, &v: &u64| v.wrapping_mul(0x9E37).rotate_left(7);
        let seq = ExecContext::sequential().par_map(&items, f);
        let par = ExecContext::new().threads(7).par_map(&items, f);
        assert_eq!(seq, par);
    }

    #[test]
    fn empty_and_single_inputs() {
        let ctx = ExecContext::new().threads(4);
        let empty: Vec<u32> = Vec::new();
        assert!(ctx.par_map(&empty, |_, &v| v).is_empty());
        assert_eq!(ctx.par_map(&[9], |_, &v| v), vec![9]);
    }

    #[test]
    fn inline_fast_path_never_touches_the_pool() {
        // Regression: threads(1) calls, single-item calls, and empty
        // calls must run inline — no pool dispatch, no batch accounting.
        let ctx = ExecContext::sequential();
        let items: Vec<u32> = (0..64).collect();
        let _ = ctx.par_map(&items, |_, &v| v);
        assert_eq!(ctx.metrics().pool_batches(), 0, "threads(1) stays inline");
        let ctx = ExecContext::new().threads(4);
        let _ = ctx.par_map(&[7u32], |_, &v| v);
        let empty: Vec<u32> = Vec::new();
        let _ = ctx.par_map(&empty, |_, &v| v);
        assert_eq!(ctx.metrics().pool_batches(), 0, "tiny calls stay inline");
        // A real fan-out does dispatch exactly one batch.
        let _ = ctx.par_map(&items, |_, &v| v);
        assert_eq!(ctx.metrics().pool_batches(), 1);
    }

    #[test]
    fn cancellation_propagates_to_children_not_siblings() {
        let parent = ExecContext::new();
        let a = parent.child();
        let b = parent.child();
        assert!(!a.is_cancelled() && !b.is_cancelled());
        // A child cancelling itself does not affect its sibling…
        a.cancel();
        assert!(a.is_cancelled());
        assert!(!b.is_cancelled());
        assert!(!parent.is_cancelled());
        // …while the parent cancelling reaches every child.
        parent.cancel();
        assert!(b.is_cancelled());
        assert!(parent.child().is_cancelled());
    }

    #[test]
    fn cancellation_crosses_generations() {
        // A root cancel must reach arbitrarily deep descendants (sweeps
        // nested under caller-provided contexts spawn grandchildren).
        let root = ExecContext::new();
        let grandchild = root.child().child();
        let great = grandchild.child();
        assert!(!great.is_cancelled());
        root.cancel();
        assert!(grandchild.is_cancelled());
        assert!(great.is_cancelled());
        // A mid-chain cancel reaches down but never up.
        let root = ExecContext::new();
        let mid = root.child();
        let leaf = mid.child();
        mid.cancel();
        assert!(leaf.is_cancelled());
        assert!(!root.is_cancelled());
    }

    #[test]
    fn children_share_run_metrics() {
        // Metrics aggregate run-wide: a child's watermarks and counters
        // land on the parent's RunMetrics.
        let parent = ExecContext::new();
        let child = parent.child().child();
        child.metrics().record_peak_disjuncts(42);
        child.metrics().add_disjuncts_processed(7);
        assert_eq!(parent.metrics().peak_disjuncts(), 42);
        assert_eq!(parent.metrics().disjuncts_processed(), 7);
    }

    #[test]
    fn deadline_and_budget_checks() {
        let ctx = ExecContext::new().timeout(Duration::ZERO);
        assert!(ctx.deadline_exceeded());
        assert!(ctx.should_stop());
        let ctx = ExecContext::new().disjunct_budget(4);
        assert!(!ctx.over_disjunct_budget(4));
        assert!(ctx.over_disjunct_budget(5));
        assert!(!ExecContext::new().over_disjunct_budget(usize::MAX));
        // Children inherit the budget; their own deadline clock starts
        // unset, but every ancestor deadline still bounds them.
        let parent = ExecContext::new()
            .timeout(Duration::ZERO)
            .disjunct_budget(7);
        let child = parent.child();
        assert_eq!(child.disjunct_budget_limit(), Some(7));
        assert!(child.deadline_at().is_none());
        assert!(
            child.deadline_exceeded(),
            "an expired ancestor deadline must stop the child"
        );
        assert!(child.child().deadline_exceeded(), "…at any depth");
        // A generous ancestor deadline does not trip children; the
        // earliest deadline along the chain is the binding one.
        let parent = ExecContext::new().timeout(Duration::from_secs(3600));
        let child = parent.child().timeout(Duration::ZERO);
        assert!(!parent.deadline_exceeded());
        assert!(child.deadline_exceeded(), "own clock still applies");
        assert!(!parent.child().deadline_exceeded());
    }

    #[test]
    fn certifier_limits_survive_a_plain_context() {
        // certify_in must fall back to the builder's limits when the
        // supplied context carries none (sharing only cancellation and
        // metrics must not drop a configured timeout/budget).
        let ds = antidote_data::synth::figure2();
        let out = crate::Certifier::new(&ds)
            .depth(3)
            .domain(crate::DomainKind::Disjuncts)
            .timeout(Duration::ZERO)
            .certify_in(&[5.0], 2, &ExecContext::new());
        assert_eq!(out.verdict, crate::Verdict::Timeout);
        let out = crate::Certifier::new(&ds)
            .depth(4)
            .domain(crate::DomainKind::Disjuncts)
            .max_live_disjuncts(1)
            .certify_in(&[5.0], 4, &ExecContext::new());
        assert_eq!(out.verdict, crate::Verdict::DisjunctBudget);
        // A context-carried limit still wins over the builder's.
        let out = crate::Certifier::new(&ds)
            .depth(1)
            .timeout(Duration::ZERO)
            .certify_in(
                &[5.0],
                0,
                &ExecContext::new().timeout(Duration::from_secs(3600)),
            );
        assert_eq!(out.verdict, crate::Verdict::Robust);
    }

    #[test]
    fn maybe_builders() {
        let ctx = ExecContext::new()
            .maybe_timeout(None)
            .maybe_disjunct_budget(None);
        assert!(ctx.deadline_at().is_none());
        assert!(ctx.disjunct_budget_limit().is_none());
        let ctx = ctx
            .maybe_timeout(Some(Duration::from_secs(3600)))
            .maybe_disjunct_budget(Some(10));
        assert!(ctx.deadline_at().is_some());
        assert_eq!(ctx.disjunct_budget_limit(), Some(10));
        assert!(!ctx.should_stop());
    }

    #[test]
    fn metrics_watermarks_and_counters() {
        let ctx = ExecContext::new().threads(3);
        ctx.metrics().record_peak_disjuncts(5);
        ctx.metrics().record_peak_disjuncts(3);
        ctx.metrics().record_peak_bytes(100);
        ctx.metrics().add_disjuncts_processed(17);
        assert_eq!(ctx.metrics().peak_disjuncts(), 5);
        assert_eq!(ctx.metrics().peak_bytes(), 100);
        assert_eq!(ctx.metrics().disjuncts_processed(), 17);
        let items = vec![(); 12];
        ctx.par_map(&items, |_, _| ());
        assert_eq!(ctx.metrics().parallel_tasks(), 12);
    }

    #[test]
    fn cache_counters_and_hit_rate() {
        let ctx = ExecContext::new();
        assert_eq!(ctx.metrics().cache_hit_rate(), 0.0, "no probes yet");
        ctx.metrics().add_certify_call();
        ctx.metrics().add_cache_miss();
        for _ in 0..3 {
            ctx.metrics().add_cache_hit();
        }
        ctx.metrics().add_cache_shortcircuit();
        assert_eq!(ctx.metrics().certify_calls(), 1);
        assert_eq!(ctx.metrics().cache_hits(), 3);
        assert_eq!(ctx.metrics().cache_shortcircuits(), 1);
        assert_eq!(ctx.metrics().cache_misses(), 1);
        assert!((ctx.metrics().cache_hit_rate() - 0.75).abs() < 1e-12);
        // Children aggregate into the same run-wide counters.
        let child = ctx.child();
        child.metrics().add_cache_hit();
        assert_eq!(ctx.metrics().cache_hits(), 4);
        // Epoch-boundary counters flow through snapshot and absorb too.
        ctx.metrics().add_cache_transfer();
        ctx.metrics().add_cache_transfer();
        ctx.metrics().add_cache_invalidation();
        assert_eq!(ctx.metrics().cache_transfers(), 2);
        assert_eq!(ctx.metrics().cache_invalidations(), 1);
        let snap = ctx.metrics().snapshot();
        assert_eq!(snap.cache_transfers, 2);
        assert_eq!(snap.cache_invalidations, 1);
        let parent = ExecContext::new();
        parent.metrics().absorb(&snap);
        assert_eq!(parent.metrics().cache_transfers(), 2);
        assert_eq!(parent.metrics().cache_invalidations(), 1);
    }

    #[test]
    fn fresh_metrics_isolates_and_absorb_rolls_up() {
        let parent = ExecContext::new();
        parent.metrics().add_certify_call();
        parent.metrics().record_peak_disjuncts(3);
        // A detached child starts from zero and leaks nothing upward…
        let cell = parent.child().fresh_metrics();
        assert_eq!(cell.metrics().certify_calls(), 0);
        cell.metrics().add_certify_call();
        cell.metrics().add_cache_hit();
        cell.metrics().add_cache_miss();
        cell.metrics().add_cache_shortcircuit();
        cell.metrics().add_disjuncts_processed(10);
        cell.metrics().add_disjuncts_subsumed(2);
        cell.metrics().record_peak_disjuncts(9);
        cell.metrics().record_peak_bytes(128);
        assert_eq!(parent.metrics().certify_calls(), 1);
        assert_eq!(parent.metrics().peak_disjuncts(), 3);
        // …its grandchildren share the detached scope, not the parent's…
        cell.child().metrics().add_cache_hit();
        assert_eq!(cell.metrics().cache_hits(), 2);
        assert_eq!(parent.metrics().cache_hits(), 0);
        // …and cancellation still chains through the ancestor contexts.
        parent.cancel();
        assert!(cell.is_cancelled());

        // Rolling the snapshot up: counters add, watermarks max.
        let snap = cell.metrics().snapshot();
        assert_eq!(snap.certify_calls, 1);
        assert_eq!(snap.cache_hits, 2);
        assert_eq!(snap.disjuncts_processed, 10);
        assert!((snap.cache_hit_rate() - 2.0 / 3.0).abs() < 1e-12);
        parent.metrics().absorb(&snap);
        assert_eq!(parent.metrics().certify_calls(), 2);
        assert_eq!(parent.metrics().cache_hits(), 2);
        assert_eq!(parent.metrics().cache_misses(), 1);
        assert_eq!(parent.metrics().cache_shortcircuits(), 1);
        assert_eq!(parent.metrics().disjuncts_processed(), 10);
        assert_eq!(parent.metrics().disjuncts_subsumed(), 2);
        assert_eq!(parent.metrics().peak_disjuncts(), 9, "watermark raised");
        assert_eq!(parent.metrics().peak_bytes(), 128);
        // Absorbing a lower watermark never lowers the parent's.
        parent.metrics().absorb(&MetricsSnapshot {
            peak_disjuncts: 1,
            ..MetricsSnapshot::default()
        });
        assert_eq!(parent.metrics().peak_disjuncts(), 9);
        // Snapshot equality is plain-data equality.
        assert_eq!(snap, cell.metrics().snapshot());
        assert_eq!(MetricsSnapshot::default().cache_hit_rate(), 0.0);
    }

    #[test]
    fn memo_and_interner_counters_snapshot_and_absorb() {
        let ctx = ExecContext::new();
        ctx.metrics().add_split_memo_hit();
        ctx.metrics().add_split_memo_hit();
        ctx.metrics().add_split_memo_miss();
        ctx.metrics().add_interner_hits(5);
        ctx.metrics().record_arena_bytes(4096);
        ctx.metrics().record_arena_bytes(1024); // lower: no effect
        ctx.metrics().add_arena_resets(3);
        ctx.metrics().record_simd_lanes(4);
        ctx.metrics().record_simd_lanes(1); // lower: no effect
        assert_eq!(ctx.metrics().split_memo_hits(), 2);
        assert_eq!(ctx.metrics().split_memo_misses(), 1);
        assert_eq!(ctx.metrics().interner_hits(), 5);
        assert_eq!(ctx.metrics().arena_bytes(), 4096);
        assert_eq!(ctx.metrics().arena_resets(), 3);
        assert_eq!(ctx.metrics().simd_lanes(), 4);
        let snap = ctx.metrics().snapshot();
        assert_eq!(snap.split_memo_hits, 2);
        assert_eq!(snap.split_memo_misses, 1);
        assert_eq!(snap.interner_hits, 5);
        assert_eq!(snap.arena_bytes, 4096);
        assert_eq!(snap.arena_resets, 3);
        assert_eq!(snap.simd_lanes, 4);
        // Absorb adds the counters and maxes the watermarks.
        let parent = ExecContext::new();
        parent.metrics().absorb(&snap);
        parent.metrics().absorb(&snap);
        assert_eq!(parent.metrics().split_memo_hits(), 4);
        assert_eq!(parent.metrics().split_memo_misses(), 2);
        assert_eq!(parent.metrics().interner_hits(), 10);
        assert_eq!(parent.metrics().arena_bytes(), 4096, "watermark maxes");
        assert_eq!(parent.metrics().arena_resets(), 6, "counter adds");
        assert_eq!(parent.metrics().simd_lanes(), 4, "watermark maxes");
    }

    #[test]
    fn service_counters_snapshot_and_absorb() {
        let ctx = ExecContext::new();
        ctx.metrics().add_request_served();
        ctx.metrics().add_request_served();
        ctx.metrics().add_cross_request_cache_hit();
        assert_eq!(ctx.metrics().requests_served(), 2);
        assert_eq!(ctx.metrics().cross_request_cache_hits(), 1);
        let snap = ctx.metrics().snapshot();
        assert_eq!(snap.requests_served, 2);
        assert_eq!(snap.cross_request_cache_hits, 1);
        let parent = ExecContext::new();
        parent.metrics().absorb(&snap);
        parent.metrics().absorb(&snap);
        assert_eq!(parent.metrics().requests_served(), 4);
        assert_eq!(parent.metrics().cross_request_cache_hits(), 2);
    }

    #[test]
    fn scheduler_counters_snapshot_and_absorb() {
        let ctx = ExecContext::new();
        ctx.metrics().add_probes_scheduled(5);
        ctx.metrics().add_probes_deferred(2);
        ctx.metrics().add_deadline_degradation();
        assert_eq!(ctx.metrics().probes_scheduled(), 5);
        assert_eq!(ctx.metrics().probes_deferred(), 2);
        assert_eq!(ctx.metrics().deadline_degradations(), 1);
        let snap = ctx.metrics().snapshot();
        assert_eq!(snap.probes_scheduled, 5);
        assert_eq!(snap.probes_deferred, 2);
        assert_eq!(snap.deadline_degradations, 1);
        // Absorbing adds: the matrix's per-cell scheduler activity rolls
        // up into the run-wide totals like every other counter.
        let parent = ExecContext::new();
        parent.metrics().absorb(&snap);
        parent.metrics().absorb(&snap);
        assert_eq!(parent.metrics().probes_scheduled(), 10);
        assert_eq!(parent.metrics().probes_deferred(), 4);
        assert_eq!(parent.metrics().deadline_degradations(), 2);
    }

    #[test]
    fn cancellation_is_cooperative_mid_par_map() {
        let ctx = ExecContext::new().threads(4);
        let items: Vec<usize> = (0..100).collect();
        let seen = AtomicUsize::new(0);
        // f observes should_stop() after the first item cancels; results
        // still come back for every index.
        let out = ctx.par_map(&items, |i, _| {
            if i == 0 {
                ctx.cancel();
            }
            if ctx.should_stop() {
                return 0usize;
            }
            seen.fetch_add(1, Ordering::Relaxed);
            1
        });
        assert_eq!(out.len(), 100);
        assert!(ctx.is_cancelled());
    }
}
