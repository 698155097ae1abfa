//! Minimal field extraction for the flat JSON benchmark artifacts, and
//! the perf-regression gate logic behind `bin/perfgate.rs`.
//!
//! The workspace vendors no JSON crate, and the bench artifacts are
//! hand-formatted flat documents (`BENCH_sweep.json`, `BENCH_matrix.json`),
//! so a full parser is not warranted: these helpers find the **first**
//! occurrence of a quoted key and read the scalar token after the colon.
//! Keys are matched whole (`"certify_calls"` never matches
//! `"certify_calls_fresh"`, thanks to the closing quote), and documents
//! place aggregate fields before any repeated per-cell fields, so
//! first-match is the aggregate.

/// The raw scalar token following `"key":`, trimmed.
///
/// Returns `None` when the key is absent or followed by a non-scalar
/// (object or array).
pub fn json_raw<'a>(doc: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\"");
    let at = doc.find(&needle)? + needle.len();
    let rest = doc[at..].trim_start().strip_prefix(':')?.trim_start();
    if rest.starts_with('{') || rest.starts_with('[') {
        return None;
    }
    let end = rest.find([',', '}', ']', '\n']).unwrap_or(rest.len());
    let token = rest[..end].trim();
    (!token.is_empty()).then_some(token)
}

/// The first `"key"` value as a `u64`.
pub fn json_u64(doc: &str, key: &str) -> Option<u64> {
    json_raw(doc, key)?.parse().ok()
}

/// The first `"key"` value as a `bool`.
pub fn json_bool(doc: &str, key: &str) -> Option<bool> {
    match json_raw(doc, key)? {
        "true" => Some(true),
        "false" => Some(false),
        _ => None,
    }
}

/// One perf-gate violation: which field drifted, and how.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GateViolation {
    /// The JSON field that failed the gate.
    pub field: &'static str,
    /// Human-readable explanation (baseline vs candidate).
    pub detail: String,
}

/// The counters the gate holds to exact equality against the committed
/// baseline. Deliberately *not* wall-clock: certifier-invocation,
/// pruning, memo, and interner counts are host-independent (the bench
/// reads them off strictly sequential runs, and the memo's hit/miss
/// accounting is reconciled to be thread-invariant anyway), so the gate
/// is stable on any CI runner while still catching a regression that
/// silently disables the cache, the subsumption pass, the `bestSplit#`
/// memo, or frontier hash-consing.
/// `split_memo_misses` is gated alongside `split_memo_hits` because the
/// stock depth-2 config legitimately pins hits at 0 (recurrence needs
/// depth ≥ 3, see DESIGN.md §9.2) — misses are what prove the memo is
/// still being consulted there. `arena_resets` counts learner runs
/// through the word-scratch arena (one reset per `run_abstract`), so a
/// change that routes the learner around the arena — losing its
/// allocation reuse — fails the gate the same way a disabled cache
/// would. `pool_reuse_count` is deliberately *not* gated here: it is
/// `null` on 1-core hosts (the multi-thread rep is skipped there), so
/// exact equality would make the sweep gate host-dependent. The *serve*
/// gate closes that hole — its bench pins an explicit thread count, so
/// pool reuse is the same number on every host and
/// [`check_serve_gate`] holds it to exact equality.
/// `requests_served` / `cross_request_cache_hits` are the service
/// layer's counters: the one-shot sweep path never routes through a
/// `Session`, so the baseline pins both at 0 — a change that starts
/// attributing service traffic to the static path fails the gate, and
/// the serve artifact gates their real (non-zero) values.
/// `cache_transfers` / `cache_invalidations` count certificates carried
/// across (or dropped at) dataset-epoch boundaries: the stock sweep never
/// mutates its dataset, so the baseline pins both at 0 — a change that
/// starts transferring (or invalidating) state on the *static* path is
/// exactly the kind of stale-cache bug the epoch stamps exist to catch,
/// and fails the gate. The drift path's non-zero counts live in
/// `BENCH_drift.json`, which perfgate's `--refs` mode holds to its
/// committed reference (timings stripped) the same way it holds
/// `BENCH_split.json`.
/// `probes_scheduled` / `probes_deferred` / `deadline_degradations` are
/// the probe scheduler's counters (DESIGN.md §13): neither the sweep nor
/// the serve bench configures a ladder deadline or probe budget, so the
/// scheduler issues every probe — `probes_scheduled` equals the ladder's
/// total probe count (a change that disarms the scheduler, or starts
/// double-counting, fails the gate) while the baselines pin
/// `probes_deferred` and `deadline_degradations` at 0 — an unbounded
/// scheduler that starts deferring work is a determinism bug, not a
/// tuning choice.
/// `warm_state_shared_hits` / `sessions_evicted` are the service's
/// warm-state-sharing and LRU-eviction counters: the one-shot sweep
/// path opens no shared sessions and evicts nothing, so the sweep
/// baseline pins both at 0 — a change that starts sharing or evicting
/// on the *static* path fails the gate — while the serve artifact gates
/// their real, deterministic values (the co-tenant join and the
/// capped-service evictions).
pub const GATED_COUNTERS: [&str; 15] = [
    "certify_calls_cached",
    "subsumption_pruned",
    "split_memo_hits",
    "split_memo_misses",
    "interner_hits",
    "arena_resets",
    "cache_transfers",
    "cache_invalidations",
    "requests_served",
    "cross_request_cache_hits",
    "probes_scheduled",
    "probes_deferred",
    "deadline_degradations",
    "warm_state_shared_hits",
    "sessions_evicted",
];

/// The `totals` counters `check_matrix_gate` holds to exact equality.
/// First-match extraction reads the aggregate: `matrix_json` places the
/// totals block before any per-cell fields. Wall-clock and `peak_bytes`
/// are deliberately absent — the same host-dependent set
/// `tests/matrix_determinism.rs` strips.
pub const MATRIX_GATED_TOTALS: [&str; 14] = [
    "certify_calls",
    "cache_hits",
    "cache_shortcircuits",
    "cache_misses",
    "cache_transfers",
    "cache_invalidations",
    "subsumption_pruned",
    "split_memo_hits",
    "split_memo_misses",
    "probes_scheduled",
    "probes_deferred",
    "deadline_degradations",
    "interner_hits",
    "disjuncts_processed",
];

/// Checks a freshly generated `BENCH_sweep.json` (`candidate`) against
/// the committed baseline document. Violations are returned rather than
/// printed so the logic is unit-testable; `bin/perfgate.rs` renders and
/// exits non-zero.
///
/// Gated conditions:
///
/// * `identical_ladders` must be `true` in the candidate (the bench
///   itself asserts this, but the gate re-checks the artifact);
/// * each of [`GATED_COUNTERS`] must be present in both documents and
///   exactly equal.
pub fn check_sweep_gate(baseline: &str, candidate: &str) -> Vec<GateViolation> {
    let mut violations = Vec::new();
    match json_bool(candidate, "identical_ladders") {
        Some(true) => {}
        Some(false) => violations.push(GateViolation {
            field: "identical_ladders",
            detail: "candidate reports non-identical ladders".to_string(),
        }),
        None => violations.push(GateViolation {
            field: "identical_ladders",
            detail: "field missing from candidate".to_string(),
        }),
    }
    check_counters(baseline, candidate, &GATED_COUNTERS, &mut violations);
    violations
}

/// Exact-equality check of each named `u64` counter across the two
/// documents, appending a violation per mismatch or missing field.
fn check_counters(
    baseline: &str,
    candidate: &str,
    fields: &[&'static str],
    violations: &mut Vec<GateViolation>,
) {
    for &field in fields {
        match (json_u64(baseline, field), json_u64(candidate, field)) {
            (Some(b), Some(c)) if b == c => {}
            (Some(b), Some(c)) => violations.push(GateViolation {
                field,
                detail: format!("baseline {b} != candidate {c}"),
            }),
            (None, _) => violations.push(GateViolation {
                field,
                detail: "field missing from baseline".to_string(),
            }),
            (_, None) => violations.push(GateViolation {
                field,
                detail: "field missing from candidate".to_string(),
            }),
        }
    }
}

/// A required `true` boolean in the candidate document, appending a
/// violation when it is `false` or absent.
fn check_true_flag(candidate: &str, field: &'static str, violations: &mut Vec<GateViolation>) {
    match json_bool(candidate, field) {
        Some(true) => {}
        Some(false) => violations.push(GateViolation {
            field,
            detail: format!("candidate reports {field} = false"),
        }),
        None => violations.push(GateViolation {
            field,
            detail: "field missing from candidate".to_string(),
        }),
    }
}

/// Checks a freshly generated `BENCH_serve.json` (`candidate`) against
/// the committed baseline document.
///
/// Gated conditions:
///
/// * `identical_responses` must be `true` in the candidate — the
///   batched-vs-reversed replay produced byte-identical responses;
/// * `hit_rate_dominates_sweep` must be `true` — the cross-request
///   cache hit rate beat the single-sweep baseline rate (0.475);
/// * each of [`GATED_COUNTERS`] must be exactly equal across the two
///   documents;
/// * `pool_reuse_count` must be exactly equal as a *number*. The sweep
///   gate exempts this counter because the sweep bench only touches the
///   pool on multi-core hosts; the serve bench pins an explicit thread
///   count instead, so every batch after the first reuses pool workers
///   on any host and the count is deterministic — a scheduler change
///   that silently starts respawning workers per batch fails here.
pub fn check_serve_gate(baseline: &str, candidate: &str) -> Vec<GateViolation> {
    let mut violations = Vec::new();
    check_true_flag(candidate, "identical_responses", &mut violations);
    check_true_flag(candidate, "hit_rate_dominates_sweep", &mut violations);
    check_counters(baseline, candidate, &GATED_COUNTERS, &mut violations);
    check_counters(baseline, candidate, &["pool_reuse_count"], &mut violations);
    violations
}

/// Whether a line carries a host-dependent measurement: wall-clock
/// (`*_ms`, `*_us`, the matrix's `wall_ms*` family) or the `peak_bytes`
/// memory proxy. Everything else in the artifacts is deterministic.
fn is_timing_line(line: &str) -> bool {
    line.contains("_ms\"")
        || line.contains("_us\"")
        || line.contains("wall_ms")
        || line.contains("peak_bytes")
}

/// `doc` with timing lines removed: the structural projection the
/// matrix and reference-artifact gates compare — the Rust counterpart
/// of the `grep -vE 'wall_ms|peak_bytes' | diff` shell steps this
/// module replaced.
pub fn strip_timings(doc: &str) -> String {
    doc.lines()
        .filter(|l| !is_timing_line(l))
        .collect::<Vec<_>>()
        .join(
            "
",
        )
}

/// Line-by-line compare of the two documents' timings-stripped
/// projections, appending one violation naming the first differing line.
fn check_structure(
    field: &'static str,
    baseline: &str,
    candidate: &str,
    violations: &mut Vec<GateViolation>,
) {
    let b = strip_timings(baseline);
    let c = strip_timings(candidate);
    if b == c {
        return;
    }
    let detail = b
        .lines()
        .zip(c.lines())
        .enumerate()
        .find(|(_, (lb, lc))| lb != lc)
        .map(|(i, (lb, lc))| {
            format!(
                "first differing stripped line {}: baseline {:?}, candidate {:?}",
                i + 1,
                lb.trim(),
                lc.trim()
            )
        })
        .unwrap_or_else(|| {
            format!(
                "stripped line counts differ: baseline {}, candidate {}",
                b.lines().count(),
                c.lines().count()
            )
        });
    violations.push(GateViolation { field, detail });
}

/// Checks a freshly generated `BENCH_matrix.json` (`candidate`) against
/// the committed baseline document, the same way [`check_sweep_gate`] /
/// [`check_serve_gate`] own their artifacts.
///
/// Gated conditions:
///
/// * each of [`MATRIX_GATED_TOTALS`] must be present in both documents
///   and exactly equal (first match = the aggregate totals block);
/// * the timings-stripped documents must be line-identical — this holds
///   every per-cell verdict key (identity, ladder rungs, cell counters)
///   to the baseline, not just the totals.
pub fn check_matrix_gate(baseline: &str, candidate: &str) -> Vec<GateViolation> {
    let mut violations = Vec::new();
    check_counters(baseline, candidate, &MATRIX_GATED_TOTALS, &mut violations);
    check_structure("cells", baseline, candidate, &mut violations);
    violations
}

/// Checks a freshly regenerated reference artifact (`BENCH_split.json`,
/// `BENCH_drift.json`) against its committed copy: the timings-stripped
/// projections must be line-identical. One Rust gate with one failure
/// format, replacing the per-artifact `grep|diff` CI steps.
pub fn check_refs(baseline: &str, candidate: &str) -> Vec<GateViolation> {
    let mut violations = Vec::new();
    check_structure("structure", baseline, candidate, &mut violations);
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = r#"{
  "bench": "parallel_sweep",
  "identical_ladders": true,
  "certify_calls_fresh": 61,
  "certify_calls_cached": 32,
  "speedup": null,
  "cache_hit_rate": 0.475,
  "cache_transfers": 0,
  "cache_invalidations": 0,
  "subsumption_pruned": 1234,
  "split_memo_hits": 17,
  "split_memo_misses": 547,
  "interner_hits": 870,
  "arena_resets": 93,
  "arena_bytes": 4096,
  "simd_lanes": 4,
  "requests_served": 0,
  "cross_request_cache_hits": 0,
  "probes_scheduled": 61,
  "probes_deferred": 0,
  "deadline_degradations": 0,
  "warm_state_shared_hits": 0,
  "sessions_evicted": 0,
  "pool_reuse_count": null,
  "ladder": [
    {"n": 1, "attempted": 32, "verified": 30}
  ]
}
"#;

    const SERVE_DOC: &str = r#"{
  "bench": "serve",
  "identical_responses": true,
  "hit_rate_dominates_sweep": true,
  "cross_request_hit_rate": 0.62,
  "requests_served": 29,
  "cross_request_cache_hits": 18,
  "warm_state_shared_hits": 1,
  "sessions_evicted": 3,
  "certify_calls_cached": 11,
  "cache_transfers": 2,
  "cache_invalidations": 0,
  "subsumption_pruned": 640,
  "split_memo_hits": 0,
  "split_memo_misses": 310,
  "interner_hits": 455,
  "arena_resets": 11,
  "probes_scheduled": 44,
  "probes_deferred": 0,
  "deadline_degradations": 0,
  "pool_reuse_count": 8
}
"#;

    #[test]
    fn whole_key_matching() {
        assert_eq!(json_u64(DOC, "certify_calls_cached"), Some(32));
        assert_eq!(json_u64(DOC, "certify_calls_fresh"), Some(61));
        // "certify_calls" is not a key in this document at all: the
        // closing quote keeps it from matching either long key.
        assert_eq!(json_u64(DOC, "certify_calls"), None);
        assert_eq!(json_u64(DOC, "subsumption_pruned"), Some(1234));
        assert_eq!(json_u64(DOC, "split_memo_hits"), Some(17));
        // "split_memo_hits" must never match inside "split_memo_misses".
        assert_eq!(json_u64(DOC, "split_memo_misses"), Some(547));
        assert_eq!(json_u64(DOC, "interner_hits"), Some(870));
        assert_eq!(json_bool(DOC, "identical_ladders"), Some(true));
        assert_eq!(json_raw(DOC, "speedup"), Some("null"));
        assert_eq!(json_raw(DOC, "cache_hit_rate"), Some("0.475"));
        assert_eq!(json_raw(DOC, "bench"), Some("\"parallel_sweep\""));
        assert_eq!(json_u64(DOC, "missing"), None);
        // Non-scalar values are refused, not mangled.
        assert_eq!(json_raw(DOC, "ladder"), None);
        // Nested keys resolve to their first occurrence.
        assert_eq!(json_u64(DOC, "n"), Some(1));
    }

    #[test]
    fn gate_passes_on_identical_counters() {
        assert!(check_sweep_gate(DOC, DOC).is_empty());
    }

    #[test]
    fn gate_catches_counter_drift() {
        let drifted = DOC.replace(
            "\"certify_calls_cached\": 32",
            "\"certify_calls_cached\": 61",
        );
        let v = check_sweep_gate(DOC, &drifted);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].field, "certify_calls_cached");
        assert!(v[0].detail.contains("baseline 32 != candidate 61"));
    }

    #[test]
    fn gate_catches_memo_and_interner_drift() {
        // A change that silently disables the bestSplit# memo (hits fall
        // to 0) or frontier hash-consing must fail the gate.
        let no_memo = DOC.replace("\"split_memo_hits\": 17", "\"split_memo_hits\": 0");
        let v = check_sweep_gate(DOC, &no_memo);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].field, "split_memo_hits");
        // Even with a 0-hit baseline (the stock depth-2 regime), a memo
        // that stops being consulted drops its miss count and fails.
        let memo_dead = DOC.replace("\"split_memo_misses\": 547", "\"split_memo_misses\": 0");
        let v = check_sweep_gate(DOC, &memo_dead);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].field, "split_memo_misses");
        let no_interner = DOC.replace("\"interner_hits\": 870", "\"interner_hits\": 3");
        let v = check_sweep_gate(DOC, &no_interner);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].field, "interner_hits");
        assert!(v[0].detail.contains("baseline 870 != candidate 3"));
    }

    #[test]
    fn gate_catches_arena_drift_but_not_pool_reuse() {
        // A learner that stops routing word scratch through the arena
        // drops its reset count and fails the gate.
        let no_arena = DOC.replace("\"arena_resets\": 93", "\"arena_resets\": 0");
        let v = check_sweep_gate(DOC, &no_arena);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].field, "arena_resets");
        assert!(v[0].detail.contains("baseline 93 != candidate 0"));
        // `pool_reuse_count` is host-dependent (`null` on a 1-core
        // runner, a count elsewhere): it parses as a raw token, not a
        // number, and is not part of the gate.
        assert_eq!(json_raw(DOC, "pool_reuse_count"), Some("null"));
        assert_eq!(json_u64(DOC, "pool_reuse_count"), None);
        let with_count = DOC.replace("\"pool_reuse_count\": null", "\"pool_reuse_count\": 12");
        assert!(check_sweep_gate(DOC, &with_count).is_empty());
        assert!(check_sweep_gate(&with_count, DOC).is_empty());
    }

    #[test]
    fn gate_catches_service_counter_drift_on_the_static_path() {
        // The one-shot sweep never routes through a Session: service
        // traffic appearing on the static path fails the sweep gate.
        let routed = DOC.replace("\"requests_served\": 0", "\"requests_served\": 4");
        let v = check_sweep_gate(DOC, &routed);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].field, "requests_served");
        let hit = DOC.replace(
            "\"cross_request_cache_hits\": 0",
            "\"cross_request_cache_hits\": 2",
        );
        let v = check_sweep_gate(DOC, &hit);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].field, "cross_request_cache_hits");
    }

    #[test]
    fn serve_gate_passes_on_identical_counters() {
        assert!(check_serve_gate(SERVE_DOC, SERVE_DOC).is_empty());
    }

    #[test]
    fn serve_gate_gates_pool_reuse_exactly() {
        // Unlike the sweep gate (previous test), the serve gate holds
        // pool reuse to exact numeric equality: the serve bench pins an
        // explicit thread count, so the count is host-independent.
        let respawning = SERVE_DOC.replace("\"pool_reuse_count\": 8", "\"pool_reuse_count\": 0");
        let v = check_serve_gate(SERVE_DOC, &respawning);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].field, "pool_reuse_count");
        assert!(v[0].detail.contains("baseline 8 != candidate 0"));
        // A null token (the sweep bench's 1-core sentinel) is a missing
        // number here, not an exemption.
        let gone_null = SERVE_DOC.replace("\"pool_reuse_count\": 8", "\"pool_reuse_count\": null");
        let v = check_serve_gate(SERVE_DOC, &gone_null);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].field, "pool_reuse_count");
        assert!(v[0].detail.contains("missing from candidate"));
    }

    #[test]
    fn serve_gate_catches_broken_responses_and_hit_rate() {
        let torn = SERVE_DOC.replace(
            "\"identical_responses\": true",
            "\"identical_responses\": false",
        );
        let v = check_serve_gate(SERVE_DOC, &torn);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].field, "identical_responses");
        let cold = SERVE_DOC.replace(
            "\"hit_rate_dominates_sweep\": true",
            "\"hit_rate_dominates_sweep\": false",
        );
        let v = check_serve_gate(SERVE_DOC, &cold);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].field, "hit_rate_dominates_sweep");
    }

    #[test]
    fn gate_catches_warm_state_counters_on_the_static_path() {
        // The one-shot sweep opens no shared sessions and evicts
        // nothing: either going non-zero there fails the sweep gate.
        for (field, from, to) in [
            ("warm_state_shared_hits", 0u64, 2u64),
            ("sessions_evicted", 0, 1),
        ] {
            let drifted = DOC.replace(
                &format!("\"{field}\": {from}"),
                &format!("\"{field}\": {to}"),
            );
            let v = check_sweep_gate(DOC, &drifted);
            assert_eq!(v.len(), 1, "{field}");
            assert_eq!(v[0].field, field);
        }
    }

    #[test]
    fn serve_gate_catches_sharing_and_eviction_drift() {
        // A change that silently disarms warm-state sharing (the
        // co-tenant stops joining) or stops evicting at the cap drifts
        // the serve baseline and fails.
        for (field, from) in [("warm_state_shared_hits", 1u64), ("sessions_evicted", 3)] {
            let drifted =
                SERVE_DOC.replace(&format!("\"{field}\": {from}"), &format!("\"{field}\": 0"));
            let v = check_serve_gate(SERVE_DOC, &drifted);
            assert_eq!(v.len(), 1, "{field}");
            assert_eq!(v[0].field, field);
            assert!(v[0]
                .detail
                .contains(&format!("baseline {from} != candidate 0")));
        }
    }

    #[test]
    fn serve_gate_catches_cross_request_hit_drift() {
        let fewer = SERVE_DOC.replace(
            "\"cross_request_cache_hits\": 18",
            "\"cross_request_cache_hits\": 3",
        );
        let v = check_serve_gate(SERVE_DOC, &fewer);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].field, "cross_request_cache_hits");
        assert!(v[0].detail.contains("baseline 18 != candidate 3"));
        let unserved = SERVE_DOC.replace("\"requests_served\": 29", "\"requests_served\": 7");
        let v = check_serve_gate(SERVE_DOC, &unserved);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].field, "requests_served");
    }

    const MATRIX_DOC: &str = r#"{
  "bench": "matrix",
  "seed": 0,
  "cell_count": 6,
  "wall_ms_total": 512.250,
  "wall_ms_p50": 2.584,
  "wall_ms_max": 218.448,
  "totals": {
    "certify_calls": 118,
    "cache_hits": 260,
    "cache_shortcircuits": 44,
    "cache_misses": 118,
    "cache_transfers": 0,
    "cache_invalidations": 0,
    "subsumption_pruned": 900,
    "split_memo_hits": 12,
    "split_memo_misses": 340,
    "probes_scheduled": 310,
    "probes_deferred": 14,
    "deadline_degradations": 5,
    "interner_hits": 777,
    "disjuncts_processed": 40100,
    "peak_disjuncts": 96,
    "peak_bytes": 1048576
  },
  "cells": [
    {
      "scenario": "blobs",
      "wall_ms": 109.040,
      "certify_calls": 21,
      "peak_bytes": 524288,
      "ladder": [
        {"n": 1, "attempted": 6, "verified": 6, "timeouts": 0, "budget_exhausted": 0}
      ]
    }
  ]
}
"#;

    #[test]
    fn gate_catches_scheduler_counter_drift() {
        // A disarmed scheduler zeroes its issue count; an unbounded one
        // that starts deferring is a determinism bug. Both fail.
        let disarmed = DOC.replace("\"probes_scheduled\": 61", "\"probes_scheduled\": 0");
        let v = check_sweep_gate(DOC, &disarmed);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].field, "probes_scheduled");
        assert!(v[0].detail.contains("baseline 61 != candidate 0"));
        let deferring = SERVE_DOC.replace("\"probes_deferred\": 0", "\"probes_deferred\": 9");
        let v = check_serve_gate(SERVE_DOC, &deferring);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].field, "probes_deferred");
        let degraded = DOC.replace(
            "\"deadline_degradations\": 0",
            "\"deadline_degradations\": 1",
        );
        let v = check_sweep_gate(DOC, &degraded);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].field, "deadline_degradations");
    }

    #[test]
    fn matrix_gate_passes_on_identical_documents_and_ignores_timings() {
        assert!(check_matrix_gate(MATRIX_DOC, MATRIX_DOC).is_empty());
        // Wall-clock and peak_bytes drift — totals or cells — is not a
        // violation: the gate must hold on any CI runner.
        let slower = MATRIX_DOC
            .replace("\"wall_ms_max\": 218.448", "\"wall_ms_max\": 400.123")
            .replace("\"wall_ms\": 109.040", "\"wall_ms\": 250.000")
            .replace("\"peak_bytes\": 1048576", "\"peak_bytes\": 9999999")
            .replace("\"peak_bytes\": 524288", "\"peak_bytes\": 11111");
        assert!(check_matrix_gate(MATRIX_DOC, &slower).is_empty());
    }

    #[test]
    fn matrix_gate_catches_totals_and_cell_drift() {
        // Totals drift names the exact counter (plus the structural
        // mismatch, since the totals block is part of the document).
        let drifted = MATRIX_DOC.replace("\"probes_deferred\": 14", "\"probes_deferred\": 0");
        let v = check_matrix_gate(MATRIX_DOC, &drifted);
        assert!(v.iter().any(
            |x| x.field == "probes_deferred" && x.detail.contains("baseline 14 != candidate 0")
        ));
        // A per-cell change (a ladder rung) leaves every total intact but
        // fails the structural compare.
        let rung = MATRIX_DOC.replace(
            "{\"n\": 1, \"attempted\": 6, \"verified\": 6, \"timeouts\": 0, \"budget_exhausted\": 0}",
            "{\"n\": 1, \"attempted\": 6, \"verified\": 5, \"timeouts\": 0, \"budget_exhausted\": 0}",
        );
        let v = check_matrix_gate(MATRIX_DOC, &rung);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].field, "cells");
        assert!(v[0].detail.contains("first differing stripped line"));
        assert!(v[0].detail.contains("\\\"verified\\\": 5"));
    }

    #[test]
    fn refs_gate_strips_timings_and_catches_structure_drift() {
        let doc = "{\n  \"bench\": \"drift\",\n  \"cold_ms\": 231.669,\n  \"warm_ms\": 73.053,\n  \"dense_us\": 17.5,\n  \"cache_transfers\": 32,\n  \"identical_ladders\": true\n}\n";
        assert!(check_refs(doc, doc).is_empty());
        // Timing lines (any *_ms / *_us key) never gate.
        let slower = doc
            .replace("231.669", "999.000")
            .replace("\"dense_us\": 17.5", "\"dense_us\": 99.9");
        assert!(check_refs(doc, &slower).is_empty());
        // A counter or verdict line does.
        let fewer = doc.replace("\"cache_transfers\": 32", "\"cache_transfers\": 0");
        let v = check_refs(doc, &fewer);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].field, "structure");
        assert!(v[0].detail.contains("cache_transfers"));
        // A gutted document reports the line-count mismatch.
        let gutted = doc.replace("  \"identical_ladders\": true\n", "");
        let v = check_refs(doc, &gutted);
        assert_eq!(v.len(), 1);
        assert!(
            v[0].detail.contains("differing stripped line")
                || v[0].detail.contains("line counts differ")
        );
    }

    #[test]
    fn gate_catches_epoch_counter_drift_on_the_static_path() {
        // The stock sweep never mutates its dataset: certificates that
        // start transferring (or getting invalidated) there mean the
        // static path is crossing epoch boundaries it should never see.
        let transferring = DOC.replace("\"cache_transfers\": 0", "\"cache_transfers\": 5");
        let v = check_sweep_gate(DOC, &transferring);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].field, "cache_transfers");
        assert!(v[0].detail.contains("baseline 0 != candidate 5"));
        let invalidating = DOC.replace("\"cache_invalidations\": 0", "\"cache_invalidations\": 2");
        let v = check_sweep_gate(DOC, &invalidating);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].field, "cache_invalidations");
    }

    #[test]
    fn gate_catches_broken_ladders_and_missing_fields() {
        let broken = DOC.replace(
            "\"identical_ladders\": true",
            "\"identical_ladders\": false",
        );
        let v = check_sweep_gate(DOC, &broken);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].field, "identical_ladders");

        let gutted = DOC.replace("  \"subsumption_pruned\": 1234,\n", "");
        let v = check_sweep_gate(DOC, &gutted);
        assert!(v.iter().any(
            |x| x.field == "subsumption_pruned" && x.detail.contains("missing from candidate")
        ));
        let v = check_sweep_gate(&gutted, DOC);
        assert!(
            v.iter()
                .any(|x| x.field == "subsumption_pruned"
                    && x.detail.contains("missing from baseline"))
        );
    }
}
