//! Certification-service benchmark: replays a request trace against
//! long-lived [`Session`]s through the batching [`RequestEngine`] —
//! repeat points, coalesced duplicates, two datasets and a co-tenant
//! interleaved, and a two-epoch pure-removal drift delta mid-stream —
//! with a machine-readable `BENCH_serve.json` snapshot for the
//! performance trajectory. Lives in `antidote-cli` (not
//! `antidote-bench`) because it also drives the [`Service`]'s eviction
//! bookkeeping.
//!
//! Run with:
//!
//! ```text
//! cargo bench -p antidote-cli --bench serve [-- --per-class C]
//! ```
//!
//! The trace is the service's value proposition made measurable: a
//! one-shot pipeline pays a full abstract run per question, while the
//! session answers every repeat, monotone-implied budget, coalesced
//! in-flight twin, warm-state co-tenant question, and post-drift
//! within-bound question from warm state. The bench asserts the
//! cross-request cache hit rate beats both the single-sweep cache's
//! 47.5% (`BENCH_sweep.json`'s `cache_hit_rate`) and the pre-sharing
//! service's 64.7%, that the warm batch runs zero abstract derivations,
//! and that two replays — reversed admission order and private
//! (unshared) sessions — reproduce byte-identical responses. Thread
//! count is pinned to 2 explicitly — `ExecContext` honors explicit
//! counts on any host — so every counter, including `pool_reuse_count`,
//! is host-independent and `perfgate` holds all of them to exact
//! equality.

use antidote_cli::service::Service;
use antidote_core::engine::ExecContext;
use antidote_core::{
    pool_stats, DomainKind, Request, RequestEngine, Response, Session, SessionConfig, Verdict,
    WarmStateIndex,
};
use antidote_data::synth::{gaussian_blobs, BlobSpec};
use antidote_data::{Dataset, DatasetDelta, DatasetRegistry, DeltaSummary};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

struct Options {
    per_class: usize,
}

impl Options {
    fn parse() -> Options {
        let mut opts = Options { per_class: 100 };
        let mut it = std::env::args().skip(1);
        while let Some(arg) = it.next() {
            let mut value = |name: &str| {
                it.next()
                    .and_then(|v| v.parse::<usize>().ok())
                    .unwrap_or_else(|| panic!("{name} needs an integer value"))
            };
            match arg.as_str() {
                "--per-class" => opts.per_class = value("--per-class").max(10),
                "--bench" => {} // passed by `cargo bench`
                other => panic!("unknown flag '{other}'"),
            }
        }
        opts
    }
}

/// Dataset A: the 1-D two-blob config the service tests pin.
fn blobs_a(per_class: usize) -> Dataset {
    gaussian_blobs(
        &BlobSpec {
            means: vec![vec![0.0], vec![10.0]],
            stds: vec![vec![1.0], vec![1.0]],
            per_class,
            quantum: Some(0.1),
        },
        7,
    )
}

/// Dataset B: a second tenant with different geometry and seed, so the
/// mixed-dataset batches exercise per-session state isolation.
fn blobs_b(per_class: usize) -> Dataset {
    gaussian_blobs(
        &BlobSpec {
            means: vec![vec![2.0], vec![8.0]],
            stds: vec![vec![1.0], vec![1.0]],
            per_class,
            quantum: Some(0.1),
        },
        11,
    )
}

fn certify(x: f64, n: usize) -> Request {
    Request::Certify { x: vec![x], n }
}

fn assert_robust(r: &Response, what: &str) {
    match r {
        Response::Certify { verdict, .. } => {
            assert_eq!(*verdict, Verdict::Robust, "{what} must certify robust")
        }
        Response::Sweep { .. } => panic!("{what}: expected a certify response"),
    }
}

/// The three batches of the trace. Session indices: 0 = tenant A on
/// dataset A, 1 = tenant B on dataset B, 2 = tenant C — a *co-tenant*
/// certifying dataset A under the identical config, so in the shared
/// replay it rides A's warm unit and every one of its questions is a
/// cross-request hit it never paid a derivation for. The drift delta is
/// applied between batches 2 and 3, so a replay reproduces it at the
/// same position.
fn batches() -> [Vec<(usize, Request)>; 3] {
    [
        // Cold: five distinct questions across both datasets.
        vec![
            (0, certify(0.5, 16)),
            (0, certify(9.5, 8)),
            (0, certify(5.1, 1)),
            (1, certify(2.5, 8)),
            (1, certify(7.5, 4)),
        ],
        // Warm: exact repeats, an in-flight coalesced twin,
        // monotone-implied budgets, and the co-tenant's questions —
        // all answerable without a single abstract run.
        vec![
            (0, certify(0.5, 16)),
            (0, certify(0.5, 16)), // coalesces with the line above
            (0, certify(0.5, 7)),  // implied by Robust(16)
            (2, certify(0.5, 16)), // co-tenant: warm via the shared unit
            (0, certify(9.5, 8)),
            (0, certify(9.5, 3)),
            (2, certify(9.5, 8)), // co-tenant repeat, zero derivations
            (1, certify(2.5, 8)),
            (1, certify(7.5, 2)),
        ],
        // Post-drift (two pure-removal epochs batched into one
        // transfer; tenants A and C both follow it): within-bound
        // questions stay warm at the new epoch; one genuinely new point
        // pays the only cold derivation.
        vec![
            (0, certify(0.5, 14)), // Robust(16) − 2 removals
            (0, certify(0.5, 13)),
            (2, certify(0.5, 12)), // implied by C's transferred Robust(14)
            (0, certify(9.5, 6)),  // Robust(8) − 2 removals
            (0, certify(0.3, 4)),  // cold
            (1, certify(2.5, 8)),  // B is untouched by A's drift
        ],
    ]
}

struct Replay {
    responses: Vec<Vec<Response>>,
    served: u64,
    hits: u64,
    warm_abstract_runs: u64,
}

/// Runs the full trace — three batches with the drift advance between
/// batches 2 and 3 — against fresh sessions. `shared` opens the three
/// tenants through a fresh [`WarmStateIndex`] (so C joins A's warm
/// unit); otherwise every tenant gets a private unit. `reverse` flips
/// the admission order inside every batch (responses are un-flipped
/// before returning). Together the variants pin order-independence and
/// the sharing differential: responses must be byte-identical across
/// all of them.
fn replay(
    ds_a: &Arc<Dataset>,
    ds_b: &Arc<Dataset>,
    next_a: &Arc<Dataset>,
    summaries: &[DeltaSummary],
    grand: &ExecContext,
    shared: bool,
    reverse: bool,
) -> Replay {
    let cfg = SessionConfig {
        depth: 1,
        domain: DomainKind::Disjuncts,
        ..SessionConfig::default()
    };
    let sessions = if shared {
        let index = Arc::new(WarmStateIndex::new());
        let open = |ds: &Arc<Dataset>| {
            Arc::new(Session::open_shared(
                &index,
                Arc::clone(ds),
                cfg.clone(),
                grand.metrics(),
            ))
        };
        // C opens last so it finds A's registered unit and joins it.
        [open(ds_a), open(ds_b), open(ds_a)]
    } else {
        [
            Arc::new(Session::new(Arc::clone(ds_a), cfg.clone())),
            Arc::new(Session::new(Arc::clone(ds_b), cfg.clone())),
            Arc::new(Session::new(Arc::clone(ds_a), cfg)),
        ]
    };
    let engine = RequestEngine::new();
    let mut responses = Vec::new();
    let mut served = 0;
    let mut hits = 0;
    let mut warm_abstract_runs = 0;
    for (i, batch) in batches().into_iter().enumerate() {
        if i == 2 {
            // Both dataset-A tenants follow the drift. A's advance swaps
            // in a successor unit (registered under the new epoch key);
            // C advances off the shared warm state it rode until now.
            sessions[0].advance(Arc::clone(next_a), summaries, grand.metrics());
            sessions[2].advance(Arc::clone(next_a), summaries, grand.metrics());
        }
        let mut requests: Vec<(Arc<Session>, Request)> = batch
            .into_iter()
            .map(|(s, r)| (Arc::clone(&sessions[s]), r))
            .collect();
        if reverse {
            requests.reverse();
        }
        let ctx = ExecContext::new().threads(2);
        let mut out = engine.submit(&requests, &ctx);
        if reverse {
            out.reverse();
        }
        let m = ctx.metrics();
        served += m.requests_served();
        hits += m.cross_request_cache_hits();
        if i == 1 {
            warm_abstract_runs = m.certify_calls() + m.cache_hits() - m.cache_shortcircuits();
        }
        grand.metrics().absorb(&m.snapshot());
        responses.push(out);
    }
    Replay {
        responses,
        served,
        hits,
        warm_abstract_runs,
    }
}

fn main() {
    let opts = Options::parse();
    let registry = DatasetRegistry::new();
    let ds_a = registry.load("a", blobs_a(opts.per_class));
    let ds_b = registry.load("b", blobs_b(opts.per_class));

    // The mid-stream drift: two chained single-row pure removals on
    // dataset A, applied through the registry and carried into the
    // sessions as one batched certificate transfer.
    let deltas: Vec<DatasetDelta> = [0, 1]
        .iter()
        .map(|&row| {
            let mut d = DatasetDelta::new();
            d.remove(row);
            d
        })
        .collect();
    let (next_a, summaries) = registry
        .apply_delta_many("a", &deltas)
        .expect("pure removals of live rows");
    assert_eq!(next_a.epoch(), 2);

    println!(
        "# serve: |A| = {} -> {}, |B| = {}, depth 1, disjuncts, threads pinned to 2, co-tenant C shares A",
        ds_a.len(),
        next_a.len(),
        ds_b.len()
    );

    let grand = ExecContext::new().threads(2);
    let t0 = Instant::now();
    let forward = replay(&ds_a, &ds_b, &next_a, &summaries, &grand, true, false);
    let trace_ms = t0.elapsed().as_secs_f64() * 1e3;

    // The anchors the warm path relies on must actually certify.
    assert_robust(&forward.responses[0][0], "A x=0.5 n=16");
    assert_robust(&forward.responses[0][1], "A x=9.5 n=8");
    assert_robust(&forward.responses[1][0], "A x=0.5 n=16 repeat");
    assert_robust(&forward.responses[2][0], "A x=0.5 n=14 post-drift");
    for r in &forward.responses[2] {
        if let Response::Certify { epoch, .. } = r {
            // Dataset A responses sit at epoch 2, B stays at 0.
            assert!(*epoch == 2 || *epoch == 0, "unexpected epoch {epoch}");
        }
    }
    assert_eq!(
        forward.warm_abstract_runs, 0,
        "the warm batch must be answered entirely from session state"
    );
    let warm_state_shared_hits = grand.metrics().warm_state_shared_hits();
    assert_eq!(
        warm_state_shared_hits, 1,
        "co-tenant C must have joined A's warm unit exactly once"
    );

    // Replay with every batch reversed on fresh shared sessions, and
    // again with sharing disarmed (every tenant private): responses
    // must be byte-identical regardless of admission order, and sharing
    // must be invisible in response bytes. Their counters go to scratch
    // contexts so the artifact reflects the primary run alone.
    let scratch = ExecContext::new().threads(2);
    let reversed = replay(&ds_a, &ds_b, &next_a, &summaries, &scratch, true, true);
    let private = replay(&ds_a, &ds_b, &next_a, &summaries, &scratch, false, false);
    let order_identical = forward.responses == reversed.responses;
    let sharing_identical = forward.responses == private.responses;
    assert!(
        order_identical,
        "reversed admission must reproduce identical responses"
    );
    assert!(
        sharing_identical,
        "warm-state sharing must not change a single response byte"
    );

    let hit_rate = forward.hits as f64 / forward.served as f64;
    // The single-sweep cache hit rate from BENCH_sweep.json, and the
    // pre-sharing service's own rate (11 hits / 17 served): the
    // co-tenant's shared warm unit must push past both, or sharing
    // bought nothing.
    const SWEEP_HIT_RATE: f64 = 0.475;
    const UNSHARED_SERVE_HIT_RATE: f64 = 0.647;
    let dominates = hit_rate > SWEEP_HIT_RATE;
    assert!(
        dominates,
        "cross-request hit rate {hit_rate:.3} must beat the single-sweep {SWEEP_HIT_RATE}"
    );
    assert!(
        hit_rate > UNSHARED_SERVE_HIT_RATE,
        "cross-request hit rate {hit_rate:.3} must beat the unshared service's {UNSHARED_SERVE_HIT_RATE}"
    );
    println!(
        "served {} request(s), {} cross-request hit(s) ({:.1}% vs single-sweep 47.5%, unshared serve 64.7%)",
        forward.served,
        forward.hits,
        100.0 * hit_rate
    );
    println!("identical responses under reversed admission and private sessions: yes; trace: {trace_ms:.1} ms");

    // Every batch after the first reuses persistent pool workers; with
    // threads pinned, the count is the same on every host and the gate
    // holds it exactly.
    let pool_reuse_count = pool_stats().batches_reusing_workers;

    // Bounded-memory phase: a capped service must evict LRU sessions as
    // tenants pile in, and the explicit op must count alongside.
    let mut capped = Service::new(1).max_sessions(2);
    for handle in ["t1", "t2", "t3", "t4"] {
        let (r, _) = capped.handle_line(&format!(
            r#"{{"op":"load","handle":"{handle}","dataset":"iris","depth":1}}"#
        ));
        assert!(r.contains("\"ok\":true"), "{r}");
    }
    let (r, _) = capped.handle_line(r#"{"op":"evict","handle":"t4"}"#);
    assert!(r.contains("\"ok\":true"), "{r}");
    let sessions_evicted = capped.metrics().sessions_evicted();
    assert_eq!(
        sessions_evicted, 3,
        "two LRU evictions at the cap plus one explicit evict"
    );

    let identical_responses = order_identical && sharing_identical;

    let m = grand.metrics();
    let json = format!(
        r#"{{
  "bench": "serve",
  "dataset_a_rows": {},
  "dataset_b_rows": {},
  "depth": 1,
  "domain": "disjuncts",
  "threads": 2,
  "trace_ms": {trace_ms:.3},
  "identical_responses": {identical_responses},
  "hit_rate_dominates_sweep": {dominates},
  "cross_request_hit_rate": {hit_rate:.3},
  "requests_served": {},
  "cross_request_cache_hits": {},
  "warm_batch_abstract_runs": {},
  "warm_state_shared_hits": {warm_state_shared_hits},
  "sessions_evicted": {sessions_evicted},
  "certify_calls_cached": {},
  "cache_hits": {},
  "cache_shortcircuits": {},
  "cache_transfers": {},
  "cache_invalidations": {},
  "subsumption_pruned": {},
  "split_memo_hits": {},
  "split_memo_misses": {},
  "probes_scheduled": {},
  "probes_deferred": {},
  "deadline_degradations": {},
  "interner_hits": {},
  "arena_resets": {},
  "pool_reuse_count": {pool_reuse_count}
}}
"#,
        ds_a.len(),
        ds_b.len(),
        forward.served,
        forward.hits,
        forward.warm_abstract_runs,
        m.certify_calls(),
        m.cache_hits(),
        m.cache_shortcircuits(),
        m.cache_transfers(),
        m.cache_invalidations(),
        m.disjuncts_subsumed(),
        m.split_memo_hits(),
        m.split_memo_misses(),
        m.probes_scheduled(),
        m.probes_deferred(),
        m.deadline_degradations(),
        m.interner_hits(),
        m.arena_resets(),
    );
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_serve.json");
    match std::fs::write(&path, &json) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}
