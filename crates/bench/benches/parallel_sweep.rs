//! Parallel-sweep benchmark: 1-thread versus N-thread wall-clock for the
//! §6.1 ladder over a synthetic blob dataset, plus cached versus
//! `--no-cache` certifier-invocation counts, with a machine-readable
//! `BENCH_sweep.json` snapshot for the performance trajectory.
//!
//! Run with:
//!
//! ```text
//! cargo bench -p antidote-bench --bench parallel_sweep
//!   [-- --points K] [-- --per-class C] [-- --depth D] [-- --reps R]
//! ```
//!
//! All three modes (sequential cached, parallel cached, sequential
//! fresh) must produce bitwise-identical ladders (verified/attempted per
//! probed `n`); the benchmark asserts this before reporting the speedup
//! and the cache hit rate. On a 1-core host the multi-thread rep is
//! skipped outright — it cannot exhibit a speedup, so timing it only
//! burned a third of the bench budget — and `threadsN_ms`/`speedup`/
//! `pool_reuse_count` are reported as `null` (the pool is never touched
//! by the strictly sequential reps, so a literal 0 would be a
//! measurement that never happened). The JSON snapshot is written to
//! the repository root (next to `Cargo.toml`'s workspace).

use antidote_core::engine::ExecContext;
use antidote_core::{sweep_in, DomainKind, SweepConfig, SweepPoint};
use antidote_data::synth::{gaussian_blobs, BlobSpec};
use antidote_data::Dataset;
use std::path::PathBuf;
use std::time::{Duration, Instant};

struct Options {
    points: usize,
    per_class: usize,
    depth: usize,
    reps: usize,
}

impl Options {
    fn parse() -> Options {
        let mut opts = Options {
            points: 32,
            per_class: 100,
            depth: 2,
            reps: 3,
        };
        let mut it = std::env::args().skip(1);
        while let Some(arg) = it.next() {
            let mut value = |name: &str| {
                it.next()
                    .and_then(|v| v.parse::<usize>().ok())
                    .unwrap_or_else(|| panic!("{name} needs an integer value"))
            };
            match arg.as_str() {
                "--points" => opts.points = value("--points").max(2),
                "--per-class" => opts.per_class = value("--per-class").max(10),
                "--depth" => opts.depth = value("--depth"),
                "--reps" => opts.reps = value("--reps").max(1),
                "--bench" => {} // passed by `cargo bench`
                other => panic!("unknown flag '{other}'"),
            }
        }
        opts
    }
}

/// Two separated 2-D Gaussian classes — enough per-point work that the
/// fan-out dominates thread-spawn overhead.
fn dataset(per_class: usize) -> Dataset {
    gaussian_blobs(
        &BlobSpec {
            means: vec![vec![0.0, 0.0], vec![10.0, 10.0]],
            stds: vec![vec![1.5, 1.5], vec![1.5, 1.5]],
            per_class,
            quantum: Some(0.1),
        },
        7,
    )
}

fn test_points(k: usize) -> Vec<Vec<f64>> {
    (0..k)
        .map(|i| {
            let t = i as f64 / (k - 1) as f64;
            vec![
                -1.0 + 12.0 * t,
                -1.0 + 12.0 * ((i * 7) % k) as f64 / (k - 1) as f64,
            ]
        })
        .collect()
}

/// The verdict-relevant projection of a ladder (timings excluded).
fn ladder_key(points: &[SweepPoint]) -> Vec<(usize, usize, usize)> {
    points
        .iter()
        .map(|p| (p.n, p.attempted, p.verified))
        .collect()
}

/// Per-mode cache/frontier counters, read from the last rep's engine
/// metrics (every rep is deterministic, so the counts are rep-invariant).
#[derive(Debug, Clone, Copy, Default)]
struct ModeStats {
    certify_calls: u64,
    cache_hits: u64,
    cache_shortcircuits: u64,
    cache_transfers: u64,
    cache_invalidations: u64,
    cache_hit_rate: f64,
    subsumption_pruned: u64,
    frontier_peak_disjuncts: usize,
    split_memo_hits: u64,
    split_memo_misses: u64,
    interner_hits: u64,
    arena_resets: u64,
    arena_bytes: usize,
    simd_lanes: usize,
    requests_served: u64,
    cross_request_cache_hits: u64,
    probes_scheduled: u64,
    probes_deferred: u64,
    deadline_degradations: u64,
    warm_state_shared_hits: u64,
    sessions_evicted: u64,
}

fn run_mode(
    ds: &Dataset,
    xs: &[Vec<f64>],
    depth: usize,
    threads: usize,
    cache: bool,
    reps: usize,
) -> (Vec<SweepPoint>, Duration, ModeStats) {
    let cfg = SweepConfig {
        depth,
        domain: DomainKind::Disjuncts,
        timeout: None,
        threads,
        cache,
        ..SweepConfig::default()
    };
    let mut best = Duration::MAX;
    let mut out = Vec::new();
    let mut stats = ModeStats::default();
    for _ in 0..reps {
        // A fresh parent context per rep: the cache (when enabled) lives
        // inside the sweep, so every rep starts cold.
        let parent = ExecContext::new().threads(threads);
        let t0 = Instant::now();
        out = sweep_in(ds, xs, &cfg, &parent);
        best = best.min(t0.elapsed());
        let m = parent.metrics();
        stats = ModeStats {
            certify_calls: m.certify_calls(),
            cache_hits: m.cache_hits(),
            cache_shortcircuits: m.cache_shortcircuits(),
            cache_transfers: m.cache_transfers(),
            cache_invalidations: m.cache_invalidations(),
            cache_hit_rate: m.cache_hit_rate(),
            subsumption_pruned: m.disjuncts_subsumed(),
            frontier_peak_disjuncts: m.peak_disjuncts(),
            split_memo_hits: m.split_memo_hits(),
            split_memo_misses: m.split_memo_misses(),
            interner_hits: m.interner_hits(),
            arena_resets: m.arena_resets(),
            arena_bytes: m.arena_bytes(),
            simd_lanes: m.simd_lanes(),
            requests_served: m.requests_served(),
            cross_request_cache_hits: m.cross_request_cache_hits(),
            probes_scheduled: m.probes_scheduled(),
            probes_deferred: m.probes_deferred(),
            deadline_degradations: m.deadline_degradations(),
            warm_state_shared_hits: m.warm_state_shared_hits(),
            sessions_evicted: m.sessions_evicted(),
        };
    }
    (out, best, stats)
}

fn main() {
    let opts = Options::parse();
    let ds = dataset(opts.per_class);
    let xs = test_points(opts.points);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    println!(
        "# parallel_sweep: |T| = {}, {} test points, depth {}, {} core(s), best of {} reps",
        ds.len(),
        xs.len(),
        opts.depth,
        cores,
        opts.reps
    );
    let effective_threads = ExecContext::new().effective_threads();
    let (seq_ladder, t1, cached_stats) = run_mode(&ds, &xs, opts.depth, 1, true, opts.reps);
    println!("threads=1 (cached): {t1:?}");
    // A lone core cannot exhibit a parallel speedup: whatever ratio a
    // multi-thread rep would produce there is pure scheduling noise, so
    // the rep is skipped outright (it used to be timed and discarded)
    // and the JSON reports `null` for both the timing and the ratio.
    let tn = if effective_threads == 1 {
        println!("threads=1 host: skipping the redundant multi-thread rep");
        None
    } else {
        let (par_ladder, tn, _) = run_mode(&ds, &xs, opts.depth, 0, true, opts.reps);
        println!("threads={cores} (cached): {tn:?}");
        assert_eq!(
            ladder_key(&seq_ladder),
            ladder_key(&par_ladder),
            "parallel and sequential sweeps must agree on every verdict"
        );
        Some(tn)
    };
    let (fresh_ladder, t_fresh, fresh_stats) = run_mode(&ds, &xs, opts.depth, 1, false, opts.reps);
    println!("threads=1 (no-cache): {t_fresh:?}");

    assert_eq!(
        ladder_key(&seq_ladder),
        ladder_key(&fresh_ladder),
        "cached and fresh sweeps must agree on every verdict"
    );
    assert!(
        cached_stats.certify_calls < fresh_stats.certify_calls,
        "the cache must cut full certifier invocations ({} vs {})",
        cached_stats.certify_calls,
        fresh_stats.certify_calls
    );
    assert!(cached_stats.cache_hit_rate > 0.0);
    assert!(
        cached_stats.interner_hits > 0,
        "frontier hash-consing must fire on the stock configuration"
    );
    // The one-shot sweep never routes through a Session: the service
    // counters must stay at 0 on this path (the serve bench gates their
    // live values), and the gate holds them there.
    assert_eq!(
        cached_stats.requests_served, 0,
        "static path serves no requests"
    );
    assert_eq!(cached_stats.cross_request_cache_hits, 0);
    // Thread-churn visibility: batches the persistent pool served without
    // spawning a worker. Strictly sequential reps never touch the pool, so
    // on a 1-core host (where the multi-thread rep is skipped) there is no
    // measurement to report — the JSON says `null`, matching
    // `threadsN_ms`/`speedup`, rather than a misleading literal 0.
    let pool_reuse_count = antidote_core::pool_stats().batches_reusing_workers;
    let pool_reuse_json = match tn {
        None => "null".to_string(),
        Some(_) => pool_reuse_count.to_string(),
    };
    let (threads_n_json, speedup_json) = match tn {
        None => ("null".to_string(), "null".to_string()),
        Some(tn) => {
            let speedup = t1.as_secs_f64() / tn.as_secs_f64().max(1e-12);
            println!("speedup: {speedup:.2}x (identical ladders: yes)");
            (
                format!("{:.3}", tn.as_secs_f64() * 1e3),
                format!("{speedup:.3}"),
            )
        }
    };
    if tn.is_none() {
        println!("speedup: n/a (single core; identical ladders: yes)");
    }
    println!(
        "certify calls: {} fresh -> {} cached ({} hit(s), {} short-circuit, hit rate {:.1}%)",
        fresh_stats.certify_calls,
        cached_stats.certify_calls,
        cached_stats.cache_hits,
        cached_stats.cache_shortcircuits,
        100.0 * cached_stats.cache_hit_rate
    );
    println!(
        "frontier: {} disjunct(s) subsumption-pruned, peak {} live",
        cached_stats.subsumption_pruned, cached_stats.frontier_peak_disjuncts
    );
    println!(
        "bestSplit# memo: {} hit(s) / {} miss(es); interner: {} hit(s)",
        cached_stats.split_memo_hits, cached_stats.split_memo_misses, cached_stats.interner_hits
    );

    // Snapshot for the perf trajectory, at the workspace root.
    let ladder_json: Vec<String> = seq_ladder
        .iter()
        .map(|p| {
            format!(
                r#"    {{"n": {}, "attempted": {}, "verified": {}}}"#,
                p.n, p.attempted, p.verified
            )
        })
        .collect();
    let json = format!(
        r#"{{
  "bench": "parallel_sweep",
  "dataset_rows": {},
  "test_points": {},
  "depth": {},
  "domain": "disjuncts",
  "host_cores": {},
  "effective_threads": {},
  "reps": {},
  "threads1_ms": {:.3},
  "threadsN_ms": {},
  "no_cache_ms": {:.3},
  "speedup": {},
  "identical_ladders": true,
  "certify_calls_fresh": {},
  "certify_calls_cached": {},
  "cache_hits": {},
  "cache_shortcircuits": {},
  "cache_transfers": {},
  "cache_invalidations": {},
  "cache_hit_rate": {:.3},
  "subsumption_pruned": {},
  "split_memo_hits": {},
  "split_memo_misses": {},
  "interner_hits": {},
  "arena_resets": {},
  "arena_bytes": {},
  "simd_lanes": {},
  "requests_served": {},
  "cross_request_cache_hits": {},
  "probes_scheduled": {},
  "probes_deferred": {},
  "deadline_degradations": {},
  "warm_state_shared_hits": {},
  "sessions_evicted": {},
  "frontier_peak_disjuncts": {},
  "pool_reuse_count": {},
  "ladder": [
{}
  ]
}}
"#,
        ds.len(),
        xs.len(),
        opts.depth,
        cores,
        effective_threads,
        opts.reps,
        t1.as_secs_f64() * 1e3,
        threads_n_json,
        t_fresh.as_secs_f64() * 1e3,
        speedup_json,
        fresh_stats.certify_calls,
        cached_stats.certify_calls,
        cached_stats.cache_hits,
        cached_stats.cache_shortcircuits,
        cached_stats.cache_transfers,
        cached_stats.cache_invalidations,
        cached_stats.cache_hit_rate,
        cached_stats.subsumption_pruned,
        cached_stats.split_memo_hits,
        cached_stats.split_memo_misses,
        cached_stats.interner_hits,
        cached_stats.arena_resets,
        cached_stats.arena_bytes,
        cached_stats.simd_lanes,
        cached_stats.requests_served,
        cached_stats.cross_request_cache_hits,
        cached_stats.probes_scheduled,
        cached_stats.probes_deferred,
        cached_stats.deadline_degradations,
        cached_stats.warm_state_shared_hits,
        cached_stats.sessions_evicted,
        cached_stats.frontier_peak_disjuncts,
        pool_reuse_json,
        ladder_json.join(",\n")
    );
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_sweep.json");
    match std::fs::write(&path, &json) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}
