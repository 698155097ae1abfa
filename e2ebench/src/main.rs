//! End-to-end benchmark of antidote.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. It builds the repository's release
//! `antidote` binary, drives one workload against it, checks the outputs,
//! prints every metric by name with its unit on standard error, and as
//! the last line of standard output one JSON object
//! `{"correct","attempted","failed","metrics"}`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1` (the traced
//! run also writes its spans as JSON lines under the build directory).
//! Timed samples are scaled to a reference host speed (`calib.rs`).
//! Workloads, metrics and the layer predictions are described in
//! `e2ebench/README.md`.

mod calib;
mod check;
mod ladder;
mod serve;
mod trace;
mod util;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

/// End-to-end metrics, every workload: `(name, unit)`.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("certified_n_mean", "n"),
];

/// Per-layer metrics of the traced run: `(name, unit)`.
const PER_LAYER: &[(&str, &str)] = &[
    ("data.load_ms", "ms"),
    ("data.words_per_subset", "count"),
    ("tree.dtrace_us_p50", "us"),
    ("tree.dtrace_calls", "count"),
    ("domains.filter_us_p50", "us"),
    ("domains.join_us_p50", "us"),
    ("domains.le_us_p50", "us"),
    ("score.best_split_abs_us_p50", "us"),
    ("score.candidates", "count"),
    ("learner.abstract_run_ms_p50", "ms"),
    ("learner.abstract_run_ms_max", "ms"),
    ("learner.abstract_runs", "count"),
    ("learner.disjuncts_processed", "count"),
    ("learner.disjuncts_subsumed", "count"),
    ("learner.frontier_peak_disjuncts", "count"),
    ("learner.peak_bytes_proxy", "bytes"),
    ("cache.probes", "count"),
    ("cache.hits", "count"),
    ("cache.shortcircuits", "count"),
    ("cache.abstract_runs_per_probe", "ratio"),
    ("sched.probes_scheduled", "count"),
    ("sched.probes_deferred", "count"),
    ("memo.hits", "count"),
    ("memo.misses", "count"),
    ("interner.hits", "count"),
    ("engine.parallel_tasks", "count"),
    ("engine.pool_batches", "count"),
    ("session.certify_hit_us_p50", "us"),
    ("session.certify_miss_ms_p50", "ms"),
    ("session.cross_request_hit_rate", "ratio"),
    ("session.warm_state_shared_hits", "count"),
    ("session.advance_ms_p50", "ms"),
    ("session.transfers", "count"),
    ("session.invalidations", "count"),
    ("service.handle_line_us_p50.certify", "us"),
    ("service.handle_line_us_p50.sweep", "us"),
    ("service.handle_line_us_p50.delta", "us"),
    ("service.overhead_us_p50", "us"),
    ("service.queue_wait_ms_p50", "ms"),
    ("serve_loop.burst_ms", "ms"),
    ("gen.lag_ms_max", "ms"),
    ("trace.overhead_frac", "ratio"),
    ("mem.rss_per_proxy", "ratio"),
];

/// What one run measured and checked.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Correctness checks made.
    pub checks: u64,
    /// Timed samples behind the headline timing.
    pub samples: usize,
    pub metrics: BTreeMap<String, Option<f64>>,
    /// Further figures printed by name but not part of the result line.
    pub extra: Vec<(String, &'static str, Option<f64>)>,
    pub layers: Option<trace::Layers>,
}

impl Default for Report {
    fn default() -> Self {
        Report {
            correct: true,
            attempted: 0,
            failed: 0,
            checks: 0,
            samples: 0,
            metrics: BTreeMap::new(),
            extra: Vec::new(),
            layers: None,
        }
    }
}

impl Report {
    /// Counts one failed operation.
    pub fn fail(&mut self, why: &str) {
        self.failed += 1;
        eprintln!("FAILED: {why}");
    }

    /// Records a wrong output.
    pub fn mismatch(&mut self, why: &str) {
        self.correct = false;
        eprintln!("MISMATCH: {why}");
    }

    pub fn put(&mut self, name: &str, v: Option<f64>) {
        self.metrics.insert(name.to_string(), v);
    }

    pub fn extra(&mut self, name: &str, unit: &'static str, v: Option<f64>) {
        self.extra.push((name.to_string(), unit, v));
    }
}

struct Opts {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_opts() -> Result<Opts, String> {
    let mut args = std::env::args().skip(1);
    let mut o = Opts {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    while let Some(flag) = args.next() {
        let val = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} '{val}': {e}");
        match flag.as_str() {
            "--workload" => o.workload = val.clone(),
            "--seed" => o.seed = val.parse().map_err(|e| bad(&e))?,
            "--seconds" => o.seconds = val.parse().map_err(|e| bad(&e))?,
            "--trace" => o.trace = val == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if o.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(o)
}

/// Builds the repository's release `antidote` binary into the build
/// directory (`CARGO_TARGET_DIR`, else `.bench_build`) and returns it.
fn build_antidote(root: &Path) -> Result<(PathBuf, PathBuf), String> {
    if !root.join("Cargo.toml").is_file() || !root.join("crates/cli").is_dir() {
        return Err(format!(
            "{} is not an antidote checkout (run from the repository root)",
            root.display()
        ));
    }
    let target = match std::env::var_os("CARGO_TARGET_DIR") {
        Some(t) => root.join(t),
        None => root.join(".bench_build"),
    };
    let status = Command::new("cargo")
        .args(["build", "--release", "--quiet", "--bin", "antidote"])
        .current_dir(root)
        .env("CARGO_TARGET_DIR", &target)
        .status()
        .map_err(|e| format!("running cargo: {e}"))?;
    if !status.success() {
        return Err(format!("cargo build of antidote failed: {status}"));
    }
    Ok((target.join("release").join("antidote"), target))
}

/// A metric value as JSON: all its digits, or `null` when missing or
/// not finite.
fn fmt(v: Option<f64>) -> String {
    v.filter(|v| v.is_finite())
        .map_or("null".to_string(), |v| format!("{v}"))
}

fn main() {
    let opts = match parse_opts() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let root = std::env::current_dir().expect("current directory is readable");
    let (bin, target) = match build_antidote(&root) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!(
        "# workload {} seed {} seconds {} trace {} threads {threads}",
        opts.workload, opts.seed, opts.seconds, opts.trace
    );
    let mut rep = if let Some(lad) = ladder::spec(&opts.workload) {
        ladder::run(&bin, &lad, threads, opts.seed, opts.seconds, opts.trace)
    } else if opts.workload == serve::NAME {
        serve::run(&bin, &target, threads, opts.seed, opts.seconds, opts.trace)
    } else {
        eprintln!("error: unknown workload '{}'", opts.workload);
        std::process::exit(2);
    };
    if rep.attempted == 0 {
        eprintln!("error: no operation was attempted");
        std::process::exit(1);
    }

    eprintln!("# end-to-end ({} timed samples)", rep.samples);
    for (name, unit) in END_TO_END {
        eprintln!(
            "{name:<36} {:>14} {unit}",
            fmt(rep.metrics.get(*name).copied().flatten())
        );
    }
    for (name, unit, v) in &rep.extra {
        eprintln!("{name:<36} {:>14} {unit}", fmt(*v));
    }
    let failed_frac = rep.failed as f64 / rep.attempted as f64;
    eprintln!("{:<36} {:>14} frac", "failed_frac", fmt(Some(failed_frac)));
    eprintln!("{:<36} {:>14} count", "checks", rep.checks);

    let chosen: Vec<(&str, &str, Option<f64>)> = match rep.layers.take() {
        Some(layers) => {
            if let Some(rec) = &layers.recorder {
                eprintln!("# spans: calls, total ms, self ms");
                for (name, (calls, total, own)) in rec.self_times() {
                    eprintln!(
                        "{name:<36} {calls:>8} {:>12.3} {:>12.3}",
                        total * 1e3,
                        own * 1e3
                    );
                }
                let path = target
                    .join("e2ebench-spans")
                    .join(format!("{}-{}.jsonl", opts.workload, opts.seed));
                match rec.write(&path) {
                    Ok(()) => eprintln!("# spans written to {}", path.display()),
                    Err(e) => eprintln!("# writing spans to {}: {e}", path.display()),
                }
            }
            eprintln!("# per-layer");
            PER_LAYER
                .iter()
                .map(|&(name, unit)| {
                    let v = layers.values.get(name).copied().unwrap_or(Some(0.0));
                    eprintln!("{name:<36} {:>14} {unit}", fmt(v));
                    (name, unit, v)
                })
                .collect()
        }
        None => END_TO_END
            .iter()
            .map(|&(name, unit)| (name, unit, rep.metrics.get(name).copied().flatten()))
            .collect(),
    };
    let metrics: Vec<String> = chosen
        .iter()
        .map(|(name, unit, v)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                fmt(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        rep.correct,
        rep.attempted,
        rep.failed,
        metrics.join(", ")
    );
}
