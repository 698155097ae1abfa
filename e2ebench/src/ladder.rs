//! The two CLI ladder workloads: `antidote sweep` spawned with default
//! settings, timed from spawn to the sweep header (set-up) and to the
//! last output byte (wall).

use crate::calib::Calib;
use crate::check;
use crate::trace::{self, Layers};
use crate::util;
use crate::Report;
use antidote_core::DomainKind;
use antidote_data::{Benchmark, Dataset, Scale};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// One ladder: the dataset, domain and the flags that bound its work.
pub struct Ladder {
    pub bench: Benchmark,
    pub domain: DomainKind,
    pub domain_id: &'static str,
    pub depth: usize,
    /// First `k` test points (`None`: all of them).
    pub points: Option<usize>,
    /// Deterministic probe budget shared across the ladder.
    pub probe_budget: Option<u64>,
    /// Points whose n = 1 verdict the retraining oracle re-checks.
    pub oracle_points: usize,
    /// Whether the oracle is too slow for every run and runs only in
    /// the traced run.
    pub oracle_traced_only: bool,
    /// Robust points `greedy_attack` tries to break (0: too slow here).
    pub attack_points: usize,
}

pub fn spec(workload: &str) -> Option<Ladder> {
    match workload {
        // Wide: 2,000 rows × 784 boolean features, Box keeps the frontier
        // at a few disjuncts, so word kernels and bestSplit# width carry
        // the work.
        "ladder-mnist-box" => Some(Ladder {
            bench: Benchmark::Mnist17Binary,
            domain: DomainKind::Box,
            domain_id: "box",
            depth: 2,
            points: None,
            probe_budget: None,
            // One n = 1 retraining oracle here is 2,001 trainings on
            // 2,000 × 784 (about 27 s on 2 cores); greedy_attack took more
            // than 120 s per point.
            oracle_points: 1,
            oracle_traced_only: true,
            attack_points: 0,
        }),
        // Deep: the frontier blow-up of Disjuncts on wdbc; a probe budget
        // (never a wall-clock deadline) keeps the ladder deterministic.
        "ladder-wdbc-disjuncts" => Some(Ladder {
            bench: Benchmark::Wdbc,
            domain: DomainKind::Disjuncts,
            domain_id: "disjuncts",
            depth: 2,
            points: Some(6),
            probe_budget: Some(12),
            oracle_points: 2,
            oracle_traced_only: false,
            attack_points: 2,
        }),
        _ => None,
    }
}

impl Ladder {
    fn args(&self, threads: usize, points: Option<usize>) -> Vec<String> {
        let mut a: Vec<String> = [
            "sweep",
            "--dataset",
            self.bench.id(),
            "--depth",
            &self.depth.to_string(),
            "--domain",
            self.domain_id,
            "--timeout",
            "0",
            "--threads",
            &threads.to_string(),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        if let Some(k) = points.or(self.points) {
            a.extend(["--points".to_string(), k.to_string()]);
        }
        if let Some(k) = self.probe_budget {
            a.extend(["--probe-budget".to_string(), k.to_string()]);
        }
        a
    }

    pub fn load(&self) -> (Dataset, Vec<Vec<f64>>) {
        let (train, test) = self.bench.load(Scale::Small, 0);
        let k = self.points.unwrap_or(test.len()).min(test.len());
        let xs = (0..k as u32).map(|r| test.row_values(r)).collect();
        (train, xs)
    }
}

/// One spawned sweep.
pub struct Run {
    pub setup_s: f64,
    pub wall_s: f64,
    pub peak_rss_mb: f64,
    /// `(n, attempted, verified)` per rung, in printed order.
    pub rungs: Vec<(u64, u64, u64)>,
    /// The `#` summary lines after the table.
    pub summary: Vec<String>,
}

/// Spawns one sweep and reads it to the end.
pub fn spawn(bin: &Path, args: &[String]) -> Result<Run, String> {
    let t0 = Instant::now();
    let mut child = Command::new(bin)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
    let stdout = child.stdout.take().expect("stdout is piped");
    let pid = child.id();
    let mut header = None;
    let mut last = t0;
    let mut rungs = Vec::new();
    let mut summary = Vec::new();
    // A second thread samples the child's VmHWM until its output ends;
    // the peak falls during the ladder, well before the final lines.
    let done = AtomicBool::new(false);
    let (read, peak) = std::thread::scope(|s| {
        let sampler = s.spawn(|| {
            let mut peak = 0.0f64;
            while !done.load(Ordering::Relaxed) {
                if let Some(v) = util::vm_hwm_mb(pid) {
                    peak = peak.max(v);
                }
                std::thread::sleep(Duration::from_millis(10));
            }
            peak
        });
        let read = (|| -> Result<(), String> {
            for line in BufReader::new(stdout).lines() {
                let line = line.map_err(|e| format!("reading sweep output: {e}"))?;
                last = Instant::now();
                if line.starts_with("# sweep:") {
                    header.get_or_insert(last);
                } else if line.starts_with('#') {
                    summary.push(line);
                } else {
                    let cols: Vec<u64> = line
                        .split_whitespace()
                        .take(3)
                        .filter_map(|c| c.parse().ok())
                        .collect();
                    if let [n, attempted, verified] = cols[..] {
                        rungs.push((n, attempted, verified));
                    }
                }
            }
            Ok(())
        })();
        done.store(true, Ordering::Relaxed);
        (read, sampler.join().expect("sampler thread panicked"))
    });
    let status = child
        .wait()
        .map_err(|e| format!("waiting for sweep: {e}"))?;
    read?;
    if !status.success() {
        return Err(format!("sweep exited with {status}"));
    }
    let header = header.ok_or("sweep printed no header")?;
    Ok(Run {
        setup_s: util::secs(t0, header),
        wall_s: util::secs(t0, last),
        peak_rss_mb: peak,
        rungs,
        summary,
    })
}

/// Extra spawns per run that stop after the header (`--points 0`), so
/// `setup_s` is a median over enough samples.
const SETUP_SPAWNS: usize = 10;
/// Calibration kernel runs before each sweep and after the last: a
/// sweep takes seconds, so a few runs of the kernel add little time and
/// steady its scale factor.
const TICKS_PER_SWEEP: usize = 4;

pub fn run(
    bin: &Path,
    lad: &Ladder,
    threads: usize,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Report {
    let mut rep = Report::default();
    let args = lad.args(threads, None);
    eprintln!("# antidote {}", args.join(" "));
    let mut cal = Calib::new();
    // `(sample index, raw seconds)` of every set-up time.
    let mut setups = Vec::new();
    let mut k = 0;
    for _ in 0..SETUP_SPAWNS {
        rep.attempted += 1;
        match cal.sample(1, || spawn(bin, &lad.args(threads, Some(0)))) {
            Ok(r) => setups.push((k, r.setup_s)),
            Err(e) => rep.fail(&e),
        }
        k += 1;
    }
    // Whole sweeps until the next one would overrun `seconds` (at least
    // one; a traced run needs just one for memory and timing context).
    let start = Instant::now();
    let mut runs: Vec<(usize, Run)> = Vec::new();
    loop {
        rep.attempted += 1;
        match cal.sample(TICKS_PER_SWEEP, || spawn(bin, &args)) {
            Ok(r) => runs.push((k, r)),
            Err(e) => {
                rep.fail(&e);
                break;
            }
        }
        k += 1;
        let done = util::secs(start, Instant::now());
        let per = done / runs.len() as f64;
        if traced || done + per > seconds {
            break;
        }
    }
    cal.finish(TICKS_PER_SWEEP);
    let Some((_, first)) = runs.first() else {
        rep.correct = false;
        return rep;
    };
    for (_, r) in &runs[1..] {
        if r.rungs != first.rungs {
            rep.mismatch(&format!(
                "ladder differs between runs: {:?} vs {:?}",
                first.rungs, r.rungs
            ));
        }
    }
    setups.extend(runs.iter().map(|(i, r)| (*i, r.setup_s)));
    let walls: Vec<(usize, f64)> = runs.iter().map(|(i, r)| (*i, r.wall_s)).collect();
    eprintln!(
        "# sweep walls (s): {:?}",
        walls.iter().map(|w| w.1).collect::<Vec<_>>()
    );
    let rss: Vec<f64> = runs.iter().map(|(_, r)| r.peak_rss_mb).collect();
    let (train, xs) = lad.load();
    let cert_n = util::certified_n_mean(&first.rungs, xs.len());
    rep.samples = walls.len();
    cal.report(&mut rep, &setups, &walls);
    rep.put("peak_rss_mb", util::median(&rss));
    rep.put("certified_n_mean", cert_n);
    for l in &first.summary {
        eprintln!("{l}");
    }
    let n1 = first.rungs.iter().find(|r| r.0 == 1).copied();
    let mut rng = StdRng::seed_from_u64(seed);
    let t = Instant::now();
    check::ladder(&mut rep, lad, &train, &xs, n1, threads, traced, &mut rng);
    eprintln!("# checks took {:.1} s", t.elapsed().as_secs_f64());
    if traced {
        let mut layers = Layers::new();
        trace::ladder(&mut layers, lad, &train, &xs, threads);
        let proxy = layers.get("learner.peak_bytes_proxy");
        let rss_mb = util::median(&rss);
        if let (Some(p), Some(r)) = (proxy, rss_mb) {
            if p > 0.0 {
                layers.put("mem.rss_per_proxy", Some(r / (p / 1e6)));
            }
        }
        layers.put(
            "data.words_per_subset",
            Some(train.len().div_ceil(64) as f64),
        );
        rep.layers = Some(layers);
    }
    rep
}
