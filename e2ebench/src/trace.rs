//! The traced run: spans recorded around calls into each layer's public
//! functions, made in-process from the benchmark itself, and the layer
//! counters read by name from the program's metric snapshots.

use crate::ladder::Ladder;
use crate::util;
use antidote_core::score::scored_candidates;
use antidote_core::{best_split_abs, pool_stats, sweep_in, Certifier, ExecContext, SweepConfig};
use antidote_data::{Dataset, Scale, Subset, ThresholdCmp};
use antidote_domains::{AbsPredicate, AbstractSet, CprobTransformer};
use antidote_tree::dtrace::dtrace_recorded;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::OnceLock;
use std::time::Instant;

/// The common time origin of every recorder, so spans from several
/// recorders of one run merge onto one time line.
fn origin() -> Instant {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    *ORIGIN.get_or_init(Instant::now)
}

/// One timed call: `parent` is the span that made it, `request` groups
/// the spans of one probe or one service request.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

/// Spans kept in memory and written out when the run ends. A disabled
/// recorder runs the same calls without recording, for the overhead.
pub struct Recorder {
    t0: Instant,
    on: bool,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new(on: bool) -> Recorder {
        Recorder {
            t0: origin(),
            on,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    pub fn begin(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        Some(self.spans.len() - 1)
    }

    pub fn end(&mut self, id: Option<usize>) {
        if let Some(i) = id {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, request);
        let out = f();
        self.end(id);
        out
    }

    /// Durations in seconds of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .collect()
    }

    /// Per span name: calls, total seconds, and self seconds (total
    /// minus the time its child spans cover).
    pub fn self_times(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let d = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += d as f64 * 1e-9;
            e.2 += d.saturating_sub(child[i]) as f64 * 1e-9;
        }
        out
    }

    /// Appends the spans of `other` (same time origin).
    pub fn absorb(&mut self, other: Recorder) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Writes the spans as JSON lines.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                f,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        f.flush()
    }
}

/// Per-layer metric values by name. `None` is a counter the program no
/// longer reports; a name never set is a layer this workload does not
/// exercise and reads 0.
#[derive(Default)]
pub struct Layers {
    pub values: BTreeMap<String, Option<f64>>,
    pub recorder: Option<Recorder>,
}

impl Layers {
    pub fn new() -> Layers {
        Layers::default()
    }

    pub fn put(&mut self, name: &str, v: Option<f64>) {
        self.values.insert(name.to_string(), v);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied().flatten()
    }

    /// Sets `name` to the median of span durations, scaled by `scale`.
    pub fn p50(&mut self, name: &str, rec: &Recorder, span: &str, scale: f64) {
        let d = rec.durations(span);
        if !d.is_empty() {
            self.put(name, util::median(&d).map(|v| v * scale));
        }
    }

    /// Maps the engine counters of a `MetricsSnapshot` `Debug` string to
    /// the per-layer names.
    pub fn counters(&mut self, snapshot_debug: &str) {
        let c = util::debug_counters(snapshot_debug);
        let get = |k: &str| c.get(k).copied();
        for (name, key) in [
            ("learner.abstract_runs", "arena_resets"),
            ("learner.disjuncts_processed", "disjuncts_processed"),
            ("learner.disjuncts_subsumed", "disjuncts_subsumed"),
            ("learner.frontier_peak_disjuncts", "peak_disjuncts"),
            ("learner.peak_bytes_proxy", "peak_bytes"),
            ("cache.hits", "cache_hits"),
            ("cache.shortcircuits", "cache_shortcircuits"),
            ("sched.probes_scheduled", "probes_scheduled"),
            ("sched.probes_deferred", "probes_deferred"),
            ("memo.hits", "split_memo_hits"),
            ("memo.misses", "split_memo_misses"),
            ("interner.hits", "interner_hits"),
            ("engine.parallel_tasks", "parallel_tasks"),
            ("session.transfers", "cache_transfers"),
            ("session.invalidations", "cache_invalidations"),
            ("session.warm_state_shared_hits", "warm_state_shared_hits"),
        ] {
            self.put(name, get(key));
        }
        let probes = get("cache_hits")
            .zip(get("cache_misses"))
            .map(|(h, m)| h + m);
        self.put("cache.probes", probes);
        let per_probe = get("arena_resets")
            .zip(probes)
            .and_then(|(r, p)| (p > 0.0).then(|| r / p));
        self.put("cache.abstract_runs_per_probe", per_probe);
    }
}

/// Batches the process-wide pool has dispatched so far.
pub fn pool_batches() -> Option<f64> {
    util::debug_counters(&format!("{:?}", pool_stats()))
        .get("batches_dispatched")
        .copied()
}

/// Median wall time in ms of three loads of `bench`.
pub fn load_ms(bench: antidote_data::Benchmark) -> f64 {
    let t: Vec<f64> = (0..3)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(bench.load(Scale::Small, 0));
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    util::median(&t).expect("three samples")
}

/// The threshold test a kept `bestSplit#` candidate filters on.
fn split_test(p: &AbsPredicate) -> (usize, f64) {
    match p {
        AbsPredicate::Concrete(p) => (p.feature, p.threshold),
        AbsPredicate::Symbolic { feature, lo, .. } => (*feature, *lo),
    }
}

/// The per-probe layer calls: the concrete trace of each point, then at
/// the root `⟨T, n⟩` of each probe `bestSplit#`, `filter#` on both sides
/// of its first kept predicate, their join and `⊑`, and the whole
/// abstract run.
pub fn probe_calls(
    rec: &mut Recorder,
    ds: &Dataset,
    xs: &[Vec<f64>],
    depth: usize,
    cert: &Certifier,
    ns: &[usize],
    threads: usize,
) {
    let full = Subset::full(ds);
    for (i, x) in xs.iter().enumerate() {
        let req = i as u64;
        let probe = rec.begin("probe", None, req);
        rec.time("tree.dtrace", probe, req, || {
            std::hint::black_box(dtrace_recorded(ds, &full, x, depth));
        });
        for &n in ns {
            let root = AbstractSet::new(full.clone(), n);
            let split = rec.time("score.best_split_abs", probe, req, || {
                best_split_abs(ds, &root, CprobTransformer::Optimal)
            });
            if let Some(p) = split.preds.first() {
                let (f, tau) = split_test(p);
                let l = rec.time("domains.filter", probe, req, || {
                    root.restrict_cmp(ds, f, tau, ThresholdCmp::Le)
                });
                let r = rec.time("domains.filter", probe, req, || {
                    root.restrict_cmp(ds, f, tau, ThresholdCmp::Gt)
                });
                rec.time("domains.join", probe, req, || {
                    std::hint::black_box(l.join(ds, &r));
                });
                rec.time("domains.le", probe, req, || {
                    std::hint::black_box(l.le(&root));
                });
            }
            let ctx = ExecContext::new().threads(threads);
            rec.time("learner.certify_in", probe, req, || {
                std::hint::black_box(cert.certify_in(x, n, &ctx));
            });
        }
        rec.end(probe);
    }
}

/// Runs `calls` untraced and traced, twice each, in the order off, on,
/// on, off so neither side always runs warmer. Returns the last traced
/// pass's spans and result, and the tracing overhead as a share of the
/// untraced time.
pub fn with_overhead<T>(mut calls: impl FnMut(&mut Recorder) -> T) -> (Recorder, T, f64) {
    let (mut off, mut on) = (0.0, 0.0);
    let mut kept = None;
    for traced in [false, true, true, false] {
        let mut rec = Recorder::new(traced);
        let t = Instant::now();
        let out = calls(&mut rec);
        let took = t.elapsed().as_secs_f64();
        if traced {
            on += took;
            kept = Some((rec, out));
        } else {
            off += took;
        }
    }
    let (rec, out) = kept.expect("two traced passes");
    (rec, out, (on - off) / off)
}

/// Sets the span-derived metrics shared by both ladders and the serve
/// workload's per-point calls.
pub fn probe_metrics(layers: &mut Layers, rec: &Recorder) {
    layers.p50("tree.dtrace_us_p50", rec, "tree.dtrace", 1e6);
    layers.put(
        "tree.dtrace_calls",
        Some(rec.durations("tree.dtrace").len() as f64),
    );
    layers.p50(
        "score.best_split_abs_us_p50",
        rec,
        "score.best_split_abs",
        1e6,
    );
    layers.p50("domains.filter_us_p50", rec, "domains.filter", 1e6);
    layers.p50("domains.join_us_p50", rec, "domains.join", 1e6);
    layers.p50("domains.le_us_p50", rec, "domains.le", 1e6);
    layers.p50(
        "learner.abstract_run_ms_p50",
        rec,
        "learner.certify_in",
        1e3,
    );
    let runs = rec.durations("learner.certify_in");
    layers.put(
        "learner.abstract_run_ms_max",
        util::max(&runs).map(|v| v * 1e3),
    );
}

/// Median candidate count of the root `bestSplit#` over `xs`' probes
/// (the candidate width; independent of the point at the root).
pub fn candidates(ds: &Dataset, ns: &[usize]) -> f64 {
    let c: Vec<f64> = ns
        .iter()
        .map(|&n| {
            let root = AbstractSet::new(Subset::full(ds), n);
            scored_candidates(ds, &root, CprobTransformer::Optimal).len() as f64
        })
        .collect();
    util::median(&c).unwrap_or(0.0)
}

/// Budgets probed per point in the traced per-probe calls.
const TRACE_NS: [usize; 2] = [1, 2];

/// Traced ladder: the whole ladder through `sweep_in` for the layer
/// counters, then the per-probe calls for the layer timings.
pub fn ladder(layers: &mut Layers, lad: &Ladder, train: &Dataset, xs: &[Vec<f64>], threads: usize) {
    let mut rec = Recorder::new(true);
    let load = rec.begin("data.load", None, 0);
    std::hint::black_box(lad.bench.load(Scale::Small, 0));
    rec.end(load);
    layers.put("data.load_ms", Some(load_ms(lad.bench)));
    let cfg = SweepConfig {
        depth: lad.depth,
        domain: lad.domain,
        timeout: None,
        threads,
        probe_budget: lad.probe_budget,
        ..SweepConfig::default()
    };
    let ctx = ExecContext::new().threads(threads);
    let before = pool_batches();
    rec.time("sweep.sweep_in", None, 0, || {
        std::hint::black_box(sweep_in(train, xs, &cfg, &ctx));
    });
    let after = pool_batches();
    layers.counters(&format!("{:?}", ctx.metrics().snapshot()));
    layers.put("engine.pool_batches", after.zip(before).map(|(a, b)| a - b));
    let cert = Certifier::new(train).depth(lad.depth).domain(lad.domain);
    let (probes, (), overhead) =
        with_overhead(|r| probe_calls(r, train, xs, lad.depth, &cert, &TRACE_NS, threads));
    probe_metrics(layers, &probes);
    layers.put("score.candidates", Some(candidates(train, &TRACE_NS)));
    layers.put("trace.overhead_frac", Some(overhead));
    rec.absorb(probes);
    layers.recorder = Some(rec);
}
