//! The `serve-mixed` workload: one seeded trace of mixed requests, fed to
//! fresh `antidote serve` processes. Each server starts cold. Most read
//! the whole trace from a file while this process only waits, which
//! times the trace at saturation, cold misses included, spawn to exit
//! (`wall_s`); others read just the loads, for `setup_s`. Two get the
//! trace open-loop over a pipe at a fixed offered rate, from this
//! process and a reader thread that timestamps responses, which times
//! each request from its due time (latency, printed).
//!
//! No recorded trace of this service exists, so the traffic parameters
//! below are assumptions of this benchmark, not measurements: the Zipf
//! exponent, the tenant weights, the pool size, the request count, the
//! offered rate, and the number and places of sweeps and writes.

use crate::calib::Calib;
use crate::check;
use crate::trace::{self, Layers, Recorder};
use crate::util;
use crate::Report;
use antidote_cli::service::{serve_loop_pipelined, Service};
use antidote_core::{DomainKind, ExecContext, Session, SessionConfig, WarmStateIndex};
use antidote_data::{Benchmark, Dataset, DatasetDelta, Scale};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};
use std::fs::File;
use std::io::{Read, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

pub const NAME: &str = "serve-mixed";

/// Requests in the trace body. Chosen so that about 90% of them are
/// answered from session state, the share measured on the multi-tenant
/// Disjuncts trace this workload stands for; the rest are cold misses.
const BODY: usize = 6_000;
/// Offered rate of the open-loop servers (assumed), well below the
/// saturated rate of the same trace: the cold start still queues.
const RATE_RPS: f64 = 2_500.0;
/// Servers per run fed the trace open-loop.
const OPEN_SERVERS: usize = 2;
/// Servers per run fed only the loads and `shutdown`, for `setup_s`.
const SETUP_SPAWNS: usize = 10;
/// Fewest servers per run fed the whole trace from a file.
const MIN_WHOLE_SERVERS: usize = 5;
/// Latency limit of the SLO.
const SLO_MS: f64 = 25.0;
/// Pure-removal deltas in the trace.
const REMOVALS: usize = 8;
/// Sweep ops in the trace, on "mammo", which takes no deltas, each over
/// its own cold test points past the pool. They are the heavy requests
/// that the light ones queue behind, at fixed places.
const SWEEPS: usize = 8;
const SWEEP_POINTS: usize = 15;
const SWEEP_MAX_N: usize = 16;
/// Budgets asked by `certify` (n ∈ {1, 2, 4, 8}, uniform).
const NS: [usize; 4] = [1, 2, 4, 8];
/// Test points each tenant is asked about, by falling popularity.
const POOL_POINTS: usize = 40;
/// Zipf exponent of point popularity (assumed).
const ZIPF_S: f64 = 1.1;
/// Grace the first server of a run gets to exit after answering
/// `shutdown` with stdin still open.
const GRACE: Duration = Duration::from_millis(500);
/// Longest a server fed from a file may run before it is killed; the
/// whole trace takes under a second.
const SERVER_LIMIT: Duration = Duration::from_secs(60);
/// How often the peak memory of a server fed from a file is read.
const POLL: Duration = Duration::from_millis(10);

/// One tenant: a handle with its own session config.
struct Tenant {
    handle: &'static str,
    bench: Benchmark,
    depth: usize,
    weight: f64,
    train: Dataset,
    /// Test points; the first `cdf.len()` are the pool, most popular
    /// first.
    test: Vec<Vec<f64>>,
    /// Zipf cumulative weights over the pool.
    cdf: Vec<f64>,
}

/// The four tenants and their request weights (assumed: 35/25/20/20).
fn tenants() -> Vec<Tenant> {
    [
        ("mammo", Benchmark::Mammographic, 2, 0.35),
        // Co-tenant on the identical snapshot and config: it joins the
        // warm unit of "mammo" until its first delta.
        ("mammo-co", Benchmark::Mammographic, 2, 0.25),
        ("wdbc", Benchmark::Wdbc, 1, 0.2),
        ("iris", Benchmark::Iris, 2, 0.2),
    ]
    .into_iter()
    .map(|(handle, bench, depth, weight)| {
        let (train, test) = bench.load(Scale::Small, 0);
        let k = POOL_POINTS.min(test.len());
        let test: Vec<Vec<f64>> = (0..test.len() as u32).map(|r| test.row_values(r)).collect();
        let mut acc = 0.0;
        let cdf = (0..k)
            .map(|r| {
                acc += 1.0 / ((r + 1) as f64).powf(ZIPF_S);
                acc
            })
            .collect();
        Tenant {
            handle,
            bench,
            depth,
            weight,
            train,
            test,
            cdf,
        }
    })
    .collect()
}

impl Tenant {
    fn zipf_point(&self, rng: &mut StdRng) -> usize {
        let total = *self.cdf.last().expect("non-empty pool");
        let u = rng.random::<f64>() * total;
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

fn point_json(x: &[f64]) -> String {
    let v: Vec<String> = x.iter().map(|v| format!("{v:?}")).collect();
    format!("[{}]", v.join(","))
}

/// What a request line asks, for pairing with its response.
enum Kind {
    Load,
    Certify {
        t: usize,
        point: usize,
        n: usize,
    },
    /// A ladder over test points `first..first + SWEEP_POINTS`.
    Sweep {
        t: usize,
        first: usize,
    },
    Delta {
        t: usize,
        delta: DatasetDelta,
    },
    Metrics,
    Shutdown,
}

struct Req {
    line: String,
    kind: Kind,
}

/// A certify of a Zipf-popular point of a tenant drawn by weight, at a
/// uniform budget.
fn draw(ts: &[Tenant], rng: &mut StdRng) -> Req {
    let total: f64 = ts.iter().map(|t| t.weight).sum();
    let mut u = rng.random::<f64>() * total;
    let mut t = ts.len() - 1;
    for (i, tenant) in ts.iter().enumerate() {
        if u < tenant.weight {
            t = i;
            break;
        }
        u -= tenant.weight;
    }
    let point = ts[t].zipf_point(rng);
    let n = NS[rng.random_range(0..NS.len())];
    Req {
        line: format!(
            "{{\"op\":\"certify\",\"handle\":\"{}\",\"x\":{},\"n\":{n}}}",
            ts[t].handle,
            point_json(&ts[t].test[point])
        ),
        kind: Kind::Certify { t, point, n },
    }
}

/// One run's requests, identical for every server of the run.
struct Trace {
    reqs: Vec<Req>,
    loads: Range<usize>,
    /// The timed requests, after the loads.
    body: Range<usize>,
}

/// What fills a reserved place of the body.
enum Slot {
    Remove,
    Flip,
    Sweep,
}

/// The body: Zipf-popular certifies, a few sweeps, and pure-removal
/// deltas then one label flip on the mammo co-tenant, where re-deriving
/// what a write invalidates is cheap. The writes and sweeps and the rows
/// they touch are fixed; the seed picks every certify. So each run has
/// the same writes and sweeps, and their cost is comparable between
/// seeds.
fn body(ts: &[Tenant], n: usize, rng: &mut StdRng) -> Vec<Req> {
    let mut slots: BTreeMap<usize, Slot> = BTreeMap::new();
    for k in 0..REMOVALS {
        slots.insert(n / 10 + k * (n * 8 / 10) / REMOVALS, Slot::Remove);
    }
    slots.insert(n * 17 / 20 + 1, Slot::Flip);
    for k in 0..SWEEPS {
        slots.insert((2 * k + 1) * n / (2 * SWEEPS) + 2, Slot::Sweep);
    }
    let co = 1;
    let mut victims: Vec<usize> = (0..ts[co].train.len()).collect();
    victims.shuffle(&mut StdRng::seed_from_u64(0));
    let mut victims = victims.into_iter();
    let mut sweeps = 0;
    (0..n)
        .map(|k| match slots.get(&k) {
            None => draw(ts, rng),
            Some(Slot::Remove) => {
                let row = victims.next().expect("more rows than writes") as u32;
                let mut delta = DatasetDelta::new();
                delta.remove(row);
                Req {
                    line: format!(
                        "{{\"op\":\"delta\",\"handle\":\"{}\",\"deltas\":[{{\"remove\":[{row}]}}]}}",
                        ts[co].handle
                    ),
                    kind: Kind::Delta { t: co, delta },
                }
            }
            Some(Slot::Flip) => {
                let ds = &ts[co].train;
                let row = victims.next().expect("more rows than writes") as u32;
                let label = (ds.label(row) as usize + 1) % ds.n_classes();
                let mut delta = DatasetDelta::new();
                delta.flip_label(row, label as _);
                Req {
                    line: format!(
                        "{{\"op\":\"delta\",\"handle\":\"{}\",\"deltas\":[{{\"flip\":[{{\"row\":{row},\"label\":{label}}}]}}]}}",
                        ts[co].handle
                    ),
                    kind: Kind::Delta { t: co, delta },
                }
            }
            Some(Slot::Sweep) => {
                let t = 0;
                let first = ts[t].cdf.len() + sweeps * SWEEP_POINTS;
                sweeps += 1;
                let pts: Vec<String> = ts[t].test[first..first + SWEEP_POINTS]
                    .iter()
                    .map(|x| point_json(x))
                    .collect();
                Req {
                    line: format!(
                        "{{\"op\":\"sweep\",\"handle\":\"{}\",\"points\":[{}],\"max_n\":{SWEEP_MAX_N}}}",
                        ts[t].handle,
                        pts.join(",")
                    ),
                    kind: Kind::Sweep { t, first },
                }
            }
        })
        .collect()
}

fn build_trace(ts: &[Tenant], rng: &mut StdRng) -> Trace {
    let mut reqs: Vec<Req> = ts
        .iter()
        .map(|t| Req {
            line: format!(
                "{{\"op\":\"load\",\"handle\":\"{}\",\"dataset\":\"{}\",\"depth\":{},\"domain\":\"disjuncts\"}}",
                t.handle,
                t.bench.id(),
                t.depth
            ),
            kind: Kind::Load,
        })
        .collect();
    let loads = 0..reqs.len();
    reqs.extend(body(ts, BODY, rng));
    let body = loads.end..reqs.len();
    for (line, kind) in [
        ("{\"op\":\"metrics\"}", Kind::Metrics),
        ("{\"op\":\"shutdown\"}", Kind::Shutdown),
    ] {
        reqs.push(Req {
            line: line.to_string(),
            kind,
        });
    }
    Trace { reqs, loads, body }
}

/// A running `antidote serve` with its response reader thread. The
/// reader only timestamps raw chunks, so the load generator spends little
/// CPU beside the server; lines are split after the server is done.
struct Conn {
    child: Child,
    stdin: Option<ChildStdin>,
    rx: Receiver<(Instant, Vec<u8>)>,
    reader: Option<JoinHandle<()>>,
    raw: Vec<u8>,
    /// Arrival time of each complete response line in `raw`.
    times: Vec<Instant>,
    /// Lines handed out by `recv` so far.
    consumed: usize,
}

impl Conn {
    fn open(bin: &Path, threads: usize) -> Result<Conn, String> {
        let mut child = Command::new(bin)
            .args(["serve", "--threads", &threads.to_string()])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let mut stdout = child.stdout.take().expect("stdout is piped");
        let stdin = child.stdin.take();
        let (tx, rx) = mpsc::channel();
        let reader = std::thread::spawn(move || loop {
            let mut buf = vec![0u8; 1 << 16];
            match stdout.read(&mut buf) {
                Ok(0) | Err(_) => break,
                Ok(n) => {
                    buf.truncate(n);
                    if tx.send((Instant::now(), buf)).is_err() {
                        break;
                    }
                }
            }
        });
        Ok(Conn {
            child,
            stdin,
            rx,
            reader: Some(reader),
            raw: Vec::new(),
            times: Vec::new(),
            consumed: 0,
        })
    }

    fn send(&mut self, bytes: &[u8]) -> Result<Instant, String> {
        let stdin = self.stdin.as_mut().ok_or("stdin already closed")?;
        let t = Instant::now();
        stdin
            .write_all(bytes)
            .map_err(|e| format!("writing to server: {e}"))?;
        Ok(t)
    }

    /// Waits for `n` more response lines (each chunk within a minute);
    /// returns the arrival time of the last.
    fn recv(&mut self, n: usize) -> Result<Instant, String> {
        let target = self.consumed + n;
        while self.times.len() < target {
            let (t, chunk) = self
                .rx
                .recv_timeout(Duration::from_secs(60))
                .map_err(|e| format!("awaiting a response: {e}"))?;
            let lines = chunk.iter().filter(|&&b| b == b'\n').count();
            self.times.extend(std::iter::repeat_n(t, lines));
            self.raw.extend_from_slice(&chunk);
        }
        self.consumed = target;
        Ok(self.times[target - 1])
    }

    /// Every response line so far, with its arrival time.
    fn lines(&self) -> Vec<(Instant, String)> {
        self.raw
            .split(|&b| b == b'\n')
            .zip(&self.times)
            .map(|(l, &t)| (t, String::from_utf8_lossy(l).into_owned()))
            .collect()
    }

    /// Whether the server exits within `wait`.
    fn exits_within(&mut self, wait: Duration) -> bool {
        let t = Instant::now();
        while t.elapsed() < wait {
            if let Ok(Some(_)) = self.child.try_wait() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        false
    }
}

impl Drop for Conn {
    /// Ends the server on every path: stdin is closed, and a server that
    /// EOF does not end within 20 s is killed. Never panics.
    fn drop(&mut self) {
        drop(self.stdin.take());
        if !self.exits_within(Duration::from_secs(20)) {
            eprintln!("server ignores EOF; killing it");
            let _ = self.child.kill();
        }
        match self.child.wait() {
            Ok(s) if !s.success() => eprintln!("server exited with {s}"),
            Err(e) => eprintln!("waiting for the server: {e}"),
            Ok(_) => {}
        }
        if let Some(r) = self.reader.take() {
            if r.join().is_err() {
                eprintln!("response reader thread panicked");
            }
        }
    }
}

fn sleep_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        std::thread::sleep(due - now);
    }
}

/// What one open-loop server answered, and when.
struct Served {
    /// Due time of each request: its open-loop slot, else the time it
    /// was written.
    due: Vec<Instant>,
    resps: Vec<(Instant, String)>,
    lag_ms_max: f64,
    /// Whether the server was still running `GRACE` after answering
    /// `shutdown` with stdin open (asked of one server per run).
    hung: Option<bool>,
}

impl Served {
    fn latency_ms(&self, k: usize) -> f64 {
        util::secs(self.due[k], self.resps[k].0) * 1e3
    }
}

/// Sends `range` of the trace at once and waits for its responses.
fn send_block(
    conn: &mut Conn,
    tr: &Trace,
    range: Range<usize>,
    due: &mut Vec<Instant>,
) -> Result<(), String> {
    let bytes: String = tr.reqs[range.clone()]
        .iter()
        .map(|r| format!("{}\n", r.line))
        .collect();
    let t = conn.send(bytes.as_bytes())?;
    due.extend(range.clone().map(|_| t));
    conn.recv(range.len())?;
    Ok(())
}

/// Feeds the whole trace to one fresh server open-loop: each body
/// request leaves at its slot of the fixed offered rate, whatever the
/// state of earlier ones.
fn serve_open(bin: &Path, threads: usize, tr: &Trace, ask_exit: bool) -> Result<Served, String> {
    let mut conn = Conn::open(bin, threads)?;
    let mut due = Vec::new();
    send_block(&mut conn, tr, tr.loads.clone(), &mut due)?;
    let mut lag_ms_max: f64 = 0.0;
    let start = Instant::now() + Duration::from_millis(5);
    for (k, r) in tr.reqs[tr.body.clone()].iter().enumerate() {
        let slot = start + Duration::from_secs_f64(k as f64 / RATE_RPS);
        sleep_until(slot);
        let sent = conn.send(format!("{}\n", r.line).as_bytes())?;
        lag_ms_max = lag_ms_max.max(util::secs(slot, sent) * 1e3);
        due.push(slot);
    }
    conn.recv(tr.body.len())?;
    for k in tr.body.end..tr.reqs.len() {
        send_block(&mut conn, tr, k..k + 1, &mut due)?;
    }
    let resps = conn.lines();
    // `shutdown` is answered. Whether the server also exits with stdin
    // still open is recorded, not failed: the protocol ends a session at
    // EOF, which dropping `conn` sends.
    let hung = ask_exit.then(|| !conn.exits_within(GRACE));
    drop(conn);
    Ok(Served {
        due,
        resps,
        lag_ms_max,
        hung,
    })
}

/// What one server fed from a file did.
struct FileRun {
    /// Spawn to exit.
    secs: f64,
    answers: Vec<String>,
    /// Its last `VmHWM` reading, taken every `POLL` while it ran.
    peak_rss_mb: Option<f64>,
}

/// Runs one fresh server on requests read from the file `input`, its
/// answers going to the file `output`, and waits for it to exit. A
/// watchdog thread reads the server's peak memory every `POLL` and kills
/// it after `SERVER_LIMIT`; otherwise the benchmark only waits, so none
/// of its threads competes with the server.
fn serve_file(bin: &Path, threads: usize, input: &Path, output: &Path) -> Result<FileRun, String> {
    let open = |p: &Path, f: std::io::Result<File>| f.map_err(|e| format!("{}: {e}", p.display()));
    let stdin = open(input, File::open(input))?;
    let stdout = open(output, File::create(output))?;
    let t = Instant::now();
    let mut child = Command::new(bin)
        .args(["serve", "--threads", &threads.to_string()])
        .stdin(stdin)
        .stdout(stdout)
        .spawn()
        .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
    let pid = child.id();
    let (exited, watch) = mpsc::channel::<()>();
    let (status, secs, peak_rss_mb) = std::thread::scope(|s| {
        let watchdog = s.spawn(move || {
            let mut peak = None;
            let mut killed = false;
            while let Err(RecvTimeoutError::Timeout) = watch.recv_timeout(POLL) {
                // VmHWM only grows, so the last reading is the peak; a
                // server that has exited no longer reports it.
                peak = util::vm_hwm_mb(pid).or(peak);
                if !killed && t.elapsed() > SERVER_LIMIT {
                    eprintln!("server still running after {SERVER_LIMIT:?}; killing it");
                    let _ = Command::new("kill")
                        .args(["-KILL", &pid.to_string()])
                        .status();
                    killed = true;
                }
            }
            peak
        });
        let status = child.wait();
        let secs = t.elapsed().as_secs_f64();
        drop(exited);
        let peak = watchdog.join().expect("watchdog thread panicked");
        (status, secs, peak)
    });
    let status = status.map_err(|e| format!("waiting for the server: {e}"))?;
    if !status.success() {
        return Err(format!("server exited with {status}"));
    }
    let text = std::fs::read_to_string(output).map_err(|e| format!("{}: {e}", output.display()))?;
    Ok(FileRun {
        secs,
        answers: text.lines().map(str::to_string).collect(),
        peak_rss_mb,
    })
}

/// Datasets of each tenant by epoch, rebuilt from the deltas sent.
fn epochs(ts: &[Tenant], tr: &Trace) -> Vec<Vec<Dataset>> {
    let mut out: Vec<Vec<Dataset>> = ts.iter().map(|t| vec![t.train.clone()]).collect();
    for r in &tr.reqs {
        if let Kind::Delta { t, delta } = &r.kind {
            let cur = out[*t].last().expect("epoch 0 present");
            match cur.apply(delta) {
                Ok(next) => out[*t].push(next),
                Err(e) => eprintln!("delta not applicable in-process: {e}"),
            }
        }
    }
    out
}

/// Replays the trace in-process, one request at a time through
/// `Service::handle_line`, timing each call into `rec`.
fn replay(rec: &mut Recorder, tr: &Trace, threads: usize) -> (Vec<String>, Service) {
    let mut svc = Service::new(threads);
    let out = tr
        .reqs
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let name = match r.kind {
                Kind::Load => "service.handle_line.load",
                Kind::Certify { .. } => "service.handle_line.certify",
                Kind::Sweep { .. } => "service.handle_line.sweep",
                Kind::Delta { .. } => "service.handle_line.delta",
                Kind::Metrics | Kind::Shutdown => "service.handle_line.other",
            };
            rec.time(name, None, i as u64, || svc.handle_line(&r.line).0)
        })
        .collect();
    (out, svc)
}

/// Replays the trace in-process through the default pipelined serve
/// loop: the loads, then the whole body in one call, timed into `rec`.
/// Returns the answers and the loop's time on the body in ms.
fn replay_pipelined(rec: &mut Recorder, tr: &Trace, threads: usize) -> (Vec<String>, f64) {
    let mut svc = Service::new(threads);
    let mut out: Vec<String> = tr.reqs[tr.loads.clone()]
        .iter()
        .map(|r| svc.handle_line(&r.line).0)
        .collect();
    let input: String = tr.reqs[tr.body.start..]
        .iter()
        .map(|r| format!("{}\n", r.line))
        .collect();
    let mut buf = Vec::new();
    let id = rec.begin("serve_loop.pipelined", None, tr.body.start as u64);
    let t = Instant::now();
    serve_loop_pipelined(&mut svc, input.as_bytes(), &mut buf).expect("in-memory serve loop");
    let ms = t.elapsed().as_secs_f64() * 1e3;
    rec.end(id);
    out.extend(String::from_utf8_lossy(&buf).lines().map(str::to_string));
    (out, ms)
}

/// Checks a transcript against the expected answers, byte for byte. The
/// `metrics` line is work counters, not an answer: with more than one
/// thread, bestSplit# memo hits depend on which task fills the shared
/// memo first, so it is reported when it differs, not failed.
fn compare(rep: &mut Report, who: &str, got: &[String], tr: &Trace, expected: &[String]) {
    rep.checks += 1;
    if got.len() != expected.len() {
        rep.mismatch(&format!(
            "{who}: {} responses, replay gave {}",
            got.len(),
            expected.len()
        ));
        return;
    }
    for (k, r) in tr.reqs.iter().enumerate() {
        if got[k] == expected[k] {
            continue;
        }
        let what = format!("{who} request {k}: {} vs replay {}", got[k], expected[k]);
        if matches!(r.kind, Kind::Metrics) {
            eprintln!("# counters differ from the in-process replay: {what}");
        } else {
            rep.mismatch(&format!("answer differs, {what}"));
            return;
        }
    }
}

/// Writes the run's inputs to `dir`: the whole trace, and the loads
/// with `shutdown` alone. Returns their paths and the path for answers.
fn write_inputs(dir: &Path, tr: &Trace) -> Result<[PathBuf; 3], String> {
    let err = |e: std::io::Error| format!("{}: {e}", dir.display());
    std::fs::create_dir_all(dir).map_err(err)?;
    let lines = |rs: &[Req]| -> String { rs.iter().map(|r| format!("{}\n", r.line)).collect() };
    let whole = dir.join("trace.jsonl");
    let loads = dir.join("loads.jsonl");
    std::fs::write(&whole, lines(&tr.reqs)).map_err(err)?;
    let shutdown = &tr.reqs[tr.reqs.len() - 1..];
    std::fs::write(&loads, lines(&tr.reqs[tr.loads.clone()]) + &lines(shutdown)).map_err(err)?;
    Ok([whole, loads, dir.join("answers.jsonl")])
}

/// Whether a response line refuses its request.
fn refused(line: &str) -> bool {
    util::field(line, "ok").as_deref() != Some("true")
}

pub fn run(
    bin: &Path,
    work: &Path,
    threads: usize,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Report {
    let mut rep = Report::default();
    let mut rng = StdRng::seed_from_u64(seed);
    let ts = tenants();
    let tr = build_trace(&ts, &mut rng);
    // The open-loop servers first, then the set-up servers, then servers
    // fed the whole trace until the next one would overrun `seconds` (a
    // traced run needs only the fewest). Timed samples are numbered in
    // that order, set-up first.
    let mut cal = Calib::new();
    let start = Instant::now();
    let mut served: Vec<Served> = Vec::new();
    let (mut setups, mut walls, mut rss, mut answers) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let driven = (|| -> Result<(), String> {
        let [whole, loads, out] = write_inputs(&work.join("e2ebench-serve"), &tr)?;
        for k in 0..OPEN_SERVERS {
            served.push(serve_open(bin, threads, &tr, k == 0)?);
        }
        for k in 0..SETUP_SPAWNS {
            let r = cal.sample(1, || serve_file(bin, threads, &loads, &out))?;
            setups.push((k, r.secs));
            answers.push(r.answers);
        }
        let mut n = 0;
        loop {
            let t = Instant::now();
            let r = cal.sample(1, || serve_file(bin, threads, &whole, &out))?;
            walls.push((SETUP_SPAWNS + n, r.secs));
            rss.extend(r.peak_rss_mb);
            answers.push(r.answers);
            n += 1;
            let per = util::secs(t, Instant::now());
            if n >= MIN_WHOLE_SERVERS
                && (traced || util::secs(start, Instant::now()) + per > seconds)
            {
                return Ok(());
            }
        }
    })();
    cal.finish(1);
    rep.attempted += (served.len() * tr.reqs.len()) as u64;
    rep.attempted += answers.iter().map(|a| a.len() as u64).sum::<u64>();
    if let Err(e) = driven {
        rep.attempted += 1;
        rep.fail(&e);
        rep.correct = false;
        return rep;
    }

    // ---- end-to-end metrics ------------------------------------------
    let open_lat: Vec<Vec<f64>> = served
        .iter()
        .map(|s| tr.body.clone().map(|k| s.latency_ms(k)).collect())
        .collect();
    let mut delta_lat = Vec::new();
    let mut slo_miss = 0;
    let lines = served
        .iter()
        .flat_map(|s| s.resps.iter().map(|(_, l)| l))
        .chain(answers.iter().flatten());
    for line in lines {
        if refused(line) {
            rep.fail(&format!("request refused: {line}"));
        }
    }
    for s in &served {
        for k in tr.body.clone() {
            slo_miss += (refused(&s.resps[k].1) || s.latency_ms(k) > SLO_MS) as usize;
            if matches!(tr.reqs[k].kind, Kind::Delta { .. }) {
                delta_lat.push(s.latency_ms(k));
            }
        }
    }
    let first = &served[0];
    let (mut sweep_n, mut sweep_pts) = (0.0, 0usize);
    let (mut certs, mut robust, mut writes) = (0usize, 0usize, 0usize);
    for (r, (_, resp)) in tr.reqs.iter().zip(&first.resps) {
        match r.kind {
            Kind::Sweep { .. } => {
                if let Some(m) = util::certified_n_mean(&util::rungs(resp), SWEEP_POINTS) {
                    sweep_n += m * SWEEP_POINTS as f64;
                    sweep_pts += SWEEP_POINTS;
                }
            }
            Kind::Certify { .. } => {
                certs += 1;
                robust += (util::field(resp, "verdict").as_deref() == Some("robust")) as usize;
            }
            Kind::Delta { .. } => writes += 1,
            _ => {}
        }
    }
    let lag_ms_max = served.iter().map(|s| s.lag_ms_max).fold(0.0, f64::max);
    let open_n = tr.body.len() * served.len();
    let raw_walls: Vec<f64> = walls.iter().map(|w| w.1).collect();
    eprintln!("# whole-trace walls (s): {raw_walls:?}");
    for (i, l) in open_lat.iter().enumerate() {
        eprintln!(
            "# open-loop server {i}: latency p50 {:.4} ms, p99 {:.3} ms",
            util::median(l).unwrap_or(0.0),
            util::quantile(l, 0.99).unwrap_or(0.0),
        );
    }
    rep.samples = walls.len();
    cal.report(&mut rep, &setups, &walls);
    rep.put("peak_rss_mb", util::median(&rss));
    rep.put(
        "certified_n_mean",
        (sweep_pts > 0).then(|| sweep_n / sweep_pts as f64),
    );
    rep.extra(
        "saturated_rps",
        "1/s",
        util::median(&raw_walls).map(|w| tr.body.len() as f64 / w),
    );
    rep.extra(
        "latency_ms_p50",
        "ms",
        util::median(
            &open_lat
                .iter()
                .filter_map(|l| util::median(l))
                .collect::<Vec<_>>(),
        ),
    );
    rep.extra(
        "latency_ms_p99",
        "ms",
        util::quantile(&open_lat.concat(), 0.99),
    );
    rep.extra("offered_rps", "1/s", Some(RATE_RPS));
    rep.extra(
        "slo_miss_frac",
        "frac",
        Some(slo_miss as f64 / open_n.max(1) as f64),
    );
    rep.extra("delta_ms_p50", "ms", util::median(&delta_lat));
    rep.extra(
        "robust_frac",
        "frac",
        Some(robust as f64 / certs.max(1) as f64),
    );
    rep.extra("gen.lag_ms_max", "ms", Some(lag_ms_max));
    rep.extra(
        "write_frac",
        "frac",
        Some(writes as f64 / tr.body.len() as f64),
    );
    let hung: Vec<bool> = served.iter().filter_map(|s| s.hung).collect();
    rep.extra(
        "shutdown_hangs",
        "count",
        Some(hung.iter().filter(|&&h| h).count() as f64),
    );
    if hung.iter().any(|&h| h) {
        eprintln!(
            "# a server was still running {GRACE:?} after answering shutdown with stdin open"
        );
    }
    let metrics_line = tr
        .reqs
        .iter()
        .position(|r| matches!(r.kind, Kind::Metrics))
        .map(|k| first.resps[k].1.clone())
        .unwrap_or_default();
    let m: BTreeMap<String, f64> = util::scalar_fields(&metrics_line)
        .into_iter()
        .filter_map(|(k, v)| Some((k, v.parse().ok()?)))
        .collect();
    let served_n = m.get("requests_served").copied();
    let per_req = |v: Option<f64>| v.zip(served_n).and_then(|(v, s)| (s > 0.0).then(|| v / s));
    rep.extra(
        "served_from_state_frac",
        "frac",
        per_req(m.get("cross_request_cache_hits").copied()),
    );
    let runs = match (
        m.get("certify_calls"),
        m.get("cache_hits"),
        m.get("cache_shortcircuits"),
    ) {
        (Some(c), Some(h), Some(sc)) => Some(c + h - sc),
        _ => None,
    };
    rep.extra("abstract_runs_per_request", "ratio", per_req(runs));

    // ---- correctness -------------------------------------------------
    check_labels_and_proofs(&mut rep, &ts, &tr, first, threads, &mut rng);
    let (mut rec, (expected, svc), overhead) = if traced {
        trace::with_overhead(|r| replay(r, &tr, threads))
    } else {
        let mut off = Recorder::new(false);
        let out = replay(&mut off, &tr, threads);
        (off, out, 0.0)
    };
    for (i, s) in served.iter().enumerate() {
        let got: Vec<String> = s.resps.iter().map(|(_, l)| l.clone()).collect();
        compare(
            &mut rep,
            &format!("open-loop server {i}"),
            &got,
            &tr,
            &expected,
        );
    }
    for (i, got) in answers[SETUP_SPAWNS..].iter().enumerate() {
        compare(
            &mut rep,
            &format!("whole-trace server {i}"),
            got,
            &tr,
            &expected,
        );
    }
    let loads_expected: Vec<String> = expected[tr.loads.clone()]
        .iter()
        .chain(expected.last())
        .cloned()
        .collect();
    for got in &answers[..SETUP_SPAWNS] {
        rep.checks += 1;
        if *got != loads_expected {
            rep.mismatch(&format!("set-up server answered {got:?}"));
        }
    }

    if traced {
        let mut burst_ms = Vec::new();
        for _ in 0..3 {
            let (got, ms) = replay_pipelined(&mut rec, &tr, threads);
            compare(&mut rep, "pipelined replay", &got, &tr, &expected);
            burst_ms.push(ms);
        }
        let mut layers = Layers::new();
        layers.put("trace.overhead_frac", Some(overhead));
        serve_layers(
            &mut layers,
            &ts,
            &tr,
            &mut rec,
            &burst_ms,
            &svc,
            threads,
            &open_lat.concat(),
        );
        layers.put("gen.lag_ms_max", Some(lag_ms_max));
        let proxy = layers.get("learner.peak_bytes_proxy");
        if let (Some(p), Some(r)) = (proxy, util::median(&rss)) {
            if p > 0.0 {
                layers.put("mem.rss_per_proxy", Some(r / (p / 1e6)));
            }
        }
        layers.recorder = Some(rec);
        rep.layers = Some(layers);
    }
    rep
}

/// Labels against the concrete trace at each response's epoch, sampled
/// n = 1 proofs against retraining, sampled proofs against the attack
/// (wdbc and mammo only).
fn check_labels_and_proofs(
    rep: &mut Report,
    ts: &[Tenant],
    tr: &Trace,
    s: &Served,
    threads: usize,
    rng: &mut StdRng,
) {
    let eps = epochs(ts, tr);
    let mut labels: BTreeMap<(usize, usize, usize), u32> = BTreeMap::new();
    let mut n1: BTreeSet<(usize, usize)> = BTreeSet::new();
    let mut any_n: BTreeMap<(usize, usize), usize> = BTreeMap::new();
    for (k, (r, (_, resp))) in tr.reqs.iter().zip(&s.resps).enumerate() {
        let Kind::Certify { t, point, n } = r.kind else {
            continue;
        };
        let get = |f: &str| util::field(resp, f).and_then(|v| v.parse::<usize>().ok());
        let (Some(epoch), Some(label)) = (get("epoch"), get("label")) else {
            rep.mismatch(&format!("request {k}: unreadable certify response {resp}"));
            continue;
        };
        let Some(ds) = eps[t].get(epoch) else {
            rep.mismatch(&format!("request {k}: unknown epoch {epoch}"));
            continue;
        };
        let want = *labels
            .entry((t, epoch, point))
            .or_insert_with(|| check::concrete_label(ds, &ts[t].test[point], ts[t].depth));
        rep.checks += 1;
        if label as u32 != want {
            rep.mismatch(&format!("request {k}: label {label} != dtrace {want}"));
        }
        if epoch == 0 && util::field(resp, "verdict").as_deref() == Some("robust") {
            // The two mammo tenants share one dataset: check it once.
            let fam = if ts[t].bench == ts[0].bench { 0 } else { t };
            if n == 1 {
                n1.insert((fam, point));
            }
            let m = any_n.entry((fam, point)).or_insert(0);
            *m = (*m).max(n);
        }
    }
    for (fam, t) in ts.iter().enumerate() {
        let mut mine: Vec<usize> = n1.iter().filter(|p| p.0 == fam).map(|p| p.1).collect();
        mine.shuffle(rng);
        for &p in mine.iter().take(2) {
            let what = format!("{} point {p}", t.handle);
            check::oracle_n1(rep, &what, &t.train, &t.test[p], t.depth, threads);
        }
        if matches!(t.bench, Benchmark::Wdbc | Benchmark::Mammographic) {
            let mut mine: Vec<(usize, usize)> = any_n
                .iter()
                .filter(|(p, _)| p.0 == fam)
                .map(|(p, &n)| (p.1, n))
                .collect();
            mine.shuffle(rng);
            for &(p, n) in mine.iter().take(2) {
                let what = format!("{} point {p}", t.handle);
                check::attack(rep, &what, &t.train, &t.test[p], t.depth, n);
            }
        }
    }
}

/// Session-layer replay: the same certifies, sweeps and deltas straight
/// through `Session`, timed per call; returns per request whether a
/// certify was answered from session state (no abstract run).
fn session_replay(
    rec: &mut Recorder,
    ts: &[Tenant],
    tr: &Trace,
    threads: usize,
) -> Vec<Option<bool>> {
    let index = Arc::new(WarmStateIndex::new());
    let ctx = ExecContext::new().threads(threads);
    let mut current: Vec<Arc<Dataset>> = ts
        .iter()
        .map(|t| {
            let ds = t.train.clone();
            ds.warm_indexes();
            Arc::new(ds)
        })
        .collect();
    let sessions: Vec<Session> = ts
        .iter()
        .zip(&current)
        .map(|(t, ds)| {
            let cfg = SessionConfig {
                depth: t.depth,
                domain: DomainKind::Disjuncts,
                ..SessionConfig::default()
            };
            Session::open_shared(&index, Arc::clone(ds), cfg, ctx.metrics())
        })
        .collect();
    let hits = || {
        util::debug_counters(&format!("{:?}", ctx.metrics().snapshot()))
            .get("cross_request_cache_hits")
            .copied()
    };
    let mut out = vec![None; tr.reqs.len()];
    for (k, r) in tr.reqs.iter().enumerate() {
        match &r.kind {
            Kind::Certify { t, point, n } => {
                let before = hits();
                let x = &ts[*t].test[*point];
                rec.time("session.certify", None, k as u64, || {
                    std::hint::black_box(sessions[*t].certify(x, *n, &ctx));
                });
                out[k] = Some(hits() > before);
            }
            Kind::Delta { t, delta } => {
                let Ok((next, summary)) = current[*t].apply_summarized(delta) else {
                    continue;
                };
                next.warm_indexes();
                let next = Arc::new(next);
                rec.time("session.advance", None, k as u64, || {
                    sessions[*t].advance(Arc::clone(&next), &[summary], ctx.metrics());
                });
                current[*t] = next;
            }
            Kind::Sweep { t, first } => {
                rec.time("session.sweep", None, k as u64, || {
                    std::hint::black_box(sessions[*t].sweep(
                        &ts[*t].test[*first..*first + SWEEP_POINTS],
                        Some(SWEEP_MAX_N),
                        &ctx,
                    ));
                });
            }
            _ => {}
        }
    }
    out
}

/// The serve workload's per-layer metrics, from the traced service
/// replay `rec`, a traced session replay, and per-point layer calls.
#[allow(clippy::too_many_arguments)]
fn serve_layers(
    layers: &mut Layers,
    ts: &[Tenant],
    tr: &Trace,
    rec: &mut Recorder,
    burst_ms: &[f64],
    svc: &Service,
    threads: usize,
    open_lat: &[f64],
) {
    let mut benches: Vec<Benchmark> = ts.iter().map(|t| t.bench).collect();
    benches.dedup();
    layers.put(
        "data.load_ms",
        Some(benches.iter().map(|&b| trace::load_ms(b)).sum()),
    );
    let words = ts
        .iter()
        .map(|t| t.train.len().div_ceil(64))
        .max()
        .unwrap_or(0);
    layers.put("data.words_per_subset", Some(words as f64));
    layers.counters(&format!("{:?}", svc.metrics().snapshot()));
    for op in ["certify", "sweep", "delta"] {
        let d = rec.durations(&format!("service.handle_line.{op}"));
        layers.put(
            &format!("service.handle_line_us_p50.{op}"),
            util::median(&d).map(|v| v * 1e6),
        );
    }
    layers.put("serve_loop.burst_ms", util::median(burst_ms));
    // Queue wait: end-to-end latency minus the in-process handle time of
    // the same request (`open_lat` holds every open-loop server's body).
    let handle: BTreeMap<u64, f64> = rec
        .spans
        .iter()
        .filter(|sp| sp.name.starts_with("service.handle_line."))
        .map(|sp| (sp.request, (sp.end_ns - sp.start_ns) as f64 * 1e-9))
        .collect();
    let waits: Vec<f64> = tr
        .body
        .clone()
        .cycle()
        .zip(open_lat)
        .filter_map(|(k, &l)| handle.get(&(k as u64)).map(|h| l - h * 1e3))
        .collect();
    layers.put("service.queue_wait_ms_p50", util::median(&waits));

    // Session layer, and the service's own cost on hits beside it.
    let mut srec = Recorder::new(true);
    let before = trace::pool_batches();
    let hit = session_replay(&mut srec, ts, tr, threads);
    let after = trace::pool_batches();
    layers.put("engine.pool_batches", after.zip(before).map(|(a, b)| a - b));
    let sess: BTreeMap<u64, f64> = srec
        .spans
        .iter()
        .filter(|sp| sp.name == "session.certify")
        .map(|sp| (sp.request, (sp.end_ns - sp.start_ns) as f64 * 1e-9))
        .collect();
    let (mut hit_t, mut miss_t, mut svc_hit_t) = (Vec::new(), Vec::new(), Vec::new());
    for (&k, &d) in &sess {
        match hit[k as usize] {
            Some(true) => {
                hit_t.push(d);
                if let Some(&h) = handle.get(&k) {
                    svc_hit_t.push(h);
                }
            }
            Some(false) => miss_t.push(d),
            None => {}
        }
    }
    layers.put(
        "session.certify_hit_us_p50",
        util::median(&hit_t).map(|v| v * 1e6),
    );
    layers.put(
        "session.certify_miss_ms_p50",
        util::median(&miss_t).map(|v| v * 1e3),
    );
    let total = hit_t.len() + miss_t.len();
    layers.put(
        "session.cross_request_hit_rate",
        (total > 0).then(|| hit_t.len() as f64 / total as f64),
    );
    layers.p50("session.advance_ms_p50", &srec, "session.advance", 1e3);
    layers.put(
        "service.overhead_us_p50",
        util::median(&svc_hit_t)
            .zip(util::median(&hit_t))
            .map(|(a, b)| (a - b) * 1e6),
    );
    rec.absorb(srec);

    // Per-point layer calls on the busiest tenant's most popular points.
    let t = &ts[0];
    let cert = antidote_core::Certifier::new(&t.train)
        .depth(t.depth)
        .domain(DomainKind::Disjuncts);
    let mut prec = Recorder::new(true);
    trace::probe_calls(
        &mut prec,
        &t.train,
        &t.test[..10],
        t.depth,
        &cert,
        &[1, 2],
        threads,
    );
    trace::probe_metrics(layers, &prec);
    layers.put(
        "score.candidates",
        Some(trace::candidates(&t.train, &[1, 2])),
    );
    rec.absorb(prec);
}
