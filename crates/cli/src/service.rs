//! Service mode: `antidote serve` / `antidote client` (DESIGN.md §12,
//! §14).
//!
//! The service speaks line-delimited JSON over stdin/stdout — one
//! request object per line in, one response object per line out, in
//! admission order (no request ids; ordering is the correlation). No
//! network, no external dependencies: the JSON reader/writer below is
//! hand-rolled.
//!
//! Ops: `load` (register a dataset under a handle and open its
//! session), `certify`, `sweep`, `batch` (admit several certify/sweep
//! requests through the deduplicating [`RequestEngine`]), `delta`
//! (apply a chain of mutations, carrying certificates in one batched
//! transfer), `evict` (drop a handle's session and warm state),
//! `metrics` (deterministic counter subset), `shutdown`. Errors answer
//! `{"ok":false,"error":"..."}` and never kill the loop.
//!
//! Sessions opened by `load` share warm state through a process-wide
//! [`WarmStateIndex`] (two handles on the same snapshot and config
//! join one warm unit; `--no-share` disarms it), and the service keeps
//! memory bounded: `--max-sessions` / `--max-session-bytes` evict the
//! least-recently-used session at load time, counted in
//! `sessions_evicted`.
//!
//! Requests are validated once, here at the protocol boundary: the
//! parser caps nesting depth, integer fields must be exactly
//! representable, `load` caps the tree depth, and every query point is
//! checked against its dataset's schema (arity, finite reals, 0/1 on
//! bool columns) before it reaches the engine. [`serve_loop`] reads
//! request lines as bytes, so a line that is not UTF-8 is answered with
//! an error line like any other bad request.
//!
//! Responses carry no timings, so a canned script's transcript is
//! byte-stable — CI diffs one against a committed golden file.

use crate::args::{parse_domain, Args, CliError};
use antidote_core::{
    ExecContext, LadderRung, Request, RequestEngine, Response, Session, SessionConfig, Verdict,
    WarmStateIndex,
};
use antidote_data::{Benchmark, ClassId, DatasetDelta, DatasetRegistry, RowId, Scale};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::io::{BufRead, Write};
use std::sync::Arc;
use std::time::Duration;

// ---------------------------------------------------------------------
// Minimal JSON value + parser (input side).
// ---------------------------------------------------------------------

/// A parsed JSON value. Objects keep sorted keys (`BTreeMap`), which is
/// irrelevant for requests (we only look fields up) — responses are
/// formatted directly as strings with fixed field order.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (JSON has only doubles).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn type_name(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::Num(_) => "number",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        }
    }

    fn as_obj(&self) -> Result<&BTreeMap<String, Json>, String> {
        match self {
            Json::Obj(m) => Ok(m),
            other => Err(format!("expected an object, got {}", other.type_name())),
        }
    }
}

/// Deepest array/object nesting a request may use. The protocol itself
/// needs six levels (an appended row's values inside a delta); the cap
/// keeps the recursive-descent parser far from the stack limit on
/// hostile input.
const MAX_NESTING: usize = 64;

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

/// Parses one JSON document; trailing non-whitespace is an error.
pub(crate) fn parse_json(s: &str) -> Result<Json, String> {
    let mut p = Parser {
        s: s.as_bytes(),
        i: 0,
        depth: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.i != p.s.len() {
        return Err(format!("trailing input at byte {}", p.i));
    }
    Ok(v)
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.s.get(self.i) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.i += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&mut self) -> Result<u8, String> {
        self.skip_ws();
        self.s
            .get(self.i)
            .copied()
            .ok_or_else(|| "unexpected end of input".to_string())
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek()? == b {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", char::from(b), self.i))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.s[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.i))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek()? {
            open @ (b'{' | b'[') => {
                if self.depth == MAX_NESTING {
                    return Err(format!(
                        "nesting deeper than {MAX_NESTING} at byte {}",
                        self.i
                    ));
                }
                self.depth += 1;
                let v = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                v
            }
            b'"' => Ok(Json::Str(self.string()?)),
            b't' => self.literal("true", Json::Bool(true)),
            b'f' => self.literal("false", Json::Bool(false)),
            b'n' => self.literal("null", Json::Null),
            b'-' | b'0'..=b'9' => self.number(),
            other => Err(format!(
                "unexpected '{}' at byte {}",
                char::from(other),
                self.i
            )),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut map = BTreeMap::new();
        if self.peek()? == b'}' {
            self.i += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.eat(b':')?;
            let value = self.value()?;
            map.insert(key, value);
            match self.peek()? {
                b',' => self.i += 1,
                b'}' => {
                    self.i += 1;
                    return Ok(Json::Obj(map));
                }
                other => {
                    return Err(format!(
                        "expected ',' or '}}', got '{}' at byte {}",
                        char::from(other),
                        self.i
                    ))
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.i += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek()? {
                b',' => self.i += 1,
                b']' => {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                other => {
                    return Err(format!(
                        "expected ',' or ']', got '{}' at byte {}",
                        char::from(other),
                        self.i
                    ))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let b = *self
                .s
                .get(self.i)
                .ok_or_else(|| "unterminated string".to_string())?;
            self.i += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let e = *self
                        .s
                        .get(self.i)
                        .ok_or_else(|| "unterminated escape".to_string())?;
                    self.i += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .s
                                .get(self.i..self.i + 4)
                                .ok_or_else(|| "truncated \\u escape".to_string())?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| "non-ascii \\u escape".to_string())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape '{hex}'"))?;
                            self.i += 4;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| format!("invalid codepoint \\u{hex}"))?,
                            );
                        }
                        other => return Err(format!("unknown escape '\\{}'", char::from(other))),
                    }
                }
                _ => {
                    // Continuation bytes of multi-byte UTF-8 sequences
                    // pass through verbatim (the input is a &str, so the
                    // sequence is valid).
                    let start = self.i - 1;
                    while self.s.get(self.i).is_some_and(|&c| c & 0xC0 == 0x80) {
                        self.i += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.s[start..self.i])
                            .map_err(|_| "invalid utf-8 in string".to_string())?,
                    );
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        if self.s.get(self.i) == Some(&b'-') {
            self.i += 1;
        }
        while self
            .s
            .get(self.i)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.i += 1;
        }
        let text = std::str::from_utf8(&self.s[start..self.i]).expect("ascii");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("invalid number '{text}'"))
    }
}

// ---------------------------------------------------------------------
// Field accessors and output formatting.
// ---------------------------------------------------------------------

fn field<'j>(obj: &'j BTreeMap<String, Json>, key: &str) -> Result<&'j Json, String> {
    obj.get(key).ok_or_else(|| format!("missing field '{key}'"))
}

fn str_field<'j>(obj: &'j BTreeMap<String, Json>, key: &str) -> Result<&'j str, String> {
    match field(obj, key)? {
        Json::Str(s) => Ok(s),
        other => Err(format!(
            "field '{key}' must be a string, got {}",
            other.type_name()
        )),
    }
}

/// `v` as an exact non-negative integer of type `T`. JSON numbers are
/// doubles, so anything at or above 2^53 (where `2^53 + 1` already
/// reads as `2^53`) is rejected rather than rounded, as is anything `T`
/// cannot hold.
fn uint<T: TryFrom<u64>>(v: &Json) -> Option<T> {
    const EXACT_BELOW: f64 = 9_007_199_254_740_992.0; // 2^53
    match v {
        Json::Num(x) if *x >= 0.0 && *x < EXACT_BELOW && x.fract() == 0.0 => {
            T::try_from(*x as u64).ok()
        }
        _ => None,
    }
}

/// The message for a value [`uint`] refused.
fn uint_error<T>(what: &str, v: &Json) -> String {
    let got = match v {
        Json::Num(x) => x.to_string(),
        other => other.type_name().to_string(),
    };
    format!(
        "{what} must be an exact non-negative integer (below 2^53, fitting {}), got {got}",
        std::any::type_name::<T>()
    )
}

fn uint_field<T: TryFrom<u64>>(obj: &BTreeMap<String, Json>, key: &str) -> Result<T, String> {
    let v = field(obj, key)?;
    uint(v).ok_or_else(|| uint_error::<T>(&format!("field '{key}'"), v))
}

/// `v` as a point: an array of numbers. `what` names it in errors.
fn point(v: &Json, what: &str) -> Result<Vec<f64>, String> {
    match v {
        Json::Arr(items) => items
            .iter()
            .map(|v| match v {
                Json::Num(x) => Ok(*x),
                other => Err(format!(
                    "{what} must contain numbers, got {}",
                    other.type_name()
                )),
            })
            .collect(),
        other => Err(format!(
            "{what} must be an array, got {}",
            other.type_name()
        )),
    }
}

fn point_field(obj: &BTreeMap<String, Json>, key: &str) -> Result<Vec<f64>, String> {
    point(field(obj, key)?, &format!("field '{key}'"))
}

/// Escapes a string for embedding in a JSON response line.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn verdict_str(v: Verdict) -> &'static str {
    match v {
        Verdict::Robust => "robust",
        Verdict::Unknown => "unknown",
        Verdict::Timeout => "timeout",
        Verdict::DisjunctBudget => "disjunct-budget",
        Verdict::Cancelled => "cancelled",
    }
}

fn error_line(message: &str) -> String {
    format!("{{\"ok\":false,\"error\":{}}}", json_str(message))
}

fn rungs_json(rungs: &[LadderRung]) -> String {
    let items: Vec<String> = rungs
        .iter()
        .map(|r| {
            format!(
                "{{\"n\":{},\"attempted\":{},\"verified\":{},\"timeouts\":{},\"budget_exhausted\":{}}}",
                r.n, r.attempted, r.verified, r.timeouts, r.budget_exhausted
            )
        })
        .collect();
    format!("[{}]", items.join(","))
}

/// Formats one engine response as a self-describing JSON object.
fn response_json(handle: &str, response: &Response) -> String {
    match response {
        Response::Certify {
            verdict,
            label,
            n,
            epoch,
        } => format!(
            "{{\"ok\":true,\"op\":\"certify\",\"handle\":{},\"epoch\":{},\"n\":{},\"verdict\":{},\"label\":{}}}",
            json_str(handle),
            epoch,
            n,
            json_str(verdict_str(*verdict)),
            label
        ),
        Response::Sweep { epoch, rungs } => format!(
            "{{\"ok\":true,\"op\":\"sweep\",\"handle\":{},\"epoch\":{},\"rungs\":{}}}",
            json_str(handle),
            epoch,
            rungs_json(rungs)
        ),
    }
}

// ---------------------------------------------------------------------
// The service.
// ---------------------------------------------------------------------

/// Deepest tree a `load` may ask for: twice the deepest the paper
/// evaluates (4). Cost grows exponentially with depth under Disjuncts
/// (a depth-8 iris certify already takes tens of seconds), so an
/// unbounded depth would let one request pin the service; a session's
/// `timeout` bounds what remains.
const MAX_DEPTH: usize = 8;

/// One running service instance: the dataset registry, one [`Session`]
/// per handle, the batching request engine, the warm-state sharing
/// index, the LRU eviction bookkeeping, and the admission context
/// whose metrics every request lands on.
pub struct Service {
    registry: DatasetRegistry,
    sessions: BTreeMap<String, Arc<Session>>,
    engine: RequestEngine,
    ctx: ExecContext,
    /// The process-wide warm-state index `load` opens sessions through
    /// (`None` = `--no-share`: every handle gets a private warm unit).
    share: Option<Arc<WarmStateIndex>>,
    /// Handle → last-used tick, driving LRU eviction order.
    lru: BTreeMap<String, u64>,
    tick: u64,
    /// Evict down to this many sessions after every `load` (`None` =
    /// unbounded).
    max_sessions: Option<usize>,
    /// Evict least-recently-used sessions while the summed warm-state
    /// byte estimate exceeds this watermark (`None` = unbounded; the
    /// most recent session always survives).
    max_session_bytes: Option<usize>,
}

impl Service {
    /// A service with `threads` engine workers, warm-state sharing
    /// armed, and no memory bounds.
    pub fn new(threads: usize) -> Service {
        Service {
            registry: DatasetRegistry::new(),
            sessions: BTreeMap::new(),
            engine: RequestEngine::new(),
            ctx: ExecContext::new().threads(threads),
            share: Some(Arc::new(WarmStateIndex::new())),
            lru: BTreeMap::new(),
            tick: 0,
            max_sessions: None,
            max_session_bytes: None,
        }
    }

    /// Disarms cross-session warm-state sharing (`--no-share`): every
    /// loaded handle gets a private warm unit.
    pub fn no_share(mut self) -> Self {
        self.share = None;
        self
    }

    /// Bounds the number of resident sessions (`--max-sessions`): after
    /// every `load`, least-recently-used sessions are evicted until at
    /// most `n` remain.
    pub fn max_sessions(mut self, n: usize) -> Self {
        self.max_sessions = Some(n.max(1));
        self
    }

    /// Bounds the summed warm-state byte estimate
    /// (`--max-session-bytes`): after every `load`, least-recently-used
    /// sessions are evicted until the estimate fits (the most recent
    /// session always survives, even oversized).
    pub fn max_session_bytes(mut self, bytes: usize) -> Self {
        self.max_session_bytes = Some(bytes);
        self
    }

    /// The metrics all requests land on (the `metrics` op's source).
    pub fn metrics(&self) -> &antidote_core::engine::RunMetrics {
        self.ctx.metrics()
    }

    /// Handles one request line. Returns the response line and whether
    /// the serve loop should stop (`shutdown`).
    pub fn handle_line(&mut self, line: &str) -> (String, bool) {
        match self.dispatch(line) {
            Ok((response, stop)) => (response, stop),
            Err(message) => (error_line(&message), false),
        }
    }

    fn dispatch(&mut self, line: &str) -> Result<(String, bool), String> {
        let value = parse_json(line)?;
        let obj = value.as_obj()?;
        match str_field(obj, "op")? {
            "load" => self.op_load(obj).map(|r| (r, false)),
            "certify" | "sweep" => {
                let (handle, session, request) = self.admit(obj)?;
                let responses = self.engine.submit(&[(session, request)], &self.ctx);
                Ok((response_json(&handle, &responses[0]), false))
            }
            "batch" => self.op_batch(obj).map(|r| (r, false)),
            "delta" => self.op_delta(obj).map(|r| (r, false)),
            "evict" => self.op_evict(obj).map(|r| (r, false)),
            "metrics" => Ok((self.op_metrics(), false)),
            "shutdown" => Ok(("{\"ok\":true,\"op\":\"shutdown\"}".to_string(), true)),
            other => Err(format!("unknown op '{other}'")),
        }
    }

    fn session(&self, handle: &str) -> Result<Arc<Session>, String> {
        self.sessions
            .get(handle)
            .cloned()
            .ok_or_else(|| format!("no dataset loaded under handle '{handle}'"))
    }

    /// Parses one certify/sweep request object, resolves its session,
    /// and checks every query point against the session's schema, so
    /// nothing malformed reaches the engine. Stamps the handle as used.
    fn admit(
        &mut self,
        obj: &BTreeMap<String, Json>,
    ) -> Result<(String, Arc<Session>, Request), String> {
        let (handle, request) = parse_request(obj)?;
        let session = self.session(&handle)?;
        let (key, points) = match &request {
            Request::Certify { x, .. } => ("x", std::slice::from_ref(x)),
            Request::Sweep { points, .. } => ("points", points.as_slice()),
        };
        let ds = session.dataset();
        for (row, x) in points.iter().enumerate() {
            ds.schema()
                .check_values(x, row)
                .map_err(|e| format!("field '{key}': {e}"))?;
        }
        self.touch(&handle);
        Ok((handle, session, request))
    }

    /// Stamps `handle` as most recently used.
    fn touch(&mut self, handle: &str) {
        self.tick += 1;
        self.lru.insert(handle.to_string(), self.tick);
    }

    /// Drops the least-recently-used session: handle, warm state, and
    /// registry entry. The shared warm unit dies with its last tenant
    /// (the index holds only weak references), so a re-`load` of the
    /// same snapshot re-certifies from cold — pinned, with verdict
    /// identity, in `tests/service.rs`.
    fn evict_lru(&mut self) -> bool {
        let Some(handle) = self
            .lru
            .iter()
            .min_by_key(|(_, &tick)| tick)
            .map(|(h, _)| h.clone())
        else {
            return false;
        };
        self.sessions.remove(&handle);
        self.lru.remove(&handle);
        self.registry.evict(&handle);
        self.ctx.metrics().add_session_evicted();
        true
    }

    /// Total warm-state byte estimate across resident sessions.
    fn resident_bytes(&self) -> usize {
        self.sessions.values().map(|s| s.approx_bytes()).sum()
    }

    /// Applies the `--max-sessions` / `--max-session-bytes` watermarks
    /// after a `load`, evicting LRU-first. The byte watermark never
    /// evicts the final session: an oversized lone tenant is served,
    /// not thrashed.
    fn enforce_memory_bounds(&mut self) {
        if let Some(max) = self.max_sessions {
            while self.sessions.len() > max && self.evict_lru() {}
        }
        if let Some(max) = self.max_session_bytes {
            while self.sessions.len() > 1 && self.resident_bytes() > max && self.evict_lru() {}
        }
    }

    /// `load`: registers a benchmark dataset (or CSV file) under a
    /// handle and opens its session with the given certification
    /// config. Reloading a handle replaces both.
    fn op_load(&mut self, obj: &BTreeMap<String, Json>) -> Result<String, String> {
        let handle = str_field(obj, "handle")?;
        let seed = if obj.contains_key("seed") {
            uint_field(obj, "seed")?
        } else {
            0
        };
        let ds = if let Some(Json::Str(path)) = obj.get("csv") {
            antidote_data::csv::load_csv(path).map_err(|e| format!("loading {path}: {e}"))?
        } else {
            let id = str_field(obj, "dataset")?;
            let bench = Benchmark::from_id(id).ok_or_else(|| format!("unknown dataset '{id}'"))?;
            let scale = match obj.get("scale") {
                Some(Json::Str(s)) if s == "paper" => Scale::Paper,
                Some(Json::Str(s)) if s == "small" => Scale::Small,
                Some(other) => return Err(format!("bad scale {other:?}")),
                None => Scale::Small,
            };
            // The train split is what certification reasons about.
            bench.load(scale, seed).0
        };
        let cfg = SessionConfig {
            depth: if obj.contains_key("depth") {
                match uint_field(obj, "depth")? {
                    d if d > MAX_DEPTH => {
                        return Err(format!(
                            "field 'depth' must be at most {MAX_DEPTH}, got {d}"
                        ))
                    }
                    d => d,
                }
            } else {
                2
            },
            domain: match obj.get("domain") {
                Some(Json::Str(s)) => parse_domain(s).map_err(|e| e.0)?,
                Some(other) => return Err(format!("bad domain {other:?}")),
                None => antidote_core::DomainKind::Box,
            },
            timeout: if obj.contains_key("timeout") {
                Some(Duration::from_secs(uint_field(obj, "timeout")?))
            } else {
                None
            },
            ..SessionConfig::default()
        };
        let rows = ds.len();
        let stored = self.registry.load(handle, ds);
        let session = match &self.share {
            Some(index) => Arc::new(Session::open_shared(
                index,
                Arc::clone(&stored),
                cfg,
                self.ctx.metrics(),
            )),
            None => Arc::new(Session::new(Arc::clone(&stored), cfg)),
        };
        self.sessions.insert(handle.to_string(), session);
        self.touch(handle);
        self.enforce_memory_bounds();
        Ok(format!(
            "{{\"ok\":true,\"op\":\"load\",\"handle\":{},\"epoch\":{},\"rows\":{}}}",
            json_str(handle),
            stored.epoch(),
            rows
        ))
    }

    /// `batch`: admits several certify/sweep requests at once through
    /// the request engine — identical in-flight questions coalesce,
    /// distinct ones fan out. Responses come back in admission order.
    fn op_batch(&mut self, obj: &BTreeMap<String, Json>) -> Result<String, String> {
        let entries = match field(obj, "requests")? {
            Json::Arr(items) => items,
            other => {
                return Err(format!(
                    "field 'requests' must be an array, got {}",
                    other.type_name()
                ))
            }
        };
        let mut batch = Vec::with_capacity(entries.len());
        let mut handles = Vec::with_capacity(entries.len());
        for entry in entries {
            let (handle, session, request) = self.admit(entry.as_obj()?)?;
            batch.push((session, request));
            handles.push(handle);
        }
        let responses = self.engine.submit(&batch, &self.ctx);
        let items: Vec<String> = handles
            .iter()
            .zip(&responses)
            .map(|(handle, response)| response_json(handle, response))
            .collect();
        Ok(format!(
            "{{\"ok\":true,\"op\":\"batch\",\"responses\":[{}]}}",
            items.join(",")
        ))
    }

    /// `delta`: applies a chain of mutations to a handle atomically and
    /// advances its session in one batched certificate transfer.
    fn op_delta(&mut self, obj: &BTreeMap<String, Json>) -> Result<String, String> {
        let handle = str_field(obj, "handle")?;
        let session = self.session(handle)?;
        self.touch(handle);
        let specs = match field(obj, "deltas")? {
            Json::Arr(items) => items,
            other => {
                return Err(format!(
                    "field 'deltas' must be an array, got {}",
                    other.type_name()
                ))
            }
        };
        let mut deltas = Vec::with_capacity(specs.len());
        for spec in specs {
            deltas.push(parse_delta(spec.as_obj()?)?);
        }
        if deltas.is_empty() {
            return Err("'deltas' must name at least one mutation".to_string());
        }
        let (ds, summaries) = self
            .registry
            .apply_delta_many(handle, &deltas)
            .map_err(|e| e.to_string())?;
        session.advance(Arc::clone(&ds), &summaries, self.ctx.metrics());
        Ok(format!(
            "{{\"ok\":true,\"op\":\"delta\",\"handle\":{},\"epoch\":{},\"rows\":{}}}",
            json_str(handle),
            ds.epoch(),
            ds.len()
        ))
    }

    /// `evict`: drops a handle's session, warm state, and registry
    /// entry. A later `load` of the same handle starts cold (the shared
    /// warm unit dies with its last tenant), re-certifying with
    /// identical verdicts — response purity, pinned in the tests.
    fn op_evict(&mut self, obj: &BTreeMap<String, Json>) -> Result<String, String> {
        let handle = str_field(obj, "handle")?;
        if self.sessions.remove(handle).is_none() {
            return Err(format!("no dataset loaded under handle '{handle}'"));
        }
        self.lru.remove(handle);
        self.registry.evict(handle);
        self.ctx.metrics().add_session_evicted();
        Ok(format!(
            "{{\"ok\":true,\"op\":\"evict\",\"handle\":{}}}",
            json_str(handle)
        ))
    }

    /// `metrics`: the counter subset free of watermarks, timings, and
    /// host-dependent counts, so `--threads 1` transcripts stay
    /// golden-file stable (with more threads the `bestSplit#` memo and
    /// cache counters depend on which task fills shared state first).
    /// `cross_request_hit_rate` is the derived warm-path share of all
    /// served requests (0 before the first request).
    fn op_metrics(&self) -> String {
        let m = self.ctx.metrics();
        let served = m.requests_served();
        let hit_rate = if served == 0 {
            0.0
        } else {
            m.cross_request_cache_hits() as f64 / served as f64
        };
        format!(
            "{{\"ok\":true,\"op\":\"metrics\",\"requests_served\":{},\"cross_request_cache_hits\":{},\"cross_request_hit_rate\":{:.3},\"certify_calls\":{},\"cache_hits\":{},\"cache_misses\":{},\"cache_shortcircuits\":{},\"cache_transfers\":{},\"cache_invalidations\":{},\"split_memo_hits\":{},\"split_memo_misses\":{},\"probes_scheduled\":{},\"probes_deferred\":{},\"deadline_degradations\":{},\"warm_state_shared_hits\":{},\"sessions_evicted\":{}}}",
            served,
            m.cross_request_cache_hits(),
            hit_rate,
            m.certify_calls(),
            m.cache_hits(),
            m.cache_misses(),
            m.cache_shortcircuits(),
            m.cache_transfers(),
            m.cache_invalidations(),
            m.split_memo_hits(),
            m.split_memo_misses(),
            m.probes_scheduled(),
            m.probes_deferred(),
            m.deadline_degradations(),
            m.warm_state_shared_hits(),
            m.sessions_evicted(),
        )
    }
}

/// Parses one delta spec: `{"remove":[ids],"append":[{"values":[..],
/// "label":k}],"flip":[{"row":id,"label":k}]}` — all fields optional.
fn parse_delta(obj: &BTreeMap<String, Json>) -> Result<DatasetDelta, String> {
    let mut delta = DatasetDelta::new();
    if let Some(spec) = obj.get("remove") {
        match spec {
            Json::Arr(ids) => {
                for id in ids {
                    let row =
                        uint::<RowId>(id).ok_or_else(|| uint_error::<RowId>("'remove' ids", id))?;
                    delta.remove(row);
                }
            }
            other => {
                return Err(format!(
                    "'remove' must be an array, got {}",
                    other.type_name()
                ))
            }
        }
    }
    if let Some(spec) = obj.get("append") {
        match spec {
            Json::Arr(rows) => {
                for row in rows {
                    let row = row.as_obj()?;
                    let values = point_field(row, "values")?;
                    let label = uint_field::<ClassId>(row, "label")?;
                    delta.append(&values, label);
                }
            }
            other => {
                return Err(format!(
                    "'append' must be an array, got {}",
                    other.type_name()
                ))
            }
        }
    }
    if let Some(spec) = obj.get("flip") {
        match spec {
            Json::Arr(rows) => {
                for row in rows {
                    let row = row.as_obj()?;
                    delta.flip_label(uint_field(row, "row")?, uint_field(row, "label")?);
                }
            }
            other => {
                return Err(format!(
                    "'flip' must be an array, got {}",
                    other.type_name()
                ))
            }
        }
    }
    if delta.is_empty() {
        return Err("a delta must name at least one mutation".to_string());
    }
    Ok(delta)
}

/// Parses one certify/sweep request object into `(handle, Request)`.
fn parse_request(obj: &BTreeMap<String, Json>) -> Result<(String, Request), String> {
    let handle = str_field(obj, "handle")?.to_string();
    let request = match str_field(obj, "op")? {
        "certify" => Request::Certify {
            x: point_field(obj, "x")?,
            n: uint_field(obj, "n")?,
        },
        "sweep" => {
            let points = match field(obj, "points")? {
                Json::Arr(items) => items
                    .iter()
                    .map(|p| point(p, "'points' entries"))
                    .collect::<Result<Vec<_>, _>>()?,
                other => {
                    return Err(format!(
                        "field 'points' must be an array, got {}",
                        other.type_name()
                    ))
                }
            };
            let max_n = if obj.contains_key("max_n") {
                Some(uint_field(obj, "max_n")?)
            } else {
                None
            };
            Request::Sweep { points, max_n }
        }
        other => {
            return Err(format!(
                "batch entries must be certify|sweep, got '{other}'"
            ))
        }
    };
    Ok((handle, request))
}

// ---------------------------------------------------------------------
// Subcommands.
// ---------------------------------------------------------------------

/// Runs the serve loop: requests from `input`, responses to `output`,
/// exactly one line each, in admission order, until `shutdown` or EOF.
/// Blank lines and `#` comment lines are skipped (so canned scripts can
/// be annotated). Lines are read as bytes: one that is not valid UTF-8
/// gets an error line and the loop keeps serving.
pub fn serve_loop(
    service: &mut Service,
    mut input: impl BufRead,
    mut output: impl Write,
) -> std::io::Result<()> {
    let mut buf = Vec::new();
    loop {
        buf.clear();
        if input.read_until(b'\n', &mut buf)? == 0 {
            return Ok(());
        }
        let text = String::from_utf8_lossy(&buf);
        let line = text.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (response, stop) = match &text {
            Cow::Borrowed(_) => service.handle_line(line),
            // `from_utf8_lossy` only allocates to substitute invalid bytes.
            Cow::Owned(_) => (error_line("request line is not valid UTF-8"), false),
        };
        writeln!(output, "{response}")?;
        output.flush()?;
        if stop {
            return Ok(());
        }
    }
}

// The former name, kept only because the `e2ebench/` harness imports it.
#[doc(hidden)]
pub use serve_loop as serve_loop_pipelined;

/// `antidote serve [--threads k] [--no-share] [--max-sessions n]
/// [--max-session-bytes b]` — JSONL over stdin/stdout.
pub(crate) fn cmd_serve(args: &Args) -> Result<(), CliError> {
    let mut service = Service::new(args.threads()?);
    if args.no_share() {
        service = service.no_share();
    }
    if args.options.contains_key("max-sessions") {
        let n: usize = args.get_num("max-sessions", 0)?;
        if n == 0 {
            return Err(CliError("--max-sessions must be >= 1".into()));
        }
        service = service.max_sessions(n);
    }
    if args.options.contains_key("max-session-bytes") {
        let bytes: usize = args.get_num("max-session-bytes", 0)?;
        if bytes == 0 {
            return Err(CliError("--max-session-bytes must be >= 1".into()));
        }
        service = service.max_session_bytes(bytes);
    }
    serve_loop(
        &mut service,
        std::io::stdin().lock(),
        std::io::stdout().lock(),
    )
    .map_err(|e| CliError(format!("serve io: {e}")))
}

/// `antidote client --script <path> [--threads k]` — replays a request
/// script against an in-process service, printing a `>` / `<`
/// transcript (the same responses `serve` would write).
pub(crate) fn cmd_client(args: &Args) -> Result<(), CliError> {
    let path = args
        .options
        .get("script")
        .ok_or_else(|| CliError("client requires --script <path>".into()))?;
    let script =
        std::fs::read_to_string(path).map_err(|e| CliError(format!("reading {path}: {e}")))?;
    let mut service = Service::new(args.threads()?);
    for line in script.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        println!("> {line}");
        let (response, stop) = service.handle_line(line);
        println!("< {response}");
        if stop {
            break;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_parser_roundtrips_the_protocol_shapes() {
        let v = parse_json(
            r#"{"op":"certify","handle":"a","x":[0.5,-1.25e2],"n":8,"deep":{"t":true,"f":false,"z":null},"s":"q\"\\\nA"}"#,
        )
        .unwrap();
        let obj = v.as_obj().unwrap();
        assert_eq!(str_field(obj, "op").unwrap(), "certify");
        assert_eq!(uint_field::<usize>(obj, "n").unwrap(), 8);
        assert_eq!(point_field(obj, "x").unwrap(), vec![0.5, -125.0]);
        let deep = field(obj, "deep").unwrap().as_obj().unwrap();
        assert_eq!(deep.get("t"), Some(&Json::Bool(true)));
        assert_eq!(deep.get("z"), Some(&Json::Null));
        match field(obj, "s").unwrap() {
            Json::Str(s) => assert_eq!(s, "q\"\\\nA"),
            other => panic!("expected string, got {other:?}"),
        }
    }

    #[test]
    fn json_parser_rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "{\"a\":}",
            "[1,]",
            "{\"a\":1} trailing",
            "\"unterminated",
            "nul",
            "1.2.3",
        ] {
            assert!(parse_json(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn service_certify_load_and_metrics_flow() {
        let mut svc = Service::new(1);
        let (r, stop) = svc.handle_line(
            r#"{"op":"load","handle":"iris","dataset":"iris","depth":1,"domain":"disjuncts"}"#,
        );
        assert!(!stop);
        assert!(r.contains("\"ok\":true"), "{r}");
        assert!(r.contains("\"epoch\":0"), "{r}");

        // Certify twice: the repeat must be a cross-request hit, and the
        // response lines must be byte-identical.
        let rq = r#"{"op":"certify","handle":"iris","x":[5.0,3.4,1.5,0.2],"n":2}"#;
        let (first, _) = svc.handle_line(rq);
        assert!(first.contains("\"verdict\""), "{first}");
        let (second, _) = svc.handle_line(rq);
        assert_eq!(first, second);
        let (metrics, _) = svc.handle_line(r#"{"op":"metrics"}"#);
        assert!(metrics.contains("\"requests_served\":2"), "{metrics}");
        assert!(
            metrics.contains("\"cross_request_cache_hits\":1"),
            "{metrics}"
        );
    }

    #[test]
    fn service_delta_advances_the_epoch_in_one_transfer() {
        let mut svc = Service::new(1);
        svc.handle_line(r#"{"op":"load","handle":"d","dataset":"iris","depth":1}"#);
        let (r, _) = svc.handle_line(
            r#"{"op":"delta","handle":"d","deltas":[{"remove":[0]},{"remove":[1,2]}]}"#,
        );
        assert!(r.contains("\"epoch\":2"), "{r}");
        // The chain crossed two epochs with one batched transfer; an
        // untouched cache transfers zero points but the registry swap
        // must have happened exactly once.
        let (again, _) =
            svc.handle_line(r#"{"op":"delta","handle":"d","deltas":[{"remove":[3]}]}"#);
        assert!(again.contains("\"epoch\":3"), "{again}");
    }

    #[test]
    fn service_errors_are_clean_lines() {
        let mut svc = Service::new(1);
        for (line, needle) in [
            ("not json", "invalid literal"),
            (r#"{"op":"nope"}"#, "unknown op"),
            (
                r#"{"op":"certify","handle":"ghost","x":[1],"n":1}"#,
                "no dataset loaded",
            ),
            (
                r#"{"op":"load","handle":"x","dataset":"ghost"}"#,
                "unknown dataset",
            ),
            (r#"{"op":"certify","handle":"ghost"}"#, "missing field"),
        ] {
            let (r, stop) = svc.handle_line(line);
            assert!(!stop);
            assert!(r.starts_with("{\"ok\":false"), "{r}");
            assert!(r.contains(needle), "{r} missing {needle}");
        }
    }

    #[test]
    fn service_batch_coalesces_and_orders_responses() {
        let mut svc = Service::new(1);
        svc.handle_line(
            r#"{"op":"load","handle":"b","dataset":"iris","depth":1,"domain":"disjuncts"}"#,
        );
        let (r, _) = svc.handle_line(
            r#"{"op":"batch","requests":[{"op":"certify","handle":"b","x":[5.0,3.4,1.5,0.2],"n":2},{"op":"certify","handle":"b","x":[5.0,3.4,1.5,0.2],"n":2},{"op":"sweep","handle":"b","points":[[5.0,3.4,1.5,0.2]],"max_n":4}]}"#,
        );
        assert!(r.contains("\"op\":\"batch\""), "{r}");
        assert!(r.contains("\"rungs\""), "{r}");
        let (metrics, _) = svc.handle_line(r#"{"op":"metrics"}"#);
        // Three requests served; the duplicate coalesced into a hit.
        assert!(metrics.contains("\"requests_served\":3"), "{metrics}");
        assert!(
            metrics.contains("\"cross_request_cache_hits\":1"),
            "{metrics}"
        );
    }

    #[test]
    fn serve_loop_stops_on_shutdown_and_skips_comments() {
        let mut svc = Service::new(1);
        let script =
            "# comment\n\n{\"op\":\"metrics\"}\n{\"op\":\"shutdown\"}\n{\"op\":\"metrics\"}\n";
        let mut out = Vec::new();
        serve_loop(&mut svc, script.as_bytes(), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "stopped at shutdown: {text}");
        assert!(lines[0].contains("\"op\":\"metrics\""));
        assert!(lines[1].contains("\"op\":\"shutdown\""));
    }

    /// A script touching every op: malformed lines between requests,
    /// state-changing ops mid-stream, duplicate requests (warm hits),
    /// and a trailing metrics line after shutdown that must not be
    /// answered.
    fn full_protocol_script() -> String {
        [
            "# annotated script",
            r#"{"op":"load","handle":"a","dataset":"iris","depth":1,"domain":"disjuncts"}"#,
            r#"{"op":"load","handle":"b","dataset":"iris","depth":1,"domain":"disjuncts"}"#,
            r#"{"op":"certify","handle":"a","x":[5.0,3.4,1.5,0.2],"n":2}"#,
            "not json",
            r#"{"op":"certify","handle":"a","x":[5.0,3.4,1.5,0.2],"n":2}"#,
            r#"{"op":"certify","handle":"ghost","x":[1],"n":1}"#,
            r#"{"op":"certify","handle":"b","x":[5.0,3.4,1.5,0.2],"n":2}"#,
            r#"{"op":"sweep","handle":"a","points":[[5.0,3.4,1.5,0.2]],"max_n":4}"#,
            r#"{"op":"batch","requests":[{"op":"certify","handle":"a","x":[6.1,2.8,4.7,1.2],"n":1},{"op":"certify","handle":"b","x":[6.1,2.8,4.7,1.2],"n":1}]}"#,
            r#"{"op":"delta","handle":"b","deltas":[{"remove":[0]}]}"#,
            r#"{"op":"certify","handle":"b","x":[5.0,3.4,1.5,0.2],"n":2}"#,
            r#"{"op":"nope"}"#,
            r#"{"op":"evict","handle":"b"}"#,
            r#"{"op":"certify","handle":"b","x":[5.0,3.4,1.5,0.2],"n":2}"#,
            r#"{"op":"metrics"}"#,
            r#"{"op":"shutdown"}"#,
            r#"{"op":"metrics"}"#,
        ]
        .join("\n")
            + "\n"
    }

    #[test]
    fn serve_loop_answers_every_line_in_admission_order() {
        let script = full_protocol_script();
        let mut out = Vec::new();
        serve_loop(&mut Service::new(1), script.as_bytes(), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        // One response per non-comment line up to and including
        // shutdown; the trailing metrics line goes unanswered.
        assert_eq!(lines.len(), 16, "{text}");
        assert!(lines[3].contains("invalid literal"), "{}", lines[3]);
        assert!(lines[5].contains("no dataset loaded"), "{}", lines[5]);
        assert!(lines[13].contains("no dataset loaded"), "{}", lines[13]);
        assert!(lines[15].contains("\"op\":\"shutdown\""), "{}", lines[15]);
    }

    /// A service with 4-feature iris loaded under handle `iris`.
    fn iris_service() -> Service {
        let mut svc = Service::new(1);
        let (r, _) = svc.handle_line(r#"{"op":"load","handle":"iris","dataset":"iris","depth":1}"#);
        assert!(r.contains("\"ok\":true"), "{r}");
        svc
    }

    /// Sends `bad` then a valid certify through [`serve_loop`]: `bad`
    /// must get exactly one error line containing `needle`, and the
    /// server must go on to answer the next request.
    fn rejects_then_serves(bad: &[u8], needle: &str) {
        let mut svc = iris_service();
        let mut input = bad.to_vec();
        input.extend_from_slice(
            b"\n{\"op\":\"certify\",\"handle\":\"iris\",\"x\":[5.1,3.5,1.4,0.2],\"n\":1}\n",
        );
        let mut out = Vec::new();
        serve_loop(&mut svc, input.as_slice(), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "{text}");
        assert!(
            lines[0].starts_with("{\"ok\":false,\"error\":"),
            "{}",
            lines[0]
        );
        assert!(lines[0].contains(needle), "{} missing {needle}", lines[0]);
        assert!(lines[1].contains("\"verdict\":\"robust\""), "{}", lines[1]);
    }

    #[test]
    fn short_point_is_rejected_not_a_panic() {
        rejects_then_serves(
            br#"{"op":"certify","handle":"iris","x":[1,2],"n":1}"#,
            "field 'x': row 0 has 2 features, schema expects 4",
        );
    }

    #[test]
    fn long_point_is_rejected_not_truncated() {
        rejects_then_serves(
            br#"{"op":"certify","handle":"iris","x":[5,3.4,1.5,0.2,99],"n":1}"#,
            "row 0 has 5 features, schema expects 4",
        );
    }

    #[test]
    fn non_finite_point_is_rejected() {
        rejects_then_serves(
            br#"{"op":"certify","handle":"iris","x":[1e999,1,1,1],"n":1}"#,
            "row 0, feature 0: value is not finite",
        );
    }

    #[test]
    fn sweep_and_batch_points_are_validated_too() {
        rejects_then_serves(
            br#"{"op":"sweep","handle":"iris","points":[[5.1,3.5,1.4,0.2],[1,-1e999,1,1]]}"#,
            "field 'points': row 1, feature 1: value is not finite",
        );
        rejects_then_serves(
            br#"{"op":"batch","requests":[{"op":"certify","handle":"iris","x":[5.1,3.5,1.4,0.2],"n":1},{"op":"certify","handle":"iris","x":[1],"n":1}]}"#,
            "field 'x': row 0 has 1 features",
        );
    }

    #[test]
    fn integers_beyond_2_pow_53_are_rejected_not_saturated() {
        rejects_then_serves(
            br#"{"op":"certify","handle":"iris","x":[5.1,3.5,1.4,0.2],"n":18446744073709551616}"#,
            "field 'n' must be an exact non-negative integer",
        );
        rejects_then_serves(
            br#"{"op":"certify","handle":"iris","x":[5.1,3.5,1.4,0.2],"n":9007199254740992}"#,
            "got 9007199254740992",
        );
        rejects_then_serves(
            br#"{"op":"delta","handle":"iris","deltas":[{"flip":[{"row":4294967296,"label":0}]}]}"#,
            "field 'row' must be an exact non-negative integer",
        );
        // The largest exact integer is still accepted.
        let obj = parse_json(r#"{"n":9007199254740991}"#).unwrap();
        assert_eq!(
            uint_field::<u64>(obj.as_obj().unwrap(), "n").unwrap(),
            9_007_199_254_740_991
        );
    }

    #[test]
    fn load_depth_is_capped() {
        let mut svc = Service::new(1);
        let (r, _) =
            svc.handle_line(r#"{"op":"load","handle":"deep","dataset":"iris","depth":1000000}"#);
        assert!(r.contains(&format!("must be at most {MAX_DEPTH}")), "{r}");
        let (r, _) = svc.handle_line(&format!(
            r#"{{"op":"load","handle":"deep","dataset":"iris","depth":{MAX_DEPTH}}}"#
        ));
        assert!(r.contains("\"ok\":true"), "{r}");
    }

    #[test]
    fn parser_nesting_stops_at_the_limit() {
        let nested = |d: usize| "[".repeat(d) + &"]".repeat(d);
        assert!(parse_json(&nested(MAX_NESTING)).is_ok());
        let err = parse_json(&nested(MAX_NESTING + 1)).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");
        // Far past the limit fails the same way instead of overflowing
        // the stack.
        rejects_then_serves("[".repeat(200_000).as_bytes(), "nesting deeper than");
    }

    #[test]
    fn invalid_utf8_line_gets_an_error_line() {
        rejects_then_serves(b"\xff", "not valid UTF-8");
        rejects_then_serves(b"{\"op\":\"metrics\xff\"}", "not valid UTF-8");
        // A comment stays a comment whatever bytes it holds.
        let mut svc = iris_service();
        let mut out = Vec::new();
        serve_loop(
            &mut svc,
            &b"# \xfe\xff\n{\"op\":\"shutdown\"}\n"[..],
            &mut out,
        )
        .unwrap();
        assert_eq!(
            String::from_utf8(out).unwrap(),
            "{\"ok\":true,\"op\":\"shutdown\"}\n"
        );
    }

    #[test]
    fn evicted_session_reloads_cold_with_identical_verdicts() {
        let mut svc = Service::new(1);
        let load = r#"{"op":"load","handle":"e","dataset":"iris","depth":1,"domain":"disjuncts"}"#;
        let rq = r#"{"op":"certify","handle":"e","x":[5.0,3.4,1.5,0.2],"n":2}"#;
        svc.handle_line(load);
        let (warm, _) = svc.handle_line(rq);
        let (evicted, _) = svc.handle_line(r#"{"op":"evict","handle":"e"}"#);
        assert!(evicted.contains("\"ok\":true"), "{evicted}");
        let (gone, _) = svc.handle_line(rq);
        assert!(gone.contains("no dataset loaded"), "{gone}");
        svc.handle_line(load);
        let (cold, _) = svc.handle_line(rq);
        assert_eq!(
            warm, cold,
            "re-certifying from cold must not change verdicts"
        );
        let (metrics, _) = svc.handle_line(r#"{"op":"metrics"}"#);
        assert!(metrics.contains("\"sessions_evicted\":1"), "{metrics}");
    }

    #[test]
    fn max_sessions_evicts_the_least_recently_used_handle() {
        let mut svc = Service::new(1).max_sessions(2);
        for h in ["a", "b"] {
            svc.handle_line(&format!(
                r#"{{"op":"load","handle":"{h}","dataset":"iris","depth":1}}"#
            ));
        }
        // Touch "a" so "b" is the LRU victim when "c" arrives.
        svc.handle_line(r#"{"op":"certify","handle":"a","x":[5.0,3.4,1.5,0.2],"n":1}"#);
        svc.handle_line(r#"{"op":"load","handle":"c","dataset":"iris","depth":1}"#);
        let (b, _) =
            svc.handle_line(r#"{"op":"certify","handle":"b","x":[5.0,3.4,1.5,0.2],"n":1}"#);
        assert!(b.contains("no dataset loaded"), "{b}");
        for h in ["a", "c"] {
            let (r, _) = svc.handle_line(&format!(
                r#"{{"op":"certify","handle":"{h}","x":[5.0,3.4,1.5,0.2],"n":1}}"#
            ));
            assert!(r.contains("\"verdict\""), "{r}");
        }
        let (metrics, _) = svc.handle_line(r#"{"op":"metrics"}"#);
        assert!(metrics.contains("\"sessions_evicted\":1"), "{metrics}");
    }

    #[test]
    fn cotenant_handles_share_one_warm_unit_unless_disarmed() {
        let load_a =
            r#"{"op":"load","handle":"a","dataset":"iris","depth":1,"domain":"disjuncts"}"#;
        let load_b =
            r#"{"op":"load","handle":"b","dataset":"iris","depth":1,"domain":"disjuncts"}"#;
        let rq =
            |h: &str| format!(r#"{{"op":"certify","handle":"{h}","x":[5.0,3.4,1.5,0.2],"n":2}}"#);

        let mut shared = Service::new(1);
        shared.handle_line(load_a);
        shared.handle_line(load_b);
        let (ra, _) = shared.handle_line(&rq("a"));
        let (rb, _) = shared.handle_line(&rq("b"));
        assert_eq!(
            ra.replace("\"handle\":\"a\"", "\"handle\":\"b\""),
            rb,
            "co-tenants must answer byte-identically up to the handle"
        );
        let (m, _) = shared.handle_line(r#"{"op":"metrics"}"#);
        assert!(m.contains("\"warm_state_shared_hits\":1"), "{m}");
        // The second tenant rides the first tenant's warm cache.
        assert!(m.contains("\"cross_request_cache_hits\":1"), "{m}");

        let mut private = Service::new(1).no_share();
        private.handle_line(load_a);
        private.handle_line(load_b);
        let (pa, _) = private.handle_line(&rq("a"));
        let (pb, _) = private.handle_line(&rq("b"));
        assert_eq!(pa, ra, "sharing must not change response bytes");
        assert_eq!(pb, rb);
        let (pm, _) = private.handle_line(r#"{"op":"metrics"}"#);
        assert!(pm.contains("\"warm_state_shared_hits\":0"), "{pm}");
        assert!(pm.contains("\"cross_request_cache_hits\":0"), "{pm}");
    }

    #[test]
    fn metrics_reports_the_derived_hit_rate() {
        let mut svc = Service::new(1);
        let (m0, _) = svc.handle_line(r#"{"op":"metrics"}"#);
        assert!(m0.contains("\"cross_request_hit_rate\":0.000"), "{m0}");
        svc.handle_line(r#"{"op":"load","handle":"h","dataset":"iris","depth":1}"#);
        let rq = r#"{"op":"certify","handle":"h","x":[5.0,3.4,1.5,0.2],"n":2}"#;
        svc.handle_line(rq);
        svc.handle_line(rq);
        let (m, _) = svc.handle_line(r#"{"op":"metrics"}"#);
        assert!(m.contains("\"cross_request_hit_rate\":0.500"), "{m}");
    }
}
