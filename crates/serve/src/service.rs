//! The synthesis service: request decoding, cache-aware execution, and
//! response rendering — transport-independent (stdio and HTTP both feed
//! [`Service::handle_line`]).
//!
//! # Protocol (`rms-serve-v1`)
//!
//! One JSON object per line in, one JSON object per line out.
//!
//! **Synthesis request** — a circuit plus pipeline options:
//!
//! ```json
//! {"id":"r1","circuit":".model t\n.inputs a b\n…","format":"blif",
//!  "opt":"cut","effort":40,"realization":"maj",
//!  "frontend":"direct","verify":"auto","seed":7,"deterministic":false}
//! ```
//!
//! `circuit` carries the text of any supported frontend format (sniffed
//! when `format` is omitted); `bench` names an embedded benchmark
//! instead. All option fields are optional and default to the CLI
//! defaults. `deterministic:true` zeroes the wall-clock timing fields of
//! the report so responses are byte-reproducible (the determinism bar
//! the batch tests enforce).
//!
//! **Batch request** — many circuits, one shared option set, fanned out
//! over the scoped-thread pool (`jobs` overrides the worker count; 0
//! means all cores, and any value is capped at the core count, or at
//! `RMS_THREADS` when that is set):
//!
//! ```json
//! {"id":"b1","batch":[{"id":"x","bench":"misex1"},{"id":"y","circuit":"…"}],
//!  "opt":"cut","jobs":4}
//! ```
//!
//! A single request runs as a one-item batch: the request is its own
//! item, its id is the item's default id, and its `jobs` field is
//! ignored. The `batch` key changes only the response's shape: the
//! item envelopes are wrapped as `{…,"count":n,"results":[…]}` instead
//! of sent bare. An item without an `id` of its own gets `b1[i]`.
//!
//! Item envelopes come in **input order**, and are bit-identical across
//! worker counts: items are classified against the cache up front,
//! unique misses run in parallel, and cache insertion + response
//! assembly happen sequentially in input order.
//!
//! **Ops** — `{"op":"stats"}` returns cache counters,
//! `{"op":"ping"}` a liveness probe.
//!
//! Every response carries `"protocol":"rms-serve-v1"`, the echoed `id`
//! and a `status` (`ok` / `error`). A synthesis result adds, in this
//! order:
//!
//! - `cache`: the disposition, `hit`, `miss`, or `bypass` for a
//!   deadline-truncated best-effort result that was not cached;
//! - `options`: the canonical option string, the options half of the
//!   cache key (the structural hash half is not sent);
//! - `provenance`: the proof-carrying [`Provenance`] record
//!   (`request_id`, `verified`, `proof`, `sat_conflicts`,
//!   `sat_decisions`, `cached_at`) plus the entry's `hits`;
//! - `report`: the full `rms_flow` JSON report (schema-stamped, see
//!   `rms_flow::REPORT_SCHEMA`).
//!
//! An error carries `kind` (see [`kind`]) and the `error` message
//! instead.

use crate::cache::{CacheKey, CacheStats, Entry, Provenance, ResultCache};
use crate::faults;
use crate::json::Value;
use crate::persist::{Journal, ReplayStats};
use rms_core::netlist_structural_hash;
use rms_core::opt::{Algorithm, OptOptions};
use rms_core::{par, CancelToken, Realization};
use rms_flow::{
    escape_json, input, render_json, FlowError, Frontend, InputFormat, Pipeline, StageTimings,
    VerifyMode, VerifyOutcome,
};
use rms_logic::{bench_suite, Netlist};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Duration;

/// Protocol identifier stamped into every response line.
pub const PROTOCOL: &str = "rms-serve-v1";

/// Default cache byte budget (64 MiB) — thousands of small-suite-sized
/// reports.
pub const DEFAULT_CACHE_BYTES: usize = 64 << 20;

/// Default upper bound on HTTP request bodies (64 MiB — a structural
/// netlist of millions of gates fits comfortably).
pub const DEFAULT_MAX_BODY_BYTES: usize = 64 << 20;

/// Default concurrent-connection cap for the HTTP transport; excess
/// connections are shed with `503 Service Unavailable` instead of
/// queuing without bound.
pub const DEFAULT_MAX_CONNS: usize = 256;

/// Default socket read/write timeout for the HTTP transport — a stalled
/// peer cannot pin a connection slot forever.
pub const DEFAULT_IO_TIMEOUT: Duration = Duration::from_secs(30);

/// Machine-readable error kinds stamped into `status:"error"`
/// envelopes (the `kind` field).
pub mod kind {
    /// Malformed request: bad JSON, unknown options, unparsable circuit.
    pub const BAD_REQUEST: &str = "bad_request";
    /// The run was abandoned at the request deadline.
    pub const TIMEOUT: &str = "timeout";
    /// The pipeline produced a result that failed verification.
    pub const VERIFICATION: &str = "verification_failed";
    /// The handler panicked or hit an invariant violation; the request
    /// was isolated and the server keeps serving.
    pub const INTERNAL: &str = "internal_error";
    /// The HTTP connection cap was reached; retry later.
    pub const OVERLOADED: &str = "overloaded";
}

/// Server-level configuration (one per [`Service`]).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Byte budget of the result cache.
    pub cache_bytes: usize,
    /// Default batch fan-out worker count (0 = all cores, the `par_map`
    /// default); a request's `jobs` field overrides it. Either is capped
    /// at [`par::num_threads`].
    pub jobs: usize,
    /// Upper bound on HTTP request bodies; larger requests are rejected
    /// with `413 Payload Too Large` before any body allocation.
    pub max_body_bytes: usize,
    /// Directory for the crash-safe cache journal (`--cache-dir`);
    /// `None` keeps the cache memory-only.
    pub cache_dir: Option<PathBuf>,
    /// Default per-request deadline in milliseconds (`--deadline-ms`);
    /// a request's own `deadline_ms` field overrides it.
    pub deadline_ms: Option<u64>,
    /// Default best-effort mode (`--best-effort`): deadline-cancelled
    /// runs return their best verified iterate instead of a timeout
    /// error.
    pub best_effort: bool,
    /// Concurrent HTTP connection cap; excess connections get `503`.
    pub max_conns: usize,
    /// HTTP socket read/write timeout (`None` = unbounded).
    pub io_timeout: Option<Duration>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            cache_bytes: DEFAULT_CACHE_BYTES,
            jobs: 0,
            max_body_bytes: DEFAULT_MAX_BODY_BYTES,
            cache_dir: None,
            deadline_ms: None,
            best_effort: false,
            max_conns: DEFAULT_MAX_CONNS,
            io_timeout: Some(DEFAULT_IO_TIMEOUT),
        }
    }
}

/// A classified service-level error: a machine-readable [`kind`] plus
/// a human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeError {
    /// One of the [`kind`] constants.
    pub kind: &'static str,
    /// Human-readable diagnostic.
    pub message: String,
}

impl ServeError {
    fn bad_request(message: impl Into<String>) -> ServeError {
        ServeError {
            kind: kind::BAD_REQUEST,
            message: message.into(),
        }
    }

    fn internal(message: impl Into<String>) -> ServeError {
        ServeError {
            kind: kind::INTERNAL,
            message: message.into(),
        }
    }

    fn from_flow(e: &FlowError) -> ServeError {
        let kind = match e {
            FlowError::Timeout(_) => kind::TIMEOUT,
            FlowError::Verification(_) => kind::VERIFICATION,
            _ => kind::BAD_REQUEST,
        };
        ServeError {
            kind,
            message: e.to_string(),
        }
    }
}

/// The normalized pipeline options of a request — the second half of the
/// cache key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestOptions {
    /// Optimization algorithm (default: Alg. 3, like the CLI).
    pub algorithm: Algorithm,
    /// Majority-gate realization.
    pub realization: Realization,
    /// Optimization effort (cycles).
    pub effort: usize,
    /// Initial MIG construction.
    pub frontend: Frontend,
    /// Verification policy.
    pub verify: VerifyMode,
    /// Sampled-verification seed.
    pub seed: u64,
    /// Zero the report's timing fields for byte-reproducible responses.
    pub deterministic: bool,
    /// Per-request deadline in milliseconds. **Not** part of the cache
    /// key: a completed run's result is identical whatever deadline it
    /// raced.
    pub deadline_ms: Option<u64>,
    /// On deadline expiry, return the best verified completed iterate
    /// instead of a timeout error. Also not part of the cache key —
    /// truncated results are never cached at all.
    pub best_effort: bool,
}

impl Default for RequestOptions {
    fn default() -> Self {
        RequestOptions {
            algorithm: Algorithm::RramCosts,
            realization: Realization::Maj,
            effort: OptOptions::default().effort,
            frontend: Frontend::Direct,
            verify: VerifyMode::Auto,
            seed: rms_flow::DEFAULT_VERIFY_SEED,
            deterministic: false,
            deadline_ms: None,
            best_effort: false,
        }
    }
}

impl RequestOptions {
    /// Decodes the option fields of a request object, leaving defaults
    /// for absent fields.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending field on unknown values.
    pub fn from_json(v: &Value) -> Result<RequestOptions, String> {
        let mut o = RequestOptions::default();
        if let Some(f) = v.get("opt").or_else(|| v.get("algorithm")) {
            let name = f.as_str().ok_or("\"opt\" must be a string")?;
            o.algorithm =
                Algorithm::from_name(name).ok_or_else(|| format!("unknown algorithm {name:?}"))?;
        }
        if let Some(f) = v.get("realization") {
            let name = f.as_str().ok_or("\"realization\" must be a string")?;
            o.realization = Realization::from_name(name)
                .ok_or_else(|| format!("unknown realization {name:?}"))?;
        }
        if let Some(f) = v.get("effort") {
            o.effort =
                f.as_u64()
                    .ok_or("\"effort\" must be a non-negative integer")? as usize;
        }
        // The algorithm alone fixes the rewrite round. A request that
        // still names an engine is rejected, not ignored, so a client that
        // asked for the rebuild round is told it would not get it.
        if let Some(f) = v.get("engine") {
            let shown = f.as_str().map(|n| format!(" {n:?}")).unwrap_or_default();
            return Err(format!(
                "unknown engine{shown}: the \"engine\" option was removed; \
                 \"opt\" alone selects the flow"
            ));
        }
        if let Some(f) = v.get("frontend") {
            let name = f.as_str().ok_or("\"frontend\" must be a string")?;
            o.frontend =
                Frontend::from_name(name).ok_or_else(|| format!("unknown frontend {name:?}"))?;
        }
        if let Some(f) = v.get("verify") {
            let name = f.as_str().ok_or("\"verify\" must be a string")?;
            o.verify = VerifyMode::from_name(name)
                .ok_or_else(|| format!("unknown verify mode {name:?}"))?;
        }
        if let Some(f) = v.get("seed") {
            o.seed = f
                .as_u64()
                .ok_or("\"seed\" must be a non-negative integer")?;
        }
        if let Some(f) = v.get("deterministic") {
            o.deterministic = f.as_bool().ok_or("\"deterministic\" must be a boolean")?;
        }
        if let Some(f) = v.get("deadline_ms") {
            o.deadline_ms = Some(
                f.as_u64()
                    .ok_or("\"deadline_ms\" must be a non-negative integer")?,
            );
        }
        if let Some(f) = v.get("best_effort") {
            o.best_effort = f.as_bool().ok_or("\"best_effort\" must be a boolean")?;
        }
        Ok(o)
    }

    /// The canonical option string: stable machine tokens in a fixed
    /// field order, so every request spelling that produces the same
    /// flow produces the same cache key.
    pub fn canonical(&self) -> String {
        format!(
            "alg={};realization={};effort={};frontend={};verify={};seed={};det={}",
            self.algorithm.token(),
            self.realization,
            self.effort,
            self.frontend,
            self.verify,
            self.seed,
            self.deterministic as u8
        )
    }
}

/// One circuit of a request (a single request is a batch of one).
#[derive(Debug, Clone)]
struct CircuitSpec {
    /// Echoed response id.
    id: String,
    /// Display name for formats that carry none.
    name: String,
    source: Source,
}

#[derive(Debug, Clone)]
enum Source {
    Text {
        format: Option<InputFormat>,
        text: String,
    },
    Bench(String),
}

impl CircuitSpec {
    fn from_json(v: &Value, default_id: String) -> Result<CircuitSpec, String> {
        let id = match v.get("id") {
            Some(f) => f.as_str().ok_or("\"id\" must be a string")?.to_string(),
            None => default_id,
        };
        let name = match v.get("name") {
            Some(f) => f.as_str().ok_or("\"name\" must be a string")?.to_string(),
            None => "request".to_string(),
        };
        let format = match v.get("format") {
            Some(f) => {
                let fname = f.as_str().ok_or("\"format\" must be a string")?;
                Some(
                    InputFormat::from_name(fname)
                        .ok_or_else(|| format!("unknown format {fname:?}"))?,
                )
            }
            None => None,
        };
        let source = match (v.get("circuit"), v.get("bench")) {
            (Some(c), None) => Source::Text {
                format,
                text: c
                    .as_str()
                    .ok_or("\"circuit\" must be a string")?
                    .to_string(),
            },
            (None, Some(b)) => {
                Source::Bench(b.as_str().ok_or("\"bench\" must be a string")?.to_string())
            }
            (Some(_), Some(_)) => return Err("give \"circuit\" or \"bench\", not both".into()),
            (None, None) => return Err("request needs a \"circuit\" or \"bench\" field".into()),
        };
        Ok(CircuitSpec { id, name, source })
    }

    fn resolve(&self) -> Result<Netlist, String> {
        match &self.source {
            Source::Bench(name) => bench_netlist(name)
                .cloned()
                // Generated large-suite circuits are built on demand
                // rather than held resident: at 4k-70k gates each they
                // would dominate the server's memory for requests most
                // deployments never make.
                .or_else(|| rms_logic::large_suite::build(name))
                .ok_or_else(|| format!("unknown benchmark {name:?} (see `rms bench --list`)")),
            Source::Text { format, text } => match format {
                Some(f) => input::parse_str(*f, text, &self.name),
                None => input::parse_sniffed(text, &self.name),
            }
            .map_err(|e| e.to_string()),
        }
    }
}

/// The embedded benchmark suites, parsed **once per process** and shared
/// by every request (the CLI parses per invocation; the server must
/// not).
fn bench_netlists() -> &'static BTreeMap<String, Netlist> {
    static SUITES: OnceLock<BTreeMap<String, Netlist>> = OnceLock::new();
    SUITES.get_or_init(|| {
        let mut map = BTreeMap::new();
        for nl in bench_suite::large_suite()
            .into_iter()
            .chain(bench_suite::small_suite())
        {
            map.insert(nl.name().to_string(), nl);
        }
        map
    })
}

/// A parsed benchmark by name, from the shared per-process map.
fn bench_netlist(name: &str) -> Option<&'static Netlist> {
    bench_netlists().get(name)
}

/// One completed pipeline run: the rendered report, the verification
/// outcome, and whether the optimizer was truncated at the deadline
/// (best-effort runs only — truncated results must never be cached).
#[derive(Debug, Clone)]
struct PipelineRun {
    report_json: String,
    verify: VerifyOutcome,
    cancelled: bool,
}

/// A pipeline run or a classified failure.
type RunResult = Result<PipelineRun, ServeError>;

/// The outcome of one circuit's execution, before response rendering.
enum ItemOutcome {
    Hit(Entry),
    Miss(Entry),
    /// A deadline-truncated best-effort result: verified, returned to
    /// the caller, but **not** cached (a completed run would produce a
    /// different, better report under the same key).
    BestEffort(Entry),
    Error(ServeError),
}

/// Mutable service state behind one mutex: the cache and its journal
/// move together so an insert and its journal append are atomic with
/// respect to other requests.
struct State {
    cache: ResultCache,
    journal: Option<Journal>,
}

/// The long-lived synthesis service.
///
/// Construction prewarms every piece of shared per-process state (the
/// NPN tables and the NPN-222 MIG database via [`rms_cut::prewarm`]) so
/// the one-time setup cost lands at startup, not inside the first
/// request.
///
/// # Fault isolation
///
/// [`Service::handle_line`] wraps request handling in `catch_unwind`:
/// a panic anywhere in decoding or the pipeline becomes a structured
/// `internal_error` response and the server keeps serving. The state
/// mutex is recovered from poisoning (a panicked request cannot wedge
/// the cache for everyone else); this is sound because the cache's
/// invariants hold between method calls and no method is re-entered
/// after a panic.
pub struct Service {
    state: Mutex<State>,
    config: ServeConfig,
    replay: Option<ReplayStats>,
}

impl Service {
    /// A fresh service with the given configuration. When
    /// `config.cache_dir` is set, the journal found there is replayed
    /// into the cache (see [`Service::replay_stats`]); an unusable
    /// cache directory degrades to a memory-only cache with a warning
    /// on stderr rather than refusing to serve.
    pub fn new(mut config: ServeConfig) -> Self {
        rms_cut::prewarm();
        config.max_conns = config.max_conns.max(1);
        let mut cache = ResultCache::new(config.cache_bytes);
        let mut replay = None;
        let journal =
            config
                .cache_dir
                .as_ref()
                .and_then(|dir| match Journal::open(dir, &mut cache) {
                    Ok((journal, stats)) => {
                        replay = Some(stats);
                        Some(journal)
                    }
                    Err(e) => {
                        eprintln!(
                            "rms serve: cache journal disabled ({} unusable: {e})",
                            dir.display()
                        );
                        None
                    }
                });
        Service {
            state: Mutex::new(State { cache, journal }),
            config,
            replay,
        }
    }

    /// The configuration the service was built with (`max_conns` raised
    /// to at least 1); the transports read their caps and timeouts here.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// What journal replay restored at startup (`None` when no cache
    /// directory is configured or the journal was unusable).
    pub fn replay_stats(&self) -> Option<ReplayStats> {
        self.replay
    }

    /// The state lock, recovering from poisoning: a request that
    /// panicked while holding the lock must not wedge every later
    /// request (see the type-level docs for why recovery is sound).
    fn lock_state(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|poisoned| {
            self.state.clear_poison();
            poisoned.into_inner()
        })
    }

    /// Current cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.lock_state().cache.stats()
    }

    /// Clean shutdown: compacts the journal down to the live cache
    /// contents (dropping evicted and superseded records) via an
    /// atomic temp-file rename. Call on EOF / SIGTERM; skipping it is
    /// safe — the append-only journal already has every entry — it
    /// just leaves the file larger than it needs to be.
    pub fn shutdown(&self) {
        let mut state = self.lock_state();
        let snapshot = state.cache.snapshot();
        if let Some(journal) = state.journal.as_mut() {
            if let Err(e) = journal.compact(&snapshot) {
                eprintln!("rms serve: cache journal compaction failed: {e}");
            }
        }
    }

    /// Handles one protocol line and returns one response line (no
    /// trailing newline). Never panics — malformed input becomes a
    /// `status:"error"` response, and a panic anywhere in the handler
    /// (a pipeline bug, an injected fault) is caught and mapped to a
    /// structured `internal_error` response so one poisoned request
    /// cannot take the server down.
    pub fn handle_line(&self, line: &str) -> String {
        match catch_unwind(AssertUnwindSafe(|| self.handle_line_inner(line))) {
            Ok(response) => response,
            Err(payload) => {
                let id = Value::parse(line)
                    .ok()
                    .and_then(|v| v.get("id").and_then(Value::as_str).map(str::to_string))
                    .unwrap_or_default();
                error_envelope(
                    &id,
                    kind::INTERNAL,
                    &format!("request handler panicked: {}", panic_message(&payload)),
                )
            }
        }
    }

    fn handle_line_inner(&self, line: &str) -> String {
        let v = match Value::parse(line) {
            Ok(v) if v.is_object() => v,
            Ok(_) => return error_envelope("", kind::BAD_REQUEST, "request must be a JSON object"),
            Err(e) => return error_envelope("", kind::BAD_REQUEST, &e.to_string()),
        };
        let id = v
            .get("id")
            .and_then(Value::as_str)
            .unwrap_or("")
            .to_string();
        if let Some(op) = v.get("op") {
            return match op.as_str() {
                Some("stats") => self.stats_envelope(&id),
                Some("ping") => format!(
                    "{{\"protocol\":\"{PROTOCOL}\",\"id\":\"{}\",\"status\":\"ok\",\"op\":\"ping\"}}",
                    escape_json(&id)
                ),
                _ => error_envelope(&id, kind::BAD_REQUEST, "unknown op (expected \"stats\" or \"ping\")"),
            };
        }
        // Injected request faults (the robustness harness): only honored
        // when fault injection is enabled for this process — a production
        // server ignores the field.
        if let Some(f) = v.get("fault").and_then(Value::as_str) {
            if f == "panic" && faults::enabled() {
                panic!("injected fault: request {id:?} asked for a panic");
            }
        }
        let mut opts = match RequestOptions::from_json(&v) {
            Ok(o) => o,
            Err(e) => return error_envelope(&id, kind::BAD_REQUEST, &e),
        };
        if opts.deadline_ms.is_none() {
            opts.deadline_ms = self.config.deadline_ms;
        }
        opts.best_effort |= self.config.best_effort;
        // A single request is a batch of one: the request is its own
        // item, and the item id defaults to the request id. `"batch"`
        // only adds the `count`/`results` wrapping.
        let Some(batch) = v.get("batch") else {
            return self
                .execute(std::slice::from_ref(&v), |_| id.clone(), &opts, 1)
                .swap_remove(0);
        };
        let Some(items) = batch.as_array() else {
            return error_envelope(&id, kind::BAD_REQUEST, "\"batch\" must be an array");
        };
        let jobs = match v.get("jobs") {
            Some(j) => match j.as_u64() {
                Some(n) => n as usize,
                None => {
                    return error_envelope(
                        &id,
                        kind::BAD_REQUEST,
                        "\"jobs\" must be a non-negative integer",
                    )
                }
            },
            None => self.config.jobs,
        };
        let results = self.execute(items, |i| format!("{id}[{i}]"), &opts, jobs);
        format!(
            "{{\"protocol\":\"{PROTOCOL}\",\"id\":\"{}\",\"status\":\"ok\",\"count\":{},\"results\":[{}]}}",
            escape_json(&id),
            results.len(),
            results.join(",")
        )
    }

    /// Builds the cache entry for `run`, inserts it, and journals it
    /// (making it durable against `kill -9` before the response that
    /// announces it is written); returns the entry as stored (for the
    /// miss response). A journal append failure disables persistence
    /// for the rest of the process — the in-memory cache keeps working.
    fn insert(&self, key: &CacheKey, request_id: &str, run: &PipelineRun) -> Entry {
        let mut state = self.lock_state();
        let entry = entry_of(request_id, run, state.cache.next_insert_tick());
        state.cache.insert(key.clone(), entry.clone());
        if let Some(journal) = state.journal.as_mut() {
            if let Err(e) = journal.append(key, &entry) {
                eprintln!("rms serve: cache journal disabled after append failure: {e}");
                state.journal = None;
            }
        }
        entry
    }

    /// The one executor every synthesis request runs through (a single
    /// request is a batch of one): returns one rendered envelope per
    /// item, in input order, byte-identical for every worker count
    /// `jobs` (0 = all cores). `item_id(i)` is the id of item `i` when
    /// it names none. A deadline-truncated best-effort run is returned
    /// but never inserted.
    fn execute(
        &self,
        items: &[Value],
        item_id: impl Fn(usize) -> String,
        opts: &RequestOptions,
        jobs: usize,
    ) -> Vec<String> {
        // Phase 1 (sequential): decode and parse every item.
        enum Prep {
            Err(String, ServeError), // (item id, error)
            Ready(CircuitSpec, Netlist, CacheKey),
        }
        let prepared: Vec<Prep> = items
            .iter()
            .enumerate()
            .map(|(i, item)| {
                let default_id = item_id(i);
                if !item.is_object() {
                    return Prep::Err(
                        default_id,
                        ServeError::bad_request("batch item must be an object"),
                    );
                }
                match CircuitSpec::from_json(item, default_id.clone()) {
                    Err(e) => Prep::Err(default_id, ServeError::bad_request(e)),
                    Ok(spec) => match spec.resolve() {
                        Err(e) => Prep::Err(spec.id.clone(), ServeError::bad_request(e)),
                        Ok(nl) => {
                            let key = cache_key(&nl, opts);
                            Prep::Ready(spec, nl, key)
                        }
                    },
                }
            })
            .collect();

        // Phase 2: classify every item under one lock. Hits are looked
        // up here and served from the captured entries, since a miss
        // inserted earlier in this batch may evict them before phase 3
        // renders them. The unique keys not cached (first occurrence in
        // this batch) run on the pool.
        let mut planned: Vec<Option<Entry>> = vec![None; prepared.len()];
        let mut to_compute: Vec<(&CacheKey, &Netlist)> = Vec::new();
        {
            let mut state = self.lock_state();
            for (p, hit) in prepared.iter().zip(&mut planned) {
                if let Prep::Ready(_, nl, key) = p {
                    if state.cache.contains(key) {
                        *hit = state.cache.lookup(key);
                    } else if !to_compute.iter().any(|(k, _)| *k == key) {
                        to_compute.push((key, nl));
                    }
                }
            }
        }
        let computed: Vec<RunResult> =
            par::par_map_threads(&to_compute, batch_workers(jobs), |(_, nl)| {
                run_pipeline((*nl).clone(), opts)
            });
        let by_key: Vec<(CacheKey, RunResult)> = to_compute
            .into_iter()
            .map(|(k, _)| k.clone())
            .zip(computed)
            .collect();

        // Phase 3 (sequential, input order): insert misses and render.
        // Best-effort truncated results are rendered but never inserted
        // — later occurrences of the same key re-read them from
        // `by_key` instead of the cache.
        let mut rendered: Vec<String> = Vec::with_capacity(prepared.len());
        for (p, planned) in prepared.iter().zip(planned) {
            let envelope = match p {
                Prep::Err(id, e) => error_envelope(id, e.kind, &e.message),
                Prep::Ready(spec, _, key) => {
                    // A key computed in this batch hits from its second
                    // occurrence on, unless it has been evicted again.
                    let hit = planned.or_else(|| self.lock_state().cache.lookup(key));
                    let outcome = match hit {
                        Some(entry) => ItemOutcome::Hit(entry),
                        None => match by_key.iter().find(|(k, _)| k == key) {
                            Some((_, Ok(run))) if run.cancelled => {
                                ItemOutcome::BestEffort(entry_of(&spec.id, run, 0))
                            }
                            Some((_, Ok(run))) => {
                                ItemOutcome::Miss(self.insert(key, &spec.id, run))
                            }
                            Some((_, Err(e))) => ItemOutcome::Error(e.clone()),
                            None => ItemOutcome::Error(ServeError::internal(
                                "batch item neither cached nor computed",
                            )),
                        },
                    };
                    render_outcome(&spec.id, opts, outcome)
                }
            };
            rendered.push(envelope);
        }
        rendered
    }

    fn stats_envelope(&self, id: &str) -> String {
        let s = self.cache_stats();
        format!(
            "{{\"protocol\":\"{PROTOCOL}\",\"id\":\"{}\",\"status\":\"ok\",\"op\":\"stats\",\
             \"entries\":{},\"bytes\":{},\"budget\":{},\"hits\":{},\"misses\":{},\
             \"evictions\":{},\"jobs\":{}}}",
            escape_json(id),
            s.entries,
            s.bytes,
            s.budget,
            s.hits,
            s.misses,
            s.evictions,
            self.config.jobs
        )
    }
}

/// The batch fan-out worker count for a requested `jobs`: `0` means all
/// cores, and every value is capped at [`par::num_threads`], so a
/// request cannot start more threads than the machine has cores.
fn batch_workers(jobs: usize) -> usize {
    let cores = par::num_threads();
    if jobs == 0 {
        cores
    } else {
        jobs.min(cores)
    }
}

/// The content address of (circuit, options).
fn cache_key(netlist: &Netlist, opts: &RequestOptions) -> CacheKey {
    CacheKey {
        structure: netlist_structural_hash(netlist),
        inputs: netlist.num_inputs() as u32,
        outputs: netlist.num_outputs() as u32,
        gates: netlist.num_gates() as u32,
        options: opts.canonical(),
    }
}

/// Runs the pipeline on an owned netlist and renders the report (one
/// line, no trailing newline). `deterministic` zeroes the stage timings
/// first. The request deadline becomes a [`CancelToken`] armed for the
/// whole run; with `best_effort` a truncated-but-verified result comes
/// back with `cancelled: true`, otherwise expiry is a timeout error.
fn run_pipeline(netlist: Netlist, opts: &RequestOptions) -> RunResult {
    let cancel = match opts.deadline_ms {
        Some(ms) => CancelToken::with_deadline(Duration::from_millis(ms)),
        None => CancelToken::default(),
    };
    let out = Pipeline::new(netlist)
        .algorithm(opts.algorithm)
        .realization(opts.realization)
        .effort(opts.effort)
        .frontend(opts.frontend)
        .verify_mode(opts.verify)
        .seed(opts.seed)
        .cancel(cancel)
        .best_effort(opts.best_effort)
        .run()
        .map_err(|e| ServeError::from_flow(&e))?;
    let mut report = out.report;
    if opts.deterministic {
        report.timings = StageTimings::default();
    }
    let verify = report.verify.clone();
    let cancelled = report.opt.cancelled;
    Ok(PipelineRun {
        report_json: render_json(&report).trim_end().to_string(),
        verify,
        cancelled,
    })
}

/// The cache entry for `run`, with the provenance of the request that
/// produced it. `cached_at` is the insert tick, or 0 for a
/// deadline-truncated best-effort result, which is never stored and
/// renders as `bypass`.
fn entry_of(request_id: &str, run: &PipelineRun, cached_at: u64) -> Entry {
    let (sat_conflicts, sat_decisions) = match run.verify {
        VerifyOutcome::Proved {
            conflicts,
            decisions,
        } => (conflicts, decisions),
        _ => (0, 0),
    };
    Entry {
        report_json: run.report_json.clone(),
        provenance: Provenance {
            request_id: request_id.to_string(),
            verified: run.verify.label(),
            proof: run.verify.is_proof(),
            sat_conflicts,
            sat_decisions,
            cached_at,
        },
        hits: 0,
    }
}

/// Best-effort description of a panic payload (the argument to
/// `panic!`, when it was a string).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "non-string panic payload"
    }
}

/// Renders a protocol error envelope; the transports also use it for
/// errors that never reach [`Service::handle_line`] (oversized lines,
/// invalid UTF-8, shed connections).
pub(crate) fn error_envelope(id: &str, kind: &str, message: &str) -> String {
    format!(
        "{{\"protocol\":\"{PROTOCOL}\",\"id\":\"{}\",\"status\":\"error\",\"kind\":\"{}\",\"error\":\"{}\"}}",
        escape_json(id),
        escape_json(kind),
        escape_json(message)
    )
}

/// Renders one synthesis outcome as a response envelope.
fn render_outcome(id: &str, opts: &RequestOptions, outcome: ItemOutcome) -> String {
    let (disposition, entry) = match outcome {
        ItemOutcome::Error(e) => return error_envelope(id, e.kind, &e.message),
        ItemOutcome::Hit(entry) => ("hit", entry),
        ItemOutcome::Miss(entry) => ("miss", entry),
        ItemOutcome::BestEffort(entry) => ("bypass", entry),
    };
    let p = &entry.provenance;
    format!(
        "{{\"protocol\":\"{PROTOCOL}\",\"id\":\"{}\",\"status\":\"ok\",\"cache\":\"{disposition}\",\
         \"options\":\"{}\",\"provenance\":{{\"request_id\":\"{}\",\"verified\":\"{}\",\
         \"proof\":{},\"sat_conflicts\":{},\"sat_decisions\":{},\"cached_at\":{},\"hits\":{}}},\
         \"report\":{}}}",
        escape_json(id),
        escape_json(&opts.canonical()),
        escape_json(&p.request_id),
        escape_json(&p.verified),
        p.proof,
        p.sat_conflicts,
        p.sat_decisions,
        p.cached_at,
        entry.hits,
        entry.report_json
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const BLIF: &str =
        ".model t\\n.inputs a b c\\n.outputs f\\n.names a b c f\\n11- 1\\n--1 1\\n.end\\n";

    fn service() -> Service {
        Service::new(ServeConfig::default())
    }

    #[test]
    fn canonical_options_string_is_pinned() {
        assert_eq!(
            RequestOptions::default().canonical(),
            "alg=rram;realization=MAJ;effort=40;frontend=direct;verify=auto;seed=24301;det=0"
        );
        let key = |algorithm| {
            RequestOptions {
                algorithm,
                ..RequestOptions::default()
            }
            .canonical()
        };
        let keys: std::collections::BTreeSet<String> =
            [Algorithm::Cut, Algorithm::CutRram, Algorithm::Sweep]
                .into_iter()
                .map(key)
                .collect();
        assert_eq!(keys.len(), 3, "{keys:?}");
    }

    #[test]
    fn batch_workers_are_capped_at_the_core_count() {
        let cores = par::num_threads();
        assert_eq!(batch_workers(0), cores);
        assert_eq!(batch_workers(1), 1);
        assert_eq!(batch_workers(cores), cores);
        assert_eq!(batch_workers(1_000_000), cores);
        assert_eq!(batch_workers(usize::MAX), cores);
    }

    #[test]
    fn single_request_misses_then_hits() {
        let s = service();
        let req = format!("{{\"id\":\"r1\",\"circuit\":\"{BLIF}\",\"opt\":\"cut\",\"effort\":4}}");
        let cold = s.handle_line(&req);
        assert!(cold.contains("\"cache\":\"miss\""), "{cold}");
        assert!(cold.contains("\"status\":\"ok\""));
        let warm = s.handle_line(&req.replace("r1", "r2"));
        assert!(warm.contains("\"cache\":\"hit\""), "{warm}");
        // Provenance names the *original* request.
        assert!(warm.contains("\"request_id\":\"r1\""), "{warm}");
        let stats = s.cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    }

    #[test]
    fn bench_and_format_fields_work() {
        let s = service();
        let r = s.handle_line("{\"id\":\"b\",\"bench\":\"rd53_f2\",\"effort\":2}");
        assert!(r.contains("\"status\":\"ok\""), "{r}");
        let r = s.handle_line(
            "{\"id\":\"e\",\"circuit\":\"f = maj(a, b, c)\",\"format\":\"expr\",\"effort\":2}",
        );
        assert!(r.contains("\"status\":\"ok\""), "{r}");
        // Sniffed expression without a format field.
        let r = s.handle_line("{\"id\":\"s\",\"circuit\":\"f = a & b\",\"effort\":2}");
        assert!(r.contains("\"status\":\"ok\""), "{r}");
    }

    #[test]
    fn protocol_errors_are_responses_not_panics() {
        let s = service();
        for bad in [
            "not json",
            "[1,2]",
            "{\"id\":\"x\"}",
            "{\"id\":\"x\",\"circuit\":\".model\",\"opt\":\"nope\"}",
            "{\"id\":\"x\",\"bench\":\"no_such_bench\"}",
            "{\"id\":\"x\",\"circuit\":\"f = (\"}",
            "{\"id\":\"x\",\"op\":\"launch\"}",
            "{\"id\":\"x\",\"circuit\":\"f = a\",\"bench\":\"misex1\"}",
        ] {
            let r = s.handle_line(bad);
            assert!(r.contains("\"status\":\"error\""), "{bad} -> {r}");
            assert!(r.starts_with(&format!("{{\"protocol\":\"{PROTOCOL}\"")));
        }
        let r = s.handle_line("{\"id\":\"p\",\"op\":\"ping\"}");
        assert!(r.contains("\"op\":\"ping\""), "{r}");
    }

    #[test]
    fn injected_panic_is_isolated_and_cache_survives() {
        let s = service();
        // Seed the cache.
        let req = format!("{{\"id\":\"r1\",\"circuit\":\"{BLIF}\",\"opt\":\"cut\",\"effort\":4}}");
        assert!(s.handle_line(&req).contains("\"cache\":\"miss\""));
        // A request that panics mid-handling becomes a structured
        // internal_error response...
        faults::arm("request-panic-gate", 0); // marks injection enabled
        let boom = s.handle_line("{\"id\":\"boom\",\"fault\":\"panic\",\"bench\":\"rd53_f2\"}");
        assert!(boom.contains("\"status\":\"error\""), "{boom}");
        assert!(boom.contains("\"kind\":\"internal_error\""), "{boom}");
        assert!(boom.contains("\"id\":\"boom\""), "{boom}");
        // ...and the next request is served from the intact cache.
        let warm = s.handle_line(&req.replace("r1", "r2"));
        assert!(warm.contains("\"cache\":\"hit\""), "{warm}");
    }

    #[test]
    fn expired_deadline_is_a_structured_timeout() {
        let s = service();
        let req = format!(
            "{{\"id\":\"t\",\"circuit\":\"{BLIF}\",\"opt\":\"cut\",\"effort\":4,\"deadline_ms\":0}}"
        );
        let r = s.handle_line(&req);
        assert!(r.contains("\"status\":\"error\""), "{r}");
        assert!(r.contains("\"kind\":\"timeout\""), "{r}");
        // A timed-out run leaves nothing behind: the same request
        // without a deadline is a miss, not a hit.
        let full = s.handle_line(&req.replace(",\"deadline_ms\":0", ""));
        assert!(full.contains("\"cache\":\"miss\""), "{full}");
    }

    #[test]
    fn best_effort_returns_verified_truncated_result_uncached() {
        let s = service();
        let req = format!(
            "{{\"id\":\"b\",\"circuit\":\"{BLIF}\",\"opt\":\"cut\",\"effort\":4,\
             \"deadline_ms\":0,\"best_effort\":true}}"
        );
        let r = s.handle_line(&req);
        assert!(r.contains("\"status\":\"ok\""), "{r}");
        assert!(r.contains("\"cache\":\"bypass\""), "{r}");
        assert!(r.contains("\"cancelled\":true"), "{r}");
        // Truncated results are verified but never cached.
        assert_eq!(s.cache_stats().entries, 0);
        let again = s.handle_line(&req);
        assert!(again.contains("\"cache\":\"bypass\""), "{again}");
        // The deadline does not leak into the content address.
        let opts_with = RequestOptions {
            deadline_ms: Some(50),
            best_effort: true,
            ..RequestOptions::default()
        };
        assert_eq!(opts_with.canonical(), RequestOptions::default().canonical());
    }

    #[test]
    fn journal_persists_across_service_instances() {
        let dir = std::env::temp_dir().join(format!("rms-serve-journal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = ServeConfig {
            cache_dir: Some(dir.clone()),
            ..ServeConfig::default()
        };
        let req = format!("{{\"id\":\"r1\",\"circuit\":\"{BLIF}\",\"opt\":\"cut\",\"effort\":4}}");
        let cold = {
            let s = Service::new(config.clone());
            assert_eq!(
                s.replay_stats(),
                Some(crate::persist::ReplayStats::default())
            );
            let cold = s.handle_line(&req);
            assert!(cold.contains("\"cache\":\"miss\""), "{cold}");
            cold
            // Dropped WITHOUT shutdown(): the append alone must be
            // durable, like a `kill -9`.
        };
        let s = Service::new(config.clone());
        assert_eq!(s.replay_stats().map(|r| r.replayed), Some(1));
        let warm = s.handle_line(&req.replace("r1", "r2"));
        assert!(warm.contains("\"cache\":\"hit\""), "{warm}");
        // The warm hit re-serves the original run's bytes: same report,
        // same provenance (request_id r1).
        assert!(warm.contains("\"request_id\":\"r1\""), "{warm}");
        let report = cold.split("\"report\":").nth(1).expect("cold report");
        assert!(warm.contains(report.trim_end_matches('}')), "{warm}");
        s.shutdown(); // compaction keeps the entry too
        let s2 = Service::new(config);
        assert_eq!(s2.replay_stats().map(|r| r.replayed), Some(1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn batch_fans_out_and_dedups() {
        let s = service();
        let req = format!(
            "{{\"id\":\"b1\",\"opt\":\"cut\",\"effort\":3,\"deterministic\":true,\"batch\":[\
             {{\"id\":\"i0\",\"bench\":\"rd53_f2\"}},\
             {{\"id\":\"i1\",\"circuit\":\"{BLIF}\"}},\
             {{\"id\":\"i2\",\"bench\":\"rd53_f2\"}},\
             {{\"id\":\"i3\",\"circuit\":\"bad(\"}}]}}"
        );
        let r = s.handle_line(&req);
        assert!(r.contains("\"count\":4"), "{r}");
        // The duplicate benchmark is a hit inside the same batch.
        let hit_pos = r.find("\"id\":\"i2\"").unwrap();
        assert!(r[hit_pos..].contains("\"cache\":\"hit\""), "{r}");
        assert!(r.contains("\"id\":\"i3\",\"status\":\"error\""), "{r}");
        // Re-running the whole batch on a different worker count is
        // byte-identical except every item is now a hit... so compare a
        // fresh service at two worker counts instead.
        let s1 = service();
        let s4 = service();
        let req1 = req.replace(
            "\"deterministic\":true",
            "\"deterministic\":true,\"jobs\":1",
        );
        let req4 = req.replace(
            "\"deterministic\":true",
            "\"deterministic\":true,\"jobs\":4",
        );
        assert_eq!(
            s1.handle_line(&req1),
            s4.handle_line(&req4),
            "batch responses must be bit-identical across worker counts"
        );
    }
}
