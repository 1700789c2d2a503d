//! The `serve-mix` workload: an in-process HTTP server on loopback and
//! two closed-loop clients replaying a seeded request mix.
//!
//! The key universe is the 25 Table III circuits × three algorithms.
//! The cache budget is half the working set, so hot keys hit, the tail
//! misses (runs the pipeline, inserts, evicts, appends to the journal),
//! and Verilog respellings hit entries their BLIF form inserted. Every
//! request is `deterministic:true`, so a report is a pure function of its
//! cache entry and can be checked byte for byte.
//!
//! The replay runs in slices with the calibration kernel timed between
//! them (see `calib`); the end-to-end times are calibrated per slice.
//!
//! The mix is synthetic: no `rms serve` traffic has been recorded, so
//! none of its parameters rests on observed data. Popularity follows the
//! classic Zipf law ([`ZIPF_S`] = 1) over a fixed ranking of the keys,
//! [`P_VERILOG`] of the requests are respelled as Verilog, and the
//! workload seed draws only the request order.
//!
//! Batch requests are left out of the mix: under this eviction pressure
//! a batch item that was cached when the batch was planned can be evicted
//! before the batch is assembled, and the service then answers it with
//! `internal_error` ("batch item neither cached nor computed").

use crate::calib;
use crate::check;
use crate::layers::{self, FlowConfig, Input, LayerAcc};
use crate::stats::{fnv1a, median, mix64, quantile, ratio, Rng};
use crate::trace::{Ctx, Tracer};
use crate::{Args, Outcome};
use rms_core::netlist_structural_hash;
use rms_core::opt::Algorithm;
use rms_flow::{escape_json, render_json, InputFormat, Pipeline, StageTimings, VerifyMode};
use rms_logic::{bench_suite, blif, verilog};
use rms_serve::json::Value;
use rms_serve::{
    CacheKey, CacheStats, Entry, HttpServer, Provenance, RequestOptions, ResultCache, ServeConfig,
    Service, JOURNAL_FILE,
};
use std::collections::{BTreeMap, BTreeSet};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Closed-loop client connections of the load generator.
pub const CLIENTS: usize = 2;
/// The replay runs in slices of this length; between slices the clients
/// pause while the calibration kernel runs.
const SLICE: Duration = Duration::from_millis(500);
/// Simulations per kernel call between slices.
const CALIB_REPS: usize = 4;
const ALGS: [Algorithm; 3] = [Algorithm::RramCosts, Algorithm::Cut, Algorithm::SweepResub];
const EFFORT: usize = 40;
/// Share of requests respelled as structural Verilog (an assumption:
/// enough respellings that every hot key is requested in both forms).
const P_VERILOG: f64 = 0.10;
/// Zipf exponent of key popularity: the classic Zipf law, assumed.
const ZIPF_S: f64 = 1.0;
/// Seed of the fixed popularity ranking, an arbitrary permutation that
/// keeps popularity independent of suite order and circuit size. It does
/// not depend on the run seed, so every run has the same hot set.
const RANK_SEED: u64 = 0x5e7e_0001;

/// One cache key of the universe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct Key {
    circuit: u16,
    alg: u8,
}

impl Key {
    fn options_json(self) -> String {
        format!(
            "\"opt\":\"{}\",\"effort\":{EFFORT},\"deterministic\":true",
            ALGS[self.alg as usize].token()
        )
    }
}

struct Circuit {
    input: Input,
    /// Index of the first circuit with the same structure hash: circuits
    /// of one class share cache entries (and the name of whichever
    /// inserted first).
    class: u16,
    verilog: String,
    blif_json: String,
    verilog_json: String,
}

/// The workload's inputs and the fixed popularity distribution.
pub struct Mix {
    circuits: Vec<Circuit>,
    ranked: Vec<Key>,
    cdf: Vec<f64>,
    seed: u64,
}

impl Mix {
    pub fn new(seed: u64) -> Result<Mix, String> {
        let mut circuits = Vec::new();
        let mut hashes = Vec::new();
        for info in bench_suite::SMALL_SUITE {
            let nl = bench_suite::build_info(info);
            let b = blif::write(&nl);
            // The Verilog respelling writes out the netlist the BLIF form
            // parses to, so both must address the same cache entry.
            let hb = rms_flow::input::parse_str(InputFormat::Blif, &b, info.name)
                .map_err(|e| format!("{}: BLIF: {e}", info.name))?;
            let v = verilog::write(&hb);
            let hv = rms_flow::input::parse_str(InputFormat::Verilog, &v, info.name)
                .map_err(|e| format!("{}: Verilog: {e}", info.name))?;
            if netlist_structural_hash(&hb) != netlist_structural_hash(&hv) {
                return Err(format!(
                    "{}: the Verilog respelling has another structure hash than the BLIF form",
                    info.name
                ));
            }
            let hash = netlist_structural_hash(&hb);
            let class = hashes
                .iter()
                .position(|&h| h == hash)
                .unwrap_or(hashes.len()) as u16;
            hashes.push(hash);
            circuits.push(Circuit {
                class,
                blif_json: escape_json(&b),
                verilog_json: escape_json(&v),
                verilog: v,
                input: Input {
                    name: info.name.to_string(),
                    format: InputFormat::Blif,
                    bytes: b.into_bytes(),
                    reference: nl,
                },
            });
        }
        let mut ranked = universe(circuits.len());
        let mut rng = Rng::new(RANK_SEED);
        for i in (1..ranked.len()).rev() {
            ranked.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
        }
        let mut cdf = Vec::with_capacity(ranked.len());
        let mut total = 0.0;
        for r in 0..ranked.len() {
            total += 1.0 / ((r + 1) as f64).powf(ZIPF_S);
            cdf.push(total);
        }
        cdf.iter_mut().for_each(|c| *c /= total);
        Ok(Mix {
            circuits,
            ranked,
            cdf,
            seed,
        })
    }

    fn draw(&self, rng: &mut Rng) -> Key {
        let u = rng.next_f64();
        let r = self
            .cdf
            .partition_point(|&c| c < u)
            .min(self.ranked.len() - 1);
        self.ranked[r]
    }

    /// Request `i` of the run — its key and whether it is spelled as
    /// Verilog — a pure function of the seed and `i`.
    fn request(&self, i: u64) -> (Key, bool) {
        let mut rng = Rng::new(mix64(self.seed ^ mix64(i)));
        let verilog = rng.next_f64() < P_VERILOG;
        (self.draw(&mut rng), verilog)
    }

    fn render(&self, i: u64, (key, verilog): (Key, bool)) -> String {
        let c = &self.circuits[key.circuit as usize];
        let (text, format) = if verilog {
            (&c.verilog_json, "verilog")
        } else {
            (&c.blif_json, "blif")
        };
        format!(
            "{{\"id\":\"q{i}\",\"circuit\":\"{text}\",\"format\":\"{format}\",{}}}",
            key.options_json()
        )
    }

    /// The cache entry `key` addresses: its circuit replaced by the
    /// circuit's structure class.
    fn entry(&self, key: Key) -> Key {
        Key {
            circuit: self.circuits[key.circuit as usize].class,
            ..key
        }
    }

    /// Every key addressing the same cache entry as `key`.
    fn aliases(&self, key: Key) -> impl Iterator<Item = Key> + '_ {
        let class = self.entry(key).circuit;
        (0..self.circuits.len() as u16)
            .filter(move |&c| self.circuits[c as usize].class == class)
            .map(move |circuit| Key { circuit, ..key })
    }

    fn base_keys(&self) -> Vec<Key> {
        universe(self.circuits.len())
    }
}

/// Every (circuit, algorithm) key, circuit-major.
fn universe(circuits: usize) -> Vec<Key> {
    (0..circuits as u16)
        .flat_map(|circuit| (0..ALGS.len() as u8).map(move |alg| Key { circuit, alg }))
        .collect()
}

/// One served response, as far as the checks need it.
#[derive(Debug, Clone)]
struct Response {
    index: u64,
    key: Key,
    verilog: bool,
    hit: bool,
    proof: bool,
    /// The request that inserted the served cache entry, from the
    /// response's `provenance.request_id`.
    inserter: u64,
    /// Fingerprint of the report bytes.
    report: u64,
}

/// One request as the client saw it.
#[derive(Debug)]
struct Record {
    latency: Duration,
    /// Index of the replay slice the request ran in.
    slice: usize,
    result: Result<Response, String>,
}

/// One slice of a replay.
struct Slice {
    wall: Duration,
    /// `calib::REF_MS` over the mean kernel time around the slice: turns a
    /// time into one on the reference machine.
    scale: f64,
}

/// What a replay returns: the records and the slices.
struct Replay {
    records: Vec<Record>,
    slices: Vec<Slice>,
}

/// The distinct miss (cold) reports served for each cache entry.
type Cold = Mutex<BTreeMap<Key, Vec<String>>>;

/// Decodes one response line; records every distinct miss report of a
/// cache entry as one of its cold responses.
fn decode(
    mix: &Mix,
    line: &str,
    index: u64,
    (key, verilog): (Key, bool),
    cold: &Cold,
) -> Result<Response, String> {
    let v = Value::parse(line).map_err(|e| format!("bad response JSON: {e}"))?;
    if v.get("status").and_then(Value::as_str) != Some("ok") {
        return Err(format!("error response: {line}"));
    }
    let hit = match v.get("cache").and_then(Value::as_str) {
        Some("hit") => true,
        Some("miss") => false,
        other => return Err(format!("unexpected cache disposition {other:?}")),
    };
    // The report is the envelope's last field.
    let report = line
        .split_once("\"report\":")
        .and_then(|(_, r)| r.strip_suffix('}'))
        .ok_or("response without a report")?;
    if !hit {
        let mut cold = cold.lock().expect("cold map lock poisoned");
        let seen = cold.entry(mix.entry(key)).or_default();
        if !seen.iter().any(|c| c == report) {
            seen.push(report.to_string());
        }
    }
    let provenance = v.get("provenance").ok_or("response without provenance")?;
    let inserter = provenance
        .get("request_id")
        .and_then(Value::as_str)
        .and_then(|id| id.strip_prefix('q')?.parse().ok())
        .ok_or("provenance without a request id of the mix")?;
    Ok(Response {
        index,
        key,
        verilog,
        hit,
        proof: provenance
            .get("proof")
            .and_then(Value::as_bool)
            .unwrap_or(false),
        inserter,
        report: fnv1a(report.as_bytes()),
    })
}

/// One HTTP/1.1 exchange over a fresh loopback connection.
fn post(addr: SocketAddr, body: &str) -> Result<String, String> {
    let mut s = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    s.set_nodelay(true).map_err(|e| e.to_string())?;
    write!(
        s,
        "POST /synth HTTP/1.1\r\nHost: bench\r\nContent-Type: application/x-ndjson\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .map_err(|e| format!("send: {e}"))?;
    let mut resp = String::new();
    s.read_to_string(&mut resp)
        .map_err(|e| format!("receive: {e}"))?;
    let (head, payload) = resp
        .split_once("\r\n\r\n")
        .ok_or("response without header end")?;
    let status = head.split_whitespace().nth(1).unwrap_or("");
    if status != "200" {
        return Err(format!("HTTP {status}: {}", payload.trim_end()));
    }
    Ok(payload.trim_end().to_string())
}

/// Replays the mix on [`CLIENTS`] closed-loop clients for `dur`, sending
/// request `i` through `send(client, i, line)`.
fn replay(
    mix: &Mix,
    dur: Duration,
    cold: &Cold,
    send: &(dyn Fn(usize, u64, &str) -> Result<String, String> + Sync),
) -> Replay {
    let next = AtomicU64::new(0);
    let start = Instant::now();
    let mut run = Replay {
        records: Vec::new(),
        slices: Vec::new(),
    };
    calib::prepare();
    let mut kernel = calib::time_ms(CALIB_REPS);
    while start.elapsed() < dur {
        let slice = run.slices.len();
        let t = Instant::now();
        let records = Mutex::new(Vec::new());
        std::thread::scope(|s| {
            for client in 0..CLIENTS {
                let (next, records) = (&next, &records);
                s.spawn(move || {
                    let mut mine = Vec::new();
                    while t.elapsed() < SLICE {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let req = mix.request(i);
                        let line = mix.render(i, req);
                        let t0 = Instant::now();
                        let resp = send(client, i, &line);
                        let latency = t0.elapsed();
                        mine.push(Record {
                            latency,
                            slice,
                            result: resp.and_then(|r| decode(mix, &r, i, req, cold)),
                        });
                    }
                    records
                        .lock()
                        .expect("record list lock poisoned")
                        .extend(mine);
                });
            }
        });
        let wall = t.elapsed();
        let after = calib::time_ms(CALIB_REPS);
        run.slices.push(Slice {
            wall,
            scale: ratio(calib::REF_MS, (kernel + after) / 2.0),
        });
        kernel = after;
        run.records
            .extend(records.into_inner().expect("record list lock poisoned"));
    }
    run
}

/// A key in one spelling (`true` = the Verilog respelling).
type RefKey = (Key, bool);

/// The in-process reference of one key: the report `Pipeline::run`
/// renders with zeroed timings, plus its quality counts.
struct Reference {
    report: String,
    hash: u64,
    gates: u64,
    rrams: u64,
    steps: u64,
}

fn reference(mix: &Mix, (key, verilog): RefKey) -> Result<Reference, String> {
    let c = &mix.circuits[key.circuit as usize];
    let (format, text) = if verilog {
        (InputFormat::Verilog, c.verilog.as_str())
    } else {
        let blif = std::str::from_utf8(&c.input.bytes).expect("BLIF text is UTF-8");
        (InputFormat::Blif, blif)
    };
    let out = Pipeline::from_str(format, text, &c.input.name)
        .map_err(|e| e.to_string())?
        .algorithm(ALGS[key.alg as usize])
        .effort(EFFORT)
        .run()
        .map_err(|e| e.to_string())?;
    check::outputs_match(
        &c.input.reference,
        &out.mig,
        &[("array", &out.array.program), ("plim", &out.plim.program)],
        mix64(key.circuit as u64 ^ mix.seed),
    )?;
    let mut report = out.report;
    report.timings = StageTimings::default();
    let json = render_json(&report).trim_end().to_string();
    Ok(Reference {
        hash: fnv1a(json.as_bytes()),
        report: json,
        gates: report.optimized.gates,
        rrams: report.cost.rrams,
        steps: report.cost.steps,
    })
}

type Refs = BTreeMap<RefKey, Result<Reference, String>>;

/// References for `keys`, computed on [`CLIENTS`] threads.
fn references(mix: &Mix, keys: &BTreeSet<RefKey>) -> Refs {
    let keys: Vec<RefKey> = keys.iter().copied().collect();
    let chunk = keys.len().div_ceil(CLIENTS).max(1);
    std::thread::scope(|s| {
        let handles: Vec<_> = keys
            .chunks(chunk)
            .map(|part| {
                s.spawn(move || {
                    part.iter()
                        .map(|&k| (k, reference(mix, k)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("reference worker panicked"))
            .collect()
    })
}

/// The cache bytes of the whole key universe, measured by inserting the
/// base keys' reference entries into an unbounded cache.
fn working_set_bytes(mix: &Mix, refs: &Refs) -> usize {
    let mut cache = ResultCache::new(usize::MAX);
    for ((key, _), r) in refs {
        let Ok(r) = r else { continue };
        let nl = &mix.circuits[key.circuit as usize].input.reference;
        let opts = RequestOptions {
            algorithm: ALGS[key.alg as usize],
            effort: EFFORT,
            deterministic: true,
            ..RequestOptions::default()
        };
        cache.insert(
            CacheKey {
                structure: key.circuit as u64,
                inputs: nl.num_inputs() as u32,
                outputs: nl.num_outputs() as u32,
                gates: nl.num_gates() as u32,
                options: opts.canonical(),
            },
            Entry {
                report_json: r.report.clone(),
                provenance: Provenance {
                    request_id: "q0000".into(),
                    verified: "exhaustive".into(),
                    proof: true,
                    sat_conflicts: 0,
                    sat_decisions: 0,
                    cached_at: 1,
                },
                hits: 0,
            },
        );
    }
    cache.stats().bytes
}

/// A served run: server up, mix replayed over HTTP, server drained.
struct Served {
    run: Replay,
    stats: CacheStats,
    journal_bytes: u64,
    compact: Duration,
    replay: Duration,
}

fn config(dir: &Path, budget: usize) -> ServeConfig {
    ServeConfig {
        cache_bytes: budget,
        jobs: 1,
        cache_dir: Some(dir.to_path_buf()),
        ..ServeConfig::default()
    }
}

/// A fresh, empty journal directory inside the benchmark's output tree.
pub fn journal_dir(tag: &str) -> Result<PathBuf, String> {
    let dir = crate::out_dir().join(format!("serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

/// Starts the service and HTTP server, replays the mix for `dur`, stops
/// the server, compacts the journal and times a restart over it.
fn serve_http(mix: &Mix, dur: Duration, budget: usize, cold: &Cold) -> Result<Served, String> {
    let dir = journal_dir("http")?;
    let cfg = config(&dir, budget);
    let service = Arc::new(Service::new(cfg.clone()));
    let server =
        HttpServer::bind(Arc::clone(&service), "127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = server.local_addr();
    let stop = AtomicBool::new(false);
    let run = std::thread::scope(|s| {
        let srv = s.spawn(|| server.run(&stop));
        let out = replay(mix, dur, cold, &|_, _, line| post(addr, line));
        stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(addr); // wakes the blocking accept
        let _ = srv.join().expect("server thread panicked");
        out
    });
    let stats = service.cache_stats();
    let journal_bytes = std::fs::metadata(dir.join(JOURNAL_FILE))
        .map(|m| m.len())
        .unwrap_or(0);
    let t0 = Instant::now();
    service.shutdown();
    let compact = t0.elapsed();
    drop(service);
    let t0 = Instant::now();
    let restarted = Service::new(cfg);
    let replay = t0.elapsed();
    let replayed = restarted.replay_stats().map_or(0, |r| r.replayed);
    drop(restarted);
    let _ = std::fs::remove_dir_all(&dir);
    if replayed != stats.entries {
        return Err(format!(
            "restart replayed {replayed} entries, the cache held {}",
            stats.entries
        ));
    }
    Ok(Served {
        run,
        stats,
        journal_bytes,
        compact,
        replay,
    })
}

/// The references a response for `key` may carry: every alias of its
/// cache entry, in every spelling computed.
fn accepted<'a>(mix: &Mix, refs: &'a Refs, key: Key) -> Vec<&'a Reference> {
    mix.aliases(key)
        .flat_map(|k| [(k, false), (k, true)])
        .filter_map(|rk| refs.get(&rk).and_then(|r| r.as_ref().ok()))
        .collect()
}

/// Checks every record against the references and the cold responses;
/// returns the failure message per record (`None` = passed).
///
/// A served report must equal the in-process `Pipeline::run` of the same
/// circuit and options, in one of the spellings or structurally equal
/// circuits that share its cache entry: the cache keys on the structure
/// hash, so whichever of them missed first fills the entry.
/// A hit must equal one of the cold (miss) responses of its key.
fn check_records(
    mix: &Mix,
    records: &[Record],
    refs: &Refs,
    cold: &BTreeMap<Key, Vec<String>>,
) -> Vec<Option<String>> {
    let verdict = |it: &Response| -> Result<(), String> {
        // A miss inserts the entry itself; a hit names the request that
        // inserted its entry, which must address the same entry (in either
        // spelling) for the structure hash to be right.
        if it.hit == (it.inserter == it.index) {
            return Err(format!(
                "{} names request q{} as inserter",
                if it.hit { "hit" } else { "miss" },
                it.inserter
            ));
        }
        if mix.entry(mix.request(it.inserter).0) != mix.entry(it.key) {
            return Err(format!(
                "served from the entry of request q{}, another key",
                it.inserter
            ));
        }
        if !matches!(refs.get(&(it.key, false)), Some(Ok(_))) {
            return Err("no BLIF reference".into());
        }
        let accepted = accepted(mix, refs, it.key);
        if !accepted.iter().any(|r| r.hash == it.report) {
            return Err("report differs from the in-process Pipeline::run".into());
        }
        let colds = cold
            .get(&mix.entry(it.key))
            .ok_or("served without any cold response")?;
        if let Some(c) = colds
            .iter()
            .find(|c| !accepted.iter().any(|r| r.report == **c))
        {
            return Err(format!("cold report differs from the reference: {c}"));
        }
        if it.hit && !colds.iter().any(|c| fnv1a(c.as_bytes()) == it.report) {
            return Err("hit report differs from every cold response".into());
        }
        Ok(())
    };
    records
        .iter()
        .map(|r| match &r.result {
            Err(e) => Some(e.clone()),
            Ok(it) => verdict(it).err().map(|e| {
                let spelling = if it.verilog { " (verilog)" } else { "" };
                format!("key {:?}{spelling}: {e}", it.key)
            }),
        })
        .collect()
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Serves every circuit in its BLIF form and then respelled as Verilog
/// on a fresh service with room for every entry. The respelling must hit
/// the entry the BLIF form inserted (or hit), that is, both spellings must
/// have the same structure hash. Returns the failures.
fn respelling_probe(mix: &Mix) -> Vec<String> {
    let service = Service::new(ServeConfig {
        cache_bytes: usize::MAX,
        jobs: 1,
        ..ServeConfig::default()
    });
    let served = |line: &str| -> Option<(String, String)> {
        let v = Value::parse(line).ok()?;
        let cache = v.get("cache")?.as_str()?.to_string();
        let id = v
            .get("provenance")?
            .get("request_id")?
            .as_str()?
            .to_string();
        Some((cache, id))
    };
    let mut failures = Vec::new();
    for (n, c) in mix.circuits.iter().enumerate() {
        let key = Key {
            circuit: n as u16,
            alg: 0,
        };
        let id = 2 * n as u64;
        let blif = served(&service.handle_line(&mix.render(id, (key, false))));
        let verilog = served(&service.handle_line(&mix.render(id + 1, (key, true))));
        match (&blif, &verilog) {
            (Some((_, b)), Some((hit, v))) if hit == "hit" && v == b => {}
            _ => failures.push(format!(
                "{}: the Verilog respelling (cache, inserter) {verilog:?} is not served \
                 from the entry of its BLIF form {blif:?}",
                c.input.name
            )),
        }
    }
    failures
}

/// Setup of one server process: the NPN tables and database, the
/// service over an empty journal, and the bind.
pub fn setup_probe() -> Result<(f64, f64), String> {
    let dir = journal_dir("probe")?;
    let t0 = Instant::now();
    rms_cut::prewarm();
    let prewarm = t0.elapsed();
    let service = Arc::new(Service::new(config(&dir, rms_serve::DEFAULT_CACHE_BYTES)));
    let server = HttpServer::bind(service, "127.0.0.1:0").map_err(|e| e.to_string())?;
    let total = t0.elapsed();
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
    Ok((prewarm.as_secs_f64(), total.as_secs_f64()))
}

pub fn run(args: &Args, out: &mut Vec<String>) -> Outcome {
    let mut o = Outcome::default();
    let mix = match Mix::new(args.seed) {
        Ok(m) => m,
        Err(e) => {
            o.attempted = 1;
            o.fail(e);
            return o;
        }
    };
    let base: BTreeSet<RefKey> = mix.base_keys().into_iter().map(|k| (k, false)).collect();
    let mut refs = references(&mix, &base);
    let budget = working_set_bytes(&mix, &refs) / 2;
    let cold = Cold::default();
    let dur = Duration::from_secs_f64(if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    });
    let served = match serve_http(&mix, dur, budget, &cold) {
        Ok(s) => s,
        Err(e) => {
            o.attempted = 1;
            o.fail(e);
            return o;
        }
    };

    for e in respelling_probe(&mix) {
        o.fail(e);
    }

    // Phase B of the traced run: the same mix through `handle_line`.
    let tracer = Tracer::new();
    let mut inproc: Vec<Record> = Vec::new();
    let cold_b = Cold::default();
    if args.trace {
        match journal_dir("inproc") {
            Ok(dir) => {
                let service = Service::new(config(&dir, budget));
                let run = replay(&mix, dur, &cold_b, &|client, i, line| {
                    let ctx = Ctx::root(i, client as u64 + 1);
                    Ok(tracer
                        .span(ctx, "serve.handle_line", |_| service.handle_line(line))
                        .0)
                });
                inproc = run.records;
                drop(service);
                let _ = std::fs::remove_dir_all(&dir);
            }
            Err(e) => o.fail(e),
        }
    }

    // References for every key and spelling served beyond the base set.
    let seen: BTreeSet<RefKey> = served
        .run
        .records
        .iter()
        .chain(&inproc)
        .filter_map(|r| r.result.as_ref().ok())
        .flat_map(|it| {
            mix.aliases(it.key)
                .flat_map(move |k| [(k, false), (k, it.verilog)])
        })
        .filter(|k| !refs.contains_key(k))
        .collect();
    refs.extend(references(&mix, &seen));
    // Cache entries whose aliases optimize to different reports.
    let divergent = refs
        .keys()
        .filter(|(k, v)| !v && mix.entry(*k) == *k)
        .filter(|(k, _)| {
            let a = accepted(&mix, &refs, *k);
            a.iter().any(|r| r.hash != a[0].hash)
        })
        .count();

    let cold = cold.into_inner().expect("cold map lock poisoned");
    let verdicts = check_records(&mix, &served.run.records, &refs, &cold);
    // Calibrated latencies per slice for the end-to-end metrics, plain ones
    // for the per-layer HTTP overhead.
    let slices = &served.run.slices;
    let mut per_slice: Vec<Vec<f64>> = vec![Vec::new(); slices.len()];
    let mut plain = Vec::new();
    let (mut proved, mut cross_hits) = (0u64, 0u64);
    for (r, v) in served.run.records.iter().zip(&verdicts) {
        o.attempted += 1;
        match (v, &r.result) {
            (None, Ok(it)) => {
                per_slice[r.slice].push(ms(r.latency) * slices[r.slice].scale);
                plain.push(ms(r.latency));
                proved += it.proof as u64;
                cross_hits += (it.hit && mix.request(it.inserter).1 != it.verilog) as u64;
            }
            (Some(e), _) => o.fail(e.clone()),
            (None, Err(e)) => o.fail(e.clone()),
        }
    }
    let cold_b = cold_b.into_inner().expect("cold map lock poisoned");
    for v in check_records(&mix, &inproc, &refs, &cold_b) {
        o.attempted += 1;
        if let Some(e) = v {
            o.fail(format!("in-process: {e}"));
        }
    }
    for ((k, _), r) in &refs {
        if let Err(e) = r {
            o.fail(format!("reference {k:?}: {e}"));
        }
    }

    out.push(format!(
        "{:<10} {:<12} {:>8} {:>8} {:>8}  (base keys, in-process reference)",
        "circuit", "algorithm", "gates", "R", "S"
    ));
    let (mut gates, mut rrams, mut steps) = (0u64, 0u64, 0u64);
    for &(k, v) in &base {
        if let Some(Ok(r)) = refs.get(&(k, v)) {
            gates += r.gates;
            rrams += r.rrams;
            steps += r.steps;
            out.push(format!(
                "{:<10} {:<12} {:>8} {:>8} {:>8}",
                mix.circuits[k.circuit as usize].input.name,
                ALGS[k.alg as usize].token(),
                r.gates,
                r.rrams,
                r.steps
            ));
        }
    }
    let s = &served.stats;
    let wall: Duration = slices.iter().map(|sl| sl.wall).sum();
    out.push(format!(
        "served {} requests in {:.3} s over {} slices (plain p50 {:.3} ms, p95 {:.3} ms) on {CLIENTS} clients; cache budget {budget} B, \
         hits {} misses {} evictions {} entries {}; hits across spellings {cross_hits}; \
         cache entries whose aliases (respellings, equal structures) give different reports {divergent}; journal {} B",
        served.run.records.len(),
        wall.as_secs_f64(),
        slices.len(),
        median(&plain),
        quantile(&plain, 0.95),
        s.hits,
        s.misses,
        s.evictions,
        s.entries,
        served.journal_bytes
    ));

    // Each figure is the median over the slices of that slice's figure, so
    // a slice slowed past what its kernel calls caught weighs no more than
    // any other.
    let m = &mut o.metrics;
    let rates: Vec<f64> = per_slice
        .iter()
        .zip(slices)
        .map(|(l, sl)| ratio(l.len() as f64, sl.wall.as_secs_f64() * sl.scale))
        .collect();
    let busy = per_slice.iter().filter(|l| !l.is_empty());
    let p50: Vec<f64> = busy.clone().map(|l| median(l)).collect();
    let p95: Vec<f64> = busy.map(|l| quantile(l, 0.95)).collect();
    m.set("items_per_s", median(&rates));
    m.set("latency_p50_ms", median(&p50));
    m.set("latency_p95_ms", median(&p95));
    m.set("gates", gates as f64);
    m.set("rram_devices", rrams as f64);
    m.set("rram_steps", steps as f64);
    o.proved_frac = ratio(proved as f64, plain.len() as f64);

    if args.trace {
        let handle: Vec<f64> = inproc.iter().map(|r| ms(r.latency)).collect();
        let split = |hit: bool| -> Vec<f64> {
            inproc
                .iter()
                .filter(|r| matches!(&r.result, Ok(it) if it.hit == hit))
                .map(|r| ms(r.latency))
                .collect()
        };
        m.set("serve.handle_ms_p50", median(&handle));
        m.set("serve.handle_ms_p95", quantile(&handle, 0.95));
        m.set("serve.hit_ms_p50", median(&split(true)));
        m.set("serve.miss_ms_p50", median(&split(false)));
        m.set(
            "serve.http_overhead_ms",
            median(&plain) - median(&handle),
        );
        m.set(
            "serve.hit_ratio",
            ratio(s.hits as f64, (s.hits + s.misses) as f64),
        );
        m.set("serve.evictions", s.evictions as f64);
        m.set("serve.cache_bytes", s.bytes as f64);
        m.set("serve.journal_bytes", served.journal_bytes as f64);
        m.set("serve.compact_ms", ms(served.compact));
        m.set("serve.replay_ms", ms(served.replay));

        // The lower layers, traced over the base keys.
        let cfg = FlowConfig {
            effort: EFFORT,
            verify: VerifyMode::Auto,
            jobs: None,
        };
        let mut acc = LayerAcc::default();
        for (n, &(k, _)) in base.iter().enumerate() {
            let input = &mix.circuits[k.circuit as usize].input;
            let alg = ALGS[k.alg as usize];
            let t0 = Instant::now();
            let untraced = cfg.pipeline(input, alg, rms_flow::DEFAULT_VERIFY_SEED);
            let dt = t0.elapsed();
            let ctx = Ctx::root(n as u64 + 1, 0);
            let (traced, item) = tracer.span(ctx, "flow.item", |c| {
                layers::run_stages(&tracer, c, input, alg, &cfg, rms_flow::DEFAULT_VERIFY_SEED)
            });
            match (untraced, traced) {
                (Ok(u), Ok(t))
                    if u.mig.num_gates() == t.mig.num_gates()
                        && u.report.cost == t.cost
                        && u.report.verify == t.verify =>
                {
                    acc.record(alg, &t, dt, item, true)
                }
                (Ok(_), Ok(_)) => o.fail(format!(
                    "{}/{}: traced run differs",
                    input.name,
                    alg.token()
                )),
                (Err(e), _) | (_, Err(e)) => o.fail(format!("{}/{}: {e}", input.name, alg.token())),
            }
        }
        acc.emit(&mut o.metrics);
        out.push(format!(
            "trace: {} in-process requests, {} spans, coverage median {:.4}",
            inproc.len(),
            tracer.len(),
            o.metrics.get("flow.trace_coverage")
        ));
        o.tracer = Some(tracer);
    }
    o
}
