//! `rms-serve` — the persistent synthesis service behind `rms serve`.
//!
//! A long-lived process that accepts circuits over two transports —
//! newline-delimited JSON on stdio ([`run_stdio`]) and a minimal
//! std-only HTTP/1.1 listener ([`HttpServer`]) — runs them through the
//! [`rms_flow::Pipeline`], and memoizes every result in a
//! **content-addressed, proof-carrying cache** ([`cache::ResultCache`]):
//!
//! - the key is the *structural hash* of the parsed netlist
//!   ([`rms_core::netlist_structural_hash`], invariant under node
//!   numbering, names, and source format) crossed with the canonicalized
//!   pipeline options, so re-submitting the same circuit in a different
//!   spelling still hits;
//! - every entry carries [`cache::Provenance`] — which request produced
//!   it, the verification tier, SAT conflict/decision counts, and a
//!   logical timestamp — so a hit is a *proved* answer, not just a fast
//!   one;
//! - memory is bounded by an LRU byte budget with deterministic
//!   (wall-clock-free) eviction order.
//!
//! Per-process state that the CLI sets up on every invocation — the NPN
//! tables, the NPN-222 cut database (loaded from its committed table) and
//! the parsed benchmark suites — is set up once behind `OnceLock`s and
//! shared by every request. Every synthesis request runs as a batch (a
//! single request is a batch of one), and batches fan out over the same
//! scoped-thread pool as `rms bench`, with responses assembled
//! sequentially in input order so the byte stream is identical across
//! worker counts.
//!
//! The server is hardened for long-lived deployment: the cache can be
//! journaled to disk ([`persist`], `--cache-dir`) and survives `kill
//! -9` with byte-identical warm hits, per-request deadlines cancel the
//! optimizer cooperatively at deterministic checkpoints
//! (`--deadline-ms`, [`rms_core::CancelToken`]), panics are isolated
//! per request behind `catch_unwind`, and the failure paths are
//! testable through a fault-injection registry ([`faults`],
//! `RMS_FAULTS`).
//!
//! The wire protocol is documented on the [`service`] module; the
//! `ARCHITECTURE.md` sections "The synthesis server" and "Robustness"
//! at the repository root cover the design in prose.

pub mod cache;
pub mod faults;
pub mod http;
pub mod json;
pub mod persist;
pub mod service;
pub mod stdio;

pub use cache::{CacheKey, CacheStats, Entry, Provenance, ResultCache};
pub use http::{spawn_http, HttpServer};
pub use persist::{Journal, ReplayStats, JOURNAL_FILE, JOURNAL_MAGIC};
pub use service::{
    RequestOptions, ServeConfig, Service, DEFAULT_CACHE_BYTES, DEFAULT_MAX_BODY_BYTES,
    DEFAULT_MAX_CONNS, PROTOCOL,
};
pub use stdio::run_stdio;
