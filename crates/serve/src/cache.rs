//! The content-addressed, proof-carrying result cache.
//!
//! Every synthesis result the server computes is memoized under a
//! [`CacheKey`]: the **structural hash** of the parsed netlist
//! ([`rms_core::netlist_structural_hash`] — invariant under node
//! numbering, names, and source format) crossed with the **canonical
//! option string** (the normalized pipeline configuration, see
//! `service::RequestOptions::canonical`). Two requests that parse to the
//! same DAG and ask for the same flow therefore share one entry, no
//! matter how their circuits were spelled.
//!
//! Entries carry the full rendered JSON report *plus* a [`Provenance`]
//! record — which request first produced the result, how it was verified
//! (tier label, SAT conflict/decision counts), and a logical cache
//! timestamp — so a cache hit is never a bare answer: clients can always
//! see that the bytes they received were proved once, and when.
//!
//! Memory is bounded by an **LRU byte budget**: each entry is charged its
//! report + provenance size, and inserts evict least-recently-used
//! entries until the total fits. Recency is tracked with a logical tick
//! (a `BTreeMap` recency index keyed by tick), so eviction order is
//! deterministic given the request order — wall clocks never enter.

use rms_core::hash::FxHashMap;
use std::collections::BTreeMap;

/// The content address of one synthesis result.
///
/// The structural hash does the heavy lifting; input/output/gate counts
/// ride along as a cheap guard against 64-bit collisions between
/// obviously different circuits, and the canonical option string keeps
/// distinct flows (algorithm, realization, effort, …) apart.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// [`rms_core::netlist_structural_hash`] of the parsed circuit.
    pub structure: u64,
    /// Primary input count of the circuit.
    pub inputs: u32,
    /// Primary output count of the circuit.
    pub outputs: u32,
    /// Gate count of the circuit.
    pub gates: u32,
    /// Canonical option string (stable token spelling, fixed field
    /// order), e.g. `alg=cut;realization=MAJ;effort=40;…`.
    pub options: String,
}

impl CacheKey {
    /// Bytes this key charges against the budget.
    fn bytes(&self) -> usize {
        self.options.len() + std::mem::size_of::<CacheKey>()
    }
}

/// Where a cached result came from and how it was verified.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Provenance {
    /// `id` of the request whose run produced the entry.
    pub request_id: String,
    /// Verification tier label of that run (e.g. `exhaustive`,
    /// `sat-proved (…)`).
    pub verified: String,
    /// Whether that run's verification was a full-input-space guarantee.
    pub proof: bool,
    /// SAT conflicts spent proving the result (0 for exhaustive runs).
    pub sat_conflicts: u64,
    /// SAT decisions spent proving the result.
    pub sat_decisions: u64,
    /// Logical insertion timestamp: the cache tick at which the entry
    /// was stored (monotonic per cache, deterministic given the request
    /// order).
    pub cached_at: u64,
}

/// One memoized synthesis result.
#[derive(Debug, Clone)]
pub struct Entry {
    /// The full `rms_flow::render_json` report of the cold run, byte for
    /// byte.
    pub report_json: String,
    /// Proof-carrying origin record.
    pub provenance: Provenance,
    /// Number of cache hits served from this entry so far.
    pub hits: u64,
}

impl Entry {
    fn bytes(&self) -> usize {
        self.report_json.len()
            + self.provenance.request_id.len()
            + self.provenance.verified.len()
            + std::mem::size_of::<Entry>()
    }
}

/// Aggregate counters, served by `GET /stats` and the `stats` op.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Entries currently resident.
    pub entries: usize,
    /// Bytes currently charged.
    pub bytes: usize,
    /// Byte budget.
    pub budget: usize,
    /// Lifetime hit count.
    pub hits: u64,
    /// Lifetime miss count.
    pub misses: u64,
    /// Lifetime eviction count.
    pub evictions: u64,
}

struct Slot {
    entry: Entry,
    last_used: u64,
    bytes: usize,
}

/// The LRU result cache. Not internally synchronized — the service wraps
/// it in a `Mutex` (lookups are string-compare cheap; pipeline runs
/// happen outside the lock).
pub struct ResultCache {
    budget: usize,
    bytes: usize,
    tick: u64,
    map: FxHashMap<CacheKey, Slot>,
    /// tick → key, the LRU order (first entry = coldest).
    recency: BTreeMap<u64, CacheKey>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl ResultCache {
    /// An empty cache with the given byte budget. A budget of 0 disables
    /// memoization (every insert is immediately evicted).
    pub fn new(budget: usize) -> Self {
        ResultCache {
            budget,
            bytes: 0,
            tick: 0,
            map: FxHashMap::default(),
            recency: BTreeMap::new(),
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// Looks up `key`, bumping recency and the hit counters on success
    /// and the miss counter on failure. Returns a clone (entries are
    /// small next to the pipeline work a miss implies, and the lock must
    /// not be held while the caller formats a response).
    pub fn lookup(&mut self, key: &CacheKey) -> Option<Entry> {
        let tick = self.next_tick();
        match self.map.get_mut(key) {
            Some(slot) => {
                self.recency.remove(&slot.last_used);
                slot.last_used = tick;
                self.recency.insert(tick, key.clone());
                slot.entry.hits += 1;
                self.hits += 1;
                Some(slot.entry.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Peeks without touching recency or counters.
    pub fn contains(&self, key: &CacheKey) -> bool {
        self.map.contains_key(key)
    }

    /// The tick the next insert will stamp as [`Provenance::cached_at`]
    /// (callers build the provenance record before inserting).
    pub fn next_insert_tick(&self) -> u64 {
        self.tick + 1
    }

    /// Inserts an entry, evicting LRU entries to fit the budget. If the
    /// key is already present (two racing misses computed the same
    /// deterministic result), the existing entry is kept — its hit
    /// statistics and provenance stay intact — and the candidate is
    /// dropped.
    pub fn insert(&mut self, key: CacheKey, entry: Entry) {
        if self.map.contains_key(&key) {
            return;
        }
        let tick = self.next_tick();
        let bytes = key.bytes() + entry.bytes();
        self.bytes += bytes;
        self.recency.insert(tick, key.clone());
        self.map.insert(
            key,
            Slot {
                entry,
                last_used: tick,
                bytes,
            },
        );
        while self.bytes > self.budget {
            let Some((&coldest, _)) = self.recency.iter().next() else {
                break;
            };
            let key = self.recency.remove(&coldest).expect("tick just seen");
            let slot = self.map.remove(&key).expect("recency and map agree");
            self.bytes -= slot.bytes;
            self.evictions += 1;
        }
    }

    /// A snapshot of the live contents in recency order (coldest
    /// first), used by journal compaction — replaying the snapshot in
    /// order through [`ResultCache::insert`] reproduces the LRU order.
    pub fn snapshot(&self) -> Vec<(CacheKey, Entry)> {
        self.recency
            .values()
            .map(|key| {
                let slot = self.map.get(key).expect("recency and map agree");
                (key.clone(), slot.entry.clone())
            })
            .collect()
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            entries: self.map.len(),
            bytes: self.bytes,
            budget: self.budget,
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(structure: u64, options: &str) -> CacheKey {
        CacheKey {
            structure,
            inputs: 2,
            outputs: 1,
            gates: 3,
            options: options.to_string(),
        }
    }

    fn entry(report: &str, cached_at: u64) -> Entry {
        Entry {
            report_json: report.to_string(),
            provenance: Provenance {
                request_id: "r".into(),
                verified: "exhaustive".into(),
                proof: true,
                sat_conflicts: 0,
                sat_decisions: 0,
                cached_at,
            },
            hits: 0,
        }
    }

    #[test]
    fn hit_miss_and_counters() {
        let mut c = ResultCache::new(1 << 20);
        let k = key(7, "alg=cut");
        assert!(c.lookup(&k).is_none());
        c.insert(k.clone(), entry("{}", c.next_insert_tick()));
        let hit = c.lookup(&k).expect("hit");
        assert_eq!(hit.report_json, "{}");
        assert_eq!(hit.hits, 1);
        assert_eq!(c.lookup(&k).unwrap().hits, 2);
        let s = c.stats();
        assert_eq!((s.entries, s.hits, s.misses), (1, 2, 1));
        // Same structure, different options: distinct entry.
        assert!(c.lookup(&key(7, "alg=area")).is_none());
    }

    #[test]
    fn lru_eviction_respects_recency() {
        // Budget fits roughly two entries of this size.
        let probe = key(0, "o").bytes() + entry("x", 0).bytes();
        let mut c = ResultCache::new(probe * 2 + probe / 2);
        c.insert(key(1, "o"), entry("x", 0));
        c.insert(key(2, "o"), entry("x", 0));
        // Touch 1 so 2 becomes the LRU victim.
        assert!(c.lookup(&key(1, "o")).is_some());
        c.insert(key(3, "o"), entry("x", 0));
        assert!(c.contains(&key(1, "o")), "recently used must survive");
        assert!(!c.contains(&key(2, "o")), "LRU entry must be evicted");
        assert!(c.contains(&key(3, "o")));
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn zero_budget_disables_memoization() {
        let mut c = ResultCache::new(0);
        c.insert(key(1, "o"), entry("x", 0));
        assert_eq!(c.stats().entries, 0);
        assert!(c.lookup(&key(1, "o")).is_none());
    }

    #[test]
    fn double_insert_keeps_first_entry() {
        let mut c = ResultCache::new(1 << 20);
        let k = key(9, "o");
        c.insert(k.clone(), entry("first", 1));
        assert_eq!(c.lookup(&k).unwrap().hits, 1);
        c.insert(k.clone(), entry("second", 2));
        let e = c.lookup(&k).unwrap();
        assert_eq!(e.report_json, "first");
        assert_eq!(e.hits, 2, "hit statistics survive a duplicate insert");
        assert_eq!(c.stats().entries, 1);
    }
}
