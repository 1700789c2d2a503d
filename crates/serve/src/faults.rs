//! Test-support fault injection: named fault points that production
//! code consults at interesting boundaries (journal appends, request
//! handling) and tests arm to force rare failure paths.
//!
//! A fault point is a name with a remaining-shot counter. Production
//! code calls [`fire`] (or [`io_error`]) at the point; an armed name
//! fires — decrementing its counter — and the code takes the failure
//! path as if the real fault had happened. Unarmed names never fire and
//! cost one mutex lock on a tiny map, so the hooks are safe to leave in
//! release builds.
//!
//! Faults are armed two ways:
//!
//! - in-process, via [`arm`] (the unit and integration tests);
//! - across an `exec`, via the `RMS_FAULTS` environment variable — a
//!   comma-separated list of `name` or `name:count` items, read once at
//!   first use (the spawned-server robustness tests). `RMS_FAULTS=
//!   "journal-append:1,request-panic"` arms one journal-append failure
//!   and an unbounded request panic.
//!
//! The request-level `"fault":"panic"` protocol field is only honored
//! when injection is [`enabled`] — a production server ignores it.

use std::collections::BTreeMap;
use std::io;
use std::sync::{Mutex, OnceLock};

/// Counter for a fault point: `None` = fire forever, `Some(n)` = fire
/// `n` more times.
type Shots = Option<u64>;

struct Registry {
    /// Whether injection was ever turned on (env var present or `arm`
    /// called) — gates request-level fault fields.
    enabled: bool,
    points: BTreeMap<String, Shots>,
}

fn registry() -> &'static Mutex<Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        let mut points = BTreeMap::new();
        let mut enabled = false;
        if let Ok(spec) = std::env::var("RMS_FAULTS") {
            enabled = true;
            for item in spec.split(',') {
                let item = item.trim();
                if item.is_empty() {
                    continue;
                }
                match item.split_once(':') {
                    Some((name, count)) => {
                        let shots = count.trim().parse::<u64>().ok();
                        points.insert(name.trim().to_string(), shots);
                    }
                    None => {
                        points.insert(item.to_string(), None);
                    }
                }
            }
        }
        Mutex::new(Registry { enabled, points })
    })
}

fn lock() -> std::sync::MutexGuard<'static, Registry> {
    registry().lock().unwrap_or_else(|p| p.into_inner())
}

/// Arms `name` to fire `count` times (in-process test setup).
pub fn arm(name: &str, count: u64) {
    let mut r = lock();
    r.enabled = true;
    r.points.insert(name.to_string(), Some(count));
}

/// Whether fault injection was ever turned on in this process. Gates
/// protocol-level fault requests so production servers ignore them.
pub fn enabled() -> bool {
    lock().enabled
}

/// Consults the fault point `name`: returns `true` (and consumes a
/// shot) if it is armed, `false` otherwise.
pub fn fire(name: &str) -> bool {
    let mut r = lock();
    match r.points.get_mut(name) {
        None => false,
        Some(None) => true,
        Some(Some(0)) => false,
        Some(Some(n)) => {
            *n -= 1;
            true
        }
    }
}

/// An injected I/O error for fault point `name`, or `None` when the
/// point is not armed — `file.write(...)`-shaped code does
/// `if let Some(e) = faults::io_error("point") { return Err(e); }`.
pub fn io_error(name: &str) -> Option<io::Error> {
    fire(name).then(|| io::Error::other(format!("injected fault: {name}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unarmed_points_never_fire() {
        assert!(!fire("no-such-fault"));
        assert!(io_error("no-such-fault").is_none());
    }

    #[test]
    fn armed_points_fire_exactly_count_times() {
        arm("unit-double", 2);
        assert!(fire("unit-double"));
        assert!(fire("unit-double"));
        assert!(!fire("unit-double"), "shots are consumed");
        assert!(enabled());
    }

    #[test]
    fn io_errors_carry_the_point_name() {
        arm("unit-io", 1);
        let e = io_error("unit-io").expect("armed");
        assert!(e.to_string().contains("unit-io"));
        assert!(io_error("unit-io").is_none());
    }
}
