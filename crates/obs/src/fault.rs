//! Deterministic fault injection for robustness tests.
//!
//! A *fault plan* is parsed once from the `BB_FAULT` environment variable:
//! a comma-separated list of `point:count` pairs, where `point` names an
//! instrumented site (see [`POINTS`]) and `count` selects which hit of
//! that site trips — the fault fires **exactly once**, on the `count`-th
//! time execution reaches the point. Because every instrumented site sits
//! on a deterministic code path (exploration and refinement are serial and
//! bit-reproducible), a plan like
//! `BB_FAULT=mid-round:3` reproduces the same crash on every run, which
//! is what lets the kill/resume tests byte-diff a resumed run against an
//! uninterrupted one.
//!
//! The hot-path cost is one relaxed atomic load when `BB_FAULT` is unset
//! ([`enabled`]); sites therefore guard with
//! `fault::enabled() && fault::hit("...")`.
//!
//! This generalizes the `BB_SABOTAGE` hook from the benchmark harness
//! (which panics unconditionally on a case-name match) into a counted,
//! multi-point plan usable anywhere in the workspace.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};

/// The registry of instrumented fault points: `(name, what firing does)`.
/// Kept in one place so DESIGN.md and the tests can enumerate them.
pub const POINTS: &[(&str, &str)] = &[
    (
        "alloc-cap",
        "bb-lts Meter::add_memory returns a Memory exhaustion (budget trip)",
    ),
    (
        "mid-round",
        "bb-bisim refinement round panics (caught by run_isolated -> inconclusive)",
    ),
    (
        "round-abort",
        "bb-bisim refinement round aborts the process (hard crash; resume target)",
    ),
    (
        "checkpoint-write",
        "bb-persist atomic writer aborts after the temp file, before the rename",
    ),
    (
        "cache-read",
        "bb-persist cache lookup treats the entry as corrupt (recompute path)",
    ),
    (
        "journal-write",
        "bb-serve journal append aborts mid-line (torn tail; replay target)",
    ),
];

struct Plan {
    /// `point -> (trip_on_hit, hits_so_far, fired)`.
    counters: Mutex<HashMap<String, (u64, u64, bool)>>,
}

static ARMED: AtomicBool = AtomicBool::new(false);
static PLAN: OnceLock<Option<Plan>> = OnceLock::new();

fn plan() -> &'static Option<Plan> {
    PLAN.get_or_init(|| {
        let raw = std::env::var("BB_FAULT").ok()?;
        let mut counters = HashMap::new();
        for part in raw.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (point, count) = part.split_once(':').unwrap_or((part, "1"));
            let n: u64 = count.parse().unwrap_or(1).max(1);
            counters.insert(point.to_string(), (n, 0, false));
        }
        if counters.is_empty() {
            return None;
        }
        ARMED.store(true, Ordering::Relaxed);
        Some(Plan {
            counters: Mutex::new(counters),
        })
    })
}

/// `true` when a fault plan is armed. One relaxed load after the first
/// call; hot paths guard their [`hit`] calls with this.
#[inline]
pub fn enabled() -> bool {
    if PLAN.get().is_none() {
        let _ = plan();
    }
    ARMED.load(Ordering::Relaxed)
}

/// Records one execution of the fault point `point` and returns `true`
/// exactly when this is the hit the plan arms it for. Unplanned points
/// always return `false`; a tripped point never fires twice.
pub fn hit(point: &str) -> bool {
    let Some(p) = plan() else { return false };
    let mut map = p.counters.lock().unwrap_or_else(|e| e.into_inner());
    let Some((trip_on, hits, fired)) = map.get_mut(point) else {
        return false;
    };
    if *fired {
        return false;
    }
    *hits += 1;
    if *hits == *trip_on {
        *fired = true;
        crate::hot::FAULTS_INJECTED.incr();
        eprintln!("[bb-fault] injected `{point}` (hit {hits})");
        return true;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    // The plan is parsed from the process environment exactly once, so the
    // unit tests exercise the counter logic through a locally built Plan.
    fn local(plan_str: &str) -> Plan {
        let mut counters = HashMap::new();
        for part in plan_str.split(',') {
            let (point, count) = part.split_once(':').unwrap_or((part, "1"));
            counters.insert(point.to_string(), (count.parse().unwrap(), 0, false));
        }
        Plan {
            counters: Mutex::new(counters),
        }
    }

    fn local_hit(p: &Plan, point: &str) -> bool {
        let mut map = p.counters.lock().unwrap();
        let Some((trip_on, hits, fired)) = map.get_mut(point) else {
            return false;
        };
        if *fired {
            return false;
        }
        *hits += 1;
        if *hits == *trip_on {
            *fired = true;
            return true;
        }
        false
    }

    #[test]
    fn fires_exactly_on_the_nth_hit_and_only_once() {
        let p = local("mid-round:3");
        assert!(!local_hit(&p, "mid-round"));
        assert!(!local_hit(&p, "mid-round"));
        assert!(local_hit(&p, "mid-round"));
        assert!(!local_hit(&p, "mid-round"));
        assert!(!local_hit(&p, "mid-round"));
    }

    #[test]
    fn unplanned_points_never_fire() {
        let p = local("alloc-cap:1");
        assert!(!local_hit(&p, "cache-read"));
        assert!(local_hit(&p, "alloc-cap"));
    }

    #[test]
    fn multi_point_plans_are_independent() {
        let p = local("alloc-cap:1,cache-read:2");
        assert!(local_hit(&p, "alloc-cap"));
        assert!(!local_hit(&p, "cache-read"));
        assert!(local_hit(&p, "cache-read"));
    }

    #[test]
    fn registry_names_are_unique() {
        let mut names: Vec<&str> = POINTS.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), POINTS.len());
    }

    #[test]
    fn env_free_process_has_no_plan() {
        // The test binary is run without BB_FAULT; the public API must be
        // a cheap no-op then.
        if std::env::var("BB_FAULT").is_err() {
            assert!(!enabled());
            assert!(!hit("mid-round"));
        }
    }
}
