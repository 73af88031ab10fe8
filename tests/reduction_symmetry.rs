//! Seeded property tests for thread-symmetry canonicalization.
//!
//! Two properties over *reachable* states of the most general client (not
//! hand-picked states), in the style of `tests/properties.rs`:
//!
//! 1. **Orbit constancy** — applying any valid thread permutation (one
//!    that only exchanges threads in identical local states) and then
//!    canonicalizing yields the same representative as canonicalizing the
//!    original state.
//! 2. **Label preservation** — canonicalization never moves the thread
//!    status vector, so quotienting by symmetry can never merge two states
//!    with different visible pending operations (a different set of
//!    outstanding calls or returns).

use bbverify::algorithms::treiber_hp::TreiberHp;
use bbverify::lts::Semantics;
use bbverify::reduce::canonical_state;
use bbverify::reduce::scratch::ScratchPad;
use bbverify::sim::{Bound, Frames, ObjectAlgorithm, SysState, System, ThreadPerm, ThreadStatus};
use std::collections::HashMap;

/// Number of seeded permutation trials per reachable state set.
const CASES: u64 = 64;

/// SplitMix64 — derives independent parameters from a case index.
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// Collects every state of the most general client reachable under `bound`
/// (these configurations are small enough to enumerate exhaustively).
fn reachable<A: ObjectAlgorithm>(
    system: &System<'_, A>,
) -> Vec<SysState<A::Shared, A::Frame>> {
    let mut seen = vec![system.initial_state()];
    let mut frontier = seen.clone();
    let mut buf = Vec::new();
    while let Some(st) = frontier.pop() {
        buf.clear();
        system.successors(&st, &mut buf);
        for (_, next) in buf.drain(..) {
            if !seen.contains(&next) {
                seen.push(next.clone());
                frontier.push(next);
            }
        }
    }
    seen
}

/// Builds a seeded *valid* permutation for `st`: a Fisher-Yates shuffle
/// inside each group of threads sharing an identical status. Threads in
/// different local states are never exchanged.
fn seeded_valid_perm<S, F: PartialEq>(st: &SysState<S, F>, seed: u64) -> ThreadPerm
where
    ThreadStatus<F>: PartialEq,
{
    let n = st.threads.len();
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for i in 0..n {
        match groups
            .iter_mut()
            .find(|g| st.threads[g[0]] == st.threads[i])
        {
            Some(g) => g.push(i),
            None => groups.push(vec![i]),
        }
    }
    let mut map: Vec<u8> = (1..=n as u8).collect();
    let mut r = seed;
    for g in &groups {
        let mut targets = g.clone();
        for i in (1..targets.len()).rev() {
            r = splitmix(r);
            targets.swap(i, (r % (i as u64 + 1)) as usize);
        }
        for (&src, &dst) in g.iter().zip(&targets) {
            map[src] = dst as u8 + 1;
        }
    }
    ThreadPerm::new(map)
}

/// Applies `perm` to a state the way the symmetry layer defines it: rename
/// per-thread shared data, keep the status vector (the permutation only
/// exchanges identical statuses, so this *is* the permuted state), and
/// re-run heap canonicalization.
fn permute<A: ObjectAlgorithm>(
    system: &System<'_, A>,
    st: &SysState<A::Shared, A::Frame>,
    perm: &ThreadPerm,
) -> SysState<A::Shared, A::Frame> {
    let mut out = st.clone();
    {
        let SysState { shared, threads } = &mut out;
        system
            .algorithm()
            .rename_threads(shared, &mut Frames::new(threads), perm);
    }
    system.canonicalize_state(&mut out);
    out
}

/// Runs both properties over every reachable state of `alg` under `bound`.
fn check_properties<A: ObjectAlgorithm>(alg: &A, bound: Bound) {
    let system = System::new(alg, bound);
    let states = reachable(&system);
    assert!(states.len() > 10, "bound too small to be meaningful");

    // Property 1: canonical(π(s)) == canonical(s) for seeded valid π.
    for case in 0..CASES {
        let idx = (splitmix(case.wrapping_mul(0xA5A5)) % states.len() as u64) as usize;
        let st = &states[idx];
        let perm = seeded_valid_perm(st, splitmix(case));
        let permuted = permute(&system, st, &perm);

        let mut canon_orig = st.clone();
        canonical_state(&system, &mut canon_orig);
        let mut canon_perm = permuted.clone();
        canonical_state(&system, &mut canon_perm);
        assert_eq!(
            canon_orig, canon_perm,
            "{}: case {case}: canonicalization must be constant on the \
             orbit of state {idx} (perm {perm:?})",
            alg.name()
        );
    }

    // Property 2: grouping all reachable states by representative never
    // merges two states with different status vectors — visible pending
    // operations (outstanding calls/returns) are preserved exactly.
    let mut classes: HashMap<String, Vec<usize>> = HashMap::new();
    for (i, st) in states.iter().enumerate() {
        let mut canon = st.clone();
        canonical_state(&system, &mut canon);
        classes
            .entry(format!("{canon:?}"))
            .or_default()
            .push(i);
    }
    let mut merged = 0usize;
    for members in classes.values() {
        merged += members.len() - 1;
        for w in members.windows(2) {
            assert_eq!(
                states[w[0]].threads,
                states[w[1]].threads,
                "{}: merged states must agree on every pending operation",
                alg.name()
            );
        }
    }
    assert!(
        merged > 0,
        "{}: the sweep should witness at least one genuine merge",
        alg.name()
    );
}

#[test]
fn scratch_pad_symmetry_properties() {
    check_properties(&ScratchPad::new(&[1, 2], 3), Bound::new(3, 1));
}

#[test]
fn treiber_hp_symmetry_properties() {
    check_properties(&TreiberHp::new(&[1], 2), Bound::new(2, 2));
}
