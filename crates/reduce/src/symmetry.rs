//! Thread-symmetry canonicalization.
//!
//! The most general client makes threads interchangeable: thread identity
//! appears in action labels and in per-thread slots of the shared state,
//! but never in the algorithm's logic. Whenever two threads are in
//! **identical** local states (same [`ThreadStatus`](bb_sim::ThreadStatus), including frame and
//! remaining-operation count), swapping their per-thread shared data yields
//! a state with the *same* future visible behavior — the permuted state and
//! the original are divergence-sensitive branching bisimilar with identical
//! labels — so both may be represented by one canonical element of the
//! orbit.
//!
//! Restricting permutations to identical-status threads is what keeps the
//! quotient label-preserving: permuting threads in *different* local states
//! would relabel their future call/ret actions, which plain `≈div` does not
//! absorb. A corollary checked by the property tests: canonicalization
//! never changes the status vector, so states with different visible
//! pending operations are never merged.

use bb_sim::{Frames, ObjectAlgorithm, SysState, System, ThreadPerm};

/// Orbit-size cap: states whose identical-status groups span more than this
/// many composite permutations skip canonicalization (deterministically, so
/// the reduced LTS is still a pure function of the input system).
const MAX_ORBIT: usize = 64;

/// What [`canonicalize_symmetry`] did to the state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SymOutcome {
    /// No two threads shared a status; the state was already canonical.
    Identity,
    /// The orbit exceeded [`MAX_ORBIT`]; the state was left untouched.
    Skipped,
    /// The orbit was searched; `changed` says whether a non-identity
    /// representative replaced the input.
    Canonical {
        /// Whether the representative differs from the input state.
        changed: bool,
    },
}

/// Replaces `st` by the canonical representative of its thread-symmetry
/// orbit: the lexicographically least (by `Debug` rendering of the shared
/// state) among all permutations of identical-status threads, re-run
/// through the heap canonicalizer. Deterministic and constant on orbits.
pub(crate) fn canonicalize_symmetry<A: ObjectAlgorithm>(
    system: &System<'_, A>,
    st: &mut SysState<A::Shared, A::Frame>,
) -> SymOutcome {
    let n = st.threads.len();
    // Group thread indices by identical status.
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
    if groups.iter().all(|g| g.len() == 1) {
        return SymOutcome::Identity;
    }
    let mut orbit = 1usize;
    for g in &groups {
        orbit = orbit.saturating_mul(factorial(g.len()));
        if orbit > MAX_ORBIT {
            return SymOutcome::Skipped;
        }
    }
    bb_obs::hot::ORBIT_SIZE.record(orbit as u64);

    // Enumerate every composite permutation (cartesian product of in-group
    // permutations) as a ThreadPerm map.
    let mut maps: Vec<Vec<u8>> = vec![(1..=n as u8).collect()];
    for g in &groups {
        if g.len() == 1 {
            continue;
        }
        let perms = permutations(g.len());
        let mut next = Vec::with_capacity(maps.len() * perms.len());
        for base in &maps {
            for p in &perms {
                let mut m = base.clone();
                for (slot, &src) in p.iter().enumerate() {
                    // Old thread g[src] takes the id of thread g[slot].
                    m[g[src]] = g[slot] as u8 + 1;
                }
                next.push(m);
            }
        }
        maps = next;
    }

    #[allow(clippy::type_complexity)]
    let mut best: Option<(String, SysState<A::Shared, A::Frame>)> = None;
    let original = format!("{:?}", st.shared);
    for map in maps {
        let perm = ThreadPerm::new(map);
        let mut cand = st.clone();
        {
            let SysState { shared, threads } = &mut cand;
            system
                .algorithm()
                .rename_threads(shared, &mut Frames::new(threads), &perm);
        }
        // Relocated slots may change heap root order; re-canonicalize so
        // orbit elements that denote the same abstract state coincide.
        system.canonicalize_state(&mut cand);
        debug_assert_eq!(
            cand.threads, st.threads,
            "symmetry permutation must not move thread statuses"
        );
        let key = format!("{:?}", cand.shared);
        let better = match &best {
            None => true,
            Some((k, _)) => key < *k,
        };
        if better {
            best = Some((key, cand));
        }
    }
    let (key, cand) = best.expect("orbit contains at least the identity");
    let changed = key != original;
    if changed {
        *st = cand;
    }
    SymOutcome::Canonical { changed }
}

fn factorial(k: usize) -> usize {
    (1..=k).product::<usize>().max(1)
}

/// All permutations of `0..k`, in a deterministic order.
fn permutations(k: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut items: Vec<usize> = (0..k).collect();
    permute(&mut items, 0, &mut out);
    out
}

fn permute(items: &mut Vec<usize>, at: usize, out: &mut Vec<Vec<usize>>) {
    if at == items.len() {
        out.push(items.clone());
        return;
    }
    for i in at..items.len() {
        items.swap(at, i);
        permute(items, at + 1, out);
        items.swap(at, i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutation_enumeration_is_complete() {
        assert_eq!(permutations(1).len(), 1);
        assert_eq!(permutations(3).len(), 6);
        let mut seen = permutations(3);
        seen.sort();
        seen.dedup();
        assert_eq!(seen.len(), 6);
    }

    #[test]
    fn factorials() {
        assert_eq!(factorial(0), 1);
        assert_eq!(factorial(4), 24);
    }
}
