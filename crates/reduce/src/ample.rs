//! Ample-set partial-order reduction for τ-steps.
//!
//! At each state the selector looks for a **designated step**: the
//! lowest-indexed running thread whose next move is (C2) a single,
//! deterministic, invisible τ and (C1) carries a non-[`Footprint::Global`]
//! independence class — a hereditary promise that no co-enabled step of
//! another thread conflicts with it (see [`Footprint`]). When such a step
//! exists and the **chain-termination proviso** below holds, the state's
//! ample set is that singleton (C0) and exploration follows only it.
//!
//! Such a step is an *inert* τ: it commutes with every step of every other
//! thread, so its source and target are divergence-sensitive branching
//! bisimilar, and pruning the siblings preserves `≈div` (τ-confluence
//! reduction in the sense of Groote & van de Pol).
//!
//! **Chain-termination proviso (C3, divergence sensitivity).** Prioritizing
//! τ-steps around a cycle could postpone the other threads forever and,
//! worse, erase a divergence distinction. Before accepting a designated
//! step the selector chases the chain of designated steps it starts: if the
//! chain revisits a state or exceeds [`CHAIN_CAP`] the candidate is
//! rejected and the state fully expanded. The chase is a pure function of
//! the state — independent of exploration order — so the reduced LTS is
//! deterministic, and the decision is *consistent along the chain*: if a state accepts its
//! designated step, every state the chain passes through accepts its own,
//! and the chain ends in a fully-expanded state.

use bb_lts::{Action, ActionKind, ThreadId};
use bb_sim::{Footprint, ObjectAlgorithm, SysState, System, ThreadStatus};
use std::collections::HashSet;

/// Maximum designated-chain length chased by the proviso before giving up
/// (and falling back to full expansion).
const CHAIN_CAP: usize = 256;

/// The designated ample candidate of `state`, if any: action plus target
/// (heap-canonicalized by `thread_successors`).
#[allow(clippy::type_complexity)]
pub(crate) fn candidate<A: ObjectAlgorithm>(
    system: &System<'_, A>,
    state: &SysState<A::Shared, A::Frame>,
) -> Option<(Action, SysState<A::Shared, A::Frame>)> {
    let mut buf = Vec::new();
    for ti in 0..state.threads.len() {
        let ThreadStatus::Running { frame, .. } = &state.threads[ti] else {
            continue;
        };
        let t = ThreadId(ti as u8 + 1);
        if system.algorithm().footprint(&state.shared, frame, t) == Footprint::Global {
            continue;
        }
        buf.clear();
        system.thread_successors(state, ti, &mut buf);
        // C2: exactly one outcome, and it is internal. A branching or
        // visible step is ineligible; later threads may still qualify.
        if buf.len() == 1 && buf[0].0.kind == ActionKind::Tau {
            return buf.pop();
        }
    }
    None
}

/// Chases the chain of designated steps starting at `first_target`.
/// Returns `true` when the chain reaches a state with no designated step
/// within [`CHAIN_CAP`] hops; `false` on a revisit (τ-cycle of designated
/// steps) or cap overflow.
pub(crate) fn chain_terminates<A: ObjectAlgorithm>(
    system: &System<'_, A>,
    first_target: &SysState<A::Shared, A::Frame>,
) -> bool {
    let mut cur = first_target.clone();
    let mut visited: HashSet<SysState<A::Shared, A::Frame>> = HashSet::new();
    for _ in 0..CHAIN_CAP {
        if !visited.insert(cur.clone()) {
            return false;
        }
        match candidate(system, &cur) {
            None => return true,
            Some((_, next)) => cur = next,
        }
    }
    false
}
