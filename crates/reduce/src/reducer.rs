//! The reduced semantics: a [`Semantics`] wrapper over the most general
//! client applying ample-set partial-order reduction on the fly.

use crate::ample::{candidate, chain_terminates};
use bb_lts::budget::Exhausted;
use bb_lts::{explore_compact, Action, CodecSemantics, ExploreOptions, Lts, Semantics};
use bb_sim::{Bound, ObjectAlgorithm, SysState, System};
use std::cell::Cell;
use std::fmt;

/// Counters describing what the reducer did during one exploration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReduceStats {
    /// States expanded through a single designated (ample) step.
    pub ample_states: u64,
    /// States fully expanded (no designated step, or proviso rejection).
    pub expanded_states: u64,
    /// Designated candidates rejected by the chain-termination proviso.
    pub proviso_fallbacks: u64,
}

impl fmt::Display for ReduceStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ample {} / expanded {} (proviso fallbacks {})",
            self.ample_states, self.expanded_states, self.proviso_fallbacks
        )
    }
}

/// The most general client of an algorithm with partial-order reduction
/// applied.
///
/// Implements [`CodecSemantics`] with the wrapped [`System`]'s state type
/// and encoding, so [`explore_compact`] unfolds the *reduced* LTS through
/// the same arena store (and spill tier) as the unreduced one. Successor
/// computation is a pure function of the state (the ample chase is
/// exploration-order independent), so the reduced LTS is deterministic,
/// exactly like the unreduced system.
#[derive(Debug)]
pub struct ReducedSystem<'a, A: ObjectAlgorithm> {
    system: System<'a, A>,
    ample_states: Cell<u64>,
    expanded_states: Cell<u64>,
    proviso_fallbacks: Cell<u64>,
}

impl<'a, A: ObjectAlgorithm> ReducedSystem<'a, A> {
    /// Wraps the most general client of `alg` under `bound`.
    pub fn new(alg: &'a A, bound: Bound) -> Self {
        ReducedSystem {
            system: System::new(alg, bound),
            ample_states: Cell::new(0),
            expanded_states: Cell::new(0),
            proviso_fallbacks: Cell::new(0),
        }
    }

    /// Snapshot of the reduction counters.
    pub fn stats(&self) -> ReduceStats {
        ReduceStats {
            ample_states: self.ample_states.get(),
            expanded_states: self.expanded_states.get(),
            proviso_fallbacks: self.proviso_fallbacks.get(),
        }
    }
}

fn bump(c: &Cell<u64>) {
    c.set(c.get() + 1);
}

impl<A: ObjectAlgorithm> Semantics for ReducedSystem<'_, A> {
    type State = SysState<A::Shared, A::Frame>;

    fn initial_state(&self) -> Self::State {
        self.system.initial_state()
    }

    fn successors(&self, state: &Self::State, out: &mut Vec<(Action, Self::State)>) {
        if let Some((action, target)) = candidate(&self.system, state) {
            if chain_terminates(&self.system, &target) {
                bump(&self.ample_states);
                bb_obs::hot::AMPLE_HITS.incr();
                out.push((action, target));
                return;
            }
            bump(&self.proviso_fallbacks);
            bb_obs::hot::AMPLE_FALLBACKS.incr();
        }
        bump(&self.expanded_states);
        bb_obs::hot::AMPLE_MISSES.incr();
        self.system.successors(state, out);
    }
}

impl<A: ObjectAlgorithm> CodecSemantics for ReducedSystem<'_, A> {
    fn encode_state(&self, state: &Self::State, out: &mut Vec<u8>) {
        self.system.encode_state(state, out);
    }

    fn decode_state_into(&self, bytes: &[u8], state: &mut Self::State) {
        self.system.decode_state_into(bytes, state);
    }

    fn state_heap_bytes(&self, state: &Self::State) -> usize {
        self.system.state_heap_bytes(state)
    }
}

/// Unfolds the reduced most general client of `alg` under `bound` into an
/// explicit LTS, returning the reduction counters alongside.
///
/// # Errors
///
/// Returns [`Exhausted`] (stage `explore`) when any budget axis trips.
pub fn explore_reduced<A: ObjectAlgorithm>(
    alg: &A,
    bound: Bound,
    opts: &ExploreOptions<'_>,
) -> Result<(Lts, ReduceStats), Exhausted> {
    let span = bb_obs::span("reduce").with("object", alg.name());
    let reduced = ReducedSystem::new(alg, bound);
    let (lts, _) = explore_compact(&reduced, opts)?;
    let stats = reduced.stats();
    span.record("ample_states", stats.ample_states);
    span.record("expanded_states", stats.expanded_states);
    span.record("proviso_fallbacks", stats.proviso_fallbacks);
    span.record("reduced_states", lts.num_states());
    Ok((lts, stats))
}
