//! The reduced semantics: a [`Semantics`] wrapper over the most general
//! client applying thread-symmetry canonicalization and ample-set
//! partial-order reduction on the fly.

use crate::ample::{candidate, chain_terminates};
use crate::mode::ReduceMode;
use crate::symmetry::{canonicalize_symmetry, SymOutcome};
use bb_lts::budget::Exhausted;
use bb_lts::{explore_with, Action, ExploreOptions, Lts, Semantics};
use bb_sim::{Bound, ObjectAlgorithm, SysState, System};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Counters describing what the reducer did during one exploration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReduceStats {
    /// States expanded through a single designated (ample) step.
    pub ample_states: u64,
    /// States fully expanded (no designated step, or proviso rejection).
    pub expanded_states: u64,
    /// Designated candidates rejected by the chain-termination proviso.
    pub proviso_fallbacks: u64,
    /// Successor states replaced by a different symmetry representative.
    pub sym_merges: u64,
    /// States whose symmetry orbit exceeded the cap and was skipped.
    pub sym_skips: u64,
}

impl fmt::Display for ReduceStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ample {} / expanded {} (proviso fallbacks {}), sym merges {} (skips {})",
            self.ample_states,
            self.expanded_states,
            self.proviso_fallbacks,
            self.sym_merges,
            self.sym_skips
        )
    }
}

/// The most general client of an algorithm with reduction layers applied.
///
/// Implements [`Semantics`], so any explorer —
/// [`bb_lts::explore_with`] on either engine — unfolds the *reduced* LTS.
/// Successor computation is a pure function of the state (the ample chase
/// and the symmetry orbit search are exploration-order independent), so the
/// reduced LTS is deterministic, exactly like the unreduced system.
#[derive(Debug)]
pub struct ReducedSystem<'a, A: ObjectAlgorithm> {
    system: System<'a, A>,
    mode: ReduceMode,
    ample_states: AtomicU64,
    expanded_states: AtomicU64,
    proviso_fallbacks: AtomicU64,
    sym_merges: AtomicU64,
    sym_skips: AtomicU64,
}

impl<'a, A: ObjectAlgorithm> ReducedSystem<'a, A> {
    /// Wraps the most general client of `alg` under `bound` with the
    /// reduction layers of `mode`.
    pub fn new(alg: &'a A, bound: Bound, mode: ReduceMode) -> Self {
        ReducedSystem {
            system: System::new(alg, bound),
            mode,
            ample_states: AtomicU64::new(0),
            expanded_states: AtomicU64::new(0),
            proviso_fallbacks: AtomicU64::new(0),
            sym_merges: AtomicU64::new(0),
            sym_skips: AtomicU64::new(0),
        }
    }

    /// The active reduction mode.
    pub fn mode(&self) -> ReduceMode {
        self.mode
    }

    /// The wrapped most general client.
    pub fn system(&self) -> &System<'a, A> {
        &self.system
    }

    /// Snapshot of the reduction counters.
    pub fn stats(&self) -> ReduceStats {
        ReduceStats {
            ample_states: self.ample_states.load(Ordering::Relaxed),
            expanded_states: self.expanded_states.load(Ordering::Relaxed),
            proviso_fallbacks: self.proviso_fallbacks.load(Ordering::Relaxed),
            sym_merges: self.sym_merges.load(Ordering::Relaxed),
            sym_skips: self.sym_skips.load(Ordering::Relaxed),
        }
    }

    /// Applies the symmetry layer (when enabled) to a state about to be
    /// handed to the explorer.
    fn canon(&self, st: &mut SysState<A::Shared, A::Frame>) {
        if !self.mode.sym() {
            return;
        }
        match canonicalize_symmetry(&self.system, st) {
            SymOutcome::Identity => {}
            SymOutcome::Skipped => {
                self.sym_skips.fetch_add(1, Ordering::Relaxed);
                bb_obs::hot::SYM_SKIPS.incr();
            }
            SymOutcome::Canonical { changed } => {
                if changed {
                    self.sym_merges.fetch_add(1, Ordering::Relaxed);
                    bb_obs::hot::SYM_MERGES.incr();
                }
            }
        }
    }
}

impl<A: ObjectAlgorithm> Semantics for ReducedSystem<'_, A> {
    type State = SysState<A::Shared, A::Frame>;

    fn initial_state(&self) -> Self::State {
        let mut st = self.system.initial_state();
        self.canon(&mut st);
        st
    }

    fn successors(&self, state: &Self::State, out: &mut Vec<(Action, Self::State)>) {
        if self.mode.por() {
            if let Some((action, mut target)) = candidate(&self.system, state) {
                if chain_terminates(&self.system, &target, |st| self.canon(st)) {
                    self.ample_states.fetch_add(1, Ordering::Relaxed);
                    bb_obs::hot::AMPLE_HITS.incr();
                    self.canon(&mut target);
                    out.push((action, target));
                    return;
                }
                self.proviso_fallbacks.fetch_add(1, Ordering::Relaxed);
                bb_obs::hot::AMPLE_FALLBACKS.incr();
            }
        }
        self.expanded_states.fetch_add(1, Ordering::Relaxed);
        bb_obs::hot::AMPLE_MISSES.incr();
        let base = out.len();
        self.system.successors(state, out);
        if self.mode.sym() {
            for (_, target) in out[base..].iter_mut() {
                self.canon(target);
            }
            // Symmetry can collapse two sibling successors onto the same
            // representative; keep the first occurrence of each pair so the
            // reduced LTS has no duplicate transitions.
            let mut i = base;
            while i < out.len() {
                if out[base..i].contains(&out[i]) {
                    out.remove(i);
                } else {
                    i += 1;
                }
            }
        }
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
    mode: ReduceMode,
    opts: &ExploreOptions<'_>,
) -> Result<(Lts, ReduceStats), Exhausted> {
    let span = bb_obs::span("reduce")
        .with("object", alg.name())
        .with("mode", format!("{mode:?}"));
    let reduced = ReducedSystem::new(alg, bound, mode);
    let lts = explore_with(&reduced, opts)?;
    let stats = reduced.stats();
    span.record("ample_states", stats.ample_states);
    span.record("expanded_states", stats.expanded_states);
    span.record("proviso_fallbacks", stats.proviso_fallbacks);
    span.record("sym_merges", stats.sym_merges);
    span.record("sym_skips", stats.sym_skips);
    span.record("reduced_states", lts.num_states());
    Ok((lts, stats))
}
