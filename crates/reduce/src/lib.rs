//! On-the-fly state-space reduction preserving `≈div`.
//!
//! Exploration under the most general client enumerates every interleaving,
//! but the paper's verification theorems (5.2/5.3/5.8/5.9) only need the
//! object LTS *up to divergence-sensitive branching bisimilarity*. This
//! crate exploits that slack with two composable layers applied during
//! exploration, both packaged as a [`Semantics`](bb_lts::Semantics) wrapper
//! ([`ReducedSystem`]) so either exploration engine unfolds the reduced LTS
//! directly:
//!
//! * **Thread-symmetry canonicalization** — states differing only by a
//!   permutation of per-thread shared data among threads in *identical*
//!   local states are merged onto one orbit representative (see
//!   [`bb_sim::ObjectAlgorithm::rename_threads`]).
//! * **Ample-set partial-order reduction** — when a thread's next step is a
//!   single invisible τ whose [`bb_sim::Footprint`] promises hereditary
//!   independence, only that step is explored; a chain-termination proviso
//!   keeps the reduction divergence-sensitive.
//!
//! Every annotation feeding the reducer is cross-checked by the
//! [`differential_check`] harness: the reduced LTS must be `≈div` the full
//! one and produce identical pipeline verdicts. Run it from the CLI with
//! `bbv reduce-check <algorithm|all>`.

mod ample;
mod differential;
mod mode;
mod reducer;
pub mod scratch;
mod symmetry;

pub use differential::{differential_check, DifferentialReport};
pub use mode::ReduceMode;
pub use reducer::{explore_reduced, ReduceStats, ReducedSystem};

use bb_sim::{ObjectAlgorithm, SysState, System};

/// Replaces `st` by the canonical representative of its thread-symmetry
/// orbit (exposed for the property tests; [`ReducedSystem`] applies it
/// automatically when the mode enables symmetry).
pub fn canonical_state<A: ObjectAlgorithm>(
    system: &System<'_, A>,
    st: &mut SysState<A::Shared, A::Frame>,
) {
    symmetry::canonicalize_symmetry(system, st);
}

#[cfg(test)]
mod tests {
    use super::scratch::ScratchPad;
    use super::*;
    use bb_lts::{ExploreOptions, Jobs, Semantics, ThreadId};
    use bb_sim::{explore_system_with, AtomicSpec, Bound, ThreadPerm, ThreadStatus};

    #[test]
    fn scratch_pad_reduces_and_stays_equivalent() {
        let alg = ScratchPad::new(&[1, 2], 2);
        let bound = Bound::new(2, 1);
        let full = explore_system_with(&alg, bound, &ExploreOptions::new()).unwrap();
        for mode in ReduceMode::ALL {
            let (red, stats) =
                explore_reduced(&alg, bound, mode, &ExploreOptions::new()).unwrap();
            assert!(
                bb_bisim::bisimilar(&full, &red, bb_bisim::Equivalence::BranchingDiv),
                "{mode}: reduced LTS must stay ≈div the full one"
            );
            if mode == ReduceMode::Full {
                assert!(
                    red.num_states() < full.num_states(),
                    "full reduction must shrink the scratch pad ({} vs {})",
                    red.num_states(),
                    full.num_states()
                );
                assert!(stats.ample_states > 0, "ample steps must fire");
                assert!(stats.sym_merges > 0, "symmetry merges must fire");
            }
        }
    }

    #[test]
    fn mode_none_is_the_identity() {
        let alg = ScratchPad::new(&[1, 2], 2);
        let bound = Bound::new(2, 1);
        let full = explore_system_with(&alg, bound, &ExploreOptions::new()).unwrap();
        let (red, stats) =
            explore_reduced(&alg, bound, ReduceMode::None, &ExploreOptions::new()).unwrap();
        assert_eq!(bb_lts::to_aut(&full), bb_lts::to_aut(&red));
        assert_eq!(stats.ample_states, 0);
        assert_eq!(stats.sym_merges, 0);
    }

    #[test]
    fn reduction_is_deterministic_across_worker_counts() {
        let alg = ScratchPad::new(&[1, 2], 3);
        let bound = Bound::new(3, 1);
        let (base, _) =
            explore_reduced(&alg, bound, ReduceMode::Full, &ExploreOptions::new()).unwrap();
        for jobs in [2, 4] {
            let (par, _) = explore_reduced(
                &alg,
                bound,
                ReduceMode::Full,
                &ExploreOptions::new().with_jobs(Jobs::new(jobs)),
            )
            .unwrap();
            assert_eq!(
                bb_lts::to_aut(&base),
                bb_lts::to_aut(&par),
                "{jobs} jobs must produce the identical reduced LTS"
            );
        }
    }

    #[test]
    fn differential_harness_passes_on_scratch_pad_spec() {
        // The scratch pad has no sequential spec; run the harness on a spec
        // object against itself instead (reduction is a sound no-op there).
        let spec = AtomicSpec::new(ScratchSpec);
        let r = differential_check(
            &spec,
            &AtomicSpec::new(ScratchSpec),
            Bound::new(2, 1),
            ReduceMode::Full,
            Jobs::serial(),
            false,
        )
        .unwrap();
        assert!(r.passed(), "{}", r.render());
    }

    /// Minimal sequential spec for the differential smoke test.
    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    struct ScratchSpec;

    bb_sim::impl_pack!(struct ScratchSpec {});

    impl bb_sim::SequentialSpec for ScratchSpec {
        fn name(&self) -> &'static str {
            "scratch spec"
        }

        fn methods(&self) -> Vec<bb_sim::MethodSpec> {
            vec![bb_sim::MethodSpec::no_arg("nop")]
        }

        fn apply(&self, _method: bb_sim::MethodId, _arg: Option<i64>) -> (Self, Option<i64>) {
            (ScratchSpec, None)
        }
    }

    #[test]
    fn canonical_state_constant_on_orbit() {
        // Put the two threads in identical statuses with different residue,
        // permute the slots, and check both canonicalize identically.
        let alg = ScratchPad::new(&[1, 2], 2);
        let system = System::new(&alg, Bound::new(2, 1));
        let mut a = Semantics::initial_state(&system);
        a.shared.slots = vec![1, 2];
        for t in a.threads.iter_mut() {
            *t = ThreadStatus::Idle { remaining: 0 };
        }
        let mut b = a.clone();
        ThreadPerm::new(vec![2, 1]).apply_vec(&mut b.shared.slots);
        assert_ne!(a, b);
        canonical_state(&system, &mut a);
        canonical_state(&system, &mut b);
        assert_eq!(a, b, "orbit elements must share one representative");
        let _ = ThreadId(1);
    }
}
