//! On-the-fly state-space reduction preserving `≈div`.
//!
//! Exploration under the most general client enumerates every interleaving,
//! but the paper's verification theorems (5.2/5.3/5.8/5.9) only need the
//! object LTS *up to divergence-sensitive branching bisimilarity*. This
//! crate exploits that slack with **ample-set partial-order reduction**
//! applied during exploration: when a thread's next step is a single
//! invisible τ whose [`bb_sim::Footprint`] promises hereditary
//! independence, only that step is explored; a chain-termination proviso
//! keeps the reduction divergence-sensitive. The reduction is packaged as a
//! [`CodecSemantics`](bb_lts::CodecSemantics) wrapper ([`ReducedSystem`]),
//! so the one exploration engine unfolds the reduced LTS directly into its
//! arena store.
//!
//! Every annotation feeding the reducer is cross-checked by the
//! [`differential_check`] harness: the reduced LTS must be `≈div` the full
//! one and produce identical pipeline verdicts. Run it from the CLI with
//! `bbv reduce-check <algorithm|all>`.

mod ample;
mod differential;
mod mode;
mod reducer;

pub use differential::{differential_check, DifferentialReport};
pub use mode::ReduceMode;
pub use reducer::{explore_reduced, ReduceStats, ReducedSystem};

#[cfg(test)]
mod tests {
    use super::*;
    use bb_algorithms::treiber::Treiber;
    use bb_lts::ExploreOptions;
    use bb_sim::{explore_system_with, AtomicSpec, Bound};

    /// POR fires on Treiber 2-2, shrinks the LTS to the pinned size, and
    /// stays `≈div` the unreduced one.
    #[test]
    fn por_shrinks_treiber_and_stays_equivalent() {
        let bound = Bound::new(2, 2);
        for (domain, full_states, reduced_states) in
            [(&[1, 2][..], 4_893, 4_515), (&[1][..], 1_029, 947)]
        {
            let alg = Treiber::new(domain);
            let full = explore_system_with(&alg, bound, &ExploreOptions::new()).unwrap();
            let (red, stats) = explore_reduced(&alg, bound, &ExploreOptions::new()).unwrap();
            assert!(stats.ample_states > 0, "{domain:?}: ample steps must fire");
            assert_eq!(full.num_states(), full_states, "{domain:?}");
            assert_eq!(red.num_states(), reduced_states, "{domain:?}");
            assert!(
                bb_bisim::bisimilar(&full, &red, bb_bisim::Equivalence::BranchingDiv),
                "{domain:?}: reduced LTS must stay ≈div the full one"
            );
        }
    }

    #[test]
    fn differential_harness_passes_on_scratch_pad_spec() {
        // Run the harness on a spec object against itself (reduction is a
        // sound no-op there).
        let spec = AtomicSpec::new(ScratchSpec);
        let r = differential_check(&spec, &AtomicSpec::new(ScratchSpec), Bound::new(2, 1), false)
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
}
