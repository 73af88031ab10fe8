//! Property-based tests of the equivalence-checking stack on random LTSs.
//!
//! These validate the paper's structural theorems on arbitrary systems, not
//! just the benchmark algorithms: quotient trace preservation (Theorem
//! 5.2), the lattice of equivalences, idempotence of quotienting, the
//! divergence characterizations behind Theorem 5.9, and the coincidence of
//! the k-trace hierarchy's fixpoint with branching bisimilarity
//! (Theorem 4.3).
//!
//! The harness is a deterministic seeded sweep: each property runs over a
//! fixed set of seeds, and [`random_lts`] derives the system from the seed.
//! (The `proptest` crate is unavailable in the build environment; this
//! reimplements the shrink-free core of the same discipline.)

use bbverify::bisim::{
    bisimilar, div_quotient, divergence_witness, has_tau_cycle, partition, quotient,
    starvation_witness, Equivalence, PartitionOptions,
};
use bbverify::core::oracle::lock_free_by_div_union;
use bbverify::core::verify_lock_freedom;
use bbverify::ktrace::{cap, ktrace_partition, KtraceLimits};
use bbverify::lts::ThreadId;
use bbverify::lts::{random_lts, Lts, RandomLtsConfig, Watchdog};
use bbverify::ltl::{check, lock_freedom};
use bbverify::refine::{trace_equivalent, trace_refines};

/// Number of random systems each property is checked on.
const CASES: u64 = 64;

/// SplitMix64 — derives independent parameters from a case index.
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// The equivalent of the old proptest strategy: seed, 2..25 states,
/// 1..50 transitions, 1..4 visible letters, 0..90% τ.
fn arb_lts(case: u64) -> Lts {
    let r0 = splitmix(case);
    let r1 = splitmix(r0);
    let r2 = splitmix(r1);
    let r3 = splitmix(r2);
    let r4 = splitmix(r3);
    random_lts(
        r0 % 10_000,
        RandomLtsConfig {
            num_states: 2 + (r1 % 23) as usize,
            num_transitions: 1 + (r2 % 49) as usize,
            num_visible_letters: 1 + (r3 % 3) as usize,
            tau_percent: (r4 % 90) as u8,
        },
    )
}

/// Runs `f` over the seeded sweep, labeling failures with the case index.
fn for_each_lts(f: impl Fn(&Lts)) {
    for case in 0..CASES {
        f(&arb_lts(case));
    }
}

/// Like [`for_each_lts`] but with two independent systems per case.
fn for_each_pair(f: impl Fn(&Lts, &Lts)) {
    for case in 0..CASES {
        f(&arb_lts(case), &arb_lts(case + 100_000));
    }
}

/// Theorem 5.2 core: quotienting under ≈ preserves the trace set.
#[test]
fn quotient_preserves_traces() {
    for_each_lts(|lts| {
        let p = partition(lts, Equivalence::Branching);
        let q = quotient(lts, &p);
        assert!(trace_equivalent(lts, &q.lts));
    });
}

/// The original system and its ≈-quotient are branching bisimilar.
#[test]
fn quotient_is_branching_bisimilar() {
    for_each_lts(|lts| {
        let p = partition(lts, Equivalence::Branching);
        let q = quotient(lts, &p);
        assert!(bisimilar(lts, &q.lts, Equivalence::Branching));
    });
}

/// Quotienting is idempotent: the quotient is already minimal.
#[test]
fn quotient_is_idempotent() {
    for_each_lts(|lts| {
        let p = partition(lts, Equivalence::Branching);
        let q = quotient(lts, &p);
        let p2 = partition(&q.lts, Equivalence::Branching);
        assert_eq!(p2.num_blocks(), q.lts.num_states());
    });
}

/// Equivalence lattice: strong ⊆ ≈div ⊆ ≈ ⊆ ~w (as relations), i.e.
/// each partition refines the next.
#[test]
fn equivalence_lattice() {
    for_each_lts(|lts| {
        let strong = partition(lts, Equivalence::Strong);
        let bdiv = partition(lts, Equivalence::BranchingDiv);
        let branching = partition(lts, Equivalence::Branching);
        let weak = partition(lts, Equivalence::Weak);
        assert!(strong.refines(&bdiv), "strong refines ≈div");
        assert!(bdiv.refines(&branching), "≈div refines ≈");
        assert!(branching.refines(&weak), "≈ refines ~w");
    });
}

/// Theorem 5.9 mechanics: Δ ≈div Δ/≈ (the `≈div`-union oracle) holds iff
/// Δ has no reachable τ-cycle, which is what the production check reports,
/// and the divergence witness agrees.
#[test]
fn divergence_characterization() {
    let wd = Watchdog::unlimited();
    for_each_lts(|lts| {
        let div_bisim = lock_free_by_div_union(lts, &wd, PartitionOptions).unwrap();
        let cycle = has_tau_cycle(lts);
        assert_eq!(div_bisim, !cycle);
        assert_eq!(verify_lock_freedom(lts).lock_free, !cycle);
        assert_eq!(divergence_witness(lts).is_some(), cycle);
    });
}

/// Lemma 5.7: the ≈-quotient never contains a τ-cycle.
#[test]
fn quotient_has_no_tau_cycle() {
    for_each_lts(|lts| {
        let p = partition(lts, Equivalence::Branching);
        let q = quotient(lts, &p);
        assert!(!has_tau_cycle(&q.lts));
    });
}

/// A divergence witness, when present, is a genuine τ-lasso.
#[test]
fn witness_is_well_formed() {
    for_each_lts(|lts| {
        if let Some(lasso) = divergence_witness(lts) {
            assert!(!lasso.cycle.is_empty());
            // Consecutive and closing.
            let first = lasso.cycle.first().unwrap().0;
            let last = lasso.cycle.last().unwrap().2;
            assert_eq!(first, last);
            for w in lasso.cycle.windows(2) {
                assert_eq!(w[0].2, w[1].0);
            }
            // All cycle steps are internal.
            for (_, a, _) in &lasso.cycle {
                assert!(!lts.is_visible(*a));
            }
            // Prefix connects initial to the knot.
            if let Some((s, _, _)) = lasso.prefix.first() {
                assert_eq!(*s, lts.initial());
            } else {
                assert_eq!(lasso.knot(), lts.initial());
            }
            for w in lasso.prefix.windows(2) {
                assert_eq!(w[0].2, w[1].0);
            }
        }
    });
}

/// Theorem 5.3: refinement verdicts on quotients agree with direct
/// refinement between the original systems.
#[test]
fn quotient_refinement_agrees_with_direct() {
    for_each_pair(|a, b| {
        let pa = partition(a, Equivalence::Branching);
        let qa = quotient(a, &pa);
        let pb = partition(b, Equivalence::Branching);
        let qb = quotient(b, &pb);
        assert_eq!(
            trace_refines(&qa.lts, &qb.lts).holds,
            trace_refines(a, b).holds
        );
    });
}

/// Theorem 4.3: the fixpoint of the k-trace hierarchy coincides with
/// branching bisimilarity.
#[test]
fn ktrace_fixpoint_is_branching() {
    for_each_lts(|lts| {
        let limits = KtraceLimits::default();
        if let Ok(Some(k)) = cap(lts, 40, limits) {
            let pk = ktrace_partition(lts, k, limits).unwrap();
            let pb = partition(lts, Equivalence::Branching);
            for a in lts.states() {
                for b in lts.states() {
                    assert_eq!(pk[a.index()] == pk[b.index()], pb.same_block(a, b));
                }
            }
        }
    });
}

/// A τ-cycle is an LTL lock-freedom violation (the converse need not
/// hold on arbitrary LTSs, where visible non-return cycles also starve).
#[test]
fn tau_cycle_violates_ltl_lock_freedom() {
    for_each_lts(|lts| {
        if has_tau_cycle(lts) {
            let r = check(lts, &lock_freedom());
            assert!(!r.holds);
            assert!(r.counterexample.is_some());
        }
    });
}

/// The divergence-preserving quotient is always ≈div-bisimilar to the
/// original system (unlike the plain quotient, which loses divergence).
#[test]
fn div_quotient_is_div_bisimilar() {
    for_each_lts(|lts| {
        let dq = div_quotient(lts);
        assert!(bisimilar(lts, &dq.lts, Equivalence::BranchingDiv));
        assert_eq!(has_tau_cycle(lts), has_tau_cycle(&dq.lts));
    });
}

/// Random LTSs label every action with thread 1, so a τ-cycle exists
/// exactly when thread 1 has a starvation witness; and any starvation
/// witness is in particular a divergence.
#[test]
fn starvation_agrees_with_divergence() {
    for_each_lts(|lts| {
        let starved = starvation_witness(lts, ThreadId(1)).is_some();
        assert_eq!(starved, has_tau_cycle(lts));
        assert!(starvation_witness(lts, ThreadId(9)).is_none());
    });
}

/// Trace refinement is reflexive and transitive on random triples.
#[test]
fn refinement_is_a_preorder() {
    for case in 0..CASES {
        let a = arb_lts(case);
        let b = arb_lts(case + 100_000);
        let c = arb_lts(case + 200_000);
        assert!(trace_refines(&a, &a).holds);
        let ab = trace_refines(&a, &b).holds;
        let bc = trace_refines(&b, &c).holds;
        if ab && bc {
            assert!(trace_refines(&a, &c).holds);
        }
    }
}

/// Bisimilar systems are trace equivalent (but not vice versa).
#[test]
fn bisimilarity_implies_trace_equivalence() {
    for_each_pair(|a, b| {
        if bisimilar(a, b, Equivalence::Branching) {
            assert!(trace_equivalent(a, b));
        }
    });
}
