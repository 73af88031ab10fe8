//! Differential equivalence harness for the `bb-reduce` subsystem.
//!
//! For **every** algorithm in `crates/algorithms` (the full `bbv list`
//! roster) this test builds the state space twice — unreduced and with
//! partial-order reduction — and asserts that
//!
//! 1. the reduced LTS is divergence-sensitive branching bisimilar (`≈div`)
//!    to the full one (for the implementation *and* the spec), and
//! 2. the verification pipeline returns identical verdicts on both,
//!    including on the three known-buggy case studies, whose *failures*
//!    must survive reduction unchanged.
//!
//! A final test checks that reduction is deterministic: the reduced LTS
//! repeats byte for byte, and its partition matches the full-engine
//! refinement oracle.

use bbverify::algorithms::{
    ccas::Ccas, coarse::CoarseLocked, dglm_queue::DglmQueue, fine_list::FineList, hm_list::HmList,
    hsy_stack::HsyStack, hw_queue::HwQueue, lazy_list::LazyList, ms_queue::MsQueue,
    newcas::NewCas, optimistic_list::OptimisticList, rdcss::Rdcss, specs::*, treiber::Treiber,
    treiber_hp::TreiberHp, treiber_hp_fu::TreiberHpFu, two_lock_queue::TwoLockQueue,
};
use bbverify::bisim::{oracle, partition, Equivalence, PartitionOptions};
use bbverify::lts::{to_aut, ExploreOptions, Watchdog};
use bbverify::reduce::{differential_check, explore_reduced, DifferentialReport};
use bbverify::sim::{AtomicSpec, Bound, ObjectAlgorithm, SequentialSpec};

/// Runs the differential check and asserts it passed.
fn check<A: ObjectAlgorithm, S: SequentialSpec>(
    alg: &A,
    spec: &AtomicSpec<S>,
    threads: u8,
    ops: u32,
    lock_freedom: bool,
) -> DifferentialReport {
    let r = differential_check(alg, spec, Bound::new(threads, ops), lock_freedom)
        .expect("exploration fits in the default budget");
    assert!(r.passed(), "{}", r.render());
    r
}

/// One differential case: `≈div` + verdict equality at `--reduce por`.
macro_rules! case {
    ($test:ident, $alg:expr, $spec:expr, $t:expr, $o:expr, lock_freedom = $lf:expr) => {
        #[test]
        fn $test() {
            check(&$alg, &AtomicSpec::new($spec), $t, $o, $lf);
        }
    };
}

case!(treiber, Treiber::new(&[1, 2]), SeqStack::new(&[1, 2]), 2, 2, lock_freedom = true);
case!(treiber_hp, TreiberHp::new(&[1], 2), SeqStack::new(&[1]), 2, 2, lock_freedom = true);
case!(ms_queue, MsQueue::new(&[1, 2]), SeqQueue::new(&[1, 2]), 2, 2, lock_freedom = true);
case!(dglm_queue, DglmQueue::new(&[1, 2]), SeqQueue::new(&[1, 2]), 2, 2, lock_freedom = true);
case!(ccas, Ccas::new(2), SeqCcas::new(2), 2, 2, lock_freedom = true);
case!(rdcss, Rdcss::new(2), SeqRdcss::new(2), 2, 1, lock_freedom = true);
case!(newcas, NewCas::new(2), SeqRegister::new(2), 2, 2, lock_freedom = true);
case!(hm_list, HmList::revised(&[1]), SeqSet::new(&[1]), 2, 2, lock_freedom = true);
case!(hsy_stack, HsyStack::new(&[1]), SeqStack::new(&[1]), 2, 2, lock_freedom = true);
case!(lazy_list, LazyList::new(&[1]), SeqSet::new(&[1]), 2, 2, lock_freedom = false);
case!(optimistic_list, OptimisticList::new(&[1]), SeqSet::new(&[1]), 2, 2, lock_freedom = false);
case!(fine_list, FineList::new(&[1]), SeqSet::new(&[1]), 2, 2, lock_freedom = false);
case!(two_lock_queue, TwoLockQueue::new(&[1]), SeqQueue::new(&[1]), 2, 2, lock_freedom = false);
case!(coarse_stack, CoarseLocked::new(SeqStack::new(&[1])), SeqStack::new(&[1]), 2, 2, lock_freedom = false);
case!(coarse_queue, CoarseLocked::new(SeqQueue::new(&[1])), SeqQueue::new(&[1]), 2, 2, lock_freedom = false);
case!(coarse_set, CoarseLocked::new(SeqSet::new(&[1])), SeqSet::new(&[1]), 2, 2, lock_freedom = false);

/// The three buggy case studies must *stay* buggy under reduction: a
/// reduction that silently erased a counterexample would pass `≈div`-less
/// pipelines while breaking soundness in the most damaging way.
#[test]
fn hw_queue_lock_freedom_bug_survives_reduction() {
    let r = check(
        &HwQueue::for_bound(&[1], 3, 1),
        &AtomicSpec::new(SeqQueue::new(&[1])),
        3,
        1,
        true,
    );
    assert!(r.full_linearizable && r.reduced_linearizable);
    assert_eq!(r.full_lock_free, Some(false));
    assert_eq!(r.reduced_lock_free, Some(false));
}

#[test]
fn treiber_hp_fu_bug_survives_reduction() {
    let r = check(
        &TreiberHpFu::new(&[1], 2),
        &AtomicSpec::new(SeqStack::new(&[1])),
        2,
        2,
        true,
    );
    assert_eq!(r.full_lock_free, Some(false));
    assert_eq!(r.reduced_lock_free, Some(false));
}

#[test]
fn hm_list_buggy_violation_survives_reduction() {
    let r = check(
        &HmList::buggy(&[1]),
        &AtomicSpec::new(SeqSet::new(&[1])),
        2,
        2,
        false,
    );
    assert!(!r.full_linearizable && !r.reduced_linearizable);
}

/// POR is sound for representative algorithms of each annotation shape:
/// CAS-loop with private allocation (Treiber), per-thread shared slots
/// (TreiberHp), lock ownership (coarse).
#[test]
fn individual_layers_on_representative_algorithms() {
    check(&Treiber::new(&[1]), &AtomicSpec::new(SeqStack::new(&[1])), 2, 2, true);
    check(&TreiberHp::new(&[1], 2), &AtomicSpec::new(SeqStack::new(&[1])), 2, 2, true);
    check(
        &CoarseLocked::new(SeqSet::new(&[1])),
        &AtomicSpec::new(SeqSet::new(&[1])),
        2,
        2,
        false,
    );
}

/// Reduction is deterministic: the reduced LTS is byte-identical from run
/// to run, and its branching partition equals the full-engine oracle's, for
/// an algorithm exercising every reducer feature (ample chains and proviso
/// fallbacks).
#[test]
fn reduced_exploration_is_deterministic() {
    let alg = TreiberHp::new(&[1], 2);
    let bound = Bound::new(2, 2);
    let reduce = || explore_reduced(&alg, bound, &ExploreOptions::new());
    let (base, stats) = reduce().unwrap();
    assert!(stats.ample_states > 0, "reducer must actually fire: {stats}");
    assert_eq!(
        to_aut(&base),
        to_aut(&reduce().unwrap().0),
        "reduced LTS must repeat"
    );
    let wd = Watchdog::unlimited();
    let full = oracle::partition_full(&base, Equivalence::Branching, &wd, PartitionOptions);
    assert_eq!(
        full.unwrap(),
        partition(&base, Equivalence::Branching),
        "reduced partition must match the oracle"
    );
}
