//! Roster-wide encoding contract: every algorithm's canonical bit-packed
//! state encoding must round-trip exactly (`decode(encode(s)) == s`),
//! re-encode deterministically, and drive the compact exploration engine to
//! the byte-identical `.aut` the rich-struct oracle produces.

use bb_algorithms::abstracts::{AbsCcas, AbsQueue, AbsRdcss};
use bb_algorithms::ccas::Ccas;
use bb_algorithms::coarse::CoarseLocked;
use bb_algorithms::dglm_queue::DglmQueue;
use bb_algorithms::fine_list::FineList;
use bb_algorithms::hm_list::HmList;
use bb_algorithms::hsy_stack::HsyStack;
use bb_algorithms::hw_queue::HwQueue;
use bb_algorithms::lazy_list::LazyList;
use bb_algorithms::ms_queue::MsQueue;
use bb_algorithms::newcas::NewCas;
use bb_algorithms::optimistic_list::OptimisticList;
use bb_algorithms::rdcss::Rdcss;
use bb_algorithms::specs::SeqStack;
use bb_algorithms::treiber::Treiber;
use bb_algorithms::treiber_hp::TreiberHp;
use bb_algorithms::treiber_hp_fu::TreiberHpFu;
use bb_algorithms::two_lock_queue::TwoLockQueue;
use bb_lts::{
    oracle, to_aut, Budget, CodecSemantics, ExhaustReason, ExploreLimits, ExploreOptions,
    Semantics, Stage, Watchdog,
};
use bb_sim::{explore_system_with, Bound, ObjectAlgorithm, System};
use std::collections::HashSet;

/// BFS over the rich semantics, round-tripping every reachable state
/// through the canonical encoding. Returns the number of distinct states,
/// as a sanity check that the sweep actually covered the space.
fn assert_roundtrip<A: ObjectAlgorithm>(alg: &A, bound: Bound) -> usize {
    let system = System::new(alg, bound);
    let mut seen: HashSet<Vec<u8>> = HashSet::new();
    let mut frontier = vec![Semantics::initial_state(&system)];
    let (mut buf, mut buf2) = (Vec::new(), Vec::new());
    while let Some(st) = frontier.pop() {
        buf.clear();
        system.encode_state(&st, &mut buf);
        if !seen.insert(buf.clone()) {
            continue;
        }
        let back = system.decode_state(&buf);
        assert_eq!(back, st, "{}: decode(encode(s)) != s", alg.name());
        buf2.clear();
        system.encode_state(&back, &mut buf2);
        assert_eq!(buf, buf2, "{}: re-encoding is not deterministic", alg.name());
        let mut succ = Vec::new();
        Semantics::successors(&system, &st, &mut succ);
        frontier.extend(succ.into_iter().map(|(_, s)| s));
    }
    seen.len()
}

/// The compact engine must emit the byte-identical `.aut` the rich oracle
/// does.
fn assert_aut_identical<A: ObjectAlgorithm>(alg: &A, bound: Bound) {
    let opts = ExploreOptions::limits(ExploreLimits::default());
    let (rich, _) = oracle::explore_rich(&System::new(alg, bound), &opts).unwrap();
    let aut = to_aut(&explore_system_with(alg, bound, &opts).unwrap());
    assert_eq!(to_aut(&rich), aut, "{}: compact .aut differs", alg.name());
}

fn check<A: ObjectAlgorithm>(alg: &A, bound: Bound) {
    let states = assert_roundtrip(alg, bound);
    assert!(states > 1, "{}: sweep found no states", alg.name());
    assert_aut_identical(alg, bound);
}

#[test]
fn stacks_round_trip_and_match() {
    check(&Treiber::new(&[1]), Bound::new(2, 2));
    check(&HsyStack::new(&[1]), Bound::new(2, 1));
    // Hazard-pointer variants, including the deliberately buggy
    // free-unsafe one — buggy states must encode as faithfully as correct
    // ones.
    check(&TreiberHp::new(&[1], 2), Bound::new(2, 1));
    check(&TreiberHpFu::new(&[1], 2), Bound::new(2, 1));
}

#[test]
fn queues_round_trip_and_match() {
    check(&MsQueue::new(&[1]), Bound::new(2, 1));
    check(&DglmQueue::new(&[1]), Bound::new(2, 1));
    check(&HwQueue::new(&[1], 2), Bound::new(2, 1));
    check(&TwoLockQueue::new(&[1]), Bound::new(2, 1));
    check(&AbsQueue::new(&[1]), Bound::new(2, 2));
}

#[test]
fn sets_round_trip_and_match() {
    check(&FineList::new(&[1]), Bound::new(2, 1));
    check(&HmList::revised(&[1]), Bound::new(2, 1));
    check(&HmList::buggy(&[1]), Bound::new(2, 1));
    check(&LazyList::new(&[1]), Bound::new(2, 1));
    check(&OptimisticList::new(&[1]), Bound::new(2, 1));
}

#[test]
fn cas_objects_round_trip_and_match() {
    check(&Ccas::new(1), Bound::new(2, 1));
    check(&AbsCcas::new(1), Bound::new(2, 2));
    check(&Rdcss::new(1), Bound::new(2, 1));
    check(&AbsRdcss::new(1), Bound::new(2, 2));
    check(&NewCas::new(1), Bound::new(2, 2));
}

#[test]
fn coarse_locked_spec_round_trips_and_matches() {
    // The generic lock wrapper exercises the hand-written `Pack` impl for
    // `coarse::Shared<S>` over a heap-free sequential spec.
    check(&CoarseLocked::new(SeqStack::new(&[1])), Bound::new(2, 2));
}

/// The out-of-core window the compact store opens: under a 6 MB memory cap
/// the rich hash-map oracle exhausts newcas 3-3 during exploration. (The
/// compact store plus `--spill` proving the same case under the same cap
/// is an end-to-end CLI check.)
#[test]
fn rich_store_exhausts_newcas_3_3_under_a_6mb_cap() {
    let wd = Watchdog::new(Budget::unlimited().with_max_memory_bytes(6_000_000));
    let newcas = NewCas::new(2);
    let system = System::new(&newcas, Bound::new(3, 3));
    let err = oracle::explore_rich(&system, &ExploreOptions::governed(&wd)).unwrap_err();
    assert_eq!(err.stage, Stage::Explore);
    assert_eq!(err.reason, ExhaustReason::Memory);
}
