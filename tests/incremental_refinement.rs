//! Differential harness for the incremental partition-refinement engine.
//!
//! The incremental engine (dirty-state worklists, signature interning,
//! condensation reuse) must be **bit-identical** to the full-engine oracle
//! (`bb_bisim::oracle`): same
//! partition — block ids included — same round-by-round history, same
//! quotients and `.aut` exports, same verification verdicts, under every
//! equivalence and any worker count. These tests check exactly that on
//! the full algorithm roster (including the known-buggy variants), on a
//! seeded random-LTS sweep, and under a budget that trips mid-refinement.

use bbverify::algorithms::{
    ccas::Ccas, coarse::CoarseLocked, dglm_queue::DglmQueue, fine_list::FineList,
    hm_list::HmList, hsy_stack::HsyStack, hw_queue::HwQueue, lazy_list::LazyList,
    ms_queue::MsQueue, newcas::NewCas, optimistic_list::OptimisticList, rdcss::Rdcss, specs::*,
    treiber::Treiber, treiber_hp::TreiberHp, treiber_hp_fu::TreiberHpFu,
    two_lock_queue::TwoLockQueue,
};
use bbverify::bisim::{
    oracle, partition_with, partition_with_history, quotient, Equivalence, Partition,
    PartitionOptions, RefinementHistory,
};
use bbverify::core::{verify_case_lts, VerifyConfig};
use bbverify::lts::{
    disjoint_union, random_lts, to_aut, Action, Budget, ExhaustReason, Exhausted, ExploreLimits,
    Jobs, Lts, LtsBuilder, RandomLtsConfig, Stage, ThreadId, Watchdog,
};
use bbverify::sim::{explore_system, AtomicSpec, Bound, ObjectAlgorithm, SequentialSpec};

const EQUIVALENCES: [Equivalence; 4] = [
    Equivalence::Strong,
    Equivalence::Branching,
    Equivalence::BranchingDiv,
    Equivalence::Weak,
];

type Governed = fn(&Lts, Equivalence, &Watchdog, PartitionOptions) -> Result<Partition, Exhausted>;
type WithHistory = fn(&Lts, Equivalence, PartitionOptions) -> (Partition, RefinementHistory);

/// The full-engine oracle and the production engine, by name.
const ENGINES: [(&str, Governed, WithHistory); 2] = [
    ("full", oracle::partition_full, oracle::partition_full_with_history),
    ("incremental", partition_with, partition_with_history),
];

fn jobs(n: usize) -> PartitionOptions {
    PartitionOptions::default().with_jobs(Jobs::new(n))
}

fn full(lts: &Lts, eq: Equivalence) -> Partition {
    oracle::partition_full(lts, eq, &Watchdog::unlimited(), PartitionOptions::default()).unwrap()
}

fn incremental(lts: &Lts, eq: Equivalence, opts: PartitionOptions) -> Partition {
    partition_with(lts, eq, &Watchdog::unlimited(), opts).unwrap()
}

/// Asserts the full-engine oracle and the incremental engine agree on
/// `lts` — the final partition (assignments *and* block ids) and the whole
/// round history — for every equivalence at both worker counts.
fn assert_engines_agree(lts: &Lts, what: &str) {
    for eq in EQUIVALENCES {
        let (p_full, h_full) = oracle::partition_full_with_history(lts, eq, jobs(1));
        for n in [1, 4] {
            let (p_inc, h_inc) = partition_with_history(lts, eq, jobs(n));
            assert_eq!(
                p_full, p_inc,
                "{what}: final partition differs under {eq:?} at {n} job(s)"
            );
            assert_eq!(
                h_full.rounds.len(),
                h_inc.rounds.len(),
                "{what}: round count differs under {eq:?} at {n} job(s)"
            );
            for (i, (a, b)) in h_full.rounds.iter().zip(&h_inc.rounds).enumerate() {
                assert_eq!(a, b, "{what}: history round {i} differs under {eq:?} at {n} job(s)");
            }
        }
    }
}

fn lts_of<A: ObjectAlgorithm>(alg: &A, threads: u8, ops: u32) -> Lts {
    explore_system(alg, Bound::new(threads, ops), ExploreLimits::default())
        .unwrap_or_else(|e| panic!("exploration of {} exceeded limits: {e}", alg.name()))
}

macro_rules! roster_case {
    ($test:ident, $alg:expr, $t:expr, $o:expr) => {
        #[test]
        fn $test() {
            let lts = lts_of(&$alg, $t, $o);
            assert_engines_agree(&lts, stringify!($test));
        }
    };
}

// Correct algorithms, a lock-based one, and both known-buggy variants: the
// engines must agree on failures exactly as they agree on successes.
roster_case!(roster_treiber, Treiber::new(&[1]), 2, 2);
roster_case!(roster_ms_queue, MsQueue::new(&[1]), 2, 2);
roster_case!(roster_lazy_list, LazyList::new(&[1]), 2, 2);
roster_case!(roster_ccas, Ccas::new(2), 2, 2);
roster_case!(roster_hw_queue, HwQueue::for_bound(&[1], 3, 1), 3, 1);
roster_case!(roster_treiber_hp_fu, TreiberHpFu::new(&[1], 2), 2, 2);
roster_case!(roster_hm_list_buggy, HmList::buggy(&[1]), 2, 2);

#[test]
fn engines_agree_on_specification_ltss() {
    let spec = lts_of(&AtomicSpec::new(SeqQueue::new(&[1, 2])), 2, 2);
    assert_engines_agree(&spec, "queue spec");
    let spec = lts_of(&AtomicSpec::new(SeqSet::new(&[1])), 2, 2);
    assert_engines_agree(&spec, "set spec");
}

#[test]
fn engines_agree_on_seeded_random_ltss() {
    for seed in 0..24 {
        let lts = random_lts(seed, RandomLtsConfig::default());
        assert_engines_agree(&lts, &format!("random seed {seed}"));
    }
}

/// The quotients — and therefore their `.aut` exports — are byte-identical,
/// because the partitions agree block id by block id.
#[test]
fn aut_exports_of_quotients_are_byte_identical() {
    let lts = lts_of(&MsQueue::new(&[1]), 2, 2);
    for eq in EQUIVALENCES {
        let q_full = quotient(&lts, &full(&lts, eq));
        for n in [1, 4] {
            let q_inc = quotient(&lts, &incremental(&lts, eq, jobs(n)));
            assert_eq!(
                to_aut(&q_full.lts),
                to_aut(&q_inc.lts),
                ".aut export differs under {eq:?} at {n} job(s)"
            );
        }
    }
}

/// The oracle check behind every `tables verdicts` line: on each of the 19
/// roster cases, the full engine's partition equals the production
/// engine's on every LTS the verdict pipeline refines — the implementation
/// and the specification under `≈` (Theorem 5.3), and the union of the
/// implementation with its quotient under `≈div` (Theorem 5.9, lock-free
/// cases only). Equal partitions make equal verdicts; the verdict summary
/// is also checked at four workers.
#[test]
fn verdicts_are_identical_across_engines() {
    fn check<A: ObjectAlgorithm, S: SequentialSpec>(
        name: &str,
        alg: A,
        spec: S,
        bound: (u8, u32),
        lock_freedom: bool,
    ) {
        let (th, op) = bound;
        let imp = lts_of(&alg, th, op);
        let sp = lts_of(&AtomicSpec::new(spec), th, op);
        let eq = Equivalence::Branching;
        let p_imp = incremental(&imp, eq, jobs(1));
        assert_eq!(full(&imp, eq), p_imp, "{name}: implementation partition differs");
        assert_eq!(full(&sp, eq), incremental(&sp, eq, jobs(1)), "{name}: spec partition differs");
        if lock_freedom {
            let u = disjoint_union(&imp, &quotient(&imp, &p_imp).lts).lts;
            let div = Equivalence::BranchingDiv;
            let p_inc = incremental(&u, div, jobs(1));
            assert_eq!(full(&u, div), p_inc, "{name}: ≈div union differs");
        }
        let mut cfg = VerifyConfig::new(Bound::new(th, op));
        if !lock_freedom {
            cfg = cfg.linearizability_only();
        }
        let serial = verify_case_lts("case", cfg, &imp, &sp).summary();
        let parallel = verify_case_lts("case", cfg.with_jobs(Jobs::new(4)), &imp, &sp).summary();
        assert_eq!(serial, parallel, "{name}: verdict differs at 4 jobs");
    }
    check("treiber", Treiber::new(&[1, 2]), SeqStack::new(&[1, 2]), (2, 2), true);
    check("treiber-hp", TreiberHp::new(&[1], 2), SeqStack::new(&[1]), (2, 2), true);
    check("treiber-hp-fu", TreiberHpFu::new(&[1], 2), SeqStack::new(&[1]), (2, 2), true);
    check("ms-queue", MsQueue::new(&[1, 2]), SeqQueue::new(&[1, 2]), (2, 2), true);
    check("dglm-queue", DglmQueue::new(&[1, 2]), SeqQueue::new(&[1, 2]), (2, 2), true);
    check("hw-queue", HwQueue::for_bound(&[1], 3, 1), SeqQueue::new(&[1]), (3, 1), true);
    check("ccas", Ccas::new(2), SeqCcas::new(2), (2, 2), true);
    check("rdcss", Rdcss::new(2), SeqRdcss::new(2), (2, 1), true);
    check("newcas", NewCas::new(2), SeqRegister::new(2), (2, 2), true);
    check("hm-list", HmList::revised(&[1]), SeqSet::new(&[1]), (2, 2), true);
    check("hm-list-buggy", HmList::buggy(&[1]), SeqSet::new(&[1]), (2, 2), true);
    check("hsy-stack", HsyStack::new(&[1]), SeqStack::new(&[1]), (2, 2), true);
    check("lazy-list", LazyList::new(&[1]), SeqSet::new(&[1]), (2, 2), false);
    check("optimistic-list", OptimisticList::new(&[1]), SeqSet::new(&[1]), (2, 2), false);
    check("fine-list", FineList::new(&[1]), SeqSet::new(&[1]), (2, 2), false);
    check("two-lock-queue", TwoLockQueue::new(&[1]), SeqQueue::new(&[1]), (2, 2), false);
    let (stack, queue, set) = (SeqStack::new(&[1]), SeqQueue::new(&[1]), SeqSet::new(&[1]));
    check("coarse-stack", CoarseLocked::new(stack.clone()), stack, (2, 2), false);
    check("coarse-queue", CoarseLocked::new(queue.clone()), queue, (2, 2), false);
    check("coarse-set", CoarseLocked::new(set.clone()), set, (2, 2), false);
}

/// The jobs sweep: partitions, round-by-round histories and quotient
/// `.aut` bytes of the production engine at `jobs ∈ {1, 2, 4}` must all
/// equal the serial full-engine oracle. Runs on a roster slice that
/// includes a lock-based algorithm and a known-buggy variant (failures
/// must replicate exactly as successes do).
#[test]
fn jobs_sweep_is_bit_identical_to_the_oracle() {
    let cases: [(&str, Lts); 3] = [
        ("ms-queue", lts_of(&MsQueue::new(&[1]), 2, 2)),
        ("lazy-list", lts_of(&LazyList::new(&[1]), 2, 2)),
        ("hm-list-buggy", lts_of(&HmList::buggy(&[1]), 2, 2)),
    ];
    for (name, lts) in &cases {
        for eq in [Equivalence::Strong, Equivalence::Branching] {
            let (p0, h0) = oracle::partition_full_with_history(lts, eq, jobs(1));
            let aut0 = to_aut(&quotient(lts, &p0).lts);
            for n in [1, 2, 4] {
                let tag = format!("{name} {eq:?} at {n} job(s)");
                let (p, h) = partition_with_history(lts, eq, jobs(n));
                assert_eq!(p0, p, "{tag}: partition differs");
                assert_eq!(h0.rounds, h.rounds, "{tag}: history differs");
                assert_eq!(aut0, to_aut(&quotient(lts, &p).lts), "{tag}: .aut bytes differ");
            }
        }
    }
}

/// The `PartialStats.refinement` boundary semantics: a budget that trips
/// before the first round completes reports *no* refinement progress (not
/// a phantom round 0), and a trip exactly on a round boundary reports the
/// just-completed round with its block count — consistent with the
/// unbudgeted run's history — in both engines.
#[test]
fn partial_stats_refinement_round_boundaries_are_exact() {
    let k = 40u32;
    let mut b = LtsBuilder::new();
    let states: Vec<_> = (0..k).map(|_| b.add_state()).collect();
    let a = b.intern_action(Action::call(ThreadId(1), "step", None));
    for w in states.windows(2) {
        b.add_transition(w[0], a, w[1]);
    }
    let lts = b.build(states[0]);
    let scan = lts.num_transitions(); // per-round charge of the full engine

    for (mode, governed, with_history) in ENGINES {
        // Reference history of the uninterrupted run: rounds[r] is the
        // partition after round r (rounds[0] is the universal start).
        let (_, h) = with_history(&lts, Equivalence::Strong, jobs(1));

        // Trip before round 1 can complete: no round was finished, so the
        // partial stats must carry no refinement note at all.
        let wd = Watchdog::new(Budget::unlimited().with_max_transitions(scan - 1));
        let err = governed(&lts, Equivalence::Strong, &wd, jobs(1))
            .expect_err("budget under one scan must trip in round 1");
        assert_eq!(err.reason, ExhaustReason::TransitionCap, "{mode}");
        assert_eq!(
            err.partial.refinement, None,
            "{mode}: a trip before round 1 completes must not report a round"
        );

        // Trip exactly on a round boundary: the just-completed round must
        // be reported, and its block count must match the history.
        let wd = Watchdog::new(Budget::unlimited().with_max_transitions(2 * scan - 1));
        let err = governed(&lts, Equivalence::Strong, &wd, jobs(1))
            .expect_err("the chain needs ~k rounds; two scans of budget must trip");
        assert_eq!(err.reason, ExhaustReason::TransitionCap, "{mode}");
        let (rounds, blocks) = err.partial.refinement.unwrap_or_else(|| {
            panic!("{mode}: a boundary trip after a completed round must report it")
        });
        assert!(rounds >= 1, "{mode}: at least round 1 completed");
        assert_eq!(
            blocks,
            h.rounds[rounds as usize].num_blocks() as u64,
            "{mode}: reported blocks must be the just-completed round's"
        );
    }
}

/// A visible chain long enough that refinement needs many rounds; a
/// transition budget of one round plus a little trips *mid-refinement* in
/// both engines, with the same structured error.
#[test]
fn budget_trips_mid_refinement_in_both_engines() {
    let k = 40u32;
    let mut b = LtsBuilder::new();
    let states: Vec<_> = (0..k).map(|_| b.add_state()).collect();
    let a = b.intern_action(Action::call(ThreadId(1), "step", None));
    for w in states.windows(2) {
        b.add_transition(w[0], a, w[1]);
    }
    let lts = b.build(states[0]);

    for (mode, governed, _) in ENGINES {
        let wd = Watchdog::new(Budget::unlimited().with_max_transitions(k as usize - 1 + 2));
        let err = governed(&lts, Equivalence::Strong, &wd, jobs(1))
            .expect_err("the chain needs ~k rounds; one round of budget must trip");
        assert_eq!(err.stage, Stage::Bisim, "{mode}: wrong stage");
        assert_eq!(err.reason, ExhaustReason::TransitionCap, "{mode}: wrong reason");
    }
}
