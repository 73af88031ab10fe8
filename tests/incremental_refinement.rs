//! Differential harness for the incremental partition-refinement engine.
//!
//! The incremental engine (dirty-state worklists, signature interning,
//! condensation reuse) must be **bit-identical** to the full-engine oracle
//! (`bb_bisim::oracle`): same
//! partition — block ids included — same round-by-round history, same
//! quotients and `.aut` exports, same verification verdicts, under every
//! equivalence. These tests check exactly that on the full algorithm
//! roster (including the known-buggy variants), on a seeded random-LTS
//! sweep, and under a budget that trips mid-refinement.

use bbverify::algorithms::{
    ccas::Ccas, coarse::CoarseLocked, dglm_queue::DglmQueue, fine_list::FineList,
    hm_list::HmList, hsy_stack::HsyStack, hw_queue::HwQueue, lazy_list::LazyList,
    ms_queue::MsQueue, newcas::NewCas, optimistic_list::OptimisticList, rdcss::Rdcss, specs::*,
    treiber::Treiber, treiber_hp::TreiberHp, treiber_hp_fu::TreiberHpFu,
    two_lock_queue::TwoLockQueue,
};
use bbverify::bisim::{
    has_tau_cycle, oracle, partition_with, partition_with_history, quotient, Equivalence,
    Partition, PartitionOptions, RefinementHistory,
};
use bbverify::core::verify_lock_freedom;
use bbverify::lts::{
    disjoint_union, random_lts, to_aut, Action, Budget, ExhaustReason, Exhausted, ExploreLimits,
    Lts, LtsBuilder, RandomLtsConfig, Stage, ThreadId, Watchdog,
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

const OPTS: PartitionOptions = PartitionOptions;

fn full(lts: &Lts, eq: Equivalence) -> Partition {
    oracle::partition_full(lts, eq, &Watchdog::unlimited(), OPTS).unwrap()
}

fn incremental(lts: &Lts, eq: Equivalence) -> Partition {
    partition_with(lts, eq, &Watchdog::unlimited(), OPTS).unwrap()
}

/// Asserts the full-engine oracle and the incremental engine agree on
/// `lts` — the final partition (assignments *and* block ids) and the whole
/// round history — for every equivalence.
fn assert_engines_agree(lts: &Lts, what: &str) {
    for eq in EQUIVALENCES {
        let (p_full, h_full) = oracle::partition_full_with_history(lts, eq, OPTS);
        let (p_inc, h_inc) = partition_with_history(lts, eq, OPTS);
        assert_eq!(
            p_full, p_inc,
            "{what}: final partition differs under {eq:?}"
        );
        assert_eq!(
            h_full.rounds.len(),
            h_inc.rounds.len(),
            "{what}: round count differs under {eq:?}"
        );
        for (i, (a, b)) in h_full.rounds.iter().zip(&h_inc.rounds).enumerate() {
            assert_eq!(a, b, "{what}: history round {i} differs under {eq:?}");
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
        let q_inc = quotient(&lts, &incremental(&lts, eq));
        assert_eq!(
            to_aut(&q_full.lts),
            to_aut(&q_inc.lts),
            ".aut export differs under {eq:?}"
        );
    }
}

/// Theorem 5.9 three ways must give one answer: the `≈div` refinement of
/// `Δ ⊎ Δ/≈` (the paper's check, kept as an oracle), the production
/// τ-cycle pass, and a bare reachable-τ-cycle test.
fn assert_lock_freedom_routes_agree(name: &str, imp: &Lts) {
    let wd = Watchdog::unlimited();
    let by_union = bbverify::core::oracle::lock_free_by_div_union(imp, &wd, OPTS).unwrap();
    let report = verify_lock_freedom(imp);
    assert_eq!(by_union, report.lock_free, "{name}: ≈div union disagrees with the report");
    assert_eq!(report.lock_free, !has_tau_cycle(imp), "{name}: τ-cycle test disagrees");
    assert_eq!(report.lock_free, report.divergence.is_none(), "{name}: lasso without a verdict");
}

/// The oracle check behind every `tables verdicts` line: on each of the 19
/// roster cases, the full engine's partition equals the production
/// engine's on every LTS the verdict pipeline refines — the implementation
/// and the specification under `≈` (Theorem 5.3), and, on the 12
/// lock-freedom cases, the union of the implementation with its quotient
/// under `≈div`. Equal partitions make equal verdicts. The lock-freedom
/// cases also check that
/// the three routes to Theorem 5.9 agree, at the verdict bound and at the
/// second bound `lf_bound`.
#[test]
fn verdicts_are_identical_across_engines() {
    fn check<A: ObjectAlgorithm, S: SequentialSpec>(
        name: &str,
        alg: A,
        spec: S,
        bound: (u8, u32),
        lf_bound: Option<(u8, u32)>,
    ) {
        let lock_freedom = lf_bound.is_some();
        let (th, op) = bound;
        let imp = lts_of(&alg, th, op);
        let sp = lts_of(&AtomicSpec::new(spec), th, op);
        let eq = Equivalence::Branching;
        let p_imp = incremental(&imp, eq);
        assert_eq!(full(&imp, eq), p_imp, "{name}: implementation partition differs");
        assert_eq!(
            full(&sp, eq),
            incremental(&sp, eq),
            "{name}: spec partition differs"
        );
        if lock_freedom {
            let u = disjoint_union(&imp, &quotient(&imp, &p_imp).lts).lts;
            let div = Equivalence::BranchingDiv;
            let p_inc = incremental(&u, div);
            assert_eq!(full(&u, div), p_inc, "{name}: ≈div union differs");
            assert_lock_freedom_routes_agree(&format!("{name} {th}-{op}"), &imp);
        }
        if let Some((th, op)) = lf_bound {
            assert_lock_freedom_routes_agree(&format!("{name} {th}-{op}"), &lts_of(&alg, th, op));
        }
    }
    // Second bounds: 3-1 where the model takes a third thread and stays
    // small, else the 2-1 below the verdict bound (2-2 above it for RDCSS,
    // whose 3-1 has 142k states).
    check("treiber", Treiber::new(&[1, 2]), SeqStack::new(&[1, 2]), (2, 2), Some((3, 1)));
    check("treiber-hp", TreiberHp::new(&[1], 2), SeqStack::new(&[1]), (2, 2), Some((2, 1)));
    check("treiber-hp-fu", TreiberHpFu::new(&[1], 2), SeqStack::new(&[1]), (2, 2), Some((2, 1)));
    check("ms-queue", MsQueue::new(&[1, 2]), SeqQueue::new(&[1, 2]), (2, 2), Some((2, 1)));
    check("dglm-queue", DglmQueue::new(&[1, 2]), SeqQueue::new(&[1, 2]), (2, 2), Some((2, 1)));
    check("hw-queue", HwQueue::for_bound(&[1], 3, 1), SeqQueue::new(&[1]), (3, 1), Some((2, 1)));
    check("ccas", Ccas::new(2), SeqCcas::new(2), (2, 2), Some((2, 1)));
    check("rdcss", Rdcss::new(2), SeqRdcss::new(2), (2, 1), Some((2, 2)));
    check("newcas", NewCas::new(2), SeqRegister::new(2), (2, 2), Some((3, 1)));
    check("hm-list", HmList::revised(&[1]), SeqSet::new(&[1]), (2, 2), Some((2, 1)));
    check("hm-list-buggy", HmList::buggy(&[1]), SeqSet::new(&[1]), (2, 2), Some((2, 1)));
    check("hsy-stack", HsyStack::new(&[1]), SeqStack::new(&[1]), (2, 2), Some((3, 1)));
    check("lazy-list", LazyList::new(&[1]), SeqSet::new(&[1]), (2, 2), None);
    check("optimistic-list", OptimisticList::new(&[1]), SeqSet::new(&[1]), (2, 2), None);
    check("fine-list", FineList::new(&[1]), SeqSet::new(&[1]), (2, 2), None);
    check("two-lock-queue", TwoLockQueue::new(&[1]), SeqQueue::new(&[1]), (2, 2), None);
    let (stack, queue, set) = (SeqStack::new(&[1]), SeqQueue::new(&[1]), SeqSet::new(&[1]));
    check("coarse-stack", CoarseLocked::new(stack.clone()), stack, (2, 2), None);
    check("coarse-queue", CoarseLocked::new(queue.clone()), queue, (2, 2), None);
    check("coarse-set", CoarseLocked::new(set.clone()), set, (2, 2), None);
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
        let (_, h) = with_history(&lts, Equivalence::Strong, OPTS);

        // Trip before round 1 can complete: no round was finished, so the
        // partial stats must carry no refinement note at all.
        let wd = Watchdog::new(Budget::unlimited().with_max_transitions(scan - 1));
        let err = governed(&lts, Equivalence::Strong, &wd, OPTS)
            .expect_err("budget under one scan must trip in round 1");
        assert_eq!(err.reason, ExhaustReason::TransitionCap, "{mode}");
        assert_eq!(
            err.partial.refinement, None,
            "{mode}: a trip before round 1 completes must not report a round"
        );

        // Trip exactly on a round boundary: the just-completed round must
        // be reported, and its block count must match the history.
        let wd = Watchdog::new(Budget::unlimited().with_max_transitions(2 * scan - 1));
        let err = governed(&lts, Equivalence::Strong, &wd, OPTS)
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
        let err = governed(&lts, Equivalence::Strong, &wd, OPTS)
            .expect_err("the chain needs ~k rounds; one round of budget must trip");
        assert_eq!(err.stage, Stage::Bisim, "{mode}: wrong stage");
        assert_eq!(err.reason, ExhaustReason::TransitionCap, "{mode}: wrong reason");
    }
}

/// A transition cap of two full scans trips the branching sweep of a real
/// system mid-refinement: the error names the refinement stage and the cap,
/// and its partial statistics carry the whole input and the last completed
/// round with that round's block count.
#[test]
fn branching_cap_trip_reports_partial_stats() {
    let lts = lts_of(&MsQueue::new(&[1]), 2, 2);
    let budget = Budget::unlimited().with_max_transitions(2 * lts.num_transitions());
    let err = partition_with(&lts, Equivalence::Branching, &Watchdog::new(budget), OPTS)
        .expect_err("a two-scan transition cap must trip mid-refinement");
    assert_eq!(err.reason, ExhaustReason::TransitionCap);
    assert_eq!(err.stage, Stage::Bisim);
    assert_eq!(err.partial.states, lts.num_states());
    let (rounds, blocks) = err.partial.refinement.expect("round 1 completes within one scan");
    let (_, h) = partition_with_history(&lts, Equivalence::Branching, OPTS);
    assert_eq!(blocks, h.rounds[rounds as usize].num_blocks() as u64);
}
