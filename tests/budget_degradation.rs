//! Graceful degradation under resource budgets.
//!
//! Two contracts of the resource-governance layer (DESIGN.md):
//!
//! 1. a budget-exhausted stage returns a structured [`Exhausted`] error
//!    naming the stage and the tripped resource — never a panic, and never
//!    a (possibly wrong) verdict — and
//! 2. verdicts are budget-independent: any governed run that *does*
//!    complete agrees with the unbudgeted run, so budgets only ever trade
//!    answers for `Inconclusive`, not for wrong answers.
//!
//! The property sweep reuses the seeded SplitMix64 harness of
//! `tests/properties.rs` (the `proptest` crate is unavailable here).

use bbverify::algorithms::{ms_queue::MsQueue, specs::SeqQueue, treiber::Treiber};
use bbverify::bisim::{
    bisimilar, bisimilar_opts, divergence_witness, divergence_witness_governed, partition,
    partition_with, Equivalence,
};
use bbverify::core::{
    verify_case_governed, verify_case_governed_with, verify_lock_freedom_opts, GovernedConfig,
};
use bbverify::lts::{
    random_lts, Budget, ExhaustReason, Lts, RandomLtsConfig, SpillBackend, Stage, Watchdog,
};
use bbverify::ltl::{check, check_governed, lock_freedom};
use bbverify::refine::{trace_refines, trace_refines_governed, RefineOptions};
use bbverify::lts::ExploreOptions;
use bbverify::sim::{explore_system_with, AtomicSpec, Bound};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Duration;

fn tiny(budget: Budget) -> Watchdog {
    Watchdog::new(budget)
}

fn msq_lts() -> Lts {
    explore_system_with(
        &MsQueue::new(&[1]),
        Bound::new(2, 2),
        &ExploreOptions::governed(&Watchdog::unlimited()),
    )
        .expect("unbudgeted exploration fits")
}

fn msq_spec_lts() -> Lts {
    let spec = AtomicSpec::new(SeqQueue::new(&[1]));
    let unlimited = Watchdog::unlimited();
    explore_system_with(&spec, Bound::new(2, 2), &ExploreOptions::governed(&unlimited)).unwrap()
}

// ------------------------------------------------- per-stage exhaustion

#[test]
fn explore_exhausts_cleanly_on_state_cap() {
    let wd = tiny(Budget::unlimited().with_max_states(10));
    let err = explore_system_with(&MsQueue::new(&[1]), Bound::new(2, 2), &ExploreOptions::governed(&wd)).unwrap_err();
    assert_eq!(err.stage, Stage::Explore);
    assert_eq!(err.reason, ExhaustReason::StateCap);
    assert!(err.partial.states >= 10);
}

#[test]
fn explore_exhausts_cleanly_on_expired_deadline() {
    let wd = tiny(Budget::unlimited().with_deadline(Duration::ZERO));
    let err = explore_system_with(&MsQueue::new(&[1]), Bound::new(2, 2), &ExploreOptions::governed(&wd)).unwrap_err();
    assert_eq!(err.stage, Stage::Explore);
    assert_eq!(err.reason, ExhaustReason::Deadline);
}

#[test]
fn bisim_refinement_exhausts_cleanly() {
    let lts = msq_lts();
    let wd = tiny(Budget::unlimited().with_max_transitions(5));
    let err = partition_with(&lts, Equivalence::Branching, &wd, Default::default()).unwrap_err();
    assert_eq!(err.stage, Stage::Bisim);
    assert_eq!(err.reason, ExhaustReason::TransitionCap);

    let wd = tiny(Budget::unlimited().with_max_memory_bytes(64));
    let err = partition_with(&lts, Equivalence::Branching, &wd, Default::default()).unwrap_err();
    assert_eq!(err.stage, Stage::Bisim);
    assert_eq!(err.reason, ExhaustReason::Memory);
}

#[test]
fn divergence_search_exhausts_cleanly() {
    let lts = msq_lts();
    let wd = tiny(Budget::unlimited().with_max_states(3));
    let err = divergence_witness_governed(&lts, &wd).unwrap_err();
    assert_eq!(err.stage, Stage::Divergence);
    assert_eq!(err.reason, ExhaustReason::StateCap);
}

/// Theorem 5.9 is one τ-cycle pass, so the pass itself must honour the
/// memory cap: its Tarjan and BFS arrays (about 31 bytes a state) are
/// charged before they are allocated. A cap of 16 bytes a state admits
/// every other stage on these systems but not the pass, which must then
/// end lock-freedom as inconclusive, naming the divergence stage.
#[test]
fn divergence_memory_cap_is_inconclusive_never_a_verdict() {
    let (imp, spec) = (msq_lts(), msq_spec_lts());
    let budget = Budget::unlimited().with_max_memory_bytes(16 * imp.num_states());

    let err = verify_lock_freedom_opts(&imp, &tiny(budget.clone()), Default::default())
        .unwrap_err();
    assert_eq!(err.stage, Stage::Divergence);
    assert_eq!(err.reason, ExhaustReason::Memory);

    // Through the ladder. Exploration charges more per state than the pass
    // (store plus 12 bytes a transition), so the systems come in already
    // explored, as a resumed run seeds them from its checkpoint.
    let explorer = |_: Bound, _: &Watchdog| Ok((imp.clone(), spec.clone()));
    let config = GovernedConfig::new(Bound::new(2, 2), budget).no_fallback();
    let report = verify_case_governed_with("MS queue", &config, &explorer);
    let failure = report.attempts[0].failure.as_ref().expect("the direct rung exhausts");
    assert_eq!(failure.stage, Stage::Divergence, "{}", report.render());
    let lf = report.lock_freedom.as_ref().expect("lock-freedom was checked");
    assert!(lf.is_inconclusive(), "{}", report.render());
    assert!(lf.to_string().contains("divergence stage"), "{lf}");
    assert!(report.linearizability.is_inconclusive(), "{}", report.render());
}

#[test]
fn trace_refinement_exhausts_cleanly() {
    let (imp, spec) = (msq_lts(), msq_spec_lts());
    let wd = tiny(Budget::unlimited().with_max_transitions(4));
    let err =
        trace_refines_governed(&imp, &spec, RefineOptions::default(), &wd).unwrap_err();
    assert_eq!(err.stage, Stage::Refine);
    assert_eq!(err.reason, ExhaustReason::TransitionCap);
}

#[test]
fn ltl_check_exhausts_cleanly() {
    let lts = msq_lts();
    let wd = tiny(Budget::unlimited().with_max_states(3));
    let err = check_governed(&lts, &lock_freedom(), &wd).unwrap_err();
    assert_eq!(err.stage, Stage::Ltl);
    assert_eq!(err.reason, ExhaustReason::StateCap);
}

#[test]
fn cancellation_trips_every_stage() {
    let lts = msq_lts();
    for make in [
        (|lts: &Lts, wd: &Watchdog| {
            partition_with(lts, Equivalence::Branching, wd, Default::default()).err()
        })
            as fn(&Lts, &Watchdog) -> _,
        |lts, wd| divergence_witness_governed(lts, wd).err(),
        |lts, wd| check_governed(lts, &lock_freedom(), wd).err(),
    ] {
        let wd = Watchdog::unlimited();
        wd.cancel();
        let err = make(&lts, &wd).expect("cancelled run must not complete");
        assert_eq!(err.reason, ExhaustReason::Cancelled);
    }
}

// ------------------------------------------- case-level graceful degradation

#[test]
fn tiny_budget_case_is_inconclusive_never_a_verdict() {
    let budget = Budget::unlimited().with_max_states(10);
    let config = GovernedConfig::new(Bound::new(2, 2), budget).no_fallback();
    let report = verify_case_governed(
        &MsQueue::new(&[1]),
        &AtomicSpec::new(SeqQueue::new(&[1])),
        &config,
    );
    assert!(report.overall().is_inconclusive(), "{}", report.render());
    assert!(!report.linearizability.is_proved());
    assert!(!report.linearizability.is_refuted());
    // The failed attempt records which stage ran out.
    let failure = report.attempts[0].failure.as_ref().expect("attempt failed");
    assert_eq!(failure.stage, Stage::Explore);
}

#[test]
fn generous_budget_agrees_with_unbudgeted_case_verdict() {
    let budget = Budget::unlimited()
        .with_deadline(Duration::from_secs(120))
        .with_max_states(1_000_000);
    let config = GovernedConfig::new(Bound::new(2, 1), budget);
    let governed = verify_case_governed(
        &Treiber::new(&[1]),
        &AtomicSpec::new(bbverify::algorithms::specs::SeqStack::new(&[1])),
        &config,
    );
    assert!(governed.overall().is_proved(), "{}", governed.render());

    let unbudgeted = verify_case_governed(
        &Treiber::new(&[1]),
        &AtomicSpec::new(bbverify::algorithms::specs::SeqStack::new(&[1])),
        &GovernedConfig::new(Bound::new(2, 1), Budget::unlimited()),
    );
    assert_eq!(governed.overall(), unbudgeted.overall());
}

/// A spill tier that accepts every write and then betrays the reload:
/// an I/O error, or the segment with one byte flipped.
struct BetrayingSpill {
    segments: Mutex<HashMap<u32, Vec<u8>>>,
    corrupt: bool,
    reads: AtomicU32,
}

impl SpillBackend for BetrayingSpill {
    fn write_segment(&self, index: u32, payload: &[u8]) -> std::io::Result<()> {
        self.segments
            .lock()
            .unwrap()
            .insert(index, payload.to_vec());
        Ok(())
    }

    fn read_segment(&self, index: u32) -> std::io::Result<Vec<u8>> {
        self.reads.fetch_add(1, Ordering::Relaxed);
        if !self.corrupt {
            return Err(std::io::Error::other("spill disk gone"));
        }
        let mut bytes = self.segments.lock().unwrap()[&index].clone();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        Ok(bytes)
    }
}

/// A spilled state-store segment that cannot be reloaded intact ends the
/// explore stage with a structured `SpillFault`; the governed pipeline
/// reports Inconclusive, never a verdict and never a panic. Under a 900 kB
/// cap, ms-queue 2-2 spills one segment and a later probe reloads it.
#[test]
fn unreadable_spill_segment_is_inconclusive_never_a_panic() {
    for corrupt in [false, true] {
        let spill = BetrayingSpill {
            segments: Mutex::new(HashMap::new()),
            corrupt,
            reads: AtomicU32::new(0),
        };
        let alg = MsQueue::new(&[1, 2]);
        let spec = AtomicSpec::new(SeqQueue::new(&[1, 2]));
        let explorer = |bound: Bound, wd: &Watchdog| {
            let opts = ExploreOptions::governed(wd).with_spill(&spill);
            let imp = explore_system_with(&alg, bound, &opts)?;
            let sp = explore_system_with(&spec, bound, &opts)?;
            Ok((imp, sp))
        };
        let budget = Budget::unlimited().with_max_memory_bytes(900_000);
        let config = GovernedConfig::new(Bound::new(2, 2), budget).no_fallback();
        let report = verify_case_governed_with("ms-queue", &config, &explorer);
        assert!(report.overall().is_inconclusive(), "{}", report.render());
        let failure = report.attempts[0].failure.as_ref().expect("attempt failed");
        assert_eq!(failure.stage, Stage::Explore);
        assert_eq!(failure.reason, ExhaustReason::SpillFault, "{failure}");
        assert!(
            spill.reads.load(Ordering::Relaxed) > 0,
            "the segment was reloaded"
        );
    }
}

// ------------------------------------------------------- property sweep

const CASES: u64 = 48;

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

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

/// A tiny budget derived from the case index. Small enough to trip on most
/// systems, large enough that some runs complete — both paths are checked.
fn arb_budget(case: u64) -> Budget {
    let r = splitmix(case ^ 0xb07);
    Budget::unlimited()
        .with_max_states(1 + (r % 40) as usize)
        .with_max_transitions(1 + (splitmix(r) % 200) as usize)
}

/// Soundness: a governed run either agrees with the unbudgeted verdict or
/// returns `Exhausted` — a budget can never flip an answer.
#[test]
fn budgeted_runs_never_report_a_wrong_verdict() {
    for case in 0..CASES {
        let a = arb_lts(case);
        let b = arb_lts(case + 100_000);
        let wd = Watchdog::new(arb_budget(case));

        if let Ok(p) = partition_with(&a, Equivalence::Branching, &wd, Default::default()) {
            let full = partition(&a, Equivalence::Branching);
            assert_eq!(p.num_blocks(), full.num_blocks(), "case {case}");
        }
        let wd = Watchdog::new(arb_budget(case));
        if let Ok(eq) = bisimilar_opts(&a, &b, Equivalence::Branching, &wd, Default::default()) {
            assert_eq!(eq, bisimilar(&a, &b, Equivalence::Branching), "case {case}");
        }
        let wd = Watchdog::new(arb_budget(case));
        if let Ok(r) = trace_refines_governed(&a, &b, RefineOptions::default(), &wd) {
            assert_eq!(r.holds, trace_refines(&a, &b).holds, "case {case}");
        }
        let wd = Watchdog::new(arb_budget(case));
        if let Ok(r) = check_governed(&a, &lock_freedom(), &wd) {
            assert_eq!(r.holds, check(&a, &lock_freedom()).holds, "case {case}");
        }
        let wd = Watchdog::new(arb_budget(case));
        if let Ok(w) = divergence_witness_governed(&a, &wd) {
            assert_eq!(w.is_some(), divergence_witness(&a).is_some(), "case {case}");
        }
    }
}

/// Monotonicity: a generous budget always completes on these small systems
/// and agrees with the unbudgeted verdict.
#[test]
fn generous_budget_agrees_with_unbudgeted_primitives() {
    for case in 0..CASES {
        let a = arb_lts(case);
        let b = arb_lts(case + 100_000);
        let generous =
            || Watchdog::new(Budget::unlimited().with_max_states(1_000_000).with_max_transitions(10_000_000));

        let p = partition_with(&a, Equivalence::Branching, &generous(), Default::default())
            .expect("generous budget completes");
        assert_eq!(p.num_blocks(), partition(&a, Equivalence::Branching).num_blocks());
        let eq = bisimilar_opts(&a, &b, Equivalence::Branching, &generous(), Default::default())
            .unwrap();
        assert_eq!(eq, bisimilar(&a, &b, Equivalence::Branching));
        let r = trace_refines_governed(&a, &b, RefineOptions::default(), &generous()).unwrap();
        assert_eq!(r.holds, trace_refines(&a, &b).holds);
        let c = check_governed(&a, &lock_freedom(), &generous()).unwrap();
        assert_eq!(c.holds, check(&a, &lock_freedom()).holds);
    }
}
