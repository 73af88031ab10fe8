//! Parallel refinement is an optimization, not a semantics change: at any
//! worker count the refiner must produce the same partition, and a budget
//! trip must report the same partial statistics. These tests pin that down
//! bit-for-bit — partition block structures are compared as values.
//! (Exploration is serial; `--jobs` only sets refinement workers.)

use bbverify::algorithms::{ms_queue::MsQueue, specs::SeqStack, treiber::Treiber};
use bbverify::bisim::{partition, partition_with, Equivalence, PartitionOptions};
use bbverify::lts::{
    random_lts, Budget, ExhaustReason, ExploreLimits, Jobs, RandomLtsConfig, Stage, Watchdog,
};
use bbverify::sim::{explore_system, AtomicSpec, Bound};

/// Sweep sizes: the full sweep takes ~45 s optimized, which debug builds
/// would stretch into many minutes, so debug runs a scaled-down version of
/// the same properties.
#[cfg(debug_assertions)]
const SEEDS: u64 = 6;
#[cfg(not(debug_assertions))]
const SEEDS: u64 = 24;
#[cfg(debug_assertions)]
const SIZE_CAP: u64 = 160;
#[cfg(not(debug_assertions))]
const SIZE_CAP: u64 = 600;

/// SplitMix64 — derives independent generator parameters from a case index.
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// Seeded sweep: every refinement flavour over random LTSs of varying
/// shape must yield byte-identical partition blocks at 1, 2 and 4 workers.
#[test]
fn partition_is_identical_at_any_worker_count_on_random_systems() {
    for seed in 0..SEEDS {
        let bits = splitmix(seed);
        let config = RandomLtsConfig {
            num_states: 40 + (bits % SIZE_CAP) as usize,
            num_transitions: 120 + (splitmix(bits) % (4 * SIZE_CAP)) as usize,
            num_visible_letters: 1 + (bits % 4) as usize,
            tau_percent: (bits % 90) as u8,
        };
        let lts = random_lts(seed, config);
        for eq in [
            Equivalence::Strong,
            Equivalence::Branching,
            Equivalence::BranchingDiv,
            Equivalence::Weak,
        ] {
            let reference = partition(&lts, eq);
            for jobs in [1, 2, 4] {
                let opts = PartitionOptions::default().with_jobs(Jobs::new(jobs));
                let p = partition_with(&lts, eq, &Watchdog::unlimited(), opts).unwrap();
                assert_eq!(
                    reference.assignment(),
                    p.assignment(),
                    "seed {seed}, {eq:?}, {jobs} jobs: block assignment diverged"
                );
                assert_eq!(reference.num_blocks(), p.num_blocks());
            }
        }
    }
}

/// The three real systems of the sweep: their branching and divergence-
/// sensitive partitions must be the same at any worker count.
#[test]
fn real_algorithms_refine_bit_identically_at_any_worker_count() {
    let bound = Bound::new(2, 2);
    let limits = ExploreLimits::default();
    let systems = [
        explore_system(&Treiber::new(&[1, 2]), bound, limits).unwrap(),
        explore_system(&MsQueue::new(&[1]), bound, limits).unwrap(),
        explore_system(&AtomicSpec::new(SeqStack::new(&[1, 2])), bound, limits).unwrap(),
    ];
    let wd = Watchdog::unlimited();
    for lts in &systems {
        for eq in [Equivalence::Branching, Equivalence::BranchingDiv] {
            let reference = partition(lts, eq);
            for jobs in [1, 2, 4] {
                let opts = PartitionOptions::default().with_jobs(Jobs::new(jobs));
                let p = partition_with(lts, eq, &wd, opts).unwrap();
                assert_eq!(reference.assignment(), p.assignment(), "{eq:?}, {jobs} jobs");
            }
        }
    }
}

/// A transition cap tripping mid-refinement must report the exact same
/// partial statistics at any worker count: signatures are computed in
/// parallel, but the meter is charged sequentially in state order.
#[test]
fn cap_trip_reports_identical_partial_stats_at_any_worker_count() {
    let lts = explore_system(&MsQueue::new(&[1]), Bound::new(2, 2), ExploreLimits::default())
        .unwrap();
    let budget = Budget::unlimited().with_max_transitions(2 * lts.num_transitions());
    let refine = |jobs: usize| {
        let opts = PartitionOptions::default().with_jobs(Jobs::new(jobs));
        partition_with(&lts, Equivalence::Branching, &Watchdog::new(budget.clone()), opts)
            .expect_err("a two-scan transition cap must trip mid-refinement")
    };
    let seq = refine(1);
    assert_eq!(seq.reason, ExhaustReason::TransitionCap);
    assert_eq!(seq.stage, Stage::Bisim);
    for jobs in [2, 4] {
        let par = refine(jobs);
        assert_eq!(par.reason, seq.reason, "{jobs} jobs");
        assert_eq!(par.stage, seq.stage, "{jobs} jobs");
        assert_eq!(par.partial.transitions, seq.partial.transitions, "{jobs} jobs");
        assert_eq!(par.partial.states, seq.partial.states, "{jobs} jobs");
        assert_eq!(par.partial.refinement, seq.partial.refinement, "{jobs} jobs");
    }
}
