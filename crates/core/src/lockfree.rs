//! Lock-freedom checking via divergence-sensitive branching bisimulation
//! (Theorems 5.8 and 5.9).

use bb_bisim::{divergence_witness_governed, Equivalence, Lasso, PartitionOptions};
use bb_lts::budget::{Exhausted, Watchdog};
use bb_lts::Lts;
use std::time::{Duration, Instant};

/// Result of the automatic lock-freedom check (Theorem 5.9).
#[derive(Debug, Clone)]
pub struct LockFreeReport {
    /// Whether the system is lock-free, i.e. whether `Δ ≈div Δ/≈` held.
    pub lock_free: bool,
    /// `|Δ|`.
    pub impl_states: usize,
    /// A τ-cycle witness (Fig. 9 style) when lock-freedom is violated.
    pub divergence: Option<Lasso>,
    /// Wall-clock time.
    pub time: Duration,
}

/// Automatically checks lock-freedom of `imp` (Theorem 5.9): `Δ ≈div Δ/≈`.
///
/// Every τ-cycle lies inside one `≈`-class (its states reach each other by
/// τ-steps alone, so they are branching bisimilar by the stuttering
/// lemma), and `Δ/≈` has no inert τ-step and is divergence-free
/// (Lemma 5.7). So `Δ ≈div Δ/≈` holds exactly when `Δ` has no reachable
/// τ-cycle (Lemma 5.6), and one Tarjan pass decides it without computing
/// the quotient. The cycle found is returned as a lasso witness. The
/// `≈div` refinement of `Δ ⊎ Δ/≈` survives as the differential oracle
/// [`crate::oracle::lock_free_by_div_union`].
///
/// ```
/// use bb_algorithms::hw_queue::HwQueue;
/// use bb_core::verify_lock_freedom;
/// use bb_sim::{explore_system, Bound};
///
/// # fn main() -> Result<(), bb_lts::ExploreError> {
/// let lts = explore_system(
///     &HwQueue::for_bound(&[1], 2, 1),
///     Bound::new(2, 1),
///     Default::default(),
/// )?;
/// let report = verify_lock_freedom(&lts);
/// assert!(!report.lock_free, "the HW dequeue spins on the empty queue");
/// assert!(report.divergence.is_some());
/// # Ok(())
/// # }
/// ```
pub fn verify_lock_freedom(imp: &Lts) -> LockFreeReport {
    verify_lock_freedom_opts(imp, &Watchdog::unlimited(), PartitionOptions)
        .expect("an unlimited watchdog never trips")
}

/// Budget-governed [`verify_lock_freedom`]: the τ-cycle search is metered
/// against `wd` (stage `divergence`).
///
/// `opts` is accepted for source compatibility with callers written when
/// this check refined partitions; Theorem 5.9 needs no partition, so it is
/// unused.
///
/// # Errors
///
/// Returns [`Exhausted`] when the budget trips before a verdict; an aborted
/// check says nothing about lock-freedom.
pub fn verify_lock_freedom_opts(
    imp: &Lts,
    wd: &Watchdog,
    _opts: PartitionOptions,
) -> Result<LockFreeReport, Exhausted> {
    let span = bb_obs::span("lockfree").with("impl_states", imp.num_states());
    let start = Instant::now();
    let divergence = divergence_witness_governed(imp, wd)?;
    let lock_free = divergence.is_none();
    span.record("lock_free", u64::from(lock_free));
    span.record("tau_cycle", u64::from(!lock_free));
    if let Some(lasso) = &divergence {
        span.record("prefix_len", lasso.prefix.len());
        span.record("cycle_len", lasso.cycle.len());
    }
    Ok(LockFreeReport {
        lock_free,
        impl_states: imp.num_states(),
        divergence,
        time: start.elapsed(),
    })
}

/// Result of the abstraction-based lock-freedom check (Theorem 5.8).
#[derive(Debug, Clone)]
pub struct AbstractionReport {
    /// Whether `Δ ≈div ΔAbs` held.
    pub div_bisimilar: bool,
    /// Whether the abstract program is lock-free (checked by Theorem 5.9 on
    /// the abstract system).
    pub abstract_lock_free: bool,
    /// The conclusion for the concrete object: `Some(lock_free)` when the
    /// abstraction applies (`div_bisimilar`), `None` when it does not.
    pub concrete_lock_free: Option<bool>,
    /// `|Δ|`.
    pub impl_states: usize,
    /// `|ΔAbs|`.
    pub abstract_states: usize,
    /// Wall-clock time.
    pub time: Duration,
}

/// Checks lock-freedom of `imp` through a hand-written abstract program
/// `abs` (Theorem 5.8): if `imp ≈div abs`, then `imp` is lock-free iff
/// `abs` is; lock-freedom of the (much smaller) abstract program is decided
/// by Theorem 5.9.
pub fn verify_lock_freedom_via_abstraction(imp: &Lts, abs: &Lts) -> AbstractionReport {
    let start = Instant::now();
    let div_bisimilar = bb_bisim::bisimilar(imp, abs, Equivalence::BranchingDiv);
    let abs_report = verify_lock_freedom(abs);
    AbstractionReport {
        div_bisimilar,
        abstract_lock_free: abs_report.lock_free,
        concrete_lock_free: div_bisimilar.then_some(abs_report.lock_free),
        impl_states: imp.num_states(),
        abstract_states: abs.num_states(),
        time: start.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bb_algorithms::ms_queue::MsQueue;
    use bb_algorithms::treiber::Treiber;
    use bb_lts::ExploreLimits;
    use bb_sim::{explore_system, Bound};

    #[test]
    fn treiber_is_lock_free() {
        let alg = Treiber::new(&[1]);
        let imp = explore_system(&alg, Bound::new(2, 2), ExploreLimits::default()).unwrap();
        let report = verify_lock_freedom(&imp);
        assert!(report.lock_free);
        assert!(report.divergence.is_none());
    }

    #[test]
    fn ms_queue_is_lock_free() {
        let alg = MsQueue::new(&[1]);
        let imp = explore_system(&alg, Bound::new(2, 2), ExploreLimits::default()).unwrap();
        let report = verify_lock_freedom(&imp);
        assert!(report.lock_free);
    }

    #[test]
    fn divergent_system_is_caught() {
        // A hand-built system with a reachable τ-loop.
        use bb_lts::{Action, LtsBuilder, ThreadId};
        let mut b = LtsBuilder::new();
        let s0 = b.add_state();
        let s1 = b.add_state();
        let call = b.intern_action(Action::call(ThreadId(1), "m", None));
        let tau = b.intern_action(Action::tau(ThreadId(1)));
        b.add_transition(s0, call, s1);
        b.add_transition(s1, tau, s1);
        let lts = b.build(s0);
        let report = verify_lock_freedom(&lts);
        assert!(!report.lock_free);
        let lasso = report.divergence.unwrap();
        assert_eq!(lasso.cycle.len(), 1);
    }

    #[test]
    fn treiber_via_its_own_spec_as_abstraction() {
        // For fixed-LP algorithms the abstract program coincides with the
        // specification (Section VI-C); Treiber ≈div stack spec.
        use bb_algorithms::specs::SeqStack;
        use bb_sim::AtomicSpec;
        let bound = Bound::new(2, 1);
        let imp = explore_system(&Treiber::new(&[1]), bound, ExploreLimits::default()).unwrap();
        let abs = explore_system(
            &AtomicSpec::new(SeqStack::new(&[1])),
            bound,
            ExploreLimits::default(),
        )
        .unwrap();
        let report = verify_lock_freedom_via_abstraction(&imp, &abs);
        assert!(report.div_bisimilar, "Treiber ≈div its specification");
        assert_eq!(report.concrete_lock_free, Some(true));
    }
}
