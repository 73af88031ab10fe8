//! Reference implementations kept as differential oracles. Nothing in the
//! verification pipeline selects them; tests call them to check that the
//! production checks change no verdict.

use bb_bisim::{bisimilar_opts, partition_with, quotient, Equivalence, PartitionOptions};
use bb_lts::budget::{Exhausted, Watchdog};
use bb_lts::Lts;

/// Theorem 5.9 as the paper states it: compute the branching quotient
/// `Δ/≈`, then refine `Δ ⊎ Δ/≈` under `≈div`. Agrees with
/// [`verify_lock_freedom`](crate::verify_lock_freedom), which decides the
/// same question with one τ-cycle search.
///
/// # Errors
///
/// Returns [`Exhausted`] when the budget trips in either refinement.
pub fn lock_free_by_div_union(
    imp: &Lts,
    wd: &Watchdog,
    opts: PartitionOptions,
) -> Result<bool, Exhausted> {
    let p = partition_with(imp, Equivalence::Branching, wd, opts)?;
    let q = quotient(imp, &p);
    bisimilar_opts(imp, &q.lts, Equivalence::BranchingDiv, wd, opts)
}
