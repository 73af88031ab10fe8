//! The retired worker-count setting.
//!
//! Exploration and partition refinement are both serial. [`Jobs`] survives
//! only so that `--jobs N` command lines, `"jobs"` spec members and code
//! written against the parallel engines keep working; no stage reads it.

/// A worker count, as `--jobs N` spells it. Always at least 1, and ignored
/// by every stage.
///
/// ```
/// use bb_lts::Jobs;
///
/// assert_eq!(Jobs::new(4).get(), 4);
/// assert_eq!(Jobs::new(0).get(), 1); // clamped
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Jobs(usize);

impl Jobs {
    /// Exactly `n` workers (clamped to at least 1).
    pub fn new(n: usize) -> Jobs {
        Jobs(n.max(1))
    }

    /// The worker count (always ≥ 1).
    #[inline]
    pub fn get(self) -> usize {
        self.0
    }
}
