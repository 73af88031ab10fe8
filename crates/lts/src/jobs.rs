//! Worker-count configuration for parallel partition refinement.
//!
//! The workspace is std-only by design: all parallelism is built on
//! [`std::thread::scope`], and the one parallel code path — the sharded
//! signature computation in `bb-bisim` — is *deterministic*: computed
//! partitions are bit-identical to the sequential run at any worker count.
//! Exploration is serial. [`Jobs`] only chooses how the same work is
//! divided, never what is computed.

/// Number of worker threads a parallel stage may use.
///
/// `Jobs::serial()` (one worker) takes the exact sequential code path;
/// [`Jobs::available`] sizes the pool to the machine. The count is always at
/// least 1.
///
/// ```
/// use bb_lts::Jobs;
///
/// assert_eq!(Jobs::serial().get(), 1);
/// assert!(Jobs::available().get() >= 1);
/// assert_eq!(Jobs::new(0).get(), 1); // clamped
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Jobs(usize);

impl Jobs {
    /// Exactly `n` workers (clamped to at least 1).
    pub fn new(n: usize) -> Jobs {
        Jobs(n.max(1))
    }

    /// One worker: the sequential code path, unchanged.
    pub fn serial() -> Jobs {
        Jobs(1)
    }

    /// One worker per available hardware thread
    /// ([`std::thread::available_parallelism`]), falling back to 1 when the
    /// parallelism cannot be queried.
    pub fn available() -> Jobs {
        Jobs(
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        )
    }

    /// The worker count (always ≥ 1).
    #[inline]
    pub fn get(self) -> usize {
        self.0
    }

    /// Workers actually worth spawning for `items` units of work, at a
    /// granularity of at least `min_chunk` units per worker. Returns 1 when
    /// the work is too small to amortize thread spawn/join.
    #[inline]
    pub fn for_items(self, items: usize, min_chunk: usize) -> usize {
        self.0.min(items.div_ceil(min_chunk.max(1))).max(1)
    }
}

impl Default for Jobs {
    /// Defaults to [`Jobs::available`].
    fn default() -> Self {
        Jobs::available()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clamps_to_one() {
        assert_eq!(Jobs::new(0).get(), 1);
        assert_eq!(Jobs::new(8).get(), 8);
    }

    #[test]
    fn for_items_caps_by_granularity() {
        let j = Jobs::new(8);
        assert_eq!(j.for_items(10, 64), 1); // too little work
        assert_eq!(j.for_items(128, 64), 2);
        assert_eq!(j.for_items(10_000, 64), 8); // capped by worker count
        assert_eq!(Jobs::serial().for_items(10_000, 64), 1);
        // Zero items still yields one (idle) worker, never zero.
        assert_eq!(j.for_items(0, 64), 1);
    }

    #[test]
    fn default_is_available() {
        assert_eq!(Jobs::default(), Jobs::available());
    }
}
