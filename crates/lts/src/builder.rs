//! Incremental construction of [`Lts`] values.

use crate::action::{Action, ActionId, ActionTable};
use crate::lts::{Lts, StateId, Transition};
use std::collections::hash_map::RandomState;

/// Incremental builder for an [`Lts`].
///
/// Actions are interned on insertion so that identical labels share an
/// [`ActionId`]; duplicate transitions are dropped. Transitions may be added
/// in any source order (`.aut` import, unions, tests); exploration, which
/// emits whole rows in source order, appends to the CSR arrays directly
/// instead (`CsrAppender`).
///
/// # Example
///
/// ```
/// use bb_lts::{Action, LtsBuilder, ThreadId};
///
/// let mut b = LtsBuilder::new();
/// let s0 = b.add_state();
/// let s1 = b.add_state();
/// let a = b.intern_action(Action::tau(ThreadId(1)));
/// b.add_transition(s0, a, s1);
/// b.add_transition(s0, a, s1); // deduplicated
/// let lts = b.build(s0);
/// assert_eq!(lts.num_transitions(), 1);
/// ```
#[derive(Debug, Default)]
pub struct LtsBuilder {
    actions: ActionTable<RandomState>,
    adjacency: Vec<Vec<Transition>>,
}

impl LtsBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a fresh state and returns its id.
    pub fn add_state(&mut self) -> StateId {
        let id = StateId(self.adjacency.len() as u32);
        self.adjacency.push(Vec::new());
        id
    }

    /// Adds `n` fresh states, returning the id of the first.
    pub fn add_states(&mut self, n: usize) -> StateId {
        let first = StateId(self.adjacency.len() as u32);
        self.adjacency.extend((0..n).map(|_| Vec::new()));
        first
    }

    /// Number of states added so far.
    pub fn num_states(&self) -> usize {
        self.adjacency.len()
    }

    /// Interns `action`, returning its id (stable across repeated calls).
    pub fn intern_action(&mut self, action: Action) -> ActionId {
        self.actions.intern(action)
    }

    /// Adds the transition `src --action--> target` (idempotent).
    ///
    /// # Panics
    ///
    /// Panics if `src` or `target` were not created by this builder.
    pub fn add_transition(&mut self, src: StateId, action: ActionId, target: StateId) {
        assert!(target.index() < self.adjacency.len(), "target out of range");
        let row = &mut self.adjacency[src.index()];
        let t = Transition { action, target };
        if !row.contains(&t) {
            row.push(t);
        }
    }

    /// Finishes construction with `initial` as the initial state.
    ///
    /// # Panics
    ///
    /// Panics if `initial` is out of range.
    pub fn build(self, initial: StateId) -> Lts {
        Lts::from_parts(self.actions.into_actions(), self.adjacency, initial)
    }
}

/// Row-ordered LTS construction straight into the compressed-sparse-row
/// arrays of [`Lts`]: the rows of states `0, 1, 2, …` are appended in that
/// order, each closed by [`CsrAppender::end_row`]. This is the shape of a
/// BFS exploration, so no per-state row vector and no final copy exist.
/// Duplicate transitions are dropped within the open row, exactly as
/// [`LtsBuilder::add_transition`] drops them.
#[derive(Debug)]
pub(crate) struct CsrAppender {
    actions: ActionTable,
    offsets: Vec<u32>,
    transitions: Vec<Transition>,
}

impl CsrAppender {
    pub(crate) fn new() -> Self {
        CsrAppender {
            actions: ActionTable::default(),
            offsets: vec![0],
            transitions: Vec::new(),
        }
    }

    /// Interns `action`, returning its id (stable across repeated calls).
    #[inline]
    pub(crate) fn intern_action(&mut self, action: Action) -> ActionId {
        self.actions.intern(action)
    }

    /// Number of distinct actions interned so far.
    pub(crate) fn num_actions(&self) -> usize {
        self.actions.len()
    }

    /// Appends `action → target` to the open row unless the row already
    /// holds it.
    #[inline]
    pub(crate) fn push(&mut self, action: ActionId, target: StateId) {
        let row_start = *self.offsets.last().expect("offsets start at [0]") as usize;
        let t = Transition { action, target };
        if self.transitions[row_start..].contains(&t) {
            return;
        }
        grow_by_quarter(&mut self.transitions);
        self.transitions.push(t);
    }

    /// Closes the open row: its state's outgoing transitions are final.
    #[inline]
    pub(crate) fn end_row(&mut self) {
        grow_by_quarter(&mut self.offsets);
        self.offsets.push(self.transitions.len() as u32);
    }

    /// Allocated bytes of the two CSR arrays (capacity, not length): what
    /// the exploration meter charges for the LTS under construction.
    pub(crate) fn bytes(&self) -> usize {
        self.offsets.capacity() * std::mem::size_of::<u32>()
            + self.transitions.capacity() * std::mem::size_of::<Transition>()
    }

    /// Finishes construction; every state must have had its row closed.
    ///
    /// # Panics
    ///
    /// Panics if `initial` is out of range.
    pub(crate) fn build(self, initial: StateId) -> Lts {
        Lts::from_csr(
            self.actions.into_actions(),
            self.offsets,
            self.transitions,
            initial,
        )
    }
}

/// Reserves room for one more element in ~25% steps (at least 1024
/// elements) instead of `Vec`'s doubling, so the idle capacity the meter
/// charges stays within a quarter of the length.
#[inline]
fn grow_by_quarter<T>(v: &mut Vec<T>) {
    if v.len() == v.capacity() {
        v.reserve_exact((v.capacity() / 4).max(1024));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ThreadId;

    #[test]
    fn interning_is_stable() {
        let mut b = LtsBuilder::new();
        let a1 = b.intern_action(Action::tau(ThreadId(1)));
        let a2 = b.intern_action(Action::tau(ThreadId(1)));
        let a3 = b.intern_action(Action::tau(ThreadId(2)));
        assert_eq!(a1, a2);
        assert_ne!(a1, a3);
    }

    #[test]
    fn add_states_bulk() {
        let mut b = LtsBuilder::new();
        let first = b.add_states(5);
        assert_eq!(first, StateId(0));
        assert_eq!(b.num_states(), 5);
    }

    #[test]
    fn csr_appender_matches_builder() {
        // Same rows, same dedup, same action numbering as the row-agnostic
        // builder.
        let mut b = LtsBuilder::new();
        let mut c = CsrAppender::new();
        b.add_states(3);
        let rows: [&[(u8, u32)]; 3] = [&[(1, 1), (2, 2), (1, 1)], &[(2, 0)], &[]];
        for (src, row) in rows.iter().enumerate() {
            for &(t, dst) in *row {
                let a = Action::tau(ThreadId(t));
                let bid = b.intern_action(a.clone());
                b.add_transition(StateId(src as u32), bid, StateId(dst));
                let aid = c.intern_action(a);
                c.push(aid, StateId(dst));
            }
            c.end_row();
        }
        assert_eq!(c.num_actions(), 2);
        assert!(c.bytes() >= 4 * 4 + 3 * 8);
        let (x, y) = (b.build(StateId(0)), c.build(StateId(0)));
        assert_eq!(crate::aut::to_aut(&x), crate::aut::to_aut(&y));
        assert_eq!(y.num_transitions(), 3);
    }

    #[test]
    #[should_panic(expected = "target out of range")]
    fn transition_to_unknown_state_panics() {
        let mut b = LtsBuilder::new();
        let s = b.add_state();
        let a = b.intern_action(Action::tau(ThreadId(1)));
        b.add_transition(s, a, StateId(7));
    }
}
