//! Disjoint union of two LTSs over a shared interned alphabet.
//!
//! Equivalence checking of two systems (Definition 4.1 lifted to systems,
//! Definition 5.5) is performed on their disjoint union: the systems are
//! bisimilar iff their initial states are related in the union.

use crate::builder::LtsBuilder;
use crate::lts::{Lts, StateId};

/// The disjoint union of two LTSs.
#[derive(Debug, Clone)]
pub struct DisjointUnion {
    /// The union system. Its initial state is `left_initial` (arbitrary:
    /// equivalence checks inspect both injected initial states).
    pub lts: Lts,
    /// Image of the left system's initial state.
    pub left_initial: StateId,
    /// Image of the right system's initial state.
    pub right_initial: StateId,
    /// Number of states contributed by the left system; left states occupy
    /// ids `0..left_states`, right states the rest.
    pub left_states: usize,
}

impl DisjointUnion {
    /// Maps a state of the left operand into the union.
    pub fn left(&self, s: StateId) -> StateId {
        s
    }

    /// Maps a state of the right operand into the union.
    pub fn right(&self, s: StateId) -> StateId {
        StateId(s.0 + self.left_states as u32)
    }
}

/// Builds the disjoint union of `l1` and `l2`, re-interning actions so that
/// syntactically equal labels of the two systems share an action id.
pub fn disjoint_union(l1: &Lts, l2: &Lts) -> DisjointUnion {
    let mut b = LtsBuilder::new();
    b.add_states(l1.num_states() + l2.num_states());
    let offset = l1.num_states() as u32;
    for (src, act, dst) in l1.iter_transitions() {
        let aid = b.intern_action(l1.action(act).clone());
        b.add_transition(src, aid, dst);
    }
    for (src, act, dst) in l2.iter_transitions() {
        let aid = b.intern_action(l2.action(act).clone());
        b.add_transition(
            StateId(src.0 + offset),
            aid,
            StateId(dst.0 + offset),
        );
    }
    let left_initial = l1.initial();
    let right_initial = StateId(l2.initial().0 + offset);
    DisjointUnion {
        lts: b.build(left_initial),
        left_initial,
        right_initial,
        left_states: l1.num_states(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Action, ThreadId};

    fn single(label: &'static str) -> Lts {
        let mut b = LtsBuilder::new();
        let s0 = b.add_state();
        let s1 = b.add_state();
        let a = b.intern_action(Action::call(ThreadId(1), label, None));
        b.add_transition(s0, a, s1);
        b.build(s0)
    }

    #[test]
    fn union_shares_alphabet() {
        let l1 = single("m");
        let l2 = single("m");
        let u = disjoint_union(&l1, &l2);
        assert_eq!(u.lts.num_states(), 4);
        assert_eq!(u.lts.num_transitions(), 2);
        // Both transitions must use the same interned action.
        let actions: Vec<_> = u.lts.iter_transitions().map(|(_, a, _)| a).collect();
        assert_eq!(actions[0], actions[1]);
    }

    #[test]
    fn union_distinguishes_labels() {
        let l1 = single("m");
        let l2 = single("n");
        let u = disjoint_union(&l1, &l2);
        let actions: Vec<_> = u.lts.iter_transitions().map(|(_, a, _)| a).collect();
        assert_ne!(actions[0], actions[1]);
    }

    #[test]
    fn initial_states_are_mapped() {
        let l1 = single("m");
        let l2 = single("n");
        let u = disjoint_union(&l1, &l2);
        assert_eq!(u.left_initial, StateId(0));
        assert_eq!(u.right_initial, StateId(2));
        assert_eq!(u.right(StateId(1)), StateId(3));
    }
}
