//! Distinguishing diagnostics for inequivalent states.
//!
//! When two systems are not bisimilar, CADP-style tools print an explanation
//! of the difference. We derive one from the refinement history: find the
//! first round in which the two states were separated, replay that round's
//! signatures, and recurse on the move present on one side but absent on the
//! other. The result is a formula-shaped explanation in a Hennessy–Milner
//! style: `⟨a⟩φ` reads "can (after internal steps within the current class)
//! perform `a` and reach a state satisfying `φ`".
//!
//! The explanation is a *diagnostic*, not a certified characteristic formula:
//! for branching-time logics a fully precise distinguishing formula needs an
//! until-style modality. The recursion depth is bounded to keep explanations
//! readable.

use crate::partition::Partition;
use crate::signatures::{Ctx, Equivalence, RefinementHistory, DIV_LETTER, TAU_LETTER};
use bb_lts::{Lts, StateId};
use std::fmt;

/// A distinguishing explanation between two states.
///
/// The convention is that the *left* state satisfies the formula while the
/// right one does not (possibly via [`Formula::Not`] to flip sides).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Formula {
    /// Trivially true; used as a depth-limit leaf.
    True,
    /// The state can diverge (perform an infinite run of internal steps
    /// within its class); only produced for divergence-sensitive checks.
    Diverges,
    /// `⟨letter⟩ then`: the state can perform `letter` (after internal
    /// stuttering) reaching a state satisfying `then`.
    Can {
        /// Display name of the distinguishing move (an observation or `τ`).
        letter: String,
        /// Sub-formula satisfied by the reached state.
        then: Box<Formula>,
    },
    /// Negation: the distinguishing move belongs to the right state.
    Not(Box<Formula>),
}

impl fmt::Display for Formula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Formula::True => write!(f, "tt"),
            Formula::Diverges => write!(f, "Δ(divergence)"),
            Formula::Can { letter, then } => {
                write!(f, "⟨{letter}⟩")?;
                match **then {
                    Formula::True => Ok(()),
                    _ => write!(f, "{then}"),
                }
            }
            Formula::Not(inner) => write!(f, "¬{inner}"),
        }
    }
}

const MAX_DEPTH: usize = 8;

/// Builds a distinguishing explanation for two inequivalent states of `lts`.
///
/// `history` must be the refinement history that separated them (e.g. from
/// [`partition_with_history`](crate::partition_with_history) or a
/// [`BisimCheck`](crate::BisimCheck)).
///
/// # Panics
///
/// Panics if the states are equivalent in the final partition.
pub fn distinguishing_formula(
    lts: &Lts,
    history: &RefinementHistory,
    eq: Equivalence,
    left: StateId,
    right: StateId,
) -> Formula {
    let last = history
        .rounds
        .last()
        .expect("refinement history is never empty");
    assert!(
        last.block_of(left) != last.block_of(right),
        "states are equivalent; nothing distinguishes them"
    );
    // One context for the whole explanation: the letter table — and for
    // weak bisimulation the full forward τ-closure — is built once here
    // instead of once per replayed round, so formula construction is linear
    // in the number of replays rather than quadratic in practice. The
    // letter names come from the same table the signatures use.
    let ctx = Ctx::new(lts, eq);
    dist(lts, &ctx, history, ctx.letter_names(), left, right, MAX_DEPTH)
}

#[allow(clippy::too_many_arguments)]
fn dist(
    lts: &Lts,
    ctx: &Ctx<'_>,
    history: &RefinementHistory,
    names: &[String],
    left: StateId,
    right: StateId,
    depth: usize,
) -> Formula {
    if depth == 0 {
        return Formula::True;
    }
    // First round at which the states were separated.
    let k = history
        .rounds
        .iter()
        .position(|p| p.block_of(left) != p.block_of(right))
        .expect("states must be separated at some round");
    debug_assert!(k >= 1, "round 0 is the universal partition");
    let p = &history.rounds[k - 1];
    let sigs = ctx.signatures_of(p);
    let sl = &sigs[left.index()];
    let sr = &sigs[right.index()];

    if let Some(&(letter, blk)) = sl.iter().find(|e| !sr.contains(e)) {
        if letter == DIV_LETTER {
            return Formula::Diverges;
        }
        Formula::Can {
            letter: letter_name(names, letter),
            then: Box::new(target_subformula(
                lts, ctx, history, names, p, sr, letter, blk, depth,
            )),
        }
    } else if let Some(&(letter, blk)) = sr.iter().find(|e| !sl.contains(e)) {
        if letter == DIV_LETTER {
            return Formula::Not(Box::new(Formula::Diverges));
        }
        Formula::Not(Box::new(Formula::Can {
            letter: letter_name(names, letter),
            then: Box::new(target_subformula(
                lts, ctx, history, names, p, sl, letter, blk, depth,
            )),
        }))
    } else {
        // Same signature but different previous blocks: the difference lies
        // strictly earlier; recurse on the earlier round by reusing the
        // prefix of the history.
        let truncated = RefinementHistory {
            rounds: history.rounds[..k].to_vec(),
        };
        dist(lts, ctx, &truncated, names, left, right, depth - 1)
    }
}

fn letter_name(names: &[String], letter: u32) -> String {
    if letter == DIV_LETTER {
        "divergence".to_string()
    } else if letter == TAU_LETTER {
        "τ".to_string()
    } else {
        names
            .get(letter as usize)
            .cloned()
            .unwrap_or_else(|| format!("letter#{letter}"))
    }
}

/// Builds the sub-formula describing the block reached by the
/// distinguishing move, by contrasting a representative of the reached block
/// against the closest same-letter alternative on the other side.
#[allow(clippy::too_many_arguments)]
fn target_subformula(
    lts: &Lts,
    ctx: &Ctx<'_>,
    history: &RefinementHistory,
    names: &[String],
    p: &Partition,
    other_sig: &[(u32, u32)],
    letter: u32,
    blk: u32,
    depth: usize,
) -> Formula {
    if letter == DIV_LETTER {
        return Formula::Diverges;
    }
    // Representative of the reached block.
    let Some(target) = lts.states().find(|s| p.block_of(*s).0 == blk) else {
        return Formula::True;
    };
    // The other side's best attempt: any same-letter move target.
    let Some(&(_, other_blk)) = other_sig.iter().find(|(l, _)| *l == letter) else {
        // The other side cannot do the letter at all: ⟨letter⟩tt suffices.
        return Formula::True;
    };
    let Some(other) = lts.states().find(|s| p.block_of(*s).0 == other_blk) else {
        return Formula::True;
    };
    dist(lts, ctx, history, names, target, other, depth - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signatures::partition_with_history;
    use bb_lts::{Action, LtsBuilder, ThreadId};

    #[test]
    fn simple_difference() {
        // s0 can do a, s1 can do b.
        let mut b = LtsBuilder::new();
        let s0 = b.add_state();
        let s1 = b.add_state();
        let s2 = b.add_state();
        let a = b.intern_action(Action::call(ThreadId(1), "a", None));
        let bb = b.intern_action(Action::call(ThreadId(1), "b", None));
        b.add_transition(s0, a, s2);
        b.add_transition(s1, bb, s2);
        let lts = b.build(s0);
        let (p, h) = partition_with_history(&lts, Equivalence::Branching, Default::default());
        assert!(!p.same_block(s0, s1));
        let f = distinguishing_formula(&lts, &h, Equivalence::Branching, s0, s1);
        let txt = f.to_string();
        assert!(
            txt.contains("t1.call.a") || txt.contains("t1.call.b"),
            "formula should mention a distinguishing action: {txt}"
        );
    }

    #[test]
    fn nested_difference() {
        // s0 --a--> (can do b); s1 --a--> (can do c).
        let mut b = LtsBuilder::new();
        let s0 = b.add_state();
        let s1 = b.add_state();
        let m0 = b.add_state();
        let m1 = b.add_state();
        let end = b.add_state();
        let a = b.intern_action(Action::call(ThreadId(1), "a", None));
        let bb = b.intern_action(Action::call(ThreadId(1), "b", None));
        let c = b.intern_action(Action::call(ThreadId(1), "c", None));
        b.add_transition(s0, a, m0);
        b.add_transition(s1, a, m1);
        b.add_transition(m0, bb, end);
        b.add_transition(m1, c, end);
        let lts = b.build(s0);
        let (p, h) = partition_with_history(&lts, Equivalence::Branching, Default::default());
        assert!(!p.same_block(s0, s1));
        let f = distinguishing_formula(&lts, &h, Equivalence::Branching, s0, s1);
        let txt = f.to_string();
        assert!(txt.contains("t1.call.a"), "outer move: {txt}");
        assert!(
            txt.contains("t1.call.b") || txt.contains("t1.call.c"),
            "inner move: {txt}"
        );
    }

    #[test]
    fn divergence_difference() {
        let mut b = LtsBuilder::new();
        let s0 = b.add_state(); // diverges
        let s1 = b.add_state(); // does not
        let s2 = b.add_state();
        let tau = b.intern_action(Action::tau(ThreadId(1)));
        let a = b.intern_action(Action::call(ThreadId(1), "a", None));
        b.add_transition(s0, tau, s0);
        b.add_transition(s0, a, s2);
        b.add_transition(s1, a, s2);
        let lts = b.build(s0);
        let (p, h) = partition_with_history(&lts, Equivalence::BranchingDiv, Default::default());
        assert!(!p.same_block(s0, s1));
        let f = distinguishing_formula(&lts, &h, Equivalence::BranchingDiv, s0, s1);
        let txt = f.to_string();
        assert!(txt.contains("divergence"), "{txt}");
    }

    #[test]
    #[should_panic(expected = "states are equivalent")]
    fn equivalent_states_panic() {
        let mut b = LtsBuilder::new();
        let s0 = b.add_state();
        let s1 = b.add_state();
        let s2 = b.add_state();
        let a = b.intern_action(Action::call(ThreadId(1), "a", None));
        b.add_transition(s0, a, s2);
        b.add_transition(s1, a, s2);
        let lts = b.build(s0);
        let (_, h) = partition_with_history(&lts, Equivalence::Branching, Default::default());
        let _ = distinguishing_formula(&lts, &h, Equivalence::Branching, s0, s1);
    }
}
