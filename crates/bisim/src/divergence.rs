//! Divergence detection and lasso witnesses.
//!
//! In a finite object system, a state is divergent iff it can reach a
//! τ-cycle, and by Lemma 5.6 all states on a τ-cycle are branching bisimilar
//! — so the cycle lies within a single `≈`-class and plain τ-cycle
//! reachability decides the divergence side of Theorem 5.9. The lasso
//! witnesses produced here are the counterexamples the paper shows in
//! Figure 9 ("τ-loop (divergence)").

use crate::partition::Partition;
use bb_lts::budget::{Exhausted, Stage, Watchdog};
use bb_lts::{tarjan_scc, ActionId, Lts, SccId, StateId};

/// A lasso-shaped divergence witness: a finite path from the initial state
/// followed by a τ-cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lasso {
    /// Transitions from the initial state to the entry of the cycle.
    pub prefix: Vec<(StateId, ActionId, StateId)>,
    /// The τ-cycle; the target of the last element equals the source of the
    /// first.
    pub cycle: Vec<(StateId, ActionId, StateId)>,
}

impl Lasso {
    /// The state where the cycle is entered.
    pub fn knot(&self) -> StateId {
        self.cycle
            .first()
            .map(|(s, _, _)| *s)
            .expect("a lasso always has a non-empty cycle")
    }
}

/// Marks the states of `lts` that are divergent *with respect to `p`*: able
/// to follow an infinite τ-path that never leaves their own block
/// (Definition 5.4). A state is marked iff it can reach, via block-internal
/// τ-steps, a τ-cycle lying inside its block.
pub fn divergent_states(lts: &Lts, p: &Partition) -> Vec<bool> {
    let cond = tarjan_scc(lts.num_states(), |s, out| {
        for t in lts.successors(s) {
            if !lts.is_visible(t.action) && p.same_block(s, t.target) {
                out.push(t.target);
            }
        }
    });
    // Inert edges between distinct SCCs, as (from_scc, to_scc) pairs.
    let mut scc_edges: Vec<(u32, u32)> = Vec::new();
    for s in lts.states() {
        let from = cond.scc_of[s.index()];
        for t in lts.successors(s) {
            if !lts.is_visible(t.action) && p.same_block(s, t.target) {
                let to = cond.scc_of[t.target.index()];
                if to != from {
                    scc_edges.push((from.0, to.0));
                }
            }
        }
    }
    // Successor SCCs have smaller Tarjan ids, so one ascending pass over SCC
    // ids propagates "can reach a cyclic inert SCC" exactly.
    scc_edges.sort_unstable();
    scc_edges.dedup();
    let mut scc_div = cond.cyclic.clone();
    for &(from, to) in &scc_edges {
        debug_assert!(to < from, "inert successors have smaller Tarjan ids");
        if scc_div[to as usize] {
            scc_div[from as usize] = true;
        }
    }
    let mut result = vec![false; lts.num_states()];
    for s in lts.states() {
        result[s.index()] = scc_div[cond.scc_of[s.index()].index()];
    }
    result
}

/// Returns `true` iff `lts` contains a τ-cycle reachable from its initial
/// state — equivalently (Lemma 5.6, Theorem 5.9), iff the system has a
/// reachable divergent state, i.e. violates the progress condition that the
/// quotient is divergence-free (Lemma 5.7).
pub fn has_tau_cycle(lts: &Lts) -> bool {
    divergence_witness(lts).is_some()
}

/// Finds a reachable τ-cycle and returns it as a [`Lasso`], or `None` if the
/// system is divergence-free.
///
/// The prefix is a shortest path (over all actions) from the initial state
/// to the τ-SCC containing the cycle.
pub fn divergence_witness(lts: &Lts) -> Option<Lasso> {
    divergence_witness_governed(lts, &Watchdog::unlimited())
        .expect("an unlimited watchdog never trips")
}

/// Budget-governed [`divergence_witness`]: charges the input size, the
/// SCC/BFS work and the per-state arrays of both passes against `wd`
/// (stage [`Stage::Divergence`]). Each array is charged before it is
/// allocated, so a memory cap trips instead of being overrun.
///
/// # Errors
///
/// Returns [`Exhausted`] when the budget trips before the search concludes.
/// An aborted search says nothing about divergence either way.
pub fn divergence_witness_governed(
    lts: &Lts,
    wd: &Watchdog,
) -> Result<Option<Lasso>, Exhausted> {
    let n = lts.num_states();
    let span = bb_obs::span("divergence").with("states", n);
    let mut meter = wd.meter(Stage::Divergence);
    meter.add_states(n)?;
    // Tarjan's index, lowlink, SCC stack slot and SCC id per state, plus
    // its on-stack and cyclic flags.
    let tarjan_bytes = 3 * std::mem::size_of::<u32>() + std::mem::size_of::<SccId>() + 2;
    meter.add_memory(n * tarjan_bytes)?;
    let cond = tarjan_scc(n, |s, out| {
        for t in lts.successors(s) {
            if !lts.is_visible(t.action) {
                out.push(t.target);
            }
        }
    });
    meter.add_transitions(lts.num_transitions())?;

    // BFS from the initial state over all transitions, looking for the first
    // state whose τ-SCC is cyclic.
    meter.add_memory(n * (std::mem::size_of::<Option<(StateId, ActionId)>>() + 1))?;
    span.record("mem_bytes", meter.memory_current());
    let mut parent: Vec<Option<(StateId, ActionId)>> = vec![None; n];
    let mut seen = vec![false; n];
    let mut queue = std::collections::VecDeque::new();
    let init = lts.initial();
    seen[init.index()] = true;
    queue.push_back(init);
    let mut entry: Option<StateId> = None;
    if cond.cyclic[cond.scc_of[init.index()].index()] {
        entry = Some(init);
    }
    while entry.is_none() {
        let Some(s) = queue.pop_front() else {
            break;
        };
        for t in lts.successors(s) {
            meter.tick()?;
            if !seen[t.target.index()] {
                seen[t.target.index()] = true;
                parent[t.target.index()] = Some((s, t.action));
                if cond.cyclic[cond.scc_of[t.target.index()].index()] {
                    entry = Some(t.target);
                    break;
                }
                queue.push_back(t.target);
            }
        }
    }
    let Some(entry) = entry else {
        return Ok(None);
    };

    // Reconstruct the prefix.
    let mut prefix = Vec::new();
    let mut cur = entry;
    while let Some((p, a)) = parent[cur.index()] {
        prefix.push((p, a, cur));
        cur = p;
    }
    prefix.reverse();

    // Find a τ-cycle through `entry` inside its SCC: walk τ-successors that
    // stay in the SCC until a state repeats.
    let scc = cond.scc_of[entry.index()];
    let mut path: Vec<(StateId, ActionId, StateId)> = Vec::new();
    let mut visited_at = std::collections::HashMap::new();
    let mut cur = entry;
    loop {
        meter.tick()?;
        if let Some(&pos) = visited_at.get(&cur) {
            let cycle = path.split_off(pos);
            // Anything before the cycle start extends the prefix.
            prefix.extend(path);
            return Ok(Some(Lasso { prefix, cycle }));
        }
        visited_at.insert(cur, path.len());
        let next = lts
            .successors(cur)
            .iter()
            .find(|t| {
                !lts.is_visible(t.action)
                    && cond.scc_of[t.target.index()] == scc
            })
            .expect("cyclic τ-SCC member has a τ-successor in its SCC");
        path.push((cur, next.action, next.target));
        cur = next.target;
    }
}

/// Finds a reachable τ-cycle *containing a step of thread `t`*, or `None`.
///
/// Under a bounded most-general client every infinite execution is
/// eventually τ-only (calls and returns are bounded), so such a cycle
/// exists exactly when thread `t` can take infinitely many steps without
/// ever completing an operation — a wait-freedom violation for `t`
/// witnessed without any fairness assumption. (The converse caveat: an
/// algorithm that is merely not wait-free because an *unbounded* adversary
/// can starve it — e.g. the Treiber stack — shows no such cycle under a
/// bounded client; see the discussion of fairness in Section V-B of the
/// paper.)
pub fn starvation_witness(lts: &Lts, t: bb_lts::ThreadId) -> Option<Lasso> {
    let n = lts.num_states();
    let cond = tarjan_scc(n, |s, out| {
        for tr in lts.successors(s) {
            if !lts.is_visible(tr.action) {
                out.push(tr.target);
            }
        }
    });

    // Candidate edges: τ-steps of thread t inside a cyclic τ-SCC.
    let mut candidate: Option<(StateId, ActionId, StateId)> = None;
    // BFS from the initial state to know which states are reachable.
    let mut reachable = vec![false; n];
    let mut parent: Vec<Option<(StateId, ActionId)>> = vec![None; n];
    let mut queue = std::collections::VecDeque::new();
    reachable[lts.initial().index()] = true;
    queue.push_back(lts.initial());
    while let Some(s) = queue.pop_front() {
        for tr in lts.successors(s) {
            if !reachable[tr.target.index()] {
                reachable[tr.target.index()] = true;
                parent[tr.target.index()] = Some((s, tr.action));
                queue.push_back(tr.target);
            }
        }
    }
    'search: for s in lts.states() {
        if !reachable[s.index()] {
            continue;
        }
        for tr in lts.successors(s) {
            if lts.is_visible(tr.action) || lts.action(tr.action).thread != t {
                continue;
            }
            let scc = cond.scc_of[s.index()];
            if cond.scc_of[tr.target.index()] == scc && cond.cyclic[scc.index()] {
                candidate = Some((s, tr.action, tr.target));
                break 'search;
            }
        }
    }
    let (src, act, dst) = candidate?;

    // Prefix: initial → src via BFS parents.
    let mut prefix = Vec::new();
    let mut cur = src;
    while let Some((p, a)) = parent[cur.index()] {
        prefix.push((p, a, cur));
        cur = p;
    }
    prefix.reverse();

    // Cycle: the t-edge, then a τ-path inside the SCC from dst back to src.
    let scc = cond.scc_of[src.index()];
    let mut cyc_parent: std::collections::HashMap<StateId, (StateId, ActionId)> =
        std::collections::HashMap::new();
    let mut q2 = std::collections::VecDeque::new();
    q2.push_back(dst);
    while let Some(v) = q2.pop_front() {
        if v == src {
            break;
        }
        for tr in lts.successors(v) {
            if lts.is_visible(tr.action) || cond.scc_of[tr.target.index()] != scc {
                continue;
            }
            if let std::collections::hash_map::Entry::Vacant(e) = cyc_parent.entry(tr.target) {
                e.insert((v, tr.action));
                q2.push_back(tr.target);
            }
        }
    }
    let mut cycle_rev: Vec<(StateId, ActionId, StateId)> = Vec::new();
    let mut cur = src;
    while cur != dst {
        let (p, a) = cyc_parent
            .get(&cur)
            .copied()
            .expect("src and dst are in the same cyclic τ-SCC");
        cycle_rev.push((p, a, cur));
        cur = p;
    }
    cycle_rev.push((src, act, dst));
    cycle_rev.reverse();
    Some(Lasso {
        prefix,
        cycle: cycle_rev,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bb_lts::{Action, LtsBuilder, ThreadId};

    fn tau(b: &mut LtsBuilder) -> ActionId {
        b.intern_action(Action::tau(ThreadId(1)))
    }
    fn vis(b: &mut LtsBuilder, name: &'static str) -> ActionId {
        b.intern_action(Action::call(ThreadId(1), name, None))
    }

    #[test]
    fn no_cycle_no_witness() {
        let mut b = LtsBuilder::new();
        let s0 = b.add_state();
        let s1 = b.add_state();
        let t = tau(&mut b);
        b.add_transition(s0, t, s1);
        let lts = b.build(s0);
        assert!(!has_tau_cycle(&lts));
        assert!(divergence_witness(&lts).is_none());
    }

    #[test]
    fn self_loop_witness() {
        let mut b = LtsBuilder::new();
        let s0 = b.add_state();
        let s1 = b.add_state();
        let a = vis(&mut b, "a");
        let t = tau(&mut b);
        b.add_transition(s0, a, s1);
        b.add_transition(s1, t, s1);
        let lts = b.build(s0);
        let lasso = divergence_witness(&lts).unwrap();
        assert_eq!(lasso.prefix.len(), 1);
        assert_eq!(lasso.cycle.len(), 1);
        assert_eq!(lasso.knot(), s1);
    }

    #[test]
    fn longer_cycle_witness() {
        let mut b = LtsBuilder::new();
        let s0 = b.add_state();
        let s1 = b.add_state();
        let s2 = b.add_state();
        let t = tau(&mut b);
        b.add_transition(s0, t, s1);
        b.add_transition(s1, t, s2);
        b.add_transition(s2, t, s1);
        let lts = b.build(s0);
        let lasso = divergence_witness(&lts).unwrap();
        assert_eq!(lasso.cycle.len(), 2);
        // Cycle is well-formed: consecutive and closing.
        let first = lasso.cycle.first().unwrap().0;
        let last = lasso.cycle.last().unwrap().2;
        assert_eq!(first, last);
    }

    #[test]
    fn visible_cycle_is_not_divergence() {
        let mut b = LtsBuilder::new();
        let s0 = b.add_state();
        let s1 = b.add_state();
        let a = vis(&mut b, "a");
        b.add_transition(s0, a, s1);
        b.add_transition(s1, a, s0);
        let lts = b.build(s0);
        assert!(!has_tau_cycle(&lts));
    }

    #[test]
    fn unreachable_cycle_is_ignored() {
        let mut b = LtsBuilder::new();
        let s0 = b.add_state();
        let s1 = b.add_state(); // unreachable τ-loop
        let t = tau(&mut b);
        b.add_transition(s1, t, s1);
        let lts = b.build(s0);
        assert!(!has_tau_cycle(&lts));
    }

    #[test]
    fn starvation_witness_finds_thread_cycles() {
        // t1 call m; then t1 spins; t2 has a visible loop elsewhere.
        let mut b = LtsBuilder::new();
        let s0 = b.add_state();
        let s1 = b.add_state();
        let call = b.intern_action(Action::call(ThreadId(1), "m", None));
        let t1tau = b.intern_action(Action::tau(ThreadId(1)));
        b.add_transition(s0, call, s1);
        b.add_transition(s1, t1tau, s1);
        let lts = b.build(s0);
        let w = starvation_witness(&lts, ThreadId(1)).expect("t1 starves");
        assert!(w
            .cycle
            .iter()
            .any(|(_, a, _)| lts.action(*a).thread == ThreadId(1)));
        assert!(starvation_witness(&lts, ThreadId(2)).is_none());
    }

    #[test]
    fn starvation_requires_thread_participation() {
        // A τ-cycle by t2 only: t1 never starves while taking steps.
        let mut b = LtsBuilder::new();
        let s0 = b.add_state();
        let t2tau = b.intern_action(Action::tau(ThreadId(2)));
        b.add_transition(s0, t2tau, s0);
        let lts = b.build(s0);
        assert!(starvation_witness(&lts, ThreadId(1)).is_none());
        assert!(starvation_witness(&lts, ThreadId(2)).is_some());
    }

    #[test]
    fn starvation_witness_cycle_is_well_formed() {
        // Mixed cycle: t1 and t2 alternate τ-steps.
        let mut b = LtsBuilder::new();
        let s0 = b.add_state();
        let s1 = b.add_state();
        let t1tau = b.intern_action(Action::tau(ThreadId(1)));
        let t2tau = b.intern_action(Action::tau(ThreadId(2)));
        b.add_transition(s0, t1tau, s1);
        b.add_transition(s1, t2tau, s0);
        let lts = b.build(s0);
        for t in [ThreadId(1), ThreadId(2)] {
            let w = starvation_witness(&lts, t).unwrap();
            assert_eq!(w.cycle.first().unwrap().0, w.cycle.last().unwrap().2);
            for win in w.cycle.windows(2) {
                assert_eq!(win[0].2, win[1].0);
            }
            assert!(w.cycle.iter().any(|(_, a, _)| lts.action(*a).thread == t));
        }
    }

    #[test]
    fn divergent_states_respect_blocks() {
        // s0 --τ--> s1, s1 --τ--> s1 (self loop). W.r.t. the universal
        // partition both are divergent. W.r.t. the discrete partition only s1.
        let mut b = LtsBuilder::new();
        let s0 = b.add_state();
        let s1 = b.add_state();
        let t = tau(&mut b);
        b.add_transition(s0, t, s1);
        b.add_transition(s1, t, s1);
        let lts = b.build(s0);
        let all = divergent_states(&lts, &Partition::universal(2));
        assert_eq!(all, vec![true, true]);
        let disc = divergent_states(&lts, &Partition::discrete(2));
        assert_eq!(disc, vec![false, true]);
    }
}
