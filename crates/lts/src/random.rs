//! Seeded random LTS generation for property-based testing.
//!
//! Uses a small self-contained SplitMix64 generator so that generated systems
//! are reproducible from a seed without external dependencies.

use crate::action::{Action, ThreadId};
use crate::builder::LtsBuilder;
use crate::lts::{Lts, StateId};

/// Configuration of [`random_lts`].
#[derive(Debug, Clone, Copy)]
pub struct RandomLtsConfig {
    /// Number of states to generate (at least 1).
    pub num_states: usize,
    /// Number of transitions to attempt (duplicates are merged).
    pub num_transitions: usize,
    /// Number of distinct visible letters to draw from.
    pub num_visible_letters: usize,
    /// Probability (0..=100, percent) that a transition is a τ-step.
    pub tau_percent: u8,
}

impl Default for RandomLtsConfig {
    fn default() -> Self {
        RandomLtsConfig {
            num_states: 20,
            num_transitions: 40,
            num_visible_letters: 3,
            tau_percent: 50,
        }
    }
}

/// Deterministic SplitMix64 PRNG.
#[derive(Debug, Clone)]
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// Generates a random LTS from `seed`.
///
/// Every state beyond the initial one is first connected by a random incoming
/// transition so the system is fully reachable; the remaining transition
/// budget is spent on uniformly random edges. The same `(seed, config)` pair
/// always yields the same LTS.
pub fn random_lts(seed: u64, config: RandomLtsConfig) -> Lts {
    let n = config.num_states.max(1);
    let mut rng = SplitMix64(seed ^ 0xD6E8_FEB8_6659_FD93);
    let mut b = LtsBuilder::new();
    b.add_states(n);

    let tau = b.intern_action(Action::tau(ThreadId(1)));
    let mut letters = Vec::new();
    for i in 0..config.num_visible_letters.max(1) {
        letters.push(b.intern_action(Action::call(ThreadId(1), format!("a{i}"), None)));
    }

    let pick_action = |rng: &mut SplitMix64| {
        if rng.below(100) < config.tau_percent as usize {
            tau
        } else {
            letters[rng.below(letters.len())]
        }
    };

    // Spanning structure: connect state i from a random earlier state.
    for i in 1..n {
        let src = StateId(rng.below(i) as u32);
        let act = pick_action(&mut rng);
        b.add_transition(src, act, StateId(i as u32));
    }
    let remaining = config.num_transitions.saturating_sub(n - 1);
    for _ in 0..remaining {
        let src = StateId(rng.below(n) as u32);
        let dst = StateId(rng.below(n) as u32);
        let act = pick_action(&mut rng);
        b.add_transition(src, act, dst);
    }
    b.build(StateId(0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::reachable_states;

    #[test]
    fn deterministic_for_seed() {
        let a = random_lts(42, RandomLtsConfig::default());
        let b = random_lts(42, RandomLtsConfig::default());
        assert_eq!(a.num_states(), b.num_states());
        assert_eq!(a.num_transitions(), b.num_transitions());
        let ta: Vec<_> = a.iter_transitions().collect();
        let tb: Vec<_> = b.iter_transitions().collect();
        assert_eq!(ta, tb);
    }

    #[test]
    fn different_seeds_differ() {
        let a = random_lts(1, RandomLtsConfig::default());
        let b = random_lts(2, RandomLtsConfig::default());
        let ta: Vec<_> = a.iter_transitions().collect();
        let tb: Vec<_> = b.iter_transitions().collect();
        assert_ne!(ta, tb);
    }

    #[test]
    fn fully_reachable() {
        for seed in 0..20 {
            let lts = random_lts(seed, RandomLtsConfig::default());
            assert!(reachable_states(&lts).iter().all(|&r| r), "seed {seed}");
        }
    }

    #[test]
    fn respects_sizes() {
        let cfg = RandomLtsConfig {
            num_states: 7,
            num_transitions: 30,
            num_visible_letters: 2,
            tau_percent: 0,
        };
        let lts = random_lts(9, cfg);
        assert_eq!(lts.num_states(), 7);
        assert!(lts.num_transitions() <= 30);
        // No tau at 0 percent.
        assert!(lts
            .iter_transitions()
            .all(|(_, a, _)| lts.is_visible(a)));
    }
}
