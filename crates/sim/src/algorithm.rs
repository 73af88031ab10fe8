//! The object-algorithm trait: one small-step state machine per method body.

use crate::client::Frames;
use crate::heap::CanonScratch;
use crate::Value;
use bb_lts::ThreadId;
use std::fmt::Debug;
use std::hash::Hash;

/// Index of a method within an algorithm's [`MethodSpec`] list.
pub type MethodId = usize;

/// Description of one object method for the most general client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MethodSpec {
    /// Method name as it appears in call/return actions.
    pub name: &'static str,
    /// The (finite) argument domain: one entry per possible invocation.
    /// `None` models a method without parameters.
    pub args: Vec<Option<Value>>,
}

impl MethodSpec {
    /// A method without parameters.
    pub fn no_arg(name: &'static str) -> Self {
        MethodSpec {
            name,
            args: vec![None],
        }
    }

    /// A method invoked with every value of `domain`.
    pub fn with_args(name: &'static str, domain: &[Value]) -> Self {
        MethodSpec {
            name,
            args: domain.iter().map(|&v| Some(v)).collect(),
        }
    }
}

/// One possible outcome of a single internal step of a method body.
#[derive(Debug, Clone)]
pub enum Outcome<Shared, Frame> {
    /// The method performs an internal step (one shared-memory access),
    /// staying inside its body. `tag` names the source line (e.g. `"L28"`)
    /// for the τ-labels of Figures 6/7.
    Tau {
        /// Updated shared state.
        shared: Shared,
        /// Updated local continuation.
        frame: Frame,
        /// Source-line tag carried on the τ action.
        tag: &'static str,
    },
    /// The method completes, returning `val`.
    Ret {
        /// Updated shared state.
        shared: Shared,
        /// Return value (`None` for `void` methods).
        val: Option<Value>,
        /// Source-line tag (recorded for diagnostics only — the visible
        /// return action itself is labeled by method and value).
        tag: &'static str,
    },
}

/// Independence class of one thread's *next* internal step, as exposed to
/// the ample-set partial-order reduction in `bb-reduce`.
///
/// The classification must be **hereditary**: it describes not just the
/// immediate memory accesses of the step but a promise about every way the
/// touched locations can be accessed for as long as the step stays enabled.
/// That is what makes prioritizing the step sound for divergence-sensitive
/// branching bisimilarity (condition C1 of the ample conditions — no action
/// of another thread that *conflicts* with the step can occur before it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Footprint {
    /// The step touches only data no other thread can ever access while the
    /// step is pending: thread-private registers, a freshly allocated heap
    /// node that has not been published, or reads of locations that are
    /// immutable once reachable (e.g. a published list node's `next` field
    /// in a stack whose nodes are written only before publication).
    Private,
    /// The step touches only data protected by an exclusive lock the thread
    /// currently holds, **including the release step itself**. Sound
    /// because no co-enabled step of another thread can read or write the
    /// protected data (contenders are blocked), and every future accessor
    /// is ordered after the release in every interleaving anyway.
    Owned,
    /// Anything else — reads or writes of shared locations that another
    /// thread's step may conflict with. Never prioritized. This is the
    /// (always sound) default.
    Global,
}

/// A permutation of client thread ids, passed to
/// [`ObjectAlgorithm::rename_threads`] by the thread-symmetry
/// canonicalization in `bb-reduce`.
///
/// Maps the 1-based [`ThreadId`]s `1..=n` onto themselves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadPerm {
    /// `map[i]` is the new 1-based id of thread `i + 1`.
    map: Vec<u8>,
}

impl ThreadPerm {
    /// Builds a permutation from `map`, where `map[i]` is the new 1-based
    /// id of thread `i + 1`. Panics if `map` is not a permutation of
    /// `1..=map.len()`.
    pub fn new(map: Vec<u8>) -> Self {
        let n = map.len();
        let mut seen = vec![false; n];
        for &m in &map {
            assert!(
                (1..=n as u8).contains(&m) && !std::mem::replace(&mut seen[m as usize - 1], true),
                "not a permutation of 1..={n}: {map:?}"
            );
        }
        ThreadPerm { map }
    }

    /// The identity permutation on `n` threads.
    pub fn identity(n: u8) -> Self {
        ThreadPerm {
            map: (1..=n).collect(),
        }
    }

    /// Number of threads the permutation acts on.
    pub fn arity(&self) -> usize {
        self.map.len()
    }

    /// Whether this is the identity permutation.
    pub fn is_identity(&self) -> bool {
        self.map.iter().enumerate().all(|(i, &m)| m == i as u8 + 1)
    }

    /// The image of thread `t` (ids outside `1..=n` are fixed).
    pub fn apply(&self, t: ThreadId) -> ThreadId {
        match self.map.get(t.0.wrapping_sub(1) as usize) {
            Some(&m) => ThreadId(m),
            None => t,
        }
    }

    /// Permutes a per-thread vector `v` (indexed by thread number − 1) so
    /// that the entry of old thread `t` moves to index `apply(t) − 1`.
    /// A no-op when `v` is shorter than the permutation.
    pub fn apply_vec<T: Clone>(&self, v: &mut [T]) {
        if v.len() < self.map.len() {
            return;
        }
        let old: Vec<T> = v[..self.map.len()].to_vec();
        for (i, entry) in old.into_iter().enumerate() {
            v[self.map[i] as usize - 1] = entry;
        }
    }
}

/// A concurrent object algorithm in small-step operational style.
///
/// Implementations model each shared-memory access (read, write, CAS, lock
/// acquisition…) as one internal step, mirroring the interleaving
/// granularity of the paper's LNT models. Blocking primitives (a lock held
/// by another thread) are modeled by producing *no* outcome: the thread
/// simply has no transition until the lock is released.
pub trait ObjectAlgorithm {
    /// The shared portion of the object state (heap, top/head pointers,
    /// hazard-pointer slots, locks…). The [`Pack`](crate::Pack) bound gives
    /// every state a canonical byte encoding, which is what the compact
    /// exploration engine hashes and stores (see `crate::pack`).
    type Shared: Clone + Eq + Hash + Debug + crate::Pack;
    /// The per-invocation local state: program counter plus registers.
    type Frame: Clone + Eq + Hash + Debug + crate::Pack;

    /// Human-readable algorithm name (used in reports and benches).
    fn name(&self) -> &'static str;

    /// The object's methods, in [`MethodId`] order.
    fn methods(&self) -> Vec<MethodSpec>;

    /// The initial shared state.
    fn initial_shared(&self) -> Self::Shared;

    /// Builds the frame for a fresh invocation of `method` with `arg` by
    /// thread `t` (the visible call action itself is produced by the most
    /// general client).
    fn begin(&self, method: MethodId, arg: Option<Value>, t: ThreadId) -> Self::Frame;

    /// Enumerates every possible next step of thread `t` executing `frame`.
    ///
    /// An empty `out` means the thread is blocked in this state.
    fn step(
        &self,
        shared: &Self::Shared,
        frame: &Self::Frame,
        t: ThreadId,
        out: &mut Vec<Outcome<Self::Shared, Self::Frame>>,
    );

    /// Canonicalizes the shared state together with all live frames
    /// (garbage collection + renaming of heap pointers). The default is a
    /// no-op for algorithms without a heap.
    ///
    /// Runs once per explored transition, so implementations visit their
    /// roots straight into [`Heap::canonicalizer`](crate::Heap::canonicalizer)
    /// over the caller's `scratch` rather than collecting them in a vector.
    fn canonicalize(
        &self,
        _shared: &mut Self::Shared,
        _frames: &mut Frames<'_, Self::Frame>,
        _scratch: &mut CanonScratch,
    ) {
    }

    /// Independence class of thread `t`'s next step when executing `frame`
    /// in `shared` — metadata for the ample-set partial-order reduction.
    ///
    /// The default, [`Footprint::Global`], is always sound and disables
    /// reduction for the step. Override only where the hereditary promise
    /// documented on [`Footprint`] genuinely holds; the differential
    /// harness in `bb-reduce` cross-checks every annotation by comparing
    /// reduced and full state spaces up to divergence-sensitive branching
    /// bisimilarity.
    fn footprint(&self, _shared: &Self::Shared, _frame: &Self::Frame, _t: ThreadId) -> Footprint {
        Footprint::Global
    }

    /// Applies a thread-id permutation to every [`ThreadId`]-dependent part
    /// of the shared state and the live frames (per-thread slot arrays,
    /// lock-owner fields…), for the thread-symmetry canonicalization in
    /// `bb-reduce`.
    ///
    /// The default no-op is sound for algorithms whose shared state never
    /// mentions thread ids (symmetry then reduces to the already-canonical
    /// status vector). Implementations must only relocate per-thread data —
    /// an entry owned by thread `t` moves to `perm.apply(t)` — and must be
    /// observably symmetric: permuting the slots of threads with identical
    /// local frames must not change any future visible behavior.
    fn rename_threads(
        &self,
        _shared: &mut Self::Shared,
        _frames: &mut Frames<'_, Self::Frame>,
        _perm: &ThreadPerm,
    ) {
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn method_spec_constructors() {
        let m = MethodSpec::no_arg("pop");
        assert_eq!(m.args, vec![None]);
        let m = MethodSpec::with_args("push", &[1, 2]);
        assert_eq!(m.args, vec![Some(1), Some(2)]);
    }
}
