//! On-the-fly state-space exploration of an operational semantics.

use crate::action::Action;
use crate::budget::{Budget, ExhaustReason, Exhausted, Meter, PartialStats, Stage, Watchdog};
use crate::builder::CsrAppender;
use crate::compact::{
    ArenaStore, CodecSemantics, HashStore, SpillBackend, SpillFault, StateStore, StoreMetrics,
};
use crate::jobs::Jobs;
use crate::lts::{Lts, StateId};
use std::fmt;
use std::hash::Hash;
use std::time::Duration;

/// An operational semantics that can be unfolded into an [`Lts`].
///
/// Implementors enumerate, for every reachable state, its outgoing labeled
/// steps. The exploration in [`explore`] interns states by hash and performs
/// a breadth-first unfolding, so state ids are assigned in BFS order and the
/// resulting LTS is deterministic for a deterministic `successors`
/// enumeration order.
pub trait Semantics {
    /// The (hashable) global state of the system.
    type State: Clone + Eq + Hash;

    /// The initial state.
    fn initial_state(&self) -> Self::State;

    /// Appends all outgoing steps of `state` to `out`.
    ///
    /// Implementations must clear nothing: `out` is cleared by the caller.
    fn successors(&self, state: &Self::State, out: &mut Vec<(Action, Self::State)>);
}

/// Limits guarding an exploration against state-space explosion.
///
/// This is the legacy cap-only interface; [`ExploreOptions::governed`]
/// accepts a full [`Watchdog`] (deadline, memory, cancellation) instead.
#[derive(Debug, Clone, Copy)]
pub struct ExploreLimits {
    /// Maximum number of distinct states to intern before aborting.
    pub max_states: usize,
    /// Maximum number of transitions to record before aborting.
    pub max_transitions: usize,
}

impl Default for ExploreLimits {
    fn default() -> Self {
        ExploreLimits {
            max_states: 50_000_000,
            max_transitions: 200_000_000,
        }
    }
}

impl From<ExploreLimits> for Budget {
    fn from(l: ExploreLimits) -> Budget {
        Budget::unlimited()
            .with_max_states(l.max_states)
            .with_max_transitions(l.max_transitions)
    }
}

/// Error returned when an exploration exceeds its [`ExploreLimits`] (or the
/// [`Watchdog`] budget of [`ExploreOptions::governed`]).
///
/// Carries the partial statistics of the aborted run so callers (e.g. the
/// `tables` sweep) can report how far the exploration got.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExploreError {
    /// States interned before the limit was hit.
    pub states_seen: usize,
    /// Transitions recorded before the limit was hit.
    pub transitions_seen: usize,
    /// Approximate peak memory attributed to the exploration, in bytes.
    pub memory_bytes: usize,
    /// Wall-clock time spent exploring before the abort.
    pub elapsed: Duration,
    /// Which resource ran out.
    pub reason: ExhaustReason,
}

impl ExploreError {
    /// Re-wraps as the structured [`Exhausted`] error of the budget layer.
    pub fn into_exhausted(self) -> Exhausted {
        Exhausted {
            stage: Stage::Explore,
            reason: self.reason,
            partial: crate::budget::PartialStats {
                states: self.states_seen,
                transitions: self.transitions_seen,
                memory_bytes: self.memory_bytes,
                elapsed: self.elapsed,
                refinement: None,
            },
        }
    }
}

impl From<Exhausted> for ExploreError {
    fn from(e: Exhausted) -> ExploreError {
        ExploreError {
            states_seen: e.partial.states,
            transitions_seen: e.partial.transitions,
            memory_bytes: e.partial.memory_bytes,
            elapsed: e.partial.elapsed,
            reason: e.reason,
        }
    }
}

impl fmt::Display for ExploreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "state-space exploration aborted ({}) after {} states and {} transitions, {} peak, in {:.1?}",
            self.reason,
            self.states_seen,
            self.transitions_seen,
            bb_obs::format_bytes(self.memory_bytes as u64),
            self.elapsed
        )
    }
}

impl std::error::Error for ExploreError {}

/// How an exploration is budgeted: legacy caps, or a full watchdog.
#[derive(Debug, Clone, Copy)]
enum BudgetRef<'wd> {
    /// Cap-only budget; a fresh [`Watchdog`] is built per exploration.
    Limits(ExploreLimits),
    /// Shared watchdog (deadline, memory, cancellation) owned by the caller.
    Governed(&'wd Watchdog),
}

/// All the knobs of an exploration, replacing the former four-way
/// `explore` / `_jobs` / `_governed` / `_governed_jobs` entry points.
///
/// Compose with the builder methods and run with [`explore_with`]:
///
/// ```
/// use bb_lts::{explore_with, ExploreLimits, ExploreOptions};
/// # use bb_lts::{Action, Semantics, ThreadId};
/// # struct Two;
/// # impl Semantics for Two {
/// #     type State = bool;
/// #     fn initial_state(&self) -> bool { false }
/// #     fn successors(&self, s: &bool, out: &mut Vec<(Action, bool)>) {
/// #         if !s { out.push((Action::tau(ThreadId(1)), true)); }
/// #     }
/// # }
/// let opts = ExploreOptions::limits(ExploreLimits::default());
/// let lts = explore_with(&Two, &opts)?;
/// assert_eq!(lts.num_states(), 2);
/// # Ok::<(), bb_lts::budget::Exhausted>(())
/// ```
#[derive(Clone, Copy)]
pub struct ExploreOptions<'wd> {
    budget: BudgetRef<'wd>,
    spill: Option<&'wd dyn SpillBackend>,
}

impl fmt::Debug for ExploreOptions<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ExploreOptions")
            .field("budget", &self.budget)
            .field("spill", &self.spill.is_some())
            .finish()
    }
}

impl Default for ExploreOptions<'_> {
    fn default() -> Self {
        ExploreOptions::limits(ExploreLimits::default())
    }
}

impl<'wd> ExploreOptions<'wd> {
    /// Default limits.
    pub fn new() -> Self {
        Self::default()
    }

    /// Cap-only budget: abort past `limits.max_states`/`max_transitions`.
    pub fn limits(limits: ExploreLimits) -> Self {
        ExploreOptions {
            budget: BudgetRef::Limits(limits),
            spill: None,
        }
    }

    /// Full governance: meter against `wd` (deadline, caps, memory,
    /// cancellation). The watchdog is shared, so one budget can span
    /// several explorations.
    pub fn governed(wd: &'wd Watchdog) -> Self {
        ExploreOptions {
            budget: BudgetRef::Governed(wd),
            spill: None,
        }
    }

    /// Does nothing: exploration is serial. Kept so that code written
    /// against the parallel engine still builds.
    #[deprecated(note = "exploration is serial; `Jobs` only sets refinement workers")]
    pub fn with_jobs(self, _jobs: Jobs) -> Self {
        self
    }

    /// Installs a disk-spill tier for cold state-arena segments (see
    /// [`SpillBackend`]); only [`explore_compact`] consults it.
    pub fn with_spill(mut self, spill: &'wd dyn SpillBackend) -> Self {
        self.spill = Some(spill);
        self
    }

    /// The configured spill backend, if any.
    pub fn spill(&self) -> Option<&'wd dyn SpillBackend> {
        self.spill
    }
}

/// Success-path report of an exploration: the final metered statistics
/// (peak memory, states, transitions) plus the state store's own size
/// figures, so callers can compare engines truthfully.
#[derive(Debug, Clone, Copy)]
pub struct ExploreReport {
    /// Metered totals; `memory_bytes` is the stage's peak attribution.
    pub stats: PartialStats,
    /// High-water mark of the state store's in-core bytes (seen set +
    /// frontier + index), excluding transition bookkeeping.
    pub store_bytes_peak: usize,
    /// Allocated bytes of the LTS's transition arrays (CSR offsets and
    /// transitions) at the end of the exploration; the meter charges them
    /// next to the store.
    pub lts_bytes: usize,
    /// Raw/stored/spilled byte figures of the store.
    pub store: StoreMetrics,
}

/// Unfolds `sem` into an explicit [`Lts`] by breadth-first exploration,
/// configured by `opts`, through the rich hash-map seen-set — the engine
/// for semantics without a state codec (see [`explore_compact`] for the
/// bit-packed arena every `bb-sim` system uses).
///
/// The exploration accounts every interned state, every recorded transition
/// and an approximate memory estimate against the budget, and observes the
/// deadline and cancellation token from the BFS loop.
///
/// # Errors
///
/// Returns [`Exhausted`] (stage [`Stage::Explore`]) when any budget axis
/// trips; the partial statistics describe the aborted frontier.
pub fn explore_with<S: Semantics>(
    sem: &S,
    opts: &ExploreOptions<'_>,
) -> Result<Lts, Exhausted> {
    let mut store: HashStore<S> = HashStore::new(None);
    with_watchdog(opts, |wd| explore_impl(sem, &mut store, wd)).map(|(lts, _)| lts)
}

/// The compact engine: states are hashed, stored and compared as their
/// canonical byte encodings, in a prefix-compressed arena that can spill
/// cold segments to `opts.spill()` under memory pressure. The produced
/// [`Lts`] is bit-identical to [`explore_with`], with or without a spill
/// tier; the [`ExploreReport`] carries the store's own
/// size figures.
///
/// # Errors
///
/// Returns [`Exhausted`] (stage [`Stage::Explore`]) when any budget axis
/// trips; the partial statistics describe the aborted frontier.
pub fn explore_compact<S: CodecSemantics>(
    sem: &S,
    opts: &ExploreOptions<'_>,
) -> Result<(Lts, ExploreReport), Exhausted> {
    let mut store = ArenaStore::new(opts.spill);
    with_watchdog(opts, |wd| explore_impl(sem, &mut store, wd))
}

/// Reference implementations kept as differential oracles. Nothing in the
/// verification pipeline selects them; tests and `tables perf` call them
/// to check that the production engines change no output.
pub mod oracle {
    use super::*;

    /// Explores `sem` through the rich-struct hash-map seen-set, with
    /// truthful deep-size metering ([`CodecSemantics::state_heap_bytes`]),
    /// and the same [`ExploreReport`] as [`explore_compact`] — the memory
    /// baseline the compact arena is measured against. The [`Lts`] is
    /// bit-identical to [`explore_compact`].
    ///
    /// # Errors
    ///
    /// Returns [`Exhausted`] (stage [`Stage::Explore`]) when any budget
    /// axis trips; the partial statistics describe the aborted frontier.
    pub fn explore_rich<S: CodecSemantics>(
        sem: &S,
        opts: &ExploreOptions<'_>,
    ) -> Result<(Lts, ExploreReport), Exhausted> {
        let mut store: HashStore<S> = HashStore::new(Some(S::state_heap_bytes));
        with_watchdog(opts, |wd| explore_impl(sem, &mut store, wd))
    }
}

fn with_watchdog<R>(opts: &ExploreOptions<'_>, f: impl FnOnce(&Watchdog) -> R) -> R {
    match opts.budget {
        BudgetRef::Limits(limits) => {
            let wd = Watchdog::new(limits.into());
            f(&wd)
        }
        BudgetRef::Governed(wd) => f(wd),
    }
}

fn explore_impl<S: Semantics, ST: StateStore<S>>(
    sem: &S,
    store: &mut ST,
    wd: &Watchdog,
) -> Result<(Lts, ExploreReport), Exhausted> {
    let span = bb_obs::span("explore");
    let mut meter = wd.meter(Stage::Explore);
    let mut tally = Tally::default();
    let result = explore_serial(sem, store, &mut meter, &mut tally);
    let stats = meter.stats();
    span.record("states", stats.states);
    span.record("transitions", stats.transitions);
    span.record("mem_bytes", stats.memory_bytes);
    span.record("store_bytes", store.bytes_peak());
    span.record("lts_bytes", tally.lts_bytes);
    span.record("frontier_peak", bb_obs::hot::EXPLORE_FRONTIER.peak());
    tally.publish(&span, store.probe_replayed());
    let metrics = store.metrics();
    if let Some(pct) = (metrics.stored_bytes * 100).checked_div(metrics.raw_bytes) {
        bb_obs::hot::COMPACT_COMPRESSION_PCT.set(pct);
    }
    match result {
        Ok(lts) => Ok((
            lts,
            ExploreReport {
                stats,
                store_bytes_peak: store.bytes_peak(),
                lts_bytes: tally.lts_bytes,
                store: metrics,
            },
        )),
        Err(e) => {
            span.record("exhausted", e.reason.to_string());
            Err(e)
        }
    }
}

/// Event counts of one exploration. They are plain locals on the hot path
/// and are published once, when the exploration ends, as fields of the
/// `explore` span and into the bb-obs counters; the loop itself touches no
/// atomic for them.
#[derive(Debug, Default)]
struct Tally {
    /// Successor steps generated (every outgoing step, duplicates included).
    successors: u64,
    /// Successors whose state was already interned.
    hits: u64,
    /// Successors that interned a new state.
    fresh: u64,
    /// Distinct actions interned.
    actions: u64,
    /// Allocated bytes of the LTS transition arrays.
    lts_bytes: usize,
}

impl Tally {
    fn publish(&self, span: &bb_obs::Span, probe_replayed: u64) {
        span.record("successors", self.successors);
        span.record("intern_hits", self.hits);
        span.record("fresh_states", self.fresh);
        span.record("probe_replayed", probe_replayed);
        span.record("actions", self.actions);
        bb_obs::hot::EXPLORE_SUCCESSORS.add(self.successors);
        bb_obs::hot::EXPLORE_INTERN_HITS.add(self.hits);
        bb_obs::hot::EXPLORE_FRESH_STATES.add(self.fresh);
        bb_obs::hot::EXPLORE_PROBE_REPLAYED.add(probe_replayed);
        bb_obs::hot::EXPLORE_ACTIONS.add(self.actions);
    }
}

/// Keeps the meter's memory attribution in lock-step with one structure's
/// actual footprint (the state store, the LTS arrays): charge growth,
/// release shrink (spill).
#[derive(Default)]
struct MemSync {
    charged: usize,
}

impl MemSync {
    fn sync(&mut self, bytes: usize, meter: &mut Meter) -> Result<(), Exhausted> {
        if bytes >= self.charged {
            let delta = bytes - self.charged;
            self.charged = bytes;
            meter.add_memory(delta)
        } else {
            meter.sub_memory(self.charged - bytes);
            self.charged = bytes;
            Ok(())
        }
    }
}

/// Unfolds `sem` into an explicit [`Lts`] by breadth-first exploration.
///
/// Shorthand for [`explore_with`] with cap-only limits (the common case in
/// tests and examples).
///
/// # Errors
///
/// Returns [`ExploreError`] if the reachable state space exceeds `limits`.
pub fn explore<S: Semantics>(sem: &S, limits: ExploreLimits) -> Result<Lts, ExploreError> {
    explore_with(sem, &ExploreOptions::limits(limits)).map_err(ExploreError::from)
}

fn explore_serial<S: Semantics, ST: StateStore<S>>(
    sem: &S,
    store: &mut ST,
    meter: &mut Meter,
    tally: &mut Tally,
) -> Result<Lts, Exhausted> {
    let mut lts = CsrAppender::new();
    let result = expand_bfs(sem, store, meter, tally, &mut lts);
    tally.actions = lts.num_actions() as u64;
    tally.lts_bytes = lts.bytes();
    result.map(|()| lts.build(StateId(0)))
}

/// The BFS loop of [`explore_serial`]: expands every interned state in id
/// order, appending each expansion as the next CSR row of `lts`.
fn expand_bfs<S: Semantics, ST: StateStore<S>>(
    sem: &S,
    store: &mut ST,
    meter: &mut Meter,
    tally: &mut Tally,
    lts: &mut CsrAppender,
) -> Result<(), Exhausted> {
    // States are metered as the store's actual byte growth, transitions as
    // the allocated size of the LTS arrays (see `MemSync`).
    let mut store_mem = MemSync::default();
    let mut lts_mem = MemSync::default();
    let fault = |meter: &Meter, SpillFault| meter.exhausted(ExhaustReason::SpillFault);

    // The frontier state is decoded into this one buffer, state after
    // state, so its allocations are reused.
    let mut state = sem.initial_state();
    let (init_id, _) = store
        .intern(sem, state.clone())
        .map_err(|f| fault(meter, f))?;
    debug_assert_eq!(init_id, StateId(0));
    meter.add_state()?;
    sync_store(&mut store_mem, store.bytes(), meter)?;

    // BFS frontier: states are explored in id order, so the queue is just a
    // cursor over the store's dense id range — no second copy of any state.
    let mut cursor = 0usize;
    let mut steps: Vec<(Action, S::State)> = Vec::new();

    // Cursor position of the next BFS level boundary: when the cursor
    // reaches it, everything discovered so far forms the next level, and
    // the store may spill cold segments (`end_level`).
    let mut next_level_start = 0usize;
    while cursor < store.len() {
        bb_obs::hot::EXPLORE_FRONTIER.set((store.len() - cursor) as u64);
        if cursor == next_level_start {
            next_level_start = store.len();
            store.end_level(cursor as u32, meter);
            sync_store(&mut store_mem, store.bytes(), meter)?;
        }
        store
            .read_into(sem, cursor as u32, &mut state)
            .map_err(|f| fault(meter, f))?;
        steps.clear();
        sem.successors(&state, &mut steps);
        cursor += 1;

        for (action, next) in steps.drain(..) {
            tally.successors += 1;
            let (dst_id, fresh) = store.intern(sem, next).map_err(|f| fault(meter, f))?;
            if fresh {
                tally.fresh += 1;
                meter.add_state()?;
                sync_store(&mut store_mem, store.bytes(), meter)?;
            } else {
                tally.hits += 1;
            }
            let aid = lts.intern_action(action);
            lts.push(aid, dst_id);
            meter.add_transition()?;
            // One memory charge per transition, as the flat per-transition
            // charge had, so `BB_FAULT=alloc-cap:N` counts stay put.
            lts_mem.sync(lts.bytes(), meter)?;
        }
        lts.end_row();
    }
    Ok(())
}

fn sync_store(mem: &mut MemSync, bytes: usize, meter: &mut Meter) -> Result<(), Exhausted> {
    bb_obs::hot::EXPLORE_STORE_BYTES.set(bytes as u64);
    mem.sync(bytes, meter)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ThreadId;

    fn gov<S: Semantics>(sem: &S, wd: &Watchdog) -> Result<Lts, Exhausted> {
        explore_with(sem, &ExploreOptions::governed(wd))
    }

    /// A counter from 0 to `max` with an increment loop.
    struct Counter {
        max: u32,
    }

    impl Semantics for Counter {
        type State = u32;

        fn initial_state(&self) -> u32 {
            0
        }

        fn successors(&self, s: &u32, out: &mut Vec<(Action, u32)>) {
            if *s < self.max {
                out.push((Action::tau(ThreadId(1)), s + 1));
            } else {
                out.push((Action::ret(ThreadId(1), "done", Some(*s as i64)), 0));
            }
        }
    }

    /// A branching tree semantics with wide levels and duplicate
    /// discoveries (the counter has single-state levels).
    struct Tree {
        depth: u32,
        fanout: u32,
    }

    impl Semantics for Tree {
        type State = (u32, u32); // (level, index within level)

        fn initial_state(&self) -> (u32, u32) {
            (0, 0)
        }

        fn successors(&self, s: &(u32, u32), out: &mut Vec<(Action, (u32, u32))>) {
            let (level, idx) = *s;
            if level >= self.depth {
                return;
            }
            for k in 0..self.fanout {
                // Converge siblings so levels stay bounded but wide, and
                // duplicates are discovered from multiple sources.
                let child = (idx * self.fanout + k) % (self.fanout * self.fanout);
                out.push((
                    Action::call(ThreadId(1), "step", Some(k as i64)),
                    (level + 1, child),
                ));
            }
        }
    }

    #[test]
    fn explores_all_reachable_states() {
        let lts = explore(&Counter { max: 10 }, ExploreLimits::default()).unwrap();
        assert_eq!(lts.num_states(), 11);
        assert_eq!(lts.num_transitions(), 11); // 10 taus + 1 ret back to 0
    }

    #[test]
    fn respects_state_limit() {
        let err = explore(
            &Counter { max: 1000 },
            ExploreLimits {
                max_states: 5,
                max_transitions: 1000,
            },
        )
        .unwrap_err();
        assert_eq!(err.states_seen, 6);
        assert_eq!(err.reason, ExhaustReason::StateCap);
    }

    #[test]
    fn respects_transition_limit() {
        let err = explore(
            &Counter { max: 1000 },
            ExploreLimits {
                max_states: 10_000,
                max_transitions: 3,
            },
        )
        .unwrap_err();
        // The abort must have actually *exceeded* the cap of 3 (the meter
        // errors on the first transition past the cap), and the partial
        // stats must be consistent with a transition-cap abort: on the
        // counter chain every recorded transition discovers one state.
        assert_eq!(err.reason, ExhaustReason::TransitionCap);
        assert!(err.transitions_seen > 3, "cap of 3 must be exceeded");
        assert_eq!(err.transitions_seen, 4);
        assert_eq!(err.states_seen, 5);
    }

    #[test]
    fn bfs_assigns_initial_id_zero() {
        let lts = explore(&Counter { max: 3 }, ExploreLimits::default()).unwrap();
        assert_eq!(lts.initial(), StateId(0));
    }

    #[test]
    fn governed_deadline_aborts_with_stage() {
        let wd = Watchdog::new(
            Budget::unlimited().with_deadline(std::time::Duration::ZERO),
        );
        let err = gov(&Counter { max: 100_000 }, &wd).unwrap_err();
        assert_eq!(err.stage, Stage::Explore);
        assert_eq!(err.reason, ExhaustReason::Deadline);
    }

    #[test]
    fn governed_memory_cap_aborts() {
        let wd = Watchdog::new(Budget::unlimited().with_max_memory_bytes(256));
        let err = gov(&Counter { max: 100_000 }, &wd).unwrap_err();
        assert_eq!(err.reason, ExhaustReason::Memory);
        assert!(err.partial.states >= 1);
    }

    #[test]
    fn governed_cancellation_aborts() {
        let wd = Watchdog::unlimited();
        wd.cancel();
        let err = gov(&Counter { max: 2_000_000 }, &wd).unwrap_err();
        assert_eq!(err.reason, ExhaustReason::Cancelled);
    }

    #[test]
    fn error_display_names_reason_and_stats() {
        let err = explore(
            &Counter { max: 1000 },
            ExploreLimits {
                max_states: 5,
                max_transitions: 1000,
            },
        )
        .unwrap_err();
        let text = err.to_string();
        assert!(text.contains("state cap"), "{text}");
        assert!(text.contains("states"), "{text}");
    }

    impl CodecSemantics for Tree {
        fn encode_state(&self, s: &(u32, u32), out: &mut Vec<u8>) {
            out.extend_from_slice(&s.0.to_be_bytes());
            out.extend_from_slice(&s.1.to_be_bytes());
        }
        fn decode_state_into(&self, bytes: &[u8], state: &mut (u32, u32)) {
            *state = (
                u32::from_be_bytes(bytes[0..4].try_into().unwrap()),
                u32::from_be_bytes(bytes[4..8].try_into().unwrap()),
            );
        }
    }

    /// The compact engine must reproduce the rich-struct engine's LTS
    /// byte-for-byte.
    #[test]
    fn compact_explore_is_bit_identical_to_hash_engine() {
        let sem = Tree {
            depth: 12,
            fanout: 9,
        };
        let baseline = explore_with(&sem, &ExploreOptions::default()).unwrap();
        let (compact, report) = explore_compact(&sem, &ExploreOptions::default()).unwrap();
        assert_eq!(compact.num_states(), baseline.num_states());
        assert_eq!(
            crate::aut::to_aut(&compact),
            crate::aut::to_aut(&baseline),
            "compact .aut must be byte-identical"
        );
        assert_eq!(report.stats.states, baseline.num_states());
        assert!(report.store.raw_bytes > 0);
        assert!(report.store.stored_bytes <= report.store.raw_bytes);
    }

    /// An in-memory spill tier for engine-level tests.
    #[derive(Default)]
    struct MemSpill {
        segments: std::sync::Mutex<std::collections::HashMap<u32, Vec<u8>>>,
    }

    impl SpillBackend for MemSpill {
        fn write_segment(&self, index: u32, payload: &[u8]) -> std::io::Result<()> {
            self.segments
                .lock()
                .unwrap()
                .insert(index, payload.to_vec());
            Ok(())
        }
        fn read_segment(&self, index: u32) -> std::io::Result<Vec<u8>> {
            self.segments
                .lock()
                .unwrap()
                .get(&index)
                .cloned()
                .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::NotFound, "missing"))
        }
    }

    /// Spilling cold segments must not change the LTS, and must actually
    /// fire under a tight memory cap.
    ///
    /// The semantics is a chain of fat states with a back-edge to the root:
    /// store bytes dominate the meter, each level boundary is a spill
    /// opportunity, and the back-edge makes every intern probe (and the
    /// store re-read) segments that spilled long ago.
    #[test]
    fn spill_preserves_lts_bit_identically() {
        let sem = Blob { n: 600, back: true };
        let baseline = explore_with(&sem, &ExploreOptions::default()).unwrap();
        let (_, unspilled) =
            explore_compact(&sem, &ExploreOptions::default()).unwrap();
        // Cap at roughly half the in-core peak: only spilling keeps the run
        // under it, and the 5/8 high-water mark is crossed mid-run.
        let cap = unspilled.stats.memory_bytes / 2;
        let spill = MemSpill::default();
        let wd = Watchdog::new(Budget::unlimited().with_max_memory_bytes(cap));
        let mut store = ArenaStore::with_seg_target(Some(&spill), 2048);
        let (lts, report) = explore_impl(&sem, &mut store, &wd).unwrap();
        assert!(
            report.store.spilled_segments > 0,
            "the tight cap must force spilling: {report:?}"
        );
        assert_eq!(
            crate::aut::to_aut(&lts),
            crate::aut::to_aut(&baseline),
            "spilled .aut must be byte-identical"
        );
        assert!(
            report.stats.memory_bytes <= cap,
            "metered peak must respect the cap"
        );
    }

    /// How a [`FaultySpill`] betrays the store once a segment is spilled.
    #[derive(Clone, Copy)]
    enum Betrayal {
        /// Every reload fails with an I/O error.
        ReadError,
        /// Reloads return the segment with one byte flipped.
        FlipByte,
        /// Reloads return the segment one byte short.
        Truncate,
    }

    /// A spill tier that accepts writes and then fails or corrupts reads.
    struct FaultySpill {
        inner: MemSpill,
        betrayal: Betrayal,
    }

    impl SpillBackend for FaultySpill {
        fn write_segment(&self, index: u32, payload: &[u8]) -> std::io::Result<()> {
            self.inner.write_segment(index, payload)
        }
        fn read_segment(&self, index: u32) -> std::io::Result<Vec<u8>> {
            let mut bytes = self.inner.read_segment(index)?;
            match self.betrayal {
                Betrayal::ReadError => return Err(std::io::Error::other("disk gone")),
                Betrayal::FlipByte => {
                    let mid = bytes.len() / 2;
                    bytes[mid] ^= 0x40;
                }
                Betrayal::Truncate => {
                    bytes.pop();
                }
            }
            Ok(bytes)
        }
    }

    /// A failed or altered reload of a spilled segment ends the exploration
    /// with a structured `SpillFault` exhaustion — no panic, and no LTS built
    /// from untrusted bytes.
    #[test]
    fn spill_reload_faults_are_structured_failures() {
        let sem = Blob { n: 600, back: true };
        let (_, unspilled) = explore_compact(&sem, &ExploreOptions::default()).unwrap();
        let cap = unspilled.stats.memory_bytes / 2;
        for betrayal in [Betrayal::ReadError, Betrayal::FlipByte, Betrayal::Truncate] {
            let spill = FaultySpill {
                inner: MemSpill::default(),
                betrayal,
            };
            let wd = Watchdog::new(Budget::unlimited().with_max_memory_bytes(cap));
            let mut store = ArenaStore::with_seg_target(Some(&spill), 2048);
            let err = explore_impl(&sem, &mut store, &wd).unwrap_err();
            assert_eq!(err.stage, Stage::Explore);
            assert_eq!(err.reason, ExhaustReason::SpillFault);
            assert!(err.partial.states > 0 && err.partial.states < 600, "{err}");
            assert!(!spill.inner.segments.lock().unwrap().is_empty());
        }
    }

    /// A chain semantics with large, incompressible states: store bytes
    /// dominate, so the metered peak must track the store's real footprint.
    struct Blob {
        n: u32,
        /// Add a back-edge from every state to the root.
        back: bool,
    }

    fn blob_payload(i: u32) -> [u8; 200] {
        let mut a = [0u8; 200];
        let mut x = u64::from(i + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        for byte in a.iter_mut() {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            *byte = (x >> 56) as u8;
        }
        a
    }

    impl Semantics for Blob {
        type State = (u32, [u8; 200]);
        fn initial_state(&self) -> Self::State {
            (0, blob_payload(0))
        }
        fn successors(&self, s: &Self::State, out: &mut Vec<(Action, Self::State)>) {
            if s.0 + 1 < self.n {
                out.push((Action::tau(ThreadId(1)), (s.0 + 1, blob_payload(s.0 + 1))));
            }
            if self.back && s.0 > 0 {
                out.push((Action::tau(ThreadId(2)), (0, blob_payload(0))));
            }
        }
    }

    impl CodecSemantics for Blob {
        fn encode_state(&self, s: &Self::State, out: &mut Vec<u8>) {
            out.extend_from_slice(&s.0.to_be_bytes());
            out.extend_from_slice(&s.1);
        }
        fn decode_state_into(&self, bytes: &[u8], state: &mut Self::State) {
            *state = (
                u32::from_be_bytes(bytes[0..4].try_into().unwrap()),
                bytes[4..204].try_into().unwrap(),
            );
        }
    }

    /// Meter-accounting audit: the reported peak must be within 10% of the
    /// bytes actually allocated — the store plus the LTS transition arrays,
    /// the only two charges. The chain with back-edges gives the LTS a
    /// real share of the total next to the 200-byte states.
    #[test]
    fn metered_peak_tracks_store_bytes_within_ten_percent() {
        for (compact, back) in [(true, false), (false, false), (true, true), (false, true)] {
            let sem = Blob { n: 2000, back };
            let opts = ExploreOptions::default();
            let (lts, report) = if compact {
                explore_compact(&sem, &opts).unwrap()
            } else {
                oracle::explore_rich(&sem, &opts).unwrap()
            };
            let peak = report.stats.memory_bytes;
            let actual = report.store_bytes_peak + report.lts_bytes;
            let floor = lts.num_transitions() * std::mem::size_of::<crate::Transition>()
                + (lts.num_states() + 1) * std::mem::size_of::<u32>();
            assert!(
                report.lts_bytes >= floor,
                "compact={compact} back={back}: LTS bytes {} below the arrays' length {floor}",
                report.lts_bytes
            );
            assert!(
                peak >= report.store_bytes_peak,
                "compact={compact} back={back}: peak {peak} must cover the store {}",
                report.store_bytes_peak
            );
            assert!(
                peak <= actual + actual / 10 && actual <= peak + peak / 10,
                "compact={compact} back={back}: peak {peak} strays more than 10% from store + LTS {actual}"
            );
        }
    }
}
