//! Compact state storage for the exploration engine (bb-compact).
//!
//! The exploration engine historically kept every discovered state
//! **twice**: once as the key of the `HashMap<State, StateId>` seen-set and
//! once on the id-indexed frontier list. This module replaces that
//! bookkeeping with a single [`StateStore`] abstraction and two
//! implementations:
//!
//! * [`HashStore`] — the rich-struct baseline, used only by the oracle
//!   [`crate::oracle::explore_rich`]: one `Vec<State>` (doubling as
//!   the BFS frontier, which is just an id range) plus a bare
//!   open-addressing index of `(tag, id)` entries. States are stored once.
//! * [`ArenaStore`] — the compact engine for semantics with a canonical
//!   byte encoding ([`CodecSemantics`]): states live as prefix-compressed
//!   entries in append-only byte segments, the index maps a 64-bit content
//!   hash to an entry id, and equality is always decided on the full
//!   reconstructed encoding (hashes only route probes). Cold segments —
//!   wholly below the current BFS frontier — can be spilled to a
//!   [`SpillBackend`] when the stage's memory meter crosses a high-water
//!   mark, and are reloaded transparently (and counted) when a later probe
//!   needs them.
//!
//! Determinism: both stores assign ids in intern order, which the engine
//! drives in BFS order; the spill decision is taken only at BFS level
//! boundaries from the deterministic meter value, so state ids, transition
//! order and the `.aut` export are bit-identical with and without
//! `--spill`.

use crate::budget::Meter;
use crate::explore::Semantics;
use crate::hash::word_hash;
use crate::lts::StateId;
use std::hash::{Hash, Hasher};
use std::io;

/// A [`Semantics`] whose states have a canonical byte encoding — the
/// contract of the compact exploration engine
/// ([`crate::explore_compact`]).
///
/// `decode_state_into` must be a left inverse of `encode_state` (decoding
/// `encode(s)` into any state yields `s`), and `encode_state` must be
/// deterministic and injective on reachable states: the engine hashes,
/// stores and compares the encoding *instead of* the rich state, so two
/// states are identified exactly when their encodings are byte-equal.
pub trait CodecSemantics: Semantics {
    /// Appends the canonical encoding of `state` to `out` (which is cleared
    /// by the caller).
    fn encode_state(&self, state: &Self::State, out: &mut Vec<u8>);

    /// Reconstructs a state from its canonical encoding into `state`,
    /// overwriting it; implementations may keep its allocations (the engine
    /// decodes every frontier state into one buffer).
    ///
    /// # Panics
    ///
    /// May panic on bytes not produced by `encode_state` — the store only
    /// ever feeds back its own entries.
    fn decode_state_into(&self, bytes: &[u8], state: &mut Self::State);

    /// [`decode_state_into`](CodecSemantics::decode_state_into) a fresh
    /// state.
    ///
    /// # Panics
    ///
    /// As [`decode_state_into`](CodecSemantics::decode_state_into).
    fn decode_state(&self, bytes: &[u8]) -> Self::State {
        let mut state = self.initial_state();
        self.decode_state_into(bytes, &mut state);
        state
    }

    /// Owned heap bytes of the rich state *beyond* the struct itself
    /// (vectors, boxed nodes…), used by the metered baseline so memory
    /// comparisons against the compact engine are truthful — the struct
    /// bytes are already accounted through the store's own capacity. The
    /// default is 0 (plain-data states).
    fn state_heap_bytes(&self, state: &Self::State) -> usize {
        let _ = state;
        0
    }
}

/// Out-of-core tier for cold state-arena segments (`--spill`).
///
/// Implementations are stateless from the store's point of view (`&self`
/// methods) and shareable across threads. `read_segment`
/// must return exactly the bytes passed to the matching `write_segment`;
/// the store checks the length and a checksum of every reload, and a
/// failed or altered reload ends the exploration with
/// [`ExhaustReason::SpillFault`](crate::budget::ExhaustReason::SpillFault)
/// instead of trusting the bytes.
pub trait SpillBackend: Send + Sync {
    /// Persists segment `index`. An error disables spilling for the rest of
    /// the exploration (the store keeps the segment in core).
    fn write_segment(&self, index: u32, payload: &[u8]) -> io::Result<()>;

    /// Reloads a previously written segment.
    fn read_segment(&self, index: u32) -> io::Result<Vec<u8>>;
}

/// Size figures of a state store after (or during) an exploration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreMetrics {
    /// Total canonical-encoding bytes (before prefix compression), or the
    /// deep struct bytes for the rich baseline.
    pub raw_bytes: u64,
    /// Bytes actually stored (after prefix compression and framing).
    pub stored_bytes: u64,
    /// Cold segments currently resident on the spill tier.
    pub spilled_segments: u32,
    /// Payload bytes resident on the spill tier.
    pub spilled_bytes: u64,
}

/// A spilled segment that could not be reloaded intact: the spill tier
/// returned an error, or bytes whose length or checksum differ from what
/// was written. The store refuses every later call once this happens.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SpillFault;

/// The engine-facing seen-set + frontier abstraction: states are stored
/// exactly once, ids are dense and assigned in intern order, and the BFS
/// frontier is just an id range read back through [`StateStore::read_into`].
pub(crate) trait StateStore<S: Semantics> {
    /// Interns `state`, returning its id and whether it was new.
    fn intern(&mut self, sem: &S, state: S::State) -> Result<(StateId, bool), SpillFault>;

    /// Reconstructs the state with id `idx` (must be interned) into
    /// `state`.
    fn read_into(&mut self, sem: &S, idx: u32, state: &mut S::State) -> Result<(), SpillFault>;

    /// Number of interned states.
    fn len(&self) -> usize;

    /// Current in-core footprint in bytes (store + index), O(1).
    fn bytes(&self) -> usize;

    /// High-water mark of [`StateStore::bytes`] over the store's lifetime.
    fn bytes_peak(&self) -> usize;

    /// BFS level boundary: ids `>= frontier_start` form the frontier about
    /// to be expanded. The compact store uses this (and only this) point to
    /// spill cold segments.
    fn end_level(&mut self, frontier_start: u32, meter: &Meter);

    /// Compression/spill figures for reports.
    fn metrics(&self) -> StoreMetrics;

    /// Stored entries decoded by intern probes that found their state
    /// already present (the restart-group replay cost of a hit).
    fn probe_replayed(&self) -> u64 {
        0
    }
}

// ---------------------------------------------------------------------------
// Open-addressing index
// ---------------------------------------------------------------------------

/// A bare open-addressing seen-set index: power-of-two slot array of
/// `(tag << 32) | (id + 1)` entries (0 = empty), linear probing from
/// `tag & mask`, insert-only. The caller resolves tag collisions with a
/// full equality check, so the index never stores keys — 8 bytes per state.
struct RawIndex {
    slots: Vec<u64>,
    len: usize,
}

impl RawIndex {
    fn new() -> Self {
        RawIndex {
            slots: vec![0; 16],
            len: 0,
        }
    }

    fn bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<u64>()
    }

    /// Doubles the table at 7/8 load, rehashing by tag (probe positions are
    /// derived from the stored tag alone, so no key access is needed).
    fn maybe_grow(&mut self) {
        if (self.len + 1) * 8 < self.slots.len() * 7 {
            return;
        }
        let new_cap = self.slots.len() * 2;
        let mask = new_cap - 1;
        let mut slots = vec![0u64; new_cap];
        for &slot in &self.slots {
            if slot == 0 {
                continue;
            }
            let mut pos = (slot >> 32) as usize & mask;
            while slots[pos] != 0 {
                pos = (pos + 1) & mask;
            }
            slots[pos] = slot;
        }
        self.slots = slots;
    }

    /// Probes for an entry with `tag` satisfying `eq`; on a miss, inserts
    /// `new_id` in the first empty slot of the probe chain. Returns the
    /// resolved id, whether it was inserted, and the probe length.
    fn probe_insert(
        &mut self,
        tag: u32,
        new_id: u32,
        mut eq: impl FnMut(u32) -> bool,
    ) -> (u32, bool, u32) {
        self.maybe_grow();
        let mask = self.slots.len() - 1;
        let mut pos = tag as usize & mask;
        let mut probes = 0u32;
        loop {
            let slot = self.slots[pos];
            if slot == 0 {
                self.slots[pos] = ((tag as u64) << 32) | (u64::from(new_id) + 1);
                self.len += 1;
                return (new_id, true, probes);
            }
            if (slot >> 32) as u32 == tag {
                let id = (slot as u32) - 1;
                if eq(id) {
                    return (id, false, probes);
                }
            }
            pos = (pos + 1) & mask;
            probes += 1;
        }
    }
}

// ---------------------------------------------------------------------------
// HashStore — the rich-struct baseline, states stored once
// ---------------------------------------------------------------------------

/// Seen-set + frontier over rich state structs: one `Vec<State>` plus a
/// [`RawIndex`]. Replaces the former `HashMap<State, StateId>` *and* the
/// separate frontier list — states are stored exactly once. Every stored
/// state's deep size ([`CodecSemantics::state_heap_bytes`]) is metered, so
/// its memory figures compare truthfully against [`ArenaStore`].
pub(crate) struct HashStore<S: Semantics> {
    states: Vec<S::State>,
    index: RawIndex,
    /// Accumulated deep bytes of stored states.
    deep_bytes: usize,
    peak: usize,
}

impl<S: CodecSemantics> HashStore<S> {
    pub(crate) fn new() -> Self {
        HashStore {
            states: Vec::new(),
            index: RawIndex::new(),
            deep_bytes: 0,
            peak: 0,
        }
    }
}

impl<S: CodecSemantics> StateStore<S> for HashStore<S> {
    fn intern(&mut self, sem: &S, state: S::State) -> Result<(StateId, bool), SpillFault> {
        // DefaultHasher::new() uses fixed keys, so tags — and therefore
        // index layouts and probe statistics — are stable across runs.
        let mut h = std::collections::hash_map::DefaultHasher::new();
        state.hash(&mut h);
        let tag = (h.finish() >> 32) as u32;
        let new_id = self.states.len() as u32;
        let states = &self.states;
        let (id, fresh, probes) =
            self.index
                .probe_insert(tag, new_id, |cand| states[cand as usize] == state);
        bb_obs::hot::SEEN_PROBE_LEN.record(u64::from(probes));
        if fresh {
            self.deep_bytes += sem.state_heap_bytes(&state);
            self.states.push(state);
            let b = StateStore::<S>::bytes(self);
            if b > self.peak {
                self.peak = b;
            }
        }
        Ok((StateId(id), fresh))
    }

    fn read_into(&mut self, _sem: &S, idx: u32, state: &mut S::State) -> Result<(), SpillFault> {
        state.clone_from(&self.states[idx as usize]);
        Ok(())
    }

    fn len(&self) -> usize {
        self.states.len()
    }

    fn bytes(&self) -> usize {
        self.states.capacity() * std::mem::size_of::<S::State>()
            + self.deep_bytes
            + self.index.bytes()
    }

    fn bytes_peak(&self) -> usize {
        self.peak
    }

    fn end_level(&mut self, _frontier_start: u32, _meter: &Meter) {}

    fn metrics(&self) -> StoreMetrics {
        let raw =
            (self.states.len() * std::mem::size_of::<S::State>() + self.deep_bytes) as u64;
        StoreMetrics {
            raw_bytes: raw,
            stored_bytes: raw,
            spilled_segments: 0,
            spilled_bytes: 0,
        }
    }
}

// ---------------------------------------------------------------------------
// ArenaStore — prefix-compressed encodings in spillable segments
// ---------------------------------------------------------------------------

/// Target byte size of one arena segment (the spill granule).
const SEG_TARGET: usize = 256 * 1024;

/// A prefix-compression restart is forced every this many entries, bounding
/// random-access decode cost.
const RESTART_INTERVAL: u32 = 16;

/// One arena segment: in core, or resident on the spill tier (payload
/// length and checksum retained to validate the reload).
enum Segment {
    Loaded(Vec<u8>),
    Spilled { len: usize, sum: u64 },
}

/// Start of a prefix-compression group: entry `first_idx` is stored with a
/// zero prefix at `(seg, off)`, and entries up to the next restart chain off
/// it within the same segment.
#[derive(Debug, Clone, Copy)]
struct Restart {
    first_idx: u32,
    seg: u32,
    off: u32,
}

/// Decode position of a reader: the reconstruction buffer holds the full
/// encoding of entry `next_idx - 1` (the prefix source for `next_idx`), and
/// `cache` holds at most one reloaded spilled segment.
pub(crate) struct ScanCursor {
    next_idx: u32,
    seg: u32,
    off: usize,
    buf: Vec<u8>,
    cache: Option<(u32, Vec<u8>)>,
    /// Entries decoded so far (sequential steps and restart replays).
    decoded: u64,
}

impl Default for ScanCursor {
    fn default() -> Self {
        ScanCursor {
            next_idx: u32::MAX,
            seg: 0,
            off: 0,
            buf: Vec::new(),
            cache: None,
            decoded: 0,
        }
    }
}

/// The compact seen-set + frontier: canonical encodings live once, as
/// delta-compressed entries in append-only segments; the index maps content
/// hashes to entry ids; cold segments spill to disk under memory pressure.
pub(crate) struct ArenaStore<'s> {
    segments: Vec<Segment>,
    restarts: Vec<Restart>,
    index: RawIndex,
    len: u32,
    seg_target: usize,
    /// Full encoding of the most recently appended entry (delta base).
    prev: Vec<u8>,
    /// Encode buffer, recycled across interns.
    scratch: Vec<u8>,
    /// Reader state for intern-time equality probes.
    probe_cur: ScanCursor,
    /// Reader state for the BFS frontier scan.
    read_cur: ScanCursor,
    /// Sum of loaded segment capacities (the dominant `bytes()` term).
    loaded_bytes: usize,
    peak: usize,
    raw_bytes: u64,
    stored_bytes: u64,
    spilled_segments: u32,
    spilled_bytes: u64,
    spill: Option<&'s dyn SpillBackend>,
    spill_broken: bool,
    /// Set by the first failed reload; every later call reports it.
    fault: Option<SpillFault>,
    /// Entries replayed by probes that hit (see [`StateStore::probe_replayed`]).
    hit_replayed: u64,
}

impl<'s> ArenaStore<'s> {
    pub(crate) fn new(spill: Option<&'s dyn SpillBackend>) -> Self {
        Self::with_seg_target(spill, SEG_TARGET)
    }

    pub(crate) fn with_seg_target(spill: Option<&'s dyn SpillBackend>, seg_target: usize) -> Self {
        ArenaStore {
            segments: Vec::new(),
            restarts: Vec::new(),
            index: RawIndex::new(),
            len: 0,
            seg_target,
            prev: Vec::new(),
            scratch: Vec::new(),
            probe_cur: ScanCursor::default(),
            read_cur: ScanCursor::default(),
            loaded_bytes: 0,
            peak: 0,
            raw_bytes: 0,
            stored_bytes: 0,
            spilled_segments: 0,
            spilled_bytes: 0,
            spill,
            spill_broken: false,
            fault: None,
            hit_replayed: 0,
        }
    }

    /// Appends `key` (a full canonical encoding) as entry `self.len`.
    fn append(&mut self, key: &[u8]) {
        let idx = self.len;
        let mut restart = idx.is_multiple_of(RESTART_INTERVAL);
        let prefix = if restart {
            0
        } else {
            common_prefix(&self.prev, key)
        };
        // Upper bound of the framed entry: two ≤5-byte varints + suffix.
        let entry_max = 10 + (key.len() - prefix);
        let fits = match self.segments.last() {
            Some(Segment::Loaded(v)) => v.len() + entry_max <= self.seg_target,
            _ => false,
        };
        if !fits {
            restart = true; // a fresh segment must be self-contained
            // Seal the previous tail at its exact length — sealed segments
            // never grow again, so trailing capacity is pure waste. The new
            // segment grows on demand instead of pre-reserving the full
            // spill granule: small runs pay for the bytes they store, not
            // for `seg_target`.
            if let Some(Segment::Loaded(v)) = self.segments.last_mut() {
                let before = v.capacity();
                v.shrink_to_fit();
                self.loaded_bytes -= before - v.capacity();
            }
            self.segments.push(Segment::Loaded(Vec::new()));
        }
        let (prefix, suffix) = if restart {
            (0, key.len())
        } else {
            (prefix, key.len() - prefix)
        };
        let seg = (self.segments.len() - 1) as u32;
        let Some(Segment::Loaded(v)) = self.segments.last_mut() else {
            unreachable!("tail segment is loaded by construction")
        };
        if restart {
            self.restarts.push(Restart {
                first_idx: idx,
                seg,
                off: v.len() as u32,
            });
        }
        let before = v.len();
        let cap_before = v.capacity();
        if before + entry_max > cap_before {
            // Grow in ~25% increments instead of Vec's doubling: the open
            // segment's idle capacity — pure overhead until it seals — stays
            // a quarter of its length instead of equal to it.
            let want = (cap_before + (cap_before / 4).max(4096)).max(before + entry_max);
            v.reserve_exact(want - before);
        }
        put_varint(v, prefix as u64);
        put_varint(v, suffix as u64);
        v.extend_from_slice(&key[key.len() - suffix..]);
        self.loaded_bytes += v.capacity() - cap_before;
        self.raw_bytes += key.len() as u64;
        self.stored_bytes += (v.len() - before) as u64;
        self.len += 1;
    }
}

impl<S: CodecSemantics> StateStore<S> for ArenaStore<'_> {
    fn intern(&mut self, sem: &S, state: S::State) -> Result<(StateId, bool), SpillFault> {
        if let Some(fault) = self.fault {
            return Err(fault);
        }
        let mut key = std::mem::take(&mut self.scratch);
        key.clear();
        sem.encode_state(&state, &mut key);
        let tag = (word_hash(&key) >> 32) as u32;
        let new_id = self.len;
        let decoded_before = self.probe_cur.decoded;
        let (segments, restarts, spill, probe_cur, fault) = (
            &self.segments,
            &self.restarts,
            self.spill,
            &mut self.probe_cur,
            &mut self.fault,
        );
        let (id, fresh, probes) = self.index.probe_insert(tag, new_id, |cand| {
            if fault.is_some() {
                return false;
            }
            match entry_for(segments, restarts, spill, probe_cur, cand) {
                Ok(entry) => entry == &key[..],
                Err(f) => {
                    *fault = Some(f);
                    false
                }
            }
        });
        if let Some(fault) = self.fault {
            // The probe could not compare against a spilled entry, so
            // `fresh` is untrustworthy; the store is poisoned from here on.
            self.scratch = key;
            return Err(fault);
        }
        bb_obs::hot::SEEN_PROBE_LEN.record(u64::from(probes));
        if fresh {
            self.append(&key);
            // The appended encoding becomes the next delta base; the old
            // base's allocation is recycled as the encode buffer.
            std::mem::swap(&mut self.prev, &mut key);
            let b = StateStore::<S>::bytes(self);
            if b > self.peak {
                self.peak = b;
            }
        } else {
            self.hit_replayed += self.probe_cur.decoded - decoded_before;
        }
        self.scratch = key;
        Ok((StateId(id), fresh))
    }

    fn read_into(&mut self, sem: &S, idx: u32, state: &mut S::State) -> Result<(), SpillFault> {
        if let Some(fault) = self.fault {
            return Err(fault);
        }
        match entry_for(
            &self.segments,
            &self.restarts,
            self.spill,
            &mut self.read_cur,
            idx,
        ) {
            Ok(entry) => {
                sem.decode_state_into(entry, state);
                Ok(())
            }
            Err(fault) => {
                self.fault = Some(fault);
                Err(fault)
            }
        }
    }

    fn len(&self) -> usize {
        self.len as usize
    }

    fn bytes(&self) -> usize {
        self.loaded_bytes
            + self.restarts.capacity() * std::mem::size_of::<Restart>()
            + self.index.bytes()
            + self.prev.capacity()
    }

    fn bytes_peak(&self) -> usize {
        self.peak
    }

    fn end_level(&mut self, frontier_start: u32, meter: &Meter) {
        let Some(backend) = self.spill else { return };
        if self.spill_broken || self.len == 0 {
            return;
        }
        let cap = meter.memory_cap();
        // High-water mark: start shedding cold segments at 5/8 of the cap,
        // leaving headroom for the level's expansion.
        if cap == usize::MAX || meter.memory_current() < cap / 8 * 5 {
            return;
        }
        // Everything strictly below the segment holding the first frontier
        // entry is cold: the frontier itself (and its restart group) stays
        // in core, so expanding it never waits on a reload.
        let boundary = restart_for(&self.restarts, frontier_start).seg;
        for seg in 0..boundary as usize {
            if !matches!(self.segments[seg], Segment::Loaded(_)) {
                continue;
            }
            let Segment::Loaded(payload) = &self.segments[seg] else {
                unreachable!()
            };
            match backend.write_segment(seg as u32, payload) {
                Ok(()) => {
                    let (len, sum) = (payload.len(), word_hash(payload));
                    self.loaded_bytes -= payload.capacity();
                    self.spilled_segments += 1;
                    self.spilled_bytes += len as u64;
                    bb_obs::hot::SPILL_SEGMENTS.incr();
                    bb_obs::hot::SPILL_BYTES.add(len as u64);
                    self.segments[seg] = Segment::Spilled { len, sum };
                }
                Err(_) => {
                    // Keep the segment in core and stop spilling: the run
                    // degrades to in-core behavior instead of failing.
                    self.spill_broken = true;
                    return;
                }
            }
        }
    }

    fn metrics(&self) -> StoreMetrics {
        StoreMetrics {
            raw_bytes: self.raw_bytes,
            stored_bytes: self.stored_bytes,
            spilled_segments: self.spilled_segments,
            spilled_bytes: self.spilled_bytes,
        }
    }

    fn probe_replayed(&self) -> u64 {
        self.hit_replayed
    }
}

/// The governing restart of entry `idx`: the last restart at or before it.
fn restart_for(restarts: &[Restart], idx: u32) -> Restart {
    let i = match restarts.binary_search_by_key(&idx, |r| r.first_idx) {
        Ok(i) => i,
        Err(i) => i - 1,
    };
    restarts[i]
}

/// Reconstructs the full encoding of entry `idx` into `cur.buf`.
///
/// Sequential scans (the BFS frontier) continue from the cursor's position;
/// anything else repositions at the governing restart and decodes at most
/// [`RESTART_INTERVAL`] entries. Spilled segments are reloaded through the
/// cursor's one-segment cache; a reload that fails or does not match what
/// was written is a [`SpillFault`].
fn entry_for<'a>(
    segments: &[Segment],
    restarts: &[Restart],
    spill: Option<&dyn SpillBackend>,
    cur: &'a mut ScanCursor,
    idx: u32,
) -> Result<&'a [u8], SpillFault> {
    if cur.next_idx != idx {
        let r = restart_for(restarts, idx);
        cur.next_idx = r.first_idx;
        cur.seg = r.seg;
        cur.off = r.off as usize;
        cur.buf.clear();
    }
    loop {
        let payload = seg_payload(segments, spill, cur.seg, &mut cur.cache)?;
        if cur.off == payload.len() {
            // Segment exhausted: the next entry opened a new segment (and a
            // new restart group) at offset 0.
            cur.seg += 1;
            cur.off = 0;
            continue;
        }
        let (prefix, n1) = get_varint(&payload[cur.off..]);
        let (suffix, n2) = get_varint(&payload[cur.off + n1..]);
        let (prefix, suffix) = (prefix as usize, suffix as usize);
        let start = cur.off + n1 + n2;
        cur.buf.truncate(prefix);
        cur.buf.extend_from_slice(&payload[start..start + suffix]);
        cur.off = start + suffix;
        cur.next_idx += 1;
        cur.decoded += 1;
        if cur.next_idx > idx {
            return Ok(&cur.buf);
        }
    }
}

/// The payload of `seg`: a direct borrow when loaded, the cursor's cached
/// reload when spilled. A reload is accepted only if it has the length and
/// checksum recorded when the segment was spilled.
fn seg_payload<'a>(
    segments: &'a [Segment],
    spill: Option<&dyn SpillBackend>,
    seg: u32,
    cache: &'a mut Option<(u32, Vec<u8>)>,
) -> Result<&'a [u8], SpillFault> {
    match &segments[seg as usize] {
        Segment::Loaded(v) => Ok(v),
        &Segment::Spilled { len, sum } => {
            if cache.as_ref().is_none_or(|(s, _)| *s != seg) {
                let backend = spill.expect("spilled segment without a spill backend");
                let payload = backend
                    .read_segment(seg)
                    .ok()
                    .filter(|p| p.len() == len && word_hash(p) == sum)
                    .ok_or(SpillFault)?;
                bb_obs::hot::SPILL_RELOADS.incr();
                *cache = Some((seg, payload));
            }
            Ok(&cache.as_ref().expect("cache populated above").1)
        }
    }
}

fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    let n = a.len().min(b.len());
    let mut i = 0;
    while i < n && a[i] == b[i] {
        i += 1;
    }
    i
}

/// LEB128 for the entry framing (independent of any state codec).
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Decodes a varint, returning `(value, bytes_consumed)`.
fn get_varint(bytes: &[u8]) -> (u64, usize) {
    let mut v = 0u64;
    let mut shift = 0;
    for (i, &b) in bytes.iter().enumerate() {
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return (v, i + 1);
        }
        shift += 7;
    }
    panic!("truncated varint in arena segment")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::Action;
    use crate::ThreadId;
    use std::sync::Mutex;

    /// A toy codec semantics: a counter grid whose states are `(u32, u32)`
    /// pairs with a shared big-endian-ish prefix, so prefix compression has
    /// something to chew on.
    struct Grid {
        side: u32,
    }

    impl Semantics for Grid {
        type State = (u32, u32);

        fn initial_state(&self) -> (u32, u32) {
            (0, 0)
        }

        fn successors(&self, s: &(u32, u32), out: &mut Vec<(Action, (u32, u32))>) {
            let (x, y) = *s;
            if x + 1 < self.side {
                out.push((Action::tau(ThreadId(1)), (x + 1, y)));
            }
            if y + 1 < self.side {
                out.push((Action::call(ThreadId(1), "up", None), (x, y + 1)));
            }
        }
    }

    impl CodecSemantics for Grid {
        fn encode_state(&self, state: &(u32, u32), out: &mut Vec<u8>) {
            out.extend_from_slice(&state.0.to_be_bytes());
            out.extend_from_slice(&state.1.to_be_bytes());
        }

        fn decode_state_into(&self, bytes: &[u8], state: &mut (u32, u32)) {
            assert_eq!(bytes.len(), 8, "grid encoding is 8 bytes");
            let x = u32::from_be_bytes(bytes[0..4].try_into().unwrap());
            let y = u32::from_be_bytes(bytes[4..8].try_into().unwrap());
            *state = (x, y);
        }
    }

    /// In-memory spill backend with injectable write failure.
    #[derive(Default)]
    struct MemSpill {
        segments: Mutex<std::collections::HashMap<u32, Vec<u8>>>,
        fail_writes: bool,
    }

    impl SpillBackend for MemSpill {
        fn write_segment(&self, index: u32, payload: &[u8]) -> io::Result<()> {
            if self.fail_writes {
                return Err(io::Error::other("injected"));
            }
            self.segments.lock().unwrap().insert(index, payload.to_vec());
            Ok(())
        }

        fn read_segment(&self, index: u32) -> io::Result<Vec<u8>> {
            self.segments
                .lock()
                .unwrap()
                .get(&index)
                .cloned()
                .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "missing segment"))
        }
    }

    /// Reads entry `idx` back as a fresh state.
    fn read<S: Semantics, ST: StateStore<S>>(store: &mut ST, sem: &S, idx: u32) -> S::State {
        let mut state = sem.initial_state();
        store.read_into(sem, idx, &mut state).unwrap();
        state
    }

    fn fill(store: &mut ArenaStore<'_>, sem: &Grid, n: u32) -> Vec<StateId> {
        (0..n)
            .map(|i| {
                let (id, fresh) = store.intern(sem, (i / 7, i % 7)).unwrap();
                assert_eq!(fresh, i / 7 * 7 + i % 7 == i, "dedup is exact");
                id
            })
            .collect()
    }

    #[test]
    fn arena_interns_and_reads_back() {
        let sem = Grid { side: 100 };
        let mut store = ArenaStore::with_seg_target(None, 64);
        let mut expected = Vec::new();
        for x in 0..40u32 {
            for y in 0..40u32 {
                let (id, fresh) = store.intern(&sem, (x, y)).unwrap();
                assert!(fresh);
                assert_eq!(id.index(), expected.len());
                expected.push((x, y));
            }
        }
        // Duplicate interns resolve to the original ids.
        let (id, fresh) = store.intern(&sem, (7, 31)).unwrap();
        assert!(!fresh);
        assert_eq!(expected[id.index()], (7, 31));
        // Sequential and random reads reconstruct every state.
        for (i, s) in expected.iter().enumerate() {
            assert_eq!(read(&mut store, &sem, i as u32), *s);
        }
        for i in [1599u32, 0, 800, 31, 1598, 17] {
            assert_eq!(read(&mut store, &sem, i), expected[i as usize]);
        }
        let m = StateStore::<Grid>::metrics(&store);
        assert_eq!(m.raw_bytes, 1600 * 8);
        assert!(
            m.stored_bytes < m.raw_bytes,
            "prefix compression must save bytes: {m:?}"
        );
    }

    #[test]
    fn spill_and_reload_round_trips() {
        let sem = Grid { side: 1000 };
        let spill = MemSpill::default();
        let mut store = ArenaStore::with_seg_target(Some(&spill), 128);
        let wd = crate::budget::Watchdog::new(
            crate::budget::Budget::unlimited().with_max_memory_bytes(4096),
        );
        let mut meter = wd.meter(crate::budget::Stage::Explore);
        let mut expected = Vec::new();
        for x in 0..60u32 {
            for y in 0..60u32 {
                store.intern(&sem, (x, y)).unwrap();
                expected.push((x, y));
            }
        }
        // Pressure the meter past the high-water mark, then close a level
        // with a frontier near the end: cold segments must spill.
        meter.add_memory(4000).unwrap();
        let frontier_start = expected.len() as u32 - 10;
        StateStore::<Grid>::end_level(&mut store, frontier_start, &meter);
        let m = StateStore::<Grid>::metrics(&store);
        assert!(m.spilled_segments > 0, "cold segments must spill: {m:?}");
        assert!(!spill.segments.lock().unwrap().is_empty());
        // Every entry — spilled or loaded — still reads back exactly.
        for (i, s) in expected.iter().enumerate() {
            assert_eq!(read(&mut store, &sem, i as u32), *s, "entry {i}");
        }
        // Probing a state whose entry is spilled still dedups correctly.
        let (_, fresh) = store.intern(&sem, (0, 0)).unwrap();
        assert!(!fresh, "spilled entries still answer probes");
        // The frontier's own segment stayed in core.
        let boundary = restart_for(&store.restarts, frontier_start).seg;
        for seg in boundary as usize..store.segments.len() {
            assert!(matches!(store.segments[seg], Segment::Loaded(_)));
        }
    }

    #[test]
    fn spill_write_failure_degrades_gracefully() {
        let sem = Grid { side: 1000 };
        let spill = MemSpill {
            fail_writes: true,
            ..MemSpill::default()
        };
        let mut store = ArenaStore::with_seg_target(Some(&spill), 128);
        let wd = crate::budget::Watchdog::new(
            crate::budget::Budget::unlimited().with_max_memory_bytes(4096),
        );
        let mut meter = wd.meter(crate::budget::Stage::Explore);
        for i in 0..2000u32 {
            store.intern(&sem, (i / 50, i % 50)).unwrap();
        }
        meter.add_memory(4000).unwrap();
        StateStore::<Grid>::end_level(&mut store, 1990, &meter);
        let m = StateStore::<Grid>::metrics(&store);
        assert_eq!(m.spilled_segments, 0, "failed writes must not spill");
        assert!(store.spill_broken);
        // Everything still reads back from core.
        assert_eq!(read(&mut store, &sem, 1234), (1234 / 50, 1234 % 50));
    }

    #[test]
    fn hash_store_interns_once_and_reads_back() {
        let sem = Grid { side: 100 };
        let mut store: HashStore<Grid> = HashStore::new();
        let _ = fill_hash(&mut store, &sem, 500);
        assert_eq!(StateStore::<Grid>::len(&store), 500);
        let (id, fresh) = store.intern(&sem, (3, 4)).unwrap();
        assert!(!fresh);
        assert_eq!(read(&mut store, &sem, id.0), (3, 4));
        let bytes = StateStore::<Grid>::bytes(&store);
        // One struct copy per state plus 8 index bytes — no key duplication.
        assert!(
            bytes <= 500 * 8 * 4,
            "hash store must not double-store states: {bytes}"
        );
    }

    fn fill_hash(store: &mut HashStore<Grid>, sem: &Grid, n: u32) -> Vec<StateId> {
        (0..n)
            .map(|i| store.intern(sem, (i, i + 1)).unwrap().0)
            .collect()
    }

    #[test]
    fn raw_index_grows_and_keeps_entries() {
        let mut idx = RawIndex::new();
        let keys: Vec<u64> = (0..10_000u64).map(|i| i.wrapping_mul(0x9e3779b97f4a7c15)).collect();
        for (i, &k) in keys.iter().enumerate() {
            let tag = (k >> 32) as u32;
            let (id, fresh, _) = idx.probe_insert(tag, i as u32, |cand| {
                keys[cand as usize] == k
            });
            assert!(fresh, "key {i} is distinct");
            assert_eq!(id, i as u32);
        }
        for (i, &k) in keys.iter().enumerate() {
            let tag = (k >> 32) as u32;
            let (id, fresh, _) =
                idx.probe_insert(tag, u32::MAX, |cand| keys[cand as usize] == k);
            assert!(!fresh, "key {i} must be found after growth");
            assert_eq!(id, i as u32);
        }
    }

    #[test]
    fn fill_is_deterministic() {
        let sem = Grid { side: 100 };
        let mut a = ArenaStore::with_seg_target(None, 96);
        let mut b = ArenaStore::with_seg_target(None, 96);
        let ia = fill(&mut a, &sem, 300);
        let ib = fill(&mut b, &sem, 300);
        assert_eq!(ia, ib);
        assert_eq!(a.raw_bytes, b.raw_bytes);
        assert_eq!(a.stored_bytes, b.stored_bytes);
    }
}
