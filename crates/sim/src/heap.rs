//! Canonical abstract heap.

use crate::ptr::Ptr;
use std::hash::Hash;

/// A node type storable in a [`Heap`]: it must expose its outgoing pointers
/// so that garbage collection and canonical renaming can traverse and
/// rewrite them.
pub trait HeapNode: Clone + Eq + Hash + std::fmt::Debug {
    /// Appends the node's outgoing pointers to `out`.
    fn collect_refs(&self, out: &mut Vec<Ptr>);
    /// Rewrites each outgoing pointer in place.
    fn map_refs(&mut self, f: &mut dyn FnMut(Ptr) -> Ptr);
}

/// An arena of abstract nodes with canonical renaming.
///
/// After canonicalization ([`Heap::canonicalizer`]), live nodes occupy a
/// dense prefix of the arena in root-traversal order, so two isomorphic
/// heaps compare equal — the symmetry reduction described in the crate
/// docs.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Heap<N: HeapNode> {
    nodes: Vec<Option<N>>,
}

impl<N: HeapNode> Default for Heap<N> {
    fn default() -> Self {
        Heap { nodes: Vec::new() }
    }
}

impl<N: HeapNode + crate::Pack> crate::Pack for Heap<N> {
    // Canonicalized heaps are a dense prefix of live nodes, but the arena
    // representation is encoded faithfully (free slots as `None`) so the
    // round-trip holds for every heap, canonical or not.
    fn pack(&self, w: &mut crate::PackWriter<'_>) {
        self.nodes.pack(w);
    }
    fn unpack(r: &mut crate::PackReader<'_>) -> Option<Self> {
        Some(Heap {
            nodes: crate::Pack::unpack(r)?,
        })
    }
    fn unpack_into(&mut self, r: &mut crate::PackReader<'_>) -> Option<()> {
        self.nodes.unpack_into(r)
    }
    fn heap_bytes(&self) -> usize {
        self.nodes.heap_bytes()
    }
}

/// The renaming produced by [`Canonicalizer::finish`]; apply it to every
/// pointer stored outside the heap (shared variables, thread frames). It
/// borrows the [`CanonScratch`] the canonicalization ran in.
#[derive(Debug, Clone, Copy)]
pub struct Renaming<'s> {
    map: &'s [Ptr],
}

impl Renaming<'_> {
    /// Rewrites a pointer: live nodes get their canonical name, reclaimed or
    /// unreachable targets become [`Ptr::DANGLING`], sentinels are kept.
    #[inline]
    pub fn apply(&self, p: Ptr) -> Ptr {
        if !p.is_node() {
            return p;
        }
        self.map.get(p.0 as usize).copied().unwrap_or(Ptr::DANGLING)
    }
}

/// Reusable work buffers of [`Heap::canonicalizer`]. One scratch serves any
/// number of heaps of any node type; after the first few states it has
/// grown to the largest heap seen and canonicalization allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct CanonScratch {
    /// Old index → canonical name (`DANGLING` until visited).
    map: Vec<Ptr>,
    /// Old indices in canonical order; doubles as the BFS queue.
    order: Vec<u32>,
    /// Outgoing pointers of the node being scanned.
    refs: Vec<Ptr>,
    /// Old index of the node in each slot, during the in-place permutation.
    node_at: Vec<u32>,
}

/// An open canonicalization of one heap: feed the roots in order with
/// [`Canonicalizer::root`], then [`Canonicalizer::finish`]. Obtained from
/// [`Heap::canonicalizer`].
pub struct Canonicalizer<'h, 's, N: HeapNode> {
    heap: &'h mut Heap<N>,
    scratch: &'s mut CanonScratch,
}

impl<'s, N: HeapNode> Canonicalizer<'_, 's, N> {
    /// Visits root `p`: a live node not yet named gets the next canonical
    /// name. Null, dangling, out-of-range and freed pointers are ignored.
    #[inline]
    pub fn root(&mut self, p: Ptr) {
        visit(&self.heap.nodes, self.scratch, p);
    }

    /// Names every node reachable from the roots in BFS order, drops the
    /// rest, renumbers the heap densely and returns the renaming for the
    /// pointers outside it.
    ///
    /// When the renaming is the identity on a heap with no garbage and no
    /// pointer to a missing node — the common case — the nodes are left
    /// untouched.
    pub fn finish(self) -> Renaming<'s> {
        let Canonicalizer { heap, scratch } = self;
        let nodes = &mut heap.nodes;
        let mut refs = std::mem::take(&mut scratch.refs);
        let mut dead_ref = false;
        let mut head = 0;
        while head < scratch.order.len() {
            let old = scratch.order[head] as usize;
            head += 1;
            refs.clear();
            nodes[old]
                .as_ref()
                .expect("queued nodes are live")
                .collect_refs(&mut refs);
            for &p in &refs {
                dead_ref |= p.is_node() && !nodes.get(p.0 as usize).is_some_and(Option::is_some);
                visit(nodes, scratch, p);
            }
        }
        scratch.refs = refs;

        let kept = scratch.order.len();
        let identity = kept == nodes.len()
            && !dead_ref
            && scratch
                .order
                .iter()
                .enumerate()
                .all(|(i, &o)| o as usize == i);
        if !identity {
            permute_in_place(nodes, scratch);
            let renaming = Renaming { map: &scratch.map };
            for node in nodes.iter_mut() {
                node.as_mut()
                    .expect("kept nodes are live")
                    .map_refs(&mut |p| renaming.apply(p));
            }
        }
        Renaming { map: &scratch.map }
    }
}

/// Names `p` if it is a live, not yet named node of `nodes`.
#[inline]
fn visit<N>(nodes: &[Option<N>], scratch: &mut CanonScratch, p: Ptr) {
    if !p.is_node() {
        return;
    }
    let i = p.0 as usize;
    if !nodes.get(i).is_some_and(Option::is_some) || scratch.map[i] != Ptr::DANGLING {
        return;
    }
    scratch.map[i] = Ptr(scratch.order.len() as u32);
    scratch.order.push(p.0);
}

/// Moves every kept node to its canonical slot by swaps (a cycle sort on
/// `map`), then truncates the garbage left behind the kept prefix: the dense
/// canonical layout without a second node vector.
fn permute_in_place<N>(nodes: &mut Vec<Option<N>>, scratch: &mut CanonScratch) {
    let CanonScratch {
        map,
        order,
        node_at,
        ..
    } = scratch;
    node_at.clear();
    node_at.extend(0..nodes.len() as u32);
    for i in 0..nodes.len() {
        // Each swap puts one node in its final slot; stop once slot `i`
        // holds its own node or garbage.
        loop {
            let dst = map[node_at[i] as usize];
            if dst == Ptr::DANGLING || dst.0 as usize == i {
                break;
            }
            nodes.swap(i, dst.0 as usize);
            node_at.swap(i, dst.0 as usize);
        }
    }
    nodes.truncate(order.len());
}

impl<N: HeapNode> Heap<N> {
    /// Creates an empty heap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates a fresh node, returning its pointer.
    pub fn alloc(&mut self, node: N) -> Ptr {
        // Reuse a free slot if any (identity is canonicalized away anyway).
        if let Some(i) = self.nodes.iter().position(Option::is_none) {
            self.nodes[i] = Some(node);
            return Ptr(i as u32);
        }
        let i = self.nodes.len();
        self.nodes.push(Some(node));
        Ptr(i as u32)
    }

    /// Explicitly reclaims a node (hazard-pointer style `free`). Pointers to
    /// it become dangling at the next canonicalization.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not a live node.
    pub fn free(&mut self, p: Ptr) {
        let slot = &mut self.nodes[p.index()];
        assert!(slot.is_some(), "double free of {p:?}");
        *slot = None;
    }

    /// Shared read access; `None` for freed/dangling/null pointers.
    pub fn get(&self, p: Ptr) -> Option<&N> {
        if !p.is_node() {
            return None;
        }
        self.nodes.get(p.0 as usize).and_then(Option::as_ref)
    }

    /// Mutable access; `None` for freed/dangling/null pointers.
    pub fn get_mut(&mut self, p: Ptr) -> Option<&mut N> {
        if !p.is_node() {
            return None;
        }
        self.nodes.get_mut(p.0 as usize).and_then(Option::as_mut)
    }

    /// Dereferences a pointer that the caller knows is live.
    ///
    /// # Panics
    ///
    /// Panics on null, dangling or freed pointers — in a verified model such
    /// a dereference is a modeling error, not a runtime condition.
    pub fn node(&self, p: Ptr) -> &N {
        self.get(p).unwrap_or_else(|| panic!("dereferenced dead pointer {p:?}"))
    }

    /// Mutable variant of [`Heap::node`].
    ///
    /// # Panics
    ///
    /// Panics on null, dangling or freed pointers.
    pub fn node_mut(&mut self, p: Ptr) -> &mut N {
        self.get_mut(p)
            .unwrap_or_else(|| panic!("dereferenced dead pointer {p:?}"))
    }

    /// Is `p` a live node of this heap?
    pub fn is_live(&self, p: Ptr) -> bool {
        self.get(p).is_some()
    }

    /// Number of live nodes.
    pub fn len(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_some()).count()
    }

    /// Whether the heap holds no live nodes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Garbage-collects and canonically renames the heap, in `scratch`:
    /// visit the roots one by one with [`Canonicalizer::root`], then
    /// [`Canonicalizer::finish`]. Live nodes reachable from the roots are
    /// renumbered densely in first-visit (root order, then BFS) order;
    /// everything else is dropped. `finish` returns the [`Renaming`] to
    /// apply to all external pointers. Allocation-free once `scratch` has
    /// grown, with no roots vector: the algorithms' `canonicalize` hooks
    /// feed their roots straight in.
    ///
    /// ```
    /// use bb_sim::{CanonScratch, Heap, HeapNode, Ptr};
    ///
    /// #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    /// struct Cell(i64, Ptr);
    /// impl HeapNode for Cell {
    ///     fn collect_refs(&self, out: &mut Vec<Ptr>) { out.push(self.1); }
    ///     fn map_refs(&mut self, f: &mut dyn FnMut(Ptr) -> Ptr) { self.1 = f(self.1); }
    /// }
    ///
    /// let mut scratch = CanonScratch::default();
    /// let mut h: Heap<Cell> = Heap::new();
    /// let garbage = h.alloc(Cell(9, Ptr::NULL));
    /// let a = h.alloc(Cell(1, Ptr::NULL));
    /// let mut c = h.canonicalizer(&mut scratch);
    /// c.root(a);
    /// let ren = c.finish();
    /// assert_eq!(ren.apply(a), Ptr(0));        // canonical name
    /// assert_eq!(ren.apply(garbage), Ptr::DANGLING);
    /// assert_eq!(h.len(), 1);                  // garbage collected
    /// ```
    pub fn canonicalizer<'h, 's>(
        &'h mut self,
        scratch: &'s mut CanonScratch,
    ) -> Canonicalizer<'h, 's, N> {
        scratch.map.clear();
        scratch.map.resize(self.nodes.len(), Ptr::DANGLING);
        scratch.order.clear();
        Canonicalizer {
            heap: self,
            scratch,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A singly linked node carrying a value.
    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    struct Cell {
        val: i64,
        next: Ptr,
    }

    impl HeapNode for Cell {
        fn collect_refs(&self, out: &mut Vec<Ptr>) {
            out.push(self.next);
        }
        fn map_refs(&mut self, f: &mut dyn FnMut(Ptr) -> Ptr) {
            self.next = f(self.next);
        }
    }

    fn cell(val: i64, next: Ptr) -> Cell {
        Cell { val, next }
    }

    /// Canonicalizes `heap` from the roots of a slice.
    fn canonicalize<'s, N: HeapNode>(
        heap: &mut Heap<N>,
        scratch: &'s mut CanonScratch,
        roots: &[Ptr],
    ) -> Renaming<'s> {
        let mut c = heap.canonicalizer(scratch);
        for &r in roots {
            c.root(r);
        }
        c.finish()
    }

    #[test]
    fn alloc_get_free() {
        let mut h: Heap<Cell> = Heap::new();
        let a = h.alloc(cell(1, Ptr::NULL));
        assert_eq!(h.node(a).val, 1);
        assert!(h.is_live(a));
        h.free(a);
        assert!(!h.is_live(a));
        assert!(h.get(a).is_none());
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut h: Heap<Cell> = Heap::new();
        let a = h.alloc(cell(1, Ptr::NULL));
        h.free(a);
        h.free(a);
    }

    #[test]
    fn canonicalization_merges_isomorphic_heaps() {
        // Heap 1: allocate a then b, list b -> a.
        let mut h1: Heap<Cell> = Heap::new();
        let a1 = h1.alloc(cell(1, Ptr::NULL));
        let b1 = h1.alloc(cell(2, a1));
        let mut s1 = CanonScratch::default();
        let r1 = canonicalize(&mut h1, &mut s1, &[b1]);

        // Heap 2: same list but allocated in opposite slot order.
        let mut h2: Heap<Cell> = Heap::new();
        let x = h2.alloc(cell(9, Ptr::NULL)); // garbage, freed below
        let a2 = h2.alloc(cell(1, Ptr::NULL));
        h2.free(x);
        let b2 = h2.alloc(cell(2, a2));
        let mut s2 = CanonScratch::default();
        let r2 = canonicalize(&mut h2, &mut s2, &[b2]);

        assert_eq!(h1, h2);
        assert_eq!(r1.apply(b1), r2.apply(b2));
    }

    #[test]
    fn unreachable_nodes_are_collected() {
        let mut h: Heap<Cell> = Heap::new();
        let a = h.alloc(cell(1, Ptr::NULL));
        let _garbage = h.alloc(cell(2, Ptr::NULL));
        let _ = canonicalize(&mut h, &mut CanonScratch::default(), &[a]);
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn dangling_pointers_are_canonical() {
        let mut h: Heap<Cell> = Heap::new();
        let a = h.alloc(cell(1, Ptr::NULL));
        let b = h.alloc(cell(2, Ptr::NULL));
        h.free(a);
        let mut scratch = CanonScratch::default();
        let ren = canonicalize(&mut h, &mut scratch, &[b, a]);
        assert_eq!(ren.apply(a), Ptr::DANGLING);
        assert_eq!(ren.apply(b), Ptr(0));
        assert_eq!(ren.apply(Ptr::NULL), Ptr::NULL);
    }

    #[test]
    fn cyclic_structures_survive() {
        let mut h: Heap<Cell> = Heap::new();
        let a = h.alloc(cell(1, Ptr::NULL));
        let b = h.alloc(cell(2, a));
        h.node_mut(a).next = b;
        let mut scratch = CanonScratch::default();
        let ren = canonicalize(&mut h, &mut scratch, &[a]);
        assert_eq!(h.len(), 2);
        let na = ren.apply(a);
        let nb = ren.apply(b);
        assert_eq!(h.node(na).next, nb);
        assert_eq!(h.node(nb).next, na);
    }

    #[test]
    fn root_order_determines_names() {
        let mut h: Heap<Cell> = Heap::new();
        let a = h.alloc(cell(1, Ptr::NULL));
        let b = h.alloc(cell(2, Ptr::NULL));
        let mut scratch = CanonScratch::default();
        let ren = canonicalize(&mut h, &mut scratch, &[b, a]);
        assert_eq!(ren.apply(b), Ptr(0));
        assert_eq!(ren.apply(a), Ptr(1));
    }

    /// The canonicalization as it was before its buffers were reused and
    /// the identity case skipped: fresh `map`/`order`/queue/`refs` vectors
    /// and a rebuilt node vector on every call. Kept as the oracle of the
    /// property test below; returns the renaming's map.
    fn canonicalize_reference<N: HeapNode>(heap: &mut Heap<N>, roots: &[Ptr]) -> Vec<Ptr> {
        let mut map: Vec<Ptr> = vec![Ptr::DANGLING; heap.nodes.len()];
        let mut order: Vec<u32> = Vec::new();
        let mut queue = std::collections::VecDeque::new();
        let visit = |p: Ptr,
                     map: &mut Vec<Ptr>,
                     order: &mut Vec<u32>,
                     queue: &mut std::collections::VecDeque<u32>,
                     nodes: &[Option<N>]| {
            if !p.is_node() {
                return;
            }
            let Some(slot) = nodes.get(p.0 as usize) else {
                return;
            };
            if slot.is_none() || map[p.0 as usize] != Ptr::DANGLING {
                return;
            }
            map[p.0 as usize] = Ptr(order.len() as u32);
            order.push(p.0);
            queue.push_back(p.0);
        };
        for &r in roots {
            visit(r, &mut map, &mut order, &mut queue, &heap.nodes);
        }
        let mut refs = Vec::new();
        while let Some(old) = queue.pop_front() {
            refs.clear();
            heap.nodes[old as usize]
                .as_ref()
                .expect("queued nodes are live")
                .collect_refs(&mut refs);
            for &p in &refs {
                visit(p, &mut map, &mut order, &mut queue, &heap.nodes);
            }
        }
        let apply = |p: Ptr| {
            if p.is_node() {
                map.get(p.0 as usize).copied().unwrap_or(Ptr::DANGLING)
            } else {
                p
            }
        };
        let mut new_nodes: Vec<Option<N>> = Vec::with_capacity(order.len());
        for &old in &order {
            let mut node = heap.nodes[old as usize]
                .take()
                .expect("ordered nodes are live");
            node.map_refs(&mut |p| apply(p));
            new_nodes.push(Some(node));
        }
        heap.nodes = new_nodes;
        map
    }

    /// A node with two outgoing pointers, so random heaps branch, share
    /// and cycle.
    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    struct Fork {
        val: i64,
        left: Ptr,
        right: Ptr,
    }

    impl HeapNode for Fork {
        fn collect_refs(&self, out: &mut Vec<Ptr>) {
            out.push(self.left);
            out.push(self.right);
        }
        fn map_refs(&mut self, f: &mut dyn FnMut(Ptr) -> Ptr) {
            self.left = f(self.left);
            self.right = f(self.right);
        }
    }

    /// SplitMix64: a seeded, dependency-free random stream.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// Null, dangling, a slot of the heap (live or freed) or one past its
    /// end.
    fn random_ptr(rng: &mut Rng, slots: usize) -> Ptr {
        match rng.below(8) {
            0 => Ptr::NULL,
            1 => Ptr::DANGLING,
            _ => Ptr(rng.below(slots as u64 + 2) as u32),
        }
    }

    /// A heap of up to 11 slots with random links, some slots freed, plus
    /// up to 4 roots; garbage, cycles, sharing and dangling roots all occur.
    fn random_heap(rng: &mut Rng) -> (Heap<Fork>, Vec<Ptr>) {
        let slots = rng.below(12) as usize;
        let mut h: Heap<Fork> = Heap::new();
        for i in 0..slots {
            let (left, right) = (random_ptr(rng, slots), random_ptr(rng, slots));
            h.nodes.push(Some(Fork {
                val: i as i64 % 3,
                left,
                right,
            }));
        }
        for i in 0..slots {
            if rng.below(5) == 0 {
                h.nodes[i] = None;
            }
        }
        let roots = (0..rng.below(5)).map(|_| random_ptr(rng, slots)).collect();
        (h, roots)
    }

    #[test]
    fn canonicalize_matches_the_reference_and_is_idempotent() {
        let mut rng = Rng(0x5eed);
        // One scratch across every case: reuse over heaps that grow and
        // shrink must not leak state between calls.
        let mut scratch = CanonScratch::default();
        let mut identity_skips = 0;
        for case in 0..5000 {
            let (heap, roots) = random_heap(&mut rng);
            let slots = heap.nodes.len();
            let mut expected_heap = heap.clone();
            let expected_map = canonicalize_reference(&mut expected_heap, &roots);

            let mut got_heap = heap.clone();
            let ren = canonicalize(&mut got_heap, &mut scratch, &roots);
            assert_eq!(got_heap, expected_heap, "case {case}: heap differs");
            let probes = (0..slots as u32 + 3)
                .map(Ptr)
                .chain([Ptr::NULL, Ptr::DANGLING]);
            for p in probes {
                let want = if p.is_node() {
                    expected_map
                        .get(p.0 as usize)
                        .copied()
                        .unwrap_or(Ptr::DANGLING)
                } else {
                    p
                };
                assert_eq!(ren.apply(p), want, "case {case}: renaming of {p:?}");
            }
            if got_heap.nodes == heap.nodes {
                identity_skips += 1;
            }

            // Idempotence: canonicalizing the result again, from the renamed
            // roots, renames every kept node to itself and changes nothing.
            let renamed: Vec<Ptr> = roots.iter().map(|&r| ren.apply(r)).collect();
            let once = got_heap.clone();
            let again = canonicalize(&mut got_heap, &mut scratch, &renamed);
            for i in 0..once.nodes.len() as u32 {
                assert_eq!(again.apply(Ptr(i)), Ptr(i), "case {case}: not idempotent");
            }
            assert_eq!(got_heap, once, "case {case}: second pass changed the heap");
        }
        assert!(
            identity_skips > 100,
            "the identity case must occur: {identity_skips}"
        );
    }
}
