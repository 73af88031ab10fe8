//! The shared heap-node type used by all linked-list-based benchmarks.

use bb_lts::ThreadId;
use bb_sim::{HeapNode, Ptr, Value};

/// A singly linked node with the fields needed across the benchmark suite:
/// a key/value, the `next` pointer, a logical-deletion mark (Harris/lazy
/// lists) and a per-node lock owner (lock-based lists).
///
/// Unused fields stay at their defaults and never vary, so they do not
/// enlarge the state space of algorithms that ignore them.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ListNode {
    /// Element value (stacks/queues) or key (sets).
    pub val: Value,
    /// Successor pointer.
    pub next: Ptr,
    /// Logical deletion mark (the mark bit of the node's `next` field).
    pub marked: bool,
    /// Lock owner, for fine-grained/optimistic/lazy lists.
    pub lock: Option<ThreadId>,
}

bb_sim::impl_pack!(struct ListNode { val, next, marked, lock });

impl ListNode {
    /// A plain node carrying `val` and pointing to `next`.
    pub fn new(val: Value, next: Ptr) -> Self {
        ListNode {
            val,
            next,
            marked: false,
            lock: None,
        }
    }
}

impl HeapNode for ListNode {
    fn collect_refs(&self, out: &mut Vec<Ptr>) {
        out.push(self.next);
    }
    fn map_refs(&mut self, f: &mut dyn FnMut(Ptr) -> Ptr) {
        self.next = f(self.next);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bb_sim::Heap;

    #[test]
    fn node_refs_are_tracked() {
        let mut h: Heap<ListNode> = Heap::new();
        let a = h.alloc(ListNode::new(1, Ptr::NULL));
        let b = h.alloc(ListNode::new(2, a));
        let mut scratch = bb_sim::CanonScratch::default();
        let mut c = h.canonicalizer(&mut scratch);
        c.root(b);
        let ren = c.finish();
        let nb = ren.apply(b);
        assert_eq!(h.node(h.node(nb).next).val, 1);
    }
}
