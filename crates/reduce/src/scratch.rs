//! A synthetic workload exercising both reduction layers.
//!
//! Each thread owns one write-only scratch slot: `put(v)` performs a single
//! internal step writing `v` into the caller's slot and returns. Slot
//! contents are **never read**, so the residue a finished operation leaves
//! behind is invisible — states differing only by a permutation of slots
//! among identical-status threads are genuinely equivalent, which makes
//! this the sharpest test of thread-symmetry canonicalization (real
//! algorithms rarely keep invisible residue around). The private write is
//! likewise an ideal ample step for the partial-order layer.

use bb_lts::ThreadId;
use bb_sim::{
    Footprint, Frames, MethodId, MethodSpec, ObjectAlgorithm, Outcome, ThreadPerm, Value,
};

/// The scratch-pad object: per-thread write-only slots.
#[derive(Debug, Clone)]
pub struct ScratchPad {
    threads: u8,
    domain: Vec<Value>,
}

impl ScratchPad {
    /// Scratch pad for `threads` client threads writing values of `domain`.
    pub fn new(domain: &[Value], threads: u8) -> Self {
        ScratchPad {
            threads,
            domain: domain.to_vec(),
        }
    }
}

/// Shared state: one slot per thread (0 initially; never read).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Shared {
    /// Per-thread scratch slots.
    pub slots: Vec<Value>,
}

bb_sim::impl_pack!(struct Shared { slots });

/// Per-invocation frames.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Frame {
    /// About to write the argument into the caller's slot.
    Write {
        /// Value to write.
        v: Value,
    },
    /// Method complete.
    Done,
}

bb_sim::impl_pack!(enum Frame { 0 => Write { v }, 1 => Done });

impl ObjectAlgorithm for ScratchPad {
    type Shared = Shared;
    type Frame = Frame;

    fn name(&self) -> &'static str {
        "scratch pad"
    }

    fn methods(&self) -> Vec<MethodSpec> {
        vec![MethodSpec::with_args("put", &self.domain)]
    }

    fn initial_shared(&self) -> Shared {
        Shared {
            slots: vec![0; self.threads as usize],
        }
    }

    fn begin(&self, _method: MethodId, arg: Option<Value>, _t: ThreadId) -> Frame {
        Frame::Write {
            v: arg.expect("put takes a value"),
        }
    }

    fn step(
        &self,
        shared: &Shared,
        frame: &Frame,
        t: ThreadId,
        out: &mut Vec<Outcome<Shared, Frame>>,
    ) {
        match frame {
            Frame::Write { v } => {
                let mut s = shared.clone();
                s.slots[(t.0 - 1) as usize] = *v;
                out.push(Outcome::Tau {
                    shared: s,
                    frame: Frame::Done,
                    tag: "W1",
                });
            }
            Frame::Done => out.push(Outcome::Ret {
                shared: shared.clone(),
                val: None,
                tag: "",
            }),
        }
    }

    fn footprint(&self, _shared: &Shared, frame: &Frame, _t: ThreadId) -> Footprint {
        match frame {
            // The slot is written by its owner alone and never read.
            Frame::Write { .. } => Footprint::Private,
            Frame::Done => Footprint::Global,
        }
    }

    fn rename_threads(
        &self,
        shared: &mut Shared,
        _frames: &mut Frames<'_, Frame>,
        perm: &ThreadPerm,
    ) {
        perm.apply_vec(&mut shared.slots);
    }
}
