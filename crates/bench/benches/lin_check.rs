//! The paper's headline efficiency claim: checking linearizability on
//! branching-bisimulation quotients (Theorem 5.3) versus direct trace
//! refinement on the original systems.

use bb_algorithms::{ms_queue::MsQueue, specs::SeqQueue, specs::SeqStack, treiber::Treiber};
use bb_bench::{bench_loop, lts_of};
use bb_lts::Jobs;
use bb_core::verify_linearizability;
use bb_refine::{trace_refines, trace_refines_with, RefineOptions};
use bb_sim::AtomicSpec;

fn main() {
    println!("== linearizability ==");
    let cases: Vec<(&str, bb_lts::Lts, bb_lts::Lts)> = vec![
        (
            "ms-2-2",
            lts_of(&MsQueue::new(&[1]), 2, 2, Jobs::serial()),
            lts_of(&AtomicSpec::new(SeqQueue::new(&[1])), 2, 2, Jobs::serial()),
        ),
        (
            "treiber-2-2",
            lts_of(&Treiber::new(&[1]), 2, 2, Jobs::serial()),
            lts_of(&AtomicSpec::new(SeqStack::new(&[1])), 2, 2, Jobs::serial()),
        ),
    ];

    for (name, imp, spec) in &cases {
        bench_loop(&format!("quotient-then-refine (Thm 5.3)/{name}"), 10, || {
            verify_linearizability(imp, spec)
        });
        bench_loop(&format!("direct trace refinement/{name}"), 10, || {
            trace_refines(imp, spec)
        });
        bench_loop(&format!("direct, no antichain (ablation)/{name}"), 10, || {
            trace_refines_with(imp, spec, RefineOptions { antichain: false })
        });
    }
}
