//! Branching-bisimulation minimization throughput — the engine behind
//! every table of the paper. Measures partition refinement (all four
//! equivalences) and quotient construction on MS-queue state spaces of
//! growing size.

use bb_algorithms::ms_queue::MsQueue;
use bb_bench::{bench_loop, lts_of};
use bb_lts::Jobs;
use bb_bisim::{partition, quotient, Equivalence};

fn main() {
    println!("== partition ==");
    for (th, op) in [(2u8, 1u32), (2, 2), (3, 1)] {
        let lts = lts_of(&MsQueue::new(&[1]), th, op, Jobs::serial());
        for (name, eq) in [
            ("strong", Equivalence::Strong),
            ("branching", Equivalence::Branching),
            ("branching-div", Equivalence::BranchingDiv),
        ] {
            bench_loop(
                &format!("partition/{name}/ms-{th}-{op} ({} states)", lts.num_states()),
                20,
                || partition(&lts, eq),
            );
        }
    }

    println!("== quotient ==");
    for (th, op) in [(2u8, 2u32), (3, 1)] {
        let lts = lts_of(&MsQueue::new(&[1]), th, op, Jobs::serial());
        let p = partition(&lts, Equivalence::Branching);
        bench_loop(&format!("quotient/ms-{th}-{op}"), 20, || quotient(&lts, &p));
    }
}
