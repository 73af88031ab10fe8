//! Lock-freedom checking (Theorem 5.9) across benchmark instances,
//! including the failing cases whose divergence witness must be produced.

use bb_algorithms::{hw_queue::HwQueue, ms_queue::MsQueue, treiber_hp_fu::TreiberHpFu};
use bb_bench::{bench_loop, lts_of};
use bb_lts::Jobs;
use bb_core::verify_lock_freedom;

fn main() {
    println!("== lock-freedom (Thm 5.9) ==");
    let cases: Vec<(&str, bb_lts::Lts)> = vec![
        ("ms-2-2 (lock-free)", lts_of(&MsQueue::new(&[1]), 2, 2, Jobs::serial())),
        ("ms-3-1 (lock-free)", lts_of(&MsQueue::new(&[1]), 3, 1, Jobs::serial())),
        ("hw-3-1 (violation)", lts_of(&HwQueue::for_bound(&[1], 3, 1), 3, 1, Jobs::serial())),
        ("fu-2-2 (violation)", lts_of(&TreiberHpFu::new(&[1], 2), 2, 2, Jobs::serial())),
    ];

    for (name, lts) in &cases {
        bench_loop(name, 10, || verify_lock_freedom(lts));
    }
}
