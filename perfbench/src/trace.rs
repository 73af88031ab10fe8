//! The traced run: the `bbv verify` pipeline recomposed from each layer's
//! public functions, every call timed from here.
//!
//! Per case, the traced pass makes the calls of `bbv verify` in the order
//! the core pipeline makes them — explore the implementation, explore the
//! specification, Thm 5.3 linearizability, Thm 5.9 lock-freedom — and
//! records wall time and peak resident bytes of each. `core.verify_us` is
//! the whole case; `core.unattributed_us` is what the four calls leave of
//! it (the span bookkeeping and glue).
//!
//! After the pass, probes outside `core.verify_us` price the rest: the
//! `Lts` copy the governed ladder makes, the predecessor tables `--fuse`
//! builds, exploration at two jobs, and the calls inside linearizability
//! and lock-freedom replayed one by one (partition, quotient, trace
//! inclusion, the `≈div` union refinement, the τ-cycle search). The probes
//! also check that three routes to the lock-freedom verdict agree.

use crate::mem;
use crate::workload::Case;
use bb_algorithms::{
    ccas::Ccas, coarse::CoarseLocked, dglm_queue::DglmQueue, fine_list::FineList, hm_list::HmList,
    hsy_stack::HsyStack, hw_queue::HwQueue, lazy_list::LazyList, ms_queue::MsQueue, newcas::NewCas,
    optimistic_list::OptimisticList, rdcss::Rdcss, specs::*, treiber::Treiber,
    treiber_hp::TreiberHp, treiber_hp_fu::TreiberHpFu, two_lock_queue::TwoLockQueue,
};
use bb_bisim::{
    bisimilar_opts, has_tau_cycle, partition_with_stats, quotient, Equivalence, PartitionOptions,
};
use bb_core::{verify_linearizability_opts, verify_lock_freedom_opts};
use bb_lts::{ExploreOptions, Jobs, Watchdog};
use bb_refine::{trace_refines_governed, RefineOptions};
use bb_sim::{explore_system_report, AtomicSpec, Bound, ObjectAlgorithm, SequentialSpec};
use std::collections::BTreeMap;
use std::time::Instant;

/// Everything the traced run measured on one case. Times are nanoseconds.
#[derive(Debug, Clone, Default)]
pub struct CaseTrace {
    pub label: String,
    // The traced pass.
    pub explore_ns: u64,
    pub explore_spec_ns: u64,
    pub lin_ns: u64,
    /// Zero when the case does not check lock-freedom.
    pub lockfree_ns: u64,
    pub verify_ns: u64,
    pub states: u64,
    pub transitions: u64,
    pub store_peak_bytes: u64,
    pub explore_peak_bytes: u64,
    // Probes.
    pub clone_ns: u64,
    pub pred_table_ns: u64,
    pub explore_jobs2_ns: u64,
    pub partition_ns: u64,
    pub partition_spec_ns: u64,
    pub partition_peak_bytes: u64,
    pub rounds: u64,
    pub sig_recomputes: u64,
    pub dirty_states: u64,
    pub peak_sig_bytes: u64,
    pub blocks: u64,
    pub quotient_ns: u64,
    pub inclusion_ns: u64,
    pub product_states: u64,
    /// `None` when the case does not check lock-freedom.
    pub div_union_ns: Option<u64>,
    pub tau_cycle_ns: Option<u64>,
    /// Whether the lock-freedom report, the `≈div` union and the τ-cycle
    /// search agree; `None` when the case does not check lock-freedom.
    pub lf_routes_agree: Option<bool>,
    /// Disagreements with the expected verdicts or between routes.
    pub problems: Vec<String>,
}

impl CaseTrace {
    /// The traced pass's time not covered by its four timed calls.
    pub fn unattributed_ns(&self) -> i64 {
        self.verify_ns as i64
            - (self.explore_ns + self.explore_spec_ns + self.lin_ns + self.lockfree_ns) as i64
    }
}

/// Runs `f`, returning its result, wall nanoseconds and the peak resident
/// bytes reached during it.
fn span<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    mem::reset_peak();
    let start = Instant::now();
    let r = f();
    let ns = start.elapsed().as_nanos() as u64;
    (r, ns, mem::peak_bytes())
}

/// Runs `f`, returning its result and wall nanoseconds.
fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed().as_nanos() as u64)
}

/// Traces one case, building its algorithm and specification the way the
/// runner does for `bbv verify`.
///
/// # Errors
///
/// Returns the exhaustion when an exploration trips the default budget.
pub fn trace_case(case: &Case) -> Result<CaseTrace, String> {
    let d = case.domain;
    let n = d.len() as i64;
    let th = case.threads;
    match case.alg {
        "treiber" => traced(case, &Treiber::new(d), &AtomicSpec::new(SeqStack::new(d))),
        "treiber-hp" => traced(
            case,
            &TreiberHp::new(d, th),
            &AtomicSpec::new(SeqStack::new(d)),
        ),
        "treiber-hp-fu" => traced(
            case,
            &TreiberHpFu::new(d, th),
            &AtomicSpec::new(SeqStack::new(d)),
        ),
        "ms-queue" => traced(case, &MsQueue::new(d), &AtomicSpec::new(SeqQueue::new(d))),
        "dglm-queue" => traced(case, &DglmQueue::new(d), &AtomicSpec::new(SeqQueue::new(d))),
        "hw-queue" => traced(
            case,
            &HwQueue::for_bound(d, th, case.ops),
            &AtomicSpec::new(SeqQueue::new(d)),
        ),
        "ccas" => traced(case, &Ccas::new(n), &AtomicSpec::new(SeqCcas::new(n))),
        "rdcss" => traced(case, &Rdcss::new(n), &AtomicSpec::new(SeqRdcss::new(n))),
        "newcas" => traced(case, &NewCas::new(n), &AtomicSpec::new(SeqRegister::new(n))),
        "hm-list" => traced(case, &HmList::revised(d), &AtomicSpec::new(SeqSet::new(d))),
        "hm-list-buggy" => traced(case, &HmList::buggy(d), &AtomicSpec::new(SeqSet::new(d))),
        "hsy-stack" => traced(case, &HsyStack::new(d), &AtomicSpec::new(SeqStack::new(d))),
        "lazy-list" => traced(case, &LazyList::new(d), &AtomicSpec::new(SeqSet::new(d))),
        "optimistic-list" => traced(
            case,
            &OptimisticList::new(d),
            &AtomicSpec::new(SeqSet::new(d)),
        ),
        "fine-list" => traced(case, &FineList::new(d), &AtomicSpec::new(SeqSet::new(d))),
        "two-lock-queue" => traced(
            case,
            &TwoLockQueue::new(d),
            &AtomicSpec::new(SeqQueue::new(d)),
        ),
        "coarse-stack" => traced(
            case,
            &CoarseLocked::new(SeqStack::new(d)),
            &AtomicSpec::new(SeqStack::new(d)),
        ),
        "coarse-queue" => traced(
            case,
            &CoarseLocked::new(SeqQueue::new(d)),
            &AtomicSpec::new(SeqQueue::new(d)),
        ),
        "coarse-set" => traced(
            case,
            &CoarseLocked::new(SeqSet::new(d)),
            &AtomicSpec::new(SeqSet::new(d)),
        ),
        other => Err(format!("no traced pipeline for `{other}`")),
    }
}

fn traced<A: ObjectAlgorithm, S: SequentialSpec>(
    case: &Case,
    alg: &A,
    seq: &AtomicSpec<S>,
) -> Result<CaseTrace, String> {
    let bound = Bound::new(case.threads, case.ops);
    // As the runner: explorations metered against the job's budget, the
    // checks on an unlimited watchdog, one job, the default engine.
    let budget = Watchdog::new(case.job().budget());
    let unlimited = Watchdog::unlimited();
    let eo = ExploreOptions::governed(&budget).with_jobs(Jobs::new(1));
    let popts = PartitionOptions::default().with_jobs(Jobs::new(1));
    let mut t = CaseTrace {
        label: case.label(),
        ..CaseTrace::default()
    };

    // --- the traced pass ---------------------------------------------------
    let start = Instant::now();
    let (imp, ns, peak) = span(|| explore_system_report(alg, bound, &eo));
    let (imp, report) = imp.map_err(|e| e.to_string())?;
    (t.explore_ns, t.explore_peak_bytes) = (ns, peak);
    let (sp, ns, _) = span(|| explore_system_report(seq, bound, &eo));
    let (sp, _) = sp.map_err(|e| e.to_string())?;
    t.explore_spec_ns = ns;
    let (lin, ns, _) = span(|| verify_linearizability_opts(&imp, &sp, &unlimited, popts));
    let lin = lin.map_err(|e| e.to_string())?;
    t.lin_ns = ns;
    let lf = if case.checks_lock_freedom() {
        let (lf, ns, _) = span(|| verify_lock_freedom_opts(&imp, &unlimited, popts));
        t.lockfree_ns = ns;
        Some(lf.map_err(|e| e.to_string())?)
    } else {
        None
    };
    t.verify_ns = start.elapsed().as_nanos() as u64;

    t.states = imp.num_states() as u64;
    t.transitions = imp.num_transitions() as u64;
    t.store_peak_bytes = report.store_bytes_peak as u64;
    if lin.linearizable != case.expect.lin {
        t.problems.push(format!(
            "lin {} expected {}",
            lin.linearizable, case.expect.lin
        ));
    }
    if !lin.linearizable && lin.violation.is_none() {
        t.problems.push("lin refuted without a history".into());
    }
    let lock_free = lf.as_ref().map(|r| r.lock_free);
    if lock_free != case.expect.lock_free {
        t.problems.push(format!(
            "lock-free {lock_free:?} expected {:?}",
            case.expect.lock_free
        ));
    }
    if lf
        .as_ref()
        .is_some_and(|r| !r.lock_free && r.divergence.is_none())
    {
        t.problems
            .push("lock-freedom refuted without a τ-lasso".into());
    }

    // --- probes -------------------------------------------------------------
    let (copies, ns) = timed(|| (imp.clone(), sp.clone()));
    t.clone_ns = ns;
    drop(copies);
    let (tables, ns) = timed(|| (imp.predecessor_table(), sp.predecessor_table()));
    t.pred_table_ns = ns;
    drop(tables);
    let eo2 = eo.with_jobs(Jobs::new(2));
    let (imp2, ns) = timed(|| explore_system_report(alg, bound, &eo2));
    t.explore_jobs2_ns = ns;
    let imp2_states = imp2.map_err(|e| e.to_string())?.0.num_states();
    if imp2_states != imp.num_states() {
        t.problems.push(format!(
            "explore at 2 jobs: {imp2_states} states, 1 job: {}",
            imp.num_states()
        ));
    }

    let eq = Equivalence::Branching;
    let ((p_imp, stats), ns, peak) = span(|| partition_with_stats(&imp, eq, popts));
    (t.partition_ns, t.partition_peak_bytes) = (ns, peak);
    t.rounds = stats.rounds as u64;
    t.sig_recomputes = stats.sig_recomputes;
    t.dirty_states = stats.dirty_states;
    t.peak_sig_bytes = stats.peak_sig_bytes as u64;
    t.blocks = p_imp.num_blocks() as u64;
    let (q_imp, ns) = timed(|| quotient(&imp, &p_imp));
    t.quotient_ns = ns;
    let ((p_sp, _), ns) = timed(|| partition_with_stats(&sp, eq, popts));
    t.partition_spec_ns = ns;
    let (q_sp, ns) = timed(|| quotient(&sp, &p_sp));
    t.quotient_ns += ns;
    let (inclusion, ns) = timed(|| {
        trace_refines_governed(&q_imp.lts, &q_sp.lts, RefineOptions::default(), &unlimited)
    });
    let inclusion = inclusion.map_err(|e| e.to_string())?;
    t.inclusion_ns = ns;
    t.product_states = inclusion.product_states as u64;
    if inclusion.holds != lin.linearizable {
        t.problems
            .push("trace inclusion disagrees with the lin report".into());
    }

    if let Some(lf) = &lf {
        let (div, ns) = timed(|| {
            bisimilar_opts(
                &imp,
                &q_imp.lts,
                Equivalence::BranchingDiv,
                &unlimited,
                popts,
            )
        });
        let div = div.map_err(|e| e.to_string())?;
        t.div_union_ns = Some(ns);
        let (cycle, ns) = timed(|| has_tau_cycle(&imp));
        t.tau_cycle_ns = Some(ns);
        let agree = lf.lock_free == div && lf.lock_free != cycle;
        t.lf_routes_agree = Some(agree);
        if !agree {
            t.problems.push(format!(
                "lock-freedom routes disagree: report {}, ≈div union {div}, τ-cycle {cycle}",
                lf.lock_free
            ));
        }
    }
    Ok(t)
}

/// The per-layer metrics of a traced workload: sums over its cases, maxima
/// for peaks, ratios of the sums. `untraced_verify_s` is the median
/// untraced pass, the base of `trace.overhead_frac`.
pub fn ledger(traces: &[CaseTrace], untraced_verify_s: f64) -> BTreeMap<&'static str, f64> {
    let sum = |f: fn(&CaseTrace) -> u64| traces.iter().map(f).sum::<u64>() as f64;
    let max = |f: fn(&CaseTrace) -> u64| traces.iter().map(f).max().unwrap_or(0) as f64;
    let us = |f: fn(&CaseTrace) -> u64| sum(f) / 1e3;
    let states = sum(|t| t.states);
    let attempted_sigs: f64 = traces.iter().map(|t| (t.rounds * t.states) as f64).sum();
    let verify_us = us(|t| t.verify_ns);
    let unattributed_us = traces
        .iter()
        .map(|t| t.unattributed_ns() as f64)
        .sum::<f64>()
        / 1e3;

    let mut m = BTreeMap::new();
    m.insert("sim.explore_us", us(|t| t.explore_ns));
    m.insert("sim.explore_spec_us", us(|t| t.explore_spec_ns));
    m.insert("sim.explore_jobs2_us", us(|t| t.explore_jobs2_ns));
    m.insert("sim.states", states);
    m.insert("sim.transitions", sum(|t| t.transitions));
    m.insert("sim.ns_per_state", sum(|t| t.explore_ns) / states.max(1.0));
    m.insert("sim.store_peak_bytes", max(|t| t.store_peak_bytes));
    m.insert(
        "sim.explore_rss_mb",
        mem::mb(max(|t| t.explore_peak_bytes) as u64),
    );
    m.insert("lts.pred_table_us", us(|t| t.pred_table_ns));
    m.insert("lts.clone_us", us(|t| t.clone_ns));
    m.insert("bisim.partition_us", us(|t| t.partition_ns));
    m.insert("bisim.partition_spec_us", us(|t| t.partition_spec_ns));
    m.insert("bisim.rounds", sum(|t| t.rounds));
    m.insert("bisim.sig_recomputes", sum(|t| t.sig_recomputes));
    m.insert(
        "bisim.dirty_frac",
        sum(|t| t.dirty_states) / attempted_sigs.max(1.0),
    );
    m.insert("bisim.peak_sig_bytes", max(|t| t.peak_sig_bytes));
    m.insert("bisim.blocks", sum(|t| t.blocks));
    m.insert("bisim.quotient_us", us(|t| t.quotient_ns));
    m.insert("bisim.div_union_us", us(|t| t.div_union_ns.unwrap_or(0)));
    m.insert("bisim.tau_cycle_us", us(|t| t.tau_cycle_ns.unwrap_or(0)));
    m.insert(
        "bisim.partition_rss_mb",
        mem::mb(max(|t| t.partition_peak_bytes) as u64),
    );
    m.insert("refine.inclusion_us", us(|t| t.inclusion_ns));
    m.insert("refine.product_states", sum(|t| t.product_states));
    m.insert("core.lin_us", us(|t| t.lin_ns));
    m.insert("core.lockfree_us", us(|t| t.lockfree_ns));
    m.insert("core.verify_us", verify_us);
    m.insert("core.unattributed_us", unattributed_us);
    m.insert(
        "trace.overhead_frac",
        verify_us / 1e6 / untraced_verify_s - 1.0,
    );
    m
}

/// Per-layer metrics that measure calls a workload never makes: the
/// lock-freedom layers on a workload without a lock-freedom case. They are
/// reported as 0 and printed as `n/a`.
pub fn not_applicable(traces: &[CaseTrace]) -> &'static [&'static str] {
    if traces.iter().any(|t| t.div_union_ns.is_some()) {
        &[]
    } else {
        &[
            "bisim.div_union_us",
            "bisim.tau_cycle_us",
            "core.lockfree_us",
        ]
    }
}

/// One row per case: the traced pass's spans and the probes, in ms.
pub fn rows(traces: &[CaseTrace]) -> Vec<String> {
    let ms = |ns: u64| format!("{:.3}", ns as f64 / 1e6);
    let opt = |ns: Option<u64>| ns.map_or("n/a".to_string(), ms);
    let mut out = vec![format!(
        "{:<22} {:>9} {:>10} {:>10} {:>10} {:>10} {:>10} {:>11} {:>9} {:>10} {:>10} {:>9} {:>9} {:>9} {:>8} {:>8}",
        "case", "states", "explore", "spec", "lin", "lockfree", "verify", "unattrib", "partition",
        "part_spec", "inclusion", "div_union", "tau_cycle", "quotient", "clone", "pred"
    )];
    for t in traces {
        let lockfree = if t.div_union_ns.is_some() {
            ms(t.lockfree_ns)
        } else {
            "n/a".into()
        };
        out.push(format!(
            "{:<22} {:>9} {:>10} {:>10} {:>10} {:>10} {:>10} {:>11} {:>9} {:>10} {:>10} {:>9} {:>9} {:>9} {:>8} {:>8}",
            t.label,
            t.states,
            ms(t.explore_ns),
            ms(t.explore_spec_ns),
            ms(t.lin_ns),
            lockfree,
            ms(t.verify_ns),
            format!("{:.3}", t.unattributed_ns() as f64 / 1e6),
            ms(t.partition_ns),
            ms(t.partition_spec_ns),
            ms(t.inclusion_ns),
            opt(t.div_union_ns),
            opt(t.tau_cycle_ns),
            ms(t.quotient_ns),
            ms(t.clone_ns),
            ms(t.pred_table_ns),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Expect, ROSTER};
    use crate::PER_LAYER;

    fn small(alg: &'static str) -> Case {
        let mut c = *ROSTER.iter().find(|c| c.alg == alg).unwrap();
        c.threads = 2;
        c.ops = 1;
        c
    }

    #[test]
    fn layer_times_and_unattributed_add_up_to_verify() {
        let traces: Vec<_> = ["treiber", "hw-queue", "coarse-set"]
            .map(|a| trace_case(&small(a)).unwrap())
            .to_vec();
        for t in &traces {
            assert!(t.problems.is_empty(), "{}: {:?}", t.label, t.problems);
            assert!(t.unattributed_ns() >= 0, "{}: spans overlap", t.label);
        }
        let m = ledger(&traces, 1.0);
        let parts = m["sim.explore_us"]
            + m["sim.explore_spec_us"]
            + m["core.lin_us"]
            + m["core.lockfree_us"]
            + m["core.unattributed_us"];
        assert!(
            (parts - m["core.verify_us"]).abs() < 1e-6,
            "{parts} vs {}",
            m["core.verify_us"]
        );
        assert!(m["core.unattributed_us"] < m["core.verify_us"]);
    }

    #[test]
    fn ledger_reports_every_per_layer_metric() {
        let t = trace_case(&small("coarse-set")).unwrap();
        let m = ledger(std::slice::from_ref(&t), 1.0);
        let names: Vec<_> = PER_LAYER.iter().map(|d| d.name).collect();
        assert_eq!(m.keys().copied().collect::<Vec<_>>(), {
            let mut n = names.clone();
            n.sort_unstable();
            n
        });
        assert_eq!(
            not_applicable(std::slice::from_ref(&t)),
            [
                "bisim.div_union_us",
                "bisim.tau_cycle_us",
                "core.lockfree_us"
            ]
        );
        for name in not_applicable(&[t]) {
            assert_eq!(m[name], 0.0, "{name}");
        }
    }

    #[test]
    fn lock_freedom_routes_agree_and_refutations_are_caught() {
        let hw = trace_case(&small("hw-queue")).unwrap();
        assert!(hw.problems.is_empty(), "{:?}", hw.problems);
        assert_eq!(hw.lf_routes_agree, Some(true));
        let mut doctored = small("treiber");
        doctored.expect = Expect {
            lin: true,
            lock_free: Some(false),
        };
        let t = trace_case(&doctored).unwrap();
        assert_eq!(t.problems.len(), 1, "{:?}", t.problems);
    }
}
