//! Workloads, their hand-written expected verdicts, and the untraced pass.
//!
//! Expected verdicts come from the paper (Table II) and from the known
//! answers of the lock-based extensions — never from the program's own
//! output. A case whose output disagrees, is inconclusive, panics or exits
//! with an unexpected code counts as failed.

use bb_lts::Jobs;
use bb_serve::runner::{execute, RunCtl, EXIT_PROVED, EXIT_REFUTED};
use bb_serve::{Command, JobSpec};

/// Workload names, as `--workload` takes them and `BENCHMARK.json` lists them.
pub const WORKLOADS: &[&str] = &["treiber-3x2", "coarse-set-3x2", "roster-small"];

/// The known answer for one case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expect {
    /// Linearizable (Thm 5.3).
    pub lin: bool,
    /// Lock-free (Thm 5.9); `None` when lock-freedom is not checked.
    pub lock_free: Option<bool>,
}

/// One `bbv verify <alg> --threads T --ops K --domain D --jobs 1` call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Case {
    pub alg: &'static str,
    pub threads: u8,
    pub ops: u32,
    pub domain: &'static [i64],
    pub expect: Expect,
}

impl Case {
    /// Whether the case checks lock-freedom.
    pub fn checks_lock_freedom(&self) -> bool {
        self.expect.lock_free.is_some()
    }

    /// The job `bbv verify` builds from this case's command line.
    pub fn job(&self) -> JobSpec {
        JobSpec {
            command: Command::Verify,
            algorithm: self.alg.to_string(),
            threads: self.threads,
            ops: self.ops,
            domain: self.domain.to_vec(),
            check_lock_freedom: self.checks_lock_freedom(),
            jobs: Jobs::new(1),
            ..JobSpec::default()
        }
    }

    /// `alg T-K`, the row label of this case.
    pub fn label(&self) -> String {
        format!("{} {}-{}", self.alg, self.threads, self.ops)
    }
}

const fn case(
    alg: &'static str,
    threads: u8,
    ops: u32,
    domain: &'static [i64],
    lin: bool,
    lock_free: Option<bool>,
) -> Case {
    Case {
        alg,
        threads,
        ops,
        domain,
        expect: Expect { lin, lock_free },
    }
}

const D1: &[i64] = &[1];
const D12: &[i64] = &[1, 2];
const LF: Option<bool> = Some(true);
const NOT_LF: Option<bool> = Some(false);
const LOCK_BASED: Option<bool> = None;

/// `treiber` 3 × 2 over {1,2}: linearizable and lock-free.
pub const TREIBER_3X2: Case = case("treiber", 3, 2, D12, true, LF);

/// `coarse-set` 3 × 2 over {1,2}, linearizability only.
pub const COARSE_SET_3X2: Case = case("coarse-set", 3, 2, D12, true, LOCK_BASED);

/// The cases, bounds and domains of `tables verdicts`: every Table II
/// algorithm plus the lock-based extensions. Table II is all ✓ except lin ✗
/// for the buggy HM list and lock-free ✗ for Treiber+HP with the
/// free-unsafe reclamation and the HW queue; the lock-based objects are
/// linearizable. (`ccas`, `rdcss` and `newcas` take the domain's size.)
pub const ROSTER: &[Case] = &[
    case("treiber", 2, 2, D12, true, LF),
    case("treiber-hp", 2, 2, D1, true, LF),
    case("treiber-hp-fu", 2, 2, D1, true, NOT_LF),
    case("ms-queue", 2, 2, D12, true, LF),
    case("dglm-queue", 2, 2, D12, true, LF),
    case("hw-queue", 3, 1, D1, true, NOT_LF),
    case("ccas", 2, 2, D12, true, LF),
    case("rdcss", 2, 1, D12, true, LF),
    case("newcas", 2, 2, D12, true, LF),
    case("hm-list", 2, 2, D1, true, LF),
    case("hm-list-buggy", 2, 2, D1, false, LF),
    case("hsy-stack", 2, 2, D1, true, LF),
    case("lazy-list", 2, 2, D1, true, LOCK_BASED),
    case("optimistic-list", 2, 2, D1, true, LOCK_BASED),
    case("fine-list", 2, 2, D1, true, LOCK_BASED),
    case("two-lock-queue", 2, 2, D1, true, LOCK_BASED),
    case("coarse-stack", 2, 2, D1, true, LOCK_BASED),
    case("coarse-queue", 2, 2, D1, true, LOCK_BASED),
    case("coarse-set", 2, 2, D1, true, LOCK_BASED),
];

/// The cases of workload `name`, in the order the seed gives them: the
/// seed shuffles `roster-small`; the single-case workloads are fixed.
pub fn cases(name: &str, seed: u64) -> Option<Vec<Case>> {
    match name {
        "treiber-3x2" => Some(vec![TREIBER_3X2]),
        "coarse-set-3x2" => Some(vec![COARSE_SET_3X2]),
        "roster-small" => {
            let mut v = ROSTER.to_vec();
            shuffle(&mut v, seed);
            Some(v)
        }
        _ => None,
    }
}

/// Fisher–Yates over a SplitMix64 stream: the same seed, the same order.
fn shuffle<T>(v: &mut [T], seed: u64) {
    let mut state = seed;
    let mut next = || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    for i in (1..v.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        v.swap(i, j);
    }
}

/// Checks one `bbv verify` outcome against the case's known answer: the
/// exit code, the `lin=`/`lock-free=` marks of the summary line, and that
/// every refutation comes with its witness (a non-linearizable history, a
/// τ-lasso).
///
/// # Errors
///
/// Returns what disagreed.
pub fn check_outcome(expect: Expect, exit_code: i32, stdout: &str) -> Result<(), String> {
    let mark = |holds: bool| if holds { "✓" } else { "✗" };
    let want_exit = if expect.lin && expect.lock_free != Some(false) {
        EXIT_PROVED
    } else {
        EXIT_REFUTED
    };
    if exit_code != want_exit {
        return Err(format!("exit code {exit_code}, expected {want_exit}"));
    }
    let summary = stdout
        .lines()
        .find(|l| l.contains(" lin=") && l.contains(" lock-free="))
        .ok_or("no verdict line")?;
    let lin = format!(" lin={} ", mark(expect.lin));
    let lf = format!(" lock-free={} ", expect.lock_free.map_or("—", mark));
    if !summary.contains(&lin) || !summary.contains(&lf) {
        return Err(format!(
            "verdict `{}`, expected{lin}and{lf}",
            summary.trim()
        ));
    }
    if !expect.lin && !witness_follows(stdout, "non-linearizable history:") {
        return Err("lin refuted without a history".into());
    }
    if expect.lock_free == Some(false)
        && !(witness_follows(stdout, "lock-freedom violation") && stdout.contains("τ-loop ("))
    {
        return Err("lock-freedom refuted without a τ-lasso".into());
    }
    Ok(())
}

/// Whether a line starting with `header` is followed by a non-empty line.
fn witness_follows(stdout: &str, header: &str) -> bool {
    let mut lines = stdout.lines().skip_while(|l| !l.starts_with(header));
    lines.next().is_some() && lines.next().is_some_and(|l| !l.trim().is_empty())
}

/// Outcome of one untraced pass over a workload.
#[derive(Debug, Clone, Default)]
pub struct PassOutcome {
    /// Cases handed to the verifier.
    pub attempted: u64,
    /// Cases whose outcome disagreed with the expectation.
    pub failed: u64,
    /// One row per case: label, seconds, and the check's result.
    pub rows: Vec<(String, f64, Result<(), String>)>,
}

/// Runs every case once, in order, through the runner `bbv verify` uses,
/// and checks each outcome. Panics inside a case are caught by the runner
/// and surface as an inconclusive exit code, hence as a failure.
pub fn run_pass(cases: &[Case]) -> PassOutcome {
    let ctl = RunCtl::default();
    let mut out = PassOutcome::default();
    for case in cases {
        let job = case.job();
        let start = std::time::Instant::now();
        let result = execute(&job, None, &ctl);
        let secs = start.elapsed().as_secs_f64();
        let verdict = check_outcome(case.expect, result.exit_code, &result.stdout);
        out.attempted += 1;
        out.failed += u64::from(verdict.is_err());
        out.rows.push((case.label(), secs, verdict));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const TREIBER_2X1: Case = case("treiber", 2, 1, D1, true, LF);
    const HW_2X1: Case = case("hw-queue", 2, 1, D1, true, NOT_LF);

    #[test]
    fn seed_shuffles_roster_deterministically() {
        let a = cases("roster-small", 7).unwrap();
        assert_eq!(a, cases("roster-small", 7).unwrap());
        assert_ne!(a, cases("roster-small", 8).unwrap());
        let mut sorted: Vec<_> = a.iter().map(|c| c.alg).collect();
        sorted.sort_unstable();
        let mut want: Vec<_> = ROSTER.iter().map(|c| c.alg).collect();
        want.sort_unstable();
        assert_eq!(sorted, want);
        assert_eq!(
            cases("treiber-3x2", 1).unwrap(),
            cases("treiber-3x2", 2).unwrap()
        );
        assert!(cases("nope", 1).is_none());
        for w in WORKLOADS {
            assert!(cases(w, 0).is_some(), "{w}");
        }
    }

    #[test]
    fn expected_verdicts_match_table_two() {
        let refuted: Vec<_> = ROSTER
            .iter()
            .filter(|c| !c.expect.lin || c.expect.lock_free == Some(false))
            .map(|c| c.alg)
            .collect();
        assert_eq!(refuted, ["treiber-hp-fu", "hw-queue", "hm-list-buggy"]);
        assert_eq!(
            ROSTER.iter().filter(|c| c.checks_lock_freedom()).count(),
            12
        );
    }

    #[test]
    fn correct_outcomes_pass_the_check() {
        let pass = run_pass(&[TREIBER_2X1, HW_2X1]);
        assert_eq!((pass.attempted, pass.failed), (2, 0), "{:?}", pass.rows);
    }

    #[test]
    fn a_doctored_expectation_counts_as_failed() {
        let mut doctored = TREIBER_2X1;
        doctored.expect.lin = false;
        let mut hidden_divergence = HW_2X1;
        hidden_divergence.expect.lock_free = Some(true);
        let pass = run_pass(&[doctored, TREIBER_2X1, hidden_divergence]);
        assert_eq!((pass.attempted, pass.failed), (3, 2), "{:?}", pass.rows);
        assert!(pass.rows[0].2.is_err() && pass.rows[1].2.is_ok() && pass.rows[2].2.is_err());
    }

    #[test]
    fn refutations_need_their_witness() {
        let expect = Expect {
            lin: false,
            lock_free: None,
        };
        let line = "X  2-2  lin=✗  lock-free=—  |Δ|=1  |Δ/≈|=1\n";
        assert!(check_outcome(expect, EXIT_REFUTED, line).is_err());
        let with = format!("{line}non-linearizable history:\n  t1.call.add(1)\n");
        assert_eq!(check_outcome(expect, EXIT_REFUTED, &with), Ok(()));
        assert!(check_outcome(expect, EXIT_PROVED, &with).is_err());
        let lf = Expect {
            lin: true,
            lock_free: Some(false),
        };
        let line = "X  2-2  lin=✓  lock-free=✗  |Δ|=1  |Δ/≈|=1\n";
        let lasso = format!(
            "{line}lock-freedom violation (τ-loop):\n  <initial state>\n  -- τ-loop (divergence) --\n  \"t1.tau\"\n"
        );
        assert_eq!(check_outcome(lf, EXIT_REFUTED, &lasso), Ok(()));
        assert!(check_outcome(lf, EXIT_REFUTED, line).is_err());
        assert!(check_outcome(lf, 2, &lasso).is_err());
    }
}
