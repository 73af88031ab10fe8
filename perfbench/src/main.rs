//! `perfbench --workload W --seed N --seconds S --trace 0|1 [--setup-only]`
//!
//! Runs workload `W` as a closed loop with one client — one case at a
//! time, one job, this one process — in back-to-back passes for `S`
//! seconds, checking every verdict. With `--trace 0` the last stdout line
//! carries the end-to-end metrics; with `--trace 1` an untraced baseline is
//! followed by one traced pass and the last line carries the per-layer
//! metrics. The first stdout line is printed the moment the first case is
//! about to be handed to the verifier: `perfbench/run.py`, which builds and
//! drives this binary, times `setup_s` from spawning the process to reading
//! that line. `--setup-only` exits right after it.

use perfbench::trace::{ledger, not_applicable, rows, trace_case};
use perfbench::workload::{cases, run_pass, Case, WORKLOADS};
use perfbench::{median, mem, quartiles, result_json, unit_of};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut setup_only = false;
    while let Some(flag) = it.next() {
        if flag == "--setup-only" {
            setup_only = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: `{value}` is not {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("a seed"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or_else(|| bad("a duration"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        setup_only,
    })
}

/// Untraced passes back to back until the next one would end past
/// `seconds` (always at least one). Returns each pass's seconds and peak
/// resident bytes, plus cases attempted and failed.
fn untraced_passes(cases: &[Case], seconds: f64) -> (Vec<f64>, Vec<u64>, u64, u64) {
    let (mut secs, mut peaks, mut attempted, mut failed) = (Vec::new(), Vec::new(), 0, 0);
    let start = Instant::now();
    loop {
        mem::reset_peak();
        let t = Instant::now();
        let pass = run_pass(cases);
        let s = t.elapsed().as_secs_f64();
        let peak = mem::peak_bytes();
        for (label, case_s, verdict) in &pass.rows {
            if secs.is_empty() || verdict.is_err() {
                let status = verdict.as_ref().err().map_or("ok", String::as_str);
                println!("  {label:<22} {case_s:>9.4} s  {status}");
            }
        }
        println!(
            "pass {}: {s:.4} s, peak {:.1} MB, {} case(s), {} failed",
            secs.len() + 1,
            mem::mb(peak),
            pass.attempted,
            pass.failed
        );
        secs.push(s);
        peaks.push(peak);
        attempted += pass.attempted;
        failed += pass.failed;
        if start.elapsed().as_secs_f64() + s > seconds {
            return (secs, peaks, attempted, failed);
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload {{{}}} --seed N --seconds S --trace 0|1 [--setup-only]",
                WORKLOADS.join(",")
            );
            return ExitCode::from(2);
        }
    };
    let Some(cases) = cases(&args.workload, args.seed) else {
        eprintln!(
            "perfbench: unknown workload `{}` (one of {})",
            args.workload,
            WORKLOADS.join(", ")
        );
        return ExitCode::from(2);
    };
    // Set up: the caller's `setup_s` clock stops when this line arrives.
    println!(
        "workload {} seed {}: {} case(s), closed loop, 1 client, --jobs 1",
        args.workload,
        args.seed,
        cases.len()
    );
    if args.setup_only {
        return ExitCode::SUCCESS;
    }

    let (secs, peaks, mut attempted, mut failed) = untraced_passes(&cases, args.seconds);
    let (q1, verify_s, q3) = quartiles(&secs);
    println!(
        "verify_s median {verify_s:.4} s, quartiles {q1:.4} / {q3:.4} s over {} pass(es)",
        secs.len()
    );
    let mut metrics = BTreeMap::new();
    if args.trace {
        println!("traced pass (ms):");
        let mut traces = Vec::new();
        for case in &cases {
            attempted += 1;
            match trace_case(case) {
                Ok(t) => {
                    for p in &t.problems {
                        println!("  {}: {p}", t.label);
                    }
                    failed += u64::from(!t.problems.is_empty());
                    traces.push(t);
                }
                Err(e) => {
                    println!("  {}: {e}", case.label());
                    failed += 1;
                }
            }
        }
        for row in rows(&traces) {
            println!("  {row}");
        }
        let agreeing = traces
            .iter()
            .filter(|t| t.lf_routes_agree == Some(true))
            .count();
        let lf_cases = cases.iter().filter(|c| c.checks_lock_freedom()).count();
        println!("lock-freedom: report, ≈div union and τ-cycle agree on {agreeing} of {lf_cases} case(s)");
        metrics = ledger(&traces, verify_s);
        let na = not_applicable(&traces);
        for (name, value) in &metrics {
            if na.contains(name) {
                println!("  {name:<26} n/a");
            } else {
                println!("  {name:<26} {value:.6} {}", unit_of(name));
            }
        }
    } else {
        let peak_rss_mb = median(&peaks.iter().map(|&b| mem::mb(b)).collect::<Vec<_>>());
        println!(
            "peak_rss_mb {peak_rss_mb:.3} MB (median of {} pass(es))",
            peaks.len()
        );
        metrics.insert("verify_s", verify_s);
        metrics.insert("peak_rss_mb", peak_rss_mb);
    }
    println!(
        "failed_frac {:.6} frac ({failed} of {attempted} case(s))",
        failed as f64 / attempted as f64
    );
    println!("{}", result_json(attempted, failed, &metrics));
    ExitCode::SUCCESS
}
