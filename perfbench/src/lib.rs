//! Time-to-verdict benchmark for `bbv verify`.
//!
//! A workload is a list of verification cases. The end-to-end run feeds
//! them one at a time, at one job, through [`bb_serve::runner::execute`] —
//! the same path `bbv verify` takes — and checks every verdict against the
//! hand-written expectations in [`workload`]. The traced run ([`trace`])
//! recomposes the same pipeline from each layer's public functions and
//! times every call from here, outside the program.

pub mod mem;
pub mod trace;
pub mod workload;

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Whether an end-to-end or per-layer metric improves downwards or upwards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// A metric the benchmark reports: name, unit and direction.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

/// Metrics of an untraced run (`--trace 0`).
pub const END_TO_END: &[MetricDef] = &[
    m("verify_s", "s", Better::Lower),
    m("peak_rss_mb", "MB", Better::Lower),
    m("setup_s", "s", Better::Lower),
];

/// Metrics of a traced run (`--trace 1`). Sums over the workload's cases,
/// maxima for peaks; ratios are taken of the sums.
pub const PER_LAYER: &[MetricDef] = &[
    m("sim.explore_us", "us", Better::Lower),
    m("sim.explore_spec_us", "us", Better::Lower),
    m("sim.explore_jobs2_us", "us", Better::Lower),
    m("sim.states", "count", Better::Lower),
    m("sim.transitions", "count", Better::Lower),
    m("sim.ns_per_state", "ns", Better::Lower),
    m("sim.store_peak_bytes", "bytes", Better::Lower),
    m("sim.explore_rss_mb", "MB", Better::Lower),
    m("lts.pred_table_us", "us", Better::Lower),
    m("lts.clone_us", "us", Better::Lower),
    m("bisim.partition_us", "us", Better::Lower),
    m("bisim.partition_spec_us", "us", Better::Lower),
    m("bisim.rounds", "count", Better::Lower),
    m("bisim.sig_recomputes", "count", Better::Lower),
    m("bisim.dirty_frac", "frac", Better::Higher),
    m("bisim.peak_sig_bytes", "bytes", Better::Lower),
    m("bisim.blocks", "count", Better::Lower),
    m("bisim.quotient_us", "us", Better::Lower),
    m("bisim.div_union_us", "us", Better::Lower),
    m("bisim.tau_cycle_us", "us", Better::Lower),
    m("bisim.partition_rss_mb", "MB", Better::Lower),
    m("refine.inclusion_us", "us", Better::Lower),
    m("refine.product_states", "count", Better::Lower),
    m("core.lin_us", "us", Better::Lower),
    m("core.lockfree_us", "us", Better::Lower),
    m("core.verify_us", "us", Better::Lower),
    m("core.unattributed_us", "us", Better::Lower),
    m("trace.overhead_frac", "frac", Better::Lower),
];

/// The unit a catalogued metric is reported in.
///
/// # Panics
///
/// Panics on a name missing from [`END_TO_END`] and [`PER_LAYER`]: every
/// reported metric must be catalogued.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|d| d.name == name)
        .map(|d| d.unit)
        .unwrap_or_else(|| panic!("metric `{name}` is not catalogued"))
}

/// A metric name as `BENCHMARK.json` allows it: a letter or digit
/// first, then at most 63 more letters, digits, `_`, `.` or `-`.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    name.len() <= 64
        && chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Median and quartiles as Python's `statistics.quantiles(values, n=4)`
/// gives them (the default "exclusive" method), so the figures printed here
/// match the ones the acceptance check computes. One sample is its own
/// median and quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "quartiles of no samples");
    if n == 1 {
        return (v[0], v[0], v[0]);
    }
    let q = |k: f64| {
        let pos = k * (n as f64 + 1.0) / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let delta = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (q(1.0), median(&v), q(3.0))
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The result line of a run: the last line of stdout, one JSON object.
pub fn result_json(attempted: u64, failed: u64, metrics: &BTreeMap<&'static str, f64>) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0 && attempted > 0
    );
    for (i, (name, value)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            unit_of(name)
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut seen = BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_metric_name(d.name), "bad metric name `{}`", d.name);
            assert!(seen.insert(d.name), "metric `{}` listed twice", d.name);
            assert!(
                !d.unit.is_empty()
                    && d.unit.len() <= 16
                    && d.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit `{}` of `{}`",
                d.unit,
                d.name
            );
        }
        assert!(!valid_metric_name("_x") && !valid_metric_name("a b"));
        assert!(!valid_metric_name(&"a".repeat(65)));
    }

    /// The catalogue and `BENCHMARK.json` name the same metrics, with the
    /// same units and directions.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let compact: String = json.split_whitespace().collect();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            let better = match d.better {
                Better::Lower => "lower",
                Better::Higher => "higher",
            };
            let entry = format!(
                "{{\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"{better}\"",
                d.name, d.unit
            );
            assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = compact.matches("\"name\":").count();
        let workloads = workload::WORKLOADS.len();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len() + workloads);
        for w in workload::WORKLOADS {
            assert!(
                compact.contains(&format!("{{\"name\":\"{w}\"")),
                "workload {w}"
            );
        }
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        // == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0, 4.0));
    }

    #[test]
    fn result_line_is_one_json_object_with_units() {
        let mut metrics = BTreeMap::new();
        metrics.insert("verify_s", 1.25);
        metrics.insert("setup_s", 0.003);
        let line = result_json(19, 0, &metrics);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 19, \"failed\": 0, \"metrics\": {\
             \"setup_s\": {\"value\": 0.003, \"unit\": \"s\"}, \
             \"verify_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
        assert!(result_json(19, 1, &metrics).starts_with("{\"correct\": false"));
    }
}
