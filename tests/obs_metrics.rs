//! Schema tests for `bbv --metrics` / `--trace` (bb-obs export formats).
//!
//! Wall-clock values vary run to run, so the snapshot masks every timing
//! field (all of which end in `_us` by construction) and pins the *shape*:
//! which spans exist, how they nest, and which counters are reported.

use bb_obs::json::{parse, JsonValue};
use std::process::Command;

fn bbv(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_bbv"))
        .args(args)
        .output()
        .expect("bbv runs")
}

fn tmp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("bbv_obs_{name}_{}", std::process::id()))
}

/// Runs a small verify with both exports on and returns (metrics, trace).
fn capture(test: &str, algo: &str) -> (JsonValue, String) {
    let m = tmp(&format!("{test}_m.json"));
    let t = tmp(&format!("{test}_t.ndjson"));
    let out = bbv(&[
        "verify", algo, "--threads", "2", "--ops", "1", "--domain", "1",
        "--metrics", m.to_str().unwrap(), "--trace", t.to_str().unwrap(),
    ]);
    assert!(out.status.code().is_some(), "bbv died: {out:?}");
    let metrics = parse(&std::fs::read_to_string(&m).unwrap()).expect("metrics is valid JSON");
    let trace = std::fs::read_to_string(&t).unwrap();
    let _ = std::fs::remove_file(m);
    let _ = std::fs::remove_file(t);
    (metrics, trace)
}

#[test]
fn metrics_document_has_the_v1_schema() {
    let (doc, _) = capture("schema", "ms-queue");
    let obj = doc.as_object().expect("top level is an object");
    let keys: Vec<&str> = obj.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        ["schema", "meta", "elapsed_us", "spans", "counters", "histograms"],
        "top-level key set/order changed"
    );
    assert_eq!(doc.get("schema").and_then(JsonValue::as_str), Some("bb-obs/v1"));

    let meta = doc.get("meta").and_then(JsonValue::as_object).expect("meta object");
    let meta_keys: Vec<&str> = meta.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(meta_keys, ["command", "algorithm", "threads", "ops", "reduce"]);
    assert_eq!(doc.get("meta").unwrap().get("command").unwrap().as_str(), Some("verify"));
    assert_eq!(doc.get("meta").unwrap().get("algorithm").unwrap().as_str(), Some("ms-queue"));

    assert!(doc.get("elapsed_us").unwrap().as_u64().is_some());
}

#[test]
fn span_tree_covers_every_pipeline_phase() {
    let (doc, _) = capture("spans", "ms-queue");
    let spans = doc.get("spans").and_then(JsonValue::as_array).expect("spans array");
    assert!(!spans.is_empty());

    // Every span carries the fixed field set; timing values are masked, the
    // schema (key names and nesting) is the snapshot.
    let mut names = Vec::new();
    let mut depth_of = std::collections::HashMap::new();
    for s in spans {
        let obj = s.as_object().expect("span is an object");
        let keys: Vec<&str> = obj.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["id", "parent", "name", "depth", "start_us", "wall_us", "fields"]);
        let id = s.get("id").unwrap().as_u64().unwrap();
        let depth = s.get("depth").unwrap().as_u64().unwrap();
        depth_of.insert(id, depth);
        match s.get("parent").unwrap().as_u64() {
            None => assert_eq!(depth, 0, "only the root span has no parent"),
            Some(p) => assert_eq!(depth, depth_of[&p] + 1, "depth is parent depth + 1"),
        }
        names.push(s.get("name").unwrap().as_str().unwrap().to_string());
    }

    // The phase vocabulary of the verify pipeline.
    assert_eq!(names[0], "bbv", "root span");
    for phase in ["explore.system", "explore", "lin", "bisim", "bisim.round", "quotient",
                  "refine", "lockfree", "divergence"] {
        assert!(names.iter().any(|n| n == phase), "missing phase `{phase}` in {names:?}");
    }
}

fn spans_named<'a>(doc: &'a JsonValue, name: &str) -> Vec<&'a JsonValue> {
    let spans = doc.get("spans").and_then(JsonValue::as_array).expect("spans array");
    spans.iter().filter(|s| s.get("name").unwrap().as_str() == Some(name)).collect()
}

fn field(span: &JsonValue, key: &str) -> Option<u64> {
    span.get("fields")?.get(key)?.as_u64()
}

/// The `explore` span reports the state store's own peak (`store_bytes`,
/// the figure the compact store shrinks) next to the meter total, and the
/// `explore.store_bytes` gauge peak is the larger of the two explorations.
#[test]
fn explore_span_reports_the_store_peak() {
    let (doc, _) = capture("store", "ms-queue");
    let explores = spans_named(&doc, "explore");
    assert_eq!(explores.len(), 2, "implementation and specification");
    let mut peak = 0;
    for s in &explores {
        let store = field(s, "store_bytes").expect("explore span has store_bytes");
        let mem = field(s, "mem_bytes").expect("explore span has mem_bytes");
        assert!(store > 0 && store <= mem, "store {store} within the meter total {mem}");
        assert_eq!(field(s, "jobs"), None, "exploration is serial");
        peak = peak.max(store);
    }
    let gauge = doc.get("counters").unwrap().get("explore.store_bytes").unwrap().as_u64();
    assert_eq!(gauge, Some(peak));
}

/// The exploration's hot counters balance on every `explore` span: each
/// generated successor either hit the seen-set or added a state, and every
/// state but the initial one was added that way. The run-wide counters are
/// the sums over the spans, and the LTS arrays report their own bytes.
#[test]
fn explore_span_counters_balance() {
    let (doc, _) = capture("tally", "ms-queue");
    let explores = spans_named(&doc, "explore");
    assert_eq!(explores.len(), 2, "implementation and specification");
    let counter = |name: &str| {
        doc.get("counters")
            .unwrap()
            .get(name)
            .and_then(JsonValue::as_u64)
            .unwrap()
    };
    let mut sums = [0u64; 5];
    for s in &explores {
        let f = |key: &str| field(s, key).unwrap_or_else(|| panic!("explore span lacks {key}"));
        let (succ, hits, fresh) = (f("successors"), f("intern_hits"), f("fresh_states"));
        assert_eq!(hits + fresh, succ, "hits + fresh = successors");
        assert_eq!(fresh + 1, f("states"), "fresh + 1 = states");
        assert!(succ >= f("transitions"), "every transition was generated");
        assert!(f("actions") > 0 && f("lts_bytes") > 0);
        let replayed = f("probe_replayed");
        assert!(replayed >= hits, "a hit decodes at least its own entry");
        for (sum, v) in sums
            .iter_mut()
            .zip([succ, hits, fresh, replayed, f("actions")])
        {
            *sum += v;
        }
    }
    let names = [
        "explore.successors",
        "explore.intern_hits",
        "explore.fresh_states",
        "explore.probe_replayed",
        "explore.actions",
    ];
    for (name, sum) in names.into_iter().zip(sums) {
        assert_eq!(counter(name), sum, "{name} is the sum over explore spans");
    }
}

/// Theorem 5.9 is the τ-cycle pass: `lockfree` has a `divergence` child and
/// no `bisim` child, and records the cycle and, on a refutation, the lasso
/// lengths.
#[test]
fn lockfree_span_is_the_tau_cycle_pass() {
    for (algo, lock_free) in [("ms-queue", true), ("hw-queue", false)] {
        let (doc, _) = capture(&format!("lockfree_{algo}"), algo);
        let spans = doc.get("spans").and_then(JsonValue::as_array).unwrap();
        let lockfree = spans_named(&doc, "lockfree");
        let [lf] = lockfree.as_slice() else { panic!("one lockfree span: {lockfree:?}") };
        let id = lf.get("id").unwrap().as_u64();
        let children: Vec<&str> = spans
            .iter()
            .filter(|s| s.get("parent").unwrap().as_u64() == id)
            .map(|s| s.get("name").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(children, ["divergence"], "{algo}");
        assert_eq!(field(lf, "lock_free"), Some(u64::from(lock_free)), "{algo}");
        assert_eq!(field(lf, "tau_cycle"), Some(u64::from(!lock_free)), "{algo}");
        assert_eq!(field(lf, "cycle_len").is_some(), !lock_free, "{algo}");
        assert_eq!(field(lf, "prefix_len").is_some(), !lock_free, "{algo}");
    }
}

#[test]
fn counters_report_the_hot_path_instruments() {
    let (doc, _) = capture("counters", "ms-queue");
    let counters = doc.get("counters").and_then(JsonValue::as_object).expect("counters object");
    let names: Vec<&str> = counters.iter().map(|(k, _)| k.as_str()).collect();
    for c in ["bisim.signature_recomputes", "bisim.rounds", "lts.tau_closure_builds",
              "refine.product_states", "explore.frontier_depth"] {
        assert!(names.contains(&c), "missing counter `{c}` in {names:?}");
    }
    // Sorted by name: machine-diffable across runs.
    let mut sorted = names.clone();
    sorted.sort_unstable();
    assert_eq!(names, sorted);
    // A 2-1 MS-queue run definitely refines signatures.
    let recomputes = counters.iter().find(|(k, _)| k == "bisim.signature_recomputes").unwrap();
    assert!(recomputes.1.as_u64().unwrap() > 0);
}

#[test]
fn trace_is_valid_ndjson_with_matched_begin_end() {
    let (doc, trace) = capture("trace", "ms-queue");
    let span_count = doc.get("spans").and_then(JsonValue::as_array).unwrap().len();

    let mut begins = 0usize;
    let mut ends = 0usize;
    let mut last_seq = None;
    let mut saw_counters = false;
    let mut saw_histograms = false;
    for (i, line) in trace.lines().enumerate() {
        let ev = parse(line).unwrap_or_else(|e| panic!("line {} is not JSON ({e}): {line}", i + 1));
        match ev.get("ev").and_then(JsonValue::as_str) {
            Some("begin") => begins += 1,
            Some("end") => ends += 1,
            Some("diag") => {}
            Some("counters") => saw_counters = true,
            Some("histograms") => {
                saw_histograms = true;
                let values = ev.get("values").and_then(JsonValue::as_object).unwrap();
                for (name, h) in values {
                    assert!(h.get("count").and_then(JsonValue::as_u64).is_some(), "{name}");
                    assert!(h.get("sum").and_then(JsonValue::as_u64).is_some(), "{name}");
                }
            }
            other => panic!("unknown event kind {other:?} on line {}", i + 1),
        }
        if let Some(seq) = ev.get("seq").and_then(JsonValue::as_u64) {
            assert!(last_seq < Some(seq), "seq must increase monotonically");
            last_seq = Some(seq);
        }
    }
    assert_eq!(begins, span_count, "one begin event per span");
    assert_eq!(ends, span_count, "one end event per span");
    assert!(saw_counters, "trace carries a counters summary event");
    assert!(saw_histograms, "trace ends with a histograms summary event");
}

#[test]
fn histograms_appear_on_reduced_runs() {
    let m = tmp("hist_m.json");
    let out = bbv(&[
        "verify", "treiber", "--threads", "2", "--ops", "1", "--domain", "1",
        "--reduce", "por", "--metrics", m.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let doc = parse(&std::fs::read_to_string(&m).unwrap()).unwrap();
    let _ = std::fs::remove_file(m);
    let hist = doc.get("histograms").and_then(JsonValue::as_object).expect("histograms object");
    let probes = hist.iter().find(|(k, _)| k == "explore.seen_probe_len");
    let (_, probes) = probes.expect("reduced exploration records the seen-set probe histogram");
    assert!(probes.get("count").unwrap().as_u64().unwrap() > 0);
    let buckets = probes.get("buckets").and_then(JsonValue::as_array).unwrap();
    for b in buckets {
        let pair = b.as_array().expect("bucket is a [upper_bound, count] pair");
        assert_eq!(pair.len(), 2);
    }
}
