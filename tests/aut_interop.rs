//! CADP interop: exporting quotients in Aldebaran format and re-importing
//! them must preserve every verification verdict.

use bbverify::algorithms::{ms_queue::MsQueue, specs::SeqQueue};
use bbverify::bisim::{bisimilar, partition, quotient, Equivalence};
use bbverify::lts::{from_aut, to_aut, ExploreLimits};
use bbverify::refine::trace_refines;
use bbverify::sim::{explore_system, AtomicSpec, Bound};

#[test]
fn quotient_roundtrip_preserves_linearizability_verdict() {
    let bound = Bound::new(2, 2);
    let imp = explore_system(&MsQueue::new(&[1]), bound, ExploreLimits::default()).unwrap();
    let spec = explore_system(
        &AtomicSpec::new(SeqQueue::new(&[1])),
        bound,
        ExploreLimits::default(),
    )
    .unwrap();

    let q_imp = quotient(&imp, &partition(&imp, Equivalence::Branching));
    let q_spec = quotient(&spec, &partition(&spec, Equivalence::Branching));

    // Round-trip both quotients through the .aut format.
    let imp_rt = from_aut(&to_aut(&q_imp.lts)).unwrap();
    let spec_rt = from_aut(&to_aut(&q_spec.lts)).unwrap();

    assert!(bisimilar(&q_imp.lts, &imp_rt, Equivalence::BranchingDiv));
    assert!(bisimilar(&q_spec.lts, &spec_rt, Equivalence::BranchingDiv));
    assert_eq!(
        trace_refines(&q_imp.lts, &q_spec.lts).holds,
        trace_refines(&imp_rt, &spec_rt).holds
    );
}

#[test]
fn full_system_roundtrip_preserves_divergence() {
    use bbverify::algorithms::hw_queue::HwQueue;
    let lts = explore_system(
        &HwQueue::for_bound(&[1], 2, 1),
        Bound::new(2, 1),
        ExploreLimits::default(),
    )
    .unwrap();
    let rt = from_aut(&to_aut(&lts)).unwrap();
    assert!(bbverify::bisim::has_tau_cycle(&rt));
    assert!(bisimilar(&lts, &rt, Equivalence::BranchingDiv));
}

#[test]
fn import_survives_foreign_line_endings_and_duplicates() {
    // A CADP-produced file re-saved on Windows: CRLF endings, padded
    // fields, and a transition listed twice. Import must normalize all of
    // it — same LTS as the clean rendering.
    let clean = "des (0, 2, 2)\n(0, \"t1.call.Enq(1)\", 1)\n(1, \"i !t1 !L5\", 0)\n";
    let messy = "des ( 0 , 2 , 2 )\r\n ( 0 , \"t1.call.Enq(1)\" , 1 ) \r\n(1, \"i !t1 !L5\", 0)\r\n(1, \"i !t1 !L5\", 0)\r\n";
    let a = from_aut(clean).unwrap();
    let b = from_aut(messy).unwrap();
    assert_eq!(to_aut(&a), to_aut(&b));
}

#[test]
fn malformed_inputs_error_rather_than_panic() {
    for (name, text) in [
        ("empty", ""),
        ("blank", "   \n\t\n"),
        ("no header", "(0, \"a\", 1)\n"),
        ("truncated header", "des (0, 1\n"),
        ("two-field header", "des (0, 1)\n"),
        ("four-field header", "des (0, 1, 2, 3)\n"),
        ("negative state", "des (-1, 1, 2)\n"),
        ("non-numeric state", "des (x, 1, 2)\n"),
        ("huge header", "des (0, 1, 18446744073709551615)\n"),
        ("unparenthesized transition", "des (0, 1, 2)\n0, \"a\", 1\n"),
        ("one-field transition", "des (0, 1, 2)\n(0)\n"),
        ("two-field transition", "des (0, 1, 2)\n(0, \"a\")\n"),
        ("bad source", "des (0, 1, 2)\n(x, \"a\", 1)\n"),
        ("bad target", "des (0, 1, 2)\n(0, \"a\", x)\n"),
        ("huge target", "des (0, 1, 2)\n(0, \"a\", 99999999999)\n"),
    ] {
        let r = from_aut(text);
        assert!(r.is_err(), "{name}: should be rejected, got {r:?}");
    }
}

#[test]
fn near_miss_visible_labels_import_as_foreign_labels() {
    // Labels that start like our `tN.call.m(v)` / `tN.ret(v).m` forms but
    // do not parse as one are foreign labels, never a panic.
    for label in [
        "t1.call.m)(",
        "t1.call.)(5",
        "t1.call.m(",
        "t1.call.m(x)",
        "t1.call.m)",
        "t1.ret(",
        "t1.ret(x).m",
        "t1.ret(1)",
        "t1.ret)(.m",
        "tx.call.m(1)",
        "t1.",
    ] {
        let text = format!("des (0, 1, 2)\n(0, \"{label}\", 1)\n");
        let lts = from_aut(&text).unwrap_or_else(|e| panic!("{label}: {e}"));
        assert_eq!(lts.num_transitions(), 1, "{label}");
    }
}
