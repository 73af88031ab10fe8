//! Aldebaran (`.aut`) import/export — the LTS interchange format of the
//! CADP toolbox the paper runs on.
//!
//! ```text
//! des (<initial>, <#transitions>, <#states>)
//! (<src>, "<label>", <dst>)
//! ...
//! ```
//!
//! Visible actions are rendered in the paper's notation
//! (`t1.call.Enq(1)`, `t2.ret(0).Deq`), internal ones as `i` (the CADP
//! convention), with the thread/tag detail preserved in a suffix comment
//! (`i !t1 !L28`) that round-trips through this module but is also
//! understood by CADP as a plain `i`-prefixed label.

use crate::action::{Action, ThreadId};
use crate::builder::LtsBuilder;
use crate::lts::{Lts, StateId};
use std::fmt::Write as _;
use std::str::FromStr;

/// Serializes `lts` in Aldebaran format.
pub fn to_aut(lts: &Lts) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "des ({}, {}, {})",
        lts.initial().index(),
        lts.num_transitions(),
        lts.num_states()
    );
    for (src, act, dst) in lts.iter_transitions() {
        let a = lts.action(act);
        let label = render_label(a);
        let _ = writeln!(out, "({}, \"{}\", {})", src.index(), label, dst.index());
    }
    out
}

fn render_label(a: &Action) -> String {
    if a.is_visible() {
        a.to_string()
    } else {
        // CADP internal-action convention, with our detail as operands.
        match &a.tag {
            Some(tag) => format!("i !t{} !{}", a.thread.0, tag),
            None => format!("i !t{}", a.thread.0),
        }
    }
}

/// Error from [`from_aut`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseAutError {
    /// 1-based line of the offending input.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseAutError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseAutError {}

/// Hard cap on state indices accepted from an Aldebaran file. State
/// storage is preallocated from the header, so an absurd count (a corrupt
/// header, or a 64-bit index wrapped through a smaller tool) must be
/// rejected up front instead of exhausting memory.
const MAX_AUT_STATES: usize = 1 << 28;

/// Parses an Aldebaran file.
///
/// Labels produced by [`to_aut`] are recovered exactly; labels from other
/// tools are imported as visible call actions of a pseudo-thread `t0`
/// named by the raw label (internal actions `i`/`tau` map to `τ`).
///
/// The parser is liberal in what it accepts from foreign tools: CRLF and
/// stray whitespace around lines and fields are ignored, states referenced
/// beyond the header count grow the state set, and repeated transition
/// lines collapse to one transition (the builder is idempotent). It is
/// strict about structure: malformed headers or transition lines and
/// out-of-range indices are errors, never panics.
///
/// # Errors
///
/// Returns [`ParseAutError`] on malformed headers or transition lines, and
/// on state indices above the cap of 2²⁸ states.
pub fn from_aut(text: &str) -> Result<Lts, ParseAutError> {
    let mut lines = text.lines().enumerate();
    let (header_no, header) = lines
        .by_ref()
        .find(|(_, l)| !l.trim().is_empty())
        .ok_or(ParseAutError {
            line: 1,
            message: "empty input".into(),
        })?;
    let header = header.trim();
    let inner = header
        .strip_prefix("des")
        .map(str::trim)
        .and_then(|h| h.strip_prefix('('))
        .and_then(|h| h.strip_suffix(')'))
        .ok_or(ParseAutError {
            line: header_no + 1,
            message: format!("expected `des (init, #trans, #states)`, got `{header}`"),
        })?;
    let parts: Vec<&str> = inner.split(',').map(str::trim).collect();
    if parts.len() != 3 {
        return Err(ParseAutError {
            line: header_no + 1,
            message: "header must have three fields".into(),
        });
    }
    let parse_num = |s: &str, line: usize| {
        let n = usize::from_str(s).map_err(|e| ParseAutError {
            line,
            message: format!("bad number `{s}`: {e}"),
        })?;
        if n > MAX_AUT_STATES {
            return Err(ParseAutError {
                line,
                message: format!("state index {n} exceeds the cap of {MAX_AUT_STATES}"),
            });
        }
        Ok(n)
    };
    let initial = parse_num(parts[0], header_no + 1)?;
    let num_states = parse_num(parts[2], header_no + 1)?;

    let mut b = LtsBuilder::new();
    b.add_states(num_states.max(initial + 1));

    for (no, raw) in lines {
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        let inner = line
            .strip_prefix('(')
            .and_then(|l| l.strip_suffix(')'))
            .ok_or(ParseAutError {
                line: no + 1,
                message: format!("expected `(src, \"label\", dst)`, got `{line}`"),
            })?;
        // src, up to first comma; label between quotes; dst after last comma.
        let first_comma = inner.find(',').ok_or(ParseAutError {
            line: no + 1,
            message: "missing comma".into(),
        })?;
        // rfind cannot miss after find succeeded, but malformed input must
        // never panic the parser: fall back to the equal-comma error below.
        let last_comma = inner.rfind(',').unwrap_or(first_comma);
        if first_comma == last_comma {
            return Err(ParseAutError {
                line: no + 1,
                message: "transition needs three fields".into(),
            });
        }
        let src = parse_num(inner[..first_comma].trim(), no + 1)?;
        let dst = parse_num(inner[last_comma + 1..].trim(), no + 1)?;
        let mid = inner[first_comma + 1..last_comma].trim();
        let label = mid
            .strip_prefix('"')
            .and_then(|m| m.strip_suffix('"'))
            .unwrap_or(mid);
        let action = parse_label(label);
        let aid = b.intern_action(action);
        let max_needed = src.max(dst);
        while b.num_states() <= max_needed {
            b.add_state();
        }
        b.add_transition(StateId(src as u32), aid, StateId(dst as u32));
    }
    Ok(b.build(StateId(initial as u32)))
}

/// Recovers an [`Action`] from a label, understanding both our rendering
/// and generic CADP-style labels.
fn parse_label(label: &str) -> Action {
    // Internal: "i", "tau", or our "i !tN !tag" detail form.
    if label == "i" || label.eq_ignore_ascii_case("tau") {
        return Action::tau(ThreadId(0));
    }
    if let Some(rest) = label.strip_prefix("i !t") {
        let mut parts = rest.splitn(2, " !");
        let thread: u8 = parts.next().and_then(|t| t.parse().ok()).unwrap_or(0);
        return match parts.next() {
            Some(tag) => Action::tau_tagged(ThreadId(thread), tag.to_owned()),
            None => Action::tau(ThreadId(thread)),
        };
    }
    // Our visible forms: "tN.call.m(v)" / "tN.ret(v).m" / "tN.ret.m".
    if let Some(parsed) = parse_visible(label) {
        return parsed;
    }
    // Foreign label: keep it as a call action of pseudo-thread 0.
    Action::call(ThreadId(0), label.to_owned(), None)
}

fn parse_visible(label: &str) -> Option<Action> {
    let rest = label.strip_prefix('t')?;
    let dot = rest.find('.')?;
    let thread: u8 = rest[..dot].parse().ok()?;
    let rest = &rest[dot + 1..];
    if let Some(call) = rest.strip_prefix("call.") {
        // m or m(v)
        if let Some(open) = call.find('(') {
            // A `)` before the `(` is no argument list: foreign label.
            let close = call.rfind(')').filter(|&close| close > open)?;
            let v: i64 = call[open + 1..close].parse().ok()?;
            Some(Action::call(
                ThreadId(thread),
                call[..open].to_owned(),
                Some(v),
            ))
        } else {
            Some(Action::call(ThreadId(thread), call.to_owned(), None))
        }
    } else if let Some(ret) = rest.strip_prefix("ret") {
        if let Some(ret) = ret.strip_prefix('(') {
            let close = ret.find(')')?;
            let v: i64 = ret[..close].parse().ok()?;
            let method = ret[close + 1..].strip_prefix('.')?;
            Some(Action::ret(ThreadId(thread), method.to_owned(), Some(v)))
        } else {
            let method = ret.strip_prefix('.')?;
            Some(Action::ret(ThreadId(thread), method.to_owned(), None))
        }
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::ActionKind;

    fn sample() -> Lts {
        let mut b = LtsBuilder::new();
        let s0 = b.add_state();
        let s1 = b.add_state();
        let s2 = b.add_state();
        let call = b.intern_action(Action::call(ThreadId(1), "Enq", Some(7)));
        let tau = b.intern_action(Action::tau_tagged(ThreadId(2), "L28"));
        let ret = b.intern_action(Action::ret(ThreadId(1), "Enq", None));
        let retv = b.intern_action(Action::ret(ThreadId(2), "Deq", Some(-1)));
        b.add_transition(s0, call, s1);
        b.add_transition(s1, tau, s1);
        b.add_transition(s1, ret, s2);
        b.add_transition(s2, retv, s0);
        b.build(s0)
    }

    #[test]
    fn roundtrip_preserves_structure_and_labels() {
        let lts = sample();
        let text = to_aut(&lts);
        let back = from_aut(&text).unwrap();
        assert_eq!(back.num_states(), lts.num_states());
        assert_eq!(back.num_transitions(), lts.num_transitions());
        assert_eq!(back.initial(), lts.initial());
        let orig: Vec<_> = lts
            .iter_transitions()
            .map(|(s, a, d)| (s, lts.action(a).clone(), d))
            .collect();
        let rt: Vec<_> = back
            .iter_transitions()
            .map(|(s, a, d)| (s, back.action(a).clone(), d))
            .collect();
        assert_eq!(orig, rt);
    }

    #[test]
    fn header_format() {
        let text = to_aut(&sample());
        assert!(text.starts_with("des (0, 4, 3)\n"));
    }

    #[test]
    fn parses_generic_cadp_labels() {
        let text = "des (0, 2, 2)\n(0, \"PUSH !1\", 1)\n(1, \"i\", 0)\n";
        let lts = from_aut(text).unwrap();
        assert_eq!(lts.num_states(), 2);
        let acts: Vec<_> = lts.actions().to_vec();
        assert!(acts.iter().any(|a| a.method.as_deref() == Some("PUSH !1")));
        assert!(acts.iter().any(|a| a.kind == ActionKind::Tau));
    }

    #[test]
    fn rejects_malformed_header() {
        assert!(from_aut("nonsense\n").is_err());
        assert!(from_aut("des (0, 1)\n").is_err());
    }

    #[test]
    fn rejects_malformed_transition() {
        let text = "des (0, 1, 2)\nnot-a-transition\n";
        let err = from_aut(text).unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn tolerates_blank_lines_and_growing_states() {
        let text = "des (0, 1, 1)\n\n(0, \"a\", 5)\n";
        let lts = from_aut(text).unwrap();
        assert_eq!(lts.num_states(), 6);
    }

    #[test]
    fn tolerates_crlf_and_stray_whitespace() {
        let text = "  des ( 0 , 2 , 2 )\r\n\r\n ( 0 , \"a\" , 1 ) \r\n(1, \"i\", 0)\r\n";
        let lts = from_aut(text).unwrap();
        assert_eq!(lts.num_states(), 2);
        assert_eq!(lts.num_transitions(), 2);
    }

    #[test]
    fn duplicate_transition_lines_collapse() {
        let text = "des (0, 3, 2)\n(0, \"a\", 1)\n(0, \"a\", 1)\n(0, \"a\", 1)\n";
        let lts = from_aut(text).unwrap();
        assert_eq!(lts.num_transitions(), 1);
    }

    #[test]
    fn rejects_implausibly_large_indices() {
        // A corrupt header must not preallocate terabytes of state storage,
        // and a transition must not index past the cap either.
        assert!(from_aut("des (0, 1, 99999999999999)\n").is_err());
        assert!(from_aut("des (99999999999999, 1, 2)\n").is_err());
        let err = from_aut("des (0, 1, 2)\n(0, \"a\", 99999999999999)\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("cap"), "{}", err.message);
    }

    #[test]
    fn equivalences_survive_roundtrip() {
        use crate::random::{random_lts, RandomLtsConfig};
        for seed in 0..10 {
            let lts = random_lts(seed, RandomLtsConfig::default());
            let back = from_aut(&to_aut(&lts)).unwrap();
            assert_eq!(lts.num_transitions(), back.num_transitions(), "seed {seed}");
        }
    }
}
