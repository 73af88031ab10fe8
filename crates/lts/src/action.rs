//! Actions of object systems.
//!
//! Following Definition 2.1 of the paper, the alphabet of an object system
//! consists of call actions `(t, call, m(n))`, return actions
//! `(t, ret(n'), m)` and internal actions `(t, τ)`. Internal actions are
//! unobservable: every equivalence in this workspace treats all `τ` variants
//! as the same silent step, but we retain the thread id and an optional
//! source tag (e.g. the program line `L28`) on `τ` actions so diagnostics can
//! be rendered the way the paper prints them (Figures 6, 7, 9).

use crate::hash::WordHasher;
use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasher, BuildHasherDefault};

/// Identifier of a thread of the most general client.
///
/// Threads are numbered from 1 as in the paper (`t1`, `t2`, ...).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ThreadId(pub u8);

impl fmt::Display for ThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// The kind of an [`Action`]: method invocation, method response or internal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ActionKind {
    /// A call action `(t, call, m(n))`.
    Call,
    /// A return action `(t, ret(n'), m)`.
    Ret,
    /// An internal action `(t, τ)`.
    Tau,
}

/// An action of an object system.
///
/// Two actions are *observationally equal* when [`Action::observation`]
/// returns equal values; `τ` actions all observe as `None` regardless of the
/// thread and tag carried for diagnostics.
///
/// The method name and tag are [`Cow`] strings: the simulator's names are
/// `&'static str` and are borrowed, so building an action allocates nothing,
/// while `.aut` import and snapshots hold owned copies. Equality, ordering,
/// hashing and `Display` look only at the string content, never at whether
/// it is borrowed or owned.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Action {
    /// Whether this is a call, return or internal action.
    pub kind: ActionKind,
    /// The thread performing the action.
    pub thread: ThreadId,
    /// Method name for call/return actions; `None` for `τ`.
    pub method: Option<Cow<'static, str>>,
    /// Call argument or return value, if any.
    pub value: Option<i64>,
    /// Free-form diagnostic tag, e.g. the source line (`"L28"`) of a `τ` step.
    pub tag: Option<Cow<'static, str>>,
}

/// The observable content of a visible action.
///
/// This is what trace-based notions (histories, refinement, k-traces) and
/// bisimulations compare; `τ` actions have no observation.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Observation {
    /// Call or return.
    pub kind: ActionKind,
    /// The thread performing the action.
    pub thread: ThreadId,
    /// Method name.
    pub method: Cow<'static, str>,
    /// Call argument or return value, if any.
    pub value: Option<i64>,
}

impl Action {
    /// Creates a call action `(t, call, m(arg))`. A `&'static str` name is
    /// borrowed; pass a `String` for a name built at run time.
    pub fn call(thread: ThreadId, method: impl Into<Cow<'static, str>>, arg: Option<i64>) -> Self {
        Action {
            kind: ActionKind::Call,
            thread,
            method: Some(method.into()),
            value: arg,
            tag: None,
        }
    }

    /// Creates a return action `(t, ret(val), m)`.
    pub fn ret(thread: ThreadId, method: impl Into<Cow<'static, str>>, val: Option<i64>) -> Self {
        Action {
            kind: ActionKind::Ret,
            thread,
            method: Some(method.into()),
            value: val,
            tag: None,
        }
    }

    /// Creates an internal action `(t, τ)`.
    pub fn tau(thread: ThreadId) -> Self {
        Action {
            kind: ActionKind::Tau,
            thread,
            method: None,
            value: None,
            tag: None,
        }
    }

    /// Creates an internal action `(t, τ)` tagged with a diagnostic label
    /// such as the source line of the statement it models.
    pub fn tau_tagged(thread: ThreadId, tag: impl Into<Cow<'static, str>>) -> Self {
        Action {
            kind: ActionKind::Tau,
            thread,
            method: None,
            value: None,
            tag: Some(tag.into()),
        }
    }

    /// Returns `true` if this action is visible (a call or return).
    pub fn is_visible(&self) -> bool {
        self.kind != ActionKind::Tau
    }

    /// Returns the observable content of this action, or `None` for `τ`.
    pub fn observation(&self) -> Option<Observation> {
        match self.kind {
            ActionKind::Tau => None,
            kind => Some(Observation {
                kind,
                thread: self.thread,
                method: self
                    .method
                    .clone()
                    .expect("visible action always has a method"),
                value: self.value,
            }),
        }
    }
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            ActionKind::Call => {
                write!(f, "{}.call.{}", self.thread, self.method.as_deref().unwrap_or("?"))?;
                if let Some(v) = self.value {
                    write!(f, "({v})")?;
                }
                Ok(())
            }
            ActionKind::Ret => {
                write!(f, "{}.ret", self.thread)?;
                if let Some(v) = self.value {
                    write!(f, "({v})")?;
                }
                write!(f, ".{}", self.method.as_deref().unwrap_or("?"))
            }
            ActionKind::Tau => {
                write!(f, "{}.tau", self.thread)?;
                if let Some(tag) = &self.tag {
                    write!(f, "[{tag}]")?;
                }
                Ok(())
            }
        }
    }
}

impl fmt::Display for Observation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            ActionKind::Call => {
                write!(f, "{}.call.{}", self.thread, self.method)?;
                if let Some(v) = self.value {
                    write!(f, "({v})")?;
                }
                Ok(())
            }
            ActionKind::Ret => {
                write!(f, "{}.ret", self.thread)?;
                if let Some(v) = self.value {
                    write!(f, "({v})")?;
                }
                write!(f, ".{}", self.method)
            }
            ActionKind::Tau => unreachable!("observations are never internal"),
        }
    }
}

/// Interned action labels: dense [`ActionId`]s in first-seen order, so the
/// numbering is a pure function of the insertion sequence and never of the
/// hasher `H`. Exploration interns the simulator's own labels with the cheap
/// [`WordHasher`] (the default); builders that may take labels from outside
/// the program (`.aut` import) keep std's collision-resistant `RandomState`.
#[derive(Debug, Default)]
pub(crate) struct ActionTable<H = BuildHasherDefault<WordHasher>> {
    actions: Vec<Action>,
    ids: HashMap<Action, ActionId, H>,
}

impl<H: BuildHasher> ActionTable<H> {
    /// Interns `action`, returning its id (stable across repeated calls).
    #[inline]
    pub(crate) fn intern(&mut self, action: Action) -> ActionId {
        if let Some(&id) = self.ids.get(&action) {
            return id;
        }
        let id = ActionId(self.actions.len() as u32);
        self.actions.push(action.clone());
        self.ids.insert(action, id);
        id
    }

    /// Number of distinct actions interned so far.
    pub(crate) fn len(&self) -> usize {
        self.actions.len()
    }

    /// The interned actions, indexable by [`ActionId`].
    pub(crate) fn into_actions(self) -> Vec<Action> {
        self.actions
    }
}

/// Index of an interned [`Action`] within an [`Lts`](crate::Lts).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ActionId(pub u32);

impl ActionId {
    /// Returns the index as a `usize` for table lookups.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms_match_paper_notation() {
        let c = Action::call(ThreadId(2), "Enq", Some(10));
        assert_eq!(c.to_string(), "t2.call.Enq(10)");
        let r = Action::ret(ThreadId(1), "Deq", Some(7));
        assert_eq!(r.to_string(), "t1.ret(7).Deq");
        let t = Action::tau_tagged(ThreadId(1), "L28");
        assert_eq!(t.to_string(), "t1.tau[L28]");
    }

    #[test]
    fn observation_ignores_tau_details() {
        assert!(Action::tau(ThreadId(1)).observation().is_none());
        assert!(Action::tau_tagged(ThreadId(2), "L20").observation().is_none());
        let a = Action::call(ThreadId(1), "push", Some(1));
        let obs = a.observation().unwrap();
        assert_eq!(obs.kind, ActionKind::Call);
        assert_eq!(obs.thread, ThreadId(1));
        assert_eq!(&*obs.method, "push");
        assert_eq!(obs.value, Some(1));
    }

    #[test]
    fn visibility() {
        assert!(Action::call(ThreadId(1), "m", None).is_visible());
        assert!(Action::ret(ThreadId(1), "m", None).is_visible());
        assert!(!Action::tau(ThreadId(1)).is_visible());
    }

    /// Equality, ordering, hashing (under both the std and the interner's
    /// hasher) and `Display` see only the string content: a borrowed
    /// `&'static str` label and an owned copy are the same action.
    #[test]
    fn borrowed_and_owned_labels_are_the_same_action() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};

        fn hashes(a: &Action) -> (u64, u64) {
            let mut std = DefaultHasher::new();
            a.hash(&mut std);
            let mut fx = WordHasher::default();
            a.hash(&mut fx);
            (std.finish(), fx.finish())
        }

        let pairs = [
            (
                Action::call(ThreadId(1), "push", Some(2)),
                Action::call(ThreadId(1), String::from("push"), Some(2)),
            ),
            (
                Action::ret(ThreadId(2), "pop", None),
                Action::ret(ThreadId(2), "pop".to_owned(), None),
            ),
            (
                Action::tau_tagged(ThreadId(3), "L28"),
                Action::tau_tagged(ThreadId(3), "L28".to_owned()),
            ),
        ];
        for (borrowed, owned) in &pairs {
            let label = |a: &Action| a.method.clone().or(a.tag.clone());
            assert!(matches!(label(borrowed), Some(Cow::Borrowed(_))));
            assert!(matches!(label(owned), Some(Cow::Owned(_))));
            assert_eq!(borrowed, owned);
            assert_eq!(borrowed.cmp(owned), std::cmp::Ordering::Equal);
            assert_eq!(hashes(borrowed), hashes(owned));
            assert_eq!(borrowed.to_string(), owned.to_string());
            assert_eq!(borrowed.observation(), owned.observation());
        }
        // Ordering between different labels does not depend on ownership
        // either.
        let (a, b) = (
            Action::call(ThreadId(1), "pop", None),
            Action::call(ThreadId(1), "push".to_owned(), None),
        );
        assert!(a < b);
        let (c, d) = (
            Action::call(ThreadId(1), "pop".to_owned(), None),
            Action::call(ThreadId(1), "push", None),
        );
        assert!(c < d);

        // The interner maps both forms to one id.
        let mut table: ActionTable = ActionTable::default();
        for (borrowed, owned) in pairs {
            let id = table.intern(borrowed);
            assert_eq!(table.intern(owned), id);
        }
        assert_eq!(table.len(), 3);
    }

    #[test]
    fn ret_without_value_displays_method() {
        let r = Action::ret(ThreadId(3), "unlock", None);
        assert_eq!(r.to_string(), "t3.ret.unlock");
    }
}
