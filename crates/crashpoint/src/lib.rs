//! `ow-crashpoint`: compile-time-labeled crash points with thread-scoped
//! arming, for deterministic crash campaigns.
//!
//! The paper's Table 5 evaluation injects *random* wild writes, which
//! exercises the recovery machinery only by chance. This crate implements
//! the FIRST-style alternative: named markers compiled into the kernel and
//! the recovery engine (`crash_point!("kernel.swap.slot.write")`), plus a
//! tiny thread-local state machine that can either *count* how often each
//! marker is reached (a discovery pass) or *arm* exactly one marker and
//! panic deterministically the nth time execution reaches it. The campaign
//! orchestrator in `ow-faultinject` then enumerates every point × app ×
//! protection mode and drives each cell through the full
//! panic→handoff→crash-boot→resurrect→morph pipeline.
//!
//! Firing is a plain Rust `panic!` with the message `crash_point(<label>)`.
//! In the simulated-hardware world a host-level unwind *is* the crash
//! model: the simulated physical memory is frozen at the instant of the
//! panic, exactly as a real CPU would leave RAM behind, and the harness
//! catches the unwind with `ow_core::supervisor::contain` and proceeds to
//! the dead kernel's panic path (or, for points inside the recovery engine
//! itself, lets the resurrection supervisor's containment deal with it).
//!
//! Everything is thread-scoped on purpose: the campaign shards its matrix
//! over worker threads, and each cell — arming, firing, recovery — runs
//! entirely on one worker, so concurrent cells never observe each other.
//!
//! # Cost of an unarmed marker
//!
//! Every build compiles every marker in: [`crash_point!`] always expands
//! to a [`hit`] call, so the campaign crashes the same kernel whose
//! overhead and interruption time the tables report. The thread-local
//! state is const-initialized, so an unarmed hit is one thread-local read
//! and a match on the inert mode. It charges no simulated cycles, so no
//! simulated number depends on the markers. DESIGN.md §12 gives its
//! measured host cost.

#![forbid(unsafe_code)]

use std::cell::RefCell;
use std::collections::BTreeMap;

mod registry;

pub use registry::{spec, Area, PointSpec, REGISTRY};

/// Compiles to a [`hit`] call. The label must be a string literal so
/// `ow-lint` can enumerate every site statically.
#[macro_export]
macro_rules! crash_point {
    ($label:literal) => {
        $crate::hit($label);
    };
}

/// What the thread's crash-point machinery is currently doing.
#[derive(Debug)]
enum Mode {
    /// Markers are inert (the initial, reset and post-fire state).
    Off,
    /// Discovery pass: count every marker reached, never fire.
    Count,
    /// Fire (panic) the `nth` time `label` is reached.
    Armed { label: String, nth: u64, seen: u64 },
}

#[derive(Debug)]
struct State {
    mode: Mode,
    counts: BTreeMap<&'static str, u64>,
    fired: Option<&'static str>,
}

impl State {
    const INITIAL: State = State {
        mode: Mode::Off,
        counts: BTreeMap::new(),
        fired: None,
    };
}

thread_local! {
    static STATE: RefCell<State> = const { RefCell::new(State::INITIAL) };
}

/// A crash point was reached. Called by the [`crash_point!`] expansion;
/// not meant to be invoked directly.
///
/// # Panics
///
/// Deliberately panics with the message `crash_point(<label>)` when this
/// thread armed `label` and this is the armed occurrence. The panic is the
/// injected crash; harnesses catch it with `supervisor::contain` and
/// recover the label via [`fired_label`].
pub fn hit(label: &'static str) {
    let fire = STATE.with(|s| {
        let mut s = s.borrow_mut();
        match &mut s.mode {
            Mode::Off => false,
            Mode::Count => {
                *s.counts.entry(label).or_insert(0) += 1;
                false
            }
            Mode::Armed {
                label: want,
                nth,
                seen,
            } => {
                if want != label {
                    return false;
                }
                *seen += 1;
                if *seen < *nth {
                    return false;
                }
                // One-shot: disarm before unwinding so the recovery code
                // that re-executes this path does not fire again.
                s.mode = Mode::Off;
                s.fired = Some(label);
                true
            }
        }
    });
    if fire {
        panic!("crash_point({label})");
    }
}

/// Arms `label` on this thread: the `nth` reach (1-based) panics.
pub fn arm(label: &str, nth: u64) {
    STATE.with(|s| {
        s.borrow_mut().mode = Mode::Armed {
            label: label.to_string(),
            nth: nth.max(1),
            seen: 0,
        }
    });
}

/// Switches this thread to the count-only discovery mode.
pub fn start_counting() {
    STATE.with(|s| s.borrow_mut().mode = Mode::Count);
}

/// Returns the counts accumulated by the discovery mode, sorted by label.
pub fn take_counts() -> Vec<(&'static str, u64)> {
    STATE
        .with(|s| std::mem::take(&mut s.borrow_mut().counts))
        .into_iter()
        .collect()
}

/// The label that fired on this thread since the last [`reset`], if any.
pub fn fired() -> Option<&'static str> {
    STATE.with(|s| s.borrow().fired)
}

/// Clears all crash-point state on this thread (mode, counts, fired flag).
pub fn reset() {
    STATE.with(|s| *s.borrow_mut() = State::INITIAL);
}

/// Parses a contained panic message back into the label that fired, if the
/// panic came from a crash point.
pub fn fired_label(msg: &str) -> Option<&str> {
    msg.strip_prefix("crash_point(")?.strip_suffix(')')
}

/// Whether `label` follows the `area.component.action` naming grammar:
/// at least three dot-separated segments, each `[a-z][a-z0-9_]*`.
pub fn label_grammar_ok(label: &str) -> bool {
    let segs: Vec<&str> = label.split('.').collect();
    segs.len() >= 3
        && segs.iter().all(|seg| {
            let mut chars = seg.chars();
            matches!(chars.next(), Some('a'..='z'))
                && chars.all(|c| matches!(c, 'a'..='z' | '0'..='9' | '_'))
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn registry_labels_unique_and_grammatical() {
        let mut seen = HashSet::new();
        for p in REGISTRY {
            assert!(label_grammar_ok(p.label), "bad label grammar: {}", p.label);
            assert!(seen.insert(p.label), "duplicate label: {}", p.label);
        }
        assert!(
            REGISTRY.len() >= 25,
            "campaign needs >= 25 points, have {}",
            REGISTRY.len()
        );
    }

    #[test]
    fn disarmed_hit_is_inert() {
        reset();
        hit("kernel.swap.slot.write");
        assert_eq!(fired(), None);
        assert!(take_counts().is_empty());
    }

    #[test]
    fn counting_discovers_without_firing() {
        reset();
        start_counting();
        hit("kernel.swap.slot.write");
        hit("kernel.swap.slot.write");
        hit("kernel.swap.slot.read");
        let counts = take_counts();
        assert_eq!(
            counts,
            vec![("kernel.swap.slot.read", 1), ("kernel.swap.slot.write", 2)]
        );
        assert_eq!(fired(), None);
        reset();
    }

    #[test]
    fn armed_point_fires_once_on_nth_reach() {
        reset();
        arm("kernel.swap.slot.write", 2);
        hit("kernel.swap.slot.write"); // 1st reach: survives
        hit("kernel.swap.slot.read"); // different label: ignored
        let err = std::panic::catch_unwind(|| hit("kernel.swap.slot.write")).unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert_eq!(fired_label(&msg), Some("kernel.swap.slot.write"));
        assert_eq!(fired(), Some("kernel.swap.slot.write"));
        // One-shot: the same point is inert after firing.
        hit("kernel.swap.slot.write");
        assert_eq!(fired(), Some("kernel.swap.slot.write"));
        reset();
    }

    #[test]
    fn fired_label_rejects_foreign_panics() {
        assert_eq!(
            fired_label("injected fault: resurrection engine panic"),
            None
        );
        assert_eq!(fired_label("crash_point(x"), None);
        assert_eq!(fired_label("crash_point(a.b.c)"), Some("a.b.c"));
    }

    #[test]
    fn macro_fires_when_feature_enabled() {
        reset();
        arm("kernel.swap.slot.write", 1);
        let err = std::panic::catch_unwind(|| {
            crash_point!("kernel.swap.slot.write");
        })
        .unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert_eq!(fired_label(&msg), Some("kernel.swap.slot.write"));
        reset();
    }

    #[test]
    fn spec_lookup() {
        assert_eq!(
            spec("kernel.swap.slot.write").map(|p| p.area),
            Some(Area::Swap)
        );
        assert_eq!(spec("no.such.label"), None);
    }
}
