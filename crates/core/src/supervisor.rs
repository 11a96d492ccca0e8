//! Resurrection-supervisor primitives: panic containment, the
//! per-process cycle budget and the escalation bounds.
//!
//! The supervisor's job (ReHype-style) is to make the crash kernel's own
//! recovery path fault-tolerant: a corruption-triggered panic inside the
//! resurrection engine must cost one process, not the whole microreboot,
//! and a walk stuck in a corrupted chain must be cut off by a watchdog
//! budget instead of hanging recovery. The ladder/escalation state machine
//! itself lives in [`crate::otherworld`]; this module holds the pieces it
//! leans on.

use ow_simhw::{clock::CYCLES_PER_SEC, CostModel};
use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Once;

thread_local! {
    /// Nesting depth of active [`contain`] sections on this thread. While
    /// non-zero, the quiet hook swallows panic output: the panic is an
    /// anticipated, classified event, not a crash worth a backtrace.
    static CONTAIN_DEPTH: Cell<u32> = const { Cell::new(0) };
}

/// Distinct processes that may hit hard recovery faults (contained panics,
/// read errors, watchdog firings) before the supervisor stops trusting
/// the crash-kernel generation — a panic storm — and escalates.
pub(crate) const ESCALATION_THRESHOLD: u32 = 3;

/// Crash-kernel generations one microreboot may consume: the first, plus
/// one restart-only generation 2.
pub(crate) const MAX_GENERATIONS: u32 = 2;

static QUIET_HOOK: Once = Once::new();

fn install_quiet_hook() {
    QUIET_HOOK.call_once(|| {
        let prev = panic::take_hook();
        // OW_PANIC_TRACE=1 prints contained panics too (with RUST_BACKTRACE
        // this locates a panic that containment would otherwise swallow).
        // ow-lint: allow(campaign-determinism) -- debug-only stderr toggle; never reaches campaign results or JSON output
        let trace_contained = std::env::var_os("OW_PANIC_TRACE").is_some();
        panic::set_hook(Box::new(move |info| {
            if trace_contained || CONTAIN_DEPTH.with(|d| d.get()) == 0 {
                prev(info);
            }
        }));
    });
}

/// Runs `f`, converting any panic it raises into `Err(message)`.
///
/// This is the supervisor's containment boundary: a corrupted descriptor
/// that drives the resurrection engine into a `panic!`/assert costs
/// exactly the work inside `f`. The closure is wrapped in
/// [`AssertUnwindSafe`]: callers must treat the structures `f` mutated as
/// suspect on `Err` and scrub them (the supervisor reaps any partially
/// created process before retrying a weaker ladder rung).
pub fn contain<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    install_quiet_hook();
    CONTAIN_DEPTH.with(|d| d.set(d.get() + 1));
    let result = panic::catch_unwind(AssertUnwindSafe(f));
    CONTAIN_DEPTH.with(|d| d.set(d.get() - 1));
    result.map_err(|payload| {
        if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        }
    })
}

/// Default per-process cycle budget for the recovery watchdog, derived
/// from the simhw cost model: in the worst legitimate case the engine
/// copies every frame the reservation can hold and performs a few
/// thousand swap/file disk operations, plus a 60-simulated-second slack
/// so no honest resurrection ever trips it. Anything beyond this is a
/// walk stuck in a corrupted structure, and the watchdog cuts it off.
pub fn per_process_budget(cost: &CostModel, crash_frames: u64) -> u64 {
    60 * CYCLES_PER_SEC + crash_frames * cost.page_copy + 4096 * cost.disk_op
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contain_passes_values_through() {
        assert_eq!(contain(|| 41 + 1), Ok(42));
    }

    #[test]
    fn contain_catches_str_and_string_panics() {
        let e = contain(|| -> u32 { panic!("plain str") }).unwrap_err();
        assert_eq!(e, "plain str");
        let e = contain(|| -> u32 { panic!("formatted {}", 7) }).unwrap_err();
        assert_eq!(e, "formatted 7");
    }

    #[test]
    fn contain_nests() {
        let outer = contain(|| {
            let inner = contain(|| -> u32 { panic!("inner") });
            assert!(inner.is_err());
            // The outer section must still be quiet after the inner one
            // unwound — depth accounting, not a boolean flag.
            panic!("outer");
        });
        assert_eq!(outer.unwrap_err(), "outer");
    }

    #[test]
    fn budget_scales_with_reservation() {
        let cost = CostModel::default();
        assert!(per_process_budget(&cost, 2048) > per_process_budget(&cost, 1024));
        // Never below the fixed slack, even with a zero-I/O cost model.
        assert!(per_process_budget(&CostModel::zero_io(), 0) >= 60 * CYCLES_PER_SEC);
    }
}
