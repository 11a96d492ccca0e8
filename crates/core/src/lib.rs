//! Otherworld: giving applications a chance to survive OS kernel crashes.
//!
//! This crate implements the paper's contribution on top of the `ow-kernel`
//! substrate:
//!
//! 1. **Crash-kernel boot** inside the memory reservation
//!    ([`ow_kernel::Kernel::try_boot_crash`], driven from here).
//! 2. **Validated raw-memory readers** over the dead kernel ([`reader`]),
//!    with byte accounting (Table 4) and corruption detection (§4).
//! 3. **Application resurrection** ([`resurrect`]): process descriptors,
//!    memory regions, page contents (copy / map / swap migration), open
//!    files with dirty-buffer flushing, terminals, signals, shared memory.
//! 4. **Crash procedures** and the Table 1 decision matrix
//!    ([`otherworld::microreboot`]).
//! 5. **Morphing** into the main kernel and installing a fresh crash kernel
//!    (§3.6, [`ow_kernel::Kernel::morph_into_main_with`]).
//!
//! 6. **Resurrection supervisor** ([`supervisor`] + the orchestration in
//!    [`otherworld`]): panic containment around every engine call, a
//!    degradation ladder ([`config::LadderRung`]), a recovery watchdog with
//!    a per-process cycle budget, and second-generation escalation when the
//!    crash kernel itself fails.
//!
//! The entry points are [`microreboot`] (one-shot) and the [`Otherworld`]
//! session wrapper (continuous operation across generations).

#![forbid(unsafe_code)]

pub mod config;
pub mod integrity;
pub mod otherworld;
pub mod policy;
pub mod reader;
pub mod resurrect;
pub mod rollback;
pub mod stats;
pub mod supervisor;

pub use config::{
    EnginePanicFault, LadderRung, MorphMode, OtherworldConfig, PolicySource, RecoveryFaultPlan,
    ResurrectionStrategy, StallFault, SupervisorConfig,
};
pub use otherworld::{microreboot, MicrorebootFailure, Otherworld};
pub use policy::ResurrectionPolicy;
pub use stats::{
    AdoptionSummary, MicrorebootReport, ProcOutcome, ProcReport, ReadKind, ReadStats,
    RollbackSummary, SupervisorSummary,
};
