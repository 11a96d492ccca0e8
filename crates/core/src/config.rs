//! Otherworld configuration.

use crate::policy::ResurrectionPolicy;
use ow_kernel::KernelConfig;
use std::str::FromStr;

/// How the crash kernel materializes the resurrected process's pages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResurrectionStrategy {
    /// Allocate a new page inside the crash kernel's reservation and copy
    /// the old contents (the paper's default, §3.3).
    CopyPages,
    /// Map the original physical page directly (footnote 3's optimization:
    /// much faster and needs no reservation space; the frames are adopted
    /// at morph time).
    MapPages,
    /// Copy-on-access: map the old frame read-only and defer the private
    /// copy to the first touch (a lazy-pull page fault). Restart latency
    /// scales with the hot working set instead of the whole image.
    Lazy,
}

/// How the crash kernel becomes the next main kernel (stage 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MorphMode {
    /// Rebuild everything: scan all of RAM for the frame allocator and
    /// rebuild the swap map and page cache from scratch.
    Cold,
    /// Validate-then-adopt: revalidate the dead kernel's sealed frame
    /// bitmap, swap-slot map and page cache against their CRCs and adopt
    /// whatever checks out, falling back per-structure to the cold rebuild.
    Warm,
}

impl ResurrectionStrategy {
    /// Every strategy with its stable name (CLI flags and JSON exports).
    pub const NAMES: [(ResurrectionStrategy, &'static str); 3] = [
        (ResurrectionStrategy::CopyPages, "copy"),
        (ResurrectionStrategy::MapPages, "map"),
        (ResurrectionStrategy::Lazy, "lazy"),
    ];

    /// The stable name.
    pub fn name(self) -> &'static str {
        name_of(&Self::NAMES, self)
    }
}

impl FromStr for ResurrectionStrategy {
    type Err = String;
    fn from_str(name: &str) -> Result<Self, String> {
        named(&Self::NAMES, name)
    }
}

impl MorphMode {
    /// Every mode with its stable name (CLI flags and JSON exports).
    pub const NAMES: [(MorphMode, &'static str); 2] =
        [(MorphMode::Cold, "cold"), (MorphMode::Warm, "warm")];

    /// The stable name.
    pub fn name(self) -> &'static str {
        name_of(&Self::NAMES, self)
    }
}

impl FromStr for MorphMode {
    type Err = String;
    fn from_str(name: &str) -> Result<Self, String> {
        named(&Self::NAMES, name)
    }
}

fn name_of<T: PartialEq>(table: &[(T, &'static str)], value: T) -> &'static str {
    table
        .iter()
        .find(|(v, _)| *v == value)
        .map_or("", |&(_, n)| n)
}

fn named<T: Copy>(table: &[(T, &'static str)], name: &str) -> Result<T, String> {
    let names: Vec<&str> = table.iter().map(|&(_, n)| n).collect();
    table
        .iter()
        .find(|(_, n)| *n == name)
        .map(|&(v, _)| v)
        .ok_or_else(|| format!("expected {}", names.join("|")))
}

/// One rung of the resurrection supervisor's degradation ladder, from the
/// full-fidelity engine down to a clean restart from the program registry.
/// On a hard read error, a contained panic, or a blown cycle budget the
/// supervisor retries the process one rung weaker (ReHype-style: degrade
/// rather than give up).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LadderRung {
    /// Rung 0: roll the resurrection-critical records back to the newest
    /// validated epoch checkpoint *in place* and resume the same kernel
    /// generation — no crash-kernel boot, no resurrection, no morph. Only
    /// ever reached when a fresh panic-sealed epoch validates; any doubt
    /// falls through to [`LadderRung::Full`].
    RollbackInPlace = 0,
    /// The full resurrection engine: all memory including swapped-out
    /// pages, files, terminal, signals, shm, optional sockets/pipes.
    Full = 1,
    /// Skip swap migration: swapped-out pages are abandoned (the swap area
    /// descriptors or bitmap may be what is corrupted). Loses `MEMORY`.
    NoSwapMigration = 2,
    /// Anonymous memory only: additionally drop file-backed contents, open
    /// files, terminal, signal handlers, shm, and sockets — only the
    /// resident anonymous address space and registers survive.
    AnonymousOnly = 3,
    /// Give up on the dead image entirely and start a fresh instance from
    /// the program registry (the crash-procedure "restart" path without any
    /// saved state).
    CleanRestart = 4,
}

impl LadderRung {
    /// The next-weaker rung, or `None` from the bottom.
    pub fn weaker(self) -> Option<LadderRung> {
        match self {
            LadderRung::RollbackInPlace => Some(LadderRung::Full),
            LadderRung::Full => Some(LadderRung::NoSwapMigration),
            LadderRung::NoSwapMigration => Some(LadderRung::AnonymousOnly),
            LadderRung::AnonymousOnly => Some(LadderRung::CleanRestart),
            LadderRung::CleanRestart => None,
        }
    }

    /// Stable short name (used by reports and the JSON export).
    pub fn name(self) -> &'static str {
        match self {
            LadderRung::RollbackInPlace => "rollback_in_place",
            LadderRung::Full => "full",
            LadderRung::NoSwapMigration => "no_swap_migration",
            LadderRung::AnonymousOnly => "anonymous_only",
            LadderRung::CleanRestart => "clean_restart",
        }
    }
}

/// The resurrection supervisor's switch: panic containment, the
/// degradation ladder, the per-process recovery watchdog, and
/// second-generation escalation (their bounds are the constants in
/// [`crate::supervisor`]).
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Master switch. Off = the pre-supervisor single-shot semantics: any
    /// recovery-time fault fails the whole microreboot (panics are still
    /// contained at the boundary and classified, never propagated).
    pub enabled: bool,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig { enabled: true }
    }
}

/// A deterministic plan of faults to inject *into the recovery path itself*
/// (the ow-faultinject recovery campaign fills this in; production configs
/// leave it empty). It lives here rather than in ow-faultinject because the
/// injection points are inside `microreboot()`.
#[derive(Debug, Clone, Default)]
pub struct RecoveryFaultPlan {
    /// Fail this many crash-kernel boot attempts before letting one
    /// succeed (models a crash kernel that itself crashes early).
    pub crash_boot_failures: u32,
    /// Panic the resurrection engine for selected processes.
    pub engine_panics: Vec<EnginePanicFault>,
    /// Stall the engine for selected processes (models a walk stuck in a
    /// corrupted structure), burning simulated cycles at the full rung.
    pub stalls: Vec<StallFault>,
}

/// Panic the resurrection engine while it works on the `victim`-th
/// resurrectable process (policy-selected order), at every rung up to and
/// including `panics_through`.
#[derive(Debug, Clone, Copy)]
pub struct EnginePanicFault {
    /// Index into the policy-selected process list.
    pub victim: usize,
    /// Weakest rung that still panics; weaker rungs succeed.
    pub panics_through: LadderRung,
}

/// Burn `cycles` simulated cycles while resurrecting the `victim`-th
/// process at the full rung — a stall the recovery watchdog must cut off.
#[derive(Debug, Clone, Copy)]
pub struct StallFault {
    /// Index into the policy-selected process list.
    pub victim: usize,
    /// Simulated cycles the stall burns.
    pub cycles: u64,
}

/// Where the crash kernel finds the resurrection policy.
#[derive(Debug, Clone)]
pub enum PolicySource {
    /// Use this policy directly (the "interactive user selects processes"
    /// path, pre-decided for automation).
    Inline(ResurrectionPolicy),
    /// Read a JSON policy from this path on the (re-mounted) filesystem —
    /// the paper's resurrection configuration file for autonomic server
    /// recovery (§3.3).
    File(String),
}

/// Configuration of the Otherworld mechanism.
#[derive(Debug, Clone)]
pub struct OtherworldConfig {
    /// Page materialization strategy.
    pub strategy: ResurrectionStrategy,
    /// Morph strategy: cold rebuild or warm validate-then-adopt. Warm also
    /// turns on the crash kernel's warm-boot validation discounts.
    pub morph: MorphMode,
    /// Which processes to resurrect.
    pub policy: PolicySource,
    /// Configuration the crash kernel boots with (same source as the main
    /// kernel, §3.1 — but a different build/version is possible and guards
    /// against deterministic re-triggering of the same fault).
    pub crash_kernel: KernelConfig,
    /// §7 extension: resurrect TCP/UDP sockets (connection parameters,
    /// sequence state, unacknowledged outbound payload). Off by default —
    /// the paper's prototype cannot resurrect sockets.
    pub resurrect_sockets: bool,
    /// §7 extension: resurrect pipes whose semaphore was free at crash time
    /// (§3.3's consistency rule). Off by default.
    pub resurrect_pipes: bool,
    /// Resurrection supervisor (containment, ladder, watchdog,
    /// escalation). Enabled by default.
    pub supervisor: SupervisorConfig,
    /// Faults to inject into the recovery path itself; empty outside the
    /// ow-faultinject recovery campaign.
    pub recovery_faults: RecoveryFaultPlan,
    /// Rung 0 of the ladder: try rollback-in-place from the newest epoch
    /// checkpoint before any crash-kernel handoff. Off by default (the
    /// paper's microreboot semantics); requires the kernel's epoch-
    /// checkpoint writer to have sealed a fresh epoch on the panic path.
    pub rollback: bool,
}

impl Default for OtherworldConfig {
    fn default() -> Self {
        OtherworldConfig {
            strategy: ResurrectionStrategy::CopyPages,
            morph: MorphMode::Cold,
            policy: PolicySource::Inline(ResurrectionPolicy::all()),
            crash_kernel: KernelConfig::default(),
            resurrect_sockets: false,
            resurrect_pipes: false,
            supervisor: SupervisorConfig::default(),
            recovery_faults: RecoveryFaultPlan::default(),
            rollback: false,
        }
    }
}
