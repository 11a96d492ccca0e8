//! The crash-point campaign: every labeled crash point × every Table 5
//! application × every protection mode, each cell driven through the full
//! panic→NMI→handoff→crash-boot→resurrect→morph pipeline.
//!
//! Where [`crate::campaign`] reproduces the paper's methodology — *random*
//! wild writes that exercise the recovery machinery only by chance — this
//! module implements the FIRST-style complement: arm exactly one
//! compile-time-labeled crash point ([`ow_crashpoint`]), run the workload
//! until the point fires (or induce the panic if the armed point lives on
//! the panic/recovery side), recover, and check the outcome against a
//! per-point policy. Every cell is an independent, named, reproducible
//! experiment: the cell seed is derived from (label, app, mode) alone, so
//! re-running one failed cell by label reproduces it bit-for-bit no matter
//! what the rest of the matrix looked like.
//!
//! The matrix shards on the deterministic parallel engine
//! ([`crate::engine`]): cells run concurrently, each entirely on one worker
//! thread (the arming state is thread-scoped), and results are merged in
//! matrix order — the JSON export is byte-identical for every `--jobs`
//! value.
//!
//! ## Expected outcomes
//!
//! A crash point is not a bug; the *policy* says what surviving it must
//! look like, ReHype-style:
//!
//! * **Workload-side points** (syscall, pagecache, page fault, swap): the
//!   kernel dies mid-operation and the app must come back with its data
//!   intact — or the point is simply not reached by this workload.
//! * **Panic-path points**: the first panic attempt dies *inside*
//!   `do_panic`; the retry (a watchdog re-entry, modeled by calling
//!   `do_panic` again on the frozen kernel) must complete the handoff and
//!   recover fully.
//! * **Global recovery points** (crash boot, global readers, ladder
//!   transition, gen-2 escalation, kexec/morph): a fault in the recovery
//!   manager's own spine is fatal to the microreboot — the cell must end
//!   in a *contained* abandonment, never a harness panic.
//! * **Per-process recovery points** (per-proc readers, resurrect stages):
//!   the supervisor contains the fault and retries at a weaker ladder
//!   rung; the app must come back alive, degraded.

use crate::campaign::workload_stream_seed;
use crate::engine;
use crate::pipeline::{campaign_machine_config, resume, Resumed};
use ow_apps::{VerifyResult, Workload};
use ow_core::supervisor;
use ow_core::{
    microreboot, EnginePanicFault, LadderRung, MicrorebootFailure, MorphMode, OtherworldConfig,
    PolicySource, RecoveryFaultPlan, ResurrectionPolicy, ResurrectionStrategy,
};
use ow_crashpoint::{Area, REGISTRY};
use ow_kernel::{Kernel, KernelConfig, PanicCause, PanicOutcome};
use ow_simhw::stream_seed;
use ow_trace::json::Value;
use ow_trace::{EventKind, FlightRecord};

/// Default base seed of the crash-point campaign.
pub const CRASHPOINT_SEED: u64 = 0x0c7a_5b07;

/// Workload batches run before arming (the app builds up real state).
const WARMUP_BATCHES: u32 = 4;

/// Workload batches run with the point armed before the panic is induced.
const DRIVE_BATCHES: u32 = 10;

/// FNV-1a over a byte string; the label/app component of a cell seed.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The seed of one cell. Derived from the cell's own coordinates only —
/// never from its position in the matrix — so a single cell re-run by
/// label is bit-identical to the same cell inside the full campaign.
pub fn cell_seed(base: u64, label: &str, app: &str, protected: bool) -> u64 {
    let s = stream_seed(base, fnv1a64(label.as_bytes()));
    let s = stream_seed(s, fnv1a64(app.as_bytes()));
    stream_seed(s, protected as u64)
}

/// One cell of the campaign matrix.
#[derive(Debug, Clone)]
pub struct CellSpec {
    /// The armed crash-point label.
    pub label: String,
    /// Application name (a [`ow_apps::TABLE5_APPS`] entry).
    pub app: String,
    /// Memory-protected mode.
    pub protected: bool,
    /// Cell seed ([`cell_seed`]).
    pub seed: u64,
    /// Morph mode the recovery runs under (campaign-wide knob).
    pub morph: MorphMode,
    /// Page-materialization strategy (campaign-wide knob).
    pub strategy: ResurrectionStrategy,
    /// Whether rollback-in-place (the ladder's rung 0) is enabled for the
    /// cell's recovery (campaign-wide knob).
    pub rollback: bool,
}

/// What happened in one cell, after the full pipeline ran.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CellOutcome {
    /// The armed point was never reached and the clean recovery was fully
    /// intact (the only acceptable way not to fire).
    NotReached,
    /// The point fired and the app came back at the full rung with its
    /// data verified against the shadow model.
    RecoveredIntact,
    /// The app came back at the full rung but its data diverged.
    DataDiverged(String),
    /// The supervisor degraded the app to a weaker ladder rung, but it is
    /// alive.
    RecoveredDegraded(LadderRung),
    /// Recovery completed but this process did not survive.
    ProcFailed(String),
    /// The whole microreboot was abandoned (contained by the supervisor's
    /// outer boundary — the machine is lost, the harness is not).
    Abandoned(String),
    /// An invariant violation: a foreign panic, a lost flight record, an
    /// unreadable resurrected descriptor, or an unarmed point that left
    /// recovery degraded.
    Unexpected(String),
}

impl CellOutcome {
    /// Short stable name for JSON and tables.
    pub fn kind(&self) -> &'static str {
        match self {
            CellOutcome::NotReached => "not_reached",
            CellOutcome::RecoveredIntact => "recovered_intact",
            CellOutcome::DataDiverged(_) => "data_diverged",
            CellOutcome::RecoveredDegraded(_) => "recovered_degraded",
            CellOutcome::ProcFailed(_) => "proc_failed",
            CellOutcome::Abandoned(_) => "abandoned",
            CellOutcome::Unexpected(_) => "unexpected",
        }
    }

    /// The outcome's detail string, when it carries one.
    pub fn detail(&self) -> &str {
        match self {
            CellOutcome::DataDiverged(s)
            | CellOutcome::ProcFailed(s)
            | CellOutcome::Abandoned(s)
            | CellOutcome::Unexpected(s) => s,
            CellOutcome::RecoveredDegraded(rung) => rung.name(),
            _ => "",
        }
    }
}

/// One classified cell.
#[derive(Debug, Clone)]
pub struct CellRecord {
    /// The cell's coordinates.
    pub spec: CellSpec,
    /// What happened.
    pub outcome: CellOutcome,
    /// Whether the armed point fired at all.
    pub fired: bool,
    /// Where it fired: `workload`, `panic`, `recovery`, or `none`.
    pub phase: &'static str,
    /// Post-recovery ground-truth check against the app's shadow model
    /// (`intact` / `corrupted` / `missing` / `skipped`).
    pub verify: &'static str,
    /// Whether the outcome matches the per-point policy.
    pub expected: bool,
}

/// The recovery-fault baseline a label needs so its code path is reachable
/// at all. Points inside the degradation ladder, gen-2 escalation and the
/// restart-only path only execute when recovery is already under stress;
/// the plan supplies that stress deterministically.
pub fn baseline_plan(label: &str) -> RecoveryFaultPlan {
    match label {
        // Reachable only after a hard per-process fault at the full rung.
        "recovery.ladder.rung.degrade" => RecoveryFaultPlan {
            engine_panics: vec![EnginePanicFault {
                victim: 0,
                panics_through: LadderRung::Full,
            }],
            ..RecoveryFaultPlan::default()
        },
        // Reachable only when the ladder has descended to its bottom rung.
        "recovery.ladder.clean.restart" => RecoveryFaultPlan {
            engine_panics: vec![EnginePanicFault {
                victim: 0,
                panics_through: LadderRung::AnonymousOnly,
            }],
            ..RecoveryFaultPlan::default()
        },
        // Reachable only when the first crash-kernel boot fails.
        "recovery.supervisor.gen2.escalate" | "recovery.restart.names.read" => RecoveryFaultPlan {
            crash_boot_failures: 1,
            ..RecoveryFaultPlan::default()
        },
        _ => RecoveryFaultPlan::default(),
    }
}

/// Whether `outcome` is acceptable for `label` under the ReHype-style
/// per-point policy described in the module docs.
pub fn outcome_expected(
    label: &str,
    outcome: &CellOutcome,
    morph: MorphMode,
    rollback: bool,
) -> bool {
    let Some(point) = ow_crashpoint::spec(label) else {
        return false;
    };
    // With rung 0 enabled, a fresh panic-sealed epoch validates for every
    // cell, so the rollback absorbs the induced panic before the crash
    // kernel ever boots: the entire recovery side below the rollback is
    // simply never reached, and workload/panic-side cells must come back
    // intact the same way a full resurrection would (restart-delivery
    // semantics are identical, §3.5).
    if rollback {
        return match point.area {
            // The epoch seal is on the workload side (periodic cadence)
            // and on the panic path; a consumed point lets the retry seal.
            Area::Checkpoint => matches!(
                outcome,
                CellOutcome::NotReached | CellOutcome::RecoveredIntact
            ),
            // Rollback's own points are contained and fall through to the
            // ordinary full microreboot; the fallback marker only runs on
            // that fall-through path, which a healthy checkpoint never
            // takes.
            Area::Rollback => match label {
                "recovery.rollback.fallback.microreboot" => {
                    matches!(outcome, CellOutcome::NotReached)
                }
                _ => matches!(outcome, CellOutcome::RecoveredIntact),
            },
            // Workload-side tears and panic-path deaths are absorbed by
            // rung 0 (or never reached by this workload).
            Area::Syscall | Area::PageCache | Area::PageFault | Area::Vm | Area::Swap => matches!(
                outcome,
                CellOutcome::NotReached | CellOutcome::RecoveredIntact
            ),
            Area::PanicPath => matches!(outcome, CellOutcome::RecoveredIntact),
            // Everything below the rollback in the recovery pipeline is
            // unreachable when rung 0 absorbs the panic.
            Area::CrashBoot
            | Area::Kexec
            | Area::Reader
            | Area::Resurrect
            | Area::Ladder
            | Area::Supervisor
            | Area::Restart
            | Area::Adopt => matches!(outcome, CellOutcome::NotReached),
        };
    }
    match point.area {
        // Without rung 0 the rollback path never executes, and the
        // periodic seal tears the kernel mid-workload like any other
        // workload-side point.
        Area::Checkpoint => matches!(
            outcome,
            CellOutcome::NotReached | CellOutcome::RecoveredIntact
        ),
        Area::Rollback => matches!(outcome, CellOutcome::NotReached),
        // The lazy copy-on-access pull can fire inside the *new* kernel
        // while the resurrected crash procedure touches memory — still
        // inside per-process containment, so it may also degrade.
        Area::PageFault if label == "kernel.pagefault.lazy.pull" => matches!(
            outcome,
            CellOutcome::NotReached
                | CellOutcome::RecoveredIntact
                | CellOutcome::RecoveredDegraded(_)
        ),
        // Workload-side: full recovery, or the workload never took the
        // path. The writeback walker is shared with resurrection's buffer
        // flush, so it may instead fire recovery-side and degrade.
        Area::Syscall | Area::PageFault | Area::Vm | Area::Swap => matches!(
            outcome,
            CellOutcome::NotReached | CellOutcome::RecoveredIntact
        ),
        Area::PageCache => matches!(
            outcome,
            CellOutcome::NotReached
                | CellOutcome::RecoveredIntact
                | CellOutcome::RecoveredDegraded(_)
        ),
        // The panic path always runs; the watchdog retry must hand off.
        Area::PanicPath => matches!(outcome, CellOutcome::RecoveredIntact),
        // The recovery spine: a fault here loses the machine, contained.
        // The two morph halves are mode-dependent — a cold morph never
        // reaches the adopt path and a fully warm one never reclaims.
        Area::CrashBoot | Area::Kexec | Area::Supervisor => match label {
            "kernel.kexec.reclaim.memory" | "kernel.kexec.adopt.frames" => {
                matches!(outcome, CellOutcome::Abandoned(_) | CellOutcome::NotReached)
            }
            _ => matches!(outcome, CellOutcome::Abandoned(_)),
        },
        // Warm-morph adoption is validate-then-adopt with a per-structure
        // cold fallback: seal validation and the swap-bitmap copy are
        // contained and degrade to the cold path with full fidelity; the
        // cache re-chain runs inside the per-process attempt and retries
        // one rung weaker.
        Area::Adopt => match label {
            "recovery.adopt.cache.rebuild" => matches!(
                outcome,
                CellOutcome::NotReached | CellOutcome::RecoveredDegraded(_)
            ),
            _ => matches!(
                outcome,
                CellOutcome::NotReached | CellOutcome::RecoveredIntact
            ),
        },
        Area::Reader => match label {
            // Global readers run outside the per-process containment — a
            // crash in the spine read loses the machine. Under a warm
            // morph the best-effort adopt pass re-reads the header and
            // proc list first; an armed hit consumed there is absorbed by
            // the per-structure cold fallback and the spine read then
            // succeeds, so the recovery can also finish intact.
            "recovery.reader.header.validate" | "recovery.reader.proclist.walk" => {
                matches!(outcome, CellOutcome::Abandoned(_))
                    || (morph == MorphMode::Warm && matches!(outcome, CellOutcome::RecoveredIntact))
            }
            // The adopt pass's cache walk also reads every file table
            // before any per-process stage, with the same absorption.
            "recovery.reader.filetable.read" => {
                matches!(outcome, CellOutcome::RecoveredDegraded(_))
                    || (morph == MorphMode::Warm && matches!(outcome, CellOutcome::RecoveredIntact))
            }
            _ => matches!(outcome, CellOutcome::RecoveredDegraded(_)),
        },
        // Per-process stages: contained, retried at a weaker rung.
        Area::Resurrect => matches!(outcome, CellOutcome::RecoveredDegraded(_)),
        Area::Ladder => match label {
            // The rung transition itself is outside containment.
            "recovery.ladder.rung.degrade" => matches!(outcome, CellOutcome::Abandoned(_)),
            // The bottom rung dies inside containment: the process is
            // lost, the microreboot is not.
            _ => matches!(
                outcome,
                CellOutcome::ProcFailed(_)
                    | CellOutcome::RecoveredDegraded(LadderRung::CleanRestart)
            ),
        },
        // The gen-2 dead-list read is best-effort by design: its failure
        // falls back to registry names and clean restarts.
        Area::Restart => matches!(
            outcome,
            CellOutcome::RecoveredDegraded(LadderRung::CleanRestart)
        ),
    }
}

fn failure_text(e: &MicrorebootFailure) -> String {
    match e {
        MicrorebootFailure::NotPanicked => "kernel had not panicked".to_string(),
        MicrorebootFailure::SystemHalted(w) => format!("system halted: {w}"),
        MicrorebootFailure::CrashBootFailed(w) => format!("crash boot failed: {w}"),
        MicrorebootFailure::RecoveryFailed(w) => format!("recovery failed: {w}"),
    }
}

/// Boots a campaign machine in the cell's protection mode and starts
/// `app` with [`WARMUP_BATCHES`] batches; returns kernel, workload and pid.
fn warm_up(
    app: &str,
    protected: bool,
    seed: u64,
) -> ow_kernel::KernelResult<(Kernel, Box<dyn Workload>, u64)> {
    let config = KernelConfig {
        user_protection: protected,
        ..KernelConfig::default()
    };
    let mut k = ow_apps::boot(campaign_machine_config(), config)?;
    let mut workload = ow_apps::make_workload(app, workload_stream_seed(seed));
    let pid = workload.start(&mut k, WARMUP_BATCHES);
    Ok((k, workload, pid))
}

/// Runs one cell: boot, warm up, arm, drive, crash, microreboot, classify.
/// Everything happens on the calling thread (the arming is thread-scoped).
pub fn run_cell(spec: &CellSpec) -> CellRecord {
    ow_crashpoint::reset();
    let record = |outcome: CellOutcome, fired: bool, phase, verify| {
        let expected = outcome_expected(&spec.label, &outcome, spec.morph, spec.rollback);
        CellRecord {
            spec: spec.clone(),
            outcome,
            fired,
            phase,
            verify,
            expected,
        }
    };
    let skipped = |outcome, fired, phase| record(outcome, fired, phase, "skipped");
    if ow_crashpoint::spec(&spec.label).is_none() {
        return skipped(
            CellOutcome::Unexpected("label not in registry".into()),
            false,
            "none",
        );
    }

    let (mut k, mut workload, pid) = match warm_up(&spec.app, spec.protected, spec.seed) {
        Ok(started) => started,
        Err(e) => {
            return skipped(
                CellOutcome::Unexpected(format!("cold boot: {e}")),
                false,
                "none",
            )
        }
    };

    ow_crashpoint::arm(&spec.label, 1);
    let mut phase = "none";

    // Drive with the point armed: workload-side points tear the kernel
    // mid-operation, leaving physical memory frozen at the crash instant.
    let drove = supervisor::contain(|| {
        for _ in 0..DRIVE_BATCHES {
            workload.drive(&mut k, pid);
        }
    });
    match drove {
        Ok(()) => {}
        Err(msg) => match ow_crashpoint::fired_label(&msg) {
            Some(l) if l == spec.label => phase = "workload",
            _ => {
                return skipped(
                    CellOutcome::Unexpected(format!("foreign panic during drive: {msg}")),
                    false,
                    "workload",
                )
            }
        },
    }

    // The kernel now dies: either the crash point already fired, or this
    // is the induced oops that gives the cell its crash (panic-path and
    // recovery-side points fire from here on).
    if k.panicked.is_none() {
        let cause = PanicCause::Oops("crashpoint campaign");
        match supervisor::contain(|| k.do_panic(cause)) {
            Ok(_) => {}
            Err(msg) => match ow_crashpoint::fired_label(&msg) {
                Some(l) if l == spec.label => {
                    phase = "panic";
                    // The first attempt died inside the panic path; the
                    // point is consumed, so the watchdog's re-entry (a
                    // second do_panic on the frozen kernel) completes.
                    k.do_panic(cause);
                }
                _ => {
                    return skipped(
                        CellOutcome::Unexpected(format!("foreign panic in do_panic: {msg}")),
                        phase != "none",
                        phase,
                    )
                }
            },
        }
    }
    let not_handed_off = match &k.panicked {
        Some(PanicOutcome::Handoff(_)) => None,
        Some(PanicOutcome::SystemHalted(why)) => Some(format!("panic path halted: {why}")),
        None => Some("kernel did not panic".to_string()),
    };
    if let Some(why) = not_handed_off {
        return skipped(CellOutcome::Unexpected(why), phase != "none", phase);
    }

    // Flight-record invariant: the dead kernel's panic milestones must be
    // recoverable from the trace region before the crash kernel boots.
    let flight = FlightRecord::from_handoff(&k.machine.phys);
    let panic_steps = flight.event_counts().get(EventKind::PanicStep);

    let ow_config = OtherworldConfig {
        policy: PolicySource::Inline(ResurrectionPolicy::only([workload.name()])),
        recovery_faults: baseline_plan(&spec.label),
        morph: spec.morph,
        strategy: spec.strategy,
        rollback: spec.rollback,
        ..OtherworldConfig::default()
    };
    let result = microreboot(k, &ow_config);
    let fired = ow_crashpoint::fired().is_some();
    if fired && phase == "none" {
        phase = "recovery";
    }
    // Disarm before reconnect/verify: an unreached workload-side point
    // must not fire inside the *new* kernel while we check ground truth.
    ow_crashpoint::reset();

    let lost = |outcome| skipped(outcome, fired, phase);
    let (mut k2, report) = match result {
        Ok(ok) => ok,
        Err(e) => return lost(CellOutcome::Abandoned(failure_text(&e))),
    };
    if panic_steps == 0 {
        let why = "flight record lost the panic milestones";
        return lost(CellOutcome::Unexpected(why.into()));
    }
    // App ground truth against the shadow model.
    let (rung, verified) = match resume(&mut workload, &mut k2, &report) {
        Resumed::Absent => return lost(CellOutcome::ProcFailed("not in recovery report".into())),
        Resumed::Lost(why) => return lost(CellOutcome::ProcFailed(why)),
        // Descriptor invariant: the resurrected process must read back
        // through the checksummed descriptor codec.
        Resumed::Unreadable => {
            let why = "resurrected descriptor unreadable";
            return lost(CellOutcome::Unexpected(why.into()));
        }
        Resumed::Verified { rung, verdict } => (rung, verdict),
    };
    let verify = match &verified {
        Ok(VerifyResult::Intact) => "intact",
        Ok(VerifyResult::Corrupted(_)) => "corrupted",
        Ok(VerifyResult::Missing) => "missing",
        Err(_) => "panicked",
    };

    // Rung 0 (`RollbackInPlace`) is *stronger* than a full resurrection,
    // not weaker: only rungs below `Full` count as degraded.
    let outcome = if rung > LadderRung::Full {
        CellOutcome::RecoveredDegraded(rung)
    } else if !fired {
        match verified {
            Ok(VerifyResult::Intact) => CellOutcome::NotReached,
            _ => CellOutcome::Unexpected(format!(
                "point never fired yet clean recovery was not intact (verify: {verify})"
            )),
        }
    } else {
        match verified {
            Ok(VerifyResult::Intact) => CellOutcome::RecoveredIntact,
            Ok(VerifyResult::Corrupted(why)) => CellOutcome::DataDiverged(why),
            Ok(VerifyResult::Missing) => CellOutcome::ProcFailed("gone after recovery".into()),
            Err(msg) => CellOutcome::Unexpected(format!("verify panicked: {msg}")),
        }
    };
    record(outcome, fired, phase, verify)
}

/// Count-only discovery pass: run the cell flow for (`app`, `protected`)
/// with every marker counting instead of firing, through drive, panic and
/// a clean microreboot. Returns the reached labels with their hit counts,
/// sorted by label.
pub fn discover_points(app: &str, protected: bool, seed: u64) -> Vec<(&'static str, u64)> {
    ow_crashpoint::reset();
    let Ok((mut k, mut workload, pid)) = warm_up(app, protected, seed) else {
        return Vec::new();
    };
    ow_crashpoint::start_counting();
    for _ in 0..DRIVE_BATCHES {
        workload.drive(&mut k, pid);
    }
    k.do_panic(PanicCause::Oops("crashpoint discovery"));
    let ow_config = OtherworldConfig {
        policy: PolicySource::Inline(ResurrectionPolicy::only([workload.name()])),
        ..OtherworldConfig::default()
    };
    let _ = microreboot(k, &ow_config);
    let counts = ow_crashpoint::take_counts();
    ow_crashpoint::reset();
    counts
}

/// Configuration of a crash-point campaign (a sub-matrix selection).
#[derive(Debug, Clone)]
pub struct CrashpointCampaignConfig {
    /// Labels to arm; empty = every registry label.
    pub points: Vec<String>,
    /// Applications; empty = every Table 5 app.
    pub apps: Vec<String>,
    /// Protection modes; empty = both.
    pub modes: Vec<bool>,
    /// Base seed (cells derive theirs from label/app/mode, see
    /// [`cell_seed`]).
    pub seed: u64,
    /// Worker threads (`0` = auto). Output is identical for every value.
    pub jobs: usize,
    /// Morph mode every cell's recovery runs under (the warm/cold half of
    /// the four-configuration safety matrix).
    pub morph: MorphMode,
    /// Page-materialization strategy every cell runs under (the
    /// eager/lazy half of the matrix).
    pub strategy: ResurrectionStrategy,
    /// Whether every cell's recovery runs with rollback-in-place enabled
    /// (the rung-0 arm of the campaign).
    pub rollback: bool,
}

impl Default for CrashpointCampaignConfig {
    fn default() -> Self {
        CrashpointCampaignConfig {
            points: Vec::new(),
            apps: Vec::new(),
            modes: Vec::new(),
            seed: CRASHPOINT_SEED,
            jobs: 0,
            morph: MorphMode::Cold,
            strategy: ResurrectionStrategy::CopyPages,
            rollback: false,
        }
    }
}

/// The classified matrix.
#[derive(Debug, Clone)]
pub struct CrashpointCampaignResult {
    /// Every cell, in matrix order (label-major, then app, then mode).
    pub cells: Vec<CellRecord>,
    /// Cells whose outcome violated the per-point policy.
    pub unexpected: usize,
}

impl CrashpointCampaignResult {
    /// Tally of cells per outcome kind, sorted by kind name.
    pub fn by_kind(&self) -> Vec<(&'static str, usize)> {
        let mut map = std::collections::BTreeMap::new();
        for c in &self.cells {
            *map.entry(c.outcome.kind()).or_insert(0) += 1;
        }
        map.into_iter().collect()
    }
}

/// Enumerates and runs the matrix on the deterministic parallel engine.
pub fn campaign_crashpoints(cfg: &CrashpointCampaignConfig) -> CrashpointCampaignResult {
    let points: Vec<String> = if cfg.points.is_empty() {
        REGISTRY.iter().map(|p| p.label.to_string()).collect()
    } else {
        cfg.points.clone()
    };
    let apps: Vec<String> = if cfg.apps.is_empty() {
        ow_apps::workload::TABLE5_APPS
            .iter()
            .map(|a| a.to_string())
            .collect()
    } else {
        cfg.apps.clone()
    };
    let modes: Vec<bool> = if cfg.modes.is_empty() {
        vec![false, true]
    } else {
        cfg.modes.clone()
    };

    let mut specs = Vec::new();
    for label in &points {
        for app in &apps {
            for &protected in &modes {
                specs.push(CellSpec {
                    label: label.clone(),
                    app: app.clone(),
                    protected,
                    seed: cell_seed(cfg.seed, label, app, protected),
                    morph: cfg.morph,
                    strategy: cfg.strategy,
                    rollback: cfg.rollback,
                });
            }
        }
    }

    let results = engine::parallel_map(cfg.jobs, &specs, |spec, _| run_cell(spec));
    let cells: Vec<CellRecord> = specs
        .iter()
        .zip(results)
        .map(|(spec, r)| match r {
            Ok(rec) => rec,
            Err(msg) => CellRecord {
                spec: spec.clone(),
                outcome: CellOutcome::Unexpected(format!("cell harness panicked: {msg}")),
                fired: false,
                phase: "none",
                verify: "skipped",
                expected: false,
            },
        })
        .collect();
    let unexpected = cells.iter().filter(|c| !c.expected).count();
    CrashpointCampaignResult { cells, unexpected }
}

/// Stable JSON export of a campaign (the artifact the determinism gate
/// diffs across `--jobs` values).
pub fn crashpoints_json(cfg: &CrashpointCampaignConfig, res: &CrashpointCampaignResult) -> Value {
    let cells: Vec<Value> = res
        .cells
        .iter()
        .map(|c| {
            Value::obj([
                ("label", Value::Str(c.spec.label.clone())),
                ("app", Value::Str(c.spec.app.clone())),
                (
                    "mode",
                    Value::Str(
                        if c.spec.protected {
                            "protected"
                        } else {
                            "unprotected"
                        }
                        .to_string(),
                    ),
                ),
                ("seed", Value::Str(format!("{:#018x}", c.spec.seed))),
                ("fired", Value::Bool(c.fired)),
                ("phase", Value::Str(c.phase.to_string())),
                ("outcome", Value::Str(c.outcome.kind().to_string())),
                ("detail", Value::Str(c.outcome.detail().to_string())),
                ("verify", Value::Str(c.verify.to_string())),
                ("expected", Value::Bool(c.expected)),
            ])
        })
        .collect();
    let by_kind: Vec<(String, Value)> = res
        .by_kind()
        .into_iter()
        .map(|(k, n)| (k.to_string(), Value::from(n as f64)))
        .collect();
    Value::obj([
        ("schema_version", Value::from(1.0)),
        ("campaign", Value::Str("crashpoints".to_string())),
        ("seed", Value::Str(format!("{:#018x}", cfg.seed))),
        ("morph", Value::from(cfg.morph.name())),
        ("strategy", Value::from(cfg.strategy.name())),
        ("rollback", Value::Bool(cfg.rollback)),
        ("cells_total", Value::from(res.cells.len() as f64)),
        ("unexpected", Value::from(res.unexpected as f64)),
        ("by_outcome", Value::Object(by_kind.into_iter().collect())),
        ("cells", Value::Array(cells)),
    ])
}
