//! The microreboot orchestrator: panic → crash-kernel boot → resurrection →
//! crash procedures → morph (the five stages of §3), run under the
//! resurrection supervisor.
//!
//! The supervisor makes the recovery path itself fault-tolerant
//! (ReHype-style): every per-process engine call runs inside a panic
//! containment boundary and a watchdog cycle budget, hard failures retry
//! down a degradation ladder ([`LadderRung`]), and when the crash kernel
//! itself fails — boot failure or a storm of per-process faults — recovery
//! escalates to a restart-only generation-2 crash kernel instead of giving
//! up on the machine.

use crate::{
    config::{LadderRung, MorphMode, OtherworldConfig, PolicySource},
    policy::ResurrectionPolicy,
    reader::{self, ReadError},
    resurrect::{self, DeadKernel},
    rollback,
    stats::{MicrorebootReport, ProcOutcome, ProcReport, ReadKind, ReadStats, SupervisorSummary},
    supervisor,
};
use ow_kernel::{
    kexec::{AdoptPlan, AdoptedFrames},
    layout::{pstate, PageCacheNode, WarmSeal},
    program::{Program, StepResult, UserApi},
    syscall::KernelApi,
    CrashAction, CrashBoot, HandoffInfo, Kernel, KernelConfig, PanicOutcome, ProgramRegistry,
    SpawnSpec,
};
use ow_layout::Record;
use ow_trace::EventKind;
use std::fmt;

/// Ways a microreboot can fail outright (Table 5's "failure to boot the
/// crash kernel").
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MicrorebootFailure {
    /// The panic path could not transfer control (corrupted handoff
    /// structures, unhandled double fault, stall with no watchdog, ...).
    SystemHalted(String),
    /// Control transferred but the crash kernel failed to initialize (and
    /// the supervisor's generation budget, if any, is exhausted).
    CrashBootFailed(String),
    /// The kernel has not panicked; nothing to do.
    NotPanicked,
    /// The recovery path itself failed after the crash kernel booted: a
    /// panic escaped to the outer containment boundary, or — with the
    /// supervisor disabled — an engine panic, a stalled resurrection, or a
    /// panic storm with no generations left. Always a classified error,
    /// never a propagated panic.
    RecoveryFailed(String),
}

impl fmt::Display for MicrorebootFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MicrorebootFailure::SystemHalted(why) => write!(f, "system halted: {why}"),
            MicrorebootFailure::CrashBootFailed(why) => {
                write!(f, "crash kernel boot failed: {why}")
            }
            MicrorebootFailure::NotPanicked => write!(f, "kernel has not panicked"),
            MicrorebootFailure::RecoveryFailed(why) => write!(f, "recovery failed: {why}"),
        }
    }
}

impl std::error::Error for MicrorebootFailure {}

/// A do-nothing program used to bootstrap a process slot before the real
/// program object is attached (restart path).
struct StubProgram;

impl Program for StubProgram {
    fn step(&mut self, _api: &mut dyn UserApi) -> StepResult {
        StepResult::Exited(0)
    }
    fn save_state(&mut self, _api: &mut dyn UserApi) {}
}

/// Performs a complete microreboot of a panicked kernel, consuming it and
/// returning the new main kernel (the former crash kernel, morphed) plus a
/// report.
///
/// # Errors
///
/// Fails when the handoff never happened ([`PanicOutcome::SystemHalted`]),
/// the crash kernel could not boot within the supervisor's generation
/// budget, or the recovery path itself died
/// ([`MicrorebootFailure::RecoveryFailed`]). Per-process resurrection
/// failures do *not* fail the microreboot; they are recorded in the report.
/// No fault injected into the recovery path can propagate a panic out of
/// this function: the whole post-handoff path runs inside
/// [`supervisor::contain`].
pub fn microreboot(
    mut dead: Kernel,
    config: &OtherworldConfig,
) -> Result<(Kernel, MicrorebootReport), MicrorebootFailure> {
    let info = match &dead.panicked {
        Some(PanicOutcome::Handoff(info)) => *info,
        Some(PanicOutcome::SystemHalted(why)) => {
            return Err(MicrorebootFailure::SystemHalted((*why).to_string()))
        }
        None => return Err(MicrorebootFailure::NotPanicked),
    };

    let t_panic = dead.machine.clock.now();

    // Recover the dead kernel's flight record *before* booting the crash
    // kernel: boot re-arms (and zeroes) the trace region for the next
    // generation. The region's location comes from the handoff block, and
    // recovery is validated record-by-record — wild-write damage costs
    // individual records, never the whole recording.
    let flight = ow_trace::FlightRecord::from_handoff(&dead.machine.phys);

    // Rung 0: rollback-in-place. When the dying kernel sealed a fresh
    // AT_PANIC epoch that survives validation, the record set is restored
    // in place and the *same* generation resumes — no crash-kernel boot at
    // all. Any failure (validation refusal, an injected crash-point panic
    // inside the attempt) falls through to the microreboot below with the
    // record state untouched.
    if config.rollback {
        let rb_flight = flight.clone();
        match supervisor::contain(|| rollback::attempt(&mut dead, config, rb_flight, t_panic)) {
            Ok(Some(report)) => return Ok((dead, report)),
            _ => {
                // The decision to abandon rung 0 is itself a labeled (and
                // contained) step of the recovery path.
                let _ = supervisor::contain(|| {
                    ow_crashpoint::crash_point!("recovery.rollback.fallback.microreboot");
                });
            }
        }
    }

    // Outermost containment boundary: even a bug in the supervisor itself
    // surfaces as a classified failure, never an unwinding panic.
    match supervisor::contain(move || run_recovery(dead, info, config, flight, t_panic)) {
        Ok(result) => result,
        Err(msg) => Err(MicrorebootFailure::RecoveryFailed(format!(
            "recovery panicked: {msg}"
        ))),
    }
}

/// A hard per-process recovery failure, classified for the ladder.
enum HardFault {
    /// Corruption made the engine return a read error.
    Read(ReadError),
    /// The engine panicked and the panic was contained.
    Panic(String),
    /// The recovery watchdog cut off a blown cycle budget.
    Budget,
}

impl HardFault {
    /// Stable class code recorded in [`EventKind::RecoveryDegraded`].
    fn class(&self) -> u64 {
        match self {
            HardFault::Read(_) => 0,
            HardFault::Panic(_) => 1,
            HardFault::Budget => 2,
        }
    }
}

/// Stage-4 outcome of the full resurrection pass.
enum StageOutcome {
    /// Resurrection ran to completion (individual processes may have
    /// failed or degraded).
    Done(Vec<ProcReport>),
    /// Too many processes hit hard recovery faults: this crash-kernel
    /// generation is not trustworthy.
    PanicStorm(String),
}

/// Everything after the handoff, one crash-kernel generation per pass:
/// stage-3 boot, stage-4 resurrection under the supervisor, stage-5 morph.
/// A failed boot and a panic storm end a generation the same way: the next
/// one boots restart-only and trusts nothing of the dead image.
fn run_recovery(
    dead: Kernel,
    info: HandoffInfo,
    config: &OtherworldConfig,
    flight: ow_trace::FlightRecord,
    t_panic: u64,
) -> Result<(Kernel, MicrorebootReport), MicrorebootFailure> {
    let Kernel {
        mut machine,
        registry,
        generation: dead_generation,
        ..
    } = dead;
    let enabled = config.supervisor.enabled;
    let mut summary = SupervisorSummary {
        enabled,
        ..SupervisorSummary::default()
    };
    // Warm morph implies a warm crash-kernel boot: the boot probes the
    // dead kernel's seal and charges validation probes instead of full
    // re-initialization when it is intact.
    let mut kind = match config.morph {
        MorphMode::Warm => CrashBoot::Warm,
        MorphMode::Cold => CrashBoot::Cold,
    };
    let mut injected_boot_failures = 0u32;
    // Cause code of the escalation that started this generation, recorded
    // in `EventKind::RecoveryEscalated`: 0 = boot failure, 1 = panic storm.
    let mut escalation: Option<u64> = None;
    let mut first_boot = None;
    let mut policy = None;

    let (mut k, procs_report, adopt, stats, integrity_fixes, t_booted) = loop {
        summary.crash_boot_attempts += 1;
        let gen_offset = summary.crash_boot_attempts - 1;

        // Stage 3: the crash kernel initializes itself inside its
        // reservation.
        let booted = if injected_boot_failures < config.recovery_faults.crash_boot_failures {
            injected_boot_failures += 1;
            let why = "injected fault: crash kernel panicked during boot";
            Err((why.to_string(), machine))
        } else {
            let handoff = HandoffInfo {
                generation: info.generation + gen_offset,
                ..info
            };
            let kcfg = config.crash_kernel.clone();
            Kernel::try_boot_crash(machine, kcfg, registry.clone(), handoff, kind)
                .map_err(|(e, m)| (e.to_string(), *m))
        };

        // The escalation cause, and the failure to report if no
        // generation is left.
        let (cause, failure) = match booted {
            Err((why, m)) => {
                machine = m;
                (0, MicrorebootFailure::CrashBootFailed(why))
            }
            Ok(mut k) => {
                if let Some(cause) = escalation {
                    k.trace_event(EventKind::RecoveryEscalated, 0, gen_offset as u64, cause);
                }
                let t_booted = *first_boot.get_or_insert(k.machine.clock.now());
                let policy = policy.get_or_insert_with(|| resolve_policy(&mut k, &config.policy));

                // Stage 4: resurrection. Read accounting restarts with
                // every generation.
                let mut stats = ReadStats::default();
                let mut integrity_fixes = 0u64;
                // Warm morph: validate the dead kernel's seal and build the
                // adoption plan, per-structure — whatever fails its CRC
                // falls back to the cold rebuild.
                let adopt = if kind == CrashBoot::Warm {
                    build_adopt_plan(&mut k, info, dead_generation, &mut stats)
                } else {
                    AdoptPlan::default()
                };
                let stage = if kind == CrashBoot::RestartOnly {
                    restart_only_recovery(&mut k, &registry, policy, info, &mut stats)
                } else {
                    resurrect_all(
                        &mut k,
                        &registry,
                        policy,
                        info,
                        config,
                        dead_generation,
                        &adopt,
                        &mut stats,
                        &mut integrity_fixes,
                        &mut summary,
                    )?
                };
                match stage {
                    StageOutcome::Done(procs) => {
                        break (k, procs, adopt, stats, integrity_fixes, t_booted)
                    }
                    // The engine keeps dying inside this generation; stop
                    // trusting it.
                    StageOutcome::PanicStorm(why) => {
                        machine = k.machine;
                        let why = format!("panic storm with no generations left: {why}");
                        (1, MicrorebootFailure::RecoveryFailed(why))
                    }
                }
            }
        };
        if !enabled || summary.crash_boot_attempts >= supervisor::MAX_GENERATIONS {
            return Err(failure);
        }
        summary.escalated = true;
        escalation = Some(cause);
        kind = CrashBoot::RestartOnly;
        // The supervisor itself is escalating to a fresh generation; a
        // fault *here* is a fault in the last line of defense.
        ow_crashpoint::crash_point!("recovery.supervisor.gen2.escalate");
    };
    let t_resurrected = k.machine.clock.now();

    // Stage 5: morph into the main kernel and install a fresh crash kernel
    // — adopting the validated frame state when the plan carries it.
    k.morph_into_main_with(&adopt)
        .map_err(|e| MicrorebootFailure::CrashBootFailed(format!("morph: {e}")))?;
    let t_done = k.machine.clock.now();

    summary.degraded_procs = procs_report
        .iter()
        .filter(|p| p.rung != LadderRung::Full)
        .count() as u32;

    let secs = |c: u64| c as f64 / ow_simhw::clock::CYCLES_PER_SEC as f64;
    let report = MicrorebootReport {
        generation: k.generation,
        adoption: crate::stats::AdoptionSummary {
            frames: adopt.frames.is_some(),
            swap: adopt.swap.is_some_and(|i| k.active_swap == i as usize),
            cache: adopt.cache,
        },
        procs: procs_report,
        stats,
        crash_boot_seconds: secs(t_booted - t_panic),
        resurrection_seconds: secs(t_resurrected - t_booted),
        morph_seconds: secs(t_done - t_resurrected),
        total_seconds: secs(t_done - t_panic),
        rollback_seconds: 0.0,
        rollback: None,
        supervisor: summary,
        integrity_fixes,
        flight,
    };
    Ok((k, report))
}

/// The supervised stage-4 pass: every policy-selected process gets the full
/// engine, each attempt wrapped in panic containment and a watchdog budget,
/// degrading one ladder rung per hard failure down to a clean restart.
#[allow(clippy::too_many_arguments)]
fn resurrect_all(
    k: &mut Kernel,
    registry: &ProgramRegistry,
    policy: &ResurrectionPolicy,
    info: HandoffInfo,
    config: &OtherworldConfig,
    dead_generation: u32,
    adopt: &AdoptPlan,
    stats: &mut ReadStats,
    integrity_fixes: &mut u64,
    summary: &mut SupervisorSummary,
) -> Result<StageOutcome, MicrorebootFailure> {
    let enabled = config.supervisor.enabled;
    let plan = &config.recovery_faults;
    let mut reports = Vec::new();

    let Ok(header) = reader::read_header(&k.machine.phys, info.dead_kernel_frame, stats) else {
        return Ok(StageOutcome::Done(reports));
    };

    // The dead kernel's active swap partition, reopened by symbolic device
    // name from its descriptor (§3.3). The validated seal is authoritative
    // for which partition was active; without one, fall back to the
    // generation-parity convention.
    let dead_swap_name = format!("swap{}", adopt.swap.unwrap_or(dead_generation % 2));
    let dead_swap = reader::read_swap_descs(&k.machine.phys, &header, stats)
        .ok()
        .and_then(|descs| {
            descs
                .into_iter()
                .find(|(_, d)| d.dev_name == dead_swap_name)
        })
        .and_then(|(addr, d)| ow_kernel::swap::SwapArea::from_desc(&mut k.machine, &d, addr).ok());

    // Warm morph: adopt the dead kernel's CRC-validated slot bitmap into
    // our own area on the same device and make that area active — dead
    // swapped PTEs then install verbatim, with zero migration I/O.
    let mut swap_adopted = false;
    if let (Some(idx), Some(dead_area)) = (adopt.swap, dead_swap.as_ref()) {
        if let Some(ours) = k.swaps.get(idx as usize).cloned() {
            // Contained: a fault here falls back to per-page migration.
            let adopted = supervisor::contain(|| {
                ow_crashpoint::crash_point!("recovery.adopt.swap.bitmap");
                ours.adopt_bitmap(&mut k.machine, dead_area.bitmap, dead_area.nslots)
            });
            if matches!(adopted, Ok(Ok(()))) {
                k.active_swap = idx as usize;
                swap_adopted = true;
            }
        }
    }

    // §7 extension: restore consistent pipes globally before the processes
    // that reference them (§3.3's semaphore rule — a pipe locked at crash
    // time was mid-update and is lost).
    let pipes_restored = if config.resurrect_pipes {
        Some(restore_pipes(k, &header, stats))
    } else {
        None
    };

    let selected: Vec<_> = reader::read_proc_list(&k.machine.phys, &header, stats)
        .unwrap_or_default()
        .into_iter()
        .filter(|(_, d)| d.state != pstate::EXITED && policy.selects(&d.name))
        .collect();

    let budget = supervisor::per_process_budget(&k.machine.cost, info.crash_frames);
    let mut dog = ow_simhw::watchdog::Watchdog::new(budget);
    dog.enable(k.machine.clock.now());

    // Distinct processes that hit at least one hard fault — the storm
    // counter. Counting processes (not raw panics) means one thoroughly
    // broken process walking the whole ladder never triggers escalation by
    // itself.
    let mut storm_procs = 0u32;

    for (idx, (_addr, old_desc)) in selected.iter().enumerate() {
        if enabled && storm_procs >= supervisor::ESCALATION_THRESHOLD {
            return Ok(StageOutcome::PanicStorm(format!(
                "{storm_procs} of {} processes hit hard recovery faults",
                selected.len()
            )));
        }
        let before = stats.total_bytes;
        let before_pt = stats.pt_bytes;
        let mut rung = LadderRung::Full;
        let mut attempts = 0u32;
        let mut resurrected = None;

        let (outcome, new_pid) = loop {
            attempts += 1;
            // Bottom rung: abandon the dead image, restart from the
            // registry.
            if rung == LadderRung::CleanRestart {
                break clean_restart(k, registry, &old_desc.name).unwrap_or_else(|panicked| {
                    summary.contained_panics += 1;
                    (panicked, None)
                });
            }

            dog.rearm(k.machine.clock.now());
            if rung == LadderRung::Full {
                if let Some(s) = plan.stalls.iter().find(|s| s.victim == idx) {
                    // Injected stall: the engine spins in a corrupted
                    // structure, burning simulated cycles.
                    k.machine.clock.charge(s.cycles);
                }
            }
            // Everything the engine creates from here on has pid >= the
            // watermark and is scrubbed if the attempt dies.
            let watermark = k.next_pid;
            let inject_panic = plan
                .engine_panics
                .iter()
                .any(|p| p.victim == idx && rung <= p.panics_through);
            let dead_view = DeadKernel {
                header: &header,
                swap: dead_swap.as_ref(),
                crash_region: (info.crash_base, info.crash_frames),
                resurrect_sockets: config.resurrect_sockets,
                pipes_restored,
                swap_adopted: swap_adopted && rung < LadderRung::NoSwapMigration,
                cache_adopted: adopt.cache && rung < LadderRung::AnonymousOnly,
            };
            let attempt = supervisor::contain(|| {
                if inject_panic {
                    panic!("injected fault: resurrection engine panic");
                }
                resurrect::resurrect_process(k, &dead_view, old_desc, config.strategy, rung, stats)
                    .map(|r| {
                        let (outcome, new_pid) = finish_process(
                            k,
                            registry,
                            &old_desc.name,
                            r.new_pid,
                            r.failed_resources,
                            old_desc.crash_proc != 0,
                        );
                        (r, outcome, new_pid)
                    })
            });
            let over_budget = dog.check_fire(k.machine.clock.now());

            let hard = match attempt {
                Err(msg) => {
                    summary.contained_panics += 1;
                    k.trace_event(
                        EventKind::RecoveryPanicContained,
                        old_desc.pid,
                        rung as u64,
                        0,
                    );
                    HardFault::Panic(msg)
                }
                Ok(Err(e)) => HardFault::Read(e),
                Ok(Ok(_)) if over_budget => {
                    // The attempt "finished" only because simulated time
                    // kept running; past the budget the watchdog has
                    // already cut it off, so the late result is discarded.
                    summary.watchdog_fires += 1;
                    k.trace_event(EventKind::RecoveryWatchdogFired, old_desc.pid, budget, 0);
                    HardFault::Budget
                }
                Ok(Ok((r, outcome, new_pid))) => {
                    resurrected = Some(r);
                    break (outcome, new_pid);
                }
            };

            // Hard failure: scrub whatever the attempt half-created, then
            // retry one rung weaker (or fail legacy-style with the
            // supervisor off).
            scrub_partial(k, watermark);
            if !enabled {
                match hard {
                    HardFault::Read(e) => break (ProcOutcome::FailedCorrupt(e.to_string()), None),
                    HardFault::Panic(msg) => {
                        return Err(MicrorebootFailure::RecoveryFailed(format!(
                            "unsupervised resurrection engine panic: {msg}"
                        )))
                    }
                    HardFault::Budget => {
                        return Err(MicrorebootFailure::RecoveryFailed(
                            "resurrection stalled past its cycle budget with the supervisor \
                             disabled; recovery never completes"
                                .to_string(),
                        ))
                    }
                }
            }
            let class = hard.class();
            // Hard faults are classified above the bottom rung, so weaker()
            // always succeeds here; the fallback keeps the ladder monotone
            // even if classification is ever wrong.
            rung = rung.weaker().unwrap_or(LadderRung::CleanRestart);
            // The ladder transition is recovery-manager code running
            // outside any containment scope — ReHype's hardest case.
            ow_crashpoint::crash_point!("recovery.ladder.rung.degrade");
            k.trace_event(
                EventKind::RecoveryDegraded,
                old_desc.pid,
                rung as u64,
                class,
            );
        };

        // A retry means a hard fault.
        if attempts > 1 {
            storm_procs += 1;
        }
        let mut report =
            ProcReport::new(old_desc.pid, old_desc.name.clone(), outcome, new_pid, rung);
        report.attempts = attempts;
        report.bytes_read = stats.total_bytes - before;
        report.pt_bytes = stats.pt_bytes - before_pt;
        if let Some(r) = resurrected {
            *integrity_fixes += r.integrity_fixes;
            report.failed_resources = r.failed_resources;
            report.pages_copied = r.pages.copied;
            report.pages_mapped = r.pages.mapped;
            report.pages_swapped = r.pages.swapped;
        }
        reports.push(report);
    }
    Ok(StageOutcome::Done(reports))
}

/// Reaps every process the dead attempt created (pids at or above the
/// watermark). A descriptor too corrupt even to reap is dropped from the
/// process table; morph's memory reclaim frees its orphaned frames.
fn scrub_partial(k: &mut Kernel, watermark: u64) {
    let pids: Vec<u64> = k
        .procs
        .iter()
        .map(|p| p.pid)
        .filter(|&p| p >= watermark)
        .collect();
    for pid in pids {
        if k.reap(pid).is_err() {
            k.procs.retain(|p| p.pid != pid);
        }
    }
}

/// Generation-2 recovery: the dead image is not trusted at all. Names of
/// the processes to revive come from a *contained* read of the dead process
/// list (best effort), falling back to the program registry; each is
/// started fresh via the bottom ladder rung.
fn restart_only_recovery(
    k: &mut Kernel,
    registry: &ProgramRegistry,
    policy: &ResurrectionPolicy,
    info: HandoffInfo,
    stats: &mut ReadStats,
) -> StageOutcome {
    let named: Vec<(u64, String)> = supervisor::contain(|| {
        // Best-effort dead-list read: a fault here falls back to the
        // registry names instead of killing gen-2 recovery.
        ow_crashpoint::crash_point!("recovery.restart.names.read");
        let header = reader::read_header(&k.machine.phys, info.dead_kernel_frame, stats).ok()?;
        let list = reader::read_proc_list(&k.machine.phys, &header, stats).ok()?;
        Some(
            list.into_iter()
                .filter(|(_, d)| d.state != pstate::EXITED && policy.selects(&d.name))
                .map(|(_, d)| (d.pid, d.name))
                .collect::<Vec<_>>(),
        )
    })
    .ok()
    .flatten()
    .unwrap_or_else(|| {
        registry
            .names()
            .into_iter()
            .filter(|n| policy.selects(n))
            .map(|n| (0, n))
            .collect()
    });

    let reports = named.into_iter().map(|(old_pid, name)| {
        let (outcome, new_pid) =
            clean_restart(k, registry, &name).unwrap_or_else(|panicked| (panicked, None));
        ProcReport::new(old_pid, name, outcome, new_pid, LadderRung::CleanRestart)
    });
    StageOutcome::Done(reports.collect())
}

/// The bottom ladder rung, shared by the ladder and the restart-only
/// generation: starts a fresh instance of `name` from the program
/// registry, abandoning the dead image entirely. Contained — a panicking
/// `fresh` factory costs this process only and comes back as the `Err`
/// outcome.
fn clean_restart(
    k: &mut Kernel,
    registry: &ProgramRegistry,
    name: &str,
) -> Result<(ProcOutcome, Option<u64>), ProcOutcome> {
    supervisor::contain(|| {
        ow_crashpoint::crash_point!("recovery.ladder.clean.restart");
        let Some(image) = registry.get(name) else {
            return (ProcOutcome::FailedNoExecutable, None);
        };
        match k.spawn(SpawnSpec::new(name, Box::new(StubProgram))) {
            Ok(pid) => {
                let fresh = {
                    let mut api = KernelApi::new(k, pid);
                    (image.fresh)(&mut api, &[])
                };
                if let Ok(p) = k.proc_mut(pid) {
                    p.program = Some(fresh);
                }
                (ProcOutcome::RestartedClean, Some(pid))
            }
            Err(e) => (
                ProcOutcome::FailedCorrupt(format!("clean restart: {e}")),
                None,
            ),
        }
    })
    .map_err(|msg| ProcOutcome::FailedCorrupt(format!("clean restart panicked: {msg}")))
}

/// Reads the resurrection policy, possibly from the re-mounted filesystem
/// (the paper's configuration file for autonomic recovery, §3.3).
fn resolve_policy(k: &mut Kernel, source: &PolicySource) -> ResurrectionPolicy {
    match source {
        PolicySource::Inline(p) => p.clone(),
        PolicySource::File(path) => {
            let fs = k.fs.clone();
            let content = fs
                .lookup(&mut k.machine, path)
                .ok()
                .flatten()
                .and_then(|ino| {
                    let size = fs.size_of(&mut k.machine, ino).ok()?;
                    let mut buf = vec![0u8; size as usize];
                    fs.read_at(&mut k.machine, ino, 0, &mut buf).ok()?;
                    String::from_utf8(buf).ok()
                });
            content
                .and_then(|s| ResurrectionPolicy::from_json(&s).ok())
                .unwrap_or_else(ResurrectionPolicy::all)
        }
    }
}

/// Warm-morph validation: reads the dead kernel's seal and builds the
/// adoption plan. Fully contained — a panic anywhere inside validation
/// yields the empty plan (pure cold fallback), never a failed microreboot.
fn build_adopt_plan(
    k: &mut Kernel,
    info: HandoffInfo,
    dead_generation: u32,
    stats: &mut ReadStats,
) -> AdoptPlan {
    supervisor::contain(|| try_build_adopt_plan(k, info, dead_generation, stats))
        .ok()
        .flatten()
        .unwrap_or_default()
}

/// Per-structure validate-then-adopt: each of the three sealed structures
/// (frame bitmap, swap-slot map, page cache) is CRC-checked against the
/// dead bytes independently; whatever fails drops out of the plan and the
/// cold rebuild covers it. Returns `None` when there is no usable seal at
/// all (fresh boot, stale generation, or unreadable record).
fn try_build_adopt_plan(
    k: &mut Kernel,
    info: HandoffInfo,
    dead_generation: u32,
    stats: &mut ReadStats,
) -> Option<AdoptPlan> {
    // Validation happens between boot and resurrection — recovery-manager
    // code walking untrusted memory.
    ow_crashpoint::crash_point!("recovery.adopt.seal.validate");
    let header = reader::read_header(&k.machine.phys, info.dead_kernel_frame, stats).ok()?;
    let addr = ow_kernel::layout::seal_addr(header.base_frame, header.nframes);
    let (seal, _) = WarmSeal::read(&k.machine.phys, addr).ok()?;
    if seal.valid == 0 || seal.generation != dead_generation {
        return None;
    }
    let mut plan = AdoptPlan::default();

    // Frame-allocator bitmap.
    let falloc_bytes = seal.falloc_capacity.div_ceil(8);
    let cost = k.machine.cost.validate_byte * falloc_bytes;
    k.machine.clock.charge(cost);
    if ow_layout::crc::crc32_range(&k.machine.phys, seal.falloc_bitmap, falloc_bytes)
        .ok()
        .is_some_and(|c| c == seal.falloc_crc)
    {
        if let Ok(used) = seal.read_falloc_bitmap(&k.machine.phys) {
            plan.frames = Some(AdoptedFrames {
                base: seal.falloc_base,
                used,
                dead_kernel: (header.base_frame, header.nframes),
            });
        }
    }

    // Swap-slot bitmap — adoptable independently of the frames (the slots
    // live on disk; only the bitmap bytes are revalidated).
    let cost = k.machine.cost.validate_byte * seal.swap_nslots as u64;
    k.machine.clock.charge(cost);
    if ow_layout::crc::crc32_range(&k.machine.phys, seal.swap_bitmap, seal.swap_nslots as u64)
        .ok()
        .is_some_and(|c| c == seal.swap_crc)
        && k.swaps
            .get(seal.swap_index as usize)
            .is_some_and(|a| a.nslots == seal.swap_nslots)
    {
        plan.swap = Some(seal.swap_index);
    }

    // Page cache — only meaningful when the frames ride along (a cold
    // reclaim would free the adopted node frames out from under it).
    if plan.frames.is_some() {
        let cost = k.machine.cost.validate_byte * seal.cache_nodes * PageCacheNode::SIZE;
        k.machine.clock.charge(cost);
        if cache_walk_crc(k, &header, stats) == Some((seal.cache_nodes, seal.cache_crc)) {
            plan.cache = true;
        }
    }
    Some(plan)
}

/// Replays the sealer's page-cache walk over the dead structures with the
/// validated readers: live processes in list order, file-table slots in
/// index order, shared records deduplicated by address, nodes in chain
/// order. Any divergence — a node count or CRC mismatch, or a reader
/// failure anywhere — returns `None` and the cache is rebuilt cold.
fn cache_walk_crc(
    k: &mut Kernel,
    header: &ow_layout::KernelHeader,
    stats: &mut ReadStats,
) -> Option<(u64, u32)> {
    let mut hasher = ow_layout::crc::Crc32::new();
    let mut nodes = 0u64;
    let mut seen: Vec<u64> = Vec::new();
    let list = reader::read_proc_list(&k.machine.phys, header, stats).ok()?;
    for (_addr, desc) in list {
        if desc.state == pstate::EXITED || desc.files == 0 {
            continue;
        }
        let tab = reader::read_file_table(&k.machine.phys, &desc, stats).ok()?;
        for &frec_addr in &tab.fds {
            if frec_addr == 0 || seen.contains(&frec_addr) {
                continue;
            }
            seen.push(frec_addr);
            let frec = reader::read_file_record(&k.machine.phys, frec_addr, stats).ok()?;
            let max_nodes = (frec.fsize / ow_simhw::PAGE_SIZE as u64 + 8) as usize;
            let chain =
                reader::read_cache_chain(&k.machine.phys, frec.cache_head, max_nodes, stats)
                    .ok()?;
            for (node_addr, _node) in chain {
                hasher
                    .update_range(&k.machine.phys, node_addr, PageCacheNode::SIZE)
                    .ok()?;
                nodes += 1;
            }
        }
    }
    Some((nodes, hasher.finish()))
}

/// §7 extension: recreates every consistent pipe of the dead kernel in the
/// crash kernel (same ids, same buffered bytes). Returns `true` only if all
/// pipes were consistent and restored.
fn restore_pipes(
    k: &mut Kernel,
    header: &ow_layout::KernelHeader,
    stats: &mut crate::stats::ReadStats,
) -> bool {
    let old = reader::read_pipe_table(&k.machine.phys, header, stats);
    let mut all_ok = true;
    for entry in old {
        match entry {
            Some(desc) if desc.locked == 0 => {
                // Consistent: recreate with the same contents.
                let Ok(id) = k.pipe_create() else {
                    all_ok = false;
                    continue;
                };
                // Copy the ring contents byte-exactly.
                let Some(new_pfn) = k.pipes.get(id as usize).map(|p| p.buf_pfn) else {
                    all_ok = false;
                    continue;
                };
                let mut buf = vec![0u8; ow_simhw::PAGE_SIZE];
                let src = desc.buf_pfn * ow_simhw::PAGE_BYTES;
                // ow-lint: allow(untrusted-read) -- bulk pipe-buffer payload copy; desc came from the validated pipe-table reader and any byte pattern is a legal buffer
                if k.machine.phys.read(src, &mut buf).is_err() {
                    all_ok = false;
                    continue;
                }
                stats.add(ReadKind::PipeBuffer, buf.len() as u64);
                // ow-lint: allow(validate-before-adopt) -- opaque pipe payload copied into a freshly allocated crash-kernel frame; the adopted metadata came through the validated pipe-table reader
                let _ = k.machine.phys.write(new_pfn * ow_simhw::PAGE_BYTES, &buf);
                let addr = k.pipe_table_addr + id as u64 * ow_layout::PipeDesc::SIZE;
                let _ = ow_layout::PipeDesc {
                    locked: 0,
                    rd: desc.rd,
                    wr: desc.wr,
                    buf_pfn: new_pfn,
                }
                .write(&mut k.machine.phys, addr);
            }
            Some(_locked) => {
                // Held semaphore: the structure was mid-update (§3.3).
                // Keep the id allocated so later pipes keep their ids, but
                // it starts empty.
                let _ = k.pipe_create();
                all_ok = false;
            }
            None => {
                let _ = k.pipe_create();
                all_ok = false;
            }
        }
    }
    all_ok
}

/// Rehydrates the program and applies the Table 1 decision matrix.
fn finish_process(
    k: &mut Kernel,
    registry: &ProgramRegistry,
    name: &str,
    new_pid: u64,
    failed: u32,
    crash_proc_registered: bool,
) -> (ProcOutcome, Option<u64>) {
    let Some(image) = registry.get(name) else {
        let _ = k.reap(new_pid);
        return (ProcOutcome::FailedNoExecutable, None);
    };

    // Rebuild the program object purely from resurrected memory.
    let mut program = {
        let mut api = KernelApi::new(k, new_pid);
        (image.rehydrate)(&mut api)
    };

    if crash_proc_registered {
        // The crash kernel allocates a temporary user stack and calls the
        // crash procedure with the failure bitmask (§3.4). The procedure's
        // own system calls are fresh calls — the ERESTART owed to the
        // *interrupted* call is delivered only if execution continues.
        let owed_restart = k
            .proc_mut(new_pid)
            .map(|p| std::mem::take(&mut p.deliver_restart))
            .unwrap_or(false);
        let action = {
            let mut api = KernelApi::new(k, new_pid);
            program.crash_procedure(&mut api, failed)
        };
        match action {
            CrashAction::Continue => {
                if let Ok(p) = k.proc_mut(new_pid) {
                    p.program = Some(program);
                    p.deliver_restart = owed_restart;
                }
                (ProcOutcome::ContinuedAfterCrashProc, Some(new_pid))
            }
            CrashAction::SaveAndRestart(args) => {
                // Keep the terminal across the restart.
                let term = k
                    .read_desc(new_pid)
                    .map(|d| d.term_id)
                    .ok()
                    .filter(|&t| t != u32::MAX);
                let _ = k.reap(new_pid);
                let mut spec = SpawnSpec::new(name, Box::new(StubProgram));
                spec.term = term;
                match k.spawn(spec) {
                    Ok(fresh_pid) => {
                        let fresh = {
                            let mut api = KernelApi::new(k, fresh_pid);
                            (image.fresh)(&mut api, &args)
                        };
                        if let Ok(p) = k.proc_mut(fresh_pid) {
                            p.program = Some(fresh);
                        }
                        (ProcOutcome::SavedAndRestarted, Some(fresh_pid))
                    }
                    Err(e) => (ProcOutcome::FailedCorrupt(format!("restart: {e}")), None),
                }
            }
            CrashAction::GiveUp => {
                let _ = k.reap(new_pid);
                (ProcOutcome::GaveUp, None)
            }
        }
    } else if failed == 0 {
        // Table 1 top-right: continue transparently.
        if let Ok(p) = k.proc_mut(new_pid) {
            p.program = Some(program);
        }
        (ProcOutcome::ContinuedTransparently, Some(new_pid))
    } else {
        // Table 1 bottom-right: resurrection fails.
        let _ = k.reap(new_pid);
        (ProcOutcome::FailedUnresurrectable, None)
    }
}

/// A session wrapper: owns the current kernel across microreboot
/// generations so examples and campaigns can treat the system as one
/// continuously running machine.
pub struct Otherworld {
    kernel: Option<Kernel>,
    /// Otherworld configuration.
    pub config: OtherworldConfig,
    /// Report of the most recent microreboot.
    pub last_report: Option<MicrorebootReport>,
}

impl Otherworld {
    /// Cold-boots the system on a standard machine.
    pub fn boot(
        machine_config: ow_simhw::machine::MachineConfig,
        kernel_config: KernelConfig,
        config: OtherworldConfig,
        registry: ProgramRegistry,
    ) -> Result<Self, ow_kernel::KernelError> {
        let machine = ow_kernel::standard_machine(machine_config);
        let kernel = Kernel::boot_cold(machine, kernel_config, registry)?;
        Ok(Otherworld {
            kernel: Some(kernel),
            config,
            last_report: None,
        })
    }

    /// The current kernel.
    ///
    /// # Panics
    ///
    /// Panics if called during a failed microreboot (kernel consumed).
    pub fn kernel(&self) -> &Kernel {
        // ow-lint: allow(recovery-panic) -- documented # Panics API contract for a consumed (dead) session
        self.kernel.as_ref().expect("kernel present")
    }

    /// The current kernel, mutably.
    ///
    /// # Panics
    ///
    /// Panics if called during a failed microreboot (kernel consumed).
    pub fn kernel_mut(&mut self) -> &mut Kernel {
        // ow-lint: allow(recovery-panic) -- documented # Panics API contract for a consumed (dead) session
        self.kernel.as_mut().expect("kernel present")
    }

    /// Whether the current kernel has panicked.
    pub fn is_panicked(&self) -> bool {
        self.kernel().panicked.is_some()
    }

    /// Performs the microreboot of a panicked kernel. On success the
    /// session continues on the new (morphed) kernel.
    ///
    /// Calling this on a healthy kernel refuses with
    /// [`MicrorebootFailure::NotPanicked`] and leaves the session intact.
    /// A handoff or crash-boot failure, however, is a real machine death:
    /// the session is over and only [`Otherworld::is_dead`] remains safe to
    /// call — as on hardware, where that outcome is a full reboot with all
    /// volatile state lost.
    pub fn microreboot_now(&mut self) -> Result<&MicrorebootReport, MicrorebootFailure> {
        let Some(dead) = self.kernel.take_if(|k| k.panicked.is_some()) else {
            return Err(MicrorebootFailure::NotPanicked);
        };
        match microreboot(dead, &self.config) {
            Ok((k, report)) => {
                self.kernel = Some(k);
                Ok(self.last_report.insert(report))
            }
            Err(e) => Err(e),
        }
    }

    /// Whether a failed microreboot has ended the session (the machine
    /// halted; only a cold reboot of a new [`Otherworld`] recovers).
    pub fn is_dead(&self) -> bool {
        self.kernel.is_none()
    }

    /// §7: hot kernel update. Loads `new_kernel` as the crash kernel's
    /// configuration (a *different build* — the paper notes nothing
    /// requires the two kernels to be the same version) and performs a
    /// planned microreboot: applications survive the kernel swap exactly as
    /// they survive a crash, making this usable for updating a kernel under
    /// mission-critical software, or for rejuvenation.
    pub fn hot_update(
        &mut self,
        new_kernel: KernelConfig,
    ) -> Result<&MicrorebootReport, MicrorebootFailure> {
        self.config.crash_kernel = new_kernel;
        self.kernel_mut()
            .do_panic(ow_kernel::PanicCause::Oops("planned kernel update"));
        self.microreboot_now()
    }
}
