//! The recovery-robustness campaign: faults injected into the *recovery
//! path itself*, closing the loop on the resurrection supervisor.
//!
//! Table 5's campaign ([`crate::campaign`]) injects faults into the main
//! kernel and measures whether applications survive. This campaign instead
//! lets the main kernel die cleanly and then attacks the recovery: cycles
//! spliced into dead-kernel chains, panics and stalls inside the
//! resurrection engine, crash-kernel boot failures, and panic storms. Each
//! seeded experiment runs three times — supervisor on, supervisor off, and
//! rollback-in-place enabled — so the ablation shows exactly which
//! whole-microreboot failures the supervisor converts into per-process
//! degradations or generation-2 restarts, and which panics rung 0 absorbs
//! without ever booting the crash kernel. Three checkpoint-directed fault
//! kinds (stale epoch, torn A/B slot, CRC-valid-but-poisoned descriptor)
//! attack the rollback path itself and must deterministically fall through
//! to the ordinary microreboot.

use crate::campaign::{experiment_seed, workload_stream_seed};
use crate::engine;
use crate::pipeline::campaign_machine_config;
use ow_apps::Workload;
use ow_core::{
    microreboot, reader, EnginePanicFault, LadderRung, MicrorebootReport, OtherworldConfig,
    PolicySource, ProcOutcome, ReadStats, RecoveryFaultPlan, ResurrectionPolicy, StallFault,
    SupervisorConfig,
};
use ow_kernel::{
    layout::{
        ckpt_slot_addr, crc::crc32, pstate, snipkind, EpochCheckpoint, HandoffBlock, ProcDesc,
        Record, CKPT_SLOTS, SNIP_HEADER_BYTES,
    },
    Kernel, KernelConfig, PanicOutcome,
};
use ow_simhw::{clock::CYCLES_PER_SEC, stream_seed, PhysAddr, SimRng};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Stream tag deriving the fault-arming substream of a recovery-experiment
/// seed (decorrelated from the workload stream that builds the dead
/// system).
pub const STREAM_RECOVERY_ARM: u64 = 0x4152_4d46_4c54_3031; // "ARMFLT01"

/// Stream tag for the campaign-level fault-kind draw (decorrelated from
/// both the workload stream and the arming stream).
pub const STREAM_RECOVERY_KIND: u64 = 0x4b49_4e44_4452_4157; // "KINDDRAW"

/// The recovery-time fault family (the supervisor's threat model).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryFaultKind {
    /// A CRC-valid cycle spliced into the victim's VMA chain in dead
    /// memory: every engine rung sees the same corruption, so the ladder
    /// rides down to a clean restart.
    ChainCycle,
    /// The resurrection engine panics on the victim at the stronger rungs.
    EnginePanic,
    /// The engine panics for enough distinct processes to cross the
    /// escalation threshold — a panic storm.
    PanicStorm,
    /// The crash kernel itself fails to boot (first generation).
    CrashBootFailure,
    /// The engine stalls past its cycle budget on the victim.
    RecoveryStall,
    /// The newest sealed epoch's syscall sequence is rewritten backwards:
    /// a stale checkpoint that a rollback must refuse (restoring it would
    /// silently lose post-seal work).
    StaleEpoch,
    /// Payload bytes of the newest sealed slot are flipped without fixing
    /// the payload CRC — a torn A/B write the CRC gate must expose.
    TornSlot,
    /// A process descriptor *inside* the sealed payload is rewritten to a
    /// semantically invalid value and the payload CRC is recomputed over
    /// the poisoned bytes: the checkpoint passes the CRC gate and only the
    /// per-record validated readers can reject it.
    PoisonedDesc,
}

impl RecoveryFaultKind {
    /// Stable name for reports.
    pub fn name(self) -> &'static str {
        match self {
            RecoveryFaultKind::ChainCycle => "chain_cycle",
            RecoveryFaultKind::EnginePanic => "engine_panic",
            RecoveryFaultKind::PanicStorm => "panic_storm",
            RecoveryFaultKind::CrashBootFailure => "crash_boot_failure",
            RecoveryFaultKind::RecoveryStall => "recovery_stall",
            RecoveryFaultKind::StaleEpoch => "stale_epoch",
            RecoveryFaultKind::TornSlot => "torn_slot",
            RecoveryFaultKind::PoisonedDesc => "poisoned_desc",
        }
    }

    fn draw(rng: &mut SimRng) -> Self {
        match rng.next_u64() % 8 {
            0 => RecoveryFaultKind::ChainCycle,
            1 => RecoveryFaultKind::EnginePanic,
            2 => RecoveryFaultKind::PanicStorm,
            3 => RecoveryFaultKind::CrashBootFailure,
            4 => RecoveryFaultKind::RecoveryStall,
            5 => RecoveryFaultKind::StaleEpoch,
            6 => RecoveryFaultKind::TornSlot,
            _ => RecoveryFaultKind::PoisonedDesc,
        }
    }
}

/// Classified outcome of one recovery under injected faults, ordered from
/// best to worst.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryOutcome {
    /// Rung 0 absorbed the panic: the newest epoch checkpoint validated
    /// and every process resumed in the same kernel generation without a
    /// crash-kernel boot.
    RolledBack,
    /// Every process resurrected at the full rung.
    FullResurrection,
    /// At least one process needed a weaker engine rung but kept (most of)
    /// its state.
    Degraded,
    /// At least one process was restarted clean from the registry (data
    /// lost, application running).
    CleanRestart,
    /// Recovery escalated to a restart-only generation-2 crash kernel.
    Gen2Restart,
    /// Some process failed outright, but the microreboot completed.
    PerProcessFailure,
    /// The whole microreboot was lost (a classified error — never a
    /// propagated panic).
    WholeFailure,
}

impl RecoveryOutcome {
    /// Stable name for reports.
    pub fn name(self) -> &'static str {
        match self {
            RecoveryOutcome::RolledBack => "rolled_back",
            RecoveryOutcome::FullResurrection => "full_resurrection",
            RecoveryOutcome::Degraded => "degraded",
            RecoveryOutcome::CleanRestart => "clean_restart",
            RecoveryOutcome::Gen2Restart => "gen2_restart",
            RecoveryOutcome::PerProcessFailure => "per_process_failure",
            RecoveryOutcome::WholeFailure => "whole_failure",
        }
    }
}

/// One experiment's paired result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryRecord {
    /// The injected fault kind.
    pub fault: RecoveryFaultKind,
    /// Outcome with the supervisor enabled.
    pub with_supervisor: RecoveryOutcome,
    /// Outcome with the supervisor disabled.
    pub without_supervisor: RecoveryOutcome,
    /// Outcome with rollback-in-place (rung 0) enabled on top of the
    /// supervisor.
    pub with_rollback: RecoveryOutcome,
}

/// Outcome counts for one supervisor setting.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoverySide {
    /// Rung-0 rollbacks (same generation, no crash-kernel boot).
    pub rolled_back: usize,
    /// Full-rung resurrections.
    pub full: usize,
    /// Degraded (weaker rung, state kept).
    pub degraded: usize,
    /// Clean restarts from the registry.
    pub clean_restart: usize,
    /// Generation-2 escalations.
    pub gen2: usize,
    /// Completed microreboots with a failed process.
    pub per_process_failure: usize,
    /// Whole-microreboot failures.
    pub whole_failure: usize,
    /// Contained engine panics (from the reports).
    pub contained_panics: u64,
    /// Recovery-watchdog firings (from the reports).
    pub watchdog_fires: u64,
}

impl RecoverySide {
    fn count(&mut self, outcome: RecoveryOutcome) {
        match outcome {
            RecoveryOutcome::RolledBack => self.rolled_back += 1,
            RecoveryOutcome::FullResurrection => self.full += 1,
            RecoveryOutcome::Degraded => self.degraded += 1,
            RecoveryOutcome::CleanRestart => self.clean_restart += 1,
            RecoveryOutcome::Gen2Restart => self.gen2 += 1,
            RecoveryOutcome::PerProcessFailure => self.per_process_failure += 1,
            RecoveryOutcome::WholeFailure => self.whole_failure += 1,
        }
    }

    /// Experiments where the application layer survived in some form
    /// (anything but a whole-microreboot failure).
    pub fn survived(&self) -> usize {
        self.rolled_back
            + self.full
            + self.degraded
            + self.clean_restart
            + self.gen2
            + self.per_process_failure
    }
}

/// Aggregated recovery-robustness campaign (the new bench table's data).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryCampaignResult {
    /// Paired experiments run.
    pub experiments: usize,
    /// Counts with the supervisor enabled.
    pub with_supervisor: RecoverySide,
    /// Counts with the supervisor disabled.
    pub without_supervisor: RecoverySide,
    /// Counts with rollback-in-place enabled (supervisor on).
    pub with_rollback: RecoverySide,
    /// Panics that escaped `microreboot()` into the campaign harness. The
    /// supervisor's containment guarantee is that this stays zero.
    pub panic_escapes: usize,
    /// Per-experiment records in campaign order.
    pub records: Vec<RecoveryRecord>,
}

/// Configuration of the recovery campaign.
#[derive(Debug, Clone)]
pub struct RecoveryCampaignConfig {
    /// Paired (on/off) experiments to run.
    pub experiments: usize,
    /// Campaign seed (experiment `i` uses
    /// [`experiment_seed`]`(seed, i)`).
    pub seed: u64,
    /// Worker threads for the sharded engine: `0` = auto (`OW_JOBS`, then
    /// available parallelism). Results are identical for every value.
    pub jobs: usize,
}

impl Default for RecoveryCampaignConfig {
    fn default() -> Self {
        RecoveryCampaignConfig {
            experiments: 40,
            seed: 0x5ec0_4e4a, // distinct from the Table 5 campaign seed
            jobs: 0,
        }
    }
}

/// The applications each experiment boots and drives before the crash. Four
/// processes give the panic-storm path (threshold 3) a process to spare.
const APPS: [&str; 4] = ["vi", "mysqld", "httpd", "joe"];

/// Boots the standard four-app system, drives each workload a little, and
/// panics the kernel — the deterministic "dead kernel" every recovery
/// experiment starts from.
fn build_dead_system(seed: u64) -> Kernel {
    let mut k =
        ow_apps::boot(campaign_machine_config(), KernelConfig::default()).expect("cold boot");
    for name in APPS {
        ow_apps::make_workload(name, workload_stream_seed(seed)).start(&mut k, 3);
    }
    k.do_panic(ow_kernel::PanicCause::Oops("recovery-campaign crash"));
    k
}

/// Splices a CRC-valid cycle into the `victim`-th selected process's VMA
/// chain in the dead kernel's memory: the last VMA's `next` is pointed back
/// at the head, so a naive walk never terminates. The write goes through
/// the normal record codec, so the corruption is *not* detectable by
/// checksums — only the chain guard catches it.
fn inject_chain_cycle(k: &mut Kernel, victim: usize) {
    let Some(PanicOutcome::Handoff(info)) = k.panicked else {
        return;
    };
    let mut stats = ReadStats::default();
    let Ok(header) = reader::read_header(&k.machine.phys, info.dead_kernel_frame, &mut stats)
    else {
        return;
    };
    let selected: Vec<_> = reader::read_proc_list(&k.machine.phys, &header, &mut stats)
        .unwrap_or_default()
        .into_iter()
        .filter(|(_, d)| d.state != pstate::EXITED && APPS.contains(&d.name.as_str()))
        .collect();
    let Some((_, desc)) = selected.get(victim % selected.len().max(1)) else {
        return;
    };
    let Ok(vmas) = reader::read_vmas(&k.machine.phys, desc, &mut stats) else {
        return;
    };
    let (Some((head_addr, _)), Some((tail_addr, tail))) = (vmas.first(), vmas.last()) else {
        return;
    };
    let mut looped = tail.clone();
    looped.next = *head_addr;
    looped
        .write(&mut k.machine.phys, *tail_addr)
        .expect("rewrite tail VMA");
}

/// Locates the newest sealed epoch slot in the dead kernel — the slot a
/// rollback would choose — via the handoff block's trace-ring geometry.
fn newest_ckpt_slot(k: &Kernel) -> Option<(PhysAddr, EpochCheckpoint)> {
    let (h, _) = HandoffBlock::read(&k.machine.phys).ok()?;
    let mut best: Option<(PhysAddr, EpochCheckpoint)> = None;
    for slot in 0..CKPT_SLOTS {
        let addr = ckpt_slot_addr(h.trace_base, slot);
        if let Ok((c, _)) = EpochCheckpoint::read(&k.machine.phys, addr) {
            if c.valid != 0 && best.as_ref().is_none_or(|(_, b)| c.epoch > b.epoch) {
                best = Some((addr, c));
            }
        }
    }
    best
}

/// Rewinds the newest sealed epoch's syscall sequence through the codec:
/// the checkpoint stays structurally perfect but claims a moment *before*
/// the panic, so the freshness rule must refuse it.
fn inject_stale_epoch(k: &mut Kernel) {
    let Some((addr, mut c)) = newest_ckpt_slot(k) else {
        return;
    };
    c.seq = c.seq.wrapping_sub(1);
    c.write(&mut k.machine.phys, addr)
        .expect("rewind sealed epoch");
}

/// Tears the newest sealed slot: the second half of its payload is
/// bit-flipped in place without touching the header, exactly the damage a
/// write interrupted mid-slot leaves behind. The payload CRC no longer
/// matches and the CRC gate must expose it.
fn inject_torn_slot(k: &mut Kernel) {
    let Some((addr, c)) = newest_ckpt_slot(k) else {
        return;
    };
    if c.payload_len == 0 {
        return;
    }
    let half = c.payload_len / 2;
    let mut tail = vec![0u8; (c.payload_len - half) as usize];
    let at = addr + EpochCheckpoint::SIZE + half;
    k.machine
        .phys
        .read(at, &mut tail)
        .expect("read sealed payload");
    for b in &mut tail {
        *b = !*b;
    }
    k.machine
        .phys
        .write(at, &tail)
        .expect("tear sealed payload");
}

/// Poisons a descriptor *inside* the sealed payload: the first
/// process-descriptor snippet's state field is rewritten to a value no
/// live process can have, and the payload CRC is recomputed over the
/// poisoned bytes. The checkpoint passes the CRC gate; only the per-record
/// validated read during rollback can reject it.
fn inject_poisoned_desc(k: &mut Kernel) {
    let Some((addr, mut c)) = newest_ckpt_slot(k) else {
        return;
    };
    let base = addr + EpochCheckpoint::SIZE;
    let mut off = 0u64;
    while off + SNIP_HEADER_BYTES <= c.payload_len {
        let mut hdr = [0u8; SNIP_HEADER_BYTES as usize];
        if k.machine.phys.read(base + off, &mut hdr).is_err() {
            return;
        }
        let kind = u32::from_le_bytes(hdr[8..12].try_into().expect("snippet kind"));
        let len = u32::from_le_bytes(hdr[12..16].try_into().expect("snippet len")) as u64;
        if kind == snipkind::PROC {
            let src = base + off + SNIP_HEADER_BYTES;
            let Ok((mut desc, _)) = ProcDesc::read(&k.machine.phys, src) else {
                return;
            };
            desc.state = 0xdead; // far outside pstate's valid range
            desc.write(&mut k.machine.phys, src)
                .expect("poison sealed desc");
            let mut payload = vec![0u8; c.payload_len as usize];
            k.machine
                .phys
                .read(base, &mut payload)
                .expect("read sealed payload");
            c.payload_crc = crc32(&payload);
            c.write(&mut k.machine.phys, addr)
                .expect("reseal poisoned epoch");
            return;
        }
        off += SNIP_HEADER_BYTES + len;
    }
}

/// Builds the fault plan (and pre-corrupts dead memory) for one experiment.
fn arm_fault(k: &mut Kernel, kind: RecoveryFaultKind, rng: &mut SimRng) -> RecoveryFaultPlan {
    let victim = (rng.next_u64() % APPS.len() as u64) as usize;
    let mut plan = RecoveryFaultPlan::default();
    match kind {
        RecoveryFaultKind::ChainCycle => inject_chain_cycle(k, victim),
        RecoveryFaultKind::EnginePanic => {
            let panics_through = match rng.next_u64() % 3 {
                0 => LadderRung::Full,
                1 => LadderRung::NoSwapMigration,
                _ => LadderRung::AnonymousOnly,
            };
            plan.engine_panics.push(EnginePanicFault {
                victim,
                panics_through,
            });
        }
        RecoveryFaultKind::PanicStorm => {
            // Every process's engine dies at every rung: the storm counter
            // crosses the threshold and recovery must escalate.
            for v in 0..APPS.len() {
                plan.engine_panics.push(EnginePanicFault {
                    victim: v,
                    panics_through: LadderRung::AnonymousOnly,
                });
            }
        }
        RecoveryFaultKind::CrashBootFailure => plan.crash_boot_failures = 1,
        RecoveryFaultKind::RecoveryStall => plan.stalls.push(StallFault {
            victim,
            cycles: 600 * CYCLES_PER_SEC,
        }),
        RecoveryFaultKind::StaleEpoch => inject_stale_epoch(k),
        RecoveryFaultKind::TornSlot => inject_torn_slot(k),
        RecoveryFaultKind::PoisonedDesc => inject_poisoned_desc(k),
    }
    plan
}

/// Classifies a completed microreboot report.
fn classify(report: &MicrorebootReport) -> RecoveryOutcome {
    if report.rollback.is_some() {
        RecoveryOutcome::RolledBack
    } else if report.supervisor.escalated {
        RecoveryOutcome::Gen2Restart
    } else if report
        .procs
        .iter()
        .any(|p| matches!(p.outcome, ProcOutcome::RestartedClean))
    {
        RecoveryOutcome::CleanRestart
    } else if report.procs.iter().any(|p| p.rung > LadderRung::Full) {
        RecoveryOutcome::Degraded
    } else if report.procs.iter().any(|p| !p.outcome.is_success()) {
        RecoveryOutcome::PerProcessFailure
    } else {
        RecoveryOutcome::FullResurrection
    }
}

/// Runs one recovery experiment: build the dead system, arm `kind`, run the
/// microreboot with the supervisor `enabled` and rung 0 gated by
/// `rollback`, classify. Returns the outcome plus supervisor counters and
/// whether a panic escaped the microreboot.
pub fn run_recovery_experiment(
    seed: u64,
    kind: RecoveryFaultKind,
    enabled: bool,
    rollback: bool,
) -> (RecoveryOutcome, u64, u64, bool) {
    let mut rng = SimRng::seed_from_u64(stream_seed(seed, STREAM_RECOVERY_ARM));
    let mut k = build_dead_system(seed);
    let plan = arm_fault(&mut k, kind, &mut rng);
    let config = OtherworldConfig {
        policy: PolicySource::Inline(ResurrectionPolicy::only(APPS)),
        supervisor: SupervisorConfig { enabled },
        rollback,
        recovery_faults: plan,
        ..OtherworldConfig::default()
    };
    match catch_unwind(AssertUnwindSafe(|| microreboot(k, &config))) {
        Ok(Ok((_k2, report))) => (
            classify(&report),
            report.supervisor.contained_panics as u64,
            report.supervisor.watchdog_fires as u64,
            false,
        ),
        Ok(Err(_failure)) => (RecoveryOutcome::WholeFailure, 0, 0, false),
        Err(_panic) => (RecoveryOutcome::WholeFailure, 0, 0, true),
    }
}

/// The arms every experiment runs, as (supervisor, rollback): supervisor
/// on, supervisor off, and rollback-in-place on top of the supervisor.
const ARMS: [(bool, bool); 3] = [(true, false), (false, false), (true, true)];

/// One sharded work item: a paired experiment's raw results, one per arm of
/// [`ARMS`], before the seed-ordered merge.
struct PairedRun {
    kind: RecoveryFaultKind,
    arms: [(RecoveryOutcome, u64, u64, bool); 3],
}

/// Runs the full paired campaign: each seeded experiment draws one fault
/// kind and runs once per arm (supervisor on, supervisor off, rollback
/// enabled) on identically built systems.
///
/// Experiments are sharded across `cfg.jobs` workers by the deterministic
/// engine; the merger folds each pair's counts in seed order, so the
/// result is identical for every job count. A panic escaping even the
/// in-experiment `catch_unwind` (i.e. out of the worker's whole item) is
/// contained by the engine and recorded as a paired whole-failure with a
/// counted escape — never a poisoned channel or a deadlocked merger.
pub fn run_recovery_campaign(cfg: &RecoveryCampaignConfig) -> RecoveryCampaignResult {
    let mut result = RecoveryCampaignResult::default();
    engine::run_indexed(
        cfg.jobs,
        Some(cfg.experiments as u64),
        |i| {
            let seed = experiment_seed(cfg.seed, i);
            let mut rng = SimRng::seed_from_u64(stream_seed(seed, STREAM_RECOVERY_KIND));
            let kind = RecoveryFaultKind::draw(&mut rng);
            PairedRun {
                kind,
                arms: ARMS.map(|(supervisor, rollback)| {
                    run_recovery_experiment(seed, kind, supervisor, rollback)
                }),
            }
        },
        |_, item| {
            let run = item.unwrap_or(PairedRun {
                // The worker itself panicked: count every arm as a whole
                // failure and one escaped panic, keep the campaign alive.
                kind: RecoveryFaultKind::EnginePanic,
                arms: [true, false, false]
                    .map(|escaped| (RecoveryOutcome::WholeFailure, 0, 0, escaped)),
            });
            let sides = [
                &mut result.with_supervisor,
                &mut result.without_supervisor,
                &mut result.with_rollback,
            ];
            for (side, &(outcome, panics, fires, escaped)) in sides.into_iter().zip(&run.arms) {
                side.count(outcome);
                side.contained_panics += panics;
                side.watchdog_fires += fires;
                result.panic_escapes += usize::from(escaped);
            }
            let [on, off, rb] = run.arms.map(|(outcome, ..)| outcome);
            result.records.push(RecoveryRecord {
                fault: run.kind,
                with_supervisor: on,
                without_supervisor: off,
                with_rollback: rb,
            });
            result.experiments += 1;
            true
        },
    );
    result
}
