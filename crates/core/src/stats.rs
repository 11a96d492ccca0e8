//! Accounting: what the crash kernel read from the dead kernel, and what
//! happened to each process.
//!
//! Table 4 of the paper reports the total size of main-kernel data the
//! crash kernel reads during resurrection and the share of it that is page
//! tables; Table 5 classifies per-experiment outcomes. Both are computed
//! from these structures.

use crate::config::LadderRung;
use std::collections::BTreeMap;

/// What kind of dead-kernel structure a validated read pulled in.
///
/// Replaces the old stringly-typed kind labels: a typo in a label silently
/// started a new accounting bucket (and `"page_tables"` was magic), whereas
/// an enum variant is checked at compile time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ReadKind {
    /// The dead kernel's header.
    KernelHeader,
    /// A process descriptor.
    ProcDesc,
    /// A VMA descriptor.
    Vma,
    /// A per-process file table.
    FileTable,
    /// An open-file record.
    FileRecord,
    /// A page-cache node.
    PageCacheNode,
    /// A signal table.
    SigTable,
    /// A shared-memory descriptor.
    ShmDesc,
    /// A socket descriptor.
    SockDesc,
    /// A pipe descriptor.
    PipeDesc,
    /// A swap-area descriptor.
    SwapDesc,
    /// A terminal descriptor.
    TermDesc,
    /// Page-table frames (Table 4 reports their share separately).
    PageTables,
    /// Terminal screen contents.
    TerminalScreen,
    /// Unsent socket payload bytes.
    SockPayload,
    /// Pipe ring-buffer contents.
    PipeBuffer,
    /// An epoch-checkpoint header record (rollback-in-place validation).
    EpochCheckpoint,
}

impl ReadKind {
    /// Stable label (report formatting).
    pub fn name(self) -> &'static str {
        match self {
            ReadKind::KernelHeader => "kernel_header",
            ReadKind::ProcDesc => "proc_desc",
            ReadKind::Vma => "vma",
            ReadKind::FileTable => "file_table",
            ReadKind::FileRecord => "file_record",
            ReadKind::PageCacheNode => "page_cache_node",
            ReadKind::SigTable => "sig_table",
            ReadKind::ShmDesc => "shm_desc",
            ReadKind::SockDesc => "sock_desc",
            ReadKind::PipeDesc => "pipe_desc",
            ReadKind::SwapDesc => "swap_desc",
            ReadKind::TermDesc => "term_desc",
            ReadKind::PageTables => "page_tables",
            ReadKind::TerminalScreen => "terminal_screen",
            ReadKind::SockPayload => "sock_payload",
            ReadKind::PipeBuffer => "pipe_buffer",
            ReadKind::EpochCheckpoint => "epoch_checkpoint",
        }
    }

    /// Name of the corresponding [`ow_layout::REGISTRY`] entry for kinds
    /// that account fixed-size records, or `None` for the variable-size
    /// buckets (page tables, screens, payload bytes).
    pub fn registry_name(self) -> Option<&'static str> {
        Some(match self {
            ReadKind::KernelHeader => "KernelHeader",
            ReadKind::ProcDesc => "ProcDesc",
            ReadKind::Vma => "VmaDesc",
            ReadKind::FileTable => "FileTable",
            ReadKind::FileRecord => "FileRecord",
            ReadKind::PageCacheNode => "PageCacheNode",
            ReadKind::SigTable => "SigTable",
            ReadKind::ShmDesc => "ShmDesc",
            ReadKind::SockDesc => "SockDesc",
            ReadKind::PipeDesc => "PipeDesc",
            ReadKind::SwapDesc => "SwapDesc",
            ReadKind::TermDesc => "TermDesc",
            ReadKind::EpochCheckpoint => "EpochCheckpoint",
            ReadKind::PageTables
            | ReadKind::TerminalScreen
            | ReadKind::SockPayload
            | ReadKind::PipeBuffer => return None,
        })
    }
}

/// Byte accounting of reads from the dead kernel.
#[derive(Debug, Clone, Default)]
pub struct ReadStats {
    /// All bytes read from dead-kernel structures (including page tables).
    pub total_bytes: u64,
    /// Bytes that were page-table frames.
    pub pt_bytes: u64,
    /// Breakdown by structure kind.
    pub by_kind: BTreeMap<ReadKind, u64>,
}

impl ReadStats {
    /// Records `bytes` read for structure `kind`.
    pub fn add(&mut self, kind: ReadKind, bytes: u64) {
        self.total_bytes += bytes;
        *self.by_kind.entry(kind).or_insert(0) += bytes;
        if kind == ReadKind::PageTables {
            self.pt_bytes += bytes;
        }
    }

    /// Page-table share of everything read (Table 4's last column).
    pub fn pt_fraction(&self) -> f64 {
        if self.total_bytes == 0 {
            0.0
        } else {
            self.pt_bytes as f64 / self.total_bytes as f64
        }
    }

    /// Cross-checks the accounting against the layout registry: every
    /// fixed-size bucket must hold a whole number of records of that
    /// structure's registered footprint. Returns the violations (kind,
    /// bytes, footprint); an empty vec means Table 4 and the registry
    /// agree.
    pub fn registry_check(&self) -> Vec<(ReadKind, u64, u64)> {
        let mut bad = Vec::new();
        for (&kind, &bytes) in &self.by_kind {
            if let Some(name) = kind.registry_name() {
                let size = ow_layout::footprint(name);
                if size == 0 || bytes % size != 0 {
                    bad.push((kind, bytes, size));
                }
            }
        }
        bad
    }

    /// Folds another stats block into this one.
    pub fn merge(&mut self, other: &ReadStats) {
        self.total_bytes += other.total_bytes;
        self.pt_bytes += other.pt_bytes;
        for (&k, v) in &other.by_kind {
            *self.by_kind.entry(k).or_insert(0) += v;
        }
    }
}

/// What happened to one process during resurrection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProcOutcome {
    /// All resources restored, no crash procedure: execution continued from
    /// the interruption point, crash unnoticed (Table 1, top-right).
    ContinuedTransparently,
    /// Crash procedure ran and chose to continue execution (Table 1, left).
    ContinuedAfterCrashProc,
    /// Crash procedure saved state and restarted the application.
    SavedAndRestarted,
    /// Crash procedure gave up; the process terminated.
    GaveUp,
    /// Some resources could not be resurrected and no crash procedure was
    /// registered (Table 1, bottom-right): resurrection failed.
    FailedUnresurrectable,
    /// Corruption of main-kernel structures prevented resurrection
    /// (Table 5, column 4).
    FailedCorrupt(String),
    /// The executable is unknown to this system (cannot rehydrate).
    FailedNoExecutable,
    /// The supervisor's bottom ladder rung: the dead image was abandoned
    /// and a fresh instance was started from the program registry. The
    /// application is running but its in-memory data is gone, so this is
    /// *not* a successful resurrection by Table 5's data-preservation
    /// definition — it is the contained-failure alternative to losing the
    /// whole microreboot.
    RestartedClean,
}

impl ProcOutcome {
    /// Whether the application survived with its data (Table 5's
    /// "successful resurrection" definition).
    pub fn is_success(&self) -> bool {
        matches!(
            self,
            ProcOutcome::ContinuedTransparently
                | ProcOutcome::ContinuedAfterCrashProc
                | ProcOutcome::SavedAndRestarted
        )
    }
}

/// Per-process resurrection report.
#[derive(Debug, Clone)]
pub struct ProcReport {
    /// Pid in the dead kernel.
    pub old_pid: u64,
    /// Pid in the crash kernel (when the process survived).
    pub new_pid: Option<u64>,
    /// Process name.
    pub name: String,
    /// Outcome.
    pub outcome: ProcOutcome,
    /// Bitmask of resource types that were not restored
    /// ([`ow_layout::resmask`]), as passed to the crash procedure.
    pub failed_resources: u32,
    /// Dead-kernel bytes read to resurrect this process.
    pub bytes_read: u64,
    /// Of which page tables.
    pub pt_bytes: u64,
    /// Pages copied / mapped / migrated from swap.
    pub pages_copied: u64,
    /// Pages adopted via the mapping optimization.
    pub pages_mapped: u64,
    /// Pages migrated between swap partitions.
    pub pages_swapped: u64,
    /// Degradation-ladder rung the process ended on ([`LadderRung::Full`]
    /// when the first attempt succeeded).
    pub rung: LadderRung,
    /// Resurrection attempts consumed (1 = no retries).
    pub attempts: u32,
}

impl ProcReport {
    /// A process that ended on `rung` after one attempt, with no resource
    /// lost and nothing read or materialized; callers fill in the rest.
    pub(crate) fn new(
        old_pid: u64,
        name: String,
        outcome: ProcOutcome,
        new_pid: Option<u64>,
        rung: LadderRung,
    ) -> Self {
        ProcReport {
            old_pid,
            new_pid,
            name,
            outcome,
            failed_resources: 0,
            bytes_read: 0,
            pt_bytes: 0,
            pages_copied: 0,
            pages_mapped: 0,
            pages_swapped: 0,
            rung,
            attempts: 1,
        }
    }
}

/// What the resurrection supervisor did during one microreboot.
#[derive(Debug, Clone, Default)]
pub struct SupervisorSummary {
    /// Whether the supervisor was enabled for this microreboot.
    pub enabled: bool,
    /// Panics contained inside the resurrection engine.
    pub contained_panics: u32,
    /// Per-process cycle budgets cut off by the recovery watchdog.
    pub watchdog_fires: u32,
    /// Processes that ended below [`LadderRung::Full`].
    pub degraded_procs: u32,
    /// Whether recovery escalated to a restart-only crash-kernel
    /// generation.
    pub escalated: bool,
    /// Crash-kernel boot attempts consumed (1 = first boot succeeded).
    pub crash_boot_attempts: u32,
}

/// What the warm morph adopted wholesale from the dead kernel after CRC
/// revalidation. A cold morph, a restart-only generation, or a seal whose
/// every structure failed validation reports all-false — each structure
/// falls back to the cold rebuild independently.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdoptionSummary {
    /// Frame-allocator bitmap adopted (no full-RAM reclaim scan).
    pub frames: bool,
    /// Swap-slot bitmap adopted (swapped PTEs migrate verbatim, no
    /// slot-by-slot copy between partitions).
    pub swap: bool,
    /// Page-cache chains re-chained onto adopted frames (no flush and
    /// reload through the filesystem).
    pub cache: bool,
}

/// What rollback-in-place (rung 0) restored, when it ran and succeeded.
/// Reported instead of a resurrection: the same kernel generation resumed,
/// so there is no crash boot, no per-process engine work, and no morph.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RollbackSummary {
    /// Epoch counter of the checkpoint that was rolled back to.
    pub epoch: u64,
    /// Syscall sequence number the checkpoint was sealed at.
    pub seq: u64,
    /// Checkpointed records rewritten in place.
    pub records: u64,
    /// Processes whose state the rollback restored.
    pub procs: u64,
    /// Checkpoint bytes validated (header + payload).
    pub bytes_validated: u64,
}

/// Report of one complete microreboot.
#[derive(Debug, Clone)]
pub struct MicrorebootReport {
    /// Generation of the new (crash, now main) kernel.
    pub generation: u32,
    /// What the warm morph adopted wholesale from the dead kernel after
    /// CRC revalidation (all false for cold morphs, restart-only
    /// generations, or when every structure fell back to the cold rebuild).
    pub adoption: AdoptionSummary,
    /// Per-process outcomes.
    pub procs: Vec<ProcReport>,
    /// Aggregate read accounting.
    pub stats: ReadStats,
    /// Simulated seconds to boot the crash kernel.
    pub crash_boot_seconds: f64,
    /// Simulated seconds spent resurrecting processes.
    pub resurrection_seconds: f64,
    /// Simulated seconds morphing into the main kernel (memory reclaim +
    /// next crash-kernel install).
    pub morph_seconds: f64,
    /// Simulated seconds for the whole microreboot (panic → morphed).
    pub total_seconds: f64,
    /// Simulated seconds spent in rollback-in-place (rung 0); zero when
    /// rollback was disabled or fell through before doing any work.
    pub rollback_seconds: f64,
    /// What rollback-in-place restored, when it ran and succeeded; `None`
    /// for every microreboot that went through the crash kernel.
    pub rollback: Option<RollbackSummary>,
    /// What the resurrection supervisor did (containment, ladder,
    /// watchdog, escalation).
    pub supervisor: SupervisorSummary,
    /// Integrity cross-check corrections applied (§4 duplication checks).
    pub integrity_fixes: u64,
    /// The dead kernel's flight record (events, damage counts and the
    /// metrics registry), recovered from the trace region before the crash
    /// kernel booted.
    pub flight: ow_trace::FlightRecord,
}

impl MicrorebootReport {
    /// Whether every selected process survived.
    pub fn all_succeeded(&self) -> bool {
        self.procs.iter().all(|p| p.outcome.is_success())
    }

    /// Finds a process report by (old) name.
    pub fn proc_named(&self, name: &str) -> Option<&ProcReport> {
        self.procs.iter().find(|p| p.name == name)
    }

    /// Per-stage timings (panic → crash boot → resurrection → morph) as a
    /// JSON object, for the bench export path.
    pub fn timings_json(&self) -> ow_trace::json::Value {
        use ow_trace::json::Value;
        Value::obj([
            ("crash_boot_seconds", Value::from(self.crash_boot_seconds)),
            (
                "resurrection_seconds",
                Value::from(self.resurrection_seconds),
            ),
            ("morph_seconds", Value::from(self.morph_seconds)),
            ("rollback_seconds", Value::from(self.rollback_seconds)),
            ("total_seconds", Value::from(self.total_seconds)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_stats_accumulate_and_fraction() {
        let mut s = ReadStats::default();
        s.add(ReadKind::ProcDesc, 100);
        s.add(ReadKind::PageTables, 300);
        assert_eq!(s.total_bytes, 400);
        assert_eq!(s.pt_bytes, 300);
        assert!((s.pt_fraction() - 0.75).abs() < 1e-9);
    }

    #[test]
    fn merge_folds_breakdowns() {
        let mut a = ReadStats::default();
        a.add(ReadKind::Vma, 10);
        let mut b = ReadStats::default();
        b.add(ReadKind::Vma, 5);
        b.add(ReadKind::PageTables, 20);
        a.merge(&b);
        assert_eq!(a.by_kind[&ReadKind::Vma], 15);
        assert_eq!(a.pt_bytes, 20);
    }

    #[test]
    fn registry_check_flags_partial_records() {
        let mut s = ReadStats::default();
        s.add(ReadKind::ProcDesc, 2 * ow_layout::footprint("ProcDesc"));
        s.add(ReadKind::PageTables, 12345); // variable-size: never checked
        assert!(s.registry_check().is_empty());
        s.add(ReadKind::Vma, ow_layout::footprint("VmaDesc") - 1);
        let bad = s.registry_check();
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].0, ReadKind::Vma);
    }

    #[test]
    fn outcome_success_classes() {
        assert!(ProcOutcome::ContinuedTransparently.is_success());
        assert!(ProcOutcome::SavedAndRestarted.is_success());
        assert!(!ProcOutcome::FailedCorrupt("x".into()).is_success());
        assert!(!ProcOutcome::GaveUp.is_success());
    }
}
