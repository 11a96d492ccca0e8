//! The crash-experiment pipeline (§6), each stage written once.
//!
//! Every experiment in this crate and in the bench tables runs the same
//! loop: boot a machine, drive an application whose progress is logged
//! remotely, crash the kernel, microreboot, then resume the application
//! and verify it against the log. The families differ only in how the
//! kernel dies and how the result is classified; the stages are shared:
//!
//! 1. **boot** — [`ow_apps::boot`] on [`campaign_machine_config`] (the
//!    bench tables use their cost-modelled evaluation machine);
//! 2. **drive** — [`Workload::start`], then more [`Workload::drive`]
//!    batches around the fault source;
//! 3. **crash** — the family's fault source ends in
//!    [`ow_kernel::Kernel::do_panic`];
//!    [`ow_trace::FlightRecord::from_handoff`] reads the dead kernel's
//!    flight record the way the crash kernel does;
//! 4. **recover** — [`ow_core::microreboot`];
//! 5. **resume** — [`resume`] finds the application in the report, settles
//!    it ([`Workload::settle`]) and verifies it.

use ow_apps::{VerifyResult, Workload};
use ow_core::{supervisor, LadderRung, MicrorebootReport, ProcOutcome};
use ow_kernel::Kernel;
use ow_simhw::{machine::MachineConfig, CostModel};

/// The machine every campaign experiment runs on: 32 MiB, and zero-cost
/// I/O so simulated time never gates a campaign.
pub fn campaign_machine_config() -> MachineConfig {
    MachineConfig {
        ram_frames: 8192, // 32 MiB
        cpus: 2,
        tlb_entries: 64,
        tlb_tagged: true,
        cost: CostModel::zero_io(),
    }
}

/// How a workload's process came back from a microreboot.
#[derive(Debug)]
pub enum Resumed {
    /// The recovery report has no entry for the process.
    Absent,
    /// The process did not come back alive; carries its outcome.
    Lost(String),
    /// The process came back but its descriptor does not read back through
    /// the checksummed codec.
    Unreadable,
    /// The process came back at `rung` and was settled and verified;
    /// `verdict` is `Err` with the message of a panic while doing so.
    Verified {
        /// Ladder rung the process ended on.
        rung: LadderRung,
        /// Its data checked against the remote log.
        verdict: Result<VerifyResult, String>,
    },
}

/// The resume stage: finds `workload`'s process in `report`, settles it on
/// the new kernel and verifies its data. A process is back when it was
/// resurrected or restarted clean; a panic while settling or verifying is
/// contained and reported in the verdict.
pub fn resume<W: Workload + ?Sized>(
    workload: &mut W,
    k: &mut Kernel,
    report: &MicrorebootReport,
) -> Resumed {
    let Some(pr) = report.proc_named(workload.name()) else {
        return Resumed::Absent;
    };
    let back = pr.outcome.is_success() || pr.outcome == ProcOutcome::RestartedClean;
    let Some(pid) = pr.new_pid.filter(|_| back) else {
        return Resumed::Lost(format!("{:?}", pr.outcome));
    };
    if k.read_desc(pid).is_err() {
        return Resumed::Unreadable;
    }
    let verdict = supervisor::contain(|| {
        workload.settle(k, pid);
        workload.verify(k, pid)
    });
    Resumed::Verified {
        rung: pr.rung,
        verdict,
    }
}
