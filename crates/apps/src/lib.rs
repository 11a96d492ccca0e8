//! Applications for the Otherworld evaluation (§5, §6).
//!
//! The paper evaluates five applications — the vi and JOE text editors, the
//! MySQL database server (MEMORY storage engine), the Apache/PHP bundle
//! (shared-memory session store) and the BLCR checkpointing system — plus
//! the VolanoMark chat benchmark for the protection-overhead measurements
//! (Table 3). This crate implements a faithful analog of each as an
//! [`ow_kernel::Program`]: all application data lives in the simulated user
//! address space, crash procedures follow §5's recipes, and each app comes
//! with a workload driver that maintains a remote-log shadow model for data
//! verification, exactly as the fault-injection experiments require.

#![forbid(unsafe_code)]

pub mod blcr;
pub mod joe;
pub mod memio;
pub mod mempse;
pub mod minidb;
pub mod shell;
pub mod vi;
pub mod volano;
pub mod webserv;
pub mod workload;

pub use workload::{make_workload, AppMeta, VerifyResult, Workload};

use ow_kernel::{
    syscall::KernelApi, Kernel, KernelConfig, KernelResult, ProgramRegistry, SpawnSpec,
};
use ow_simhw::machine::MachineConfig;

/// Cold-boots a kernel with every application installed on a fresh
/// [`ow_kernel::standard_machine`] — the first stage of every crash
/// experiment and bench table.
pub fn boot(machine: MachineConfig, config: KernelConfig) -> KernelResult<Kernel> {
    Kernel::boot_cold(
        ow_kernel::standard_machine(machine),
        config,
        full_registry(),
    )
}

/// Starts registered program `spec.name` the way `exec` does: spawns the
/// process, then builds its program through the registry image's fresh
/// constructor with `args`. Returns the pid.
///
/// # Panics
///
/// Panics when the program is not registered or the spawn fails.
pub fn exec(k: &mut Kernel, spec: SpawnSpec, args: &[String]) -> u64 {
    let image = k.registry.get(&spec.name).expect("program registered");
    let pid = k.spawn(spec).expect("spawn");
    let fresh = (image.fresh)(&mut KernelApi::new(k, pid), args);
    k.proc_mut(pid).expect("pid").program = Some(fresh);
    pid
}

/// Builds the program registry with every application installed — the
/// "on-disk executables" both kernels can instantiate (§3.1: same
/// environment in the main and crash kernels).
pub fn full_registry() -> ProgramRegistry {
    let mut r = ProgramRegistry::new();
    shell::register(&mut r);
    vi::register(&mut r);
    joe::register(&mut r);
    minidb::register(&mut r);
    webserv::register(&mut r);
    blcr::register(&mut r);
    volano::register(&mut r);
    r
}

/// Table 2 of the paper: per-application crash-procedure requirements and
/// the size of the modifications.
pub fn table2_rows() -> Vec<AppMeta> {
    vec![
        vi::meta(),
        joe::meta(),
        minidb::meta(),
        webserv::meta(),
        blcr::meta(),
    ]
}

/// Boots a kernel on a 32 MiB machine with zero-cost I/O and every
/// application installed (the apps' unit tests).
#[cfg(test)]
pub(crate) fn test_kernel() -> Kernel {
    let machine = MachineConfig {
        ram_frames: 8192,
        cost: ow_simhw::CostModel::zero_io(),
        ..MachineConfig::default()
    };
    boot(machine, KernelConfig::default()).expect("boot")
}
