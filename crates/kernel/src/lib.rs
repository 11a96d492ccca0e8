//! A miniature monolithic OS kernel whose resurrection-relevant state lives
//! in simulated physical memory.
//!
//! This crate is the substrate the Otherworld reproduction runs on: the
//! analog of Linux 2.6.18 in the paper. It provides processes (with
//! descriptors, VMAs, page tables, saved contexts), demand paging and two
//! swap partitions, an on-disk filesystem with a dirty page cache, physical
//! terminals, signals, shared memory, sockets/pipes (deliberately not
//! resurrectable, as in the paper's prototype), a syscall layer with the
//! optional memory-protected mode (§4), the KDump-style crash-kernel
//! reservation, and the panic/handoff path (§3.2).
//!
//! The companion crate `ow-core` implements Otherworld itself on top: the
//! crash-kernel boot, the resurrection engine, crash procedures and
//! morphing.

#![forbid(unsafe_code)]

pub mod checkpoint;
pub mod error;
pub mod fs;
pub mod ipc;
pub mod kernel;
pub mod kexec;
pub mod kheap;
pub mod layout;
pub mod pagecache;
pub mod panic;
pub mod program;
pub mod swap;
pub mod syscall;
pub mod term;
pub mod uprotect;
pub mod vm;

pub use error::{Errno, KernelError, SysResult};
pub use kernel::{
    BootCosts, CrashBoot, HandoffInfo, Kernel, KernelConfig, PanicCause, PanicOutcome,
    PendingFault, ProcHandle, RobustnessFixes, RunEvent, SpawnSpec, CHECKPOINT_INTERVAL,
    CRASH_FRAMES, KERNEL_FRAMES, TRACE_FRAMES,
};
pub use program::{CrashAction, Program, ProgramRegistry, StepResult, UserApi, PROG_STATE_VADDR};

/// Convenient result alias for kernel-internal operations.
pub type KernelResult<T> = Result<T, error::KernelError>;

/// Builds a [`ow_simhw::Machine`] with the standard device complement the
/// kernel expects: a root disk `sda` and two swap partitions.
pub fn standard_machine(config: ow_simhw::machine::MachineConfig) -> ow_simhw::Machine {
    let mut m = ow_simhw::Machine::new(config);
    m.add_device("sda", 8 * 1024 * 1024);
    m.add_device("swap0", 4 * 1024 * 1024);
    m.add_device("swap1", 4 * 1024 * 1024);
    m
}
