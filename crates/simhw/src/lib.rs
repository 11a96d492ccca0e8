//! Simulated hardware substrate for the Otherworld reproduction.
//!
//! The paper modifies a real Linux kernel running on x86 hardware. This crate
//! provides the synthetic equivalent of that hardware: a byte-addressable
//! physical memory, a frame allocator, two-level page tables that live *in*
//! the simulated physical memory, an MMU with a TLB model (so the cost of the
//! memory-protected mode's page-table switches is measurable), multiple CPUs
//! with non-maskable interrupts and per-CPU context save areas, block devices
//! with a latency model, a watchdog timer, and a cycle-accurate clock.
//!
//! Everything the crash kernel later needs to *resurrect* applications is a
//! plain byte pattern inside [`PhysMem`], exactly as it would be on real
//! hardware. Fault injection corrupts those bytes; resurrection re-parses
//! them.

#![forbid(unsafe_code)]

pub mod blockdev;
pub mod clock;
pub mod cost;
pub mod cpu;
pub mod frames;
pub mod machine;
pub mod mmu;
pub mod paging;
pub mod phys;
pub mod rng;
mod store;
pub mod watchdog;

pub use blockdev::{BlockDevice, DevId};
pub use clock::Clock;
pub use cost::CostModel;
pub use cpu::{Context, Cpu, CpuId};
pub use frames::FrameAllocator;
pub use machine::{Machine, MachineConfig};
pub use mmu::{AccessKind, Asid, Mmu, MmuStats, KERNEL_ASID};
pub use paging::{AddressSpace, Pte, PteFlags};
pub use phys::{MemError, PhysAddr, PhysMem, PAGE_SIZE};
pub use rng::{mix64, stream_seed, SimRng};

/// Page frame number: a physical frame index.
pub type Pfn = u64;

/// Virtual address within a simulated process address space.
pub type VirtAddr = u64;

/// Number of bytes covered by one level-2 page-table entry (one page).
pub const PAGE_BYTES: u64 = PAGE_SIZE as u64;
