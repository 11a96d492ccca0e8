//! The composed machine: RAM, CPUs, MMU, devices, clock, watchdog — plus a
//! per-frame ownership map.
//!
//! The ownership map serves two purposes. First, it implements the paper's
//! *memory-protected mode* (§4): when protection is enabled, a kernel wild
//! write routed through a virtual user address traps (the user portion of
//! the address space is unmapped while the kernel runs) instead of silently
//! corrupting application memory. Second, it lets the fault-injection
//! campaign classify what a wild write actually hit, which is how Table 5's
//! outcome columns emerge mechanistically.

use crate::{
    blockdev::{BlockDevice, DevId},
    clock::Clock,
    cost::CostModel,
    cpu::Cpu,
    mmu::Mmu,
    phys::{PhysAddr, PhysMem, PAGE_SIZE},
    watchdog::Watchdog,
    Pfn,
};

/// Who owns a physical frame right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameOwner {
    /// Unallocated.
    Free,
    /// Kernel text, static data or heap.
    Kernel,
    /// A page-table frame of process `pid` (0 = kernel tables).
    PageTable {
        /// Owning process.
        pid: u64,
    },
    /// A user data page of process `pid`.
    User {
        /// Owning process.
        pid: u64,
    },
    /// Page-cache frame holding file data.
    PageCache,
    /// The loaded (passive) crash-kernel image. Hardware-protected: wild
    /// writes here are refused, as in the paper.
    CrashImage,
    /// Handoff structures: IDT-analog, context save areas, crash-region
    /// descriptor. Corruption here prevents booting the crash kernel.
    Handoff,
    /// The flight-recorder trace region (`ow-trace`). Deliberately *not*
    /// hardware-protected: wild writes land here and the per-record CRCs
    /// contain the damage, mirroring pstore/ramoops on real hardware.
    Trace,
}

/// Result of a wild write attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WildWriteOutcome {
    /// Protected mode trapped the access before it landed; the kernel
    /// panics cleanly instead (§4).
    TrappedByProtection,
    /// The crash-kernel image is protected by memory hardware (§3.1);
    /// the write was refused.
    BlockedByHardware,
    /// The write landed; the victim frame had this owner.
    Landed(FrameOwner),
}

/// Configuration for building a [`Machine`].
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// Installed RAM in frames (4 KiB each).
    pub ram_frames: usize,
    /// Number of CPUs.
    pub cpus: u32,
    /// TLB entries (power of two).
    pub tlb_entries: usize,
    /// Whether the TLB is address-space tagged (ASID/PCID analog). Tagged
    /// hardware turns the protected mode's per-syscall page-table switch
    /// into a tag switch; untagged hardware pays a full flush both ways.
    pub tlb_tagged: bool,
    /// Cycle cost model.
    pub cost: CostModel,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            // 64 MiB: large enough for every workload in the evaluation at
            // simulator scale, small enough for fast campaigns.
            ram_frames: 16384,
            cpus: 2,
            tlb_entries: 64,
            tlb_tagged: true,
            cost: CostModel::default(),
        }
    }
}

/// The simulated machine.
#[derive(Debug)]
pub struct Machine {
    /// Physical memory.
    pub phys: PhysMem,
    /// Processors.
    pub cpus: Vec<Cpu>,
    /// The MMU (shared by all CPUs; we simulate one hardware thread at a
    /// time, which matches the single-workload evaluation).
    pub mmu: Mmu,
    /// Cycle clock.
    pub clock: Clock,
    /// Cost model.
    pub cost: CostModel,
    /// Watchdog timer.
    pub watchdog: Watchdog,
    /// Block devices.
    devices: Vec<BlockDevice>,
    /// Per-frame ownership tags.
    owners: Vec<FrameOwner>,
    /// Whether the memory-protected mode is active (user space unmapped
    /// while the kernel runs).
    pub user_protection: bool,
    /// Whether the TLB is address-space tagged (see [`MachineConfig`]).
    pub tlb_tagged: bool,
}

impl Machine {
    /// Builds a machine from `config`.
    pub fn new(config: MachineConfig) -> Self {
        let phys = PhysMem::new(config.ram_frames);
        let cpus = (0..config.cpus).map(Cpu::new).collect();
        Machine {
            phys,
            cpus,
            mmu: Mmu::new(config.tlb_entries),
            clock: Clock::new(),
            cost: config.cost,
            watchdog: Watchdog::new(crate::clock::CYCLES_PER_SEC / 2),
            devices: Vec::new(),
            owners: vec![FrameOwner::Free; config.ram_frames],
            user_protection: false,
            tlb_tagged: config.tlb_tagged,
        }
    }

    /// Adds a block device, returning its id.
    pub fn add_device(&mut self, name: impl Into<String>, size: usize) -> DevId {
        let id = self.devices.len() as DevId;
        self.devices.push(BlockDevice::new(id, name, size));
        id
    }

    /// Looks up a device by id.
    ///
    /// # Panics
    ///
    /// Panics on an unknown id — devices never disappear.
    pub fn device(&mut self, id: DevId) -> &mut BlockDevice {
        &mut self.devices[id as usize]
    }

    /// Looks up a device by name.
    pub fn device_by_name(&mut self, name: &str) -> Option<&mut BlockDevice> {
        self.devices.iter_mut().find(|d| d.name == name)
    }

    /// Read-only device list.
    pub fn devices(&self) -> &[BlockDevice] {
        &self.devices
    }

    /// Number of installed frames.
    pub fn frames(&self) -> u64 {
        self.owners.len() as u64
    }

    /// Tags `pfn` with an owner.
    pub fn set_owner(&mut self, pfn: Pfn, owner: FrameOwner) {
        self.owners[pfn as usize] = owner;
    }

    /// Tags a contiguous range of frames.
    pub fn set_owner_range(&mut self, start: Pfn, count: u64, owner: FrameOwner) {
        for pfn in start..start + count {
            self.owners[pfn as usize] = owner;
        }
    }

    /// The current owner of `pfn`.
    pub fn owner(&self, pfn: Pfn) -> FrameOwner {
        self.owners[pfn as usize]
    }

    /// A kernel wild write to physical address `addr`.
    ///
    /// `via_virtual` says whether the rogue store went through a virtual
    /// user mapping (the common case for stray pointer bugs) — only those
    /// are interceptable by the protected mode's unmapped user space. Writes
    /// that corrupt memory through page-table confusion or DMA-like paths
    /// (`via_virtual == false`) land regardless, which is why the paper
    /// still observed one corruption under protection (§6).
    pub fn wild_write(
        &mut self,
        addr: PhysAddr,
        xor_mask: u64,
        via_virtual: bool,
    ) -> WildWriteOutcome {
        let pfn = addr / PAGE_SIZE as u64;
        if pfn >= self.frames() {
            // Off the end of RAM: machine-check on real hardware; treat as
            // landing in unowned space.
            return WildWriteOutcome::Landed(FrameOwner::Free);
        }
        let owner = self.owner(pfn);
        match owner {
            FrameOwner::CrashImage => WildWriteOutcome::BlockedByHardware,
            FrameOwner::User { .. } if self.user_protection && via_virtual => {
                WildWriteOutcome::TrappedByProtection
            }
            _ => {
                self.phys.corrupt_u64(addr, xor_mask);
                WildWriteOutcome::Landed(owner)
            }
        }
    }

    /// Total cycles charged so far (convenience).
    pub fn now(&self) -> u64 {
        self.clock.now()
    }

    /// Reads from device `id`, charging I/O latency on this machine's clock.
    pub fn dev_read(
        &mut self,
        id: DevId,
        offset: u64,
        buf: &mut [u8],
    ) -> Result<(), crate::blockdev::DevError> {
        self.devices[id as usize].read_at(&mut self.clock, &self.cost, offset, buf)
    }

    /// Writes to device `id`, charging I/O latency on this machine's clock.
    pub fn dev_write(
        &mut self,
        id: DevId,
        offset: u64,
        buf: &[u8],
    ) -> Result<(), crate::blockdev::DevError> {
        self.devices[id as usize].write_at(&mut self.clock, &self.cost, offset, buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine() -> Machine {
        Machine::new(MachineConfig {
            ram_frames: 64,
            cpus: 2,
            tlb_entries: 16,
            tlb_tagged: true,
            cost: CostModel::default(),
        })
    }

    #[test]
    fn devices_are_registered_and_found() {
        let mut m = machine();
        let sda = m.add_device("sda", 4096);
        let swap = m.add_device("swap-main", 4096);
        assert_ne!(sda, swap);
        assert_eq!(m.device_by_name("swap-main").unwrap().id, swap);
        assert!(m.device_by_name("nope").is_none());
    }

    #[test]
    fn frame_ownership_tags() {
        let mut m = machine();
        m.set_owner(3, FrameOwner::User { pid: 7 });
        m.set_owner_range(10, 4, FrameOwner::Handoff);
        assert_eq!(m.owner(3), FrameOwner::User { pid: 7 });
        assert_eq!(m.owner(12), FrameOwner::Handoff);
        assert!((10..14).all(|pfn| m.owner(pfn) == FrameOwner::Handoff));
        let handoff = (0..m.frames())
            .filter(|&pfn| m.owner(pfn) == FrameOwner::Handoff)
            .count();
        assert_eq!(handoff, 4);
    }

    #[test]
    fn wild_write_lands_on_kernel_frame() {
        let mut m = machine();
        m.set_owner(0, FrameOwner::Kernel);
        m.phys.write_u64(8, 0xff).unwrap();
        let out = m.wild_write(8, 0x0f, true);
        assert_eq!(out, WildWriteOutcome::Landed(FrameOwner::Kernel));
        assert_eq!(m.phys.read_u64(8).unwrap(), 0xf0);
    }

    #[test]
    fn protection_traps_virtual_user_writes_only() {
        let mut m = machine();
        m.set_owner(5, FrameOwner::User { pid: 1 });
        m.user_protection = true;
        let addr = 5 * PAGE_SIZE as u64;
        m.phys.write_u64(addr, 1).unwrap();
        assert_eq!(
            m.wild_write(addr, 0xff, true),
            WildWriteOutcome::TrappedByProtection
        );
        assert_eq!(
            m.phys.read_u64(addr).unwrap(),
            1,
            "trapped write must not land"
        );
        // A non-virtual corruption path still lands.
        assert_eq!(
            m.wild_write(addr, 0xff, false),
            WildWriteOutcome::Landed(FrameOwner::User { pid: 1 })
        );
        assert_ne!(m.phys.read_u64(addr).unwrap(), 1);
    }

    #[test]
    fn crash_image_is_hardware_protected() {
        let mut m = machine();
        m.set_owner(9, FrameOwner::CrashImage);
        let addr = 9 * PAGE_SIZE as u64;
        assert_eq!(
            m.wild_write(addr, 0xff, false),
            WildWriteOutcome::BlockedByHardware
        );
        assert_eq!(m.phys.read_u64(addr).unwrap(), 0);
    }

    #[test]
    fn wild_write_past_ram_is_harmless() {
        let mut m = machine();
        assert_eq!(
            m.wild_write(u64::MAX - 8, 0xff, false),
            WildWriteOutcome::Landed(FrameOwner::Free)
        );
    }
}
