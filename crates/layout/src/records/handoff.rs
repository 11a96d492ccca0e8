//! The fixed-location handoff structures both kernels share: the handoff
//! block at frame 0, the IDT-analog gate array behind it, the crash-kernel
//! image header, and the kernel header rooting each kernel's region.

use crate::cursor::{Cursor, CursorMut, LayoutError};
use crate::record::Record;
use ow_simhw::{PhysAddr, PhysMem};

/// Magic for [`HandoffBlock`].
pub const HANDOFF_MAGIC: u32 = 0x4f48_574f; // "OWHO"
/// Secondary validity stamp for the interrupt-descriptor-table analog. The
/// panic path refuses to run if this is corrupted — the paper's ~100
/// unprotected lines depend on the IDT and a few kernel page entries (§6).
pub const IDT_MAGIC: u32 = 0x3054_4449; // "IDT0"

/// Physical address of the handoff block.
pub const HANDOFF_ADDR: PhysAddr = 0;
/// Physical address of the per-CPU context save areas (frame 1).
pub const SAVE_AREA_ADDR: PhysAddr = 4096;
/// Number of frames reserved for handoff structures (block + save areas).
pub const HANDOFF_FRAMES: u64 = 2;

/// The fixed-location descriptor both kernels share: where the active
/// kernel's header lives and where the crash kernel image is loaded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HandoffBlock {
    /// Layout generation the writing kernel serialized its structures
    /// under (see [`crate::registry::LAYOUT_VERSION`]). The crash kernel
    /// refuses a handoff stamped with a different generation instead of
    /// misparsing it — the prerequisite for hot-update microreboots across
    /// kernel builds (§7).
    pub layout_version: u32,
    /// Frame of the active kernel's [`KernelHeader`].
    pub active_kernel_frame: u64,
    /// First frame of the crash-kernel reservation.
    pub crash_base: u64,
    /// Size of the crash-kernel reservation in frames.
    pub crash_frames: u64,
    /// Non-zero when a bootable crash-kernel image is loaded.
    pub crash_entry_ok: u32,
    /// IDT-analog validity stamp; must equal [`IDT_MAGIC`].
    pub idt_stamp: u32,
    /// Physical address of the per-CPU context save areas.
    pub save_area: PhysAddr,
    /// Microreboot generation counter (0 = first boot).
    pub generation: u32,
    /// First frame of the flight-recorder trace region (0 = no tracing).
    pub trace_base: u64,
    /// Frames in the trace region.
    pub trace_frames: u64,
}

impl Record for HandoffBlock {
    const NAME: &'static str = "HandoffBlock";
    const MAGIC: u32 = HANDOFF_MAGIC;
    const VERSION: u32 = 2; // v2: layout_version field added after the magic
    const SIZE: u64 = 4 + 4 + 8 + 8 + 8 + 4 + 4 + 8 + 4 + 8 + 8;

    fn encode_body(&self, w: &mut CursorMut<'_>) -> Result<(), LayoutError> {
        w.u32(self.layout_version)?;
        w.u64(self.active_kernel_frame)?;
        w.u64(self.crash_base)?;
        w.u64(self.crash_frames)?;
        w.u32(self.crash_entry_ok)?;
        w.u32(self.idt_stamp)?;
        w.u64(self.save_area)?;
        w.u32(self.generation)?;
        w.u64(self.trace_base)?;
        w.u64(self.trace_frames)?;
        Ok(())
    }

    fn decode_body(c: &mut Cursor<'_>) -> Result<Self, LayoutError> {
        Ok(HandoffBlock {
            layout_version: c.u32()?,
            active_kernel_frame: c.u64()?,
            crash_base: c.u64()?,
            crash_frames: c.u64()?,
            crash_entry_ok: c.u32()?,
            idt_stamp: c.u32()?,
            save_area: c.u64()?,
            generation: c.u32()?,
            trace_base: c.u64()?,
            trace_frames: c.u64()?,
        })
    }

    fn validate(&self, phys: &PhysMem, addr: PhysAddr) -> Result<(), LayoutError> {
        if self.active_kernel_frame >= phys.frames() {
            return Err(LayoutError::BadValue {
                structure: Self::NAME,
                field: "active_kernel_frame",
                addr,
            });
        }
        Ok(())
    }
}

impl HandoffBlock {
    /// Writes the block at [`HANDOFF_ADDR`].
    pub fn write(&self, phys: &mut PhysMem) -> Result<(), LayoutError> {
        Record::write(self, phys, HANDOFF_ADDR)
    }

    /// Reads and validates the block from [`HANDOFF_ADDR`].
    pub fn read(phys: &PhysMem) -> Result<(Self, u64), LayoutError> {
        <Self as Record>::read(phys, HANDOFF_ADDR)
    }
}

/// First byte of the IDT gate array within the handoff frame (after the
/// [`HandoffBlock`]).
pub const IDT_GATES_OFF: u64 = 256;
/// Gate-entry stamp: every 8-byte gate must carry this value.
pub const IDT_GATE_STAMP: u64 = 0x4554_4147_5f54_4449; // "IDT_GATE"

/// Fills the IDT-analog gate array (done once at cold boot).
///
/// On real hardware the IDT is a full page of gate descriptors and *all* of
/// it is load-bearing: timer interrupts and exceptions fire constantly, so
/// a wild write anywhere in the page soon triple-faults the machine. The
/// panic path (§3.2) depends on NMI delivery through this table — its
/// corruption is the paper's main cause of "failure to boot the crash
/// kernel" (§6).
pub fn write_idt_gates(phys: &mut PhysMem) -> Result<(), LayoutError> {
    let mut addr = IDT_GATES_OFF;
    while addr + 8 <= 4096 {
        phys.write_u64(addr, IDT_GATE_STAMP)?;
        addr += 8;
    }
    Ok(())
}

/// Validates every IDT gate; any corrupted gate means interrupt delivery
/// (and therefore the NMI broadcast) cannot be trusted.
pub fn idt_gates_valid(phys: &PhysMem) -> bool {
    let mut addr = IDT_GATES_OFF;
    while addr + 8 <= 4096 {
        match phys.read_u64(addr) {
            Ok(v) if v == IDT_GATE_STAMP => addr += 8,
            _ => return false,
        }
    }
    true
}

/// Magic for the loaded crash-kernel image.
pub const CRASH_IMAGE_MAGIC: u32 = 0x4943_574f; // "OWCI"

/// Header of the passive crash-kernel image sitting in its reservation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashImageHeader {
    /// Image format version.
    pub version: u32,
    /// Non-zero when the entry point is intact.
    pub entry_valid: u32,
}

impl Record for CrashImageHeader {
    const NAME: &'static str = "CrashImageHeader";
    const MAGIC: u32 = CRASH_IMAGE_MAGIC;
    const VERSION: u32 = 1;
    const SIZE: u64 = 4 + 4 + 4;

    fn encode_body(&self, w: &mut CursorMut<'_>) -> Result<(), LayoutError> {
        w.u32(self.version)?;
        w.u32(self.entry_valid)?;
        Ok(())
    }

    fn decode_body(c: &mut Cursor<'_>) -> Result<Self, LayoutError> {
        Ok(CrashImageHeader {
            version: c.u32()?,
            entry_valid: c.u32()?,
        })
    }
}

/// Magic for [`KernelHeader`].
pub const KERNEL_HEADER_MAGIC: u32 = 0x484b_574f; // "OWKH"

/// The root structure of a running kernel, at the start of its region.
///
/// Linux equivalent: the fixed, compile-time kernel start address through
/// which the crash kernel locates the process list and swap descriptors
/// (§3.3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelHeader {
    /// Kernel version (both kernels are built from the same source).
    pub version: u32,
    /// First frame of this kernel's region.
    pub base_frame: u64,
    /// Frames in this kernel's region.
    pub nframes: u64,
    /// Physical address of the first [`super::ProcDesc`] (0 = empty list).
    pub proc_head: PhysAddr,
    /// Number of processes on the list (cross-check for walking).
    pub nprocs: u64,
    /// Physical address of the swap-descriptor array.
    pub swap_array: PhysAddr,
    /// Number of swap descriptors.
    pub nswap: u32,
    /// Whether this kernel booted as a crash kernel.
    pub is_crash: u32,
    /// Physical address of the terminal-descriptor array.
    pub term_table: PhysAddr,
    /// Number of terminal descriptors.
    pub nterms: u32,
    /// Physical address of the pipe-descriptor array.
    pub pipe_table: PhysAddr,
    /// Number of pipe descriptors.
    pub npipes: u32,
}

impl Record for KernelHeader {
    const NAME: &'static str = "KernelHeader";
    const MAGIC: u32 = KERNEL_HEADER_MAGIC;
    const VERSION: u32 = 1;
    const SIZE: u64 = 4 + 4 + 8 + 8 + 8 + 8 + 8 + 4 + 4 + 8 + 4 + 8 + 4 + 4;

    fn encode_body(&self, w: &mut CursorMut<'_>) -> Result<(), LayoutError> {
        w.u32(self.version)?;
        w.u64(self.base_frame)?;
        w.u64(self.nframes)?;
        w.u64(self.proc_head)?;
        w.u64(self.nprocs)?;
        w.u64(self.swap_array)?;
        w.u32(self.nswap)?;
        w.u32(self.is_crash)?;
        w.u64(self.term_table)?;
        w.u32(self.nterms)?;
        w.u64(self.pipe_table)?;
        w.u32(self.npipes)?;
        w.u32(0)?; // padding
        Ok(())
    }

    fn decode_body(c: &mut Cursor<'_>) -> Result<Self, LayoutError> {
        let h = KernelHeader {
            version: c.u32()?,
            base_frame: c.u64()?,
            nframes: c.u64()?,
            proc_head: c.u64()?,
            nprocs: c.u64()?,
            swap_array: c.u64()?,
            nswap: c.u32()?,
            is_crash: c.u32()?,
            term_table: c.u64()?,
            nterms: c.u32()?,
            pipe_table: c.u64()?,
            npipes: c.u32()?,
        };
        let _pad = c.u32()?;
        Ok(h)
    }

    fn validate(&self, _phys: &PhysMem, addr: PhysAddr) -> Result<(), LayoutError> {
        if self.nprocs > 4096 {
            return Err(LayoutError::BadValue {
                structure: Self::NAME,
                field: "nprocs",
                addr,
            });
        }
        if self.nswap > 8 || self.nterms > 64 || self.npipes > 64 {
            return Err(LayoutError::BadValue {
                structure: Self::NAME,
                field: "nswap/nterms/npipes",
                addr,
            });
        }
        Ok(())
    }
}
