//! Simulated CPUs, register contexts and non-maskable interrupts.
//!
//! On a kernel panic the paper's main kernel sends NMIs to all other
//! processors; each saves the hardware context of the thread it was running
//! onto its kernel stack and halts, so the crash kernel can later resume
//! those threads like an ordinary context switch (§3.2). We model the same
//! protocol: each CPU owns a *context save area* at a fixed physical address
//! (part of the handoff region). Corrupting that area is one of the ways a
//! fault can prevent the crash kernel from booting or resuming threads.

use crate::phys::{MemError, PhysAddr, PhysMem};

/// CPU identifier.
pub type CpuId = u32;

/// Number of general-purpose registers in the simulated ISA.
pub const NUM_REGS: usize = 8;

/// Magic value marking a valid saved context (`"OWCTX10\0"` little-endian).
pub const CTX_MAGIC: u64 = 0x0030_3158_5443_574f;

/// Size in bytes of one per-CPU context save area.
pub const SAVE_AREA_BYTES: u64 =
    8 /* magic */ + 8 /* pid */ + 8 /* pc */ + 8 /* sp */ + 8 * NUM_REGS as u64;

/// A thread's hardware register context.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Context {
    /// Program counter (for our resumable programs: the resume step index).
    pub pc: u64,
    /// Stack pointer.
    pub sp: u64,
    /// General-purpose registers.
    pub regs: [u64; NUM_REGS],
}

impl Context {
    /// Serializes the context (with `pid`) into physical memory at `addr`.
    pub fn save(&self, phys: &mut PhysMem, addr: PhysAddr, pid: u64) -> Result<(), MemError> {
        phys.write_u64(addr, CTX_MAGIC)?;
        phys.write_u64(addr + 8, pid)?;
        phys.write_u64(addr + 16, self.pc)?;
        phys.write_u64(addr + 24, self.sp)?;
        for (i, r) in self.regs.iter().enumerate() {
            phys.write_u64(addr + 32 + 8 * i as u64, *r)?;
        }
        Ok(())
    }

    /// Reads a saved context back, validating the magic. Returns
    /// `Ok(None)` if no valid context is present (magic mismatch — either
    /// never saved or corrupted by a fault).
    pub fn load(phys: &PhysMem, addr: PhysAddr) -> Result<Option<(u64, Context)>, MemError> {
        if phys.read_u64(addr)? != CTX_MAGIC {
            return Ok(None);
        }
        let pid = phys.read_u64(addr + 8)?;
        let mut ctx = Context {
            pc: phys.read_u64(addr + 16)?,
            sp: phys.read_u64(addr + 24)?,
            regs: [0; NUM_REGS],
        };
        for i in 0..NUM_REGS {
            ctx.regs[i] = phys.read_u64(addr + 32 + 8 * i as u64)?;
        }
        Ok(Some((pid, ctx)))
    }
}

/// Run state of a simulated CPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CpuState {
    /// Executing normally.
    Running,
    /// Halted after saving its context (post-NMI).
    Halted,
}

/// A simulated processor.
#[derive(Debug, Clone)]
pub struct Cpu {
    /// This CPU's id.
    pub id: CpuId,
    /// The context of the thread currently executing on this CPU.
    pub ctx: Context,
    /// PID of the thread currently executing (0 = idle/kernel).
    pub current_pid: u64,
    /// Whether the CPU is currently executing kernel code.
    pub in_kernel: bool,
    /// Run state.
    pub state: CpuState,
}

impl Cpu {
    /// A fresh running CPU.
    pub fn new(id: CpuId) -> Self {
        Cpu {
            id,
            ctx: Context::default(),
            current_pid: 0,
            in_kernel: false,
            state: CpuState::Running,
        }
    }

    /// Delivers a non-maskable interrupt: saves the current thread context
    /// into this CPU's save area and halts. Idempotent once halted.
    pub fn nmi_halt(
        &mut self,
        phys: &mut PhysMem,
        save_area_base: PhysAddr,
    ) -> Result<(), MemError> {
        if self.state == CpuState::Halted {
            return Ok(());
        }
        let addr = save_area_base + self.id as u64 * SAVE_AREA_BYTES;
        self.ctx.save(phys, addr, self.current_pid)?;
        self.state = CpuState::Halted;
        Ok(())
    }

    /// Restarts the CPU (used when the crash kernel takes over).
    pub fn reset(&mut self) {
        self.ctx = Context::default();
        self.current_pid = 0;
        self.in_kernel = false;
        self.state = CpuState::Running;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_save_load_round_trip() {
        let mut phys = PhysMem::new(1);
        let mut ctx = Context {
            pc: 0x1234,
            sp: 0x8000,
            ..Context::default()
        };
        ctx.regs[3] = 99;
        ctx.save(&mut phys, 64, 7).unwrap();
        let (pid, got) = Context::load(&phys, 64).unwrap().unwrap();
        assert_eq!(pid, 7);
        assert_eq!(got, ctx);
    }

    #[test]
    fn corrupted_magic_yields_none() {
        let mut phys = PhysMem::new(1);
        Context::default().save(&mut phys, 0, 1).unwrap();
        phys.corrupt_u64(0, 0xff);
        assert!(Context::load(&phys, 0).unwrap().is_none());
    }

    #[test]
    fn nmi_saves_and_halts_once() {
        let mut phys = PhysMem::new(1);
        let mut cpu = Cpu::new(1);
        cpu.current_pid = 42;
        cpu.ctx.pc = 0xabc;
        cpu.nmi_halt(&mut phys, 0).unwrap();
        assert_eq!(cpu.state, CpuState::Halted);
        let addr = SAVE_AREA_BYTES;
        let (pid, ctx) = Context::load(&phys, addr).unwrap().unwrap();
        assert_eq!(pid, 42);
        assert_eq!(ctx.pc, 0xabc);
        // A second NMI must not clobber anything.
        cpu.ctx.pc = 0xdef;
        cpu.nmi_halt(&mut phys, 0).unwrap();
        let (_, ctx2) = Context::load(&phys, addr).unwrap().unwrap();
        assert_eq!(ctx2.pc, 0xabc);
    }
}
