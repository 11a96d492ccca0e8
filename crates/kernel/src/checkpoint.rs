//! The epoch-checkpoint writer: continuous sealing of the Table 4 set.
//!
//! Every [`crate::CHECKPOINT_INTERVAL`] completed syscalls (and once more
//! on the panic path itself), the kernel copies its resurrection-critical
//! records — process descriptors, VMA chains, file tables and file records
//! — into one of the two A/B slots below the trace ring, as verbatim
//! snippets tagged with their source address, under a CRC-guarded
//! [`EpochCheckpoint`] header. Rollback-in-place (`ow-core`) later
//! revalidates the newest epoch and writes the snippets straight back.
//!
//! Sealing is best-effort by design, exactly like the warm seal: a chain
//! that no longer walks, a record that no longer decodes, or a payload
//! that outgrows the slot simply skips the epoch, leaving the previous
//! slot intact — and rollback then falls through to the microreboot.

use crate::{
    error::KernelError,
    kernel::Kernel,
    layout::{
        ckpt_slot_addr, ckptflags, pstate, snipkind, EpochCheckpoint, FileRecord, FileTable,
        ProcDesc, VmaDesc, CKPT_FRAMES, CKPT_PAYLOAD_MAX, CKPT_SLOTS,
    },
    KernelResult,
};
use ow_layout::Record;
use ow_simhw::{PhysAddr, PhysMem};

/// Longest VMA chain the writer will seal (mirrors the validated readers'
/// bound; a longer chain means corruption and the epoch is skipped).
const MAX_VMAS: u64 = 1024;

/// Appends one snippet — `{ addr, kind, len, verbatim bytes }` — to the
/// payload being assembled, through the shared ow-layout snippet codec.
fn push_snippet(
    payload: &mut Vec<u8>,
    phys: &PhysMem,
    addr: PhysAddr,
    kind: u32,
    len: u64,
) -> KernelResult<()> {
    ow_layout::push_snippet(payload, phys, addr, kind, len)
        .map_err(|_| KernelError::Inval("record unreadable while sealing"))
}

impl Kernel {
    /// Seals one epoch checkpoint of the resurrection-critical record set
    /// into the next A/B slot. `at_panic` marks the final seal the panic
    /// path writes: only such an epoch is fresh enough for rollback to
    /// restore without replaying anything. Best-effort: returns whether a
    /// complete epoch was committed. Never allocates from the kernel heap.
    pub fn seal_epoch_checkpoint(&mut self, at_panic: bool) -> bool {
        ow_crashpoint::crash_point!("kernel.checkpoint.seal.write");
        self.try_seal_epoch(at_panic).is_ok()
    }

    fn try_seal_epoch(&mut self, at_panic: bool) -> KernelResult<()> {
        let trace_base = self.trace_base;
        if trace_base < CKPT_FRAMES || trace_base > self.machine.frames() {
            return Err(KernelError::NoSpace);
        }

        let (payload, nprocs) = self.gather_epoch_payload()?;
        if payload.len() as u64 > CKPT_PAYLOAD_MAX {
            return Err(KernelError::NoSpace);
        }

        // The per-epoch attempt ledger survives a re-panic with no
        // progress: if the slot we are superseding seals the very same
        // syscall sequence, its attempt stamp carries forward, so a
        // rollback that failed once is never retried on the same epoch.
        let mut attempted = 0u32;
        if at_panic {
            for slot in 0..CKPT_SLOTS {
                if let Ok((c, _)) =
                    EpochCheckpoint::read(&self.machine.phys, ckpt_slot_addr(trace_base, slot))
                {
                    if c.valid != 0 && c.generation == self.generation && c.seq == self.syscall_seq
                    {
                        attempted = attempted.max(c.attempted);
                    }
                }
            }
        }

        // A/B discipline: the new epoch goes to the slot selected by its
        // parity, so the newest complete epoch survives a torn write.
        // Payload first, header record last — the record is the commit.
        let epoch = self.ckpt_epoch + 1;
        let addr = ckpt_slot_addr(trace_base, (epoch % CKPT_SLOTS as u64) as u32);
        self.machine
            .phys
            .write(addr + EpochCheckpoint::SIZE, &payload)?;
        let rec = EpochCheckpoint {
            valid: 1,
            generation: self.generation,
            epoch,
            seq: self.syscall_seq,
            flags: if at_panic { ckptflags::AT_PANIC } else { 0 },
            nprocs,
            attempted,
            payload_len: payload.len() as u64,
            payload_crc: ow_layout::crc::crc32(&payload),
        };
        rec.write(&mut self.machine.phys, addr)?;
        self.ckpt_epoch = epoch;
        self.last_ckpt_seq = self.syscall_seq;

        let cost = self.machine.cost.checkpoint_byte * (EpochCheckpoint::SIZE + rec.payload_len);
        self.machine.clock.charge(cost);
        Ok(())
    }

    /// Assembles the snippet payload: every non-exited process descriptor,
    /// its VMA chain, its file table, and every reachable file record
    /// (deduplicated by address across processes), each read back through
    /// the validating codec before its verbatim bytes are captured.
    fn gather_epoch_payload(&self) -> KernelResult<(Vec<u8>, u32)> {
        let phys = &self.machine.phys;
        let mut payload = Vec::new();
        let mut nprocs = 0u32;
        let mut seen_frecs: Vec<PhysAddr> = Vec::new();
        for p in &self.procs {
            if p.state == pstate::EXITED {
                continue;
            }
            let (desc, _) = ProcDesc::read(phys, p.desc_addr)?;
            push_snippet(
                &mut payload,
                phys,
                p.desc_addr,
                snipkind::PROC,
                ProcDesc::SIZE,
            )?;
            nprocs += 1;

            let mut vma_addr = desc.mm_head;
            let mut walked = 0u64;
            while vma_addr != 0 {
                walked += 1;
                if walked > MAX_VMAS {
                    return Err(KernelError::Inval("vma chain too long to seal"));
                }
                let (vma, _) = VmaDesc::read(phys, vma_addr)?;
                push_snippet(&mut payload, phys, vma_addr, snipkind::VMA, VmaDesc::SIZE)?;
                vma_addr = vma.next;
            }

            if desc.files != 0 {
                let (tab, _) = FileTable::read(phys, desc.files)?;
                push_snippet(
                    &mut payload,
                    phys,
                    desc.files,
                    snipkind::FILE_TABLE,
                    FileTable::SIZE,
                )?;
                for &frec_addr in &tab.fds {
                    if frec_addr == 0 || seen_frecs.contains(&frec_addr) {
                        continue;
                    }
                    seen_frecs.push(frec_addr);
                    let _ = FileRecord::read(phys, frec_addr)?;
                    push_snippet(
                        &mut payload,
                        phys,
                        frec_addr,
                        snipkind::FILE_RECORD,
                        FileRecord::SIZE,
                    )?;
                }
            }
        }
        Ok((payload, nprocs))
    }
}
