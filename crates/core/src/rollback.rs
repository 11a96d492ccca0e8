//! Rollback-in-place: rung 0 of the degradation ladder.
//!
//! Before any crash-kernel handoff, the recovery path looks at the epoch
//! checkpoints the dying kernel sealed next to the trace ring. If the
//! newest one is trustworthy — sealed by *this* generation, stamped
//! `AT_PANIC` at exactly the current syscall sequence, never attempted
//! before, CRC-intact, and topologically consistent with the live process
//! set — the resurrection-critical records are rewritten in place from the
//! sealed snippets and the *same* kernel generation resumes: no crash-boot,
//! no resurrection engine, no morph, nothing replayed.
//!
//! Any doubt whatsoever falls through to the full microreboot (rung 1, the
//! paper's mechanism): validation performs zero writes, so a refused
//! rollback leaves the machine byte-identical to a run with rollback
//! disabled. The one exception is deliberate — the chosen epoch's
//! `attempted` stamp is burned immediately before the apply, so a rollback
//! that leads straight back into the same panic is never retried on the
//! same epoch (the re-panic's final seal carries the stamp forward).

use crate::{
    config::{LadderRung, OtherworldConfig},
    stats::{
        AdoptionSummary, MicrorebootReport, ProcOutcome, ProcReport, ReadKind, ReadStats,
        RollbackSummary, SupervisorSummary,
    },
};
use ow_kernel::{layout::pstate, syscall::KernelApi, Kernel};
use ow_layout::{
    ckpt_slot_addr, ckptflags, copy_snippet_bytes, parse_snippet, snipkind, EpochCheckpoint,
    FileRecord, FileTable, HandoffBlock, ProcDesc, Record, VmaDesc, CKPT_FRAMES, CKPT_SLOTS,
};
use ow_simhw::PhysAddr;
use ow_trace::EventKind;
use std::collections::{BTreeMap, BTreeSet};

/// Longest VMA chain the validator will walk inside a sealed payload
/// (mirrors the writer's and the readers' bound).
const MAX_VMAS: usize = 1024;

/// One parsed payload snippet: a record's home address and where its
/// verbatim bytes sit inside the checkpoint slot (the kind tag is consumed
/// during parsing — the apply is kind-agnostic, it just writes bytes back).
struct Snip {
    /// Home address the bytes are rolled back to.
    addr: PhysAddr,
    /// Record length in bytes.
    len: u64,
    /// Physical address of the sealed bytes inside the slot payload.
    src: PhysAddr,
}

/// A fully validated rollback plan: the slot to burn and the snippets to
/// rewrite, plus everything the report needs.
struct Plan {
    /// Physical address of the chosen slot's header record.
    slot_addr: PhysAddr,
    /// The chosen (validated) checkpoint header.
    header: EpochCheckpoint,
    /// Every payload snippet, in sealed order.
    snips: Vec<Snip>,
    /// Sealed descriptors, keyed by home address (host cross-check + the
    /// post-apply mirror refresh).
    descs: BTreeMap<PhysAddr, ProcDesc>,
    /// Per-process rolled-back byte counts, keyed by pid.
    proc_bytes: BTreeMap<u64, u64>,
    /// Checkpoint bytes validated (headers + payload).
    bytes_validated: u64,
}

/// Attempts rung 0 on the panicked kernel. Returns the rollback report on
/// success; `None` means the caller must fall through to the microreboot
/// with the kernel's record state untouched. The caller wraps this in
/// [`crate::supervisor::contain`] — an injected crash-point panic in here
/// costs only the rollback attempt, never the machine.
pub fn attempt(
    k: &mut Kernel,
    config: &OtherworldConfig,
    flight: ow_trace::FlightRecord,
    t_panic: u64,
) -> Option<MicrorebootReport> {
    // A fault while deciding whether the newest epoch is trustworthy:
    // nothing has been written yet, the microreboot still has everything.
    ow_crashpoint::crash_point!("recovery.rollback.epoch.validate");

    if k.config.checkpoint_interval == 0 {
        return None;
    }
    let mut stats = ReadStats::default();
    let plan = validate(k, &mut stats)?;

    // The point of no return: an injected fault here must leave the
    // record state exactly as the microreboot path expects to find it.
    ow_crashpoint::crash_point!("recovery.rollback.state.apply");

    // Burn the attempt stamp first. If the apply below dies (or resuming
    // runs straight back into the same panic), the re-sealed epoch carries
    // `attempted` forward and this epoch is never rolled back again.
    let mut burned = plan.header.clone();
    burned.attempted = 1;
    burned.write(&mut k.machine.phys, plan.slot_addr).ok()?;

    apply(k, config, &plan, stats, flight, t_panic)
}

/// Validates both A/B slots and builds the rollback plan from the newest
/// eligible epoch. Read-only: performs no writes at all.
fn validate(k: &mut Kernel, stats: &mut ReadStats) -> Option<Plan> {
    // Geometry comes from the validated handoff block, not the host
    // mirror: if the fault trashed the handoff, rollback must not guess.
    let (h, _) = HandoffBlock::read(&k.machine.phys).ok()?;
    if h.trace_base < CKPT_FRAMES {
        return None;
    }
    let mut bytes_validated = 0u64;

    // Newest eligible epoch across the two slots. Eligibility is the
    // whole freshness rule: this generation, sealed at the instant of
    // death (AT_PANIC at the current syscall sequence), never attempted.
    let mut chosen: Option<(PhysAddr, EpochCheckpoint)> = None;
    for slot in 0..CKPT_SLOTS {
        let addr = ckpt_slot_addr(h.trace_base, slot);
        let Ok((c, n)) = EpochCheckpoint::read(&k.machine.phys, addr) else {
            continue;
        };
        stats.add(ReadKind::EpochCheckpoint, n);
        bytes_validated += n;
        let cost = k.machine.cost.validate_byte * n;
        k.machine.clock.charge(cost);
        if c.valid != 0
            && c.generation == k.generation
            && c.flags & ckptflags::AT_PANIC != 0
            && c.seq == k.syscall_seq
            && c.attempted == 0
            && chosen.as_ref().is_none_or(|(_, best)| c.epoch > best.epoch)
        {
            chosen = Some((addr, c));
        }
    }
    let (slot_addr, header) = chosen?;

    // Payload CRC: a torn slot (payload half-written, or flipped after the
    // seal) dies here.
    let payload_base = slot_addr + EpochCheckpoint::SIZE;
    let cost = k.machine.cost.validate_byte * header.payload_len;
    k.machine.clock.charge(cost);
    bytes_validated += header.payload_len;
    let crc =
        ow_layout::crc::crc32_range(&k.machine.phys, payload_base, header.payload_len).ok()?;
    if crc != header.payload_crc {
        return None;
    }

    // Parse and semantically revalidate every snippet through the same
    // validating codec the crash kernel's readers use: a CRC-valid but
    // poisoned descriptor dies on its own `validate()`.
    let mut snips = Vec::new();
    let mut descs: BTreeMap<PhysAddr, ProcDesc> = BTreeMap::new();
    let mut vmas: BTreeMap<PhysAddr, VmaDesc> = BTreeMap::new();
    let mut tables: BTreeMap<PhysAddr, FileTable> = BTreeMap::new();
    let mut frecs: BTreeSet<PhysAddr> = BTreeSet::new();
    let mut off = 0u64;
    while off < header.payload_len {
        let (view, next) =
            parse_snippet(&k.machine.phys, payload_base, header.payload_len, off).ok()?;
        let (addr, kind, len, src) = (view.addr, view.kind, view.len, view.src);
        let expected_len = match kind {
            snipkind::PROC => ProcDesc::SIZE,
            snipkind::VMA => VmaDesc::SIZE,
            snipkind::FILE_TABLE => FileTable::SIZE,
            snipkind::FILE_RECORD => FileRecord::SIZE,
            _ => return None,
        };
        if len != expected_len {
            return None;
        }
        match kind {
            snipkind::PROC => {
                let (d, n) = ProcDesc::read(&k.machine.phys, src).ok()?;
                stats.add(ReadKind::ProcDesc, n);
                if descs.insert(addr, d).is_some() {
                    return None;
                }
            }
            snipkind::VMA => {
                let (v, n) = VmaDesc::read(&k.machine.phys, src).ok()?;
                stats.add(ReadKind::Vma, n);
                if vmas.insert(addr, v).is_some() {
                    return None;
                }
            }
            snipkind::FILE_TABLE => {
                let (t, n) = FileTable::read(&k.machine.phys, src).ok()?;
                stats.add(ReadKind::FileTable, n);
                if tables.insert(addr, t).is_some() {
                    return None;
                }
            }
            _ => {
                let (_, n) = FileRecord::read(&k.machine.phys, src).ok()?;
                stats.add(ReadKind::FileRecord, n);
                if !frecs.insert(addr) {
                    return None;
                }
            }
        }
        snips.push(Snip { addr, len, src });
        off = next;
    }

    // Topology: the sealed record set must describe exactly the live
    // process set, and every snippet must be reachable — an orphan or a
    // dangling pointer means the checkpoint does not match this kernel.
    if descs.len() != header.nprocs as usize {
        return None;
    }
    let live: Vec<&ow_kernel::ProcHandle> = k
        .procs
        .iter()
        .filter(|p| p.state != pstate::EXITED)
        .collect();
    if live.len() != descs.len() {
        return None;
    }
    let mut proc_bytes: BTreeMap<u64, u64> = BTreeMap::new();
    for p in &live {
        let d = descs.get(&p.desc_addr)?;
        if d.pid != p.pid || d.name != p.name {
            return None;
        }
        // Resuming needs a live program object or a rehydratable image.
        if p.program.is_none() && k.registry.get(&p.name).is_none() {
            return None;
        }
        let mut bytes = ProcDesc::SIZE;

        // The VMA chain must resolve entirely inside the snippet set.
        let mut seen: BTreeSet<PhysAddr> = BTreeSet::new();
        let mut vma_addr = d.mm_head;
        while vma_addr != 0 {
            if !seen.insert(vma_addr) || seen.len() > MAX_VMAS {
                return None;
            }
            let v = vmas.get(&vma_addr)?;
            bytes += VmaDesc::SIZE;
            vma_addr = v.next;
        }

        // Same for the file table and every open-file record.
        if d.files != 0 {
            let t = tables.get(&d.files)?;
            bytes += FileTable::SIZE;
            for &fd in &t.fds {
                if fd != 0 && !frecs.contains(&fd) {
                    return None;
                }
            }
        }
        proc_bytes.insert(p.pid, bytes);
    }
    // No orphans: every sealed VMA / file table / file record must be
    // referenced by the sealed process set.
    let reachable_vmas: BTreeSet<PhysAddr> = descs
        .values()
        .flat_map(|d| {
            let mut chain = Vec::new();
            let mut a = d.mm_head;
            while a != 0 && chain.len() <= MAX_VMAS {
                chain.push(a);
                a = vmas.get(&a).map(|v| v.next).unwrap_or(0);
            }
            chain
        })
        .collect();
    if reachable_vmas.len() != vmas.len() {
        return None;
    }
    let table_addrs: BTreeSet<PhysAddr> = descs
        .values()
        .filter(|d| d.files != 0)
        .map(|d| d.files)
        .collect();
    if table_addrs.len() != tables.len() {
        return None;
    }
    let reachable_frecs: BTreeSet<PhysAddr> = tables
        .values()
        .flat_map(|t| t.fds.iter().copied().filter(|&a| a != 0))
        .collect();
    if reachable_frecs != frecs {
        return None;
    }

    Some(Plan {
        slot_addr,
        header,
        snips,
        descs,
        proc_bytes,
        bytes_validated,
    })
}

/// Rewrites the sealed snippets in place and resumes the same generation.
fn apply(
    k: &mut Kernel,
    config: &OtherworldConfig,
    plan: &Plan,
    stats: ReadStats,
    flight: ow_trace::FlightRecord,
    t_panic: u64,
) -> Option<MicrorebootReport> {
    // Roll every record back to its sealed bytes. For a fresh AT_PANIC
    // epoch these writes are byte-identical no-ops unless the fault's wild
    // writes landed inside the record set — which is exactly the damage
    // rollback exists to undo.
    let mut rolled = 0u64;
    for s in &plan.snips {
        copy_snippet_bytes(&mut k.machine.phys, s.src, s.addr, s.len).ok()?;
        let cost = k.machine.cost.checkpoint_byte * s.len;
        k.machine.clock.charge(cost);
        rolled += 1;
    }

    // The kernel lives again: clear the panic, restart the NMI-halted
    // processors and re-arm the watchdog, exactly as a crash-kernel boot
    // would have — except it is still this kernel, this generation.
    k.panicked = None;
    for cpu in &mut k.machine.cpus {
        cpu.reset();
    }
    if k.config.fixes.watchdog_nmi {
        let now = k.machine.clock.now();
        k.machine.watchdog.enable(now);
    }

    // The machine still crashed, even though the kernel survives it: the
    // volatile channels — keyboard FIFOs, socket inboxes and outboxes —
    // die with the panic exactly as they would across a crash-kernel
    // boot. Dropping them keeps rung 0's observable semantics identical
    // to the microreboot's §3.5 contract: in-flight requests are lost and
    // the clients retransmit.
    for t in &mut k.terms {
        t.input.clear();
    }
    for p in &mut k.procs {
        for s in &mut p.sockets {
            s.inbox.clear();
            s.outbox.clear();
        }
    }

    // Refresh the host mirrors from the restored descriptors and owe the
    // §3.5 ERESTART to any call that was in flight at the panic. The
    // in-syscall marker is cleared the same way resurrection clears it.
    let pids: Vec<u64> = plan.descs.values().map(|d| d.pid).collect();
    for &pid in &pids {
        k.update_desc(pid, |d| d.in_syscall = 0).ok()?;
        let in_flight = plan
            .descs
            .values()
            .find(|d| d.pid == pid)
            .map(|d| d.in_syscall != 0)
            .unwrap_or(false);
        let p = k.proc_mut(pid).ok()?;
        p.deliver_restart = in_flight;
        p.resurrection_failures = 0;
    }

    // The program object of whichever process was on-CPU died with the
    // host unwind; rebuild it from resurrected memory like the crash
    // kernel would (the registry was checked during validation).
    for &pid in &pids {
        if k.proc(pid).ok()?.program.is_some() {
            continue;
        }
        let name = k.proc(pid).ok()?.name.clone();
        let image = k.registry.get(&name)?;
        let program = {
            let mut api = KernelApi::new(k, pid);
            (image.rehydrate)(&mut api)
        };
        k.proc_mut(pid).ok()?.program = Some(program);
    }

    k.trace_event(EventKind::RecoveryRolledBack, 0, plan.header.epoch, rolled);

    let now = k.machine.clock.now();
    let secs = |c: u64| c as f64 / ow_simhw::clock::CYCLES_PER_SEC as f64;
    let procs = plan
        .descs
        .values()
        .map(|d| {
            let mut report = ProcReport::new(
                d.pid,
                d.name.clone(),
                ProcOutcome::ContinuedTransparently,
                Some(d.pid),
                LadderRung::RollbackInPlace,
            );
            report.bytes_read = plan.proc_bytes.get(&d.pid).copied().unwrap_or(0);
            report
        })
        .collect();
    Some(MicrorebootReport {
        generation: k.generation,
        adoption: AdoptionSummary::default(),
        procs,
        stats,
        crash_boot_seconds: 0.0,
        resurrection_seconds: 0.0,
        morph_seconds: 0.0,
        total_seconds: secs(now - t_panic),
        rollback_seconds: secs(now - t_panic),
        rollback: Some(RollbackSummary {
            epoch: plan.header.epoch,
            seq: plan.header.seq,
            records: rolled,
            procs: plan.header.nprocs as u64,
            bytes_validated: plan.bytes_validated,
        }),
        supervisor: SupervisorSummary {
            enabled: config.supervisor.enabled,
            ..SupervisorSummary::default()
        },
        integrity_fixes: 0,
        flight,
    })
}
