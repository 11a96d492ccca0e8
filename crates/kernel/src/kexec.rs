//! KDump/kexec analog: crash-kernel reservation, image loading, and the
//! memory operations of morphing (§3.1, §3.6).

use crate::{
    error::KernelError,
    kernel::{Kernel, CRASH_FRAMES, KERNEL_FRAMES, TRACE_FRAMES},
    layout::{
        pstate, CrashImageHeader, FileRecord, FileTable, HandoffBlock, PageCacheNode, ProcDesc,
        WarmSeal,
    },
    KernelResult,
};
use ow_layout::Record;
use ow_simhw::{machine::FrameOwner, FrameAllocator, Pfn, PhysAddr, PAGE_BYTES};

/// The dead kernel's frame-allocator state, CRC-validated out of its warm
/// seal and ready for wholesale adoption at morph time.
#[derive(Debug, Clone)]
pub struct AdoptedFrames {
    /// First frame the bitmap covers.
    pub base: Pfn,
    /// Decoded bitmap: element `i` = frame `base + i` was in use.
    pub used: Vec<bool>,
    /// The dead kernel's own region `(base_frame, nframes)` — kept
    /// allocated conservatively until a later cold morph reclaims it.
    pub dead_kernel: (Pfn, u64),
}

/// What the crash kernel may adopt from the dead kernel instead of
/// rebuilding — the warm half of the adopt-or-rebuild seam. The
/// orchestrator fills this in per structure from a CRC-validated
/// [`WarmSeal`]; every `None`/`false` falls back to the cold rebuild for
/// that structure alone.
#[derive(Debug, Clone, Default)]
pub struct AdoptPlan {
    /// Adopt the dead frame allocator instead of the reclaim scan.
    pub frames: Option<AdoptedFrames>,
    /// Adopt the dead active swap area (this index) instead of migrating
    /// every swapped page between partitions.
    pub swap: Option<u32>,
    /// Adopt page-cache chains (keep dirty pages in RAM) instead of
    /// flushing them to disk during file resurrection. Only valid when
    /// `frames` is adopted — the cold reclaim would free the cache frames.
    pub cache: bool,
}

impl Kernel {
    /// Reserves the crash region and loads a crash-kernel image into it,
    /// updating the handoff block. On a cold boot the region sits at the
    /// top of RAM; when morphing, the caller passes the region it chose.
    pub fn load_crash_kernel(&mut self) -> KernelResult<()> {
        let total = self.machine.frames();
        if CRASH_FRAMES >= total / 2 {
            return Err(KernelError::Inval("crash reservation size"));
        }
        // The flight-recorder region keeps the very top of RAM, the
        // epoch-checkpoint slots sit just below it, and the crash
        // reservation immediately below those.
        let base = total - TRACE_FRAMES - crate::layout::CKPT_FRAMES - CRASH_FRAMES;
        self.load_crash_kernel_at(base, CRASH_FRAMES)
    }

    /// Loads a crash kernel into the given region (used by morphing, which
    /// places the new reservation in reclaimed memory).
    pub fn load_crash_kernel_at(&mut self, base: Pfn, frames: u64) -> KernelResult<()> {
        // The image region is tagged so the hardware protects it (§3.1):
        // wild writes bounce off CrashImage frames.
        self.machine
            .set_owner_range(base, frames, FrameOwner::CrashImage);
        let header = CrashImageHeader {
            version: self.config.version,
            entry_valid: 1,
        };
        header.write(&mut self.machine.phys, base * PAGE_BYTES)?;
        let mut handoff: HandoffBlock = HandoffBlock::read(&self.machine.phys)?.0;
        handoff.crash_base = base;
        handoff.crash_frames = frames;
        handoff.crash_entry_ok = 1;
        handoff.write(&mut self.machine.phys)?;
        self.crash_region = Some((base, frames));
        Ok(())
    }

    /// Morph step 1 (§3.6): reclaim all physical memory. The crash kernel —
    /// now the only kernel — replaces its reservation-confined allocator
    /// with one spanning all of RAM, marking as used only what it knows to
    /// be live: the handoff frames, its own kernel region, and every frame
    /// its confined allocator had handed out (resurrected user pages, page
    /// tables, page cache). Everything that belonged to the dead kernel
    /// returns to the free list.
    pub fn reclaim_all_memory(&mut self) -> KernelResult<()> {
        // Morph stage: the dead kernel's frames are about to be absorbed.
        ow_crashpoint::crash_point!("kernel.kexec.reclaim.memory");
        let total = self.machine.frames();
        // The cold rebuild walks every frame's ownership and reachability;
        // the warm path's per-byte CRC validation replaces exactly this.
        let scan_cost = self.machine.cost.reclaim_frame_scan * total;
        self.machine.clock.charge(scan_cost);
        let mut fresh = FrameAllocator::new(0, total as usize);

        // Handoff structures stay.
        for pfn in 0..crate::layout::HANDOFF_FRAMES {
            fresh.mark_used(pfn);
        }
        // This kernel's own region.
        for pfn in self.base_frame..self.base_frame + KERNEL_FRAMES {
            fresh.mark_used(pfn);
        }
        // Everything the confined allocator handed out.
        let old = &self.falloc;
        for pfn in old.base()..old.base() + old.capacity() as u64 {
            if old.is_used(pfn) {
                fresh.mark_used(pfn);
            }
        }
        // Frames adopted by mapping instead of copying (resurrection's
        // page-mapping optimization) live outside the confined allocator;
        // keep exactly the frames reachable from a live process's page
        // tables. Frame *tags* are not enough: pids restart at 1 in every
        // generation, so a dead generation's User/PageTable tags collide
        // with live pids — trusting them leaks a few frames per microreboot
        // and fragments RAM until a later morph cannot place its contiguous
        // crash reservation.
        for p in &self.procs {
            p.asp.for_each_frame(&self.machine.phys, |pfn| {
                if fresh.contains(pfn) {
                    fresh.mark_used(pfn);
                }
            })?;
        }
        for pfn in 0..total {
            if fresh.contains(pfn) && !fresh.is_used(pfn) {
                match self.machine.owner(pfn) {
                    FrameOwner::Trace => {
                        // The flight recorder outlives every kernel
                        // generation; morphing must not reallocate it.
                        fresh.mark_used(pfn);
                    }
                    FrameOwner::Handoff | FrameOwner::Free => {}
                    FrameOwner::User { .. }
                    | FrameOwner::PageTable { .. }
                    | FrameOwner::PageCache
                    | FrameOwner::Kernel
                    | FrameOwner::CrashImage => {
                        // Unreachable from any live process and not this
                        // kernel's own allocation: the dead generation's
                        // page tables, flushed page cache, kernel region,
                        // or consumed crash image. All reclaimed.
                        self.machine.set_owner(pfn, FrameOwner::Free);
                    }
                }
            }
        }
        self.falloc = fresh;
        Ok(())
    }

    /// Morph step 2 (§3.6): choose a region in reclaimed memory for the
    /// next crash kernel and load a fresh image there. Prefers the dead
    /// kernel's old neighborhood (low memory) to keep the layout simple.
    pub fn install_new_crash_kernel(&mut self) -> KernelResult<()> {
        // Morph stage: between reclaim and the next crash image existing —
        // the window in which the system is unprotected.
        ow_crashpoint::crash_point!("kernel.kexec.install.image");
        let base = self
            .falloc
            .alloc_contiguous(CRASH_FRAMES as usize)
            .ok_or(KernelError::NoMemory)?;
        self.load_crash_kernel_at(base, CRASH_FRAMES)
    }

    /// Warm morph step 1: adopt the dead kernel's CRC-validated frame
    /// allocator wholesale instead of scanning all of RAM. The adopted
    /// used-set is widened by everything this kernel knows to be live
    /// (handoff, its own region and confined allocations, the trace ring,
    /// and the dead kernel's region). Frames of dead processes that were
    /// *not* resurrected stay marked used — a deliberate conservative
    /// leak the next cold morph's reachability pass heals.
    pub fn adopt_frames(&mut self, adopted: &AdoptedFrames) -> KernelResult<()> {
        // Morph stage: between bitmap decode and allocator swap.
        ow_crashpoint::crash_point!("kernel.kexec.adopt.frames");
        let total = self.machine.frames();
        let mut fresh = FrameAllocator::new(0, total as usize);
        for (i, &used) in adopted.used.iter().enumerate() {
            let pfn = adopted.base + i as u64;
            if used && pfn < total {
                fresh.mark_used(pfn);
            }
        }
        for pfn in 0..crate::layout::HANDOFF_FRAMES {
            fresh.mark_used(pfn);
        }
        for pfn in self.base_frame..self.base_frame + KERNEL_FRAMES {
            fresh.mark_used(pfn);
        }
        let (dead_base, dead_frames) = adopted.dead_kernel;
        for pfn in dead_base..(dead_base + dead_frames).min(total) {
            fresh.mark_used(pfn);
        }
        let old = &self.falloc;
        for pfn in old.base()..old.base() + old.capacity() as u64 {
            if old.is_used(pfn) {
                fresh.mark_used(pfn);
            }
        }
        for pfn in 0..total {
            if matches!(self.machine.owner(pfn), FrameOwner::Trace) {
                fresh.mark_used(pfn);
            }
        }
        self.falloc = fresh;
        Ok(())
    }

    /// Full morph: frame state comes from the plan's validated adoption
    /// when present, from the cold all-RAM reclaim scan otherwise (the
    /// plan's swap and cache halves act earlier, during resurrection); then
    /// the next crash kernel is installed. On return this kernel *is* the
    /// main kernel and the system is protected against the next failure.
    pub fn morph_into_main_with(&mut self, plan: &AdoptPlan) -> KernelResult<()> {
        ow_crashpoint::crash_point!("kernel.kexec.morph.main");
        match &plan.frames {
            Some(adopted) => self.adopt_frames(adopted)?,
            None => self.reclaim_all_memory()?,
        }
        self.install_new_crash_kernel()?;
        self.is_crash = false;
        self.write_header()?;
        Ok(())
    }

    /// Panic-path sealing: writes the dying kernel's [`WarmSeal`] — frame
    /// bitmap, active swap-slot map and page-cache CRCs — into its reserved
    /// seal region with plain stores. Best-effort by design: any failure
    /// leaves the boot-time invalid seal in place and the next morph stays
    /// cold. Must never allocate from the kernel heap.
    pub fn seal_warm_state(&mut self) {
        let _ = self.try_seal_warm_state();
    }

    fn try_seal_warm_state(&mut self) -> KernelResult<()> {
        let seal_base = crate::layout::seal_addr(self.base_frame, KERNEL_FRAMES);
        let region_end = (self.base_frame + KERNEL_FRAMES) * PAGE_BYTES;

        // Bit-pack the frame-allocator bitmap into the seal region, right
        // after the record itself.
        let cap = self.falloc.capacity();
        let nbytes = (cap as u64).div_ceil(8);
        let bitmap_addr = seal_base + WarmSeal::SIZE;
        if bitmap_addr + nbytes > region_end {
            // The machine is too large for the reserved seal frames; skip
            // sealing and let the morph stay cold.
            return Err(KernelError::NoSpace);
        }
        let mut bits = vec![0u8; nbytes as usize];
        let falloc_base = self.falloc.base();
        for i in 0..cap {
            if self.falloc.is_used(falloc_base + i as u64) {
                bits[i / 8] |= 1 << (i % 8);
            }
        }
        self.machine.phys.write(bitmap_addr, &bits)?;
        let falloc_crc = ow_layout::crc::crc32(&bits);

        // CRC the active swap area's live slot bitmap in place.
        let (swap_bitmap, swap_nslots) = match self.swaps.get(self.active_swap) {
            Some(a) => (a.bitmap, a.nslots),
            None => return Err(KernelError::Inval("no active swap")),
        };
        let swap_crc =
            ow_layout::crc::crc32_range(&self.machine.phys, swap_bitmap, swap_nslots as u64)?;

        // CRC every page-cache node in deterministic walk order.
        let (cache_nodes, cache_crc) = self.seal_cache_crc()?;

        let seal = WarmSeal {
            valid: 1,
            generation: self.generation,
            falloc_base,
            falloc_capacity: cap as u64,
            falloc_bitmap: bitmap_addr,
            falloc_crc,
            swap_index: self.active_swap as u32,
            swap_nslots,
            swap_crc,
            swap_bitmap,
            cache_nodes,
            cache_crc,
        };
        seal.write(&mut self.machine.phys, seal_base)?;
        Ok(())
    }

    /// CRC over the encoded bytes of every page-cache node, walking
    /// non-exited processes in list order, file-table slots in index
    /// order, deduplicating shared file records by address. The adoption
    /// validator replays exactly this walk over the dead structures with
    /// the validated readers; any divergence fails the CRC and the cache
    /// falls back cold.
    fn seal_cache_crc(&self) -> KernelResult<(u64, u32)> {
        let mut hasher = ow_layout::crc::Crc32::new();
        let mut nodes = 0u64;
        let mut seen: Vec<PhysAddr> = Vec::new();
        for p in &self.procs {
            if p.state == pstate::EXITED {
                continue;
            }
            let (desc, _) = ProcDesc::read(&self.machine.phys, p.desc_addr)?;
            if desc.files == 0 {
                continue;
            }
            let (tab, _) = FileTable::read(&self.machine.phys, desc.files)?;
            for &frec_addr in &tab.fds {
                if frec_addr == 0 || seen.contains(&frec_addr) {
                    continue;
                }
                seen.push(frec_addr);
                let (frec, _) = FileRecord::read(&self.machine.phys, frec_addr)?;
                let mut node_addr = frec.cache_head;
                let mut guard = 0u64;
                while node_addr != 0 {
                    guard += 1;
                    if guard > 1 << 20 {
                        return Err(KernelError::Inval("cache chain too long"));
                    }
                    let (node, _) = PageCacheNode::read(&self.machine.phys, node_addr)?;
                    hasher.update_range(&self.machine.phys, node_addr, PageCacheNode::SIZE)?;
                    nodes += 1;
                    node_addr = node.next;
                }
            }
        }
        Ok((nodes, hasher.finish()))
    }
}
