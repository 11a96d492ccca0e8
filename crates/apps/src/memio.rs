//! Structured reads/writes of application data in simulated user memory.
//!
//! Programs must keep *all* of their data in their simulated address space
//! (that is what resurrection preserves). These helpers give the apps a
//! small typed layer over [`UserApi::mem_read`]/[`UserApi::mem_write`]:
//! u64 cells, plus the one step every socket server runs (`serve_step`),
//! which keeps its listener in such a cell.

use ow_kernel::{Errno, StepResult, UserApi};

/// Reads a `u64` cell.
pub fn get_u64(api: &mut dyn UserApi, vaddr: u64) -> Result<u64, Errno> {
    api.mem_read_u64(vaddr)
}

/// Writes a `u64` cell.
pub fn set_u64(api: &mut dyn UserApi, vaddr: u64, v: u64) -> Result<(), Errno> {
    api.mem_write_u64(vaddr, v)
}

/// Base virtual address of the shared-library mapping area.
pub const LIB_BASE: u64 = 0x0800_0000;
/// Stride between library mappings (one per 2 MiB slot, so each library
/// occupies its own second-level page table, as sparse mappings do on real
/// systems).
pub const LIB_STRIDE: u64 = 0x20_0000;
/// Pages per mapped library.
pub const LIB_PAGES: u64 = 4;

/// Maps `count` shared-library regions into the address space and touches
/// them (relocation processing), as the dynamic linker would at startup.
///
/// Real processes' page tables are dominated by such scattered mappings —
/// this is what makes Table 4's "page tables" share grow with application
/// size. Library counts per app mirror their real linkage footprints
/// (editors link a handful of libraries; MySQL/Apache dozens).
pub fn map_libraries(api: &mut dyn UserApi, count: u64) {
    for i in 0..count {
        let vaddr = LIB_BASE + i * LIB_STRIDE;
        if api.mmap_anon(vaddr, LIB_PAGES).is_ok() {
            // Touch the first two pages (text + GOT after relocation).
            let _ = api.mem_write_u64(vaddr, 0x7f45_4c46 + i);
            let _ = api.mem_write_u64(vaddr + 4096, i);
        }
    }
}

/// Walks `pages` pages of the working set starting at `base`, one read per
/// page — the memory-access profile of real request processing (buffer-pool
/// lookups, hash probes, string handling). This is what gives workloads a
/// baseline TLB-miss rate for Table 3's "increase in TLB misses" column to
/// be measured against.
pub fn churn(api: &mut dyn UserApi, base: u64, window_pages: u64, count: u64, salt: u64) {
    for i in 0..count {
        let page = (i.wrapping_mul(13).wrapping_add(salt)) % window_pages.max(1);
        let _ = api.mem_read_u64(base + page * 4096);
    }
}

/// A trivial bump allocator whose cursor lives in user memory, so the
/// allocation state itself survives resurrection.
#[derive(Debug, Clone, Copy)]
pub struct UserBump {
    /// Address of the cursor cell.
    pub cursor_cell: u64,
    /// First allocatable address.
    pub base: u64,
    /// One past the last allocatable address.
    pub limit: u64,
}

impl UserBump {
    /// Initializes the cursor (fresh start only).
    pub fn init(&self, api: &mut dyn UserApi) -> Result<(), Errno> {
        api.mem_write_u64(self.cursor_cell, self.base)
    }

    /// Allocates `size` bytes (8-aligned), or `Errno::NoMem`.
    pub fn alloc(&self, api: &mut dyn UserApi, size: u64) -> Result<u64, Errno> {
        let size = size.max(1).div_ceil(8) * 8;
        let cur = api.mem_read_u64(self.cursor_cell)?;
        if cur < self.base || cur + size > self.limit {
            return Err(Errno::NoMem);
        }
        api.mem_write_u64(self.cursor_cell, cur + size)?;
        Ok(cur)
    }
}

/// One step of a socket server whose listening socket id lives in user
/// memory at `sid_cell` (`u64::MAX` while it has none): opens a listener
/// if the cell holds none, then receives one message of up to `buf_len`
/// bytes and hands it to `handle` with the listener. With nothing queued
/// the server idles for `idle_cycles`; a dead listener (one a resurrection
/// did not bring back) is dropped, so the next step opens a fresh one.
pub(crate) fn serve_step(
    api: &mut dyn UserApi,
    sid_cell: u64,
    buf_len: usize,
    idle_cycles: u64,
    handle: impl FnOnce(&mut dyn UserApi, u32, &[u8]),
) -> StepResult {
    let Ok(sid) = open_listener(api, sid_cell) else {
        return StepResult::Running;
    };
    let mut buf = vec![0u8; buf_len];
    match api.sock_recv(sid, &mut buf) {
        Ok(_) => handle(api, sid, &buf),
        Err(Errno::WouldBlock) => api.compute(idle_cycles),
        Err(Errno::Restart) => {}
        Err(_) => {
            let _ = api.mem_write_u64(sid_cell, u64::MAX);
        }
    }
    StepResult::Running
}

fn open_listener(api: &mut dyn UserApi, sid_cell: u64) -> Result<u32, Errno> {
    let sid = api.mem_read_u64(sid_cell)?;
    if sid != u64::MAX {
        return Ok(sid as u32);
    }
    let new = api.socket()?;
    api.mem_write_u64(sid_cell, new as u64)?;
    Ok(new)
}
