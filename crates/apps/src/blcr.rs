//! The BLCR checkpointing system analog (§5.4).
//!
//! BLCR checkpoints unmodified applications. The paper modifies it to write
//! checkpoints **to memory** instead of disk (≈10× faster) and relies on
//! Otherworld to protect those in-memory checkpoints from kernel crashes —
//! no crash procedure needed, zero application changes.
//!
//! The test application walks over a large data region rewriting pages with
//! an iteration-stamped pattern; every `CKPT_PERIOD` iterations BLCR copies
//! the whole region into the checkpoint area (memory mode) or a file (disk
//! mode).

use crate::workload::{pid_of, AppMeta, BatchShadow, VerifyResult, Workload, SETTLE_STEPS};
use ow_kernel::{
    layout::oflags,
    program::{Program, ProgramRegistry, StepResult, UserApi, PROG_STATE_VADDR},
    Errno, Kernel, SpawnSpec,
};
use ow_simhw::PAGE_SIZE;

/// Header cells.
const ITER_CELL: u64 = PROG_STATE_VADDR + 8;
/// Page cursor within the current iteration.
const CURSOR_CELL: u64 = PROG_STATE_VADDR + 16;
/// Iteration captured by the last checkpoint (`u64::MAX` = none).
const CKPT_ITER_CELL: u64 = PROG_STATE_VADDR + 24;
/// Number of data pages.
const PAGES_CELL: u64 = PROG_STATE_VADDR + 32;
/// Checkpoint mode: 0 = memory, 1 = disk.
const MODE_CELL: u64 = PROG_STATE_VADDR + 40;

/// Data region (the application's working set).
pub const DATA_VADDR: u64 = 0x40_0000;
/// In-memory checkpoint region.
pub const CKPT_VADDR: u64 = 0x1000_0000;
/// Disk checkpoint file.
pub const CKPT_FILE: &str = "/blcr.ckpt";

/// Default data pages (the paper's test app had an 800 MB footprint;
/// scaled to the simulator).
pub const DEFAULT_PAGES: u64 = 64;
/// Checkpoint every this many full passes over the data.
pub const CKPT_PERIOD: u64 = 4;

/// Checkpoint destination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CkptMode {
    /// In-memory checkpoint (the paper's modification).
    Memory,
    /// Unmodified BLCR: checkpoint to disk.
    Disk,
}

/// The checkpointed test application (BLCR wraps it transparently).
pub struct Blcr;

/// The stamp written into every u64 of page `p` at iteration `i`.
pub fn stamp(iter: u64, page: u64) -> u64 {
    iter.wrapping_mul(0x1_0000)
        .wrapping_add(page)
        .wrapping_mul(0x9e37_79b9)
        | 1
}

impl Blcr {
    fn checkpoint(api: &mut dyn UserApi, pages: u64, mode: u64, iter: u64) -> Result<(), Errno> {
        let mut page = vec![0u8; PAGE_SIZE];
        if mode == 0 {
            // In-memory checkpoint: copy the data region into the
            // checkpoint region.
            for p in 0..pages {
                api.mem_read(DATA_VADDR + p * PAGE_SIZE as u64, &mut page)?;
                api.mem_write(CKPT_VADDR + p * PAGE_SIZE as u64, &page)?;
            }
        } else {
            // Overwrite in place (BLCR preallocates the checkpoint file);
            // re-truncating every period would re-pay block allocation.
            let fd = api.open(CKPT_FILE, oflags::WRITE | oflags::CREATE)?;
            api.seek(fd, 0)?;
            for p in 0..pages {
                api.mem_read(DATA_VADDR + p * PAGE_SIZE as u64, &mut page)?;
                api.write(fd, &page)?;
            }
            api.fsync(fd)?;
            api.close(fd)?;
        }
        api.mem_write_u64(CKPT_ITER_CELL, iter)
    }

    /// Restores the data region from the checkpoint (public so examples and
    /// verification can exercise the restore path).
    pub fn restore(api: &mut dyn UserApi) -> Result<u64, Errno> {
        let pages = api.mem_read_u64(PAGES_CELL)?;
        let mode = api.mem_read_u64(MODE_CELL)?;
        let ckpt_iter = api.mem_read_u64(CKPT_ITER_CELL)?;
        if ckpt_iter == u64::MAX {
            return Err(Errno::NoEnt);
        }
        let mut page = vec![0u8; PAGE_SIZE];
        if mode == 0 {
            for p in 0..pages {
                api.mem_read(CKPT_VADDR + p * PAGE_SIZE as u64, &mut page)?;
                api.mem_write(DATA_VADDR + p * PAGE_SIZE as u64, &page)?;
            }
        } else {
            let fd = api.open(CKPT_FILE, oflags::READ)?;
            for p in 0..pages {
                api.read(fd, &mut page)?;
                api.mem_write(DATA_VADDR + p * PAGE_SIZE as u64, &page)?;
            }
            api.close(fd)?;
        }
        Ok(ckpt_iter)
    }
}

impl Program for Blcr {
    fn step(&mut self, api: &mut dyn UserApi) -> StepResult {
        let pages = match api.mem_read_u64(PAGES_CELL) {
            Ok(p) if p > 0 => p,
            _ => return StepResult::Running,
        };
        let iter = api.mem_read_u64(ITER_CELL).unwrap_or(0);
        let cursor = api.mem_read_u64(CURSOR_CELL).unwrap_or(0);

        // Rewrite one page with the current iteration's pattern.
        let val = stamp(iter, cursor);
        let mut page = vec![0u8; PAGE_SIZE];
        for (i, chunk) in page.chunks_exact_mut(8).enumerate() {
            chunk.copy_from_slice(&val.wrapping_add(i as u64).to_le_bytes());
        }
        let _ = api.mem_write(DATA_VADDR + cursor * PAGE_SIZE as u64, &page);
        api.compute(4);

        if cursor + 1 < pages {
            let _ = api.mem_write_u64(CURSOR_CELL, cursor + 1);
        } else {
            let next = iter + 1;
            let _ = api.mem_write_u64(CURSOR_CELL, 0);
            let _ = api.mem_write_u64(ITER_CELL, next);
            if next.is_multiple_of(CKPT_PERIOD) {
                let mode = api.mem_read_u64(MODE_CELL).unwrap_or(0);
                let _ = Self::checkpoint(api, pages, mode, next);
            }
        }
        StepResult::Running
    }

    fn save_state(&mut self, _api: &mut dyn UserApi) {}
}

/// Registers BLCR with the program registry. `args`: `[pages, mode]` where
/// mode is `"disk"` or `"memory"` (default).
pub fn register(r: &mut ProgramRegistry) {
    r.register(
        "blcr",
        |api, args| {
            let pages = args
                .first()
                .and_then(|s| s.parse::<u64>().ok())
                .unwrap_or(DEFAULT_PAGES);
            let mode = match args.get(1).map(String::as_str) {
                Some("disk") => 1u64,
                _ => 0u64,
            };
            crate::memio::map_libraries(api, 16);
            let _ = api.mmap_anon(DATA_VADDR, pages);
            if mode == 0 {
                let _ = api.mmap_anon(CKPT_VADDR, pages);
            }
            let _ = api.mem_write_u64(ITER_CELL, 0);
            let _ = api.mem_write_u64(CURSOR_CELL, 0);
            let _ = api.mem_write_u64(CKPT_ITER_CELL, u64::MAX);
            let _ = api.mem_write_u64(PAGES_CELL, pages);
            let _ = api.mem_write_u64(MODE_CELL, mode);
            Box::new(Blcr)
        },
        |_api| Box::new(Blcr),
    );
}

/// Table 2 row.
pub fn meta() -> AppMeta {
    AppMeta {
        name: "BLCR",
        crash_procedure: "Not required",
        modified_lines: 0,
    }
}

/// Shadow of the application+checkpoint state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlcrState {
    /// Iteration stamp of every data page.
    pub page_iters: Vec<u64>,
    /// Iteration of the last checkpoint (`None` = never).
    pub ckpt_iter: Option<u64>,
    iter: u64,
    cursor: u64,
}

impl BlcrState {
    fn new(pages: u64) -> Self {
        BlcrState {
            page_iters: vec![u64::MAX; pages as usize],
            ckpt_iter: None,
            iter: 0,
            cursor: 0,
        }
    }

    fn step(&mut self) {
        self.page_iters[self.cursor as usize] = self.iter;
        if self.cursor + 1 < self.page_iters.len() as u64 {
            self.cursor += 1;
        } else {
            self.cursor = 0;
            self.iter += 1;
            if self.iter.is_multiple_of(CKPT_PERIOD) {
                self.ckpt_iter = Some(self.iter);
            }
        }
    }
}

/// The BLCR workload: run the test app, checkpointing periodically.
pub struct BlcrWorkload {
    shadow: BatchShadow<BlcrState>,
    /// Data pages.
    pub pages: u64,
    /// Checkpoint destination.
    pub mode: CkptMode,
}

impl BlcrWorkload {
    /// Creates the workload.
    pub fn new(pages: u64, mode: CkptMode) -> Self {
        BlcrWorkload {
            shadow: BatchShadow::new(BlcrState::new(pages)),
            pages,
            mode,
        }
    }
}

/// Reads a data page's leading stamp (test/example helper).
pub fn page_stamp(k: &mut Kernel, pid: u64, page: u64) -> Option<u64> {
    let mut b = [0u8; 8];
    k.user_read(pid, DATA_VADDR + page * PAGE_SIZE as u64, &mut b)
        .ok()?;
    Some(u64::from_le_bytes(b))
}

impl Workload for BlcrWorkload {
    fn name(&self) -> &'static str {
        "blcr"
    }

    fn setup(&mut self, k: &mut Kernel) -> u64 {
        let mut spec = SpawnSpec::new("blcr", Box::new(Blcr));
        spec.heap_pages = 16;
        let args = vec![
            self.pages.to_string(),
            match self.mode {
                CkptMode::Memory => "memory".to_string(),
                CkptMode::Disk => "disk".to_string(),
            },
        ];
        crate::exec(k, spec, &args)
    }

    fn drive(&mut self, k: &mut Kernel, _pid: u64) {
        // One batch = one scheduler step = one page rewrite.
        self.shadow
            .begin_batch(vec![Box::new(|s: &mut BlcrState| s.step())]);
        if k.panicked.is_some() {
            return;
        }
        k.run_step();
        if k.panicked.is_none() {
            self.shadow.commit();
        }
    }

    /// BLCR advances on every scheduler step, so its settle steps are
    /// batches the shadow must count.
    fn settle(&mut self, k: &mut Kernel, pid: u64) {
        self.reconnect(k, pid);
        for _ in 0..SETTLE_STEPS {
            self.drive(k, pid);
        }
    }

    fn verify(&mut self, k: &mut Kernel, _pid: u64) -> VerifyResult {
        // The application is autonomous (it advances on every scheduler
        // step), so verification is *self-validating*: read the iteration
        // and cursor counters out of memory, bound them against the driven
        // progress, and check that every page carries exactly the pattern
        // those counters imply. Any wild write into the data, the counters
        // or the checkpoint breaks the invariant.
        let Some(pid) = pid_of(k, "blcr") else {
            return VerifyResult::Missing;
        };
        let cell = |k: &mut Kernel, addr: u64| -> Option<u64> {
            let mut b = [0u8; 8];
            k.user_read(pid, addr, &mut b).ok()?;
            Some(u64::from_le_bytes(b))
        };
        let (Some(iter), Some(cursor), Some(pages), Some(ckpt_iter)) = (
            cell(k, ITER_CELL),
            cell(k, CURSOR_CELL),
            cell(k, PAGES_CELL),
            cell(k, CKPT_ITER_CELL),
        ) else {
            return VerifyResult::Missing;
        };
        if pages != self.pages || cursor >= pages {
            return VerifyResult::Corrupted("control cells implausible".into());
        }
        // Progress must be within two iterations of what the driver
        // observed (`settle` drives its steps, so they are observed too).
        let driven = self.shadow.committed.iter;
        if iter + 2 < driven || iter > driven + 2 {
            return VerifyResult::Corrupted(format!(
                "iteration counter {iter} outside driven window {driven}"
            ));
        }
        // Check the full pattern of every page (the paper restores from
        // the checkpoint and verifies all application data).
        let mut got = vec![0u8; PAGE_SIZE];
        let mut want = vec![0u8; PAGE_SIZE];
        for p in 0..pages {
            let expect_iter = if p < cursor {
                Some(iter)
            } else if iter > 0 {
                Some(iter - 1)
            } else {
                None
            };
            if k.user_read(pid, DATA_VADDR + p * PAGE_SIZE as u64, &mut got)
                .is_err()
            {
                return VerifyResult::Missing;
            }
            match expect_iter {
                Some(it) => {
                    let val = stamp(it, p);
                    for (i, chunk) in want.chunks_exact_mut(8).enumerate() {
                        chunk.copy_from_slice(&val.wrapping_add(i as u64).to_le_bytes());
                    }
                }
                None => want.fill(0),
            }
            if got != want {
                return VerifyResult::Corrupted(format!("data page {p} diverges"));
            }
        }
        // In memory mode a completed checkpoint must hold the pattern of
        // its capture iteration.
        if ckpt_iter != u64::MAX && self.mode == CkptMode::Memory && ckpt_iter > 0 {
            for p in 0..pages {
                if k.user_read(pid, CKPT_VADDR + p * PAGE_SIZE as u64, &mut got)
                    .is_err()
                {
                    return VerifyResult::Missing;
                }
                let val = stamp(ckpt_iter - 1, p);
                for (i, chunk) in want.chunks_exact_mut(8).enumerate() {
                    chunk.copy_from_slice(&val.wrapping_add(i as u64).to_le_bytes());
                }
                if got != want {
                    return VerifyResult::Corrupted(format!("checkpoint page {p} diverges"));
                }
            }
        }
        VerifyResult::Intact
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_kernel as boot;

    #[test]
    fn pattern_and_shadow_agree() {
        let mut k = boot();
        let mut w = BlcrWorkload::new(8, CkptMode::Memory);
        let pid = w.setup(&mut k);
        for _ in 0..50 {
            w.drive(&mut k, pid);
        }
        assert_eq!(w.verify(&mut k, pid), VerifyResult::Intact);
    }

    #[test]
    fn memory_checkpoint_restores() {
        let mut k = boot();
        let mut w = BlcrWorkload::new(4, CkptMode::Memory);
        let pid = w.setup(&mut k);
        // 4 pages * 4 iterations = 16 steps to the first checkpoint; run
        // past it and scribble, then restore.
        for _ in 0..20 {
            w.drive(&mut k, pid);
        }
        let restored_iter = {
            let mut api = ow_kernel::syscall::KernelApi::new(&mut k, pid);
            Blcr::restore(&mut api).expect("checkpoint exists")
        };
        assert_eq!(restored_iter % CKPT_PERIOD, 0);
        // Every page now carries the checkpointed iteration's stamp
        // (pages written during iteration `restored_iter` onward were
        // captured mid-pass; page 0..cursor hold iter, rest iter-1 — at a
        // checkpoint boundary cursor is 0 so all pages hold iter-1's
        // pattern stamped during pass `restored_iter - 1`).
        let got = page_stamp(&mut k, pid, 0).unwrap();
        assert_eq!(got, stamp(restored_iter - 1, 0));
    }

    #[test]
    fn disk_checkpoint_restores() {
        let mut k = boot();
        let mut w = BlcrWorkload::new(4, CkptMode::Disk);
        let pid = w.setup(&mut k);
        for _ in 0..20 {
            w.drive(&mut k, pid);
        }
        let restored_iter = {
            let mut api = ow_kernel::syscall::KernelApi::new(&mut k, pid);
            Blcr::restore(&mut api).expect("checkpoint exists")
        };
        assert!(restored_iter > 0);
    }
}
