//! Open files and the page cache.
//!
//! Writes land in per-file cached pages (frames tagged
//! [`FrameOwner::PageCache`]) whose descriptors — [`PageCacheNode`]s with a
//! dirty flag and file offset — live in kernel memory, exactly the buffer
//! tree the paper's crash kernel walks to flush dirty file data during
//! resurrection (§3.3). [`flush_cache`] is that shared walk: the main kernel
//! uses it for `fsync`/`close`, the crash kernel for resurrection.

use crate::{
    error::KernelError,
    fs::Fs,
    kernel::Kernel,
    layout::{oflags, FileRecord, FileTable, PageCacheNode},
    KernelResult,
};
use ow_layout::Record;
use ow_simhw::{machine::FrameOwner, machine::Machine, PhysAddr, PAGE_SIZE};

/// Walks a file's cache chain, writing every dirty page back to disk and
/// clearing its dirty flag. Returns the number of pages flushed.
///
/// Shared by the main kernel (`fsync`, `close`) and the crash kernel
/// (resurrection flushes dirty buffers of every reopened file).
pub fn flush_cache(m: &mut Machine, fs: &Fs, frec_addr: PhysAddr) -> KernelResult<u64> {
    let (frec, _) = FileRecord::read(&m.phys, frec_addr)?;
    // Fires mid-writeback on whichever side runs it: the main kernel
    // (fsync/close) or the crash kernel (resurrection buffer flush).
    ow_crashpoint::crash_point!("kernel.pagecache.flush.walk");
    let mut flushed = 0;
    let mut node_addr = frec.cache_head;
    while node_addr != 0 {
        let (node, _) = PageCacheNode::read(&m.phys, node_addr)?;
        if node.dirty != 0 {
            let valid = (frec.fsize.saturating_sub(node.file_off)).min(PAGE_SIZE as u64);
            if valid > 0 {
                let mut buf = vec![0u8; valid as usize];
                m.phys.read(node.pfn * PAGE_SIZE as u64, &mut buf)?;
                fs.write_at(m, frec.inode as u32, node.file_off, &buf)?;
            }
            // Clear the dirty flag (offset: magic+pad 8 + file_off 8 + pfn 8).
            m.phys.write_u32(node_addr + 24, 0)?;
            flushed += 1;
        }
        node_addr = node.next;
    }
    Ok(flushed)
}

impl Kernel {
    fn file_table(&self, pid: u64) -> KernelResult<(PhysAddr, FileTable)> {
        let desc = self.read_desc(pid)?;
        let (tab, _) = FileTable::read(&self.machine.phys, desc.files)?;
        Ok((desc.files, tab))
    }

    fn frec_addr(&self, pid: u64, fd: u32) -> KernelResult<PhysAddr> {
        let (_, tab) = self.file_table(pid)?;
        let addr = *tab.fds.get(fd as usize).ok_or(KernelError::BadFd(fd))?;
        if addr == 0 {
            return Err(KernelError::BadFd(fd));
        }
        Ok(addr)
    }

    fn read_frec(&self, addr: PhysAddr) -> KernelResult<FileRecord> {
        Ok(FileRecord::read(&self.machine.phys, addr)?.0)
    }

    fn write_frec(&mut self, addr: PhysAddr, frec: &FileRecord) -> KernelResult<()> {
        frec.write(&mut self.machine.phys, addr)?;
        Ok(())
    }

    /// Opens `path` for `pid`, returning the fd.
    pub fn file_open(&mut self, pid: u64, path: &str, flags: u32) -> KernelResult<u32> {
        let fs = self.fs.clone();
        let ino = match fs.lookup(&mut self.machine, path)? {
            Some(ino) => {
                if flags & oflags::TRUNC != 0 {
                    fs.truncate(&mut self.machine, ino)?;
                }
                ino
            }
            None if flags & oflags::CREATE != 0 => fs.create(&mut self.machine, path)?,
            None => return Err(KernelError::NoEnt(path.into())),
        };
        let fsize = fs.size_of(&mut self.machine, ino)?;
        let (tab_addr, mut tab) = self.file_table(pid)?;
        let slot = tab
            .fds
            .iter()
            .position(|&a| a == 0)
            .ok_or(KernelError::TooMany("fds"))? as u32;
        let frec_addr = self
            .kheap
            .alloc(FileRecord::SIZE)
            .ok_or(KernelError::NoMemory)?;
        let frec = FileRecord {
            flags,
            refcnt: 1,
            offset: if flags & oflags::APPEND != 0 {
                fsize
            } else {
                0
            },
            fsize,
            inode: ino as u64,
            path: path.to_string(),
            cache_head: 0,
        };
        self.write_frec(frec_addr, &frec)?;
        tab.fds[slot as usize] = frec_addr;
        tab.write(&mut self.machine.phys, tab_addr)?;
        Ok(slot)
    }

    /// Closes `fd`: writes back dirty pages, frees cache and record.
    pub fn file_close(&mut self, pid: u64, fd: u32) -> KernelResult<()> {
        let frec_addr = self.frec_addr(pid, fd)?;
        let fs = self.fs.clone();
        flush_cache(&mut self.machine, &fs, frec_addr)?;
        // Free the cache chain.
        let frec = self.read_frec(frec_addr)?;
        let mut node_addr = frec.cache_head;
        while node_addr != 0 {
            let (node, _) = PageCacheNode::read(&self.machine.phys, node_addr)?;
            self.free_frame(node.pfn);
            self.kheap.free(node_addr, PageCacheNode::SIZE);
            node_addr = node.next;
        }
        self.kheap.free(frec_addr, FileRecord::SIZE);
        let (tab_addr, mut tab) = self.file_table(pid)?;
        tab.fds[fd as usize] = 0;
        tab.write(&mut self.machine.phys, tab_addr)?;
        Ok(())
    }

    /// Finds the cache node for `file_off`, if cached.
    fn cache_find(
        &self,
        cache_head: PhysAddr,
        file_off: u64,
    ) -> KernelResult<Option<(PhysAddr, PageCacheNode)>> {
        let mut node_addr = cache_head;
        while node_addr != 0 {
            let (node, _) = PageCacheNode::read(&self.machine.phys, node_addr)?;
            if node.file_off == file_off {
                return Ok(Some((node_addr, node)));
            }
            node_addr = node.next;
        }
        Ok(None)
    }

    /// Ensures a cache page exists for `file_off` of the file at
    /// `frec_addr`, filling it from disk, and returns its node address.
    fn cache_ensure(&mut self, frec_addr: PhysAddr, file_off: u64) -> KernelResult<PhysAddr> {
        let frec = self.read_frec(frec_addr)?;
        if let Some((addr, _)) = self.cache_find(frec.cache_head, file_off)? {
            return Ok(addr);
        }
        let pfn = self.alloc_frame(FrameOwner::PageCache)?;
        self.machine.phys.zero_frame(pfn)?;
        // Fill from disk (read-modify-write semantics for partial writes).
        let fs = self.fs.clone();
        let mut buf = vec![0u8; PAGE_SIZE];
        let n = fs.read_at(&mut self.machine, frec.inode as u32, file_off, &mut buf)?;
        if n > 0 {
            self.machine.phys.write(pfn * PAGE_SIZE as u64, &buf[..n])?;
        }
        let node_addr = self
            .kheap
            .alloc(PageCacheNode::SIZE)
            .ok_or(KernelError::NoMemory)?;
        PageCacheNode {
            file_off,
            pfn,
            dirty: 0,
            next: frec.cache_head,
        }
        .write(&mut self.machine.phys, node_addr)?;
        let mut frec = frec;
        frec.cache_head = node_addr;
        self.write_frec(frec_addr, &frec)?;
        Ok(node_addr)
    }

    /// Writes `data` at the file's current offset through the page cache.
    pub fn file_write(&mut self, pid: u64, fd: u32, data: &[u8]) -> KernelResult<u64> {
        let frec_addr = self.frec_addr(pid, fd)?;
        let frec = self.read_frec(frec_addr)?;
        if frec.flags & oflags::WRITE == 0 {
            return Err(KernelError::Inval("file not open for writing"));
        }
        let mut offset = if frec.flags & oflags::APPEND != 0 {
            frec.fsize
        } else {
            frec.offset
        };
        // Offset resolved, nothing written yet: a crash here loses the
        // whole write but must leave the previous contents intact.
        ow_crashpoint::crash_point!("kernel.pagecache.write.pre_commit");
        let mut done = 0usize;
        while done < data.len() {
            let page_off = offset & !(PAGE_SIZE as u64 - 1);
            let in_page = (offset - page_off) as usize;
            let chunk = (PAGE_SIZE - in_page).min(data.len() - done);
            let node_addr = self.cache_ensure(frec_addr, page_off)?;
            let (node, _) = PageCacheNode::read(&self.machine.phys, node_addr)?;
            self.machine.phys.write(
                node.pfn * PAGE_SIZE as u64 + in_page as u64,
                &data[done..done + chunk],
            )?;
            // Mark dirty.
            self.machine.phys.write_u32(node_addr + 24, 1)?;
            offset += chunk as u64;
            done += chunk;
        }
        // Re-read: `cache_ensure` may have pushed new nodes onto the chain
        // head; writing the stale copy back would orphan them.
        let mut frec = self.read_frec(frec_addr)?;
        frec.offset = offset;
        frec.fsize = frec.fsize.max(offset);
        self.write_frec(frec_addr, &frec)?;
        Ok(data.len() as u64)
    }

    /// Reads from the file's current offset (cache first, then disk).
    pub fn file_read(&mut self, pid: u64, fd: u32, buf: &mut [u8]) -> KernelResult<u64> {
        let frec_addr = self.frec_addr(pid, fd)?;
        let mut frec = self.read_frec(frec_addr)?;
        if frec.offset >= frec.fsize {
            return Ok(0);
        }
        let want = (buf.len() as u64).min(frec.fsize - frec.offset) as usize;
        let mut done = 0usize;
        let fs = self.fs.clone();
        while done < want {
            let offset = frec.offset + done as u64;
            let page_off = offset & !(PAGE_SIZE as u64 - 1);
            let in_page = (offset - page_off) as usize;
            let chunk = (PAGE_SIZE - in_page).min(want - done);
            if let Some((_, node)) = self.cache_find(frec.cache_head, page_off)? {
                self.machine.phys.read(
                    node.pfn * PAGE_SIZE as u64 + in_page as u64,
                    &mut buf[done..done + chunk],
                )?;
            } else {
                fs.read_at(
                    &mut self.machine,
                    frec.inode as u32,
                    offset,
                    &mut buf[done..done + chunk],
                )?;
            }
            done += chunk;
        }
        frec.offset += want as u64;
        self.write_frec(frec_addr, &frec)?;
        Ok(want as u64)
    }

    /// Sets the file offset.
    pub fn file_seek(&mut self, pid: u64, fd: u32, pos: u64) -> KernelResult<()> {
        let frec_addr = self.frec_addr(pid, fd)?;
        let mut frec = self.read_frec(frec_addr)?;
        frec.offset = pos;
        self.write_frec(frec_addr, &frec)
    }

    /// Flushes the file's dirty cached pages to disk.
    pub fn file_fsync(&mut self, pid: u64, fd: u32) -> KernelResult<u64> {
        let frec_addr = self.frec_addr(pid, fd)?;
        let fs = self.fs.clone();
        ow_crashpoint::crash_point!("kernel.pagecache.fsync.flush");
        flush_cache(&mut self.machine, &fs, frec_addr)
    }
}
