//! System-call dispatch: the [`KernelApi`] a program steps against.
//!
//! Every syscall charges a kernel-entry cost; in memory-protected mode (§4)
//! it additionally switches to the kernel-only page-table set on entry and
//! back on exit, flushing the TLB both times — the source of Table 3's
//! overhead. An in-flight syscall aborted by a microreboot is re-delivered
//! as [`Errno::Restart`] so the application can retry it (§3.5).

use crate::{
    error::Errno,
    kernel::{Kernel, CHECKPOINT_INTERVAL},
    layout,
    program::UserApi,
};
use ow_trace::{Counter, EventKind, Histogram};

/// Syscall numbers (stored in the descriptor's `in_syscall` field + 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u32)]
pub enum SyscallNr {
    /// `open`.
    Open = 0,
    /// `close`.
    Close,
    /// `read`.
    Read,
    /// `write`.
    Write,
    /// `seek`.
    Seek,
    /// `fsync`.
    Fsync,
    /// `unlink`.
    Unlink,
    /// `mmap`.
    Mmap,
    /// terminal write.
    TermWrite,
    /// terminal read.
    TermRead,
    /// terminal settings.
    TermSet,
    /// `socket`.
    Socket,
    /// socket send.
    SockSend,
    /// socket receive.
    SockRecv,
    /// socket close.
    SockClose,
    /// shared-memory attach.
    ShmAttach,
    /// `signal`.
    Signal,
    /// crash-procedure registration.
    RegisterCrashProc,
    /// pipe write.
    PipeWrite,
    /// pipe read.
    PipeRead,
    /// pipe attach.
    PipeAttach,
}

/// The concrete [`UserApi`] implementation backed by a [`Kernel`].
pub struct KernelApi<'k> {
    kernel: &'k mut Kernel,
    pid: u64,
}

impl<'k> KernelApi<'k> {
    /// Binds the api to a process.
    pub fn new(kernel: &'k mut Kernel, pid: u64) -> Self {
        KernelApi { kernel, pid }
    }

    /// Underlying kernel (used by resurrection code reusing the api).
    pub fn kernel_mut(&mut self) -> &mut Kernel {
        self.kernel
    }

    fn in_syscall_off() -> u64 {
        layout::proc_off::IN_SYSCALL
    }

    /// Common syscall entry: restart delivery, entry cost, protected-mode
    /// page-table switch, in-syscall marker, fault manifestation.
    fn sys_enter(&mut self, nr: SyscallNr) -> Result<(), Errno> {
        if self.kernel.panicked.is_some() {
            return Err(Errno::Restart);
        }
        {
            let p = self.kernel.proc_mut(self.pid).map_err(|_| Errno::Io)?;
            if p.deliver_restart {
                p.deliver_restart = false;
                return Err(Errno::Restart);
            }
        }
        let m = &mut self.kernel.machine;
        m.clock.charge(m.cost.syscall_entry);
        // Switch to the kernel-only page-table set (user unmapped) when the
        // protected mode is on.
        self.kernel.protection_enter();

        // Flight record + metrics: the entry event, the syscall counter,
        // and the inter-arrival histogram.
        let now = self.kernel.machine.clock.now();
        self.kernel
            .trace_event(EventKind::SyscallEnter, self.pid, nr as u64, 0);
        self.kernel.trace_counter(Counter::Syscalls, 1);
        let prev = self.kernel.last_syscall_enter;
        if prev != 0 {
            self.kernel
                .trace_hist(Histogram::InterArrivalCycles, now.saturating_sub(prev));
        }
        self.kernel.last_syscall_enter = now;
        // Advance the epoch-checkpoint cadence counter: one more syscall
        // is in flight, so any previously sealed epoch is no longer fresh.
        self.kernel.syscall_seq += 1;
        // Mark the in-flight syscall in the descriptor.
        let desc_addr = self.kernel.proc(self.pid).map_err(|_| Errno::Io)?.desc_addr;
        let _ = self
            .kernel
            .machine
            .phys
            .write_u32(desc_addr + Self::in_syscall_off(), nr as u32 + 1);
        let _ = self.kernel.reseal_desc(self.pid);
        // The in-syscall marker is committed: a crash here leaves the call
        // visibly in flight for the crash kernel to re-deliver.
        ow_crashpoint::crash_point!("kernel.syscall.enter.marked");

        // A queued mid-syscall fault manifests now: the kernel dies with
        // this call in flight.
        if let Some(f) = self.kernel.pending_fault {
            if f.in_syscall {
                self.kernel.pending_fault = None;
                self.kernel.do_panic(f.cause);
                return Err(Errno::Restart);
            }
        }
        Ok(())
    }

    /// Common syscall exit: clear the marker, switch page tables back.
    fn sys_exit(&mut self, nr: SyscallNr) {
        if self.kernel.panicked.is_some() {
            return;
        }
        // The syscall's effects are committed but the in-flight marker is
        // still set: a crash here must re-deliver an already-applied call.
        ow_crashpoint::crash_point!("kernel.syscall.exit.pre_clear");
        if let Ok(p) = self.kernel.proc(self.pid) {
            let desc_addr = p.desc_addr;
            let _ = self
                .kernel
                .machine
                .phys
                .write_u32(desc_addr + Self::in_syscall_off(), 0);
            let _ = self.kernel.reseal_desc(self.pid);
        }
        self.kernel.protection_exit(self.pid);

        let now = self.kernel.machine.clock.now();
        let entered = self.kernel.last_syscall_enter;
        self.kernel
            .trace_event(EventKind::SyscallExit, self.pid, nr as u64, 0);
        if entered != 0 {
            self.kernel
                .trace_hist(Histogram::SyscallCycles, now.saturating_sub(entered));
        }

        // Periodic epoch checkpoint: with the call complete and the
        // in-flight marker cleared, the record set is consistent — seal it
        // every `CHECKPOINT_INTERVAL` completed syscalls.
        if self
            .kernel
            .syscall_seq
            .wrapping_sub(self.kernel.last_ckpt_seq)
            >= CHECKPOINT_INTERVAL
        {
            let _ = self.kernel.seal_epoch_checkpoint(false);
        }
    }

    fn syscall<T>(
        &mut self,
        nr: SyscallNr,
        f: impl FnOnce(&mut Kernel, u64) -> Result<T, Errno>,
    ) -> Result<T, Errno> {
        self.sys_enter(nr)?;
        let r = f(self.kernel, self.pid);
        self.sys_exit(nr);
        r
    }

    fn term_of(kernel: &Kernel, pid: u64) -> Result<u32, Errno> {
        let desc = kernel.read_desc(pid).map_err(|_| Errno::Io)?;
        if desc.term_id == u32::MAX {
            return Err(Errno::Inval);
        }
        Ok(desc.term_id)
    }
}

impl UserApi for KernelApi<'_> {
    fn pid(&self) -> u64 {
        self.pid
    }

    fn mem_write(&mut self, vaddr: u64, data: &[u8]) -> Result<(), Errno> {
        if self.kernel.panicked.is_some() {
            return Err(Errno::Restart);
        }
        self.kernel.user_write(self.pid, vaddr, data)
    }

    fn mem_read(&mut self, vaddr: u64, buf: &mut [u8]) -> Result<(), Errno> {
        if self.kernel.panicked.is_some() {
            return Err(Errno::Restart);
        }
        self.kernel.user_read(self.pid, vaddr, buf)
    }

    fn compute(&mut self, units: u64) {
        let per_unit = self.kernel.machine.cost.compute_unit;
        self.kernel.machine.clock.charge(per_unit * units);
    }

    fn open(&mut self, path: &str, flags: u32) -> Result<u32, Errno> {
        self.syscall(SyscallNr::Open, |k, pid| {
            k.file_open(pid, path, flags).map_err(Errno::from)
        })
    }

    fn close(&mut self, fd: u32) -> Result<(), Errno> {
        self.syscall(SyscallNr::Close, |k, pid| {
            k.file_close(pid, fd).map_err(Errno::from)
        })
    }

    fn write(&mut self, fd: u32, data: &[u8]) -> Result<u64, Errno> {
        self.syscall(SyscallNr::Write, |k, pid| {
            k.file_write(pid, fd, data).map_err(Errno::from)
        })
    }

    fn read(&mut self, fd: u32, buf: &mut [u8]) -> Result<u64, Errno> {
        self.syscall(SyscallNr::Read, |k, pid| {
            k.file_read(pid, fd, buf).map_err(Errno::from)
        })
    }

    fn seek(&mut self, fd: u32, pos: u64) -> Result<(), Errno> {
        self.syscall(SyscallNr::Seek, |k, pid| {
            k.file_seek(pid, fd, pos).map_err(Errno::from)
        })
    }

    fn fsync(&mut self, fd: u32) -> Result<(), Errno> {
        self.syscall(SyscallNr::Fsync, |k, pid| {
            k.file_fsync(pid, fd).map(|_| ()).map_err(Errno::from)
        })
    }

    fn unlink(&mut self, path: &str) -> Result<(), Errno> {
        self.syscall(SyscallNr::Unlink, |k, _pid| {
            let fs = k.fs.clone();
            fs.unlink(&mut k.machine, path).map_err(Errno::from)
        })
    }

    fn mmap_anon(&mut self, vaddr: u64, pages: u64) -> Result<(), Errno> {
        self.syscall(SyscallNr::Mmap, |k, pid| {
            k.vma_add(
                pid,
                vaddr,
                vaddr + pages * ow_simhw::PAGE_BYTES,
                layout::vmaflags::READ | layout::vmaflags::WRITE,
                0,
                0,
            )
            .map_err(Errno::from)
        })
    }

    fn term_write(&mut self, data: &[u8]) -> Result<(), Errno> {
        self.syscall(SyscallNr::TermWrite, |k, pid| {
            let term = Self::term_of(k, pid)?;
            k.term_write(term, data).map_err(Errno::from)
        })
    }

    fn term_read(&mut self, buf: &mut [u8]) -> Result<u64, Errno> {
        self.syscall(SyscallNr::TermRead, |k, pid| {
            let term = Self::term_of(k, pid)?;
            let n = k.term_read_input(term, buf).map_err(Errno::from)?;
            if n == 0 {
                return Err(Errno::WouldBlock);
            }
            Ok(n)
        })
    }

    fn term_set(&mut self, settings: u64) -> Result<(), Errno> {
        self.syscall(SyscallNr::TermSet, |k, pid| {
            let term = Self::term_of(k, pid)?;
            k.term_set(term, settings).map_err(Errno::from)
        })
    }

    fn socket(&mut self) -> Result<u32, Errno> {
        self.syscall(SyscallNr::Socket, |k, pid| {
            k.sock_open(pid).map_err(Errno::from)
        })
    }

    fn sock_send(&mut self, sid: u32, data: &[u8]) -> Result<(), Errno> {
        self.syscall(SyscallNr::SockSend, |k, pid| {
            k.sock_send(pid, sid, data).map_err(|_| Errno::ConnReset)
        })
    }

    fn sock_recv(&mut self, sid: u32, buf: &mut [u8]) -> Result<u64, Errno> {
        self.syscall(SyscallNr::SockRecv, |k, pid| {
            match k.sock_recv(pid, sid).map_err(|_| Errno::ConnReset)? {
                Some(msg) => {
                    let n = msg.len().min(buf.len());
                    buf[..n].copy_from_slice(&msg[..n]);
                    Ok(n as u64)
                }
                None => Err(Errno::WouldBlock),
            }
        })
    }

    fn sock_close(&mut self, sid: u32) -> Result<(), Errno> {
        self.syscall(SyscallNr::SockClose, |k, pid| {
            k.sock_close(pid, sid).map_err(|_| Errno::ConnReset)
        })
    }

    fn shm_attach(&mut self, key: u64, pages: u64, vaddr: u64) -> Result<(), Errno> {
        self.syscall(SyscallNr::ShmAttach, |k, pid| {
            k.shm_attach(pid, key, pages, vaddr)
                .map(|_| ())
                .map_err(Errno::from)
        })
    }

    fn signal(&mut self, sig: u32, handler: u64) -> Result<(), Errno> {
        self.syscall(SyscallNr::Signal, |k, pid| {
            k.signal_install(pid, sig, handler).map_err(Errno::from)
        })
    }

    fn register_crash_proc(&mut self) -> Result<(), Errno> {
        self.syscall(SyscallNr::RegisterCrashProc, |k, pid| {
            k.register_crash_proc(pid).map_err(Errno::from)
        })
    }

    fn pipe_write(&mut self, pipe: u32, data: &[u8]) -> Result<u64, Errno> {
        self.syscall(SyscallNr::PipeWrite, |k, _pid| {
            k.pipe_write(pipe, data).map_err(Errno::from)
        })
    }

    fn pipe_read(&mut self, pipe: u32, buf: &mut [u8]) -> Result<u64, Errno> {
        self.syscall(SyscallNr::PipeRead, |k, _pid| {
            let n = k.pipe_read(pipe, buf).map_err(Errno::from)?;
            if n == 0 {
                return Err(Errno::WouldBlock);
            }
            Ok(n)
        })
    }

    fn pipe_attach(&mut self, pipe: u32) -> Result<(), Errno> {
        self.syscall(SyscallNr::PipeAttach, |k, pid| {
            k.pipe_attach(pid, pipe).map_err(Errno::from)
        })
    }
}

/// Re-export: flag constants programs use with [`UserApi::open`].
pub use crate::layout::oflags as open_flags;
