//! The panic path: the ~100 lines the paper cannot protect (§2, §6).
//!
//! On a critical error the main kernel sends NMIs to all other CPUs (each
//! saves the context of the thread it was running and halts), validates the
//! handoff structures, removes the crash-image memory protection and jumps
//! to the crash kernel's entry point (§3.2). Each of those actions depends
//! on a small amount of state — the IDT analog, the handoff descriptor, the
//! crash image header — and corruption of any of them makes the handoff
//! fail: Table 5's "failure to boot the crash kernel" column.
//!
//! The three §6 robustness fixes live here and in the watchdog:
//! * stalls only become microreboots when the watchdog NMI is enabled;
//! * double faults only hand off when the double-fault handler is fixed;
//! * a sabotaged panic path (stack-print recursion, reliance on the current
//!   process descriptor) only survives with KDump hardening.

use crate::{
    kernel::{HandoffInfo, Kernel, PanicCause, PanicOutcome},
    layout::{CrashImageHeader, HandoffBlock, ProcDesc, IDT_MAGIC},
};
use ow_layout::Record;
use ow_trace::PanicStep;

/// Stable encoding of a panic cause for the flight record's `Entered` step.
fn cause_code(cause: PanicCause) -> u64 {
    match cause {
        PanicCause::Oops(_) => 1,
        PanicCause::DoubleFault => 2,
        PanicCause::Stall => 3,
        PanicCause::CorruptedPanicPath => 4,
    }
}

impl Kernel {
    /// Executes the panic path for `cause`, recording the outcome in
    /// [`Kernel::panicked`]. Idempotent: a second panic is ignored.
    ///
    /// Every milestone is appended to the flight recorder, so the crash
    /// kernel (or a human reading the recovered record) can see exactly how
    /// far the ~100 unprotected lines got before handing off or halting.
    pub fn do_panic(&mut self, cause: PanicCause) -> PanicOutcome {
        if let Some(out) = &self.panicked {
            return out.clone();
        }
        self.trace_panic_step(PanicStep::Entered, cause_code(cause));
        let outcome = self.panic_path(cause);
        match &outcome {
            PanicOutcome::Handoff(_) => self.trace_panic_step(PanicStep::Handoff, 0),
            PanicOutcome::SystemHalted(_) => self.trace_panic_step(PanicStep::Halted, 0),
        }
        self.panicked = Some(outcome.clone());
        outcome
    }

    fn panic_path(&mut self, cause: PanicCause) -> PanicOutcome {
        // A fault at the very top of the panic path: the Entered milestone
        // is already in the flight recorder, nothing else happened yet.
        ow_crashpoint::crash_point!("kernel.panic.path.entered");
        let fixes = self.config.fixes;

        // A stall is not a panic at all: nothing runs. Only the watchdog
        // NMI can start the microreboot (§6 fix 1).
        if cause == PanicCause::Stall && !fixes.watchdog_nmi {
            return PanicOutcome::SystemHalted("stall: no watchdog NMI, system hangs");
        }

        // KDump's original double-fault handler stopped the system (§6).
        if cause == PanicCause::DoubleFault && !fixes.doublefault_handler {
            return PanicOutcome::SystemHalted("double fault: KDump stops the system");
        }

        // The legacy KDump panic path printed the stack (unbounded
        // recursion on a corrupted stack) and dereferenced the current
        // process descriptor without validation (§6).
        if cause == PanicCause::CorruptedPanicPath && !fixes.kdump_hardening {
            return PanicOutcome::SystemHalted("panic path re-faulted (no KDump hardening)");
        }
        if !fixes.kdump_hardening {
            // Even a clean oops consults `current` for diagnostics; if the
            // running process's descriptor was corrupted, the unhardened
            // path re-faults.
            let cur_pid = self.machine.cpus[0].current_pid;
            if let Ok(p) = self.proc(cur_pid) {
                if ProcDesc::read(&self.machine.phys, p.desc_addr).is_err() {
                    return PanicOutcome::SystemHalted("panic path dereferenced corrupt current");
                }
            }
        }

        // The IDT analog: NMIs cannot be delivered through a corrupted
        // interrupt table.
        let handoff = match HandoffBlock::read(&self.machine.phys) {
            Ok((h, _)) => h,
            Err(_) => return PanicOutcome::SystemHalted("handoff block corrupted"),
        };
        self.trace_panic_step(PanicStep::HandoffRead, handoff.generation as u64);
        ow_crashpoint::crash_point!("kernel.panic.handoff.read");
        if handoff.idt_stamp != IDT_MAGIC || !crate::layout::idt_gates_valid(&self.machine.phys) {
            return PanicOutcome::SystemHalted("IDT corrupted: NMI broadcast impossible");
        }
        if handoff.crash_entry_ok == 0 || handoff.crash_frames == 0 {
            return PanicOutcome::SystemHalted("no crash kernel loaded");
        }
        self.trace_panic_step(PanicStep::IdtValidated, 0);

        // NMI all CPUs: each saves the context of the thread it was running
        // to its save area and halts (§3.2).
        let save_base = handoff.save_area;
        let ncpus = self.machine.cpus.len() as u64;
        for cpu in &mut self.machine.cpus {
            if cpu.nmi_halt(&mut self.machine.phys, save_base).is_err() {
                return PanicOutcome::SystemHalted("context save area unreachable");
            }
        }
        self.trace_panic_step(PanicStep::NmiBroadcast, ncpus);
        ow_crashpoint::crash_point!("kernel.panic.nmi.broadcast");

        // Validate the crash-kernel image before jumping to it. The image
        // itself is hardware-protected, but its descriptor must be sane.
        let image_addr = handoff.crash_base * ow_simhw::PAGE_BYTES;
        match CrashImageHeader::read(&self.machine.phys, image_addr) {
            Ok((img, _)) if img.entry_valid != 0 => {}
            _ => return PanicOutcome::SystemHalted("crash image header invalid"),
        }
        self.trace_panic_step(PanicStep::CrashImageValidated, handoff.crash_base);

        // Last act before the jump: seal the adoptable state (frame bitmap,
        // swap-slot map, page-cache CRCs) for the warm morph. Best-effort:
        // any failure leaves the boot-time invalid seal in place and the
        // next morph stays cold.
        ow_crashpoint::crash_point!("kernel.panic.seal.write");
        self.seal_warm_state();

        // And one final epoch checkpoint: the state at the instant of
        // death, stamped AT_PANIC so rollback-in-place can restore it
        // without replaying anything. Best-effort like the warm seal — a
        // failed epoch just means rollback falls through to the
        // microreboot.
        let _ = self.seal_epoch_checkpoint(true);

        // Remove the memory protection from the crash-kernel image and
        // "jump" to it: from here no main-kernel code runs.
        ow_crashpoint::crash_point!("kernel.panic.handoff.jump");
        PanicOutcome::Handoff(HandoffInfo {
            dead_kernel_frame: self.base_frame,
            crash_base: handoff.crash_base,
            crash_frames: handoff.crash_frames,
            generation: self.generation,
        })
    }

    /// Called by the timer path when the watchdog fires: a stall becomes a
    /// microreboot (with the fix) or stays a hang (without).
    pub fn watchdog_fired(&mut self) -> PanicOutcome {
        if self.panicked.is_none() {
            self.trace_panic_step(PanicStep::WatchdogFired, 0);
        }
        self.do_panic(PanicCause::Stall)
    }
}
