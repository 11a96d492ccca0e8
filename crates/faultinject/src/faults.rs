//! The synthetic fault model (§6).
//!
//! The paper uses the University of Michigan injector built for the Rio
//! file cache and reused for Nooks: each fault changes a single integer on
//! the kernel stack of a random thread, a single instruction, or an
//! instruction operand in kernel code — emulating stack corruption,
//! uninitialized variables, bad test conditions, bad parameters and wild
//! writes.
//!
//! Our kernel's code is host Rust, so an injected code fault cannot be
//! executed literally; instead each fault *manifests* according to an
//! empirical mixture grounded in the fail-stop literature the paper cites
//! [3, 15, 22, 28]: most kernel faults cause an immediate clean panic; a
//! minority first damage memory via wild writes, or hang the system, or
//! double-fault, or sabotage the panic path itself. Where a wild write
//! lands decides the experiment's fate (see `DESIGN.md` §5) — outcomes
//! emerge from the memory layout, not from hard-coded probabilities.

use ow_kernel::{Kernel, PanicCause, PendingFault, KERNEL_FRAMES};
use ow_simhw::{machine::WildWriteOutcome, SimRng, PAGE_SIZE};
use ow_trace::{Counter, EventKind};
use std::collections::BTreeMap;

/// What kind of source-level fault was injected (the Rio taxonomy).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A flipped integer on a thread's kernel stack.
    StackValue,
    /// A corrupted instruction in kernel text.
    Instruction,
    /// A corrupted instruction operand.
    Operand,
    /// A stray pointer store.
    WildPointer,
}

impl FaultKind {
    /// Stable encoding for the flight record's `FaultInjected` events.
    pub fn code(self) -> u64 {
        match self {
            FaultKind::StackValue => 1,
            FaultKind::Instruction => 2,
            FaultKind::Operand => 3,
            FaultKind::WildPointer => 4,
        }
    }
}

/// How a fired fault manifests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Manifestation {
    /// No observable effect (the paper discards ~20% of experiments whose
    /// 30 faults never produce a kernel fault).
    Silent,
    /// Immediate fail-stop panic with no prior damage (the common case).
    CleanPanic,
    /// One or more wild writes land, then the kernel panics.
    WildWrites(u32),
    /// The kernel hangs (recoverable only via the watchdog NMI).
    Stall,
    /// A double fault.
    DoubleFault,
    /// The panic path itself is damaged (stack-print recursion /
    /// corrupted `current`), survivable only with KDump hardening.
    PanicPathSabotage,
}

/// One injected fault.
#[derive(Debug, Clone)]
pub struct Fault {
    /// Source-level taxonomy.
    pub kind: FaultKind,
    /// Runtime manifestation.
    pub manifestation: Manifestation,
}

/// Per-fault probability of staying silent, chosen so that a batch of 30
/// faults produces a kernel crash in ~80% of experiments (§6: "about 20%
/// of the experiments did not result in a kernel fault").
pub const P_SILENT: f64 = 0.948;

/// Draws one fault from the model.
pub fn draw_fault(rng: &mut SimRng) -> Fault {
    let kind = match rng.gen_range(0..4u32) {
        0 => FaultKind::StackValue,
        1 => FaultKind::Instruction,
        2 => FaultKind::Operand,
        _ => FaultKind::WildPointer,
    };
    let manifestation = if rng.gen_bool(P_SILENT) {
        Manifestation::Silent
    } else {
        match rng.gen_range(0..100u32) {
            // Fail-stop dominates (the fail-stop literature; §4).
            0..=72 => Manifestation::CleanPanic,
            // Wild writes: damage first, panic after.
            73..=89 => Manifestation::WildWrites(rng.gen_range(1..=4u32)),
            // Together ~10% of crashing faults: the stalls and recursive
            // failures that cost the paper 8% before the §6 fixes.
            90..=93 => Manifestation::Stall,
            94..=96 => Manifestation::DoubleFault,
            _ => Manifestation::PanicPathSabotage,
        }
    };
    Fault {
        kind,
        manifestation,
    }
}

/// Statistics about where injected wild writes landed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DamageReport {
    /// Writes that landed somewhere.
    pub landed: u32,
    /// Writes trapped by the memory-protected mode.
    pub trapped: u32,
    /// Writes refused by the crash-image hardware protection.
    pub blocked: u32,
    /// Landed writes classified by the registered structure they hit
    /// ([`ow_layout::classify_victim`]); writes that landed outside any
    /// registered structure are not counted here.
    pub victims: BTreeMap<&'static str, u32>,
}

impl DamageReport {
    /// Folds another report into this one.
    pub fn merge(&mut self, other: &DamageReport) {
        self.landed += other.landed;
        self.trapped += other.trapped;
        self.blocked += other.blocked;
        for (&name, &n) in &other.victims {
            *self.victims.entry(name).or_insert(0) += n;
        }
    }
}

/// Applies one wild write at a model-chosen physical address.
///
/// Real stray stores are not uniform: kernel bugs overwhelmingly scribble
/// near the data they were legitimately touching. A fraction of writes is
/// therefore biased toward "hot" kernel structures (the handoff/IDT page,
/// the kernel region, the current process's descriptor neighborhood), and
/// the rest is uniform over RAM. `via_virtual` models whether the store
/// went through a virtual user mapping — the only kind the protected mode
/// can trap (§4).
pub fn apply_wild_write(k: &mut Kernel, rng: &mut SimRng, report: &mut DamageReport) {
    let total_bytes = k.machine.phys.size();
    let addr = if rng.gen_bool(0.2) {
        // Biased toward hot kernel structures: the IDT and kernel region
        // are touched by every interrupt and syscall, so buggy kernel code
        // scribbles there far more often than size alone predicts; direct
        // hits on the current process's descriptor or page tables are
        // rarer (their code is small and unusually well-tested, §4).
        match rng.gen_range(0..1000u32) {
            0..=169 => {
                // The handoff/IDT frame: every interrupt walks it.
                rng.gen_range(0..PAGE_SIZE as u64)
            }
            170..=899 => {
                // The kernel region (header, heap structures).
                let base = k.base_frame * PAGE_SIZE as u64;
                let len = KERNEL_FRAMES * PAGE_SIZE as u64;
                base + rng.gen_range(0..len)
            }
            900..=904 => {
                // The current process's descriptor neighborhood.
                let cur = k.machine.cpus[0].current_pid;
                match k.proc(cur) {
                    Ok(p) => p.desc_addr + rng.gen_range(0..ow_layout::footprint("ProcDesc")),
                    Err(_) => rng.gen_range(0..total_bytes),
                }
            }
            905..=909 => {
                // A page-table frame of the current process.
                let cur = k.machine.cpus[0].current_pid;
                match k.proc(cur) {
                    Ok(p) => p.asp.root() * PAGE_SIZE as u64 + rng.gen_range(0..PAGE_SIZE as u64),
                    Err(_) => rng.gen_range(0..total_bytes),
                }
            }
            _ => {
                // A mapped user page of the current process: stray stores
                // through `copy_to_user`-style paths land in the buffers
                // the kernel was legitimately touching. These are exactly
                // the writes the memory-protected mode traps (§4).
                let cur = k.machine.cpus[0].current_pid;
                let page = (|| {
                    let p = k.proc(cur).ok()?;
                    let mut pages = Vec::new();
                    p.asp
                        .for_each_mapped(&k.machine.phys, |_va, pte| {
                            let want = ow_simhw::PteFlags::PRESENT | ow_simhw::PteFlags::DIRTY;
                            if pte.flags().contains(want) {
                                pages.push(pte.pfn());
                            }
                        })
                        .ok()?;
                    if pages.is_empty() {
                        None
                    } else {
                        Some(pages[rng.gen_range(0..pages.len())])
                    }
                })();
                match page {
                    Some(pfn) => {
                        // Data structures cluster toward low page offsets
                        // (allocators pack from the start), so the stray
                        // store does too: quadratic low-offset bias.
                        let r = rng.gen_range(0..PAGE_SIZE as u64);
                        let off = (r * r) / PAGE_SIZE as u64;
                        pfn * PAGE_SIZE as u64 + off
                    }
                    None => rng.gen_range(0..total_bytes),
                }
            }
        }
    } else {
        rng.gen_range(0..total_bytes)
    };
    let mask = rng.next_u64() | 1; // never a no-op
    let via_virtual = rng.gen_bool(0.9);
    // Classify before the write lands: classification scans for the
    // victim's magic, which the write itself may destroy. Purely a memory
    // read, so campaign outcomes stay deterministic per seed.
    let victim = ow_layout::classify_victim(&k.machine.phys, addr).map(|e| e.name);
    match k.machine.wild_write(addr, mask, via_virtual) {
        WildWriteOutcome::Landed(_) => {
            report.landed += 1;
            if let Some(name) = victim {
                *report.victims.entry(name).or_insert(0) += 1;
            }
        }
        WildWriteOutcome::TrappedByProtection => {
            report.trapped += 1;
            // The protected mode caught the stray store: leave evidence in
            // the flight record before the ensuing clean panic.
            k.note_protection_trap(addr);
        }
        WildWriteOutcome::BlockedByHardware => report.blocked += 1,
    }
}

/// Injects a batch of `n` faults into a running kernel: applies all wild
/// -write damage immediately and queues the first crashing manifestation
/// as the kernel's pending fault. Returns the drawn faults and damage.
pub fn inject_batch(k: &mut Kernel, rng: &mut SimRng, n: u32) -> (Vec<Fault>, DamageReport) {
    let mut faults = Vec::with_capacity(n as usize);
    let mut report = DamageReport::default();
    let mut cause: Option<PanicCause> = None;
    for _ in 0..n {
        let f = draw_fault(rng);
        let writes = match f.manifestation {
            Manifestation::WildWrites(w) => w as u64,
            _ => 0,
        };
        k.trace_event(EventKind::FaultInjected, 0, f.kind.code(), writes);
        k.trace_counter(Counter::FaultsInjected, 1);
        match &f.manifestation {
            Manifestation::Silent => {}
            Manifestation::CleanPanic => {
                cause.get_or_insert(PanicCause::Oops("injected fault"));
            }
            Manifestation::WildWrites(writes) => {
                for _ in 0..*writes {
                    // A trapped write faults the kernel immediately: clean
                    // panic before the damage lands (§4).
                    let before = report.trapped;
                    apply_wild_write(k, rng, &mut report);
                    if report.trapped > before {
                        cause.get_or_insert(PanicCause::Oops("protection trap"));
                    }
                }
                cause.get_or_insert(PanicCause::Oops("wild write fault"));
            }
            Manifestation::Stall => {
                cause.get_or_insert(PanicCause::Stall);
            }
            Manifestation::DoubleFault => {
                cause.get_or_insert(PanicCause::DoubleFault);
            }
            Manifestation::PanicPathSabotage => {
                cause.get_or_insert(PanicCause::CorruptedPanicPath);
            }
        }
        faults.push(f);
    }
    if let Some(cause) = cause {
        k.pending_fault = Some(PendingFault {
            cause,
            in_syscall: rng.gen_bool(0.5),
        });
    }
    (faults, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn silent_rate_yields_about_20_percent_quiet_experiments() {
        let mut rng = SimRng::seed_from_u64(1);
        let mut quiet = 0;
        let trials = 2000;
        for _ in 0..trials {
            let all_silent = (0..30)
                .all(|_| matches!(draw_fault(&mut rng).manifestation, Manifestation::Silent));
            if all_silent {
                quiet += 1;
            }
        }
        let frac = quiet as f64 / trials as f64;
        assert!((0.12..=0.30).contains(&frac), "quiet fraction {frac}");
    }

    #[test]
    fn fail_stop_dominates_manifestations() {
        let mut rng = SimRng::seed_from_u64(2);
        let mut clean = 0;
        let mut other = 0;
        for _ in 0..20_000 {
            match draw_fault(&mut rng).manifestation {
                Manifestation::Silent => {}
                Manifestation::CleanPanic => clean += 1,
                _ => other += 1,
            }
        }
        assert!(clean > other, "fail-stop must dominate: {clean} vs {other}");
    }
}
