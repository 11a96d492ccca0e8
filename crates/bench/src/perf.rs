//! Performance measurement of the memory-protected mode (Table 3).
//!
//! Runs a workload to steady state, then measures a window of driven
//! batches with protection off and on (fresh kernels, identical seeds) and
//! reports the TLB-miss increase and execution-time overhead — on tagged
//! (ASID) or untagged (flush-per-switch) TLB hardware.

use crate::eval_machine_config;
use ow_apps::Workload;
use ow_kernel::KernelConfig;

/// One measured configuration.
#[derive(Debug, Clone, Copy)]
pub struct PerfSample {
    /// Cycles consumed by the measured window.
    pub cycles: u64,
    /// TLB misses in the window.
    pub tlb_misses: u64,
    /// TLB flushes in the window.
    pub tlb_flushes: u64,
    /// Single-page TLB invalidations in the window.
    pub invalidations: u64,
    /// ASID tag-register switches in the window.
    pub asid_switches: u64,
    /// Page-table switches in the window.
    pub pt_switches: u64,
}

/// Protection-overhead comparison for one workload.
#[derive(Debug, Clone, Copy)]
pub struct PerfRow {
    /// Baseline (no protection).
    pub base: PerfSample,
    /// Memory-protected mode.
    pub protected: PerfSample,
}

impl PerfRow {
    /// Table 3 column 2: relative increase in TLB misses.
    pub fn tlb_miss_increase_pct(&self) -> f64 {
        if self.base.tlb_misses == 0 {
            return 0.0;
        }
        100.0 * (self.protected.tlb_misses as f64 - self.base.tlb_misses as f64)
            / self.base.tlb_misses as f64
    }

    /// Table 3 column 3: execution-time overhead.
    pub fn overhead_pct(&self) -> f64 {
        if self.base.cycles == 0 {
            return 0.0;
        }
        100.0 * (self.protected.cycles as f64 - self.base.cycles as f64) / self.base.cycles as f64
    }
}

fn measure_once<W: Workload>(
    mut workload: W,
    protection: bool,
    tlb_tagged: bool,
    warmup_batches: u32,
    measured_batches: u32,
) -> PerfSample {
    let mut machine = eval_machine_config();
    machine.tlb_tagged = tlb_tagged;
    let config = KernelConfig {
        user_protection: protection,
        ..KernelConfig::default()
    };
    let mut k = ow_apps::boot(machine, config).expect("boot");
    let pid = workload.start(&mut k, warmup_batches);
    let c0 = k.machine.clock.now();
    k.machine.mmu.reset_stats();
    let p0 = k.pt_switches;
    for _ in 0..measured_batches {
        workload.drive(&mut k, pid);
    }
    let stats = k.machine.mmu.stats();
    PerfSample {
        cycles: k.machine.clock.now() - c0,
        tlb_misses: stats.tlb_misses,
        tlb_flushes: stats.flushes,
        invalidations: stats.invalidations,
        asid_switches: stats.asid_switches,
        pt_switches: k.pt_switches - p0,
    }
}

/// Measures a workload with and without user-space protection, selecting
/// tagged or untagged TLB hardware.
pub fn protection_overhead_on<W: Workload>(
    make: impl Fn(u64) -> W,
    seed: u64,
    warmup_batches: u32,
    measured_batches: u32,
    tlb_tagged: bool,
) -> PerfRow {
    let base = measure_once(
        make(seed),
        false,
        tlb_tagged,
        warmup_batches,
        measured_batches,
    );
    let protected = measure_once(
        make(seed),
        true,
        tlb_tagged,
        warmup_batches,
        measured_batches,
    );
    PerfRow { base, protected }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ow_apps::volano::VolanoWorkload;

    #[test]
    fn protection_costs_more_and_misses_more() {
        for tagged in [false, true] {
            let row = protection_overhead_on(VolanoWorkload::new, 7, 5, 20, tagged);
            assert!(row.protected.cycles > row.base.cycles, "tagged={tagged}");
            assert!(
                row.protected.tlb_misses > row.base.tlb_misses,
                "tagged={tagged}"
            );
            assert!(row.protected.pt_switches > 0, "tagged={tagged}");
            assert_eq!(row.base.pt_switches, 0, "tagged={tagged}");
            if tagged {
                assert_eq!(
                    row.protected.tlb_flushes, 0,
                    "tag switches must keep the flush off the syscall path"
                );
                assert!(row.protected.asid_switches > 0);
            } else {
                assert!(row.protected.tlb_flushes > 0);
            }
        }
    }
}
