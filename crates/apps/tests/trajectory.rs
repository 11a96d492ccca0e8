//! Pins each workload's simulated trajectory. Forty driven batches on a
//! cost-modelled evaluation machine must leave every application intact at
//! exactly the recorded clock, TLB-miss and syscall counts, in both
//! protection modes. A driver or application change that adds, drops or
//! reorders one simulated operation moves at least one of them.

use ow_apps::{make_workload, VerifyResult, Workload};
use ow_kernel::KernelConfig;
use ow_simhw::machine::MachineConfig;

/// Workload seed and batch count of every pinned run.
const SEED: u64 = 21;
const BATCHES: u32 = 40;

/// `(app, user_protection, cycles, tlb_misses, syscall_seq)` after
/// `start(k, BATCHES)`.
const TRAJECTORIES: [(&str, bool, u64, u64, u64); 12] = [
    ("vi", false, 64_005_174_828, 24, 754),
    ("vi", true, 64_005_318_268, 30, 754),
    ("joe", false, 64_007_037_815, 186, 753),
    ("joe", true, 64_007_181_065, 192, 753),
    ("mysqld", false, 71_007_972_047, 6_985, 419),
    ("mysqld", true, 71_008_080_157, 7_935, 419),
    ("httpd", false, 70_005_276_340, 2_816, 422),
    ("httpd", true, 70_005_368_820, 3_226, 422),
    ("blcr", false, 64_000_722_418, 196, 18),
    ("blcr", true, 64_000_726_018, 202, 18),
    ("volano", false, 64_006_923_962, 3_267, 1_528),
    ("volano", true, 64_007_245_452, 4_306, 1_528),
];

#[test]
fn every_workload_follows_its_recorded_trajectory() {
    let mut diverged = Vec::new();
    for (app, protected, cycles, misses, syscalls) in TRAJECTORIES {
        // The evaluation machine: 32 MiB, tagged TLB, default cost model.
        let machine = MachineConfig {
            ram_frames: 8192,
            ..MachineConfig::default()
        };
        let config = KernelConfig {
            user_protection: protected,
            ..KernelConfig::default()
        };
        let mut k = ow_apps::boot(machine, config).expect("boot");
        let mut w = make_workload(app, SEED);
        let pid = w.start(&mut k, BATCHES);
        let verdict = w.verify(&mut k, pid);
        let got = (
            k.machine.clock.now(),
            k.machine.mmu.stats().tlb_misses,
            k.syscall_seq,
        );
        if verdict != VerifyResult::Intact || got != (cycles, misses, syscalls) {
            diverged.push(format!(
                "(\"{app}\", {protected}, {}, {}, {}) verdict {verdict:?}",
                got.0, got.1, got.2
            ));
        }
    }
    assert!(diverged.is_empty(), "diverged:\n{}", diverged.join("\n"));
}
