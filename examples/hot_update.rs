//! §7's closing vision: because Otherworld can microreboot a kernel without
//! terminating the applications above it, it can **hot-update** a kernel
//! running mission-critical software — the crash kernel is simply a *newer
//! build*, and a planned microreboot swaps it in. Combined with the §7
//! extensions (socket resurrection, fast crash boot) the service barely
//! notices.
//!
//! Run with: `cargo run --example hot_update`

use otherworld::apps::minidb::{self, MiniDbWorkload};
use otherworld::apps::{VerifyResult, Workload};
use otherworld::core::{Otherworld, OtherworldConfig};
use otherworld::kernel::KernelConfig;
use otherworld::simhw::machine::MachineConfig;

fn main() {
    println!("== Hot kernel update under a live database (§7) ==\n");

    let v1 = KernelConfig {
        version: 1,
        ..KernelConfig::default()
    };
    let mut ow = Otherworld::boot(
        MachineConfig::default(),
        v1,
        OtherworldConfig {
            resurrect_sockets: true, // §7 extension: clients stay connected
            ..OtherworldConfig::default()
        },
        otherworld::apps::full_registry(),
    )
    .expect("boot");
    println!("running kernel v{}", ow.kernel().config.version);

    let mut client = MiniDbWorkload::new(33);
    let pid = client.setup(ow.kernel_mut());
    for _ in 0..40 {
        client.drive(ow.kernel_mut(), pid);
    }
    let rows: usize = minidb::read_db(ow.kernel_mut(), pid)
        .expect("tables")
        .values()
        .map(Vec::len)
        .sum();
    println!("mysqld serving transactions: {rows} rows in memory");

    // Ship kernel v2 with the fast-boot optimization enabled.
    println!("\n*** installing kernel v2 (fast crash boot) and microrebooting ***");
    let v2 = KernelConfig {
        version: 2,
        fast_crash_boot: true,
        ..KernelConfig::default()
    };
    let (boot_s, total_s) = {
        let report = ow.hot_update(v2).expect("hot update");
        assert!(report.all_succeeded());
        (report.crash_boot_seconds, report.total_seconds)
    };
    println!(
        "now running kernel v{} (generation {}) — kernel swap took {total_s:.1}s \
         ({boot_s:.1}s of it booting the new kernel)",
        ow.kernel().config.version,
        ow.kernel().generation,
    );

    // The database survived the update.
    let new_pid = ow.kernel().procs[0].pid;
    client.settle(ow.kernel_mut(), new_pid);
    assert_eq!(
        client.verify(ow.kernel_mut(), new_pid),
        VerifyResult::Intact
    );
    for _ in 0..20 {
        client.drive(ow.kernel_mut(), new_pid);
    }
    assert_eq!(
        client.verify(ow.kernel_mut(), new_pid),
        VerifyResult::Intact
    );
    println!("database verified intact and serving new transactions on the updated kernel");

    // A second update goes back the other way — rejuvenation on a schedule.
    let v3 = KernelConfig {
        version: 3,
        fast_crash_boot: true,
        ..KernelConfig::default()
    };
    let report = ow.hot_update(v3).expect("second update");
    assert!(report.all_succeeded());
    println!(
        "\nscheduled rejuvenation: kernel v{} (generation {}) with zero data loss",
        ow.kernel().config.version,
        ow.kernel().generation
    );
}
