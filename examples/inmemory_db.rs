//! The in-memory database story of §5.2: MySQL's MEMORY storage engine
//! keeps tables in RAM for a 100x+ speedup, and Otherworld removes the
//! biggest risk of doing so — losing everything to a kernel crash. The
//! server's crash procedure dumps every table to disk through the PSE
//! functions and restarts with the dump on its command line.
//!
//! Run with: `cargo run --example inmemory_db`

use otherworld::apps::minidb::{self, MiniDbWorkload};
use otherworld::apps::{VerifyResult, Workload};
use otherworld::core::{Otherworld, OtherworldConfig, ProcOutcome};
use otherworld::kernel::{KernelConfig, PanicCause};
use otherworld::simhw::machine::MachineConfig;

fn main() {
    println!("== In-memory database across a kernel crash (§5.2) ==\n");

    let mut ow = Otherworld::boot(
        MachineConfig::default(),
        KernelConfig::default(),
        OtherworldConfig::default(),
        otherworld::apps::full_registry(),
    )
    .expect("boot");

    // A remote client INSERTs/UPDATEs/DELETEs over a socket.
    let mut client = MiniDbWorkload::new(5);
    let pid = client.setup(ow.kernel_mut());
    for _ in 0..60 {
        client.drive(ow.kernel_mut(), pid);
    }
    let before = minidb::read_db(ow.kernel_mut(), pid).expect("tables");
    let rows: usize = before.values().map(Vec::len).sum();
    println!(
        "mysqld serving {} tables, {rows} rows — all in memory",
        before.len()
    );

    println!("\n*** kernel panic while the server is mid-transaction ***");
    ow.kernel_mut()
        .do_panic(PanicCause::Oops("scheduler corruption"));

    let (outcome, new_pid, generation) = {
        let report = ow.microreboot_now().expect("microreboot");
        let pr = report.proc_named("mysqld").expect("resurrected");
        (pr.outcome.clone(), pr.new_pid, report.generation)
    };
    assert_eq!(outcome, ProcOutcome::SavedAndRestarted);
    println!(
        "crash procedure ran: dumped all tables to {} and restarted the server",
        minidb::DUMP_FILE
    );

    // The restarted server reloaded the dump; the client reconnects and
    // finds every row it wrote.
    let new_pid = new_pid.expect("restarted pid");
    client.settle(ow.kernel_mut(), new_pid);
    assert_eq!(
        client.verify(ow.kernel_mut(), new_pid),
        VerifyResult::Intact
    );
    let after = minidb::read_db(ow.kernel_mut(), new_pid).expect("tables");
    let rows_after: usize = after.values().map(Vec::len).sum();
    println!("verified against the client's log: {rows_after} rows, zero lost");

    // And the service keeps running.
    for _ in 0..20 {
        client.drive(ow.kernel_mut(), new_pid);
    }
    assert_eq!(
        client.verify(ow.kernel_mut(), new_pid),
        VerifyResult::Intact
    );
    println!("new transactions committing normally on kernel generation {generation}");
}
