//! The web-session story of §5.3: PHP keeps session data (shopping carts,
//! credentials) in shared memory because persisting it costs ≥25%
//! throughput. The crash procedure added to the PHP module saves the
//! session hash table to a file on a kernel crash and Apache restarts from
//! it — no PHP application changes required.
//!
//! Run with: `cargo run --example web_sessions`

use otherworld::apps::webserv::{self, WebServWorkload};
use otherworld::apps::{VerifyResult, Workload};
use otherworld::core::{Otherworld, OtherworldConfig, ProcOutcome};
use otherworld::kernel::{KernelConfig, PanicCause};
use otherworld::simhw::machine::MachineConfig;

fn main() {
    println!("== Web sessions across a kernel crash (§5.3) ==\n");

    let mut ow = Otherworld::boot(
        MachineConfig::default(),
        KernelConfig::default(),
        OtherworldConfig::default(),
        otherworld::apps::full_registry(),
    )
    .expect("boot");

    let mut clients = WebServWorkload::new(9);
    let pid = clients.setup(ow.kernel_mut());
    for _ in 0..60 {
        clients.drive(ow.kernel_mut(), pid);
    }
    let sessions = webserv::read_sessions(ow.kernel_mut(), pid).expect("sessions");
    println!(
        "httpd holding {} live sessions in shared memory (no disk persistence)",
        sessions.len()
    );

    println!("\n*** kernel panic under load ***");
    ow.kernel_mut()
        .do_panic(PanicCause::Oops("interrupt storm"));

    let report = ow.microreboot_now().expect("microreboot");
    let pr = report.proc_named("httpd").expect("resurrected");
    assert_eq!(pr.outcome, ProcOutcome::SavedAndRestarted);
    println!(
        "PHP-module crash procedure saved the session table to {} and Apache restarted",
        webserv::SESSION_FILE
    );

    let new_pid = pr.new_pid.expect("restarted pid");
    clients.settle(ow.kernel_mut(), new_pid);
    assert_eq!(
        clients.verify(ow.kernel_mut(), new_pid),
        VerifyResult::Intact
    );
    println!("every shopping cart and credential verified against the client log");

    for _ in 0..20 {
        clients.drive(ow.kernel_mut(), new_pid);
    }
    assert_eq!(
        clients.verify(ow.kernel_mut(), new_pid),
        VerifyResult::Intact
    );
    println!("requests flowing again — users never logged out");
}
