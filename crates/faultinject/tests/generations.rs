//! Every generation as recoverable as the first. The morph leaves a fresh
//! crash kernel loaded, so one booted session must survive failure after
//! failure: each generation here crashes the kernel, microreboots it
//! (cold morph, eager page copy), settles and drives the application, and
//! checks its data against the remote log.
//!
//! vi and JOE (stale TLB tags after a kexec) and the warm/lazy path (the
//! dead reservation leaks) are left out until those defects are fixed.

use ow_apps::{make_workload, VerifyResult, Workload};
use ow_core::{microreboot, OtherworldConfig};
use ow_faultinject::campaign_machine_config;
use ow_kernel::{KernelConfig, PanicCause};

/// Crash/microreboot generations per session.
const GENERATIONS: u32 = 24;

fn survives_every_generation(app: &str) {
    let mut k = ow_apps::boot(campaign_machine_config(), KernelConfig::default()).expect("boot");
    let mut w = make_workload(app, 21);
    w.start(&mut k, 6);
    for generation in 1..=GENERATIONS {
        k.do_panic(PanicCause::Oops("generations"));
        let (next, report) = microreboot(k, &OtherworldConfig::default())
            .unwrap_or_else(|e| panic!("{app}: generation {generation}: {e:?}"));
        k = next;
        let pid = report
            .proc_named(app)
            .and_then(|p| p.new_pid)
            .unwrap_or_else(|| panic!("{app}: generation {generation}: not resurrected"));
        w.settle(&mut k, pid);
        for _ in 0..3 {
            w.drive(&mut k, pid);
        }
        assert_eq!(
            w.verify(&mut k, pid),
            VerifyResult::Intact,
            "{app}: generation {generation}"
        );
    }
}

#[test]
fn mysqld_survives_every_generation() {
    survives_every_generation("mysqld");
}

#[test]
fn httpd_survives_every_generation() {
    survives_every_generation("httpd");
}

#[test]
fn blcr_survives_every_generation() {
    survives_every_generation("blcr");
}
