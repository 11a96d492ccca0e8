//! Every generation as recoverable as the first. The morph leaves a fresh
//! crash kernel loaded, so one booted session must survive failure after
//! failure: each generation here crashes the kernel, microreboots it
//! (cold morph, eager page copy), settles and drives the application, and
//! checks its data against the remote log.
//!
//! vi and JOE (stale TLB tags after a kexec) and the warm/lazy path (the
//! dead reservation leaks) are left out until those defects are fixed.
//!
//! The `*_survives_mid_batch_crashes` tests crash the kernel while a driven
//! batch is in flight, so the application comes back at a prefix of it:
//! the rest of the batch died with the hardware. Verification must settle
//! the remote log on that prefix; otherwise the next batch logs the lost
//! operations as done, and every later check reads the data as corrupted.
//! BLCR checks its own data instead of a shadow prefix, so it is not among
//! them.

use ow_apps::{make_workload, VerifyResult, Workload};
use ow_core::{microreboot, OtherworldConfig};
use ow_faultinject::campaign_machine_config;
use ow_kernel::{KernelConfig, PanicCause, PendingFault};

/// Crash/microreboot generations per session.
const GENERATIONS: u32 = 24;

/// Generations per mid-batch session.
const MID_BATCH_GENERATIONS: u32 = 6;

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

/// Two sessions, one per fault kind (inside a system call, between
/// scheduler steps). Each generation queues the fault, drives a batch into
/// it, microreboots, settles and verifies the application, then drives
/// three more batches and verifies it again.
fn survives_mid_batch_crashes(app: &str) {
    for in_syscall in [true, false] {
        let mut k =
            ow_apps::boot(campaign_machine_config(), KernelConfig::default()).expect("boot");
        let mut w = make_workload(app, 21);
        let mut pid = w.start(&mut k, 6);
        for generation in 1..=MID_BATCH_GENERATIONS {
            let at = format!("{app} (in_syscall {in_syscall}): generation {generation}");
            k.pending_fault = Some(PendingFault {
                cause: PanicCause::Oops("mid-batch"),
                in_syscall,
            });
            w.drive(&mut k, pid);
            assert!(k.panicked.is_some(), "{at}: the fault did not strike");
            let (next, report) = microreboot(k, &OtherworldConfig::default())
                .unwrap_or_else(|e| panic!("{at}: {e:?}"));
            k = next;
            pid = report
                .proc_named(app)
                .and_then(|p| p.new_pid)
                .unwrap_or_else(|| panic!("{at}: not resurrected"));
            w.settle(&mut k, pid);
            assert_eq!(w.verify(&mut k, pid), VerifyResult::Intact, "{at}: settled");
            for _ in 0..3 {
                w.drive(&mut k, pid);
            }
            assert_eq!(
                w.verify(&mut k, pid),
                VerifyResult::Intact,
                "{at}: three batches on"
            );
        }
    }
}

#[test]
fn vi_survives_mid_batch_crashes() {
    survives_mid_batch_crashes("vi");
}

#[test]
fn joe_survives_mid_batch_crashes() {
    survives_mid_batch_crashes("joe");
}

#[test]
fn mysqld_survives_mid_batch_crashes() {
    survives_mid_batch_crashes("mysqld");
}

#[test]
fn httpd_survives_mid_batch_crashes() {
    survives_mid_batch_crashes("httpd");
}

#[test]
fn volano_survives_mid_batch_crashes() {
    survives_mid_batch_crashes("volano");
}
