//! End-to-end: each of the five evaluation applications (§5) survives a
//! kernel crash with its data verified against the workload's remote log —
//! the success path of every Table 5 experiment.

use otherworld::apps::{make_workload, VerifyResult, Workload};
use otherworld::core::{Otherworld, OtherworldConfig};
use otherworld::kernel::{KernelConfig, PanicCause};
use otherworld::simhw::machine::MachineConfig;

fn survive(app: &str, batches: u32) {
    let mut ow = Otherworld::boot(
        MachineConfig::default(),
        KernelConfig::default(),
        OtherworldConfig::default(),
        otherworld::apps::full_registry(),
    )
    .expect("boot");

    let mut w = make_workload(app, 1234);
    let pid = w.start(ow.kernel_mut(), batches);
    assert_eq!(
        w.verify(ow.kernel_mut(), pid),
        VerifyResult::Intact,
        "{app} pre-crash"
    );

    ow.kernel_mut().do_panic(PanicCause::Oops("all-apps test"));
    let report = ow.microreboot_now().expect("microreboot");
    let pr = report
        .proc_named(app)
        .unwrap_or_else(|| panic!("{app} resurrected"));
    assert!(pr.outcome.is_success(), "{app}: {:?}", pr.outcome);
    let new_pid = pr.new_pid.expect("pid");

    w.settle(ow.kernel_mut(), new_pid);
    assert_eq!(
        w.verify(ow.kernel_mut(), new_pid),
        VerifyResult::Intact,
        "{app} post-crash"
    );

    // The application keeps working on the new kernel.
    for _ in 0..10 {
        w.drive(ow.kernel_mut(), new_pid);
    }
    assert_eq!(
        w.verify(ow.kernel_mut(), new_pid),
        VerifyResult::Intact,
        "{app} continued"
    );
}

#[test]
fn vi_survives() {
    survive("vi", 30);
}

#[test]
fn joe_survives() {
    survive("joe", 30);
}

#[test]
fn mysql_survives() {
    survive("mysqld", 30);
}

#[test]
fn apache_survives() {
    survive("httpd", 30);
}

#[test]
fn blcr_survives() {
    survive("blcr", 100);
}

#[test]
fn volano_survives() {
    survive("volano", 25);
}

#[test]
fn whole_zoo_survives_together() {
    // All applications running simultaneously through one microreboot —
    // the crash kernel resurrects every process on the list.
    let mut ow = Otherworld::boot(
        MachineConfig::default(),
        KernelConfig::default(),
        OtherworldConfig::default(),
        otherworld::apps::full_registry(),
    )
    .expect("boot");

    let mut workloads: Vec<Box<dyn Workload>> = ["vi", "mysqld", "httpd"]
        .iter()
        .map(|app| make_workload(app, 99))
        .collect();
    let mut pids = Vec::new();
    for w in &mut workloads {
        pids.push(w.setup(ow.kernel_mut()));
    }
    for _ in 0..15 {
        for (w, pid) in workloads.iter_mut().zip(&pids) {
            w.drive(ow.kernel_mut(), *pid);
        }
    }

    ow.kernel_mut().do_panic(PanicCause::Oops("zoo"));
    let report = ow.microreboot_now().expect("microreboot");
    assert_eq!(report.procs.len(), 3);
    assert!(report.all_succeeded(), "{report:?}");

    for w in &mut workloads {
        let name = w.name();
        let pid = ow
            .kernel()
            .procs
            .iter()
            .find(|p| p.name == name)
            .map(|p| p.pid)
            .unwrap_or_else(|| panic!("{name} alive"));
        w.settle(ow.kernel_mut(), pid);
        assert_eq!(
            w.verify(ow.kernel_mut(), pid),
            VerifyResult::Intact,
            "{name}"
        );
    }
}
