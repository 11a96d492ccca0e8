//! Cross-cutting application behaviours: the shell, memio helpers, shadow
//! batch semantics, and per-app edge cases.

use ow_apps::workload::{BatchShadow, WorkRng};
use ow_apps::{make_workload, shell, VerifyResult, Workload};
use ow_kernel::{Kernel, KernelConfig, SpawnSpec};
use ow_simhw::machine::MachineConfig;

fn boot() -> Kernel {
    let machine = ow_kernel::standard_machine(MachineConfig {
        ram_frames: 8192,
        cpus: 2,
        tlb_entries: 64,
        tlb_tagged: true,
        cost: ow_simhw::CostModel::zero_io(),
    });
    Kernel::boot_cold(machine, KernelConfig::default(), ow_apps::full_registry()).unwrap()
}

#[test]
fn shell_echoes_and_records_history() {
    let mut k = boot();
    let term = k.create_terminal().unwrap();
    let image = k.registry.get("shell").unwrap();
    let mut spec = SpawnSpec::new("shell", Box::new(shell::Shell));
    spec.term = Some(term);
    let pid = k.spawn(spec).unwrap();
    let fresh = {
        let mut api = ow_kernel::syscall::KernelApi::new(&mut k, pid);
        (image.fresh)(&mut api, &[])
    };
    k.proc_mut(pid).unwrap().program = Some(fresh);
    k.term_input(term, b"ls -la").unwrap();
    for _ in 0..16 {
        k.run_step();
    }
    assert_eq!(shell::read_history(&mut k, pid).unwrap(), b"ls -la");
    let screen = k.term_screen(term).unwrap();
    assert_eq!(&screen[..6], b"ls -la");
}

#[test]
fn batch_shadow_candidates_cover_prefixes() {
    let mut s: BatchShadow<Vec<u32>> = BatchShadow::new(vec![]);
    s.begin_batch(vec![
        Box::new(|v: &mut Vec<u32>| v.push(1)),
        Box::new(|v: &mut Vec<u32>| v.push(2)),
    ]);
    let candidates = s.candidates();
    assert_eq!(candidates, vec![vec![], vec![1], vec![1, 2]]);
    // A new batch commits the previous one entirely when no verify saw it.
    s.begin_batch(vec![Box::new(|v: &mut Vec<u32>| v.push(3))]);
    assert_eq!(s.committed, vec![1, 2]);
}

#[test]
fn batch_shadow_settles_on_the_verified_prefix() {
    let mut s: BatchShadow<Vec<u32>> = BatchShadow::new(vec![]);
    s.begin_batch(vec![
        Box::new(|v: &mut Vec<u32>| v.push(1)),
        Box::new(|v: &mut Vec<u32>| v.push(2)),
    ]);
    // A state the log never allowed changes nothing.
    assert!(!s.matches(|v| v.len() == 3));
    assert_eq!(s.candidates(), vec![vec![], vec![1], vec![1, 2]]);
    // A verified prefix becomes the committed state, and the rest of the
    // batch, which died with the hardware, is dropped.
    assert!(s.matches(|v| v.len() == 1));
    assert_eq!(s.candidates(), vec![vec![1]]);
    s.begin_batch(vec![Box::new(|v: &mut Vec<u32>| v.push(3))]);
    assert_eq!(s.committed, vec![1]);
}

#[test]
fn work_rng_distributions_are_stable() {
    let mut r = WorkRng::new(1);
    let first: Vec<u64> = (0..5).map(|_| r.below(10)).collect();
    let mut r2 = WorkRng::new(1);
    let second: Vec<u64> = (0..5).map(|_| r2.below(10)).collect();
    assert_eq!(first, second);
}

#[test]
fn every_workload_verifies_clean_after_driving() {
    for app in ["vi", "joe", "mysqld", "httpd", "blcr", "volano"] {
        let mut k = boot();
        let mut w = make_workload(app, 500 + app.len() as u64);
        let pid = w.setup(&mut k);
        let batches = if app == "blcr" { 80 } else { 20 };
        for _ in 0..batches {
            w.drive(&mut k, pid);
        }
        assert_eq!(w.verify(&mut k, pid), VerifyResult::Intact, "{app}");
        assert!(k.panicked.is_none(), "{app}");
    }
}

#[test]
fn verify_detects_planted_corruption_in_every_app() {
    use ow_simhw::mmu::AccessKind;
    // For each app, corrupt a byte of its primary data region and check the
    // verifier notices — Table 5's corruption column depends on this.
    let targets: [(&str, u64); 5] = [
        ("vi", 0x10000),                              // text buffer
        ("joe", 0x10000),                             // window 0
        ("mysqld", ow_apps::mempse::ARENA_BASE + 48), // first table rows
        ("httpd", u64::MAX),                          // resolved below: a live session slot
        ("volano", 0x40_0000 + 8),                    // room 0 history
    ];
    for (app, vaddr) in targets {
        let mut k = boot();
        let mut w = make_workload(app, 9);
        let pid = w.setup(&mut k);
        for _ in 0..25 {
            w.drive(&mut k, pid);
        }
        let vaddr = if vaddr != u64::MAX {
            vaddr
        } else {
            // httpd: find a live session slot and corrupt its data bytes.
            let sessions = ow_apps::webserv::read_sessions(&mut k, pid).expect("sessions");
            let sid = *sessions.keys().next().expect("at least one session");
            // Direct-placement slot (collisions are unlikely at this load).
            0x40_0000 + (sid % 1024) * 128 + 16
        };
        // Plant corruption through the physical address.
        let pa = k.user_access(pid, vaddr, AccessKind::Read).unwrap();
        let out = k.machine.wild_write(pa, 0xffff_ffff_ffff_ffff, false);
        assert!(matches!(
            out,
            ow_simhw::machine::WildWriteOutcome::Landed(_)
        ));
        match w.verify(&mut k, pid) {
            VerifyResult::Corrupted(_) => {}
            other => panic!("{app}: corruption not detected: {other:?}"),
        }
    }
}
