//! Epoch-checkpoint rollback-in-place (rung 0) properties.
//!
//! The contract under test: rolling the resurrection-critical records back
//! to the newest panic-sealed epoch is a *shortcut*, never a semantic
//! change. Three families of properties:
//!
//! * a validated epoch rolls back in the same kernel generation, without a
//!   crash-kernel boot, orders of magnitude faster than the cold pipeline;
//! * every ineligible checkpoint — stale, torn, semantically poisoned,
//!   already attempted, or absent — deterministically falls through to the
//!   ordinary microreboot with app-visible state byte-identical to a
//!   rollback-off run;
//! * the per-epoch attempt ledger forbids rollback loops: a re-panic with
//!   no progress is never rolled back twice onto the same epoch.

use ow_core::{microreboot, LadderRung, OtherworldConfig};
use ow_kernel::layout::{
    ckpt_slot_addr, crc::crc32, oflags, parse_snippet, snipkind, EpochCheckpoint, ProcDesc, Record,
    CKPT_SLOTS,
};
use ow_kernel::{
    program::{Program, ProgramRegistry, StepResult, UserApi, PROG_STATE_VADDR},
    Kernel, KernelConfig, PanicCause, SpawnSpec,
};
use ow_simhw::machine::MachineConfig;
use ow_trace::EventKind;

/// Same app shape as the warm/lazy suite: counts in user memory, logs
/// milestones through the page cache.
struct Counter {
    target: u64,
}

const COUNT_ADDR: u64 = PROG_STATE_VADDR + 8;

impl Program for Counter {
    fn step(&mut self, api: &mut dyn UserApi) -> StepResult {
        let c = match api.mem_read_u64(COUNT_ADDR) {
            Ok(c) => c,
            Err(_) => return StepResult::Running,
        };
        let next = c + 1;
        if api.mem_write_u64(COUNT_ADDR, next).is_err() {
            return StepResult::Running;
        }
        if next % 5 == 0 {
            if let Ok(fd) = api.open(
                "/counter.log",
                oflags::WRITE | oflags::CREATE | oflags::APPEND,
            ) {
                let _ = api.write(fd, format!("count={next}\n").as_bytes());
                let _ = api.close(fd);
            }
        }
        if next >= self.target {
            StepResult::Exited(0)
        } else {
            StepResult::Running
        }
    }

    fn save_state(&mut self, _api: &mut dyn UserApi) {}
}

fn registry() -> ProgramRegistry {
    let mut r = ProgramRegistry::new();
    r.register(
        "counter",
        |api, _args| {
            api.mem_write_u64(COUNT_ADDR, 0).expect("init count");
            Box::new(Counter { target: 1_000_000 })
        },
        |_api| Box::new(Counter { target: 1_000_000 }),
    );
    r
}

/// Boots a kernel, runs the counter for `steps`, swaps out `swap_pages` of
/// it, and panics. Every call produces the same dead image, so rollback-on
/// and rollback-off runs are directly comparable.
fn dead_kernel(steps: u32, swap_pages: usize) -> (Kernel, u64) {
    let machine = ow_kernel::standard_machine(MachineConfig {
        ram_frames: 4096,
        cpus: 2,
        tlb_entries: 64,
        tlb_tagged: true,
        cost: ow_simhw::CostModel::zero_io(),
    });
    let mut k = Kernel::boot_cold(machine, KernelConfig::default(), registry()).expect("cold boot");
    let pid = k
        .spawn(SpawnSpec::new(
            "counter",
            Box::new(Counter { target: 1_000_000 }),
        ))
        .unwrap();
    k.user_write(pid, COUNT_ADDR, &0u64.to_le_bytes()).unwrap();
    for _ in 0..steps {
        k.run_step();
    }
    if swap_pages > 0 {
        k.swap_out_pages(pid, swap_pages).unwrap();
    }
    k.do_panic(PanicCause::Oops("rollback test"));
    (k, pid)
}

fn count_of(k: &mut Kernel, pid: u64) -> u64 {
    let mut buf = [0u8; 8];
    k.user_read(pid, COUNT_ADDR, &mut buf).expect("read count");
    u64::from_le_bytes(buf)
}

fn state_page(k: &mut Kernel, pid: u64) -> Vec<u8> {
    let mut buf = vec![0u8; 4096];
    k.user_read(pid, PROG_STATE_VADDR, &mut buf)
        .expect("read state page");
    buf
}

fn log_text(k: &mut Kernel) -> String {
    let fs = k.fs.clone();
    let ino = fs
        .lookup(&mut k.machine, "/counter.log")
        .unwrap()
        .expect("log exists");
    let size = fs.size_of(&mut k.machine, ino).unwrap();
    let mut buf = vec![0u8; size as usize];
    fs.read_at(&mut k.machine, ino, 0, &mut buf).unwrap();
    String::from_utf8(buf).unwrap()
}

fn rollback_config() -> OtherworldConfig {
    OtherworldConfig {
        rollback: true,
        ..OtherworldConfig::default()
    }
}

/// Recovers the given dead kernel and returns the post-recovery kernel,
/// the report, and the app's pid.
fn recover(k: Kernel, cfg: &OtherworldConfig) -> (Kernel, ow_core::MicrorebootReport, u64) {
    let (k2, report) = microreboot(k, cfg).expect("microreboot");
    let pid = report
        .proc_named("counter")
        .expect("counter recovered")
        .new_pid
        .expect("new pid");
    (k2, report, pid)
}

/// The newest sealed epoch slot of a dead kernel (the one rollback picks).
fn newest_slot(k: &Kernel) -> (u64, EpochCheckpoint) {
    let mut best: Option<(u64, EpochCheckpoint)> = None;
    for slot in 0..CKPT_SLOTS {
        let addr = ckpt_slot_addr(k.trace_base, slot);
        if let Ok((c, _)) = EpochCheckpoint::read(&k.machine.phys, addr) {
            if c.valid != 0 && best.as_ref().is_none_or(|(_, b)| c.epoch > b.epoch) {
                best = Some((addr, c));
            }
        }
    }
    best.expect("panic path sealed an epoch")
}

/// The rollback-off observation every fall-through run must match.
fn baseline(steps: u32, swap_pages: usize) -> (u32, u64, Vec<u8>, String) {
    let (k, _) = dead_kernel(steps, swap_pages);
    let (mut k2, report, pid) = recover(k, &OtherworldConfig::default());
    assert!(report.all_succeeded());
    assert!(report.rollback.is_none());
    let count = count_of(&mut k2, pid);
    for _ in 0..10 {
        k2.run_step();
    }
    (
        k2.generation,
        count,
        state_page(&mut k2, pid),
        log_text(&mut k2),
    )
}

#[test]
fn validated_epoch_rolls_back_in_the_same_generation() {
    let (k, pid) = dead_kernel(10, 1);
    let generation = k.generation;
    let (mut k2, report, new_pid) = recover(k, &rollback_config());

    let rb = report.rollback.as_ref().expect("rollback taken");
    assert!(rb.records > 0, "rollback restored no records");
    assert!(rb.bytes_validated > 0);
    assert_eq!(rb.procs, 1);
    // Same kernel generation: no crash kernel ever booted.
    assert_eq!(k2.generation, generation);
    assert_eq!(report.generation, generation);
    assert_eq!(new_pid, pid, "rollback must keep the same pid");
    assert!(report.all_succeeded());
    for p in &report.procs {
        assert_eq!(p.rung, LadderRung::RollbackInPlace);
    }
    // No resurrection work happened: the pipeline stages are all zero.
    assert_eq!(report.crash_boot_seconds, 0.0);
    assert_eq!(report.resurrection_seconds, 0.0);
    assert_eq!(report.morph_seconds, 0.0);
    assert_eq!(report.rollback_seconds, report.total_seconds);
    assert_eq!(report.adoption, ow_core::AdoptionSummary::default());

    // The app continues where it stopped, swapped page included.
    assert_eq!(count_of(&mut k2, pid), 10);
    for _ in 0..10 {
        k2.run_step();
    }
    assert_eq!(count_of(&mut k2, pid), 20);
}

#[test]
fn rollback_interruption_is_at_least_50x_below_the_cold_microreboot() {
    let (k, _) = dead_kernel(10, 0);
    let (_, cold_report, _) = recover(k, &OtherworldConfig::default());
    let (k, _) = dead_kernel(10, 0);
    let (_, rb_report, _) = recover(k, &rollback_config());
    assert!(rb_report.rollback.is_some());
    assert!(
        rb_report.total_seconds * 50.0 <= cold_report.total_seconds,
        "rollback {}s must be at least 50x below cold {}s",
        rb_report.total_seconds,
        cold_report.total_seconds
    );
}

#[test]
fn timings_json_reports_the_rollback_stage() {
    let (k, _) = dead_kernel(10, 0);
    let (_, report, _) = recover(k, &rollback_config());
    let doc = report.timings_json();
    for key in [
        "crash_boot_seconds",
        "resurrection_seconds",
        "morph_seconds",
        "rollback_seconds",
        "total_seconds",
    ] {
        assert!(doc.get(key).is_some(), "timings_json missing {key}");
    }
}

/// One way of making the sealed checkpoint ineligible.
enum Spoil {
    /// Rewind the sealed syscall sequence (stale epoch).
    Stale,
    /// Flip payload bytes without fixing the CRC (torn A/B slot).
    Torn,
    /// Poison a sealed descriptor and recompute the payload CRC
    /// (CRC-valid but semantically invalid).
    Poison,
    /// Stamp the attempt ledger (this epoch already failed once).
    Attempted,
    /// Invalidate both slots outright (no epoch was ever sealed).
    Invalidate,
}

fn spoil_checkpoint(k: &mut Kernel, spoil: &Spoil) {
    match spoil {
        Spoil::Stale => {
            let (addr, mut c) = newest_slot(k);
            c.seq = c.seq.wrapping_sub(1);
            c.write(&mut k.machine.phys, addr).expect("rewrite header");
        }
        Spoil::Torn => {
            let (addr, c) = newest_slot(k);
            let half = c.payload_len / 2;
            let at = addr + EpochCheckpoint::SIZE + half;
            let mut tail = vec![0u8; (c.payload_len - half) as usize];
            k.machine.phys.read(at, &mut tail).expect("read payload");
            for b in &mut tail {
                *b = !*b;
            }
            k.machine.phys.write(at, &tail).expect("tear payload");
        }
        Spoil::Poison => {
            let (addr, mut c) = newest_slot(k);
            let base = addr + EpochCheckpoint::SIZE;
            let mut off = 0u64;
            let mut poisoned = false;
            while off < c.payload_len {
                let (snip, next) =
                    parse_snippet(&k.machine.phys, base, c.payload_len, off).expect("snippet");
                if snip.kind == snipkind::PROC {
                    let (mut desc, _) =
                        ProcDesc::read(&k.machine.phys, snip.src).expect("sealed desc");
                    desc.state = 0xdead;
                    desc.write(&mut k.machine.phys, snip.src)
                        .expect("poison desc");
                    poisoned = true;
                    break;
                }
                off = next;
            }
            assert!(poisoned, "no sealed process descriptor to poison");
            let mut payload = vec![0u8; c.payload_len as usize];
            k.machine.phys.read(base, &mut payload).expect("payload");
            c.payload_crc = crc32(&payload);
            c.write(&mut k.machine.phys, addr).expect("reseal header");
        }
        Spoil::Attempted => {
            let (addr, mut c) = newest_slot(k);
            c.attempted = 1;
            c.write(&mut k.machine.phys, addr).expect("stamp ledger");
        }
        Spoil::Invalidate => {
            for slot in 0..CKPT_SLOTS {
                EpochCheckpoint::invalid()
                    .write(&mut k.machine.phys, ckpt_slot_addr(k.trace_base, slot))
                    .expect("invalidate slot");
            }
        }
    }
}

#[test]
fn every_spoiled_checkpoint_falls_through_byte_identical_to_rollback_off() {
    let (base_gen, base_count, base_page, base_log) = baseline(10, 1);
    assert_eq!(base_count, 10);
    for (name, spoil) in [
        ("stale", Spoil::Stale),
        ("torn", Spoil::Torn),
        ("poison", Spoil::Poison),
        ("attempted", Spoil::Attempted),
        ("invalidate", Spoil::Invalidate),
    ] {
        let (mut k, _) = dead_kernel(10, 1);
        spoil_checkpoint(&mut k, &spoil);
        let (mut k2, report, pid) = recover(k, &rollback_config());
        assert!(
            report.rollback.is_none(),
            "{name}: spoiled checkpoint must not roll back"
        );
        assert!(report.all_succeeded(), "{name}");
        assert_eq!(k2.generation, base_gen, "{name}: fall-through generation");
        let count = count_of(&mut k2, pid);
        for _ in 0..10 {
            k2.run_step();
        }
        assert_eq!(
            (count, state_page(&mut k2, pid), log_text(&mut k2)),
            (base_count, base_page.clone(), base_log.clone()),
            "{name}: fall-through state must be byte-identical to rollback-off"
        );
    }
}

#[test]
fn repanic_without_progress_never_rolls_back_the_same_epoch_twice() {
    let (k, pid) = dead_kernel(10, 0);
    let (mut k2, report, _) = recover(k, &rollback_config());
    assert!(report.rollback.is_some());

    // Re-panic immediately: no syscall has completed, so the panic path
    // re-seals the very same sequence and the burned attempt stamp
    // carries forward — rung 0 must refuse and fall through.
    k2.do_panic(PanicCause::Oops("re-panic without progress"));
    let (mut k3, report2, pid2) = recover(k2, &rollback_config());
    assert!(
        report2.rollback.is_none(),
        "the same epoch must never roll back twice"
    );
    assert!(report2.all_succeeded());
    assert_eq!(pid2, pid);
    assert_eq!(count_of(&mut k3, pid2), 10);

    // With fresh progress after the full recovery, a later panic seals a
    // new sequence and rung 0 is available again.
    for _ in 0..4 {
        k3.run_step();
    }
    k3.do_panic(PanicCause::Oops("panic after progress"));
    let (mut k4, report3, pid3) = recover(k3, &rollback_config());
    assert!(
        report3.rollback.is_some(),
        "a new epoch with progress must roll back again"
    );
    assert_eq!(count_of(&mut k4, pid3), 14);
}

#[test]
fn rollback_is_recorded_in_the_next_flight_record() {
    // The RecoveryRolledBack trace event is written to the live ring after
    // the rollback, so it surfaces in the *next* panic's recovered flight.
    let (k, _) = dead_kernel(10, 0);
    let (mut k2, report, pid) = recover(k, &rollback_config());
    assert!(report.rollback.is_some());
    for _ in 0..4 {
        k2.run_step();
    }
    k2.do_panic(PanicCause::Oops("second panic"));
    let (_, report2, _) = recover(k2, &OtherworldConfig::default());
    assert_eq!(
        report2
            .flight
            .event_counts()
            .get(EventKind::RecoveryRolledBack),
        1,
        "flight record must tally the rollback"
    );
    let _ = pid;
}
