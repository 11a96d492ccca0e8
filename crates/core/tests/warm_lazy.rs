//! Warm-morph and copy-on-access resurrection properties.
//!
//! The contract under test: the warm morph and the lazy strategy are pure
//! optimizations — they may only change *when* work happens, never what
//! the application can observe. Three families of properties:
//!
//! * a valid seal is adopted wholesale and the microreboot gets faster;
//! * a corrupted seal structure (a flipped CRC byte in the frame bitmap,
//!   swap map, or page cache seal) falls back to the cold rebuild for
//!   exactly that structure, with app-visible state identical to a cold
//!   run;
//! * lazy resurrection leaves app-visible memory byte-identical to the
//!   eager copy, before and after the copy-on-access faults fire.

use ow_core::{microreboot, MorphMode, OtherworldConfig, ResurrectionStrategy};
use ow_kernel::layout::{oflags, seal_addr, Record, WarmSeal};
use ow_kernel::{
    program::{Program, ProgramRegistry, StepResult, UserApi, PROG_STATE_VADDR},
    Kernel, KernelConfig, PanicCause, SpawnSpec, KERNEL_FRAMES,
};
use ow_simhw::machine::MachineConfig;

/// Same app shape as the end-to-end suite: counts in user memory, logs
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

/// Boots a kernel, runs the counter for `steps`, swaps out `swap_pages`
/// of it, and panics. Every call produces the same dead image, so runs
/// under different recovery configs are directly comparable.
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
    k.do_panic(PanicCause::Oops("warm_lazy test"));
    (k, pid)
}

fn count_of(k: &mut Kernel, pid: u64) -> u64 {
    let mut buf = [0u8; 8];
    k.user_read(pid, COUNT_ADDR, &mut buf).expect("read count");
    u64::from_le_bytes(buf)
}

/// The page holding the program state and counter, as the app sees it.
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

fn config(morph: MorphMode, strategy: ResurrectionStrategy) -> OtherworldConfig {
    OtherworldConfig {
        morph,
        strategy,
        ..OtherworldConfig::default()
    }
}

/// Recovers the given dead kernel and returns the post-recovery kernel,
/// the report, and the app's new pid.
fn recover(k: Kernel, cfg: &OtherworldConfig) -> (Kernel, ow_core::MicrorebootReport, u64) {
    let (k2, report) = microreboot(k, cfg).expect("microreboot");
    let pid = report
        .proc_named("counter")
        .expect("counter resurrected")
        .new_pid
        .expect("new pid");
    (k2, report, pid)
}

#[test]
fn warm_morph_adopts_every_validated_structure() {
    let (k, _) = dead_kernel(10, 1);
    let (mut k2, report, pid) =
        recover(k, &config(MorphMode::Warm, ResurrectionStrategy::CopyPages));
    assert!(report.all_succeeded());
    assert!(report.adoption.frames, "frame bitmap not adopted");
    assert!(report.adoption.swap, "swap bitmap not adopted");
    assert!(report.adoption.cache, "page cache not adopted");
    assert!(
        k2.warm_booted,
        "crash kernel did not take the warm boot path"
    );
    // Verbatim swap adoption: the swapped page came back without a
    // partition migration.
    let pr = report.proc_named("counter").unwrap();
    assert!(pr.pages_swapped > 0);
    assert_eq!(count_of(&mut k2, pid), 10);
    for _ in 0..10 {
        k2.run_step();
    }
    assert_eq!(count_of(&mut k2, pid), 20);
}

#[test]
fn warm_morph_is_faster_than_cold() {
    let (cold_k, _) = dead_kernel(10, 0);
    let (_, cold_report, _) = recover(
        cold_k,
        &config(MorphMode::Cold, ResurrectionStrategy::CopyPages),
    );
    let (warm_k, _) = dead_kernel(10, 0);
    let (_, warm_report, _) = recover(
        warm_k,
        &config(MorphMode::Warm, ResurrectionStrategy::CopyPages),
    );
    assert!(!cold_report.adoption.frames);
    assert!(warm_report.adoption.frames);
    assert!(
        warm_report.total_seconds < cold_report.total_seconds,
        "warm {} >= cold {}",
        warm_report.total_seconds,
        cold_report.total_seconds
    );
}

/// Which seal CRC a corruption test flips.
enum Flip {
    Falloc,
    Swap,
    Cache,
}

/// Panics the standard scenario, flips one CRC byte in the dead kernel's
/// seal, recovers warm, and returns the post-recovery observation.
fn recover_with_flipped_seal(flip: Flip) -> (ow_core::MicrorebootReport, u64, Vec<u8>, String) {
    let (mut k, _) = dead_kernel(10, 1);
    let addr = seal_addr(k.base_frame, KERNEL_FRAMES);
    let (mut seal, _) = WarmSeal::read(&k.machine.phys, addr).expect("seal readable");
    assert_eq!(seal.valid, 1, "panic path did not seal");
    match flip {
        Flip::Falloc => seal.falloc_crc ^= 0xff,
        Flip::Swap => seal.swap_crc ^= 0xff,
        Flip::Cache => seal.cache_crc ^= 0xff,
    }
    seal.write(&mut k.machine.phys, addr).expect("seal rewrite");
    let (mut k2, report, pid) =
        recover(k, &config(MorphMode::Warm, ResurrectionStrategy::CopyPages));
    assert!(report.all_succeeded());
    let count = count_of(&mut k2, pid);
    for _ in 0..10 {
        k2.run_step();
    }
    let page = state_page(&mut k2, pid);
    let log = log_text(&mut k2);
    (report, count, page, log)
}

/// The cold-run observation every corrupted warm run must match.
fn cold_baseline() -> (u64, Vec<u8>, String) {
    let (k, _) = dead_kernel(10, 1);
    let (mut k2, report, pid) =
        recover(k, &config(MorphMode::Cold, ResurrectionStrategy::CopyPages));
    assert!(report.all_succeeded());
    assert_eq!(report.adoption, ow_core::AdoptionSummary::default());
    let count = count_of(&mut k2, pid);
    for _ in 0..10 {
        k2.run_step();
    }
    (count, state_page(&mut k2, pid), log_text(&mut k2))
}

#[test]
fn corrupted_seal_structures_fall_back_cold_with_identical_state() {
    let (cold_count, cold_page, cold_log) = cold_baseline();
    assert_eq!(cold_count, 10);

    // Frame bitmap CRC flipped: frames fall back, which also forbids cache
    // adoption (the cold reclaim would free the adopted node frames).
    let (report, count, page, log) = recover_with_flipped_seal(Flip::Falloc);
    assert!(!report.adoption.frames);
    assert!(!report.adoption.cache);
    assert!(
        report.adoption.swap,
        "independent structure must still adopt"
    );
    assert_eq!((count, &page, &log), (cold_count, &cold_page, &cold_log));

    // Swap bitmap CRC flipped: swapped pages migrate the cold way; frames
    // and cache adoption are unaffected.
    let (report, count, page, log) = recover_with_flipped_seal(Flip::Swap);
    assert!(!report.adoption.swap);
    assert!(report.adoption.frames);
    assert!(report.adoption.cache);
    assert_eq!((count, &page, &log), (cold_count, &cold_page, &cold_log));

    // Page-cache CRC flipped: the cache is flushed and rebuilt cold.
    let (report, count, page, log) = recover_with_flipped_seal(Flip::Cache);
    assert!(!report.adoption.cache);
    assert!(report.adoption.frames);
    assert!(report.adoption.swap);
    assert_eq!((count, &page, &log), (cold_count, &cold_page, &cold_log));
}

#[test]
fn invalidated_seal_means_cold_morph() {
    // A fresh boot writes valid == 0 over the seal region; a warm-config
    // microreboot over such a kernel must behave exactly like cold.
    let (mut k, _) = dead_kernel(10, 0);
    let addr = seal_addr(k.base_frame, KERNEL_FRAMES);
    WarmSeal::invalid()
        .write(&mut k.machine.phys, addr)
        .expect("seal invalidate");
    let (mut k2, report, pid) =
        recover(k, &config(MorphMode::Warm, ResurrectionStrategy::CopyPages));
    assert!(report.all_succeeded());
    assert_eq!(report.adoption, ow_core::AdoptionSummary::default());
    assert_eq!(count_of(&mut k2, pid), 10);
}

#[test]
fn lazy_resurrection_is_byte_identical_to_eager() {
    let (eager_k, _) = dead_kernel(12, 0);
    let (mut eager, eager_report, eager_pid) = recover(
        eager_k,
        &config(MorphMode::Cold, ResurrectionStrategy::CopyPages),
    );
    let (lazy_k, _) = dead_kernel(12, 0);
    let (mut lazy, lazy_report, lazy_pid) =
        recover(lazy_k, &config(MorphMode::Cold, ResurrectionStrategy::Lazy));
    assert!(eager_report.all_succeeded() && lazy_report.all_succeeded());

    // Lazy materialized nothing up front: every resident page was mapped,
    // none copied.
    let lp = lazy_report.proc_named("counter").unwrap();
    assert!(lp.pages_mapped > 0, "lazy resurrected without mapping");
    assert_eq!(lp.pages_copied, 0, "lazy copied eagerly");
    let ep = eager_report.proc_named("counter").unwrap();
    assert!(ep.pages_copied > 0);
    assert_eq!(ep.pages_mapped, 0);

    // Before any fault fires, reads see identical bytes.
    assert_eq!(
        state_page(&mut eager, eager_pid),
        state_page(&mut lazy, lazy_pid)
    );

    // Running the app writes the counter page — the first write is the
    // copy-on-access fault on the lazy side. The two executions must stay
    // in lockstep.
    for _ in 0..10 {
        eager.run_step();
        lazy.run_step();
    }
    assert_eq!(count_of(&mut eager, eager_pid), 22);
    assert_eq!(count_of(&mut lazy, lazy_pid), 22);
    assert_eq!(
        state_page(&mut eager, eager_pid),
        state_page(&mut lazy, lazy_pid)
    );
    assert_eq!(log_text(&mut eager), log_text(&mut lazy));
}

#[test]
fn every_morph_and_strategy_combination_preserves_the_app() {
    let mut finals = Vec::new();
    for morph in [MorphMode::Cold, MorphMode::Warm] {
        for strategy in [
            ResurrectionStrategy::CopyPages,
            ResurrectionStrategy::MapPages,
            ResurrectionStrategy::Lazy,
        ] {
            let (k, _) = dead_kernel(10, 1);
            let (mut k2, report, pid) = recover(k, &config(morph, strategy));
            assert!(
                report.all_succeeded(),
                "morph={morph:?} strategy={strategy:?}"
            );
            assert_eq!(count_of(&mut k2, pid), 10);
            for _ in 0..10 {
                k2.run_step();
            }
            finals.push((count_of(&mut k2, pid), state_page(&mut k2, pid)));
        }
    }
    // Every configuration converges on the same app-visible state.
    for w in finals.windows(2) {
        assert_eq!(w[0], w[1]);
    }
}
