//! Behavioural tests over the kernel substrate: terminals, the page cache,
//! demand paging and swap pressure, syscall restart semantics, memory
//! reclamation after process exit, and morphing.

use ow_kernel::layout::{oflags, HandoffBlock, TERM_COLS, TERM_ROWS};
use ow_kernel::program::{Program, ProgramRegistry, StepResult, UserApi};
use ow_kernel::{
    Errno, Kernel, KernelConfig, KernelError, PanicCause, SpawnSpec, PROG_STATE_VADDR,
};
use ow_simhw::machine::MachineConfig;

struct Nop;

impl Program for Nop {
    fn step(&mut self, api: &mut dyn UserApi) -> StepResult {
        api.compute(1);
        StepResult::Running
    }
    fn save_state(&mut self, _api: &mut dyn UserApi) {}
}

/// A program that exits after N steps.
struct ExitAfter(u64);

impl Program for ExitAfter {
    fn step(&mut self, api: &mut dyn UserApi) -> StepResult {
        api.compute(1);
        self.0 -= 1;
        if self.0 == 0 {
            StepResult::Exited(7)
        } else {
            StepResult::Running
        }
    }
    fn save_state(&mut self, _api: &mut dyn UserApi) {}
}

fn boot() -> Kernel {
    let machine = ow_kernel::standard_machine(MachineConfig {
        ram_frames: 4096,
        cpus: 2,
        tlb_entries: 64,
        tlb_tagged: true,
        cost: ow_simhw::CostModel::zero_io(),
    });
    Kernel::boot_cold(machine, KernelConfig::default(), ProgramRegistry::new()).unwrap()
}

#[test]
fn terminal_scrolls_when_full() {
    let mut k = boot();
    let t = k.create_terminal().unwrap();
    // Fill every row plus one more line.
    for i in 0..TERM_ROWS + 1 {
        let line = format!("line{i:02}");
        k.term_write(t, line.as_bytes()).unwrap();
        k.term_write(t, b"\n").unwrap();
    }
    let screen = k.term_screen(t).unwrap();
    let row0: String = screen[..6].iter().map(|&b| b as char).collect();
    // 26 lines plus the trailing newline scroll the first two lines off.
    assert_eq!(row0, "line02");
    let last_full: String = screen[(TERM_ROWS as usize - 2) * TERM_COLS as usize..][..6]
        .iter()
        .map(|&b| b as char)
        .collect();
    assert_eq!(last_full, "line25");
}

#[test]
fn terminal_carriage_return_and_backspace() {
    let mut k = boot();
    let t = k.create_terminal().unwrap();
    k.term_write(t, b"abc\rX").unwrap();
    let screen = k.term_screen(t).unwrap();
    assert_eq!(&screen[..3], b"Xbc");
    k.term_write(t, &[0x08, 0x08]).unwrap();
    k.term_write(t, b"Z").unwrap();
    let screen = k.term_screen(t).unwrap();
    assert_eq!(&screen[..3], b"Zbc", "backspace moved the cursor back");
}

#[test]
fn page_cache_read_after_write_before_flush() {
    let mut k = boot();
    let pid = k.spawn(SpawnSpec::new("nop", Box::new(Nop))).unwrap();
    let fd = k
        .file_open(pid, "/f", oflags::WRITE | oflags::READ | oflags::CREATE)
        .unwrap();
    k.file_write(pid, fd, b"cached!").unwrap();
    // Nothing flushed yet; reads must come from the cache.
    k.file_seek(pid, fd, 0).unwrap();
    let mut buf = [0u8; 7];
    assert_eq!(k.file_read(pid, fd, &mut buf).unwrap(), 7);
    assert_eq!(&buf, b"cached!");
    // The on-disk file is still empty until fsync.
    let fs = k.fs.clone();
    let ino = fs.lookup(&mut k.machine, "/f").unwrap().unwrap();
    assert_eq!(fs.size_of(&mut k.machine, ino).unwrap(), 0);
    k.file_fsync(pid, fd).unwrap();
    assert_eq!(fs.size_of(&mut k.machine, ino).unwrap(), 7);
}

#[test]
fn append_mode_appends_across_opens() {
    let mut k = boot();
    let pid = k.spawn(SpawnSpec::new("nop", Box::new(Nop))).unwrap();
    for chunk in [b"one".as_slice(), b"two".as_slice()] {
        let fd = k
            .file_open(pid, "/log", oflags::WRITE | oflags::CREATE | oflags::APPEND)
            .unwrap();
        k.file_write(pid, fd, chunk).unwrap();
        k.file_close(pid, fd).unwrap();
    }
    let fd = k.file_open(pid, "/log", oflags::READ).unwrap();
    let mut buf = [0u8; 6];
    k.file_read(pid, fd, &mut buf).unwrap();
    assert_eq!(&buf, b"onetwo");
}

#[test]
fn demand_paging_materializes_only_touched_pages() {
    let mut k = boot();
    let mut spec = SpawnSpec::new("nop", Box::new(Nop));
    spec.heap_pages = 64;
    let pid = k.spawn(spec).unwrap();
    let (present0, _) = k.page_census(pid).unwrap();
    assert_eq!(present0, 0, "nothing mapped before first touch");
    k.user_write(pid, PROG_STATE_VADDR, b"x").unwrap();
    k.user_write(pid, PROG_STATE_VADDR + 5 * 4096, b"y")
        .unwrap();
    let (present, _) = k.page_census(pid).unwrap();
    assert_eq!(present, 2);
}

#[test]
fn out_of_vma_access_is_a_fault() {
    let mut k = boot();
    let pid = k.spawn(SpawnSpec::new("nop", Box::new(Nop))).unwrap();
    // Far beyond any VMA (between heap and stack).
    let r = k.user_write(pid, 0x2000_0000, b"segv");
    assert!(r.is_err());
}

#[test]
fn swap_pressure_and_faulting_back() {
    let mut k = boot();
    let pid = k.spawn(SpawnSpec::new("nop", Box::new(Nop))).unwrap();
    for p in 0..8u64 {
        k.user_write(pid, PROG_STATE_VADDR + p * 4096, &p.to_le_bytes())
            .unwrap();
    }
    let evicted = k.swap_out_pages(pid, 8).unwrap();
    assert_eq!(evicted, 8);
    let (present, swapped) = k.page_census(pid).unwrap();
    assert_eq!((present, swapped), (0, 8));
    // Touching pages faults them back in with contents intact.
    for p in 0..8u64 {
        let mut b = [0u8; 8];
        k.user_read(pid, PROG_STATE_VADDR + p * 4096, &mut b)
            .unwrap();
        assert_eq!(u64::from_le_bytes(b), p);
    }
    let (present, swapped) = k.page_census(pid).unwrap();
    assert_eq!((present, swapped), (8, 0));
}

#[test]
fn exited_process_frees_its_memory() {
    let mut k = boot();
    let free_before = k.falloc.free_frames();
    let pid = k
        .spawn(SpawnSpec::new("die", Box::new(ExitAfter(3))))
        .unwrap();
    k.user_write(pid, PROG_STATE_VADDR, &[1u8; 4096]).unwrap();
    for _ in 0..5 {
        k.run_step();
    }
    assert!(k.procs.is_empty(), "process reaped after exit");
    assert_eq!(
        k.falloc.free_frames(),
        free_before,
        "all frames (pages + tables) must be returned"
    );
    assert!(k.kheap.is_empty() || k.kheap.allocated_bytes() > 0); // heap has kernel tables
}

#[test]
fn run_until_stops_on_predicate() {
    let mut k = boot();
    k.spawn(SpawnSpec::new("die", Box::new(ExitAfter(10))))
        .unwrap();
    let steps = k.run_until(100, |k| k.procs.is_empty());
    assert!(steps <= 10);
    assert!(k.procs.is_empty());
}

#[test]
fn morph_reclaims_dead_kernel_memory() {
    let mut k = boot();
    k.spawn(SpawnSpec::new("nop", Box::new(Nop))).unwrap();
    k.do_panic(PanicCause::Oops("morph test"));
    let info = match k.panicked.clone().unwrap() {
        ow_kernel::PanicOutcome::Handoff(i) => i,
        other => panic!("{other:?}"),
    };
    let machine = k.machine;
    let mut k2 = Kernel::boot_crash(
        machine,
        KernelConfig::default(),
        ProgramRegistry::new(),
        info,
    )
    .unwrap();
    // Before morphing: confined to the old crash reservation.
    let confined = k2.falloc.capacity();
    k2.morph_into_main().unwrap();
    assert!(
        k2.falloc.capacity() > confined * 2,
        "morph must adopt (far) more memory than the reservation"
    );
    // A fresh crash kernel is installed and the panic path works again.
    assert!(k2.crash_region.is_some());
    let out = k2.do_panic(PanicCause::Oops("second"));
    assert!(matches!(out, ow_kernel::PanicOutcome::Handoff(_)));
}

#[test]
fn crash_boot_refuses_a_reservation_past_ram() {
    // A wild write that keeps the handoff block's CRC valid but stretches
    // the reservation past RAM (or past u64) must fail the boot, not abort
    // the host while sizing the allocator.
    for crash_frames in [4096, u64::MAX] {
        let mut k = boot();
        k.do_panic(PanicCause::Oops("bounds test"));
        let Some(ow_kernel::PanicOutcome::Handoff(info)) = k.panicked.clone() else {
            panic!("no handoff");
        };
        let mut machine = k.machine;
        let (mut h, _) = HandoffBlock::read(&machine.phys).unwrap();
        assert!(h.crash_base > 0 && machine.frames() == 4096);
        h.crash_frames = crash_frames;
        h.write(&mut machine.phys).unwrap();
        let err = Kernel::boot_crash(
            machine,
            KernelConfig::default(),
            ProgramRegistry::new(),
            info,
        )
        .unwrap_err();
        assert_eq!(err, KernelError::Inval("crash reservation outside RAM"));
    }
}

/// A program that exercises the ERESTART convention.
struct RestartProbe;

const SAW_RESTART: u64 = PROG_STATE_VADDR + 8;

impl Program for RestartProbe {
    fn step(&mut self, api: &mut dyn UserApi) -> StepResult {
        match api.open("/probe", oflags::CREATE | oflags::WRITE) {
            Ok(fd) => {
                let _ = api.close(fd);
            }
            Err(Errno::Restart) => {
                let _ = api.mem_write_u64(SAW_RESTART, 1);
            }
            Err(_) => {}
        }
        StepResult::Running
    }
    fn save_state(&mut self, _api: &mut dyn UserApi) {}
}

#[test]
fn deliver_restart_aborts_exactly_one_syscall() {
    let mut k = boot();
    let pid = k
        .spawn(SpawnSpec::new("probe", Box::new(RestartProbe)))
        .unwrap();
    k.proc_mut(pid).unwrap().deliver_restart = true;
    k.run_step();
    let mut b = [0u8; 8];
    k.user_read(pid, SAW_RESTART, &mut b).unwrap();
    assert_eq!(u64::from_le_bytes(b), 1, "first syscall saw ERESTART");
    // The flag is consumed: the next step's syscall succeeds.
    k.user_write(pid, SAW_RESTART, &0u64.to_le_bytes()).unwrap();
    k.run_step();
    k.user_read(pid, SAW_RESTART, &mut b).unwrap();
    assert_eq!(u64::from_le_bytes(b), 0, "second syscall ran normally");
}

#[test]
fn fd_exhaustion_reports_emfile() {
    let mut k = boot();
    let pid = k.spawn(SpawnSpec::new("nop", Box::new(Nop))).unwrap();
    for i in 0..ow_kernel::layout::MAX_FDS {
        k.file_open(pid, &format!("/f{i}"), oflags::CREATE | oflags::WRITE)
            .unwrap();
    }
    let err = k
        .file_open(pid, "/onemore", oflags::CREATE | oflags::WRITE)
        .unwrap_err();
    assert!(matches!(err, ow_kernel::KernelError::TooMany(_)));
}

#[test]
fn shm_is_shared_between_processes() {
    let mut k = boot();
    let a = k.spawn(SpawnSpec::new("a", Box::new(Nop))).unwrap();
    let b = k.spawn(SpawnSpec::new("b", Box::new(Nop))).unwrap();
    let va = 0x40_0000;
    k.shm_attach(a, 0x5e55, 2, va).unwrap();
    k.shm_attach(b, 0x5e55, 2, va).unwrap();
    k.user_write(a, va + 100, b"shared").unwrap();
    let mut buf = [0u8; 6];
    k.user_read(b, va + 100, &mut buf).unwrap();
    assert_eq!(&buf, b"shared");
}

#[test]
fn reap_frees_socket_resources() {
    let mut k = boot();
    let free_frames = k.falloc.free_frames();
    let heap = k.kheap.allocated_bytes();
    let pid = k
        .spawn(SpawnSpec::new("s", Box::new(ExitAfter(2))))
        .unwrap();
    let s0 = k.sock_open(pid).unwrap();
    k.sock_open(pid).unwrap();
    k.sock_send(pid, s0, b"payload").unwrap();
    k.sock_close(pid, s0).unwrap();
    for _ in 0..3 {
        k.run_step();
    }
    assert!(k.procs.is_empty());
    assert_eq!(
        k.falloc.free_frames(),
        free_frames,
        "outbuf frames returned"
    );
    assert_eq!(
        k.kheap.allocated_bytes(),
        heap,
        "socket descriptors returned"
    );
}
