//! End-to-end flight-recorder tests: the trace ring written by the main
//! kernel survives the panic and the crash-kernel boot, and the recovered
//! record tells the story of the crash — even when wild writes land inside
//! the trace region itself.

use ow_core::{microreboot, OtherworldConfig, PolicySource, ResurrectionPolicy};
use ow_kernel::{
    layout::oflags,
    program::{Program, ProgramRegistry, StepResult, UserApi, PROG_STATE_VADDR},
    Kernel, KernelConfig, PanicCause, SpawnSpec, TRACE_FRAMES,
};
use ow_simhw::machine::MachineConfig;
use ow_trace::{Counter as TraceCounter, EventKind};

/// A small program that counts in user memory and logs to a file, so every
/// step emits syscall and page-fault trace events.
struct Scribbler;

const COUNT_ADDR: u64 = PROG_STATE_VADDR + 8;

impl Program for Scribbler {
    fn step(&mut self, api: &mut dyn UserApi) -> StepResult {
        let c = api.mem_read_u64(COUNT_ADDR).unwrap_or(0);
        let _ = api.mem_write_u64(COUNT_ADDR, c + 1);
        if let Ok(fd) = api.open(
            "/flight.log",
            oflags::WRITE | oflags::CREATE | oflags::APPEND,
        ) {
            let _ = api.write(fd, b"tick\n");
            let _ = api.close(fd);
        }
        StepResult::Running
    }

    fn save_state(&mut self, _api: &mut dyn UserApi) {}
}

fn registry() -> ProgramRegistry {
    let mut r = ProgramRegistry::new();
    r.register(
        "scribbler",
        |api, _args| {
            api.mem_write_u64(COUNT_ADDR, 0).expect("init count");
            Box::new(Scribbler)
        },
        |_api| Box::new(Scribbler),
    );
    r
}

fn boot() -> Kernel {
    let machine = ow_kernel::standard_machine(MachineConfig {
        ram_frames: 4096, // 16 MiB
        cpus: 2,
        tlb_entries: 64,
        tlb_tagged: true,
        cost: ow_simhw::CostModel::zero_io(),
    });
    Kernel::boot_cold(machine, KernelConfig::default(), registry()).expect("cold boot")
}

fn run_workload(k: &mut Kernel) -> u64 {
    let pid = k
        .spawn(SpawnSpec::new("scribbler", Box::new(Scribbler)))
        .expect("spawn");
    let fresh = {
        let image = k.registry.get("scribbler").expect("registered");
        let mut api = ow_kernel::syscall::KernelApi::new(k, pid);
        (image.fresh)(&mut api, &[])
    };
    k.proc_mut(pid).expect("pid").program = Some(fresh);
    for _ in 0..40 {
        k.run_step();
    }
    pid
}

fn config() -> OtherworldConfig {
    OtherworldConfig {
        policy: PolicySource::Inline(ResurrectionPolicy::only(["scribbler"])),
        ..OtherworldConfig::default()
    }
}

#[test]
fn recovered_flight_tells_the_story_of_the_crash() {
    let mut k = boot();
    run_workload(&mut k);
    k.do_panic(PanicCause::Oops("flight test"));

    let (_k2, report) = microreboot(k, &config()).expect("microreboot");
    let flight = &report.flight;

    assert!(flight.header_valid, "trace header must survive the handoff");
    assert!(!flight.events.is_empty(), "flight record must be non-empty");

    // The newest record is the panic path handing off to the crash kernel.
    let last = flight.last_event().expect("events");
    assert!(
        last.is_panic_step(),
        "last event must be a panic step: {last:?}"
    );
    assert!(
        flight.tail_summary(4).contains("panic:handoff"),
        "{}",
        flight.tail_summary(4)
    );

    // The workload's activity shows up in both the events and the metrics.
    assert!(
        flight
            .events
            .iter()
            .any(|e| e.kind == EventKind::SyscallEnter),
        "workload syscalls must be on record"
    );
    assert!(flight.metrics.counter(TraceCounter::Syscalls) > 0);
    assert!(flight.metrics.counter(TraceCounter::PageFaults) > 0);
    assert!(flight.metrics.counter(TraceCounter::PanicSteps) > 0);
    assert!(
        flight.metrics.samples(ow_trace::Histogram::SyscallCycles) > 0,
        "syscall latency histogram must have samples"
    );
}

#[test]
fn wild_write_into_the_trace_region_costs_one_record_not_the_flight() {
    let mut k = boot();
    run_workload(&mut k);

    // A wild write lands inside the trace region (which is deliberately not
    // hardware-protected): smash the middle of an already-written record
    // slot in the first record frame.
    let trace_base = k.machine.phys.frames() - TRACE_FRAMES;
    let slot_addr = (trace_base + 1) * ow_simhw::PAGE_BYTES + 2 * 48 + 16;
    let out = k
        .machine
        .wild_write(slot_addr, 0xdead_beef_dead_beef, false);
    assert_eq!(
        out,
        ow_simhw::machine::WildWriteOutcome::Landed(ow_simhw::machine::FrameOwner::Trace)
    );

    k.do_panic(PanicCause::Oops("wild write test"));
    let (_k2, report) = microreboot(k, &config()).expect("microreboot");
    let flight = &report.flight;

    // Recovery skipped the damaged record and kept everything else.
    assert!(
        flight.corrupt_records >= 1,
        "damaged record must be counted"
    );
    assert!(!flight.events.is_empty(), "the rest of the flight survives");
    assert!(flight.last_event().expect("events").is_panic_step());
    assert!(
        flight.tail_summary(4).contains("corrupt"),
        "{}",
        flight.tail_summary(4)
    );
}

#[test]
fn flight_survives_into_the_next_generation_report() {
    // Two back-to-back microreboots: each report carries the flight of the
    // kernel generation that just died, with matching generation stamps.
    let mut k = boot();
    run_workload(&mut k);
    k.do_panic(PanicCause::Oops("gen 0 crash"));
    let (mut k2, report1) = microreboot(k, &config()).expect("first microreboot");
    assert_eq!(report1.flight.generation, 0);

    for _ in 0..10 {
        k2.run_step();
    }
    k2.do_panic(PanicCause::Oops("gen 1 crash"));
    let (_k3, report2) = microreboot(k2, &config()).expect("second microreboot");
    assert_eq!(report2.flight.generation, report2.generation - 1);
    assert!(!report2.flight.events.is_empty());
    assert!(report2.flight.last_event().expect("events").is_panic_step());
}
