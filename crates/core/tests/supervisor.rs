//! Resurrection-supervisor integration tests: panic containment with
//! surviving siblings, the degradation ladder, the recovery watchdog, and
//! second-generation escalation — plus the per-stage timing report.

use ow_core::{
    microreboot, EnginePanicFault, LadderRung, MicrorebootFailure, OtherworldConfig, ProcOutcome,
    RecoveryFaultPlan, StallFault, SupervisorConfig,
};
use ow_kernel::{
    program::{Program, ProgramRegistry, StepResult, UserApi, PROG_STATE_VADDR},
    Kernel, KernelConfig, PanicCause, SpawnSpec,
};
use ow_simhw::{clock::CYCLES_PER_SEC, machine::MachineConfig};

const COUNT_ADDR: u64 = PROG_STATE_VADDR + 8;

/// A well-behaved program: counts in user memory.
struct Counter;

impl Program for Counter {
    fn step(&mut self, api: &mut dyn UserApi) -> StepResult {
        if let Ok(c) = api.mem_read_u64(COUNT_ADDR) {
            let _ = api.mem_write_u64(COUNT_ADDR, c + 1);
        }
        StepResult::Running
    }
    fn save_state(&mut self, _api: &mut dyn UserApi) {}
}

fn registry(bomb_fresh_too: bool) -> ProgramRegistry {
    let mut r = ProgramRegistry::new();
    r.register(
        "counter",
        |api, _args| {
            api.mem_write_u64(COUNT_ADDR, 0).expect("init count");
            Box::new(Counter)
        },
        |_api| Box::new(Counter),
    );
    // "bomb": resurrectable memory image, but its rehydration factory
    // deterministically panics the resurrection engine — the descriptor
    // corruption scenario the supervisor must contain.
    if bomb_fresh_too {
        r.register(
            "bomb",
            |_api, _args| -> Box<dyn Program> { panic!("bomb fresh factory") },
            |_api| -> Box<dyn Program> { panic!("bomb rehydrate") },
        );
    } else {
        r.register(
            "bomb",
            |api, _args| {
                api.mem_write_u64(COUNT_ADDR, 0).expect("init count");
                Box::new(Counter)
            },
            |_api| -> Box<dyn Program> { panic!("bomb rehydrate") },
        );
    }
    r
}

fn boot(bomb_fresh_too: bool) -> Kernel {
    let machine = ow_kernel::standard_machine(MachineConfig {
        ram_frames: 4096, // 16 MiB
        cpus: 2,
        tlb_entries: 64,
        tlb_tagged: true,
        cost: ow_simhw::CostModel::zero_io(),
    });
    Kernel::boot_cold(machine, KernelConfig::default(), registry(bomb_fresh_too))
        .expect("cold boot")
}

fn spawn(k: &mut Kernel, name: &str) -> u64 {
    let mut spec = SpawnSpec::new(name, Box::new(Counter));
    spec.heap_pages = 8;
    let pid = k.spawn(spec).unwrap();
    k.user_write(pid, COUNT_ADDR, &0u64.to_le_bytes()).unwrap();
    pid
}

fn sup_config(enabled: bool) -> OtherworldConfig {
    OtherworldConfig {
        supervisor: SupervisorConfig { enabled },
        ..OtherworldConfig::default()
    }
}

#[test]
fn bomb_panic_is_contained_and_sibling_still_resurrects() {
    let mut k = boot(false);
    spawn(&mut k, "counter");
    spawn(&mut k, "bomb");
    for _ in 0..6 {
        k.run_step();
    }
    k.do_panic(PanicCause::Oops("supervisor test"));

    let (_k2, report) = microreboot(k, &sup_config(true)).expect("microreboot survives the bomb");

    // The sibling is untouched: full-rung transparent resurrection.
    let counter = report.proc_named("counter").expect("counter report");
    assert_eq!(counter.outcome, ProcOutcome::ContinuedTransparently);
    assert_eq!(counter.rung, LadderRung::Full);
    assert_eq!(counter.attempts, 1);

    // The bomb panicked the engine at every rung (rehydration runs inside
    // the containment boundary), then came back as a clean restart.
    let bomb = report.proc_named("bomb").expect("bomb report");
    assert_eq!(bomb.outcome, ProcOutcome::RestartedClean);
    assert_eq!(bomb.rung, LadderRung::CleanRestart);
    assert_eq!(bomb.attempts, 4, "full, no-swap, anon-only, clean restart");
    assert_eq!(report.supervisor.contained_panics, 3);
    assert!(!report.supervisor.escalated, "one bad process is no storm");
}

#[test]
fn bomb_whose_fresh_factory_also_panics_costs_only_itself() {
    let mut k = boot(true);
    spawn(&mut k, "counter");
    spawn(&mut k, "bomb");
    for _ in 0..6 {
        k.run_step();
    }
    k.do_panic(PanicCause::Oops("supervisor test"));

    let (_k2, report) = microreboot(k, &sup_config(true)).expect("microreboot survives");
    let counter = report.proc_named("counter").expect("counter report");
    assert_eq!(counter.outcome, ProcOutcome::ContinuedTransparently);
    let bomb = report.proc_named("bomb").expect("bomb report");
    assert!(
        matches!(bomb.outcome, ProcOutcome::FailedCorrupt(_)),
        "even the clean-restart panic is contained: {:?}",
        bomb.outcome
    );
}

#[test]
fn supervisor_off_engine_panic_is_a_classified_failure_not_a_panic() {
    let mut k = boot(false);
    spawn(&mut k, "bomb");
    for _ in 0..4 {
        k.run_step();
    }
    k.do_panic(PanicCause::Oops("supervisor test"));

    // Even unsupervised, the panic must not unwind out of microreboot():
    // the boundary containment still classifies it.
    let err = microreboot(k, &sup_config(false)).expect_err("must fail");
    assert!(
        matches!(err, MicrorebootFailure::RecoveryFailed(_)),
        "got: {err:?}"
    );
}

#[test]
fn injected_engine_panic_degrades_one_rung_and_keeps_state() {
    let mut k = boot(false);
    let pid = spawn(&mut k, "counter");
    for _ in 0..8 {
        k.run_step();
    }
    let mut buf = [0u8; 8];
    k.user_read(pid, COUNT_ADDR, &mut buf).unwrap();
    let count_before = u64::from_le_bytes(buf);
    assert!(count_before > 0);
    k.do_panic(PanicCause::Oops("supervisor test"));

    let mut config = sup_config(true);
    config.recovery_faults = RecoveryFaultPlan {
        engine_panics: vec![EnginePanicFault {
            victim: 0,
            panics_through: LadderRung::Full,
        }],
        ..RecoveryFaultPlan::default()
    };
    let (mut k2, report) = microreboot(k, &config).expect("microreboot");
    let pr = report.proc_named("counter").expect("counter report");
    assert_eq!(pr.rung, LadderRung::NoSwapMigration, "one rung weaker");
    assert_eq!(pr.attempts, 2);
    // No swapped pages existed, so the weaker rung lost nothing: the count
    // survived in resurrected anonymous memory.
    assert_eq!(pr.outcome, ProcOutcome::ContinuedTransparently);
    let new_pid = pr.new_pid.unwrap();
    k2.user_read(new_pid, COUNT_ADDR, &mut buf).unwrap();
    assert_eq!(u64::from_le_bytes(buf), count_before);
}

#[test]
fn stall_is_cut_off_by_the_watchdog_and_degrades() {
    let mut k = boot(false);
    spawn(&mut k, "counter");
    for _ in 0..4 {
        k.run_step();
    }
    k.do_panic(PanicCause::Oops("supervisor test"));

    let mut config = sup_config(true);
    config.recovery_faults = RecoveryFaultPlan {
        stalls: vec![StallFault {
            victim: 0,
            cycles: 600 * CYCLES_PER_SEC,
        }],
        ..RecoveryFaultPlan::default()
    };
    let (_k2, report) = microreboot(k, &config).expect("microreboot");
    assert_eq!(report.supervisor.watchdog_fires, 1);
    let pr = report.proc_named("counter").expect("counter report");
    assert_eq!(pr.rung, LadderRung::NoSwapMigration);
    assert_eq!(pr.outcome, ProcOutcome::ContinuedTransparently);
}

#[test]
fn stall_without_supervisor_fails_the_microreboot_classified() {
    let mut k = boot(false);
    spawn(&mut k, "counter");
    for _ in 0..4 {
        k.run_step();
    }
    k.do_panic(PanicCause::Oops("supervisor test"));

    let mut config = sup_config(false);
    config.recovery_faults = RecoveryFaultPlan {
        stalls: vec![StallFault {
            victim: 0,
            cycles: 600 * CYCLES_PER_SEC,
        }],
        ..RecoveryFaultPlan::default()
    };
    let err = microreboot(k, &config).expect_err("must fail");
    assert!(
        matches!(err, MicrorebootFailure::RecoveryFailed(_)),
        "got: {err:?}"
    );
}

#[test]
fn crash_boot_failure_escalates_to_restart_only_generation_2() {
    let mut k = boot(false);
    spawn(&mut k, "counter");
    for _ in 0..4 {
        k.run_step();
    }
    k.do_panic(PanicCause::Oops("supervisor test"));

    let mut config = sup_config(true);
    config.recovery_faults = RecoveryFaultPlan {
        crash_boot_failures: 1,
        ..RecoveryFaultPlan::default()
    };
    let (k2, report) = microreboot(k, &config).expect("generation 2 keeps the machine alive");
    assert!(report.supervisor.escalated);
    assert_eq!(report.supervisor.crash_boot_attempts, 2);
    // Restart-only: the application is running again, but from a fresh
    // image — not counted as a resurrection.
    let pr = report.proc_named("counter").expect("counter report");
    assert_eq!(pr.outcome, ProcOutcome::RestartedClean);
    assert_eq!(pr.rung, LadderRung::CleanRestart);
    assert!(k2.procs.iter().any(|p| p.name == "counter"));
}

#[test]
fn panic_storm_escalates_to_restart_only_generation_2() {
    let mut k = boot(false);
    for _ in 0..4 {
        spawn(&mut k, "counter");
    }
    for _ in 0..4 {
        k.run_step();
    }
    k.do_panic(PanicCause::Oops("supervisor test"));

    // The engine dies at every rung for every process: after the third
    // process walks the ladder, the storm counter reaches the threshold.
    let mut config = sup_config(true);
    config.recovery_faults = RecoveryFaultPlan {
        engine_panics: (0..4)
            .map(|victim| EnginePanicFault {
                victim,
                panics_through: LadderRung::AnonymousOnly,
            })
            .collect(),
        ..RecoveryFaultPlan::default()
    };
    let (k2, report) = microreboot(k, &config).expect("generation 2 keeps the machine alive");
    assert!(report.supervisor.escalated);
    assert_eq!(report.supervisor.crash_boot_attempts, 2);
    assert_eq!(
        report.supervisor.contained_panics, 9,
        "three processes, three engine rungs each, before the storm"
    );
    assert_eq!(report.procs.len(), 4);
    for pr in &report.procs {
        assert_eq!(pr.outcome, ProcOutcome::RestartedClean, "{pr:?}");
        assert_eq!(pr.rung, LadderRung::CleanRestart);
    }
    assert_eq!(k2.procs.iter().filter(|p| p.name == "counter").count(), 4);
}

#[test]
fn crash_boot_failure_without_supervisor_is_fatal() {
    let mut k = boot(false);
    spawn(&mut k, "counter");
    for _ in 0..4 {
        k.run_step();
    }
    k.do_panic(PanicCause::Oops("supervisor test"));

    let mut config = sup_config(false);
    config.recovery_faults = RecoveryFaultPlan {
        crash_boot_failures: 1,
        ..RecoveryFaultPlan::default()
    };
    let err = microreboot(k, &config).expect_err("must fail");
    assert!(
        matches!(err, MicrorebootFailure::CrashBootFailed(_)),
        "got: {err:?}"
    );
}

#[test]
fn six_generations_survive_without_leaking_frames() {
    // Regression test for morph's frame reclamation: pids restart at 1 in
    // every generation, so reclaiming by frame *tag* kept dead generations'
    // page tables alive (a few frames leaked per microreboot) until RAM was
    // too fragmented to place the next contiguous crash reservation —
    // microreboots died of old age around generation 5. Reclamation now
    // walks live address spaces instead; the free-frame count must be
    // steady across generations and the bomb contained in each.
    let mut k = boot(false);
    spawn(&mut k, "counter");
    spawn(&mut k, "bomb");
    let mut free_frames = Vec::new();
    for generation in 1..=6 {
        for _ in 0..6 {
            k.run_step();
        }
        k.do_panic(PanicCause::Oops("generation loop"));
        let (k2, report) = microreboot(k, &sup_config(true)).expect("microreboot");
        k = k2;
        assert_eq!(report.generation, generation);
        let counter = report.proc_named("counter").expect("counter report");
        assert_eq!(counter.outcome, ProcOutcome::ContinuedTransparently);
        let bomb = report.proc_named("bomb").expect("bomb report");
        assert_eq!(bomb.outcome, ProcOutcome::RestartedClean);
        free_frames.push(k.falloc.free_frames());
    }
    let (min, max) = (
        *free_frames.iter().min().unwrap(),
        *free_frames.iter().max().unwrap(),
    );
    assert!(
        max - min <= 4,
        "free frames must not decay across generations (placement jitter \
         of a few frames is fine, a leak is not): {free_frames:?}"
    );
}

#[test]
fn stage_timings_partition_the_microreboot() {
    let mut k = boot(false);
    spawn(&mut k, "counter");
    for _ in 0..6 {
        k.run_step();
    }
    k.do_panic(PanicCause::Oops("supervisor test"));

    let (_k2, report) = microreboot(k, &OtherworldConfig::default()).expect("microreboot");
    assert!(report.crash_boot_seconds >= 0.0);
    assert!(report.resurrection_seconds >= 0.0);
    assert!(report.morph_seconds >= 0.0);
    let sum = report.crash_boot_seconds + report.resurrection_seconds + report.morph_seconds;
    assert!(
        (sum - report.total_seconds).abs() < 1e-9,
        "stages must partition the total: {sum} vs {}",
        report.total_seconds
    );
    // And the JSON export carries all four numbers.
    let json = report.timings_json();
    for key in [
        "crash_boot_seconds",
        "resurrection_seconds",
        "morph_seconds",
        "total_seconds",
    ] {
        assert!(json.get(key).is_some(), "missing {key}");
    }
}
