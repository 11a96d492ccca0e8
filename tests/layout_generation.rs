//! Layout-generation safety: a crash kernel that finds a handoff block
//! stamped by a different layout generation must refuse the microreboot
//! with a classified error — never misparse the dead kernel's structures.

use otherworld::core::{microreboot, MicrorebootFailure, OtherworldConfig, SupervisorConfig};
use otherworld::kernel::layout::{HandoffBlock, LAYOUT_VERSION};
use otherworld::kernel::program::{Program, ProgramRegistry, StepResult, UserApi};
use otherworld::kernel::{Kernel, KernelConfig, PanicCause, SpawnSpec};
use otherworld::simhw::machine::MachineConfig;

struct Idle;

impl Program for Idle {
    fn step(&mut self, api: &mut dyn UserApi) -> StepResult {
        api.compute(1);
        StepResult::Running
    }
    fn save_state(&mut self, _api: &mut dyn UserApi) {}
}

fn boot() -> Kernel {
    let machine = otherworld::kernel::standard_machine(MachineConfig {
        ram_frames: 4096,
        cpus: 2,
        tlb_entries: 64,
        tlb_tagged: true,
        cost: otherworld::simhw::CostModel::zero_io(),
    });
    let mut registry = ProgramRegistry::new();
    registry.register("idle", |_a, _g| Box::new(Idle), |_a| Box::new(Idle));
    let mut k = Kernel::boot_cold(machine, KernelConfig::default(), registry).expect("boot");
    k.spawn(SpawnSpec::new("idle", Box::new(Idle))).unwrap();
    k
}

#[test]
fn handoff_carries_this_builds_layout_version() {
    let k = boot();
    let (h, _) = HandoffBlock::read(&k.machine.phys).expect("handoff readable");
    assert_eq!(h.layout_version, LAYOUT_VERSION);
}

/// Panics the kernel with a handoff block stamped by a different (future)
/// layout generation — as if the dead kernel were an incompatible build.
fn panic_with_bumped_layout() -> Kernel {
    let mut k = boot();
    for _ in 0..3 {
        k.run_step();
    }
    let (mut h, _) = HandoffBlock::read(&k.machine.phys).expect("handoff readable");
    h.layout_version = LAYOUT_VERSION + 1;
    h.write(&mut k.machine.phys).expect("handoff writable");
    k.do_panic(PanicCause::Oops("generation test"));
    k
}

#[test]
fn mismatched_layout_generation_is_refused_cleanly() {
    // Without the resurrection supervisor, a mismatched layout generation
    // fails the microreboot with a classified error.
    let k = panic_with_bumped_layout();
    let config = OtherworldConfig {
        supervisor: SupervisorConfig { enabled: false },
        ..OtherworldConfig::default()
    };
    let err = microreboot(k, &config).expect_err("mismatched generation must not resurrect");
    match err {
        MicrorebootFailure::CrashBootFailed(why) => {
            assert!(
                why.contains("layout generation"),
                "refusal must be classified, got: {why}"
            );
            assert!(
                why.contains(&format!("v{}", LAYOUT_VERSION + 1)),
                "refusal must name the stored generation, got: {why}"
            );
        }
        other => panic!("expected CrashBootFailed, got {other:?}"),
    }
}

#[test]
fn mismatched_layout_generation_escalates_to_restart_only() {
    // With the supervisor (the default), the refused first boot escalates
    // to a restart-only generation 2: the machine survives, but nothing may
    // be resurrected from the incompatible dead image — every process comes
    // back as a clean restart at best, never as a successful resurrection.
    let k = panic_with_bumped_layout();
    let (_k2, report) = microreboot(k, &OtherworldConfig::default())
        .expect("supervisor keeps the machine alive across the mismatch");
    assert!(report.supervisor.escalated, "must have escalated");
    assert!(
        report.supervisor.crash_boot_attempts >= 2,
        "first boot must have been refused"
    );
    assert!(
        report.procs.iter().all(|p| !p.outcome.is_success()),
        "no process may count as resurrected from a mismatched image: {:?}",
        report.procs
    );
}

#[test]
fn matching_layout_generation_still_resurrects() {
    let mut k = boot();
    for _ in 0..3 {
        k.run_step();
    }
    k.do_panic(PanicCause::Oops("control"));
    let (_k2, report) =
        microreboot(k, &OtherworldConfig::default()).expect("matching generation microreboots");
    assert!(report.generation >= 1);
}
