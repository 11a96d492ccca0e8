//! The central resurrection invariant, property-tested: absent corruption,
//! a resurrected process's user address space is **byte-identical** to the
//! moment of the crash — whatever mix of written, untouched and swapped-out
//! pages it contains, and under either page-materialization strategy.
//! Driven by the vendored [`SimRng`] instead of proptest so it runs fully
//! offline.

use otherworld::core::{microreboot, OtherworldConfig, ResurrectionStrategy};
use otherworld::kernel::program::{Program, ProgramRegistry, StepResult, UserApi};
use otherworld::kernel::{Kernel, KernelConfig, PanicCause, SpawnSpec, PROG_STATE_VADDR};
use otherworld::simhw::machine::MachineConfig;
use otherworld::simhw::SimRng;

struct Blob;

impl Program for Blob {
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
    registry.register("blob", |_a, _g| Box::new(Blob), |_a| Box::new(Blob));
    Kernel::boot_cold(machine, KernelConfig::default(), registry).expect("boot")
}

#[test]
fn address_space_survives_byte_identically() {
    let mut rng = SimRng::seed_from_u64(0x1de2_717e);
    for case in 0..24 {
        let nwrites = rng.gen_range(1usize..40);
        let writes: Vec<(u64, u8, u64)> = (0..nwrites)
            .map(|_| {
                // (page index within a 48-page window, payload byte, offset)
                (
                    rng.gen_range(0u64..48),
                    rng.next_u64() as u8,
                    rng.gen_range(0u64..4000),
                )
            })
            .collect();
        let swap_outs = rng.gen_range(0usize..12);
        let map_strategy = rng.gen_bool(0.5);

        let mut k = boot();
        let mut spec = SpawnSpec::new("blob", Box::new(Blob));
        spec.heap_pages = 64;
        let pid = k.spawn(spec).unwrap();

        // Scatter writes over the heap window.
        for (page, byte, off) in &writes {
            let vaddr = PROG_STATE_VADDR + page * 4096 + off;
            k.user_write(pid, vaddr, &[*byte, byte.wrapping_add(1)])
                .unwrap();
        }
        // Swap out a prefix of the present pages.
        let _ = k.swap_out_pages(pid, swap_outs);

        // Snapshot the full heap window through the kernel's user-read path.
        let mut before = vec![0u8; 48 * 4096];
        k.user_read(pid, PROG_STATE_VADDR, &mut before).unwrap();
        // Re-evict after the snapshot faulted everything back in.
        let _ = k.swap_out_pages(pid, swap_outs);

        k.do_panic(PanicCause::Oops("prop"));
        let config = OtherworldConfig {
            strategy: if map_strategy {
                ResurrectionStrategy::MapPages
            } else {
                ResurrectionStrategy::CopyPages
            },
            ..OtherworldConfig::default()
        };
        let (mut k2, report) = microreboot(k, &config).unwrap();
        assert!(report.all_succeeded(), "case {case}: {:?}", report.procs);
        let new_pid = report.procs[0].new_pid.unwrap();

        let mut after = vec![0u8; 48 * 4096];
        k2.user_read(new_pid, PROG_STATE_VADDR, &mut after).unwrap();
        assert_eq!(before, after, "case {case}");
    }
}
