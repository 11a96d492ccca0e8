//! Property test: the MEMORY storage engine agrees with a host-side oracle
//! under random insert/update/delete sequences — the invariant MySQL's
//! crash procedure and data verification both rely on. Driven by the
//! vendored [`SimRng`] instead of proptest so it runs fully offline.

use ow_apps::mempse;
use ow_kernel::program::{Program, ProgramRegistry, StepResult, UserApi};
use ow_kernel::syscall::KernelApi;
use ow_kernel::{Kernel, KernelConfig, SpawnSpec};
use ow_simhw::machine::MachineConfig;
use ow_simhw::SimRng;

struct Nop;
impl Program for Nop {
    fn step(&mut self, _api: &mut dyn UserApi) -> StepResult {
        StepResult::Running
    }
    fn save_state(&mut self, _api: &mut dyn UserApi) {}
}

fn boot() -> (Kernel, u64) {
    let machine = ow_kernel::standard_machine(MachineConfig {
        ram_frames: 4096,
        cpus: 1,
        tlb_entries: 16,
        tlb_tagged: true,
        cost: ow_simhw::CostModel::zero_io(),
    });
    let mut k =
        Kernel::boot_cold(machine, KernelConfig::default(), ProgramRegistry::new()).unwrap();
    let mut spec = SpawnSpec::new("db", Box::new(Nop));
    spec.heap_pages = 16;
    let pid = k.spawn(spec).unwrap();
    {
        let mut api = KernelApi::new(&mut k, pid);
        api.mmap_anon(
            mempse::ARENA_BASE,
            (mempse::ARENA_END - mempse::ARENA_BASE) / 4096,
        )
        .unwrap();
        mempse::init(&mut api).unwrap();
    }
    (k, pid)
}

#[derive(Debug, Clone)]
enum Op {
    Insert(u8),
    Update(u64, u8),
    Delete(u64),
}

fn draw_op(rng: &mut SimRng) -> Op {
    match rng.gen_range(0u32..3) {
        0 => Op::Insert(rng.next_u64() as u8),
        1 => Op::Update(rng.next_u64(), rng.next_u64() as u8),
        _ => Op::Delete(rng.next_u64()),
    }
}

#[test]
fn engine_matches_oracle() {
    let mut rng = SimRng::seed_from_u64(0x3e3_95e0);
    for _ in 0..32 {
        let (mut k, pid) = boot();
        let mut api = KernelApi::new(&mut k, pid);
        let tbl = mempse::create_table(&mut api, "t", 64).unwrap();
        let mut oracle: Vec<[u8; 64]> = Vec::new();
        let nops = rng.gen_range(1usize..80);
        for _ in 0..nops {
            match draw_op(&mut rng) {
                Op::Insert(v) => {
                    let row = [v; 64];
                    let ok = mempse::insert_row(&mut api, tbl, &row).is_ok();
                    if oracle.len() < 64 {
                        assert!(ok);
                        oracle.push(row);
                    } else {
                        assert!(!ok, "insert past capacity must fail");
                    }
                }
                Op::Update(i, v) => {
                    if oracle.is_empty() {
                        assert!(mempse::update_row(&mut api, tbl, i, &[v; 64]).is_err());
                    } else {
                        let idx = i % oracle.len() as u64;
                        mempse::update_row(&mut api, tbl, idx, &[v; 64]).unwrap();
                        oracle[idx as usize] = [v; 64];
                    }
                }
                Op::Delete(i) => {
                    if oracle.is_empty() {
                        assert!(mempse::delete_row(&mut api, tbl, i).is_err());
                    } else {
                        let idx = (i % oracle.len() as u64) as usize;
                        mempse::delete_row(&mut api, tbl, idx as u64).unwrap();
                        let last = oracle.len() - 1;
                        oracle.swap(idx, last);
                        oracle.pop();
                    }
                }
            }
        }
        let got = mempse::scan(&mut api, tbl).unwrap();
        assert_eq!(got.len(), oracle.len());
        for (g, o) in got.iter().zip(oracle.iter()) {
            assert_eq!(g.as_slice(), o.as_slice());
        }
    }
}
