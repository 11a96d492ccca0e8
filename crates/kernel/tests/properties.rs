//! Property-based tests for the kernel substrate: structure layouts,
//! the kernel heap and the filesystem — driven by the vendored [`SimRng`]
//! instead of proptest so they run fully offline.

use ow_kernel::fs::Fs;
use ow_kernel::kheap::KHeap;
use ow_kernel::layout::{
    pack_str, unpack_str, FileRecord, ProcDesc, Record, SigTable, SwapDesc, VmaDesc, NSIG,
};
use ow_simhw::{machine::MachineConfig, Machine, PhysMem, SimRng};
use std::collections::HashMap;

const CASES: u64 = 64;

fn gen_name(rng: &mut SimRng, max: usize, alphabet: &[u8]) -> String {
    let len = rng.gen_range(1usize..=max);
    (0..len)
        .map(|_| alphabet[rng.gen_range(0usize..alphabet.len())] as char)
        .collect()
}

const NAME_CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_/.-";

/// ProcDesc serialization is lossless for arbitrary plausible values.
#[test]
fn proc_desc_round_trips() {
    let mut rng = SimRng::seed_from_u64(0x6e51_0001);
    for _ in 0..CASES {
        let mut phys = PhysMem::new(64);
        let ptrs: Vec<u64> = (0..5).map(|_| rng.gen_range(0u64..0x4_0000)).collect();
        let regs: Vec<u64> = (0..8).map(|_| rng.next_u64()).collect();
        let desc = ProcDesc {
            pid: rng.next_u64(),
            state: rng.gen_range(1u32..=3),
            name: gen_name(&mut rng, 24, NAME_CHARS),
            crash_proc: rng.gen_range(0u32..2),
            page_root: rng.gen_range(0u64..64),
            mm_head: ptrs[0],
            files: ptrs[1],
            sig: ptrs[2],
            term_id: u32::MAX,
            shm_head: ptrs[3],
            sock_head: 0,
            res_in_use: rng.next_u64() as u32,
            in_syscall: rng.next_u64() as u32,
            saved_pc: rng.next_u64(),
            saved_sp: ptrs[4],
            saved_regs: regs.try_into().unwrap(),
            checksum: 0,
            next: 0,
        };
        desc.write(&mut phys, 0x8000).unwrap();
        let (got, consumed) = ProcDesc::read(&phys, 0x8000).unwrap();
        assert_eq!(got, desc);
        assert_eq!(consumed, ProcDesc::SIZE);
    }
}

/// Any single corrupted byte in a magic field is detected.
#[test]
fn corrupted_magic_never_parses() {
    let mut rng = SimRng::seed_from_u64(0x6e51_0002);
    for _ in 0..CASES * 4 {
        let mask = rng.gen_range(1u32..=0xff);
        let shift = rng.gen_range(0u32..4);
        let mut phys = PhysMem::new(16);
        let vma = VmaDesc {
            start: 0x1000,
            end: 0x3000,
            flags: 3,
            file: 0,
            file_off: 0,
            next: 0,
        };
        vma.write(&mut phys, 0x2000).unwrap();
        let old = phys.read_u32(0x2000).unwrap();
        phys.write_u32(0x2000, old ^ (mask << (shift * 8))).unwrap();
        assert!(VmaDesc::read(&phys, 0x2000).is_err());
    }
}

/// File records round-trip including path strings.
#[test]
fn file_record_round_trips() {
    let mut rng = SimRng::seed_from_u64(0x6e51_0003);
    for _ in 0..CASES {
        let mut phys = PhysMem::new(16);
        let rec = FileRecord {
            flags: rng.next_u64() as u32,
            refcnt: 1,
            offset: rng.next_u64(),
            fsize: rng.next_u64(),
            inode: rng.next_u64(),
            path: gen_name(&mut rng, 24, NAME_CHARS),
            cache_head: rng.gen_range(0u64..0x1_0000),
        };
        rec.write(&mut phys, 0x4000).unwrap();
        let (got, _) = FileRecord::read(&phys, 0x4000).unwrap();
        assert_eq!(got, rec);
    }
}

/// Signal tables and swap descriptors round-trip.
#[test]
fn sig_and_swap_round_trip() {
    let mut rng = SimRng::seed_from_u64(0x6e51_0004);
    for _ in 0..CASES {
        let mut phys = PhysMem::new(16);
        let handlers: Vec<u64> = (0..NSIG).map(|_| rng.next_u64()).collect();
        let sig = SigTable {
            handlers: handlers.try_into().unwrap(),
        };
        sig.write(&mut phys, 0x1000).unwrap();
        assert_eq!(SigTable::read(&phys, 0x1000).unwrap().0, sig);

        let swap = SwapDesc {
            dev_name: gen_name(&mut rng, 12, b"abcdefghijklmnopqrstuvwxyz0123456789-"),
            dev_id: rng.next_u64() as u32,
            nslots: rng.gen_range(1u32..(1 << 20)),
            bitmap: 0x9000,
        };
        swap.write(&mut phys, 0x2000).unwrap();
        assert_eq!(SwapDesc::read(&phys, 0x2000).unwrap().0, swap);
    }
}

/// String pack/unpack is identity for strings that fit.
#[test]
fn strings_pack_losslessly() {
    let mut rng = SimRng::seed_from_u64(0x6e51_0005);
    let printable: Vec<u8> = (0x20u8..0x7f).collect();
    for _ in 0..CASES * 4 {
        let len = rng.gen_range(0usize..32);
        let s: String = (0..len)
            .map(|_| printable[rng.gen_range(0usize..printable.len())] as char)
            .collect();
        let packed = pack_str::<32>(&s);
        assert_eq!(unpack_str(&packed), s);
    }
}

/// Kernel heap allocations never overlap, and freeing everything
/// restores full capacity.
#[test]
fn kheap_allocations_never_overlap() {
    let mut rng = SimRng::seed_from_u64(0x6e51_0006);
    for _ in 0..CASES {
        let mut h = KHeap::new(0x1_0000, 0x4000);
        let mut live: Vec<(u64, u64)> = Vec::new();
        let nallocs = rng.gen_range(1usize..50);
        for _ in 0..nallocs {
            let size = rng.gen_range(1u64..200);
            if let Some(addr) = h.alloc(size) {
                for &(a, s) in &live {
                    let s_round = s.max(1).div_ceil(8) * 8;
                    let sz_round = size.max(1).div_ceil(8) * 8;
                    assert!(
                        addr + sz_round <= a || a + s_round <= addr,
                        "overlap: {addr:#x}+{size} with {a:#x}+{s}"
                    );
                }
                live.push((addr, size));
            }
        }
        for (a, s) in live.drain(..) {
            h.free(a, s);
        }
        assert!(h.is_empty());
        assert!(h.alloc(0x4000).is_some(), "coalesced back to one block");
    }
}

/// The filesystem agrees with an in-memory byte-map oracle under random
/// writes and reads.
#[test]
fn fs_matches_oracle() {
    let mut rng = SimRng::seed_from_u64(0x6e51_0007);
    for _ in 0..CASES / 2 {
        let mut m = Machine::new(MachineConfig {
            ram_frames: 64,
            cpus: 1,
            tlb_entries: 16,
            tlb_tagged: true,
            cost: ow_simhw::CostModel::zero_io(),
        });
        let dev = m.add_device("sda", 4 * 1024 * 1024);
        let fs = Fs::format(&mut m, dev, 16).unwrap();
        let ino = fs.create(&mut m, "/oracle").unwrap();
        let mut oracle: HashMap<u64, u8> = HashMap::new();
        let mut max_end = 0u64;
        let nops = rng.gen_range(1usize..20);
        for _ in 0..nops {
            let off = rng.gen_range(0u64..40_000);
            let len = rng.gen_range(1usize..500);
            let data: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            fs.write_at(&mut m, ino, off, &data).unwrap();
            for (i, b) in data.iter().enumerate() {
                oracle.insert(off + i as u64, *b);
            }
            max_end = max_end.max(off + data.len() as u64);
        }
        assert_eq!(fs.size_of(&mut m, ino).unwrap(), max_end);
        let mut buf = vec![0u8; max_end as usize];
        fs.read_at(&mut m, ino, 0, &mut buf).unwrap();
        for (i, b) in buf.iter().enumerate() {
            let want = oracle.get(&(i as u64)).copied().unwrap_or(0);
            assert_eq!(*b, want, "byte {i}");
        }
    }
}
