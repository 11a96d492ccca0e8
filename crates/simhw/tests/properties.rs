//! Property-based tests for the hardware substrate, driven by the vendored
//! [`SimRng`] instead of proptest so they run fully offline.

mod oracle;

use ow_simhw::{
    paging::{PageFault, VA_LIMIT},
    AccessKind, AddressSpace, Clock, CostModel, FrameAllocator, Mmu, PhysMem, Pte, PteFlags,
    SimRng, KERNEL_ASID, PAGE_SIZE,
};
use std::collections::{HashMap, HashSet};

const CASES: u64 = 64;

/// PTE pack/unpack is lossless for any frame number and flag set.
#[test]
fn pte_round_trip() {
    let mut rng = SimRng::seed_from_u64(0x907e_0001);
    for _ in 0..CASES * 4 {
        let pfn = rng.gen_range(0u64..(1 << 40));
        let flags = rng.gen_range(0u64..0x80);
        let pte = Pte::new(pfn, PteFlags::from_bits(flags));
        assert_eq!(pte.pfn(), pfn);
        assert_eq!(pte.flags().bits(), flags);
    }
}

/// Every allocated frame is unique and within range; freeing makes the
/// allocator reach its full capacity again.
#[test]
fn frame_allocator_never_double_allocates() {
    let mut rng = SimRng::seed_from_u64(0x907e_0002);
    for _ in 0..CASES {
        let base = rng.gen_range(0u64..100);
        let count = rng.gen_range(1usize..64);
        let nops = rng.gen_range(0usize..200);
        let mut fa = FrameAllocator::new(base, count);
        let mut live: Vec<u64> = Vec::new();
        let mut seen = HashSet::new();
        for _ in 0..nops {
            if rng.gen_bool(0.5) && !live.is_empty() {
                let f = live.pop().unwrap();
                fa.free(f);
                seen.remove(&f);
            } else if let Some(f) = fa.alloc() {
                assert!(fa.contains(f), "frame in range");
                assert!(seen.insert(f), "frame {f} double-allocated");
                live.push(f);
            }
        }
        assert_eq!(fa.allocated_frames(), live.len());
        for f in live.drain(..) {
            fa.free(f);
        }
        // Full capacity is reusable.
        for _ in 0..count {
            assert!(fa.alloc().is_some());
        }
        assert!(fa.alloc().is_none());
    }
}

/// The page-table walk agrees with a software map oracle under random
/// map/unmap sequences.
#[test]
fn page_walk_matches_oracle() {
    let mut rng = SimRng::seed_from_u64(0x907e_0003);
    for _ in 0..CASES {
        let mut phys = PhysMem::new(512);
        let mut fa = FrameAllocator::new(0, 512);
        let asp = AddressSpace::new(&mut phys, &mut fa).unwrap();
        let mut oracle: HashMap<u64, u64> = HashMap::new();
        let nops = rng.gen_range(1usize..80);
        for _ in 0..nops {
            let page = rng.gen_range(0u64..256);
            let unmap = rng.gen_bool(0.5);
            let pfn = rng.gen_range(1u64..512);
            // Spread pages across both levels of the table.
            let vaddr = (page % 16) * 0x20_0000 + (page / 16) * PAGE_SIZE as u64;
            if unmap {
                asp.unmap(&mut phys, vaddr).unwrap();
                oracle.remove(&vaddr);
            } else if asp
                .map(
                    &mut phys,
                    &mut fa,
                    vaddr,
                    pfn,
                    PteFlags::WRITABLE | PteFlags::USER,
                )
                .is_ok()
            {
                oracle.insert(vaddr, pfn);
            }
        }
        for (vaddr, pfn) in &oracle {
            let pte = asp.walk(&phys, *vaddr).unwrap();
            assert_eq!(pte.pfn(), *pfn);
        }
        // And nothing else is mapped.
        let mut mapped = 0;
        asp.for_each_mapped(&phys, |va, _| {
            assert!(oracle.contains_key(&va), "unexpected mapping at {va:#x}");
            mapped += 1;
        })
        .unwrap();
        assert_eq!(mapped, oracle.len());
    }
}

/// `PhysMem` and `BlockDevice` behave like a flat zero-initialised byte
/// buffer under random typed, bulk, frame and corruption operations, with
/// only written frames backed (the page-store oracle, long sweep).
#[test]
fn page_store_matches_flat_buffer() {
    let mut rng = SimRng::seed_from_u64(0x907e_0004);
    for _ in 0..CASES {
        let frames = rng.gen_range(1usize..41);
        let nops = rng.gen_range(0usize..600);
        oracle::phys_case(&mut rng, frames, nops);
        let size = match rng.gen_range(0u32..3) {
            0 => 16,
            1 => PAGE_SIZE + 1,
            _ => rng.gen_range(1..5 * PAGE_SIZE),
        };
        let nops = rng.gen_range(0usize..600);
        oracle::dev_case(&mut rng, size, nops);
    }
}

/// The tagged TLB never serves a stale translation: on random traces of
/// map/unmap/remap (followed by the kernel's ranged-invalidation rule),
/// small-capacity ASID rollovers, and protected-style kernel enter/exit tag
/// switches, every translation through a tagged [`Mmu`] agrees exactly with
/// a flush-always oracle MMU that re-walks the page tables on every access.
#[test]
fn tagged_translation_matches_flush_always_oracle() {
    let mut rng = SimRng::seed_from_u64(0x907e_0006);
    let cost = CostModel::default();
    for case in 0..CASES {
        let mut phys = PhysMem::new(512);
        let mut fa = FrameAllocator::new(0, 512);
        // Capacity 3 = two allocatable user tags for three spaces, so the
        // round-robin below keeps recycling generations.
        let mut tagged = Mmu::with_asid_capacity(16, 3);
        let mut oracle = Mmu::new(16);
        let mut tclock = Clock::new();
        let mut oclock = Clock::new();
        let spaces: Vec<AddressSpace> = (0..3)
            .map(|_| AddressSpace::new(&mut phys, &mut fa).unwrap())
            .collect();
        let vaddr_of = |page: u64| (page % 8) * 0x20_0000 + (page / 8) * PAGE_SIZE as u64;
        let nops = rng.gen_range(40usize..120);
        for _ in 0..nops {
            let asp = spaces[rng.gen_range(0usize..spaces.len())];
            let page = rng.gen_range(0u64..24);
            let vaddr = vaddr_of(page);
            match rng.gen_range(0u32..8) {
                // Map or remap, then apply the ranged-invalidation rule the
                // kernel follows after any PTE rewrite.
                0..=2 => {
                    let pfn = rng.gen_range(1u64..512);
                    let mut flags = PteFlags::USER;
                    if rng.gen_bool(0.75) {
                        flags |= PteFlags::WRITABLE;
                    }
                    if asp.pte(&phys, vaddr).unwrap().is_some() {
                        asp.unmap(&mut phys, vaddr).unwrap();
                    }
                    if asp.map(&mut phys, &mut fa, vaddr, pfn, flags).is_ok() {
                        tagged.invalidate_range(
                            &mut tclock,
                            &cost,
                            asp.root(),
                            vaddr,
                            PAGE_SIZE as u64,
                        );
                    }
                }
                // Unmap + invalidate.
                3 => {
                    asp.unmap(&mut phys, vaddr).unwrap();
                    tagged.invalidate_range(
                        &mut tclock,
                        &cost,
                        asp.root(),
                        vaddr,
                        PAGE_SIZE as u64,
                    );
                }
                // A protected-mode kernel excursion: tag switch to the
                // kernel-only set, kernel working set competes for slots,
                // tag switch back. No flush anywhere.
                4 => {
                    tagged.switch_asid(&mut tclock, &cost, KERNEL_ASID);
                    let pages = rng.gen_range(1u64..8);
                    tagged.touch_kernel(&mut tclock, &cost, VA_LIMIT >> 12, pages);
                    tagged.switch_to_space(&mut tclock, &cost, asp.root());
                }
                // Translate through both MMUs and demand identical results.
                _ => {
                    let kind = if rng.gen_bool(0.5) {
                        AccessKind::Write
                    } else {
                        AccessKind::Read
                    };
                    oracle.flush(&mut oclock, &cost);
                    let want = oracle.access(&mut phys, &mut oclock, &cost, asp, vaddr, kind);
                    let got = tagged.access(&mut phys, &mut tclock, &cost, asp, vaddr, kind);
                    assert_eq!(
                        got, want,
                        "case {case}: stale translation at {vaddr:#x} ({kind:?})"
                    );
                }
            }
        }
        assert!(
            tagged.asid_generation() > 0,
            "case {case}: three spaces over two tags must roll the generation"
        );
        assert_eq!(tagged.stats().flushes, tagged.asid_generation());
    }
}

/// Out-of-space virtual addresses always fault, never alias.
#[test]
fn addresses_beyond_va_limit_fault() {
    let mut rng = SimRng::seed_from_u64(0x907e_0005);
    let mut phys = PhysMem::new(16);
    let mut fa = FrameAllocator::new(0, 16);
    let asp = AddressSpace::new(&mut phys, &mut fa).unwrap();
    for _ in 0..CASES * 4 {
        let off = rng.gen_range(0u64..(1 << 33));
        let vaddr = VA_LIMIT + off;
        assert_eq!(asp.walk(&phys, vaddr), Err(PageFault::OutOfSpace(vaddr)));
    }
}
