//! `PhysMem` and `BlockDevice` against a flat `Vec<u8>` on a few seeded
//! random operation sequences; `properties.rs` runs the long sweep.

mod oracle;

use ow_simhw::{SimRng, PAGE_SIZE};

#[test]
fn phys_mem_matches_flat_buffer() {
    let mut rng = SimRng::seed_from_u64(0x5a9e_0001);
    for frames in [1, 2, 32] {
        oracle::phys_case(&mut rng, frames, 400);
    }
}

#[test]
fn block_device_matches_flat_buffer() {
    let mut rng = SimRng::seed_from_u64(0x5a9e_0002);
    for size in [16, PAGE_SIZE + 1, 3 * PAGE_SIZE] {
        oracle::dev_case(&mut rng, size, 400);
    }
}
