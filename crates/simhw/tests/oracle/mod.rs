//! Flat reference for the sparse page store behind [`PhysMem`] and
//! [`BlockDevice`]: random operation sequences must leave each byte-for-byte
//! equal to a zero-initialised `Vec<u8>`, and fail with the same error
//! exactly where the flat buffer's bounds check would.

use ow_simhw::{
    blockdev::DevError, BlockDevice, Clock, CostModel, MemError, PhysMem, SimRng, PAGE_SIZE,
};
use std::ops::Range;

/// The flat buffer's bounds check: the byte range of `len` bytes at `addr`
/// in a `size`-byte buffer, or `None` when it runs past the end or wraps.
fn flat_range(size: usize, addr: u64, len: usize) -> Option<Range<usize>> {
    let start = addr as usize;
    let end = start.checked_add(len)?;
    (end <= size).then_some(start..end)
}

/// Mostly in the first `span` bytes of a `size`-byte space; sometimes
/// across its end, sometimes at the top of the address space so
/// `addr + len` wraps.
fn random_addr(rng: &mut SimRng, size: usize, span: usize) -> u64 {
    match rng.gen_range(0u32..10) {
        0 => u64::MAX - rng.gen_range(0u64..64),
        1 => (size as u64).saturating_sub(64) + rng.gen_range(0u64..128),
        _ => rng.gen_range(0..span as u64),
    }
}

/// Short lengths half the time, otherwise up to three pages, so accesses
/// straddle one and two page boundaries.
fn random_len(rng: &mut SimRng) -> usize {
    if rng.gen_bool(0.5) {
        rng.gen_range(0usize..17)
    } else {
        rng.gen_range(0..3 * PAGE_SIZE)
    }
}

fn random_bytes(rng: &mut SimRng, len: usize) -> Vec<u8> {
    (0..len).map(|_| rng.gen_range(0u32..256) as u8).collect()
}

/// Reads `width` bytes through the typed accessor of that width.
fn read_typed(phys: &PhysMem, addr: u64, width: usize) -> Result<u64, MemError> {
    match width {
        1 => phys.read_u8(addr).map(u64::from),
        2 => phys.read_u16(addr).map(u64::from),
        4 => phys.read_u32(addr).map(u64::from),
        _ => phys.read_u64(addr),
    }
}

/// Writes the low `width` bytes of `v` through the typed accessor.
fn write_typed(phys: &mut PhysMem, addr: u64, width: usize, v: u64) -> Result<(), MemError> {
    match width {
        1 => phys.write_u8(addr, v as u8),
        2 => phys.write_u16(addr, v as u16),
        4 => phys.write_u32(addr, v as u32),
        _ => phys.write_u64(addr, v),
    }
}

fn le_value(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .rev()
        .fold(0, |acc, &b| (acc << 8) | u64::from(b))
}

/// Reads frame `f` back whole: a frame operation rewrites every byte of
/// it, which the random reads would sample only in part.
fn check_frame(phys: &PhysMem, flat: &[u8], f: usize) {
    let mut got = vec![0xa5; PAGE_SIZE];
    phys.read((f * PAGE_SIZE) as u64, &mut got).unwrap();
    assert_eq!(got, flat[f * PAGE_SIZE..(f + 1) * PAGE_SIZE], "frame {f}");
}

/// Drives `nops` random operations on a `frames`-frame [`PhysMem`] and a
/// flat buffer side by side. Also tracks which frames hold written data:
/// those, and only those, may be backed by host memory, so zeroing or
/// copying from a never-written frame must back nothing.
pub fn phys_case(rng: &mut SimRng, frames: usize, nops: usize) {
    let size = frames * PAGE_SIZE;
    let mut phys = PhysMem::new(frames);
    let mut flat = vec![0u8; size];
    let mut backed = vec![false; frames];
    fn oob<T>(addr: u64, len: usize) -> Result<T, MemError> {
        Err(MemError::OutOfRange { addr, len })
    }
    // Stores land in the lower half of RAM (and across its end), so upper
    // frames mostly stay unwritten and the frame operations keep meeting
    // unbacked sources and destinations.
    let store_span = frames.div_ceil(2) * PAGE_SIZE;
    for _ in 0..nops {
        let op = rng.gen_range(0u32..9);
        let span = if matches!(op, 2 | 5) {
            size
        } else {
            store_span
        };
        let addr = random_addr(rng, size, span);
        match op {
            0 | 1 => {
                let width = [1, 2, 4, 8][rng.gen_range(0usize..4)];
                let v = rng.next_u64();
                let got = write_typed(&mut phys, addr, width, v);
                match flat_range(size, addr, width) {
                    Some(r) => {
                        assert_eq!(got, Ok(()));
                        backed[r.start / PAGE_SIZE..=(r.end - 1) / PAGE_SIZE].fill(true);
                        flat[r].copy_from_slice(&v.to_le_bytes()[..width]);
                    }
                    None => assert_eq!(got, oob(addr, width)),
                }
            }
            2 => {
                let width = [1, 2, 4, 8][rng.gen_range(0usize..4)];
                let want = match flat_range(size, addr, width) {
                    Some(r) => Ok(le_value(&flat[r])),
                    None => oob(addr, width),
                };
                assert_eq!(
                    read_typed(&phys, addr, width),
                    want,
                    "u{} at {addr:#x}",
                    width * 8
                );
            }
            3 | 4 => {
                let len = random_len(rng);
                let buf = random_bytes(rng, len);
                let got = phys.write(addr, &buf);
                match flat_range(size, addr, buf.len()) {
                    Some(r) => {
                        assert_eq!(got, Ok(()));
                        if !r.is_empty() {
                            backed[r.start / PAGE_SIZE..=(r.end - 1) / PAGE_SIZE].fill(true);
                        }
                        flat[r].copy_from_slice(&buf);
                    }
                    None => assert_eq!(got, oob(addr, buf.len())),
                }
            }
            5 => {
                let mut buf = vec![0xa5; random_len(rng)];
                let got = phys.read(addr, &mut buf);
                match flat_range(size, addr, buf.len()) {
                    Some(r) => {
                        assert_eq!(got, Ok(()));
                        assert_eq!(buf, flat[r], "read at {addr:#x}");
                    }
                    None => assert_eq!(got, oob(addr, buf.len())),
                }
            }
            6 => {
                let pfn = rng.gen_range(0..frames as u64 + 2);
                let got = phys.zero_frame(pfn);
                if (pfn as usize) < frames {
                    assert_eq!(got, Ok(()));
                    let f = pfn as usize;
                    flat[f * PAGE_SIZE..(f + 1) * PAGE_SIZE].fill(0);
                    check_frame(&phys, &flat, f);
                } else {
                    assert_eq!(got, oob(pfn * PAGE_SIZE as u64, PAGE_SIZE));
                }
            }
            7 => {
                let src = rng.gen_range(0..frames as u64 + 2);
                let dst = rng.gen_range(0..frames as u64 + 2);
                let got = phys.copy_frame(src, dst);
                if src as usize >= frames {
                    assert_eq!(got, oob(src * PAGE_SIZE as u64, PAGE_SIZE));
                } else if dst as usize >= frames {
                    assert_eq!(got, oob(dst * PAGE_SIZE as u64, PAGE_SIZE));
                } else {
                    assert_eq!(got, Ok(()));
                    let (s, d) = (src as usize, dst as usize);
                    flat.copy_within(s * PAGE_SIZE..(s + 1) * PAGE_SIZE, d * PAGE_SIZE);
                    backed[d] |= backed[s];
                    check_frame(&phys, &flat, d);
                }
            }
            _ => {
                let mask = rng.next_u64();
                phys.corrupt_u64(addr, mask);
                if let Some(r) = flat_range(size, addr, 8) {
                    backed[r.start / PAGE_SIZE..=(r.end - 1) / PAGE_SIZE].fill(true);
                    for (b, m) in flat[r].iter_mut().zip(mask.to_le_bytes()) {
                        *b ^= m;
                    }
                }
            }
        }
        let want = backed.iter().filter(|&&b| b).count() as u64;
        assert_eq!(phys.resident_frames(), want, "backed frames");
    }
    let mut all = vec![0xa5; size];
    phys.read(0, &mut all).unwrap();
    assert_eq!(all, flat);
}

/// Drives `nops` random reads, peeks and writes on a `size`-byte
/// [`BlockDevice`] and a flat buffer side by side.
pub fn dev_case(rng: &mut SimRng, size: usize, nops: usize) {
    let mut dev = BlockDevice::new(0, "sda", size);
    let mut flat = vec![0u8; size];
    let mut clock = Clock::new();
    let cost = CostModel::default();
    let oob = |offset, len| Err(DevError::OutOfRange { offset, len });
    for _ in 0..nops {
        let offset = random_addr(rng, size, size);
        let len = random_len(rng);
        let range = flat_range(size, offset, len);
        match rng.gen_range(0u32..3) {
            0 => {
                let buf = random_bytes(rng, len);
                let got = dev.write_at(&mut clock, &cost, offset, &buf);
                match range {
                    Some(r) => {
                        assert_eq!(got, Ok(()));
                        flat[r].copy_from_slice(&buf);
                    }
                    None => assert_eq!(got, oob(offset, len)),
                }
            }
            op => {
                let mut buf = vec![0xa5; len];
                let got = if op == 1 {
                    dev.read_at(&mut clock, &cost, offset, &mut buf)
                } else {
                    dev.peek(offset, &mut buf)
                };
                match range {
                    Some(r) => {
                        assert_eq!(got, Ok(()));
                        assert_eq!(buf, flat[r], "read at {offset:#x}");
                    }
                    None => assert_eq!(got, oob(offset, len)),
                }
            }
        }
    }
    let mut all = vec![0xa5; size];
    dev.peek(0, &mut all).unwrap();
    assert_eq!(all, flat);
}
