//! CRC-32 (IEEE 802.3 polynomial), the shared integrity guard.
//!
//! One implementation serves every CRC-framed structure in the system: the
//! flight-recorder record slots, the §4 descriptor checksums, the warm
//! seal's bitmaps and page-cache digest, and the epoch checkpoints'
//! payloads. A wild write that lands in guarded memory flips bits in at
//! most a few records; the CRC lets recovery tell exactly which ones.
//!
//! The checksum is computed by slicing-by-8: eight bytes per step, each
//! looked up in its own table and the eight results XORed together, then
//! the plain byte-at-a-time table for the tail. The tables are built at
//! compile time so there is no runtime init to corrupt.

/// `TABLES[0]` is the byte-at-a-time table; `TABLES[k][b]` is the CRC
/// contribution of byte `b` followed by `k` zero bytes.
const fn build_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xedb8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut k = 1;
        while k < 8 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xff) as usize];
            k += 1;
        }
        i += 1;
    }
    t
}

static TABLES: [[u32; 256]; 8] = build_tables();

/// The entry of `table` for the low byte of `v`.
fn lookup(table: &[u32; 256], v: u64) -> u32 {
    // ow-lint: allow(recovery-panic) -- 256-entry table indexed by a masked byte
    table[(v & 0xff) as usize]
}

/// CRC-32 of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut h = Crc32::new();
    h.update(data);
    h.finish()
}

/// A streaming CRC-32 hasher, for checksums over discontiguous extents
/// (the warm seal's page-cache CRC covers every node's bytes across many
/// kheap allocations — no single range to hand to [`crc32_range`]).
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// A fresh hasher.
    pub fn new() -> Crc32 {
        Crc32 { state: 0xffff_ffff }
    }

    /// Feeds host bytes.
    pub fn update(&mut self, data: &[u8]) {
        let [t0, t1, t2, t3, t4, t5, t6, t7] = &TABLES;
        let (words, tail) = data.as_chunks::<8>();
        let mut c = self.state;
        for w in words {
            let v = u64::from_le_bytes(*w) ^ u64::from(c);
            c = lookup(t7, v)
                ^ lookup(t6, v >> 8)
                ^ lookup(t5, v >> 16)
                ^ lookup(t4, v >> 24)
                ^ lookup(t3, v >> 32)
                ^ lookup(t2, v >> 40)
                ^ lookup(t1, v >> 48)
                ^ lookup(t0, v >> 56);
        }
        for &b in tail {
            c = lookup(t0, u64::from(c ^ u32::from(b))) ^ (c >> 8);
        }
        self.state = c;
    }

    /// Feeds `len` bytes of simulated physical memory at `addr`, in
    /// bounded chunks.
    pub fn update_range(
        &mut self,
        phys: &ow_simhw::PhysMem,
        addr: ow_simhw::PhysAddr,
        len: u64,
    ) -> Result<(), ow_simhw::MemError> {
        let mut buf = [0u8; 256];
        let mut off = 0u64;
        while off < len {
            let n = (len - off).min(buf.len() as u64) as usize;
            // ow-lint: allow(recovery-panic) -- n is min-clamped to buf.len()
            phys.read(addr + off, &mut buf[..n])?;
            // ow-lint: allow(recovery-panic) -- n is min-clamped to buf.len()
            self.update(&buf[..n]);
            off += n as u64;
        }
        Ok(())
    }

    /// The finished checksum.
    pub fn finish(&self) -> u32 {
        self.state ^ 0xffff_ffff
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

/// CRC-32 of `len` bytes of simulated physical memory starting at `addr`,
/// computed in bounded chunks (no `len`-sized host allocation).
///
/// This is the warm morph's validation primitive: the crash kernel checks
/// a dead structure's sealed CRC against the actual dead bytes before
/// adopting it. Living here keeps the raw reads inside the validated
/// cursor layer.
pub fn crc32_range(
    phys: &ow_simhw::PhysMem,
    addr: ow_simhw::PhysAddr,
    len: u64,
) -> Result<u32, ow_simhw::MemError> {
    let mut h = Crc32::new();
    h.update_range(phys, addr, len)?;
    Ok(h.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ow_simhw::{SimRng, PAGE_SIZE};

    /// The byte-at-a-time loop the sliced update replaced, kept as the
    /// reference every sliced path is checked against.
    fn reference(data: &[u8]) -> u32 {
        let mut c = 0xffff_ffffu32;
        for &b in data {
            c = TABLES[0][((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
        }
        c ^ 0xffff_ffff
    }

    fn seeded(len: usize, seed: u64) -> Vec<u8> {
        let mut rng = SimRng::seed_from_u64(seed);
        (0..len).map(|_| rng.next_u64() as u8).collect()
    }

    #[test]
    fn crc32_matches_reference_at_every_length() {
        let data = seeded(512, 0xc4c3_2001);
        for len in 0..=data.len() {
            assert_eq!(crc32(&data[..len]), reference(&data[..len]), "len {len}");
        }
    }

    #[test]
    fn update_matches_reference_split_at_every_offset() {
        let data = seeded(512, 0xc4c3_2002);
        for len in 0..=data.len() {
            let want = reference(&data[..len]);
            for split in 0..=len {
                let mut h = Crc32::new();
                h.update(&data[..split]);
                h.update(&data[split..len]);
                assert_eq!(h.finish(), want, "len {len} split {split}");
            }
        }
    }

    #[test]
    fn crc32_range_matches_reference_at_every_start_and_length() {
        let data = seeded(2 * PAGE_SIZE, 0xc4c3_2003);
        let mut phys = ow_simhw::PhysMem::new(2);
        phys.write(0, &data).unwrap();
        // Starts 0-7 cover every word alignment; the last start puts a
        // page boundary inside every range longer than 100 bytes.
        for start in (0..8).chain([PAGE_SIZE - 100]) {
            for len in 0..=512 {
                assert_eq!(
                    crc32_range(&phys, start as u64, len as u64).unwrap(),
                    reference(&data[start..start + len]),
                    "start {start} len {len}"
                );
            }
        }
    }

    #[cfg(feature = "heavy-tests")]
    #[test]
    fn sliced_paths_match_reference_up_to_64_kib() {
        let mut rng = SimRng::seed_from_u64(0xc4c3_2004);
        for _ in 0..200 {
            let len = rng.gen_range(0..=64 * 1024usize);
            let data = seeded(len, rng.next_u64());
            let want = reference(&data);
            assert_eq!(crc32(&data), want, "len {len}");
            let split = rng.gen_range(0..=len);
            let mut h = Crc32::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finish(), want, "len {len} split {split}");
        }
    }

    #[test]
    fn crc32_range_matches_crc32() {
        let mut phys = ow_simhw::PhysMem::new(2);
        let data: Vec<u8> = (0..600u32).map(|i| (i * 7) as u8).collect();
        phys.write(100, &data).unwrap();
        assert_eq!(crc32_range(&phys, 100, 600).unwrap(), crc32(&data));
        assert_eq!(crc32_range(&phys, 100, 0).unwrap(), crc32(&[]));
    }

    #[test]
    fn streaming_matches_one_shot() {
        let data: Vec<u8> = (0..300u32).map(|i| (i * 13) as u8).collect();
        let mut h = Crc32::new();
        h.update(&data[..7]);
        h.update(&data[7..200]);
        h.update(&data[200..]);
        assert_eq!(h.finish(), crc32(&data));

        // Discontiguous extents through simulated memory.
        let mut phys = ow_simhw::PhysMem::new(2);
        phys.write(64, &data[..100]).unwrap();
        phys.write(4096, &data[100..]).unwrap();
        let mut h = Crc32::new();
        h.update_range(&phys, 64, 100).unwrap();
        h.update_range(&phys, 4096, 200).unwrap();
        assert_eq!(h.finish(), crc32(&data));
    }

    #[test]
    fn known_vector() {
        // The classic check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(reference(b"123456789"), 0xcbf4_3926);
    }

    #[test]
    fn detects_single_bit_flip() {
        let mut data = *b"otherworld trace record";
        let clean = crc32(&data);
        data[5] ^= 0x10;
        assert_ne!(clean, crc32(&data));
    }
}
