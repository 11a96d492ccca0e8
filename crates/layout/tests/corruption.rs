//! Generic corruption property test.
//!
//! For every canonical sample and a few hundred deterministic random byte
//! flips each, the codec must uphold the crash kernel's §4 contract:
//!
//! * a flip inside the guarded prefix (the magic; for a checksummed
//!   [`ProcDesc`](ow_layout::ProcDesc), the whole covered extent) must make
//!   `read` fail — corruption there is always *detected*;
//! * any other flip either fails validation or decodes to a value whose
//!   re-encode/re-decode is a fixed point — a flipped byte may be visible
//!   in the decoded value, but it must never parse as a *different* valid
//!   value that then drifts further on the next round trip.

use ow_layout::samples::{samples, SAMPLE_FRAMES};
use ow_simhw::{PhysMem, SimRng};

/// Where each sample is encoded.
const ADDR: u64 = 0x8000;
/// Random flips tried per sample.
const FLIPS_PER_SAMPLE: u64 = 512;

#[test]
fn random_byte_flips_are_detected_or_reparse_stably() {
    let mut rng = SimRng::seed_from_u64(0x1a_0ff_5e7);
    for case in samples() {
        for trial in 0..FLIPS_PER_SAMPLE {
            let mut phys = PhysMem::new(SAMPLE_FRAMES);
            (case.write)(&mut phys, ADDR).expect("sample encodes");

            let mut pristine = vec![0u8; case.size as usize];
            phys.read(ADDR, &mut pristine).unwrap();

            // Flip one to three bytes somewhere in the encoded extent.
            let nflips = rng.gen_range(1..=3u32);
            for _ in 0..nflips {
                let off = rng.gen_range(0..case.size);
                let mut b = [0u8; 1];
                phys.read(ADDR + off, &mut b).unwrap();
                let x = (rng.gen_range(1..256u32)) as u8;
                phys.write(ADDR + off, &[b[0] ^ x]).unwrap();
            }

            // Two flips on one offset can cancel; what matters is the
            // lowest byte that actually changed.
            let mut now = vec![0u8; case.size as usize];
            phys.read(ADDR, &mut now).unwrap();
            let min_off = match pristine.iter().zip(&now).position(|(a, b)| a != b) {
                Some(off) => off as u64,
                None => continue, // flips cancelled out entirely
            };

            let result = (case.read_stable)(&phys, ADDR);
            if min_off < case.guarded_to {
                assert!(
                    result.is_err(),
                    "{}: flip at guarded offset {min_off} (trial {trial}) was not detected",
                    case.label
                );
            }
            // Outside the guarded prefix, either outcome is fine:
            // read_stable itself panics if a successful decode is not a
            // re-encode fixed point.
            let _ = result;
        }
    }
}

#[test]
fn torn_checkpoint_slot_is_exposed_and_the_other_slot_survives() {
    // The A/B discipline's contract: the payload is written first and the
    // header record last, as the commit — so a seal interrupted mid-write
    // leaves a committed header over a partially-written payload, and only
    // in the slot being written. Seal two consecutive epochs into their
    // parity slots, then tear arbitrary spans of the newest slot's
    // payload: the payload CRC must expose the torn slot, while the
    // previous epoch in the other slot stays bit-perfect eligible.
    // (Header-byte flips are covered by the generic guarded-prefix test
    // above via the EpochCheckpoint sample.)
    use ow_layout::{
        ckpt_slot_addr, ckptflags, crc::crc32, EpochCheckpoint, Record, CKPT_FRAMES, CKPT_SLOTS,
    };

    let trace_base = CKPT_FRAMES + 4; // region base at frame 4
    let mut rng = SimRng::seed_from_u64(0x70a2_ab51);
    for trial in 0..256u64 {
        let mut phys = PhysMem::new(SAMPLE_FRAMES);
        // Deterministic pseudo-payloads for epochs 1 and 2.
        let seal = |epoch: u64, phys: &mut PhysMem, rng: &mut SimRng| {
            let payload: Vec<u8> = (0..512).map(|_| rng.next_u64() as u8).collect();
            let addr = ckpt_slot_addr(trace_base, (epoch % CKPT_SLOTS as u64) as u32);
            phys.write(addr + EpochCheckpoint::SIZE, &payload).unwrap();
            let rec = EpochCheckpoint {
                valid: 1,
                generation: 1,
                epoch,
                seq: 100 + epoch,
                flags: ckptflags::AT_PANIC,
                nprocs: 1,
                attempted: 0,
                payload_len: payload.len() as u64,
                payload_crc: crc32(&payload),
            };
            rec.write(phys, addr).unwrap();
            addr
        };
        let old_addr = seal(1, &mut phys, &mut rng);
        let new_addr = seal(2, &mut phys, &mut rng);

        // Tear: flip a random non-empty span of the newest slot's payload.
        let extent = EpochCheckpoint::SIZE + 512;
        let start = rng.gen_range(EpochCheckpoint::SIZE..extent - 1);
        let len = rng.gen_range(1..=(extent - start).min(64));
        let mut span = vec![0u8; len as usize];
        phys.read(new_addr + start, &mut span).unwrap();
        for b in &mut span {
            *b = !*b;
        }
        phys.write(new_addr + start, &span).unwrap();

        // The torn slot must be rejected by the header codec or the
        // payload CRC gate — it can never present as a sealed epoch with
        // a matching payload.
        let accepted = match EpochCheckpoint::read(&phys, new_addr) {
            Err(_) => false,
            Ok((c, _)) => {
                let mut payload = vec![0u8; c.payload_len.min(extent) as usize];
                phys.read(new_addr + EpochCheckpoint::SIZE, &mut payload)
                    .unwrap();
                c.valid != 0 && c.epoch == 2 && crc32(&payload) == c.payload_crc
            }
        };
        assert!(!accepted, "trial {trial}: torn slot presented as intact");

        // The other slot is untouched: epoch 1 still validates end-to-end.
        let (old, _) = EpochCheckpoint::read(&phys, old_addr).expect("old slot intact");
        assert_eq!((old.valid, old.epoch, old.seq), (1, 1, 101));
        let mut payload = vec![0u8; old.payload_len as usize];
        phys.read(old_addr + EpochCheckpoint::SIZE, &mut payload)
            .unwrap();
        assert_eq!(crc32(&payload), old.payload_crc, "old payload damaged");
    }
}

#[test]
fn truncated_extent_never_reads() {
    // A record written flush against the end of RAM so its tail is cut off
    // must fail cleanly, not read out of bounds.
    for case in samples() {
        let end = SAMPLE_FRAMES as u64 * ow_simhw::PAGE_SIZE as u64;
        let addr = end - case.size + 1;
        let mut phys = PhysMem::new(SAMPLE_FRAMES);
        assert!(
            (case.write)(&mut phys, addr).is_err(),
            "{}: truncated write must fail",
            case.label
        );
        assert!(
            (case.read_stable)(&phys, addr).is_err(),
            "{}: truncated read must fail",
            case.label
        );
    }
}
