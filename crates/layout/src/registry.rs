//! The layout registry: every resurrection-relevant structure, with its
//! stable magic (or CRC framing), encoded size and layout version.
//!
//! The registry is the single source of truth other crates derive from:
//! the fault injector sizes and classifies wild-write victims with it, the
//! Table 4 byte accounting cross-checks against it, and the golden-encoding
//! test freezes every entry's byte layout.

use crate::record::Record;
use crate::records::{
    CrashImageHeader, EpochCheckpoint, FileRecord, FileTable, HandoffBlock, KernelHeader,
    PageCacheNode, PipeDesc, ProcDesc, ShmDesc, SigTable, SockDesc, SwapDesc, TermDesc, VmaDesc,
    WarmSeal,
};
use crate::trace::{hdr_off, RECORD_SIZE, TRACE_MAGIC};
use ow_simhw::{PhysAddr, PhysMem};

/// The layout generation of this build: the maximum [`Record::VERSION`]
/// over every registered structure. Stamped into the [`HandoffBlock`] at
/// boot; a crash kernel that finds a different generation refuses the
/// handoff instead of misparsing the dead kernel's structures.
pub const LAYOUT_VERSION: u32 = 2;

/// How a registered structure is guarded against corruption.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Guard {
    /// A 4-byte magic prefix, validated on every read.
    Magic(u32),
    /// CRC-32 framing over the whole record (no magic; used by the trace
    /// ring's record slots).
    Crc32,
}

/// One registry entry: a structure the crash kernel must be able to parse
/// out of raw memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayoutEntry {
    /// Structure name (matches [`Record::NAME`]).
    pub name: &'static str,
    /// Corruption guard.
    pub guard: Guard,
    /// Encoded size in bytes.
    pub size: u64,
    /// Layout version of this structure's encoding.
    pub version: u32,
}

macro_rules! reg {
    ($t:ty) => {
        LayoutEntry {
            name: <$t as Record>::NAME,
            guard: Guard::Magic(<$t as Record>::MAGIC),
            size: <$t as Record>::SIZE,
            version: <$t as Record>::VERSION,
        }
    };
}

/// Every resurrection-relevant structure, in handoff-walk order.
pub static REGISTRY: &[LayoutEntry] = &[
    reg!(HandoffBlock),
    reg!(CrashImageHeader),
    reg!(KernelHeader),
    reg!(ProcDesc),
    reg!(VmaDesc),
    reg!(SigTable),
    reg!(FileTable),
    reg!(FileRecord),
    reg!(PageCacheNode),
    reg!(SwapDesc),
    reg!(TermDesc),
    reg!(ShmDesc),
    reg!(PipeDesc),
    reg!(SockDesc),
    reg!(WarmSeal),
    reg!(EpochCheckpoint),
    LayoutEntry {
        name: "TraceHeader",
        guard: Guard::Magic(TRACE_MAGIC),
        size: hdr_off::END,
        version: 1,
    },
    LayoutEntry {
        name: "TraceSlot",
        guard: Guard::Crc32,
        size: RECORD_SIZE,
        version: 1,
    },
];

/// Looks up a registered structure by name.
pub fn lookup(name: &str) -> Option<&'static LayoutEntry> {
    REGISTRY.iter().find(|e| e.name == name)
}

/// The encoded size of a registered structure; panics on an unknown name
/// so a typo cannot silently degrade a caller to a zero footprint.
pub fn footprint(name: &str) -> u64 {
    lookup(name)
        .unwrap_or_else(|| panic!("{name} is not in the layout registry"))
        .size
}

/// The largest registered footprint (bounds backwards victim scans).
pub fn max_footprint() -> u64 {
    REGISTRY.iter().map(|e| e.size).max().unwrap_or(0)
}

/// Classifies the structure a physical address lands in, by scanning for a
/// registered magic within [`max_footprint`] bytes below `addr` and
/// checking that `addr` falls inside that structure's extent.
///
/// Purely a memory read — no RNG, no side effects — so the fault
/// injector's campaign outcomes stay deterministic for a given seed.
/// CRC-framed entries (no magic) are not classifiable this way and are
/// never returned.
pub fn classify_victim(phys: &PhysMem, addr: PhysAddr) -> Option<&'static LayoutEntry> {
    let lowest = addr.saturating_sub(max_footprint().saturating_sub(1));
    // Scan from the hit address downwards: the nearest magic at or below
    // the hit whose extent covers it wins, mirroring how the crash kernel
    // would encounter the (now corrupted) structure.
    let mut start = addr;
    loop {
        if let Ok(word) = phys.read_u32(start) {
            for e in REGISTRY {
                if let Guard::Magic(m) = e.guard {
                    if word == m && addr < start + e.size {
                        return Some(e);
                    }
                }
            }
        }
        if start == lowest {
            return None;
        }
        start -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::records::HANDOFF_ADDR;

    #[test]
    fn registry_names_are_unique() {
        for (i, a) in REGISTRY.iter().enumerate() {
            for b in &REGISTRY[i + 1..] {
                assert_ne!(a.name, b.name);
            }
        }
    }

    #[test]
    fn magics_are_unique() {
        let magics: Vec<u32> = REGISTRY
            .iter()
            .filter_map(|e| match e.guard {
                Guard::Magic(m) => Some(m),
                Guard::Crc32 => None,
            })
            .collect();
        for (i, a) in magics.iter().enumerate() {
            for b in &magics[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn layout_version_is_max_record_version() {
        assert_eq!(
            REGISTRY.iter().map(|e| e.version).max().unwrap(),
            LAYOUT_VERSION
        );
    }

    #[test]
    fn classify_victim_finds_interior_hits() {
        let mut p = PhysMem::new(16);
        let b = HandoffBlock {
            layout_version: LAYOUT_VERSION,
            active_kernel_frame: 4,
            crash_base: 0,
            crash_frames: 0,
            crash_entry_ok: 0,
            idt_stamp: 0,
            save_area: 4096,
            generation: 0,
            trace_base: 0,
            trace_frames: 0,
        };
        b.write(&mut p).unwrap();
        let hit = classify_victim(&p, HANDOFF_ADDR + 9).expect("classified");
        assert_eq!(hit.name, "HandoffBlock");
        // One byte past the block's extent no longer classifies as it.
        assert!(classify_victim(&p, HANDOFF_ADDR + HandoffBlock::SIZE)
            .map(|e| e.name != "HandoffBlock")
            .unwrap_or(true));
    }

    #[test]
    fn footprint_matches_record_sizes() {
        assert_eq!(footprint("ProcDesc"), ProcDesc::SIZE);
        assert_eq!(footprint("TraceSlot"), RECORD_SIZE);
    }
}
