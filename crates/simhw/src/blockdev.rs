//! Latency-modelled block devices.
//!
//! The system carries several devices: the root disk holding the filesystem,
//! and *two* swap partitions — one used by the main kernel and one by the
//! crash kernel, so resurrection never clobbers pages the main kernel had
//! swapped out (§3.2).

use crate::{clock::Clock, cost::CostModel, store::PageStore};
use std::fmt;

/// Block-device identifier.
pub type DevId = u32;

/// I/O statistics for a device.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DevStats {
    /// Number of read operations.
    pub reads: u64,
    /// Number of write operations.
    pub writes: u64,
    /// Total bytes transferred.
    pub bytes: u64,
}

/// Errors raised by block-device accesses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DevError {
    /// Access extended past the end of the device.
    OutOfRange {
        /// Requested offset.
        offset: u64,
        /// Requested length.
        len: usize,
    },
}

impl fmt::Display for DevError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DevError::OutOfRange { offset, len } => {
                write!(f, "device access out of range: {offset:#x}+{len}")
            }
        }
    }
}

impl std::error::Error for DevError {}

/// An in-memory block device with a seek + transfer latency model.
pub struct BlockDevice {
    /// Device id.
    pub id: DevId,
    /// Human-readable name (e.g. `"sda"`, `"swap-main"`, `"swap-crash"`).
    pub name: String,
    data: PageStore,
    stats: DevStats,
}

impl BlockDevice {
    /// Creates a zeroed device of `size` bytes.
    pub fn new(id: DevId, name: impl Into<String>, size: usize) -> Self {
        BlockDevice {
            id,
            name: name.into(),
            data: PageStore::new(size),
            stats: DevStats::default(),
        }
    }

    /// Device capacity in bytes.
    pub fn size(&self) -> u64 {
        self.data.len() as u64
    }

    /// I/O statistics so far.
    pub fn stats(&self) -> DevStats {
        self.stats
    }

    fn check(&self, offset: u64, len: usize) -> Result<usize, DevError> {
        self.data
            .check(offset, len)
            .ok_or(DevError::OutOfRange { offset, len })
    }

    /// Per-operation latency: small (metadata-sized) transfers are mostly
    /// absorbed by the drive's cache and request coalescing, so they pay a
    /// fraction of the full seek cost.
    fn op_cost(cost: &CostModel, len: usize) -> u64 {
        let base = if len <= 512 {
            cost.disk_op / 8
        } else {
            cost.disk_op
        };
        base + cost.disk_byte * len as u64
    }

    /// Reads `buf.len()` bytes at `offset`, charging I/O latency.
    pub fn read_at(
        &mut self,
        clock: &mut Clock,
        cost: &CostModel,
        offset: u64,
        buf: &mut [u8],
    ) -> Result<(), DevError> {
        let start = self.check(offset, buf.len())?;
        self.data.copy_to(start, buf);
        self.stats.reads += 1;
        self.stats.bytes += buf.len() as u64;
        clock.charge(Self::op_cost(cost, buf.len()));
        Ok(())
    }

    /// Writes `buf` at `offset`, charging I/O latency.
    pub fn write_at(
        &mut self,
        clock: &mut Clock,
        cost: &CostModel,
        offset: u64,
        buf: &[u8],
    ) -> Result<(), DevError> {
        let start = self.check(offset, buf.len())?;
        self.data.copy_from(start, buf);
        self.stats.writes += 1;
        self.stats.bytes += buf.len() as u64;
        clock.charge(Self::op_cost(cost, buf.len()));
        Ok(())
    }

    /// Reads without charging latency (used by integrity checks in tests).
    pub fn peek(&self, offset: u64, buf: &mut [u8]) -> Result<(), DevError> {
        let start = self.check(offset, buf.len())?;
        self.data.copy_to(start, buf);
        Ok(())
    }
}

impl fmt::Debug for BlockDevice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BlockDevice")
            .field("id", &self.id)
            .field("name", &self.name)
            .field("size", &self.size())
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_round_trip_charges_latency() {
        let mut dev = BlockDevice::new(0, "sda", 8192);
        let mut clock = Clock::new();
        let cost = CostModel::default();
        dev.write_at(&mut clock, &cost, 100, b"hello").unwrap();
        // Small (metadata-sized) ops pay the coalesced fraction of a seek.
        let after_write = clock.now();
        assert_eq!(after_write, cost.disk_op / 8 + cost.disk_byte * 5);
        let big = vec![7u8; 4096];
        let t0 = clock.now();
        dev.write_at(&mut clock, &cost, 4096, &big).unwrap();
        assert_eq!(clock.now() - t0, cost.disk_op + cost.disk_byte * 4096);
        let mut buf = [0u8; 5];
        dev.read_at(&mut clock, &cost, 100, &mut buf).unwrap();
        assert_eq!(&buf, b"hello");
        assert_eq!(dev.stats().reads, 1);
        assert_eq!(dev.stats().writes, 2);
        assert_eq!(dev.stats().bytes, 10 + 4096);
    }

    #[test]
    fn out_of_range_rejected() {
        let mut dev = BlockDevice::new(0, "sda", 16);
        let mut clock = Clock::new();
        let cost = CostModel::default();
        assert!(dev.write_at(&mut clock, &cost, 12, b"xxxxx").is_err());
        assert!(dev.write_at(&mut clock, &cost, u64::MAX, b"x").is_err());
    }

    #[test]
    fn peek_is_free() {
        let mut dev = BlockDevice::new(0, "sda", 64);
        let mut clock = Clock::new();
        let cost = CostModel::default();
        dev.write_at(&mut clock, &cost, 0, b"abc").unwrap();
        let t = clock.now();
        let mut buf = [0u8; 3];
        dev.peek(0, &mut buf).unwrap();
        assert_eq!(&buf, b"abc");
        assert_eq!(clock.now(), t);
    }
}
