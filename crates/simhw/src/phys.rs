//! Simulated physical memory.
//!
//! Byte-addressable RAM in 4 KiB frames. Every kernel structure the crash
//! kernel later parses is serialized here, so corrupting a byte corrupts
//! the "real" system state, exactly as a wild write on hardware would.

use crate::store::PageStore;
use std::fmt;

/// Size of one physical page frame in bytes.
pub const PAGE_SIZE: usize = 4096;

/// A physical memory address (byte offset into RAM).
pub type PhysAddr = u64;

/// Errors raised by physical memory accesses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemError {
    /// Access extended past the end of installed physical memory.
    OutOfRange {
        /// Start address of the offending access.
        addr: PhysAddr,
        /// Length of the offending access in bytes.
        len: usize,
    },
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemError::OutOfRange { addr, len } => {
                write!(f, "physical access out of range: {addr:#x}+{len}")
            }
        }
    }
}

impl std::error::Error for MemError {}

/// Simulated physical RAM.
///
/// All multi-byte accessors use little-endian byte order, matching the x86
/// machines the paper evaluates on.
pub struct PhysMem {
    pages: PageStore,
}

impl PhysMem {
    /// Creates `frames` frames of zeroed physical memory.
    ///
    /// # Panics
    ///
    /// Panics if `frames == 0`.
    pub fn new(frames: usize) -> Self {
        // ow-lint: allow(recovery-panic) -- documented # Panics contract: machine-geometry precondition at construction
        assert!(frames > 0, "machine needs at least one frame of RAM");
        PhysMem {
            pages: PageStore::new(frames * PAGE_SIZE),
        }
    }

    /// Total installed memory in bytes.
    pub fn size(&self) -> u64 {
        self.pages.len() as u64
    }

    /// Number of installed physical frames.
    pub fn frames(&self) -> u64 {
        (self.pages.len() / PAGE_SIZE) as u64
    }

    /// Number of frames backed by host memory. A frame is backed from its
    /// first write on; one never written reads as zeros and costs the host
    /// nothing. This is the simulator's host footprint, not a simulated
    /// quantity.
    pub fn resident_frames(&self) -> u64 {
        self.pages.resident_pages() as u64
    }

    #[inline]
    fn check(&self, addr: PhysAddr, len: usize) -> Result<usize, MemError> {
        self.pages
            .check(addr, len)
            .ok_or(MemError::OutOfRange { addr, len })
    }

    /// Reads `buf.len()` bytes starting at `addr`.
    #[inline]
    pub fn read(&self, addr: PhysAddr, buf: &mut [u8]) -> Result<(), MemError> {
        let start = self.check(addr, buf.len())?;
        self.pages.copy_to(start, buf);
        Ok(())
    }

    /// Writes `buf` starting at `addr`.
    #[inline]
    pub fn write(&mut self, addr: PhysAddr, buf: &[u8]) -> Result<(), MemError> {
        let start = self.check(addr, buf.len())?;
        self.pages.copy_from(start, buf);
        Ok(())
    }

    /// Reads one byte.
    #[inline]
    pub fn read_u8(&self, addr: PhysAddr) -> Result<u8, MemError> {
        let mut b = [0u8; 1];
        self.read(addr, &mut b)?;
        Ok(b[0])
    }

    /// Writes one byte.
    #[inline]
    pub fn write_u8(&mut self, addr: PhysAddr, v: u8) -> Result<(), MemError> {
        self.write(addr, &[v])
    }

    /// Reads a little-endian `u16`.
    #[inline]
    pub fn read_u16(&self, addr: PhysAddr) -> Result<u16, MemError> {
        let mut b = [0u8; 2];
        self.read(addr, &mut b)?;
        Ok(u16::from_le_bytes(b))
    }

    /// Writes a little-endian `u16`.
    #[inline]
    pub fn write_u16(&mut self, addr: PhysAddr, v: u16) -> Result<(), MemError> {
        self.write(addr, &v.to_le_bytes())
    }

    /// Reads a little-endian `u32`.
    #[inline]
    pub fn read_u32(&self, addr: PhysAddr) -> Result<u32, MemError> {
        let mut b = [0u8; 4];
        self.read(addr, &mut b)?;
        Ok(u32::from_le_bytes(b))
    }

    /// Writes a little-endian `u32`.
    #[inline]
    pub fn write_u32(&mut self, addr: PhysAddr, v: u32) -> Result<(), MemError> {
        self.write(addr, &v.to_le_bytes())
    }

    /// Reads a little-endian `u64`.
    #[inline]
    pub fn read_u64(&self, addr: PhysAddr) -> Result<u64, MemError> {
        let mut b = [0u8; 8];
        self.read(addr, &mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    /// Writes a little-endian `u64`.
    #[inline]
    pub fn write_u64(&mut self, addr: PhysAddr, v: u64) -> Result<(), MemError> {
        self.write(addr, &v.to_le_bytes())
    }

    /// The index of the whole frame at page-aligned `addr`.
    fn frame_at(&self, addr: PhysAddr) -> Result<usize, MemError> {
        Ok(self.check(addr, PAGE_SIZE)? / PAGE_SIZE)
    }

    /// Zeroes an entire frame.
    pub fn zero_frame(&mut self, pfn: u64) -> Result<(), MemError> {
        let frame = self.frame_at(pfn * PAGE_SIZE as u64)?;
        self.pages.zero_page(frame);
        Ok(())
    }

    /// Copies a whole frame from `src_pfn` to `dst_pfn`.
    pub fn copy_frame(&mut self, src_pfn: u64, dst_pfn: u64) -> Result<(), MemError> {
        let src = self.frame_at(src_pfn * PAGE_SIZE as u64)?;
        let dst = self.frame_at(dst_pfn * PAGE_SIZE as u64)?;
        self.pages.copy_page(src, dst);
        Ok(())
    }

    /// Flips bits at `addr` with the given XOR mask — the fault injector's
    /// "wild write" primitive. Out-of-range corruption is silently dropped
    /// (a wild write beyond installed RAM faults on real hardware too).
    pub fn corrupt_u64(&mut self, addr: PhysAddr, xor_mask: u64) {
        if let Ok(v) = self.read_u64(addr) {
            let _ = self.write_u64(addr, v ^ xor_mask);
        }
    }
}

impl fmt::Debug for PhysMem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PhysMem")
            .field("frames", &self.frames())
            .field("bytes", &self.size())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_all_widths() {
        let mut m = PhysMem::new(2);
        m.write_u8(0, 0xab).unwrap();
        m.write_u16(8, 0xbeef).unwrap();
        m.write_u32(16, 0xdead_beef).unwrap();
        m.write_u64(24, 0x0123_4567_89ab_cdef).unwrap();
        assert_eq!(m.read_u8(0).unwrap(), 0xab);
        assert_eq!(m.read_u16(8).unwrap(), 0xbeef);
        assert_eq!(m.read_u32(16).unwrap(), 0xdead_beef);
        assert_eq!(m.read_u64(24).unwrap(), 0x0123_4567_89ab_cdef);
    }

    #[test]
    fn little_endian_layout() {
        let mut m = PhysMem::new(1);
        m.write_u32(0, 0x0102_0304).unwrap();
        assert_eq!(m.read_u8(0).unwrap(), 0x04);
        assert_eq!(m.read_u8(3).unwrap(), 0x01);
    }

    #[test]
    fn rejects_out_of_range() {
        let m = PhysMem::new(1);
        assert!(matches!(
            m.read_u64(PAGE_SIZE as u64 - 4),
            Err(MemError::OutOfRange { .. })
        ));
        assert!(m.read_u8(PAGE_SIZE as u64 - 1).is_ok());
    }

    #[test]
    fn rejects_wraparound() {
        let m = PhysMem::new(1);
        let mut buf = [0u8; 16];
        assert_eq!(
            m.read(u64::MAX, &mut buf),
            Err(MemError::OutOfRange {
                addr: u64::MAX,
                len: 16
            })
        );
    }

    #[test]
    fn frame_copy_and_zero() {
        let mut m = PhysMem::new(3);
        m.write_u64(PAGE_SIZE as u64, 42).unwrap();
        m.copy_frame(1, 2).unwrap();
        assert_eq!(m.read_u64(2 * PAGE_SIZE as u64).unwrap(), 42);
        m.zero_frame(2).unwrap();
        assert_eq!(m.read_u64(2 * PAGE_SIZE as u64).unwrap(), 0);
    }

    #[test]
    fn corruption_flips_bits() {
        let mut m = PhysMem::new(1);
        m.write_u64(0, 0xff).unwrap();
        m.corrupt_u64(0, 0x0f);
        assert_eq!(m.read_u64(0).unwrap(), 0xf0);
        // Out-of-range corruption is a no-op, not a panic.
        m.corrupt_u64(u64::MAX - 3, 0xff);
    }
}
