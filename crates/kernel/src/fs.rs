//! A miniature on-disk filesystem.
//!
//! The evaluation needs real persistence: crash procedures save application
//! state to files that must survive the microreboot, the crash kernel
//! re-mounts the same filesystem at the same mount point (§3.2), reopens
//! files by path, and flushes dirty page-cache buffers (§3.3). This module
//! provides the disk format and block-level operations; the open-file layer
//! and page cache sit above it in [`crate::Kernel`].
//!
//! On-disk layout (4 KiB blocks):
//!
//! ```text
//! block 0              superblock
//! block 1..1+IB        inode table (128-byte inodes, path stored inline)
//! block 1+IB..1+IB+BB  block-allocation bitmap (1 byte per block)
//! block data_start..   file data
//! ```
//!
//! Files use 8 direct block pointers plus one indirect block (1024 more),
//! for a 4 MiB maximum file size — enough for every workload at simulator
//! scale.

use crate::error::KernelError;
use ow_simhw::{machine::Machine, DevId};

/// Filesystem block size (equals the page size).
pub const BLOCK_SIZE: usize = 4096;

/// Superblock magic ("OWFS").
pub const FS_MAGIC: u32 = 0x5346_574f;

/// Inode-in-use marker ("INOD").
const INODE_USED: u32 = 0x444f_4e49;

/// Bytes per on-disk inode.
const INODE_SIZE: usize = 128;

/// Direct block pointers per inode.
const NDIRECT: usize = 8;

/// Pointers in the indirect block.
const NINDIRECT: usize = BLOCK_SIZE / 4;

/// Maximum file size in blocks.
pub const MAX_FILE_BLOCKS: usize = NDIRECT + NINDIRECT;

/// Maximum stored path length (matches [`crate::layout::PATH_LEN`]).
const FPATH_LEN: usize = 64;

/// Parsed superblock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SuperBlock {
    /// Total blocks on the device.
    pub nblocks: u32,
    /// Number of inodes.
    pub ninodes: u32,
    /// First block of the inode table.
    pub itable_start: u32,
    /// Blocks in the inode table.
    pub itable_blocks: u32,
    /// First block of the allocation bitmap.
    pub bitmap_start: u32,
    /// Blocks in the bitmap.
    pub bitmap_blocks: u32,
    /// First data block.
    pub data_start: u32,
}

/// An in-memory inode image.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Inode {
    used: bool,
    size: u64,
    path: String,
    direct: [u32; NDIRECT],
    indirect: u32,
}

impl Inode {
    fn empty() -> Self {
        Inode {
            used: false,
            size: 0,
            path: String::new(),
            direct: [0; NDIRECT],
            indirect: 0,
        }
    }

    fn to_bytes(&self) -> [u8; INODE_SIZE] {
        let mut b = [0u8; INODE_SIZE];
        b[0..4].copy_from_slice(&(if self.used { INODE_USED } else { 0 }).to_le_bytes());
        b[4..12].copy_from_slice(&self.size.to_le_bytes());
        let p = self.path.as_bytes();
        let n = p.len().min(FPATH_LEN - 1);
        b[12..12 + n].copy_from_slice(&p[..n]);
        for (i, d) in self.direct.iter().enumerate() {
            let off = 12 + FPATH_LEN + i * 4;
            b[off..off + 4].copy_from_slice(&d.to_le_bytes());
        }
        let off = 12 + FPATH_LEN + NDIRECT * 4;
        b[off..off + 4].copy_from_slice(&self.indirect.to_le_bytes());
        b
    }

    fn from_bytes(b: &[u8]) -> Self {
        let used = le_u32(b, 0) == INODE_USED;
        let size = le_u64(b, 4);
        let name = b.get(12..12 + FPATH_LEN).unwrap_or(&[]);
        let pend = name.iter().position(|&c| c == 0).unwrap_or(name.len());
        let path = String::from_utf8_lossy(name.get(..pend).unwrap_or(&[])).into_owned();
        let mut direct = [0u32; NDIRECT];
        for (i, d) in direct.iter_mut().enumerate() {
            *d = le_u32(b, 12 + FPATH_LEN + i * 4);
        }
        let indirect = le_u32(b, 12 + FPATH_LEN + NDIRECT * 4);
        Inode {
            used,
            size,
            path,
            direct,
            indirect,
        }
    }
}

/// Little-endian `u32` at `off`, zero-padding past the end of `b`. On-disk
/// metadata is decoded on the resurrection path too, where a truncated or
/// corrupted buffer must decode to a value validation rejects, not panic.
fn le_u32(b: &[u8], off: usize) -> u32 {
    let mut v = 0u32;
    let mut k = 4usize;
    while k > 0 {
        k -= 1;
        v = (v << 8) | u32::from(b.get(off + k).copied().unwrap_or(0));
    }
    v
}

/// Little-endian `u64` at `off`, zero-padding past the end of `b`.
fn le_u64(b: &[u8], off: usize) -> u64 {
    let mut v = 0u64;
    let mut k = 8usize;
    while k > 0 {
        k -= 1;
        v = (v << 8) | u64::from(b.get(off + k).copied().unwrap_or(0));
    }
    v
}

/// A mounted filesystem: a host-side handle; all state is on the device.
#[derive(Debug, Clone)]
pub struct Fs {
    /// Device the filesystem lives on.
    pub dev: DevId,
    sb: SuperBlock,
}

impl Fs {
    /// Formats the device with `ninodes` inodes and mounts it.
    pub fn format(m: &mut Machine, dev: DevId, ninodes: u32) -> Result<Fs, KernelError> {
        let dev_size = {
            let d = m.device(dev);
            d.size()
        };
        let nblocks = (dev_size as usize / BLOCK_SIZE) as u32;
        let itable_blocks = (ninodes as usize * INODE_SIZE).div_ceil(BLOCK_SIZE) as u32;
        let bitmap_blocks = (nblocks as usize).div_ceil(BLOCK_SIZE) as u32;
        let sb = SuperBlock {
            nblocks,
            ninodes,
            itable_start: 1,
            itable_blocks,
            bitmap_start: 1 + itable_blocks,
            bitmap_blocks,
            data_start: 1 + itable_blocks + bitmap_blocks,
        };
        if sb.data_start >= nblocks {
            return Err(KernelError::Inval("device too small to format"));
        }
        // Superblock.
        let mut blk = [0u8; BLOCK_SIZE];
        blk[0..4].copy_from_slice(&FS_MAGIC.to_le_bytes());
        for (i, v) in [
            sb.nblocks,
            sb.ninodes,
            sb.itable_start,
            sb.itable_blocks,
            sb.bitmap_start,
            sb.bitmap_blocks,
            sb.data_start,
        ]
        .iter()
        .enumerate()
        {
            blk[4 + i * 4..8 + i * 4].copy_from_slice(&v.to_le_bytes());
        }
        m.dev_write(dev, 0, &blk)?;
        // Zero the inode table and bitmap.
        let zero = [0u8; BLOCK_SIZE];
        for b in sb.itable_start..sb.data_start {
            m.dev_write(dev, b as u64 * BLOCK_SIZE as u64, &zero)?;
        }
        Ok(Fs { dev, sb })
    }

    /// Mounts an already-formatted device.
    pub fn mount(m: &mut Machine, dev: DevId) -> Result<Fs, KernelError> {
        let mut blk = [0u8; 32];
        m.dev_read(dev, 0, &mut blk)?;
        if le_u32(&blk, 0) != FS_MAGIC {
            return Err(KernelError::Corrupt("superblock magic".into()));
        }
        let g = |i: usize| le_u32(&blk, 4 + i * 4);
        let sb = SuperBlock {
            nblocks: g(0),
            ninodes: g(1),
            itable_start: g(2),
            itable_blocks: g(3),
            bitmap_start: g(4),
            bitmap_blocks: g(5),
            data_start: g(6),
        };
        if sb.data_start >= sb.nblocks {
            return Err(KernelError::Corrupt("superblock geometry".into()));
        }
        Ok(Fs { dev, sb })
    }

    /// The parsed superblock.
    pub fn superblock(&self) -> &SuperBlock {
        &self.sb
    }

    fn read_inode(&self, m: &mut Machine, ino: u32) -> Result<Inode, KernelError> {
        if ino >= self.sb.ninodes {
            return Err(KernelError::Inval("inode id out of range"));
        }
        let mut b = [0u8; INODE_SIZE];
        let off = self.sb.itable_start as u64 * BLOCK_SIZE as u64 + ino as u64 * INODE_SIZE as u64;
        m.dev_read(self.dev, off, &mut b)?;
        Ok(Inode::from_bytes(&b))
    }

    fn write_inode(&self, m: &mut Machine, ino: u32, inode: &Inode) -> Result<(), KernelError> {
        let off = self.sb.itable_start as u64 * BLOCK_SIZE as u64 + ino as u64 * INODE_SIZE as u64;
        m.dev_write(self.dev, off, &inode.to_bytes())?;
        Ok(())
    }

    fn alloc_block(&self, m: &mut Machine) -> Result<u32, KernelError> {
        for bb in 0..self.sb.bitmap_blocks {
            let mut blk = [0u8; BLOCK_SIZE];
            let off = (self.sb.bitmap_start + bb) as u64 * BLOCK_SIZE as u64;
            m.dev_read(self.dev, off, &mut blk)?;
            for (i, byte) in blk.iter_mut().enumerate() {
                let bno = bb * BLOCK_SIZE as u32 + i as u32;
                if bno < self.sb.data_start {
                    continue;
                }
                if bno >= self.sb.nblocks {
                    break;
                }
                if *byte == 0 {
                    *byte = 1;
                    m.dev_write(self.dev, off, &blk)?;
                    return Ok(bno);
                }
            }
        }
        Err(KernelError::NoSpace)
    }

    fn free_block(&self, m: &mut Machine, bno: u32) -> Result<(), KernelError> {
        let bb = bno / BLOCK_SIZE as u32;
        let idx = (bno % BLOCK_SIZE as u32) as u64;
        let off = (self.sb.bitmap_start + bb) as u64 * BLOCK_SIZE as u64 + idx;
        m.dev_write(self.dev, off, &[0u8])?;
        Ok(())
    }

    /// Finds the inode id for `path`.
    pub fn lookup(&self, m: &mut Machine, path: &str) -> Result<Option<u32>, KernelError> {
        for ino in 0..self.sb.ninodes {
            let inode = self.read_inode(m, ino)?;
            if inode.used && inode.path == path {
                return Ok(Some(ino));
            }
        }
        Ok(None)
    }

    /// Creates an empty file, failing if it already exists.
    pub fn create(&self, m: &mut Machine, path: &str) -> Result<u32, KernelError> {
        if path.is_empty() || path.len() >= FPATH_LEN {
            return Err(KernelError::Inval("path length"));
        }
        if self.lookup(m, path)?.is_some() {
            return Err(KernelError::Exists(path.into()));
        }
        for ino in 0..self.sb.ninodes {
            let inode = self.read_inode(m, ino)?;
            if !inode.used {
                let mut fresh = Inode::empty();
                fresh.used = true;
                fresh.path = path.to_string();
                self.write_inode(m, ino, &fresh)?;
                return Ok(ino);
            }
        }
        Err(KernelError::NoSpace)
    }

    /// Removes a file and frees its blocks.
    pub fn unlink(&self, m: &mut Machine, path: &str) -> Result<(), KernelError> {
        let ino = self
            .lookup(m, path)?
            .ok_or_else(|| KernelError::NoEnt(path.into()))?;
        self.truncate(m, ino)?;
        self.write_inode(m, ino, &Inode::empty())?;
        Ok(())
    }

    /// File size in bytes.
    pub fn size_of(&self, m: &mut Machine, ino: u32) -> Result<u64, KernelError> {
        let inode = self.read_inode(m, ino)?;
        if !inode.used {
            return Err(KernelError::Inval("stale inode"));
        }
        Ok(inode.size)
    }

    /// Resolves the data block for logical block `lbn`, allocating when
    /// `alloc` is set.
    fn bmap(
        &self,
        m: &mut Machine,
        inode: &mut Inode,
        lbn: usize,
        alloc: bool,
    ) -> Result<Option<u32>, KernelError> {
        if lbn < NDIRECT {
            if inode.direct[lbn] == 0 {
                if !alloc {
                    return Ok(None);
                }
                inode.direct[lbn] = self.alloc_block(m)?;
            }
            return Ok(Some(inode.direct[lbn]));
        }
        let ind = lbn - NDIRECT;
        if ind >= NINDIRECT {
            return Err(KernelError::Inval("file too large"));
        }
        if inode.indirect == 0 {
            if !alloc {
                return Ok(None);
            }
            let b = self.alloc_block(m)?;
            let zero = [0u8; BLOCK_SIZE];
            m.dev_write(self.dev, b as u64 * BLOCK_SIZE as u64, &zero)?;
            inode.indirect = b;
        }
        let slot = inode.indirect as u64 * BLOCK_SIZE as u64 + ind as u64 * 4;
        let mut e = [0u8; 4];
        m.dev_read(self.dev, slot, &mut e)?;
        let mut bno = u32::from_le_bytes(e);
        if bno == 0 {
            if !alloc {
                return Ok(None);
            }
            bno = self.alloc_block(m)?;
            m.dev_write(self.dev, slot, &bno.to_le_bytes())?;
        }
        Ok(Some(bno))
    }

    /// Reads up to `buf.len()` bytes at `offset`; returns bytes read
    /// (short at EOF, zero past it).
    pub fn read_at(
        &self,
        m: &mut Machine,
        ino: u32,
        offset: u64,
        buf: &mut [u8],
    ) -> Result<usize, KernelError> {
        let mut inode = self.read_inode(m, ino)?;
        if !inode.used {
            return Err(KernelError::Inval("stale inode"));
        }
        if offset >= inode.size {
            return Ok(0);
        }
        let want = buf.len().min((inode.size - offset) as usize);
        let mut done = 0usize;
        while done < want {
            let pos = offset + done as u64;
            let lbn = (pos / BLOCK_SIZE as u64) as usize;
            let boff = (pos % BLOCK_SIZE as u64) as usize;
            let chunk = (BLOCK_SIZE - boff).min(want - done);
            match self.bmap(m, &mut inode, lbn, false)? {
                Some(bno) => {
                    m.dev_read(
                        self.dev,
                        bno as u64 * BLOCK_SIZE as u64 + boff as u64,
                        &mut buf[done..done + chunk],
                    )?;
                }
                None => {
                    // Hole: reads as zeros.
                    buf[done..done + chunk].fill(0);
                }
            }
            done += chunk;
        }
        Ok(want)
    }

    /// Writes `data` at `offset`, extending the file as needed.
    pub fn write_at(
        &self,
        m: &mut Machine,
        ino: u32,
        offset: u64,
        data: &[u8],
    ) -> Result<(), KernelError> {
        let mut inode = self.read_inode(m, ino)?;
        if !inode.used {
            return Err(KernelError::Inval("stale inode"));
        }
        let mut done = 0usize;
        while done < data.len() {
            let pos = offset + done as u64;
            let lbn = (pos / BLOCK_SIZE as u64) as usize;
            let boff = (pos % BLOCK_SIZE as u64) as usize;
            let chunk = (BLOCK_SIZE - boff).min(data.len() - done);
            let bno = self
                .bmap(m, &mut inode, lbn, true)?
                .ok_or_else(|| KernelError::Corrupt("bmap with alloc returned no block".into()))?;
            m.dev_write(
                self.dev,
                bno as u64 * BLOCK_SIZE as u64 + boff as u64,
                &data[done..done + chunk],
            )?;
            done += chunk;
        }
        let end = offset + data.len() as u64;
        if end > inode.size {
            inode.size = end;
        }
        self.write_inode(m, ino, &inode)?;
        Ok(())
    }

    /// Truncates a file to zero length, freeing its blocks.
    pub fn truncate(&self, m: &mut Machine, ino: u32) -> Result<(), KernelError> {
        let mut inode = self.read_inode(m, ino)?;
        if !inode.used {
            return Err(KernelError::Inval("stale inode"));
        }
        for d in inode.direct {
            if d != 0 {
                self.free_block(m, d)?;
            }
        }
        if inode.indirect != 0 {
            let mut blk = [0u8; BLOCK_SIZE];
            m.dev_read(
                self.dev,
                inode.indirect as u64 * BLOCK_SIZE as u64,
                &mut blk,
            )?;
            for i in 0..NINDIRECT {
                let bno = u32::from_le_bytes(blk[i * 4..i * 4 + 4].try_into().unwrap());
                if bno != 0 {
                    self.free_block(m, bno)?;
                }
            }
            self.free_block(m, inode.indirect)?;
        }
        inode.direct = [0; NDIRECT];
        inode.indirect = 0;
        inode.size = 0;
        self.write_inode(m, ino, &inode)?;
        Ok(())
    }

    /// Lists all files as `(path, size)` pairs.
    pub fn list(&self, m: &mut Machine) -> Result<Vec<(String, u64)>, KernelError> {
        let mut out = Vec::new();
        for ino in 0..self.sb.ninodes {
            let inode = self.read_inode(m, ino)?;
            if inode.used {
                out.push((inode.path, inode.size));
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ow_simhw::machine::MachineConfig;

    fn setup() -> (Machine, Fs) {
        let mut m = Machine::new(MachineConfig {
            ram_frames: 64,
            cpus: 1,
            tlb_entries: 16,
            tlb_tagged: true,
            cost: ow_simhw::CostModel::zero_io(),
        });
        let dev = m.add_device("sda", 2 * 1024 * 1024);
        let fs = Fs::format(&mut m, dev, 64).unwrap();
        (m, fs)
    }

    #[test]
    fn create_lookup_unlink() {
        let (mut m, fs) = setup();
        let ino = fs.create(&mut m, "/etc/motd").unwrap();
        assert_eq!(fs.lookup(&mut m, "/etc/motd").unwrap(), Some(ino));
        assert!(matches!(
            fs.create(&mut m, "/etc/motd"),
            Err(KernelError::Exists(_))
        ));
        fs.unlink(&mut m, "/etc/motd").unwrap();
        assert_eq!(fs.lookup(&mut m, "/etc/motd").unwrap(), None);
    }

    #[test]
    fn write_read_round_trip() {
        let (mut m, fs) = setup();
        let ino = fs.create(&mut m, "/f").unwrap();
        fs.write_at(&mut m, ino, 0, b"hello world").unwrap();
        let mut buf = [0u8; 11];
        assert_eq!(fs.read_at(&mut m, ino, 0, &mut buf).unwrap(), 11);
        assert_eq!(&buf, b"hello world");
        assert_eq!(fs.size_of(&mut m, ino).unwrap(), 11);
    }

    #[test]
    fn cross_block_and_indirect_writes() {
        let (mut m, fs) = setup();
        let ino = fs.create(&mut m, "/big").unwrap();
        // Spans direct into indirect range: 12 blocks of patterned data.
        let data: Vec<u8> = (0..12 * BLOCK_SIZE).map(|i| (i % 251) as u8).collect();
        fs.write_at(&mut m, ino, 100, &data).unwrap();
        let mut back = vec![0u8; data.len()];
        assert_eq!(fs.read_at(&mut m, ino, 100, &mut back).unwrap(), data.len());
        assert_eq!(back, data);
    }

    #[test]
    fn holes_read_as_zeros() {
        let (mut m, fs) = setup();
        let ino = fs.create(&mut m, "/sparse").unwrap();
        fs.write_at(&mut m, ino, 3 * BLOCK_SIZE as u64, b"end")
            .unwrap();
        let mut buf = [9u8; 16];
        assert_eq!(fs.read_at(&mut m, ino, 0, &mut buf).unwrap(), 16);
        assert_eq!(buf, [0u8; 16]);
    }

    #[test]
    fn read_past_eof_is_short() {
        let (mut m, fs) = setup();
        let ino = fs.create(&mut m, "/short").unwrap();
        fs.write_at(&mut m, ino, 0, b"abc").unwrap();
        let mut buf = [0u8; 10];
        assert_eq!(fs.read_at(&mut m, ino, 0, &mut buf).unwrap(), 3);
        assert_eq!(fs.read_at(&mut m, ino, 5, &mut buf).unwrap(), 0);
    }

    #[test]
    fn survives_remount() {
        let (mut m, fs) = setup();
        let ino = fs.create(&mut m, "/persist").unwrap();
        fs.write_at(&mut m, ino, 0, b"durable").unwrap();
        let dev = fs.dev;
        // Discard the handle; all filesystem state lives on the device.
        let _ = fs;
        let fs2 = Fs::mount(&mut m, dev).unwrap();
        let ino2 = fs2.lookup(&mut m, "/persist").unwrap().unwrap();
        let mut buf = [0u8; 7];
        fs2.read_at(&mut m, ino2, 0, &mut buf).unwrap();
        assert_eq!(&buf, b"durable");
    }

    #[test]
    fn truncate_frees_blocks_for_reuse() {
        let (mut m, fs) = setup();
        let ino = fs.create(&mut m, "/t").unwrap();
        let data = vec![1u8; 6 * BLOCK_SIZE];
        fs.write_at(&mut m, ino, 0, &data).unwrap();
        fs.truncate(&mut m, ino).unwrap();
        assert_eq!(fs.size_of(&mut m, ino).unwrap(), 0);
        // The freed blocks must be allocatable again: fill a second file of
        // the same size.
        let ino2 = fs.create(&mut m, "/t2").unwrap();
        fs.write_at(&mut m, ino2, 0, &data).unwrap();
    }

    #[test]
    fn list_enumerates_files() {
        let (mut m, fs) = setup();
        fs.create(&mut m, "/a").unwrap();
        let ino = fs.create(&mut m, "/b").unwrap();
        fs.write_at(&mut m, ino, 0, b"xy").unwrap();
        let mut l = fs.list(&mut m).unwrap();
        l.sort();
        assert_eq!(l, vec![("/a".to_string(), 0), ("/b".to_string(), 2)]);
    }

    #[test]
    fn mount_rejects_unformatted_device() {
        let mut m = Machine::new(MachineConfig {
            ram_frames: 16,
            cpus: 1,
            tlb_entries: 16,
            tlb_tagged: true,
            cost: ow_simhw::CostModel::zero_io(),
        });
        let dev = m.add_device("raw", 1024 * 1024);
        assert!(Fs::mount(&mut m, dev).is_err());
    }
}
