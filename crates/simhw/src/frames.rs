//! Bitmap physical frame allocator.
//!
//! Both kernels use one of these. The main kernel's allocator manages all of
//! RAM minus the crash-kernel reservation; the crash kernel starts with an
//! allocator confined to its reserved region and later *adopts* the rest of
//! RAM when it morphs into the main kernel (paper §3.6).

use crate::Pfn;

/// A bitmap allocator over a contiguous range of physical frames.
#[derive(Debug, Clone)]
pub struct FrameAllocator {
    /// First frame this allocator may hand out.
    base: Pfn,
    /// One bit per frame; `true` = allocated.
    used: Vec<bool>,
    /// Cursor for next-fit scanning.
    cursor: usize,
    /// Number of currently allocated frames.
    allocated: usize,
}

impl FrameAllocator {
    /// Creates an allocator managing frames `base .. base + count`.
    pub fn new(base: Pfn, count: usize) -> Self {
        FrameAllocator {
            base,
            used: vec![false; count],
            cursor: 0,
            allocated: 0,
        }
    }

    /// First frame managed by this allocator.
    pub fn base(&self) -> Pfn {
        self.base
    }

    /// Total number of frames managed.
    pub fn capacity(&self) -> usize {
        self.used.len()
    }

    /// Number of free frames remaining.
    pub fn free_frames(&self) -> usize {
        self.used.len() - self.allocated
    }

    /// Number of allocated frames.
    pub fn allocated_frames(&self) -> usize {
        self.allocated
    }

    /// Allocates one frame, or `None` if memory is exhausted.
    pub fn alloc(&mut self) -> Option<Pfn> {
        if self.allocated == self.used.len() {
            return None;
        }
        let n = self.used.len();
        for step in 0..n {
            let i = (self.cursor + step) % n;
            if !self.used[i] {
                self.used[i] = true;
                self.allocated += 1;
                self.cursor = (i + 1) % n;
                return Some(self.base + i as Pfn);
            }
        }
        None
    }

    /// Allocates `count` physically contiguous frames, returning the first.
    pub fn alloc_contiguous(&mut self, count: usize) -> Option<Pfn> {
        if count == 0 || count > self.used.len() {
            return None;
        }
        let mut run = 0usize;
        for i in 0..self.used.len() {
            if self.used[i] {
                run = 0;
            } else {
                run += 1;
                if run == count {
                    let start = i + 1 - count;
                    for b in &mut self.used[start..=i] {
                        *b = true;
                    }
                    self.allocated += count;
                    return Some(self.base + start as Pfn);
                }
            }
        }
        None
    }

    /// Frees a previously allocated frame.
    ///
    /// # Panics
    ///
    /// Panics if the frame is outside this allocator's range or already free —
    /// a double free in the kernel substrate is a bug, not a recoverable
    /// condition.
    pub fn free(&mut self, pfn: Pfn) {
        let i = self.index_of(pfn);
        // ow-lint: allow(recovery-panic) -- documented # Panics contract: double free in the substrate is a bug
        assert!(self.used[i], "double free of frame {pfn}");
        self.used[i] = false;
        self.allocated -= 1;
    }

    /// Marks a frame as allocated without going through `alloc` (used when
    /// adopting frames that are known to be in use, e.g. the old kernel's
    /// pages during morphing).
    pub fn mark_used(&mut self, pfn: Pfn) {
        let i = self.index_of(pfn);
        if !self.used[i] {
            self.used[i] = true;
            self.allocated += 1;
        }
    }

    /// Returns whether `pfn` is inside this allocator's range.
    pub fn contains(&self, pfn: Pfn) -> bool {
        pfn >= self.base && pfn < self.base + self.used.len() as Pfn
    }

    /// Returns whether `pfn` is currently allocated.
    pub fn is_used(&self, pfn: Pfn) -> bool {
        self.used[self.index_of(pfn)]
    }

    fn index_of(&self, pfn: Pfn) -> usize {
        // ow-lint: allow(recovery-panic) -- documented # Panics contract: out-of-range frame is a substrate bug
        assert!(
            self.contains(pfn),
            "frame {pfn} outside allocator range {}..{}",
            self.base,
            self.base + self.used.len() as Pfn
        );
        (pfn - self.base) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_cycle() {
        let mut a = FrameAllocator::new(10, 4);
        let f1 = a.alloc().unwrap();
        let f2 = a.alloc().unwrap();
        assert_ne!(f1, f2);
        assert!(a.contains(f1) && a.contains(f2));
        assert_eq!(a.free_frames(), 2);
        a.free(f1);
        assert_eq!(a.free_frames(), 3);
    }

    #[test]
    fn exhaustion_returns_none() {
        let mut a = FrameAllocator::new(0, 2);
        assert!(a.alloc().is_some());
        assert!(a.alloc().is_some());
        assert!(a.alloc().is_none());
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut a = FrameAllocator::new(0, 2);
        let f = a.alloc().unwrap();
        a.free(f);
        a.free(f);
    }

    #[test]
    fn contiguous_allocation() {
        let mut a = FrameAllocator::new(0, 8);
        let f0 = a.alloc().unwrap();
        let run = a.alloc_contiguous(4).unwrap();
        for i in 0..4 {
            assert!(a.is_used(run + i));
        }
        assert_ne!(run, f0);
        assert!(a.alloc_contiguous(5).is_none());
    }

    #[test]
    fn mark_used_is_idempotent() {
        let mut a = FrameAllocator::new(0, 4);
        a.mark_used(2);
        a.mark_used(2);
        assert_eq!(a.allocated_frames(), 1);
        assert!(a.is_used(2));
    }
}
