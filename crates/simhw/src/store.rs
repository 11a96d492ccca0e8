//! Sparse page-backed byte storage: the host representation behind
//! [`crate::PhysMem`] and [`crate::BlockDevice`].
//!
//! A simulated machine installs tens of MiB of RAM and disk, of which an
//! experiment touches a few hundred KiB. The store holds one optional 4 KiB
//! host page per simulated page: a page is allocated on its first write,
//! and a page never written reads as zeros. The representation is invisible
//! to the simulation — every access reads and writes exactly the bytes a
//! flat zero-initialised buffer would.

use crate::phys::PAGE_SIZE;

type Page = [u8; PAGE_SIZE];

/// A zero-initialised byte range of fixed length, backed page by page.
pub(crate) struct PageStore {
    len: usize,
    pages: Vec<Option<Box<Page>>>,
}

impl PageStore {
    /// Creates `len` bytes of zeros; no page is backed yet.
    pub(crate) fn new(len: usize) -> Self {
        let mut pages = Vec::new();
        pages.resize_with(len.div_ceil(PAGE_SIZE), || None);
        PageStore { len, pages }
    }

    /// Length in bytes.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Number of pages backed by host memory.
    pub(crate) fn resident_pages(&self) -> usize {
        self.pages.iter().filter(|p| p.is_some()).count()
    }

    /// The start of `len` bytes at `offset`, or `None` when any of them
    /// lies past the end (or the range wraps the address space).
    #[inline]
    pub(crate) fn check(&self, offset: u64, len: usize) -> Option<usize> {
        let start = offset as usize;
        let end = start.checked_add(len)?;
        (end <= self.len).then_some(start)
    }

    /// Copies `dst.len()` bytes starting at `start` into `dst`. The range
    /// must have passed [`PageStore::check`].
    #[inline]
    pub(crate) fn copy_to(&self, start: usize, dst: &mut [u8]) {
        let off = start % PAGE_SIZE;
        if !dst.is_empty() && off + dst.len() <= PAGE_SIZE {
            // One page: every typed access and most buffers.
            read_piece(&self.pages[start / PAGE_SIZE], off, dst);
        } else {
            self.copy_to_pages(start, dst);
        }
    }

    fn copy_to_pages(&self, start: usize, dst: &mut [u8]) {
        for (page, off, range) in pieces(start, dst.len()) {
            read_piece(&self.pages[page], off, &mut dst[range]);
        }
    }

    /// Copies `src` into the store starting at `start`. The range must
    /// have passed [`PageStore::check`].
    #[inline]
    pub(crate) fn copy_from(&mut self, start: usize, src: &[u8]) {
        let off = start % PAGE_SIZE;
        if !src.is_empty() && off + src.len() <= PAGE_SIZE {
            self.page_mut(start / PAGE_SIZE)[off..off + src.len()].copy_from_slice(src);
        } else {
            self.copy_from_pages(start, src);
        }
    }

    fn copy_from_pages(&mut self, start: usize, src: &[u8]) {
        for (page, off, range) in pieces(start, src.len()) {
            let n = range.len();
            self.page_mut(page)[off..off + n].copy_from_slice(&src[range]);
        }
    }

    /// Zeroes page `page`. An unbacked page stays unbacked.
    pub(crate) fn zero_page(&mut self, page: usize) {
        if let Some(p) = &mut self.pages[page] {
            p.fill(0);
        }
    }

    /// Copies page `src` over page `dst`. An unbacked source zeroes the
    /// destination without backing it.
    pub(crate) fn copy_page(&mut self, src: usize, dst: usize) {
        if src == dst {
            return;
        }
        // Taken out and put back, so the source can be read while the
        // destination is borrowed mutably.
        match self.pages[src].take() {
            Some(from) => {
                self.page_mut(dst).copy_from_slice(&from[..]);
                self.pages[src] = Some(from);
            }
            None => self.zero_page(dst),
        }
    }

    /// Page `page`, backing it with zeros on first use.
    #[inline]
    fn page_mut(&mut self, page: usize) -> &mut Page {
        self.pages[page].get_or_insert_with(zeroed_page)
    }
}

#[cold]
fn zeroed_page() -> Box<Page> {
    Box::new([0; PAGE_SIZE])
}

#[inline]
fn read_piece(page: &Option<Box<Page>>, off: usize, dst: &mut [u8]) {
    match page {
        Some(p) => dst.copy_from_slice(&p[off..off + dst.len()]),
        None => dst.fill(0),
    }
}

/// Splits the `len` bytes at `start` at page boundaries: for each piece,
/// its page, its offset in that page, and its range in the caller's buffer.
fn pieces(
    start: usize,
    len: usize,
) -> impl Iterator<Item = (usize, usize, std::ops::Range<usize>)> {
    let mut done = 0;
    std::iter::from_fn(move || {
        (done < len).then(|| {
            let at = start + done;
            let off = at % PAGE_SIZE;
            let n = (PAGE_SIZE - off).min(len - done);
            let piece = (at / PAGE_SIZE, off, done..done + n);
            done += n;
            piece
        })
    })
}
