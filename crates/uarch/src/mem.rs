//! Flat little-endian data memory with fault detection.

use tei_isa::DATA_BASE;

/// A data-memory access fault (address out of the mapped range).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemFault {
    /// Faulting address.
    pub addr: u64,
    /// True for a store, false for a load.
    pub store: bool,
}

impl std::fmt::Display for MemFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} fault at {:#x}",
            if self.store { "store" } else { "load" },
            self.addr
        )
    }
}

impl std::error::Error for MemFault {}

/// Page granularity of the dirty-page tracking used by checkpoint
/// snapshots (see `tei_uarch::snapshot`).
pub const PAGE_BYTES: usize = 4096;

/// Zero-initialised bytes in a private anonymous mapping: the kernel
/// supplies a zero page on first touch, so a memory costs the pages a
/// program touches rather than a zero fill of its whole size. Elsewhere
/// than Linux on x86-64 or AArch64, whose `mmap` ABI and flag values
/// this module spells out, a zeroed `Vec`.
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod zeroed {
    use std::ffi::c_void;
    use std::ptr::NonNull;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            off: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> i32;
    }

    #[cfg(target_env = "gnu")]
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }

    /// Fix glibc's mmap and trim thresholds at their 128 KiB defaults,
    /// once per process. By default glibc raises both to the size of the
    /// largest mmapped block freed so far (up to 32 MiB), so a golden
    /// run's multi-MiB buffers push later blocks into per-thread arenas,
    /// which keep their pages after a free. Which arena serves which
    /// block depends on thread timing, so the peak resident set of a
    /// flow that runs golden runs, DTA and campaigns varied by 15 MiB
    /// from run to run. Fixed, every block over 128 KiB is a mapping of
    /// its own, returned on free. A process that builds no core (model
    /// development) keeps the dynamic thresholds, under which its DTA
    /// kernel scratch is reused instead of faulted in on every walk.
    fn fix_malloc_thresholds() {
        #[cfg(target_env = "gnu")]
        {
            static ONCE: std::sync::Once = std::sync::Once::new();
            ONCE.call_once(|| {
                const M_TRIM_THRESHOLD: i32 = -1;
                const M_MMAP_THRESHOLD: i32 = -3;
                const THRESHOLD: i32 = 128 * 1024;
                // SAFETY: mallopt takes no pointers; it sets two integer
                // allocator parameters under the main arena's lock, and
                // an allocation on another thread at most reads the old
                // value once more.
                unsafe {
                    mallopt(M_MMAP_THRESHOLD, THRESHOLD);
                    mallopt(M_TRIM_THRESHOLD, THRESHOLD);
                }
            });
        }
    }

    pub(super) struct ZeroedBytes {
        ptr: NonNull<u8>,
        len: usize,
    }

    pub(super) fn zeroed(len: usize) -> ZeroedBytes {
        const PROT_READ: i32 = 1;
        const PROT_WRITE: i32 = 2;
        const MAP_PRIVATE: i32 = 2;
        const MAP_ANONYMOUS: i32 = 0x20;
        const MAP_FAILED: isize = -1;
        fix_malloc_thresholds();
        if len == 0 {
            // mmap(2) refuses a zero length; an empty slice needs no pages.
            return ZeroedBytes {
                ptr: NonNull::dangling(),
                len,
            };
        }
        // SAFETY: an anonymous mapping at an address the kernel picks
        // aliases nothing; on success it is `len` zeroed, writable bytes.
        let raw = unsafe {
            mmap(
                std::ptr::null_mut(),
                len,
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS,
                -1,
                0,
            )
        };
        match NonNull::new(raw.cast::<u8>()) {
            Some(ptr) if raw as isize != MAP_FAILED => ZeroedBytes { ptr, len },
            _ => panic!(
                "cannot map {len} bytes of core memory: {}",
                std::io::Error::last_os_error()
            ),
        }
    }

    impl Drop for ZeroedBytes {
        fn drop(&mut self) {
            if self.len != 0 {
                // SAFETY: `ptr` and `len` are the mapping `zeroed` made,
                // which this value owns and nothing borrows any more.
                unsafe { munmap(self.ptr.as_ptr().cast(), self.len) };
            }
        }
    }

    impl std::ops::Deref for ZeroedBytes {
        type Target = [u8];
        fn deref(&self) -> &[u8] {
            // SAFETY: `ptr` is valid for `len` initialised bytes (a live
            // mapping, or dangling with `len == 0`) while `self` lives.
            unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
        }
    }

    impl std::ops::DerefMut for ZeroedBytes {
        fn deref_mut(&mut self) -> &mut [u8] {
            // SAFETY: as in `deref`; `&mut self` makes the borrow unique.
            unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
        }
    }

    // SAFETY: `ptr` is a mapping this value owns alone, as a `Vec<u8>`
    // owns its buffer, and `len` is a plain integer; moving the value to
    // another thread moves that ownership, and `munmap` may run anywhere.
    unsafe impl Send for ZeroedBytes {}
    // SAFETY: through `&ZeroedBytes` the fields are only read, and the
    // bytes only as `&[u8]`; writes need `&mut`.
    unsafe impl Sync for ZeroedBytes {}

    impl std::fmt::Debug for ZeroedBytes {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("ZeroedBytes")
                .field("len", &self.len)
                .finish()
        }
    }
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
mod zeroed {
    pub(super) type ZeroedBytes = Vec<u8>;

    pub(super) fn zeroed(len: usize) -> ZeroedBytes {
        vec![0u8; len]
    }
}

use zeroed::{zeroed, ZeroedBytes};

/// Byte-addressed little-endian memory mapped at [`DATA_BASE`].
///
/// Accesses below the base or beyond the end fault — the mechanism by which
/// corrupted pointer values turn into the paper's Crash outcomes.
///
/// Every store also marks its page in a dirty bitmap (pages of
/// [`PAGE_BYTES`]), so checkpoints can snapshot and restore only the pages
/// that diverged from the initial image instead of the whole array.
///
/// On x86-64 and AArch64 Linux the bytes live in a lazily-zeroed
/// anonymous mapping, so a memory costs the pages its program touches,
/// not its size. There is no `Clone`: a copy would touch every page.
#[derive(Debug)]
pub struct Memory {
    bytes: ZeroedBytes,
    /// Length of the data image loaded at the base; every byte past it
    /// starts zero.
    image_len: usize,
    /// One bit per [`PAGE_BYTES`] page, set on the first store since the
    /// initial image (or since the last snapshot restore).
    dirty: Vec<u64>,
}

impl Memory {
    /// Allocate `size` bytes and load `image` at the base address. Only
    /// the image is copied; the rest reads zero without being written.
    ///
    /// # Panics
    ///
    /// Panics if the image exceeds the memory size.
    pub fn with_image(size: usize, image: &[u8]) -> Self {
        assert!(image.len() <= size, "data image larger than memory");
        let mut bytes = zeroed(size);
        bytes[..image.len()].copy_from_slice(image);
        let pages = size.div_ceil(PAGE_BYTES);
        Memory {
            bytes,
            image_len: image.len(),
            dirty: vec![0u64; pages.div_ceil(64)],
        }
    }

    /// Memory size in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// True when sized zero (never in practice).
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    #[inline]
    fn offset(&self, addr: u64, width: usize, store: bool) -> Result<usize, MemFault> {
        let off = addr.wrapping_sub(DATA_BASE);
        if off
            .checked_add(width as u64)
            .is_none_or(|end| end > self.bytes.len() as u64)
        {
            return Err(MemFault { addr, store });
        }
        Ok(off as usize)
    }

    /// Load `W` bytes little-endian (`W` ≤ 8), zero-extended.
    ///
    /// # Errors
    ///
    /// Faults when the access leaves the mapped range.
    #[inline(always)]
    pub fn load_n<const W: usize>(&self, addr: u64) -> Result<u64, MemFault> {
        let fault = MemFault { addr, store: false };
        let off = usize::try_from(addr.wrapping_sub(DATA_BASE)).map_err(|_| fault)?;
        // One range check: an `off + W` that wraps makes the range empty.
        let src = self.bytes.get(off..off.wrapping_add(W)).ok_or(fault)?;
        let mut le = [0u8; 8];
        le[..W].copy_from_slice(src);
        Ok(u64::from_le_bytes(le))
    }

    /// Store the low `W` bytes of `value` little-endian (`W` ≤ 8).
    ///
    /// # Errors
    ///
    /// Faults when the access leaves the mapped range.
    #[inline(always)]
    pub fn store_n<const W: usize>(&mut self, addr: u64, value: u64) -> Result<(), MemFault> {
        let fault = MemFault { addr, store: true };
        let off = usize::try_from(addr.wrapping_sub(DATA_BASE)).map_err(|_| fault)?;
        let dst = self.bytes.get_mut(off..off.wrapping_add(W)).ok_or(fault)?;
        dst.copy_from_slice(&value.to_le_bytes()[..W]);
        self.mark_dirty(off, W);
        Ok(())
    }

    /// Load `width` bytes little-endian: [`Memory::load_n`] at a runtime
    /// width of 1, 2, 4 or 8.
    ///
    /// # Errors
    ///
    /// Faults when the access leaves the mapped range.
    ///
    /// # Panics
    ///
    /// Panics on any other width.
    #[inline]
    pub fn load(&self, addr: u64, width: usize) -> Result<u64, MemFault> {
        match width {
            1 => self.load_n::<1>(addr),
            2 => self.load_n::<2>(addr),
            4 => self.load_n::<4>(addr),
            8 => self.load_n::<8>(addr),
            _ => panic!("unsupported access width {width}"),
        }
    }

    /// Store the low `width` bytes of `value` little-endian:
    /// [`Memory::store_n`] at a runtime width of 1, 2, 4 or 8.
    ///
    /// # Errors
    ///
    /// Faults when the access leaves the mapped range.
    ///
    /// # Panics
    ///
    /// Panics on any other width.
    #[inline]
    pub fn store(&mut self, addr: u64, width: usize, value: u64) -> Result<(), MemFault> {
        match width {
            1 => self.store_n::<1>(addr, value),
            2 => self.store_n::<2>(addr, value),
            4 => self.store_n::<4>(addr, value),
            8 => self.store_n::<8>(addr, value),
            _ => panic!("unsupported access width {width}"),
        }
    }

    #[inline]
    fn mark_dirty(&mut self, off: usize, width: usize) {
        let first = off / PAGE_BYTES;
        let last = (off + width - 1) / PAGE_BYTES;
        self.dirty[first / 64] |= 1 << (first % 64);
        if last != first {
            self.dirty[last / 64] |= 1 << (last % 64);
        }
    }

    /// Number of [`PAGE_BYTES`] pages (the last one possibly partial).
    pub fn num_pages(&self) -> usize {
        self.bytes.len().div_ceil(PAGE_BYTES)
    }

    /// Length in bytes of page `p` (shorter than [`PAGE_BYTES`] only for a
    /// trailing partial page).
    #[inline]
    fn page_len(&self, p: usize) -> usize {
        PAGE_BYTES.min(self.bytes.len() - p * PAGE_BYTES)
    }

    /// The bytes of page `p`.
    pub fn page_bytes(&self, p: usize) -> &[u8] {
        let start = p * PAGE_BYTES;
        &self.bytes[start..start + self.page_len(p)]
    }

    /// The dirty bitmap (one bit per page, LSB-first within each word).
    pub fn dirty_words(&self) -> &[u64] {
        &self.dirty
    }

    /// Indices of all dirty pages, ascending.
    pub fn dirty_pages(&self) -> Vec<usize> {
        iter_bits(&self.dirty).collect()
    }

    /// The pages that hold the data image, as they read now: on a fresh
    /// memory, the whole initial content that is not zero (the checkpoint
    /// base image).
    pub fn image_pages(&self) -> &[u8] {
        let end = self.image_len.div_ceil(PAGE_BYTES) * PAGE_BYTES;
        &self.bytes[..end.min(self.bytes.len())]
    }

    /// The part of `base` that covers page `p` (empty past its end); the
    /// rest of the page reads zero in `base`.
    fn base_part<'b>(&self, p: usize, base: &'b [u8]) -> &'b [u8] {
        let start = p * PAGE_BYTES;
        let rest = base.get(start..).unwrap_or_default();
        &rest[..rest.len().min(self.page_len(p))]
    }

    /// Rewind memory to `base` overlaid with the snapshot pages: every page
    /// flagged in `snap_dirty` is copied from `snap_pages` (packed at
    /// [`PAGE_BYTES`] stride, in ascending page order), every page dirty in
    /// `self` but not in the snapshot is copied back from `base`, and the
    /// dirty bitmap becomes `snap_dirty`. `base` may be shorter than the
    /// memory: every byte past its end is zero. Untouched pages already
    /// equal `base` and are skipped, which is what makes restores cheap.
    ///
    /// # Panics
    ///
    /// Panics if `base` is longer than this memory or the bitmap length
    /// disagrees with its geometry (snapshots are only valid for the arena
    /// they were taken in).
    pub fn restore_pages(&mut self, snap_dirty: &[u64], snap_pages: &[u8], base: &[u8]) {
        assert!(base.len() <= self.bytes.len(), "snapshot arena mismatch");
        assert_eq!(
            snap_dirty.len(),
            self.dirty.len(),
            "snapshot bitmap mismatch"
        );
        for (k, p) in iter_bits(snap_dirty).enumerate() {
            let (start, len) = (p * PAGE_BYTES, self.page_len(p));
            self.bytes[start..start + len]
                .copy_from_slice(&snap_pages[k * PAGE_BYTES..k * PAGE_BYTES + len]);
        }
        for (w, (cur, snap)) in self.dirty.iter().zip(snap_dirty).enumerate() {
            let stale = cur & !snap;
            for p in iter_bits(&[stale]) {
                let p = w * 64 + p;
                let from = self.base_part(p, base);
                let (start, len) = (p * PAGE_BYTES, self.page_len(p));
                let page = &mut self.bytes[start..start + len];
                page[..from.len()].copy_from_slice(from);
                page[from.len()..].fill(0);
            }
        }
        self.dirty.copy_from_slice(snap_dirty);
    }

    /// True when this memory's content equals `base` (zero past its end)
    /// overlaid with the snapshot pages (the convergence-cutoff
    /// comparison). Only pages dirty on either side are inspected.
    pub fn pages_match(&self, snap_dirty: &[u64], snap_pages: &[u8], base: &[u8]) -> bool {
        debug_assert!(base.len() <= self.bytes.len());
        let mut k = 0usize;
        for (w, (cur, snap)) in self.dirty.iter().zip(snap_dirty).enumerate() {
            for p in iter_bits(&[cur | snap]) {
                let in_snap = snap >> p & 1 == 1;
                let p = w * 64 + p;
                let (start, len) = (p * PAGE_BYTES, self.page_len(p));
                let page = &self.bytes[start..start + len];
                let same = if in_snap {
                    // `snap_pages` is packed in ascending page order, so the
                    // running count of snapshot bits indexes it directly.
                    *page == snap_pages[k * PAGE_BYTES..k * PAGE_BYTES + len]
                } else {
                    let from = self.base_part(p, base);
                    page[..from.len()] == *from && page[from.len()..].iter().all(|&b| b == 0)
                };
                k += in_snap as usize;
                if !same {
                    return false;
                }
            }
        }
        true
    }

    /// Read a block (for output comparison), faulting on range errors.
    ///
    /// # Errors
    ///
    /// Faults when the block leaves the mapped range.
    pub fn read_block(&self, addr: u64, len: usize) -> Result<&[u8], MemFault> {
        let off = self.offset(addr, len, false)?;
        Ok(&self.bytes[off..off + len])
    }
}

/// Ascending set-bit positions of a bitmap (word-major, LSB-first).
fn iter_bits(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(w, &word)| {
        std::iter::successors(Some(word), |&m| Some(m & m.wrapping_sub(1)))
            .take_while(|&m| m != 0)
            .map(move |m| w * 64 + m.trailing_zeros() as usize)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_widths() {
        let mut m = Memory::with_image(4096, &[]);
        for (w, v) in [
            (1usize, 0xabu64),
            (4, 0xdead_beef),
            (8, 0x0123_4567_89ab_cdef),
        ] {
            m.store(DATA_BASE + 128, w, v).unwrap();
            assert_eq!(m.load(DATA_BASE + 128, w).unwrap(), v);
        }
    }

    #[test]
    fn little_endian_layout() {
        let mut m = Memory::with_image(64, &[]);
        m.store(DATA_BASE, 4, 0x0403_0201).unwrap();
        assert_eq!(m.load(DATA_BASE, 1).unwrap(), 0x01);
        assert_eq!(m.load(DATA_BASE + 3, 1).unwrap(), 0x04);
    }

    #[test]
    fn faults_outside_mapped_range() {
        let mut m = Memory::with_image(64, &[]);
        assert!(m.load(DATA_BASE - 1, 1).is_err());
        assert!(m.load(DATA_BASE + 64, 1).is_err());
        assert!(m.load(DATA_BASE + 63, 2).is_err());
        assert!(m.load(0, 8).is_err());
        assert!(m.load(u64::MAX, 8).is_err(), "wrap-around guarded");
        assert!(m.store(DATA_BASE + 60, 8, 0).is_err());
        let f = m.store(0x10, 4, 1).unwrap_err();
        assert!(f.store);
    }

    #[test]
    fn stores_mark_dirty_pages() {
        let mut m = Memory::with_image(3 * PAGE_BYTES, &[]);
        assert!(m.dirty_pages().is_empty(), "fresh memory is clean");
        m.store(DATA_BASE + 10, 8, 1).unwrap();
        m.store(DATA_BASE + 2 * PAGE_BYTES as u64 + 5, 1, 2)
            .unwrap();
        assert_eq!(m.dirty_pages(), vec![0, 2]);
        // A store straddling a page boundary dirties both pages.
        m.store(DATA_BASE + PAGE_BYTES as u64 - 4, 8, 3).unwrap();
        assert_eq!(m.dirty_pages(), vec![0, 1, 2]);
    }

    fn contents(m: &Memory) -> Vec<u8> {
        m.read_block(DATA_BASE, m.len()).unwrap().to_vec()
    }

    #[test]
    fn restore_pages_rewinds_to_snapshot() {
        let mut m = Memory::with_image(2 * PAGE_BYTES + 100, &[1, 2, 3]);
        let base = contents(&m);
        m.store(DATA_BASE + 8, 8, 0xaaaa).unwrap();
        // Snapshot: page 0 modified.
        let snap_dirty = m.dirty_words().to_vec();
        let mut snap_pages = m.page_bytes(0).to_vec();
        snap_pages.resize(PAGE_BYTES, 0);
        let at_snapshot = contents(&m);
        assert!(m.pages_match(&snap_dirty, &snap_pages, &base));
        // Diverge: touch the partial trailing page and overwrite page 0.
        m.store(DATA_BASE + 2 * PAGE_BYTES as u64 + 90, 8, 0xbbbb)
            .unwrap();
        m.store(DATA_BASE + 8, 8, 0xcccc).unwrap();
        assert!(!m.pages_match(&snap_dirty, &snap_pages, &base));
        m.restore_pages(&snap_dirty, &snap_pages, &base);
        assert_eq!(contents(&m), at_snapshot);
        assert_eq!(m.dirty_pages(), vec![0]);
        assert!(m.pages_match(&snap_dirty, &snap_pages, &base));
    }

    #[test]
    fn base_shorter_than_memory_reads_zero_past_its_end() {
        // A 4-page memory whose base image ends 100 bytes into page 1.
        let image: Vec<u8> = (1..=PAGE_BYTES as u32 + 100).map(|i| i as u8 | 1).collect();
        let mut m = Memory::with_image(4 * PAGE_BYTES, &image);
        let fresh = contents(&m);
        let base = &image[..];
        assert!(base.len() < m.len());
        assert_eq!(m.image_pages().len(), 2 * PAGE_BYTES);
        let clean = vec![0u64; m.dirty_words().len()];
        // Page 1 straddles the base's end; page 3 lies wholly past it.
        m.store(DATA_BASE + PAGE_BYTES as u64 + 50, 8, u64::MAX)
            .unwrap();
        m.store(DATA_BASE + PAGE_BYTES as u64 + 500, 8, u64::MAX)
            .unwrap();
        m.store(DATA_BASE + 3 * PAGE_BYTES as u64 + 8, 8, 7)
            .unwrap();
        assert!(!m.pages_match(&clean, &[], base));
        m.restore_pages(&clean, &[], base);
        assert_eq!(contents(&m), fresh, "stale pages reset to base, then zero");
        assert!(m.dirty_pages().is_empty());
        assert!(m.pages_match(&clean, &[], base));
        // A nonzero byte past the base fails the match even when the page
        // holds nothing else.
        m.store(DATA_BASE + 3 * PAGE_BYTES as u64 + 4095, 1, 1)
            .unwrap();
        assert!(!m.pages_match(&clean, &[], base));
        m.store(DATA_BASE + 3 * PAGE_BYTES as u64 + 4095, 1, 0)
            .unwrap();
        assert!(
            m.pages_match(&clean, &[], base),
            "a zeroed page equals the base"
        );
        // An empty base: the whole memory reads zero.
        m.store(DATA_BASE, 1, 9).unwrap();
        assert!(!m.pages_match(&clean, &[], &[]));
    }

    #[test]
    fn image_loaded_at_base() {
        let m = Memory::with_image(64, &[9, 8, 7]);
        assert_eq!(m.load(DATA_BASE, 1).unwrap(), 9);
        assert_eq!(m.load(DATA_BASE + 2, 1).unwrap(), 7);
        assert_eq!(m.load(DATA_BASE + 3, 1).unwrap(), 0);
    }
}
