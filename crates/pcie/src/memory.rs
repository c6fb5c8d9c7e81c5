//! Host physical memory.
//!
//! A flat little-endian byte store standing in for the host's DRAM. Both
//! sides of the testbed touch it:
//!
//! * the host software model reads/writes it directly (zero simulated
//!   cost beyond the modeled software-step costs — cache effects are part
//!   of the step cost distributions);
//! * device models access it *functionally* through the same API while
//!   the PCIe link model supplies the timing (DESIGN.md §2.2).
//!
//! A bump allocator hands out DMA-able buffers (virtqueue rings, sk_buff
//! data, XDMA descriptor lists) the way the kernel's `dma_alloc_coherent`
//! would, with alignment guarantees.
//!
//! The bytes live in a [`ZeroedBuf`], drawn from a small per-thread pool
//! of all-zero buffers. A sweep builds one world per point, each with
//! 64 MiB of memory it writes only sparsely; recycling the previous
//! world's buffer, with only its written pages re-zeroed, spares the
//! process a fresh mapping, its page faults and the unmapping. A
//! recycled buffer is all-zero when handed out, exactly like a fresh
//! `vec![0; size]`, and guest addresses are offsets from `base`, never
//! host pointers, so pooling cannot change any result.

use std::cell::RefCell;
use std::fmt;
use std::ops::{Deref, Range};

/// Dirty-tracking granularity: 4 KiB pages, as on the host.
const PAGE_SHIFT: u32 = 12;

/// Most buffers one thread keeps for reuse. A world holds at most two
/// (its memory and a disk layer); the rest absorb other sizes.
const POOL_CAP: usize = 4;

/// What a [`ZeroedBuf`] owns and the pool keeps: the bytes, and one
/// dirty bit per page that may hold a non-zero byte.
#[derive(Default)]
struct Pages {
    bytes: Vec<u8>,
    dirty: Vec<u64>,
}

impl Pages {
    /// Zero every dirty page, one `fill` per run of dirty pages within a
    /// bitmap word, and clear the bitmap.
    fn clean(&mut self) {
        let Pages { bytes, dirty } = self;
        let len = bytes.len();
        for (w, word) in dirty.iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                let first = bits.trailing_zeros();
                let end = first + (bits >> first).trailing_ones();
                let page = |bit: u32| (w * 64 + bit as usize) << PAGE_SHIFT;
                bytes[page(first)..page(end).min(len)].fill(0);
                bits = if end == 64 { 0 } else { bits & (!0 << end) };
            }
        }
    }
}

thread_local! {
    // Most recently returned last. `const`-initialized, so taking from
    // the pool never allocates.
    static POOL: RefCell<Vec<Pages>> = const { RefCell::new(Vec::new()) };
}

/// An all-zero byte buffer that tracks which 4 KiB pages were written.
///
/// [`ZeroedBuf::new`] takes a buffer of the same length from the calling
/// thread's pool, or allocates a zeroed one. Dropping it zeroes only the
/// dirty pages and returns it to the pool, which keeps the four most
/// recently dropped buffers and frees them when the thread exits. Reads
/// go through `Deref<Target = [u8]>`; the only mutable access,
/// [`ZeroedBuf::range_mut`], marks the pages it hands out, so an
/// unmarked page is always all-zero.
pub struct ZeroedBuf(Pages);

impl ZeroedBuf {
    /// An all-zero buffer of `len` bytes.
    pub fn new(len: usize) -> Self {
        let pooled = POOL
            .try_with(|pool| {
                let mut pool = pool.borrow_mut();
                let i = pool.iter().rposition(|p| p.bytes.len() == len)?;
                Some(pool.remove(i))
            })
            .ok()
            .flatten();
        ZeroedBuf(pooled.unwrap_or_else(|| Pages {
            bytes: vec![0; len],
            dirty: vec![0; len.div_ceil(1 << PAGE_SHIFT).div_ceil(64)],
        }))
    }

    /// Writable view of `range`; its pages are marked dirty.
    #[inline]
    pub fn range_mut(&mut self, range: Range<usize>) -> &mut [u8] {
        let Pages { bytes, dirty } = &mut self.0;
        let out = &mut bytes[range.clone()];
        if !out.is_empty() {
            for page in range.start >> PAGE_SHIFT..=(range.end - 1) >> PAGE_SHIFT {
                dirty[page / 64] |= 1 << (page % 64);
            }
        }
        out
    }

    /// Zero `range`. Marks nothing: zeroing cannot make a page non-zero.
    #[inline]
    pub fn zero(&mut self, range: Range<usize>) {
        self.0.bytes[range].fill(0);
    }

    /// Pages marked dirty so far.
    pub fn dirty_pages(&self) -> usize {
        self.0.dirty.iter().map(|w| w.count_ones() as usize).sum()
    }
}

impl Deref for ZeroedBuf {
    type Target = [u8];

    #[inline]
    fn deref(&self) -> &[u8] {
        &self.0.bytes
    }
}

impl fmt::Debug for ZeroedBuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ZeroedBuf")
            .field("len", &self.len())
            .field("dirty_pages", &self.dirty_pages())
            .finish()
    }
}

impl Drop for ZeroedBuf {
    fn drop(&mut self) {
        let mut pages = std::mem::take(&mut self.0);
        pages.clean();
        // During thread teardown the pool is gone and `pages` is freed.
        let _ = POOL.try_with(|pool| {
            let mut pool = pool.borrow_mut();
            if pool.len() == POOL_CAP {
                pool.remove(0);
            }
            pool.push(pages);
        });
    }
}

/// Flat host memory with a bump allocator.
pub struct HostMemory {
    data: ZeroedBuf,
    base: u64,
    next: u64,
}

impl HostMemory {
    /// Create `size` bytes of host memory whose physical window starts at
    /// `base` (non-zero bases catch address-mixing bugs in device models).
    pub fn new(base: u64, size: usize) -> Self {
        HostMemory {
            data: ZeroedBuf::new(size),
            base,
            next: base,
        }
    }

    /// Default testbed memory: 64 MiB at 1 MiB.
    pub fn testbed_default() -> Self {
        HostMemory::new(0x10_0000, 64 << 20)
    }

    /// First address of the window.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// One past the last valid address.
    pub fn end(&self) -> u64 {
        self.base + self.data.len() as u64
    }

    fn offset(&self, addr: u64, len: usize) -> usize {
        assert!(
            addr >= self.base && addr + len as u64 <= self.end(),
            "host memory access out of range: {addr:#x}+{len:#x} not in [{:#x}, {:#x})",
            self.base,
            self.end()
        );
        (addr - self.base) as usize
    }

    /// Allocate `len` bytes aligned to `align` (power of two). Returns the
    /// physical address. Allocation is monotonic — experiments build their
    /// working set once at init, as the drivers under test do.
    pub fn alloc(&mut self, len: usize, align: u64) -> u64 {
        assert!(align.is_power_of_two());
        let addr = (self.next + align - 1) & !(align - 1);
        assert!(
            addr + len as u64 <= self.end(),
            "host memory exhausted: need {len:#x} at {addr:#x}"
        );
        self.next = addr + len as u64;
        addr
    }

    /// Bytes currently allocated.
    pub fn allocated(&self) -> u64 {
        self.next - self.base
    }

    /// Read `buf.len()` bytes from `addr`.
    pub fn read(&self, addr: u64, buf: &mut [u8]) {
        let o = self.offset(addr, buf.len());
        buf.copy_from_slice(&self.data[o..o + buf.len()]);
    }

    /// Borrow a slice of memory (read-only views for packet parsing).
    pub fn slice(&self, addr: u64, len: usize) -> &[u8] {
        let o = self.offset(addr, len);
        &self.data[o..o + len]
    }

    /// Write `bytes` at `addr`.
    pub fn write(&mut self, addr: u64, bytes: &[u8]) {
        let o = self.offset(addr, bytes.len());
        self.data
            .range_mut(o..o + bytes.len())
            .copy_from_slice(bytes);
    }

    /// Zero `len` bytes at `addr`.
    pub fn zero(&mut self, addr: u64, len: usize) {
        let o = self.offset(addr, len);
        self.data.zero(o..o + len);
    }

    /// Read a little-endian `u16`.
    pub fn read_u16(&self, addr: u64) -> u16 {
        let mut b = [0u8; 2];
        self.read(addr, &mut b);
        u16::from_le_bytes(b)
    }

    /// Read a little-endian `u32`.
    pub fn read_u32(&self, addr: u64) -> u32 {
        let mut b = [0u8; 4];
        self.read(addr, &mut b);
        u32::from_le_bytes(b)
    }

    /// Read a little-endian `u64`.
    pub fn read_u64(&self, addr: u64) -> u64 {
        let mut b = [0u8; 8];
        self.read(addr, &mut b);
        u64::from_le_bytes(b)
    }

    /// Write a little-endian `u16`.
    pub fn write_u16(&mut self, addr: u64, v: u16) {
        self.write(addr, &v.to_le_bytes());
    }

    /// Write a little-endian `u32`.
    pub fn write_u32(&mut self, addr: u64, v: u32) {
        self.write(addr, &v.to_le_bytes());
    }

    /// Write a little-endian `u64`.
    pub fn write_u64(&mut self, addr: u64, v: u64) {
        self.write(addr, &v.to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_respects_alignment() {
        let mut m = HostMemory::new(0x1000, 1 << 20);
        let a = m.alloc(10, 1);
        let b = m.alloc(100, 64);
        let c = m.alloc(4, 4096);
        assert_eq!(a, 0x1000);
        assert_eq!(b % 64, 0);
        assert!(b >= a + 10);
        assert_eq!(c % 4096, 0);
        assert!(m.allocated() >= 114);
    }

    #[test]
    fn read_write_round_trip() {
        let mut m = HostMemory::new(0, 4096);
        m.write(100, &[1, 2, 3, 4]);
        let mut buf = [0u8; 4];
        m.read(100, &mut buf);
        assert_eq!(buf, [1, 2, 3, 4]);
        assert_eq!(m.slice(100, 4), &[1, 2, 3, 4]);
    }

    #[test]
    fn little_endian_integers() {
        let mut m = HostMemory::new(0, 4096);
        m.write_u16(0, 0x1234);
        m.write_u32(8, 0xDEAD_BEEF);
        m.write_u64(16, 0x0123_4567_89AB_CDEF);
        assert_eq!(m.slice(0, 2), &[0x34, 0x12]);
        assert_eq!(m.read_u16(0), 0x1234);
        assert_eq!(m.read_u32(8), 0xDEAD_BEEF);
        assert_eq!(m.read_u64(16), 0x0123_4567_89AB_CDEF);
    }

    #[test]
    fn zero_fills() {
        let mut m = HostMemory::new(0, 64);
        m.write(0, &[0xFF; 64]);
        m.zero(8, 16);
        assert_eq!(m.slice(7, 1), &[0xFF]);
        assert_eq!(m.slice(8, 16), &[0u8; 16]);
        assert_eq!(m.slice(24, 1), &[0xFF]);
    }

    #[test]
    fn base_offset_addressing() {
        let mut m = HostMemory::new(0x10_0000, 4096);
        m.write_u32(0x10_0010, 42);
        assert_eq!(m.read_u32(0x10_0010), 42);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn below_base_panics() {
        let m = HostMemory::new(0x1000, 64);
        let _ = m.read_u32(0xFFF);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn past_end_panics() {
        let m = HostMemory::new(0, 64);
        let _ = m.read_u32(62);
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn oversized_alloc_panics() {
        let mut m = HostMemory::new(0, 4096);
        let _ = m.alloc(8192, 8);
    }
}
