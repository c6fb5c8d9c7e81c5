//! The per-thread pool of all-zero buffers under [`HostMemory`]: a
//! recycled buffer reads as zero over its whole length whatever the
//! previous owner wrote, and live buffers never alias. That a warm pool
//! serves a same-size memory without touching the heap is checked in
//! `alloc_free.rs`, which counts allocations.

use proptest::collection::vec;
use proptest::prelude::*;

use vf_pcie::{HostMemory, ZeroedBuf};

const BASE: u64 = 0x10_0000;
/// Not a page multiple, so the last page is partial.
const SIZE: usize = (1 << 20) + 1234;

fn host_ptr(m: &HostMemory) -> *const u8 {
    m.slice(m.base(), 0).as_ptr()
}

fn assert_all_zero(m: &HostMemory) {
    let bytes = m.slice(m.base(), (m.end() - m.base()) as usize);
    if let Some(i) = bytes.iter().position(|&b| b != 0) {
        panic!("recycled memory not zero at offset {i:#x}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Writes anywhere, including the first and last byte and spans
    /// that cross page boundaries, are gone once the memory is dropped
    /// and the same buffer comes back.
    #[test]
    fn recycled_memory_reads_zero(
        writes in vec((0usize..SIZE, 1usize..3 * 4096, any::<u8>()), 1..24),
        zeroes in vec((0usize..SIZE, 1usize..8192), 0..4),
    ) {
        let mut m = HostMemory::new(BASE, SIZE);
        let first = host_ptr(&m);
        m.write(BASE, &[0xA5]);
        m.write(m.end() - 1, &[0x5A]);
        m.write(BASE + 4096 - 3, &[0xFF; 7]);
        for &(off, len, byte) in &writes {
            let len = len.min(SIZE - off);
            m.write(BASE + off as u64, &vec![byte | 1; len]);
        }
        for &(off, len) in &zeroes {
            m.zero(BASE + off as u64, len.min(SIZE - off));
        }
        drop(m);
        let m = HostMemory::new(BASE, SIZE);
        prop_assert_eq!(host_ptr(&m), first, "buffer was not recycled");
        assert_all_zero(&m);
    }
}

#[test]
fn live_memories_never_share_a_buffer() {
    let mut a = HostMemory::new(BASE, SIZE);
    let mut b = HostMemory::new(BASE, SIZE);
    assert_ne!(host_ptr(&a), host_ptr(&b));
    a.write_u64(BASE + 64, u64::MAX);
    assert_eq!(b.read_u64(BASE + 64), 0);
    b.write_u32(BASE + 128, 7);
    drop(a);
    // `c` takes `a`'s recycled buffer, never the live one under `b`.
    let c = HostMemory::new(BASE, SIZE);
    assert_ne!(host_ptr(&c), host_ptr(&b));
    assert_all_zero(&c);
    assert_eq!(b.read_u32(BASE + 128), 7);
}

#[test]
fn dirty_run_to_the_last_page_is_zeroed() {
    // 128 pages fill the bitmap's last word, so the run of dirty pages
    // ends at the bitmap's very last bit.
    let len = 128 * 4096;
    let mut buf = ZeroedBuf::new(len);
    let ptr = buf.as_ptr();
    buf.range_mut(60 * 4096..len).fill(0xC3);
    drop(buf);
    let buf = ZeroedBuf::new(len);
    assert_eq!(buf.as_ptr(), ptr, "buffer was not recycled");
    assert_eq!(buf.dirty_pages(), 0);
    assert!(buf.iter().all(|&b| b == 0), "last dirty run was not zeroed");
}

#[test]
fn zeroing_marks_nothing() {
    let mut buf = ZeroedBuf::new(4 * 4096);
    buf.zero(0..4 * 4096);
    assert_eq!(buf.dirty_pages(), 0);
    buf.range_mut(4095..4097).fill(1);
    assert_eq!(buf.dirty_pages(), 2);
}
