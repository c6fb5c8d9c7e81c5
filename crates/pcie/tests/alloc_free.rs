//! A warm multi-tag link moves DMA without touching the heap: chunking,
//! the `dma_read` request window, the per-tag pipelines and the wire
//! interval lists all reuse storage once they have grown to their
//! steady-state size. Likewise a warm thread builds host memory out of
//! its buffer pool without allocating.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use vf_pcie::link::{LinkConfig, PcieLink};
use vf_pcie::{HostMemory, ZeroedBuf};
use vf_sim::Time;

/// Forwards to [`System`] and counts the calling thread's allocations,
/// so the test harness's other threads do not disturb the count.
struct CountingAlloc;

thread_local! {
    // `const`-initialized with no destructor: touching it from the
    // allocator cannot allocate or re-enter it.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`;
// the counter never touches the memory being managed.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's guarantees on `layout` are passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr`/`layout` came from `System`; the caller
        // guarantees `new_size` is valid for `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations the calling thread makes while running `f`.
fn allocs_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

const TAGS: usize = 4;

/// One event's worth of DMA on every tag: a pipelined descriptor read,
/// a windowed payload read and a multi-TLP write, at unaligned
/// addresses so every transfer splits.
fn round(link: &mut PcieLink, k: u64) {
    let now = Time::from_us(20 * k);
    link.advance_epoch(now);
    for tag in 0..TAGS {
        let base = 0x10_0000 * tag as u64 + 0x40;
        link.select_dma_context(tag);
        link.dma_read_np(now, base, 256);
        link.dma_read(now, base + 0x1000, 700);
        link.dma_write(now, base + 0x2000, 300);
    }
}

#[test]
fn warm_multi_tag_link_does_not_allocate() {
    let mut cfg = LinkConfig::gen2_x2();
    cfg.multi_tag = true;
    cfg.outstanding_reads = 2;
    cfg.posted_window = 2;
    cfg.max_outstanding_np = 4;
    let mut link = PcieLink::new(cfg);
    for k in 0..1_000 {
        round(&mut link, k);
    }
    let before = ALLOCS.with(Cell::get);
    for k in 1_000..2_000 {
        round(&mut link, k);
    }
    let allocs = ALLOCS.with(Cell::get) - before;
    assert_eq!(
        allocs, 0,
        "warm link allocated {allocs} times in 1000 rounds"
    );
    assert!(link.tlp_counts.iter().sum::<u64>() > 0);
}

#[test]
fn warm_pool_serves_host_memory_without_allocating() {
    let size = (1 << 20) + 1234;
    let mut m = HostMemory::new(0x10_0000, size);
    m.write(0x10_0000 + 5000, &[1; 100]);
    drop(m);
    let (m, allocs) = allocs_during(|| HostMemory::new(0x10_0000, size));
    assert_eq!(allocs, 0, "second HostMemory::new allocated {allocs} times");
    assert_eq!(m.read_u64(0x10_0000 + 5000), 0);
}

#[test]
fn pool_keeps_the_most_recent_buffers() {
    // Six distinct sizes dropped in order: the pool keeps the last few,
    // so the newest is served from it and the oldest is allocated anew.
    let sizes: Vec<usize> = (1..=6).map(|k| k * 8192 + 1).collect();
    for &len in &sizes {
        drop(ZeroedBuf::new(len));
    }
    let (_newest, allocs) = allocs_during(|| ZeroedBuf::new(sizes[5]));
    assert_eq!(allocs, 0, "most recently dropped buffer was not pooled");
    let (_oldest, allocs) = allocs_during(|| ZeroedBuf::new(sizes[0]));
    assert!(allocs > 0, "pool kept more buffers than its bound");
}
