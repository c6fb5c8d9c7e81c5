//! A warm multi-queue net world moves packets without touching the heap
//! per packet: payloads, frames, staged TX buffers, echo responses, RX
//! frames and chain buffer lists are all reused. Card memory comes from
//! the same per-thread pool of zeroed buffers as host memory, so a
//! second world of the same shape allocates neither.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use virtio_fpga::testbed::CardKind;
use virtio_fpga::{run_blk, run_mq, run_xdma_storage, BlkPattern, DriverKind, TestbedConfig};

/// Forwards to [`System`] and counts the calling thread's allocations,
/// and separately those of at least [`LARGE`] bytes, so the test
/// harness's other threads do not disturb the count.
struct CountingAlloc;

/// Smallest allocation counted as a memory buffer: the 64 KiB XDMA card.
const LARGE: usize = 64 << 10;

thread_local! {
    // `const`-initialized with no destructor: touching them from the
    // allocator cannot allocate or re-enter it.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LARGE_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count(size: usize) {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    if size >= LARGE {
        let _ = LARGE_ALLOCS.try_with(|c| c.set(c.get() + 1));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`;
// the counters never touch the memory being managed.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's guarantees on `layout` are passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr`/`layout` came from `System`; the caller
        // guarantees `new_size` is valid for `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations, and large ones, the calling thread makes while running
/// `f`.
fn allocs_during(f: impl FnOnce()) -> (u64, u64) {
    let before = (ALLOCS.with(Cell::get), LARGE_ALLOCS.with(Cell::get));
    f();
    (
        ALLOCS.with(Cell::get) - before.0,
        LARGE_ALLOCS.with(Cell::get) - before.1,
    )
}

/// One E19 point: 2 queue pairs, a 4-deep window each, 256-byte
/// payloads.
fn mq_world(packets: usize) {
    let mut cfg = TestbedConfig::paper(DriverKind::VirtioMq, 256, packets, 7);
    cfg.options.mq_queue_pairs = 2;
    let r = run_mq(&cfg, 4);
    assert_eq!(r.verify_failures, 0);
}

/// Extra packets in a world may cost at most this many allocations
/// each. Everything on the per-packet path is reused, so a warm world
/// reads 0, and one allocation per packet on any path reads 1.
const ALLOCS_PER_EXTRA_PACKET: f64 = 0.25;

#[test]
fn warm_mq_world_allocates_under_one_per_packet() {
    const N: usize = 400;
    mq_world(N);
    let (at_n, _) = allocs_during(|| mq_world(N));
    let (at_2n, _) = allocs_during(|| mq_world(2 * N));
    let per_packet = at_2n.saturating_sub(at_n) as f64 / N as f64;
    assert!(
        per_packet <= ALLOCS_PER_EXTRA_PACKET,
        "{per_packet} allocations per extra packet ({at_n} at {N}, {at_2n} at {})",
        2 * N
    );
}

#[test]
fn second_world_reuses_card_and_host_memory() {
    mq_world(50);
    let (_, large) = allocs_during(|| mq_world(50));
    assert_eq!(large, 0, "second world allocated {large} memory buffers");
    // Worlds with other card and disk sizes in between: the pool keeps
    // the host memory and the 256 KiB staging BRAM.
    let xdma = TestbedConfig::paper(DriverKind::Xdma, 4096, 20, 7);
    run_xdma_storage(&xdma, BlkPattern::RandomRead, 4096);
    let blk = TestbedConfig::paper(DriverKind::VirtioBlk, 4096, 20, 7);
    run_blk(&blk, BlkPattern::RandomWrite, 4096, 2);
    let mut ddr = TestbedConfig::paper(DriverKind::Xdma, 64, 20, 7);
    ddr.options.card_memory = CardKind::Ddr;
    virtio_fpga::Testbed::new(ddr).run();
    let (_, large) = allocs_during(|| mq_world(50));
    assert_eq!(large, 0, "pool evicted a buffer the net world needs");
}
