//! A concurrent, shared-memory VirtIO transport.
//!
//! Everything else in this crate runs inside a single-threaded simulated
//! world. This module proves the ring implementation is a *real* VirtIO
//! implementation: the same [`DriverQueue`]/[`DeviceRing`] code drives
//! an actual producer/consumer pair across OS threads over shared
//! memory, with the memory-ordering discipline the VirtIO spec requires
//! of driver and device ("suitable memory barriers", VirtIO 1.2 §2.7.13):
//!
//! * [`AtomicMemory`] — a [`GuestMemory`] over `AtomicU8` cells. Plain
//!   field accesses are `Relaxed`; the *protocol* supplies the ordering;
//! * [`publish_fence`] / [`observe_fence`] — the Release/Acquire fences
//!   each side issues between writing payload and publishing an index
//!   (and between reading an index and consuming payload), exactly where
//!   `virtio_wmb`/`virtio_rmb` sit in the kernel and where the FPGA
//!   design relies on PCIe ordering rules;
//! * [`LoopbackPair`] — wires a driver-side and a device-side endpoint
//!   to one queue in shared memory.
//!
//! This transport is also how a *software* back-end device (the classic
//! vhost-style worker) would consume the very same rings the FPGA
//! consumes over PCIe — the symmetry at the heart of the paper's
//! "unmodified VirtIO drivers" argument.

use std::sync::atomic::{fence, AtomicU8, Ordering};
use std::sync::Arc;

use crate::driver_queue::{BufferSpec, DriverQueue};
use crate::layout::{DeviceRing, RingChain};
use crate::mem::GuestMemory;
use crate::ring::VirtqueueLayout;

/// Shared memory as an array of atomic bytes.
///
/// All accesses are `Relaxed`: the VirtIO protocol's correctness comes
/// from the explicit fences at the publish/observe points, not from
/// per-access ordering — mirroring how the kernel accesses ring fields
/// with `READ_ONCE`/`WRITE_ONCE` plus explicit barriers.
pub struct AtomicMemory {
    cells: Box<[AtomicU8]>,
}

impl AtomicMemory {
    /// Zeroed shared memory of `len` bytes.
    pub fn new(len: usize) -> Arc<Self> {
        let cells: Vec<AtomicU8> = (0..len).map(|_| AtomicU8::new(0)).collect();
        Arc::new(AtomicMemory {
            cells: cells.into_boxed_slice(),
        })
    }

    /// Capacity in bytes.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True if empty (degenerate).
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }
}

/// A handle through which one side accesses the shared memory. Cloning
/// shares the underlying cells.
#[derive(Clone)]
pub struct MemHandle {
    mem: Arc<AtomicMemory>,
}

impl MemHandle {
    /// Handle to `mem`.
    pub fn new(mem: Arc<AtomicMemory>) -> Self {
        MemHandle { mem }
    }
}

impl GuestMemory for MemHandle {
    fn read(&self, addr: u64, buf: &mut [u8]) {
        let base = addr as usize;
        for (i, b) in buf.iter_mut().enumerate() {
            *b = self.mem.cells[base + i].load(Ordering::Relaxed);
        }
    }

    fn write(&mut self, addr: u64, data: &[u8]) {
        let base = addr as usize;
        for (i, &b) in data.iter().enumerate() {
            self.mem.cells[base + i].store(b, Ordering::Relaxed);
        }
    }
    fn bounds(&self) -> std::ops::Range<u64> {
        0..self.mem.len() as u64
    }
}

/// The producer-side barrier: everything written before this fence
/// (descriptors, payload, ring entries) is visible to a consumer that
/// observes anything written after it (the index). `virtio_wmb`.
pub fn publish_fence() {
    fence(Ordering::Release);
}

/// The consumer-side barrier: after observing a new index, this fence
/// orders the subsequent payload reads. `virtio_rmb`.
pub fn observe_fence() {
    fence(Ordering::Acquire);
}

/// The driver endpoint of a loopback queue.
pub struct LoopbackDriver {
    /// Shared memory handle.
    pub mem: MemHandle,
    /// The driver-side queue state.
    pub queue: DriverQueue,
}

impl LoopbackDriver {
    /// Add and publish a chain with the required fence.
    pub fn send(&mut self, bufs: &[BufferSpec]) -> Result<u16, crate::driver_queue::QueueError> {
        let head = self.queue.add_chain(&mut self.mem, bufs)?;
        publish_fence();
        self.queue.publish(&mut self.mem, head);
        // The avail-idx store itself must be visible before any doorbell;
        // a second release fence models the ordering of the MMIO write.
        publish_fence();
        Ok(head)
    }

    /// Harvest one completion, if any, with the required fence.
    pub fn try_recv(&mut self) -> Option<crate::ring::UsedElem> {
        let pending = self.queue.used_pending(&self.mem);
        if pending == 0 {
            return None;
        }
        observe_fence();
        self.queue.pop_used(&mut self.mem)
    }
}

/// The device endpoint of a loopback queue.
pub struct LoopbackDevice {
    /// Shared memory handle.
    pub mem: MemHandle,
    /// The device-side ring.
    pub ring: DeviceRing,
}

impl LoopbackDevice {
    /// Take the next pending chain, if any: read the avail index, fence,
    /// then resolve the chain behind it.
    pub fn next_chain(&mut self) -> Option<RingChain> {
        self.ring.prologue(&self.mem, false);
        observe_fence();
        self.ring.next_chain(&self.mem).expect("well-formed chain")
    }

    /// Complete a chain (fence, then publish the used entry) and keep
    /// its buffer list for the next one.
    pub fn complete(&mut self, chain: RingChain, written: u32) {
        publish_fence();
        self.ring.complete(&mut self.mem, &chain, written);
        self.ring.recycle(chain);
    }
}

/// A connected driver/device pair over one shared queue.
pub struct LoopbackPair {
    /// Driver endpoint.
    pub driver: LoopbackDriver,
    /// Device endpoint.
    pub device: LoopbackDevice,
    /// Base address of the data region (after the rings).
    pub data_base: u64,
}

impl LoopbackPair {
    /// Build a queue of `size` descriptors in `mem_len` bytes of fresh
    /// shared memory.
    pub fn new(size: u16, mem_len: usize) -> Self {
        let shared = AtomicMemory::new(mem_len);
        let mut drv_mem = MemHandle::new(Arc::clone(&shared));
        let dev_mem = MemHandle::new(shared);
        let layout = VirtqueueLayout::contiguous(0, size);
        let data_base = (layout.total_bytes() + 0xFFF) & !0xFFF;
        assert!((data_base as usize) < mem_len, "memory too small for rings");
        let queue = DriverQueue::new(&mut drv_mem, layout, true);
        let ring = DeviceRing::split(layout, true, false, 0);
        LoopbackPair {
            driver: LoopbackDriver {
                mem: drv_mem,
                queue,
            },
            device: LoopbackDevice { mem: dev_mem, ring },
            data_base,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn single_thread_round_trip() {
        let mut pair = LoopbackPair::new(8, 1 << 16);
        let buf = pair.data_base;
        pair.driver.mem.write(buf, b"ping");
        let head = pair.driver.send(&[BufferSpec::readable(buf, 4)]).unwrap();
        let chain = pair.device.next_chain().unwrap();
        assert_eq!(chain.id, head);
        assert_eq!(pair.device.mem.read_vec(chain.bufs[0].addr, 4), b"ping");
        pair.device.complete(chain, 0);
        let used = pair.driver.try_recv().unwrap();
        assert_eq!(used.id, head as u32);
    }

    /// The headline concurrency test: a device thread echoes chains
    /// (readable request buffer + writable response buffer) while the
    /// driver thread pumps thousands of distinct payloads through and
    /// verifies every response. Any missing fence or ring bug shows up
    /// as corruption, loss, or a hang (caught by the pump bound).
    #[test]
    fn threaded_echo_stress() {
        const MSGS: u32 = 20_000;
        const QUEUE: u16 = 64;
        let pair = LoopbackPair::new(QUEUE, 1 << 21);
        let LoopbackPair {
            mut driver,
            mut device,
            data_base,
        } = pair;

        let device_thread = thread::spawn(move || {
            let mut served = 0u32;
            let mut spins = 0u64;
            while served < MSGS {
                match device.next_chain() {
                    None => {
                        spins += 1;
                        assert!(spins < 100_000_000, "device starved");
                        thread::yield_now();
                    }
                    Some(chain) => {
                        // Echo: copy request into the response buffer.
                        let req = &chain.bufs[0];
                        let resp = &chain.bufs[1];
                        assert!(!req.writable && resp.writable);
                        let data = device.mem.read_vec(req.addr, req.len as usize);
                        device.mem.write(resp.addr, &data);
                        let written = resp.len;
                        device.complete(chain, written);
                        served += 1;
                    }
                }
            }
            served
        });

        // Driver side: keep up to QUEUE/2 requests in flight.
        let slots = (QUEUE / 2) as u64;
        let slot_size = 256u64;
        let mut next = 0u32;
        let mut done = 0u32;
        let mut inflight: std::collections::HashMap<u16, u32> = Default::default();
        let mut spins = 0u64;
        while done < MSGS {
            // Refill.
            while next < MSGS && (inflight.len() as u64) < slots {
                let slot = (next as u64 % slots) * slot_size * 2 + data_base;
                let payload = next.to_le_bytes();
                driver.mem.write(slot, &payload);
                let head = driver
                    .send(&[
                        BufferSpec::readable(slot, 4),
                        BufferSpec::writable(slot + slot_size, 4),
                    ])
                    .expect("ring has room by construction");
                inflight.insert(head, next);
                next += 1;
            }
            // Drain.
            match driver.try_recv() {
                None => {
                    spins += 1;
                    assert!(spins < 100_000_000, "driver starved");
                    thread::yield_now();
                }
                Some(used) => {
                    let msg = inflight.remove(&(used.id as u16)).expect("known head");
                    assert_eq!(used.len, 4);
                    let slot = (msg as u64 % slots) * slot_size * 2 + data_base;
                    let echoed = driver.mem.read_vec(slot + slot_size, 4);
                    assert_eq!(
                        u32::from_le_bytes(echoed.try_into().unwrap()),
                        msg,
                        "echo corrupted"
                    );
                    done += 1;
                }
            }
        }
        assert_eq!(device_thread.join().unwrap(), MSGS);
        assert!(inflight.is_empty());
    }

    #[test]
    fn bidirectional_queues_in_one_region() {
        // Two independent queues (like RX/TX) can share one memory
        // region without interference.
        let shared = AtomicMemory::new(1 << 18);
        let l1 = VirtqueueLayout::contiguous(0, 16);
        let l2 = VirtqueueLayout::contiguous((l1.total_bytes() + 15) & !15, 16);
        let mut m1 = MemHandle::new(Arc::clone(&shared));
        let mut m2 = MemHandle::new(shared);
        let mut d1 = DriverQueue::new(&mut m1, l1, false);
        let mut d2 = DriverQueue::new(&mut m2, l2, false);
        let mut dev1 = DeviceRing::split(l1, false, false, 0);
        let mut dev2 = DeviceRing::split(l2, false, false, 1);
        for i in 0..10u64 {
            d1.add_and_publish(&mut m1, &[BufferSpec::readable(0x2_0000 + i * 64, 64)])
                .unwrap();
            d2.add_and_publish(&mut m2, &[BufferSpec::writable(0x3_0000 + i * 64, 64)])
                .unwrap();
        }
        // Each walk covers the ten chains its avail-index read saw.
        assert_eq!(dev1.prologue(&m1, false), Some((l1.avail_idx_addr(), 22)));
        assert_eq!(dev2.prologue(&m2, false), Some((l2.avail_idx_addr(), 22)));
        for _ in 0..10 {
            let c1 = dev1.next_chain(&m1).unwrap().unwrap();
            assert!(!c1.bufs[0].writable);
            dev1.complete(&mut m1, &c1, 0);
            let c2 = dev2.next_chain(&m2).unwrap().unwrap();
            assert!(c2.bufs[0].writable);
            dev2.complete(&mut m2, &c2, 64);
        }
        assert!(dev1.next_chain(&m1).unwrap().is_none());
        assert_eq!(d1.used_pending(&m1), 10);
        assert_eq!(d2.used_pending(&m2), 10);
    }
}
