//! Device-side virtqueue operation.
//!
//! This is what the paper's FPGA VirtIO controller does in hardware: on a
//! doorbell, read the driver's avail index, fetch the new avail entries
//! and their descriptor chains, move the data, then publish used entries
//! and decide whether to interrupt.
//!
//! Two API layers:
//!
//! * **step-wise accessors** (`fetch_avail_idx`, `fetch_avail_entry`,
//!   `fetch_desc`) that perform exactly one bus-sized access each — the
//!   FPGA controller drives these and charges each as a timed PCIe DMA
//!   read, so the event counts in the latency model are structural, not
//!   assumed;
//! * **convenience helpers** (`pop_chain`, `complete`) composing the
//!   steps for software backends and tests.

use vf_metrics::{names, Counter, Gauge};

use crate::mem::GuestMemory;
use crate::ring::{vring_need_event, Desc, VirtqueueLayout, AVAIL_F_NO_INTERRUPT, DESC_F_INDIRECT};

/// A resolved element of a descriptor chain.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChainBuf {
    /// Guest-physical address of the buffer.
    pub addr: u64,
    /// Buffer length.
    pub len: u32,
    /// Device-writable?
    pub writable: bool,
}

/// A full descriptor chain with its head index.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Chain {
    /// Head descriptor index (goes into the used ring's `id`).
    pub head: u16,
    /// Buffers in chain order.
    pub bufs: Vec<ChainBuf>,
}

impl Chain {
    /// Total readable bytes.
    pub fn readable_len(&self) -> u32 {
        self.bufs
            .iter()
            .filter(|b| !b.writable)
            .map(|b| b.len)
            .sum()
    }

    /// Total writable bytes.
    pub fn writable_len(&self) -> u32 {
        self.bufs.iter().filter(|b| b.writable).map(|b| b.len).sum()
    }

    /// Number of descriptors in the chain (= DMA descriptor fetches the
    /// device performed).
    pub fn desc_count(&self) -> usize {
        self.bufs.len()
    }
}

/// Chain-resolution failures (driver bugs or corruption a robust device
/// must survive).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChainError {
    /// The chain is longer than the queue size (loop or corruption).
    TooLong,
    /// A descriptor index is out of range.
    BadIndex(u16),
    /// Indirect descriptors were not negotiated but appeared.
    UnexpectedIndirect,
    /// An indirect table's length is not a whole number of descriptors
    /// (VirtIO 1.2 §2.7.5.3: the table is a descriptor array, so its
    /// length must be a multiple of 16).
    BadIndirectLen(u32),
}

/// Device-side state of one virtqueue.
#[derive(Clone, Debug)]
pub struct DeviceQueue {
    layout: VirtqueueLayout,
    /// Next avail entry to process.
    last_avail: u16,
    /// Our published used index.
    used_idx: u16,
    event_idx: bool,
    indirect: bool,
    /// Interrupts actually asserted.
    pub interrupts_sent: u64,
    /// Avail entries the device has not consumed yet.
    backlog: Gauge,
    metrics: QueueMetrics,
}

/// The `virtio.queue.*` counters of one queue, split or packed.
#[derive(Clone, Debug)]
pub(crate) struct QueueMetrics {
    pub(crate) desc_reads: Counter,
    pub(crate) used: Counter,
}

impl QueueMetrics {
    /// The counters of the queue whose instruments register under
    /// `index`.
    pub(crate) fn new(index: u32) -> QueueMetrics {
        QueueMetrics {
            desc_reads: Counter::new("virtio.queue.desc_reads", index),
            used: Counter::new(names::QUEUE_USED, index),
        }
    }
}

/// The backlog gauge of queue `index`. Host-driven (TX) queues register
/// under the stall-watchdogged name; pre-posted buffer rings (RX,
/// control), where a nonzero backlog with no used progress is the
/// *idle* state, not a stall, register under their own.
fn backlog_gauge(index: u32, watch_backlog: bool) -> Gauge {
    let name = if watch_backlog {
        names::QUEUE_BACKLOG
    } else {
        "virtio.queue.rx_buffers"
    };
    Gauge::new(name, index)
}

impl DeviceQueue {
    /// Device-side view of the queue at `layout`.
    pub fn new(layout: VirtqueueLayout, event_idx: bool, indirect: bool) -> Self {
        DeviceQueue {
            layout,
            last_avail: 0,
            used_idx: 0,
            event_idx,
            indirect,
            interrupts_sent: 0,
            backlog: backlog_gauge(0, false),
            metrics: QueueMetrics::new(0),
        }
    }

    /// Register this queue's metrics under `index` (the virtio queue
    /// number; devices with one queue leave it 0), so per-queue
    /// backlog/used/desc-read series stay distinguishable in
    /// multi-queue devices. `watch_backlog` marks a host-driven (TX)
    /// queue whose backlog gauge the stall watchdog monitors; leave it
    /// false for pre-posted rings.
    pub fn set_metrics_index(&mut self, index: u32, watch_backlog: bool) {
        self.backlog = backlog_gauge(index, watch_backlog);
        self.metrics = QueueMetrics::new(index);
    }

    /// The queue's layout.
    pub fn layout(&self) -> &VirtqueueLayout {
        &self.layout
    }

    /// Our next unprocessed avail position.
    pub fn last_avail(&self) -> u16 {
        self.last_avail
    }

    /// Our published used index.
    pub fn used_idx(&self) -> u16 {
        self.used_idx
    }

    // ---- step-wise accessors (each = one timed DMA read on the FPGA) ----

    /// Read the driver's current avail index (2-byte read).
    pub fn fetch_avail_idx<M: GuestMemory>(&self, mem: &M) -> u16 {
        let idx = mem.read_u16(self.layout.avail_idx_addr());
        // The freshest view of the backlog the device can have: on TX
        // queues the stall watchdog keys on this gauge staying nonzero
        // while the used counter below stands still.
        self.backlog.set(idx.wrapping_sub(self.last_avail) as i64);
        idx
    }

    /// Read the avail ring entry for position `pos` (2-byte read).
    pub fn fetch_avail_entry<M: GuestMemory>(&self, mem: &M, pos: u16) -> u16 {
        mem.read_u16(self.layout.avail_ring_addr(pos % self.layout.size))
    }

    /// Read one descriptor (16-byte read).
    pub fn fetch_desc<M: GuestMemory>(&self, mem: &M, idx: u16) -> Desc {
        self.metrics.desc_reads.add(1);
        Desc::read_at(mem, self.layout.desc, idx)
    }

    /// Pending chains: how far the driver's avail index is ahead of us.
    pub fn pending<M: GuestMemory>(&self, mem: &M) -> u16 {
        self.fetch_avail_idx(mem).wrapping_sub(self.last_avail)
    }

    /// Resolve the descriptor chain at avail position `pos` without
    /// consuming it. Returns the chain and the number of descriptor
    /// fetches performed (for DMA accounting). Handles indirect tables if
    /// negotiated.
    pub fn resolve_at<M: GuestMemory>(
        &self,
        mem: &M,
        pos: u16,
    ) -> Result<(Chain, usize), ChainError> {
        let mut bufs = Vec::new();
        let (head, fetches) = self.resolve_into(mem, pos, &mut bufs)?;
        Ok((Chain { head, bufs }, fetches))
    }

    /// [`DeviceQueue::resolve_at`] into `bufs` (cleared first), so a
    /// caller can reuse one buffer list. Returns the head index and the
    /// descriptor fetches.
    pub fn resolve_into<M: GuestMemory>(
        &self,
        mem: &M,
        pos: u16,
        bufs: &mut Vec<ChainBuf>,
    ) -> Result<(u16, usize), ChainError> {
        bufs.clear();
        let head = self.fetch_avail_entry(mem, pos);
        let mut fetches = 0usize;
        let mut idx = head;
        let limit = self.layout.size as usize;
        loop {
            if idx >= self.layout.size {
                return Err(ChainError::BadIndex(idx));
            }
            if bufs.len() >= limit {
                return Err(ChainError::TooLong);
            }
            let d = self.fetch_desc(mem, idx);
            fetches += 1;
            if d.flags & DESC_F_INDIRECT != 0 {
                if !self.indirect {
                    return Err(ChainError::UnexpectedIndirect);
                }
                // One indirect table holds the whole chain. A length
                // that is not a multiple of the descriptor size is a
                // malformed table, not a table to round down: silently
                // truncating would drop the trailing partial descriptor.
                if !d.len.is_multiple_of(Desc::SIZE as u32) {
                    return Err(ChainError::BadIndirectLen(d.len));
                }
                let count = (d.len / Desc::SIZE as u32) as usize;
                if count == 0 || count > limit {
                    return Err(ChainError::TooLong);
                }
                for i in 0..count {
                    let e = Desc::read_at(mem, d.addr, i as u16);
                    self.metrics.desc_reads.add(1);
                    fetches += 1;
                    bufs.push(ChainBuf {
                        addr: e.addr,
                        len: e.len,
                        writable: e.is_write(),
                    });
                }
                break;
            }
            bufs.push(ChainBuf {
                addr: d.addr,
                len: d.len,
                writable: d.is_write(),
            });
            if !d.has_next() {
                break;
            }
            idx = d.next;
        }
        Ok((head, fetches))
    }

    /// Consume the next pending chain, if any.
    pub fn pop_chain<M: GuestMemory>(&mut self, mem: &M) -> Result<Option<Chain>, ChainError> {
        if self.pending(mem) == 0 {
            return Ok(None);
        }
        let (chain, _) = self.resolve_at(mem, self.last_avail)?;
        self.advance();
        Ok(Some(chain))
    }

    /// Advance past one avail entry without resolving (used by the FPGA
    /// controller, which resolves step-wise itself).
    pub fn advance(&mut self) {
        self.last_avail = self.last_avail.wrapping_add(1);
        self.backlog.add(-1);
    }

    /// Publish a completion: used ring entry + index. `written` is the
    /// number of bytes written into the chain's writable buffers. Returns
    /// the previous used index (needed for the interrupt decision).
    pub fn complete<M: GuestMemory>(&mut self, mem: &mut M, head: u16, written: u32) -> u16 {
        let old = self.used_idx;
        let slot = self.used_idx % self.layout.size;
        let entry = self.layout.used_ring_addr(slot);
        mem.write_u32(entry, head as u32);
        mem.write_u32(entry + 4, written);
        self.used_idx = self.used_idx.wrapping_add(1);
        mem.write_u16(self.layout.used_idx_addr(), self.used_idx);
        self.metrics.used.add(1);
        if self.event_idx {
            // Ask to be notified once the driver publishes anything beyond
            // what we've seen — the standard low-latency device policy.
            mem.write_u16(self.layout.avail_event_addr(), self.last_avail);
        }
        old
    }

    /// After completing (used idx moved from `old_used` to the current
    /// value), should the device interrupt?
    pub fn should_interrupt<M: GuestMemory>(&mut self, mem: &M, old_used: u16) -> bool {
        let fire = if self.event_idx {
            let used_event = mem.read_u16(self.layout.used_event_addr());
            vring_need_event(used_event, self.used_idx, old_used)
        } else {
            mem.read_u16(self.layout.avail_flags_addr()) & AVAIL_F_NO_INTERRUPT == 0
        };
        if fire {
            self.interrupts_sent += 1;
        }
        fire
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver_queue::{BufferSpec, DriverQueue};
    use crate::mem::VecMemory;
    use crate::ring::DESC_F_NEXT;

    fn setup(size: u16, event_idx: bool) -> (VecMemory, DriverQueue, DeviceQueue) {
        let mut mem = VecMemory::new(1 << 20);
        let layout = VirtqueueLayout::contiguous(0x1000, size);
        let drv = DriverQueue::new(&mut mem, layout, event_idx);
        let dev = DeviceQueue::new(layout, event_idx, false);
        (mem, drv, dev)
    }

    #[test]
    fn device_sees_published_chain() {
        let (mut mem, mut drv, mut dev) = setup(8, false);
        assert_eq!(dev.pending(&mem), 0);
        drv.add_and_publish(
            &mut mem,
            &[
                BufferSpec::readable(0x5000, 100),
                BufferSpec::writable(0x6000, 200),
            ],
        )
        .unwrap();
        assert_eq!(dev.pending(&mem), 1);
        let chain = dev.pop_chain(&mem).unwrap().unwrap();
        assert_eq!(chain.bufs.len(), 2);
        assert_eq!(chain.readable_len(), 100);
        assert_eq!(chain.writable_len(), 200);
        assert_eq!(dev.pending(&mem), 0);
    }

    #[test]
    fn complete_round_trip_to_driver() {
        let (mut mem, mut drv, mut dev) = setup(8, false);
        let head = drv
            .add_and_publish(&mut mem, &[BufferSpec::writable(0x5000, 64)])
            .unwrap();
        let chain = dev.pop_chain(&mem).unwrap().unwrap();
        assert_eq!(chain.head, head);
        let old = dev.complete(&mut mem, chain.head, 42);
        assert!(dev.should_interrupt(&mem, old));
        let used = drv.pop_used(&mut mem).unwrap();
        assert_eq!(used.id, head as u32);
        assert_eq!(used.len, 42);
    }

    #[test]
    fn interrupt_suppressed_by_avail_flag() {
        let (mut mem, mut drv, mut dev) = setup(8, false);
        drv.set_no_interrupt(&mut mem, true);
        let head = drv
            .add_and_publish(&mut mem, &[BufferSpec::readable(0, 8)])
            .unwrap();
        let old = dev.complete(&mut mem, head, 0);
        assert!(!dev.should_interrupt(&mem, old));
        assert_eq!(dev.interrupts_sent, 0);
    }

    #[test]
    fn event_idx_interrupt_gating() {
        let (mut mem, mut drv, mut dev) = setup(8, true);
        // Driver consumed nothing; used_event = 0 → first completion
        // (0→1) fires.
        let h0 = drv
            .add_and_publish(&mut mem, &[BufferSpec::readable(0, 8)])
            .unwrap();
        let h1 = drv
            .add_and_publish(&mut mem, &[BufferSpec::readable(8, 8)])
            .unwrap();
        dev.pop_chain(&mem).unwrap().unwrap();
        dev.pop_chain(&mem).unwrap().unwrap();
        let old = dev.complete(&mut mem, h0, 0);
        assert!(dev.should_interrupt(&mem, old));
        // Driver hasn't consumed (used_event still 0): second completion
        // (1→2) does not cross it again.
        let old = dev.complete(&mut mem, h1, 0);
        assert!(!dev.should_interrupt(&mem, old));
    }

    #[test]
    fn step_wise_resolution_counts_fetches() {
        let (mut mem, mut drv, dev) = setup(8, false);
        drv.add_and_publish(
            &mut mem,
            &[
                BufferSpec::readable(0x100, 10),
                BufferSpec::readable(0x200, 10),
                BufferSpec::writable(0x300, 10),
            ],
        )
        .unwrap();
        let (chain, fetches) = dev.resolve_at(&mem, 0).unwrap();
        assert_eq!(chain.desc_count(), 3);
        assert_eq!(fetches, 3, "one descriptor fetch per chain element");
    }

    #[test]
    fn corrupt_loop_detected() {
        let (mut mem, _drv, dev) = setup(4, false);
        // Hand-build a descriptor loop: 0 → 1 → 0 and an avail entry.
        Desc {
            addr: 0,
            len: 4,
            flags: DESC_F_NEXT,
            next: 1,
        }
        .write_at(&mut mem, dev.layout().desc, 0);
        Desc {
            addr: 0,
            len: 4,
            flags: DESC_F_NEXT,
            next: 0,
        }
        .write_at(&mut mem, dev.layout().desc, 1);
        mem.write_u16(dev.layout().avail_ring_addr(0), 0);
        mem.write_u16(dev.layout().avail_idx_addr(), 1);
        assert_eq!(dev.resolve_at(&mem, 0).unwrap_err(), ChainError::TooLong);
    }

    #[test]
    fn bad_index_detected() {
        let (mut mem, _drv, dev) = setup(4, false);
        mem.write_u16(dev.layout().avail_ring_addr(0), 9); // ≥ size
        mem.write_u16(dev.layout().avail_idx_addr(), 1);
        assert_eq!(
            dev.resolve_at(&mem, 0).unwrap_err(),
            ChainError::BadIndex(9)
        );
    }

    #[test]
    fn indirect_chain_resolves_when_negotiated() {
        let mut mem = VecMemory::new(1 << 20);
        let layout = VirtqueueLayout::contiguous(0x1000, 8);
        let mut drv = DriverQueue::new(&mut mem, layout, false);
        let dev = DeviceQueue::new(layout, false, true);
        // Build an indirect table of 3 descriptors at 0x8000.
        for (i, (addr, len, write)) in [
            (0x100u64, 16u32, false),
            (0x200, 16, false),
            (0x300, 32, true),
        ]
        .iter()
        .enumerate()
        {
            let write_flag = if *write { crate::ring::DESC_F_WRITE } else { 0 };
            let next_flag = if i < 2 { DESC_F_NEXT } else { 0 };
            Desc {
                addr: *addr,
                len: *len,
                flags: write_flag | next_flag,
                next: if i < 2 { i as u16 + 1 } else { 0 },
            }
            .write_at(&mut mem, 0x8000, i as u16);
        }
        // Publish a single descriptor pointing at the table.
        let head = drv
            .add_chain(&mut mem, &[BufferSpec::readable(0x8000, 3 * 16)])
            .unwrap();
        // Flip on the INDIRECT flag by rewriting the descriptor.
        let mut d = Desc::read_at(&mem, layout.desc, head);
        d.flags |= DESC_F_INDIRECT;
        d.write_at(&mut mem, layout.desc, head);
        drv.publish(&mut mem, head);

        let (chain, fetches) = dev.resolve_at(&mem, 0).unwrap();
        assert_eq!(chain.desc_count(), 3);
        assert_eq!(fetches, 4); // 1 main + 3 indirect
        assert_eq!(chain.writable_len(), 32);
    }

    #[test]
    fn indirect_partial_descriptor_len_is_malformed() {
        // Regression: a table length that is not a multiple of 16 used to
        // round down, silently ignoring the trailing partial descriptor.
        let mut mem = VecMemory::new(1 << 20);
        let layout = VirtqueueLayout::contiguous(0x1000, 8);
        let mut drv = DriverQueue::new(&mut mem, layout, false);
        let dev = DeviceQueue::new(layout, false, true);
        for i in 0..2u16 {
            Desc {
                addr: 0x100 + i as u64 * 0x100,
                len: 16,
                flags: if i == 0 { DESC_F_NEXT } else { 0 },
                next: if i == 0 { 1 } else { 0 },
            }
            .write_at(&mut mem, 0x8000, i);
        }
        // 2 whole descriptors plus 8 trailing bytes: malformed.
        let head = drv
            .add_chain(&mut mem, &[BufferSpec::readable(0x8000, 2 * 16 + 8)])
            .unwrap();
        let mut d = Desc::read_at(&mem, layout.desc, head);
        d.flags |= DESC_F_INDIRECT;
        d.write_at(&mut mem, layout.desc, head);
        drv.publish(&mut mem, head);
        assert_eq!(
            dev.resolve_at(&mem, 0).unwrap_err(),
            ChainError::BadIndirectLen(2 * 16 + 8)
        );
    }

    #[test]
    fn indirect_rejected_when_not_negotiated() {
        let (mut mem, mut drv, dev) = setup(8, false);
        let head = drv
            .add_chain(&mut mem, &[BufferSpec::readable(0x8000, 16)])
            .unwrap();
        let mut d = Desc::read_at(&mem, dev.layout().desc, head);
        d.flags |= DESC_F_INDIRECT;
        d.write_at(&mut mem, dev.layout().desc, head);
        drv.publish(&mut mem, head);
        assert_eq!(
            dev.resolve_at(&mem, 0).unwrap_err(),
            ChainError::UnexpectedIndirect
        );
    }

    #[test]
    fn full_pipeline_with_wrap() {
        let (mut mem, mut drv, mut dev) = setup(2, false);
        for i in 0..10u32 {
            let head = drv
                .add_and_publish(&mut mem, &[BufferSpec::writable(0x4000, 16)])
                .unwrap();
            let chain = dev.pop_chain(&mem).unwrap().unwrap();
            assert_eq!(chain.head, head);
            let old = dev.complete(&mut mem, chain.head, i);
            let _ = dev.should_interrupt(&mem, old);
            let used = drv.pop_used(&mut mem).unwrap();
            assert_eq!(used.len, i);
        }
        assert_eq!(dev.used_idx(), 10);
        assert_eq!(drv.num_free(), 2);
    }
}
