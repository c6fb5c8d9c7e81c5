//! Device-side split-virtqueue state.
//!
//! This is what the paper's FPGA VirtIO controller does in hardware: on a
//! doorbell, read the driver's avail index, resolve the new avail entries
//! into descriptor chains, move the data, then publish used entries and
//! decide whether to interrupt.
//!
//! The public face of this state is [`crate::DeviceRing`], which walkers
//! and software back ends drive over either layout; it returns each
//! access as an `(addr, len)` read or write for the FPGA controller to
//! charge as timed PCIe DMA. This module keeps the split layout's
//! bookkeeping behind it and the chain types both layouts share.

use vf_metrics::{names, Counter, Gauge};

use crate::mem::GuestMemory;
use crate::ring::{
    vring_need_event, Desc, UsedElem, VirtqueueLayout, AVAIL_F_NO_INTERRUPT, DESC_F_INDIRECT,
};

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
    /// An indirect table entry is itself indirect (VirtIO 1.2 §2.7.5.3.1:
    /// the driver must not set `INDIRECT` inside a table).
    NestedIndirect,
    /// The avail index is this many entries ahead of the device, more
    /// than the queue holds: the driver never made that many buffers
    /// available.
    AvailJump(u16),
    /// A buffer or an indirect table does not lie inside guest memory.
    OutsideMemory {
        /// Its guest-physical address.
        addr: u64,
        /// Its length in bytes.
        len: u32,
    },
}

/// `Err(OutsideMemory)` unless `mem` holds all `len` bytes at `addr`.
pub(crate) fn check_inside<M: GuestMemory>(mem: &M, addr: u64, len: u32) -> Result<(), ChainError> {
    let bounds = mem.bounds();
    match addr.checked_add(u64::from(len)) {
        Some(end) if addr >= bounds.start && end <= bounds.end => Ok(()),
        _ => Err(ChainError::OutsideMemory { addr, len }),
    }
}

/// Device-side state of one split virtqueue.
#[derive(Clone, Debug)]
pub(crate) struct DeviceQueue {
    layout: VirtqueueLayout,
    /// Next avail entry to process.
    last_avail: u16,
    /// Our published used index.
    used_idx: u16,
    event_idx: bool,
    indirect: bool,
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
    /// Device-side view of the queue at `layout`, whose metrics register
    /// under `index` (the virtio queue number), so per-queue
    /// backlog/used/desc-read series stay distinguishable in multi-queue
    /// devices. `watch_backlog` marks a host-driven (TX) queue whose
    /// backlog gauge the stall watchdog monitors; it is false for
    /// pre-posted rings.
    pub(crate) fn new(
        layout: VirtqueueLayout,
        event_idx: bool,
        indirect: bool,
        index: u32,
        watch_backlog: bool,
    ) -> Self {
        DeviceQueue {
            layout,
            last_avail: 0,
            used_idx: 0,
            event_idx,
            indirect,
            backlog: backlog_gauge(index, watch_backlog),
            metrics: QueueMetrics::new(index),
        }
    }

    /// The queue's layout.
    pub(crate) fn layout(&self) -> &VirtqueueLayout {
        &self.layout
    }

    /// Our next unprocessed avail position.
    pub(crate) fn last_avail(&self) -> u16 {
        self.last_avail
    }

    /// Read the driver's current avail index (2-byte read).
    pub(crate) fn fetch_avail_idx<M: GuestMemory>(&self, mem: &M) -> u16 {
        let idx = mem.read_u16(self.layout.avail_idx_addr());
        // The freshest view of the backlog the device can have: on TX
        // queues the stall watchdog keys on this gauge staying nonzero
        // while the used counter below stands still.
        self.backlog.set(idx.wrapping_sub(self.last_avail) as i64);
        idx
    }

    /// Resolve the descriptor chain at avail position `pos` into `bufs`
    /// (cleared first) without consuming it, following an indirect
    /// table if negotiated. Returns the head index and the descriptors
    /// read.
    pub(crate) fn resolve_into<M: GuestMemory>(
        &self,
        mem: &M,
        pos: u16,
        bufs: &mut Vec<ChainBuf>,
    ) -> Result<(u16, usize), ChainError> {
        bufs.clear();
        let head = mem.read_u16(self.layout.avail_ring_addr(pos % self.layout.size));
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
            let d = Desc::read_at(mem, self.layout.desc, idx);
            self.metrics.desc_reads.add(1);
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
                check_inside(mem, d.addr, d.len)?;
                for i in 0..count {
                    let e = Desc::read_at(mem, d.addr, i as u16);
                    self.metrics.desc_reads.add(1);
                    fetches += 1;
                    if e.flags & DESC_F_INDIRECT != 0 {
                        return Err(ChainError::NestedIndirect);
                    }
                    check_inside(mem, e.addr, e.len)?;
                    bufs.push(ChainBuf {
                        addr: e.addr,
                        len: e.len,
                        writable: e.is_write(),
                    });
                }
                break;
            }
            check_inside(mem, d.addr, d.len)?;
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

    /// Advance past one avail entry once its chain is resolved.
    pub(crate) fn advance(&mut self) {
        self.last_avail = self.last_avail.wrapping_add(1);
        self.backlog.add(-1);
    }

    /// Step back over the last avail entry taken, leaving it for the
    /// next walk.
    pub(crate) fn retreat(&mut self) {
        self.last_avail = self.last_avail.wrapping_sub(1);
        self.backlog.add(1);
    }

    /// Publish a completion: used ring entry + index. `written` is the
    /// number of bytes written into the chain's writable buffers. Returns
    /// the previous used index (needed for the interrupt decision).
    pub(crate) fn complete<M: GuestMemory>(&mut self, mem: &mut M, head: u16, written: u32) -> u16 {
        let old = self.used_idx;
        let slot = self.used_idx % self.layout.size;
        UsedElem {
            id: head as u32,
            len: written,
        }
        .write_at(mem, self.layout.used_ring_addr(slot));
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
    pub(crate) fn should_interrupt<M: GuestMemory>(&self, mem: &M, old_used: u16) -> bool {
        if self.event_idx {
            let used_event = mem.read_u16(self.layout.used_event_addr());
            vring_need_event(used_event, self.used_idx, old_used)
        } else {
            mem.read_u16(self.layout.avail_flags_addr()) & AVAIL_F_NO_INTERRUPT == 0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver_queue::{BufferSpec, DriverQueue};
    use crate::layout::{DeviceRing, RingChain};
    use crate::mem::VecMemory;
    use crate::ring::{DESC_F_NEXT, DESC_F_WRITE};

    fn setup(size: u16, event_idx: bool) -> (VecMemory, DriverQueue, DeviceRing) {
        let mut mem = VecMemory::new(1 << 20);
        let layout = VirtqueueLayout::contiguous(0x1000, size);
        let drv = DriverQueue::new(&mut mem, layout, event_idx);
        let dev = DeviceRing::split(layout, event_idx, false, 0);
        (mem, drv, dev)
    }

    /// Every chain published so far, or the first resolution error.
    fn take_all(dev: &mut DeviceRing, mem: &VecMemory) -> Result<Vec<RingChain>, ChainError> {
        dev.prologue(mem, false);
        std::iter::from_fn(|| dev.next_chain(mem).transpose()).collect()
    }

    fn writable_len(chain: &RingChain) -> u32 {
        chain
            .bufs
            .iter()
            .filter(|b| b.writable)
            .map(|b| b.len)
            .sum()
    }

    /// An indirect table of `descs` at 0x8000, published as the one
    /// descriptor of a chain whose table length is `table_len`.
    fn publish_indirect(
        mem: &mut VecMemory,
        drv: &mut DriverQueue,
        descs: &[(u64, u32, bool)],
        table_len: u32,
    ) {
        for (i, &(addr, len, write)) in descs.iter().enumerate() {
            let more = i + 1 < descs.len();
            Desc {
                addr,
                len,
                flags: if write { DESC_F_WRITE } else { 0 } | if more { DESC_F_NEXT } else { 0 },
                next: if more { i as u16 + 1 } else { 0 },
            }
            .write_at(mem, 0x8000, i as u16);
        }
        let head = drv
            .add_chain(mem, &[BufferSpec::readable(0x8000, table_len)])
            .unwrap();
        // Flip on the INDIRECT flag by rewriting the descriptor.
        let table = drv.layout().desc;
        let mut d = Desc::read_at(mem, table, head);
        d.flags |= DESC_F_INDIRECT;
        d.write_at(mem, table, head);
        drv.publish(mem, head);
    }

    #[test]
    fn device_sees_published_chain() {
        let (mut mem, mut drv, mut dev) = setup(8, false);
        assert!(take_all(&mut dev, &mem).unwrap().is_empty());
        drv.add_and_publish(
            &mut mem,
            &[
                BufferSpec::readable(0x5000, 100),
                BufferSpec::writable(0x6000, 200),
            ],
        )
        .unwrap();
        let chains = take_all(&mut dev, &mem).unwrap();
        assert_eq!(chains.len(), 1);
        assert_eq!(chains[0].bufs.len(), 2);
        assert_eq!(chains[0].readable_len(), 100);
        assert_eq!(writable_len(&chains[0]), 200);
        assert!(take_all(&mut dev, &mem).unwrap().is_empty());
    }

    #[test]
    fn complete_round_trip_to_driver() {
        let (mut mem, mut drv, mut dev) = setup(8, false);
        let head = drv
            .add_and_publish(&mut mem, &[BufferSpec::writable(0x5000, 64)])
            .unwrap();
        let chain = take_all(&mut dev, &mem).unwrap().remove(0);
        assert_eq!(chain.id, head);
        assert!(dev.complete(&mut mem, &chain, 42).irq);
        let used = drv.pop_used(&mut mem).unwrap();
        assert_eq!(used.id, head as u32);
        assert_eq!(used.len, 42);
    }

    #[test]
    fn interrupt_suppressed_by_avail_flag() {
        let (mut mem, mut drv, mut dev) = setup(8, false);
        drv.set_no_interrupt(&mut mem, true);
        drv.add_and_publish(&mut mem, &[BufferSpec::readable(0, 8)])
            .unwrap();
        let chain = take_all(&mut dev, &mem).unwrap().remove(0);
        assert!(!dev.complete(&mut mem, &chain, 0).irq);
    }

    #[test]
    fn event_idx_interrupt_gating() {
        let (mut mem, mut drv, mut dev) = setup(8, true);
        // Driver consumed nothing; used_event = 0 → first completion
        // (0→1) fires.
        drv.add_and_publish(&mut mem, &[BufferSpec::readable(0, 8)])
            .unwrap();
        drv.add_and_publish(&mut mem, &[BufferSpec::readable(8, 8)])
            .unwrap();
        let chains = take_all(&mut dev, &mem).unwrap();
        assert!(dev.complete(&mut mem, &chains[0], 0).irq);
        // Driver hasn't consumed (used_event still 0): second completion
        // (1→2) does not cross it again.
        assert!(!dev.complete(&mut mem, &chains[1], 0).irq);
    }

    #[test]
    fn step_wise_resolution_counts_fetches() {
        let (mut mem, mut drv, mut dev) = setup(8, false);
        drv.add_and_publish(
            &mut mem,
            &[
                BufferSpec::readable(0x100, 10),
                BufferSpec::readable(0x200, 10),
                BufferSpec::writable(0x300, 10),
            ],
        )
        .unwrap();
        let chain = take_all(&mut dev, &mem).unwrap().remove(0);
        assert_eq!(chain.bufs.len(), 3);
        assert_eq!(chain.fetches, 3, "one descriptor fetch per chain element");
        assert_eq!(chain.desc_read.1, 3 * 16, "one table read covers them");
    }

    #[test]
    fn corrupt_loop_detected() {
        let (mut mem, drv, mut dev) = setup(4, false);
        let l = *drv.layout();
        // Hand-build a descriptor loop: 0 → 1 → 0 and an avail entry.
        for (i, next) in [(0, 1), (1, 0)] {
            Desc {
                addr: 0,
                len: 4,
                flags: DESC_F_NEXT,
                next,
            }
            .write_at(&mut mem, l.desc, i);
        }
        mem.write_u16(l.avail_ring_addr(0), 0);
        mem.write_u16(l.avail_idx_addr(), 1);
        assert_eq!(take_all(&mut dev, &mem).unwrap_err(), ChainError::TooLong);
    }

    #[test]
    fn bad_index_detected() {
        let (mut mem, drv, mut dev) = setup(4, false);
        let l = *drv.layout();
        mem.write_u16(l.avail_ring_addr(0), 9); // ≥ size
        mem.write_u16(l.avail_idx_addr(), 1);
        assert_eq!(
            take_all(&mut dev, &mem).unwrap_err(),
            ChainError::BadIndex(9)
        );
    }

    #[test]
    fn indirect_chain_resolves_when_negotiated() {
        let mut mem = VecMemory::new(1 << 20);
        let layout = VirtqueueLayout::contiguous(0x1000, 8);
        let mut drv = DriverQueue::new(&mut mem, layout, false);
        let mut dev = DeviceRing::split(layout, false, true, 0);
        let descs = [(0x100, 16, false), (0x200, 16, false), (0x300, 32, true)];
        publish_indirect(&mut mem, &mut drv, &descs, 3 * 16);
        let chain = take_all(&mut dev, &mem).unwrap().remove(0);
        assert_eq!(chain.bufs.len(), 3);
        assert_eq!(chain.fetches, 4); // 1 main + 3 indirect
        assert_eq!(writable_len(&chain), 32);
    }

    #[test]
    fn indirect_partial_descriptor_len_is_malformed() {
        // Regression: a table length that is not a multiple of 16 used to
        // round down, silently ignoring the trailing partial descriptor.
        let mut mem = VecMemory::new(1 << 20);
        let layout = VirtqueueLayout::contiguous(0x1000, 8);
        let mut drv = DriverQueue::new(&mut mem, layout, false);
        let mut dev = DeviceRing::split(layout, false, true, 0);
        // 2 whole descriptors plus 8 trailing bytes: malformed.
        let descs = [(0x100, 16, false), (0x200, 16, false)];
        publish_indirect(&mut mem, &mut drv, &descs, 2 * 16 + 8);
        assert_eq!(
            take_all(&mut dev, &mem).unwrap_err(),
            ChainError::BadIndirectLen(2 * 16 + 8)
        );
    }

    #[test]
    fn nested_indirect_table_is_malformed() {
        let mut mem = VecMemory::new(1 << 20);
        let layout = VirtqueueLayout::contiguous(0x1000, 8);
        let mut drv = DriverQueue::new(&mut mem, layout, false);
        let mut dev = DeviceRing::split(layout, false, true, 0);
        publish_indirect(&mut mem, &mut drv, &[(0x100, 16, false)], 16);
        // The table's one entry points at another table.
        let mut e = Desc::read_at(&mem, 0x8000, 0);
        e.flags |= DESC_F_INDIRECT;
        e.write_at(&mut mem, 0x8000, 0);
        assert_eq!(
            take_all(&mut dev, &mem).unwrap_err(),
            ChainError::NestedIndirect
        );
    }

    #[test]
    fn buffer_or_table_outside_memory_is_malformed() {
        let (mut mem, mut drv, mut dev) = setup(8, false);
        drv.add_and_publish(&mut mem, &[BufferSpec::writable(u64::MAX - 8, 16)])
            .unwrap();
        let outside = ChainError::OutsideMemory {
            addr: u64::MAX - 8,
            len: 16,
        };
        assert_eq!(take_all(&mut dev, &mem).unwrap_err(), outside);
        // Left in place: the next walk meets it again.
        assert_eq!(take_all(&mut dev, &mem).unwrap_err(), outside);

        // An indirect table past the end, and one whose entry is.
        for (table, entry) in [(1 << 20, 0x100), (0x8000, 1 << 20)] {
            let mut mem = VecMemory::new(1 << 20);
            let layout = VirtqueueLayout::contiguous(0x1000, 8);
            let mut drv = DriverQueue::new(&mut mem, layout, false);
            let mut dev = DeviceRing::split(layout, false, true, 0);
            publish_indirect(&mut mem, &mut drv, &[(entry, 16, false)], 16);
            let mut d = Desc::read_at(&mem, layout.desc, 0);
            d.addr = table;
            d.write_at(&mut mem, layout.desc, 0);
            assert_eq!(
                take_all(&mut dev, &mem).unwrap_err(),
                ChainError::OutsideMemory {
                    addr: 1 << 20,
                    len: 16
                }
            );
        }
    }

    #[test]
    fn avail_index_beyond_queue_size_is_malformed() {
        let (mut mem, drv, mut dev) = setup(4, false);
        mem.write_u16(drv.layout().avail_idx_addr(), 5);
        assert_eq!(
            take_all(&mut dev, &mem).unwrap_err(),
            ChainError::AvailJump(5)
        );
    }

    #[test]
    fn indirect_rejected_when_not_negotiated() {
        let (mut mem, mut drv, mut dev) = setup(8, false);
        publish_indirect(&mut mem, &mut drv, &[(0x100, 16, false)], 16);
        assert_eq!(
            take_all(&mut dev, &mem).unwrap_err(),
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
            let chain = take_all(&mut dev, &mem).unwrap().remove(0);
            assert_eq!(chain.id, head);
            dev.complete(&mut mem, &chain, i);
            dev.recycle(chain);
            let used = drv.pop_used(&mut mem).unwrap();
            assert_eq!(used.len, i);
        }
        assert_eq!(mem.read_u16(drv.layout().used_idx_addr()), 10);
        assert_eq!(drv.num_free(), 2);
    }
}
