//! Packed virtqueue layout (VirtIO 1.2 §2.8) — extension.
//!
//! The paper's FPGA framework implements the *split* layout; the packed
//! layout is its designed successor: a single descriptor ring written by
//! both sides, so the device learns about a new buffer with **one**
//! memory read (the descriptor itself carries the availability flag)
//! instead of the split layout's avail-index + avail-entry + descriptor
//! chain walk. For a PCIe device paying ~1.5 µs per read round trip,
//! that is exactly the kind of hardware-latency saving the paper's
//! Fig. 4 motivates — quantified structurally by
//! [`dma_ops_per_transfer`].
//!
//! Layout: `N` 16-byte descriptors
//! `{ le64 addr; le32 len; le16 id; le16 flags }`, plus driver and
//! device event-suppression structures (not modeled — the testbed's
//! interrupt policy lives at a higher layer). Both sides keep a wrap
//! counter starting at 1; a flipped AVAIL/USED flag pair encodes
//! ownership:
//!
//! * driver makes a descriptor available: `AVAIL = wrap`, `USED = !wrap`;
//! * device marks it used: `AVAIL = USED = wrap(device)`.

use crate::device_queue::{ChainBuf, QueueMetrics};
use crate::driver_queue::{BufferSpec, QueueError};
use crate::mem::GuestMemory;

/// Packed-descriptor flag: buffer continues in the next descriptor.
pub const PACKED_F_NEXT: u16 = 1;
/// Packed-descriptor flag: device-writable buffer.
pub const PACKED_F_WRITE: u16 = 2;
/// AVAIL ownership bit (bit 7).
pub const PACKED_F_AVAIL: u16 = 1 << 7;
/// USED ownership bit (bit 15).
pub const PACKED_F_USED: u16 = 1 << 15;

/// One packed descriptor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PackedDesc {
    /// Buffer guest-physical address.
    pub addr: u64,
    /// Buffer length (or written length on the used side).
    pub len: u32,
    /// Buffer id (driver-chosen; echoed by the device).
    pub id: u16,
    /// Flags + ownership bits.
    pub flags: u16,
}

impl PackedDesc {
    /// Encoded size.
    pub const SIZE: u64 = 16;

    /// Read entry `slot` of the ring at `ring`.
    pub fn read_at<M: GuestMemory>(mem: &M, ring: u64, slot: u16) -> Self {
        let base = ring + slot as u64 * Self::SIZE;
        PackedDesc {
            addr: mem.read_u64(base),
            len: mem.read_u32(base + 8),
            id: mem.read_u16(base + 12),
            flags: mem.read_u16(base + 14),
        }
    }

    /// Write as entry `slot`. The flags word is written last in the
    /// byte stream (the ownership-publishing store).
    pub fn write_at<M: GuestMemory>(&self, mem: &mut M, ring: u64, slot: u16) {
        let base = ring + slot as u64 * Self::SIZE;
        mem.write_u64(base, self.addr);
        mem.write_u32(base + 8, self.len);
        mem.write_u16(base + 12, self.id);
        mem.write_u16(base + 14, self.flags);
    }

    /// Is this descriptor available to the device, given the device's
    /// current wrap counter?
    pub fn is_avail(&self, wrap: bool) -> bool {
        let avail = self.flags & PACKED_F_AVAIL != 0;
        let used = self.flags & PACKED_F_USED != 0;
        avail == wrap && used != wrap
    }

    /// Has the device marked this descriptor used, from the driver's
    /// wrap perspective?
    pub fn is_used(&self, wrap: bool) -> bool {
        let avail = self.flags & PACKED_F_AVAIL != 0;
        let used = self.flags & PACKED_F_USED != 0;
        avail == wrap && used == wrap
    }
}

/// Driver side of a packed queue.
#[derive(Clone, Debug)]
pub struct PackedDriverQueue {
    ring: u64,
    size: u16,
    avail_slot: u16,
    avail_wrap: bool,
    used_slot: u16,
    used_wrap: bool,
    free: u16,
    next_id: u16,
    /// Chain length by id, to free the right number of slots.
    chain_len: Vec<u16>,
}

/// Device side of a packed queue.
#[derive(Clone, Debug)]
pub struct PackedDeviceQueue {
    ring: u64,
    size: u16,
    slot: u16,
    wrap: bool,
    metrics: QueueMetrics,
}

/// A chain taken by the device.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PackedChain {
    /// Buffer id (from the chain's last descriptor).
    pub id: u16,
    /// The buffers in order.
    pub bufs: Vec<ChainBuf>,
    /// Ring slot the used entry must be written to.
    pub start_slot: u16,
    /// Wrap value for the used entry.
    pub wrap: bool,
}

/// A used element harvested by the driver.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PackedUsed {
    /// Buffer id.
    pub id: u16,
    /// Bytes written by the device.
    pub len: u32,
}

impl PackedDriverQueue {
    /// Driver state over a zeroed ring of `size` descriptors at `ring`.
    pub fn new(ring: u64, size: u16) -> Self {
        assert!(size.is_power_of_two() && size >= 1);
        PackedDriverQueue {
            ring,
            size,
            avail_slot: 0,
            avail_wrap: true,
            used_slot: 0,
            used_wrap: true,
            free: size,
            next_id: 0,
            chain_len: vec![0; size as usize],
        }
    }

    /// Free descriptor slots.
    pub fn num_free(&self) -> u16 {
        self.free
    }

    /// Ring base guest-physical address.
    pub fn ring_addr(&self) -> u64 {
        self.ring
    }

    /// Descriptors in the ring.
    pub fn size(&self) -> u16 {
        self.size
    }

    /// Add a chain; returns its buffer id, or `None` if the ring is
    /// full. The head descriptor's ownership flags are written last (a
    /// real driver orders them with a write barrier).
    pub fn add<M: GuestMemory>(&mut self, mem: &mut M, bufs: &[BufferSpec]) -> Option<u16> {
        let n = bufs.len() as u16;
        if n == 0 || n > self.free {
            return None;
        }
        let id = self.next_id;
        self.next_id = (self.next_id + 1) % self.size;
        let head_slot = self.avail_slot;
        let head_wrap = self.avail_wrap;
        for (i, buf) in bufs.iter().enumerate() {
            let last = i + 1 == bufs.len();
            let slot = self.avail_slot;
            let wrap = self.avail_wrap;
            let mut flags = 0u16;
            if buf.writable {
                flags |= PACKED_F_WRITE;
            }
            if !last {
                flags |= PACKED_F_NEXT;
            }
            // Ownership bits: AVAIL = wrap, USED = !wrap.
            if wrap {
                flags |= PACKED_F_AVAIL;
            } else {
                flags |= PACKED_F_USED;
            }
            // The head descriptor is made available only after the rest
            // of the chain is in place.
            let is_head = i == 0;
            let desc = PackedDesc {
                addr: buf.addr,
                len: buf.len,
                id,
                flags,
            };
            if is_head && bufs.len() > 1 {
                // Write head without ownership first; fix up after.
                let mut hidden = desc;
                // Invert AVAIL so it is not yet available.
                hidden.flags ^= PACKED_F_AVAIL;
                hidden.write_at(mem, self.ring, slot);
            } else {
                desc.write_at(mem, self.ring, slot);
            }
            self.advance_avail();
        }
        if bufs.len() > 1 {
            // Publish the head (flip AVAIL to the correct value).
            let mut head = PackedDesc::read_at(mem, self.ring, head_slot);
            head.flags ^= PACKED_F_AVAIL;
            let _ = head_wrap;
            head.write_at(mem, self.ring, head_slot);
        }
        self.free -= n;
        self.chain_len[id as usize] = n;
        Some(id)
    }

    /// Add a burst of chains in one call — the packed-layout counterpart
    /// of the split queue's `publish_batch`. Returns the buffer ids in
    /// order.
    ///
    /// Guarded the same way: a batch whose total descriptor count exceeds
    /// the free slots would lap the ring and overwrite descriptors the
    /// same burst just made available, so it is rejected before touching
    /// memory ([`QueueError::NoSpace`]); a batch containing an empty
    /// chain is rejected with [`QueueError::EmptyChain`].
    pub fn add_batch<M: GuestMemory>(
        &mut self,
        mem: &mut M,
        chains: &[&[BufferSpec]],
    ) -> Result<Vec<u16>, QueueError> {
        let total: usize = chains.iter().map(|c| c.len()).sum();
        if chains.iter().any(|c| c.is_empty()) {
            return Err(QueueError::EmptyChain);
        }
        if total > self.free as usize {
            return Err(QueueError::NoSpace {
                needed: total.try_into().unwrap_or(u16::MAX),
                free: self.free,
            });
        }
        let mut ids = Vec::with_capacity(chains.len());
        for chain in chains {
            let id = self
                .add(mem, chain)
                .expect("batch pre-checked against free slots");
            ids.push(id);
        }
        Ok(ids)
    }

    fn advance_avail(&mut self) {
        self.avail_slot += 1;
        if self.avail_slot == self.size {
            self.avail_slot = 0;
            self.avail_wrap = !self.avail_wrap;
        }
    }

    /// Harvest one used element, if present.
    pub fn pop_used<M: GuestMemory>(&mut self, mem: &M) -> Option<PackedUsed> {
        let desc = PackedDesc::read_at(mem, self.ring, self.used_slot);
        if !desc.is_used(self.used_wrap) {
            return None;
        }
        let id = desc.id;
        let n = self.chain_len[id as usize];
        assert!(n > 0, "used id {id} was never added");
        self.chain_len[id as usize] = 0;
        // The device consumed n slots starting here.
        for _ in 0..n {
            self.used_slot += 1;
            if self.used_slot == self.size {
                self.used_slot = 0;
                self.used_wrap = !self.used_wrap;
            }
        }
        self.free += n;
        Some(PackedUsed { id, len: desc.len })
    }
}

impl PackedDeviceQueue {
    /// Device state over the ring at `ring`.
    pub fn new(ring: u64, size: u16) -> Self {
        assert!(size.is_power_of_two() && size >= 1);
        PackedDeviceQueue {
            ring,
            size,
            slot: 0,
            wrap: true,
            metrics: QueueMetrics::new(0),
        }
    }

    /// Register this queue's metrics under `index` (the virtio queue
    /// number). Packed rings have no separate avail index, so only the
    /// used and desc-read counters register — backlog is not observable
    /// without probing descriptor ownership bits.
    pub fn set_metrics_index(&mut self, index: u32) {
        self.metrics = QueueMetrics::new(index);
    }

    /// Ring base guest-physical address (device models need it to time
    /// the descriptor DMA they issue).
    pub fn ring_addr(&self) -> u64 {
        self.ring
    }

    /// Guest-physical address of descriptor `slot`.
    pub fn desc_addr(&self, slot: u16) -> u64 {
        self.ring + slot as u64 * PackedDesc::SIZE
    }

    /// The slot the device will examine next.
    pub fn next_slot(&self) -> u16 {
        self.slot
    }

    /// Take the next available chain, if any. One descriptor read per
    /// chain element — no separate avail structure (the packed layout's
    /// advantage for DMA devices).
    pub fn try_take<M: GuestMemory>(&mut self, mem: &M) -> Option<PackedChain> {
        let mut bufs = Vec::new();
        let (id, start_slot, wrap) = self.take_into(mem, &mut bufs)?;
        Some(PackedChain {
            id,
            bufs,
            start_slot,
            wrap,
        })
    }

    /// [`PackedDeviceQueue::try_take`] into `bufs` (cleared first), so a
    /// caller can reuse one buffer list. Returns the buffer id, the
    /// start slot and its wrap value.
    pub fn take_into<M: GuestMemory>(
        &mut self,
        mem: &M,
        bufs: &mut Vec<ChainBuf>,
    ) -> Option<(u16, u16, bool)> {
        let head = PackedDesc::read_at(mem, self.ring, self.slot);
        if !head.is_avail(self.wrap) {
            return None;
        }
        let start_slot = self.slot;
        let wrap = self.wrap;
        bufs.clear();
        let mut id;
        let mut guard = 0;
        loop {
            let d = PackedDesc::read_at(mem, self.ring, self.slot);
            self.metrics.desc_reads.add(1);
            bufs.push(ChainBuf {
                addr: d.addr,
                len: d.len,
                writable: d.flags & PACKED_F_WRITE != 0,
            });
            id = d.id;
            self.advance();
            guard += 1;
            assert!(guard <= self.size, "packed chain exceeds ring size");
            if d.flags & PACKED_F_NEXT == 0 {
                break;
            }
        }
        Some((id, start_slot, wrap))
    }

    fn advance(&mut self) {
        self.slot += 1;
        if self.slot == self.size {
            self.slot = 0;
            self.wrap = !self.wrap;
        }
    }

    /// Publish a used entry for `chain`: a single descriptor write at
    /// the chain's start slot (AVAIL = USED = wrap).
    pub fn complete<M: GuestMemory>(&self, mem: &mut M, chain: &PackedChain, written: u32) {
        self.complete_at(mem, chain.id, chain.start_slot, chain.wrap, written);
    }

    /// [`Self::complete`] for a chain known only by its buffer `id`, the
    /// `slot` it started at and that slot's `wrap` value.
    pub fn complete_at<M: GuestMemory>(
        &self,
        mem: &mut M,
        id: u16,
        slot: u16,
        wrap: bool,
        written: u32,
    ) {
        let mut flags = 0u16;
        if wrap {
            flags |= PACKED_F_AVAIL | PACKED_F_USED;
        }
        PackedDesc {
            addr: 0,
            len: written,
            id,
            flags,
        }
        .write_at(mem, self.ring, slot);
        self.metrics.used.add(1);
    }
}

/// Structural DMA-operation counts per request-response transfer, for
/// the split vs packed comparison (the extension ablation): `(reads,
/// writes)` the device performs against host memory for a chain of
/// `chain_len` descriptors, excluding the payload itself.
pub fn dma_ops_per_transfer(chain_len: usize, packed: bool) -> (usize, usize) {
    if packed {
        // Reads: one per descriptor (ownership rides in the flags).
        // Writes: one used descriptor.
        (chain_len, 1)
    } else {
        // Reads: avail idx + avail entry + one per descriptor.
        // Writes: used entry + used idx (+ avail_event under EVENT_IDX,
        // folded into the idx write here).
        (2 + chain_len, 2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::VecMemory;

    fn setup(size: u16) -> (VecMemory, PackedDriverQueue, PackedDeviceQueue) {
        let mem = VecMemory::new(1 << 20);
        (
            mem,
            PackedDriverQueue::new(0x1000, size),
            PackedDeviceQueue::new(0x1000, size),
        )
    }

    #[test]
    fn single_descriptor_round_trip() {
        let (mut mem, mut drv, mut dev) = setup(8);
        let id = drv
            .add(&mut mem, &[BufferSpec::readable(0x5000, 64)])
            .unwrap();
        assert_eq!(drv.num_free(), 7);
        let chain = dev.try_take(&mem).unwrap();
        assert_eq!(chain.id, id);
        assert_eq!(
            chain.bufs,
            vec![ChainBuf {
                addr: 0x5000,
                len: 64,
                writable: false
            }]
        );
        dev.complete(&mut mem, &chain, 0);
        let used = drv.pop_used(&mem).unwrap();
        assert_eq!(used.id, id);
        assert_eq!(drv.num_free(), 8);
    }

    #[test]
    fn empty_ring_yields_nothing() {
        let (mem, mut drv, mut dev) = setup(4);
        assert!(dev.try_take(&mem).is_none());
        assert!(drv.pop_used(&mem).is_none());
    }

    #[test]
    fn chains_take_and_complete_atomically() {
        let (mut mem, mut drv, mut dev) = setup(8);
        let id = drv
            .add(
                &mut mem,
                &[
                    BufferSpec::readable(0x5000, 12),
                    BufferSpec::readable(0x6000, 100),
                    BufferSpec::writable(0x7000, 2048),
                ],
            )
            .unwrap();
        let chain = dev.try_take(&mem).unwrap();
        assert_eq!(chain.id, id);
        assert_eq!(chain.bufs.len(), 3);
        assert!(chain.bufs[2].writable);
        dev.complete(&mut mem, &chain, 500);
        let used = drv.pop_used(&mem).unwrap();
        assert_eq!(used.len, 500);
        assert_eq!(drv.num_free(), 8);
    }

    #[test]
    fn wrap_counter_flips_correctly() {
        let (mut mem, mut drv, mut dev) = setup(4);
        // Push 25 single-descriptor transfers through a 4-slot ring:
        // forces 6+ wraps on both sides.
        for i in 0..25u32 {
            let id = drv
                .add(
                    &mut mem,
                    &[BufferSpec::readable(0x5000 + i as u64 * 64, 64)],
                )
                .unwrap();
            let chain = dev.try_take(&mem).unwrap();
            assert_eq!(chain.id, id);
            assert_eq!(chain.bufs[0].addr, 0x5000 + i as u64 * 64);
            dev.complete(&mut mem, &chain, i);
            assert_eq!(drv.pop_used(&mem).unwrap().len, i);
        }
        assert_eq!(drv.num_free(), 4);
    }

    #[test]
    fn full_ring_rejects_add() {
        let (mut mem, mut drv, _dev) = setup(4);
        for _ in 0..4 {
            assert!(drv.add(&mut mem, &[BufferSpec::readable(0, 1)]).is_some());
        }
        assert!(drv.add(&mut mem, &[BufferSpec::readable(0, 1)]).is_none());
    }

    #[test]
    fn head_published_last_for_chains() {
        // Before the head flip, a device polling mid-add must not see
        // the chain.
        let (mut mem, _drv, mut dev) = setup(8);
        // Manually write a 2-desc chain with the head still hidden.
        PackedDesc {
            addr: 0x5000,
            len: 8,
            id: 0,
            flags: PACKED_F_NEXT | PACKED_F_USED, // AVAIL clear with wrap=true → hidden
        }
        .write_at(&mut mem, 0x1000, 0);
        PackedDesc {
            addr: 0x6000,
            len: 8,
            id: 0,
            flags: PACKED_F_AVAIL, // tail in place
        }
        .write_at(&mut mem, 0x1000, 1);
        assert!(dev.try_take(&mem).is_none(), "hidden head must block");
        // Flip the head's AVAIL bit: now visible.
        let mut head = PackedDesc::read_at(&mem, 0x1000, 0);
        head.flags = (head.flags & !PACKED_F_USED) | PACKED_F_AVAIL;
        head.write_at(&mut mem, 0x1000, 0);
        assert!(dev.try_take(&mem).is_some());
    }

    #[test]
    fn interleaved_pipelining() {
        // Multiple chains in flight; completions in device order.
        let (mut mem, mut drv, mut dev) = setup(16);
        let mut ids = Vec::new();
        for i in 0..5u64 {
            ids.push(
                drv.add(&mut mem, &[BufferSpec::readable(0x5000 + i * 256, 256)])
                    .unwrap(),
            );
        }
        for expect in &ids {
            let chain = dev.try_take(&mem).unwrap();
            assert_eq!(chain.id, *expect);
            dev.complete(&mut mem, &chain, 0);
        }
        for expect in &ids {
            assert_eq!(drv.pop_used(&mem).unwrap().id, *expect);
        }
    }

    #[test]
    fn add_batch_longer_than_ring_is_rejected() {
        // Same regression class as the split queue's publish_batch: a
        // burst with more descriptors than free slots must be rejected
        // atomically instead of lapping the ring.
        let (mut mem, mut drv, mut dev) = setup(4);
        let buf = |addr| BufferSpec::readable(addr, 64);
        let chains: Vec<[BufferSpec; 1]> = (0..5).map(|i| [buf(0x5000 + i * 64)]).collect();
        let refs: Vec<&[BufferSpec]> = chains.iter().map(|c| &c[..]).collect();
        let err = drv.add_batch(&mut mem, &refs).unwrap_err();
        assert_eq!(err, QueueError::NoSpace { needed: 5, free: 4 });
        // Nothing became visible to the device.
        assert_eq!(drv.num_free(), 4);
        assert!(dev.try_take(&mem).is_none());
        // A full-ring batch is still fine, and every chain is takeable.
        let ids = drv.add_batch(&mut mem, &refs[..4]).unwrap();
        assert_eq!(ids.len(), 4);
        for expect in &ids {
            let chain = dev.try_take(&mem).unwrap();
            assert_eq!(chain.id, *expect);
        }
    }

    #[test]
    fn add_batch_rejects_empty_chain() {
        let (mut mem, mut drv, _dev) = setup(4);
        let one = [BufferSpec::readable(0x5000, 8)];
        let err = drv.add_batch(&mut mem, &[&one, &[]]).unwrap_err();
        assert_eq!(err, QueueError::EmptyChain);
        assert_eq!(drv.num_free(), 4);
    }

    #[test]
    fn dma_op_counts_favor_packed() {
        // The structural argument for the extension: fewer device
        // round-trips per transfer.
        let (sr, sw) = dma_ops_per_transfer(2, false);
        let (pr, pw) = dma_ops_per_transfer(2, true);
        assert_eq!((sr, sw), (4, 2));
        assert_eq!((pr, pw), (2, 1));
        assert!(pr < sr && pw < sw);
    }
}
