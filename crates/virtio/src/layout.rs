//! One ring type per side of the link, over both virtqueue layouts.
//!
//! The split layout (§2.7: descriptor table, avail ring, used ring) and
//! the packed layout (§2.8: one descriptor ring whose ownership bits
//! ride in each descriptor) carry the same chains; they differ only in
//! *where* each side reads and writes. [`DeviceRing`] and
//! [`DriverRing`] hide that difference, so the FPGA walkers and the host
//! front ends are written once. The device side asks its ring five
//! questions:
//!
//! * **prologue** — what to read before the first chain: split reads
//!   the avail index, packed reads nothing for a batch walk and the next
//!   16-byte slot for an RX delivery ([`DeviceRing::prologue`]);
//! * **next chain** — as one [`RingChain`] of [`ChainBuf`]s for both
//!   layouts ([`DeviceRing::next_chain`]);
//! * **descriptor fetch** — split reads `16 × fetches` at the head,
//!   packed a 64-byte burst at the slot ([`RingChain::desc_read`]);
//! * **used write-back** — split writes an 8-byte used entry plus the
//!   2-byte index, packed one 16-byte descriptor ([`Used::writes`]);
//! * **interrupt** — split asks EVENT_IDX (or the avail flags), packed
//!   follows the queue's role ([`Used::irq`]).

use vf_pcie::HostMemory;

use crate::device_queue::{check_inside, ChainBuf, ChainError, DeviceQueue};
use crate::driver_queue::{BufferSpec, DriverQueue, QueueError};
use crate::mem::GuestMemory;
use crate::packed::{PackedDesc, PackedDeviceQueue, PackedDriverQueue};
use crate::ring::{Desc, UsedElem, VirtqueueLayout};

/// Bytes of one packed descriptor burst: a short chain plus the
/// look-ahead slot whose stale AVAIL phase ends the walk, in one read.
const PACKED_DESC_BURST: usize = 64;

/// A descriptor chain the device took off either layout.
#[derive(Clone, Debug)]
pub struct RingChain {
    /// The id the used entry carries back: the split head descriptor
    /// index, or the packed buffer id.
    pub id: u16,
    /// Buffers in chain order.
    pub bufs: Vec<ChainBuf>,
    /// Descriptors read to resolve the chain (indirect entries count).
    pub fetches: usize,
    /// The read that fetches the chain's descriptors: `(addr, len)`.
    pub desc_read: (u64, usize),
    /// Packed only: the slot and wrap value the used descriptor goes to.
    used_slot: (u16, bool),
}

impl RingChain {
    /// Total device-readable bytes.
    pub fn readable_len(&self) -> usize {
        self.bufs
            .iter()
            .filter(|b| !b.writable)
            .map(|b| b.len as usize)
            .sum()
    }
}

/// How the device publishes one completion.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Used {
    writes: [(u64, usize); 2],
    count: usize,
    /// Whether the ring asks for the completion interrupt.
    pub irq: bool,
}

impl Used {
    /// The posted writes that make the completion visible, in wire
    /// order: `(addr, len)`.
    pub fn writes(&self) -> &[(u64, usize)] {
        &self.writes[..self.count]
    }
}

/// The device side of one virtqueue, in whichever layout was negotiated.
///
/// The ring also keeps the buffer lists of chains handed back through
/// [`DeviceRing::recycle`], so a warm walker takes chains without
/// allocating.
#[derive(Clone, Debug)]
pub struct DeviceRing {
    kind: RingKind,
    /// Buffer lists of recycled chains, reused by the next chains.
    spare: Vec<Vec<ChainBuf>>,
    /// The ring area the last prologue found outside guest memory: the
    /// walk it opened takes no chain.
    fault: Option<ChainError>,
}

#[derive(Clone, Debug)]
enum RingKind {
    /// Split layout, with the avail index the last prologue read (the
    /// end of the current walk).
    Split { q: DeviceQueue, avail: u16 },
    /// Packed layout; `irq` says whether completions interrupt (see
    /// [`DeviceRing::packed`]).
    Packed { q: PackedDeviceQueue, irq: bool },
}

impl DeviceRing {
    fn new(kind: RingKind) -> Self {
        DeviceRing {
            kind,
            spare: Vec::new(),
            fault: None,
        }
    }

    /// Split ring at `layout` serving virtio queue `index`.
    pub fn split(layout: VirtqueueLayout, event_idx: bool, indirect: bool, index: u16) -> Self {
        // Odd queues are the host-driven transmitqs of the net/console
        // personas; even rings are pre-posted (RX, control) and must not
        // arm the stall watchdog while idle.
        let q = DeviceQueue::new(layout, event_idx, indirect, index as u32, index % 2 == 1);
        DeviceRing::new(RingKind::Split { q, avail: 0 })
    }

    /// Packed ring of `size` descriptors at `ring` serving virtio queue
    /// `index`. The packed front ends negotiate no event suppression, so
    /// the queue's role fixes the interrupt policy: even queues (RX,
    /// control) interrupt on every completion, odd queues (TX) never do.
    pub fn packed(ring: u64, size: u16, index: u16) -> Self {
        DeviceRing::new(RingKind::Packed {
            q: PackedDeviceQueue::new(ring, size, index as u32),
            irq: index.is_multiple_of(2),
        })
    }

    /// Whether this is a packed ring.
    pub fn is_packed(&self) -> bool {
        matches!(self.kind, RingKind::Packed { .. })
    }

    /// Trace name of this layout's descriptor reads.
    pub fn desc_trace(&self) -> &'static str {
        match self.kind {
            RingKind::Split { .. } => "desc_read_split",
            RingKind::Packed { .. } => "desc_read_packed",
        }
    }

    /// The read a walker issues before its first chain, as
    /// `(addr, len)`. Split reads the avail index, which also bounds the
    /// walk: with every new ring entry in one burst of at most 64 bytes,
    /// or (`one_chain`, RX delivery) the 8 bytes covering the index and
    /// the next entry. Packed reads nothing for a batch walk, since each
    /// descriptor carries its own availability; for `one_chain` it reads
    /// the next 16-byte slot, which says both *whether* a buffer is
    /// posted and *where* it is.
    ///
    /// The prologue first checks that the ring's areas lie inside guest
    /// memory, once per walk: if one does not, it reads nothing and the
    /// walk's first [`next_chain`](Self::next_chain) returns
    /// [`ChainError::OutsideMemory`].
    pub fn prologue<M: GuestMemory>(&mut self, mem: &M, one_chain: bool) -> Option<(u64, usize)> {
        self.fault = self.check_areas(mem).err();
        if self.fault.is_some() {
            return None;
        }
        match &mut self.kind {
            RingKind::Split { q, avail } => {
                *avail = q.fetch_avail_idx(mem);
                let len = if one_chain {
                    8
                } else {
                    (2 + 2 * avail.wrapping_sub(q.last_avail()) as usize).min(64)
                };
                Some((q.layout().avail_idx_addr(), len))
            }
            RingKind::Packed { q, .. } => {
                one_chain.then(|| (q.desc_addr(q.next_slot()), PackedDesc::SIZE as usize))
            }
        }
    }

    /// Take the next chain of this walk, if any, into a recycled buffer
    /// list when one is spare. A chain that cannot be resolved (a
    /// descriptor loop, a bad index, a malformed indirect table, a
    /// buffer or table outside guest memory, an avail index that jumped
    /// past the queue size) is an error and is left in place, and so is
    /// every chain of a walk whose prologue found a ring area outside
    /// guest memory.
    pub fn next_chain<M: GuestMemory>(&mut self, mem: &M) -> Result<Option<RingChain>, ChainError> {
        if let Some(fault) = self.fault {
            return Err(fault);
        }
        let mut bufs = self.spare.pop().unwrap_or_default();
        let chain = match &mut self.kind {
            RingKind::Split { q, avail }
                if avail.wrapping_sub(q.last_avail()) > q.layout().size =>
            {
                Err(ChainError::AvailJump(avail.wrapping_sub(q.last_avail())))
            }
            RingKind::Split { q, avail } if q.last_avail() != *avail => q
                .resolve_into(mem, q.last_avail(), &mut bufs)
                .map(|(id, fetches)| {
                    q.advance();
                    Some(RingChain {
                        id,
                        desc_read: (q.layout().desc_addr(id), 16 * fetches),
                        fetches,
                        bufs: std::mem::take(&mut bufs),
                        used_slot: (0, false),
                    })
                }),
            RingKind::Split { .. } => Ok(None),
            RingKind::Packed { q, .. } => q.take_into(mem, &mut bufs).map(|taken| {
                taken.map(|(id, slot, wrap)| RingChain {
                    id,
                    fetches: bufs.len(),
                    bufs: std::mem::take(&mut bufs),
                    desc_read: (q.desc_addr(slot), PACKED_DESC_BURST),
                    used_slot: (slot, wrap),
                })
            }),
        };
        if !matches!(chain, Ok(Some(_))) {
            self.spare.push(bufs);
        }
        chain
    }

    /// `Err(OutsideMemory)` for the first of the ring's areas (split:
    /// descriptor table, avail and used areas; packed: the descriptor
    /// ring) that does not lie inside `mem`.
    fn check_areas<M: GuestMemory>(&self, mem: &M) -> Result<(), ChainError> {
        match &self.kind {
            RingKind::Split { q, .. } => {
                let l = q.layout();
                check_inside(mem, l.desc, Desc::SIZE as u32 * u32::from(l.size))?;
                check_inside(mem, l.avail, VirtqueueLayout::avail_bytes(l.size) as u32)?;
                check_inside(mem, l.used, VirtqueueLayout::used_bytes(l.size) as u32)
            }
            RingKind::Packed { q, .. } => q.check_ring(mem),
        }
    }

    /// Hand a finished chain's buffer list back for the next chains.
    pub fn recycle(&mut self, chain: RingChain) {
        self.spare.push(chain.bufs);
    }

    /// Put back `chain`, the last one taken, without consuming it: the
    /// next walk takes it again.
    pub fn requeue(&mut self, chain: RingChain) {
        match &mut self.kind {
            RingKind::Split { q, .. } => q.retreat(),
            RingKind::Packed { q, .. } => q.rewind(chain.used_slot),
        }
        self.recycle(chain);
    }

    /// Publish `chain`'s completion with `written` bytes: update the
    /// ring in memory and return the writes to time and whether to
    /// interrupt.
    pub fn complete<M: GuestMemory>(
        &mut self,
        mem: &mut M,
        chain: &RingChain,
        written: u32,
    ) -> Used {
        match &mut self.kind {
            RingKind::Split { q, .. } => {
                let old = q.complete(mem, chain.id, written);
                let l = *q.layout();
                Used {
                    writes: [(l.used_ring_addr(old % l.size), 8), (l.used_idx_addr(), 2)],
                    count: 2,
                    irq: q.should_interrupt(mem, old),
                }
            }
            RingKind::Packed { q, irq } => {
                let (slot, wrap) = chain.used_slot;
                q.complete_at(mem, chain.id, slot, wrap, written);
                Used {
                    writes: [(q.desc_addr(slot), PackedDesc::SIZE as usize), (0, 0)],
                    count: 1,
                    irq: *irq,
                }
            }
        }
    }
}

/// The driver side of one virtqueue, in either layout.
#[derive(Clone, Debug)]
pub enum DriverRing {
    /// Split layout.
    Split(DriverQueue),
    /// Packed layout.
    Packed(PackedDriverQueue),
}

impl DriverRing {
    /// Allocate a zeroed, page-aligned ring of `size` descriptors in
    /// `mem`: the three contiguous split areas, or one packed descriptor
    /// array. `event_idx` applies to the split layout only.
    pub fn alloc(mem: &mut HostMemory, size: u16, packed: bool, event_idx: bool) -> Self {
        if packed {
            let ring = mem.alloc(size as usize * PackedDesc::SIZE as usize, 4096);
            DriverRing::Packed(PackedDriverQueue::new(ring, size))
        } else {
            let layout = VirtqueueLayout::contiguous(0, size);
            let base = mem.alloc(layout.total_bytes() as usize, 4096);
            let layout = VirtqueueLayout::contiguous(base, size);
            DriverRing::Split(DriverQueue::new(mem, layout, event_idx))
        }
    }

    /// Whether this is a packed ring.
    pub fn is_packed(&self) -> bool {
        matches!(self, DriverRing::Packed(_))
    }

    /// The queue-register areas the driver programs, as the device reads
    /// them back: a packed ring has only a descriptor area, so its
    /// driver and device areas are zero.
    pub fn areas(&self) -> VirtqueueLayout {
        match self {
            DriverRing::Split(q) => *q.layout(),
            DriverRing::Packed(q) => VirtqueueLayout {
                desc: q.ring_addr(),
                avail: 0,
                used: 0,
                size: q.size(),
            },
        }
    }

    /// Free descriptors remaining.
    pub fn num_free(&self) -> u16 {
        match self {
            DriverRing::Split(q) => q.num_free(),
            DriverRing::Packed(q) => q.num_free(),
        }
    }

    /// Add and publish one chain; returns its id (split head index or
    /// packed buffer id), or `None` if the ring is full.
    pub fn publish<M: GuestMemory>(&mut self, mem: &mut M, bufs: &[BufferSpec]) -> Option<u16> {
        match self {
            DriverRing::Split(q) => q.add_and_publish(mem, bufs).ok(),
            DriverRing::Packed(q) => q.add(mem, bufs),
        }
    }

    /// Add one chain and return its id, or `None` if the ring is full.
    /// A split chain stays unpublished until [`Self::publish_batch`]; a
    /// packed chain is available as soon as it is added.
    pub fn add<M: GuestMemory>(&mut self, mem: &mut M, bufs: &[BufferSpec]) -> Option<u16> {
        match self {
            DriverRing::Split(q) => q.add_chain(mem, bufs).ok(),
            DriverRing::Packed(q) => q.add(mem, bufs),
        }
    }

    /// Publish chains [`Self::add`] built, in order: on a split ring the
    /// avail entries, then one avail-index store
    /// ([`DriverQueue::publish_batch`]).
    pub fn publish_batch<M: GuestMemory>(
        &mut self,
        mem: &mut M,
        heads: &[u16],
    ) -> Result<(), QueueError> {
        match self {
            DriverRing::Split(q) => q.publish_batch(mem, heads).map(drop),
            DriverRing::Packed(_) => Ok(()),
        }
    }

    /// [`Self::publish`], plus whether the doorbell must ring. Split asks
    /// the device's suppression state; without EVENT_IDX a packed ring
    /// always notifies.
    pub fn publish_notify<M: GuestMemory>(
        &mut self,
        mem: &mut M,
        bufs: &[BufferSpec],
    ) -> Option<(u16, bool)> {
        match self {
            DriverRing::Split(q) => {
                let old = q.avail_idx();
                let head = q.add_and_publish(mem, bufs).ok()?;
                Some((head, q.needs_notify(mem, old)))
            }
            DriverRing::Packed(q) => Some((q.add(mem, bufs)?, true)),
        }
    }

    /// Harvest one used element, if present.
    pub fn pop_used<M: GuestMemory>(&mut self, mem: &mut M) -> Option<UsedElem> {
        match self {
            DriverRing::Split(q) => q.pop_used(mem),
            DriverRing::Packed(q) => q.pop_used(mem).map(|u| UsedElem {
                id: u.id as u32,
                len: u.len,
            }),
        }
    }

    /// Park the split ring's `used_event` (see
    /// [`DriverQueue::park_used_event`]); a packed ring has none.
    pub fn park_used_event<M: GuestMemory>(&self, mem: &mut M) {
        if let DriverRing::Split(q) = self {
            q.park_used_event(mem);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Push `n` request/response chains through a driver/device ring
    /// pair of either layout; returns the device's descriptor reads.
    fn round_trips(packed: bool, n: u32) -> Vec<(u64, usize)> {
        let mut mem = HostMemory::testbed_default();
        let mut drv = DriverRing::alloc(&mut mem, 8, packed, false);
        let a = drv.areas();
        let mut dev = if packed {
            DeviceRing::packed(a.desc, a.size, 0)
        } else {
            DeviceRing::split(a, false, false, 0)
        };
        let mut reads = Vec::new();
        for i in 0..n {
            let bufs = [
                BufferSpec::readable(0x10_0000, 16),
                BufferSpec::writable(0x10_1000, 64),
            ];
            let (id, notify) = drv.publish_notify(&mut mem, &bufs).unwrap();
            assert!(notify);
            reads.extend(dev.prologue(&mem, false));
            let chain = dev.next_chain(&mem).unwrap().unwrap();
            assert_eq!(chain.id, id);
            assert_eq!(chain.fetches, 2);
            assert_eq!(chain.readable_len(), 16);
            reads.push(chain.desc_read);
            assert!(
                dev.next_chain(&mem).unwrap().is_none(),
                "one chain per walk"
            );
            let used = dev.complete(&mut mem, &chain, i);
            assert!(used.irq);
            assert_eq!(used.writes().len(), if packed { 1 } else { 2 });
            let got = drv.pop_used(&mut mem).unwrap();
            assert_eq!((got.id, got.len), (id as u32, i));
        }
        assert_eq!(drv.num_free(), 8);
        reads
    }

    #[test]
    fn both_layouts_round_trip_with_their_own_reads() {
        let split = round_trips(false, 20);
        let packed = round_trips(true, 20);
        // Split: avail-index prologue + a 2-descriptor table read per
        // walk. Packed: one 64-byte burst per chain, no prologue.
        assert_eq!(split.len(), 40);
        assert!(split.iter().skip(1).step_by(2).all(|&(_, len)| len == 32));
        assert_eq!(packed.len(), 20);
        assert!(packed.iter().all(|&(_, len)| len == PACKED_DESC_BURST));
    }

    #[test]
    fn packed_interrupts_follow_queue_role() {
        let mut mem = HostMemory::testbed_default();
        for (index, want) in [(0u16, true), (1, false), (2, true)] {
            let mut drv = DriverRing::alloc(&mut mem, 4, true, false);
            let mut dev = DeviceRing::packed(drv.areas().desc, 4, index);
            assert_eq!(drv.areas().avail, 0, "packed rings program no driver area");
            drv.publish(&mut mem, &[BufferSpec::writable(0x10_0000, 8)])
                .unwrap();
            // RX delivery: the prologue is the descriptor slot itself.
            assert_eq!(dev.prologue(&mem, true), Some((drv.areas().desc, 16)));
            let chain = dev.next_chain(&mem).unwrap().unwrap();
            assert_eq!(dev.complete(&mut mem, &chain, 8).irq, want, "queue {index}");
        }
    }
}
