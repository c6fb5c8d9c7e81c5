//! Split-virtqueue memory layout (VirtIO 1.2 §2.7).
//!
//! A split virtqueue is three structures in guest memory:
//!
//! ```text
//! struct virtq_desc  { le64 addr; le32 len; le16 flags; le16 next; }   // ×N
//! struct virtq_avail { le16 flags; le16 idx; le16 ring[N]; le16 used_event; }
//! struct virtq_used  { le16 flags; le16 idx;
//!                      struct { le32 id; le32 len; } ring[N]; le16 avail_event; }
//! ```
//!
//! The driver owns the descriptor table and avail ring; the device owns
//! the used ring. `idx` fields are free-running 16-bit counters; the ring
//! slot is `idx % N`. Careful layout — driver-written and device-written
//! structures in separate cache lines — is one of VirtIO's stated design
//! points (§II-A of the paper), and [`VirtqueueLayout::contiguous`]
//! preserves it by aligning each structure.

use crate::mem::GuestMemory;

/// Descriptor flag: buffer continues via the `next` field.
pub const DESC_F_NEXT: u16 = 1;
/// Descriptor flag: buffer is device-writable (response buffer).
pub const DESC_F_WRITE: u16 = 2;
/// Descriptor flag: buffer contains an indirect descriptor table.
pub const DESC_F_INDIRECT: u16 = 4;

/// Avail-ring flag: driver requests no interrupts (polling driver).
pub const AVAIL_F_NO_INTERRUPT: u16 = 1;
/// Used-ring flag: device requests no notifications (busy device).
pub const USED_F_NO_NOTIFY: u16 = 1;

/// One descriptor-table entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Desc {
    /// Guest-physical buffer address.
    pub addr: u64,
    /// Buffer length in bytes.
    pub len: u32,
    /// `DESC_F_*` flags.
    pub flags: u16,
    /// Next descriptor index when `DESC_F_NEXT` is set.
    pub next: u16,
}

impl Desc {
    /// Size of a descriptor in memory.
    pub const SIZE: u64 = 16;

    /// True if this descriptor chains to another.
    pub fn has_next(&self) -> bool {
        self.flags & DESC_F_NEXT != 0
    }

    /// True if the device may write this buffer.
    pub fn is_write(&self) -> bool {
        self.flags & DESC_F_WRITE != 0
    }

    /// The descriptor's 16 bytes as they lie in memory.
    pub(crate) fn to_bytes(self) -> [u8; 16] {
        let v = u128::from(self.addr)
            | u128::from(self.len) << 64
            | u128::from(self.flags) << 96
            | u128::from(self.next) << 112;
        v.to_le_bytes()
    }

    /// Read descriptor `idx` from the table at `table`: one 16-byte load.
    pub fn read_at<M: GuestMemory>(mem: &M, table: u64, idx: u16) -> Desc {
        let mut b = [0u8; 16];
        mem.read(table + idx as u64 * Desc::SIZE, &mut b);
        let v = u128::from_le_bytes(b);
        Desc {
            addr: v as u64,
            len: (v >> 64) as u32,
            flags: (v >> 96) as u16,
            next: (v >> 112) as u16,
        }
    }

    /// Write this descriptor as entry `idx` of the table at `table`: one
    /// 16-byte store.
    pub fn write_at<M: GuestMemory>(&self, mem: &mut M, table: u64, idx: u16) {
        mem.write(table + idx as u64 * Desc::SIZE, &self.to_bytes());
    }
}

/// An entry of the used ring.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UsedElem {
    /// Head descriptor index of the completed chain.
    pub id: u32,
    /// Bytes the device wrote into the chain's writable buffers.
    pub len: u32,
}

impl UsedElem {
    /// Read the entry at `addr`: one 8-byte load of `{ le32 id; le32 len; }`.
    pub fn read_at<M: GuestMemory>(mem: &M, addr: u64) -> UsedElem {
        let v = mem.read_u64(addr);
        UsedElem {
            id: v as u32,
            len: (v >> 32) as u32,
        }
    }

    /// Write this entry at `addr`: one 8-byte store.
    pub fn write_at<M: GuestMemory>(&self, mem: &mut M, addr: u64) {
        mem.write_u64(addr, u64::from(self.id) | u64::from(self.len) << 32);
    }
}

/// Addresses of a virtqueue's three structures plus its size.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VirtqueueLayout {
    /// Descriptor table base (16-byte aligned).
    pub desc: u64,
    /// Avail ring base (2-byte aligned).
    pub avail: u64,
    /// Used ring base (4-byte aligned).
    pub used: u64,
    /// Queue size N (a power of two, ≤ 32768).
    pub size: u16,
}

impl VirtqueueLayout {
    /// Validate a queue size per spec (power of two, 1..=32768).
    pub fn valid_size(n: u16) -> bool {
        n.is_power_of_two() && (1..=32768).contains(&n)
    }

    /// Lay the three structures out contiguously from `base` (which must
    /// be 16-byte aligned), inserting alignment padding. Returns the
    /// layout; [`Self::total_bytes`] tells the caller how much memory the
    /// queue occupies.
    pub fn contiguous(base: u64, size: u16) -> VirtqueueLayout {
        assert!(Self::valid_size(size), "invalid queue size {size}");
        assert_eq!(base % 16, 0, "descriptor table must be 16-byte aligned");
        let desc = base;
        let desc_bytes = size as u64 * Desc::SIZE;
        let avail = desc + desc_bytes; // desc end is 16-aligned ⇒ 2-aligned
        let avail_bytes = Self::avail_bytes(size);
        // Align the used ring up to 4.
        let used = (avail + avail_bytes + 3) & !3;
        VirtqueueLayout {
            desc,
            avail,
            used,
            size,
        }
    }

    /// Bytes occupied by the avail ring (flags, idx, ring, used_event).
    pub fn avail_bytes(size: u16) -> u64 {
        2 + 2 + 2 * size as u64 + 2
    }

    /// Bytes occupied by the used ring (flags, idx, ring, avail_event).
    pub fn used_bytes(size: u16) -> u64 {
        2 + 2 + 8 * size as u64 + 2
    }

    /// Total bytes from `desc` to the end of the used ring.
    pub fn total_bytes(&self) -> u64 {
        self.used + Self::used_bytes(self.size) - self.desc
    }

    // ---- avail ring field addresses (driver-written) ----

    /// Address of `avail.flags`.
    pub fn avail_flags_addr(&self) -> u64 {
        self.avail
    }

    /// Address of `avail.idx`.
    pub fn avail_idx_addr(&self) -> u64 {
        self.avail + 2
    }

    /// Address of `avail.ring[slot]`.
    pub fn avail_ring_addr(&self, slot: u16) -> u64 {
        debug_assert!(slot < self.size);
        self.avail + 4 + 2 * slot as u64
    }

    /// Address of `avail.used_event` (EVENT_IDX: driver tells the device
    /// when to interrupt).
    pub fn used_event_addr(&self) -> u64 {
        self.avail + 4 + 2 * self.size as u64
    }

    // ---- used ring field addresses (device-written) ----

    /// Address of `used.flags`.
    pub fn used_flags_addr(&self) -> u64 {
        self.used
    }

    /// Address of `used.idx`.
    pub fn used_idx_addr(&self) -> u64 {
        self.used + 2
    }

    /// Address of `used.ring[slot]`.
    pub fn used_ring_addr(&self, slot: u16) -> u64 {
        debug_assert!(slot < self.size);
        self.used + 4 + 8 * slot as u64
    }

    /// Address of `used.avail_event` (EVENT_IDX: device tells the driver
    /// when to notify).
    pub fn avail_event_addr(&self) -> u64 {
        self.used + 4 + 8 * self.size as u64
    }

    /// Address of descriptor `idx`.
    pub fn desc_addr(&self, idx: u16) -> u64 {
        debug_assert!(idx < self.size);
        self.desc + idx as u64 * Desc::SIZE
    }
}

/// The EVENT_IDX predicate (VirtIO 1.2 §2.7.9, `vring_need_event`): given
/// the event index the other side published, should a notification fire
/// after moving `idx` from `old` to `new`? All arithmetic wraps mod 2¹⁶.
pub fn vring_need_event(event_idx: u16, new_idx: u16, old_idx: u16) -> bool {
    new_idx.wrapping_sub(event_idx).wrapping_sub(1) < new_idx.wrapping_sub(old_idx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::VecMemory;

    #[test]
    fn layout_matches_spec_arithmetic() {
        let l = VirtqueueLayout::contiguous(0x1000, 256);
        assert_eq!(l.desc, 0x1000);
        assert_eq!(l.avail, 0x1000 + 256 * 16);
        // avail: 2+2+512+2 = 518 bytes → used aligned up to 4.
        assert_eq!(l.used, (l.avail + 518 + 3) & !3);
        assert_eq!(l.used % 4, 0);
        assert_eq!(
            l.total_bytes(),
            (l.used - l.desc) + VirtqueueLayout::used_bytes(256)
        );
    }

    #[test]
    fn field_addresses() {
        let l = VirtqueueLayout::contiguous(0, 8);
        assert_eq!(l.avail_flags_addr(), 128);
        assert_eq!(l.avail_idx_addr(), 130);
        assert_eq!(l.avail_ring_addr(0), 132);
        assert_eq!(l.avail_ring_addr(7), 146);
        assert_eq!(l.used_event_addr(), 148);
        assert_eq!(l.used_flags_addr(), 152);
        assert_eq!(l.used_idx_addr(), 154);
        assert_eq!(l.used_ring_addr(1), 164);
        assert_eq!(l.avail_event_addr(), 156 + 64);
        assert_eq!(l.desc_addr(3), 48);
    }

    #[test]
    fn size_validation() {
        assert!(VirtqueueLayout::valid_size(1));
        assert!(VirtqueueLayout::valid_size(256));
        assert!(VirtqueueLayout::valid_size(32768));
        assert!(!VirtqueueLayout::valid_size(0));
        assert!(!VirtqueueLayout::valid_size(3));
        assert!(!VirtqueueLayout::valid_size(300));
    }

    #[test]
    #[should_panic(expected = "invalid queue size")]
    fn bad_size_panics() {
        let _ = VirtqueueLayout::contiguous(0, 5);
    }

    #[test]
    fn desc_round_trip() {
        let mut m = VecMemory::new(4096);
        let d = Desc {
            addr: 0xDEAD_BEEF_0000,
            len: 1500,
            flags: DESC_F_NEXT | DESC_F_WRITE,
            next: 7,
        };
        d.write_at(&mut m, 0x100, 3);
        let back = Desc::read_at(&m, 0x100, 3);
        assert_eq!(back, d);
        assert!(back.has_next() && back.is_write());
    }

    #[test]
    fn desc_wire_format_is_little_endian() {
        let mut m = VecMemory::new(64);
        Desc {
            addr: 0x0102_0304_0506_0708,
            len: 0x0A0B_0C0D,
            flags: 1,
            next: 2,
        }
        .write_at(&mut m, 0, 0);
        assert_eq!(
            &m.raw()[0..16],
            &[8, 7, 6, 5, 4, 3, 2, 1, 0x0D, 0x0C, 0x0B, 0x0A, 1, 0, 2, 0]
        );
    }

    #[test]
    fn need_event_basic() {
        // Device published avail_event = 5: notify when idx crosses 5→6.
        assert!(vring_need_event(5, 6, 5));
        assert!(!vring_need_event(5, 5, 4));
        // Batched crossing: old 3 → new 8 crosses event 5.
        assert!(vring_need_event(5, 8, 3));
        // Already past: old 7 → new 8, event 5 not crossed again.
        assert!(!vring_need_event(5, 8, 7));
    }

    #[test]
    fn need_event_wraps() {
        // Crossing the 16-bit wrap point.
        assert!(vring_need_event(0xFFFF, 0x0000, 0xFFFE)); // event 0xFFFF crossed as new wraps to 0
        assert!(vring_need_event(0x0001, 0x0005, 0xFFF0));
        assert!(!vring_need_event(0x0008, 0x0005, 0xFFF0));
    }
}
