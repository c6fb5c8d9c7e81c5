//! XDMA descriptor format (Xilinx PG195, "Descriptor Format").
//!
//! The vendor DMA engine is scatter-gather: the driver builds a linked
//! list of 32-byte descriptors in host memory and writes the address of
//! the first one into the engine's SGDMA registers **for every
//! transfer** — the per-transfer information exchange the paper contrasts
//! with VirtIO's init-time exchange (§IV-A).
//!
//! ```text
//! word 0: [31:16] magic 0xAD4B | [13:8] nxt_adj | [7:0] control bits
//! word 1: length (bytes, 28 bits used)
//! word 2: src address low    word 3: src address high
//! word 4: dst address low    word 5: dst address high
//! word 6: next desc low      word 7: next desc high
//! ```
//!
//! For H2C, `src` is a host address and `dst` a card address; for C2H the
//! roles swap.

use vf_virtio::GuestMemory;

/// Magic value in descriptor word 0 bits \[31:16\].
pub const DESC_MAGIC: u16 = 0xAD4B;

/// Control bit: engine stops after this descriptor (end of list).
pub const CTRL_STOP: u8 = 1 << 0;
/// Control bit: engine writes a completion status writeback for this
/// descriptor.
pub const CTRL_COMPLETED: u8 = 1 << 1;
/// Control bit: end of packet (streaming interfaces).
pub const CTRL_EOP: u8 = 1 << 4;

/// One XDMA scatter-gather descriptor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct XdmaDesc {
    /// `CTRL_*` control bits.
    pub control: u8,
    /// Contiguous descriptors following this one (prefetch hint).
    pub nxt_adj: u8,
    /// Transfer length in bytes.
    pub len: u32,
    /// Source address.
    pub src: u64,
    /// Destination address.
    pub dst: u64,
    /// Address of the next descriptor (valid unless `CTRL_STOP`).
    pub next: u64,
}

impl XdmaDesc {
    /// Encoded size in host memory.
    pub const SIZE: u64 = 32;

    /// Maximum length per descriptor (28-bit field).
    pub const MAX_LEN: u32 = (1 << 28) - 1;

    /// Serialize into the 32-byte wire format.
    pub fn to_bytes(self) -> [u8; 32] {
        assert!(self.len <= Self::MAX_LEN);
        let mut b = [0u8; 32];
        let w0: u32 =
            ((DESC_MAGIC as u32) << 16) | ((self.nxt_adj as u32 & 0x3F) << 8) | self.control as u32;
        b[0..4].copy_from_slice(&w0.to_le_bytes());
        b[4..8].copy_from_slice(&self.len.to_le_bytes());
        b[8..12].copy_from_slice(&(self.src as u32).to_le_bytes());
        b[12..16].copy_from_slice(&((self.src >> 32) as u32).to_le_bytes());
        b[16..20].copy_from_slice(&(self.dst as u32).to_le_bytes());
        b[20..24].copy_from_slice(&((self.dst >> 32) as u32).to_le_bytes());
        b[24..28].copy_from_slice(&(self.next as u32).to_le_bytes());
        b[28..32].copy_from_slice(&((self.next >> 32) as u32).to_le_bytes());
        b
    }

    /// Deserialize; returns `None` if the magic is wrong (the engine's
    /// descriptor-error condition).
    pub fn from_bytes(b: &[u8; 32]) -> Option<XdmaDesc> {
        let w0 = u32::from_le_bytes(b[0..4].try_into().unwrap());
        if (w0 >> 16) as u16 != DESC_MAGIC {
            return None;
        }
        let rd32 = |o: usize| u32::from_le_bytes(b[o..o + 4].try_into().unwrap()) as u64;
        Some(XdmaDesc {
            control: (w0 & 0xFF) as u8,
            nxt_adj: ((w0 >> 8) & 0x3F) as u8,
            len: u32::from_le_bytes(b[4..8].try_into().unwrap()),
            src: rd32(8) | (rd32(12) << 32),
            dst: rd32(16) | (rd32(20) << 32),
            next: rd32(24) | (rd32(28) << 32),
        })
    }

    /// Write into host memory at `addr`.
    pub fn write_to<M: GuestMemory>(&self, mem: &mut M, addr: u64) {
        mem.write(addr, &self.to_bytes());
    }

    /// Read from host memory at `addr` (what the engine's descriptor
    /// fetch does functionally).
    pub fn read_from<M: GuestMemory>(mem: &M, addr: u64) -> Option<XdmaDesc> {
        let mut b = [0u8; 32];
        mem.read(addr, &mut b);
        XdmaDesc::from_bytes(&b)
    }

    /// True if the engine must stop after this descriptor.
    pub fn is_last(&self) -> bool {
        self.control & CTRL_STOP != 0
    }
}

/// Build a single-descriptor list for a contiguous transfer — what the
/// reference driver does for buffers that fit one descriptor (all the
/// paper's payloads do).
pub fn single_descriptor(src: u64, dst: u64, len: u32) -> XdmaDesc {
    XdmaDesc {
        control: CTRL_STOP | CTRL_COMPLETED | CTRL_EOP,
        nxt_adj: 0,
        len,
        src,
        dst,
        next: 0,
    }
}

/// Build a multi-descriptor linked list covering `(src, dst, len)` in
/// chunks of at most `max_chunk`, placing descriptors at `desc_base`,
/// `desc_base + 32`, ... Returns how many descriptors it wrote; read
/// them back with [`XdmaDesc::read_from`].
pub fn build_list<M: GuestMemory>(
    mem: &mut M,
    desc_base: u64,
    mut src: u64,
    mut dst: u64,
    len: u32,
    max_chunk: u32,
) -> u32 {
    assert!(len > 0 && max_chunk > 0);
    let mut count = 0;
    let mut remaining = len;
    let mut addr = desc_base;
    while remaining > 0 {
        let take = remaining.min(max_chunk);
        remaining -= take;
        let last = remaining == 0;
        let d = XdmaDesc {
            control: if last {
                CTRL_STOP | CTRL_COMPLETED | CTRL_EOP
            } else {
                0
            },
            nxt_adj: 0,
            len: take,
            src,
            dst,
            next: if last { 0 } else { addr + XdmaDesc::SIZE },
        };
        d.write_to(mem, addr);
        count += 1;
        src += take as u64;
        dst += take as u64;
        addr += XdmaDesc::SIZE;
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use vf_virtio::VecMemory;

    #[test]
    fn round_trip() {
        let d = XdmaDesc {
            control: CTRL_STOP | CTRL_EOP,
            nxt_adj: 3,
            len: 4096,
            src: 0x1_2345_6789,
            dst: 0xFEED_0000,
            next: 0xABCD_0000_1234_5678,
        };
        assert_eq!(XdmaDesc::from_bytes(&d.to_bytes()), Some(d));
    }

    #[test]
    fn magic_is_checked() {
        let mut b = single_descriptor(0, 0, 4).to_bytes();
        b[3] = 0x00; // corrupt the magic's high byte
        assert_eq!(XdmaDesc::from_bytes(&b), None);
    }

    #[test]
    fn wire_layout() {
        let d = single_descriptor(0x11, 0x22, 0x100);
        let b = d.to_bytes();
        // Magic in the top half of word 0, little-endian.
        assert_eq!(b[2], 0x4B);
        assert_eq!(b[3], 0xAD);
        assert_eq!(b[0], CTRL_STOP | CTRL_COMPLETED | CTRL_EOP);
        assert_eq!(u32::from_le_bytes(b[4..8].try_into().unwrap()), 0x100);
    }

    #[test]
    fn memory_round_trip() {
        let mut mem = VecMemory::new(4096);
        let d = single_descriptor(0xAAAA, 0xBBBB, 64);
        d.write_to(&mut mem, 0x200);
        assert_eq!(XdmaDesc::read_from(&mem, 0x200), Some(d));
    }

    /// The `count` descriptors of the list at `base`, read back from
    /// memory.
    fn read_list(mem: &VecMemory, base: u64, count: u32) -> Vec<XdmaDesc> {
        (0..u64::from(count))
            .map(|i| XdmaDesc::read_from(mem, base + i * XdmaDesc::SIZE).unwrap())
            .collect()
    }

    #[test]
    fn build_list_chains_and_conserves() {
        let mut mem = VecMemory::new(4096);
        let count = build_list(&mut mem, 0x100, 0x10_000, 0x0, 1000, 256);
        assert_eq!(count, 4);
        let descs = read_list(&mem, 0x100, count);
        assert_eq!(descs.iter().map(|d| d.len).sum::<u32>(), 1000);
        assert!(descs[..3].iter().all(|d| !d.is_last()));
        assert!(descs[3].is_last());
        // Links walk forward 32 bytes at a time.
        for (i, d) in descs[..3].iter().enumerate() {
            assert_eq!(d.next, 0x100 + 32 * (i as u64 + 1));
        }
        // Source/destination advance in step.
        assert_eq!(descs[1].src, 0x10_100);
        assert_eq!(descs[1].dst, 0x100);
    }

    #[test]
    fn single_chunk_list() {
        let mut mem = VecMemory::new(4096);
        let count = build_list(&mut mem, 0, 0, 0x100, 64, 4096);
        assert_eq!(count, 1);
        assert!(read_list(&mem, 0, count)[0].is_last());
    }
}
