//! Guest memory abstraction.
//!
//! Virtqueues are plain little-endian data structures in *host* memory
//! that both sides manipulate: the driver through ordinary stores, the
//! device through DMA. Everything in this crate therefore operates
//! through the [`GuestMemory`] trait rather than Rust references — the
//! same ring code runs over the testbed's simulated host DRAM
//! ([`vf_pcie::HostMemory`]) and over a plain byte vector in unit tests.
//!
//! The trait deliberately mirrors what a bus master can actually do:
//! byte-level reads and writes at physical addresses. All multi-byte
//! accessors are little-endian, as the VirtIO spec requires for modern
//! devices regardless of guest endianness.

use std::ops::Range;

use vf_pcie::HostMemory;

/// Byte-addressable little-endian memory, as seen from a bus master.
pub trait GuestMemory {
    /// Read `buf.len()` bytes at `addr`.
    fn read(&self, addr: u64, buf: &mut [u8]);
    /// Write `data` at `addr`.
    fn write(&mut self, addr: u64, data: &[u8]);
    /// The addresses backed by memory: its base and its size.
    fn bounds(&self) -> Range<u64>;

    /// Read a little-endian `u16`.
    fn read_u16(&self, addr: u64) -> u16 {
        let mut b = [0u8; 2];
        self.read(addr, &mut b);
        u16::from_le_bytes(b)
    }

    /// Read a little-endian `u32`.
    fn read_u32(&self, addr: u64) -> u32 {
        let mut b = [0u8; 4];
        self.read(addr, &mut b);
        u32::from_le_bytes(b)
    }

    /// Read a little-endian `u64`.
    fn read_u64(&self, addr: u64) -> u64 {
        let mut b = [0u8; 8];
        self.read(addr, &mut b);
        u64::from_le_bytes(b)
    }

    /// Write a little-endian `u16`.
    fn write_u16(&mut self, addr: u64, v: u16) {
        self.write(addr, &v.to_le_bytes());
    }

    /// Write a little-endian `u32`.
    fn write_u32(&mut self, addr: u64, v: u32) {
        self.write(addr, &v.to_le_bytes());
    }

    /// Write a little-endian `u64`.
    fn write_u64(&mut self, addr: u64, v: u64) {
        self.write(addr, &v.to_le_bytes());
    }

    /// Read `len` bytes into a fresh vector.
    fn read_vec(&self, addr: u64, len: usize) -> Vec<u8> {
        let mut v = vec![0u8; len];
        self.read(addr, &mut v);
        v
    }
}

/// Every access goes to the inherent `#[inline]` accessors, so a ring
/// field or descriptor costs one range check and one load or store.
impl GuestMemory for HostMemory {
    #[inline]
    fn read(&self, addr: u64, buf: &mut [u8]) {
        HostMemory::read(self, addr, buf);
    }

    #[inline]
    fn write(&mut self, addr: u64, data: &[u8]) {
        HostMemory::write(self, addr, data);
    }

    #[inline]
    fn bounds(&self) -> Range<u64> {
        self.base()..self.end()
    }

    #[inline]
    fn read_u16(&self, addr: u64) -> u16 {
        HostMemory::read_u16(self, addr)
    }

    #[inline]
    fn read_u32(&self, addr: u64) -> u32 {
        HostMemory::read_u32(self, addr)
    }

    #[inline]
    fn read_u64(&self, addr: u64) -> u64 {
        HostMemory::read_u64(self, addr)
    }

    #[inline]
    fn write_u16(&mut self, addr: u64, v: u16) {
        HostMemory::write_u16(self, addr, v);
    }

    #[inline]
    fn write_u32(&mut self, addr: u64, v: u32) {
        HostMemory::write_u32(self, addr, v);
    }

    #[inline]
    fn write_u64(&mut self, addr: u64, v: u64) {
        HostMemory::write_u64(self, addr, v);
    }
}

/// A simple vector-backed memory for unit and property tests.
#[derive(Clone, Debug)]
pub struct VecMemory {
    bytes: Vec<u8>,
}

impl VecMemory {
    /// Zeroed memory of `len` bytes based at address 0.
    pub fn new(len: usize) -> Self {
        VecMemory {
            bytes: vec![0; len],
        }
    }

    /// Underlying bytes (for assertions on exact layout).
    pub fn raw(&self) -> &[u8] {
        &self.bytes
    }
}

impl GuestMemory for VecMemory {
    fn read(&self, addr: u64, buf: &mut [u8]) {
        let a = addr as usize;
        buf.copy_from_slice(&self.bytes[a..a + buf.len()]);
    }

    fn write(&mut self, addr: u64, data: &[u8]) {
        let a = addr as usize;
        self.bytes[a..a + data.len()].copy_from_slice(data);
    }

    fn bounds(&self) -> Range<u64> {
        0..self.bytes.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_memory_round_trip() {
        let mut m = VecMemory::new(64);
        m.write_u16(0, 0xBEEF);
        m.write_u32(4, 0x1234_5678);
        m.write_u64(8, u64::MAX - 1);
        assert_eq!(m.read_u16(0), 0xBEEF);
        assert_eq!(m.read_u32(4), 0x1234_5678);
        assert_eq!(m.read_u64(8), u64::MAX - 1);
        assert_eq!(m.read_vec(0, 2), vec![0xEF, 0xBE]);
    }

    #[test]
    fn host_memory_implements_guest_memory() {
        let mut m = HostMemory::new(0x1000, 4096);
        GuestMemory::write_u32(&mut m, 0x1010, 77);
        assert_eq!(GuestMemory::read_u32(&m, 0x1010), 77);
    }

    #[test]
    fn little_endian_on_the_wire() {
        let mut m = VecMemory::new(16);
        m.write_u32(0, 0x0A0B_0C0D);
        assert_eq!(&m.raw()[0..4], &[0x0D, 0x0C, 0x0B, 0x0A]);
    }
}
