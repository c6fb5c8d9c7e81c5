//! Card-side memories: BRAM and external DDR.
//!
//! The paper's designs move data "between the host memory and the FPGA
//! memory (BRAM or external DRAM)" (§III-A). Both implement the XDMA
//! engine's [`CardMemory`] port with 125 MHz fabric timing; BRAM answers
//! in a couple of cycles, DDR pays a controller round trip. The XDMA
//! example design connects BRAM directly to the AXI-MM interface
//! (§III-B2), and the widths are kept equal across designs so "the DMA
//! engine can move data to and from FPGA memory at the same rate" in
//! both setups — the fairness condition the paper engineered.

use vf_pcie::ZeroedBuf;
use vf_sim::{Time, FPGA_CYCLE};
use vf_xdma::CardMemory;

/// Which memory backs a [`CardStore`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CardKind {
    /// On-chip block RAM: 64-bit port, 2-cycle setup (the designs'
    /// default).
    Bram,
    /// External DDR3 through MIG: same beat rate once streaming, but
    /// ~22 fabric cycles of controller latency per access.
    Ddr,
}

/// A selectable card memory: the two backings the paper names for its
/// designs ("BRAM or external DRAM", §III-A). The E14 ablation swaps
/// the kind under both designs.
///
/// The bytes come from the per-thread pool of zeroed buffers
/// ([`ZeroedBuf`]), so a sweep that builds one device per point reuses
/// the previous point's card memory instead of allocating it anew.
#[derive(Debug)]
pub struct CardStore {
    kind: CardKind,
    data: ZeroedBuf,
}

impl CardStore {
    /// A zeroed BRAM-backed store of `len` bytes (the XC7A200T tops out
    /// around 1.6 MB).
    pub fn bram(len: usize) -> Self {
        assert!(len <= 2 << 20, "more BRAM than the part has");
        CardStore {
            kind: CardKind::Bram,
            data: ZeroedBuf::new(len),
        }
    }

    /// A zeroed DDR-backed store of `len` bytes.
    pub fn ddr(len: usize) -> Self {
        CardStore {
            kind: CardKind::Ddr,
            data: ZeroedBuf::new(len),
        }
    }

    /// The backing kind.
    pub fn kind(&self) -> CardKind {
        self.kind
    }

    /// Put the same memory behind `kind`'s timing (E14), without a new
    /// buffer.
    pub fn set_kind(&mut self, kind: CardKind) {
        self.kind = kind;
    }

    /// Capacity in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if zero-sized (never in practice).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Name for reports.
    pub fn name(&self) -> &'static str {
        match self.kind {
            CardKind::Bram => "bram",
            CardKind::Ddr => "ddr",
        }
    }
}

impl CardMemory for CardStore {
    fn read(&self, addr: u64, buf: &mut [u8]) {
        let a = addr as usize;
        buf.copy_from_slice(&self.data[a..a + buf.len()]);
    }

    fn write(&mut self, addr: u64, data: &[u8]) {
        let a = addr as usize;
        self.data.range_mut(a..a + data.len()).copy_from_slice(data);
    }

    fn access_time(&self, bytes: usize) -> Time {
        // Setup (BRAM) or controller latency (DDR), then one 8-byte
        // beat per cycle.
        let setup = match self.kind {
            CardKind::Bram => 2,
            CardKind::Ddr => 22,
        };
        FPGA_CYCLE * (setup + bytes.div_ceil(8) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bram_round_trip() {
        let mut b = CardStore::bram(4096);
        b.write(0x100, &[1, 2, 3, 4]);
        let mut out = [0u8; 4];
        b.read(0x100, &mut out);
        assert_eq!(out, [1, 2, 3, 4]);
        assert_eq!(b.len(), 4096);
    }

    #[test]
    fn bram_timing_is_cycle_quantized() {
        let b = CardStore::bram(64);
        assert_eq!(b.access_time(8), FPGA_CYCLE * 3);
        assert_eq!(b.access_time(64), FPGA_CYCLE * 10);
        assert_eq!(b.access_time(1), FPGA_CYCLE * 3);
    }

    #[test]
    fn ddr_slower_than_bram_for_small_access() {
        let b = CardStore::bram(64);
        let d = CardStore::ddr(64);
        assert!(d.access_time(8) > b.access_time(8));
        // Streaming cost converges: the delta stays the fixed latency.
        let delta_small = d.access_time(8) - b.access_time(8);
        let delta_big = d.access_time(4096) - b.access_time(4096);
        assert_eq!(delta_small, delta_big);
    }

    #[test]
    #[should_panic(expected = "more BRAM")]
    fn bram_capacity_bounded() {
        let _ = CardStore::bram(64 << 20);
    }

    #[test]
    fn set_kind_keeps_the_bytes() {
        let mut s = CardStore::bram(4096);
        s.write(8, &[7; 4]);
        let bram = s.access_time(8);
        s.set_kind(CardKind::Ddr);
        assert!(s.access_time(8) > bram);
        let mut out = [0u8; 4];
        s.read(8, &mut out);
        assert_eq!(out, [7; 4]);
        assert_eq!(s.name(), "ddr");
    }
}

#[cfg(test)]
mod store_tests {
    use super::*;

    #[test]
    fn store_dispatches_to_backing() {
        let mut b = CardStore::bram(256);
        let mut d = CardStore::ddr(256);
        b.write(0, &[1, 2, 3]);
        d.write(0, &[4, 5, 6]);
        let mut out = [0u8; 3];
        b.read(0, &mut out);
        assert_eq!(out, [1, 2, 3]);
        d.read(0, &mut out);
        assert_eq!(out, [4, 5, 6]);
        assert!(d.access_time(8) > b.access_time(8));
        assert_eq!(b.name(), "bram");
        assert_eq!(d.name(), "ddr");
    }
}
