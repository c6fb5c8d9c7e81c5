//! The XDMA H2C/C2H engine state machines.
//!
//! Each direction has an independent scatter-gather engine. Started by a
//! control-register write, an engine:
//!
//! 1. fetches a descriptor from host memory (one 32-byte DMA read),
//! 2. moves the descriptor's payload — H2C: DMA-reads host memory and
//!    writes card memory; C2H: reads card memory and DMA-writes host
//!    memory,
//! 3. follows `next` until a descriptor with the STOP bit,
//! 4. stops, bumps the completed-descriptor count, and requests its
//!    channel interrupt.
//!
//! Timing comes from the PCIe link model plus the card-memory port; the
//! engine adds a start-of-transfer cost and a small per-descriptor
//! processing cost, all at the 8 ns fabric-clock granularity of the
//! paper's 125 MHz designs.

use vf_pcie::{HostMemory, PcieLink};
use vf_sim::{Time, FPGA_CYCLE};

use crate::desc::XdmaDesc;

/// Transfer direction of an engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ChannelDir {
    /// Host-to-card: payload flows host DRAM → card memory.
    H2C,
    /// Card-to-host: payload flows card memory → host DRAM.
    C2H,
}

/// Card-side memory as seen by the DMA engine's data port.
///
/// Implementations supply both the functional storage and the fabric-side
/// port timing; `vf-fpga` provides BRAM and DDR models, and
/// [`VecCardMemory`] is a plain test double.
pub trait CardMemory {
    /// Read `buf.len()` bytes at card address `addr`.
    fn read(&self, addr: u64, buf: &mut [u8]);
    /// Write `data` at card address `addr`.
    fn write(&mut self, addr: u64, data: &[u8]);
    /// Time for the port to move `bytes` (pipelined with but additive to
    /// link time in this model — the engine is store-and-forward per
    /// descriptor, as the shallow-buffered 7-series configuration is).
    fn access_time(&self, bytes: usize) -> Time;
}

/// Simple card memory for unit tests: 64-bit port at one beat per cycle.
#[derive(Clone, Debug)]
pub struct VecCardMemory {
    data: Vec<u8>,
}

impl VecCardMemory {
    /// Zeroed card memory of `len` bytes at address 0.
    pub fn new(len: usize) -> Self {
        VecCardMemory { data: vec![0; len] }
    }
}

impl CardMemory for VecCardMemory {
    fn read(&self, addr: u64, buf: &mut [u8]) {
        let a = addr as usize;
        buf.copy_from_slice(&self.data[a..a + buf.len()]);
    }

    fn write(&mut self, addr: u64, data: &[u8]) {
        let a = addr as usize;
        self.data[a..a + data.len()].copy_from_slice(data);
    }

    fn access_time(&self, bytes: usize) -> Time {
        // 64-bit BRAM port at 125 MHz: 8 bytes per 8 ns cycle + 2 cycles
        // of address setup.
        FPGA_CYCLE * (2 + bytes.div_ceil(8) as u64)
    }
}

/// Engine timing knobs (fabric-clock costs, not link costs).
#[derive(Clone, Copy, Debug)]
pub struct EngineTiming {
    /// Control-write to first descriptor fetch (engine start FSM).
    pub start_overhead: Time,
    /// Per-descriptor decode/setup cost.
    pub per_desc: Time,
}

impl Default for EngineTiming {
    fn default() -> Self {
        EngineTiming {
            // ~30 fabric cycles to run up the engine.
            start_overhead: FPGA_CYCLE * 30,
            // ~12 cycles to decode a descriptor and (re)program the data
            // mover.
            per_desc: FPGA_CYCLE * 12,
        }
    }
}

/// Errors the engine reports in its status register.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineError {
    /// Descriptor magic mismatch at the given host address.
    BadMagic {
        /// Host address of the bad descriptor.
        addr: u64,
    },
    /// Descriptor list exceeded the sanity bound (runaway chain).
    RunawayList,
}

/// Result of one engine run.
#[derive(Clone, Debug)]
pub struct DmaOutcome {
    /// Instant the engine stopped (all data landed, status updated).
    pub completed_at: Time,
    /// Descriptors processed.
    pub descriptors: u32,
    /// Payload bytes moved.
    pub bytes: u64,
}

/// One DMA engine (one direction).
#[derive(Clone, Debug)]
pub struct XdmaEngine {
    /// Direction of this engine.
    pub dir: ChannelDir,
    /// Timing knobs.
    pub timing: EngineTiming,
    /// Lifetime statistics: runs completed.
    pub runs: u64,
    /// Lifetime statistics: bytes moved.
    pub total_bytes: u64,
    /// Lifetime statistics: descriptors fetched.
    pub total_descriptors: u64,
    /// Bounce buffer for card-to-host copies, reused by every
    /// descriptor.
    scratch: Vec<u8>,
}

impl XdmaEngine {
    /// New idle engine.
    pub fn new(dir: ChannelDir) -> Self {
        XdmaEngine {
            dir,
            timing: EngineTiming::default(),
            runs: 0,
            total_bytes: 0,
            total_descriptors: 0,
            scratch: Vec::new(),
        }
    }

    /// Execute a descriptor list starting at `desc_addr` (host memory),
    /// beginning at `now`. Moves data between `host` and `card`, returns
    /// when and how much.
    pub fn run<C: CardMemory>(
        &mut self,
        now: Time,
        desc_addr: u64,
        link: &mut PcieLink,
        host: &mut HostMemory,
        card: &mut C,
    ) -> Result<DmaOutcome, EngineError> {
        let mut t = now + self.timing.start_overhead;
        let mut addr = desc_addr;
        let mut descriptors = 0u32;
        let mut bytes = 0u64;
        loop {
            if descriptors >= 4096 {
                return Err(EngineError::RunawayList);
            }
            // Descriptor fetch: one 32-byte read from host memory.
            t = link.dma_read(t, addr, XdmaDesc::SIZE as usize);
            vf_trace::instant(
                vf_trace::Layer::Device,
                "xdma_desc_fetch",
                t,
                XdmaDesc::SIZE,
                0,
            );
            let desc = XdmaDesc::read_from(host, addr).ok_or(EngineError::BadMagic { addr })?;
            t += self.timing.per_desc;
            let len = desc.len as usize;
            match self.dir {
                ChannelDir::H2C => {
                    t = link.dma_read(t, desc.src, len);
                    card.write(desc.dst, host.slice(desc.src, len));
                    t += card.access_time(len);
                }
                ChannelDir::C2H => {
                    self.scratch.resize(len, 0);
                    card.read(desc.src, &mut self.scratch);
                    t += card.access_time(len);
                    t = link.dma_write(t, desc.dst, len);
                    host.write(desc.dst, &self.scratch);
                }
            }
            descriptors += 1;
            bytes += len as u64;
            if desc.is_last() {
                break;
            }
            addr = desc.next;
        }
        self.runs += 1;
        self.total_bytes += bytes;
        self.total_descriptors += descriptors as u64;
        Ok(DmaOutcome {
            completed_at: t,
            descriptors,
            bytes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::desc::{build_list, single_descriptor};
    use vf_pcie::LinkConfig;

    fn setup() -> (PcieLink, HostMemory, VecCardMemory) {
        (
            PcieLink::new(LinkConfig::gen2_x2()),
            HostMemory::new(0, 1 << 20),
            VecCardMemory::new(1 << 16),
        )
    }

    #[test]
    fn h2c_moves_data_to_card() {
        let (mut link, mut host, mut card) = setup();
        let payload: Vec<u8> = (0..256u32).map(|i| i as u8).collect();
        HostMemory::write(&mut host, 0x1_0000, &payload);
        single_descriptor(0x1_0000, 0x80, 256).write_to(&mut host, 0x2000);
        let mut eng = XdmaEngine::new(ChannelDir::H2C);
        let out = eng
            .run(Time::ZERO, 0x2000, &mut link, &mut host, &mut card)
            .unwrap();
        assert_eq!(out.descriptors, 1);
        assert_eq!(out.bytes, 256);
        let mut back = vec![0u8; 256];
        card.read(0x80, &mut back);
        assert_eq!(back, payload);
        assert!(out.completed_at > Time::ZERO);
    }

    #[test]
    fn c2h_moves_data_to_host() {
        let (mut link, mut host, mut card) = setup();
        let payload = vec![0xA5u8; 128];
        card.write(0x40, &payload);
        single_descriptor(0x40, 0x3_0000, 128).write_to(&mut host, 0x2000);
        let mut eng = XdmaEngine::new(ChannelDir::C2H);
        let out = eng
            .run(Time::ZERO, 0x2000, &mut link, &mut host, &mut card)
            .unwrap();
        assert_eq!(out.bytes, 128);
        assert_eq!(host.slice(0x3_0000, 128), &payload[..]);
    }

    #[test]
    fn multi_descriptor_list_walks_fully() {
        let (mut link, mut host, mut card) = setup();
        let payload: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        HostMemory::write(&mut host, 0x1_0000, &payload);
        let count = build_list(&mut host, 0x2000, 0x1_0000, 0, 1000, 256);
        assert_eq!(count, 4);
        let last = XdmaDesc::read_from(&host, 0x2000 + 3 * XdmaDesc::SIZE).unwrap();
        assert!(last.is_last() && last.len == 1000 - 3 * 256);
        let mut eng = XdmaEngine::new(ChannelDir::H2C);
        let out = eng
            .run(Time::ZERO, 0x2000, &mut link, &mut host, &mut card)
            .unwrap();
        assert_eq!(out.descriptors, count);
        assert_eq!(out.bytes, 1000);
        let mut back = vec![0u8; 1000];
        card.read(0, &mut back);
        assert_eq!(back, payload);
    }

    #[test]
    fn bad_magic_faults() {
        let (mut link, mut host, mut card) = setup();
        HostMemory::write(&mut host, 0x2000, &[0u8; 32]); // zeroed ≠ magic
        let mut eng = XdmaEngine::new(ChannelDir::H2C);
        let err = eng
            .run(Time::ZERO, 0x2000, &mut link, &mut host, &mut card)
            .unwrap_err();
        assert_eq!(err, EngineError::BadMagic { addr: 0x2000 });
    }

    #[test]
    fn runaway_list_bounded() {
        let (mut link, mut host, mut card) = setup();
        // A descriptor that points at itself and never stops.
        let mut d = single_descriptor(0x100, 0x0, 4);
        d.control = 0; // no STOP
        d.next = 0x2000;
        d.write_to(&mut host, 0x2000);
        let mut eng = XdmaEngine::new(ChannelDir::H2C);
        let err = eng
            .run(Time::ZERO, 0x2000, &mut link, &mut host, &mut card)
            .unwrap_err();
        assert_eq!(err, EngineError::RunawayList);
    }

    #[test]
    fn larger_transfers_take_longer() {
        let mut times = Vec::new();
        for len in [64u32, 256, 1024] {
            let (mut link, mut host, mut card) = setup();
            HostMemory::write(&mut host, 0x1_0000, &vec![1u8; len as usize]);
            single_descriptor(0x1_0000, 0, len).write_to(&mut host, 0x2000);
            let mut eng = XdmaEngine::new(ChannelDir::H2C);
            let out = eng
                .run(Time::ZERO, 0x2000, &mut link, &mut host, &mut card)
                .unwrap();
            times.push(out.completed_at);
        }
        assert!(times[0] < times[1] && times[1] < times[2]);
    }

    #[test]
    fn stats_accumulate() {
        let (mut link, mut host, mut card) = setup();
        let mut eng = XdmaEngine::new(ChannelDir::H2C);
        for i in 0..3 {
            single_descriptor(0x1_0000, 0, 64).write_to(&mut host, 0x2000 + i * 64);
            eng.run(
                Time::from_us(i),
                0x2000 + i * 64,
                &mut link,
                &mut host,
                &mut card,
            )
            .unwrap();
        }
        assert_eq!(eng.runs, 3);
        assert_eq!(eng.total_bytes, 192);
        assert_eq!(eng.total_descriptors, 3);
    }
}
