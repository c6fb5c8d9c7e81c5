//! The XDMA example design (§III-B2).
//!
//! "An example design provided by Xilinx to demonstrate the XDMA IP core
//! is used to test the reference device driver. This design does not
//! include any user logic; a BRAM is connected directly to an AXI
//! memory-mapped interface of the PCIe IP." The width of the memory
//! matches the VirtIO design so the DMA engine moves data at the same
//! rate in both setups — the paper's fairness condition.
//!
//! This wrapper owns the XDMA register BAR, both engines, the BRAM, the
//! MSI-X table, and the PCIe config space announcing the Xilinx IDs.

use vf_pcie::{
    BarDef, ConfigSpace, ConfigSpaceBuilder, HostMemory, MsixCapability, MsixTable, PcieCapability,
    PcieLink, XDMA_EXAMPLE_DEVICE_ID, XILINX_VENDOR_ID,
};
use vf_sim::Time;
use vf_xdma::{BarAction, ChannelDir, DmaOutcome, EngineError, XdmaBar, XdmaEngine};

use crate::counters::IntervalStats;
use crate::mem::{CardKind, CardStore};

/// Result of one engine start: outcome plus the optional interrupt.
#[derive(Clone, Debug)]
pub struct XdmaRun {
    /// Which channel ran.
    pub dir: ChannelDir,
    /// Engine-level outcome (completion time, descriptor/byte counts).
    pub outcome: DmaOutcome,
    /// Instant the channel's MSI-X message reached the host, if armed.
    pub irq_at: Option<Time>,
}

/// The complete XDMA example design.
pub struct XdmaExampleDesign {
    /// PCIe configuration space (Xilinx IDs, no VirtIO capabilities).
    pub config_space: ConfigSpace,
    /// XDMA register file (BAR0 in the DMA-only configuration).
    pub bar: XdmaBar,
    /// H2C engine.
    pub h2c: XdmaEngine,
    /// C2H engine.
    pub c2h: XdmaEngine,
    /// The memory on the AXI-MM interface (BRAM by default; DDR for the
    /// E14 ablation).
    pub card: CardStore,
    /// MSI-X table (2 channel vectors + user vectors).
    pub msix: MsixTable,
    /// Hardware counter: H2C engine active time per transfer.
    pub h2c_counter: IntervalStats,
    /// Hardware counter: C2H engine active time per transfer.
    pub c2h_counter: IntervalStats,
}

impl XdmaExampleDesign {
    /// Build the example design with `bram_bytes` of AXI-MM BRAM.
    pub fn new(bram_bytes: usize) -> Self {
        let config_space = ConfigSpaceBuilder::new(XILINX_VENDOR_ID, XDMA_EXAMPLE_DEVICE_ID)
            .class(0x05, 0x80, 0x00) // memory controller, other
            .revision(0)
            .subsystem(XILINX_VENDOR_ID, 0x0007)
            .bar(
                0,
                BarDef::Mem32 {
                    size: 64 * 1024, // DMA register BAR
                },
            )
            .capability(&PcieCapability {
                max_payload_supported: 1,
                link_width: 2,
                link_speed: 2,
            })
            .capability(&MsixCapability {
                table_size: 8,
                table_bar: 0,
                table_offset: 0x8000,
                pba_bar: 0,
                pba_offset: 0x8800,
            })
            .build();
        XdmaExampleDesign {
            config_space,
            bar: XdmaBar::new(),
            h2c: XdmaEngine::new(ChannelDir::H2C),
            c2h: XdmaEngine::new(ChannelDir::C2H),
            card: CardStore::bram(bram_bytes),
            msix: MsixTable::new(8),
            h2c_counter: IntervalStats::named("hw_h2c"),
            c2h_counter: IntervalStats::named("hw_c2h"),
        }
    }

    /// Put the AXI-MM memory behind BRAM or external DDR (E14).
    pub fn set_card_memory(&mut self, kind: CardKind) {
        self.card.set_kind(kind);
    }

    /// BAR0 MMIO write; if it starts an engine, runs the transfer and
    /// returns its result. `arrival` is when the write lands in the
    /// device.
    pub fn mmio_write(
        &mut self,
        arrival: Time,
        off: u64,
        val: u32,
        mem: &mut HostMemory,
        link: &mut PcieLink,
    ) -> Result<Option<XdmaRun>, EngineError> {
        match self.bar.write32(off, val) {
            None => Ok(None),
            Some(action) => {
                let (engine, counter, dir) = match action {
                    BarAction::StartH2C => (&mut self.h2c, &mut self.h2c_counter, ChannelDir::H2C),
                    BarAction::StartC2H => (&mut self.c2h, &mut self.c2h_counter, ChannelDir::C2H),
                };
                let desc_addr = match dir {
                    ChannelDir::H2C => self.bar.h2c.desc_addr,
                    ChannelDir::C2H => self.bar.c2h.desc_addr,
                };
                counter.start(arrival);
                let outcome = engine.run(arrival, desc_addr, link, mem, &mut self.card)?;
                counter.stop(outcome.completed_at);
                let vector = self.bar.complete_channel(dir, outcome.descriptors);
                let irq_at = vector.and_then(|v| {
                    self.msix
                        .fire(v)
                        .map(|_msg| link.msix_write(outcome.completed_at))
                });
                Ok(Some(XdmaRun {
                    dir,
                    outcome,
                    irq_at,
                }))
            }
        }
    }

    /// BAR0 MMIO read (status registers etc.).
    pub fn mmio_read(&mut self, off: u64) -> u32 {
        self.bar.read32(off)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vf_pcie::LinkConfig;
    use vf_xdma::desc::single_descriptor;
    use vf_xdma::regs::{chan, irq, sgdma, target, CTRL_RUN, IE_DESC_STOPPED};
    use vf_xdma::CardMemory;

    fn fixture() -> (XdmaExampleDesign, HostMemory, PcieLink) {
        let mut design = XdmaExampleDesign::new(64 * 1024);
        // Arm interrupts like the driver does at load.
        design
            .bar
            .write32(target::H2C + chan::INT_ENABLE, IE_DESC_STOPPED);
        design
            .bar
            .write32(target::C2H + chan::INT_ENABLE, IE_DESC_STOPPED);
        design.bar.write32(target::IRQ + irq::CHANNEL_INT_EN, 0b11);
        design.msix.enabled = true;
        design.msix.program(0, vf_pcie::MSI_ADDR_BASE, 0x30);
        design.msix.program(1, vf_pcie::MSI_ADDR_BASE, 0x31);
        (
            design,
            HostMemory::new(0, 1 << 20),
            PcieLink::new(LinkConfig::gen2_x2()),
        )
    }

    #[test]
    fn config_space_announces_xilinx() {
        let d = XdmaExampleDesign::new(4096);
        assert_eq!(d.config_space.read_u16(0x00), XILINX_VENDOR_ID);
        assert_eq!(d.config_space.read_u16(0x02), XDMA_EXAMPLE_DEVICE_ID);
    }

    #[test]
    fn h2c_transfer_via_mmio_sequence() {
        let (mut design, mut mem, mut link) = fixture();
        let payload = vec![0x77u8; 256];
        HostMemory::write(&mut mem, 0x1_0000, &payload);
        single_descriptor(0x1_0000, 0x100, 256).write_to(&mut mem, 0x2000);

        // The driver's register sequence.
        let t0 = Time::from_us(10);
        assert!(design
            .mmio_write(
                t0,
                target::H2C_SGDMA + sgdma::DESC_LO,
                0x2000,
                &mut mem,
                &mut link
            )
            .unwrap()
            .is_none());
        assert!(design
            .mmio_write(
                t0,
                target::H2C_SGDMA + sgdma::DESC_HI,
                0,
                &mut mem,
                &mut link
            )
            .unwrap()
            .is_none());
        let run = design
            .mmio_write(
                t0,
                target::H2C + chan::CONTROL,
                CTRL_RUN,
                &mut mem,
                &mut link,
            )
            .unwrap()
            .unwrap();
        assert_eq!(run.outcome.bytes, 256);
        assert!(run.irq_at.is_some());
        assert!(run.irq_at.unwrap() > run.outcome.completed_at);
        let mut back = vec![0u8; 256];
        design.card.read(0x100, &mut back);
        assert_eq!(back, payload);
        // Status shows stopped, not busy.
        assert_eq!(design.mmio_read(target::H2C + chan::STATUS), 0b10);
        assert_eq!(design.h2c_counter.count(), 1);
    }

    #[test]
    fn c2h_returns_data_and_fires_vector_one() {
        let (mut design, mut mem, mut link) = fixture();
        CardMemory::write(&mut design.card, 0x40, &[0xABu8; 128]);
        single_descriptor(0x40, 0x3_0000, 128).write_to(&mut mem, 0x2100);
        design
            .mmio_write(
                Time::ZERO,
                target::C2H_SGDMA + sgdma::DESC_LO,
                0x2100,
                &mut mem,
                &mut link,
            )
            .unwrap();
        let run = design
            .mmio_write(
                Time::ZERO,
                target::C2H + chan::CONTROL,
                CTRL_RUN,
                &mut mem,
                &mut link,
            )
            .unwrap()
            .unwrap();
        assert!(run.irq_at.is_some());
        assert_eq!(mem.slice(0x3_0000, 128), &[0xABu8; 128]);
        assert_eq!(design.c2h_counter.count(), 1);
    }

    #[test]
    fn engine_error_propagates() {
        let (mut design, mut mem, mut link) = fixture();
        // No descriptor written → zeroed memory → bad magic.
        design
            .mmio_write(
                Time::ZERO,
                target::H2C_SGDMA + sgdma::DESC_LO,
                0x2000,
                &mut mem,
                &mut link,
            )
            .unwrap();
        let err = design
            .mmio_write(
                Time::ZERO,
                target::H2C + chan::CONTROL,
                CTRL_RUN,
                &mut mem,
                &mut link,
            )
            .unwrap_err();
        assert_eq!(err, EngineError::BadMagic { addr: 0x2000 });
    }

    #[test]
    fn unarmed_interrupts_stay_silent() {
        let mut design = XdmaExampleDesign::new(4096);
        design.msix.enabled = true;
        design.msix.program(0, vf_pcie::MSI_ADDR_BASE, 0x30);
        let mut mem = HostMemory::new(0, 1 << 20);
        let mut link = PcieLink::new(LinkConfig::gen2_x2());
        HostMemory::write(&mut mem, 0x1_0000, &[1u8; 64]);
        single_descriptor(0x1_0000, 0, 64).write_to(&mut mem, 0x2000);
        design
            .mmio_write(
                Time::ZERO,
                target::H2C_SGDMA + sgdma::DESC_LO,
                0x2000,
                &mut mem,
                &mut link,
            )
            .unwrap();
        let run = design
            .mmio_write(
                Time::ZERO,
                target::H2C + chan::CONTROL,
                CTRL_RUN,
                &mut mem,
                &mut link,
            )
            .unwrap()
            .unwrap();
        assert!(
            run.irq_at.is_none(),
            "interrupt without enable must not fire"
        );
    }
}
