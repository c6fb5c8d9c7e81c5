//! The XDMA character-device driver model.
//!
//! Models the Xilinx reference driver's `/dev/xdma0_h2c_0` /
//! `/dev/xdma0_c2h_0` data path as the paper's test program uses it
//! (§III-B2, §IV-A): each `write()`/`read()` call
//!
//! 1. pins and DMA-maps the user buffer (`get_user_pages` +
//!    `dma_map_sg`),
//! 2. builds a descriptor list in a coherent buffer,
//! 3. programs the engine's SGDMA registers and sets RUN via MMIO,
//! 4. blocks until the completion interrupt, whose handler reads the
//!    engine status over MMIO (a non-posted read — the CPU stalls for
//!    the full link round trip),
//! 5. unmaps and returns.
//!
//! This per-transfer descriptor exchange is the design difference the
//! paper contrasts with VirtIO's init-time address sharing.

use vf_pcie::HostMemory;
use vf_sim::Time;
use vf_xdma::desc::build_list;
use vf_xdma::regs::{chan, irq, sgdma, target, CTRL_RUN, IE_DESC_STOPPED};
use vf_xdma::ChannelDir;

use crate::cost::CostEngine;

/// Maximum bytes one descriptor covers in this driver (the reference
/// driver splits on page-sized scatter entries; the paper's payloads are
/// all single-descriptor).
pub const DESC_CHUNK: u32 = 4096;

/// One MMIO register write `(BAR offset, value)` the driver issues.
pub type RegWrite = (u64, u32);

/// Everything the caller needs to launch one transfer.
#[derive(Clone, Debug)]
pub struct TransferSetup {
    /// Register writes to apply in order; the last one sets RUN.
    pub mmio_writes: [RegWrite; 4],
    /// Driver CPU time consumed building the transfer.
    pub cpu: Time,
    /// Host address of the first descriptor.
    pub desc_addr: u64,
    /// Descriptors built.
    pub descriptors: u32,
}

/// Driver state for one XDMA function (both channels).
#[derive(Clone, Debug)]
pub struct XdmaCharDriver {
    desc_h2c: u64,
    desc_c2h: u64,
    /// Completed transfers per direction (H2C, C2H).
    pub transfers: [u64; 2],
}

impl XdmaCharDriver {
    /// Allocate the coherent descriptor buffers (done once at `open()`).
    pub fn init(mem: &mut HostMemory) -> Self {
        XdmaCharDriver {
            desc_h2c: mem.alloc(4096, 4096),
            desc_c2h: mem.alloc(4096, 4096),
            transfers: [0, 0],
        }
    }

    /// Register writes issued once at driver load: arm both channels'
    /// DESC_STOPPED interrupts and the IRQ block's channel mask.
    pub fn init_mmio_writes(&self) -> Vec<RegWrite> {
        vec![
            (target::H2C + chan::INT_ENABLE, IE_DESC_STOPPED),
            (target::C2H + chan::INT_ENABLE, IE_DESC_STOPPED),
            (target::IRQ + irq::CHANNEL_INT_EN, 0b11),
        ]
    }

    /// The `write()` (H2C) or `read()` (C2H) body up to the blocking
    /// point: move `len` bytes between the (conceptual) user buffer at
    /// `host_addr` and card address `card_addr`, in direction `dir`.
    pub fn setup(
        &mut self,
        mem: &mut HostMemory,
        dir: ChannelDir,
        host_addr: u64,
        card_addr: u64,
        len: u32,
        cost: &mut CostEngine,
    ) -> TransferSetup {
        let mut cpu = Time::ZERO;
        // Pin + DMA-map the user buffer.
        cpu += cost.step(cost.costs.xdma_pin_map);
        // Build the descriptor list.
        let desc_base = match dir {
            ChannelDir::H2C => self.desc_h2c,
            ChannelDir::C2H => self.desc_c2h,
        };
        let (src, dst) = match dir {
            ChannelDir::H2C => (host_addr, card_addr),
            ChannelDir::C2H => (card_addr, host_addr),
        };
        let descs = build_list(mem, desc_base, src, dst, len, DESC_CHUNK);
        cpu += cost.step(cost.costs.xdma_desc_build) * descs.len() as u64;

        // Program the engine: SGDMA descriptor address, adjacent count,
        // then RUN.
        let (sg, ch) = match dir {
            ChannelDir::H2C => (target::H2C_SGDMA, target::H2C),
            ChannelDir::C2H => (target::C2H_SGDMA, target::C2H),
        };
        let mmio_writes = [
            (sg + sgdma::DESC_LO, desc_base as u32),
            (sg + sgdma::DESC_HI, (desc_base >> 32) as u32),
            (sg + sgdma::DESC_ADJ, 0),
            (ch + chan::CONTROL, CTRL_RUN),
        ];
        TransferSetup {
            mmio_writes,
            cpu,
            desc_addr: desc_base,
            descriptors: descs.len() as u32,
        }
    }

    /// Interrupt-handler body beyond the status-register read stall (which
    /// the caller charges using the link round-trip time): bookkeeping +
    /// waking the blocked process.
    pub fn isr_body(&mut self, cost: &mut CostEngine) -> Time {
        cost.step(cost.costs.xdma_isr_body)
    }

    /// Post-wakeup teardown: `dma_unmap` + unpin, then the syscall
    /// returns.
    pub fn teardown(&mut self, dir: ChannelDir, cost: &mut CostEngine) -> Time {
        self.transfers[match dir {
            ChannelDir::H2C => 0,
            ChannelDir::C2H => 1,
        }] += 1;
        cost.step(cost.costs.xdma_unmap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vf_sim::{NoiseModel, SimRng};
    use vf_xdma::desc::XdmaDesc;

    use crate::cost::HostCosts;

    fn fixture() -> (HostMemory, XdmaCharDriver, CostEngine) {
        let mut mem = HostMemory::testbed_default();
        let drv = XdmaCharDriver::init(&mut mem);
        let cost = CostEngine::new(
            HostCosts::fedora37(),
            NoiseModel::noiseless(),
            SimRng::new(3),
        );
        (mem, drv, cost)
    }

    #[test]
    fn write_setup_builds_descriptor_and_run_sequence() {
        let (mut mem, mut drv, mut cost) = fixture();
        let buf = mem.alloc(1024, 64);
        let setup = drv.setup(&mut mem, ChannelDir::H2C, buf, 0x100, 1024, &mut cost);
        assert_eq!(setup.descriptors, 1);
        assert!(setup.cpu > Time::ZERO);
        // Descriptor points host → card.
        let d = XdmaDesc::read_from(&mem, setup.desc_addr).unwrap();
        assert_eq!(d.src, buf);
        assert_eq!(d.dst, 0x100);
        assert_eq!(d.len, 1024);
        assert!(d.is_last());
        // Last MMIO write is the RUN bit on the H2C channel.
        let (off, val) = *setup.mmio_writes.last().unwrap();
        assert_eq!(off, target::H2C + chan::CONTROL);
        assert_eq!(val, CTRL_RUN);
        // SGDMA address registers carry the descriptor address.
        assert_eq!(setup.mmio_writes[0].1, setup.desc_addr as u32);
    }

    #[test]
    fn read_setup_swaps_direction() {
        let (mut mem, mut drv, mut cost) = fixture();
        let buf = mem.alloc(256, 64);
        let setup = drv.setup(&mut mem, ChannelDir::C2H, buf, 0x200, 256, &mut cost);
        let d = XdmaDesc::read_from(&mem, setup.desc_addr).unwrap();
        assert_eq!(d.src, 0x200); // card
        assert_eq!(d.dst, buf); // host
        let (off, _) = *setup.mmio_writes.last().unwrap();
        assert_eq!(off, target::C2H + chan::CONTROL);
    }

    #[test]
    fn large_transfers_split_into_page_descriptors() {
        let (mut mem, mut drv, mut cost) = fixture();
        let buf = mem.alloc(10_000, 4096);
        let setup = drv.setup(&mut mem, ChannelDir::H2C, buf, 0, 10_000, &mut cost);
        assert_eq!(setup.descriptors, 3); // 4096 + 4096 + 1808
    }

    #[test]
    fn init_writes_arm_interrupts() {
        let (mut mem, drv, _) = fixture();
        let mut bar = vf_xdma::XdmaBar::new();
        for (off, val) in drv.init_mmio_writes() {
            bar.write32(off, val);
        }
        let _ = &mut mem;
        // A completed H2C run now fires vector 0.
        bar.write32(target::H2C + chan::CONTROL, CTRL_RUN);
        assert_eq!(bar.complete_channel(ChannelDir::H2C, 1), Some(0));
    }

    #[test]
    fn transfer_counters() {
        let (_, mut drv, mut cost) = fixture();
        drv.teardown(ChannelDir::H2C, &mut cost);
        drv.teardown(ChannelDir::C2H, &mut cost);
        drv.teardown(ChannelDir::C2H, &mut cost);
        assert_eq!(drv.transfers, [1, 2]);
    }

    #[test]
    fn setup_costs_include_pin_and_desc_build() {
        let (mut mem, mut drv, mut cost) = fixture();
        let buf = mem.alloc(64, 64);
        let setup = drv.setup(&mut mem, ChannelDir::H2C, buf, 0, 64, &mut cost);
        let expect = cost.costs.xdma_pin_map + cost.costs.xdma_desc_build;
        assert_eq!(setup.cpu, expect);
    }
}
