//! VirtIO modern-PCI transport: the device-side register blocks.
//!
//! These are the "VirtIO configuration structures" requirement (ii) of the
//! paper's §II-C — implemented as part of the FPGA's control logic and
//! mapped into BAR0. The in-kernel virtio-pci driver locates them through
//! the vendor capabilities (`vf_pcie::caps`) and then performs plain MMIO
//! reads/writes against this register file:
//!
//! * the **common configuration** structure (VirtIO 1.2 §4.1.4.3):
//!   feature windows, device status, queue setup registers;
//! * the **notification** region: one 16-bit doorbell per queue at
//!   `notify_off · notify_off_multiplier`;
//! * the **ISR status** byte (read-to-clear; unused under MSI-X but
//!   required to exist);
//! * the **device-specific configuration** (e.g. `virtio_net_config`),
//!   provided by the device-type modules as raw bytes.

use crate::features::{Negotiation, NegotiationError};
use crate::ring::VirtqueueLayout;

/// Register offsets within the common configuration structure.
pub mod common {
    /// `device_feature_select` (u32, RW).
    pub const DEVICE_FEATURE_SELECT: u64 = 0x00;
    /// `device_feature` (u32, RO).
    pub const DEVICE_FEATURE: u64 = 0x04;
    /// `driver_feature_select` (u32, RW).
    pub const DRIVER_FEATURE_SELECT: u64 = 0x08;
    /// `driver_feature` (u32, RW).
    pub const DRIVER_FEATURE: u64 = 0x0C;
    /// `config_msix_vector` (u16, RW).
    pub const CONFIG_MSIX_VECTOR: u64 = 0x10;
    /// `num_queues` (u16, RO).
    pub const NUM_QUEUES: u64 = 0x12;
    /// `device_status` (u8, RW).
    pub const DEVICE_STATUS: u64 = 0x14;
    /// `config_generation` (u8, RO).
    pub const CONFIG_GENERATION: u64 = 0x15;
    /// `queue_select` (u16, RW).
    pub const QUEUE_SELECT: u64 = 0x16;
    /// `queue_size` (u16, RW).
    pub const QUEUE_SIZE: u64 = 0x18;
    /// `queue_msix_vector` (u16, RW).
    pub const QUEUE_MSIX_VECTOR: u64 = 0x1A;
    /// `queue_enable` (u16, RW).
    pub const QUEUE_ENABLE: u64 = 0x1C;
    /// `queue_notify_off` (u16, RO).
    pub const QUEUE_NOTIFY_OFF: u64 = 0x1E;
    /// `queue_desc` low half (u64 split across two u32 accesses).
    pub const QUEUE_DESC_LO: u64 = 0x20;
    /// `queue_desc` high half.
    pub const QUEUE_DESC_HI: u64 = 0x24;
    /// `queue_driver` (avail ring) low half.
    pub const QUEUE_DRIVER_LO: u64 = 0x28;
    /// `queue_driver` high half.
    pub const QUEUE_DRIVER_HI: u64 = 0x2C;
    /// `queue_device` (used ring) low half.
    pub const QUEUE_DEVICE_LO: u64 = 0x30;
    /// `queue_device` high half.
    pub const QUEUE_DEVICE_HI: u64 = 0x34;
    /// Structure length.
    pub const LEN: u64 = 0x38;
}

/// `VIRTIO_MSI_NO_VECTOR`.
pub const MSI_NO_VECTOR: u16 = 0xFFFF;

/// The modern-PCI transport as the driver sees it: MMIO into the BAR
/// regions the VirtIO capabilities located. The FPGA device model
/// implements it over BAR0; unit tests implement it over a bare
/// [`CommonCfg`].
pub trait VirtioTransport {
    /// Read from the common-config structure.
    fn common_read(&mut self, off: u64, len: usize) -> u64;
    /// Write to the common-config structure.
    fn common_write(&mut self, off: u64, len: usize, val: u64);
    /// Read from the device-specific config structure.
    fn device_cfg_read(&mut self, off: u64, len: usize) -> u64;
}

/// Per-queue registers behind `queue_select`.
#[derive(Clone, Debug)]
pub struct QueueRegs {
    /// Maximum size the device supports for this queue.
    pub size_max: u16,
    /// Size the driver programmed (defaults to `size_max`).
    pub size: u16,
    /// MSI-X vector for this queue.
    pub msix_vector: u16,
    /// Queue enabled?
    pub enabled: bool,
    /// Notify offset (we use the queue index).
    pub notify_off: u16,
    /// Descriptor table physical address.
    pub desc: u64,
    /// Avail ring ("driver area") physical address.
    pub driver: u64,
    /// Used ring ("device area") physical address.
    pub device: u64,
}

impl QueueRegs {
    fn new(index: u16, size_max: u16) -> Self {
        QueueRegs {
            size_max,
            size: size_max,
            msix_vector: MSI_NO_VECTOR,
            enabled: false,
            notify_off: index,
            desc: 0,
            driver: 0,
            device: 0,
        }
    }

    /// The ring layout the driver programmed (valid once enabled).
    pub fn layout(&self) -> VirtqueueLayout {
        VirtqueueLayout {
            desc: self.desc,
            avail: self.driver,
            used: self.device,
            size: self.size,
        }
    }
}

/// Side effects of a common-cfg write that the device model must act on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CfgEvent {
    /// Device status changed (argument: new raw value written).
    StatusWrite(u8),
    /// Queue `n` was enabled with fully-programmed addresses.
    QueueEnabled(u16),
    /// Device was reset (status written 0).
    Reset,
}

/// The device-side common configuration register file.
#[derive(Clone, Debug)]
pub struct CommonCfg {
    /// Feature/status negotiation state.
    pub negotiation: Negotiation,
    device_feature_select: u32,
    driver_feature_select: u32,
    driver_features_shadow: u64,
    /// MSI-X vector for config-change interrupts.
    pub config_msix_vector: u16,
    queue_select: u16,
    queues: Vec<QueueRegs>,
    /// Bumped whenever device-specific config changes.
    pub config_generation: u8,
}

impl CommonCfg {
    /// A device offering `features` with the given per-queue max sizes.
    pub fn new(features: u64, queue_sizes: &[u16]) -> Self {
        CommonCfg {
            negotiation: Negotiation::new(features),
            device_feature_select: 0,
            driver_feature_select: 0,
            driver_features_shadow: 0,
            config_msix_vector: MSI_NO_VECTOR,
            queue_select: 0,
            queues: queue_sizes
                .iter()
                .enumerate()
                .map(|(i, &s)| QueueRegs::new(i as u16, s))
                .collect(),
            config_generation: 0,
        }
    }

    /// Number of queues.
    pub fn num_queues(&self) -> u16 {
        self.queues.len() as u16
    }

    /// Registers of queue `n`.
    pub fn queue(&self, n: u16) -> &QueueRegs {
        &self.queues[n as usize]
    }

    fn selected(&mut self) -> Option<&mut QueueRegs> {
        self.queues.get_mut(self.queue_select as usize)
    }

    /// MMIO read of `len` ∈ {1, 2, 4} bytes at `off`.
    pub fn read(&self, off: u64, len: usize) -> u64 {
        let q = self.queues.get(self.queue_select as usize);
        let val: u64 = match off {
            common::DEVICE_FEATURE_SELECT => self.device_feature_select as u64,
            common::DEVICE_FEATURE => {
                let f = self.negotiation.offered();
                match self.device_feature_select {
                    0 => f & 0xFFFF_FFFF,
                    1 => f >> 32,
                    _ => 0,
                }
            }
            common::DRIVER_FEATURE_SELECT => self.driver_feature_select as u64,
            common::DRIVER_FEATURE => match self.driver_feature_select {
                0 => self.driver_features_shadow & 0xFFFF_FFFF,
                1 => self.driver_features_shadow >> 32,
                _ => 0,
            },
            common::CONFIG_MSIX_VECTOR => self.config_msix_vector as u64,
            common::NUM_QUEUES => self.num_queues() as u64,
            common::DEVICE_STATUS => self.negotiation.status() as u64,
            common::CONFIG_GENERATION => self.config_generation as u64,
            common::QUEUE_SELECT => self.queue_select as u64,
            common::QUEUE_SIZE => q.map_or(0, |q| q.size) as u64,
            common::QUEUE_MSIX_VECTOR => q.map_or(MSI_NO_VECTOR, |q| q.msix_vector) as u64,
            common::QUEUE_ENABLE => q.map_or(0, |q| q.enabled as u16) as u64,
            common::QUEUE_NOTIFY_OFF => q.map_or(0, |q| q.notify_off) as u64,
            common::QUEUE_DESC_LO => q.map_or(0, |q| q.desc) & 0xFFFF_FFFF,
            common::QUEUE_DESC_HI => q.map_or(0, |q| q.desc) >> 32,
            common::QUEUE_DRIVER_LO => q.map_or(0, |q| q.driver) & 0xFFFF_FFFF,
            common::QUEUE_DRIVER_HI => q.map_or(0, |q| q.driver) >> 32,
            common::QUEUE_DEVICE_LO => q.map_or(0, |q| q.device) & 0xFFFF_FFFF,
            common::QUEUE_DEVICE_HI => q.map_or(0, |q| q.device) >> 32,
            _ => 0,
        };
        val & mask(len)
    }

    /// MMIO write of `len` ∈ {1, 2, 4} bytes at `off`. Returns any side
    /// effect the device model must handle, or a negotiation error (which
    /// the driver observes via status read-back).
    pub fn write(
        &mut self,
        off: u64,
        len: usize,
        val: u64,
    ) -> Result<Option<CfgEvent>, NegotiationError> {
        let val = val & mask(len);
        match off {
            common::DEVICE_FEATURE_SELECT => self.device_feature_select = val as u32,
            common::DRIVER_FEATURE_SELECT => self.driver_feature_select = val as u32,
            common::DRIVER_FEATURE => {
                match self.driver_feature_select {
                    0 => {
                        self.driver_features_shadow =
                            (self.driver_features_shadow & !0xFFFF_FFFF) | val;
                    }
                    1 => {
                        self.driver_features_shadow =
                            (self.driver_features_shadow & 0xFFFF_FFFF) | (val << 32);
                    }
                    _ => {}
                }
                self.negotiation
                    .write_driver_features(self.driver_features_shadow);
            }
            common::CONFIG_MSIX_VECTOR => self.config_msix_vector = val as u16,
            common::DEVICE_STATUS => {
                let v = val as u8;
                if v == 0 {
                    self.reset();
                    return Ok(Some(CfgEvent::Reset));
                }
                self.negotiation.write_status(v)?;
                return Ok(Some(CfgEvent::StatusWrite(v)));
            }
            common::QUEUE_SELECT => self.queue_select = val as u16,
            common::QUEUE_SIZE => {
                if let Some(q) = self.selected() {
                    let v = val as u16;
                    if VirtqueueLayout::valid_size(v) && v <= q.size_max {
                        q.size = v;
                    }
                }
            }
            common::QUEUE_MSIX_VECTOR => {
                if let Some(q) = self.selected() {
                    q.msix_vector = val as u16;
                }
            }
            common::QUEUE_ENABLE => {
                let sel = self.queue_select;
                if let Some(q) = self.selected() {
                    if val == 1 && !q.enabled {
                        q.enabled = true;
                        return Ok(Some(CfgEvent::QueueEnabled(sel)));
                    }
                }
            }
            common::QUEUE_DESC_LO => {
                if let Some(q) = self.selected() {
                    q.desc = (q.desc & !0xFFFF_FFFF) | val;
                }
            }
            common::QUEUE_DESC_HI => {
                if let Some(q) = self.selected() {
                    q.desc = (q.desc & 0xFFFF_FFFF) | (val << 32);
                }
            }
            common::QUEUE_DRIVER_LO => {
                if let Some(q) = self.selected() {
                    q.driver = (q.driver & !0xFFFF_FFFF) | val;
                }
            }
            common::QUEUE_DRIVER_HI => {
                if let Some(q) = self.selected() {
                    q.driver = (q.driver & 0xFFFF_FFFF) | (val << 32);
                }
            }
            common::QUEUE_DEVICE_LO => {
                if let Some(q) = self.selected() {
                    q.device = (q.device & !0xFFFF_FFFF) | val;
                }
            }
            common::QUEUE_DEVICE_HI => {
                if let Some(q) = self.selected() {
                    q.device = (q.device & 0xFFFF_FFFF) | (val << 32);
                }
            }
            _ => {}
        }
        Ok(None)
    }

    fn reset(&mut self) {
        let offered = self.negotiation.offered();
        let sizes: Vec<u16> = self.queues.iter().map(|q| q.size_max).collect();
        *self = CommonCfg::new(offered, &sizes);
    }
}

fn mask(len: usize) -> u64 {
    match len {
        1 => 0xFF,
        2 => 0xFFFF,
        4 => 0xFFFF_FFFF,
        8 => u64::MAX,
        _ => panic!("unsupported access width {len}"),
    }
}

/// The ISR status byte (read-to-clear). Unused when MSI-X is enabled, but
/// the structure must exist for the transport to be spec-complete.
#[derive(Clone, Copy, Debug, Default)]
pub struct IsrStatus {
    bits: u8,
}

impl IsrStatus {
    /// Queue interrupt bit.
    pub const QUEUE: u8 = 1;
    /// Device configuration change bit.
    pub const CONFIG: u8 = 2;

    /// Device sets bits when it would assert INTx.
    pub fn set(&mut self, bits: u8) {
        self.bits |= bits;
    }

    /// Driver read: returns and clears (the spec's read-to-clear
    /// semantics).
    pub fn read_to_clear(&mut self) -> u8 {
        std::mem::take(&mut self.bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::{feature, status};

    fn cfg() -> CommonCfg {
        CommonCfg::new(
            feature::VERSION_1 | feature::RING_EVENT_IDX | 0x7,
            &[256, 256, 64],
        )
    }

    #[test]
    fn feature_windows() {
        let mut c = cfg();
        c.write(common::DEVICE_FEATURE_SELECT, 4, 0).unwrap();
        let lo = c.read(common::DEVICE_FEATURE, 4);
        c.write(common::DEVICE_FEATURE_SELECT, 4, 1).unwrap();
        let hi = c.read(common::DEVICE_FEATURE, 4);
        assert_eq!(lo | (hi << 32), c.negotiation.offered());
        // Select window 2: reads as zero.
        c.write(common::DEVICE_FEATURE_SELECT, 4, 2).unwrap();
        assert_eq!(c.read(common::DEVICE_FEATURE, 4), 0);
    }

    #[test]
    fn driver_feature_write_via_windows() {
        let mut c = cfg();
        let accept = feature::VERSION_1 | 0x3;
        c.write(common::DRIVER_FEATURE_SELECT, 4, 0).unwrap();
        c.write(common::DRIVER_FEATURE, 4, accept & 0xFFFF_FFFF)
            .unwrap();
        c.write(common::DRIVER_FEATURE_SELECT, 4, 1).unwrap();
        c.write(common::DRIVER_FEATURE, 4, accept >> 32).unwrap();
        c.write(common::DEVICE_STATUS, 1, status::ACKNOWLEDGE as u64)
            .unwrap();
        c.write(
            common::DEVICE_STATUS,
            1,
            (status::ACKNOWLEDGE | status::DRIVER) as u64,
        )
        .unwrap();
        c.write(
            common::DEVICE_STATUS,
            1,
            (status::ACKNOWLEDGE | status::DRIVER | status::FEATURES_OK) as u64,
        )
        .unwrap();
        assert_eq!(c.negotiation.negotiated(), accept);
        assert!(c.read(common::DEVICE_STATUS, 1) as u8 & status::FEATURES_OK != 0);
    }

    #[test]
    fn queue_programming_sequence() {
        let mut c = cfg();
        assert_eq!(c.read(common::NUM_QUEUES, 2), 3);
        c.write(common::QUEUE_SELECT, 2, 1).unwrap();
        assert_eq!(c.read(common::QUEUE_SIZE, 2), 256);
        assert_eq!(c.read(common::QUEUE_NOTIFY_OFF, 2), 1);
        c.write(common::QUEUE_SIZE, 2, 128).unwrap();
        c.write(common::QUEUE_MSIX_VECTOR, 2, 1).unwrap();
        c.write(common::QUEUE_DESC_LO, 4, 0x0010_0000).unwrap();
        c.write(common::QUEUE_DESC_HI, 4, 0x1).unwrap();
        c.write(common::QUEUE_DRIVER_LO, 4, 0x0020_0000).unwrap();
        c.write(common::QUEUE_DEVICE_LO, 4, 0x0030_0000).unwrap();
        let ev = c.write(common::QUEUE_ENABLE, 2, 1).unwrap();
        assert_eq!(ev, Some(CfgEvent::QueueEnabled(1)));
        let q = c.queue(1);
        assert!(q.enabled);
        assert_eq!(q.size, 128);
        assert_eq!(q.desc, 0x1_0010_0000);
        let layout = q.layout();
        assert_eq!(layout.avail, 0x0020_0000);
        assert_eq!(layout.used, 0x0030_0000);
        assert_eq!(layout.size, 128);
    }

    #[test]
    fn queue_size_rejects_invalid() {
        let mut c = cfg();
        c.write(common::QUEUE_SELECT, 2, 0).unwrap();
        c.write(common::QUEUE_SIZE, 2, 300).unwrap(); // not a power of 2
        assert_eq!(c.read(common::QUEUE_SIZE, 2), 256);
        c.write(common::QUEUE_SIZE, 2, 512).unwrap(); // > size_max
        assert_eq!(c.read(common::QUEUE_SIZE, 2), 256);
    }

    #[test]
    fn select_out_of_range_queue_reads_zero_size() {
        let mut c = cfg();
        c.write(common::QUEUE_SELECT, 2, 40).unwrap();
        assert_eq!(c.read(common::QUEUE_SIZE, 2), 0);
        assert_eq!(c.read(common::QUEUE_ENABLE, 2), 0);
    }

    #[test]
    fn status_zero_resets() {
        let mut c = cfg();
        c.write(common::QUEUE_SELECT, 2, 0).unwrap();
        c.write(common::QUEUE_DESC_LO, 4, 0xAAAA_0000).unwrap();
        c.write(common::QUEUE_ENABLE, 2, 1).unwrap();
        let ev = c.write(common::DEVICE_STATUS, 1, 0).unwrap();
        assert_eq!(ev, Some(CfgEvent::Reset));
        assert!(!c.queue(0).enabled);
        assert_eq!(c.queue(0).desc, 0);
        assert_eq!(c.read(common::DEVICE_STATUS, 1), 0);
    }

    #[test]
    fn double_enable_fires_once() {
        let mut c = cfg();
        c.write(common::QUEUE_SELECT, 2, 0).unwrap();
        assert!(c.write(common::QUEUE_ENABLE, 2, 1).unwrap().is_some());
        assert!(c.write(common::QUEUE_ENABLE, 2, 1).unwrap().is_none());
    }

    #[test]
    fn isr_read_to_clear() {
        let mut isr = IsrStatus::default();
        isr.set(IsrStatus::QUEUE);
        isr.set(IsrStatus::CONFIG);
        assert_eq!(isr.read_to_clear(), 3);
        assert_eq!(isr.read_to_clear(), 0);
    }
}
