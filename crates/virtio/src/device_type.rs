//! VirtIO device types.
//!
//! The prior work \[14\] implemented a single device type (console); this
//! paper's contribution adds the network device, and the framework's claim
//! — "the modifications required to the FPGA design to support different
//! device types are minimal" (§IV-B) — is embodied here: a device type is
//! just an ID, a class code, a minimum queue set, and a device-specific
//! config blob. Everything else (rings, transport, DMA control) is shared.

/// The VirtIO device types implemented by the testbed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u16)]
pub enum DeviceType {
    /// Network card (device type 1) — this paper's test case.
    Net = 1,
    /// Block device (device type 2) — "support for more VirtIO device
    /// types".
    Block = 2,
    /// Console (device type 3) — the device type of the prior work \[14\].
    Console = 3,
}

impl DeviceType {
    /// Modern PCI device ID: `0x1040 + type`.
    pub fn pci_device_id(self) -> u16 {
        vf_pcie::VIRTIO_DEVICE_ID_BASE + self as u16
    }

    /// Transitional subsystem device ID (equals the VirtIO type).
    pub fn subsystem_id(self) -> u16 {
        self as u16
    }

    /// PCI class code `(base, sub, prog_if)` the device announces.
    pub fn class_code(self) -> (u8, u8, u8) {
        match self {
            DeviceType::Net => (0x02, 0x00, 0x00),   // network controller
            DeviceType::Block => (0x01, 0x80, 0x00), // mass storage, other
            DeviceType::Console => (0x07, 0x80, 0x00), // communication, other
        }
    }

    /// Minimum number of virtqueues the device type requires (without
    /// optional control/event queues).
    pub fn min_queues(self) -> u16 {
        match self {
            DeviceType::Net => 2,     // receiveq1 + transmitq1
            DeviceType::Block => 1,   // requestq
            DeviceType::Console => 2, // port0 rx + tx
        }
    }

    /// Human-readable name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            DeviceType::Net => "virtio-net",
            DeviceType::Block => "virtio-blk",
            DeviceType::Console => "virtio-console",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn device_ids_follow_modern_rule() {
        assert_eq!(DeviceType::Net.pci_device_id(), 0x1041);
        assert_eq!(DeviceType::Block.pci_device_id(), 0x1042);
        assert_eq!(DeviceType::Console.pci_device_id(), 0x1043);
    }

    #[test]
    fn class_codes() {
        assert_eq!(DeviceType::Net.class_code().0, 0x02);
        assert_eq!(DeviceType::Block.class_code().0, 0x01);
        assert_eq!(DeviceType::Console.class_code().0, 0x07);
    }

    #[test]
    fn queue_minimums() {
        assert_eq!(DeviceType::Net.min_queues(), 2);
        assert_eq!(DeviceType::Block.min_queues(), 1);
        assert_eq!(DeviceType::Console.min_queues(), 2);
    }
}
