//! # vf-pcie — transaction-level PCIe substrate
//!
//! Models the host-FPGA PCIe path of the paper's testbed (Alinx AX7A200,
//! Gen2 x2, into a Fedora desktop):
//!
//! * [`tlp`] — TLP taxonomy and wire-size/chunking arithmetic;
//! * [`link`] — the timing model: serialization, propagation, root-complex
//!   memory latency, non-posted tag windows, posted flow-control credits;
//! * [`config`] — type-0 configuration space with BAR sizing semantics;
//! * [`caps`] — PCI Express, MSI-X, and the VirtIO vendor-specific
//!   capabilities (`virtio_pci_cap`) the paper's FPGA interface must add;
//! * [`msix`] — vector table / pending-bit semantics;
//! * [`mod@enumerate`] — firmware-style bus enumeration and capability walk;
//! * [`memory`] — flat host DRAM with a `dma_alloc_coherent`-style bump
//!   allocator, over per-thread recycled all-zero buffers.
//!
//! Functional state (memory contents, registers) is accessed directly;
//! **timing** is always computed by [`PcieLink`] and fed back into the
//! discrete-event world. See DESIGN.md §2.2.
//!
//! ```
//! use vf_pcie::{LinkConfig, PcieLink};
//! use vf_sim::Time;
//!
//! // The paper's Gen2 x2 link: a device read of one 128 B chunk costs a
//! // full request/completion round trip — microseconds, not nanoseconds,
//! // which is why ring-walk counts dominate the FPGA-side latency.
//! let mut link = PcieLink::new(LinkConfig::gen2_x2());
//! let done = link.dma_read(Time::ZERO, 0x1000, 128);
//! assert!(done > Time::from_us(1) && done < Time::from_us(3));
//! ```

#![warn(missing_docs)]

pub mod caps;
pub mod config;
pub mod enumerate;
pub mod link;
pub mod memory;
pub mod msix;
pub mod tlp;

pub use caps::{
    Capability, MsixCapability, ParsedVirtioCap, PcieCapability, VirtioCfgType, VirtioPciCap,
};
pub use config::{BarDef, ConfigSpace, ConfigSpaceBuilder};
pub use enumerate::{enumerate, BarAssignment, EnumeratedDevice, MmioAllocator};
pub use link::{Direction, LinkConfig, PcieGen, PcieLink};
pub use memory::{HostMemory, ZeroedBuf};
pub use msix::{MsixEntry, MsixTable, MSI_ADDR_BASE};
pub use tlp::TlpKind;

/// Vendor ID assigned to VirtIO devices (Red Hat / Qumranet).
pub const VIRTIO_VENDOR_ID: u16 = 0x1AF4;

/// Modern VirtIO device-ID base: device ID = `0x1040 + device_type`.
pub const VIRTIO_DEVICE_ID_BASE: u16 = 0x1040;

/// Xilinx's PCI vendor ID, announced by the XDMA example design.
pub const XILINX_VENDOR_ID: u16 = 0x10EE;

/// Device ID used by the 7-series Gen2 XDMA example design in the model.
pub const XDMA_EXAMPLE_DEVICE_ID: u16 = 0x7024;
