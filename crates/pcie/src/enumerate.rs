//! Bus enumeration.
//!
//! Models what the host firmware/kernel does at boot: read the IDs out of
//! config space, size and assign the BARs, enable memory decoding and bus
//! mastering, and walk the capability list. Requirement (i) of the paper's
//! §II-C — announcing the right vendor/device IDs at enumeration — is what
//! decides *which driver the kernel binds*: `0x1AF4` devices match
//! virtio-pci, the Xilinx ID matches the out-of-tree XDMA driver.

use crate::caps::{parse_virtio_cap, FoundCap, ParsedVirtioCap, CAP_ID_VENDOR};
use crate::config::{cmd, reg, BarDef, ConfigSpace};

/// An assigned BAR after enumeration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BarAssignment {
    /// BAR index.
    pub index: usize,
    /// Assigned bus address.
    pub address: u64,
    /// Window size in bytes.
    pub size: u64,
}

/// The result of enumerating one endpoint.
#[derive(Clone, Debug)]
pub struct EnumeratedDevice {
    /// Vendor ID read from config space.
    pub vendor: u16,
    /// Device ID read from config space.
    pub device: u16,
    /// Class code (base << 16 | sub << 8 | prog-if).
    pub class: u32,
    /// Assigned BARs (implemented ones only).
    pub bars: Vec<BarAssignment>,
    /// All capabilities found, in list order.
    pub caps: Vec<FoundCap>,
}

impl EnumeratedDevice {
    /// The assignment for BAR `index`, if implemented.
    pub fn bar(&self, index: usize) -> Option<&BarAssignment> {
        self.bars.iter().find(|b| b.index == index)
    }

    /// Parse every VirtIO vendor capability (empty for non-VirtIO devices
    /// such as the XDMA design — this emptiness is how the virtio-pci
    /// driver would refuse to bind it).
    pub fn virtio_caps(&self, cfg: &ConfigSpace) -> Vec<ParsedVirtioCap> {
        self.caps
            .iter()
            .filter(|c| c.id == CAP_ID_VENDOR)
            .filter_map(|c| parse_virtio_cap(cfg, c.offset))
            .collect()
    }

    /// Bus address of a structure located by a VirtIO capability.
    pub fn virtio_struct_addr(&self, cap: &ParsedVirtioCap) -> Option<u64> {
        self.bar(cap.bar as usize)
            .map(|b| b.address + cap.offset as u64)
    }
}

/// MMIO window allocator used during enumeration. Hands out
/// naturally-aligned windows downward-compatible with how Linux assigns
/// 32-bit BARs below 4 GiB.
pub struct MmioAllocator {
    next: u64,
}

impl MmioAllocator {
    /// Allocator starting at the conventional PCI MMIO hole.
    pub fn new() -> Self {
        MmioAllocator { next: 0xE000_0000 }
    }

    /// Allocate a naturally-aligned window of `size` bytes.
    pub fn alloc(&mut self, size: u64) -> u64 {
        let addr = (self.next + size - 1) & !(size - 1);
        self.next = addr + size;
        addr
    }
}

impl Default for MmioAllocator {
    fn default() -> Self {
        Self::new()
    }
}

/// Enumerate one endpoint: size/assign BARs from `alloc`, enable memory
/// decode + bus mastering, and walk the capability list.
pub fn enumerate(cfg: &mut ConfigSpace, alloc: &mut MmioAllocator) -> EnumeratedDevice {
    let vendor = cfg.read_u16(reg::VENDOR_ID);
    let device = cfg.read_u16(reg::DEVICE_ID);
    assert_ne!(vendor, 0xFFFF, "no device present");
    let class = cfg.read_u32(reg::REVISION) >> 8;

    let mut bars = Vec::new();
    let defs = *cfg.bar_defs();
    for (i, def) in defs.iter().enumerate() {
        match def {
            BarDef::Mem32 { .. } => {
                let off = reg::BAR0 + (i as u16) * 4;
                cfg.write_u32(off, 0xFFFF_FFFF);
                let probe = cfg.read_u32(off) & !0xF;
                let size = (!probe).wrapping_add(1) as u64;
                let addr = alloc.alloc(size);
                cfg.write_u32(off, addr as u32);
                bars.push(BarAssignment {
                    index: i,
                    address: addr,
                    size,
                });
            }
            BarDef::Mem64 { .. } => {
                let off = reg::BAR0 + (i as u16) * 4;
                cfg.write_u32(off, 0xFFFF_FFFF);
                cfg.write_u32(off + 4, 0xFFFF_FFFF);
                let lo = (cfg.read_u32(off) & !0xF) as u64;
                let hi = (cfg.read_u32(off + 4) as u64) << 32;
                let size = (!(hi | lo)).wrapping_add(1);
                let addr = alloc.alloc(size);
                cfg.write_u32(off, addr as u32);
                cfg.write_u32(off + 4, (addr >> 32) as u32);
                bars.push(BarAssignment {
                    index: i,
                    address: addr,
                    size,
                });
            }
            BarDef::Mem64Hi | BarDef::None => {}
        }
    }

    cfg.write_u16(
        reg::COMMAND,
        cmd::MEM_ENABLE | cmd::BUS_MASTER | cmd::INTX_DISABLE,
    );

    // Walk the capability list (bounded to catch malformed loops).
    let mut caps = Vec::new();
    let mut ptr = cfg.read_u8(reg::CAP_PTR) as u16;
    let mut hops = 0;
    while ptr != 0 && hops < 48 {
        caps.push(FoundCap {
            id: cfg.read_u8(ptr),
            offset: ptr,
        });
        ptr = cfg.read_u8(ptr + 1) as u16;
        hops += 1;
    }

    EnumeratedDevice {
        vendor,
        device,
        class,
        bars,
        caps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::caps::{MsixCapability, VirtioCfgType, VirtioPciCap, CAP_ID_MSIX};
    use crate::config::ConfigSpaceBuilder;

    fn virtio_like() -> ConfigSpace {
        ConfigSpaceBuilder::new(0x1AF4, 0x1041)
            .class(0x02, 0x00, 0x00)
            .revision(1)
            .bar(0, BarDef::Mem32 { size: 16 * 1024 })
            .bar(1, BarDef::Mem32 { size: 4096 })
            .capability(&MsixCapability {
                table_size: 4,
                table_bar: 1,
                table_offset: 0,
                pba_bar: 1,
                pba_offset: 0x800,
            })
            .capability(&VirtioPciCap {
                cfg_type: VirtioCfgType::Common,
                bar: 0,
                offset: 0,
                length: 0x38,
                notify_off_multiplier: None,
            })
            .capability(&VirtioPciCap {
                cfg_type: VirtioCfgType::Notify,
                bar: 0,
                offset: 0x1000,
                length: 0x100,
                notify_off_multiplier: Some(4),
            })
            .capability(&VirtioPciCap {
                cfg_type: VirtioCfgType::Isr,
                bar: 0,
                offset: 0x2000,
                length: 4,
                notify_off_multiplier: None,
            })
            .capability(&VirtioPciCap {
                cfg_type: VirtioCfgType::Device,
                bar: 0,
                offset: 0x3000,
                length: 0x100,
                notify_off_multiplier: None,
            })
            .build()
    }

    #[test]
    fn assigns_disjoint_aligned_bars() {
        let mut cfg = virtio_like();
        let mut alloc = MmioAllocator::new();
        let dev = enumerate(&mut cfg, &mut alloc);
        assert_eq!(dev.vendor, 0x1AF4);
        assert_eq!(dev.device, 0x1041);
        assert_eq!(dev.class >> 16, 0x02);
        assert_eq!(dev.bars.len(), 2);
        let b0 = dev.bar(0).unwrap();
        let b1 = dev.bar(1).unwrap();
        assert_eq!(b0.size, 16 * 1024);
        assert_eq!(b0.address % b0.size, 0);
        assert!(b1.address >= b0.address + b0.size || b0.address >= b1.address + b1.size);
        assert!(cfg.mem_enabled() && cfg.bus_master());
    }

    #[test]
    fn finds_all_capabilities_in_order() {
        let mut cfg = virtio_like();
        let dev = enumerate(&mut cfg, &mut MmioAllocator::new());
        assert_eq!(dev.caps.len(), 5);
        assert_eq!(dev.caps[0].id, CAP_ID_MSIX);
        let vcaps = dev.virtio_caps(&cfg);
        assert_eq!(vcaps.len(), 4);
        assert_eq!(vcaps[0].cfg_type, VirtioCfgType::Common);
        assert_eq!(vcaps[1].cfg_type, VirtioCfgType::Notify);
        assert_eq!(vcaps[2].cfg_type, VirtioCfgType::Isr);
        assert_eq!(vcaps[3].cfg_type, VirtioCfgType::Device);
    }

    #[test]
    fn virtio_struct_addresses_resolve_through_bars() {
        let mut cfg = virtio_like();
        let dev = enumerate(&mut cfg, &mut MmioAllocator::new());
        let vcaps = dev.virtio_caps(&cfg);
        let common = dev.virtio_struct_addr(&vcaps[0]).unwrap();
        let notify = dev.virtio_struct_addr(&vcaps[1]).unwrap();
        let bar0 = dev.bar(0).unwrap().address;
        assert_eq!(common, bar0);
        assert_eq!(notify, bar0 + 0x1000);
    }

    #[test]
    fn xdma_device_has_no_virtio_caps() {
        let mut cfg = ConfigSpaceBuilder::new(0x10EE, 0x7024)
            .class(0x05, 0x80, 0x00)
            .bar(0, BarDef::Mem32 { size: 64 * 1024 })
            .capability(&MsixCapability {
                table_size: 2,
                table_bar: 0,
                table_offset: 0x8000,
                pba_bar: 0,
                pba_offset: 0x8800,
            })
            .build();
        let dev = enumerate(&mut cfg, &mut MmioAllocator::new());
        assert_eq!(dev.vendor, 0x10EE);
        assert!(dev.virtio_caps(&cfg).is_empty());
    }

    #[test]
    fn bar64_assignment() {
        let mut cfg = ConfigSpaceBuilder::new(0x1AF4, 0x1041)
            .bar(0, BarDef::Mem64 { size: 1 << 20 })
            .build();
        let dev = enumerate(&mut cfg, &mut MmioAllocator::new());
        let b = dev.bar(0).unwrap();
        assert_eq!(b.size, 1 << 20);
        assert_eq!(cfg.bar_address(0), Some(b.address));
    }
}
