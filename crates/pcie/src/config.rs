//! PCI configuration space (type-0 header) with standard BAR-sizing
//! semantics and a capability-list builder.
//!
//! This is the structure the paper's §II-C points at: to make an FPGA look
//! like a VirtIO device, the endpoint must (i) announce the right
//! vendor/device IDs at enumeration time, (ii) expose the VirtIO
//! configuration structures through a BAR, and (iii) carry the VirtIO
//! vendor-specific capabilities in its capability list. The same structure
//! with Xilinx IDs and no VirtIO capabilities models the XDMA example
//! design's config space.

use crate::caps::Capability;

/// Size of the config space modeled (PCIe extended config space).
pub const CONFIG_SPACE_SIZE: usize = 4096;

/// Offset of the first capability appended by the builder.
const FIRST_CAP_OFFSET: u16 = 0x40;

/// Standard register offsets (type-0 header).
pub mod reg {
    /// Vendor ID (u16).
    pub const VENDOR_ID: u16 = 0x00;
    /// Device ID (u16).
    pub const DEVICE_ID: u16 = 0x02;
    /// Command register (u16).
    pub const COMMAND: u16 = 0x04;
    /// Status register (u16).
    pub const STATUS: u16 = 0x06;
    /// Revision ID (u8) + class code (3 bytes, little end first).
    pub const REVISION: u16 = 0x08;
    /// Header type (u8).
    pub const HEADER_TYPE: u16 = 0x0E;
    /// First Base Address Register; BARs are at 0x10 + 4·n, n in 0..6.
    pub const BAR0: u16 = 0x10;
    /// Subsystem vendor ID (u16).
    pub const SUBSYS_VENDOR: u16 = 0x2C;
    /// Subsystem device ID (u16).
    pub const SUBSYS_ID: u16 = 0x2E;
    /// Capabilities list head pointer (u8).
    pub const CAP_PTR: u16 = 0x34;
}

/// Command register bits.
pub mod cmd {
    /// Memory-space decoding enable.
    pub const MEM_ENABLE: u16 = 1 << 1;
    /// Bus-master (DMA) enable.
    pub const BUS_MASTER: u16 = 1 << 2;
    /// INTx disable (set by drivers that use MSI-X).
    pub const INTX_DISABLE: u16 = 1 << 10;
}

/// A BAR as implemented by the device.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BarDef {
    /// Unimplemented BAR: reads as zero, writes ignored.
    None,
    /// 32-bit memory BAR of the given size (power of two, ≥16).
    Mem32 {
        /// Decoded window size in bytes.
        size: u32,
    },
    /// Upper half of a 64-bit BAR occupying the previous slot.
    Mem64Hi,
    /// 64-bit memory BAR (consumes this slot and the next).
    Mem64 {
        /// Decoded window size in bytes.
        size: u64,
    },
}

/// One device's configuration space.
#[derive(Clone)]
pub struct ConfigSpace {
    bytes: Vec<u8>,
    bars: [BarDef; 6],
    /// Current BAR contents as written by enumeration software (raw
    /// register values including flag bits).
    bar_regs: [u32; 6],
}

impl ConfigSpace {
    fn blank() -> Self {
        ConfigSpace {
            bytes: vec![0; CONFIG_SPACE_SIZE],
            bars: [BarDef::None; 6],
            bar_regs: [0; 6],
        }
    }

    /// Read an 8-bit register.
    pub fn read_u8(&self, off: u16) -> u8 {
        self.bytes[off as usize]
    }

    /// Read a 16-bit register (little endian, as all of config space).
    pub fn read_u16(&self, off: u16) -> u16 {
        u16::from_le_bytes([self.bytes[off as usize], self.bytes[off as usize + 1]])
    }

    /// Read a 32-bit register. BAR slots return live BAR register state
    /// (address + flags, or size mask during probing).
    pub fn read_u32(&self, off: u16) -> u32 {
        if let Some(n) = Self::bar_index(off) {
            return self.bar_read(n);
        }
        let o = off as usize;
        u32::from_le_bytes(self.bytes[o..o + 4].try_into().unwrap())
    }

    /// Write a 32-bit register. Only the registers system software
    /// actually writes are writable: command, BARs, and capability control
    /// words handled by the owning device model.
    pub fn write_u32(&mut self, off: u16, val: u32) {
        if let Some(n) = Self::bar_index(off) {
            self.bar_write(n, val);
            return;
        }
        match off {
            reg::COMMAND => {
                let bytes = (val as u16).to_le_bytes();
                self.bytes[off as usize..off as usize + 2].copy_from_slice(&bytes);
            }
            _ => {
                // Capability region: devices expose writable words there
                // (e.g. MSI-X message control); model them as plain RAM.
                if off >= FIRST_CAP_OFFSET {
                    let o = off as usize;
                    self.bytes[o..o + 4].copy_from_slice(&val.to_le_bytes());
                }
                // Writes to read-only header registers are dropped, as on
                // real hardware.
            }
        }
    }

    /// Write a 16-bit register (convenience for command/control words).
    pub fn write_u16(&mut self, off: u16, val: u16) {
        let cur = self.read_u32(off & !0x3);
        let shift = ((off & 0x2) * 8) as u32;
        let mask = 0xFFFFu32 << shift;
        let merged = (cur & !mask) | ((val as u32) << shift);
        self.write_u32(off & !0x3, merged);
    }

    fn bar_index(off: u16) -> Option<usize> {
        if (reg::BAR0..reg::BAR0 + 24).contains(&off) && off.is_multiple_of(4) {
            Some(((off - reg::BAR0) / 4) as usize)
        } else {
            None
        }
    }

    fn bar_read(&self, n: usize) -> u32 {
        match self.bars[n] {
            BarDef::None => 0,
            _ => self.bar_regs[n],
        }
    }

    fn bar_write(&mut self, n: usize, val: u32) {
        // Memory BAR flag bits: bit 0 = 0 (memory), bits 2:1 = type
        // (00 = 32-bit, 10 = 64-bit), bit 3 = prefetchable (not set here).
        match self.bars[n] {
            BarDef::None => {}
            BarDef::Mem32 { size } => {
                let mask = !(size - 1);
                self.bar_regs[n] = (val & mask) & !0xF;
            }
            BarDef::Mem64 { size } => {
                let mask = !((size - 1) as u32);
                self.bar_regs[n] = ((val & mask) & !0xF) | 0x4;
            }
            BarDef::Mem64Hi => {
                let size = match self.bars[n - 1] {
                    BarDef::Mem64 { size } => size,
                    _ => unreachable!("Mem64Hi without Mem64 below"),
                };
                let hi_mask = !((size - 1) >> 32) as u32;
                self.bar_regs[n] = val & hi_mask;
            }
        }
    }

    /// The BAR definitions (for device models and tests).
    pub fn bar_defs(&self) -> &[BarDef; 6] {
        &self.bars
    }

    /// The address currently programmed into BAR `n` (flags stripped),
    /// combining both halves for 64-bit BARs.
    pub fn bar_address(&self, n: usize) -> Option<u64> {
        match self.bars[n] {
            BarDef::None | BarDef::Mem64Hi => None,
            BarDef::Mem32 { .. } => Some((self.bar_regs[n] & !0xF) as u64),
            BarDef::Mem64 { .. } => {
                let lo = (self.bar_regs[n] & !0xF) as u64;
                let hi = (self.bar_regs[n + 1] as u64) << 32;
                Some(hi | lo)
            }
        }
    }

    /// True if memory decoding is enabled (command bit 1).
    pub fn mem_enabled(&self) -> bool {
        self.read_u16(reg::COMMAND) & cmd::MEM_ENABLE != 0
    }

    /// True if bus mastering (DMA) is enabled (command bit 2).
    pub fn bus_master(&self) -> bool {
        self.read_u16(reg::COMMAND) & cmd::BUS_MASTER != 0
    }
}

/// Builder for a device's config space.
pub struct ConfigSpaceBuilder {
    cfg: ConfigSpace,
    next_cap: u16,
    last_cap_ptr: Option<u16>,
}

impl ConfigSpaceBuilder {
    /// Start a type-0 config space with the given IDs.
    pub fn new(vendor: u16, device: u16) -> Self {
        let mut cfg = ConfigSpace::blank();
        cfg.bytes[0..2].copy_from_slice(&vendor.to_le_bytes());
        cfg.bytes[2..4].copy_from_slice(&device.to_le_bytes());
        // Status bit 4: capabilities list present.
        cfg.bytes[reg::STATUS as usize] = 1 << 4;
        ConfigSpaceBuilder {
            cfg,
            next_cap: FIRST_CAP_OFFSET,
            last_cap_ptr: None,
        }
    }

    /// Set class code `(base, sub, prog_if)`; e.g. a network controller is
    /// `(0x02, 0x00, 0x00)`, a memory controller `(0x05, 0x80, 0x00)`.
    pub fn class(mut self, base: u8, sub: u8, prog_if: u8) -> Self {
        self.cfg.bytes[(reg::REVISION + 1) as usize] = prog_if;
        self.cfg.bytes[(reg::REVISION + 2) as usize] = sub;
        self.cfg.bytes[(reg::REVISION + 3) as usize] = base;
        self
    }

    /// Set the revision ID. VirtIO modern devices require revision ≥ 1 on
    /// their transitional IDs.
    pub fn revision(mut self, rev: u8) -> Self {
        self.cfg.bytes[reg::REVISION as usize] = rev;
        self
    }

    /// Set the subsystem IDs (VirtIO legacy drivers key on these).
    pub fn subsystem(mut self, vendor: u16, id: u16) -> Self {
        self.cfg.bytes[reg::SUBSYS_VENDOR as usize..reg::SUBSYS_VENDOR as usize + 2]
            .copy_from_slice(&vendor.to_le_bytes());
        self.cfg.bytes[reg::SUBSYS_ID as usize..reg::SUBSYS_ID as usize + 2]
            .copy_from_slice(&id.to_le_bytes());
        self
    }

    /// Define BAR `n`. 64-bit BARs also claim slot `n + 1`.
    pub fn bar(mut self, n: usize, def: BarDef) -> Self {
        match def {
            BarDef::Mem32 { size } => {
                assert!(size.is_power_of_two() && size >= 16, "bad BAR size");
            }
            BarDef::Mem64 { size } => {
                assert!(size.is_power_of_two() && size >= 16, "bad BAR size");
                assert!(n < 5, "64-bit BAR needs two slots");
                self.cfg.bars[n + 1] = BarDef::Mem64Hi;
            }
            BarDef::Mem64Hi => panic!("Mem64Hi is assigned implicitly"),
            BarDef::None => {}
        }
        self.cfg.bars[n] = def;
        self
    }

    /// Append a capability to the list. Capabilities appear in call order.
    pub fn capability(mut self, cap: &dyn Capability) -> Self {
        let body = cap.encode();
        let len = body.len() + 2; // id + next pointer prefix
        let off = self.next_cap;
        assert!(
            (off as usize + len) < 0x100,
            "capability list overflows the legacy config region"
        );
        // Link from the previous capability (or the header pointer).
        match self.last_cap_ptr {
            None => self.cfg.bytes[reg::CAP_PTR as usize] = off as u8,
            Some(prev) => self.cfg.bytes[prev as usize + 1] = off as u8,
        }
        self.cfg.bytes[off as usize] = cap.id();
        self.cfg.bytes[off as usize + 1] = 0; // end of list, for now
        self.cfg.bytes[off as usize + 2..off as usize + len].copy_from_slice(&body);
        self.last_cap_ptr = Some(off);
        // Keep capabilities 4-byte aligned as the spec requires.
        self.next_cap = off + ((len as u16 + 3) & !3);
        self
    }

    /// Finish building.
    pub fn build(self) -> ConfigSpace {
        self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::caps::MsixCapability;

    fn net_device() -> ConfigSpace {
        ConfigSpaceBuilder::new(0x1AF4, 0x1041)
            .class(0x02, 0x00, 0x00)
            .revision(1)
            .subsystem(0x1AF4, 0x0001)
            .bar(0, BarDef::Mem32 { size: 16 * 1024 })
            .bar(2, BarDef::Mem64 { size: 64 * 1024 })
            .capability(&MsixCapability {
                table_size: 8,
                table_bar: 0,
                table_offset: 0x2000,
                pba_bar: 0,
                pba_offset: 0x3000,
            })
            .build()
    }

    #[test]
    fn ids_and_class() {
        let cfg = net_device();
        assert_eq!(cfg.read_u16(reg::VENDOR_ID), 0x1AF4);
        assert_eq!(cfg.read_u16(reg::DEVICE_ID), 0x1041);
        // Class code in the top 3 bytes of the dword at 0x08.
        assert_eq!(cfg.read_u32(reg::REVISION) >> 8, 0x02_00_00);
        assert_eq!(cfg.read_u32(reg::REVISION) & 0xFF, 1);
        assert_eq!(cfg.read_u16(reg::SUBSYS_VENDOR), 0x1AF4);
    }

    #[test]
    fn bar_sizing_protocol() {
        let mut cfg = net_device();
        // Probe BAR0: write all-ones, read back the size mask.
        cfg.write_u32(reg::BAR0, 0xFFFF_FFFF);
        let probe = cfg.read_u32(reg::BAR0);
        let size = !(probe & !0xF) + 1;
        assert_eq!(size, 16 * 1024);
        // Assign an address.
        cfg.write_u32(reg::BAR0, 0xE000_0000);
        assert_eq!(cfg.bar_address(0), Some(0xE000_0000));
    }

    #[test]
    fn bar64_probe_and_assign() {
        let mut cfg = net_device();
        cfg.write_u32(reg::BAR0 + 8, 0xFFFF_FFFF);
        cfg.write_u32(reg::BAR0 + 12, 0xFFFF_FFFF);
        let lo = cfg.read_u32(reg::BAR0 + 8);
        let hi = cfg.read_u32(reg::BAR0 + 12);
        assert_eq!(lo & 0x7, 0x4, "64-bit memory BAR flag");
        let size = !((hi as u64) << 32 | (lo & !0xF) as u64) + 1;
        assert_eq!(size, 64 * 1024);
        cfg.write_u32(reg::BAR0 + 8, 0xD000_0000);
        cfg.write_u32(reg::BAR0 + 12, 0x1);
        assert_eq!(cfg.bar_address(2), Some(0x1_D000_0000));
    }

    #[test]
    fn unimplemented_bar_reads_zero() {
        let mut cfg = net_device();
        cfg.write_u32(reg::BAR0 + 4, 0xFFFF_FFFF);
        assert_eq!(cfg.read_u32(reg::BAR0 + 4), 0);
        assert_eq!(cfg.bar_address(1), None);
    }

    #[test]
    fn command_register_enables() {
        let mut cfg = net_device();
        assert!(!cfg.mem_enabled() && !cfg.bus_master());
        cfg.write_u16(reg::COMMAND, cmd::MEM_ENABLE | cmd::BUS_MASTER);
        assert!(cfg.mem_enabled() && cfg.bus_master());
    }

    #[test]
    fn capability_list_linked() {
        let cfg = net_device();
        let head = cfg.read_u8(reg::CAP_PTR);
        assert_eq!(head, 0x40);
        assert_eq!(cfg.read_u8(head as u16), 0x11); // MSI-X id
        assert_eq!(cfg.read_u8(head as u16 + 1), 0); // single entry
                                                     // Status bit 4 advertises the list.
        assert!(cfg.read_u16(reg::STATUS) & (1 << 4) != 0);
    }

    #[test]
    fn header_registers_are_read_only() {
        let mut cfg = net_device();
        cfg.write_u32(reg::VENDOR_ID, 0xDEAD_BEEF);
        assert_eq!(cfg.read_u16(reg::VENDOR_ID), 0x1AF4);
    }
}
