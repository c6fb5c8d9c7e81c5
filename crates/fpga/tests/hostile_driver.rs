//! A hostile driver against every controller walker: split and packed
//! TX (serial and pipelined), RX, blk and ctrl. Each case writes random
//! descriptors, avail entries, avail index and indirect tables into the
//! ring under test, rings its doorbell once, and checks that
//!
//! * nothing panics;
//! * the walk takes at most queue-size chains;
//! * `DEVICE_NEEDS_RESET` is set exactly when the walk met a chain the
//!   ring cannot resolve (a `ChainError`) or one that lacks the buffers
//!   the walker must write;
//! * a metrics session watching the walk reports no watchdog violation.
//!
//! One buffer or table address in eight is drawn anywhere in `u64`, so
//! almost always outside guest memory, where the ring must refuse it.
//! Two further cases place a ring area itself outside guest memory.
//!
//! The expectation comes from a shadow [`DeviceRing`] walking a copy of
//! the same memory the way the walker does: it takes chains in the same
//! order and completes them at the same points, so packed used
//! write-backs land where the walker's do.

use proptest::collection::vec;
use proptest::prelude::*;

use vf_fpga::user_logic::{ConsoleEcho, UdpEcho};
use vf_fpga::{bar0, PendingResponse, Persona, VirtioFpgaDevice};
use vf_pcie::{HostMemory, LinkConfig, PcieLink, MSI_ADDR_BASE};
use vf_sim::Time;
use vf_virtio::block::{MemDisk, VirtioBlkConfig};
use vf_virtio::net::VirtioNetConfig;
use vf_virtio::packed::{PackedDesc, PACKED_F_AVAIL, PACKED_F_NEXT, PACKED_F_USED, PACKED_F_WRITE};
use vf_virtio::pci::common;
use vf_virtio::ring::{DESC_F_INDIRECT, DESC_F_NEXT, DESC_F_WRITE};
use vf_virtio::{
    feature, status, Desc, DeviceRing, GuestMemory, RingChain, VecMemory, VirtioTransport,
    VirtqueueLayout,
};

/// Queue size of the ring under test.
const SIZE: u16 = 8;
/// Split areas or the packed descriptor ring.
const RING: u64 = 0x1000;
/// Four indirect tables of up to 16 descriptors.
const TABLES: u64 = 0x4000;
/// Buffers: 1024 slots of 256 bytes.
const DATA: u64 = 0x1_0000;
/// Guest memory size.
const MEM: usize = 1 << 20;
/// Net header + frame of each RX delivery.
const RX_FRAME: usize = 64;

#[derive(Clone, Copy, Debug, PartialEq)]
enum Kind {
    Tx,
    Rx,
    Blk,
    Ctrl,
}

/// One walker under test.
#[derive(Clone, Copy, Debug)]
struct Walker {
    kind: Kind,
    packed: bool,
    /// TX only: more than one non-posted read per tag (the pipelined
    /// walker).
    pipelined: bool,
}

impl Walker {
    /// Walker `n` of `0..10`.
    fn nth(n: u8) -> Walker {
        let kind = [Kind::Tx, Kind::Tx, Kind::Rx, Kind::Blk, Kind::Ctrl][n as usize % 5];
        Walker {
            kind,
            packed: n >= 5,
            pipelined: n % 5 == 1,
        }
    }

    /// The queue the walker serves.
    fn queue(self) -> u16 {
        match self.kind {
            Kind::Rx | Kind::Blk => 0,
            Kind::Tx => 1,
            Kind::Ctrl => 2,
        }
    }

    /// Whether the walker accepts `chain`'s buffers (the ring resolved
    /// it): RX writes only into device-writable buffers, a ctrl command
    /// ends in its writable ack byte.
    fn fits(self, chain: &RingChain) -> bool {
        match self.kind {
            Kind::Rx => chain.bufs.iter().all(|b| b.writable),
            Kind::Ctrl => chain.bufs.last().is_some_and(|b| b.writable),
            Kind::Tx | Kind::Blk => true,
        }
    }
}

/// A buffer address and length from random bits: a data slot, or an
/// indirect table when `table`. One address in eight is anywhere in
/// `u64` instead.
fn target(r: u64, table: bool) -> (u64, u32) {
    let (addr, len) = if table {
        let len = if (r >> 20).is_multiple_of(4) {
            (r >> 24) as u16 as u32 // often not a whole table
        } else {
            (1 + (r >> 24) as u32 % SIZE as u32) * 16
        };
        (TABLES + (r >> 16) % 4 * 0x100, len)
    } else {
        (DATA + (r >> 16) % 1024 * 256, (r >> 32) as u32 % 512)
    };
    if r >> 61 == 0 {
        (r.wrapping_mul(0x9E37_79B9_7F4A_7C15), len)
    } else {
        (addr, len)
    }
}

/// A split descriptor: chains on 40% of the time (sometimes to an index
/// past the table), indirect 10% of the time.
fn split_desc(r: u64) -> Desc {
    let mut flags = 0;
    if r % 5 < 2 {
        flags |= DESC_F_NEXT;
    }
    if (r >> 3) & 1 == 1 {
        flags |= DESC_F_WRITE;
    }
    let indirect = (r >> 4).is_multiple_of(10);
    if indirect {
        flags |= DESC_F_INDIRECT;
    }
    let (addr, len) = target(r, indirect);
    Desc {
        addr,
        len,
        flags,
        next: ((r >> 8) % (SIZE as u64 + 2)) as u16,
    }
}

/// A packed descriptor: available under the first wrap 75% of the time.
fn packed_desc(r: u64) -> PackedDesc {
    let mut flags = if !r.is_multiple_of(4) {
        PACKED_F_AVAIL
    } else {
        (r >> 2) as u16 & (PACKED_F_AVAIL | PACKED_F_USED)
    };
    if (r >> 4) % 5 < 2 {
        flags |= PACKED_F_NEXT;
    }
    if (r >> 7) & 1 == 1 {
        flags |= PACKED_F_WRITE;
    }
    let (addr, len) = target(r, false);
    PackedDesc {
        addr,
        len,
        id: (r >> 48) as u16,
        flags,
    }
}

/// The driver half of bring-up: features, the one queue, MSI-X vectors
/// for it and for configuration changes, DRIVER_OK.
fn go_live(dev: &mut VirtioFpgaDevice, features: u64, queue: u16, layout: VirtqueueLayout) {
    use status::{ACKNOWLEDGE, DRIVER, DRIVER_OK, FEATURES_OK};
    for st in [0, ACKNOWLEDGE, ACKNOWLEDGE | DRIVER] {
        dev.common_write(common::DEVICE_STATUS, 1, st as u64);
    }
    let accept = features | feature::VERSION_1;
    for (select, word) in [(0, accept & 0xFFFF_FFFF), (1, accept >> 32)] {
        dev.common_write(common::DRIVER_FEATURE_SELECT, 4, select);
        dev.common_write(common::DRIVER_FEATURE, 4, word);
    }
    let st = (ACKNOWLEDGE | DRIVER | FEATURES_OK) as u64;
    dev.common_write(common::DEVICE_STATUS, 1, st);
    dev.common_write(common::QUEUE_SELECT, 2, queue as u64);
    dev.common_write(common::QUEUE_SIZE, 2, layout.size as u64);
    dev.common_write(common::QUEUE_MSIX_VECTOR, 2, queue as u64);
    dev.common_write(common::QUEUE_DESC_LO, 4, layout.desc);
    dev.common_write(common::QUEUE_DRIVER_LO, 4, layout.avail);
    dev.common_write(common::QUEUE_DEVICE_LO, 4, layout.used);
    dev.mmio_write(bar0::COMMON + common::QUEUE_ENABLE, 2, 1);
    // The last vector signals configuration changes.
    let vectors = dev.msix.len();
    dev.common_write(common::CONFIG_MSIX_VECTOR, 2, vectors as u64 - 1);
    dev.common_write(common::DEVICE_STATUS, 1, st | DRIVER_OK as u64);
    assert!(dev.is_live());
    dev.msix_enable();
    for v in 0..vectors {
        dev.msix.program(v, MSI_ADDR_BASE, 0x40 + v as u32);
    }
}

/// The device behind walker `w`: a block persona with one queue, or a
/// net persona with one queue pair and the control queue.
fn device(w: Walker) -> VirtioFpgaDevice {
    if w.kind == Kind::Blk {
        VirtioFpgaDevice::new(
            Persona::Block {
                cfg: VirtioBlkConfig {
                    capacity: 64,
                    seg_max: SIZE as u32,
                },
                disk: MemDisk::new(64, false),
            },
            0,
            &[SIZE],
            Box::new(ConsoleEcho::default()),
        )
    } else {
        VirtioFpgaDevice::new(
            Persona::Net {
                cfg: VirtioNetConfig::with_queue_pairs(1),
            },
            0,
            &[SIZE; 3],
            Box::new(UdpEcho::default()),
        )
    }
}

/// What the shadow ring predicts for one doorbell: chains the walker
/// serves, and whether it must raise NEEDS_RESET.
fn expect(w: Walker, ring: &mut DeviceRing, mem: &mut VecMemory) -> (usize, bool) {
    ring.prologue(mem, w.kind == Kind::Rx);
    let mut served = Vec::new();
    let mut reset = false;
    loop {
        match ring.next_chain(mem) {
            Ok(Some(chain)) if w.fits(&chain) => {
                if w.kind == Kind::Rx {
                    // One delivery; a frame too big for the buffer is
                    // dropped and the buffer left posted.
                    let fits = RX_FRAME + 12 <= chain.bufs[0].len as usize;
                    return (fits as usize, false);
                }
                if w.pipelined {
                    served.push(chain);
                } else {
                    ring.complete(mem, &chain, 0);
                    served.push(chain);
                }
            }
            Ok(None) => break,
            _ => {
                reset = true;
                break;
            }
        }
    }
    if w.pipelined {
        for chain in &served {
            ring.complete(mem, chain, 0);
        }
    }
    (served.len(), reset)
}

/// The link behind walker `w`: four non-posted reads per tag for the
/// pipelined walker, one otherwise.
fn link(w: Walker) -> PcieLink {
    let mut cfg = LinkConfig::gen2_x2();
    if w.pipelined {
        cfg.max_outstanding_np = 4;
    }
    PcieLink::new(cfg)
}

/// Ring `w`'s doorbell once: the chains it served and the walk's end.
fn ring_doorbell(
    w: Walker,
    dev: &mut VirtioFpgaDevice,
    mem: &mut HostMemory,
    link: &mut PcieLink,
) -> (usize, Time) {
    let q = w.queue();
    match w.kind {
        Kind::Tx => {
            let out = dev.process_tx_notify(Time::ZERO, q, mem, link);
            (out.chains as usize, out.done_at)
        }
        Kind::Rx => {
            let resp = PendingResponse {
                data: vec![0xAB; RX_FRAME],
                ready_at: Time::ZERO,
                csum_valid: false,
            };
            let out = dev.deliver_response(Time::ZERO, q, &resp, mem, link);
            (out.delivered as usize, out.done_at)
        }
        Kind::Blk => {
            let out = dev.process_block_notify(Time::ZERO, q, mem, link);
            (out.completions.len(), out.done_at)
        }
        Kind::Ctrl => {
            let out = dev.process_ctrl_notify(Time::ZERO, q, mem, link);
            (dev.stats.ctrl_commands as usize, out.done_at)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn hostile_rings_end_in_needs_reset_not_a_panic(
        walker in 0u8..10,
        descs in vec(any::<u64>(), SIZE as usize),
        tables in vec(any::<u64>(), 4 * 16),
        heads in vec(any::<u16>(), SIZE as usize),
        avail_idx in prop_oneof![0u16..SIZE + 1, any::<u16>()],
        // Split: bit 0 negotiates EVENT_IDX, bit 1 INDIRECT_DESC.
        // Packed: bit 0 makes every descriptor chain on.
        variant in 0u8..4,
    ) {
        let w = Walker::nth(walker);
        let mut mem = HostMemory::new(0, MEM);
        for (t, chunk) in tables.chunks(16).enumerate() {
            for (e, &r) in chunk.iter().enumerate() {
                split_desc(r).write_at(&mut mem, TABLES + t as u64 * 0x100, e as u16);
            }
        }
        let (features, layout, mut shadow) = if w.packed {
            for (slot, &r) in descs.iter().enumerate() {
                let mut d = packed_desc(r);
                if variant & 1 != 0 {
                    d.flags |= PACKED_F_NEXT;
                }
                d.write_at(&mut mem, RING, slot as u16);
            }
            let layout = VirtqueueLayout { desc: RING, avail: 0, used: 0, size: SIZE };
            (feature::RING_PACKED, layout, DeviceRing::packed(RING, SIZE, w.queue()))
        } else {
            let layout = VirtqueueLayout::contiguous(RING, SIZE);
            for (i, (&r, &head)) in descs.iter().zip(&heads).enumerate() {
                split_desc(r).write_at(&mut mem, layout.desc, i as u16);
                mem.write_u16(layout.avail_ring_addr(i as u16), head % (SIZE + 1));
            }
            mem.write_u16(layout.avail_idx_addr(), avail_idx);
            let event_idx = variant & 1 != 0;
            let indirect = variant & 2 != 0;
            let features = if event_idx { feature::RING_EVENT_IDX } else { 0 }
                | if indirect { feature::RING_INDIRECT_DESC } else { 0 };
            (features, layout, DeviceRing::split(layout, event_idx, indirect, w.queue()))
        };
        let mut shadow_mem = VecMemory::new(MEM);
        shadow_mem.write(0, mem.slice(0, MEM));
        let (served, reset) = expect(w, &mut shadow, &mut shadow_mem);

        let mut dev = device(w);
        go_live(&mut dev, features, w.queue(), layout);
        let mut link = link(w);

        vf_metrics::install(vf_metrics::MetricsConfig::default());
        let (taken, done_at) = ring_doorbell(w, &mut dev, &mut mem, &mut link);
        vf_metrics::sample_at(done_at.as_ps());
        let report = vf_metrics::finish();

        let needs_reset =
            dev.common_read(common::DEVICE_STATUS, 1) as u8 & status::NEEDS_RESET != 0;
        prop_assert!(taken <= SIZE as usize, "{:?} took {} chains", w, taken);
        prop_assert_eq!(taken, served, "{:?}", w);
        prop_assert_eq!(needs_reset, reset, "{:?}", w);
        prop_assert!(report.violations.is_empty(), "{:?}: {:?}", w, report.violations);
    }
}

/// Every walker of one layout against a ring with an area outside guest
/// memory: each `(features, layout)` publishes one chain of a writable
/// 256-byte buffer, and the doorbell must take no chain and end in
/// NEEDS_RESET plus the configuration-change interrupt.
fn ring_outside_memory_needs_reset(packed: bool, rings: &[(u64, VirtqueueLayout)]) {
    for w in (0..10).map(Walker::nth).filter(|w| w.packed == packed) {
        for &(features, layout) in rings {
            let mut mem = HostMemory::new(0, MEM);
            let inside = |addr: u64| addr < MEM as u64;
            if packed && inside(layout.desc) {
                let d = PackedDesc {
                    addr: DATA,
                    len: 256,
                    id: 0,
                    flags: PACKED_F_AVAIL | PACKED_F_WRITE,
                };
                d.write_at(&mut mem, layout.desc, 0);
            }
            if !packed && inside(layout.desc) {
                let d = Desc {
                    addr: DATA,
                    len: 256,
                    flags: DESC_F_WRITE,
                    next: 0,
                };
                d.write_at(&mut mem, layout.desc, 0);
            }
            if !packed && inside(layout.avail) {
                mem.write_u16(layout.avail_ring_addr(0), 0);
                mem.write_u16(layout.avail_idx_addr(), 1);
            }
            let mut dev = device(w);
            go_live(&mut dev, features, w.queue(), layout);
            let (taken, _) = ring_doorbell(w, &mut dev, &mut mem, &mut link(w));
            let needs_reset =
                dev.common_read(common::DEVICE_STATUS, 1) as u8 & status::NEEDS_RESET != 0;
            assert_eq!(taken, 0, "{w:?} {layout:?}");
            assert!(needs_reset, "{w:?} {layout:?}");
            assert_eq!(
                dev.stats.irqs_sent, 1,
                "{w:?} {layout:?}: config-change vector"
            );
        }
    }
}

/// A split ring whose descriptor table, avail area or used area starts
/// at the end of guest memory, or whose used area runs past it.
#[test]
fn split_ring_outside_memory_ends_in_needs_reset() {
    let at = VirtqueueLayout::contiguous(RING, SIZE);
    let end = MEM as u64;
    let rings = [
        VirtqueueLayout { desc: end, ..at },
        VirtqueueLayout { avail: end, ..at },
        VirtqueueLayout { used: end, ..at },
        VirtqueueLayout {
            used: end - 8,
            ..at
        },
    ];
    ring_outside_memory_needs_reset(false, &rings.map(|l| (0, l)));
}

/// A packed descriptor ring that starts at the end of guest memory, or
/// runs past it.
#[test]
fn packed_ring_outside_memory_ends_in_needs_reset() {
    let ring = |desc| VirtqueueLayout {
        desc,
        avail: 0,
        used: 0,
        size: SIZE,
    };
    let rings = [ring(MEM as u64), ring(MEM as u64 - 64)];
    ring_outside_memory_needs_reset(true, &rings.map(|l| (feature::RING_PACKED, l)));
}
