//! Cross-crate protocol tests: enumeration, capability discovery, and
//! VirtIO transport negotiation through the same layered path the
//! kernel would take (config space → capabilities → BAR MMIO → rings).

use vf_fpga::user_logic::UdpEcho;
use vf_fpga::{bar0, MmioEvent, Persona, VirtioFpgaDevice};
use vf_hostsw::{probe, ProbeError, VirtioNetDriver};
use vf_pcie::{enumerate, HostMemory, MmioAllocator, VirtioCfgType};
use vf_virtio::net::VirtioNetConfig;
use vf_virtio::pci::common;
use vf_virtio::{feature, net, status};

fn net_device(queues: &[u16]) -> VirtioFpgaDevice {
    VirtioFpgaDevice::new(
        Persona::Net {
            cfg: VirtioNetConfig::testbed_default(),
        },
        net::feature::MAC | net::feature::MTU | net::feature::CSUM | net::feature::STATUS,
        queues,
        Box::new(UdpEcho::default()),
    )
}

#[test]
fn requirement_i_device_ids_select_the_driver() {
    // §II-C requirement (i): announce the correct IDs at enumeration.
    let mut virtio_dev = net_device(&[64, 64]);
    let mut alloc = MmioAllocator::new();
    let v = enumerate(&mut virtio_dev.config_space, &mut alloc);
    assert_eq!(v.vendor, vf_pcie::VIRTIO_VENDOR_ID);
    assert_eq!(v.device, 0x1041); // modern virtio-net

    let mut xdma = vf_fpga::XdmaExampleDesign::new(4096);
    let x = enumerate(&mut xdma.config_space, &mut alloc);
    assert_eq!(x.vendor, vf_pcie::XILINX_VENDOR_ID);
    // virtio-pci would not bind this function: no VirtIO capabilities.
    assert!(x.virtio_caps(&xdma.config_space).is_empty());
}

#[test]
fn requirement_iii_capabilities_locate_all_structures() {
    // §II-C requirement (iii): VirtIO capabilities in the list point at
    // every configuration structure inside BAR0.
    let mut dev = net_device(&[64, 64]);
    let mut alloc = MmioAllocator::new();
    let info = enumerate(&mut dev.config_space, &mut alloc);
    let caps = info.virtio_caps(&dev.config_space);
    let kinds: Vec<VirtioCfgType> = caps.iter().map(|c| c.cfg_type).collect();
    assert_eq!(
        kinds,
        [
            VirtioCfgType::Common,
            VirtioCfgType::Notify,
            VirtioCfgType::Isr,
            VirtioCfgType::Device
        ]
    );
    // Every structure resolves to an address inside the assigned BAR0.
    let bar = info.bar(0).unwrap();
    for cap in &caps {
        let addr = info.virtio_struct_addr(cap).unwrap();
        assert!(addr >= bar.address && addr + cap.length as u64 <= bar.address + bar.size);
    }
    // The notify capability carries the doorbell stride.
    assert_eq!(caps[1].notify_off_multiplier, Some(bar0::NOTIFY_MULTIPLIER));
}

#[test]
fn full_probe_negotiates_subset() {
    let mut dev = net_device(&[256, 256]);
    let mut mem = HostMemory::testbed_default();
    let driver = VirtioNetDriver::init(
        &mut mem,
        256,
        feature::VERSION_1 | feature::RING_EVENT_IDX | net::feature::MAC,
    );
    let out = probe(
        &mut dev,
        &driver,
        feature::VERSION_1 | feature::RING_EVENT_IDX | net::feature::MAC,
    )
    .unwrap();
    assert!(out.features & feature::VERSION_1 != 0);
    assert!(out.features & feature::RING_EVENT_IDX != 0);
    // CSUM was offered but not requested → not negotiated.
    assert_eq!(out.features & net::feature::CSUM, 0);
    assert_eq!(out.mac, VirtioNetConfig::testbed_default().mac);
    assert!(dev.is_live());
    assert_eq!(dev.features(), out.features);
}

#[test]
fn framework_rejects_underprovisioned_net_design() {
    // The RTL framework refuses to instantiate a net device with fewer
    // queues than the device type requires (§IV-B: min queues per type).
    let result = std::panic::catch_unwind(|| net_device(&[64]));
    assert!(result.is_err(), "1-queue virtio-net must not build");
    // The driver-side check exists too: ProbeError::NotEnoughQueues is
    // produced when a device reports fewer queues than needed (covered
    // against a synthetic transport in vf-hostsw's unit tests).
    let _ = ProbeError::NotEnoughQueues { have: 1, need: 2 };
}

#[test]
fn reset_after_driver_ok_allows_reprobe() {
    let mut dev = net_device(&[64, 64]);
    let mut mem = HostMemory::testbed_default();
    let driver = VirtioNetDriver::init(&mut mem, 64, feature::VERSION_1);
    probe(&mut dev, &driver, feature::VERSION_1).unwrap();
    assert!(dev.is_live());
    // Reset (status ← 0), then probe a second driver instance.
    let ev = dev.mmio_write(bar0::COMMON + common::DEVICE_STATUS, 1, 0);
    assert_eq!(ev, Some(MmioEvent::Reset));
    assert!(!dev.is_live());
    let driver2 = VirtioNetDriver::init(&mut mem, 64, feature::VERSION_1);
    probe(&mut dev, &driver2, feature::VERSION_1).unwrap();
    assert!(dev.is_live());
}

#[test]
fn status_readback_reflects_feature_rejection() {
    // A driver accepting a bit the device never offered must see
    // FEATURES_OK read back clear (VirtIO 1.2 §3.1.1 step 6).
    let mut dev = net_device(&[64, 64]);
    dev.mmio_write(
        bar0::COMMON + common::DEVICE_STATUS,
        1,
        status::ACKNOWLEDGE as u64,
    );
    dev.mmio_write(
        bar0::COMMON + common::DEVICE_STATUS,
        1,
        (status::ACKNOWLEDGE | status::DRIVER) as u64,
    );
    dev.mmio_write(bar0::COMMON + common::DRIVER_FEATURE_SELECT, 4, 0);
    dev.mmio_write(bar0::COMMON + common::DRIVER_FEATURE, 4, 1 << 9); // never offered
    dev.mmio_write(bar0::COMMON + common::DRIVER_FEATURE_SELECT, 4, 1);
    dev.mmio_write(
        bar0::COMMON + common::DRIVER_FEATURE,
        4,
        feature::VERSION_1 >> 32,
    );
    dev.mmio_write(
        bar0::COMMON + common::DEVICE_STATUS,
        1,
        (status::ACKNOWLEDGE | status::DRIVER | status::FEATURES_OK) as u64,
    );
    let st = dev.mmio_read(bar0::COMMON + common::DEVICE_STATUS, 1) as u8;
    assert_eq!(st & status::FEATURES_OK, 0);
}

#[test]
fn notify_region_maps_every_queue() {
    let mut dev = net_device(&[64, 64]);
    for q in 0..2u16 {
        let off = bar0::NOTIFY + u64::from(q) * u64::from(bar0::NOTIFY_MULTIPLIER);
        assert_eq!(
            dev.mmio_write(off, 2, u64::from(q)),
            Some(MmioEvent::Notify(q))
        );
    }
    assert_eq!(dev.stats.notifications, 2);
}

#[test]
fn device_config_little_endian_fields() {
    let mut dev = net_device(&[64, 64]);
    // MTU straddles a 2-byte boundary at offset 10.
    assert_eq!(dev.mmio_read(bar0::DEVICE_CFG + 10, 2), 1500);
    // Status field at 6: link up.
    assert_eq!(dev.mmio_read(bar0::DEVICE_CFG + 6, 2), 1);
    // Byte-wise reads compose to the same values.
    let lo = dev.mmio_read(bar0::DEVICE_CFG + 10, 1);
    let hi = dev.mmio_read(bar0::DEVICE_CFG + 11, 1);
    assert_eq!(lo | (hi << 8), 1500);
}
