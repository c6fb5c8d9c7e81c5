//! virtio-blk on the FPGA: the "support for more VirtIO device types"
//! contribution. The same controller framework serves block requests —
//! 3-part chains (header / data / status) against an in-fabric disk —
//! showing how the host's *block* stack, not a custom driver, would talk
//! to an FPGA storage accelerator.
//!
//! ```sh
//! cargo run --release --example block_device
//! ```

use vf_fpga::user_logic::ConsoleEcho;
use vf_fpga::{Persona, VirtioFpgaDevice};
use vf_hostsw::virtio_pci::{negotiate, program_queue, set_driver_ok};
use vf_pcie::{HostMemory, LinkConfig, MmioAllocator, PcieLink, MSI_ADDR_BASE};
use vf_sim::Time;
use vf_virtio::block::{blk_status, BlkReqType, BlkRequest, VirtioBlkConfig, SECTOR_SIZE};
use vf_virtio::driver_queue::{BufferSpec, DriverQueue};
use vf_virtio::ring::VirtqueueLayout;
use vf_virtio::{feature, GuestMemory};

fn main() {
    const CAPACITY: u64 = 2048; // sectors = 1 MiB disk
    let mut device = VirtioFpgaDevice::new(
        Persona::Block {
            cfg: VirtioBlkConfig {
                capacity: CAPACITY,
                seg_max: 4,
            },
            disk: vf_virtio::block::MemDisk::new(CAPACITY, false),
        },
        vf_virtio::block::feature::SEG_MAX | vf_virtio::block::feature::FLUSH,
        &[128],
        Box::new(ConsoleEcho::default()),
    );

    // Enumerate: the host sees a VirtIO block device (ID 0x1042).
    let mut alloc = MmioAllocator::new();
    let info = vf_pcie::enumerate(&mut device.config_space, &mut alloc);
    println!(
        "enumerated {:04x}:{:04x} (virtio-blk), BAR0 at {:#x}",
        info.vendor,
        info.device,
        info.bar(0).unwrap().address
    );

    // Minimal virtio-blk driver bring-up: the kernel driver's §3.1.1
    // sequence, programming the one request queue.
    let mut mem = HostMemory::testbed_default();
    let mut link = PcieLink::new(LinkConfig::gen2_x2());
    use vf_fpga::bar0;
    negotiate(&mut device, feature::VERSION_1, 0).expect("VERSION_1 is always offered");
    let ring_base = mem.alloc(
        VirtqueueLayout::contiguous(0, 128).total_bytes() as usize,
        4096,
    );
    let layout = VirtqueueLayout::contiguous(ring_base, 128);
    program_queue(&mut device, 0, layout);
    set_driver_ok(&mut device);
    device.msix_enable();
    device.msix.program(0, MSI_ADDR_BASE, 0x50);
    let cap_sectors = device.mmio_read(bar0::DEVICE_CFG, 8);
    println!(
        "device config: capacity {cap_sectors} sectors ({} KiB)\n",
        cap_sectors * 512 / 1024
    );

    let mut q = DriverQueue::new(&mut mem, layout, false);
    let hdr = mem.alloc(16, 16);
    let stat = mem.alloc(1, 1);
    let data = mem.alloc(SECTOR_SIZE, 64);

    // Write a recognizable pattern to sectors 0..8, read them back, then
    // flush.
    let mut now = Time::from_us(5);
    for sector in 0..8u64 {
        let payload: Vec<u8> = (0..SECTOR_SIZE)
            .map(|i| ((i as u64 + sector * 13) % 251) as u8)
            .collect();
        GuestMemory::write(&mut mem, data, &payload);
        BlkRequest::write_header(&mut mem, hdr, BlkReqType::Out, sector);
        q.add_and_publish(
            &mut mem,
            &[
                BufferSpec::readable(hdr, 16),
                BufferSpec::readable(data, SECTOR_SIZE as u32),
                BufferSpec::writable(stat, 1),
            ],
        )
        .unwrap();
        let out = device.process_block_notify(now, 0, &mut mem, &mut link);
        let done = &out.completions[0];
        assert!(done.irq_at.is_some(), "completion must raise MSI-X");
        assert_eq!(done.status, blk_status::OK);
        assert_eq!(mem.slice(stat, 1)[0], blk_status::OK);
        q.pop_used(&mut mem).unwrap();
        now = out.done_at + Time::from_us(2);
    }
    println!("wrote 8 sectors");

    let mut verified = 0;
    for sector in 0..8u64 {
        BlkRequest::write_header(&mut mem, hdr, BlkReqType::In, sector);
        q.add_and_publish(
            &mut mem,
            &[
                BufferSpec::readable(hdr, 16),
                BufferSpec::writable(data, SECTOR_SIZE as u32),
                BufferSpec::writable(stat, 1),
            ],
        )
        .unwrap();
        let out = device.process_block_notify(now, 0, &mut mem, &mut link);
        assert_eq!(out.completions[0].status, blk_status::OK);
        let got = mem.slice(data, SECTOR_SIZE).to_vec();
        let expect: Vec<u8> = (0..SECTOR_SIZE)
            .map(|i| ((i as u64 + sector * 13) % 251) as u8)
            .collect();
        assert_eq!(got, expect, "sector {sector} corrupted");
        verified += 1;
        q.pop_used(&mut mem).unwrap();
        now = out.done_at + Time::from_us(2);
    }
    println!("read back and verified {verified} sectors");

    BlkRequest::write_header(&mut mem, hdr, BlkReqType::Flush, 0);
    q.add_and_publish(
        &mut mem,
        &[BufferSpec::readable(hdr, 16), BufferSpec::writable(stat, 1)],
    )
    .unwrap();
    let out = device.process_block_notify(now, 0, &mut mem, &mut link);
    assert_eq!(out.completions[0].status, blk_status::OK);
    q.pop_used(&mut mem).unwrap();
    let Persona::Block { disk, .. } = &device.persona else {
        unreachable!()
    };
    println!(
        "flush acknowledged (disk flushes: {}); {} block requests served in {}",
        disk.flushes, device.stats.blk_requests, out.done_at
    );
}
