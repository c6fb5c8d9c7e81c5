//! Failure injection across crate boundaries: corrupted descriptors,
//! malformed rings, resource exhaustion, and policy violations must be
//! detected and contained, not silently mis-simulated.

use vf_fpga::user_logic::{Firewall, FwAction, FwRule, UdpEcho};
use vf_fpga::{Persona, VirtioFpgaDevice};
use vf_hostsw::virtio_pci::{negotiate, program_queue, set_driver_ok};
use vf_pcie::{HostMemory, LinkConfig, PcieLink};
use vf_sim::Time;
use vf_virtio::device_queue::{ChainError, DeviceQueue};
use vf_virtio::driver_queue::{BufferSpec, DriverQueue};
use vf_virtio::net::VirtioNetConfig;
use vf_virtio::ring::{Desc, VirtqueueLayout, DESC_F_NEXT};
use vf_virtio::GuestMemory;
use vf_xdma::desc::single_descriptor;
use vf_xdma::regs::{chan, sgdma, target, CTRL_RUN};
use vf_xdma::{ChannelDir, EngineError, XdmaEngine};

#[test]
fn xdma_engine_rejects_corrupted_descriptor() {
    let mut link = PcieLink::new(LinkConfig::gen2_x2());
    let mut host = HostMemory::new(0, 1 << 20);
    let mut card = vf_xdma::VecCardMemory::new(4096);
    // Write a descriptor then corrupt its magic in host memory — as a
    // buggy driver or memory corruption would.
    single_descriptor(0x1000, 0, 64).write_to(&mut host, 0x2000);
    let mut raw = [0u8; 32];
    HostMemory::read(&host, 0x2000, &mut raw);
    raw[3] ^= 0xFF;
    HostMemory::write(&mut host, 0x2000, &raw);
    let mut eng = XdmaEngine::new(ChannelDir::H2C);
    let err = eng
        .run(Time::ZERO, 0x2000, &mut link, &mut host, &mut card)
        .unwrap_err();
    assert_eq!(err, EngineError::BadMagic { addr: 0x2000 });
    assert_eq!(eng.runs, 0, "failed run must not count as completed");
}

#[test]
fn xdma_design_surfaces_engine_fault_through_mmio() {
    let mut design = vf_fpga::XdmaExampleDesign::new(4096);
    let mut host = HostMemory::new(0, 1 << 20);
    let mut link = PcieLink::new(LinkConfig::gen2_x2());
    // Descriptor address points at zeroed memory.
    design
        .mmio_write(
            Time::ZERO,
            target::H2C_SGDMA + sgdma::DESC_LO,
            0x3000,
            &mut host,
            &mut link,
        )
        .unwrap();
    let err = design
        .mmio_write(
            Time::ZERO,
            target::H2C + chan::CONTROL,
            CTRL_RUN,
            &mut host,
            &mut link,
        )
        .unwrap_err();
    assert!(matches!(err, EngineError::BadMagic { .. }));
}

#[test]
fn descriptor_loop_detected_not_hung() {
    let mut mem = vf_virtio::VecMemory::new(1 << 16);
    let layout = VirtqueueLayout::contiguous(0x1000, 8);
    // 3-descriptor cycle: 0 → 1 → 2 → 0.
    for i in 0..3u16 {
        Desc {
            addr: 0x100,
            len: 4,
            flags: DESC_F_NEXT,
            next: (i + 1) % 3,
        }
        .write_at(&mut mem, layout.desc, i);
    }
    mem.write_u16(layout.avail_ring_addr(0), 0);
    mem.write_u16(layout.avail_idx_addr(), 1);
    let dev = DeviceQueue::new(layout, false, false);
    assert_eq!(dev.resolve_at(&mem, 0).unwrap_err(), ChainError::TooLong);
}

#[test]
fn rx_exhaustion_drops_then_recovers() {
    let mut device = VirtioFpgaDevice::new(
        Persona::Net {
            cfg: VirtioNetConfig::testbed_default(),
        },
        0,
        &[8, 8],
        Box::new(UdpEcho::default()),
    );
    let mut mem = HostMemory::testbed_default();
    let mut link = PcieLink::new(LinkConfig::gen2_x2());
    // Bring up only the RX queue: this test is about the data path.
    let rx_base = mem.alloc(
        VirtqueueLayout::contiguous(0, 8).total_bytes() as usize,
        4096,
    );
    let rx_layout = VirtqueueLayout::contiguous(rx_base, 8);
    negotiate(&mut device, 0, 0).expect("VERSION_1 is always offered");
    program_queue(&mut device, 0, rx_layout);
    set_driver_ok(&mut device);

    let mut rx = DriverQueue::new(&mut mem, rx_layout, false);
    let resp = vf_fpga::PendingResponse {
        data: vec![9u8; 100],
        ready_at: Time::ZERO,
        csum_valid: false,
    };
    // No buffers posted: drop.
    let out = device.deliver_response(Time::ZERO, 0, &resp, &mut mem, &mut link);
    assert!(!out.delivered);
    assert_eq!(device.stats.rx_dropped, 1);
    // Post a buffer: next delivery succeeds.
    let buf = mem.alloc(2048, 64);
    rx.add_and_publish(&mut mem, &[BufferSpec::writable(buf, 2048)])
        .unwrap();
    let out = device.deliver_response(Time::from_us(1), 0, &resp, &mut mem, &mut link);
    assert!(out.delivered);
    assert_eq!(device.stats.rx_frames, 1);
    // Payload landed after the 12-byte virtio-net header.
    assert_eq!(GuestMemory::read_vec(&mem, buf + 12, 100), vec![9u8; 100]);
}

#[test]
fn corrupt_frame_dropped_by_host_stack() {
    use vf_hostsw::{CostEngine, HostCosts, Ipv4Addr, MacAddr, SockError, UdpStack};
    use vf_sim::{NoiseModel, SimRng};
    let mut stack = UdpStack::new(Ipv4Addr::new(10, 0, 0, 1), MacAddr([2, 0, 0, 0, 0, 1]));
    stack.routes.add(Ipv4Addr::new(10, 0, 0, 0), 24, None, 2);
    stack
        .arp
        .add_static(Ipv4Addr::new(10, 0, 0, 2), MacAddr([2, 0, 0, 0, 0, 2]));
    let mut cost = CostEngine::new(
        HostCosts::fedora37(),
        NoiseModel::noiseless(),
        SimRng::new(1),
    );
    let (frame, _) = stack
        .sendto(
            Ipv4Addr::new(10, 0, 0, 2),
            40_000,
            7,
            &[7u8; 64],
            false,
            &mut cost,
        )
        .unwrap();
    // Echo with a flipped payload byte — as a faulty fabric would.
    let parsed = vf_hostsw::parse_udp_frame(&frame).unwrap();
    let mut bad_payload = parsed.payload.to_vec();
    bad_payload[10] ^= 0x01;
    let echoed = vf_hostsw::build_udp_frame(&parsed.flow.reversed(), 1, parsed.payload, true);
    let mut corrupted = vf_hostsw::build_udp_frame(&parsed.flow.reversed(), 1, &bad_payload, true);
    // Corrupt after checksumming.
    let n = corrupted.len();
    corrupted[n - 1] ^= 0xFF;
    assert!(stack
        .netif_receive(&echoed, 40_000, false, &mut cost)
        .is_ok());
    assert_eq!(
        stack
            .netif_receive(&corrupted, 40_000, false, &mut cost)
            .unwrap_err(),
        SockError::BadChecksum
    );
}

#[test]
fn firewall_contains_spoofed_traffic() {
    // A drop-all firewall in front of the echo: nothing escapes, and the
    // inner logic never runs.
    let mut fw = Firewall::new(vec![FwRule::any(FwAction::Drop)], 2, UdpEcho::default());
    let mut frame = vec![0u8; 60];
    frame[12] = 0x08;
    frame[14] = 0x45;
    frame[23] = 17;
    for _ in 0..100 {
        assert!(!vf_fpga::UserLogic::on_frame(&mut fw, &mut frame).respond);
    }
    assert_eq!(fw.dropped, 100);
    assert_eq!(fw.inner().echoed, 0);
}

#[test]
fn oversized_rx_frame_panics_loudly() {
    // A response larger than the posted buffer is a contract violation
    // the device asserts on (it would corrupt host memory on silicon).
    let result = std::panic::catch_unwind(|| {
        let mut device = VirtioFpgaDevice::new(
            Persona::Net {
                cfg: VirtioNetConfig::testbed_default(),
            },
            0,
            &[8, 8],
            Box::new(UdpEcho::default()),
        );
        let mut mem = HostMemory::testbed_default();
        let mut link = PcieLink::new(LinkConfig::gen2_x2());
        let base = mem.alloc(
            VirtqueueLayout::contiguous(0, 8).total_bytes() as usize,
            4096,
        );
        let layout = VirtqueueLayout::contiguous(base, 8);
        negotiate(&mut device, 0, 0).expect("VERSION_1 is always offered");
        program_queue(&mut device, 0, layout);
        let mut rx = DriverQueue::new(&mut mem, layout, false);
        let tiny = mem.alloc(64, 64);
        rx.add_and_publish(&mut mem, &[BufferSpec::writable(tiny, 64)])
            .unwrap();
        let resp = vf_fpga::PendingResponse {
            data: vec![0u8; 500], // 500 + 12 > 64
            ready_at: Time::ZERO,
            csum_valid: false,
        };
        device.deliver_response(Time::ZERO, 0, &resp, &mut mem, &mut link)
    });
    assert!(result.is_err(), "oversized delivery must not pass silently");
}

/// The posted-credit conservation watchdog catches a leaked credit.
/// First half (negative): a real link's bookkeeping keeps
/// `granted − released == in-flight` through an actual DMA write, so a
/// sample sees nothing. Second half (positive): inject the bug the
/// watchdog exists for — a grant whose in-flight bump got lost, as a
/// miscounting flow-control implementation would produce — and the
/// next sample must flag it with the layer, tag and sim time.
#[test]
fn leaked_posted_credit_is_flagged_by_the_watchdog() {
    use vf_metrics::{names, Watchdog};

    let ((), report) = virtio_fpga::metered(vf_metrics::MetricsConfig::default(), || {
        // Healthy: the link grants and retires credits itself.
        let mut link = PcieLink::new(LinkConfig::gen2_x2());
        link.dma_write(Time::ZERO, 0x1000, 4096);
        vf_metrics::sample_at(10_000_000);
        // Buggy: one more credit granted on tag 0 with no matching
        // in-flight update or release.
        vf_metrics::counter_add(names::POSTED_GRANTED, 0, 1);
        vf_metrics::sample_at(20_000_000);
    });
    let leaks: Vec<_> = report
        .violations
        .iter()
        .filter(|v| v.watchdog == Watchdog::PostedCredit)
        .collect();
    assert_eq!(
        leaks.len(),
        1,
        "exactly the injected leak must be flagged: {:?}",
        report.violations
    );
    let v = leaks[0];
    assert_eq!((v.t_ps, v.index, v.layer.as_str()), (20_000_000, 0, "pcie"));
    assert_eq!(v.name, names::POSTED_GRANTED);
}
