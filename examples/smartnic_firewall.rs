//! SmartNIC firewall: the FPGA as a VirtIO network device running a
//! multi-rule firewall in front of the echo logic — the use case of the
//! paper's reference \[30\] (multi-core multi-rule VeBPF firewall for
//! FPGA IoT deployments).
//!
//! Drives the device model directly through its MMIO surface: probe,
//! queue bring-up, then a mix of allowed and blocked flows. Allowed
//! packets come back echoed; blocked ones are dropped in the fabric and
//! never reach the RX queue.
//!
//! ```sh
//! cargo run --release --example smartnic_firewall
//! ```

use vf_fpga::user_logic::{Firewall, FwAction, FwRule, UdpEcho};
use vf_fpga::{bar0, Persona, VirtioFpgaDevice};
use vf_hostsw::{
    build_udp_frame, probe, CostEngine, HostCosts, Ipv4Addr, MacAddr, UdpFlow, VirtioNetDriver,
};
use vf_pcie::{HostMemory, LinkConfig, PcieLink, MSI_ADDR_BASE};
use vf_sim::{NoiseModel, SimRng, Time};
use vf_virtio::net::VirtioNetConfig;
use vf_virtio::{feature, net};

fn main() {
    // Firewall policy: allow UDP to the echo port (7) from 10.0.0.0/24,
    // allow DNS-ish traffic to port 53 from one host, drop the rest.
    let rules = vec![
        FwRule {
            src: Some((u32::from_be_bytes([10, 0, 0, 0]), 24)),
            dst_ports: Some((7, 7)),
            proto: Some(17),
            ..FwRule::any(FwAction::Accept)
        },
        FwRule {
            src: Some((u32::from_be_bytes([10, 0, 0, 50]), 32)),
            dst_ports: Some((53, 53)),
            proto: Some(17),
            ..FwRule::any(FwAction::Accept)
        },
        FwRule::any(FwAction::Drop),
    ];
    println!(
        "firewall: {} rules across 4 parallel match engines\n",
        rules.len()
    );

    let mut device = VirtioFpgaDevice::new(
        Persona::Net {
            cfg: VirtioNetConfig::testbed_default(),
        },
        net::feature::MAC | net::feature::MTU | net::feature::STATUS,
        &[256, 256],
        Box::new(Firewall::new(rules, 4, UdpEcho::default())),
    );

    // Host bring-up: driver init, probe, MSI-X.
    let mut mem = HostMemory::testbed_default();
    let mut link = PcieLink::new(LinkConfig::gen2_x2());
    let mut cost = CostEngine::new(
        HostCosts::fedora37(),
        NoiseModel::noiseless(),
        SimRng::new(1),
    );
    let want = feature::VERSION_1 | feature::RING_EVENT_IDX | net::feature::MAC;
    let mut driver = VirtioNetDriver::init(&mut mem, 256, want);
    let out = probe(&mut device, &driver, want).expect("probe");
    device.msix_enable();
    device.msix.program(0, MSI_ADDR_BASE, 0x40);
    device.msix.program(1, MSI_ADDR_BASE, 0x41);
    println!(
        "probed virtio-net (MAC {}, MTU {})\n",
        MacAddr(out.mac),
        out.mtu
    );

    // Traffic mix: echo flow (allowed), DNS flow from the wrong host
    // (blocked), telnet-ish flow (blocked).
    let flows = [
        (
            "echo 10.0.0.1 → :7   ",
            Ipv4Addr::new(10, 0, 0, 1),
            7u16,
            true,
        ),
        (
            "dns  10.0.0.9 → :53  ",
            Ipv4Addr::new(10, 0, 0, 9),
            53,
            false,
        ),
        (
            "dns  10.0.0.50 → :53 ",
            Ipv4Addr::new(10, 0, 0, 50),
            53,
            true,
        ),
        (
            "tcp-ish → :23        ",
            Ipv4Addr::new(10, 0, 0, 1),
            23,
            false,
        ),
    ];

    let mut now = Time::from_us(10);
    println!(
        "{:<22} {:>8} {:>10} {:>12}",
        "flow", "sent", "echoed", "latency(us)"
    );
    for (name, src_ip, dst_port, expect_pass) in flows {
        let mut echoed = 0;
        let mut latency_us = 0.0;
        let n = 50;
        for i in 0..n {
            let flow = UdpFlow {
                src_mac: MacAddr([2, 0, 0, 0, 0, 1]),
                dst_mac: MacAddr(out.mac),
                src_ip,
                dst_ip: Ipv4Addr::new(10, 0, 0, 2),
                src_port: 40_000 + i,
                dst_port,
            };
            let frame = build_udp_frame(&flow, i, &[0xAB; 64], true);
            let xr = driver.xmit(&mut mem, &frame, &mut cost);
            if xr.notify {
                // Ring the TX doorbell through the notify region, as the
                // real driver's MMIO write would.
                let notify_off =
                    bar0::NOTIFY + u64::from(net::TX_QUEUE) * u64::from(bar0::NOTIFY_MULTIPLIER);
                let ev = device.mmio_write(notify_off, 2, u64::from(net::TX_QUEUE));
                assert_eq!(ev, Some(vf_fpga::MmioEvent::Notify(net::TX_QUEUE)));
                let arrival = link.mmio_write(now, 2);
                let tx = device.process_tx_notify(arrival, net::TX_QUEUE, &mut mem, &mut link);
                for resp in &tx.responses {
                    let rxo = device.deliver_response(
                        resp.ready_at,
                        net::RX_QUEUE,
                        resp,
                        &mut mem,
                        &mut link,
                    );
                    if let Some(irq) = rxo.irq_at {
                        latency_us += (irq - now).as_us_f64();
                    }
                }
                now = tx.done_at + Time::from_us(5);
            }
            let (frames, _) = driver.napi_poll(&mut mem, &mut cost);
            echoed += frames.len();
        }
        let passed = echoed == n as usize;
        assert_eq!(passed, expect_pass, "policy mismatch for {name}");
        println!(
            "{:<22} {:>8} {:>10} {:>12}",
            name,
            n,
            echoed,
            if echoed > 0 {
                format!("{:.1}", latency_us / echoed as f64)
            } else {
                "-".into()
            }
        );
    }

    let stats = device.stats;
    println!(
        "\ndevice: {} doorbells, {} frames delivered, {} interrupts",
        stats.notifications, stats.rx_frames, stats.irqs_sent
    );
    println!(
        "hardware counters: h2c mean {:.2}us over {} packets, c2h mean {:.2}us",
        device.counters.h2c.stats.mean(),
        device.counters.h2c.count(),
        device.counters.c2h.stats.mean(),
    );
}
