//! Integration tests for the extension experiments (E5–E14): each sweep
//! must run end to end and reproduce its headline finding at reduced
//! scale.

use virtio_fpga::experiments::{self, ExperimentParams};
use virtio_fpga::testbed::CardKind;
use virtio_fpga::{DriverKind, Testbed, TestbedConfig};

fn params(packets: usize) -> ExperimentParams {
    ExperimentParams {
        packets,
        threads: 8,
        ..ExperimentParams::quick(23)
    }
}

#[test]
fn e5_portability_trend() {
    let rows = experiments::portability(params(400));
    assert_eq!(rows.len(), 6);
    // Gen1 x1 is the slowest configuration for both drivers…
    let worst = &rows[0];
    let best = rows.last().unwrap();
    assert!(worst.virtio.mean_us > best.virtio.mean_us + 10.0);
    assert!(worst.xdma.mean_us > best.xdma.mean_us + 10.0);
    // …and VirtIO leads on every link.
    for r in &rows {
        assert!(
            r.virtio.mean_us < r.xdma.mean_us,
            "{:?} x{}",
            r.gen,
            r.lanes
        );
    }
}

/// E12's workload: the MQ world at one queue pair (the default) with a
/// `depth`-deep window, 1500 packets at 256 B.
fn e12(depth: usize) -> virtio_fpga::MqThroughputResult {
    let cfg = TestbedConfig::paper(DriverKind::VirtioMq, 256, 1_500, 23);
    let r = virtio_fpga::run_mq(&cfg, depth);
    assert_eq!(r.verify_failures, 0, "depth {depth}");
    r
}

#[test]
fn e12_pipelining_beats_serial_xdma() {
    let deep = e12(16);
    let xdma =
        virtio_fpga::xdma_serial_pps(&TestbedConfig::paper(DriverKind::Xdma, 256, 1_000, 23));
    assert!(
        deep.pps > 2.0 * xdma,
        "pipelined VirtIO {} pps vs serial XDMA {} pps",
        deep.pps,
        xdma
    );
    assert!(deep.irqs_per_packet() < 0.5);
}

#[test]
fn e12_event_idx_coalesces_below_one_per_packet() {
    // Regression guard for the EVENT_IDX mechanism: once the window is
    // deep enough, suppression must coalesce both doorbells and
    // interrupts below one per packet — the property the PMD pushes to
    // its limit (zero interrupts, one doorbell per *burst*).
    for depth in [8usize, 16, 32] {
        let r = e12(depth);
        let (doorbells, irqs) = (r.doorbells_per_packet(), r.irqs_per_packet());
        assert!(
            doorbells < 1.0 && irqs < 1.0,
            "depth {depth}: {doorbells} doorbells/pkt, {irqs} irqs/pkt"
        );
    }
}

#[test]
fn e13_paravirt_costs_more_than_direct() {
    let rows = experiments::deployment_models(params(800));
    for r in &rows {
        // The stack order of Fig. 1: direct < raw legacy < paravirt.
        assert!(
            r.direct_virtio.mean_us < r.raw_xdma.mean_us,
            "payload {}",
            r.payload
        );
        assert!(
            r.raw_xdma.mean_us + 10.0 < r.paravirt.mean_us,
            "paravirt overlay too cheap at {}B: {} vs {}",
            r.payload,
            r.paravirt.mean_us,
            r.raw_xdma.mean_us
        );
    }
}

#[test]
fn e13_paravirt_run_verifies_data() {
    let mut cfg = TestbedConfig::paper(DriverKind::Xdma, 512, 500, 29);
    cfg.options.vhost_overlay = true;
    let r = Testbed::new(cfg).run();
    assert_eq!(r.verify_failures, 0);
    // The overlay implies the data-ready interrupt: 3 IRQs per packet.
    assert_eq!(r.irqs, 3 * 500);
}

#[test]
fn e14_ddr_costs_a_little_for_both() {
    let rows = experiments::card_memory(params(600));
    for r in &rows {
        let dv = r.virtio_ddr.mean_us - r.virtio_bram.mean_us;
        let dx = r.xdma_ddr.mean_us - r.xdma_bram.mean_us;
        assert!(
            dv > 0.0 && dv < 3.0,
            "VirtIO DDR delta {dv} at {}B",
            r.payload
        );
        assert!(
            dx > 0.0 && dx < 3.0,
            "XDMA DDR delta {dx} at {}B",
            r.payload
        );
        // The penalty is driver-neutral (§III-B2 fairness).
        assert!((dv - dx).abs() < 1.0);
    }
}

#[test]
fn card_memory_option_preserves_correctness() {
    for kind in [CardKind::Bram, CardKind::Ddr] {
        for driver in [DriverKind::Virtio, DriverKind::Xdma] {
            let mut cfg = TestbedConfig::paper(driver, 256, 200, 31);
            cfg.options.card_memory = kind;
            let r = Testbed::new(cfg).run();
            assert_eq!(r.verify_failures, 0, "{:?} {:?}", driver, kind);
        }
    }
}
