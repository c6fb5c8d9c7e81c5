//! Cross-layer trace validation: span sums vs recorder summaries.
//!
//! Three guarantees, checked for every driver model:
//!
//! 1. **Reconciliation** — folding the trace back per round trip
//!    re-derives the recorder's `total`/`hw`/`proc` samples (to the
//!    1 ns host-clock quantum) and never attributes more serial
//!    software time than the `sw` residual.
//! 2. **Coverage** — one E2 virtio-net round trip carries spans or
//!    events from all five stack layers (syscall, driver, link/TLP,
//!    device/DMA, irq/softirq) with the expected operation names.
//! 3. **Non-perturbation** — a traced run produces bit-identical
//!    samples and counters to an untraced run of the same seed.
//!    Tracing observes the simulation; it must never steer it.
//! 4. **Placement** — a span sits where its work happened: a vhost
//!    worker's relay after the guest's kick, a windowed world's
//!    interrupt path after the window opens.

use vf_sim::Time;
use vf_trace::{Kind, Layer, RingBufferSink};
use virtio_fpga::{
    reconcile, run_blk, traced_run, BlkPattern, DriverKind, RunResult, Testbed, TestbedConfig,
};

const PACKETS: usize = 40;

fn cfg(driver: DriverKind, seed: u64) -> TestbedConfig {
    TestbedConfig::paper(driver, 256, PACKETS, seed)
}

fn check_driver(driver: DriverKind, seed: u64, root_name: &str) {
    let c = cfg(driver, seed);
    // The root span's payload scalar is the byte count the application
    // hands to the kernel: the UDP payload for the socket paths, the
    // full framed packet for the XDMA character-device write.
    let expected_payload = match driver {
        DriverKind::Xdma => c.wire_bytes() as u64,
        _ => 256,
    };
    let run = traced_run(&c);
    let rtts = run.breakdowns();
    assert_eq!(rtts.len(), PACKETS, "{driver:?}: one breakdown per packet");
    for rtt in &rtts {
        assert_eq!(rtt.name, root_name, "{driver:?}: root span name");
        assert_eq!(rtt.payload, expected_payload, "{driver:?}: root payload");
    }
    reconcile(&run.result, &rtts).unwrap_or_else(|e| panic!("{driver:?}: {e}"));
}

#[test]
fn virtio_split_spans_reconcile() {
    check_driver(DriverKind::Virtio, 42_002, "rtt_virtio");
}

#[test]
fn virtio_packed_spans_reconcile() {
    check_driver(DriverKind::VirtioPacked, 42_902, "rtt_virtio_packed");
}

#[test]
fn xdma_spans_reconcile() {
    check_driver(DriverKind::Xdma, 42_502, "rtt_xdma");
}

#[test]
fn pmd_spans_reconcile() {
    check_driver(DriverKind::VirtioPmd, 42_002, "rtt_pmd");
}

/// One E2 virtio-net round trip must contain all five stack layers —
/// the acceptance criterion of the tracing PR.
#[test]
fn virtio_round_trip_covers_all_five_layers() {
    let run = traced_run(&cfg(DriverKind::Virtio, 7));
    let rtts = run.breakdowns();
    let rtt = &rtts[0];
    for layer in [
        Layer::Syscall,
        Layer::Driver,
        Layer::Link,
        Layer::Device,
        Layer::Irq,
    ] {
        assert!(
            rtt.layer_time(layer).as_ps() > 0,
            "first round trip has no {} time",
            layer.name()
        );
    }
    // The span tree names the expected operations at each layer.
    for name in [
        "sendto",          // syscall entry
        "virtio_xmit",     // driver tx path
        "doorbell_mmio",   // driver → device MMIO
        "tlp_mem_write",   // link TLPs
        "hw_h2c",          // device DMA window (FPGA counter)
        "device_proc",     // response generation
        "irq_to_napi",     // irq → softirq
        "napi_poll",       // driver rx path
        "recvfrom_return", // syscall exit
    ] {
        assert!(
            rtt.spans.iter().any(|s| s.name == name),
            "no span named {name:?} in first round trip"
        );
    }
    // MSI-X delivery is an instant, not a span — look in the raw stream.
    assert!(
        run.events
            .iter()
            .any(|e| e.name == "msix" && matches!(e.kind, Kind::Instant)),
        "no msix instant in trace"
    );
    // Descriptor-read instants carry the split-ring tag.
    assert!(
        run.events.iter().any(|e| e.name == "desc_read_split"),
        "no split descriptor-read instants in trace"
    );
}

#[test]
fn packed_trace_tags_descriptor_reads_as_packed() {
    let run = traced_run(&cfg(DriverKind::VirtioPacked, 11));
    assert!(
        run.events.iter().any(|e| e.name == "desc_read_packed"),
        "no packed descriptor-read instants in trace"
    );
    assert!(
        !run.events.iter().any(|e| e.name == "desc_read_split"),
        "packed run must not emit split descriptor reads"
    );
}

/// Tracing must be a pure observer: same seed, bit-identical samples
/// and counters whether or not a session is installed.
#[test]
fn tracing_does_not_perturb_timestamps() {
    for (driver, seed) in [
        (DriverKind::Virtio, 42_002u64),
        (DriverKind::VirtioPacked, 42_902),
        (DriverKind::Xdma, 42_502),
        (DriverKind::VirtioPmd, 42_002),
    ] {
        let plain = Testbed::new(cfg(driver, seed)).run();
        let o = &traced_run(&cfg(driver, seed)).result;
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (set, a, b) in [
            ("total", &plain.total, &o.total),
            ("hw", &plain.hw, &o.hw),
            ("sw", &plain.sw, &o.sw),
            ("proc", &plain.proc, &o.proc),
        ] {
            let msg = format!("{driver:?}: {set} samples perturbed by tracing");
            assert_eq!(bits(a.raw()), bits(b.raw()), "{msg}");
        }
        let counters = |r: &RunResult| (r.notifications, r.irqs, r.desc_reads);
        assert_eq!(counters(&plain), counters(o), "{driver:?}");
    }
}

/// The Perfetto export of a traced run is well-formed enough to load:
/// it is a single JSON object with a `traceEvents` array naming every
/// layer track.
#[test]
fn perfetto_export_names_every_layer() {
    let run = traced_run(&cfg(DriverKind::Virtio, 3));
    let json = vf_trace::chrome_trace_json(&run.events);
    assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
    assert!(json.contains("\"traceEvents\""));
    for layer in ["syscall", "driver", "link", "device", "irq", "app"] {
        assert!(
            json.contains(&format!("\"{layer}\"")),
            "export missing layer track {layer:?}"
        );
    }
    for ph in [
        "\"ph\":\"X\"",
        "\"ph\":\"B\"",
        "\"ph\":\"E\"",
        "\"ph\":\"i\"",
    ] {
        assert!(json.contains(ph), "export missing phase {ph}");
    }
}

/// E19 multi-queue world: every round trip reconciles, and the root
/// span names carry the queue pair that served the flow, so each queue
/// gets its own track group in the export.
#[test]
fn mq_spans_reconcile_per_queue() {
    let mut c = cfg(DriverKind::VirtioMq, 19_002);
    c.options.mq_queue_pairs = 2;
    let run = traced_run(&c);
    let rtts = run.breakdowns();
    assert_eq!(rtts.len(), PACKETS, "one breakdown per packet");
    for (i, rtt) in rtts.iter().enumerate() {
        let expect = if i % 2 == 0 { "rtt_mq_q0" } else { "rtt_mq_q1" };
        assert_eq!(rtt.name, expect, "round-robin per-queue root names");
    }
    reconcile(&run.result, &rtts).unwrap_or_else(|e| panic!("mq: {e}"));
}

/// Tracing stays a pure observer for the multi-queue world too.
#[test]
fn mq_tracing_does_not_perturb_timestamps() {
    let mut c = cfg(DriverKind::VirtioMq, 19_002);
    c.options.mq_queue_pairs = 2;
    let plain = Testbed::new(c.clone()).run();
    let traced = traced_run(&c).result;
    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(plain.total.raw()), bits(traced.total.raw()));
    assert_eq!(plain.notifications, traced.notifications);
    assert_eq!(plain.irqs, traced.irqs);
}

/// E21 tenant world with the vhost backend: the run reconciles, and in
/// every round trip the worker's TX relay starts no earlier than the end
/// of the guest's kick vmexit that woke it.
#[test]
fn tenant_vhost_worker_starts_after_the_kick() {
    let mut c = cfg(DriverKind::VirtioTenant, 21_002);
    c.options.mq_queue_pairs = 2;
    c.options.tenant_vhost = true;
    let run = traced_run(&c);
    let rtts = run.breakdowns();
    assert_eq!(rtts.len(), PACKETS, "one breakdown per packet");
    reconcile(&run.result, &rtts).unwrap_or_else(|e| panic!("tenant vhost: {e}"));
    for (i, rtt) in rtts.iter().enumerate() {
        let span = |name: &str| {
            rtt.spans
                .iter()
                .find(|s| s.name == name)
                .unwrap_or_else(|| panic!("round trip {i}: no {name:?} span"))
        };
        let kick = span("vmexit_kick");
        let worker = span("vhost_worker_tx");
        assert!(
            worker.start >= kick.end,
            "round trip {i}: vhost_worker_tx starts at {} before vmexit_kick ends at {}",
            worker.start,
            kick.end
        );
    }
}

/// A windowed world (E24 storage) traced under a caller's session: its
/// interrupt paths sit inside the run, after the pumps first fire at
/// 10 µs (`WINDOW_START`), not at a stale instant such as t = 0.
#[test]
fn blk_irq_spans_start_inside_the_window() {
    let c = TestbedConfig::paper(DriverKind::VirtioBlk, 4096, 20, 42_024);
    vf_trace::install(Box::new(RingBufferSink::new(1 << 16)));
    let r = run_blk(&c, BlkPattern::RandomRead, 4096, 2);
    let events = vf_trace::finish();
    assert_eq!(r.verify_failures, 0);
    let irqs: Vec<_> = events.iter().filter(|e| e.name == "irq_to_napi").collect();
    assert!(!irqs.is_empty(), "no irq_to_napi spans in trace");
    for e in irqs {
        assert!(
            e.t >= Time::from_us(10),
            "irq_to_napi span starts at {} before the window opens",
            e.t
        );
    }
}
