//! Determinism under observation: a metered run must be bit-identical
//! to an unmetered run of the same seed.
//!
//! The sampler is driven by the engine *between* event deliveries
//! (`sample_before` fires strictly before the popped event's
//! timestamp), draws no randomness, and never schedules an event — so
//! installing a metrics session may change nothing about the
//! simulation itself. These tests pin that down for every driver
//! world, the same way `trace_reconcile.rs` pins it down for tracing:
//! `f64::to_bits` equality on every sample set plus exact counter
//! equality, not approximate agreement.

use virtio_fpga::{metered, metered_run, run_mq, run_tenants, DriverKind, Testbed, TestbedConfig};

const PACKETS: usize = 40;

fn cfg(driver: DriverKind, seed: u64) -> TestbedConfig {
    TestbedConfig::paper(driver, 256, PACKETS, seed)
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Metering must be a pure observer of the single-queue round-trip
/// worlds: same seed, bit-identical samples and counters whether or
/// not a session is installed.
#[test]
fn metering_does_not_perturb_timestamps() {
    for (driver, seed) in [
        (DriverKind::Virtio, 42_002u64),
        (DriverKind::VirtioPacked, 42_902),
        (DriverKind::Xdma, 42_502),
        (DriverKind::VirtioPmd, 42_002),
    ] {
        let plain = Testbed::new(cfg(driver, seed)).run();
        let metered = metered_run(&cfg(driver, seed));
        assert_eq!(
            bits(plain.total.raw()),
            bits(metered.result.total.raw()),
            "{driver:?}: total samples perturbed by metering"
        );
        assert_eq!(
            bits(plain.hw.raw()),
            bits(metered.result.hw.raw()),
            "{driver:?}: hw samples perturbed by metering"
        );
        assert_eq!(
            bits(plain.sw.raw()),
            bits(metered.result.sw.raw()),
            "{driver:?}: sw samples perturbed by metering"
        );
        assert_eq!(
            bits(plain.proc.raw()),
            bits(metered.result.proc.raw()),
            "{driver:?}: proc samples perturbed by metering"
        );
        assert_eq!(
            plain.notifications, metered.result.notifications,
            "{driver:?}"
        );
        assert_eq!(plain.irqs, metered.result.irqs, "{driver:?}");
        assert_eq!(plain.desc_reads, metered.result.desc_reads, "{driver:?}");
        // And the observation itself was real: the sampler fired and
        // the watchdogs stayed quiet on a healthy world.
        assert!(
            metered.report.samples > 0,
            "{driver:?}: sampler never fired"
        );
        assert!(
            metered.report.violations.is_empty(),
            "{driver:?}: healthy run flagged: {:?}",
            metered.report.violations
        );
    }
}

/// Same guarantee for the E19 multi-queue pipelined world, which runs
/// the walker-depth and per-queue backlog instrumentation the
/// single-queue worlds never touch.
#[test]
fn mq_metering_does_not_perturb_throughput() {
    let mut c = cfg(DriverKind::VirtioMq, 19_002);
    c.options.mq_queue_pairs = 2;
    let plain = run_mq(&c, 16);
    let (metered, report) = metered(vf_metrics::MetricsConfig::default(), || run_mq(&c, 16));
    assert_eq!(plain.pps.to_bits(), metered.pps.to_bits(), "pps perturbed");
    assert_eq!(plain.doorbells, metered.doorbells);
    assert_eq!(plain.irqs, metered.irqs);
    assert_eq!(plain.verify_failures, 0);
    assert_eq!(metered.verify_failures, 0);
    for (q, (p, m)) in plain
        .per_queue_latency
        .iter()
        .zip(&metered.per_queue_latency)
        .enumerate()
    {
        assert_eq!(
            bits(p.raw()),
            bits(m.raw()),
            "queue {q} latency samples perturbed"
        );
    }
    assert!(report.samples > 0);
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    for layer in ["pcie", "virtio", "fpga", "sim"] {
        assert!(
            report.layers().contains(&layer),
            "layer {layer} missing from MQ report {:?}",
            report.layers()
        );
    }
    // An MQ run builds no tenancy: no arbiter registers its
    // instruments, so the `repro metrics` MQ report stays tenant-free.
    assert!(
        !report.layers().contains(&"tenant"),
        "MQ run registered tenant instruments: {:?}",
        report.layers()
    );
}

/// And for the E21 multi-tenant world under WFQ — the only world that
/// arms the fairness-drift watchdog.
#[test]
fn tenant_metering_does_not_perturb_throughput() {
    let mut c = cfg(DriverKind::VirtioTenant, 21_002);
    c.options.mq_queue_pairs = 2;
    c.options.tenant_vhost = true;
    c.options.tenant_policy = virtio_fpga::ArbiterPolicy::WeightedShare;
    let plain = run_tenants(&c, 16);
    let (metered, report) = metered(vf_metrics::MetricsConfig::default(), || run_tenants(&c, 16));
    assert_eq!(plain.pps.to_bits(), metered.pps.to_bits(), "pps perturbed");
    assert_eq!(
        plain.jain_index.to_bits(),
        metered.jain_index.to_bits(),
        "fairness index perturbed"
    );
    assert_eq!(plain.verify_failures, 0);
    assert_eq!(metered.verify_failures, 0);
    for (t, (p, m)) in plain
        .per_tenant_latency
        .iter()
        .zip(&metered.per_tenant_latency)
        .enumerate()
    {
        assert_eq!(
            bits(p.raw()),
            bits(m.raw()),
            "tenant {t} latency samples perturbed"
        );
    }
    assert!(report.samples > 0);
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    assert!(
        report.layers().contains(&"tenant"),
        "tenant layer missing from {:?}",
        report.layers()
    );
    // WFQ was the policy the arbiter registered.
    let policy = report
        .get(vf_metrics::names::ARBITER_POLICY, 0)
        .expect("arbiter policy gauge registered");
    assert_eq!(
        policy.series().last().map(|(_, v)| v),
        Some(vf_metrics::names::POLICY_WFQ)
    );
}

/// A metered run is itself deterministic: two metered runs of the same
/// seed produce identical sample series — every `(t, value)` point —
/// not just identical world results. This is the bit-reproducibility
/// claim of the sampler itself.
#[test]
fn metered_reports_are_bit_reproducible() {
    let a = metered_run(&cfg(DriverKind::Virtio, 77));
    let b = metered_run(&cfg(DriverKind::Virtio, 77));
    assert_eq!(a.report.samples, b.report.samples);
    assert_eq!(a.report.instruments.len(), b.report.instruments.len());
    for (ia, ib) in a.report.instruments.iter().zip(&b.report.instruments) {
        assert_eq!((ia.name, ia.index), (ib.name, ib.index));
        assert_eq!(
            ia.series().collect::<Vec<_>>(),
            ib.series().collect::<Vec<_>>(),
            "{}[{}] series differ",
            ia.name,
            ia.index
        );
    }
    assert_eq!(a.report.to_json(), b.report.to_json());
}

/// Sampling boundaries land strictly before the event that crossed
/// them, so a sample can never be interleaved into — or reorder — the
/// deliveries of a timestamp. Checked end to end: every sampled point
/// in every series is on the sampler's grid and in increasing order.
#[test]
fn sample_instants_are_monotone_and_on_grid() {
    let mcfg = vf_metrics::MetricsConfig::default();
    let period = mcfg.interval_ps;
    let run = virtio_fpga::metered_run_with(&cfg(DriverKind::Virtio, 5), mcfg);
    assert!(run.report.samples > 0);
    for inst in &run.report.instruments {
        let mut last = None;
        for (t, _) in inst.series() {
            assert_eq!(
                t % period,
                0,
                "{}[{}] sampled off the {period} ps grid at t={t}",
                inst.name,
                inst.index
            );
            assert!(
                last.is_none_or(|p| t > p),
                "{}[{}] series not strictly increasing at t={t}",
                inst.name,
                inst.index
            );
            last = Some(t);
        }
    }
}

/// FNV-1a 64 of `text`.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Packets per paper cell in the report goldens.
const GOLDEN_PACKETS: usize = 300;

/// `(world, to_json digest, to_csv digest)` of the seed-42 report goldens.
/// `mq4` and `tenants_wfq` were re-pinned when each simulated core began
/// publishing its `hostsw.*` instruments under its own index; no other
/// instrument of those reports moved.
const REPORT_GOLDENS: [(&str, u64, u64); 7] = [
    ("virtio", 0xcf61_19a9_ebae_aeac, 0xff4d_3188_097c_aa34),
    ("xdma", 0xd124_14dd_8eac_ab21, 0xbb62_fd33_7a59_d547),
    ("pmd", 0xdb89_7e57_0946_a2ac, 0x56dd_bfb1_6f6c_e25d),
    ("mq4", 0xfe75_b01e_484a_b0a2, 0x1d64_ec42_ac24_a64e),
    ("tenants_wfq", 0x67dc_42fa_390a_32c1, 0x6546_038e_6f11_14ba),
    ("blk_rr4k", 0xcaef_f2e7_9081_dbc4, 0xd317_a3cc_c1af_3c08),
    ("blk_sw128k", 0xe1ea_297e_085d_5aa2, 0x0a5f_02c7_3cdb_b8fc),
];

fn paper_cell_report(driver: DriverKind) -> vf_metrics::MetricsReport {
    metered_run(&TestbedConfig::paper(driver, 256, GOLDEN_PACKETS, 42)).report
}

/// The report bytes themselves, pinned across commits: registration
/// order, every change point, every histogram bucket and every
/// violation of seed-42 metered runs. `metered_reports_are_bit_reproducible`
/// compares two runs of one build; these goldens catch a change to how
/// instruments are resolved, sampled or exported that moves a byte.
#[test]
fn metered_report_bytes_match_goldens() {
    let mcfg = vf_metrics::MetricsConfig::default;
    let mq = || {
        let mut c = TestbedConfig::paper(DriverKind::VirtioMq, 256, GOLDEN_PACKETS, 42);
        c.options.mq_queue_pairs = 4;
        let (r, report) = metered(mcfg(), || run_mq(&c, 16));
        assert_eq!(r.verify_failures, 0);
        report
    };
    let tenants = || {
        let mut c = TestbedConfig::paper(DriverKind::VirtioTenant, 256, GOLDEN_PACKETS, 42);
        c.options.mq_queue_pairs = 4;
        c.options.tenant_vhost = true;
        c.options.tenant_policy = virtio_fpga::ArbiterPolicy::WeightedShare;
        let (r, report) = metered(mcfg(), || run_tenants(&c, 16));
        assert_eq!(r.verify_failures, 0);
        report
    };
    let blk = |pattern, io_bytes, packets| {
        let c = TestbedConfig::paper(DriverKind::VirtioBlk, 4096, packets, 42);
        let (r, report) = metered(mcfg(), || virtio_fpga::run_blk(&c, pattern, io_bytes, 4));
        assert_eq!(r.verify_failures, 0);
        report
    };
    let reports = [
        paper_cell_report(DriverKind::Virtio),
        paper_cell_report(DriverKind::Xdma),
        paper_cell_report(DriverKind::VirtioPmd),
        mq(),
        tenants(),
        blk(virtio_fpga::BlkPattern::RandomRead, 4096, 120),
        // Each 128 KiB write is a 1,024-chunk device read; the 4 KiB
        // reads above are 32-TLP posted writes.
        blk(virtio_fpga::BlkPattern::SequentialWrite, 128 << 10, 40),
    ];
    let got: Vec<(&str, u64, u64)> = REPORT_GOLDENS
        .iter()
        .zip(&reports)
        .map(|(&(world, _, _), r)| (world, fnv1a(&r.to_json()), fnv1a(&r.to_csv())))
        .collect();
    assert_eq!(got, REPORT_GOLDENS, "metrics report bytes moved");
}
