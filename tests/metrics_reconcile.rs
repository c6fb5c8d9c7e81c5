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

mod golden;

use golden::{fnv1a, Row};
use vf_metrics::MetricsReport;
use virtio_fpga::{
    metered, metered_run, run_mq, run_tenants, DriverKind, RunResult, Testbed, TestbedConfig,
};

const TABLE: &str = "metrics_reports";

const PACKETS: usize = 40;

fn cfg(driver: DriverKind, seed: u64) -> TestbedConfig {
    TestbedConfig::paper(driver, 256, PACKETS, seed)
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

fn set_bits(sets: &[vf_sim::SampleSet]) -> Vec<Vec<u64>> {
    sets.iter().map(|s| bits(s.raw())).collect()
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
        let o = &metered.result;
        for (set, a, b) in [
            ("total", &plain.total, &o.total),
            ("hw", &plain.hw, &o.hw),
            ("sw", &plain.sw, &o.sw),
            ("proc", &plain.proc, &o.proc),
        ] {
            let msg = format!("{driver:?}: {set} samples perturbed by metering");
            assert_eq!(bits(a.raw()), bits(b.raw()), "{msg}");
        }
        let counters = |r: &RunResult| (r.notifications, r.irqs, r.desc_reads);
        assert_eq!(counters(&plain), counters(o), "{driver:?}");
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
    assert_eq!(
        set_bits(&plain.per_queue_latency),
        set_bits(&metered.per_queue_latency),
        "queue latency samples perturbed"
    );
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
    assert_eq!(
        set_bits(&plain.per_tenant_latency),
        set_bits(&metered.per_tenant_latency),
        "tenant latency samples perturbed"
    );
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
/// not just identical world results (the JSON holds every point; the
/// report rows name the instruments that differ). This is the
/// bit-reproducibility claim of the sampler itself.
#[test]
fn metered_reports_are_bit_reproducible() {
    let run = || metered_run(&cfg(DriverKind::Virtio, 77)).report;
    let (a, b) = (run(), run());
    let table: String = report_rows("a", &a)
        .into_iter()
        .map(|r| r.0 + "\n")
        .collect();
    let moved = golden::diff(&table, &report_rows("a", &b));
    assert!(moved.is_empty(), "{}", moved.join("\n"));
    assert_eq!(a.to_json(), b.to_json());
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

/// Packets per paper cell in the report goldens.
const GOLDEN_PACKETS: usize = 300;

fn paper_cell_report(driver: DriverKind) -> MetricsReport {
    metered_run(&TestbedConfig::paper(driver, 256, GOLDEN_PACKETS, 42)).report
}

/// The golden rows of `world`'s report: its JSON and CSV digests, then
/// one row per instrument with its final value and either its series
/// (length and digest) or its histogram totals.
fn report_rows(world: &str, report: &MetricsReport) -> Vec<Row> {
    let bytes = Row(world.to_string())
        .hex("json", fnv1a(report.to_json().bytes()))
        .hex("csv", fnv1a(report.to_csv().bytes()));
    let instruments = report.instruments.iter().map(|i| {
        let row = Row(format!("{world}/{}[{}]", i.name, i.index))
            .field("kind", i.kind.name())
            .field("last", i.last);
        match &i.histogram {
            Some(h) => row
                .field("count", h.count())
                .field("sum", h.sum())
                .field("min", h.min())
                .field("max", h.max()),
            None => {
                let points = i
                    .series()
                    .flat_map(|(t, v)| t.to_le_bytes().into_iter().chain(v.to_le_bytes()));
                row.field("len", i.series().len())
                    .hex("series", fnv1a(points))
            }
        }
    });
    std::iter::once(bytes).chain(instruments).collect()
}

/// The reports themselves, pinned across commits in
/// `tests/golden/metrics_reports.txt`: registration order, every change
/// point, every histogram bucket and every violation of seed-42 metered
/// runs, as whole-report digests, and each instrument's totals beside a
/// digest of its series, so a moved byte names the instruments that
/// moved. `metered_reports_are_bit_reproducible` compares two runs of
/// one build; these goldens catch a change to how instruments are
/// resolved, sampled or exported. `mq4` and `tenants_wfq` were re-pinned
/// when each simulated core began publishing its `hostsw.*` instruments
/// under its own index.
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
        ("virtio", paper_cell_report(DriverKind::Virtio)),
        ("xdma", paper_cell_report(DriverKind::Xdma)),
        ("pmd", paper_cell_report(DriverKind::VirtioPmd)),
        ("mq4", mq()),
        ("tenants_wfq", tenants()),
        (
            "blk_rr4k",
            blk(virtio_fpga::BlkPattern::RandomRead, 4096, 120),
        ),
        // Each 128 KiB write is a 1,024-chunk device read; the 4 KiB
        // reads above are 32-TLP posted writes.
        (
            "blk_sw128k",
            blk(virtio_fpga::BlkPattern::SequentialWrite, 128 << 10, 40),
        ),
    ];
    let rows: Vec<Row> = reports
        .iter()
        .flat_map(|(w, r)| report_rows(w, r))
        .collect();
    golden::check(TABLE, &rows);
    golden::no_orphans(TABLE, &rows.iter().map(Row::name).collect::<Vec<_>>());
}
