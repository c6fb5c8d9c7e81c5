//! Determinism goldens: one cell per driver world and per option path an
//! experiment runs, at the seed that experiment derives, pinned bit for
//! bit as one row of `tests/golden/determinism.txt` named after its
//! test. A run is a pure function of seed and configuration, so a
//! refactor must leave every row unchanged. The E1 and E15 rows go back
//! to fingerprints captured before the generic `DriverModel` harness,
//! re-captured once when `SampleSet::raw()` began keeping insertion
//! order (the sums of the sorted samples had rounded a few ulps
//! differently); the later rows were added as their worlds landed, the
//! E5, E7 and E14 rows when the goldens became tables. A failing test
//! prints the fields that moved; `golden/mod.rs` says how to re-pin.

mod golden;

use golden::Row;
use vf_sim::SampleSet;
use virtio_fpga::testbed::CardKind::Ddr;
use virtio_fpga::DriverKind::{self, *};
use virtio_fpga::{run_tenants, BlkPattern, BlkRunResult, Calibration};
use virtio_fpga::{Testbed, TestbedConfig, TestbedOptions};

const TABLE: &str = "determinism";

/// A paper cell of 2000 packets, its options after `edit`.
fn cell(
    driver: DriverKind,
    payload: usize,
    seed: u64,
    edit: impl FnOnce(&mut TestbedOptions),
) -> TestbedConfig {
    let mut cfg = TestbedConfig::paper(driver, payload, 2000, seed);
    edit(&mut cfg.options);
    cfg
}

/// A serial round-trip run: the summary statistics of the total, hw, sw
/// and processing samples, the total's sample sum, and the counters.
fn round_trip(cfg: TestbedConfig) -> Row {
    let mut r = Testbed::new(cfg).run();
    let (t, h, s, p) = (
        r.total_summary(),
        r.hw_summary(),
        r.sw_summary(),
        r.proc_summary(),
    );
    Row::default()
        .f64("mean", t.mean_us)
        .f64("p99", t.p99_us)
        .f64("max", t.max_us)
        .f64("hw_mean", h.mean_us)
        .f64("sw_mean", s.mean_us)
        .f64("proc_mean", p.mean_us)
        .f64("sum", r.total.raw().iter().sum())
        .field("notifications", r.notifications)
        .field("irqs", r.irqs)
        .field("verify_failures", r.verify_failures)
}

/// The sum of every sample of every set, set by set.
fn pooled_sum(sets: &[SampleSet]) -> f64 {
    sets.iter().map(|s| s.raw().iter().sum::<f64>()).sum()
}

/// An E19/E20 `run_mq` cell: 4 pairs, 256 B, seed 42, NP depth `depth`.
fn mq(driver: DriverKind, depth: usize) -> Row {
    let cfg = cell(driver, 256, 42, |o| {
        (o.mq_queue_pairs, o.pipeline_depth) = (4, depth)
    });
    let r = virtio_fpga::run_mq(&cfg, 16);
    Row::default()
        .f64("pps", r.pps)
        .f64("latency_sum", pooled_sum(&r.per_queue_latency))
        .f64("link_util_up", r.link_util_up)
        .f64("link_util_down", r.link_util_down)
        .field("doorbells", r.doorbells)
        .field("irqs", r.irqs)
        .field("peak_np_inflight", r.peak_np_inflight)
        .field("verify_failures", r.verify_failures)
}

/// A storage run: throughput, latency sum, wire use and the counters.
fn storage(r: BlkRunResult) -> Row {
    Row::default()
        .f64("iops", r.iops)
        .f64("latency_sum", r.latency.raw().iter().sum())
        .f64("link_util_up", r.link_util_up)
        .f64("link_util_down", r.link_util_down)
        .field("doorbells", r.doorbells)
        .field("irqs", r.irqs)
        .field("requests", r.requests as u64)
        .field("verify_failures", r.verify_failures)
}

/// An E24 pipelined virtio-blk run of 2000 4 KiB requests at QD 8.
fn blk(pattern: BlkPattern, seed: u64) -> Row {
    let cfg = cell(VirtioBlk, 4096, seed, |_| {});
    storage(virtio_fpga::run_blk(&cfg, pattern, 4096, 8))
}

/// An E24 XDMA storage baseline of 500 requests at `blk_storage`'s seed
/// for workload `w` (42·1000 + 37·w).
fn xdma_storage(w: u64, pattern: BlkPattern, io_bytes: u32) -> Row {
    let cfg = TestbedConfig::paper(Xdma, io_bytes as usize, 500, 42_000 + 37 * w);
    storage(virtio_fpga::run_xdma_storage(&cfg, pattern, io_bytes))
}

/// One test per cell, checking the row named after it, plus one test
/// that the table holds no row without a test.
macro_rules! goldens {
    ($($name:ident => $row:expr;)*) => {
        $(
            #[test]
            fn $name() {
                golden::check(TABLE, &[$row.named(stringify!($name))]);
            }
        )*

        #[test]
        fn determinism_table_has_no_orphan_rows() {
            golden::no_orphans(TABLE, &[$(stringify!($name)),*]);
        }
    };
}

goldens! {
    // E1 matrix cell at 256 B: `run_matrix`'s seed 42·1000+2 for VirtIO.
    e1_virtio_cell_matches_pre_refactor_golden => round_trip(cell(Virtio, 256, 42_002, |_| {}));
    // E1 matrix cell at 256 B: XDMA, seed 42·1000+2+500.
    e1_xdma_cell_matches_pre_refactor_golden => round_trip(cell(Xdma, 256, 42_502, |_| {}));
    // E17 packed ring at 256 B, seed 42·1000+2+900.
    e17_packed_cell_matches_pre_mq_golden => round_trip(cell(VirtioPacked, 256, 42_902, |_| {}));
    // E15 `pmd_tails` cell: the PMD at 256 B, seed 42·1000+2.
    e15_pmd_cell_matches_pre_refactor_golden => round_trip(cell(VirtioPmd, 256, 42_002, |_| {}));
    // E5 `portability` cell: VirtIO at 1 KiB over Gen3 x8, seed 42+5·7.
    e5_gen3_x8_virtio_cell_matches_golden => round_trip(TestbedConfig {
        calibration: Calibration::fedora37_alinx().with_link(vf_pcie::PcieGen::Gen3, 8),
        ..cell(Virtio, 1024, 77, |_| {})
    });
    // E6 cell: XDMA at 256 B waiting for the data-ready interrupt, seed 42+2.
    e6_xdma_user_irq_cell_matches_golden =>
        round_trip(cell(Xdma, 256, 44, |o| o.xdma_wait_device_irq = true));
    // E7 `virtio_features` cell: EVENT_IDX off, queue size 64, seed 42+3·13.
    e7_no_event_idx_q64_cell_matches_golden =>
        round_trip(cell(Virtio, 256, 81, |o| (o.event_idx, o.queue_size) = (false, 64)));
    // E9 console cell: the hvc persona at 64 B, seed 42+1·3.
    e9_console_cell_matches_golden =>
        round_trip(cell(Virtio, 64, 45, |o| o.device_type = vf_virtio::DeviceType::Console));
    // E10 offload cell: 512 B with `VIRTIO_NET_F_CSUM`, seed 42+1.
    e10_csum_offload_cell_matches_golden =>
        round_trip(cell(Virtio, 512, 43, |o| o.csum_offload = true));
    // E13 deployment cell: XDMA at 256 B behind the vhost overlay, seed 42+5.
    e13_xdma_vhost_cell_matches_golden =>
        round_trip(cell(Xdma, 256, 47, |o| o.vhost_overlay = true));
    // E14 `card_memory` cell: VirtIO at 1 KiB on DDR card memory, seed 42+1.
    e14_virtio_ddr_cell_matches_golden =>
        round_trip(cell(Virtio, 1024, 43, |o| o.card_memory = Ddr));
    // E16 paced adaptive PMD cell: 256 B at 10 kpps, seed 42+2·17.
    e16_paced_adaptive_pmd_cell_matches_golden => round_trip(cell(VirtioPmd, 256, 76, |o| {
        o.pmd_send_interval = Some(vf_sim::Time::from_us(100));
        o.pmd_adaptive_idle = Some(virtio_fpga::experiments::PMD_ADAPTIVE_IDLE);
    }));
    // Serial MQ and tenant worlds over 4 pairs, seed 42.
    mq_split_serial_world_matches_golden =>
        round_trip(cell(VirtioMq, 256, 42, |o| o.mq_queue_pairs = 4));
    mq_packed_serial_world_matches_golden =>
        round_trip(cell(VirtioMqPacked, 256, 42, |o| o.mq_queue_pairs = 4));
    mq_csum_offload_serial_world_matches_golden =>
        round_trip(cell(VirtioMq, 256, 42, |o| (o.mq_queue_pairs, o.csum_offload) = (4, true)));
    tenant_vhost_serial_world_matches_golden =>
        round_trip(cell(VirtioTenant, 256, 42, |o| (o.mq_queue_pairs, o.tenant_vhost) = (4, true)));
    // E19/E20 pipelined MQ over the serial (depth 1) and pipelined walkers.
    mq_split_serial_walker_matches_golden => mq(VirtioMq, 1);
    mq_split_pipelined_walker_matches_golden => mq(VirtioMq, 4);
    mq_packed_serial_walker_matches_golden => mq(VirtioMqPacked, 1);
    mq_packed_pipelined_walker_matches_golden => mq(VirtioMqPacked, 4);
    // E21 pipelined cell: 4 tenants ringing the device through the arbiter.
    tenant_split_direct_cell_matches_golden => {
        let r = run_tenants(&cell(VirtioTenant, 256, 42, |o| o.mq_queue_pairs = 4), 16);
        Row::default()
            .f64("pps", r.pps)
            .f64("latency_sum", pooled_sum(&r.per_tenant_latency))
            .f64("jain_index", r.jain_index)
            .field("doorbells", r.doorbells)
            .field("irqs", r.irqs)
            .field("arb_grants", r.arb_grants)
            .field("arb_queued", r.arb_queued)
            .field("verify_failures", r.verify_failures)
    };
    // E24 virtio-blk at QD 8: 4 KiB random reads (seed 42·1000+24) and
    // writes (`blk_storage`'s seed 42·1000+37).
    e24_blk_qd_sweep_matches_promotion_golden => blk(BlkPattern::RandomRead, 42_024);
    e24_blk_random_write_qd8_matches_golden => blk(BlkPattern::RandomWrite, 42_037);
    // E24 XDMA storage baseline: 4 KiB random reads, 128 KiB sequential writes.
    xdma_storage_random_read_matches_golden => xdma_storage(0, BlkPattern::RandomRead, 4096);
    xdma_storage_sequential_write_matches_golden =>
        xdma_storage(3, BlkPattern::SequentialWrite, 128 << 10);
}

/// The comparator itself: one ulp on an f64 field and one count on a
/// counter each fail, naming the row, the field and both values; a row
/// the table lacks fails; a row no test produces fails.
#[test]
fn comparator_reports_every_moved_field_and_orphan_row() {
    let table = "# comment\na x=0.1 n=7 d=0x0000000000000001\nb x=1.0\n";
    let a = |x: f64, n: u64| Row("a".into()).f64("x", x).field("n", n).hex("d", 1);
    assert!(golden::diff(table, &[a(0.1, 7), Row("b".into()).f64("x", 1.0)]).is_empty());
    let moved = golden::diff(table, &[a(f64::from_bits(0.1f64.to_bits() + 1), 8)]);
    let delta = "0.1 -> 0.10000000000000002 (delta +1.3877787807814457e-17, +1 ulp)";
    assert_eq!(moved, [format!("a:\n  x: {delta}\n  n: 7 -> 8 (delta +1)")]);
    let missing = golden::diff(table, &[Row("c".into()).field("n", 1)]);
    assert_eq!(missing, ["c: not in the table; new row: c n=1"]);
    let orphans = golden::orphans(table, &["a"]);
    assert_eq!(orphans, ["b: in the table, produced by no test"]);
}
