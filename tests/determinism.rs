//! Determinism regression goldens.
//!
//! The golden fingerprints below were captured on the pre-`DriverModel`
//! tree (three hand-rolled worlds, inline cost chains) for one E1 matrix
//! cell per kernel driver and one E15 cell for the PMD, at the exact
//! seeds those experiments derive. The generic harness refactor must be
//! a pure re-plumbing: same seed + config ⇒ bit-identical `RunResult`,
//! which these tests check down to the f64 bit pattern of every summary
//! statistic.
//!
//! Re-captured once after the `SampleSet::raw()` insertion-order bugfix:
//! the old implementation sorted the sample buffer in place on the first
//! percentile query, so every mean/sum golden was the f64 reduction of
//! *sorted* data. Keeping insertion order (the fix) changes the floating
//! point summation order by a couple of ULPs. Every sample value, count,
//! percentile, and event counter is unchanged — only the rounding of the
//! sequential sums moved. The multi-queue (E19) plumbing itself is
//! bit-neutral for these single-queue worlds, which is separately pinned
//! by the fact that these fingerprints were re-verified identical before
//! and after the MQ changes under the same stats code.

use virtio_fpga::{DriverKind, RunResult, Testbed, TestbedConfig};

/// Bit-exact fingerprint of a run: summary stats as raw f64 bits plus
/// the event counters.
struct Fingerprint {
    mean: u64,
    p99: u64,
    max: u64,
    hw_mean: u64,
    sw_mean: u64,
    proc_mean: u64,
    sum: u64,
    notifications: u64,
    irqs: u64,
    verify_failures: u64,
}

fn fingerprint(r: &mut RunResult) -> Fingerprint {
    let t = r.total_summary();
    let h = r.hw_summary();
    let s = r.sw_summary();
    let p = r.proc_summary();
    let sum: f64 = r.total.raw().iter().sum();
    Fingerprint {
        mean: t.mean_us.to_bits(),
        p99: t.p99_us.to_bits(),
        max: t.max_us.to_bits(),
        hw_mean: h.mean_us.to_bits(),
        sw_mean: s.mean_us.to_bits(),
        proc_mean: p.mean_us.to_bits(),
        sum: sum.to_bits(),
        notifications: r.notifications,
        irqs: r.irqs,
        verify_failures: r.verify_failures,
    }
}

fn assert_golden(mut r: RunResult, golden: &Fingerprint) {
    let f = fingerprint(&mut r);
    assert_eq!(f.mean, golden.mean, "total mean drifted");
    assert_eq!(f.p99, golden.p99, "total p99 drifted");
    assert_eq!(f.max, golden.max, "total max drifted");
    assert_eq!(f.hw_mean, golden.hw_mean, "hw mean drifted");
    assert_eq!(f.sw_mean, golden.sw_mean, "sw mean drifted");
    assert_eq!(f.proc_mean, golden.proc_mean, "proc mean drifted");
    assert_eq!(f.sum, golden.sum, "sample sum drifted");
    assert_eq!(
        f.notifications, golden.notifications,
        "notifications drifted"
    );
    assert_eq!(f.irqs, golden.irqs, "irqs drifted");
    assert_eq!(f.verify_failures, golden.verify_failures);
}

/// E1 matrix cell, `run_matrix` seed derivation with base seed 42 and
/// payload index 2 (256 B): VirtIO seed 42·1000+2.
#[test]
fn e1_virtio_cell_matches_pre_refactor_golden() {
    let r = Testbed::new(TestbedConfig::paper(DriverKind::Virtio, 256, 2000, 42_002)).run();
    assert_golden(
        r,
        &Fingerprint {
            mean: 0x404086d9b1b79d8c,
            p99: 0x4044f4395810624e,
            max: 0x4053aae147ae147b,
            hw_mean: 0x4032aabda0dfde75,
            sw_mean: 0x402c19e353f7ced5,
            proc_mean: 0x3fd5810624dd2fd0,
            sum: 0x40f023b0978d4fdb,
            notifications: 2000,
            irqs: 2000,
            verify_failures: 0,
        },
    );
}

/// E1 matrix cell: XDMA seed 42·1000+2+500.
#[test]
fn e1_xdma_cell_matches_pre_refactor_golden() {
    let r = Testbed::new(TestbedConfig::paper(DriverKind::Xdma, 256, 2000, 42_502)).run();
    assert_golden(
        r,
        &Fingerprint {
            mean: 0x404802aca7935753,
            p99: 0x404ff395810624dd,
            max: 0x40637fdf3b645a1d,
            hw_mean: 0x4029d8151a437779,
            sw_mean: 0x40418ca761027950,
            proc_mean: 0x0000000000000000,
            sum: 0x40f7729c9ba5e347,
            notifications: 4000,
            irqs: 4000,
            verify_failures: 0,
        },
    );
}

/// E17 packed-ring cell: VirtioPacked at 256 B, seed 42·1000+2+900.
/// Captured before the multi-queue (E19) plumbing landed: MQ support
/// must not move a single RNG draw in the single-queue worlds.
#[test]
fn e17_packed_cell_matches_pre_mq_golden() {
    let r = Testbed::new(TestbedConfig::paper(
        DriverKind::VirtioPacked,
        256,
        2000,
        42_902,
    ))
    .run();
    assert_golden(
        r,
        &Fingerprint {
            mean: 0x403cc0d4a1ad644f,
            p99: 0x4042a7ae147ae148,
            max: 0x405a220c49ba5e35,
            hw_mean: 0x402c92b2bfdb4ce8,
            sw_mean: 0x402c42ee52589261,
            proc_mean: 0x3fd5810624dd2fd0,
            sum: 0x40ec144fa5e353f5,
            notifications: 2000,
            irqs: 2000,
            verify_failures: 0,
        },
    );
}

/// E15 `pmd_tails` cell: VirtioPmd at 256 B, seed 42·1000+2.
#[test]
fn e15_pmd_cell_matches_pre_refactor_golden() {
    let r = Testbed::new(TestbedConfig::paper(
        DriverKind::VirtioPmd,
        256,
        2000,
        42_002,
    ))
    .run();
    assert_golden(
        r,
        &Fingerprint {
            mean: 0x40352a906034f400,
            p99: 0x4037d16872b020c5,
            max: 0x40432a1cac083127,
            hw_mean: 0x40323e358298cbe8,
            sw_mean: 0x4004b2b62845996f,
            proc_mean: 0x3fd5810624dd2fd0,
            sum: 0x40e4ab90fdf3b648,
            notifications: 2000,
            irqs: 0,
            verify_failures: 0,
        },
    );
}

/// E24 serial virtio-blk cell: 4 KiB requests, write/read-back
/// alternation, seed 42·1000+24. Captured when the block persona was
/// promoted to a full `DriverModel` device class; pins the blk request
/// walker's DMA chain, the front end's chain layout, and the EVENT_IDX
/// choreography down to the bit.
#[test]
fn e24_blk_cell_matches_promotion_golden() {
    let r = Testbed::new(TestbedConfig::paper(
        DriverKind::VirtioBlk,
        4096,
        2000,
        42_024,
    ))
    .run();
    assert_golden(
        r,
        &Fingerprint {
            mean: 0x4050213fbbd7b204,
            p99: 0x4057449ba5e353f8,
            max: 0x405dd428f5c28f5c,
            hw_mean: 0x4047d2817763e4c4,
            sw_mean: 0x40297e6ec9e236ca,
            proc_mean: 0x401083126e978cd3,
            sum: 0x40ff80f07ae147b0,
            notifications: 2000,
            irqs: 2000,
            verify_failures: 0,
        },
    );
}

/// E24 pipelined storage runner: 4 KiB random reads at QD 8, same seed
/// derivation. Pins throughput, the per-request latency sum, and the
/// doorbell/IRQ coalescing counts (exactly one doorbell and one MSI-X
/// per 8-deep window at this depth: 250 each for 2000 requests).
#[test]
fn e24_blk_qd_sweep_matches_promotion_golden() {
    use virtio_fpga::{run_blk, BlkPattern};
    let cfg = TestbedConfig::paper(DriverKind::VirtioBlk, 4096, 2000, 42_024);
    let r = run_blk(&cfg, BlkPattern::RandomRead, 4096, 8);
    let latency_sum: f64 = r.latency.raw().iter().sum();
    assert_eq!(r.iops.to_bits(), 0x40df6d7167df1607, "IOPS drifted");
    assert_eq!(
        latency_sum.to_bits(),
        0x411da1837ef9db11,
        "latency sum drifted"
    );
    assert_eq!(r.doorbells, 250, "doorbell coalescing drifted");
    assert_eq!(r.irqs, 250, "IRQ coalescing drifted");
    assert_eq!(r.verify_failures, 0);
}

/// Bit-exact fingerprint of a pipelined MQ run: throughput, pooled
/// latency sum and wire utilization as raw f64 bits, plus the counters.
fn mq_fingerprint(r: &virtio_fpga::MqThroughputResult) -> [u64; 7] {
    let latency_sum: f64 = r
        .per_queue_latency
        .iter()
        .map(|s| s.raw().iter().sum::<f64>())
        .sum();
    [
        r.pps.to_bits(),
        latency_sum.to_bits(),
        r.link_util_up.to_bits(),
        r.link_util_down.to_bits(),
        r.doorbells,
        r.irqs,
        r.peak_np_inflight,
    ]
}

/// One E19/E20 `run_mq` cell: 4 pairs, 256 B, 2000 packets, seed 42.
fn mq_cell(driver: virtio_fpga::DriverKind, depth: usize) -> [u64; 7] {
    let mut cfg = TestbedConfig::paper(driver, 256, 2000, 42);
    cfg.options.mq_queue_pairs = 4;
    cfg.options.pipeline_depth = depth;
    let r = virtio_fpga::run_mq(&cfg, 16);
    assert_eq!(r.verify_failures, 0);
    mq_fingerprint(&r)
}

/// Split-ring MQ over the serial walkers (NP depth 1). Captured before
/// the split and packed walkers were merged behind one ring type; the
/// merge must not move a bit.
#[test]
fn mq_split_serial_walker_matches_golden() {
    assert_eq!(
        mq_cell(DriverKind::VirtioMq, 1),
        [
            0x41100cd63083622d,
            0x411548e8d3f7cedc,
            0x3fc409945020f893,
            0x3fc0854a5328293d,
            128,
            128,
            0,
        ],
        "split MQ at depth 1 drifted"
    );
}

/// Split-ring MQ over the pipelined walkers (NP depth 4).
#[test]
fn mq_split_pipelined_walker_matches_golden() {
    assert_eq!(
        mq_cell(DriverKind::VirtioMq, 4),
        [
            0x411879e340c6fdc0,
            0x41066af553f7cedc,
            0x3fce8e7f9496e71c,
            0x3fc93193b2814a15,
            128,
            128,
            4,
        ],
        "split MQ at depth 4 drifted"
    );
}

/// Packed-ring MQ over the serial walkers (NP depth 1).
#[test]
fn mq_packed_serial_walker_matches_golden() {
    assert_eq!(
        mq_cell(DriverKind::VirtioMqPacked, 1),
        [
            0x4108bac5cf497de3,
            0x411e00a7da1cac04,
            0x3fbd9cef33d121c2,
            0x3fbacfff9608acb0,
            2000,
            2000,
            0,
        ],
        "packed MQ at depth 1 drifted"
    );
}

/// Packed-ring MQ over the pipelined walkers (NP depth 4).
#[test]
fn mq_packed_pipelined_walker_matches_golden() {
    assert_eq!(
        mq_cell(DriverKind::VirtioMqPacked, 4),
        [
            0x4112661e8e21b5a1,
            0x411171dc6f9db22b,
            0x3fc6083e96a7a1d5,
            0x3fc3f2d76166e90f,
            2000,
            2000,
            4,
        ],
        "packed MQ at depth 4 drifted"
    );
}

/// Bit-exact fingerprint of a pipelined tenant run: throughput, pooled
/// latency sum and Jain index as raw f64 bits, plus the counters and
/// the arbiter's grant/queue totals.
fn tenant_cell(vhost: bool, packed: bool) -> [u64; 7] {
    let mut cfg = TestbedConfig::paper(DriverKind::VirtioTenant, 256, 2000, 42);
    cfg.options.mq_queue_pairs = 4;
    cfg.options.tenant_vhost = vhost;
    cfg.options.tenant_packed = packed;
    let r = virtio_fpga::run_tenants(&cfg, 16);
    assert_eq!(r.verify_failures, 0);
    let latency_sum: f64 = r
        .per_tenant_latency
        .iter()
        .map(|s| s.raw().iter().sum::<f64>())
        .sum();
    [
        r.pps.to_bits(),
        latency_sum.to_bits(),
        r.jain_index.to_bits(),
        r.doorbells,
        r.irqs,
        r.arb_grants,
        r.arb_queued,
    ]
}

/// E21 tenant cell on packed rings: 4 vhost-relayed tenants, 256 B,
/// 2000 packets, seed 42. Pins the packed tenant front ends, the
/// packed ctrl queue and the arbiter's grant sequence.
#[test]
fn tenant_packed_cell_matches_golden() {
    assert_eq!(
        tenant_cell(true, true),
        [
            0x40f48958243712b0,
            0x41346a654dd2f1ab,
            0x3feffff46d9c35ca,
            2000,
            2000,
            128,
            127,
        ],
        "packed tenant cell drifted"
    );
}

/// E21 tenant cell on split rings with the vhost backend off: the
/// tenants ring the device directly while the arbiter still queues
/// their doorbells. Captured before the MQ and tenant worlds merged;
/// the merge must not move a bit.
#[test]
fn tenant_split_direct_cell_matches_golden() {
    assert_eq!(
        tenant_cell(false, false),
        [
            0x40f352b7f8c4e972,
            0x41364e0fb1a9fbe8,
            0x3feffff360a9d99e,
            128,
            128,
            128,
            127,
        ],
        "split direct tenant cell drifted"
    );
}

/// One serial `Testbed::run` over 4 queue pairs (or 4 tenants): 256 B,
/// 2000 packets, seed 42.
fn serial_mq_cell(driver: DriverKind, vhost: bool) -> RunResult {
    let mut cfg = TestbedConfig::paper(driver, 256, 2000, 42);
    cfg.options.mq_queue_pairs = 4;
    cfg.options.tenant_vhost = vhost;
    Testbed::new(cfg).run()
}

/// Serial split-ring MQ world over 4 pairs. Captured before the MQ and
/// tenant worlds merged; the merge must not move a bit.
#[test]
fn mq_split_serial_world_matches_golden() {
    assert_golden(
        serial_mq_cell(DriverKind::VirtioMq, false),
        &Fingerprint {
            mean: 0x40408a083126e978,
            p99: 0x404553126e978d50,
            max: 0x40526ccccccccccd,
            hw_mean: 0x4032aa9de8b3b29d,
            sw_mean: 0x402c26dcc20d5632,
            proc_mean: 0x3fd5810624dd2fd0,
            sum: 0x40f026cbffffffff,
            notifications: 2000,
            irqs: 2000,
            verify_failures: 0,
        },
    );
}

/// Serial packed-ring MQ world over 4 pairs.
#[test]
fn mq_packed_serial_world_matches_golden() {
    assert_golden(
        serial_mq_cell(DriverKind::VirtioMqPacked, false),
        &Fingerprint {
            mean: 0x403cb2ca03c4b0a0,
            p99: 0x4042ee353f7ced91,
            max: 0x40513a5e353f7cee,
            hw_mean: 0x402c92b3cc4ac6fb,
            sw_mean: 0x402c26d80a17b0f8,
            proc_mean: 0x3fd5810624dd2fd0,
            sum: 0x40ec069947ae147c,
            notifications: 2000,
            irqs: 2000,
            verify_failures: 0,
        },
    );
}

/// Serial tenant world: 4 vhost-relayed tenants behind the arbiter.
#[test]
fn tenant_vhost_serial_world_matches_golden() {
    assert_golden(
        serial_mq_cell(DriverKind::VirtioTenant, true),
        &Fingerprint {
            mean: 0x4043c2e2de87096e,
            p99: 0x40488872b020c49c,
            max: 0x405426147ae147ae,
            hw_mean: 0x4032aa960b6f9f45,
            sw_mean: 0x4034852b990afe66,
            proc_mean: 0x3fd5810624dd2fd0,
            sum: 0x40f34c518d4fdf35,
            notifications: 2000,
            irqs: 2000,
            verify_failures: 0,
        },
    );
}

/// E6 ablation cell: XDMA at 256 B with the data-ready user interrupt
/// restored, seed 42+2 (`xdma_irq_ablation`'s derivation). Pins the
/// user-interrupt path: the E6 frame the user logic echoes, its MSI-X,
/// and the poll() wakeup before `read()`.
#[test]
fn e6_xdma_user_irq_cell_matches_golden() {
    let mut cfg = TestbedConfig::paper(DriverKind::Xdma, 256, 2000, 44);
    cfg.options.xdma_wait_device_irq = true;
    assert_golden(
        Testbed::new(cfg).run(),
        &Fingerprint {
            mean: 0x404ae7301a79feca,
            p99: 0x40530604189374bc,
            max: 0x405fcdb22d0e5604,
            hw_mean: 0x4029d81626b2f187,
            sw_mean: 0x40446d11fd5885d8,
            proc_mean: 0x3fa0624dd2f1a8ff,
            sum: 0x40fa45c4f9db22d1,
            notifications: 4000,
            irqs: 6000,
            verify_failures: 0,
        },
    );
}

/// E13 deployment cell: XDMA at 256 B behind the vhost overlay (Fig. 1
/// left), seed 42+5 (`deployment_models`' derivation).
#[test]
fn e13_xdma_vhost_cell_matches_golden() {
    let mut cfg = TestbedConfig::paper(DriverKind::Xdma, 256, 2000, 47);
    cfg.options.vhost_overlay = true;
    assert_golden(
        Testbed::new(cfg).run(),
        &Fingerprint {
            mean: 0x4051c8a1ea359359,
            p99: 0x40585d810624dd2f,
            max: 0x4061b472b020c49c,
            hw_mean: 0x4029d8116ebd4c4c,
            sw_mean: 0x404d1726e547171c,
            proc_mean: 0x3fa0624dd2f1a8ff,
            sum: 0x41015dee1eb851e5,
            notifications: 4000,
            irqs: 6000,
            verify_failures: 0,
        },
    );
}

/// Bit-exact fingerprint of one E24 XDMA storage baseline run at
/// `blk_storage`'s seed for workload `w` (42·1000 + 37·w), 500 requests:
/// throughput, latency sum and wire utilization as raw f64 bits, plus
/// the counters.
fn xdma_storage_cell(w: u64, pattern: virtio_fpga::BlkPattern, io_bytes: u32) -> [u64; 7] {
    let cfg = TestbedConfig::paper(DriverKind::Xdma, io_bytes as usize, 500, 42_000 + 37 * w);
    let r = virtio_fpga::run_xdma_storage(&cfg, pattern, io_bytes);
    assert_eq!(r.verify_failures, 0);
    let latency_sum: f64 = r.latency.raw().iter().sum();
    [
        r.iops.to_bits(),
        latency_sum.to_bits(),
        r.link_util_up.to_bits(),
        r.link_util_down.to_bits(),
        r.doorbells,
        r.irqs,
        r.requests as u64,
    ]
}

/// E24 XDMA storage baseline, 4 KiB random reads (card preloaded with
/// the disk image, every read verified against it).
#[test]
fn xdma_storage_random_read_matches_golden() {
    assert_eq!(
        xdma_storage_cell(0, virtio_fpga::BlkPattern::RandomRead, 4096),
        [
            0x40d570da8e68137d,
            0x40d60d81db22d0ee,
            0x3fbb22dd5dfe2c28,
            0x3f70e81f05bfa821,
            500,
            500,
            500,
        ],
        "XDMA 4K random read drifted"
    );
}

/// E24 XDMA storage baseline, 128 KiB sequential writes (multi-
/// descriptor transfers, one payload draw per request).
#[test]
fn xdma_storage_sequential_write_matches_golden() {
    assert_eq!(
        xdma_storage_cell(3, virtio_fpga::BlkPattern::SequentialWrite, 128 << 10),
        [
            0x407b25fa457e6e0c,
            0x41318f9ef020c498,
            0x3f82da331e3c2f82,
            0x3fb10d7ced7b2095,
            500,
            500,
            500,
        ],
        "XDMA 128K sequential write drifted"
    );
}

/// E9 console cell: the hvc persona at 64 B, seed 42+1·3
/// (`device_types`' derivation). Pins the console branch of the
/// single-queue world: hvc write and poll, no socket stack.
#[test]
fn e9_console_cell_matches_golden() {
    let mut cfg = TestbedConfig::paper(DriverKind::Virtio, 64, 2000, 45);
    cfg.options.device_type = vf_virtio::DeviceType::Console;
    assert_golden(
        Testbed::new(cfg).run(),
        &Fingerprint {
            mean: 0x40352c2eb1c432c3,
            p99: 0x403d54fdf3b645a2,
            max: 0x404c5a3d70a3d70a,
            hw_mean: 0x4029a351deefe54c,
            sw_mean: 0x40208c15c2092466,
            proc_mean: 0x3fb47ae147ae14d9,
            sum: 0x40e4ad2599999992,
            notifications: 2000,
            irqs: 2000,
            verify_failures: 0,
        },
    );
}

/// E10 offload cell on the single-queue world: 512 B with
/// `VIRTIO_NET_F_CSUM`, seed 42+1 (`csum_offload`'s derivation). Pins
/// the offloaded `sendto` and the `DATA_VALID` receive.
#[test]
fn e10_csum_offload_cell_matches_golden() {
    let mut cfg = TestbedConfig::paper(DriverKind::Virtio, 512, 2000, 43);
    cfg.options.csum_offload = true;
    assert_golden(
        Testbed::new(cfg).run(),
        &Fingerprint {
            mean: 0x4043a1b43526527c,
            p99: 0x4047d3f7ced91687,
            max: 0x4053429fbe76c8b4,
            hw_mean: 0x403882d6a9c56026,
            sw_mean: 0x402b47cb70ac3a7d,
            proc_mean: 0x3ff1cac083126f42,
            sum: 0x40f32be9fbe76c8d,
            notifications: 2000,
            irqs: 2000,
            verify_failures: 0,
        },
    );
}

/// E10 offload on the serial MQ world over 4 pairs: 256 B, seed 42.
#[test]
fn mq_csum_offload_serial_world_matches_golden() {
    let mut cfg = TestbedConfig::paper(DriverKind::VirtioMq, 256, 2000, 42);
    cfg.options.mq_queue_pairs = 4;
    cfg.options.csum_offload = true;
    assert_golden(
        Testbed::new(cfg).run(),
        &Fingerprint {
            mean: 0x404076163779e9d7,
            p99: 0x40456b22d0e56042,
            max: 0x405250e560418937,
            hw_mean: 0x4032aaa3f034b05f,
            sw_mean: 0x402b4fddca4b1246,
            proc_mean: 0x3fe3333333333336,
            sum: 0x40f01351b22d0e5c,
            notifications: 2000,
            irqs: 2000,
            verify_failures: 0,
        },
    );
}

/// E16 paced adaptive PMD cell: 256 B at 10 kpps with the 5 µs
/// poll→interrupt fallback, seed 42+2·17 (`pmd_crossover`'s
/// derivation). Pins the round-trip close followed by the pacing gap.
#[test]
fn e16_paced_adaptive_pmd_cell_matches_golden() {
    let mut cfg = TestbedConfig::paper(DriverKind::VirtioPmd, 256, 2000, 76);
    cfg.options.pmd_send_interval = Some(vf_sim::Time::from_us(100));
    cfg.options.pmd_adaptive_idle = Some(virtio_fpga::experiments::PMD_ADAPTIVE_IDLE);
    assert_golden(
        Testbed::new(cfg).run(),
        &Fingerprint {
            mean: 0x4038de17b95a293f,
            p99: 0x4042453f7ced9168,
            max: 0x4060f676c8b43958,
            hw_mean: 0x40323e3b8a19c9b3,
            sw_mean: 0x401927605ab3aaba,
            proc_mean: 0x3fd5810624dd2fd0,
            sum: 0x40e848e32b020c48,
            notifications: 2000,
            irqs: 0,
            verify_failures: 0,
        },
    );
}

/// E24 pipelined storage runner, 4 KiB random writes at QD 8, seed
/// 42·1000+37 (`blk_storage`'s derivation for workload 1). Pins the
/// write refill: one payload draw per request, status-only checks.
#[test]
fn e24_blk_random_write_qd8_matches_golden() {
    use virtio_fpga::{run_blk, BlkPattern};
    let cfg = TestbedConfig::paper(DriverKind::VirtioBlk, 4096, 2000, 42_037);
    let r = run_blk(&cfg, BlkPattern::RandomWrite, 4096, 8);
    let latency_sum: f64 = r.latency.raw().iter().sum();
    assert_eq!(
        [
            r.iops.to_bits(),
            latency_sum.to_bits(),
            r.link_util_up.to_bits(),
            r.link_util_down.to_bits(),
            r.doorbells,
            r.irqs,
            r.verify_failures,
        ],
        [
            0x40c9dad2c407da2e,
            0x4132268298106250,
            0x3f84f325acb66d6b,
            0x3fb07a6cca2042cf,
            250,
            250,
            0,
        ],
        "4K random write at QD 8 drifted"
    );
}
