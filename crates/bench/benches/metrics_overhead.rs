//! Criterion bench for the **metrics hot path** — the cost every
//! instrumented call site pays when no session is installed, which is
//! the cost every ordinary (unmetered) run pays for carrying the
//! observability hooks at all.
//!
//! Three views:
//!
//! * `disabled/*` — the string-keyed `counter_add`/`gauge_set`/
//!   `hist_record`, the typed handles' `Counter::add`/`Gauge::set`/
//!   `Histogram::record`, and the engine's per-event `sample_pending`
//!   with no session installed. Each must cost essentially one
//!   thread-local load and branch; the floor check below asserts it
//!   against exactly that baseline.
//! * `enabled/*` — updates against a live session, for scale: the
//!   string forms pay a lookup by the name's contents on every call;
//!   a handle resolves once per session and then pays a session-id
//!   compare, an i64 update, and a dirty mark for the next sample.
//! * `world/*` — a serial VirtIO 256 B echo world (the paper's cell),
//!   an E19 MQ world and an E24 128K sequential-read storage world,
//!   each run unmetered vs metered: the end-to-end overhead a
//!   `repro -- metrics` user actually pays.
//!
//! Two assertions:
//!
//! * Every disabled update path, string-keyed or through a handle, may
//!   cost at most `DISABLED_OVERHEAD_CEILING` times the bare
//!   `is_enabled()` thread-local load (floor measured the same way,
//!   same best-of-K wall clock). A regression that adds work ahead of
//!   the enabled check — formatting, hashing, a second TLS access —
//!   blows well past that ratio and fails loudly. The ceiling is set
//!   generously above the measured ~1.0–1.5× so CI never flakes.
//! * A metered storage run may cost at most `BLK_METERED_CEILING` times
//!   an unmetered one (best of K each). A 128K request is about 800
//!   TLPs, so publishing link metrics per TLP instead of per link call
//!   fails it.

use std::time::Instant;

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use vf_metrics::{Counter, Gauge, Histogram};
use virtio_fpga::{
    metered, run_blk, run_mq, BlkPattern, BlkRunResult, DriverKind, Testbed, TestbedConfig,
};

const OPS: u64 = 1_000_000;

/// Best-of-5 wall-clock seconds for `OPS` iterations of `f`.
fn best_of<F: FnMut()>(mut f: F) -> f64 {
    let mut best = f64::MAX;
    for _ in 0..5 {
        let t = Instant::now();
        for _ in 0..OPS {
            f();
        }
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

fn bench_disabled(c: &mut Criterion) {
    assert!(!vf_metrics::is_enabled());
    let mut group = c.benchmark_group("metrics_disabled");
    group.throughput(Throughput::Elements(OPS));
    group.bench_function("counter_add", |b| {
        b.iter(|| {
            for i in 0..OPS {
                vf_metrics::counter_add("bench.disabled.ctr", 0, black_box(i));
            }
        })
    });
    group.bench_function("gauge_set", |b| {
        b.iter(|| {
            for i in 0..OPS {
                vf_metrics::gauge_set("bench.disabled.g", 0, black_box(i as i64));
            }
        })
    });
    group.bench_function("hist_record", |b| {
        b.iter(|| {
            for i in 0..OPS {
                vf_metrics::hist_record("bench.disabled.h", 0, black_box(i));
            }
        })
    });
    group.bench_function("sample_pending", |b| {
        b.iter(|| {
            let mut hits = 0u64;
            for i in 0..OPS {
                hits += vf_metrics::sample_pending(black_box(i)) as u64;
            }
            hits
        })
    });
    group.finish();
}

fn bench_enabled(c: &mut Criterion) {
    let mut group = c.benchmark_group("metrics_enabled");
    group.throughput(Throughput::Elements(OPS));
    group.bench_function("counter_add", |b| {
        b.iter(|| {
            let ((), report) = metered(vf_metrics::MetricsConfig::default(), || {
                for i in 0..OPS {
                    vf_metrics::counter_add("bench.enabled.ctr", 0, black_box(i & 1));
                }
            });
            report.counter_total("bench.enabled.ctr")
        })
    });
    group.bench_function("hist_record", |b| {
        b.iter(|| {
            let ((), report) = metered(vf_metrics::MetricsConfig::default(), || {
                for i in 0..OPS {
                    vf_metrics::hist_record("bench.enabled.h", 0, black_box(i));
                }
            });
            report.instruments.len()
        })
    });
    group.bench_function("handle_counter_add", |b| {
        let counter = Counter::new("bench.enabled.handle", 0);
        b.iter(|| {
            let ((), report) = metered(vf_metrics::MetricsConfig::default(), || {
                for i in 0..OPS {
                    counter.add(black_box(i & 1));
                }
            });
            report.counter_total("bench.enabled.handle")
        })
    });
    group.finish();
}

const PACKETS: usize = 200;

/// Requests per storage world run.
const BLK_REQUESTS: usize = 200;
/// Request size of the storage world: E24's sequential-read size.
const BLK_IO: u32 = 128 << 10;
/// Requests the storage world keeps outstanding.
const BLK_DEPTH: usize = 4;

/// One E24 128K sequential-read run.
fn blk_seq_read(seed: u64) -> BlkRunResult {
    let cfg = TestbedConfig::paper(DriverKind::VirtioBlk, BLK_IO as usize, BLK_REQUESTS, seed);
    let r = run_blk(&cfg, BlkPattern::SequentialRead, BLK_IO, BLK_DEPTH);
    assert_eq!(r.verify_failures, 0);
    r
}

/// The same run under a default metrics session.
fn blk_seq_read_metered(seed: u64) -> BlkRunResult {
    let (r, report) = metered(vf_metrics::MetricsConfig::default(), || blk_seq_read(seed));
    assert!(report.violations.is_empty());
    r
}

/// One serial VirtIO 256 B echo run: the paper's Fig. 4 cell.
fn virtio_echo(seed: u64) -> f64 {
    let r = Testbed::new(TestbedConfig::paper(DriverKind::Virtio, 256, PACKETS, seed)).run();
    r.total.mean()
}

fn bench_world_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("metrics_world");
    group.throughput(Throughput::Elements(PACKETS as u64));
    group.bench_function("virtio256_echo_unmetered", |b| {
        let mut seed = 400u64;
        b.iter(|| {
            seed += 1;
            virtio_echo(seed)
        });
    });
    group.bench_function("virtio256_echo_metered", |b| {
        let mut seed = 400u64;
        b.iter(|| {
            seed += 1;
            let (mean, report) =
                metered(vf_metrics::MetricsConfig::default(), || virtio_echo(seed));
            assert!(report.violations.is_empty());
            mean
        });
    });
    group.bench_function("e19_mq4_unmetered", |b| {
        let mut seed = 1_700u64;
        b.iter(|| {
            seed += 1;
            let mut cfg = TestbedConfig::paper(DriverKind::VirtioMq, 256, PACKETS, seed);
            cfg.options.mq_queue_pairs = 4;
            let r = run_mq(&cfg, 16);
            assert_eq!(r.verify_failures, 0);
            r.pps
        });
    });
    group.bench_function("e19_mq4_metered", |b| {
        let mut seed = 1_700u64;
        b.iter(|| {
            seed += 1;
            let mut cfg = TestbedConfig::paper(DriverKind::VirtioMq, 256, PACKETS, seed);
            cfg.options.mq_queue_pairs = 4;
            let (r, report) = metered(vf_metrics::MetricsConfig::default(), || run_mq(&cfg, 16));
            assert_eq!(r.verify_failures, 0);
            assert!(report.violations.is_empty());
            r.pps
        });
    });
    group.throughput(Throughput::Elements(BLK_REQUESTS as u64));
    group.bench_function("e24_seq128k_unmetered", |b| {
        let mut seed = 2_400u64;
        b.iter(|| {
            seed += 1;
            blk_seq_read(seed).iops
        });
    });
    group.bench_function("e24_seq128k_metered", |b| {
        let mut seed = 2_400u64;
        b.iter(|| {
            seed += 1;
            blk_seq_read_metered(seed).iops
        });
    });
    group.finish();
}

/// Ceiling on `disabled update time / bare thread-local load time`.
/// A correct implementation is the same load plus an early return, so
/// the true ratio sits near 1; anything above the ceiling means work
/// crept in ahead of the enabled check.
const DISABLED_OVERHEAD_CEILING: f64 = 4.0;

fn bench_disabled_floor(_c: &mut Criterion) {
    assert!(!vf_metrics::is_enabled());
    let baseline = best_of(|| {
        black_box(vf_metrics::is_enabled());
    });
    let counter = Counter::new("bench.floor.handle_ctr", 0);
    let gauge = Gauge::new("bench.floor.handle_g", 0);
    let hist = Histogram::new("bench.floor.handle_h", 0);
    let cases: [(&str, f64); 7] = [
        (
            "counter_add",
            best_of(|| vf_metrics::counter_add("bench.floor.ctr", 0, black_box(1))),
        ),
        (
            "gauge_set",
            best_of(|| vf_metrics::gauge_set("bench.floor.g", 0, black_box(1))),
        ),
        (
            "hist_record",
            best_of(|| vf_metrics::hist_record("bench.floor.h", 0, black_box(1))),
        ),
        (
            "Counter::add",
            best_of(|| black_box(&counter).add(black_box(1))),
        ),
        (
            "Gauge::set",
            best_of(|| black_box(&gauge).set(black_box(1))),
        ),
        (
            "Histogram::record",
            best_of(|| black_box(&hist).record(black_box(1))),
        ),
        (
            "sample_pending",
            best_of(|| {
                black_box(vf_metrics::sample_pending(black_box(1)));
            }),
        ),
    ];
    let per_op = |s: f64| s * 1e9 / OPS as f64;
    for (label, secs) in cases {
        let ratio = secs / baseline;
        println!(
            "metrics_overhead/{label:<18} disabled {:>6.2} ns/op vs bare TLS load {:>6.2} ns/op -> {ratio:.2}x",
            per_op(secs),
            per_op(baseline),
        );
        assert!(
            ratio <= DISABLED_OVERHEAD_CEILING,
            "disabled {label} costs {ratio:.2}x a bare thread-local load \
             (ceiling {DISABLED_OVERHEAD_CEILING}x): work crept ahead of the enabled check"
        );
    }
}

/// Ceiling on `metered / unmetered` wall clock for the storage world.
/// On a 2-vCPU x86-64 VM, five runs of this check measured 0.89–1.16×
/// (median 1.11×) with link metrics published once per call, and
/// 1.89–2.60× (median 2.19×) when they were published per TLP. The
/// ceiling sits over 30% above the first range and below the second.
const BLK_METERED_CEILING: f64 = 1.6;

/// Wall-clock seconds of one call of `f`.
fn timed<R>(f: impl FnOnce() -> R) -> f64 {
    let t = Instant::now();
    black_box(f());
    t.elapsed().as_secs_f64()
}

fn bench_metered_ceiling(_c: &mut Criterion) {
    // Warm-up: the first run builds the shared disk image.
    blk_seq_read(2_400);
    // Best of K each, alternating, so host drift hits both sides alike.
    let (mut plain, mut metered) = (f64::MAX, f64::MAX);
    for _ in 0..9 {
        plain = plain.min(timed(|| blk_seq_read(2_400)));
        metered = metered.min(timed(|| blk_seq_read_metered(2_400)));
    }
    let ratio = metered / plain;
    println!(
        "metrics_overhead/e24_seq128k      unmetered {:>7.2} ms metered {:>7.2} ms -> {ratio:.2}x",
        plain * 1e3,
        metered * 1e3,
    );
    assert!(
        ratio <= BLK_METERED_CEILING,
        "a metered 128K storage run costs {ratio:.2}x an unmetered one \
         (ceiling {BLK_METERED_CEILING}x): metering went back to paying per TLP or per sample"
    );
}

criterion_group!(
    benches,
    bench_disabled,
    bench_enabled,
    bench_world_overhead,
    bench_disabled_floor,
    bench_metered_ceiling
);
criterion_main!(benches);
