//! Criterion bench for **Table I** — tail latencies (95/99/99.9%) for
//! data movement with both drivers.
//!
//! Benchmarks: (a) the per-cell simulation cost, and (b) the
//! exact-percentile extraction over paper-sized sample sets (50 000
//! samples), which is the analysis step behind the table. The printed
//! block is the table itself.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use vf_bench::render_tails;
use vf_sim::SampleSet;
use virtio_fpga::experiments::{run_matrix, table1, ExperimentParams};
use virtio_fpga::{DriverKind, Testbed, TestbedConfig};

fn bench_table1(c: &mut Criterion) {
    // (a) simulation cost of the cells at two extreme payloads.
    let mut group = c.benchmark_group("table1_cells");
    for driver in [DriverKind::Virtio, DriverKind::Xdma] {
        for payload in [64usize, 1024] {
            group.bench_with_input(
                BenchmarkId::new(driver.name(), payload),
                &payload,
                |b, &p| {
                    let mut seed = 300u64;
                    b.iter(|| {
                        seed += 1;
                        Testbed::new(TestbedConfig::paper(driver, p, 200, seed)).run()
                    });
                },
            );
        }
    }
    group.finish();

    // (b) exact-percentile extraction at the paper's sample count.
    let mut group = c.benchmark_group("table1_percentiles");
    group.bench_function("exact_p95_p99_p999_50k", |b| {
        let base: Vec<f64> = (0..50_000)
            .map(|i| 30.0 + (i % 997) as f64 * 0.05)
            .collect();
        b.iter(|| {
            let mut s = SampleSet::from_us(base.clone());
            (s.percentile(95.0), s.percentile(99.0), s.percentile(99.9))
        });
    });
    group.finish();

    let mut m = run_matrix(ExperimentParams {
        packets: 10_000,
        ..ExperimentParams::quick(42)
    });
    println!(
        "\nTable I — Tail latencies for data movement with VirtIO and XDMA\n{}",
        render_tails(&table1(&mut m))
    );
}

criterion_group!(benches, bench_table1);
criterion_main!(benches);
