//! Criterion bench for **Fig. 5** — the XDMA (vendor) driver's latency
//! breakdown. Mirrors the Fig. 4 bench for the other contender; the
//! printed block shows software dominating hardware, the inverse of the
//! VirtIO allocation (§V).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use vf_bench::render_fig45;
use virtio_fpga::experiments::{fig5, run_matrix, ExperimentParams};
use virtio_fpga::{DriverKind, Testbed, TestbedConfig, PAPER_PAYLOADS};

const PACKETS_PER_ITER: usize = 200;

fn bench_fig5(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig5_xdma_breakdown");
    for &payload in &PAPER_PAYLOADS {
        group.throughput(Throughput::Elements(PACKETS_PER_ITER as u64));
        group.bench_with_input(BenchmarkId::from_parameter(payload), &payload, |b, &p| {
            let mut seed = 200u64;
            b.iter(|| {
                seed += 1;
                let cfg = TestbedConfig::paper(DriverKind::Xdma, p, PACKETS_PER_ITER, seed);
                let mut r = Testbed::new(cfg).run();
                (r.sw_summary(), r.hw_summary())
            });
        });
    }
    group.finish();

    let mut m = run_matrix(ExperimentParams {
        packets: 10_000,
        ..ExperimentParams::quick(42)
    });
    println!(
        "\nFig. 5 — {}",
        render_fig45(DriverKind::Xdma, &fig5(&mut m))
    );
}

criterion_group!(benches, bench_fig5);
criterion_main!(benches);
