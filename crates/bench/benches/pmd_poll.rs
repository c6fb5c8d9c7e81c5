//! Criterion bench for **E15/E16** — the `vf-pmd` poll-mode driver.
//!
//! Two groups:
//!
//! * `pmd_roundtrip` — simulation throughput of the PMD world next to
//!   the kernel VirtIO world at the same payloads, plus the E15 summary
//!   rows printed once at scale;
//! * `pmd_ring_batch` — the batched descriptor APIs in isolation
//!   (`publish_batch`/`pop_used_batch` round trip against a device
//!   queue), the per-packet cost the PMD actually pays.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use vf_bench::render_pmd;
use vf_pcie::HostMemory;
use vf_virtio::driver_queue::{BufferSpec, DriverQueue};
use vf_virtio::ring::VirtqueueLayout;
use vf_virtio::DeviceRing;
use virtio_fpga::experiments::{pmd_tails, ExperimentParams};
use virtio_fpga::{DriverKind, Testbed, TestbedConfig, PAPER_PAYLOADS};

const PACKETS_PER_ITER: usize = 200;

fn bench_pmd_roundtrip(c: &mut Criterion) {
    let mut group = c.benchmark_group("pmd_roundtrip");
    for driver in [DriverKind::Virtio, DriverKind::VirtioPmd] {
        for &payload in &[64usize, 256, 1024] {
            group.throughput(Throughput::Elements(PACKETS_PER_ITER as u64));
            group.bench_with_input(
                BenchmarkId::new(driver.name(), payload),
                &payload,
                |b, &payload| {
                    let mut seed = 0u64;
                    b.iter(|| {
                        seed += 1;
                        let cfg = TestbedConfig::paper(driver, payload, PACKETS_PER_ITER, seed);
                        let r = Testbed::new(cfg).run();
                        assert_eq!(r.verify_failures, 0);
                        r
                    });
                },
            );
        }
    }
    group.finish();

    // Print the E15 table once, at a useful scale.
    println!("\nE15 rows (5 000 packets per cell):");
    let rows = pmd_tails(ExperimentParams {
        packets: 5_000,
        ..ExperimentParams::quick(42)
    });
    println!("{}", render_pmd(&rows));
    let _ = PAPER_PAYLOADS; // payload list documented above
}

fn bench_ring_batch(c: &mut Criterion) {
    let mut group = c.benchmark_group("pmd_ring_batch");
    for &batch in &[1usize, 8, 32] {
        group.throughput(Throughput::Elements(batch as u64));
        group.bench_with_input(BenchmarkId::from_parameter(batch), &batch, |b, &batch| {
            let mut mem = HostMemory::testbed_default();
            let ring = mem.alloc(
                VirtqueueLayout::contiguous(0, 256).total_bytes() as usize,
                4096,
            );
            let layout = VirtqueueLayout::contiguous(ring, 256);
            let mut drv = DriverQueue::new(&mut mem, layout, true);
            let mut dev = DeviceRing::split(layout, true, false, 0);
            let bufs: Vec<u64> = (0..batch).map(|_| mem.alloc(2048, 64)).collect();
            b.iter(|| {
                let heads: Vec<u16> = bufs
                    .iter()
                    .map(|&buf| {
                        drv.add_chain(&mut mem, &[BufferSpec::readable(buf, 2048)])
                            .unwrap()
                    })
                    .collect();
                drv.publish_batch(&mut mem, &heads).unwrap();
                dev.prologue(&mem, false);
                while let Some(chain) = dev.next_chain(&mem).unwrap() {
                    dev.complete(&mut mem, &chain, 64);
                    dev.recycle(chain);
                }
                let used = drv.pop_used_batch(&mut mem, usize::MAX);
                assert_eq!(used.len(), batch);
                black_box(used)
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_pmd_roundtrip, bench_ring_batch);
criterion_main!(benches);
