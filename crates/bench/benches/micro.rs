//! Microbenchmarks of the testbed's substrates: the protocol and model
//! layers the paper-level numbers are built from. These catch
//! performance regressions in the hot paths of the simulation itself
//! (virtqueue operations, link timing arithmetic, packet framing, the
//! DMA engine walk, the discrete-event core).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use vf_hostsw::{build_udp_frame, parse_udp_frame, Ipv4Addr, MacAddr, UdpFlow};
use vf_pcie::{HostMemory, LinkConfig, PcieLink};
use vf_sim::{Scheduler, Simulation, Time, World};
use vf_virtio::driver_queue::{BufferSpec, DriverQueue};
use vf_virtio::ring::VirtqueueLayout;
use vf_virtio::{DeviceRing, VecMemory};
use vf_xdma::{single_descriptor, ChannelDir, VecCardMemory, XdmaEngine};

fn bench_virtqueue(c: &mut Criterion) {
    let mut group = c.benchmark_group("virtqueue");
    group.throughput(Throughput::Elements(1));
    group.bench_function("add_publish_pop_complete", |b| {
        let mut mem = VecMemory::new(1 << 20);
        let layout = VirtqueueLayout::contiguous(0x1000, 256);
        let mut drv = DriverQueue::new(&mut mem, layout, true);
        let mut dev = DeviceRing::split(layout, true, false, 0);
        b.iter(|| {
            let head = drv
                .add_and_publish(&mut mem, &[BufferSpec::readable(0x10_000, 64)])
                .unwrap();
            dev.prologue(&mem, false);
            let chain = dev.next_chain(&mem).unwrap().unwrap();
            dev.complete(&mut mem, &chain, 0);
            dev.recycle(chain);
            let used = drv.pop_used(&mut mem).unwrap();
            assert_eq!(used.id, head as u32);
        });
    });
    group.finish();
}

fn bench_link(c: &mut Criterion) {
    let mut group = c.benchmark_group("pcie_link");
    group.bench_function("dma_read_1k", |b| {
        let mut link = PcieLink::new(LinkConfig::gen2_x2());
        let mut now = Time::ZERO;
        b.iter(|| {
            now = link.dma_read(now, 0x1000, 1024);
            now
        });
    });
    group.bench_function("dma_write_1k", |b| {
        let mut link = PcieLink::new(LinkConfig::gen2_x2());
        let mut now = Time::ZERO;
        b.iter(|| {
            now = link.dma_write(now, 0x1000, 1024);
            now
        });
    });
    group.finish();
}

fn bench_packet(c: &mut Criterion) {
    let flow = UdpFlow {
        src_mac: MacAddr([2, 0, 0, 0, 0, 1]),
        dst_mac: MacAddr([2, 0, 0, 0, 0, 2]),
        src_ip: Ipv4Addr::new(10, 0, 0, 1),
        dst_ip: Ipv4Addr::new(10, 0, 0, 2),
        src_port: 40000,
        dst_port: 7,
    };
    let payload = vec![0xA5u8; 1024];
    let mut group = c.benchmark_group("packet");
    group.throughput(Throughput::Bytes(1024));
    group.bench_function("build_udp_1k", |b| {
        b.iter(|| build_udp_frame(&flow, 7, &payload, true));
    });
    let frame = build_udp_frame(&flow, 7, &payload, true);
    group.bench_function("parse_udp_1k", |b| {
        b.iter(|| parse_udp_frame(&frame).unwrap());
    });
    group.finish();
}

fn bench_xdma_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("xdma_engine");
    group.bench_function("h2c_run_1k", |b| {
        let mut link = PcieLink::new(LinkConfig::gen2_x2());
        let mut host = HostMemory::new(0, 1 << 20);
        let mut card = VecCardMemory::new(1 << 16);
        HostMemory::write(&mut host, 0x1_0000, &vec![7u8; 1024]);
        single_descriptor(0x1_0000, 0, 1024).write_to(&mut host, 0x2000);
        let mut eng = XdmaEngine::new(ChannelDir::H2C);
        let mut now = Time::ZERO;
        b.iter(|| {
            let out = eng
                .run(now, 0x2000, &mut link, &mut host, &mut card)
                .unwrap();
            now = out.completed_at;
            out.bytes
        });
    });
    group.finish();
}

fn bench_des(c: &mut Criterion) {
    /// Ping-pong world: two logical parties exchanging a counter.
    struct PingPong {
        left: u64,
    }
    impl World for PingPong {
        type Msg = u32;
        fn deliver(&mut self, _now: Time, msg: u32, sched: &mut Scheduler<u32>) {
            if self.left > 0 {
                self.left -= 1;
                sched.after(Time::from_ns(100), msg.wrapping_add(1));
            }
        }
    }
    let mut group = c.benchmark_group("des_engine");
    group.throughput(Throughput::Elements(10_000));
    group.bench_function("events_10k", |b| {
        b.iter(|| {
            let mut sim = Simulation::new(PingPong { left: 10_000 });
            sim.schedule(Time::ZERO, 0);
            sim.run_to_idle();
            sim.events_delivered()
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_virtqueue,
    bench_link,
    bench_packet,
    bench_xdma_engine,
    bench_des
);
criterion_main!(benches);
