//! Fixed-shape probes: each calls one layer's public API in a tight
//! loop and reports host nanoseconds per unit of work, so a per-layer
//! speed-up shows here even when the workloads dilute it.

use std::hint::black_box;
use std::time::Instant;

use vf_pcie::{HostMemory, LinkConfig, PcieLink};
use vf_sim::{Scheduler, Simulation, Time, World};

/// Repeats per probe; the median is reported.
const REPEATS: usize = 5;

fn median_of(mut run: impl FnMut() -> f64) -> f64 {
    let mut xs: Vec<f64> = (0..REPEATS).map(|_| run()).collect();
    xs.sort_by(f64::total_cmp);
    xs[REPEATS / 2]
}

/// Tokens that reschedule themselves 1–1024 ns ahead, with delays from
/// a fixed xorshift stream.
struct Tokens(u64);

impl World for Tokens {
    type Msg = u32;

    fn deliver(&mut self, _now: Time, token: u32, sched: &mut Scheduler<u32>) {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        sched.after(Time::from_ns(1 + (self.0 & 1023)), token);
    }
}

/// Host ns per event of a `Simulation` holding 64 self-rescheduling
/// tokens.
pub fn sim_ns_per_event() -> f64 {
    const EVENTS: u64 = 1_000_000;
    median_of(|| {
        let mut sim = Simulation::new(Tokens(0x9e37_79b9_7f4a_7c15));
        for token in 0..64 {
            sim.schedule(Time::from_ns(u64::from(token)), token);
        }
        let t = Instant::now();
        sim.run(Time::MAX, EVENTS);
        let ns = t.elapsed().as_nanos() as f64;
        black_box(sim.events_delivered());
        ns / EVENTS as f64
    })
}

/// Host ns per `PcieLink::dma_read`/`dma_write` call of `len` bytes on
/// the paper's Gen2 x2 link, alternating read and write.
pub fn pcie_ns_per_dma(len: usize) -> f64 {
    const PAIRS: usize = 100_000;
    median_of(|| {
        let mut link = PcieLink::new(LinkConfig::gen2_x2());
        let mut now = Time::ZERO;
        let t = Instant::now();
        for i in 0..PAIRS {
            let addr = 0x10_0000 + (i as u64 % 64) * 0x1_0000;
            let read = link.dma_read(now, black_box(addr), len);
            now = link.dma_write(read, black_box(addr), len);
            link.advance_epoch(now);
        }
        let ns = t.elapsed().as_nanos() as f64;
        black_box(now);
        ns / (2 * PAIRS) as f64
    })
}

/// Host ns per KiB written and read back through `HostMemory`, in
/// 64 KiB chunks over a 16 MiB region.
pub fn hostmem_ns_per_kib() -> f64 {
    const CHUNK: usize = 64 << 10;
    const REGION: usize = 16 << 20;
    const ROUNDS: usize = 8;
    median_of(|| {
        let mut mem = HostMemory::new(0x10_0000, REGION);
        let src: Vec<u8> = (0..CHUNK).map(|i| (i % 251) as u8).collect();
        let mut dst = vec![0u8; CHUNK];
        let t = Instant::now();
        for _ in 0..ROUNDS {
            for off in (0..REGION).step_by(CHUNK) {
                let addr = mem.base() + off as u64;
                mem.write(addr, black_box(&src));
                mem.read(addr, black_box(&mut dst));
            }
        }
        let ns = t.elapsed().as_nanos() as f64;
        black_box(&dst);
        ns / (2 * ROUNDS * REGION / 1024) as f64
    })
}
