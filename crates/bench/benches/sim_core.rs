//! Criterion bench for the **discrete-event engine hot path** — the
//! timing-wheel scheduler that every world inherits, measured against the
//! preserved binary-heap baseline (`vf_sim::baseline::HeapSimulation`).
//!
//! Three views:
//!
//! * `churn/*` — a pure scheduler workload: N self-rescheduling event
//!   chains with E19/E21-shaped delays (ns–µs legs, same-instant bursts,
//!   past-clamped absolute times, occasional ms timers), run under both
//!   engines. N=32 matches an E19 4-pair run's outstanding-event
//!   population, N=512 an E21 64-tenant run, N=8192 a 256-queue sweep.
//! * `e19_mq4` / `e21_tenants8` — the real E19 and E21 inner loops
//!   (4 queue pairs / 8 vhost tenants) on the production engine, so model
//!   *and* scheduler regressions show up in one number.
//! * `speedup/*` — a matched wheel-vs-heap pair per scale, printed as a
//!   ratio and **asserted** so a scheduler regression fails the bench
//!   loudly rather than drifting quietly. The flagship `mrtt` scale is
//!   the million-RTT sweep shape: 8192 hot chains churning under 2^20
//!   parked RTT-timeout guards. The heap sifts every operation through
//!   the parked population (O(log n) over ~1M entries); the wheel files
//!   the guards once at a high level and never touches them again, which
//!   is where the ≥5× wall-clock win comes from (measured ratios are in
//!   EXPERIMENTS.md; the assert floor is set lower so CI never flakes).

use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use vf_sim::baseline::HeapSimulation;
use vf_sim::{Scheduler, Simulation, Time, World};
use virtio_fpga::{run_mq, run_tenants, DriverKind, TestbedConfig};

/// Self-rescheduling churn world. Even messages are persistent chains
/// that reschedule themselves with a xorshift-derived delay; odd messages
/// are one-shot companions (same-instant bursts, past-clamped absolutes,
/// long timers) so the pending population stays near the chain count.
struct Churn;

impl World for Churn {
    type Msg = u64;

    fn deliver(&mut self, now: Time, state: u64, sched: &mut Scheduler<u64>) {
        if state & 1 == 1 {
            return; // one-shot companion
        }
        let mut x = state | 1;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let x = x & !1;
        // 1 ns .. ~3 µs: the spread of doorbell/DMA/IRQ legs in the
        // E19/E21 worlds.
        let delay = Time::from_ps(1_000 + (x >> 8) % 3_000_000);
        sched.after(delay, x);
        match x % 97 {
            0 => sched.now_msg(x | 1),
            1 => sched.at(now.saturating_sub(Time::from_ns(5)), x | 1),
            2 => sched.after(Time::from_ms(1), x | 1),
            _ => {}
        }
    }
}

fn seed_state(i: u64) -> u64 {
    (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 0x100) & !1
}

/// Seed `chains` hot event chains plus `parked` far-future one-shot
/// timers (RTT-timeout guards at +100 ms..+1 s that never fire inside the
/// measured window — the shape a million-RTT sweep leaves pending).
fn seed<S: FnMut(Time, u64)>(mut schedule: S, chains: u64, parked: u64) {
    for i in 0..chains {
        schedule(Time::from_ns(i), seed_state(i));
    }
    for j in 0..parked {
        schedule(Time::from_ms(100 + j % 900), 1);
    }
}

fn wheel_sim(chains: u64, parked: u64) -> Simulation<Churn> {
    let mut sim = Simulation::new(Churn);
    seed(|d, m| sim.schedule(d, m), chains, parked);
    sim
}

fn heap_sim(chains: u64, parked: u64) -> HeapSimulation<Churn> {
    let mut sim = HeapSimulation::new(Churn);
    seed(|d, m| sim.schedule(d, m), chains, parked);
    sim
}

const CHURN_EVENTS: u64 = 100_000;

/// (label, hot chains, parked timers, asserted speedup floor).
const SCALES: [(&str, u64, u64, f64); 3] = [
    ("e19_pend32", 32, 0, 1.2),
    ("e21_pend512", 512, 0, 1.2),
    ("mrtt_pend8192_parked1m", 8192, 1 << 20, 3.0),
];

fn bench_churn(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim_core_churn");
    group.throughput(Throughput::Elements(CHURN_EVENTS));
    for (label, chains, parked, _) in SCALES {
        if parked > 0 {
            // Seeding 2^20 parked timers per iteration would swamp the
            // per-event signal; the mrtt scale is covered by the matched
            // speedup measurement below instead.
            continue;
        }
        group.bench_function(format!("{label}_wheel"), |b| {
            b.iter(|| {
                let mut sim = wheel_sim(chains, parked);
                sim.run(Time::MAX, CHURN_EVENTS);
                sim.events_delivered()
            })
        });
        group.bench_function(format!("{label}_heap"), |b| {
            b.iter(|| {
                let mut sim = heap_sim(chains, parked);
                sim.run(Time::MAX, CHURN_EVENTS);
                sim.events_delivered()
            })
        });
    }
    group.finish();
}

const PACKETS: usize = 200;

fn bench_world_inner_loops(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim_core_worlds");
    group.throughput(Throughput::Elements(PACKETS as u64));
    group.bench_function("e19_mq4", |b| {
        let mut seed = 700u64;
        b.iter(|| {
            seed += 1;
            let mut cfg = TestbedConfig::paper(DriverKind::VirtioMq, 256, PACKETS, seed);
            cfg.options.mq_queue_pairs = 4;
            let r = run_mq(&cfg, 16);
            assert_eq!(r.verify_failures, 0);
            r.pps
        });
    });
    group.bench_function("e21_tenants8", |b| {
        let mut seed = 900u64;
        b.iter(|| {
            seed += 1;
            let mut cfg = TestbedConfig::paper(DriverKind::VirtioTenant, 256, PACKETS, seed);
            cfg.options.mq_queue_pairs = 8;
            cfg.options.tenant_vhost = true;
            let r = run_tenants(&cfg, 16);
            assert_eq!(r.verify_failures, 0);
            r.pps
        });
    });
    group.finish();
}

/// One matched measurement per scale: seed both engines identically
/// (outside the timed region), take the best-of-3 wall clock for the same
/// delivered-event count, and print the ratio. A broken wheel shows up as
/// a ratio collapse; the floors are set well below the measured ratios
/// (see EXPERIMENTS.md) so the check is loud but CI-safe.
fn bench_speedup_floor(_c: &mut Criterion) {
    for (label, chains, parked, floor) in SCALES {
        let mut wheel = f64::MAX;
        for _ in 0..3 {
            let mut sim = wheel_sim(chains, parked);
            let t = Instant::now();
            sim.run(Time::MAX, CHURN_EVENTS);
            wheel = wheel.min(t.elapsed().as_secs_f64());
            assert_eq!(sim.events_delivered(), CHURN_EVENTS);
        }
        let mut heap = f64::MAX;
        for _ in 0..3 {
            let mut sim = heap_sim(chains, parked);
            let t = Instant::now();
            sim.run(Time::MAX, CHURN_EVENTS);
            heap = heap.min(t.elapsed().as_secs_f64());
            assert_eq!(sim.events_delivered(), CHURN_EVENTS);
        }
        let ratio = heap / wheel;
        let per_ev = |s: f64| s * 1e9 / CHURN_EVENTS as f64;
        println!(
            "sim_core_speedup/{label:<40} wheel {:>6.1} ns/ev, heap {:>6.1} ns/ev -> {ratio:.1}x",
            per_ev(wheel),
            per_ev(heap),
        );
        assert!(
            ratio >= floor,
            "scheduler regression: wheel only {ratio:.2}x faster than heap at {label} \
             (floor {floor}x)"
        );
    }
}

criterion_group!(
    benches,
    bench_churn,
    bench_world_inner_loops,
    bench_speedup_floor
);
criterion_main!(benches);
