//! Concurrency tests: parallel experiment sweeps must be deterministic
//! and equivalent to serial execution — each simulation is an isolated
//! world, so thread count can never change a result.

use vf_sim::parallel_map;
use virtio_fpga::{DriverKind, Testbed, TestbedConfig};

fn mean(driver: DriverKind, payload: usize, seed: u64) -> f64 {
    let mut r = Testbed::new(TestbedConfig::paper(driver, payload, 300, seed)).run();
    r.total_summary().mean_us
}

#[test]
fn parallel_sweep_equals_serial() {
    let configs: Vec<(DriverKind, usize, u64)> = [DriverKind::Virtio, DriverKind::Xdma]
        .iter()
        .flat_map(|&d| [64usize, 256, 1024].iter().map(move |&p| (d, p, 17)))
        .collect();
    let serial: Vec<f64> = configs.iter().map(|&(d, p, s)| mean(d, p, s)).collect();
    let parallel: Vec<f64> = parallel_map(configs.clone(), 8, |&(d, p, s)| mean(d, p, s));
    assert_eq!(serial, parallel, "thread count changed results");
    // And again with a different worker count.
    let parallel3: Vec<f64> = parallel_map(configs, 3, |&(d, p, s)| mean(d, p, s));
    assert_eq!(serial, parallel3);
}

#[test]
fn scoped_runs_are_independent() {
    // Run the same config on many threads simultaneously; all must agree
    // (no hidden global state in any layer).
    let results = std::thread::scope(|s| {
        let handles: Vec<_> = (0..8)
            .map(|_| s.spawn(|| mean(DriverKind::Virtio, 128, 99)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect::<Vec<f64>>()
    });
    assert!(results.windows(2).all(|w| w[0] == w[1]), "{results:?}");
}

#[test]
fn interleaved_drivers_do_not_interfere() {
    // Alternate VirtIO and XDMA runs across threads; compare against
    // fresh single-threaded references afterwards.
    let expected_v = mean(DriverKind::Virtio, 256, 5);
    let expected_x = mean(DriverKind::Xdma, 256, 5);
    let inputs: Vec<DriverKind> = (0..12)
        .map(|i| {
            if i % 2 == 0 {
                DriverKind::Virtio
            } else {
                DriverKind::Xdma
            }
        })
        .collect();
    let outputs = parallel_map(inputs.clone(), 6, |&d| mean(d, 256, 5));
    for (d, got) in inputs.iter().zip(outputs) {
        let want = if *d == DriverKind::Virtio {
            expected_v
        } else {
            expected_x
        };
        assert_eq!(got, want);
    }
}
