//! Unit checks of the E12 pipelined workload: the [`crate::mq`]
//! windowed world at one queue pair, as
//! `experiments::pipelined_throughput` runs it.

#[cfg(test)]
mod tests {
    use crate::mq::{run_mq, MqThroughputResult};
    use crate::testbed::{DriverKind, TestbedConfig};

    fn run(packets: usize, depth: usize) -> MqThroughputResult {
        let cfg = TestbedConfig::paper(DriverKind::VirtioMq, 256, packets, 31);
        assert_eq!(cfg.options.mq_queue_pairs, 1);
        run_mq(&cfg, depth)
    }

    #[test]
    fn depth_one_matches_serial_behaviour() {
        let r = run(500, 1);
        assert_eq!(r.verify_failures, 0);
        assert_eq!(r.packets, 500);
        // Depth 1 is request-response: one doorbell and irq per packet.
        assert_eq!(r.doorbells, 500);
        assert_eq!(r.irqs, 500);
    }

    #[test]
    fn deeper_windows_increase_throughput() {
        let p1 = run(1_000, 1);
        let p8 = run(1_000, 8);
        let p32 = run(1_000, 32);
        assert_eq!(p8.verify_failures, 0);
        assert!(
            p8.pps > 1.5 * p1.pps,
            "depth 8: {} vs depth 1: {} pps",
            p8.pps,
            p1.pps
        );
        assert!(p32.pps >= p8.pps * 0.9, "no collapse at depth 32");
    }

    #[test]
    fn pipelining_coalesces_events() {
        let p16 = run(2_000, 16);
        assert!(
            p16.irqs_per_packet() < 0.8,
            "irqs/packet = {}",
            p16.irqs_per_packet()
        );
        assert!(
            p16.doorbells_per_packet() < 0.8,
            "doorbells/packet = {}",
            p16.doorbells_per_packet()
        );
    }

    #[test]
    fn pipelined_latency_exceeds_serial() {
        // Queueing delay: deeper windows trade latency for throughput.
        let mut p1 = run(800, 1);
        let mut p16 = run(800, 16);
        assert!(p16.mean_latency_us() > p1.mean_latency_us());
    }
}
