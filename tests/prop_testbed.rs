//! Property test over the whole testbed: any sane configuration must
//! complete with verified data, conserved packets, and physically
//! plausible latencies. This is the repository's end-to-end fuzzer —
//! ring sizes, payloads, feature combinations, memory backings, and both
//! drivers, in random combination.

use proptest::prelude::*;
use vf_tenant::{ArbiterPolicy, TenantConfig};
use virtio_fpga::testbed::CardKind;
use virtio_fpga::{run_tenants, DriverKind, Testbed, TestbedConfig};

proptest! {
    // Each case is a full simulation; keep the count moderate.
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn any_configuration_round_trips(
        driver_is_virtio in any::<bool>(),
        payload in 1usize..1400,
        queue_pow in 2u32..9, // 4..256
        event_idx in any::<bool>(),
        csum in any::<bool>(),
        ddr in any::<bool>(),
        wait_irq in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let driver = if driver_is_virtio {
            DriverKind::Virtio
        } else {
            DriverKind::Xdma
        };
        let packets = 60;
        let mut cfg = TestbedConfig::paper(driver, payload, packets, seed);
        cfg.options.queue_size = 1u16 << queue_pow;
        cfg.options.event_idx = event_idx;
        cfg.options.csum_offload = csum;
        cfg.options.card_memory = if ddr { CardKind::Ddr } else { CardKind::Bram };
        cfg.options.xdma_wait_device_irq = wait_irq;
        let mut r = Testbed::new(cfg).run();

        // Functional invariants.
        prop_assert_eq!(r.verify_failures, 0);
        prop_assert_eq!(r.total.len(), packets);

        // Physical plausibility: round trips land in tens of µs to a few
        // hundred µs, never sub-µs or multi-ms.
        let s = r.total_summary();
        prop_assert!(s.min_us > 5.0, "implausibly fast: {} µs", s.min_us);
        prop_assert!(s.max_us < 2_000.0, "implausibly slow: {} µs", s.max_us);

        // Accounting: components never exceed the total.
        let hw = r.hw_summary();
        prop_assert!(hw.mean_us < s.mean_us);
        prop_assert!(hw.max_us <= s.max_us);

        // Event accounting: a request-response run produces at least one
        // device interrupt per packet and no more than three (H2C + C2H +
        // optional data-ready).
        prop_assert!(r.irqs >= packets as u64);
        prop_assert!(r.irqs <= 3 * packets as u64);
    }

    /// E21: under any arbiter policy and vhost setting, a
    /// paused tenant must stay completely silent — no completions, no
    /// latency samples, zero service rate — while its active co-tenants
    /// drain the entire offered load between them.
    #[test]
    fn paused_tenants_stay_silent_and_active_drain_all(
        tenants_pow in 1u32..4, // 2..8 tenants
        paused_mask in 1u8..255,
        payload in 64usize..1024,
        vhost in any::<bool>(),
        policy_idx in 0usize..3,
        seed in any::<u64>(),
    ) {
        let tenants = 1u16 << tenants_pow;
        let packets = 120;
        let mut cfg = TestbedConfig::paper(DriverKind::VirtioTenant, payload, packets, seed);
        cfg.options.mq_queue_pairs = tenants;
        cfg.options.tenant_vhost = vhost;
        cfg.options.tenant_policy = ArbiterPolicy::all()[policy_idx];
        let mut tenant_cfgs = vec![TenantConfig::default(); tenants as usize];
        // Pause the masked subset; tenant 0 always stays active so the
        // run can make progress.
        for (t, tc) in tenant_cfgs.iter_mut().enumerate().skip(1) {
            tc.paused = paused_mask & (1 << (t % 8)) != 0;
        }
        cfg.options.tenant_configs = tenant_cfgs.clone();
        let mut r = run_tenants(&cfg, 8);

        prop_assert_eq!(r.verify_failures, 0);
        let mut drained = 0;
        for (t, tc) in tenant_cfgs.iter().enumerate() {
            let samples = r.per_tenant_latency[t].raw().len();
            if tc.paused {
                prop_assert_eq!(samples, 0, "paused tenant {} completed packets", t);
                prop_assert_eq!(r.per_tenant_pps[t], 0.0);
            } else {
                prop_assert!(samples > 0, "active tenant {} starved outright", t);
                prop_assert!(r.per_tenant_pps[t] > 0.0);
            }
            drained += samples;
        }
        prop_assert_eq!(drained, packets, "offered load not conserved");
        prop_assert!(r.jain_index > 0.0 && r.jain_index <= 1.0 + 1e-12);
        let p99 = r.worst_p99_us();
        prop_assert!(p99 > 5.0 && p99 < 100_000.0, "implausible worst p99: {} µs", p99);
    }
}
