//! Property tests on the PCIe substrate: TLP chunking arithmetic, link
//! timing monotonicity, config-space/capability invariants.

use proptest::collection::vec;
use proptest::prelude::*;

use vf_pcie::caps::{VirtioCfgType, VirtioPciCap};
use vf_pcie::config::{BarDef, ConfigSpaceBuilder};
use vf_pcie::enumerate::{enumerate, MmioAllocator};
use vf_pcie::link::{LinkConfig, PcieGen, PcieLink, REORDER_WINDOW};
use vf_pcie::tlp::{chunk_count, split_aligned};
use vf_sim::Time;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn split_conserves_and_aligns(
        addr in 0u64..1_000_000,
        total in 0usize..100_000,
        chunk_pow in 5u32..13, // 32..4096
    ) {
        let chunk = 1usize << chunk_pow;
        let parts = split_aligned(addr, total, chunk).collect::<Vec<_>>();
        prop_assert_eq!(parts.iter().sum::<usize>(), total);
        prop_assert!(parts.iter().all(|&p| p > 0 && p <= chunk));
        prop_assert_eq!(parts.len(), chunk_count(addr, total, chunk));
        // No part may cross a chunk boundary.
        let mut a = addr;
        for &p in &parts {
            let start_block = a / chunk as u64;
            let end_block = (a + p as u64 - 1) / chunk as u64;
            prop_assert_eq!(start_block, end_block);
            a += p as u64;
        }
    }

    #[test]
    fn dma_read_time_monotone_in_length(len_a in 1usize..8192, len_b in 1usize..8192) {
        let (small, large) = (len_a.min(len_b), len_a.max(len_b));
        let mut l1 = PcieLink::new(LinkConfig::gen2_x2());
        let mut l2 = PcieLink::new(LinkConfig::gen2_x2());
        let t_small = l1.dma_read(Time::ZERO, 0, small);
        let t_large = l2.dma_read(Time::ZERO, 0, large);
        prop_assert!(t_small <= t_large);
    }

    #[test]
    fn dma_write_time_monotone_in_length(len_a in 1usize..8192, len_b in 1usize..8192) {
        let (small, large) = (len_a.min(len_b), len_a.max(len_b));
        let mut l1 = PcieLink::new(LinkConfig::gen2_x2());
        let mut l2 = PcieLink::new(LinkConfig::gen2_x2());
        prop_assert!(l1.dma_write(Time::ZERO, 0, small) <= l2.dma_write(Time::ZERO, 0, large));
    }

    #[test]
    fn faster_links_never_slower(len in 1usize..8192) {
        let configs = [
            LinkConfig::with(PcieGen::Gen1, 1),
            LinkConfig::with(PcieGen::Gen2, 2),
            LinkConfig::with(PcieGen::Gen3, 4),
            LinkConfig::with(PcieGen::Gen3, 8),
        ];
        let times: Vec<Time> = configs
            .iter()
            .map(|c| PcieLink::new(c.clone()).dma_read(Time::ZERO, 0, len))
            .collect();
        for w in times.windows(2) {
            prop_assert!(w[1] <= w[0], "wider/faster link got slower: {:?}", times);
        }
    }

    #[test]
    fn link_time_advances_with_now(now_ns in 0u64..1_000_000, len in 1usize..4096) {
        let mut link = PcieLink::new(LinkConfig::gen2_x2());
        let now = Time::from_ns(now_ns);
        let done = link.dma_read(now, 0, len);
        prop_assert!(done > now);
        // A second transfer starts no earlier than the first finished
        // departing (same direction serialization).
        let done2 = link.dma_read(now, 0, len);
        prop_assert!(done2 >= done);
    }

    #[test]
    fn bar_sizes_round_trip_through_probe(size_pow in 4u32..20) {
        let size = 1u32 << size_pow;
        let mut cfg = ConfigSpaceBuilder::new(0x1AF4, 0x1041)
            .bar(0, BarDef::Mem32 { size })
            .build();
        let dev = enumerate(&mut cfg, &mut MmioAllocator::new());
        let bar = dev.bar(0).unwrap();
        prop_assert_eq!(bar.size, size as u64);
        prop_assert_eq!(bar.address % size as u64, 0, "natural alignment");
        prop_assert_eq!(cfg.bar_address(0), Some(bar.address));
    }

    #[test]
    fn virtio_caps_round_trip(
        kinds in vec(0usize..4, 1..5),
        bar in 0u8..6,
        offset in (0u32..0x10_000).prop_map(|o| o & !0xFFF),
        length in 1u32..0x1000,
    ) {
        let types = [
            VirtioCfgType::Common,
            VirtioCfgType::Notify,
            VirtioCfgType::Isr,
            VirtioCfgType::Device,
        ];
        let mut builder = ConfigSpaceBuilder::new(0x1AF4, 0x1041)
            .bar(0, BarDef::Mem32 { size: 1 << 16 });
        let mut expected = Vec::new();
        for (i, &k) in kinds.iter().enumerate() {
            let cfg_type = types[k];
            let cap = VirtioPciCap {
                cfg_type,
                bar,
                offset: offset + i as u32 * 0x1000,
                length,
                notify_off_multiplier: (cfg_type == VirtioCfgType::Notify).then_some(4),
            };
            builder = builder.capability(&cap);
            expected.push(cap);
        }
        let mut cfg = builder.build();
        let dev = enumerate(&mut cfg, &mut MmioAllocator::new());
        let parsed = dev.virtio_caps(&cfg);
        prop_assert_eq!(parsed.len(), expected.len());
        for (p, e) in parsed.iter().zip(&expected) {
            prop_assert_eq!(p.cfg_type, e.cfg_type);
            prop_assert_eq!(p.bar, e.bar);
            prop_assert_eq!(p.offset, e.offset);
            prop_assert_eq!(p.length, e.length);
            prop_assert_eq!(p.notify_off_multiplier, e.notify_off_multiplier);
        }
    }

    #[test]
    fn np_depth_one_is_bit_identical_to_chained_dma_read(
        lens in vec(1usize..=128, 1..24),
    ) {
        // The determinism golden (E20): with the default config
        // (max_outstanding_np = 1), eagerly issuing
        // aligned single-chunk reads through the persistent non-posted
        // pipeline is bit-identical to manually chaining dma_read —
        // same completion instants, same wire bytes, window never
        // deeper than one.
        let mut serial = PcieLink::new(LinkConfig::gen2_x2());
        let mut np = PcieLink::new(LinkConfig::gen2_x2());
        let mut t = Time::ZERO;
        for (i, &len) in lens.iter().enumerate() {
            let addr = i as u64 * 0x1000;
            t = serial.dma_read(t, addr, len);
            let eager = np.dma_read_np(Time::ZERO, addr, len);
            prop_assert_eq!(eager, t, "read {} diverged", i);
        }
        prop_assert!(np.np_peak_in_flight() <= 1);
        prop_assert_eq!(serial.up_wire_bytes, np.up_wire_bytes);
        prop_assert_eq!(serial.down_wire_bytes, np.down_wire_bytes);
        prop_assert_eq!(serial.tlp_counts, np.tlp_counts);
    }

    #[test]
    fn np_in_flight_never_exceeds_configured_depth(
        depth in 1usize..=8,
        lens in vec(1usize..=128, 1..48),
    ) {
        let mut cfg = LinkConfig::gen2_x2();
        cfg.max_outstanding_np = depth;
        let mut link = PcieLink::new(cfg);
        for (i, &len) in lens.iter().enumerate() {
            link.dma_read_np(Time::ZERO, i as u64 * 0x1000, len);
            prop_assert!(link.np_in_flight(0) <= depth);
        }
        prop_assert!(link.np_peak_in_flight() <= depth);
    }

    #[test]
    fn posted_order_and_bounded_read_reorder_under_ooo(
        depth in 2usize..=8,
        ops in vec((any::<bool>(), 1usize..=128), 2..40),
    ) {
        // Relaxed ordering licenses *non-posted completions* to pass
        // each other (by at most REORDER_WINDOW); posted writes on the
        // tag must still land in issue order.
        let mut cfg = LinkConfig::gen2_x2();
        cfg.max_outstanding_np = depth;
        let mut link = PcieLink::new(cfg);
        let mut writes = Vec::new();
        let mut reads = Vec::new();
        for (i, &(is_write, len)) in ops.iter().enumerate() {
            let addr = i as u64 * 0x1000;
            if is_write {
                writes.push(link.dma_write(Time::ZERO, addr, len));
            } else {
                reads.push(link.dma_read_np(Time::ZERO, addr, len));
            }
        }
        for (i, w) in writes.windows(2).enumerate() {
            prop_assert!(w[1] >= w[0], "posted writes {} and {} reordered", i, i + 1);
        }
        // A read completion may pass at most REORDER_WINDOW older
        // reads: completion i never lands before completion i - 4.
        for i in REORDER_WINDOW..reads.len() {
            prop_assert!(
                reads[i] >= reads[i - REORDER_WINDOW],
                "read {} outran the reorder window", i
            );
        }
    }

    #[test]
    fn wire_accounting_balances(ops in vec((0usize..3, 1usize..2048), 1..40)) {
        let mut link = PcieLink::new(LinkConfig::gen2_x2());
        let mut now = Time::ZERO;
        for (kind, len) in ops {
            now = match kind {
                0 => link.dma_read(now, 0, len),
                1 => link.dma_write(now, 0, len),
                _ => link.mmio_write(now, len.min(8)),
            };
        }
        // Reads put requests upstream and completions downstream; writes
        // and MMIO put data on one side only. Totals are positive and
        // consistent with at least one TLP per op.
        let total_tlps: u64 = link.tlp_counts.iter().sum();
        prop_assert!(total_tlps > 0);
        prop_assert!(link.up_wire_bytes + link.down_wire_bytes >= total_tlps * 20);
    }
}
