//! # vf-bench — benchmark harness
//!
//! Rendering helpers shared by the `repro` binary (which regenerates
//! every figure and table of the paper) and the Criterion benches.

#![warn(missing_docs)]

use virtio_fpga::experiments::{
    BlkStorageRow, BreakdownRow, BypassRow, CsumRow, DeviceTypeRow, Fig3Row, NoiseRow, NoisyRow,
    PackedRow, PmdCrossoverRow, PmdTailsRow, PortabilityRow, Table1Row, TenantRow,
    VirtioFeatureRow, XdmaIrqRow,
};
use virtio_fpga::{render_breakdown, render_table1, DriverKind};

/// Render the Fig. 3 distribution comparison as text (per-payload
/// summaries plus ASCII distribution sparklines).
pub fn render_fig3(rows: &[Fig3Row]) -> String {
    let mut out = String::from(
        "Fig. 3 — Round-trip latency distribution (us)\npayload  driver   mean    sd    min    p25    med    p75    p95    max   distribution 0-120us\n",
    );
    for r in rows {
        for (name, s, h) in [
            ("VirtIO", &r.virtio, &r.virtio_hist),
            ("XDMA", &r.xdma, &r.xdma_hist),
        ] {
            out.push_str(&format!(
                "{:>6}B  {:<7}{:>6.1}{:>6.1}{:>7.1}{:>7.1}{:>7.1}{:>7.1}{:>7.1}{:>7.1}   |{}|\n",
                r.payload,
                name,
                s.mean_us,
                s.std_us,
                s.min_us,
                s.p25_us,
                s.median_us,
                s.p75_us,
                s.p95_us,
                s.max_us,
                h.sparkline()
            ));
        }
    }
    out
}

/// Render a Fig. 4 or Fig. 5 breakdown.
pub fn render_fig45(driver: DriverKind, rows: &[BreakdownRow]) -> String {
    let pairs: Vec<(usize, vf_sim::Summary, vf_sim::Summary)> =
        rows.iter().map(|r| (r.payload, r.sw, r.hw)).collect();
    render_breakdown(driver, &pairs)
}

/// Render Table I.
pub fn render_tails(rows: &[Table1Row]) -> String {
    let pairs: Vec<(usize, vf_sim::Summary, vf_sim::Summary)> =
        rows.iter().map(|r| (r.payload, r.virtio, r.xdma)).collect();
    render_table1(&pairs)
}

/// Render the E5 portability sweep.
pub fn render_portability(rows: &[PortabilityRow]) -> String {
    let mut out = String::from(
        "E5 — Portability sweep (1 KiB payload, mean / p95 us)\nlink        | VirtIO mean  p95 | XDMA mean   p95\n------------+------------------+----------------\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:?} x{:<3}   | {:>8.1} {:>6.1} | {:>8.1} {:>6.1}\n",
            r.gen, r.lanes, r.virtio.mean_us, r.virtio.p95_us, r.xdma.mean_us, r.xdma.p95_us
        ));
    }
    out
}

/// Render the E6 XDMA interrupt ablation.
pub fn render_xdma_irq(rows: &[XdmaIrqRow]) -> String {
    let mut out = String::from(
        "E6 — XDMA with the real data-ready interrupt (mean us)\npayload | back-to-back (paper setup) | with device IRQ | penalty\n--------+----------------------------+-----------------+--------\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:>6}B | {:>26.1} | {:>15.1} | {:>+6.1}\n",
            r.payload,
            r.back_to_back.mean_us,
            r.with_irq.mean_us,
            r.with_irq.mean_us - r.back_to_back.mean_us
        ));
    }
    out
}

/// Render the E7 VirtIO feature ablation.
pub fn render_virtio_features(rows: &[VirtioFeatureRow]) -> String {
    let mut out = String::from(
        "E7 — VirtIO transport ablation (256 B payload)\nevent_idx queue | mean(us)  p95(us) | doorbells   irqs\n----------------+-------------------+-----------------\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:>9} {:>5} | {:>8.1} {:>8.1} | {:>9} {:>6}\n",
            r.event_idx, r.queue_size, r.total.mean_us, r.total.p95_us, r.notifications, r.irqs
        ));
    }
    out
}

/// Render the E8 bypass-interface measurement.
pub fn render_bypass(rows: &[BypassRow]) -> String {
    let mut out = String::from(
        "E8 — Driver-bypass DMA interface (us)\nsize   | dev read | dev write | round trip | full driver path (1 KiB)\n-------+----------+-----------+------------+-------------------------\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:>5}B | {:>8.2} | {:>9.2} | {:>10.2} | {:>8.1}\n",
            r.size, r.read_us, r.write_us, r.round_trip_us, r.driver_path_us
        ));
    }
    out
}

/// Render the E9 device-type comparison.
pub fn render_device_types(rows: &[DeviceTypeRow]) -> String {
    let mut out = String::from(
        "E9 — Device types (VirtIO framework, mean / p95 us)\ndevice          payload |  mean   p95\n------------------------+-------------\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:<15} {:>6}B | {:>5.1} {:>5.1}\n",
            r.device_type.name(),
            r.payload,
            r.total.mean_us,
            r.total.p95_us
        ));
    }
    out
}

/// Render the E10 checksum-offload ablation.
pub fn render_csum(rows: &[CsumRow]) -> String {
    let mut out = String::from(
        "E10 — Checksum offload (mean us)\npayload | total sw-csum | total offload | sw-component sw-csum → offload\n--------+---------------+---------------+-------------------------------\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:>6}B | {:>13.1} | {:>13.1} | {:>13.2} → {:.2}\n",
            r.payload,
            r.sw_csum.mean_us,
            r.offload.mean_us,
            r.sw_component_sw_csum,
            r.sw_component_offload
        ));
    }
    out
}

/// Render the E11 noise sweep.
pub fn render_noise(rows: &[NoiseRow]) -> String {
    let mut out = String::from(
        "E11 — Host-noise sensitivity (256 B payload, us)\nscale | VirtIO mean   sd   p95  p99.9 | XDMA mean   sd   p95  p99.9\n------+-------------------------------+----------------------------\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:>5.1} | {:>8.1} {:>5.1} {:>5.1} {:>6.1} | {:>7.1} {:>5.1} {:>5.1} {:>6.1}\n",
            r.scale,
            r.virtio.mean_us,
            r.virtio.std_us,
            r.virtio.p95_us,
            r.virtio.p999_us,
            r.xdma.mean_us,
            r.xdma.std_us,
            r.xdma.p95_us,
            r.xdma.p999_us
        ));
    }
    out
}

/// Render the E12 pipelined-throughput comparison.
pub fn render_pipeline(rows: &[virtio_fpga::experiments::PipelineRow]) -> String {
    let mut out = String::from(
        "E12 — Pipelined throughput (256 B payload)\ndepth | VirtIO pps | latency(us) | doorbells/pkt | irqs/pkt | XDMA serial pps\n------+------------+-------------+---------------+----------+----------------\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:>5} | {:>10.0} | {:>11.1} | {:>13.3} | {:>8.3} | {:>14.0}\n",
            r.depth,
            r.virtio_pps,
            r.virtio_latency_us,
            r.doorbells_per_packet,
            r.irqs_per_packet,
            r.xdma_serial_pps
        ));
    }
    out
}

/// Render the E13 deployment-model comparison.
pub fn render_deployment(rows: &[virtio_fpga::experiments::DeploymentRow]) -> String {
    let mut out = String::from(
        "E13 — Deployment models (mean / p95 us), quantifying the paper's Fig. 1\npayload | direct VirtIO-FPGA | raw XDMA        | paravirt (backend+legacy)\n--------+--------------------+-----------------+--------------------------\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:>6}B | {:>8.1} / {:>6.1} | {:>6.1} / {:>6.1} | {:>10.1} / {:>6.1}\n",
            r.payload,
            r.direct_virtio.mean_us,
            r.direct_virtio.p95_us,
            r.raw_xdma.mean_us,
            r.raw_xdma.p95_us,
            r.paravirt.mean_us,
            r.paravirt.p95_us
        ));
    }
    out
}

/// Render the E14 card-memory ablation.
pub fn render_card_memory(rows: &[virtio_fpga::experiments::CardMemRow]) -> String {
    let mut out = String::from(
        "E14 — Card memory: BRAM vs external DDR (mean us)\npayload | VirtIO bram  ddr | XDMA bram   ddr\n--------+------------------+-----------------\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:>6}B | {:>9.1} {:>5.1} | {:>8.1} {:>5.1}\n",
            r.payload,
            r.virtio_bram.mean_us,
            r.virtio_ddr.mean_us,
            r.xdma_bram.mean_us,
            r.xdma_ddr.mean_us
        ));
    }
    out
}

/// Render the E15 three-way tail comparison (kernel VirtIO vs the
/// `vf-pmd` poll-mode driver vs XDMA).
pub fn render_pmd(rows: &[PmdTailsRow]) -> String {
    let mut out = String::from(
        "E15 — Poll-mode driver vs kernel drivers (us)\npayload | driver      mean    sd    med    p95    p99  p99.9 | p99-med\n--------+------------------------------------------------------+--------\n",
    );
    for r in rows {
        for (name, s) in [
            ("VirtIO", &r.virtio),
            ("VirtIO-PMD", &r.pmd),
            ("XDMA", &r.xdma),
        ] {
            out.push_str(&format!(
                "{:>6}B | {:<10}{:>6.1}{:>6.1}{:>7.1}{:>7.1}{:>7.1}{:>7.1} | {:>6.1}\n",
                r.payload,
                name,
                s.mean_us,
                s.std_us,
                s.median_us,
                s.p95_us,
                s.p99_us,
                s.p999_us,
                s.p99_us - s.median_us
            ));
        }
    }
    out
}

/// Render the E16 poll-vs-interrupt crossover.
pub fn render_pmd_crossover(rows: &[PmdCrossoverRow]) -> String {
    let mut out = String::from(
        "E16 — Poll-vs-interrupt crossover (256 B payload)\nload(pps) | busy mean(us) cpu(us/pkt) kcyc | adaptive mean(us) cpu(us/pkt) fallbacks | kernel mean(us) cpu(us/pkt)\n----------+--------------------------------+-----------------------------------------+----------------------------\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:>9} | {:>13.1} {:>11.1} {:>4.0} | {:>17.1} {:>11.1} {:>9} | {:>15.1} {:>11.1}\n",
            r.load_pps,
            r.busy.mean_us,
            r.busy_cpu_us,
            r.busy_kcycles,
            r.adaptive.mean_us,
            r.adaptive_cpu_us,
            r.adaptive_fallbacks,
            r.kernel.mean_us,
            r.kernel_cpu_us
        ));
    }
    out
}

/// Render the E17 split-vs-packed ring comparison.
pub fn render_packed(rows: &[PackedRow]) -> String {
    let mut out = String::from(
        "E17 — Split vs packed virtqueue layout (us)\npayload | layout   mean    sd    med    p95    p99 | desc reads/pkt\n--------+-------------------------------------------+---------------\n",
    );
    for r in rows {
        for (name, s, reads) in [
            ("split", &r.split, r.split_desc_reads_per_packet),
            ("packed", &r.packed, r.packed_desc_reads_per_packet),
        ] {
            out.push_str(&format!(
                "{:>6}B | {:<7}{:>6.1}{:>6.1}{:>7.1}{:>7.1}{:>7.1} | {:>13.2}\n",
                r.payload, name, s.mean_us, s.std_us, s.median_us, s.p95_us, s.p99_us, reads
            ));
        }
    }
    out
}

/// Render one payload's E19 multi-queue scaling sweep.
pub fn render_mq(payload: usize, rows: &[virtio_fpga::experiments::MqRow]) -> String {
    let mut out = format!(
        "E19 — Multi-queue scaling ({payload} B payload, depth {}/queue)\nqueues | aggregate pps | speedup | latency(us) | doorbells/pkt | irqs/pkt | link up/down\n-------+---------------+---------+-------------+---------------+----------+-------------\n",
        virtio_fpga::experiments::MQ_SWEEP_DEPTH
    );
    for r in rows {
        out.push_str(&format!(
            "{:>6} | {:>13.0} | {:>7.2} | {:>11.1} | {:>13.3} | {:>8.3} | {:>4.0}% / {:>3.0}%\n",
            r.queues,
            r.pps,
            r.speedup,
            r.latency_us,
            r.doorbells_per_packet,
            r.irqs_per_packet,
            r.link_util_up * 100.0,
            r.link_util_down * 100.0
        ));
    }
    out
}

/// Render one payload's E20 out-of-order descriptor-pipeline sweep.
pub fn render_ooo(payload: usize, rows: &[virtio_fpga::experiments::OooRow]) -> String {
    let mut out = format!(
        "E20 — Out-of-order descriptor pipeline ({payload} B payload, window {}/queue)\nlayout | queues | depth | aggregate pps | speedup | link up/down | peak NP | bottleneck\n-------+--------+-------+---------------+---------+--------------+---------+-----------\n",
        virtio_fpga::experiments::MQ_SWEEP_DEPTH
    );
    for r in rows {
        out.push_str(&format!(
            "{:<6} | {:>6} | {:>5} | {:>13.0} | {:>7.2} | {:>4.0}% / {:>3.0}% | {:>7} | {}\n",
            r.layout,
            r.queues,
            r.depth,
            r.pps,
            r.speedup,
            r.link_util_up * 100.0,
            r.link_util_down * 100.0,
            r.peak_np_inflight,
            r.bottleneck
        ));
    }
    out
}

/// Render one payload's E21 multi-tenant scaling sweep.
pub fn render_tenants(payload: usize, rows: &[TenantRow]) -> String {
    let mut out = format!(
        "E21 — Multi-tenant vhost multiplexing ({payload} B payload, window {}/tenant)\npolicy          | tenants | aggregate pps | worst p99(us) |  jain | queued | link up/down\n----------------+---------+---------------+---------------+-------+--------+-------------\n",
        virtio_fpga::experiments::MQ_SWEEP_DEPTH
    );
    for r in rows {
        out.push_str(&format!(
            "{:<15} | {:>7} | {:>13.0} | {:>13.1} | {:>5.3} | {:>5.1}% | {:>4.0}% / {:>3.0}%\n",
            r.policy,
            r.tenants,
            r.pps,
            r.worst_p99_us,
            r.jain,
            r.queued_frac * 100.0,
            r.link_util_up * 100.0,
            r.link_util_down * 100.0
        ));
    }
    out
}

/// Render the E21 noisy-neighbor isolation experiment.
pub fn render_noisy(payload: usize, rows: &[NoisyRow]) -> String {
    let mut out = format!(
        "E21 — Noisy neighbor ({} tenants, {payload} B payload; tenant 0: top priority, 4x window)\npolicy          | aggregate pps | noisy pps | victim p99(us) | baseline p99 | inflation |  jain\n----------------+---------------+-----------+----------------+--------------+-----------+------\n",
        virtio_fpga::experiments::NOISY_TENANTS
    );
    for r in rows {
        out.push_str(&format!(
            "{:<15} | {:>13.0} | {:>9.0} | {:>14.1} | {:>12.1} | {:>8.2}x | {:>5.3}\n",
            r.policy,
            r.pps,
            r.noisy_pps,
            r.victim_p99_us,
            r.baseline_p99_us,
            r.p99_inflation,
            r.jain
        ));
    }
    out
}

/// Render the E24 storage sweep: one line per (workload, depth) virtio
/// point plus the depth-less XDMA baseline line per workload.
pub fn render_blk(rows: &[BlkStorageRow]) -> String {
    let mut out = String::from(
        "E24 — virtio-blk storage sweep vs XDMA character device\nworkload     io     driver      QD |    IOPS |    MB/s | mean(us) p99(us) | doorbells/req irqs/req\n-------------------+---------------+---------+---------+------------------+-----------------------\n",
    );
    for r in rows {
        let io = if r.io_bytes >= 1024 {
            format!("{}K", r.io_bytes / 1024)
        } else {
            format!("{}B", r.io_bytes)
        };
        for p in &r.points {
            out.push_str(&format!(
                "{:<11} {:>5}  virtio-blk {:>3} | {:>7.0} | {:>7.1} | {:>8.1} {:>7.1} | {:>13.3} {:>8.3}\n",
                r.pattern.name(),
                io,
                p.depth,
                p.iops,
                p.mbps,
                p.latency.mean_us,
                p.latency.p99_us,
                p.doorbells_per_request,
                p.irqs_per_request
            ));
        }
        out.push_str(&format!(
            "{:<11} {:>5}  xdma         - | {:>7.0} | {:>7.1} | {:>8.1} {:>7.1} | {:>13.3} {:>8.3}\n",
            r.pattern.name(),
            io,
            r.xdma.iops,
            r.xdma.mbps,
            r.xdma.latency.mean_us,
            r.xdma.latency.p99_us,
            r.xdma.doorbells_per_request,
            r.xdma.irqs_per_request
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use virtio_fpga::experiments::{self, ExperimentParams};

    #[test]
    fn renderers_produce_full_tables() {
        let params = ExperimentParams {
            packets: 150,
            threads: 8,
            ..ExperimentParams::quick(19)
        };
        let mut m = experiments::run_matrix(params);
        let f3 = render_fig3(&experiments::fig3(&mut m));
        assert_eq!(f3.lines().count(), 12); // header + 10 rows + title
        assert!(f3.contains("VirtIO") && f3.contains("XDMA"));
        let f4 = render_fig45(DriverKind::Virtio, &experiments::fig4(&mut m));
        assert!(f4.contains("VirtIO driver"));
        let t1 = render_tails(&experiments::table1(&mut m));
        assert!(t1.contains("99.9%"));
        assert_eq!(t1.lines().count(), 8);
    }

    #[test]
    fn pmd_renders() {
        let params = ExperimentParams {
            packets: 150,
            threads: 8,
            ..ExperimentParams::quick(23)
        };
        let s = render_pmd(&experiments::pmd_tails(params));
        assert!(s.contains("VirtIO-PMD"));
        assert_eq!(s.lines().count(), 3 + 15); // title + 2 header + 5×3 rows
        let c = render_pmd_crossover(&experiments::pmd_crossover(params));
        assert!(c.contains("40000"));
        assert_eq!(c.lines().count(), 3 + 5);
    }

    #[test]
    fn packed_renders() {
        let params = ExperimentParams {
            packets: 150,
            threads: 8,
            ..ExperimentParams::quick(29)
        };
        let s = render_packed(&experiments::packed_ring(params));
        assert!(s.contains("packed"));
        assert_eq!(s.lines().count(), 3 + 10); // title + 2 header + 5×2 rows
    }

    /// `repro --quick`'s configuration: the CI smoke input of every
    /// sweep test below that takes it.
    fn repro_quick() -> ExperimentParams {
        ExperimentParams {
            packets: 2_000,
            ..ExperimentParams::quick(42)
        }
    }

    #[test]
    fn mq_renders_and_scales() {
        let unit = ExperimentParams {
            packets: 600,
            threads: 8,
            ..ExperimentParams::quick(31)
        };
        for params in [unit, repro_quick()] {
            let rows = experiments::mq_scaling(params, 256);
            let s = render_mq(256, &rows);
            assert!(s.contains("E19"));
            assert_eq!(s.lines().count(), 3 + 5); // title + 2 header + 5 queue counts
            assert!((rows[0].speedup - 1.0).abs() < 1e-12);
            let pps = |q: u16| rows.iter().find(|r| r.queues == q).unwrap().pps;
            assert!(
                pps(2) > pps(1),
                "2 queues ({}) must beat 1 ({})",
                pps(2),
                pps(1)
            );
            // Regression pins: pairs print in numeric sweep order, and the
            // summary table carries the link-occupancy column (E20's
            // crossover must be readable without opening a trace).
            assert!(
                rows.windows(2).all(|w| w[0].queues < w[1].queues),
                "queue rows out of numeric order"
            );
            assert!(s.contains("link up/down"));
            for line in s.lines().skip(3) {
                assert!(line.contains('%'), "row without link occupancy: {line}");
            }
        }
    }

    #[test]
    fn ooo_renders_both_layouts() {
        let params = ExperimentParams {
            packets: 150,
            threads: 8,
            ..ExperimentParams::quick(37)
        };
        let rows = experiments::pipeline_depth(params, 256);
        let s = render_ooo(256, &rows);
        assert!(s.contains("E20"));
        // title + 2 header + 2 layouts × 3 queue counts × 4 depths.
        assert_eq!(s.lines().count(), 3 + 24);
        assert!(s.contains("split") && s.contains("packed"));
        assert!(s.contains("walker") || s.contains("link"));
    }

    #[test]
    fn tenants_render_scaling_and_noisy() {
        let unit = ExperimentParams {
            packets: 600,
            threads: 8,
            ..ExperimentParams::quick(41)
        };
        for (params, payloads) in [(unit, &[256][..]), (repro_quick(), &[256, 1024][..])] {
            let mut per_policy = std::collections::BTreeMap::new();
            for &payload in payloads {
                let rows = experiments::tenant_scaling(params, payload);
                let s = render_tenants(payload, &rows);
                assert!(s.contains("E21"));
                // title + 2 header + 3 policies × 7 tenant counts.
                assert_eq!(s.lines().count(), 3 + 21);
                assert!(s.contains("round-robin") && s.contains("weighted-share"));
                assert!(
                    rows.iter().all(|r| r.jain > 0.0 && r.jain <= 1.0 + 1e-12),
                    "Jain index out of (0, 1]"
                );
                for r in &rows {
                    *per_policy.entry(r.policy).or_insert(0) += 1;
                }
            }
            // Every policy has a row per tenant count and payload.
            let want = experiments::TENANT_COUNTS.len() * payloads.len();
            assert_eq!(
                per_policy.into_iter().collect::<Vec<_>>(),
                [
                    ("round-robin", want),
                    ("strict-priority", want),
                    ("weighted-share", want)
                ]
            );
            let noisy = experiments::noisy_neighbor(params, 256);
            let n = render_noisy(256, &noisy);
            assert!(n.contains("E21") && n.contains("inflation"));
            assert_eq!(n.lines().count(), 3 + 3); // title + 2 header + 3 policies
        }
    }

    #[test]
    fn blk_renders_every_cell() {
        let rows = experiments::blk_storage(ExperimentParams {
            packets: 200,
            threads: 8,
            ..ExperimentParams::quick(43)
        });
        let s = render_blk(&rows);
        assert!(s.contains("E24"));
        // title + 2 header + 4 workloads × (6 depths + 1 XDMA line).
        assert_eq!(
            s.lines().count(),
            3 + experiments::BLK_WORKLOADS.len() * (experiments::BLK_DEPTHS.len() + 1)
        );
        assert!(s.contains("rand-read") && s.contains("seq-write"));
        assert!(s.contains("128K") && s.contains("4K"));
        assert!(s.contains("xdma"));
    }

    #[test]
    fn bypass_render() {
        let rows = experiments::bypass(ExperimentParams {
            packets: 150,
            threads: 2,
            ..ExperimentParams::quick(1)
        });
        let s = render_bypass(&rows);
        assert!(s.contains("4096B"));
    }
}
