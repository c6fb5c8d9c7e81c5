//! Experiment drivers: one function per paper artifact.
//!
//! | Function | Paper artifact |
//! |---|---|
//! | [`run_matrix`] + [`fig3`] | Fig. 3 — round-trip latency distribution, VirtIO vs XDMA, payloads 64 B–1 KiB |
//! | [`fig4`] | Fig. 4 — VirtIO latency breakdown (software vs hardware, mean ± σ) |
//! | [`fig5`] | Fig. 5 — XDMA latency breakdown |
//! | [`table1`] | Table I — 95/99/99.9% tail latencies |
//! | [`portability`] | E5 — §VI future work: link generation/width sweep |
//! | [`xdma_irq_ablation`] | E6 — §IV-C: XDMA with the real data-ready interrupt restored |
//! | [`virtio_features`] | E7 — EVENT_IDX and queue-size ablation |
//! | [`bypass`] | E8 — §III-A driver-bypass DMA interface |
//! | [`device_types`] | E9 — console (prior work \[14\]) vs net device |
//! | [`csum_offload`] | E10 — checksum offload on/off |
//! | [`noise_sweep`] | E11 — host-noise sensitivity |
//! | [`pmd_tails`] | E15 — Fig. 3/Table I re-run with the `vf-pmd` poll-mode driver as a third series |
//! | [`pmd_crossover`] | E16 — poll-vs-interrupt crossover: RTT and host CPU/packet vs offered load |
//! | [`packed_ring`] | E17 — split vs packed virtqueue layout: RTT and device-side descriptor PCIe reads |
//! | [`mq_scaling`] | E19 — multi-queue scaling: aggregate pps and link occupancy vs queue-pair count |
//! | [`pipeline_depth`] | E20 — out-of-order descriptor pipeline: outstanding-read depth × layout × pairs |
//! | [`tenant_scaling`] | E21 — multi-tenant vhost multiplexing: per-tenant p99 and Jain fairness vs tenant count × arbiter policy |
//! | [`noisy_neighbor`] | E21 — noisy-neighbor isolation: victim p99 inflation per arbiter policy |
//! | [`blk_storage`] | E24 — virtio-blk storage sweep: IOPS/MB/s vs queue depth per workload, with the XDMA storage baseline |
//!
//! Runs within a sweep are independent simulations and execute in
//! parallel ([`vf_sim::parallel_map`]), one thread per configuration.

use vf_fpga::user_logic::UdpEcho;
use vf_fpga::{Persona, VirtioFpgaDevice};
use vf_pcie::{HostMemory, PcieGen, PcieLink};
use vf_sim::{parallel_map, SampleSet, Summary, Time};
use vf_virtio::net::VirtioNetConfig;
use vf_virtio::DeviceType;

use crate::calibration::Calibration;
use crate::report::RunResult;
use crate::testbed::{DriverKind, Testbed, TestbedConfig};
use crate::{PAPER_PACKETS, PAPER_PAYLOADS};

/// Shared experiment parameters.
#[derive(Clone, Copy, Debug)]
pub struct ExperimentParams {
    /// Packets per configuration (paper: 50 000).
    pub packets: usize,
    /// Base seed; each cell derives its own.
    pub seed: u64,
    /// Worker threads for sweeps.
    pub threads: usize,
    /// Unused: nothing reads it. It exists only because the `vfbench`
    /// benchmark package sets it, and a later change to that package
    /// drops it together with [`TestbedOptions::shards`].
    ///
    /// [`TestbedOptions::shards`]: crate::TestbedOptions::shards
    pub shards: usize,
}

impl ExperimentParams {
    /// The paper's parameters.
    pub fn paper(seed: u64) -> Self {
        ExperimentParams {
            packets: PAPER_PACKETS,
            seed,
            threads: vf_sim::default_threads(),
            shards: 1,
        }
    }

    /// Reduced parameters for quick runs and CI.
    pub fn quick(seed: u64) -> Self {
        ExperimentParams {
            packets: 2_000,
            seed,
            threads: vf_sim::default_threads(),
            shards: 1,
        }
    }
}

/// The full driver × payload measurement matrix behind Figs. 3–5 and
/// Table I (ten runs; both drivers over the five paper payloads).
pub struct Matrix {
    /// Results in `(driver, payload)` order: all VirtIO rows first.
    pub cells: Vec<RunResult>,
}

impl Matrix {
    /// The cell for `(driver, payload)`.
    pub fn cell(&mut self, driver: DriverKind, payload: usize) -> &mut RunResult {
        self.cells
            .iter_mut()
            .find(|c| c.driver == driver && c.payload == payload)
            .expect("cell present by construction")
    }
}

/// Run the paper's measurement matrix.
pub fn run_matrix(params: ExperimentParams) -> Matrix {
    let mut configs = Vec::new();
    for driver in [DriverKind::Virtio, DriverKind::Xdma] {
        for (i, &payload) in PAPER_PAYLOADS.iter().enumerate() {
            let seed = params
                .seed
                .wrapping_mul(1000)
                .wrapping_add(i as u64)
                .wrapping_add(if driver == DriverKind::Xdma { 500 } else { 0 });
            configs.push(TestbedConfig::paper(driver, payload, params.packets, seed));
        }
    }
    let cells = parallel_map(configs, params.threads, |cfg| {
        Testbed::new(cfg.clone()).run()
    });
    Matrix { cells }
}

/// One payload row of the Fig. 3 distribution comparison.
pub struct Fig3Row {
    /// Payload size (bytes).
    pub payload: usize,
    /// VirtIO round-trip summary.
    pub virtio: Summary,
    /// XDMA round-trip summary.
    pub xdma: Summary,
    /// VirtIO latency histogram (µs).
    pub virtio_hist: vf_sim::Histogram,
    /// XDMA latency histogram (µs).
    pub xdma_hist: vf_sim::Histogram,
}

/// Fig. 3: the round-trip latency distributions.
pub fn fig3(matrix: &mut Matrix) -> Vec<Fig3Row> {
    PAPER_PAYLOADS
        .iter()
        .map(|&payload| {
            let v = matrix.cell(DriverKind::Virtio, payload);
            let virtio = v.total_summary();
            let virtio_hist = v.histogram(0.0, 120.0, 60);
            let x = matrix.cell(DriverKind::Xdma, payload);
            let xdma = x.total_summary();
            let xdma_hist = x.histogram(0.0, 120.0, 60);
            Fig3Row {
                payload,
                virtio,
                xdma,
                virtio_hist,
                xdma_hist,
            }
        })
        .collect()
}

/// One payload row of a Fig. 4/5 breakdown.
pub struct BreakdownRow {
    /// Payload size (bytes).
    pub payload: usize,
    /// Software-component summary (total − hw − response generation).
    pub sw: Summary,
    /// Hardware-component summary (FPGA counters).
    pub hw: Summary,
    /// Total round-trip summary.
    pub total: Summary,
}

fn breakdown(matrix: &mut Matrix, driver: DriverKind) -> Vec<BreakdownRow> {
    PAPER_PAYLOADS
        .iter()
        .map(|&payload| {
            let c = matrix.cell(driver, payload);
            BreakdownRow {
                payload,
                sw: c.sw_summary(),
                hw: c.hw_summary(),
                total: c.total_summary(),
            }
        })
        .collect()
}

/// Fig. 4: the VirtIO driver's software/hardware breakdown.
pub fn fig4(matrix: &mut Matrix) -> Vec<BreakdownRow> {
    breakdown(matrix, DriverKind::Virtio)
}

/// Fig. 5: the XDMA driver's software/hardware breakdown.
pub fn fig5(matrix: &mut Matrix) -> Vec<BreakdownRow> {
    breakdown(matrix, DriverKind::Xdma)
}

/// One payload row of Table I.
pub struct Table1Row {
    /// Payload size (bytes).
    pub payload: usize,
    /// VirtIO summary (p95/p99/p999 fields are the table cells).
    pub virtio: Summary,
    /// XDMA summary.
    pub xdma: Summary,
}

/// Table I: tail latencies at 95/99/99.9%.
pub fn table1(matrix: &mut Matrix) -> Vec<Table1Row> {
    PAPER_PAYLOADS
        .iter()
        .map(|&payload| Table1Row {
            payload,
            virtio: matrix.cell(DriverKind::Virtio, payload).total_summary(),
            xdma: matrix.cell(DriverKind::Xdma, payload).total_summary(),
        })
        .collect()
}

/// One row of the portability sweep (E5).
pub struct PortabilityRow {
    /// Link generation.
    pub gen: PcieGen,
    /// Lane count.
    pub lanes: u32,
    /// VirtIO round-trip summary at 1 KiB.
    pub virtio: Summary,
    /// XDMA round-trip summary at 1 KiB.
    pub xdma: Summary,
}

/// E5: the same experiment across link configurations — the cross-device
/// portability direction the paper's conclusion announces.
pub fn portability(params: ExperimentParams) -> Vec<PortabilityRow> {
    let links = [
        (PcieGen::Gen1, 1),
        (PcieGen::Gen1, 4),
        (PcieGen::Gen2, 2),
        (PcieGen::Gen2, 4),
        (PcieGen::Gen3, 4),
        (PcieGen::Gen3, 8),
    ];
    let mut configs = Vec::new();
    for (i, &(gen, lanes)) in links.iter().enumerate() {
        for driver in [DriverKind::Virtio, DriverKind::Xdma] {
            let mut cfg = TestbedConfig::paper(
                driver,
                1024,
                params.packets,
                params.seed.wrapping_add(i as u64 * 7),
            );
            cfg.calibration = Calibration::fedora37_alinx().with_link(gen, lanes);
            configs.push(cfg);
        }
    }
    let results = parallel_map(configs, params.threads, |cfg| {
        Testbed::new(cfg.clone()).run()
    });
    links
        .iter()
        .zip(results.chunks(2))
        .map(|(&(gen, lanes), pair)| {
            let mut v = SampleSet::from_us(pair[0].total.raw().to_vec());
            let mut x = SampleSet::from_us(pair[1].total.raw().to_vec());
            PortabilityRow {
                gen,
                lanes,
                virtio: v.summary(),
                xdma: x.summary(),
            }
        })
        .collect()
}

/// One row of the E6 XDMA interrupt ablation.
pub struct XdmaIrqRow {
    /// Payload size.
    pub payload: usize,
    /// Paper's favourable setup (no data-ready interrupt).
    pub back_to_back: Summary,
    /// Realistic setup (poll for the device interrupt before `read()`).
    pub with_irq: Summary,
}

/// E6: restore the data-ready interrupt the paper's XDMA setup omits
/// (§IV-C) and measure how much the omission flattered the vendor
/// driver.
pub fn xdma_irq_ablation(params: ExperimentParams) -> Vec<XdmaIrqRow> {
    let mut configs = Vec::new();
    for (i, &payload) in PAPER_PAYLOADS.iter().enumerate() {
        for wait in [false, true] {
            let mut cfg = TestbedConfig::paper(
                DriverKind::Xdma,
                payload,
                params.packets,
                params.seed.wrapping_add(i as u64),
            );
            cfg.options.xdma_wait_device_irq = wait;
            configs.push(cfg);
        }
    }
    let results = parallel_map(configs, params.threads, |cfg| {
        Testbed::new(cfg.clone()).run()
    });
    PAPER_PAYLOADS
        .iter()
        .zip(results.chunks(2))
        .map(|(&payload, pair)| {
            let mut a = SampleSet::from_us(pair[0].total.raw().to_vec());
            let mut b = SampleSet::from_us(pair[1].total.raw().to_vec());
            XdmaIrqRow {
                payload,
                back_to_back: a.summary(),
                with_irq: b.summary(),
            }
        })
        .collect()
}

/// One row of the E7 VirtIO feature ablation.
pub struct VirtioFeatureRow {
    /// EVENT_IDX negotiated?
    pub event_idx: bool,
    /// Queue size.
    pub queue_size: u16,
    /// Round-trip summary at 256 B.
    pub total: Summary,
    /// Doorbells actually rung.
    pub notifications: u64,
    /// Interrupts actually raised.
    pub irqs: u64,
}

/// E7: VirtIO transport ablation — notification suppression and queue
/// size.
pub fn virtio_features(params: ExperimentParams) -> Vec<VirtioFeatureRow> {
    let variants: Vec<(bool, u16)> = vec![
        (true, 64),
        (true, 256),
        (true, 1024),
        (false, 64),
        (false, 256),
        (false, 1024),
    ];
    let mut configs = Vec::new();
    for (i, &(event_idx, queue_size)) in variants.iter().enumerate() {
        let mut cfg = TestbedConfig::paper(
            DriverKind::Virtio,
            256,
            params.packets,
            params.seed.wrapping_add(i as u64 * 13),
        );
        cfg.options.event_idx = event_idx;
        cfg.options.queue_size = queue_size;
        configs.push(cfg);
    }
    let results = parallel_map(configs, params.threads, |cfg| {
        Testbed::new(cfg.clone()).run()
    });
    variants
        .iter()
        .zip(results)
        .map(|(&(event_idx, queue_size), r)| {
            let mut s = SampleSet::from_us(r.total.raw().to_vec());
            VirtioFeatureRow {
                event_idx,
                queue_size,
                total: s.summary(),
                notifications: r.notifications,
                irqs: r.irqs,
            }
        })
        .collect()
}

/// One row of the E8 bypass-interface measurement.
pub struct BypassRow {
    /// Transfer size (bytes).
    pub size: usize,
    /// Device-initiated read latency (host → FPGA), µs.
    pub read_us: f64,
    /// Device-initiated write latency (FPGA → host), µs.
    pub write_us: f64,
    /// Round trip (read + write back), µs.
    pub round_trip_us: f64,
    /// For contrast: the full driver-path round trip at 1 KiB, µs (mean).
    pub driver_path_us: f64,
}

/// E8: the driver-bypass DMA interface of §III-A — user logic moving
/// data to/from host memory with no VirtIO driver involvement.
pub fn bypass(params: ExperimentParams) -> Vec<BypassRow> {
    // Driver-path baseline at 1 KiB for contrast.
    let mut baseline = Testbed::new(TestbedConfig::paper(
        DriverKind::Virtio,
        1024,
        params.packets.min(5_000),
        params.seed,
    ))
    .run();
    let driver_path_us = baseline.total_summary().mean_us;

    let mut mem = HostMemory::testbed_default();
    let mut link = PcieLink::new(Calibration::fedora37_alinx().link);
    let mut device = VirtioFpgaDevice::new(
        Persona::Net {
            cfg: VirtioNetConfig::testbed_default(),
        },
        0,
        &[64, 64],
        Box::new(UdpEcho::default()),
    );
    let mut rows = Vec::new();
    let mut now = Time::from_us(1);
    for size in [64usize, 256, 1024, 4096] {
        let src = mem.alloc(size, 4096);
        let dst = mem.alloc(size, 4096);
        let data: Vec<u8> = (0..size).map(|i| (i % 251) as u8).collect();
        HostMemory::write(&mut mem, src, &data);

        let (got, t_read) = device.bypass_read(now, src, size, &mem, &mut link);
        assert_eq!(got, data, "bypass read must return the host bytes");
        let read_us = (t_read - now).as_us_f64();

        let t_write = device.bypass_write(t_read, dst, &got, &mut mem, &mut link);
        assert_eq!(mem.slice(dst, size), &data[..], "bypass write must land");
        let write_us = (t_write - t_read).as_us_f64();

        rows.push(BypassRow {
            size,
            read_us,
            write_us,
            round_trip_us: (t_write - now).as_us_f64(),
            driver_path_us,
        });
        now = t_write + Time::from_us(5);
    }
    rows
}

/// One row of the E9 device-type comparison.
pub struct DeviceTypeRow {
    /// Device type under test.
    pub device_type: DeviceType,
    /// Payload size.
    pub payload: usize,
    /// Round-trip summary.
    pub total: Summary,
}

/// E9: the console device of the prior work \[14\] vs this paper's net
/// device — the host-stack depth is the difference, the FPGA framework
/// is the same.
pub fn device_types(params: ExperimentParams) -> Vec<DeviceTypeRow> {
    let cells: Vec<(DeviceType, usize)> = [DeviceType::Console, DeviceType::Net]
        .iter()
        .flat_map(|&dt| [16usize, 64, 256].iter().map(move |&p| (dt, p)))
        .collect();
    let mut configs = Vec::new();
    for (i, &(dt, payload)) in cells.iter().enumerate() {
        let mut cfg = TestbedConfig::paper(
            DriverKind::Virtio,
            payload,
            params.packets,
            params.seed.wrapping_add(i as u64 * 3),
        );
        cfg.options.device_type = dt;
        configs.push(cfg);
    }
    let results = parallel_map(configs, params.threads, |cfg| {
        Testbed::new(cfg.clone()).run()
    });
    cells
        .iter()
        .zip(results)
        .map(|(&(device_type, payload), r)| {
            let mut s = SampleSet::from_us(r.total.raw().to_vec());
            DeviceTypeRow {
                device_type,
                payload,
                total: s.summary(),
            }
        })
        .collect()
}

/// One row of the E10 checksum-offload ablation.
pub struct CsumRow {
    /// Payload size.
    pub payload: usize,
    /// Software-checksum run (the paper's configuration).
    pub sw_csum: Summary,
    /// Device-offload run (`VIRTIO_NET_F_CSUM`).
    pub offload: Summary,
    /// Mean software-component time with software checksums (µs).
    pub sw_component_sw_csum: f64,
    /// Mean software-component time with offload (µs).
    pub sw_component_offload: f64,
}

/// E10: checksum offload on/off — the "additional tasks on behalf of the
/// host" capability of §III-A.
pub fn csum_offload(params: ExperimentParams) -> Vec<CsumRow> {
    let payloads = [64usize, 512, 1024];
    let mut configs = Vec::new();
    for (i, &payload) in payloads.iter().enumerate() {
        for offload in [false, true] {
            let mut cfg = TestbedConfig::paper(
                DriverKind::Virtio,
                payload,
                params.packets,
                params.seed.wrapping_add(i as u64),
            );
            cfg.options.csum_offload = offload;
            configs.push(cfg);
        }
    }
    let results = parallel_map(configs, params.threads, |cfg| {
        Testbed::new(cfg.clone()).run()
    });
    payloads
        .iter()
        .zip(results.chunks(2))
        .map(|(&payload, pair)| {
            let mut a = SampleSet::from_us(pair[0].total.raw().to_vec());
            let mut b = SampleSet::from_us(pair[1].total.raw().to_vec());
            let mut asw = SampleSet::from_us(pair[0].sw.raw().to_vec());
            let mut bsw = SampleSet::from_us(pair[1].sw.raw().to_vec());
            CsumRow {
                payload,
                sw_csum: a.summary(),
                offload: b.summary(),
                sw_component_sw_csum: asw.summary().mean_us,
                sw_component_offload: bsw.summary().mean_us,
            }
        })
        .collect()
}

/// One row of the E11 noise-sensitivity sweep.
pub struct NoiseRow {
    /// Noise scale factor.
    pub scale: f64,
    /// VirtIO summary at 256 B.
    pub virtio: Summary,
    /// XDMA summary at 256 B.
    pub xdma: Summary,
}

/// E11: scale the host-noise model and watch the tails respond — the
/// mechanism check for the paper's variance claims.
pub fn noise_sweep(params: ExperimentParams) -> Vec<NoiseRow> {
    let scales = [0.0, 0.5, 1.0, 2.0];
    let mut configs = Vec::new();
    for (i, &scale) in scales.iter().enumerate() {
        for driver in [DriverKind::Virtio, DriverKind::Xdma] {
            let mut cfg = TestbedConfig::paper(
                driver,
                256,
                params.packets,
                params.seed.wrapping_add(i as u64 * 11),
            );
            cfg.calibration = Calibration::fedora37_alinx().with_noise_scale(scale);
            configs.push(cfg);
        }
    }
    let results = parallel_map(configs, params.threads, |cfg| {
        Testbed::new(cfg.clone()).run()
    });
    scales
        .iter()
        .zip(results.chunks(2))
        .map(|(&scale, pair)| {
            let mut v = SampleSet::from_us(pair[0].total.raw().to_vec());
            let mut x = SampleSet::from_us(pair[1].total.raw().to_vec());
            NoiseRow {
                scale,
                virtio: v.summary(),
                xdma: x.summary(),
            }
        })
        .collect()
}

/// One row of the E12 pipelined-throughput comparison.
pub struct PipelineRow {
    /// Window depth.
    pub depth: usize,
    /// VirtIO throughput (packets/s).
    pub virtio_pps: f64,
    /// Mean per-packet latency at this depth (µs).
    pub virtio_latency_us: f64,
    /// Doorbells per packet (EVENT_IDX coalescing at work).
    pub doorbells_per_packet: f64,
    /// Interrupts per packet.
    pub irqs_per_packet: f64,
    /// The XDMA character device's serial throughput, for contrast.
    pub xdma_serial_pps: f64,
}

/// E12: pipelined throughput — where VirtIO's notification suppression
/// earns its keep, and where the character-device model cannot follow
/// (one blocking `write()`/`read()` pair per transfer).
pub fn pipelined_throughput(params: ExperimentParams) -> Vec<PipelineRow> {
    let base = TestbedConfig::paper(DriverKind::Virtio, 256, params.packets, params.seed);
    let xdma_pps = crate::pipeline::xdma_serial_pps(&TestbedConfig::paper(
        DriverKind::Xdma,
        256,
        params.packets.min(5_000),
        params.seed,
    ));
    let depths = [1usize, 2, 4, 8, 16, 32, 64];
    let results = parallel_map(depths.to_vec(), params.threads, |&depth| {
        crate::pipeline::run_pipelined(&base, depth)
    });
    results
        .into_iter()
        .map(|r| {
            assert_eq!(r.verify_failures, 0);
            PipelineRow {
                depth: r.depth,
                virtio_pps: r.pps,
                virtio_latency_us: r.latency.mean(),
                doorbells_per_packet: r.doorbells_per_packet(),
                irqs_per_packet: r.irqs_per_packet(),
                xdma_serial_pps: xdma_pps,
            }
        })
        .collect()
}

/// One row of the E13 deployment-model comparison (the paper's Fig. 1).
pub struct DeploymentRow {
    /// Payload size.
    pub payload: usize,
    /// Fig. 1 right: direct VirtIO-to-FPGA (this paper's approach).
    pub direct_virtio: Summary,
    /// Bare legacy driver (no virtualization; the paper's comparison).
    pub raw_xdma: Summary,
    /// Fig. 1 left: guest virtio front-end + host back-end worker +
    /// legacy driver.
    pub paravirt: Summary,
}

/// E13: quantify Fig. 1 — how much latency the classic paravirtualized
/// stack (emulated back-end + legacy driver) costs compared to the
/// direct VirtIO-FPGA interface that eliminates both layers.
pub fn deployment_models(params: ExperimentParams) -> Vec<DeploymentRow> {
    let payloads = [64usize, 256, 1024];
    let mut configs = Vec::new();
    for (i, &payload) in payloads.iter().enumerate() {
        let seed = params.seed.wrapping_add(i as u64 * 5);
        configs.push(TestbedConfig::paper(
            DriverKind::Virtio,
            payload,
            params.packets,
            seed,
        ));
        configs.push(TestbedConfig::paper(
            DriverKind::Xdma,
            payload,
            params.packets,
            seed,
        ));
        let mut vhost = TestbedConfig::paper(DriverKind::Xdma, payload, params.packets, seed);
        vhost.options.vhost_overlay = true;
        configs.push(vhost);
    }
    let results = parallel_map(configs, params.threads, |cfg| {
        Testbed::new(cfg.clone()).run()
    });
    payloads
        .iter()
        .zip(results.chunks(3))
        .map(|(&payload, trio)| {
            let mut v = SampleSet::from_us(trio[0].total.raw().to_vec());
            let mut x = SampleSet::from_us(trio[1].total.raw().to_vec());
            let mut p = SampleSet::from_us(trio[2].total.raw().to_vec());
            DeploymentRow {
                payload,
                direct_virtio: v.summary(),
                raw_xdma: x.summary(),
                paravirt: p.summary(),
            }
        })
        .collect()
}

/// One row of the E14 card-memory ablation.
pub struct CardMemRow {
    /// Payload size.
    pub payload: usize,
    /// VirtIO with BRAM (the paper's design).
    pub virtio_bram: Summary,
    /// VirtIO with external DDR.
    pub virtio_ddr: Summary,
    /// XDMA with BRAM.
    pub xdma_bram: Summary,
    /// XDMA with external DDR.
    pub xdma_ddr: Summary,
}

/// E14: "BRAM or external DRAM" (§III-A) — swap the card-side memory
/// under both designs and measure what the slower store costs. Both
/// drivers pay the same store-and-forward penalty per direction, so the
/// comparison between them is memory-neutral — the fairness property
/// §III-B2 engineered by matching memory widths.
pub fn card_memory(params: ExperimentParams) -> Vec<CardMemRow> {
    use crate::testbed::CardKind;
    let payloads = [64usize, 1024];
    let mut configs = Vec::new();
    for (i, &payload) in payloads.iter().enumerate() {
        for driver in [DriverKind::Virtio, DriverKind::Xdma] {
            for kind in [CardKind::Bram, CardKind::Ddr] {
                let mut cfg = TestbedConfig::paper(
                    driver,
                    payload,
                    params.packets,
                    params.seed.wrapping_add(i as u64),
                );
                cfg.options.card_memory = kind;
                configs.push(cfg);
            }
        }
    }
    let results = parallel_map(configs, params.threads, |cfg| {
        Testbed::new(cfg.clone()).run()
    });
    payloads
        .iter()
        .zip(results.chunks(4))
        .map(|(&payload, quad)| {
            let mut sets: Vec<SampleSet> = quad
                .iter()
                .map(|r| SampleSet::from_us(r.total.raw().to_vec()))
                .collect();
            CardMemRow {
                payload,
                virtio_bram: sets[0].summary(),
                virtio_ddr: sets[1].summary(),
                xdma_bram: sets[2].summary(),
                xdma_ddr: sets[3].summary(),
            }
        })
        .collect()
}

/// One payload row of the E15 three-way tail comparison.
pub struct PmdTailsRow {
    /// Payload size (bytes).
    pub payload: usize,
    /// In-kernel VirtIO driver round-trip summary.
    pub virtio: Summary,
    /// Userspace poll-mode driver round-trip summary.
    pub pmd: Summary,
    /// XDMA character-device driver round-trip summary.
    pub xdma: Summary,
    /// PMD doorbells per packet (stays at 1 in the serial echo).
    pub pmd_doorbells_per_packet: f64,
}

/// E15: the paper's Fig. 3 / Table I measurement with the poll-mode
/// driver added as a third series. The PMD keeps the VirtIO data path
/// (same rings, same device) but strips the host software events the
/// paper identifies as the latency floor — the mean drops by the
/// syscall/IRQ/wakeup budget and the tail thins because the poll path
/// never takes the blocking-noise draw.
pub fn pmd_tails(params: ExperimentParams) -> Vec<PmdTailsRow> {
    let mut configs = Vec::new();
    for (i, &payload) in PAPER_PAYLOADS.iter().enumerate() {
        let seed = params.seed.wrapping_mul(1000).wrapping_add(i as u64);
        for driver in [DriverKind::Virtio, DriverKind::VirtioPmd, DriverKind::Xdma] {
            configs.push(TestbedConfig::paper(driver, payload, params.packets, seed));
        }
    }
    let results = parallel_map(configs, params.threads, |cfg| {
        Testbed::new(cfg.clone()).run()
    });
    PAPER_PAYLOADS
        .iter()
        .zip(results.chunks(3))
        .map(|(&payload, trio)| {
            let mut v = SampleSet::from_us(trio[0].total.raw().to_vec());
            let mut p = SampleSet::from_us(trio[1].total.raw().to_vec());
            let mut x = SampleSet::from_us(trio[2].total.raw().to_vec());
            PmdTailsRow {
                payload,
                virtio: v.summary(),
                pmd: p.summary(),
                xdma: x.summary(),
                pmd_doorbells_per_packet: trio[1].notifications as f64
                    / trio[1].packets.max(1) as f64,
            }
        })
        .collect()
}

/// One offered-load row of the E16 crossover.
pub struct PmdCrossoverRow {
    /// Offered load (packets per second).
    pub load_pps: u64,
    /// Inter-send interval (µs).
    pub interval_us: f64,
    /// Busy-poll PMD round-trip summary.
    pub busy: Summary,
    /// Busy-poll host CPU per packet (µs) — includes the spin.
    pub busy_cpu_us: f64,
    /// Busy-poll host CPU per packet (kilocycles).
    pub busy_kcycles: f64,
    /// Adaptive (poll→interrupt fallback) PMD round-trip summary.
    pub adaptive: Summary,
    /// Adaptive host CPU per packet (µs).
    pub adaptive_cpu_us: f64,
    /// Adaptive fallbacks taken (interrupts after the poll threshold).
    pub adaptive_fallbacks: u64,
    /// In-kernel VirtIO driver summary (load-independent baseline: the
    /// blocking design serializes one RTT at a time regardless of pace).
    pub kernel: Summary,
    /// Kernel host CPU per packet proxy (µs): the software component of
    /// the RTT, which is CPU-resident time on this single-flow host.
    pub kernel_cpu_us: f64,
}

/// The adaptive variant's poll budget before arming the interrupt.
pub const PMD_ADAPTIVE_IDLE: Time = Time::from_us(5);

/// E16: the poll-vs-interrupt crossover. Sweep offered load and measure
/// mean RTT and host CPU cycles per packet for (a) the pure busy-poll
/// PMD, (b) the adaptive PMD that arms the RX interrupt after
/// [`PMD_ADAPTIVE_IDLE`] of empty polling, and (c) the in-kernel
/// interrupt-driven driver. At low load the busy poller burns an entire
/// inter-send interval of CPU per packet; as load rises the burn
/// amortizes toward the latency win, which is the operating regime DPDK
/// argues from.
pub fn pmd_crossover(params: ExperimentParams) -> Vec<PmdCrossoverRow> {
    const LOADS_PPS: [u64; 5] = [2_000, 5_000, 10_000, 20_000, 40_000];

    // Kernel baseline: the blocking driver's serial RTT is pace-
    // independent, so one unpaced run serves every load row.
    let mut kernel = Testbed::new(TestbedConfig::paper(
        DriverKind::Virtio,
        256,
        params.packets,
        params.seed,
    ))
    .run();
    let kernel_summary = kernel.total_summary();
    let kernel_cpu_us = kernel.sw_summary().mean_us;

    let mut configs = Vec::new();
    for (i, &pps) in LOADS_PPS.iter().enumerate() {
        let interval = Time::from_ns(1_000_000_000 / pps);
        for adaptive in [false, true] {
            let mut cfg = TestbedConfig::paper(
                DriverKind::VirtioPmd,
                256,
                params.packets,
                params.seed.wrapping_add(i as u64 * 17),
            );
            cfg.options.pmd_send_interval = Some(interval);
            if adaptive {
                cfg.options.pmd_adaptive_idle = Some(PMD_ADAPTIVE_IDLE);
            }
            configs.push(cfg);
        }
    }
    let results = parallel_map(configs, params.threads, crate::pmd::run_pmd);
    LOADS_PPS
        .iter()
        .zip(results.chunks(2))
        .map(|(&load_pps, pair)| {
            let mut b = SampleSet::from_us(pair[0].result.total.raw().to_vec());
            let mut a = SampleSet::from_us(pair[1].result.total.raw().to_vec());
            PmdCrossoverRow {
                load_pps,
                interval_us: 1_000_000.0 / load_pps as f64,
                busy: b.summary(),
                busy_cpu_us: pair[0].cpu_us_per_packet,
                busy_kcycles: pair[0].kcycles_per_packet,
                adaptive: a.summary(),
                adaptive_cpu_us: pair[1].cpu_us_per_packet,
                adaptive_fallbacks: pair[1].irq_fallbacks,
                kernel: kernel_summary,
                kernel_cpu_us,
            }
        })
        .collect()
}

/// One payload row of the E17 split-vs-packed ring comparison.
pub struct PackedRow {
    /// Payload size (bytes).
    pub payload: usize,
    /// Split-ring (VirtIO 1.0 three-area layout) round-trip summary.
    pub split: Summary,
    /// Packed-ring (VirtIO 1.2 one-area layout) round-trip summary.
    pub packed: Summary,
    /// Device-side descriptor/ring-metadata PCIe reads per round trip,
    /// split layout (avail-index read + descriptor-table burst on TX,
    /// then the same pair again on RX).
    pub split_desc_reads_per_packet: f64,
    /// The same count for the packed layout, where each descriptor
    /// carries its own ownership flags: one TX chain burst + one RX
    /// descriptor read.
    pub packed_desc_reads_per_packet: f64,
}

/// E17: the VirtIO 1.2 *packed* virtqueue layout against the paper's
/// split layout, same device and host stack otherwise. The packed ring
/// merges the descriptor table and the availability signal into one
/// 16-byte structure, so the device learns "a buffer is ready" and "here
/// is the buffer" from a single PCIe read where the split layout needs
/// two (avail ring, then descriptor table) — per transfer, per
/// direction. The experiment counts those device-side reads and measures
/// whether the saved bus transactions move the round-trip distribution.
pub fn packed_ring(params: ExperimentParams) -> Vec<PackedRow> {
    let mut configs = Vec::new();
    for (i, &payload) in PAPER_PAYLOADS.iter().enumerate() {
        let seed = params.seed.wrapping_mul(1000).wrapping_add(i as u64);
        for driver in [DriverKind::Virtio, DriverKind::VirtioPacked] {
            configs.push(TestbedConfig::paper(driver, payload, params.packets, seed));
        }
    }
    let results = parallel_map(configs, params.threads, |cfg| {
        Testbed::new(cfg.clone()).run()
    });
    PAPER_PAYLOADS
        .iter()
        .zip(results.chunks(2))
        .map(|(&payload, pair)| {
            let mut s = SampleSet::from_us(pair[0].total.raw().to_vec());
            let mut p = SampleSet::from_us(pair[1].total.raw().to_vec());
            PackedRow {
                payload,
                split: s.summary(),
                packed: p.summary(),
                split_desc_reads_per_packet: pair[0].desc_reads as f64
                    / pair[0].packets.max(1) as f64,
                packed_desc_reads_per_packet: pair[1].desc_reads as f64
                    / pair[1].packets.max(1) as f64,
            }
        })
        .collect()
}

/// One queue-count row of the E19 multi-queue scaling sweep.
pub struct MqRow {
    /// Active queue pairs.
    pub queues: u16,
    /// Aggregate throughput across all pairs (packets/s).
    pub pps: f64,
    /// Aggregate speedup over the single-pair run at the same payload.
    pub speedup: f64,
    /// Mean round-trip latency pooled over every pair (µs).
    pub latency_us: f64,
    /// Doorbell MMIO writes per packet (per-queue EVENT_IDX coalescing).
    pub doorbells_per_packet: f64,
    /// MSI-X interrupts per packet.
    pub irqs_per_packet: f64,
    /// Fraction of the run the upstream (device→host) wire was busy.
    pub link_util_up: f64,
    /// Fraction of the run the downstream (host→device) wire was busy.
    pub link_util_down: f64,
}

/// Pipeline depth per queue used by the E19 sweep (the knee of the E12
/// depth curve: suppression fully engaged, ring nowhere near full).
pub const MQ_SWEEP_DEPTH: usize = 16;

/// E19: multi-queue virtio-net scaling — `VIRTIO_NET_F_MQ` with one
/// flow, one MSI-X vector, and one host core per queue pair, swept over
/// pair counts at a fixed payload. Each pair runs the E12 pipelined
/// workload; the device walks all rings through per-pair DMA tag
/// contexts that share wire bandwidth but not latency chains. Small
/// frames stay ring-walker-limited (near-linear scaling), while at the
/// top of the sweep large frames push the Gen2 x2 upstream wire toward
/// saturation — the crossover where the *link*, not the walker, caps
/// aggregate throughput.
pub fn mq_scaling(params: ExperimentParams, payload: usize) -> Vec<MqRow> {
    let queues = [1u16, 2, 4, 8, 16];
    let configs: Vec<TestbedConfig> = queues
        .iter()
        .map(|&q| {
            let mut cfg =
                TestbedConfig::paper(DriverKind::VirtioMq, payload, params.packets, params.seed);
            cfg.options.mq_queue_pairs = q;
            cfg
        })
        .collect();
    let results = parallel_map(configs, params.threads, |cfg| {
        crate::mq::run_mq(cfg, MQ_SWEEP_DEPTH)
    });
    let base_pps = results[0].pps;
    results
        .into_iter()
        .map(|mut r| {
            assert_eq!(r.verify_failures, 0);
            MqRow {
                queues: r.queues,
                pps: r.pps,
                speedup: r.pps / base_pps,
                latency_us: r.mean_latency_us(),
                doorbells_per_packet: r.doorbells_per_packet(),
                irqs_per_packet: r.irqs_per_packet(),
                link_util_up: r.link_util_up,
                link_util_down: r.link_util_down,
            }
        })
        .collect()
}

/// One row of the E20 out-of-order descriptor-pipeline sweep.
pub struct OooRow {
    /// UDP payload bytes.
    pub payload: usize,
    /// Ring layout: `"split"` or `"packed"`.
    pub layout: &'static str,
    /// Active queue pairs.
    pub queues: u16,
    /// Outstanding non-posted reads per walker tag (`pipeline_depth`).
    pub depth: usize,
    /// Aggregate throughput (packets/s).
    pub pps: f64,
    /// Speedup over the depth-1 run of the same (layout, queues) cell.
    pub speedup: f64,
    /// Fraction of the run the upstream (device→host) wire was busy.
    pub link_util_up: f64,
    /// Fraction of the run the downstream (host→device) wire was busy.
    pub link_util_down: f64,
    /// Highest number of non-posted reads one walker tag held in flight.
    pub peak_np_inflight: u64,
    /// What caps throughput at this point: `"link"` once either wire
    /// direction passes [`OOO_LINK_BOUND`] occupancy, else `"walker"`.
    pub bottleneck: &'static str,
}

/// Pipeline depths the E20 sweep walks.
pub const OOO_DEPTHS: [usize; 4] = [1, 2, 4, 8];

/// Queue-pair counts the E20 sweep walks.
pub const OOO_QUEUES: [u16; 3] = [1, 4, 8];

/// Wire-occupancy fraction above which a sweep point is classified as
/// link-bound rather than walker-bound.
pub const OOO_LINK_BOUND: f64 = 0.85;

/// E20: out-of-order descriptor pipeline. Sweeps the walker's
/// outstanding-read window 1→8 across {split, packed} × {1, 4, 8}
/// queue pairs at one payload. Depth 1 is the E19 engine bit-for-bit
/// (serial walkers, strict FIFO reads); deeper windows overlap the
/// descriptor fetch of round-trip *k+1* with the payload DMA of
/// round-trip *k* under relaxed-ordering completion, moving the 256 B
/// ceiling from the walker's non-posted latency chain toward Gen2 x2
/// wire saturation — the crossover each row's `bottleneck` column
/// reports.
pub fn pipeline_depth(params: ExperimentParams, payload: usize) -> Vec<OooRow> {
    let layouts = [
        (DriverKind::VirtioMq, "split"),
        (DriverKind::VirtioMqPacked, "packed"),
    ];
    let mut configs = Vec::new();
    for (driver, _) in layouts {
        for &queues in &OOO_QUEUES {
            for &depth in &OOO_DEPTHS {
                let mut cfg = TestbedConfig::paper(driver, payload, params.packets, params.seed);
                cfg.options.mq_queue_pairs = queues;
                cfg.options.pipeline_depth = depth;
                configs.push(cfg);
            }
        }
    }
    let results = parallel_map(configs, params.threads, |cfg| {
        crate::mq::run_mq(cfg, MQ_SWEEP_DEPTH)
    });

    let mut rows = Vec::new();
    let mut it = results.into_iter();
    for (_, layout) in layouts {
        for &queues in &OOO_QUEUES {
            let group: Vec<crate::mq::MqThroughputResult> =
                (0..OOO_DEPTHS.len()).map(|_| it.next().unwrap()).collect();
            let base_pps = group[0].pps;
            for (&depth, r) in OOO_DEPTHS.iter().zip(group) {
                assert_eq!(r.verify_failures, 0);
                let occupied = r.link_util_up.max(r.link_util_down);
                rows.push(OooRow {
                    payload,
                    layout,
                    queues,
                    depth,
                    pps: r.pps,
                    speedup: r.pps / base_pps,
                    link_util_up: r.link_util_up,
                    link_util_down: r.link_util_down,
                    peak_np_inflight: r.peak_np_inflight,
                    bottleneck: if occupied >= OOO_LINK_BOUND {
                        "link"
                    } else {
                        "walker"
                    },
                });
            }
        }
    }
    rows
}

/// One row of the E21 multi-tenant scaling sweep.
pub struct TenantRow {
    /// Simulated tenants sharing the device.
    pub tenants: u16,
    /// Arbiter policy name.
    pub policy: &'static str,
    /// Aggregate throughput across all tenants (packets/s).
    pub pps: f64,
    /// Worst per-tenant p99 round-trip latency (µs).
    pub worst_p99_us: f64,
    /// Jain fairness index over the tenants' service rates.
    pub jain: f64,
    /// Fraction of doorbells that queued behind another tenant's walk.
    pub queued_frac: f64,
    /// Fraction of the run the upstream (device→host) wire was busy.
    pub link_util_up: f64,
    /// Fraction of the run the downstream (host→device) wire was busy.
    pub link_util_down: f64,
}

/// Tenant counts the E21 sweep walks (power-of-two slices up to the
/// full [`crate::mq::MAX_QUEUE_PAIRS`] device).
pub const TENANT_COUNTS: [u16; 7] = [1, 2, 4, 8, 16, 32, 64];

/// E21: multi-tenant vhost multiplexing — M guest VMs, each with its
/// own virtio-net front end on a private queue-pair slice, relayed by
/// per-tenant vhost workers and multiplexed onto the shared walker
/// engine by the QoS arbiter. Swept over tenant counts × every arbiter
/// policy at a fixed payload. Reports aggregate pps (the multiplexing
/// cost), the worst tenant's p99 (the isolation knee), and the Jain
/// index of per-tenant service rates (what the policy actually
/// guarantees).
pub fn tenant_scaling(params: ExperimentParams, payload: usize) -> Vec<TenantRow> {
    let mut configs = Vec::new();
    for policy in vf_tenant::ArbiterPolicy::all() {
        for &tenants in &TENANT_COUNTS {
            let mut cfg = TestbedConfig::paper(
                DriverKind::VirtioTenant,
                payload,
                params.packets,
                params.seed,
            );
            cfg.options.mq_queue_pairs = tenants;
            cfg.options.tenant_vhost = true;
            cfg.options.tenant_policy = policy;
            configs.push(cfg);
        }
    }
    let results = parallel_map(configs, params.threads, |cfg| {
        crate::tenant::run_tenants(cfg, MQ_SWEEP_DEPTH)
    });
    results
        .into_iter()
        .map(|mut r| {
            assert_eq!(r.verify_failures, 0);
            TenantRow {
                tenants: r.tenants,
                policy: r.policy.name(),
                pps: r.pps,
                worst_p99_us: r.worst_p99_us(),
                jain: r.jain_index,
                queued_frac: if r.arb_grants == 0 {
                    0.0
                } else {
                    r.arb_queued as f64 / (r.arb_queued + r.arb_grants) as f64
                },
                link_util_up: r.link_util_up,
                link_util_down: r.link_util_down,
            }
        })
        .collect()
}

/// One policy row of the E21 noisy-neighbor isolation experiment.
pub struct NoisyRow {
    /// Arbiter policy name.
    pub policy: &'static str,
    /// Aggregate throughput with the noisy neighbor active (packets/s).
    pub pps: f64,
    /// The noisy tenant's service rate (packets/s).
    pub noisy_pps: f64,
    /// Worst victim p99 with the noisy neighbor active (µs).
    pub victim_p99_us: f64,
    /// Worst victim p99 in the uniform baseline (no noisy tenant, µs).
    pub baseline_p99_us: f64,
    /// Victim p99 inflation: `victim_p99_us / baseline_p99_us`.
    pub p99_inflation: f64,
    /// Jain fairness index over the active tenants' rates.
    pub jain: f64,
}

/// Tenants in the noisy-neighbor cell (tenant 0 is the aggressor).
pub const NOISY_TENANTS: u16 = 8;

/// The documented isolation bound: under **weighted share**, a victim
/// tenant's p99 stays within this factor of its uniform-load baseline
/// while the noisy neighbor saturates its own share with a 4×-deep
/// window and a top priority class. Strict priority, by construction,
/// does not honor this bound — that contrast is the experiment.
pub const WFQ_VICTIM_P99_BOUND: f64 = 2.0;

/// E21: noisy-neighbor isolation. Eight tenants, tenant 0 configured
/// as the aggressor ([`vf_tenant::TenantConfig::noisy`]: top strict
/// priority, 4× window depth); the victims run the uniform workload.
/// One row per arbiter policy, each compared against that policy's
/// uniform baseline run.
pub fn noisy_neighbor(params: ExperimentParams, payload: usize) -> Vec<NoisyRow> {
    let mut tenant_cfgs = vec![vf_tenant::TenantConfig::default(); NOISY_TENANTS as usize];
    tenant_cfgs[0] = vf_tenant::TenantConfig::noisy();
    let mut configs = Vec::new();
    for policy in vf_tenant::ArbiterPolicy::all() {
        for noisy in [false, true] {
            let mut cfg = TestbedConfig::paper(
                DriverKind::VirtioTenant,
                payload,
                params.packets,
                params.seed,
            );
            cfg.options.mq_queue_pairs = NOISY_TENANTS;
            cfg.options.tenant_vhost = true;
            cfg.options.tenant_policy = policy;
            if noisy {
                cfg.options.tenant_configs = tenant_cfgs.clone();
            }
            configs.push(cfg);
        }
    }
    let results = parallel_map(configs, params.threads, |cfg| {
        crate::tenant::run_tenants(cfg, MQ_SWEEP_DEPTH)
    });
    let mut it = results.into_iter();
    vf_tenant::ArbiterPolicy::all()
        .iter()
        .map(|policy| {
            let mut base = it.next().expect("baseline run");
            let mut noisy = it.next().expect("noisy run");
            assert_eq!(noisy.verify_failures, 0);
            assert_eq!(base.verify_failures, 0);
            let victim_p99 = (1..NOISY_TENANTS as usize)
                .map(|t| noisy.p99_us(t))
                .fold(0.0, f64::max);
            let baseline_p99 = (1..NOISY_TENANTS as usize)
                .map(|t| base.p99_us(t))
                .fold(0.0, f64::max);
            NoisyRow {
                policy: policy.name(),
                pps: noisy.pps,
                noisy_pps: noisy.per_tenant_pps[0],
                victim_p99_us: victim_p99,
                baseline_p99_us: baseline_p99,
                p99_inflation: victim_p99 / baseline_p99,
                jain: noisy.jain_index,
            }
        })
        .collect()
}

/// One queue-depth point of an E24 workload row.
pub struct BlkQdPoint {
    /// Outstanding requests held by the front end.
    pub depth: usize,
    /// Requests per second.
    pub iops: f64,
    /// Data throughput (MB/s).
    pub mbps: f64,
    /// Per-request completion latency.
    pub latency: Summary,
    /// Doorbell MMIO writes per request (EVENT_IDX coalescing).
    pub doorbells_per_request: f64,
    /// MSI-X interrupts per request.
    pub irqs_per_request: f64,
}

/// One workload row of the E24 storage sweep.
pub struct BlkStorageRow {
    /// Access pattern.
    pub pattern: crate::blk::BlkPattern,
    /// Bytes per request.
    pub io_bytes: u32,
    /// The virtio-blk points, one per entry of [`BLK_DEPTHS`].
    pub points: Vec<BlkQdPoint>,
    /// The XDMA character-device baseline (always depth 1: the vendor
    /// driver exposes no request queue to keep outstanding I/O in).
    pub xdma: BlkQdPoint,
}

/// Queue depths the E24 sweep walks.
pub const BLK_DEPTHS: [usize; 6] = [1, 2, 4, 8, 16, 32];

/// The E24 workload matrix: 4K random read/write (the IOPS side of a
/// storage datasheet) and 128K sequential read/write (the bandwidth
/// side).
pub const BLK_WORKLOADS: [(crate::blk::BlkPattern, u32); 4] = [
    (crate::blk::BlkPattern::RandomRead, 4096),
    (crate::blk::BlkPattern::RandomWrite, 4096),
    (crate::blk::BlkPattern::SequentialRead, 128 << 10),
    (crate::blk::BlkPattern::SequentialWrite, 128 << 10),
];

fn blk_point(r: &crate::blk::BlkRunResult) -> BlkQdPoint {
    assert_eq!(r.verify_failures, 0, "{} corrupted data", r.pattern.name());
    let mut lat = SampleSet::from_us(r.latency.raw().to_vec());
    BlkQdPoint {
        depth: r.depth,
        iops: r.iops,
        mbps: r.mbps,
        latency: lat.summary(),
        doorbells_per_request: r.doorbells_per_request(),
        irqs_per_request: r.irqs_per_request(),
    }
}

/// E24: the virtio-blk storage sweep. Every [`BLK_WORKLOADS`] pattern
/// runs across [`BLK_DEPTHS`] outstanding requests through the block
/// persona's request-queue walker, plus once through the XDMA
/// character device. Queue depth is the axis the paper's echo worlds
/// cannot show: the virtio request queue overlaps DMA with submission,
/// so IOPS climbs with depth until the link saturates, while the
/// vendor driver's one-transfer-at-a-time model stays flat by
/// construction.
pub fn blk_storage(params: ExperimentParams) -> Vec<BlkStorageRow> {
    // (workload index, Some(depth) = virtio point | None = XDMA baseline)
    let mut jobs: Vec<(usize, Option<usize>)> = Vec::new();
    for w in 0..BLK_WORKLOADS.len() {
        for &d in &BLK_DEPTHS {
            jobs.push((w, Some(d)));
        }
        jobs.push((w, None));
    }
    let results = parallel_map(jobs.clone(), params.threads, |&(w, depth)| {
        let (pattern, io_bytes) = BLK_WORKLOADS[w];
        let seed = params.seed.wrapping_mul(1000).wrapping_add(w as u64 * 37);
        match depth {
            Some(d) => {
                let cfg = TestbedConfig::paper(
                    DriverKind::VirtioBlk,
                    io_bytes as usize,
                    params.packets,
                    seed,
                );
                crate::blk::run_blk(&cfg, pattern, io_bytes, d)
            }
            None => {
                let cfg =
                    TestbedConfig::paper(DriverKind::Xdma, io_bytes as usize, params.packets, seed);
                crate::blk::run_xdma_storage(&cfg, pattern, io_bytes)
            }
        }
    });
    let per_row = BLK_DEPTHS.len() + 1;
    BLK_WORKLOADS
        .iter()
        .zip(results.chunks(per_row))
        .map(|(&(pattern, io_bytes), chunk)| BlkStorageRow {
            pattern,
            io_bytes,
            points: chunk[..BLK_DEPTHS.len()].iter().map(blk_point).collect(),
            xdma: blk_point(&chunk[BLK_DEPTHS.len()]),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExperimentParams {
        ExperimentParams {
            packets: 300,
            threads: 4,
            ..ExperimentParams::quick(7)
        }
    }

    #[test]
    fn matrix_has_all_cells() {
        let mut m = run_matrix(ExperimentParams {
            packets: 120,
            threads: 8,
            ..ExperimentParams::quick(3)
        });
        assert_eq!(m.cells.len(), 10);
        for driver in [DriverKind::Virtio, DriverKind::Xdma] {
            for &p in &PAPER_PAYLOADS {
                let c = m.cell(driver, p);
                assert_eq!(c.packets, 120);
                assert_eq!(c.verify_failures, 0);
            }
        }
    }

    #[test]
    fn headline_shapes_hold() {
        let mut m = run_matrix(ExperimentParams {
            packets: 2_500,
            threads: 8,
            ..ExperimentParams::quick(11)
        });
        // Table I shape: VirtIO wins p95 at every payload.
        for row in table1(&mut m) {
            assert!(
                row.virtio.p95_us < row.xdma.p95_us,
                "p95 at {}B: VirtIO {} vs XDMA {}",
                row.payload,
                row.virtio.p95_us,
                row.xdma.p95_us
            );
        }
        // Fig. 4: VirtIO hardware exceeds software.
        for row in fig4(&mut m) {
            assert!(row.hw.mean_us > row.sw.mean_us, "payload {}", row.payload);
        }
        // Fig. 5: XDMA software exceeds hardware.
        for row in fig5(&mut m) {
            assert!(row.sw.mean_us > row.hw.mean_us, "payload {}", row.payload);
        }
        // Fig. 3: lower VirtIO variance.
        for row in fig3(&mut m) {
            assert!(row.virtio.std_us < row.xdma.std_us);
            assert_eq!(row.virtio_hist.total(), 2_500);
        }
    }

    #[test]
    fn pipeline_depth_sweep_shapes_hold() {
        let rows = pipeline_depth(
            ExperimentParams {
                packets: 400,
                threads: 8,
                ..ExperimentParams::quick(13)
            },
            256,
        );
        assert_eq!(rows.len(), 2 * OOO_QUEUES.len() * OOO_DEPTHS.len());
        for group in rows.chunks(OOO_DEPTHS.len()) {
            // Depth 1 is the baseline of its own group...
            assert_eq!(group[0].depth, 1);
            assert_eq!(group[0].speedup, 1.0);
            assert_eq!(group[0].peak_np_inflight, 0);
            for r in &group[1..] {
                // ...and any deeper window is no slower.
                assert!(
                    r.speedup >= 1.0,
                    "{} q{} depth {}: speedup {}",
                    r.layout,
                    r.queues,
                    r.depth,
                    r.speedup
                );
                assert!(r.peak_np_inflight > 1, "pipeline never materialized");
                assert!(r.peak_np_inflight <= r.depth as u64);
            }
        }
    }

    #[test]
    fn bypass_faster_than_driver_path() {
        let rows = bypass(tiny());
        assert_eq!(rows.len(), 4);
        for r in &rows {
            assert!(r.read_us > 0.0 && r.write_us > 0.0);
            if r.size <= 1024 {
                // At matched size the bypass path skips every software
                // step, so it must beat the 1 KiB driver-path baseline.
                assert!(
                    r.round_trip_us < r.driver_path_us,
                    "{}B bypass {} vs driver {}",
                    r.size,
                    r.round_trip_us,
                    r.driver_path_us
                );
            }
        }
        // Larger transfers take longer.
        assert!(rows[3].read_us > rows[0].read_us);
    }

    #[test]
    fn noise_sweep_monotone_tails() {
        let rows = noise_sweep(ExperimentParams {
            packets: 1500,
            threads: 8,
            ..ExperimentParams::quick(5)
        });
        assert_eq!(rows.len(), 4);
        // Zero noise leaves only deterministic buffer-alignment effects
        // (TLP splitting varies with the rotating slot addresses), so the
        // spread collapses to a couple of µs; tails grow with scale.
        assert!(
            rows[0].virtio.std_us < 2.5,
            "std = {}",
            rows[0].virtio.std_us
        );
        assert!(rows[0].virtio.std_us < rows[2].virtio.std_us);
        assert!(rows[3].virtio.p99_us > rows[1].virtio.p99_us);
        assert!(rows[3].xdma.p99_us > rows[1].xdma.p99_us);
    }

    #[test]
    fn event_idx_reduces_notifications() {
        let rows = virtio_features(ExperimentParams {
            packets: 400,
            threads: 8,
            ..ExperimentParams::quick(9)
        });
        assert_eq!(rows.len(), 6);
        for r in &rows {
            // One doorbell and one interrupt per packet in this
            // request-response workload, regardless of features.
            assert!(r.notifications <= 400 + 2);
            assert!(r.irqs >= 400);
        }
    }

    #[test]
    fn xdma_ablation_slows_xdma() {
        let rows = xdma_irq_ablation(ExperimentParams {
            packets: 400,
            threads: 8,
            ..ExperimentParams::quick(4)
        });
        for r in &rows {
            assert!(
                r.with_irq.mean_us > r.back_to_back.mean_us + 2.0,
                "payload {}: {} vs {}",
                r.payload,
                r.with_irq.mean_us,
                r.back_to_back.mean_us
            );
        }
    }

    #[test]
    fn console_cheaper_than_net() {
        let rows = device_types(ExperimentParams {
            packets: 400,
            threads: 8,
            ..ExperimentParams::quick(8)
        });
        let console64 = rows
            .iter()
            .find(|r| r.device_type == DeviceType::Console && r.payload == 64)
            .unwrap();
        let net64 = rows
            .iter()
            .find(|r| r.device_type == DeviceType::Net && r.payload == 64)
            .unwrap();
        // No UDP/IP stack and no 42-byte encapsulation → faster.
        assert!(console64.total.mean_us < net64.total.mean_us);
    }

    #[test]
    fn pmd_beats_kernel_mean_and_tail() {
        let rows = pmd_tails(ExperimentParams {
            packets: 800,
            threads: 8,
            ..ExperimentParams::quick(21)
        });
        assert_eq!(rows.len(), 5);
        for r in &rows {
            assert!(
                r.pmd.mean_us < r.virtio.mean_us,
                "{}B: PMD {} vs kernel {}",
                r.payload,
                r.pmd.mean_us,
                r.virtio.mean_us
            );
            // Exactly one doorbell per packet: suppression never lapses.
            assert!((r.pmd_doorbells_per_packet - 1.0).abs() < 1e-9);
            // The poll path skips the blocking-noise draw: thinner tail.
            let pmd_gap = r.pmd.p99_us - r.pmd.median_us;
            let kernel_gap = r.virtio.p99_us - r.virtio.median_us;
            assert!(
                pmd_gap < kernel_gap,
                "{}B: PMD p99−p50 {} vs kernel {}",
                r.payload,
                pmd_gap,
                kernel_gap
            );
        }
    }

    #[test]
    fn pmd_crossover_cpu_amortizes_with_load() {
        let rows = pmd_crossover(ExperimentParams {
            packets: 400,
            threads: 8,
            ..ExperimentParams::quick(6)
        });
        assert_eq!(rows.len(), 5);
        // The busy poller's CPU bill per packet shrinks as load rises
        // (the idle spin amortizes over more packets)...
        assert!(
            rows[0].busy_cpu_us > rows[4].busy_cpu_us,
            "2k pps {} vs 40k pps {}",
            rows[0].busy_cpu_us,
            rows[4].busy_cpu_us
        );
        for r in &rows {
            // ...while its latency stays at or below the kernel driver's.
            assert!(
                r.busy.mean_us < r.kernel.mean_us,
                "{} pps: busy {} vs kernel {}",
                r.load_pps,
                r.busy.mean_us,
                r.kernel.mean_us
            );
            // The adaptive variant caps the burn at the poll threshold.
            assert!(
                r.adaptive_cpu_us <= r.busy_cpu_us + 1.0,
                "{} pps: adaptive {} vs busy {}",
                r.load_pps,
                r.adaptive_cpu_us,
                r.busy_cpu_us
            );
        }
    }

    #[test]
    fn packed_ring_halves_descriptor_reads() {
        let rows = packed_ring(ExperimentParams {
            packets: 500,
            threads: 8,
            ..ExperimentParams::quick(13)
        });
        assert_eq!(rows.len(), 5);
        for r in &rows {
            // The one-area layout fuses the availability signal into the
            // descriptor: 2 device-side reads per round trip vs the split
            // layout's 4 (avail + table, both directions).
            assert!(
                r.packed_desc_reads_per_packet < r.split_desc_reads_per_packet,
                "{}B: packed {} vs split {} desc reads/pkt",
                r.payload,
                r.packed_desc_reads_per_packet,
                r.split_desc_reads_per_packet
            );
            assert!((r.packed_desc_reads_per_packet - 2.0).abs() < 0.05);
            assert!((r.split_desc_reads_per_packet - 4.0).abs() < 0.05);
            // Same host stack, same device timing otherwise: the means
            // stay in the same latency regime.
            assert!((r.packed.mean_us - r.split.mean_us).abs() < 10.0);
        }
    }

    #[test]
    fn csum_offload_shrinks_software_component() {
        let rows = csum_offload(ExperimentParams {
            packets: 600,
            threads: 8,
            ..ExperimentParams::quick(2)
        });
        let big = rows.iter().find(|r| r.payload == 1024).unwrap();
        assert!(big.sw_component_offload < big.sw_component_sw_csum);
    }

    /// The E21 acceptance gate: while the noisy neighbor saturates its
    /// share, weighted share keeps the worst victim p99 within
    /// [`WFQ_VICTIM_P99_BOUND`]× of the uniform baseline, and is never
    /// less fair than strict priority.
    #[test]
    fn noisy_neighbor_isolation_bound_holds() {
        let rows = noisy_neighbor(
            ExperimentParams {
                packets: 1_200,
                threads: 8,
                ..ExperimentParams::quick(5)
            },
            256,
        );
        assert_eq!(rows.len(), 3);
        let wfq = rows.iter().find(|r| r.policy == "weighted-share").unwrap();
        let strict = rows.iter().find(|r| r.policy == "strict-priority").unwrap();
        assert!(
            wfq.p99_inflation <= WFQ_VICTIM_P99_BOUND,
            "weighted-share victim p99 inflated {}× (bound {WFQ_VICTIM_P99_BOUND}×)",
            wfq.p99_inflation
        );
        assert!(
            wfq.jain >= strict.jain,
            "weighted-share jain {} vs strict-priority {}",
            wfq.jain,
            strict.jain
        );
        // The aggressor actually hit the device harder than a uniform
        // tenant would: its deeper window yields a higher service rate.
        assert!(wfq.noisy_pps > wfq.pps / NOISY_TENANTS as f64);
    }

    /// The E24 acceptance shape: 4K random-read IOPS strictly climbs
    /// QD1 → QD4, and the XDMA baseline has no depth axis at all.
    #[test]
    fn blk_storage_scales_with_depth() {
        let rows = blk_storage(ExperimentParams {
            packets: 250,
            threads: 8,
            ..ExperimentParams::quick(31)
        });
        assert_eq!(rows.len(), BLK_WORKLOADS.len());
        for row in &rows {
            assert_eq!(row.points.len(), BLK_DEPTHS.len());
            assert_eq!(row.xdma.depth, 1);
            assert!(row.xdma.iops > 0.0);
        }
        let rr4k = &rows[0];
        assert_eq!(rr4k.pattern, crate::blk::BlkPattern::RandomRead);
        assert!(
            rr4k.points[0].iops < rr4k.points[1].iops && rr4k.points[1].iops < rr4k.points[2].iops,
            "4K rand-read must scale QD1→QD4: {} / {} / {}",
            rr4k.points[0].iops,
            rr4k.points[1].iops,
            rr4k.points[2].iops
        );
        // 128K sequential moves more data than 4K random at equal depth.
        assert!(rows[2].points[2].mbps > rows[0].points[2].mbps);
    }
}
