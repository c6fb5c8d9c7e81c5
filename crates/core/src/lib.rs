//! # virtio-fpga — host-FPGA PCIe communication testbed
//!
//! Reproduction library for *"Performance Evaluation of VirtIO Device
//! Drivers for Host-FPGA PCIe Communication"* (IPDPSW 2024): a complete,
//! simulated testbed comparing in-kernel **VirtIO drivers talking
//! directly to an FPGA** against the vendor-provided **XDMA
//! character-device driver**, over the same transaction-level PCIe link
//! and DMA-engine models.
//!
//! ```
//! use virtio_fpga::{DriverKind, Testbed, TestbedConfig};
//!
//! let cfg = TestbedConfig::paper(DriverKind::Virtio, 64, 200, 42);
//! let mut result = Testbed::new(cfg).run();
//! assert_eq!(result.verify_failures, 0);
//! let s = result.total_summary();
//! assert!(s.mean_us > 10.0 && s.mean_us < 100.0);
//! ```
//!
//! * [`calibration`] — every timing constant, anchored and documented;
//! * [`driver_model`] — the generic harness every driver world plugs
//!   into (the [`driver_model::DriverModel`] trait + [`driver_model::run_world`]);
//! * [`testbed`] — the discrete-event worlds for both driver stacks;
//! * [`pmd`] — the third contender: the `vf-pmd` userspace kernel-bypass
//!   poll-mode driver world (E15/E16);
//! * [`mq`] — the multi-queue virtio-net worlds: N queue pairs,
//!   per-queue MSI-X, one simulated host core per pair (E19; at one
//!   pair, the E12 pipelined workload);
//! * [`blk`] — the virtio-blk device class (E24): serial round-trip
//!   world, queue-depth storage sweeps, and the XDMA storage baseline;
//! * [`tenant`] — the multi-tenant vhost multiplexing worlds (E21): M
//!   guest VMs sharing one device through per-tenant vhost workers and
//!   a pluggable QoS arbiter;
//! * [`report`] — sample sets, summaries, table rendering;
//! * [`experiments`] — one function per paper artifact (Fig. 3, Fig. 4,
//!   Fig. 5, Table I) plus the extension experiments E5–E11.

#![warn(missing_docs)]

pub mod blk;
pub mod calibration;
pub mod driver_model;
pub mod experiments;
pub mod metered;
pub mod mq;
pub mod pmd;
pub mod report;
pub mod tenant;
pub mod testbed;
pub mod traced;

pub use blk::{pattern_image, run_blk, run_xdma_storage, BlkPattern, BlkRunResult, BLK_SEG_MAX};
pub use calibration::Calibration;
pub use driver_model::{run_world, DriverModel, RoundTripRecorder, RunStats};
pub use experiments::xdma_serial_pps;
pub use metered::{metered, metered_run, metered_run_with, MeteredRun};
pub use mq::{run_mq, MqThroughputResult, MAX_QUEUE_PAIRS};
pub use pmd::{run_pmd, PmdRun};
pub use report::{render_breakdown, render_table1, RunResult};
pub use tenant::{run_tenants, TenantThroughputResult};
pub use testbed::{DriverKind, Testbed, TestbedConfig, TestbedOptions};
pub use traced::{reconcile, traced_run, TracedRun};
pub use vf_tenant::ArbiterPolicy;

/// The payload sizes of the paper's evaluation (§V).
pub const PAPER_PAYLOADS: [usize; 5] = [64, 128, 256, 512, 1024];

/// Packets per configuration in the paper's methodology (§III-B3).
pub const PAPER_PACKETS: usize = 50_000;
