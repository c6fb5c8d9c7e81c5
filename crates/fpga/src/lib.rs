//! # vf-fpga — the FPGA-side substrate
//!
//! The two FPGA designs of the paper's experiments, over the shared PCIe
//! and DMA-engine models:
//!
//! * [`controller`] — the **VirtIO controller** of Fig. 2: VirtIO
//!   configuration structures in BAR0, the queue-processing FSM that
//!   walks rings in host memory via timed DMA, device personas
//!   (net/console/block), checksum offload, the driver-bypass DMA port,
//!   and MSI-X;
//! * [`xdma_design`] — the **XDMA example design** used to test the
//!   vendor driver: register BAR + H2C/C2H engines + BRAM on AXI-MM;
//! * [`user_logic`] — pluggable logic behind the controller's queue
//!   interface: UDP echo (the paper's workload), console echo, and a
//!   multi-rule SmartNIC firewall (ref. \[30\]);
//! * [`mem`] — BRAM/DDR card memories with 125 MHz port timing;
//! * [`counters`] — the 8 ns-resolution hardware performance counters.
//!
//! ```
//! use vf_fpga::user_logic::{UdpEcho, UserLogic};
//!
//! // The paper's workload: the fabric echoes a UDP frame with the
//! // addresses swapped, at 8 bytes per 125 MHz cycle.
//! let mut frame = vec![0u8; 64];
//! frame[12] = 0x08; // IPv4
//! frame[14] = 0x45;
//! frame[23] = 17; // UDP
//! let mut echo = UdpEcho::default();
//! let out = echo.on_frame(&mut frame);
//! assert!(out.respond);
//! assert!(out.cycles > 0);
//! ```

#![warn(missing_docs)]

pub mod controller;
pub mod counters;
pub mod mem;
pub mod user_logic;
pub mod xdma_design;

pub use controller::{
    bar0, BlkCompletion, BlkOutcome, ControllerTiming, DeviceStats, MmioEvent, PendingResponse,
    Persona, RxOutcome, TxOutcome, VirtioFpgaDevice,
};
pub use counters::{IntervalStats, PerfCounter, RoundTripCounters};
pub use mem::{CardKind, CardStore};
pub use user_logic::{
    ConsoleEcho, Firewall, FiveTuple, FwAction, FwRule, LogicOutcome, UdpEcho, UserLogic,
};
pub use xdma_design::{XdmaExampleDesign, XdmaRun};
