//! # vf-virtio — a from-scratch VirtIO 1.2 implementation
//!
//! The protocol substrate of the paper: split virtqueues laid out in raw
//! little-endian guest memory, operated from both sides —
//!
//! * [`driver_queue`] — the front-end (in-kernel driver) half: descriptor
//!   chains, avail publishing, doorbell suppression, used consumption;
//! * [`device_queue`] — the back-end (FPGA) half: step-wise avail/
//!   descriptor fetching (so the FPGA controller can charge each access
//!   as a timed PCIe DMA read), used publishing, interrupt suppression;
//! * [`ring`] — the `virtq_desc`/`virtq_avail`/`virtq_used` memory layout
//!   and the EVENT_IDX predicate;
//! * [`packed`] — the VirtIO 1.2 packed layout, both halves;
//! * [`layout`] — one ring type per side ([`DeviceRing`], [`DriverRing`])
//!   over both layouts, so walkers and front ends are written once;
//! * [`features`] — feature negotiation and the device-status state
//!   machine;
//! * [`pci`] — the modern-PCI transport register file (common config,
//!   ISR) the FPGA maps into BAR0, and the driver's view of it,
//!   [`VirtioTransport`];
//! * device types: [`net`] (this paper's extension), [`console`] (the
//!   prior work's device), [`block`] (additional type), enumerated by
//!   [`device_type`];
//! * [`mem`] — the [`mem::GuestMemory`] abstraction both
//!   sides go through.
//!
//! No external virtio crates are used; everything is implemented against
//! the VirtIO 1.2 specification, which is what the paper's FPGA framework
//! implements in RTL.
//!
//! ```
//! use vf_virtio::driver_queue::{BufferSpec, DriverQueue};
//! use vf_virtio::{DeviceQueue, GuestMemory, VecMemory, VirtqueueLayout};
//!
//! let mut mem = VecMemory::new(1 << 16);
//! let layout = VirtqueueLayout::contiguous(0x1000, 8);
//! let mut driver = DriverQueue::new(&mut mem, layout, false);
//! let mut device = DeviceQueue::new(layout, false, false);
//!
//! // Driver publishes a request/response chain; device consumes it.
//! mem.write(0x8000, b"ping");
//! driver
//!     .add_and_publish(
//!         &mut mem,
//!         &[BufferSpec::readable(0x8000, 4), BufferSpec::writable(0x9000, 4)],
//!     )
//!     .unwrap();
//! let chain = device.pop_chain(&mem).unwrap().unwrap();
//! assert_eq!(mem.read_vec(chain.bufs[0].addr, 4), b"ping");
//! mem.write(chain.bufs[1].addr, b"pong");
//! let old = device.complete(&mut mem, chain.head, 4);
//! assert!(device.should_interrupt(&mem, old));
//! assert_eq!(driver.pop_used(&mut mem).unwrap().len, 4);
//! ```

#![warn(missing_docs)]

pub mod block;
pub mod console;
pub mod device_queue;
pub mod device_type;
pub mod driver_queue;
pub mod features;
pub mod layout;
pub mod loopback;
pub mod mem;
pub mod net;
pub mod packed;
pub mod pci;
pub mod ring;
pub mod rng;

pub use device_queue::{Chain, ChainBuf, ChainError, DeviceQueue};
pub use device_type::DeviceType;
pub use driver_queue::{BufferSpec, DriverQueue, QueueError};
pub use features::{feature, status, Negotiation, NegotiationError};
pub use layout::{DeviceRing, DriverRing, RingChain, Used};
pub use loopback::{AtomicMemory, LoopbackPair, MemHandle};
pub use mem::{GuestMemory, VecMemory};
pub use packed::{PackedDesc, PackedDeviceQueue, PackedDriverQueue};
pub use pci::{CfgEvent, CommonCfg, IsrStatus, QueueRegs, VirtioTransport, MSI_NO_VECTOR};
pub use ring::{vring_need_event, Desc, UsedElem, VirtqueueLayout};
