//! # vf-hostsw — host software stack model
//!
//! Everything that runs on the Fedora 37 host of the paper's testbed:
//!
//! * [`cost`] — the software cost model (syscalls, copies, IRQs,
//!   wakeups) with the host-noise model applied per step;
//! * [`packet`] — Ethernet/IPv4/UDP framing with real checksums;
//! * [`netcfg`] — routing table + ARP cache (manually populated, as the
//!   paper's §III-B1 describes);
//! * [`udp`] — the socket send/receive kernel paths;
//! * [`virtio_pci`] — the VirtIO 1.2 §3.1.1 init sequence (reset,
//!   feature negotiation, queue programming, DRIVER_OK) that every
//!   probe below runs, written once;
//! * [`virtio_net`] — the in-kernel virtio-pci/virtio-net front-end
//!   driver (probe sequence, xmit path, NAPI receive) over the real
//!   `vf-virtio` rings, split or VirtIO 1.2 *packed* (experiment E17);
//! * [`virtio_console`] — the virtio-console (hvc) front end of the
//!   prior work, for the device-type comparison (E9);
//! * [`virtio_blk`] — the in-kernel virtio-blk front end: 3-part
//!   request chains, queue-depth-driven outstanding requests, and the
//!   `SEG_MAX`/`RO`/`FLUSH` negotiation (experiment E24);
//! * [`virtio_mq`] — the `VIRTIO_NET_F_MQ` multi-queue front end: N
//!   queue pairs plus the control virtqueue (experiment E19), over
//!   either layout (E20's MQ×packed fusion);
//! * [`mq_ctrl`] — the ctrl-vq command serialization;
//! * [`multicore`] — per-CPU cost/scheduler contexts so each queue
//!   pair's NAPI work runs on its own simulated core;
//! * [`xdma_char`] — the vendor reference character-device driver
//!   (per-transfer pin/map, descriptor build, MMIO programming, ISR).
//!
//! The two driver models are the paper's two contenders; the testbed in
//! `virtio-fpga` sequences them against the same FPGA and link models.
//!
//! ```
//! use vf_hostsw::{build_udp_frame, parse_udp_frame, Ipv4Addr, MacAddr, UdpFlow};
//!
//! let flow = UdpFlow {
//!     src_mac: MacAddr([2, 0, 0, 0, 0, 1]),
//!     dst_mac: MacAddr([2, 0xFB, 0x0A, 0, 0, 1]),
//!     src_ip: Ipv4Addr::new(10, 0, 0, 1),
//!     dst_ip: Ipv4Addr::new(10, 0, 0, 2),
//!     src_port: 40_000,
//!     dst_port: 7,
//! };
//! let frame = build_udp_frame(&flow, 1, b"hello fpga", true);
//! let parsed = parse_udp_frame(&frame).unwrap();
//! assert_eq!(parsed.payload, b"hello fpga");
//! assert!(parsed.udp_csum_ok);
//! ```

#![warn(missing_docs)]

pub mod cost;
pub mod mq_ctrl;
pub mod multicore;
pub mod netcfg;
pub mod packet;
pub mod udp;
pub mod virtio_blk;
pub mod virtio_console;
pub mod virtio_mq;
pub mod virtio_net;
pub mod virtio_pci;
pub mod xdma_char;

// The packed-ring runs of the layout-parameterised front-end checks in
// `virtio_net` and `virtio_mq`, under the module names the packed front
// ends had before both layouts shared one driver.
#[cfg(test)]
mod virtio_packed {
    mod tests {
        use crate::virtio_net::tests::*;

        #[test]
        fn init_posts_all_rx_buffers() {
            init_posts_all_rx_buffers_on(true);
        }

        #[test]
        fn xmit_publishes_two_descriptor_chain_and_always_notifies() {
            xmit_publishes_two_descriptor_chain_on(true);
        }

        #[test]
        fn rx_round_trip_through_napi() {
            rx_round_trip_through_napi_on(true);
        }

        #[test]
        fn tx_lazy_clean_frees_ring_space() {
            tx_clean_frees_ring_space_on(true);
        }

        #[test]
        fn probe_packed_full_sequence() {
            probe_full_sequence_on(true);
        }
    }
}

#[cfg(test)]
mod virtio_mq_packed {
    mod tests {
        use crate::virtio_mq::tests::*;

        #[test]
        fn probe_programs_all_pairs_and_packed_ctrl() {
            probe_programs_all_pairs_and_ctrl_on(true);
        }

        #[test]
        fn ctrl_commands_round_trip_through_the_packed_ring() {
            ctrl_command_round_trips_through_the_ring_on(true);
            rss_command_serializes_table_and_key_on(true);
        }

        #[test]
        fn pairs_are_independent_packed_drivers() {
            pairs_are_independent_drivers_on(true);
        }
    }
}

pub use cost::{CostEngine, HostCosts, HOST_CPU_GHZ};
pub use multicore::{CpuContext, MultiCoreHost};
pub use netcfg::{ArpCache, Route, RoutingTable};
pub use packet::{
    build_udp_frame, build_udp_frame_into, parse_udp_frame, udp_checksum, Ipv4Addr, MacAddr,
    ParseError, ParsedUdp, UdpFlow, UDP_OVERHEAD,
};
pub use udp::{SockError, UdpStack};
pub use virtio_blk::{probe_blk, BlkDone, BlkProbeOutcome, BlkSubmit, VirtioBlkDriver};
pub use virtio_console::{probe_console, VirtioConsoleDriver};
pub use virtio_mq::{probe_mq, MqProbeOutcome, VirtioNetMqDriver, CTRL_QUEUE_SIZE};
pub use virtio_net::{
    probe, probe_net, ProbeOutcome, RxBatch, RxFrame, VirtioNetDriver, XmitResult,
};
pub use virtio_pci::ProbeError;
pub use xdma_char::{TransferSetup, XdmaCharDriver};
