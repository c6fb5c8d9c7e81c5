//! The testbed: one host + one PCIe link + one FPGA design, sequenced by
//! the discrete-event engine.
//!
//! A [`Testbed`] runs the paper's round-trip workload for one
//! configuration: the application sends a request, the FPGA echoes it,
//! the application timestamps the reply (§III-B3, 50 000 packets per
//! payload). Two worlds implement the two contenders:
//!
//! * `VirtioWorld` — socket API → virtio-net driver → doorbell →
//!   FPGA VirtIO controller walks the rings, echoes, delivers into the
//!   RX queue → MSI-X → NAPI → `recvfrom` returns (or the hvc write and
//!   poll of the console persona, E9);
//! * `XdmaWorld` — `write()` (pin, build descriptors, program engine,
//!   block on the H2C completion interrupt) then back-to-back `read()`
//!   (same for C2H) — including the paper's §IV-C concession that the
//!   example design raises no data-ready interrupt (optionally restored
//!   as the E6 ablation).
//!
//! Every packet records: total round-trip time (host clock, 1 ns),
//! hardware time (FPGA counters, 8 ns quanta), response-generation time
//! (deducted per §IV-B), and the derived software time.
//!
//! Each host stack is brought up here once. `VirtioParts` is the
//! single-queue VirtIO one: `VirtioWorld` and the PMD world
//! (`crate::pmd`) each own one, differing only in the front end their
//! probe closure allocates and probes, and every probe is the one
//! §3.1.1 sequence of `vf_hostsw::virtio_pci`, run directly against the
//! device. `XdmaParts` is the §III-B2 character-device flow (bring-up,
//! blocking transfer, BAR writes, interrupt service): `XdmaWorld` and
//! the E24 storage baseline (`crate::blk`) each own one.
//!
//! The steps every VirtIO world shares live here once: `ring_doorbell`
//! and `HostNet`, the §III-B1 socket path whose flow `i` sends from
//! `FLOW_PORT_BASE + i` to the card's `ECHO_PORT`.

use std::sync::Arc;

use vf_fpga::user_logic::{ConsoleEcho, UdpEcho, UserLogic};
use vf_fpga::{bar0, MmioEvent, Persona, VirtioFpgaDevice, XdmaExampleDesign, XdmaRun};
use vf_hostsw::{
    probe_console, CostEngine, Ipv4Addr, MacAddr, RxFrame, SockError, UdpStack,
    VirtioConsoleDriver, VirtioNetDriver, XdmaCharDriver, XmitResult,
};
use vf_pcie::{enumerate, HostMemory, MmioAllocator, PcieLink, MSI_ADDR_BASE};
use vf_sim::{SimRng, Time, World};
use vf_virtio::block::VirtioBlkConfig;
use vf_virtio::console::VirtioConsoleConfig;
use vf_virtio::net::VirtioNetConfig;
use vf_virtio::{feature, net, DeviceType};
use vf_xdma::ChannelDir;

use vf_tenant::{ArbiterPolicy, TenantConfig};

use crate::calibration::Calibration;
use crate::driver_model::{run_world, DriverModel, RoundTripRecorder, RunStats};
use crate::report::RunResult;

/// Which device driver is under test.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DriverKind {
    /// In-kernel VirtIO driver talking directly to the FPGA.
    Virtio,
    /// Vendor-provided XDMA character-device driver.
    Xdma,
    /// Userspace kernel-bypass poll-mode VirtIO driver (`vf-pmd`):
    /// VFIO-mapped BARs, permanent interrupt suppression, busy-poll
    /// RX/TX with batched ring operations.
    VirtioPmd,
    /// In-kernel VirtIO driver over the VirtIO 1.2 *packed* virtqueue
    /// layout (E17): the same `VirtioNetDriver` and socket/NAPI stack as
    /// [`DriverKind::Virtio`], negotiating `RING_PACKED` (without
    /// EVENT_IDX), so each queue is one descriptor ring that the
    /// device's walkers fetch with fewer PCIe reads.
    VirtioPacked,
    /// Multi-queue in-kernel VirtIO driver (`VIRTIO_NET_F_MQ`, E19):
    /// N RX/TX queue pairs plus the control virtqueue, each pair's
    /// MSI-X vector pinned to its own simulated host core. Pair count
    /// comes from [`TestbedOptions::mq_queue_pairs`].
    VirtioMq,
    /// MQ×packed fusion (E20): the multi-queue front end of
    /// [`DriverKind::VirtioMq`] negotiating the packed layout of
    /// [`DriverKind::VirtioPacked`] — N packed queue pairs plus a
    /// packed control virtqueue, served by the same device walkers.
    VirtioMqPacked,
    /// Multi-tenant vhost multiplexing (E21): M simulated guest VMs,
    /// each owning one queue-pair slice of the device (its own MSI-X
    /// vector and DMA tag context), multiplexed onto the shared
    /// descriptor-walker engine by a QoS arbiter
    /// ([`TestbedOptions::tenant_policy`]) and optionally relayed
    /// through per-tenant vhost worker threads
    /// ([`TestbedOptions::tenant_vhost`]). Tenant count rides
    /// [`TestbedOptions::mq_queue_pairs`].
    VirtioTenant,
    /// In-kernel virtio-blk driver over the block persona (E24): 3-part
    /// request chains against the controller's in-fabric disk, with
    /// `queue-depth` requests kept outstanding by the front end. The
    /// storage counterpart of [`DriverKind::Virtio`]; see `crate::blk`.
    VirtioBlk,
}

impl DriverKind {
    /// Name used in reports (matches the paper's labels).
    pub fn name(self) -> &'static str {
        match self {
            DriverKind::Virtio => "VirtIO",
            DriverKind::Xdma => "XDMA",
            DriverKind::VirtioPmd => "VirtIO-PMD",
            DriverKind::VirtioPacked => "VirtIO-packed",
            DriverKind::VirtioMq => "VirtIO-MQ",
            DriverKind::VirtioMqPacked => "VirtIO-MQ-packed",
            DriverKind::VirtioTenant => "VirtIO-TNT",
            DriverKind::VirtioBlk => "VirtIO-blk",
        }
    }
}

/// Behavioural options, defaulting to the paper's experimental setup.
#[derive(Clone, Debug)]
pub struct TestbedOptions {
    /// Virtqueue size per direction.
    pub queue_size: u16,
    /// Negotiate `VIRTIO_F_EVENT_IDX` (notification suppression).
    pub event_idx: bool,
    /// Negotiate TX checksum offload (`VIRTIO_NET_F_CSUM`). The paper's
    /// test computes checksums in software ("additional overheads ...
    /// e.g. generating packets and calculating checksums"), so the
    /// default is off; E10 turns it on.
    pub csum_offload: bool,
    /// VirtIO device type (Net is the paper's test case; Console is the
    /// prior work's, for E9).
    pub device_type: DeviceType,
    /// E6 ablation: make the XDMA flow wait for a device data-ready
    /// interrupt before `read()`, as a real use case would (§IV-C says
    /// the example design omits this, favouring XDMA).
    pub xdma_wait_device_irq: bool,
    /// Card-side memory behind the DMA datapath (§III-A: "BRAM or
    /// external DRAM"). E14 swaps this to DDR under both designs.
    pub card_memory: CardKind,
    /// E13: layer the classic paravirtualization stack of the paper's
    /// Fig. 1 (left) on top of the XDMA path — a guest virtio-net
    /// front-end, a host-side back-end worker, and the legacy driver —
    /// instead of the direct VirtIO-to-FPGA interface (Fig. 1 right).
    pub vhost_overlay: bool,
    /// E16 (PMD only): adaptive poll→interrupt fallback. After busy-
    /// polling this long with no completion the PMD arms the RX
    /// interrupt and blocks; `None` (default) polls forever.
    pub pmd_adaptive_idle: Option<Time>,
    /// E16 (PMD only): offered-load pacing — one packet per interval,
    /// timed from the previous send. `None` (default) runs closed-loop
    /// back-to-back like the other drivers.
    pub pmd_send_interval: Option<Time>,
    /// E19/E21 (the MQ kinds and `DriverKind::VirtioTenant`): RX/TX
    /// queue pairs — one per tenant for E21 — to negotiate and activate
    /// via `VIRTIO_NET_CTRL_MQ_VQ_PAIRS_SET`. Must be a power of two ≤
    /// [`crate::mq::MAX_QUEUE_PAIRS`] (the flow-steering hash pins flow
    /// *i* to pair *i* only for power-of-two counts).
    pub mq_queue_pairs: u16,
    /// E20 (MQ worlds only): maximum non-posted reads one DMA tag may
    /// keep in flight. `1` (default) is the strict serial walker —
    /// bit-identical to the E19 engine; `> 1` enables the pipelined
    /// virtqueue walkers and relaxed-ordering completion on the link.
    pub pipeline_depth: usize,
    /// E21 (`DriverKind::VirtioTenant` only): fairness policy of the
    /// QoS arbiter multiplexing tenant doorbells onto the device's
    /// shared walker engine.
    pub tenant_policy: ArbiterPolicy,
    /// E21: route every tenant's doorbells and completions through its
    /// own vhost worker thread (guest-VM deployment). Off (default),
    /// tenants ring the device directly — which is what makes the
    /// 1-tenant run reproduce the E19 single-pair numbers.
    pub tenant_vhost: bool,
    /// E21: bring the tenant front ends up on packed rings instead of
    /// split rings.
    pub tenant_packed: bool,
    /// E21: per-tenant scheduling/workload overrides. Empty (default)
    /// means uniform [`TenantConfig::default`] tenants; otherwise the
    /// length must equal [`TestbedOptions::mq_queue_pairs`].
    pub tenant_configs: Vec<TenantConfig>,
    /// E24 (`DriverKind::VirtioBlk` only): expose the disk read-only.
    /// The device then offers `VIRTIO_BLK_F_RO` and fails guest writes
    /// with `IOERR`.
    pub blk_read_only: bool,
    /// E24: disk capacity in 512-byte sectors. The default (32 768 =
    /// 16 MiB) leaves the random-I/O sweeps room to address distinct
    /// slots at every I/O size.
    pub blk_capacity_sectors: u64,
    /// Unused: nothing reads it. It exists only because the `vfbench`
    /// benchmark package sets it, and a later change to that package
    /// drops it together with [`ExperimentParams::shards`].
    ///
    /// [`ExperimentParams::shards`]: crate::experiments::ExperimentParams::shards
    pub shards: usize,
}

impl Default for TestbedOptions {
    fn default() -> Self {
        TestbedOptions {
            queue_size: 256,
            event_idx: true,
            csum_offload: false,
            device_type: DeviceType::Net,
            xdma_wait_device_irq: false,
            vhost_overlay: false,
            card_memory: CardKind::Bram,
            pmd_adaptive_idle: None,
            pmd_send_interval: None,
            mq_queue_pairs: 1,
            pipeline_depth: 1,
            tenant_policy: ArbiterPolicy::RoundRobin,
            tenant_vhost: false,
            tenant_packed: false,
            tenant_configs: Vec::new(),
            blk_read_only: false,
            blk_capacity_sectors: 32_768,
            shards: 1,
        }
    }
}

/// Card memory backing selector (E14).
pub use vf_fpga::CardKind;

/// One experiment configuration.
#[derive(Clone, Debug)]
pub struct TestbedConfig {
    /// Driver under test.
    pub driver: DriverKind,
    /// Payload size in bytes — the UDP payload for the VirtIO test; the
    /// XDMA test moves `payload + 54` bytes so the same data crosses the
    /// link (§IV-B's equal-wire-bytes adjustment: Ethernet+IP+UDP = 42
    /// plus the 12-byte virtio-net header).
    pub payload: usize,
    /// Packets per run (the paper uses 50 000).
    pub packets: usize,
    /// Experiment seed.
    pub seed: u64,
    /// Timing calibration.
    pub calibration: Calibration,
    /// Behavioural options.
    pub options: TestbedOptions,
}

impl TestbedConfig {
    /// The paper's configuration for one `(driver, payload)` cell.
    pub fn paper(driver: DriverKind, payload: usize, packets: usize, seed: u64) -> Self {
        TestbedConfig {
            driver,
            payload,
            packets,
            seed,
            calibration: Calibration::fedora37_alinx(),
            options: TestbedOptions::default(),
        }
    }

    /// Wire bytes moved per direction for this payload (used by the
    /// XDMA world and bandwidth accounting).
    pub fn wire_bytes(&self) -> usize {
        self.payload + vf_hostsw::UDP_OVERHEAD + vf_virtio::net::VirtioNetHdr::LEN
    }
}

// ---------------------------------------------------------------------
// Shared single-queue VirtIO bring-up (the serial world here, the PMD
// world in `crate::pmd`)
// ---------------------------------------------------------------------

/// A fully brought-up single-queue VirtIO testbed: enumerated device,
/// probed front end `F`, configured host stack, cost engine. The
/// workload worlds own one of these and sequence events around it.
pub(crate) struct VirtioParts<F> {
    pub(crate) mem: HostMemory,
    pub(crate) link: PcieLink,
    pub(crate) device: VirtioFpgaDevice,
    pub(crate) driver: F,
    pub(crate) net: HostNet,
    pub(crate) cost: CostEngine,
    pub(crate) payload_rng: SimRng,
}

impl<F> VirtioParts<F> {
    /// Bring up the net or console persona `cfg.options.device_type`
    /// selects, with `probe` allocating the front end's rings in host
    /// memory and running its §3.1.1 probe against the device.
    ///
    /// The allocation and RNG-derivation order is part of the timing:
    /// ring addresses set DMA alignment.
    pub(crate) fn new(
        cfg: &TestbedConfig,
        probe: impl FnOnce(&mut HostMemory, &mut VirtioFpgaDevice) -> F,
    ) -> Self {
        let mut mem = HostMemory::testbed_default();
        let link = PcieLink::new(cfg.calibration.link.clone());
        let rng = SimRng::new(cfg.seed);
        let cost = CostEngine::new(
            cfg.calibration.costs.clone(),
            cfg.calibration.noise.clone(),
            rng.derive(1),
        );

        // Device-side features on offer.
        let netcfg = VirtioNetConfig::testbed_default();
        let (persona, extra, logic): (Persona, u64, Box<dyn UserLogic>) =
            match cfg.options.device_type {
                DeviceType::Net => (
                    Persona::Net { cfg: netcfg },
                    net::feature::MAC
                        | net::feature::MTU
                        | net::feature::STATUS
                        | net::feature::CSUM
                        | net::feature::GUEST_CSUM,
                    Box::new(UdpEcho::default()),
                ),
                DeviceType::Console => (
                    Persona::Console {
                        cfg: VirtioConsoleConfig::testbed_default(),
                    },
                    vf_virtio::console::feature::SIZE,
                    Box::new(ConsoleEcho::default()),
                ),
                DeviceType::Block => {
                    unreachable!(
                        "the block persona runs under DriverKind::VirtioBlk (crate::blk), \
                         not the echo worlds"
                    )
                }
                DeviceType::Rng => {
                    unreachable!("virtio-rng has no echo workload; see the rng unit tests")
                }
            };
        let mut device = VirtioFpgaDevice::new(persona, extra, &[cfg.options.queue_size; 2], logic);
        device.set_card_memory(cfg.options.card_memory);

        // Enumeration: discover by vendor/device ID, assign BARs, find
        // the VirtIO capabilities (§II-C requirements i & iii).
        let info = enumerate(&mut device.config_space, &mut MmioAllocator::new());
        assert_eq!(info.vendor, vf_pcie::VIRTIO_VENDOR_ID);
        let vcaps = info.virtio_caps(&device.config_space);
        assert_eq!(vcaps.len(), 4, "device must expose all VirtIO structures");

        let driver = probe(&mut mem, &mut device);

        // MSI-X: the kernel allocates vectors and programs the table.
        device.msix_enable();
        device.msix.program(0, MSI_ADDR_BASE, 0x40); // RX vector
        device.msix.program(1, MSI_ADDR_BASE, 0x41); // TX vector
        assert!(device.is_live());

        VirtioParts {
            mem,
            link,
            device,
            driver,
            net: HostNet::new(netcfg.mac),
            cost,
            payload_rng: rng.derive(2),
        }
    }
}

/// The kernel virtio-net front end of `cfg`: split rings, or for
/// [`DriverKind::VirtioPacked`] (E17) the one-ring packed layout, which
/// runs without EVENT_IDX (every TX publish rings the doorbell).
pub(crate) fn probe_net_driver(
    cfg: &TestbedConfig,
    mem: &mut HostMemory,
    device: &mut VirtioFpgaDevice,
) -> VirtioNetDriver {
    let mut want =
        feature::VERSION_1 | net::feature::MAC | net::feature::MTU | net::feature::STATUS;
    if cfg.options.event_idx {
        want |= feature::RING_EVENT_IDX;
    }
    if cfg.options.csum_offload {
        want |= net::feature::CSUM | net::feature::GUEST_CSUM;
    }
    if cfg.driver == DriverKind::VirtioPacked {
        want |= feature::RING_PACKED;
        want &= !feature::RING_EVENT_IDX;
    }
    let driver = VirtioNetDriver::init(mem, cfg.options.queue_size, want);
    let out = vf_hostsw::probe(device, &driver, want).expect("probe must succeed");
    assert_eq!(out.mtu, 1500);
    driver
}

// ---------------------------------------------------------------------
// Steps every VirtIO echo world shares
// ---------------------------------------------------------------------

/// UDP source-port base: flow `i` sends from `FLOW_PORT_BASE + i` (the
/// single-queue worlds use flow 0). A multiple of every power-of-two
/// pair count, so the MQ device's `dst_port % pairs` steering maps flow
/// `i` exactly to pair `i`.
pub(crate) const FLOW_PORT_BASE: u16 = 40_000;

/// The FPGA's UDP echo port.
pub(crate) const ECHO_PORT: u16 = 7;

/// The device side of a doorbell: the posted write into `queue`'s slot
/// of the notify region, decoded by the device's BAR logic at once.
pub(crate) fn notify_write(device: &mut VirtioFpgaDevice, queue: u16) {
    let off = bar0::NOTIFY + u64::from(queue) * u64::from(bar0::NOTIFY_MULTIPLIER);
    let ev = device.mmio_write(off, 2, u64::from(queue));
    debug_assert_eq!(ev, Some(MmioEvent::Notify(queue)));
}

/// Ring `queue`'s doorbell from a CPU at `t`: decode the write now, send
/// the TLP over `link`, and charge the MMIO write to `cost` (traced as
/// `doorbell_mmio` when `span`). Returns (CPU time spent, TLP arrival at
/// the device).
pub(crate) fn ring_doorbell(
    device: &mut VirtioFpgaDevice,
    link: &mut PcieLink,
    cost: &mut CostEngine,
    queue: u16,
    t: Time,
    span: bool,
) -> (Time, Time) {
    notify_write(device, queue);
    let arrival = link.mmio_write(t, 2);
    let d = cost.step(cost.costs.mmio_write_cpu);
    if span {
        vf_trace::span_at(
            vf_trace::Layer::Driver,
            "doorbell_mmio",
            t,
            t + d,
            u64::from(queue),
            0,
        );
    }
    (d, arrival)
}

/// The host's socket path to the FPGA (§III-B1): a UDP stack with a
/// static route and ARP entry for the card, and the frame buffer every
/// `sendto` reuses. Flow `i` is the socket bound to
/// `FLOW_PORT_BASE + i`; its send and `udp_rx` spans carry `i`.
pub(crate) struct HostNet {
    pub(crate) stack: UdpStack,
    pub(crate) fpga_ip: Ipv4Addr,
    /// The frame `sendto` builds, reused by every send.
    pub(crate) tx_frame: Vec<u8>,
}

impl HostNet {
    /// Configure the host interface and reach the card at `fpga_mac`.
    pub(crate) fn new(fpga_mac: [u8; 6]) -> Self {
        let fpga_ip = Ipv4Addr::new(10, 0, 0, 2);
        let mut stack = UdpStack::new(
            Ipv4Addr::new(10, 0, 0, 1),
            MacAddr([0x02, 0, 0, 0, 0, 0x01]),
        );
        stack.routes.add(Ipv4Addr::new(10, 0, 0, 0), 24, None, 2);
        stack.arp.add_static(fpga_ip, MacAddr(fpga_mac));
        HostNet {
            stack,
            fpga_ip,
            tx_frame: Vec::new(),
        }
    }

    /// `sendto` of `payload` on flow `flow` into the reused frame,
    /// untraced. Returns the CPU time spent.
    pub(crate) fn sendto(
        &mut self,
        flow: u16,
        payload: &[u8],
        offload: bool,
        cost: &mut CostEngine,
    ) -> Time {
        self.stack
            .sendto_into(
                &mut self.tx_frame,
                self.fpga_ip,
                FLOW_PORT_BASE + flow,
                ECHO_PORT,
                payload,
                offload,
                cost,
            )
            .expect("send path configured")
    }

    /// Send `payload` on flow `flow` at `t`: `sendto`, then the driver's
    /// `xmit` of the frame. Returns when the CPU is done and whether the
    /// driver must ring the doorbell.
    pub(crate) fn send(
        &mut self,
        mut t: Time,
        flow: u16,
        payload: &[u8],
        offload: bool,
        cost: &mut CostEngine,
        xmit: impl FnOnce(&[u8], &mut CostEngine) -> XmitResult,
    ) -> (Time, bool) {
        let arg = u64::from(flow);
        let d = self.sendto(flow, payload, offload, cost);
        vf_trace::span_at(
            vf_trace::Layer::Syscall,
            "sendto",
            t,
            t + d,
            payload.len() as u64,
            arg,
        );
        t += d;
        let res = xmit(&self.tx_frame, cost);
        vf_trace::span_at(
            vf_trace::Layer::Driver,
            "virtio_xmit",
            t,
            t + res.cpu,
            self.tx_frame.len() as u64,
            arg,
        );
        (t + res.cpu, res.notify)
    }

    /// Flow `flow`'s NAPI receive at `t`: pass `frames` up the stack,
    /// counting bad checksums in `failures`. Returns when the CPU is done
    /// and the last delivered payload's length and whether it equals
    /// `expected`.
    pub(crate) fn receive(
        &mut self,
        mut t: Time,
        frames: &[RxFrame],
        flow: u16,
        expected: &[u8],
        failures: &mut u64,
        cost: &mut CostEngine,
    ) -> (Time, Option<(usize, bool)>) {
        let mut delivered = None;
        for rx in frames {
            let validated = rx.hdr.flags & vf_virtio::net::HDR_F_DATA_VALID != 0;
            match self
                .stack
                .netif_receive(&rx.frame, FLOW_PORT_BASE + flow, validated, cost)
            {
                Ok((parsed, d)) => {
                    vf_trace::span_at(
                        vf_trace::Layer::Syscall,
                        "udp_rx",
                        t,
                        t + d,
                        rx.frame.len() as u64,
                        u64::from(flow),
                    );
                    t += d;
                    delivered = Some((parsed.payload.len(), parsed.payload == expected));
                }
                Err(SockError::BadChecksum) => *failures += 1,
                Err(e) => panic!("receive path failed: {e:?}"),
            }
        }
        (t, delivered)
    }

    /// The blocked reader wakes at `t` and its `recvfrom` (or hvc read)
    /// returns the `delivered` payload; a missing or mismatched echo
    /// counts in `failures`. Returns when the application runs.
    pub(crate) fn return_to_app(
        &mut self,
        mut t: Time,
        delivered: Option<(usize, bool)>,
        failures: &mut u64,
        cost: &mut CostEngine,
    ) -> Time {
        let d = cost.step(cost.costs.wakeup_to_run);
        vf_trace::span_at(vf_trace::Layer::Irq, "wakeup_to_run", t, t + d, 0, 0);
        t += d;
        let len = delivered.map_or(0, |(len, _)| len);
        let d = self.stack.recvfrom_return(len, cost);
        vf_trace::span_at(
            vf_trace::Layer::Syscall,
            "recvfrom_return",
            t,
            t + d,
            len as u64,
            0,
        );
        if !delivered.is_some_and(|(_, ok)| ok) {
            *failures += 1;
        }
        t + d
    }
}

/// Fraction of `elapsed` the (upstream, downstream) wire of `link` was
/// busy.
pub(crate) fn link_util(link: &PcieLink, elapsed: Time) -> (f64, f64) {
    let wire = |bytes: u64| {
        Time::from_ps(bytes * link.cfg.ps_per_byte()).as_us_f64() / elapsed.as_us_f64()
    };
    (wire(link.up_wire_bytes), wire(link.down_wire_bytes))
}

/// Build the block-persona FPGA device for E24, offering the storage
/// feature bits the persona actually implements: `SEG_MAX` (the config
/// field is valid), `FLUSH` (the disk counts cache flushes), and `RO`
/// when the disk is exposed read-only. The stub persona used to offer
/// `0` here, so no front end could ever negotiate multi-segment
/// requests — `blk_feature_offer_includes_seg_max_and_flush` in
/// `crate::blk` regresses that. The disk reads `image` until the guest
/// writes a sector.
pub(crate) fn build_blk_device(cfg: &TestbedConfig, image: Arc<[u8]>) -> VirtioFpgaDevice {
    let disk = vf_virtio::block::MemDisk::with_image(
        cfg.options.blk_capacity_sectors,
        image,
        cfg.options.blk_read_only,
    );
    let mut extra = vf_virtio::block::feature::SEG_MAX | vf_virtio::block::feature::FLUSH;
    if cfg.options.blk_read_only {
        extra |= vf_virtio::block::feature::RO;
    }
    let mut device = VirtioFpgaDevice::new(
        Persona::Block {
            cfg: VirtioBlkConfig {
                capacity: disk.capacity(),
                seg_max: crate::blk::BLK_SEG_MAX,
            },
            disk,
        },
        extra,
        &[cfg.options.queue_size],
        Box::new(ConsoleEcho::default()),
    );
    device.set_card_memory(cfg.options.card_memory);
    device
}

// ---------------------------------------------------------------------
// VirtIO world
// ---------------------------------------------------------------------

/// Front-end driver variants.
enum FrontEnd {
    Net(Box<VirtioNetDriver>),
    Console(Box<VirtioConsoleDriver>),
}

/// Events of the VirtIO round-trip flow.
enum VirtioEv {
    /// Application sends the next packet.
    AppSend,
    /// Doorbell TLP lands in the device.
    Doorbell(u16),
    /// RX MSI-X message reaches the host interrupt controller.
    RxIrq,
}

struct VirtioWorld {
    parts: VirtioParts<FrontEnd>,
    payload: usize,
    expected: Vec<u8>,
    cpu_free: Time,
    rec: RoundTripRecorder,
}

impl VirtioWorld {
    fn new(cfg: &TestbedConfig) -> Self {
        let parts = VirtioParts::new(cfg, |mem, device| match cfg.options.device_type {
            DeviceType::Console => {
                let mut want = feature::VERSION_1;
                if cfg.options.event_idx {
                    want |= feature::RING_EVENT_IDX;
                }
                let driver = VirtioConsoleDriver::init(mem, cfg.options.queue_size, want);
                probe_console(device, &driver, want).expect("console probe must succeed");
                FrontEnd::Console(Box::new(driver))
            }
            _ => FrontEnd::Net(Box::new(probe_net_driver(cfg, mem, device))),
        });
        VirtioWorld {
            parts,
            payload: cfg.payload,
            expected: Vec::new(),
            cpu_free: Time::ZERO,
            rec: RoundTripRecorder::new(cfg.packets),
        }
    }
}

impl World for VirtioWorld {
    type Msg = VirtioEv;

    fn deliver(&mut self, now: Time, msg: VirtioEv, sched: &mut vf_sim::Scheduler<VirtioEv>) {
        match msg {
            VirtioEv::AppSend => {
                if self.rec.packets_left == 0 {
                    return;
                }
                let rtt_name = match &self.parts.driver {
                    FrontEnd::Net(d) if d.is_packed() => "rtt_virtio_packed",
                    FrontEnd::Net(_) => "rtt_virtio",
                    FrontEnd::Console(_) => "rtt_virtio_console",
                };
                self.rec.begin_rtt(now, rtt_name, self.payload as u64);
                // Generate this packet's payload.
                let parts = &mut self.parts;
                let payload = &mut self.expected;
                payload.clear();
                payload.resize(self.payload, 0);
                parts.payload_rng.fill_bytes(payload);

                let (mut t, notify) = match &mut parts.driver {
                    FrontEnd::Net(driver) => parts.net.send(
                        now,
                        0,
                        payload,
                        driver.csum_offload(),
                        &mut parts.cost,
                        |frame, cost| driver.xmit(&mut parts.mem, frame, cost),
                    ),
                    FrontEnd::Console(driver) => {
                        // hvc write: no network stack, just the syscall +
                        // tty layer + ring add.
                        let mut t = now;
                        let d = parts.cost.step(parts.cost.costs.syscall_entry);
                        vf_trace::span_at(vf_trace::Layer::Syscall, "write_entry", t, t + d, 0, 0);
                        t += d;
                        let (notify, cpu) = driver.write(&mut parts.mem, payload, &mut parts.cost);
                        vf_trace::span_at(
                            vf_trace::Layer::Driver,
                            "hvc_write",
                            t,
                            t + cpu,
                            payload.len() as u64,
                            0,
                        );
                        (t + cpu, notify)
                    }
                };
                if notify {
                    let (d, arrival) = ring_doorbell(
                        &mut parts.device,
                        &mut parts.link,
                        &mut parts.cost,
                        net::TX_QUEUE,
                        t,
                        true,
                    );
                    t += d;
                    sched.at(arrival, VirtioEv::Doorbell(net::TX_QUEUE));
                }
                // sendto returns; the app immediately blocks in recvfrom.
                self.cpu_free = parts.cost.send_return_then_block(t);
            }
            VirtioEv::Doorbell(queue) => {
                let out = self.parts.device.process_tx_notify(
                    now,
                    queue,
                    &mut self.parts.mem,
                    &mut self.parts.link,
                );
                for resp in &out.responses {
                    let rxo = self.parts.device.deliver_response(
                        resp.ready_at,
                        net::RX_QUEUE,
                        resp,
                        &mut self.parts.mem,
                        &mut self.parts.link,
                    );
                    if let Some(irq_at) = rxo.irq_at {
                        sched.at(irq_at, VirtioEv::RxIrq);
                    }
                }
                self.parts.device.recycle_tx(out);
            }
            VirtioEv::RxIrq => {
                // Hardirq may only run once the CPU is available; on this
                // quiesced host the app has long since blocked.
                let t = self.parts.cost.irq_to_napi(now.max(self.cpu_free));
                // Harvest the echo from the ring (device-specific): the
                // net front end passes its frames up the socket stack.
                let parts = &mut self.parts;
                let (t, delivered) = match &mut parts.driver {
                    FrontEnd::Net(driver) => {
                        let (frames, cpu) = driver.napi_poll(&mut parts.mem, &mut parts.cost);
                        vf_trace::span_at(vf_trace::Layer::Driver, "napi_poll", t, t + cpu, 0, 0);
                        parts.net.receive(
                            t + cpu,
                            frames,
                            0,
                            &self.expected,
                            &mut self.rec.verify_failures,
                            &mut parts.cost,
                        )
                    }
                    FrontEnd::Console(driver) => {
                        let (lines, cpu) = driver.poll_rx(&mut parts.mem, &mut parts.cost);
                        vf_trace::span_at(vf_trace::Layer::Driver, "hvc_poll_rx", t, t + cpu, 0, 0);
                        let delivered = lines
                            .last()
                            .map(|line| (line.len(), *line == self.expected));
                        (t + cpu, delivered)
                    }
                };
                let t = parts.net.return_to_app(
                    t,
                    delivered,
                    &mut self.rec.verify_failures,
                    &mut parts.cost,
                );
                self.cpu_free = t;
                let hw = parts.device.counters.last_hw();
                let proc = parts.device.counters.processing.last;
                if let Some(next) = self.rec.close(t, hw, proc, &mut parts.cost) {
                    sched.at(next, VirtioEv::AppSend);
                }
            }
        }
    }
}

impl DriverModel for VirtioWorld {
    type Telemetry = ();

    fn build(cfg: &TestbedConfig) -> Self {
        VirtioWorld::new(cfg)
    }

    fn initial_event() -> VirtioEv {
        VirtioEv::AppSend
    }

    fn describe(msg: &VirtioEv) -> Option<(vf_trace::Layer, &'static str)> {
        match msg {
            VirtioEv::AppSend => Some((vf_trace::Layer::App, "app_send")),
            VirtioEv::Doorbell(_) => Some((vf_trace::Layer::Device, "doorbell")),
            VirtioEv::RxIrq => Some((vf_trace::Layer::Irq, "msix_rx")),
        }
    }

    fn finish(self) -> (RoundTripRecorder, RunStats, ()) {
        (self.rec, RunStats::from(&self.parts.device.stats), ())
    }
}

// ---------------------------------------------------------------------
// Shared XDMA host stack (the round-trip world here, the storage
// baseline in `crate::blk`)
// ---------------------------------------------------------------------

/// Events of the XDMA character-device flow.
pub(crate) enum XdmaEv {
    /// Application starts the next `write()`/`read()` pair (or, in the
    /// storage baseline, the next request).
    AppSend,
    /// A driver MMIO write lands in the device.
    Mmio {
        /// BAR offset.
        off: u64,
        /// Value written.
        val: u32,
    },
    /// A channel completion MSI-X arrives.
    ChannelIrq(ChannelDir),
    /// E6 ablation: the device's data-ready user interrupt arrives.
    UserIrq,
}

/// A brought-up XDMA example design and the vendor character-device
/// driver (§III-B2): enumerated card, driver loaded with both channel
/// interrupts armed, cost engine, payload stream. The XDMA worlds own
/// one of these and sequence events around it.
pub(crate) struct XdmaParts {
    pub(crate) mem: HostMemory,
    pub(crate) link: PcieLink,
    pub(crate) design: XdmaExampleDesign,
    pub(crate) driver: XdmaCharDriver,
    pub(crate) cost: CostEngine,
    pub(crate) payload_rng: SimRng,
}

impl XdmaParts {
    /// Bring up a design with `card_len` bytes of card memory. With
    /// `user_irq` the user logic's data-ready interrupt is enabled too.
    pub(crate) fn new(cfg: &TestbedConfig, card_len: usize, user_irq: bool) -> Self {
        let mut mem = HostMemory::testbed_default();
        let link = PcieLink::new(cfg.calibration.link.clone());
        let rng = SimRng::new(cfg.seed);
        let cost = CostEngine::new(
            cfg.calibration.costs.clone(),
            cfg.calibration.noise.clone(),
            rng.derive(1),
        );
        let mut design = XdmaExampleDesign::new(card_len);
        design.set_card_memory(cfg.options.card_memory);

        // Enumeration.
        let info = enumerate(&mut design.config_space, &mut MmioAllocator::new());
        assert_eq!(info.vendor, vf_pcie::XILINX_VENDOR_ID);
        assert!(
            info.virtio_caps(&design.config_space).is_empty(),
            "the XDMA design is not a VirtIO device"
        );

        // Driver load: descriptor buffers + interrupt arming + MSI-X.
        let driver = XdmaCharDriver::init(&mut mem);
        for (off, val) in driver.init_mmio_writes() {
            design.bar.write32(off, val);
        }
        design.msix.enabled = true;
        design.msix.program(vf_xdma::VEC_H2C, MSI_ADDR_BASE, 0x30);
        design.msix.program(vf_xdma::VEC_C2H, MSI_ADDR_BASE, 0x31);
        design.msix.program(vf_xdma::VEC_USER0, MSI_ADDR_BASE, 0x32);
        if user_irq {
            design.bar.write32(
                vf_xdma::regs::target::IRQ + vf_xdma::regs::irq::USER_INT_EN,
                0b1,
            );
        }
        XdmaParts {
            mem,
            link,
            design,
            driver,
            cost,
            payload_rng: rng.derive(2),
        }
    }

    /// A blocking `write()` (H2C) or `read()` (C2H) of `len` bytes up to
    /// the point the caller sleeps: syscall entry, pin + descriptor
    /// build, the engine programming (each MMIO write costs CPU time and
    /// lands in the device after the link flight; the RUN write starts
    /// the engine), schedule-out. Returns the instant the CPU is free.
    pub(crate) fn transfer(
        &mut self,
        mut t: Time,
        dir: ChannelDir,
        host_addr: u64,
        card_addr: u64,
        len: u32,
        sched: &mut vf_sim::Scheduler<XdmaEv>,
    ) -> Time {
        let d = self.cost.step(self.cost.costs.syscall_entry);
        let (entry, setup_span) = match dir {
            ChannelDir::H2C => ("write_entry", "xdma_write_setup"),
            ChannelDir::C2H => ("read_entry", "xdma_read_setup"),
        };
        vf_trace::span_at(vf_trace::Layer::Syscall, entry, t, t + d, 0, 0);
        t += d;
        let setup = self.driver.setup(
            &mut self.mem,
            dir,
            host_addr,
            card_addr,
            len,
            &mut self.cost,
        );
        vf_trace::span_at(
            vf_trace::Layer::Driver,
            setup_span,
            t,
            t + setup.cpu,
            u64::from(len),
            0,
        );
        t += setup.cpu;
        let t0 = t;
        for &(off, val) in &setup.mmio_writes {
            let arrival = self.link.mmio_write(t, 4);
            t += self.cost.step(self.cost.costs.mmio_write_cpu);
            sched.at(arrival, XdmaEv::Mmio { off, val });
        }
        vf_trace::span_at(
            vf_trace::Layer::Driver,
            "mmio_prog",
            t0,
            t,
            setup.mmio_writes.len() as u64,
            0,
        );
        let d = self.cost.step(self.cost.costs.block_schedule);
        vf_trace::span_at(vf_trace::Layer::Syscall, "block_schedule", t, t + d, 0, 0);
        t + d
    }

    /// A driver MMIO write lands in the device at `now`. When it starts
    /// a channel, the run is returned and its completion interrupt, if
    /// armed, is scheduled.
    pub(crate) fn bar_write(
        &mut self,
        now: Time,
        off: u64,
        val: u32,
        sched: &mut vf_sim::Scheduler<XdmaEv>,
    ) -> Option<XdmaRun> {
        let run = self
            .design
            .mmio_write(now, off, val, &mut self.mem, &mut self.link)
            .expect("descriptor list is well-formed")?;
        if let Some(irq_at) = run.irq_at {
            sched.at(irq_at, XdmaEv::ChannelIrq(run.dir));
        }
        Some(run)
    }

    /// The character device's interrupt-service sequence for a channel
    /// interrupt arriving at `now` on a CPU busy until `cpu_free`:
    /// hardirq entry, status-register and completed-count reads (each a
    /// non-posted MMIO read the CPU stalls on for a full link round
    /// trip), ack write, handler body, wakeup, per-transfer teardown,
    /// syscall exit. Returns the instant the syscall has returned.
    pub(crate) fn service_irq(&mut self, now: Time, cpu_free: Time, dir: ChannelDir) -> Time {
        let mut t = self.cost.irq_entry(now.max(cpu_free));
        let chan = match dir {
            ChannelDir::H2C => vf_xdma::regs::target::H2C,
            ChannelDir::C2H => vf_xdma::regs::target::C2H,
        };
        let t_isr = t;
        for reg in [
            vf_xdma::regs::chan::STATUS_RC,
            vf_xdma::regs::chan::COMPLETED,
        ] {
            let _ = self.design.mmio_read(chan + reg);
            t = self.link.mmio_read(t, 4); // non-posted: CPU stalls
            t += self.cost.step(self.cost.costs.mmio_read_cpu);
        }
        vf_trace::span_at(vf_trace::Layer::Irq, "isr_status_read", t_isr, t, 2, 0);
        let t_body = t;
        self.design.bar.ack_channel(dir);
        t += self.cost.step(self.cost.costs.mmio_write_cpu); // ack write (posted)
        t += self.driver.isr_body(&mut self.cost);
        t += self.cost.step(self.cost.costs.wakeup_to_run);
        vf_trace::span_at(vf_trace::Layer::Irq, "isr_body", t_body, t, 0, 0);
        let t_teardown = t;
        t += self.driver.teardown(dir, &mut self.cost);
        vf_trace::span_at(
            vf_trace::Layer::Driver,
            "xdma_teardown",
            t_teardown,
            t,
            0,
            0,
        );
        let d = self.cost.step(self.cost.costs.syscall_exit);
        vf_trace::span_at(vf_trace::Layer::Syscall, "syscall_exit", t, t + d, 0, 0);
        t + d
    }
}

// ---------------------------------------------------------------------
// XDMA world
// ---------------------------------------------------------------------

struct XdmaWorld {
    parts: XdmaParts,
    transfer_len: u32,
    h2c_buf: u64,
    c2h_buf: u64,
    card_addr: u64,
    /// The request of the round trip in flight; the echo must match it.
    expected: Vec<u8>,
    /// E6: the user logic's copy of the received frame, reused.
    frame: Vec<u8>,
    cpu_free: Time,
    rec: RoundTripRecorder,
    wait_device_irq: bool,
    /// E13: paravirtualization overlay costs active.
    vhost: bool,
    /// Device-side processing time for the E6 user-interrupt path.
    user_proc: Time,
    echo: UdpEcho,
}

impl XdmaWorld {
    fn new(cfg: &TestbedConfig) -> Self {
        // The vhost worker must learn when response data is ready, so
        // the overlay implies the data-ready interrupt.
        let wait_device_irq = cfg.options.xdma_wait_device_irq || cfg.options.vhost_overlay;
        let mut parts = XdmaParts::new(cfg, 64 * 1024, wait_device_irq);
        let transfer_len = cfg.wire_bytes() as u32;
        let h2c_buf = parts.mem.alloc(transfer_len as usize, 4096);
        let c2h_buf = parts.mem.alloc(transfer_len as usize, 4096);
        XdmaWorld {
            parts,
            transfer_len,
            h2c_buf,
            c2h_buf,
            card_addr: 0x100,
            expected: vec![0; transfer_len as usize],
            frame: vec![0; transfer_len as usize],
            cpu_free: Time::ZERO,
            rec: RoundTripRecorder::new(cfg.packets),
            wait_device_irq,
            vhost: cfg.options.vhost_overlay,
            user_proc: Time::ZERO,
            echo: UdpEcho::default(),
        }
    }

    /// Start the `read()` phase (C2H transfer).
    fn start_read(&mut self, t: Time, sched: &mut vf_sim::Scheduler<XdmaEv>) {
        self.cpu_free = self.parts.transfer(
            t,
            ChannelDir::C2H,
            self.c2h_buf,
            self.card_addr,
            self.transfer_len,
            sched,
        );
    }
}

impl World for XdmaWorld {
    type Msg = XdmaEv;

    fn deliver(&mut self, now: Time, msg: XdmaEv, sched: &mut vf_sim::Scheduler<XdmaEv>) {
        match msg {
            XdmaEv::AppSend => {
                if self.rec.packets_left == 0 {
                    return;
                }
                self.rec
                    .begin_rtt(now, "rtt_xdma", u64::from(self.transfer_len));
                let mut t = now;
                // The test program writes its buffer contents (the same
                // bytes the VirtIO test would put on the wire).
                self.parts.payload_rng.fill_bytes(&mut self.expected);
                HostMemory::write(&mut self.parts.mem, self.h2c_buf, &self.expected);

                if self.vhost {
                    // Fig. 1 (left): the guest's virtio-net front-end
                    // builds the packet and kicks; the host-side back-end
                    // worker wakes, copies the frame out of the guest
                    // buffers, and only then drives the legacy driver.
                    t = self
                        .parts
                        .cost
                        .vhost_tx_overlay(t, self.transfer_len as usize);
                }

                // write(): syscall entry, pin/map, descriptors, program.
                self.cpu_free = self.parts.transfer(
                    t,
                    ChannelDir::H2C,
                    self.h2c_buf,
                    self.card_addr,
                    self.transfer_len,
                    sched,
                );
            }
            XdmaEv::Mmio { off, val } => {
                let Some(run) = self.parts.bar_write(now, off, val, sched) else {
                    return;
                };
                // E6: after the H2C data lands, the user logic
                // "processes" it and raises the data-ready interrupt.
                if run.dir == ChannelDir::H2C && self.wait_device_irq {
                    let design = &mut self.parts.design;
                    vf_xdma::CardMemory::read(&design.card, self.card_addr, &mut self.frame);
                    let outcome = self.echo.on_frame(&mut self.frame[12..]); // past the hdr bytes
                    self.user_proc = vf_sim::FPGA_CYCLE * outcome.cycles;
                    let ready = run.outcome.completed_at + self.user_proc;
                    if let Some(vec) = design.bar.raise_user_irq(0) {
                        if design.msix.fire(vec).is_some() {
                            let at = self.parts.link.msix_write(ready);
                            sched.at(at, XdmaEv::UserIrq);
                        }
                    }
                }
            }
            XdmaEv::ChannelIrq(dir) => {
                let mut t = self.parts.service_irq(now, self.cpu_free, dir);
                match dir {
                    ChannelDir::H2C => {
                        if self.wait_device_irq {
                            // Real use case: poll() for the data-ready
                            // interrupt before read().
                            t = self.parts.cost.block_in_syscall(t);
                            self.cpu_free = t;
                        } else {
                            // Paper setup (§IV-C): read() back-to-back.
                            self.start_read(t, sched);
                        }
                    }
                    ChannelDir::C2H => {
                        let cost = &mut self.parts.cost;
                        let d = cost.copy_user(self.transfer_len as usize);
                        vf_trace::span_at(
                            vf_trace::Layer::Syscall,
                            "copy_to_user",
                            t,
                            t + d,
                            u64::from(self.transfer_len),
                            0,
                        );
                        t += d;
                        if self.vhost {
                            // Back-end worker copies into the guest RX
                            // buffer, injects the interrupt, and the
                            // guest's stack delivers to the application.
                            t = cost.vhost_rx_overlay(t, self.transfer_len as usize);
                        }
                        // Verify the echoed buffer.
                        let got = self
                            .parts
                            .mem
                            .slice(self.c2h_buf, self.transfer_len as usize);
                        if got != self.expected {
                            self.rec.verify_failures += 1;
                        }
                        let design = &self.parts.design;
                        let hw = design.h2c_counter.last + design.c2h_counter.last;
                        let next = self.rec.close(t, hw, self.user_proc, cost);
                        self.user_proc = Time::ZERO;
                        self.cpu_free = t;
                        if let Some(next) = next {
                            sched.at(next, XdmaEv::AppSend);
                        }
                    }
                }
            }
            XdmaEv::UserIrq => {
                // poll() wakes: hardirq + wakeup + syscall exit, then read().
                let cost = &mut self.parts.cost;
                let mut t = cost.irq_wake(now.max(self.cpu_free));
                let d = cost.step(cost.costs.syscall_exit);
                vf_trace::span_at(vf_trace::Layer::Syscall, "syscall_exit", t, t + d, 0, 0);
                t += d;
                self.start_read(t, sched);
            }
        }
    }
}

impl DriverModel for XdmaWorld {
    type Telemetry = ();

    fn build(cfg: &TestbedConfig) -> Self {
        XdmaWorld::new(cfg)
    }

    fn initial_event() -> XdmaEv {
        XdmaEv::AppSend
    }

    fn describe(msg: &XdmaEv) -> Option<(vf_trace::Layer, &'static str)> {
        match msg {
            XdmaEv::AppSend => Some((vf_trace::Layer::App, "app_send")),
            XdmaEv::Mmio { .. } => Some((vf_trace::Layer::Device, "bar_write")),
            XdmaEv::ChannelIrq(_) => Some((vf_trace::Layer::Irq, "msix_channel")),
            XdmaEv::UserIrq => Some((vf_trace::Layer::Irq, "msix_user")),
        }
    }

    fn finish(self) -> (RoundTripRecorder, RunStats, ()) {
        let stats = RunStats {
            notifications: self.parts.driver.transfers[0] + self.parts.driver.transfers[1],
            irqs: self.parts.design.msix.fired,
            // The XDMA engine fetches its descriptors from host memory
            // too, but that cost is folded into the engine's run model
            // and not counted as ring-metadata reads.
            desc_reads: 0,
            walker_peak_inflight: 0,
        };
        (self.rec, stats, ())
    }
}

// ---------------------------------------------------------------------
// Testbed front door
// ---------------------------------------------------------------------

/// A configured testbed, ready to run.
pub struct Testbed {
    cfg: TestbedConfig,
}

impl Testbed {
    /// Build a testbed for one configuration.
    pub fn new(cfg: TestbedConfig) -> Self {
        Testbed { cfg }
    }

    /// Run the configured number of round trips and collect the result.
    ///
    /// Pure dispatch: every driver goes through the same generic
    /// [`run_world`] harness — only the world type differs.
    pub fn run(self) -> RunResult {
        match self.cfg.driver {
            DriverKind::Virtio | DriverKind::VirtioPacked => run_world::<VirtioWorld>(&self.cfg).0,
            DriverKind::VirtioPmd => crate::pmd::run_pmd(&self.cfg).result,
            DriverKind::VirtioMq | DriverKind::VirtioMqPacked | DriverKind::VirtioTenant => {
                run_world::<crate::mq::MqWorld>(&self.cfg).0
            }
            DriverKind::VirtioBlk => run_world::<crate::blk::BlkWorld>(&self.cfg).0,
            DriverKind::Xdma => run_world::<XdmaWorld>(&self.cfg).0,
        }
    }
}
