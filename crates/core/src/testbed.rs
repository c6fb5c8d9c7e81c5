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
//!   RX queue → MSI-X → NAPI → `recvfrom` returns;
//! * `XdmaWorld` — `write()` (pin, build descriptors, program engine,
//!   block on the H2C completion interrupt) then back-to-back `read()`
//!   (same for C2H) — including the paper's §IV-C concession that the
//!   example design raises no data-ready interrupt (optionally restored
//!   as the E6 ablation).
//!
//! Every packet records: total round-trip time (host clock, 1 ns),
//! hardware time (FPGA counters, 8 ns quanta), response-generation time
//! (deducted per §IV-B), and the derived software time.

use vf_fpga::user_logic::{ConsoleEcho, UdpEcho, UserLogic};
use vf_fpga::{bar0, Persona, VirtioFpgaDevice, XdmaExampleDesign};
use vf_hostsw::{
    CostEngine, Ipv4Addr, MacAddr, SockError, UdpStack, VirtioConsoleDriver, VirtioNetDriver,
    VirtioTransport, XdmaCharDriver,
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
    /// RSS steering mode of the MQ controller (see [`RssMode`]).
    pub rss: RssMode,
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

/// How the MQ device steers echoed flows back to queue pairs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RssMode {
    /// Toeplitz hash over the UDP destination port into a 128-entry
    /// indirection table (`VIRTIO_NET_F_RSS`-shaped), programmed at
    /// bring-up through the control virtqueue with each flow's hash
    /// slot pinned to its pair. The default.
    Toeplitz,
    /// Legacy `dst_port % pairs` steering — the pre-RSS E19 behaviour,
    /// kept as a fallback so the E19 goldens can be re-derived against
    /// the original steering function deliberately.
    PortModulo,
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
            rss: RssMode::Toeplitz,
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
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CardKind {
    /// On-chip BRAM (the designs' default).
    Bram,
    /// External DDR3 through the memory controller.
    Ddr,
}

impl CardKind {
    pub(crate) fn store(self, len: usize) -> vf_fpga::CardStore {
        match self {
            CardKind::Bram => vf_fpga::CardStore::bram(len),
            CardKind::Ddr => vf_fpga::CardStore::ddr(len),
        }
    }
}

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
// Shared VirtIO bring-up (used by the serial world here and the
// pipelined world in `crate::pipeline`)
// ---------------------------------------------------------------------

/// A fully brought-up VirtIO-net testbed: enumerated device, probed
/// driver, configured host stack, cost engine. The workload worlds own
/// one of these and sequence events around it.
pub(crate) struct VirtioParts {
    pub(crate) mem: HostMemory,
    pub(crate) link: PcieLink,
    pub(crate) device: VirtioFpgaDevice,
    pub(crate) driver: VirtioNetDriver,
    pub(crate) stack: UdpStack,
    pub(crate) cost: CostEngine,
    pub(crate) payload_rng: SimRng,
    pub(crate) fpga_ip: Ipv4Addr,
}

impl VirtioParts {
    pub(crate) fn new(cfg: &TestbedConfig) -> Self {
        assert_eq!(
            cfg.options.device_type,
            DeviceType::Net,
            "VirtioParts is the net-device bring-up"
        );
        let mut mem = HostMemory::testbed_default();
        let link = PcieLink::new(cfg.calibration.link.clone());
        let rng = SimRng::new(cfg.seed);
        let cost = CostEngine::new(
            cfg.calibration.costs.clone(),
            cfg.calibration.noise.clone(),
            rng.derive(1),
        );
        let netcfg = VirtioNetConfig::testbed_default();
        let mut device = VirtioFpgaDevice::new(
            Persona::Net { cfg: netcfg },
            net::feature::MAC
                | net::feature::MTU
                | net::feature::STATUS
                | net::feature::CSUM
                | net::feature::GUEST_CSUM,
            &[cfg.options.queue_size; 2],
            Box::new(UdpEcho::default()),
        );
        device.set_card_memory(cfg.options.card_memory.store(256 * 1024));
        let mut alloc = MmioAllocator::new();
        let info = enumerate(&mut device.config_space, &mut alloc);
        assert_eq!(info.vendor, vf_pcie::VIRTIO_VENDOR_ID);

        let mut want = feature::VERSION_1;
        if cfg.options.event_idx {
            want |= feature::RING_EVENT_IDX;
        }
        want |= net::feature::MAC | net::feature::MTU | net::feature::STATUS;
        if cfg.options.csum_offload {
            want |= net::feature::CSUM | net::feature::GUEST_CSUM;
        }
        let driver = VirtioNetDriver::init(&mut mem, cfg.options.queue_size, want);
        vf_hostsw::probe(&mut Transport(&mut device), &driver, want).expect("probe");
        device.msix_enable();
        device.msix.program(0, MSI_ADDR_BASE, 0x40);
        device.msix.program(1, MSI_ADDR_BASE, 0x41);

        let host_ip = Ipv4Addr::new(10, 0, 0, 1);
        let fpga_ip = Ipv4Addr::new(10, 0, 0, 2);
        let mut stack = UdpStack::new(host_ip, MacAddr([0x02, 0, 0, 0, 0, 0x01]));
        stack.routes.add(Ipv4Addr::new(10, 0, 0, 0), 24, None, 2);
        stack.arp.add_static(fpga_ip, MacAddr(netcfg.mac));

        VirtioParts {
            mem,
            link,
            device,
            driver,
            stack,
            cost,
            payload_rng: rng.derive(2),
            fpga_ip,
        }
    }
}

/// Build the block-persona FPGA device for E24, offering the storage
/// feature bits the persona actually implements: `SEG_MAX` (the config
/// field is valid), `FLUSH` (the disk counts cache flushes), and `RO`
/// when the disk is exposed read-only. The stub persona used to offer
/// `0` here, so no front end could ever negotiate multi-segment
/// requests — `blk_feature_offer_includes_seg_max_and_flush` in
/// `crate::blk` regresses that.
pub(crate) fn build_blk_device(cfg: &TestbedConfig) -> VirtioFpgaDevice {
    let disk =
        vf_virtio::block::MemDisk::new(cfg.options.blk_capacity_sectors, cfg.options.blk_read_only);
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
    device.set_card_memory(cfg.options.card_memory.store(256 * 1024));
    device
}

// ---------------------------------------------------------------------
// VirtIO world
// ---------------------------------------------------------------------

/// MMIO adapter: the driver's view of the device BAR.
pub(crate) struct Transport<'a>(pub(crate) &'a mut VirtioFpgaDevice);

impl VirtioTransport for Transport<'_> {
    fn common_read(&mut self, off: u64, len: usize) -> u64 {
        self.0.mmio_read(bar0::COMMON + off, len)
    }
    fn common_write(&mut self, off: u64, len: usize, val: u64) {
        self.0.mmio_write(bar0::COMMON + off, len, val);
    }
    fn device_cfg_read(&mut self, off: u64, len: usize) -> u64 {
        self.0.mmio_read(bar0::DEVICE_CFG + off, len)
    }
}

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
    mem: HostMemory,
    link: PcieLink,
    device: VirtioFpgaDevice,
    front: FrontEnd,
    stack: UdpStack,
    cost: CostEngine,
    payload_rng: SimRng,
    payload: usize,
    expected: Vec<u8>,
    cpu_free: Time,
    rec: RoundTripRecorder,
    fpga_ip: Ipv4Addr,
    src_port: u16,
}

impl VirtioWorld {
    const DST_PORT: u16 = 7; // the echo port

    fn new(cfg: &TestbedConfig) -> Self {
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
        device.set_card_memory(cfg.options.card_memory.store(256 * 1024));

        // Enumeration: discover by vendor/device ID, assign BARs, find
        // the VirtIO capabilities (§II-C requirements i & iii).
        let mut alloc = MmioAllocator::new();
        let info = enumerate(&mut device.config_space, &mut alloc);
        assert_eq!(info.vendor, vf_pcie::VIRTIO_VENDOR_ID);
        let vcaps = info.virtio_caps(&device.config_space);
        assert_eq!(vcaps.len(), 4, "device must expose all VirtIO structures");

        // Driver features to request.
        let mut want = feature::VERSION_1;
        if cfg.options.event_idx {
            want |= feature::RING_EVENT_IDX;
        }

        // Front-end bring-up + probe.
        let front = match cfg.options.device_type {
            DeviceType::Net => {
                want |= net::feature::MAC | net::feature::MTU | net::feature::STATUS;
                if cfg.options.csum_offload {
                    want |= net::feature::CSUM | net::feature::GUEST_CSUM;
                }
                if cfg.driver == DriverKind::VirtioPacked {
                    // E17: one-ring packed layout. The packed front end
                    // runs without EVENT_IDX — every TX publish rings
                    // the doorbell — so that bit is never requested.
                    want |= feature::RING_PACKED;
                    want &= !feature::RING_EVENT_IDX;
                }
                let driver = VirtioNetDriver::init(&mut mem, cfg.options.queue_size, want);
                let out = vf_hostsw::probe(&mut Transport(&mut device), &driver, want)
                    .expect("probe must succeed");
                assert_eq!(out.mtu, 1500);
                FrontEnd::Net(Box::new(driver))
            }
            DeviceType::Rng | DeviceType::Block => unreachable!("persona rejected above"),
            DeviceType::Console => {
                let driver = VirtioConsoleDriver::init(&mut mem, cfg.options.queue_size, want);
                // The console probe reuses the same transport sequence via
                // a scratch net driver facade: program queues directly.
                let net_facade = ConsoleProbeFacade {
                    rx: driver.rx_layout(),
                    tx: driver.tx_layout(),
                };
                net_facade.probe(&mut device, want);
                FrontEnd::Console(Box::new(driver))
            }
        };

        // MSI-X: the kernel allocates vectors and programs the table.
        device.msix_enable();
        device.msix.program(0, MSI_ADDR_BASE, 0x40); // RX vector
        device.msix.program(1, MSI_ADDR_BASE, 0x41); // TX vector
        assert!(device.is_live());

        // Host network configuration (§III-B1): route + static ARP.
        let host_ip = Ipv4Addr::new(10, 0, 0, 1);
        let fpga_ip = Ipv4Addr::new(10, 0, 0, 2);
        let mut stack = UdpStack::new(host_ip, MacAddr([0x02, 0, 0, 0, 0, 0x01]));
        stack.routes.add(Ipv4Addr::new(10, 0, 0, 0), 24, None, 2);
        stack.arp.add_static(fpga_ip, MacAddr(netcfg.mac));

        VirtioWorld {
            mem,
            link,
            device,
            front,
            stack,
            cost,
            payload_rng: rng.derive(2),
            payload: cfg.payload,
            expected: Vec::new(),
            cpu_free: Time::ZERO,
            rec: RoundTripRecorder::new(cfg.packets),
            fpga_ip,
            src_port: 40_000,
        }
    }

    fn csum_offload(&self) -> bool {
        match &self.front {
            FrontEnd::Net(d) => d.csum_offload(),
            FrontEnd::Console(_) => false,
        }
    }
}

/// Minimal queue bring-up for non-net personas (status dance + queue
/// programming through the same MMIO surface).
struct ConsoleProbeFacade {
    rx: vf_virtio::VirtqueueLayout,
    tx: vf_virtio::VirtqueueLayout,
}

impl ConsoleProbeFacade {
    fn probe(&self, device: &mut VirtioFpgaDevice, want: u64) {
        use vf_virtio::pci::common as c;
        use vf_virtio::status;
        let mut t = Transport(device);
        t.common_write(c::DEVICE_STATUS, 1, 0);
        t.common_write(c::DEVICE_STATUS, 1, status::ACKNOWLEDGE as u64);
        t.common_write(
            c::DEVICE_STATUS,
            1,
            (status::ACKNOWLEDGE | status::DRIVER) as u64,
        );
        let accept = want | feature::VERSION_1;
        t.common_write(c::DRIVER_FEATURE_SELECT, 4, 0);
        t.common_write(c::DRIVER_FEATURE, 4, accept & 0xFFFF_FFFF);
        t.common_write(c::DRIVER_FEATURE_SELECT, 4, 1);
        t.common_write(c::DRIVER_FEATURE, 4, accept >> 32);
        t.common_write(
            c::DEVICE_STATUS,
            1,
            (status::ACKNOWLEDGE | status::DRIVER | status::FEATURES_OK) as u64,
        );
        for (qi, layout) in [(0u16, self.rx), (1u16, self.tx)] {
            t.common_write(c::QUEUE_SELECT, 2, qi as u64);
            t.common_write(c::QUEUE_SIZE, 2, layout.size as u64);
            t.common_write(c::QUEUE_MSIX_VECTOR, 2, qi as u64);
            t.common_write(c::QUEUE_DESC_LO, 4, layout.desc & 0xFFFF_FFFF);
            t.common_write(c::QUEUE_DESC_HI, 4, layout.desc >> 32);
            t.common_write(c::QUEUE_DRIVER_LO, 4, layout.avail & 0xFFFF_FFFF);
            t.common_write(c::QUEUE_DRIVER_HI, 4, layout.avail >> 32);
            t.common_write(c::QUEUE_DEVICE_LO, 4, layout.used & 0xFFFF_FFFF);
            t.common_write(c::QUEUE_DEVICE_HI, 4, layout.used >> 32);
            t.common_write(c::QUEUE_ENABLE, 2, 1);
        }
        t.common_write(
            c::DEVICE_STATUS,
            1,
            (status::ACKNOWLEDGE | status::DRIVER | status::FEATURES_OK | status::DRIVER_OK) as u64,
        );
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
                let rtt_name = match &self.front {
                    FrontEnd::Net(d) if d.is_packed() => "rtt_virtio_packed",
                    FrontEnd::Net(_) => "rtt_virtio",
                    FrontEnd::Console(_) => "rtt_virtio_console",
                };
                self.rec.begin_rtt(now, rtt_name, self.payload as u64);
                let mut t = now;
                // Generate this packet's payload.
                let mut payload = vec![0u8; self.payload];
                self.payload_rng.fill_bytes(&mut payload);
                self.expected = payload.clone();
                let offload = self.csum_offload();

                let notify = match &mut self.front {
                    FrontEnd::Net(driver) => {
                        let (frame, cpu) = self
                            .stack
                            .sendto(
                                self.fpga_ip,
                                self.src_port,
                                Self::DST_PORT,
                                &payload,
                                offload,
                                &mut self.cost,
                            )
                            .expect("send path configured");
                        vf_trace::span_at(
                            vf_trace::Layer::Syscall,
                            "sendto",
                            t,
                            t + cpu,
                            payload.len() as u64,
                            0,
                        );
                        t += cpu;
                        let res = driver.xmit(&mut self.mem, &frame, &mut self.cost);
                        vf_trace::span_at(
                            vf_trace::Layer::Driver,
                            "virtio_xmit",
                            t,
                            t + res.cpu,
                            frame.len() as u64,
                            0,
                        );
                        t += res.cpu;
                        res.notify
                    }
                    FrontEnd::Console(driver) => {
                        // hvc write: no network stack, just the syscall +
                        // tty layer + ring add.
                        let d = self.cost.step(self.cost.costs.syscall_entry);
                        vf_trace::span_at(vf_trace::Layer::Syscall, "write_entry", t, t + d, 0, 0);
                        t += d;
                        let (notify, cpu) = driver.write(&mut self.mem, &payload, &mut self.cost);
                        vf_trace::span_at(
                            vf_trace::Layer::Driver,
                            "hvc_write",
                            t,
                            t + cpu,
                            payload.len() as u64,
                            0,
                        );
                        t += cpu;
                        notify
                    }
                };
                if notify {
                    // Doorbell: posted MMIO write into the notify region.
                    // The functional decode happens in the device's BAR
                    // logic; the TLP lands after the link flight.
                    let off = bar0::NOTIFY
                        + u64::from(net::TX_QUEUE) * u64::from(bar0::NOTIFY_MULTIPLIER);
                    let ev = self.device.mmio_write(off, 2, u64::from(net::TX_QUEUE));
                    debug_assert_eq!(ev, Some(vf_fpga::MmioEvent::Notify(net::TX_QUEUE)));
                    let arrival = self.link.mmio_write(t, 2);
                    let d = self.cost.step(self.cost.costs.mmio_write_cpu);
                    vf_trace::span_at(
                        vf_trace::Layer::Driver,
                        "doorbell_mmio",
                        t,
                        t + d,
                        u64::from(net::TX_QUEUE),
                        0,
                    );
                    t += d;
                    sched.at(arrival, VirtioEv::Doorbell(net::TX_QUEUE));
                }
                // sendto returns; the app immediately blocks in recvfrom.
                vf_trace::set_now(t);
                t += self.cost.send_return_then_block();
                self.cpu_free = t;
            }
            VirtioEv::Doorbell(queue) => {
                let out = self
                    .device
                    .process_tx_notify(now, queue, &mut self.mem, &mut self.link);
                for resp in &out.responses {
                    let rxo = self.device.deliver_response(
                        resp.ready_at,
                        net::RX_QUEUE,
                        resp,
                        &mut self.mem,
                        &mut self.link,
                    );
                    if let Some(irq_at) = rxo.irq_at {
                        sched.at(irq_at, VirtioEv::RxIrq);
                    }
                }
            }
            VirtioEv::RxIrq => {
                // Hardirq may only run once the CPU is available; on this
                // quiesced host the app has long since blocked.
                let t_irq = now.max(self.cpu_free);
                vf_trace::set_now(t_irq);
                let mut t = t_irq + self.cost.irq_to_napi();
                let mut delivered_payload: Option<Vec<u8>> = None;
                // Harvest frames from the ring (device-specific), then
                // run the shared netif_receive path over them.
                let frames = match &mut self.front {
                    FrontEnd::Net(driver) => {
                        let (frames, cpu) = driver.napi_poll(&mut self.mem, &mut self.cost);
                        vf_trace::span_at(vf_trace::Layer::Driver, "napi_poll", t, t + cpu, 0, 0);
                        t += cpu;
                        frames
                    }
                    FrontEnd::Console(driver) => {
                        let (lines, cpu) = driver.poll_rx(&mut self.mem, &mut self.cost);
                        vf_trace::span_at(vf_trace::Layer::Driver, "hvc_poll_rx", t, t + cpu, 0, 0);
                        t += cpu;
                        delivered_payload = lines.into_iter().next_back();
                        Vec::new()
                    }
                };
                for rx in frames {
                    let validated = rx.hdr.flags & vf_virtio::net::HDR_F_DATA_VALID != 0;
                    match self.stack.netif_receive(
                        &rx.frame,
                        self.src_port,
                        validated,
                        &mut self.cost,
                    ) {
                        Ok((parsed, cpu)) => {
                            vf_trace::span_at(
                                vf_trace::Layer::Syscall,
                                "udp_rx",
                                t,
                                t + cpu,
                                rx.frame.len() as u64,
                                0,
                            );
                            t += cpu;
                            delivered_payload = Some(parsed.payload);
                        }
                        Err(SockError::BadChecksum) => {
                            self.rec.verify_failures += 1;
                        }
                        Err(e) => panic!("receive path failed: {e:?}"),
                    }
                }
                let d = self.cost.step(self.cost.costs.wakeup_to_run);
                vf_trace::span_at(vf_trace::Layer::Irq, "wakeup_to_run", t, t + d, 0, 0);
                t += d;
                let len = delivered_payload.as_ref().map_or(0, |p| p.len());
                let d = self.stack.recvfrom_return(len, &mut self.cost);
                vf_trace::span_at(
                    vf_trace::Layer::Syscall,
                    "recvfrom_return",
                    t,
                    t + d,
                    len as u64,
                    0,
                );
                t += d;
                self.cpu_free = t;

                // Verify the echo.
                if delivered_payload.as_deref() != Some(&self.expected[..]) {
                    self.rec.verify_failures += 1;
                }
                let hw = self.device.counters.last_hw();
                let proc = self.device.counters.processing.last;
                self.rec.record(t, hw, proc);
                if self.rec.packets_left > 0 {
                    let next = t + self.cost.step(self.cost.costs.app_loop_overhead);
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
        let stats = RunStats {
            notifications: self.device.stats.notifications,
            irqs: self.device.stats.irqs_sent,
            desc_reads: self.device.stats.desc_reads,
            walker_peak_inflight: self.device.stats.walker_peak_inflight,
        };
        (self.rec, stats, ())
    }
}

// ---------------------------------------------------------------------
// XDMA world
// ---------------------------------------------------------------------

/// Events of the XDMA round-trip flow.
enum XdmaEv {
    /// Application starts the next `write()`/`read()` pair.
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

struct XdmaWorld {
    mem: HostMemory,
    link: PcieLink,
    design: XdmaExampleDesign,
    driver: XdmaCharDriver,
    cost: CostEngine,
    payload_rng: SimRng,
    transfer_len: u32,
    h2c_buf: u64,
    c2h_buf: u64,
    card_addr: u64,
    expected: Vec<u8>,
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
        let mut mem = HostMemory::testbed_default();
        let link = PcieLink::new(cfg.calibration.link.clone());
        let rng = SimRng::new(cfg.seed);
        let cost = CostEngine::new(
            cfg.calibration.costs.clone(),
            cfg.calibration.noise.clone(),
            rng.derive(1),
        );
        let mut design = XdmaExampleDesign::new(64 * 1024);
        design.set_card_memory(cfg.options.card_memory.store(64 * 1024));

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
        if cfg.options.xdma_wait_device_irq || cfg.options.vhost_overlay {
            design.bar.write32(
                vf_xdma::regs::target::IRQ + vf_xdma::regs::irq::USER_INT_EN,
                0b1,
            );
        }

        let transfer_len = cfg.wire_bytes() as u32;
        let h2c_buf = mem.alloc(transfer_len as usize, 4096);
        let c2h_buf = mem.alloc(transfer_len as usize, 4096);
        XdmaWorld {
            mem,
            link,
            design,
            driver,
            cost,
            payload_rng: rng.derive(2),
            transfer_len,
            h2c_buf,
            c2h_buf,
            card_addr: 0x100,
            expected: Vec::new(),
            cpu_free: Time::ZERO,
            rec: RoundTripRecorder::new(cfg.packets),
            // The vhost worker must learn when response data is ready, so
            // the overlay implies the data-ready interrupt.
            wait_device_irq: cfg.options.xdma_wait_device_irq || cfg.options.vhost_overlay,
            vhost: cfg.options.vhost_overlay,
            user_proc: Time::ZERO,
            echo: UdpEcho::default(),
        }
    }

    /// Issue a setup's MMIO writes: each costs CPU time and lands in the
    /// device after the link flight; the RUN write will start the engine.
    fn issue_mmio(
        &mut self,
        mut t: Time,
        writes: &[(u64, u32)],
        sched: &mut vf_sim::Scheduler<XdmaEv>,
    ) -> Time {
        let t0 = t;
        for &(off, val) in writes {
            let arrival = self.link.mmio_write(t, 4);
            t += self.cost.step(self.cost.costs.mmio_write_cpu);
            sched.at(arrival, XdmaEv::Mmio { off, val });
        }
        vf_trace::span_at(
            vf_trace::Layer::Driver,
            "mmio_prog",
            t0,
            t,
            writes.len() as u64,
            0,
        );
        t
    }

    /// The common interrupt-service sequence: hardirq entry, status-
    /// register read (CPU stalls a full MMIO round trip), ack write,
    /// handler body, wakeup.
    fn service_irq(&mut self, now: Time, dir: ChannelDir) -> Time {
        let t_irq = now.max(self.cpu_free);
        vf_trace::set_now(t_irq);
        let mut t = t_irq + self.cost.irq_entry();
        // ISR reads the channel status register (read-to-clear).
        let t_isr = t;
        let status_off = match dir {
            ChannelDir::H2C => vf_xdma::regs::target::H2C + vf_xdma::regs::chan::STATUS_RC,
            ChannelDir::C2H => vf_xdma::regs::target::C2H + vf_xdma::regs::chan::STATUS_RC,
        };
        let _status = self.design.mmio_read(status_off);
        t = self.link.mmio_read(t, 4); // non-posted: CPU stalls
        t += self.cost.step(self.cost.costs.mmio_read_cpu);
        // ... and the completed-descriptor count (second non-posted read).
        let completed_off = match dir {
            ChannelDir::H2C => vf_xdma::regs::target::H2C + vf_xdma::regs::chan::COMPLETED,
            ChannelDir::C2H => vf_xdma::regs::target::C2H + vf_xdma::regs::chan::COMPLETED,
        };
        let _count = self.design.mmio_read(completed_off);
        t = self.link.mmio_read(t, 4);
        t += self.cost.step(self.cost.costs.mmio_read_cpu);
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
        t += d;
        t
    }

    /// Start the `read()` phase (C2H transfer).
    fn start_read(&mut self, mut t: Time, sched: &mut vf_sim::Scheduler<XdmaEv>) {
        let d = self.cost.step(self.cost.costs.syscall_entry);
        vf_trace::span_at(vf_trace::Layer::Syscall, "read_entry", t, t + d, 0, 0);
        t += d;
        let setup = self.driver.read_setup(
            &mut self.mem,
            self.c2h_buf,
            self.card_addr,
            self.transfer_len,
            &mut self.cost,
        );
        vf_trace::span_at(
            vf_trace::Layer::Driver,
            "xdma_read_setup",
            t,
            t + setup.cpu,
            u64::from(self.transfer_len),
            0,
        );
        t += setup.cpu;
        let writes = setup.mmio_writes.clone();
        t = self.issue_mmio(t, &writes, sched);
        let d = self.cost.step(self.cost.costs.block_schedule);
        vf_trace::span_at(vf_trace::Layer::Syscall, "block_schedule", t, t + d, 0, 0);
        t += d;
        self.cpu_free = t;
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
                let mut data = vec![0u8; self.transfer_len as usize];
                self.payload_rng.fill_bytes(&mut data);
                HostMemory::write(&mut self.mem, self.h2c_buf, &data);
                self.expected = data;

                if self.vhost {
                    // Fig. 1 (left): the guest's virtio-net front-end
                    // builds the packet and kicks; the host-side back-end
                    // worker wakes, copies the frame out of the guest
                    // buffers, and only then drives the legacy driver.
                    vf_trace::set_now(t);
                    t += self.cost.vhost_tx_overlay(self.transfer_len as usize);
                }

                // write(): syscall entry, pin/map, descriptors, program.
                let d = self.cost.step(self.cost.costs.syscall_entry);
                vf_trace::span_at(vf_trace::Layer::Syscall, "write_entry", t, t + d, 0, 0);
                t += d;
                let setup = self.driver.write_setup(
                    &mut self.mem,
                    self.h2c_buf,
                    self.card_addr,
                    self.transfer_len,
                    &mut self.cost,
                );
                vf_trace::span_at(
                    vf_trace::Layer::Driver,
                    "xdma_write_setup",
                    t,
                    t + setup.cpu,
                    u64::from(self.transfer_len),
                    0,
                );
                t += setup.cpu;
                let writes = setup.mmio_writes.clone();
                t = self.issue_mmio(t, &writes, sched);
                let d = self.cost.step(self.cost.costs.block_schedule);
                vf_trace::span_at(vf_trace::Layer::Syscall, "block_schedule", t, t + d, 0, 0);
                t += d;
                self.cpu_free = t;
            }
            XdmaEv::Mmio { off, val } => {
                let run = self
                    .design
                    .mmio_write(now, off, val, &mut self.mem, &mut self.link)
                    .expect("descriptor list is well-formed");
                if let Some(run) = run {
                    if let Some(irq_at) = run.irq_at {
                        sched.at(irq_at, XdmaEv::ChannelIrq(run.dir));
                    }
                    // E6: after the H2C data lands, the user logic
                    // "processes" it and raises the data-ready interrupt.
                    if run.dir == ChannelDir::H2C && self.wait_device_irq {
                        let mut frame = vec![0u8; self.transfer_len as usize];
                        vf_xdma::CardMemory::read(&self.design.card, self.card_addr, &mut frame);
                        let outcome = self.echo.on_frame(&frame[12..]); // past the hdr bytes
                        self.user_proc = vf_sim::FPGA_CYCLE * outcome.cycles;
                        let ready = run.outcome.completed_at + self.user_proc;
                        if let Some(vec) = self.design.bar.raise_user_irq(0) {
                            if self.design.msix.fire(vec).is_some() {
                                let at = self.link.msix_write(ready);
                                sched.at(at, XdmaEv::UserIrq);
                            }
                        }
                    }
                }
            }
            XdmaEv::ChannelIrq(dir) => {
                let t = self.service_irq(now, dir);
                match dir {
                    ChannelDir::H2C => {
                        if self.wait_device_irq {
                            // Real use case: poll() for the data-ready
                            // interrupt before read().
                            let mut t = t;
                            vf_trace::set_now(t);
                            t += self.cost.block_in_syscall();
                            self.cpu_free = t;
                        } else {
                            // Paper setup (§IV-C): read() back-to-back.
                            self.start_read(t, sched);
                        }
                    }
                    ChannelDir::C2H => {
                        let mut t = t;
                        let d = self.cost.copy_user(self.transfer_len as usize);
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
                            vf_trace::set_now(t);
                            t += self.cost.vhost_rx_overlay(self.transfer_len as usize);
                        }
                        // Verify the echoed buffer.
                        let got = self
                            .mem
                            .slice(self.c2h_buf, self.transfer_len as usize)
                            .to_vec();
                        if got != self.expected {
                            self.rec.verify_failures += 1;
                        }
                        let hw = self.design.h2c_counter.last + self.design.c2h_counter.last;
                        self.rec.record(t, hw, self.user_proc);
                        self.user_proc = Time::ZERO;
                        self.cpu_free = t;
                        if self.rec.packets_left > 0 {
                            let next = t + self.cost.step(self.cost.costs.app_loop_overhead);
                            sched.at(next, XdmaEv::AppSend);
                        }
                    }
                }
            }
            XdmaEv::UserIrq => {
                // poll() wakes: hardirq + wakeup + syscall exit, then read().
                let t_irq = now.max(self.cpu_free);
                vf_trace::set_now(t_irq);
                let mut t = t_irq + self.cost.irq_wake();
                let d = self.cost.step(self.cost.costs.syscall_exit);
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
            notifications: self.driver.transfers[0] + self.driver.transfers[1],
            irqs: self.design.msix.fired,
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
