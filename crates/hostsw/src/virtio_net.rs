//! The in-kernel virtio-net front-end driver model.
//!
//! Embodies the VirtIO design philosophy the paper evaluates (§IV-A):
//! all ring addresses are shared with the device **once, during device
//! initialization**; at runtime, transmitting costs two buffer writes, a
//! ring publish, and at most one doorbell, while receiving is driven by
//! pre-posted buffers and a NAPI poll off the MSI-X interrupt.
//!
//! Functional state lives in simulated host memory via the real
//! `vf-virtio` driver-side rings; CPU time is charged through the
//! [`CostEngine`](crate::cost). The probe sequence
//! ([`probe`], over the shared [`crate::virtio_pci`] core) exercises the
//! same modern-PCI transport the FPGA device model exposes.
//!
//! The ring layout follows the negotiated `RING_PACKED` bit: split
//! rings (the paper's driver) or the VirtIO 1.2 packed layout (E17),
//! one [`DriverRing`] per queue either way. The CPU costs are charged
//! identically on purpose — E17 isolates the *device-side*
//! descriptor-fetch difference, not a host-software delta. Two policy
//! differences follow from the packed feature set (`RING_PACKED`
//! without `RING_EVENT_IDX`): every TX publish rings the doorbell, and
//! the device never suppresses the RX vector.

use vf_pcie::HostMemory;
use vf_sim::Time;
use vf_virtio::net::{VirtioNetHdr, HDR_F_NEEDS_CSUM};
use vf_virtio::{
    feature as core_feature, net, BufferSpec, DriverRing, GuestMemory, VirtioTransport,
    VirtqueueLayout,
};

use crate::cost::CostEngine;
use crate::virtio_pci::{negotiate, program_queue, require_queues, set_driver_ok, ProbeError};

/// How the driver lays out one RX buffer: header + frame space.
pub const RX_BUF_SIZE: u32 = 2048;

/// Result of a transmit call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct XmitResult {
    /// Whether the device must be notified (doorbell MMIO write).
    pub notify: bool,
    /// CPU time consumed by the transmit path.
    pub cpu: Time,
    /// Head descriptor of the published chain.
    pub head: u16,
}

/// A frame delivered to the stack by the NAPI poll.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RxFrame {
    /// The virtio-net header the device wrote.
    pub hdr: VirtioNetHdr,
    /// The Ethernet frame bytes.
    pub frame: Vec<u8>,
}

/// The frames of one NAPI poll. Each poll refills the same frame
/// buffers, so a warm poll copies frames without allocating.
#[derive(Clone, Debug, Default)]
pub struct RxBatch {
    frames: Vec<RxFrame>,
    len: usize,
}

impl RxBatch {
    /// The frames of the last poll, in ring order.
    pub fn frames(&self) -> &[RxFrame] {
        &self.frames[..self.len]
    }

    /// Append a frame of `len` bytes read from `addr`.
    fn push(&mut self, mem: &HostMemory, hdr: VirtioNetHdr, addr: u64, len: usize) {
        if self.len == self.frames.len() {
            self.frames.push(RxFrame::default());
        }
        let rx = &mut self.frames[self.len];
        rx.hdr = hdr;
        rx.frame.clear();
        rx.frame.resize(len, 0);
        GuestMemory::read(mem, addr, &mut rx.frame);
        self.len += 1;
    }
}

/// The driver instance bound to one virtio-net device.
#[derive(Clone, Debug)]
pub struct VirtioNetDriver {
    /// Driver side of `transmitq1`.
    pub tx: DriverRing,
    /// Driver side of `receiveq1`.
    pub rx: DriverRing,
    /// Negotiated feature bits.
    pub features: u64,
    tx_slots: Vec<u64>,
    next_tx_slot: usize,
    rx_buf_of_id: Vec<Option<u64>>,
    /// TX chains awaiting completion-clean (freed lazily on later xmits,
    /// as virtio-net frees old skbs).
    pub tx_inflight: u16,
    /// Frames of the last [`VirtioNetDriver::napi_poll`].
    rx_batch: RxBatch,
}

impl VirtioNetDriver {
    /// Allocate rings and buffers, post all RX buffers. `queue_size` per
    /// direction; `features` (the set the driver will request) picks the
    /// ring layout. The areas to program into the device are
    /// [`DriverRing::areas`] of [`Self::tx`]/[`Self::rx`].
    pub fn init(mem: &mut HostMemory, queue_size: u16, features: u64) -> Self {
        let packed = features & core_feature::RING_PACKED != 0;
        let event_idx = features & core_feature::RING_EVENT_IDX != 0;
        let tx = DriverRing::alloc(mem, queue_size, packed, event_idx);
        let mut rx = DriverRing::alloc(mem, queue_size, packed, event_idx);
        // TX completions are harvested lazily on later transmits — the
        // driver does not want TX interrupts (virtqueue_disable_cb). The
        // packed device never interrupts for TX.
        if let DriverRing::Split(q) = &tx {
            if event_idx {
                q.park_used_event(mem);
            } else {
                q.set_no_interrupt(mem, true);
            }
        }

        // TX slots: header + frame contiguous, one slot per descriptor
        // pair that can be in flight. Packed slots are RCB-aligned so the
        // device's merged header+frame burst starts on a read-chunk
        // boundary — otherwise the split-vs-packed comparison (E17)
        // would pick up a chunk crossing that is an allocator accident,
        // not ring structure.
        let align = if packed { 512 } else { 64 };
        let tx_slots: Vec<u64> = (0..queue_size / 2)
            .map(|_| mem.alloc(RX_BUF_SIZE as usize, align))
            .collect();

        // RX buffers: post every one (header written inline by the
        // device, VERSION_1 single-buffer layout), then publish them
        // all with one avail-index store.
        let mut rx_buf_of_id = vec![None; queue_size as usize];
        let mut heads = Vec::with_capacity(queue_size as usize);
        for _ in 0..queue_size {
            let buf = mem.alloc(RX_BUF_SIZE as usize, align);
            let id = rx
                .add(mem, &[BufferSpec::writable(buf, RX_BUF_SIZE)])
                .expect("fresh queue cannot be full");
            rx_buf_of_id[id as usize] = Some(buf);
            heads.push(id);
        }
        rx.publish_batch(mem, &heads)
            .expect("a fresh queue holds every buffer");
        VirtioNetDriver {
            tx,
            rx,
            features,
            tx_slots,
            next_tx_slot: 0,
            rx_buf_of_id,
            tx_inflight: 0,
            rx_batch: RxBatch::default(),
        }
    }

    /// True if the rings use the packed layout.
    pub fn is_packed(&self) -> bool {
        self.tx.is_packed()
    }

    /// True if checksum offload to the device was negotiated.
    pub fn csum_offload(&self) -> bool {
        self.features & net::feature::CSUM != 0
    }

    /// Transmit one Ethernet frame. Charges: TX-completion cleaning of
    /// earlier packets, header+frame writes, ring add/publish, and the
    /// notify decision. The doorbell MMIO itself is charged by the caller
    /// (it needs the link).
    pub fn xmit(
        &mut self,
        mem: &mut HostMemory,
        frame: &[u8],
        cost: &mut CostEngine,
    ) -> XmitResult {
        let mut cpu = Time::ZERO;
        // Free old completed TX chains (lazy clean, as virtio-net does).
        let mut cleaned = false;
        while self.tx.pop_used(mem).is_some() {
            self.tx_inflight -= 1;
            cleaned = true;
            cpu += cost.step(Time::from_ns(150));
        }
        if cleaned {
            // pop_used re-armed the TX used_event; park it again.
            self.tx.park_used_event(mem);
        }

        let slot = self.tx_slots[self.next_tx_slot % self.tx_slots.len()];
        self.next_tx_slot += 1;
        let hdr = if self.csum_offload() {
            // Ask the device to complete the UDP checksum: csum_start =
            // start of UDP header, csum_offset = 6 (UDP checksum field).
            VirtioNetHdr {
                flags: HDR_F_NEEDS_CSUM,
                csum_start: (crate::packet::ETH_HDR_LEN + crate::packet::IPV4_HDR_LEN) as u16,
                csum_offset: 6,
                num_buffers: 1,
                ..Default::default()
            }
        } else {
            VirtioNetHdr {
                num_buffers: 1,
                ..Default::default()
            }
        };
        hdr.write_to(mem, slot);
        GuestMemory::write(mem, slot + VirtioNetHdr::LEN as u64, frame);
        cpu += cost.copy_user(frame.len());

        let (head, notify) = self
            .tx
            .publish_notify(
                mem,
                &[
                    BufferSpec::readable(slot, VirtioNetHdr::LEN as u32),
                    BufferSpec::readable(slot + VirtioNetHdr::LEN as u64, frame.len() as u32),
                ],
            )
            .expect("TX ring full: more in-flight packets than slots");
        self.tx_inflight += 1;
        cpu += cost.step(cost.costs.virtio_xmit);
        XmitResult { notify, cpu, head }
    }

    /// NAPI poll: harvest received frames, repost their buffers. Charges
    /// per-frame receive-path costs.
    pub fn napi_poll(&mut self, mem: &mut HostMemory, cost: &mut CostEngine) -> (&[RxFrame], Time) {
        let mut batch = std::mem::take(&mut self.rx_batch);
        let cpu = self.poll_into(mem, cost, &mut batch);
        self.rx_batch = batch;
        (self.rx_batch.frames(), cpu)
    }

    /// [`VirtioNetDriver::napi_poll`] into `batch`, for an owner that
    /// polls several drivers through one batch.
    pub fn poll_into(
        &mut self,
        mem: &mut HostMemory,
        cost: &mut CostEngine,
        batch: &mut RxBatch,
    ) -> Time {
        batch.len = 0;
        let mut cpu = Time::ZERO;
        while let Some(used) = self.rx.pop_used(mem) {
            let buf = self.rx_buf_of_id[used.id as usize]
                .take()
                .expect("used RX id without a posted buffer");
            let hdr = VirtioNetHdr::read_from(mem, buf);
            let frame_len = (used.len as usize).saturating_sub(VirtioNetHdr::LEN);
            batch.push(mem, hdr, buf + VirtioNetHdr::LEN as u64, frame_len);
            cpu += cost.step(cost.costs.virtio_napi_rx);
            // Repost the buffer.
            let id = self
                .rx
                .publish(mem, &[BufferSpec::writable(buf, RX_BUF_SIZE)])
                .expect("repost cannot fail: we just freed a chain");
            self.rx_buf_of_id[id as usize] = Some(buf);
        }
        cpu
    }
}

/// Result of a successful probe.
#[derive(Clone, Copy, Debug)]
pub struct ProbeOutcome {
    /// Negotiated feature bits.
    pub features: u64,
    /// Device MAC address (from device config).
    pub mac: [u8; 6],
    /// Device MTU.
    pub mtu: u16,
}

/// The virtio-pci + virtio-net probe sequence (VirtIO 1.2 §3.1.1) for
/// the kernel driver: the shared [`crate::virtio_pci`] core over
/// `driver`'s rings. This is exactly the MMIO the kernel issues at
/// `virtio_pci` probe time.
///
/// A packed-ring driver cannot fall back to split rings: if the device
/// did not offer `RING_PACKED`, the probe gives up with FAILED before
/// FEATURES_OK. A packed queue is one ring, so only its descriptor area
/// is programmed; the driver/device area registers are written zero.
pub fn probe<T: VirtioTransport>(
    transport: &mut T,
    driver: &VirtioNetDriver,
    want_features: u64,
) -> Result<ProbeOutcome, ProbeError> {
    let required = if driver.is_packed() {
        core_feature::RING_PACKED
    } else {
        0
    };
    probe_net(
        transport,
        [driver.rx.areas(), driver.tx.areas()],
        want_features,
        required,
    )
}

/// Bring up a single-queue-pair virtio-net device over any front end's
/// rings: negotiate (`required` bits or FAILED), program `receiveq1`
/// at `rx` and `transmitq1` at `tx`, set DRIVER_OK, then read MAC and
/// MTU from the device config.
pub fn probe_net<T: VirtioTransport>(
    transport: &mut T,
    [rx, tx]: [VirtqueueLayout; 2],
    want_features: u64,
    required: u64,
) -> Result<ProbeOutcome, ProbeError> {
    let features = negotiate(transport, want_features, required)?;
    require_queues(transport, 2)?;
    program_queue(transport, net::RX_QUEUE, rx);
    program_queue(transport, net::TX_QUEUE, tx);
    set_driver_ok(transport);
    let (mac, mtu) = read_mac_mtu(transport);
    Ok(ProbeOutcome { features, mac, mtu })
}

/// Read MAC and MTU from the virtio-net device config.
pub(crate) fn read_mac_mtu<T: VirtioTransport>(transport: &mut T) -> ([u8; 6], u16) {
    let mut mac = [0u8; 6];
    let mac_lo = transport.device_cfg_read(0, 4);
    let mac_hi = transport.device_cfg_read(4, 2);
    mac[..4].copy_from_slice(&(mac_lo as u32).to_le_bytes());
    mac[4..].copy_from_slice(&(mac_hi as u16).to_le_bytes());
    (mac, transport.device_cfg_read(10, 2) as u16)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use vf_sim::{NoiseModel, SimRng};
    use vf_virtio::net::VirtioNetConfig;
    use vf_virtio::{status, DeviceRing, RingChain};

    use crate::cost::HostCosts;
    use crate::virtio_pci::tests::Loopback;

    /// Both ring layouts, for a check with no packed run of its own. A
    /// check that takes a `packed` input runs here on split rings and in
    /// `crate::virtio_packed` on packed rings.
    const LAYOUTS: [bool; 2] = [false, true];

    fn cost_engine() -> CostEngine {
        CostEngine::new(
            HostCosts::fedora37(),
            NoiseModel::noiseless(),
            SimRng::new(5),
        )
    }

    /// What the testbed requests: split rings with EVENT_IDX, or packed
    /// rings without it.
    fn driver_features(packed: bool) -> u64 {
        let layout = if packed {
            core_feature::RING_PACKED
        } else {
            core_feature::RING_EVENT_IDX
        };
        core_feature::VERSION_1 | layout | net::feature::MAC
    }

    /// The device side of a driver ring.
    fn device_side(ring: &DriverRing) -> DeviceRing {
        let a = ring.areas();
        if ring.is_packed() {
            DeviceRing::packed(a.desc, a.size, 0)
        } else {
            DeviceRing::split(a, true, false, 0)
        }
    }

    /// Every chain published on `dev` so far.
    fn take_all(dev: &mut DeviceRing, mem: &HostMemory) -> Vec<RingChain> {
        dev.prologue(mem, false);
        std::iter::from_fn(|| dev.next_chain(mem).unwrap()).collect()
    }

    #[test]
    fn init_posts_all_rx_buffers() {
        init_posts_all_rx_buffers_on(false);
    }

    pub(crate) fn init_posts_all_rx_buffers_on(packed: bool) {
        let mut mem = HostMemory::testbed_default();
        let drv = VirtioNetDriver::init(&mut mem, 64, driver_features(packed));
        assert_eq!(drv.is_packed(), packed);
        assert_eq!(take_all(&mut device_side(&drv.rx), &mem).len(), 64);
        assert_eq!(drv.rx.num_free(), 0);
        assert_eq!(drv.tx.num_free(), 64);
    }

    #[test]
    fn xmit_publishes_two_descriptor_chain() {
        xmit_publishes_two_descriptor_chain_on(false);
    }

    pub(crate) fn xmit_publishes_two_descriptor_chain_on(packed: bool) {
        let mut mem = HostMemory::testbed_default();
        let mut cost = cost_engine();
        let mut drv = VirtioNetDriver::init(&mut mem, 64, driver_features(packed));
        let frame = vec![0xEE; 106];
        let res = drv.xmit(&mut mem, &frame, &mut cost);
        assert!(res.notify, "first xmit must ring the doorbell");
        assert!(res.cpu > Time::ZERO);

        let chains = take_all(&mut device_side(&drv.tx), &mem);
        let chain = &chains[0];
        assert_eq!(chain.bufs.len(), 2);
        assert_eq!(chain.bufs[0].len as usize, VirtioNetHdr::LEN);
        assert_eq!(chain.bufs[1].len as usize, frame.len());
        // Frame bytes visible to the device.
        let got = GuestMemory::read_vec(&mem, chain.bufs[1].addr, frame.len());
        assert_eq!(got, frame);
        // EVENT_IDX suppresses the second doorbell while the device
        // has not caught up; without it, packed notifies every time.
        let res2 = drv.xmit(&mut mem, &frame, &mut cost);
        assert_eq!(res2.notify, packed, "packed={packed}");
    }

    #[test]
    fn csum_offload_sets_needs_csum() {
        for packed in LAYOUTS {
            let mut mem = HostMemory::testbed_default();
            let mut cost = cost_engine();
            let features = driver_features(packed) | net::feature::CSUM;
            let mut drv = VirtioNetDriver::init(&mut mem, 8, features);
            assert!(drv.csum_offload());
            drv.xmit(&mut mem, &[0u8; 60], &mut cost);
            let chains = take_all(&mut device_side(&drv.tx), &mem);
            let hdr = VirtioNetHdr::read_from(&mem, chains[0].bufs[0].addr);
            assert_eq!(hdr.flags, HDR_F_NEEDS_CSUM);
            assert_eq!(hdr.csum_start, 34);
            assert_eq!(hdr.csum_offset, 6);
        }
    }

    #[test]
    fn rx_round_trip_through_napi() {
        rx_round_trip_through_napi_on(false);
    }

    pub(crate) fn rx_round_trip_through_napi_on(packed: bool) {
        let mut mem = HostMemory::testbed_default();
        let mut cost = cost_engine();
        let mut drv = VirtioNetDriver::init(&mut mem, 16, driver_features(packed));
        let mut dev = device_side(&drv.rx);

        // Device receives a frame and writes it into the first
        // posted buffer.
        let frame = vec![0x5A; 80];
        dev.prologue(&mem, true);
        let chain = dev.next_chain(&mem).unwrap().unwrap();
        let buf = chain.bufs[0];
        assert!(buf.writable);
        let hdr = VirtioNetHdr {
            num_buffers: 1,
            ..Default::default()
        };
        hdr.write_to(&mut mem, buf.addr);
        GuestMemory::write(&mut mem, buf.addr + VirtioNetHdr::LEN as u64, &frame);
        dev.complete(&mut mem, &chain, (VirtioNetHdr::LEN + frame.len()) as u32);

        let (frames, cpu) = drv.napi_poll(&mut mem, &mut cost);
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].frame, frame);
        assert!(cpu > Time::ZERO);
        // Buffer reposted: the device again sees a full complement of
        // posted RX buffers (15 untouched + 1 reposted).
        assert_eq!(take_all(&mut dev, &mem).len(), 16);
    }

    #[test]
    fn tx_clean_frees_ring_space() {
        tx_clean_frees_ring_space_on(false);
    }

    pub(crate) fn tx_clean_frees_ring_space_on(packed: bool) {
        let mut mem = HostMemory::testbed_default();
        let mut cost = cost_engine();
        let mut drv = VirtioNetDriver::init(&mut mem, 8, driver_features(packed));
        let mut dev = device_side(&drv.tx);
        // 4 slots × 2 descriptors = ring capacity 8; send 4,
        // complete, send 4 more.
        for _ in 0..4 {
            drv.xmit(&mut mem, &[1u8; 64], &mut cost);
        }
        assert_eq!(drv.tx.num_free(), 0);
        for chain in take_all(&mut dev, &mem) {
            dev.complete(&mut mem, &chain, 0);
        }
        for _ in 0..4 {
            drv.xmit(&mut mem, &[2u8; 64], &mut cost);
        }
        assert_eq!(drv.tx_inflight, 4);
    }

    /// A net device over the shared loopback transport.
    fn net_loopback(offered: u64, queue_sizes: &[u16]) -> Loopback {
        let netcfg = VirtioNetConfig::testbed_default();
        Loopback::new(offered, queue_sizes, move |off, len| netcfg.read(off, len))
    }

    #[test]
    fn probe_full_sequence() {
        probe_full_sequence_on(false);
    }

    pub(crate) fn probe_full_sequence_on(packed: bool) {
        let mut mem = HostMemory::testbed_default();
        let want = driver_features(packed) | net::feature::CSUM;
        let drv = VirtioNetDriver::init(&mut mem, 256, want);
        let offered = core_feature::VERSION_1
            | core_feature::RING_EVENT_IDX
            | core_feature::RING_PACKED
            | net::feature::MAC
            | net::feature::MTU
            | net::feature::CSUM;
        let mut t = net_loopback(offered, &[256, 256]);
        let out = probe(&mut t, &drv, want).unwrap();
        assert_eq!(out.mac, VirtioNetConfig::testbed_default().mac);
        assert_eq!(out.mtu, 1500);
        assert!(out.features & core_feature::VERSION_1 != 0);
        assert!(out.features & net::feature::CSUM != 0);
        // Only the requested layout lands; MTU wasn't requested.
        assert_eq!(out.features & core_feature::RING_PACKED != 0, packed);
        assert_eq!(out.features & core_feature::RING_EVENT_IDX != 0, !packed);
        assert_eq!(out.features & net::feature::MTU, 0);
        assert!(t.cfg.negotiation.is_live());
        assert!(t.cfg.queue(0).enabled && t.cfg.queue(1).enabled);
        assert_eq!(t.cfg.queue(0).layout(), drv.rx.areas());
        assert_eq!(t.cfg.queue(1).layout(), drv.tx.areas());
        if packed {
            // A packed queue is one ring: driver/device areas zero.
            assert_eq!((t.cfg.queue(0).driver, t.cfg.queue(0).device), (0, 0));
        }
    }

    #[test]
    fn probe_fails_without_packed_offer() {
        let mut mem = HostMemory::testbed_default();
        let drv = VirtioNetDriver::init(&mut mem, 16, driver_features(true));
        // Device offers split-ring features only.
        let mut t = net_loopback(
            core_feature::VERSION_1 | core_feature::RING_EVENT_IDX,
            &[16, 16],
        );
        assert_eq!(
            probe(&mut t, &drv, driver_features(true)).unwrap_err(),
            ProbeError::MissingFeature(core_feature::RING_PACKED)
        );
        assert!(
            t.status() & status::FAILED != 0,
            "driver must leave FAILED behind"
        );
        assert_eq!(
            t.status() & status::FEATURES_OK,
            0,
            "packed check precedes FEATURES_OK"
        );
        assert!(!t.cfg.negotiation.is_live());
    }

    #[test]
    fn probe_rejection_leaves_failed_status_on_device() {
        let mut mem = HostMemory::testbed_default();
        let drv = VirtioNetDriver::init(&mut mem, 16, driver_features(false));
        // The device advertises a feature bit its core never offered,
        // which drives the probe into the FEATURES_OK rejection path.
        let mut t = net_loopback(driver_features(false), &[16, 16]);
        t.bogus = 1 << 7;
        assert_eq!(
            probe(&mut t, &drv, driver_features(false) | (1 << 7)).unwrap_err(),
            ProbeError::FeaturesRejected
        );
        assert!(
            t.status() & status::FAILED != 0,
            "device must see the driver's FAILED write"
        );
        assert_eq!(t.status() & status::FEATURES_OK, 0);
        assert!(!t.cfg.negotiation.is_live());
    }

    #[test]
    fn probe_rejects_insufficient_queues() {
        let mut mem = HostMemory::testbed_default();
        let drv = VirtioNetDriver::init(&mut mem, 16, driver_features(false));
        let mut t = net_loopback(core_feature::VERSION_1, &[16]);
        assert_eq!(
            probe(&mut t, &drv, core_feature::VERSION_1).unwrap_err(),
            ProbeError::NotEnoughQueues { have: 1, need: 2 }
        );
    }
}
