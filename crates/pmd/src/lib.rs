//! # vf-pmd — userspace kernel-bypass poll-mode VirtIO driver
//!
//! The third driver architecture of the testbed, next to the in-kernel
//! virtio-net driver (`vf-hostsw::virtio_net`) and the vendor XDMA
//! character device (`vf-hostsw::xdma_char`): a DPDK-style poll-mode
//! driver (PMD) that takes the paper's observation — latency is
//! dominated by host *software events*, not the PCIe link — to its
//! logical end by eliminating those events entirely:
//!
//! * the device's BARs are mapped into the process VFIO-style **once, at
//!   init** ([`probe`]); after that the kernel is never entered again.
//!   The probe is the kernel driver's own net probe
//!   ([`vf_hostsw::probe_net`], the one VirtIO 1.2 §3.1.1 sequence) over
//!   the PMD's rings, with `VIRTIO_F_RING_EVENT_IDX` required;
//! * RX buffers are all pre-posted; completions are discovered by
//!   **busy-polling** the used index, not by MSI-X;
//! * interrupt suppression (`VIRTIO_F_RING_EVENT_IDX` with a parked
//!   `used_event`) is held **permanently on** for both queues;
//! * descriptor work is **batched**: one avail-index store publishes a
//!   whole TX burst ([`VirtioPmd::tx_burst`]), one used-index read
//!   harvests a whole RX burst ([`VirtioPmd::rx_burst`]);
//! * the doorbell is rung only when the device may be asleep (the
//!   `EVENT_IDX` notify test says so) — under load it stays silent.
//!
//! What remains per packet is pure user-space work: build the frame,
//! write two descriptors, spin on a cache line. The cost model for the
//! spin itself lives in `vf-hostsw::cost` (`poll_wait` / `burn`); this
//! crate contributes the structural driver model.
//!
//! An optional adaptive mode ([`VirtioPmd::arm_rx_interrupt`]; the
//! next harvest by [`VirtioPmd::rx_burst`] parks the interrupt again)
//! lets a runtime fall back to MSI-X after an idle threshold — the
//! poll-vs-interrupt crossover experiment (E16) drives it.

#![warn(missing_docs)]

use vf_hostsw::{CostEngine, ProbeError, ProbeOutcome, RxFrame};
use vf_pcie::HostMemory;
use vf_sim::Time;
use vf_virtio::driver_queue::{BufferSpec, DriverQueue};
use vf_virtio::net::VirtioNetHdr;
use vf_virtio::ring::VirtqueueLayout;
use vf_virtio::{feature as core_feature, GuestMemory, VirtioTransport};

/// RX buffer size: virtio-net header + full frame, like the kernel
/// driver, so the two are byte-for-byte comparable.
pub const RX_BUF_SIZE: u32 = 2048;

/// Event counters of one PMD instance.
#[derive(Clone, Copy, Debug, Default)]
pub struct PmdStats {
    /// Frames handed to [`VirtioPmd::tx_burst`].
    pub tx_packets: u64,
    /// Frames returned by [`VirtioPmd::rx_burst`].
    pub rx_packets: u64,
    /// Doorbells the notify test required (MMIO writes the caller
    /// issued).
    pub doorbells: u64,
    /// RX burst harvests that returned at least one frame.
    pub rx_bursts: u64,
    /// Times the adaptive runtime armed the RX interrupt and slept
    /// (poll→interrupt fallbacks).
    pub irq_fallbacks: u64,
}

/// Result of one TX burst.
#[derive(Clone, Debug)]
pub struct TxBurst {
    /// Whether the device must be kicked (it may have gone to sleep).
    pub notify: bool,
    /// CPU time consumed building and publishing the burst.
    pub cpu: Time,
    /// Head descriptors of the published chains, in order.
    pub heads: Vec<u16>,
}

/// The poll-mode driver bound to one virtio-net device.
#[derive(Clone, Debug)]
pub struct VirtioPmd {
    /// Driver side of `transmitq1`.
    pub tx: DriverQueue,
    /// Driver side of `receiveq1`.
    pub rx: DriverQueue,
    /// Negotiated feature bits.
    pub features: u64,
    tx_slots: Vec<u64>,
    next_tx_slot: usize,
    rx_slot_of_head: Vec<Option<u64>>,
    tx_inflight: u16,
    /// Event counters.
    pub stats: PmdStats,
}

impl VirtioPmd {
    /// Allocate rings and DMA buffers in (simulated) hugepage-backed
    /// process memory, pre-post every RX buffer, and park `used_event`
    /// on **both** queues — the PMD never wants an interrupt.
    ///
    /// `features` must include `VIRTIO_F_RING_EVENT_IDX`: the parked
    /// `used_event` is what makes permanent suppression expressible to
    /// the device.
    pub fn init(mem: &mut HostMemory, queue_size: u16, features: u64) -> Self {
        assert!(
            features & core_feature::RING_EVENT_IDX != 0,
            "vf-pmd requires VIRTIO_F_RING_EVENT_IDX for permanent interrupt suppression"
        );
        let tx_ring = mem.alloc(
            VirtqueueLayout::contiguous(0, queue_size).total_bytes() as usize,
            4096,
        );
        let rx_ring = mem.alloc(
            VirtqueueLayout::contiguous(0, queue_size).total_bytes() as usize,
            4096,
        );
        let tx = DriverQueue::new(mem, VirtqueueLayout::contiguous(tx_ring, queue_size), true);
        let mut rx = DriverQueue::new(mem, VirtqueueLayout::contiguous(rx_ring, queue_size), true);
        tx.park_used_event(mem);

        let tx_slots: Vec<u64> = (0..queue_size / 2)
            .map(|_| mem.alloc(RX_BUF_SIZE as usize, 64))
            .collect();

        let mut rx_slot_of_head = vec![None; queue_size as usize];
        let heads: Vec<u16> = (0..queue_size)
            .map(|_| {
                let buf = mem.alloc(RX_BUF_SIZE as usize, 64);
                let head = rx
                    .add_chain(mem, &[BufferSpec::writable(buf, RX_BUF_SIZE)])
                    .expect("fresh queue cannot be full");
                rx_slot_of_head[head as usize] = Some(buf);
                head
            })
            .collect();
        rx.publish_batch(mem, &heads)
            .expect("initial RX posting is exactly one ring's worth");
        rx.park_used_event(mem);

        VirtioPmd {
            tx,
            rx,
            features,
            tx_slots,
            next_tx_slot: 0,
            rx_slot_of_head,
            tx_inflight: 0,
            stats: PmdStats::default(),
        }
    }

    /// Layout of the TX queue (programmed into the device by [`probe`]).
    pub fn tx_layout(&self) -> VirtqueueLayout {
        *self.tx.layout()
    }

    /// Layout of the RX queue.
    pub fn rx_layout(&self) -> VirtqueueLayout {
        *self.rx.layout()
    }

    /// TX chains published but not yet harvested back.
    pub fn tx_inflight(&self) -> u16 {
        self.tx_inflight
    }

    /// Transmit a burst of Ethernet frames: lazily clean completed TX
    /// chains, build every header+frame in a DMA slot, add all chains,
    /// publish them with a **single** avail-index store, and decide the
    /// doorbell **once** for the whole burst.
    pub fn tx_burst(
        &mut self,
        mem: &mut HostMemory,
        frames: &[&[u8]],
        cost: &mut CostEngine,
    ) -> TxBurst {
        let mut cpu = Time::ZERO;
        // Lazy clean: one batched harvest, then re-park (the batch write
        // of used_event would otherwise re-enable TX interrupts).
        let cleaned = self.tx.pop_used_batch(mem, usize::MAX);
        if !cleaned.is_empty() {
            self.tx_inflight -= cleaned.len() as u16;
            cpu += cost.step(cost.costs.pmd_ring_add);
            self.tx.park_used_event(mem);
        }

        let old_idx = self.tx.avail_idx();
        let mut heads = Vec::with_capacity(frames.len());
        for frame in frames {
            let slot = self.tx_slots[self.next_tx_slot % self.tx_slots.len()];
            self.next_tx_slot += 1;
            let hdr = VirtioNetHdr {
                num_buffers: 1,
                ..Default::default()
            };
            hdr.write_to(mem, slot);
            GuestMemory::write(mem, slot + VirtioNetHdr::LEN as u64, frame);
            cpu += cost.copy_user(frame.len());
            let head = self
                .tx
                .add_chain(
                    mem,
                    &[
                        BufferSpec::readable(slot, VirtioNetHdr::LEN as u32),
                        BufferSpec::readable(slot + VirtioNetHdr::LEN as u64, frame.len() as u32),
                    ],
                )
                .expect("TX ring full: more in-flight packets than slots");
            cpu += cost.step(cost.costs.pmd_ring_add);
            heads.push(head);
        }
        self.tx_inflight += heads.len() as u16;
        self.tx
            .publish_batch(mem, &heads)
            .expect("burst bounded by TX slots, which fit the ring");
        let notify = self.tx.needs_notify(mem, old_idx);
        if notify {
            self.stats.doorbells += 1;
        }
        self.stats.tx_packets += frames.len() as u64;
        TxBurst { notify, cpu, heads }
    }

    /// Harvest up to `max` received frames in one batched pass: a single
    /// used-index read, per-frame parse, repost of every buffer with one
    /// publish, and re-parking of `used_event` (the batch harvest's
    /// `used_event` write would otherwise re-enable RX interrupts).
    pub fn rx_burst(
        &mut self,
        mem: &mut HostMemory,
        max: usize,
        cost: &mut CostEngine,
    ) -> (Vec<RxFrame>, Time) {
        let mut cpu = Time::ZERO;
        let used = self.rx.pop_used_batch(mem, max);
        if used.is_empty() {
            return (Vec::new(), cpu);
        }
        let mut frames = Vec::with_capacity(used.len());
        let mut reposted = Vec::with_capacity(used.len());
        for elem in &used {
            let buf = self.rx_slot_of_head[elem.id as usize]
                .take()
                .expect("used RX head without a posted buffer");
            let hdr = VirtioNetHdr::read_from(mem, buf);
            let frame_len = (elem.len as usize).saturating_sub(VirtioNetHdr::LEN);
            let frame = GuestMemory::read_vec(mem, buf + VirtioNetHdr::LEN as u64, frame_len);
            cpu += cost.step(cost.costs.pmd_rx_parse);
            frames.push(RxFrame { hdr, frame });
            let head = self
                .rx
                .add_chain(mem, &[BufferSpec::writable(buf, RX_BUF_SIZE)])
                .expect("repost cannot fail: we just freed a chain");
            self.rx_slot_of_head[head as usize] = Some(buf);
            reposted.push(head);
        }
        self.rx
            .publish_batch(mem, &reposted)
            .expect("reposts bounded by the chains just freed");
        cpu += cost.step(cost.costs.pmd_ring_add);
        self.rx.park_used_event(mem);
        self.stats.rx_packets += frames.len() as u64;
        self.stats.rx_bursts += 1;
        (frames, cpu)
    }

    /// Adaptive fallback: arm the RX interrupt by moving `used_event` to
    /// the consumption point, so the **next** completion raises MSI-X.
    /// Counted in [`PmdStats::irq_fallbacks`].
    pub fn arm_rx_interrupt(&mut self, mem: &mut HostMemory) {
        mem.write_u16(self.rx.layout().used_event_addr(), self.rx.last_used());
        self.stats.irq_fallbacks += 1;
    }
}

/// The PMD's one-time device takeover, issued through the same
/// modern-PCI transport the kernel driver uses, but from user space,
/// against BARs mapped via VFIO. It is the kernel driver's net probe
/// ([`vf_hostsw::probe_net`]) over the PMD's rings with
/// `VIRTIO_F_RING_EVENT_IDX` **required**: without it the PMD cannot
/// express permanent interrupt suppression, so it fails the device.
/// MSI-X vectors are still programmed so the adaptive poll→interrupt
/// fallback has a landing pad; in pure busy-poll operation they never
/// fire.
pub fn probe<T: VirtioTransport>(
    transport: &mut T,
    driver: &VirtioPmd,
    want_features: u64,
) -> Result<ProbeOutcome, ProbeError> {
    vf_hostsw::probe_net(
        transport,
        [driver.rx_layout(), driver.tx_layout()],
        want_features,
        core_feature::RING_EVENT_IDX,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use vf_sim::{NoiseModel, SimRng};
    use vf_virtio::pci::common;
    use vf_virtio::ring::vring_need_event;
    use vf_virtio::{net, status, DeviceRing, RingChain};

    use vf_hostsw::HostCosts;

    fn cost_engine() -> CostEngine {
        CostEngine::new(
            HostCosts::fedora37(),
            NoiseModel::noiseless(),
            SimRng::new(5),
        )
    }

    fn pmd_features() -> u64 {
        core_feature::VERSION_1 | core_feature::RING_EVENT_IDX | net::feature::MAC
    }

    /// The device side of a driver queue.
    fn device_side(q: &DriverQueue) -> DeviceRing {
        DeviceRing::split(*q.layout(), true, false, 0)
    }

    /// Every chain published on `dev` since its last walk.
    fn take_all(dev: &mut DeviceRing, mem: &HostMemory) -> Vec<RingChain> {
        dev.prologue(mem, false);
        std::iter::from_fn(|| dev.next_chain(mem).unwrap()).collect()
    }

    fn parked(mem: &HostMemory, q: &DriverQueue) -> bool {
        let ev = GuestMemory::read_u16(mem, q.layout().used_event_addr());
        // Parked = the event point is far (half a ring) ahead of the
        // consumption point, so no in-window completion can match it.
        ev == q.last_used().wrapping_add(0x7FFF)
    }

    #[test]
    fn init_posts_all_rx_and_parks_both_queues() {
        let mut mem = HostMemory::testbed_default();
        let drv = VirtioPmd::init(&mut mem, 64, pmd_features());
        assert_eq!(take_all(&mut device_side(&drv.rx), &mem).len(), 64);
        assert_eq!(drv.rx.num_free(), 0);
        assert_eq!(drv.tx.num_free(), 64);
        assert!(parked(&mem, &drv.tx), "TX used_event must be parked");
        assert!(parked(&mem, &drv.rx), "RX used_event must be parked");
    }

    #[test]
    #[should_panic(expected = "RING_EVENT_IDX")]
    fn init_rejects_missing_event_idx() {
        let mut mem = HostMemory::testbed_default();
        VirtioPmd::init(&mut mem, 8, core_feature::VERSION_1);
    }

    #[test]
    fn tx_burst_single_publish_single_doorbell() {
        let mut mem = HostMemory::testbed_default();
        let mut cost = cost_engine();
        let mut drv = VirtioPmd::init(&mut mem, 64, pmd_features());
        let frames: Vec<Vec<u8>> = (0..8u8).map(|i| vec![i; 100]).collect();
        let refs: Vec<&[u8]> = frames.iter().map(|f| f.as_slice()).collect();
        let burst = drv.tx_burst(&mut mem, &refs, &mut cost);
        assert_eq!(burst.heads.len(), 8);
        assert!(burst.notify, "device was idle: one doorbell for the burst");
        assert_eq!(drv.stats.doorbells, 1);
        assert_eq!(drv.stats.tx_packets, 8);
        assert_eq!(drv.tx_inflight(), 8);

        // The device sees all 8 chains, in order, with intact payloads.
        let mut dev = device_side(&drv.tx);
        let chains = take_all(&mut dev, &mem);
        assert_eq!(chains.len(), frames.len());
        for (chain, frame) in chains.iter().zip(&frames) {
            assert_eq!(chain.bufs.len(), 2);
            let got = GuestMemory::read_vec(&mem, chain.bufs[1].addr, frame.len());
            assert_eq!(&got, frame);
            dev.complete(&mut mem, chain, 0);
        }
        // Next burst lazily cleans all 8 and re-parks.
        let burst2 = drv.tx_burst(&mut mem, &refs[..1], &mut cost);
        assert_eq!(burst2.heads.len(), 1);
        assert_eq!(drv.tx_inflight(), 1);
        assert!(parked(&mem, &drv.tx), "clean must re-park used_event");
    }

    #[test]
    fn rx_burst_harvests_reposts_and_reparks() {
        let mut mem = HostMemory::testbed_default();
        let mut cost = cost_engine();
        let mut drv = VirtioPmd::init(&mut mem, 16, pmd_features());
        let mut dev = device_side(&drv.rx);

        // Device delivers 3 frames.
        dev.prologue(&mem, false);
        for k in 0..3u8 {
            let chain = dev.next_chain(&mem).unwrap().unwrap();
            let hdr = VirtioNetHdr {
                num_buffers: 1,
                ..Default::default()
            };
            hdr.write_to(&mut mem, chain.bufs[0].addr);
            let frame = vec![k ^ 0xA5; 64];
            GuestMemory::write(
                &mut mem,
                chain.bufs[0].addr + VirtioNetHdr::LEN as u64,
                &frame,
            );
            let used = dev.complete(&mut mem, &chain, (VirtioNetHdr::LEN + 64) as u32);
            // Parked used_event: the device must see no reason to
            // interrupt.
            assert!(!used.irq, "suppression must hold");
        }
        assert_eq!(drv.rx.used_pending(&mem), 3);

        let (frames, cpu) = drv.rx_burst(&mut mem, usize::MAX, &mut cost);
        assert_eq!(frames.len(), 3);
        assert_eq!(frames[0].frame, vec![0xA5; 64]);
        assert!(cpu > Time::ZERO);
        assert_eq!(drv.stats.rx_packets, 3);
        assert_eq!(drv.stats.rx_bursts, 1);
        // Buffers reposted: full complement visible to the device again.
        assert_eq!(take_all(&mut dev, &mem).len(), 16);
        assert!(parked(&mem, &drv.rx), "harvest must re-park used_event");
        // Bounded harvest path: nothing pending now.
        let (none, _) = drv.rx_burst(&mut mem, 4, &mut cost);
        assert!(none.is_empty());
    }

    #[test]
    fn adaptive_arm_then_park_round_trip() {
        let mut mem = HostMemory::testbed_default();
        let mut drv = VirtioPmd::init(&mut mem, 8, pmd_features());
        drv.arm_rx_interrupt(&mut mem);
        let ev = GuestMemory::read_u16(&mem, drv.rx.layout().used_event_addr());
        assert_eq!(ev, drv.rx.last_used());
        // Armed: the next completion would fire.
        assert!(vring_need_event(
            ev,
            drv.rx.last_used().wrapping_add(1),
            drv.rx.last_used()
        ));
        assert_eq!(drv.stats.irq_fallbacks, 1);
        // What each non-empty harvest does to return to pure polling.
        drv.rx.park_used_event(&mut mem);
        assert!(parked(&mem, &drv.rx));
    }

    /// Loopback transport over the device-side config structures, as in
    /// the kernel driver's probe tests.
    struct LoopbackTransport {
        cfg: vf_virtio::CommonCfg,
        netcfg: vf_virtio::net::VirtioNetConfig,
    }

    impl VirtioTransport for LoopbackTransport {
        fn common_read(&mut self, off: u64, len: usize) -> u64 {
            self.cfg.read(off, len)
        }
        fn common_write(&mut self, off: u64, len: usize, val: u64) {
            let _ = self.cfg.write(off, len, val);
        }
        fn device_cfg_read(&mut self, off: u64, len: usize) -> u64 {
            self.netcfg.read(off, len)
        }
    }

    #[test]
    fn probe_full_sequence_negotiates_event_idx() {
        let mut mem = HostMemory::testbed_default();
        let drv = VirtioPmd::init(&mut mem, 128, pmd_features());
        let offered = core_feature::VERSION_1
            | core_feature::RING_EVENT_IDX
            | net::feature::MAC
            | net::feature::MTU;
        let mut t = LoopbackTransport {
            cfg: vf_virtio::CommonCfg::new(offered, &[128, 128]),
            netcfg: vf_virtio::net::VirtioNetConfig::testbed_default(),
        };
        let out = probe(&mut t, &drv, pmd_features()).unwrap();
        assert!(out.features & core_feature::RING_EVENT_IDX != 0);
        assert_eq!(out.mac, t.netcfg.mac);
        assert!(t.cfg.negotiation.is_live());
        assert!(t.cfg.queue(0).enabled && t.cfg.queue(1).enabled);
        assert_eq!(t.cfg.queue(0).layout(), drv.rx_layout());
        assert_eq!(t.cfg.queue(1).layout(), drv.tx_layout());
    }

    #[test]
    fn probe_rejects_device_without_event_idx() {
        let mut mem = HostMemory::testbed_default();
        let drv = VirtioPmd::init(&mut mem, 16, pmd_features());
        let mut t = LoopbackTransport {
            cfg: vf_virtio::CommonCfg::new(core_feature::VERSION_1, &[16, 16]),
            netcfg: vf_virtio::net::VirtioNetConfig::testbed_default(),
        };
        assert_eq!(
            probe(&mut t, &drv, pmd_features()).unwrap_err(),
            ProbeError::MissingFeature(core_feature::RING_EVENT_IDX)
        );
        let st = t.cfg.read(common::DEVICE_STATUS, 1) as u8;
        assert!(st & status::FAILED != 0, "driver must leave FAILED behind");
        assert_eq!(
            st & status::FEATURES_OK,
            0,
            "EVENT_IDX check precedes FEATURES_OK"
        );
    }
}
