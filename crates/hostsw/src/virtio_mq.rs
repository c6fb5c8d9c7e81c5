//! Multi-queue virtio-net front end (`VIRTIO_NET_F_MQ`).
//!
//! Wraps N independent [`VirtioNetDriver`] queue pairs (each pair owns
//! its rings, TX slabs, and pre-posted RX buffers exactly like the
//! single-queue driver) plus the control virtqueue through which the
//! driver tells the device how many pairs to spread flows over
//! (VirtIO 1.2 §5.1.6.5.5). Queue numbering follows §5.1.2: pair *i*
//! is `receiveq` `2i` / `transmitq` `2i+1`, ctrl vq last, for either
//! ring layout — so the device model's steering and MSI-X routing are
//! layout-agnostic. Over packed rings (E20's MQ×packed fusion) every
//! publish, data or control, rings its doorbell.
//!
//! [`probe_mq`] runs the same modern-PCI bring-up as the single-queue
//! [`probe`](crate::virtio_net::probe), but programs `2N + 1` queues,
//! giving every queue its own MSI-X vector (vector = queue index) so
//! each pair's completions interrupt a different host core.

use vf_pcie::HostMemory;
use vf_sim::Time;
use vf_virtio::{feature as core_feature, net, BufferSpec, DriverRing, VirtioTransport};

use crate::cost::CostEngine;
use crate::mq_ctrl::{self, RSS_CMD_MAX};
use crate::virtio_net::{read_mac_mtu, RxBatch, RxFrame, VirtioNetDriver, XmitResult};
use crate::virtio_pci::{
    give_up, negotiate, program_queue, require_queues, set_driver_ok, ProbeError,
};

pub use crate::mq_ctrl::{MqProbeOutcome, CTRL_QUEUE_SIZE};

/// The multi-queue driver: N data-queue pairs plus the control queue.
#[derive(Clone, Debug)]
pub struct VirtioNetMqDriver {
    /// One fully-independent single-queue driver per pair.
    pub pairs: Vec<VirtioNetDriver>,
    /// Driver side of the control virtqueue.
    pub ctrl: DriverRing,
    /// Negotiated feature bits.
    pub features: u64,
    ctrl_cmd_buf: u64,
    ctrl_rss_buf: u64,
    ctrl_ack_buf: u64,
    /// Frames of the last NAPI poll, whichever pair it polled.
    rx_batch: RxBatch,
}

impl VirtioNetMqDriver {
    /// Allocate `pairs` queue pairs of `queue_size` descriptors each,
    /// plus the control ring and its command/ack bounce buffers, all in
    /// the layout `features` selects.
    pub fn init(mem: &mut HostMemory, queue_size: u16, pairs: u16, features: u64) -> Self {
        assert!(pairs >= 1, "need at least one queue pair");
        let pair_drivers = (0..pairs)
            .map(|_| VirtioNetDriver::init(mem, queue_size, features))
            .collect();
        let ctrl = DriverRing::alloc(
            mem,
            CTRL_QUEUE_SIZE,
            features & core_feature::RING_PACKED != 0,
            features & core_feature::RING_EVENT_IDX != 0,
        );
        let ctrl_cmd_buf = mem.alloc(16, 16);
        let ctrl_rss_buf = mem.alloc(RSS_CMD_MAX, 16);
        let ctrl_ack_buf = mem.alloc(1, 1);
        VirtioNetMqDriver {
            pairs: pair_drivers,
            ctrl,
            features,
            ctrl_cmd_buf,
            ctrl_rss_buf,
            ctrl_ack_buf,
            rx_batch: RxBatch::default(),
        }
    }

    /// Number of queue pairs this driver instance drives.
    pub fn num_pairs(&self) -> u16 {
        self.pairs.len() as u16
    }

    /// Queue index of this driver's control virtqueue, given the
    /// device's advertised `max_virtqueue_pairs`.
    pub fn ctrl_queue_index(&self, max_pairs: u16) -> u16 {
        net::ctrl_queue_index(max_pairs)
    }

    /// Transmit `frame` on queue pair `pair`.
    pub fn xmit(
        &mut self,
        mem: &mut HostMemory,
        pair: u16,
        frame: &[u8],
        cost: &mut CostEngine,
    ) -> XmitResult {
        self.pairs[pair as usize].xmit(mem, frame, cost)
    }

    /// NAPI poll of queue pair `pair`'s RX ring.
    pub fn napi_poll(
        &mut self,
        mem: &mut HostMemory,
        pair: u16,
        cost: &mut CostEngine,
    ) -> (&[RxFrame], Time) {
        let cpu = self.pairs[pair as usize].poll_into(mem, cost, &mut self.rx_batch);
        (self.rx_batch.frames(), cpu)
    }

    /// Publish a `VIRTIO_NET_CTRL_MQ_VQ_PAIRS_SET` command on the
    /// control queue. Returns whether the ctrl queue's doorbell must
    /// ring (it always does for the first command).
    pub fn set_queue_pairs(&mut self, mem: &mut HostMemory, pairs: u16) -> bool {
        mq_ctrl::write_pairs_cmd(mem, self.ctrl_cmd_buf, self.ctrl_ack_buf, pairs);
        let (cmd, ack) = (self.ctrl_cmd_buf, self.ctrl_ack_buf);
        // The split front end has always sent class/cmd and the pair
        // count as separate descriptors; the packed one sends one.
        let split = [
            BufferSpec::readable(cmd, 2),
            BufferSpec::readable(cmd + 2, 2),
            BufferSpec::writable(ack, 1),
        ];
        let packed = [BufferSpec::readable(cmd, 4), BufferSpec::writable(ack, 1)];
        let bufs: &[BufferSpec] = if self.ctrl.is_packed() {
            &packed
        } else {
            &split
        };
        self.ctrl
            .publish_notify(mem, bufs)
            .expect("ctrl ring full")
            .1
    }

    /// Publish a `MQ_RSS_CONFIG` command carrying `table` (the
    /// indirection table, power-of-two entries) and the 40-byte
    /// Toeplitz `key`. Returns whether the doorbell must ring.
    pub fn set_rss(&mut self, mem: &mut HostMemory, table: &[u16], key: &[u8]) -> bool {
        let len = mq_ctrl::write_rss_cmd(mem, self.ctrl_rss_buf, self.ctrl_ack_buf, table, key);
        self.ctrl
            .publish_notify(
                mem,
                &[
                    BufferSpec::readable(self.ctrl_rss_buf, len),
                    BufferSpec::writable(self.ctrl_ack_buf, 1),
                ],
            )
            .expect("ctrl ring full")
            .1
    }

    /// Reap the ack of the oldest completed control command, if any.
    pub fn ctrl_ack(&mut self, mem: &mut HostMemory) -> Option<u8> {
        self.ctrl
            .pop_used(mem)
            .map(|_| mem.slice(self.ctrl_ack_buf, 1)[0])
    }
}

/// Modern-PCI bring-up of an MQ device: feature negotiation (the caller
/// includes `MQ | CTRL_VQ` in `want_features`), `NUM_QUEUES` /
/// `max_virtqueue_pairs` checks, programming of the `2N` data queues
/// **and** the control queue — each with MSI-X vector = queue index —
/// then `DRIVER_OK` and device-config reads. The packed rules of
/// [`probe`](crate::virtio_net::probe) apply.
pub fn probe_mq<T: VirtioTransport>(
    transport: &mut T,
    driver: &VirtioNetMqDriver,
    want_features: u64,
) -> Result<MqProbeOutcome, ProbeError> {
    let num_pairs = driver.num_pairs();
    let required = if driver.ctrl.is_packed() {
        core_feature::RING_PACKED
    } else {
        0
    };
    let accept = negotiate(transport, want_features, required)?;
    // Driving N pairs without MQ negotiated would be a spec violation.
    if num_pairs > 1 && accept & net::feature::MQ == 0 {
        return Err(give_up(transport));
    }

    let need = 2 * num_pairs + 1;
    require_queues(transport, need)?;

    // `max_virtqueue_pairs` sits at device-config offset 8 and fixes
    // the ctrl queue's index; readable once FEATURES_OK is set.
    let max_pairs = transport.device_cfg_read(8, 2) as u16;
    if max_pairs < num_pairs {
        return Err(ProbeError::NotEnoughQueues {
            have: 2 * max_pairs + 1,
            need,
        });
    }

    for (i, pair) in driver.pairs.iter().enumerate() {
        program_queue(transport, net::rx_queue_of_pair(i as u16), pair.rx.areas());
        program_queue(transport, net::tx_queue_of_pair(i as u16), pair.tx.areas());
    }
    program_queue(
        transport,
        net::ctrl_queue_index(max_pairs),
        driver.ctrl.areas(),
    );

    set_driver_ok(transport);
    let (mac, mtu) = read_mac_mtu(transport);
    Ok(MqProbeOutcome {
        features: accept,
        mac,
        mtu,
        max_pairs,
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use vf_virtio::net::VirtioNetConfig;
    use vf_virtio::pci::common;
    use vf_virtio::{status, DeviceRing, GuestMemory, RingChain};

    use crate::virtio_pci::tests::Loopback;

    // A check that takes a `packed` input runs here on split rings and in
    // `crate::virtio_mq_packed` on packed rings.

    /// An MQ net device over the shared loopback transport.
    fn mq_loopback(features: u64, pairs: u16, queues: usize) -> Loopback {
        let netcfg = VirtioNetConfig::with_queue_pairs(pairs);
        Loopback::new(features, &vec![256; queues], move |off, len| {
            netcfg.read(off, len)
        })
    }

    /// A device offering both layouts.
    fn loopback(pairs: u16, queues: usize) -> Loopback {
        let features = core_feature::VERSION_1
            | core_feature::RING_EVENT_IDX
            | core_feature::RING_PACKED
            | net::feature::MAC
            | net::feature::CTRL_VQ
            | net::feature::MQ;
        mq_loopback(features, pairs, queues)
    }

    /// What the testbed requests: split rings with EVENT_IDX, or packed
    /// rings without it.
    fn want(packed: bool) -> u64 {
        let layout = if packed {
            core_feature::RING_PACKED
        } else {
            core_feature::RING_EVENT_IDX
        };
        core_feature::VERSION_1
            | layout
            | net::feature::MAC
            | net::feature::CTRL_VQ
            | net::feature::MQ
    }

    /// Take the next control command off the device side of the ctrl
    /// ring: the chain and its readable bytes.
    fn take_cmd(dev: &mut DeviceRing, mem: &HostMemory) -> (RingChain, Vec<u8>) {
        dev.prologue(mem, false);
        let chain = dev.next_chain(mem).unwrap().unwrap();
        let readable = chain
            .bufs
            .iter()
            .filter(|b| !b.writable)
            .flat_map(|b| mem.slice(b.addr, b.len as usize).to_vec())
            .collect();
        (chain, readable)
    }

    /// Ack `chain` with OK from the device side.
    fn ack_ok(dev: &mut DeviceRing, mem: &mut HostMemory, chain: &RingChain) {
        let ack = chain.bufs.iter().rev().find(|b| b.writable).unwrap();
        GuestMemory::write(mem, ack.addr, &[net::ctrl::OK]);
        dev.complete(mem, chain, 1);
    }

    /// The device side of the driver's control ring.
    fn ctrl_device(drv: &VirtioNetMqDriver) -> DeviceRing {
        let a = drv.ctrl.areas();
        if drv.ctrl.is_packed() {
            DeviceRing::packed(a.desc, a.size, 0)
        } else {
            DeviceRing::split(a, true, false, 0)
        }
    }

    #[test]
    fn probe_programs_all_pairs_and_ctrl() {
        probe_programs_all_pairs_and_ctrl_on(false);
    }

    pub(crate) fn probe_programs_all_pairs_and_ctrl_on(packed: bool) {
        let mut mem = HostMemory::testbed_default();
        let drv = VirtioNetMqDriver::init(&mut mem, 256, 4, want(packed));
        let mut t = loopback(4, 9);
        let out = probe_mq(&mut t, &drv, want(packed)).unwrap();
        assert_eq!(out.max_pairs, 4);
        assert!(out.features & net::feature::MQ != 0);
        assert_eq!(out.features & core_feature::RING_PACKED != 0, packed);
        // Every data queue and the ctrl queue are enabled with
        // vector = queue index.
        for qi in 0..9u16 {
            t.common_write(common::QUEUE_SELECT, 2, qi as u64);
            assert_eq!(t.common_read(common::QUEUE_ENABLE, 2), 1, "queue {qi}");
            assert_eq!(
                t.common_read(common::QUEUE_MSIX_VECTOR, 2),
                qi as u64,
                "vector of queue {qi}"
            );
            if packed {
                // Packed queues program only the descriptor area.
                assert_eq!(t.common_read(common::QUEUE_DRIVER_LO, 4), 0);
                assert_eq!(t.common_read(common::QUEUE_DEVICE_LO, 4), 0);
            }
        }
        assert_eq!(t.cfg.queue(8).layout(), drv.ctrl.areas());
    }

    #[test]
    fn probe_fails_when_device_has_too_few_queues() {
        let mut mem = HostMemory::testbed_default();
        let drv = VirtioNetMqDriver::init(&mut mem, 256, 4, want(false));
        // Device only exposes 2 pairs + ctrl = 5 queues.
        let mut t = loopback(2, 5);
        match probe_mq(&mut t, &drv, want(false)) {
            Err(ProbeError::NotEnoughQueues { have, need }) => {
                assert_eq!(have, 5);
                assert_eq!(need, 9);
            }
            other => panic!("expected NotEnoughQueues, got {other:?}"),
        }
    }

    #[test]
    fn probe_fails_without_packed_offer() {
        let mut mem = HostMemory::testbed_default();
        let drv = VirtioNetMqDriver::init(&mut mem, 64, 2, want(true));
        let split_only =
            core_feature::VERSION_1 | net::feature::MAC | net::feature::CTRL_VQ | net::feature::MQ;
        let mut t = mq_loopback(split_only, 2, 5);
        assert_eq!(
            probe_mq(&mut t, &drv, want(true)).unwrap_err(),
            ProbeError::MissingFeature(core_feature::RING_PACKED)
        );
        assert!(t.status() & status::FAILED != 0);
        assert_eq!(t.status() & status::FEATURES_OK, 0);
    }

    #[test]
    fn ctrl_command_round_trips_through_the_ring() {
        ctrl_command_round_trips_through_the_ring_on(false);
    }

    pub(crate) fn ctrl_command_round_trips_through_the_ring_on(packed: bool) {
        let mut mem = HostMemory::testbed_default();
        let mut drv = VirtioNetMqDriver::init(&mut mem, 64, 2, want(packed));
        assert!(drv.set_queue_pairs(&mut mem, 2), "first command notifies");
        // Device side: consume the chain, write OK, complete.
        let mut dev = ctrl_device(&drv);
        let (chain, readable) = take_cmd(&mut dev, &mem);
        // Split keeps the historical class/cmd + data + ack shape.
        assert_eq!(chain.bufs.len(), if packed { 2 } else { 3 });
        assert_eq!(
            &readable[..2],
            &[net::ctrl::CLASS_MQ, net::ctrl::MQ_VQ_PAIRS_SET]
        );
        assert_eq!(u16::from_le_bytes([readable[2], readable[3]]), 2);
        ack_ok(&mut dev, &mut mem, &chain);
        assert_eq!(drv.ctrl_ack(&mut mem), Some(net::ctrl::OK));
        assert_eq!(drv.ctrl_ack(&mut mem), None);
    }

    #[test]
    fn rss_command_serializes_table_and_key() {
        rss_command_serializes_table_and_key_on(false);
    }

    pub(crate) fn rss_command_serializes_table_and_key_on(packed: bool) {
        let mut mem = HostMemory::testbed_default();
        let mut drv = VirtioNetMqDriver::init(&mut mem, 64, 2, want(packed));
        let table: Vec<u16> = (0..net::RSS_TABLE_LEN as u16).map(|i| i % 2).collect();
        assert!(drv.set_rss(&mut mem, &table, &net::RSS_DEFAULT_KEY));
        let mut dev = ctrl_device(&drv);
        let (chain, readable) = take_cmd(&mut dev, &mem);
        assert_eq!(
            &readable[..2],
            &[net::ctrl::CLASS_MQ, net::ctrl::MQ_RSS_CONFIG]
        );
        assert_eq!(
            u16::from_le_bytes([readable[2], readable[3]]) as usize,
            net::RSS_TABLE_LEN
        );
        let entries: Vec<u16> = readable[4..4 + 2 * net::RSS_TABLE_LEN]
            .chunks_exact(2)
            .map(|c| u16::from_le_bytes([c[0], c[1]]))
            .collect();
        assert_eq!(entries, table);
        let key_off = 4 + 2 * net::RSS_TABLE_LEN;
        assert_eq!(readable[key_off] as usize, net::RSS_KEY_LEN);
        assert_eq!(&readable[key_off + 1..], &net::RSS_DEFAULT_KEY);
        ack_ok(&mut dev, &mut mem, &chain);
        assert_eq!(drv.ctrl_ack(&mut mem), Some(net::ctrl::OK));
    }

    #[test]
    fn pairs_are_independent_drivers() {
        pairs_are_independent_drivers_on(false);
    }

    pub(crate) fn pairs_are_independent_drivers_on(packed: bool) {
        let mut mem = HostMemory::testbed_default();
        let drv = VirtioNetMqDriver::init(&mut mem, 128, 3, want(packed));
        assert_eq!(drv.num_pairs(), 3);
        // Distinct rings per pair.
        let mut descs: Vec<u64> = drv.pairs.iter().map(|p| p.tx.areas().desc).collect();
        descs.extend(drv.pairs.iter().map(|p| p.rx.areas().desc));
        descs.push(drv.ctrl.areas().desc);
        descs.sort_unstable();
        descs.dedup();
        assert_eq!(descs.len(), 7, "every ring lives at its own address");
    }
}
