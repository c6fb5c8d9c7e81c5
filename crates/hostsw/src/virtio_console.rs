//! The in-kernel virtio-console (hvc) front-end driver model — the
//! device type of the prior work \[14\], kept for the device-type
//! comparison experiment. Identical transport to virtio-net; the only
//! differences are the absence of a per-buffer header and the much
//! shallower host stack above it (tty instead of UDP/IP).

use vf_pcie::HostMemory;
use vf_sim::Time;
use vf_virtio::driver_queue::{BufferSpec, DriverQueue};
use vf_virtio::ring::VirtqueueLayout;
use vf_virtio::{console, feature as core_feature, GuestMemory, VirtioTransport};

use crate::cost::CostEngine;
use crate::virtio_pci::{negotiate, program_queue, require_queues, set_driver_ok, ProbeError};

/// Size of each posted receive buffer.
pub const CONSOLE_RX_BUF: u32 = 1024;

/// Driver state for one console port.
#[derive(Clone, Debug)]
pub struct VirtioConsoleDriver {
    /// Driver side of the port's RX queue (queue 0).
    pub rx: DriverQueue,
    /// Driver side of the port's TX queue (queue 1).
    pub tx: DriverQueue,
    tx_slots: Vec<u64>,
    next_tx: usize,
    rx_slot_of_head: Vec<Option<u64>>,
}

impl VirtioConsoleDriver {
    /// Allocate rings/buffers and post all RX buffers.
    pub fn init(mem: &mut HostMemory, queue_size: u16, features: u64) -> Self {
        let event_idx = features & core_feature::RING_EVENT_IDX != 0;
        let rx_base = mem.alloc(
            VirtqueueLayout::contiguous(0, queue_size).total_bytes() as usize,
            4096,
        );
        let tx_base = mem.alloc(
            VirtqueueLayout::contiguous(0, queue_size).total_bytes() as usize,
            4096,
        );
        let rx_layout = VirtqueueLayout::contiguous(rx_base, queue_size);
        let tx_layout = VirtqueueLayout::contiguous(tx_base, queue_size);
        let mut rx = DriverQueue::new(mem, rx_layout, event_idx);
        let tx = DriverQueue::new(mem, tx_layout, event_idx);
        tx.park_used_event(mem);
        let tx_slots = (0..queue_size)
            .map(|_| mem.alloc(CONSOLE_RX_BUF as usize, 64))
            .collect();
        let mut rx_slot_of_head = vec![None; queue_size as usize];
        for _ in 0..queue_size {
            let buf = mem.alloc(CONSOLE_RX_BUF as usize, 64);
            let head = rx
                .add_and_publish(mem, &[BufferSpec::writable(buf, CONSOLE_RX_BUF)])
                .expect("fresh queue");
            rx_slot_of_head[head as usize] = Some(buf);
        }
        VirtioConsoleDriver {
            rx,
            tx,
            tx_slots,
            next_tx: 0,
            rx_slot_of_head,
        }
    }

    /// RX queue layout (device programming).
    pub fn rx_layout(&self) -> VirtqueueLayout {
        *self.rx.layout()
    }

    /// TX queue layout.
    pub fn tx_layout(&self) -> VirtqueueLayout {
        *self.tx.layout()
    }

    /// Write `data` to the port: single readable descriptor, publish,
    /// decide on the doorbell. Returns `(notify, cpu)`.
    pub fn write(
        &mut self,
        mem: &mut HostMemory,
        data: &[u8],
        cost: &mut CostEngine,
    ) -> (bool, Time) {
        let mut cpu = Time::ZERO;
        let mut cleaned = false;
        while self.tx.pop_used(mem).is_some() {
            cleaned = true;
            cpu += cost.step(Time::from_ns(120));
        }
        if cleaned {
            self.tx.park_used_event(mem);
        }
        let slot = self.tx_slots[self.next_tx % self.tx_slots.len()];
        self.next_tx += 1;
        GuestMemory::write(mem, slot, data);
        cpu += cost.copy_user(data.len());
        let old = self.tx.avail_idx();
        self.tx
            .add_and_publish(mem, &[BufferSpec::readable(slot, data.len() as u32)])
            .expect("console TX ring full");
        cpu += cost.step(Time::from_ns(400)); // hvc_write + virtqueue add
        (self.tx.needs_notify(mem, old), cpu)
    }

    /// Harvest received bytes, reposting buffers.
    pub fn poll_rx(&mut self, mem: &mut HostMemory, cost: &mut CostEngine) -> (Vec<Vec<u8>>, Time) {
        let mut out = Vec::new();
        let mut cpu = Time::ZERO;
        while let Some(used) = self.rx.pop_used(mem) {
            let buf = self.rx_slot_of_head[used.id as usize]
                .take()
                .expect("used RX head without buffer");
            out.push(GuestMemory::read_vec(mem, buf, used.len as usize));
            cpu += cost.step(Time::from_ns(500)); // hvc push to tty
            let head = self
                .rx
                .add_and_publish(mem, &[BufferSpec::writable(buf, CONSOLE_RX_BUF)])
                .expect("repost");
            self.rx_slot_of_head[head as usize] = Some(buf);
        }
        (out, cpu)
    }
}

/// The virtio-pci + virtio-console probe sequence: the shared §3.1.1
/// core of [`crate::virtio_pci`], programming port 0's receive and
/// transmit queues. Returns the negotiated feature set.
pub fn probe_console<T: VirtioTransport>(
    transport: &mut T,
    driver: &VirtioConsoleDriver,
    want_features: u64,
) -> Result<u64, ProbeError> {
    let features = negotiate(transport, want_features, 0)?;
    require_queues(transport, 2)?;
    program_queue(transport, console::RX_QUEUE, driver.rx_layout());
    program_queue(transport, console::TX_QUEUE, driver.tx_layout());
    set_driver_ok(transport);
    Ok(features)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::HostCosts;
    use crate::virtio_pci::tests::Loopback;
    use vf_sim::{NoiseModel, SimRng};
    use vf_virtio::console::VirtioConsoleConfig;
    use vf_virtio::device_queue::DeviceQueue;
    use vf_virtio::status;

    fn fixture() -> (HostMemory, VirtioConsoleDriver, CostEngine) {
        let mut mem = HostMemory::testbed_default();
        let drv = VirtioConsoleDriver::init(
            &mut mem,
            32,
            core_feature::VERSION_1 | core_feature::RING_EVENT_IDX,
        );
        let cost = CostEngine::new(
            HostCosts::fedora37(),
            NoiseModel::noiseless(),
            SimRng::new(21),
        );
        (mem, drv, cost)
    }

    #[test]
    fn write_publishes_single_descriptor() {
        let (mut mem, mut drv, mut cost) = fixture();
        let (notify, cpu) = drv.write(&mut mem, b"hello", &mut cost);
        assert!(notify);
        assert!(cpu > Time::ZERO);
        let mut dev = DeviceQueue::new(drv.tx_layout(), true, false);
        let chain = dev.pop_chain(&mem).unwrap().unwrap();
        assert_eq!(chain.bufs.len(), 1);
        assert_eq!(
            GuestMemory::read_vec(&mem, chain.bufs[0].addr, 5),
            b"hello".to_vec()
        );
    }

    #[test]
    fn rx_echo_round_trip() {
        let (mut mem, mut drv, mut cost) = fixture();
        let mut dev = DeviceQueue::new(drv.rx_layout(), true, false);
        let chain = dev.pop_chain(&mem).unwrap().unwrap();
        GuestMemory::write(&mut mem, chain.bufs[0].addr, b"echo!");
        dev.complete(&mut mem, chain.head, 5);
        let (frames, cpu) = drv.poll_rx(&mut mem, &mut cost);
        assert_eq!(frames, vec![b"echo!".to_vec()]);
        assert!(cpu > Time::ZERO);
        assert_eq!(dev.pending(&mem), 32); // reposted
    }

    #[test]
    fn sustained_traffic_does_not_leak_descriptors() {
        let (mut mem, mut drv, mut cost) = fixture();
        let mut dev = DeviceQueue::new(drv.tx_layout(), true, false);
        for i in 0..200u32 {
            drv.write(&mut mem, &i.to_le_bytes(), &mut cost);
            let chain = dev.pop_chain(&mem).unwrap().unwrap();
            dev.complete(&mut mem, chain.head, 0);
        }
        assert!(drv.tx.num_free() >= 31);
    }

    /// A console device offering `offered` over the shared loopback.
    fn console_loopback(offered: u64) -> Loopback {
        let cfg = VirtioConsoleConfig::testbed_default();
        Loopback::new(offered, &[32, 32], move |off, len| cfg.read(off, len))
    }

    #[test]
    fn probe_negotiates_only_offered_features() {
        let (_, drv, _) = fixture();
        // The device offers no EVENT_IDX; the driver requests it.
        let mut t = console_loopback(core_feature::VERSION_1 | console::feature::SIZE);
        let want = core_feature::VERSION_1 | core_feature::RING_EVENT_IDX;
        let features = probe_console(&mut t, &drv, want).unwrap();
        assert_eq!(features, core_feature::VERSION_1);
        assert_eq!(t.cfg.negotiation.negotiated(), core_feature::VERSION_1);
        assert!(t.cfg.negotiation.is_live());
        assert_eq!(t.cfg.queue(console::RX_QUEUE).layout(), drv.rx_layout());
        assert_eq!(t.cfg.queue(console::TX_QUEUE).layout(), drv.tx_layout());
    }

    #[test]
    fn probe_rejection_leaves_failed_status_on_device() {
        let (_, drv, _) = fixture();
        let mut t = console_loopback(core_feature::VERSION_1 | core_feature::RING_EVENT_IDX);
        // Advertised but never offered: the device rejects it at
        // FEATURES_OK, and the driver must notice on read-back.
        t.bogus = 1 << 7;
        let want = core_feature::VERSION_1 | (1 << 7);
        assert_eq!(
            probe_console(&mut t, &drv, want).unwrap_err(),
            ProbeError::FeaturesRejected
        );
        assert!(t.status() & status::FAILED != 0);
        assert_eq!(t.status() & status::FEATURES_OK, 0);
        assert!(!t.cfg.negotiation.is_live());
        assert!(!t.cfg.queue(console::RX_QUEUE).enabled);
    }
}
