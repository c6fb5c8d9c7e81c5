//! The in-kernel virtio-blk front-end driver model.
//!
//! The storage counterpart of [`crate::virtio_net`]: ring addresses are
//! shared once at probe time, and at runtime a request is a 3-part
//! descriptor chain — 16-byte readable header, the data segments, a
//! 1-byte writable status footer (VirtIO 1.2 §5.2.6) — published with at
//! most one doorbell. Unlike the net driver's echo loop, the block
//! driver keeps `queue-depth` requests outstanding: each in-flight
//! request owns a slot (header + status + data buffers) and a tag the
//! completion path hands back.
//!
//! Data buffers are segmented the way a bio's scatter list is: 4 KiB
//! pages merged up to the device's negotiated `seg_max`, so large
//! sequential requests exercise multi-descriptor chains.

use vf_pcie::HostMemory;
use vf_sim::Time;
use vf_virtio::block::{self, BlkReqType, BlkRequest};
use vf_virtio::driver_queue::{BufferSpec, DriverQueue};
use vf_virtio::ring::VirtqueueLayout;
use vf_virtio::{feature as core_feature, GuestMemory, QueueError, VirtioTransport};

use crate::cost::CostEngine;
use crate::virtio_pci::{negotiate, program_queue, require_queues, set_driver_ok, ProbeError};

/// Segment granularity of the request scatter lists (one bio page).
pub const SEG_SIZE: u32 = 4096;

/// Result of submitting one request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlkSubmit {
    /// Whether the device must be notified (doorbell MMIO write).
    pub notify: bool,
    /// CPU time consumed by the submission path.
    pub cpu: Time,
    /// Head descriptor of the published chain.
    pub head: u16,
    /// Tag identifying the request at completion time.
    pub tag: u32,
}

/// One harvested completion.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlkDone {
    /// Tag the matching [`BlkSubmit`] carried.
    pub tag: u32,
    /// Status byte the device wrote (`vf_virtio::block::blk_status`).
    pub status: u8,
    /// Used-ring `len` (bytes the device wrote, incl. the status byte).
    pub len: u32,
    /// Host address of the read payload in the request's data buffer.
    pub data_addr: u64,
    /// Read payload length (0 for writes, flushes and failed reads).
    pub data_len: usize,
}

impl BlkDone {
    /// The read payload, lent out of host memory rather than copied. It
    /// stays valid until the next submit reuses the request's slot.
    pub fn data<'m>(&self, mem: &'m HostMemory) -> &'m [u8] {
        mem.slice(self.data_addr, self.data_len)
    }
}

/// One in-flight request slot: preallocated header/status/data buffers.
#[derive(Clone, Copy, Debug)]
struct BlkSlot {
    hdr: u64,
    status: u64,
    data: u64,
    /// Read length to copy out at completion (0 for writes/flushes).
    read_len: u32,
}

/// The driver instance bound to one virtio-blk device.
#[derive(Clone, Debug)]
pub struct VirtioBlkDriver {
    /// Driver side of the request queue.
    pub queue: DriverQueue,
    /// Negotiated feature bits.
    pub features: u64,
    /// Negotiated max data segments per request (1 if `SEG_MAX` is off).
    pub seg_max: u32,
    slots: Vec<BlkSlot>,
    free_slots: Vec<usize>,
    slot_of_head: Vec<Option<(usize, u32)>>,
    next_tag: u32,
    /// Requests currently outstanding.
    pub inflight: u16,
}

impl VirtioBlkDriver {
    /// Allocate the request ring and `depth` request slots of `max_io`
    /// data bytes each. `seg_max` is the device's advertised limit
    /// (effective only once `feature::SEG_MAX` is in `features`).
    pub fn init(
        mem: &mut HostMemory,
        queue_size: u16,
        features: u64,
        seg_max: u32,
        depth: usize,
        max_io: usize,
    ) -> Self {
        let event_idx = features & core_feature::RING_EVENT_IDX != 0;
        let ring = mem.alloc(
            VirtqueueLayout::contiguous(0, queue_size).total_bytes() as usize,
            4096,
        );
        let layout = VirtqueueLayout::contiguous(ring, queue_size);
        let queue = DriverQueue::new(mem, layout, event_idx);
        let slots: Vec<BlkSlot> = (0..depth)
            .map(|_| BlkSlot {
                hdr: mem.alloc(16, 16),
                status: mem.alloc(1, 1),
                data: mem.alloc(max_io.max(1), 64),
                read_len: 0,
            })
            .collect();
        let free_slots = (0..depth).rev().collect();
        let seg_max = if features & block::feature::SEG_MAX != 0 {
            seg_max.max(1)
        } else {
            1
        };
        VirtioBlkDriver {
            queue,
            features,
            seg_max,
            slots,
            free_slots,
            slot_of_head: vec![None; queue_size as usize],
            next_tag: 0,
            inflight: 0,
        }
    }

    /// Layout of the request queue (programmed into the device at init).
    pub fn layout(&self) -> VirtqueueLayout {
        *self.queue.layout()
    }

    /// Split `len` data bytes into bio-style segments: 4 KiB pages,
    /// merged down to at most `seg_max` contiguous runs.
    fn segments(&self, len: u32) -> Vec<u32> {
        if len == 0 {
            return Vec::new();
        }
        let pages = len.div_ceil(SEG_SIZE).max(1);
        let nsegs = pages.min(self.seg_max).max(1);
        let per = len / nsegs;
        let rem = len % nsegs;
        (0..nsegs)
            .map(|i| per + if i < rem { 1 } else { 0 })
            .collect()
    }

    fn submit(
        &mut self,
        mem: &mut HostMemory,
        req_type: BlkReqType,
        sector: u64,
        len: u32,
        payload: Option<&[u8]>,
        cost: &mut CostEngine,
    ) -> Result<BlkSubmit, QueueError> {
        let slot_idx = self
            .free_slots
            .pop()
            .ok_or(QueueError::NoSpace { needed: 1, free: 0 })?;
        let mut cpu = Time::ZERO;
        self.slots[slot_idx].read_len = if req_type == BlkReqType::In { len } else { 0 };
        let slot = self.slots[slot_idx];
        BlkRequest::write_header(mem, slot.hdr, req_type, sector);
        if let Some(p) = payload {
            GuestMemory::write(mem, slot.data, p);
            cpu += cost.copy_user(p.len());
        }

        let writable = req_type == BlkReqType::In;
        let mut bufs = Vec::with_capacity(2 + self.seg_max as usize);
        bufs.push(BufferSpec::readable(slot.hdr, 16));
        let mut off = 0u64;
        for seg in self.segments(len) {
            bufs.push(BufferSpec {
                addr: slot.data + off,
                len: seg,
                writable,
            });
            off += seg as u64;
        }
        bufs.push(BufferSpec::writable(slot.status, 1));

        let old_idx = self.queue.avail_idx();
        let head = match self.queue.add_and_publish(mem, &bufs) {
            Ok(h) => h,
            Err(e) => {
                self.free_slots.push(slot_idx);
                return Err(e);
            }
        };
        let tag = self.next_tag;
        self.next_tag = self.next_tag.wrapping_add(1);
        self.slot_of_head[head as usize] = Some((slot_idx, tag));
        self.inflight += 1;
        cpu += cost.step(cost.costs.virtio_xmit);
        let notify = self.queue.needs_notify(mem, old_idx);
        Ok(BlkSubmit {
            notify,
            cpu,
            head,
            tag,
        })
    }

    /// Submit a read of `len` bytes from `sector`.
    pub fn submit_read(
        &mut self,
        mem: &mut HostMemory,
        sector: u64,
        len: u32,
        cost: &mut CostEngine,
    ) -> Result<BlkSubmit, QueueError> {
        self.submit(mem, BlkReqType::In, sector, len, None, cost)
    }

    /// Submit a write of `payload` at `sector`.
    pub fn submit_write(
        &mut self,
        mem: &mut HostMemory,
        sector: u64,
        payload: &[u8],
        cost: &mut CostEngine,
    ) -> Result<BlkSubmit, QueueError> {
        self.submit(
            mem,
            BlkReqType::Out,
            sector,
            payload.len() as u32,
            Some(payload),
            cost,
        )
    }

    /// Harvest completed requests off the used ring: read each status
    /// footer, note where read payloads lie, free the slot. Charges
    /// per-request completion-path costs, including the modelled copy of
    /// each read payload to user space.
    pub fn poll_completions(
        &mut self,
        mem: &mut HostMemory,
        cost: &mut CostEngine,
    ) -> (Vec<BlkDone>, Time) {
        let mut done = Vec::new();
        let mut cpu = Time::ZERO;
        while let Some(used) = self.queue.pop_used(mem) {
            let (slot_idx, tag) = self.slot_of_head[used.id as usize]
                .take()
                .expect("used head without an in-flight request");
            let slot = self.slots[slot_idx];
            let status = mem.slice(slot.status, 1)[0];
            let data_len = if slot.read_len > 0 && status == block::blk_status::OK {
                cpu += cost.copy_user(slot.read_len as usize);
                slot.read_len as usize
            } else {
                0
            };
            cpu += cost.step(cost.costs.virtio_napi_rx);
            self.free_slots.push(slot_idx);
            self.inflight -= 1;
            done.push(BlkDone {
                tag,
                status,
                len: used.len,
                data_addr: slot.data,
                data_len,
            });
        }
        (done, cpu)
    }
}

/// Result of a successful virtio-blk probe.
#[derive(Clone, Copy, Debug)]
pub struct BlkProbeOutcome {
    /// Negotiated feature bits.
    pub features: u64,
    /// Device capacity in 512-byte sectors (device config, offset 0).
    pub capacity: u64,
    /// Device `seg_max` (device config, offset 12; meaningful only when
    /// `feature::SEG_MAX` was negotiated).
    pub seg_max: u32,
}

/// The virtio-pci + virtio-blk probe sequence: the shared §3.1.1 core
/// of [`crate::virtio_pci`], programming the single request queue and
/// reading `capacity`/`seg_max` from the device config.
pub fn probe_blk<T: VirtioTransport>(
    transport: &mut T,
    driver: &VirtioBlkDriver,
    want_features: u64,
) -> Result<BlkProbeOutcome, ProbeError> {
    let features = negotiate(transport, want_features, 0)?;
    require_queues(transport, 1)?;
    program_queue(transport, block::REQUEST_QUEUE, driver.layout());
    set_driver_ok(transport);
    let capacity = transport.device_cfg_read(0, 8);
    let seg_max = transport.device_cfg_read(12, 4) as u32;
    Ok(BlkProbeOutcome {
        features,
        capacity,
        seg_max,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vf_sim::{NoiseModel, SimRng};
    use vf_virtio::block::{blk_status, MemDisk, VirtioBlkConfig};
    use vf_virtio::{DeviceRing, RingChain};

    use crate::cost::HostCosts;
    use crate::virtio_pci::tests::Loopback;

    fn cost_engine() -> CostEngine {
        CostEngine::new(
            HostCosts::fedora37(),
            NoiseModel::noiseless(),
            SimRng::new(7),
        )
    }

    fn driver_features() -> u64 {
        core_feature::VERSION_1 | core_feature::RING_EVENT_IDX | block::feature::SEG_MAX
    }

    /// The device side of the request queue.
    fn device_side(drv: &VirtioBlkDriver) -> DeviceRing {
        DeviceRing::split(drv.layout(), true, false, block::REQUEST_QUEUE)
    }

    /// Every chain published on `dev` since its last walk.
    fn take_all(dev: &mut DeviceRing, mem: &HostMemory) -> Vec<RingChain> {
        dev.prologue(mem, false);
        std::iter::from_fn(|| dev.next_chain(mem).unwrap()).collect()
    }

    fn served(mem: &mut HostMemory, dev: &mut DeviceRing, disk: &mut MemDisk) -> usize {
        let chains = take_all(dev, mem);
        for chain in &chains {
            let req = BlkRequest::parse(mem, &chain.bufs).unwrap();
            let (_status, written) = disk.execute(mem, &req);
            dev.complete(mem, chain, written);
        }
        chains.len()
    }

    fn writable_len(chain: &RingChain) -> u32 {
        chain
            .bufs
            .iter()
            .filter(|b| b.writable)
            .map(|b| b.len)
            .sum()
    }

    #[test]
    fn write_read_round_trip_through_rings() {
        let mut mem = HostMemory::testbed_default();
        let mut cost = cost_engine();
        let mut drv = VirtioBlkDriver::init(&mut mem, 64, driver_features(), 4, 8, 128 << 10);
        let mut dev = device_side(&drv);
        let mut disk = MemDisk::new(1024, false);

        let payload: Vec<u8> = (0..4096).map(|i| (i % 251) as u8).collect();
        let sub = drv.submit_write(&mut mem, 8, &payload, &mut cost).unwrap();
        assert!(sub.notify, "first submit must ring the doorbell");
        assert_eq!(served(&mut mem, &mut dev, &mut disk), 1);
        let (done, _) = drv.poll_completions(&mut mem, &mut cost);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].status, blk_status::OK);
        assert_eq!(done[0].tag, sub.tag);

        let sub = drv.submit_read(&mut mem, 8, 4096, &mut cost).unwrap();
        assert_eq!(served(&mut mem, &mut dev, &mut disk), 1);
        let (done, cpu) = drv.poll_completions(&mut mem, &mut cost);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].tag, sub.tag);
        assert_eq!(done[0].data(&mem), payload);
        assert_eq!(done[0].len, 4097);
        assert!(cpu > Time::ZERO);
        assert_eq!(drv.inflight, 0);
    }

    #[test]
    fn seg_max_bounds_data_descriptors() {
        let mut mem = HostMemory::testbed_default();
        let mut cost = cost_engine();
        let mut drv = VirtioBlkDriver::init(&mut mem, 64, driver_features(), 4, 4, 128 << 10);
        let mut dev = device_side(&drv);
        // 128 KiB = 32 pages, but seg_max 4 → header + 4 data + status.
        let payload = vec![0xA5u8; 128 << 10];
        drv.submit_write(&mut mem, 0, &payload, &mut cost).unwrap();
        let chain = take_all(&mut dev, &mem).remove(0);
        assert_eq!(chain.bufs.len(), 6);
        assert_eq!(chain.readable_len(), 16 + (128 << 10));
        // A 4 KiB request stays a single data descriptor.
        drv.submit_read(&mut mem, 0, 4096, &mut cost).unwrap();
        let chain = take_all(&mut dev, &mem).remove(0);
        assert_eq!(chain.bufs.len(), 3);
        assert_eq!(writable_len(&chain), 4096 + 1);
    }

    #[test]
    fn without_seg_max_single_data_descriptor() {
        let mut mem = HostMemory::testbed_default();
        let mut cost = cost_engine();
        let features = core_feature::VERSION_1 | core_feature::RING_EVENT_IDX;
        let mut drv = VirtioBlkDriver::init(&mut mem, 64, features, 4, 4, 128 << 10);
        drv.submit_write(&mut mem, 0, &vec![1u8; 64 << 10], &mut cost)
            .unwrap();
        let chain = take_all(&mut device_side(&drv), &mem).remove(0);
        assert_eq!(chain.bufs.len(), 3, "hdr + one data seg + status");
    }

    #[test]
    fn depth_exhaustion_is_backpressure() {
        let mut mem = HostMemory::testbed_default();
        let mut cost = cost_engine();
        let mut drv = VirtioBlkDriver::init(&mut mem, 64, driver_features(), 4, 2, 4096);
        drv.submit_read(&mut mem, 0, 4096, &mut cost).unwrap();
        drv.submit_read(&mut mem, 8, 4096, &mut cost).unwrap();
        assert!(matches!(
            drv.submit_read(&mut mem, 16, 4096, &mut cost),
            Err(QueueError::NoSpace { .. })
        ));
        assert_eq!(drv.inflight, 2);
    }

    /// A block device over the shared loopback transport.
    fn blk_loopback(offered: u64, queue_sizes: &[u16], blkcfg: VirtioBlkConfig) -> Loopback {
        Loopback::new(offered, queue_sizes, move |off, len| blkcfg.read(off, len))
    }

    #[test]
    fn probe_negotiates_and_reads_config() {
        let mut mem = HostMemory::testbed_default();
        let drv = VirtioBlkDriver::init(&mut mem, 128, driver_features(), 4, 4, 4096);
        let offered = driver_features() | block::feature::FLUSH | block::feature::RO;
        let blkcfg = VirtioBlkConfig {
            capacity: 2048,
            seg_max: 4,
        };
        let mut t = blk_loopback(offered, &[128], blkcfg);
        let out = probe_blk(&mut t, &drv, driver_features() | block::feature::FLUSH).unwrap();
        assert_eq!(out.capacity, 2048);
        assert_eq!(out.seg_max, 4);
        assert!(out.features & block::feature::SEG_MAX != 0);
        assert!(out.features & block::feature::FLUSH != 0);
        // RO offered but not requested → not negotiated.
        assert_eq!(out.features & block::feature::RO, 0);
        assert!(t.cfg.negotiation.is_live());
        assert!(t.cfg.queue(0).enabled);
        assert_eq!(t.cfg.queue(0).layout(), drv.layout());
    }

    #[test]
    fn probe_rejects_queueless_device() {
        let mut mem = HostMemory::testbed_default();
        let drv = VirtioBlkDriver::init(&mut mem, 16, driver_features(), 4, 2, 4096);
        let blkcfg = VirtioBlkConfig {
            capacity: 8,
            seg_max: 1,
        };
        let mut t = blk_loopback(core_feature::VERSION_1, &[], blkcfg);
        assert_eq!(
            probe_blk(&mut t, &drv, core_feature::VERSION_1).unwrap_err(),
            ProbeError::NotEnoughQueues { have: 0, need: 1 }
        );
    }
}
