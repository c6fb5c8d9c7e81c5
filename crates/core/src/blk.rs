//! E24: the virtio-blk device class, end to end.
//!
//! The block persona stopped being a stub: this module brings the
//! controller's request-queue walker, the in-kernel virtio-blk front
//! end (`vf_hostsw::virtio_blk`), and the shared windowed-run harness
//! together into two workloads:
//!
//! * [`run_blk`] — the queue-depth throughput runner: a
//!   [`BlkPattern`] workload (4K random read/write, 128K sequential)
//!   keeps `depth` requests outstanding through one request queue,
//!   reporting IOPS, MB/s, per-request latency, and doorbell/IRQ
//!   economics — the storage analogue of `run_mq`;
//! * [`run_xdma_storage`] — the vendor-driver baseline: the same I/O
//!   pattern through the XDMA character device, one pinned transfer per
//!   request, no queueing. Its throughput is queue-depth-independent by
//!   construction, which is the comparison E24 draws.
//!
//! Every disk ships with one deterministic backing image
//! ([`pattern_image`]), built once per process and shared by every disk
//! and XDMA card in it; writes land in each disk's private
//! copy-on-write layer. Read workloads are verified against that image
//! in place; write workloads verify the status byte of every
//! completion. Everything is deterministic in `cfg.seed`.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};

use vf_fpga::VirtioFpgaDevice;
use vf_hostsw::{probe_blk, BlkProbeOutcome, CostEngine, VirtioBlkDriver};
use vf_metrics::{Counter, Gauge, Histogram};
use vf_pcie::{enumerate, HostMemory, MmioAllocator, PcieLink, MSI_ADDR_BASE};
use vf_sim::{SampleSet, Scheduler, SimRng, Time, World};
use vf_virtio::block::{self, blk_status, SECTOR_SIZE};
use vf_virtio::feature;
use vf_xdma::{CardMemory, ChannelDir};

use crate::driver_model::{run_windowed, RunStats};
use crate::testbed::{
    build_blk_device, link_util, ring_doorbell, DriverKind, TestbedConfig, XdmaEv, XdmaParts,
};

/// Data segments per request the device advertises (`seg_max`); a
/// 128 KiB request therefore crosses the link as 4 × 32 KiB
/// descriptors plus header and status.
pub const BLK_SEG_MAX: u32 = 4;

/// Disk capacity in 512-byte sectors: 32 768 sectors = 16 MiB, which
/// leaves the random-I/O sweeps room to address distinct slots at
/// every I/O size.
pub(crate) const BLK_CAPACITY_SECTORS: u64 = 32_768;

/// Deterministic disk image byte at absolute disk offset `i`.
fn pattern_at(i: u64) -> u8 {
    (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56) as u8
}

/// The process-wide backing image, grown on demand.
static PATTERN_IMAGE: Mutex<Option<Arc<[u8]>>> = Mutex::new(None);

/// The deterministic disk image, at least `sectors` sectors long: byte
/// `i` is the disk's content at offset `i`. It is built once per process
/// and rebuilt only when a larger disk asks for it, so every disk and
/// every sweep thread shares one allocation. Read workloads verify
/// against it instead of carrying every expected buffer through the run.
pub fn pattern_image(sectors: u64) -> Arc<[u8]> {
    image_in(&PATTERN_IMAGE, sectors)
}

/// The image held in `slot`, first rebuilt if it is shorter than
/// `sectors` sectors.
fn image_in(slot: &Mutex<Option<Arc<[u8]>>>, sectors: u64) -> Arc<[u8]> {
    let len = sectors as usize * SECTOR_SIZE;
    // The slot only ever changes by storing a finished image, so a guard
    // recovered after a panic elsewhere still holds a valid value.
    let mut slot = slot.lock().unwrap_or_else(PoisonError::into_inner);
    match &*slot {
        Some(image) if image.len() >= len => image.clone(),
        _ => {
            let image: Arc<[u8]> = (0..len as u64).map(pattern_at).collect();
            *slot = Some(image.clone());
            image
        }
    }
}

/// The image bytes a read of `len` bytes at `sector` must return.
fn expected_read(image: &[u8], sector: u64, len: usize) -> &[u8] {
    let start = sector as usize * SECTOR_SIZE;
    &image[start..start + len]
}

// ---------------------------------------------------------------------
// Bring-up
// ---------------------------------------------------------------------

/// A fully brought-up virtio-blk testbed: enumerated block device over
/// the pattern image, probed front end, cost engine.
pub(crate) struct BlkParts {
    /// The disk's backing image, which read checks compare against.
    pub(crate) image: Arc<[u8]>,
    pub(crate) mem: HostMemory,
    pub(crate) link: PcieLink,
    pub(crate) device: VirtioFpgaDevice,
    pub(crate) driver: VirtioBlkDriver,
    pub(crate) cost: CostEngine,
    pub(crate) payload_rng: SimRng,
    pub(crate) negotiated: BlkProbeOutcome,
}

impl BlkParts {
    /// Bring the stack up for `cfg`, sizing the driver for `depth`
    /// outstanding requests of up to `max_io` bytes.
    pub(crate) fn new(cfg: &TestbedConfig, depth: usize, max_io: usize) -> Self {
        let mut mem = HostMemory::testbed_default();
        let link = PcieLink::new(cfg.calibration.link.clone());
        let rng = SimRng::new(cfg.seed);
        let cost = CostEngine::new(
            cfg.calibration.costs.clone(),
            cfg.calibration.noise.clone(),
            rng.derive(1),
        );

        let image = pattern_image(BLK_CAPACITY_SECTORS);
        let mut device = build_blk_device(cfg, image.clone());

        let mut alloc = MmioAllocator::new();
        let info = enumerate(&mut device.config_space, &mut alloc);
        assert_eq!(info.vendor, vf_pcie::VIRTIO_VENDOR_ID);

        let mut want = feature::VERSION_1;
        if cfg.options.event_idx {
            want |= feature::RING_EVENT_IDX;
        }
        want |= block::feature::SEG_MAX | block::feature::FLUSH | block::feature::RO;
        let mut driver = VirtioBlkDriver::init(
            &mut mem,
            cfg.options.queue_size,
            want,
            BLK_SEG_MAX,
            depth,
            max_io,
        );
        let negotiated = probe_blk(&mut device, &driver, want).expect("blk probe must succeed");
        driver.features = negotiated.features;
        assert_eq!(negotiated.capacity, BLK_CAPACITY_SECTORS);

        device.msix_enable();
        device.msix.program(0, MSI_ADDR_BASE, 0x40);
        assert!(device.is_live());

        BlkParts {
            image,
            mem,
            link,
            device,
            driver,
            cost,
            payload_rng: rng.derive(2),
            negotiated,
        }
    }

    /// `queue`'s doorbell lands at `now`: the walker serves the request
    /// queue and raises the completion interrupts it owes.
    fn service_doorbell(&mut self, now: Time, queue: u16, sched: &mut Scheduler<BlkEv>) {
        let out = self
            .device
            .process_block_notify(now, queue, &mut self.mem, &mut self.link);
        for c in &out.completions {
            if let Some(irq_at) = c.irq_at {
                sched.at(irq_at, BlkEv::Irq);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Queue-depth throughput runner
// ---------------------------------------------------------------------

/// Events of the virtio-blk world.
pub(crate) enum BlkEv {
    /// Application tops up its window of outstanding requests.
    AppSend,
    /// Doorbell TLP lands in the device.
    Doorbell(u16),
    /// Completion MSI-X reaches the host.
    Irq,
}

/// Storage access pattern of one [`run_blk`] / [`run_xdma_storage`]
/// sweep point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BlkPattern {
    /// Reads of uniformly random aligned slots.
    RandomRead,
    /// Writes of uniformly random aligned slots.
    RandomWrite,
    /// Reads walking the disk in order, wrapping.
    SequentialRead,
    /// Writes walking the disk in order, wrapping.
    SequentialWrite,
}

impl BlkPattern {
    /// Report label.
    pub fn name(self) -> &'static str {
        match self {
            BlkPattern::RandomRead => "rand-read",
            BlkPattern::RandomWrite => "rand-write",
            BlkPattern::SequentialRead => "seq-read",
            BlkPattern::SequentialWrite => "seq-write",
        }
    }

    /// Whether the pattern issues reads (data verified against the
    /// pattern image) or writes (status verified).
    pub fn is_read(self) -> bool {
        matches!(self, BlkPattern::RandomRead | BlkPattern::SequentialRead)
    }

    fn is_random(self) -> bool {
        matches!(self, BlkPattern::RandomRead | BlkPattern::RandomWrite)
    }

    /// The next of `slots` I/O slots to access: a uniform draw from
    /// `rng`, or the sequential cursor `next`, advanced with wrap.
    fn next_slot(self, next: &mut u64, slots: u64, rng: &mut SimRng) -> u64 {
        if self.is_random() {
            return rng.below(slots);
        }
        let slot = *next;
        *next = (slot + 1) % slots;
        slot
    }
}

/// Result of one storage sweep point.
#[derive(Clone, Debug)]
pub struct BlkRunResult {
    /// Access pattern.
    pub pattern: BlkPattern,
    /// Bytes per request.
    pub io_bytes: u32,
    /// Outstanding requests held (1 for the XDMA baseline).
    pub depth: usize,
    /// Requests completed.
    pub requests: usize,
    /// Requests per second.
    pub iops: f64,
    /// Data throughput in MB/s (`iops × io_bytes / 1e6`).
    pub mbps: f64,
    /// Per-request completion latency samples.
    pub latency: SampleSet,
    /// Doorbell MMIO writes (virtio) / transfers programmed (XDMA).
    pub doorbells: u64,
    /// MSI-X messages sent.
    pub irqs: u64,
    /// Status or data verification failures (must stay 0).
    pub verify_failures: u64,
    /// Fraction of the run the device→host wire was busy.
    pub link_util_up: f64,
    /// Fraction of the run the host→device wire was busy.
    pub link_util_down: f64,
}

impl BlkRunResult {
    /// Doorbells per request (EVENT_IDX coalescing at work under depth).
    pub fn doorbells_per_request(&self) -> f64 {
        self.doorbells as f64 / self.requests as f64
    }

    /// Interrupts per request.
    pub fn irqs_per_request(&self) -> f64 {
        self.irqs as f64 / self.requests as f64
    }
}

struct BlkPipelinedWorld {
    parts: BlkParts,
    pattern: BlkPattern,
    io_bytes: u32,
    depth: usize,
    to_send: usize,
    next_slot: u64,
    slots: u64,
    sectors_per_io: u64,
    /// The window: tag → (submit instant, sector).
    in_flight: HashMap<u32, (Time, u64)>,
    /// Write payload, refilled in place for each write request.
    payload: Vec<u8>,
    latency: SampleSet,
    completed: usize,
    verify_failures: u64,
    cpu_free: Time,
    metrics: BlkMetrics,
}

/// The `blk.*` instruments of the storage world's driver side.
struct BlkMetrics {
    inflight: Gauge,
    latency: Histogram,
    completed: Counter,
}

impl BlkPipelinedWorld {
    fn new(cfg: &TestbedConfig, pattern: BlkPattern, io_bytes: u32, depth: usize) -> Self {
        let parts = BlkParts::new(cfg, depth, io_bytes as usize);
        let sectors_per_io = u64::from(io_bytes).div_ceil(SECTOR_SIZE as u64);
        let slots = parts.negotiated.capacity / sectors_per_io;
        assert!(slots > 0, "I/O size exceeds the disk");
        BlkPipelinedWorld {
            parts,
            pattern,
            io_bytes,
            depth,
            to_send: cfg.packets,
            next_slot: 0,
            slots,
            sectors_per_io,
            in_flight: HashMap::new(),
            payload: Vec::new(),
            latency: SampleSet::with_capacity(cfg.packets),
            completed: 0,
            verify_failures: 0,
            cpu_free: Time::ZERO,
            metrics: BlkMetrics {
                inflight: Gauge::new("blk.driver.inflight", 0),
                latency: Histogram::new("blk.req.latency_ps", 0),
                completed: Counter::new("blk.req.completed", 0),
            },
        }
    }

    /// Top up the window; returns (cpu-done, coalesced doorbell arrival).
    fn refill(&mut self, now: Time) -> (Time, Option<Time>) {
        let mut t = now;
        let mut doorbell_at: Option<Time> = None;
        while self.in_flight.len() < self.depth && self.to_send > 0 {
            let slot = self.pattern.next_slot(
                &mut self.next_slot,
                self.slots,
                &mut self.parts.payload_rng,
            );
            let sector = slot * self.sectors_per_io;
            let sub = if self.pattern.is_read() {
                self.parts
                    .driver
                    .submit_read(
                        &mut self.parts.mem,
                        sector,
                        self.io_bytes,
                        &mut self.parts.cost,
                    )
                    .expect("window sized to the driver depth")
            } else {
                self.payload.resize(self.io_bytes as usize, 0);
                self.parts.payload_rng.fill_bytes(&mut self.payload);
                self.parts
                    .driver
                    .submit_write(
                        &mut self.parts.mem,
                        sector,
                        &self.payload,
                        &mut self.parts.cost,
                    )
                    .expect("window sized to the driver depth")
            };
            t += sub.cpu;
            self.in_flight.insert(sub.tag, (t, sector));
            if sub.notify {
                let p = &mut self.parts;
                let (d, arrival) = ring_doorbell(
                    &mut p.device,
                    &mut p.link,
                    &mut p.cost,
                    block::REQUEST_QUEUE,
                    t,
                    true,
                );
                t += d;
                doorbell_at = Some(doorbell_at.map_or(arrival, |d: Time| d.max(arrival)));
            }
            self.to_send -= 1;
        }
        self.metrics.inflight.set(self.in_flight.len() as i64);
        (t, doorbell_at)
    }
}

impl World for BlkPipelinedWorld {
    type Msg = BlkEv;

    fn deliver(&mut self, now: Time, msg: BlkEv, sched: &mut Scheduler<BlkEv>) {
        self.parts.link.advance_epoch(now);
        match msg {
            BlkEv::AppSend => {
                let (t, doorbell) = self.refill(now);
                if let Some(at) = doorbell {
                    sched.at(at, BlkEv::Doorbell(block::REQUEST_QUEUE));
                }
                self.cpu_free = self.parts.cost.block_in_syscall(t);
            }
            BlkEv::Doorbell(queue) => self.parts.service_doorbell(now, queue, sched),
            BlkEv::Irq => {
                let mut t = self.parts.cost.irq_to_napi(now.max(self.cpu_free));
                let (done, cpu) = self
                    .parts
                    .driver
                    .poll_completions(&mut self.parts.mem, &mut self.parts.cost);
                if done.is_empty() {
                    return;
                }
                t += cpu;
                for d in &done {
                    let (t0, sector) = self.in_flight.remove(&d.tag).expect("known tag");
                    let bad_read = self.pattern.is_read()
                        && d.data(&self.parts.mem)
                            != expected_read(&self.parts.image, sector, self.io_bytes as usize);
                    if d.status != blk_status::OK || bad_read {
                        self.verify_failures += 1;
                    }
                    let lat = (t - t0).quantize(Time::from_ns(1));
                    self.latency.push(lat);
                    if vf_metrics::is_enabled() {
                        let m = &self.metrics;
                        vf_metrics::batch(|b| {
                            b.hist_record(&m.latency, lat.as_ps());
                            b.counter_add(&m.completed, 1);
                        });
                    }
                    self.completed += 1;
                }
                t += self.parts.cost.step(self.parts.cost.costs.wakeup_to_run);
                self.cpu_free = t;
                self.metrics.inflight.set(self.in_flight.len() as i64);
                if self.to_send > 0 || !self.in_flight.is_empty() {
                    sched.at(t, BlkEv::AppSend);
                }
            }
        }
    }
}

/// Run the E24 storage workload: `cfg.packets` requests of `io_bytes`
/// each following `pattern`, with `depth` requests kept outstanding
/// through the request queue.
pub fn run_blk(
    cfg: &TestbedConfig,
    pattern: BlkPattern,
    io_bytes: u32,
    depth: usize,
) -> BlkRunResult {
    assert_eq!(
        cfg.driver,
        DriverKind::VirtioBlk,
        "run_blk drives the virtio-blk front end"
    );
    assert!(depth >= 1, "at least one outstanding request");
    assert!(
        depth * (2 + BLK_SEG_MAX as usize) <= cfg.options.queue_size as usize,
        "window must fit the request ring"
    );
    let (w, elapsed) = run_windowed(
        BlkPipelinedWorld::new(cfg, pattern, io_bytes, depth),
        [BlkEv::AppSend],
        "blk pipeline",
    );
    assert_eq!(w.completed, cfg.packets, "requests lost");
    let stats = RunStats::from(&w.parts.device.stats);
    let (link_util_up, link_util_down) = link_util(&w.parts.link, elapsed);
    BlkRunResult {
        pattern,
        io_bytes,
        depth,
        requests: cfg.packets,
        iops: cfg.packets as f64 / (elapsed.as_us_f64() / 1e6),
        mbps: cfg.packets as f64 * f64::from(io_bytes) / 1e6 / (elapsed.as_us_f64() / 1e6),
        latency: w.latency,
        doorbells: stats.notifications,
        irqs: stats.irqs,
        verify_failures: w.verify_failures,
        link_util_up,
        link_util_down,
    }
}

// ---------------------------------------------------------------------
// XDMA storage baseline
// ---------------------------------------------------------------------

struct XdmaStorageWorld {
    parts: XdmaParts,
    pattern: BlkPattern,
    io_bytes: u32,
    /// The card's preloaded image, which read checks compare against.
    image: Arc<[u8]>,
    /// Write payload, refilled in place for each write request.
    payload: Vec<u8>,
    buf: u64,
    card_slots: u64,
    next_slot: u64,
    card_slot: u64,
    to_send: usize,
    completed: usize,
    send_time: Time,
    latency: SampleSet,
    verify_failures: u64,
    cpu_free: Time,
}

impl XdmaStorageWorld {
    fn new(cfg: &TestbedConfig, pattern: BlkPattern, io_bytes: u32) -> Self {
        // Card sized to hold several I/O-sized slots (the 64 KiB BRAM of
        // the round-trip worlds is too small for 128 KiB requests).
        let card_len = (io_bytes as usize * 4).next_power_of_two().max(64 * 1024);
        let mut parts = XdmaParts::new(cfg, card_len, false);
        // The baseline reads the same deterministic image the virtio-blk
        // disk ships with.
        let image = pattern_image((card_len / SECTOR_SIZE) as u64);
        if pattern.is_read() {
            parts.design.card.write(0, &image[..card_len]);
        }
        let buf = parts.mem.alloc(io_bytes as usize, 4096);
        XdmaStorageWorld {
            parts,
            pattern,
            io_bytes,
            image,
            payload: Vec::new(),
            buf,
            card_slots: (card_len / io_bytes as usize) as u64,
            next_slot: 0,
            card_slot: 0,
            to_send: cfg.packets,
            completed: 0,
            send_time: Time::ZERO,
            latency: SampleSet::with_capacity(cfg.packets),
            verify_failures: 0,
            cpu_free: Time::ZERO,
        }
    }
}

impl World for XdmaStorageWorld {
    type Msg = XdmaEv;

    fn deliver(&mut self, now: Time, msg: XdmaEv, sched: &mut Scheduler<XdmaEv>) {
        match msg {
            XdmaEv::AppSend => {
                if self.to_send == 0 {
                    return;
                }
                self.to_send -= 1;
                self.send_time = now;
                self.card_slot = self.pattern.next_slot(
                    &mut self.next_slot,
                    self.card_slots,
                    &mut self.parts.payload_rng,
                );
                let card_addr = self.card_slot * u64::from(self.io_bytes);
                let dir = if self.pattern.is_read() {
                    ChannelDir::C2H
                } else {
                    self.payload.resize(self.io_bytes as usize, 0);
                    self.parts.payload_rng.fill_bytes(&mut self.payload);
                    HostMemory::write(&mut self.parts.mem, self.buf, &self.payload);
                    ChannelDir::H2C
                };
                self.cpu_free =
                    self.parts
                        .transfer(now, dir, self.buf, card_addr, self.io_bytes, sched);
            }
            XdmaEv::Mmio { off, val } => {
                self.parts.bar_write(now, off, val, sched);
            }
            XdmaEv::ChannelIrq(dir) => {
                let mut t = self.parts.service_irq(now, self.cpu_free, dir);
                if self.pattern.is_read() {
                    t += self.parts.cost.copy_user(self.io_bytes as usize);
                    let len = self.io_bytes as usize;
                    let sector = self.card_slot * u64::from(self.io_bytes) / SECTOR_SIZE as u64;
                    if self.parts.mem.slice(self.buf, len)
                        != expected_read(&self.image, sector, len)
                    {
                        self.verify_failures += 1;
                    }
                }
                self.latency
                    .push((t - self.send_time).quantize(Time::from_ns(1)));
                self.completed += 1;
                self.cpu_free = t;
                if self.to_send > 0 {
                    let cost = &mut self.parts.cost;
                    let next = t + cost.step(cost.costs.app_loop_overhead);
                    sched.at(next, XdmaEv::AppSend);
                }
            }
            XdmaEv::UserIrq => unreachable!("the storage baseline arms no user interrupt"),
        }
    }
}

/// Run the storage pattern through the XDMA character device: one
/// pinned, programmed, interrupt-completed transfer per request. The
/// driver exposes no request queue, so this baseline cannot benefit
/// from queue depth — the structural contrast E24 measures.
pub fn run_xdma_storage(cfg: &TestbedConfig, pattern: BlkPattern, io_bytes: u32) -> BlkRunResult {
    assert_eq!(
        cfg.driver,
        DriverKind::Xdma,
        "run_xdma_storage drives the vendor driver"
    );
    let (w, elapsed) = run_windowed(
        XdmaStorageWorld::new(cfg, pattern, io_bytes),
        [XdmaEv::AppSend],
        "xdma storage",
    );
    assert_eq!(w.completed, cfg.packets, "requests lost");
    let (link_util_up, link_util_down) = link_util(&w.parts.link, elapsed);
    BlkRunResult {
        pattern,
        io_bytes,
        depth: 1,
        requests: cfg.packets,
        iops: cfg.packets as f64 / (elapsed.as_us_f64() / 1e6),
        mbps: cfg.packets as f64 * f64::from(io_bytes) / 1e6 / (elapsed.as_us_f64() / 1e6),
        latency: w.latency,
        doorbells: w.parts.driver.transfers[0] + w.parts.driver.transfers[1],
        irqs: w.parts.design.msix.fired,
        verify_failures: w.verify_failures,
        link_util_up,
        link_util_down,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(packets: usize) -> TestbedConfig {
        TestbedConfig::paper(DriverKind::VirtioBlk, 4096, packets, 91)
    }

    #[test]
    fn pattern_image_is_the_pattern_and_built_once() {
        let sectors = BLK_CAPACITY_SECTORS;
        let image = pattern_image(sectors);
        let len = sectors as usize * SECTOR_SIZE;
        assert!(image.len() >= len);
        assert_eq!(image[0], pattern_at(0));
        assert_eq!(image[len - 1], pattern_at(len as u64 - 1));
        let mut rng = SimRng::new(5);
        for _ in 0..1000 {
            let i = rng.below(len as u64);
            assert_eq!(image[i as usize], pattern_at(i), "offset {i}");
        }

        // A private slot, so tests running beside this one cannot grow
        // the image between calls.
        let slot = Mutex::new(None);
        let image = image_in(&slot, 64);
        assert_eq!(image.len(), 64 * SECTOR_SIZE);
        assert!(Arc::ptr_eq(&image, &image_in(&slot, 64)));
        assert!(
            Arc::ptr_eq(&image, &image_in(&slot, 8)),
            "a smaller disk must not rebuild the image"
        );
        let grown = image_in(&slot, 128);
        assert_eq!(grown.len(), 128 * SECTOR_SIZE);
        assert_eq!(grown[..image.len()], image[..]);
        assert!(Arc::ptr_eq(&grown, &image_in(&slot, 64)));
    }

    #[test]
    #[should_panic(expected = "run_blk")]
    fn testbed_run_points_virtio_blk_at_run_blk() {
        crate::testbed::Testbed::new(cfg(1)).run();
    }

    /// Regression for the feature-offer bug: the block persona used to
    /// offer `0` extra feature bits, so no front end could negotiate
    /// `SEG_MAX`/`FLUSH` and every request collapsed to one data
    /// descriptor. The device must offer what the persona implements.
    #[test]
    fn blk_feature_offer_includes_seg_max_and_flush() {
        let parts = BlkParts::new(&cfg(1), 1, 4096);
        assert_ne!(parts.negotiated.features & block::feature::SEG_MAX, 0);
        assert_ne!(parts.negotiated.features & block::feature::FLUSH, 0);
        assert_eq!(parts.negotiated.seg_max, BLK_SEG_MAX);
        assert_eq!(parts.driver.seg_max, BLK_SEG_MAX);
        // The disk is writable → RO must not be offered.
        assert_eq!(parts.negotiated.features & block::feature::RO, 0);
    }

    #[test]
    fn queue_depth_scales_4k_random_read() {
        let c = cfg(600);
        let qd1 = run_blk(&c, BlkPattern::RandomRead, 4096, 1);
        let qd2 = run_blk(&c, BlkPattern::RandomRead, 4096, 2);
        let qd4 = run_blk(&c, BlkPattern::RandomRead, 4096, 4);
        assert_eq!(qd1.verify_failures, 0);
        assert_eq!(qd4.verify_failures, 0);
        assert!(
            qd2.iops > qd1.iops && qd4.iops > qd2.iops,
            "QD must scale: {} / {} / {} IOPS",
            qd1.iops,
            qd2.iops,
            qd4.iops
        );
    }

    #[test]
    fn depth_coalesces_doorbells_and_irqs() {
        let c = cfg(1_000);
        let deep = run_blk(&c, BlkPattern::RandomWrite, 4096, 16);
        assert_eq!(deep.verify_failures, 0);
        assert!(
            deep.doorbells_per_request() < 0.8,
            "doorbells/request = {}",
            deep.doorbells_per_request()
        );
        assert!(
            deep.irqs_per_request() < 0.8,
            "irqs/request = {}",
            deep.irqs_per_request()
        );
    }

    #[test]
    fn sequential_128k_uses_multi_segment_chains() {
        let small = run_blk(&cfg(150), BlkPattern::SequentialRead, 4096, 4);
        let large = run_blk(&cfg(150), BlkPattern::SequentialRead, 128 << 10, 4);
        assert_eq!(large.verify_failures, 0);
        assert!(
            large.mbps > small.mbps,
            "128K seq ({} MB/s) must out-stream 4K seq ({} MB/s)",
            large.mbps,
            small.mbps
        );
    }

    #[test]
    fn pipelined_blk_is_deterministic() {
        let a = run_blk(&cfg(400), BlkPattern::RandomRead, 4096, 8);
        let b = run_blk(&cfg(400), BlkPattern::RandomRead, 4096, 8);
        assert_eq!(a.iops.to_bits(), b.iops.to_bits());
        assert_eq!(a.mbps.to_bits(), b.mbps.to_bits());
        assert_eq!(a.latency.raw(), b.latency.raw());
        assert_eq!(a.doorbells, b.doorbells);
        assert_eq!(a.irqs, b.irqs);
    }

    #[test]
    fn xdma_storage_baseline_completes_and_verifies() {
        let c = TestbedConfig::paper(DriverKind::Xdma, 4096, 200, 91);
        let read = run_xdma_storage(&c, BlkPattern::RandomRead, 4096);
        assert_eq!(read.verify_failures, 0);
        assert_eq!(read.requests, 200);
        assert!(read.iops > 0.0);
        let write = run_xdma_storage(&c, BlkPattern::SequentialWrite, 128 << 10);
        assert_eq!(write.verify_failures, 0);
    }

    #[test]
    fn xdma_storage_is_deterministic() {
        let c = TestbedConfig::paper(DriverKind::Xdma, 4096, 300, 17);
        let a = run_xdma_storage(&c, BlkPattern::SequentialRead, 4096);
        let b = run_xdma_storage(&c, BlkPattern::SequentialRead, 4096);
        assert_eq!(a.iops.to_bits(), b.iops.to_bits());
        assert_eq!(a.latency.raw(), b.latency.raw());
    }
}
