//! E19 — multi-queue virtio-net (`VIRTIO_NET_F_MQ`) scaling worlds.
//!
//! The single-queue worlds top out where one host core saturates: every
//! sendto, NAPI poll, and wakeup serializes on the same simulated CPU.
//! This module brings up a net device with N RX/TX queue pairs plus the
//! control virtqueue, activates the pairs with `MQ_VQ_PAIRS_SET`, and
//! drives them from a [`MultiCoreHost`] — flow *i* is pinned to queue
//! pair *i*, whose MSI-X vector interrupts CPU *i*, so two queues never
//! serialize on one core. On the device side the controller's RSS-style
//! walker steers each echoed flow back to its pair
//! ([`VirtioFpgaDevice::rss_steer`]); the queues share nothing but the
//! PCIe link, which is exactly the paper's Gen2 x2 bottleneck the
//! experiment sweeps toward.
//!
//! Two worlds share one bring-up (`MqParts`):
//!
//! * `MqWorld` — serial request-response, round-robin across pairs,
//!   recorded through the standard [`RoundTripRecorder`] so
//!   `DriverKind::VirtioMq` runs through [`crate::Testbed::run`] and the
//!   trace reconciliation harness like every other driver;
//! * [`run_mq`] — pipelined offered load with a per-queue window,
//!   the E19 measurement proper: aggregate pps, per-queue latency,
//!   doorbell/irq suppression, and link utilization per queue count.

use std::collections::HashMap;

use vf_fpga::user_logic::UdpEcho;
use vf_fpga::{bar0, MmioEvent, Persona, VirtioFpgaDevice};
use vf_hostsw::{
    probe_mq, Ipv4Addr, MacAddr, MultiCoreHost, SockError, UdpStack, VirtioNetMqDriver,
    CTRL_QUEUE_SIZE,
};
use vf_pcie::{enumerate, HostMemory, MmioAllocator, PcieLink, MSI_ADDR_BASE};
use vf_sim::{SampleSet, SimRng, Simulation, Time, World};
use vf_virtio::net::VirtioNetConfig;
use vf_virtio::{feature, net, DeviceType};

use crate::driver_model::{DriverModel, RoundTripRecorder, RunStats};
use crate::testbed::{DriverKind, RssMode, TestbedConfig, Transport};

/// Most queue pairs a world will drive. Bounded by the static RTT-name
/// table (trace roots must be `&'static str`), not by the device model;
/// 64 so the E21 tenant sweep can slice one pair per tenant up to 64
/// tenants.
pub const MAX_QUEUE_PAIRS: u16 = 64;

/// Per-queue round-trip trace names, indexed by pair.
const MQ_RTT_NAMES: [&str; MAX_QUEUE_PAIRS as usize] = [
    "rtt_mq_q0",
    "rtt_mq_q1",
    "rtt_mq_q2",
    "rtt_mq_q3",
    "rtt_mq_q4",
    "rtt_mq_q5",
    "rtt_mq_q6",
    "rtt_mq_q7",
    "rtt_mq_q8",
    "rtt_mq_q9",
    "rtt_mq_q10",
    "rtt_mq_q11",
    "rtt_mq_q12",
    "rtt_mq_q13",
    "rtt_mq_q14",
    "rtt_mq_q15",
    "rtt_mq_q16",
    "rtt_mq_q17",
    "rtt_mq_q18",
    "rtt_mq_q19",
    "rtt_mq_q20",
    "rtt_mq_q21",
    "rtt_mq_q22",
    "rtt_mq_q23",
    "rtt_mq_q24",
    "rtt_mq_q25",
    "rtt_mq_q26",
    "rtt_mq_q27",
    "rtt_mq_q28",
    "rtt_mq_q29",
    "rtt_mq_q30",
    "rtt_mq_q31",
    "rtt_mq_q32",
    "rtt_mq_q33",
    "rtt_mq_q34",
    "rtt_mq_q35",
    "rtt_mq_q36",
    "rtt_mq_q37",
    "rtt_mq_q38",
    "rtt_mq_q39",
    "rtt_mq_q40",
    "rtt_mq_q41",
    "rtt_mq_q42",
    "rtt_mq_q43",
    "rtt_mq_q44",
    "rtt_mq_q45",
    "rtt_mq_q46",
    "rtt_mq_q47",
    "rtt_mq_q48",
    "rtt_mq_q49",
    "rtt_mq_q50",
    "rtt_mq_q51",
    "rtt_mq_q52",
    "rtt_mq_q53",
    "rtt_mq_q54",
    "rtt_mq_q55",
    "rtt_mq_q56",
    "rtt_mq_q57",
    "rtt_mq_q58",
    "rtt_mq_q59",
    "rtt_mq_q60",
    "rtt_mq_q61",
    "rtt_mq_q62",
    "rtt_mq_q63",
];

/// UDP source-port base; flow `i` sends from `FLOW_PORT_BASE + i`. A
/// multiple of every power-of-two pair count, so the device's
/// `dst_port % pairs` steering maps flow `i` exactly to pair `i`.
pub(crate) const FLOW_PORT_BASE: u16 = 40_000;

/// The Toeplitz indirection table the MQ bring-up programs: every slot
/// defaults to `slot % pairs`, then each measured flow's hash slot is
/// pinned to its pair — so flow `i` (UDP source port
/// `FLOW_PORT_BASE + i`) steers to pair `i` exactly like the modulo
/// fallback, while unpinned traffic still spreads over all pairs.
fn pinned_rss_table(pairs: u16) -> Vec<u16> {
    let mut table: Vec<u16> = (0..net::RSS_TABLE_LEN as u16)
        .map(|slot| slot % pairs)
        .collect();
    for pair in 0..pairs {
        let port = FLOW_PORT_BASE + pair;
        let slot = net::toeplitz_hash(&net::RSS_DEFAULT_KEY, &port.to_be_bytes()) as usize
            & (net::RSS_TABLE_LEN - 1);
        table[slot] = pair;
    }
    table
}

/// A fully brought-up multi-queue testbed: device with `2N + 1` queues,
/// probed MQ driver, `MQ_VQ_PAIRS_SET` acknowledged, one host core per
/// pair. Bring-up (including the ctrl-vq exchange) happens "before
/// time zero": the link is re-created afterwards and the device stats
/// snapshot in `base_stats` is subtracted from reported counters.
pub(crate) struct MqParts {
    pub(crate) mem: HostMemory,
    pub(crate) link: PcieLink,
    pub(crate) device: VirtioFpgaDevice,
    pub(crate) driver: VirtioNetMqDriver,
    pub(crate) stack: UdpStack,
    pub(crate) host: MultiCoreHost,
    pub(crate) payload_rng: SimRng,
    pub(crate) fpga_ip: Ipv4Addr,
    pub(crate) pairs: u16,
    base_notifications: u64,
    base_irqs: u64,
    base_desc_reads: u64,
}

impl MqParts {
    pub(crate) fn new(cfg: &TestbedConfig) -> Self {
        assert_eq!(
            cfg.options.device_type,
            DeviceType::Net,
            "MQ is a net-device feature"
        );
        let pairs = cfg.options.mq_queue_pairs;
        assert!(
            (1..=MAX_QUEUE_PAIRS).contains(&pairs),
            "mq_queue_pairs must be in 1..={MAX_QUEUE_PAIRS}"
        );
        assert!(
            pairs.is_power_of_two(),
            "the port-modulo flow steering pins flows to pairs only for \
             power-of-two pair counts"
        );
        let mut mem = HostMemory::testbed_default();
        // The MQ controller keeps one DMA tag context per queue pair, so
        // one pair's latency chain never blocks another pair's TLPs from
        // using idle wire — only real wire occupancy (and the shared
        // posted-credit pipeline) serializes across pairs.
        let mut link_cfg = cfg.calibration.link.clone();
        link_cfg.multi_tag = true;
        // E20: each walker tag may keep `pipeline_depth` non-posted
        // reads in flight; beyond depth 1 the completions relax their
        // ordering (safe for descriptor reads — see DESIGN.md).
        link_cfg.max_outstanding_np = cfg.options.pipeline_depth.max(1);
        link_cfg.relaxed_ordering = link_cfg.max_outstanding_np > 1;
        let mut link = PcieLink::new(link_cfg.clone());
        let rng = SimRng::new(cfg.seed);
        let host = MultiCoreHost::new(
            pairs as usize,
            &cfg.calibration.costs,
            &cfg.calibration.noise,
            &rng,
        );

        let netcfg = VirtioNetConfig::with_queue_pairs(pairs);
        // 2N data queues + the ctrl queue, in spec order.
        let mut queue_sizes = vec![cfg.options.queue_size; 2 * pairs as usize];
        queue_sizes.push(CTRL_QUEUE_SIZE);
        let mut device = VirtioFpgaDevice::new(
            Persona::Net { cfg: netcfg },
            net::feature::MAC
                | net::feature::MTU
                | net::feature::STATUS
                | net::feature::CSUM
                | net::feature::GUEST_CSUM
                | net::feature::CTRL_VQ
                | net::feature::MQ,
            &queue_sizes,
            Box::new(UdpEcho::default()),
        );
        device.set_card_memory(cfg.options.card_memory.store(256 * 1024));
        let mut alloc = MmioAllocator::new();
        let info = enumerate(&mut device.config_space, &mut alloc);
        assert_eq!(info.vendor, vf_pcie::VIRTIO_VENDOR_ID);

        // E21's tenant front ends pick their ring layout per option, not
        // per driver kind; the dedicated MQ kinds keep the fused mapping.
        let packed = cfg.driver == DriverKind::VirtioMqPacked
            || (cfg.driver == DriverKind::VirtioTenant && cfg.options.tenant_packed);
        let mut want = feature::VERSION_1;
        if cfg.options.event_idx && !packed {
            // The packed front end runs without EVENT_IDX (every TX
            // publish rings the doorbell), like the E17 single-queue one.
            want |= feature::RING_EVENT_IDX;
        }
        want |= net::feature::MAC
            | net::feature::MTU
            | net::feature::STATUS
            | net::feature::CTRL_VQ
            | net::feature::MQ;
        if cfg.options.csum_offload {
            want |= net::feature::CSUM | net::feature::GUEST_CSUM;
        }
        if packed {
            want |= feature::RING_PACKED;
        }
        let mut driver = VirtioNetMqDriver::init(&mut mem, cfg.options.queue_size, pairs, want);
        let out = probe_mq(&mut Transport(&mut device), &driver, want).expect("mq probe");
        assert_eq!(out.max_pairs, pairs);
        device.msix_enable();
        // One vector per queue: 2N data vectors + the ctrl vector.
        for v in 0..(2 * pairs as u64 + 1) {
            device
                .msix
                .program(v as usize, MSI_ADDR_BASE, 0x40 + v as u32);
        }
        assert!(device.is_live());

        // Activate all pairs through the control virtqueue. This is
        // part of `ndo_open`, so it runs at bring-up time, before the
        // measured workload.
        let ctrl_q = net::ctrl_queue_index(pairs);
        let ctrl_command = |device: &mut VirtioFpgaDevice,
                            mem: &mut HostMemory,
                            link: &mut PcieLink,
                            driver: &mut VirtioNetMqDriver,
                            notify: bool| {
            assert!(notify, "ctrl command must ring the doorbell");
            let ev = device.mmio_write(
                bar0::NOTIFY + u64::from(ctrl_q) * u64::from(bar0::NOTIFY_MULTIPLIER),
                2,
                u64::from(ctrl_q),
            );
            debug_assert_eq!(ev, Some(MmioEvent::Notify(ctrl_q)));
            let ctrl_out = device.process_ctrl_notify(Time::ZERO, ctrl_q, mem, link);
            assert!(ctrl_out.delivered);
            assert_eq!(driver.ctrl_ack(mem), Some(net::ctrl::OK));
        };
        let notify = driver.set_queue_pairs(&mut mem, pairs);
        ctrl_command(&mut device, &mut mem, &mut link, &mut driver, notify);
        assert_eq!(device.active_queue_pairs(), pairs);

        // RSS bring-up (default): program the Toeplitz indirection
        // table through the control queue, pinning each measured flow
        // to its pair. `RssMode::PortModulo` skips this, leaving the
        // device on the legacy `dst_port % pairs` fallback.
        if cfg.options.rss == RssMode::Toeplitz {
            let table = pinned_rss_table(pairs);
            let notify = driver.set_rss(&mut mem, &table, &net::RSS_DEFAULT_KEY);
            ctrl_command(&mut device, &mut mem, &mut link, &mut driver, notify);
            assert_eq!(device.rss_indirection(), Some(&table[..]));
        }

        let host_ip = Ipv4Addr::new(10, 0, 0, 1);
        let fpga_ip = Ipv4Addr::new(10, 0, 0, 2);
        let mut stack = UdpStack::new(host_ip, MacAddr([0x02, 0, 0, 0, 0, 0x01]));
        stack.routes.add(Ipv4Addr::new(10, 0, 0, 0), 24, None, 2);
        stack.arp.add_static(fpga_ip, MacAddr(netcfg.mac));

        MqParts {
            base_notifications: device.stats.notifications,
            base_irqs: device.stats.irqs_sent,
            base_desc_reads: device.stats.desc_reads,
            mem,
            // Bring-up used the link; measurements start on a quiet one.
            link: PcieLink::new(link_cfg),
            device,
            driver,
            stack,
            host,
            payload_rng: rng.derive(2),
            fpga_ip,
            pairs,
        }
    }

    /// Device stats with the bring-up (ctrl-vq) traffic subtracted.
    pub(crate) fn run_stats(&self) -> RunStats {
        RunStats {
            notifications: self.device.stats.notifications - self.base_notifications,
            irqs: self.device.stats.irqs_sent - self.base_irqs,
            desc_reads: self.device.stats.desc_reads - self.base_desc_reads,
            // A high-water mark, not a counter: bring-up's ctrl
            // exchange never uses the pipelined walkers, so no base to
            // subtract.
            walker_peak_inflight: self.device.stats.walker_peak_inflight,
        }
    }
}

// ---------------------------------------------------------------------
// Serial world (Testbed::run / trace reconciliation)
// ---------------------------------------------------------------------

/// Events of the serial MQ round-trip flow.
pub(crate) enum MqEv {
    /// Application on the next core in rotation sends one packet.
    AppSend,
    /// Doorbell TLP lands on a TX queue.
    Doorbell(u16),
    /// Per-queue MSI-X for pair `n` reaches its host core.
    RxIrq(u16),
}

/// Serial request-response over N queue pairs, one flow per core in
/// round-robin. Exercises the per-queue interrupt/doorbell machinery
/// under the standard recorder so MQ runs reconcile in `vf-trace`.
pub(crate) struct MqWorld {
    parts: MqParts,
    payload: usize,
    expected: Vec<u8>,
    sent: usize,
    rec: RoundTripRecorder,
}

impl MqWorld {
    fn new(cfg: &TestbedConfig) -> Self {
        MqWorld {
            parts: MqParts::new(cfg),
            payload: cfg.payload,
            expected: Vec::new(),
            sent: 0,
            rec: RoundTripRecorder::new(cfg.packets),
        }
    }
}

impl World for MqWorld {
    type Msg = MqEv;

    fn deliver(&mut self, now: Time, msg: MqEv, sched: &mut vf_sim::Scheduler<MqEv>) {
        self.parts.link.advance_epoch(now);
        let parts = &mut self.parts;
        match msg {
            MqEv::AppSend => {
                if self.rec.packets_left == 0 {
                    return;
                }
                let pair = (self.sent % parts.pairs as usize) as u16;
                self.sent += 1;
                self.rec
                    .begin_rtt(now, MQ_RTT_NAMES[pair as usize], self.payload as u64);
                let mut t = now;
                let mut payload = vec![0u8; self.payload];
                parts.payload_rng.fill_bytes(&mut payload);
                self.expected = payload.clone();
                let offload = parts.driver.pairs[pair as usize].csum_offload();

                let cpu = parts.host.cpu_for_pair(pair);
                let (frame, d) = parts
                    .stack
                    .sendto(
                        parts.fpga_ip,
                        FLOW_PORT_BASE + pair,
                        7,
                        &payload,
                        offload,
                        &mut cpu.cost,
                    )
                    .expect("send path configured");
                vf_trace::span_at(
                    vf_trace::Layer::Syscall,
                    "sendto",
                    t,
                    t + d,
                    payload.len() as u64,
                    u64::from(pair),
                );
                t += d;
                let res = parts
                    .driver
                    .xmit(&mut parts.mem, pair, &frame, &mut cpu.cost);
                vf_trace::span_at(
                    vf_trace::Layer::Driver,
                    "virtio_xmit",
                    t,
                    t + res.cpu,
                    frame.len() as u64,
                    u64::from(pair),
                );
                t += res.cpu;
                if res.notify {
                    let tx_q = net::tx_queue_of_pair(pair);
                    let ev = parts.device.mmio_write(
                        bar0::NOTIFY + u64::from(tx_q) * u64::from(bar0::NOTIFY_MULTIPLIER),
                        2,
                        u64::from(tx_q),
                    );
                    debug_assert_eq!(ev, Some(MmioEvent::Notify(tx_q)));
                    let arrival = parts.link.mmio_write(t, 2);
                    let d = cpu.cost.step(cpu.cost.costs.mmio_write_cpu);
                    vf_trace::span_at(
                        vf_trace::Layer::Driver,
                        "doorbell_mmio",
                        t,
                        t + d,
                        u64::from(tx_q),
                        0,
                    );
                    t += d;
                    sched.at(arrival, MqEv::Doorbell(tx_q));
                }
                vf_trace::set_now(t);
                t += cpu.cost.send_return_then_block();
                cpu.free = t;
            }
            MqEv::Doorbell(tx_q) => {
                let out =
                    parts
                        .device
                        .process_tx_notify(now, tx_q, &mut parts.mem, &mut parts.link);
                for resp in &out.responses {
                    // RSS: the walker hashes the response flow onto the
                    // active pairs and raises that pair's own vector.
                    let rx_q = parts.device.rss_steer(&resp.data);
                    let rxo = parts.device.deliver_response(
                        resp.ready_at,
                        rx_q,
                        resp,
                        &mut parts.mem,
                        &mut parts.link,
                    );
                    if let Some(irq_at) = rxo.irq_at {
                        sched.at(irq_at, MqEv::RxIrq(rx_q / 2));
                    }
                }
            }
            MqEv::RxIrq(pair) => {
                let cpu = parts.host.cpu_for_pair(pair);
                let t_irq = now.max(cpu.free);
                vf_trace::set_now(t_irq);
                let mut t = t_irq + cpu.cost.irq_to_napi();
                let (frames, d) = parts.driver.napi_poll(&mut parts.mem, pair, &mut cpu.cost);
                vf_trace::span_at(
                    vf_trace::Layer::Driver,
                    "napi_poll",
                    t,
                    t + d,
                    0,
                    u64::from(pair),
                );
                t += d;
                let mut delivered_payload: Option<Vec<u8>> = None;
                for rx in frames {
                    let validated = rx.hdr.flags & vf_virtio::net::HDR_F_DATA_VALID != 0;
                    match parts.stack.netif_receive(
                        &rx.frame,
                        FLOW_PORT_BASE + pair,
                        validated,
                        &mut cpu.cost,
                    ) {
                        Ok((parsed, d)) => {
                            vf_trace::span_at(
                                vf_trace::Layer::Syscall,
                                "udp_rx",
                                t,
                                t + d,
                                rx.frame.len() as u64,
                                u64::from(pair),
                            );
                            t += d;
                            delivered_payload = Some(parsed.payload);
                        }
                        Err(SockError::BadChecksum) => {
                            self.rec.verify_failures += 1;
                        }
                        Err(e) => panic!("receive path failed: {e:?}"),
                    }
                }
                let d = cpu.cost.step(cpu.cost.costs.wakeup_to_run);
                vf_trace::span_at(vf_trace::Layer::Irq, "wakeup_to_run", t, t + d, 0, 0);
                t += d;
                let len = delivered_payload.as_ref().map_or(0, |p| p.len());
                let d = parts.stack.recvfrom_return(len, &mut cpu.cost);
                vf_trace::span_at(
                    vf_trace::Layer::Syscall,
                    "recvfrom_return",
                    t,
                    t + d,
                    len as u64,
                    0,
                );
                t += d;
                cpu.free = t;

                if delivered_payload.as_deref() != Some(&self.expected[..]) {
                    self.rec.verify_failures += 1;
                }
                let hw = parts.device.counters.last_hw();
                let proc = parts.device.counters.processing.last;
                self.rec.record(t, hw, proc);
                if self.rec.packets_left > 0 {
                    let next = t + cpu.cost.step(cpu.cost.costs.app_loop_overhead);
                    sched.at(next, MqEv::AppSend);
                }
            }
        }
    }
}

impl DriverModel for MqWorld {
    type Telemetry = ();

    fn build(cfg: &TestbedConfig) -> Self {
        MqWorld::new(cfg)
    }

    fn initial_event() -> MqEv {
        MqEv::AppSend
    }

    fn describe(msg: &MqEv) -> Option<(vf_trace::Layer, &'static str)> {
        match msg {
            MqEv::AppSend => Some((vf_trace::Layer::App, "app_send")),
            MqEv::Doorbell(_) => Some((vf_trace::Layer::Device, "doorbell")),
            MqEv::RxIrq(_) => Some((vf_trace::Layer::Irq, "msix_rx")),
        }
    }

    fn finish(self) -> (RoundTripRecorder, RunStats, ()) {
        let stats = self.parts.run_stats();
        (self.rec, stats, ())
    }
}

// ---------------------------------------------------------------------
// Pipelined world (the E19 measurement)
// ---------------------------------------------------------------------

/// Result of one [`run_mq`] sweep point.
pub struct MqThroughputResult {
    /// Active queue pairs.
    pub queues: u16,
    /// Per-queue window depth used.
    pub depth: usize,
    /// Total packets across all queues.
    pub packets: usize,
    /// Aggregate throughput (packets/s).
    pub pps: f64,
    /// Per-queue round-trip latency samples.
    pub per_queue_latency: Vec<SampleSet>,
    /// Doorbell MMIO writes (bring-up excluded).
    pub doorbells: u64,
    /// MSI-X messages sent (bring-up excluded).
    pub irqs: u64,
    /// Echo verification failures.
    pub verify_failures: u64,
    /// Fraction of the run the upstream (device→host) wire was busy.
    pub link_util_up: f64,
    /// Fraction of the run the downstream (host→device) wire was busy.
    pub link_util_down: f64,
    /// Highest number of non-posted reads one walker tag held in
    /// flight (0 when the serial TX walker ran, i.e. depth 1).
    pub peak_np_inflight: u64,
}

impl MqThroughputResult {
    /// Doorbells per packet (per-queue EVENT_IDX coalescing at work).
    pub fn doorbells_per_packet(&self) -> f64 {
        self.doorbells as f64 / self.packets as f64
    }

    /// Interrupts per packet.
    pub fn irqs_per_packet(&self) -> f64 {
        self.irqs as f64 / self.packets as f64
    }

    /// Mean round-trip latency pooled over every queue (µs).
    pub fn mean_latency_us(&mut self) -> f64 {
        let mut sum = 0.0;
        let mut n = 0usize;
        for s in &self.per_queue_latency {
            sum += s.raw().iter().sum::<f64>();
            n += s.raw().len();
        }
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }
}

/// Pipelined events, all tagged with the queue pair they belong to.
enum PipeEv {
    Pump(u16),
    Doorbell(u16),
    RxIrq(u16),
}

/// Per-queue pipelining state: each pair runs the E12 windowed workload
/// independently on its own core.
struct QueueState {
    payload_rng: SimRng,
    to_send: usize,
    in_flight: usize,
    seq: u32,
    send_time: HashMap<u32, Time>,
    expected: HashMap<u32, Vec<u8>>,
    latency: SampleSet,
}

struct MqPipelinedWorld {
    parts: MqParts,
    queues: Vec<QueueState>,
    depth: usize,
    payload: usize,
    received: usize,
    verify_failures: u64,
}

impl MqPipelinedWorld {
    fn new(cfg: &TestbedConfig, depth: usize) -> Self {
        let parts = MqParts::new(cfg);
        let rng = SimRng::new(cfg.seed);
        let pairs = parts.pairs as usize;
        let per_queue = cfg.packets / pairs;
        let remainder = cfg.packets % pairs;
        let queues = (0..pairs)
            .map(|i| QueueState {
                // One payload stream per queue: concurrent queues must
                // not race for draws from a shared stream.
                payload_rng: rng.derive(100 + i as u64),
                to_send: per_queue + usize::from(i < remainder),
                in_flight: 0,
                seq: 0,
                send_time: HashMap::new(),
                expected: HashMap::new(),
                latency: SampleSet::with_capacity(per_queue + 1),
            })
            .collect();
        MqPipelinedWorld {
            parts,
            queues,
            depth,
            // Sequence number needs 4 bytes of payload.
            payload: cfg.payload.max(4),
            received: 0,
            verify_failures: 0,
        }
    }

    /// Top up queue `pair`'s window. Returns (cpu-done instant,
    /// coalesced doorbell arrival).
    fn refill(&mut self, pair: u16, now: Time) -> (Time, Option<Time>) {
        let parts = &mut self.parts;
        let q = &mut self.queues[pair as usize];
        let cpu = parts.host.cpu_for_pair(pair);
        let mut t = now;
        let mut doorbell_at: Option<Time> = None;
        while q.in_flight < self.depth && q.to_send > 0 {
            let mut payload = vec![0u8; self.payload];
            q.payload_rng.fill_bytes(&mut payload);
            payload[..4].copy_from_slice(&q.seq.to_le_bytes());
            q.send_time.insert(q.seq, t);
            q.expected.insert(q.seq, payload.clone());
            let (frame, cpu_t) = parts
                .stack
                .sendto(
                    parts.fpga_ip,
                    FLOW_PORT_BASE + pair,
                    7,
                    &payload,
                    false,
                    &mut cpu.cost,
                )
                .expect("send path configured");
            t += cpu_t;
            let res = parts
                .driver
                .xmit(&mut parts.mem, pair, &frame, &mut cpu.cost);
            t += res.cpu;
            if res.notify {
                let tx_q = net::tx_queue_of_pair(pair);
                let ev = parts.device.mmio_write(
                    bar0::NOTIFY + u64::from(tx_q) * u64::from(bar0::NOTIFY_MULTIPLIER),
                    2,
                    u64::from(tx_q),
                );
                debug_assert_eq!(ev, Some(MmioEvent::Notify(tx_q)));
                let arrival = parts.link.mmio_write(t, 2);
                t += cpu.cost.step(cpu.cost.costs.mmio_write_cpu);
                doorbell_at = Some(doorbell_at.map_or(arrival, |d: Time| d.max(arrival)));
            }
            q.in_flight += 1;
            q.to_send -= 1;
            q.seq += 1;
        }
        (t, doorbell_at)
    }
}

impl World for MqPipelinedWorld {
    type Msg = PipeEv;

    fn deliver(&mut self, now: Time, msg: PipeEv, sched: &mut vf_sim::Scheduler<PipeEv>) {
        self.parts.link.advance_epoch(now);
        match msg {
            PipeEv::Pump(pair) => {
                let (mut t, doorbell) = self.refill(pair, now);
                if let Some(at) = doorbell {
                    sched.at(at, PipeEv::Doorbell(pair));
                }
                let cpu = self.parts.host.cpu_for_pair(pair);
                t += cpu.cost.step(cpu.cost.costs.syscall_entry);
                t += cpu.cost.step(cpu.cost.costs.block_schedule);
                cpu.free = t;
                cpu.blocked = true;
            }
            PipeEv::Doorbell(pair) => {
                let parts = &mut self.parts;
                let out = parts.device.process_tx_notify(
                    now,
                    net::tx_queue_of_pair(pair),
                    &mut parts.mem,
                    &mut parts.link,
                );
                for resp in &out.responses {
                    let rx_q = parts.device.rss_steer(&resp.data);
                    let rxo = parts.device.deliver_response(
                        resp.ready_at,
                        rx_q,
                        resp,
                        &mut parts.mem,
                        &mut parts.link,
                    );
                    if let Some(irq_at) = rxo.irq_at {
                        sched.at(irq_at, PipeEv::RxIrq(rx_q / 2));
                    }
                }
            }
            PipeEv::RxIrq(pair) => {
                let parts = &mut self.parts;
                let q = &mut self.queues[pair as usize];
                let cpu = parts.host.cpu_for_pair(pair);
                let mut t = now.max(cpu.free) + cpu.cost.blocking_extra();
                t += cpu.cost.step(cpu.cost.costs.hardirq_entry);
                t += cpu.cost.step(cpu.cost.costs.softirq_latency);
                let (frames, cpu_t) = parts.driver.napi_poll(&mut parts.mem, pair, &mut cpu.cost);
                t += cpu_t;
                if frames.is_empty() {
                    return;
                }
                if cpu.blocked {
                    t += cpu.cost.step(cpu.cost.costs.wakeup_to_run);
                    cpu.blocked = false;
                }
                for rx in frames {
                    match parts.stack.netif_receive(
                        &rx.frame,
                        FLOW_PORT_BASE + pair,
                        false,
                        &mut cpu.cost,
                    ) {
                        Ok((parsed, cpu_t)) => {
                            t += cpu_t;
                            t += parts
                                .stack
                                .recvfrom_return(parsed.payload.len(), &mut cpu.cost);
                            let seq = u32::from_le_bytes(
                                parsed.payload[..4].try_into().expect("seq header"),
                            );
                            let expected = q.expected.remove(&seq);
                            if expected.as_deref() != Some(&parsed.payload[..]) {
                                self.verify_failures += 1;
                            }
                            let t0 = q.send_time.remove(&seq).expect("known seq");
                            q.latency.push((t - t0).quantize(Time::from_ns(1)));
                            q.in_flight -= 1;
                            self.received += 1;
                        }
                        Err(e) => panic!("receive path failed: {e:?}"),
                    }
                }
                cpu.free = t;
                if q.to_send > 0 || q.in_flight > 0 {
                    sched.at(t, PipeEv::Pump(pair));
                }
            }
        }
    }
}

/// Run the E19 pipelined multi-queue workload: `mq_queue_pairs` pairs
/// (from `cfg.options`), each with a `depth`-deep window, until
/// `cfg.packets` total round trips complete.
pub fn run_mq(cfg: &TestbedConfig, depth: usize) -> MqThroughputResult {
    assert!(
        matches!(
            cfg.driver,
            DriverKind::VirtioMq | DriverKind::VirtioMqPacked
        ),
        "run_mq drives the MQ front ends"
    );
    assert!(
        depth <= cfg.options.queue_size as usize / 2,
        "window must fit the TX ring ({} two-descriptor chains)",
        cfg.options.queue_size / 2
    );
    let world = MqPipelinedWorld::new(cfg, depth);
    let pairs = world.parts.pairs;
    let mut sim = Simulation::new(world);
    let start = Time::from_us(10);
    for pair in 0..pairs {
        sim.schedule_at(start, PipeEv::Pump(pair));
    }
    let outcome = sim.run(Time::from_secs(3600), 500_000_000);
    assert_eq!(outcome, vf_sim::RunOutcome::Idle, "mq pipeline wedged");
    let elapsed = sim.now() - start;
    let w = sim.world;
    assert_eq!(w.received, cfg.packets, "packets lost");
    let stats = w.parts.run_stats();
    let link = &w.parts.link;
    let wire = |bytes: u64| {
        Time::from_ps(bytes * link.cfg.ps_per_byte()).as_us_f64() / elapsed.as_us_f64()
    };
    MqThroughputResult {
        queues: pairs,
        depth,
        packets: cfg.packets,
        pps: cfg.packets as f64 / (elapsed.as_us_f64() / 1e6),
        per_queue_latency: w.queues.into_iter().map(|q| q.latency).collect(),
        doorbells: stats.notifications,
        irqs: stats.irqs,
        verify_failures: w.verify_failures,
        link_util_up: wire(link.up_wire_bytes),
        link_util_down: wire(link.down_wire_bytes),
        peak_np_inflight: stats.walker_peak_inflight,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testbed::Testbed;

    fn cfg_for(driver: DriverKind, pairs: u16, packets: usize) -> TestbedConfig {
        let mut c = TestbedConfig::paper(driver, 256, packets, 77);
        c.options.mq_queue_pairs = pairs;
        c
    }

    fn cfg(pairs: u16, packets: usize) -> TestbedConfig {
        cfg_for(DriverKind::VirtioMq, pairs, packets)
    }

    #[test]
    fn serial_world_round_robins_all_pairs() {
        let r = Testbed::new(cfg(4, 400)).run();
        assert_eq!(r.verify_failures, 0);
        // Serial request-response: exactly one doorbell and one RX irq
        // per packet, bring-up traffic excluded.
        assert_eq!(r.notifications, 400);
        assert_eq!(r.irqs, 400);
    }

    #[test]
    fn serial_single_pair_behaves_like_a_net_device() {
        let r = Testbed::new(cfg(1, 300)).run();
        assert_eq!(r.verify_failures, 0);
        assert_eq!(r.notifications, 300);
    }

    #[test]
    fn pipelined_mq_scales_beyond_one_queue() {
        let one = run_mq(&cfg(1, 1_200), 16);
        let four = run_mq(&cfg(4, 1_200), 16);
        assert_eq!(one.verify_failures, 0);
        assert_eq!(four.verify_failures, 0);
        assert!(
            four.pps > 2.0 * one.pps,
            "4 queues: {} pps vs 1 queue: {} pps",
            four.pps,
            one.pps
        );
    }

    #[test]
    fn per_queue_suppression_still_engages() {
        let r = run_mq(&cfg(2, 2_000), 16);
        assert!(
            r.irqs_per_packet() < 0.8,
            "irqs/packet = {}",
            r.irqs_per_packet()
        );
        assert!(
            r.doorbells_per_packet() < 0.8,
            "doorbells/packet = {}",
            r.doorbells_per_packet()
        );
    }

    #[test]
    fn pipelined_mq_is_deterministic() {
        let a = run_mq(&cfg(2, 600), 8);
        let b = run_mq(&cfg(2, 600), 8);
        assert_eq!(a.pps.to_bits(), b.pps.to_bits());
        for (x, y) in a.per_queue_latency.iter().zip(&b.per_queue_latency) {
            assert_eq!(x.raw(), y.raw());
        }
    }

    /// The Toeplitz indirection table pins every measured flow to the
    /// same pair the modulo fallback picks, and its bring-up traffic is
    /// excluded from measurement — so the two steering modes must
    /// produce bit-identical runs. This is the E19 golden-equivalence
    /// guarantee the RSS satellite demands.
    #[test]
    fn toeplitz_steering_is_bit_identical_to_modulo() {
        let a = run_mq(&cfg(4, 800), 8);
        let mut c = cfg(4, 800);
        c.options.rss = RssMode::PortModulo;
        let b = run_mq(&c, 8);
        assert_eq!(a.pps.to_bits(), b.pps.to_bits());
        for (x, y) in a.per_queue_latency.iter().zip(&b.per_queue_latency) {
            assert_eq!(x.raw(), y.raw());
        }
    }

    #[test]
    fn packed_mq_world_round_trips_serially() {
        let r = Testbed::new(cfg_for(DriverKind::VirtioMqPacked, 4, 300)).run();
        assert_eq!(r.verify_failures, 0);
        // No EVENT_IDX on the packed front end: one doorbell per packet
        // and one unconditional RX vector per delivery.
        assert_eq!(r.notifications, 300);
        assert_eq!(r.irqs, 300);
    }

    #[test]
    fn packed_mq_pipeline_is_deterministic() {
        let mk = || {
            let mut c = cfg_for(DriverKind::VirtioMqPacked, 2, 400);
            c.options.pipeline_depth = 4;
            c
        };
        let a = run_mq(&mk(), 8);
        let b = run_mq(&mk(), 8);
        assert_eq!(a.verify_failures, 0);
        assert_eq!(a.pps.to_bits(), b.pps.to_bits());
    }

    /// E20's headline: depth > 1 strictly beats the serial walkers at
    /// 256 B for both ring layouts, and the link reports the deeper
    /// window actually materialized.
    #[test]
    fn pipelined_walkers_beat_serial_at_256b() {
        for driver in [DriverKind::VirtioMq, DriverKind::VirtioMqPacked] {
            let base = run_mq(&cfg_for(driver, 4, 1_000), 16);
            let mut deep_cfg = cfg_for(driver, 4, 1_000);
            deep_cfg.options.pipeline_depth = 4;
            let deep = run_mq(&deep_cfg, 16);
            assert_eq!(deep.verify_failures, 0);
            assert_eq!(base.peak_np_inflight, 0, "{driver:?} serial walkers");
            assert!(
                deep.peak_np_inflight > 1,
                "{driver:?} pipelined walkers never overlapped reads"
            );
            assert!(
                deep.pps > base.pps,
                "{driver:?}: depth 4 ({:.0} pps) must beat depth 1 ({:.0} pps)",
                deep.pps,
                base.pps
            );
        }
    }

    #[test]
    fn every_queue_carries_traffic() {
        let mut r = run_mq(&cfg(4, 1_000), 8);
        for (i, s) in r.per_queue_latency.iter().enumerate() {
            assert_eq!(s.raw().len(), 250, "queue {i} packet count");
        }
        assert!(r.mean_latency_us() > 0.0);
    }
}
