//! E19 — multi-queue virtio-net (`VIRTIO_NET_F_MQ`) scaling, and the
//! two worlds every multi-queue kind runs on.
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
//! Two worlds share one bring-up (`MqParts`) and serve
//! `DriverKind::VirtioMq`, `VirtioMqPacked` and `VirtioTenant` alike:
//!
//! * `MqWorld` — serial request-response, round-robin across the
//!   active pairs, recorded through the standard [`RoundTripRecorder`]
//!   so the multi-queue kinds run through [`crate::Testbed::run`] and
//!   the trace reconciliation harness like every other driver;
//! * `MqPipelinedWorld` — pipelined offered load with a per-pair
//!   window, behind [`run_mq`] (the E19 measurement proper: aggregate
//!   pps, per-queue latency, doorbell/irq suppression, and link
//!   utilization per queue count; at one pair, the E12 depth sweep of
//!   `experiments::pipelined_throughput`) and
//!   [`crate::tenant::run_tenants`], pumped from `WINDOW_START` by the
//!   shared `driver_model::run_windowed`. It emits no trace spans, so it
//!   calls the UDP stack directly where the serial world uses `HostNet`.
//!
//! For the tenant kind the bring-up also builds the E21
//! [`crate::tenant`] layer (`MqParts::tenancy`): vhost relays and a QoS
//! arbiter in front of one shared walker engine. The MQ kinds run
//! without it — each pair owns its walker, so a doorbell is serviced at
//! once and no `EngineFree` or `WorkerRx` event is ever scheduled. Only
//! the round-trip root names tell the kinds apart in a trace:
//! `rtt_mq_q<i>` versus `rtt_tenant_t<i>`.

use std::collections::HashMap;
use std::sync::OnceLock;

use vf_fpga::user_logic::UdpEcho;
use vf_fpga::{Persona, VirtioFpgaDevice};
use vf_hostsw::{probe_mq, MultiCoreHost, VirtioNetMqDriver, CTRL_QUEUE_SIZE};
use vf_pcie::{enumerate, HostMemory, MmioAllocator, PcieLink, MSI_ADDR_BASE};
use vf_sim::{SampleSet, Scheduler, SimRng, Time, World};
use vf_tenant::TenantConfig;
use vf_virtio::net::VirtioNetConfig;
use vf_virtio::{feature, net, DeviceType};

use crate::driver_model::{run_windowed, DriverModel, RoundTripRecorder, RunStats};
use crate::tenant::Tenancy;
use crate::testbed::{
    link_util, notify_write, ring_doorbell, DriverKind, HostNet, TestbedConfig, FLOW_PORT_BASE,
};

/// Most queue pairs a world will drive: 64, so the E21 tenant sweep
/// can slice one pair per tenant up to 64 tenants. The device model
/// imposes no limit of its own; the per-pair round-trip trace names are
/// generated up to this one.
pub const MAX_QUEUE_PAIRS: u16 = 64;

/// One round-trip trace name per queue pair.
pub(crate) type RttNames = [&'static str; MAX_QUEUE_PAIRS as usize];

/// `{prefix}0` … `{prefix}63` in `table`, built on first use and kept
/// for the life of the process: trace roots are `&'static str`, so each
/// name is leaked once.
pub(crate) fn rtt_names(table: &'static OnceLock<RttNames>, prefix: &str) -> &'static RttNames {
    table.get_or_init(|| std::array::from_fn(|i| &*format!("{prefix}{i}").leak()))
}

/// Per-queue round-trip trace names of the MQ kinds: `rtt_mq_q<i>`.
fn mq_rtt_names() -> &'static RttNames {
    static NAMES: OnceLock<RttNames> = OnceLock::new();
    rtt_names(&NAMES, "rtt_mq_q")
}

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
/// pair, and — for `DriverKind::VirtioTenant` only — the E21 tenancy
/// layered on the pairs. Bring-up (including the ctrl-vq exchange)
/// happens "before time zero": the link is re-created afterwards and
/// the device stats snapshot in `base_stats` is subtracted from
/// reported counters.
pub(crate) struct MqParts {
    pub(crate) mem: HostMemory,
    pub(crate) link: PcieLink,
    pub(crate) device: VirtioFpgaDevice,
    pub(crate) driver: VirtioNetMqDriver,
    /// Pair `i`'s flow is the socket path's flow `i`.
    pub(crate) net: HostNet,
    pub(crate) host: MultiCoreHost,
    pub(crate) payload_rng: SimRng,
    pub(crate) pairs: u16,
    /// Vhost workers, arbiter and tenant configs; `None` for the MQ
    /// kinds, whose pairs each own their walker.
    pub(crate) tenancy: Option<Tenancy>,
    /// The device's counters after bring-up.
    base: RunStats,
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
        device.set_card_memory(cfg.options.card_memory);
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
        let out = probe_mq(&mut device, &driver, want).expect("mq probe");
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
            notify_write(device, ctrl_q);
            let ctrl_out = device.process_ctrl_notify(Time::ZERO, ctrl_q, mem, link);
            assert!(ctrl_out.delivered);
            assert_eq!(driver.ctrl_ack(mem), Some(net::ctrl::OK));
        };
        let notify = driver.set_queue_pairs(&mut mem, pairs);
        ctrl_command(&mut device, &mut mem, &mut link, &mut driver, notify);
        assert_eq!(device.active_queue_pairs(), pairs);

        // RSS bring-up: program the Toeplitz indirection table through
        // the control queue, pinning each measured flow to its pair.
        let table = pinned_rss_table(pairs);
        let notify = driver.set_rss(&mut mem, &table, &net::RSS_DEFAULT_KEY);
        ctrl_command(&mut device, &mut mem, &mut link, &mut driver, notify);
        assert_eq!(device.rss_indirection(), Some(&table[..]));

        MqParts {
            base: RunStats::from(&device.stats),
            mem,
            // Bring-up used the link; measurements start on a quiet one.
            link: PcieLink::new(link_cfg),
            device,
            driver,
            net: HostNet::new(netcfg.mac),
            host,
            payload_rng: rng.derive(2),
            pairs,
            tenancy: (cfg.driver == DriverKind::VirtioTenant).then(|| Tenancy::new(cfg, pairs)),
        }
    }

    /// Device stats with the bring-up (ctrl-vq) traffic subtracted.
    pub(crate) fn run_stats(&self) -> RunStats {
        let now = RunStats::from(&self.device.stats);
        RunStats {
            notifications: now.notifications - self.base.notifications,
            irqs: now.irqs - self.base.irqs,
            desc_reads: now.desc_reads - self.base.desc_reads,
            // A high-water mark, not a counter: bring-up's ctrl
            // exchange never uses the pipelined walkers, so no base to
            // subtract.
            ..now
        }
    }
}

/// Events of both worlds, tagged with the queue pair they belong to.
/// `H` is the world's own host-side wakeup: the serial world's next
/// send (`()`) or the pipelined world's pump of pair `n` (`u16`).
pub(crate) enum MqEv<H> {
    /// The world's host-side wakeup.
    Host(H),
    /// Pair `n`'s (guest) core takes its RX interrupt.
    RxIrq(u16),
    /// A device-side event, handled alike by both worlds.
    Device(DeviceEv),
}

/// Device-side events, handled alike by both worlds.
pub(crate) enum DeviceEv {
    /// Pair `n`'s doorbell reaches the device (directly, or relayed by
    /// its vhost worker).
    Doorbell(u16),
    /// The walker engine goes idle; the arbiter grants the next tenant.
    EngineFree,
    /// Tenant `n`'s vhost worker picks up a completion of `bytes`
    /// (`u32`, not `usize`, keeps every event at 8 bytes: the sweeps
    /// push millions of them through the timing wheel).
    WorkerRx(u16, u32),
}

impl<H> From<DeviceEv> for MqEv<H> {
    fn from(ev: DeviceEv) -> Self {
        MqEv::Device(ev)
    }
}

/// The device side both worlds share.
impl MqParts {
    fn tenancy_mut(&mut self) -> &mut Tenancy {
        self.tenancy
            .as_mut()
            .expect("engine-free and vhost relays exist only under tenancy")
    }

    /// Pair `pair`'s scheduling/workload class; the MQ kinds' pairs are
    /// all default tenants.
    fn tenant_config(&self, pair: u16) -> TenantConfig {
        self.tenancy
            .as_ref()
            .map_or_else(TenantConfig::default, |t| t.configs[pair as usize])
    }

    /// The pairs that send: every pair except paused tenants.
    fn active_pairs(&self) -> Vec<u16> {
        let active: Vec<u16> = (0..self.pairs)
            .filter(|&p| !self.tenant_config(p).paused)
            .collect();
        assert!(!active.is_empty(), "at least one tenant must be active");
        active
    }

    /// Ring pair `pair`'s TX doorbell from its core at `t`: a direct
    /// MMIO write, or under the vhost backend a kick vmexit whose worker
    /// relays the real write. `span` emits the guest-side trace span.
    /// Returns (guest CPU time spent, doorbell arrival at the device).
    fn ring_doorbell(&mut self, pair: u16, t: Time, frame_len: usize, span: bool) -> (Time, Time) {
        let tx_q = net::tx_queue_of_pair(pair);
        let cost = &mut self.host.cpu_for_pair(pair).cost;
        let Some(ten) = self.tenancy.as_mut().filter(|ten| ten.vhost) else {
            return ring_doorbell(&mut self.device, &mut self.link, cost, tx_q, t, span);
        };
        // The guest's notify is a vmexit into the kick eventfd; the
        // worker relays the real doorbell.
        notify_write(&mut self.device, tx_q);
        let d = cost.step(cost.costs.vmexit_kick);
        if span {
            vf_trace::span_at(
                vf_trace::Layer::Driver,
                "vmexit_kick",
                t,
                t + d,
                u64::from(tx_q),
                0,
            );
        }
        let rung = ten.workers[pair as usize].tx(t + d, frame_len);
        (d, self.link.mmio_write(rung, 2))
    }

    /// Run pair `pair`'s walk: TX queue processing, response
    /// steering/delivery, and completion-interrupt dispatch (direct or
    /// via the tenant's worker). Under tenancy, charges the engine
    /// window to the arbiter.
    fn service_walk<H>(&mut self, pair: u16, now: Time, sched: &mut Scheduler<MqEv<H>>) {
        let out = self.device.process_tx_notify(
            now,
            net::tx_queue_of_pair(pair),
            &mut self.mem,
            &mut self.link,
        );
        let vhost = self.tenancy.as_ref().is_some_and(|t| t.vhost);
        let mut engine_done = out.done_at;
        for resp in &out.responses {
            // RSS: the walker hashes the response flow onto the active
            // pairs and raises that pair's own vector.
            let rx_q = self.device.rss_steer(&resp.data);
            let rxo = self.device.deliver_response(
                resp.ready_at,
                rx_q,
                resp,
                &mut self.mem,
                &mut self.link,
            );
            engine_done = engine_done.max(rxo.done_at);
            if let Some(irq_at) = rxo.irq_at {
                let dst = rx_q / 2;
                if vhost {
                    sched.at(
                        irq_at,
                        DeviceEv::WorkerRx(dst, resp.data.len() as u32).into(),
                    );
                } else {
                    sched.at(irq_at, MqEv::RxIrq(dst));
                }
            }
        }
        self.device.recycle_tx(out);
        if let Some(ten) = &mut self.tenancy {
            ten.arbiter.begin_service(pair, now, engine_done);
        }
    }

    /// Deliver a device-side event: a doorbell (serviced at once, or
    /// through the arbiter under tenancy), an engine-free grant, or a
    /// worker's completion relay.
    fn deliver_device<H>(&mut self, now: Time, ev: DeviceEv, sched: &mut Scheduler<MqEv<H>>) {
        match ev {
            DeviceEv::Doorbell(pair) => {
                if self
                    .tenancy
                    .as_mut()
                    .is_none_or(|t| t.admit(pair, now, sched))
                {
                    self.service_walk(pair, now, sched);
                }
            }
            DeviceEv::EngineFree => {
                if let Some(next) = self.tenancy_mut().engine_free(now, sched) {
                    self.service_walk(next, now, sched);
                }
                self.tenancy_mut().rearm_if_pending(now, sched);
            }
            DeviceEv::WorkerRx(tenant, bytes) => {
                let seen = self.tenancy_mut().workers[tenant as usize].rx(now, bytes as usize);
                sched.at(seen, MqEv::RxIrq(tenant));
            }
        }
    }
}

// ---------------------------------------------------------------------
// Serial world (Testbed::run / trace reconciliation)
// ---------------------------------------------------------------------

/// Serial request-response across the active pairs, one round trip at
/// a time in round-robin, recorded through the standard recorder so
/// the MQ and tenant kinds run through [`crate::Testbed::run`] and the
/// trace harness — each pair's round trips carry its own root
/// (`rtt_mq_q<i>` or `rtt_tenant_t<i>`), which is what the Perfetto
/// export splits into per-queue and per-tenant tracks.
pub(crate) struct MqWorld {
    parts: MqParts,
    /// Send rotation: every pair except paused tenants.
    active: Vec<u16>,
    rtt_names: &'static RttNames,
    payload: usize,
    expected: Vec<u8>,
    sent: usize,
    rec: RoundTripRecorder,
}

impl MqWorld {
    fn new(cfg: &TestbedConfig) -> Self {
        let parts = MqParts::new(cfg);
        MqWorld {
            active: parts.active_pairs(),
            rtt_names: if parts.tenancy.is_some() {
                Tenancy::rtt_names()
            } else {
                mq_rtt_names()
            },
            parts,
            payload: cfg.payload,
            expected: Vec::new(),
            sent: 0,
            rec: RoundTripRecorder::new(cfg.packets),
        }
    }
}

impl World for MqWorld {
    type Msg = MqEv<()>;

    fn deliver(&mut self, now: Time, msg: MqEv<()>, sched: &mut Scheduler<MqEv<()>>) {
        self.parts.link.advance_epoch(now);
        let parts = &mut self.parts;
        match msg {
            MqEv::Host(()) => {
                if self.rec.packets_left == 0 {
                    return;
                }
                let pair = self.active[self.sent % self.active.len()];
                self.sent += 1;
                self.rec
                    .begin_rtt(now, self.rtt_names[pair as usize], self.payload as u64);
                let payload = &mut self.expected;
                payload.clear();
                payload.resize(self.payload, 0);
                parts.payload_rng.fill_bytes(payload);
                let offload = parts.driver.pairs[pair as usize].csum_offload();
                let cpu = parts.host.cpu_for_pair(pair);
                let (mut t, notify) =
                    parts
                        .net
                        .send(now, pair, payload, offload, &mut cpu.cost, |frame, cost| {
                            parts.driver.xmit(&mut parts.mem, pair, frame, cost)
                        });
                if notify {
                    let frame_len = parts.net.tx_frame.len();
                    let (d, arrival) = parts.ring_doorbell(pair, t, frame_len, true);
                    t += d;
                    sched.at(arrival, DeviceEv::Doorbell(pair).into());
                }
                let cpu = parts.host.cpu_for_pair(pair);
                cpu.free = cpu.cost.send_return_then_block(t);
            }
            MqEv::RxIrq(pair) => {
                let cpu = parts.host.cpu_for_pair(pair);
                let t = cpu.cost.irq_to_napi(now.max(cpu.free));
                let (frames, d) = parts.driver.napi_poll(&mut parts.mem, pair, &mut cpu.cost);
                vf_trace::span_at(
                    vf_trace::Layer::Driver,
                    "napi_poll",
                    t,
                    t + d,
                    0,
                    u64::from(pair),
                );
                let (t, delivered) = parts.net.receive(
                    t + d,
                    frames,
                    pair,
                    &self.expected,
                    &mut self.rec.verify_failures,
                    &mut cpu.cost,
                );
                let t = parts.net.return_to_app(
                    t,
                    delivered,
                    &mut self.rec.verify_failures,
                    &mut cpu.cost,
                );
                cpu.free = t;
                let hw = parts.device.counters.last_hw();
                let proc = parts.device.counters.processing.last;
                if let Some(next) = self.rec.close(t, hw, proc, &mut cpu.cost) {
                    sched.at(next, MqEv::Host(()));
                }
            }
            MqEv::Device(ev) => parts.deliver_device(now, ev, sched),
        }
    }
}

impl DriverModel for MqWorld {
    type Telemetry = ();

    fn build(cfg: &TestbedConfig) -> Self {
        MqWorld::new(cfg)
    }

    fn initial_event() -> MqEv<()> {
        MqEv::Host(())
    }

    fn describe(msg: &MqEv<()>) -> Option<(vf_trace::Layer, &'static str)> {
        match msg {
            MqEv::Host(()) => Some((vf_trace::Layer::App, "app_send")),
            MqEv::RxIrq(_) => Some((vf_trace::Layer::Irq, "msix_rx")),
            MqEv::Device(DeviceEv::Doorbell(_)) => Some((vf_trace::Layer::Device, "doorbell")),
            MqEv::Device(DeviceEv::EngineFree) => Some((vf_trace::Layer::Device, "engine_free")),
            MqEv::Device(DeviceEv::WorkerRx(..)) => Some((vf_trace::Layer::Driver, "vhost_relay")),
        }
    }

    fn finish(self) -> (RoundTripRecorder, RunStats, ()) {
        let stats = self.parts.run_stats();
        (self.rec, stats, ())
    }
}

// ---------------------------------------------------------------------
// Pipelined world (the E19 and E21 measurements)
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

/// Per-pair pipelining state: the windowed workload on the pair's own
/// core, plus its resolved window depth and pause flag.
pub(crate) struct PairState {
    payload_rng: SimRng,
    to_send: usize,
    seq: u32,
    /// The window: seq → (send instant, payload sent).
    in_flight: HashMap<u32, (Time, Vec<u8>)>,
    latency: SampleSet,
    depth: usize,
    pub(crate) paused: bool,
    pub(crate) last_completion: Time,
    pub(crate) completed: usize,
}

/// Pipelined offered load over every active pair at once — the E19
/// `run_mq` and E21 `run_tenants` measurement world.
pub(crate) struct MqPipelinedWorld {
    pub(crate) parts: MqParts,
    pub(crate) queues: Vec<PairState>,
    /// Payload buffers of verified round trips, reused by later sends.
    spare_payloads: Vec<Vec<u8>>,
    payload: usize,
    received: usize,
    pub(crate) verify_failures: u64,
}

impl MqPipelinedWorld {
    fn new(cfg: &TestbedConfig, depth: usize) -> Self {
        let parts = MqParts::new(cfg);
        let rng = SimRng::new(cfg.seed);
        let active = parts.active_pairs();
        let per_queue = cfg.packets / active.len();
        let remainder = cfg.packets % active.len();
        let queues = (0..parts.pairs)
            .map(|i| {
                let rank = active.iter().position(|&a| a == i);
                let to_send = rank.map_or(0, |r| per_queue + usize::from(r < remainder));
                let tenant = parts.tenant_config(i);
                PairState {
                    // One payload stream per queue: concurrent queues
                    // must not race for draws from a shared stream.
                    payload_rng: rng.derive(100 + u64::from(i)),
                    to_send,
                    seq: 0,
                    in_flight: HashMap::new(),
                    latency: SampleSet::with_capacity(to_send + 1),
                    depth: tenant.depth_or(depth),
                    paused: tenant.paused,
                    last_completion: Time::ZERO,
                    completed: 0,
                }
            })
            .collect();
        MqPipelinedWorld {
            parts,
            queues,
            spare_payloads: Vec::new(),
            // Sequence number needs 4 bytes of payload.
            payload: cfg.payload.max(4),
            received: 0,
            verify_failures: 0,
        }
    }

    /// Top up pair `pair`'s window. Returns (cpu-done instant,
    /// coalesced doorbell arrival at the device).
    fn refill(&mut self, pair: u16, now: Time) -> (Time, Option<Time>) {
        let parts = &mut self.parts;
        let q = &mut self.queues[pair as usize];
        let mut t = now;
        let mut doorbell_at: Option<Time> = None;
        while q.in_flight.len() < q.depth && q.to_send > 0 {
            let mut payload = self.spare_payloads.pop().unwrap_or_default();
            payload.clear();
            payload.resize(self.payload, 0);
            q.payload_rng.fill_bytes(&mut payload);
            payload[..4].copy_from_slice(&q.seq.to_le_bytes());
            let cpu = parts.host.cpu_for_pair(pair);
            let send_t = t;
            t += parts.net.sendto(pair, &payload, false, &mut cpu.cost);
            q.in_flight.insert(q.seq, (send_t, payload));
            let res = parts
                .driver
                .xmit(&mut parts.mem, pair, &parts.net.tx_frame, &mut cpu.cost);
            t += res.cpu;
            if res.notify {
                let frame_len = parts.net.tx_frame.len();
                let (d, arrival) = parts.ring_doorbell(pair, t, frame_len, false);
                t += d;
                doorbell_at = Some(doorbell_at.map_or(arrival, |d: Time| d.max(arrival)));
            }
            q.to_send -= 1;
            q.seq += 1;
        }
        (t, doorbell_at)
    }
}

impl World for MqPipelinedWorld {
    type Msg = MqEv<u16>;

    fn deliver(&mut self, now: Time, msg: MqEv<u16>, sched: &mut Scheduler<MqEv<u16>>) {
        self.parts.link.advance_epoch(now);
        match msg {
            MqEv::Host(pair) => {
                let (mut t, doorbell) = self.refill(pair, now);
                if let Some(at) = doorbell {
                    sched.at(at, DeviceEv::Doorbell(pair).into());
                }
                let cpu = self.parts.host.cpu_for_pair(pair);
                t += cpu.cost.step(cpu.cost.costs.syscall_entry);
                t += cpu.cost.step(cpu.cost.costs.block_schedule);
                cpu.free = t;
                cpu.blocked = true;
            }
            MqEv::RxIrq(pair) => {
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
                let stack = &mut parts.net.stack;
                for rx in frames {
                    let (parsed, cpu_t) = stack
                        .netif_receive(&rx.frame, FLOW_PORT_BASE + pair, false, &mut cpu.cost)
                        .expect("receive path failed");
                    t += cpu_t;
                    t += stack.recvfrom_return(parsed.payload.len(), &mut cpu.cost);
                    let seq =
                        u32::from_le_bytes(parsed.payload[..4].try_into().expect("seq header"));
                    let (t0, expected) = q.in_flight.remove(&seq).expect("known seq");
                    if expected != parsed.payload {
                        self.verify_failures += 1;
                    }
                    self.spare_payloads.push(expected);
                    q.latency.push((t - t0).quantize(Time::from_ns(1)));
                    q.completed += 1;
                    q.last_completion = t;
                    self.received += 1;
                }
                cpu.free = t;
                if q.to_send > 0 || !q.in_flight.is_empty() {
                    sched.at(t, MqEv::Host(pair));
                }
            }
            MqEv::Device(ev) => self.parts.deliver_device(now, ev, sched),
        }
    }
}

impl MqPipelinedWorld {
    /// Build the world for `cfg` and run it until the active pairs
    /// drain `cfg.packets` round trips, each pumping a `depth`-deep
    /// window (per-tenant overrides apply) from `WINDOW_START`. Returns
    /// the drained world and the span the run took.
    pub(crate) fn run(cfg: &TestbedConfig, depth: usize) -> (Self, Time) {
        let world = MqPipelinedWorld::new(cfg, depth);
        for q in &world.queues {
            assert!(
                q.depth <= cfg.options.queue_size as usize / 2,
                "window must fit the TX ring ({} two-descriptor chains)",
                cfg.options.queue_size / 2
            );
        }
        let pumps: Vec<_> = (0..world.parts.pairs)
            .filter(|&pair| !world.queues[pair as usize].paused)
            .map(MqEv::Host)
            .collect();
        let (w, elapsed) = run_windowed(world, pumps, "pipeline");
        assert_eq!(w.received, cfg.packets, "packets lost");
        (w, elapsed)
    }

    /// Every pair's latency samples, in pair order.
    pub(crate) fn into_latencies(self) -> Vec<SampleSet> {
        self.queues.into_iter().map(|q| q.latency).collect()
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
    let (w, elapsed) = MqPipelinedWorld::run(cfg, depth);
    let stats = w.parts.run_stats();
    let (link_util_up, link_util_down) = link_util(&w.parts.link, elapsed);
    MqThroughputResult {
        queues: w.parts.pairs,
        depth,
        packets: cfg.packets,
        pps: cfg.packets as f64 / (elapsed.as_us_f64() / 1e6),
        doorbells: stats.notifications,
        irqs: stats.irqs,
        verify_failures: w.verify_failures,
        link_util_up,
        link_util_down,
        peak_np_inflight: stats.walker_peak_inflight,
        per_queue_latency: w.into_latencies(),
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
    /// pair the device's `dst_port % pairs` fallback picks, for every
    /// pair count a world accepts: flow `i`'s port steers to pair `i`.
    #[test]
    fn pinned_rss_table_steers_flow_i_to_pair_i() {
        for pairs in (0..=MAX_QUEUE_PAIRS.trailing_zeros()).map(|k| 1u16 << k) {
            let table = pinned_rss_table(pairs);
            for flow in 0..pairs {
                let port = FLOW_PORT_BASE + flow;
                let hash = net::toeplitz_hash(&net::RSS_DEFAULT_KEY, &port.to_be_bytes());
                let pair = table[hash as usize & (table.len() - 1)];
                assert_eq!(pair, flow, "{pairs} pairs, port {port}");
                assert_eq!(pair, port % pairs, "{pairs} pairs, port {port}");
            }
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

    /// Tenancy comes from the driver kind, not the tenant options: the
    /// MQ kinds build no arbiter and no vhost workers even with
    /// `tenant_vhost` set.
    #[test]
    fn only_the_tenant_kind_builds_tenancy() {
        for driver in [DriverKind::VirtioMq, DriverKind::VirtioMqPacked] {
            let mut c = cfg_for(driver, 2, 10);
            c.options.tenant_vhost = true;
            assert!(MqParts::new(&c).tenancy.is_none(), "{driver:?}");
        }
        let tenant = cfg_for(DriverKind::VirtioTenant, 2, 10);
        assert!(MqParts::new(&tenant).tenancy.is_some());
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
