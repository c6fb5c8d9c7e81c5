//! E21 — multi-tenant vhost multiplexing over one FPGA device.
//!
//! The MQ worlds (E19/E20) scale one host across queue pairs; this
//! module slices the same device across **M simulated guest VMs**.
//! Each tenant owns a private virtio-net front end — one RX/TX queue
//! pair with its own MSI-X vector and DMA tag context (the SR-IOV-style
//! slice of the multi-tag link) — while the device's single embedded
//! descriptor-walker engine is shared. Two seams turn that sharing into
//! the experiment:
//!
//! * a **vhost backend** ([`vf_tenant::VhostWorker`]): with
//!   [`crate::testbed::TestbedOptions::tenant_vhost`] on, every tenant's
//!   doorbell is an eventfd kick relayed by a per-tenant host worker
//!   thread (guest vmexit → worker wakeup + guest→host copy → real MMIO
//!   doorbell), and every completion interrupt is relayed back (host→
//!   guest copy + interrupt injection). The worker halves promote the
//!   old `vhost_*_overlay` cost stubs into genuinely scheduled cores
//!   that queue when busy;
//! * a **QoS arbiter** ([`vf_tenant::QosArbiter`]): doorbells landing
//!   while the walker engine is busy with *another* tenant are queued
//!   and granted on engine-free per policy — round-robin,
//!   weighted-share, or strict-priority.
//!
//! Parity anchor: a 1-tenant run with the backend off is **bit
//! identical** to the corresponding E19 single-pair MQ run — the
//! arbiter's idle-grant and owner-absorb rules make it invisible, and
//! the worker RNG streams are derived but never drawn. The regression
//! tests at the bottom pin this.

use std::collections::HashMap;

use vf_fpga::{bar0, MmioEvent};
use vf_hostsw::SockError;
use vf_sim::{SampleSet, SimRng, Simulation, Time, World};
use vf_tenant::{ArbiterPolicy, Decision, QosArbiter, TenantClass, TenantConfig, VhostWorker};
use vf_virtio::net;

use crate::driver_model::{DriverModel, RoundTripRecorder, RunStats};
use crate::mq::{MqParts, FLOW_PORT_BASE, MAX_QUEUE_PAIRS};
use crate::report::jain_fairness;
use crate::testbed::{DriverKind, TestbedConfig};

/// Per-tenant round-trip trace names, indexed by tenant.
const TENANT_RTT_NAMES: [&str; MAX_QUEUE_PAIRS as usize] = [
    "rtt_tenant_t0",
    "rtt_tenant_t1",
    "rtt_tenant_t2",
    "rtt_tenant_t3",
    "rtt_tenant_t4",
    "rtt_tenant_t5",
    "rtt_tenant_t6",
    "rtt_tenant_t7",
    "rtt_tenant_t8",
    "rtt_tenant_t9",
    "rtt_tenant_t10",
    "rtt_tenant_t11",
    "rtt_tenant_t12",
    "rtt_tenant_t13",
    "rtt_tenant_t14",
    "rtt_tenant_t15",
    "rtt_tenant_t16",
    "rtt_tenant_t17",
    "rtt_tenant_t18",
    "rtt_tenant_t19",
    "rtt_tenant_t20",
    "rtt_tenant_t21",
    "rtt_tenant_t22",
    "rtt_tenant_t23",
    "rtt_tenant_t24",
    "rtt_tenant_t25",
    "rtt_tenant_t26",
    "rtt_tenant_t27",
    "rtt_tenant_t28",
    "rtt_tenant_t29",
    "rtt_tenant_t30",
    "rtt_tenant_t31",
    "rtt_tenant_t32",
    "rtt_tenant_t33",
    "rtt_tenant_t34",
    "rtt_tenant_t35",
    "rtt_tenant_t36",
    "rtt_tenant_t37",
    "rtt_tenant_t38",
    "rtt_tenant_t39",
    "rtt_tenant_t40",
    "rtt_tenant_t41",
    "rtt_tenant_t42",
    "rtt_tenant_t43",
    "rtt_tenant_t44",
    "rtt_tenant_t45",
    "rtt_tenant_t46",
    "rtt_tenant_t47",
    "rtt_tenant_t48",
    "rtt_tenant_t49",
    "rtt_tenant_t50",
    "rtt_tenant_t51",
    "rtt_tenant_t52",
    "rtt_tenant_t53",
    "rtt_tenant_t54",
    "rtt_tenant_t55",
    "rtt_tenant_t56",
    "rtt_tenant_t57",
    "rtt_tenant_t58",
    "rtt_tenant_t59",
    "rtt_tenant_t60",
    "rtt_tenant_t61",
    "rtt_tenant_t62",
    "rtt_tenant_t63",
];

/// The shared bring-up of both tenant worlds: the MQ parts (tenant *i*
/// owns queue pair *i*), one vhost worker per tenant, the arbiter, and
/// the resolved per-tenant configs.
struct TenantParts {
    mq: MqParts,
    workers: Vec<VhostWorker>,
    arbiter: QosArbiter,
    tenant_cfgs: Vec<TenantConfig>,
    vhost: bool,
}

impl TenantParts {
    fn new(cfg: &TestbedConfig) -> Self {
        assert_eq!(
            cfg.driver,
            DriverKind::VirtioTenant,
            "tenant worlds drive the tenant front end"
        );
        let mq = MqParts::new(cfg);
        let tenants = mq.pairs as usize;
        let tenant_cfgs: Vec<TenantConfig> = if cfg.options.tenant_configs.is_empty() {
            vec![TenantConfig::default(); tenants]
        } else {
            assert_eq!(
                cfg.options.tenant_configs.len(),
                tenants,
                "tenant_configs must cover every tenant (mq_queue_pairs)"
            );
            cfg.options.tenant_configs.clone()
        };
        // Workers derive their streams from the same root the host and
        // payload streams come from, at a disjoint tag base. They are
        // built even with the backend off: `derive` is pure, so unused
        // workers perturb nothing — which is what keeps the 1-tenant
        // vhost-off run bit-identical to E19.
        let rng = SimRng::new(cfg.seed);
        let workers = (0..mq.pairs)
            .map(|i| VhostWorker::new(i, &cfg.calibration.costs, &cfg.calibration.noise, &rng))
            .collect();
        let classes: Vec<TenantClass> = tenant_cfgs.iter().map(TenantClass::from).collect();
        let arbiter = QosArbiter::new(cfg.options.tenant_policy, classes);
        TenantParts {
            mq,
            workers,
            arbiter,
            tenant_cfgs,
            vhost: cfg.options.tenant_vhost,
        }
    }
}

// ---------------------------------------------------------------------
// Serial world (Testbed::run / trace reconciliation)
// ---------------------------------------------------------------------

/// Events of the serial tenant round-trip flow.
pub(crate) enum TenantEv {
    /// The next tenant in rotation sends one packet from its guest.
    AppSend,
    /// Tenant `n`'s doorbell reaches the device (directly, or relayed
    /// by its vhost worker).
    Doorbell(u16),
    /// The walker engine goes idle; the arbiter grants the next tenant.
    EngineFree,
    /// Tenant `n`'s vhost worker picks up a completion of `bytes`.
    WorkerRx(u16, usize),
    /// Tenant `n`'s guest vCPU takes its RX interrupt.
    RxIrq(u16),
}

/// Serial request-response across M tenants, one round trip at a time
/// in round-robin, recorded through the standard recorder so
/// `DriverKind::VirtioTenant` runs through [`crate::Testbed::run`] and
/// the trace harness — each tenant's round trips carry its own
/// `rtt_tenant_t<i>` root, which is what the Perfetto export splits
/// into per-tenant tracks.
pub(crate) struct TenantWorld {
    parts: TenantParts,
    payload: usize,
    expected: Vec<u8>,
    sent: usize,
    rec: RoundTripRecorder,
    free_scheduled: bool,
}

impl TenantWorld {
    fn new(cfg: &TestbedConfig) -> Self {
        TenantWorld {
            parts: TenantParts::new(cfg),
            payload: cfg.payload,
            expected: Vec::new(),
            sent: 0,
            rec: RoundTripRecorder::new(cfg.packets),
            free_scheduled: false,
        }
    }

    /// Arm (at most one) engine-free wakeup at the arbiter's horizon.
    fn arm_engine_free(&mut self, now: Time, sched: &mut vf_sim::Scheduler<TenantEv>) {
        if !self.free_scheduled {
            sched.at(
                self.parts.arbiter.busy_until().max(now),
                TenantEv::EngineFree,
            );
            self.free_scheduled = true;
        }
    }

    /// Run tenant `t`'s granted walk: TX queue processing, response
    /// steering/delivery, and completion-interrupt dispatch (direct or
    /// via the tenant's worker). Charges the engine window to the
    /// arbiter.
    fn service_walk(&mut self, tenant: u16, now: Time, sched: &mut vf_sim::Scheduler<TenantEv>) {
        let parts = &mut self.parts;
        let out = parts.mq.device.process_tx_notify(
            now,
            net::tx_queue_of_pair(tenant),
            &mut parts.mq.mem,
            &mut parts.mq.link,
        );
        let mut engine_done = out.done_at;
        for resp in &out.responses {
            let rx_q = parts.mq.device.rss_steer(&resp.data);
            let rxo = parts.mq.device.deliver_response(
                resp.ready_at,
                rx_q,
                resp,
                &mut parts.mq.mem,
                &mut parts.mq.link,
            );
            engine_done = engine_done.max(rxo.done_at);
            if let Some(irq_at) = rxo.irq_at {
                let dst = rx_q / 2;
                if parts.vhost {
                    sched.at(irq_at, TenantEv::WorkerRx(dst, resp.data.len()));
                } else {
                    sched.at(irq_at, TenantEv::RxIrq(dst));
                }
            }
        }
        parts.arbiter.begin_service(tenant, now, engine_done);
    }
}

impl World for TenantWorld {
    type Msg = TenantEv;

    fn deliver(&mut self, now: Time, msg: TenantEv, sched: &mut vf_sim::Scheduler<TenantEv>) {
        self.parts.mq.link.advance_epoch(now);
        match msg {
            TenantEv::AppSend => {
                if self.rec.packets_left == 0 {
                    return;
                }
                let parts = &mut self.parts;
                let tenant = (self.sent % parts.mq.pairs as usize) as u16;
                self.sent += 1;
                self.rec
                    .begin_rtt(now, TENANT_RTT_NAMES[tenant as usize], self.payload as u64);
                let mut t = now;
                let mut payload = vec![0u8; self.payload];
                parts.mq.payload_rng.fill_bytes(&mut payload);
                self.expected = payload.clone();
                let offload = parts.mq.driver.pairs[tenant as usize].csum_offload();

                let cpu = parts.mq.host.cpu_for_pair(tenant);
                let (frame, d) = parts
                    .mq
                    .stack
                    .sendto(
                        parts.mq.fpga_ip,
                        FLOW_PORT_BASE + tenant,
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
                    u64::from(tenant),
                );
                t += d;
                let res = parts
                    .mq
                    .driver
                    .xmit(&mut parts.mq.mem, tenant, &frame, &mut cpu.cost);
                vf_trace::span_at(
                    vf_trace::Layer::Driver,
                    "virtio_xmit",
                    t,
                    t + res.cpu,
                    frame.len() as u64,
                    u64::from(tenant),
                );
                t += res.cpu;
                if res.notify {
                    let tx_q = net::tx_queue_of_pair(tenant);
                    let ev = parts.mq.device.mmio_write(
                        bar0::NOTIFY + u64::from(tx_q) * u64::from(bar0::NOTIFY_MULTIPLIER),
                        2,
                        u64::from(tx_q),
                    );
                    debug_assert_eq!(ev, Some(MmioEvent::Notify(tx_q)));
                    if parts.vhost {
                        // The guest's notify is a vmexit into the kick
                        // eventfd; the worker relays the real doorbell.
                        let d = cpu.cost.step(cpu.cost.costs.vmexit_kick);
                        vf_trace::span_at(
                            vf_trace::Layer::Driver,
                            "vmexit_kick",
                            t,
                            t + d,
                            u64::from(tx_q),
                            0,
                        );
                        t += d;
                        let rung = parts.workers[tenant as usize].tx(t, frame.len());
                        let arrival = parts.mq.link.mmio_write(rung, 2);
                        sched.at(arrival, TenantEv::Doorbell(tenant));
                    } else {
                        let arrival = parts.mq.link.mmio_write(t, 2);
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
                        sched.at(arrival, TenantEv::Doorbell(tenant));
                    }
                }
                vf_trace::set_now(t);
                t += cpu.cost.send_return_then_block();
                cpu.free = t;
            }
            TenantEv::Doorbell(tenant) => match self.parts.arbiter.request(tenant, now) {
                Decision::Grant => self.service_walk(tenant, now, sched),
                Decision::Queued => self.arm_engine_free(now, sched),
            },
            TenantEv::EngineFree => {
                self.free_scheduled = false;
                if now < self.parts.arbiter.busy_until() {
                    // An absorbed walk stretched the window; re-arm.
                    self.arm_engine_free(now, sched);
                    return;
                }
                if let Some(next) = self.parts.arbiter.next_grant() {
                    self.service_walk(next, now, sched);
                }
                if self.parts.arbiter.has_pending() {
                    self.arm_engine_free(now, sched);
                }
            }
            TenantEv::WorkerRx(tenant, bytes) => {
                let seen = self.parts.workers[tenant as usize].rx(now, bytes);
                sched.at(seen, TenantEv::RxIrq(tenant));
            }
            TenantEv::RxIrq(tenant) => {
                let parts = &mut self.parts;
                let cpu = parts.mq.host.cpu_for_pair(tenant);
                let t_irq = now.max(cpu.free);
                vf_trace::set_now(t_irq);
                let mut t = t_irq + cpu.cost.irq_to_napi();
                let (frames, d) =
                    parts
                        .mq
                        .driver
                        .napi_poll(&mut parts.mq.mem, tenant, &mut cpu.cost);
                vf_trace::span_at(
                    vf_trace::Layer::Driver,
                    "napi_poll",
                    t,
                    t + d,
                    0,
                    u64::from(tenant),
                );
                t += d;
                let mut delivered_payload: Option<Vec<u8>> = None;
                for rx in frames {
                    let validated = rx.hdr.flags & vf_virtio::net::HDR_F_DATA_VALID != 0;
                    match parts.mq.stack.netif_receive(
                        &rx.frame,
                        FLOW_PORT_BASE + tenant,
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
                                u64::from(tenant),
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
                let d = parts.mq.stack.recvfrom_return(len, &mut cpu.cost);
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
                let hw = parts.mq.device.counters.last_hw();
                let proc = parts.mq.device.counters.processing.last;
                self.rec.record(t, hw, proc);
                if self.rec.packets_left > 0 {
                    let next = t + cpu.cost.step(cpu.cost.costs.app_loop_overhead);
                    sched.at(next, TenantEv::AppSend);
                }
            }
        }
    }
}

impl DriverModel for TenantWorld {
    type Telemetry = ();

    fn build(cfg: &TestbedConfig) -> Self {
        TenantWorld::new(cfg)
    }

    fn initial_event() -> TenantEv {
        TenantEv::AppSend
    }

    fn describe(msg: &TenantEv) -> Option<(vf_trace::Layer, &'static str)> {
        match msg {
            TenantEv::AppSend => Some((vf_trace::Layer::App, "app_send")),
            TenantEv::Doorbell(_) => Some((vf_trace::Layer::Device, "doorbell")),
            TenantEv::EngineFree => Some((vf_trace::Layer::Device, "engine_free")),
            TenantEv::WorkerRx(..) => Some((vf_trace::Layer::Driver, "vhost_relay")),
            TenantEv::RxIrq(_) => Some((vf_trace::Layer::Irq, "msix_rx")),
        }
    }

    fn finish(self) -> (RoundTripRecorder, RunStats, ()) {
        let stats = self.parts.mq.run_stats();
        (self.rec, stats, ())
    }
}

// ---------------------------------------------------------------------
// Pipelined world (the E21 measurement)
// ---------------------------------------------------------------------

/// Result of one [`run_tenants`] sweep point.
pub struct TenantThroughputResult {
    /// Simulated tenants (queue pair slices).
    pub tenants: u16,
    /// Arbiter policy the run used.
    pub policy: ArbiterPolicy,
    /// Default per-tenant window depth.
    pub depth: usize,
    /// Whether the vhost backend relayed doorbells and completions.
    pub vhost: bool,
    /// Total packets across all tenants.
    pub packets: usize,
    /// Aggregate throughput (packets/s).
    pub pps: f64,
    /// Per-tenant throughput: each tenant's packets over *its own*
    /// active window (start → its last completion), so a starved tenant
    /// shows a lower rate even though every quota eventually drains.
    /// Paused or quota-less tenants report 0.
    pub per_tenant_pps: Vec<f64>,
    /// Per-tenant round-trip latency samples.
    pub per_tenant_latency: Vec<SampleSet>,
    /// Jain fairness index over the active tenants' rates.
    pub jain_index: f64,
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
    /// Walks the arbiter granted (immediately or after queueing).
    pub arb_grants: u64,
    /// Doorbells that queued behind another tenant's walk.
    pub arb_queued: u64,
}

impl TenantThroughputResult {
    /// p99 latency of tenant `t` in µs (0 if it has no samples).
    pub fn p99_us(&mut self, t: usize) -> f64 {
        if self.per_tenant_latency[t].raw().is_empty() {
            0.0
        } else {
            self.per_tenant_latency[t].percentile(99.0)
        }
    }

    /// Worst per-tenant p99 across tenants with samples (µs).
    pub fn worst_p99_us(&mut self) -> f64 {
        (0..self.per_tenant_latency.len())
            .map(|t| self.p99_us(t))
            .fold(0.0, f64::max)
    }
}

/// Pipelined events, tagged with the tenant they belong to.
enum TenantPipeEv {
    Pump(u16),
    Doorbell(u16),
    EngineFree,
    WorkerRx(u16, usize),
    RxIrq(u16),
}

/// Per-tenant pipelining state: the E19 windowed workload plus the
/// tenant's resolved window depth and pause flag.
struct TenantState {
    payload_rng: SimRng,
    to_send: usize,
    in_flight: usize,
    seq: u32,
    send_time: HashMap<u32, Time>,
    expected: HashMap<u32, Vec<u8>>,
    latency: SampleSet,
    depth: usize,
    paused: bool,
    last_completion: Time,
    completed: usize,
}

struct TenantPipelinedWorld {
    parts: TenantParts,
    queues: Vec<TenantState>,
    payload: usize,
    received: usize,
    verify_failures: u64,
    free_scheduled: bool,
}

impl TenantPipelinedWorld {
    fn new(cfg: &TestbedConfig, depth: usize) -> Self {
        let parts = TenantParts::new(cfg);
        let rng = SimRng::new(cfg.seed);
        let tenants = parts.mq.pairs as usize;
        let active: Vec<usize> = (0..tenants)
            .filter(|&i| !parts.tenant_cfgs[i].paused)
            .collect();
        assert!(!active.is_empty(), "at least one tenant must be active");
        let per_queue = cfg.packets / active.len();
        let remainder = cfg.packets % active.len();
        let queues = (0..tenants)
            .map(|i| {
                let rank = active.iter().position(|&a| a == i);
                let to_send = rank.map_or(0, |r| per_queue + usize::from(r < remainder));
                TenantState {
                    // Same per-queue stream derivation as the MQ world:
                    // tenant i's payloads are E19 pair i's payloads.
                    payload_rng: rng.derive(100 + i as u64),
                    to_send,
                    in_flight: 0,
                    seq: 0,
                    send_time: HashMap::new(),
                    expected: HashMap::new(),
                    latency: SampleSet::with_capacity(to_send + 1),
                    depth: parts.tenant_cfgs[i].depth_or(depth),
                    paused: parts.tenant_cfgs[i].paused,
                    last_completion: Time::ZERO,
                    completed: 0,
                }
            })
            .collect();
        TenantPipelinedWorld {
            parts,
            queues,
            // Sequence number needs 4 bytes of payload.
            payload: cfg.payload.max(4),
            received: 0,
            verify_failures: 0,
            free_scheduled: false,
        }
    }

    /// Top up tenant `t`'s window. Returns (guest-cpu-done instant,
    /// coalesced doorbell arrival at the device).
    fn refill(&mut self, tenant: u16, now: Time) -> (Time, Option<Time>) {
        let parts = &mut self.parts;
        let q = &mut self.queues[tenant as usize];
        let cpu = parts.mq.host.cpu_for_pair(tenant);
        let mut t = now;
        let mut doorbell_at: Option<Time> = None;
        while q.in_flight < q.depth && q.to_send > 0 {
            let mut payload = vec![0u8; self.payload];
            q.payload_rng.fill_bytes(&mut payload);
            payload[..4].copy_from_slice(&q.seq.to_le_bytes());
            q.send_time.insert(q.seq, t);
            q.expected.insert(q.seq, payload.clone());
            let (frame, cpu_t) = parts
                .mq
                .stack
                .sendto(
                    parts.mq.fpga_ip,
                    FLOW_PORT_BASE + tenant,
                    7,
                    &payload,
                    false,
                    &mut cpu.cost,
                )
                .expect("send path configured");
            t += cpu_t;
            let res = parts
                .mq
                .driver
                .xmit(&mut parts.mq.mem, tenant, &frame, &mut cpu.cost);
            t += res.cpu;
            if res.notify {
                let tx_q = net::tx_queue_of_pair(tenant);
                let ev = parts.mq.device.mmio_write(
                    bar0::NOTIFY + u64::from(tx_q) * u64::from(bar0::NOTIFY_MULTIPLIER),
                    2,
                    u64::from(tx_q),
                );
                debug_assert_eq!(ev, Some(MmioEvent::Notify(tx_q)));
                let arrival = if parts.vhost {
                    // vmexit on the guest, relay on the worker core.
                    t += cpu.cost.step(cpu.cost.costs.vmexit_kick);
                    let rung = parts.workers[tenant as usize].tx(t, frame.len());
                    parts.mq.link.mmio_write(rung, 2)
                } else {
                    let arrival = parts.mq.link.mmio_write(t, 2);
                    t += cpu.cost.step(cpu.cost.costs.mmio_write_cpu);
                    arrival
                };
                doorbell_at = Some(doorbell_at.map_or(arrival, |d: Time| d.max(arrival)));
            }
            q.in_flight += 1;
            q.to_send -= 1;
            q.seq += 1;
        }
        (t, doorbell_at)
    }

    fn arm_engine_free(&mut self, now: Time, sched: &mut vf_sim::Scheduler<TenantPipeEv>) {
        if !self.free_scheduled {
            sched.at(
                self.parts.arbiter.busy_until().max(now),
                TenantPipeEv::EngineFree,
            );
            self.free_scheduled = true;
        }
    }

    fn service_walk(
        &mut self,
        tenant: u16,
        now: Time,
        sched: &mut vf_sim::Scheduler<TenantPipeEv>,
    ) {
        let parts = &mut self.parts;
        let out = parts.mq.device.process_tx_notify(
            now,
            net::tx_queue_of_pair(tenant),
            &mut parts.mq.mem,
            &mut parts.mq.link,
        );
        let mut engine_done = out.done_at;
        for resp in &out.responses {
            let rx_q = parts.mq.device.rss_steer(&resp.data);
            let rxo = parts.mq.device.deliver_response(
                resp.ready_at,
                rx_q,
                resp,
                &mut parts.mq.mem,
                &mut parts.mq.link,
            );
            engine_done = engine_done.max(rxo.done_at);
            if let Some(irq_at) = rxo.irq_at {
                let dst = rx_q / 2;
                if parts.vhost {
                    sched.at(irq_at, TenantPipeEv::WorkerRx(dst, resp.data.len()));
                } else {
                    sched.at(irq_at, TenantPipeEv::RxIrq(dst));
                }
            }
        }
        parts.arbiter.begin_service(tenant, now, engine_done);
    }
}

impl World for TenantPipelinedWorld {
    type Msg = TenantPipeEv;

    fn deliver(
        &mut self,
        now: Time,
        msg: TenantPipeEv,
        sched: &mut vf_sim::Scheduler<TenantPipeEv>,
    ) {
        self.parts.mq.link.advance_epoch(now);
        match msg {
            TenantPipeEv::Pump(tenant) => {
                let (mut t, doorbell) = self.refill(tenant, now);
                if let Some(at) = doorbell {
                    sched.at(at, TenantPipeEv::Doorbell(tenant));
                }
                let cpu = self.parts.mq.host.cpu_for_pair(tenant);
                t += cpu.cost.step(cpu.cost.costs.syscall_entry);
                t += cpu.cost.step(cpu.cost.costs.block_schedule);
                cpu.free = t;
                cpu.blocked = true;
            }
            TenantPipeEv::Doorbell(tenant) => match self.parts.arbiter.request(tenant, now) {
                Decision::Grant => self.service_walk(tenant, now, sched),
                Decision::Queued => self.arm_engine_free(now, sched),
            },
            TenantPipeEv::EngineFree => {
                self.free_scheduled = false;
                if now < self.parts.arbiter.busy_until() {
                    self.arm_engine_free(now, sched);
                    return;
                }
                if let Some(next) = self.parts.arbiter.next_grant() {
                    self.service_walk(next, now, sched);
                }
                if self.parts.arbiter.has_pending() {
                    self.arm_engine_free(now, sched);
                }
            }
            TenantPipeEv::WorkerRx(tenant, bytes) => {
                let seen = self.parts.workers[tenant as usize].rx(now, bytes);
                sched.at(seen, TenantPipeEv::RxIrq(tenant));
            }
            TenantPipeEv::RxIrq(tenant) => {
                let parts = &mut self.parts;
                let q = &mut self.queues[tenant as usize];
                let cpu = parts.mq.host.cpu_for_pair(tenant);
                let mut t = now.max(cpu.free) + cpu.cost.blocking_extra();
                t += cpu.cost.step(cpu.cost.costs.hardirq_entry);
                t += cpu.cost.step(cpu.cost.costs.softirq_latency);
                let (frames, cpu_t) =
                    parts
                        .mq
                        .driver
                        .napi_poll(&mut parts.mq.mem, tenant, &mut cpu.cost);
                t += cpu_t;
                if frames.is_empty() {
                    return;
                }
                if cpu.blocked {
                    t += cpu.cost.step(cpu.cost.costs.wakeup_to_run);
                    cpu.blocked = false;
                }
                for rx in frames {
                    match parts.mq.stack.netif_receive(
                        &rx.frame,
                        FLOW_PORT_BASE + tenant,
                        false,
                        &mut cpu.cost,
                    ) {
                        Ok((parsed, cpu_t)) => {
                            t += cpu_t;
                            t += parts
                                .mq
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
                            q.completed += 1;
                            q.last_completion = t;
                            self.received += 1;
                        }
                        Err(e) => panic!("receive path failed: {e:?}"),
                    }
                }
                cpu.free = t;
                if q.to_send > 0 || q.in_flight > 0 {
                    sched.at(t, TenantPipeEv::Pump(tenant));
                }
            }
        }
    }
}

/// Run the E21 pipelined multi-tenant workload: `mq_queue_pairs`
/// tenants (from `cfg.options`), each active tenant with a
/// `depth`-deep window (per-tenant overrides via
/// [`TenantConfig::depth`]), until the active tenants drain
/// `cfg.packets` total round trips.
pub fn run_tenants(cfg: &TestbedConfig, depth: usize) -> TenantThroughputResult {
    assert_eq!(
        cfg.driver,
        DriverKind::VirtioTenant,
        "run_tenants drives the tenant front end"
    );
    let world = TenantPipelinedWorld::new(cfg, depth);
    for q in &world.queues {
        assert!(
            q.depth <= cfg.options.queue_size as usize / 2,
            "window must fit the TX ring ({} two-descriptor chains)",
            cfg.options.queue_size / 2
        );
    }
    let tenants = world.parts.mq.pairs;
    let mut sim = Simulation::new(world);
    let start = Time::from_us(10);
    for t in 0..tenants {
        if !sim.world.queues[t as usize].paused {
            sim.schedule_at(start, TenantPipeEv::Pump(t));
        }
    }
    let outcome = sim.run(Time::from_secs(3600), 500_000_000);
    assert_eq!(outcome, vf_sim::RunOutcome::Idle, "tenant pipeline wedged");
    let elapsed = sim.now() - start;
    let w = sim.world;
    assert_eq!(w.received, cfg.packets, "packets lost");
    let stats = w.parts.mq.run_stats();
    let link = &w.parts.mq.link;
    let wire = |bytes: u64| {
        Time::from_ps(bytes * link.cfg.ps_per_byte()).as_us_f64() / elapsed.as_us_f64()
    };
    let per_tenant_pps: Vec<f64> = w
        .queues
        .iter()
        .map(|q| {
            if q.completed == 0 {
                0.0
            } else {
                let window = q.last_completion - start;
                q.completed as f64 / (window.as_us_f64() / 1e6)
            }
        })
        .collect();
    let active_rates: Vec<f64> = w
        .queues
        .iter()
        .zip(&per_tenant_pps)
        .filter(|(q, _)| !q.paused && q.completed > 0)
        .map(|(_, &pps)| pps)
        .collect();
    TenantThroughputResult {
        tenants,
        policy: cfg.options.tenant_policy,
        depth,
        vhost: cfg.options.tenant_vhost,
        packets: cfg.packets,
        pps: cfg.packets as f64 / (elapsed.as_us_f64() / 1e6),
        jain_index: jain_fairness(&active_rates),
        per_tenant_pps,
        per_tenant_latency: w.queues.into_iter().map(|q| q.latency).collect(),
        doorbells: stats.notifications,
        irqs: stats.irqs,
        verify_failures: w.verify_failures,
        link_util_up: wire(link.up_wire_bytes),
        link_util_down: wire(link.down_wire_bytes),
        arb_grants: w.parts.arbiter.grants(),
        arb_queued: w.parts.arbiter.queued(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mq::run_mq;
    use crate::testbed::Testbed;

    fn cfg(tenants: u16, packets: usize) -> TestbedConfig {
        let mut c = TestbedConfig::paper(DriverKind::VirtioTenant, 256, packets, 77);
        c.options.mq_queue_pairs = tenants;
        c
    }

    fn vhost_cfg(tenants: u16, packets: usize) -> TestbedConfig {
        let mut c = cfg(tenants, packets);
        c.options.tenant_vhost = true;
        c
    }

    /// Satellite 6: one tenant with the backend off IS the E19
    /// single-pair MQ run, bit for bit.
    #[test]
    fn single_tenant_reproduces_mq_single_pair() {
        let mq = run_mq(
            &{
                let mut c = TestbedConfig::paper(DriverKind::VirtioMq, 256, 600, 77);
                c.options.mq_queue_pairs = 1;
                c
            },
            16,
        );
        let tnt = run_tenants(&cfg(1, 600), 16);
        assert_eq!(tnt.verify_failures, 0);
        assert_eq!(tnt.pps.to_bits(), mq.pps.to_bits());
        assert_eq!(
            tnt.per_tenant_latency[0].raw(),
            mq.per_queue_latency[0].raw()
        );
        assert_eq!(tnt.doorbells, mq.doorbells);
        assert_eq!(tnt.irqs, mq.irqs);
        // The arbiter never queued anything: every doorbell was an
        // idle-grant or an owner-absorb.
        assert_eq!(tnt.arb_queued, 0);
    }

    /// Bit-identical golden for the 4-tenant run (determinism
    /// satellite): identical seeds give identical rates and samples.
    #[test]
    fn four_tenant_run_is_deterministic() {
        let a = run_tenants(&vhost_cfg(4, 800), 8);
        let b = run_tenants(&vhost_cfg(4, 800), 8);
        assert_eq!(a.verify_failures, 0);
        assert_eq!(a.pps.to_bits(), b.pps.to_bits());
        assert_eq!(a.jain_index.to_bits(), b.jain_index.to_bits());
        for (x, y) in a.per_tenant_latency.iter().zip(&b.per_tenant_latency) {
            assert_eq!(x.raw(), y.raw());
        }
        assert_eq!(a.arb_grants, b.arb_grants);
        assert_eq!(a.arb_queued, b.arb_queued);
    }

    #[test]
    fn serial_tenant_world_round_robins_all_tenants() {
        let r = Testbed::new(cfg(4, 400)).run();
        assert_eq!(r.verify_failures, 0);
        assert_eq!(r.notifications, 400);
        assert_eq!(r.irqs, 400);
    }

    /// The serial tenant world with one tenant and no backend matches
    /// the serial MQ world's numbers exactly (same draws, same events).
    #[test]
    fn serial_single_tenant_matches_serial_mq() {
        let mut mq_cfg = TestbedConfig::paper(DriverKind::VirtioMq, 256, 300, 77);
        mq_cfg.options.mq_queue_pairs = 1;
        let mut a = Testbed::new(mq_cfg).run();
        let mut b = Testbed::new(cfg(1, 300)).run();
        assert_eq!(
            a.total_summary().mean_us.to_bits(),
            b.total_summary().mean_us.to_bits()
        );
        assert_eq!(a.notifications, b.notifications);
        assert_eq!(a.irqs, b.irqs);
    }

    /// The vhost backend adds relay latency but keeps the run lossless
    /// and the echo verified.
    #[test]
    fn vhost_backend_relays_all_traffic() {
        let direct = run_tenants(&cfg(2, 400), 8);
        let mut relayed = run_tenants(&vhost_cfg(2, 400), 8);
        assert_eq!(relayed.verify_failures, 0);
        assert_eq!(relayed.packets, 400);
        assert!(
            relayed.worst_p99_us() > 0.0 && relayed.pps < direct.pps,
            "worker relay must cost throughput: {} vs {}",
            relayed.pps,
            direct.pps
        );
    }

    #[test]
    fn uniform_tenants_are_fair_under_every_policy() {
        for policy in ArbiterPolicy::all() {
            let mut c = vhost_cfg(4, 800);
            c.options.tenant_policy = policy;
            let mut r = run_tenants(&c, 8);
            assert_eq!(r.verify_failures, 0);
            // Strict priority breaks uniform-class ties by tenant
            // index — deterministic favoritism, so it scores below the
            // genuinely fair policies even with identical tenants.
            let floor = if policy == ArbiterPolicy::StrictPriority {
                0.85
            } else {
                0.98
            };
            assert!(
                r.jain_index > floor,
                "{}: uniform tenants scored {}",
                policy.name(),
                r.jain_index
            );
            assert!(r.worst_p99_us() > 0.0);
        }
    }

    /// A paused tenant never receives completions, and its queue-pair
    /// slice stays silent.
    #[test]
    fn paused_tenant_stays_silent() {
        let mut c = vhost_cfg(4, 600);
        c.options.tenant_configs = vec![
            TenantConfig::default(),
            TenantConfig::idle(),
            TenantConfig::default(),
            TenantConfig::default(),
        ];
        let r = run_tenants(&c, 8);
        assert_eq!(r.verify_failures, 0);
        assert!(r.per_tenant_latency[1].raw().is_empty());
        assert_eq!(r.per_tenant_pps[1], 0.0);
        // The three active tenants drained the full quota.
        assert_eq!(r.packets, 600);
    }

    /// Strict priority starves a low class while a high-priority noisy
    /// neighbor floods; weighted share restores the victim's service.
    #[test]
    fn weighted_share_bounds_the_noisy_neighbor() {
        let mut noisy = vec![TenantConfig::default(); 4];
        noisy[0] = TenantConfig::noisy();
        let mk = |policy| {
            let mut c = vhost_cfg(4, 1_200);
            c.options.tenant_policy = policy;
            c.options.tenant_configs = noisy.clone();
            c
        };
        let mut strict = run_tenants(&mk(ArbiterPolicy::StrictPriority), 8);
        let mut wfq = run_tenants(&mk(ArbiterPolicy::WeightedShare), 8);
        let strict_victim = (1..4).map(|t| strict.p99_us(t)).fold(0.0, f64::max);
        let wfq_victim = (1..4).map(|t| wfq.p99_us(t)).fold(0.0, f64::max);
        assert!(
            wfq.jain_index >= strict.jain_index,
            "weighted share must not be less fair than strict priority \
             ({} vs {})",
            wfq.jain_index,
            strict.jain_index
        );
        assert!(
            wfq_victim <= strict_victim,
            "weighted share victim p99 {wfq_victim} µs must not exceed \
             strict priority's {strict_victim} µs"
        );
    }

    #[test]
    fn packed_tenant_front_ends_round_trip() {
        let mut c = vhost_cfg(2, 400);
        c.options.tenant_packed = true;
        let r = run_tenants(&c, 8);
        assert_eq!(r.verify_failures, 0);
        assert_eq!(r.packets, 400);
    }
}
