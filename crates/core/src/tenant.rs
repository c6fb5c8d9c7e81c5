//! E21 — multi-tenant vhost multiplexing over one FPGA device.
//!
//! E19/E20 scale one host across queue pairs; E21 slices the same
//! device across **M simulated guest VMs**. Each tenant owns a private
//! virtio-net front end — one RX/TX queue pair with its own MSI-X
//! vector and DMA tag context (the SR-IOV-style slice of the multi-tag
//! link) — while the device's single embedded descriptor-walker engine
//! is shared. `Tenancy` layers two seams on the queue pairs that turn
//! that sharing into the experiment:
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
//! The tenants run on the [`crate::mq`] worlds: the serial one behind
//! [`crate::Testbed::run`] and the pipelined one behind [`run_tenants`].
//! The MQ bring-up builds a `Tenancy` for `DriverKind::VirtioTenant`
//! only; the MQ kinds are the same worlds without it.
//!
//! Parity anchor: a 1-tenant run with the backend off is **bit
//! identical** to the single-pair MQ run — the arbiter's idle-grant and
//! owner-absorb rules make it invisible, and the worker RNG streams are
//! derived but never drawn. The regression tests at the bottom pin
//! this.

use std::sync::OnceLock;

use vf_sim::{SampleSet, Scheduler, SimRng, Time};
use vf_tenant::{ArbiterPolicy, Decision, QosArbiter, TenantClass, TenantConfig, VhostWorker};

use crate::driver_model::WINDOW_START;
use crate::mq::{rtt_names, DeviceEv, MqEv, MqPipelinedWorld, RttNames};
use crate::report::jain_fairness;
use crate::testbed::{DriverKind, TestbedConfig};

/// What E21 layers on the queue pairs (tenant *i* owns pair *i*): one
/// vhost worker per tenant, the arbiter in front of the shared walker
/// engine, and the resolved per-tenant configs. The MQ bring-up holds
/// it for `DriverKind::VirtioTenant` only.
pub(crate) struct Tenancy {
    /// Tenant *i*'s vhost worker.
    pub(crate) workers: Vec<VhostWorker>,
    pub(crate) arbiter: QosArbiter,
    /// Tenant *i*'s resolved config.
    pub(crate) configs: Vec<TenantConfig>,
    /// Relay doorbells and completions through the workers.
    pub(crate) vhost: bool,
    /// An `EngineFree` wakeup is armed (never more than one).
    free_scheduled: bool,
}

impl Tenancy {
    /// Per-tenant round-trip trace names, indexed by tenant:
    /// `rtt_tenant_t<i>`.
    pub(crate) fn rtt_names() -> &'static RttNames {
        static NAMES: OnceLock<RttNames> = OnceLock::new();
        rtt_names(&NAMES, "rtt_tenant_t")
    }

    pub(crate) fn new(cfg: &TestbedConfig, tenants: u16) -> Self {
        let configs: Vec<TenantConfig> = if cfg.options.tenant_configs.is_empty() {
            vec![TenantConfig::default(); tenants as usize]
        } else {
            assert_eq!(
                cfg.options.tenant_configs.len(),
                tenants as usize,
                "tenant_configs must cover every tenant (mq_queue_pairs)"
            );
            cfg.options.tenant_configs.clone()
        };
        // Workers derive their streams from the same root the host and
        // payload streams come from, at a disjoint tag base. They are
        // built even with the backend off: `derive` is pure, so unused
        // workers perturb nothing — which is what keeps the 1-tenant
        // vhost-off run bit-identical to the single-pair MQ run.
        let rng = SimRng::new(cfg.seed);
        let workers = (0..tenants)
            .map(|i| VhostWorker::new(i, &cfg.calibration.costs, &cfg.calibration.noise, &rng))
            .collect();
        let classes: Vec<TenantClass> = configs.iter().map(TenantClass::from).collect();
        Tenancy {
            workers,
            arbiter: QosArbiter::new(cfg.options.tenant_policy, classes),
            configs,
            vhost: cfg.options.tenant_vhost,
            free_scheduled: false,
        }
    }

    /// Tenant `tenant`'s doorbell asks for the walker engine: `true` if
    /// it may walk now, `false` if it queued behind another tenant (an
    /// engine-free wakeup is then armed).
    pub(crate) fn admit<H>(
        &mut self,
        tenant: u16,
        now: Time,
        sched: &mut Scheduler<MqEv<H>>,
    ) -> bool {
        match self.arbiter.request(tenant, now) {
            Decision::Grant => true,
            Decision::Queued => {
                self.arm_engine_free(now, sched);
                false
            }
        }
    }

    /// The engine-free wakeup fired: the tenant to grant now, if the
    /// engine is really idle (an absorbed walk may have stretched the
    /// window; the wakeup is then re-armed).
    pub(crate) fn engine_free<H>(
        &mut self,
        now: Time,
        sched: &mut Scheduler<MqEv<H>>,
    ) -> Option<u16> {
        self.free_scheduled = false;
        if now < self.arbiter.busy_until() {
            self.arm_engine_free(now, sched);
            return None;
        }
        self.arbiter.next_grant()
    }

    /// Keep an engine-free wakeup armed while doorbells wait.
    pub(crate) fn rearm_if_pending<H>(&mut self, now: Time, sched: &mut Scheduler<MqEv<H>>) {
        if self.arbiter.has_pending() {
            self.arm_engine_free(now, sched);
        }
    }

    /// Arm (at most one) engine-free wakeup at the arbiter's horizon.
    fn arm_engine_free<H>(&mut self, now: Time, sched: &mut Scheduler<MqEv<H>>) {
        if !self.free_scheduled {
            sched.at(
                self.arbiter.busy_until().max(now),
                DeviceEv::EngineFree.into(),
            );
            self.free_scheduled = true;
        }
    }
}

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
    let (w, elapsed) = MqPipelinedWorld::run(cfg, depth);
    let stats = w.parts.run_stats();
    let (link_util_up, link_util_down) = crate::testbed::link_util(&w.parts.link, elapsed);
    let per_tenant_pps: Vec<f64> = w
        .queues
        .iter()
        .map(|q| {
            if q.completed == 0 {
                0.0
            } else {
                let window = q.last_completion - WINDOW_START;
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
    let tenancy = w.parts.tenancy.as_ref().expect("tenant kind");
    let (arb_grants, arb_queued) = (tenancy.arbiter.grants(), tenancy.arbiter.queued());
    TenantThroughputResult {
        tenants: w.parts.pairs,
        policy: cfg.options.tenant_policy,
        depth,
        vhost: cfg.options.tenant_vhost,
        packets: cfg.packets,
        pps: cfg.packets as f64 / (elapsed.as_us_f64() / 1e6),
        jain_index: jain_fairness(&active_rates),
        per_tenant_pps,
        verify_failures: w.verify_failures,
        doorbells: stats.notifications,
        irqs: stats.irqs,
        link_util_up,
        link_util_down,
        arb_grants,
        arb_queued,
        per_tenant_latency: w.into_latencies(),
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
    /// the serial MQ run's numbers exactly (same draws, same events).
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

    /// Under `Testbed::run` too, a paused tenant sends nothing: the
    /// serial rotation skips it, the active tenants still complete every
    /// packet, and no round trip carries the paused tenant's root.
    #[test]
    fn serial_world_skips_paused_tenant() {
        let mut c = cfg(4, 300);
        c.options.tenant_configs = vec![
            TenantConfig::default(),
            TenantConfig::idle(),
            TenantConfig::default(),
            TenantConfig::default(),
        ];
        let run = crate::traced::traced_run(&c);
        assert_eq!(run.result.verify_failures, 0);
        assert_eq!(run.result.total.raw().len(), 300);
        let roots: Vec<&str> = run.breakdowns().iter().map(|b| b.name).collect();
        assert_eq!(roots.len(), 300);
        for (root, sends) in [
            ("rtt_tenant_t0", 100),
            ("rtt_tenant_t1", 0),
            ("rtt_tenant_t2", 100),
            ("rtt_tenant_t3", 100),
        ] {
            let n = roots.iter().filter(|&&r| r == root).count();
            assert_eq!(n, sends, "{root} round trips");
        }
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
