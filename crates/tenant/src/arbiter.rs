//! Device-side QoS arbitration of the shared descriptor-walker engine.
//!
//! The paper's FPGA controller services doorbells with a single
//! embedded engine, so when M independent tenants share the device,
//! their TX doorbells contend for it. The arbiter decides, at doorbell
//! granularity (service is non-preemptive: a granted walk runs to its
//! `done_at`), which tenant's walk runs next:
//!
//! * **round-robin** — a rotating cursor over pending tenants;
//! * **weighted-share** — WFQ-style: each grant charges the tenant
//!   `service / weight` of virtual time, the pending tenant with the
//!   least accumulated virtual time wins;
//! * **strict-priority** — the highest priority class wins, ties by
//!   tenant index; low classes can starve, which is the point.
//!
//! Two rules keep a single tenant's timing identical to the
//! un-arbitrated MQ world (the E19 parity requirement): an idle engine
//! grants immediately, and a doorbell from the tenant *currently being
//! served* is absorbed into its running walk (the walker re-checks the
//! avail ring; the tenant's own link tag serializes the wire anyway).

use vf_metrics::{names, Counter, Gauge};
use vf_sim::Time;

use crate::tenant::TenantConfig;

/// Scale factor for integer virtual-time accounting: virtual time
/// advances by `service_ps × SCALE / weight`, so weights up to `SCALE`
/// keep sub-ps precision without floats.
const VT_SCALE: u128 = 1024;

/// Which fairness policy the arbiter enforces.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ArbiterPolicy {
    /// Rotating cursor over pending tenants.
    RoundRobin,
    /// WFQ-style least-virtual-time-first, service charged ÷ weight.
    WeightedShare,
    /// Highest priority class first; ties by tenant index.
    StrictPriority,
}

impl ArbiterPolicy {
    /// Short human name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            ArbiterPolicy::RoundRobin => "round-robin",
            ArbiterPolicy::WeightedShare => "weighted-share",
            ArbiterPolicy::StrictPriority => "strict-priority",
        }
    }

    /// Every policy, in report order.
    pub fn all() -> [ArbiterPolicy; 3] {
        [
            ArbiterPolicy::RoundRobin,
            ArbiterPolicy::WeightedShare,
            ArbiterPolicy::StrictPriority,
        ]
    }
}

/// The scheduling class of one tenant, as the arbiter sees it.
#[derive(Clone, Copy, Debug)]
pub struct TenantClass {
    /// Weighted-share weight (≥ 1).
    pub weight: u32,
    /// Strict-priority class — higher wins.
    pub priority: u8,
}

impl From<&TenantConfig> for TenantClass {
    fn from(cfg: &TenantConfig) -> Self {
        TenantClass {
            weight: cfg.weight.max(1),
            priority: cfg.priority,
        }
    }
}

/// What the arbiter decided about a doorbell.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Decision {
    /// Service the walk now (engine idle, or the requester already owns
    /// the running walk and the doorbell is absorbed into it).
    Grant,
    /// Engine busy with another tenant; the requester is queued and
    /// will be granted on engine-free per the policy.
    Queued,
}

/// The arbiter itself: engine occupancy plus per-tenant pending flags
/// and virtual-time accounts. All state is integral, so identical
/// request sequences produce identical grant sequences.
#[derive(Clone, Debug)]
pub struct QosArbiter {
    policy: ArbiterPolicy,
    classes: Vec<TenantClass>,
    pending: Vec<bool>,
    pending_count: usize,
    owner: Option<u16>,
    busy_until: Time,
    rr_cursor: usize,
    virtual_time: Vec<u128>,
    grants: u64,
    queued: u64,
    /// Per-tenant arbiter instruments, built on the first update made
    /// while a metrics session is installed, so plain runs build none.
    metrics: Vec<TenantMetrics>,
}

/// One tenant's fairness-watchdog instruments.
#[derive(Clone, Debug)]
struct TenantMetrics {
    pending: Gauge,
    grants: Counter,
}

impl TenantMetrics {
    fn new(tenant: u32) -> TenantMetrics {
        TenantMetrics {
            pending: Gauge::new(names::ARBITER_PENDING, tenant),
            grants: Counter::new(names::ARBITER_GRANTS, tenant),
        }
    }
}

impl QosArbiter {
    /// An arbiter over `classes.len()` tenants.
    pub fn new(policy: ArbiterPolicy, classes: Vec<TenantClass>) -> Self {
        let n = classes.len();
        assert!(n >= 1, "an arbiter needs at least one tenant");
        // The fairness watchdog arms only when this gauge reads WFQ.
        Gauge::new(names::ARBITER_POLICY, 0).set(match policy {
            ArbiterPolicy::RoundRobin => names::POLICY_RR,
            ArbiterPolicy::WeightedShare => names::POLICY_WFQ,
            ArbiterPolicy::StrictPriority => names::POLICY_STRICT,
        });
        QosArbiter {
            policy,
            classes,
            pending: vec![false; n],
            pending_count: 0,
            owner: None,
            busy_until: Time::ZERO,
            rr_cursor: 0,
            virtual_time: vec![0; n],
            grants: 0,
            queued: 0,
            metrics: Vec::new(),
        }
    }

    /// A doorbell from `tenant` arrives at `now`.
    pub fn request(&mut self, tenant: u16, now: Time) -> Decision {
        if now >= self.busy_until || self.owner == Some(tenant) {
            self.grants += 1;
            if vf_metrics::is_enabled() {
                self.tenant_metrics(tenant as usize).grants.add(1);
            }
            Decision::Grant
        } else {
            if !self.pending[tenant as usize] {
                self.pending[tenant as usize] = true;
                self.pending_count += 1;
                if vf_metrics::is_enabled() {
                    self.tenant_metrics(tenant as usize).pending.set(1);
                }
            }
            self.queued += 1;
            Decision::Queued
        }
    }

    /// Record that `tenant`'s walk was serviced over `[now, done_at]`.
    /// Extends engine occupancy (absorbed same-owner walks only ever
    /// push `busy_until` out) and charges weighted-share virtual time.
    pub fn begin_service(&mut self, tenant: u16, now: Time, done_at: Time) {
        self.owner = Some(tenant);
        self.busy_until = self.busy_until.max(done_at);
        self.rr_cursor = tenant as usize + 1;
        let service = if done_at > now {
            done_at - now
        } else {
            Time::ZERO
        };
        let weight = self.classes[tenant as usize].weight.max(1) as u128;
        self.virtual_time[tenant as usize] += service.as_ps() as u128 * VT_SCALE / weight;
    }

    /// On engine-free: pick the next pending tenant per policy, or
    /// `None` if nothing waits. The caller services the returned tenant
    /// immediately and calls [`Self::begin_service`].
    pub fn next_grant(&mut self) -> Option<u16> {
        if self.pending_count == 0 {
            return None;
        }
        let n = self.classes.len();
        let pick = match self.policy {
            ArbiterPolicy::RoundRobin => (0..n)
                .map(|off| (self.rr_cursor + off) % n)
                .find(|&i| self.pending[i])
                .expect("pending_count > 0"),
            ArbiterPolicy::WeightedShare => (0..n)
                .filter(|&i| self.pending[i])
                .min_by_key(|&i| (self.virtual_time[i], i))
                .expect("pending_count > 0"),
            ArbiterPolicy::StrictPriority => (0..n)
                .filter(|&i| self.pending[i])
                .max_by_key(|&i| (self.classes[i].priority, usize::MAX - i))
                .expect("pending_count > 0"),
        };
        self.pending[pick] = false;
        self.pending_count -= 1;
        self.grants += 1;
        if vf_metrics::is_enabled() {
            let m = self.tenant_metrics(pick);
            vf_metrics::batch(|b| {
                b.gauge_set(&m.pending, 0);
                b.counter_add(&m.grants, 1);
            });
        }
        Some(pick as u16)
    }

    /// `tenant`'s instruments, building every tenant's on first use.
    /// Handles register on their first update, not when built, so
    /// building late moves no report byte.
    fn tenant_metrics(&mut self, tenant: usize) -> &TenantMetrics {
        if self.metrics.is_empty() {
            self.metrics = (0..self.classes.len() as u32)
                .map(TenantMetrics::new)
                .collect();
        }
        &self.metrics[tenant]
    }

    /// Instant the engine next goes idle (given what has been granted).
    pub fn busy_until(&self) -> Time {
        self.busy_until
    }

    /// True while at least one tenant waits for a grant.
    pub fn has_pending(&self) -> bool {
        self.pending_count > 0
    }

    /// Doorbells granted (immediately or after queueing).
    pub fn grants(&self) -> u64 {
        self.grants
    }

    /// Doorbells that had to wait behind another tenant's walk.
    pub fn queued(&self) -> u64 {
        self.queued
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform(n: usize) -> Vec<TenantClass> {
        vec![
            TenantClass {
                weight: 1,
                priority: 0,
            };
            n
        ]
    }

    fn us(v: u64) -> Time {
        Time::from_us(v)
    }

    #[test]
    fn idle_engine_grants_immediately() {
        let mut a = QosArbiter::new(ArbiterPolicy::RoundRobin, uniform(4));
        assert_eq!(a.request(2, us(5)), Decision::Grant);
        a.begin_service(2, us(5), us(8));
        assert_eq!(a.busy_until(), us(8));
        // After the window closes, the next request is again immediate.
        assert_eq!(a.request(0, us(8)), Decision::Grant);
    }

    #[test]
    fn same_owner_doorbell_is_absorbed() {
        let mut a = QosArbiter::new(ArbiterPolicy::RoundRobin, uniform(2));
        assert_eq!(a.request(0, us(1)), Decision::Grant);
        a.begin_service(0, us(1), us(10));
        // Tenant 0 again, mid-window: absorbed (parity rule).
        assert_eq!(a.request(0, us(4)), Decision::Grant);
        a.begin_service(0, us(4), us(12));
        assert_eq!(a.busy_until(), us(12));
        // A different tenant mid-window queues.
        assert_eq!(a.request(1, us(5)), Decision::Queued);
        assert!(a.has_pending());
    }

    #[test]
    fn round_robin_rotates_from_last_grant() {
        let mut a = QosArbiter::new(ArbiterPolicy::RoundRobin, uniform(4));
        assert_eq!(a.request(1, us(0)), Decision::Grant);
        a.begin_service(1, us(0), us(10));
        for t in [3u16, 2, 0] {
            assert_eq!(a.request(t, us(1)), Decision::Queued);
        }
        // Cursor sits after tenant 1 → grant order 2, 3, 0.
        assert_eq!(a.next_grant(), Some(2));
        assert_eq!(a.next_grant(), Some(3));
        assert_eq!(a.next_grant(), Some(0));
        assert_eq!(a.next_grant(), None);
    }

    #[test]
    fn weighted_share_prefers_least_charged_per_weight() {
        let classes = vec![
            TenantClass {
                weight: 1,
                priority: 0,
            },
            TenantClass {
                weight: 4,
                priority: 0,
            },
            TenantClass {
                weight: 1,
                priority: 0,
            },
        ];
        let mut a = QosArbiter::new(ArbiterPolicy::WeightedShare, classes);
        // Tenants 0 and 1 have each consumed 8 µs of engine time;
        // tenant 2 now owns the engine until 26 µs.
        a.begin_service(0, us(0), us(8));
        a.begin_service(1, us(8), us(16));
        a.begin_service(2, us(16), us(26));
        assert_eq!(a.request(0, us(20)), Decision::Queued);
        assert_eq!(a.request(1, us(20)), Decision::Queued);
        // Tenant 1's weight 4 makes its virtual time 4× smaller.
        assert_eq!(a.next_grant(), Some(1));
        assert_eq!(a.next_grant(), Some(0));
    }

    #[test]
    fn strict_priority_starves_low_classes() {
        let classes = vec![
            TenantClass {
                weight: 1,
                priority: 0,
            },
            TenantClass {
                weight: 1,
                priority: 7,
            },
            TenantClass {
                weight: 1,
                priority: 7,
            },
            TenantClass {
                weight: 1,
                priority: 0,
            },
        ];
        let mut a = QosArbiter::new(ArbiterPolicy::StrictPriority, classes);
        // Tenant 3 owns the engine; everyone else queues behind it.
        a.begin_service(3, us(0), us(10));
        for t in [0u16, 1, 2] {
            assert_eq!(a.request(t, us(1)), Decision::Queued);
        }
        // Both priority-7 tenants (ties by index) before priority 0.
        assert_eq!(a.next_grant(), Some(1));
        assert_eq!(a.next_grant(), Some(2));
        assert_eq!(a.next_grant(), Some(0));
    }

    #[test]
    fn duplicate_queued_doorbells_collapse() {
        let mut a = QosArbiter::new(ArbiterPolicy::RoundRobin, uniform(2));
        a.begin_service(0, us(0), us(10));
        assert_eq!(a.request(1, us(1)), Decision::Queued);
        assert_eq!(a.request(1, us(2)), Decision::Queued);
        assert_eq!(a.next_grant(), Some(1));
        assert_eq!(a.next_grant(), None);
        assert_eq!(a.queued(), 2);
    }
}
