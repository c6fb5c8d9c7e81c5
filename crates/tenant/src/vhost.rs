//! The per-tenant vhost worker thread.
//!
//! In a vhost/vDPA deployment each guest's virtio queues are serviced
//! by a dedicated host kernel thread: the guest's doorbell vmexits into
//! an eventfd kick, the worker wakes, copies the frame across the
//! guest/host boundary, and relays the doorbell to the real device; on
//! completion the worker copies back and injects the guest's interrupt.
//! This module models that thread as its own simulated core — a
//! [`CostEngine`] with an independently derived noise stream plus a
//! `free` scalar — so a busy worker genuinely queues its tenant's kicks
//! behind each other, instead of folding the cost into the guest's
//! timeline the way the old `vhost_overlay` testbed bool did.

use vf_sim::{NoiseModel, SimRng, Time};

use vf_hostsw::{CostEngine, HostCosts};

/// RNG-derivation tag base for per-tenant worker cost streams. Guest
/// vCPUs draw from `multicore`'s base 10 (up to 10+63 for 64 tenants)
/// and per-queue payload streams from base 100, so workers start at
/// 1000 to stay disjoint at every supported scale.
pub const WORKER_RNG_TAG_BASE: u64 = 1000;

/// One tenant's vhost worker thread.
#[derive(Clone, Debug)]
pub struct VhostWorker {
    /// CPU-time model for the worker's own core.
    pub cost: CostEngine,
    /// Instant the worker finishes its current relay.
    pub free: Time,
}

impl VhostWorker {
    /// Build the worker for tenant `index`, deriving its noise stream
    /// from `rng` at [`WORKER_RNG_TAG_BASE`]` + index`.
    pub fn new(index: u16, costs: &HostCosts, noise: &NoiseModel, rng: &SimRng) -> Self {
        VhostWorker {
            cost: CostEngine::new(
                costs.clone(),
                noise.clone(),
                rng.derive(WORKER_RNG_TAG_BASE + index as u64),
            ),
            free: Time::ZERO,
        }
    }

    /// A TX kick lands at `kick_at` for a `bytes`-sized frame: the
    /// worker starts when free, runs its wakeup + guest→host copy, and
    /// returns the instant it can ring the device doorbell.
    pub fn tx(&mut self, kick_at: Time, bytes: usize) -> Time {
        let start = kick_at.max(self.free);
        self.free = self.cost.vhost_worker_tx(start, bytes);
        self.free
    }

    /// A device completion interrupt lands at `irq_at` for a
    /// `bytes`-sized frame: the worker runs its host→guest copy +
    /// interrupt injection and returns the instant the guest's vCPU
    /// sees the injected interrupt.
    pub fn rx(&mut self, irq_at: Time, bytes: usize) -> Time {
        let start = irq_at.max(self.free);
        self.free = self.cost.vhost_worker_rx(start, bytes);
        self.free
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn worker(index: u16) -> VhostWorker {
        VhostWorker::new(
            index,
            &HostCosts::fedora37(),
            &NoiseModel::noiseless(),
            &SimRng::new(7),
        )
    }

    #[test]
    fn busy_worker_queues_kicks() {
        let mut w = worker(0);
        let d1 = w.tx(Time::from_us(10), 256);
        assert!(d1 > Time::from_us(10));
        // A kick arriving mid-relay starts only when the worker frees.
        let d2 = w.tx(Time::from_us(10), 256);
        assert!(d2 > d1);
        // An idle worker starts at the kick.
        let d3 = w.tx(d2 + Time::from_ms(1), 256);
        assert!(d3 > d2 + Time::from_ms(1));
    }

    #[test]
    fn workers_draw_independent_streams() {
        // Same derivation seed → identical; different index → the
        // relay costs come from a different stream but the same model.
        let mut a = worker(0);
        let mut b = worker(0);
        assert_eq!(a.tx(Time::ZERO, 256), b.tx(Time::ZERO, 256));
        let mut c = worker(1);
        let _ = c.rx(Time::ZERO, 256);
        // Tenant 0's stream is untouched by tenant 1's draws.
        assert_eq!(a.rx(a.free, 256), b.rx(b.free, 256));
    }
}
