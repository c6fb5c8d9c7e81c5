//! A multi-core host model for multi-queue drivers.
//!
//! The single-queue worlds serialize every softirq and syscall on one
//! simulated CPU (`cpu_free`/`app_blocked` scalars). Multi-queue
//! virtio-net only scales if each queue pair's NAPI context runs on its
//! own core, so this module holds one [`CpuContext`] per simulated CPU:
//! a private [`CostEngine`] (its noise stream derived independently, so
//! one core's jitter never perturbs another core's draw sequence) plus
//! the `free`/`blocked` scalars the worlds previously kept globally.
//!
//! Queue→CPU affinity is the plain `pair % num_cpus` an RSS-aware
//! driver programs: flow *i* hashes to queue pair *i*, whose MSI-X
//! vector is affinitized to CPU *i*.

use vf_sim::{NoiseModel, SimRng, Time};

use crate::cost::{CostEngine, HostCosts};

/// RNG-derivation tag base for per-CPU cost streams; keeps them clear
/// of the tags the single-queue worlds already use (1, 2, ...).
const CPU_RNG_TAG_BASE: u64 = 10;

/// One simulated host core: its cost model and scheduler state.
#[derive(Clone, Debug)]
pub struct CpuContext {
    /// CPU-time model for everything this core executes.
    pub cost: CostEngine,
    /// Instant this core finishes its current work.
    pub free: Time,
    /// Whether the application thread pinned here is blocked in a
    /// syscall awaiting wakeup.
    pub blocked: bool,
}

/// A fixed set of host cores with flow→queue→CPU affinity.
#[derive(Clone, Debug)]
pub struct MultiCoreHost {
    cpus: Vec<CpuContext>,
}

impl MultiCoreHost {
    /// Build `num_cpus` cores sharing one cost calibration but each
    /// drawing noise from its own derived RNG stream. Core *i* publishes
    /// its `hostsw.*` instruments under index *i*.
    pub fn new(num_cpus: usize, costs: &HostCosts, noise: &NoiseModel, rng: &SimRng) -> Self {
        assert!(num_cpus >= 1, "a host has at least one core");
        let cpus = (0..num_cpus)
            .map(|i| CpuContext {
                cost: CostEngine::new(
                    costs.clone(),
                    noise.clone(),
                    rng.derive(CPU_RNG_TAG_BASE + i as u64),
                )
                .on_cpu(i as u32),
                free: Time::ZERO,
                blocked: false,
            })
            .collect();
        MultiCoreHost { cpus }
    }

    /// Number of cores.
    pub fn len(&self) -> usize {
        self.cpus.len()
    }

    /// True if the model has no cores (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.cpus.is_empty()
    }

    /// The core with index `i`.
    pub fn cpu(&mut self, i: usize) -> &mut CpuContext {
        &mut self.cpus[i]
    }

    /// The core servicing queue pair `pair` (static affinity:
    /// `pair % num_cpus`, the layout `irqbalance --banirq` pinning
    /// produces for per-queue MSI-X vectors).
    pub fn cpu_for_pair(&mut self, pair: u16) -> &mut CpuContext {
        let n = self.cpus.len();
        &mut self.cpus[pair as usize % n]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn host(n: usize) -> MultiCoreHost {
        MultiCoreHost::new(
            n,
            &HostCosts::fedora37(),
            &NoiseModel::noiseless(),
            &SimRng::new(7),
        )
    }

    #[test]
    fn pair_affinity_is_stable_modulo_cores() {
        let mut h = host(4);
        assert_eq!(h.len(), 4);
        // Identity for pair < num_cpus ...
        for pair in 0..4u16 {
            h.cpu_for_pair(pair).free = Time::from_ns(1 + pair as u64);
        }
        for pair in 0..4u16 {
            assert_eq!(h.cpu(pair as usize).free, Time::from_ns(1 + pair as u64));
        }
        // ... and wraps beyond it.
        assert_eq!(h.cpu_for_pair(6).free, Time::from_ns(3));
    }

    #[test]
    fn per_cpu_noise_streams_are_independent() {
        // Two cores advancing through the same named path must draw
        // from different streams; a shared stream would make core 1's
        // timing depend on how often core 0 ran.
        let noise = NoiseModel {
            scale: 1.0,
            step_jitter: vf_sim::Jitter {
                median: Time::from_ns(200),
                sigma: 0.5,
            },
            spikes: Vec::new(),
        };
        let costs = HostCosts::fedora37();
        let rng = SimRng::new(9);
        let mut a = MultiCoreHost::new(2, &costs, &noise, &rng);
        let mut b = MultiCoreHost::new(2, &costs, &noise, &rng);
        let base = costs.syscall_entry;
        let x0 = a.cpu(0).cost.step(base);
        // In `b`, burn a draw on cpu 1 first: cpu 0's next draw must
        // be unaffected.
        let _ = b.cpu(1).cost.step(base);
        let y0 = b.cpu(0).cost.step(base);
        assert_eq!(x0, y0, "cpu0's stream perturbed by cpu1 activity");
    }

    #[test]
    fn each_core_publishes_under_its_own_index() {
        vf_metrics::install(vf_metrics::MetricsConfig::default());
        let mut h = host(3);
        h.cpu(2).cost.irq_entry(Time::ZERO);
        h.cpu(2).cost.irq_entry(Time::ZERO);
        h.cpu(1).cost.irq_entry(Time::ZERO);
        let report = vf_metrics::finish();
        let irqs = |cpu| report.get("hostsw.irq.count", cpu).map(|i| i.last);
        assert_eq!([irqs(0), irqs(1), irqs(2)], [None, Some(1), Some(2)]);
        assert_eq!(report.counter_total("hostsw.irq.count"), 3);
    }

    #[test]
    fn cores_start_idle_and_unblocked() {
        let mut h = host(3);
        for i in 0..3 {
            assert_eq!(h.cpu(i).free, Time::ZERO);
            assert!(!h.cpu(i).blocked);
        }
    }
}
