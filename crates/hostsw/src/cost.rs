//! Host software cost model.
//!
//! Every software step in a round trip — syscall entry, stack traversal,
//! interrupt handling, scheduler wakeups — is charged a base cost plus
//! host noise (vf-sim's [`NoiseModel`]). The *structure* (which steps a
//! driver design performs, and how many) comes from the driver models;
//! the *numbers* here are calibrated to a Fedora 37 desktop of the
//! paper's era and can be overridden by the experiment calibration
//! profile.
//!
//! Base values are informed by widely reproduced micro-measurements:
//! ~0.4–0.7 µs for a syscall round half, ~1 µs hardirq entry-to-handler,
//! 1–2 µs for a scheduler wakeup-to-run on an idle core, ~2 µs for the
//! UDP/IP transmit path of a short datagram, several µs for
//! `get_user_pages` + `dma_map` of a small buffer (the XDMA driver's
//! per-transfer pinning).

use vf_metrics::{Counter, Histogram};
use vf_sim::{NoiseModel, SimRng, Time};
use vf_trace::Layer;

/// Base costs of the modeled software steps (before noise).
#[derive(Clone, Debug)]
pub struct HostCosts {
    /// Syscall entry (user→kernel, argument checks).
    pub syscall_entry: Time,
    /// Syscall exit (return to user).
    pub syscall_exit: Time,
    /// Fixed cost of a user↔kernel copy.
    pub copy_user_base: Time,
    /// Per-byte cost of a user↔kernel copy (ps/byte).
    pub copy_user_per_byte_ps: u64,
    /// UDP+IP+Ethernet transmit path: route lookup, skb alloc, header
    /// construction (checksums charged separately).
    pub udp_tx_path: Time,
    /// UDP+IP receive path: demux, socket lookup, queueing.
    pub udp_rx_path: Time,
    /// Software checksum per byte (ps/byte), charged when checksum
    /// offload is not negotiated.
    pub csum_per_byte_ps: u64,
    /// virtio-net xmit: virtio_net_hdr setup + ring add + publish.
    pub virtio_xmit: Time,
    /// virtio-net NAPI poll: pop used, rebuild skb, repost buffer.
    pub virtio_napi_rx: Time,
    /// CPU-side cost of a posted MMIO write (store + write-combining
    /// flush). The wire time is the link model's business.
    pub mmio_write_cpu: Time,
    /// Handler cost around an MMIO read (the CPU *stall* is the link
    /// round trip, added by the caller).
    pub mmio_read_cpu: Time,
    /// Hardirq entry: vector dispatch to handler start.
    pub hardirq_entry: Time,
    /// IRQ handler exit + softirq raise latency (NAPI schedule → poll).
    pub softirq_latency: Time,
    /// Blocking: schedule out of a syscall.
    pub block_schedule: Time,
    /// Wakeup-to-run: waker cost + context switch in.
    pub wakeup_to_run: Time,
    /// XDMA driver: `get_user_pages` + `dma_map_sg` for a small buffer.
    pub xdma_pin_map: Time,
    /// XDMA driver: building + writing one descriptor.
    pub xdma_desc_build: Time,
    /// XDMA driver: teardown (dma_unmap + unpin) per transfer.
    pub xdma_unmap: Time,
    /// XDMA ISR body (beyond the status-register read stall).
    pub xdma_isr_body: Time,
    /// Test application: per-packet bookkeeping between transfers
    /// (timestamping, loop overhead).
    pub app_loop_overhead: Time,
    /// Paravirtualization overlay: guest kick → host (vmexit/eventfd
    /// signalling path).
    pub vmexit_kick: Time,
    /// Paravirtualization overlay: host → guest interrupt injection
    /// (irqfd + vCPU notification).
    pub irq_inject: Time,
    /// Poll-mode driver: one busy-poll peek of the used index. Priced as
    /// a DRAM cache miss — the device's index write invalidates the
    /// polling core's line, so each productive peek re-fetches it.
    pub poll_ring_peek: Time,
    /// Poll-mode driver: build header + frame in a userspace TX slot
    /// (no skb, no route lookup — the stack is a flat frame builder).
    pub pmd_tx_build: Time,
    /// Poll-mode driver: parse + validate one received frame in
    /// userspace (checksums charged separately).
    pub pmd_rx_parse: Time,
    /// Poll-mode driver: descriptor add + batch-publish bookkeeping per
    /// chain.
    pub pmd_ring_add: Time,
}

/// Nominal clock of the calibrated host's CPU (GHz) — converts burned
/// poll time into the cycles-per-packet figures E16 reports.
pub const HOST_CPU_GHZ: f64 = 3.8;

impl HostCosts {
    /// Calibrated defaults for the paper's Fedora 37 desktop host.
    pub fn fedora37() -> Self {
        HostCosts {
            syscall_entry: Time::from_ns(420),
            syscall_exit: Time::from_ns(380),
            copy_user_base: Time::from_ns(120),
            copy_user_per_byte_ps: 120, // ~8 GB/s effective for short copies
            udp_tx_path: Time::from_ns(1_900),
            udp_rx_path: Time::from_ns(1_500),
            csum_per_byte_ps: 180,
            virtio_xmit: Time::from_ns(650),
            virtio_napi_rx: Time::from_ns(900),
            mmio_write_cpu: Time::from_ns(110),
            mmio_read_cpu: Time::from_ns(250),
            hardirq_entry: Time::from_ns(950),
            softirq_latency: Time::from_ns(650),
            block_schedule: Time::from_ns(800),
            wakeup_to_run: Time::from_ns(1_450),
            xdma_pin_map: Time::from_ns(4_500),
            xdma_desc_build: Time::from_ns(450),
            xdma_unmap: Time::from_ns(2_000),
            xdma_isr_body: Time::from_ns(700),
            app_loop_overhead: Time::from_ns(180),
            vmexit_kick: Time::from_ns(1_900),
            irq_inject: Time::from_ns(1_600),
            poll_ring_peek: Time::from_ns(80),
            pmd_tx_build: Time::from_ns(250),
            pmd_rx_parse: Time::from_ns(220),
            pmd_ring_add: Time::from_ns(120),
        }
    }
}

/// The sampling engine: costs + noise + RNG stream.
#[derive(Clone, Debug)]
pub struct CostEngine {
    /// Base costs.
    pub costs: HostCosts,
    /// Host noise model.
    pub noise: NoiseModel,
    rng: SimRng,
    /// Cumulative software time charged (for reports).
    pub total_charged: Time,
    /// Number of steps charged.
    pub steps_charged: u64,
    /// CPU time burned busy-polling (spinning on the used index) — time
    /// the core was 100% occupied but did no productive work. Tracked
    /// separately from [`Self::total_charged`] so the poll-vs-interrupt
    /// tradeoff of E16 is measurable.
    pub poll_cpu_burnt: Time,
    /// Ring peeks issued while busy-polling.
    pub poll_peeks: u64,
    metrics: HostMetrics,
}

/// The `hostsw.*` instruments the named cost paths publish.
#[derive(Clone, Debug)]
struct HostMetrics {
    irqs: Counter,
    irq_entry: Histogram,
    syscall_blocks: Counter,
}

impl HostMetrics {
    fn new(index: u32) -> HostMetrics {
        HostMetrics {
            irqs: Counter::new("hostsw.irq.count", index),
            irq_entry: Histogram::new("hostsw.irq.entry_ps", index),
            syscall_blocks: Counter::new("hostsw.syscall.blocks", index),
        }
    }
}

impl CostEngine {
    /// Build from parts.
    pub fn new(costs: HostCosts, noise: NoiseModel, rng: SimRng) -> Self {
        CostEngine {
            costs,
            noise,
            rng,
            total_charged: Time::ZERO,
            steps_charged: 0,
            poll_cpu_burnt: Time::ZERO,
            poll_peeks: 0,
            metrics: HostMetrics::new(0),
        }
    }

    /// Publish this engine's `hostsw.*` instruments under `index`, the
    /// simulated core it models, instead of 0.
    pub fn on_cpu(mut self, index: u32) -> Self {
        self.metrics = HostMetrics::new(index);
        self
    }

    /// Count one interrupt delivery whose entry path took `d`.
    fn publish_irq(&self, d: Time) {
        if vf_metrics::is_enabled() {
            let m = &self.metrics;
            vf_metrics::batch(|b| {
                b.counter_add(&m.irqs, 1);
                b.hist_record(&m.irq_entry, d.as_ps());
            });
        }
    }

    /// Charge one software step with base cost `base`.
    pub fn step(&mut self, base: Time) -> Time {
        let t = self.noise.sw_step(&mut self.rng, base);
        self.total_charged += t;
        self.steps_charged += 1;
        t
    }

    /// Charge a user↔kernel copy of `bytes`.
    pub fn copy_user(&mut self, bytes: usize) -> Time {
        let base = self.costs.copy_user_base
            + Time::from_ps(bytes as u64 * self.costs.copy_user_per_byte_ps);
        self.step(base)
    }

    /// Charge a software checksum over `bytes`.
    pub fn sw_checksum(&mut self, bytes: usize) -> Time {
        let base = Time::from_ps(bytes as u64 * self.costs.csum_per_byte_ps);
        self.step(base)
    }

    /// Extra latency absorbed by a blocking wait / IRQ-to-wakeup interval
    /// (noise spikes; zero most of the time).
    pub fn blocking_extra(&mut self) -> Time {
        self.noise.interruptible_extra(&mut self.rng)
    }

    /// Busy-poll until a completion that lands `wait` from now becomes
    /// visible. Returns `(burn, peeks)`: the wall-clock/CPU time spun
    /// (peeks × [`HostCosts::poll_ring_peek`], so detection quantizes to
    /// the peek cadence) and the number of peeks issued, both also
    /// accumulated into [`Self::poll_cpu_burnt`] / [`Self::poll_peeks`].
    ///
    /// Deliberately noise-free: the poll loop is a register-resident spin
    /// on an isolated core — there are no kernel entries for jitter to
    /// ride in on, which is exactly why the PMD's tail is thin (§E15).
    /// At least one peek is charged (the one that observes the index
    /// moved).
    pub fn poll_wait(&mut self, wait: Time) -> (Time, u64) {
        let peek = self.costs.poll_ring_peek;
        debug_assert!(peek > Time::ZERO);
        // ceil(wait / peek), minimum 1: the observing peek itself.
        let k = (wait.as_ps().div_ceil(peek.as_ps())).max(1);
        let burn = Time::from_ps(k * peek.as_ps());
        self.poll_cpu_burnt += burn;
        self.poll_peeks += k;
        (burn, k)
    }

    /// Burn `t` of pure spin time (idle-gap polling between offered-load
    /// packets, with no completion to anchor to).
    pub fn burn(&mut self, t: Time) {
        let peek = self.costs.poll_ring_peek;
        self.poll_cpu_burnt += t;
        self.poll_peeks += t.as_ps() / peek.as_ps().max(1);
    }

    /// Total CPU time consumed: productive steps + poll spin.
    pub fn total_cpu(&self) -> Time {
        self.total_charged + self.poll_cpu_burnt
    }

    // ----- Named cost paths -------------------------------------------
    //
    // Multi-step software sequences shared by the driver models. Each
    // path takes the instant it starts and returns the instant it ends
    // (the convention of `PcieLink`), and emits its span at those
    // bounds. Each draws from the RNG in a fixed documented order, so a
    // model swapping an inline `step(...)` chain for the named path is
    // bit-identical. Paths only bundle steps with no interleaved link
    // (wire) time — a wire round trip in the middle forces the caller
    // back to individual `step()` calls.

    /// Emit the span `[start, start + d]` of a named path and return its
    /// end.
    fn path_span(layer: Layer, name: &'static str, start: Time, d: Time, a: u64) -> Time {
        vf_trace::span_at(layer, name, start, start + d, a, 0);
        start + d
    }

    /// Interrupt delivery up to NAPI poll start: blocking-wait noise +
    /// hardirq entry + softirq (NAPI schedule → poll) latency. The
    /// virtio kernel drivers' RX entry sequence.
    pub fn irq_to_napi(&mut self, start: Time) -> Time {
        let d = self.blocking_extra()
            + self.step(self.costs.hardirq_entry)
            + self.step(self.costs.softirq_latency);
        self.publish_irq(d);
        Self::path_span(Layer::Irq, "irq_to_napi", start, d, 0)
    }

    /// Interrupt delivery to handler start only: blocking-wait noise +
    /// hardirq entry. Used when the handler's first act is an MMIO read
    /// (a wire stall the link model prices), as in the XDMA ISR.
    pub fn irq_entry(&mut self, start: Time) -> Time {
        let d = self.blocking_extra() + self.step(self.costs.hardirq_entry);
        self.publish_irq(d);
        Self::path_span(Layer::Irq, "irq_entry", start, d, 0)
    }

    /// Interrupt that wakes a blocked task: blocking-wait noise +
    /// hardirq entry + wakeup-to-run. The "interrupt as a doorbell for a
    /// sleeper" pattern (XDMA user IRQ, PMD adaptive fallback).
    pub fn irq_wake(&mut self, start: Time) -> Time {
        let d = self.blocking_extra()
            + self.step(self.costs.hardirq_entry)
            + self.step(self.costs.wakeup_to_run);
        self.publish_irq(d);
        Self::path_span(Layer::Irq, "irq_wake", start, d, 0)
    }

    /// Enter the kernel and block: syscall entry + schedule-out. The
    /// "wait for completion" half of every blocking read.
    pub fn block_in_syscall(&mut self, start: Time) -> Time {
        let d = self.step(self.costs.syscall_entry) + self.step(self.costs.block_schedule);
        self.metrics.syscall_blocks.add(1);
        Self::path_span(Layer::Syscall, "block_in_syscall", start, d, 0)
    }

    /// Return from a send and immediately block in the paired receive:
    /// syscall exit + syscall entry + schedule-out. The request-response
    /// application's inter-syscall pivot.
    pub fn send_return_then_block(&mut self, start: Time) -> Time {
        let d = self.step(self.costs.syscall_exit)
            + self.step(self.costs.syscall_entry)
            + self.step(self.costs.block_schedule);
        Self::path_span(Layer::Syscall, "send_return_then_block", start, d, 0)
    }

    /// Paravirtualization overlay, transmit side: the guest's syscall +
    /// UDP stack + virtio-net xmit + vmexit kick + host worker wakeup +
    /// guest→host copy of `bytes`. Charged on top of the host driver's
    /// own path when a workload runs inside a VM (E13).
    pub fn vhost_tx_overlay(&mut self, start: Time, bytes: usize) -> Time {
        let d = self.step(self.costs.syscall_entry)
            + self.step(self.costs.udp_tx_path)
            + self.step(self.costs.virtio_xmit)
            + self.step(self.costs.vmexit_kick)
            + self.step(self.costs.wakeup_to_run)
            + self.copy_user(bytes);
        Self::path_span(Layer::Driver, "vhost_tx_overlay", start, d, bytes as u64)
    }

    /// Paravirtualization overlay, receive side: host→guest copy of
    /// `bytes` + interrupt injection + the guest's hardirq/softirq/NAPI
    /// path + guest UDP receive + app wakeup + syscall exit.
    pub fn vhost_rx_overlay(&mut self, start: Time, bytes: usize) -> Time {
        let d = self.copy_user(bytes)
            + self.step(self.costs.irq_inject)
            + self.step(self.costs.hardirq_entry)
            + self.step(self.costs.softirq_latency)
            + self.step(self.costs.virtio_napi_rx)
            + self.step(self.costs.udp_rx_path)
            + self.step(self.costs.wakeup_to_run)
            + self.step(self.costs.syscall_exit);
        Self::path_span(Layer::Driver, "vhost_rx_overlay", start, d, bytes as u64)
    }

    /// Worker half of the vhost transmit path: the vhost thread's wakeup
    /// on the guest's kick eventfd plus the guest→host copy of `bytes`.
    pub fn vhost_worker_tx(&mut self, start: Time, bytes: usize) -> Time {
        let d = self.step(self.costs.wakeup_to_run) + self.copy_user(bytes);
        Self::path_span(Layer::Driver, "vhost_worker_tx", start, d, bytes as u64)
    }

    /// Worker half of the vhost receive path: the host→guest copy of
    /// `bytes` plus the interrupt injection into the guest.
    pub fn vhost_worker_rx(&mut self, start: Time, bytes: usize) -> Time {
        let d = self.copy_user(bytes) + self.step(self.costs.irq_inject);
        Self::path_span(Layer::Driver, "vhost_worker_rx", start, d, bytes as u64)
    }

    /// Borrow the RNG stream (workload payload generation, ip_id, ...).
    pub fn rng(&mut self) -> &mut SimRng {
        &mut self.rng
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vf_sim::{Jitter, SpikeClass};

    fn engine(noise: bool) -> CostEngine {
        let noise_model = if noise {
            NoiseModel {
                scale: 1.0,
                step_jitter: Jitter {
                    median: Time::from_ns(200),
                    sigma: 1.0,
                },
                spikes: vec![SpikeClass {
                    prob: 0.05,
                    min: Time::from_us(3),
                    alpha: 2.5,
                    cap: Time::from_us(50),
                }],
            }
        } else {
            NoiseModel::noiseless()
        };
        CostEngine::new(HostCosts::fedora37(), noise_model, SimRng::new(11))
    }

    #[test]
    fn noiseless_steps_are_exact() {
        let mut e = engine(false);
        let base = e.costs.syscall_entry;
        assert_eq!(e.step(base), base);
        assert_eq!(e.steps_charged, 1);
        assert_eq!(e.total_charged, base);
    }

    #[test]
    fn copy_scales_with_bytes() {
        let mut e = engine(false);
        let small = e.copy_user(64);
        let big = e.copy_user(1024);
        assert!(big > small);
        assert_eq!((big - small).as_ps(), 960 * e.costs.copy_user_per_byte_ps);
    }

    #[test]
    fn noisy_steps_at_least_base() {
        let mut e = engine(true);
        let base = Time::from_us(1);
        for _ in 0..5_000 {
            assert!(e.step(base) >= base);
        }
    }

    #[test]
    fn blocking_extra_mostly_zero_sometimes_large() {
        let mut e = engine(true);
        let mut zeros = 0;
        let mut spikes = 0;
        for _ in 0..20_000 {
            let x = e.blocking_extra();
            if x == Time::ZERO {
                zeros += 1;
            } else if x >= Time::from_us(3) {
                spikes += 1;
            }
        }
        assert!(zeros > 17_000, "zeros = {zeros}");
        assert!(spikes > 300, "spikes = {spikes}");
    }

    #[test]
    fn sw_checksum_linear() {
        let mut e = engine(false);
        assert_eq!(e.sw_checksum(1000).as_ps(), 1000 * e.costs.csum_per_byte_ps);
    }

    #[test]
    fn poll_wait_quantizes_to_peek_cadence() {
        let mut e = engine(false);
        let peek = e.costs.poll_ring_peek;
        // Completion lands mid-peek: detection rounds up to the next peek.
        let (burn, k) = e.poll_wait(Time::from_ns(200));
        assert_eq!(k, 3); // ceil(200 / 80)
        assert_eq!(burn, Time::from_ps(3 * peek.as_ps()));
        // Zero wait still costs the observing peek.
        let (burn0, k0) = e.poll_wait(Time::ZERO);
        assert_eq!(k0, 1);
        assert_eq!(burn0, peek);
        // The burn channel accumulated both, separate from step charges.
        assert_eq!(e.poll_peeks, 4);
        assert_eq!(e.poll_cpu_burnt, Time::from_ps(4 * peek.as_ps()));
        assert_eq!(e.total_charged, Time::ZERO);
        assert_eq!(e.total_cpu(), e.poll_cpu_burnt);
    }

    #[test]
    fn poll_wait_is_deterministic_under_noise() {
        // Unlike step(), poll_wait must not draw jitter: the spin loop
        // never enters the kernel.
        let mut a = engine(true);
        let mut b = engine(true);
        // Desynchronize the RNG streams; poll_wait must not care.
        a.step(Time::from_ns(100));
        for w in [1_u64, 79, 80, 81, 1000, 50_000] {
            assert_eq!(a.poll_wait(Time::from_ns(w)), b.poll_wait(Time::from_ns(w)));
        }
    }

    #[test]
    fn burn_accumulates_gap_time() {
        let mut e = engine(false);
        e.burn(Time::from_us(500));
        assert_eq!(e.poll_cpu_burnt, Time::from_us(500));
        assert_eq!(
            e.poll_peeks,
            Time::from_us(500).as_ps() / e.costs.poll_ring_peek.as_ps()
        );
        assert!(e.total_cpu() >= Time::from_us(500));
    }

    #[test]
    fn pmd_costs_are_sub_microsecond() {
        // The whole point of the PMD path: its per-packet steps are an
        // order of magnitude below the kernel-path steps.
        let c = HostCosts::fedora37();
        for t in [
            c.poll_ring_peek,
            c.pmd_tx_build,
            c.pmd_rx_parse,
            c.pmd_ring_add,
        ] {
            assert!(t >= Time::from_ns(10) && t < Time::from_ns(500), "{t}");
        }
        const { assert!(HOST_CPU_GHZ > 1.0 && HOST_CPU_GHZ < 10.0) };
    }

    #[test]
    fn cost_paths_match_inline_chains_bit_for_bit() {
        // The named paths exist so the driver models can share one
        // vocabulary *without* perturbing the RNG stream: each must draw
        // noise in exactly the order the inline chain it replaced did.
        let mut a = engine(true);
        let mut b = engine(true);
        let c = HostCosts::fedora37();

        let path = a.irq_to_napi(Time::ZERO);
        let inline = b.blocking_extra() + b.step(c.hardirq_entry) + b.step(c.softirq_latency);
        assert_eq!(path, inline);

        let path = a.irq_entry(Time::ZERO);
        let inline = b.blocking_extra() + b.step(c.hardirq_entry);
        assert_eq!(path, inline);

        let path = a.irq_wake(Time::ZERO);
        let inline = b.blocking_extra() + b.step(c.hardirq_entry) + b.step(c.wakeup_to_run);
        assert_eq!(path, inline);

        let path = a.block_in_syscall(Time::ZERO);
        let inline = b.step(c.syscall_entry) + b.step(c.block_schedule);
        assert_eq!(path, inline);

        let path = a.send_return_then_block(Time::ZERO);
        let inline = b.step(c.syscall_exit) + b.step(c.syscall_entry) + b.step(c.block_schedule);
        assert_eq!(path, inline);

        let path = a.vhost_tx_overlay(Time::ZERO, 256);
        let inline = b.step(c.syscall_entry)
            + b.step(c.udp_tx_path)
            + b.step(c.virtio_xmit)
            + b.step(c.vmexit_kick)
            + b.step(c.wakeup_to_run)
            + b.copy_user(256);
        assert_eq!(path, inline);

        let path = a.vhost_rx_overlay(Time::ZERO, 256);
        let inline = b.copy_user(256)
            + b.step(c.irq_inject)
            + b.step(c.hardirq_entry)
            + b.step(c.softirq_latency)
            + b.step(c.virtio_napi_rx)
            + b.step(c.udp_rx_path)
            + b.step(c.wakeup_to_run)
            + b.step(c.syscall_exit);
        assert_eq!(path, inline);

        // Same number of RNG draws overall → streams stay in lockstep.
        assert_eq!(a.steps_charged, b.steps_charged);
        assert_eq!(a.total_charged, b.total_charged);
    }

    #[test]
    fn defaults_are_microsecond_scale() {
        let c = HostCosts::fedora37();
        // Sanity: each base step lands within the plausible kernel-path
        // envelope (no unit slips to ms or ps).
        for t in [
            c.syscall_entry,
            c.syscall_exit,
            c.udp_tx_path,
            c.udp_rx_path,
            c.hardirq_entry,
            c.wakeup_to_run,
            c.xdma_pin_map,
        ] {
            assert!(t >= Time::from_ns(100) && t <= Time::from_us(5), "{t}");
        }
    }
}
