//! The poll-mode-driver world: the `vf-pmd` userspace kernel-bypass
//! driver sequenced against the same FPGA, link, and cost models as the
//! in-kernel contenders.
//!
//! The round trip differs from `VirtioWorld` in exactly the ways a PMD
//! differs from a kernel driver:
//!
//! * the application builds and parses UDP frames **in user space**
//!   (`pmd_tx_build` / `pmd_rx_parse` costs) — no socket syscalls, no
//!   kernel network stack;
//! * after the doorbell (rung only when the `EVENT_IDX` notify test says
//!   the device went to sleep) the application **busy-polls** the used
//!   ring; completion is detected one `poll_ring_peek` after the DMA
//!   write lands — there is no hardirq, no softirq, no scheduler wakeup,
//!   and crucially no `blocking_extra()` noise draw, which is what thins
//!   the tail;
//! * in adaptive mode ([`crate::testbed::TestbedOptions::pmd_adaptive_idle`]) the poller
//!   gives up after a threshold, arms the RX interrupt, and blocks — the
//!   wake then pays the full interrupt path including the noise draw,
//!   recovering the kernel driver's latency profile but capping the CPU
//!   burn;
//! * in paced mode ([`crate::testbed::TestbedOptions::pmd_send_interval`]) sends are
//!   spaced on a fixed offered-load clock; a busy poller burns the whole
//!   idle gap, an adaptive one at most the threshold.
//!
//! [`run_pmd`] returns the standard [`RunResult`] plus PMD-only
//! telemetry (CPU per packet, peek count, fallback count) used by the
//! E16 crossover experiment.

use vf_hostsw::{build_udp_frame_into, parse_udp_frame, MacAddr, UdpFlow, HOST_CPU_GHZ};
use vf_pmd::VirtioPmd;
use vf_sim::{Time, World};
use vf_virtio::net::VirtioNetConfig;
use vf_virtio::{feature, net, DeviceType};

use crate::driver_model::{run_world, DriverModel, RoundTripRecorder, RunStats};
use crate::report::RunResult;
use crate::testbed::{ring_doorbell, TestbedConfig, VirtioParts, ECHO_PORT, FLOW_PORT_BASE};

/// A PMD run: the standard result plus poll-economics telemetry.
pub struct PmdRun {
    /// The standard latency result (drop-in for `Testbed::run`).
    pub result: RunResult,
    /// Host CPU time per packet, µs — includes the busy-poll burn, the
    /// honest price of a PMD.
    pub cpu_us_per_packet: f64,
    /// Same, in kilocycles at the testbed's [`HOST_CPU_GHZ`].
    pub kcycles_per_packet: f64,
    /// Used-index peeks issued by the poll loops.
    pub poll_peeks: u64,
    /// Adaptive poll→interrupt fallbacks taken.
    pub irq_fallbacks: u64,
    /// Doorbells rung (should stay ≤ 1 per packet, usually exactly 1 in
    /// the serial echo workload since the device sleeps between bursts).
    pub doorbells: u64,
}

/// Events of the PMD round-trip flow. Note the absence of an RX
/// interrupt event: completions are discovered by polling, inline in the
/// doorbell handler's aftermath.
enum PmdEv {
    /// Application sends the next packet.
    AppSend,
    /// Doorbell TLP lands in the device.
    Doorbell(u16),
}

struct PmdWorld {
    parts: VirtioParts<VirtioPmd>,
    payload: usize,
    flow: UdpFlow,
    ip_id: u16,
    expected: Vec<u8>,
    /// The frame each send builds, reused.
    tx_frame: Vec<u8>,
    /// When the application entered the RX poll loop.
    poll_start: Time,
    rec: RoundTripRecorder,
    adaptive_idle: Option<Time>,
    send_interval: Option<Time>,
    /// Absolute time of the last send (paced mode's clock edge).
    last_send: Time,
}

impl PmdWorld {
    fn new(cfg: &TestbedConfig) -> Self {
        assert_eq!(
            cfg.options.device_type,
            DeviceType::Net,
            "the PMD drives the net persona"
        );
        // VFIO-style takeover still begins with ordinary enumeration:
        // the BARs must be assigned before they can be mapped. MSI-X
        // stays programmed as the adaptive fallback's landing pad; with
        // both queues parked it never fires in pure polling.
        let parts = VirtioParts::new(cfg, |mem, device| {
            // The PMD always negotiates EVENT_IDX — permanent
            // suppression is its operating principle, not an option.
            let want = feature::VERSION_1
                | feature::RING_EVENT_IDX
                | net::feature::MAC
                | net::feature::MTU
                | net::feature::STATUS;
            let driver = VirtioPmd::init(mem, cfg.options.queue_size, want);
            vf_pmd::probe(device, &driver, want).expect("PMD probe");
            driver
        });

        // The userspace stack frames the same flow 0 the kernel socket
        // would.
        let flow = UdpFlow {
            src_mac: parts.net.stack.local_mac,
            dst_mac: MacAddr(VirtioNetConfig::testbed_default().mac),
            src_ip: parts.net.stack.local_ip,
            dst_ip: parts.net.fpga_ip,
            src_port: FLOW_PORT_BASE,
            dst_port: ECHO_PORT,
        };

        PmdWorld {
            parts,
            payload: cfg.payload,
            flow,
            ip_id: 1,
            expected: Vec::new(),
            tx_frame: Vec::new(),
            poll_start: Time::ZERO,
            rec: RoundTripRecorder::new(cfg.packets),
            adaptive_idle: cfg.options.pmd_adaptive_idle,
            send_interval: cfg.options.pmd_send_interval,
            last_send: Time::ZERO,
        }
    }

    /// The response DMA landed at `done_at`: detect it (by polling or by
    /// the adaptive interrupt), harvest, verify, record, and line up the
    /// next send.
    fn complete_rtt(&mut self, done_at: Time, sched: &mut vf_sim::Scheduler<PmdEv>) {
        let wait = done_at.saturating_sub(self.poll_start);
        let t_detect = match self.adaptive_idle {
            Some(threshold) if wait > threshold => {
                // Polled `threshold` long, gave up: arm the interrupt,
                // re-check the ring once (lost-wakeup guard), block. The
                // wake pays the full interrupt path — including the
                // blocking-noise draw the pure poller never sees.
                self.parts.cost.burn(threshold);
                vf_trace::span_at(
                    vf_trace::Layer::App,
                    "poll_burn",
                    self.poll_start,
                    self.poll_start + threshold,
                    0,
                    0,
                );
                self.parts.driver.arm_rx_interrupt(&mut self.parts.mem);
                let armed = self
                    .parts
                    .cost
                    .block_in_syscall(self.poll_start + threshold);
                self.parts.cost.irq_wake(done_at.max(armed))
            }
            _ => {
                // Busy path: completion is seen at the first used-index
                // peek at or after `done_at`; the whole wait is CPU burn.
                let (burn, peeks) = self.parts.cost.poll_wait(wait);
                let td = self.poll_start + burn;
                // Wall-clock spin: application-layer time, not serial
                // software latency (the device works underneath it).
                vf_trace::span_at(
                    vf_trace::Layer::App,
                    "poll_wait",
                    self.poll_start,
                    td,
                    peeks,
                    0,
                );
                td
            }
        };

        let (frames, cpu) =
            self.parts
                .driver
                .rx_burst(&mut self.parts.mem, usize::MAX, &mut self.parts.cost);
        vf_trace::span_at(
            vf_trace::Layer::Driver,
            "rx_burst",
            t_detect,
            t_detect + cpu,
            0,
            0,
        );
        let t = t_detect + cpu;
        // Whether the last verified payload matched the one sent.
        let mut delivered: Option<bool> = None;
        for rx in frames {
            match parse_udp_frame(&rx.frame) {
                Ok(parsed) if parsed.udp_csum_ok => {
                    delivered = Some(parsed.payload == self.expected)
                }
                Ok(_) | Err(_) => self.rec.verify_failures += 1,
            }
        }
        if delivered != Some(true) {
            self.rec.verify_failures += 1;
        }

        let hw = self.parts.device.counters.last_hw();
        let proc = self.parts.device.counters.processing.last;
        if let Some(t) = self.rec.close(t, hw, proc, &mut self.parts.cost) {
            match self.send_interval {
                None => sched.at(t, PmdEv::AppSend),
                Some(interval) => {
                    let next = self.last_send + interval;
                    if next <= t {
                        // Offered load exceeds service rate: saturated,
                        // send immediately.
                        sched.at(t, PmdEv::AppSend);
                    } else {
                        // Idle until the next clock edge: the busy poller
                        // burns the whole gap, the adaptive one at most
                        // the threshold (then it blocks on a timer).
                        let gap = next - t;
                        match self.adaptive_idle {
                            None => self.parts.cost.burn(gap),
                            Some(threshold) => self.parts.cost.burn(gap.min(threshold)),
                        }
                        sched.at(next, PmdEv::AppSend);
                    }
                }
            }
        }
    }
}

impl World for PmdWorld {
    type Msg = PmdEv;

    fn deliver(&mut self, now: Time, msg: PmdEv, sched: &mut vf_sim::Scheduler<PmdEv>) {
        match msg {
            PmdEv::AppSend => {
                if self.rec.packets_left == 0 {
                    return;
                }
                self.rec.begin_rtt(now, "rtt_pmd", self.payload as u64);
                self.last_send = now;
                let mut t = now;

                let payload = &mut self.expected;
                payload.clear();
                payload.resize(self.payload, 0);
                self.parts.payload_rng.fill_bytes(payload);
                // Userspace framing, checksum included (the paper's
                // software-checksum configuration).
                let frame = &mut self.tx_frame;
                build_udp_frame_into(frame, &self.flow, self.ip_id, payload, true);
                self.ip_id = self.ip_id.wrapping_add(1);
                let d = self.parts.cost.step(self.parts.cost.costs.pmd_tx_build);
                vf_trace::span_at(
                    vf_trace::Layer::Driver,
                    "pmd_tx_build",
                    t,
                    t + d,
                    frame.len() as u64,
                    0,
                );
                t += d;

                let burst = self.parts.driver.tx_burst(
                    &mut self.parts.mem,
                    &[&frame[..]],
                    &mut self.parts.cost,
                );
                vf_trace::span_at(vf_trace::Layer::Driver, "tx_burst", t, t + burst.cpu, 1, 0);
                t += burst.cpu;
                if burst.notify {
                    let parts = &mut self.parts;
                    let (d, arrival) = ring_doorbell(
                        &mut parts.device,
                        &mut parts.link,
                        &mut parts.cost,
                        net::TX_QUEUE,
                        t,
                        true,
                    );
                    t += d;
                    sched.at(arrival, PmdEv::Doorbell(net::TX_QUEUE));
                } else {
                    // Device still awake from the previous burst: it will
                    // see the new avail entry on its next ring pass.
                    sched.at(t, PmdEv::Doorbell(net::TX_QUEUE));
                }
                // No syscall exit, no block: straight into the poll loop.
                self.poll_start = t;
            }
            PmdEv::Doorbell(queue) => {
                let out = self.parts.device.process_tx_notify(
                    now,
                    queue,
                    &mut self.parts.mem,
                    &mut self.parts.link,
                );
                for resp in &out.responses {
                    let rxo = self.parts.device.deliver_response(
                        resp.ready_at,
                        net::RX_QUEUE,
                        resp,
                        &mut self.parts.mem,
                        &mut self.parts.link,
                    );
                    debug_assert!(
                        rxo.irq_at.is_none(),
                        "parked used_event must suppress the RX interrupt"
                    );
                    self.complete_rtt(rxo.done_at, sched);
                }
                self.parts.device.recycle_tx(out);
            }
        }
    }
}

/// Poll-economics telemetry surfaced by [`PmdWorld::finish`] next to the
/// standard result.
struct PmdTelemetry {
    cpu_us_per_packet: f64,
    kcycles_per_packet: f64,
    poll_peeks: u64,
    irq_fallbacks: u64,
    doorbells: u64,
}

impl DriverModel for PmdWorld {
    type Telemetry = PmdTelemetry;

    fn build(cfg: &TestbedConfig) -> Self {
        PmdWorld::new(cfg)
    }

    fn initial_event() -> PmdEv {
        PmdEv::AppSend
    }

    fn describe(msg: &PmdEv) -> Option<(vf_trace::Layer, &'static str)> {
        match msg {
            PmdEv::AppSend => Some((vf_trace::Layer::App, "app_send")),
            PmdEv::Doorbell(_) => Some((vf_trace::Layer::Device, "doorbell")),
        }
    }

    fn finish(self) -> (RoundTripRecorder, RunStats, PmdTelemetry) {
        // The PMD counts its own doorbells: a send to an awake device
        // rings none.
        let stats = RunStats {
            notifications: self.parts.driver.stats.doorbells,
            ..RunStats::from(&self.parts.device.stats)
        };
        let packets = self.rec.totals.len().max(1) as f64;
        let cpu_us_per_packet = self.parts.cost.total_cpu().as_us_f64() / packets;
        let telemetry = PmdTelemetry {
            cpu_us_per_packet,
            kcycles_per_packet: cpu_us_per_packet * HOST_CPU_GHZ,
            poll_peeks: self.parts.cost.poll_peeks,
            irq_fallbacks: self.parts.driver.stats.irq_fallbacks,
            doorbells: self.parts.driver.stats.doorbells,
        };
        (self.rec, stats, telemetry)
    }
}

/// Run one PMD configuration and return the result with poll telemetry.
pub fn run_pmd(cfg: &TestbedConfig) -> PmdRun {
    assert_eq!(cfg.driver, crate::testbed::DriverKind::VirtioPmd);
    let (result, tel) = run_world::<PmdWorld>(cfg);
    PmdRun {
        result,
        cpu_us_per_packet: tel.cpu_us_per_packet,
        kcycles_per_packet: tel.kcycles_per_packet,
        poll_peeks: tel.poll_peeks,
        irq_fallbacks: tel.irq_fallbacks,
        doorbells: tel.doorbells,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testbed::DriverKind;

    fn pmd_cfg(payload: usize, packets: usize) -> TestbedConfig {
        TestbedConfig::paper(DriverKind::VirtioPmd, payload, packets, 7)
    }

    #[test]
    fn pmd_round_trips_verify() {
        let run = run_pmd(&pmd_cfg(256, 300));
        let mut result = run.result;
        assert_eq!(result.verify_failures, 0);
        let s = result.total_summary();
        assert!(
            s.mean_us > 3.0 && s.mean_us < 60.0,
            "PMD RTT out of range: {} µs",
            s.mean_us
        );
        // Exactly one doorbell per packet in the serial echo (device
        // sleeps between packets), and zero interrupts.
        assert_eq!(run.doorbells, 300);
        assert_eq!(result.irqs, 0);
        assert_eq!(run.irq_fallbacks, 0);
        assert!(run.poll_peeks >= 300, "each RTT polls at least once");
        assert!(run.cpu_us_per_packet > 0.0);
    }

    #[test]
    fn pmd_is_deterministic() {
        let a = run_pmd(&pmd_cfg(128, 200));
        let b = run_pmd(&pmd_cfg(128, 200));
        let (mut ra, mut rb) = (a.result, b.result);
        assert_eq!(ra.total_summary().mean_us, rb.total_summary().mean_us);
        assert_eq!(a.poll_peeks, b.poll_peeks);
    }

    #[test]
    fn adaptive_threshold_zero_always_falls_back() {
        let mut cfg = pmd_cfg(64, 150);
        cfg.options.pmd_adaptive_idle = Some(Time::ZERO);
        let run = run_pmd(&cfg);
        assert_eq!(
            run.irq_fallbacks, 150,
            "every wait exceeds a zero threshold"
        );
        assert_eq!(run.result.verify_failures, 0);
    }

    #[test]
    fn adaptive_large_threshold_never_falls_back() {
        let mut cfg = pmd_cfg(64, 150);
        cfg.options.pmd_adaptive_idle = Some(Time::from_us(1000));
        let run = run_pmd(&cfg);
        assert_eq!(run.irq_fallbacks, 0, "no wait reaches a 1 ms threshold");
        assert_eq!(run.result.verify_failures, 0);
    }

    #[test]
    fn paced_mode_burns_idle_and_holds_latency() {
        let mut cfg = pmd_cfg(256, 200);
        cfg.options.pmd_send_interval = Some(Time::from_us(100)); // 10k pps
        let paced = run_pmd(&cfg);
        let unpaced = run_pmd(&pmd_cfg(256, 200));
        // Pacing must not change per-packet latency (serial echo)...
        let (mut rp, mut ru) = (paced.result, unpaced.result);
        assert!((rp.total_summary().mean_us - ru.total_summary().mean_us).abs() < 1.0);
        // ...but the busy poller pays for the idle gaps in CPU: at 10k
        // pps it spins essentially the whole 100 µs inter-send interval.
        assert!(
            paced.cpu_us_per_packet > 3.0 * unpaced.cpu_us_per_packet
                && paced.cpu_us_per_packet > 90.0
                && paced.cpu_us_per_packet < 110.0,
            "paced {} vs unpaced {} µs/pkt",
            paced.cpu_us_per_packet,
            unpaced.cpu_us_per_packet
        );
    }
}
