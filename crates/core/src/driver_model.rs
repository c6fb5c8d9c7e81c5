//! The generic driver-model harness.
//!
//! Every driver stack under test — the in-kernel VirtIO split and packed
//! front ends, the XDMA character-device driver, and the userspace
//! poll-mode driver — is one [`DriverModel`]: a discrete-event
//! [`World`] plus a bring-up constructor and a result extractor. The
//! single [`run_world`] harness owns everything the per-driver arms of
//! `Testbed::run` used to copy: scheduling the first application send,
//! running the event loop, asserting the workload drained, and
//! assembling the [`RunResult`].
//!
//! The hook mapping, for readers coming from the per-driver worlds:
//!
//! * **probe** — [`DriverModel::build`]: enumeration, feature
//!   negotiation, queue programming, stack configuration;
//! * **tx / rx / irq / poll** — the world's event arms, reached through
//!   [`World::deliver`] (an `AppSend` is the tx hook, a doorbell the
//!   device-side rx hook, an interrupt or inline poll loop the
//!   completion hook — which of these a driver has *is* the design
//!   difference the paper measures);
//! * **measurement** — the shared [`RoundTripRecorder`], one per world,
//!   harvested by [`DriverModel::finish`] together with the
//!   driver-specific event counters ([`RunStats`]).

use vf_fpga::DeviceStats;
use vf_hostsw::CostEngine;
use vf_sim::{SampleSet, Simulation, Time, World};

use crate::report::RunResult;
use crate::testbed::TestbedConfig;

/// Per-run measurement accumulator shared by every driver model: the
/// paper's four per-packet series plus workload progress tracking.
pub struct RoundTripRecorder {
    /// Total round-trip samples (host clock).
    pub totals: SampleSet,
    /// Hardware (FPGA counter) samples.
    pub hw: SampleSet,
    /// Derived software samples: total − hw − response generation.
    pub sw: SampleSet,
    /// Response-generation samples (deducted per §IV-B).
    pub proc: SampleSet,
    /// Echo payloads that failed verification (must stay 0).
    pub verify_failures: u64,
    /// Round trips still to complete; the harness asserts this reaches 0.
    pub packets_left: usize,
    /// Send timestamp of the round trip in flight.
    pub t0: Time,
    /// Open root trace span of the round trip in flight
    /// ([`vf_trace::SpanId::NONE`] when tracing is disabled).
    pub root: vf_trace::SpanId,
}

impl RoundTripRecorder {
    /// A recorder expecting `packets` round trips.
    pub fn new(packets: usize) -> Self {
        RoundTripRecorder {
            totals: SampleSet::with_capacity(packets),
            hw: SampleSet::with_capacity(packets),
            sw: SampleSet::with_capacity(packets),
            proc: SampleSet::with_capacity(packets),
            verify_failures: 0,
            packets_left: packets,
            t0: Time::ZERO,
            root: vf_trace::SpanId::NONE,
        }
    }

    /// Mark the start of a round trip at `t0` and open its root trace
    /// span (`name` is the driver's root-span label, `payload` the
    /// request size in bytes). Every world calls this where it used to
    /// assign `t0` directly, so each round trip becomes one span tree.
    pub fn begin_rtt(&mut self, t0: Time, name: &'static str, payload: u64) {
        self.t0 = t0;
        self.root = vf_trace::begin(vf_trace::Layer::App, name, t0, payload);
    }

    /// Record one completed round trip ending at `t_end` with hardware
    /// time `hw` and response-generation time `proc`.
    pub fn record(&mut self, t_end: Time, hw: Time, proc: Time) {
        // Host clock_gettime(CLOCK_MONOTONIC): 1 ns resolution.
        let total = (t_end - self.t0).quantize(Time::from_ns(1));
        self.totals.push(total);
        self.hw.push(hw);
        self.proc.push(proc);
        self.sw.push(total.saturating_sub(hw).saturating_sub(proc));
        self.packets_left -= 1;
        vf_trace::end(self.root, t_end);
        self.root = vf_trace::SpanId::NONE;
    }

    /// Close the round trip the application sees end at `t` ([`record`]),
    /// then run its loop back to the next send. Returns when that send
    /// starts, or `None` once the workload is done.
    ///
    /// [`record`]: Self::record
    pub(crate) fn close(
        &mut self,
        t: Time,
        hw: Time,
        proc: Time,
        cost: &mut CostEngine,
    ) -> Option<Time> {
        self.record(t, hw, proc);
        (self.packets_left > 0).then(|| t + cost.step(cost.costs.app_loop_overhead))
    }
}

/// Driver-specific event counters extracted at the end of a run.
#[derive(Clone, Copy, Debug, Default)]
pub struct RunStats {
    /// Doorbells rung / transfers initiated by the host.
    pub notifications: u64,
    /// Interrupts the device raised.
    pub irqs: u64,
    /// Device-side PCIe reads spent fetching descriptor/ring metadata
    /// (not payload) — the split-vs-packed structural metric of E17.
    /// Zero where the engine does not track it (XDMA).
    pub desc_reads: u64,
    /// Highest number of non-posted reads one virtqueue-walker DMA tag
    /// held in flight at once (E20). Zero for the serial walkers
    /// (`pipeline_depth = 1`) and for engines that do not pipeline.
    pub walker_peak_inflight: u64,
}

impl From<&DeviceStats> for RunStats {
    /// A VirtIO device's counters as they stand.
    fn from(stats: &DeviceStats) -> Self {
        RunStats {
            notifications: stats.notifications,
            irqs: stats.irqs_sent,
            desc_reads: stats.desc_reads,
            walker_peak_inflight: stats.walker_peak_inflight,
        }
    }
}

/// A pluggable driver stack: a discrete-event [`World`] that can bring
/// itself up from a [`TestbedConfig`] and surrender its measurements.
pub trait DriverModel: World + Sized {
    /// Driver-specific telemetry surfaced next to the [`RunResult`]
    /// (`()` for the kernel drivers; poll economics for the PMD).
    type Telemetry;

    /// Bring up the full stack for `cfg`: enumeration, probe, queue
    /// programming, host configuration. Must be deterministic in
    /// `cfg.seed`.
    fn build(cfg: &TestbedConfig) -> Self;

    /// The first application event (scheduled once by the harness).
    fn initial_event() -> Self::Msg;

    /// Describe a message for the trace: the layer the delivery belongs
    /// to and a static label (e.g. a doorbell arrival is
    /// `(Layer::Device, "doorbell")`). `None` (the default) emits
    /// nothing; deliveries are only annotated when tracing is on.
    fn describe(_msg: &Self::Msg) -> Option<(vf_trace::Layer, &'static str)> {
        None
    }

    /// Tear down: yield the recorder, the run counters, and any
    /// driver-specific telemetry.
    fn finish(self) -> (RoundTripRecorder, RunStats, Self::Telemetry);
}

/// Simulated-time horizon of every run; a workload still busy here is
/// wedged.
const HORIZON: Time = Time::from_secs(3600);

/// When a windowed workload's pumps first fire.
pub(crate) const WINDOW_START: Time = Time::from_us(10);

/// Run one driver model to completion — the single copy of the
/// "schedule → run → assert drained → build result" epilogue that every
/// driver previously duplicated.
pub fn run_world<D: DriverModel + 'static>(cfg: &TestbedConfig) -> (RunResult, D::Telemetry) {
    let mut sim = Simulation::new(D::build(cfg));
    if vf_trace::is_enabled() {
        // Mark each delivery the driver cares to describe with an
        // instant at its delivery time. Installed only when a session is
        // live, so untraced runs keep a hook-free step loop.
        sim.set_delivery_hook(Some(Box::new(|t, msg: &D::Msg| {
            if let Some((layer, name)) = D::describe(msg) {
                vf_trace::instant(layer, name, t, 0, 0);
            }
        })));
    }
    sim.schedule(Time::from_us(10), D::initial_event());
    sim.run_expect_idle(HORIZON, 200_000_000, "simulation");
    let (rec, stats, telemetry) = sim.world.finish();
    assert_eq!(rec.packets_left, 0, "packets lost in flight");
    let result = RunResult::from_parts(
        cfg.clone(),
        rec.totals,
        rec.hw,
        rec.sw,
        rec.proc,
        rec.verify_failures,
        stats.notifications,
        stats.irqs,
        stats.desc_reads,
    );
    (result, telemetry)
}

/// Run a windowed workload to completion — the counterpart of
/// [`run_world`] for worlds that keep many requests in flight and
/// report throughput: deliver every `starts` message at
/// [`WINDOW_START`], run until the queue drains (panicking that `what`
/// wedged if it does not), and return the drained world with the span
/// the run took from [`WINDOW_START`].
pub(crate) fn run_windowed<W: World>(
    world: W,
    starts: impl IntoIterator<Item = W::Msg>,
    what: &str,
) -> (W, Time) {
    let mut sim = Simulation::new(world);
    for msg in starts {
        sim.schedule_at(WINDOW_START, msg);
    }
    sim.run_expect_idle(HORIZON, 500_000_000, what);
    let elapsed = sim.now() - WINDOW_START;
    (sim.world, elapsed)
}
