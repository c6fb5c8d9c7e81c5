//! Hardware performance counters.
//!
//! "The PCIe IP and the VirtIO controller both include hardware
//! performance counters to measure latency between different events on
//! the FPGA. The FPGA designs used for testing are running at 125 MHz.
//! Therefore, the hardware performance counters provide a resolution of
//! 8 ns." (§III-B3)
//!
//! A [`PerfCounter`] is armed at one FSM event and read at another; the
//! measured interval is quantized to whole fabric cycles exactly as a
//! free-running counter sampled at both events would be. Banks of
//! counters aggregate per-packet measurements into the hardware-side
//! statistics of Figs. 4–5.

use vf_metrics::{Counter, Gauge, Histogram};
use vf_sim::{Time, Welford, FPGA_CYCLE};

/// One start/stop interval counter with 8 ns quantization.
#[derive(Clone, Copy, Debug, Default)]
pub struct PerfCounter {
    started_at: Option<Time>,
}

impl PerfCounter {
    /// Arm the counter at simulated instant `t`.
    pub fn start(&mut self, t: Time) {
        self.started_at = Some(t);
    }

    /// True if armed.
    pub fn running(&self) -> bool {
        self.started_at.is_some()
    }

    /// Non-consuming read of the interval a later [`Self::stop`] at `t`
    /// would capture. The counter stays armed — a free-running hardware
    /// counter can be sampled mid-interval without disturbing the
    /// eventual read, and the observability layer relies on that to poll
    /// in-flight phases between events. Returns `None` if not armed.
    pub fn peek(&self, t: Time) -> Option<Time> {
        let start = self.started_at?;
        Some(
            t.quantize(FPGA_CYCLE)
                .saturating_sub(start.quantize(FPGA_CYCLE)),
        )
    }

    /// Capture the interval from arm to `t`, quantized to fabric cycles
    /// (each endpoint is sampled on a cycle edge, so the measured value
    /// is the difference of the two quantized timestamps). Returns
    /// `None` if the counter was not armed — a real counter register
    /// would return a stale reading; modeling it as an explicit `None`
    /// lets call sites decide (the FSMs treat it as a protocol bug and
    /// unwrap with context).
    #[must_use = "an unarmed stop yields no interval"]
    pub fn stop(&mut self, t: Time) -> Option<Time> {
        let start = self.started_at.take()?;
        Some(
            t.quantize(FPGA_CYCLE)
                .saturating_sub(start.quantize(FPGA_CYCLE)),
        )
    }
}

/// Accumulated statistics for one named hardware interval.
#[derive(Clone, Debug, Default)]
pub struct IntervalStats {
    counter: PerfCounter,
    /// Aggregate of captured intervals (µs).
    pub stats: Welford,
    /// Last captured interval.
    pub last: Time,
    /// Trace name; named counters emit a device-layer span per captured
    /// interval (e.g. `"hw_h2c"`), anonymous ones stay silent.
    name: Option<&'static str>,
    /// The `fpga.engine.*` instruments of the three round-trip phases.
    metrics: Option<PhaseMetrics>,
}

/// One round-trip phase's `fpga.engine.*` instruments.
#[derive(Clone, Debug)]
struct PhaseMetrics {
    busy: Gauge,
    captures: Counter,
    interval: Histogram,
}

/// A non-consuming view of an [`IntervalStats`] taken mid-run: the
/// aggregate so far plus whatever interval is currently in flight. The
/// underlying counter is untouched, so a later `stop` captures exactly
/// what it would have without the snapshot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IntervalSnapshot {
    /// Captured intervals folded into the aggregate so far.
    pub count: u64,
    /// Last captured interval.
    pub last: Time,
    /// If armed, the interval a `stop` at the snapshot instant would
    /// have measured.
    pub in_flight: Option<Time>,
}

/// Map a named hardware counter to its vf-metrics instrument index so
/// the three round-trip phases land on distinct series.
fn engine_metric_index(name: &'static str) -> Option<u32> {
    match name {
        "hw_h2c" => Some(0),
        "hw_c2h" => Some(1),
        "device_proc" => Some(2),
        _ => None,
    }
}

impl IntervalStats {
    /// A counter whose captures are traced under `name`.
    pub fn named(name: &'static str) -> Self {
        IntervalStats {
            name: Some(name),
            metrics: engine_metric_index(name).map(|idx| PhaseMetrics {
                busy: Gauge::new("fpga.engine.busy", idx),
                captures: Counter::new("fpga.engine.captures", idx),
                interval: Histogram::new("fpga.engine.interval_ps", idx),
            }),
            ..Self::default()
        }
    }

    /// Arm at `t`.
    pub fn start(&mut self, t: Time) {
        self.counter.start(t);
        if let Some(m) = &self.metrics {
            m.busy.set(1);
        }
    }

    /// Snapshot the aggregate and any in-flight interval at `t` without
    /// consuming the armed counter (regression-tested: stop-after-
    /// snapshot equals stop-alone).
    pub fn snapshot(&self, t: Time) -> IntervalSnapshot {
        IntervalSnapshot {
            count: self.stats.count(),
            last: self.last,
            in_flight: self.counter.peek(t),
        }
    }

    /// Capture at `t`, folding into the aggregate; returns the interval.
    /// An unarmed capture is ignored (interval zero, aggregate
    /// untouched) — the paper's counters are read-on-event, and a
    /// spurious event before arming must not corrupt the statistics.
    pub fn stop(&mut self, t: Time) -> Time {
        let Some(interval) = self.counter.stop(t) else {
            return Time::ZERO;
        };
        self.stats.add_time(interval);
        self.last = interval;
        if let (true, Some(m)) = (vf_metrics::is_enabled(), &self.metrics) {
            vf_metrics::batch(|b| {
                b.gauge_set(&m.busy, 0);
                b.counter_add(&m.captures, 1);
                b.hist_record(&m.interval, interval.as_ps());
            });
        }
        if let Some(name) = self.name {
            // The counter samples both endpoints on cycle edges; the span
            // [t_q - interval, t_q] is exactly the measured window.
            let end = t.quantize(FPGA_CYCLE);
            vf_trace::span_at(
                vf_trace::Layer::Device,
                name,
                end.saturating_sub(interval),
                end,
                0,
                0,
            );
        }
        interval
    }

    /// Number of captured intervals.
    pub fn count(&self) -> u64 {
        self.stats.count()
    }
}

/// The counter bank the testbed reads per packet: the hardware phases of
/// one round trip as the paper's breakdown defines them.
#[derive(Clone, Debug)]
pub struct RoundTripCounters {
    /// Notification arrival → request data fully on the FPGA (H2C phase).
    pub h2c: IntervalStats,
    /// Response ready → interrupt on the wire (C2H phase).
    pub c2h: IntervalStats,
    /// User-logic processing (response generation) — measured so the
    /// harness can deduct it, as §IV-B prescribes.
    pub processing: IntervalStats,
}

impl Default for RoundTripCounters {
    fn default() -> Self {
        RoundTripCounters {
            h2c: IntervalStats::named("hw_h2c"),
            c2h: IntervalStats::named("hw_c2h"),
            processing: IntervalStats::named("device_proc"),
        }
    }
}

impl RoundTripCounters {
    /// Total hardware time of the last packet (H2C + C2H phases, not the
    /// deducted processing).
    pub fn last_hw(&self) -> Time {
        self.h2c.last + self.c2h.last
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_quantized_to_8ns() {
        let mut c = PerfCounter::default();
        c.start(Time::from_ns(3));
        // 3 ns quantizes to 0; 101 ns quantizes to 96 → interval 96 ns.
        assert_eq!(c.stop(Time::from_ns(101)), Some(Time::from_ns(96)));
    }

    #[test]
    fn exact_cycle_boundaries_pass_through() {
        let mut c = PerfCounter::default();
        c.start(Time::from_ns(16));
        assert_eq!(c.stop(Time::from_ns(96)), Some(Time::from_ns(80)));
    }

    #[test]
    fn sub_cycle_interval_reads_zero() {
        let mut c = PerfCounter::default();
        c.start(Time::from_ns(17));
        assert_eq!(c.stop(Time::from_ns(23)), Some(Time::ZERO));
    }

    #[test]
    fn stop_without_start_returns_none() {
        // Regression: this used to panic; an unarmed stop is now a
        // recoverable condition surfaced in the type.
        let mut c = PerfCounter::default();
        assert_eq!(c.stop(Time::from_ns(8)), None);
        assert!(!c.running());
        // The counter still works after the unarmed stop.
        c.start(Time::from_ns(8));
        assert_eq!(c.stop(Time::from_ns(24)), Some(Time::from_ns(16)));
    }

    #[test]
    fn interval_stats_ignore_unarmed_stop() {
        let mut s = IntervalStats::default();
        assert_eq!(s.stop(Time::from_us(1)), Time::ZERO);
        assert_eq!(s.count(), 0);
        s.start(Time::ZERO);
        s.stop(Time::from_us(2));
        assert_eq!(s.count(), 1);
        assert_eq!(s.last, Time::from_us(2));
    }

    #[test]
    fn interval_stats_aggregate() {
        let mut s = IntervalStats::default();
        for i in 0..10u64 {
            s.start(Time::from_us(i * 100));
            s.stop(Time::from_us(i * 100 + 2));
        }
        assert_eq!(s.count(), 10);
        assert!((s.stats.mean() - 2.0).abs() < 1e-9);
        assert_eq!(s.last, Time::from_us(2));
    }

    #[test]
    fn named_interval_emits_device_span() {
        vf_trace::install(Box::new(vf_trace::RingBufferSink::new(8)));
        let mut s = IntervalStats::named("hw_h2c");
        s.start(Time::from_ns(100));
        s.stop(Time::from_ns(500));
        let evs = vf_trace::finish();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].layer, vf_trace::Layer::Device);
        assert_eq!(evs[0].name, "hw_h2c");
        assert_eq!(evs[0].dur(), s.last);
    }

    #[test]
    fn snapshot_does_not_consume_the_armed_counter() {
        // Regression for the observability layer: polling an in-flight
        // phase mid-interval must not change what stop() captures.
        let mut observed = IntervalStats::named("hw_h2c");
        let mut control = IntervalStats::named("hw_h2c");
        for stats in [&mut observed, &mut control] {
            stats.start(Time::from_ns(100));
        }
        let snap = observed.snapshot(Time::from_ns(500));
        assert_eq!(snap.count, 0);
        assert_eq!(snap.in_flight, Some(Time::from_ns(400)));
        // Repeated snapshots are idempotent.
        assert_eq!(observed.snapshot(Time::from_ns(500)), snap);
        let a = observed.stop(Time::from_ns(900));
        let b = control.stop(Time::from_ns(900));
        assert_eq!(a, b);
        assert_eq!(observed.count(), control.count());
        assert_eq!(observed.last, control.last);
        // After the capture, nothing is in flight.
        let done = observed.snapshot(Time::from_ns(1000));
        assert_eq!(done.count, 1);
        assert_eq!(done.in_flight, None);
        assert_eq!(done.last, a);
    }

    #[test]
    fn peek_on_unarmed_counter_is_none() {
        let c = PerfCounter::default();
        assert_eq!(c.peek(Time::from_ns(8)), None);
    }

    #[test]
    fn round_trip_bank_sums_phases() {
        let mut b = RoundTripCounters::default();
        b.h2c.start(Time::ZERO);
        b.h2c.stop(Time::from_us(10));
        b.c2h.start(Time::from_us(20));
        b.c2h.stop(Time::from_us(25));
        assert_eq!(b.last_hw(), Time::from_us(15));
    }
}
