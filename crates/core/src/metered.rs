//! Metered testbed runs: execute a world with a live `vf-metrics`
//! session and return both the ordinary result and the sampled
//! [`MetricsReport`].
//!
//! The companion of [`crate::traced`]: where a traced run captures the
//! span stream, a metered run captures periodic time-series of every
//! instrument plus whatever invariant violations the watchdogs saw.
//! Metering is pure observation — the sampler is driven by the engine
//! between event deliveries, draws no randomness, and never advances
//! simulated time — so a metered run's `RunResult` is bit-identical to
//! an unmetered one (asserted by `tests/metrics_reconcile.rs`).

use vf_metrics::{MetricsConfig, MetricsReport};

use crate::report::RunResult;
use crate::testbed::{Testbed, TestbedConfig};

/// One testbed run plus the metrics sampled while it executed.
pub struct MeteredRun {
    /// The run's ordinary measurements (identical to an unmetered run).
    pub result: RunResult,
    /// Every instrument's series and the watchdog violations.
    pub report: MetricsReport,
}

/// Uninstall the session if the metered closure panics, so a failing
/// test does not poison the thread-local for whatever runs next.
struct SessionGuard;

impl Drop for SessionGuard {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let _ = vf_metrics::uninstall();
        }
    }
}

/// Run `f` with a metrics session installed on the calling thread and
/// return its value together with the finished report. The generic
/// entry point — the MQ/pipeline/tenant throughput worlds run through
/// this directly. Panics if a session is already active.
pub fn metered<R>(cfg: MetricsConfig, f: impl FnOnce() -> R) -> (R, MetricsReport) {
    assert!(
        !vf_metrics::is_enabled(),
        "metered: a metrics session is already installed on this thread"
    );
    vf_metrics::install(cfg);
    let guard = SessionGuard;
    let value = f();
    drop(guard);
    (value, vf_metrics::finish())
}

/// Run one round-trip testbed configuration with default metering
/// (10 µs sampling).
pub fn metered_run(cfg: &TestbedConfig) -> MeteredRun {
    metered_run_with(cfg, MetricsConfig::default())
}

/// Run one round-trip testbed configuration with an explicit sampler
/// configuration.
pub fn metered_run_with(cfg: &TestbedConfig, mcfg: MetricsConfig) -> MeteredRun {
    let (result, report) = metered(mcfg, || Testbed::new(cfg.clone()).run());
    MeteredRun { result, report }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testbed::DriverKind;

    #[test]
    fn metered_run_samples_and_leaves_no_session() {
        let cfg = TestbedConfig::paper(DriverKind::Virtio, 256, 10, 7);
        let run = metered_run(&cfg);
        assert!(!vf_metrics::is_enabled(), "session must be torn down");
        assert_eq!(run.result.packets, 10);
        assert!(run.report.samples > 0, "sampler never fired");
        assert!(
            run.report.violations.is_empty(),
            "healthy run flagged: {:?}",
            run.report.violations
        );
        // Every instrumented layer of the single-queue world reports.
        for layer in ["pcie", "virtio", "fpga", "hostsw", "sim"] {
            assert!(
                run.report.layers().contains(&layer),
                "layer {layer} missing from {:?}",
                run.report.layers()
            );
        }
    }

    #[test]
    fn metered_wraps_arbitrary_closures() {
        let (value, report) = metered(MetricsConfig::default(), || {
            vf_metrics::Counter::new("test.closure.runs", 0).add(1);
            vf_metrics::sample_at(50);
            42
        });
        assert_eq!(value, 42);
        assert_eq!(report.counter_total("test.closure.runs"), 1);
    }
}
