//! Run results and report rendering.
//!
//! One [`RunResult`] corresponds to one cell of the paper's evaluation
//! (a driver × payload combination): the full latency sample sets plus
//! the summary statistics that feed Figures 3–5 and Table I.

use vf_sim::{Histogram, SampleSet, Summary};

use crate::testbed::{DriverKind, TestbedConfig};

/// The measurements of one testbed run.
pub struct RunResult {
    /// Driver under test.
    pub driver: DriverKind,
    /// Payload size (bytes).
    pub payload: usize,
    /// Packets measured.
    pub packets: usize,
    /// Experiment seed.
    pub seed: u64,
    /// Round-trip latency samples (µs).
    pub total: SampleSet,
    /// Hardware (FPGA counter) samples (µs).
    pub hw: SampleSet,
    /// Derived software samples: total − hw − response generation (µs).
    pub sw: SampleSet,
    /// Response-generation samples (deducted per §IV-B) (µs).
    pub proc: SampleSet,
    /// Packets whose echoed data failed verification (must be 0).
    pub verify_failures: u64,
    /// Doorbells / transfers initiated.
    pub notifications: u64,
    /// Interrupts the device raised.
    pub irqs: u64,
    /// Device-side PCIe descriptor/ring-metadata reads (0 where the
    /// engine does not track them).
    pub desc_reads: u64,
}

impl RunResult {
    /// Assemble from testbed parts.
    #[allow(clippy::too_many_arguments)]
    pub fn from_parts(
        cfg: TestbedConfig,
        total: SampleSet,
        hw: SampleSet,
        sw: SampleSet,
        proc: SampleSet,
        verify_failures: u64,
        notifications: u64,
        irqs: u64,
        desc_reads: u64,
    ) -> Self {
        RunResult {
            driver: cfg.driver,
            payload: cfg.payload,
            packets: cfg.packets,
            seed: cfg.seed,
            total,
            hw,
            sw,
            proc,
            verify_failures,
            notifications,
            irqs,
            desc_reads,
        }
    }

    /// Summary of the round-trip distribution.
    pub fn total_summary(&mut self) -> Summary {
        self.total.summary()
    }

    /// Summary of the hardware-time distribution.
    pub fn hw_summary(&mut self) -> Summary {
        self.hw.summary()
    }

    /// Summary of the software-time distribution.
    pub fn sw_summary(&mut self) -> Summary {
        self.sw.summary()
    }

    /// Summary of the response-generation distribution.
    pub fn proc_summary(&mut self) -> Summary {
        self.proc.summary()
    }

    /// Histogram of the round-trip distribution over `[lo, hi)` µs.
    pub fn histogram(&self, lo: f64, hi: f64, bins: usize) -> Histogram {
        self.total.histogram(lo, hi, bins)
    }
}

/// Render a Table I-style block from `(payload, virtio, xdma)` summaries.
pub fn render_table1(rows: &[(usize, Summary, Summary)]) -> String {
    let mut out = String::new();
    out.push_str(
        "Payload |   95% (us)    |   99% (us)    |  99.9% (us)\n(Bytes) | VirtIO  XDMA  | VirtIO  XDMA  | VirtIO  XDMA\n--------+---------------+---------------+--------------\n",
    );
    for (payload, v, x) in rows {
        out.push_str(&format!(
            "{:>7} | {:>6.1} {:>6.1} | {:>6.1} {:>6.1} | {:>6.1} {:>6.1}\n",
            payload, v.p95_us, x.p95_us, v.p99_us, x.p99_us, v.p999_us, x.p999_us
        ));
    }
    out
}

/// Render a Fig. 4/5-style breakdown block: per payload, mean±σ of the
/// software and hardware components.
pub fn render_breakdown(driver: DriverKind, rows: &[(usize, Summary, Summary)]) -> String {
    let mut out = format!(
        "Latency breakdown — {} driver (mean ± sd, us)\nPayload |   software      |   hardware      | hw > sw?\n--------+-----------------+-----------------+---------\n",
        driver.name()
    );
    for (payload, sw, hw) in rows {
        out.push_str(&format!(
            "{:>7} | {:>6.2} ± {:>5.2} | {:>6.2} ± {:>5.2} | {}\n",
            payload,
            sw.mean_us,
            sw.std_us,
            hw.mean_us,
            hw.std_us,
            if hw.mean_us > sw.mean_us { "yes" } else { "no" }
        ));
    }
    out
}

/// Jain's fairness index over per-group allocations:
/// `(Σxᵢ)² / (n · Σxᵢ²)`. Ranges from `1/n` (one group hogs
/// everything) to `1.0` (perfectly even split). Degenerate inputs —
/// no groups, or every allocation zero — report `1.0`: nothing is
/// being shared, so nothing is being shared unfairly.
pub fn jain_fairness(allocations: &[f64]) -> f64 {
    let n = allocations.len();
    if n == 0 {
        return 1.0;
    }
    let sum: f64 = allocations.iter().sum();
    let sum_sq: f64 = allocations.iter().map(|x| x * x).sum();
    if sum_sq == 0.0 {
        1.0
    } else {
        (sum * sum) / (n as f64 * sum_sq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vf_sim::Time;

    fn sample_set(vals: &[f64]) -> SampleSet {
        SampleSet::from_us(vals.to_vec())
    }

    fn result() -> RunResult {
        let cfg = TestbedConfig::paper(DriverKind::Virtio, 64, 4, 1);
        RunResult::from_parts(
            cfg,
            sample_set(&[30.0, 31.0, 29.0, 40.0]),
            sample_set(&[15.0, 15.0, 15.0, 15.0]),
            sample_set(&[14.0, 15.0, 13.0, 24.0]),
            sample_set(&[1.0, 1.0, 1.0, 1.0]),
            0,
            4,
            4,
            16,
        )
    }

    #[test]
    fn summaries_consistent() {
        let mut r = result();
        let t = r.total_summary();
        let h = r.hw_summary();
        let s = r.sw_summary();
        let p = r.proc_summary();
        assert_eq!(t.n, 4);
        // total ≈ hw + sw + proc in the mean.
        assert!((t.mean_us - (h.mean_us + s.mean_us + p.mean_us)).abs() < 1e-9);
    }

    #[test]
    fn table1_renders_all_rows() {
        let mut a = sample_set(&[30.0, 35.0, 44.0, 66.0]);
        let mut b = sample_set(&[40.0, 51.0, 70.0, 85.0]);
        let rows = vec![(64usize, a.summary(), b.summary())];
        let t = render_table1(&rows);
        assert!(t.contains("Payload"));
        assert!(t.contains("64"));
        assert!(t.lines().count() >= 4);
    }

    #[test]
    fn breakdown_flags_hw_dominance() {
        let mut sw = sample_set(&[10.0, 10.0]);
        let mut hw = sample_set(&[15.0, 15.0]);
        let rows = vec![(64usize, sw.summary(), hw.summary())];
        let s = render_breakdown(DriverKind::Virtio, &rows);
        assert!(s.contains("yes"));
    }

    #[test]
    fn histogram_covers_samples() {
        let r = result();
        let h = r.histogram(0.0, 100.0, 20);
        assert_eq!(h.total(), 4);
    }

    #[test]
    fn jain_index_exact_values() {
        // Perfectly even split.
        assert_eq!(jain_fairness(&[1.0, 1.0, 1.0, 1.0]), 1.0);
        // One of four hogs everything: 1/n.
        assert_eq!(jain_fairness(&[5.0, 0.0, 0.0, 0.0]), 0.25);
        // (2+4)² / (2·(4+16)) = 36/40 = 0.9 exactly.
        assert_eq!(jain_fairness(&[2.0, 4.0]), 0.9);
        // Scale-invariant.
        assert_eq!(jain_fairness(&[200.0, 400.0]), 0.9);
        // Degenerate inputs.
        assert_eq!(jain_fairness(&[]), 1.0);
        assert_eq!(jain_fairness(&[0.0, 0.0]), 1.0);
    }

    #[test]
    fn quantized_record_units() {
        // Guard: Time → µs conversion in SampleSet.
        let mut s = SampleSet::with_capacity(1);
        s.push(Time::from_us(42));
        assert_eq!(s.raw()[0], 42.0);
    }
}
