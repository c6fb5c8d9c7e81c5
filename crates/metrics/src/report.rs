//! The finished-session report: sampled series, histograms, and
//! violations, with the JSON/CSV renderers behind `repro -- metrics`
//! and the schema validation the CI smoke step runs.
//!
//! A series is stored as the sampler's change points plus the
//! session's sample times, shared by every instrument; readers replay
//! it one point per sample through [`InstrumentReport::series`].

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::sync::Arc;

use crate::hist::LogLinearHist;
use crate::{Kind, Violation};

/// One instrument's final state and sampled history.
#[derive(Debug, Clone)]
pub struct InstrumentReport {
    /// Instrument name (`layer.object.metric`).
    pub name: &'static str,
    /// Instrument index (queue / tag / tenant id).
    pub index: u32,
    /// What the instrument measures.
    pub kind: Kind,
    /// Final value (counter total or last gauge level).
    pub last: i64,
    /// Change points `(sample ordinal, value)`: the value holds from
    /// that sample until the next point.
    pub(crate) points: Vec<(u64, i64)>,
    /// Sim time of every sample in the session, shared by all
    /// instruments of one report.
    pub(crate) times: Arc<[u64]>,
    /// The distribution, for histogram instruments.
    pub histogram: Option<LogLinearHist>,
}

impl InstrumentReport {
    /// Owning layer: the leading segment of the name.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    /// The sampled `(t_ps, value)` points, in time order: one per
    /// sample from the first sample after the instrument registered
    /// (none for histograms).
    pub fn series(&self) -> Series<'_> {
        let at = self
            .points
            .first()
            .map_or(self.times.len(), |&(k, _)| k as usize);
        Series {
            times: &self.times,
            points: &self.points,
            at,
        }
    }
}

/// Iterator over one instrument's per-sample series, replayed from its
/// change points (see [`InstrumentReport::series`]).
#[derive(Debug, Clone)]
pub struct Series<'a> {
    times: &'a [u64],
    /// Change points not yet passed; the first one holds at `at`.
    points: &'a [(u64, i64)],
    /// Ordinal of the next sample to yield.
    at: usize,
}

impl Iterator for Series<'_> {
    type Item = (u64, i64);

    fn next(&mut self) -> Option<(u64, i64)> {
        let &t = self.times.get(self.at)?;
        if let [_, (next, _), ..] = self.points {
            if *next as usize == self.at {
                self.points = &self.points[1..];
            }
        }
        let &(_, v) = self.points.first()?;
        self.at += 1;
        Some((t, v))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.times.len() - self.at;
        (n, Some(n))
    }
}

impl ExactSizeIterator for Series<'_> {}

/// Everything a metrics session observed, as returned by
/// [`finish`](crate::finish).
#[derive(Debug, Clone, Default)]
pub struct MetricsReport {
    /// Sampling interval the session ran at, in picoseconds.
    pub interval_ps: u64,
    /// Total samples taken (periodic plus explicit).
    pub samples: u64,
    /// Every registered instrument, in registration order.
    pub instruments: Vec<InstrumentReport>,
    /// Watchdog violations, in detection order.
    pub violations: Vec<Violation>,
}

impl MetricsReport {
    /// Look up one instrument by key.
    pub fn get(&self, name: &str, index: u32) -> Option<&InstrumentReport> {
        self.instruments
            .iter()
            .find(|i| i.name == name && i.index == index)
    }

    /// Final counter total summed across all indices of `name`.
    pub fn counter_total(&self, name: &str) -> i64 {
        self.instruments
            .iter()
            .filter(|i| i.name == name && i.kind == Kind::Counter)
            .map(|i| i.last)
            .sum()
    }

    /// The distinct layers that registered instruments, sorted.
    pub fn layers(&self) -> Vec<&'static str> {
        let set: BTreeSet<&'static str> = self.instruments.iter().map(|i| i.layer()).collect();
        set.into_iter().collect()
    }

    /// Schema check the `repro metrics` artifact runs on every world
    /// before writing its JSON: every layer in `required_layers`
    /// registered at least one instrument, and every counter series is
    /// non-decreasing. Returns the first problem.
    pub fn validate(&self, required_layers: &[&str]) -> Result<(), String> {
        let layers = self.layers();
        for req in required_layers {
            if !layers.contains(req) {
                return Err(format!(
                    "layer '{req}' registered no instruments (got: {layers:?})"
                ));
            }
        }
        for inst in &self.instruments {
            if inst.kind != Kind::Counter {
                continue;
            }
            if inst.last < 0 {
                return Err(format!(
                    "counter {}[{}] is negative: {}",
                    inst.name, inst.index, inst.last
                ));
            }
            let mut prev = None;
            for p in inst.series() {
                if let Some(q) = prev.filter(|q: &(u64, i64)| p.1 < q.1 || p.0 < q.0) {
                    return Err(format!(
                        "counter {}[{}] decreased: {q:?} -> {p:?}",
                        inst.name, inst.index
                    ));
                }
                prev = Some(p);
            }
        }
        Ok(())
    }

    /// Render the report as a single JSON document (hand-rolled like
    /// the Perfetto exporter; the workspace has no real serde).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push('{');
        let _ = write!(
            out,
            "\"interval_ps\":{},\"samples\":{},\"layers\":[",
            self.interval_ps, self.samples
        );
        for (i, layer) in self.layers().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{layer}\"");
        }
        out.push_str("],\"violations\":[");
        for (i, v) in self.violations.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"t_ps\":{},\"watchdog\":\"{}\",\"layer\":\"{}\",\
                 \"name\":\"{}\",\"index\":{},\"detail\":\"{}\"}}",
                v.t_ps,
                v.watchdog.name(),
                v.layer,
                v.name,
                v.index,
                escape(&v.detail)
            );
        }
        out.push_str("],\"instruments\":[");
        for (i, inst) in self.instruments.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"index\":{},\"kind\":\"{}\",\"last\":{}",
                inst.name,
                inst.index,
                inst.kind.name(),
                inst.last
            );
            out.push_str(",\"series\":[");
            for (j, (t, v)) in inst.series().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "[{t},{v}]");
            }
            out.push(']');
            if let Some(h) = &inst.histogram {
                let _ = write!(
                    out,
                    ",\"histogram\":{{\"count\":{},\"min\":{},\"max\":{},\
                     \"mean\":{:.3},\"p99\":{},\"buckets\":[",
                    h.count(),
                    h.min(),
                    h.max(),
                    h.mean(),
                    h.quantile(0.99)
                );
                for (j, b) in h.buckets().iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "[{},{},{}]", b.lo, b.hi, b.count);
                }
                out.push_str("]}");
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }

    /// Render every sampled point as long-format CSV
    /// (`t_ps,name,index,value`), in instrument registration order.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("t_ps,name,index,value\n");
        for inst in &self.instruments {
            for (t, v) in inst.series() {
                let _ = writeln!(out, "{t},{},{},{v}", inst.name, inst.index);
            }
        }
        out
    }

    /// Render the per-layer utilization/backlog text report printed by
    /// `repro -- metrics`: per instrument name (aggregated over
    /// indices), final totals for counters and min/mean/max over the
    /// sampled series for gauges.
    pub fn render(&self, title: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== {title}: {} instruments, {} samples @ {:.1} us, {} violations ==",
            self.instruments.len(),
            self.samples,
            self.interval_ps as f64 / 1e6,
            self.violations.len()
        );
        for layer in self.layers() {
            let _ = writeln!(out, "[{layer}]");
            let names: BTreeSet<&'static str> = self
                .instruments
                .iter()
                .filter(|i| i.layer() == layer)
                .map(|i| i.name)
                .collect();
            for name in names {
                let insts: Vec<&InstrumentReport> =
                    self.instruments.iter().filter(|i| i.name == name).collect();
                let n = insts.len();
                match insts[0].kind {
                    Kind::Counter => {
                        let total: i64 = insts.iter().map(|i| i.last).sum();
                        let _ = writeln!(out, "  {name:<34} counter x{n:<3} total {total}");
                    }
                    Kind::Gauge => {
                        let mut lo = i64::MAX;
                        let mut hi = i64::MIN;
                        let mut sum = 0.0;
                        let mut points = 0usize;
                        for i in &insts {
                            for (_, v) in i.series() {
                                lo = lo.min(v);
                                hi = hi.max(v);
                                sum += v as f64;
                                points += 1;
                            }
                        }
                        if points == 0 {
                            lo = 0;
                            hi = 0;
                        }
                        let mean = if points == 0 {
                            0.0
                        } else {
                            sum / points as f64
                        };
                        let _ = writeln!(
                            out,
                            "  {name:<34} gauge   x{n:<3} min {lo} mean {mean:.2} max {hi}"
                        );
                    }
                    Kind::Histogram => {
                        let mut count = 0u64;
                        let mut max = 0u64;
                        for i in &insts {
                            if let Some(h) = &i.histogram {
                                count += h.count();
                                max = max.max(h.max());
                            }
                        }
                        let _ =
                            writeln!(out, "  {name:<34} hist    x{n:<3} count {count} max {max}");
                    }
                }
            }
        }
        for v in &self.violations {
            let _ = writeln!(
                out,
                "VIOLATION {} at {:.3} us: {}[{}] {}",
                v.watchdog.name(),
                v.t_ps as f64 / 1e6,
                v.name,
                v.index,
                v.detail
            );
        }
        out
    }
}

/// Minimal JSON string escaping for detail text.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{counter_add, finish, gauge_set, hist_record, install, sample_at, MetricsConfig};

    fn sample_report() -> MetricsReport {
        install(MetricsConfig::default());
        counter_add("pcie.wire.bytes", 0, 100);
        gauge_set("virtio.queue.avail_backlog", 1, 3);
        hist_record("fpga.h2c.window_ns", 0, 640);
        sample_at(10);
        counter_add("pcie.wire.bytes", 0, 50);
        sample_at(20);
        finish()
    }

    #[test]
    fn layers_validation_and_lookup() {
        let r = sample_report();
        assert_eq!(r.layers(), vec!["fpga", "pcie", "virtio"]);
        r.validate(&["pcie", "virtio", "fpga"]).unwrap();
        assert!(r.validate(&["tenant"]).is_err());
        assert_eq!(r.counter_total("pcie.wire.bytes"), 150);
        assert_eq!(
            r.get("pcie.wire.bytes", 0)
                .unwrap()
                .series()
                .collect::<Vec<_>>(),
            vec![(10, 100), (20, 150)]
        );
    }

    #[test]
    fn validation_rejects_decreasing_counter() {
        let mut r = sample_report();
        let inst = r
            .instruments
            .iter_mut()
            .find(|i| i.kind == Kind::Counter)
            .unwrap();
        // The counter's last change point (150 at t=20) drops to 0.
        inst.points.last_mut().unwrap().1 = 0;
        let err = r.validate(&[]).unwrap_err();
        assert!(err.contains("decreased"), "{err}");
    }

    #[test]
    fn json_and_csv_round_out() {
        let r = sample_report();
        let json = r.to_json();
        // Structural spot checks; the CI smoke step parses this with a
        // real JSON parser.
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"name\":\"pcie.wire.bytes\""));
        assert!(json.contains("\"series\":[[10,100],[20,150]]"));
        assert!(json.contains("\"histogram\":{\"count\":1"));
        assert!(json.contains("\"layers\":[\"fpga\",\"pcie\",\"virtio\"]"));
        assert_eq!(json.matches("\"violations\":[]").count(), 1);

        let csv = r.to_csv();
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some("t_ps,name,index,value"));
        assert!(csv.contains("20,pcie.wire.bytes,0,150"));
        assert!(csv.contains("10,virtio.queue.avail_backlog,1,3"));

        let text = r.render("unit");
        assert!(text.contains("[pcie]"));
        assert!(text.contains("counter"));
    }

    #[test]
    fn json_escapes_details() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }
}
