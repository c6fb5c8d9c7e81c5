//! Property test of the metrics session against a naive model: random
//! interleavings of the five update functions with `sample_at` and
//! `sample_before`, over a handful of keys that register at random
//! points in the run. The model keeps every instrument's value and
//! appends a `(t, value)` point to every counter and gauge at every
//! sample; the session must report exactly the same series, finals,
//! histogram counts and sample count. The report replays each series
//! from change points, so the script also registers instruments after
//! several samples have passed and instruments no sample ever sees.
//! Every third update goes through a typed handle kept across cases,
//! so each case's session must re-register handles an earlier session
//! resolved; the others go through a fresh handle, and a kept and a
//! fresh handle of one key must land on one instrument.

use std::collections::HashMap;

use proptest::collection::vec;
use proptest::prelude::*;

use vf_metrics::{Counter, Gauge, Histogram, Kind, MetricsConfig};

/// The keys ops touch: name, index and kind. Two counters share a name
/// under different indices. `LATE` keys register only after at least
/// three samples; `UNSAMPLED` keys register after the last one.
const KEYS: [(&str, u32, Kind); 9] = [
    ("prop.c.a", 0, Kind::Counter),
    ("prop.c.a", 1, Kind::Counter),
    ("prop.g.a", 0, Kind::Gauge),
    ("prop.g.b", 3, Kind::Gauge),
    ("prop.h.a", 0, Kind::Histogram),
    ("prop.late.c", 2, Kind::Counter),
    ("prop.late.g", 0, Kind::Gauge),
    ("prop.unsampled.c", 0, Kind::Counter),
    ("prop.unsampled.g", 1, Kind::Gauge),
];

thread_local! {
    /// One handle of each kind per key, kept across cases; an op uses
    /// the one of its key's kind.
    static HANDLES: Vec<(Counter, Gauge, Histogram)> = KEYS
        .iter()
        .map(|&(n, i, _)| (Counter::new(n, i), Gauge::new(n, i), Histogram::new(n, i)))
        .collect();
}

/// The late counter and gauge.
const LATE: [usize; 2] = [5, 6];
/// The never-sampled counter and gauge.
const UNSAMPLED: [usize; 2] = [7, 8];

#[derive(Debug, Clone, Copy)]
enum Op {
    CounterAdd(usize, u64),
    CounterSetTotal(usize, u64),
    GaugeSet(usize, i64),
    GaugeAdd(usize, i64),
    HistRecord(usize, u64),
    /// Explicit sample this far past the time cursor.
    SampleAt(u64),
    /// Advance the time cursor this far and fire the elapsed boundaries.
    SampleBefore(u64),
}

/// One random op; `late` ops may also touch the `LATE` keys.
fn op(late: bool) -> impl Strategy<Value = Op> {
    // Small values so gauges often repeat the level they already hold
    // and counters often stand still; 99 stands for a delta or total
    // past `i64::MAX`.
    (0u8..7, 0..2 + usize::from(late), 0u32..100).prop_map(|(kind, which, x)| {
        let big = |m: u32| if x == 99 { u64::MAX } else { u64::from(x % m) };
        let small = i64::from(x % 5) - 2;
        let counter = [0, 1, LATE[0]][which];
        let gauge = [2, 3, LATE[1]][which];
        match kind {
            0 => Op::CounterAdd(counter, big(4)),
            1 => Op::CounterSetTotal(counter, big(16)),
            2 => Op::GaugeSet(gauge, small),
            3 => Op::GaugeAdd(gauge, small),
            4 => Op::HistRecord(4, u64::from(x)),
            5 => Op::SampleAt(u64::from(x)),
            _ => Op::SampleBefore(u64::from(x)),
        }
    })
}

/// The naive session: registration order, current values, and a point
/// per sample for every registered counter and gauge.
#[derive(Default)]
struct Model {
    order: Vec<usize>,
    value: HashMap<usize, i64>,
    series: HashMap<usize, Vec<(u64, i64)>>,
    hist: HashMap<usize, u64>,
    samples: u64,
}

impl Model {
    fn touch(&mut self, key: usize, f: impl FnOnce(i64) -> i64) {
        if !self.value.contains_key(&key) {
            self.order.push(key);
        }
        let v = self.value.entry(key).or_insert(0);
        *v = f(*v);
    }

    fn sample(&mut self, t: u64) {
        self.samples += 1;
        for &key in &self.order {
            if KEYS[key].2 != Kind::Histogram {
                self.series
                    .entry(key)
                    .or_default()
                    .push((t, self.value[&key]));
            }
        }
    }
}

fn saturate(x: u64) -> i64 {
    i64::try_from(x).unwrap_or(i64::MAX)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn session_matches_naive_model(
        ops in vec(op(false), 0..120),
        late_ops in vec(op(true), 0..60),
        interval in 1u64..40,
    ) {
        // A second address for the first counter's name: updates
        // through either must land on one instrument.
        let alias: &'static str = Box::leak(String::from(KEYS[0].0).into_boxed_str());
        let name = |key: usize, n: usize| if key == 0 && n % 2 == 1 { alias } else { KEYS[key].0 };

        // The random ops, three samples, the first touch of the late
        // keys, more random ops, and last the never-sampled keys.
        let mut script = ops;
        script.extend([Op::SampleAt(0), Op::SampleAt(1), Op::SampleAt(2)]);
        script.extend([Op::CounterAdd(LATE[0], 1), Op::GaugeSet(LATE[1], 1)]);
        script.extend(late_ops);
        script.extend([Op::CounterAdd(UNSAMPLED[0], 3), Op::GaugeSet(UNSAMPLED[1], -1)]);

        let mut model = Model::default();
        let (mut now, mut next_due) = (0u64, 0u64);
        vf_metrics::install(MetricsConfig { interval_ps: interval, ..MetricsConfig::default() });
        for (n, &op) in script.iter().enumerate() {
            let handle = n % 3 == 2;
            match op {
                Op::CounterAdd(k, d) => {
                    if handle {
                        HANDLES.with(|h| h[k].0.add(d));
                    } else {
                        Counter::new(name(k, n), KEYS[k].1).add(d);
                    }
                    model.touch(k, |v| v.saturating_add(saturate(d)));
                }
                Op::CounterSetTotal(k, total) => {
                    if handle {
                        HANDLES.with(|h| h[k].0.set_total(total));
                    } else {
                        Counter::new(name(k, n), KEYS[k].1).set_total(total);
                    }
                    model.touch(k, |v| v.max(saturate(total)));
                }
                Op::GaugeSet(k, x) => {
                    if handle {
                        HANDLES.with(|h| h[k].1.set(x));
                    } else {
                        Gauge::new(KEYS[k].0, KEYS[k].1).set(x);
                    }
                    model.touch(k, |_| x);
                }
                Op::GaugeAdd(k, d) => {
                    if handle {
                        HANDLES.with(|h| h[k].1.add(d));
                    } else {
                        Gauge::new(KEYS[k].0, KEYS[k].1).add(d);
                    }
                    model.touch(k, |v| v + d);
                }
                Op::HistRecord(k, x) => {
                    if handle {
                        HANDLES.with(|h| h[k].2.record(x));
                    } else {
                        Histogram::new(KEYS[k].0, KEYS[k].1).record(x);
                    }
                    model.touch(k, |v| v);
                    *model.hist.entry(k).or_default() += 1;
                }
                Op::SampleAt(dt) => {
                    vf_metrics::sample_at(now + dt);
                    model.sample(now + dt);
                }
                Op::SampleBefore(dt) => {
                    now += dt;
                    vf_metrics::sample_before(now);
                    while next_due < now {
                        model.sample(next_due);
                        next_due += interval;
                    }
                }
            }
        }
        let report = vf_metrics::finish();

        prop_assert_eq!(report.samples, model.samples);
        prop_assert!(report.violations.is_empty());
        let got: Vec<_> = report.instruments.iter().map(|i| (i.name, i.index, i.kind)).collect();
        let want: Vec<_> = model.order.iter().map(|&k| KEYS[k]).collect();
        prop_assert_eq!(got, want);
        for (inst, &key) in report.instruments.iter().zip(&model.order) {
            prop_assert_eq!(inst.last, model.value[&key], "{}[{}]", inst.name, inst.index);
            let series = model.series.get(&key).cloned().unwrap_or_default();
            let got: Vec<_> = inst.series().collect();
            prop_assert_eq!(&got, &series, "{}[{}]", inst.name, inst.index);
            prop_assert_eq!(inst.series().len(), series.len(), "{}[{}]", inst.name, inst.index);
            let count = inst.histogram.as_ref().map(|h| h.count());
            prop_assert_eq!(count, model.hist.get(&key).copied(), "{}[{}]", inst.name, inst.index);
        }
    }
}
