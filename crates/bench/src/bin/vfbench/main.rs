//! `vfbench` — the repository's host-time benchmark.
//!
//! ```sh
//! vfbench --workload W [--seed S] [--seconds N] [--trace 0|1]
//!         [--out FILE] [--trace-out FILE]
//! vfbench --workload W --print-golden
//! vfbench --compare A B
//! ```
//!
//! A run executes one workload (`paper_rtt`, `net_mq`, `tenant_mux`,
//! `blk_storage`; see `workload.rs` and README.md) as whole sweep passes
//! on one thread, for about `--seconds` (default 30):
//!
//! 1. one warm-up pass through the `experiments::*` calls and renderers
//!    `repro` uses, untimed;
//! 2. rounds of four passes, rotating which goes first: two **plain**
//!    passes (each sweep point through its runner, then the same row
//!    assembly and renderers), a **metered** pass (each point in its
//!    own `vf-metrics` session), and either a **setup** pass
//!    (`--trace 0`: every point at its smallest op count) or a
//!    **traced** pass (`--trace 1`: a span per runner call under a
//!    wall-clock trace sink). Plain passes come twice because `wall_s`
//!    is the headline metric and a metered pass costs 1.3–3.3 plain
//!    ones.
//!
//! Plain, metered and setup passes time each runner call and run the
//! [`HostProbe`] between calls; their times are reported divided by the
//! probe's slowdown over the same pass (see README.md).
//!
//! Every pass is checked: a point fails if it panics, fails payload
//! verification, trips a watchdog, or digests differently from the
//! other passes — or, on seed 42, from the committed `golden.txt`.
//!
//! It prints one `workload metric value unit median q1 q3 n` line per
//! metric (end-to-end metrics with `--trace 0`, per-layer ones with
//! `--trace 1`), one for `fail_frac` and, with `--trace 0`, one for
//! `host.slowdown`; appends them to `--out FILE` under a header naming
//! the host; and ends with one JSON line: `correct`, `attempted` and
//! `failed` (sweep points) and the metrics. It exits non-zero if
//! anything failed.

mod compare;
mod measure;
mod probe;
mod workload;

use std::io::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::rc::Rc;
use std::time::{Duration, Instant};

use measure::{cpu_seconds, HostClock, HostProbe, Stats, WallClockSink};
use vf_metrics::{MetricsConfig, MetricsReport};
use vf_trace::Layer;
use virtio_fpga::experiments::ExperimentParams;
use virtio_fpga::metered;
use workload::{text_digest, Output, Point, Workload};

#[global_allocator]
static ALLOC: measure::CountingAlloc = measure::CountingAlloc;

/// One reported metric, as declared in `BENCHMARK.json`.
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn metric(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

const fn bounded(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> Metric {
    Metric {
        bound: Some(bound),
        ..metric(name, unit, better)
    }
}

/// What a user of `repro` sees: host time and memory of whole sweeps.
/// Times are adjusted for the host's speed during the pass
/// ([`HostProbe`]).
pub const END_TO_END: [Metric; 6] = [
    bounded("wall_s", "s", "lower", 0.2),
    bounded("ops_per_s", "ops/s", "higher", 0.2),
    bounded("cpu_s", "s", "lower", 0.2),
    bounded("setup_s", "s", "lower", 0.25),
    bounded("metered_s", "s", "lower", 0.2),
    bounded("peak_heap_mb", "MB", "lower", 0.05),
];

/// Failed over attempted sweep points: printed and written to `--out`
/// with the metrics, and required to be 0 by `--compare`. Not a
/// `BENCHMARK.json` metric, since it is 0 on every good run.
pub const FAIL_FRAC: &str = "fail_frac";

/// The per-layer metric also printed and written with `--trace 0`, so
/// a result file shows how slow the host ran beside the adjusted times.
const HOST_SLOWDOWN: &str = "host.slowdown";

/// Instruments the metered pass sums over all points, and the
/// per-layer metric (a count per op) each feeds. Event and cascade
/// totals are published at sample boundaries, so they stop at the last
/// 10 µs boundary before each world drains.
const COUNTED: [(&str, &str); 10] = [
    ("sim.events_per_op", "sim.events.delivered"),
    ("sim.cascades_per_op", "sim.wheel.cascades"),
    ("pcie.tlps_per_op", "pcie.wire.tlps"),
    ("pcie.wire_bytes_per_op", "pcie.wire.bytes"),
    ("pcie.np_issued_per_op", "pcie.np.issued"),
    ("virtio.desc_reads_per_op", "virtio.queue.desc_reads"),
    ("fpga.engine_captures_per_op", "fpga.engine.captures"),
    ("hostsw.irqs_per_op", "hostsw.irq.count"),
    ("hostsw.syscall_blocks_per_op", "hostsw.syscall.blocks"),
    ("tenant.grants_per_op", "tenant.arbiter.grants"),
];

/// Where the host time goes, layer by layer.
pub const PER_LAYER: [Metric; 31] = [
    metric("sim.events_per_op", "events/op", "lower"),
    metric("sim.cascades_per_op", "cascades/op", "lower"),
    metric("sim.ns_per_event", "ns", "lower"),
    metric("sim.est_share", "ratio", "lower"),
    metric("pcie.tlps_per_op", "TLPs/op", "lower"),
    metric("pcie.wire_bytes_per_op", "B/op", "lower"),
    metric("pcie.np_issued_per_op", "reads/op", "lower"),
    metric("pcie.ns_per_dma", "ns", "lower"),
    metric("virtio.desc_reads_per_op", "reads/op", "lower"),
    metric("fpga.engine_captures_per_op", "captures/op", "lower"),
    metric("hostmem.ns_per_kib", "ns/KiB", "lower"),
    metric("hostsw.irqs_per_op", "irqs/op", "lower"),
    metric("hostsw.syscall_blocks_per_op", "blocks/op", "lower"),
    metric("tenant.grants_per_op", "grants/op", "lower"),
    metric("tenant.queued_frac", "ratio", "lower"),
    metric("alloc.per_op", "allocs/op", "lower"),
    metric("alloc.bytes_per_op", "B/op", "lower"),
    metric("obs.metered_overhead", "ratio", "lower"),
    metric("obs.trace_overhead", "ratio", "lower"),
    metric("trace.records_per_op", "records/op", "lower"),
    metric("core.run_s", "s", "lower"),
    metric("report.summarize_s", "s", "lower"),
    metric("bench.render_s", "s", "lower"),
    metric("trace.host_share.app", "ratio", "lower"),
    metric("trace.host_share.syscall", "ratio", "lower"),
    metric("trace.host_share.driver", "ratio", "lower"),
    metric("trace.host_share.link", "ratio", "lower"),
    metric("trace.host_share.device", "ratio", "lower"),
    metric("trace.host_share.irq", "ratio", "lower"),
    metric("trace.host_share.unattributed", "ratio", "lower"),
    metric(HOST_SLOWDOWN, "ratio", "lower"),
];

/// Per-point output digests for seed [`GOLDEN_SEED`].
const GOLDEN: &str = include_str!("golden.txt");
/// The seed whose digests are committed.
const GOLDEN_SEED: u64 = 42;
/// Rounds a run makes whatever `--seconds` says.
const MIN_ROUNDS: usize = 3;
/// A setup pass repeats its bring-up sweep until this much bring-up
/// time has been measured, so one sweep's milliseconds are not lost in
/// timer noise.
const SETUP_MIN: Duration = Duration::from_millis(100);
/// How far the traced pass's runner, summary and render spans may
/// fall short of (or exceed) its wall time.
const SPAN_TOLERANCE: f64 = 0.05;

const USAGE: &str = "usage: vfbench --workload paper_rtt|net_mq|tenant_mux|blk_storage \
[--seed S] [--seconds N] [--trace 0|1] [--out FILE] [--trace-out FILE] [--print-golden]\n\
       vfbench --compare A B";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    print_golden: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut parsed = Args {
        workload: Workload::PaperRtt,
        seed: GOLDEN_SEED,
        seconds: 30,
        trace: false,
        out: None,
        trace_out: None,
        print_golden: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::from_name(name).ok_or(format!("unknown workload '{name}'"))?);
            }
            "--seed" => parsed.seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|_| "--seconds takes an integer")?
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--out" => parsed.out = Some(PathBuf::from(value()?)),
            "--trace-out" => parsed.trace_out = Some(PathBuf::from(value()?)),
            "--print-golden" => parsed.print_golden = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    parsed.workload = workload.ok_or("--workload is required")?;
    Ok(parsed)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--compare") {
        std::process::exit(compare::main(&args[1..]));
    }
    let args = parse_args(&args).unwrap_or_else(|e| {
        eprintln!("vfbench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    if args.print_golden {
        print_golden(args.workload);
        return;
    }

    let mut bench = Bench::new(args.workload, args.seed, args.seed == GOLDEN_SEED);
    let samples = bench.run(Duration::from_secs(args.seconds), args.trace);
    let metrics = if args.trace {
        bench.per_layer(&samples)
    } else {
        bench.end_to_end(&samples)
    };
    let attributed = samples.traced.iter().all(TracedSample::attribution_holds);
    let correct = bench.failed == 0 && attributed;

    let mut extra = vec![(
        FAIL_FRAC,
        Stats::exact(bench.failed as f64 / bench.attempted as f64),
    )];
    if !args.trace {
        extra.push((HOST_SLOWDOWN, samples.slowdown()));
    }
    let mut lines = String::new();
    for (name, unit, s) in metrics
        .iter()
        .map(|(m, s)| (m.name, m.unit, s))
        .chain(extra.iter().map(|(name, s)| (*name, "ratio", s)))
    {
        lines += &format!(
            "{} {name} {} {unit} {} {} {} {}\n",
            args.workload.name(),
            s.median,
            s.median,
            s.q1,
            s.q3,
            s.n
        );
    }
    print!("{lines}");
    if let Some(path) = &args.out {
        let header = format!(
            "# vfbench workload={} seed={} seconds={} trace={} rounds={} nproc={} git={} rustc={}\n",
            args.workload.name(),
            args.seed,
            args.seconds,
            u8::from(args.trace),
            samples.rounds,
            std::thread::available_parallelism().map_or(0, |n| n.get()),
            command_output("git", &["rev-parse", "--short", "HEAD"]),
            command_output("rustc", &["--version"]),
        );
        append(path, &(header + &lines));
    }
    if let (Some(path), Some(last)) = (&args.trace_out, samples.traced.last()) {
        std::fs::write(path, chrome_trace(&last.spans)).expect("writing --trace-out");
    }

    let values: Vec<String> = metrics
        .iter()
        .map(|(m, s)| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, s.median, m.unit
            )
        })
        .collect();
    let finite = metrics.iter().all(|(_, s)| s.median.is_finite());
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        correct && finite,
        bench.attempted,
        bench.failed,
        values.join(", ")
    );
    if !(correct && finite) {
        std::process::exit(1);
    }
}

/// The first line `program args` prints, or `unknown`.
fn command_output(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(|l| l.replace(' ', "_")))
        .unwrap_or_else(|| "unknown".to_string())
}

fn append(path: &PathBuf, text: &str) {
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .unwrap_or_else(|e| panic!("opening {}: {e}", path.display()));
    f.write_all(text.as_bytes())
        .and_then(|()| f.flush())
        .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
}

/// Run one metered pass at the golden seed and print its digests in
/// `golden.txt` form.
fn print_golden(w: Workload) {
    let mut bench = Bench::new(w, GOLDEN_SEED, false);
    bench.metered();
    assert_eq!(bench.failed, 0, "{}: the metered pass failed", w.name());
    let text = bench
        .expected
        .text
        .expect("a complete pass sets the text digest");
    println!("{} text {text:016x}", w.name());
    for (i, d) in bench.expected.points.iter().enumerate() {
        println!("{} {i} {:016x}", w.name(), d.expect("every point ran"));
    }
}

/// The digests every pass must reproduce: the committed golden on the
/// golden seed, otherwise whatever the first pass produced.
struct Expected {
    text: Option<u64>,
    points: Vec<Option<u64>>,
}

impl Expected {
    fn golden(w: Workload, points: usize) -> Expected {
        let mut e = Expected {
            text: None,
            points: vec![None; points],
        };
        for line in GOLDEN
            .lines()
            .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        {
            let fields: Vec<&str> = line.split_whitespace().collect();
            let [name, key, hex] = fields[..] else {
                panic!("malformed golden line: {line}");
            };
            if name != w.name() {
                continue;
            }
            let digest = u64::from_str_radix(hex, 16).expect("golden digest is hex");
            if key == "text" {
                e.text = Some(digest);
            } else {
                let i: usize = key.parse().expect("golden point index");
                *e.points.get_mut(i).expect("golden point index in range") = Some(digest);
            }
        }
        e
    }
}

/// Sums of the [`COUNTED`] instruments over one metered pass, plus the
/// arbiter's queued and granted walks.
#[derive(Default)]
struct Counts {
    totals: [i64; COUNTED.len()],
    queued: u64,
    granted: u64,
}

impl Counts {
    fn add(&mut self, report: &MetricsReport, out: &Output) {
        for (total, (_, instrument)) in self.totals.iter_mut().zip(COUNTED) {
            *total += report.counter_total(instrument);
        }
        let (queued, granted) = out.arbiter();
        self.queued += queued;
        self.granted += granted;
    }
}

/// Host time of one probed pass: wall and CPU seconds inside the
/// measured calls (the probes in between excluded), and the host's
/// slowdown while they ran ([`HostProbe::finish`], set when the pass
/// ends).
#[derive(Clone, Copy, Default)]
struct Timed {
    wall: f64,
    cpu: f64,
    slowdown: f64,
}

impl Timed {
    /// `seconds` at the reference host speed.
    fn adjust(&self, seconds: f64) -> f64 {
        seconds / self.slowdown
    }
}

/// One plain pass's measurements.
struct PlainSample {
    timed: Timed,
    heap_mb: f64,
    alloc_calls: f64,
    alloc_bytes: f64,
}

/// One bench-side span of a traced pass, relative to the pass start.
struct Span {
    name: &'static str,
    label: String,
    start: Duration,
    dur: Duration,
}

/// One traced pass's measurements.
struct TracedSample {
    wall: f64,
    run: f64,
    summarize: f64,
    render: f64,
    /// Host time per layer, then unattributed, as shares of `run`.
    shares: [f64; Layer::COUNT + 1],
    records: u64,
    spans: Vec<Span>,
}

impl TracedSample {
    /// The spans cover the pass's wall time, and the layer shares plus
    /// the unattributed share sum to one.
    fn attribution_holds(&self) -> bool {
        let covered = self.run + self.summarize + self.render;
        let shares: f64 = self.shares.iter().sum();
        let ok = (covered - self.wall).abs() <= SPAN_TOLERANCE * self.wall
            && (shares - 1.0).abs() < 1e-6;
        if !ok {
            eprintln!(
                "vfbench: attribution broken: spans cover {covered:.4} s of {:.4} s, \
                 shares sum to {shares}",
                self.wall
            );
        }
        ok
    }
}

#[derive(Default)]
struct Samples {
    rounds: usize,
    plain: Vec<PlainSample>,
    metered: Vec<Timed>,
    /// Seconds per bring-up sweep, adjusted.
    setup: Vec<f64>,
    traced: Vec<TracedSample>,
    counts: Counts,
}

impl Samples {
    /// The host's slowdown over the plain passes.
    fn slowdown(&self) -> Stats {
        stats_of(&self.plain, |p| p.timed.slowdown)
    }
}

#[derive(Clone, Copy)]
enum Pass {
    Plain,
    Metered,
    Setup,
    Traced,
}

struct Bench {
    workload: Workload,
    params: ExperimentParams,
    points: Vec<Point>,
    bring_up: Vec<Point>,
    /// Packets or block requests one pass completes.
    ops: f64,
    expected: Expected,
    probe: HostProbe,
    /// Sweep points attempted and failed, over every pass.
    attempted: u64,
    failed: u64,
}

impl Bench {
    fn new(workload: Workload, seed: u64, golden: bool) -> Bench {
        let params = workload::params(seed, workload.packets());
        let points = workload.points(params);
        let expected = if golden {
            Expected::golden(workload, points.len())
        } else {
            Expected {
                text: None,
                points: vec![None; points.len()],
            }
        };
        Bench {
            workload,
            params,
            bring_up: points.iter().map(Point::bring_up).collect(),
            ops: points.iter().map(|p| p.cfg.packets as f64).sum(),
            points,
            expected,
            probe: HostProbe::new(),
            attempted: 0,
            failed: 0,
        }
    }

    /// Warm up, then run rounds until `budget` would be exceeded.
    fn run(&mut self, budget: Duration, trace: bool) -> Samples {
        let start = Instant::now();
        let mut s = Samples::default();
        self.warm_up();
        let order = if trace {
            [Pass::Plain, Pass::Metered, Pass::Plain, Pass::Traced]
        } else {
            [Pass::Plain, Pass::Metered, Pass::Plain, Pass::Setup]
        };
        loop {
            let round_start = Instant::now();
            for k in 0..order.len() {
                match order[(s.rounds + k) % order.len()] {
                    Pass::Plain => s.plain.push(self.plain()),
                    Pass::Metered => {
                        let (timed, counts) = self.metered();
                        s.metered.push(timed);
                        s.counts = counts;
                    }
                    Pass::Setup => s.setup.push(self.setup()),
                    Pass::Traced => s.traced.push(self.traced()),
                }
            }
            s.rounds += 1;
            let next_end = start.elapsed() + round_start.elapsed();
            if s.rounds >= MIN_ROUNDS && next_end > budget {
                break;
            }
        }
        eprintln!(
            "vfbench: {} seed {}: {} rounds in {:.1} s, {} points and {} ops per pass",
            self.workload.name(),
            self.params.seed,
            s.rounds,
            start.elapsed().as_secs_f64(),
            self.points.len(),
            self.ops
        );
        s
    }

    /// Check one runner output; true if it passed.
    fn check_point(&mut self, pass: &str, i: usize, out: &Output) -> bool {
        let verified = out.verify_failures() == 0;
        if !verified {
            eprintln!("vfbench: {pass} pass, point {i}: payload verification failed");
        }
        let digest = out.digest();
        let want = *self.expected.points[i].get_or_insert(digest);
        if want != digest {
            eprintln!(
                "vfbench: {pass} pass, point {i} ({}): digest {digest:016x}, expected {want:016x}",
                self.points[i].label()
            );
        }
        want == digest && verified
    }

    /// Check a pass's printed text (or the panic that replaced it);
    /// counts every point failed if it is wrong.
    fn check_text(&mut self, pass: &str, text: std::thread::Result<String>) {
        let ok = text.is_ok_and(|text| {
            let digest = text_digest(&text);
            let want = *self.expected.text.get_or_insert(digest);
            if want != digest {
                eprintln!(
                    "vfbench: {pass} pass printed digest {digest:016x}, expected {want:016x}"
                );
            }
            want == digest
        });
        if !ok {
            self.failed += self.points.len() as u64;
        }
    }

    /// The `experiments::*` calls and renders `repro` makes, untimed: it
    /// warms the caches, and its text must match what the point list
    /// of the timed passes prints.
    fn warm_up(&mut self) {
        let (w, params) = (self.workload, self.params);
        let text = catch_unwind(|| w.rows(params).render());
        self.attempted += self.points.len() as u64;
        self.check_text("warm-up", text);
    }

    /// Run every point through `run`, then fold the outputs into rows
    /// and render them as the experiments do. Each runner call, and the
    /// fold and render, is timed on its own, with the host probed in
    /// between. `run` returns the output and whether its own checks
    /// passed.
    fn sweep(&mut self, pass: &str, mut run: impl FnMut(usize, &Point) -> (Output, bool)) -> Timed {
        let mut spent = Timed::default();
        let mut outs = Vec::with_capacity(self.points.len());
        for i in 0..self.points.len() {
            self.attempted += 1;
            let point = &self.points[i];
            let result = timed(&mut spent, &mut self.probe, || {
                catch_unwind(AssertUnwindSafe(|| run(i, point)))
            });
            match result {
                Ok((out, ok)) => {
                    if !(self.check_point(pass, i, &out) && ok) {
                        self.failed += 1;
                    }
                    outs.push(out);
                }
                Err(_) => self.failed += 1,
            }
        }
        if outs.len() == self.points.len() {
            let w = self.workload;
            let text = timed(&mut spent, &mut self.probe, || {
                catch_unwind(AssertUnwindSafe(|| w.summarize(outs).render()))
            });
            self.check_text(pass, text);
        }
        spent.slowdown = self.probe.finish();
        spent
    }

    /// Each point through its runner, then the row assembly and
    /// renderers of the experiments: what `repro` computes and prints.
    fn plain(&mut self) -> PlainSample {
        let h0 = measure::heap();
        measure::reset_peak();
        let timed = self.sweep("plain", |_, point| (point.run(), true));
        let h1 = measure::heap();
        PlainSample {
            timed,
            heap_mb: h1.peak.saturating_sub(h0.live) as f64 / 1e6,
            alloc_calls: (h1.calls - h0.calls) as f64,
            alloc_bytes: (h1.bytes - h0.bytes) as f64,
        }
    }

    /// Every point in its own metrics session (the 10 µs sampler and
    /// the four watchdogs); a session cannot span points because the
    /// sampler's next boundary would skip samples in later worlds.
    fn metered(&mut self) -> (Timed, Counts) {
        let mut counts = Counts::default();
        let timed = self.sweep("metered", |i, point| {
            let (out, report) = metered(MetricsConfig::default(), || point.run());
            counts.add(&report, &out);
            for v in &report.violations {
                eprintln!(
                    "vfbench: metered pass, point {i}: watchdog {} on {}[{}]: {}",
                    v.watchdog.name(),
                    v.name,
                    v.index,
                    v.detail
                );
            }
            (out, report.violations.is_empty())
        });
        (timed, counts)
    }

    /// Every point at its smallest op count: the seconds one sweep of
    /// bring-up and teardown takes, at the reference host speed,
    /// averaged over as many sweeps as it takes to measure
    /// [`SETUP_MIN`].
    fn setup(&mut self) -> f64 {
        let mut spent = Timed::default();
        let mut sweeps = 0;
        while sweeps == 0 || spent.wall < SETUP_MIN.as_secs_f64() {
            for point in &self.bring_up {
                self.attempted += 1;
                let failures = timed(&mut spent, &mut self.probe, || {
                    catch_unwind(|| point.run().verify_failures())
                });
                if failures.map_or(true, |f| f != 0) {
                    self.failed += 1;
                }
            }
            sweeps += 1;
        }
        spent.slowdown = self.probe.finish();
        spent.adjust(spent.wall) / f64::from(sweeps)
    }

    /// Spans around each runner call, the summaries and the render,
    /// with a [`WallClockSink`] binning the host time inside runner
    /// calls by trace layer.
    fn traced(&mut self) -> TracedSample {
        let clock = HostClock::new();
        let mut spans = Vec::new();
        let t0 = Instant::now();
        let mut span = |name, label: String, start: Instant, end: Instant| {
            spans.push(Span {
                name,
                label,
                start: start - t0,
                dur: end - start,
            });
            (end - start).as_secs_f64()
        };
        vf_trace::install(Box::new(WallClockSink(Rc::clone(&clock))));
        let mut outs = Vec::with_capacity(self.points.len());
        let mut run = 0.0;
        for i in 0..self.points.len() {
            self.attempted += 1;
            let point = &self.points[i];
            let start = Instant::now();
            clock.borrow_mut().open(start);
            let out = catch_unwind(|| point.run());
            let end = Instant::now();
            clock.borrow_mut().close(end);
            run += span("core.run", point.label(), start, end);
            match out {
                Ok(out) => {
                    if !self.check_point("traced", i, &out) {
                        self.failed += 1;
                    }
                    outs.push(out);
                }
                Err(_) => self.failed += 1,
            }
        }
        vf_trace::uninstall();
        let (mut summarize, mut render) = (0.0, 0.0);
        if outs.len() == self.points.len() {
            let w = self.workload;
            let s0 = Instant::now();
            let rows = catch_unwind(AssertUnwindSafe(|| w.summarize(outs)));
            let s1 = Instant::now();
            let text = rows.and_then(|rows| catch_unwind(AssertUnwindSafe(|| rows.render())));
            let s2 = Instant::now();
            summarize = span("report.summarize", String::new(), s0, s1);
            render = span("bench.render", String::new(), s1, s2);
            self.check_text("traced", text);
        }
        let wall = t0.elapsed().as_secs_f64();
        let c = clock.borrow();
        let mut shares = [0.0; Layer::COUNT + 1];
        for (share, t) in shares
            .iter_mut()
            .zip(c.layers.iter().chain([&c.unattributed]))
        {
            *share = t.as_secs_f64() / run;
        }
        TracedSample {
            wall,
            run,
            summarize,
            render,
            shares,
            records: c.records,
            spans,
        }
    }

    fn end_to_end(&self, s: &Samples) -> Vec<(&'static Metric, Stats)> {
        let ops = self.ops;
        let stats = [
            stats_of(&s.plain, |p| p.timed.adjust(p.timed.wall)),
            stats_of(&s.plain, |p| ops / p.timed.adjust(p.timed.wall)),
            stats_of(&s.plain, |p| p.timed.adjust(p.timed.cpu)),
            Stats::of(&s.setup),
            stats_of(&s.metered, |m| m.adjust(m.wall)),
            stats_of(&s.plain, |p| p.heap_mb),
        ];
        END_TO_END.iter().zip(stats).collect()
    }

    fn per_layer(&self, s: &Samples) -> Vec<(&'static Metric, Stats)> {
        let ops = self.ops;
        // Host ns per op and the traced pass are unadjusted, like the
        // probes' ns and the traced pass they are compared with.
        let plain = stats_of(&s.plain, |p| p.timed.wall);
        let adjusted = stats_of(&s.plain, |p| p.timed.adjust(p.timed.wall));
        let mut values: Vec<(&str, Stats)> = COUNTED
            .iter()
            .zip(s.counts.totals)
            .map(|(&(name, _), total)| (name, Stats::exact(total as f64 / ops)))
            .collect();
        let events_per_op = values[0].1.median;
        let ns_per_event = probe::sim_ns_per_event();
        let queued = s.counts.queued as f64;
        let arbitrated = queued + s.counts.granted as f64;
        values.extend([
            ("sim.ns_per_event", Stats::exact(ns_per_event)),
            (
                "sim.est_share",
                plain.map(|wall| events_per_op * ns_per_event / (wall * 1e9 / ops)),
            ),
            (
                "pcie.ns_per_dma",
                Stats::exact(probe::pcie_ns_per_dma(self.workload.probe_payload())),
            ),
            (
                "hostmem.ns_per_kib",
                Stats::exact(probe::hostmem_ns_per_kib()),
            ),
            (
                "tenant.queued_frac",
                Stats::exact(if arbitrated == 0.0 {
                    0.0
                } else {
                    queued / arbitrated
                }),
            ),
            ("alloc.per_op", stats_of(&s.plain, |p| p.alloc_calls / ops)),
            (
                "alloc.bytes_per_op",
                stats_of(&s.plain, |p| p.alloc_bytes / ops),
            ),
            (
                "obs.metered_overhead",
                stats_of(&s.metered, |m| m.adjust(m.wall)).map(|m| m / adjusted.median - 1.0),
            ),
            (
                "obs.trace_overhead",
                stats_of(&s.traced, |t| t.wall).map(|t| t / plain.median - 1.0),
            ),
            (
                "trace.records_per_op",
                stats_of(&s.traced, |t| t.records as f64 / ops),
            ),
            ("core.run_s", stats_of(&s.traced, |t| t.run)),
            ("report.summarize_s", stats_of(&s.traced, |t| t.summarize)),
            ("bench.render_s", stats_of(&s.traced, |t| t.render)),
            (HOST_SLOWDOWN, s.slowdown()),
        ]);
        // `shares` holds one entry per layer, then the unattributed one.
        for m in &PER_LAYER {
            if let Some(bucket) = m.name.strip_prefix("trace.host_share.") {
                let i = Layer::ALL
                    .iter()
                    .position(|l| l.name() == bucket)
                    .unwrap_or(Layer::COUNT);
                values.push((m.name, stats_of(&s.traced, |t| t.shares[i])));
            }
        }
        PER_LAYER
            .iter()
            .map(|m| {
                let (_, stats) = values
                    .iter()
                    .find(|(name, _)| *name == m.name)
                    .expect("every per-layer metric is computed");
                (m, *stats)
            })
            .collect()
    }
}

/// Run `f`, add its wall and CPU seconds to `spent`, and let the probe
/// account for it.
fn timed<T>(spent: &mut Timed, probe: &mut HostProbe, f: impl FnOnce() -> T) -> T {
    let c0 = cpu_seconds();
    let t0 = Instant::now();
    let out = f();
    let dt = t0.elapsed();
    spent.cpu += cpu_seconds() - c0;
    spent.wall += dt.as_secs_f64();
    probe.after(dt);
    out
}

/// Order statistics of `f` over a pass kind's samples.
fn stats_of<T>(samples: &[T], f: impl Fn(&T) -> f64) -> Stats {
    Stats::of(&samples.iter().map(f).collect::<Vec<_>>())
}

/// The traced pass's spans as Chrome/Perfetto `trace_event` JSON.
fn chrome_trace(spans: &[Span]) -> String {
    let events: Vec<String> = spans
        .iter()
        .map(|s| {
            format!(
                "{{\"name\":\"{}\",\"cat\":\"vfbench\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":1,\"tid\":1,\"args\":{{\"point\":\"{}\"}}}}",
                s.name,
                s.start.as_secs_f64() * 1e6,
                s.dur.as_secs_f64() * 1e6,
                s.label
            )
        })
        .collect();
    format!("{{\"traceEvents\":[{}]}}", events.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric tables and workloads match `BENCHMARK.json`, entry
    /// for entry and in order.
    #[test]
    fn metric_tables_match_benchmark_json() {
        let spec = include_str!("../../../../../BENCHMARK.json");
        let workloads = Workload::ALL.map(|w| format!("{{\"name\": \"{}\", \"why\": ", w.name()));
        let metrics = END_TO_END.iter().chain(&PER_LAYER).map(|m| {
            let bound = m
                .bound
                .map_or(String::new(), |b| format!(", \"bound\": {b}"));
            format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"{bound}}}",
                m.name, m.unit, m.better
            )
        });
        let entries: Vec<String> = workloads.into_iter().chain(metrics).collect();
        let mut rest = spec;
        for entry in &entries {
            let at = rest
                .find(entry.as_str())
                .unwrap_or_else(|| panic!("BENCHMARK.json lacks, or misorders, {entry}"));
            rest = &rest[at + entry.len()..];
        }
        assert_eq!(spec.matches("{\"name\": ").count(), entries.len());
    }

    /// The committed golden covers every point of every workload.
    #[test]
    fn golden_is_complete() {
        for w in Workload::ALL {
            let n = w.points(workload::params(GOLDEN_SEED, w.packets())).len();
            let e = Expected::golden(w, n);
            assert!(e.text.is_some(), "{}: no text digest", w.name());
            assert!(
                e.points.iter().all(Option::is_some),
                "{}: missing points",
                w.name()
            );
        }
    }

    #[test]
    fn args_parse_the_driver_command_line() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv("--workload net_mq --seed 7 --seconds 3 --trace 1")).unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::NetMq, 7, 3, true)
        );
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--seed 1")).is_err());
        assert!(parse_args(&argv("--workload net_mq --trace 2")).is_err());
    }
}
