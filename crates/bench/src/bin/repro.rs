//! `repro` — regenerate every figure and table of the paper.
//!
//! ```sh
//! repro [--packets N] [--seed S] [--quick] [--trace FILE] <artifact>...
//!
//! artifacts:
//!   fig3 fig4 fig5 table1          the paper's evaluation (§V)
//!   portability                    E5  link sweep (§VI future work)
//!   xdma-irq-ablation              E6  §IV-C setup concession
//!   virtio-features                E7  EVENT_IDX / queue-size ablation
//!   bypass                         E8  §III-A bypass interface
//!   devtypes                       E9  console [14] vs net device
//!   csum-offload                   E10 checksum offload
//!   noise-sweep                    E11 host-noise sensitivity
//!   pipeline                       E12 pipelined throughput
//!   deployment                     E13 Fig. 1 deployment models
//!   card-memory                    E14 BRAM vs external DDR
//!   pmd                            E15 vf-pmd poll-mode driver vs kernel drivers
//!   pmd-crossover                  E16 poll-vs-interrupt crossover vs offered load
//!   packed                         E17 split vs packed virtqueue layout
//!   mq                             E19 multi-queue scaling
//!   ooo                            E20 out-of-order descriptor pipeline
//!   tenants                        E21 multi-tenant vhost multiplexing + noisy neighbor
//!   blk                            E24 virtio-blk storage sweep vs XDMA baseline
//!   all                            everything above
//!   trace                          E18 cross-layer span trace + Perfetto export
//!   metrics                        E23 sampled metrics + watchdogs (mq/ooo/tenants)
//! ```
//!
//! With `--quick`, runs use 2 000 packets instead of the paper's 50 000.
//!
//! `VF_THREADS` caps sweep parallelism; output is identical at every
//! thread count.
//!
//! The `trace` artifact runs a short traced round-trip batch for every
//! driver model, prints the per-round-trip latency-attribution table,
//! asserts the spans reconcile with the recorder's summaries, and
//! writes a Chrome/Perfetto `trace_event` JSON (load it at
//! <https://ui.perfetto.dev>) to `--out FILE` (default `trace.json`).
//!
//! `--trace FILE` additionally captures a trace of any *other* artifact
//! run: it forces sweeps onto one thread (tracing is per-thread) and
//! dumps everything those runs emitted to FILE on exit.
//!
//! The `metrics` artifact runs one metered MQ, one out-of-order, and
//! one multi-tenant world with the 10 µs sampler on, prints each
//! world's per-layer utilization/backlog report, asserts all four
//! invariant watchdogs stayed quiet, and writes the full time-series
//! as JSON to `--out FILE` (default `metrics.json`); `--csv DIR` adds
//! one long-format CSV per world.

use std::io::Write as _;
use std::path::PathBuf;

use vf_bench::*;
use virtio_fpga::experiments::{self, ExperimentParams};
use virtio_fpga::{DriverKind, PAPER_PAYLOADS};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut packets = virtio_fpga::PAPER_PACKETS;
    let mut seed = 42u64;
    let mut csv_dir: Option<PathBuf> = None;
    let mut out_path: Option<PathBuf> = None;
    let mut trace_path: Option<PathBuf> = None;
    let mut artifacts: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--packets" => {
                i += 1;
                packets = args[i].parse().expect("--packets N");
            }
            "--seed" => {
                i += 1;
                seed = args[i].parse().expect("--seed S");
            }
            "--csv" => {
                i += 1;
                csv_dir = Some(PathBuf::from(&args[i]));
            }
            "--out" => {
                i += 1;
                out_path = Some(PathBuf::from(&args[i]));
            }
            "--trace" => {
                i += 1;
                trace_path = Some(PathBuf::from(&args[i]));
            }
            "--quick" => packets = 2_000,
            "--help" | "-h" => {
                print_usage();
                return;
            }
            a => artifacts.push(a.to_string()),
        }
        i += 1;
    }
    if artifacts.is_empty() {
        print_usage();
        std::process::exit(2);
    }
    if artifacts.iter().any(|a| a == "all") {
        artifacts = [
            "fig3",
            "fig4",
            "fig5",
            "table1",
            "portability",
            "xdma-irq-ablation",
            "virtio-features",
            "bypass",
            "devtypes",
            "csum-offload",
            "noise-sweep",
            "pipeline",
            "deployment",
            "card-memory",
            "pmd",
            "pmd-crossover",
            "packed",
            "mq",
            "ooo",
            "tenants",
            "blk",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
    }

    if trace_path.is_some() && artifacts.iter().any(|a| a == "trace") {
        eprintln!("--trace FILE and the `trace` artifact are mutually exclusive");
        eprintln!("(the artifact manages its own per-driver trace sessions)");
        std::process::exit(2);
    }
    let params = ExperimentParams {
        packets,
        // Tracing is per-thread: a global capture must keep every run on
        // the thread that owns the session.
        threads: if trace_path.is_some() {
            1
        } else {
            vf_sim::default_threads()
        },
        ..ExperimentParams::quick(seed)
    };
    eprintln!(
        "# testbed: Alinx AX7A200 model, PCIe Gen2 x2, Fedora 37 host model; {packets} packets/config, seed {seed}"
    );
    if trace_path.is_some() {
        // Big enough for a --quick artifact; the ring drops oldest
        // events beyond this rather than growing without bound.
        vf_trace::install(Box::new(vf_trace::RingBufferSink::new(4_000_000)));
    }

    // The paper matrix is shared by fig3/fig4/fig5/table1 — run it once.
    let needs_matrix = artifacts
        .iter()
        .any(|a| matches!(a.as_str(), "fig3" | "fig4" | "fig5" | "table1"));
    let mut matrix = needs_matrix.then(|| experiments::run_matrix(params));

    if let (Some(dir), Some(m)) = (&csv_dir, matrix.as_mut()) {
        write_matrix_csv(dir, m).expect("writing CSV");
        eprintln!("# raw samples + summaries written to {}", dir.display());
    }

    for artifact in &artifacts {
        match artifact.as_str() {
            "fig3" => {
                let rows = experiments::fig3(matrix.as_mut().unwrap());
                println!("{}", render_fig3(&rows));
            }
            "fig4" => {
                let rows = experiments::fig4(matrix.as_mut().unwrap());
                print!("Fig. 4 — ");
                println!("{}", render_fig45(DriverKind::Virtio, &rows));
            }
            "fig5" => {
                let rows = experiments::fig5(matrix.as_mut().unwrap());
                print!("Fig. 5 — ");
                println!("{}", render_fig45(DriverKind::Xdma, &rows));
            }
            "table1" => {
                let rows = experiments::table1(matrix.as_mut().unwrap());
                println!(
                    "Table I — Tail latencies for data movement\n{}",
                    render_tails(&rows)
                );
            }
            "portability" => {
                println!("{}", render_portability(&experiments::portability(params)));
            }
            "xdma-irq-ablation" => {
                println!(
                    "{}",
                    render_xdma_irq(&experiments::xdma_irq_ablation(params))
                );
            }
            "virtio-features" => {
                println!(
                    "{}",
                    render_virtio_features(&experiments::virtio_features(params))
                );
            }
            "bypass" => {
                println!("{}", render_bypass(&experiments::bypass(params)));
            }
            "devtypes" => {
                println!(
                    "{}",
                    render_device_types(&experiments::device_types(params))
                );
            }
            "csum-offload" => {
                println!("{}", render_csum(&experiments::csum_offload(params)));
            }
            "noise-sweep" => {
                println!("{}", render_noise(&experiments::noise_sweep(params)));
            }
            "pipeline" => {
                println!(
                    "{}",
                    render_pipeline(&experiments::pipelined_throughput(params))
                );
            }
            "deployment" => {
                println!(
                    "{}",
                    render_deployment(&experiments::deployment_models(params))
                );
            }
            "card-memory" => {
                println!("{}", render_card_memory(&experiments::card_memory(params)));
            }
            "pmd" => {
                println!("{}", render_pmd(&experiments::pmd_tails(params)));
            }
            "pmd-crossover" => {
                println!(
                    "{}",
                    render_pmd_crossover(&experiments::pmd_crossover(params))
                );
            }
            "packed" => {
                println!("{}", render_packed(&experiments::packed_ring(params)));
            }
            "mq" => {
                for payload in [256usize, 1024] {
                    println!(
                        "{}",
                        render_mq(payload, &experiments::mq_scaling(params, payload))
                    );
                }
            }
            "ooo" => {
                for payload in [256usize, 1024] {
                    println!(
                        "{}",
                        render_ooo(payload, &experiments::pipeline_depth(params, payload))
                    );
                }
            }
            "tenants" => {
                for payload in [256usize, 1024] {
                    println!(
                        "{}",
                        render_tenants(payload, &experiments::tenant_scaling(params, payload))
                    );
                }
                println!(
                    "{}",
                    render_noisy(256, &experiments::noisy_neighbor(params, 256))
                );
            }
            "blk" => {
                println!("{}", render_blk(&experiments::blk_storage(params)));
            }
            "trace" => {
                let out = out_path
                    .clone()
                    .unwrap_or_else(|| PathBuf::from("trace.json"));
                run_trace_artifact(&out, packets.min(50), seed);
            }
            "metrics" => {
                let out = out_path
                    .clone()
                    .unwrap_or_else(|| PathBuf::from("metrics.json"));
                run_metrics_artifact(&out, csv_dir.as_deref(), packets.min(2_000), seed);
            }
            other => {
                eprintln!("unknown artifact: {other}");
                print_usage();
                std::process::exit(2);
            }
        }
    }

    if let Some(path) = &trace_path {
        let events = vf_trace::finish();
        std::fs::write(path, vf_trace::chrome_trace_json(&events)).expect("writing --trace output");
        eprintln!(
            "# trace: {} events written to {}",
            events.len(),
            path.display()
        );
    }
}

/// Adapt a metrics report's sampled series into Perfetto counter
/// tracks (histograms have no series and are skipped).
fn counter_tracks(report: &vf_metrics::MetricsReport) -> Vec<vf_trace::CounterTrack> {
    report
        .instruments
        .iter()
        .filter(|i| i.series().len() != 0)
        .map(|i| vf_trace::CounterTrack {
            name: format!("{}[{}]", i.name, i.index),
            points: i.series().collect(),
        })
        .collect()
}

/// One Perfetto track: its name, its events and its counter series.
type Track = (
    String,
    Vec<vf_trace::TraceEvent>,
    Vec<vf_trace::CounterTrack>,
);

/// The E18 trace artifact: run a short traced batch per driver model,
/// print the per-round-trip latency attribution, assert the spans
/// reconcile with the recorder, and export one Perfetto track per
/// driver to `out`. Each run is also metered, so every track carries
/// the sampler's counter series alongside its spans.
fn run_trace_artifact(out: &PathBuf, packets: usize, seed: u64) {
    use virtio_fpga::{metered, reconcile, traced_run, TestbedConfig};

    let drivers = [
        DriverKind::Virtio,
        DriverKind::VirtioPacked,
        DriverKind::Xdma,
        DriverKind::VirtioPmd,
    ];
    let mut tracks: Vec<Track> = Vec::new();
    println!("E18 — cross-layer latency attribution (payload 256 B, {packets} round trips/driver)");
    for (i, driver) in drivers.into_iter().enumerate() {
        let cfg = TestbedConfig::paper(driver, 256, packets, seed.wrapping_add(i as u64));
        let (run, metrics) = metered(vf_metrics::MetricsConfig::default(), || traced_run(&cfg));
        let rtts = run.breakdowns();
        reconcile(&run.result, &rtts)
            .unwrap_or_else(|e| panic!("{} trace fails reconciliation: {e}", driver.name()));
        println!();
        println!(
            "{} — spans reconcile with hw/sw summaries; first {} round trips:",
            driver.name(),
            rtts.len().min(5)
        );
        print!("{}", vf_trace::render_table(&rtts[..rtts.len().min(5)]));
        tracks.push((
            driver.name().to_string(),
            run.events,
            counter_tracks(&metrics),
        ));
    }

    // E19 multi-queue: one Perfetto track per queue pair.
    let mut mq_cfg = TestbedConfig::paper(DriverKind::VirtioMq, 256, packets, seed.wrapping_add(4));
    mq_cfg.options.mq_queue_pairs = 2;
    tracks.extend(two_way_tracks(
        &mq_cfg,
        "VirtIO-MQ (2 queue pairs)",
        ["q0", "q1"],
    ));

    // E21 multi-tenant: one Perfetto track per tenant, vhost backend on.
    let mut tnt_cfg =
        TestbedConfig::paper(DriverKind::VirtioTenant, 256, packets, seed.wrapping_add(5));
    tnt_cfg.options.mq_queue_pairs = 2;
    tnt_cfg.options.tenant_vhost = true;
    tracks.extend(two_way_tracks(
        &tnt_cfg,
        "VirtIO-TNT (2 tenants, vhost)",
        ["t0", "t1"],
    ));

    // The export reconciles across all layers: four driver tracks, two
    // queue tracks and two tenant tracks, every layer present, and at
    // least one complete span.
    assert_eq!(
        tracks.len(),
        8,
        "expected 4 drivers + 2 MQ queues + 2 tenants"
    );
    for name in ["VirtIO-TNT t0", "VirtIO-TNT t1"] {
        assert!(
            tracks.iter().any(|(n, ..)| n == name),
            "missing per-tenant track: {name}"
        );
    }
    let events = || tracks.iter().flat_map(|(_, e, _)| e);
    for layer in vf_trace::Layer::ALL {
        assert!(
            events().any(|ev| ev.layer == layer),
            "missing layer track: {}",
            layer.name()
        );
    }
    assert!(
        events().any(|ev| matches!(ev.kind, vf_trace::Kind::Span { .. })),
        "no complete spans"
    );

    let refs: Vec<(&str, &[vf_trace::TraceEvent], &[vf_trace::CounterTrack])> = tracks
        .iter()
        .map(|(n, e, c)| (n.as_str(), e.as_slice(), c.as_slice()))
        .collect();
    let counters: usize = tracks.iter().map(|(_, _, c)| c.len()).sum();
    std::fs::write(out, vf_trace::chrome_trace_json_full(&refs)).expect("writing trace JSON");
    println!();
    println!(
        "Perfetto trace ({} tracks, {} counter series) written to {} — load it at https://ui.perfetto.dev",
        refs.len(),
        counters,
        out.display()
    );
}

/// Trace and meter one serial two-way world (E19's two queue pairs or
/// E21's two tenants), print its first round trips under `title`, and
/// split its events into one track per way. The serial world
/// round-robins packets over the ways, so round-trip windows never
/// overlap and every event inside a window belongs to the way its root
/// span's name ends with. Bring-up events before the first round trip
/// carry no way and are left out of the export. Counter series are
/// per-run, not per-window: the first track carries them all.
fn two_way_tracks(cfg: &virtio_fpga::TestbedConfig, title: &str, ways: [&str; 2]) -> [Track; 2] {
    use virtio_fpga::{metered, reconcile, traced_run};

    let name = cfg.driver.name();
    let (run, metrics) = metered(vf_metrics::MetricsConfig::default(), || traced_run(cfg));
    let rtts = run.breakdowns();
    reconcile(&run.result, &rtts)
        .unwrap_or_else(|e| panic!("{name} trace fails reconciliation: {e}"));
    println!();
    println!(
        "{title} — spans reconcile; first {} round trips:",
        rtts.len().min(5)
    );
    print!("{}", vf_trace::render_table(&rtts[..rtts.len().min(5)]));
    let mut split: [Vec<vf_trace::TraceEvent>; 2] = Default::default();
    for ev in &run.events {
        let idx = rtts.partition_point(|r| r.t1 < ev.t);
        if let Some(rtt) = rtts.get(idx) {
            if ev.t >= rtt.t0 {
                split[usize::from(!rtt.name.ends_with(ways[0]))].push(ev.clone());
            }
        }
    }
    let [first, second] = split;
    [
        (
            format!("{name} {}", ways[0]),
            first,
            counter_tracks(&metrics),
        ),
        (format!("{name} {}", ways[1]), second, Vec::new()),
    ]
}

/// A named world for the metrics artifact: runs to completion and
/// returns its verify-failure count.
type MeteredWorld<'a> = (&'a str, Box<dyn FnOnce() -> u64>);

/// The E23 metrics artifact: run one metered MQ world, one metered
/// out-of-order world, and one metered multi-tenant world (all healthy
/// by construction), print each world's per-layer report, assert every
/// watchdog stayed quiet, and export the sampled series as JSON/CSV.
fn run_metrics_artifact(
    out: &PathBuf,
    csv_dir: Option<&std::path::Path>,
    packets: usize,
    seed: u64,
) {
    use virtio_fpga::experiments::MQ_SWEEP_DEPTH;
    use virtio_fpga::{metered, run_mq, run_tenants, TestbedConfig};

    // Queue pairs (tenants) per world; each pair's core is one CPU.
    const PAIRS: u16 = 4;
    println!("E23 — sampled per-layer metrics + invariant watchdogs ({packets} packets/world)");
    let worlds: [MeteredWorld; 3] = [
        (
            "mq",
            Box::new(move || {
                let mut cfg = TestbedConfig::paper(DriverKind::VirtioMq, 256, packets, seed);
                cfg.options.mq_queue_pairs = PAIRS;
                run_mq(&cfg, MQ_SWEEP_DEPTH).verify_failures
            }),
        ),
        (
            "ooo",
            Box::new(move || {
                let mut cfg =
                    TestbedConfig::paper(DriverKind::VirtioMq, 256, packets, seed.wrapping_add(1));
                cfg.options.mq_queue_pairs = PAIRS;
                cfg.options.pipeline_depth = 4;
                run_mq(&cfg, MQ_SWEEP_DEPTH).verify_failures
            }),
        ),
        (
            "tenants",
            Box::new(move || {
                let mut cfg = TestbedConfig::paper(
                    DriverKind::VirtioTenant,
                    256,
                    packets,
                    seed.wrapping_add(2),
                );
                cfg.options.mq_queue_pairs = PAIRS;
                cfg.options.tenant_vhost = true;
                cfg.options.tenant_policy = virtio_fpga::ArbiterPolicy::WeightedShare;
                run_tenants(&cfg, MQ_SWEEP_DEPTH).verify_failures
            }),
        ),
    ];

    let mut json = String::from("{");
    for (i, (name, world)) in worlds.into_iter().enumerate() {
        let (verify_failures, report) = metered(vf_metrics::MetricsConfig::default(), world);
        assert_eq!(verify_failures, 0, "{name}: payload verification failed");
        let mut required = vec!["pcie", "virtio", "fpga", "hostsw", "sim"];
        if name == "tenants" {
            required.push("tenant");
        }
        report
            .validate(&required)
            .unwrap_or_else(|e| panic!("{name}: metrics schema invalid: {e}"));
        assert!(
            report.violations.is_empty(),
            "{name}: watchdogs flagged a healthy world: {:?}",
            report.violations
        );
        for cpu in 0..PAIRS as u32 {
            assert!(
                report.get("hostsw.irq.count", cpu).is_some(),
                "{name}: no hostsw.irq.count series for CPU {cpu}"
            );
        }
        println!();
        print!("{}", report.render(name));
        assert!(report.samples > 0, "{name}: sampler never fired");
        println!("watchdogs: quiet ({} samples)", report.samples);
        if i > 0 {
            json.push(',');
        }
        json.push_str(&format!("\"{name}\":{}", report.to_json()));
        if let Some(dir) = csv_dir {
            std::fs::create_dir_all(dir).expect("creating CSV dir");
            let path = dir.join(format!("metrics_{name}.csv"));
            std::fs::write(&path, report.to_csv()).expect("writing metrics CSV");
            println!("series CSV written to {}", path.display());
        }
    }
    json.push('}');
    std::fs::write(out, json).expect("writing metrics JSON");
    println!();
    println!("metrics time-series JSON written to {}", out.display());
}

/// Dump the measurement matrix as CSV: one summaries file plus one raw
/// per-packet samples file per (driver, payload) cell — gnuplot/pandas
/// ready.
fn write_matrix_csv(dir: &PathBuf, m: &mut experiments::Matrix) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let mut summary = std::fs::File::create(dir.join("summary.csv"))?;
    writeln!(
        summary,
        "driver,payload,n,mean_us,std_us,min_us,p25_us,median_us,p75_us,p95_us,p99_us,p999_us,max_us,hw_mean_us,sw_mean_us"
    )?;
    for driver in [DriverKind::Virtio, DriverKind::Xdma] {
        for &payload in &PAPER_PAYLOADS {
            let cell = m.cell(driver, payload);
            let s = cell.total_summary();
            let hw = cell.hw_summary();
            let sw = cell.sw_summary();
            writeln!(
                summary,
                "{},{},{},{:.3},{:.3},{:.3},{:.3},{:.3},{:.3},{:.3},{:.3},{:.3},{:.3},{:.3},{:.3}",
                cell.driver.name(),
                payload,
                s.n,
                s.mean_us,
                s.std_us,
                s.min_us,
                s.p25_us,
                s.median_us,
                s.p75_us,
                s.p95_us,
                s.p99_us,
                s.p999_us,
                s.max_us,
                hw.mean_us,
                sw.mean_us
            )?;
            let name = format!(
                "samples_{}_{}B.csv",
                cell.driver.name().to_lowercase(),
                payload
            );
            let mut f = std::fs::File::create(dir.join(name))?;
            writeln!(f, "total_us,hw_us,sw_us")?;
            for ((t, h), w) in cell
                .total
                .raw()
                .iter()
                .zip(cell.hw.raw())
                .zip(cell.sw.raw())
            {
                writeln!(f, "{t:.3},{h:.3},{w:.3}")?;
            }
        }
    }
    Ok(())
}

fn print_usage() {
    eprintln!(
        "usage: repro [--packets N] [--seed S] [--quick] [--csv DIR] [--out FILE] [--trace FILE] <artifact>...\n\
         artifacts: fig3 fig4 fig5 table1 portability xdma-irq-ablation\n\
         \u{20}          virtio-features bypass devtypes csum-offload noise-sweep\n\
         \u{20}          pipeline deployment card-memory pmd pmd-crossover packed\n\
         \u{20}          mq ooo tenants blk trace metrics all"
    );
}
