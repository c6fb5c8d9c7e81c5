//! The four workloads. Each is one `repro` invocation, available two
//! ways:
//!
//! * [`Workload::rows`] calls the same `experiments::*` functions
//!   `repro` calls (the warm-up pass);
//! * [`Workload::points`] lists every sweep point as a configuration
//!   plus the public runner that executes it, and [`Workload::summarize`]
//!   folds the runners' outputs into the same rows (the timed passes,
//!   which time each runner call, or need a session or a span per
//!   point).
//!
//! Both paths render through [`Rows::render`], which prints exactly
//! what `repro` prints. The unit tests pin the point list to the
//! experiments bit for bit.

use vf_bench::*;
use virtio_fpga::experiments::{
    self as ex, BlkQdPoint, BlkStorageRow, BreakdownRow, ExperimentParams, Fig3Row, Matrix, MqRow,
    NoisyRow, OooRow, PmdTailsRow, Table1Row, TenantRow,
};
use virtio_fpga::{
    run_blk, run_mq, run_tenants, run_xdma_storage, ArbiterPolicy, BlkPattern, BlkRunResult,
    DriverKind, MqThroughputResult, RunResult, TenantThroughputResult, Testbed, TestbedConfig,
    PAPER_PAYLOADS,
};

/// Payloads `repro` sweeps for `mq`, `ooo` and `tenants`.
const SWEEP_PAYLOADS: [usize; 2] = [256, 1024];
/// Queue-pair counts of `experiments::mq_scaling`.
const MQ_QUEUES: [u16; 5] = [1, 2, 4, 8, 16];
/// Ring layouts of `experiments::pipeline_depth`, in sweep order.
const OOO_LAYOUTS: [(DriverKind, &str); 2] = [
    (DriverKind::VirtioMq, "split"),
    (DriverKind::VirtioMqPacked, "packed"),
];
/// Payload of the noisy-neighbor cell `repro tenants` prints.
const NOISY_PAYLOAD: usize = 256;

/// The sweep parameters of one pass: single-threaded, unsharded.
pub fn params(seed: u64, packets: usize) -> ExperimentParams {
    ExperimentParams {
        packets,
        seed,
        threads: 1,
        shards: 1,
    }
}

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// `repro fig3 fig4 fig5 table1 pmd`: the serial echo matrix.
    PaperRtt,
    /// `repro mq ooo`: many DMA tags on one wire, pipelined walkers.
    NetMq,
    /// `repro tenants`: the only `vf-tenant` workload.
    TenantMux,
    /// `repro blk`: byte movement, reads beside writes.
    BlkStorage,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::PaperRtt,
        Workload::NetMq,
        Workload::TenantMux,
        Workload::BlkStorage,
    ];

    /// Name on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperRtt => "paper_rtt",
            Workload::NetMq => "net_mq",
            Workload::TenantMux => "tenant_mux",
            Workload::BlkStorage => "blk_storage",
        }
    }

    /// Inverse of [`Workload::name`].
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Packets (block requests for `blk_storage`) per sweep point in a
    /// timed pass: sized so a plain pass takes 0.5–1 s and a round of
    /// passes 3–4 s on a 2-core x86-64 host, which leaves room for
    /// 7–10 rounds (14–20 plain passes) in a 30 s run.
    pub fn packets(self) -> usize {
        match self {
            Workload::PaperRtt => 6_000,
            Workload::NetMq => 1_000,
            Workload::TenantMux => 1_200,
            Workload::BlkStorage => 360,
        }
    }

    /// Transfer size the link probe moves: the workload's main payload.
    pub fn probe_payload(self) -> usize {
        match self {
            Workload::BlkStorage => 4096,
            _ => 256,
        }
    }

    /// The rows `repro` computes, through the `experiments::*` calls it
    /// makes.
    pub fn rows(self, p: ExperimentParams) -> Rows {
        match self {
            Workload::PaperRtt => {
                let mut m = ex::run_matrix(p);
                Rows::PaperRtt {
                    fig3: ex::fig3(&mut m),
                    fig4: ex::fig4(&mut m),
                    fig5: ex::fig5(&mut m),
                    table1: ex::table1(&mut m),
                    pmd: ex::pmd_tails(p),
                }
            }
            Workload::NetMq => Rows::NetMq {
                mq: SWEEP_PAYLOADS.map(|payload| ex::mq_scaling(p, payload)),
                ooo: SWEEP_PAYLOADS.map(|payload| ex::pipeline_depth(p, payload)),
            },
            Workload::TenantMux => Rows::TenantMux {
                tenants: SWEEP_PAYLOADS.map(|payload| ex::tenant_scaling(p, payload)),
                noisy: ex::noisy_neighbor(p, NOISY_PAYLOAD),
            },
            Workload::BlkStorage => Rows::BlkStorage(ex::blk_storage(p)),
        }
    }

    /// Every sweep point of [`Workload::rows`], in the order the
    /// experiments run them, with the seeds and options they derive.
    pub fn points(self, p: ExperimentParams) -> Vec<Point> {
        let mut points = Vec::new();
        match self {
            Workload::PaperRtt => {
                for driver in [DriverKind::Virtio, DriverKind::Xdma] {
                    for (i, &payload) in PAPER_PAYLOADS.iter().enumerate() {
                        let seed = p
                            .seed
                            .wrapping_mul(1000)
                            .wrapping_add(i as u64)
                            .wrapping_add(if driver == DriverKind::Xdma { 500 } else { 0 });
                        let cfg = TestbedConfig::paper(driver, payload, p.packets, seed);
                        points.push(Point::new(cfg, Runner::Testbed));
                    }
                }
                for (i, &payload) in PAPER_PAYLOADS.iter().enumerate() {
                    let seed = p.seed.wrapping_mul(1000).wrapping_add(i as u64);
                    for driver in [DriverKind::Virtio, DriverKind::VirtioPmd, DriverKind::Xdma] {
                        let cfg = TestbedConfig::paper(driver, payload, p.packets, seed);
                        points.push(Point::new(cfg, Runner::Testbed));
                    }
                }
            }
            Workload::NetMq => {
                for payload in SWEEP_PAYLOADS {
                    for queues in MQ_QUEUES {
                        let mut cfg =
                            TestbedConfig::paper(DriverKind::VirtioMq, payload, p.packets, p.seed);
                        cfg.options.mq_queue_pairs = queues;
                        cfg.options.shards = p.shards;
                        points.push(Point::new(cfg, Runner::Mq));
                    }
                }
                for payload in SWEEP_PAYLOADS {
                    for (driver, _) in OOO_LAYOUTS {
                        for queues in ex::OOO_QUEUES {
                            for depth in ex::OOO_DEPTHS {
                                let mut cfg =
                                    TestbedConfig::paper(driver, payload, p.packets, p.seed);
                                cfg.options.mq_queue_pairs = queues;
                                cfg.options.pipeline_depth = depth;
                                cfg.options.shards = p.shards;
                                points.push(Point::new(cfg, Runner::Mq));
                            }
                        }
                    }
                }
            }
            Workload::TenantMux => {
                let tenant_cfg = |payload, tenants, policy| {
                    let mut cfg =
                        TestbedConfig::paper(DriverKind::VirtioTenant, payload, p.packets, p.seed);
                    cfg.options.mq_queue_pairs = tenants;
                    cfg.options.tenant_vhost = true;
                    cfg.options.tenant_policy = policy;
                    cfg.options.shards = p.shards;
                    cfg
                };
                for payload in SWEEP_PAYLOADS {
                    for policy in ArbiterPolicy::all() {
                        for tenants in ex::TENANT_COUNTS {
                            let cfg = tenant_cfg(payload, tenants, policy);
                            points.push(Point::new(cfg, Runner::Tenants));
                        }
                    }
                }
                for policy in ArbiterPolicy::all() {
                    for noisy in [false, true] {
                        let mut cfg = tenant_cfg(NOISY_PAYLOAD, ex::NOISY_TENANTS, policy);
                        if noisy {
                            // `vf_tenant::TenantConfig::noisy()` for tenant
                            // 0, spelled through its public fields because
                            // this binary does not depend on `vf-tenant`.
                            cfg.options.tenant_configs =
                                vec![Default::default(); usize::from(ex::NOISY_TENANTS)];
                            let aggressor = &mut cfg.options.tenant_configs[0];
                            aggressor.priority = 7;
                            aggressor.depth = Some(32);
                        }
                        points.push(Point::new(cfg, Runner::Tenants));
                    }
                }
            }
            Workload::BlkStorage => {
                for (w, &(pattern, io_bytes)) in ex::BLK_WORKLOADS.iter().enumerate() {
                    let seed = p.seed.wrapping_mul(1000).wrapping_add(w as u64 * 37);
                    let payload = io_bytes as usize;
                    for depth in ex::BLK_DEPTHS {
                        let cfg =
                            TestbedConfig::paper(DriverKind::VirtioBlk, payload, p.packets, seed);
                        let runner = Runner::Blk {
                            pattern,
                            io_bytes,
                            depth,
                        };
                        points.push(Point::new(cfg, runner));
                    }
                    let cfg = TestbedConfig::paper(DriverKind::Xdma, payload, p.packets, seed);
                    points.push(Point::new(cfg, Runner::XdmaStorage { pattern, io_bytes }));
                }
            }
        }
        points
    }

    /// Fold the outputs of [`Workload::points`] (same order) into the
    /// rows the experiments build from them.
    pub fn summarize(self, outs: Vec<Output>) -> Rows {
        let mut it = outs.into_iter();
        match self {
            Workload::PaperRtt => {
                let cells = it.by_ref().take(2 * PAPER_PAYLOADS.len()).map(Output::run);
                let mut m = Matrix {
                    cells: cells.collect(),
                };
                let pmd = PAPER_PAYLOADS
                    .iter()
                    .map(|&payload| {
                        let mut virtio = it.next().expect("pmd point").run();
                        let mut pmd = it.next().expect("pmd point").run();
                        let mut xdma = it.next().expect("pmd point").run();
                        PmdTailsRow {
                            payload,
                            virtio: virtio.total_summary(),
                            pmd: pmd.total_summary(),
                            xdma: xdma.total_summary(),
                            pmd_doorbells_per_packet: pmd.notifications as f64
                                / pmd.packets.max(1) as f64,
                        }
                    })
                    .collect();
                Rows::PaperRtt {
                    fig3: ex::fig3(&mut m),
                    fig4: ex::fig4(&mut m),
                    fig5: ex::fig5(&mut m),
                    table1: ex::table1(&mut m),
                    pmd,
                }
            }
            Workload::NetMq => {
                let mq = SWEEP_PAYLOADS.map(|_| {
                    let group: Vec<_> = it.by_ref().take(MQ_QUEUES.len()).map(Output::mq).collect();
                    mq_rows(group)
                });
                let ooo = SWEEP_PAYLOADS.map(|payload| {
                    let per_payload =
                        OOO_LAYOUTS.len() * ex::OOO_QUEUES.len() * ex::OOO_DEPTHS.len();
                    let group: Vec<_> = it.by_ref().take(per_payload).map(Output::mq).collect();
                    ooo_rows(payload, group)
                });
                Rows::NetMq { mq, ooo }
            }
            Workload::TenantMux => {
                let per_payload = ArbiterPolicy::all().len() * ex::TENANT_COUNTS.len();
                let tenants = SWEEP_PAYLOADS.map(|_| {
                    it.by_ref()
                        .take(per_payload)
                        .map(|o| tenant_row(o.tenants()))
                        .collect()
                });
                let noisy = ArbiterPolicy::all()
                    .iter()
                    .map(|policy| {
                        let base = it.next().expect("noisy baseline point").tenants();
                        let noisy = it.next().expect("noisy point").tenants();
                        noisy_row(policy.name(), base, noisy)
                    })
                    .collect();
                Rows::TenantMux { tenants, noisy }
            }
            Workload::BlkStorage => Rows::BlkStorage(
                ex::BLK_WORKLOADS
                    .iter()
                    .map(|&(pattern, io_bytes)| {
                        let group: Vec<_> = it
                            .by_ref()
                            .take(ex::BLK_DEPTHS.len() + 1)
                            .map(Output::blk)
                            .collect();
                        let (xdma, virtio) = group.split_last().expect("blk row points");
                        BlkStorageRow {
                            pattern,
                            io_bytes,
                            points: virtio.iter().map(blk_point).collect(),
                            xdma: blk_point(xdma),
                        }
                    })
                    .collect(),
            ),
        }
    }
}

/// `experiments::mq_scaling`'s row assembly.
fn mq_rows(results: Vec<MqThroughputResult>) -> Vec<MqRow> {
    let base_pps = results[0].pps;
    results
        .into_iter()
        .map(|mut r| MqRow {
            queues: r.queues,
            pps: r.pps,
            speedup: r.pps / base_pps,
            latency_us: r.mean_latency_us(),
            doorbells_per_packet: r.doorbells_per_packet(),
            irqs_per_packet: r.irqs_per_packet(),
            link_util_up: r.link_util_up,
            link_util_down: r.link_util_down,
        })
        .collect()
}

/// `experiments::pipeline_depth`'s row assembly.
fn ooo_rows(payload: usize, results: Vec<MqThroughputResult>) -> Vec<OooRow> {
    let mut rows = Vec::new();
    let mut it = results.into_iter();
    for (_, layout) in OOO_LAYOUTS {
        for queues in ex::OOO_QUEUES {
            let group: Vec<_> = it.by_ref().take(ex::OOO_DEPTHS.len()).collect();
            let base_pps = group[0].pps;
            for (depth, r) in ex::OOO_DEPTHS.into_iter().zip(group) {
                let occupied = r.link_util_up.max(r.link_util_down);
                rows.push(OooRow {
                    payload,
                    layout,
                    queues,
                    depth,
                    pps: r.pps,
                    speedup: r.pps / base_pps,
                    link_util_up: r.link_util_up,
                    link_util_down: r.link_util_down,
                    peak_np_inflight: r.peak_np_inflight,
                    bottleneck: if occupied >= ex::OOO_LINK_BOUND {
                        "link"
                    } else {
                        "walker"
                    },
                });
            }
        }
    }
    rows
}

/// `experiments::tenant_scaling`'s row assembly.
fn tenant_row(mut r: TenantThroughputResult) -> TenantRow {
    TenantRow {
        tenants: r.tenants,
        policy: r.policy.name(),
        pps: r.pps,
        worst_p99_us: r.worst_p99_us(),
        jain: r.jain_index,
        queued_frac: if r.arb_grants == 0 {
            0.0
        } else {
            r.arb_queued as f64 / (r.arb_queued + r.arb_grants) as f64
        },
        link_util_up: r.link_util_up,
        link_util_down: r.link_util_down,
    }
}

/// `experiments::noisy_neighbor`'s row assembly for one policy.
fn noisy_row(
    policy: &'static str,
    mut base: TenantThroughputResult,
    mut noisy: TenantThroughputResult,
) -> NoisyRow {
    let victims = 1..usize::from(ex::NOISY_TENANTS);
    let victim_p99 = victims.clone().map(|t| noisy.p99_us(t)).fold(0.0, f64::max);
    let baseline_p99 = victims.map(|t| base.p99_us(t)).fold(0.0, f64::max);
    NoisyRow {
        policy,
        pps: noisy.pps,
        noisy_pps: noisy.per_tenant_pps[0],
        victim_p99_us: victim_p99,
        baseline_p99_us: baseline_p99,
        p99_inflation: victim_p99 / baseline_p99,
        jain: noisy.jain_index,
    }
}

/// `experiments::blk_storage`'s per-point assembly.
fn blk_point(r: &BlkRunResult) -> BlkQdPoint {
    let mut latency = r.latency.clone();
    BlkQdPoint {
        depth: r.depth,
        iops: r.iops,
        mbps: r.mbps,
        latency: latency.summary(),
        doorbells_per_request: r.doorbells_per_request(),
        irqs_per_request: r.irqs_per_request(),
    }
}

/// The rows behind one workload's printed tables.
pub enum Rows {
    /// Figs. 3–5, Table I and the E15 tails.
    PaperRtt {
        /// Fig. 3 rows.
        fig3: Vec<Fig3Row>,
        /// Fig. 4 rows.
        fig4: Vec<BreakdownRow>,
        /// Fig. 5 rows.
        fig5: Vec<BreakdownRow>,
        /// Table I rows.
        table1: Vec<Table1Row>,
        /// E15 rows.
        pmd: Vec<PmdTailsRow>,
    },
    /// E19 and E20, one table per payload.
    NetMq {
        /// E19 rows per payload.
        mq: [Vec<MqRow>; 2],
        /// E20 rows per payload.
        ooo: [Vec<OooRow>; 2],
    },
    /// E21 scaling per payload, then the noisy neighbor.
    TenantMux {
        /// E21 scaling rows per payload.
        tenants: [Vec<TenantRow>; 2],
        /// Noisy-neighbor rows.
        noisy: Vec<NoisyRow>,
    },
    /// E24.
    BlkStorage(Vec<BlkStorageRow>),
}

impl Rows {
    /// Exactly the text `repro` prints to stdout for these artifacts.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let mut line = |s: String| {
            out.push_str(&s);
            out.push('\n');
        };
        match self {
            Rows::PaperRtt {
                fig3,
                fig4,
                fig5,
                table1,
                pmd,
            } => {
                line(render_fig3(fig3));
                line(format!(
                    "Fig. 4 — {}",
                    render_fig45(DriverKind::Virtio, fig4)
                ));
                line(format!("Fig. 5 — {}", render_fig45(DriverKind::Xdma, fig5)));
                line(format!(
                    "Table I — Tail latencies for data movement\n{}",
                    render_tails(table1)
                ));
                line(render_pmd(pmd));
            }
            Rows::NetMq { mq, ooo } => {
                for (payload, rows) in SWEEP_PAYLOADS.iter().zip(mq) {
                    line(render_mq(*payload, rows));
                }
                for (payload, rows) in SWEEP_PAYLOADS.iter().zip(ooo) {
                    line(render_ooo(*payload, rows));
                }
            }
            Rows::TenantMux { tenants, noisy } => {
                for (payload, rows) in SWEEP_PAYLOADS.iter().zip(tenants) {
                    line(render_tenants(*payload, rows));
                }
                line(render_noisy(NOISY_PAYLOAD, noisy));
            }
            Rows::BlkStorage(rows) => line(render_blk(rows)),
        }
        out
    }
}

/// Which public runner executes a point.
#[derive(Clone, Copy, Debug)]
pub enum Runner {
    /// `Testbed::run` (every serial round-trip world, the PMD included).
    Testbed,
    /// `run_mq` at the E19 window.
    Mq,
    /// `run_tenants` at the E19 window.
    Tenants,
    /// `run_blk`.
    Blk {
        /// Access pattern.
        pattern: BlkPattern,
        /// Bytes per request.
        io_bytes: u32,
        /// Outstanding requests.
        depth: usize,
    },
    /// `run_xdma_storage`.
    XdmaStorage {
        /// Access pattern.
        pattern: BlkPattern,
        /// Bytes per request.
        io_bytes: u32,
    },
}

/// One sweep point: a configuration and the runner that executes it.
#[derive(Clone, Debug)]
pub struct Point {
    /// The configuration the experiment builds.
    pub cfg: TestbedConfig,
    /// The runner the experiment calls.
    pub runner: Runner,
}

impl Point {
    fn new(cfg: TestbedConfig, runner: Runner) -> Point {
        Point { cfg, runner }
    }

    /// Run the point to completion.
    pub fn run(&self) -> Output {
        let cfg = &self.cfg;
        match self.runner {
            Runner::Testbed => Output::Run(Testbed::new(cfg.clone()).run()),
            Runner::Mq => Output::Mq(run_mq(cfg, ex::MQ_SWEEP_DEPTH)),
            Runner::Tenants => Output::Tenants(run_tenants(cfg, ex::MQ_SWEEP_DEPTH)),
            Runner::Blk {
                pattern,
                io_bytes,
                depth,
            } => Output::Blk(run_blk(cfg, pattern, io_bytes, depth)),
            Runner::XdmaStorage { pattern, io_bytes } => {
                Output::Blk(run_xdma_storage(cfg, pattern, io_bytes))
            }
        }
    }

    /// The same point at its smallest legal op count — one packet per
    /// queue pair or tenant, one request otherwise — so running it
    /// measures bring-up and teardown.
    pub fn bring_up(&self) -> Point {
        let mut cfg = self.cfg.clone();
        cfg.packets = match self.runner {
            Runner::Mq | Runner::Tenants => usize::from(cfg.options.mq_queue_pairs),
            _ => 1,
        };
        Point::new(cfg, self.runner)
    }

    /// Short label for trace spans.
    pub fn label(&self) -> String {
        let c = &self.cfg;
        let o = &c.options;
        match self.runner {
            Runner::Testbed => format!("{} {}B", c.driver.name(), c.payload),
            Runner::Mq => format!(
                "{} {}B q{} d{}",
                c.driver.name(),
                c.payload,
                o.mq_queue_pairs,
                o.pipeline_depth
            ),
            Runner::Tenants => format!(
                "{} {}B t{} {}{}",
                c.driver.name(),
                c.payload,
                o.mq_queue_pairs,
                o.tenant_policy.name(),
                if o.tenant_configs.is_empty() {
                    ""
                } else {
                    " noisy"
                }
            ),
            Runner::Blk { pattern, depth, .. } => {
                format!(
                    "{} {} {}B qd{depth}",
                    c.driver.name(),
                    pattern.name(),
                    c.payload
                )
            }
            Runner::XdmaStorage { pattern, .. } => {
                format!("{} {} {}B", c.driver.name(), pattern.name(), c.payload)
            }
        }
    }
}

/// What a runner returned.
pub enum Output {
    /// From `Testbed::run`.
    Run(RunResult),
    /// From `run_mq`.
    Mq(MqThroughputResult),
    /// From `run_tenants`.
    Tenants(TenantThroughputResult),
    /// From `run_blk` or `run_xdma_storage`.
    Blk(BlkRunResult),
}

impl Output {
    fn run(self) -> RunResult {
        match self {
            Output::Run(r) => r,
            _ => panic!("point list out of step: expected a Testbed::run result"),
        }
    }

    fn mq(self) -> MqThroughputResult {
        match self {
            Output::Mq(r) => r,
            _ => panic!("point list out of step: expected a run_mq result"),
        }
    }

    fn tenants(self) -> TenantThroughputResult {
        match self {
            Output::Tenants(r) => r,
            _ => panic!("point list out of step: expected a run_tenants result"),
        }
    }

    fn blk(self) -> BlkRunResult {
        match self {
            Output::Blk(r) => r,
            _ => panic!("point list out of step: expected a storage result"),
        }
    }

    /// Payload or status verification failures (must be 0).
    pub fn verify_failures(&self) -> u64 {
        match self {
            Output::Run(r) => r.verify_failures,
            Output::Mq(r) => r.verify_failures,
            Output::Tenants(r) => r.verify_failures,
            Output::Blk(r) => r.verify_failures,
        }
    }

    /// Arbiter `(queued, grants)` of a tenant point, `(0, 0)` otherwise.
    pub fn arbiter(&self) -> (u64, u64) {
        match self {
            Output::Tenants(r) => (r.arb_queued, r.arb_grants),
            _ => (0, 0),
        }
    }

    /// Digest of every statistic the runner returned, raw latency
    /// samples included, so two runs agree on it only if they simulated
    /// the same thing.
    pub fn digest(&self) -> u64 {
        let h = Fnv::default();
        match self {
            Output::Run(r) => h
                .words(&[r.packets as u64, r.seed, r.verify_failures])
                .words(&[r.notifications, r.irqs, r.desc_reads])
                .samples(r.total.raw())
                .samples(r.hw.raw())
                .samples(r.sw.raw())
                .samples(r.proc.raw()),
            Output::Mq(r) => r
                .per_queue_latency
                .iter()
                .fold(h, |h, s| h.samples(s.raw()))
                .words(&[u64::from(r.queues), r.depth as u64, r.packets as u64])
                .words(&[r.doorbells, r.irqs, r.verify_failures, r.peak_np_inflight])
                .samples(&[r.pps, r.link_util_up, r.link_util_down]),
            Output::Tenants(r) => r
                .per_tenant_latency
                .iter()
                .fold(h, |h, s| h.samples(s.raw()))
                .samples(&r.per_tenant_pps)
                .words(&[u64::from(r.tenants), r.depth as u64, r.packets as u64])
                .words(&[r.doorbells, r.irqs, r.verify_failures])
                .words(&[r.arb_grants, r.arb_queued, u64::from(r.vhost)])
                .bytes(r.policy.name().as_bytes())
                .samples(&[r.pps, r.jain_index, r.link_util_up, r.link_util_down]),
            Output::Blk(r) => h
                .bytes(r.pattern.name().as_bytes())
                .words(&[u64::from(r.io_bytes), r.depth as u64, r.requests as u64])
                .words(&[r.doorbells, r.irqs, r.verify_failures])
                .samples(r.latency.raw())
                .samples(&[r.iops, r.mbps, r.link_util_up, r.link_util_down]),
        }
        .finish()
    }
}

/// FNV-1a 64. [`Fnv::bytes`] is the textbook byte-wise hash (the
/// output digest); [`Fnv::words`] folds whole 64-bit words, one
/// multiply each, to keep digesting raw sample sets cheap.
#[derive(Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    /// The FNV-1a 64 offset basis.
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    const PRIME: u64 = 0x0100_0000_01b3;

    /// Fold bytes, one at a time.
    pub fn bytes(self, bytes: &[u8]) -> Fnv {
        Fnv(bytes
            .iter()
            .fold(self.0, |h, &b| (h ^ u64::from(b)).wrapping_mul(Self::PRIME)))
    }

    /// Fold whole words.
    pub fn words(self, words: &[u64]) -> Fnv {
        Fnv(words
            .iter()
            .fold(self.0, |h, &w| (h ^ w).wrapping_mul(Self::PRIME)))
    }

    /// Fold floats by their exact bit patterns.
    pub fn samples(self, xs: &[f64]) -> Fnv {
        Fnv(xs
            .iter()
            .fold(self.0, |h, x| (h ^ x.to_bits()).wrapping_mul(Self::PRIME)))
    }

    /// The digest.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// FNV-1a 64 of `text`: the output digest of a pass.
pub fn text_digest(text: &str) -> u64 {
    Fnv::default().bytes(text.as_bytes()).finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every row field, floats by their exact bits (`{:?}` of an `f64`
    /// round-trips), so equal dumps mean bit-identical rows.
    macro_rules! dump {
        ($out:expr, $row:expr; $($field:ident),+) => {{
            let r = $row;
            $( $out.push_str(&format!("{}={:?};", stringify!($field), r.$field)); )+
            $out.push('\n');
        }};
    }

    fn dump(rows: &Rows) -> String {
        let mut out = String::new();
        match rows {
            Rows::PaperRtt {
                fig3,
                fig4,
                fig5,
                table1,
                pmd,
            } => {
                for r in fig3 {
                    dump!(out, r; payload, virtio, xdma, virtio_hist, xdma_hist);
                }
                for r in fig4.iter().chain(fig5) {
                    dump!(out, r; payload, sw, hw, total);
                }
                for r in table1 {
                    dump!(out, r; payload, virtio, xdma);
                }
                for r in pmd {
                    dump!(out, r; payload, virtio, pmd, xdma, pmd_doorbells_per_packet);
                }
            }
            Rows::NetMq { mq, ooo } => {
                for r in mq.iter().flatten() {
                    dump!(out, r; queues, pps, speedup, latency_us, doorbells_per_packet,
                        irqs_per_packet, link_util_up, link_util_down);
                }
                for r in ooo.iter().flatten() {
                    dump!(out, r; payload, layout, queues, depth, pps, speedup, link_util_up,
                        link_util_down, peak_np_inflight, bottleneck);
                }
            }
            Rows::TenantMux { tenants, noisy } => {
                for r in tenants.iter().flatten() {
                    dump!(out, r; tenants, policy, pps, worst_p99_us, jain, queued_frac,
                        link_util_up, link_util_down);
                }
                for r in noisy {
                    dump!(out, r; policy, pps, noisy_pps, victim_p99_us, baseline_p99_us,
                        p99_inflation, jain);
                }
            }
            Rows::BlkStorage(rows) => {
                for r in rows {
                    dump!(out, r; pattern, io_bytes);
                    for p in r.points.iter().chain([&r.xdma]) {
                        dump!(out, p; depth, iops, mbps, latency, doorbells_per_request,
                            irqs_per_request);
                    }
                }
            }
        }
        out
    }

    /// The point list and its row assembly reproduce the experiments'
    /// rows bit for bit, and therefore the printed text too. 160
    /// packets give the noisy neighbor's tenant 20, more than the
    /// default 16-deep window, so its deeper window changes the rows.
    #[test]
    fn points_reproduce_experiment_rows() {
        for w in Workload::ALL {
            let p = params(7, 160);
            let expected = w.rows(p);
            let points = w.points(p);
            let got = w.summarize(points.iter().map(Point::run).collect());
            assert_eq!(dump(&got), dump(&expected), "{} rows drifted", w.name());
            assert_eq!(got.render(), expected.render(), "{} text drifted", w.name());
        }
    }

    #[test]
    fn bring_up_points_run() {
        for w in Workload::ALL {
            for point in w.points(params(3, 64)) {
                let small = point.bring_up();
                assert_eq!(small.run().verify_failures(), 0, "{}", small.label());
            }
        }
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(text_digest(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(text_digest("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(text_digest("foobar"), 0x8594_4171_f739_67e8);
    }
}
