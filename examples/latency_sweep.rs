//! Latency sweep: a compact rendition of the paper's whole evaluation —
//! Fig. 3 distributions, the Fig. 4/5 breakdowns, and Table I — in one
//! run.
//!
//! ```sh
//! cargo run --release --example latency_sweep            # 5 000 packets/cell
//! cargo run --release --example latency_sweep -- 50000   # paper scale
//! ```

use virtio_fpga::experiments::{self, ExperimentParams};
use virtio_fpga::{render_breakdown, render_table1, DriverKind};

fn main() {
    let packets = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(5_000);
    let params = ExperimentParams {
        packets,
        ..ExperimentParams::quick(42)
    };
    eprintln!("running the 2 × 5 measurement matrix ({packets} packets per cell)...");
    let t0 = std::time::Instant::now();
    let mut matrix = experiments::run_matrix(params);
    eprintln!("matrix done in {:.2?}\n", t0.elapsed());

    println!("== Fig. 3: round-trip latency distribution ==");
    for row in experiments::fig3(&mut matrix) {
        println!(
            "{:>5}B  VirtIO mean {:>5.1} sd {:>4.1} | XDMA mean {:>5.1} sd {:>4.1}   VirtIO |{}|",
            row.payload,
            row.virtio.mean_us,
            row.virtio.std_us,
            row.xdma.mean_us,
            row.xdma.std_us,
            row.virtio_hist.sparkline()
        );
        println!("{:>66} XDMA   |{}|", "", row.xdma_hist.sparkline());
    }

    println!("\n== Fig. 4 ==");
    let rows: Vec<_> = experiments::fig4(&mut matrix)
        .into_iter()
        .map(|r| (r.payload, r.sw, r.hw))
        .collect();
    println!("{}", render_breakdown(DriverKind::Virtio, &rows));

    println!("== Fig. 5 ==");
    let rows: Vec<_> = experiments::fig5(&mut matrix)
        .into_iter()
        .map(|r| (r.payload, r.sw, r.hw))
        .collect();
    println!("{}", render_breakdown(DriverKind::Xdma, &rows));

    println!("== Table I ==");
    let rows: Vec<_> = experiments::table1(&mut matrix)
        .into_iter()
        .map(|r| (r.payload, r.virtio, r.xdma))
        .collect();
    println!("{}", render_table1(&rows));

    println!(
        "Recommendation check (paper §V): VirtIO wins p95/p99 tails; the\n\
         advantage fades at p99.9 where rare host stalls hit both drivers."
    );
}
