//! The packed-virtqueue extension (VirtIO 1.2 §2.8): the same
//! request-response exchange on the split and the packed ring, with the
//! device DMA operations each layout costs per transfer, counted from
//! the reads and writes the device ring hands the FPGA walkers. That
//! comparison motivates a packed-ring revision of the paper's FPGA
//! controller.
//!
//! ```sh
//! cargo run --release --example packed_ring
//! ```

use vf_pcie::{HostMemory, LinkConfig, PcieLink};
use vf_sim::Time;
use vf_virtio::{BufferSpec, DeviceRing, DriverRing, GuestMemory};

const TRANSFERS: usize = 1000;

/// Push [`TRANSFERS`] request/response chains through a 64-entry ring of
/// one layout, with the device echoing each request into its response
/// buffer. Returns the device's DMA `(reads, writes)` per transfer,
/// payload excluded.
fn serve(packed: bool) -> (usize, usize) {
    let mut mem = HostMemory::testbed_default();
    let mut drv = DriverRing::alloc(&mut mem, 64, packed, false);
    let a = drv.areas();
    let mut dev = if packed {
        DeviceRing::packed(a.desc, a.size, 0)
    } else {
        DeviceRing::split(a, false, false, 0)
    };
    let data = mem.alloc(32 * 512, 64);
    let (mut reads, mut writes) = (0, 0);
    for i in 0..TRANSFERS as u64 {
        let req = data + (i % 32) * 512;
        let resp = req + 256;
        GuestMemory::write(&mut mem, req, &i.to_le_bytes());
        let id = drv
            .publish(
                &mut mem,
                &[BufferSpec::readable(req, 8), BufferSpec::writable(resp, 8)],
            )
            .expect("ring has room");
        // The walk's opening read (split only), then one descriptor read.
        reads += dev.prologue(&mem, false).into_iter().count() + 1;
        let chain = dev
            .next_chain(&mem)
            .expect("well-formed chain")
            .expect("chain visible");
        assert_eq!(chain.id, id);
        let echo = mem.read_vec(chain.bufs[0].addr, 8);
        GuestMemory::write(&mut mem, chain.bufs[1].addr, &echo);
        writes += dev.complete(&mut mem, &chain, 8).writes().len();
        dev.recycle(chain);
        let used = drv.pop_used(&mut mem).expect("completion visible");
        assert_eq!(used.len, 8);
        assert_eq!(mem.read_vec(resp, 8), i.to_le_bytes());
    }
    let name = if packed { "packed" } else { "split" };
    println!("{name} ring: {TRANSFERS} chains served, all verified");
    (reads / TRANSFERS, writes / TRANSFERS)
}

fn main() {
    let (sr, sw) = serve(false);
    let (pr, pw) = serve(true);

    // The structural argument: device DMA round trips per transfer.
    println!("\ndevice DMA operations per 2-descriptor transfer (reads, writes):");
    println!("  split ring : reads {sr}, writes {sw}");
    println!("  packed ring: reads {pr}, writes {pw}");

    // Priced at this testbed's link: what a packed controller would save.
    let mut link = PcieLink::new(LinkConfig::gen2_x2());
    let read_rtt = link.dma_read(Time::ZERO, 0, 16) - Time::ZERO;
    let saved_reads = (sr - pr) as u64;
    println!(
        "\nat {read_rtt} per descriptor-sized device read, a packed-ring\n\
         controller saves ≈ {} of FPGA-side latency per transfer — a concrete\n\
         prediction for the framework's next revision (cf. Fig. 4's hardware\n\
         share).",
        read_rtt * saved_reads
    );
}
