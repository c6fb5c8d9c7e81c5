//! The link publishes its wire metrics once per public call, not once
//! per TLP. This test runs random call scripts under a metrics session,
//! samples after every call, and checks the published series against
//! the link's own counters and a per-TLP reference. The reference is
//! built from the TLP spans `vf-trace` records, one per TLP, collected
//! call by call.
//!
//! Checked on single-tag and multi-tag links:
//!
//! * `pcie.wire.bytes` and `pcie.wire.tlps` hold, at every sample, the
//!   link's `down_wire_bytes`/`up_wire_bytes` and its per-direction TLP
//!   count, so every call has published all its TLPs by the time it
//!   returns;
//! * `pcie.wire.tlp_bytes` equals a histogram fed one `record` per TLP
//!   (count, sum, min, max and buckets);
//! * instruments register in the order per-TLP publishing gives: each
//!   TLP's direction registers bytes, TLPs, then the size histogram,
//!   and a call's NP or posted-credit metrics come after its TLPs.

use proptest::collection::vec;
use proptest::prelude::*;

use vf_metrics::{names, LogLinearHist, MetricsConfig};
use vf_pcie::link::{LinkConfig, PcieLink};
use vf_sim::Time;
use vf_trace::{Layer, RingBufferSink};

/// One public link call.
#[derive(Clone, Copy, Debug)]
enum Call {
    MmioWrite(usize),
    MmioRead(usize),
    DmaRead(u64, usize),
    DmaReadNp(u64, usize),
    DmaWrite(u64, usize),
    Msix,
    /// Select the DMA tag context (no TLPs).
    Select(usize),
}

fn call() -> impl Strategy<Value = Call> {
    // Lengths include 0 (the DMA calls put nothing) and cross several
    // MPS and read-request boundaries from unaligned addresses, so a
    // call puts TLPs of several sizes.
    let len = 0usize..1_200;
    let addr = 0u64..4_096;
    prop_oneof![
        len.clone().prop_map(Call::MmioWrite),
        len.clone().prop_map(Call::MmioRead),
        (addr.clone(), len.clone()).prop_map(|(a, l)| Call::DmaRead(a, l)),
        (addr.clone(), len.clone()).prop_map(|(a, l)| Call::DmaReadNp(a, l)),
        (addr, len).prop_map(|(a, l)| Call::DmaWrite(a, l)),
        Just(Call::Msix),
        (0usize..3).prop_map(Call::Select),
    ]
}

fn link(multi_tag: bool) -> PcieLink {
    let mut cfg = LinkConfig::gen2_x2();
    if multi_tag {
        cfg.multi_tag = true;
        cfg.outstanding_reads = 2;
        cfg.posted_window = 2;
        cfg.max_outstanding_np = 4;
        cfg.relaxed_ordering = true;
    }
    PcieLink::new(cfg)
}

/// What per-TLP publishing would have produced.
#[derive(Default)]
struct Reference {
    /// Instrument keys in registration order.
    keys: Vec<(&'static str, u32)>,
    /// TLPs put so far, per direction (0 downstream, 1 upstream).
    tlps: [u64; 2],
    /// One `record` per TLP, per direction.
    hist: [LogLinearHist; 2],
    /// Per sample: `[wire bytes, TLPs]`, each per direction, after the
    /// call.
    after: Vec<[[u64; 2]; 2]>,
}

impl Reference {
    fn register(&mut self, name: &'static str, index: u32) {
        if !self.keys.contains(&(name, index)) {
            self.keys.push((name, index));
        }
    }
}

/// Run `script` on a fresh link under a metrics session, sampling after
/// every call, and check the report against the reference.
fn check(multi_tag: bool, script: &[(Call, u64)]) {
    let mut link = link(multi_tag);
    let mut reference = Reference::default();
    let mut now = Time::ZERO;
    let mut tag = 0usize;
    vf_metrics::install(MetricsConfig::default());
    for (k, &(call, gap_ns)) in script.iter().enumerate() {
        now += Time::from_ns(gap_ns);
        vf_trace::install(Box::new(RingBufferSink::new(1 << 16)));
        match call {
            Call::MmioWrite(len) => {
                link.mmio_write(now, len);
            }
            Call::MmioRead(len) => {
                link.mmio_read(now, len);
            }
            Call::DmaRead(addr, len) => {
                link.dma_read(now, addr, len);
            }
            Call::DmaReadNp(addr, len) => {
                link.dma_read_np(now, addr, len);
            }
            Call::DmaWrite(addr, len) => {
                link.dma_write(now, addr, len);
            }
            Call::Msix => {
                link.msix_write(now);
            }
            Call::Select(t) => {
                link.select_dma_context(t);
                tag = t;
            }
        }
        let spans = vf_trace::finish();
        for tlp in spans.iter().filter(|e| e.layer == Layer::Link) {
            let d = ((tlp.b >> 1) & 1) as u32;
            reference.register("pcie.wire.bytes", d);
            reference.register("pcie.wire.tlps", d);
            reference.register("pcie.wire.tlp_bytes", d);
            reference.tlps[d as usize] += 1;
            reference.hist[d as usize].record(tlp.a);
        }
        let t = if multi_tag { tag as u32 } else { 0 };
        match call {
            Call::DmaReadNp(_, len) if len > 0 => {
                for name in [
                    "pcie.np.issued",
                    names::NP_INFLIGHT,
                    names::NP_WINDOW,
                    "pcie.np.peak",
                ] {
                    reference.register(name, t);
                }
            }
            Call::DmaWrite(_, len) if len > 0 => {
                for name in [
                    names::POSTED_GRANTED,
                    names::POSTED_RELEASED,
                    names::POSTED_INFLIGHT,
                    "pcie.posted.window",
                ] {
                    reference.register(name, t);
                }
            }
            _ => {}
        }
        let bytes = [link.down_wire_bytes, link.up_wire_bytes];
        reference.after.push([bytes, reference.tlps]);
        vf_metrics::sample_at(k as u64 * 100);
    }
    let report = vf_metrics::finish();

    prop_assert!(report.violations.is_empty(), "{:?}", report.violations);
    let got: Vec<_> = report
        .instruments
        .iter()
        .map(|i| (i.name, i.index))
        .collect();
    prop_assert_eq!(got, reference.keys);
    prop_assert_eq!(
        reference.tlps.iter().sum::<u64>(),
        link.tlp_counts.iter().sum::<u64>()
    );
    for d in 0..2usize {
        // The series per-TLP publishing gives: the link's own value at
        // every sample from the first call that touched direction `d`.
        let sampled = |metric: usize| -> Vec<(u64, i64)> {
            let mut points = Vec::new();
            for (k, after) in reference.after.iter().enumerate() {
                let v = after[metric][d];
                if v > 0 {
                    points.push((k as u64 * 100, v as i64));
                }
            }
            points
        };
        let series = |name: &str| {
            report
                .get(name, d as u32)
                .map_or(Vec::new(), |i| i.series().collect())
        };
        prop_assert_eq!(series("pcie.wire.bytes"), sampled(0), "bytes[{}]", d);
        prop_assert_eq!(series("pcie.wire.tlps"), sampled(1), "tlps[{}]", d);

        let want = &reference.hist[d];
        match report.get("pcie.wire.tlp_bytes", d as u32) {
            None => prop_assert_eq!(want.count(), 0),
            Some(inst) => {
                let h = inst.histogram.as_ref().expect("histogram instrument");
                prop_assert_eq!(
                    (h.count(), h.sum(), h.min(), h.max()),
                    (want.count(), want.sum(), want.min(), want.max()),
                    "tlp_bytes[{}]",
                    d
                );
                prop_assert_eq!(h.buckets(), want.buckets(), "tlp_bytes[{}]", d);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn wire_metrics_match_the_link_at_every_call(
        multi_tag in any::<bool>(),
        script in vec((call(), 0u64..3_000), 1..40),
    ) {
        check(multi_tag, &script);
    }
}

/// One call of each kind in a fixed order, on both link kinds, so every
/// entry point's publish is checked whatever the random scripts draw.
#[test]
fn every_entry_point_publishes_before_it_returns() {
    let script = [
        (Call::DmaWrite(0x40, 300), 0),
        (Call::MmioRead(8), 100),
        (Call::DmaReadNp(0x10, 500), 0),
        (Call::Select(1), 0),
        (Call::DmaRead(0x7f0, 600), 50),
        (Call::MmioWrite(4), 0),
        (Call::Msix, 0),
        (Call::DmaReadNp(0x800, 256), 10),
    ];
    for multi_tag in [false, true] {
        check(multi_tag, &script);
    }
}
