//! PCIe link timing model.
//!
//! Models one endpoint's link to the root complex at transaction-level
//! fidelity: TLP serialization on each direction of the link, one-way
//! propagation (PHY + chipset/switch forwarding), root-complex memory
//! latency for device-initiated reads, a bounded non-posted tag window,
//! and credit-limited posted writes.
//!
//! The paper's board is an Alinx AX7A200 with **PCIe Gen2 x2** plugged
//! into a desktop host, which pins the defaults here:
//!
//! * Gen2 → 5 GT/s with 8b/10b encoding → 500 MB/s per lane;
//! * 2 lanes → 1 ns per byte of wire time;
//! * consumer chipsets commonly cap Max Payload Size at 128 B, and the
//!   effective read-request size at the same (even when MRRS is larger,
//!   the XDMA engine's short-transfer pipelining is shallow);
//! * each device read of host memory is therefore a ~1.3–1.6 µs round
//!   trip per 128 B chunk, giving the ~90 MB/s effective short-transfer
//!   DMA rate implied by the paper's payload/latency slope (Table I:
//!   ~21 µs additional round-trip latency per KiB of payload).
//!
//! Absolute constants are overridable — the calibration profile in the
//! `virtio-fpga` crate owns the numbers; this module owns the mechanics.

use std::collections::VecDeque;

use vf_metrics::{names, Batch, Counter, Gauge, Histogram};
use vf_sim::Time;

use crate::tlp::{split_aligned, wire_bytes, TlpKind};

/// PCIe protocol generation — sets the per-lane wire rate.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PcieGen {
    /// 2.5 GT/s, 8b/10b → 250 MB/s per lane.
    Gen1,
    /// 5 GT/s, 8b/10b → 500 MB/s per lane.
    Gen2,
    /// 8 GT/s, 128b/130b → ~985 MB/s per lane.
    Gen3,
}

impl PcieGen {
    /// Picoseconds to move one byte over one lane.
    pub fn ps_per_byte_per_lane(self) -> u64 {
        match self {
            PcieGen::Gen1 => 4_000,
            PcieGen::Gen2 => 2_000,
            // 8 GT/s · 128/130 ≈ 7.877 Gb/s → 1015.6 ps/byte.
            PcieGen::Gen3 => 1_016,
        }
    }
}

/// Static configuration of the endpoint link and the host behind it.
#[derive(Clone, Debug)]
pub struct LinkConfig {
    /// Protocol generation.
    pub gen: PcieGen,
    /// Lane count (x1/x2/x4/x8...). The paper's board: x2.
    pub lanes: u32,
    /// Max Payload Size for posted writes and completions, bytes.
    pub mps: usize,
    /// Effective max read-request size the device issues, bytes.
    pub read_req: usize,
    /// One-way flight time: PHY + chipset forwarding.
    pub propagation: Time,
    /// Root-complex latency from read-request arrival to first completion
    /// departure (host DRAM access through the memory controller).
    pub rc_read_latency: Time,
    /// Posted-write settling at the root complex (arrival to globally
    /// visible in host DRAM).
    pub rc_write_latency: Time,
    /// Endpoint-internal latency answering an MMIO read (BAR register
    /// fetch inside the FPGA fabric).
    pub dev_mmio_latency: Time,
    /// Non-posted requests the device keeps in flight.
    pub outstanding_reads: usize,
    /// Posted TLPs in flight before the device stalls on flow-control
    /// credits.
    pub posted_window: usize,
    /// Time for one posted TLP's credit to return (UpdateFC DLLP cadence).
    pub credit_return: Time,
    /// Concurrent non-posted reads a single DMA tag context may keep in
    /// flight across [`PcieLink::dma_read_np`] calls (E20). `1` keeps
    /// the strict one-read-at-a-time FIFO behaviour of the serial
    /// walker; real DMA engines hide the ~1.55 µs RC read latency by
    /// allocating several tags per channel.
    pub max_outstanding_np: usize,
    /// Allow out-of-order completion of non-posted reads within one tag
    /// context (PCIe relaxed ordering, TLP attr RO). When off, a read's
    /// completion is held back until every older read on the tag has
    /// completed, even if its data arrived earlier.
    pub relaxed_ordering: bool,
    /// Bound on relaxed-ordering reordering: a completion may pass at
    /// most this many older reads on the same tag (completion-buffer
    /// depth in the DMA engine). Inert unless `relaxed_ordering` is on.
    pub reorder_window: usize,
    /// Model independent DMA tag contexts (multi-queue controllers):
    /// a TLP issued later in *call* order but earlier in *simulated*
    /// time may backfill an idle wire gap another context's latency
    /// chain left behind. Single-engine designs (the XDMA example, the
    /// single-queue VirtIO controller) keep this off: their one tag
    /// context issues TLPs strictly in time order, so the wire behaves
    /// as a FIFO high-water mark.
    pub multi_tag: bool,
}

impl LinkConfig {
    /// The paper's testbed link: Gen2 x2 into a consumer desktop chipset.
    pub fn gen2_x2() -> Self {
        LinkConfig {
            gen: PcieGen::Gen2,
            lanes: 2,
            mps: 128,
            read_req: 128,
            propagation: Time::from_ns(150),
            rc_read_latency: Time::from_ns(1_550),
            rc_write_latency: Time::from_ns(250),
            dev_mmio_latency: Time::from_ns(120),
            outstanding_reads: 1,
            posted_window: 1,
            credit_return: Time::from_ns(350),
            max_outstanding_np: 1,
            relaxed_ordering: false,
            reorder_window: 4,
            multi_tag: false,
        }
    }

    /// A generic wider/faster link for the portability sweep (E5).
    pub fn with(gen: PcieGen, lanes: u32) -> Self {
        let mut cfg = Self::gen2_x2();
        cfg.gen = gen;
        cfg.lanes = lanes;
        // Wider server-class links come with deeper buffers: scale the
        // windows so the sweep shows the bandwidth trend rather than a
        // constant-window artifact.
        cfg.outstanding_reads = (lanes as usize).clamp(1, 8);
        cfg.posted_window = (lanes as usize).clamp(1, 8);
        cfg
    }

    /// Picoseconds per byte on this link.
    pub fn ps_per_byte(&self) -> u64 {
        self.gen.ps_per_byte_per_lane() / self.lanes as u64
    }

    /// Serialization time for `bytes` on the wire.
    pub fn serialize(&self, bytes: usize) -> Time {
        Time::from_ps(bytes as u64 * self.ps_per_byte())
    }
}

/// Link transfer directions, named from the root complex's perspective.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Root complex → endpoint (host MMIO, read completions to device).
    Downstream,
    /// Endpoint → root complex (device DMA, MSI-X writes).
    Upstream,
}

/// One direction's wire occupancy: merged busy intervals, oldest first.
///
/// A TLP reserves the earliest gap of its serialization length at or
/// after its `earliest` instant. Keeping *intervals* rather than a
/// single high-water mark matters once several virtqueues drive the
/// link concurrently: one queue's descriptor walk chains read latencies
/// far into the future, and a scalar watermark would leap forward with
/// it, making a second queue's TLPs — issued later in call order but
/// earlier in simulated time — queue behind wire time that was actually
/// idle. With gap backfill, concurrent queues overlap their *latencies*
/// (tag-level concurrency) while genuinely overlapping *wire time*
/// still serializes.
#[derive(Clone, Debug, Default)]
struct WireDir {
    /// FIFO high-water mark (single-tag mode).
    watermark: Time,
    /// Merged busy intervals (multi-tag mode), disjoint and sorted, so
    /// both starts and ends ascend.
    busy: VecDeque<(Time, Time)>,
    /// Scan-start hints: the index just past the interval the last
    /// reservation joined, and the last scan's start. Back-to-back
    /// completion trains reserve where the previous TLP ended, so one
    /// of them is usually the scan start the next call needs.
    hints: [usize; 2],
    /// Intervals the gap scans have visited, for the scan-length test.
    #[cfg(test)]
    scan_steps: u64,
    /// Scans that started at a hint instead of a binary search.
    #[cfg(test)]
    hint_hits: u64,
}

/// Interval-list bound. When exceeded, the two oldest intervals are
/// coalesced (conservative: the gap between them is forgotten as
/// *busy*, never double-booked). [`PcieLink::advance_epoch`] prunes
/// retired intervals each event, but a deep multi-queue pipeline can
/// still book wire far enough ahead to reach this bound: the E19 sweep
/// does, and [`PcieLink::wire_cap_coalesces`] counts each coalesce.
const WIRE_INTERVAL_CAP: usize = 4096;

impl WireDir {
    /// Drop intervals that ended at or before `epoch` — they can never
    /// conflict with a reservation whose `earliest` is `>= epoch`.
    fn prune(&mut self, epoch: Time) {
        let mut popped = 0;
        while let Some(&(_, e)) = self.busy.front() {
            if e <= epoch {
                self.busy.pop_front();
                popped += 1;
            } else {
                break;
            }
        }
        self.shift_hints(popped);
    }

    /// Keep the hints on the same intervals after `n` were popped off
    /// the front.
    fn shift_hints(&mut self, n: usize) {
        for h in &mut self.hints {
            *h = h.saturating_sub(n);
        }
    }

    /// The first interval ending after `earliest`: a hint when one is
    /// exactly that index, else a binary search. Ends strictly ascend,
    /// so `h` is the partition point iff the interval before it ends at
    /// or before `earliest` and the one at it ends after.
    fn scan_start(&mut self, earliest: Time) -> usize {
        let len = self.busy.len();
        for h in self.hints {
            if h <= len
                && (h == 0 || self.busy[h - 1].1 <= earliest)
                && (h == len || self.busy[h].1 > earliest)
            {
                #[cfg(test)]
                {
                    self.hint_hits += 1;
                }
                return h;
            }
        }
        self.busy.partition_point(|&(_, e)| e <= earliest)
    }

    /// Reserve `dur` (non-zero) of wire no earlier than `earliest`;
    /// returns the instant the reservation ends (last symbol leaves the
    /// sender). Bumps `coalesces` when the interval cap merges the two
    /// oldest intervals.
    fn reserve(&mut self, multi_tag: bool, earliest: Time, dur: Time, coalesces: &mut u64) -> Time {
        if !multi_tag {
            let start = self.watermark.max(earliest);
            let end = start + dur;
            self.watermark = end;
            return end;
        }
        // The gap scan starts at the first interval ending after
        // `earliest`. Every interval before it has `s < e <= earliest`:
        // it can neither push `start` past `earliest` nor leave a gap
        // of `dur` before itself, so skipping it cannot change the
        // result.
        let first = self.scan_start(earliest);
        let mut start = earliest;
        let mut idx = self.busy.len();
        for (i, &(s, e)) in self.busy.range(first..).enumerate() {
            #[cfg(test)]
            {
                self.scan_steps += 1;
            }
            if start + dur <= s {
                idx = first + i;
                break;
            }
            if e > start {
                start = e;
            }
        }
        let end = start + dur;
        // Join touching neighbours in place to keep the list canonical.
        // The scan leaves `busy[idx - 1].1 <= start`, and only a gap
        // with no neighbour on either side grows the list.
        let left = idx > 0 && self.busy[idx - 1].1 == start;
        let right = idx < self.busy.len() && self.busy[idx].0 == end;
        let joined = match (left, right) {
            (true, true) => {
                self.busy[idx - 1].1 = self.busy[idx].1;
                self.busy.remove(idx);
                idx - 1
            }
            (true, false) => {
                self.busy[idx - 1].1 = end;
                idx - 1
            }
            (false, true) => {
                self.busy[idx].0 = start;
                idx
            }
            (false, false) => {
                self.busy.insert(idx, (start, end));
                idx
            }
        };
        self.hints = [joined + 1, first];
        if self.busy.len() > WIRE_INTERVAL_CAP {
            let (s0, _) = self.busy[0];
            let (_, e1) = self.busy[1];
            self.busy.pop_front();
            self.busy[0] = (s0, e1);
            self.shift_hints(1);
            *coalesces += 1;
        }
        end
    }
}

/// One direction's share of a [`WireTally`], with the direction's
/// `pcie.wire.*` instruments.
#[derive(Clone, Debug)]
struct DirTally {
    bytes: u64,
    tlps: u64,
    /// `(wire size, TLPs)` per distinct wire size, first seen first.
    sizes: Vec<(usize, u64)>,
    bytes_ctr: Counter,
    tlps_ctr: Counter,
    size_hist: Histogram,
}

impl DirTally {
    fn new(index: u32) -> DirTally {
        DirTally {
            bytes: 0,
            tlps: 0,
            sizes: Vec::new(),
            bytes_ctr: Counter::new("pcie.wire.bytes", index),
            tlps_ctr: Counter::new("pcie.wire.tlps", index),
            size_hist: Histogram::new("pcie.wire.tlp_bytes", index),
        }
    }
}

/// Wire metrics of the TLPs one public link call puts, published once
/// when the call returns instead of once per TLP.
///
/// The batching is exact. The two counters add up the same deltas, and
/// [`Histogram::record_n`] builds the same histogram as one
/// [`Histogram::record`] per TLP. Samples fire only between event
/// deliveries, never inside a link call, so no sample can see a
/// half-published call. Directions publish in the order the call first
/// touched them, so instruments register in the per-TLP order.
#[derive(Clone, Debug)]
struct WireTally {
    /// Indexed by metrics index: 0 downstream, 1 upstream.
    dirs: [DirTally; 2],
    /// Directions touched since the last flush, first touch first.
    order: Vec<usize>,
}

impl Default for WireTally {
    fn default() -> WireTally {
        WireTally {
            dirs: [DirTally::new(0), DirTally::new(1)],
            order: Vec::new(),
        }
    }
}

impl WireTally {
    /// Tally `n` (at least one) TLPs of `wire` bytes in direction `d`,
    /// exactly as `n` single TLPs would: a new direction or wire size
    /// joins its list on first touch.
    fn add_n(&mut self, d: usize, wire: usize, n: u64) {
        debug_assert!(n > 0, "an empty tally would register a direction");
        let t = &mut self.dirs[d];
        if t.tlps == 0 {
            self.order.push(d);
        }
        t.bytes += wire as u64 * n;
        t.tlps += n;
        match t.sizes.iter_mut().find(|(w, _)| *w == wire) {
            Some((_, k)) => *k += n,
            None => t.sizes.push((wire, n)),
        }
    }

    /// Publish and clear the tally. Every public link method that puts
    /// TLPs calls it once, before its own metrics and under the same
    /// session borrow.
    fn flush(&mut self, b: &mut Batch<'_>) {
        for d in self.order.drain(..) {
            let t = &mut self.dirs[d];
            b.counter_add(&t.bytes_ctr, t.bytes);
            b.counter_add(&t.tlps_ctr, t.tlps);
            for (wire, n) in t.sizes.drain(..) {
                b.hist_record_n(&t.size_hist, wire as u64, n);
            }
            t.bytes = 0;
            t.tlps = 0;
        }
    }
}

/// One DMA tag's posted-credit pipeline and its watchdog instruments.
#[derive(Clone, Debug)]
struct PostedContext {
    /// Return instants of outstanding posted credits, oldest first.
    credits: VecDeque<Time>,
    granted: Counter,
    released: Counter,
    inflight: Gauge,
    window: Gauge,
}

impl PostedContext {
    fn new(tag: u32) -> PostedContext {
        PostedContext {
            credits: VecDeque::new(),
            granted: Counter::new(names::POSTED_GRANTED, tag),
            released: Counter::new(names::POSTED_RELEASED, tag),
            inflight: Gauge::new(names::POSTED_INFLIGHT, tag),
            window: Gauge::new("pcie.posted.window", tag),
        }
    }
}

/// The `pcie.np.*` instruments of one DMA tag.
#[derive(Clone, Debug)]
struct NpMetrics {
    issued: Counter,
    inflight: Gauge,
    window: Gauge,
    peak: Gauge,
}

/// Per-DMA-tag non-posted read pipeline (E20): the completion instants
/// of reads still in flight on this tag, plus the recent completion
/// history that bounds relaxed-ordering reordering.
#[derive(Clone, Debug)]
struct NpContext {
    /// Completion instants of in-flight reads, issue order.
    inflight: VecDeque<Time>,
    /// Completion instants of the most recent reads (issue order),
    /// kept to enforce the reorder window; bounded by
    /// [`LinkConfig::reorder_window`].
    history: VecDeque<Time>,
    /// Deepest the in-flight window ever got on this tag.
    peak: usize,
    metrics: NpMetrics,
}

impl NpContext {
    fn new(tag: u32) -> NpContext {
        NpContext {
            inflight: VecDeque::new(),
            history: VecDeque::new(),
            peak: 0,
            metrics: NpMetrics {
                issued: Counter::new("pcie.np.issued", tag),
                inflight: Gauge::new(names::NP_INFLIGHT, tag),
                window: Gauge::new(names::NP_WINDOW, tag),
                peak: Gauge::new("pcie.np.peak", tag),
            },
        }
    }
}

/// The thread's observation switches, read once per public link call and
/// passed down to every TLP the call puts.
#[derive(Clone, Copy, Debug)]
struct Observe {
    trace: bool,
    metrics: bool,
}

impl Observe {
    fn now() -> Observe {
        Observe {
            trace: vf_trace::is_enabled(),
            metrics: vf_metrics::is_enabled(),
        }
    }
}

/// Extend a per-tag table with fresh contexts up to and including `tag`.
fn grow_to<T>(table: &mut Vec<T>, tag: usize, new: impl Fn(u32) -> T) {
    while table.len() <= tag {
        table.push(new(table.len() as u32));
    }
}

/// Dynamic link state: per-direction serialization occupancy and the
/// posted-credit pipeline.
///
/// All methods take `now` and return *absolute* completion instants, so the
/// surrounding discrete-event world can schedule follow-up events directly.
/// Functional data movement is performed by the caller; the link only does
/// time.
#[derive(Clone, Debug)]
pub struct PcieLink {
    /// Static configuration.
    pub cfg: LinkConfig,
    down: WireDir,
    up: WireDir,
    /// Posted-credit pipelines, per DMA tag context. Single-tag links
    /// keep exactly one pipeline (index 0); multi-tag engines pace each
    /// channel independently while the shared wire still arbitrates
    /// serialization.
    posted_credits: Vec<PostedContext>,
    /// Non-posted read pipelines, per DMA tag context (E20): reads
    /// issued through [`PcieLink::dma_read_np`] stay in flight *across*
    /// calls, up to [`LinkConfig::max_outstanding_np`] per tag.
    np_contexts: Vec<NpContext>,
    /// DMA tag context charged by subsequent posted writes.
    active_tag: usize,
    /// Cumulative wire-byte counters, for utilization reporting.
    pub up_wire_bytes: u64,
    /// Downstream wire-byte counter.
    pub down_wire_bytes: u64,
    /// TLP counters by coarse class (writes, reads, completions).
    pub tlp_counts: [u64; 3],
    /// Times the multi-tag interval cap coalesced a direction's two
    /// oldest busy intervals, booking the idle gap between them as busy.
    pub wire_cap_coalesces: u64,
    /// Request window reused by every [`PcieLink::dma_read`] call, so
    /// the call does not allocate one.
    read_window: VecDeque<Time>,
    /// Wire metrics of the current call, filled only while a metrics
    /// session is installed.
    tally: WireTally,
    /// Chunks the closed form advanced without putting their TLPs.
    #[cfg(test)]
    closed_chunks: u64,
}

impl PcieLink {
    /// New idle link.
    pub fn new(cfg: LinkConfig) -> Self {
        PcieLink {
            cfg,
            down: WireDir::default(),
            up: WireDir::default(),
            posted_credits: vec![PostedContext::new(0)],
            np_contexts: vec![NpContext::new(0)],
            active_tag: 0,
            up_wire_bytes: 0,
            down_wire_bytes: 0,
            tlp_counts: [0; 3],
            wire_cap_coalesces: 0,
            read_window: VecDeque::new(),
            tally: WireTally::default(),
            #[cfg(test)]
            closed_chunks: 0,
        }
    }

    /// Tell the link that the surrounding event loop has reached `now`.
    ///
    /// The discrete-event scheduler delivers events in time order and
    /// every chain of link calls starts from some event's `now`, so no
    /// future reservation can ask for wire earlier than the latest
    /// observed event time. Busy intervals that ended before it are
    /// history and are pruned, keeping the interval lists sized to the
    /// *live* pipeline window instead of the whole run. Only meaningful
    /// in multi-tag mode; single-tag links track a scalar watermark.
    pub fn advance_epoch(&mut self, now: Time) {
        self.down.prune(now);
        self.up.prune(now);
    }

    /// Select the DMA tag context that subsequent posted writes charge
    /// their flow-control pipeline to. Multi-channel DMA engines (one
    /// channel per virtqueue pair) keep an independent posted pipeline
    /// per channel; single-tag links (`multi_tag` off) have exactly one
    /// and ignore the selection.
    pub fn select_dma_context(&mut self, tag: usize) {
        self.active_tag = tag;
    }

    /// Publish the current call's wire tally.
    fn flush_tally(&mut self, on: Observe) {
        if on.metrics {
            vf_metrics::batch(|b| self.tally.flush(b));
        }
    }

    /// Count `n` TLPs of `kind`, each `wire` bytes, put in `dir`.
    fn count_tlps(&mut self, kind: TlpKind, wire: usize, dir: Direction, n: u64, on: Observe) {
        match dir {
            Direction::Downstream => self.down_wire_bytes += wire as u64 * n,
            Direction::Upstream => self.up_wire_bytes += wire as u64 * n,
        }
        let idx = match kind {
            TlpKind::MemWrite | TlpKind::Msg => 0,
            TlpKind::MemRead => 1,
            TlpKind::CplD | TlpKind::Cpl => 2,
        };
        self.tlp_counts[idx] += n;
        if on.metrics {
            // Index 0 = downstream, 1 = upstream.
            self.tally
                .add_n(matches!(dir, Direction::Upstream) as usize, wire, n);
        }
    }

    /// Serialize one TLP in `dir` no earlier than `earliest`; returns the
    /// instant its last symbol leaves the sender.
    fn put_tlp(
        &mut self,
        earliest: Time,
        dir: Direction,
        kind: TlpKind,
        payload: usize,
        on: Observe,
    ) -> Time {
        let wire = wire_bytes(kind, payload);
        let ser = self.cfg.serialize(wire);
        let wire_dir = match dir {
            Direction::Downstream => &mut self.down,
            Direction::Upstream => &mut self.up,
        };
        let end = wire_dir.reserve(
            self.cfg.multi_tag,
            earliest,
            ser,
            &mut self.wire_cap_coalesces,
        );
        let start = end - ser;
        self.count_tlps(kind, wire, dir, 1, on);
        if on.trace {
            let name = match kind {
                TlpKind::MemWrite => "tlp_mem_write",
                TlpKind::MemRead => "tlp_mem_read",
                TlpKind::CplD => "tlp_cpld",
                TlpKind::Cpl => "tlp_cpl",
                TlpKind::Msg => "tlp_msg",
            };
            let posted = matches!(kind, TlpKind::MemWrite | TlpKind::Msg) as u64;
            let upstream = matches!(dir, Direction::Upstream) as u64;
            vf_trace::span_at(
                vf_trace::Layer::Link,
                name,
                start,
                end,
                wire as u64,
                posted | (upstream << 1),
            );
        }
        end
    }

    /// Host CPU posts an MMIO write of `len` bytes (doorbell/register).
    /// Returns the instant the write arrives inside the endpoint. The CPU
    /// itself un-stalls long before this (posted semantics); the CPU-side
    /// cost is the host model's business.
    pub fn mmio_write(&mut self, now: Time, len: usize) -> Time {
        let on = Observe::now();
        let sent = self.put_tlp(now, Direction::Downstream, TlpKind::MemWrite, len, on);
        self.flush_tally(on);
        sent + self.cfg.propagation
    }

    /// Host CPU reads `len` bytes from a BAR (non-posted, CPU stalls).
    /// Returns the instant the completion data is back in the CPU.
    pub fn mmio_read(&mut self, now: Time, len: usize) -> Time {
        let on = Observe::now();
        let req_sent = self.put_tlp(now, Direction::Downstream, TlpKind::MemRead, 0, on);
        let at_dev = req_sent + self.cfg.propagation;
        let reply_ready = at_dev + self.cfg.dev_mmio_latency;
        let cpl_sent = self.put_tlp(
            reply_ready,
            Direction::Upstream,
            TlpKind::CplD,
            len.max(4),
            on,
        );
        self.flush_tally(on);
        cpl_sent + self.cfg.propagation
    }

    /// Device reads `len` bytes of host memory at `addr` (descriptor or
    /// payload fetch). Returns the instant the final completion byte is in
    /// the endpoint.
    ///
    /// The transfer splits into read requests of at most
    /// [`LinkConfig::read_req`] bytes (alignment-honoring); at most
    /// [`LinkConfig::outstanding_reads`] requests are in flight. Each
    /// request pays: upstream serialization, propagation, RC memory
    /// latency, completion serialization downstream (split at MPS), and
    /// propagation back.
    pub fn dma_read(&mut self, now: Time, addr: u64, len: usize) -> Time {
        if len == 0 {
            return now;
        }
        let on = Observe::now();
        let window = self.cfg.outstanding_reads.max(1);
        let chunk = self.cfg.read_req;
        // Completion instants of in-flight requests, oldest first. The
        // buffer is taken out of the link while `put_tlp` borrows it,
        // and put back after the loop.
        let mut inflight = std::mem::take(&mut self.read_window);
        inflight.clear();
        let mut skip_middle = self.closed_form(window, on);
        let mut parts = split_aligned(addr, len, chunk);
        let mut chunk_addr = addr;
        let mut last_done = now;
        while let Some(part) = parts.next() {
            // Tag availability: wait for the oldest outstanding request if
            // the window is full.
            let mut earliest = now;
            if inflight.len() == window {
                earliest = inflight.pop_front().expect("window non-empty");
            }
            last_done = self.read_request(earliest, chunk_addr, part, on);
            inflight.push_back(last_done);
            chunk_addr += part as u64;
            // After the head, every full chunk but the last one takes
            // the closed form.
            if std::mem::take(&mut skip_middle) {
                let left = len - part;
                let middle = left.saturating_sub(1) / chunk;
                if middle > 0 {
                    last_done = self.skip_read_chunks(&mut inflight, last_done, middle as u64, on);
                    chunk_addr += (middle * chunk) as u64;
                    parts = split_aligned(chunk_addr, left - middle * chunk, chunk);
                }
            }
        }
        self.read_window = inflight;
        self.flush_tally(on);
        last_done
    }

    /// One read request of `len` bytes at `addr` sent no earlier than
    /// `earliest`: upstream serialization, propagation, RC memory
    /// latency, the completions streaming back split at MPS boundaries,
    /// and propagation back. Returns the instant the last completion
    /// byte is in the endpoint.
    fn read_request(&mut self, earliest: Time, addr: u64, len: usize, on: Observe) -> Time {
        let req_sent = self.put_tlp(earliest, Direction::Upstream, TlpKind::MemRead, 0, on);
        let mut done = req_sent + self.cfg.propagation + self.cfg.rc_read_latency;
        for cpl in split_aligned(addr, len, self.cfg.mps) {
            done = self.put_tlp(done, Direction::Downstream, TlpKind::CplD, cpl, on);
        }
        done + self.cfg.propagation
    }

    // Closed form of single-tag bursts.
    //
    // On a single-tag link (`multi_tag` off) with a window of one, the
    // full chunks between a burst's first and last chunk follow a
    // recurrence with a constant step, so `dma_read` and `dma_write`
    // advance all of them at once. Trace runs keep the per-TLP loop,
    // since they record one span per TLP.
    //
    // Notation: `ser(w)` serializes `w` wire bytes, `prop` is
    // `propagation`; `U` and `D` are the upstream and downstream
    // watermarks; single-tag `reserve` ends a TLP at
    // `max(watermark, earliest) + ser` and moves the watermark there.
    // Chunk 0 is the head, which the loop puts.
    //
    // Reads (`outstanding_reads` = 1). Every chunk after the head
    // starts at a `read_req`-aligned address; a middle chunk is full,
    // so its completions are `c = read_req / cpl` TLPs of
    // `cpl = min(read_req, mps)` bytes (`mps` and `read_req` are powers
    // of two, so an aligned chunk splits evenly). Let `done_k` be chunk
    // k's return. After chunk k the window is `[done_k]`, `D` is chunk
    // k's last completion end, so `D = done_k - prop`, and
    // `U = req_sent_k <= done_k`. Chunk k + 1 waits for the tag:
    // `earliest = done_k >= U`, so the request ends at
    // `r = done_k + ser(MemRead)`, and the data is ready at
    // `r + prop + rc_read_latency >= done_k >= D`, so the first
    // completion does not queue, and each next one starts where the
    // previous one ended. Hence
    //   done_{k+1} = done_k + ser(MemRead) + 2·prop + rc_read_latency
    //                + c·ser(CplD(cpl)),
    // whatever the watermarks and `now` were before the call: from
    // chunk 1 on, the state is a function of `done_k` alone. Time is
    // integer picoseconds, so `done_0 + n·step` is exact, and after `n`
    // middle chunks `U = done_n - step + ser(MemRead)`,
    // `D = done_n - prop`, the window is `[done_n]`, and the link put
    // `n` requests and `n·c` completions.
    //
    // Writes (`posted_window` = 1). A middle chunk is one `mps`-byte
    // posted TLP. Let `s_k` be chunk k's send end; the loop charges
    // tag 0 and issues at `earliest = max(now, U)`. If the head left
    // exactly its own credit `[s_0 + prop + credit_return]` in the
    // queue (a window of one always does; a longer queue left by other
    // windows takes the loop), then before chunk k + 1 the queue is
    // `[ret_k]` with `ret_k = s_k + prop + credit_return` and
    // `U = s_k >= now` (every chunk issues at or after `now`), so
    // `earliest = s_k`. If `ret_k > s_k`, the credit is still out and
    // the chunk stalls until it pops: `earliest = ret_k`. Otherwise
    // `prop + credit_return = 0` and the credit retires at
    // `s_k = ret_k`. Either way one credit is released, the TLP starts
    // at `ret_k >= U`, and
    //   s_{k+1} = s_k + prop + credit_return + ser(MemWrite(mps)),
    // with `[ret_{k+1}]` pushed and one credit granted. After `n` middle
    // chunks `U = s_n`, the queue is `[s_n + prop + credit_return]`,
    // and the link put `n` writes and released and granted `n`
    // credits.

    /// Whether full middle chunks take the closed form (see above).
    fn closed_form(&self, window: usize, on: Observe) -> bool {
        !self.cfg.multi_tag && window == 1 && !on.trace
    }

    /// Advance `n` full middle chunks of a [`PcieLink::dma_read`] whose
    /// previous chunk returned at `done` in O(1); returns the last
    /// one's return instant.
    fn skip_read_chunks(
        &mut self,
        inflight: &mut VecDeque<Time>,
        done: Time,
        n: u64,
        on: Observe,
    ) -> Time {
        let cfg = &self.cfg;
        let cpl = cfg.read_req.min(cfg.mps);
        let cpls = (cfg.read_req / cpl) as u64;
        let (req_wire, cpl_wire) = (
            wire_bytes(TlpKind::MemRead, 0),
            wire_bytes(TlpKind::CplD, cpl),
        );
        let req = cfg.serialize(req_wire);
        let step = req + cfg.propagation * 2 + cfg.rc_read_latency + cfg.serialize(cpl_wire) * cpls;
        let last = done + step * n;
        self.up.watermark = last - step + req;
        self.down.watermark = last - cfg.propagation;
        inflight.clear();
        inflight.push_back(last);
        self.count_tlps(TlpKind::MemRead, req_wire, Direction::Upstream, n, on);
        self.count_tlps(TlpKind::CplD, cpl_wire, Direction::Downstream, n * cpls, on);
        #[cfg(test)]
        {
            self.closed_chunks += n;
        }
        last
    }

    /// Advance `n` full middle chunks of a [`PcieLink::dma_write`] whose
    /// previous chunk was sent at `sent` in O(1); returns the last one's
    /// send instant. The caller counts the `n` granted and `n`
    /// released credits.
    fn skip_write_chunks(&mut self, sent: Time, n: u64, on: Observe) -> Time {
        let cfg = &self.cfg;
        let wire = wire_bytes(TlpKind::MemWrite, cfg.mps);
        let credit = cfg.propagation + cfg.credit_return;
        let last = sent + (credit + cfg.serialize(wire)) * n;
        self.up.watermark = last;
        self.posted_credits[0].credits[0] = last + credit;
        self.count_tlps(TlpKind::MemWrite, wire, Direction::Upstream, n, on);
        #[cfg(test)]
        {
            self.closed_chunks += n;
        }
        last
    }

    /// Device reads `len` bytes of host memory through the active DMA
    /// tag's **persistent** non-posted pipeline (E20). Unlike
    /// [`PcieLink::dma_read`], whose request window exists only for the
    /// duration of one call, reads issued here stay in flight *across*
    /// calls: up to [`LinkConfig::max_outstanding_np`] requests per tag
    /// may be outstanding, so a walker can issue the descriptor fetch
    /// for round-trip *k+1* while the payload read of round-trip *k* is
    /// still waiting on the root complex.
    ///
    /// Completion ordering is governed by
    /// [`LinkConfig::relaxed_ordering`]: when off, a read's completion
    /// is held until every older read on the tag has completed (strict
    /// producer order); when on, a completion may pass at most
    /// [`LinkConfig::reorder_window`] older reads. With
    /// `max_outstanding_np == 1` every request waits for its
    /// predecessor, which is bit-identical to chaining
    /// [`PcieLink::dma_read`] calls (the FIFO path the determinism
    /// goldens pin).
    pub fn dma_read_np(&mut self, now: Time, addr: u64, len: usize) -> Time {
        if len == 0 {
            return now;
        }
        let on = Observe::now();
        let window = self.cfg.max_outstanding_np.max(1);
        let relaxed = self.cfg.relaxed_ordering;
        let reorder = self.cfg.reorder_window.max(1);
        let tag = if self.cfg.multi_tag {
            self.active_tag
        } else {
            0
        };
        grow_to(&mut self.np_contexts, tag, NpContext::new);
        let mut chunk_addr = addr;
        let mut last_done = now;
        let mut issued = 0u64;
        for chunk in split_aligned(addr, len, self.cfg.read_req) {
            issued += 1;
            // Tag availability: retire reads whose completions have
            // landed by our earliest possible issue instant. Under
            // relaxed ordering a later-issued read may retire first, so
            // retirement scans the whole window, not just the oldest.
            let mut earliest = now;
            {
                let ctx = &mut self.np_contexts[tag];
                ctx.inflight.retain(|&d| d > earliest);
                if ctx.inflight.len() >= window {
                    let (idx, min) = ctx
                        .inflight
                        .iter()
                        .enumerate()
                        .min_by_key(|&(_, &d)| d)
                        .map(|(i, &d)| (i, d))
                        .expect("window full implies non-empty");
                    earliest = min;
                    ctx.inflight.remove(idx);
                }
            }
            let mut done = self.read_request(earliest, chunk_addr, chunk, on);
            let ctx = &mut self.np_contexts[tag];
            if relaxed {
                // Bounded reordering: this completion may pass at most
                // `reorder_window` older reads on the tag.
                if ctx.history.len() >= reorder {
                    done = done.max(ctx.history[ctx.history.len() - reorder]);
                }
            } else if let Some(&last) = ctx.history.back() {
                // Strict ordering: completions leave the tag in issue
                // order even when the data raced ahead.
                done = done.max(last);
            }
            ctx.history.push_back(done);
            while ctx.history.len() > reorder {
                ctx.history.pop_front();
            }
            ctx.inflight.push_back(done);
            ctx.peak = ctx.peak.max(ctx.inflight.len());
            last_done = done;
            chunk_addr += chunk as u64;
        }
        if on.metrics {
            vf_metrics::batch(|b| {
                self.tally.flush(b);
                let ctx = &self.np_contexts[tag];
                let m = &ctx.metrics;
                b.counter_add(&m.issued, issued);
                b.gauge_set(&m.inflight, ctx.inflight.len() as i64);
                b.gauge_set(&m.window, window as i64);
                b.gauge_set(&m.peak, ctx.peak as i64);
            });
        }
        last_done
    }

    /// Reads currently tracked in flight on `tag`'s non-posted pipeline
    /// (retirement is lazy, so completed-but-unretired reads count
    /// until the next issue on that tag).
    pub fn np_in_flight(&self, tag: usize) -> usize {
        self.np_contexts.get(tag).map_or(0, |c| c.inflight.len())
    }

    /// Deepest any tag's non-posted window ever got — the observable
    /// the E20 sweep reports next to its configured depth.
    pub fn np_peak_in_flight(&self) -> usize {
        self.np_contexts.iter().map(|c| c.peak).max().unwrap_or(0)
    }

    /// Device writes `len` bytes into host memory at `addr` (payload
    /// delivery, used-ring update). Returns the instant the data is
    /// globally visible in host DRAM.
    ///
    /// Posted TLPs are paced by the flow-control credit pipeline: at most
    /// [`LinkConfig::posted_window`] TLPs may be outstanding before the
    /// sender stalls for an UpdateFC.
    pub fn dma_write(&mut self, now: Time, addr: u64, len: usize) -> Time {
        if len == 0 {
            return now;
        }
        let on = Observe::now();
        let window = self.cfg.posted_window.max(1);
        let tag = if self.cfg.multi_tag {
            self.active_tag
        } else {
            0
        };
        grow_to(&mut self.posted_credits, tag, PostedContext::new);
        let chunk = self.cfg.mps;
        let mut last_arrival = now;
        // Credit bookkeeping for the conservation watchdog: every pop
        // below counts as a release, every push as a grant, so
        // `granted − released == in-flight` holds at each call boundary
        // (and therefore at every sample, which only fires between
        // events).
        let mut granted = 0u64;
        let mut released = 0u64;
        let mut skip_middle = self.closed_form(window, on);
        let mut parts = split_aligned(addr, len, chunk);
        let mut chunk_addr = addr;
        while let Some(part) = parts.next() {
            // Retire credits that have already returned by our earliest
            // possible send time, then stall if still at the window limit.
            // Each DMA tag context paces its own posted pipeline; in
            // single-tag mode everything charges context 0, preserving
            // the strictly FIFO credit model.
            let mut earliest = if self.cfg.multi_tag {
                now
            } else {
                now.max(self.up.watermark)
            };
            while let Some(&front) = self.posted_credits[tag].credits.front() {
                if front <= earliest {
                    self.posted_credits[tag].credits.pop_front();
                    released += 1;
                } else {
                    break;
                }
            }
            if self.posted_credits[tag].credits.len() >= window {
                earliest = self.posted_credits[tag]
                    .credits
                    .pop_front()
                    .expect("credit queue non-empty");
                released += 1;
            }
            let mut sent = self.put_tlp(earliest, Direction::Upstream, TlpKind::MemWrite, part, on);
            let ret = sent + self.cfg.propagation + self.cfg.credit_return;
            self.posted_credits[tag].credits.push_back(ret);
            granted += 1;
            chunk_addr += part as u64;
            // After the head, every full chunk but the last one takes
            // the closed form, if the head left only its own credit.
            if std::mem::take(&mut skip_middle) && self.posted_credits[0].credits.len() == 1 {
                let left = len - part;
                let middle = left.saturating_sub(1) / chunk;
                if middle > 0 {
                    sent = self.skip_write_chunks(sent, middle as u64, on);
                    granted += middle as u64;
                    released += middle as u64;
                    chunk_addr += (middle * chunk) as u64;
                    parts = split_aligned(chunk_addr, left - middle * chunk, chunk);
                }
            }
            last_arrival = sent + self.cfg.propagation;
        }
        if on.metrics {
            vf_metrics::batch(|b| {
                self.tally.flush(b);
                let p = &self.posted_credits[tag];
                b.counter_add(&p.granted, granted);
                b.counter_add(&p.released, released);
                b.gauge_set(&p.inflight, p.credits.len() as i64);
                b.gauge_set(&p.window, window as i64);
            });
        }
        last_arrival + self.cfg.rc_write_latency
    }

    /// Device fires an MSI-X vector: a 4-byte posted write to the vector's
    /// address. Returns the instant the interrupt reaches the host's
    /// interrupt controller.
    pub fn msix_write(&mut self, now: Time) -> Time {
        let on = Observe::now();
        let sent = self.put_tlp(now, Direction::Upstream, TlpKind::MemWrite, 4, on);
        self.flush_tally(on);
        let at_host = sent + self.cfg.propagation + self.cfg.rc_write_latency;
        vf_trace::instant(vf_trace::Layer::Irq, "msix", at_host, 0, 0);
        at_host
    }

    /// Effective device-read bandwidth in MB/s for an `len`-byte aligned
    /// transfer starting from an idle link — used by calibration tests and
    /// the portability sweep.
    pub fn read_bandwidth_mbps(&self, len: usize) -> f64 {
        let mut probe = PcieLink::new(self.cfg.clone());
        let done = probe.dma_read(Time::ZERO, 0, len);
        len as f64 / done.as_us_f64()
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    fn idle() -> PcieLink {
        PcieLink::new(LinkConfig::gen2_x2())
    }

    #[test]
    fn gen_rates() {
        assert_eq!(PcieGen::Gen1.ps_per_byte_per_lane(), 4_000);
        assert_eq!(PcieGen::Gen2.ps_per_byte_per_lane(), 2_000);
        assert_eq!(LinkConfig::gen2_x2().ps_per_byte(), 1_000);
        assert_eq!(LinkConfig::with(PcieGen::Gen3, 8).ps_per_byte(), 127);
    }

    #[test]
    fn mmio_write_arrival() {
        let mut link = idle();
        // 4-byte doorbell: 24 wire bytes → 24 ns serialize + 150 ns prop.
        let at = link.mmio_write(Time::ZERO, 4);
        assert_eq!(at, Time::from_ns(24 + 150));
    }

    #[test]
    fn mmio_read_round_trip() {
        let mut link = idle();
        let t = link.mmio_read(Time::ZERO, 4);
        // 20 req + 150 + 120 dev + 24 cpl + 150 = 464 ns.
        assert_eq!(t, Time::from_ns(464));
    }

    #[test]
    fn dma_read_single_chunk_latency() {
        let mut link = idle();
        let t = link.dma_read(Time::ZERO, 0, 128);
        // 20 req + 150 + 1550 rc + 148 cpl + 150 = 2018 ns.
        assert_eq!(t, Time::from_ns(2_018));
    }

    #[test]
    fn dma_read_serializes_with_window_one() {
        let mut link = idle();
        let one = link.dma_read(Time::ZERO, 0, 128);
        let mut link2 = idle();
        let four = link2.dma_read(Time::ZERO, 0, 512);
        // With a single outstanding tag, four chunks take 4x one chunk.
        assert_eq!(four.as_ps(), one.as_ps() * 4);
    }

    #[test]
    fn dma_read_pipelines_with_wider_window() {
        let mut narrow = idle();
        let mut wide_cfg = LinkConfig::gen2_x2();
        wide_cfg.outstanding_reads = 4;
        let mut wide = PcieLink::new(wide_cfg);
        let t_narrow = narrow.dma_read(Time::ZERO, 0, 1024);
        let t_wide = wide.dma_read(Time::ZERO, 0, 1024);
        assert!(
            t_wide < t_narrow,
            "pipelined read ({t_wide}) must beat serialized ({t_narrow})"
        );
    }

    #[test]
    fn short_transfer_bandwidth_matches_paper_slope() {
        // Device reads run at ~60–90 MB/s effective for sub-KiB transfers;
        // together with credit-paced writes this yields Table I's ~21 µs
        // round-trip slope per KiB.
        let link = idle();
        let bw = link.read_bandwidth_mbps(1024);
        assert!((55.0..110.0).contains(&bw), "read bandwidth = {bw} MB/s");
    }

    #[test]
    fn dma_write_visible_after_rc_latency() {
        let mut link = idle();
        let t = link.dma_write(Time::ZERO, 0, 64);
        // 84 wire bytes → 84 ns + 150 prop + 250 rc write.
        assert_eq!(t, Time::from_ns(84 + 150 + 250));
    }

    #[test]
    fn dma_write_credit_paced() {
        let mut link = idle();
        // 512 B = 4 TLPs with window 1: each subsequent TLP waits for
        // the previous credit (arrival + 350 ns).
        let t = link.dma_write(Time::ZERO, 0, 512);
        let serialization_only = Time::from_ns(4 * 148 + 150 + 250);
        assert!(t > serialization_only, "credit pacing too weak: {t}");
    }

    #[test]
    fn zero_length_ops_are_free() {
        let mut link = idle();
        assert_eq!(link.dma_read(Time::from_ns(5), 0, 0), Time::from_ns(5));
        assert_eq!(link.dma_write(Time::from_ns(5), 0, 0), Time::from_ns(5));
    }

    #[test]
    fn msix_is_fast() {
        let mut link = idle();
        let t = link.msix_write(Time::ZERO);
        assert!(t < Time::from_us(1));
    }

    #[test]
    fn directions_do_not_serialize_against_each_other() {
        let mut link = idle();
        let _w1 = link.mmio_write(Time::ZERO, 128); // occupies downstream
        let w2 = link.msix_write(Time::ZERO); // upstream
                                              // The upstream MSI-X does not queue behind the downstream MMIO:
                                              // it starts serializing at t=0 (24 ns) + 150 prop + 250 rc write.
        assert_eq!(w2, Time::from_ns(424));
    }

    #[test]
    fn consecutive_tlps_queue_on_same_direction() {
        let mut link = idle();
        let a = link.mmio_write(Time::ZERO, 128);
        let b = link.mmio_write(Time::ZERO, 128);
        assert_eq!(
            b - a,
            link.cfg.serialize(wire_bytes(TlpKind::MemWrite, 128))
        );
    }

    #[test]
    fn wire_byte_accounting() {
        let mut link = idle();
        link.mmio_write(Time::ZERO, 4);
        link.dma_write(Time::ZERO, 0, 128);
        assert_eq!(link.down_wire_bytes, 24);
        assert_eq!(link.up_wire_bytes, 148);
        assert_eq!(link.tlp_counts[0], 2); // two writes
    }

    #[test]
    fn np_depth_one_matches_chained_dma_read() {
        // With max_outstanding_np = 1, eagerly issuing every read at t=0
        // through the persistent pipeline must produce bit-identical
        // completions to manually chaining dma_read calls: the window
        // gate *is* the chain.
        let mut serial = idle();
        let mut t = Time::ZERO;
        let mut chained = Vec::new();
        for i in 0..4 {
            t = serial.dma_read(t, i * 0x1000, 128);
            chained.push(t);
        }
        let mut np = idle();
        let piped: Vec<Time> = (0..4)
            .map(|i| np.dma_read_np(Time::ZERO, i * 0x1000, 128))
            .collect();
        assert_eq!(piped, chained);
        assert_eq!(np.np_peak_in_flight(), 1);
    }

    #[test]
    fn np_deeper_window_overlaps_reads() {
        let mut cfg = LinkConfig::gen2_x2();
        cfg.max_outstanding_np = 4;
        cfg.relaxed_ordering = true;
        let mut deep = PcieLink::new(cfg);
        let deep_done = (0..4)
            .map(|i| deep.dma_read_np(Time::ZERO, i * 0x1000, 128))
            .last()
            .unwrap();
        let mut shallow = idle();
        let shallow_done = (0..4)
            .map(|i| shallow.dma_read_np(Time::ZERO, i * 0x1000, 128))
            .last()
            .unwrap();
        // Four overlapped round-trips hide most of the 1550 ns RC
        // latency; serial pays it four times.
        assert!(
            deep_done < shallow_done,
            "overlapped ({deep_done}) must beat serial ({shallow_done})"
        );
        assert_eq!(deep.np_peak_in_flight(), 4);
    }

    #[test]
    fn np_window_never_exceeds_configured_depth() {
        let mut cfg = LinkConfig::gen2_x2();
        cfg.max_outstanding_np = 3;
        cfg.relaxed_ordering = true;
        let mut link = PcieLink::new(cfg);
        for i in 0..32 {
            link.dma_read_np(Time::ZERO, i * 0x40, 64);
            assert!(link.np_in_flight(0) <= 3);
        }
        assert!(link.np_peak_in_flight() <= 3);
    }

    #[test]
    fn np_strict_ordering_never_faster_than_relaxed() {
        let mut strict_cfg = LinkConfig::gen2_x2();
        strict_cfg.max_outstanding_np = 8;
        let mut relaxed_cfg = strict_cfg.clone();
        relaxed_cfg.relaxed_ordering = true;
        relaxed_cfg.reorder_window = 8;
        let mut strict = PcieLink::new(strict_cfg);
        let mut relaxed = PcieLink::new(relaxed_cfg);
        // Mixed sizes so completion serialization differs per read.
        for (i, len) in [128usize, 16, 128, 16, 128, 16].into_iter().enumerate() {
            let s = strict.dma_read_np(Time::ZERO, i as u64 * 0x1000, len);
            let r = relaxed.dma_read_np(Time::ZERO, i as u64 * 0x1000, len);
            assert!(r <= s, "read {i}: relaxed {r} vs strict {s}");
        }
    }

    #[test]
    fn np_tags_have_independent_windows() {
        let mut cfg = LinkConfig::gen2_x2();
        cfg.multi_tag = true;
        cfg.max_outstanding_np = 1;
        let mut link = PcieLink::new(cfg);
        link.select_dma_context(0);
        let first = link.dma_read_np(Time::ZERO, 0, 128);
        link.dma_read_np(Time::ZERO, 0x1000, 128);
        // Tag 1's window is empty: its read is not gated on tag 0's two
        // in-flight reads, only on shared wire occupancy.
        link.select_dma_context(1);
        let other = link.dma_read_np(Time::ZERO, 0x2000, 128);
        assert!(
            other < first + Time::from_ns(500),
            "tag 1 read at {other} must not queue behind tag 0's window (first done {first})"
        );
        assert_eq!(link.np_in_flight(1), 1);
    }

    #[test]
    fn cap_coalesces_are_counted() {
        let mut cfg = LinkConfig::gen2_x2();
        cfg.multi_tag = true;
        let mut link = PcieLink::new(cfg);
        // Disjoint 24 ns doorbells 1 µs apart, never pruned: one busy
        // interval each, so every write past the cap coalesces once.
        for i in 0..WIRE_INTERVAL_CAP as u64 {
            link.mmio_write(Time::from_us(i), 4);
        }
        assert_eq!(link.wire_cap_coalesces, 0);
        assert_eq!(link.down.busy.len(), WIRE_INTERVAL_CAP);
        for i in 0..3 {
            link.mmio_write(Time::from_us(WIRE_INTERVAL_CAP as u64 + i), 4);
        }
        assert_eq!(link.wire_cap_coalesces, 3);
        assert_eq!(link.down.busy.len(), WIRE_INTERVAL_CAP);
        // The three coalesces booked the idle gaps after the oldest
        // doorbell as busy.
        assert_eq!(
            link.down.busy[0],
            (Time::from_ns(0), Time::from_ns(3_000 + 24))
        );
    }

    #[test]
    fn single_tag_link_never_coalesces() {
        let mut link = idle();
        for i in 0..2 * WIRE_INTERVAL_CAP as u64 {
            link.mmio_write(Time::from_us(i), 4);
        }
        assert_eq!(link.wire_cap_coalesces, 0);
        assert!(link.down.busy.is_empty());
    }

    /// The gap scan as it was before it started at `earliest`: a
    /// verbatim linear walk from the front of the list, kept as the
    /// reference the faster scan must match.
    fn reserve_linear(w: &mut WireDir, earliest: Time, dur: Time, coalesces: &mut u64) -> Time {
        let mut start = earliest;
        let mut idx = w.busy.len();
        for (i, &(s, e)) in w.busy.iter().enumerate() {
            if start + dur <= s {
                idx = i;
                break;
            }
            if e > start {
                start = e;
            }
        }
        let end = start + dur;
        let mut s = start;
        let mut e = end;
        if idx < w.busy.len() && w.busy[idx].0 == e {
            e = w.busy[idx].1;
            w.busy.remove(idx);
        }
        if idx > 0 && w.busy[idx - 1].1 == s {
            s = w.busy[idx - 1].0;
            w.busy.remove(idx - 1);
            idx -= 1;
        }
        w.busy.insert(idx, (s, e));
        if w.busy.len() > WIRE_INTERVAL_CAP {
            let (s0, _) = w.busy[0];
            let (_, e1) = w.busy[1];
            w.busy.pop_front();
            w.busy[0] = (s0, e1);
            *coalesces += 1;
        }
        end
    }

    /// One step of a reservation script. Anchored steps place
    /// `earliest` relative to an existing interval, picked by index
    /// modulo the list length, so the edge cases come up often.
    #[derive(Clone, Debug)]
    enum Step {
        /// Reserve at an absolute instant (ns).
        At(u64, u64),
        /// Reserve relative to interval `i`: 0 before its start,
        /// 1 inside it, 2 exactly at its end (left zero-gap merge),
        /// 3 after its end, 4 ending exactly at its start (right
        /// zero-gap merge).
        Anchored(usize, u8, u64),
        /// Reserve exactly the gap after interval `i`, merging on both
        /// sides.
        FillGap(usize),
        /// Prune intervals ending at or before an instant (ns).
        Prune(u64),
        /// Reserve at the previous reservation's end, as a completion
        /// train does.
        Train(u64),
    }

    fn step() -> impl Strategy<Value = Step> {
        let anchored =
            || (any::<usize>(), 0u8..5, 1u64..60).prop_map(|(i, k, d)| Step::Anchored(i, k, d));
        prop_oneof![
            (0u64..4_000, 1u64..60).prop_map(|(t, d)| Step::At(t, d)),
            anchored(),
            anchored(),
            any::<usize>().prop_map(Step::FillGap),
            (0u64..4_000).prop_map(Step::Prune),
            (1u64..60).prop_map(Step::Train),
        ]
    }

    /// Run `script` against the production scan and the reference;
    /// every returned end, the coalesce counts and the final lists
    /// must agree.
    fn check_script(fast: &mut WireDir, script: &[Step]) {
        let mut slow = fast.clone();
        let (mut fast_merges, mut slow_merges) = (0, 0);
        let mut last_end = Time::ZERO;
        for step in script {
            let ns = Time::from_ns;
            let busy = &slow.busy;
            let (earliest, dur) = match *step {
                Step::At(t, d) => (ns(t), ns(d)),
                Step::Anchored(i, kind, d) => {
                    let d = ns(d);
                    let earliest = match busy.get(i % busy.len().max(1)) {
                        None => Time::ZERO,
                        Some(&(s, e)) => match kind {
                            0 => s.saturating_sub(ns(5)),
                            1 => s + (e - s) / 2,
                            2 => e,
                            3 => e + ns(3),
                            _ => s.saturating_sub(d),
                        },
                    };
                    (earliest, d)
                }
                Step::FillGap(i) => match busy.len() {
                    0 => (Time::ZERO, ns(7)),
                    n => {
                        let (_, end) = busy[i % n];
                        match busy.get(i % n + 1) {
                            Some(&(next, _)) => (end, next - end),
                            None => (end, ns(7)),
                        }
                    }
                },
                Step::Prune(t) => {
                    fast.prune(ns(t));
                    slow.prune(ns(t));
                    continue;
                }
                Step::Train(d) => (last_end, ns(d)),
            };
            let want = reserve_linear(&mut slow, earliest, dur, &mut slow_merges);
            let got = fast.reserve(true, earliest, dur, &mut fast_merges);
            assert_eq!(got, want, "reserve({earliest:?}, {dur:?})");
            last_end = got;
        }
        assert_eq!(fast_merges, slow_merges);
        assert_eq!(fast.busy, slow.busy);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn reserve_matches_linear_scan(script in proptest::collection::vec(step(), 1..200)) {
            check_script(&mut WireDir::default(), &script);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]

        /// Past the interval cap, so the coalesce path runs on both.
        #[test]
        fn reserve_matches_linear_scan_past_the_cap(
            gaps in proptest::collection::vec(1u64..40, WIRE_INTERVAL_CAP + 200),
            script in proptest::collection::vec(step(), 300),
        ) {
            // A long run of disjoint 10 ns intervals, then a script
            // whose anchored steps land among them.
            let mut wire = WireDir::default();
            let mut merges = 0;
            let mut t = Time::ZERO;
            for gap in gaps {
                t = wire.reserve(true, t + Time::from_ns(gap), Time::from_ns(10), &mut merges);
            }
            prop_assert!(merges >= 200);
            check_script(&mut wire, &script);
        }
    }

    #[test]
    fn reserve_skips_intervals_before_earliest() {
        let mut wire = WireDir::default();
        let mut merges = 0;
        let ns = Time::from_ns;
        // 3000 disjoint intervals, each booked after the last: none of
        // them should be visited while building the list.
        for i in 0..3_000 {
            wire.reserve(true, ns(i * 100), ns(10), &mut merges);
        }
        assert_eq!(wire.busy.len(), 3_000);
        assert!(
            wire.scan_steps <= 3_000,
            "building visited {}",
            wire.scan_steps
        );
        // One more reservation past all of them, and one back-filled
        // into the last gap, each visit O(1) intervals.
        wire.scan_steps = 0;
        wire.reserve(true, ns(300_000), ns(10), &mut merges);
        assert!(wire.scan_steps <= 1, "visited {}", wire.scan_steps);
        wire.scan_steps = 0;
        wire.reserve(true, ns(299_950), ns(10), &mut merges);
        assert!(wire.scan_steps <= 2, "visited {}", wire.scan_steps);
        assert_eq!(merges, 0);
    }

    #[test]
    fn merges_extend_neighbours_in_place() {
        let ns = Time::from_ns;
        let mut wire = WireDir::default();
        let mut merges = 0;
        // [0, 10) and [30, 40).
        wire.reserve(true, ns(0), ns(10), &mut merges);
        wire.reserve(true, ns(30), ns(10), &mut merges);
        assert_eq!(wire.busy.len(), 2);
        // Left merge: [10, 15) extends [0, 10).
        assert_eq!(wire.reserve(true, ns(10), ns(5), &mut merges), ns(15));
        assert_eq!(wire.busy.len(), 2);
        assert_eq!(wire.busy[0], (ns(0), ns(15)));
        // Right merge: [25, 30) extends [30, 40).
        assert_eq!(wire.reserve(true, ns(25), ns(5), &mut merges), ns(30));
        assert_eq!(wire.busy.len(), 2);
        assert_eq!(wire.busy[1], (ns(25), ns(40)));
        // Two-sided merge: [15, 25) joins both.
        assert_eq!(wire.reserve(true, ns(15), ns(10), &mut merges), ns(25));
        assert_eq!(wire.busy, VecDeque::from([(ns(0), ns(40))]));
        assert_eq!(merges, 0);
    }

    /// A completion train of `tlps` 10 ns TLPs from `from`, each
    /// reserved where the previous one ended. Returns the last end.
    fn train(wire: &mut WireDir, from: Time, tlps: u64) -> Time {
        let mut merges = 0;
        let mut t = from;
        for _ in 0..tlps {
            t = wire.reserve(true, t, Time::from_ns(10), &mut merges);
        }
        t
    }

    /// A list of `n` disjoint 10 ns intervals 100 ns apart from 1 µs.
    fn spaced(n: u64) -> WireDir {
        let mut wire = WireDir::default();
        let mut merges = 0;
        for i in 0..n {
            wire.reserve(
                true,
                Time::from_ns(1_000 + 100 * i),
                Time::from_ns(10),
                &mut merges,
            );
        }
        wire
    }

    #[test]
    fn completion_trains_start_at_a_hint() {
        let mut wire = spaced(50);
        // A 6-TLP train from the middle of the 90 ns gap after interval
        // 20, then another after interval 10. The first TLP of each is
        // a new interval, the rest extend it: every TLP after the first
        // starts its scan at a hint.
        wire.hint_hits = 0;
        train(&mut wire, Time::from_ns(1_000 + 100 * 20 + 30), 6);
        assert_eq!(wire.hint_hits, 5);
        train(&mut wire, Time::from_ns(1_000 + 100 * 10 + 30), 6);
        assert_eq!(wire.hint_hits, 10);
        assert_eq!(wire.busy.len(), 52);
    }

    #[test]
    fn hints_follow_the_list_through_prune() {
        let mut wire = spaced(50);
        let end = train(&mut wire, Time::from_ns(1_000 + 100 * 30 + 10), 3);
        // Drop the first 20 intervals; the train's next TLP must still
        // start at the shifted hint.
        wire.prune(Time::from_ns(1_000 + 100 * 19 + 10));
        assert_eq!(wire.busy.len(), 30);
        wire.hint_hits = 0;
        train(&mut wire, end, 1);
        assert_eq!(wire.hint_hits, 1);
    }

    #[test]
    fn hints_follow_the_list_through_cap_coalesce() {
        let mut wire = spaced(WIRE_INTERVAL_CAP as u64);
        let mut merges = 0;
        let ten = Time::from_ns(10);
        // A new interval past the tail, then one in the middle of the
        // list, each coalescing the front. A second TLP at the same
        // instant queues behind the first, and its scan starts where
        // the first one's did, one index lower after the coalesce.
        let tail = Time::from_ns(1_000 + 100 * WIRE_INTERVAL_CAP as u64 + 50);
        let mid = Time::from_ns(1_000 + 100 * 2_000 + 30);
        for (k, at) in [tail, mid].into_iter().enumerate() {
            let end = wire.reserve(true, at, ten, &mut merges);
            assert_eq!(merges, k as u64 + 1);
            wire.hint_hits = 0;
            assert_eq!(wire.reserve(true, at, ten, &mut merges), end + ten);
            assert_eq!(wire.hint_hits, 1);
        }
    }

    /// `dma_read` as it was before the closed form: a verbatim per-TLP
    /// loop over every chunk, kept as the reference the closed form must
    /// match.
    fn dma_read_per_tlp(link: &mut PcieLink, now: Time, addr: u64, len: usize) -> Time {
        if len == 0 {
            return now;
        }
        let on = Observe::now();
        let window = link.cfg.outstanding_reads.max(1);
        let mut inflight = std::mem::take(&mut link.read_window);
        inflight.clear();
        let mut chunk_addr = addr;
        let mut last_done = now;
        for chunk in split_aligned(addr, len, link.cfg.read_req) {
            let mut earliest = now;
            if inflight.len() == window {
                earliest = inflight.pop_front().expect("window non-empty");
            }
            let req_sent = link.put_tlp(earliest, Direction::Upstream, TlpKind::MemRead, 0, on);
            let at_rc = req_sent + link.cfg.propagation;
            let data_ready = at_rc + link.cfg.rc_read_latency;
            let mut done = data_ready;
            for cpl in split_aligned(chunk_addr, chunk, link.cfg.mps) {
                done = link.put_tlp(done, Direction::Downstream, TlpKind::CplD, cpl, on);
            }
            done += link.cfg.propagation;
            inflight.push_back(done);
            last_done = done;
            chunk_addr += chunk as u64;
        }
        link.read_window = inflight;
        link.flush_tally(on);
        last_done
    }

    /// `dma_write` as it was before the closed form, likewise verbatim.
    fn dma_write_per_tlp(link: &mut PcieLink, now: Time, addr: u64, len: usize) -> Time {
        if len == 0 {
            return now;
        }
        let on = Observe::now();
        let window = link.cfg.posted_window.max(1);
        let tag = if link.cfg.multi_tag {
            link.active_tag
        } else {
            0
        };
        grow_to(&mut link.posted_credits, tag, PostedContext::new);
        let mut last_arrival = now;
        let mut granted = 0u64;
        let mut released = 0u64;
        for chunk in split_aligned(addr, len, link.cfg.mps) {
            let mut earliest = if link.cfg.multi_tag {
                now
            } else {
                now.max(link.up.watermark)
            };
            while let Some(&front) = link.posted_credits[tag].credits.front() {
                if front <= earliest {
                    link.posted_credits[tag].credits.pop_front();
                    released += 1;
                } else {
                    break;
                }
            }
            if link.posted_credits[tag].credits.len() >= window {
                earliest = link.posted_credits[tag]
                    .credits
                    .pop_front()
                    .expect("credit queue non-empty");
                released += 1;
            }
            let sent = link.put_tlp(earliest, Direction::Upstream, TlpKind::MemWrite, chunk, on);
            let at_rc = sent + link.cfg.propagation;
            let ret = at_rc + link.cfg.credit_return;
            link.posted_credits[tag].credits.push_back(ret);
            granted += 1;
            last_arrival = at_rc;
        }
        if on.metrics {
            vf_metrics::batch(|b| {
                link.tally.flush(b);
                let p = &link.posted_credits[tag];
                b.counter_add(&p.granted, granted);
                b.counter_add(&p.released, released);
                b.gauge_set(&p.inflight, p.credits.len() as i64);
                b.gauge_set(&p.window, window as i64);
            });
        }
        last_arrival + link.cfg.rc_write_latency
    }

    /// One call of a burst script: a read (or write) of `len` bytes at
    /// `addr`, issued `after` ns past the previous call's `now`.
    #[derive(Clone, Debug)]
    struct Burst {
        read: bool,
        addr: u64,
        len: usize,
        after: u64,
    }

    fn burst() -> impl Strategy<Value = Burst> {
        (any::<bool>(), 0u64..1 << 16, 1usize..6_000, 0u64..20_000).prop_map(
            |(read, addr, len, after)| Burst {
                read,
                addr,
                len,
                after,
            },
        )
    }

    /// Links whose windows are mostly one and `multi_tag` mostly off,
    /// so most scripts take the closed form and the rest check that it
    /// stays off. Latencies include zero, where a credit returns the
    /// instant its TLP is sent.
    fn burst_link() -> impl Strategy<Value = LinkConfig> {
        let gen = prop_oneof![
            Just(PcieGen::Gen1),
            Just(PcieGen::Gen2),
            Just(PcieGen::Gen3)
        ];
        let lanes = prop_oneof![Just(1u32), Just(2), Just(4), Just(8)];
        // log2 of `mps` and `read_req`, in either order.
        let sizes = (6u32..10, 5u32..12);
        let latency_ns = (0u64..400, 0u64..2_000, 0u64..500);
        // Reads window, posted window, multi-tag: 0 means one, the
        // last draw two or on.
        let shape = (0u8..4, 0u8..4, 0u8..5);
        (gen, lanes, sizes, latency_ns, shape).prop_map(
            |(gen, lanes, (mps, rr), (prop, rc, credit), (rw, pw, mt))| {
                let mut cfg = LinkConfig::gen2_x2();
                cfg.gen = gen;
                cfg.lanes = lanes;
                cfg.mps = 1 << mps;
                cfg.read_req = 1 << rr;
                cfg.propagation = Time::from_ns(prop);
                cfg.rc_read_latency = Time::from_ns(rc);
                cfg.credit_return = Time::from_ns(credit);
                cfg.outstanding_reads = if rw == 3 { 2 } else { 1 };
                cfg.posted_window = if pw == 3 { 2 } else { 1 };
                cfg.multi_tag = mt == 4;
                cfg
            },
        )
    }

    /// Run `script` on `link` from `now`, through the production calls
    /// or the per-TLP reference, inside a metrics session when
    /// `metered`. Returns each call's return instant and the link state
    /// after it, and the session's report bytes.
    fn run_bursts(
        mut link: PcieLink,
        mut now: Time,
        script: &[Burst],
        reference: bool,
        metered: bool,
    ) -> (Vec<String>, String) {
        if metered {
            vf_metrics::install(vf_metrics::MetricsConfig::default());
        }
        let mut states = Vec::new();
        for b in script {
            now += Time::from_ns(b.after);
            let done = match (b.read, reference) {
                (true, false) => link.dma_read(now, b.addr, b.len),
                (true, true) => dma_read_per_tlp(&mut link, now, b.addr, b.len),
                (false, false) => link.dma_write(now, b.addr, b.len),
                (false, true) => dma_write_per_tlp(&mut link, now, b.addr, b.len),
            };
            let credits: Vec<&VecDeque<Time>> =
                link.posted_credits.iter().map(|p| &p.credits).collect();
            states.push(format!(
                "{b:?} -> {done:?}; up {:?} down {:?}; reads {:?}; credits {credits:?}; \
                 tlps {:?}; wire {} up {} down",
                link.up.watermark,
                link.down.watermark,
                link.read_window,
                link.tlp_counts,
                link.up_wire_bytes,
                link.down_wire_bytes,
            ));
        }
        let report = if metered {
            vf_metrics::finish().to_json()
        } else {
            String::new()
        };
        (states, report)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The closed form is the per-TLP loop: the same return
        /// instants, watermarks, read window, credit queues, TLP and
        /// wire-byte counts after every call and, metered, the same
        /// report bytes (the published wire tally with its per-size
        /// histograms, and the granted and released credits).
        #[test]
        fn closed_form_bursts_match_the_per_tlp_loop(
            cfg in burst_link(),
            prior in (0u64..50_000, 0u64..50_000, proptest::collection::vec(0u64..60_000, 0..3)),
            now in 0u64..60_000,
            script in proptest::collection::vec(burst(), 1..5),
        ) {
            // A link some earlier traffic left busy: both watermarks and
            // outstanding credits at arbitrary instants.
            let (up, down, mut credits) = prior;
            credits.sort_unstable();
            let mut link = PcieLink::new(cfg);
            link.up.watermark = Time::from_ns(up);
            link.down.watermark = Time::from_ns(down);
            link.posted_credits[0].credits = credits.into_iter().map(Time::from_ns).collect();
            let now = Time::from_ns(now);
            for metered in [false, true] {
                let fast = run_bursts(link.clone(), now, &script, false, metered);
                let slow = run_bursts(link.clone(), now, &script, true, metered);
                prop_assert_eq!(fast, slow, "metered: {}", metered);
            }
        }
    }

    #[test]
    fn closed_form_advances_full_middle_chunks() {
        let mut link = idle();
        // 128 KiB at an offset: a 64 B head, 1,023 full middle chunks
        // and a 64 B tail each way.
        link.dma_read(Time::ZERO, 0x40, 128 << 10);
        assert_eq!(link.closed_chunks, 1_023);
        link.dma_write(Time::ZERO, 0x40, 128 << 10);
        assert_eq!(link.closed_chunks, 2 * 1_023);
        // Two chunks have no middle.
        link.dma_read(Time::ZERO, 0, 256);
        assert_eq!(link.closed_chunks, 2 * 1_023);
    }

    #[test]
    fn trace_runs_put_every_tlp() {
        let mut link = idle();
        vf_trace::install(Box::new(vf_trace::RingBufferSink::new(16)));
        link.dma_read(Time::ZERO, 0, 4096);
        link.dma_write(Time::ZERO, 0, 4096);
        drop(vf_trace::finish());
        assert_eq!(link.closed_chunks, 0);
    }

    #[test]
    fn gen3_x8_much_faster_than_gen2_x2() {
        let slow = PcieLink::new(LinkConfig::gen2_x2());
        let fast = PcieLink::new(LinkConfig::with(PcieGen::Gen3, 8));
        let bw_slow = slow.read_bandwidth_mbps(4096);
        let bw_fast = fast.read_bandwidth_mbps(4096);
        assert!(
            bw_fast > 4.0 * bw_slow,
            "gen3x8 {bw_fast} MB/s vs gen2x2 {bw_slow} MB/s"
        );
    }
}
