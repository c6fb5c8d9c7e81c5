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
    /// Merged busy intervals (multi-tag mode).
    busy: VecDeque<(Time, Time)>,
}

/// Interval-list backstop. When exceeded, the two oldest intervals are
/// coalesced (conservative: the gap between them is forgotten as
/// *busy*, never double-booked). With [`PcieLink::advance_epoch`]
/// pruning retired intervals each event, the list tracks the live
/// pipeline window and stays far below this bound.
const WIRE_INTERVAL_CAP: usize = 4096;

impl WireDir {
    /// Drop intervals that ended at or before `epoch` — they can never
    /// conflict with a reservation whose `earliest` is `>= epoch`.
    fn prune(&mut self, epoch: Time) {
        while let Some(&(_, e)) = self.busy.front() {
            if e <= epoch {
                self.busy.pop_front();
            } else {
                break;
            }
        }
    }

    /// Reserve `dur` of wire no earlier than `earliest`; returns the
    /// instant the reservation ends (last symbol leaves the sender).
    fn reserve(&mut self, multi_tag: bool, earliest: Time, dur: Time) -> Time {
        if !multi_tag {
            let start = self.watermark.max(earliest);
            let end = start + dur;
            self.watermark = end;
            return end;
        }
        let mut start = earliest;
        let mut idx = self.busy.len();
        for (i, &(s, e)) in self.busy.iter().enumerate() {
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
        // Merge with touching neighbors to keep the list canonical.
        if idx < self.busy.len() && self.busy[idx].0 == e {
            e = self.busy[idx].1;
            self.busy.remove(idx);
        }
        if idx > 0 && self.busy[idx - 1].1 == s {
            s = self.busy[idx - 1].0;
            self.busy.remove(idx - 1);
            idx -= 1;
        }
        self.busy.insert(idx, (s, e));
        if self.busy.len() > WIRE_INTERVAL_CAP {
            let (s0, _) = self.busy[0];
            let (_, e1) = self.busy[1];
            self.busy.pop_front();
            self.busy[0] = (s0, e1);
        }
        end
    }
}

/// Per-DMA-tag non-posted read pipeline (E20): the completion instants
/// of reads still in flight on this tag, plus the recent completion
/// history that bounds relaxed-ordering reordering.
#[derive(Clone, Debug, Default)]
struct NpContext {
    /// Completion instants of in-flight reads, issue order.
    inflight: VecDeque<Time>,
    /// Completion instants of the most recent reads (issue order),
    /// kept to enforce the reorder window; bounded by
    /// [`LinkConfig::reorder_window`].
    history: VecDeque<Time>,
    /// Deepest the in-flight window ever got on this tag.
    peak: usize,
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
    /// Return instants for outstanding posted credits, per DMA tag
    /// context. Single-tag links keep exactly one pipeline (index 0);
    /// multi-tag engines pace each channel independently while the
    /// shared wire still arbitrates serialization.
    posted_credits: Vec<VecDeque<Time>>,
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
}

impl PcieLink {
    /// New idle link.
    pub fn new(cfg: LinkConfig) -> Self {
        PcieLink {
            cfg,
            down: WireDir::default(),
            up: WireDir::default(),
            posted_credits: vec![VecDeque::new()],
            np_contexts: vec![NpContext::default()],
            active_tag: 0,
            up_wire_bytes: 0,
            down_wire_bytes: 0,
            tlp_counts: [0; 3],
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

    fn wire_for(&mut self, dir: Direction) -> &mut WireDir {
        match dir {
            Direction::Downstream => &mut self.down,
            Direction::Upstream => &mut self.up,
        }
    }

    fn count_tlp(&mut self, kind: TlpKind, wire: usize, dir: Direction) {
        match dir {
            Direction::Downstream => self.down_wire_bytes += wire as u64,
            Direction::Upstream => self.up_wire_bytes += wire as u64,
        }
        let idx = match kind {
            TlpKind::MemWrite | TlpKind::Msg => 0,
            TlpKind::MemRead => 1,
            TlpKind::CplD | TlpKind::Cpl => 2,
        };
        self.tlp_counts[idx] += 1;
        if vf_metrics::is_enabled() {
            // Index 0 = downstream, 1 = upstream.
            let d = matches!(dir, Direction::Upstream) as u32;
            vf_metrics::counter_add("pcie.wire.bytes", d, wire as u64);
            vf_metrics::counter_add("pcie.wire.tlps", d, 1);
            vf_metrics::hist_record("pcie.wire.tlp_bytes", d, wire as u64);
        }
    }

    /// Serialize one TLP in `dir` no earlier than `earliest`; returns the
    /// instant its last symbol leaves the sender.
    fn put_tlp(&mut self, earliest: Time, dir: Direction, kind: TlpKind, payload: usize) -> Time {
        let wire = wire_bytes(kind, payload);
        let ser = self.cfg.serialize(wire);
        let multi_tag = self.cfg.multi_tag;
        let end = self.wire_for(dir).reserve(multi_tag, earliest, ser);
        let start = end - ser;
        self.count_tlp(kind, wire, dir);
        if vf_trace::is_enabled() {
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
        let sent = self.put_tlp(now, Direction::Downstream, TlpKind::MemWrite, len);
        sent + self.cfg.propagation
    }

    /// Host CPU reads `len` bytes from a BAR (non-posted, CPU stalls).
    /// Returns the instant the completion data is back in the CPU.
    pub fn mmio_read(&mut self, now: Time, len: usize) -> Time {
        let req_sent = self.put_tlp(now, Direction::Downstream, TlpKind::MemRead, 0);
        let at_dev = req_sent + self.cfg.propagation;
        let reply_ready = at_dev + self.cfg.dev_mmio_latency;
        let cpl_sent = self.put_tlp(reply_ready, Direction::Upstream, TlpKind::CplD, len.max(4));
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
        let chunks = split_aligned(addr, len, self.cfg.read_req);
        let window = self.cfg.outstanding_reads.max(1);
        // Completion instants of in-flight requests, oldest first.
        let mut inflight: VecDeque<Time> = VecDeque::with_capacity(window);
        let mut chunk_addr = addr;
        let mut last_done = now;
        for chunk in chunks {
            // Tag availability: wait for the oldest outstanding request if
            // the window is full.
            let mut earliest = now;
            if inflight.len() == window {
                earliest = inflight.pop_front().expect("window non-empty");
            }
            let req_sent = self.put_tlp(earliest, Direction::Upstream, TlpKind::MemRead, 0);
            let at_rc = req_sent + self.cfg.propagation;
            let data_ready = at_rc + self.cfg.rc_read_latency;
            // Completions stream back, split at MPS boundaries.
            let mut done = data_ready;
            for cpl in split_aligned(chunk_addr, chunk, self.cfg.mps) {
                let sent = self.put_tlp(done, Direction::Downstream, TlpKind::CplD, cpl);
                done = sent;
            }
            done += self.cfg.propagation;
            inflight.push_back(done);
            last_done = done;
            chunk_addr += chunk as u64;
        }
        last_done
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
        let window = self.cfg.max_outstanding_np.max(1);
        let relaxed = self.cfg.relaxed_ordering;
        let reorder = self.cfg.reorder_window.max(1);
        let tag = if self.cfg.multi_tag {
            self.active_tag
        } else {
            0
        };
        if self.np_contexts.len() <= tag {
            self.np_contexts.resize_with(tag + 1, NpContext::default);
        }
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
            let req_sent = self.put_tlp(earliest, Direction::Upstream, TlpKind::MemRead, 0);
            let at_rc = req_sent + self.cfg.propagation;
            let data_ready = at_rc + self.cfg.rc_read_latency;
            let mut done = data_ready;
            for cpl in split_aligned(chunk_addr, chunk, self.cfg.mps) {
                done = self.put_tlp(done, Direction::Downstream, TlpKind::CplD, cpl);
            }
            done += self.cfg.propagation;
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
        if vf_metrics::is_enabled() {
            use vf_metrics::names;
            let t = tag as u32;
            let ctx = &self.np_contexts[tag];
            vf_metrics::counter_add("pcie.np.issued", t, issued);
            vf_metrics::gauge_set(names::NP_INFLIGHT, t, ctx.inflight.len() as i64);
            vf_metrics::gauge_set(names::NP_WINDOW, t, window as i64);
            vf_metrics::gauge_set("pcie.np.peak", t, ctx.peak as i64);
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
        let window = self.cfg.posted_window.max(1);
        let tag = if self.cfg.multi_tag {
            self.active_tag
        } else {
            0
        };
        if self.posted_credits.len() <= tag {
            self.posted_credits.resize_with(tag + 1, VecDeque::new);
        }
        let mut last_arrival = now;
        // Credit bookkeeping for the conservation watchdog: every pop
        // below counts as a release, every push as a grant, so
        // `granted − released == in-flight` holds at each call boundary
        // (and therefore at every sample, which only fires between
        // events).
        let mut granted = 0u64;
        let mut released = 0u64;
        for chunk in split_aligned(addr, len, self.cfg.mps) {
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
            while let Some(&front) = self.posted_credits[tag].front() {
                if front <= earliest {
                    self.posted_credits[tag].pop_front();
                    released += 1;
                } else {
                    break;
                }
            }
            if self.posted_credits[tag].len() >= window {
                earliest = self.posted_credits[tag]
                    .pop_front()
                    .expect("credit queue non-empty");
                released += 1;
            }
            let sent = self.put_tlp(earliest, Direction::Upstream, TlpKind::MemWrite, chunk);
            let at_rc = sent + self.cfg.propagation;
            let ret = at_rc + self.cfg.credit_return;
            self.posted_credits[tag].push_back(ret);
            granted += 1;
            last_arrival = at_rc;
        }
        if vf_metrics::is_enabled() {
            use vf_metrics::names;
            let t = tag as u32;
            vf_metrics::counter_add(names::POSTED_GRANTED, t, granted);
            vf_metrics::counter_add(names::POSTED_RELEASED, t, released);
            vf_metrics::gauge_set(
                names::POSTED_INFLIGHT,
                t,
                self.posted_credits[tag].len() as i64,
            );
            vf_metrics::gauge_set("pcie.posted.window", t, window as i64);
        }
        last_arrival + self.cfg.rc_write_latency
    }

    /// Device fires an MSI-X vector: a 4-byte posted write to the vector's
    /// address. Returns the instant the interrupt reaches the host's
    /// interrupt controller.
    pub fn msix_write(&mut self, now: Time) -> Time {
        let sent = self.put_tlp(now, Direction::Upstream, TlpKind::MemWrite, 4);
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
