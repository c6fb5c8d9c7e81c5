//! The FPGA VirtIO controller — the paper's Fig. 2.
//!
//! "A VirtIO controller is placed between the XDMA IP and the user
//! logic. The VirtIO controller implements the virtqueue functionality
//! and controls the DMA engine of the XDMA IP." (§III-A)
//!
//! This device model is the back-end half of the VirtIO protocol,
//! implemented the way the paper's RTL framework implements it:
//!
//! * the VirtIO **configuration structures** (common config, notify,
//!   ISR, device config, MSI-X table) mapped into BAR0 — requirement (ii)
//!   of §II-C — with the MMIO decode in [`VirtioFpgaDevice::mmio_write`];
//! * a **queue-processing FSM** that, on a doorbell, walks the avail
//!   ring and descriptor chains in host memory through timed PCIe DMA
//!   reads, stages payloads in BRAM, and completes used entries —
//!   device-side data movement, the work-allocation difference (§IV-A)
//!   that shifts latency from software into hardware. Every walker
//!   takes chains through `take_chain` and finishes them through
//!   `complete_chain`; a malformed chain ends the walk in
//!   `DEVICE_NEEDS_RESET` (VirtIO 1.2 §2.1.2), never in a panic;
//! * a virtqueue-semantics interface to pluggable **user logic** (echo,
//!   checksum offload, firewall), plus the driver-bypass DMA port;
//! * the hardware **performance counters** of §III-B3.
//!
//! Device personas (net / console / block) differ only in the
//! device-specific config structure, queue count, and per-buffer header
//! handling — the paper's "modifications required are minimal" claim.

use std::collections::VecDeque;

use vf_metrics::{Gauge, Histogram};
use vf_pcie::{
    BarDef, ConfigSpace, ConfigSpaceBuilder, HostMemory, MsixCapability, MsixTable, PcieCapability,
    PcieLink, VirtioCfgType, VirtioPciCap, VIRTIO_VENDOR_ID,
};
use vf_sim::{Time, FPGA_CYCLE};
use vf_virtio::block::{blk_status, BlkParseError, BlkRequest, MemDisk, VirtioBlkConfig};
use vf_virtio::console::VirtioConsoleConfig;
use vf_virtio::net::{
    internet_checksum, VirtioNetConfig, VirtioNetHdr, HDR_F_DATA_VALID, HDR_F_NEEDS_CSUM,
};
use vf_virtio::pci::{CfgEvent, VirtioTransport};
use vf_virtio::{
    feature, net, CommonCfg, DeviceRing, DeviceType, GuestMemory, IsrStatus, RingChain,
};

use crate::counters::RoundTripCounters;
use crate::mem::{CardKind, CardStore};
use crate::user_logic::UserLogic;
use vf_xdma::CardMemory;

/// BAR0 region map of the device (the offsets the VirtIO capabilities
/// advertise).
pub mod bar0 {
    /// Common configuration structure.
    pub const COMMON: u64 = 0x0000;
    /// Notification region (doorbells).
    pub const NOTIFY: u64 = 0x1000;
    /// Doorbell stride: `queue_notify_off × NOTIFY_MULTIPLIER`.
    pub const NOTIFY_MULTIPLIER: u32 = 4;
    /// ISR status byte.
    pub const ISR: u64 = 0x2000;
    /// Device-specific configuration.
    pub const DEVICE_CFG: u64 = 0x3000;
    /// MSI-X vector table (16 bytes per vector).
    pub const MSIX_TABLE: u64 = 0x4000;
    /// MSI-X pending-bit array.
    pub const MSIX_PBA: u64 = 0x5000;
    /// BAR0 size.
    pub const SIZE: u64 = 0x10000;
}

/// Controller FSM timing (fabric cycles at 125 MHz).
#[derive(Clone, Copy, Debug)]
pub struct ControllerTiming {
    /// Doorbell arrival → queue FSM dispatched.
    pub notify_decode: Time,
    /// Generic FSM state transition.
    pub fsm_step: Time,
    /// Descriptor parse + DMA-command issue.
    pub per_desc: Time,
}

impl Default for ControllerTiming {
    fn default() -> Self {
        ControllerTiming {
            notify_decode: FPGA_CYCLE * 6,
            fsm_step: FPGA_CYCLE * 2,
            per_desc: FPGA_CYCLE * 4,
        }
    }
}

/// Device persona: the device-type-specific part of the controller.
pub enum Persona {
    /// Network device (this paper's extension of \[14\]).
    Net {
        /// Device-specific configuration structure.
        cfg: VirtioNetConfig,
    },
    /// Console device (the prior work's type).
    Console {
        /// Device-specific configuration structure.
        cfg: VirtioConsoleConfig,
    },
    /// Block device (additional type).
    Block {
        /// Device-specific configuration structure.
        cfg: VirtioBlkConfig,
        /// The backing store.
        disk: MemDisk,
    },
}

impl Persona {
    fn device_type(&self) -> DeviceType {
        match self {
            Persona::Net { .. } => DeviceType::Net,
            Persona::Console { .. } => DeviceType::Console,
            Persona::Block { .. } => DeviceType::Block,
        }
    }

    fn device_cfg_read(&self, off: u64, len: usize) -> u64 {
        match self {
            Persona::Net { cfg } => cfg.read(off, len),
            Persona::Console { cfg } => cfg.read(off, len),
            Persona::Block { cfg, .. } => cfg.read(off, len),
        }
    }

    /// Bytes of per-buffer header preceding payload on this device type's
    /// queues.
    fn hdr_len(&self) -> usize {
        match self {
            Persona::Net { .. } => VirtioNetHdr::LEN,
            Persona::Console { .. } | Persona::Block { .. } => 0,
        }
    }
}

/// Decoded MMIO side effects the surrounding world must act on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MmioEvent {
    /// Driver rang the doorbell of queue `n`.
    Notify(u16),
    /// Device was reset.
    Reset,
    /// Queue `n` became enabled.
    QueueEnabled(u16),
}

/// A steering-state change decoded from a control-virtqueue command,
/// applied after the command batch's acks are written back.
enum CtrlAction {
    /// `MQ_VQ_PAIRS_SET`: spread flows over this many queue pairs.
    SetPairs(u16),
    /// `MQ_RSS_CONFIG`: install a Toeplitz indirection table + key.
    SetRss {
        /// Indirection table (entry → queue pair).
        table: Vec<u16>,
        /// Toeplitz hash key.
        key: Vec<u8>,
    },
}

/// Decode a `{class, command, data...}` control command. Returns the
/// ack byte and the state change to apply, if the command was
/// well-formed.
fn decode_ctrl_command(cmd: &[u8], max_pairs: u16) -> (u8, Option<CtrlAction>) {
    match (cmd.first(), cmd.get(1)) {
        (Some(&net::ctrl::CLASS_MQ), Some(&net::ctrl::MQ_VQ_PAIRS_SET)) if cmd.len() >= 4 => {
            let pairs = u16::from_le_bytes([cmd[2], cmd[3]]);
            if (1..=max_pairs).contains(&pairs) {
                (net::ctrl::OK, Some(CtrlAction::SetPairs(pairs)))
            } else {
                (net::ctrl::ERR, None)
            }
        }
        (Some(&net::ctrl::CLASS_MQ), Some(&net::ctrl::MQ_RSS_CONFIG)) if cmd.len() >= 4 => {
            // `le16 table_len`, entries, `u8 key_len`, key bytes.
            let table_len = u16::from_le_bytes([cmd[2], cmd[3]]) as usize;
            let key_off = 4 + 2 * table_len;
            if table_len == 0
                || table_len > net::RSS_TABLE_LEN
                || !table_len.is_power_of_two()
                || cmd.len() < key_off + 1
            {
                return (net::ctrl::ERR, None);
            }
            let table: Vec<u16> = (0..table_len)
                .map(|i| u16::from_le_bytes([cmd[4 + 2 * i], cmd[5 + 2 * i]]))
                .collect();
            if table.iter().any(|&pair| pair >= max_pairs) {
                return (net::ctrl::ERR, None);
            }
            let key_len = cmd[key_off] as usize;
            if key_len != net::RSS_KEY_LEN || cmd.len() < key_off + 1 + key_len {
                return (net::ctrl::ERR, None);
            }
            let key = cmd[key_off + 1..key_off + 1 + key_len].to_vec();
            (net::ctrl::OK, Some(CtrlAction::SetRss { table, key }))
        }
        _ => (net::ctrl::ERR, None),
    }
}

/// A staged TX frame and the net header split off its front.
type Staged = (Vec<u8>, Option<VirtioNetHdr>);

/// Split the `hdr_len`-byte device-type header off a staged TX buffer,
/// in place.
fn split_hdr(mut data: Vec<u8>, hdr_len: usize) -> Staged {
    if hdr_len == 0 || data.len() < hdr_len {
        return (data, None);
    }
    let hdr = VirtioNetHdr::from_bytes(&data[..hdr_len]);
    data.drain(..hdr_len);
    (data, Some(hdr))
}

/// Storage the TX walkers and user logic reuse across doorbells, so a
/// warm device moves frames without allocating. One per device, not
/// one per queue: a walk runs to completion before the next begins.
#[derive(Default)]
struct TxScratch {
    /// Chains the pipelined walker took for this pass and has not
    /// completed yet.
    chains: VecDeque<RingChain>,
    /// Instant each of those chains' descriptor fetch completed.
    desc_done: Vec<Time>,
    /// Frames staged by this pass, in chain order.
    staged: Vec<Staged>,
    /// Frame buffers of recycled responses and dropped frames.
    frames: Vec<Vec<u8>>,
    /// The response list of the last recycled [`TxOutcome`], empty.
    responses: Vec<PendingResponse>,
}

/// The device-side ring of queue `n`, if the driver enabled it.
fn ring(rings: &mut [Option<DeviceRing>], n: u16) -> Option<&mut DeviceRing> {
    rings.get_mut(n as usize)?.as_mut()
}

/// A timed DMA read, through the tag's non-posted window when `np`.
fn dma_read(link: &mut PcieLink, np: bool, t: Time, addr: u64, len: usize) -> Time {
    if np {
        link.dma_read_np(t, addr, len)
    } else {
        link.dma_read(t, addr, len)
    }
}

/// A response frame the device wants to send to the host.
#[derive(Clone, Debug)]
pub struct PendingResponse {
    /// The frame (or console bytes) to deliver.
    pub data: Vec<u8>,
    /// When user logic finished producing it.
    pub ready_at: Time,
    /// Whether the device validated/produced the checksum (sets
    /// `DATA_VALID` on the RX header).
    pub csum_valid: bool,
}

/// Result of processing a TX-queue doorbell.
#[derive(Clone, Debug, Default)]
pub struct TxOutcome {
    /// Responses generated by user logic, in order.
    pub responses: Vec<PendingResponse>,
    /// Instant the controller finished the TX queue work.
    pub done_at: Time,
    /// A TX-completion interrupt, if the driver asked for one.
    pub tx_irq_at: Option<Time>,
    /// Chains processed.
    pub chains: u32,
}

/// Result of delivering one response into the RX queue.
#[derive(Clone, Debug)]
pub struct RxOutcome {
    /// Instant the RX MSI-X message reached the host interrupt
    /// controller, if one fired.
    pub irq_at: Option<Time>,
    /// Instant the controller finished (data + used entry visible).
    pub done_at: Time,
    /// False if no RX buffer was available (frame dropped).
    pub delivered: bool,
}

/// One serviced request from a block-queue walker pass.
#[derive(Clone, Copy, Debug)]
pub struct BlkCompletion {
    /// Head descriptor index of the request chain.
    pub head: u16,
    /// Status byte of the completion (`blk_status`).
    pub status: u8,
    /// Instant the used-index write made the completion host-visible.
    pub done_at: Time,
    /// Instant this request's MSI-X message reached the host, if one
    /// fired (EVENT_IDX may suppress it).
    pub irq_at: Option<Time>,
}

/// Result of a block request-queue walker pass: one record per serviced
/// request, in service order.
#[derive(Clone, Debug, Default)]
pub struct BlkOutcome {
    /// Per-request completions.
    pub completions: Vec<BlkCompletion>,
    /// Instant the walker went idle again.
    pub done_at: Time,
}

/// Statistics the device accumulates.
#[derive(Clone, Copy, Debug, Default)]
pub struct DeviceStats {
    /// Doorbells received.
    pub notifications: u64,
    /// Doorbells to queues the driver never enabled, ignored.
    pub stray_notifies: u64,
    /// Chains consumed from the TX queue.
    pub tx_chains: u64,
    /// Frames delivered into the RX queue.
    pub rx_frames: u64,
    /// Frames dropped for want of an RX buffer that holds them.
    pub rx_dropped: u64,
    /// Checksums computed by the offload engine.
    pub csum_offloads: u64,
    /// MSI-X messages sent.
    pub irqs_sent: u64,
    /// PCIe reads spent fetching descriptor/ring metadata (avail index,
    /// ring entries, descriptor tables) — payload reads excluded. The
    /// split-vs-packed structural metric of experiment E17.
    pub desc_reads: u64,
    /// Block requests served.
    pub blk_requests: u64,
    /// Malformed block chains/requests survived (completed with an error
    /// status, or ending the pass with `DEVICE_NEEDS_RESET`) instead of
    /// crashing the walker.
    pub blk_errors: u64,
    /// Control-virtqueue commands processed (MQ configuration etc.).
    pub ctrl_commands: u64,
    /// Deepest the non-posted read window of any queue walker got
    /// (E20): number of descriptor/payload reads concurrently in flight
    /// on one DMA tag. Stays 0 on the serial (depth-1) walker paths.
    pub walker_peak_inflight: u64,
}

/// The complete VirtIO FPGA device.
pub struct VirtioFpgaDevice {
    /// PCIe configuration space (with the VirtIO capability list).
    pub config_space: ConfigSpace,
    /// VirtIO common configuration register file.
    pub common: CommonCfg,
    /// ISR status byte (INTx path; unused under MSI-X).
    pub isr: IsrStatus,
    /// MSI-X vector table.
    pub msix: MsixTable,
    /// Device persona (net/console/block).
    pub persona: Persona,
    /// Device-side rings, created as the driver enables them, in the
    /// layout the negotiated `RING_PACKED` bit selects (E17).
    rings: Vec<Option<DeviceRing>>,
    /// Attached user logic.
    pub logic: Box<dyn UserLogic>,
    /// Frame staging memory (BRAM by default; DDR for the E14 ablation).
    pub staging: CardStore,
    /// FSM timing.
    pub timing: ControllerTiming,
    /// Hardware performance counters (§III-B3).
    pub counters: RoundTripCounters,
    /// Accumulated statistics.
    pub stats: DeviceStats,
    /// Shadow of host-written MSI-X table fields (addr, data per
    /// vector), applied on the vector-control write.
    msix_shadow: Vec<(u64, u32)>,
    /// Active RX/TX queue pairs the flow-steering walker spreads
    /// traffic over; set by the ctrl-vq `MQ_VQ_PAIRS_SET` command.
    active_pairs: u16,
    /// RSS indirection table (`hash & (len-1)` → queue pair), programmed
    /// by the ctrl-vq `MQ_RSS_CONFIG` command. `None` falls back to
    /// modulo steering over `active_pairs` (the pre-RSS behaviour).
    rss_table: Option<Vec<u16>>,
    /// Toeplitz hash key accompanying the indirection table.
    rss_key: Vec<u8>,
    /// Reused TX walk storage.
    tx_scratch: TxScratch,
    /// The pipelined TX walker's depth instruments, per queue, built on
    /// the first update made while a metrics session is installed, so
    /// plain runs build none.
    walker_depth: Vec<WalkerDepth>,
}

/// `fpga.walker.depth` and its histogram for one TX queue: chains whose
/// descriptors the pipelined walker has fetched but not yet completed.
struct WalkerDepth {
    level: Gauge,
    hist: Histogram,
}

impl WalkerDepth {
    fn new(queue: u32) -> WalkerDepth {
        WalkerDepth {
            level: Gauge::new("fpga.walker.depth", queue),
            hist: Histogram::new("fpga.walker.depth_hist", queue),
        }
    }
}

/// The driver's view of BAR0: every front end's probe runs over this.
impl VirtioTransport for VirtioFpgaDevice {
    fn common_read(&mut self, off: u64, len: usize) -> u64 {
        self.mmio_read(bar0::COMMON + off, len)
    }
    fn common_write(&mut self, off: u64, len: usize, val: u64) {
        self.mmio_write(bar0::COMMON + off, len, val);
    }
    fn device_cfg_read(&mut self, off: u64, len: usize) -> u64 {
        self.mmio_read(bar0::DEVICE_CFG + off, len)
    }
}

impl VirtioFpgaDevice {
    /// Build a device of the given persona offering `extra_features`
    /// (device-type feature bits) on top of the transport features the
    /// framework always offers.
    pub fn new(
        persona: Persona,
        extra_features: u64,
        queue_sizes: &[u16],
        logic: Box<dyn UserLogic>,
    ) -> Self {
        let dt = persona.device_type();
        assert!(
            queue_sizes.len() as u16 >= dt.min_queues(),
            "{} needs at least {} queues",
            dt.name(),
            dt.min_queues()
        );
        let features = feature::VERSION_1
            | feature::RING_EVENT_IDX
            | feature::RING_INDIRECT_DESC
            | feature::RING_PACKED
            | extra_features;
        let (base, sub, prog) = dt.class_code();
        let vectors = (queue_sizes.len() + 1).max(2) as u16;
        let config_space = ConfigSpaceBuilder::new(VIRTIO_VENDOR_ID, dt.pci_device_id())
            .class(base, sub, prog)
            .revision(1)
            .subsystem(VIRTIO_VENDOR_ID, dt.subsystem_id())
            .bar(
                0,
                BarDef::Mem32 {
                    size: bar0::SIZE as u32,
                },
            )
            .capability(&PcieCapability {
                max_payload_supported: 1, // 256 B capable; host clamps to 128
                link_width: 2,
                link_speed: 2,
            })
            .capability(&MsixCapability {
                table_size: vectors,
                table_bar: 0,
                table_offset: bar0::MSIX_TABLE as u32,
                pba_bar: 0,
                pba_offset: bar0::MSIX_PBA as u32,
            })
            .capability(&VirtioPciCap {
                cfg_type: VirtioCfgType::Common,
                bar: 0,
                offset: bar0::COMMON as u32,
                length: 0x38,
                notify_off_multiplier: None,
            })
            .capability(&VirtioPciCap {
                cfg_type: VirtioCfgType::Notify,
                bar: 0,
                offset: bar0::NOTIFY as u32,
                length: 0x100,
                notify_off_multiplier: Some(bar0::NOTIFY_MULTIPLIER),
            })
            .capability(&VirtioPciCap {
                cfg_type: VirtioCfgType::Isr,
                bar: 0,
                offset: bar0::ISR as u32,
                length: 4,
                notify_off_multiplier: None,
            })
            .capability(&VirtioPciCap {
                cfg_type: VirtioCfgType::Device,
                bar: 0,
                offset: bar0::DEVICE_CFG as u32,
                length: 0x100,
                notify_off_multiplier: None,
            })
            .build();
        VirtioFpgaDevice {
            config_space,
            common: CommonCfg::new(features, queue_sizes),
            isr: IsrStatus::default(),
            msix: MsixTable::new(vectors as usize),
            persona,
            rings: queue_sizes.iter().map(|_| None).collect(),
            logic,
            staging: CardStore::bram(256 * 1024),
            timing: ControllerTiming::default(),
            counters: RoundTripCounters::default(),
            stats: DeviceStats::default(),
            msix_shadow: Vec::new(),
            active_pairs: 1,
            rss_table: None,
            rss_key: Vec::new(),
            tx_scratch: TxScratch::default(),
            walker_depth: Vec::new(),
        }
    }

    /// Put the staging memory behind BRAM or external DDR (E14).
    pub fn set_card_memory(&mut self, kind: CardKind) {
        self.staging.set_kind(kind);
    }

    /// Negotiated features (0 before DRIVER_OK).
    pub fn features(&self) -> u64 {
        self.common.negotiation.negotiated()
    }

    /// True once the driver completed initialization.
    pub fn is_live(&self) -> bool {
        self.common.negotiation.is_live()
    }

    /// BAR0 MMIO read.
    pub fn mmio_read(&mut self, off: u64, len: usize) -> u64 {
        match off {
            o if o < bar0::NOTIFY => self.common.read(o - bar0::COMMON, len),
            o if (bar0::ISR..bar0::DEVICE_CFG).contains(&o) => self.isr.read_to_clear() as u64,
            o if (bar0::DEVICE_CFG..bar0::MSIX_TABLE).contains(&o) => {
                self.persona.device_cfg_read(o - bar0::DEVICE_CFG, len)
            }
            o if (bar0::MSIX_PBA..bar0::SIZE).contains(&o) => {
                // Pending bits packed into u64 words.
                let word = (o - bar0::MSIX_PBA) / 8;
                let mut bits = 0u64;
                for (i, &p) in self.msix.pending().iter().enumerate() {
                    if p && (i as u64 / 64) == word {
                        bits |= 1 << (i % 64);
                    }
                }
                bits
            }
            _ => 0,
        }
    }

    /// BAR0 MMIO write; returns the decoded side effect, if any.
    pub fn mmio_write(&mut self, off: u64, len: usize, val: u64) -> Option<MmioEvent> {
        match off {
            o if o < bar0::NOTIFY => {
                match self.common.write(o - bar0::COMMON, len, val) {
                    Ok(Some(CfgEvent::QueueEnabled(n))) => {
                        let negotiated = self.common.negotiation.negotiated();
                        let regs = self.common.queue(n);
                        self.rings[n as usize] = Some(if negotiated & feature::RING_PACKED != 0 {
                            DeviceRing::packed(regs.desc, regs.size, n)
                        } else {
                            DeviceRing::split(
                                regs.layout(),
                                negotiated & feature::RING_EVENT_IDX != 0,
                                negotiated & feature::RING_INDIRECT_DESC != 0,
                                n,
                            )
                        });
                        Some(MmioEvent::QueueEnabled(n))
                    }
                    Ok(Some(CfgEvent::Reset)) => {
                        self.rings.fill(None);
                        Some(MmioEvent::Reset)
                    }
                    Ok(Some(CfgEvent::StatusWrite(_))) | Ok(None) => None,
                    Err(_) => None, // driver observes failure via status read-back
                }
            }
            o if (bar0::NOTIFY..bar0::ISR).contains(&o) => {
                let queue = ((o - bar0::NOTIFY) / bar0::NOTIFY_MULTIPLIER as u64) as u16;
                self.stats.notifications += 1;
                Some(MmioEvent::Notify(queue))
            }
            o if (bar0::MSIX_TABLE..bar0::MSIX_PBA).contains(&o) => {
                self.msix_table_write(o - bar0::MSIX_TABLE, val as u32);
                None
            }
            _ => None,
        }
    }

    fn msix_table_write(&mut self, off: u64, val: u32) {
        let vec = (off / 16) as usize;
        if vec >= self.msix.len() {
            return;
        }
        // Shadow the entry fields; the vector-control write (offset 12)
        // applies the accumulated address/data and mask state.
        let field = off % 16;
        match field {
            0 => self.msix_scratch(vec).0 = (self.msix_scratch(vec).0 & !0xFFFF_FFFF) | val as u64,
            4 => {
                self.msix_scratch(vec).0 =
                    (self.msix_scratch(vec).0 & 0xFFFF_FFFF) | ((val as u64) << 32)
            }
            8 => self.msix_scratch(vec).1 = val,
            12 => {
                let (addr, data) = *self.msix_scratch(vec);
                if val & 1 == 0 {
                    self.msix.program(vec, addr, data);
                } else {
                    let _ = self.msix.set_mask(vec, true);
                }
            }
            _ => {}
        }
    }

    fn msix_scratch(&mut self, vec: usize) -> &mut (u64, u32) {
        if self.msix_shadow.len() <= vec {
            self.msix_shadow.resize(vec + 1, (0, 0));
        }
        &mut self.msix_shadow[vec]
    }

    /// Host enables MSI-X (capability message-control write).
    pub fn msix_enable(&mut self) {
        self.msix.enabled = true;
    }

    /// Process a doorbell on the TX queue (net/console): walk the newly
    /// published chains, fetch each chain's data via timed DMA reads,
    /// stage it in BRAM, complete the used entries, then run user logic
    /// per frame. The ring layout only changes where the walker reads
    /// and writes (see [`DeviceRing`]).
    ///
    /// The `h2c` counter runs from doorbell arrival to the last used
    /// write; the `processing` counter covers user logic (deducted per
    /// §IV-B).
    pub fn process_tx_notify(
        &mut self,
        arrival: Time,
        tx_queue: u16,
        mem: &mut HostMemory,
        link: &mut PcieLink,
    ) -> TxOutcome {
        let Some(desc_trace) = self.open_queue(tx_queue, link) else {
            return TxOutcome {
                done_at: arrival,
                ..TxOutcome::default()
            };
        };
        let csum_feature = matches!(self.persona, Persona::Net { .. })
            && self.features() & net::feature::CSUM != 0;
        // E20: with more than one non-posted read allowed on the tag,
        // the pipelined walker overlaps descriptor fetches with payload
        // DMA. The serial walker's schedule at depth 1 is the one the
        // determinism goldens pin, so both walkers stay.
        let pipelined = link.cfg.max_outstanding_np > 1;
        self.counters.h2c.start(arrival);
        vf_trace::instant(
            vf_trace::Layer::Device,
            "notify",
            arrival,
            tx_queue as u64,
            0,
        );
        let t = arrival + self.timing.notify_decode;
        let t = self.prologue(tx_queue, t, pipelined, Some(desc_trace), mem, link);
        let mut outcome = TxOutcome {
            responses: std::mem::take(&mut self.tx_scratch.responses),
            ..TxOutcome::default()
        };
        let mut t = if pipelined {
            self.tx_walk_pipelined(t, tx_queue, desc_trace, mem, link, &mut outcome)
        } else {
            self.tx_walk_serial(t, tx_queue, mem, link, &mut outcome)
        };
        self.counters.h2c.stop(t);

        t = self.user_logic_pass(t, csum_feature, &mut outcome);
        outcome.done_at = t;
        outcome
    }

    /// Take back a delivered [`TxOutcome`]: its response list and frame
    /// buffers serve the next doorbells instead of fresh allocations.
    pub fn recycle_tx(&mut self, mut outcome: TxOutcome) {
        let scratch = &mut self.tx_scratch;
        scratch
            .frames
            .extend(outcome.responses.drain(..).map(|r| r.data));
        scratch.responses = outcome.responses;
    }

    /// Serial TX walker: each chain's descriptor fetch, payload DMA and
    /// used write-back in turn. Returns when the last used write is on
    /// the wire; the frames are staged in the scratch.
    fn tx_walk_serial(
        &mut self,
        mut t: Time,
        tx_queue: u16,
        mem: &mut HostMemory,
        link: &mut PcieLink,
        outcome: &mut TxOutcome,
    ) -> Time {
        while let Some((chain, parsed)) =
            self.take_chain(tx_queue, t, true, Self::stageable, mem, link)
        {
            t = self.stage_payload(&chain, parsed, false, mem, link);
            // TX completion interrupt: normally suppressed by the
            // driver's parked used_event, never raised on packed TX.
            let irq_at;
            (t, irq_at) = self.complete_chain(tx_queue, chain, 0, t, mem, link);
            outcome.tx_irq_at = irq_at.or(outcome.tx_irq_at);
            outcome.chains += 1;
            self.stats.tx_chains += 1;
        }
        t
    }

    /// Pipelined TX walker (E20): taken when the link grants the DMA
    /// tag more than one outstanding non-posted read. Instead of sitting
    /// out a full descriptor-fetch round trip before touching a chain's
    /// payload, the walker keeps a prefetch cursor up to
    /// `max_outstanding_np` chains ahead of the completion cursor — the
    /// descriptor burst of chain *k+1* is on the wire while chain *k*'s
    /// payload is still streaming back, and every read goes through the
    /// tag's shared [`PcieLink::dma_read_np`] window so the link model
    /// enforces the depth. Used-ring writes stay strictly ordered posted
    /// writes: reordering those would let the driver observe a used
    /// index covering an entry that has not landed (see DESIGN.md).
    fn tx_walk_pipelined(
        &mut self,
        mut t: Time,
        tx_queue: u16,
        desc_trace: &'static str,
        mem: &mut HostMemory,
        link: &mut PcieLink,
        outcome: &mut TxOutcome,
    ) -> Time {
        let timing = self.timing;
        // Take every published chain up front (the split avail entries
        // just fetched name them all); DMA timing happens below.
        let mut chains = std::mem::take(&mut self.tx_scratch.chains);
        while let Some((chain, _)) = self.take_chain(tx_queue, t, false, Self::stageable, mem, link)
        {
            chains.push_back(chain);
        }

        let depth = link.cfg.max_outstanding_np;
        let n = chains.len();
        let mut desc_done = std::mem::take(&mut self.tx_scratch.desc_done);
        desc_done.clear();
        desc_done.resize(n, Time::ZERO);
        let mut prefetched = 0usize;
        let mut issue_t = t;
        let mut last_write = t;
        for k in 0..n {
            // Prefetch descriptor bursts up to `depth` chains ahead of
            // the chain being completed, which is at the queue's front.
            while prefetched < n && prefetched < k + depth {
                let chain = &chains[prefetched - k];
                issue_t += timing.fsm_step;
                desc_done[prefetched] =
                    link.dma_read_np(issue_t, chain.desc_read.0, chain.desc_read.1);
                self.stats.desc_reads += 1;
                vf_trace::instant(
                    vf_trace::Layer::Device,
                    desc_trace,
                    desc_done[prefetched],
                    chain.fetches as u64,
                    0,
                );
                prefetched += 1;
            }
            if vf_metrics::is_enabled() {
                let d = (prefetched - k) as u64;
                let m = self.walker_depth(tx_queue);
                vf_metrics::batch(|b| {
                    b.gauge_set(&m.level, d as i64);
                    b.hist_record(&m.hist, d);
                });
            }
            let Some(chain) = chains.pop_front() else {
                break;
            };
            // Payload DMA starts once this chain's descriptors are
            // parsed and the (single) payload datapath is free.
            let ct = (desc_done[k] + timing.per_desc * chain.fetches as u64).max(t);
            let ct = self.stage_payload(&chain, ct, true, mem, link);
            // Used write-back: posted, fire-and-forget — the walker
            // moves on while it drains, but the writes stay ordered
            // against each other on the tag.
            let (w, irq_at) = self.complete_chain(tx_queue, chain, 0, ct, mem, link);
            outcome.tx_irq_at = irq_at.or(outcome.tx_irq_at);
            last_write = last_write.max(w);
            outcome.chains += 1;
            self.stats.tx_chains += 1;
            t = ct;
        }
        self.tx_scratch.chains = chains;
        self.tx_scratch.desc_done = desc_done;
        // The notify is done when the last used write is visible.
        t = t.max(last_write);
        self.stats.walker_peak_inflight = self
            .stats
            .walker_peak_inflight
            .max(link.np_peak_in_flight() as u64);
        if n > 0 && vf_metrics::is_enabled() {
            self.walker_depth(tx_queue).level.set(0);
        }
        t
    }

    /// Point the DMA engine at `queue`'s tag context for a doorbell's
    /// walk, and return the name the queue's descriptor reads trace
    /// under. A doorbell to a queue the driver never enabled is ignored
    /// and counted in `stray_notifies`: `None`, no walk.
    fn open_queue(&mut self, queue: u16, link: &mut PcieLink) -> Option<&'static str> {
        let Some(ring) = ring(&mut self.rings, queue) else {
            self.stats.stray_notifies += 1;
            return None;
        };
        let desc_trace = ring.desc_trace();
        link.select_dma_context(queue as usize);
        Some(desc_trace)
    }

    /// Issue `queue`'s walker prologue read (see [`DeviceRing::prologue`])
    /// from `t`, through the tag's non-posted window when `np`, recording
    /// an instant under `trace` if given. Split reads the avail index and
    /// the new ring entries in one burst — idx and entries are
    /// contiguous, so the RTL fetches one beat-aligned block instead of
    /// issuing per-field reads. Packed reads nothing: the descriptors
    /// carry their own availability. Returns the instant the walk may
    /// take its first chain.
    fn prologue(
        &mut self,
        queue: u16,
        mut t: Time,
        np: bool,
        trace: Option<&'static str>,
        mem: &HostMemory,
        link: &mut PcieLink,
    ) -> Time {
        let Some(ring) = ring(&mut self.rings, queue) else {
            return t;
        };
        if let Some((addr, len)) = ring.prologue(mem, false) {
            t = dma_read(link, np, t, addr, len);
            self.stats.desc_reads += 1;
            if let Some(name) = trace {
                vf_trace::instant(vf_trace::Layer::Device, name, t, 0, 0);
            }
        }
        t
    }

    /// Take the next chain of `queue`'s walk from `t` and, when `fetch`,
    /// read its descriptors: the driver allocates chains contiguously, so
    /// the controller fetches the whole chain in one read (the table
    /// location plus the chain-length hint). Returns the chain and the
    /// instant its descriptors are parsed.
    ///
    /// `None` ends the walk: the ring is drained, or it holds a chain
    /// the ring cannot resolve ([`vf_virtio::ChainError`]) or one the
    /// walker cannot serve (`fits` says no). The device then cannot serve the queue, so
    /// it sets `DEVICE_NEEDS_RESET` and sends the configuration-change
    /// interrupt, if the driver programmed a config vector (VirtIO 1.2
    /// §2.1.2). That chain gets no completion.
    fn take_chain(
        &mut self,
        queue: u16,
        mut t: Time,
        fetch: bool,
        fits: impl Fn(&Self, &RingChain) -> bool,
        mem: &HostMemory,
        link: &mut PcieLink,
    ) -> Option<(RingChain, Time)> {
        let ring = ring(&mut self.rings, queue)?;
        let desc_trace = ring.desc_trace();
        let chain = match ring.next_chain(mem) {
            Ok(Some(chain)) if fits(self, &chain) => chain,
            Ok(None) => return None,
            _ => {
                if let Persona::Block { .. } = self.persona {
                    self.stats.blk_errors += 1;
                }
                self.common.negotiation.need_reset();
                let vector = self.common.config_msix_vector as usize;
                if vector < self.msix.len() && self.msix.fire(vector).is_some() {
                    link.msix_write(t);
                    self.stats.irqs_sent += 1;
                }
                return None;
            }
        };
        if fetch {
            t = link.dma_read(t, chain.desc_read.0, chain.desc_read.1);
            self.stats.desc_reads += 1;
            vf_trace::instant(
                vf_trace::Layer::Device,
                desc_trace,
                t,
                chain.fetches as u64,
                0,
            );
        }
        let parsed = t + self.timing.per_desc * chain.fetches as u64;
        Some((chain, parsed))
    }

    /// Whether a TX chain's frame fits the staging memory.
    fn stageable(&self, chain: &RingChain) -> bool {
        chain.readable_len() <= self.staging.len()
    }

    /// `queue`'s walker-depth instruments, building every queue's on
    /// first use. Handles register on their first update, not when
    /// built, so building late moves no report byte.
    fn walker_depth(&mut self, queue: u16) -> &WalkerDepth {
        if self.walker_depth.is_empty() {
            self.walker_depth = (0..self.rings.len() as u32).map(WalkerDepth::new).collect();
        }
        &self.walker_depth[queue as usize]
    }

    /// Payload DMA: read `chain`'s readable buffers into the staging
    /// memory, merging physically adjacent buffers into single bursts
    /// (virtio-net lays the header immediately before the frame). `np`
    /// issues the bursts through the tag's non-posted window. Queues the
    /// staged frame in the scratch and returns the instant it is in
    /// staging memory.
    fn stage_payload(
        &mut self,
        chain: &RingChain,
        mut t: Time,
        np: bool,
        mem: &HostMemory,
        link: &mut PcieLink,
    ) -> Time {
        let mut data = self.tx_scratch.frames.pop().unwrap_or_default();
        data.clear();
        data.reserve(chain.readable_len());
        let mut burst: Option<(u64, usize)> = None;
        for buf in chain.bufs.iter().filter(|b| !b.writable) {
            data.extend_from_slice(mem.slice(buf.addr, buf.len as usize));
            match &mut burst {
                Some((start, len)) if *start + *len as u64 == buf.addr => {
                    *len += buf.len as usize;
                }
                _ => {
                    if let Some((addr, len)) = burst.replace((buf.addr, buf.len as usize)) {
                        t = dma_read(link, np, t, addr, len);
                    }
                }
            }
        }
        if let Some((addr, len)) = burst {
            t = dma_read(link, np, t, addr, len);
        }
        CardMemory::write(&mut self.staging, 0, &data);
        t += self.staging.access_time(data.len());
        let staged = split_hdr(data, self.persona.hdr_len());
        self.tx_scratch.staged.push(staged);
        t
    }

    /// Publish `chain`'s completion on `queue` from `t` and hand its
    /// buffer list back to the ring: the used write-back as posted DMA,
    /// then the queue's MSI-X vector if the ring asks for an interrupt.
    /// Returns the instant the write-back is on the wire and the
    /// interrupt's arrival, if one fired.
    fn complete_chain(
        &mut self,
        queue: u16,
        chain: RingChain,
        written: u32,
        mut t: Time,
        mem: &mut HostMemory,
        link: &mut PcieLink,
    ) -> (Time, Option<Time>) {
        let Some(ring) = ring(&mut self.rings, queue) else {
            return (t, None);
        };
        let used = ring.complete(mem, &chain, written);
        ring.recycle(chain);
        for &(addr, len) in used.writes() {
            t = link.dma_write(t, addr, len);
        }
        let mut irq_at = None;
        if used.irq && self.msix.fire(queue as usize).is_some() {
            irq_at = Some(link.msix_write(t));
            self.stats.irqs_sent += 1;
        }
        (t, irq_at)
    }

    /// User logic pass over staged TX frames (measured separately by the
    /// `processing` counter and deducted by the harness per §IV-B).
    /// Ring layout is invisible past the staging BRAM.
    fn user_logic_pass(
        &mut self,
        mut t: Time,
        csum_feature: bool,
        outcome: &mut TxOutcome,
    ) -> Time {
        let scratch = &mut self.tx_scratch;
        for (mut frame, hdr) in scratch.staged.drain(..) {
            let proc_start = t;
            self.counters.processing.start(proc_start);
            let mut csum_valid = false;
            if let Some(h) = hdr {
                if h.flags & HDR_F_NEEDS_CSUM != 0 && csum_feature {
                    // Checksum offload engine: compute the UDP checksum
                    // with the IPv4 pseudo-header, patch it in.
                    let cs = h.csum_start as usize;
                    let co = h.csum_offset as usize;
                    if cs + co + 2 <= frame.len() && cs >= 34 {
                        let mut pseudo = 0u32;
                        for chunk in frame[26..34].chunks(2) {
                            pseudo += u16::from_be_bytes([chunk[0], chunk[1]]) as u32;
                        }
                        pseudo += 17; // UDP
                        pseudo += (frame.len() - cs) as u32;
                        frame[cs + co] = 0;
                        frame[cs + co + 1] = 0;
                        let sum = internet_checksum(&frame[cs..], pseudo);
                        let sum = if sum == 0 { 0xFFFF } else { sum };
                        frame[cs + co..cs + co + 2].copy_from_slice(&sum.to_be_bytes());
                        t += FPGA_CYCLE * (frame.len() - cs).div_ceil(8) as u64;
                        self.stats.csum_offloads += 1;
                        csum_valid = true;
                    }
                }
            }
            let result = self.logic.on_frame(&mut frame);
            t += FPGA_CYCLE * result.cycles;
            let _ = self.counters.processing.stop(t);
            if result.respond {
                outcome.responses.push(PendingResponse {
                    data: frame,
                    ready_at: t,
                    csum_valid,
                });
            } else {
                scratch.frames.push(frame);
            }
        }
        t
    }

    /// Deliver one response into the RX queue: find a posted RX buffer,
    /// DMA-write header+data, complete, and interrupt.
    ///
    /// The split ring answers "is a buffer posted?" with an avail-index
    /// read and "where?" with a descriptor-table fetch; the packed ring
    /// answers both with one 16-byte descriptor read (E17).
    ///
    /// A frame that does not fit the posted buffer is dropped and the
    /// buffer stays posted, as on a NIC without `MRG_RXBUF`; a chain
    /// with a device-readable buffer raises `DEVICE_NEEDS_RESET`.
    ///
    /// The `c2h` counter runs from `ready_at` to the MSI-X write hitting
    /// the wire.
    pub fn deliver_response(
        &mut self,
        ready_at: Time,
        rx_queue: u16,
        response: &PendingResponse,
        mem: &mut HostMemory,
        link: &mut PcieLink,
    ) -> RxOutcome {
        link.select_dma_context(rx_queue as usize);
        let hdr_len = self.persona.hdr_len();
        let guest_csum = matches!(self.persona, Persona::Net { .. })
            && self.features() & net::feature::GUEST_CSUM != 0;
        let timing = self.timing;

        self.counters.c2h.start(ready_at);
        let mut t = ready_at + timing.fsm_step;

        let mut packed = false;
        if let Some(rx_ring) = ring(&mut self.rings, rx_queue) {
            packed = rx_ring.is_packed();
            let desc_trace = rx_ring.desc_trace();
            if let Some((addr, len)) = rx_ring.prologue(mem, true) {
                t = link.dma_read(t, addr, len);
                self.stats.desc_reads += 1;
                if packed {
                    // The packed prologue *is* the descriptor fetch.
                    vf_trace::instant(vf_trace::Layer::Device, desc_trace, t, 1, 0);
                }
            }
        }
        let writable = |_: &Self, c: &RingChain| c.bufs.iter().all(|b| b.writable);
        let total = hdr_len + response.data.len();
        // Header + data go into the chain's first buffer.
        let (chain, mut t) = match self.take_chain(rx_queue, t, !packed, writable, mem, link) {
            Some((chain, parsed)) if total <= chain.bufs[0].len as usize => (chain, parsed),
            taken => {
                if let Some((chain, parsed)) = taken {
                    t = parsed;
                    if let Some(rx_ring) = ring(&mut self.rings, rx_queue) {
                        rx_ring.requeue(chain);
                    }
                }
                self.stats.rx_dropped += 1;
                let _ = self.counters.c2h.stop(t);
                return RxOutcome {
                    irq_at: None,
                    done_at: t,
                    delivered: false,
                };
            }
        };
        let buf = chain.bufs[0];
        if hdr_len > 0 {
            let hdr = VirtioNetHdr {
                flags: if response.csum_valid || guest_csum {
                    HDR_F_DATA_VALID
                } else {
                    0
                },
                num_buffers: 1,
                ..Default::default()
            };
            hdr.write_to(mem, buf.addr);
        }
        GuestMemory::write(mem, buf.addr + hdr_len as u64, &response.data);
        t += self.staging.access_time(response.data.len());
        t = link.dma_write(t, buf.addr, total);

        // Used write-back, then the interrupt.
        let irq_at;
        (t, irq_at) = self.complete_chain(rx_queue, chain, total as u32, t, mem, link);
        if let Some(at) = irq_at {
            t = at;
        }
        let _ = self.counters.c2h.stop(t);
        self.stats.rx_frames += 1;
        RxOutcome {
            irq_at,
            done_at: t,
            delivered: true,
        }
    }

    /// Process a doorbell on a block-device request queue: parse each
    /// request chain, execute it against the persona's disk, write data +
    /// status back, complete, and interrupt.
    ///
    /// Unlike the net RX path this returns one completion record per
    /// serviced request — the walker is a serial FSM, but a queue-depth-N
    /// driver has N requests outstanding and needs each one's completion
    /// instant, not just the pass's last interrupt. Malformed chains do
    /// not crash the walker: an unknown request type is completed with
    /// `UNSUPP` in its status footer, a structurally broken chain is
    /// completed with zero bytes, and a corrupt ring stops the pass with
    /// `DEVICE_NEEDS_RESET` (`blk_errors` counts all three).
    pub fn process_block_notify(
        &mut self,
        arrival: Time,
        queue: u16,
        mem: &mut HostMemory,
        link: &mut PcieLink,
    ) -> BlkOutcome {
        let mut outcome = BlkOutcome {
            done_at: arrival,
            ..BlkOutcome::default()
        };
        if self.open_queue(queue, link).is_none() {
            return outcome;
        }
        let timing = self.timing;
        // One burst covers the avail index and every new ring entry,
        // instead of a per-request 2-byte ring read.
        let mut t = self.prologue(
            queue,
            arrival + timing.notify_decode,
            false,
            None,
            mem,
            link,
        );
        while let Some((chain, parsed)) = self.take_chain(queue, t, true, |_, _| true, mem, link) {
            // H2C phase: header read + request data movement (reads for
            // OUT payloads, writes for IN fills).
            self.counters.h2c.start(parsed);
            t = link.dma_read(parsed, chain.bufs[0].addr, 16);
            let Persona::Block { disk, .. } = &mut self.persona else {
                panic!("block notify on a non-block persona");
            };
            let (status, written) = match BlkRequest::parse(mem, &chain.bufs) {
                Ok(req) => {
                    let mut bytes = 0usize;
                    for &(addr, len, writable) in &req.data {
                        if writable {
                            t = link.dma_write(t, addr, len as usize);
                        } else {
                            t = link.dma_read(t, addr, len as usize);
                        }
                        bytes += len as usize;
                    }
                    let _ = self.counters.h2c.stop(t);
                    // Media service: the staging store pays its access
                    // time for the payload, measured as processing so
                    // the harness can deduct it like user logic.
                    self.counters.processing.start(t);
                    t += timing.fsm_step + self.staging.access_time(bytes);
                    let (status, written) = disk.execute(mem, &req);
                    let _ = self.counters.processing.stop(t);
                    vf_trace::instant(
                        vf_trace::Layer::Device,
                        "blk_req",
                        t,
                        req.sector,
                        bytes as u64,
                    );
                    self.counters.c2h.start(t);
                    t = link.dma_write(t, req.status_addr, 1);
                    (status, written)
                }
                Err(e) => {
                    let _ = self.counters.h2c.stop(t);
                    self.stats.blk_errors += 1;
                    self.counters.c2h.start(t);
                    if let BlkParseError::UnknownType(_) = e {
                        // Header and status footer were validated before
                        // the type check, so an unknown type still has a
                        // status slot to report UNSUPP into.
                        let status_addr = chain.bufs.last().expect("len >= 2").addr;
                        GuestMemory::write(mem, status_addr, &[blk_status::UNSUPP]);
                        t = link.dma_write(t, status_addr, 1);
                        (blk_status::UNSUPP, 1)
                    } else {
                        // Structurally broken chain: no status slot the
                        // device can trust; complete with zero bytes.
                        (blk_status::IOERR, 0)
                    }
                }
            };
            self.stats.blk_requests += 1;
            let head = chain.id;
            let irq_at;
            (t, irq_at) = self.complete_chain(queue, chain, written, t, mem, link);
            let done_at = t;
            if let Some(at) = irq_at {
                t = at;
            }
            let _ = self.counters.c2h.stop(t);
            outcome.completions.push(BlkCompletion {
                head,
                status,
                done_at,
                irq_at,
            });
        }
        outcome.done_at = t;
        outcome
    }

    /// Queue pairs the flow-steering walker currently spreads RX
    /// traffic over (1 until the driver raises it via the ctrl vq).
    pub fn active_queue_pairs(&self) -> u16 {
        self.active_pairs
    }

    /// The programmed RSS indirection table, if the driver sent
    /// `MQ_RSS_CONFIG` (None → modulo fallback steering).
    pub fn rss_indirection(&self) -> Option<&[u16]> {
        self.rss_table.as_deref()
    }

    /// Process a doorbell on the net control virtqueue: walk each
    /// pending chain, decode the `{class, command, data..., ack}`
    /// layout, apply `MQ_VQ_PAIRS_SET`, and write the ack byte back.
    /// Unknown or malformed commands ack `ERR` (VirtIO 1.2 §5.1.6.5); a
    /// chain that does not end in a device-writable ack buffer raises
    /// `DEVICE_NEEDS_RESET`.
    pub fn process_ctrl_notify(
        &mut self,
        arrival: Time,
        queue: u16,
        mem: &mut HostMemory,
        link: &mut PcieLink,
    ) -> RxOutcome {
        let max_pairs = match &self.persona {
            Persona::Net { cfg } => cfg.max_virtqueue_pairs,
            _ => panic!("ctrl notify on a non-net persona"),
        };
        let mut outcome = RxOutcome {
            irq_at: None,
            done_at: arrival,
            delivered: false,
        };
        if self.open_queue(queue, link).is_none() {
            return outcome;
        }
        let mut t = self.prologue(
            queue,
            arrival + self.timing.notify_decode,
            false,
            None,
            mem,
            link,
        );
        let acked = |_: &Self, c: &RingChain| c.bufs.last().is_some_and(|b| b.writable);
        let mut actions = Vec::new();
        while let Some((chain, parsed)) = self.take_chain(queue, t, true, acked, mem, link) {
            t = parsed;
            // Gather the readable command bytes: class, command, data.
            let mut cmd = Vec::new();
            for buf in chain.bufs.iter().filter(|b| !b.writable) {
                cmd.extend_from_slice(mem.slice(buf.addr, buf.len as usize));
                t = link.dma_read(t, buf.addr, buf.len as usize);
            }
            let ack = chain.bufs[chain.bufs.len() - 1].addr;
            let (status, action) = decode_ctrl_command(&cmd, max_pairs);
            actions.extend(action);
            GuestMemory::write(mem, ack, &[status]);
            t = link.dma_write(t, ack, 1);
            self.stats.ctrl_commands += 1;
            let irq;
            (t, irq) = self.complete_chain(queue, chain, 1, t, mem, link);
            outcome.irq_at = irq.or(outcome.irq_at);
            outcome.delivered = true;
        }
        for action in actions {
            self.apply_ctrl_action(action);
        }
        outcome.done_at = t;
        outcome
    }

    /// Apply a decoded control command to device steering state (after
    /// the batch's acks are written, as the split path always did).
    fn apply_ctrl_action(&mut self, action: CtrlAction) {
        match action {
            CtrlAction::SetPairs(p) => self.active_pairs = p,
            CtrlAction::SetRss { table, key } => {
                self.rss_table = Some(table);
                self.rss_key = key;
            }
        }
    }

    /// RSS flow steering: map the response frame's UDP destination port
    /// to a queue pair and return the RX queue index (`2 * pair`) the
    /// frame belongs on.
    ///
    /// With an indirection table programmed (`MQ_RSS_CONFIG`), this is
    /// the `VIRTIO_NET_F_RSS` datapath: Toeplitz-hash the 2-byte
    /// big-endian port with the programmed key, mask into the table,
    /// and read the pair out of the entry. Without one, it falls back
    /// to `dst_port % pairs` — the pre-RSS behaviour E19's goldens were
    /// derived against. The testbed host programs the table so flow *i*
    /// lands on pair *i* (the flow ports hash collision-free, see
    /// `vf_virtio::net::toeplitz_hash` tests), so each simulated host
    /// core still services exactly one queue.
    pub fn rss_steer(&self, frame: &[u8]) -> u16 {
        let pairs = self.active_pairs.max(1);
        // Ethernet(14) + IPv4(20) + UDP dst port at bytes 36..38.
        if pairs == 1 || frame.len() < 38 {
            return net::RX_QUEUE;
        }
        let port = [frame[36], frame[37]];
        if let Some(table) = &self.rss_table {
            let hash = net::toeplitz_hash(&self.rss_key, &port);
            let pair = table[hash as usize & (table.len() - 1)] % pairs;
            return net::rx_queue_of_pair(pair);
        }
        let dst_port = u16::from_be_bytes(port);
        net::rx_queue_of_pair(dst_port % pairs)
    }

    /// Driver-bypass DMA read (§III-A): user logic pulls `len` bytes from
    /// host memory without any virtqueue involvement. Returns the data
    /// and the completion instant.
    pub fn bypass_read(
        &mut self,
        now: Time,
        addr: u64,
        len: usize,
        mem: &HostMemory,
        link: &mut PcieLink,
    ) -> (Vec<u8>, Time) {
        let t = link.dma_read(now + self.timing.fsm_step, addr, len);
        (
            mem.slice(addr, len).to_vec(),
            t + self.staging.access_time(len),
        )
    }

    /// Driver-bypass DMA write: user logic pushes data into host memory.
    pub fn bypass_write(
        &mut self,
        now: Time,
        addr: u64,
        data: &[u8],
        mem: &mut HostMemory,
        link: &mut PcieLink,
    ) -> Time {
        let t = link.dma_write(
            now + self.timing.fsm_step + self.staging.access_time(data.len()),
            addr,
            data.len(),
        );
        GuestMemory::write(mem, addr, data);
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vf_pcie::{enumerate, LinkConfig, MmioAllocator, MSI_ADDR_BASE};
    use vf_sim::Time;
    use vf_virtio::driver_queue::{BufferSpec, DriverQueue};
    use vf_virtio::packed::{PackedDesc, PackedDriverQueue};
    use vf_virtio::pci::common;
    use vf_virtio::ring::VirtqueueLayout;
    use vf_virtio::status;
    use vf_virtio::DriverRing;

    use crate::user_logic::UdpEcho;

    fn net_device() -> VirtioFpgaDevice {
        VirtioFpgaDevice::new(
            Persona::Net {
                cfg: VirtioNetConfig::testbed_default(),
            },
            net::feature::MAC | net::feature::CSUM | net::feature::STATUS,
            &[256, 256],
            Box::new(UdpEcho::default()),
        )
    }

    /// The driver half of VirtIO 1.2 §3.1.1 in its shortest form, for
    /// tests that need a live device: reset, accept
    /// `features | VERSION_1` without reading the offer, program each
    /// `(queue, layout)` with MSI-X vector = queue index, DRIVER_OK. The
    /// full probe, which reads the offer, is `vf_hostsw::virtio_pci`.
    fn go_live(dev: &mut VirtioFpgaDevice, features: u64, queues: &[(u16, VirtqueueLayout)]) {
        use common as c;
        use status::{ACKNOWLEDGE, DRIVER, DRIVER_OK, FEATURES_OK};
        for st in [0, ACKNOWLEDGE, ACKNOWLEDGE | DRIVER] {
            dev.common_write(c::DEVICE_STATUS, 1, st as u64);
        }
        let accept = features | feature::VERSION_1;
        dev.common_write(c::DRIVER_FEATURE_SELECT, 4, 0);
        dev.common_write(c::DRIVER_FEATURE, 4, accept & 0xFFFF_FFFF);
        dev.common_write(c::DRIVER_FEATURE_SELECT, 4, 1);
        dev.common_write(c::DRIVER_FEATURE, 4, accept >> 32);
        let st = ACKNOWLEDGE | DRIVER | FEATURES_OK;
        dev.common_write(c::DEVICE_STATUS, 1, st as u64);
        assert!(dev.common_read(c::DEVICE_STATUS, 1) as u8 & FEATURES_OK != 0);
        for &(queue, layout) in queues {
            dev.common_write(c::QUEUE_SELECT, 2, queue as u64);
            dev.common_write(c::QUEUE_SIZE, 2, layout.size as u64);
            dev.common_write(c::QUEUE_MSIX_VECTOR, 2, queue as u64);
            dev.common_write(c::QUEUE_DESC_LO, 4, layout.desc);
            dev.common_write(c::QUEUE_DRIVER_LO, 4, layout.avail);
            dev.common_write(c::QUEUE_DEVICE_LO, 4, layout.used);
            let ev = dev.mmio_write(bar0::COMMON + c::QUEUE_ENABLE, 2, 1);
            assert_eq!(ev, Some(MmioEvent::QueueEnabled(queue)));
        }
        dev.common_write(c::DEVICE_STATUS, 1, (st | DRIVER_OK) as u64);
        assert!(dev.is_live());
    }

    /// Net bring-up through [`go_live`] plus MSI-X arming. `packed`
    /// negotiates the packed layout instead of split + EVENT_IDX.
    fn bring_up(
        dev: &mut VirtioFpgaDevice,
        mem: &mut HostMemory,
        queue_size: u16,
        packed: bool,
    ) -> (DriverRing, DriverRing) {
        let layout_bit = if packed {
            feature::RING_PACKED
        } else {
            feature::RING_EVENT_IDX
        };
        let rx = DriverRing::alloc(mem, queue_size, packed, true);
        let tx = DriverRing::alloc(mem, queue_size, packed, true);
        go_live(
            dev,
            layout_bit | net::feature::CSUM,
            &[(0, rx.areas()), (1, tx.areas())],
        );

        // MSI-X through the table MMIO.
        dev.msix_enable();
        for v in 0..2u64 {
            dev.mmio_write(bar0::MSIX_TABLE + v * 16, 4, MSI_ADDR_BASE);
            dev.mmio_write(bar0::MSIX_TABLE + v * 16 + 4, 4, 0);
            dev.mmio_write(bar0::MSIX_TABLE + v * 16 + 8, 4, 0x40 + v);
            dev.mmio_write(bar0::MSIX_TABLE + v * 16 + 12, 4, 0); // unmask
        }

        // TX interrupts are unwanted (virtio-net policy).
        tx.park_used_event(mem);
        (rx, tx)
    }

    /// A syntactically valid UDP/IPv4 frame.
    fn udp_frame(payload: usize) -> Vec<u8> {
        let mut f = vec![0u8; 42 + payload];
        f[12] = 0x08;
        f[14] = 0x45;
        f[23] = 17;
        f[26..30].copy_from_slice(&[10, 0, 0, 1]);
        f[30..34].copy_from_slice(&[10, 0, 0, 2]);
        f[36] = 0;
        f[37] = 7;
        f
    }

    #[test]
    fn config_space_has_all_virtio_caps() {
        let mut dev = net_device();
        let info = enumerate(&mut dev.config_space, &mut MmioAllocator::new());
        assert_eq!(info.vendor, VIRTIO_VENDOR_ID);
        assert_eq!(info.device, 0x1041);
        let caps = info.virtio_caps(&dev.config_space);
        assert_eq!(caps.len(), 4);
        assert_eq!(caps[1].notify_off_multiplier, Some(bar0::NOTIFY_MULTIPLIER));
    }

    #[test]
    fn notify_region_decodes_queue_index() {
        let mut dev = net_device();
        assert_eq!(
            dev.mmio_write(bar0::NOTIFY + 4, 2, 1),
            Some(MmioEvent::Notify(1))
        );
        assert_eq!(
            dev.mmio_write(bar0::NOTIFY, 2, 0),
            Some(MmioEvent::Notify(0))
        );
        assert_eq!(dev.stats.notifications, 2);
    }

    #[test]
    fn device_cfg_exposes_mac_and_mtu() {
        let mut dev = net_device();
        let mac_lo = dev.mmio_read(bar0::DEVICE_CFG, 4) as u32;
        assert_eq!(mac_lo.to_le_bytes()[0], 0x02);
        assert_eq!(dev.mmio_read(bar0::DEVICE_CFG + 10, 2), 1500);
    }

    /// Bring up only the ctrl virtqueue of an MQ net device.
    fn mq_ctrl_bring_up(
        dev: &mut VirtioFpgaDevice,
        mem: &mut HostMemory,
        pairs: u16,
    ) -> (DriverQueue, u16) {
        let ctrl_q = net::ctrl_queue_index(pairs);
        let base = mem.alloc(
            VirtqueueLayout::contiguous(0, 64).total_bytes() as usize,
            4096,
        );
        let layout = VirtqueueLayout::contiguous(base, 64);
        let features = feature::RING_EVENT_IDX | net::feature::CTRL_VQ | net::feature::MQ;
        go_live(dev, features, &[(ctrl_q, layout)]);
        (DriverQueue::new(mem, layout, true), ctrl_q)
    }

    #[allow(clippy::too_many_arguments)]
    fn ctrl_command(
        dev: &mut VirtioFpgaDevice,
        mem: &mut HostMemory,
        link: &mut PcieLink,
        ctrl: &mut DriverQueue,
        ctrl_q: u16,
        class: u8,
        cmd: u8,
        pairs: u16,
    ) -> u8 {
        let cmd_buf = mem.alloc(4, 16);
        let ack_buf = mem.alloc(1, 1);
        GuestMemory::write(mem, cmd_buf, &[class, cmd]);
        GuestMemory::write(mem, cmd_buf + 2, &pairs.to_le_bytes());
        GuestMemory::write(mem, ack_buf, &[0xAA]);
        ctrl.add_and_publish(
            mem,
            &[
                BufferSpec::readable(cmd_buf, 2),
                BufferSpec::readable(cmd_buf + 2, 2),
                BufferSpec::writable(ack_buf, 1),
            ],
        )
        .unwrap();
        dev.mmio_write(
            bar0::NOTIFY + ctrl_q as u64 * bar0::NOTIFY_MULTIPLIER as u64,
            2,
            ctrl_q as u64,
        );
        let out = dev.process_ctrl_notify(Time::ZERO, ctrl_q, mem, link);
        assert!(out.delivered);
        assert!(ctrl.pop_used(mem).is_some());
        mem.slice(ack_buf, 1)[0]
    }

    fn mq_net_device(pairs: u16) -> VirtioFpgaDevice {
        VirtioFpgaDevice::new(
            Persona::Net {
                cfg: VirtioNetConfig::with_queue_pairs(pairs),
            },
            net::feature::MAC | net::feature::STATUS | net::feature::CTRL_VQ | net::feature::MQ,
            &vec![64; 2 * pairs as usize + 1],
            Box::new(UdpEcho::default()),
        )
    }

    #[test]
    fn ctrl_vq_sets_active_queue_pairs() {
        let mut dev = mq_net_device(2);
        let mut mem = HostMemory::testbed_default();
        let mut link = PcieLink::new(LinkConfig::gen2_x2());
        let (mut ctrl, ctrl_q) = mq_ctrl_bring_up(&mut dev, &mut mem, 2);
        assert_eq!(dev.active_queue_pairs(), 1);
        let ack = ctrl_command(
            &mut dev,
            &mut mem,
            &mut link,
            &mut ctrl,
            ctrl_q,
            net::ctrl::CLASS_MQ,
            net::ctrl::MQ_VQ_PAIRS_SET,
            2,
        );
        assert_eq!(ack, net::ctrl::OK);
        assert_eq!(dev.active_queue_pairs(), 2);
        assert_eq!(dev.stats.ctrl_commands, 1);
    }

    #[test]
    fn ctrl_vq_rejects_out_of_range_and_unknown_commands() {
        let mut dev = mq_net_device(2);
        let mut mem = HostMemory::testbed_default();
        let mut link = PcieLink::new(LinkConfig::gen2_x2());
        let (mut ctrl, ctrl_q) = mq_ctrl_bring_up(&mut dev, &mut mem, 2);
        // More pairs than the device advertises.
        let ack = ctrl_command(
            &mut dev,
            &mut mem,
            &mut link,
            &mut ctrl,
            ctrl_q,
            net::ctrl::CLASS_MQ,
            net::ctrl::MQ_VQ_PAIRS_SET,
            5,
        );
        assert_eq!(ack, net::ctrl::ERR);
        assert_eq!(dev.active_queue_pairs(), 1);
        // Unknown class.
        let ack = ctrl_command(&mut dev, &mut mem, &mut link, &mut ctrl, ctrl_q, 0x7F, 0, 2);
        assert_eq!(ack, net::ctrl::ERR);
        assert_eq!(dev.active_queue_pairs(), 1);
        assert_eq!(dev.stats.ctrl_commands, 2);
    }

    #[test]
    fn rss_steering_pins_flows_to_pairs() {
        let mut dev = mq_net_device(4);
        // Single active pair: everything lands on receiveq1.
        let mut frame = udp_frame(32);
        frame[36..38].copy_from_slice(&40_001u16.to_be_bytes());
        assert_eq!(dev.rss_steer(&frame), net::RX_QUEUE);
        // Four active pairs: dst port selects the pair; the testbed's
        // 40_000-based flow ports map flow i to pair i.
        dev.active_pairs = 4;
        for flow in 0..4u16 {
            frame[36..38].copy_from_slice(&(40_000 + flow).to_be_bytes());
            assert_eq!(dev.rss_steer(&frame), net::rx_queue_of_pair(flow));
        }
        // Runt frames fall back to the first queue.
        assert_eq!(dev.rss_steer(&frame[..20]), net::RX_QUEUE);
    }

    /// Serialize an `MQ_RSS_CONFIG` command body.
    fn rss_command_bytes(table: &[u16], key: &[u8]) -> Vec<u8> {
        let mut cmd = vec![net::ctrl::CLASS_MQ, net::ctrl::MQ_RSS_CONFIG];
        cmd.extend_from_slice(&(table.len() as u16).to_le_bytes());
        for &e in table {
            cmd.extend_from_slice(&e.to_le_bytes());
        }
        cmd.push(key.len() as u8);
        cmd.extend_from_slice(key);
        cmd
    }

    /// Send an arbitrary ctrl command body; returns the ack byte.
    fn send_ctrl_raw(
        dev: &mut VirtioFpgaDevice,
        mem: &mut HostMemory,
        link: &mut PcieLink,
        ctrl: &mut DriverQueue,
        ctrl_q: u16,
        cmd: &[u8],
    ) -> u8 {
        let cmd_buf = mem.alloc(cmd.len(), 16);
        let ack_buf = mem.alloc(1, 1);
        GuestMemory::write(mem, cmd_buf, cmd);
        GuestMemory::write(mem, ack_buf, &[0xAA]);
        ctrl.add_and_publish(
            mem,
            &[
                BufferSpec::readable(cmd_buf, cmd.len() as u32),
                BufferSpec::writable(ack_buf, 1),
            ],
        )
        .unwrap();
        let out = dev.process_ctrl_notify(Time::ZERO, ctrl_q, mem, link);
        assert!(out.delivered);
        assert!(ctrl.pop_used(mem).is_some());
        mem.slice(ack_buf, 1)[0]
    }

    /// Indirection table pinning testbed flow `i` (dst port 40000+i) to
    /// queue pair `perm[i]`.
    fn pinned_table(perm: &[u16]) -> Vec<u16> {
        let mut table = vec![0u16; net::RSS_TABLE_LEN];
        for (flow, &pair) in perm.iter().enumerate() {
            let port = (40_000 + flow as u16).to_be_bytes();
            let slot = net::toeplitz_hash(&net::RSS_DEFAULT_KEY, &port) as usize
                & (net::RSS_TABLE_LEN - 1);
            table[slot] = pair;
        }
        table
    }

    #[test]
    fn rss_config_installs_toeplitz_steering() {
        let mut dev = mq_net_device(4);
        let mut mem = HostMemory::testbed_default();
        let mut link = PcieLink::new(LinkConfig::gen2_x2());
        let (mut ctrl, ctrl_q) = mq_ctrl_bring_up(&mut dev, &mut mem, 4);
        let ack = ctrl_command(
            &mut dev,
            &mut mem,
            &mut link,
            &mut ctrl,
            ctrl_q,
            net::ctrl::CLASS_MQ,
            net::ctrl::MQ_VQ_PAIRS_SET,
            4,
        );
        assert_eq!(ack, net::ctrl::OK);

        // Identity pinning: flow i → pair i, as the MQ host programs it.
        let table = pinned_table(&[0, 1, 2, 3]);
        let cmd = rss_command_bytes(&table, &net::RSS_DEFAULT_KEY);
        let ack = send_ctrl_raw(&mut dev, &mut mem, &mut link, &mut ctrl, ctrl_q, &cmd);
        assert_eq!(ack, net::ctrl::OK);
        assert!(dev.rss_indirection().is_some());
        let mut frame = udp_frame(32);
        for flow in 0..4u16 {
            frame[36..38].copy_from_slice(&(40_000 + flow).to_be_bytes());
            assert_eq!(dev.rss_steer(&frame), net::rx_queue_of_pair(flow));
        }

        // A permuted table really is consulted: reverse the pinning and
        // steering follows the table, not the modulo fallback.
        let cmd = rss_command_bytes(&pinned_table(&[3, 2, 1, 0]), &net::RSS_DEFAULT_KEY);
        assert_eq!(
            send_ctrl_raw(&mut dev, &mut mem, &mut link, &mut ctrl, ctrl_q, &cmd),
            net::ctrl::OK
        );
        for flow in 0..4u16 {
            frame[36..38].copy_from_slice(&(40_000 + flow).to_be_bytes());
            assert_eq!(dev.rss_steer(&frame), net::rx_queue_of_pair(3 - flow));
        }
    }

    #[test]
    fn rss_config_rejects_malformed_commands() {
        let mut dev = mq_net_device(4);
        let mut mem = HostMemory::testbed_default();
        let mut link = PcieLink::new(LinkConfig::gen2_x2());
        let (mut ctrl, ctrl_q) = mq_ctrl_bring_up(&mut dev, &mut mem, 4);
        let table = pinned_table(&[0, 1, 2, 3]);
        // Truncated key.
        let cmd = rss_command_bytes(&table, &net::RSS_DEFAULT_KEY[..8]);
        assert_eq!(
            send_ctrl_raw(&mut dev, &mut mem, &mut link, &mut ctrl, ctrl_q, &cmd),
            net::ctrl::ERR
        );
        assert!(dev.rss_indirection().is_none());
        // Table entry referencing a pair beyond the device maximum.
        let mut bad = table.clone();
        bad[0] = 9;
        let cmd = rss_command_bytes(&bad, &net::RSS_DEFAULT_KEY);
        assert_eq!(
            send_ctrl_raw(&mut dev, &mut mem, &mut link, &mut ctrl, ctrl_q, &cmd),
            net::ctrl::ERR
        );
        assert!(dev.rss_indirection().is_none());
        // Non-power-of-two table length (hash masking requires one).
        let cmd = rss_command_bytes(&table[..100], &net::RSS_DEFAULT_KEY);
        assert_eq!(
            send_ctrl_raw(&mut dev, &mut mem, &mut link, &mut ctrl, ctrl_q, &cmd),
            net::ctrl::ERR
        );
        assert!(dev.rss_indirection().is_none());
    }

    fn packed_ctrl_bring_up(
        dev: &mut VirtioFpgaDevice,
        mem: &mut HostMemory,
        pairs: u16,
    ) -> (PackedDriverQueue, u16) {
        let ctrl_q = net::ctrl_queue_index(pairs);
        let ring = mem.alloc(64 * PackedDesc::SIZE as usize, 4096);
        let features = feature::RING_PACKED | net::feature::CTRL_VQ | net::feature::MQ;
        let layout = VirtqueueLayout {
            desc: ring,
            avail: 0,
            used: 0,
            size: 64,
        };
        go_live(dev, features, &[(ctrl_q, layout)]);
        (PackedDriverQueue::new(ring, 64), ctrl_q)
    }

    #[test]
    fn packed_ctrl_vq_applies_commands() {
        let mut dev = mq_net_device(2);
        let mut mem = HostMemory::testbed_default();
        let mut link = PcieLink::new(LinkConfig::gen2_x2());
        let (mut ctrl, ctrl_q) = packed_ctrl_bring_up(&mut dev, &mut mem, 2);
        let cmd_buf = mem.alloc(4, 16);
        let ack_buf = mem.alloc(1, 1);
        GuestMemory::write(
            &mut mem,
            cmd_buf,
            &[net::ctrl::CLASS_MQ, net::ctrl::MQ_VQ_PAIRS_SET, 2, 0],
        );
        GuestMemory::write(&mut mem, ack_buf, &[0xAA]);
        ctrl.add(
            &mut mem,
            &[
                BufferSpec::readable(cmd_buf, 4),
                BufferSpec::writable(ack_buf, 1),
            ],
        )
        .unwrap();
        let out = dev.process_ctrl_notify(Time::ZERO, ctrl_q, &mut mem, &mut link);
        assert!(out.delivered);
        assert_eq!(mem.slice(ack_buf, 1)[0], net::ctrl::OK);
        assert_eq!(dev.active_queue_pairs(), 2);
        assert_eq!(dev.stats.ctrl_commands, 1);
        assert!(ctrl.pop_used(&mem).is_some());
    }

    /// Both ring layouts run every net walker test below.
    const LAYOUTS: [bool; 2] = [false, true];

    /// Publish one `hdr + frame` TX chain the way virtio-net lays it
    /// out.
    fn publish_tx(mem: &mut HostMemory, tx: &mut DriverRing, hdr: VirtioNetHdr, frame: &[u8]) {
        let hdr_buf = mem.alloc(12, 16);
        let data_buf = mem.alloc(frame.len(), 64);
        hdr.write_to(mem, hdr_buf);
        GuestMemory::write(mem, data_buf, frame);
        tx.publish(
            mem,
            &[
                BufferSpec::readable(hdr_buf, 12),
                BufferSpec::readable(data_buf, frame.len() as u32),
            ],
        )
        .unwrap();
    }

    /// The pipelined TX walker (split and packed) overlaps descriptor
    /// fetches with payload DMA, on the same descriptor-read count as
    /// the serial one.
    #[test]
    fn pipelined_split_walker_overlaps_descriptor_fetches() {
        let run = |np: usize, packed: bool| -> (Time, u64, u64) {
            let mut dev = net_device();
            let mut mem = HostMemory::testbed_default();
            let mut cfg = LinkConfig::gen2_x2();
            cfg.max_outstanding_np = np;
            let mut link = PcieLink::new(cfg);
            let (_rx, mut tx) = bring_up(&mut dev, &mut mem, 64, packed);
            for _ in 0..8 {
                let hdr = VirtioNetHdr {
                    num_buffers: 1,
                    ..Default::default()
                };
                publish_tx(&mut mem, &mut tx, hdr, &udp_frame(256));
            }
            let out = dev.process_tx_notify(Time::ZERO, 1, &mut mem, &mut link);
            assert_eq!(out.chains, 8);
            assert_eq!(out.responses.len(), 8);
            (
                out.done_at,
                dev.stats.desc_reads,
                dev.stats.walker_peak_inflight,
            )
        };
        for packed in LAYOUTS {
            let (serial, serial_reads, serial_peak) = run(1, packed);
            let (piped, piped_reads, piped_peak) = run(4, packed);
            assert!(
                piped < serial,
                "packed={packed}: pipelined TX walk ({piped}) must beat serial ({serial})"
            );
            // Identical descriptor-fetch counts: trace attribution reconciles.
            assert_eq!(piped_reads, serial_reads, "packed={packed}");
            assert_eq!(serial_peak, 0, "serial path must not touch the NP window");
            assert!(
                piped_peak > 1,
                "packed={packed}: walker never went deeper than 1"
            );
        }
    }

    #[test]
    fn echo_round_trip_through_rings() {
        for packed in LAYOUTS {
            let mut dev = net_device();
            let mut mem = HostMemory::testbed_default();
            let mut link = PcieLink::new(LinkConfig::gen2_x2());
            let (mut rx, mut tx) = bring_up(&mut dev, &mut mem, 64, packed);

            // Post one RX buffer.
            let rx_buf = mem.alloc(2048, 64);
            rx.publish(&mut mem, &[BufferSpec::writable(rx_buf, 2048)])
                .unwrap();

            // Driver transmits hdr + frame.
            let frame = udp_frame(64);
            let hdr = VirtioNetHdr {
                num_buffers: 1,
                ..Default::default()
            };
            publish_tx(&mut mem, &mut tx, hdr, &frame);

            // Doorbell → TX processing.
            let t0 = Time::from_us(100);
            let out = dev.process_tx_notify(t0, 1, &mut mem, &mut link);
            assert_eq!(out.chains, 1);
            assert_eq!(out.responses.len(), 1);
            assert!(out.done_at > t0);
            assert!(out.tx_irq_at.is_none(), "TX interrupt should be suppressed");
            assert_eq!(dev.counters.h2c.count(), 1);
            assert!(dev.counters.h2c.last > Time::ZERO);
            assert_eq!(dev.counters.processing.count(), 1);

            // Deliver the echo into the RX queue.
            let resp = out.responses[0].clone();
            let rxo = dev.deliver_response(resp.ready_at, 0, &resp, &mut mem, &mut link);
            assert!(rxo.delivered);
            let irq_at = rxo.irq_at.expect("RX interrupt must fire");
            assert!(irq_at > resp.ready_at);
            assert_eq!(dev.counters.c2h.count(), 1);

            // Driver sees the frame.
            let used = rx.pop_used(&mut mem).unwrap();
            assert_eq!(used.len as usize, 12 + frame.len());
            let got = GuestMemory::read_vec(&mem, rx_buf + 12, frame.len());
            // The echo swapped src/dst IPs.
            assert_eq!(&got[26..30], &[10, 0, 0, 2]);
            assert_eq!(&got[30..34], &[10, 0, 0, 1]);
        }
    }

    #[test]
    fn csum_offload_fills_udp_checksum() {
        for packed in LAYOUTS {
            let mut dev = net_device();
            let mut mem = HostMemory::testbed_default();
            let mut link = PcieLink::new(LinkConfig::gen2_x2());
            let (_rx, mut tx) = bring_up(&mut dev, &mut mem, 64, packed);

            let mut frame = udp_frame(32);
            // UDP length field must be valid for checksum math.
            let udp_len = (8 + 32u16).to_be_bytes();
            frame[38..40].copy_from_slice(&udp_len);
            let hdr = VirtioNetHdr {
                flags: HDR_F_NEEDS_CSUM,
                csum_start: 34,
                csum_offset: 6,
                num_buffers: 1,
                ..Default::default()
            };
            publish_tx(&mut mem, &mut tx, hdr, &frame);
            let out = dev.process_tx_notify(Time::ZERO, 1, &mut mem, &mut link);
            assert_eq!(dev.stats.csum_offloads, 1);
            let resp = &out.responses[0];
            assert!(resp.csum_valid);
            // The echoed frame carries a non-zero UDP checksum that
            // verifies: swapping src/dst leaves the pseudo-header sum
            // unchanged.
            let c = u16::from_be_bytes([resp.data[40], resp.data[41]]);
            assert_ne!(c, 0);
            let mut zeroed = resp.data[34..].to_vec();
            zeroed[6] = 0;
            zeroed[7] = 0;
            let mut pseudo = 0u32;
            for chunk in resp.data[26..34].chunks(2) {
                pseudo += u16::from_be_bytes([chunk[0], chunk[1]]) as u32;
            }
            pseudo += 17 + zeroed.len() as u32;
            assert_eq!(internet_checksum(&zeroed, pseudo), c);
        }
    }

    #[test]
    fn rx_exhaustion_drops_frame() {
        for packed in LAYOUTS {
            let mut dev = net_device();
            let mut mem = HostMemory::testbed_default();
            let mut link = PcieLink::new(LinkConfig::gen2_x2());
            let (_rx, _tx) = bring_up(&mut dev, &mut mem, 64, packed); // no RX buffers posted
            let resp = PendingResponse {
                data: vec![0u8; 64],
                ready_at: Time::ZERO,
                csum_valid: false,
            };
            let out = dev.deliver_response(Time::ZERO, 0, &resp, &mut mem, &mut link);
            assert!(!out.delivered);
            assert!(out.irq_at.is_none());
            assert_eq!(dev.stats.rx_dropped, 1);
            assert_eq!(dev.stats.desc_reads, 1, "one read finds the ring empty");
        }
    }

    #[test]
    fn reset_tears_down_queues() {
        let mut dev = net_device();
        let mut mem = HostMemory::testbed_default();
        let (_rx, _tx) = bring_up(&mut dev, &mut mem, 16, false);
        let ev = dev.mmio_write(bar0::COMMON + common::DEVICE_STATUS, 1, 0);
        assert_eq!(ev, Some(MmioEvent::Reset));
        assert!(!dev.is_live());
        assert!(dev.rings.iter().all(|q| q.is_none()));
    }

    #[test]
    fn bypass_dma_round_trip() {
        let mut dev = net_device();
        let mut mem = HostMemory::testbed_default();
        let mut link = PcieLink::new(LinkConfig::gen2_x2());
        let buf = mem.alloc(512, 64);
        HostMemory::write(&mut mem, buf, &[0x5Au8; 512]);
        let (data, t_read) = dev.bypass_read(Time::ZERO, buf, 512, &mem, &mut link);
        assert_eq!(data, vec![0x5Au8; 512]);
        assert!(t_read > Time::ZERO);
        let out_buf = mem.alloc(512, 64);
        let t_write = dev.bypass_write(t_read, out_buf, &data, &mut mem, &mut link);
        assert!(t_write > t_read);
        assert_eq!(mem.slice(out_buf, 512), &[0x5Au8; 512]);
    }

    /// Program MSI-X vector 2 as the configuration-change vector.
    fn arm_config_vector(dev: &mut VirtioFpgaDevice) {
        dev.msix_enable();
        dev.msix.program(2, MSI_ADDR_BASE, 0x42);
        dev.common_write(common::CONFIG_MSIX_VECTOR, 2, 2);
    }

    /// `DEVICE_NEEDS_RESET` in the driver's status read-back.
    fn needs_reset(dev: &mut VirtioFpgaDevice) -> bool {
        dev.common_read(common::DEVICE_STATUS, 1) as u8 & status::NEEDS_RESET != 0
    }

    /// Publish a descriptor loop (0 → 1 → 0) as the next chain of the
    /// split ring at `layout`.
    fn publish_split_loop(mem: &mut HostMemory, layout: VirtqueueLayout) {
        for (i, next) in [(0u16, 1u16), (1, 0)] {
            vf_virtio::Desc {
                addr: layout.desc,
                len: 4,
                flags: vf_virtio::ring::DESC_F_NEXT,
                next,
            }
            .write_at(mem, layout.desc, i);
        }
        mem.write_u16(layout.avail_ring_addr(0), 0);
        mem.write_u16(layout.avail_idx_addr(), 1);
    }

    #[test]
    fn serial_tx_walker_raises_needs_reset_on_a_corrupt_chain() {
        let mut dev = net_device();
        let mut mem = HostMemory::testbed_default();
        let mut link = PcieLink::new(LinkConfig::gen2_x2());
        let (_rx, tx) = bring_up(&mut dev, &mut mem, 64, false);
        arm_config_vector(&mut dev);
        publish_split_loop(&mut mem, tx.areas());
        let irqs = dev.stats.irqs_sent;
        let out = dev.process_tx_notify(Time::ZERO, 1, &mut mem, &mut link);
        assert_eq!(out.chains, 0);
        assert!(needs_reset(&mut dev));
        assert!(dev.is_live(), "NEEDS_RESET leaves DRIVER_OK set");
        assert_eq!(dev.stats.irqs_sent, irqs + 1, "config-change interrupt");
    }

    #[test]
    fn tx_frame_larger_than_the_staging_memory_raises_needs_reset() {
        let mut dev = net_device();
        let mut mem = HostMemory::testbed_default();
        let mut link = PcieLink::new(LinkConfig::gen2_x2());
        let (_rx, mut tx) = bring_up(&mut dev, &mut mem, 64, false);
        let len = dev.staging.len() + 1;
        let buf = mem.alloc(len, 64);
        tx.publish(&mut mem, &[BufferSpec::readable(buf, len as u32)])
            .unwrap();
        let out = dev.process_tx_notify(Time::ZERO, 1, &mut mem, &mut link);
        assert_eq!(out.chains, 0);
        assert!(needs_reset(&mut dev));
    }

    #[test]
    fn pipelined_packed_tx_walker_raises_needs_reset_on_an_endless_chain() {
        let mut dev = net_device();
        let mut mem = HostMemory::testbed_default();
        let mut cfg = LinkConfig::gen2_x2();
        cfg.max_outstanding_np = 4;
        let mut link = PcieLink::new(cfg);
        let (_rx, tx) = bring_up(&mut dev, &mut mem, 8, true);
        // Every descriptor is available and chains on: no chain ends.
        let ring = tx.areas().desc;
        for slot in 0..8u16 {
            PackedDesc {
                addr: ring,
                len: 4,
                id: slot,
                flags: vf_virtio::packed::PACKED_F_AVAIL | vf_virtio::packed::PACKED_F_NEXT,
            }
            .write_at(&mut mem, ring, slot);
        }
        let out = dev.process_tx_notify(Time::ZERO, 1, &mut mem, &mut link);
        assert_eq!(out.chains, 0);
        assert!(needs_reset(&mut dev));
    }

    #[test]
    fn rx_chain_with_a_readable_buffer_raises_needs_reset() {
        for packed in LAYOUTS {
            let mut dev = net_device();
            let mut mem = HostMemory::testbed_default();
            let mut link = PcieLink::new(LinkConfig::gen2_x2());
            let (mut rx, _tx) = bring_up(&mut dev, &mut mem, 64, packed);
            let buf = mem.alloc(2048, 64);
            rx.publish(&mut mem, &[BufferSpec::readable(buf, 2048)])
                .unwrap();
            let resp = PendingResponse {
                data: udp_frame(64),
                ready_at: Time::ZERO,
                csum_valid: false,
            };
            let out = dev.deliver_response(Time::ZERO, 0, &resp, &mut mem, &mut link);
            assert!(!out.delivered, "packed={packed}");
            assert_eq!(dev.stats.rx_dropped, 1);
            assert!(needs_reset(&mut dev), "packed={packed}");
            assert!(mem.slice(buf, 2048).iter().all(|&b| b == 0));
        }
    }

    #[test]
    fn rx_buffer_past_the_end_of_memory_raises_needs_reset() {
        for packed in LAYOUTS {
            let mut dev = net_device();
            let mut mem = HostMemory::testbed_default();
            let mut link = PcieLink::new(LinkConfig::gen2_x2());
            let (mut rx, _tx) = bring_up(&mut dev, &mut mem, 64, packed);
            // The buffer starts inside memory and runs 1984 bytes past it.
            let buf = mem.end() - 64;
            rx.publish(&mut mem, &[BufferSpec::writable(buf, 2048)])
                .unwrap();
            let resp = PendingResponse {
                data: udp_frame(64),
                ready_at: Time::ZERO,
                csum_valid: false,
            };
            let out = dev.deliver_response(Time::ZERO, 0, &resp, &mut mem, &mut link);
            assert!(!out.delivered, "packed={packed}");
            assert!(needs_reset(&mut dev), "packed={packed}");
            assert!(mem.slice(buf, 64).iter().all(|&b| b == 0));
        }
    }

    #[test]
    fn ctrl_chain_without_an_ack_buffer_raises_needs_reset() {
        let mut dev = mq_net_device(2);
        let mut mem = HostMemory::testbed_default();
        let mut link = PcieLink::new(LinkConfig::gen2_x2());
        let (mut ctrl, ctrl_q) = mq_ctrl_bring_up(&mut dev, &mut mem, 2);
        let cmd_buf = mem.alloc(4, 16);
        GuestMemory::write(
            &mut mem,
            cmd_buf,
            &[net::ctrl::CLASS_MQ, net::ctrl::MQ_VQ_PAIRS_SET, 2, 0],
        );
        ctrl.add_and_publish(&mut mem, &[BufferSpec::readable(cmd_buf, 4)])
            .unwrap();
        let out = dev.process_ctrl_notify(Time::ZERO, ctrl_q, &mut mem, &mut link);
        assert!(!out.delivered);
        assert_eq!(dev.stats.ctrl_commands, 0);
        assert_eq!(dev.active_queue_pairs(), 1, "the command is not applied");
        assert!(needs_reset(&mut dev));
    }

    #[test]
    fn doorbell_to_a_never_enabled_queue_is_ignored_and_counted() {
        // Only the ctrl queue (4) of a two-pair device is enabled.
        let mut dev = mq_net_device(2);
        let mut mem = HostMemory::testbed_default();
        let mut link = PcieLink::new(LinkConfig::gen2_x2());
        let (_ctrl, ctrl_q) = mq_ctrl_bring_up(&mut dev, &mut mem, 2);
        let out = dev.process_tx_notify(Time::from_us(1), 1, &mut mem, &mut link);
        assert_eq!((out.chains, out.done_at), (0, Time::from_us(1)));
        // A queue index past the device's queue count, too.
        let out = dev.process_ctrl_notify(Time::ZERO, ctrl_q + 9, &mut mem, &mut link);
        assert!(!out.delivered);
        assert_eq!(dev.stats.stray_notifies, 2);
        assert_eq!(dev.stats.desc_reads, 0, "a stray doorbell walks nothing");
        assert!(!needs_reset(&mut dev));
    }

    #[test]
    fn block_persona_serves_requests() {
        use vf_virtio::block::{blk_status, BlkReqType, BlkRequest};
        let mut dev = VirtioFpgaDevice::new(
            Persona::Block {
                cfg: VirtioBlkConfig {
                    capacity: 64,
                    seg_max: 4,
                },
                disk: MemDisk::new(64, false),
            },
            0,
            &[128],
            Box::new(crate::user_logic::ConsoleEcho::default()),
        );
        let mut mem = HostMemory::testbed_default();
        let mut link = PcieLink::new(LinkConfig::gen2_x2());
        let layout = enable_queue_zero(&mut dev, &mut mem, 128);
        dev.msix_enable();
        dev.msix.program(0, MSI_ADDR_BASE, 0x50);
        let mut q = DriverQueue::new(&mut mem, layout, false);

        // Write request: 1 sector of 0xCD at sector 3.
        let hdr = mem.alloc(16, 16);
        let data = mem.alloc(512, 64);
        let stat = mem.alloc(1, 1);
        BlkRequest::write_header(&mut mem, hdr, BlkReqType::Out, 3);
        HostMemory::write(&mut mem, data, &[0xCDu8; 512]);
        q.add_and_publish(
            &mut mem,
            &[
                BufferSpec::readable(hdr, 16),
                BufferSpec::readable(data, 512),
                BufferSpec::writable(stat, 1),
            ],
        )
        .unwrap();
        let out = dev.process_block_notify(Time::ZERO, 0, &mut mem, &mut link);
        assert_eq!(out.completions.len(), 1);
        assert!(out.completions[0].irq_at.is_some());
        assert_eq!(out.completions[0].status, blk_status::OK);
        assert!(out.completions[0].done_at <= out.done_at);
        assert_eq!(mem.slice(stat, 1)[0], blk_status::OK);
        assert_eq!(dev.stats.blk_requests, 1);
        assert_eq!(dev.stats.blk_errors, 0);
        let Persona::Block { disk, .. } = &dev.persona else {
            unreachable!()
        };
        assert_eq!(disk.flushes, 0);
        let used = q.pop_used(&mut mem).unwrap();
        assert_eq!(used.len, 1); // status byte only for OUT

        // A second pass with two queued requests completes both, each
        // with its own completion instant.
        BlkRequest::write_header(&mut mem, hdr, BlkReqType::In, 3);
        let back = mem.alloc(512, 64);
        q.add_and_publish(
            &mut mem,
            &[
                BufferSpec::readable(hdr, 16),
                BufferSpec::writable(back, 512),
                BufferSpec::writable(stat, 1),
            ],
        )
        .unwrap();
        let hdr2 = mem.alloc(16, 16);
        let stat2 = mem.alloc(1, 1);
        BlkRequest::write_header(&mut mem, hdr2, BlkReqType::Flush, 0);
        q.add_and_publish(
            &mut mem,
            &[
                BufferSpec::readable(hdr2, 16),
                BufferSpec::writable(stat2, 1),
            ],
        )
        .unwrap();
        let out = dev.process_block_notify(Time::from_us(50), 0, &mut mem, &mut link);
        assert_eq!(out.completions.len(), 2);
        assert!(out.completions[0].done_at < out.completions[1].done_at);
        assert_eq!(mem.slice(back, 512), &[0xCDu8; 512][..]);
        let Persona::Block { disk, .. } = &dev.persona else {
            unreachable!()
        };
        assert_eq!(disk.flushes, 1);
    }

    #[test]
    fn block_walker_survives_unknown_request_type() {
        use vf_virtio::block::{blk_status, BlkReqType};
        let mut dev = VirtioFpgaDevice::new(
            Persona::Block {
                cfg: VirtioBlkConfig {
                    capacity: 8,
                    seg_max: 4,
                },
                disk: MemDisk::new(8, false),
            },
            0,
            &[16],
            Box::new(crate::user_logic::ConsoleEcho::default()),
        );
        let mut mem = HostMemory::testbed_default();
        let mut link = PcieLink::new(LinkConfig::gen2_x2());
        let layout = enable_queue_zero(&mut dev, &mut mem, 16);
        dev.msix_enable();
        dev.msix.program(0, MSI_ADDR_BASE, 0x50);
        let mut q = DriverQueue::new(&mut mem, layout, false);

        // Unknown type 99 in an otherwise well-formed chain.
        let hdr = mem.alloc(16, 16);
        let stat = mem.alloc(1, 1);
        mem.write_u32(hdr, 99);
        mem.write_u64(hdr + 8, 0);
        q.add_and_publish(
            &mut mem,
            &[BufferSpec::readable(hdr, 16), BufferSpec::writable(stat, 1)],
        )
        .unwrap();
        // And a well-formed flush right behind it.
        let hdr2 = mem.alloc(16, 16);
        let stat2 = mem.alloc(1, 1);
        BlkRequest::write_header(&mut mem, hdr2, BlkReqType::Flush, 0);
        q.add_and_publish(
            &mut mem,
            &[
                BufferSpec::readable(hdr2, 16),
                BufferSpec::writable(stat2, 1),
            ],
        )
        .unwrap();
        let out = dev.process_block_notify(Time::ZERO, 0, &mut mem, &mut link);
        assert_eq!(
            out.completions.len(),
            2,
            "bad request must not stall the queue"
        );
        assert_eq!(out.completions[0].status, blk_status::UNSUPP);
        assert_eq!(mem.slice(stat, 1)[0], blk_status::UNSUPP);
        assert_eq!(out.completions[1].status, blk_status::OK);
        assert_eq!(dev.stats.blk_errors, 1);
        assert_eq!(dev.stats.blk_requests, 2);
        // Driver sees both used entries.
        assert!(q.pop_used(&mut mem).is_some());
        assert!(q.pop_used(&mut mem).is_some());
    }

    #[test]
    fn block_walker_stops_on_a_corrupt_ring_with_needs_reset() {
        let mut dev = VirtioFpgaDevice::new(
            Persona::Block {
                cfg: VirtioBlkConfig {
                    capacity: 8,
                    seg_max: 4,
                },
                disk: MemDisk::new(8, false),
            },
            0,
            &[16],
            Box::new(crate::user_logic::ConsoleEcho::default()),
        );
        let mut mem = HostMemory::testbed_default();
        let mut link = PcieLink::new(LinkConfig::gen2_x2());
        let layout = enable_queue_zero(&mut dev, &mut mem, 16);
        publish_split_loop(&mut mem, layout);
        let out = dev.process_block_notify(Time::ZERO, 0, &mut mem, &mut link);
        assert!(out.completions.is_empty());
        assert_eq!(dev.stats.blk_errors, 1);
        assert!(needs_reset(&mut dev));
    }

    /// Bring a device up with only queue 0, a split ring of `size`.
    fn enable_queue_zero(
        dev: &mut VirtioFpgaDevice,
        mem: &mut HostMemory,
        size: u16,
    ) -> VirtqueueLayout {
        let base = mem.alloc(
            VirtqueueLayout::contiguous(0, size).total_bytes() as usize,
            4096,
        );
        let layout = VirtqueueLayout::contiguous(base, size);
        go_live(dev, 0, &[(0, layout)]);
        layout
    }
}
