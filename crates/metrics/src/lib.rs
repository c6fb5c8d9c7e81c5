//! # vf-metrics — deterministic cross-layer metrics
//!
//! `vf-trace` (DESIGN.md §6) records *events*: spans and instants that
//! decompose each round trip after the fact. This crate records *state
//! over time*: link credit occupancy, non-posted tag depth, virtqueue
//! backlog, arbiter queue lengths, timing-wheel slab occupancy — the
//! quantities that are invisible between a run's start and its final
//! summary, and that the ROADMAP's service-under-load directions
//! (open-loop traffic, adaptive moderation) need to be reviewable at
//! all.
//!
//! The design mirrors `vf-trace` exactly where it matters:
//!
//! * **Thread-local session.** Instrument updates no-op unless a
//!   session is [`install`]ed on the calling thread. The disabled path
//!   is a single thread-local boolean load — the same
//!   zero-cost-when-disabled guarantee `vf-trace` makes, asserted by
//!   the `metrics_overhead` bench.
//! * **Never perturbs a run.** Nothing here draws randomness, reads a
//!   wall clock, or mutates simulated time. Sampling is driven by the
//!   engine at deterministic sim-time boundaries, so a metered run is
//!   bit-identical to an unmetered one (pinned by the root crate's
//!   `tests/metrics_reconcile.rs` against the determinism goldens).
//! * **Typed instruments, implicit registration.** An instrument is
//!   keyed by a `'static` name plus a small integer index (queue id,
//!   DMA tag, tenant id). Instrumented code holds a typed handle
//!   ([`Counter`], [`Gauge`], [`Histogram`]) beside the state it
//!   describes; the handle registers its instrument on its first touch
//!   in each session, with the handle's [`Kind`], and caches the slot,
//!   so later updates index it directly. Touching one key as two kinds
//!   is a programming error and panics. [`batch`] publishes several
//!   handles under one session borrow. Names follow
//!   `layer.object.metric` (e.g. `pcie.posted.inflight`,
//!   `tenant.arbiter.pending`), where the leading segment is the owning
//!   layer — the export and report code group by it.
//!
//! On top of the registry sits a sim-time sampler: the engine fires
//! [`sample_before`] at every multiple of the configured interval
//! (default 10 µs), snapshotting every counter and gauge into an
//! in-memory time series and evaluating the **invariant watchdogs**:
//!
//! 1. **Posted-credit conservation** — `granted − released ==
//!    in-flight` per DMA tag; a credit pushed without matching retire
//!    bookkeeping trips it.
//! 2. **NP tag leak** — per-tag non-posted reads in flight must not
//!    exceed the tag's configured window.
//! 3. **Queue stall** — an avail ring with nonzero backlog whose used
//!    counter makes no progress for K consecutive samples.
//! 4. **WFQ fairness drift** — under the weighted-fair arbiter, a
//!    tenant with queued work receiving no grants for K consecutive
//!    samples while the arbiter keeps granting others.
//!
//! Each violation is a structured record with sim-time, layer, and
//! instrument — not a silently wrong number. [`finish`] returns a
//! [`MetricsReport`] carrying the series, histograms, and violations,
//! with JSON/CSV renderers used by `repro -- metrics`. The report keeps
//! each series as the change points the sampler stored, so finishing
//! a session costs nothing per sample; [`InstrumentReport::series`]
//! replays one point per sample for readers that want them.

#![warn(missing_docs)]

mod hist;
mod report;
mod session;

pub use hist::{HistBucket, LogLinearHist};
pub use report::{InstrumentReport, MetricsReport, Series};
pub use session::{
    batch, finish, install, is_enabled, names, sample_at, sample_before, sample_pending, uninstall,
    Batch, Counter, Gauge, Histogram, MetricsConfig,
};

/// What an instrument measures. Fixed at first touch; mixing kinds on
/// one key panics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Monotonically non-decreasing event count (sampled into a series).
    Counter,
    /// Instantaneous signed level (sampled into a series).
    Gauge,
    /// Log-linear value distribution (not sampled; reported at finish).
    Histogram,
}

impl Kind {
    /// Lower-case name used in exports.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

/// Which invariant watchdog fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Watchdog {
    /// `granted − released != in-flight` on a posted-credit tag.
    PostedCredit,
    /// Non-posted reads in flight exceed the tag's window (or went
    /// negative): a leaked or double-counted tag.
    NpTagLeak,
    /// Nonzero avail backlog with no used-ring progress for K samples.
    QueueStall,
    /// A queued tenant starved of grants for K samples under WFQ.
    FairnessDrift,
}

impl Watchdog {
    /// Stable identifier used in exports.
    pub fn name(self) -> &'static str {
        match self {
            Watchdog::PostedCredit => "posted_credit",
            Watchdog::NpTagLeak => "np_tag_leak",
            Watchdog::QueueStall => "queue_stall",
            Watchdog::FairnessDrift => "fairness_drift",
        }
    }
}

/// One watchdog violation: an invariant that failed at a sample point.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Sim time of the sample that caught it, in picoseconds.
    pub t_ps: u64,
    /// Which watchdog fired.
    pub watchdog: Watchdog,
    /// Owning layer (leading segment of the instrument name).
    pub layer: String,
    /// The instrument that tripped the check.
    pub name: &'static str,
    /// Instrument index (queue / tag / tenant id).
    pub index: u32,
    /// Human-readable specifics (observed vs expected values).
    pub detail: String,
}
