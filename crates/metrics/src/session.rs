//! The thread-local metrics session: instrument registry, update API,
//! sim-time sampler, and invariant watchdogs.
//!
//! All update functions are no-ops unless a session is [`install`]ed on
//! the calling thread, and the disabled path is a single thread-local
//! load — the zero-cost-when-disabled guarantee (asserted by the
//! `metrics_overhead` bench). None of them draw randomness or mutate
//! simulated time, so metering can never perturb a run.
//!
//! A metered run pays only for state that changed. Instrumented code
//! holds typed handles ([`Counter`], [`Gauge`], [`Histogram`]) next to
//! the state they describe. A handle's first touch in a session
//! resolves `(name, index)` by the name's contents, registering the
//! instrument if it is new, and caches the slot under the session's
//! process-unique id; every later touch in that session indexes the
//! slot directly and marks it dirty. A sample stores a change point
//! only for dirty slots whose value moved, and the watchdogs read slot
//! lists linked when their instruments registered. [`finish`] hands the
//! change points to the report as they are, next to one shared list of
//! sample times; the report rebuilds the per-sample series only when a
//! reader iterates it.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use crate::hist::LogLinearHist;
use crate::report::{InstrumentReport, MetricsReport};
use crate::{Kind, Violation, Watchdog};

/// Instrument names the watchdogs key on. Instrumented crates use these
/// constants so a rename cannot silently disarm a watchdog.
pub mod names {
    /// Posted-header credits granted since start, per DMA tag (counter).
    pub const POSTED_GRANTED: &str = "pcie.posted.granted";
    /// Posted-header credits retired since start, per DMA tag (counter).
    pub const POSTED_RELEASED: &str = "pcie.posted.released";
    /// Posted-header credits currently held, per DMA tag (gauge).
    pub const POSTED_INFLIGHT: &str = "pcie.posted.inflight";
    /// Non-posted reads in flight, per DMA tag (gauge).
    pub const NP_INFLIGHT: &str = "pcie.np.inflight";
    /// Configured non-posted window, per DMA tag (gauge).
    pub const NP_WINDOW: &str = "pcie.np.window";
    /// Avail-ring entries the device has not yet consumed, per queue
    /// (gauge).
    pub const QUEUE_BACKLOG: &str = "virtio.queue.avail_backlog";
    /// Chains completed into the used ring, per queue (counter).
    pub const QUEUE_USED: &str = "virtio.queue.used";
    /// Active arbiter policy, index 0 (gauge; see `POLICY_*`).
    pub const ARBITER_POLICY: &str = "tenant.arbiter.policy";
    /// Requests queued at the arbiter, per tenant (gauge).
    pub const ARBITER_PENDING: &str = "tenant.arbiter.pending";
    /// Grants issued, per tenant (counter).
    pub const ARBITER_GRANTS: &str = "tenant.arbiter.grants";
    /// `ARBITER_POLICY` value for round-robin.
    pub const POLICY_RR: i64 = 0;
    /// `ARBITER_POLICY` value for weighted fair queueing.
    pub const POLICY_WFQ: i64 = 1;
    /// `ARBITER_POLICY` value for strict priority.
    pub const POLICY_STRICT: i64 = 2;
}

/// Sampler and watchdog configuration for one session.
#[derive(Debug, Clone)]
pub struct MetricsConfig {
    /// Sampling interval in picoseconds (default 10 µs). Samples fire
    /// at every multiple of this, driven by the engine.
    pub interval_ps: u64,
    /// Queue-stall watchdog threshold: consecutive samples with nonzero
    /// backlog and no used-ring progress before flagging.
    pub stall_samples: u32,
    /// Fairness watchdog threshold: consecutive samples a queued tenant
    /// may go grant-less (while others are granted) under WFQ.
    pub fairness_samples: u32,
}

impl Default for MetricsConfig {
    fn default() -> Self {
        MetricsConfig {
            interval_ps: 10_000_000, // 10 µs
            // 100 samples at the default interval is 1 ms of sim time —
            // two orders above any healthy per-packet latency in the
            // reproduced worlds, so a trip means genuinely no progress.
            stall_samples: 100,
            fairness_samples: 100,
        }
    }
}

/// One registered instrument and its live state.
struct Instrument {
    name: &'static str,
    index: u32,
    kind: Kind,
    /// Counter total or gauge level (counters stay non-negative).
    value: i64,
    /// On the session's dirty list (touched since the last sample).
    dirty: bool,
    hist: Option<LogLinearHist>,
    /// Change points `(sample ordinal, value)`: the value holds from
    /// that sample until the next point. Counters and gauges only;
    /// the report rebuilds the per-sample series from them.
    points: Vec<(u64, i64)>,
}

/// Progress tracker for the stall/fairness watchdogs: counts consecutive
/// samples a progress counter stood still while the watched condition
/// held.
#[derive(Default)]
struct ProgressWatch {
    last_progress: i64,
    stuck: u32,
    /// Set once the episode is reported, so one stall yields one
    /// violation instead of one per subsequent sample.
    flagged: bool,
}

impl ProgressWatch {
    /// Advance one sample. Returns the stuck count when this sample is
    /// the `k`th in a row with `held` true and `progress` unchanged,
    /// once per episode.
    fn step(&mut self, held: bool, progress: i64, k: u32) -> Option<u32> {
        if held && progress == self.last_progress {
            self.stuck += 1;
            if self.stuck >= k && !self.flagged {
                self.flagged = true;
                return Some(self.stuck);
            }
        } else {
            self.last_progress = progress;
            self.stuck = 0;
            self.flagged = false;
        }
        None
    }
}

/// Posted-credit watchdog links for one DMA tag.
struct PostedLink {
    index: u32,
    granted: u32,
    released: Option<u32>,
    inflight: Option<u32>,
}

/// NP-leak watchdog links for one DMA tag.
struct NpLink {
    index: u32,
    inflight: u32,
    window: Option<u32>,
}

/// A watched level (queue backlog, arbiter pending) linked to the
/// progress counter of the same index (used ring, grants).
struct ProgressLink {
    index: u32,
    level: u32,
    progress: Option<u32>,
    watch: ProgressWatch,
}

/// The watchdogs' instrument slots, linked as instruments register, so
/// a sample reads short slot lists instead of scanning the registry.
/// Each list is in registration order of its primary instrument, the
/// order violations are reported in.
#[derive(Default)]
struct Links {
    posted: Vec<PostedLink>,
    np: Vec<NpLink>,
    stall: Vec<ProgressLink>,
    fair: Vec<ProgressLink>,
    policy: Option<u32>,
    grants: Vec<u32>,
    last_total_grants: i64,
}

/// Source of session ids, shared by every thread so a handle's cached
/// slot can never match a session it did not resolve in. Zero names no
/// session: it is the id a fresh handle caches. `u32` keeps a handle at
/// 32 bytes; [`install`] panics rather than reuse an id.
static NEXT_SESSION_ID: AtomicU32 = AtomicU32::new(1);

struct Session {
    /// Process-unique id; handles cache their slot under it.
    id: u32,
    cfg: MetricsConfig,
    instruments: Vec<Instrument>,
    /// Slot by name contents: each handle's first touch in the session.
    by_key: HashMap<(&'static str, u32), u32>,
    /// Counter/gauge slots touched since the last sample.
    dirty: Vec<u32>,
    /// Sim time of every sample taken; change points index into it.
    sample_times: Vec<u64>,
    next_due: u64,
    violations: Vec<Violation>,
    links: Links,
}

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    /// Next sample boundary in ps; `u64::MAX` when no session is
    /// installed, so the engine's per-event due check is one load and
    /// one compare with no separate enabled test.
    static NEXT_DUE: Cell<u64> = const { Cell::new(u64::MAX) };
    static SESSION: RefCell<Option<Session>> = const { RefCell::new(None) };
}

/// True if a session is installed on this thread. The fast path every
/// update helper checks first.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.with(|e| e.get())
}

/// Install a metrics session on this thread, enabling instrument
/// updates and sampling. Panics if one is already active (sessions do
/// not nest).
pub fn install(cfg: MetricsConfig) {
    assert!(cfg.interval_ps > 0, "sampling interval must be nonzero");
    SESSION.with(|s| {
        let mut s = s.borrow_mut();
        assert!(s.is_none(), "a metrics session is already installed");
        NEXT_DUE.with(|d| d.set(0));
        *s = Some(Session {
            id: NEXT_SESSION_ID
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |id| id.checked_add(1))
                .expect("metrics session ids exhausted"),
            cfg,
            instruments: Vec::new(),
            by_key: HashMap::new(),
            dirty: Vec::new(),
            sample_times: Vec::new(),
            next_due: 0,
            violations: Vec::new(),
            links: Links::default(),
        });
    });
    ENABLED.with(|e| e.set(true));
}

/// Tear down the session without producing a report (used by panic
/// guards). Returns true if one was installed.
pub fn uninstall() -> bool {
    ENABLED.with(|e| e.set(false));
    NEXT_DUE.with(|d| d.set(u64::MAX));
    SESSION.with(|s| s.borrow_mut().take()).is_some()
}

/// Tear down the session and return its report (empty when none was
/// installed). Updates are disabled afterwards.
pub fn finish() -> MetricsReport {
    ENABLED.with(|e| e.set(false));
    NEXT_DUE.with(|d| d.set(u64::MAX));
    let session = SESSION.with(|s| s.borrow_mut().take());
    let Some(session) = session else {
        return MetricsReport::default();
    };
    let times: Arc<[u64]> = session.sample_times.into();
    MetricsReport {
        interval_ps: session.cfg.interval_ps,
        samples: times.len() as u64,
        instruments: session
            .instruments
            .into_iter()
            .map(|i| InstrumentReport {
                name: i.name,
                index: i.index,
                kind: i.kind,
                last: i.value,
                points: i.points,
                times: Arc::clone(&times),
                histogram: i.hist,
            })
            .collect(),
        violations: session.violations,
    }
}

fn with_session<R>(f: impl FnOnce(&mut Session) -> R) -> Option<R> {
    SESSION.with(|s| s.borrow_mut().as_mut().map(f))
}

impl Session {
    /// Slot for `(name, index)` by name contents, registering it with
    /// `kind` if it is new. Panics on a kind clash — that is a bug at
    /// the instrumentation site, not a runtime condition.
    fn resolve(&mut self, name: &'static str, index: u32, kind: Kind) -> usize {
        let i = match self.by_key.get(&(name, index)) {
            Some(&i) => i as usize,
            None => self.register(name, index, kind),
        };
        let inst = &self.instruments[i];
        assert!(
            inst.kind == kind,
            "instrument {name}[{index}] is a {}, touched as a {}",
            inst.kind.name(),
            kind.name()
        );
        i
    }

    fn register(&mut self, name: &'static str, index: u32, kind: Kind) -> usize {
        let i = u32::try_from(self.instruments.len()).expect("instrument registry full");
        self.instruments.push(Instrument {
            name,
            index,
            kind,
            value: 0,
            dirty: false,
            hist: (kind == Kind::Histogram).then(LogLinearHist::new),
            points: Vec::new(),
        });
        self.by_key.insert((name, index), i);
        self.link(name, index, i);
        i as usize
    }

    /// Link a new instrument into the watchdogs it takes part in, in
    /// whichever order its partners registered.
    fn link(&mut self, name: &'static str, index: u32, slot: u32) {
        let partner = |n: &'static str| self.by_key.get(&(n, index)).copied();
        let l = &mut self.links;
        match name {
            names::POSTED_GRANTED => l.posted.push(PostedLink {
                index,
                granted: slot,
                released: partner(names::POSTED_RELEASED),
                inflight: partner(names::POSTED_INFLIGHT),
            }),
            names::POSTED_RELEASED => {
                if let Some(p) = l.posted.iter_mut().find(|p| p.index == index) {
                    p.released = Some(slot);
                }
            }
            names::POSTED_INFLIGHT => {
                if let Some(p) = l.posted.iter_mut().find(|p| p.index == index) {
                    p.inflight = Some(slot);
                }
            }
            names::NP_INFLIGHT => l.np.push(NpLink {
                index,
                inflight: slot,
                window: partner(names::NP_WINDOW),
            }),
            names::NP_WINDOW => {
                if let Some(n) = l.np.iter_mut().find(|n| n.index == index) {
                    n.window = Some(slot);
                }
            }
            names::QUEUE_BACKLOG => l.stall.push(ProgressLink {
                index,
                level: slot,
                progress: partner(names::QUEUE_USED),
                watch: ProgressWatch::default(),
            }),
            names::QUEUE_USED => link_progress(&mut l.stall, index, slot),
            names::ARBITER_PENDING => l.fair.push(ProgressLink {
                index,
                level: slot,
                progress: partner(names::ARBITER_GRANTS),
                watch: ProgressWatch::default(),
            }),
            names::ARBITER_GRANTS => {
                l.grants.push(slot);
                link_progress(&mut l.fair, index, slot);
            }
            names::ARBITER_POLICY if index == 0 => l.policy = Some(slot),
            _ => {}
        }
    }
}

fn link_progress(links: &mut [ProgressLink], index: u32, slot: u32) {
    if let Some(p) = links.iter_mut().find(|p| p.index == index) {
        p.progress = Some(slot);
    }
}

/// `(name, index)` plus the slot it resolved to in the last session
/// that touched it.
#[derive(Clone, Debug)]
struct Handle {
    name: &'static str,
    index: u32,
    /// `(session id, slot)`; a session id of zero matches no session.
    cache: Cell<(u32, u32)>,
}

impl Handle {
    const fn new(name: &'static str, index: u32) -> Handle {
        Handle {
            name,
            index,
            cache: Cell::new((0, 0)),
        }
    }

    /// This handle's slot in `s`. Only the first touch in a session
    /// looks the name up; the handle's type fixes `kind`, so a cached
    /// slot cannot clash.
    #[inline]
    fn slot(&self, s: &mut Session, kind: Kind) -> usize {
        let (id, slot) = self.cache.get();
        if id == s.id {
            slot as usize
        } else {
            self.resolve(s, kind)
        }
    }

    #[cold]
    #[inline(never)]
    fn resolve(&self, s: &mut Session, kind: Kind) -> usize {
        let i = s.resolve(self.name, self.index, kind);
        self.cache.set((s.id, i as u32));
        i
    }
}

/// A counter instrument: a monotonically non-decreasing event count,
/// sampled into a series. Keep one next to the state it counts, so
/// each update after the first in a session indexes its slot directly.
#[derive(Clone, Debug)]
pub struct Counter(Handle);

/// A gauge instrument: an instantaneous signed level, sampled into a
/// series.
#[derive(Clone, Debug)]
pub struct Gauge(Handle);

/// A histogram instrument: a log-linear value distribution, reported
/// at finish and never sampled.
#[derive(Clone, Debug)]
pub struct Histogram(Handle);

impl Counter {
    /// Handle for counter `name[index]`. Registers nothing: the
    /// instrument registers on the first update in each session.
    pub const fn new(name: &'static str, index: u32) -> Counter {
        Counter(Handle::new(name, index))
    }

    /// Add `delta`. Saturates at `i64::MAX`.
    #[inline]
    pub fn add(&self, delta: u64) {
        if is_enabled() {
            batch(move |b| b.counter_add(self, delta));
        }
    }

    /// Raise the counter to `total` if that is higher — the form used
    /// by sources that keep their own running total (the timing wheel,
    /// device stat blocks). Never lowers the counter, so the exported
    /// series stays monotonic even if the source resets between runs.
    /// Saturates at `i64::MAX`.
    #[inline]
    pub fn set_total(&self, total: u64) {
        if is_enabled() {
            batch(move |b| b.counter_set_total(self, total));
        }
    }
}

impl Gauge {
    /// Handle for gauge `name[index]`; registers on first update.
    pub const fn new(name: &'static str, index: u32) -> Gauge {
        Gauge(Handle::new(name, index))
    }

    /// Set the level to `v`.
    #[inline]
    pub fn set(&self, v: i64) {
        if is_enabled() {
            batch(move |b| b.gauge_set(self, v));
        }
    }

    /// Add `delta` (may be negative) to the level.
    #[inline]
    pub fn add(&self, delta: i64) {
        if is_enabled() {
            batch(move |b| b.gauge_add(self, delta));
        }
    }
}

impl Histogram {
    /// Handle for histogram `name[index]`; registers on first record.
    pub const fn new(name: &'static str, index: u32) -> Histogram {
        Histogram(Handle::new(name, index))
    }

    /// Record `v`.
    #[inline]
    pub fn record(&self, v: u64) {
        self.record_n(v, 1);
    }

    /// Record `n` copies of `v`: the same histogram as `n` calls of
    /// [`Histogram::record`], for sources that tally repeated values
    /// before publishing them.
    #[inline]
    pub fn record_n(&self, v: u64, n: u64) {
        if is_enabled() {
            batch(move |b| b.hist_record_n(self, v, n));
        }
    }
}

/// The installed session, borrowed once so a call site can publish
/// several instruments together (see [`batch`]).
pub struct Batch<'a>(&'a mut Session);

impl Batch<'_> {
    /// Apply `f` to the value behind `h` and queue it for the next
    /// sample.
    #[inline]
    fn update(&mut self, h: &Handle, kind: Kind, f: impl FnOnce(i64) -> i64) {
        let s = &mut *self.0;
        let i = h.slot(s, kind);
        let inst = &mut s.instruments[i];
        inst.value = f(inst.value);
        if !inst.dirty {
            inst.dirty = true;
            s.dirty.push(i as u32);
        }
    }

    /// [`Counter::add`] under this borrow.
    #[inline]
    pub fn counter_add(&mut self, c: &Counter, delta: u64) {
        let delta = i64::try_from(delta).unwrap_or(i64::MAX);
        self.update(&c.0, Kind::Counter, |v| v.saturating_add(delta));
    }

    /// [`Counter::set_total`] under this borrow.
    #[inline]
    pub fn counter_set_total(&mut self, c: &Counter, total: u64) {
        let total = i64::try_from(total).unwrap_or(i64::MAX);
        self.update(&c.0, Kind::Counter, |v| v.max(total));
    }

    /// [`Gauge::set`] under this borrow.
    #[inline]
    pub fn gauge_set(&mut self, g: &Gauge, v: i64) {
        self.update(&g.0, Kind::Gauge, |_| v);
    }

    /// [`Gauge::add`] under this borrow.
    #[inline]
    pub fn gauge_add(&mut self, g: &Gauge, delta: i64) {
        self.update(&g.0, Kind::Gauge, |v| v + delta);
    }

    /// [`Histogram::record`] under this borrow.
    #[inline]
    pub fn hist_record(&mut self, h: &Histogram, v: u64) {
        self.hist_record_n(h, v, 1);
    }

    /// [`Histogram::record_n`] under this borrow.
    #[inline]
    pub fn hist_record_n(&mut self, h: &Histogram, v: u64, n: u64) {
        let s = &mut *self.0;
        let i = h.0.slot(s, Kind::Histogram);
        s.instruments[i]
            .hist
            .as_mut()
            .expect("histogram slot")
            .record_n(v, n);
    }
}

/// Run `f` against the installed session under one borrow: the
/// enabled half of every update, and the way a call site publishes
/// several instruments at once. Does nothing, and never calls `f`, when
/// no session is installed. Kept out of line so the path inlined at
/// each call site stays one thread-local load and a branch: call it
/// behind [`is_enabled`], which also keeps a disabled call site from
/// building the closure. The handle methods do exactly that.
#[inline(never)]
pub fn batch(f: impl FnOnce(&mut Batch<'_>)) {
    with_session(|s| f(&mut Batch(s)));
}

/// Add `delta` to counter `name[index]`: [`Counter::add`] through a
/// throwaway handle, for tests and cold sites.
#[inline]
pub fn counter_add(name: &'static str, index: u32, delta: u64) {
    if is_enabled() {
        batch(move |b| b.counter_add(&Counter::new(name, index), delta));
    }
}

/// Raise counter `name[index]` to `total`: [`Counter::set_total`]
/// through a throwaway handle.
#[inline]
pub fn counter_set_total(name: &'static str, index: u32, total: u64) {
    if is_enabled() {
        batch(move |b| b.counter_set_total(&Counter::new(name, index), total));
    }
}

/// Set gauge `name[index]` to `v`: [`Gauge::set`] through a throwaway
/// handle.
#[inline]
pub fn gauge_set(name: &'static str, index: u32, v: i64) {
    if is_enabled() {
        batch(move |b| b.gauge_set(&Gauge::new(name, index), v));
    }
}

/// Add `delta` to gauge `name[index]`: [`Gauge::add`] through a
/// throwaway handle.
#[inline]
pub fn gauge_add(name: &'static str, index: u32, delta: i64) {
    if is_enabled() {
        batch(move |b| b.gauge_add(&Gauge::new(name, index), delta));
    }
}

/// Record `v` into histogram `name[index]`: [`Histogram::record`]
/// through a throwaway handle.
#[inline]
pub fn hist_record(name: &'static str, index: u32, v: u64) {
    if is_enabled() {
        batch(move |b| b.hist_record(&Histogram::new(name, index), v));
    }
}

/// Record `n` copies of `v` into histogram `name[index]`:
/// [`Histogram::record_n`] through a throwaway handle.
#[inline]
pub fn hist_record_n(name: &'static str, index: u32, v: u64, n: u64) {
    if is_enabled() {
        batch(move |b| b.hist_record_n(&Histogram::new(name, index), v, n));
    }
}

/// True when at least one sample boundary lies strictly before `t_ps`.
/// The engine calls this once per event; disabled sessions answer in a
/// single thread-local load (`next_due` parks at `u64::MAX`).
#[inline]
pub fn sample_pending(t_ps: u64) -> bool {
    NEXT_DUE.with(|d| d.get()) < t_ps
}

/// Fire every sample boundary strictly before `t_ps`, in order. Called
/// by the engine before delivering an event at `t_ps`, so a sample at
/// instant `s` observes exactly the state left by all events with
/// `t <= s` — bit-reproducible, with no wall clock anywhere.
pub fn sample_before(t_ps: u64) {
    if !is_enabled() {
        return;
    }
    with_session(|s| {
        while s.next_due < t_ps {
            let at = s.next_due;
            take_sample(s, at);
            s.next_due = s.next_due.saturating_add(s.cfg.interval_ps);
        }
        NEXT_DUE.with(|d| d.set(s.next_due));
    });
}

/// Take one explicit sample at `t_ps` (the end-of-run snapshot, and the
/// way unit tests drive the watchdogs without an engine). Does not move
/// the periodic boundary.
pub fn sample_at(t_ps: u64) {
    if !is_enabled() {
        return;
    }
    with_session(|s| take_sample(s, t_ps));
}

/// Record a change point for every counter/gauge touched since the last
/// sample whose value moved, then run the four watchdogs against the
/// current state.
fn take_sample(s: &mut Session, t_ps: u64) {
    let n = s.sample_times.len() as u64;
    s.sample_times.push(t_ps);
    for slot in s.dirty.drain(..) {
        let inst = &mut s.instruments[slot as usize];
        inst.dirty = false;
        if inst.points.last().map(|&(_, v)| v) != Some(inst.value) {
            inst.points.push((n, inst.value));
        }
    }
    check_posted_credits(s, t_ps);
    check_np_leaks(s, t_ps);
    check_queue_stalls(s, t_ps);
    check_fairness(s, t_ps);
}

/// Value of a linked slot (absent partners read as `None`).
fn value(instruments: &[Instrument], slot: Option<u32>) -> Option<i64> {
    slot.map(|i| instruments[i as usize].value)
}

fn violation(
    t_ps: u64,
    watchdog: Watchdog,
    name: &'static str,
    index: u32,
    detail: String,
) -> Violation {
    Violation {
        t_ps,
        watchdog,
        layer: name.split('.').next().unwrap_or(name).to_string(),
        name,
        index,
        detail,
    }
}

/// Watchdog 1: per-tag posted-credit conservation. The three
/// instruments are updated at the same sites in `dma_write`, so
/// `granted − released == in-flight` is an identity of correct
/// bookkeeping; a divergence means a credit was leaked or
/// double-retired.
fn check_posted_credits(s: &mut Session, t_ps: u64) {
    for p in &s.links.posted {
        let granted = s.instruments[p.granted as usize].value;
        let released = value(&s.instruments, p.released).unwrap_or(0);
        let inflight = value(&s.instruments, p.inflight).unwrap_or(0);
        if granted - released != inflight {
            s.violations.push(violation(
                t_ps,
                Watchdog::PostedCredit,
                names::POSTED_GRANTED,
                p.index,
                format!(
                    "granted {granted} - released {released} = {} but {inflight} in flight",
                    granted - released
                ),
            ));
        }
    }
}

/// Watchdog 2: per-tag NP window containment. More reads in flight
/// than the tag's window (or a negative depth) means a tag was leaked
/// or retired twice.
fn check_np_leaks(s: &mut Session, t_ps: u64) {
    for n in &s.links.np {
        let inflight = s.instruments[n.inflight as usize].value;
        let window = value(&s.instruments, n.window);
        if inflight < 0 || window.is_some_and(|w| inflight > w) {
            s.violations.push(violation(
                t_ps,
                Watchdog::NpTagLeak,
                names::NP_INFLIGHT,
                n.index,
                format!(
                    "{inflight} NP reads in flight, window {}",
                    window.unwrap_or(0)
                ),
            ));
        }
    }
}

/// Watchdog 3: queue stalls. A queue with avail backlog whose used
/// counter stands still for `stall_samples` consecutive samples has
/// wedged; one violation per episode.
fn check_queue_stalls(s: &mut Session, t_ps: u64) {
    let k = s.cfg.stall_samples;
    for q in &mut s.links.stall {
        let backlog = s.instruments[q.level as usize].value;
        let used = value(&s.instruments, q.progress).unwrap_or(0);
        if let Some(stuck) = q.watch.step(backlog > 0, used, k) {
            s.violations.push(violation(
                t_ps,
                Watchdog::QueueStall,
                names::QUEUE_BACKLOG,
                q.index,
                format!("backlog {backlog} with used count stuck at {used} for {stuck} samples"),
            ));
        }
    }
}

/// Watchdog 4: WFQ fairness drift. Armed only when the arbiter reports
/// the weighted-fair policy (strict priority starves by design, and
/// round robin is covered by the stall watchdog upstream): a tenant
/// with queued work that receives no grant for `fairness_samples`
/// consecutive samples while total grants advance is being starved —
/// WFQ is supposed to bound its service delay.
fn check_fairness(s: &mut Session, t_ps: u64) {
    let l = &mut s.links;
    let armed = value(&s.instruments, l.policy) == Some(names::POLICY_WFQ);
    let total: i64 = l
        .grants
        .iter()
        .map(|&i| s.instruments[i as usize].value)
        .sum();
    let others_progressed = total > l.last_total_grants;
    l.last_total_grants = total;
    if !armed {
        return;
    }
    let k = s.cfg.fairness_samples;
    for f in &mut l.fair {
        let pending = s.instruments[f.level as usize].value;
        let grants = value(&s.instruments, f.progress).unwrap_or(0);
        if let Some(stuck) = f.watch.step(pending > 0 && others_progressed, grants, k) {
            s.violations.push(violation(
                t_ps,
                Watchdog::FairnessDrift,
                names::ARBITER_PENDING,
                f.index,
                format!(
                    "tenant queued ({pending} pending) with grants stuck at {grants} \
                     for {stuck} samples while the arbiter kept granting"
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh(cfg: MetricsConfig) {
        assert!(!is_enabled());
        install(cfg);
    }

    /// The whole lifecycle runs in one test per concern area; each test
    /// installs and finishes its own session, and the harness may run
    /// them on separate threads (the session is thread-local), so they
    /// do not race.
    #[test]
    fn lifecycle_and_instrument_updates() {
        // Disabled: everything no-ops.
        counter_add("x.y.z", 0, 5);
        gauge_set("x.y.g", 0, 7);
        hist_record("x.y.h", 0, 9);
        assert!(!sample_pending(u64::MAX));
        let empty = finish();
        assert_eq!(empty.instruments.len(), 0);

        fresh(MetricsConfig::default());
        counter_add("a.b.c", 0, 2);
        counter_add("a.b.c", 0, 3);
        counter_set_total("a.b.t", 1, 10);
        counter_set_total("a.b.t", 1, 7); // never lowers
        gauge_set("a.b.g", 2, -4);
        gauge_add("a.b.g", 2, 1);
        hist_record("a.b.h", 0, 100);
        sample_at(1_000);
        let report = finish();
        assert!(!is_enabled());
        assert_eq!(report.samples, 1);
        let c = report.get("a.b.c", 0).unwrap();
        assert_eq!((c.kind, c.last), (Kind::Counter, 5));
        assert_eq!(c.series().collect::<Vec<_>>(), vec![(1_000, 5)]);
        assert_eq!(report.get("a.b.t", 1).unwrap().last, 10);
        assert_eq!(report.get("a.b.g", 2).unwrap().last, -3);
        let h = report.get("a.b.h", 0).unwrap();
        assert_eq!(h.histogram.as_ref().unwrap().count(), 1);
        assert!(report.violations.is_empty());
    }

    #[test]
    fn sampler_fires_every_boundary_strictly_before_t() {
        fresh(MetricsConfig {
            interval_ps: 10,
            ..MetricsConfig::default()
        });
        gauge_set("l.o.m", 0, 1);
        assert!(sample_pending(1)); // boundary 0 is before t=1
        sample_before(1);
        assert!(!sample_pending(10)); // next boundary is exactly 10
        assert!(sample_pending(11));
        sample_before(35); // fires 10, 20, 30
        let report = finish();
        let series = report.get("l.o.m", 0).unwrap().series();
        assert_eq!(
            series.map(|(t, _)| t).collect::<Vec<_>>(),
            vec![0, 10, 20, 30]
        );
        assert_eq!(report.samples, 4);
    }

    /// Uninstalls on unwind so a poisoned session does not leak into
    /// whatever test the harness runs next on this thread.
    struct Guard;

    impl Drop for Guard {
        fn drop(&mut self) {
            uninstall();
        }
    }

    #[test]
    #[should_panic(expected = "is a counter, touched as a gauge")]
    fn kind_clash_panics() {
        fresh(MetricsConfig::default());
        let _g = Guard;
        counter_add("clash.a.b", 0, 1);
        gauge_set("clash.a.b", 0, 1);
    }

    /// The `(session id, slot)` a handle cached, if any session has
    /// resolved it yet.
    fn cached(h: &Handle) -> Option<(u32, u32)> {
        Some(h.cache.get()).filter(|&(id, _)| id != 0)
    }

    #[test]
    #[should_panic(expected = "is a gauge, touched as a histogram")]
    fn kind_clash_panics_through_a_cached_handle() {
        fresh(MetricsConfig::default());
        let _g = Guard;
        let gauge = Gauge::new("clash.cached.handle", 4);
        gauge.set(1);
        let id = with_session(|s| s.id).unwrap();
        assert_eq!(cached(&gauge.0), Some((id, 0)));
        gauge.set(2);
        Histogram::new("clash.cached.handle", 4).record(1);
    }

    #[test]
    fn a_handle_reused_in_a_second_session_registers_again() {
        let first = Counter::new("reuse.a.first", 0);
        let reused = Counter::new("reuse.a.b", 3);
        fresh(MetricsConfig::default());
        first.add(1);
        reused.add(2);
        let old = cached(&reused.0).unwrap();
        assert_eq!(old.1, 1);
        sample_at(10);
        let report = finish();
        assert_eq!(report.get("reuse.a.b", 3).unwrap().last, 2);

        // Disabled between sessions: the handle stays put and no-ops.
        reused.add(100);
        assert_eq!(cached(&reused.0), Some(old));

        // In a new session the handle is the first instrument, in slot
        // 0, and starts from zero; its cached slot 1 of the old session
        // is not reused.
        fresh(MetricsConfig::default());
        reused.add(5);
        let new = cached(&reused.0).unwrap();
        assert!(new.0 > old.0, "session ids must not repeat");
        assert_eq!(new.1, 0);
        sample_at(10);
        let report = finish();
        assert_eq!(report.instruments.len(), 1);
        let c = report.get("reuse.a.b", 3).unwrap();
        assert_eq!((c.last, c.series().collect()), (5, vec![(10, 5)]));
    }

    #[test]
    fn a_handle_and_its_string_form_are_one_instrument() {
        fresh(MetricsConfig::default());
        let counter = Counter::new("same.a.c", 1);
        let gauge = Gauge::new("same.a.g", 2);
        let hist = Histogram::new("same.a.h", 0);
        counter_add("same.a.c", 1, 2);
        counter.add(3);
        counter_set_total("same.a.c", 1, 4); // below the total: no change
        counter.set_total(9);
        counter_add("same.a.c", 1, 1);
        gauge.set(5);
        gauge_add("same.a.g", 2, -2);
        gauge.add(1);
        hist_record("same.a.h", 0, 7);
        hist.record_n(7, 2);
        batch(|b| {
            b.counter_add(&counter, 10);
            b.gauge_set(&gauge, 8);
            b.hist_record_n(&hist, 9, 1);
        });
        sample_at(10);
        let report = finish();
        assert_eq!(report.instruments.len(), 3);
        assert_eq!(report.get("same.a.c", 1).unwrap().last, 20);
        assert_eq!(report.get("same.a.g", 2).unwrap().last, 8);
        let h = report.get("same.a.h", 0).unwrap();
        assert_eq!(h.histogram.as_ref().unwrap().count(), 4);
    }

    /// Handles sit inline in per-queue and per-tag state, so their size
    /// is heap every world pays, metered or not.
    #[test]
    fn handles_stay_four_words() {
        let words = 4 * std::mem::size_of::<usize>();
        assert!(std::mem::size_of::<Counter>() <= words);
        assert!(std::mem::size_of::<Gauge>() <= words);
        assert!(std::mem::size_of::<Histogram>() <= words);
    }

    #[test]
    fn batch_is_a_no_op_without_a_session() {
        let mut called = false;
        batch(|_| called = true);
        assert!(!called);
    }

    #[test]
    fn one_name_at_two_addresses_is_one_instrument() {
        let leaked: &'static str = Box::leak(String::from("alias.a.b").into_boxed_str());
        assert_ne!(leaked.as_ptr(), "alias.a.b".as_ptr());
        fresh(MetricsConfig::default());
        counter_add("alias.a.b", 1, 2);
        counter_add(leaked, 1, 3);
        counter_add("alias.a.b", 1, 4);
        counter_add(leaked, 2, 1); // another index is another instrument
        sample_at(10);
        let report = finish();
        assert_eq!(report.instruments.len(), 2);
        let c = report.get("alias.a.b", 1).unwrap();
        assert_eq!((c.last, c.series().collect()), (9, vec![(10, 9)]));
    }

    #[test]
    fn counters_saturate_at_i64_max() {
        fresh(MetricsConfig::default());
        counter_add("sat.c.add", 0, 5);
        sample_at(10);
        counter_add("sat.c.add", 0, u64::MAX);
        sample_at(20);
        counter_add("sat.c.add", 0, 1);
        counter_set_total("sat.c.total", 0, 7);
        sample_at(30);
        counter_set_total("sat.c.total", 0, u64::MAX);
        sample_at(40);
        let report = finish();
        let add = report.get("sat.c.add", 0).unwrap();
        assert_eq!(add.last, i64::MAX);
        assert_eq!(
            add.series().collect::<Vec<_>>(),
            vec![(10, 5), (20, i64::MAX), (30, i64::MAX), (40, i64::MAX)]
        );
        assert_eq!(report.get("sat.c.total", 0).unwrap().last, i64::MAX);
        assert_eq!(report.validate(&[]), Ok(()));
    }

    #[test]
    fn posted_credit_watchdog_positive_and_negative() {
        fresh(MetricsConfig::default());
        // Healthy bookkeeping: identity holds.
        counter_add(names::POSTED_GRANTED, 3, 4);
        counter_add(names::POSTED_RELEASED, 3, 1);
        gauge_set(names::POSTED_INFLIGHT, 3, 3);
        sample_at(100);
        // Leak one credit: grant without the in-flight bump.
        counter_add(names::POSTED_GRANTED, 3, 1);
        sample_at(200);
        let report = finish();
        assert_eq!(report.violations.len(), 1);
        let v = &report.violations[0];
        assert_eq!(v.watchdog, Watchdog::PostedCredit);
        assert_eq!((v.t_ps, v.index, v.layer.as_str()), (200, 3, "pcie"));
        assert!(v.detail.contains("granted 5"), "{}", v.detail);
    }

    #[test]
    fn np_leak_watchdog_positive_and_negative() {
        fresh(MetricsConfig::default());
        gauge_set(names::NP_WINDOW, 1, 8);
        gauge_set(names::NP_INFLIGHT, 1, 8); // at the window: legal
        sample_at(100);
        gauge_set(names::NP_INFLIGHT, 1, 9); // beyond: leaked tag
        sample_at(200);
        gauge_set(names::NP_INFLIGHT, 1, -1); // negative: double retire
        sample_at(300);
        let report = finish();
        assert_eq!(report.violations.len(), 2);
        assert!(report
            .violations
            .iter()
            .all(|v| v.watchdog == Watchdog::NpTagLeak && v.index == 1));
        assert_eq!(report.violations[0].t_ps, 200);
        assert_eq!(report.violations[1].t_ps, 300);
    }

    #[test]
    fn queue_stall_watchdog_positive_and_negative() {
        fresh(MetricsConfig {
            stall_samples: 3,
            ..MetricsConfig::default()
        });
        gauge_set(names::QUEUE_BACKLOG, 0, 2);
        counter_add(names::QUEUE_USED, 0, 1);
        // Progress every sample: never trips.
        for t in 1..=5u64 {
            counter_add(names::QUEUE_USED, 0, 1);
            sample_at(t * 100);
        }
        // Backlog with the used counter frozen: trips once at the 3rd
        // stuck sample, and only once for the whole episode.
        for t in 6..=10u64 {
            sample_at(t * 100);
        }
        // Progress resumes, then a second episode trips again.
        counter_add(names::QUEUE_USED, 0, 1);
        sample_at(1_100);
        for t in 12..=15u64 {
            sample_at(t * 100);
        }
        let report = finish();
        assert_eq!(report.violations.len(), 2);
        assert!(report
            .violations
            .iter()
            .all(|v| v.watchdog == Watchdog::QueueStall));
        assert_eq!(report.violations[0].t_ps, 800);
        assert_eq!(report.violations[1].t_ps, 1_400);
    }

    #[test]
    fn fairness_watchdog_armed_only_under_wfq() {
        let run = |policy: i64| {
            fresh(MetricsConfig {
                fairness_samples: 3,
                ..MetricsConfig::default()
            });
            gauge_set(names::ARBITER_POLICY, 0, policy);
            gauge_set(names::ARBITER_PENDING, 0, 1);
            counter_add(names::ARBITER_GRANTS, 0, 1);
            gauge_set(names::ARBITER_PENDING, 1, 0);
            counter_add(names::ARBITER_GRANTS, 1, 1);
            sample_at(0);
            // Tenant 0 stays queued and grant-less while tenant 1 is
            // granted every interval.
            for t in 1..=6u64 {
                counter_add(names::ARBITER_GRANTS, 1, 1);
                sample_at(t * 100);
            }
            finish()
        };
        let wfq = run(names::POLICY_WFQ);
        assert_eq!(wfq.violations.len(), 1);
        let v = &wfq.violations[0];
        assert_eq!(v.watchdog, Watchdog::FairnessDrift);
        assert_eq!(v.index, 0);
        // Strict priority starves by design; round robin is the stall
        // watchdog's problem. Neither arms this one.
        assert!(run(names::POLICY_STRICT).violations.is_empty());
        assert!(run(names::POLICY_RR).violations.is_empty());
    }

    #[test]
    fn fairness_needs_other_tenants_progressing() {
        // Everyone stalled (e.g. the link wedged) is a stall, not a
        // fairness drift: total grants do not advance, so no violation.
        fresh(MetricsConfig {
            fairness_samples: 2,
            ..MetricsConfig::default()
        });
        gauge_set(names::ARBITER_POLICY, 0, names::POLICY_WFQ);
        gauge_set(names::ARBITER_PENDING, 0, 1);
        counter_add(names::ARBITER_GRANTS, 0, 1);
        for t in 0..6u64 {
            sample_at(t * 100);
        }
        assert!(finish().violations.is_empty());
    }

    /// Every watchdog links its partners in whichever order they
    /// register: here each partner registers before the instrument the
    /// watchdog is keyed on. Each invariant holds for three samples and
    /// breaks from the fourth, so a missing link would show as a
    /// violation in the healthy phase or none at all.
    #[test]
    fn watchdogs_link_partners_that_register_first() {
        fresh(MetricsConfig {
            stall_samples: 2,
            fairness_samples: 2,
            ..MetricsConfig::default()
        });
        // Posted credit: released and in-flight before granted.
        counter_add(names::POSTED_RELEASED, 5, 1);
        gauge_set(names::POSTED_INFLIGHT, 5, 4);
        counter_add(names::POSTED_GRANTED, 5, 5);
        // NP leak: window before in-flight, which sits at the window.
        gauge_set(names::NP_WINDOW, 6, 8);
        gauge_set(names::NP_INFLIGHT, 6, 8);
        // Queue stall: used before backlog.
        counter_add(names::QUEUE_USED, 7, 1);
        gauge_set(names::QUEUE_BACKLOG, 7, 4);
        // Fairness: grants before pending, and the policy last.
        counter_add(names::ARBITER_GRANTS, 8, 1);
        counter_add(names::ARBITER_GRANTS, 9, 1);
        gauge_set(names::ARBITER_PENDING, 8, 1);
        gauge_set(names::ARBITER_POLICY, 0, names::POLICY_WFQ);
        for t in 0..5u64 {
            if t < 3 {
                counter_add(names::QUEUE_USED, 7, 1);
                counter_add(names::ARBITER_GRANTS, 8, 1);
            } else if t == 3 {
                counter_add(names::POSTED_GRANTED, 5, 1); // leak a credit
                gauge_set(names::NP_INFLIGHT, 6, 9); // beyond the window
            }
            counter_add(names::ARBITER_GRANTS, 9, 1);
            sample_at(t * 100);
        }
        let report = finish();
        let fired = |w: Watchdog| {
            report
                .violations
                .iter()
                .filter(|v| v.watchdog == w)
                .map(|v| (v.index, v.t_ps))
                .collect::<Vec<_>>()
        };
        assert_eq!(fired(Watchdog::PostedCredit), vec![(5, 300), (5, 400)]);
        assert_eq!(fired(Watchdog::NpTagLeak), vec![(6, 300), (6, 400)]);
        assert_eq!(fired(Watchdog::QueueStall), vec![(7, 400)]);
        assert_eq!(fired(Watchdog::FairnessDrift), vec![(8, 400)]);
    }
}
