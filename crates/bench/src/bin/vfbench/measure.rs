//! Host-side instruments: the counting allocator, process CPU time,
//! the host-speed probe, order statistics, and the wall-clock trace
//! sink that bins host time by `vf_trace::Layer`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};
use std::hint::black_box;
use std::rc::Rc;
use std::time::{Duration, Instant};

use vf_trace::{Layer, TraceEvent, TraceSink};

/// Global allocator that forwards to [`System`] and counts, per thread,
/// calls, bytes requested, live bytes and the live-bytes high-water
/// mark. Every pass runs on one thread, so per-thread counts are the
/// pass's counts; shared atomic counters would put a locked
/// read-modify-write on every allocation, which cost a quarter of
/// `paper_rtt`'s plain-pass time on a 2-core x86-64 host.
pub struct CountingAlloc;

thread_local! {
    // `const`-initialized `Cell`s have no lazy initializer and no
    // destructor, so touching them cannot allocate or re-enter the
    // allocator.
    static COUNTERS: Cell<HeapStats> = const {
        Cell::new(HeapStats { calls: 0, bytes: 0, live: 0, peak: 0 })
    };
}

/// Record an allocation call that requested `requested` bytes and left
/// the live total at `live(old)`.
fn counted(requested: u64, live: impl FnOnce(u64) -> u64) {
    // `try_with` fails only while the thread is being torn down.
    let _ = COUNTERS.try_with(|c| {
        let mut s = c.get();
        s.calls += 1;
        s.bytes += requested;
        s.live = live(s.live);
        s.peak = s.peak.max(s.live);
        c.set(s);
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters never touch
// the memory being managed.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's guarantees on `layout` are passed through.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            let size = layout.size() as u64;
            counted(size, |live| live + size);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's guarantees on `layout` are passed through.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            let size = layout.size() as u64;
            counted(size, |live| live + size);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` (every allocation
        // path above forwards to it) with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        // Memory may be freed on another thread than the one that
        // allocated it, so a thread's live count saturates at zero.
        let _ = COUNTERS.try_with(|c| {
            let mut s = c.get();
            s.live = s.live.saturating_sub(layout.size() as u64);
            c.set(s);
        });
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr`/`layout` come from `System` as in `dealloc`;
        // the caller guarantees `new_size` is valid for `layout`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            let (old, new) = (layout.size() as u64, new_size as u64);
            counted(new, |live| (live + new).saturating_sub(old));
        }
        p
    }
}

/// A snapshot of the calling thread's allocator counters.
#[derive(Clone, Copy, Debug)]
pub struct HeapStats {
    /// Allocation and reallocation calls so far.
    pub calls: u64,
    /// Bytes requested by those calls.
    pub bytes: u64,
    /// Bytes live now.
    pub live: u64,
    /// Most bytes live at once since the last [`reset_peak`].
    pub peak: u64,
}

/// Read the calling thread's allocator counters.
pub fn heap() -> HeapStats {
    COUNTERS.with(Cell::get)
}

/// Restart the calling thread's high-water mark from its live bytes.
pub fn reset_peak() {
    COUNTERS.with(|c| {
        let mut s = c.get();
        s.peak = s.live;
        c.set(s);
    });
}

/// User plus system CPU seconds this process has used (`getrusage`).
#[cfg(unix)]
pub fn cpu_seconds() -> f64 {
    use std::os::raw::{c_int, c_long};

    #[repr(C)]
    struct Timeval {
        sec: c_long,
        usec: c_long,
    }
    /// `struct rusage` on 64-bit Linux and macOS: two timevals, then
    /// fourteen longs this program does not read.
    #[repr(C)]
    struct Rusage {
        utime: Timeval,
        stime: Timeval,
        rest: [c_long; 14],
    }
    extern "C" {
        fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
    }
    const RUSAGE_SELF: c_int = 0;

    let zero = || Timeval { sec: 0, usec: 0 };
    let mut usage = Rusage {
        utime: zero(),
        stime: zero(),
        rest: [0; 14],
    };
    // SAFETY: `usage` is a live, writable `struct rusage` for the
    // duration of the call, and RUSAGE_SELF is a valid `who`.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    secs(&usage.utime) + secs(&usage.stime)
}

/// Seconds one [`HostProbe`] kernel takes on the reference host (the
/// 2-vCPU x86-64 VM of `baseline.txt`), about its median there: the
/// speed that adjusted times are expressed at.
const PROBE_REF_S: f64 = 0.9e-3;

/// How much more the simulator slows than the probe: across forty
/// 30-second runs of the four workloads on the reference host, log pass
/// time rose 1.2–1.5 times as fast as log probe time.
const SENSITIVITY: f64 = 1.3;

/// Measured work between two probes.
const PROBE_EVERY: Duration = Duration::from_millis(10);

/// How fast this process's core and its shared caches serve it right
/// now, as the time of a fixed kernel that shares no code with the
/// simulator: independent integer chains, random read-modify-writes
/// over a 4 MiB table (past a core's L2, so they reach the shared
/// cache), a sort, and 128 KiB copies. On a shared host, other tenants
/// slow a pass by up to 1.7× for stretches of a fraction of a second to
/// minutes, and the probe, run between the pass's runner calls, slows
/// with it. Dividing a pass's time by the slowdown the probe predicts
/// for the same stretch removes most of that, while a change to the
/// simulator moves the pass and not the probe.
///
/// The probe allocates nothing after [`HostProbe::new`], so it leaves
/// the allocator counts alone.
pub struct HostProbe {
    table: Vec<u64>,
    keys: Vec<u32>,
    src: Vec<u8>,
    dst: Vec<u8>,
    /// Measured work since the last probe.
    since: Duration,
    /// Probe seconds, and probes, in the current pass.
    total: f64,
    count: u32,
}

impl HostProbe {
    /// A probe with its buffers allocated.
    pub fn new() -> HostProbe {
        HostProbe {
            table: vec![1; (4 << 20) / 8],
            keys: vec![0; 8_192],
            src: vec![0x5a; 128 << 10],
            dst: vec![0; 128 << 10],
            since: Duration::ZERO,
            total: 0.0,
            count: 0,
        }
    }

    /// Account `work` of measured time; probe once [`PROBE_EVERY`] has
    /// accumulated, so probes sample the pass evenly without being
    /// timed inside it.
    pub fn after(&mut self, work: Duration) {
        self.since += work;
        if self.since >= PROBE_EVERY {
            self.sample();
        }
    }

    /// End a pass: probe once more if work ran since the last probe,
    /// and return the pass's slowdown: its mean probe time over
    /// [`PROBE_REF_S`], raised to [`SENSITIVITY`] (about 1 on the
    /// reference host).
    pub fn finish(&mut self) -> f64 {
        if self.since > Duration::ZERO || self.count == 0 {
            self.sample();
        }
        let slowdown = (self.total / f64::from(self.count) / PROBE_REF_S).powf(SENSITIVITY);
        self.total = 0.0;
        self.count = 0;
        slowdown
    }

    fn sample(&mut self) {
        self.total += self.kernel();
        self.count += 1;
        self.since = Duration::ZERO;
    }

    /// Seconds the fixed kernel takes.
    fn kernel(&mut self) -> f64 {
        let xorshift = |x: &mut u64| {
            *x ^= *x << 13;
            *x ^= *x >> 7;
            *x ^= *x << 17;
            *x
        };
        let t = Instant::now();
        let (mut a, mut b, mut c, mut d) = (1u64, 2u64, 3u64, 4u64);
        for i in 0..100_000u64 {
            a = a.wrapping_add(i ^ (b >> 3));
            b = b.wrapping_add(i ^ (c << 1));
            c = c.wrapping_add(i ^ (d >> 5));
            d = d.wrapping_add(i ^ (a << 2));
            a = black_box(a);
        }
        let mask = self.table.len() as u64 - 1;
        let mut x = (0x2545_f491_4f6c_dd1d ^ a ^ b ^ c ^ d) | 1;
        for i in 0..30_000u64 {
            let slot = &mut self.table[(xorshift(&mut x) & mask) as usize];
            *slot = slot.wrapping_add(i);
        }
        for k in &mut self.keys {
            *k = xorshift(&mut x) as u32;
        }
        self.keys.sort_unstable();
        for _ in 0..16 {
            self.dst.copy_from_slice(black_box(&self.src));
        }
        black_box((&self.table, &self.keys, &self.dst));
        t.elapsed().as_secs_f64()
    }
}

/// Median, quartiles and count of a set of measurements.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Stats {
    /// Median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Number of measurements.
    pub n: usize,
}

impl Stats {
    /// Order statistics of `values`, with quartiles by the method of
    /// Python's `statistics.quantiles(values, n=4)` (exclusive), so a
    /// spread computed here matches one computed there.
    pub fn of(values: &[f64]) -> Stats {
        assert!(!values.is_empty(), "no measurements");
        let mut x = values.to_vec();
        x.sort_by(f64::total_cmp);
        let n = x.len();
        let median = if n % 2 == 1 {
            x[n / 2]
        } else {
            (x[n / 2 - 1] + x[n / 2]) / 2.0
        };
        let quartile = |i: usize| {
            if n == 1 {
                return x[0];
            }
            let m = n + 1;
            let j = (i * m / 4).clamp(1, n - 1);
            let delta = (i * m) as f64 - (j * 4) as f64;
            (x[j - 1] * (4.0 - delta) + x[j] * delta) / 4.0
        };
        Stats {
            median,
            q1: quartile(1),
            q3: quartile(3),
            n,
        }
    }

    /// A quantity known exactly: one measurement.
    pub fn exact(v: f64) -> Stats {
        Stats::of(&[v])
    }

    /// Interquartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median.abs()
    }

    /// Apply `f` to every order statistic (a monotone map keeps them
    /// ordered; a decreasing one swaps the quartiles back).
    pub fn map(self, f: impl Fn(f64) -> f64) -> Stats {
        let (a, b) = (f(self.q1), f(self.q3));
        Stats {
            median: f(self.median),
            q1: a.min(b),
            q3: a.max(b),
            n: self.n,
        }
    }
}

/// Host time binned by the trace layer of the record that ended each
/// interval, while a runner call is open.
#[derive(Debug)]
pub struct HostClock {
    last: Instant,
    /// Host time per [`Layer`], indexed by [`Layer::idx`].
    pub layers: [Duration; Layer::COUNT],
    /// Host time after a call's last record (no record to charge it to).
    pub unattributed: Duration,
    /// Trace records seen.
    pub records: u64,
}

impl HostClock {
    /// A clock with nothing binned.
    pub fn new() -> Rc<RefCell<HostClock>> {
        Rc::new(RefCell::new(HostClock {
            last: Instant::now(),
            layers: [Duration::ZERO; Layer::COUNT],
            unattributed: Duration::ZERO,
            records: 0,
        }))
    }

    /// A runner call opens at `now`.
    pub fn open(&mut self, now: Instant) {
        self.last = now;
    }

    /// The runner call that [`HostClock::open`]ed returns at `now`.
    pub fn close(&mut self, now: Instant) {
        self.unattributed += now.saturating_duration_since(self.last);
        self.last = now;
    }
}

/// A `vf_trace` sink that stores nothing: it stamps `Instant::now()`
/// on every record and charges the host time since the previous stamp
/// to the record's layer.
pub struct WallClockSink(pub Rc<RefCell<HostClock>>);

impl TraceSink for WallClockSink {
    fn record(&mut self, ev: &TraceEvent) {
        let now = Instant::now();
        let mut c = self.0.borrow_mut();
        let dt = now.saturating_duration_since(c.last);
        c.layers[ev.layer.idx()] += dt;
        c.last = now;
        c.records += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocator_counts_a_known_allocation() {
        let before = heap();
        let v: Vec<u8> = Vec::with_capacity(1 << 20);
        let during = heap();
        drop(std::hint::black_box(v));
        let after = heap();
        assert_eq!(during.calls, before.calls + 1);
        assert_eq!(during.bytes, before.bytes + (1 << 20));
        assert_eq!(during.live, before.live + (1 << 20));
        assert!(during.peak >= during.live);
        assert_eq!(after.live, before.live);
    }

    /// Probing between measured work allocates nothing, and a pass
    /// gets a positive slowdown even when it ran too briefly to probe.
    #[test]
    fn probe_allocates_nothing_and_reports_a_slowdown() {
        let mut probe = HostProbe::new();
        let before = heap();
        probe.after(Duration::from_millis(25));
        probe.after(Duration::from_millis(1));
        let slowdown = probe.finish();
        assert_eq!(heap().calls, before.calls);
        assert!(slowdown.is_finite() && slowdown > 0.0);
        assert!(probe.finish() > 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let s = Stats::of(&(1..=10).map(f64::from).collect::<Vec<_>>());
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Stats::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        assert_eq!(Stats::exact(4.0).spread(), 0.0);
    }

    #[test]
    fn cpu_time_advances_with_work() {
        let t0 = cpu_seconds();
        let mut x = 0u64;
        let start = Instant::now();
        while start.elapsed() < Duration::from_millis(30) {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(cpu_seconds() > t0);
    }
}
