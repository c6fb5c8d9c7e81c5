//! # vf-trace — cross-layer structured tracing for the simulated testbed
//!
//! The paper's core result is a *latency breakdown*: every microsecond of
//! a round trip attributed to the driver, the kernel stack, the link, or
//! the device. The run reports (`vf-core::report`) only surface
//! end-of-run summaries; this crate records the attribution **per
//! event**, so one round trip becomes a tree of spans — syscall → driver
//! → doorbell → descriptor reads → TLPs on the wire → MSI-X → softirq →
//! copy-to-user — that can be exported to Chrome/Perfetto
//! (`ui.perfetto.dev`) or rendered as a per-round-trip table, and cross-
//! checked against the `hw`/`sw` summaries the reports already compute.
//!
//! ## Architecture
//!
//! Instrumentation points throughout the workspace call the session's
//! free functions ([`span_at`], [`begin`]/[`end`], [`instant`]). Each
//! event carries its own instants — a span names its start and its end
//! — and the session keeps no time cursor of its own, so where an event
//! lands never depends on what was emitted before it. The functions are
//! **zero-cost when disabled**: each begins with one thread-local
//! boolean load ([`is_enabled`]) and returns immediately when no sink
//! is installed — no allocation, and crucially **no RNG draws**, so
//! enabling tracing cannot perturb a simulation (the determinism
//! goldens assert this bit-for-bit). Events flow into the [`TraceSink`] chosen at
//! [`install`] time; [`RingBufferSink`] is the bounded in-memory capture
//! every exporter reads, and a caller may supply its own sink (the
//! `vfbench` host-time profiler stamps wall time per record and stores
//! nothing).
//!
//! The tracer is thread-local because every simulated world runs on one
//! thread; parallel sweeps simply run untraced worker threads unless the
//! harness pins the sweep to the installing thread.

#![warn(missing_docs)]

mod breakdown;
mod perfetto;
mod session;
mod sink;

pub use breakdown::{per_rtt, render_table, RttBreakdown, SpanRec};
pub use perfetto::{chrome_trace_json, chrome_trace_json_full, CounterTrack};
pub use session::{begin, end, finish, install, instant, is_enabled, span_at, uninstall};
pub use sink::{RingBufferSink, TraceSink};

use vf_sim::Time;

/// The attribution layers of one round trip — the rows of the paper's
/// breakdown figures, plus an application layer for root spans and
/// wall-clock waits that belong to no kernel/device layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum Layer {
    /// Application: per-round-trip root spans, busy-poll waits.
    App = 0,
    /// Syscall & socket/kernel-stack traversal (entry/exit, UDP path,
    /// copies to/from user, blocking pivots).
    Syscall = 1,
    /// Device-driver code on the host CPU (virtio xmit/NAPI, XDMA
    /// setup/teardown, PMD burst functions, doorbell stores).
    Driver = 2,
    /// The PCIe link: one span per TLP serialized on the wire.
    Link = 3,
    /// The device: DMA engine windows, descriptor fetches, user-logic
    /// processing — everything the FPGA-side counters time.
    Device = 4,
    /// Interrupt delivery: MSI-X landing, hardirq, softirq, wakeups.
    Irq = 5,
}

impl Layer {
    /// Number of layers.
    pub const COUNT: usize = 6;

    /// All layers, in display order.
    pub const ALL: [Layer; Layer::COUNT] = [
        Layer::App,
        Layer::Syscall,
        Layer::Driver,
        Layer::Link,
        Layer::Device,
        Layer::Irq,
    ];

    /// Stable lower-case name (Perfetto category, table column).
    pub fn name(self) -> &'static str {
        match self {
            Layer::App => "app",
            Layer::Syscall => "syscall",
            Layer::Driver => "driver",
            Layer::Link => "link",
            Layer::Device => "device",
            Layer::Irq => "irq",
        }
    }

    /// Index into per-layer arrays.
    pub fn idx(self) -> usize {
        self as usize
    }
}

/// Identifier of one span within a session. `SpanId::NONE` (zero) means
/// "no span" — returned by [`begin`] when tracing is disabled, accepted
/// and ignored by [`end`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SpanId(pub u64);

impl SpanId {
    /// The null span id.
    pub const NONE: SpanId = SpanId(0);

    /// True for the null id.
    pub fn is_none(self) -> bool {
        self.0 == 0
    }
}

/// What a [`TraceEvent`] records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// A span opens at `TraceEvent::t`.
    Begin {
        /// The opening span.
        id: SpanId,
        /// Enclosing span ([`SpanId::NONE`] at top level).
        parent: SpanId,
    },
    /// A span closes at `TraceEvent::t`.
    End {
        /// The closing span.
        id: SpanId,
    },
    /// A complete span `[TraceEvent::t, end]` emitted in one record.
    Span {
        /// The span.
        id: SpanId,
        /// Enclosing span ([`SpanId::NONE`] at top level).
        parent: SpanId,
        /// Absolute end instant (`end >= t`).
        end: Time,
    },
    /// A point event with no duration.
    Instant,
}

/// One structured trace record.
#[derive(Clone, Debug)]
pub struct TraceEvent {
    /// Simulated instant of the event (span start for [`Kind::Span`]).
    pub t: Time,
    /// Attribution layer.
    pub layer: Layer,
    /// Record kind (begin/end/complete-span/instant).
    pub kind: Kind,
    /// Static name of the operation (e.g. `"sendto"`, `"tlp_mem_write"`).
    pub name: &'static str,
    /// Session-monotonic sequence number: total order of emission, the
    /// tie-break for records at equal simulated time.
    pub seq: u64,
    /// First payload scalar — byte counts for copies/TLPs, queue index
    /// for doorbells, payload size for root spans.
    pub a: u64,
    /// Second payload scalar — for TLPs: bit 0 = posted, bit 1 =
    /// upstream direction.
    pub b: u64,
}

impl TraceEvent {
    /// Duration of a complete span; zero for every other kind.
    pub fn dur(&self) -> Time {
        match self.kind {
            Kind::Span { end, .. } => end.saturating_sub(self.t),
            _ => Time::ZERO,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_names_and_indices_are_stable() {
        assert_eq!(Layer::ALL.len(), Layer::COUNT);
        for (i, l) in Layer::ALL.iter().enumerate() {
            assert_eq!(l.idx(), i);
        }
        assert_eq!(Layer::Syscall.name(), "syscall");
        assert_eq!(Layer::Link.name(), "link");
    }

    #[test]
    fn span_dur() {
        let ev = TraceEvent {
            t: Time::from_ns(10),
            layer: Layer::Driver,
            kind: Kind::Span {
                id: SpanId(1),
                parent: SpanId::NONE,
                end: Time::from_ns(25),
            },
            name: "x",
            seq: 0,
            a: 0,
            b: 0,
        };
        assert_eq!(ev.dur(), Time::from_ns(15));
        let inst = TraceEvent {
            kind: Kind::Instant,
            ..ev
        };
        assert_eq!(inst.dur(), Time::ZERO);
    }
}
