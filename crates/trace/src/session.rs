//! The thread-local trace session and the emission API every
//! instrumentation point calls.
//!
//! All emission functions are no-ops unless a sink is [`install`]ed on
//! the calling thread, and the disabled path is a single thread-local
//! boolean load — the zero-cost-when-disabled guarantee. None of them
//! draw randomness or mutate simulated time, so tracing can never
//! perturb a run (asserted by the determinism goldens in the root
//! crate's test suite).
//!
//! Every event carries its own instants: a span names its start and
//! end, an instant its time. The session keeps no clock of its own, so
//! no emission depends on what was emitted before it.

use std::cell::{Cell, RefCell};

use vf_sim::Time;

use crate::{Kind, Layer, SpanId, TraceEvent, TraceSink};

struct Session {
    sink: Box<dyn TraceSink>,
    seq: u64,
    next_span: u64,
    /// Open `begin`/`end` spans, innermost last.
    stack: Vec<SpanId>,
}

impl Session {
    fn emit(&mut self, t: Time, layer: Layer, kind: Kind, name: &'static str, a: u64, b: u64) {
        let ev = TraceEvent {
            t,
            layer,
            kind,
            name,
            seq: self.seq,
            a,
            b,
        };
        self.seq += 1;
        self.sink.record(&ev);
    }

    fn parent(&self) -> SpanId {
        self.stack.last().copied().unwrap_or(SpanId::NONE)
    }
}

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static SESSION: RefCell<Option<Session>> = const { RefCell::new(None) };
}

/// True if a sink is installed on this thread. The fast path every
/// emission helper checks first.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.with(|e| e.get())
}

/// Install `sink` as this thread's tracer, enabling emission. Panics if
/// a session is already active (sessions do not nest).
pub fn install(sink: Box<dyn TraceSink>) {
    SESSION.with(|s| {
        let mut s = s.borrow_mut();
        assert!(s.is_none(), "a trace session is already installed");
        *s = Some(Session {
            sink,
            seq: 0,
            next_span: 1,
            stack: Vec::new(),
        });
    });
    ENABLED.with(|e| e.set(true));
}

/// Tear down the session and return the sink (None if none was
/// installed). Emission is disabled afterwards.
pub fn uninstall() -> Option<Box<dyn TraceSink>> {
    ENABLED.with(|e| e.set(false));
    SESSION
        .with(|s| s.borrow_mut().take())
        .map(|sess| sess.sink)
}

/// Tear down the session and return its buffered events (empty for
/// streaming sinks, or when no session was installed).
pub fn finish() -> Vec<TraceEvent> {
    uninstall().map_or(Vec::new(), |sink| sink.into_events())
}

fn with_session<R>(f: impl FnOnce(&mut Session) -> R) -> Option<R> {
    SESSION.with(|s| s.borrow_mut().as_mut().map(f))
}

/// Open a span at `t`; returns its id ([`SpanId::NONE`] when disabled).
/// The span encloses everything emitted until the matching [`end`].
pub fn begin(layer: Layer, name: &'static str, t: Time, a: u64) -> SpanId {
    if !is_enabled() {
        return SpanId::NONE;
    }
    with_session(|s| {
        let id = SpanId(s.next_span);
        s.next_span += 1;
        let parent = s.parent();
        s.emit(t, layer, Kind::Begin { id, parent }, name, a, 0);
        s.stack.push(id);
        id
    })
    .unwrap_or(SpanId::NONE)
}

/// Close span `id` at `t`. Accepts out-of-order closes (the id is
/// removed wherever it sits on the open stack); ignores
/// [`SpanId::NONE`] and unknown ids.
pub fn end(id: SpanId, t: Time) {
    if !is_enabled() || id.is_none() {
        return;
    }
    with_session(|s| {
        if let Some(pos) = s.stack.iter().rposition(|&open| open == id) {
            s.stack.remove(pos);
            s.emit(t, Layer::App, Kind::End { id }, "", 0, 0);
        }
    });
}

/// Emit a complete span `[start, end]` with explicit absolute bounds —
/// the one span form: every instrumentation point knows both instants
/// (link TLPs, counter windows, world-level `t` deltas, the named cost
/// paths, which take their start and return their end). `end`
/// saturates to `start` if it precedes it.
pub fn span_at(layer: Layer, name: &'static str, start: Time, end: Time, a: u64, b: u64) {
    if !is_enabled() {
        return;
    }
    with_session(|s| {
        let id = SpanId(s.next_span);
        s.next_span += 1;
        let parent = s.parent();
        let end = end.max(start);
        s.emit(start, layer, Kind::Span { id, parent, end }, name, a, b);
    });
}

/// Emit a point event at `t`.
pub fn instant(layer: Layer, name: &'static str, t: Time, a: u64, b: u64) {
    if !is_enabled() {
        return;
    }
    with_session(|s| s.emit(t, layer, Kind::Instant, name, a, b));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RingBufferSink;

    /// Every test in this module serializes on the thread-local session,
    /// so run the whole lifecycle in one test to avoid cross-test races
    /// under the multi-threaded test harness.
    #[test]
    fn session_lifecycle_and_emission() {
        assert!(!is_enabled());
        // Disabled: everything is a no-op and begin returns NONE.
        assert_eq!(begin(Layer::App, "x", Time::ZERO, 0), SpanId::NONE);
        span_at(Layer::Link, "x", Time::ZERO, Time::from_ns(5), 0, 0);
        instant(Layer::Irq, "x", Time::ZERO, 0, 0);
        end(SpanId(42), Time::ZERO);
        assert!(finish().is_empty());

        install(Box::new(RingBufferSink::new(64)));
        assert!(is_enabled());

        let root = begin(Layer::App, "rtt", Time::from_ns(100), 256);
        assert!(!root.is_none());
        // Spans nest under the open root, each at the bounds it names.
        span_at(
            Layer::Syscall,
            "sendto",
            Time::from_ns(100),
            Time::from_ns(130),
            0,
            0,
        );
        span_at(
            Layer::Driver,
            "xmit",
            Time::from_ns(130),
            Time::from_ns(150),
            0,
            0,
        );
        span_at(
            Layer::Link,
            "tlp",
            Time::from_ns(150),
            Time::from_ns(170),
            24,
            1,
        );
        instant(Layer::Device, "doorbell", Time::from_ns(170), 0, 0);
        end(root, Time::from_ns(200));

        let evs = finish();
        assert!(!is_enabled());
        assert_eq!(evs.len(), 6);
        // seq is emission order.
        assert!(evs.windows(2).all(|w| w[0].seq + 1 == w[1].seq));
        // Begin/End bracket the children; children parent to the root.
        match evs[0].kind {
            Kind::Begin { id, parent } => {
                assert_eq!(id, root);
                assert_eq!(parent, SpanId::NONE);
            }
            ref k => panic!("expected Begin, got {k:?}"),
        }
        match evs[1].kind {
            Kind::Span { parent, end, .. } => {
                assert_eq!(parent, root);
                assert_eq!(evs[1].t, Time::from_ns(100));
                assert_eq!(end, Time::from_ns(130));
            }
            ref k => panic!("expected Span, got {k:?}"),
        }
        assert_eq!(evs[2].t, Time::from_ns(130));
        match evs[5].kind {
            Kind::End { id } => assert_eq!(id, root),
            ref k => panic!("expected End, got {k:?}"),
        }

        // A fresh session starts from clean state.
        install(Box::new(RingBufferSink::new(4)));
        instant(Layer::App, "again", Time::ZERO, 0, 0);
        let evs = finish();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].seq, 0);
    }
}
