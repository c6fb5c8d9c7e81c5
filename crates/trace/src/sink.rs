//! Trace sinks: where emitted [`TraceEvent`]s go.

use std::collections::VecDeque;

use crate::TraceEvent;

/// Destination for trace records. Implementations must not assume events
/// arrive in timestamp order — only in `seq` (emission) order.
pub trait TraceSink {
    /// Consume one record.
    fn record(&mut self, ev: &TraceEvent);

    /// Surrender buffered events at session end ([`crate::finish`]).
    /// Sinks that store nothing return an empty vector.
    fn into_events(self: Box<Self>) -> Vec<TraceEvent> {
        Vec::new()
    }
}

/// Bounded in-memory capture: keeps the most recent `capacity` events,
/// counting (not storing) the overflow.
#[derive(Debug)]
pub struct RingBufferSink {
    capacity: usize,
    buf: VecDeque<TraceEvent>,
    /// Events discarded because the ring was full (oldest-first).
    pub dropped: u64,
}

impl RingBufferSink {
    /// A ring holding at most `capacity` events.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ring capacity must be positive");
        RingBufferSink {
            capacity,
            buf: VecDeque::new(),
            dropped: 0,
        }
    }

    /// Events currently buffered.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing was captured.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

impl TraceSink for RingBufferSink {
    fn record(&mut self, ev: &TraceEvent) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(ev.clone());
    }

    fn into_events(self: Box<Self>) -> Vec<TraceEvent> {
        self.buf.into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Kind, Layer};
    use vf_sim::Time;

    fn ev(seq: u64) -> TraceEvent {
        TraceEvent {
            t: Time::from_ns(seq),
            layer: Layer::Link,
            kind: Kind::Instant,
            name: "e",
            seq,
            a: 1,
            b: 2,
        }
    }

    #[test]
    fn ring_keeps_most_recent() {
        let mut s = RingBufferSink::new(3);
        for i in 0..5 {
            s.record(&ev(i));
        }
        assert_eq!(s.dropped, 2);
        assert_eq!(s.len(), 3);
        let evs = Box::new(s).into_events();
        assert_eq!(evs.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![2, 3, 4]);
    }
}
