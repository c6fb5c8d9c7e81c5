//! Chrome / Perfetto `trace_event` JSON export.
//!
//! Produces the legacy JSON trace format that `ui.perfetto.dev` and
//! `chrome://tracing` load directly: one process per run (track), one
//! thread per [`Layer`], complete spans as `"X"` events, begin/end
//! pairs as `"B"`/`"E"`, instants as `"i"`. Timestamps are microseconds
//! as floating point (the format's native unit), derived losslessly
//! from the picosecond simulation clock.

use std::fmt::Write as _;

use crate::{Kind, Layer, TraceEvent};
use vf_sim::Time;

fn ts_us(t: Time) -> f64 {
    t.as_ps() as f64 / 1e6
}

fn push_common(out: &mut String, name: &str, ph: char, pid: usize, tid: usize, t: Time) {
    let _ = write!(
        out,
        "{{\"name\":\"{}\",\"ph\":\"{}\",\"pid\":{},\"tid\":{},\"ts\":{:.6}",
        name,
        ph,
        pid,
        tid,
        ts_us(t)
    );
}

fn push_event(out: &mut String, pid: usize, seq: usize, ev: &TraceEvent) {
    let tid = ev.layer.idx() + 1;
    let name = if ev.name.is_empty() { "span" } else { ev.name };
    match ev.kind {
        Kind::Span { id, parent, end } => {
            push_common(out, name, 'X', pid, tid, ev.t);
            let _ = write!(
                out,
                ",\"dur\":{:.6},\"cat\":\"{}\",\"args\":{{\"seq\":{},\"id\":{},\"parent\":{},\"a\":{},\"b\":{}}}}}",
                ts_us(end.saturating_sub(ev.t)),
                ev.layer.name(),
                seq,
                id.0,
                parent.0,
                ev.a,
                ev.b
            );
        }
        Kind::Begin { id, parent } => {
            push_common(out, name, 'B', pid, tid, ev.t);
            let _ = write!(
                out,
                ",\"cat\":\"{}\",\"args\":{{\"seq\":{},\"id\":{},\"parent\":{},\"a\":{},\"b\":{}}}}}",
                ev.layer.name(),
                seq,
                id.0,
                parent.0,
                ev.a,
                ev.b
            );
        }
        Kind::End { .. } => {
            push_common(out, name, 'E', pid, tid, ev.t);
            let _ = write!(out, ",\"cat\":\"{}\"}}", ev.layer.name());
        }
        Kind::Instant => {
            push_common(out, name, 'i', pid, tid, ev.t);
            let _ = write!(
                out,
                ",\"s\":\"t\",\"cat\":\"{}\",\"args\":{{\"seq\":{},\"a\":{},\"b\":{}}}}}",
                ev.layer.name(),
                seq,
                ev.a,
                ev.b
            );
        }
    }
}

fn push_metadata(out: &mut String, pid: usize, track: &str) {
    let _ = write!(
        out,
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"args\":{{\"name\":\"{track}\"}}}}",
    );
    for layer in Layer::ALL {
        let tid = layer.idx() + 1;
        let _ = write!(
            out,
            ",{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"args\":{{\"name\":\"{}\"}}}}",
            layer.name()
        );
        let _ = write!(
            out,
            ",{{\"name\":\"thread_sort_index\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"args\":{{\"sort_index\":{tid}}}}}",
        );
    }
}

/// One Perfetto counter track: a named series of `(t_ps, value)`
/// samples rendered as `"C"` phase events. The trace crate stays
/// metrics-agnostic — callers (the `repro` binary) adapt whatever
/// sampled series they hold into this shape.
#[derive(Clone, Debug, Default)]
pub struct CounterTrack {
    /// Track name as shown in the UI (e.g. `pcie.np.inflight[0]`).
    pub name: String,
    /// Sampled points, ascending in time.
    pub points: Vec<(u64, i64)>,
}

fn push_counters(out: &mut String, pid: usize, counters: &[CounterTrack]) {
    for track in counters {
        for &(t_ps, v) in &track.points {
            let _ = write!(
                out,
                ",{{\"name\":\"{}\",\"ph\":\"C\",\"pid\":{},\"tid\":0,\"ts\":{:.6},\"args\":{{\"value\":{}}}}}",
                track.name,
                pid,
                t_ps as f64 / 1e6,
                v
            );
        }
    }
}

/// Render one event stream as a complete Chrome trace JSON document with
/// a single track named `"trace"`.
pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
    chrome_trace_json_full(&[("trace", events, &[])])
}

/// Render several named event streams (one Perfetto "process" track
/// each — e.g. one per driver model) into a single trace document, each
/// with its counter series merged in as `"C"` tracks under the same
/// process. This is how `repro -- trace` folds the metrics sampler's
/// time-series into the span view.
///
/// An event's `seq` argument is its 0-based position in its track, not
/// the session-wide [`TraceEvent::seq`], so events a caller leaves out
/// of a track do not renumber the ones it keeps.
pub fn chrome_trace_json_full(tracks: &[(&str, &[TraceEvent], &[CounterTrack])]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    for (i, (track, events, counters)) in tracks.iter().enumerate() {
        let pid = i + 1;
        if !first {
            out.push(',');
        }
        first = false;
        push_metadata(&mut out, pid, track);
        for (seq, ev) in events.iter().enumerate() {
            out.push(',');
            push_event(&mut out, pid, seq, ev);
        }
        push_counters(&mut out, pid, counters);
    }
    out.push_str("],\"displayTimeUnit\":\"ns\"}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SpanId;

    fn span(t_ns: u64, end_ns: u64) -> TraceEvent {
        span_seq(t_ns, end_ns, 0)
    }

    fn span_seq(t_ns: u64, end_ns: u64, seq: u64) -> TraceEvent {
        TraceEvent {
            t: Time::from_ns(t_ns),
            layer: Layer::Link,
            kind: Kind::Span {
                id: SpanId(2),
                parent: SpanId(1),
                end: Time::from_ns(end_ns),
            },
            name: "tlp_mem_write",
            seq,
            a: 24,
            b: 1,
        }
    }

    #[test]
    fn document_shape_and_units() {
        let evs = vec![span(1000, 1500)];
        let json = chrome_trace_json(&evs);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("],\"displayTimeUnit\":\"ns\"}"));
        // 1000 ns = 1 µs start, 500 ns = 0.5 µs duration.
        assert!(json.contains("\"ts\":1.000000"), "{json}");
        assert!(json.contains("\"dur\":0.500000"), "{json}");
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"cat\":\"link\""));
        // Metadata names the link thread.
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("{\"name\":\"link\"}"));
    }

    #[test]
    fn multi_track_assigns_distinct_pids() {
        let a = vec![span(0, 10)];
        let b = vec![span(0, 10)];
        let json = chrome_trace_json_full(&[("virtio", &a, &[]), ("xdma", &b, &[])]);
        assert!(json.contains("{\"name\":\"virtio\"}"));
        assert!(json.contains("{\"name\":\"xdma\"}"));
        assert!(json.contains("\"pid\":1"));
        assert!(json.contains("\"pid\":2"));
    }

    #[test]
    fn seq_is_the_position_in_the_exported_track() {
        // Session events 0 and 1 were left out of the export (bring-up
        // a track does not show); the kept ones number from 0.
        let evs = vec![span_seq(0, 10, 2), span_seq(20, 30, 3), span_seq(40, 50, 4)];
        let json = chrome_trace_json(&evs);
        let seqs: Vec<u64> = json
            .split("\"seq\":")
            .skip(1)
            .map(|rest| rest[..rest.find(',').unwrap()].parse().unwrap())
            .collect();
        assert_eq!(seqs, [0, 1, 2], "{json}");
    }

    #[test]
    fn counter_tracks_render_as_c_phase_events() {
        let evs = vec![span(0, 10)];
        let counters = vec![CounterTrack {
            name: "pcie.np.inflight[0]".into(),
            points: vec![(1_000_000, 2), (2_000_000, 0)],
        }];
        let json = chrome_trace_json_full(&[("virtio", &evs, &counters)]);
        assert!(json.contains("\"ph\":\"C\""), "{json}");
        assert!(json.contains("\"name\":\"pcie.np.inflight[0]\""));
        // 1_000_000 ps = 1 µs.
        assert!(json.contains("\"ts\":1.000000,\"args\":{\"value\":2}"));
        assert!(json.contains("\"args\":{\"value\":0}"));
        // Still a well-formed document with the span in it.
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.ends_with("],\"displayTimeUnit\":\"ns\"}"));
    }

    #[test]
    fn begin_end_and_instant_phases() {
        let evs = vec![
            TraceEvent {
                t: Time::from_ns(0),
                layer: Layer::App,
                kind: Kind::Begin {
                    id: SpanId(1),
                    parent: SpanId::NONE,
                },
                name: "rtt",
                seq: 0,
                a: 256,
                b: 0,
            },
            TraceEvent {
                t: Time::from_ns(5),
                layer: Layer::Irq,
                kind: Kind::Instant,
                name: "msix",
                seq: 1,
                a: 0,
                b: 0,
            },
            TraceEvent {
                t: Time::from_ns(10),
                layer: Layer::App,
                kind: Kind::End { id: SpanId(1) },
                name: "",
                seq: 2,
                a: 0,
                b: 0,
            },
        ];
        let json = chrome_trace_json(&evs);
        assert!(json.contains("\"ph\":\"B\""));
        assert!(json.contains("\"ph\":\"E\""));
        assert!(json.contains("\"ph\":\"i\""));
        // Empty end-name falls back to "span".
        assert!(json.contains("\"name\":\"span\",\"ph\":\"E\""));
    }
}
