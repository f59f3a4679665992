//! Server-sent-events framing for `GET /events`.
//!
//! The endpoint is a *snapshot tail*, not an unbounded stream: one
//! request returns every retained trace event with `seq >=
//! from`, framed per the SSE wire format, then closes. A client
//! resumes by passing the last `id:` it saw plus one — the protocol a
//! browser `EventSource` speaks natively (via `Last-Event-ID`), kept
//! deterministic here for scripted drivers on the virtual clock.
//! Events that overflowed the bounded ring before the client caught up
//! are reported in a leading comment frame rather than silently
//! skipped.

use std::fmt::Write as _;

use simcore::TracedEvent;

use crate::json::JsonWriter;

/// Frames a tail of trace events. `missed` is how many events with
/// `seq >= from` the ring has already dropped.
pub fn render_tail(events: &[TracedEvent], missed: u64) -> String {
    let mut out = String::with_capacity(16 + 192 * events.len());
    let _ = write!(out, ": missed={missed}\n\n");
    let mut detail = String::new();
    for te in events {
        let _ = write!(out, "id: {}\nevent: ", te.seq);
        out.push_str(te.event.kind().name());
        out.push_str("\ndata: ");
        // `data:` carries a small JSON object; the event payload is the
        // kernel's own Debug form, which is stable per-build and easy
        // to grep.
        detail.clear();
        let _ = write!(detail, "{:?}", te.event);
        let mut w = JsonWriter::new(&mut out);
        w.open_obj().key("at_s").num(te.at.as_secs());
        w.key("detail").str(&detail).close_obj();
        out.push_str("\n\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::{SimEvent, SimTime};

    fn sample(seq: u64) -> TracedEvent {
        TracedEvent {
            seq,
            at: SimTime::from_secs(1.5),
            event: SimEvent::InferenceRouted {
                service: 2,
                device: 5,
                violation: false,
            },
        }
    }

    #[test]
    fn frames_follow_the_sse_wire_format() {
        let body = render_tail(&[sample(7), sample(8)], 3);
        let frames: Vec<&str> = body.split("\n\n").filter(|f| !f.is_empty()).collect();
        assert_eq!(frames.len(), 3); // comment + two events
        assert_eq!(frames[0], ": missed=3");
        assert!(frames[1].starts_with("id: 7\nevent: inference-routed\ndata: "));
        assert!(frames[2].starts_with("id: 8\n"));
        // data lines are valid JSON with the expected fields.
        let data = frames[1]
            .lines()
            .nth(2)
            .unwrap()
            .strip_prefix("data: ")
            .unwrap();
        let v = crate::json::Json::parse(data).unwrap();
        assert_eq!(v.get("at_s").unwrap().as_f64(), Some(1.5));
        assert!(v
            .get("detail")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("InferenceRouted"));
    }

    #[test]
    fn empty_tail_is_just_the_comment() {
        assert_eq!(render_tail(&[], 0), ": missed=0\n\n");
    }
}
