//! Chrome trace-event (Perfetto-loadable) JSON export.
//!
//! The output follows the Trace Event Format's JSON array form: one
//! process (`pid` 0, the simulated machine), one thread per simulated
//! processor (`tid` = processor index), `B`/`E` duration events for scope
//! spans, and `i` instant events for packet, miss, barrier, and lock
//! marks. Timestamps are **raw simulated cycles** (the format nominally
//! uses microseconds; viewers only care that the unit is consistent).
//!
//! Load the file at <https://ui.perfetto.dev> or `chrome://tracing`.

use std::fmt::Write as _;

use crate::{Mark, SimReport, TraceData, TraceWhat};

use super::json::escape;

/// Exports the trace of `report` as Chrome trace-event JSON, or `None` if
/// the run was not traced.
pub fn chrome_trace_json(report: &SimReport) -> Option<String> {
    report
        .trace()
        .map(|data| chrome_trace_json_from(data, report.nprocs()))
}

/// Exports `data` (with `nprocs` processor tracks) as Chrome trace-event
/// JSON.
pub fn chrome_trace_json_from(data: &TraceData, nprocs: usize) -> String {
    let mut out = String::new();
    out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    let _ = write!(
        out,
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"args\":{{\"name\":\"wwt\"}}}}"
    );
    for p in 0..nprocs {
        let _ = write!(
            out,
            ",\n{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{p},\
             \"args\":{{\"name\":\"cpu{p}\"}}}}"
        );
    }
    for ev in &data.events {
        let tid = ev.proc.index();
        let ts = ev.at;
        match ev.what {
            TraceWhat::SpanBegin(s) => {
                let _ = write!(
                    out,
                    ",\n{{\"name\":\"{}\",\"cat\":\"scope\",\"ph\":\"B\",\
                     \"pid\":0,\"tid\":{tid},\"ts\":{ts}}}",
                    escape(s.label())
                );
            }
            TraceWhat::SpanEnd(_) => {
                let _ = write!(
                    out,
                    ",\n{{\"ph\":\"E\",\"pid\":0,\"tid\":{tid},\"ts\":{ts}}}"
                );
            }
            TraceWhat::Instant(m) => {
                let _ = write!(
                    out,
                    ",\n{{\"name\":\"{}\",\"cat\":\"mark\",\"ph\":\"i\",\
                     \"pid\":0,\"tid\":{tid},\"ts\":{ts},\"s\":\"t\",\"args\":{{{}}}}}",
                    escape(m.label()),
                    mark_args(&m)
                );
            }
        }
    }
    out.push_str("\n]}\n");
    out
}

fn mark_args(m: &Mark) -> String {
    match m {
        Mark::MsgSend { peer, tag }
        | Mark::MsgRecv { peer, tag }
        | Mark::MsgDispatch { peer, tag } => {
            format!("\"peer\":{},\"tag\":{tag}", peer.index())
        }
        Mark::MissStart { kind } | Mark::MissEnd { kind } => {
            format!("\"kind\":\"{}\"", escape(kind.label()))
        }
        Mark::FaultDrop { peer, tag } | Mark::FaultDup { peer, tag } => {
            format!("\"peer\":{},\"tag\":{tag}", peer.index())
        }
        Mark::FaultDelay { peer, extra } => {
            format!("\"peer\":{},\"extra\":{extra}", peer.index())
        }
        Mark::Retransmit { peer, count } => {
            format!("\"peer\":{},\"count\":{count}", peer.index())
        }
        Mark::BarrierArrive | Mark::BarrierRelease | Mark::LockAcquire | Mark::LockRelease => {
            String::new()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ProcId, Scope, TraceEvent};

    #[test]
    fn exports_spans_instants_and_thread_names() {
        let data = TraceData {
            events: vec![
                TraceEvent {
                    proc: ProcId::new(1),
                    at: 10,
                    what: TraceWhat::SpanBegin(Scope::Lib),
                },
                TraceEvent {
                    proc: ProcId::new(1),
                    at: 12,
                    what: TraceWhat::Instant(Mark::MsgSend {
                        peer: ProcId::new(0),
                        tag: 7,
                    }),
                },
                TraceEvent {
                    proc: ProcId::new(1),
                    at: 30,
                    what: TraceWhat::SpanEnd(Scope::Lib),
                },
            ],
            metrics: Default::default(),
        };
        let s = chrome_trace_json_from(&data, 2);
        assert!(s.starts_with("{\"displayTimeUnit\""));
        assert!(s.contains("\"name\":\"cpu1\""));
        assert!(s.contains(
            "\"name\":\"lib\",\"cat\":\"scope\",\"ph\":\"B\",\"pid\":0,\"tid\":1,\"ts\":10"
        ));
        assert!(s.contains("\"ph\":\"E\",\"pid\":0,\"tid\":1,\"ts\":30"));
        assert!(s.contains("\"name\":\"msg_send\""));
        assert!(s.contains("\"peer\":0,\"tag\":7"));
        assert!(s.trim_end().ends_with("]}"));
    }

    #[test]
    fn begin_end_pairs_are_balanced() {
        let data = TraceData {
            events: vec![
                TraceEvent {
                    proc: ProcId::new(0),
                    at: 0,
                    what: TraceWhat::SpanBegin(Scope::Lock),
                },
                TraceEvent {
                    proc: ProcId::new(0),
                    at: 9,
                    what: TraceWhat::SpanEnd(Scope::Lock),
                },
            ],
            metrics: Default::default(),
        };
        let s = chrome_trace_json_from(&data, 1);
        assert_eq!(
            s.matches("\"ph\":\"B\"").count(),
            s.matches("\"ph\":\"E\"").count()
        );
    }
}
