//! Span/matrix reconciliation.
//!
//! The engine accounts cycles twice when tracing is on: every charge lands
//! in the innermost scope's [`CycleMatrix`](crate::CycleMatrix) cell,
//! and every scope push/pop is emitted as a span event. The two views must
//! agree: for each processor and each non-[`Scope::App`] scope, the *self
//! time* of its spans (duration minus directly nested spans) equals the
//! matrix's per-scope total, and the time outside all spans equals the
//! `App` total. [`check_against_matrix`] asserts exactly that.

use crate::{Cycles, Scope, SimReport, TraceData, TraceWhat};

/// Per-processor, per-scope self time recovered from span events.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SelfTimes {
    per_proc: Vec<[Cycles; Scope::ALL.len()]>,
    top_level: Vec<Cycles>,
}

impl SelfTimes {
    /// Self time of `scope` spans on processor `p`: span durations minus
    /// the durations of directly nested spans.
    pub fn scope_self(&self, p: usize, scope: Scope) -> Cycles {
        self.per_proc[p][scope.index()]
    }

    /// Total duration of top-level (unnested) spans on processor `p`.
    /// `clock - top_level_total(p)` is the time attributed to
    /// [`Scope::App`].
    pub fn top_level_total(&self, p: usize) -> Cycles {
        self.top_level[p]
    }

    /// Number of processors covered.
    pub fn nprocs(&self) -> usize {
        self.per_proc.len()
    }
}

/// Replays the span events of `data` and computes per-scope self times
/// for `nprocs` processors.
///
/// # Panics
///
/// Panics if the span stream is malformed: an end without a begin, a
/// mismatched scope, an out-of-range processor, or a span left open.
/// The engine never produces such streams.
pub fn self_times(data: &TraceData, nprocs: usize) -> SelfTimes {
    let mut per_proc = vec![[0u64; Scope::ALL.len()]; nprocs];
    let mut top_level = vec![0u64; nprocs];
    // Per-proc stack of (scope, begin timestamp, nested-child time).
    let mut stacks: Vec<Vec<(Scope, Cycles, Cycles)>> = vec![Vec::new(); nprocs];
    for ev in &data.events {
        let p = ev.proc.index();
        match ev.what {
            TraceWhat::SpanBegin(s) => stacks[p].push((s, ev.at, 0)),
            TraceWhat::SpanEnd(s) => {
                let (scope, begin, child) =
                    stacks[p].pop().expect("span end without matching begin");
                assert_eq!(scope, s, "mismatched span nesting on {}", ev.proc);
                let total = ev.at - begin;
                per_proc[p][s.index()] += total - child;
                match stacks[p].last_mut() {
                    Some(parent) => parent.2 += total,
                    None => top_level[p] += total,
                }
            }
            TraceWhat::Instant(_) => {}
        }
    }
    for (p, st) in stacks.iter().enumerate() {
        assert!(st.is_empty(), "processor {p} ended the run with open spans");
    }
    SelfTimes {
        per_proc,
        top_level,
    }
}

/// Checks that the span stream and the cycle matrices of `report` agree,
/// returning every discrepancy found (empty `Ok` means they reconcile).
///
/// Returns an error if the report holds no trace data.
pub fn check_against_matrix(report: &SimReport) -> Result<(), Vec<String>> {
    let Some(data) = report.trace() else {
        return Err(vec![
            "report holds no trace data (run with SimConfig::trace)".into(),
        ]);
    };
    let st = self_times(data, report.nprocs());
    let mut errs = Vec::new();
    for proc in report.procs() {
        let p = proc.id.index();
        for s in Scope::ALL {
            if s == Scope::App {
                continue;
            }
            let from_spans = st.scope_self(p, s);
            let from_matrix = proc.matrix.by_scope(s);
            if from_spans != from_matrix {
                errs.push(format!(
                    "{}: scope {s}: spans say {from_spans}, matrix says {from_matrix}",
                    proc.id
                ));
            }
        }
        // Everything the matrix recorded advanced the clock, so time
        // outside all spans is exactly the App row.
        if proc.matrix.total() == proc.clock {
            let app_spans = proc.clock - st.top_level_total(p);
            let app_matrix = proc.matrix.by_scope(Scope::App);
            if app_spans != app_matrix {
                errs.push(format!(
                    "{}: scope app: spans say {app_spans}, matrix says {app_matrix}",
                    proc.id
                ));
            }
        }
    }
    if errs.is_empty() {
        Ok(())
    } else {
        Err(errs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ProcId, TraceEvent};

    fn ev(p: usize, at: Cycles, what: TraceWhat) -> TraceEvent {
        TraceEvent {
            proc: ProcId::new(p),
            at,
            what,
        }
    }

    #[test]
    fn nested_spans_split_self_time() {
        let data = TraceData {
            events: vec![
                ev(0, 10, TraceWhat::SpanBegin(Scope::Lib)),
                ev(0, 20, TraceWhat::SpanBegin(Scope::Sync)),
                ev(0, 35, TraceWhat::SpanEnd(Scope::Sync)),
                ev(0, 50, TraceWhat::SpanEnd(Scope::Lib)),
            ],
            metrics: Default::default(),
        };
        let st = self_times(&data, 1);
        assert_eq!(st.scope_self(0, Scope::Sync), 15);
        assert_eq!(st.scope_self(0, Scope::Lib), 25); // 40 total - 15 nested
        assert_eq!(st.top_level_total(0), 40);
    }

    #[test]
    fn sibling_spans_accumulate() {
        let data = TraceData {
            events: vec![
                ev(0, 0, TraceWhat::SpanBegin(Scope::Lock)),
                ev(0, 5, TraceWhat::SpanEnd(Scope::Lock)),
                ev(1, 3, TraceWhat::SpanBegin(Scope::Lock)),
                ev(1, 11, TraceWhat::SpanEnd(Scope::Lock)),
                ev(0, 9, TraceWhat::SpanBegin(Scope::Lock)),
                ev(0, 16, TraceWhat::SpanEnd(Scope::Lock)),
            ],
            metrics: Default::default(),
        };
        let st = self_times(&data, 2);
        assert_eq!(st.scope_self(0, Scope::Lock), 12);
        assert_eq!(st.scope_self(1, Scope::Lock), 8);
    }

    #[test]
    #[should_panic(expected = "open spans")]
    fn unclosed_span_panics() {
        let data = TraceData {
            events: vec![ev(0, 0, TraceWhat::SpanBegin(Scope::Lib))],
            metrics: Default::default(),
        };
        self_times(&data, 1);
    }
}
