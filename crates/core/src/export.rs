//! JSON export of experiment results.
//!
//! [`experiment_json`] serializes an [`ExperimentOutput`] — run summary,
//! breakdown tables, and event tables — for downstream tooling;
//! [`breakdown_json`] serializes one table. The trace itself exports via
//! [`wwt_sim::trace::chrome_trace_json`] and the histograms via
//! [`wwt_sim::trace::metrics_json`].

use std::fmt::Write as _;

use wwt_sim::trace::json::{escape, num_f64};

use crate::experiment::ExperimentOutput;
use crate::table::{BreakdownTable, EventTable};

/// Serializes one breakdown table.
pub fn breakdown_json(t: &BreakdownTable) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"title\":\"{}\",\"total\":{},\"rows\":[",
        escape(&t.title),
        num_f64(t.total)
    );
    for (i, r) in t.rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"label\":\"{}\",\"cycles\":{},\"indent\":{}}}",
            escape(&r.label),
            num_f64(r.cycles),
            r.indent
        );
    }
    out.push_str("]}");
    out
}

fn event_table_json(t: &EventTable) -> String {
    let mut out = String::new();
    let _ = write!(out, "{{\"title\":\"{}\",\"rows\":[", escape(&t.title));
    for (i, (label, v)) in t.rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"label\":\"{}\",\"value\":{}}}",
            escape(label),
            num_f64(*v)
        );
    }
    out.push_str("]}");
    out
}

/// Serializes a full experiment result: identification, run summary,
/// validation, stats, and all tables.
pub fn experiment_json(out: &ExperimentOutput) -> String {
    let r = &out.run.report;
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"experiment\":\"{}\",\"scale\":\"{}\",\"paper_tables\":\"{}\",\
         \"nprocs\":{},\"elapsed_cycles\":{},\"events_processed\":{},\
         \"imbalance\":{},\"wait_fraction\":{},\
         \"validation\":{{\"passed\":{},\"detail\":\"{}\"}},",
        out.experiment.id(),
        out.scale.name(),
        escape(out.experiment.paper_tables()),
        r.nprocs(),
        r.elapsed(),
        r.events_processed(),
        num_f64(r.imbalance()),
        num_f64(r.wait_fraction()),
        out.run.validation.passed,
        escape(&out.run.validation.detail),
    );
    s.push_str("\"stats\":{");
    for (i, (name, v)) in out.run.stats.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "\"{}\":{}", escape(name), num_f64(*v));
    }
    s.push_str("},\"tables\":[");
    for (i, t) in out.tables.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&breakdown_json(t));
    }
    s.push_str("],\"events\":[");
    for (i, t) in out.events.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&event_table_json(t));
    }
    s.push_str("]}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{run_experiment, Experiment, Scale};

    #[test]
    fn experiment_json_contains_tables_and_summary() {
        let out = run_experiment(Experiment::GaussMp, Scale::Test);
        let s = experiment_json(&out);
        assert!(s.starts_with("{\"experiment\":\"gauss-mp\""));
        assert!(s.contains("\"scale\":\"test\""));
        assert!(s.contains("\"passed\":true"));
        assert!(s.contains("\"label\":\"Computation\""));
        // Balanced braces as a cheap well-formedness check.
        assert_eq!(s.matches('{').count(), s.matches('}').count());
        assert_eq!(s.matches('[').count(), s.matches(']').count());
    }

    #[test]
    fn breakdown_json_round_trips_labels() {
        let out = run_experiment(Experiment::LcpMp, Scale::Test);
        let s = breakdown_json(&out.tables[0]);
        for r in &out.tables[0].rows {
            assert!(s.contains(&format!("\"label\":\"{}\"", r.label)));
        }
    }
}
