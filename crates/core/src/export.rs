//! JSON export of experiment results.
//!
//! [`experiment_json`] serializes an [`ExperimentSummary`] — run summary,
//! breakdown tables, and event tables — for downstream tooling;
//! [`breakdown_json`] serializes one table. The trace itself exports via
//! [`wwt_sim::trace::chrome_trace_json`] and the histograms via
//! [`wwt_sim::trace::metrics_json`].

use wwt_sim::trace::json::{escape, num_f64};

use crate::experiment::ExperimentSummary;
use crate::table::{BreakdownTable, EventTable, Row};

/// `f` of every item, comma-separated.
fn join<T>(items: &[T], f: impl Fn(&T) -> String) -> String {
    items.iter().map(f).collect::<Vec<_>>().join(",")
}

/// Serializes one breakdown table.
pub fn breakdown_json(t: &BreakdownTable) -> String {
    let row = |r: &Row| {
        format!(
            "{{\"label\":\"{}\",\"cycles\":{},\"indent\":{}}}",
            escape(&r.label),
            num_f64(r.cycles),
            r.indent
        )
    };
    format!(
        "{{\"title\":\"{}\",\"total\":{},\"rows\":[{}]}}",
        escape(&t.title),
        num_f64(t.total),
        join(&t.rows, row)
    )
}

fn event_table_json(t: &EventTable) -> String {
    let row = |(label, v): &(String, f64)| {
        format!(
            "{{\"label\":\"{}\",\"value\":{}}}",
            escape(label),
            num_f64(*v)
        )
    };
    format!(
        "{{\"title\":\"{}\",\"rows\":[{}]}}",
        escape(&t.title),
        join(&t.rows, row)
    )
}

/// Serializes a full experiment result: identification, run summary,
/// validation, stats, and all tables.
pub fn experiment_json(r: &ExperimentSummary) -> String {
    let stat = |(name, v): &(String, f64)| format!("\"{}\":{}", escape(name), num_f64(*v));
    format!(
        "{{\"experiment\":\"{}\",\"scale\":\"{}\",\"paper_tables\":\"{}\",\
         \"nprocs\":{},\"elapsed_cycles\":{},\"events_processed\":{},\
         \"imbalance\":{},\"wait_fraction\":{},\
         \"validation\":{{\"passed\":{},\"detail\":\"{}\"}},\
         \"stats\":{{{}}},\"tables\":[{}],\"events\":[{}]}}\n",
        r.experiment.id(),
        r.scale.name(),
        escape(r.experiment.paper_tables()),
        r.nprocs,
        r.elapsed_cycles,
        r.events_processed,
        num_f64(r.imbalance),
        num_f64(r.wait_fraction),
        r.validation_passed,
        escape(&r.validation_detail),
        join(&r.stats, stat),
        join(&r.tables, breakdown_json),
        join(&r.events, event_table_json),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{run_experiment, Experiment, Scale};

    #[test]
    fn experiment_json_contains_tables_and_summary() {
        let out = run_experiment(Experiment::GaussMp, Scale::Test);
        let s = experiment_json(&out.summary());
        assert!(s.starts_with("{\"experiment\":\"gauss-mp\""));
        assert!(s.contains("\"scale\":\"test\""));
        assert!(s.contains("\"passed\":true"));
        assert!(s.contains("\"label\":\"Computation\""));
        // Balanced braces as a cheap well-formedness check.
        assert_eq!(s.matches('{').count(), s.matches('}').count());
        assert_eq!(s.matches('[').count(), s.matches(']').count());
        // The bytes `experiment_json` wrote when it read the live run
        // (1,227 bytes): rendering from the summary changes none of them.
        assert_eq!(
            (wwt_sim::hash::fnv1a(s.as_bytes()), s.len()),
            (0xf533_f34f_75a9_e6fd, 1_227)
        );
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
