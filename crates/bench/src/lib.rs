//! Support for the WWT reproduction's `make_tables` table-regeneration
//! binary.
//!
//! The heavy lifting lives in [`wwt_core::runner`]: experiments are
//! simulated once each (with the union engine configuration for every
//! requested artifact), optionally in parallel and through the run
//! cache. This crate keeps what `make_tables` adds on top: command-line
//! experiment selection, the stderr timing format, and the
//! `BENCH_grid.json` log ([`bench_log`]).

#![warn(missing_docs)]

pub mod bench_log;

use wwt_core::Experiment;

/// Resolves command-line experiment selectors into a run list.
///
/// An exact [`Experiment::id`] (`em3d-sm`) selects exactly that
/// experiment; anything else is a group prefix that must match at a `-`
/// boundary (`em3d` selects every `em3d-*` experiment, but `em3d-s`
/// selects nothing). Duplicates are dropped while preserving
/// first-occurrence order; an empty selector list selects every
/// experiment. Unknown selectors return `Err` with the offending string.
pub fn select_experiments<S: AsRef<str>>(selectors: &[S]) -> Result<Vec<Experiment>, String> {
    let mut selected: Vec<Experiment> = Vec::new();
    for sel in selectors {
        let sel = sel.as_ref();
        let matches: Vec<Experiment> = match Experiment::from_id(sel) {
            Some(e) => vec![e],
            None => {
                let prefix = format!("{sel}-");
                Experiment::ALL
                    .into_iter()
                    .filter(|e| e.id().starts_with(&prefix))
                    .collect()
            }
        };
        if matches.is_empty() {
            return Err(sel.to_string());
        }
        for e in matches {
            if !selected.contains(&e) {
                selected.push(e);
            }
        }
    }
    if selected.is_empty() {
        selected = Experiment::ALL.to_vec();
    }
    Ok(selected)
}

/// One stderr per-item timing line, in the single format shared by the
/// grid, `--arch-sweep`, and `--diff` paths:
/// `timing: <label padded to 28> <secs>s<note>`. `note` carries cache
/// provenance (`" (cached)"`, `" (cache hits H/N)"`) or is empty.
pub fn timing_line(label: &str, secs: f64, note: &str) -> String {
    format!("timing: {label:<28} {secs:>8.2}s{note}")
}

/// The stderr end-of-run timing summary, in the single format shared by
/// every `make_tables` path:
/// `timing: total <items> in <secs>s (jobs=N, cache hits H/N)`.
/// `items` names what was timed (`"18 experiments"`,
/// `"6 points x 2 experiments"`, `"2 diff sides"`).
pub fn timing_total(items: &str, secs: f64, jobs: usize, hits: usize, total: usize) -> String {
    format!("timing: total {items} in {secs:.2}s (jobs={jobs}, cache hits {hits}/{total})")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_id_selects_exactly_one_experiment() {
        assert_eq!(
            select_experiments(&["em3d-sm"]).unwrap(),
            vec![Experiment::Em3dSm]
        );
        assert_eq!(
            select_experiments(&["gauss-sm"]).unwrap(),
            vec![Experiment::GaussSm],
            "gauss-sm must not drag in gauss-sm-push"
        );
    }

    #[test]
    fn group_prefix_selects_the_whole_group_at_dash_boundaries() {
        let em3d = select_experiments(&["em3d"]).unwrap();
        assert_eq!(em3d.len(), 8, "{em3d:?}");
        assert!(em3d.iter().all(|e| e.id().starts_with("em3d-")));
        // A partial word is not a group.
        assert_eq!(select_experiments(&["em3d-s"]), Err("em3d-s".to_string()));
        assert_eq!(select_experiments(&["em3"]), Err("em3".to_string()));
    }

    #[test]
    fn duplicates_are_dropped_preserving_first_occurrence_order() {
        let got = select_experiments(&["mse-mp", "gauss-mp", "mse-mp"]).unwrap();
        assert_eq!(got, vec![Experiment::MseMp, Experiment::GaussMp]);
        // Overlapping group + exact id dedups too.
        let got = select_experiments(&["gauss-mp", "gauss"]).unwrap();
        assert_eq!(got[0], Experiment::GaussMp);
        assert_eq!(got.len(), 4, "{got:?}");
    }

    #[test]
    fn empty_selection_runs_everything() {
        let got = select_experiments::<&str>(&[]).unwrap();
        assert_eq!(got, Experiment::ALL.to_vec());
    }
}
