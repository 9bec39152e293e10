//! ASCII activity timelines: *where* in time each processor's cycles go.
//!
//! The paper's tables answer "where is time spent" in aggregate; a
//! timeline shows the same attribution resolved over the run. Enable
//! profiling with [`run_experiment_with`](crate::run_experiment_with)
//! (set [`wwt_sim::SimConfig::profile_bucket`]) and render with
//! [`render_timeline`].

use std::fmt::Write as _;
use std::{error, fmt};

use wwt_sim::{CycleMatrix, Kind, Scope, SimReport};

/// Why a timeline could not be rendered.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum TimelineError {
    /// The run recorded no time-resolved profile: it was executed without
    /// [`wwt_sim::SimConfig::profile_bucket`].
    NotProfiled,
}

impl fmt::Display for TimelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TimelineError::NotProfiled => write!(
                f,
                "run was not profiled: set SimConfig::profile_bucket \
                 (e.g. via run_experiment_with) and re-run"
            ),
        }
    }
}

impl error::Error for TimelineError {}

/// The display categories of a timeline cell, most-specific first.
const LEGEND: &[(char, &str)] = &[
    ('#', "computation"),
    ('L', "library / collective computation"),
    ('n', "network interface access"),
    ('m', "local (private) misses"),
    ('S', "shared misses"),
    ('W', "write faults"),
    ('B', "barrier wait"),
    ('l', "lock wait"),
    ('s', "start-up wait"),
    ('.', "other waiting"),
    (' ', "idle / finished"),
];

fn classify(m: &CycleMatrix) -> char {
    // Pick the dominant category of the bucket.
    let app_comp = m.get(Scope::App, Kind::Compute);
    let lib_comp: u64 = [Scope::Lib, Scope::Broadcast, Scope::Reduction, Scope::Sync]
        .into_iter()
        .map(|s| m.get(s, Kind::Compute) + m.get(s, Kind::Wait))
        .sum();
    let net = m.by_kind(Kind::NetAccess);
    let priv_miss = m.by_kind(Kind::PrivMiss) + m.by_kind(Kind::TlbMiss);
    let shared = m.by_kind(Kind::ShMissLocal) + m.by_kind(Kind::ShMissRemote);
    let wfault = m.by_kind(Kind::WriteFault);
    let barrier = m.by_kind(Kind::BarrierWait);
    let lock = m.by_scope(Scope::Lock) + m.by_kind(Kind::LockWait);
    let startup = m.by_scope(Scope::Startup);
    let wait = m.get(Scope::App, Kind::Wait);
    let cats = [
        (app_comp, '#'),
        (lib_comp, 'L'),
        (net, 'n'),
        (priv_miss, 'm'),
        (shared, 'S'),
        (wfault, 'W'),
        (barrier, 'B'),
        (lock, 'l'),
        (startup, 's'),
        (wait, '.'),
    ];
    cats.into_iter()
        .max_by_key(|&(v, _)| v)
        .filter(|&(v, _)| v > 0)
        .map(|(_, c)| c)
        .unwrap_or(' ')
}

/// Renders per-processor activity timelines from a profiled run.
///
/// `cols` is the output width (the report's profile buckets, of width
/// [`SimReport::profile_bucket`], are re-aggregated to fit). Fails with
/// [`TimelineError::NotProfiled`] if the run recorded no profile.
pub fn render_timeline(report: &SimReport, cols: usize) -> Result<String, TimelineError> {
    let bucket = report.profile_bucket().ok_or(TimelineError::NotProfiled)?;
    let elapsed = report.elapsed().max(1);
    let cols = cols.max(10);
    let per_col = elapsed.div_ceil(cols as u64); // cycles per output column
    let mut out = String::new();
    let _ = writeln!(
        out,
        "activity timeline — {} cycles/column, {} cycles total",
        per_col, elapsed
    );
    for p in report.procs() {
        let mut row = String::with_capacity(cols);
        for c in 0..cols {
            let t0 = c as u64 * per_col;
            let t1 = (t0 + per_col).min(elapsed);
            if t0 >= report.proc(p.id).clock {
                row.push(' ');
                continue;
            }
            // Merge the profile buckets overlapping [t0, t1).
            let mut merged = CycleMatrix::new();
            let b0 = (t0 / bucket) as usize;
            let b1 = (t1.saturating_sub(1) / bucket) as usize;
            for b in b0..=b1.min(p.profile.len().saturating_sub(1)) {
                if let Some(m) = p.profile.get(b) {
                    merged.merge(m);
                }
            }
            row.push(classify(&merged));
        }
        let _ = writeln!(out, "{:>4} |{row}|", p.id.to_string());
    }
    let _ = writeln!(out, "\nlegend:");
    for (c, label) in LEGEND {
        let _ = writeln!(out, "  '{c}' {label}");
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{run_experiment_with, Experiment, Scale};
    use wwt_sim::SimConfig;

    #[test]
    fn profiled_run_renders_a_timeline() {
        let sim = SimConfig {
            profile_bucket: Some(2_000),
            ..SimConfig::default()
        };
        let out = run_experiment_with(Experiment::GaussSm, Scale::Test, sim);
        let t = render_timeline(&out.run.report, 80).unwrap();
        assert!(t.contains("activity timeline"));
        assert!(t.contains('#'), "computation must appear:\n{t}");
        // One row per processor plus header and legend.
        let rows = t.lines().filter(|l| l.contains('|')).count();
        assert_eq!(rows, out.run.report.nprocs());
    }

    #[test]
    fn unprofiled_run_is_a_clear_error() {
        let out = crate::run_experiment(Experiment::GaussMp, Scale::Test);
        let err = render_timeline(&out.run.report, 80).unwrap_err();
        assert_eq!(err, TimelineError::NotProfiled);
        assert!(err.to_string().contains("profile_bucket"), "{err}");
    }

    #[test]
    fn profile_buckets_sum_to_the_total_matrix() {
        let sim = SimConfig {
            profile_bucket: Some(1_000),
            ..SimConfig::default()
        };
        let out = run_experiment_with(Experiment::LcpSm, Scale::Test, sim);
        for p in out.run.report.procs() {
            let mut sum = CycleMatrix::new();
            for b in &p.profile {
                sum.merge(b);
            }
            assert_eq!(sum, p.matrix, "{}: profile must cover every charge", p.id);
        }
    }

    #[test]
    fn classify_prefers_the_dominant_category() {
        let mut m = CycleMatrix::new();
        m.add(Scope::App, Kind::Compute, 10);
        m.add(Scope::App, Kind::BarrierWait, 90);
        assert_eq!(classify(&m), 'B');
        assert_eq!(classify(&CycleMatrix::new()), ' ');
    }

    #[test]
    fn classify_covers_every_legend_category() {
        let cases: [(&[(Scope, Kind)], char); 10] = [
            (&[(Scope::App, Kind::Compute)], '#'),
            (&[(Scope::Lib, Kind::Compute)], 'L'),
            (&[(Scope::App, Kind::NetAccess)], 'n'),
            (&[(Scope::App, Kind::PrivMiss)], 'm'),
            (&[(Scope::App, Kind::ShMissRemote)], 'S'),
            (&[(Scope::App, Kind::WriteFault)], 'W'),
            (&[(Scope::App, Kind::BarrierWait)], 'B'),
            (&[(Scope::Lock, Kind::LockWait)], 'l'),
            (&[(Scope::Startup, Kind::Wait)], 's'),
            (&[(Scope::App, Kind::Wait)], '.'),
        ];
        for (cells, want) in cases {
            let mut m = CycleMatrix::new();
            for &(s, k) in cells {
                m.add(s, k, 100);
            }
            assert_eq!(classify(&m), want, "cells {cells:?}");
            // Every classification character appears in the legend.
            assert!(LEGEND.iter().any(|&(c, _)| c == want));
        }
    }

    #[test]
    fn classify_breaks_ties_toward_the_later_category() {
        // max_by_key keeps the last maximum, so on an exact tie the
        // later (more wait-like) category wins. This is load-bearing for
        // rendering: a bucket evenly split between compute and barrier
        // shows as barrier.
        let mut m = CycleMatrix::new();
        m.add(Scope::App, Kind::Compute, 50);
        m.add(Scope::App, Kind::BarrierWait, 50);
        assert_eq!(classify(&m), 'B');
        let mut m = CycleMatrix::new();
        m.add(Scope::App, Kind::Compute, 50);
        m.add(Scope::Lib, Kind::Compute, 50);
        assert_eq!(classify(&m), 'L');
    }

    #[test]
    fn classify_ignores_zero_filled_matrices() {
        let mut m = CycleMatrix::new();
        m.add(Scope::App, Kind::Compute, 0);
        assert_eq!(classify(&m), ' ', "explicit zeros are still idle");
    }
}
