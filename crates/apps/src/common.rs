//! Shared harness types for application runs.

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

use wwt_sim::{Counters, CycleMatrix, Cycles, Sim, SimReport};

/// A named measurement snapshot taken at a phase boundary.
///
/// Snapshots are *cumulative*; the harness computes per-phase values by
/// subtracting consecutive snapshots (the paper's EM3D tables split
/// initialization from the main loop this way).
#[derive(Clone, Debug)]
pub struct Phase {
    /// Phase name ("init", "main", ...): the phase *ending* at this
    /// snapshot.
    pub name: String,
    /// Per-processor (clock, cycle matrix, counters) at the boundary.
    pub snapshot: Vec<(Cycles, CycleMatrix, Counters)>,
}

/// Records phase-boundary snapshots during a run.
///
/// One processor (conventionally node 0) calls [`PhaseRecorder::mark`]
/// immediately after a barrier, when all processors are at the same
/// program point.
pub struct PhaseRecorder {
    sim: Rc<Sim>,
    phases: RefCell<Vec<Phase>>,
}

impl fmt::Debug for PhaseRecorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PhaseRecorder")
            .field("marked", &self.phases.borrow().len())
            .finish()
    }
}

impl PhaseRecorder {
    /// Creates a recorder bound to `sim`.
    pub fn new(sim: Rc<Sim>) -> Rc<Self> {
        Rc::new(PhaseRecorder {
            sim,
            phases: RefCell::new(Vec::new()),
        })
    }

    /// Snapshots all processors, ending the phase called `name`.
    pub fn mark(&self, name: &str) {
        self.phases.borrow_mut().push(Phase {
            name: name.to_owned(),
            snapshot: self.sim.snapshot(),
        });
    }

    /// The snapshots recorded so far.
    pub fn phases(&self) -> Vec<Phase> {
        self.phases.borrow().clone()
    }
}

/// Result of an application's built-in self check.
#[derive(Clone, Debug, PartialEq)]
pub struct Validation {
    /// Whether the computed answer is correct.
    pub passed: bool,
    /// Human-readable detail (residuals, error norms).
    pub detail: String,
}

impl Validation {
    /// A passing validation with detail text.
    pub fn pass(detail: impl Into<String>) -> Self {
        Validation {
            passed: true,
            detail: detail.into(),
        }
    }

    /// A failing validation with detail text.
    pub fn fail(detail: impl Into<String>) -> Self {
        Validation {
            passed: false,
            detail: detail.into(),
        }
    }

    /// Builds a validation from an error bounded by a tolerance.
    pub fn from_error(name: &str, err: f64, tol: f64) -> Self {
        Validation {
            passed: err.is_finite() && err <= tol,
            detail: format!("{name} = {err:.3e} (tolerance {tol:.1e})"),
        }
    }
}

/// Everything a single application run produces.
#[derive(Clone, Debug)]
pub struct AppRun {
    /// The full simulator measurement report.
    pub report: SimReport,
    /// Cumulative phase-boundary snapshots. Only EM3D records them (its
    /// `init`/`main` split feeds the paper's per-phase tables); the other
    /// apps leave this empty.
    pub phases: Vec<Phase>,
    /// Outcome of the application's self check.
    pub validation: Validation,
    /// Application-specific scalar statistics (e.g. `steps` for LCP).
    pub stats: Vec<(String, f64)>,
    /// Application-specific result vector (e.g. the computed solution),
    /// for examples and cross-version comparison.
    pub artifact: Vec<f64>,
}

impl AppRun {
    /// Looks up a named statistic.
    pub fn stat(&self, name: &str) -> Option<f64> {
        self.stats.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// The phase snapshot with the given name, if recorded.
    pub fn phase(&self, name: &str) -> Option<&Phase> {
        self.phases.iter().find(|p| p.name == name)
    }
}

/// Deterministically splits `total` items into `parts` contiguous chunks,
/// returning the `[start, end)` range of chunk `i` (block distribution).
pub fn block_range(total: usize, parts: usize, i: usize) -> (usize, usize) {
    let base = total / parts;
    let rem = total % parts;
    let start = i * base + i.min(rem);
    let len = base + usize::from(i < rem);
    (start, start + len)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_range_partitions_exactly() {
        for (total, parts) in [(512, 32), (100, 7), (5, 8), (0, 3)] {
            let mut covered = 0;
            let mut prev_end = 0;
            for i in 0..parts {
                let (s, e) = block_range(total, parts, i);
                assert_eq!(s, prev_end);
                assert!(e >= s);
                covered += e - s;
                prev_end = e;
            }
            assert_eq!(covered, total);
            assert_eq!(prev_end, total);
        }
    }

    #[test]
    fn validation_from_error_bounds() {
        assert!(Validation::from_error("x", 1e-9, 1e-6).passed);
        assert!(!Validation::from_error("x", 1e-3, 1e-6).passed);
        assert!(!Validation::from_error("x", f64::NAN, 1e-6).passed);
    }
}
