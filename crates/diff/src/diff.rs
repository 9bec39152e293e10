//! Two-run diffing: phase alignment, exact delta attribution, and
//! report rendering.
//!
//! Phases of run A and run B are aligned with a Needleman–Wunsch pass
//! over breakdown similarity (insertions and deletions model phases that
//! exist on only one side — a retry storm, a skipped setup). The
//! total-cycle delta then decomposes *exactly* over (aligned phase pair,
//! cost kind) cells: the signed entry deltas sum to `total_b − total_a`
//! with no residual, so any share of the delta the report attributes is
//! real, not an estimate. Each entry names the processor group
//! responsible for most of its delta.

use std::fmt::Write as _;

use wwt_sim::Kind;

use crate::cluster::{cluster_procs, format_procs, CLUSTER_DISTANCE};
use crate::profile::{tv_distance, KindVec, RunProfile};

/// Alignment gap penalty, on the total-variation distance scale: two
/// phases align when their breakdowns differ by less than two gaps.
const GAP_PENALTY: f64 = 0.6;

/// The rendered entry list stops once it covers this share of the gross
/// (sum-of-absolute) delta; the footer reports what was shown.
const RENDER_COVERAGE: f64 = 0.99;

/// An entry's responsible processor group is the smallest same-direction
/// set covering this share of the entry's delta.
const PROC_COVERAGE: f64 = 0.90;

/// One attributed cell of the delta: an aligned phase pair, a cost kind,
/// and the signed cycle change summed over processors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DiffEntry {
    /// Phase index in run A (`None` when the phase exists only in B).
    pub phase_a: Option<usize>,
    /// Phase index in run B (`None` when the phase exists only in A).
    pub phase_b: Option<usize>,
    /// The cost kind that moved.
    pub kind: Kind,
    /// Cycles in B minus cycles in A, summed over processors.
    pub delta: i64,
    /// Processor ids responsible for at least 90% of the delta (the
    /// smallest same-direction set that covers it), ascending.
    pub procs: Vec<usize>,
}

/// The structured comparison of two runs.
#[derive(Clone, Debug, PartialEq)]
pub struct DiffReport {
    /// Total cycles of run A (all phases, processors, kinds).
    pub total_a: u64,
    /// Total cycles of run B.
    pub total_b: u64,
    /// The phase alignment: every phase of either run appears exactly
    /// once, in simulated-time order.
    pub alignment: Vec<(Option<usize>, Option<usize>)>,
    /// Nonzero delta cells, sorted by descending magnitude (phase and
    /// kind order break ties). Their deltas sum to exactly
    /// `total_b − total_a`.
    pub entries: Vec<DiffEntry>,
}

impl DiffReport {
    /// `total_b − total_a`, the number the entries decompose.
    pub fn delta(&self) -> i64 {
        self.total_b as i64 - self.total_a as i64
    }

    /// Sum of absolute entry deltas (the gross delta; shares are
    /// measured against this so offsetting moves still surface).
    pub fn gross(&self) -> u64 {
        self.entries.iter().map(|e| e.delta.unsigned_abs()).sum()
    }
}

/// Aligns the phases of two profiles by breakdown similarity.
fn align(a: &RunProfile, b: &RunProfile) -> Vec<(Option<usize>, Option<usize>)> {
    let sa: Vec<_> = a.phases.iter().map(|p| p.signature()).collect();
    let sb: Vec<_> = b.phases.iter().map(|p| p.signature()).collect();
    let (n, m) = (sa.len(), sb.len());
    // cost[i][j]: best cost aligning the first i phases of A with the
    // first j of B. choice: 0 = diagonal, 1 = gap in B (skip A phase),
    // 2 = gap in A (skip B phase).
    let mut cost = vec![vec![0.0f64; m + 1]; n + 1];
    let mut choice = vec![vec![0u8; m + 1]; n + 1];
    for i in 1..=n {
        cost[i][0] = i as f64 * GAP_PENALTY;
        choice[i][0] = 1;
    }
    for j in 1..=m {
        cost[0][j] = j as f64 * GAP_PENALTY;
        choice[0][j] = 2;
    }
    for i in 1..=n {
        for j in 1..=m {
            let diag = cost[i - 1][j - 1] + tv_distance(&sa[i - 1], &sb[j - 1]);
            let skip_a = cost[i - 1][j] + GAP_PENALTY;
            let skip_b = cost[i][j - 1] + GAP_PENALTY;
            // Strict comparisons make the diagonal the deterministic
            // winner of ties, then skipping in A-order.
            let (c, ch) = if diag <= skip_a && diag <= skip_b {
                (diag, 0u8)
            } else if skip_a <= skip_b {
                (skip_a, 1)
            } else {
                (skip_b, 2)
            };
            cost[i][j] = c;
            choice[i][j] = ch;
        }
    }
    let mut out = Vec::new();
    let (mut i, mut j) = (n, m);
    while i > 0 || j > 0 {
        match choice[i][j] {
            0 => {
                out.push((Some(i - 1), Some(j - 1)));
                i -= 1;
                j -= 1;
            }
            1 => {
                out.push((Some(i - 1), None));
                i -= 1;
            }
            _ => {
                out.push((None, Some(j - 1)));
                j -= 1;
            }
        }
    }
    out.reverse();
    out
}

/// The processors responsible for most of a cell's delta: visited in
/// descending same-direction contribution (id breaks ties), taken until
/// [`PROC_COVERAGE`] of the delta magnitude is covered.
fn responsible_procs(
    a: Option<&[KindVec]>,
    b: Option<&[KindVec]>,
    k: usize,
    delta: i64,
) -> Vec<usize> {
    let nprocs = a
        .map_or(0, <[KindVec]>::len)
        .max(b.map_or(0, <[KindVec]>::len));
    let sign = if delta < 0 { -1i64 } else { 1 };
    let mut contrib: Vec<(usize, i64)> = (0..nprocs)
        .map(|p| {
            let va = a.and_then(|s| s.get(p)).map_or(0, |v| v[k]) as i64;
            let vb = b.and_then(|s| s.get(p)).map_or(0, |v| v[k]) as i64;
            (p, (vb - va) * sign)
        })
        .collect();
    contrib.sort_by(|x, y| y.1.cmp(&x.1).then(x.0.cmp(&y.0)));
    let target = (PROC_COVERAGE * delta.unsigned_abs() as f64).ceil() as i64;
    let mut picked = Vec::new();
    let mut acc = 0i64;
    for (p, c) in contrib {
        if acc >= target || c <= 0 {
            break;
        }
        picked.push(p);
        acc += c;
    }
    picked.sort_unstable();
    picked
}

/// Computes the structured diff of two run profiles.
///
/// Pure and total: works for any pair of profiles, including different
/// phase counts and processor counts. The entry deltas sum to exactly
/// `total_b − total_a`.
pub fn diff_profiles(a: &RunProfile, b: &RunProfile) -> DiffReport {
    let alignment = align(a, b);
    let mut entries = Vec::new();
    for &(pa, pb) in &alignment {
        let ka = pa.map(|i| a.phases[i].by_kind());
        let kb = pb.map(|i| b.phases[i].by_kind());
        for (k, &kind) in Kind::ALL.iter().enumerate() {
            let va = ka.as_ref().map_or(0, |v| v[k]) as i64;
            let vb = kb.as_ref().map_or(0, |v| v[k]) as i64;
            let delta = vb - va;
            if delta == 0 {
                continue;
            }
            let procs = responsible_procs(
                pa.map(|i| a.phases[i].per_proc.as_slice()),
                pb.map(|i| b.phases[i].per_proc.as_slice()),
                k,
                delta,
            );
            entries.push(DiffEntry {
                phase_a: pa,
                phase_b: pb,
                kind,
                delta,
                procs,
            });
        }
    }
    entries.sort_by(|x, y| {
        y.delta
            .unsigned_abs()
            .cmp(&x.delta.unsigned_abs())
            .then(x.phase_b.cmp(&y.phase_b))
            .then(x.phase_a.cmp(&y.phase_a))
            .then(x.kind.index().cmp(&y.kind.index()))
    });
    DiffReport {
        total_a: a.total(),
        total_b: b.total(),
        alignment,
        entries,
    }
}

fn fmt_mag(v: f64) -> String {
    if v >= 1e6 {
        format!("{:.2}M", v / 1e6)
    } else if v >= 1e3 {
        format!("{:.1}k", v / 1e3)
    } else {
        format!("{v:.0}")
    }
}

fn fmt_delta(d: i64) -> String {
    format!(
        "{}{}",
        if d < 0 { "-" } else { "+" },
        fmt_mag(d.unsigned_abs() as f64)
    )
}

fn phase_label(pa: Option<usize>, pb: Option<usize>) -> String {
    match (pa, pb) {
        (Some(x), Some(y)) if x == y => format!("{x}"),
        (Some(x), Some(y)) => format!("{x}->{y}"),
        (Some(x), None) => format!("{x} (only in A)"),
        (None, Some(y)) => format!("{y} (only in B)"),
        (None, None) => unreachable!("alignment never emits a double gap"),
    }
}

/// A one-line cluster summary of a phase: heaviest groups first, with
/// the two dominant centroid categories of each.
fn cluster_line(per_proc: &[KindVec]) -> String {
    let clusters = cluster_procs(per_proc, CLUSTER_DISTANCE);
    let mut out = String::new();
    for (i, c) in clusters.iter().take(3).enumerate() {
        if i > 0 {
            out.push_str("; ");
        }
        let mut top: Vec<(usize, f64)> = c.centroid.iter().copied().enumerate().collect();
        top.sort_by(|x, y| y.1.partial_cmp(&x.1).unwrap().then(x.0.cmp(&y.0)));
        let _ = write!(out, "procs {} [", format_procs(&c.members));
        for (j, &(k, share)) in top.iter().take(2).filter(|(_, s)| *s > 0.0).enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{} {:.0}%", Kind::ALL[k].label(), 100.0 * share);
        }
        out.push(']');
    }
    if clusters.len() > 3 {
        let _ = write!(out, "; +{} more clusters", clusters.len() - 3);
    }
    out
}

/// Renders the human-readable diff report.
///
/// Returns the empty string when the runs are identical (equal totals
/// and no delta cells), so a self-diff prints nothing at all.
pub fn render_diff(d: &DiffReport, a: &RunProfile, b: &RunProfile) -> String {
    if d.total_a == d.total_b && d.entries.is_empty() {
        return String::new();
    }
    let mut out = String::new();
    let pct = if d.total_a > 0 {
        format!("{:+.1}%", 100.0 * d.delta() as f64 / d.total_a as f64)
    } else {
        "n/a".to_string()
    };
    let _ = writeln!(
        out,
        "total: {} -> {} cycles ({pct}); {} phases -> {} phases",
        fmt_mag(d.total_a as f64),
        fmt_mag(d.total_b as f64),
        a.phases.len(),
        b.phases.len(),
    );

    let gross = d.gross();
    let _ = writeln!(
        out,
        "\n{:>10} {:>6}  {:<18} {:<22} procs",
        "delta", "share", "phase", "category"
    );
    let mut shown = 0u64;
    let mut rows = 0usize;
    for e in &d.entries {
        let share = if gross > 0 {
            100.0 * e.delta.unsigned_abs() as f64 / gross as f64
        } else {
            0.0
        };
        let _ = writeln!(
            out,
            "{:>10} {:>5.1}%  {:<18} {:<22} {}",
            fmt_delta(e.delta),
            share,
            phase_label(e.phase_a, e.phase_b),
            e.kind.label(),
            format_procs(&e.procs),
        );
        shown += e.delta.unsigned_abs();
        rows += 1;
        if gross > 0 && shown as f64 >= RENDER_COVERAGE * gross as f64 {
            break;
        }
    }
    if rows < d.entries.len() {
        let _ = writeln!(
            out,
            "({} smaller entries omitted; shown entries cover {:.1}% of the gross delta)",
            d.entries.len() - rows,
            if gross > 0 {
                100.0 * shown as f64 / gross as f64
            } else {
                100.0
            }
        );
    }

    let _ = writeln!(out, "\nphase map (A -> B):");
    for &(pa, pb) in &d.alignment {
        let ta = pa.map_or(0, |i| a.phases[i].total());
        let tb = pb.map_or(0, |i| b.phases[i].total());
        let segs = match (pa, pb) {
            (_, Some(i)) => b.phases[i].segments,
            (Some(i), None) => a.phases[i].segments,
            (None, None) => 0,
        };
        let clusters = match (pa, pb) {
            (_, Some(i)) => cluster_line(&b.phases[i].per_proc),
            (Some(i), None) => cluster_line(&a.phases[i].per_proc),
            (None, None) => String::new(),
        };
        let _ = writeln!(
            out,
            "  phase {:<14} {} -> {} ({} segment{}); {}",
            phase_label(pa, pb),
            fmt_mag(ta as f64),
            fmt_mag(tb as f64),
            segs,
            if segs == 1 { "" } else { "s" },
            clusters,
        );
    }
    out
}

fn json_opt(v: Option<usize>) -> String {
    v.map_or_else(|| "null".to_string(), |x| x.to_string())
}

/// Renders the diff as machine-readable JSON (hand-rolled, no
/// dependencies; all floats printed with fixed precision so output is
/// deterministic).
pub fn diff_json(d: &DiffReport, a: &RunProfile, b: &RunProfile) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"schema\":1,\"total_a\":{},\"total_b\":{},\"delta\":{},\"gross\":{},",
        d.total_a,
        d.total_b,
        d.delta(),
        d.gross()
    );
    out.push_str("\"alignment\":[");
    for (i, &(pa, pb)) in d.alignment.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "[{},{}]", json_opt(pa), json_opt(pb));
    }
    out.push_str("],\"entries\":[");
    let gross = d.gross();
    for (i, e) in d.entries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let share = if gross > 0 {
            e.delta.unsigned_abs() as f64 / gross as f64
        } else {
            0.0
        };
        let _ = write!(
            out,
            "{{\"phase_a\":{},\"phase_b\":{},\"kind\":\"{}\",\"delta\":{},\"share\":{:.6},\"procs\":\"{}\"}}",
            json_opt(e.phase_a),
            json_opt(e.phase_b),
            e.kind.label(),
            e.delta,
            share,
            format_procs(&e.procs)
        );
    }
    out.push_str("],");
    for (name, prof) in [("phases_a", a), ("phases_b", b)] {
        let _ = write!(out, "\"{name}\":[");
        for (i, p) in prof.phases.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"index\":{i},\"segments\":{},\"total\":{},\"clusters\":[",
                p.segments,
                p.total()
            );
            for (j, c) in cluster_procs(&p.per_proc, CLUSTER_DISTANCE)
                .iter()
                .enumerate()
            {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "{{\"procs\":\"{}\",\"total\":{}}}",
                    format_procs(&c.members),
                    c.total
                );
            }
            out.push_str("]}");
        }
        out.push(']');
        if name == "phases_a" {
            out.push(',');
        }
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::Phase;

    fn kv(pairs: &[(Kind, u64)]) -> KindVec {
        let mut v = [0u64; Kind::COUNT];
        for &(k, c) in pairs {
            v[k.index()] = c;
        }
        v
    }

    fn profile(phases: Vec<Vec<KindVec>>) -> RunProfile {
        let nprocs = phases.first().map_or(0, Vec::len);
        RunProfile {
            nprocs,
            phases: phases
                .into_iter()
                .map(|per_proc| Phase {
                    segments: 1,
                    per_proc,
                })
                .collect(),
        }
    }

    #[test]
    fn self_diff_is_empty() {
        let a = profile(vec![vec![kv(&[(Kind::Compute, 100)]); 4]]);
        let d = diff_profiles(&a, &a);
        assert_eq!(d.delta(), 0);
        assert!(d.entries.is_empty());
        assert_eq!(render_diff(&d, &a, &a), "");
    }

    #[test]
    fn entries_sum_exactly_to_the_total_delta() {
        let a = profile(vec![
            vec![kv(&[(Kind::Compute, 100), (Kind::BarrierWait, 10)]); 4],
            vec![kv(&[(Kind::Wait, 50)]); 4],
        ]);
        let b = profile(vec![
            vec![kv(&[(Kind::Compute, 100), (Kind::BarrierWait, 30)]); 4],
            vec![kv(&[(Kind::Wait, 20), (Kind::Retry, 90)]); 4],
        ]);
        let d = diff_profiles(&a, &b);
        let sum: i64 = d.entries.iter().map(|e| e.delta).sum();
        assert_eq!(sum, d.delta());
        assert_ne!(d.delta(), 0);
    }

    #[test]
    fn localizes_a_regression_to_kind_and_procs() {
        // Only procs 2-3 gain Retry cycles in phase 1.
        let mut pb1 = vec![kv(&[(Kind::Wait, 50)]); 4];
        pb1[2] = kv(&[(Kind::Wait, 50), (Kind::Retry, 1_000)]);
        pb1[3] = kv(&[(Kind::Wait, 50), (Kind::Retry, 1_100)]);
        let a = profile(vec![
            vec![kv(&[(Kind::Compute, 500)]); 4],
            vec![kv(&[(Kind::Wait, 50)]); 4],
        ]);
        let b = profile(vec![vec![kv(&[(Kind::Compute, 500)]); 4], pb1]);
        let d = diff_profiles(&a, &b);
        let top = &d.entries[0];
        assert_eq!(top.kind, Kind::Retry);
        assert_eq!(top.delta, 2_100);
        assert_eq!(top.procs, vec![2, 3]);
        let text = render_diff(&d, &a, &b);
        assert!(text.contains("retry"), "{text}");
        assert!(text.contains("2-3"), "{text}");
    }

    #[test]
    fn unmatched_phase_becomes_a_gap() {
        let a = profile(vec![vec![kv(&[(Kind::Compute, 500)]); 2]]);
        let b = profile(vec![
            vec![kv(&[(Kind::Compute, 500)]); 2],
            vec![kv(&[(Kind::Retry, 400)]); 2],
        ]);
        let d = diff_profiles(&a, &b);
        assert_eq!(d.alignment, vec![(Some(0), Some(0)), (None, Some(1))]);
        let sum: i64 = d.entries.iter().map(|e| e.delta).sum();
        assert_eq!(sum, 800);
        let text = render_diff(&d, &a, &b);
        assert!(text.contains("only in B"), "{text}");
    }

    #[test]
    fn json_is_well_formed_and_complete() {
        let a = profile(vec![vec![kv(&[(Kind::Compute, 100)]); 2]]);
        let b = profile(vec![vec![kv(&[(Kind::Compute, 150)]); 2]]);
        let d = diff_profiles(&a, &b);
        let s = diff_json(&d, &a, &b);
        assert!(s.contains("\"total_a\":200"));
        assert!(s.contains("\"total_b\":300"));
        assert!(s.contains("\"delta\":100"));
        assert!(s.contains("\"kind\":\"compute\""));
        assert_eq!(s.matches('{').count(), s.matches('}').count(), "{s}");
        assert_eq!(s.matches('[').count(), s.matches(']').count(), "{s}");
    }
}
