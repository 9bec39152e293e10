//! MSE: microstructure electrostatics (Section 5.1).
//!
//! A boundary-integral solution of the Laplace equation over `N` bodies,
//! each discretized into `M` boundary elements. The `(NM)^2` system
//! matrix is too large to store and is *recomputed as needed*; the system
//! is solved with parallel asynchronous Jacobi iterations whose
//! communication is governed by a distance-based *schedule*: distant
//! bodies interact weakly, so their contributions are refreshed less
//! often. This makes MSE the study's computation-bound program (90% of
//! time computing in MSE-MP, Table 4).
//!
//! * MSE-MP keeps a per-processor copy of the solution vector; when the
//!   schedule calls for updates it sends asynchronous requests to body
//!   owners, which service them (from the CMMD dispatch loop) with bulk
//!   channel replies.
//! * MSE-SM keeps the solution vector in shared memory and simply reads
//!   current values; its extra costs are the start-up wait for node 0's
//!   serial initialization and one load-imbalanced barrier (Table 5).

pub mod mp;
pub mod sm;

use crate::common::Validation;

/// Workload and cost parameters for MSE.
#[derive(Clone, Debug, PartialEq)]
pub struct MseParams {
    /// Number of bodies (the paper runs 256). Must be divisible by
    /// `procs` and arranged on a `grid x grid` layout (`grid^2 == bodies`).
    pub bodies: usize,
    /// Boundary elements per body (the paper runs 20).
    pub elems: usize,
    /// Jacobi iterations (the paper runs 20).
    pub iters: usize,
    /// Number of processors (the paper runs 32).
    pub procs: usize,
    /// Grid side (bodies are centered on integer grid positions).
    pub grid: usize,
    /// Distance divisor of the exchange schedule: bodies at distance `d`
    /// refresh every `1 + floor(d / d_scale)` iterations.
    pub d_scale: f64,
    /// Cycles per element pair in the interaction kernel (the matrix
    /// entry is recomputed: distance, log, divide).
    pub pair_cost: u64,
    /// Serial initialization on node 0 before `create` (shared-memory
    /// version only; the paper's Start-up Wait row).
    pub serial_init_cycles: u64,
    /// Extra initialization node 0 performs after `create` (the source of
    /// the load-imbalanced barrier in Table 5).
    pub unbalanced_init_cycles: u64,
}

impl Default for MseParams {
    fn default() -> Self {
        MseParams {
            bodies: 256,
            elems: 20,
            iters: 20,
            procs: 32,
            grid: 16,
            d_scale: 8.0,
            pair_cost: 90,
            serial_init_cycles: 80_000_000,
            unbalanced_init_cycles: 76_000_000,
        }
    }
}

impl MseParams {
    /// A scaled-down workload for unit tests.
    pub fn small() -> Self {
        MseParams {
            bodies: 16,
            elems: 4,
            iters: 8,
            procs: 4,
            grid: 4,
            d_scale: 2.0,
            serial_init_cycles: 60_000,
            unbalanced_init_cycles: 50_000,
            ..Self::default()
        }
    }

    /// Unknowns in the system.
    pub fn unknowns(&self) -> usize {
        self.bodies * self.elems
    }

    /// Owner processor of body `k`. Bodies are dealt round-robin so every
    /// processor's mix of near and far bodies (and hence its schedule
    /// workload) is balanced.
    pub fn owner(&self, k: usize) -> usize {
        k % self.procs
    }

    /// Storage slot of body `k` in the owner-major solution layout (each
    /// owner's bodies are contiguous, which lets bulk replies land in
    /// place).
    pub fn slot(&self, k: usize) -> usize {
        (k % self.procs) * (self.bodies / self.procs) + k / self.procs
    }

    /// Bodies owned by processor `p`, in slot order.
    pub fn bodies_of(&self, p: usize) -> impl Iterator<Item = usize> + '_ {
        (0..self.bodies / self.procs).map(move |t| p + t * self.procs)
    }

    /// Center of body `k` on the grid.
    pub fn center(&self, k: usize) -> (f64, f64) {
        ((k % self.grid) as f64, (k / self.grid) as f64)
    }

    /// Position of element `e` of body `k` (a circle of radius 0.3).
    pub fn elem_pos(&self, k: usize, e: usize) -> (f64, f64) {
        let (cx, cy) = self.center(k);
        let theta = 2.0 * std::f64::consts::PI * e as f64 / self.elems as f64;
        (cx + 0.3 * theta.cos(), cy + 0.3 * theta.sin())
    }

    /// Distance between body centers.
    pub fn body_dist(&self, a: usize, b: usize) -> f64 {
        let (ax, ay) = self.center(a);
        let (bx, by) = self.center(b);
        ((ax - bx).powi(2) + (ay - by).powi(2)).sqrt()
    }

    /// Refresh period of the (a, b) body pair under the schedule.
    pub fn period(&self, a: usize, b: usize) -> usize {
        1 + (self.body_dist(a, b) / self.d_scale) as usize
    }

    /// Whether the (a, b) interaction is refreshed at `iter`.
    pub fn due(&self, a: usize, b: usize, iter: usize) -> bool {
        iter.is_multiple_of(self.period(a, b))
    }

    /// The off-diagonal matrix entry coupling elements `(body a, e)` and
    /// `(body b, f)`: the 2D Laplace single-layer kernel. This is the
    /// reference definition; the program versions read the same values
    /// through [`Geometry`], which skips recomputing the positions.
    pub fn kernel(&self, a: usize, e: usize, b: usize, f: usize) -> f64 {
        kernel_between(self.elem_pos(a, e), self.elem_pos(b, f))
    }
}

/// The 2D Laplace single-layer kernel between two element positions.
/// Exactly symmetric: swapping the points only negates the differences.
#[inline]
fn kernel_between((px, py): (f64, f64), (qx, qy): (f64, f64)) -> f64 {
    let d2 = (px - qx).powi(2) + (py - qy).powi(2);
    if d2 == 0.0 {
        0.0
    } else {
        -d2.sqrt().ln() / (2.0 * std::f64::consts::PI)
    }
}

/// Every element position of one run, tabulated once (unknown `k * elems
/// + e` holds `elem_pos(k, e)`).
///
/// The matrix is still recomputed on every use, as in the paper, and the
/// simulated clock is charged for it; the host merely stops recomputing
/// the `cos`/`sin` of both positions for every entry. Each value is the
/// same expression on the same `f64` inputs as [`MseParams::kernel`], so
/// results are bit-identical.
#[derive(Clone, Debug)]
pub struct Geometry {
    elems: usize,
    pos: Vec<(f64, f64)>,
}

impl Geometry {
    /// Tabulates the element positions of `p`.
    pub fn new(p: &MseParams) -> Self {
        Geometry {
            elems: p.elems,
            pos: (0..p.bodies)
                .flat_map(|k| (0..p.elems).map(move |e| p.elem_pos(k, e)))
                .collect(),
        }
    }

    /// [`MseParams::kernel`] from the table.
    #[cfg(test)]
    fn kernel(&self, a: usize, e: usize, b: usize, f: usize) -> f64 {
        kernel_between(self.pos[a * self.elems + e], self.pos[b * self.elems + f])
    }

    /// Body `j`'s contribution to body `i`'s rows: `out[e]` is the sum of
    /// `kernel(i, e, j, f) * zj[f]` over `f` in ascending order, skipping
    /// the diagonal entry.
    fn contribution(&self, i: usize, j: usize, zj: &[f64], out: &mut [f64]) {
        let m = self.elems;
        debug_assert!(zj.len() == m && out.len() == m);
        let pj = &self.pos[j * m..(j + 1) * m];
        for (e, (&pe, o)) in self.pos[i * m..(i + 1) * m].iter().zip(out).enumerate() {
            let mut acc = 0.0;
            for (f, (&qf, &zf)) in pj.iter().zip(zj).enumerate() {
                if i != j || e != f {
                    acc += kernel_between(pe, qf) * zf;
                }
            }
            *o = acc;
        }
    }
}

/// Per-element data precomputed at initialization: the (diagonally
/// dominant) diagonal and the right-hand side chosen so the exact
/// solution is all ones.
#[derive(Clone, Debug)]
pub struct MseSystem {
    /// Diagonal entries, one per unknown.
    pub diag: Vec<f64>,
    /// Right-hand side, one per unknown.
    pub rhs: Vec<f64>,
}

/// Builds the diagonal and right-hand side (host side; both program
/// versions charge the equivalent computation to the simulated clock).
///
/// Row `r` needs the sums of `kernel(r, c)` and of its absolute value
/// over every column `c != r`, in ascending `c`. The kernel is exactly
/// symmetric, so each pair `c > r` is evaluated once and added to both
/// rows. Rows are visited in ascending order, so row `c` first receives
/// its columns `r < c` (one per earlier row, ascending), then its own
/// columns `> c`: the same additions in the same order as a plain row
/// loop, hence bit-identical sums.
pub fn build_system(geo: &Geometry) -> MseSystem {
    let nm = geo.pos.len();
    // Per row: (sum of |offdiag|, sum of offdiag), accumulated so far.
    let mut acc = vec![(0.0f64, 0.0f64); nm];
    for r in 0..nm {
        let pr = geo.pos[r];
        let (mut abs_sum, mut sum) = acc[r];
        for (&pc, col) in geo.pos[r + 1..].iter().zip(&mut acc[r + 1..]) {
            let v = kernel_between(pr, pc);
            abs_sum += v.abs();
            sum += v;
            col.0 += v.abs();
            col.1 += v;
        }
        acc[r] = (abs_sum, sum);
    }
    // Diagonal dominance guarantees Jacobi convergence, even with the
    // schedule's bounded staleness.
    let diag: Vec<f64> = acc.iter().map(|&(abs_sum, _)| 1.5 * abs_sum).collect();
    // Exact solution = all ones.
    let rhs = acc
        .iter()
        .zip(&diag)
        .map(|(&(_, sum), &d)| sum + d)
        .collect();
    MseSystem { diag, rhs }
}

/// Validates a computed solution against the all-ones exact answer.
/// Twenty Jacobi iterations with contraction factor ~2/3 leave an error
/// around `(2/3)^iters`; the tolerance accounts for schedule staleness.
pub fn validate_solution(p: &MseParams, z: &[f64]) -> Validation {
    let err = z.iter().map(|&v| (v - 1.0).abs()).fold(0.0f64, f64::max);
    let tol = (2.0f64 / 3.0).powi(p.iters as i32 / 2).max(1e-6);
    Validation::from_error("max |z - 1|", err, tol)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_periods_grow_with_distance() {
        let p = MseParams::default();
        assert_eq!(p.period(0, 0), 1);
        assert_eq!(p.period(0, 1), 1);
        let far = p.period(0, p.bodies - 1);
        assert!(far > 2, "far period {far}");
        assert_eq!(p.period(3, 200), p.period(200, 3), "symmetric");
    }

    #[test]
    fn kernel_is_symmetric_and_finite() {
        let p = MseParams::small();
        for (a, e, b, f) in [(0, 0, 1, 2), (3, 1, 14, 3), (5, 2, 5, 3)] {
            let v = p.kernel(a, e, b, f);
            assert!(v.is_finite());
            assert_eq!(v, p.kernel(b, f, a, e));
        }
    }

    #[test]
    fn system_is_diagonally_dominant() {
        let p = MseParams::small();
        let sys = build_system(&Geometry::new(&p));
        // diag = 1.5 * sum |offdiag| by construction: spot check row 0.
        let mut abs_sum = 0.0;
        for b in 0..p.bodies {
            for f in 0..p.elems {
                if (b, f) != (0, 0) {
                    abs_sum += p.kernel(0, 0, b, f).abs();
                }
            }
        }
        assert!((sys.diag[0] - 1.5 * abs_sum).abs() < 1e-12);
    }

    #[test]
    fn sequential_jacobi_converges_to_ones() {
        let p = MseParams::small();
        let sys = build_system(&Geometry::new(&p));
        let nm = p.unknowns();
        let mut z = vec![0.0f64; nm];
        for _ in 0..p.iters {
            let old = z.clone();
            for a in 0..p.bodies {
                for e in 0..p.elems {
                    let row = a * p.elems + e;
                    let mut s = 0.0;
                    for b in 0..p.bodies {
                        for f in 0..p.elems {
                            if (a, e) != (b, f) {
                                s += p.kernel(a, e, b, f) * old[b * p.elems + f];
                            }
                        }
                    }
                    z[row] = (sys.rhs[row] - s) / sys.diag[row];
                }
            }
        }
        let v = validate_solution(&p, &z);
        assert!(v.passed, "{}", v.detail);
    }

    /// The small workload and one with an odd element count and another
    /// schedule, for the bit-identity oracles below.
    fn oracle_params() -> [MseParams; 2] {
        [
            MseParams::small(),
            MseParams {
                elems: 9,
                d_scale: 3.0,
                ..MseParams::small()
            },
        ]
    }

    #[test]
    fn geometry_kernel_is_bit_identical_to_the_reference() {
        for p in oracle_params() {
            let geo = Geometry::new(&p);
            assert_eq!(geo.pos.len(), p.unknowns());
            for (a, b) in (0..p.bodies).flat_map(|a| (0..p.bodies).map(move |b| (a, b))) {
                for (e, f) in (0..p.elems).flat_map(|e| (0..p.elems).map(move |f| (e, f))) {
                    let (got, want) = (geo.kernel(a, e, b, f), p.kernel(a, e, b, f));
                    assert_eq!(got.to_bits(), want.to_bits(), "{p:?} ({a},{e})-({b},{f})");
                }
            }
        }
    }

    #[test]
    fn geometry_contribution_is_bit_identical_to_the_reference_loop() {
        for p in oracle_params() {
            let geo = Geometry::new(&p);
            let zj: Vec<f64> = (0..p.elems).map(|f| 1.0 - 0.37 * f as f64).collect();
            let mut out = vec![0.0; p.elems];
            for (i, j) in [(0, 0), (0, 1), (5, 12), (p.bodies - 1, 0)] {
                geo.contribution(i, j, &zj, &mut out);
                for (e, got) in out.iter().enumerate() {
                    let mut want = 0.0;
                    for f in 0..p.elems {
                        if (i, e) != (j, f) {
                            want += p.kernel(i, e, j, f) * zj[f];
                        }
                    }
                    assert_eq!(got.to_bits(), want.to_bits(), "{p:?} ({i},{e}) from {j}");
                }
            }
        }
    }

    /// The plain row loop: every row sums its columns in ascending order.
    fn naive_build_system(p: &MseParams) -> MseSystem {
        let nm = p.unknowns();
        let mut diag = vec![0.0f64; nm];
        let mut rhs = vec![0.0f64; nm];
        for a in 0..p.bodies {
            for e in 0..p.elems {
                let row = a * p.elems + e;
                let mut abs_sum = 0.0;
                let mut sum = 0.0;
                for b in 0..p.bodies {
                    for f in 0..p.elems {
                        if (a, e) == (b, f) {
                            continue;
                        }
                        let v = p.kernel(a, e, b, f);
                        abs_sum += v.abs();
                        sum += v;
                    }
                }
                diag[row] = 1.5 * abs_sum;
                rhs[row] = sum + diag[row];
            }
        }
        MseSystem { diag, rhs }
    }

    #[test]
    fn symmetric_build_system_is_bit_identical_to_the_row_loop() {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for p in oracle_params() {
            let fast = build_system(&Geometry::new(&p));
            let slow = naive_build_system(&p);
            assert_eq!(bits(&fast.diag), bits(&slow.diag), "diag {p:?}");
            assert_eq!(bits(&fast.rhs), bits(&slow.rhs), "rhs {p:?}");
        }
    }

    /// FNV-1a-64 over the little-endian bits of every solution value.
    fn artifact_digest(z: &[f64]) -> u64 {
        let bytes: Vec<u8> = z.iter().flat_map(|v| v.to_bits().to_le_bytes()).collect();
        wwt_store::fnv1a(&bytes)
    }

    #[test]
    fn small_scale_solutions_and_cycles_are_pinned() {
        // The benchmark digests cover cycles and counters but not the
        // solution values; these pins catch a host kernel that drifts by
        // even one bit.
        let p = MseParams::small();
        let mp = mp::run(&p, wwt_mp::MpConfig::default());
        assert_eq!(
            (artifact_digest(&mp.artifact), mp.report.elapsed()),
            (0xd33a_f0ab_4373_4fa4, 628_004),
            "MSE-MP"
        );
        let sm = sm::run(&p, wwt_sm::SmConfig::default());
        assert_eq!(
            (artifact_digest(&sm.artifact), sm.report.elapsed()),
            (0x2229_ead6_eb8e_32c9, 743_724),
            "MSE-SM"
        );
    }
}
