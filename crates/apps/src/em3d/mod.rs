//! EM3D: electromagnetic wave propagation on a bipartite graph
//! (Section 5.3).
//!
//! The problem is a computation over a bipartite graph with directed
//! edges from E nodes (electric field) to H nodes (magnetic field) and
//! vice versa. Each step first computes new E values from the weighted sum
//! of in-neighbor H values, then new H values from the weighted sum of
//! in-neighbor E values. The graph is static; a user-specified percentage
//! of edges cross processor boundaries.
//!
//! * EM3D-MP shadows every remote source with a *ghost node* (one per
//!   remote edge, as the paper's variant of the Split-C code does) and
//!   updates all ghosts with one bulk channel message per neighboring
//!   processor per half-step — sender-initiated, bulk, and handshake-free.
//! * EM3D-SM reads remote values in place; the invalidation-based
//!   protocol turns every producer-consumer update into the 4-message
//!   pattern the paper dissects, and round-robin `gmalloc` makes even
//!   private streaming traffic remote (Tables 14–17 variants).

pub mod mp;
pub mod sm;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::common::Validation;

/// Workload and cost parameters for EM3D.
#[derive(Clone, Debug, PartialEq)]
pub struct Em3dParams {
    /// E nodes per processor (the paper runs 1000).
    pub e_per_proc: usize,
    /// H nodes per processor (the paper runs 1000).
    pub h_per_proc: usize,
    /// Out-degree of every node (the paper runs 10).
    pub degree: usize,
    /// Fraction of edges with a remote sink, in percent (the paper: 20).
    pub remote_pct: u32,
    /// Maximum processor distance of a remote edge (1 = nearest
    /// neighbors). The paper's per-processor message counts (Table 13:
    /// 200 channel writes over 50 iterations) imply each processor talks
    /// to its two neighbors only.
    pub span: usize,
    /// Iterations of the main loop (the paper runs 50).
    pub iters: usize,
    /// Number of processors (the paper runs 32).
    pub procs: usize,
    /// Workload RNG seed.
    pub seed: u64,
    /// Cycles per edge in the update kernel (multiply-accumulate plus
    /// index arithmetic).
    pub edge_cost: u64,
    /// Cycles of per-node loop overhead in the update kernel.
    pub node_cost: u64,
    /// Consumer-side cache hint for the shared-memory version.
    pub hint: Em3dHint,
}

impl Default for Em3dParams {
    fn default() -> Self {
        Em3dParams {
            e_per_proc: 1000,
            h_per_proc: 1000,
            degree: 10,
            remote_pct: 20,
            span: 1,
            iters: 50,
            procs: 32,
            seed: 0xe3d_0001,
            edge_cost: 45,
            node_cost: 40,
            hint: Em3dHint::None,
        }
    }
}

impl Em3dParams {
    /// A scaled-down workload for unit tests.
    pub fn small() -> Self {
        Em3dParams {
            e_per_proc: 40,
            h_per_proc: 40,
            degree: 4,
            remote_pct: 25,
            iters: 4,
            procs: 4,
            ..Self::default()
        }
    }
}

/// Consumer-side cache hint used by the shared-memory version (the
/// Section 5.3.4 remedies).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, Default)]
pub enum Em3dHint {
    /// Plain invalidation-protocol sharing (the paper's measured runs).
    #[default]
    None,
    /// Consumers flush remote values after each half-step, turning the
    /// producers' 2-message invalidations into local replacements.
    Flush,
    /// Consumers issue non-binding prefetches for the remote values at
    /// the start of each half-step (cooperative prefetch).
    Prefetch,
}

/// Which side of the bipartite graph a node is on.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Side {
    /// Electric-field node.
    E,
    /// Magnetic-field node.
    H,
}

impl Side {
    /// The opposite side (edges always cross sides).
    pub fn other(self) -> Side {
        match self {
            Side::E => Side::H,
            Side::H => Side::E,
        }
    }
}

/// One directed edge of the generated graph: from a source node (on
/// `from_side` of processor `src_proc`) to a sink on the other side.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Edge {
    /// Which side the source is on.
    pub from_side: Side,
    /// Source processor.
    pub src_proc: usize,
    /// Source node index within its side and processor.
    pub src_idx: usize,
    /// Sink processor.
    pub dst_proc: usize,
    /// Sink node index within the other side on the sink processor.
    pub dst_idx: usize,
}

/// The full generated workload graph, identical for both program versions.
#[derive(Clone, Debug)]
pub struct Em3dGraph {
    /// All edges, grouped by source processor, in generation order.
    pub edges: Vec<Edge>,
    /// Edge weights, aligned with `edges`.
    pub weights: Vec<f64>,
    /// Initial E values, indexed `[proc][idx]`.
    pub e0: Vec<Vec<f64>>,
    /// Initial H values, indexed `[proc][idx]`.
    pub h0: Vec<Vec<f64>>,
}

/// Generates the deterministic workload graph for `p`.
pub fn gen_graph(p: &Em3dParams) -> Em3dGraph {
    let mut rng = SmallRng::seed_from_u64(p.seed);
    let mut edges = Vec::new();
    let mut weights = Vec::new();
    for src_proc in 0..p.procs {
        for (side, count, other_count) in [
            (Side::E, p.e_per_proc, p.h_per_proc),
            (Side::H, p.h_per_proc, p.e_per_proc),
        ] {
            for src_idx in 0..count {
                for _ in 0..p.degree {
                    let remote = p.procs > 1 && rng.gen_range(0..100) < p.remote_pct;
                    let dst_proc = if remote {
                        let span = p.span.clamp(1, p.procs - 1);
                        let mut d = rng.gen_range(0..2 * span) as i64 - span as i64;
                        if d >= 0 {
                            d += 1;
                        }
                        (src_proc as i64 + d).rem_euclid(p.procs as i64) as usize
                    } else {
                        src_proc
                    };
                    let dst_idx = rng.gen_range(0..other_count);
                    edges.push(Edge {
                        from_side: side,
                        src_proc,
                        src_idx,
                        dst_proc,
                        dst_idx,
                    });
                    weights.push(rng.gen_range(0.01..0.99) / (p.degree as f64));
                }
            }
        }
    }
    let mut vals = |count: usize| -> Vec<Vec<f64>> {
        (0..p.procs)
            .map(|_| (0..count).map(|_| rng.gen_range(-1.0..1.0)).collect())
            .collect()
    };
    let e0 = vals(p.e_per_proc);
    let h0 = vals(p.h_per_proc);
    Em3dGraph {
        edges,
        weights,
        e0,
        h0,
    }
}

/// In-edge lists per (proc, sink idx): `(src_proc, src_idx, weight)`, in
/// deterministic edge order. Returns `(in_e, in_h)` where `in_e` holds the
/// in-edges of E sinks (sources are H nodes) and vice versa.
pub(crate) type InEdges = Vec<Vec<Vec<(usize, usize, f64)>>>;

pub(crate) fn build_in_edges(p: &Em3dParams, g: &Em3dGraph) -> (InEdges, InEdges) {
    let mut in_e: InEdges = vec![vec![Vec::new(); p.e_per_proc]; p.procs];
    let mut in_h: InEdges = vec![vec![Vec::new(); p.h_per_proc]; p.procs];
    for (edge, &w) in g.edges.iter().zip(&g.weights) {
        match edge.from_side {
            // E sources feed H sinks; H sources feed E sinks.
            Side::E => in_h[edge.dst_proc][edge.dst_idx].push((edge.src_proc, edge.src_idx, w)),
            Side::H => in_e[edge.dst_proc][edge.dst_idx].push((edge.src_proc, edge.src_idx, w)),
        }
    }
    (in_e, in_h)
}

/// Host-side sequential reference: runs the same computation and returns
/// the final (E, H) values for every processor's nodes.
pub fn reference(p: &Em3dParams, g: &Em3dGraph) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
    reference_with(p, g, &build_in_edges(p, g))
}

/// [`reference`] over in-edge lists the caller already built with
/// [`build_in_edges`].
pub(crate) fn reference_with(
    p: &Em3dParams,
    g: &Em3dGraph,
    (in_e, in_h): &(InEdges, InEdges),
) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
    let mut e = g.e0.clone();
    let mut h = g.h0.clone();
    for _ in 0..p.iters {
        let mut e_new = e.clone();
        for proc in 0..p.procs {
            for i in 0..p.e_per_proc {
                let mut acc = 0.0;
                for &(sp, si, w) in &in_e[proc][i] {
                    acc += w * h[sp][si];
                }
                e_new[proc][i] = e[proc][i] - acc;
            }
        }
        e = e_new;
        let mut h_new = h.clone();
        for proc in 0..p.procs {
            for i in 0..p.h_per_proc {
                let mut acc = 0.0;
                for &(sp, si, w) in &in_h[proc][i] {
                    acc += w * e[sp][si];
                }
                h_new[proc][i] = h[proc][i] - acc;
            }
        }
        h = h_new;
    }
    (e, h)
}

/// Compares simulated final values against the reference.
pub(crate) fn validate_values(
    reference: &(Vec<Vec<f64>>, Vec<Vec<f64>>),
    got_e: &[Vec<f64>],
    got_h: &[Vec<f64>],
) -> Validation {
    let mut err = 0.0f64;
    for (a, b) in reference.0.iter().zip(got_e) {
        for (x, y) in a.iter().zip(b) {
            err = err.max((x - y).abs());
        }
    }
    for (a, b) in reference.1.iter().zip(got_h) {
        for (x, y) in a.iter().zip(b) {
            err = err.max((x - y).abs());
        }
    }
    Validation::from_error("max |value - reference|", err, 1e-9)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn graph_generation_is_deterministic() {
        let p = Em3dParams::small();
        let a = gen_graph(&p);
        let b = gen_graph(&p);
        assert_eq!(a.edges, b.edges);
        assert_eq!(a.weights, b.weights);
    }

    #[test]
    fn edges_respect_requested_remote_fraction() {
        let p = Em3dParams {
            e_per_proc: 400,
            h_per_proc: 400,
            ..Em3dParams::small()
        };
        let g = gen_graph(&p);
        let remote = g.edges.iter().filter(|e| e.src_proc != e.dst_proc).count();
        let frac = remote as f64 / g.edges.len() as f64;
        assert!((frac - 0.25).abs() < 0.03, "remote fraction {frac}");
    }

    #[test]
    fn edge_count_matches_degree() {
        let p = Em3dParams::small();
        let g = gen_graph(&p);
        assert_eq!(
            g.edges.len(),
            p.procs * (p.e_per_proc + p.h_per_proc) * p.degree
        );
    }

    #[test]
    fn reference_values_stay_finite_and_move() {
        let p = Em3dParams::small();
        let g = gen_graph(&p);
        let (e, h) = reference(&p, &g);
        for v in e.iter().chain(&h).flatten() {
            assert!(v.is_finite());
        }
        assert_ne!(e, g.e0, "values must change over iterations");
    }

    #[test]
    fn side_other_flips() {
        assert_eq!(Side::E.other(), Side::H);
        assert_eq!(Side::H.other(), Side::E);
    }
}
