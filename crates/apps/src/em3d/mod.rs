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

use std::ops::Range;

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
    E = 0,
    /// Magnetic-field node.
    H = 1,
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
/// Indices are `u32` ([`gen_graph`] checks that they fit), so an edge
/// takes 20 bytes.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Edge {
    /// Which side the source is on.
    pub from_side: Side,
    /// Source processor.
    pub src_proc: u32,
    /// Source node index within its side and processor.
    pub src_idx: u32,
    /// Sink processor.
    pub dst_proc: u32,
    /// Sink node index within the other side on the sink processor.
    pub dst_idx: u32,
}

/// The full generated workload graph, identical for both program versions.
#[derive(Clone, Debug)]
pub struct Em3dGraph {
    /// All edges, grouped by source processor, in generation order:
    /// processor `q`'s out-edges are `edges[q * n .. (q + 1) * n]` with
    /// `n = (e_per_proc + h_per_proc) * degree`.
    pub edges: Vec<Edge>,
    /// Edge weights, aligned with `edges`.
    pub weights: Vec<f64>,
    /// Initial E values, indexed `[proc][idx]`.
    pub e0: Vec<Vec<f64>>,
    /// Initial H values, indexed `[proc][idx]`.
    pub h0: Vec<Vec<f64>>,
}

/// Generates the deterministic workload graph for `p`.
///
/// Panics, before allocating anything, if the edge count does not fit
/// in `u32`. Whenever an edge exists, every processor id and node index
/// the graph stores is below the edge count, so this bounds them too.
pub fn gen_graph(p: &Em3dParams) -> Em3dGraph {
    let n_edges = p
        .e_per_proc
        .checked_add(p.h_per_proc)
        .and_then(|n| n.checked_mul(p.procs))
        .and_then(|n| n.checked_mul(p.degree))
        .filter(|&n| u32::try_from(n).is_ok())
        .unwrap_or_else(|| {
            panic!(
                "EM3D graph too large: {} procs x ({} E + {} H nodes) x degree {} \
                 overflows the u32 edge count and node indices",
                p.procs, p.e_per_proc, p.h_per_proc, p.degree
            )
        });
    let mut rng = SmallRng::seed_from_u64(p.seed);
    let mut edges = Vec::with_capacity(n_edges);
    let mut weights = Vec::with_capacity(n_edges);
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
                        src_proc: src_proc as u32,
                        src_idx: src_idx as u32,
                        dst_proc: dst_proc as u32,
                        dst_idx: dst_idx as u32,
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

/// One processor's in-edges on one side, compressed by row: sink `i`'s
/// in-edges are `edges[start[i]..start[i + 1]]`, each `(src_proc,
/// src_idx, weight)`, in global edge order.
#[derive(Debug)]
pub(crate) struct Csr {
    start: Vec<u32>,
    edges: Vec<(u32, u32, f64)>,
}

impl Csr {
    /// Every in-edge of every sink, sink by sink.
    pub fn edges(&self) -> &[(u32, u32, f64)] {
        &self.edges
    }

    /// Each sink's range in [`Csr::edges`], in sink order.
    pub fn ranges(&self) -> impl Iterator<Item = Range<usize>> + '_ {
        self.start.windows(2).map(|w| w[0] as usize..w[1] as usize)
    }
}

/// The one in-edge table every EM3D version reads: a [`Csr`] per
/// (processor, sink side), plus each edge's place in it.
#[derive(Debug)]
pub(crate) struct InEdges {
    /// Indexed `proc * 2 + side` (E sinks, then H sinks).
    tables: Vec<Csr>,
    slot: Vec<u32>,
}

impl InEdges {
    /// Aligned with `Em3dGraph::edges`: each edge's index in its sink's
    /// table (EM3D-SM's node-major slot in the sink's in-edge arrays).
    pub fn slots(&self) -> &[u32] {
        &self.slot
    }

    /// The in-edges of `sink_side` nodes on processor `proc`.
    pub fn table(&self, proc: usize, sink_side: Side) -> &Csr {
        &self.tables[proc * 2 + sink_side as usize]
    }
}

/// Builds the in-edge table with a counting pass, then fills it in
/// global edge order, so each sink's in-edges keep that order and the
/// reference's sums are the simulated versions' sums.
pub(crate) fn build_in_edges(p: &Em3dParams, g: &Em3dGraph) -> InEdges {
    let table = |e: &Edge| e.dst_proc as usize * 2 + e.from_side.other() as usize;
    let mut tables: Vec<Csr> = (0..p.procs)
        .flat_map(|_| [p.e_per_proc, p.h_per_proc])
        .map(|sinks| Csr {
            start: vec![0; sinks + 1],
            edges: Vec::new(),
        })
        .collect();
    for e in &g.edges {
        tables[table(e)].start[e.dst_idx as usize + 1] += 1;
    }
    for t in &mut tables {
        for i in 1..t.start.len() {
            t.start[i] += t.start[i - 1];
        }
        t.edges = vec![(0, 0, 0.0); t.start[t.start.len() - 1] as usize];
    }
    let mut cursor: Vec<Vec<u32>> = tables.iter().map(|t| t.start.clone()).collect();
    let slot = g
        .edges
        .iter()
        .zip(&g.weights)
        .map(|(e, &w)| {
            let t = table(e);
            let c = &mut cursor[t][e.dst_idx as usize];
            tables[t].edges[*c as usize] = (e.src_proc, e.src_idx, w);
            *c += 1;
            *c - 1
        })
        .collect();
    InEdges { tables, slot }
}

/// Host-side sequential reference: runs the same computation and returns
/// the final (E, H) values for every processor's nodes.
pub fn reference(p: &Em3dParams, g: &Em3dGraph) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
    reference_with(p, g, &build_in_edges(p, g))
}

/// [`reference`] over the in-edge table the caller already built with
/// [`build_in_edges`].
pub(crate) fn reference_with(
    p: &Em3dParams,
    g: &Em3dGraph,
    ins: &InEdges,
) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
    // One half-step: every sink on `side` subtracts the weighted sum of
    // its in-neighbors' `src` values.
    let half = |side: Side, sink: &[Vec<f64>], src: &[Vec<f64>]| -> Vec<Vec<f64>> {
        (0..p.procs)
            .map(|proc| {
                let t = ins.table(proc, side);
                t.ranges()
                    .zip(&sink[proc])
                    .map(|(row, &old)| {
                        let mut acc = 0.0;
                        for &(sp, si, w) in &t.edges()[row] {
                            acc += w * src[sp as usize][si as usize];
                        }
                        old - acc
                    })
                    .collect()
            })
            .collect()
    };
    let mut e = g.e0.clone();
    let mut h = g.h0.clone();
    for _ in 0..p.iters {
        e = half(Side::E, &e, &h);
        h = half(Side::H, &h, &e);
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

    /// The nested in-edge lists the table replaced, kept as its oracle:
    /// per (proc, sink idx), `(src_proc, src_idx, weight)` in global edge
    /// order, E sinks then H sinks.
    type Nested = Vec<Vec<Vec<(usize, usize, f64)>>>;

    fn nested_in_edges(p: &Em3dParams, g: &Em3dGraph) -> (Nested, Nested) {
        let mut in_e: Nested = vec![vec![Vec::new(); p.e_per_proc]; p.procs];
        let mut in_h: Nested = vec![vec![Vec::new(); p.h_per_proc]; p.procs];
        for (edge, &w) in g.edges.iter().zip(&g.weights) {
            let ins = match edge.from_side {
                Side::E => &mut in_h,
                Side::H => &mut in_e,
            };
            ins[edge.dst_proc as usize][edge.dst_idx as usize].push((
                edge.src_proc as usize,
                edge.src_idx as usize,
                w,
            ));
        }
        (in_e, in_h)
    }

    /// Every sink's table row equals the oracle's list, entry for entry
    /// and in the same order (weights bit for bit).
    fn assert_table_matches_oracle(p: &Em3dParams, g: &Em3dGraph, ins: &InEdges) {
        let (in_e, in_h) = nested_in_edges(p, g);
        for (side, nested) in [(Side::E, &in_e), (Side::H, &in_h)] {
            for (q, sinks) in nested.iter().enumerate() {
                let t = ins.table(q, side);
                assert_eq!(t.ranges().count(), sinks.len());
                for (i, (row, want)) in t.ranges().zip(sinks).enumerate() {
                    let got: Vec<_> = t.edges()[row]
                        .iter()
                        .map(|&(sp, si, w)| (sp as usize, si as usize, w.to_bits()))
                        .collect();
                    let want: Vec<_> = want
                        .iter()
                        .map(|&(sp, si, w)| (sp, si, w.to_bits()))
                        .collect();
                    assert_eq!(got, want, "proc {q} {side:?} sink {i}");
                }
            }
        }
    }

    fn assert_all_match_oracles(p: &Em3dParams) {
        let g = gen_graph(p);
        let ins = build_in_edges(p, &g);
        assert_table_matches_oracle(p, &g, &ins);
        sm::tests::assert_slots_match_oracle(p, &g, &ins);
        mp::tests::assert_plans_match_oracle(p, &g, &ins);
    }

    #[test]
    fn in_edge_table_matches_oracles_small() {
        assert_all_match_oracles(&Em3dParams::small());
    }

    #[test]
    fn in_edge_table_matches_oracles_wide_span() {
        assert_all_match_oracles(&Em3dParams {
            procs: 8,
            span: 3,
            remote_pct: 60,
            ..Em3dParams::small()
        });
    }

    /// The paper's graph: 640,000 edges. Slow in a debug build; run with
    /// `cargo test --release -p wwt-apps -- --ignored`.
    #[test]
    #[ignore]
    fn in_edge_table_matches_oracles_paper_graph() {
        assert_all_match_oracles(&Em3dParams::default());
    }

    #[test]
    #[should_panic(expected = "EM3D graph too large")]
    fn oversized_graph_is_rejected_up_front() {
        gen_graph(&Em3dParams {
            e_per_proc: 1 << 32,
            ..Em3dParams::small()
        });
    }

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
