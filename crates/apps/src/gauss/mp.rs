//! Gauss-MP: the message-passing version.
//!
//! Adapted (as in the paper) from an iPSC-style code: pivot selection by a
//! software reduction, pivot value/owner announcement by a software
//! broadcast, and pivot-row distribution by a store-and-forward bulk
//! broadcast, all over the tree shape chosen by the caller (the paper's
//! final version uses the lop-sided tree).

use std::cell::RefCell;
use std::rc::Rc;

use wwt_mp::{MpConfig, MpMachine, TreeShape};
use wwt_sim::{Engine, ProcId, SimError};

use crate::common::{block_range, AppRun, Validation};
use crate::gauss::{gen_row, validate_solution, GaussParams};

/// Encodes (owner processor, owner-local row index) into a reduction tag.
pub(crate) fn enc_pivot(owner: usize, local_row: usize) -> usize {
    owner << 16 | local_row
}

/// Decodes the pivot tag.
pub(crate) fn dec_pivot(enc: usize) -> (usize, usize) {
    (enc >> 16, enc & 0xffff)
}

/// Runs Gauss-MP and returns the measurements (Tables 8 and 10 of the
/// paper for the lop-sided tree; the other shapes reproduce the Section
/// 5.2 collective ablation).
pub fn run(p: &GaussParams, mcfg: MpConfig, shape: TreeShape) -> AppRun {
    try_run(p, mcfg, shape).unwrap_or_else(|err| panic!("{err}"))
}

/// Fallible variant of [`run`]: surfaces an engine failure (deadlock,
/// livelock, watchdog) as a structured [`SimError`] instead of
/// panicking, so a grid run can report the failing experiment and let
/// the others finish.
pub fn try_run(p: &GaussParams, mcfg: MpConfig, shape: TreeShape) -> Result<AppRun, SimError> {
    let mut engine = Engine::new(p.procs, mcfg.sim);
    let m = MpMachine::new(&engine, mcfg);
    let n = p.n;
    let row_bytes = ((n + 1) * 8) as u64;

    // Deterministic allocation: every node lays out its rows then the
    // pivot buffer at identical offsets.
    let mut rows_off = Vec::new();
    let mut piv_off = Vec::new();
    for proc in 0..p.procs {
        let (s, e) = block_range(n, p.procs, proc);
        rows_off.push(m.alloc(ProcId::new(proc), (e - s) as u64 * row_bytes, 32));
        piv_off.push(m.alloc(ProcId::new(proc), row_bytes, 32));
    }

    let solution: Rc<RefCell<Vec<f64>>> = Rc::default();

    for proc in engine.proc_ids() {
        let m = Rc::clone(&m);
        let cpu = engine.cpu(proc);
        let solution = Rc::clone(&solution);
        let p = p.clone();
        let rows = rows_off[proc.index()];
        let piv = piv_off[proc.index()];
        engine.spawn(proc, async move {
            let me = proc.index();
            let (start, end) = block_range(n, p.procs, me);
            let nloc = end - start;
            let row_off = |li: usize| rows + li as u64 * row_bytes;

            // --- initialization: fill local rows -------------------------
            for li in 0..nloc {
                let row = gen_row(&p, start + li);
                m.poke_f64s(proc, row_off(li), &row);
                m.touch_write(&cpu, row_off(li), row_bytes);
                cpu.compute(4 * (n as u64 + 1));
            }
            m.barrier(&cpu).await;

            // --- forward elimination --------------------------------------
            let mut used = vec![false; nloc];
            let mut my_pivot = vec![usize::MAX; n];
            let mut owner_of = vec![usize::MAX; n];
            let mut scratch = vec![0.0f64; n + 1];
            let mut pivrow = vec![0.0f64; n + 1];
            let mut row = vec![0.0f64; n + 1];
            for k in 0..n {
                // Local pivot candidate.
                let mut best = (-1.0f64, 0usize);
                let mut scanned = 0u64;
                for li in 0..nloc {
                    if used[li] {
                        continue;
                    }
                    m.touch_read(&cpu, row_off(li) + (k * 8) as u64, 8);
                    let v = m.peek_f64(proc, row_off(li) + (k * 8) as u64).abs();
                    if v > best.0 {
                        best = (v, li);
                    }
                    scanned += 1;
                }
                cpu.compute(p.search_cost * scanned.max(1));

                // Global reduction of (|candidate|, encoded owner+row),
                // then broadcast of the winner.
                let red = m
                    .reduce_max_f64_index(&cpu, shape, 0, best.0, enc_pivot(me, best.1))
                    .await;
                let root_words = red.map(|(_, e)| [e as u32, 0, 0, 0]).unwrap_or([0; 4]);
                let enc = m.bcast_raw(&cpu, shape, 0, root_words).await[0] as usize;
                let (owner, li_piv) = dec_pivot(enc);
                owner_of[k] = owner;

                // The owner freezes the pivot row and stages its active
                // part for the bulk broadcast.
                let active = n + 1 - k;
                let active_bytes = (active * 8) as u64;
                if owner == me {
                    used[li_piv] = true;
                    my_pivot[k] = li_piv;
                    m.peek_f64s(
                        proc,
                        row_off(li_piv) + (k * 8) as u64,
                        &mut scratch[..active],
                    );
                    m.poke_f64s(proc, piv, &scratch[..active]);
                    m.touch_read(&cpu, row_off(li_piv) + (k * 8) as u64, active_bytes);
                    m.touch_write(&cpu, piv, active_bytes);
                    cpu.compute(2 * active as u64);
                }
                let got = m
                    .bcast_bulk(
                        &cpu,
                        shape,
                        owner,
                        piv,
                        if owner == me { active_bytes as u32 } else { 0 },
                    )
                    .await;
                debug_assert_eq!(got as u64, active_bytes);

                // Eliminate the pivot from our remaining rows.
                let pivrow = &mut pivrow[..active];
                m.peek_f64s(proc, piv, pivrow);
                m.touch_read(&cpu, piv, active_bytes);
                let row = &mut row[..active];
                for li in 0..nloc {
                    if used[li] {
                        continue;
                    }
                    let off = row_off(li) + (k * 8) as u64;
                    m.peek_f64s(proc, off, row);
                    let f = row[0] / pivrow[0];
                    for (r, pv) in row.iter_mut().zip(pivrow.iter()) {
                        *r -= f * pv;
                    }
                    m.poke_f64s(proc, off, row);
                    m.touch_write(&cpu, off, active_bytes);
                    cpu.compute(p.factor_cost + p.elim_cost * active as u64);
                }
            }
            m.barrier(&cpu).await;

            // --- back substitution ----------------------------------------
            let mut x = vec![0.0f64; n];
            for k in (0..n).rev() {
                let owner = owner_of[k];
                let mine = if owner == me {
                    let li = my_pivot[k];
                    let active = n + 1 - k;
                    let off = row_off(li) + (k * 8) as u64;
                    let row = &mut row[..active];
                    m.peek_f64s(proc, off, row);
                    m.touch_read(&cpu, off, (active * 8) as u64);
                    let mut s = row[active - 1];
                    for j in k + 1..n {
                        s -= row[j - k] * x[j];
                    }
                    cpu.compute(p.backsub_cost * (n - k) as u64);
                    s / row[0]
                } else {
                    0.0
                };
                x[k] = m.bcast_f64(&cpu, shape, owner, mine).await;
            }
            m.barrier(&cpu).await;
            if me == 0 {
                *solution.borrow_mut() = x;
            }
        });
    }

    let report = engine.try_run()?;
    let x = solution.borrow().clone();
    let validation = if x.len() == n {
        validate_solution(&x)
    } else {
        Validation::fail("no solution produced")
    };
    Ok(AppRun {
        report,
        phases: Vec::new(),
        validation,
        stats: vec![("n".into(), n as f64)],
        artifact: x,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use wwt_sim::{Counter, Kind, Scope};

    #[test]
    fn solves_small_system_on_lopsided_tree() {
        let p = GaussParams::small();
        let run = run(&p, MpConfig::default(), TreeShape::Lopsided);
        assert!(run.validation.passed, "{}", run.validation.detail);
    }

    #[test]
    fn all_tree_shapes_agree_on_the_solution() {
        let p = GaussParams {
            n: 24,
            procs: 4,
            ..GaussParams::small()
        };
        for shape in [TreeShape::Flat, TreeShape::Binary, TreeShape::Lopsided] {
            let r = run(&p, MpConfig::default(), shape);
            assert!(r.validation.passed, "{shape:?}: {}", r.validation.detail);
        }
    }

    #[test]
    fn collective_ablation_matches_paper_ordering() {
        // The paper's Section 5.2 progression: flat broadcast with
        // CMMD-level messages (119.3M) > binary tree with CMMD-level
        // messages (40.9M) > lop-sided tree with active messages and
        // channels (30.1M).
        let p = GaussParams {
            n: 64,
            procs: 16,
            ..GaussParams::small()
        };
        let cmmd = MpConfig {
            collective_msg_overhead: 250,
            ..MpConfig::default()
        };
        let flat = run(&p, cmmd, TreeShape::Flat).report.elapsed();
        let binary = run(&p, cmmd, TreeShape::Binary).report.elapsed();
        let lop = run(&p, MpConfig::default(), TreeShape::Lopsided)
            .report
            .elapsed();
        assert!(lop < binary, "lop-sided {lop} !< binary {binary}");
        assert!(binary < flat, "binary {binary} !< flat {flat}");
    }

    #[test]
    fn communication_is_collective_traffic() {
        let p = GaussParams::small();
        let r = run(&p, MpConfig::default(), TreeShape::Lopsided);
        let avg = r.report.avg_matrix();
        // Reduction + broadcast scopes must carry real cost, and there is
        // no bare point-to-point Lib traffic besides them.
        assert!(avg.by_scope(Scope::Reduction) > 0);
        assert!(avg.by_scope(Scope::Broadcast) > 0);
        assert!(r.report.total_counter(Counter::ActiveMessages) > 0);
        assert!(avg.by_kind(Kind::NetAccess) > 0);
    }

    #[test]
    fn is_deterministic() {
        let p = GaussParams::small();
        let a = run(&p, MpConfig::default(), TreeShape::Lopsided);
        let b = run(&p, MpConfig::default(), TreeShape::Lopsided);
        assert_eq!(a.report.elapsed(), b.report.elapsed());
        assert_eq!(
            a.report.total_counter(Counter::PacketsSent),
            b.report.total_counter(Counter::PacketsSent)
        );
    }
}
