//! Gauss-SM: the shared-memory version.
//!
//! Rows live in shared memory homed on their owning node; pivot selection
//! uses an MCS-style tree reduction; the pivot's identity is broadcast by
//! the write-barrier-read idiom; and the pivot row itself is *read in
//! place* from the owner's memory by every processor — the fine-grain,
//! low-latency access pattern whose directory contention the paper
//! measures in Table 11.

use std::cell::RefCell;
use std::rc::Rc;

use wwt_sim::{Engine, SimError};
use wwt_sm::{SmCollectives, SmConfig, SmMachine};

use crate::common::{block_range, AppRun, Validation};
use crate::gauss::mp::{dec_pivot, enc_pivot};
use crate::gauss::{gen_row, validate_solution, GaussParams};

/// Runs Gauss-SM and returns the measurements (Tables 9 and 11).
pub fn run(p: &GaussParams, scfg: SmConfig) -> AppRun {
    try_run(p, scfg).unwrap_or_else(|err| panic!("{err}"))
}

/// Fallible variant of [`run`]: surfaces an engine failure (deadlock,
/// livelock, watchdog) as a structured [`SimError`] instead of
/// panicking, so a grid run can report the failing experiment and let
/// the others finish.
pub fn try_run(p: &GaussParams, scfg: SmConfig) -> Result<AppRun, SimError> {
    let mut engine = Engine::new(p.procs, scfg.sim);
    let m = SmMachine::new(&engine, scfg);
    let coll = Rc::new(SmCollectives::new(&m));
    let n = p.n;
    let row_bytes = ((n + 1) * 8) as u64;

    // Rows are shared, homed on their owner (they are written only by the
    // owner; remote processors read pivot rows in place).
    let rows_base: Rc<Vec<_>> = Rc::new(
        (0..p.procs)
            .map(|proc| {
                let (s, e) = block_range(n, p.procs, proc);
                m.gmalloc_on(proc, (e - s) as u64 * row_bytes, 32)
            })
            .collect(),
    );

    let solution: Rc<RefCell<Vec<f64>>> = Rc::default();

    for proc in engine.proc_ids() {
        let m = Rc::clone(&m);
        let coll = Rc::clone(&coll);
        let cpu = engine.cpu(proc);
        let rows_base = Rc::clone(&rows_base);
        let solution = Rc::clone(&solution);
        let p = p.clone();
        engine.spawn(proc, async move {
            let me = proc.index();
            let (start, end) = block_range(n, p.procs, me);
            let nloc = end - start;
            let row_addr =
                |owner: usize, li: usize| rows_base[owner].offset_by(li as u64 * row_bytes);

            // --- initialization: fill local rows -------------------------
            for li in 0..nloc {
                let row = gen_row(&p, start + li);
                m.poke_f64s(row_addr(me, li), &row);
                m.touch_write(&cpu, row_addr(me, li), row_bytes).await;
                cpu.compute(4 * (n as u64 + 1));
            }
            m.barrier(&cpu).await;

            // --- forward elimination --------------------------------------
            let mut used = vec![false; nloc];
            let mut my_pivot = vec![usize::MAX; n];
            let mut owner_of = vec![usize::MAX; n];
            for k in 0..n {
                let mut best = (-1.0f64, 0usize);
                let mut scanned = 0u64;
                for li in 0..nloc {
                    if used[li] {
                        continue;
                    }
                    let a = row_addr(me, li).offset_by((k * 8) as u64);
                    let v = m.read_f64(&cpu, a).await.abs();
                    if v > best.0 {
                        best = (v, li);
                    }
                    scanned += 1;
                }
                cpu.compute(p.search_cost * scanned.max(1));

                // MCS-style reduction to node 0, then write/barrier/read
                // broadcast of the winning (owner, row).
                let red = coll
                    .reduce_max_f64_index(&m, &cpu, best.0, enc_pivot(me, best.1))
                    .await;
                let root_val = red.map(|(_, e)| e as f64).unwrap_or(0.0);
                let enc = coll.bcast_f64(&m, &cpu, 0, root_val).await as usize;
                let (owner, li_piv) = dec_pivot(enc);
                owner_of[k] = owner;
                let active = n + 1 - k;
                let active_bytes = (active * 8) as u64;
                let piv_addr = row_addr(owner, li_piv).offset_by((k * 8) as u64);
                if owner == me {
                    used[li_piv] = true;
                    my_pivot[k] = li_piv;
                    if p.sm_push_broadcast {
                        // Application-specific protocol: push the pivot row
                        // to every cache before anyone asks (Section 5.3.4).
                        m.push_broadcast(&cpu, piv_addr, active_bytes).await;
                    }
                }
                if p.sm_push_broadcast {
                    // The pushed copies land while processors regroup at
                    // the broadcast barrier; reads below mostly hit.
                    m.barrier(&cpu).await;
                }

                // Everyone reads the pivot row's active part straight from
                // the owner's shared memory (a hit if it was pushed;
                // remote misses + directory contention at the owner
                // otherwise).
                m.touch_read(&cpu, piv_addr, active_bytes).await;
                let mut pivrow = vec![0.0f64; active];
                m.peek_f64s(piv_addr, &mut pivrow);

                let mut row = vec![0.0f64; active];
                for li in 0..nloc {
                    if used[li] {
                        continue;
                    }
                    let off = row_addr(me, li).offset_by((k * 8) as u64);
                    m.peek_f64s(off, &mut row);
                    let f = row[0] / pivrow[0];
                    for (r, pv) in row.iter_mut().zip(&pivrow) {
                        *r -= f * pv;
                    }
                    m.poke_f64s(off, &row);
                    m.touch_write(&cpu, off, active_bytes).await;
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
                    let off = row_addr(me, li).offset_by((k * 8) as u64);
                    let mut row = vec![0.0f64; active];
                    m.peek_f64s(off, &mut row);
                    m.touch_read(&cpu, off, (active * 8) as u64).await;
                    let mut s = row[active - 1];
                    for j in k + 1..n {
                        s -= row[j - k] * x[j];
                    }
                    cpu.compute(p.backsub_cost * (n - k) as u64);
                    s / row[0]
                } else {
                    0.0
                };
                x[k] = coll.bcast_f64(&m, &cpu, owner, mine).await;
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
    use wwt_mp::{MpConfig, TreeShape};
    use wwt_sim::{Counter, Kind, Scope};

    #[test]
    fn solves_small_system() {
        let p = GaussParams::small();
        let r = run(&p, SmConfig::default());
        assert!(r.validation.passed, "{}", r.validation.detail);
    }

    #[test]
    fn matches_mp_solution_bitwise() {
        let p = GaussParams {
            n: 32,
            procs: 4,
            ..GaussParams::small()
        };
        let sm = run(&p, SmConfig::default());
        let mp = crate::gauss::mp::run(&p, MpConfig::default(), TreeShape::Lopsided);
        assert!(sm.validation.passed && mp.validation.passed);
        // Same algorithm, same arithmetic order: the validations agree.
        assert_eq!(sm.validation.detail, mp.validation.detail);
    }

    #[test]
    fn costs_split_into_misses_reductions_barriers() {
        let p = GaussParams::small();
        let r = run(&p, SmConfig::default());
        let avg = r.report.avg_matrix();
        assert!(avg.by_kind(Kind::ShMissRemote) > 0, "remote pivot reads");
        assert!(avg.by_scope(Scope::Reduction) > 0, "MCS reductions");
        assert!(avg.by_kind(Kind::BarrierWait) > 0, "broadcast barriers");
        assert!(r.report.total_counter(Counter::ShMissesRemote) > 0);
        // No message-passing machinery on this machine.
        assert_eq!(r.report.total_counter(Counter::PacketsSent), 0);
    }

    #[test]
    fn is_deterministic() {
        let p = GaussParams::small();
        let a = run(&p, SmConfig::default());
        let b = run(&p, SmConfig::default());
        assert_eq!(a.report.elapsed(), b.report.elapsed());
    }
}

#[cfg(test)]
mod push_broadcast_tests {
    use super::*;
    use wwt_sim::{Counter, Kind};

    #[test]
    fn push_broadcast_cuts_pivot_read_stall() {
        let base = GaussParams {
            n: 64,
            procs: 8,
            ..GaussParams::small()
        };
        let pushed = GaussParams {
            sm_push_broadcast: true,
            ..base.clone()
        };
        let a = run(&base, SmConfig::default());
        let b = run(&pushed, SmConfig::default());
        assert!(a.validation.passed && b.validation.passed);
        // Same algorithm, same answer.
        assert_eq!(a.artifact, b.artifact);
        // The consumers' demand misses on pivot rows largely disappear.
        let stall = |r: &crate::common::AppRun| {
            let m = r.report.avg_matrix();
            m.by_kind(Kind::ShMissRemote)
        };
        assert!(
            stall(&b) < stall(&a) / 2,
            "pushed stall {} !<< base {}",
            stall(&b),
            stall(&a)
        );
        // The data still moves (as protocol pushes, counted as messages).
        assert!(b.report.total_counter(Counter::MessagesSent) > 0);
    }
}
