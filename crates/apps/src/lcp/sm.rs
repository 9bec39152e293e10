//! LCP-SM and ALCP-SM: shared-memory projected SOR.
//!
//! The global solution vector lives in shared memory, distributed in
//! per-owner chunks. Synchronous mode sweeps against a *private* local
//! copy, then copies the owned portion into the global vector, crosses a
//! barrier, and re-reads the whole vector — the request-response misses
//! the paper measures in Table 19. Asynchronous mode (ALCP-SM) reads and
//! writes the global vector directly during every sweep, so updates are
//! visible as soon as they are computed — De Leone's faster-converging
//! discipline whose invalidation traffic swamps the gain (Tables 21/23).

use std::cell::{Cell, RefCell};
use std::ops::Range;
use std::rc::Rc;

use wwt_mem::GAddr;
use wwt_sim::{Engine, SimError};
use wwt_sm::{SmCollectives, SmConfig, SmMachine};

use crate::common::{AppRun, Validation};
use crate::lcp::{gen_matrix, gen_q, psor_row, validate_lcp, LcpMode, LcpParams};

/// Runs LCP-SM (synchronous) or ALCP-SM (asynchronous) and returns the
/// measurements (Tables 19, 21, and 23).
pub fn run(p: &LcpParams, scfg: SmConfig, mode: LcpMode) -> AppRun {
    try_run(p, scfg, mode).unwrap_or_else(|err| panic!("{err}"))
}

/// Fallible variant of [`run`]: surfaces an engine failure (deadlock,
/// livelock, watchdog) as a structured [`SimError`] instead of
/// panicking, so a grid run can report the failing experiment and let
/// the others finish.
pub fn try_run(p: &LcpParams, scfg: SmConfig, mode: LcpMode) -> Result<AppRun, SimError> {
    assert_eq!(p.n % p.procs, 0, "rows must divide evenly");
    let mut engine = Engine::new(p.procs, scfg.sim);
    let m = SmMachine::new(&engine, scfg);
    let coll = Rc::new(SmCollectives::new(&m));
    let q = Rc::new(gen_q(p));
    let mat = Rc::new(gen_matrix(p));
    let nloc = p.n / p.procs;

    // The global solution vector, distributed chunk-wise over its owners.
    let chunks: Rc<Vec<GAddr>> = Rc::new(
        (0..p.procs)
            .map(|qp| m.gmalloc_on(qp, (nloc * 8) as u64, 32))
            .collect(),
    );

    let solution: Rc<RefCell<Vec<f64>>> = Rc::new(RefCell::new(vec![0.0; p.n]));
    let steps_taken: Rc<Cell<usize>> = Rc::default();

    for proc in engine.proc_ids() {
        let m = Rc::clone(&m);
        let coll = Rc::clone(&coll);
        let cpu = engine.cpu(proc);
        let q = Rc::clone(&q);
        let mat = Rc::clone(&mat);
        let chunks = Rc::clone(&chunks);
        let solution = Rc::clone(&solution);
        let steps_taken = Rc::clone(&steps_taken);
        let p = p.clone();
        engine.spawn(proc, async move {
            let me = proc.index();
            let my_lo = me * nloc;
            let chunk_bytes = (nloc * 8) as u64;

            // Private working storage: local copy (sync mode), matrix rows, q.
            let z_loc = m.alloc_private(me, (p.n * 8) as u64, 32);
            let nnz_total: usize = (my_lo..my_lo + nloc).map(|i| mat.nnz(i)).sum();
            let m_rows = m.alloc_private(me, (nnz_total * 8) as u64, 32);
            let q_buf = m.alloc_private(me, chunk_bytes, 32);

            // Address of global element i.
            let g_addr = |i: usize| chunks[i / nloc].offset_by(((i % nloc) * 8) as u64);

            // --- initialization ------------------------------------------------
            m.touch_write(&cpu, m_rows, (nnz_total * 8) as u64).await;
            m.touch_write(&cpu, q_buf, chunk_bytes).await;
            m.touch_write(&cpu, z_loc, (p.n * 8) as u64).await;
            m.touch_write(&cpu, chunks[me], chunk_bytes).await;
            cpu.compute(8 * nnz_total as u64);
            m.barrier(&cpu).await;

            // --- solve ------------------------------------------------------------
            let mut z = vec![0.0f64; p.n];
            let mut steps = 0usize;
            loop {
                steps += 1;
                let prev_block: Vec<f64> = z[my_lo..my_lo + nloc].to_vec();
                for _ in 0..p.sweeps_per_step {
                    let mut m_cursor = 0u64;
                    for i in my_lo..my_lo + nloc {
                        let nnz = mat.nnz(i) as u64;
                        m.touch_read(&cpu, m_rows.offset_by(m_cursor * 8), nnz * 8)
                            .await;
                        m_cursor += nnz;
                        match mode {
                            LcpMode::Synchronous => {
                                // Scattered reads of the private copy.
                                for &j in &mat.off[i] {
                                    m.touch_read(&cpu, z_loc.offset_by((j * 8) as u64), 8).await;
                                }
                            }
                            LcpMode::Asynchronous => {
                                // Scattered reads of the *global* vector —
                                // the producer-consumer misses of Table 23.
                                // A cached (possibly stale) copy keeps its
                                // old value; a miss brings the whole cache
                                // block current.
                                for &j in &mat.off[i] {
                                    if m.touch_read(&cpu, g_addr(j), 8).await > 0 {
                                        let line = m.config().arch.cache.block_bytes;
                                        let run = block_run(g_addr(j), j, nloc, line);
                                        let mut vals = vec![0.0f64; run.len()];
                                        m.peek_f64s(g_addr(run.start), &mut vals);
                                        z[run].copy_from_slice(&vals);
                                    }
                                }
                            }
                        }
                        m.touch_read(&cpu, q_buf.offset_by(((i - my_lo) * 8) as u64), 8)
                            .await;
                        z[i] = psor_row(&mat, p.omega, &q, &z, i);
                        match mode {
                            LcpMode::Synchronous => {
                                m.touch_write(&cpu, z_loc.offset_by((i * 8) as u64), 8)
                                    .await;
                            }
                            LcpMode::Asynchronous => {
                                m.touch_write(&cpu, g_addr(i), 8).await;
                                m.poke_f64(g_addr(i), z[i]);
                            }
                        }
                        cpu.compute(p.row_cost + p.nnz_cost * nnz);
                    }
                    cpu.resync_if_ahead().await;
                }
                if mode == LcpMode::Synchronous {
                    // Publish our block, then re-read the whole vector.
                    m.poke_f64s(chunks[me], &z[my_lo..my_lo + nloc]);
                    m.touch_write(&cpu, chunks[me], chunk_bytes).await;
                    m.barrier(&cpu).await;
                    for qp in 0..p.procs {
                        m.touch_read(&cpu, chunks[qp], chunk_bytes).await;
                        let mut vals = vec![0.0f64; nloc];
                        m.peek_f64s(chunks[qp], &mut vals);
                        z[qp * nloc..(qp + 1) * nloc].copy_from_slice(&vals);
                    }
                    m.touch_write(&cpu, z_loc, (p.n * 8) as u64).await;
                }

                let diff = z[my_lo..my_lo + nloc]
                    .iter()
                    .zip(&prev_block)
                    .map(|(a, b)| (a - b).abs())
                    .fold(0.0f64, f64::max);
                cpu.compute(2 * nloc as u64);
                let red = coll.reduce_max_f64_index(&m, &cpu, diff, me).await;
                let done = match red {
                    Some((global_diff, _)) => {
                        f64::from(u8::from(global_diff < p.tol || steps >= p.max_steps))
                    }
                    None => 0.0,
                };
                let flag = coll.bcast_f64(&m, &cpu, 0, done).await;
                if flag == 1.0 {
                    break;
                }
            }
            solution.borrow_mut()[my_lo..my_lo + nloc].copy_from_slice(&z[my_lo..my_lo + nloc]);
            if me == 0 {
                steps_taken.set(steps);
            }
        });
    }

    let report = engine.try_run()?;
    let z = solution.borrow().clone();
    let qv = gen_q(p);
    let validation = if steps_taken.get() < p.max_steps {
        validate_lcp(&mat, &qv, &z)
    } else {
        Validation::fail(format!("no convergence within {} steps", p.max_steps))
    };
    Ok(AppRun {
        report,
        phases: Vec::new(),
        validation,
        stats: vec![("steps".into(), steps_taken.get() as f64)],
        artifact: z,
    })
}

/// The elements of the solution vector that share element `j`'s cache
/// block (`line_bytes` wide), where `ga` is `j`'s address: the run a miss
/// on `j` brings current. Chunks hold `nloc` elements each, so the run is
/// clipped to `j`'s chunk; the block's other bytes hold other data.
fn block_run(ga: GAddr, j: usize, nloc: usize, line_bytes: u64) -> Range<usize> {
    let chunk = j - j % nloc..j - j % nloc + nloc;
    let into = (ga.offset() % line_bytes / 8) as usize;
    let per_line = (line_bytes / 8) as usize;
    j.saturating_sub(into).max(chunk.start)..(j + per_line - into).min(chunk.end)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lcp::reference_sync;
    use wwt_mp::MpConfig;
    use wwt_sim::{Counter, Kind};

    #[test]
    fn synchronous_matches_host_reference_bitwise() {
        let p = LcpParams::small();
        let r = run(&p, SmConfig::default(), LcpMode::Synchronous);
        assert!(r.validation.passed, "{}", r.validation.detail);
        let (zref, steps_ref) = reference_sync(&p);
        assert_eq!(r.stat("steps"), Some(steps_ref as f64));
        assert_eq!(r.artifact, zref);
    }

    #[test]
    fn sync_sm_and_mp_take_identical_trajectories() {
        let p = LcpParams::small();
        let sm = run(&p, SmConfig::default(), LcpMode::Synchronous);
        let mp = crate::lcp::mp::run(&p, MpConfig::default(), LcpMode::Synchronous);
        assert_eq!(sm.artifact, mp.artifact);
        assert_eq!(sm.stat("steps"), mp.stat("steps"));
    }

    #[test]
    fn asynchronous_converges_in_fewer_steps_with_more_misses() {
        let p = LcpParams::small();
        let s = run(&p, SmConfig::default(), LcpMode::Synchronous);
        let a = run(&p, SmConfig::default(), LcpMode::Asynchronous);
        assert!(a.validation.passed, "{}", a.validation.detail);
        assert!(
            a.stat("steps").unwrap() < s.stat("steps").unwrap(),
            "async {} !< sync {}",
            a.stat("steps").unwrap(),
            s.stat("steps").unwrap()
        );
        let misses = |r: &AppRun| {
            r.report.total_counter(Counter::ShMissesRemote)
                + r.report.total_counter(Counter::ShMissesLocal)
        };
        assert!(
            misses(&a) > misses(&s),
            "async misses {} !> sync misses {}",
            misses(&a),
            misses(&s)
        );
    }

    /// A miss refreshes exactly the configured block. With a fixed
    /// 4-element run, 64-byte blocks left four elements of each line
    /// stale while the cache hit on them, and this shape failed its LCP
    /// check (violation 2.8e-2 after 6 steps).
    #[test]
    fn asynchronous_validates_at_every_block_size() {
        let p = LcpParams {
            procs: 8,
            ..LcpParams::small()
        };
        for block in [16, 32, 64] {
            let arch = wwt_arch::ArchParams::parse(&format!("cache_block={block}")).unwrap();
            let cfg = SmConfig::with_arch(arch, wwt_sim::SimConfig::default());
            let r = run(&p, cfg, LcpMode::Asynchronous);
            assert!(
                r.validation.passed,
                "{block}-byte blocks: {}",
                r.validation.detail
            );
        }
    }

    #[test]
    fn block_run_is_the_configured_block_within_the_chunk() {
        // Elements 20..30 (chunk 2 of 10) live at offsets 96..176.
        let (chunk, nloc) = (GAddr::new(wwt_mem::Segment::Shared, 2, 96), 10);
        let run = |j: usize, line| block_run(chunk.offset_by((j % nloc) as u64 * 8), j, nloc, line);
        // 32-byte lines: the chunk is line-aligned, so runs are 4-element
        // groups from its start, the last one short.
        assert_eq!(run(21, 32), 20..24);
        assert_eq!(run(27, 32), 24..28);
        assert_eq!(run(29, 32), 28..30);
        // 64-byte lines start 32 bytes before the chunk: the first line
        // holds 4 elements, the next ones 8, clipped at the chunk's end.
        assert_eq!(run(20, 64), 20..24);
        assert_eq!(run(24, 64), 24..30);
        assert_eq!(run(29, 64), 24..30);
        // 16-byte lines hold two elements.
        assert_eq!(run(23, 16), 22..24);
        assert_eq!(run(28, 16), 28..30);
    }

    #[test]
    fn sync_costs_split_into_misses_and_synchronization() {
        let p = LcpParams::small();
        let r = run(&p, SmConfig::default(), LcpMode::Synchronous);
        let avg = r.report.avg_matrix();
        assert!(avg.by_kind(Kind::ShMissRemote) > 0);
        assert!(avg.by_kind(Kind::BarrierWait) > 0);
        assert!(avg.by_scope(wwt_sim::Scope::Reduction) > 0);
    }
}
