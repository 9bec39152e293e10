//! LCP-MP and ALCP-MP: message-passing projected SOR.
//!
//! Synchronous mode refreshes the local solution copy once per step with a
//! recursive-doubling all-to-all exchange over CMMD channels
//! (`log2(P)` stages of point-to-point block exchanges, as the paper
//! describes). Asynchronous mode (ALCP) sends the freshly swept block to
//! every other processor after *each* sweep — a star of bulk messages —
//! and incorporates arriving blocks by polling; convergence needs fewer
//! steps but communication grows several-fold (Tables 20 and 22).

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use wwt_mp::{ChannelId, MpConfig, MpMachine, SendChannel, TreeShape};
use wwt_sim::{Engine, ProcId, SimError};

use crate::common::{AppRun, Validation};
use crate::lcp::{gen_matrix, gen_q, psor_row, validate_lcp, LcpMode, LcpParams};

/// Runs LCP-MP (synchronous) or ALCP-MP (asynchronous) and returns the
/// measurements (Tables 18, 20, and 22).
pub fn run(p: &LcpParams, mcfg: MpConfig, mode: LcpMode) -> AppRun {
    try_run(p, mcfg, mode).unwrap_or_else(|err| panic!("{err}"))
}

/// Fallible variant of [`run`]: surfaces an engine failure (deadlock,
/// livelock, watchdog) as a structured [`SimError`] instead of
/// panicking, so a grid run can report the failing experiment and let
/// the others finish.
pub fn try_run(p: &LcpParams, mcfg: MpConfig, mode: LcpMode) -> Result<AppRun, SimError> {
    assert!(
        p.procs.is_power_of_two(),
        "exchange needs a power-of-two machine"
    );
    assert_eq!(p.n % p.procs, 0, "rows must divide evenly");
    let mut engine = Engine::new(p.procs, mcfg.sim);
    let m = MpMachine::new(&engine, mcfg);
    let q = Rc::new(gen_q(p));
    let mat = Rc::new(gen_matrix(p));
    let nloc = p.n / p.procs;
    let stages = p.procs.trailing_zeros() as usize;

    let solution: Rc<RefCell<Vec<f64>>> = Rc::new(RefCell::new(vec![0.0; p.n]));
    let steps_taken: Rc<Cell<usize>> = Rc::default();

    for proc in engine.proc_ids() {
        let m = Rc::clone(&m);
        let cpu = engine.cpu(proc);
        let q = Rc::clone(&q);
        let mat = Rc::clone(&mat);
        let solution = Rc::clone(&solution);
        let steps_taken = Rc::clone(&steps_taken);
        let p = p.clone();
        engine.spawn(proc, async move {
            let me = proc.index();
            let np = p.procs;
            let my_lo = me * nloc;
            let block_bytes = (nloc * 8) as u64;

            // --- memory and channels ----------------------------------------
            let z_buf = m.alloc(proc, (p.n * 8) as u64, 32);
            let nnz_total: usize = (my_lo..my_lo + nloc).map(|i| mat.nnz(i)).sum();
            let m_rows = m.alloc(proc, (nnz_total * 8) as u64, 32);
            let q_buf = m.alloc(proc, block_bytes, 32);

            // Synchronous mode: one channel per exchange stage, receiving
            // the partner's accumulated segment straight into our copy.
            let mut stage_in: Vec<ChannelId> = Vec::new();
            let mut stage_out: Vec<SendChannel> = Vec::new();
            // Asynchronous mode: a star of per-source channels landing in
            // the source's block of our copy.
            let mut star_in: Vec<Option<ChannelId>> = vec![None; np];
            let mut star_out: Vec<Option<SendChannel>> = vec![None; np];
            match mode {
                LcpMode::Synchronous => {
                    for k in 0..stages {
                        let partner = me ^ (1 << k);
                        let seg = nloc << k;
                        let pg = ((me >> k) << k) ^ (1 << k);
                        stage_in.push(
                            m.channel_open_recv(
                                &cpu,
                                ProcId::new(partner),
                                z_buf + (pg * nloc * 8) as u64,
                                (seg * 8) as u32,
                            )
                            .expect("capacity within the channel limit"),
                        );
                    }
                    for k in 0..stages {
                        let partner = me ^ (1 << k);
                        stage_out.push(m.channel_bind(&cpu, ProcId::new(partner)).await);
                    }
                }
                LcpMode::Asynchronous => {
                    for src in 0..np {
                        if src != me {
                            star_in[src] = Some(
                                m.channel_open_recv(
                                    &cpu,
                                    ProcId::new(src),
                                    z_buf + (src * nloc * 8) as u64,
                                    block_bytes as u32,
                                )
                                .expect("capacity within the channel limit"),
                            );
                        }
                    }
                    for dst in 0..np {
                        if dst != me {
                            star_out[dst] = Some(m.channel_bind(&cpu, ProcId::new(dst)).await);
                        }
                    }
                }
            }

            // --- initialization: matrix rows and q block ---------------------
            m.touch_write(&cpu, m_rows, (nnz_total * 8) as u64);
            m.touch_write(&cpu, q_buf, block_bytes);
            m.touch_write(&cpu, z_buf, (p.n * 8) as u64);
            cpu.compute(8 * nnz_total as u64);
            m.barrier(&cpu).await;

            // --- solve --------------------------------------------------------
            let mut z = vec![0.0f64; p.n];
            let mut prev_block = vec![0.0f64; nloc];
            let mut steps = 0usize;
            loop {
                steps += 1;
                prev_block.copy_from_slice(&z[my_lo..my_lo + nloc]);
                for _ in 0..p.sweeps_per_step {
                    let mut m_cursor = 0u64;
                    for i in my_lo..my_lo + nloc {
                        let nnz = mat.nnz(i) as u64;
                        // Stream the matrix row, then gather the scattered
                        // solution entries it references.
                        m.touch_read(&cpu, m_rows + m_cursor * 8, nnz * 8);
                        m_cursor += nnz;
                        for &j in &mat.off[i] {
                            m.touch_read(&cpu, z_buf + (j * 8) as u64, 8);
                        }
                        m.touch_read(&cpu, q_buf + ((i - my_lo) * 8) as u64, 8);
                        z[i] = psor_row(&mat, p.omega, &q, &z, i);
                        m.touch_write(&cpu, z_buf + (i * 8) as u64, 8);
                        cpu.compute(p.row_cost + p.nnz_cost * nnz);
                    }
                    cpu.resync_if_ahead().await;
                    if mode == LcpMode::Asynchronous {
                        // Publish this sweep's block to everyone.
                        m.poke_f64s(proc, z_buf + (my_lo * 8) as u64, &z[my_lo..my_lo + nloc]);
                        for ch in star_out.iter().flatten() {
                            m.channel_write(
                                &cpu,
                                ch,
                                z_buf + (my_lo * 8) as u64,
                                block_bytes as u32,
                            );
                        }
                        // Incorporate whatever has arrived.
                        while m.poll_once(&cpu) {}
                        m.peek_f64s(proc, z_buf, &mut z);
                        // Our own block is authoritative locally.
                        // (peek re-read it unchanged.)
                    }
                }
                if mode == LcpMode::Synchronous {
                    // Recursive-doubling all-to-all of the new blocks.
                    m.poke_f64s(proc, z_buf + (my_lo * 8) as u64, &z[my_lo..my_lo + nloc]);
                    for k in 0..stages {
                        let seg_bytes = ((nloc << k) * 8) as u32;
                        let g = (me >> k) << k;
                        m.channel_write(
                            &cpu,
                            &stage_out[k],
                            z_buf + (g * nloc * 8) as u64,
                            seg_bytes,
                        );
                        m.channel_wait(&cpu, stage_in[k]).await;
                    }
                    m.peek_f64s(proc, z_buf, &mut z);
                }

                // Convergence: global max of per-block change.
                let diff = z[my_lo..my_lo + nloc]
                    .iter()
                    .zip(&prev_block)
                    .map(|(a, b)| (a - b).abs())
                    .fold(0.0f64, f64::max);
                cpu.compute(2 * nloc as u64);
                let red = m
                    .reduce_max_f64_index(&cpu, TreeShape::Lopsided, 0, diff, me)
                    .await;
                let done = match red {
                    Some((global_diff, _)) => {
                        u32::from(global_diff < p.tol || steps >= p.max_steps)
                    }
                    None => 0,
                };
                let flag = m
                    .bcast_raw(&cpu, TreeShape::Lopsided, 0, [done, 0, 0, 0])
                    .await[0];
                m.barrier(&cpu).await;
                if flag == 1 {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lcp::reference_sync;
    use wwt_sim::Counter;

    #[test]
    fn synchronous_matches_host_reference_bitwise() {
        let p = LcpParams::small();
        let r = run(&p, MpConfig::default(), LcpMode::Synchronous);
        assert!(r.validation.passed, "{}", r.validation.detail);
        let (zref, steps_ref) = reference_sync(&p);
        assert_eq!(r.stat("steps"), Some(steps_ref as f64));
        assert_eq!(r.artifact, zref);
    }

    #[test]
    fn asynchronous_converges_in_fewer_steps() {
        let p = LcpParams::small();
        let s = run(&p, MpConfig::default(), LcpMode::Synchronous);
        let a = run(&p, MpConfig::default(), LcpMode::Asynchronous);
        assert!(a.validation.passed, "{}", a.validation.detail);
        assert!(
            a.stat("steps").unwrap() < s.stat("steps").unwrap(),
            "async {} !< sync {}",
            a.stat("steps").unwrap(),
            s.stat("steps").unwrap()
        );
    }

    #[test]
    fn asynchronous_sends_far_more_data() {
        let p = LcpParams::small();
        let s = run(&p, MpConfig::default(), LcpMode::Synchronous);
        let a = run(&p, MpConfig::default(), LcpMode::Asynchronous);
        let data = |r: &AppRun| r.report.total_counter(Counter::BytesData);
        assert!(
            data(&a) > 2 * data(&s),
            "async bytes {} vs sync bytes {}",
            data(&a),
            data(&s)
        );
    }

    #[test]
    fn channel_writes_match_exchange_structure() {
        let p = LcpParams::small();
        let s = run(&p, MpConfig::default(), LcpMode::Synchronous);
        let steps = s.stat("steps").unwrap();
        // log2(P) channel writes per step per processor.
        let expect = steps * (p.procs.trailing_zeros() as f64);
        let got = s.report.avg_counter(Counter::ChannelWrites);
        assert!(
            (got - expect).abs() < 1e-9,
            "channel writes {got}, expected {expect}"
        );
    }
}
