//! MSE-MP: request/reply solution exchange over active messages and
//! channels.
//!
//! Every processor keeps a full local copy of the solution vector. At the
//! start of an iteration it sends an asynchronous request (one active
//! message) to each owner the schedule makes due, then waits for the bulk
//! channel replies — servicing *other* processors' requests from the same
//! dispatch loop, which is exactly how the paper's version overlaps
//! service with waiting (its load imbalance shows up as library time).

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use wwt_mp::{packet::tag, ChannelId, MpConfig, MpMachine, SendChannel};
use wwt_sim::{Engine, ProcId, SimError};

use crate::common::{AppRun, PhaseRecorder};
use crate::mse::{build_system, validate_solution, Geometry, MseParams};

/// Application tag for solution requests.
const MSE_REQ: u8 = tag::USER_BASE;

/// Whether any (requester-local, owner-local) body pair is due at `it`
/// (then the requester asks `o` for its whole block).
fn due_req(p: &MseParams, me: usize, o: usize, it: usize) -> bool {
    p.bodies_of(me)
        .any(|i| p.bodies_of(o).any(|j| p.due(i, j, it)))
}

/// Per-node servicing state shared with the request handler.
struct NodeSvc {
    /// Bound reply channels, per requester.
    out: Vec<Option<SendChannel>>,
    /// This node's block in its own z array (offset, bytes).
    block_off: u64,
    block_bytes: u32,
    /// Requests served by this node so far.
    served: Cell<u64>,
}

/// Runs MSE-MP and returns the measurements (Tables 4 and 6).
pub fn run(p: &MseParams, mcfg: MpConfig) -> AppRun {
    try_run(p, mcfg).unwrap_or_else(|err| panic!("{err}"))
}

/// Fallible variant of [`run`]: surfaces an engine failure (deadlock,
/// livelock, watchdog) as a structured [`SimError`] instead of
/// panicking, so a grid run can report the failing experiment and let
/// the others finish.
pub fn try_run(p: &MseParams, mcfg: MpConfig) -> Result<AppRun, SimError> {
    assert_eq!(p.grid * p.grid, p.bodies, "bodies must fill the grid");
    assert_eq!(p.bodies % p.procs, 0, "bodies must divide evenly");
    let mut engine = Engine::new(p.procs, mcfg.sim);
    let m = MpMachine::new(&engine, mcfg);
    let rec = PhaseRecorder::new(Rc::clone(engine.sim()));
    let geo = Rc::new(Geometry::new(p));
    let sys = Rc::new(build_system(&geo));
    let nm = p.unknowns();
    let mm = p.elems;

    let expected_served: Rc<Vec<u64>> = Rc::new(
        (0..p.procs)
            .map(|o| {
                (0..p.procs)
                    .filter(|&r| r != o)
                    .map(|r| (0..p.iters).filter(|&it| due_req(p, r, o, it)).count() as u64)
                    .sum()
            })
            .collect(),
    );

    let svc: Rc<RefCell<Vec<NodeSvc>>> = Rc::new(RefCell::new(
        (0..p.procs)
            .map(|_| NodeSvc {
                out: (0..p.procs).map(|_| None).collect(),
                block_off: 0,
                block_bytes: 0,
                served: Cell::new(0),
            })
            .collect(),
    ));
    {
        // The request handler: runs on the owner when it polls; replies
        // with the owner's current block over the requester's channel.
        let svc = Rc::clone(&svc);
        m.set_handler(MSE_REQ, move |args| {
            let me = args.cpu.id().index();
            let (ch, off, bytes) = {
                let s = &svc.borrow()[me];
                s.served.set(s.served.get() + 1);
                (
                    s.out[args.src.index()].expect("reply channel bound"),
                    s.block_off,
                    s.block_bytes,
                )
            };
            args.machine.touch_read(args.cpu, off, bytes as u64);
            args.machine.channel_write(args.cpu, &ch, off, bytes);
        });
    }

    let solution: Rc<RefCell<Vec<f64>>> = Rc::new(RefCell::new(vec![0.0; nm]));

    for proc in engine.proc_ids() {
        let m = Rc::clone(&m);
        let cpu = engine.cpu(proc);
        let rec = Rc::clone(&rec);
        let geo = Rc::clone(&geo);
        let sys = Rc::clone(&sys);
        let svc = Rc::clone(&svc);
        let solution = Rc::clone(&solution);
        let expected_served = Rc::clone(&expected_served);
        let p = p.clone();
        engine.spawn(proc, async move {
            let me = proc.index();
            let np = p.procs;
            let nb = p.bodies / np;
            let my_bodies: Vec<usize> = p.bodies_of(me).collect();
            let body_bytes = (mm * 8) as u64;

            // --- memory ------------------------------------------------------
            let z_all = m.alloc(proc, (nm * 8) as u64, 32);
            // Cached per-(local body, source body) contribution vectors.
            let s_cache = m.alloc(proc, (nb * p.bodies * mm * 8) as u64, 32);
            let rhs_buf = m.alloc(proc, (nb * mm * 8) as u64, 32);
            {
                let mut s = svc.borrow_mut();
                s[me].block_off = z_all + (me * nb * mm * 8) as u64;
                s[me].block_bytes = (nb * mm * 8) as u32;
            }

            // --- channels: replies from each owner land directly in the
            // owner's region of our z copy. --------------------------------
            let mut chan_in: Vec<Option<ChannelId>> = vec![None; np];
            for o in 0..np {
                if o != me {
                    chan_in[o] = Some(
                        m.channel_open_recv(
                            &cpu,
                            ProcId::new(o),
                            z_all + (o * nb * mm * 8) as u64,
                            (nb * mm * 8) as u32,
                        )
                        .expect("capacity within the channel limit"),
                    );
                }
            }
            for r in 0..np {
                if r != me {
                    let ch = m.channel_bind(&cpu, ProcId::new(r)).await;
                    svc.borrow_mut()[me].out[r] = Some(ch);
                }
            }
            m.barrier(&cpu).await;

            // --- initialization: diagonal and right-hand side ---------------
            // (Every processor participates, unlike the SM version.)
            cpu.compute(p.pair_cost / 2 * (nb * mm * p.bodies * mm) as u64);
            m.touch_write(&cpu, rhs_buf, (nb * mm * 8) as u64);
            m.touch_write(&cpu, z_all, (nm * 8) as u64);
            m.barrier(&cpu).await;
            if me == 0 {
                rec.mark("init");
            }

            // --- asynchronous Jacobi with the exchange schedule --------------
            let mut z = vec![0.0f64; nm];
            let mut s_host = vec![vec![vec![0.0f64; mm]; p.bodies]; nb];
            for it in 0..p.iters {
                // Request fresh blocks from every due owner, then wait for
                // the replies (servicing others' requests while we wait).
                let mut pending = Vec::new();
                for o in 0..np {
                    if o != me && due_req(&p, me, o, it) {
                        m.am_send(&cpu, ProcId::new(o), MSE_REQ, 0, [0; 4]).await;
                        pending.push(o);
                    }
                }
                for &o in &pending {
                    let id = chan_in[o].expect("channel open");
                    m.channel_wait(&cpu, id).await;
                    let base = o * nb * mm;
                    m.peek_f64s(
                        proc,
                        z_all + (base * 8) as u64,
                        &mut z[base..base + nb * mm],
                    );
                }

                // Recompute the due contributions; sum cached vectors.
                for li in 0..nb {
                    let i = my_bodies[li];
                    for j in 0..p.bodies {
                        if !(j == i || p.due(i, j, it)) {
                            continue;
                        }
                        let js = p.slot(j);
                        m.touch_read(&cpu, z_all + (js * mm * 8) as u64, body_bytes);
                        geo.contribution(i, j, &z[js * mm..(js + 1) * mm], &mut s_host[li][j]);
                        let s_off = s_cache + ((li * p.bodies + j) * mm * 8) as u64;
                        m.touch_write(&cpu, s_off, body_bytes);
                        cpu.compute(p.pair_cost * (mm * mm) as u64);
                    }
                    // Jacobi update of this body's elements.
                    m.touch_read(
                        &cpu,
                        s_cache + (li * p.bodies * mm * 8) as u64,
                        (p.bodies * mm * 8) as u64,
                    );
                    m.touch_read(&cpu, rhs_buf + (li * mm * 8) as u64, body_bytes);
                    let is = p.slot(i);
                    for e in 0..mm {
                        let row = i * mm + e;
                        let total: f64 = (0..p.bodies).map(|j| s_host[li][j][e]).sum();
                        z[is * mm + e] = (sys.rhs[row] - total) / sys.diag[row];
                    }
                    cpu.compute(4 * (p.bodies * mm) as u64);
                    let my_off = z_all + (is * mm * 8) as u64;
                    m.poke_f64s(proc, my_off, &z[is * mm..(is + 1) * mm]);
                    m.touch_write(&cpu, my_off, body_bytes);
                    cpu.resync_if_ahead().await;
                }
            }

            // Drain: keep servicing requests until every request that will
            // ever reach us has been served, then synchronize.
            {
                let expect = expected_served[me];
                let svc = Rc::clone(&svc);
                m.poll_until_with(&cpu, move || svc.borrow()[me].served.get() >= expect)
                    .await;
            }
            m.barrier(&cpu).await;
            if me == 0 {
                rec.mark("main");
            }
            {
                let mut sol = solution.borrow_mut();
                for &k in &my_bodies {
                    let ks = p.slot(k);
                    sol[k * mm..(k + 1) * mm].copy_from_slice(&z[ks * mm..(ks + 1) * mm]);
                }
            }
        });
    }

    let report = engine.try_run()?;
    let z = solution.borrow().clone();
    let validation = validate_solution(p, &z);
    Ok(AppRun {
        report,
        phases: rec.phases(),
        validation,
        stats: vec![("iters".into(), p.iters as f64)],
        artifact: z,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use wwt_sim::{Counter, Kind, Scope};

    #[test]
    fn converges_to_ones() {
        let p = MseParams::small();
        let r = run(&p, MpConfig::default());
        assert!(r.validation.passed, "{}", r.validation.detail);
    }

    #[test]
    fn computation_dominates() {
        let p = MseParams::small();
        let r = run(&p, MpConfig::default());
        let avg = r.report.avg_matrix();
        let compute = avg.get(Scope::App, Kind::Compute);
        assert!(
            compute * 2 > avg.total(),
            "computation {} of total {}",
            compute,
            avg.total()
        );
    }

    #[test]
    fn requests_and_replies_are_counted() {
        let p = MseParams::small();
        let r = run(&p, MpConfig::default());
        let ams = r.report.total_counter(Counter::ActiveMessages);
        let writes = r.report.total_counter(Counter::ChannelWrites);
        assert!(ams > 0, "requests are active messages");
        // One bulk reply per request.
        assert_eq!(ams, writes);
    }

    #[test]
    fn distant_pairs_request_less_often() {
        let mut near = MseParams::small();
        near.d_scale = 1000.0; // everything due every iteration
        let far = MseParams::small(); // schedule throttles distant pairs
        let r_near = run(&near, MpConfig::default());
        let r_far = run(&far, MpConfig::default());
        assert!(
            r_far.report.total_counter(Counter::ActiveMessages)
                <= r_near.report.total_counter(Counter::ActiveMessages),
            "schedule must not increase requests"
        );
        assert!(
            r_far.report.avg_matrix().get(Scope::App, Kind::Compute)
                < r_near.report.avg_matrix().get(Scope::App, Kind::Compute),
            "schedule reduces recomputation"
        );
    }
}
