//! EM3D-MP: ghost nodes updated by bulk channel messages.
//!
//! Each remote edge gets a *ghost node* on the sink side (the paper's
//! variant of the Split-C code: one ghost per remote edge, which keeps
//! initialization simple at the cost of slightly more data). Before each
//! half-step a processor gathers the values its neighbors need and sends
//! them in one bulk channel message per neighbor; the channel's receive
//! buffer *is* the ghost array, so data lands in place with no copying.
//! All communication is sender-initiated, in bulk, and handshake-free —
//! the three properties the paper credits for EM3D-MP's 2x win.

use std::rc::Rc;

use wwt_mp::{ChannelId, MpConfig, MpMachine, SendChannel};
use wwt_sim::{Engine, ProcId, SimError};

use crate::common::{AppRun, PhaseRecorder};
use crate::em3d::{
    build_in_edges, gen_graph, reference_with, validate_values, Csr, Em3dGraph, Em3dParams,
    InEdges, Side,
};

/// Per-processor communication plan derived from the shared graph.
#[derive(Debug, Default)]
struct ProcPlan {
    /// E-side values to send, per destination: my E node indices.
    send_e: Vec<Vec<u32>>,
    /// H-side values to send, per destination.
    send_h: Vec<Vec<u32>>,
    /// Edge-info records to transmit during initialization, per
    /// destination: (sink idx, sink side, weight).
    send_info: Vec<Vec<(u32, Side, f64)>>,
    /// Per sink side, aligned with my [`InEdges`] table for that side:
    /// the ghost slot a remote source's value lands in (unused for
    /// local sources).
    ghost: [Vec<u32>; 2],
}

fn build_plans(p: &Em3dParams, g: &Em3dGraph, ins: &InEdges) -> Vec<ProcPlan> {
    let mut plans: Vec<ProcPlan> = (0..p.procs)
        .map(|q| ProcPlan {
            send_e: vec![Vec::new(); p.procs],
            send_h: vec![Vec::new(); p.procs],
            send_info: vec![Vec::new(); p.procs],
            ghost: [Side::E, Side::H].map(|side| vec![0; ins.table(q, side).edges().len()]),
        })
        .collect();
    // Ghost slots are assigned in global edge order, which is also the
    // order senders gather values in, so slot k of the ghost array always
    // receives the k-th value of the bulk message. The next slot per
    // (source proc, sink proc, source side):
    let mut next = vec![0u32; p.procs * p.procs * 2];
    for ((edge, &w), &slot) in g.edges.iter().zip(&g.weights).zip(ins.slots()) {
        let (src, dst) = (edge.src_proc as usize, edge.dst_proc as usize);
        if src == dst {
            continue;
        }
        let sink_side = edge.from_side.other();
        let ctr = &mut next[(src * p.procs + dst) * 2 + edge.from_side as usize];
        plans[dst].ghost[sink_side as usize][slot as usize] = *ctr;
        *ctr += 1;
        let sender = &mut plans[src];
        match edge.from_side {
            Side::E => sender.send_e[dst].push(edge.src_idx),
            Side::H => sender.send_h[dst].push(edge.src_idx),
        }
        sender.send_info[dst].push((edge.dst_idx, sink_side, w));
    }
    plans
}

const INFO_BYTES: u64 = 16; // (sink idx, side, weight) record

/// Runs EM3D-MP and returns the measurements (Tables 12 and 13), with
/// "init" and "main" phase snapshots.
pub fn run(p: &Em3dParams, mcfg: MpConfig) -> AppRun {
    try_run(p, mcfg).unwrap_or_else(|err| panic!("{err}"))
}

/// Fallible variant of [`run`]: surfaces an engine failure (deadlock,
/// livelock, watchdog) as a structured [`SimError`] instead of
/// panicking, so a grid run can report the failing experiment and let
/// the others finish.
pub fn try_run(p: &Em3dParams, mcfg: MpConfig) -> Result<AppRun, SimError> {
    let mut engine = Engine::new(p.procs, mcfg.sim);
    let m = MpMachine::new(&engine, mcfg);
    let rec = PhaseRecorder::new(Rc::clone(engine.sim()));
    let g = Rc::new(gen_graph(p));
    let ins = Rc::new(build_in_edges(p, &g));
    let plans = Rc::new(build_plans(p, &g, &ins));
    // Each task records where its value arrays actually start (allocation
    // is 32-byte aligned, so offsets are not simply array-size multiples).
    let val_offs: Rc<std::cell::RefCell<Vec<(u64, u64)>>> =
        Rc::new(std::cell::RefCell::new(vec![(0, 0); p.procs]));

    for proc in engine.proc_ids() {
        let m = Rc::clone(&m);
        let cpu = engine.cpu(proc);
        let rec = Rc::clone(&rec);
        let g = Rc::clone(&g);
        let ins = Rc::clone(&ins);
        let plans = Rc::clone(&plans);
        let val_offs = Rc::clone(&val_offs);
        let p = p.clone();
        engine.spawn(proc, async move {
            let me = proc.index();
            let np = p.procs;
            let plan = &plans[me];
            let (in_e, in_h) = (ins.table(me, Side::E), ins.table(me, Side::H));

            // --- local memory layout --------------------------------------
            let e_vals = m.alloc(proc, (p.e_per_proc * 8) as u64, 32);
            let h_vals = m.alloc(proc, (p.h_per_proc * 8) as u64, 32);
            val_offs.borrow_mut()[me] = (e_vals, h_vals);
            let ghost_len = |q: usize, side: Side| match side {
                Side::E => plans[q].send_e[me].len(),
                Side::H => plans[q].send_h[me].len(),
            };
            let mut ghost_e = vec![0u64; np];
            let mut ghost_h = vec![0u64; np];
            for q in 0..np {
                if q != me {
                    ghost_e[q] = m.alloc(proc, (ghost_len(q, Side::E) * 8).max(8) as u64, 32);
                    ghost_h[q] = m.alloc(proc, (ghost_len(q, Side::H) * 8).max(8) as u64, 32);
                }
            }
            // In-edge stream arrays (weights + pointers, 16 bytes/edge).
            let (in_e_deg, in_h_deg) = (in_e.edges().len(), in_h.edges().len());
            let in_e_stream = m.alloc(proc, (in_e_deg as u64 * 16).max(16), 32);
            let in_h_stream = m.alloc(proc, (in_h_deg as u64 * 16).max(16), 32);
            // Send gather buffers.
            let mut buf_e = vec![0u64; np];
            let mut buf_h = vec![0u64; np];
            for q in 0..np {
                buf_e[q] = m.alloc(proc, (plan.send_e[q].len() * 8).max(8) as u64, 32);
                buf_h[q] = m.alloc(proc, (plan.send_h[q].len() * 8).max(8) as u64, 32);
            }
            // Init-phase edge-info scratch.
            let in_info_len: Vec<usize> = (0..np).map(|q| plans[q].send_info[me].len()).collect();
            let info_scratch = m.alloc(
                proc,
                (in_info_len.iter().max().copied().unwrap_or(0) as u64 * INFO_BYTES).max(16),
                32,
            );

            // --- channel setup ---------------------------------------------
            // Open receive channels (announcing to the senders), then bind
            // our send channels. Open/bind orders are symmetric.
            let mut chan_info_in: Vec<Option<ChannelId>> = vec![None; np];
            let mut chan_e_in: Vec<Option<ChannelId>> = vec![None; np];
            let mut chan_h_in: Vec<Option<ChannelId>> = vec![None; np];
            for q in 0..np {
                if q == me {
                    continue;
                }
                if in_info_len[q] > 0 {
                    chan_info_in[q] = Some(
                        m.channel_open_recv(
                            &cpu,
                            ProcId::new(q),
                            info_scratch,
                            (in_info_len[q] as u64 * INFO_BYTES) as u32,
                        )
                        .expect("capacity within the channel limit"),
                    );
                }
                if ghost_len(q, Side::E) > 0 {
                    chan_e_in[q] = Some(
                        m.channel_open_recv(
                            &cpu,
                            ProcId::new(q),
                            ghost_e[q],
                            (ghost_len(q, Side::E) * 8) as u32,
                        )
                        .expect("capacity within the channel limit"),
                    );
                }
                if ghost_len(q, Side::H) > 0 {
                    chan_h_in[q] = Some(
                        m.channel_open_recv(
                            &cpu,
                            ProcId::new(q),
                            ghost_h[q],
                            (ghost_len(q, Side::H) * 8) as u32,
                        )
                        .expect("capacity within the channel limit"),
                    );
                }
            }
            let mut out_info: Vec<Option<SendChannel>> = vec![None; np];
            let mut out_e: Vec<Option<SendChannel>> = vec![None; np];
            let mut out_h: Vec<Option<SendChannel>> = vec![None; np];
            for q in 0..np {
                if q == me {
                    continue;
                }
                if !plan.send_info[q].is_empty() {
                    out_info[q] = Some(m.channel_bind(&cpu, ProcId::new(q)).await);
                }
                if !plan.send_e[q].is_empty() {
                    out_e[q] = Some(m.channel_bind(&cpu, ProcId::new(q)).await);
                }
                if !plan.send_h[q].is_empty() {
                    out_h[q] = Some(m.channel_bind(&cpu, ProcId::new(q)).await);
                }
            }
            m.barrier(&cpu).await;

            // --- initialization ---------------------------------------------
            // Generate local nodes and values.
            for (i, &v) in g.e0[me].iter().enumerate() {
                m.poke_f64(proc, e_vals + (i * 8) as u64, v);
            }
            for (i, &v) in g.h0[me].iter().enumerate() {
                m.poke_f64(proc, h_vals + (i * 8) as u64, v);
            }
            m.touch_write(&cpu, e_vals, (p.e_per_proc * 8) as u64);
            m.touch_write(&cpu, h_vals, (p.h_per_proc * 8) as u64);
            cpu.compute(20 * (p.e_per_proc + p.h_per_proc) as u64 * p.degree as u64);

            // Transmit edge info for our remote out-edges in one bulk
            // message per neighbor (the paper's reverse-edge exchange).
            for q in 0..np {
                if let Some(ch) = &out_info[q] {
                    let recs = &plan.send_info[q];
                    for (k, &(dst, side, w)) in recs.iter().enumerate() {
                        let off = buf_e[q]; // reuse gather buffer as staging
                        let _ = off;
                        let base = info_scratch; // staging in our own scratch
                        let o = base + k as u64 * INFO_BYTES;
                        m.poke_u32(proc, o, dst);
                        m.poke_u32(proc, o + 4, matches!(side, Side::H) as u32);
                        m.poke_f64(proc, o + 8, w);
                    }
                    m.touch_write(&cpu, info_scratch, recs.len() as u64 * INFO_BYTES);
                    cpu.compute(8 * recs.len() as u64);
                    m.channel_write(
                        &cpu,
                        ch,
                        info_scratch,
                        (recs.len() as u64 * INFO_BYTES) as u32,
                    );
                }
            }
            // Receive edge info and build the in-edge stream arrays
            // (reference the data twice: in-degree count, then pointers).
            for q in 0..np {
                if let Some(id) = chan_info_in[q] {
                    let got = m.channel_wait(&cpu, id).await;
                    m.touch_read(&cpu, info_scratch, got as u64);
                    cpu.compute(6 * (got as u64 / INFO_BYTES));
                }
            }
            // Build pass: count in-degrees, then write (weight, pointer)
            // records for every in-edge (local and ghost alike).
            m.touch_write(&cpu, in_e_stream, (in_e_deg as u64 * 16).max(16));
            m.touch_write(&cpu, in_h_stream, (in_h_deg as u64 * 16).max(16));
            cpu.compute(12 * (in_e_deg + in_h_deg) as u64);

            // Prime the H ghosts so the first E half-step sees current
            // remote values.
            for q in 0..np {
                if let Some(ch) = &out_h[q] {
                    gather_send(&m, &cpu, &plan.send_h[q], h_vals, buf_h[q], ch);
                }
            }
            for q in 0..np {
                if let Some(id) = chan_h_in[q] {
                    m.channel_wait(&cpu, id).await;
                }
            }
            m.barrier(&cpu).await;
            if me == 0 {
                rec.mark("init");
            }

            // --- main loop ----------------------------------------------------
            for _ in 0..p.iters {
                // E half-step: new E from H in-neighbors.
                half_step(
                    &m,
                    &cpu,
                    &p,
                    in_e,
                    &plan.ghost[Side::E as usize],
                    e_vals,
                    h_vals,
                    &ghost_h,
                    in_e_stream,
                )
                .await;
                // Ship new E values to neighbors, then collect ours.
                for q in 0..np {
                    if let Some(ch) = &out_e[q] {
                        gather_send(&m, &cpu, &plan.send_e[q], e_vals, buf_e[q], ch);
                    }
                }
                for q in 0..np {
                    if let Some(id) = chan_e_in[q] {
                        m.channel_wait(&cpu, id).await;
                    }
                }
                // H half-step: new H from E in-neighbors.
                half_step(
                    &m,
                    &cpu,
                    &p,
                    in_h,
                    &plan.ghost[Side::H as usize],
                    h_vals,
                    e_vals,
                    &ghost_e,
                    in_h_stream,
                )
                .await;
                for q in 0..np {
                    if let Some(ch) = &out_h[q] {
                        gather_send(&m, &cpu, &plan.send_h[q], h_vals, buf_h[q], ch);
                    }
                }
                for q in 0..np {
                    if let Some(id) = chan_h_in[q] {
                        m.channel_wait(&cpu, id).await;
                    }
                }
            }
            m.barrier(&cpu).await;
            if me == 0 {
                rec.mark("main");
            }
            // Leave the final values where the harness can find them: they
            // are already in e_vals/h_vals.
            let _ = (e_vals, h_vals);
        });
    }

    let report = engine.try_run()?;

    // Collect final values for validation from the recorded offsets.
    let mut got_e = Vec::new();
    let mut got_h = Vec::new();
    for q in 0..p.procs {
        let (e_off, h_off) = val_offs.borrow()[q];
        let mut e = vec![0.0f64; p.e_per_proc];
        m.peek_f64s(ProcId::new(q), e_off, &mut e);
        let mut h = vec![0.0f64; p.h_per_proc];
        m.peek_f64s(ProcId::new(q), h_off, &mut h);
        got_e.push(e);
        got_h.push(h);
    }
    let refv = reference_with(p, &g, &ins);
    let validation = validate_values(&refv, &got_e, &got_h);
    Ok(AppRun {
        report,
        phases: rec.phases(),
        validation,
        stats: vec![("iters".into(), p.iters as f64)],
        artifact: got_e.into_iter().flatten().collect(),
    })
}

/// One half-step over `sinks` (the in-edge table of the side being
/// updated, with its ghost slots): streams the in-edge arrays, reads each
/// source value (local array or ghost slot), and writes the updated sink
/// values.
#[allow(clippy::too_many_arguments)]
async fn half_step(
    m: &Rc<MpMachine>,
    cpu: &wwt_sim::Cpu,
    p: &Em3dParams,
    sinks: &Csr,
    ghost: &[u32],
    sink_vals: u64,
    src_vals: u64,
    ghosts: &[u64],
    stream: u64,
) {
    let proc = cpu.id();
    for (i, row) in sinks.ranges().enumerate() {
        let deg = row.len() as u64;
        if deg > 0 {
            m.touch_read(cpu, stream + row.start as u64 * 16, deg * 16);
        }
        let mut acc = 0.0;
        for (&(sp, si, w), &slot) in sinks.edges()[row.clone()].iter().zip(&ghost[row]) {
            let addr = if sp as usize == proc.index() {
                src_vals + si as u64 * 8
            } else {
                ghosts[sp as usize] + slot as u64 * 8
            };
            m.touch_read(cpu, addr, 8);
            acc += w * m.peek_f64(proc, addr);
        }
        let sink = sink_vals + (i * 8) as u64;
        let old = m.peek_f64(proc, sink);
        m.poke_f64(proc, sink, old - acc);
        m.touch_write(cpu, sink, 8);
        cpu.compute(p.node_cost + p.edge_cost * deg);
    }
    cpu.resync_if_ahead().await;
}

/// Gathers the listed source values into a contiguous buffer and ships
/// them over the channel in one bulk message.
fn gather_send(
    m: &Rc<MpMachine>,
    cpu: &wwt_sim::Cpu,
    list: &[u32],
    vals: u64,
    buf: u64,
    ch: &SendChannel,
) {
    let proc = cpu.id();
    for (k, &idx) in list.iter().enumerate() {
        let src = vals + idx as u64 * 8;
        m.touch_read(cpu, src, 8);
        let v = m.peek_f64(proc, src);
        m.poke_f64(proc, buf + (k * 8) as u64, v);
    }
    m.touch_write(cpu, buf, (list.len() * 8) as u64);
    cpu.compute(4 * list.len() as u64);
    m.channel_write(cpu, ch, buf, (list.len() * 8) as u32);
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::collections::HashMap;

    /// Where an in-edge's source value lives, as the deleted plan
    /// resolved it.
    #[derive(Copy, Clone, Debug, PartialEq)]
    enum SrcRef {
        /// A node on this processor (index within the source side's array).
        Local(usize),
        /// A ghost slot fed by processor `src`.
        Ghost { src: usize, slot: usize },
    }

    /// The plan the table replaced, kept as its oracle: send lists, edge
    /// info, and per-sink resolved in-edges `[E sinks, H sinks]`, with
    /// ghost slots counted in a map in global edge order.
    struct OraclePlan {
        send_e: Vec<Vec<usize>>,
        send_h: Vec<Vec<usize>>,
        send_info: Vec<Vec<(u32, Side, f64)>>,
        ins: [Vec<Vec<(f64, SrcRef)>>; 2],
    }

    fn oracle_plans(p: &Em3dParams, g: &Em3dGraph) -> Vec<OraclePlan> {
        let mut plans: Vec<OraclePlan> = (0..p.procs)
            .map(|_| OraclePlan {
                send_e: vec![Vec::new(); p.procs],
                send_h: vec![Vec::new(); p.procs],
                send_info: vec![Vec::new(); p.procs],
                ins: [
                    vec![Vec::new(); p.e_per_proc],
                    vec![Vec::new(); p.h_per_proc],
                ],
            })
            .collect();
        let mut slots: HashMap<(usize, usize, Side), usize> = HashMap::new();
        for (edge, &w) in g.edges.iter().zip(&g.weights) {
            let (src, dst) = (edge.src_proc as usize, edge.dst_proc as usize);
            let (src_idx, dst_idx) = (edge.src_idx as usize, edge.dst_idx as usize);
            let sink_side = edge.from_side.other();
            let src_ref = if src == dst {
                SrcRef::Local(src_idx)
            } else {
                let ctr = slots.entry((src, dst, edge.from_side)).or_insert(0);
                let slot = *ctr;
                *ctr += 1;
                let sender = &mut plans[src];
                match edge.from_side {
                    Side::E => sender.send_e[dst].push(src_idx),
                    Side::H => sender.send_h[dst].push(src_idx),
                }
                sender.send_info[dst].push((dst_idx as u32, sink_side, w));
                SrcRef::Ghost { src, slot }
            };
            plans[dst].ins[sink_side as usize][dst_idx].push((w, src_ref));
        }
        plans
    }

    /// Every in-edge resolves to the oracle's address, in the oracle's
    /// order, and the send lists and edge info are the oracle's.
    pub(crate) fn assert_plans_match_oracle(p: &Em3dParams, g: &Em3dGraph, ins: &InEdges) {
        let plans = build_plans(p, g, ins);
        for (q, (plan, want)) in plans.iter().zip(oracle_plans(p, g)).enumerate() {
            let widen = |l: &Vec<Vec<u32>>| -> Vec<Vec<usize>> {
                l.iter()
                    .map(|v| v.iter().map(|&i| i as usize).collect())
                    .collect()
            };
            assert_eq!(widen(&plan.send_e), want.send_e, "proc {q} send_e");
            assert_eq!(widen(&plan.send_h), want.send_h, "proc {q} send_h");
            assert_eq!(plan.send_info, want.send_info, "proc {q} send_info");
            for side in [Side::E, Side::H] {
                let t = ins.table(q, side);
                let ghost = &plan.ghost[side as usize];
                let sinks = &want.ins[side as usize];
                assert_eq!(t.ranges().count(), sinks.len());
                for (i, (row, want)) in t.ranges().zip(sinks).enumerate() {
                    let got: Vec<(f64, SrcRef)> = row
                        .map(|k| {
                            let (sp, si, w) = t.edges()[k];
                            let src = if sp as usize == q {
                                SrcRef::Local(si as usize)
                            } else {
                                SrcRef::Ghost {
                                    src: sp as usize,
                                    slot: ghost[k] as usize,
                                }
                            };
                            (w, src)
                        })
                        .collect();
                    assert_eq!(&got, want, "proc {q} {side:?} sink {i}");
                }
            }
        }
    }
    use wwt_sim::{Counter, Kind, Scope};

    #[test]
    fn matches_sequential_reference_bitwise() {
        let p = Em3dParams::small();
        let r = run(&p, MpConfig::default());
        assert!(r.validation.passed, "{}", r.validation.detail);
        // Same in-edge order as the reference: the error is exactly zero.
        assert!(
            r.validation.detail.contains("0.000e0"),
            "{}",
            r.validation.detail
        );
    }

    #[test]
    fn records_init_and_main_phases() {
        let p = Em3dParams::small();
        let r = run(&p, MpConfig::default());
        assert!(r.phase("init").is_some());
        assert!(r.phase("main").is_some());
        let init_clock = r.phase("init").unwrap().snapshot[0].0;
        let main_clock = r.phase("main").unwrap().snapshot[0].0;
        assert!(main_clock > init_clock);
    }

    #[test]
    fn communication_is_bulk_channel_messages() {
        let p = Em3dParams::small();
        let r = run(&p, MpConfig::default());
        let writes = r.report.avg_counter(Counter::ChannelWrites);
        // Per iteration: at most 2 sides x 2 neighbors, plus init traffic.
        assert!(writes > 0.0);
        let data = r.report.total_counter(Counter::BytesData);
        let ctrl = r.report.total_counter(Counter::BytesControl);
        assert!(
            data > ctrl,
            "bulk transfers are data-dominated: {data} vs {ctrl}"
        );
        // No locks exist in the message-passing version.
        assert_eq!(r.report.total_counter(Counter::LockAcquires), 0);
        assert_eq!(r.report.avg_matrix().by_kind(Kind::LockWait), 0);
    }

    #[test]
    fn span_one_limits_channel_partners() {
        let p = Em3dParams {
            e_per_proc: 100,
            h_per_proc: 100,
            procs: 8,
            span: 1,
            ..Em3dParams::small()
        };
        let r = run(&p, MpConfig::default());
        // Each processor talks only to its 2 neighbors: per iteration at
        // most 4 data channel-writes (2 sides x 2 neighbors).
        let per_iter = (r.report.avg_counter(Counter::ChannelWrites) - 3.0/* init edge-info + priming, roughly */)
            / p.iters as f64;
        assert!(per_iter <= 5.0, "channel writes per iteration: {per_iter}");
    }

    #[test]
    fn lib_time_is_visible_but_moderate() {
        let p = Em3dParams::small();
        let r = run(&p, MpConfig::default());
        let avg = r.report.avg_matrix();
        let lib = avg.by_scope(Scope::Lib);
        assert!(lib > 0, "library time must be charged");
    }
}
