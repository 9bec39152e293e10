//! EM3D-SM: in-place sharing under the invalidation protocol.
//!
//! No ghost nodes: caching *is* the replication mechanism, so every
//! producer-consumer update costs the 4-message invalidate/request/reply
//! pattern the paper dissects in Section 5.3.3. Following the paper's
//! tuned version, node *values* live in separate per-processor vectors
//! (better spatial locality than embedding them in node records); the
//! in-edge arrays (weights and pointers) are allocated with `gmalloc`,
//! whose round-robin policy homes them on essentially random nodes — the
//! source of the 97%-remote-miss pathology of Table 15 — or locally under
//! the Table-17 policy. Initialization builds the reverse-edge lists with
//! remote writes protected by locks, exactly the cost structure the paper
//! reports (Table 14's lock row).

use std::rc::Rc;

use wwt_mem::GAddr;
use wwt_sim::{Engine, SimError};
use wwt_sm::{McsLock, SmConfig, SmMachine};

use crate::common::{AppRun, PhaseRecorder};
use crate::em3d::{
    build_in_edges, gen_graph, reference_with, validate_values, Csr, Edge, Em3dHint, Em3dParams,
    Side,
};

/// Number of locks per destination processor protecting its in-edge
/// structures (hashed by sink node index).
const LOCKS_PER_PROC: usize = 16;

/// Shared-memory addresses of one processor's arrays.
#[derive(Clone, Debug)]
struct Arrays {
    e_vals: GAddr,
    h_vals: GAddr,
    /// In-degree count words, E side then H side (one u64 per node).
    counts: GAddr,
    in_e_w: GAddr,
    in_e_ptr: GAddr,
    in_h_w: GAddr,
    in_h_ptr: GAddr,
    /// Per-node in-edge list starts (E side then H side), as u64 slots.
    starts: GAddr,
}

/// Runs EM3D-SM and returns the measurements (Tables 14 and 15; Tables 16
/// and 17 via the cache/allocation fields of [`SmConfig`]), with "init"
/// and "main" phase snapshots.
pub fn run(p: &Em3dParams, scfg: SmConfig) -> AppRun {
    try_run(p, scfg).unwrap_or_else(|err| panic!("{err}"))
}

/// Fallible variant of [`run`]: surfaces an engine failure (deadlock,
/// livelock, watchdog) as a structured [`SimError`] instead of
/// panicking, so a grid run can report the failing experiment and let
/// the others finish.
pub fn try_run(p: &Em3dParams, scfg: SmConfig) -> Result<AppRun, SimError> {
    let mut engine = Engine::new(p.procs, scfg.sim);
    let m = SmMachine::new(&engine, scfg);
    let rec = PhaseRecorder::new(Rc::clone(engine.sim()));
    let g = Rc::new(gen_graph(p));
    // Built once per run for the layout, the init passes, the main loop
    // and the final reference check.
    let ins = Rc::new(build_in_edges(p, &g));
    let in_bytes = |q: usize, side: Side| (ins.table(q, side).edges().len() * 8).max(8) as u64;

    // Allocate every processor's arrays up front (allocation-policy aware:
    // `gmalloc(q, ..)` homes on q only under the Local policy).
    let arrays: Rc<Vec<Arrays>> = Rc::new(
        (0..p.procs)
            .map(|q| Arrays {
                e_vals: m.gmalloc(q, (p.e_per_proc * 8) as u64, 32),
                h_vals: m.gmalloc(q, (p.h_per_proc * 8) as u64, 32),
                counts: m.gmalloc(q, ((p.e_per_proc + p.h_per_proc) * 8) as u64, 32),
                in_e_w: m.gmalloc(q, in_bytes(q, Side::E), 32),
                in_e_ptr: m.gmalloc(q, in_bytes(q, Side::E), 32),
                in_h_w: m.gmalloc(q, in_bytes(q, Side::H), 32),
                in_h_ptr: m.gmalloc(q, in_bytes(q, Side::H), 32),
                starts: m.gmalloc(q, ((p.e_per_proc + p.h_per_proc) * 8) as u64, 32),
            })
            .collect(),
    );
    let locks: Rc<Vec<Vec<McsLock>>> = Rc::new(
        (0..p.procs)
            .map(|_| (0..LOCKS_PER_PROC).map(|_| McsLock::new(&m)).collect())
            .collect(),
    );

    for proc in engine.proc_ids() {
        let m = Rc::clone(&m);
        let cpu = engine.cpu(proc);
        let rec = Rc::clone(&rec);
        let g = Rc::clone(&g);
        let ins = Rc::clone(&ins);
        let arrays = Rc::clone(&arrays);
        let locks = Rc::clone(&locks);
        let p = p.clone();
        engine.spawn(proc, async move {
            let me = proc.index();
            let a = &arrays[me];
            // My out-edges (`gen_graph` groups edges by source processor),
            // with their weights and slots at the sinks: the in-edge
            // records I install.
            let per_proc = (p.e_per_proc + p.h_per_proc) * p.degree;
            let mine = me * per_proc..(me + 1) * per_proc;
            let (my_edges, my_weights, my_slots) = (
                &g.edges[mine.clone()],
                &g.weights[mine.clone()],
                &ins.slots()[mine],
            );

            // --- initialization -------------------------------------------
            // Local node values.
            for (i, &v) in g.e0[me].iter().enumerate() {
                m.poke_f64(a.e_vals.offset_by((i * 8) as u64), v);
            }
            for (i, &v) in g.h0[me].iter().enumerate() {
                m.poke_f64(a.h_vals.offset_by((i * 8) as u64), v);
            }
            m.touch_write(&cpu, a.e_vals, (p.e_per_proc * 8) as u64)
                .await;
            m.touch_write(&cpu, a.h_vals, (p.h_per_proc * 8) as u64)
                .await;
            cpu.compute(20 * (p.e_per_proc + p.h_per_proc) as u64 * p.degree as u64);

            // Each edge's in-degree count word at its sink.
            let count_word = |e: &Edge| {
                let side_off = match e.from_side.other() {
                    Side::E => 0,
                    Side::H => p.e_per_proc,
                };
                arrays[e.dst_proc as usize]
                    .counts
                    .offset_by(((side_off + e.dst_idx as usize) * 8) as u64)
            };

            // Pass 1: increment in-degree counts at the sinks (remote
            // writes under locks).
            for (k, e) in my_edges.iter().enumerate() {
                let (dst, dst_idx) = (e.dst_proc as usize, e.dst_idx as usize);
                let cnt = count_word(e);
                if let Some(next) = my_edges.get(k + 1) {
                    m.host_prefetch(me, count_word(next));
                }
                if dst != me {
                    let lock = &locks[dst][dst_idx % LOCKS_PER_PROC];
                    lock.acquire(&m, &cpu).await;
                    let c = m.read_u64(&cpu, cnt).await;
                    m.write_u64(&cpu, cnt, c + 1).await;
                    lock.release(&m, &cpu).await;
                } else {
                    let c = m.read_u64(&cpu, cnt).await;
                    m.write_u64(&cpu, cnt, c + 1).await;
                }
                cpu.compute(6);
            }
            m.barrier(&cpu).await;

            // Owners turn counts into per-node starts (a local scan).
            m.touch_read(&cpu, a.counts, ((p.e_per_proc + p.h_per_proc) * 8) as u64)
                .await;
            m.touch_write(&cpu, a.starts, ((p.e_per_proc + p.h_per_proc) * 8) as u64)
                .await;
            cpu.compute(4 * (p.e_per_proc + p.h_per_proc) as u64);
            m.barrier(&cpu).await;

            // Each edge's (weight, pointer) slots at its sink.
            let in_slots = |e: &Edge, slot: u32| {
                let d = &arrays[e.dst_proc as usize];
                let (w_arr, ptr_arr) = match e.from_side.other() {
                    Side::E => (d.in_e_w, d.in_e_ptr),
                    Side::H => (d.in_h_w, d.in_h_ptr),
                };
                (
                    w_arr.offset_by(slot as u64 * 8),
                    ptr_arr.offset_by(slot as u64 * 8),
                )
            };

            // Pass 2: install (weight, source-pointer) records at the
            // sinks, bumping a cursor under the same locks.
            for (k, ((e, &weight), &slot)) in
                my_edges.iter().zip(my_weights).zip(my_slots).enumerate()
            {
                let (dst, dst_idx) = (e.dst_proc as usize, e.dst_idx as usize);
                // The source value this edge reads in the main loop: E
                // sinks read H sources and vice versa.
                let src_vals = match e.from_side.other() {
                    Side::E => a.h_vals,
                    Side::H => a.e_vals,
                };
                let src_addr = src_vals.offset_by(e.src_idx as u64 * 8);
                let (w_slot, p_slot) = in_slots(e, slot);
                if let (Some(next), Some(&next_slot)) = (my_edges.get(k + 1), my_slots.get(k + 1)) {
                    let (next_w, next_p) = in_slots(next, next_slot);
                    m.host_prefetch(me, count_word(next));
                    m.host_prefetch(me, next_w);
                    m.host_prefetch(me, next_p);
                }
                if dst != me {
                    let lock = &locks[dst][dst_idx % LOCKS_PER_PROC];
                    lock.acquire(&m, &cpu).await;
                    // Cursor bump (read + write of the count word).
                    let cnt = count_word(e);
                    let c = m.read_u64(&cpu, cnt).await;
                    m.write_u64(&cpu, cnt, c + 1).await;
                    m.write_f64(&cpu, w_slot, weight).await;
                    m.write_u64(&cpu, p_slot, src_addr.raw()).await;
                    lock.release(&m, &cpu).await;
                } else {
                    m.poke_f64(w_slot, weight);
                    m.poke_u64(p_slot, src_addr.raw());
                    m.touch_write(&cpu, w_slot, 8).await;
                    m.touch_write(&cpu, p_slot, 8).await;
                }
                // Host-side ground truth regardless of simulated timing.
                m.poke_f64(w_slot, weight);
                m.poke_u64(p_slot, src_addr.raw());
                cpu.compute(10);
            }
            m.barrier(&cpu).await;
            if me == 0 {
                rec.mark("init");
            }

            // --- main loop --------------------------------------------------
            let (in_e, in_h) = (ins.table(me, Side::E), ins.table(me, Side::H));
            // Unique remote source blocks per half (for flush/prefetch
            // hints), at the machine's block size: H sources feed the E
            // half and vice versa. The unhinted variant never reads them,
            // so it builds none.
            let block_bytes = m.config().arch.cache.block_bytes;
            let remote_blocks = |ins: &Csr, src_side: Side| -> Vec<GAddr> {
                if p.hint == Em3dHint::None {
                    return Vec::new();
                }
                let mut blocks: Vec<u64> = ins
                    .edges()
                    .iter()
                    .filter(|&&(sp, _, _)| sp as usize != me)
                    .map(|&(sp, si, _)| {
                        let vals = match src_side {
                            Side::H => arrays[sp as usize].h_vals,
                            Side::E => arrays[sp as usize].e_vals,
                        };
                        vals.offset_by(si as u64 * 8).raw() & !(block_bytes - 1)
                    })
                    .collect();
                blocks.sort_unstable();
                blocks.dedup();
                blocks.into_iter().map(GAddr::from_raw).collect()
            };
            let remote_h = remote_blocks(in_e, Side::H);
            let remote_e = remote_blocks(in_h, Side::E);
            for _ in 0..p.iters {
                if p.hint == Em3dHint::Prefetch {
                    for b in &remote_h {
                        m.prefetch(&cpu, *b, block_bytes).await;
                    }
                }
                half_step(&m, &cpu, &p, a.e_vals, a.in_e_w, a.in_e_ptr, in_e).await;
                if p.hint == Em3dHint::Flush {
                    for b in &remote_h {
                        m.flush(&cpu, *b, block_bytes).await;
                    }
                }
                m.bulk_publish(&cpu, a.e_vals, (p.e_per_proc * 8) as u64)
                    .await;
                m.barrier(&cpu).await;
                if p.hint == Em3dHint::Prefetch {
                    for b in &remote_e {
                        m.prefetch(&cpu, *b, block_bytes).await;
                    }
                }
                half_step(&m, &cpu, &p, a.h_vals, a.in_h_w, a.in_h_ptr, in_h).await;
                if p.hint == Em3dHint::Flush {
                    for b in &remote_e {
                        m.flush(&cpu, *b, block_bytes).await;
                    }
                }
                m.bulk_publish(&cpu, a.h_vals, (p.h_per_proc * 8) as u64)
                    .await;
                m.barrier(&cpu).await;
            }
            if me == 0 {
                rec.mark("main");
            }
        });
    }

    let report = engine.try_run()?;
    let mut got_e = Vec::new();
    let mut got_h = Vec::new();
    for q in 0..p.procs {
        let mut e = vec![0.0f64; p.e_per_proc];
        m.peek_f64s(arrays[q].e_vals, &mut e);
        let mut h = vec![0.0f64; p.h_per_proc];
        m.peek_f64s(arrays[q].h_vals, &mut h);
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

/// One half-step: stream the in-edge arrays, read each source value in
/// place (local or remote shared memory), and write the updated sinks.
async fn half_step(
    m: &Rc<SmMachine>,
    cpu: &wwt_sim::Cpu,
    p: &Em3dParams,
    sink_vals: GAddr,
    w_arr: GAddr,
    ptr_arr: GAddr,
    ins: &Csr,
) {
    let me = cpu.id().index();
    let edges = ins.edges().len();
    let source = |k: usize| GAddr::from_raw(m.peek_u64(ptr_arr.offset_by((k * 8) as u64)));
    for (i, row) in ins.ranges().enumerate() {
        let (cursor, deg) = (row.start, row.len());
        if deg > 0 {
            // Stream the weight and pointer arrays for this node.
            m.touch_read(cpu, w_arr.offset_by((cursor * 8) as u64), (deg * 8) as u64)
                .await;
            m.touch_read(
                cpu,
                ptr_arr.offset_by((cursor * 8) as u64),
                (deg * 8) as u64,
            )
            .await;
        }
        let mut acc = 0.0;
        for k in cursor..cursor + deg {
            let w = m.peek_f64(w_arr.offset_by((k * 8) as u64));
            let src = source(k);
            // One edge of lookahead: the next source value (possibly the
            // next row's first) is a random address in shared memory.
            if k + 1 < edges {
                m.host_prefetch(me, source(k + 1));
            }
            m.touch_read(cpu, src, 8).await;
            acc += w * m.peek_f64(src);
        }
        let sink = sink_vals.offset_by((i * 8) as u64);
        let old = m.peek_f64(sink);
        m.touch_write(cpu, sink, 8).await;
        m.poke_f64(sink, old - acc);
        cpu.compute(p.node_cost + p.edge_cost * deg as u64);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::em3d::{Em3dGraph, InEdges};
    use wwt_mem::CacheGeometry;
    use wwt_mp::MpConfig;
    use wwt_sim::{Counter, Kind, Scope};
    use wwt_sm::{AllocPolicy, ProtocolMode};

    /// The slots the deleted fill-record layout gave each edge, kept as
    /// the table's oracle: node-major bases per (proc, side, sink) from
    /// the in-degrees, then a cursor per sink bumped in global edge order.
    /// Also returns the per-(proc, side) in-degree totals.
    fn layout_slots(p: &Em3dParams, g: &Em3dGraph) -> (Vec<usize>, Vec<[usize; 2]>) {
        let sinks = [p.e_per_proc, p.h_per_proc];
        let mut deg: Vec<[Vec<usize>; 2]> =
            (0..p.procs).map(|_| sinks.map(|n| vec![0; n])).collect();
        for e in &g.edges {
            deg[e.dst_proc as usize][e.from_side.other() as usize][e.dst_idx as usize] += 1;
        }
        let totals = deg
            .iter()
            .map(|d| d.each_ref().map(|v| v.iter().sum()))
            .collect();
        let mut cursor: Vec<[Vec<usize>; 2]> = deg
            .iter()
            .map(|d| {
                d.each_ref().map(|v| {
                    let mut start = 0;
                    v.iter()
                        .map(|&n| {
                            start += n;
                            start - n
                        })
                        .collect()
                })
            })
            .collect();
        let slots = g
            .edges
            .iter()
            .map(|e| {
                let c = &mut cursor[e.dst_proc as usize][e.from_side.other() as usize]
                    [e.dst_idx as usize];
                *c += 1;
                *c - 1
            })
            .collect();
        (slots, totals)
    }

    /// The table's per-edge slots and in-degree totals equal the layout's.
    pub(crate) fn assert_slots_match_oracle(p: &Em3dParams, g: &Em3dGraph, ins: &InEdges) {
        let (slots, totals) = layout_slots(p, g);
        let got: Vec<usize> = ins.slots().iter().map(|&s| s as usize).collect();
        assert!(got == slots, "per-edge slots differ from the layout's");
        for (q, t) in totals.iter().enumerate() {
            let got = [Side::E, Side::H].map(|side| ins.table(q, side).edges().len());
            assert_eq!(&got, t, "proc {q} in-degree totals");
        }
    }

    #[test]
    fn matches_sequential_reference_bitwise() {
        let p = Em3dParams::small();
        let r = run(&p, SmConfig::default());
        assert!(r.validation.passed, "{}", r.validation.detail);
        assert!(
            r.validation.detail.contains("0.000e0"),
            "{}",
            r.validation.detail
        );
    }

    #[test]
    fn sm_and_mp_agree_exactly() {
        let p = Em3dParams::small();
        let a = run(&p, SmConfig::default());
        let b = crate::em3d::mp::run(&p, MpConfig::default());
        assert_eq!(a.artifact, b.artifact);
    }

    #[test]
    fn init_uses_locks_main_loop_does_not() {
        let p = Em3dParams::small();
        let r = run(&p, SmConfig::default());
        let init = r.phase("init").expect("init phase");
        let total_locks: u64 = r.report.total_counter(Counter::LockAcquires);
        let init_locks: u64 = init
            .snapshot
            .iter()
            .map(|(_, _, c)| c.get(Counter::LockAcquires))
            .sum();
        assert!(total_locks > 0);
        assert_eq!(init_locks, total_locks, "all locking happens in init");
        assert!(r.report.avg_matrix().by_scope(Scope::Lock) > 0);
    }

    #[test]
    fn main_loop_is_dominated_by_shared_misses() {
        let p = Em3dParams {
            iters: 6,
            ..Em3dParams::small()
        };
        let r = run(&p, SmConfig::default());
        let avg = r.report.avg_matrix();
        let shared = avg.by_kind(Kind::ShMissRemote) + avg.by_kind(Kind::ShMissLocal);
        assert!(shared > avg.by_kind(Kind::PrivMiss));
        assert!(r.report.total_counter(Counter::WriteFaults) > 0);
    }

    #[test]
    fn round_robin_allocation_makes_misses_remote() {
        let p = Em3dParams::small();
        let rr = run(&p, SmConfig::default());
        let local = run(
            &p,
            SmConfig {
                alloc_policy: AllocPolicy::Local,
                ..SmConfig::default()
            },
        );
        let remote_frac = |r: &AppRun| {
            let rem = r.report.total_counter(Counter::ShMissesRemote) as f64;
            let loc = r.report.total_counter(Counter::ShMissesLocal) as f64;
            rem / (rem + loc)
        };
        assert!(
            remote_frac(&rr) > remote_frac(&local) + 0.15,
            "round-robin {:.2} vs local {:.2}",
            remote_frac(&rr),
            remote_frac(&local)
        );
        assert!(local.report.elapsed() < rr.report.elapsed());
        assert!(local.validation.passed);
    }

    #[test]
    fn bigger_cache_speeds_up_main_loop() {
        let p = Em3dParams {
            e_per_proc: 300,
            h_per_proc: 300,
            degree: 8,
            procs: 4,
            iters: 3,
            ..Em3dParams::small()
        };
        // Shrink the cache to make capacity misses matter at test scale.
        let small_cache = SmConfig {
            arch: wwt_sm::ArchParams {
                cache: CacheGeometry {
                    size_bytes: 8 * 1024,
                    ways: 4,
                    block_bytes: 32,
                },
                ..wwt_sm::ArchParams::default()
            },
            ..SmConfig::default()
        };
        let big_cache = SmConfig::default();
        let small = run(&p, small_cache);
        let big = run(&p, big_cache);
        assert!(big.report.elapsed() < small.report.elapsed());
        assert!(big.validation.passed && small.validation.passed);
    }

    #[test]
    fn bulk_update_protocol_cuts_communication() {
        let p = Em3dParams::small();
        let inval = run(&p, SmConfig::default());
        let bulk = run(
            &p,
            SmConfig {
                protocol: ProtocolMode::BulkUpdate,
                ..SmConfig::default()
            },
        );
        assert!(bulk.validation.passed);
        assert!(
            bulk.report.total_counter(Counter::WriteFaults)
                < inval.report.total_counter(Counter::WriteFaults)
        );
    }
}

#[cfg(test)]
mod hint_tests {
    use super::*;
    use crate::em3d::Em3dHint;
    use wwt_sim::{Counter, Kind};

    fn run_with(hint: Em3dHint) -> AppRun {
        let p = Em3dParams {
            e_per_proc: 120,
            h_per_proc: 120,
            degree: 6,
            iters: 6,
            hint,
            ..Em3dParams::small()
        };
        // Local allocation, so the misses the hints target (the
        // producer-consumer value updates) dominate.
        run(
            &p,
            SmConfig {
                alloc_policy: wwt_sm::AllocPolicy::Local,
                ..SmConfig::default()
            },
        )
    }

    #[test]
    fn flush_hint_cheapens_the_producers_writes() {
        let base = run_with(Em3dHint::None);
        let flush = run_with(Em3dHint::Flush);
        assert!(flush.validation.passed, "{}", flush.validation.detail);
        // Identical values either way.
        assert_eq!(base.artifact, flush.artifact);
        // Consumers flushed, so producers' write upgrades invalidate fewer
        // sharers: the write-fault stall shrinks.
        let wf = |r: &AppRun| r.report.avg_matrix().by_kind(Kind::WriteFault);
        assert!(
            wf(&flush) < wf(&base),
            "flush write-fault cycles {} !< base {}",
            wf(&flush),
            wf(&base)
        );
    }

    #[test]
    fn prefetch_hint_cuts_demand_miss_stall() {
        let base = run_with(Em3dHint::None);
        let pf = run_with(Em3dHint::Prefetch);
        assert!(pf.validation.passed, "{}", pf.validation.detail);
        assert_eq!(base.artifact, pf.artifact);
        // The remote values arrive ahead of the demand reads: the shared
        // miss stall in the main loop shrinks even though the traffic
        // (misses counted) does not.
        let stall = |r: &AppRun| {
            let m = r.report.avg_matrix();
            m.by_kind(Kind::ShMissRemote) + m.by_kind(Kind::ShMissLocal)
        };
        assert!(
            stall(&pf) < stall(&base),
            "prefetch stall {} !< base {}",
            stall(&pf),
            stall(&base)
        );
        assert!(
            pf.report.total_counter(Counter::ShMissesRemote)
                >= base.report.total_counter(Counter::ShMissesRemote),
            "prefetching must not reduce traffic"
        );
    }
}
