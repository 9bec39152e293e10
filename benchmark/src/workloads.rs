//! The four workloads, their inputs at each scale, and the child-side
//! code that runs one of them once and reports what it measured.
//!
//! Workloads call only stable public entry points of the program: the
//! apps' `try_run`, `MpConfig::with_arch`/`SmConfig::with_arch`,
//! `run_sweep` and `sweep_points`, and read results through `SimReport`
//! and the experiment summaries.

use std::fmt;
use std::path::{Path, PathBuf};

use wwt_core::apps::{em3d, gauss, lcp, mse, AppRun};
use wwt_core::arch::{sweep_points, ArchParams, ArchSweep};
use wwt_core::mp::{MpConfig, TreeShape};
use wwt_core::obs::{self, Ctr};
use wwt_core::sim::{Counter, Kind, SimConfig, SimError};
use wwt_core::sm::SmConfig;
use wwt_core::{render_sweep_report, run_sweep, Experiment, RunnerConfig};

use crate::spans::Spans;

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Workload {
    Em3dSm,
    Mp,
    MseMp,
    Sweep,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Em3dSm,
        Workload::Mp,
        Workload::MseMp,
        Workload::Sweep,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Em3dSm => "em3d-sm",
            Workload::Mp => "mp",
            Workload::MseMp => "mse-mp",
            Workload::Sweep => "sweep",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Problem size. `Paper` is the paper's inputs on the 32-processor
/// machine. `Bench` keeps that machine but shrinks each run to a second
/// or two, so a timed window holds many: EM3D keeps the paper's graph
/// (and so its working set) for 2 iterations, Gauss solves n = 160,
/// ALCP n = 512, and MSE runs 2 iterations at 14 elements per body.
/// `Small` is the apps' own test scale.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Scale {
    Small,
    Bench,
    Paper,
}

impl Scale {
    pub fn name(self) -> &'static str {
        match self {
            Scale::Small => "small",
            Scale::Bench => "bench",
            Scale::Paper => "paper",
        }
    }

    pub fn parse(s: &str) -> Option<Scale> {
        [Scale::Small, Scale::Bench, Scale::Paper]
            .into_iter()
            .find(|x| x.name() == s)
    }

    /// The registry scale `run_sweep` runs the LCP pair at. The sweep
    /// workload times the runner and store as much as the engine, so
    /// below paper scale it uses the registry's test inputs.
    fn registry(self) -> wwt_core::Scale {
        match self {
            Scale::Paper => wwt_core::Scale::Paper,
            Scale::Small | Scale::Bench => wwt_core::Scale::Test,
        }
    }
}

fn em3d_params(scale: Scale, seed: u64) -> em3d::Em3dParams {
    let p = match scale {
        Scale::Small => em3d::Em3dParams::small(),
        Scale::Bench => em3d::Em3dParams {
            iters: 2,
            ..Default::default()
        },
        Scale::Paper => em3d::Em3dParams::default(),
    };
    em3d::Em3dParams {
        seed: p.seed ^ seed,
        ..p
    }
}

fn gauss_params(scale: Scale, seed: u64) -> gauss::GaussParams {
    let p = match scale {
        Scale::Small => gauss::GaussParams::small(),
        Scale::Bench => gauss::GaussParams {
            n: 160,
            ..Default::default()
        },
        Scale::Paper => gauss::GaussParams::default(),
    };
    gauss::GaussParams {
        seed: p.seed ^ seed,
        ..p
    }
}

/// ALCP keeps its paper input at every seed: how many steps it takes to
/// converge, and so how much work a run is, depends on the input, which
/// would make runs of different seeds incomparable.
fn lcp_params(scale: Scale) -> lcp::LcpParams {
    match scale {
        Scale::Small => lcp::LcpParams::small(),
        Scale::Bench => lcp::LcpParams {
            n: 512,
            ..Default::default()
        },
        Scale::Paper => lcp::LcpParams::default(),
    }
}

/// MSE has no random input: its bodies sit on a fixed grid.
fn mse_params(scale: Scale) -> mse::MseParams {
    match scale {
        Scale::Small => mse::MseParams::small(),
        Scale::Bench => mse::MseParams {
            iters: 2,
            elems: 14,
            ..Default::default()
        },
        Scale::Paper => mse::MseParams::default(),
    }
}

/// The three `net_latency` points of the sweep, ascending. Seed 0 takes
/// the ends of the range and the paper's 100 cycles. Other seeds draw
/// `x` from [25, 175] and pair it with `425 - x` around the paper point,
/// so every seed's points sum alike and simulate about as many cycles.
pub fn sweep_latencies(seed: u64) -> [u64; 3] {
    if seed == 0 {
        return [25, 100, 400];
    }
    let mut x = 25 + splitmix(seed) % 150;
    if x >= 100 {
        x += 1;
    }
    let mut pts = [x, 100, 425 - x];
    pts.sort_unstable();
    pts
}

fn splitmix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

type Job = (String, Box<dyn Fn() -> Result<AppRun, SimError>>);

/// A workload's inputs, built before the child reports ready.
pub enum Plan {
    Apps(Workload, Vec<Job>),
    Sweep {
        scale: wwt_core::Scale,
        points: Vec<(String, ArchParams)>,
        cache_dir: PathBuf,
    },
}

/// Builds the inputs of one run. `cache_dir` is the fresh run-cache
/// directory the sweep writes to; other workloads ignore it.
pub fn plan(w: Workload, scale: Scale, seed: u64, cache_dir: &Path) -> Plan {
    let arch = ArchParams::default();
    let mp = MpConfig::with_arch(arch, SimConfig::default());
    let sm = SmConfig::with_arch(arch, SimConfig::default());
    let jobs: Vec<Job> = match w {
        Workload::Em3dSm => {
            let p = em3d_params(scale, seed);
            vec![(
                "em3d.sm".into(),
                Box::new(move || em3d::sm::try_run(&p, sm)),
            )]
        }
        Workload::Mp => {
            // The Section 5.2 ablation: flat and binary trees at the
            // CMMD-level per-message overhead, then lop-sided active
            // messages; then ALCP-MP, the boxed-callback-heavy app.
            let cmmd = MpConfig {
                collective_msg_overhead: 250,
                ..mp
            };
            let mut jobs: Vec<Job> = [
                ("flat-cmmd", cmmd, TreeShape::Flat),
                ("binary-cmmd", cmmd, TreeShape::Binary),
                ("lopsided", mp, TreeShape::Lopsided),
            ]
            .into_iter()
            .map(|(label, cfg, shape)| {
                let p = gauss_params(scale, seed);
                let job: Job = (
                    format!("gauss.mp {label}"),
                    Box::new(move || gauss::mp::try_run(&p, cfg, shape)),
                );
                job
            })
            .collect();
            let p = lcp_params(scale);
            jobs.push((
                "lcp.mp async".into(),
                Box::new(move || lcp::mp::try_run(&p, mp, lcp::LcpMode::Asynchronous)),
            ));
            jobs
        }
        Workload::MseMp => {
            let p = mse_params(scale);
            vec![("mse.mp".into(), Box::new(move || mse::mp::try_run(&p, mp)))]
        }
        Workload::Sweep => {
            let [a, b, c] = sweep_latencies(seed);
            let axis = ArchSweep::parse(&format!("net_latency={a},{b},{c}"))
                .expect("latencies in [25, 400] are valid net_latency values");
            let points = sweep_points(&arch, &[axis]).expect("valid sweep points");
            return Plan::Sweep {
                scale: scale.registry(),
                points,
                cache_dir: cache_dir.to_path_buf(),
            };
        }
    };
    Plan::Apps(w, jobs)
}

/// 64-bit FNV-1a, the digest of a run's simulated results. The benchmark
/// keeps its own copy so the digests in `golden.txt` never move when the
/// program's hashing does.
#[derive(Clone, Debug)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Folds one app run into a digest: simulated elapsed time, cycles by
/// cost kind, every counter total, and the validation verdict.
pub fn digest_run(h: &mut Fnv, run: &AppRun) {
    let r = &run.report;
    h.u64(r.elapsed());
    for c in r.sum_matrix().kind_totals() {
        h.u64(c);
    }
    for c in Counter::ALL {
        h.u64(r.total_counter(c));
    }
    h.u64(u64::from(run.validation.passed));
}

/// What one run of a workload measured and whether its output was right.
#[derive(Debug, Default)]
pub struct Outcome {
    /// `(metric, value)` pairs, named as the report names them.
    pub metrics: Vec<(&'static str, f64)>,
    /// Why the output is wrong; empty when it is right.
    pub failures: Vec<String>,
    pub digest: u64,
}

/// Runs a planned workload once, recording spans around each call into
/// the program.
pub fn execute(plan: Plan, spans: &mut Spans) -> Outcome {
    match plan {
        Plan::Apps(w, jobs) => execute_apps(w, &jobs, spans),
        Plan::Sweep {
            scale,
            points,
            cache_dir,
        } => execute_sweep(scale, &points, &cache_dir, spans),
    }
}

fn execute_apps(w: Workload, jobs: &[Job], spans: &mut Spans) -> Outcome {
    let root = spans.begin(&format!("workload {w}"));
    let runs: Vec<(&str, Result<AppRun, SimError>)> = jobs
        .iter()
        .map(|(label, job)| {
            let s = spans.begin(&format!("try_run {label}"));
            let run = job();
            spans.end(s);
            (label.as_str(), run)
        })
        .collect();
    let wall_s = spans.end(root);

    let mut out = Outcome::default();
    let mut h = Fnv::new();
    let (mut cycles, mut events, mut compute, mut total) = (0u64, 0u64, 0u64, 0u64);
    let mut counters = [0u64; Counter::ALL.len()];
    for (label, run) in &runs {
        let run = match run {
            Ok(run) => run,
            Err(e) => {
                out.failures.push(format!("{label}: {e}"));
                continue;
            }
        };
        if !run.validation.passed {
            out.failures.push(format!(
                "{label}: validation failed: {}",
                run.validation.detail
            ));
        }
        digest_run(&mut h, run);
        let r = &run.report;
        cycles += r.elapsed();
        events += r.events_processed();
        let m = r.sum_matrix();
        compute += m.by_kind(Kind::Compute);
        total += m.total();
        for (i, c) in Counter::ALL.into_iter().enumerate() {
            counters[i] += r.total_counter(c);
        }
    }
    let ctr = |c: Counter| counters[c.index()] as f64;
    out.digest = h.finish();
    out.metrics = vec![
        ("host.wall_s", wall_s),
        ("sim_cycles", cycles as f64),
        ("sim.events", events as f64),
        ("mem.priv_misses", ctr(Counter::PrivMisses)),
        ("mem.tlb_misses", ctr(Counter::TlbMisses)),
        (
            "sm.shared_misses",
            ctr(Counter::ShMissesLocal) + ctr(Counter::ShMissesRemote),
        ),
        ("sm.write_faults", ctr(Counter::WriteFaults)),
        ("sm.dir_requests", ctr(Counter::DirRequests)),
        ("mp.packets", ctr(Counter::PacketsSent)),
        ("mp.active_messages", ctr(Counter::ActiveMessages)),
        ("mp.channel_writes", ctr(Counter::ChannelWrites)),
        ("apps.compute_frac", compute as f64 / total.max(1) as f64),
        // Apps never touch the run cache.
        ("core.cache_hits", 0.0),
        ("core.cache_misses", 0.0),
        ("store.entries", 0.0),
        ("store.bytes", 0.0),
    ];
    out
}

/// The LCP pair on both machines at three `net_latency` points, into a
/// fresh run cache: a cold pass that simulates and writes every entry,
/// then a warm pass that must replay all of them and render the same
/// report byte for byte.
fn execute_sweep(
    scale: wwt_core::Scale,
    points: &[(String, ArchParams)],
    cache_dir: &Path,
    spans: &mut Spans,
) -> Outcome {
    let cfg = RunnerConfig {
        cache_dir: Some(cache_dir.to_path_buf()),
        ..RunnerConfig::new(scale)
    };
    let exps = [Experiment::LcpMp, Experiment::LcpSm];
    let cache = || (obs::counter(Ctr::CacheHits), obs::counter(Ctr::CacheMisses));

    let root = spans.begin("workload sweep");
    let c0 = cache();
    let s = spans.begin("run_sweep cold");
    let cold = run_sweep(&exps, &cfg, points);
    let t_cold = spans.end(s);
    let c1 = cache();
    let s = spans.begin("run_sweep warm");
    let warm = run_sweep(&exps, &cfg, points);
    let t_warm = spans.end(s);
    let c2 = cache();
    let s = spans.begin("render");
    let cold_text = render_sweep_report(&cold, scale, &cfg.arch, false);
    let warm_text = render_sweep_report(&warm, scale, &cfg.arch, false);
    let t_render = spans.end(s);
    let wall_s = spans.end(root);

    let mut out = Outcome::default();
    for a in cold.iter().chain(&warm).flat_map(|o| &o.artifacts) {
        if !a.summary.validation_passed {
            out.failures.push(format!(
                "{}: validation failed: {}",
                a.experiment, a.summary.validation_detail
            ));
        }
    }
    let (cold_hits, cold_misses) = (c1.0 - c0.0, c1.1 - c0.1);
    let (warm_hits, warm_misses) = (c2.0 - c1.0, c2.1 - c1.1);
    let cells = (points.len() * exps.len()) as u64;
    if cold_hits != 0 || cold_misses != cells {
        out.failures.push(format!(
            "cold pass: {cold_hits} cache hits, {cold_misses} misses (want 0 and {cells})"
        ));
    }
    if warm_hits != cells || warm_misses != 0 {
        out.failures.push(format!(
            "warm pass: {warm_hits} cache hits, {warm_misses} misses (want {cells} and 0)"
        ));
    }
    if warm_text != cold_text {
        out.failures
            .push("warm sweep report differs from the cold one".into());
    }

    let mut h = Fnv::new();
    h.bytes(cold_text.as_bytes());
    h.u64(u64::from(out.failures.is_empty()));
    out.digest = h.finish();

    // run_sweep returns summaries, not SimReports: simulated cycles are
    // the whole-program breakdown totals (average cycles per processor),
    // and engine events come from the host metrics registry, which
    // counts only while it is enabled (the traced run).
    let (mut total, mut compute) = (0.0, 0.0);
    for t in cold
        .iter()
        .flat_map(|o| &o.artifacts)
        .filter_map(|a| a.summary.tables.first())
    {
        total += t.total;
        compute += t.row("Computation").unwrap_or(0.0);
    }
    let events: u64 = obs::snapshot_now()
        .samples
        .iter()
        .filter(|s| s.name == "sim_events_popped")
        .map(|s| s.value)
        .sum();
    let (entries, bytes) = store_size(cache_dir);
    out.metrics = vec![
        ("host.wall_s", wall_s),
        ("sim_cycles", total.round()),
        ("sim.events", events as f64),
        ("apps.compute_frac", compute / total.max(1.0)),
        // Summaries carry no guest counter totals; reported as zero so
        // every workload has the same metric set.
        ("mem.priv_misses", 0.0),
        ("mem.tlb_misses", 0.0),
        ("sm.shared_misses", 0.0),
        ("sm.write_faults", 0.0),
        ("sm.dir_requests", 0.0),
        ("mp.packets", 0.0),
        ("mp.active_messages", 0.0),
        ("mp.channel_writes", 0.0),
        ("core.sweep_cold_s", t_cold),
        ("core.sweep_warm_ms", t_warm * 1e3),
        ("core.render_ms", t_render * 1e3),
        ("core.cache_hits", warm_hits as f64),
        ("core.cache_misses", warm_misses as f64),
        ("store.entries", entries as f64),
        ("store.bytes", bytes as f64),
    ];
    out
}

/// Files and bytes under the run-cache directory.
fn store_size(dir: &Path) -> (u64, u64) {
    let Ok(rd) = std::fs::read_dir(dir) else {
        return (0, 0);
    };
    rd.filter_map(Result::ok)
        .filter_map(|e| e.metadata().ok())
        .filter(|m| m.is_file())
        .fold((0, 0), |(n, b), m| (n + 1, b + m.len()))
}

/// The checked-in digest of a seed-0 run, from `golden.txt`.
pub fn golden(scale: Scale, w: Workload) -> Option<u64> {
    include_str!("../golden.txt")
        .lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|l| {
            let mut f = l.split_whitespace();
            match (f.next(), f.next(), f.next()) {
                (Some(s), Some(n), Some(d)) if s == scale.name() && n == w.name() => {
                    u64::from_str_radix(d, 16).ok()
                }
                _ => None,
            }
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        let hash = |s: &str| {
            let mut h = Fnv::new();
            h.bytes(s.as_bytes());
            h.finish()
        };
        assert_eq!(hash(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(hash("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(hash("foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn digest_depends_on_every_field_it_covers() {
        let p = em3d::Em3dParams::small();
        let run = em3d::sm::try_run(&p, SmConfig::default()).unwrap();
        let digest = |run: &AppRun| {
            let mut h = Fnv::new();
            digest_run(&mut h, run);
            h.finish()
        };
        let base = digest(&run);
        assert_eq!(base, digest(&run.clone()));
        let mut failed = run.clone();
        failed.validation.passed = false;
        assert_ne!(base, digest(&failed));
        let other = em3d::sm::try_run(&em3d_params(Scale::Small, 1), SmConfig::default()).unwrap();
        assert_ne!(base, digest(&other), "the seed changes the inputs");
    }

    #[test]
    fn sweep_points_are_distinct_in_range_and_balanced() {
        assert_eq!(sweep_latencies(0), [25, 100, 400]);
        for seed in 1..2000 {
            let pts = sweep_latencies(seed);
            assert!(pts.windows(2).all(|w| w[0] < w[1]), "{pts:?}");
            assert!(pts.iter().all(|&x| (25..=400).contains(&x)), "{pts:?}");
            assert!(pts.contains(&100));
            assert_eq!(pts.iter().sum::<u64>(), 525);
        }
        assert_eq!(sweep_latencies(7), sweep_latencies(7));
    }

    #[test]
    fn golden_has_every_seed_zero_run() {
        for scale in [Scale::Small, Scale::Bench, Scale::Paper] {
            for w in Workload::ALL {
                assert!(golden(scale, w).is_some(), "{} {w}", scale.name());
            }
        }
    }

    #[test]
    fn seed_zero_is_the_paper_input() {
        assert_eq!(em3d_params(Scale::Paper, 0), em3d::Em3dParams::default());
        assert_eq!(gauss_params(Scale::Paper, 0), gauss::GaussParams::default());
        assert_eq!(lcp_params(Scale::Paper), lcp::LcpParams::default());
        assert_eq!(mse_params(Scale::Paper), mse::MseParams::default());
    }
}
