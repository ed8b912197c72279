//! The three benchmark workloads: inputs built from the seed, measured
//! repetitions, and the output checks every repetition must pass.

use crate::measure::{peak_rss_mb, process_cpu_s, reset_peak_rss, timed, Span};
use crate::trace::{self, Counters, LayerTimes, TracedRun};
use pbe_bench::artifact::{find, run_cached, CachedRun, ResultStore};
use pbe_bench::sweep::{CityScale, Fanout, ScenarioSpec};
use pbe_netsim::{SchemeChoice, SimConfig, SimResult, Simulation};
use pbe_stats::derive_seed;
use pbe_stats::hash::fnv1a_64;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The figure whose grid the `paper_grid` workload runs.
pub const GRID_FIGURE: &str = "fig13_14_stationary";
/// Simulated seconds per `paper_grid` point.
const GRID_SECONDS: u64 = 1;
/// Seed replicas of the `paper_grid` figure grid.
const GRID_REPLICAS: u64 = 6;
/// Executor workers of `paper_grid` (the box has two cores).
pub const GRID_WORKERS: usize = 2;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 24 PBE flows driving through a 3×2-cell city.
    PbeCity,
    /// 960 backlogged CUBIC flows on 24 cells behind one shared backhaul.
    FanoutBusy,
    /// The Figs 13/14 grid (6 locations × 8 schemes) through the artifact
    /// executor, cold then warm.
    PaperGrid,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::PbeCity, Workload::FanoutBusy, Workload::PaperGrid];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PbeCity => "pbe_city",
            Workload::FanoutBusy => "fanout_busy",
            Workload::PaperGrid => "paper_grid",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// SimResult fingerprint: FNV-1a over its JSON (maps serialize sorted).
pub fn fingerprint(result: &SimResult) -> u64 {
    fnv1a_64(
        serde_json::to_string(result)
            .expect("SimResult serializes")
            .as_bytes(),
    )
}

/// Why a repetition failed its output checks.
pub type CheckError = String;

/// Checks every flow delivered packets.
fn check_delivery(result: &SimResult) -> Result<(), CheckError> {
    match result.flows.iter().find(|f| f.packets_delivered == 0) {
        Some(f) => Err(format!("flow {} delivered no packets", f.id)),
        None => Ok(()),
    }
}

/// Checks each flow's delivered + lost does not exceed what it sent.
fn check_conservation(run: &TracedRun) -> Result<(), CheckError> {
    if run.sent_per_flow.len() != run.result.flows.len() {
        return Err(format!(
            "{} flows traced, {} in the result",
            run.sent_per_flow.len(),
            run.result.flows.len()
        ));
    }
    for (flow, &sent) in run.result.flows.iter().zip(&run.sent_per_flow) {
        if flow.packets_delivered + flow.packets_lost > sent {
            return Err(format!(
                "flow {} delivered {} + lost {} > sent {sent}",
                flow.id, flow.packets_delivered, flow.packets_lost
            ));
        }
    }
    Ok(())
}

/// PBE goodput (Mbit/s, summed over PBE flows) and mean p95 delay (ms), for
/// information only.
pub fn pbe_summary<'a>(results: impl IntoIterator<Item = &'a SimResult>) -> Option<(f64, f64)> {
    let pbe: Vec<_> = results
        .into_iter()
        .flat_map(|r| &r.flows)
        .filter(|f| f.scheme == "PBE")
        .collect();
    if pbe.is_empty() {
        return None;
    }
    let goodput = pbe.iter().map(|f| f.summary.avg_throughput_mbps).sum();
    let p95 = pbe.iter().map(|f| f.summary.p95_delay_ms).sum::<f64>() / pbe.len() as f64;
    Some((goodput, p95))
}

/// Inputs of one simulation workload: a small ensemble of seed replicas
/// (replica `k` uses `derive_seed(seed, k)`), so one invocation's cost does
/// not hinge on a single draw of trajectories and fades.
pub struct SimInputs {
    /// The compiled simulator configurations, one per replica.
    pub configs: Vec<SimConfig>,
    /// Seconds spent building them (compile + lowering).
    pub setup_s: f64,
    /// Seconds of that spent in the scenario generators' compile step.
    pub compile_s: f64,
}

/// The scenario of one replica of a simulation workload.
fn scenario(workload: Workload, seed: u64) -> ScenarioSpec {
    match workload {
        Workload::PbeCity => CityScale::driving(3, 2, 24)
            .scheme(SchemeChoice::Pbe)
            .millis(2_000)
            .seed(seed)
            .scenario(),
        Workload::FanoutBusy => Fanout::new(24, 960)
            .agg(480e6, 1_200_000)
            .scheme(SchemeChoice::named("CUBIC"))
            .millis(2_000)
            .seed(seed)
            .scenario(),
        Workload::PaperGrid => unreachable!("paper_grid is not a single simulation"),
    }
}

/// Seed replicas per repetition of a simulation workload.
fn replicas(workload: Workload) -> u64 {
    match workload {
        Workload::PbeCity => 8,
        Workload::FanoutBusy => 2,
        Workload::PaperGrid => unreachable!("paper_grid replicates its grid"),
    }
}

/// Build a simulation workload's replica configurations from the seed.
pub fn build_sim(workload: Workload, seed: u64) -> SimInputs {
    let t0 = Instant::now();
    let specs: Vec<ScenarioSpec> = (0..replicas(workload))
        .map(|k| scenario(workload, derive_seed(seed, k)))
        .collect();
    let compile_s = t0.elapsed().as_secs_f64();
    let configs = specs.iter().map(ScenarioSpec::sim_config).collect();
    SimInputs {
        configs,
        setup_s: t0.elapsed().as_secs_f64(),
        compile_s,
    }
}

/// One fingerprint for an ensemble's results.
pub fn combined_fingerprint(fingerprints: impl IntoIterator<Item = u64>) -> u64 {
    let bytes: Vec<u8> = fingerprints
        .into_iter()
        .flat_map(u64::to_le_bytes)
        .collect();
    fnv1a_64(&bytes)
}

/// One untraced run of a single replica.
pub struct ReplicaRun {
    /// Fingerprint of its result.
    pub fingerprint: u64,
    /// Host time of the `Simulation::run` call.
    pub span: Span,
    /// Peak resident MiB while it ran.
    pub peak_rss_mb: f64,
    /// Output-check outcome.
    pub check: Result<(), CheckError>,
    /// The result (kept for the informational PBE summary).
    pub result: SimResult,
}

/// Run one replica untraced with the standard scheme table.
pub fn run_replica(config: &SimConfig) -> ReplicaRun {
    // A failing reset was reported at start-up; the peak is then process-wide.
    let _ = reset_peak_rss();
    let config = config.clone();
    let (result, span) = timed(|| Simulation::new(config).run());
    let peak_rss_mb = peak_rss_mb();
    ReplicaRun {
        fingerprint: fingerprint(&result),
        span,
        peak_rss_mb,
        check: check_delivery(&result),
        result,
    }
}

/// One untraced repetition of a simulation workload: every replica once.
pub struct SimRep {
    /// Fingerprint of the replicas' results.
    pub fingerprint: u64,
    /// Host wall seconds of the `Simulation::run` calls.
    pub wall_s: f64,
    /// Output-check outcome.
    pub check: Result<(), CheckError>,
}

/// Run every replica untraced with the standard scheme table.
pub fn run_sim(configs: &[SimConfig]) -> SimRep {
    let runs: Vec<ReplicaRun> = configs.iter().map(run_replica).collect();
    SimRep {
        fingerprint: combined_fingerprint(runs.iter().map(|r| r.fingerprint)),
        wall_s: runs.iter().map(|r| r.span.wall_s).sum(),
        check: runs.iter().try_for_each(|r| r.check.clone()),
    }
}

/// One traced repetition of a simulation workload.
pub struct TracedRep {
    /// Fingerprint of the replicas' results.
    pub fingerprint: u64,
    /// Per-layer host time, summed over replicas.
    pub times: LayerTimes,
    /// Work counts, summed over replicas.
    pub counters: Counters,
    /// Process CPU seconds over the traced runs.
    pub cpu_s: f64,
    /// Output-check outcome (delivery and conservation).
    pub check: Result<(), CheckError>,
}

/// Run every replica with every layer traced.
pub fn run_sim_traced(configs: &[SimConfig]) -> TracedRep {
    let mut rep = TracedRep {
        fingerprint: 0,
        times: LayerTimes::default(),
        counters: Counters::default(),
        cpu_s: 0.0,
        check: Ok(()),
    };
    let mut fingerprints = Vec::with_capacity(configs.len());
    for config in configs {
        let config = config.clone();
        let (run, span) = timed(|| trace::run_traced(config));
        fingerprints.push(fingerprint(&run.result));
        if rep.check.is_ok() {
            rep.check = check_delivery(&run.result).and_then(|()| check_conservation(&run));
        }
        rep.times.add(&run.times);
        rep.counters.add(&run.counters);
        rep.cpu_s += span.cpu_s;
    }
    rep.fingerprint = combined_fingerprint(fingerprints);
    rep
}

/// Inputs of one `paper_grid` round: the expanded grid with its content
/// keys and a freshly opened, empty result store.
pub struct GridInputs {
    /// Expanded grid points, in grid order.
    pub specs: Vec<ScenarioSpec>,
    /// The store the cold run fills.
    pub store: ResultStore,
    /// Its directory (removed after the round).
    pub dir: PathBuf,
    /// Seconds spent on expansion, content keys and opening the store.
    pub setup_s: f64,
    /// Seconds of that spent building and expanding the grid.
    pub compile_s: f64,
}

/// Build the `paper_grid` inputs from the seed: the registered figure's
/// grid once per seed replica, replica `r` with `derive_seed(seed, r)` as
/// every base scenario's seed (replica 0 uses the seed itself), replicas
/// one after another as separate figure runs would be.
pub fn build_grid(seed: u64, dir: &Path) -> std::io::Result<GridInputs> {
    let _ = std::fs::remove_dir_all(dir);
    let t0 = Instant::now();
    let figure = find(GRID_FIGURE).expect("the stationary figure is registered");
    let mut specs = Vec::new();
    for replica in 0..GRID_REPLICAS {
        let mut grid = (figure.grid)(GRID_SECONDS);
        for base in &mut grid.scenarios {
            base.seed = derive_seed(seed, replica);
        }
        specs.extend(grid.expand());
    }
    let compile_s = t0.elapsed().as_secs_f64();
    let keys: Vec<String> = specs.iter().map(ScenarioSpec::content_key).collect();
    std::hint::black_box(&keys);
    let store = ResultStore::open(dir)?;
    Ok(GridInputs {
        specs,
        store,
        dir: dir.to_path_buf(),
        setup_s: t0.elapsed().as_secs_f64(),
        compile_s,
    })
}

/// Simulated seconds summed over a grid's points.
pub fn grid_sim_s(specs: &[ScenarioSpec]) -> f64 {
    specs.iter().map(|s| s.duration.as_secs_f64()).sum()
}

/// One `paper_grid` round: cold into the fresh store, then warm.
pub struct GridRep {
    /// Fingerprint of the cold report's deterministic JSON.
    pub fingerprint: u64,
    /// Host time of the cold `run_cached`.
    pub cold: Span,
    /// Host wall seconds of the warm `run_cached`.
    pub warm_s: f64,
    /// Peak resident MiB over the cold and warm runs.
    pub peak_rss_mb: f64,
    /// The cold run (report, executed/cached counts).
    pub cold_run: CachedRun,
    /// Points the warm run served from the store.
    pub warm_cached: usize,
    /// Output-check outcome.
    pub check: Result<(), CheckError>,
}

/// Run one cold + warm round of the grid.
pub fn run_grid(inputs: &mut GridInputs) -> std::io::Result<GridRep> {
    let specs = inputs.specs.clone();
    // A failing reset was reported at start-up; the peak is then process-wide.
    let _ = reset_peak_rss();
    let (cold, cold_span) =
        timed(|| run_cached(GRID_FIGURE, specs, Some(&mut inputs.store), GRID_WORKERS));
    let cold = cold?;
    let specs = inputs.specs.clone();
    let (warm, warm_span) =
        timed(|| run_cached(GRID_FIGURE, specs, Some(&mut inputs.store), GRID_WORKERS));
    let warm = warm?;
    let peak_rss_mb = peak_rss_mb();
    let cold_json = cold.report.deterministic_json();
    let n = inputs.specs.len();
    let check = if !cold.failures.is_empty() || !warm.failures.is_empty() {
        Err(format!(
            "{} cold and {} warm point failures",
            cold.failures.len(),
            warm.failures.len()
        ))
    } else if cold.executed != n || cold.cached != 0 {
        Err(format!("cold run executed {} of {n}", cold.executed))
    } else if warm.executed != 0 || warm.cached != n {
        Err(format!("warm run executed {} points", warm.executed))
    } else if warm.report.deterministic_json() != cold_json {
        Err("warm report differs from the cold one".to_string())
    } else {
        cold.report
            .outcomes
            .iter()
            .try_for_each(|o| check_delivery(&o.result))
    };
    Ok(GridRep {
        fingerprint: fnv1a_64(cold_json.as_bytes()),
        cold: cold_span,
        warm_s: warm_span.wall_s,
        peak_rss_mb,
        warm_cached: warm.cached,
        cold_run: cold,
        check,
    })
}

/// A traced replay of every grid point on the executor's worker count.
pub struct GridReplay {
    /// Layer times summed over points.
    pub times: LayerTimes,
    /// Work counts summed over points.
    pub counters: Counters,
    /// Process CPU seconds over the replay.
    pub cpu_s: f64,
    /// Output-check outcome: every point matches the cold run's result and
    /// conserves packets.
    pub check: Result<(), CheckError>,
}

/// Replay every point of a cold report traced, `GRID_WORKERS` at a time.
pub fn replay_grid(cold: &CachedRun) -> GridReplay {
    let outcomes = &cold.report.outcomes;
    let cpu0 = process_cpu_s();
    let runs = pbe_stats::pool::run_indexed(outcomes.len(), GRID_WORKERS, |i| {
        trace::run_traced(outcomes[i].spec.sim_config())
    });
    let cpu_s = process_cpu_s() - cpu0;
    let mut times = LayerTimes::default();
    let mut counters = Counters::default();
    let mut check = Ok(());
    for (run, outcome) in runs.iter().zip(outcomes) {
        times.add(&run.times);
        counters.add(&run.counters);
        if check.is_ok() {
            check = if fingerprint(&run.result) != fingerprint(&outcome.result) {
                Err(format!("traced replay of {} differs", outcome.key))
            } else {
                check_conservation(run)
            };
        }
    }
    GridReplay {
        times,
        counters,
        cpu_s,
        check,
    }
}
