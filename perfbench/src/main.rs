//! End-to-end and per-layer benchmark of the PBE-CC reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload pbe_city --seed 1 --seconds 40 --trace 0
//! ```
//!
//! One invocation runs one workload in a fresh process (so its peak memory
//! is its own), builds the workload's inputs from `--seed`, repeats the
//! measured work for about `--seconds` seconds, checks every run's
//! outputs, and prints a readable table followed by one JSON line:
//! end-to-end metrics with `--trace 0`, per-layer metrics from a traced run
//! with `--trace 1`.  `BENCHMARK.json` at the repository root lists the
//! workloads and metrics and why each was chosen.

mod measure;
mod trace;
mod workloads;

use measure::{host_probe_s, reset_peak_rss, Stats, REFERENCE_PROBE_S};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use trace::{Counters, LayerTimes};
use workloads::{
    build_grid, build_sim, combined_fingerprint, grid_sim_s, pbe_summary, replay_grid, run_grid,
    run_replica, run_sim, run_sim_traced, CheckError, ReplicaRun, Workload, GRID_WORKERS,
};

const USAGE: &str = "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1\n\
workloads: pbe_city, fanout_busy, paper_grid";

/// Fewest timed runs of each replica, or grid rounds, in an untraced
/// invocation, whatever the time budget.
const MIN_RUNS: usize = 3;
/// Fewest untraced and traced repetitions each in a traced invocation.
const MIN_TRACED_REPS: usize = 2;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0 && *s <= 600.0)
                        .ok_or("--seconds takes a number in (0, 600]")?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The measurement window of one invocation.
struct Budget {
    start: Instant,
    seconds: f64,
}

impl Budget {
    /// Whether another repetition of about `rep_s` seconds fits, given
    /// `done` repetitions so far and a floor of `min`.
    fn more(&self, done: usize, min: usize, rep_s: f64) -> bool {
        done < min || self.start.elapsed().as_secs_f64() + rep_s <= self.seconds
    }
}

/// The timed runs of one seed replica.
#[derive(Clone, Default)]
struct ReplicaSamples {
    wall_s: Vec<f64>,
    cpu_s: Vec<f64>,
    rss_mb: Vec<f64>,
}

impl ReplicaSamples {
    fn push(&mut self, run: &ReplicaRun) {
        self.wall_s.push(run.span.wall_s);
        self.cpu_s.push(run.span.cpu_s);
        self.rss_mb.push(run.peak_rss_mb);
    }
}

/// Factor that scales host times measured in one invocation to the
/// reference host speed, from the probes timed among them.
fn speed(probes: &[f64]) -> f64 {
    REFERENCE_PROBE_S / Stats::of(probes).median
}

/// What one invocation prints.
#[derive(Default)]
struct Report {
    lines: Vec<String>,
    metrics: Vec<(&'static str, f64, &'static str)>,
    attempted: u64,
    failed: u64,
}

impl Report {
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    /// A timing reported as the median of its samples, with the count.
    fn timing(&mut self, name: &'static str, samples: &[f64], unit: &'static str) {
        let s = Stats::of(samples);
        self.lines.push(format!(
            "{name:<42} {:>12.3} {unit:<9} median of {} (min {:.3}, max {:.3})",
            s.median, s.n, s.min, s.max
        ));
        if samples.len() <= 100 {
            let all: Vec<String> = samples.iter().map(|v| format!("{v:.4}")).collect();
            self.lines.push(format!("    samples: {}", all.join(" ")));
        }
        self.metric(name, s.median, unit);
    }

    /// A timing reported as `scale` times the sum over replicas of each
    /// replica's median, so every replica weighs in once per repetition.
    fn replica_timing(
        &mut self,
        name: &'static str,
        replicas: &[ReplicaSamples],
        field: impl Fn(&ReplicaSamples) -> &Vec<f64>,
        scale: f64,
        unit: &'static str,
    ) {
        let stats: Vec<Stats> = replicas.iter().map(|r| Stats::of(field(r))).collect();
        let value = scale * stats.iter().map(|s| s.median).sum::<f64>();
        let n: usize = stats.iter().map(|s| s.n).sum();
        self.lines.push(format!(
            "{name:<42} {value:>12.3} {unit:<9} sum of {} replica medians over {n} samples",
            stats.len()
        ));
        for (k, s) in stats.iter().enumerate() {
            self.lines.push(format!(
                "    replica {k}: median {:.4} of {} (min {:.4}, max {:.4})",
                s.median * scale,
                s.n,
                s.min * scale,
                s.max * scale
            ));
        }
        self.metric(name, value, unit);
    }

    /// The largest per-replica median of the replicas' peak memory.
    fn replica_peak(
        &mut self,
        name: &'static str,
        replicas: &[ReplicaSamples],
        unit: &'static str,
    ) {
        let value = replicas
            .iter()
            .map(|r| Stats::of(&r.rss_mb).median)
            .fold(0.0, f64::max);
        self.lines.push(format!(
            "{name:<42} {value:>12.3} {unit:<9} largest replica median"
        ));
        self.metric(name, value, unit);
    }

    /// Count one checked operation.
    fn check(&mut self, what: &str, outcome: Result<(), CheckError>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            self.lines.push(format!("CHECK FAILED ({what}): {e}"));
        }
    }

    fn json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

fn same_fingerprint(reference: u64, fingerprint: u64) -> Result<(), CheckError> {
    if fingerprint == reference {
        Ok(())
    } else {
        Err(format!(
            "fingerprint {fingerprint:016x} != {reference:016x}"
        ))
    }
}

fn same_counters(reference: &Counters, counters: &Counters) -> Result<(), CheckError> {
    if counters == reference {
        Ok(())
    } else {
        Err(format!(
            "work counters differ: {counters:?} vs {reference:?}"
        ))
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-layer metrics every traced invocation reports (zero where a
/// layer does not run on the workload).
fn layer_metrics(
    report: &mut Report,
    times: &LayerTimes,
    counters: &Counters,
    cpu_s: f64,
    compile_ms: &[f64],
) {
    let sim_s = times.sim_ms as f64 / 1000.0;
    let per_sim_s = |ns: u64| ratio(ns as f64 / 1e6, sim_s);
    let wall = times.wall_ns as f64;
    let tick = times.tick_ns as f64;
    let self_ns = times.wall_ns.saturating_sub(times.attributed_ns());
    // CPU of threads other than those running the simulation loops: the
    // RAN's shard workers, which only run inside the tick.
    let other_cpu_ns = cpu_s * 1e9 - times.loop_cpu_ns as f64;
    let rows: [(&'static str, f64, &'static str); 10] = [
        (
            "cellular.tick_ms_per_sim_s",
            per_sim_s(times.tick_ns),
            "ms/sim-s",
        ),
        (
            "cellular.ns_per_ue_subframe",
            ratio(tick, counters.ue_subframes as f64),
            "ns",
        ),
        (
            "cellular.parallelism",
            ratio(tick + other_cpu_ns, tick),
            "ratio",
        ),
        (
            "core.receiver.on_subframe_ms_per_sim_s",
            per_sim_s(times.on_subframe_ns),
            "ms/sim-s",
        ),
        (
            "core.receiver.on_packet_ms_per_sim_s",
            per_sim_s(times.on_packet_ns),
            "ms/sim-s",
        ),
        (
            "core.receiver.on_packet_ns_first_quarter",
            ratio(
                times.on_packet_first_quarter_ns as f64,
                times.on_packet_first_quarter_calls as f64,
            ),
            "ns",
        ),
        (
            "core.receiver.on_packet_ns_last_quarter",
            ratio(
                times.on_packet_last_quarter_ns as f64,
                times.on_packet_last_quarter_calls as f64,
            ),
            "ns",
        ),
        (
            "cc.on_ack_ms_per_sim_s",
            per_sim_s(times.on_ack_ns),
            "ms/sim-s",
        ),
        (
            "netsim.backhaul_ms_per_sim_s",
            per_sim_s(times.backhaul_ns),
            "ms/sim-s",
        ),
        (
            "netsim.driver_self_ms_per_sim_s",
            per_sim_s(self_ns),
            "ms/sim-s",
        ),
    ];
    report.lines.push(format!(
        "traced wall {:.1} ms/sim-s over {:.1} simulated s",
        per_sim_s(times.wall_ns),
        sim_s
    ));
    for (name, value, unit) in rows {
        let share = if unit == "ms/sim-s" {
            format!(
                "{:>5.1}% of traced wall",
                ratio(value * sim_s * 1e6, wall) * 100.0
            )
        } else {
            String::new()
        };
        report
            .lines
            .push(format!("{name:<42} {value:>12.3} {unit:<9} {share}"));
        report.metric(name, value, unit);
    }
    report.timing("sweep.compile_ms", compile_ms, "ms");
    let counts: [(&'static str, u64); 13] = [
        ("cellular.ue_subframes", counters.ue_subframes),
        ("cellular.dci_messages", counters.dci_messages),
        ("cellular.deliveries", counters.deliveries),
        ("cellular.handovers", counters.handovers),
        ("cellular.ca_events", counters.ca_events),
        ("core.receiver.on_packet_calls", counters.on_packet_calls),
        (
            "core.receiver.on_subframe_calls",
            counters.on_subframe_calls,
        ),
        ("cc.on_ack_calls", counters.on_ack_calls),
        ("cc.packets_sent", counters.packets_sent),
        ("netsim.backhaul_marks", counters.backhaul_marks),
        ("netsim.backhaul_drops", counters.backhaul_drops),
        ("artifact.executed", counters.artifact_executed),
        ("artifact.cached", counters.artifact_cached),
    ];
    for (name, value) in counts {
        report.lines.push(format!("{name:<42} {value:>12} count"));
        report.metric(name, value as f64, "count");
    }
}

/// The artifact metrics of a workload that does not run the executor.
fn no_artifact_metrics(report: &mut Report) {
    for (name, unit) in [
        ("artifact.cold_ms", "ms"),
        ("artifact.warm_ms", "ms"),
        ("artifact.parallel_efficiency", "ratio"),
        ("artifact.point_ms_p50", "ms"),
        ("artifact.point_ms_max", "ms"),
    ] {
        report.metric(name, 0.0, unit);
    }
}

/// The unscaled wall time and the probe times, for information.
fn probe_line(raw_wall_ms_per_sim_s: f64, probes: &[f64]) -> String {
    let p = Stats::of(probes);
    format!(
        "unscaled wall {raw_wall_ms_per_sim_s:.3} ms/sim-s; host probe median {:.3} ms (min {:.3}, max {:.3}, reference {:.3}) over {}",
        p.median * 1e3,
        p.min * 1e3,
        p.max * 1e3,
        REFERENCE_PROBE_S * 1e3,
        p.n
    )
}

fn info_line(fingerprint: u64, pbe: Option<(f64, f64)>) -> String {
    match pbe {
        Some((goodput, p95)) => format!(
            "fingerprint {fingerprint:016x}; PBE goodput {goodput:.2} Mbit/s, mean p95 delay {p95:.1} ms (information only)"
        ),
        None => format!("fingerprint {fingerprint:016x}; no PBE flow"),
    }
}

fn sim_workload(args: &Args, budget: &Budget) -> Report {
    let mut report = Report::default();
    let configs = build_sim(args.workload, args.seed).configs;
    let sim_s: f64 = configs.iter().map(|c| c.duration.as_secs_f64()).sum();
    report.lines.push(format!(
        "workload {} seed {}: {} seed replicas of {} UEs and {} flows, {:.1} simulated s per repetition",
        args.workload.name(),
        args.seed,
        configs.len(),
        configs[0].ues.len(),
        configs[0].flows.len(),
        sim_s
    ));
    // Set-up is timed again before every measured run, so its samples
    // spread over the whole invocation like the runs' own.
    let (mut setup_s, mut compile_ms) = (Vec::new(), Vec::new());
    let mut set_up_again = || {
        let rebuilt = build_sim(args.workload, args.seed);
        compile_ms.push(rebuilt.compile_s * 1e3);
        rebuilt.setup_s
    };

    // Warm-up: every replica once, checked but not timed; its results are
    // the references every later run must reproduce.
    let warmup: Vec<ReplicaRun> = configs.iter().map(run_replica).collect();
    let references: Vec<u64> = warmup.iter().map(|r| r.fingerprint).collect();
    let reference = combined_fingerprint(references.iter().copied());
    for run in &warmup {
        report.check("warm-up run", run.check.clone());
    }
    if !args.trace {
        // Timed runs cycle through the replicas, one replica per sample, so
        // an invocation holds many samples of each.
        let n = configs.len();
        let mut samples = vec![ReplicaSamples::default(); n];
        let mut probes = Vec::new();
        let mut done = 0;
        let mut last_s = 0.0;
        while budget.more(done, MIN_RUNS * n, last_s) {
            let k = done % n;
            setup_s.push(set_up_again());
            let run = run_replica(&configs[k]);
            let probe_s = host_probe_s(1);
            report.check(
                "timed run",
                run.check
                    .clone()
                    .and_then(|()| same_fingerprint(references[k], run.fingerprint)),
            );
            samples[k].push(&run);
            probes.push(probe_s);
            last_s = run.span.wall_s + probe_s;
            done += 1;
        }
        let per_sim = 1e3 / sim_s;
        let scale = per_sim * speed(&probes);
        report.replica_timing(
            "wall_ms_per_sim_s",
            &samples,
            |s| &s.wall_s,
            scale,
            "ms/sim-s",
        );
        report.replica_timing(
            "cpu_ms_per_sim_s",
            &samples,
            |s| &s.cpu_s,
            scale,
            "ms/sim-s",
        );
        report.replica_peak("peak_rss_mb", &samples, "MiB");
        let setup: Vec<f64> = setup_s.iter().map(|s| s * speed(&probes)).collect();
        report.timing("setup_s", &setup, "s");
        let raw: f64 = samples.iter().map(|s| Stats::of(&s.wall_s).median).sum();
        report.lines.push(probe_line(raw * per_sim, &probes));
    } else {
        let mut walls = Vec::new();
        let mut traced_walls = Vec::new();
        let mut times = LayerTimes::default();
        let mut cpu_s = 0.0;
        let mut counters: Option<Counters> = None;
        while budget.more(
            traced_walls.len(),
            MIN_TRACED_REPS,
            walls.last().copied().unwrap_or(0.0) + traced_walls.last().copied().unwrap_or(0.0),
        ) {
            set_up_again();
            let rep = run_sim(&configs);
            report.check(
                "untraced repetition",
                rep.check
                    .and_then(|()| same_fingerprint(reference, rep.fingerprint)),
            );
            walls.push(rep.wall_s);
            let traced = run_sim_traced(&configs);
            let first = counters.get_or_insert_with(|| traced.counters.clone());
            report.check(
                "traced repetition",
                traced
                    .check
                    .and_then(|()| same_fingerprint(reference, traced.fingerprint))
                    .and_then(|()| same_counters(first, &traced.counters)),
            );
            traced_walls.push(traced.times.wall_ns as f64 / 1e9);
            times.add(&traced.times);
            cpu_s += traced.cpu_s;
        }
        let untraced = Stats::of(&walls).median;
        let traced = Stats::of(&traced_walls).median;
        report.lines.push(format!(
            "untraced wall median {:.1} ms/sim-s over {} runs; traced {:.1} over {}",
            untraced * 1e3 / sim_s,
            walls.len(),
            traced * 1e3 / sim_s,
            traced_walls.len()
        ));
        let counters = counters.expect("at least one traced repetition");
        layer_metrics(&mut report, &times, &counters, cpu_s, &compile_ms);
        no_artifact_metrics(&mut report);
        let overhead = (traced / untraced - 1.0) * 100.0;
        report
            .lines
            .push(format!("{:<42} {overhead:>12.3} %", "trace.overhead_pct"));
        report.metric("trace.overhead_pct", overhead, "%");
    }
    report.lines.push(info_line(
        reference,
        pbe_summary(warmup.iter().map(|r| &r.result)),
    ));
    report
}

fn grid_workload(args: &Args, budget: &Budget) -> std::io::Result<Report> {
    let mut report = Report::default();
    let root = PathBuf::from(".bench_build").join(format!("perfbench-{}", std::process::id()));
    let (mut setup_s, mut compile_ms) = (Vec::new(), Vec::new());
    let (mut colds, mut cpus, mut probes) = (Vec::new(), Vec::new(), Vec::new());
    let mut rss = Vec::new();
    let mut warms = Vec::new();
    let mut efficiency = Vec::new();
    let mut point_ms = Vec::new();
    let mut untraced_busy_ms = 0.0;
    let mut times = LayerTimes::default();
    let mut cpu_s = 0.0;
    let mut reference = None;
    let mut counters: Option<Counters> = None;
    let mut pbe = None;
    let mut sim_s = 0.0;
    let min = if args.trace {
        MIN_TRACED_REPS
    } else {
        MIN_RUNS
    };
    let mut round_s = 0.0;
    while budget.more(colds.len(), min, round_s) {
        let started = Instant::now();
        let mut inputs = build_grid(args.seed, &root.join(format!("store-{}", colds.len())))?;
        compile_ms.push(inputs.compile_s * 1e3);
        sim_s = grid_sim_s(&inputs.specs);
        // The grid runs on `GRID_WORKERS` threads, so the probe runs on as
        // many at once and reports their mean. A round yields one sample,
        // so it is bracketed by probes, two on each side.
        probes.extend((0..2).map(|_| host_probe_s(GRID_WORKERS)));
        let rep = run_grid(&mut inputs)?;
        probes.extend((0..2).map(|_| host_probe_s(GRID_WORKERS)));
        setup_s.push(inputs.setup_s);
        let reference = *reference.get_or_insert(rep.fingerprint);
        report.check(
            "cold + warm round",
            rep.check
                .and_then(|()| same_fingerprint(reference, rep.fingerprint)),
        );
        colds.push(rep.cold.wall_s);
        cpus.push(rep.cold.cpu_s);
        rss.push(rep.peak_rss_mb);
        warms.push(rep.warm_s * 1e3);
        let run = &rep.cold_run;
        efficiency.push(ratio(
            run.report.busy_ms,
            run.report.elapsed_ms * GRID_WORKERS as f64,
        ));
        point_ms.extend(run.report.outcomes.iter().map(|o| o.wall_ms));
        pbe = pbe_summary(run.report.outcomes.iter().map(|o| &o.result));
        if args.trace {
            untraced_busy_ms += run.report.busy_ms;
            let replay = replay_grid(run);
            let mut round_counters = replay.counters.clone();
            round_counters.artifact_executed = run.executed as u64;
            round_counters.artifact_cached = rep.warm_cached as u64;
            let first = counters.get_or_insert_with(|| round_counters.clone());
            report.check(
                "traced replay",
                replay
                    .check
                    .and_then(|()| same_counters(first, &round_counters)),
            );
            times.add(&replay.times);
            cpu_s += replay.cpu_s;
        }
        std::fs::remove_dir_all(&inputs.dir)?;
        round_s = started.elapsed().as_secs_f64();
    }
    let _ = std::fs::remove_dir_all(&root);
    report.lines.push(format!(
        "workload paper_grid seed {}: {} points, {sim_s:.1} simulated s per cold run, {GRID_WORKERS} workers",
        args.seed,
        point_ms.len() / colds.len(),
    ));
    if !args.trace {
        let scaled = |v: &[f64], by: f64| v.iter().map(|s| s * by).collect::<Vec<_>>();
        let scale = 1e3 / sim_s * speed(&probes);
        report.timing("wall_ms_per_sim_s", &scaled(&colds, scale), "ms/sim-s");
        report.timing("cpu_ms_per_sim_s", &scaled(&cpus, scale), "ms/sim-s");
        report.timing("peak_rss_mb", &rss, "MiB");
        report.timing("setup_s", &scaled(&setup_s, speed(&probes)), "s");
        let raw = Stats::of(&colds).median * 1e3 / sim_s;
        report.lines.push(probe_line(raw, &probes));
    } else {
        let counters = counters.expect("at least one round");
        layer_metrics(&mut report, &times, &counters, cpu_s, &compile_ms);
        let cold_ms: Vec<f64> = colds.iter().map(|s| s * 1e3).collect();
        report.timing("artifact.cold_ms", &cold_ms, "ms");
        report.timing("artifact.warm_ms", &warms, "ms");
        report.timing("artifact.parallel_efficiency", &efficiency, "ratio");
        let points = Stats::of(&point_ms);
        report.lines.push(format!(
            "{:<42} {:>12.3} ms        max {:.3} over {} points",
            "artifact.point_ms_p50", points.median, points.max, points.n
        ));
        report.metric("artifact.point_ms_p50", points.median, "ms");
        report.metric("artifact.point_ms_max", points.max, "ms");
        let overhead = (ratio(times.wall_ns as f64 / 1e6, untraced_busy_ms) - 1.0) * 100.0;
        report
            .lines
            .push(format!("{:<42} {overhead:>12.3} %", "trace.overhead_pct"));
        report.metric("trace.overhead_pct", overhead, "%");
    }
    report
        .lines
        .push(info_line(reference.expect("one round"), pbe));
    Ok(report)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let budget = Budget {
        start: Instant::now(),
        seconds: args.seconds,
    };
    if let Err(e) = reset_peak_rss() {
        eprintln!("perfbench: cannot reset VmHWM ({e}); peak_rss_mb is this process's peak so far");
    }
    let report = match args.workload {
        Workload::PaperGrid => match grid_workload(&args, &budget) {
            Ok(report) => report,
            Err(e) => {
                eprintln!("perfbench: paper_grid store I/O failed: {e}");
                return ExitCode::FAILURE;
            }
        },
        _ => sim_workload(&args, &budget),
    };
    for line in &report.lines {
        println!("{line}");
    }
    println!("{}", report.json());
    ExitCode::SUCCESS
}
