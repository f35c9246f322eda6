//! The traced run: every layer timed from outside, by calling the public
//! function that implements it, on the same trace and configuration the
//! workload's commands use.
//!
//! Each layer is timed once per run, in CPU seconds like the end-to-end
//! metrics. A command's pipeline is the list of layers its CLI path calls
//! (see [`pipeline`]); summing those layer times and comparing the sum
//! with the command's untraced end-to-end time gives its coverage and its
//! residual (argument parsing, rendering, process start).

use std::path::Path;
use std::sync::Arc;

use compmem::controller::{replay_controlled, ControllerConfig, Greedy};
use compmem::experiment::{allocation_problem_for_table, run_replay, ScenarioSpec};
use compmem::optimizer::solve;
use compmem::{solve_with_floors, OptimizerKind, QosFloor};
use compmem_bench::cli;
use compmem_cache::{
    CacheConfig, CacheSizeLattice, CurveResolution, OrganizationSpec, PartitionKey, PartitionMap,
};
use compmem_platform::{profile_trace, PlatformConfig, PreparedTrace, ServeStats};
use compmem_trace::{EncodedCurves, EncodedTrace};

use crate::util::{cpu_seconds_self, median, Metrics};
use crate::workload::{decoded_rss_kb, Workload, TRACE_FILE};

/// Measured layer calls of one traced run.
#[derive(Default)]
pub struct Layers {
    spans: Vec<(&'static str, f64)>,
}

impl Layers {
    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = cpu_seconds_self();
        let value = f();
        self.spans.push((name, cpu_seconds_self() - start));
        value
    }

    /// CPU seconds spent in `name` (0 if the layer was not called).
    pub fn seconds(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|(n, _)| *n == name)
            .map(|(_, s)| s)
            .sum()
    }
}

/// The layers a command's CLI path calls, in order.
pub fn pipeline(command: &str) -> &'static [&'static str] {
    match command {
        "profile" => &["read", "decode", "filter", "profile", "solve"],
        "profile_warm" => &["read", "decode", "curves", "solve"],
        "replay" => &["read", "decode", "filter", "replay_shared"],
        "plan" => &[
            "read",
            "decode",
            "filter",
            "profile",
            "solve_floors",
            "replay_partitioned",
        ],
        "control" => &["read", "decode", "filter", "controller"],
        "info" => &["read", "decode", "hash", "curves"],
        _ => &[],
    }
}

/// Counts the traced run computed, cross-checked against the CLI's output.
pub struct Counts {
    pub refills: u64,
    pub misses_shared: u64,
    pub misses_partitioned: u64,
    pub switches: u64,
    pub flushed_lines: u64,
}

/// The hits of one daemon request: its verb and flags, its round trips
/// in CPU seconds, and the daemon's answer.
pub struct HitSample {
    pub verb: &'static str,
    pub args: Vec<String>,
    pub latencies: Vec<f64>,
    pub response: Vec<u8>,
}

/// What the untraced part of the run measured, for the comparisons.
pub struct Untraced<'a> {
    /// Median end-to-end CPU seconds per one-shot command.
    pub command_seconds: &'a [(&'static str, f64)],
    /// Median CPU seconds of the reference kernel.
    pub reference_seconds: f64,
    /// The daemon hits, one entry per rotation request.
    pub hits: &'a [HitSample],
    /// The daemon's counters after the hits.
    pub serve_stats: ServeStats,
    /// Path of the trace in the daemon's store.
    pub store_trace: &'a Path,
}

/// Runs every layer once on the workload's trace in `dir`; returns the
/// per-layer metrics and the counts to cross-check. Daemon responses that
/// differ from the in-process evaluation are reported in `mismatches`.
pub fn run(
    workload: &Workload,
    dir: &Path,
    untraced: &Untraced,
    mismatches: &mut Vec<String>,
) -> Result<(Metrics, Counts), String> {
    let err = |e: &dyn std::fmt::Display| e.to_string();
    let platform = PlatformConfig::default();
    let l2 = CacheConfig::with_size_bytes(workload.l2_kb * 1024, 4).map_err(|e| err(&e))?;
    let geometry = l2.geometry();
    let resolution =
        CurveResolution::for_geometry(geometry, workload.sets_per_unit).map_err(|e| err(&e))?;
    let lattice = CacheSizeLattice::new(geometry, workload.sets_per_unit);
    let mut layers = Layers::default();
    let mut m = Metrics::default();

    // compmem-trace codec: read, validate + decode, content hash.
    let path = dir.join(TRACE_FILE);
    let bytes = layers
        .time("read", || std::fs::read(&path))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let trace = layers
        .time("decode", || EncodedTrace::from_bytes(bytes))
        .map_err(|e| err(&e))?;
    let summary = trace.summary();
    let trace = Arc::new(trace);
    layers.time("hash", || trace.content_hash());

    // compmem-platform::replay L1 filter, on a fresh PreparedTrace so the
    // pass is not already cached.
    let prepared = Arc::new(PreparedTrace::new(Arc::clone(&trace)));
    let filtered = layers
        .time("filter", || prepared.filtered_for(&platform))
        .map_err(|e| err(&e))?;
    let refills: u64 = filtered.runs.iter().map(|r| r.refills.len() as u64).sum();

    // compmem-platform::profile: the one-pass stack-distance profile, with
    // the filter cached.
    let curves = layers
        .time("profile", || {
            profile_trace(&platform, &prepared, resolution)
        })
        .map_err(|e| err(&e))?;

    // compmem-trace curves: load and validate the set-up's sidecar.
    let sidecar = dir.join("trace.curves");
    layers
        .time("curves", || {
            EncodedCurves::read_from(&sidecar).and_then(|c| c.validate_for_trace(trace.bytes()))
        })
        .map_err(|e| format!("{}: {e}", sidecar.display()))?;

    // compmem::optimizer: the profile command's solve and the plan
    // command's floor-constrained solve (`--qos 1`: every task at most
    // 100% misses).
    let profiles = curves
        .to_profiles(&lattice, geometry.ways())
        .map_err(|e| err(&e))?;
    let problem = allocation_problem_for_table(trace.table(), &lattice, geometry, profiles);
    layers
        .time("solve", || solve(&problem, OptimizerKind::ExactIlp))
        .map_err(|e| err(&e))?;
    let floors: Vec<QosFloor> = PartitionKey::distinct_keys(trace.table())
        .into_iter()
        .filter(|key| matches!(key, PartitionKey::Task(_)))
        .map(|key| QosFloor {
            key,
            max_miss_rate: 1.0,
        })
        .collect();
    let allocation = layers
        .time("solve_floors", || {
            solve_with_floors(&problem, &floors, OptimizerKind::ExactIlp)
        })
        .map_err(|e| err(&e))?;
    let sizes: Vec<(PartitionKey, u32)> = allocation
        .iter()
        .map(|(&key, &units)| (key, lattice.sets_of(units)))
        .collect();
    let map = PartitionMap::pack(geometry, &sizes).map_err(|e| err(&e))?;

    // compmem-platform::replay L2 side, filter cached.
    let shared = ScenarioSpec::replay(l2, OrganizationSpec::Shared, Arc::clone(&prepared));
    let shared = layers
        .time("replay_shared", || run_replay(&platform, &shared))
        .map_err(|e| err(&e))?;
    let partitioned = ScenarioSpec::replay(
        l2,
        OrganizationSpec::SetPartitioned(map),
        Arc::clone(&prepared),
    );
    let partitioned = layers
        .time("replay_partitioned", || run_replay(&platform, &partitioned))
        .map_err(|e| err(&e))?;

    // compmem::controller: greedy online re-partitioning, filter cached.
    let config =
        ControllerConfig::cycles(workload.window_cycles, resolution).map_err(|e| err(&e))?;
    let controlled = layers
        .time("controller", || {
            replay_controlled(&platform, l2, &lattice, &prepared, &mut Greedy, &config)
        })
        .map_err(|e| err(&e))?;

    // compmem-bench::service: the daemon's evaluation of each hit request,
    // in-process on the decoded trace, against the daemon's own answer.
    let preloaded = cli::PreloadedTrace {
        path: untraced.store_trace.to_path_buf(),
        trace: Arc::clone(&prepared),
    };
    let mut evals = Vec::new();
    let mut round_trips = Vec::new();
    for HitSample {
        verb,
        args,
        latencies,
        response,
    } in untraced.hits
    {
        let mut argv = vec![
            "--trace".to_string(),
            untraced.store_trace.to_string_lossy().into_owned(),
        ];
        argv.extend(args.iter().cloned());
        let mut times = Vec::new();
        for _ in 0..3 {
            let mut out = Vec::new();
            let start = cpu_seconds_self();
            cli::dispatch_preloaded(verb, &argv, Some(&preloaded), &mut out)?;
            times.push(cpu_seconds_self() - start);
            if &out != response {
                mismatches.push(format!(
                    "daemon `{verb}` response differs from the in-process evaluation"
                ));
            }
        }
        evals.push(median(&times));
        round_trips.push(median(latencies));
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let eval_s = mean(&evals);
    let hit_s = mean(&round_trips);

    let accesses = summary.accesses as f64;
    m.push("trace.read_s", layers.seconds("read"), "s");
    m.push("trace.decode_s", layers.seconds("decode"), "s");
    m.push(
        "trace.decode_ns_per_access",
        layers.seconds("decode") * 1e9 / accesses,
        "ns",
    );
    m.push("trace.bytes", summary.encoded_bytes as f64, "bytes");
    m.push("trace.accesses", accesses, "count");
    m.push("trace.runs", summary.runs as f64, "count");
    m.push(
        "trace.decoded_rss_mb",
        decoded_rss_kb(dir)? as f64 / 1024.0,
        "MB",
    );
    m.push("trace.hash_s", layers.seconds("hash"), "s");
    m.push("curves.load_s", layers.seconds("curves"), "s");
    m.push("l1.filter_s", layers.seconds("filter"), "s");
    m.push(
        "l1.filter_ns_per_access",
        layers.seconds("filter") * 1e9 / accesses,
        "ns",
    );
    m.push("l1.refills", refills as f64, "count");
    m.push("l1.refill_ratio", refills as f64 / accesses, "ratio");
    m.push("l2.replay_shared_s", layers.seconds("replay_shared"), "s");
    m.push(
        "l2.replay_partitioned_s",
        layers.seconds("replay_partitioned"),
        "s",
    );
    m.push(
        "l2.ns_per_refill",
        layers.seconds("replay_shared") * 1e9 / refills.max(1) as f64,
        "ns",
    );
    m.push("l2.accesses", shared.report.l2.accesses as f64, "count");
    m.push("l2.misses_shared", shared.report.l2.misses as f64, "count");
    m.push(
        "l2.misses_partitioned",
        partitioned.report.l2.misses as f64,
        "count",
    );
    m.push("profile.pass_s", layers.seconds("profile"), "s");
    m.push(
        "profile.ns_per_refill",
        layers.seconds("profile") * 1e9 / refills.max(1) as f64,
        "ns",
    );
    m.push("solve.s", layers.seconds("solve"), "s");
    m.push("solve.entities", problem.entities.len() as f64, "count");
    m.push("controller.s", layers.seconds("controller"), "s");
    m.push("controller.windows", controlled.ticks as f64, "count");
    m.push("controller.switches", controlled.switches() as f64, "count");
    m.push(
        "controller.flushed_lines",
        controlled.total_flush().written_back as f64,
        "count",
    );
    m.push("serve.eval_s", eval_s, "s");
    m.push("serve.wire_queue_s", hit_s - eval_s, "s");
    m.push(
        "serve.hits",
        untraced.serve_stats.cache_hits as f64,
        "count",
    );
    m.push(
        "serve.misses",
        untraced.serve_stats.cache_misses as f64,
        "count",
    );

    // Coverage: how much of each command's end-to-end time its layers
    // explain, and the residual they leave (parsing, rendering, process
    // start-up).
    let mut traced_total = 0.0;
    let mut untraced_total = 0.0;
    for &(command, e2e) in untraced.command_seconds {
        let steps = pipeline(command);
        let summed: f64 = steps.iter().map(|s| layers.seconds(s)).sum();
        traced_total += summed;
        untraced_total += e2e;
        m.push(format!("cli.cpu_s.{command}"), e2e, "s");
        m.push(format!("{command}.coverage"), summed / e2e, "ratio");
        m.push(format!("cli.residual_s.{command}"), e2e - summed, "s");
        let mut largest: Vec<(&str, f64)> = steps.iter().map(|s| (*s, layers.seconds(s))).collect();
        largest.sort_by(|a, b| b.1.total_cmp(&a.1));
        let top: Vec<String> = largest
            .iter()
            .take(3)
            .map(|(name, s)| format!("{name} {:.1}%", 100.0 * s / e2e))
            .collect();
        eprintln!(
            "pipebench: {command:<12} {:>8.3} CPU s end to end, coverage {:>5.1}%, largest layers: {}",
            e2e,
            100.0 * summed / e2e,
            top.join(", ")
        );
    }
    m.push("serve_hit.coverage", eval_s / hit_s, "ratio");
    eprintln!(
        "pipebench: serve_hit    {:>8.3} CPU s round trip, evaluation {:.1}%, wire + queue + classification {:.1}%",
        hit_s,
        100.0 * eval_s / hit_s,
        100.0 * (hit_s - eval_s) / hit_s
    );
    m.push("trace_overhead", traced_total / untraced_total, "ratio");
    m.push("reference.cpu_s", untraced.reference_seconds, "s");

    let counts = Counts {
        refills,
        misses_shared: shared.report.l2.misses,
        misses_partitioned: partitioned.report.l2.misses,
        switches: controlled.switches() as u64,
        flushed_lines: controlled.total_flush().written_back,
    };
    Ok((m, counts))
}
