//! `pipebench`: the paper-scale benchmark of the compmem pipeline.
//!
//! ```text
//! pipebench --workload mpeg2_paper|zoo_mix --seed N --seconds S --trace 0|1
//! pipebench --smoke
//! ```
//!
//! A run sets the workload up three times (the median is `setup_s`), then
//! runs rounds for `--seconds` (at least four). A round runs each
//! one-shot `compmem` command as its own process, then sends 25 hits to
//! the workload's `compmem serve` daemon; commands and hits are timed in
//! CPU seconds, and each command is reported relative to a fixed
//! reference kernel run between them. It checks every output and ends
//! with one JSON line: the end-to-end metrics with `--trace 0`, or, with
//! `--trace 1`, the per-layer metrics of a traced run that times each
//! layer from outside. `--smoke` runs every workload at a tiny size and
//! checks the harness itself. See `pipebench/README.md`.

mod reference;
mod traced;
mod util;
mod workload;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use util::{
    cpu_seconds_self, fnv64, median, percentile, result_line, strip_sidecar_lines, Metrics,
};
use workload::{run_oneshot, setup, Prepared, Workload, WORKLOADS};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Rounds per untraced run, at least; each command's time is its median
/// over the rounds.
const MIN_ROUNDS: usize = 4;
/// Daemon hits per round of an untraced run: four rounds make 100, so
/// p90 has ten samples beyond it.
const HITS_PER_ROUND: usize = 25;
/// A round runs the reference kernel before every this many one-shot
/// commands.
const REFERENCE_EVERY: usize = 2;
/// Daemon hits of a traced run (one round; enough for a median per verb).
const TRACED_HITS: usize = 10;
/// Reference digests of every command's output, per workload and seed.
const REFERENCE: &str = include_str!("../reference.txt");
/// Work directories live here, inside the checkout.
const WORK_ROOT: &str = ".pipebench";

struct Options {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match (args.first().map(String::as_str), args.get(1)) {
        (Some("exec"), Some(verb)) => return workload::exec_child(verb, &args[2..]),
        (Some("decode-rss"), Some(path)) => return workload::decode_rss_child(path),
        (Some("reference"), None) => return reference::child(),
        _ => {}
    }
    let result = if args.iter().any(|a| a == "--smoke") {
        smoke()
    } else {
        parse_options(&args).and_then(|options| {
            let workload = Workload::new(&options.workload, options.seed, false)?;
            let run = run(&workload, options.seed, options.seconds, options.trace)?;
            println!("{}", run.line());
            Ok(())
        })
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("pipebench: error: {message}");
            ExitCode::FAILURE
        }
    }
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        workload: String::new(),
        seed: 0,
        seconds: 20.0,
        trace: false,
    };
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let value = iter.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || -> Result<u64, String> {
            value
                .parse()
                .map_err(|_| format!("{flag} needs a whole number, not `{value}`"))
        };
        match flag.as_str() {
            "--workload" => options.workload = value.clone(),
            "--seed" => options.seed = number()?,
            "--seconds" => options.seconds = number()? as f64,
            "--trace" => options.trace = number()? == 1,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if options.workload.is_empty() {
        return Err(format!(
            "usage: pipebench --workload {} --seed N --seconds S --trace 0|1 | --smoke",
            WORKLOADS.join("|")
        ));
    }
    Ok(options)
}

/// Everything one run produced.
#[derive(Default)]
struct Run {
    attempted: u64,
    /// Failed operations and wrong outputs, each with its reason.
    failures: Vec<String>,
    metrics: Metrics,
}

impl Run {
    fn fail(&mut self, reason: String) {
        eprintln!("pipebench: FAILED: {reason}");
        self.failures.push(reason);
    }

    fn line(&self) -> String {
        result_line(
            self.failures.is_empty(),
            self.attempted,
            self.failures.len() as u64,
            &self.metrics,
        )
    }
}

/// Empties (or creates) a work directory.
fn fresh_dir(dir: &Path) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))
}

/// Removes a work directory when dropped, however the run ends.
struct RemoveOnDrop(PathBuf);

impl Drop for RemoveOnDrop {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// What the one-shot commands of the rounds measured.
#[derive(Default)]
struct Rounds {
    /// CPU seconds per run of each command.
    times: BTreeMap<&'static str, Vec<f64>>,
    /// CPU seconds per run of the reference kernel.
    reference: Vec<f64>,
    /// Each command's stdout (identical on every repeat, or the run fails).
    outputs: BTreeMap<&'static str, Vec<u8>>,
    peak_rss_kb: u64,
}

impl Rounds {
    /// Median CPU seconds of the reference kernel (NaN if it never ran).
    fn reference_seconds(&self) -> f64 {
        if self.reference.is_empty() {
            f64::NAN
        } else {
            median(&self.reference)
        }
    }
}

/// What the daemon hits of the rounds measured, per rotation slot.
struct Hits {
    /// CPU seconds of each round trip.
    latencies: Vec<Vec<f64>>,
    responses: Vec<Option<Vec<u8>>>,
    stats: compmem_platform::ServeStats,
}

/// One benchmark run of `workload`; see the crate docs.
fn run(workload: &Workload, seed: u64, seconds: f64, trace: bool) -> Result<Run, String> {
    let dir = PathBuf::from(WORK_ROOT).join(workload.name);
    let _cleanup = RemoveOnDrop(dir.clone());
    let mut run = Run::default();

    // Set-up, repeated; the last one is kept.
    let mut setup_seconds = Vec::new();
    let mut prepared: Option<Prepared> = None;
    for _ in 0..if trace { 1 } else { SETUP_REPEATS } {
        drop(prepared.take());
        fresh_dir(&dir)?;
        let start = Instant::now();
        prepared = Some(setup(workload, &dir)?);
        setup_seconds.push(start.elapsed().as_secs_f64());
        run.attempted += 1;
    }
    let mut prepared = prepared.expect("at least one set-up");
    for (name, bytes) in std::mem::take(&mut prepared.outputs) {
        check_reference(&mut run, workload, seed, name, &bytes);
    }
    prepared.warm_daemon(workload)?;

    let (seconds, min_rounds, hits_per_round) = if trace {
        (0.0, 1, TRACED_HITS)
    } else {
        (seconds, MIN_ROUNDS, HITS_PER_ROUND)
    };
    let (rounds, hits) = measure(
        &mut run,
        workload,
        &mut prepared,
        seconds,
        min_rounds,
        hits_per_round,
    )?;
    for (name, bytes) in &rounds.outputs {
        check_reference(&mut run, workload, seed, name, bytes);
    }
    let printed = Printed::parse(&rounds.outputs);
    if printed.is_none() {
        run.fail("could not read the miss counts from the command outputs".to_string());
    }

    if trace {
        traced_metrics(
            &mut run,
            workload,
            &prepared,
            &rounds,
            hits,
            printed.as_ref(),
        );
    } else {
        let m = &mut run.metrics;
        m.push("setup_s", median(&setup_seconds), "s");
        let reference = rounds.reference_seconds();
        eprintln!("pipebench: reference kernel {reference:.4} CPU s");
        let (mut cold, mut warm) = (0.0, 0.0);
        for command in workload.commands() {
            let value = rounds
                .times
                .get(command.name)
                .map_or(f64::NAN, |t| median(t));
            *if command.warm { &mut warm } else { &mut cold } += value;
            eprintln!(
                "pipebench: {:<12} {value:.4} CPU s, {:.3}x the reference kernel",
                command.name,
                value / reference
            );
        }
        m.push("cold_commands_rel", cold / reference, "x");
        m.push("warm_commands_rel", warm / reference, "x");
        let all_hits: Vec<f64> = hits.latencies.concat();
        let (p50, p90) = if all_hits.is_empty() {
            (f64::NAN, f64::NAN)
        } else {
            (percentile(&all_hits, 0.5), percentile(&all_hits, 0.9))
        };
        m.push("serve_hit_cpu_p50_ms", p50 * 1e3, "ms");
        m.push("serve_hit_cpu_p90_ms", p90 * 1e3, "ms");
        m.push("peak_rss_mb", rounds.peak_rss_kb as f64 / 1024.0, "MB");
        let (reduction, cost) = printed.as_ref().map_or((f64::NAN, f64::NAN), |p| {
            (
                p.shared_misses as f64 / p.plan_misses as f64,
                p.control_cost as f64,
            )
        });
        m.push("miss_reduction_x", reduction, "x");
        m.push("control_cost", cost, "count");
        eprintln!(
            "pipebench: {} seed {seed}: {} rounds, {} daemon hits; miss_reduction_x \
             {reduction:.4} (the paper reports {}; the model is not validated against hardware)",
            workload.name,
            rounds.times.values().map(Vec::len).min().unwrap_or(0),
            all_hits.len(),
            match workload.source {
                workload::Source::Mpeg2 { .. } => "6.5x for MPEG-2",
                workload::Source::Mix { .. } => "no figure for this mix",
            }
        );
    }
    Ok(run)
}

/// Runs rounds until `seconds` have passed and at least `min_rounds` have
/// run. A round runs every one-shot command once, with the reference
/// kernel before every `REFERENCE_EVERY` of them, then sends
/// `hits_per_round` requests to the daemon over one connection in a
/// closed loop, cycling the hit rotation; interleaving the two spreads
/// each command's samples over the whole run. Checks that each output is
/// identical on every repeat, that every request was a cache hit, and
/// that each daemon answer equals the one-shot command's output but for
/// the sidecar-path line.
fn measure(
    run: &mut Run,
    workload: &Workload,
    prepared: &mut Prepared,
    seconds: f64,
    min_rounds: usize,
    hits_per_round: usize,
) -> Result<(Rounds, Hits), String> {
    let commands = workload.commands();
    let rotation = workload.hit_rotation();
    let daemon = &mut prepared.daemon;
    let before = daemon.stats()?;
    let mut rounds = Rounds::default();
    let mut latencies: Vec<Vec<f64>> = vec![Vec::new(); rotation.len()];
    let mut responses: Vec<Option<Vec<u8>>> = vec![None; rotation.len()];
    let start = Instant::now();
    for round in 1.. {
        for (i, command) in commands.iter().enumerate() {
            if i % REFERENCE_EVERY == 0 {
                run.attempted += 1;
                match reference::run() {
                    Ok(seconds) => rounds.reference.push(seconds),
                    Err(message) => run.fail(message),
                }
            }
            run.attempted += 1;
            match run_oneshot(&prepared.dir, command.verb, &command.args) {
                Ok(outcome) => {
                    rounds
                        .times
                        .entry(command.name)
                        .or_default()
                        .push(outcome.cpu_seconds);
                    rounds.peak_rss_kb = rounds.peak_rss_kb.max(outcome.peak_rss_kb);
                    let first = rounds
                        .outputs
                        .entry(command.name)
                        .or_insert_with(|| outcome.stdout.clone());
                    if *first != outcome.stdout {
                        run.fail(format!(
                            "`{}` printed different output on a repeat",
                            command.name
                        ));
                    }
                }
                Err(message) => run.fail(message),
            }
        }
        for i in 0..hits_per_round {
            let slot = i % rotation.len();
            let (_, verb, args) = &rotation[slot];
            run.attempted += 1;
            // The client waits while the daemon thread works, so the
            // process's CPU time over the round trip is the hit's.
            let sent = cpu_seconds_self();
            match daemon.command(verb, args) {
                Ok(bytes) => {
                    latencies[slot].push(cpu_seconds_self() - sent);
                    match &responses[slot] {
                        Some(first) if *first != bytes => {
                            run.fail(format!("daemon `{verb}` answered differently on a repeat"))
                        }
                        Some(_) => {}
                        None => responses[slot] = Some(bytes),
                    }
                }
                Err(message) => run.fail(message),
            }
        }
        if round >= min_rounds && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }

    let stats = daemon.stats()?;
    let served: usize = latencies.iter().map(Vec::len).sum();
    let hit = stats.cache_hits - before.cache_hits;
    let missed = stats.cache_misses - before.cache_misses;
    if hit != served as u64 || missed != 0 {
        run.fail(format!(
            "daemon served {hit} of {served} requests from its cache and queued {missed}"
        ));
    }
    for ((command, verb, _), response) in rotation.iter().zip(&responses) {
        let (Some(response), Some(oneshot)) = (response, rounds.outputs.get(command)) else {
            continue;
        };
        if strip_sidecar_lines(response) != strip_sidecar_lines(oneshot) {
            run.fail(format!(
                "daemon `{verb}` differs from the one-shot `{command}`"
            ));
        }
    }
    let hits = Hits {
        latencies,
        responses,
        stats,
    };
    Ok((rounds, hits))
}

/// The traced run's per-layer metrics, and the check that its counts
/// equal what the CLI printed.
fn traced_metrics(
    run: &mut Run,
    workload: &Workload,
    prepared: &Prepared,
    rounds: &Rounds,
    hits: Hits,
    printed: Option<&Printed>,
) {
    let command_seconds: Vec<(&'static str, f64)> = workload
        .commands()
        .iter()
        .filter_map(|c| Some((c.name, median(rounds.times.get(c.name)?))))
        .collect();
    let hit_samples: Vec<traced::HitSample> = workload
        .hit_rotation()
        .into_iter()
        .zip(hits.latencies)
        .zip(hits.responses)
        .filter_map(|(((_, verb, args), latencies), response)| {
            Some(traced::HitSample {
                verb,
                args,
                latencies,
                response: response?,
            })
        })
        .collect();
    let store_trace = prepared
        .dir
        .join("store")
        .join(format!("{:016x}.cmt", prepared.daemon.hash));
    let untraced = traced::Untraced {
        command_seconds: &command_seconds,
        reference_seconds: rounds.reference_seconds(),
        hits: &hit_samples,
        serve_stats: hits.stats,
        store_trace: &store_trace,
    };
    let mut mismatches = Vec::new();
    run.attempted += 1;
    match traced::run(workload, &prepared.dir, &untraced, &mut mismatches) {
        Ok((metrics, counts)) => {
            if let Some(p) = printed {
                let pairs = [
                    ("l1.refills", counts.refills, p.l2_accesses),
                    ("l2.misses_shared", counts.misses_shared, p.shared_misses),
                    (
                        "l2.misses_partitioned",
                        counts.misses_partitioned,
                        p.plan_misses,
                    ),
                    ("controller.switches", counts.switches, p.switches),
                    ("controller.flushed_lines", counts.flushed_lines, p.flushed),
                ];
                for (name, traced, cli) in pairs {
                    if traced != cli {
                        mismatches.push(format!("{name}: traced {traced}, CLI printed {cli}"));
                    }
                }
            }
            run.metrics = metrics;
        }
        Err(message) => mismatches.push(format!("traced run failed: {message}")),
    }
    for m in mismatches {
        run.fail(m);
    }
}

/// Compares an output's digest with the reference file, when the file
/// has an entry for this workload, seed and command (smoke sizes have
/// none); prints the digest either way so new references can be recorded.
fn check_reference(run: &mut Run, workload: &Workload, seed: u64, command: &str, bytes: &[u8]) {
    let digest = format!("{:016x}", fnv64(bytes));
    if workload.smoke {
        return;
    }
    let workload = workload.name;
    eprintln!("pipebench: digest {workload} {seed} {command} {digest}");
    let expected = REFERENCE.lines().find_map(|line| {
        let fields: Vec<&str> = line.split_whitespace().collect();
        match fields.as_slice() {
            [w, s, c, d] if *w == workload && *s == seed.to_string() && *c == command => Some(*d),
            _ => None,
        }
    });
    if let Some(expected) = expected {
        if expected != digest {
            run.fail(format!(
                "`{command}` output digest {digest} differs from the reference {expected}"
            ));
        }
    }
}

/// The simulated numbers the one-shot commands printed.
struct Printed {
    l2_accesses: u64,
    shared_misses: u64,
    plan_misses: u64,
    control_cost: u64,
    switches: u64,
    flushed: u64,
}

impl Printed {
    fn parse(outputs: &BTreeMap<&'static str, Vec<u8>>) -> Option<Printed> {
        let text = |name: &str| {
            outputs
                .get(name)
                .map(|b| String::from_utf8_lossy(b).into_owned())
        };
        // An outcome row: label, l2 accesses, l2 misses, missrate, dram, makespan.
        let row = |name: &str, label: &str| -> Option<(u64, u64)> {
            let text = text(name)?;
            let fields: Vec<&str> = text
                .lines()
                .find(|l| l.split_whitespace().next() == Some(label))?
                .split_whitespace()
                .collect();
            Some((fields.get(1)?.parse().ok()?, fields.get(2)?.parse().ok()?))
        };
        let (l2_accesses, shared_misses) = row("replay", "shared")?;
        let (_, plan_misses) = row("plan", "qos-partitioned")?;
        let control = text("control")?;
        // "control cost C = M L2 misses + F flushed lines written back"
        let cost_line = control.lines().find(|l| l.starts_with("control cost "))?;
        let words: Vec<&str> = cost_line.split_whitespace().collect();
        let control_cost = words.get(2)?.parse().ok()?;
        let flushed = words.get(8)?.parse().ok()?;
        // "..., N switches fired"
        let head = control.lines().next()?;
        let before = head.strip_suffix(" switches fired")?;
        let switches = before.rsplit(' ').next()?.parse().ok()?;
        Some(Printed {
            l2_accesses,
            shared_misses,
            plan_misses,
            control_cost,
            switches,
            flushed,
        })
    }
}

/// Runs every workload at a tiny size and checks the harness: both run
/// kinds succeed with correct outputs, every metric `BENCHMARK.json`
/// names is emitted with its unit, and a truncated trace is counted as a
/// failed operation rather than a panic.
fn smoke() -> Result<(), String> {
    let spec = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    let declared = |section: &str| declared_metrics(&spec, section);
    for name in WORKLOADS {
        let workload = Workload::new(name, 0, true)?;
        for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
            let run = run(&workload, 0, 0.0, trace)?;
            if !run.failures.is_empty() {
                return Err(format!("{name}: {}", run.failures.join("; ")));
            }
            let mut emitted: Vec<(String, String)> = run
                .metrics
                .0
                .iter()
                .map(|m| (m.name.clone(), m.unit.to_string()))
                .collect();
            let mut expected = declared(section);
            emitted.sort();
            expected.sort();
            if emitted != expected {
                return Err(format!(
                    "{name} --trace {}: emitted {emitted:?}, BENCHMARK.json declares {:?}",
                    u8::from(trace),
                    expected
                ));
            }
            eprintln!("pipebench: smoke {name} --trace {}: ok", u8::from(trace));
        }
    }

    // A truncated trace is a failed command, not a crash.
    let dir = PathBuf::from(WORK_ROOT).join("smoke_truncated");
    fresh_dir(&dir)?;
    let workload = Workload::new("zoo_mix", 0, true)?;
    let prepared = setup(&workload, &dir)?;
    drop(prepared);
    let path = dir.join(workload::TRACE_FILE);
    let bytes = std::fs::read(&path).map_err(|e| e.to_string())?;
    std::fs::write(&path, &bytes[..bytes.len() / 2]).map_err(|e| e.to_string())?;
    let mut run = Run::default();
    for command in workload.commands() {
        run.attempted += 1;
        if let Err(message) = run_oneshot(&dir, command.verb, &command.args) {
            if message.contains("panicked") {
                return Err(format!("truncated trace panicked: {message}"));
            }
            run.failures.push(message);
        }
    }
    std::fs::remove_dir_all(&dir).map_err(|e| e.to_string())?;
    if run.failures.len() as u64 != run.attempted {
        return Err(format!(
            "only {} of {} commands failed on a truncated trace",
            run.failures.len(),
            run.attempted
        ));
    }
    eprintln!("pipebench: smoke truncated trace: every command failed cleanly");
    println!("pipebench smoke: ok");
    Ok(())
}

/// The `(name, unit)` pairs of one metric section of `BENCHMARK.json`, in
/// order. A scan for `"name"`/`"unit"` pairs, enough for the file's
/// fixed layout.
fn declared_metrics(spec: &str, section: &str) -> Vec<(String, String)> {
    let Some(start) = spec.find(&format!("\"{section}\"")) else {
        return Vec::new();
    };
    let body = &spec[start..];
    let body = &body[..body.find(']').unwrap_or(body.len())];
    let value_of = |entry: &str, key: &str| -> Option<String> {
        let rest = &entry[entry.find(&format!("\"{key}\""))? + key.len() + 2..];
        let rest = &rest[rest.find('"')? + 1..];
        Some(rest[..rest.find('"')?].to_string())
    };
    body.split('{')
        .skip(1)
        .filter_map(|entry| Some((value_of(entry, "name")?, value_of(entry, "unit")?)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declared_metrics_reads_sections_in_order() {
        let spec = r#"{"end_to_end": [
            {"name": "a_s", "unit": "s", "better": "lower", "bound": 0.1},
            {"name": "b", "unit": "count", "better": "higher", "bound": 0.1}
        ], "per_layer": [{"name": "c.d", "unit": "ns", "better": "lower"}]}"#;
        assert_eq!(
            declared_metrics(spec, "end_to_end"),
            vec![
                ("a_s".to_string(), "s".to_string()),
                ("b".to_string(), "count".to_string())
            ]
        );
        assert_eq!(
            declared_metrics(spec, "per_layer"),
            vec![("c.d".to_string(), "ns".to_string())]
        );
    }

    #[test]
    fn printed_numbers_parse_from_cli_rows() {
        let mut outputs = BTreeMap::new();
        outputs.insert(
            "replay",
            b"replayed 9 accesses\norganisation l2\nshared  77135  18315  23.744%  18315  12715514\n"
                .to_vec(),
        );
        outputs.insert(
            "plan",
            b"qos-partitioned  77135  18955  24.574%  18955  12648167\n".to_vec(),
        );
        outputs.insert(
            "control",
            b"controlled replay of 5 accesses: policy `greedy`, 7 windows of 2 cycles \
              observed, 6 switches fired\ncontrol cost 33344 = 32201 L2 misses + 1143 flushed \
              lines written back\n"
                .to_vec(),
        );
        let p = Printed::parse(&outputs).expect("parses");
        assert_eq!(
            (p.l2_accesses, p.shared_misses, p.plan_misses),
            (77135, 18315, 18955)
        );
        assert_eq!((p.control_cost, p.switches, p.flushed), (33344, 6, 1143));
    }
}
