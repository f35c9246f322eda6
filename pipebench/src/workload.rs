//! The benchmark's workloads, how each is set up, and the two ways a
//! user reaches the pipeline: one-shot `compmem` commands and the
//! `compmem serve` daemon.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Arc;
use std::thread::JoinHandle;

use compmem_bench::cli;
use compmem_bench::service::DaemonHandler;
use compmem_platform::{CurveStore, ServeClient, ServeRequest, ServeResponse, ServeStats, Server};
use compmem_workloads::apps::{mpeg2_app, Mpeg2Params};

use crate::util::{cpu_seconds_children, proc_status_kb};

/// File name of the workload's trace inside its work directory.
pub const TRACE_FILE: &str = "trace.cmt";

/// Where the input trace comes from.
pub enum Source {
    /// MPEG-2 recorded live on the simulator (the `record` command's
    /// flow, with the stream seed exposed).
    Mpeg2 {
        params: Mpeg2Params,
        scale: compmem_bench::Scale,
    },
    /// `compmem gen --kind mix` with the default task mix.
    Mix { accesses: u64, seed: u64 },
}

/// One named workload: an input trace and the L2 it is planned for.
pub struct Workload {
    pub name: &'static str,
    pub source: Source,
    pub l2_kb: u64,
    pub sets_per_unit: u32,
    pub window_cycles: u64,
    /// Tiny inputs of the smoke test (which has no reference digests).
    pub smoke: bool,
}

/// Names accepted by `--workload`.
pub const WORKLOADS: [&str; 2] = ["mpeg2_paper", "zoo_mix"];

impl Workload {
    /// Builds a workload. `seed` offsets the MPEG-2 source seed (2005 at
    /// paper scale) and the generator seed (42, `gen`'s default), so seed
    /// 0 reproduces what `compmem record`/`compmem gen` produce by default.
    /// `smoke` shrinks every input to seconds-scale.
    pub fn new(name: &str, seed: u64, smoke: bool) -> Result<Workload, String> {
        use compmem_bench::Scale;
        match name {
            "mpeg2_paper" => {
                let scale = if smoke { Scale::Tiny } else { Scale::Paper };
                let base = scale.mpeg2_params();
                Ok(Workload {
                    name: "mpeg2_paper",
                    source: Source::Mpeg2 {
                        params: Mpeg2Params {
                            seed: base.seed.wrapping_add(seed),
                            ..base
                        },
                        scale,
                    },
                    // The CLI's default 64 KB L2 cannot hold the 37 MPEG-2
                    // entities at one 16-set unit each; the paper's 512 KB
                    // can.
                    l2_kb: if smoke { 32 } else { 512 },
                    sets_per_unit: if smoke { 2 } else { 16 },
                    window_cycles: if smoke { 50_000 } else { 2_000_000 },
                    smoke,
                })
            }
            "zoo_mix" => Ok(Workload {
                name: "zoo_mix",
                source: Source::Mix {
                    accesses: if smoke { 20_000 } else { 500_000 },
                    seed: 42u64.wrapping_add(seed),
                },
                l2_kb: 64,
                sets_per_unit: 4,
                window_cycles: 250_000,
                smoke,
            }),
            other => Err(format!(
                "unknown workload `{other}` (use {})",
                WORKLOADS.join(" or ")
            )),
        }
    }

    /// Flags of `profile` (without `--trace`) that reuse the sidecar.
    fn profile_args(&self) -> Vec<String> {
        split(&format!(
            "--l2-kb {} --sets-per-unit {}",
            self.l2_kb, self.sets_per_unit
        ))
    }

    /// The one-shot commands every round runs, in order. `profile` and
    /// `plan` neither read nor write the sidecar (`--save-curves off`);
    /// `profile_warm` and `info` find it next to the trace.
    pub fn commands(&self) -> Vec<CommandSpec> {
        let (kb, spu, window) = (self.l2_kb, self.sets_per_unit, self.window_cycles);
        [
            (
                "profile",
                "profile",
                format!("--l2-kb {kb} --sets-per-unit {spu} --save-curves off"),
            ),
            (
                "profile_warm",
                "profile",
                format!("--l2-kb {kb} --sets-per-unit {spu}"),
            ),
            ("replay", "replay", format!("--l2-kb {kb} --org shared")),
            (
                "plan",
                "replay",
                format!("--l2-kb {kb} --qos 1 --sets-per-unit {spu} --save-curves off"),
            ),
            (
                "control",
                "replay",
                format!(
                    "--l2-kb {kb} --controller greedy --window-cycles {window} \
                     --sets-per-unit {spu}"
                ),
            ),
            ("info", "info", format!("--l2-kb {kb}")),
        ]
        .into_iter()
        .map(|(name, verb, flags)| CommandSpec {
            name,
            verb,
            args: split(&flags),
            warm: matches!(name, "profile_warm" | "info"),
        })
        .collect()
    }

    /// The daemon requests a run alternates, as (one-shot command whose
    /// output the response must match, verb, flags): `profile` answered
    /// from the store's sidecar, and `info`. Both are cache hits.
    pub fn hit_rotation(&self) -> Vec<(&'static str, &'static str, Vec<String>)> {
        vec![
            ("profile_warm", "profile", self.profile_args()),
            ("info", "info", split(&format!("--l2-kb {}", self.l2_kb))),
        ]
    }
}

/// Splits a flag string into argv words.
fn split(flags: &str) -> Vec<String> {
    flags.split_whitespace().map(String::from).collect()
}

/// One one-shot `compmem` invocation over the workload trace.
pub struct CommandSpec {
    /// The benchmark's name for it (`plan` and `control` are `replay`
    /// invocations, `profile_warm` a `profile` one).
    pub name: &'static str,
    pub verb: &'static str,
    /// Flags after `--trace trace.cmt`.
    pub args: Vec<String>,
    /// Whether it answers from the sidecar (`profile_warm`, `info`)
    /// rather than profiling or replaying the trace.
    pub warm: bool,
}

/// A finished one-shot command.
pub struct Outcome {
    /// CPU seconds (user + system) of the command's process, from start to
    /// exit.
    pub cpu_seconds: f64,
    pub stdout: Vec<u8>,
    pub peak_rss_kb: u64,
}

/// Runs one `compmem` command as its own process in `dir`: this binary
/// re-executed in `exec` mode, which is the `compmem` binary's one-shot
/// path (`cli::dispatch` onto stdout) plus a peak-RSS report on stderr.
///
/// # Errors
///
/// A message naming the command when it exits non-zero, panics, or does
/// not report its memory.
pub fn run_oneshot(dir: &Path, verb: &str, args: &[String]) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    // The benchmark waits for one child at a time, so the growth of the
    // children's CPU time is this command's.
    let before = cpu_seconds_children();
    let output = Command::new(exe)
        .args(["exec", verb, "--trace", TRACE_FILE])
        .args(args)
        .current_dir(dir)
        .output()
        .map_err(|e| format!("cannot spawn `{verb}`: {e}"))?;
    let cpu_seconds = cpu_seconds_children() - before;
    let stderr = String::from_utf8_lossy(&output.stderr);
    if !output.status.success() {
        return Err(format!(
            "`compmem {verb} --trace {TRACE_FILE} {}` failed ({}): {}",
            args.join(" "),
            output.status,
            stderr.trim()
        ));
    }
    let peak_rss_kb = stderr
        .lines()
        .find_map(|l| l.strip_prefix(PEAK_RSS_PREFIX)?.trim().parse().ok())
        .ok_or_else(|| format!("`compmem {verb}` did not report its peak RSS"))?;
    Ok(Outcome {
        cpu_seconds,
        stdout: output.stdout,
        peak_rss_kb,
    })
}

const PEAK_RSS_PREFIX: &str = "pipebench: peak_rss_kb ";

/// How much resident memory decoding the workload trace adds, measured
/// in a fresh process (this one's heap already holds freed decodes).
pub fn decoded_rss_kb(dir: &Path) -> Result<u64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let output = Command::new(exe)
        .args(["decode-rss", TRACE_FILE])
        .current_dir(dir)
        .output()
        .map_err(|e| format!("cannot spawn the decode probe: {e}"))?;
    String::from_utf8_lossy(&output.stdout)
        .trim()
        .parse()
        .map_err(|_| "the decode probe failed".to_string())
}

/// The child side of [`decoded_rss_kb`]: reads the trace, then prints the
/// growth of `VmRSS` across `EncodedTrace::from_bytes`.
pub fn decode_rss_child(path: &str) -> std::process::ExitCode {
    let Ok(bytes) = std::fs::read(path) else {
        return std::process::ExitCode::FAILURE;
    };
    let before = proc_status_kb("VmRSS").unwrap_or(0);
    let Ok(trace) = compmem_trace::EncodedTrace::from_bytes(bytes) else {
        return std::process::ExitCode::FAILURE;
    };
    let after = proc_status_kb("VmRSS").unwrap_or(0);
    drop(trace);
    println!("{}", after.saturating_sub(before));
    std::process::ExitCode::SUCCESS
}

/// The child side of [`run_oneshot`]: exactly what `compmem VERB ARGS`
/// does for the one-shot verbs, then the process's peak RSS on stderr.
pub fn exec_child(verb: &str, args: &[String]) -> std::process::ExitCode {
    let result = {
        let stdout = std::io::stdout();
        let mut out = stdout.lock();
        cli::dispatch(verb, args, &mut out)
    };
    eprintln!("{PEAK_RSS_PREFIX}{}", proc_status_kb("VmHWM").unwrap_or(0));
    match result {
        Ok(()) => std::process::ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            std::process::ExitCode::FAILURE
        }
    }
}

/// A `compmem serve` daemon running on a thread of this process, with
/// the benchmark's single client connection. `--jobs 1`, like the
/// benchmark's whole footprint: one daemon worker, one client.
pub struct Daemon {
    addr: String,
    server: Option<JoinHandle<()>>,
    client: Option<ServeClient>,
    /// Content hash of the workload trace in the daemon's store.
    pub hash: u64,
}

impl Daemon {
    /// Starts a daemon over a store at `store` and uploads `trace`.
    pub fn start(store: &Path, trace: &Path) -> Result<Daemon, String> {
        let store = Arc::new(CurveStore::open(store).map_err(|e| e.to_string())?);
        let server =
            Server::bind("127.0.0.1:0", store, DaemonHandler::new(1)).map_err(|e| e.to_string())?;
        let addr = server.local_addr().map_err(|e| e.to_string())?.to_string();
        let thread = std::thread::spawn(move || {
            if let Err(e) = server.run() {
                eprintln!("pipebench: daemon stopped: {e}");
            }
        });
        let mut daemon = Daemon {
            addr: addr.clone(),
            server: Some(thread),
            client: None,
            hash: 0,
        };
        daemon.client = Some(ServeClient::connect(&addr).map_err(|e| e.to_string())?);
        let bytes = std::fs::read(trace).map_err(|e| format!("{}: {e}", trace.display()))?;
        match daemon.send(&ServeRequest::PutTrace { bytes })? {
            ServeResponse::PutOk { hash, .. } => daemon.hash = hash,
            other => return Err(format!("put answered {other:?}")),
        }
        Ok(daemon)
    }

    fn send(&mut self, request: &ServeRequest) -> Result<ServeResponse, String> {
        let client = self.client.as_mut().expect("connected until dropped");
        client.request(request).map_err(|e| e.to_string())
    }

    /// Runs one command over the stored trace; returns the output bytes.
    pub fn command(&mut self, verb: &str, args: &[String]) -> Result<Vec<u8>, String> {
        let request = ServeRequest::Command {
            trace: self.hash,
            verb: verb.to_string(),
            args: args.to_vec(),
        };
        match self.send(&request)? {
            ServeResponse::Output { bytes } => Ok(bytes),
            ServeResponse::Error { kind, message } => Err(format!(
                "daemon refused `{verb}` ({}): {message}",
                kind.label()
            )),
            other => Err(format!("`{verb}` answered {other:?}")),
        }
    }

    /// The daemon's request counters.
    pub fn stats(&mut self) -> Result<ServeStats, String> {
        match self.send(&ServeRequest::Stats)? {
            ServeResponse::Stats(stats) => Ok(stats),
            other => Err(format!("stats answered {other:?}")),
        }
    }
}

impl Drop for Daemon {
    /// Shuts the daemon down and waits for its accept loop to end.
    fn drop(&mut self) {
        self.client = None;
        if let Ok(mut client) = ServeClient::connect(&self.addr) {
            let _ = client.request(&ServeRequest::Shutdown);
        }
        if let Some(thread) = self.server.take() {
            let _ = thread.join();
        }
    }
}

/// A set-up workload: its trace and `.curves` sidecar on disk, and a
/// daemon holding the trace.
pub struct Prepared {
    pub dir: PathBuf,
    pub daemon: Daemon,
    /// Output of the set-up commands that print (`gen`, the sidecar's
    /// `profile`), for the reference digests.
    pub outputs: Vec<(&'static str, Vec<u8>)>,
}

/// Sets a workload up in the empty directory `dir`, as `setup_s` times
/// it: writes the trace (recording or generating it), writes its
/// `.curves` sidecar with `compmem profile`, starts the daemon and
/// uploads the trace.
pub fn setup(workload: &Workload, dir: &Path) -> Result<Prepared, String> {
    let trace_path = dir.join(TRACE_FILE);
    let trace_arg = trace_path.to_string_lossy().into_owned();
    let mut outputs = Vec::new();
    match &workload.source {
        Source::Mpeg2 { params, scale } => {
            let params = *params;
            let experiment = compmem::experiment::Experiment::new(scale.config(), move || {
                mpeg2_app(&params).expect("application parameters are valid")
            });
            let (_, trace) = experiment
                .record_trace(&experiment.shared_spec())
                .map_err(|e| format!("recording MPEG-2 failed: {e}"))?;
            trace
                .trace()
                .write_to(&trace_path)
                .map_err(|e| format!("{trace_arg}: {e}"))?;
        }
        Source::Mix { accesses, seed } => {
            let args: Vec<String> = [
                "--kind",
                "mix",
                "--accesses",
                &accesses.to_string(),
                "--seed",
                &seed.to_string(),
                "--out",
                &trace_arg,
            ]
            .iter()
            .map(|s| s.to_string())
            .collect();
            let mut out = Vec::new();
            cli::dispatch("gen", &args, &mut out)?;
            outputs.push(("gen", out));
        }
    }
    let mut args = vec!["--trace".to_string(), trace_arg];
    args.extend(workload.profile_args());
    let mut out = Vec::new();
    cli::dispatch("profile", &args, &mut out)?;
    outputs.push(("sidecar", out));
    let daemon = Daemon::start(&dir.join("store"), &trace_path)?;
    Ok(Prepared {
        dir: dir.to_path_buf(),
        daemon,
        outputs,
    })
}

impl Prepared {
    /// Makes the daemon decode the trace and write the store's own
    /// sidecar: one `profile` request, answered from its worker pool.
    /// Not part of `setup_s`; hits are measured after it.
    pub fn warm_daemon(&mut self, workload: &Workload) -> Result<(), String> {
        let (_, verb, args) = workload.hit_rotation().swap_remove(0);
        self.daemon.command(verb, &args).map(drop)
    }
}
