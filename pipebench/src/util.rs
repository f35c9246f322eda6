//! Small helpers: statistics, digests, CPU clocks, process memory and the
//! result line.

use std::fmt::Write as _;

/// Median of a non-empty sample (mean of the middle pair for even sizes).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile (`p` in 0..=1) of a non-empty sample: with
/// 100 samples, p90 is the 90th smallest and ten samples lie beyond it.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// 64-bit FNV-1a, the digest the reference file records per output.
pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// A `VmRSS`/`VmHWM`-style field of `/proc/self/status`, in KiB; `None`
/// off Linux.
pub fn proc_status_kb(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(field)?.strip_prefix(':')?;
        rest.trim().trim_end_matches("kB").trim().parse().ok()
    })
}

/// CPU time (user + system, every thread) this process has used, in
/// seconds. Unlike wall time it leaves out time the host withheld the CPU
/// (steal on a shared virtual machine) and time spent waiting to run.
/// The FFI layouts are those of 64-bit Linux, the benchmark's platform.
pub fn cpu_seconds_self() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut now = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `now` is a live, writable timespec with the C layout of
    // 64-bit Linux, and the clock id is a valid constant.
    let status = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut now) };
    assert_eq!(status, 0, "the process CPU clock is always readable");
    now.tv_sec as f64 + now.tv_nsec as f64 * 1e-9
}

/// CPU time (user + system) used by every child process this process has
/// waited for, in seconds: start-up, the work and the exit of each.
pub fn cpu_seconds_children() -> f64 {
    #[repr(C)]
    struct Timeval {
        tv_sec: i64,
        tv_usec: i64,
    }
    #[repr(C)]
    struct Rusage {
        utime: Timeval,
        stime: Timeval,
        rest: [i64; 14],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_CHILDREN: i32 = -1;
    let mut usage = Rusage {
        utime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        stime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        rest: [0; 14],
    };
    // SAFETY: `usage` is a live, writable rusage with the C layout of
    // 64-bit Linux, and RUSAGE_CHILDREN is a valid `who`.
    let status = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    assert_eq!(status, 0, "getrusage(RUSAGE_CHILDREN) cannot fail");
    let seconds = |t: &Timeval| t.tv_sec as f64 + t.tv_usec as f64 * 1e-6;
    seconds(&usage.utime) + seconds(&usage.stime)
}

/// Drops every line that names a curve sidecar: the one-shot CLI and the
/// daemon keep sidecars at different paths, and that line is the only
/// place where their outputs may differ.
pub fn strip_sidecar_lines(bytes: &[u8]) -> Vec<u8> {
    let text = String::from_utf8_lossy(bytes);
    text.split_inclusive('\n')
        .filter(|line| !line.contains(".curves"))
        .collect::<String>()
        .into_bytes()
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// The metrics of one run, in emission order.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }
}

/// The single JSON line the benchmark ends with.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut json = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.0.iter().enumerate() {
        // JSON has no NaN or infinity; a metric that cannot be computed
        // is reported as -1 (and the run is already marked failed).
        let value = if m.value.is_finite() { m.value } else { -1.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    json.push_str("}}");
    json
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_leaves_ten_samples_beyond_p90_of_100() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&values, 0.9), 90.0);
        assert_eq!(percentile(&values, 0.5), 50.0);
        assert_eq!(median(&values), 50.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn sidecar_lines_are_the_only_ones_stripped() {
        let out = b"reusing persisted curves from a/b.curves (skipped)\nprofiled 3\n";
        assert_eq!(strip_sidecar_lines(out), b"profiled 3\n");
    }

    #[test]
    fn result_line_is_json_shaped() {
        let mut metrics = Metrics::default();
        metrics.push("setup_s", 1.25, "s");
        metrics.push("bad", f64::NAN, "s");
        assert_eq!(
            result_line(true, 3, 0, &metrics),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}, \
             \"bad\": {\"value\": -1, \"unit\": \"s\"}}}"
        );
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn cpu_clocks_count_work() {
        let (own, children) = (cpu_seconds_self(), cpu_seconds_children());
        let spin = std::time::Instant::now();
        while spin.elapsed().as_millis() < 50 {
            std::hint::black_box(0u64);
        }
        std::process::Command::new("true")
            .status()
            .expect("`true` runs");
        assert!(cpu_seconds_self() - own >= 0.04);
        assert!(cpu_seconds_children() >= children);
    }
}
