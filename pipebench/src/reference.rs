//! The reference kernel: fixed work, independent of compmem, that the
//! benchmark runs between the one-shot commands to gauge how fast the
//! host's memory system is at that moment.
//!
//! On a shared host the one-shot commands slow down by up to half when
//! other guests load the memory system, and a slowdown can last minutes,
//! so the median of a run moves with it. The kernel is shaped like the
//! commands' bulk (decode into fresh memory, then an L1-filter-like pass
//! over it) and slows down with them, though by less; a command's time
//! divided by the kernel's, both medians over the same run, cancels part
//! of the host's state. No change to compmem changes the kernel, so such
//! a change moves the ratio as it moves the command.

use std::process::Command;

use crate::util::cpu_seconds_children;

/// Records the kernel writes (24 bytes each: 288 MB of fresh memory).
const RECORDS: usize = 12_000_000;
/// Passes over the records through the tag array.
const PASSES: u64 = 6;
/// What the kernel prints; a unit test recomputes it.
const CHECKSUM: u64 = 16_609_302;

/// The kernel: writes `RECORDS` pseudo-random address records into fresh
/// memory, streams them `PASSES` times through a 512-set, 8-way LRU tag
/// array, and returns the misses.
fn kernel() -> u64 {
    let mut records: Vec<[u64; 3]> = Vec::with_capacity(RECORDS);
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut addr: u64 = 0;
    for i in 0..RECORDS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        addr = if x.is_multiple_of(8) {
            x & 0xff_ffff
        } else {
            addr + 8
        };
        records.push([addr, i as u64, x]);
    }
    let mut tags = vec![u64::MAX; 512 * 8];
    let mut misses = 0u64;
    for pass in 0..PASSES {
        for record in std::hint::black_box(&records) {
            let line = (record[0] >> 6) ^ pass;
            let set = (line as usize & 511) * 8;
            let ways = &mut tags[set..set + 8];
            if let Some(way) = ways.iter().position(|&t| t == line) {
                ways[..=way].rotate_right(1);
            } else {
                misses += 1;
                ways.rotate_right(1);
                ways[0] = line;
            }
        }
    }
    misses
}

/// The child side of [`run`]: runs the kernel and prints its checksum.
pub fn child() -> std::process::ExitCode {
    println!("{}", kernel());
    std::process::ExitCode::SUCCESS
}

/// Runs the kernel as its own process, like a one-shot command; returns
/// its CPU seconds from start to exit.
///
/// # Errors
///
/// A message when the process fails or prints a wrong checksum.
pub fn run() -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let before = cpu_seconds_children();
    let output = Command::new(exe)
        .arg("reference")
        .output()
        .map_err(|e| format!("cannot spawn the reference kernel: {e}"))?;
    let cpu_seconds = cpu_seconds_children() - before;
    let printed = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() || printed.trim() != CHECKSUM.to_string() {
        return Err(format!(
            "the reference kernel failed ({}) or printed `{}`, not {CHECKSUM}",
            output.status,
            printed.trim()
        ));
    }
    Ok(cpu_seconds)
}

#[cfg(test)]
mod tests {
    #[test]
    fn kernel_prints_its_checksum() {
        assert_eq!(super::kernel(), super::CHECKSUM);
    }
}
