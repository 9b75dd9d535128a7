//! Process and host readings from `/proc`: peak resident memory (with a
//! reset, so each workload gets its own high-water mark), CPU time, core
//! count and load average.

use std::fs;

/// Kernel clock ticks per second for `/proc/self/stat` times. `USER_HZ` is
/// fixed at 100 on every Linux architecture this runs on.
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// Reset the peak-RSS high-water mark (`VmHWM`) to the current RSS.
/// `getrusage`'s `ru_maxrss` only grows, so it cannot tell one workload's
/// peak from an earlier one's in the same process.
pub fn reset_peak_rss() -> std::io::Result<()> {
    fs::write("/proc/self/clear_refs", "5")
}

/// Peak resident memory since the last reset, in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// User plus system CPU seconds of this process, all threads (exited
/// ones included).
pub fn cpu_s() -> Option<f64> {
    let stat = fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / CLOCK_TICKS_PER_S)
}

/// CPU seconds used since the `cpu_s()` reading `start` (NaN when
/// `/proc` cannot be read).
pub fn cpu_since(start: Option<f64>) -> f64 {
    start.zip(cpu_s()).map_or(f64::NAN, |(a, b)| b - a)
}

/// Cores this process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The 1-, 5- and 15-minute load averages, as the kernel prints them.
pub fn loadavg() -> String {
    fs::read_to_string("/proc/loadavg")
        .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
        .unwrap_or_else(|_| "unknown".to_string())
}
