//! Host calibration: what the machine was while the numbers were taken.

use std::fs;

/// Logical CPUs this process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Size in bytes of the last-level cache CPU 0 sees, from
/// `/sys/devices/system/cpu/cpu0/cache` (0 when unreadable).
pub fn llc_bytes() -> u64 {
    let base = "/sys/devices/system/cpu/cpu0/cache";
    let mut best = (0u32, 0u64);
    for idx in 0..8 {
        let read = |f: &str| fs::read_to_string(format!("{base}/index{idx}/{f}")).ok();
        let (Some(level), Some(size)) = (read("level"), read("size")) else { continue };
        let level: u32 = level.trim().parse().unwrap_or(0);
        let size = size.trim();
        let (digits, mult) = match size.chars().last() {
            Some('K') => (&size[..size.len() - 1], 1u64 << 10),
            Some('M') => (&size[..size.len() - 1], 1 << 20),
            _ => (size, 1),
        };
        let bytes = digits.parse::<u64>().unwrap_or(0) * mult;
        if level > best.0 || (level == best.0 && bytes > best.1) {
            best = (level, bytes);
        }
    }
    best.1
}

/// Process peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Cumulative (steal, total) CPU ticks from `/proc/stat`: time the
/// hypervisor ran someone else while this guest wanted the CPU.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
    let Some(line) = stat.lines().next() else { return (0, 0) };
    let v: Vec<u64> = line.split_whitespace().skip(1).filter_map(|x| x.parse().ok()).collect();
    let steal = v.get(7).copied().unwrap_or(0);
    (steal, v.iter().take(8).sum())
}

/// The source revision, when the benchmark runs inside a git checkout.
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".to_string())
}
