//! `perfbench` — the repository's closed-loop benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload p9-seq-1024 --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Run from the repository root.
//! Prints every metric with its unit and sample count, the output checks,
//! a host calibration block, and as its last line one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports
//! the end-to-end metrics of an untraced run; `--trace 1` a separate
//! traced run's per-layer metrics. See `perfbench/README.md`.

mod host;
mod native;
mod stats;
mod workloads;

use workloads::{Report, Settings, WORKLOADS};

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<(String, Settings), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut s = Settings { seed: 1, seconds: 10.0, trace: false };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => s.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => s.seconds = value.parse::<f64>().map_err(|_| bad())?,
            "--trace" => {
                s.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(s.seconds > 0.0 && s.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; choose one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok((workload, s))
}

/// Render a metric value with every digit it has.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// The host calibration block, one JSON line.
fn host_block(workload: &str, r: &Report, steal: (u64, u64), peak_rss: f64) -> String {
    let nproc = host::nproc();
    let llc = host::llc_bytes();
    let fits = r.working_set < llc;
    let note = if fits {
        "no workload is a bandwidth measurement: every working set fits the last-level cache"
    } else {
        "this working set exceeds the last-level cache"
    };
    format!(
        "host {{\"workload\": {}, \"nproc\": {nproc}, \"llc_bytes\": {llc}, \
         \"working_set_bytes\": {}, \"native_ms_p50\": {}, \"memcpy_gbps\": {}, \
         \"steal_pct\": {}, \"peak_rss_mib\": {}, \"git_rev\": {}, \"note\": {}}}",
        json_str(workload),
        r.working_set,
        num(r.native_ms),
        num(native::memcpy_gbps(64, 5)),
        num(100.0 * steal.0 as f64 / steal.1.max(1) as f64),
        num(peak_rss),
        json_str(&host::git_rev()),
        json_str(note),
    )
}

fn main() {
    let (workload, settings) = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let ticks0 = host::cpu_ticks();
    let report = match workloads::run(&workload, &settings) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    let ticks1 = host::cpu_ticks();
    let steal = (ticks1.0 - ticks0.0, ticks1.1 - ticks0.1);
    for line in &report.lines {
        println!("{line}");
    }
    for m in &report.metrics {
        println!("metric {} = {} {} (n={})", m.name, num(m.value), m.unit, m.samples);
    }
    println!("operations: attempted {}, failed {}", report.attempted, report.failed);
    // Read before the memcpy probe in the host block allocates.
    let peak_rss = host::peak_rss_mib();
    println!("{}", host_block(&workload, &report, steal, peak_rss));
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
}
