//! Summary statistics and the run manifest.

use std::path::Path;
use std::process::Command;

use anton_obs::Json;

/// Median of a non-empty sample.
pub fn median(v: &[f64]) -> f64 {
    quartiles(v).1
}

/// First quartile, median and third quartile, by the "exclusive" method
/// of Python's `statistics.quantiles(v, n=4)`. A single value is its own
/// quartiles.
pub fn quartiles(v: &[f64]) -> (f64, f64, f64) {
    assert!(!v.is_empty(), "quartiles of an empty sample");
    let mut d = v.to_vec();
    d.sort_by(f64::total_cmp);
    let n = d.len();
    if n == 1 {
        return (d[0], d[0], d[0]);
    }
    let q = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

/// `{median, q1, q3, n, unit}` of a sample.
pub fn summary(v: &[f64], unit: &str) -> Json {
    let (q1, med, q3) = quartiles(v);
    Json::obj([
        ("median", Json::from(med)),
        ("q1", Json::from(q1)),
        ("q3", Json::from(q3)),
        ("n", Json::from(v.len() as u64)),
        ("unit", Json::from(unit)),
    ])
}

/// Where and what was measured: the code revision, the seed, and the
/// host. No number here is compared against another host's.
pub fn manifest(workload: &str, seed: u64, seconds: u64, trace: bool) -> Json {
    let cmd = |prog: &str, args: &[&str]| {
        Command::new(prog)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unavailable".to_string())
    };
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|r| r.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unavailable".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    Json::obj([
        ("workload", Json::from(workload)),
        ("seed", Json::from(seed)),
        ("seconds", Json::from(seconds)),
        ("trace", Json::from(trace)),
        (
            "git_rev",
            Json::from(cmd("git", &["--git-dir=.git", "rev-parse", "HEAD"])),
        ),
        ("source_digest", Json::from(source_digest())),
        ("nproc", Json::from(nproc)),
        ("cpu_model", Json::from(cpu)),
        ("rustc", Json::from(cmd("rustc", &["--version"]))),
        (
            "profile",
            Json::from(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
    ])
}

/// Hash of the simulator's sources and the benchmark's own, so a run in
/// a checkout without git history still names the code it measured.
fn source_digest() -> String {
    let mut files = Vec::new();
    for root in ["Cargo.toml", "Cargo.lock", "crates", "perfbench/src"] {
        collect(Path::new(root), &mut files);
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        let Ok(bytes) = std::fs::read(f) else {
            continue;
        };
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{h:016x} ({} files)", files.len())
}

fn collect(path: &Path, out: &mut Vec<std::path::PathBuf>) {
    if path.is_file() {
        out.push(path.to_path_buf());
    } else if let Ok(entries) = std::fs::read_dir(path) {
        for e in entries.flatten() {
            if e.file_name() != "target" {
                collect(&e.path(), out);
            }
        }
    }
}

/// This process's resident-set high-water mark in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|r| r.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
