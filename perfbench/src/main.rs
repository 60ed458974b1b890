//! The repository benchmark: host cost (set-up and run wall time, memory)
//! of the simulations the paper's experiments run, with every output
//! checked.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig9_iw_k4 --seed 1 --seconds 10 --trace 0
//! ```
//!
//! One invocation measures one workload for `--seconds` (`--workload all`
//! measures each in turn, printing each one's two lines). Each sample —
//! set up, run and check one simulation — runs in a child process of its
//! own, so its peak RSS is that process's high-water mark. `--trace 0`
//! prints the end-to-end metrics; `--trace 1` alternates traced and
//! untraced samples and prints the per-layer metrics. The last stdout line
//! is the result object; the line before it the full report (manifest,
//! quartiles and sample counts, failures). See `perfbench/README.md`.

mod cores;
mod report;
mod workload;

use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use anton_obs::Json;

use report::{median, summary};
use workload::{Mode, Sample, Workload};

const USAGE: &str =
    "usage: perfbench --workload <fig9_iw_k4|uniform_k8_sharded|pingpong_k8|fault_k8|all> \
                     --seed <n> --seconds <n> --trace <0|1> [--corrupt <sample index>]";

/// Samples of each mode an invocation takes even past `--seconds`.
const MIN_SAMPLES: usize = 3;
/// An invocation starts no new sample after this many seconds.
const HARD_STOP_S: f64 = 120.0;

/// A metric's value in one sample.
type Column = fn(&Sample) -> f64;

/// End-to-end metrics: name, unit, and the per-sample value the run
/// reports the median of.
const END_TO_END: [(&str, &str, Column); 8] = [
    ("setup_s", "s", |s| s.setup_s),
    ("wall_s", "s", |s| s.wall_s),
    ("sim_cycles_per_s", "1/s", |s| s.cycles as f64 / s.run_s),
    ("peak_rss_mb", "MB", |s| s.peak_rss_mb),
    ("sim_throughput", "ratio", |s| s.sim_throughput),
    ("sim_latency_p50_cycles", "cycles", |s| s.latency_p50 as f64),
    ("sim_latency_p99_cycles", "cycles", |s| s.latency_p99 as f64),
    ("sim_one_way_ns", "ns", |s| s.one_way_ns),
];

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Set in a child process: run one sample in this mode.
    child: Option<Mode>,
    /// Sample index whose output is deliberately corrupted.
    corrupt: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut workloads = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let (mut child, mut corrupt) = (None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" if value == "all" => workloads = Some(Workload::ALL.to_vec()),
            "--workload" => {
                let w = Workload::parse(&value).ok_or(format!("unknown workload {value}"))?;
                workloads = Some(vec![w]);
            }
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                })
            }
            "--child" => child = Some(Mode::parse(&value).ok_or(format!("unknown mode {value}"))?),
            "--corrupt" => corrupt = Some(num()? as usize),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workloads: workloads.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
        child,
        corrupt,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match (args.child, args.workloads.as_slice()) {
        (Some(mode), &[w]) => child(&args, w, mode),
        (Some(_), _) => {
            eprintln!("perfbench: a sample runs exactly one workload\n{USAGE}");
            ExitCode::from(2)
        }
        (None, workloads) => {
            let failed = workloads
                .iter()
                .filter(|&&w| !orchestrate(&args, w))
                .count();
            if failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
    }
}

/// One sample, printed as one JSON line.
fn child(args: &Args, w: Workload, mode: Mode) -> ExitCode {
    let line = match workload::sample(w, args.seed, mode, args.corrupt.is_some()) {
        Ok(mut s) => {
            s.peak_rss_mb = report::peak_rss_mb();
            sample_to_json(&s)
        }
        Err(e) => Json::obj([("error", Json::from(e))]),
    };
    println!("{}", one_line(&line));
    ExitCode::SUCCESS
}

fn sample_to_json(s: &Sample) -> Json {
    let layers = s.layers.iter().map(|(k, v)| (k.clone(), Json::from(*v)));
    Json::obj([
        ("setup_s", Json::from(s.setup_s)),
        ("run_s", Json::from(s.run_s)),
        ("wall_s", Json::from(s.wall_s)),
        ("peak_rss_mb", Json::from(s.peak_rss_mb)),
        ("cycles", Json::from(s.cycles)),
        ("fingerprint", Json::from(format!("{:016x}", s.fingerprint))),
        ("sim_throughput", Json::from(s.sim_throughput)),
        ("latency_p50", Json::from(s.latency_p50)),
        ("latency_p99", Json::from(s.latency_p99)),
        ("tail_pct", Json::from(s.tail_pct)),
        ("tail_cycles", Json::from(s.tail_cycles)),
        ("one_way_ns", Json::from(s.one_way_ns)),
        ("layers", Json::Obj(layers.collect())),
    ])
}

fn sample_from_json(j: &Json) -> Result<Sample, String> {
    if let Some(e) = j.get("error").and_then(Json::as_str) {
        return Err(format!("failed its check: {e}"));
    }
    let f = |k: &str| {
        j.get(k)
            .and_then(Json::as_f64)
            .ok_or(format!("output lacks {k}"))
    };
    let u = |k: &str| {
        j.get(k)
            .and_then(Json::as_u64)
            .ok_or(format!("output lacks {k}"))
    };
    let fingerprint = j
        .get("fingerprint")
        .and_then(Json::as_str)
        .and_then(|h| u64::from_str_radix(h, 16).ok())
        .ok_or("output lacks a fingerprint")?;
    let layers = j
        .get("layers")
        .and_then(Json::as_obj)
        .unwrap_or(&[])
        .iter()
        .map(|(k, v)| {
            Ok((
                k.clone(),
                v.as_f64().ok_or(format!("layer {k} is not a number"))?,
            ))
        })
        .collect::<Result<_, String>>()?;
    Ok(Sample {
        setup_s: f("setup_s")?,
        run_s: f("run_s")?,
        wall_s: f("wall_s")?,
        peak_rss_mb: f("peak_rss_mb")?,
        cycles: u("cycles")?,
        fingerprint,
        sim_throughput: f("sim_throughput")?,
        latency_p50: u("latency_p50")?,
        latency_p99: u("latency_p99")?,
        tail_pct: f("tail_pct")?,
        tail_cycles: u("tail_cycles")?,
        one_way_ns: f("one_way_ns")?,
        layers,
    })
}

/// Runs one sample in a child process and reads back its line.
fn spawn(args: &Args, w: Workload, mode: Mode, index: usize) -> Result<Sample, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--child", mode.name()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if args.corrupt == Some(index) {
        cmd.args(["--corrupt", &index.to_string()]);
    }
    let out = cmd.output().map_err(|e| format!("spawn: {e}"))?;
    if !out.status.success() {
        return Err(format!("exited with {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text.lines().last().ok_or("printed nothing")?;
    sample_from_json(&Json::parse(line).map_err(|e| e.to_string())?)
}

/// Measures one workload and prints its report and result lines; `false`
/// when no sample passed its checks.
fn orchestrate(args: &Args, w: Workload) -> bool {
    let t0 = Instant::now();
    let mut attempted = 0usize;
    let mut failures: Vec<String> = Vec::new();
    let mut untraced: Vec<Sample> = Vec::new();
    let mut traced: Vec<Sample> = Vec::new();
    let mut expected_fp: Option<u64> = None;

    // The sharded kernel must reproduce the serial kernel's statistics
    // for the same seed: a serial run first sets the expected fingerprint.
    let lead: &[Mode] = if w.shards() > 1 {
        &[Mode::SerialReference]
    } else {
        &[]
    };
    let cycle: &[Mode] = if args.trace {
        &[Mode::Traced, Mode::Untraced]
    } else {
        &[Mode::Untraced]
    };
    for index in 0.. {
        let mode = lead
            .get(index)
            .copied()
            .unwrap_or_else(|| cycle[(index - lead.len()) % cycle.len()]);
        attempted += 1;
        match spawn(args, w, mode, index) {
            Ok(s) => {
                let fp = *expected_fp.get_or_insert(s.fingerprint);
                if fp != s.fingerprint {
                    failures.push(format!(
                        "sample {index} ({}): simulated statistics differ from the first \
                         run of this seed (fingerprint {:016x} vs {fp:016x})",
                        mode.name(),
                        s.fingerprint
                    ));
                } else if mode == Mode::Traced {
                    traced.push(s);
                } else if mode == Mode::Untraced {
                    untraced.push(s);
                }
            }
            Err(e) => failures.push(format!("sample {index} ({}): {e}", mode.name())),
        }
        let elapsed = t0.elapsed().as_secs_f64();
        let enough = untraced.len() >= MIN_SAMPLES && (!args.trace || traced.len() >= MIN_SAMPLES);
        let failing = attempted >= 4 && failures.len() * 2 > attempted;
        if (elapsed >= args.seconds as f64 && enough) || elapsed >= HARD_STOP_S || failing {
            break;
        }
    }
    if untraced.is_empty() || (args.trace && traced.is_empty()) {
        eprintln!("perfbench: no {} sample passed its checks:", w.name());
        for f in &failures {
            eprintln!("  {f}");
        }
        return false;
    }

    let mut metrics: Vec<(String, &str, Vec<f64>)> = Vec::new();
    if args.trace {
        per_layer_metrics(
            args,
            &traced,
            &untraced,
            &mut metrics,
            &mut failures,
            &mut attempted,
        );
    } else {
        for (name, unit, column) in END_TO_END {
            metrics.push((
                name.to_string(),
                unit,
                untraced.iter().map(column).collect(),
            ));
        }
    }

    let first = &untraced[0];
    let report = Json::obj([
        (
            "manifest",
            report::manifest(w.name(), args.seed, args.seconds, args.trace),
        ),
        (
            "metrics",
            Json::Obj(
                metrics
                    .iter()
                    .map(|(n, u, v)| (n.clone(), summary(v, u)))
                    .collect(),
            ),
        ),
        (
            "latency_tail",
            Json::obj([
                ("percentile", Json::from(first.tail_pct)),
                ("cycles", Json::from(first.tail_cycles)),
            ]),
        ),
        ("attempted", Json::from(attempted as u64)),
        ("failed", Json::from(failures.len() as u64)),
        (
            "error_rate",
            Json::from(failures.len() as f64 / attempted as f64),
        ),
        (
            "failures",
            Json::Arr(failures.iter().map(|f| Json::from(f.as_str())).collect()),
        ),
        ("elapsed_s", Json::from(t0.elapsed().as_secs_f64())),
    ]);
    println!("{}", one_line(&report));
    let result = Json::obj([
        ("correct", Json::from(failures.is_empty())),
        ("attempted", Json::from(attempted as u64)),
        ("failed", Json::from(failures.len() as u64)),
        (
            "metrics",
            Json::Obj(
                metrics
                    .iter()
                    .map(|(n, u, v)| {
                        (
                            n.clone(),
                            Json::obj([("value", Json::from(median(v))), ("unit", Json::from(*u))]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{}", one_line(&result));
    true
}

/// A JSON document on one line. Strings are escaped, so every newline
/// of the pretty form is structural.
fn one_line(j: &Json) -> String {
    j.to_pretty_string().lines().map(str::trim_start).collect()
}

/// Unit of a per-layer metric, from its name.
fn layer_unit(name: &str) -> &'static str {
    if name.contains("_ns_per_") {
        "ns"
    } else if name.ends_with("_s") {
        "s"
    } else if name.ends_with("_cycles") || name == "sim.cycles" {
        "cycles"
    } else if name.ends_with("_ratio") || name.ends_with("_overhead") {
        "ratio"
    } else {
        "count"
    }
}

/// Per-layer rows of a traced invocation: medians of the traced samples'
/// layer rows, the two rows that need an untraced run beside the traced
/// one, and the standalone cores.
fn per_layer_metrics(
    args: &Args,
    traced: &[Sample],
    untraced: &[Sample],
    metrics: &mut Vec<(String, &'static str, Vec<f64>)>,
    failures: &mut Vec<String>,
    attempted: &mut usize,
) {
    for (i, (name, _)) in traced[0].layers.iter().enumerate() {
        let values = traced.iter().map(|s| s.layers[i].1).collect();
        metrics.push((name.clone(), layer_unit(name), values));
    }
    let run_u = median(&untraced.iter().map(|s| s.run_s).collect::<Vec<_>>());
    let run_t = median(&traced.iter().map(|s| s.run_s).collect::<Vec<_>>());
    let flit_hops = traced[0]
        .layers
        .iter()
        .find(|(n, _)| n == "sim.flit_hops")
        .map_or(f64::NAN, |(_, v)| *v);
    metrics.push((
        "sim.host_ns_per_flit_hop".into(),
        "ns",
        vec![run_u * 1e9 / flit_hops],
    ));
    metrics.push(("trace.overhead_ratio".into(), "ratio", vec![run_t / run_u]));
    *attempted += 1;
    match cores::rows(args.seed) {
        Ok(rows) => {
            for (name, ns) in rows {
                metrics.push((name, "ns", vec![ns]));
            }
        }
        Err(e) => failures.push(format!("standalone cores: {e}")),
    }
}
