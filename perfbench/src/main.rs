//! perfbench — one benchmark for the whole reproduction.
//!
//! ```text
//! bash perfbench/run.sh \
//!     --workload <sim-train|data-fanin|data-skew65k|plan-serve|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload draws its inputs from the seed, sets up, measures a
//! closed loop for `--seconds`, checks its outputs, and prints a
//! provenance line, a table of every metric with its unit, and, last, one
//! JSON line `{"correct", "attempted", "failed", "metrics"}`. `--trace 0`
//! reports the end-to-end metrics; `--trace 1` splits the window into an
//! untraced and a traced part, reports the per-layer metrics, prints a
//! self-time table, and writes a Chrome trace to `.bench_out/`. The exit
//! code is non-zero when an output check fails. See `perfbench/README.md`
//! for why each workload exists and which layer moves which metric.

mod data_plane;
mod plan_serve;
mod report;
mod sim_train;
mod stats;
mod trace;

use dt_simengine::Json;
use report::{Report, RunCfg, END_TO_END, PER_LAYER};
use std::time::Duration;

const WORKLOADS: &[&str] = &["sim-train", "data-fanin", "data-skew65k", "plan-serve"];
/// Time allowed beyond the measured windows for set-up, checks and
/// teardown; a run that overstays it is stuck and exits without a result.
const WATCHDOG: Duration = Duration::from_secs(120);

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <{}|all> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn main() {
    if cfg!(debug_assertions) {
        eprintln!("perfbench: refusing to measure a debug build; build with --release");
        std::process::exit(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, None);
    for pair in args.chunks(2) {
        let [flag, value] = pair else { usage() };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && *s <= 600.0)
            }
            "--trace" => traced = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            _ => usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) =
        (workload, seed, seconds, traced)
    else {
        usage()
    };
    let selected: Vec<&str> = WORKLOADS
        .iter()
        .copied()
        .filter(|w| workload == "all" || workload == *w)
        .collect();
    if selected.is_empty() {
        usage();
    }
    let out_dir = std::path::PathBuf::from(".bench_out");
    if trace {
        if let Err(e) = std::fs::create_dir_all(&out_dir) {
            eprintln!("perfbench: cannot create {}: {e}", out_dir.display());
            std::process::exit(1);
        }
    }
    let limit = WATCHDOG + Duration::from_secs_f64(seconds) * selected.len() as u32;
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        eprintln!("perfbench: no result after {limit:?}; giving up");
        std::process::exit(3);
    });

    let cfg = RunCfg {
        seed,
        seconds,
        trace,
        out_dir,
    };
    let mut results = Vec::new();
    for name in &selected {
        let mut report = match *name {
            "sim-train" => sim_train::run(&cfg),
            "data-fanin" => data_plane::run_fanin(&cfg),
            "data-skew65k" => data_plane::run_skew(&cfg),
            "plan-serve" => plan_serve::run(&cfg),
            _ => unreachable!("workload names are validated above"),
        };
        report.set("peak_rss_mb", peak_rss_mb());
        print_report(name, &cfg, &report);
        results.push((*name, report));
    }

    let correct = results.iter().all(|(_, r)| r.correct());
    let prefixed = selected.len() > 1;
    let metrics: Vec<(String, Json)> = results
        .iter()
        .flat_map(|(name, r)| {
            let catalog = if trace { PER_LAYER } else { END_TO_END };
            catalog.iter().map(move |(metric, unit)| {
                let key = if prefixed {
                    format!("{name}.{metric}")
                } else {
                    metric.to_string()
                };
                let value = r.get(metric).unwrap_or(0.0);
                // A percentile over failed operations is infinite; JSON
                // cannot carry that, a sentinel far past any limit stands in.
                let value = if value.is_finite() { value } else { 1e9 };
                (
                    key,
                    Json::obj(vec![
                        ("value", Json::Num(value)),
                        ("unit", Json::Str((*unit).into())),
                    ]),
                )
            })
        })
        .collect();
    let line = Json::obj(vec![
        ("correct", Json::Bool(correct)),
        (
            "attempted",
            Json::num_u64(results.iter().map(|(_, r)| r.attempted).sum::<u64>().max(1)),
        ),
        (
            "failed",
            Json::num_u64(results.iter().map(|(_, r)| r.failed).sum()),
        ),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{line}");
    if !correct {
        std::process::exit(1);
    }
}

/// Peak resident set of this process so far (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn print_report(name: &str, cfg: &RunCfg, r: &Report) {
    let mut provenance = vec![
        ("workload", Json::Str(name.into())),
        ("seed", Json::num_u64(cfg.seed)),
        ("seconds", Json::Num(cfg.seconds)),
        ("trace", Json::Bool(cfg.trace)),
        (
            "nproc",
            Json::num_u64(std::thread::available_parallelism().map_or(1, |n| n.get()) as u64),
        ),
        ("rustc", Json::Str(env!("PERFBENCH_RUSTC").into())),
        ("profile", Json::Str("release".into())),
        ("git", Json::Str(dt_telemetry::BUILD_GIT_HASH.into())),
    ];
    provenance.extend(r.notes.iter().map(|(k, v)| (*k, v.clone())));
    println!("provenance {}", Json::obj(provenance));
    for (what, ok) in &r.checks {
        println!("check {} {what}", if *ok { "pass" } else { "FAIL" });
    }
    println!("{name}: attempted {} failed {}", r.attempted, r.failed);
    for (metric, unit, value) in &r.shown {
        println!("  {metric:<36} {value:>16.6} {unit}");
    }
    let catalog = if cfg.trace { PER_LAYER } else { END_TO_END };
    for (metric, unit) in catalog {
        if let Some(value) = r.get(metric) {
            println!("  {metric:<36} {value:>16.6} {unit}");
        }
    }
}
