//! End-to-end and per-layer benchmark of the sharing-aware LLC
//! reproduction. See `README.md` beside this crate for the workloads,
//! the metric map and how to run it.
//!
//! ```text
//! perfbench --workload lineup_warm|serve_closed
//!           [--seed N] [--seconds S] [--trace 0|1]
//!           [--work-dir DIR]
//! ```
//!
//! The last line of standard output is the result object; the line
//! before it carries the host metadata and sample counts.

mod batch;
mod host;
mod layers;
mod lineup;
mod serve;
mod stat;

use std::collections::HashMap;
use std::path::PathBuf;

use llc_sharing::json::Value;

/// Golden output digests recorded at the parent commit (`key hex` lines).
const GOLDEN: &str = include_str!("../golden.txt");

/// The workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    LineupWarm,
    ServeClosed,
}

/// Parsed command line.
#[derive(Debug)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub work_dir: PathBuf,
}

/// End-to-end metrics, reported by every untraced run.
const END_TO_END: [&str; 5] = ["wall_s", "cpu_s", "peak_rss_mb", "setup_s", "jobs_per_s"];

/// Per-layer metrics, reported by every traced run.
const PER_LAYER: [&str; 46] = [
    "experiment.fig1_s",
    "experiment.fig5_s",
    "experiment.fig7_s",
    "experiment.fig8_s",
    "experiment.fig9_s",
    "experiment.abl2_s",
    "suite.threads_peak",
    "suite.cpu_per_wall",
    "stream_cache.hits",
    "stream_cache.misses",
    "stream_cache.view_loads",
    "trace.gen_ns_per_access",
    "record.ns_per_access",
    "record.llc_refs_per_access",
    "trace.encode_ns_per_ref",
    "trace.view_validate_ns_per_ref",
    "trace.store_save_ms",
    "trace.store_load_ms",
    "annotate.ns_per_ref",
    "replay.ns_per_ref.lru",
    "replay.ns_per_ref.srrip",
    "replay.ns_per_ref.drrip",
    "replay.ns_per_ref.ship",
    "replay.ns_per_ref.opt",
    "replay.ns_per_ref.oracle_lru",
    "serve.healthz_ms",
    "dag.plan_ms",
    "dag.node_hits.stream",
    "dag.node_misses.stream",
    "dag.node_hits.annotations",
    "dag.node_misses.annotations",
    "dag.node_hits.replay",
    "dag.node_misses.replay",
    "serve.submit_ms",
    "serve.queue_wait_ms",
    "serve.run_ms",
    "serve.watch_lag_ms",
    "serve.cold_job_ms",
    "serve.warm_job_ms",
    "serve.dup_job_ms",
    "session.batch_ms",
    "session.batch_server_ms",
    "online.ns_per_access",
    "host.ref_ms",
    "bench.trace_overhead_frac",
    "host.steal_s",
];

/// What one run counted and measured.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub ref_ms: Vec<f64>,
    metrics: Vec<(String, f64, &'static str)>,
    samples: Vec<(String, Vec<f64>)>,
    summary: Vec<(String, Value)>,
    golden: HashMap<String, u64>,
}

impl Report {
    fn new() -> Report {
        let golden = GOLDEN
            .lines()
            .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
            .filter_map(|l| {
                let (key, hex) = l.rsplit_once(' ')?;
                Some((key.to_string(), u64::from_str_radix(hex, 16).ok()?))
            })
            .collect();
        Report {
            attempted: 0,
            failed: 0,
            ref_ms: Vec::new(),
            metrics: Vec::new(),
            samples: Vec::new(),
            summary: Vec::new(),
            golden,
        }
    }

    /// Counts one operation.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Checks an output digest against the golden digest for `key`, so
    /// every unit of a run also matches the run's first unit. A
    /// mismatch prints the digest found, in `golden.txt`'s format.
    pub fn check(&mut self, key: &str, digest: u64) -> bool {
        let ok = self.golden.get(key) == Some(&digest);
        if !ok {
            eprintln!("output mismatch: {key} {digest:016x}");
        }
        ok
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Records the per-unit values behind a median, so the result
    /// record states each sample count and the spread within the run.
    pub fn samples(&mut self, name: &str, values: &[f64]) {
        self.samples.push((name.to_string(), values.to_vec()));
    }

    /// Adds a derived figure to the result record.
    pub fn summary(&mut self, name: &str, value: Value) {
        self.summary.push((name.to_string(), value));
    }

    /// Adds the nearest-rank `p`-quantile of `values` to the result
    /// record with its sample count, but only if at least ten samples
    /// lie beyond it.
    pub fn percentile(&mut self, name: &str, values: &[f64], p: f64) {
        let n = values.len();
        if (n as f64 * (1.0 - p)) < 10.0 {
            return;
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let value = sorted[(n as f64 * p).ceil() as usize - 1];
        let doc = Value::object(vec![
            ("value", Value::Num(value)),
            ("samples", Value::Num(n as f64)),
        ]);
        self.summary(name, doc);
    }
}

fn usage() -> String {
    "usage: perfbench --workload lineup_warm|serve_closed [--seed N] \
     [--seconds S] [--trace 0|1] [--work-dir DIR]"
        .to_string()
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::LineupWarm,
        seed: 1,
        seconds: 45.0,
        trace: false,
        work_dir: PathBuf::from(".bench_build/perfbench-work"),
    };
    let mut workload = None;
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "lineup_warm" => Workload::LineupWarm,
                    "serve_closed" => Workload::ServeClosed,
                    _ => return Err(bad()),
                })
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or_else(bad)?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--work-dir" => args.work_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}\n{}", usage())),
        }
    }
    args.workload = workload.ok_or_else(usage)?;
    Ok(args)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // Child processes re-enter this binary: a suite process or the daemon.
    match argv.first().map(String::as_str) {
        Some("__suite") => std::process::exit(batch::child_main(&argv[1..])),
        Some("__serve") => std::process::exit(serve::child_main(&argv[1..])),
        _ => {}
    }
    let args = match parse_args(argv.into_iter()) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let run_dir = args.work_dir.join(format!("run-{}", std::process::id()));
    let args = Args {
        work_dir: run_dir.clone(),
        ..args
    };
    if let Err(e) = std::fs::create_dir_all(&run_dir) {
        eprintln!("creating {}: {e}", run_dir.display());
        std::process::exit(1);
    }
    let steal0 = host::steal_ticks();
    let mut report = Report::new();
    let outcome = match (args.trace, args.workload) {
        (true, _) => layers::run(&args, &mut report),
        (false, Workload::LineupWarm) => lineup::run(&args, &mut report),
        (false, Workload::ServeClosed) => serve::run(&args, &mut report),
    };
    let steal = host::steal_ticks().saturating_sub(steal0);
    let _ = std::fs::remove_dir_all(&run_dir);
    if let Err(e) = outcome {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
    if args.trace {
        report.metric("host.steal_s", host::ticks_to_s(steal), "s");
    }
    let expected: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    if let Some(missing) = expected
        .iter()
        .find(|m| !report.metrics.iter().any(|(n, _, _)| n == *m))
    {
        eprintln!("perfbench: metric {missing} was not measured");
        std::process::exit(1);
    }
    if let Some((name, value, _)) = report.metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        eprintln!("perfbench: metric {name} is {value}");
        std::process::exit(1);
    }

    let cwd = std::env::current_dir().unwrap_or_default();
    let meta = Value::object(vec![(
        "perfbench",
        Value::object(vec![
            ("workload", Value::Str(format!("{:?}", args.workload))),
            ("seed", Value::Num(args.seed as f64)),
            ("trace", Value::Bool(args.trace)),
            (
                "samples",
                Value::Object(
                    report
                        .samples
                        .iter()
                        .map(|(k, v)| {
                            (
                                k.clone(),
                                Value::Array(v.iter().map(|&x| Value::Num(x)).collect()),
                            )
                        })
                        .collect(),
                ),
            ),
            ("summary", Value::Object(report.summary.clone())),
            ("host", host::metadata(&cwd, steal, &report.ref_ms)),
        ]),
    )]);
    println!("{}", meta.render());
    let metrics = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            (
                name.clone(),
                Value::object(vec![
                    ("value", Value::Num(*value)),
                    ("unit", Value::Str(unit.to_string())),
                ]),
            )
        })
        .collect();
    let result = Value::object(vec![
        ("correct", Value::Bool(report.failed == 0)),
        ("attempted", Value::Num(report.attempted as f64)),
        ("failed", Value::Num(report.failed as f64)),
        ("metrics", Value::Object(metrics)),
    ]);
    println!("{}", result.render());
}
