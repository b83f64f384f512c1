//! The batch suite probe of traced runs: a fresh process runs the suite
//! the way `repro` does, with the CLI's defaults (all cores, no store),
//! so every stream is recorded once and replayed a few times.

use std::io::Read;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use llc_sharing::json::{self, Value};
use llc_sharing::{run_suite, ExperimentOutcome};
use llc_trace::App;

use crate::stat::{self, Rng};
use crate::{host, Report};

/// The suite's apps, before the seeded shuffle: two of the cheaper
/// apps, so one suite process takes seconds, not tens of seconds.
pub const APPS: [App; 2] = [App::Fft, App::Swaptions];

/// The suite's experiments, in the order `repro` is given them.
pub const EXPERIMENTS: [&str; 6] = ["fig1", "fig5", "fig7", "fig8", "fig9", "abl2"];

/// One suite process as seen from outside.
pub struct Unit {
    pub wall_s: f64,
    pub doc: Value,
}

/// The `--apps` list for `seed`: the same apps in a seeded order.
pub fn apps_arg(seed: u64) -> String {
    let mut apps = APPS.to_vec();
    Rng::new(seed, 1).shuffle(&mut apps);
    apps.iter().map(|a| a.label()).collect::<Vec<_>>().join(",")
}

/// Spawns this binary as a suite process and waits for its report.
pub fn spawn_suite(apps: &str, experiments: &[&str], traced: bool) -> Result<Unit, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating own binary: {e}"))?;
    let start = Instant::now();
    let mut child = Command::new(exe)
        .arg("__suite")
        .arg(apps)
        .arg(if traced { "1" } else { "0" })
        .args(experiments)
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawning the suite process: {e}"))?;
    let mut out = String::new();
    let read = child.stdout.take().map(|mut s| s.read_to_string(&mut out));
    let status = child
        .wait()
        .map_err(|e| format!("waiting for the suite process: {e}"))?;
    let wall_s = start.elapsed().as_secs_f64();
    if !status.success() || !matches!(read, Some(Ok(_))) {
        return Err(format!("suite process exited with {status}"));
    }
    let line = out.lines().last().unwrap_or("");
    let doc = json::parse(line).map_err(|e| format!("suite report: {e}"))?;
    Ok(Unit { wall_s, doc })
}

/// Child side (`__suite <apps> <traced> <experiment>...`): builds the
/// run exactly as `repro --ctx quick --apps <apps> <experiments>` does,
/// runs the suite and prints one JSON line with per-experiment digests,
/// elapsed times, CPU, peak RSS, peak thread count and stream-cache
/// counters.
pub fn child_main(args: &[String]) -> i32 {
    let (Some(apps), Some(traced)) = (args.first(), args.get(1)) else {
        eprintln!("usage: perfbench __suite <apps> <0|1> <experiment>...");
        return 2;
    };
    let mut cli_args = vec!["--ctx".to_string(), "quick".into(), "--apps".into()];
    cli_args.push(apps.clone());
    cli_args.extend(args[2..].iter().cloned());
    let cli = match llc_bench::parse_cli(cli_args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let traced = traced == "1";
    if traced {
        llc_telemetry::spans::set_enabled(true);
    }
    let done = AtomicBool::new(false);
    let (report, threads_peak) = std::thread::scope(|s| {
        let sampler = s.spawn(|| {
            let mut peak = 0.0f64;
            while !done.load(Ordering::Relaxed) {
                peak = peak.max(host::threads("self").unwrap_or(0.0));
                std::thread::sleep(Duration::from_millis(5));
            }
            peak
        });
        let report = run_suite(&cli.ids, &cli.ctx, &cli.suite);
        done.store(true, Ordering::Relaxed);
        (report, sampler.join().unwrap_or(0.0))
    });
    if traced {
        // What `repro --trace-out` pays on top of recording spans.
        llc_telemetry::spans::set_enabled(false);
        std::hint::black_box(llc_telemetry::spans::chrome_trace_json());
    }
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            eprintln!("suite: {e}");
            return 1;
        }
    };
    let mut experiments = Vec::new();
    for (id, outcome) in &report.outcomes {
        let fields = match outcome {
            ExperimentOutcome::Completed { tables, elapsed } => vec![
                ("id", Value::Str(id.label().into())),
                (
                    "digest",
                    Value::Str(format!("{:016x}", stat::tables_digest(tables))),
                ),
                ("elapsed_s", Value::Num(elapsed.as_secs_f64())),
            ],
            other => vec![
                ("id", Value::Str(id.label().into())),
                ("error", Value::Str(format!("{other:?}"))),
            ],
        };
        experiments.push(Value::object(fields));
    }
    let cache = cli.ctx.streams.stats();
    let num = |x: f64| Value::Num(x);
    let doc = Value::object(vec![
        ("experiments", Value::Array(experiments)),
        ("cpu_s", num(host::cpu_s("self").unwrap_or(f64::NAN))),
        (
            "peak_rss_mb",
            num(host::peak_rss_mb("self").unwrap_or(f64::NAN)),
        ),
        ("threads_peak", num(threads_peak)),
        ("cache_hits", num(cache.hits as f64)),
        ("cache_misses", num(cache.misses as f64)),
        ("cache_view_loads", num(cache.view_loads as f64)),
    ]);
    println!("{}", doc.render());
    0
}

/// A numeric field of a suite report.
pub fn num(doc: &Value, key: &str) -> f64 {
    match doc.field(key) {
        Some(Value::Num(x)) => *x,
        _ => f64::NAN,
    }
}

/// Checks one suite report against the golden digests, counting each
/// experiment as one operation; returns the per-experiment elapsed
/// times (`NaN` for an experiment that did not complete).
pub fn check_unit(unit: &Unit, report: &mut Report) -> Vec<(&'static str, f64)> {
    let rows = unit
        .doc
        .field("experiments")
        .and_then(Value::as_array)
        .unwrap_or(&[]);
    EXPERIMENTS
        .iter()
        .map(|&id| {
            let row = rows
                .iter()
                .find(|r| r.field("id").and_then(Value::as_str) == Some(id));
            let digest = row
                .and_then(|r| r.field("digest"))
                .and_then(Value::as_str)
                .and_then(|h| u64::from_str_radix(h, 16).ok());
            let ok = digest.is_some_and(|d| report.check(&format!("batch {id}"), d));
            report.op(ok);
            (id, row.map_or(f64::NAN, |r| num(r, "elapsed_s")))
        })
        .collect()
}
