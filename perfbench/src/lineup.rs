//! `lineup_warm`: every stream the lineup needs is recorded in set-up,
//! then passes of the pure-stats experiments run on that warm context
//! through `run_experiment`, with no DAG — policy kernels, the
//! annotation pre-pass and shard merging do almost all the work.

use std::time::Instant;

use llc_sharing::{run_experiment, ExperimentCtx, ExperimentId};
use llc_trace::App;

use crate::stat::{self, Rng};
use crate::{host, Args, Report};

/// The apps whose streams set-up records, before the seeded shuffle.
pub const APPS: [App; 2] = [App::Canneal, App::Fft];

/// One pass, before the seeded shuffle.
pub const EXPERIMENTS: [ExperimentId; 5] = [
    ExperimentId::Fig5,
    ExperimentId::Fig7,
    ExperimentId::Fig8,
    ExperimentId::Abl1,
    ExperimentId::Abl3,
];

/// The context `repro --ctx quick --apps <apps>` builds, with the same
/// stream-cache cap.
fn quick_ctx(apps: &[App]) -> Result<ExperimentCtx, String> {
    let names: Vec<&str> = apps.iter().map(|a| a.label()).collect();
    let args = ["--ctx", "quick", "--apps", &names.join(","), "fig5"];
    llc_bench::parse_cli(args.iter().map(|s| s.to_string()))
        .map(|cli| cli.ctx)
        .map_err(|e| e.to_string())
}

/// Records every (app, LLC capacity) stream into a fresh context and
/// returns it warm, with the seconds that took.
pub fn warm_ctx(apps: &[App]) -> Result<(ExperimentCtx, f64), String> {
    let ctx = quick_ctx(apps)?;
    let start = Instant::now();
    for &app in apps {
        for &cap in &ctx.llc_capacities {
            let config = ctx.config(cap).map_err(|e| e.to_string())?;
            ctx.stream(app, &config).map_err(|e| e.to_string())?;
        }
    }
    Ok((ctx, start.elapsed().as_secs_f64()))
}

/// Runs one pass in `order`, checking each experiment's tables; returns
/// the pass's wall seconds and CPU seconds of this process.
pub fn pass(ctx: &ExperimentCtx, order: &[ExperimentId], report: &mut Report) -> (f64, f64) {
    let cpu0 = host::cpu_s("self").unwrap_or(f64::NAN);
    let start = Instant::now();
    for &id in order {
        let ok = match run_experiment(id, ctx) {
            Ok(tables) => report.check(&format!("lineup {id}"), stat::tables_digest(&tables)),
            Err(e) => {
                eprintln!("lineup {id}: {e}");
                false
            }
        };
        report.op(ok);
    }
    let wall = start.elapsed().as_secs_f64();
    (wall, host::cpu_s("self").unwrap_or(f64::NAN) - cpu0)
}

/// Runs the workload: a timed set-up whose context every pass uses, then
/// passes for about `--seconds` (at least three), each followed by one
/// more timed set-up into a context that is dropped, so set-up is
/// sampled across the same host periods as the passes.
pub fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    let mut rng = Rng::new(args.seed, 2);
    let mut apps = APPS.to_vec();
    rng.shuffle(&mut apps);
    let start = Instant::now();
    let (ctx, first) = warm_ctx(&apps)?;
    let mut setups = vec![first];
    let (mut walls, mut cpus) = (Vec::new(), Vec::new());
    loop {
        let mut order = EXPERIMENTS.to_vec();
        rng.shuffle(&mut order);
        report.ref_ms.push(host::ref_ms());
        let (wall, cpu) = pass(&ctx, &order, report);
        walls.push(wall);
        cpus.push(cpu);
        let (spare, secs) = warm_ctx(&apps)?;
        drop(spare);
        setups.push(secs);
        // Stop at the unit boundary nearest to `--seconds`.
        let unit = stat::median(&walls) + stat::median(&setups);
        if walls.len() >= 3 && start.elapsed().as_secs_f64() + unit / 2.0 > args.seconds {
            break;
        }
    }
    report.samples("pass_wall_s", &walls);
    report.samples("setup_s", &setups);
    report.metric("wall_s", stat::median(&walls), "s");
    report.metric("cpu_s", stat::median(&cpus), "s");
    report.metric(
        "peak_rss_mb",
        host::peak_rss_mb("self").unwrap_or(f64::NAN),
        "MiB",
    );
    report.metric("setup_s", stat::median(&setups), "s");
    report.metric(
        "jobs_per_s",
        (walls.len() * EXPERIMENTS.len()) as f64 / walls.iter().sum::<f64>(),
        "1/s",
    );
    Ok(())
}
