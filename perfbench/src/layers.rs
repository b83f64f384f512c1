//! The traced run: per-layer metrics from calls into each crate's
//! public functions, timed from the benchmark's own code, plus the
//! tracing overhead on the chosen workload. Every traced run reports
//! every layer, whichever workload it was started for.

use std::sync::Arc;
use std::time::Instant;

use llc_dag::{fnv1a64, ReplayDesc};
use llc_policies::{PolicyKind, ProtectMode};
use llc_sharing::{compute_annotations, oracle_window, record_stream, set_host_thread_override};
use llc_sim::HierarchyConfig;
use llc_trace::{App, StreamAccess, StreamStore, StreamView, TraceSource};

use crate::batch::{self, EXPERIMENTS};
use crate::serve::{ClosedLoop, Daemon};
use crate::stat::{median, Rng};
use crate::{host, lineup, Args, Report, Workload};

/// Seconds since `start`.
fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Runs the traced probes and the overhead pair for `args.workload`.
pub fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    let apps = batch::apps_arg(args.seed);
    let mut overhead = None;
    report.ref_ms.push(host::ref_ms());
    let suite = batch::spawn_suite(&apps, &EXPERIMENTS, true)?;
    for (id, elapsed) in batch::check_unit(&suite, report) {
        report.metric(&format!("experiment.{id}_s"), elapsed, "s");
    }
    let cpu = batch::num(&suite.doc, "cpu_s");
    report.metric(
        "suite.threads_peak",
        batch::num(&suite.doc, "threads_peak"),
        "count",
    );
    report.metric("suite.cpu_per_wall", cpu / suite.wall_s, "ratio");
    for key in ["hits", "misses", "view_loads"] {
        let value = batch::num(&suite.doc, &format!("cache_{key}"));
        report.metric(&format!("stream_cache.{key}"), value, "count");
    }

    if args.workload == Workload::LineupWarm {
        let mut order = lineup::EXPERIMENTS.to_vec();
        Rng::new(args.seed, 2).shuffle(&mut order);
        let (ctx, _) = lineup::warm_ctx(&lineup::APPS)?;
        report.ref_ms.push(host::ref_ms());
        let (plain, _) = lineup::pass(&ctx, &order, report);
        llc_telemetry::spans::set_enabled(true);
        report.ref_ms.push(host::ref_ms());
        let (traced, _) = lineup::pass(&ctx, &order, report);
        llc_telemetry::spans::set_enabled(false);
        overhead = Some(traced / plain - 1.0);
    }

    micro(args, report)?;

    let app = App::Fft;
    if args.workload == Workload::ServeClosed {
        let (daemon, _) = Daemon::start(&args.work_dir.join("store-plain"))?;
        let mut plain = ClosedLoop::new(&daemon, Rng::new(args.seed, 3), false)?;
        report.ref_ms.push(host::ref_ms());
        let wall = plain.round(app, report);
        daemon.stop();
        overhead = Some(wall);
    }
    let (daemon, _) = Daemon::start(&args.work_dir.join("store-traced"))?;
    let client = daemon.client();
    let healthz: Vec<f64> = (0..20)
        .map(|_| {
            let start = Instant::now();
            let _ = client.request_text("GET", "/healthz", None);
            secs(start) * 1e3
        })
        .collect();
    let mut client_loop = ClosedLoop::new(&daemon, Rng::new(args.seed, 3), true)?;
    report.ref_ms.push(host::ref_ms());
    let wall = client_loop.round(app, report);
    daemon.stop();
    if args.workload == Workload::ServeClosed {
        overhead = overhead.map(|plain| wall / plain - 1.0);
    }
    let trace = client_loop.trace.take().expect("traced loop");
    report.metric("serve.healthz_ms", median(&healthz), "ms");
    report.metric("dag.plan_ms", median(&trace.plan_ms), "ms");
    for kind in ["stream", "annotations", "replay"] {
        let hits = trace.node_hits.get(kind).copied().unwrap_or(0.0);
        let misses = trace.node_misses.get(kind).copied().unwrap_or(0.0);
        report.metric(&format!("dag.node_hits.{kind}"), hits, "count");
        report.metric(&format!("dag.node_misses.{kind}"), misses, "count");
    }
    report.metric("serve.submit_ms", median(&trace.submit_ms), "ms");
    report.metric("serve.queue_wait_ms", median(&trace.queue_wait_ms), "ms");
    report.metric("serve.run_ms", median(&trace.run_ms), "ms");
    report.metric("serve.watch_lag_ms", median(&trace.watch_lag_ms), "ms");
    for class in ["cold", "warm", "dup"] {
        let lat = client_loop
            .latency_ms
            .get(class)
            .map_or(&[][..], Vec::as_slice);
        report.metric(&format!("serve.{class}_job_ms"), median(lat), "ms");
    }
    let batches = client_loop
        .latency_ms
        .get("batch")
        .map_or(&[][..], Vec::as_slice);
    report.metric("session.batch_ms", median(batches), "ms");
    report.metric(
        "session.batch_server_ms",
        median(&trace.batch_server_ms),
        "ms",
    );
    report.metric(
        "online.ns_per_access",
        median(&trace.online_ns_per_access),
        "ns",
    );

    report.metric("host.ref_ms", median(&report.ref_ms.clone()), "ms");
    report.metric(
        "bench.trace_overhead_frac",
        overhead.ok_or("no overhead pair ran")?,
        "ratio",
    );
    Ok(())
}

/// Single-threaded per-layer costs on one quick-preset canneal stream:
/// generate, record, encode, validate, store, annotate and replay.
fn micro(args: &Args, report: &mut Report) -> Result<(), String> {
    let err = |e: &dyn std::fmt::Display| e.to_string();
    let app = App::Canneal;
    let ctx =
        llc_bench::parse_cli(["--ctx", "quick", "--apps", app.label(), "fig5"].map(String::from))
            .map_err(|e| err(&e))?
            .ctx;
    let config: HierarchyConfig = ctx.main_config().map_err(|e| err(&e))?;

    let mut workload = ctx.workload(app);
    let start = Instant::now();
    let mut accesses = 0u64;
    while let Some(a) = workload.next_access() {
        std::hint::black_box(a);
        accesses += 1;
    }
    report.metric(
        "trace.gen_ns_per_access",
        secs(start) * 1e9 / accesses as f64,
        "ns",
    );

    let start = Instant::now();
    let stream = record_stream(&config, ctx.workload(app)).map_err(|e| err(&e))?;
    let refs = stream.len() as f64;
    report.metric(
        "record.ns_per_access",
        secs(start) * 1e9 / accesses as f64,
        "ns",
    );
    report.metric(
        "record.llc_refs_per_access",
        refs / accesses as f64,
        "refs/access",
    );

    let start = Instant::now();
    let bytes = stream.to_vec().map_err(|e| err(&e))?;
    report.metric("trace.encode_ns_per_ref", secs(start) * 1e9 / refs, "ns");
    let arena: Arc<[u8]> = Arc::from(bytes);
    let start = Instant::now();
    let view = StreamView::new(arena).map_err(|e| err(&e))?;
    report.metric(
        "trace.view_validate_ns_per_ref",
        secs(start) * 1e9 / refs,
        "ns",
    );
    std::hint::black_box(view);

    let store = StreamStore::open(args.work_dir.join("streams")).map_err(|e| err(&e))?;
    let fp = ctx.stream_key(app, &config).fingerprint();
    let start = Instant::now();
    store.save(fp, &stream).map_err(|e| err(&e))?;
    report.metric("trace.store_save_ms", secs(start) * 1e3, "ms");
    let start = Instant::now();
    let loaded = store.load_view(fp).map_err(|e| err(&e))?;
    report.metric("trace.store_load_ms", secs(start) * 1e3, "ms");
    report.op(loaded.is_some_and(|v| v.len() == stream.len()));

    let window = oracle_window(&config);
    let start = Instant::now();
    std::hint::black_box(compute_annotations(&stream, window));
    report.metric("annotate.ns_per_ref", secs(start) * 1e9 / refs, "ns");

    // Warm the context's cache so the replays below load nothing.
    ctx.stream(app, &config).map_err(|e| err(&e))?;
    set_host_thread_override(Some(1));
    let descs = [
        ("lru", ReplayDesc::plain(PolicyKind::Lru)),
        ("srrip", ReplayDesc::plain(PolicyKind::Srrip)),
        ("drrip", ReplayDesc::plain(PolicyKind::Drrip)),
        ("ship", ReplayDesc::plain(PolicyKind::Ship)),
        ("opt", ReplayDesc::plain(PolicyKind::Opt)),
        (
            "oracle_lru",
            ReplayDesc::oracle(PolicyKind::Lru, ProtectMode::Eviction, window),
        ),
    ];
    for (name, desc) in descs {
        let mut times = Vec::new();
        let mut stats = Vec::new();
        for _ in 0..3 {
            let start = Instant::now();
            let result = ctx.replay_cached(app, &config, &desc).map_err(|e| err(&e));
            times.push(secs(start) * 1e9 / refs);
            stats.push(result.map(|r| format!("{:?}", r.llc)));
        }
        // A replay is deterministic: every repetition must match the
        // golden statistics.
        for s in stats {
            let ok = s.is_ok_and(|s| {
                report.check(&format!("layer replay {name}"), fnv1a64(s.as_bytes()))
            });
            report.op(ok);
        }
        report.metric(&format!("replay.ns_per_ref.{name}"), median(&times), "ns");
    }
    set_host_thread_override(None);
    Ok(())
}
