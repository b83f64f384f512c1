//! Cross-crate telemetry checks: counters incremented concurrently from
//! the suite's own worker pool, replay-phase instrumentation feeding the
//! Prometheus exposition, and Chrome-trace JSON round-tripping through
//! the workspace JSON parser.
//!
//! The metrics registry is process-global, so these tests assert on
//! *deltas* (or on dedicated metric names) rather than absolute values —
//! other tests in this binary may run concurrently and bump shared
//! series.

use sharing_aware_llc::prelude::*;
use sharing_aware_llc::sharing::{json, record_stream, run, scoped_workers, Exec, ReplayDesc};
use sharing_aware_llc::telemetry::metrics::global;
use sharing_aware_llc::telemetry::spans;

#[test]
fn scoped_workers_increment_one_counter_without_losing_updates() {
    let counter = global().counter(
        "llc_test_pool_increments_total",
        "Increments performed by the scoped worker pool in tests.",
    );
    const WORKERS: usize = 8;
    const PER_WORKER: u64 = 10_000;
    let before = counter.get();
    scoped_workers(WORKERS, |_w| {
        for _ in 0..PER_WORKER {
            counter.inc();
        }
    });
    assert_eq!(counter.get() - before, WORKERS as u64 * PER_WORKER);

    // The same name resolves to the same underlying atomic, so the total
    // survives into the exposition.
    let text = global().encode();
    assert!(text.contains("# TYPE llc_test_pool_increments_total counter"));
}

#[test]
fn replay_phases_feed_the_prometheus_exposition() {
    let cfg = HierarchyConfig::tiny();
    let records_before = {
        let text = global().encode();
        series_value(&text, "llc_stream_records_total")
    };

    let trace = App::Bodytrack.workload(cfg.cores, Scale::Tiny);
    let stream = record_stream(&cfg, trace).expect("recording a tiny stream succeeds");
    let result = run(
        &cfg,
        &[ReplayDesc::plain(PolicyKind::Lru)],
        &stream,
        Exec::Auto,
    )
    .expect("replay succeeds")
    .remove(0);
    assert!(result.trace_accesses > 0);

    let text = global().encode();
    // Exposition-level shape: HELP/TYPE headers precede the series.
    assert!(text.contains("# HELP llc_stream_records_total"));
    assert!(text.contains("# TYPE llc_stream_records_total counter"));
    let records_after = series_value(&text, "llc_stream_records_total");
    assert!(
        records_after >= records_before + 1.0,
        "record_stream must bump llc_stream_records_total \
         (before {records_before}, after {records_after})"
    );

    // Every non-comment line is `name[{labels}] value`, with a finite
    // numeric value — the parseability contract the CI smoke greps for.
    for line in text
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
    {
        let value = line.rsplit(' ').next().expect("line has a value field");
        let parsed: f64 = value
            .parse()
            .unwrap_or_else(|_| panic!("unparsable sample value {value:?} in line {line:?}"));
        assert!(
            parsed.is_finite() || value == "+Inf",
            "non-finite sample in {line:?}"
        );
    }
}

#[test]
fn chrome_trace_export_is_valid_json_with_complete_events() {
    spans::reset();
    spans::set_enabled(true);
    {
        let _outer = spans::span("telemetry-test outer");
        scoped_workers(3, |w| {
            let _inner = spans::span_with(|| format!("telemetry-test worker {w}"));
            std::thread::sleep(std::time::Duration::from_millis(2));
        });
    }
    spans::set_enabled(false);

    let text = spans::chrome_trace_json();
    let value = json::parse(&text).expect("chrome trace export must be valid JSON");

    assert_eq!(
        value.field("displayTimeUnit").and_then(json::Value::as_str),
        Some("ms"),
        "trace must carry the display-unit hint"
    );
    let events = value
        .field("traceEvents")
        .and_then(json::Value::as_array)
        .expect("traceEvents must be an array");

    let mut complete = 0usize;
    let mut saw_outer = false;
    let mut saw_worker = false;
    for event in events {
        let ph = event.field("ph").and_then(json::Value::as_str).expect("ph");
        match ph {
            // Thread-name metadata: needs pid/tid and an args.name.
            "M" => {
                assert!(event.field("pid").is_some() && event.field("tid").is_some());
                assert_eq!(
                    event.field("name").and_then(json::Value::as_str),
                    Some("thread_name")
                );
            }
            // Complete events: microsecond timestamp + duration.
            "X" => {
                complete += 1;
                assert!(event.field("ts").is_some() && event.field("dur").is_some());
                let name = event
                    .field("name")
                    .and_then(json::Value::as_str)
                    .unwrap_or("");
                saw_outer |= name == "telemetry-test outer";
                saw_worker |= name.starts_with("telemetry-test worker");
            }
            other => panic!("unexpected event phase {other:?}"),
        }
    }
    assert!(
        complete >= 4,
        "outer span + 3 worker spans expected, got {complete}"
    );
    assert!(saw_outer, "outer span missing from export");
    assert!(
        saw_worker,
        "pool-worker spans must survive thread exit via retired buffers"
    );
}

/// Sums every sample of `name` (ignores labelled variants' label sets).
fn series_value(exposition: &str, name: &str) -> f64 {
    exposition
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter(|l| l.split([' ', '{']).next() == Some(name))
        .filter_map(|l| l.rsplit(' ').next())
        .filter_map(|v| v.parse::<f64>().ok())
        .sum()
}
