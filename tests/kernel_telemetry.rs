//! The replay inner loop must do **zero** telemetry work per access:
//! spans and counters are phase-level only, so a disabled tracer costs
//! nothing on the hot path and an enabled one buffers a constant number
//! of events per replay regardless of stream length.
//!
//! This lives in its own integration-test binary (its own process) so no
//! test elsewhere can flip the process-global span switch under the
//! assertions, and the two tests here — which both flip it — take turns
//! through [`exclusive_spans`].

use std::sync::{Mutex, MutexGuard};

use sharing_aware_llc::prelude::*;
use sharing_aware_llc::sharing::{record_stream, run, Exec, ReplayDesc};
use sharing_aware_llc::telemetry::spans;

/// Serializes the tests that flip the span switch.
static SPAN_SWITCH: Mutex<()> = Mutex::new(());

/// Exclusive use of the span switch for one test: holds [`SPAN_SWITCH`]
/// (recovering it if an earlier holder panicked) and switches spans
/// back off on drop, so a failing assertion cannot leave them enabled
/// for the next test.
struct SpanGuard {
    _lock: MutexGuard<'static, ()>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        spans::set_enabled(false);
    }
}

fn exclusive_spans() -> SpanGuard {
    SpanGuard {
        _lock: SPAN_SWITCH
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner()),
    }
}

fn replay_lru<S: sharing_aware_llc::trace::StreamAccess + Sync>(
    cfg: &HierarchyConfig,
    stream: &S,
) -> RunResult {
    let lru = [ReplayDesc::plain(PolicyKind::Lru)];
    run(cfg, &lru, stream, Exec::Auto)
        .expect("replay")
        .remove(0)
}

#[test]
fn disabled_telemetry_is_zero_atomics_per_replay_access() {
    let _spans = exclusive_spans();
    let cfg = HierarchyConfig::tiny();
    let small = record_stream(&cfg, App::Bodytrack.workload(cfg.cores, Scale::Tiny))
        .expect("record small stream");
    let large = record_stream(&cfg, App::Bodytrack.workload(cfg.cores, Scale::Small))
        .expect("record large stream");
    assert!(
        large.len() > 2 * small.len(),
        "the two streams must differ in length for the scaling assertions \
         (small {}, large {})",
        small.len(),
        large.len()
    );

    // Disabled (the default): a replay buffers no span events at all, no
    // matter how many accesses it drives.
    assert!(!spans::enabled(), "spans must start disabled");
    let before = spans::event_count();
    let result = replay_lru(&cfg, &large);
    assert!(result.llc.accesses > 0);
    assert_eq!(
        spans::event_count(),
        before,
        "a disabled tracer must record nothing during replay"
    );

    // Enabled: the event count is per-*phase*, not per-access — replaying
    // a stream twice the length buffers exactly as many events.
    spans::set_enabled(true);
    let before = spans::event_count();
    replay_lru(&cfg, &small);
    let per_small = spans::event_count() - before;
    let before = spans::event_count();
    replay_lru(&cfg, &large);
    let per_large = spans::event_count() - before;
    spans::set_enabled(false);
    assert_eq!(
        per_small, per_large,
        "span events per replay must be independent of stream length"
    );
    assert!(
        per_large as u64 <= 4,
        "replay must emit a handful of phase-level spans, not {per_large}"
    );
}

#[test]
fn disabled_telemetry_is_zero_atomics_per_record_access() {
    // The record path has the same discipline as replay: one counter bump
    // and one span per *recording*, never per trace record. With spans
    // disabled a recording buffers nothing; enabled, a trace twice the
    // length buffers exactly as many events.
    let _spans = exclusive_spans();
    let cfg = HierarchyConfig::tiny();
    assert!(!spans::enabled(), "spans must start disabled");
    let before = spans::event_count();
    let stream = record_stream(&cfg, App::Fft.workload(cfg.cores, Scale::Small)).expect("record");
    assert!(stream.len() > 0);
    assert_eq!(
        spans::event_count(),
        before,
        "a disabled tracer must record nothing during recording"
    );

    spans::set_enabled(true);
    let before = spans::event_count();
    record_stream(&cfg, App::Fft.workload(cfg.cores, Scale::Tiny)).expect("record tiny");
    let per_tiny = spans::event_count() - before;
    let before = spans::event_count();
    record_stream(&cfg, App::Fft.workload(cfg.cores, Scale::Small)).expect("record small");
    let per_small = spans::event_count() - before;
    spans::set_enabled(false);
    assert_eq!(
        per_tiny, per_small,
        "span events per recording must be independent of trace length"
    );
    assert!(
        per_small as u64 <= 4,
        "recording must emit a handful of phase-level spans, not {per_small}"
    );
}
