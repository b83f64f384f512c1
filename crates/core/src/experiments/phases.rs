//! `fig11`: epoch-resolved sharing for phase-structured applications.

use llc_dag::ReplayDesc;
use llc_policies::PolicyKind;
use llc_trace::App;

use crate::epochs::EpochSeries;
use crate::error::RunError;
use crate::experiments::{per_app_try, ExperimentCtx};
use crate::replay::run_observed;
use crate::report::{f3, pct, Table};

/// Number of epochs the time series is resampled to.
const SERIES_POINTS: usize = 16;

/// Fig. 11: shared-hit fraction over time. The phase-structured apps
/// (`fft`, `ocean`, `mgrid`, `radix`) show bursty series — the behaviour
/// that history-based fill-time predictors cannot track — while
/// read-shared apps are steady.
pub(crate) fn fig11(ctx: &ExperimentCtx) -> Result<Vec<Table>, RunError> {
    let cap = ctx.llc_capacities[0];
    let cfg = ctx.config(cap)?;
    // Keep the full app list but lead with the phase-structured ones.
    let mut apps: Vec<App> = ctx
        .apps
        .iter()
        .copied()
        .filter(|a| matches!(a, App::Fft | App::Ocean | App::Mgrid | App::Radix))
        .collect();
    let rest: Vec<App> = ctx
        .apps
        .iter()
        .copied()
        .filter(|a| !apps.contains(a))
        .collect();
    apps.extend(rest);

    let mut headers: Vec<String> = vec!["app".into(), "burstiness".into()];
    headers.extend((1..=SERIES_POINTS).map(|i| format!("e{i}")));
    let mut t = Table::new(
        format!(
            "Fig. 11 — Shared-hit fraction per epoch (LRU, {} KB LLC)",
            cap >> 10
        ),
        &headers.iter().map(String::as_str).collect::<Vec<_>>(),
    );
    let rows = per_app_try(&apps, |app| {
        // The stream length IS the LLC access count, so the epoch length
        // needs no probe simulation.
        let stream = ctx.stream(app, &cfg)?;
        let epoch_len = (stream.len() as u64 / SERIES_POINTS as u64).max(1);
        let mut series = EpochSeries::new(epoch_len);
        run_observed(
            &cfg,
            &ReplayDesc::plain(PolicyKind::Lru),
            &stream,
            vec![&mut series],
        )?;
        let mut cells = vec![app.label().to_string(), f3(series.sharing_burstiness())];
        for i in 0..SERIES_POINTS {
            let v = series
                .epochs()
                .get(i)
                .map(|e| e.shared_hit_fraction())
                .unwrap_or(0.0);
            cells.push(pct(v));
        }
        Ok(cells)
    })?;
    for r in rows {
        t.row(r);
    }
    t.note("burstiness = coefficient of variation of the per-epoch shared-hit fraction.");
    t.note("Bursty sharing means a block's next generation need not behave like its last one — the predictor's core difficulty.");
    Ok(vec![t])
}
