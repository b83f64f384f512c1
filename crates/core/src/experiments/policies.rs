//! Policy-comparison experiments: `fig5` (misses vs OPT) and `fig6`
//! (sharing-awareness of existing policies).
//!
//! Both record each (app, LLC size) reference stream once via the
//! context's [`StreamCache`](crate::replay::StreamCache) and replay every
//! policy over it — the whole lineup costs one hierarchy simulation per
//! app instead of one per policy.

use llc_dag::ReplayDesc;
use llc_policies::PolicyKind;

use crate::awareness::VictimizationStats;
use crate::error::RunError;
use crate::experiments::{per_app_try, ExperimentCtx};
use crate::replay::run_observed;
use crate::report::{f3, geomean, pct, Table};

/// The policy lineup of the comparison figures.
pub(crate) const LINEUP: [PolicyKind; 8] = [
    PolicyKind::Lru,
    PolicyKind::Random,
    PolicyKind::Nru,
    PolicyKind::Srrip,
    PolicyKind::Drrip,
    PolicyKind::Dip,
    PolicyKind::Ship,
    PolicyKind::Opt,
];

/// Fig. 5: per-app LLC misses of each policy normalized to LRU, with OPT
/// as the lower bound. One table per LLC size.
pub(crate) fn fig5(ctx: &ExperimentCtx) -> Result<Vec<Table>, RunError> {
    let mut tables = Vec::new();
    for &cap in &ctx.llc_capacities {
        let cfg = ctx.config(cap)?;
        let mut headers: Vec<String> = vec!["app".into()];
        headers.extend(LINEUP.iter().map(|p| p.label().to_string()));
        let mut t = Table::new(
            format!(
                "Fig. 5 — LLC misses normalized to LRU ({} KB LLC)",
                cap >> 10
            ),
            &headers.iter().map(String::as_str).collect::<Vec<_>>(),
        );
        let rows: Vec<Vec<f64>> = per_app_try(&ctx.apps, |app| {
            let lru = ctx
                .replay_cached(app, &cfg, &ReplayDesc::plain(PolicyKind::Lru))?
                .llc
                .misses();
            let mut vals = Vec::with_capacity(LINEUP.len());
            for &kind in &LINEUP {
                let misses = if kind == PolicyKind::Lru {
                    lru
                } else {
                    ctx.replay_cached(app, &cfg, &ReplayDesc::plain(kind))?
                        .llc
                        .misses()
                };
                vals.push(misses as f64 / lru.max(1) as f64);
            }
            Ok(vals)
        })?;
        for (app, vals) in ctx.apps.iter().zip(&rows) {
            let mut cells = vec![app.label().to_string()];
            cells.extend(vals.iter().map(|&v| f3(v)));
            t.row(cells);
        }
        let mut gm = vec!["GEOMEAN".to_string()];
        for i in 0..LINEUP.len() {
            gm.push(f3(geomean(rows.iter().map(|r| r[i]))));
        }
        t.row(gm);
        t.note(
            "Below 1.000 = fewer misses than LRU. OPT is the non-bypassing optimal lower bound.",
        );
        tables.push(t);
    }
    Ok(tables)
}

/// Fig. 6: how sharing-oblivious is each policy? Premature
/// shared-victimization rates, with OPT as the reference.
pub(crate) fn fig6(ctx: &ExperimentCtx) -> Result<Vec<Table>, RunError> {
    let cap = ctx.llc_capacities[0];
    let cfg = ctx.config(cap)?;
    let window = 64 * ctx.llc_ways as u64;
    let policies = [
        PolicyKind::Lru,
        PolicyKind::Srrip,
        PolicyKind::Drrip,
        PolicyKind::Ship,
        PolicyKind::Opt,
    ];
    let mut headers: Vec<String> = vec!["app".into()];
    for p in policies {
        headers.push(format!("{} prem%", p.label()));
        headers.push(format!("{} shvic%", p.label()));
    }
    let mut t = Table::new(
        format!(
            "Fig. 6 — Premature (shared) victimization rates ({} KB LLC, window {})",
            cap >> 10,
            window
        ),
        &headers.iter().map(String::as_str).collect::<Vec<_>>(),
    );
    let rows = per_app_try(&ctx.apps, |app| {
        let stream = ctx.stream(app, &cfg)?;
        let mut cells = vec![app.label().to_string()];
        for &kind in &policies {
            let mut stats = VictimizationStats::new(window);
            run_observed(&cfg, &ReplayDesc::plain(kind), &stream, vec![&mut stats])?;
            cells.push(pct(stats.premature_rate()));
            cells.push(pct(stats.shared_victimization_rate()));
        }
        Ok(cells)
    })?;
    for r in rows {
        t.row(r);
    }
    t.note(
        "prem% = evictions refilled within the window; shvic% = those whose refill became shared.",
    );
    t.note("OPT's near-zero shvic% is what 'OPT is naturally sharing-aware' means quantitatively.");
    Ok(vec![t])
}
