//! The characterization experiments: `table2` and `fig1`–`fig4`.

use llc_dag::ReplayDesc;
use llc_policies::PolicyKind;
use llc_trace::App;

use crate::characterize::SharingProfile;
use crate::error::RunError;
use crate::experiments::{per_app_try, ExperimentCtx};
use crate::replay::run_observed;
use crate::report::{f2, mean, pct, Table};
use crate::runner::RunResult;

/// One app's LRU run with a sharing profile attached (an LLC-only replay
/// of the cached reference stream).
fn profile_run(
    ctx: &ExperimentCtx,
    app: App,
    capacity: u64,
) -> Result<(RunResult, SharingProfile), RunError> {
    let cfg = ctx.config(capacity)?;
    let stream = ctx.stream(app, &cfg)?;
    let mut profile = SharingProfile::new();
    let result = run_observed(
        &cfg,
        &ReplayDesc::plain(PolicyKind::Lru),
        &stream,
        vec![&mut profile],
    )?;
    Ok((result, profile))
}

/// Table 2: workload characteristics under LRU at the primary LLC size.
pub(crate) fn table2(ctx: &ExperimentCtx) -> Result<Vec<Table>, RunError> {
    let cap = ctx.llc_capacities[0];
    let mut t = Table::new(
        format!(
            "Table 2 — Workload characteristics (LRU, {} KB LLC)",
            cap >> 10
        ),
        &[
            "app",
            "suite",
            "class",
            "refs(M)",
            "instr(M)",
            "L1 MPKI",
            "LLC MPKI",
            "footprint(MB)",
            "shared blocks",
        ],
    );
    let rows = per_app_try(&ctx.apps, |app| {
        let (r, p) = profile_run(ctx, app, cap)?;
        Ok(vec![
            app.label().to_string(),
            app.suite().to_string(),
            app.sharing_class().to_string(),
            f2(r.trace_accesses as f64 / 1e6),
            f2(r.instructions as f64 / 1e6),
            f2(r.l1_mpki()),
            f2(r.llc_mpki()),
            f2(p.footprint_blocks() as f64 * 64.0 / (1 << 20) as f64),
            pct(p.shared_footprint_fraction()),
        ])
    })?;
    for r in rows {
        t.row(r);
    }
    t.note(
        "footprint = distinct blocks observed at the LLC; shared blocks = fraction ever shared.",
    );
    t.note("Trace records are block-granular touches, so MPKI figures are per-block-touch, higher than per-word MPKI.");
    Ok(vec![t])
}

/// Fig. 1: fraction of LLC hits served by shared generations, at both LLC
/// sizes — the motivation figure ("shared blocks are more important").
pub(crate) fn fig1(ctx: &ExperimentCtx) -> Result<Vec<Table>, RunError> {
    let mut headers = vec!["app".to_string()];
    for &cap in &ctx.llc_capacities {
        headers.push(format!("shared-hit% @{}KB", cap >> 10));
        headers.push(format!("xcore-hit% @{}KB", cap >> 10));
    }
    let mut t = Table::new(
        "Fig. 1 — LLC hit decomposition: hits to shared vs private generations (LRU)",
        &headers.iter().map(String::as_str).collect::<Vec<_>>(),
    );
    let rows = per_app_try(&ctx.apps, |app| {
        let mut row = vec![app.label().to_string()];
        for &cap in &ctx.llc_capacities {
            let (r, p) = profile_run(ctx, app, cap)?;
            row.push(pct(p.shared_hit_fraction()));
            row.push(pct(
                r.llc.hits_by_non_filler as f64 / r.llc.hits.max(1) as f64
            ));
        }
        Ok(row)
    })?;
    let mut shared_fracs = vec![Vec::new(); ctx.llc_capacities.len()];
    for r in &rows {
        for (i, _) in ctx.llc_capacities.iter().enumerate() {
            let v: f64 = r[1 + 2 * i].trim_end_matches('%').parse().unwrap_or(0.0);
            shared_fracs[i].push(v / 100.0);
        }
    }
    for r in rows {
        t.row(r);
    }
    let mut mean_row = vec!["MEAN".to_string()];
    for fr in &shared_fracs {
        mean_row.push(pct(mean(fr.iter().copied())));
        mean_row.push("-".into());
    }
    t.row(mean_row);
    t.note("shared-hit% = hits to generations touched by >=2 cores; xcore-hit% = hits issued by a non-filling core.");
    Ok(vec![t])
}

/// Fig. 2: population vs importance — share of generations and of
/// time-integrated occupancy that is shared (contrast with fig1).
pub(crate) fn fig2(ctx: &ExperimentCtx) -> Result<Vec<Table>, RunError> {
    let cap = ctx.llc_capacities[0];
    let mut t = Table::new(
        format!(
            "Fig. 2 — Generation population vs occupancy vs hits (LRU, {} KB)",
            cap >> 10
        ),
        &[
            "app",
            "shared gens%",
            "shared occupancy%",
            "shared hits%",
            "hits/gen shared",
            "hits/gen private",
        ],
    );
    let rows = per_app_try(&ctx.apps, |app| {
        let (_, p) = profile_run(ctx, app, cap)?;
        let (hs, hp) = p.hits_per_generation();
        Ok(vec![
            app.label().to_string(),
            pct(p.shared_generation_fraction()),
            pct(p.shared_occupancy_fraction()),
            pct(p.shared_hit_fraction()),
            f2(hs),
            f2(hp),
        ])
    })?;
    for r in rows {
        t.row(r);
    }
    t.note("The paper's argument: the shared slice of the population punches far above its weight in hits.");
    Ok(vec![t])
}

/// Fig. 3: sharing-degree distribution of shared generations.
pub(crate) fn fig3(ctx: &ExperimentCtx) -> Result<Vec<Table>, RunError> {
    let cap = ctx.llc_capacities[0];
    let mut t = Table::new(
        format!(
            "Fig. 3 — Sharing degree of shared generations (LRU, {} KB)",
            cap >> 10
        ),
        &["app", "2 sharers", "3-4 sharers", "5+ sharers"],
    );
    let rows = per_app_try(&ctx.apps, |app| {
        let (_, p) = profile_run(ctx, app, cap)?;
        let (two, mid, high) = p.degree_buckets();
        Ok(vec![app.label().to_string(), pct(two), pct(mid), pct(high)])
    })?;
    for r in rows {
        t.row(r);
    }
    Ok(vec![t])
}

/// Fig. 4: read-only vs read-write decomposition of shared activity.
pub(crate) fn fig4(ctx: &ExperimentCtx) -> Result<Vec<Table>, RunError> {
    let cap = ctx.llc_capacities[0];
    let mut t = Table::new(
        format!(
            "Fig. 4 — Read-only vs read-write shared generations (LRU, {} KB)",
            cap >> 10
        ),
        &["app", "RO gens%", "RW gens%", "RO hits%", "RW hits%"],
    );
    let rows = per_app_try(&ctx.apps, |app| {
        let (_, p) = profile_run(ctx, app, cap)?;
        let gens = (p.read_only_shared_gens + p.read_write_shared_gens).max(1) as f64;
        let hits = (p.read_only_shared_hits + p.read_write_shared_hits).max(1) as f64;
        Ok(vec![
            app.label().to_string(),
            pct(p.read_only_shared_gens as f64 / gens),
            pct(p.read_write_shared_gens as f64 / gens),
            pct(p.read_only_shared_hits as f64 / hits),
            pct(p.read_write_shared_hits as f64 / hits),
        ])
    })?;
    for r in rows {
        t.row(r);
    }
    t.note("Percentages are of shared generations / shared hits only.");
    Ok(vec![t])
}
