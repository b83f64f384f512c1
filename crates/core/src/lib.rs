//! # llc-sharing — the sharing characterization and oracle study
//!
//! The top of the reproduction stack: this crate drives the `llc-sim`
//! hierarchy over `llc-trace` workloads with `llc-policies` replacement
//! and `llc-predictors` predictors, and implements everything the paper
//! *contributes*:
//!
//! * the **runner** with its exact offline pre-passes — Belady next-use
//!   chains and per-access oracle sharing outcomes
//!   ([`runner::simulate_opt`], [`runner::simulate_oracle`]);
//! * the **stream-replay fast path** — record the LLC reference stream
//!   once ([`record_stream`]), then replay a lineup of policy
//!   descriptors ([`ReplayDesc`]: a base policy, bare or wrapped by the
//!   oracle, reactive protection or a predictor) with [`run`] for stats —
//!   sequentially, over donated workers or set-sharded, as [`Exec`]
//!   says — or one descriptor with observers attached with
//!   [`run_observed`];
//! * the **characterization passes** — hit/occupancy decomposition by
//!   sharing class ([`SharingProfile`]), premature shared-victimization
//!   rates ([`VictimizationStats`]), epoch-resolved sharing
//!   ([`EpochSeries`]);
//! * the **experiment index** — every paper-style table and figure as a
//!   runnable [`experiments::ExperimentId`].
//!
//! ## Example
//!
//! ```
//! use llc_policies::PolicyKind;
//! use llc_sharing::{simulate_kind, SharingProfile};
//! use llc_sim::HierarchyConfig;
//! use llc_trace::{App, Scale};
//!
//! # fn main() -> Result<(), llc_sharing::RunError> {
//! let cfg = HierarchyConfig::tiny();
//! let mut profile = SharingProfile::new();
//! let result = simulate_kind(
//!     &cfg,
//!     PolicyKind::Lru,
//!     &mut || App::Bodytrack.workload(cfg.cores, Scale::Tiny),
//!     vec![&mut profile],
//! )?;
//! assert!(result.llc.accesses > 0);
//! // bodytrack's shared model makes shared generations matter:
//! assert!(profile.shared_hit_fraction() > 0.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod awareness;
pub mod budget;
pub mod characterize;
pub mod epochs;
pub mod error;
pub mod experiments;
pub mod json;
pub mod memo;
pub mod model;
pub mod online;
pub mod planner;
pub mod replay;
pub mod report;
pub mod runner;
pub mod suite;

pub use awareness::VictimizationStats;
pub use characterize::{ClassTally, SharingProfile};
pub use epochs::{EpochSeries, EpochStat};
pub use error::RunError;
pub use experiments::{per_app, run_experiment, ExperimentCtx, ExperimentId};
pub use llc_dag::ReplayDesc;
pub use memo::{record_of, result_of};
pub use model::LatencyModel;
pub use online::{OnlineCharacterizer, OnlineStats, OnlineTally};
pub use planner::{configs_for, plan_experiment, replay_lineup};
pub use replay::{
    compute_annotations, record_stream, register_stream, replay_on, run, run_observed,
    set_host_thread_override, Annotations, CachedAccessIter, CachedStream, Exec, StreamCache,
    StreamCacheStats, StreamKey, WorkloadId,
};
pub use report::{f2, f3, geomean, mean, pct, Table};
pub use runner::{
    oracle_window, simulate, simulate_kind, simulate_opt, simulate_oracle, simulate_predictor_wrap,
    CombinedProvider, NextUseProvider, OracleProvider, RunResult, StreamRecorder,
};
pub use suite::pool::scoped_workers;
pub use suite::{
    run_guarded, run_suite, run_suite_with, ExperimentOutcome, SuiteConfig, SuiteReport,
};
