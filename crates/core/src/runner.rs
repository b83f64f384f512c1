//! The simulation driver: wires a trace source into the CMP, performs the
//! offline pre-passes (Belady next-use chains, oracle sharing outcomes)
//! and runs policies — realistic, OPT, oracle-wrapped or
//! predictor-wrapped — over identical LLC reference streams.
//!
//! # Why pre-passes are exact
//!
//! In the default non-inclusive hierarchy the sequence of LLC references
//! is a pure function of the workload and the private caches — it does not
//! depend on the LLC replacement policy. Two runs of the same workload
//! therefore produce *identical* LLC access streams, and an annotation
//! computed at stream index `i` in a pre-pass describes exactly the access
//! the second run performs at index `i`. This is what makes Belady's OPT
//! exact and the oracle bits perfectly aligned.
//!
//! Since the stream-replay fast path landed, the annotated runs
//! ([`simulate_opt`], [`simulate_oracle`]) exploit this property twice
//! over: on a non-inclusive hierarchy they record the stream **once**
//! ([`crate::replay::record_stream`]), derive all annotations from the
//! recording in a single fused backward scan, and replay only the LLC —
//! instead of running up to three full hierarchy simulations. Inclusive
//! hierarchies keep the historical full-simulation path (see the
//! [`crate::replay`] module docs for why).

use std::sync::Arc;

use llc_dag::ReplayDesc;
use llc_policies::{
    build_oracle_policy_with_mode, build_policy, OracleWrap, PolicyKind, ProtectMode,
};
use llc_predictors::{PredictorWrap, SharingPredictor};
use llc_sim::{
    AccessCtx, AccessKind, Aux, AuxProvider, BlockAddr, Cmp, CoreId, HierarchyConfig, Inclusion,
    LiveGeneration, LlcObserver, LlcStats, MultiObserver, Pc, PrivateCacheStats, ReplacementPolicy,
};
use llc_trace::{TraceSource, UpgradeEvent};

use crate::error::RunError;
use crate::replay::{compute_annotations, record_stream, run_observed};

/// Aggregate result of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Name of the policy that ran.
    pub policy: String,
    /// LLC counters.
    pub llc: LlcStats,
    /// Aggregated private L1 counters.
    pub l1: PrivateCacheStats,
    /// Aggregated private L2 counters (zero without an L2).
    pub l2: PrivateCacheStats,
    /// Instructions represented by the trace.
    pub instructions: u64,
    /// Trace records processed.
    pub trace_accesses: u64,
}

impl RunResult {
    /// LLC misses per kilo-instruction.
    pub fn llc_mpki(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.llc.misses() as f64 * 1000.0 / self.instructions as f64
        }
    }

    /// L1 misses per kilo-instruction (aggregated over cores).
    pub fn l1_mpki(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.l1.misses() as f64 * 1000.0 / self.instructions as f64
        }
    }
}

/// Runs `policy` over `trace` with optional aux annotations and
/// observers. The hierarchy is flushed at the end so every generation is
/// reported.
///
/// # Errors
///
/// Returns [`RunError::Sim`] if the hierarchy configuration is invalid or
/// a record names a core the hierarchy does not have (a trace recorded on
/// a wider machine, or a corrupted core byte that slipped past the
/// decoder), and [`RunError::Trace`] if the trace source ended on a
/// decode error (file replay of a corrupt trace) rather than clean
/// exhaustion.
pub fn simulate<W: TraceSource>(
    config: &HierarchyConfig,
    policy: Box<dyn ReplacementPolicy>,
    aux: Option<Box<dyn AuxProvider>>,
    mut trace: W,
    observers: Vec<&mut dyn LlcObserver>,
) -> Result<RunResult, RunError> {
    let mut cmp = Cmp::new(*config, policy).map_err(llc_sim::SimError::from)?;
    if let Some(aux) = aux {
        cmp.set_aux_provider(aux);
    }
    let mut obs = MultiObserver::new(observers);
    while let Some(a) = trace.next_access() {
        cmp.check_access(&a)?;
        cmp.access(a, &mut obs);
    }
    if let Some(e) = trace.take_error() {
        return Err(RunError::Trace(e));
    }
    cmp.finish(&mut obs);
    Ok(RunResult {
        policy: cmp.llc().policy().name(),
        llc: cmp.llc_stats(),
        l1: cmp.l1_stats(),
        l2: cmp.l2_stats(),
        instructions: cmp.instructions(),
        trace_accesses: cmp.trace_accesses(),
    })
}

/// Runs a realistic policy (no annotations needed).
pub fn simulate_kind<W, F>(
    config: &HierarchyConfig,
    kind: PolicyKind,
    make_trace: &mut F,
    observers: Vec<&mut dyn LlcObserver>,
) -> Result<RunResult, RunError>
where
    W: TraceSource,
    F: FnMut() -> W,
{
    let sets = config.llc.sets() as usize;
    let ways = config.llc.ways;
    if kind == PolicyKind::Opt {
        return simulate_opt(config, make_trace, observers);
    }
    simulate(
        config,
        build_policy(kind, sets, ways),
        None,
        make_trace(),
        observers,
    )
}

/// Runs Belady's OPT: one recording pass captures the LLC reference
/// stream, the next-use chains are derived from the recording, and the
/// OPT run itself replays only the LLC (non-inclusive hierarchies).
/// Inclusive hierarchies fall back to the historical pre-pass + full
/// simulation.
pub fn simulate_opt<W, F>(
    config: &HierarchyConfig,
    make_trace: &mut F,
    observers: Vec<&mut dyn LlcObserver>,
) -> Result<RunResult, RunError>
where
    W: TraceSource,
    F: FnMut() -> W,
{
    if config.inclusion == Inclusion::Inclusive {
        let sets = config.llc.sets() as usize;
        let ways = config.llc.ways;
        let next_use = compute_annotations(&record_stream(config, make_trace())?, 0).next_use;
        return simulate(
            config,
            build_policy(PolicyKind::Opt, sets, ways),
            Some(Box::new(NextUseProvider::new(next_use))),
            make_trace(),
            observers,
        );
    }
    let stream = record_stream(config, make_trace())?;
    run_observed(
        config,
        &ReplayDesc::plain(PolicyKind::Opt),
        &stream,
        observers,
    )
}

/// Runs the sharing-aware oracle wrapper around `base`.
///
/// One recording pre-pass over the (policy-independent) LLC reference
/// stream computes, for every access, whether another core touches the
/// block within the retention horizon (`window`; `None` selects
/// [`oracle_window`]); the wrapper then protects lines whose most recent
/// access carried a positive answer.
pub fn simulate_oracle<W, F>(
    config: &HierarchyConfig,
    base: PolicyKind,
    mode: ProtectMode,
    window: Option<u64>,
    make_trace: &mut F,
    observers: Vec<&mut dyn LlcObserver>,
) -> Result<RunResult, RunError>
where
    W: TraceSource,
    F: FnMut() -> W,
{
    let window = window.unwrap_or_else(|| oracle_window(config));
    if config.inclusion != Inclusion::Inclusive {
        // Fast path: one recording, fused annotations, LLC-only replay.
        // (Historically `base == Opt` here cost THREE full pre-pass
        // simulations; the recording now happens exactly once.)
        let stream = record_stream(config, make_trace())?;
        let desc = ReplayDesc::oracle(base, mode, window);
        return run_observed(config, &desc, &stream, observers);
    }
    let sets = config.llc.sets() as usize;
    let ways = config.llc.ways;
    // Inclusive: the stream depends on the policy, so the measured run
    // must be a full simulation — but both annotation vectors still come
    // from a single recording of the LRU-run approximation.
    let stream = record_stream(config, make_trace())?;
    let ann = compute_annotations(&stream, window);
    if base == PolicyKind::Opt {
        let policy = Box::new(OracleWrap::with_mode(
            build_policy(PolicyKind::Opt, sets, ways),
            sets,
            ways,
            mode,
        ));
        return simulate(
            config,
            policy,
            Some(Box::new(CombinedProvider::new(
                ann.next_use,
                ann.shared_soon,
            ))),
            make_trace(),
            observers,
        );
    }
    let policy = build_oracle_policy_with_mode(base, sets, ways, mode);
    simulate(
        config,
        policy,
        Some(Box::new(OracleProvider::new(ann.shared_soon))),
        make_trace(),
        observers,
    )
}

/// Runs a predictor-driven sharing-aware wrapper around `base` (the
/// realistic end-to-end configuration of experiment `fig10`).
pub fn simulate_predictor_wrap<W, F>(
    config: &HierarchyConfig,
    base: PolicyKind,
    predictor: Box<dyn SharingPredictor>,
    make_trace: &mut F,
    observers: Vec<&mut dyn LlcObserver>,
) -> Result<RunResult, RunError>
where
    W: TraceSource,
    F: FnMut() -> W,
{
    let sets = config.llc.sets() as usize;
    let ways = config.llc.ways;
    let policy = Box::new(PredictorWrap::new(
        build_policy(base, sets, ways),
        predictor,
        sets,
        ways,
    ));
    simulate(config, policy, None, make_trace(), observers)
}

/// The default oracle retention horizon for a hierarchy: four times the
/// number of LLC lines. A block re-referenced within this many LLC
/// accesses is plausibly retainable; the factor is swept in the `abl1`
/// ablation.
///
/// The horizon makes the paper's fill-time oracle question — "will this
/// block be shared during its residency?" — policy-independent: the
/// oracle's answer at stream position `t` is whether a *different core*
/// touches the block within the next `window` LLC accesses
/// ([`Annotations::shared_soon`](crate::Annotations::shared_soon)).
/// Because the horizon grows with the cache, a larger LLC lets the oracle
/// protect shared blocks with longer re-reference distances, which is
/// exactly why the paper's oracle gains are larger at 8 MB than at 4 MB.
/// With an inclusive hierarchy the LLC reference stream is *not*
/// policy-independent, so the answers are an approximation there — the
/// `abl2` ablation quantifies the effect.
pub fn oracle_window(config: &HierarchyConfig) -> u64 {
    4 * config.llc.lines()
}

/// Observer recording every LLC access (block, core, PC, kind) plus the
/// interleaved coherence upgrades, in stream order — everything a
/// [`crate::replay::run`] needs to reproduce the LLC bit-identically.
#[derive(Debug, Default)]
pub struct StreamRecorder {
    /// One entry per LLC access.
    pub blocks: Vec<BlockAddr>,
    /// The issuing core of each access.
    pub cores: Vec<CoreId>,
    /// The program counter of each access.
    pub pcs: Vec<Pc>,
    /// Read or write.
    pub kinds: Vec<AccessKind>,
    /// Coherence upgrades, positioned by the number of LLC accesses that
    /// preceded them.
    pub upgrades: Vec<UpgradeEvent>,
}

impl StreamRecorder {
    /// Creates a recorder pre-sized from a trace length hint
    /// ([`TraceSource::len_hint`]). LLC accesses are the private caches'
    /// misses — typically a small fraction of the trace — so the capacity
    /// is a quarter of the hint, bounded to keep a corrupt hint from
    /// reserving gigabytes.
    pub fn with_capacity(len_hint: Option<u64>) -> Self {
        let cap = len_hint.map_or(0, |h| (h / 4).min(1 << 22) as usize);
        StreamRecorder {
            blocks: Vec::with_capacity(cap),
            cores: Vec::with_capacity(cap),
            pcs: Vec::with_capacity(cap),
            kinds: Vec::with_capacity(cap),
            upgrades: Vec::new(),
        }
    }

    fn push(&mut self, ctx: &AccessCtx) {
        self.blocks.push(ctx.block);
        self.cores.push(ctx.core);
        self.pcs.push(ctx.pc);
        self.kinds.push(ctx.kind);
    }
}

impl LlcObserver for StreamRecorder {
    fn on_hit(&mut self, ctx: &AccessCtx, _: &LiveGeneration, _: bool) {
        self.push(ctx);
    }
    fn on_fill(&mut self, ctx: &AccessCtx) {
        self.push(ctx);
    }
    fn on_upgrade(&mut self, block: BlockAddr, core: CoreId) {
        // `on_hit`/`on_fill` fire exactly once per LLC access, in order,
        // so `blocks.len()` is the LLC time this upgrade lands at.
        self.upgrades.push(UpgradeEvent {
            at: self.blocks.len() as u64,
            block,
            core,
        });
    }
}

/// Aux provider feeding next-use chains to OPT.
///
/// Annotation vectors are held behind [`Arc`] so set-sharded replays can
/// hand every shard its own provider without cloning megabytes of
/// annotations (see [`crate::replay::Exec::Shards`]).
#[derive(Debug, Clone)]
pub struct NextUseProvider {
    next_use: Arc<Vec<u64>>,
}

impl NextUseProvider {
    /// Wraps a next-use vector (`u64::MAX` = never used again).
    pub fn new(next_use: Vec<u64>) -> Self {
        NextUseProvider::shared(Arc::new(next_use))
    }

    /// Wraps an already-shared next-use vector.
    pub fn shared(next_use: Arc<Vec<u64>>) -> Self {
        NextUseProvider { next_use }
    }
}

impl AuxProvider for NextUseProvider {
    fn aux_for(&mut self, time: u64, _block: BlockAddr) -> Aux {
        let n = self
            .next_use
            .get(time as usize)
            .copied()
            .unwrap_or(u64::MAX);
        Aux {
            next_use: (n != u64::MAX).then_some(n),
            oracle_shared: None,
        }
    }
}

/// Aux provider feeding oracle sharing outcomes to [`OracleWrap`].
#[derive(Debug, Clone)]
pub struct OracleProvider {
    outcome: Arc<Vec<bool>>,
}

impl OracleProvider {
    /// Wraps an outcome vector indexed by LLC access stream position.
    pub fn new(outcome: Vec<bool>) -> Self {
        OracleProvider::shared(Arc::new(outcome))
    }

    /// Wraps an already-shared outcome vector.
    pub fn shared(outcome: Arc<Vec<bool>>) -> Self {
        OracleProvider { outcome }
    }
}

impl AuxProvider for OracleProvider {
    fn aux_for(&mut self, time: u64, _block: BlockAddr) -> Aux {
        let s = self.outcome.get(time as usize).copied().unwrap_or(false);
        Aux {
            next_use: None,
            oracle_shared: Some(s),
        }
    }
}

/// Aux provider feeding both annotation kinds (for `OracleWrap<Opt>`).
#[derive(Debug, Clone)]
pub struct CombinedProvider {
    next_use: Arc<Vec<u64>>,
    outcome: Arc<Vec<bool>>,
}

impl CombinedProvider {
    /// Combines a next-use vector and an outcome vector.
    pub fn new(next_use: Vec<u64>, outcome: Vec<bool>) -> Self {
        CombinedProvider::shared(Arc::new(next_use), Arc::new(outcome))
    }

    /// Combines already-shared annotation vectors.
    pub fn shared(next_use: Arc<Vec<u64>>, outcome: Arc<Vec<bool>>) -> Self {
        CombinedProvider { next_use, outcome }
    }
}

impl AuxProvider for CombinedProvider {
    fn aux_for(&mut self, time: u64, _block: BlockAddr) -> Aux {
        let n = self
            .next_use
            .get(time as usize)
            .copied()
            .unwrap_or(u64::MAX);
        let s = self.outcome.get(time as usize).copied().unwrap_or(false);
        Aux {
            next_use: (n != u64::MAX).then_some(n),
            oracle_shared: Some(s),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llc_trace::{App, Scale};

    fn cfg() -> HierarchyConfig {
        HierarchyConfig::tiny()
    }

    fn make(app: App) -> impl FnMut() -> llc_trace::Workload {
        move || app.workload(4, Scale::Tiny)
    }

    #[test]
    fn llc_stream_is_policy_independent() {
        let mut rec_lru = StreamRecorder::default();
        let mut rec_rand = StreamRecorder::default();
        let c = cfg();
        simulate(
            &c,
            build_policy(PolicyKind::Lru, c.llc.sets() as usize, c.llc.ways),
            None,
            make(App::Bodytrack)(),
            vec![&mut rec_lru],
        )
        .expect("run");
        simulate(
            &c,
            build_policy(PolicyKind::Random, c.llc.sets() as usize, c.llc.ways),
            None,
            make(App::Bodytrack)(),
            vec![&mut rec_rand],
        )
        .expect("run");
        assert_eq!(rec_lru.blocks, rec_rand.blocks);
        assert!(!rec_lru.blocks.is_empty());
    }

    #[test]
    fn next_use_chains_are_consistent() {
        let c = cfg();
        let mut rec = StreamRecorder::default();
        simulate(
            &c,
            build_policy(PolicyKind::Lru, c.llc.sets() as usize, c.llc.ways),
            None,
            make(App::Water)(),
            vec![&mut rec],
        )
        .expect("run");
        let stream = record_stream(&c, make(App::Water)()).expect("record");
        let next = compute_annotations(&stream, 0).next_use;
        assert_eq!(next.len(), rec.blocks.len());
        for (i, &n) in next.iter().enumerate() {
            if n != u64::MAX {
                let n = n as usize;
                assert!(n > i);
                assert_eq!(rec.blocks[n], rec.blocks[i], "chain broken at {i}");
                // No intervening access to the same block.
                for j in i + 1..n {
                    assert_ne!(rec.blocks[j], rec.blocks[i]);
                }
            }
        }
    }

    #[test]
    fn opt_beats_every_realistic_policy() {
        let c = cfg();
        for app in [App::Bodytrack, App::Fft, App::Canneal] {
            let opt = simulate_opt(&c, &mut make(app), vec![]).expect("run");
            for kind in [PolicyKind::Lru, PolicyKind::Srrip, PolicyKind::Random] {
                let r = simulate_kind(&c, kind, &mut make(app), vec![]).expect("run");
                assert!(
                    opt.llc.misses() <= r.llc.misses(),
                    "{app}: OPT {} > {} {}",
                    opt.llc.misses(),
                    kind,
                    r.llc.misses()
                );
                // Identical streams: same access counts.
                assert_eq!(opt.llc.accesses, r.llc.accesses);
            }
        }
    }

    #[test]
    fn oracle_never_hurts_much_and_usually_helps() {
        let c = cfg();
        for app in [App::Bodytrack, App::Streamcluster] {
            let lru = simulate_kind(&c, PolicyKind::Lru, &mut make(app), vec![]).expect("run");
            let oracle = simulate_oracle(
                &c,
                PolicyKind::Lru,
                ProtectMode::Eviction,
                None,
                &mut make(app),
                vec![],
            )
            .expect("run");
            assert_eq!(lru.llc.accesses, oracle.llc.accesses);
            // The oracle is an approximation (outcomes from the base run),
            // so allow a small regression margin but catch blow-ups.
            let limit = lru.llc.misses() + lru.llc.misses() / 20 + 10;
            assert!(
                oracle.llc.misses() <= limit,
                "{app}: oracle {} vs LRU {}",
                oracle.llc.misses(),
                lru.llc.misses()
            );
        }
    }

    #[test]
    fn shared_soon_matches_brute_force() {
        let c = cfg();
        let mut rec = StreamRecorder::default();
        simulate(
            &c,
            build_policy(PolicyKind::Lru, c.llc.sets() as usize, c.llc.ways),
            None,
            make(App::Dedup)(),
            vec![&mut rec],
        )
        .expect("run");
        let window = 64u64;
        let stream = record_stream(&c, make(App::Dedup)()).expect("record");
        let fast = compute_annotations(&stream, window).shared_soon;
        assert_eq!(fast.len(), rec.blocks.len());
        // Brute force on a prefix (quadratic).
        let n = rec.blocks.len().min(3000);
        for (i, &got) in fast.iter().enumerate().take(n) {
            let mut expected = false;
            for j in i + 1..rec.blocks.len().min(i + 1 + window as usize) {
                if rec.blocks[j] == rec.blocks[i] && rec.cores[j] != rec.cores[i] {
                    expected = true;
                    break;
                }
            }
            assert_eq!(got, expected, "mismatch at stream position {i}");
        }
        // The workload has sharing, so some positions must be positive.
        assert!(fast.iter().any(|&b| b));
        assert!(fast.iter().any(|&b| !b));
    }

    #[test]
    fn oracle_run_is_deterministic() {
        let c = cfg();
        let a = simulate_oracle(
            &c,
            PolicyKind::Lru,
            ProtectMode::Eviction,
            None,
            &mut make(App::Water),
            vec![],
        )
        .expect("run");
        let b = simulate_oracle(
            &c,
            PolicyKind::Lru,
            ProtectMode::Eviction,
            None,
            &mut make(App::Water),
            vec![],
        )
        .expect("run");
        assert_eq!(a.llc, b.llc);
    }

    #[test]
    fn run_result_mpki_uses_instructions() {
        let c = cfg();
        let r = simulate_kind(&c, PolicyKind::Lru, &mut make(App::Swaptions), vec![]).expect("run");
        assert!(r.instructions > r.trace_accesses);
        assert!(r.llc_mpki() > 0.0);
        assert!(r.l1_mpki() >= r.llc_mpki());
    }
}
