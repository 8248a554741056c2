//! The pipeline timing backend, shared by both front ends.
//!
//! [`Pipeline`] owns everything after "which instruction comes next": the
//! predictor and estimators, the speculative history, the register
//! scoreboard, the caches, the speculation window with its out-of-order
//! resolution, training at commit, quadrant recording, gating, the fetch
//! loop and the run loop. A [`FrontEnd`] supplies the instruction stream.
//! There are two: the architectural interpreter
//! ([`Simulator`](crate::Simulator), which can follow predictions down
//! wrong paths) and a cursor over an imported trace
//! ([`TraceSimulator`](crate::TraceSimulator)). The backend is generic
//! over its front end, so each pairing is monomorphised.

use crate::{Cache, EstimatorQuadrants, PipelineConfig, PipelineStats};
use crate::{FetchEvent, GateEvent, NullObserver, OutcomeEvent, PredictEvent, RecoveryEvent};
use crate::{ResolveEvent, SimObserver};
use cestim_bpred::{AnyPredictor, BranchPredictor, HistoryRegister, Prediction};
use cestim_core::{AnyEstimator, Confidence, ConfidenceEstimator};
use cestim_obs::{PhaseProfiler, PhaseTiming, Registry};
use cestim_trace_io::{TraceClass, NO_REG};
use std::collections::VecDeque;

/// Ready cycle per register byte. Every `u8` indexes in bounds, and the
/// [`NO_REG`] slot is never written, so it stays 0 and operand readiness
/// needs no branch on operand presence.
pub(crate) type Scoreboard = [u64; 256];

/// What fetch needs to know about the next instruction before it executes:
/// its address, class, and source and destination register bytes
/// ([`NO_REG`] for none).
#[derive(Debug, Clone, Copy)]
pub struct Decoded {
    pub(crate) pc: u32,
    pub(crate) class: TraceClass,
    pub(crate) s1: u8,
    pub(crate) s2: u8,
    pub(crate) dst: u8,
}

/// A source of instructions for the [`Pipeline`] backend.
///
/// Fetch calls [`peek`](FrontEnd::peek), then one of the `step` methods
/// to execute the peeked instruction. A front end that follows
/// predictions also checkpoints at each conditional branch and rewinds
/// when one resolves mispredicted; one that does not gets the backend's
/// no-wrong-path policy instead.
pub trait FrontEnd {
    /// The next instruction as the front end holds it, handed back to the
    /// `step` methods so they need not look it up again.
    type Next: Copy;

    /// Front-end state saved at a conditional branch.
    type Checkpoint;

    /// `true` if fetch follows each prediction, right or wrong. `false`
    /// selects the no-wrong-path policy: fetch follows the actual path,
    /// the history receives actual outcomes, and a misprediction stalls
    /// fetch until `resolve + 1 + mispredict_penalty` instead of
    /// squashing.
    fn follows_predictions(&self) -> bool;

    /// The next instruction on the fetch path, or `None` when fetch must
    /// wait: a wrong path left the program, or — with nothing in flight —
    /// the stream ended.
    fn peek(&self) -> Option<Self::Next>;

    /// What fetch needs to know about `next` before executing it.
    fn decoded(next: &Self::Next) -> Decoded;

    /// Executes the peeked instruction `next` (not a conditional branch)
    /// and returns its memory word address (0 unless a load or store).
    fn step(&mut self, next: Self::Next) -> u32;

    /// Executes the peeked conditional branch `next`, following
    /// `predicted` if this front end follows predictions; returns the
    /// actual direction.
    fn step_branch(&mut self, next: Self::Next, predicted: bool) -> bool;

    /// Saves state at the conditional branch about to be stepped.
    fn checkpoint(&mut self) -> Self::Checkpoint;

    /// Hears that scoreboard slot `reg` is about to be overwritten; `old`
    /// is its previous ready cycle.
    fn scoreboard_write(&mut self, _reg: u8, _old: u64) {}

    /// Rewinds to `cp` and re-executes its branch down `actual`. On
    /// return the stream holds exactly `arch_insts` instructions and
    /// `scoreboard` is as it was after the branch was fetched. Only called
    /// when [`follows_predictions`](FrontEnd::follows_predictions).
    fn rewind(
        &mut self,
        _cp: &Self::Checkpoint,
        _actual: bool,
        _arch_insts: u64,
        _scoreboard: &mut Scoreboard,
    ) {
        unreachable!("a front end that never follows predictions never rewinds")
    }

    /// Drops `cp`: its branch committed, so nothing older is needed.
    fn release(&mut self, _cp: &Self::Checkpoint) {}
}

/// One fetched, not-yet-committed conditional branch.
#[derive(Debug)]
struct Inflight<C> {
    seq: u64,
    pc: u32,
    pred: Prediction,
    actual_taken: bool,
    mispredicted: bool,
    ghr_at_predict: u32,
    /// Slot in the [`EstimateSlab`] holding this branch's per-estimator
    /// confidence estimates.
    est_slot: u32,
    /// Estimator 0's estimate was low confidence (cached here so gating
    /// never touches the slab).
    est0_low: bool,
    cp: C,
    cp_arch_insts: u64,
    cp_arch_branches: u64,
    fetch_cycle: u64,
    resolved: bool,
    resolve_cycle: Option<u64>,
    /// Eager execution forked both paths of this branch.
    forked: bool,
}

/// Preallocated pool of per-branch estimate rows.
///
/// The speculation window bounds the number of in-flight branches, so the
/// per-estimator confidence estimates of every in-flight branch live in one
/// flat buffer of `window × n_estimators` entries, handed out as fixed-width
/// rows through a free list. The hot path allocates nothing per fetched
/// branch (sweep experiments attach 30–60 estimators to one pipeline, so an
/// inline array is not an option).
#[derive(Debug)]
struct EstimateSlab {
    width: usize,
    buf: Vec<Confidence>,
    free: Vec<u32>,
}

impl EstimateSlab {
    fn new(width: usize, slots: usize) -> EstimateSlab {
        EstimateSlab {
            width,
            buf: vec![Confidence::High; width * slots],
            free: (0..slots as u32).rev().collect(),
        }
    }

    #[inline]
    fn alloc(&mut self) -> u32 {
        self.free
            .pop()
            .expect("slab has one slot per speculation-window entry")
    }

    #[inline]
    fn release(&mut self, slot: u32) {
        debug_assert!(!self.free.contains(&slot), "double release");
        self.free.push(slot);
    }

    #[inline]
    fn row(&self, slot: u32) -> &[Confidence] {
        let start = slot as usize * self.width;
        &self.buf[start..start + self.width]
    }

    #[inline]
    fn row_mut(&mut self, slot: u32) -> &mut [Confidence] {
        let start = slot as usize * self.width;
        &mut self.buf[start..start + self.width]
    }
}

/// The pipeline timing model: the measurement vehicle of the paper.
///
/// A `fetch_width`-wide front end feeds a window of at most
/// `max_unresolved_branches` in-flight conditional branches, in which
///
/// * branches resolve when their operands are ready (register scoreboard;
///   loads add D-cache latency; multiply and divide take 3 and 12 cycles),
///   so resolution is out of order and takes a variable number of cycles —
///   the effect behind the paper's "perceived" misprediction distance
///   (Figs 8–9),
/// * a resolving misprediction recovers: with a front end that follows
///   predictions, it squashes younger work, rewinds the front end, repairs
///   the speculative history, and charges the configured extra penalty;
///   under the no-wrong-path policy (a front end that follows the actual
///   path) the stall was charged at fetch and nothing is squashed,
/// * predictor and estimator tables train at commit, in program order;
///   estimators additionally hear every *resolution* via
///   [`ConfidenceEstimator::on_branch_resolved`] and the modeled resolve
///   latency of every fetched branch before estimating it.
///
/// Any number of confidence estimators can be attached
/// ([`add_estimator`](Pipeline::add_estimator)); each is queried at every
/// branch fetch and gets its own all/committed [`EstimatorQuadrants`] — one
/// pipeline pass evaluates a whole sweep of estimator configurations.
/// Estimator 0 drives pipeline gating and eager forking.
///
/// Use it through [`Simulator`](crate::Simulator) or
/// [`TraceSimulator`](crate::TraceSimulator).
pub struct Pipeline<F: FrontEnd> {
    fe: F,
    cfg: PipelineConfig,
    predictor: AnyPredictor,
    estimators: Vec<AnyEstimator>,
    estimator_labels: Vec<String>,
    quadrants: Vec<EstimatorQuadrants>,
    est_slab: EstimateSlab,
    ghr: HistoryRegister,
    scoreboard: Scoreboard,
    icache: Cache,
    dcache: Cache,
    inflight: VecDeque<Inflight<F::Checkpoint>>,
    /// Resolve deadline of each in-flight branch, in lockstep with
    /// `inflight` (`u64::MAX` once resolved). The per-cycle resolution scan
    /// walks this one-cache-line ring instead of the full `Inflight`
    /// payloads.
    resolve_track: VecDeque<u64>,
    /// Scratch `(deadline, index)` list of due resolutions, reused across
    /// scans.
    due_buf: Vec<(u64, u32)>,
    now: u64,
    fetch_stall_until: u64,
    /// Earliest `resolve_at` among unresolved in-flight branches (stale-low
    /// is allowed; `u64::MAX` when none). Lets the per-cycle resolution scan
    /// exit without touching the in-flight queue on most cycles.
    resolve_soonest: u64,
    branch_seq: u64,
    arch_insts: u64,
    arch_branches: u64,
    stats: PipelineStats,
    profiler: PhaseProfiler,
    fault_commit_every: u64,
    fault_commit_seen: u64,
}

impl<F: FrontEnd> Pipeline<F> {
    /// Builds the backend around front end `fe`.
    ///
    /// # Panics
    ///
    /// Panics if [`PipelineConfig::validate`] rejects `cfg`, or if `fe`
    /// does not follow predictions and eager execution is configured.
    pub(crate) fn with_front_end(
        fe: F,
        cfg: PipelineConfig,
        predictor: impl Into<AnyPredictor>,
    ) -> Pipeline<F> {
        if let Err(e) = cfg.validate() {
            panic!("invalid pipeline configuration: {e}");
        }
        let window = cfg.max_unresolved_branches;
        let pipeline = Pipeline {
            fe,
            predictor: predictor.into(),
            estimators: Vec::new(),
            estimator_labels: Vec::new(),
            quadrants: Vec::new(),
            est_slab: EstimateSlab::new(0, window),
            ghr: HistoryRegister::new(cfg.ghr_width),
            scoreboard: [0; 256],
            icache: Cache::new(cfg.icache),
            dcache: Cache::new(cfg.dcache),
            inflight: VecDeque::with_capacity(window),
            resolve_track: VecDeque::with_capacity(window),
            due_buf: Vec::with_capacity(window),
            cfg,
            now: 0,
            fetch_stall_until: 0,
            resolve_soonest: u64::MAX,
            branch_seq: 0,
            arch_insts: 0,
            arch_branches: 0,
            stats: PipelineStats::default(),
            profiler: PhaseProfiler::default(),
            fault_commit_every: 0,
            fault_commit_seen: 0,
        };
        pipeline.check_policy();
        pipeline
    }

    #[cfg(test)]
    pub(crate) fn front_end(&self) -> &F {
        &self.fe
    }

    pub(crate) fn front_end_mut(&mut self) -> &mut F {
        &mut self.fe
    }

    /// Changes front-end settings with `f`, then re-checks the policy.
    ///
    /// # Panics
    ///
    /// Panics if branches are in flight, or if the front end no longer
    /// follows predictions and eager execution is configured.
    pub(crate) fn reconfigure(&mut self, f: impl FnOnce(&mut F)) {
        assert!(
            self.inflight.is_empty(),
            "switch fetch modes before branches are in flight"
        );
        f(&mut self.fe);
        self.check_policy();
    }

    /// Eager execution forks wrong paths, so it needs a front end that
    /// follows predictions.
    fn check_policy(&self) {
        assert!(
            self.fe.follows_predictions() || self.cfg.eager_max_forks.is_none(),
            "the no-wrong-path policy is incompatible with eager execution"
        );
    }

    /// Test-support hook: corrupt the *reported* outcome of every
    /// `every`-th committed branch (its `actual_taken` direction is flipped
    /// in the observer/trace commit stream, while architectural state,
    /// statistics and training stay untouched). `0` disables the fault.
    ///
    /// This simulates a commit-stream bug for the differential-testing
    /// harness in `cestim-qa`: oracle 1 (interpreter vs. pipeline commit
    /// stream) must catch it and shrink the triggering program. The hook is
    /// only ever enabled explicitly — by QA tooling, typically behind the
    /// `CESTIM_QA_FAULT` environment variable — and has zero cost when off.
    #[doc(hidden)]
    pub fn inject_commit_fault(&mut self, every: u64) {
        self.fault_commit_every = every;
        self.fault_commit_seen = 0;
    }

    /// Enables (or disables) per-phase wall-clock profiling of
    /// [`step_cycle`](Pipeline::step_cycle)'s resolve/commit/fetch phases.
    /// Resets any previously accumulated timings.
    pub fn set_profiling(&mut self, enabled: bool) {
        self.profiler = PhaseProfiler::new(enabled);
    }

    /// Accumulated per-phase wall-clock timings (empty unless profiling was
    /// enabled).
    pub fn phase_timings(&self) -> Vec<PhaseTiming> {
        self.profiler.timings()
    }

    /// Exports the run's statistics, per-estimator quadrants, and phase
    /// timings into `registry` under the given base labels. Call after the
    /// run completes (counters like `pipeline.cycles` are finalized by
    /// [`run`](Pipeline::run) / [`finish`](Pipeline::finish)).
    pub fn export_metrics(&self, registry: &Registry, labels: &[(&str, &str)]) {
        let s = &self.stats;
        for (name, v) in [
            ("pipeline.cycles", s.cycles),
            ("pipeline.fetched_insts", s.fetched_insts),
            ("pipeline.committed_insts", s.committed_insts),
            ("pipeline.squashed_insts", s.squashed_insts),
            ("pipeline.fetched_branches", s.fetched_branches),
            ("pipeline.committed_branches", s.committed_branches),
            ("pipeline.squashed_branches", s.squashed_branches),
            ("pipeline.mispredicted_committed", s.mispredicted_committed),
            ("pipeline.mispredicted_all", s.mispredicted_all),
            ("pipeline.recoveries", s.recoveries),
            ("pipeline.gated_cycles", s.gated_cycles),
            ("pipeline.icache_accesses", s.icache_accesses),
            ("pipeline.icache_misses", s.icache_misses),
            ("pipeline.dcache_accesses", s.dcache_accesses),
            ("pipeline.dcache_misses", s.dcache_misses),
        ] {
            registry.counter(name, labels).set(v);
        }
        for (name, v) in [
            ("pipeline.ipc", s.ipc()),
            ("pipeline.accuracy_committed", s.accuracy_committed()),
            (
                "pipeline.mispredict_rate_committed",
                s.mispredict_rate_committed(),
            ),
            ("pipeline.icache_miss_rate", s.icache_miss_rate()),
            ("pipeline.speculation_ratio", s.speculation_ratio()),
        ] {
            registry.float_gauge(name, labels).set(v);
        }
        let names = self.estimator_names();
        for (name, q) in names.iter().zip(&self.quadrants) {
            for (population, quad) in [("all", &q.all), ("committed", &q.committed)] {
                for (cell, v) in [
                    ("c_hc", quad.c_hc),
                    ("i_hc", quad.i_hc),
                    ("c_lc", quad.c_lc),
                    ("i_lc", quad.i_lc),
                ] {
                    let mut l = labels.to_vec();
                    l.push(("estimator", name.as_str()));
                    l.push(("population", population));
                    l.push(("cell", cell));
                    registry.counter("estimator.quadrant", &l).set(v);
                }
            }
        }
        for t in self.profiler.timings() {
            let mut l = labels.to_vec();
            l.push(("phase", &t.name));
            registry.counter("pipeline.phase_nanos", &l).set(t.nanos);
            registry.counter("pipeline.phase_calls", &l).set(t.calls);
        }
    }

    /// Attaches a confidence estimator; returns its index (the order of
    /// [`estimator_quadrants`](Pipeline::estimator_quadrants) and of the
    /// `estimates` slices in events). Estimator 0 drives pipeline gating
    /// when enabled.
    ///
    /// Accepts anything convertible into [`AnyEstimator`] — a concrete
    /// estimator, a boxed concrete estimator (unboxed into the statically
    /// dispatched variant), or a `Box<dyn ConfidenceEstimator>`.
    ///
    /// # Panics
    ///
    /// Panics if branches are already in flight (attach all estimators
    /// before running).
    pub fn add_estimator(&mut self, estimator: impl Into<AnyEstimator>) -> usize {
        assert!(
            self.inflight.is_empty(),
            "estimators must be attached before branches are in flight"
        );
        let estimator = estimator.into();
        self.estimator_labels.push(estimator.name());
        self.estimators.push(estimator);
        self.quadrants.push(EstimatorQuadrants::default());
        self.est_slab = EstimateSlab::new(self.estimators.len(), self.cfg.max_unresolved_branches);
        self.quadrants.len() - 1
    }

    /// Names of the attached estimators, in index order (computed once at
    /// [`add_estimator`](Pipeline::add_estimator) time).
    pub fn estimator_names(&self) -> &[String] {
        &self.estimator_labels
    }

    /// Per-estimator quadrants accumulated so far.
    pub fn estimator_quadrants(&self) -> &[EstimatorQuadrants] {
        &self.quadrants
    }

    /// Statistics accumulated so far (finalized counts only after the run
    /// completes).
    pub fn stats(&self) -> &PipelineStats {
        &self.stats
    }

    /// Runs to completion with no observer.
    pub fn run_to_completion(&mut self) -> PipelineStats {
        self.run(&mut NullObserver)
    }

    /// Runs to completion (instruction stream exhausted with an empty
    /// pipeline, or `max_cycles`), streaming events to `obs`. Returns the
    /// final stats.
    ///
    /// If a cooperative deadline is armed on this thread
    /// ([`cestim_obs::cancel::arm`]), the loop polls the wall clock every
    /// `check_every` simulated cycles and abandons the run via
    /// [`cestim_obs::cancel::fire`] once the deadline passes — so an
    /// overdue job releases its worker instead of running to completion.
    /// The poll is alloc-free and costs one thread-local read when no
    /// token is armed.
    pub fn run<O: SimObserver + ?Sized>(&mut self, obs: &mut O) -> PipelineStats {
        let cancel = cestim_obs::cancel::current();
        let mut cancel_at = cancel.map(|c| self.now.saturating_add(c.check_every));
        while !self.done() && self.now < self.cfg.max_cycles {
            if let (Some(at), Some(token)) = (cancel_at, &cancel) {
                if self.now >= at {
                    if token.expired() {
                        cestim_obs::cancel::fire();
                    }
                    cancel_at = Some(self.now.saturating_add(token.check_every));
                }
            }
            self.step_cycle(true, obs);
            // While fetch is stalled (I-cache miss, mispredict penalty)
            // nothing can happen until the stall ends or a branch resolves:
            // resolutions before `resolve_soonest` are impossible, commit
            // drained every resolved head this cycle, and a stalled fetch
            // returns before it counts gated cycles. Jump straight to the
            // first cycle with work; every skipped cycle would have been a
            // no-op, so the cycle count is unchanged.
            if self.now < self.fetch_stall_until {
                let target = self
                    .fetch_stall_until
                    .min(self.resolve_soonest)
                    .min(self.cfg.max_cycles);
                self.now = self.now.max(target);
            }
        }
        self.finish()
    }

    /// `true` once the instruction stream is exhausted and the pipeline
    /// has drained.
    pub fn done(&self) -> bool {
        self.inflight.is_empty() && self.fe.peek().is_none()
    }

    fn finalize(&mut self) {
        self.stats.cycles = self.now;
        self.stats.committed_insts = self.arch_insts;
        // `arch + squashed` is invariant under recovery (it moves counts
        // from one to the other), so the fetched totals need no per-fetch
        // increments.
        self.stats.fetched_insts = self.arch_insts + self.stats.squashed_insts;
        self.stats.fetched_branches = self.arch_branches + self.stats.squashed_branches;
        self.stats.icache_accesses = self.icache.accesses();
        self.stats.icache_misses = self.icache.misses();
        self.stats.dcache_accesses = self.dcache.accesses();
        self.stats.dcache_misses = self.dcache.misses();
    }

    /// Advances the pipeline by one cycle, fetching only when `allow_fetch`
    /// is true. Resolution, recovery, and commit always proceed.
    ///
    /// This is the building block for multi-threaded front-ends: an
    /// arbiter (e.g. [`SmtSimulator`](crate::SmtSimulator)) grants the
    /// shared fetch bandwidth to one thread per cycle, while every
    /// thread's back end keeps draining.
    pub fn step_cycle<O: SimObserver + ?Sized>(&mut self, allow_fetch: bool, obs: &mut O) {
        if self.profiler.enabled() {
            let p = self.profiler.phase("resolve");
            let t = self.profiler.start();
            self.process_resolutions(obs);
            self.profiler.stop(p, t);

            let p = self.profiler.phase("commit");
            let t = self.profiler.start();
            self.process_commits(obs);
            self.profiler.stop(p, t);

            if allow_fetch {
                let p = self.profiler.phase("fetch");
                let t = self.profiler.start();
                self.fetch(obs);
                self.profiler.stop(p, t);
            }
        } else {
            // A head can only be newly resolved — and therefore newly
            // committable — in a cycle where a resolution fires, so both
            // phases sit behind the resolution wake-up check.
            if self.now >= self.resolve_soonest {
                self.process_resolutions(obs);
                self.process_commits(obs);
            }
            if allow_fetch {
                self.fetch(obs);
            }
        }
        self.now += 1;
    }

    /// Finalizes and returns the statistics (for externally driven
    /// cycling; [`run`](Pipeline::run) calls it). With phase profiling on
    /// and an ambient span context installed, it also publishes the
    /// per-phase totals as summary child spans.
    pub fn finish(&mut self) -> PipelineStats {
        self.finalize();
        self.profiler.emit_ambient_spans();
        self.stats
    }

    /// Number of fetched-but-unresolved branches currently in flight.
    pub fn outstanding_branches(&self) -> usize {
        self.inflight.iter().filter(|e| !e.resolved).count()
    }

    /// Number of in-flight unresolved branches whose estimate from the
    /// estimator at `index` was low confidence.
    pub fn outstanding_low_confidence(&self, index: usize) -> usize {
        self.inflight
            .iter()
            .filter(|e| {
                !e.resolved
                    && self
                        .est_slab
                        .row(e.est_slot)
                        .get(index)
                        .is_some_and(|c| c.is_low())
            })
            .count()
    }

    /// The estimate (from estimator `index`) of the most recently fetched
    /// branch, if any branch is still in flight.
    pub fn last_estimate(&self, index: usize) -> Option<Confidence> {
        self.inflight
            .back()
            .and_then(|e| self.est_slab.row(e.est_slot).get(index))
            .copied()
    }

    /// Current simulated cycle of this pipeline.
    pub fn now(&self) -> u64 {
        self.now
    }

    // ---- resolution & recovery ------------------------------------------

    fn process_resolutions<O: SimObserver + ?Sized>(&mut self, obs: &mut O) {
        // Fast path: nothing can resolve yet. `resolve_soonest` may be
        // stale-low (pointing at a branch that was squashed), which only
        // costs one wasted scan — it is never stale-high.
        if self.now < self.resolve_soonest {
            return;
        }
        // One scan collects every due entry and the earliest not-yet-due
        // deadline (the window's next wake-up; resolved entries carry a
        // `u64::MAX` sentinel). Resolutions fire in (deadline, seq) order —
        // the queue is in fetch (= seq) order, so sorting (deadline, index)
        // pairs gives exactly that. No rescan is needed even across
        // recoveries: a recovery only pops entries *younger* than the
        // mispredicted branch, deadlines never change, and no entry is
        // pushed while resolving — so each queued firing stays valid unless
        // its entry was squashed, which the deadline recheck detects.
        let mut soonest = u64::MAX;
        self.due_buf.clear();
        for (i, &at) in self.resolve_track.iter().enumerate() {
            if at <= self.now {
                self.due_buf.push((at, i as u32));
            } else if at != u64::MAX {
                soonest = soonest.min(at);
            }
        }
        if self.due_buf.len() > 1 {
            self.due_buf.sort_unstable();
        }
        let mut due_buf = std::mem::take(&mut self.due_buf);
        for &(at, idx) in &due_buf {
            let idx = idx as usize;
            if idx < self.resolve_track.len() && self.resolve_track[idx] == at {
                self.resolve_one(idx, obs);
            }
        }
        due_buf.clear();
        self.due_buf = due_buf;
        // Stale-low is fine (squashed entries may make the true next
        // deadline later); it costs one wasted scan, never a missed one.
        self.resolve_soonest = soonest;
    }

    fn resolve_one<O: SimObserver + ?Sized>(&mut self, idx: usize, obs: &mut O) {
        let (seq, pc, mispredicted) = {
            let e = &mut self.inflight[idx];
            e.resolved = true;
            e.resolve_cycle = Some(self.now);
            (e.seq, e.pc, e.mispredicted)
        };
        self.resolve_track[idx] = u64::MAX;
        for est in &mut self.estimators {
            est.on_branch_resolved(mispredicted);
        }
        obs.on_branch_resolved(&ResolveEvent {
            seq,
            pc,
            mispredicted,
            cycle: self.now,
        });
        if mispredicted {
            self.stats.recoveries += 1;
            // Under the no-wrong-path policy the stall was charged at fetch
            // and nothing younger is on a wrong path: the recovery squashes
            // nothing and rewinds nothing.
            let (squashed, penalty) = if self.fe.follows_predictions() {
                self.rewind(idx, obs)
            } else {
                (0, self.cfg.mispredict_penalty)
            };
            obs.on_recovery(&RecoveryEvent {
                seq,
                pc,
                cycle: self.now,
                squashed,
                penalty,
            });
        }
    }

    /// Rewinds to the checkpoint of the mispredicted branch at `idx`,
    /// squashing everything younger. Returns the squashed branch count and
    /// the penalty charged.
    fn rewind<O: SimObserver + ?Sized>(&mut self, idx: usize, obs: &mut O) -> (u32, u64) {
        let squashed = (self.inflight.len() - idx - 1) as u32;

        // Squash younger branches (they were fetched down the wrong path).
        while self.inflight.len() > idx + 1 {
            let victim = self.inflight.pop_back().expect("victim exists");
            self.resolve_track.pop_back();
            self.record_outcome(&victim, false, obs);
            self.est_slab.release(victim.est_slot);
        }

        let e = &self.inflight[idx];
        // Wrong-path work after this branch, excluding the branch itself
        // (which commits once re-steered).
        self.stats.squashed_insts += self.arch_insts - (e.cp_arch_insts + 1);
        self.stats.squashed_branches += self.arch_branches - (e.cp_arch_branches + 1);
        self.arch_insts = e.cp_arch_insts + 1;
        self.arch_branches = e.cp_arch_branches + 1;

        // Rewind the front end, then re-execute the branch down its correct
        // direction.
        let actual = e.actual_taken;
        self.fe
            .rewind(&e.cp, actual, self.arch_insts, &mut self.scoreboard);

        // Repair the speculative history: outcomes up to the branch, then
        // the branch's actual direction.
        self.ghr.set(e.ghr_at_predict);
        self.ghr.push(actual);

        // Flush: fetch resumes after the extra recovery penalty — unless
        // this branch had an eager fork, in which case the alternate path
        // is already warm and the re-steer is free.
        let penalty = if e.forked {
            self.stats.eager_covered += 1;
            0
        } else {
            self.fetch_stall_until = self
                .fetch_stall_until
                .max(self.now + 1 + self.cfg.mispredict_penalty);
            self.cfg.mispredict_penalty
        };
        (squashed, penalty)
    }

    // ---- commit ----------------------------------------------------------

    fn process_commits<O: SimObserver + ?Sized>(&mut self, obs: &mut O) {
        while self.inflight.front().is_some_and(|e| e.resolved) {
            let head = self.inflight.pop_front().expect("head exists");
            self.resolve_track.pop_front();
            let correct = !head.mispredicted;
            self.predictor
                .update(head.pc, head.actual_taken, &head.pred);
            for est in self.estimators.iter_mut() {
                est.update(head.pc, head.ghr_at_predict, &head.pred, correct);
            }
            self.stats.committed_branches += 1;
            if head.mispredicted {
                self.stats.mispredicted_committed += 1;
            }
            self.record_outcome(&head, true, obs);
            self.est_slab.release(head.est_slot);
            self.fe.release(&head.cp);
        }
    }

    fn record_outcome<O: SimObserver + ?Sized>(
        &mut self,
        e: &Inflight<F::Checkpoint>,
        committed: bool,
        obs: &mut O,
    ) {
        let correct = !e.mispredicted;
        if e.mispredicted {
            self.stats.mispredicted_all += 1;
        }
        let estimates = self.est_slab.row(e.est_slot);
        for (q, &c) in self.quadrants.iter_mut().zip(estimates) {
            q.all.record(correct, c);
            if committed {
                q.committed.record(correct, c);
            }
        }
        // Injected commit-stream fault (test support; see
        // `inject_commit_fault`): flip the reported direction of every Nth
        // committed branch without touching architectural state.
        let mut actual_taken = e.actual_taken;
        let mut mispredicted = e.mispredicted;
        if committed && self.fault_commit_every > 0 {
            self.fault_commit_seen += 1;
            if self
                .fault_commit_seen
                .is_multiple_of(self.fault_commit_every)
            {
                actual_taken = !actual_taken;
                mispredicted = e.pred.taken != actual_taken;
            }
        }
        obs.on_branch_outcome(&OutcomeEvent {
            seq: e.seq,
            pc: e.pc,
            predicted_taken: e.pred.taken,
            actual_taken,
            mispredicted,
            committed,
            fetch_cycle: e.fetch_cycle,
            resolve_cycle: e.resolve_cycle,
            ghr: e.ghr_at_predict,
            estimates,
        });
    }

    // ---- fetch -----------------------------------------------------------

    pub(crate) fn active_forks(&self) -> u32 {
        self.inflight
            .iter()
            .filter(|e| !e.resolved && e.forked)
            .count() as u32
    }

    /// When gating is enabled and the threshold is met, returns the number
    /// of low-confidence unresolved branches in flight.
    fn gated(&self) -> Option<u32> {
        let threshold = self.cfg.gate_threshold?;
        let lc = self
            .inflight
            .iter()
            .filter(|e| !e.resolved && e.est0_low)
            .count() as u32;
        (lc >= threshold).then_some(lc)
    }

    fn fetch<O: SimObserver + ?Sized>(&mut self, obs: &mut O) {
        if self.now < self.fetch_stall_until {
            return;
        }
        if let Some(low_confidence) = self.gated() {
            self.stats.gated_cycles += 1;
            obs.on_fetch_gated(&GateEvent {
                cycle: self.now,
                low_confidence,
            });
            return;
        }
        let arch_before = self.arch_insts;
        // Active eager forks consume half the fetch slots for the
        // alternate paths.
        let mut width = self.cfg.fetch_width;
        if self.cfg.eager_max_forks.is_some() && self.active_forks() > 0 {
            let alt = width / 2;
            self.stats.eager_alt_slots += alt as u64;
            width -= alt;
        }
        let Some(burst_pc) = self.fe.peek().map(|next| F::decoded(&next).pc) else {
            return;
        };
        // I-cache accesses for a sequential run on one line are batched
        // into a single counter update at the end of the run (fetch is the
        // I-cache's only client, so no access can interleave).
        let mut run_line = u32::MAX;
        let mut run_hits = 0u64;
        for _ in 0..width {
            let Some(next) = self.fe.peek() else {
                break;
            };
            let decoded = F::decoded(&next);
            let pc = decoded.pc;
            let line = self.icache.line_of(pc);
            if line == run_line {
                // Repeat access to the most recent line: guaranteed hit
                // (only another access could evict it); account it at the
                // end of the run.
                run_hits += 1;
            } else {
                if run_hits > 0 {
                    self.icache.repeat_hits(run_hits);
                    run_hits = 0;
                }
                let access = self.icache.access(pc);
                run_line = line;
                if !access.hit {
                    self.fetch_stall_until = self.now + access.latency;
                    break;
                }
            }

            if decoded.class == TraceClass::CondBranch {
                if self.inflight.len() >= self.cfg.max_unresolved_branches {
                    break;
                }
                if self.fetch_branch(next, decoded, obs) {
                    break;
                }
            } else if !self.fetch_straightline(next, decoded) {
                break;
            }
        }
        if run_hits > 0 {
            self.icache.repeat_hits(run_hits);
        }
        // Every fetched instruction bumps `arch_insts` exactly once, and no
        // recovery can run mid-burst.
        let count = (self.arch_insts - arch_before) as u32;
        if count > 0 {
            obs.on_fetch(&FetchEvent {
                cycle: self.now,
                pc: burst_pc,
                count,
            });
        }
    }

    /// Fetches a conditional branch; returns `true` when the burst must end
    /// (a taken redirect on the followed path, or a no-wrong-path stall).
    fn fetch_branch<O: SimObserver + ?Sized>(
        &mut self,
        next: F::Next,
        decoded: Decoded,
        obs: &mut O,
    ) -> bool {
        let pc = decoded.pc;
        let ghr_val = self.ghr.value();
        let pred = self.predictor.predict(pc, ghr_val);
        // Resolution timing is known at fetch from the scoreboard (branches
        // write no registers, so executing the branch cannot change it).
        // Feed the modeled latency to each estimator before it estimates —
        // the timing estimator's input signal.
        let resolve_at =
            self.operands_ready(decoded.s1, decoded.s2) + self.cfg.branch_resolve_latency;
        let resolve_latency = resolve_at - self.now;
        let est_slot = self.est_slab.alloc();
        let row = self.est_slab.row_mut(est_slot);
        for (e, out) in self.estimators.iter_mut().zip(row.iter_mut()) {
            e.note_resolve_latency(resolve_latency);
            *out = e.estimate(pc, ghr_val, &pred);
        }
        let est0_low = row.first().is_some_and(|c| c.is_low());

        // Eager execution: fork both paths of a low-confidence branch
        // (decided by estimator 0) while fork capacity remains.
        let forked = match self.cfg.eager_max_forks {
            Some(max) => est0_low && self.active_forks() < max,
            None => false,
        };
        if forked {
            self.stats.eager_forks += 1;
        }

        // Checkpoint *before* executing the branch: rewinding must land on
        // the branch so the correct direction can be re-executed.
        let cp = self.fe.checkpoint();
        let cp_arch_insts = self.arch_insts;
        let cp_arch_branches = self.arch_branches;
        let wrong_path = self.fe.follows_predictions();
        let actual_taken = self.fe.step_branch(next, pred.taken);
        let mispredicted = actual_taken != pred.taken;

        let seq = self.branch_seq;
        self.branch_seq += 1;
        self.arch_insts += 1;
        self.arch_branches += 1;
        self.resolve_soonest = self.resolve_soonest.min(resolve_at);
        if wrong_path {
            self.ghr.push(pred.taken);
        } else {
            // No-wrong-path policy: the history receives the actual
            // outcome — the value a live recovery would repair it to by
            // resolution time, and no younger fetch can observe it earlier
            // because a misprediction stalls fetch past that resolution.
            self.ghr.push(actual_taken);
            if mispredicted {
                // Charge the recovery stall at fetch: resolution fires
                // exactly at `resolve_at`, so this equals the `now + 1 +
                // penalty` a rewinding recovery computes.
                self.fetch_stall_until = self
                    .fetch_stall_until
                    .max(resolve_at + 1 + self.cfg.mispredict_penalty);
            }
        }

        let estimates = self.est_slab.row(est_slot);
        obs.on_branch_predicted(&PredictEvent {
            seq,
            pc,
            predicted_taken: pred.taken,
            actual_taken,
            mispredicted,
            cycle: self.now,
            ghr: ghr_val,
            estimates,
        });

        self.resolve_track.push_back(resolve_at);
        self.inflight.push_back(Inflight {
            seq,
            pc,
            pred,
            actual_taken,
            mispredicted,
            ghr_at_predict: ghr_val,
            est_slot,
            est0_low,
            cp,
            cp_arch_insts,
            cp_arch_branches,
            fetch_cycle: self.now,
            resolved: false,
            resolve_cycle: None,
            forked,
        });
        if wrong_path {
            pred.taken
        } else {
            actual_taken || mispredicted
        }
    }

    /// Fetches a non-branch instruction; returns `false` when fetch must
    /// stop for this cycle (control redirect or halt).
    fn fetch_straightline(&mut self, next: F::Next, decoded: Decoded) -> bool {
        let operands_ready = self.operands_ready(decoded.s1, decoded.s2);
        let addr = self.fe.step(next);
        self.arch_insts += 1;
        let (latency, redirect) = match decoded.class {
            TraceClass::Load => (self.dcache.access(addr).latency, false),
            TraceClass::Store => {
                // Stores retire through a store buffer; they cost a D-cache
                // access but do not stall dependents.
                let _ = self.dcache.access(addr);
                (1, false)
            }
            TraceClass::Alu => (1, false),
            TraceClass::Mul => (3, false),
            TraceClass::Div => (12, false),
            TraceClass::Jump | TraceClass::Call | TraceClass::Ret => (1, true),
            // Counted as fetched; stops the fetch group.
            TraceClass::Halt => return false,
            TraceClass::CondBranch => unreachable!("handled before straightline fetch"),
        };
        if decoded.dst != NO_REG {
            let slot = &mut self.scoreboard[decoded.dst as usize];
            let old = std::mem::replace(slot, operands_ready + latency);
            self.fe.scoreboard_write(decoded.dst, old);
        }
        !redirect
    }

    /// Earliest cycle at which the operands in scoreboard slots `s1`/`s2`
    /// are ready. [`NO_REG`] indexes a slot that is always 0.
    #[inline]
    fn operands_ready(&self, s1: u8, s2: u8) -> u64 {
        self.now
            .max(self.scoreboard[s1 as usize])
            .max(self.scoreboard[s2 as usize])
    }
}
