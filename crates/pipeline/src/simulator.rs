//! The speculative pipeline simulator.

use crate::{Cache, EstimatorQuadrants, PipelineConfig, PipelineStats};
use crate::{FetchEvent, GateEvent, NullObserver, OutcomeEvent, PredictEvent, RecoveryEvent};
use crate::{ResolveEvent, SimObserver};
use cestim_bpred::{AnyPredictor, BranchPredictor, HistoryRegister, Prediction};
use cestim_core::{AnyEstimator, Confidence, ConfidenceEstimator};
use cestim_isa::{AluOp, Checkpoint, Inst, Machine, Program, Reg, Step};
use cestim_obs::{PhaseProfiler, PhaseTiming, Registry};
use cestim_trace_io::TraceRecord;
use std::collections::VecDeque;

/// One speculatively fetched, not-yet-committed conditional branch.
#[derive(Debug)]
struct Inflight {
    seq: u64,
    pc: u32,
    pred: Prediction,
    actual_taken: bool,
    mispredicted: bool,
    ghr_at_predict: u32,
    /// Slot in the simulator's [`EstimateSlab`] holding this branch's
    /// per-estimator confidence estimates.
    est_slot: u32,
    /// Estimator 0's estimate was low confidence (cached here so gating
    /// never touches the slab).
    est0_low: bool,
    cp_machine: Checkpoint,
    /// Scoreboard undo-log position at fetch (see `Simulator::sb_undo`).
    cp_sb_mark: u64,
    cp_arch_insts: u64,
    cp_arch_branches: u64,
    fetch_cycle: u64,
    resolved: bool,
    resolve_cycle: Option<u64>,
    /// Eager execution forked both paths of this branch.
    forked: bool,
}

/// Scoreboard index meaning "no register": one past the real registers, a
/// sentinel slot that stays 0 forever so operand-readiness can be computed
/// branchlessly.
const NO_REG: u8 = Reg::COUNT as u8;

/// Instruction class for the fetch loop's dispatch, predecoded from the
/// `Inst` enum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum InstClass {
    Branch,
    Load,
    Store,
    /// Fixed-latency, non-redirecting (ALU, LI, NOP).
    Fixed,
    /// Unconditional control transfer (jump, call, ret).
    Redirect,
    Halt,
}

/// Per-instruction metadata predecoded once at construction. The program is
/// immutable, so the fetch loop reads this flat table — a copy of the
/// instruction plus its sources, destination, class, and latency — instead
/// of re-matching the `Inst` enum on every fetched instruction.
#[derive(Debug, Clone, Copy)]
struct InstMeta {
    inst: Inst,
    s1: u8,
    s2: u8,
    dst: u8,
    class: InstClass,
    /// Execute latency for `InstClass::Fixed`.
    latency: u8,
}

impl InstMeta {
    fn decode(inst: &Inst) -> InstMeta {
        let reg_idx = |r: Option<Reg>| r.map_or(NO_REG, |r| r.index() as u8);
        let class = match inst {
            Inst::Branch { .. } => InstClass::Branch,
            Inst::Load { .. } => InstClass::Load,
            Inst::Store { .. } => InstClass::Store,
            Inst::Jump { .. } | Inst::Call { .. } | Inst::Ret => InstClass::Redirect,
            Inst::Halt => InstClass::Halt,
            Inst::Alu { .. } | Inst::AluImm { .. } | Inst::Li { .. } | Inst::Nop => {
                InstClass::Fixed
            }
        };
        let (s1, s2) = inst.srcs();
        InstMeta {
            inst: *inst,
            s1: reg_idx(s1),
            s2: reg_idx(s2),
            dst: reg_idx(inst.dst()),
            class,
            latency: alu_latency(inst) as u8,
        }
    }
}

/// Preallocated pool of per-branch estimate rows.
///
/// The speculation window bounds the number of in-flight branches, so the
/// per-estimator confidence estimates of every in-flight branch live in one
/// flat buffer of `window × n_estimators` entries, handed out as fixed-width
/// rows through a free list. This removes the per-fetched-branch
/// `Vec<Confidence>` allocation the hot path used to pay (sweep experiments
/// attach 30–60 estimators to one pipeline, so an inline array is not an
/// option).
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

/// Pipeline-level simulator with wrong-path execution.
///
/// The model is the measurement vehicle of the paper: a 5-stage,
/// `fetch_width`-wide pipeline in which
///
/// * instructions execute architecturally at decode (so the true outcome of
///   every branch — even a wrong-path one — is known immediately, exactly
///   like the paper's "speculative trace"),
/// * every predicted conditional branch takes a full checkpoint and the
///   machine *follows the prediction*, right or wrong,
/// * branches resolve when their operands are ready (register scoreboard;
///   loads add D-cache latency), so resolution is out of order and takes a
///   variable number of cycles — the effect behind the paper's "perceived"
///   misprediction distance (Figs 8–9),
/// * a resolving misprediction rewinds the machine to its checkpoint,
///   squashes younger work, repairs the speculative global history, and
///   charges the configured extra penalty; wrong-path branches can
///   themselves mispredict and recover (nested recovery),
/// * predictor and estimator tables train at commit, in program order;
///   estimators additionally hear every *resolution* via
///   [`ConfidenceEstimator::on_branch_resolved`].
///
/// Any number of confidence estimators can be attached
/// ([`Simulator::add_estimator`]); each is queried at every branch fetch and
/// gets its own all/committed [`EstimatorQuadrants`] — one pipeline pass
/// evaluates a whole sweep of estimator configurations.
///
/// # Example
///
/// ```
/// use cestim_bpred::Gshare;
/// use cestim_core::Jrs;
/// use cestim_isa::{ProgramBuilder, Reg};
/// use cestim_pipeline::{PipelineConfig, Simulator};
///
/// # fn main() -> Result<(), cestim_isa::BuildError> {
/// let mut b = ProgramBuilder::new();
/// b.li(Reg::T0, 0);
/// b.li(Reg::T1, 1000);
/// let top = b.label();
/// b.bind(top);
/// b.addi(Reg::T0, Reg::T0, 1);
/// b.blt(Reg::T0, Reg::T1, top);
/// b.halt();
/// let prog = b.build()?;
///
/// let mut sim = Simulator::new(&prog, PipelineConfig::paper(), Box::new(Gshare::new(12)));
/// sim.add_estimator(Box::new(Jrs::paper_enhanced()));
/// let stats = sim.run_to_completion();
/// assert_eq!(stats.committed_branches, 1000);
/// assert!(stats.fetched_insts >= stats.committed_insts);
/// # Ok(())
/// # }
/// ```
pub struct Simulator<'p> {
    program: &'p Program,
    /// Predecoded per-instruction metadata, indexed by PC (see [`InstMeta`]).
    meta: Vec<InstMeta>,
    cfg: PipelineConfig,
    machine: Machine,
    predictor: AnyPredictor,
    estimators: Vec<AnyEstimator>,
    estimator_labels: Vec<String>,
    quadrants: Vec<EstimatorQuadrants>,
    est_slab: EstimateSlab,
    ghr: HistoryRegister,
    /// Ready-cycle per register, plus the always-zero [`NO_REG`] sentinel
    /// slot at the end.
    scoreboard: [u64; Reg::COUNT + 1],
    /// Scoreboard undo log, mirroring the machine's register undo log:
    /// `(register index, overwritten ready-cycle)` per scoreboard write.
    /// Branch checkpoints record a position instead of copying the whole
    /// scoreboard; recovery replays the log backwards, commit releases
    /// from the front.
    sb_undo: VecDeque<(u8, u64)>,
    sb_undo_base: u64,
    icache: Cache,
    dcache: Cache,
    inflight: VecDeque<Inflight>,
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
    /// Replay fetch mode (see [`Simulator::set_replay_fetch`]): fetch
    /// follows the *actual* path and stalls on a misprediction instead of
    /// executing down the wrong path.
    replay_fetch: bool,
    /// When `Some`, every fetched instruction is appended as a
    /// [`TraceRecord`] and wrong-path records are truncated away on
    /// recovery, so the buffer always holds exactly the architectural
    /// stream (`len == arch_insts`).
    trace_capture: Option<Vec<TraceRecord>>,
}

impl<'p> Simulator<'p> {
    /// Creates a simulator over `program` with the given predictor.
    ///
    /// Accepts anything convertible into [`AnyPredictor`]: a concrete
    /// predictor (`Gshare::new(12)`), a boxed concrete predictor
    /// (`Box::new(Gshare::new(12))` — unboxed into the statically
    /// dispatched variant), or a `Box<dyn BranchPredictor>` (kept virtually
    /// dispatched as a compatibility escape hatch).
    ///
    /// # Panics
    ///
    /// Panics if `cfg.fetch_width == 0`, `cfg.max_unresolved_branches == 0`,
    /// or `cfg.gate_threshold == Some(0)` (which would gate fetch forever).
    pub fn new(
        program: &'p Program,
        cfg: PipelineConfig,
        predictor: impl Into<AnyPredictor>,
    ) -> Simulator<'p> {
        assert!(cfg.fetch_width > 0, "fetch width must be positive");
        assert!(
            cfg.max_unresolved_branches > 0,
            "speculation window must be positive"
        );
        assert!(
            cfg.gate_threshold != Some(0),
            "a gate threshold of 0 would stall fetch forever"
        );
        let machine = Machine::new(program);
        let ghr = HistoryRegister::new(cfg.ghr_width);
        let icache = Cache::new(cfg.icache);
        let dcache = Cache::new(cfg.dcache);
        let window = cfg.max_unresolved_branches;
        let est_slab = EstimateSlab::new(0, window);
        Simulator {
            meta: (0..program.len() as u32)
                .map(|pc| InstMeta::decode(program.inst(pc).expect("pc in range")))
                .collect(),
            program,
            cfg,
            machine,
            predictor: predictor.into(),
            estimators: Vec::new(),
            estimator_labels: Vec::new(),
            quadrants: Vec::new(),
            est_slab,
            ghr,
            scoreboard: [0; Reg::COUNT + 1],
            sb_undo: VecDeque::new(),
            sb_undo_base: 0,
            icache,
            dcache,
            inflight: VecDeque::with_capacity(window),
            resolve_track: VecDeque::with_capacity(window),
            due_buf: Vec::with_capacity(window),
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
            replay_fetch: false,
            trace_capture: None,
        }
    }

    /// Switches the front end into *replay* fetch mode, the reference
    /// semantics for trace replay (`TraceSimulator` mirrors it exactly):
    ///
    /// * fetch follows the **actual** direction of every branch (no
    ///   wrong-path execution), and the speculative history receives the
    ///   actual outcome at fetch,
    /// * a mispredicted branch still occupies the speculation window until
    ///   its dataflow-timed resolution, but instead of a rewind the front
    ///   end stalls until `resolve + 1 + mispredict_penalty` — the same
    ///   cycle fetch would resume at after a live recovery,
    /// * resolution of a misprediction charges a recovery (with zero
    ///   squashed work) and trains estimators via
    ///   [`ConfidenceEstimator::on_branch_resolved`] as usual.
    ///
    /// Committed-stream statistics, committed quadrants, and per-estimator
    /// training are identical to the normal mode; the all-branches
    /// population collapses onto the committed one (nothing is squashed).
    ///
    /// # Panics
    ///
    /// Panics if eager execution is configured (forking both paths
    /// contradicts not fetching wrong paths) or branches are in flight.
    pub fn set_replay_fetch(&mut self, on: bool) {
        assert!(
            !(on && self.cfg.eager_max_forks.is_some()),
            "replay fetch mode is incompatible with eager execution"
        );
        assert!(
            self.inflight.is_empty(),
            "switch fetch modes before branches are in flight"
        );
        self.replay_fetch = on;
    }

    /// Enables (or disables) trace capture: every *architectural*
    /// instruction fetched from now on is recorded as a [`TraceRecord`];
    /// wrong-path work is truncated away at recovery, so after a completed
    /// run the buffer is exactly the committed stream — byte-for-byte what
    /// [`cestim_trace_io::export_program`] produces for the same program.
    pub fn set_trace_capture(&mut self, on: bool) {
        self.trace_capture = on.then(Vec::new);
    }

    /// Takes the captured trace, leaving capture disabled.
    pub fn take_captured_trace(&mut self) -> Vec<TraceRecord> {
        self.trace_capture.take().unwrap_or_default()
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
    /// [`step_cycle`](Simulator::step_cycle)'s resolve/commit/fetch phases.
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
    /// [`run`](Simulator::run) / [`finish`](Simulator::finish)).
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
    /// [`estimator_quadrants`](Simulator::estimator_quadrants) and of the
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
    /// [`add_estimator`](Simulator::add_estimator) time).
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

    /// Runs to completion (program halt with an empty pipeline, or
    /// `max_cycles`), streaming events to `obs`. Returns the final stats.
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
            self.cycle(obs);
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
        self.finalize();
        // With phase profiling on and an ambient span context installed,
        // publish the accumulated per-phase totals as summary child spans
        // (no-op otherwise).
        self.profiler.emit_ambient_spans();
        self.stats
    }

    /// `true` once the architectural program has finished and the pipeline
    /// has drained.
    pub fn done(&self) -> bool {
        self.inflight.is_empty()
            && (self.machine.halted() || self.program.inst(self.machine.pc()).is_none())
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

    fn cycle<O: SimObserver + ?Sized>(&mut self, obs: &mut O) {
        self.step_cycle(true, obs);
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

    /// Finalizes and returns the statistics without requiring
    /// [`run`](Simulator::run) (for externally driven cycling).
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
            if self.replay_fetch {
                self.replay_recover(idx, obs);
            } else {
                self.recover(idx, obs);
            }
        }
    }

    /// Replay-mode recovery: the machine already followed the actual path
    /// at fetch and the stall was charged there, so a resolving
    /// misprediction only counts the recovery — nothing is squashed, no
    /// state is rewound.
    fn replay_recover<O: SimObserver + ?Sized>(&mut self, idx: usize, obs: &mut O) {
        self.stats.recoveries += 1;
        let e = &self.inflight[idx];
        let (seq, pc) = (e.seq, e.pc);
        let penalty = self.cfg.mispredict_penalty;
        obs.on_recovery(&RecoveryEvent {
            seq,
            pc,
            cycle: self.now,
            squashed: 0,
            penalty,
        });
    }

    /// Rewinds to the checkpoint of the mispredicted branch at `idx`,
    /// squashing everything younger.
    fn recover<O: SimObserver + ?Sized>(&mut self, idx: usize, obs: &mut O) {
        self.stats.recoveries += 1;
        let squashed = (self.inflight.len() - idx - 1) as u32;

        // Squash younger branches (they were fetched down the wrong path).
        while self.inflight.len() > idx + 1 {
            let victim = self.inflight.pop_back().expect("victim exists");
            self.resolve_track.pop_back();
            self.record_outcome(&victim, false, obs);
            self.est_slab.release(victim.est_slot);
        }

        let e = &self.inflight[idx];
        let forked = e.forked;
        // Wrong-path work after this branch, excluding the branch itself
        // (which commits once re-steered).
        self.stats.squashed_insts += self.arch_insts - (e.cp_arch_insts + 1);
        self.stats.squashed_branches += self.arch_branches - (e.cp_arch_branches + 1);
        self.arch_insts = e.cp_arch_insts + 1;
        self.arch_branches = e.cp_arch_branches + 1;
        if let Some(buf) = &mut self.trace_capture {
            // Drop the captured wrong-path records; the mispredicted branch
            // itself stays (it commits once re-steered).
            buf.truncate(self.arch_insts as usize);
        }

        // Architectural rewind, then re-execute the branch down its correct
        // direction.
        self.machine.restore(&e.cp_machine);
        let actual = e.actual_taken;
        let cp_ghr = e.ghr_at_predict;
        let sb_mark = e.cp_sb_mark;
        while self.sb_undo_base + self.sb_undo.len() as u64 > sb_mark {
            let (r, old) = self.sb_undo.pop_back().expect("sb undo underflow");
            self.scoreboard[r as usize] = old;
        }
        let step = self.machine.step_forced(self.program, actual);
        debug_assert!(matches!(
            step,
            Step::Branch { taken, followed, .. } if taken == actual && followed == actual
        ));

        // Repair the speculative history: outcomes up to the branch, then
        // the branch's actual direction.
        self.ghr.set(cp_ghr);
        self.ghr.push(actual);

        // Flush: fetch resumes after the extra recovery penalty — unless
        // this branch had an eager fork, in which case the alternate path
        // is already warm and the re-steer is free.
        let penalty = if forked {
            self.stats.eager_covered += 1;
            0
        } else {
            self.fetch_stall_until = self
                .fetch_stall_until
                .max(self.now + 1 + self.cfg.mispredict_penalty);
            self.cfg.mispredict_penalty
        };

        let e = &self.inflight[idx];
        let (seq, pc) = (e.seq, e.pc);
        obs.on_recovery(&RecoveryEvent {
            seq,
            pc,
            cycle: self.now,
            squashed,
            penalty,
        });
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
            // The oldest checkpoint is gone; undo entries older than it can
            // never be needed again. Dropped in one bulk drain — commit is
            // on the per-branch hot path and the entry type is trivial.
            let n = (head.cp_sb_mark.saturating_sub(self.sb_undo_base) as usize)
                .min(self.sb_undo.len());
            if n > 0 {
                self.sb_undo.drain(..n);
                self.sb_undo_base += n as u64;
            }
            self.machine.release(&head.cp_machine);
        }
    }

    fn record_outcome<O: SimObserver + ?Sized>(
        &mut self,
        e: &Inflight,
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

    // ---- fetch / decode / execute-at-decode ------------------------------

    fn active_forks(&self) -> u32 {
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
        let burst_pc = self.machine.pc();
        let arch_before = self.arch_insts;
        // Active eager forks consume half the fetch slots for the
        // alternate paths.
        let mut width = self.cfg.fetch_width;
        if self.cfg.eager_max_forks.is_some() && self.active_forks() > 0 {
            let alt = width / 2;
            self.stats.eager_alt_slots += alt as u64;
            width -= alt;
        }
        // I-cache accesses for a sequential run on one line are batched
        // into a single counter update at the end of the run (fetch is the
        // I-cache's only client, so no access can interleave).
        let mut run_line = u32::MAX;
        let mut run_hits = 0u64;
        // `halted` can only flip inside the burst via a `Halt` step, which
        // already ends it, so one check up front suffices.
        if self.machine.halted() {
            return;
        }
        for _ in 0..width {
            let pc = self.machine.pc();
            let Some(&meta) = self.meta.get(pc as usize) else {
                // Wrong-path PC ran off the program; wait for recovery.
                break;
            };
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

            if meta.class == InstClass::Branch {
                if self.inflight.len() >= self.cfg.max_unresolved_branches {
                    break;
                }
                let redirect = self.fetch_branch(pc, meta, obs);
                if redirect {
                    break;
                }
            } else if !self.fetch_straightline(pc, meta) {
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

    /// Fetches a conditional branch; returns `true` when fetch must redirect
    /// (predicted taken).
    fn fetch_branch<O: SimObserver + ?Sized>(
        &mut self,
        pc: u32,
        meta: InstMeta,
        obs: &mut O,
    ) -> bool {
        let ghr_val = self.ghr.value();
        let pred = self.predictor.predict(pc, ghr_val);
        // Resolution timing is known at fetch from the scoreboard (branches
        // write no registers, so executing the branch below cannot change
        // it). Feed the modeled latency to each estimator before it
        // estimates — the timing estimator's input signal.
        let operands_ready = self.operands_ready(meta.s1, meta.s2);
        let resolve_at = operands_ready + self.cfg.branch_resolve_latency;
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

        // Checkpoint *before* executing the branch: restoring must land on
        // the branch so the correct direction can be re-executed.
        let cp_machine = self.machine.checkpoint();
        let cp_sb_mark = self.sb_undo_base + self.sb_undo.len() as u64;
        let cp_arch_insts = self.arch_insts;
        let cp_arch_branches = self.arch_branches;

        // Replay mode follows the actual direction (no forcing); normal
        // mode follows the prediction, right or wrong.
        let step = if self.replay_fetch {
            self.machine.step_decoded(meta.inst, None)
        } else {
            self.machine.step_decoded(meta.inst, Some(pred.taken))
        };
        let actual_taken = match step {
            Step::Branch { taken, .. } => taken,
            other => unreachable!("branch instruction stepped to {other:?}"),
        };
        let mispredicted = actual_taken != pred.taken;
        if let Some(buf) = &mut self.trace_capture {
            buf.push(TraceRecord::classify(pc, &meta.inst, &step));
        }

        let seq = self.branch_seq;
        self.branch_seq += 1;
        self.arch_insts += 1;
        self.arch_branches += 1;
        // In replay mode the history receives the actual outcome — the
        // same value live recovery would repair it to by resolution time,
        // and no younger fetch can observe it earlier because a mispredict
        // stalls fetch past that resolution.
        self.ghr.push(if self.replay_fetch {
            actual_taken
        } else {
            pred.taken
        });

        self.resolve_soonest = self.resolve_soonest.min(resolve_at);
        if self.replay_fetch && mispredicted {
            // Charge the recovery stall at fetch: resolution fires exactly
            // at `resolve_at`, so this equals the live `now + 1 + penalty`
            // computed at resolution time.
            self.fetch_stall_until = self
                .fetch_stall_until
                .max(resolve_at + 1 + self.cfg.mispredict_penalty);
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
            cp_machine,
            cp_sb_mark,
            cp_arch_insts,
            cp_arch_branches,
            fetch_cycle: self.now,

            resolved: false,
            resolve_cycle: None,
            forked,
        });
        if self.replay_fetch {
            // The burst ends on an actual-taken redirect or on the stall a
            // misprediction just charged.
            actual_taken || mispredicted
        } else {
            pred.taken
        }
    }

    /// Fetches a non-branch instruction; returns `false` when fetch must
    /// stop for this cycle (control redirect or halt).
    fn fetch_straightline(&mut self, pc: u32, meta: InstMeta) -> bool {
        let operands_ready = self.operands_ready(meta.s1, meta.s2);
        let step = self.machine.step_decoded(meta.inst, None);
        self.arch_insts += 1;
        if let Some(buf) = &mut self.trace_capture {
            buf.push(TraceRecord::classify(pc, &meta.inst, &step));
        }

        let (latency, redirect) = match meta.class {
            InstClass::Load => {
                let Step::Load { addr } = step else {
                    unreachable!("load stepped to {step:?}")
                };
                (self.dcache.access(addr).latency, false)
            }
            InstClass::Store => {
                // Stores retire through a store buffer; they cost a D-cache
                // access but do not stall dependents.
                let Step::Store { addr } = step else {
                    unreachable!("store stepped to {step:?}")
                };
                let _ = self.dcache.access(addr);
                (1, false)
            }
            InstClass::Fixed => (meta.latency as u64, false),
            InstClass::Redirect => (1, true),
            InstClass::Halt => {
                // Counted as fetched; stop the fetch group.
                return false;
            }
            InstClass::Branch => unreachable!("handled before straightline fetch"),
        };
        if meta.dst != NO_REG {
            let slot = &mut self.scoreboard[meta.dst as usize];
            self.sb_undo.push_back((meta.dst, *slot));
            *slot = operands_ready + latency;
        }
        !redirect
    }

    /// Earliest cycle at which the operands in scoreboard slots `s1`/`s2`
    /// are ready. [`NO_REG`] indexes the sentinel slot (always 0), so no
    /// branching on operand presence is needed.
    #[inline]
    fn operands_ready(&self, s1: u8, s2: u8) -> u64 {
        self.now
            .max(self.scoreboard[s1 as usize])
            .max(self.scoreboard[s2 as usize])
    }
}

fn alu_latency(inst: &Inst) -> u64 {
    let op = match *inst {
        Inst::Alu { op, .. } | Inst::AluImm { op, .. } => op,
        _ => return 1,
    };
    match op {
        AluOp::Mul => 3,
        AluOp::Div | AluOp::Rem => 12,
        _ => 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cestim_bpred::{Bimodal, Gshare};
    use cestim_core::{AlwaysLow, DistanceEstimator, Jrs, SaturatingConfidence};
    use cestim_isa::ProgramBuilder;

    /// A counted loop: N-1 taken + 1 not-taken branch at the same site.
    fn counted_loop(n: i32) -> Program {
        let mut b = ProgramBuilder::new();
        b.li(Reg::T0, 0);
        b.li(Reg::T1, n);
        let top = b.label();
        b.bind(top);
        b.addi(Reg::T0, Reg::T0, 1);
        b.blt(Reg::T0, Reg::T1, top);
        b.halt();
        b.build().unwrap()
    }

    /// A data-dependent branch stream: branch on an LCG bit each iteration.
    fn noisy_loop(n: i32) -> Program {
        let mut b = ProgramBuilder::new();
        b.li(Reg::S0, 12345); // lcg state
        b.li(Reg::T0, 0);
        b.li(Reg::T1, n);
        let top = b.label();
        let skip = b.label();
        b.bind(top);
        b.muli(Reg::S0, Reg::S0, 1664525);
        b.addi(Reg::S0, Reg::S0, 1013904223);
        b.srli(Reg::T2, Reg::S0, 19);
        b.andi(Reg::T2, Reg::T2, 1);
        b.beqz(Reg::T2, skip);
        b.addi(Reg::T3, Reg::T3, 1);
        b.bind(skip);
        b.addi(Reg::T0, Reg::T0, 1);
        b.blt(Reg::T0, Reg::T1, top);
        b.halt();
        b.build().unwrap()
    }

    fn sim<'p>(p: &'p Program) -> Simulator<'p> {
        Simulator::new(p, PipelineConfig::paper(), Box::new(Gshare::new(12)))
    }

    #[test]
    fn committed_counts_match_functional_execution() {
        let p = counted_loop(500);
        // Functional reference.
        let mut m = Machine::new(&p);
        let reference = m.run(&p, 1_000_000);
        // Pipeline.
        let mut s = sim(&p);
        let stats = s.run_to_completion();
        // `run` does not count the halt instruction; the pipeline counts the
        // fetched halt. Allow that off-by-one.
        assert_eq!(stats.committed_insts, reference + 1);
        assert_eq!(stats.committed_branches, 500);
        assert_eq!(
            stats.fetched_insts,
            stats.committed_insts + stats.squashed_insts
        );
        assert_eq!(
            stats.fetched_branches,
            stats.committed_branches + stats.squashed_branches
        );
    }

    #[test]
    fn loop_branch_is_learned() {
        let p = counted_loop(2000);
        let mut s = sim(&p);
        let stats = s.run_to_completion();
        // One cold/exit misprediction region; accuracy near 1.
        assert!(
            stats.accuracy_committed() > 0.99,
            "accuracy {}",
            stats.accuracy_committed()
        );
        assert!(stats.recoveries >= 1, "loop exit must mispredict");
    }

    #[test]
    fn wrong_path_work_is_fetched_and_squashed() {
        let p = noisy_loop(2000);
        let mut s = sim(&p);
        let stats = s.run_to_completion();
        assert!(
            stats.squashed_insts > 0,
            "random branch must cause squashes"
        );
        assert!(stats.speculation_ratio() > 1.0);
        assert!(
            stats.mispredicted_committed > 100,
            "LCG branch is unpredictable, got {}",
            stats.mispredicted_committed
        );
    }

    #[test]
    fn architectural_results_are_unaffected_by_speculation() {
        // The pipeline must compute exactly what the pure interpreter does.
        let p = noisy_loop(300);
        let mut m = Machine::new(&p);
        m.run(&p, 1_000_000);
        let t3_ref = m.reg(Reg::T3);

        let mut s = sim(&p);
        s.run_to_completion();
        assert_eq!(s.machine.reg(Reg::T3), t3_ref);
        assert!(s.machine.halted());
    }

    #[test]
    fn estimator_quadrants_cover_all_branches() {
        let p = noisy_loop(1000);
        let mut s = sim(&p);
        s.add_estimator(Box::new(Jrs::paper_enhanced()));
        s.add_estimator(Box::new(SaturatingConfidence::selected()));
        let stats = s.run_to_completion();
        for q in s.estimator_quadrants() {
            assert_eq!(q.all.total(), stats.fetched_branches);
            assert_eq!(q.committed.total(), stats.committed_branches);
        }
    }

    #[test]
    fn always_low_estimator_has_unit_spec() {
        let p = noisy_loop(500);
        let mut s = sim(&p);
        s.add_estimator(Box::new(AlwaysLow));
        s.run_to_completion();
        let q = s.estimator_quadrants()[0];
        assert_eq!(q.committed.spec(), 1.0);
        assert!((q.committed.pvn() - q.committed.misprediction_rate()).abs() < 1e-12);
    }

    #[test]
    fn distance_estimator_receives_resolutions() {
        let p = noisy_loop(500);
        let mut s = sim(&p);
        s.add_estimator(Box::new(DistanceEstimator::new(2)));
        s.run_to_completion();
        let q = s.estimator_quadrants()[0];
        // Both confidence classes must be populated: resolutions reset the
        // counter, correct runs push it up.
        assert!(q.committed.c_hc + q.committed.i_hc > 0, "some HC");
        assert!(q.committed.c_lc + q.committed.i_lc > 0, "some LC");
    }

    #[test]
    fn deterministic_across_runs() {
        let p = noisy_loop(800);
        let run = || {
            let mut s = sim(&p);
            s.add_estimator(Box::new(Jrs::paper_enhanced()));
            let st = s.run_to_completion();
            (st, s.estimator_quadrants()[0])
        };
        let (s1, q1) = run();
        let (s2, q2) = run();
        assert_eq!(s1, s2);
        assert_eq!(q1, q2);
    }

    #[test]
    fn bimodal_predictor_works_too() {
        let p = counted_loop(300);
        let mut s = Simulator::new(&p, PipelineConfig::paper(), Box::new(Bimodal::new(10)));
        let stats = s.run_to_completion();
        assert_eq!(stats.committed_branches, 300);
        assert!(stats.accuracy_committed() > 0.97);
    }

    #[test]
    fn gating_reduces_wrong_path_work() {
        let p = noisy_loop(2000);
        let mut base = sim(&p);
        base.add_estimator(Box::new(SaturatingConfidence::selected()));
        let b = base.run_to_completion();

        let mut gated = Simulator::new(
            &p,
            PipelineConfig::paper().with_gating(1),
            Box::new(Gshare::new(12)),
        );
        gated.add_estimator(Box::new(SaturatingConfidence::selected()));
        let g = gated.run_to_completion();

        assert_eq!(
            g.committed_insts, b.committed_insts,
            "gating must not change architectural work"
        );
        assert!(g.gated_cycles > 0);
        assert!(
            g.squashed_insts < b.squashed_insts,
            "gating should cut wrong-path work: {} vs {}",
            g.squashed_insts,
            b.squashed_insts
        );
    }

    #[test]
    fn eager_execution_waives_covered_penalties() {
        let p = noisy_loop(3000);
        let mk = |cfg: PipelineConfig| {
            let mut s = Simulator::new(&p, cfg, Box::new(Gshare::new(12)));
            s.add_estimator(Box::new(SaturatingConfidence::selected()));
            s
        };
        let base = mk(PipelineConfig::paper()).run_to_completion();
        let eager = mk(PipelineConfig::paper().with_eager(1)).run_to_completion();

        assert_eq!(
            eager.committed_insts, base.committed_insts,
            "eager execution must not change architectural work"
        );
        assert!(eager.eager_forks > 100, "forks {}", eager.eager_forks);
        assert!(
            eager.eager_covered > 0 && eager.eager_covered <= eager.eager_forks,
            "covered {} of {}",
            eager.eager_covered,
            eager.eager_forks
        );
        assert!(eager.eager_alt_slots > 0);
        // Covered mispredictions skip the +3 penalty; with a noisy branch
        // the cycle count should not regress catastrophically and usually
        // improves. Allow slack for the halved fetch width.
        assert!(
            (eager.cycles as f64) < base.cycles as f64 * 1.10,
            "eager {} vs base {}",
            eager.cycles,
            base.cycles
        );
    }

    #[test]
    fn eager_fork_capacity_is_respected() {
        let p = noisy_loop(1000);
        let mut s = Simulator::new(
            &p,
            PipelineConfig::paper().with_eager(1),
            Box::new(Gshare::new(12)),
        );
        s.add_estimator(Box::new(SaturatingConfidence::selected()));
        // Run manually and check the invariant each cycle.
        while !s.done() {
            s.step_cycle(true, &mut cestim_pipeline_null());
            assert!(s.active_forks() <= 1);
        }
    }

    fn cestim_pipeline_null() -> crate::NullObserver {
        crate::NullObserver
    }

    #[test]
    fn observer_sees_consistent_event_stream() {
        #[derive(Default)]
        struct Check {
            predicted: u64,
            resolved: u64,
            outcomes: u64,
            committed: u64,
            out_of_order_resolutions: u64,
            last_resolved_seq: Option<u64>,
        }
        impl SimObserver for Check {
            fn on_branch_predicted(&mut self, _: &PredictEvent<'_>) {
                self.predicted += 1;
            }
            fn on_branch_resolved(&mut self, ev: &ResolveEvent) {
                if let Some(prev) = self.last_resolved_seq {
                    if ev.seq < prev {
                        self.out_of_order_resolutions += 1;
                    }
                }
                self.last_resolved_seq = Some(ev.seq);
                self.resolved += 1;
            }
            fn on_branch_outcome(&mut self, ev: &OutcomeEvent<'_>) {
                self.outcomes += 1;
                self.committed += ev.committed as u64;
            }
        }

        let p = noisy_loop(1500);
        let mut s = sim(&p);
        let mut chk = Check::default();
        let stats = s.run(&mut chk);
        assert_eq!(chk.predicted, stats.fetched_branches);
        assert_eq!(chk.outcomes, stats.fetched_branches);
        assert_eq!(chk.committed, stats.committed_branches);
        assert!(chk.resolved <= chk.predicted);
        assert!(
            chk.resolved >= stats.committed_branches,
            "committed implies resolved"
        );
    }

    #[test]
    fn injected_commit_fault_flips_only_the_reported_stream() {
        #[derive(Default)]
        struct Directions(Vec<bool>);
        impl SimObserver for Directions {
            fn on_branch_outcome(&mut self, ev: &OutcomeEvent<'_>) {
                if ev.committed {
                    self.0.push(ev.actual_taken);
                }
            }
        }
        let p = counted_loop(100);
        let mut clean = sim(&p);
        let mut c = Directions::default();
        let clean_stats = clean.run(&mut c);

        let mut faulty = sim(&p);
        faulty.inject_commit_fault(10);
        let mut f = Directions::default();
        let faulty_stats = faulty.run(&mut f);

        // Architectural statistics are untouched; only the observer-visible
        // commit stream diverges, on exactly every 10th committed branch.
        assert_eq!(clean_stats, faulty_stats);
        assert_eq!(c.0.len(), f.0.len());
        let flips = c.0.iter().zip(&f.0).filter(|(a, b)| a != b).count();
        assert_eq!(flips, c.0.len() / 10);
    }

    #[test]
    fn max_cycles_bounds_runaway_programs() {
        let mut b = ProgramBuilder::new();
        let top = b.label();
        b.bind(top);
        b.j(top); // infinite loop
        let p = b.build().unwrap();
        let mut cfg = PipelineConfig::paper();
        cfg.max_cycles = 1000;
        let mut s = Simulator::new(&p, cfg, Box::new(Gshare::new(10)));
        let stats = s.run_to_completion();
        assert_eq!(stats.cycles, 1000);
    }

    #[test]
    fn cooperative_cancel_abandons_an_overdue_run() {
        use std::time::{Duration, Instant};
        // An infinite loop bounded only by a huge max_cycles: without
        // cancellation this would spin for a very long time.
        let mut b = ProgramBuilder::new();
        let top = b.label();
        b.bind(top);
        b.j(top);
        let p = b.build().unwrap();
        let mut cfg = PipelineConfig::paper();
        cfg.max_cycles = u64::MAX;
        let mut s = Simulator::new(&p, cfg, Box::new(Gshare::new(10)));
        // Deadline already expired: the first poll window must fire.
        let _g = cestim_obs::cancel::arm(Instant::now() - Duration::from_millis(1), 1024);
        let t0 = Instant::now();
        let caught =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| s.run_to_completion()))
                .unwrap_err();
        let msg = caught
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| caught.downcast_ref::<&str>().map(|m| m.to_string()))
            .unwrap();
        assert!(cestim_obs::cancel::is_cancel_panic(&msg), "{msg}");
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "cancel must fire promptly"
        );
    }

    #[test]
    fn unarmed_runs_are_unaffected_by_the_cancel_poll() {
        let p = counted_loop(50);
        let mut a = sim(&p);
        let sa = a.run_to_completion();
        let _g = cestim_obs::cancel::arm(
            std::time::Instant::now() + std::time::Duration::from_secs(3600),
            1,
        );
        let mut b = sim(&p);
        let sb = b.run_to_completion();
        assert_eq!(sa, sb, "an unexpired token must not perturb the run");
    }

    #[test]
    #[should_panic(expected = "stall fetch forever")]
    fn zero_gate_threshold_rejected() {
        let p = counted_loop(1);
        let _ = Simulator::new(
            &p,
            PipelineConfig::paper().with_gating(0),
            Box::new(Gshare::new(10)),
        );
    }
}
