//! Trace-driven replay frontend.
//!
//! [`TraceSimulator`] re-times an imported branch trace
//! ([`cestim_trace_io::TraceRecord`] stream) through the same pipeline
//! model as the live [`Simulator`](crate::Simulator) in *replay fetch
//! mode*, driving the same predictors and confidence estimators — but it
//! is an **independent reimplementation**: it never touches the
//! architectural interpreter, checkpoints, or undo logs, only the trace.
//! The differential conformance suite in the workspace root pins the two
//! implementations to bit-identical [`PipelineStats`], quadrants, and
//! event streams; a bug in either shows up as a divergence (the
//! rvsim-vs-spike methodology).
//!
//! Replay semantics (mirroring `Simulator::set_replay_fetch`):
//!
//! * fetch walks the trace — the actual path — with the live front end's
//!   I-cache line batching, fetch width, speculation window, and
//!   confidence gating;
//! * every conditional branch is predicted and confidence-estimated with
//!   the actual outcome pushed into the speculative history at fetch;
//! * branches resolve out of order when their recorded source operands are
//!   ready (register scoreboard; loads add D-cache latency at the recorded
//!   address); a misprediction stalls fetch until
//!   `resolve + 1 + mispredict_penalty` and counts a recovery with zero
//!   squashed work;
//! * predictors and estimators train at commit, in trace order, exactly as
//!   live.

use crate::{Cache, EstimatorQuadrants, PipelineConfig, PipelineStats};
use crate::{FetchEvent, GateEvent, NullObserver, OutcomeEvent, PredictEvent, RecoveryEvent};
use crate::{ResolveEvent, SimObserver};
use cestim_bpred::{AnyPredictor, BranchPredictor, HistoryRegister, Prediction};
use cestim_core::{AnyEstimator, Confidence, ConfidenceEstimator};
use cestim_isa::Reg;
use cestim_trace_io::{TraceClass, TraceRecord, NO_REG};
use std::collections::VecDeque;

/// An in-flight (fetched, not yet committed) branch of the replay.
#[derive(Debug)]
struct ReplayInflight {
    seq: u64,
    pc: u32,
    pred: Prediction,
    actual_taken: bool,
    mispredicted: bool,
    ghr_at_predict: u32,
    estimates: Vec<Confidence>,
    est0_low: bool,
    fetch_cycle: u64,
    resolved: bool,
    resolve_cycle: Option<u64>,
}

/// Scoreboard slot for a trace register byte ([`NO_REG`] maps to the
/// always-zero sentinel, like the live simulator's `NO_REG` slot).
#[inline]
fn reg_slot(b: u8) -> usize {
    if b == NO_REG || b as usize >= Reg::COUNT {
        Reg::COUNT
    } else {
        b as usize
    }
}

/// Replays a branch trace through the pipeline timing model.
///
/// See the [module docs](self) for semantics. Eager execution is not
/// supported (there is no wrong path to fork down); gating is.
pub struct TraceSimulator<'t> {
    records: &'t [TraceRecord],
    cfg: PipelineConfig,
    predictor: AnyPredictor,
    estimators: Vec<AnyEstimator>,
    estimator_labels: Vec<String>,
    quadrants: Vec<EstimatorQuadrants>,
    ghr: HistoryRegister,
    scoreboard: [u64; Reg::COUNT + 1],
    icache: Cache,
    dcache: Cache,
    inflight: VecDeque<ReplayInflight>,
    resolve_track: VecDeque<u64>,
    due_buf: Vec<(u64, u32)>,
    now: u64,
    cursor: usize,
    fetch_stall_until: u64,
    resolve_soonest: u64,
    branch_seq: u64,
    arch_insts: u64,
    arch_branches: u64,
    stats: PipelineStats,
}

impl<'t> TraceSimulator<'t> {
    /// Creates a replay over `records` with the given predictor.
    ///
    /// # Panics
    ///
    /// Panics on the same degenerate configurations as the live simulator
    /// (`fetch_width == 0`, empty speculation window, gate threshold 0) and
    /// if eager execution is configured.
    pub fn new(
        records: &'t [TraceRecord],
        cfg: PipelineConfig,
        predictor: impl Into<AnyPredictor>,
    ) -> TraceSimulator<'t> {
        assert!(cfg.fetch_width > 0, "fetch width must be positive");
        assert!(
            cfg.max_unresolved_branches > 0,
            "speculation window must be positive"
        );
        assert!(
            cfg.gate_threshold != Some(0),
            "a gate threshold of 0 would stall fetch forever"
        );
        assert!(
            cfg.eager_max_forks.is_none(),
            "trace replay cannot fork wrong paths (eager execution)"
        );
        let ghr = HistoryRegister::new(cfg.ghr_width);
        let icache = Cache::new(cfg.icache);
        let dcache = Cache::new(cfg.dcache);
        let window = cfg.max_unresolved_branches;
        TraceSimulator {
            records,
            cfg,
            predictor: predictor.into(),
            estimators: Vec::new(),
            estimator_labels: Vec::new(),
            quadrants: Vec::new(),
            ghr,
            scoreboard: [0; Reg::COUNT + 1],
            icache,
            dcache,
            inflight: VecDeque::with_capacity(window),
            resolve_track: VecDeque::with_capacity(window),
            due_buf: Vec::with_capacity(window),
            now: 0,
            cursor: 0,
            fetch_stall_until: 0,
            resolve_soonest: u64::MAX,
            branch_seq: 0,
            arch_insts: 0,
            arch_branches: 0,
            stats: PipelineStats::default(),
        }
    }

    /// Attaches a confidence estimator; same contract as
    /// [`Simulator::add_estimator`](crate::Simulator::add_estimator)
    /// (estimator 0 drives gating).
    ///
    /// # Panics
    ///
    /// Panics if branches are already in flight.
    pub fn add_estimator(&mut self, estimator: impl Into<AnyEstimator>) -> usize {
        assert!(
            self.inflight.is_empty(),
            "estimators must be attached before branches are in flight"
        );
        let estimator = estimator.into();
        self.estimator_labels.push(estimator.name());
        self.estimators.push(estimator);
        self.quadrants.push(EstimatorQuadrants::default());
        self.quadrants.len() - 1
    }

    /// Names of the attached estimators, in index order.
    pub fn estimator_names(&self) -> &[String] {
        &self.estimator_labels
    }

    /// Per-estimator quadrants accumulated so far.
    pub fn estimator_quadrants(&self) -> &[EstimatorQuadrants] {
        &self.quadrants
    }

    /// Statistics accumulated so far (finalized only after the run).
    pub fn stats(&self) -> &PipelineStats {
        &self.stats
    }

    /// Runs to completion with no observer.
    pub fn run_to_completion(&mut self) -> PipelineStats {
        self.run(&mut NullObserver)
    }

    /// Replays the whole trace (or up to `max_cycles`), streaming events to
    /// `obs`. Returns the final stats.
    pub fn run<O: SimObserver + ?Sized>(&mut self, obs: &mut O) -> PipelineStats {
        while !self.done() && self.now < self.cfg.max_cycles {
            self.step_cycle(obs);
            // Same cycle-skip as the live run loop: while fetch is stalled
            // nothing can happen before the stall ends or a branch
            // resolves.
            if self.now < self.fetch_stall_until {
                let target = self
                    .fetch_stall_until
                    .min(self.resolve_soonest)
                    .min(self.cfg.max_cycles);
                self.now = self.now.max(target);
            }
        }
        self.finalize();
        self.stats
    }

    /// `true` once the trace is exhausted and the pipeline has drained.
    pub fn done(&self) -> bool {
        self.inflight.is_empty() && self.cursor >= self.records.len()
    }

    fn finalize(&mut self) {
        self.stats.cycles = self.now;
        self.stats.committed_insts = self.arch_insts;
        // Nothing is ever squashed in a replay.
        self.stats.fetched_insts = self.arch_insts;
        self.stats.fetched_branches = self.arch_branches;
        self.stats.icache_accesses = self.icache.accesses();
        self.stats.icache_misses = self.icache.misses();
        self.stats.dcache_accesses = self.dcache.accesses();
        self.stats.dcache_misses = self.dcache.misses();
    }

    fn step_cycle<O: SimObserver + ?Sized>(&mut self, obs: &mut O) {
        if self.now >= self.resolve_soonest {
            self.process_resolutions(obs);
            self.process_commits(obs);
        }
        self.fetch(obs);
        self.now += 1;
    }

    // ---- resolution ------------------------------------------------------

    fn process_resolutions<O: SimObserver + ?Sized>(&mut self, obs: &mut O) {
        if self.now < self.resolve_soonest {
            return;
        }
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
            // The stall was charged at fetch; resolution only counts the
            // recovery (zero squashed work) — mirroring replay-mode live.
            self.stats.recoveries += 1;
            obs.on_recovery(&RecoveryEvent {
                seq,
                pc,
                cycle: self.now,
                squashed: 0,
                penalty: self.cfg.mispredict_penalty,
            });
        }
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
                self.stats.mispredicted_all += 1;
            }
            for (q, &c) in self.quadrants.iter_mut().zip(&head.estimates) {
                q.all.record(correct, c);
                q.committed.record(correct, c);
            }
            obs.on_branch_outcome(&OutcomeEvent {
                seq: head.seq,
                pc: head.pc,
                predicted_taken: head.pred.taken,
                actual_taken: head.actual_taken,
                mispredicted: head.mispredicted,
                committed: true,
                fetch_cycle: head.fetch_cycle,
                resolve_cycle: head.resolve_cycle,
                ghr: head.ghr_at_predict,
                estimates: &head.estimates,
            });
        }
    }

    // ---- fetch -----------------------------------------------------------

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
        let Some(burst_pc) = self.records.get(self.cursor).map(|r| r.pc) else {
            return;
        };
        let arch_before = self.arch_insts;
        let mut run_line = u32::MAX;
        let mut run_hits = 0u64;
        for _ in 0..self.cfg.fetch_width {
            let Some(&rec) = self.records.get(self.cursor) else {
                break;
            };
            let pc = rec.pc;
            let line = self.icache.line_of(pc);
            if line == run_line {
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

            if rec.class == TraceClass::CondBranch {
                if self.inflight.len() >= self.cfg.max_unresolved_branches {
                    break;
                }
                let redirect = self.fetch_branch(&rec, obs);
                self.cursor += 1;
                if redirect {
                    break;
                }
            } else if !self.fetch_straightline(&rec) {
                self.cursor += 1;
                break;
            } else {
                self.cursor += 1;
            }
        }
        if run_hits > 0 {
            self.icache.repeat_hits(run_hits);
        }
        // Reported exactly where the live front end reports its burst.
        let count = (self.arch_insts - arch_before) as u32;
        if count > 0 {
            obs.on_fetch(&FetchEvent {
                cycle: self.now,
                pc: burst_pc,
                count,
            });
        }
    }

    /// Fetches a branch record; returns `true` when the burst must end
    /// (actual-taken redirect, or the stall a misprediction charged).
    fn fetch_branch<O: SimObserver + ?Sized>(&mut self, rec: &TraceRecord, obs: &mut O) -> bool {
        let pc = rec.pc;
        let ghr_val = self.ghr.value();
        let pred = self.predictor.predict(pc, ghr_val);
        // Same fetch-time latency feed as the live simulator: estimators see
        // the modeled resolution latency before estimating.
        let operands_ready = self.operands_ready(rec.s1, rec.s2);
        let resolve_at = operands_ready + self.cfg.branch_resolve_latency;
        let resolve_latency = resolve_at - self.now;
        let estimates: Vec<Confidence> = self
            .estimators
            .iter_mut()
            .map(|e| {
                e.note_resolve_latency(resolve_latency);
                e.estimate(pc, ghr_val, &pred)
            })
            .collect();
        let est0_low = estimates.first().is_some_and(|c| c.is_low());

        let actual_taken = rec.taken;
        let mispredicted = actual_taken != pred.taken;

        let seq = self.branch_seq;
        self.branch_seq += 1;
        self.arch_insts += 1;
        self.arch_branches += 1;
        self.ghr.push(actual_taken);

        self.resolve_soonest = self.resolve_soonest.min(resolve_at);
        if mispredicted {
            self.fetch_stall_until = self
                .fetch_stall_until
                .max(resolve_at + 1 + self.cfg.mispredict_penalty);
        }

        obs.on_branch_predicted(&PredictEvent {
            seq,
            pc,
            predicted_taken: pred.taken,
            actual_taken,
            mispredicted,
            cycle: self.now,
            ghr: ghr_val,
            estimates: &estimates,
        });

        self.resolve_track.push_back(resolve_at);
        self.inflight.push_back(ReplayInflight {
            seq,
            pc,
            pred,
            actual_taken,
            mispredicted,
            ghr_at_predict: ghr_val,
            estimates,
            est0_low,
            fetch_cycle: self.now,
            resolved: false,
            resolve_cycle: None,
        });
        actual_taken || mispredicted
    }

    /// Fetches a non-branch record; returns `false` when the burst must
    /// end (control redirect or halt).
    fn fetch_straightline(&mut self, rec: &TraceRecord) -> bool {
        let operands_ready = self.operands_ready(rec.s1, rec.s2);
        self.arch_insts += 1;

        let (latency, redirect) = match rec.class {
            TraceClass::Load => (self.dcache.access(rec.target).latency, false),
            TraceClass::Store => {
                let _ = self.dcache.access(rec.target);
                (1, false)
            }
            TraceClass::Alu => (1, false),
            TraceClass::Mul => (3, false),
            TraceClass::Div => (12, false),
            TraceClass::Jump | TraceClass::Call | TraceClass::Ret => (1, true),
            TraceClass::Halt => {
                // Counted as fetched; ends the burst (and the trace).
                return false;
            }
            TraceClass::CondBranch => unreachable!("handled before straightline fetch"),
        };
        if rec.dst != NO_REG {
            self.scoreboard[reg_slot(rec.dst)] = operands_ready + latency;
        }
        !redirect
    }

    #[inline]
    fn operands_ready(&self, s1: u8, s2: u8) -> u64 {
        self.now
            .max(self.scoreboard[reg_slot(s1)])
            .max(self.scoreboard[reg_slot(s2)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Simulator;
    use cestim_bpred::Gshare;
    use cestim_core::{Jrs, SaturatingConfidence};
    use cestim_isa::{Program, ProgramBuilder};
    use cestim_trace_io::export_program;

    fn noisy_loop(n: i32) -> Program {
        let mut b = ProgramBuilder::new();
        b.li(Reg::S0, 12345);
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

    fn replay_pair(p: &Program, cfg: PipelineConfig) -> (PipelineStats, PipelineStats) {
        let trace = export_program(p, 10_000_000).unwrap();
        let mut live = Simulator::new(p, cfg.clone(), Gshare::new(12));
        live.set_replay_fetch(true);
        live.add_estimator(Jrs::paper_enhanced());
        live.add_estimator(SaturatingConfidence::selected());
        let live_stats = live.run_to_completion();

        let mut replay = TraceSimulator::new(&trace, cfg, Gshare::new(12));
        replay.add_estimator(Jrs::paper_enhanced());
        replay.add_estimator(SaturatingConfidence::selected());
        let replay_stats = replay.run_to_completion();

        assert_eq!(live.estimator_quadrants(), replay.estimator_quadrants());
        (live_stats, replay_stats)
    }

    #[test]
    fn replay_matches_replay_mode_live_bit_for_bit() {
        let p = noisy_loop(2000);
        let (live, replay) = replay_pair(&p, PipelineConfig::paper());
        assert_eq!(live, replay);
        assert!(replay.recoveries > 100, "noisy branch must mispredict");
        assert_eq!(replay.squashed_insts, 0);
        assert_eq!(replay.fetched_insts, replay.committed_insts);
    }

    #[test]
    fn replay_matches_gated_replay_mode_live() {
        let p = noisy_loop(1500);
        let (live, replay) = replay_pair(&p, PipelineConfig::paper().with_gating(1));
        assert_eq!(live, replay);
        assert!(replay.gated_cycles > 0, "gating must engage");
    }

    #[test]
    fn replay_commits_the_architectural_stream() {
        let p = noisy_loop(500);
        let trace = export_program(&p, 10_000_000).unwrap();
        let mut replay = TraceSimulator::new(&trace, PipelineConfig::paper(), Gshare::new(12));
        let stats = replay.run_to_completion();
        assert_eq!(stats.committed_insts, trace.len() as u64);
        assert_eq!(
            stats.committed_branches,
            trace
                .iter()
                .filter(|r| r.class == TraceClass::CondBranch)
                .count() as u64
        );
        assert_eq!(stats.mispredicted_all, stats.mispredicted_committed);
    }

    #[test]
    fn truncated_traces_replay_without_a_halt() {
        let p = noisy_loop(500);
        let trace = export_program(&p, 10_000_000).unwrap();
        let cut = &trace[..trace.len() / 2];
        let mut replay = TraceSimulator::new(cut, PipelineConfig::paper(), Gshare::new(12));
        let stats = replay.run_to_completion();
        assert_eq!(stats.committed_insts, cut.len() as u64);
        assert!(stats.cycles > 0);
    }

    #[test]
    fn capture_hook_matches_interpreter_export() {
        // The simulator-hooked exporter (fetch-time push + rewind-time
        // truncate) and the interpreter-driven exporter are independent
        // implementations; they must emit the identical record stream even
        // when recoveries rewind the capture buffer.
        let p = noisy_loop(800);
        let mut live = Simulator::new(&p, PipelineConfig::paper(), Gshare::new(12));
        live.set_trace_capture(true);
        let stats = live.run_to_completion();
        assert!(stats.recoveries > 0, "capture must survive rewinds");
        let captured = live.take_captured_trace();
        assert_eq!(captured, export_program(&p, 10_000_000).unwrap());
        assert_eq!(captured.len(), stats.committed_insts as usize);
    }

    #[test]
    fn replay_mode_preserves_the_committed_population() {
        // Wrong-path branches only ever see wrong-path GHR bits, so for the
        // committed stream, normal (squash) mode and replay (stall) mode
        // feed predictors and estimators identical inputs in identical
        // order: the committed-population results must agree exactly.
        let p = noisy_loop(1500);
        let run = |replay: bool| {
            let mut sim = Simulator::new(&p, PipelineConfig::paper(), Gshare::new(12));
            sim.set_replay_fetch(replay);
            sim.add_estimator(Jrs::paper_enhanced());
            sim.add_estimator(SaturatingConfidence::selected());
            let stats = sim.run_to_completion();
            let quads = sim.estimator_quadrants().to_vec();
            (stats, quads)
        };
        let (normal, nq) = run(false);
        let (replay, rq) = run(true);
        assert_eq!(normal.committed_insts, replay.committed_insts);
        assert_eq!(normal.committed_branches, replay.committed_branches);
        assert_eq!(normal.mispredicted_committed, replay.mispredicted_committed);
        for (n, r) in nq.iter().zip(&rq) {
            assert_eq!(n.committed, r.committed);
        }
        // The replay never fetches a wrong path.
        assert_eq!(replay.squashed_insts, 0);
        assert!(normal.squashed_insts > 0);
    }

    #[test]
    #[should_panic(expected = "eager execution")]
    fn eager_configuration_is_rejected() {
        let trace: Vec<TraceRecord> = Vec::new();
        let _ = TraceSimulator::new(
            &trace,
            PipelineConfig::paper().with_eager(1),
            Gshare::new(12),
        );
    }
}
