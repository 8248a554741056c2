//! The interpreter front end: [`Simulator`], the pipeline with wrong-path
//! execution. The architectural interpreter supplies the instruction
//! stream, the branch checkpoints and the rewinds; all timing belongs to
//! the shared backend ([`Pipeline`]).

use crate::backend::{Decoded, FrontEnd, Pipeline, Scoreboard};
use crate::PipelineConfig;
use cestim_bpred::AnyPredictor;
use cestim_isa::{Checkpoint, Inst, Machine, Program, Reg, Step};
use cestim_trace_io::{TraceClass, TraceRecord, NO_REG};
use std::collections::VecDeque;

/// Pipeline simulator over the architectural interpreter, with wrong-path
/// execution: the [`Pipeline`] timing backend fed by the interpreter front
/// end.
///
/// Instructions execute architecturally at decode, so the true outcome of
/// every branch — even a wrong-path one — is known immediately, exactly
/// like the paper's "speculative trace". Every predicted conditional
/// branch takes a full checkpoint and the machine *follows the
/// prediction*, right or wrong; a resolving misprediction rewinds the
/// machine to its checkpoint, and wrong-path branches can themselves
/// mispredict and recover (nested recovery).
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
pub type Simulator<'p> = Pipeline<Interpreter<'p>>;

/// The front end of [`Simulator`]: the architectural interpreter walking
/// the path fetch follows.
pub struct Interpreter<'p> {
    program: &'p Program,
    /// Each instruction with its fetch metadata, predecoded once and
    /// indexed by PC: the program is immutable, so fetch reads this flat
    /// table instead of re-matching the `Inst` enum on every fetch.
    meta: Vec<(Inst, Decoded)>,
    machine: Machine,
    /// Fetch follows predictions down wrong paths (`false` in replay fetch
    /// mode; see [`Simulator::set_replay_fetch`]).
    wrong_path: bool,
    /// Scoreboard undo log, mirroring the machine's register undo log:
    /// `(register byte, overwritten ready-cycle)` per scoreboard write.
    /// Branch checkpoints record a position instead of copying the whole
    /// scoreboard; a rewind replays the log backwards, commit releases
    /// from the front.
    sb_undo: VecDeque<(u8, u64)>,
    sb_undo_base: u64,
    /// When `Some`, every fetched instruction is appended as a
    /// [`TraceRecord`] and wrong-path records are truncated away on
    /// rewind, so the buffer always holds exactly the architectural
    /// stream.
    trace_capture: Option<Vec<TraceRecord>>,
}

impl Interpreter<'_> {
    #[cfg(test)]
    pub(crate) fn machine(&self) -> &Machine {
        &self.machine
    }

    #[inline]
    fn capture(&mut self, pc: u32, inst: &Inst, step: &Step) {
        if let Some(buf) = &mut self.trace_capture {
            buf.push(TraceRecord::classify(pc, inst, step));
        }
    }
}

impl FrontEnd for Interpreter<'_> {
    type Next = (Inst, Decoded);

    /// Machine checkpoint plus the scoreboard undo-log position.
    type Checkpoint = (Checkpoint, u64);

    fn follows_predictions(&self) -> bool {
        self.wrong_path
    }

    #[inline]
    fn peek(&self) -> Option<(Inst, Decoded)> {
        if self.machine.halted() {
            return None;
        }
        // A wrong-path PC can run off the program; fetch waits for recovery.
        self.meta.get(self.machine.pc() as usize).copied()
    }

    #[inline]
    fn decoded(&(_, decoded): &(Inst, Decoded)) -> Decoded {
        decoded
    }

    #[inline]
    fn step(&mut self, (inst, decoded): (Inst, Decoded)) -> u32 {
        let step = self.machine.step_decoded(inst, None);
        self.capture(decoded.pc, &inst, &step);
        match step {
            Step::Load { addr } | Step::Store { addr } => addr,
            _ => 0,
        }
    }

    #[inline]
    fn step_branch(&mut self, (inst, decoded): (Inst, Decoded), predicted: bool) -> bool {
        let follow = self.wrong_path.then_some(predicted);
        let step = self.machine.step_decoded(inst, follow);
        self.capture(decoded.pc, &inst, &step);
        match step {
            Step::Branch { taken, .. } => taken,
            other => unreachable!("branch instruction stepped to {other:?}"),
        }
    }

    #[inline]
    fn checkpoint(&mut self) -> Self::Checkpoint {
        (
            self.machine.checkpoint(),
            self.sb_undo_base + self.sb_undo.len() as u64,
        )
    }

    #[inline]
    fn scoreboard_write(&mut self, reg: u8, old: u64) {
        self.sb_undo.push_back((reg, old));
    }

    fn rewind(
        &mut self,
        (cp, sb_mark): &Self::Checkpoint,
        actual: bool,
        arch_insts: u64,
        scoreboard: &mut Scoreboard,
    ) {
        if let Some(buf) = &mut self.trace_capture {
            // Drop the captured wrong-path records; the mispredicted branch
            // itself stays (it commits once re-steered).
            buf.truncate(arch_insts as usize);
        }
        self.machine.restore(cp);
        while self.sb_undo_base + self.sb_undo.len() as u64 > *sb_mark {
            let (r, old) = self.sb_undo.pop_back().expect("sb undo underflow");
            scoreboard[r as usize] = old;
        }
        let step = self.machine.step_forced(self.program, actual);
        debug_assert!(matches!(
            step,
            Step::Branch { taken, followed, .. } if taken == actual && followed == actual
        ));
    }

    #[inline]
    fn release(&mut self, (cp, sb_mark): &Self::Checkpoint) {
        // The oldest checkpoint is gone; undo entries older than it can
        // never be needed again. Dropped in one bulk drain — commit is on
        // the per-branch hot path and the entry type is trivial.
        let n = (sb_mark.saturating_sub(self.sb_undo_base) as usize).min(self.sb_undo.len());
        if n > 0 {
            self.sb_undo.drain(..n);
            self.sb_undo_base += n as u64;
        }
        self.machine.release(cp);
    }
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
    /// Panics if [`PipelineConfig::validate`] rejects `cfg`.
    pub fn new(
        program: &'p Program,
        cfg: PipelineConfig,
        predictor: impl Into<AnyPredictor>,
    ) -> Simulator<'p> {
        let reg = |r: Option<Reg>| r.map_or(NO_REG, |r| r.index() as u8);
        let meta = (0..program.len() as u32)
            .map(|pc| {
                let inst = *program.inst(pc).expect("pc in range");
                let (s1, s2) = inst.srcs();
                let decoded = Decoded {
                    pc,
                    class: TraceClass::of(&inst),
                    s1: reg(s1),
                    s2: reg(s2),
                    dst: reg(inst.dst()),
                };
                (inst, decoded)
            })
            .collect();
        let fe = Interpreter {
            program,
            meta,
            machine: Machine::new(program),
            wrong_path: true,
            sb_undo: VecDeque::new(),
            sb_undo_base: 0,
            trace_capture: None,
        };
        Pipeline::with_front_end(fe, cfg, predictor)
    }

    /// Switches fetch into *replay* mode, the reference semantics for
    /// trace replay: the interpreter follows the **actual** direction of
    /// every branch and the backend applies its no-wrong-path policy —
    /// the history receives the actual outcome at fetch, and a
    /// mispredicted branch stalls fetch until `resolve + 1 +
    /// mispredict_penalty` (the cycle fetch would resume at after a live
    /// recovery) and counts a recovery with zero squashed work.
    /// [`TraceSimulator`](crate::TraceSimulator) runs the same backend
    /// under the same policy, so a trace exported from this program
    /// replays to identical results.
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
        self.reconfigure(|fe| fe.wrong_path = !on);
    }

    /// Enables (or disables) trace capture: every *architectural*
    /// instruction fetched from now on is recorded as a [`TraceRecord`];
    /// wrong-path work is truncated away at rewind, so after a completed
    /// run the buffer is exactly the committed stream — byte-for-byte what
    /// [`cestim_trace_io::export_program`] produces for the same program.
    pub fn set_trace_capture(&mut self, on: bool) {
        self.front_end_mut().trace_capture = on.then(Vec::new);
    }

    /// Takes the captured trace, leaving capture disabled.
    pub fn take_captured_trace(&mut self) -> Vec<TraceRecord> {
        self.front_end_mut()
            .trace_capture
            .take()
            .unwrap_or_default()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::{OutcomeEvent, PredictEvent, ResolveEvent, SimObserver, TraceSimulator};
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
    pub(crate) fn noisy_loop(n: i32) -> Program {
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
        assert_eq!(s.front_end().machine().reg(Reg::T3), t3_ref);
        assert!(s.front_end().machine().halted());
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
            s.step_cycle(true, &mut crate::NullObserver);
            assert!(s.active_forks() <= 1);
        }
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

    /// Runs `run` under an already expired deadline and asserts the first
    /// poll window abandons it with the cancel panic.
    fn assert_cancelled(run: impl FnOnce()) {
        use std::time::{Duration, Instant};
        let _g = cestim_obs::cancel::arm(Instant::now() - Duration::from_millis(1), 1024);
        let t0 = Instant::now();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)).unwrap_err();
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
    fn cooperative_cancel_abandons_an_overdue_run() {
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
        assert_cancelled(|| {
            s.run_to_completion();
        });
    }

    #[test]
    fn cooperative_cancel_abandons_an_overdue_trace_replay() {
        // One jump per fetch burst: far more cycles than one poll window.
        let jump = cestim_trace_io::TraceRecord {
            pc: 0,
            target: 0,
            taken: false,
            class: TraceClass::Jump,
            dst: NO_REG,
            s1: NO_REG,
            s2: NO_REG,
        };
        let records = vec![jump; 200_000];
        let mut s = TraceSimulator::new(&records, PipelineConfig::paper(), Gshare::new(10));
        assert_cancelled(|| {
            s.run_to_completion();
        });
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
