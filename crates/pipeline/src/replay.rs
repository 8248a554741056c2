//! The trace front end: [`TraceSimulator`], replaying an imported branch
//! trace ([`cestim_trace_io::TraceRecord`] stream) through the shared
//! timing backend. Each record hands the backend the same facts the
//! interpreter does — address, class, registers, memory address or branch
//! direction — so fetch width, I-cache batching, the speculation window,
//! dataflow-timed resolution, gating, training at commit and cancel
//! polling are the backend's, written once.

use crate::backend::{Decoded, FrontEnd, Pipeline};
use crate::PipelineConfig;
use cestim_bpred::AnyPredictor;
use cestim_trace_io::TraceRecord;

/// Replays a branch trace through the pipeline timing model: the
/// [`Pipeline`] backend fed by a cursor over the records.
///
/// The records are the actual path, so the backend runs under its
/// no-wrong-path policy, the same one
/// [`Simulator::set_replay_fetch`](crate::Simulator::set_replay_fetch)
/// selects: a trace exported from a program replays to the same
/// statistics, quadrants and event stream as the live replay-mode run.
/// Eager execution is not supported (there is no wrong path to fork
/// down); gating is.
pub type TraceSimulator<'t> = Pipeline<TraceCursor<'t>>;

/// The front end of [`TraceSimulator`]: a cursor over the records.
pub struct TraceCursor<'t> {
    records: &'t [TraceRecord],
    cursor: usize,
}

impl FrontEnd for TraceCursor<'_> {
    type Next = TraceRecord;
    type Checkpoint = ();

    fn follows_predictions(&self) -> bool {
        false
    }

    #[inline]
    fn peek(&self) -> Option<TraceRecord> {
        self.records.get(self.cursor).copied()
    }

    #[inline]
    fn decoded(r: &TraceRecord) -> Decoded {
        Decoded {
            pc: r.pc,
            class: r.class,
            s1: r.s1,
            s2: r.s2,
            dst: r.dst,
        }
    }

    #[inline]
    fn step(&mut self, rec: TraceRecord) -> u32 {
        self.cursor += 1;
        rec.target
    }

    #[inline]
    fn step_branch(&mut self, rec: TraceRecord, _predicted: bool) -> bool {
        self.cursor += 1;
        rec.taken
    }

    fn checkpoint(&mut self) {}
}

impl<'t> TraceSimulator<'t> {
    /// Creates a replay over `records` with the given predictor.
    ///
    /// # Panics
    ///
    /// Panics if [`PipelineConfig::validate`] rejects `cfg`, or if eager
    /// execution is configured.
    pub fn new(
        records: &'t [TraceRecord],
        cfg: PipelineConfig,
        predictor: impl Into<AnyPredictor>,
    ) -> TraceSimulator<'t> {
        let fe = TraceCursor { records, cursor: 0 };
        Pipeline::with_front_end(fe, cfg, predictor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulator::tests::noisy_loop;
    use crate::Simulator;
    use cestim_bpred::Gshare;
    use cestim_core::{Jrs, SaturatingConfidence};
    use cestim_trace_io::{export_program, TraceClass};

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
