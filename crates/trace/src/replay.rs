//! Post-hoc replay of recorded [`TraceEvent`] streams through any
//! [`SimObserver`].
//!
//! A `cestim-obs` trace is recorded by a [`Tracer`](cestim_obs::Tracer)
//! attached as an observer, so it holds pipeline events in exactly the
//! order (and with exactly the payloads) every live [`SimObserver`] hook
//! saw them. Replaying a trace through
//! [`DistanceAnalysis`](crate::DistanceAnalysis),
//! [`ClusterAnalysis`](crate::ClusterAnalysis) or any other observer
//! reproduces the live analysis bit-for-bit — without re-running the
//! simulation.

use cestim_obs::{TraceEvent, TraceReader};
use cestim_pipeline::{
    FetchEvent, GateEvent, OutcomeEvent, PredictEvent, RecoveryEvent, ResolveEvent, SimObserver,
};
use std::io::{self, BufRead};

/// Replays one recorded event into an observer.
///
/// Each event kind maps onto the hook that recorded it; `Commit` and
/// `Squash` both map onto [`SimObserver::on_branch_outcome`] (with
/// `committed` true and false respectively).
pub fn replay_event(ev: &TraceEvent, obs: &mut dyn SimObserver) {
    match ev {
        TraceEvent::Fetch { cycle, pc, count } => obs.on_fetch(&FetchEvent {
            cycle: *cycle,
            pc: *pc,
            count: *count,
        }),
        TraceEvent::Predict {
            seq,
            pc,
            cycle,
            predicted_taken,
            actual_taken,
            mispredicted,
            ghr,
            estimates,
        } => obs.on_branch_predicted(&PredictEvent {
            seq: *seq,
            pc: *pc,
            predicted_taken: *predicted_taken,
            actual_taken: *actual_taken,
            mispredicted: *mispredicted,
            cycle: *cycle,
            ghr: *ghr,
            estimates,
        }),
        TraceEvent::Resolve {
            seq,
            pc,
            cycle,
            mispredicted,
        } => obs.on_branch_resolved(&ResolveEvent {
            seq: *seq,
            pc: *pc,
            mispredicted: *mispredicted,
            cycle: *cycle,
        }),
        TraceEvent::Commit {
            seq,
            pc,
            predicted_taken,
            actual_taken,
            mispredicted,
            fetch_cycle,
            resolve_cycle,
            ghr,
            estimates,
        }
        | TraceEvent::Squash {
            seq,
            pc,
            predicted_taken,
            actual_taken,
            mispredicted,
            fetch_cycle,
            resolve_cycle,
            ghr,
            estimates,
        } => obs.on_branch_outcome(&OutcomeEvent {
            seq: *seq,
            pc: *pc,
            predicted_taken: *predicted_taken,
            actual_taken: *actual_taken,
            mispredicted: *mispredicted,
            committed: matches!(ev, TraceEvent::Commit { .. }),
            fetch_cycle: *fetch_cycle,
            resolve_cycle: *resolve_cycle,
            ghr: *ghr,
            estimates,
        }),
        TraceEvent::Recovery {
            seq,
            pc,
            cycle,
            squashed,
            penalty,
        } => obs.on_recovery(&RecoveryEvent {
            seq: *seq,
            pc: *pc,
            cycle: *cycle,
            squashed: *squashed,
            penalty: *penalty,
        }),
        TraceEvent::Gate {
            cycle,
            low_confidence,
        } => obs.on_fetch_gated(&GateEvent {
            cycle: *cycle,
            low_confidence: *low_confidence,
        }),
    }
}

/// Replays a sequence of recorded events in order; returns the number of
/// events replayed.
pub fn replay<'e>(
    events: impl IntoIterator<Item = &'e TraceEvent>,
    obs: &mut dyn SimObserver,
) -> u64 {
    let mut n = 0;
    for ev in events {
        replay_event(ev, obs);
        n += 1;
    }
    n
}

/// Replays a JSONL trace (as written by `cestim-obs`'s `TraceWriter`) into
/// an observer, streaming line by line through
/// [`TraceReader`](cestim_obs::TraceReader): a torn final line is dropped,
/// exactly as `read_trace_jsonl` drops it. Returns the number of events
/// replayed.
///
/// # Errors
///
/// Returns an error on I/O failure or malformed JSON before the final
/// line (events before it have already been replayed).
pub fn replay_jsonl<R: BufRead>(r: R, obs: &mut dyn SimObserver) -> io::Result<u64> {
    let mut n = 0;
    for ev in TraceReader::new(r) {
        replay_event(&ev?, obs);
        n += 1;
    }
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DistanceAnalysis, DistanceSeries};
    use cestim_bpred::Gshare;
    use cestim_core::Jrs;
    use cestim_isa::{ProgramBuilder, Reg};
    use cestim_obs::Tracer;
    use cestim_pipeline::{MultiObserver, PipelineConfig, Simulator};

    /// Branch on an LCG bit each iteration: misprediction-rich.
    fn noisy_program(n: i32) -> cestim_isa::Program {
        let mut b = ProgramBuilder::new();
        b.li(Reg::S0, 987654);
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

    #[test]
    fn replay_reproduces_live_distance_analysis_bit_for_bit() {
        let p = noisy_program(1200);

        // Live run: distance analysis streamed from the simulator, with a
        // tracer recording the same events.
        let mut sim = Simulator::new(&p, PipelineConfig::paper(), Box::new(Gshare::new(12)));
        sim.add_estimator(Box::new(Jrs::paper_enhanced()));
        let mut tracer = Tracer::unbounded();
        let mut live = DistanceAnalysis::new(64);
        sim.run(&mut MultiObserver::new(vec![&mut live, &mut tracer]));
        assert_eq!(tracer.dropped(), 0, "unbounded tracer must not drop");

        // Replay from memory.
        let mut replayed = DistanceAnalysis::new(64);
        let n = replay(tracer.events(), &mut replayed);
        assert!(n > 0);

        // And through the JSONL round trip.
        let mut buf = Vec::new();
        tracer.export_jsonl(&mut buf).unwrap();
        let mut from_file = DistanceAnalysis::new(64);
        let m = replay_jsonl(buf.as_slice(), &mut from_file).unwrap();
        assert_eq!(m, n);

        for series in [
            DistanceSeries::PreciseAll,
            DistanceSeries::PreciseCommitted,
            DistanceSeries::PerceivedAll,
            DistanceSeries::PerceivedCommitted,
        ] {
            assert_eq!(
                live.histogram(series),
                replayed.histogram(series),
                "{series:?} differs in-memory"
            );
            assert_eq!(
                live.histogram(series),
                from_file.histogram(series),
                "{series:?} differs via JSONL"
            );
        }
    }

    #[test]
    fn replay_covers_fetch_recovery_and_gate_hooks() {
        #[derive(Default)]
        struct Hooks {
            fetched: u64,
            recoveries: u64,
            gated: u64,
        }
        impl SimObserver for Hooks {
            fn on_fetch(&mut self, _: &FetchEvent) {
                self.fetched += 1;
            }
            fn on_recovery(&mut self, _: &RecoveryEvent) {
                self.recoveries += 1;
            }
            fn on_fetch_gated(&mut self, _: &GateEvent) {
                self.gated += 1;
            }
        }
        let events = [
            TraceEvent::Recovery {
                seq: 0,
                pc: 4,
                cycle: 9,
                squashed: 1,
                penalty: 3,
            },
            TraceEvent::Gate {
                cycle: 10,
                low_confidence: 2,
            },
            TraceEvent::Fetch {
                cycle: 11,
                pc: 8,
                count: 4,
            },
        ];
        let mut h = Hooks::default();
        assert_eq!(replay(events.iter(), &mut h), 3);
        assert_eq!(h.fetched, 1);
        assert_eq!(h.recoveries, 1);
        assert_eq!(h.gated, 1);
    }

    #[test]
    fn both_jsonl_entry_points_drop_a_torn_final_line() {
        let p = noisy_program(200);
        let mut sim = Simulator::new(&p, PipelineConfig::paper(), Gshare::new(12));
        sim.add_estimator(Jrs::paper_enhanced());
        let mut tracer = Tracer::unbounded();
        sim.run(&mut tracer);
        let mut buf = Vec::new();
        tracer.export_jsonl(&mut buf).unwrap();
        // Cut the file mid-way through its last record.
        let torn = &buf[..buf.len() - 10];

        let read = cestim_obs::read_trace_jsonl(torn).unwrap();
        assert_eq!(read.len(), tracer.len() - 1);
        let mut replayed = Tracer::unbounded();
        let n = replay_jsonl(torn, &mut replayed).unwrap();
        assert_eq!(n as usize, read.len());
        assert!(replayed.events().eq(read.iter()));
    }
}
