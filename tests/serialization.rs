//! Serialization round-trips on real simulation output.

use cestim::{run_with_observer, EstimatorSpec, PredictorKind, RunConfig, WorkloadKind};
use cestim_obs::{read_trace_jsonl, TraceEvent, Tracer};

/// `(seq, committed, mispredicted, estimate count)` of a `Commit` or
/// `Squash` event — the per-branch outcome record of the trace.
fn outcome(ev: &TraceEvent) -> Option<(u64, bool, bool, usize)> {
    match ev {
        TraceEvent::Commit {
            seq,
            mispredicted,
            estimates,
            ..
        } => Some((*seq, true, *mispredicted, estimates.len())),
        TraceEvent::Squash {
            seq,
            mispredicted,
            estimates,
            ..
        } => Some((*seq, false, *mispredicted, estimates.len())),
        _ => None,
    }
}

#[test]
fn trace_of_a_real_run_round_trips_through_jsonl() {
    let mut tracer = Tracer::unbounded();
    let out = run_with_observer(
        &RunConfig::paper(WorkloadKind::Compress, 1, PredictorKind::Gshare),
        &[EstimatorSpec::jrs_paper()],
        &mut tracer,
    );
    let outcomes: Vec<_> = tracer.events().filter_map(outcome).collect();
    assert_eq!(outcomes.len() as u64, out.stats.fetched_branches);

    let mut buf = Vec::new();
    tracer.export_jsonl(&mut buf).unwrap();
    let back = read_trace_jsonl(buf.as_slice()).unwrap();
    assert!(back.iter().eq(tracer.events()));

    // Sanity on the content: committed records are in program order by seq,
    // every record carries exactly one estimate.
    let back: Vec<_> = back.iter().filter_map(outcome).collect();
    let committed: Vec<_> = back.iter().filter(|r| r.1).collect();
    assert!(committed.windows(2).all(|w| w[0].0 < w[1].0));
    assert!(back.iter().all(|r| r.3 == 1));
    let mispredicted = back.iter().filter(|r| r.1 && r.2).count();
    assert_eq!(mispredicted as u64, out.stats.mispredicted_committed);
}

#[test]
fn run_outcome_serializes_to_json() {
    let out = cestim::run(
        &RunConfig::paper(WorkloadKind::Ijpeg, 1, PredictorKind::Gshare),
        &[EstimatorSpec::jrs_paper()],
    );
    let s = serde_json::to_string(&out.stats).unwrap();
    let back: cestim::PipelineStats = serde_json::from_str(&s).unwrap();
    assert_eq!(back, out.stats);

    let e = serde_json::to_string(&out.estimators).unwrap();
    assert!(e.contains("c_hc"));
}

#[test]
fn programs_serialize_and_reload() {
    let w = WorkloadKind::Perl.build(1);
    let s = serde_json::to_string(&w.program).unwrap();
    let back: cestim::Program = serde_json::from_str(&s).unwrap();
    assert_eq!(back, w.program);
    // The reloaded program must run identically.
    let mut m1 = cestim::Machine::new(&w.program);
    let mut m2 = cestim::Machine::new(&back);
    m1.run(&w.program, u64::MAX);
    m2.run(&back, u64::MAX);
    assert_eq!(
        m1.reg(cestim_workloads::CHECKSUM_REG),
        m2.reg(cestim_workloads::CHECKSUM_REG)
    );
}
