//! Golden snapshots of the eight workload analogs: final `CHECKSUM_REG`
//! value, dynamic branch count, and dynamic instruction count at two
//! scales, committed under `tests/golden/workloads.txt`. The branch stream
//! feeds every predictor and estimator in the study — a dispatch or
//! interpreter rewrite that silently changes it would invalidate all
//! downstream numbers, so any drift must fail loudly here.
//!
//! To refresh after an *intentional* workload change:
//!
//! ```text
//! cargo test --test golden -- --ignored regenerate_golden_snapshots
//! ```
//!
//! then review the diff of `tests/golden/workloads.txt` like any other
//! code change. The same file pins the predictor families
//! (`families.txt`), the traced event streams of the live and trace-replay
//! pipelines (`trace_events.txt`) and the hashes of every `repro`
//! artifact (`repro_artifacts.txt`); each file's header names its
//! regenerate test.

use cestim::sim::suite::{all_ids, run_experiment};
use cestim::sim::{export_config_trace, run_instrumented};
use cestim::{run, EstimatorSpec, PipelineConfig, PredictorKind, RunConfig, TraceSimulator};
use cestim_exec::fnv1a;
use cestim_isa::{Machine, Step};
use cestim_obs::Tracer;
use cestim_pipeline::NullObserver;
use cestim_workloads::{WorkloadKind, CHECKSUM_REG};
use std::fmt::Write as _;
use std::path::PathBuf;

const SCALES: [u32; 2] = [1, 2];
const STEP_LIMIT: u64 = 200_000_000;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/workloads.txt")
}

fn families_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/families.txt")
}

/// Functionally executes one workload, returning
/// `(checksum, dynamic_branches, dynamic_insts)`.
fn execute(kind: WorkloadKind, scale: u32) -> (u32, u64, u64) {
    let w = kind.build(scale);
    let mut m = Machine::new(&w.program);
    let mut branches = 0u64;
    let mut insts = 0u64;
    while !m.halted() {
        assert!(insts < STEP_LIMIT, "{kind} scale {scale} did not halt");
        if matches!(m.step(&w.program), Step::Branch { .. }) {
            branches += 1;
        }
        insts += 1;
    }
    (m.reg(CHECKSUM_REG), branches, insts)
}

fn render() -> String {
    let mut out = String::from(
        "# workload scale checksum dynamic_branches dynamic_insts\n\
         # regenerate: cargo test --test golden -- --ignored regenerate_golden_snapshots\n",
    );
    for kind in WorkloadKind::all() {
        for scale in SCALES {
            let (checksum, branches, insts) = execute(kind, scale);
            writeln!(
                out,
                "{} {} {:#010x} {} {}",
                kind.name(),
                scale,
                checksum,
                branches,
                insts
            )
            .expect("write to string");
        }
    }
    out
}

#[test]
fn golden_snapshots_match() {
    let expected = std::fs::read_to_string(golden_path())
        .expect("tests/golden/workloads.txt missing — run the regenerate test");
    let actual = render();
    assert_eq!(
        actual, expected,
        "workload branch streams drifted from the committed golden snapshot; \
         if the change is intentional, regenerate (see file header) and review"
    );
}

#[test]
#[ignore = "rewrites the golden file; run explicitly after intentional workload changes"]
fn regenerate_golden_snapshots() {
    let path = golden_path();
    std::fs::create_dir_all(path.parent().expect("parent dir")).expect("mkdir");
    std::fs::write(&path, render()).expect("write golden file");
}

/// Estimator specs for the family snapshot, written in the CLI grammar so
/// the snapshot also pins the spec parser for the modern families.
const FAMILY_SPECS: [&str; 4] = [
    "satctr",
    "distance:3",
    "timing:4",
    "vote:2:satctr,distance:3,timing:4",
];

/// Runs every predictor family (classic and modern) over one fixed
/// workload with the full estimator roster attached, and renders exact
/// integer outcomes: misprediction counts plus each estimator's committed
/// quadrant. Any change to TAGE/perceptron update rules, timing-latency
/// plumbing, or vote quorum logic shifts these counts and fails the diff.
fn render_families() -> String {
    let specs: Vec<EstimatorSpec> = FAMILY_SPECS
        .iter()
        .map(|s| s.parse().expect("family spec parses"))
        .collect();
    let mut out = String::from(
        "# predictor estimator mispred_committed committed_branches c_hc i_hc c_lc i_lc\n\
         # workload: gcc scale 1 | regenerate: cargo test --test golden -- --ignored regenerate_family_snapshots\n",
    );
    for p in PredictorKind::all() {
        let res = run(&RunConfig::paper(WorkloadKind::Gcc, 1, p), &specs);
        for e in &res.estimators {
            let q = e.quadrants.committed;
            writeln!(
                out,
                "{} {} {} {} {} {} {} {}",
                p.name(),
                e.name,
                res.stats.mispredicted_committed,
                res.stats.committed_branches,
                q.c_hc,
                q.i_hc,
                q.c_lc,
                q.i_lc
            )
            .expect("write to string");
        }
    }
    out
}

#[test]
fn family_snapshots_match() {
    let expected = std::fs::read_to_string(families_path())
        .expect("tests/golden/families.txt missing — run the regenerate test");
    let actual = render_families();
    assert_eq!(
        actual, expected,
        "predictor/estimator family outcomes drifted from the committed golden \
         snapshot; if the change is intentional, regenerate (see file header) and review"
    );
}

#[test]
#[ignore = "rewrites the golden file; run explicitly after intentional family changes"]
fn regenerate_family_snapshots() {
    let path = families_path();
    std::fs::create_dir_all(path.parent().expect("parent dir")).expect("mkdir");
    std::fs::write(&path, render_families()).expect("write golden file");
}

fn trace_events_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/trace_events.txt")
}

/// Event kinds in `TraceEvent::kind` spelling, in column order.
const EVENT_KINDS: [&str; 7] = [
    "fetch", "predict", "resolve", "commit", "squash", "recovery", "gate",
];

/// Renders one snapshot row: per-kind event counts plus the FNV-1a hash
/// of the JSONL the tracer exports (the `--trace-out` bytes).
fn trace_event_row(out: &mut String, name: &str, tracer: &Tracer) {
    assert_eq!(tracer.dropped(), 0, "unbounded tracer must not drop");
    let mut counts = [0u64; EVENT_KINDS.len()];
    for ev in tracer.events() {
        let i = EVENT_KINDS
            .iter()
            .position(|&k| k == ev.kind())
            .expect("known event kind");
        counts[i] += 1;
    }
    let mut jsonl = Vec::new();
    tracer.export_jsonl(&mut jsonl).expect("export to memory");
    write!(out, "{name} {}", tracer.len()).expect("write to string");
    for c in counts {
        write!(out, " {c}").expect("write to string");
    }
    writeln!(out, " {:016x}", fnv1a(&jsonl)).expect("write to string");
}

/// Records the full event stream of one workload under the plain, gated
/// and eager pipelines, then of its exported trace replayed through
/// `TraceSimulator` (plain and gated). Any change to which events fire,
/// their order, their cycles or their payloads fails the diff.
fn render_trace_events() -> String {
    let mut out = String::from(
        "# config events fetch predict resolve commit squash recovery gate jsonl_fnv1a\n\
         # workload: compress scale 1, gshare + enhanced JRS | regenerate: cargo test --test golden -- --ignored regenerate_trace_event_snapshots\n",
    );
    let base = RunConfig::paper(WorkloadKind::Compress, 1, PredictorKind::Gshare);
    for (name, pipeline) in [
        ("paper", PipelineConfig::paper()),
        ("gated", PipelineConfig::paper().with_gating(1)),
        ("eager", PipelineConfig::paper().with_eager(1)),
    ] {
        let mut cfg = base.clone();
        cfg.pipeline = pipeline;
        let inst = run_instrumented(
            &cfg,
            &[EstimatorSpec::jrs_paper()],
            Tracer::unbounded(),
            &mut NullObserver,
        );
        trace_event_row(&mut out, name, &inst.tracer);
    }
    let records = export_config_trace(&base).expect("trace export");
    for (name, pipeline) in [
        ("replay", PipelineConfig::paper()),
        ("replay-gated", PipelineConfig::paper().with_gating(1)),
    ] {
        let mut sim = TraceSimulator::new(&records, pipeline, PredictorKind::Gshare.build_any());
        sim.add_estimator(EstimatorSpec::jrs_paper().build_any(None));
        let mut tracer = Tracer::unbounded();
        sim.run(&mut tracer);
        trace_event_row(&mut out, name, &tracer);
    }
    out
}

#[test]
fn trace_event_snapshots_match() {
    let expected = std::fs::read_to_string(trace_events_path())
        .expect("tests/golden/trace_events.txt missing — run the regenerate test");
    let actual = render_trace_events();
    assert_eq!(
        actual, expected,
        "the traced event stream drifted from the committed golden snapshot; \
         if the change is intentional, regenerate (see file header) and review"
    );
}

#[test]
#[ignore = "rewrites the golden file; run explicitly after intentional event-stream changes"]
fn regenerate_trace_event_snapshots() {
    let path = trace_events_path();
    std::fs::create_dir_all(path.parent().expect("parent dir")).expect("mkdir");
    std::fs::write(&path, render_trace_events()).expect("write golden file");
}

fn repro_artifacts_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/repro_artifacts.txt")
}

/// The artifacts tier-1 checks: both pipeline front ends (live and trace
/// replay), eager execution and SMT, in a few seconds of debug build.
const TIER1_ARTIFACTS: [&str; 4] = ["table2", "ext-eager", "ext-smt", "ext-predictability"];

/// One golden row: the FNV-1a of an experiment's rendered text and of its
/// JSON exactly as `repro` writes them (`<id>.txt`, `<id>.json`).
fn repro_artifact_row(id: &str) -> String {
    let r = run_experiment(id, 1).expect("known experiment id");
    let json = serde_json::to_string_pretty(&r.json).expect("render json");
    format!(
        "{id} {:016x} {:016x}\n",
        fnv1a(r.text.as_bytes()),
        fnv1a(json.as_bytes())
    )
}

fn render_repro_artifacts(ids: &[&str]) -> String {
    let mut out = String::from(
        "# experiment text_fnv1a json_fnv1a\n\
         # scale 1 | regenerate: cargo test --release --test golden -- --ignored regenerate_repro_artifact_snapshots\n",
    );
    for id in ids {
        out.push_str(&repro_artifact_row(id));
    }
    out
}

fn committed_repro_artifacts() -> String {
    std::fs::read_to_string(repro_artifacts_path())
        .expect("tests/golden/repro_artifacts.txt missing — run the regenerate test")
}

#[test]
fn repro_artifact_subset_matches() {
    let expected = committed_repro_artifacts();
    for id in TIER1_ARTIFACTS {
        let row = repro_artifact_row(id);
        assert!(
            expected.lines().any(|l| format!("{l}\n") == row),
            "the {id} artifacts drifted from the committed golden hashes (now: {row}); \
             if the change is intentional, regenerate (see file header) and review"
        );
    }
}

#[test]
#[ignore = "runs every experiment; too slow for a debug build (CI runs it in release)"]
fn repro_artifact_snapshots_match_all() {
    assert_eq!(
        render_repro_artifacts(all_ids()),
        committed_repro_artifacts(),
        "repro artifacts drifted from the committed golden hashes; \
         if the change is intentional, regenerate (see file header) and review"
    );
}

#[test]
#[ignore = "rewrites the golden file; run explicitly after intentional artifact changes"]
fn regenerate_repro_artifact_snapshots() {
    let path = repro_artifacts_path();
    std::fs::create_dir_all(path.parent().expect("parent dir")).expect("mkdir");
    std::fs::write(&path, render_repro_artifacts(all_ids())).expect("write golden file");
}
