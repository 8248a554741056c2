//! sim-sweep: host time per simulated branch, single-threaded.
//!
//! Eight workload programs (input chosen by the seed) × {gshare, tage,
//! perceptron}, each with the enhanced JRS estimator, in three phases per
//! repetition, interleaved program by program so drift hits all alike:
//!
//! * live — `Simulator` over the program;
//! * replay — `export_program` → `to_binary` → `from_bytes` →
//!   `TraceSimulator` under the three predictors;
//! * observed — the program on gshare with the simulator's own span
//!   collector and phase profiling on.
//!
//! Bypasses `exec`, the result cache, report rendering and `serve`.

use crate::ledger::{median, self_peak_rss_mb, Metrics, Spans};
use crate::Outcome;
use cestim_bpred::BranchPredictor;
use cestim_core::{ConfidenceEstimator, Jrs, Quadrant};
use cestim_exec::{canonical_string, fnv1a};
use cestim_isa::{Machine, Program};
use cestim_obs::span2::{self, SpanCollector, SpanId};
use cestim_pipeline::{PipelineConfig, PipelineStats, Simulator, TraceSimulator};
use cestim_sim::{PredictorKind, EXPORT_MAX_STEPS};
use cestim_trace_io::{export_program, from_bytes, to_binary, TraceClass, TraceRecord};
use cestim_workloads::WorkloadKind;
use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Workload scale of every program in the sweep.
pub const SCALE: u32 = 1;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 21;

/// The predictor families swept.
pub const FAMILIES: [PredictorKind; 3] = [
    PredictorKind::Gshare,
    PredictorKind::Tage,
    PredictorKind::Perceptron,
];

/// Input salt for a seed: the seed selects the input of every program.
fn salt_of(seed: u64) -> u32 {
    (seed & 0xffff_ffff) as u32
}

/// Builds the eight programs for a seed.
fn build_programs(seed: u64) -> Vec<(WorkloadKind, Program)> {
    WorkloadKind::all()
        .iter()
        .map(|&w| (w, w.build_salted(SCALE, salt_of(seed)).program))
        .collect()
}

/// The simulated statistics of one cell that must repeat exactly:
/// committed branches, cycles, committed mispredicts, and the JRS
/// committed quadrant (c_hc, i_hc, c_lc, i_lc).
fn cell_digest(stats: &PipelineStats, q: &Quadrant) -> Vec<u64> {
    vec![
        stats.committed_branches,
        stats.cycles,
        stats.mispredicted_committed,
        q.c_hc,
        q.i_hc,
        q.c_lc,
        q.i_lc,
    ]
}

fn live_cell(program: &Program, f: PredictorKind) -> (PipelineStats, Quadrant) {
    let mut sim = Simulator::new(program, PipelineConfig::paper(), f.build_any());
    sim.add_estimator(Jrs::paper_enhanced());
    let stats = sim.run_to_completion();
    (stats, sim.estimator_quadrants()[0].committed)
}

fn replay_cell(records: &[TraceRecord], f: PredictorKind) -> (PipelineStats, Quadrant) {
    let mut sim = TraceSimulator::new(records, PipelineConfig::paper(), f.build_any());
    sim.add_estimator(Jrs::paper_enhanced());
    let stats = sim.run_to_completion();
    (stats, sim.estimator_quadrants()[0].committed)
}

fn observed_cell(program: &Program, collector: &SpanCollector) -> PipelineStats {
    let mut sim = Simulator::new(
        program,
        PipelineConfig::paper(),
        PredictorKind::Gshare.build_any(),
    );
    sim.add_estimator(Jrs::paper_enhanced());
    let _ambient = span2::set_ambient(collector, SpanId::NONE, "main");
    sim.set_profiling(true);
    sim.run_to_completion()
}

/// Predict+update over the committed conditional branches with a
/// harness-owned global history; optionally the JRS estimator too.
fn predictor_pass(branches: &[(u32, bool)], f: PredictorKind, with_jrs: bool) -> u64 {
    let mut p = f.build_any();
    let mut jrs = Jrs::paper_enhanced();
    let mut ghr = 0u32;
    let mut correct = 0u64;
    for &(pc, taken) in branches {
        let pred = p.predict(pc, ghr);
        if with_jrs {
            black_box(jrs.estimate(pc, ghr, &pred));
            jrs.update(pc, ghr, &pred, pred.taken == taken);
        }
        p.update(pc, taken, &pred);
        correct += u64::from(pred.taken == taken);
        ghr = (ghr << 1) | u32::from(taken);
    }
    black_box(correct)
}

/// One repetition: host seconds of every timed call, keyed
/// `<span name>/<program>`, with the simulated statistics of every cell.
#[derive(Default)]
struct Rep {
    times: BTreeMap<String, f64>,
    cells: BTreeMap<String, Vec<u64>>,
    /// Per-family totals of the live cells.
    live_stats: BTreeMap<&'static str, PipelineStats>,
}

impl Rep {
    /// Times `f` in a span named `span` and files it under
    /// `<span>/<program>`.
    fn time<R>(
        &mut self,
        spans: &Spans,
        span: String,
        parent: u64,
        program: &str,
        f: impl FnOnce() -> R,
    ) -> R {
        let key = format!("{span}/{program}");
        let (r, dt) = spans.time(span, parent, f);
        self.times.insert(key, dt);
        r
    }
}

/// The least-disturbed host time of each timed call over a set of
/// repetitions, summed over the calls whose key starts with `prefix`.
fn best(reps: &[&Rep], prefix: &str) -> f64 {
    let mut sum = 0.0;
    for key in reps[0].times.keys().filter(|k| k.starts_with(prefix)) {
        sum += reps
            .iter()
            .filter_map(|r| r.times.get(key))
            .copied()
            .fold(f64::INFINITY, f64::min);
    }
    sum
}

fn one_rep(
    programs: &[(WorkloadKind, Program)],
    spans: &Spans,
    parent: u64,
    failures: &mut Vec<String>,
    check_decode: bool,
) -> Rep {
    let mut rep = Rep::default();
    let collector = SpanCollector::new();
    for (w, program) in programs {
        let w = w.name();
        let mut live_branches = None;
        for f in FAMILIES {
            let (stats, q) = rep.time(
                spans,
                format!("pipeline.live.{}", f.name()),
                parent,
                w,
                || live_cell(program, f),
            );
            let f = f.name();
            let total = rep.live_stats.entry(f).or_default();
            total.committed_branches += stats.committed_branches;
            total.cycles += stats.cycles;
            total.mispredicted_committed += stats.mispredicted_committed;
            total.squashed_insts += stats.squashed_insts;
            total.committed_insts += stats.committed_insts;
            total.fetched_insts += stats.fetched_insts;
            rep.cells
                .insert(format!("live/{w}/{f}"), cell_digest(&stats, &q));
            live_branches = Some(stats.committed_branches);
        }
        let records = rep.time(spans, "trace_io.export".into(), parent, w, || {
            export_program(program, EXPORT_MAX_STEPS)
        });
        let records = match records {
            Ok(r) => r,
            Err(e) => {
                failures.push(format!("{w}: export failed: {e}"));
                continue;
            }
        };
        let bytes = rep.time(spans, "trace_io.encode".into(), parent, w, || {
            to_binary(&records)
        });
        let decoded = rep.time(spans, "trace_io.decode".into(), parent, w, || {
            from_bytes(&bytes)
        });
        let decoded = match decoded {
            Ok(d) => d,
            Err(e) => {
                failures.push(format!("{w}: decode failed: {e}"));
                continue;
            }
        };
        if check_decode && decoded != records {
            failures.push(format!("{w}: decoded trace differs from export"));
        }
        for f in FAMILIES {
            let (stats, q) = rep.time(
                spans,
                format!("pipeline.replay.{}", f.name()),
                parent,
                w,
                || replay_cell(&decoded, f),
            );
            let f = f.name();
            if Some(stats.committed_branches) != live_branches {
                failures.push(format!(
                    "{w}/{f}: replay committed {} branches, live {live_branches:?}",
                    stats.committed_branches
                ));
            }
            rep.cells
                .insert(format!("replay/{w}/{f}"), cell_digest(&stats, &q));
        }
        let stats = rep.time(spans, "pipeline.observed.gshare".into(), parent, w, || {
            observed_cell(program, &collector)
        });
        // The program's own spans are discarded; only their cost counts.
        drop(collector.drain());
        let live = &rep.cells[&format!("live/{w}/gshare")];
        if [stats.committed_branches, stats.cycles] != live[..2] {
            failures.push(format!(
                "{w}: observed run simulated differently from live gshare"
            ));
        }
    }
    rep
}

/// Per-layer rows only the traced run measures: the interpreter alone,
/// and predictor and predictor+estimator loops over the committed stream.
fn layer_pass(programs: &[(WorkloadKind, Program)], spans: &Spans, parent: u64, rep: &mut Rep) {
    for (w, program) in programs {
        let w = w.name();
        rep.time(spans, "isa.interp".into(), parent, w, || {
            let mut m = Machine::new(program);
            black_box(m.run(program, EXPORT_MAX_STEPS))
        });
        let branches: Vec<(u32, bool)> = export_program(program, EXPORT_MAX_STEPS)
            .map(|t| {
                t.iter()
                    .filter(|r| r.class == TraceClass::CondBranch)
                    .map(|r| (r.pc, r.taken))
                    .collect()
            })
            .unwrap_or_default();
        for f in FAMILIES {
            let name = f.name();
            rep.time(spans, format!("bpred.{name}"), parent, w, || {
                predictor_pass(&branches, f, false)
            });
            rep.time(spans, format!("core.jrs.{name}"), parent, w, || {
                predictor_pass(&branches, f, true)
            });
        }
    }
}

pub fn run(seed: u64, seconds: f64, trace: bool, pins: Option<&Value>) -> Outcome {
    let mut out = Outcome::default();
    let spans = Spans::new(trace);
    let off = Spans::new(false);
    // Spans are kept for one unit of work only — the first set-up and the
    // first traced repetition — so each module's self time is the cost of
    // that unit, whatever the window length. Later traced repetitions
    // record into `discarded`, at the same cost.
    let discarded = Spans::new(trace);

    // Set-up: build the eight programs, several times; keep the last.
    let mut build_s = Vec::new();
    let mut programs = Vec::new();
    for i in 0..SETUPS {
        let rec = if i == 0 { &spans } else { &discarded };
        let (built, dt) = rec.time("workloads.build", 0, || build_programs(seed));
        programs = built;
        build_s.push(dt);
    }
    out.setup_s = median(&build_s);

    // Timed window: whole repetitions until `seconds` have passed. The
    // traced run alternates recording on and off, so its rows can be
    // compared against untraced repetitions of the same code.
    let root = spans.open("perfbench.sim-sweep", 0);
    let t0 = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    while reps.is_empty() || t0.elapsed().as_secs_f64() < seconds {
        let recorded = trace && reps.len().is_multiple_of(2);
        let rec = match (recorded, reps.is_empty()) {
            (false, _) => &off,
            (true, true) => &spans,
            (true, false) => &discarded,
        };
        let rep_span = rec.open("perfbench.rep", root.id());
        let mut rep = one_rep(
            &programs,
            rec,
            rep_span.id(),
            &mut out.failures,
            reps.is_empty(),
        );
        if recorded {
            layer_pass(&programs, rec, rep_span.id(), &mut rep);
        }
        rec.close(rep_span);
        if reps.is_empty() {
            // Later repetitions repeat the same work; only allocator
            // fragmentation grows with their number.
            out.peak_rss_mb = self_peak_rss_mb();
        }
        reps.push(rep);
    }
    out.measured_s = t0.elapsed().as_secs_f64();
    spans.close(root);

    // Output checks: every cell repeats exactly and matches the pins.
    let first = &reps[0];
    // One operation per simulated cell: live and replay cells, plus the
    // observed run of each program.
    out.attempted = (reps.len() * (first.cells.len() + programs.len())) as u64;
    for (i, rep) in reps.iter().enumerate().skip(1) {
        for (cell, digest) in &rep.cells {
            if first.cells.get(cell) != Some(digest) {
                out.failures
                    .push(format!("{cell}: rep {i} differs from rep 0"));
            }
        }
    }
    let digest = format!(
        "{:016x}",
        fnv1a(canonical_string(&json!(first.cells)).as_bytes())
    );
    match pins.and_then(|p| p["digest"].as_str()) {
        Some(want) if want == digest => out.notes.push(format!(
            "seed {seed}: simulated statistics match the pinned digest"
        )),
        Some(want) => out.failures.push(format!(
            "seed {seed}: simulated statistics digest {digest} differs from pinned {want}"
        )),
        None => out.notes.push(format!(
            "seed {seed} has no pinned statistics; checked for repeatability only"
        )),
    }
    out.pins = json!({ "digest": digest, "cells": first.cells.len() });

    // Aggregates: Σ committed branches ÷ Σ host seconds, where each call's
    // host time is its least-disturbed repetition in the run.
    let gshare_br = first.live_stats["gshare"].committed_branches as f64;
    let branches = gshare_br * FAMILIES.len() as f64;
    let all: Vec<&Rep> = reps.iter().collect();
    let live = branches / best(&all, "pipeline.live.") / 1e6;
    let front = best(&all, "trace_io.");
    let replay = branches / (front + best(&all, "pipeline.replay.")) / 1e6;
    let observed = gshare_br / best(&all, "pipeline.observed.") / 1e6;
    out.cold_ops_per_s = live * 1e6;
    out.warm_ops_per_s = replay * 1e6;
    out.report.set("live_mbr_per_s", live, "Mbr/s");
    out.report.set("replay_mbr_per_s", replay, "Mbr/s");
    out.report.set("observed_mbr_per_s", observed, "Mbr/s");
    // The same aggregates over each repetition's own times, as medians.
    let per_rep = |prefixes: &[&str], br: f64| -> f64 {
        median(
            &reps
                .iter()
                .map(|r| br / prefixes.iter().map(|p| best(&[r], p)).sum::<f64>() / 1e6)
                .collect::<Vec<_>>(),
        )
    };
    out.report.set(
        "live_mbr_per_s_median_rep",
        per_rep(&["pipeline.live."], branches),
        "Mbr/s",
    );
    out.report.set(
        "replay_mbr_per_s_median_rep",
        per_rep(&["trace_io.", "pipeline.replay."], branches),
        "Mbr/s",
    );
    out.report.set("reps", reps.len() as f64, "count");
    out.report
        .set("committed_branches_per_rep", branches, "count");

    if trace {
        let traced: Vec<&Rep> = reps.iter().step_by(2).collect();
        let untraced: Vec<&Rep> = reps.iter().skip(1).step_by(2).collect();
        layer_metrics(&mut out.layers, &traced, &untraced, &build_s);
    }
    out.spans = spans.records();
    out
}

fn layer_metrics(m: &mut Metrics, traced: &[&Rep], untraced: &[&Rep], build_s: &[f64]) {
    let first = traced[0];
    let gshare_br = first.live_stats["gshare"].committed_branches as f64;
    let per_br = |secs: f64| secs * 1e9 / gshare_br;
    let row = |prefix: &str| per_br(best(traced, prefix));

    m.set("workloads.build_ms", median(build_s) * 1e3, "ms");
    let interp = row("isa.interp/");
    m.set("isa.interp_ns_per_br", interp, "ns/br");
    m.set(
        "trace_io.export_ns_per_br",
        row("trace_io.export/"),
        "ns/br",
    );
    m.set(
        "trace_io.encode_ns_per_br",
        row("trace_io.encode/"),
        "ns/br",
    );
    m.set(
        "trace_io.decode_ns_per_br",
        row("trace_io.decode/"),
        "ns/br",
    );
    for f in FAMILIES {
        let f = f.name();
        let live = row(&format!("pipeline.live.{f}/"));
        let replay = row(&format!("pipeline.replay.{f}/"));
        let bpred = row(&format!("bpred.{f}/"));
        m.set(format!("bpred.{f}.ns_per_br"), bpred, "ns/br");
        m.set(
            format!("core.jrs.{f}.ns_per_br"),
            row(&format!("core.jrs.{f}/")) - bpred,
            "ns/br",
        );
        m.set(format!("pipeline.live.{f}.ns_per_br"), live, "ns/br");
        m.set(format!("pipeline.replay.{f}.ns_per_br"), replay, "ns/br");
        m.set(
            format!("pipeline.wrong_path.{f}.ns_per_br"),
            live - replay - interp,
            "ns/br",
        );
        let s = &first.live_stats[f];
        m.set(
            format!("pipeline.{f}.committed_branches"),
            s.committed_branches as f64,
            "count",
        );
        m.set(
            format!("pipeline.{f}.cycles"),
            s.cycles as f64,
            "sim-cycles",
        );
        m.set(
            format!("pipeline.{f}.mispredicts"),
            s.mispredicted_committed as f64,
            "count",
        );
        m.set(
            format!("pipeline.{f}.squashed_insts"),
            s.squashed_insts as f64,
            "count",
        );
        m.set(
            format!("pipeline.{f}.useful_fetch_ratio"),
            s.committed_insts as f64 / s.fetched_insts.max(1) as f64,
            "ratio",
        );
    }
    let live_gshare = row("pipeline.live.gshare/");
    m.set(
        "obs.tracing_ns_per_br",
        row("pipeline.observed.gshare/") - live_gshare,
        "ns/br",
    );
    if !untraced.is_empty() {
        m.set(
            "perfbench.span_overhead_ns_per_br",
            live_gshare - per_br(best(untraced, "pipeline.live.gshare/")),
            "ns/br",
        );
    }
}
