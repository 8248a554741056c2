//! The cestim benchmark: three workloads, end-to-end metrics measured with
//! tracing off, and a separate traced run that fills the per-layer ledger.
//!
//! ```text
//! perfbench --workload paper-suite|sim-sweep|serve-mix --seed N --seconds S
//!           --trace 0|1 --repro PATH --pins FILE [--spec BENCHMARK.json]
//! perfbench pin --repro PATH --pins FILE --seeds A..B
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. See `perfbench/README.md`.

mod ledger;
mod serve;
mod suite;
mod sweep;

use ledger::{self_ms_by_module, self_peak_rss_mb, spans_json, Metrics, SpanRec};
use serde_json::{json, Value};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// What one workload run measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (jobs, cells or requests).
    pub attempted: u64,
    /// One line per failed operation or failed output check.
    pub failures: Vec<String>,
    pub notes: Vec<String>,
    pub setup_s: f64,
    /// Peak RSS of the measured process(es); 0 means "this process".
    pub peak_rss_mb: f64,
    pub cold_ops_per_s: f64,
    pub warm_ops_per_s: f64,
    /// Length of the timed window actually measured.
    pub measured_s: f64,
    /// The workload's own named figures (printed, not gated).
    pub report: Metrics,
    /// Per-layer ledger (traced run only).
    pub layers: Metrics,
    pub spans: Vec<SpanRec>,
    /// Simulated statistics or artifact hashes, as `pin` records them.
    pub pins: Value,
}

const WORKLOADS: [&str; 3] = ["paper-suite", "sim-sweep", "serve-mix"];

/// The metric rows `BENCHMARK.json` lists, as (name, unit), in order.
struct Spec {
    end_to_end: Vec<(String, String)>,
    per_layer: Vec<(String, String)>,
}

fn read_spec(path: &Path) -> Result<Spec, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let v: Value =
        serde_json::from_str(&text).map_err(|e| format!("bad {}: {e}", path.display()))?;
    let rows = |key: &str| -> Result<Vec<(String, String)>, String> {
        v[key]
            .as_array()
            .ok_or(format!("{}: no `{key}` list", path.display()))?
            .iter()
            .map(|m| match (m["name"].as_str(), m["unit"].as_str()) {
                (Some(n), Some(u)) => Ok((n.to_string(), u.to_string())),
                _ => Err(format!(
                    "{}: `{key}` row without name/unit: {m}",
                    path.display()
                )),
            })
            .collect()
    };
    Ok(Spec {
        end_to_end: rows("end_to_end")?,
        per_layer: rows("per_layer")?,
    })
}

/// The rows `listed` names, taken from what the run measured. A listed
/// row the run did not measure reads 0 when `absent_is_zero` (a ledger
/// row another workload measures) and is an error otherwise; a measured
/// row that is not listed, or whose unit differs, is an error.
fn select(
    listed: &[(String, String)],
    measured: &Metrics,
    absent_is_zero: bool,
) -> Result<Metrics, String> {
    if let Some(extra) = measured
        .names()
        .find(|n| !listed.iter().any(|(l, _)| l == n))
    {
        return Err(format!(
            "measured row {extra} is not listed in BENCHMARK.json"
        ));
    }
    let mut rows = Metrics::default();
    for (name, unit) in listed {
        let value = match measured.get(name) {
            Some((v, u)) if u == unit => v,
            Some((_, u)) => return Err(format!("{name}: measured in {u}, listed in {unit}")),
            None if absent_is_zero => 0.0,
            None => return Err(format!("{name} was not measured")),
        };
        rows.set(name.clone(), value, unit.clone());
    }
    Ok(rows)
}

/// Where the rows of the sweep-measured layers come from.
const SWEEP_ROWS: &str = "paper-suite traced run (sweep on seed 0); sim-sweep traced run";

/// The layer → metric → workload map, the one place it is written down:
/// which rows measure a layer and how, which workload measures them,
/// which end-to-end figures a change to the layer should move, and which
/// it should leave alone. `<f>` is gshare, tage or perceptron; ns/br is
/// host ns per committed branch over the eight programs. Each run prints
/// the map on its `context:` line.
const LAYER_MAP: [(&str, &str, &str, &str, &str); 11] = [
    (
        "workloads",
        "workloads.build_ms (build the eight programs)",
        SWEEP_ROWS,
        "setup_s (sim-sweep)",
        "-",
    ),
    (
        "isa",
        "isa.interp_ns_per_br (Machine::run)",
        SWEEP_ROWS,
        "live_mbr_per_s, replay_mbr_per_s (sim-sweep); suite_cold_s",
        "serve-mix warm",
    ),
    (
        "trace_io",
        "trace_io.{export,encode,decode}_ns_per_br (export_program, to_binary, from_bytes)",
        SWEEP_ROWS,
        "replay_mbr_per_s",
        "live_mbr_per_s, serve-mix",
    ),
    (
        "bpred",
        "bpred.<f>.ns_per_br (predict+update over the committed trace, harness-owned GHR)",
        SWEEP_ROWS,
        "live_/replay_mbr_per_s; suite_cold_s (gshare/mcfarling/sag)",
        "serve-mix warm",
    ),
    (
        "core",
        "core.jrs.<f>.ns_per_br (predictor+estimator minus predictor)",
        SWEEP_ROWS,
        "live_/replay_mbr_per_s; suite_cold_s",
        "serve-mix warm",
    ),
    (
        "pipeline",
        "pipeline.{live,replay}.<f>.ns_per_br (Simulator, TraceSimulator); \
         pipeline.wrong_path.<f>.ns_per_br = live - replay - interp; \
         counts pipeline.<f>.{committed_branches,cycles,mispredicts,squashed_insts}; \
         pipeline.<f>.useful_fetch_ratio = committed / fetched insts",
        SWEEP_ROWS,
        "live_mbr_per_s, replay_mbr_per_s, suite_cold_s, cold_rps",
        "serve-mix warm, suite_warm_s",
    ),
    (
        "obs",
        "obs.tracing_ns_per_br = observed - live gshare",
        SWEEP_ROWS,
        "observed_mbr_per_s",
        "live_mbr_per_s",
    ),
    (
        "sim",
        "sim.suite.<id>_s (suite::run_experiment_checked, 23 experiment ids)",
        "paper-suite",
        "suite_cold_s",
        "sim-sweep, serve-mix",
    ),
    (
        "exec",
        "counts exec.{submitted,executed,cache_hits}; exec.hit_ratio; \
         exec.cache.load_us (DiskCache::load over every stored key)",
        "paper-suite",
        "suite_warm_s, suite_cold_s",
        SWEEP_ROWS,
    ),
    (
        "serve",
        "per phase: serve.<phase>.{parse,validate,probe,render}_us, execute_ms \
         (parse_line, validate_job, DiskCache::load, render_response, Job::execute \
         on the same requests); serve.<phase>.residual_us = latency - those \
         (queueing + socket); counts serve.<phase>.{hits,executed,rejected,errors}",
        "serve-mix",
        "warm_p50_ms, warm_p99_ms, warm_rps (residual, parse, probe, render); \
         cold_rps, cold_p99_ms (execute)",
        "sim-sweep, paper-suite",
    ),
    (
        "perfbench",
        "<module>.self_ms = span time minus child spans, per unit of work; \
         perfbench.span_overhead_ns_per_br = traced - untraced live gshare",
        "every traced run",
        "-",
        "-",
    ),
];

fn layer_map_json() -> Value {
    Value::Array(
        LAYER_MAP
            .iter()
            .map(|(layer, metrics, on, moves, stays)| {
                json!({
                    "layer": layer, "metrics": metrics, "measured_on": on,
                    "should_move": moves, "should_not_move": stays,
                })
            })
            .collect(),
    )
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    repro: PathBuf,
    pins: PathBuf,
    spec: PathBuf,
    seeds: (u64, u64),
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload {} --seed N --seconds S --trace 0|1 \
         --repro PATH --pins FILE [--spec BENCHMARK.json]\n       perfbench pin --repro PATH --pins FILE --seeds A..B",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn parse_args(argv: &[String]) -> Option<Args> {
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        repro: PathBuf::from("target/release/repro"),
        pins: PathBuf::from("perfbench/pinned.json"),
        spec: PathBuf::from("BENCHMARK.json"),
        seeds: (0, 0),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let val = it.next()?;
        match flag.as_str() {
            "--workload" => a.workload = val.clone(),
            "--seed" => a.seed = val.parse().ok()?,
            "--seconds" => a.seconds = val.parse().ok().filter(|s: &f64| *s > 0.0)?,
            "--trace" => {
                a.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                }
            }
            "--repro" => a.repro = PathBuf::from(val),
            "--pins" => a.pins = PathBuf::from(val),
            "--spec" => a.spec = PathBuf::from(val),
            "--seeds" => {
                let (lo, hi) = val.split_once("..")?;
                a.seeds = (lo.parse().ok()?, hi.parse().ok()?);
            }
            _ => return None,
        }
    }
    Some(a)
}

fn read_pins(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read pins {}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("bad pins {}: {e}", path.display()))
}

fn command_output(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Records the observed simulated statistics and artifact hashes as the
/// pins later runs are checked against.
fn pin(args: &Args) -> Result<(), String> {
    let mut sweep_pins = serde_json::Map::new();
    for seed in args.seeds.0..=args.seeds.1 {
        let out = sweep::run(seed, 0.0, false, None);
        if !out.failures.is_empty() {
            return Err(format!("seed {seed}: {}", out.failures.join("; ")));
        }
        eprintln!("pinned sim-sweep seed {seed}");
        sweep_pins.insert(seed.to_string(), out.pins);
    }
    let work = PathBuf::from(".bench_runs/work/pin");
    let out = suite::run(&args.repro, &work, 0.0, false, None);
    if !out.failures.is_empty() {
        return Err(format!("paper-suite: {}", out.failures.join("; ")));
    }
    let pins = json!({
        "sim_sweep": { "scale": sweep::SCALE, "seeds": Value::Object(sweep_pins) },
        "paper_suite": { "scale": suite::SCALE, "artifacts": out.pins },
    });
    let text = serde_json::to_string_pretty(&pins).map_err(|e| e.to_string())?;
    std::fs::write(&args.pins, text + "\n").map_err(|e| e.to_string())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().is_some_and(|a| a == "pin") {
        let Some(args) = parse_args(&argv[1..]) else {
            return usage();
        };
        return match pin(&args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let Some(args) = parse_args(&argv) else {
        return usage();
    };
    let (pins, spec) = match read_pins(&args.pins).and_then(|p| Ok((p, read_spec(&args.spec)?))) {
        Ok(loaded) => loaded,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let sweep_pins = |seed: u64| pins["sim_sweep"]["seeds"].get(&seed.to_string());
    let work = PathBuf::from(".bench_runs/work").join(&args.workload);
    let mut out = match args.workload.as_str() {
        "paper-suite" => suite::run(
            &args.repro,
            &work,
            args.seconds,
            args.trace,
            Some(&pins["paper_suite"]["artifacts"]),
        ),
        "sim-sweep" => sweep::run(args.seed, args.seconds, args.trace, sweep_pins(args.seed)),
        "serve-mix" => serve::run(args.seed, args.seconds, args.trace, &work),
        _ => return usage(),
    };
    if args.workload == "paper-suite" && args.trace {
        // The suite runs every simulator layer; its traced run decomposes
        // them with the sweep on the paper's own inputs (seed 0).
        let sweep = sweep::run(0, args.seconds, true, sweep_pins(0));
        out.attempted += sweep.attempted;
        out.failures.extend(sweep.failures);
        out.notes.extend(sweep.notes);
        out.layers.extend(sweep.layers);
        out.spans.extend(sweep.spans);
    }
    if out.peak_rss_mb == 0.0 {
        out.peak_rss_mb = self_peak_rss_mb();
    }
    let failed = out.failures.len() as u64;
    let attempted = out.attempted.max(failed).max(1);

    let metrics = if args.trace {
        for (module, ms) in self_ms_by_module(&out.spans) {
            if module != "perfbench" {
                out.layers.set(format!("{module}.self_ms"), ms, "ms");
            }
        }
        select(&spec.per_layer, &out.layers, true)
    } else {
        let mut e2e = Metrics::default();
        e2e.set("setup_s", out.setup_s, "s");
        e2e.set("peak_rss_mb", out.peak_rss_mb, "MB");
        e2e.set("cold_ops_per_s", out.cold_ops_per_s, "1/s");
        e2e.set("warm_ops_per_s", out.warm_ops_per_s, "1/s");
        select(&spec.end_to_end, &e2e, false)
    };
    let metrics = match metrics {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };

    out.report.print(&format!(
        "{} (seed {}), host time unless marked:",
        args.workload, args.seed
    ));
    metrics.print(if args.trace {
        "per-layer ledger (traced run):"
    } else {
        "end-to-end metrics (tracing off):"
    });
    for n in &out.notes {
        println!("note: {n}");
    }
    for f in &out.failures {
        eprintln!("FAILED: {f}");
    }
    let context = json!({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds_requested": args.seconds,
        "seconds_measured": out.measured_s,
        "nproc": nproc(),
        "rustc": command_output("rustc", &["--version"]),
        "git_commit": if Path::new(".git").exists() {
            command_output("git", &["rev-parse", "HEAD"])
        } else {
            "unknown (not a git checkout)".to_string()
        },
        "layer_map": layer_map_json(),
    });
    println!(
        "context: {}",
        serde_json::to_string(&context).unwrap_or_default()
    );

    let runs = PathBuf::from(".bench_runs");
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let record = json!({
        "context": context,
        "report": out.report.to_json(),
        "metrics": metrics.to_json(),
        "notes": out.notes,
        "failures": out.failures,
    });
    let written = std::fs::create_dir_all(&runs).and_then(|()| {
        std::fs::write(
            runs.join(format!("{stem}.json")),
            serde_json::to_string_pretty(&record).unwrap_or_default(),
        )?;
        if args.trace {
            std::fs::write(
                runs.join(format!("{stem}-spans.json")),
                serde_json::to_string(&spans_json(&out.spans)).unwrap_or_default(),
            )?;
        }
        Ok(())
    });
    if let Err(e) = written {
        eprintln!("warning: run record not written: {e}");
    }

    let result = json!({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics.to_json(),
    });
    println!("{}", serde_json::to_string(&result).unwrap_or_default());
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
