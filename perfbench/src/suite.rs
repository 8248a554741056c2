//! paper-suite: `repro all` as users run it — a fresh cache directory, one
//! worker per core — twice or more, each followed by warm re-runs over its
//! cache, which execute no simulation at all. The inputs are the paper's fixed inputs; the seed
//! plays no part.
//!
//! The traced run drives the same suite in-process through
//! `cestim_sim::suite` on a cached `Executor`, timing each experiment, and
//! then `DiskCache::load` over every key the suite stored.

use crate::ledger::{children_peak_rss_mb, median, Spans};
use crate::{nproc, Outcome};
use cestim_exec::{fnv1a, CacheKey, CachePolicy, DiskCache, Executor};
use cestim_sim::suite;
use serde_json::{Map, Value};
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

/// Workload scale `repro` runs at by default.
pub const SCALE: u32 = 4;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 31;
/// Cold passes per run, at the least.
const MIN_COLD_PASSES: usize = 2;
/// Warm passes after each cold pass.
const WARM_PER_COLD: usize = 10;

/// One `repro all` invocation.
struct Pass {
    wall_s: f64,
    jobs: u64,
    hits: u64,
    executed: u64,
}

/// The number just before `marker` in `line` ("374 jobs" → 374).
fn count_before(line: &str, marker: &str) -> Option<u64> {
    let head = &line[..line.find(marker)?];
    head.rsplit(|c: char| !c.is_ascii_digit())
        .find(|s| !s.is_empty())?
        .parse()
        .ok()
}

fn repro_pass(repro: &Path, out_dir: &Path) -> Result<Pass, String> {
    let jobs = nproc().to_string();
    let scale = SCALE.to_string();
    let t = Instant::now();
    let output = Command::new(repro)
        .args(["--jobs", &jobs, "--scale", &scale, "--out"])
        .arg(out_dir)
        .arg("all")
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("cannot run {}: {e}", repro.display()))?;
    let wall_s = t.elapsed().as_secs_f64();
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        let stderr = String::from_utf8_lossy(&output.stderr);
        let tail: Vec<&str> = stderr.lines().rev().take(3).collect();
        return Err(format!(
            "repro exited with {}: {}",
            output.status,
            tail.join(" | ")
        ));
    }
    let line = stdout
        .lines()
        .find(|l| l.starts_with("[executor:"))
        .ok_or("repro printed no executor summary")?;
    let parse = |marker| count_before(line, marker).ok_or(format!("unparsed: {line}"));
    Ok(Pass {
        wall_s,
        jobs: parse(" job")?,
        hits: parse(" cache hit")?,
        executed: parse(" executed")?,
    })
}

/// FNV-1a hash of every artifact the suite writes, keyed by file name.
fn artifact_hashes(out_dir: &Path) -> Map {
    let mut m = Map::new();
    for id in suite::all_ids() {
        for ext in ["txt", "json"] {
            let name = format!("{id}.{ext}");
            let hash = std::fs::read(out_dir.join(&name))
                .map(|b| format!("{:016x}", fnv1a(&b)))
                .unwrap_or_else(|e| format!("unreadable: {e}"));
            m.insert(name, Value::String(hash));
        }
    }
    m
}

/// Compares artifact hashes against a reference; one failure per file.
fn check_hashes(what: &str, got: &Map, want: &Value, failures: &mut Vec<String>) {
    for (name, hash) in got.iter() {
        if want.get(name) != Some(hash) {
            failures.push(format!(
                "{what}: {name} hash {} differs from {}",
                hash.as_str().unwrap_or("?"),
                want.get(name).and_then(Value::as_str).unwrap_or("(none)")
            ));
        }
    }
}

/// Checks that `repro` lists the suite's experiments.
fn check_list(repro: &Path) -> Result<(), String> {
    let listed = Command::new(repro)
        .arg("--list")
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("cannot run {}: {e}", repro.display()))?;
    let listed = String::from_utf8_lossy(&listed.stdout);
    if listed.lines().ne(suite::all_ids().iter().copied()) {
        return Err("repro --list does not match cestim_sim::suite::all_ids".into());
    }
    Ok(())
}

pub fn run(repro: &Path, work: &Path, seconds: f64, trace: bool, pins: Option<&Value>) -> Outcome {
    if trace {
        return traced(work, pins);
    }
    let mut out = Outcome::default();
    if let Err(e) = check_list(repro) {
        out.failures.push(e);
        return out;
    }
    // Set-up: a fresh output directory, which holds the cache
    // (`<out>/cache`). Half the samples are taken before the window and
    // half after it, the first of which clears the run's output, so they
    // span the run rather than one moment of it.
    let out_dir = work.join("out");
    let mut setup_s = Vec::new();
    if let Err(e) = time_setups(&out_dir, SETUPS / 2, &mut setup_s) {
        out.failures.push(e);
        return out;
    }

    // Timed window: cold passes, each on a fresh output directory and
    // cache, until `seconds` have passed; each followed by warm re-runs
    // over its cache, so warm samples spread across the window.
    let t0 = Instant::now();
    let mut cold: Vec<Pass> = Vec::new();
    let mut cold_hashes = Value::Null;
    let mut warm_s = Vec::new();
    while cold.len() < MIN_COLD_PASSES || t0.elapsed().as_secs_f64() < seconds {
        let k = cold.len() + 1;
        if k > 1 {
            if let Err(e) = fresh_dir(&out_dir) {
                out.failures.push(format!("cold pass {k}: {e}"));
                return out;
            }
        }
        let pass = match repro_pass(repro, &out_dir) {
            Ok(p) => p,
            Err(e) => {
                out.failures.push(format!("cold pass {k}: {e}"));
                return out;
            }
        };
        out.attempted += pass.jobs;
        let hashes = artifact_hashes(&out_dir);
        if k == 1 {
            cold_hashes = Value::Object(hashes);
        } else {
            let what = format!("cold pass {k} vs 1");
            check_hashes(&what, &hashes, &cold_hashes, &mut out.failures);
        }
        for w in 1..=WARM_PER_COLD {
            let what = format!("warm pass {w} after cold pass {k}");
            let p = match repro_pass(repro, &out_dir) {
                Ok(p) => p,
                Err(e) => {
                    out.failures.push(format!("{what}: {e}"));
                    return out;
                }
            };
            out.attempted += p.jobs;
            if p.executed != 0 || p.jobs != pass.jobs {
                out.failures.push(format!(
                    "{what}: {} of {} jobs executed (cold had {} jobs)",
                    p.executed, p.jobs, pass.jobs
                ));
            }
            check_hashes(
                &what,
                &artifact_hashes(&out_dir),
                &cold_hashes,
                &mut out.failures,
            );
            warm_s.push(p.wall_s);
        }
        cold.push(pass);
    }
    let jobs = cold[0].jobs;
    out.measured_s = t0.elapsed().as_secs_f64();
    out.peak_rss_mb = children_peak_rss_mb();
    if let Err(e) = time_setups(&out_dir, SETUPS - setup_s.len(), &mut setup_s) {
        out.failures.push(e);
        return out;
    }
    out.setup_s = median(&setup_s);
    match pins {
        Some(want) => {
            let empty = Map::new();
            let got = cold_hashes.as_object().unwrap_or(&empty);
            check_hashes("cold vs pinned", got, want, &mut out.failures);
        }
        None => out
            .notes
            .push("no pinned artifact hashes; checked warm against cold only".into()),
    }
    out.pins = cold_hashes;

    // The fastest pass of each kind is the one least disturbed by other
    // load on the host.
    let cold_s: Vec<f64> = cold.iter().map(|p| p.wall_s).collect();
    let fastest = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    out.cold_ops_per_s = jobs as f64 / fastest(&cold_s);
    out.warm_ops_per_s = jobs as f64 / fastest(&warm_s);
    out.report.set("suite_cold_s", fastest(&cold_s), "s");
    out.report.set("suite_warm_s", fastest(&warm_s), "s");
    out.report.set("suite_cold_s_median", median(&cold_s), "s");
    out.report.set("suite_warm_s_median", median(&warm_s), "s");
    out.report.set("cold_passes", cold.len() as f64, "count");
    out.report.set("warm_passes", warm_s.len() as f64, "count");
    out.report.set("jobs", jobs as f64, "count");
    out.report
        .set("cold_cache_hits", cold[0].hits as f64, "count");
    out.report
        .set("cold_executed", cold[0].executed as f64, "count");
    out.report.set("workers", nproc() as f64, "count");
    out
}

/// Prepares a fresh `dir` `n` times, recording each one's host seconds.
fn time_setups(dir: &Path, n: usize, samples: &mut Vec<f64>) -> Result<(), String> {
    for _ in 0..n {
        let t = Instant::now();
        fresh_dir(dir).map_err(|e| format!("set-up: {e}"))?;
        samples.push(t.elapsed().as_secs_f64());
    }
    Ok(())
}

/// Empties `dir`, creating it if needed.
fn fresh_dir(dir: &Path) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("cannot clear {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))
}

/// Cache keys of every entry in a cache directory
/// (`<schema:016x>-<content:016x>.json`).
fn cache_keys(dir: &Path) -> Vec<CacheKey> {
    let mut keys: Vec<CacheKey> = std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(Result::ok)
                .filter_map(|e| {
                    let name = e.file_name().to_string_lossy().into_owned();
                    let (schema, content) = name.strip_suffix(".json")?.split_once('-')?;
                    Some(CacheKey {
                        schema: u64::from_str_radix(schema, 16).ok()?,
                        content: u64::from_str_radix(content, 16).ok()?,
                    })
                })
                .collect()
        })
        .unwrap_or_default();
    keys.sort_by_key(|k| (k.schema, k.content));
    keys
}

fn traced(work: &Path, pins: Option<&Value>) -> Outcome {
    let mut out = Outcome::default();
    let spans = Spans::new(true);
    let dir = work.join("traced-cache");
    if dir.exists() {
        if let Err(e) = std::fs::remove_dir_all(&dir) {
            out.failures
                .push(format!("cannot clear {}: {e}", dir.display()));
            return out;
        }
    }
    let exec = match Executor::new(nproc()).with_cache(&dir, CachePolicy::ReadWrite) {
        Ok(exec) => exec,
        Err(e) => {
            out.failures.push(format!("cannot open cache: {e}"));
            return out;
        }
    };
    exec.evict_stale(cestim_sim::sim_schema_salt());
    let root = spans.open("perfbench.paper-suite", 0);
    let t0 = Instant::now();
    let mut hashes = Map::new();
    for id in suite::all_ids() {
        let (result, dt) = spans.time(format!("sim.suite.{id}"), root.id(), || {
            suite::run_experiment_checked(&exec, id, SCALE)
        });
        out.layers.set(format!("sim.suite.{id}_s"), dt, "s");
        match result {
            Some(Ok(r)) => {
                let json = serde_json::to_string_pretty(&r.json).unwrap_or_default();
                for (ext, bytes) in [("txt", r.text.as_bytes()), ("json", json.as_bytes())] {
                    hashes.insert(
                        format!("{id}.{ext}"),
                        Value::String(format!("{:016x}", fnv1a(bytes))),
                    );
                }
            }
            Some(Err(f)) => out.failures.push(f.to_string()),
            None => out.failures.push(format!("unknown experiment {id}")),
        }
    }
    let report = exec.report();
    out.attempted = report.submitted;
    out.layers
        .set("exec.submitted", report.submitted as f64, "count");
    out.layers
        .set("exec.executed", report.executed as f64, "count");
    out.layers
        .set("exec.cache_hits", report.cache_hits as f64, "count");
    out.layers.set(
        "exec.hit_ratio",
        report.cache_hits as f64 / report.submitted.max(1) as f64,
        "ratio",
    );
    let keys = cache_keys(&dir);
    match DiskCache::open(&dir) {
        Ok(cache) => {
            let (loaded, dt) = spans.time("exec.cache.load", root.id(), || {
                keys.iter()
                    .filter(|k| cache.load::<Value>(k).is_some())
                    .count()
            });
            out.layers.set("exec.cache.load_us", dt * 1e6, "us");
            if loaded != keys.len() || keys.is_empty() {
                out.failures.push(format!(
                    "cache load: {loaded} of {} stored entries loaded",
                    keys.len()
                ));
            }
        }
        Err(e) => out.failures.push(format!("cannot reopen cache: {e}")),
    }
    out.measured_s = t0.elapsed().as_secs_f64();
    spans.close(root);
    if let Some(want) = pins {
        check_hashes("in-process vs pinned", &hashes, want, &mut out.failures);
    }
    out.spans = spans.records();
    out
}
