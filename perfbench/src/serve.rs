//! serve-mix: a seeded `build_mix` mix (60% duplicates) sent over loopback
//! TCP to `Server::serve_tcp`, closed loop: two client connections from
//! this process, each waiting for its reply before sending the next.
//!
//! Each repetition starts a server on an empty cache and runs two phases
//! over one mix: cold (execution dominates misses) and warm (all hits:
//! parse, cache probe, render and socket I/O dominate). Repetitions cycle
//! through six mixes drawn from the seed.

use crate::ledger::{median, self_peak_rss_mb, Quantiles, Spans};
use crate::{nproc, Outcome};
use cestim_exec::{canonical_string, DiskCache, Job};
use cestim_serve::load::{build_mix, client_name, verify_against_direct, LoadConfig, MixItem};
use cestim_serve::load::{ServeConn, TcpConn};
use cestim_serve::protocol::validate_job;
use cestim_serve::{parse_line, render_request, render_response, Request, RequestLimits, Response};
use cestim_serve::{ServeConfig, Server};
use cestim_sim::ExecJob;
use serde_json::Value;
use std::collections::HashMap;
use std::net::TcpListener;
use std::path::Path;
use std::time::{Duration, Instant};

/// Workload scale of the mix's jobs: large enough that execution, not
/// the socket, dominates a cold miss.
const SCALE: u32 = 4;
/// Requests per phase.
const REQUESTS: usize = 48;
/// Distinct mixes per run, cycled until the window is used up; their
/// composition differs, so several average out the seed's draw.
const MIXES: usize = 6;
/// Client connections (closed loop, one request in flight each).
const CONNECTIONS: usize = 2;
/// Set-up samples per run; `setup_s` is their median.
const SETUPS: usize = 11;
const RECV_TIMEOUT: Duration = Duration::from_secs(60);

/// The load configuration of mix `k` of a run's seed.
fn load_config(seed: u64, k: usize) -> LoadConfig {
    LoadConfig {
        seed: seed.wrapping_mul(MIXES as u64).wrapping_add(k as u64),
        requests: REQUESTS,
        clients: CONNECTIONS,
        dup_percent: 60,
        scale: SCALE,
        ..LoadConfig::default()
    }
}

/// A started server listening on loopback, with an empty cache.
struct Started {
    server: Server,
    listener: TcpListener,
    addr: String,
}

/// The set-up of one repetition: an empty cache directory, a started
/// server, and a bound listener.
fn start_server(cache_dir: &Path) -> std::io::Result<Started> {
    let _ = std::fs::remove_dir_all(cache_dir);
    let server = Server::start(ServeConfig {
        cache_dir: Some(cache_dir.to_path_buf()),
        ..ServeConfig::default()
    })?;
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?.to_string();
    Ok(Started {
        server,
        listener,
        addr,
    })
}

/// One set-up sample: what one cycle of repetitions does before its
/// phases — build the six mixes and, for each, start a server on an
/// empty cache and bind a listener. Returns the mixes and the sample's
/// host seconds; the servers are shut down and their cache directories
/// removed after the clock stops, as after a repetition.
fn setup_cycle(seed: u64, work: &Path) -> std::io::Result<(Vec<Vec<MixItem>>, f64)> {
    let t = Instant::now();
    let mut mixes = Vec::with_capacity(MIXES);
    let mut started = Vec::with_capacity(MIXES);
    for k in 0..MIXES {
        mixes.push(build_mix(&load_config(seed, k)));
        started.push(start_server(&work.join(format!("cache-{k}")))?);
    }
    let dt = t.elapsed().as_secs_f64();
    for (k, s) in started.into_iter().enumerate() {
        drop(s.listener);
        s.server.shutdown();
        let _ = std::fs::remove_dir_all(work.join(format!("cache-{k}")));
    }
    Ok((mixes, dt))
}

/// The terminal response to one request, as the client saw it.
struct Reply {
    index: usize,
    latency_s: f64,
    outcome: Result<(bool, Value), String>,
}

/// One client connection's closed loop over its share of the mix.
fn client_loop(
    addr: &str,
    mix: &[MixItem],
    conn_idx: usize,
    phase: &str,
    spans: &Spans,
    parent: u64,
) -> Vec<Reply> {
    let mut replies = Vec::new();
    let mut conn = match TcpConn::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            return mix
                .iter()
                .filter(|m| m.client_idx == conn_idx)
                .map(|m| Reply {
                    index: m.index,
                    latency_s: 0.0,
                    outcome: Err(format!("connect failed: {e}")),
                })
                .collect()
        }
    };
    for item in mix.iter().filter(|m| m.client_idx == conn_idx) {
        let id = format!("{phase}-{}", item.index);
        let req = Request::Run {
            id: id.clone(),
            client: client_name(item.client_idx),
            priority: item.priority,
            deadline_ms: 0,
            job: item.job.clone(),
        };
        let span = spans.open("serve.request", parent);
        let outcome = conn
            .send_request(&req)
            .map_err(|e| e.to_string())
            .and_then(|()| loop {
                match conn.recv_response(RECV_TIMEOUT) {
                    Ok(Response::Result {
                        id: rid,
                        cached,
                        payload,
                        ..
                    }) if rid == id => break Ok((cached, payload)),
                    Ok(Response::Rejected {
                        id: rid, reason, ..
                    }) if rid == id => break Err(format!("rejected: {reason}")),
                    Ok(Response::Error { code, message, .. }) => {
                        break Err(format!("error {code}: {message}"))
                    }
                    Ok(_) => continue,
                    Err(e) => break Err(e.to_string()),
                }
            });
        replies.push(Reply {
            index: item.index,
            latency_s: spans.close(span),
            outcome,
        });
    }
    replies
}

/// One phase: every connection runs its closed loop concurrently.
fn phase(addr: &str, mix: &[MixItem], name: &str, spans: &Spans, parent: u64) -> (Vec<Reply>, f64) {
    let t = Instant::now();
    let mut replies: Vec<Reply> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| s.spawn(move || client_loop(addr, mix, c, name, spans, parent)))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = t.elapsed().as_secs_f64();
    replies.sort_by_key(|r| r.index);
    (replies, wall)
}

/// What one phase's replies add up to, across repetitions.
#[derive(Default)]
struct PhaseTotals {
    completed: usize,
    wall_s: f64,
    latencies_ms: Vec<f64>,
}

/// Per-request layer costs of one phase, timed from outside on the same
/// requests after the phase: (metric suffix, mean value, unit).
fn layer_costs(
    mix: &[MixItem],
    replies: &[Reply],
    cache_dir: &Path,
    spans: &Spans,
    parent: u64,
) -> Vec<(&'static str, f64, &'static str)> {
    let limits = RequestLimits::default();
    let cache = DiskCache::open(cache_dir).ok();
    let n = replies.len().max(1) as f64;
    let (mut parse, mut validate, mut probe, mut execute, mut render, mut residual) =
        (0.0, 0.0, 0.0, 0.0, 0.0, 0.0);
    let mut executed = 0usize;
    for r in replies {
        let item = &mix[r.index];
        let line = render_request(&Request::Run {
            id: format!("x-{}", item.index),
            client: client_name(item.client_idx),
            priority: item.priority,
            deadline_ms: 0,
            job: item.job.clone(),
        });
        let (_, t_parse) = spans.time("serve.parse", parent, || {
            parse_line(line.as_bytes(), &limits)
        });
        let (_, t_validate) = spans.time("serve.validate", parent, || {
            validate_job(&item.job, &limits)
        });
        let (_, t_probe) = spans.time("serve.probe", parent, || {
            cache
                .as_ref()
                .and_then(|c| c.load::<Value>(&item.job.cache_key()))
        });
        let mut t_exec = 0.0;
        let Ok((cached, payload)) = &r.outcome else {
            continue;
        };
        if !cached {
            let (_, dt) = spans.time("serve.execute", parent, || item.job.execute());
            t_exec = dt;
            execute += dt;
            executed += 1;
        }
        let resp = Response::Result {
            id: format!("x-{}", item.index),
            cached: *cached,
            elapsed_nanos: 0,
            payload: payload.clone(),
        };
        let (_, t_render) = spans.time("serve.render", parent, || render_response(&resp));
        parse += t_parse;
        validate += t_validate;
        probe += t_probe;
        render += t_render;
        residual += r.latency_s - t_parse - t_validate - t_probe - t_exec - t_render;
    }
    let execute_ms = if executed == 0 {
        0.0
    } else {
        execute / executed as f64 * 1e3
    };
    vec![
        ("parse_us", parse / n * 1e6, "us"),
        ("validate_us", validate / n * 1e6, "us"),
        ("probe_us", probe / n * 1e6, "us"),
        ("execute_ms", execute_ms, "ms"),
        ("render_us", render / n * 1e6, "us"),
        ("residual_us", residual / n * 1e6, "us"),
    ]
}

pub fn run(seed: u64, seconds: f64, trace: bool, work: &Path) -> Outcome {
    let mut out = Outcome::default();
    // Spans are kept for the first repetition only, so each module's self
    // time is the cost of one repetition, whatever the window length.
    let spans = Spans::new(trace);
    let off = Spans::new(false);

    // Set-up samples, outside the timed phases: one before every
    // repetition, then more after the window up to SETUPS, so they span
    // the run rather than one moment of it. The first sample's mixes are
    // the ones sent.
    let mut setup_s = Vec::new();
    let mut mixes = Vec::new();
    let mut cold = PhaseTotals::default();
    let mut warm = PhaseTotals::default();
    // First payload served per unique job, for verification after timing.
    let mut payloads: HashMap<String, (ExecJob, Value)> = HashMap::new();
    let root = spans.open("perfbench.serve-mix", 0);
    let mut measured = 0.0;
    let mut rep = 0usize;
    while rep < MIXES || measured < seconds {
        match setup_cycle(seed, work) {
            Ok((m, dt)) => {
                setup_s.push(dt);
                if mixes.is_empty() {
                    mixes = m;
                }
            }
            Err(e) => {
                out.failures.push(format!("cannot start server: {e}"));
                break;
            }
        }
        let rec = if rep == 0 { &spans } else { &off };
        let mix = &mixes[rep % MIXES];
        let cache_dir = work.join(format!("cache-{}", rep % MIXES));
        let Started {
            server,
            listener,
            addr,
        } = match start_server(&cache_dir) {
            Ok(s) => s,
            Err(e) => {
                out.failures.push(format!("cannot start server: {e}"));
                break;
            }
        };

        let phases = std::thread::scope(|s| {
            let acceptor = s.spawn(|| server.serve_tcp(listener));
            let mut done = Vec::new();
            for name in ["cold", "warm"] {
                let span = rec.open(format!("perfbench.serve.{name}"), root.id());
                let (replies, wall) = phase(&addr, mix, name, rec, span.id());
                done.push((name, replies, wall, span.id()));
                rec.close(span);
            }
            server.begin_shutdown();
            match acceptor.join() {
                Ok(Ok(())) => {}
                Ok(Err(e)) => out.failures.push(format!("serve_tcp failed: {e}")),
                Err(_) => out.failures.push("serve_tcp panicked".into()),
            }
            done
        });
        server.shutdown();

        for (name, replies, wall, span_id) in phases {
            measured += wall;
            let totals = if name == "cold" { &mut cold } else { &mut warm };
            totals.completed += replies.iter().filter(|r| r.outcome.is_ok()).count();
            totals.wall_s += wall;
            out.attempted += replies.len() as u64;
            let (mut hits, mut executed, mut rejected, mut errors) = (0, 0, 0, 0);
            for r in &replies {
                match &r.outcome {
                    Ok((cached, payload)) => {
                        totals.latencies_ms.push(r.latency_s * 1e3);
                        if *cached {
                            hits += 1;
                        } else {
                            executed += 1;
                            if name == "warm" {
                                out.failures
                                    .push(format!("warm request {} missed the cache", r.index));
                            }
                        }
                        let job = &mix[r.index].job;
                        let key = job.cache_key().id();
                        match payloads.get(&key) {
                            Some((_, first))
                                if canonical_string(first) != canonical_string(payload) =>
                            {
                                out.failures.push(format!(
                                    "{name} request {}: payload differs from an earlier reply",
                                    r.index
                                ));
                            }
                            Some(_) => {}
                            None => {
                                payloads.insert(key, (job.clone(), payload.clone()));
                            }
                        }
                    }
                    Err(e) => {
                        if e.starts_with("rejected") {
                            rejected += 1;
                        } else {
                            errors += 1;
                        }
                        out.failures
                            .push(format!("{name} request {}: {e}", r.index));
                    }
                }
            }
            if trace && rep == 0 {
                for (what, v, unit) in layer_costs(mix, &replies, &cache_dir, &spans, span_id) {
                    out.layers.set(format!("serve.{name}.{what}"), v, unit);
                }
                for (what, v) in [
                    ("hits", hits),
                    ("executed", executed),
                    ("rejected", rejected),
                    ("errors", errors),
                ] {
                    out.layers
                        .set(format!("serve.{name}.{what}"), v as f64, "count");
                }
            }
        }
        let _ = std::fs::remove_dir_all(&cache_dir);
        if rep + 1 == MIXES {
            // One full cycle of the mixes; later cycles repeat the work.
            out.peak_rss_mb = self_peak_rss_mb();
        }
        rep += 1;
    }
    spans.close(root);
    out.measured_s = measured;
    while out.failures.is_empty() && setup_s.len() < SETUPS {
        match setup_cycle(seed, work) {
            Ok((_, dt)) => setup_s.push(dt),
            Err(e) => out.failures.push(format!("cannot start server: {e}")),
        }
    }
    if setup_s.is_empty() {
        return out;
    }
    out.setup_s = median(&setup_s);

    // Output check outside the timed window: every served payload equals
    // direct execution of its job, re-executed on one thread per core.
    let mut shards: Vec<HashMap<String, (ExecJob, Value)>> = vec![HashMap::new(); nproc()];
    let n = shards.len();
    for (i, (key, entry)) in payloads.into_iter().enumerate() {
        shards[i % n].insert(key, entry);
    }
    let (checked, mismatches) = std::thread::scope(|s| {
        let handles: Vec<_> = shards
            .iter()
            .map(|shard| s.spawn(move || verify_against_direct(shard)))
            .collect();
        handles.into_iter().fold((0, 0), |(c, m), h| {
            let v = h.join().expect("verify thread panicked");
            (c + v.checked, m + v.mismatches)
        })
    });
    out.attempted += checked as u64;
    for _ in 0..mismatches {
        out.failures
            .push("served payload differs from direct execution".into());
    }
    out.notes.push(format!(
        "verified {checked} unique payloads against direct execution, {mismatches} mismatches"
    ));

    if cold.wall_s == 0.0 || warm.wall_s == 0.0 {
        return out;
    }
    // Σ completed requests ÷ Σ phase wall time over every repetition.
    out.cold_ops_per_s = cold.completed as f64 / cold.wall_s;
    out.warm_ops_per_s = warm.completed as f64 / warm.wall_s;
    out.report.set("cold_rps", out.cold_ops_per_s, "req/s");
    out.report.set("warm_rps", out.warm_ops_per_s, "req/s");
    for (name, totals) in [("cold", &cold), ("warm", &warm)] {
        if let Some(q) = Quantiles::of(&totals.latencies_ms) {
            out.report.set(format!("{name}_p50_ms"), q.p50, "ms");
            out.report
                .set(format!("{name}_p{}_ms", q.tail_pct), q.tail, "ms");
            out.report
                .set(format!("{name}_samples"), q.count as f64, "count");
        }
    }
    out.report.set("reps", rep as f64, "count");
    out.spans = spans.records();
    out
}
