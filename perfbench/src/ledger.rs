//! The run ledger: named metrics, exact sample statistics, peak memory,
//! and the in-memory span recorder the traced run uses.

use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Metrics of one run, by name, each with its unit.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<String, (f64, String)>);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: impl Into<String>) {
        self.0.insert(name.into(), (value, unit.into()));
    }

    pub fn extend(&mut self, other: Metrics) {
        self.0.extend(other.0);
    }

    pub fn get(&self, name: &str) -> Option<(f64, &str)> {
        self.0.get(name).map(|(v, u)| (*v, u.as_str()))
    }

    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.0.keys().map(String::as_str)
    }

    pub fn to_json(&self) -> Value {
        let mut map = serde_json::Map::new();
        for (name, (value, unit)) in &self.0 {
            map.insert(name.clone(), json!({ "value": value, "unit": unit }));
        }
        Value::Object(map)
    }

    /// Prints one `name = value unit` line per metric under a heading.
    pub fn print(&self, heading: &str) {
        println!("{heading}");
        for (name, (value, unit)) in &self.0 {
            println!("  {name:44} {value:>16.6} {unit}");
        }
    }
}

/// Median of a non-empty sample (mean of the middle pair when even).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Exact latency summary of a sample: the median, and the highest of the
/// percentiles 99.9/99/95/90/75/50 that leaves at least ten samples above
/// it (nearest-rank), with the sample count. Never a histogram bucket edge.
#[derive(Debug, Clone, Copy)]
pub struct Quantiles {
    pub count: usize,
    pub p50: f64,
    pub tail_pct: f64,
    pub tail: f64,
}

impl Quantiles {
    pub fn of(samples: &[f64]) -> Option<Quantiles> {
        if samples.is_empty() {
            return None;
        }
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let rank = |pct: f64| -> usize {
            // Nearest rank: the smallest index covering pct% of the sample.
            let r = (pct / 100.0 * n as f64).ceil() as usize;
            r.clamp(1, n) - 1
        };
        let (tail_pct, tail_idx) = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0]
            .iter()
            .map(|&p| (p, rank(p)))
            .find(|&(_, i)| n - 1 - i >= 10)
            .unwrap_or((50.0, rank(50.0)));
        Some(Quantiles {
            count: n,
            p50: median(&v),
            tail_pct,
            tail: v[tail_idx],
        })
    }
}

/// Peak resident set size of this process, in MB (`VmHWM`).
pub fn self_peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Largest peak resident set size among this process's waited-for
/// children, in MB.
pub fn children_peak_rss_mb() -> f64 {
    // `struct rusage` on 64-bit Linux: two `timeval`s (2 × i64 each)
    // followed by fourteen `long`s, the first of which is `ru_maxrss`
    // in kilobytes.
    extern "C" {
        fn getrusage(who: i32, usage: *mut [i64; 18]) -> i32;
    }
    const RUSAGE_CHILDREN: i32 = -1;
    let mut usage = [0i64; 18];
    // SAFETY: `usage` is a writable buffer of the size and alignment of
    // `struct rusage` on 64-bit Linux, and getrusage writes only into it.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    if rc == 0 {
        usage[4] as f64 / 1024.0
    } else {
        0.0
    }
}

/// One recorded span: a timed call into a layer, with the span that
/// caused it (`parent == 0` for a root).
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub id: u64,
    pub parent: u64,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// An open span; close it with [`Spans::close`].
pub struct Open {
    id: u64,
    parent: u64,
    name: String,
    start: Instant,
}

impl Open {
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// In-memory span recorder. Timing is identical whether recording is on
/// or off — both read the clock around the call — so a traced run differs
/// from a timed one only by storing the records.
pub struct Spans {
    on: bool,
    epoch: Instant,
    recs: Mutex<Vec<SpanRec>>,
}

/// Span ids are unique across recorders, so the spans of several
/// recorders in one run merge into one tree.
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

impl Spans {
    pub fn new(on: bool) -> Spans {
        Spans {
            on,
            epoch: Instant::now(),
            recs: Mutex::new(Vec::new()),
        }
    }

    pub fn open(&self, name: impl Into<String>, parent: u64) -> Open {
        Open {
            id: NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed),
            parent,
            name: name.into(),
            start: Instant::now(),
        }
    }

    /// Ends a span and returns its duration in seconds.
    pub fn close(&self, open: Open) -> f64 {
        let end = Instant::now();
        let secs = end.duration_since(open.start).as_secs_f64();
        if self.on {
            let ns = |t: Instant| t.duration_since(self.epoch).as_nanos() as u64;
            self.recs
                .lock()
                .expect("span store poisoned")
                .push(SpanRec {
                    id: open.id,
                    parent: open.parent,
                    name: open.name,
                    start_ns: ns(open.start),
                    end_ns: ns(end),
                });
        }
        secs
    }

    /// Times `f` inside a span; returns its result and duration in seconds.
    pub fn time<R>(&self, name: impl Into<String>, parent: u64, f: impl FnOnce() -> R) -> (R, f64) {
        let open = self.open(name, parent);
        let r = f();
        (r, self.close(open))
    }

    pub fn records(&self) -> Vec<SpanRec> {
        let mut v = self.recs.lock().expect("span store poisoned").clone();
        v.sort_by_key(|r| r.id);
        v
    }
}

/// Self time per module, in milliseconds: each span's duration minus the
/// part of its interval covered by its children, summed over the spans
/// whose name starts with `<module>.`.
pub fn self_ms_by_module(recs: &[SpanRec]) -> BTreeMap<String, f64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for r in recs {
        children
            .entry(r.parent)
            .or_default()
            .push((r.start_ns, r.end_ns));
    }
    let mut out = BTreeMap::new();
    for r in recs {
        let mut covered = 0u64;
        if let Some(kids) = children.get_mut(&r.id) {
            kids.sort_unstable();
            // Union of the child intervals, clipped to the parent's.
            let mut run: Option<(u64, u64)> = None;
            for &(s, e) in kids.iter() {
                let (s, e) = (s.max(r.start_ns), e.min(r.end_ns));
                if s >= e {
                    continue;
                }
                run = match run {
                    Some((lo, hi)) if s <= hi => Some((lo, hi.max(e))),
                    Some((lo, hi)) => {
                        covered += hi - lo;
                        Some((s, e))
                    }
                    None => Some((s, e)),
                };
            }
            if let Some((lo, hi)) = run {
                covered += hi - lo;
            }
        }
        let module = r.name.split('.').next().unwrap_or(&r.name).to_string();
        let self_ns = (r.end_ns - r.start_ns).saturating_sub(covered);
        *out.entry(module).or_insert(0.0) += self_ns as f64 / 1e6;
    }
    out
}

/// The spans as JSON, for the trace file written at the end of a run.
pub fn spans_json(recs: &[SpanRec]) -> Value {
    Value::Array(
        recs.iter()
            .map(|r| {
                json!({
                    "id": r.id, "parent": r.parent, "name": r.name,
                    "start_ns": r.start_ns, "end_ns": r.end_ns,
                })
            })
            .collect(),
    )
}
