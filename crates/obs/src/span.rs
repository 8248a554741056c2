//! Wall-clock phase profiling for tight simulator loops.
//!
//! A [`PhaseProfiler`] accumulates per-phase sums. Under an ambient span
//! context (see [`span2::set_ambient`](crate::span2::set_ambient)) it also
//! publishes those sums as parent-linked
//! [`SpanRecord`](crate::span2::SpanRecord)s; coarse regions are timed
//! with [`span2::AmbientSpan`](crate::span2::AmbientSpan) directly.

use crate::span2;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Accumulated wall-clock time for one named phase.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseTiming {
    /// Phase name (e.g. `fetch`, `resolve`, `commit`).
    pub name: String,
    /// Total elapsed nanoseconds.
    pub nanos: u64,
    /// Number of timed entries.
    pub calls: u64,
}

/// Start/stop phase profiler for loops where an RAII guard would fight the
/// borrow checker (e.g. `Simulator::step` timing its own `&mut self`
/// phases). Disabled profilers cost one branch per phase.
#[derive(Debug, Default)]
pub struct PhaseProfiler {
    enabled: bool,
    phases: Vec<PhaseAcc>,
}

#[derive(Debug)]
struct PhaseAcc {
    name: &'static str,
    nanos: u64,
    calls: u64,
}

/// Handle naming a registered phase (index into the profiler).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseId(usize);

impl PhaseProfiler {
    /// Creates a profiler; a disabled one records nothing.
    pub fn new(enabled: bool) -> PhaseProfiler {
        PhaseProfiler {
            enabled,
            phases: Vec::new(),
        }
    }

    /// Whether timing is being recorded.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Registers (or finds) a phase by name.
    pub fn phase(&mut self, name: &'static str) -> PhaseId {
        if let Some(i) = self.phases.iter().position(|p| p.name == name) {
            return PhaseId(i);
        }
        self.phases.push(PhaseAcc {
            name,
            nanos: 0,
            calls: 0,
        });
        PhaseId(self.phases.len() - 1)
    }

    /// Starts a measurement (`None` when disabled — pass it to [`stop`]).
    ///
    /// [`stop`]: PhaseProfiler::stop
    #[inline]
    pub fn start(&self) -> Option<Instant> {
        if self.enabled {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Ends a measurement begun with [`start`](PhaseProfiler::start).
    #[inline]
    pub fn stop(&mut self, phase: PhaseId, started: Option<Instant>) {
        if let Some(t0) = started {
            let acc = &mut self.phases[phase.0];
            acc.nanos += t0.elapsed().as_nanos() as u64;
            acc.calls += 1;
        }
    }

    /// Accumulated timings in registration order.
    pub fn timings(&self) -> Vec<PhaseTiming> {
        self.phases
            .iter()
            .map(|p| PhaseTiming {
                name: p.name.to_string(),
                nanos: p.nanos,
                calls: p.calls,
            })
            .collect()
    }

    /// Emits the accumulated phase sums as causal summary spans under the
    /// current ambient span context (no-op when disabled, off-ambient, or
    /// empty).
    ///
    /// Per-call spans would mean millions of records for a tight
    /// simulator loop, so the profiler stays a sum accumulator and this
    /// routes the *totals* into the span stream: one `phase.<name>` span
    /// per phase, laid out as synthetic back-to-back intervals ending at
    /// "now" (their durations are real, their placement is not), each
    /// labelled with its call count.
    pub fn emit_ambient_spans(&self) {
        if !self.enabled || self.phases.is_empty() || !span2::ambient_active() {
            return;
        }
        let end = span2::ambient_now_nanos();
        let total: u64 = self.phases.iter().map(|p| p.nanos).sum();
        let mut cursor = end.saturating_sub(total);
        for p in &self.phases {
            span2::ambient_record_closed(
                &format!("phase.{}", p.name),
                &[("calls", &p.calls.to_string()), ("synthetic", "true")],
                cursor,
                cursor + p.nanos,
            );
            cursor += p.nanos;
        }
    }
}

/// Renders phase timings as an aligned text table.
pub fn render_timing_table(timings: &[PhaseTiming]) -> String {
    let total: u64 = timings.iter().map(|t| t.nanos).sum();
    let name_w = timings
        .iter()
        .map(|t| t.name.len())
        .chain(["phase".len()])
        .max()
        .unwrap_or(5);
    let mut out = format!(
        "{:<name_w$}  {:>12}  {:>10}  {:>6}\n",
        "phase", "total ms", "calls", "share"
    );
    for t in timings {
        let share = if total == 0 {
            0.0
        } else {
            t.nanos as f64 / total as f64 * 100.0
        };
        out.push_str(&format!(
            "{:<name_w$}  {:>12.3}  {:>10}  {share:>5.1}%\n",
            t.name,
            t.nanos as f64 / 1e6,
            t.calls
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiler_records_only_when_enabled() {
        let mut off = PhaseProfiler::new(false);
        let p = off.phase("fetch");
        let t0 = off.start();
        assert!(t0.is_none());
        off.stop(p, t0);
        assert_eq!(off.timings()[0].calls, 0);

        let mut on = PhaseProfiler::new(true);
        let p = on.phase("fetch");
        let t0 = on.start();
        on.stop(p, t0);
        let t = on.timings();
        assert_eq!(t[0].name, "fetch");
        assert_eq!(t[0].calls, 1);
    }

    #[test]
    fn phase_ids_are_stable() {
        let mut prof = PhaseProfiler::new(true);
        let a = prof.phase("a");
        let b = prof.phase("b");
        assert_ne!(a, b);
        assert_eq!(prof.phase("a"), a);
    }

    #[test]
    fn phase_spans_nest_under_ambient_spans() {
        use crate::span2::{set_ambient, AmbientSpan, SpanCollector, SpanId};
        let c = SpanCollector::new();
        let _g = set_ambient(&c, SpanId::NONE, "main");

        let outer = AmbientSpan::enter("outer", &[]);
        {
            let _inner = AmbientSpan::enter("inner", &[]);
            let mut prof = PhaseProfiler::new(true);
            let p = prof.phase("fetch");
            let t0 = prof.start();
            std::hint::black_box((0..100).sum::<u64>());
            prof.stop(p, t0);
            prof.emit_ambient_spans();
        }
        drop(outer);

        let recs = c.drain();
        let find = |name: &str| recs.iter().find(|r| r.name == name).unwrap();
        let outer_r = find("outer");
        let inner_r = find("inner");
        let phase_r = find("phase.fetch");
        // Causal chain: phase.fetch → inner → outer → root.
        assert_eq!(phase_r.parent, inner_r.id);
        assert_eq!(inner_r.parent, outer_r.id);
        assert_eq!(outer_r.parent, SpanId::NONE);
        // Child interval ⊆ parent interval.
        assert!(inner_r.start_nanos >= outer_r.start_nanos);
        assert!(inner_r.end_nanos <= outer_r.end_nanos);
        // Ids are acyclic: every parent id precedes its child's id.
        for r in &recs {
            if r.parent.is_some() {
                assert!(
                    r.parent < r.id,
                    "{}: parent {:?} !< {:?}",
                    r.name,
                    r.parent,
                    r.id
                );
            }
        }
        assert_eq!(
            phase_r.labels.iter().find(|(k, _)| k == "calls").unwrap().1,
            "1"
        );
    }

    #[test]
    fn profiler_without_ambient_context_records_no_spans() {
        let c = crate::span2::SpanCollector::new();
        // No ambient context installed: plain timing still works.
        let mut prof = PhaseProfiler::new(true);
        let p = prof.phase("fetch");
        let t0 = prof.start();
        prof.stop(p, t0);
        prof.emit_ambient_spans();
        assert_eq!(prof.timings()[0].calls, 1);
        assert!(c.drain().is_empty());
    }

    #[test]
    fn timing_table_shows_shares() {
        let table = render_timing_table(&[
            PhaseTiming {
                name: "fetch".into(),
                nanos: 1_000_000,
                calls: 10,
            },
            PhaseTiming {
                name: "resolve".into(),
                nanos: 3_000_000,
                calls: 10,
            },
        ]);
        assert!(table.contains("fetch"));
        assert!(table.contains("75.0%"));
    }
}
