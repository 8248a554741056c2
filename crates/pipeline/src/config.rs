//! Pipeline and cache configuration.

use serde::{Deserialize, Serialize};

/// Geometry and timing of one level-1 cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Number of sets (must be a power of two).
    pub sets: u32,
    /// Associativity (ways per set).
    pub assoc: u32,
    /// Words per line (must be a power of two).
    pub line_words: u32,
    /// Access latency on a hit, in cycles.
    pub hit_latency: u64,
    /// Fill latency on a miss, in cycles.
    pub miss_latency: u64,
}

impl CacheConfig {
    /// The paper's 64 kB L1 data cache: 4-way, 32-byte lines, 2-cycle hits.
    /// 64 kB / 32 B = 2048 lines = 512 sets × 4 ways.
    pub fn paper_dcache() -> CacheConfig {
        CacheConfig {
            sets: 512,
            assoc: 4,
            line_words: 8,
            hit_latency: 2,
            miss_latency: 20,
        }
    }

    /// The paper's 128 kB L1 instruction cache (equivalent to 64 kB of
    /// useful capacity given SimpleScalar's half-wasted 64-bit encoding):
    /// 4-way, 32-byte lines, 2-cycle hits.
    pub fn paper_icache() -> CacheConfig {
        CacheConfig {
            sets: 1024,
            assoc: 4,
            line_words: 8,
            hit_latency: 2,
            miss_latency: 20,
        }
    }

    /// Total words of capacity.
    pub fn capacity_words(&self) -> u64 {
        self.sets as u64 * self.assoc as u64 * self.line_words as u64
    }

    /// Checks the geometry the cache model relies on: `sets` and
    /// `line_words` are powers of two, `assoc` is non-zero, `sets × assoc`
    /// is at most 2^20 entries, and both latencies are at most 2^20 cycles.
    /// `name` prefixes the error.
    pub fn validate(&self, name: &str) -> Result<(), ConfigError> {
        let entries = self.sets as u64 * self.assoc as u64;
        let latency = self.hit_latency.max(self.miss_latency);
        check(
            name,
            [
                (self.sets.is_power_of_two(), "sets must be a power of two"),
                (
                    self.line_words.is_power_of_two(),
                    "line_words must be a power of two",
                ),
                (self.assoc > 0, "assoc must be positive"),
                (entries <= 1 << 20, "sets × assoc must be at most 2^20"),
                (
                    latency <= MAX_LATENCY,
                    "latencies must be at most 2^20 cycles",
                ),
            ],
        )
    }
}

/// Largest latency or penalty, in cycles: keeps every cycle sum far from
/// overflow.
const MAX_LATENCY: u64 = 1 << 20;

/// Returns the message of the first failed `(ok, message)` rule, prefixed.
fn check<const N: usize>(prefix: &str, rules: [(bool, &str); N]) -> Result<(), ConfigError> {
    match rules.iter().find(|(ok, _)| !ok) {
        Some((_, msg)) => Err(ConfigError(format!("{prefix}{msg}"))),
        None => Ok(()),
    }
}

/// Why a [`PipelineConfig`] cannot be simulated (see
/// [`PipelineConfig::validate`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError(String);

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ConfigError {}

/// Full pipeline-simulator configuration.
///
/// The defaults ([`PipelineConfig::paper`]) model the paper's setup: a
/// 5-stage pipeline (SimpleScalar `sim-outorder` derivative) with an
/// additional 3-cycle misprediction recovery penalty, 2-cycle L1 caches,
/// speculative global history, and enough outstanding branches to expose
/// misprediction clustering.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PipelineConfig {
    /// Instructions fetched/decoded per cycle.
    pub fetch_width: u32,
    /// Base cycles from decode to branch resolution (depth of the
    /// decode→execute portion of the 5-stage pipe).
    pub branch_resolve_latency: u64,
    /// Extra recovery cycles charged on a misprediction, on top of the
    /// natural refill (the paper's "+3 cycles").
    pub mispredict_penalty: u64,
    /// Maximum simultaneously unresolved (speculative) branches.
    pub max_unresolved_branches: usize,
    /// Global history register width (bits); 12 matches the paper's
    /// 4096-entry gshare/McFarling index.
    pub ghr_width: u32,
    /// Instruction cache.
    pub icache: CacheConfig,
    /// Data cache.
    pub dcache: CacheConfig,
    /// Pipeline gating (speculation control): stall fetch while at least
    /// this many unresolved branches are low-confidence according to
    /// estimator 0. `None` disables gating.
    pub gate_threshold: Option<u32>,
    /// Eager (dual-path) execution: fork both paths of a low-confidence
    /// branch (estimator 0). While any fork is active, fetch bandwidth is
    /// halved (the alternate path consumes the other slots); when a forked
    /// branch turns out mispredicted, the misprediction penalty and refetch
    /// gap are waived — the alternate path is already warm. `None`
    /// disables forking. This is a *timing-level* dual-path model: the
    /// alternate path's instructions are charged but not architecturally
    /// executed (recovery re-steers exactly as usual), so architectural
    /// results never change.
    pub eager_max_forks: Option<u32>,
    /// Safety bound on simulated cycles.
    pub max_cycles: u64,
}

impl PipelineConfig {
    /// The paper's configuration.
    pub fn paper() -> PipelineConfig {
        PipelineConfig {
            fetch_width: 4,
            branch_resolve_latency: 3,
            mispredict_penalty: 3,
            max_unresolved_branches: 8,
            ghr_width: 12,
            icache: CacheConfig::paper_icache(),
            dcache: CacheConfig::paper_dcache(),
            gate_threshold: None,
            eager_max_forks: None,
            max_cycles: u64::MAX,
        }
    }

    /// Paper configuration with pipeline gating enabled at `n` outstanding
    /// low-confidence branches (the speculation-control application).
    pub fn with_gating(mut self, n: u32) -> PipelineConfig {
        self.gate_threshold = Some(n);
        self
    }

    /// Paper configuration with eager (dual-path) execution enabled for up
    /// to `n` simultaneous forks.
    pub fn with_eager(mut self, n: u32) -> PipelineConfig {
        self.eager_max_forks = Some(n);
        self
    }
}

impl PipelineConfig {
    /// Checks everything the simulators assume of a configuration: fetch
    /// width at least 1, a speculation window in `1..=4096` (its buffers
    /// are allocated up front), a gate threshold other than 0 (which would
    /// stall fetch forever), a GHR width in `1..=32`, latencies of at most
    /// 2^20 cycles, and valid caches ([`CacheConfig::validate`]). The
    /// simulator constructors panic on a configuration this rejects;
    /// callers taking configurations from outside call it first.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let latency = self.branch_resolve_latency.max(self.mispredict_penalty);
        check(
            "",
            [
                (self.fetch_width > 0, "fetch_width must be positive"),
                (
                    (1..=4096).contains(&self.max_unresolved_branches),
                    "max_unresolved_branches must be in 1..=4096",
                ),
                (
                    self.gate_threshold != Some(0),
                    "gate_threshold 0 would stall fetch forever",
                ),
                (
                    (1..=32).contains(&self.ghr_width),
                    "ghr_width must be in 1..=32",
                ),
                (
                    latency <= MAX_LATENCY,
                    "branch_resolve_latency and mispredict_penalty must be at most 2^20 cycles",
                ),
            ],
        )?;
        self.icache.validate("icache.")?;
        self.dcache.validate("dcache.")
    }
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_cache_capacities() {
        // 64 kB of 4-byte words = 16 Ki words.
        assert_eq!(CacheConfig::paper_dcache().capacity_words(), 16 * 1024);
        // 128 kB = 32 Ki words.
        assert_eq!(CacheConfig::paper_icache().capacity_words(), 32 * 1024);
    }

    #[test]
    fn paper_pipeline_parameters() {
        let c = PipelineConfig::paper();
        assert_eq!(c.fetch_width, 4);
        assert_eq!(c.mispredict_penalty, 3);
        assert_eq!(c.ghr_width, 12);
        assert!(c.gate_threshold.is_none());
    }

    #[test]
    fn gating_builder() {
        let c = PipelineConfig::paper().with_gating(2);
        assert_eq!(c.gate_threshold, Some(2));
        assert_eq!(c.eager_max_forks, None);
    }

    #[test]
    fn degenerate_configurations_are_rejected() {
        assert_eq!(PipelineConfig::paper().with_gating(1).validate(), Ok(()));
        assert_eq!(PipelineConfig::paper().with_eager(1).validate(), Ok(()));
        type Edit = fn(&mut PipelineConfig);
        let bad: [(&str, Edit); 10] = [
            ("fetch_width", |c| c.fetch_width = 0),
            ("max_unresolved_branches", |c| c.max_unresolved_branches = 0),
            ("max_unresolved_branches", |c| {
                c.max_unresolved_branches = 1 << 40
            }),
            ("gate_threshold", |c| c.gate_threshold = Some(0)),
            ("ghr_width", |c| c.ghr_width = 33),
            ("branch_resolve_latency", |c| {
                c.mispredict_penalty = u64::MAX
            }),
            ("icache.sets", |c| c.icache.sets = 3),
            ("dcache.line_words", |c| c.dcache.line_words = 0),
            ("dcache.assoc", |c| c.dcache.assoc = 0),
            ("icache.sets × assoc", |c| {
                c.icache.sets = 1 << 31;
                c.icache.assoc = u32::MAX;
            }),
        ];
        for (field, break_it) in bad {
            let mut c = PipelineConfig::paper();
            break_it(&mut c);
            let msg = c.validate().expect_err(field).to_string();
            assert!(msg.starts_with(field), "{field}: {msg}");
        }
    }

    #[test]
    fn eager_builder() {
        let c = PipelineConfig::paper().with_eager(1);
        assert_eq!(c.eager_max_forks, Some(1));
    }
}
