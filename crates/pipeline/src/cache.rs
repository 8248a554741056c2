//! A set-associative L1 cache model with LRU replacement.

use crate::CacheConfig;

/// Result of one cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheAccess {
    /// `true` on a hit.
    pub hit: bool,
    /// Latency in cycles (hit or miss latency from the config).
    pub latency: u64,
}

/// Timing-only set-associative cache with true-LRU replacement.
///
/// The cache tracks tags, not data — the interpreter provides values; the
/// cache only decides hit/miss latency, which feeds the pipeline's dataflow
/// timing (loads) and fetch stalls (instruction fetch).
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    /// `log2(line_words)` — both geometry parameters are asserted powers of
    /// two, so the per-access line/set/tag math is shift/mask only.
    line_shift: u32,
    /// `sets - 1`.
    set_mask: u32,
    /// `log2(sets)`.
    set_shift: u32,
    /// `sets × assoc` entries; `None` = invalid. Tag stored with the set
    /// index removed.
    tags: Vec<Option<u32>>,
    /// LRU age per way (smaller = more recently used).
    ages: Vec<u32>,
    /// Line number of the most recent access (`u32::MAX` = none): a one-line
    /// MRU filter. Sequential fetch streams touch the same line `line_words`
    /// times in a row, and only an intervening access — which would update
    /// this filter — could evict it, so a repeat access can skip the way
    /// scan entirely.
    last_line: u32,
    /// Entry index (`set * assoc + way`) of `last_line`, valid only when
    /// the previous access hit or filled it.
    last_entry: usize,
    tick: u32,
    accesses: u64,
    misses: u64,
}

impl Cache {
    /// Creates an empty (all-invalid) cache.
    ///
    /// # Panics
    ///
    /// Panics if [`CacheConfig::validate`] rejects `cfg`.
    pub fn new(cfg: CacheConfig) -> Cache {
        if let Err(e) = cfg.validate("cache ") {
            panic!("{e}");
        }
        let entries = (cfg.sets * cfg.assoc) as usize;
        Cache {
            line_shift: cfg.line_words.trailing_zeros(),
            set_mask: cfg.sets - 1,
            set_shift: cfg.sets.trailing_zeros(),
            cfg,
            tags: vec![None; entries],
            ages: vec![0; entries],
            last_line: u32::MAX,
            last_entry: 0,
            tick: 0,
            accesses: 0,
            misses: 0,
        }
    }

    /// Accesses the word at `addr`, filling the line on a miss.
    pub fn access(&mut self, addr: u32) -> CacheAccess {
        self.accesses += 1;
        self.tick = self.tick.wrapping_add(1);
        let line = addr >> self.line_shift;
        if line == self.last_line {
            // Repeat access to the most recent line: it cannot have been
            // evicted (only another access could do that, and it would have
            // replaced the filter), so refresh its age and hit.
            self.ages[self.last_entry] = self.tick;
            return CacheAccess {
                hit: true,
                latency: self.cfg.hit_latency,
            };
        }
        self.last_line = line;
        let set = line & self.set_mask;
        let tag = line >> self.set_shift;
        let base = (set * self.cfg.assoc) as usize;
        let ways = &mut self.tags[base..base + self.cfg.assoc as usize];

        if let Some(w) = ways.iter().position(|t| *t == Some(tag)) {
            self.ages[base + w] = self.tick;
            self.last_entry = base + w;
            return CacheAccess {
                hit: true,
                latency: self.cfg.hit_latency,
            };
        }
        // Miss: fill the least-recently-used way (preferring invalid ways).
        self.misses += 1;
        let victim = match ways.iter().position(|t| t.is_none()) {
            Some(w) => w,
            None => {
                let mut best = 0;
                for w in 1..self.cfg.assoc as usize {
                    if self.ages[base + w] < self.ages[base + best] {
                        best = w;
                    }
                }
                best
            }
        };
        self.tags[base + victim] = Some(tag);
        self.ages[base + victim] = self.tick;
        self.last_entry = base + victim;
        CacheAccess {
            hit: false,
            latency: self.cfg.miss_latency,
        }
    }

    /// Line number holding `addr` (for callers that batch repeat accesses).
    #[inline]
    pub fn line_of(&self, addr: u32) -> u32 {
        addr >> self.line_shift
    }

    /// Accounts `n` repeat accesses to the line of the most recent
    /// [`access`](Cache::access) in one step. Exactly equivalent to calling
    /// `access` `n` times with addresses on that line — each such call would
    /// take the one-line MRU fast path, and only the final age store
    /// survives — but without paying the per-call counter updates.
    ///
    /// The caller must guarantee no intervening access to a different line
    /// (in the pipeline, fetch is the I-cache's only client, so a
    /// sequential-run batcher in the fetch loop satisfies this).
    #[inline]
    pub fn repeat_hits(&mut self, n: u64) {
        debug_assert!(self.last_line != u32::MAX, "repeat before any access");
        self.accesses += n;
        self.tick = self.tick.wrapping_add(n as u32);
        self.ages[self.last_entry] = self.tick;
    }

    /// Total accesses so far.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Total misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Miss rate in `[0, 1]` (`NaN` before any access).
    pub fn miss_rate(&self) -> f64 {
        self.misses as f64 / self.accesses as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(assoc: u32) -> Cache {
        Cache::new(CacheConfig {
            sets: 4,
            assoc,
            line_words: 4,
            hit_latency: 2,
            miss_latency: 20,
        })
    }

    #[test]
    fn first_access_misses_then_hits() {
        let mut c = tiny(2);
        let a = c.access(0x100);
        assert!(!a.hit);
        assert_eq!(a.latency, 20);
        let b = c.access(0x100);
        assert!(b.hit);
        assert_eq!(b.latency, 2);
    }

    #[test]
    fn spatial_locality_within_a_line() {
        let mut c = tiny(2);
        c.access(0x100);
        assert!(c.access(0x101).hit, "same 4-word line");
        assert!(c.access(0x103).hit);
        assert!(!c.access(0x104).hit, "next line misses");
    }

    #[test]
    fn lru_evicts_the_oldest_way() {
        let mut c = tiny(2);
        // Set index = (addr/4) & 3. Use addresses mapping to set 0:
        // lines 0, 4, 8 (addresses 0, 64, 128 in words... line=addr/4).
        let l0 = 0u32; // line 0 -> set 0
        let l1 = 16u32; // line 4 -> set 0
        let l2 = 32u32; // line 8 -> set 0
        c.access(l0);
        c.access(l1);
        c.access(l0); // refresh l0; l1 is now LRU
        c.access(l2); // evicts l1
        assert!(c.access(l0).hit);
        assert!(!c.access(l1).hit, "l1 was evicted");
    }

    #[test]
    fn conflict_misses_in_direct_mapped() {
        let mut c = tiny(1);
        c.access(0);
        c.access(16); // same set, different tag
        assert!(!c.access(0).hit, "direct-mapped conflict");
    }

    #[test]
    fn stats_accumulate() {
        let mut c = tiny(2);
        c.access(0);
        c.access(0);
        c.access(64);
        assert_eq!(c.accesses(), 3);
        assert_eq!(c.misses(), 2);
        assert!((c.miss_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn paper_caches_construct() {
        let _ = Cache::new(CacheConfig::paper_icache());
        let _ = Cache::new(CacheConfig::paper_dcache());
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_sets_rejected() {
        let _ = Cache::new(CacheConfig {
            sets: 3,
            assoc: 1,
            line_words: 4,
            hit_latency: 1,
            miss_latency: 10,
        });
    }
}
