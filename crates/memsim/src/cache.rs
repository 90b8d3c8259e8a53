//! Set-associative LRU cache simulation.
//!
//! The model's cache-capacity mechanism: the *real* line-address streams of
//! a kernel (derived from the real sorted key arrays) are pushed through
//! this structure to decide which accesses hit in the last-level cache and
//! which go to DRAM. Everything cache-shaped in the paper — tiled-strided
//! reuse (Figs 5–7), the grid-in-cache performance cliff (Fig 9), and
//! superlinear strong scaling (Fig 10) — falls out of these hit/miss
//! counts.

/// Hit/miss tally from a simulation run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CacheStats {
    /// Accesses that hit in the cache.
    pub hits: u64,
    /// Accesses that missed (went to the next level).
    pub misses: u64,
}

impl CacheStats {
    /// Total accesses.
    pub fn total(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit fraction in `[0, 1]`; `1.0` for an empty run.
    pub fn hit_rate(&self) -> f64 {
        if self.total() == 0 {
            1.0
        } else {
            self.hits as f64 / self.total() as f64
        }
    }
}

/// A set-associative cache with true-LRU replacement, indexed by line
/// address.
#[derive(Debug, Clone)]
pub struct CacheSim {
    sets: usize,
    assoc: usize,
    line_bytes: u64,
    /// tag storage: `lines[set * assoc + way]`, u64::MAX = invalid
    lines: Vec<u64>,
    /// LRU stamps parallel to `lines`
    stamps: Vec<u64>,
    /// dirty bits parallel to `lines`
    dirty: Vec<bool>,
    clock: u64,
    stats: CacheStats,
    writebacks: u64,
}

impl CacheSim {
    /// Build a cache of `capacity_bytes` with `assoc` ways and
    /// `line_bytes` lines. Capacity is rounded down to a whole number of
    /// sets (at least one).
    pub fn new(capacity_bytes: u64, assoc: usize, line_bytes: u64) -> Self {
        assert!(assoc >= 1 && line_bytes >= 1);
        let total_lines = (capacity_bytes / line_bytes).max(1) as usize;
        let sets = (total_lines / assoc).max(1);
        Self {
            sets,
            assoc,
            line_bytes,
            lines: vec![u64::MAX; sets * assoc],
            stamps: vec![0; sets * assoc],
            dirty: vec![false; sets * assoc],
            clock: 0,
            stats: CacheStats::default(),
            writebacks: 0,
        }
    }

    /// Touch the line containing byte address `addr` with a read; returns
    /// `true` on hit. Misses install the line, evicting the set's LRU way.
    pub(crate) fn access(&mut self, addr: u64) -> bool {
        let line = addr / self.line_bytes;
        self.touch(line, false)
    }

    /// Touch the line containing byte address `addr` with a write
    /// (marks the line dirty; dirty evictions count as writebacks).
    pub(crate) fn access_write(&mut self, addr: u64) -> bool {
        let line = addr / self.line_bytes;
        self.touch(line, true)
    }

    /// Read-touch line number `line` directly (callers that already work
    /// in line units avoid the division).
    pub fn access_line(&mut self, line: u64) -> bool {
        self.touch(line, false)
    }

    /// Write-touch line number `line` directly.
    pub fn access_line_write(&mut self, line: u64) -> bool {
        self.touch(line, true)
    }

    fn touch(&mut self, line: u64, write: bool) -> bool {
        self.clock += 1;
        let set = (line as usize) % self.sets;
        let base = set * self.assoc;
        let ways = &self.lines[base..base + self.assoc];
        // hit?
        if let Some(w) = ways.iter().position(|&t| t == line) {
            self.stamps[base + w] = self.clock;
            self.dirty[base + w] |= write;
            self.stats.hits += 1;
            return true;
        }
        // miss: install over LRU (or an invalid way)
        let mut victim = 0;
        let mut oldest = u64::MAX;
        for w in 0..self.assoc {
            if self.lines[base + w] == u64::MAX {
                victim = w;
                break;
            }
            if self.stamps[base + w] < oldest {
                oldest = self.stamps[base + w];
                victim = w;
            }
        }
        if self.lines[base + victim] != u64::MAX && self.dirty[base + victim] {
            self.writebacks += 1;
        }
        self.lines[base + victim] = line;
        self.stamps[base + victim] = self.clock;
        self.dirty[base + victim] = write;
        self.stats.misses += 1;
        false
    }

    /// Lines currently resident and dirty (write traffic still owed).
    fn dirty_resident(&self) -> u64 {
        self.lines
            .iter()
            .zip(&self.dirty)
            .filter(|(&l, &d)| l != u64::MAX && d)
            .count() as u64
    }

    /// Total write traffic owed: evicted writebacks plus resident dirty
    /// lines (which drain at kernel end).
    pub fn total_writebacks(&self) -> u64 {
        self.writebacks + self.dirty_resident()
    }

    /// Current tallies.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_misses_then_hits() {
        let mut c = CacheSim::new(1024, 4, 64); // 16 lines, 4 sets
        assert!(!c.access(0));
        assert!(c.access(0));
        assert!(c.access(63)); // same line
        assert!(!c.access(64)); // next line
        assert_eq!(c.stats(), CacheStats { hits: 2, misses: 2 });
    }

    #[test]
    fn working_set_within_capacity_all_hits_after_warmup() {
        let mut c = CacheSim::new(64 * 1024, 8, 64); // 1024 lines
        for line in 0..1000u64 {
            c.access_line(line);
        }
        let warm = c.stats();
        for _ in 0..5 {
            for line in 0..1000u64 {
                c.access_line(line);
            }
        }
        assert_eq!(c.stats().misses, warm.misses, "no miss after the warm-up pass");
    }

    #[test]
    fn working_set_exceeding_capacity_thrashes_with_lru() {
        let mut c = CacheSim::new(64 * 64, 4, 64); // 64 lines
        // cyclic sweep over 2x capacity: LRU evicts exactly what's next
        for _ in 0..10 {
            for line in 0..128u64 {
                c.access_line(line);
            }
        }
        assert!(
            c.stats().hit_rate() < 0.01,
            "cyclic over-capacity sweep must thrash LRU, got {}",
            c.stats().hit_rate()
        );
    }

    #[test]
    fn lru_evicts_least_recent() {
        // 1 set, 2 ways
        let mut c = CacheSim::new(128, 2, 64);
        c.access_line(0); // miss
        c.access_line(1); // miss (other way)... same set because sets=1
        c.access_line(0); // hit, 1 becomes LRU
        c.access_line(2); // miss, evicts 1
        assert!(c.access_line(0), "0 stays resident");
        assert!(!c.access_line(1), "1 was evicted");
    }

    #[test]
    fn empty_stats_hit_rate_is_one() {
        let c = CacheSim::new(1024, 2, 64);
        assert_eq!(c.stats().hit_rate(), 1.0);
    }

    #[test]
    fn writebacks_track_dirty_evictions() {
        // 1 set, 2 ways
        let mut c = CacheSim::new(128, 2, 64);
        assert!(!c.access_write(0)); // dirty line 0
        assert!(!c.access(64)); // clean line 1
        assert_eq!(c.total_writebacks(), 1, "one resident dirty line");
        c.access(128); // evicts line 0 (LRU, dirty) → writeback
        assert_eq!(c.writebacks, 1);
        assert_eq!(c.dirty_resident(), 0);
        c.access(192); // evicts line 1 (clean) → no writeback
        assert_eq!(c.writebacks, 1);
        assert_eq!(c.total_writebacks(), 1);
    }

    #[test]
    fn write_hit_marks_existing_line_dirty() {
        let mut c = CacheSim::new(1024, 4, 64);
        c.access(0); // clean install
        assert!(c.access_write(32)); // same line, now dirty
        assert_eq!(c.dirty_resident(), 1);
    }
}
