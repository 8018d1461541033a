//! Generic set-associative cache model.

use std::fmt;

/// Replacement policy for a cache set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReplacementPolicy {
    /// Least recently used (the modelled ST200 data cache).
    #[default]
    Lru,
    /// First in, first out.
    Fifo,
    /// Pseudo-random (xorshift over an internal seed; deterministic).
    Random,
}

/// Size/shape parameters of a cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheGeometry {
    /// Total capacity in bytes.
    pub capacity: u32,
    /// Line size in bytes (a power of two).
    pub line_size: u32,
    /// Associativity (ways); 1 = direct mapped.
    pub ways: u32,
    /// Replacement policy.
    pub policy: ReplacementPolicy,
}

impl CacheGeometry {
    /// The paper's 32 KB 4-way set-associative data cache. The 32-byte line
    /// size follows the paper's Line Buffer B sizing (68 lines = 2176
    /// bytes).
    #[must_use]
    pub fn st200_dcache() -> Self {
        CacheGeometry {
            capacity: 32 * 1024,
            line_size: 32,
            ways: 4,
            policy: ReplacementPolicy::Lru,
        }
    }

    /// The paper's 128 KB direct-mapped instruction cache.
    #[must_use]
    pub fn st200_icache() -> Self {
        CacheGeometry {
            capacity: 128 * 1024,
            line_size: 64,
            ways: 1,
            policy: ReplacementPolicy::Lru,
        }
    }

    /// Number of sets.
    #[must_use]
    pub fn num_sets(&self) -> u32 {
        self.capacity / (self.line_size * self.ways)
    }
}

/// The empty most-recently-used memo: no `u32` line number equals it.
const NO_LINE: u64 = u64::MAX;

#[derive(Debug, Clone, Copy, Default)]
struct Way {
    valid: bool,
    dirty: bool,
    tag: u32,
    /// LRU stamp or FIFO insertion counter.
    stamp: u64,
}

/// Result of a cache lookup-with-fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FillOutcome {
    /// Whether the access hit.
    pub hit: bool,
    /// A dirty line was evicted (its base address).
    pub writeback: Option<u32>,
}

/// A set-associative, write-back, write-allocate cache.
///
/// The model tracks tags only — data always lives in [`Ram`](crate::Ram)
/// (the simulator is functionally exact regardless of cache state; the cache
/// decides *timing*).
///
/// ```
/// use rvliw_mem::{Cache, CacheGeometry};
///
/// let mut dcache = Cache::new(CacheGeometry::st200_dcache());
/// assert!(!dcache.access(0x1000, false).hit); // cold miss
/// assert!(dcache.access(0x1004, false).hit);  // same 32-byte line
/// ```
#[derive(Clone)]
pub struct Cache {
    geom: CacheGeometry,
    sets: Vec<Way>,
    tick: u64,
    rng: u32,
    /// `log2(line_size)` — the line size is asserted to be a power of two.
    line_shift: u32,
    /// Set count, cached so the hot lookup path never re-derives it.
    num_sets: u32,
    /// `log2(num_sets)` when the set count is a power of two (the common
    /// case, letting index/tag extraction use shifts instead of division).
    sets_shift: Option<u32>,
    /// Most-recently-used memo: the line number (`addr >> line_shift`) of
    /// the last line that hit, or [`NO_LINE`]. While set, that line is
    /// resident in flat way `mru_way`, so a repeat access skips the set
    /// scan and does exactly what a scanned hit does. Every fill and
    /// flush clears it (a fill may evict the memoized line).
    mru_line: u64,
    /// Flat index into `sets` of the way holding `mru_line`.
    mru_way: usize,
    /// Bumped whenever the set of resident lines can shrink (any fill or
    /// flush). While this is unchanged, every line observed resident is
    /// still resident — the basis for [`Cache::contents_gen`] memos.
    gen: u64,
    /// Lookup/fill counters.
    pub hits: u64,
    /// Demand misses (fills).
    pub misses: u64,
    /// Dirty evictions.
    pub writebacks: u64,
}

impl fmt::Debug for Cache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Cache")
            .field("geom", &self.geom)
            .field("hits", &self.hits)
            .field("misses", &self.misses)
            .finish()
    }
}

impl Cache {
    /// Creates an empty (cold) cache.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero sets or a non-power-of-two
    /// line size).
    #[must_use]
    pub fn new(geom: CacheGeometry) -> Self {
        assert!(geom.line_size.is_power_of_two(), "line size power of two");
        assert!(geom.num_sets() > 0, "cache must have at least one set");
        let num_sets = geom.num_sets();
        Cache {
            geom,
            sets: vec![Way::default(); (num_sets * geom.ways) as usize],
            tick: 0,
            rng: 0x2545_f491,
            line_shift: geom.line_size.trailing_zeros(),
            num_sets,
            sets_shift: num_sets
                .is_power_of_two()
                .then(|| num_sets.trailing_zeros()),
            mru_line: NO_LINE,
            mru_way: 0,
            gen: 0,
            hits: 0,
            misses: 0,
            writebacks: 0,
        }
    }

    /// The geometry this cache was built with.
    #[must_use]
    pub fn geometry(&self) -> &CacheGeometry {
        &self.geom
    }

    /// The base address of the line containing `addr`.
    #[must_use]
    pub fn line_of(&self, addr: u32) -> u32 {
        addr & !(self.geom.line_size - 1)
    }

    fn set_index(&self, addr: u32) -> u32 {
        let line = addr >> self.line_shift;
        match self.sets_shift {
            Some(s) => line & ((1 << s) - 1),
            None => line % self.num_sets,
        }
    }

    fn tag_of(&self, addr: u32) -> u32 {
        let line = addr >> self.line_shift;
        match self.sets_shift {
            Some(s) => line >> s,
            None => line / self.num_sets,
        }
    }

    fn set_ways(&mut self, set: u32) -> &mut [Way] {
        let w = self.geom.ways as usize;
        let base = set as usize * w;
        &mut self.sets[base..base + w]
    }

    /// Accounts a repeat access to the same line the previous access
    /// touched, without re-running the lookup.
    ///
    /// Valid only for a direct-mapped cache (`ways == 1`) and only when
    /// the caller knows the previous access was to the same line (then
    /// this access is a guaranteed hit, nothing can have evicted the line
    /// in between, and — with a single way — LRU stamps never influence
    /// victim selection). The counters stay bit-identical to issuing the
    /// access.
    ///
    /// The block-compiled simulator backend uses this to batch per-bundle
    /// instruction fetches that stay within one cache line.
    pub fn note_repeat_hit(&mut self) {
        debug_assert_eq!(
            self.geom.ways, 1,
            "repeat-hit shortcut is direct-mapped only"
        );
        self.tick += 1;
        self.hits += 1;
    }

    /// [`Cache::note_repeat_hit`], `n` accesses at once. The same validity
    /// conditions apply to every one of them.
    pub fn note_repeat_hits(&mut self, n: u64) {
        debug_assert!(self.geom.ways == 1 || n == 0);
        self.tick += n;
        self.hits += n;
    }

    /// An opaque stamp of the resident-line set: unchanged means no line
    /// has been evicted or invalidated since the stamp was taken, so any
    /// line observed resident then is resident now (fills only add lines).
    /// Lets the block-compiled simulator backend skip re-looking-up lines
    /// it has already proven resident.
    #[must_use]
    pub fn contents_gen(&self) -> u64 {
        self.gen
    }

    /// Whether the line containing `addr` is present (no state change, no
    /// statistics).
    #[must_use]
    pub fn probe(&self, addr: u32) -> bool {
        let set = self.set_index(addr);
        let tag = self.tag_of(addr);
        let w = self.geom.ways as usize;
        let base = set as usize * w;
        self.sets[base..base + w]
            .iter()
            .any(|way| way.valid && way.tag == tag)
    }

    /// Accesses `addr`, filling on miss; `write` marks the line dirty.
    #[inline(always)]
    pub fn access(&mut self, addr: u32, write: bool) -> FillOutcome {
        self.tick += 1;
        let tick = self.tick;
        let policy = self.geom.policy;
        let line = addr >> self.line_shift;
        // Repeat access to the most recently used line: the same hit
        // without the set scan.
        let found = if u64::from(line) == self.mru_line {
            Some(self.mru_way)
        } else {
            let set = self.set_index(addr);
            let tag = self.tag_of(addr);
            let base = set as usize * self.geom.ways as usize;
            self.sets[base..base + self.geom.ways as usize]
                .iter()
                .position(|w| w.valid && w.tag == tag)
                .map(|i| base + i)
        };
        if let Some(i) = found {
            let way = &mut self.sets[i];
            if policy == ReplacementPolicy::Lru {
                way.stamp = tick;
            }
            way.dirty |= write;
            self.hits += 1;
            self.mru_line = u64::from(line);
            self.mru_way = i;
            return FillOutcome {
                hit: true,
                writeback: None,
            };
        }
        self.misses += 1;
        let writeback = self.fill(addr, write, tick);
        FillOutcome {
            hit: false,
            writeback,
        }
    }

    /// Installs the line containing `addr` without counting a demand access
    /// (used when a completed prefetch drains into the cache). Returns the
    /// evicted dirty line, if any. No-op when the line is already present.
    pub fn install(&mut self, addr: u32) -> Option<u32> {
        self.tick += 1;
        let tick = self.tick;
        let set = self.set_index(addr);
        let tag = self.tag_of(addr);
        if self.set_ways(set).iter().any(|w| w.valid && w.tag == tag) {
            return None;
        }
        self.fill(addr, false, tick)
    }

    fn fill(&mut self, addr: u32, write: bool, tick: u64) -> Option<u32> {
        let set = self.set_index(addr);
        let tag = self.tag_of(addr);
        let line_size = self.geom.line_size;
        let num_sets = self.num_sets;
        let policy = self.geom.policy;
        // Victim selection. Advance the xorshift32 state up front so the
        // borrow of the set does not overlap the RNG update.
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 17;
        self.rng ^= self.rng << 5;
        let rng = self.rng;
        let victim_idx = {
            let ways = self.set_ways(set);
            if let Some(i) = ways.iter().position(|w| !w.valid) {
                i
            } else {
                match policy {
                    ReplacementPolicy::Lru | ReplacementPolicy::Fifo => ways
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, w)| w.stamp)
                        .map(|(i, _)| i)
                        .unwrap_or(0),
                    ReplacementPolicy::Random => (rng as usize) % ways.len(),
                }
            }
        };
        let ways = self.set_ways(set);
        let victim = &mut ways[victim_idx];
        let mut writeback = None;
        if victim.valid && victim.dirty {
            let old_addr = (victim.tag * num_sets + set) * line_size;
            writeback = Some(old_addr);
        }
        *victim = Way {
            valid: true,
            dirty: write,
            tag,
            stamp: tick,
        };
        if writeback.is_some() {
            self.writebacks += 1;
        }
        self.gen += 1;
        // The fill may have evicted the memoized line.
        self.mru_line = NO_LINE;
        writeback
    }

    /// Invalidates everything (cold restart between experiments).
    pub fn flush(&mut self) {
        for w in &mut self.sets {
            *w = Way::default();
        }
        self.tick = 0;
        self.mru_line = NO_LINE;
        self.gen += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(ways: u32, policy: ReplacementPolicy) -> Cache {
        Cache::new(CacheGeometry {
            capacity: 1024,
            line_size: 64,
            ways,
            policy,
        })
    }

    #[test]
    fn geometry_of_paper_caches() {
        let d = CacheGeometry::st200_dcache();
        assert_eq!(d.num_sets(), 256);
        let i = CacheGeometry::st200_icache();
        assert_eq!(i.num_sets(), 2048);
        assert_eq!(i.ways, 1);
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = small(2, ReplacementPolicy::Lru);
        assert!(!c.access(0x100, false).hit);
        assert!(c.access(0x104, false).hit); // same line
        assert!(!c.access(0x140, false).hit); // next line: cold miss
        assert_eq!((c.hits, c.misses), (1, 2));
    }

    #[test]
    fn lru_evicts_least_recent() {
        // 1024 B, 64 B lines, 2-way ⇒ 8 sets. Lines 0, 8, 16 (in units of
        // lines) map to set 0.
        let mut c = small(2, ReplacementPolicy::Lru);
        let line = |i: u32| i * 64;
        c.access(line(0), false);
        c.access(line(8), false);
        c.access(line(0), false); // touch line 0 ⇒ line 8 is LRU
        c.access(line(16), false); // evicts line 8
        assert!(c.probe(line(0)));
        assert!(!c.probe(line(8)));
        assert!(c.probe(line(16)));
    }

    #[test]
    fn fifo_evicts_oldest_insertion() {
        let mut c = small(2, ReplacementPolicy::Fifo);
        let line = |i: u32| i * 64;
        c.access(line(0), false);
        c.access(line(8), false);
        c.access(line(0), false); // touch does not refresh FIFO order
        c.access(line(16), false); // evicts line 0 (oldest insertion)
        assert!(!c.probe(line(0)));
        assert!(c.probe(line(8)));
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = small(1, ReplacementPolicy::Lru); // direct mapped, 16 sets
        let conflict = 1024; // same set as address 0
        c.access(0, true); // dirty
        let out = c.access(conflict, false);
        assert!(!out.hit);
        assert_eq!(out.writeback, Some(0));
        assert_eq!(c.writebacks, 1);
    }

    #[test]
    fn install_is_idempotent_and_uncounted() {
        let mut c = small(2, ReplacementPolicy::Lru);
        assert!(c.install(0x200).is_none());
        assert!(c.install(0x200).is_none());
        assert!(c.probe(0x200));
        assert_eq!(c.hits + c.misses, 0);
    }

    #[test]
    fn flush_clears_contents() {
        let mut c = small(2, ReplacementPolicy::Lru);
        c.access(0x300, false);
        assert!(c.probe(0x300));
        c.flush();
        assert!(!c.probe(0x300));
    }

    #[test]
    fn random_policy_is_deterministic() {
        let run = || {
            let mut c = small(2, ReplacementPolicy::Random);
            for i in 0..64u32 {
                c.access(i * 64, false);
            }
            (0..64u32).filter(|i| c.probe(i * 64)).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn line_of_masks_offset() {
        let c = small(2, ReplacementPolicy::Lru);
        assert_eq!(c.line_of(0x12_345), 0x12_340 & !63);
    }
}
