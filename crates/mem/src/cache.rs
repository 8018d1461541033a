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

/// The tag of an empty way: no `u32` line number equals it.
const EMPTY: u64 = u64::MAX;

/// The index in `tags` of `line`, or `usize::MAX`. A line is resident in
/// at most one way, so the last match is the match and the scan has no
/// early exit; inlined with a constant length it is branch-free.
#[inline(always)]
fn last_match(tags: &[u64], line: u64) -> usize {
    let mut way = usize::MAX;
    for (i, &t) in tags.iter().enumerate() {
        if t == line {
            way = i;
        }
    }
    way
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
    /// Way state as parallel arrays, set-major (`set * ways + way`). A way
    /// holds the full line number (`addr >> line_shift`) of its line, or
    /// [`EMPTY`]: a line maps to one set, so the line number is as good a
    /// tag as the bits above the set index, and it needs no extraction.
    tags: Vec<u64>,
    /// LRU stamp or FIFO insertion counter of each way.
    stamps: Vec<u64>,
    /// Whether each way's line is dirty.
    dirty: Vec<bool>,
    /// Reverse index over the first `way_of.len()` line numbers
    /// ([`Cache::indexed`]): 1 + the flat index of the way holding the
    /// line, 0 when it is not resident. A lookup of an indexed line is one
    /// load instead of a set scan; lines above it are scanned. It grows
    /// to cover each line filled below `index_limit`, so it spans the
    /// lines the program used, not the whole address space.
    way_of: Vec<u16>,
    /// Line numbers below this are indexed (0 for no index).
    index_limit: u32,
    ways: usize,
    tick: u64,
    rng: u32,
    /// `log2(line_size)` — the line size is asserted to be a power of two.
    line_shift: u32,
    /// Set count, cached so the hot lookup path never re-derives it.
    num_sets: u32,
    /// `num_sets - 1` when the set count is a power of two (the common
    /// case: the set index is a mask), `u32::MAX` otherwise.
    set_mask: u32,
    /// Most-recently-used memo: the line number of the last line that
    /// hit, or [`NO_LINE`]. While set, that line is resident in flat way
    /// `mru_way`, so a repeat access skips the set scan and does exactly
    /// what a scanned hit does. Every fill and flush clears it (a fill may
    /// evict the memoized line).
    mru_line: u64,
    /// Flat index of the way holding `mru_line`.
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
        let slots = (num_sets * geom.ways) as usize;
        Cache {
            geom,
            tags: vec![EMPTY; slots],
            stamps: vec![0; slots],
            dirty: vec![false; slots],
            way_of: Vec::new(),
            index_limit: 0,
            ways: geom.ways as usize,
            tick: 0,
            rng: 0x2545_f491,
            line_shift: geom.line_size.trailing_zeros(),
            num_sets,
            set_mask: if num_sets.is_power_of_two() {
                num_sets - 1
            } else {
                u32::MAX
            },
            mru_line: NO_LINE,
            mru_way: 0,
            gen: 0,
            hits: 0,
            misses: 0,
            writebacks: 0,
        }
    }

    /// [`Cache::new`] with a reverse index of the ways over the lines of
    /// the first `span` bytes of the address space (the simulated RAM).
    /// It behaves exactly like [`Cache::new`]; lookups of those lines
    /// just skip the set scan. The index takes two bytes per line up to
    /// the highest line filled so far.
    #[must_use]
    pub fn indexed(geom: CacheGeometry, span: u32) -> Self {
        let mut c = Cache::new(geom);
        // Ways are stored plus one in a u16.
        if c.tags.len() < usize::from(u16::MAX) {
            c.index_limit = span.div_ceil(geom.line_size);
        }
        c
    }

    /// The geometry this cache was built with.
    #[must_use]
    pub fn geometry(&self) -> &CacheGeometry {
        &self.geom
    }

    /// The base address of the line containing `addr`.
    #[must_use]
    #[inline(always)]
    pub fn line_of(&self, addr: u32) -> u32 {
        addr & !(self.geom.line_size - 1)
    }

    /// The flat index of the first way of the set holding line number
    /// `line`.
    #[inline(always)]
    fn set_base(&self, line: u32) -> usize {
        let set = if self.set_mask == u32::MAX {
            self.set_of_slow(line)
        } else {
            line & self.set_mask
        };
        set as usize * self.ways
    }

    #[cold]
    #[inline(never)]
    fn set_of_slow(&self, line: u32) -> u32 {
        line % self.num_sets
    }

    /// The flat index of the way holding line number `line`: from the
    /// reverse index when it covers the line, else by a scan of its set.
    #[inline(always)]
    fn find(&self, line: u32) -> Option<usize> {
        match self.way_of.get(line as usize) {
            Some(&0) => None,
            Some(&way) => Some(usize::from(way - 1)),
            None => self.scan_set(line),
        }
    }

    /// [`Cache::find`] by a scan of the set.
    #[inline(always)]
    fn scan_set(&self, line: u32) -> Option<usize> {
        let base = self.set_base(line);
        let tags = &self.tags[base..base + self.ways];
        let line = u64::from(line);
        // Fixed-width scans for the common associativities.
        let way = match self.ways {
            4 => last_match(&tags[..4], line),
            1 => last_match(&tags[..1], line),
            2 => last_match(&tags[..2], line),
            8 => last_match(&tags[..8], line),
            _ => last_match(tags, line),
        };
        (way != usize::MAX).then(|| base + way)
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
    #[inline(always)]
    pub fn probe(&self, addr: u32) -> bool {
        let line = addr >> self.line_shift;
        u64::from(line) == self.mru_line || self.find(line).is_some()
    }

    /// Accesses `addr`, filling on miss; `write` marks the line dirty.
    #[inline(always)]
    pub fn access(&mut self, addr: u32, write: bool) -> FillOutcome {
        self.tick += 1;
        let tick = self.tick;
        let line = addr >> self.line_shift;
        // Repeat access to the most recently used line: the same hit
        // without the set scan.
        let found = if u64::from(line) == self.mru_line {
            Some(self.mru_way)
        } else {
            self.find(line)
        };
        if let Some(i) = found {
            if self.geom.policy == ReplacementPolicy::Lru {
                self.stamps[i] = tick;
            }
            self.dirty[i] |= write;
            self.hits += 1;
            self.mru_line = u64::from(line);
            self.mru_way = i;
            return FillOutcome {
                hit: true,
                writeback: None,
            };
        }
        self.misses += 1;
        let writeback = self.fill(line, write, tick);
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
        let line = addr >> self.line_shift;
        if self.find(line).is_some() {
            return None;
        }
        self.fill(line, false, tick)
    }

    fn fill(&mut self, line: u32, write: bool, tick: u64) -> Option<u32> {
        let base = self.set_base(line);
        let ways = base..base + self.ways;
        // Victim selection. The xorshift32 state advances on every fill,
        // whatever the policy.
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 17;
        self.rng ^= self.rng << 5;
        let victim = match self.tags[ways.clone()].iter().position(|&t| t == EMPTY) {
            Some(i) => base + i,
            None => match self.geom.policy {
                // The first way with the smallest stamp.
                ReplacementPolicy::Lru | ReplacementPolicy::Fifo => {
                    let stamps = &self.stamps[ways];
                    let mut v = 0;
                    for (i, &s) in stamps.iter().enumerate() {
                        if s < stamps[v] {
                            v = i;
                        }
                    }
                    base + v
                }
                ReplacementPolicy::Random => base + (self.rng as usize) % self.ways,
            },
        };
        let old = self.tags[victim];
        let writeback = (old != EMPTY && self.dirty[victim]).then(|| {
            self.writebacks += 1;
            (old as u32) << self.line_shift
        });
        if let Some(way) = self.way_of.get_mut(old as usize) {
            *way = 0;
        }
        if line < self.index_limit {
            if line as usize >= self.way_of.len() {
                self.grow_index(line);
            }
            self.way_of[line as usize] = victim as u16 + 1;
        }
        self.tags[victim] = u64::from(line);
        self.stamps[victim] = tick;
        self.dirty[victim] = write;
        self.gen += 1;
        // The fill may have evicted the memoized line.
        self.mru_line = NO_LINE;
        writeback
    }

    /// Extends the reverse index to cover line number `line` (below
    /// `index_limit`): to at least a host page, and at least doubling it,
    /// so that growth is rare.
    #[cold]
    fn grow_index(&mut self, line: u32) {
        let len = (line as usize + 1)
            .max(2 * self.way_of.len())
            .max(4096)
            .min(self.index_limit as usize);
        self.way_of.resize(len, 0);
    }

    /// Invalidates everything (cold restart between experiments).
    pub fn flush(&mut self) {
        for &line in &self.tags {
            if let Some(way) = self.way_of.get_mut(line as usize) {
                *way = 0;
            }
        }
        self.tags.fill(EMPTY);
        self.stamps.fill(0);
        self.dirty.fill(false);
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
