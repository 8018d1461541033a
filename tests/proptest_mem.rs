//! Property tests on the memory hierarchy: functional transparency,
//! inclusion-style invariants, prefetch timing bounds, and the prefetch
//! queue against a map-based reference model.

use std::collections::HashMap;

use proptest::prelude::*;

use rvliw::mem::{Cache, CacheGeometry, MemConfig, MemorySystem, PrefetchQueue, ReplacementPolicy};

fn small_geometry() -> impl Strategy<Value = CacheGeometry> {
    (
        prop_oneof![Just(512u32), Just(1024), Just(2048)],
        prop_oneof![Just(16u32), Just(32), Just(64)],
        prop_oneof![Just(1u32), Just(2), Just(4)],
        prop_oneof![
            Just(ReplacementPolicy::Lru),
            Just(ReplacementPolicy::Fifo),
            Just(ReplacementPolicy::Random)
        ],
    )
        .prop_map(|(capacity, line_size, ways, policy)| CacheGeometry {
            capacity,
            line_size,
            ways,
            policy,
        })
        .prop_filter("at least one set", |g| g.num_sets() > 0)
}

proptest! {
    /// The cache is a *timing* model: stored data always reads back exactly,
    /// whatever the access pattern or geometry.
    #[test]
    fn memory_is_functionally_exact(
        writes in proptest::collection::vec((0u32..4096, any::<u32>()), 1..64),
        reads in proptest::collection::vec(0usize..64, 1..64),
    ) {
        let mut m = MemorySystem::new(MemConfig::default());
        let base = m.ram.alloc(4096 + 4, 32);
        let mut now = 0u64;
        for (i, &(off, v)) in writes.iter().enumerate() {
            let acc = m.write(base + off, 4, v, now).unwrap();
            now += acc.stall + 1;
            let _ = i;
        }
        // Model: last write to each address wins.
        for &ri in &reads {
            let (off, _) = writes[ri % writes.len()];
            let expect = writes
                .iter()
                .rev()
                .find(|(o, _)| {
                    // a 4-byte write at o covers off..off+4 only when equal
                    // (we only check exact-offset reads for simplicity)
                    *o == off
                })
                .map(|&(_, v)| v);
            if let Some(expect) = expect {
                // Overlapping 4-byte writes at different offsets may alias;
                // only assert when no later overlapping write exists.
                let aliased = writes
                    .iter()
                    .rev()
                    .take_while(|(o, _)| *o != off)
                    .any(|(o, _)| (*o < off + 4) && (off < *o + 4));
                if !aliased {
                    let acc = m.read(base + off, 4, now).unwrap();
                    now += acc.stall + 1;
                    prop_assert_eq!(acc.value, expect);
                }
            }
        }
    }

    /// Immediately re-accessing a line always hits.
    #[test]
    fn access_then_access_hits(geom in small_geometry(), addrs in proptest::collection::vec(0u32..8192, 1..100)) {
        let mut c = Cache::new(geom);
        for &a in &addrs {
            let _ = c.access(a, false);
            let out = c.access(a, false);
            prop_assert!(out.hit, "second access to {a:#x} must hit");
        }
    }

    /// The number of resident lines never exceeds the capacity.
    #[test]
    fn residency_bounded_by_capacity(geom in small_geometry(), addrs in proptest::collection::vec(0u32..65536, 1..200)) {
        let mut c = Cache::new(geom);
        for &a in &addrs {
            let _ = c.access(a, false);
        }
        let lines = geom.capacity / geom.line_size;
        let resident = (0..65536u32)
            .step_by(geom.line_size as usize)
            .filter(|&l| c.probe(l))
            .count();
        prop_assert!(resident as u32 <= lines, "{resident} resident > {lines}");
    }

    /// Prefetched lines arrive no earlier than the fill latency and demand
    /// accesses after arrival are free.
    #[test]
    fn prefetch_timing_bounds(offsets in proptest::collection::vec(0u32..128u32, 1..8)) {
        let mut m = MemorySystem::new(MemConfig::default());
        let base = m.ram.alloc(64 * 128, 64);
        let fill = m.config().fill_latency;
        let mut readies = Vec::new();
        for &o in &offsets {
            if let Some(t) = m.prefetch(base + o * 32, 0) {
                prop_assert!(t >= fill);
                readies.push((base + o * 32, t));
            }
        }
        for &(addr, t) in &readies {
            let acc = m.read(addr, 4, t + 1).unwrap();
            prop_assert_eq!(acc.stall, 0, "line at {:#x} ready at {}", addr, t);
        }
    }

    /// Whole-run stall accounting: total stalls equal the sum of per-access
    /// stalls.
    #[test]
    fn stall_accounting_is_additive(addrs in proptest::collection::vec(0u32..16384, 1..100)) {
        let mut m = MemorySystem::new(MemConfig::default());
        let base = m.ram.alloc(16384 + 4, 32);
        let mut now = 0u64;
        let mut total = 0u64;
        for &a in &addrs {
            let acc = m.read(base + a, 4, now).unwrap();
            total += acc.stall;
            now += acc.stall + 1;
        }
        prop_assert_eq!(m.stats().d_stall_cycles, total);
    }
}

/// Reference model of the prefetch buffer: the map from line to arrival
/// cycle the buffer was first specified as. Entries also carry their issue
/// sequence number, so a test can state the order a drain must follow;
/// the map itself defines none.
struct MapPrefetchModel {
    capacity: usize,
    pending: HashMap<u32, (u64, u64)>,
    next_seq: u64,
    issued: u64,
    dropped: u64,
    redundant: u64,
    useful: u64,
    late: u64,
}

impl MapPrefetchModel {
    fn new(capacity: usize) -> Self {
        MapPrefetchModel {
            capacity,
            pending: HashMap::new(),
            next_seq: 0,
            issued: 0,
            dropped: 0,
            redundant: 0,
            useful: 0,
            late: 0,
        }
    }

    fn insert(&mut self, line: u32, ready_at: u64) -> bool {
        if self.pending.contains_key(&line) {
            self.redundant += 1;
            return false;
        }
        if self.pending.len() >= self.capacity {
            self.dropped += 1;
            return false;
        }
        self.pending.insert(line, (ready_at, self.next_seq));
        self.next_seq += 1;
        self.issued += 1;
        true
    }

    fn pending_ready_at(&self, line: u32) -> Option<u64> {
        self.pending.get(&line).map(|&(t, _)| t)
    }

    fn consume(&mut self, line: u32, now: u64) -> Option<u64> {
        let (ready, _) = self.pending.remove(&line)?;
        if ready <= now {
            self.useful += 1;
        } else {
            self.late += 1;
        }
        Some(ready)
    }

    /// The completed fills as `(ready, seq, line)`, in no particular order.
    fn drain_completed(&mut self, now: u64) -> Vec<(u64, u64, u32)> {
        let done: Vec<(u64, u64, u32)> = self
            .pending
            .iter()
            .filter(|&(_, &(t, _))| t <= now)
            .map(|(&l, &(t, s))| (t, s, l))
            .collect();
        for &(_, _, l) in &done {
            self.pending.remove(&l);
            self.useful += 1;
        }
        done
    }

    fn counters(&self) -> [u64; 5] {
        [
            self.issued,
            self.dropped,
            self.redundant,
            self.useful,
            self.late,
        ]
    }
}

fn queue_counters(q: &PrefetchQueue) -> [u64; 5] {
    [q.issued, q.dropped, q.redundant, q.useful, q.late]
}

/// Drives a [`PrefetchQueue`] and the map model through `ops` and checks
/// every return value and counter. `(op, line, t)`: `t` advances the
/// clock; a fill requested at the clock arrives `t + 1` cycles after it,
/// or after the previous fill when `bus_serialized` (the memory bus
/// schedules fills one after another). A drain must return the completed
/// lines in arrival order, ties in issue order.
fn check_prefetch_queue(capacity: usize, ops: &[(u8, u32, u64)], bus_serialized: bool) {
    let mut q = PrefetchQueue::new(capacity);
    let mut model = MapPrefetchModel::new(capacity);
    let (mut now, mut last_ready) = (0u64, 0u64);
    for &(op, line, t) in ops {
        let line = line * 32;
        now += t % 8;
        match op {
            0 | 1 => {
                let start = if bus_serialized {
                    last_ready.max(now)
                } else {
                    now
                };
                let ready = start + 1 + t;
                let inserted = q.insert(line, ready);
                assert_eq!(inserted, model.insert(line, ready), "insert {line:#x}");
                if inserted {
                    last_ready = ready;
                }
            }
            2 => assert_eq!(
                q.consume(line, now),
                model.consume(line, now),
                "consume {line:#x}"
            ),
            3 => {
                let got: Vec<u32> = q.drain_completed(now).collect();
                let mut done = model.drain_completed(now);
                done.sort_unstable();
                let expect: Vec<u32> = done.iter().map(|&(_, _, l)| l).collect();
                assert_eq!(got, expect, "drain at {now}");
                if bus_serialized {
                    assert!(done.windows(2).all(|w| w[0].1 < w[1].1), "issue order");
                }
            }
            4 => assert_eq!(q.pending_ready_at(line), model.pending_ready_at(line)),
            _ => {
                q.flush();
                model.pending.clear();
            }
        }
        assert_eq!(queue_counters(&q), model.counters());
        assert_eq!(q.len(), model.pending.len());
        assert_eq!(q.is_empty(), model.pending.is_empty());
    }
}

fn prefetch_ops() -> impl Strategy<Value = Vec<(u8, u32, u64)>> {
    proptest::collection::vec((0u8..6, 0u32..24, 0u64..40), 1..160)
}

proptest! {
    /// The fixed-capacity prefetch queue is a drop-in for the map model:
    /// same return values and counters under bus-serialized fills, with
    /// drains in issue order.
    #[test]
    fn prefetch_queue_matches_map_model(capacity in 1usize..=64, ops in prefetch_ops()) {
        check_prefetch_queue(capacity, &ops, true);
    }

    /// Fills inserted out of arrival order (outside what the bus can
    /// schedule) still drain exactly the completed set, oldest arrival
    /// first.
    #[test]
    fn prefetch_queue_drains_out_of_order_fills_by_arrival(
        capacity in 1usize..=64,
        ops in prefetch_ops(),
    ) {
        check_prefetch_queue(capacity, &ops, false);
    }
}

#[derive(Debug, Clone, Copy)]
enum CacheOp {
    Read(u32),
    Write(u32),
    Install(u32),
    Flush,
}

/// Geometries over 1, 2, 4 and 8 ways, set counts that are and are not
/// powers of two, and all three policies.
fn memo_geometry() -> impl Strategy<Value = CacheGeometry> {
    (
        prop_oneof![
            Just(1u32),
            Just(2),
            Just(3),
            Just(4),
            Just(5),
            Just(7),
            Just(8),
            Just(16)
        ],
        prop_oneof![Just(16u32), Just(32), Just(64)],
        prop_oneof![Just(1u32), Just(2), Just(4), Just(8)],
        prop_oneof![
            Just(ReplacementPolicy::Lru),
            Just(ReplacementPolicy::Fifo),
            Just(ReplacementPolicy::Random)
        ],
    )
        .prop_map(|(sets, line_size, ways, policy)| CacheGeometry {
            capacity: sets * line_size * ways,
            line_size,
            ways,
            policy,
        })
}

/// Raw operations: a kind selector, a line number and a byte offset, which
/// [`check_cache_against_reference`] folds into four times the cache's
/// lines.
fn cache_ops() -> impl Strategy<Value = Vec<(u8, u32, u32)>> {
    proptest::collection::vec((0u8..16, 0u32..1024, any::<u32>()), 1..300)
}

fn check_cache_against_reference(geom: CacheGeometry, raw: &[(u8, u32, u32)]) {
    let mut new = Cache::new(geom);
    let mut old = reference::RefCache::new(geom);
    let probe_span = geom.num_sets() * geom.ways * 4;
    let mut prev = None;
    for (step, &(k, line, off)) in raw.iter().enumerate() {
        let a = (line % probe_span) * geom.line_size + off % geom.line_size;
        let op = match k {
            0..=7 => CacheOp::Read(a),
            8..=12 => CacheOp::Write(a),
            13..=14 => CacheOp::Install(a),
            _ => CacheOp::Flush,
        };
        // Half the time, repeat the previous address's line first so the
        // memo is exercised on reads, writes and after fills.
        let op = match (op, prev) {
            (CacheOp::Read(a), Some(p)) if a % 2 == 0 => CacheOp::Read(p),
            (CacheOp::Write(a), Some(p)) if a % 2 == 0 => CacheOp::Write(p),
            _ => op,
        };
        let gen_before = (new.contents_gen(), old.contents_gen());
        match op {
            CacheOp::Read(a) | CacheOp::Write(a) => {
                let w = matches!(op, CacheOp::Write(_));
                assert_eq!(new.access(a, w), old.access(a, w), "step {step}: {op:?}");
                prev = Some(a);
            }
            CacheOp::Install(a) => {
                assert_eq!(new.install(a), old.install(a), "step {step}: {op:?}");
            }
            CacheOp::Flush => {
                new.flush();
                old.flush();
            }
        }
        assert_eq!(
            (new.hits, new.misses, new.writebacks),
            (old.hits, old.misses, old.writebacks),
            "step {step}: {op:?} counters"
        );
        assert_eq!(
            new.contents_gen() - gen_before.0,
            old.contents_gen() - gen_before.1,
            "step {step}: {op:?} contents_gen movement"
        );
        for line in 0..probe_span {
            let a = line * geom.line_size;
            assert_eq!(
                new.probe(a),
                old.probe(a),
                "step {step}: {op:?} probe {a:#x}"
            );
        }
    }
}

proptest! {
    /// The most-recently-used memo in `Cache::access` changes only how a
    /// hit is found: every outcome, counter, eviction (through `probe`)
    /// and `contents_gen` step equals the pre-memo cache's.
    #[test]
    fn cache_matches_the_pre_memo_model(geom in memo_geometry(), ops in cache_ops()) {
        check_cache_against_reference(geom, &ops);
    }
}

/// The pre-memo `Cache`, copied verbatim (only renamed) as the reference
/// model for the most-recently-used memo in today's `Cache::access`.
mod reference {
    use rvliw::mem::cache::FillOutcome;
    use rvliw::mem::{CacheGeometry, ReplacementPolicy};

    #[derive(Debug, Clone, Copy, Default)]
    struct Way {
        valid: bool,
        dirty: bool,
        tag: u32,
        /// LRU stamp or FIFO insertion counter.
        stamp: u64,
    }

    /// `Cache` as it was before the most-recently-used memo: the reference
    /// model of [`cache_matches_the_pre_memo_model`].
    #[derive(Clone)]
    pub struct RefCache {
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
        /// Direct-mapped fast path: the line index of a known-resident line
        /// (`u32::MAX` = none). With one way, a repeat read of this line is a
        /// guaranteed hit and skips the lookup entirely; any fill resets the
        /// memo. Only consulted when `ways == 1`, where LRU stamps cannot
        /// influence victim selection.
        last_line: u32,
        /// Bumped whenever the set of resident lines can shrink (any fill or
        /// flush). While this is unchanged, every line observed resident is
        /// still resident — the basis for [`RefCache::contents_gen`] memos.
        gen: u64,
        /// Lookup/fill counters.
        pub hits: u64,
        /// Demand misses (fills).
        pub misses: u64,
        /// Dirty evictions.
        pub writebacks: u64,
    }

    #[allow(dead_code)]
    impl RefCache {
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
            RefCache {
                geom,
                sets: vec![Way::default(); (num_sets * geom.ways) as usize],
                tick: 0,
                rng: 0x2545_f491,
                line_shift: geom.line_size.trailing_zeros(),
                num_sets,
                sets_shift: num_sets
                    .is_power_of_two()
                    .then(|| num_sets.trailing_zeros()),
                last_line: u32::MAX,
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
        /// victim selection). The bookkeeping is exactly what
        /// [`RefCache::access`]'s resident-line fast path performs, so counters
        /// stay bit-identical to issuing the access.
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

        /// [`RefCache::note_repeat_hit`], `n` accesses at once. The same validity
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
            // Direct-mapped repeat read of a known-resident line: a guaranteed
            // hit. Skipping the stamp update is safe with a single way (the
            // victim choice never consults stamps), and the dirty bit only
            // changes on writes, which take the slow path.
            if !write && self.geom.ways == 1 && (addr >> self.line_shift) == self.last_line {
                self.tick += 1;
                self.hits += 1;
                return FillOutcome {
                    hit: true,
                    writeback: None,
                };
            }
            self.tick += 1;
            let tick = self.tick;
            let set = self.set_index(addr);
            let tag = self.tag_of(addr);
            let policy = self.geom.policy;
            let ways = self.geom.ways;
            // Fast path: hit.
            if let Some(way) = self
                .set_ways(set)
                .iter_mut()
                .find(|w| w.valid && w.tag == tag)
            {
                if policy == ReplacementPolicy::Lru {
                    way.stamp = tick;
                }
                way.dirty |= write;
                self.hits += 1;
                if ways == 1 {
                    self.last_line = addr >> self.line_shift;
                }
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
            // A fill may have evicted the memoized line; repoint the memo at
            // the line that is now certainly resident.
            self.last_line = if self.geom.ways == 1 {
                addr >> self.line_shift
            } else {
                u32::MAX
            };
            writeback
        }

        /// Invalidates everything (cold restart between experiments).
        pub fn flush(&mut self) {
            for w in &mut self.sets {
                *w = Way::default();
            }
            self.tick = 0;
            self.last_line = u32::MAX;
            self.gen += 1;
        }
    }
}
