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
