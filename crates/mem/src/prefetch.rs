//! The prefetch buffer: in-flight non-blocking line fills.
//!
//! The modelled ST200 data cache has an 8-entry prefetch buffer; the paper
//! extends it to 64 entries for the loop-level RFU experiments so that the
//! custom macroblock-pattern prefetches (17 lines per macroblock plus
//! crossings, double-buffered) fit.
//!
//! The buffer is a fixed-capacity ring queue kept in arrival order. Fills are
//! serialized on the memory bus ([`crate::MemorySystem`] schedules them one
//! after another), so a fill issued later never arrives earlier: arrival
//! order *is* issue order, every insert appends at the back, and the fills
//! completed by a given cycle are always a prefix of the queue. Whether
//! anything has completed is therefore one comparison against the front,
//! and draining hands the lines back oldest first — the order in which the
//! cache installs them.

use std::collections::VecDeque;

/// Outcome of a prefetch request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrefetchOutcome {
    /// The fill was scheduled; the line arrives at the returned cycle.
    Scheduled {
        /// Absolute cycle at which the line is available.
        ready_at: u64,
    },
    /// The line is already cached or already in flight.
    Redundant,
    /// The buffer was full; the request was dropped (counted as an
    /// incomplete prefetch in the paper's terms).
    Dropped,
}

/// Entries reserved when the queue is built: the loop-level buffer depth.
/// Deeper buffers (design-space points) grow once, on first use.
const RESERVED_ENTRIES: usize = 64;

/// Buckets of the membership filter (a power of two).
const FILTER_BUCKETS: usize = 256;

/// Tracks outstanding prefetched lines and their arrival times.
///
/// ```
/// use rvliw_mem::PrefetchQueue;
///
/// let mut q = PrefetchQueue::new(8);
/// q.insert(0x1000, 24); // line arrives at cycle 24
/// assert_eq!(q.pending_ready_at(0x1000), Some(24));
/// assert_eq!(q.consume(0x1000, 30), Some(24)); // consumed after arrival
/// assert_eq!(q.useful, 1);
/// ```
#[derive(Debug, Clone)]
pub struct PrefetchQueue {
    capacity: usize,
    /// Line addresses in flight, oldest arrival first.
    lines: VecDeque<u32>,
    /// Arrival cycle of each entry of `lines`; non-decreasing.
    ready: VecDeque<u64>,
    /// Entries of `lines` per [`PrefetchQueue::filter_bucket`]. A count
    /// never exceeds `lines.len()`, so a `usize` holds any capacity.
    filter: Box<[usize; FILTER_BUCKETS]>,
    /// Requests accepted into the buffer.
    pub issued: u64,
    /// Requests rejected because the buffer was full.
    pub dropped: u64,
    /// Requests for lines already present or in flight.
    pub redundant: u64,
    /// Demand accesses fully covered by a completed prefetch.
    pub useful: u64,
    /// Demand accesses that had to wait for an in-flight prefetch
    /// ("late" prefetches).
    pub late: u64,
}

impl PrefetchQueue {
    /// Creates a queue holding at most `capacity` in-flight lines.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        let reserve = capacity.min(RESERVED_ENTRIES);
        PrefetchQueue {
            capacity,
            lines: VecDeque::with_capacity(reserve),
            ready: VecDeque::with_capacity(reserve),
            filter: Box::new([0; FILTER_BUCKETS]),
            issued: 0,
            dropped: 0,
            redundant: 0,
            useful: 0,
            late: 0,
        }
    }

    /// The configured capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of lines currently in flight or waiting to drain.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lines.len()
    }

    /// Whether no prefetches are outstanding.
    #[must_use]
    #[inline(always)]
    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }

    /// Whether the buffer has no room for another fill.
    #[must_use]
    #[inline]
    pub(crate) fn is_full(&self) -> bool {
        self.lines.len() >= self.capacity
    }

    /// The membership-filter bucket of `line`: a Fibonacci hash of the
    /// line address, whose top bits mix every address bit. Public so that
    /// tests can build line sets that collide.
    #[must_use]
    #[inline(always)]
    pub fn filter_bucket(line: u32) -> usize {
        (line.wrapping_mul(0x9e37_79b9) >> (32 - FILTER_BUCKETS.trailing_zeros())) as usize
    }

    /// The arrival cycle of the oldest fill, `u64::MAX` when none is in
    /// flight: something has completed by `now` exactly when this is at
    /// most `now`.
    #[must_use]
    #[inline(always)]
    pub fn next_arrival(&self) -> u64 {
        self.ready.front().copied().unwrap_or(u64::MAX)
    }

    #[inline(always)]
    fn position(&self, line: u32) -> Option<usize> {
        if self.filter[Self::filter_bucket(line)] == 0 {
            return None;
        }
        self.lines.iter().position(|&l| l == line)
    }

    /// Records a scheduled fill for `line` arriving at `ready_at`.
    /// Returns `false` (and counts a redundant request) when `line` is
    /// already in flight, or (counting a drop) when the buffer is full.
    pub fn insert(&mut self, line: u32, ready_at: u64) -> bool {
        if self.position(line).is_some() {
            self.redundant += 1;
            return false;
        }
        if self.is_full() {
            self.dropped += 1;
            return false;
        }
        self.push(line, ready_at);
        true
    }

    /// Appends a fill the caller has already checked is neither in flight
    /// nor over capacity. A bus-serialized fill arrives no earlier than
    /// every fill before it, so this is an append; an out-of-order
    /// arrival is placed after every entry arriving no later than it.
    #[inline]
    pub(crate) fn push(&mut self, line: u32, ready_at: u64) {
        debug_assert!(self.position(line).is_none() && !self.is_full());
        let at = self.ready.partition_point(|&t| t <= ready_at);
        self.lines.insert(at, line);
        self.ready.insert(at, ready_at);
        self.filter[Self::filter_bucket(line)] += 1;
        self.issued += 1;
    }

    /// Whether `line` is in flight, and when it arrives.
    #[must_use]
    #[inline(always)]
    pub fn pending_ready_at(&self, line: u32) -> Option<u64> {
        self.position(line).map(|i| self.ready[i])
    }

    /// Removes `line` (a demand access consumed it). Updates the
    /// useful/late statistics against `now`.
    #[inline(always)]
    pub fn consume(&mut self, line: u32, now: u64) -> Option<u64> {
        // Every demand access probes here; the filter skips the scan for
        // a line not in flight (always so outside the loop-level
        // scenarios, where nothing is).
        let i = self.position(line)?;
        self.filter[Self::filter_bucket(line)] -= 1;
        let ready = self.ready[i];
        self.lines.remove(i);
        self.ready.remove(i);
        if ready <= now {
            self.useful += 1;
        } else {
            self.late += 1;
        }
        Some(ready)
    }

    /// Drains every fill that has completed by `now`, oldest arrival
    /// first, so the caller can install the lines in the cache. The fills
    /// leave the buffer (and count as useful) even if the iterator is
    /// dropped unconsumed.
    #[inline]
    pub fn drain_completed(&mut self, now: u64) -> impl Iterator<Item = u32> + '_ {
        let done = match self.ready.front() {
            Some(&t) if t <= now => self.ready.partition_point(|&t| t <= now),
            _ => 0,
        };
        self.useful += done as u64;
        self.ready.drain(..done);
        for &line in self.lines.range(..done) {
            self.filter[Self::filter_bucket(line)] -= 1;
        }
        self.lines.drain(..done)
    }

    /// Clears all in-flight state (statistics are kept).
    pub fn flush(&mut self) {
        self.lines.clear();
        self.ready.clear();
        self.filter.fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_limit_drops() {
        let mut q = PrefetchQueue::new(2);
        assert!(q.insert(0, 10));
        assert!(q.insert(64, 10));
        assert!(!q.insert(128, 10));
        assert_eq!(q.dropped, 1);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn duplicate_insert_is_redundant() {
        let mut q = PrefetchQueue::new(4);
        assert!(q.insert(0, 10));
        assert!(!q.insert(0, 20));
        assert_eq!(q.redundant, 1);
        assert_eq!(q.pending_ready_at(0), Some(10));
    }

    #[test]
    fn consume_classifies_useful_vs_late() {
        let mut q = PrefetchQueue::new(4);
        q.insert(0, 10);
        q.insert(64, 100);
        assert_eq!(q.consume(0, 50), Some(10));
        assert_eq!(q.consume(64, 50), Some(100));
        assert_eq!(q.useful, 1);
        assert_eq!(q.late, 1);
        assert_eq!(q.consume(128, 50), None);
    }

    #[test]
    fn drain_is_in_arrival_order() {
        let mut q = PrefetchQueue::new(8);
        q.insert(0x40, 30);
        q.insert(0x80, 10); // issued later, arrives earlier
        q.insert(0xc0, 30);
        q.insert(0x100, 50);
        assert_eq!(
            q.drain_completed(40).collect::<Vec<_>>(),
            vec![0x80, 0x40, 0xc0]
        );
        assert_eq!(q.pending_ready_at(0x100), Some(50));
        assert_eq!((q.useful, q.len()), (3, 1));
    }

    #[test]
    fn drain_completed_returns_only_done() {
        let mut q = PrefetchQueue::new(4);
        q.insert(0, 10);
        q.insert(64, 100);
        assert!(q.drain_completed(5).next().is_none());
        assert_eq!(q.drain_completed(50).collect::<Vec<_>>(), vec![0]);
        assert_eq!(q.len(), 1);
        assert_eq!(q.useful, 1);
    }
}
