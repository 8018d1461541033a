//! The RFU's local storage: Line Buffer A and Line Buffer B.
//!
//! The paper motivates a small amount of local memory ("a form of level-0
//! cache") to decouple the reference macroblock from the data cache and to
//! exploit the overlap between consecutive candidate predictor macroblocks.
//!
//! Both buffers live in storage sized when they are built; the kernel loop
//! and the macroblock prefetches never allocate. Line Buffer B stores each
//! bank's tags contiguously and finds a line with one short scan per bank,
//! starting just past the previous match because prefetches and the loop
//! both walk a candidate's lines in row order; a bank whose highest tag is
//! below the line is skipped without a scan. A lookup returns the first
//! match in bank order, and every entry of a tag carries the same arrival
//! cycle (a tracked line is never requested twice), so a candidate
//! prefetch decides "dedup or new request" with a single lookup per line.

use std::fmt;

use crate::MB_SIZE;

/// Line Buffer A (Figure 3): stores one 16×16-pixel reference macroblock as
/// 16 rows of 16 bytes, each guarded by a `Done` flag set when the gathering
/// prefetch for that row completes.
///
/// Size: 16×16 = 256 bytes plus 2 bytes of flags; accessed as a register
/// file of 16 row-registers with 2-cycle latency, throughput 1.
#[derive(Debug, Clone)]
pub struct LineBufferA {
    rows: [[u8; MB_SIZE]; MB_SIZE],
    /// Cycle at which each row's data is available (`u64::MAX` = not
    /// loaded; the row's `Done` flag is 0).
    ready_at: [u64; MB_SIZE],
    /// Base address of the stored reference macroblock, kept in RFU local
    /// registers after the prefetch.
    base: Option<u32>,
}

impl Default for LineBufferA {
    fn default() -> Self {
        Self::new()
    }
}

impl LineBufferA {
    /// An empty buffer (all `Done` flags clear).
    #[must_use]
    pub fn new() -> Self {
        LineBufferA {
            rows: [[0; MB_SIZE]; MB_SIZE],
            ready_at: [u64::MAX; MB_SIZE],
            base: None,
        }
    }

    /// Access latency of a row (the paper assumes 2 cycles, throughput 1).
    pub const ACCESS_LATENCY: u64 = 2;

    /// Storage size in bytes (16 rows of 16 pixels plus the flag bits).
    pub const SIZE_BYTES: usize = MB_SIZE * MB_SIZE + 2;

    /// Begins a new gather: clears all flags and records the macroblock
    /// base address.
    pub fn begin_gather(&mut self, base: u32) {
        self.ready_at = [u64::MAX; MB_SIZE];
        self.base = Some(base);
    }

    /// Stores row `r` (filled by a completed prefetch) with its arrival
    /// cycle; sets the row's `Done` flag.
    ///
    /// # Panics
    ///
    /// Panics if `r >= 16`.
    pub fn fill_row(&mut self, r: usize, data: [u8; MB_SIZE], ready_at: u64) {
        self.rows[r] = data;
        self.ready_at[r] = ready_at;
    }

    /// The base address of the gathered macroblock.
    #[must_use]
    pub fn base(&self) -> Option<u32> {
        self.base
    }

    /// Whether row `r`'s `Done` flag is set by cycle `now`.
    #[must_use]
    pub fn row_done(&self, r: usize, now: u64) -> bool {
        self.ready_at[r] <= now
    }

    /// When row `r` becomes available (`u64::MAX` when never gathered).
    #[must_use]
    pub fn row_ready_at(&self, r: usize) -> u64 {
        self.ready_at[r]
    }

    /// The 16 pixels of row `r`.
    #[must_use]
    pub fn row(&self, r: usize) -> &[u8; MB_SIZE] {
        &self.rows[r]
    }
}

impl fmt::Display for LineBufferA {
    /// Renders the Figure 3 organisation: 16 row-registers and the `Done`
    /// column.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Line Buffer A (reference macroblock)        Done")?;
        for r in 0..MB_SIZE {
            write!(f, " {r:2} |")?;
            for b in self.rows[r] {
                write!(f, "{b:02x}")?;
            }
            writeln!(f, "|  {}", if self.ready_at[r] != u64::MAX { 1 } else { 0 })?;
        }
        Ok(())
    }
}

/// Status of one Line Buffer B entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LbbStatus {
    /// The line's prefetch is in flight; data arrives at the cycle carried.
    Pending(u64),
    /// The line is resident.
    Done,
}

/// Line Buffer B (Figure 4): fully associative storage for the cache lines
/// of candidate predictor macroblocks, double buffered (the prefetch for the
/// *next* candidate fills one bank while the loop reads the current one).
///
/// Capacity: 4 × 17 cache lines — 17 rows, a potentially crossed second line
/// per row, times two banks — 2176 bytes of data plus ~24 bytes of tags and
/// flags.
///
/// Each bank keeps its tags contiguously, in allocation order, beside a
/// parallel array of arrival cycles. A tag appears at most once per bank,
/// and every entry of a tag carries the same arrival cycle. A lookup
/// returns the first match in bank order (bank 0 before bank 1).
#[derive(Debug, Clone)]
pub struct LineBufferB {
    /// Per bank: the cache-line base addresses (the tags).
    tags: [Vec<u32>; 2],
    /// Per bank: the cycle each entry of `tags` is or becomes available.
    ready_at: [Vec<u64>; 2],
    /// Bank receiving the next prefetch.
    fill_bank: usize,
    /// Per bank: where the next lookup starts, just past the last match.
    /// Prefetches and the kernel loop both walk a candidate's lines in row
    /// order, so the next line wanted is usually the next entry.
    cursor: [usize; 2],
    /// Per bank: the highest tag (0 when empty). A prefetch pushes a
    /// candidate's lines in ascending address order, so a line above it is
    /// usually new, and known absent without a scan.
    top: [u32; 2],
    per_bank_capacity: usize,
    /// Successful full-associative lookups.
    pub hits: u64,
    /// Lookups that found no entry.
    pub misses: u64,
    /// Lookups that found an in-flight entry and had to wait.
    pub late: u64,
    /// New prefetch requests avoided because the line was already pending
    /// or resident in either bank (the paper's dedup on pending requests).
    pub dedup: u64,
}

impl Default for LineBufferB {
    fn default() -> Self {
        Self::new()
    }
}

impl LineBufferB {
    /// Cache lines per bank: 17 rows × up to 2 lines each.
    pub const BANK_LINES: usize = 34;

    /// Total data bytes (4 × 17 × 32-byte cache lines = 2176 bytes,
    /// the paper's sizing).
    pub const SIZE_BYTES: usize = 4 * 17 * 32;

    /// An empty buffer with the paper's 34-lines-per-bank capacity.
    #[must_use]
    pub fn new() -> Self {
        Self::with_bank_capacity(Self::BANK_LINES)
    }

    /// An empty buffer with a custom per-bank capacity (the line-buffer
    /// sizing ablation; the paper's value is [`LineBufferB::BANK_LINES`]).
    #[must_use]
    pub fn with_bank_capacity(lines: usize) -> Self {
        // One candidate prefetch allocates at most BANK_LINES lines into a
        // bank, so larger banks never need the extra room in the loop.
        let reserve = lines.min(Self::BANK_LINES);
        LineBufferB {
            tags: [Vec::with_capacity(reserve), Vec::with_capacity(reserve)],
            ready_at: [Vec::with_capacity(reserve), Vec::with_capacity(reserve)],
            fill_bank: 0,
            cursor: [0; 2],
            top: [0; 2],
            per_bank_capacity: lines,
            hits: 0,
            misses: 0,
            late: 0,
            dedup: 0,
        }
    }

    /// Access latency of a cache line (2 cycles, throughput 1, reading the
    /// line and its potential crossing at once).
    pub const ACCESS_LATENCY: u64 = 2;

    /// Switches the fill bank (called at each candidate-macroblock
    /// prefetch: the double-buffering scheme) and clears its previous
    /// contents.
    pub fn swap_banks(&mut self) {
        self.fill_bank ^= 1;
        self.tags[self.fill_bank].clear();
        self.ready_at[self.fill_bank].clear();
        self.cursor[self.fill_bank] = 0;
        self.top[self.fill_bank] = 0;
    }

    /// Index of `line` in `bank`. A tag appears at most once per bank, so
    /// where the scan starts cannot change the answer, only its length.
    #[inline(always)]
    fn find(&self, bank: usize, line: u32) -> Option<usize> {
        let tags = &self.tags[bank];
        let start = self.cursor[bank];
        if tags.get(start) == Some(&line) {
            return Some(start);
        }
        if line > self.top[bank] {
            return None;
        }
        let start = start.min(tags.len());
        let (head, tail) = tags.split_at(start);
        match tail.iter().position(|&t| t == line) {
            Some(i) => Some(start + i),
            None => head.iter().position(|&t| t == line),
        }
    }

    /// The bank and index of the first entry for `line` in bank order.
    #[inline]
    fn locate(&self, line: u32) -> Option<(usize, usize)> {
        (0..2).find_map(|bank| self.find(bank, line).map(|i| (bank, i)))
    }

    /// Looks for `line` in either bank (full associativity). Returns when
    /// the data is or becomes available.
    #[must_use]
    #[inline]
    pub fn probe(&self, line: u32) -> Option<u64> {
        self.locate(line).map(|(bank, i)| self.ready_at[bank][i])
    }

    /// [`LineBufferB::probe`], moving the bank's cursor past the match.
    #[inline(always)]
    fn lookup(&mut self, line: u32) -> Option<u64> {
        let (bank, i) = self.locate(line)?;
        self.cursor[bank] = i + 1;
        Some(self.ready_at[bank][i])
    }

    #[inline(always)]
    fn push(&mut self, line: u32, ready_at: u64) {
        let bank = self.fill_bank;
        if self.tags[bank].len() < self.per_bank_capacity {
            self.tags[bank].push(line);
            self.ready_at[bank].push(ready_at);
            self.top[bank] = self.top[bank].max(line);
        }
    }

    /// The dedup half of [`LineBufferB::allocate`]: when `line` is already
    /// tracked in either bank, counts a dedup, makes the fill bank track it
    /// too (inheriting the earlier status, space permitting) and returns
    /// `true` — the caller must not issue a new cache request. Returns
    /// `false`, changing nothing, for an untracked line.
    #[inline]
    pub fn inherit(&mut self, line: u32) -> bool {
        if self.find(self.fill_bank, line).is_some() {
            self.dedup += 1;
            return true;
        }
        let other = self.fill_bank ^ 1;
        match self.find(other, line) {
            Some(i) => {
                self.dedup += 1;
                self.cursor[other] = i + 1;
                self.push(line, self.ready_at[other][i]);
                true
            }
            None => false,
        }
    }

    /// The request half of [`LineBufferB::allocate`]: records an untracked
    /// `line` arriving at `ready_at` into the fill bank (dropped when the
    /// bank is full).
    #[inline]
    pub fn insert(&mut self, line: u32, ready_at: u64) {
        debug_assert!(self.probe(line).is_none(), "line {line:#x} already tracked");
        self.push(line, ready_at);
    }

    /// Records `line` arriving at `ready_at` into the fill bank. If the
    /// line is already tracked in either bank, the new entry inherits the
    /// earlier status (no duplicate request — the caller must not issue a
    /// new cache request when this returns `true`).
    pub fn allocate(&mut self, line: u32, ready_at: u64) -> bool {
        if self.inherit(line) {
            return true;
        }
        self.insert(line, ready_at);
        false
    }

    /// A read of `line` at cycle `now`: returns the extra stall cycles
    /// (0 when resident, the remaining fill time when pending) or `None`
    /// when the line is absent (the caller falls back to the data cache).
    #[inline]
    pub fn read(&mut self, line: u32, now: u64) -> Option<u64> {
        match self.lookup(line) {
            Some(ready) if ready <= now => {
                self.hits += 1;
                Some(0)
            }
            Some(ready) => {
                self.late += 1;
                Some(ready - now)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Entries currently tracked across both banks.
    #[must_use]
    pub fn len(&self) -> usize {
        self.tags[0].len() + self.tags[1].len()
    }

    /// Whether no entries are tracked.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl fmt::Display for LineBufferB {
    /// Renders the Figure 4 organisation: tags with pending/done flags per
    /// bank.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Line Buffer B (candidate predictor macroblocks)")?;
        for (i, (tags, ready_at)) in self.tags.iter().zip(&self.ready_at).enumerate() {
            let role = if i == self.fill_bank {
                "filling"
            } else {
                "reading"
            };
            writeln!(f, " bank {i} ({role}): {} lines", tags.len())?;
            for (tag, &ready) in tags.iter().zip(ready_at) {
                writeln!(
                    f,
                    "   tag {tag:08x}  D={}",
                    if ready == u64::MAX { 0 } else { 1 }
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lba_done_flags_follow_time() {
        let mut lb = LineBufferA::new();
        lb.begin_gather(0x1000);
        lb.fill_row(3, [7; 16], 100);
        assert!(!lb.row_done(3, 99));
        assert!(lb.row_done(3, 100));
        assert!(!lb.row_done(4, 1_000_000));
        assert_eq!(lb.row(3)[0], 7);
        assert_eq!(lb.base(), Some(0x1000));
    }

    #[test]
    fn lba_begin_gather_clears_flags() {
        let mut lb = LineBufferA::new();
        lb.fill_row(0, [1; 16], 0);
        lb.begin_gather(0x2000);
        assert!(!lb.row_done(0, u64::MAX - 1));
    }

    #[test]
    fn lba_display_shows_done_column() {
        let mut lb = LineBufferA::new();
        lb.fill_row(0, [0xab; 16], 0);
        let s = lb.to_string();
        assert!(s.contains("Done"));
        assert!(s.lines().nth(1).unwrap().ends_with('1'));
        assert!(s.lines().nth(2).unwrap().ends_with('0'));
    }

    #[test]
    fn lbb_hit_pending_miss() {
        let mut lb = LineBufferB::new();
        assert!(!lb.allocate(0x100, 50));
        assert_eq!(lb.read(0x100, 60), Some(0)); // done
        assert_eq!(lb.read(0x100, 40), Some(10)); // pending 10 more cycles
        assert_eq!(lb.read(0x999, 40), None); // absent
        assert_eq!((lb.hits, lb.late, lb.misses), (1, 1, 1));
    }

    #[test]
    fn lbb_dedup_inherits_status() {
        let mut lb = LineBufferB::new();
        assert!(!lb.allocate(0x100, 50));
        lb.swap_banks();
        // Same line requested for the next candidate: dedup, no new request.
        assert!(lb.allocate(0x100, 999));
        assert_eq!(lb.dedup, 1);
        // Status inherited from the earlier request (ready at 50, not 999).
        assert_eq!(lb.read(0x100, 60), Some(0));
    }

    #[test]
    fn lbb_double_buffering_keeps_previous_bank() {
        let mut lb = LineBufferB::new();
        lb.allocate(0x100, 10);
        lb.swap_banks();
        lb.allocate(0x200, 20);
        // Both candidates' lines visible (full associativity across banks).
        assert!(lb.probe(0x100).is_some());
        assert!(lb.probe(0x200).is_some());
        // Swapping again clears the oldest bank.
        lb.swap_banks();
        assert!(lb.probe(0x100).is_none());
        assert!(lb.probe(0x200).is_some());
    }

    #[test]
    fn lbb_bank_capacity_is_34_lines() {
        let mut lb = LineBufferB::new();
        for i in 0..40u32 {
            lb.allocate(i * 64, 0);
        }
        assert_eq!(lb.len(), LineBufferB::BANK_LINES);
    }

    #[test]
    fn size_constants_match_paper() {
        assert_eq!(LineBufferA::SIZE_BYTES, 258);
        assert_eq!(LineBufferB::SIZE_BYTES, 2176);
    }
}
