//! The combined memory system: RAM + caches + prefetch buffer + bus.

use std::fmt;

use crate::cache::Cache;
use crate::config::MemConfig;
use crate::prefetch::PrefetchQueue;
use crate::ram::Ram;
use crate::stats::MemStats;
use rvliw_fault::FaultInjector;
use rvliw_trace::{FaultEvent, MemEvent, NullTracer, Tracer};

/// A rejected memory access. These are *simulated-program* errors — the
/// memory system reports them instead of unwinding so a bad scenario can
/// fail in isolation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemError {
    /// Access size was not 1, 2 or 4 bytes.
    UnsupportedSize {
        /// The rejected size.
        size: u32,
    },
    /// The access extends past the end of simulated memory.
    OutOfRange {
        /// Base byte address of the access.
        addr: u32,
        /// Access size in bytes.
        size: u32,
    },
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemError::UnsupportedSize { size } => {
                write!(f, "unsupported access size {size} (expected 1, 2 or 4)")
            }
            MemError::OutOfRange { addr, size } => {
                write!(
                    f,
                    "access of {size} byte(s) at {addr:#x} is outside simulated memory"
                )
            }
        }
    }
}

impl std::error::Error for MemError {}

/// Result of a timed data access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// The loaded value (zero-extended into 32 bits; undefined for writes).
    pub value: u32,
    /// Machine stall cycles this access caused.
    pub stall: u64,
    /// Whether the access hit in the data cache outright.
    pub hit: bool,
}

/// The memory hierarchy as seen by the core and the RFU.
///
/// Functional state (bytes) always lives in [`Ram`]; the caches model
/// *timing only*, so simulation results are functionally exact regardless of
/// cache configuration.
///
/// Timing model: a single memory bus serves line fills (demand and prefetch)
/// in order. A fill occupies the bus for [`MemConfig::bus_occupancy`] cycles
/// and delivers its line [`MemConfig::fill_latency`] cycles after it starts;
/// on a demand miss the whole machine stalls until delivery, as in the
/// paper.
#[derive(Debug)]
pub struct MemorySystem {
    /// Main memory (functional state).
    pub ram: Ram,
    /// The data cache (timing state).
    pub dcache: Cache,
    /// The instruction cache (timing state).
    pub icache: Cache,
    /// The prefetch buffer.
    pub pfq: PrefetchQueue,
    cfg: MemConfig,
    bus_free_at: u64,
    stats: MemStats,
    fault: FaultInjector,
}

impl MemorySystem {
    /// Creates a cold memory system.
    #[must_use]
    pub fn new(cfg: MemConfig) -> Self {
        MemorySystem {
            ram: Ram::new(cfg.ram_size),
            dcache: Cache::new(cfg.dcache),
            icache: Cache::new(cfg.icache),
            pfq: PrefetchQueue::new(cfg.prefetch_entries),
            cfg,
            bus_free_at: 0,
            stats: MemStats::default(),
            fault: FaultInjector::inert(),
        }
    }

    /// Installs a fault injector; the default is the inert injector,
    /// under which the timing model is bit-identical to a build without
    /// the fault layer.
    pub fn set_fault(&mut self, fault: FaultInjector) {
        self.fault = fault;
    }

    /// The configuration in effect.
    #[must_use]
    pub fn config(&self) -> &MemConfig {
        &self.cfg
    }

    /// A snapshot of the counters (cache/prefetch counters folded in).
    #[must_use]
    pub fn stats(&self) -> MemStats {
        let mut s = self.stats;
        s.writebacks = self.dcache.writebacks;
        s.pf_issued = self.pfq.issued;
        s.pf_dropped = self.pfq.dropped;
        s.pf_redundant = self.pfq.redundant;
        s.pf_useful = self.pfq.useful;
        s.pf_late = self.pfq.late;
        s
    }

    /// First cycle at which the bus can accept a new fill.
    #[must_use]
    pub fn bus_free_at(&self) -> u64 {
        self.bus_free_at
    }

    /// Installs the prefetches completed by `now`. Every demand access
    /// drains, and nothing is in flight outside the loop-level scenarios,
    /// so the empty check is inlined into each access and the drain is not.
    #[inline(always)]
    fn drain_prefetches<T: Tracer + ?Sized>(&mut self, now: u64, tracer: &mut T) {
        if !self.pfq.is_empty() {
            self.drain_completed(now, tracer);
        }
    }

    fn drain_completed<T: Tracer + ?Sized>(&mut self, now: u64, tracer: &mut T) {
        for line in self.pfq.drain_completed(now) {
            if self.dcache.install(line).is_some() {
                // Dirty eviction on drain: the writeback occupies the bus.
                self.bus_free_at = self.bus_free_at.max(now) + self.cfg.writeback_occupancy;
                tracer.mem(now, MemEvent::Writeback);
            }
        }
    }

    /// Schedules a line fill on the bus; returns the delivery cycle.
    fn schedule_fill(&mut self, now: u64) -> u64 {
        let start = self.bus_free_at.max(now);
        self.bus_free_at = start + self.cfg.bus_occupancy;
        start + self.cfg.fill_latency
    }

    /// Core of the timing model, shared by loads and stores, plus the
    /// fault-injection envelope (a spurious flush may hit before the
    /// access, latency jitter after it). Under the inert injector the
    /// envelope reduces to one never-taken branch.
    #[inline(always)]
    fn access_timed<T: Tracer + ?Sized>(
        &mut self,
        addr: u32,
        now: u64,
        write: bool,
        tracer: &mut T,
    ) -> (u64, bool) {
        if !self.fault.is_inert() {
            if self.fault.spurious_flush() {
                self.flush_caches();
                tracer.fault(now, FaultEvent::CacheFlush);
            }
            let (mut stall, hit) = self.access_timed_inner(addr, now, write, tracer);
            let extra = self.fault.extra_mem_latency();
            if extra > 0 {
                stall += extra;
                self.stats.d_stall_cycles += extra;
                tracer.fault(now, FaultEvent::MemLatency { addr, extra });
            }
            return (stall, hit);
        }
        self.access_timed_inner(addr, now, write, tracer)
    }

    #[inline(always)]
    fn access_timed_inner<T: Tracer + ?Sized>(
        &mut self,
        addr: u32,
        now: u64,
        write: bool,
        tracer: &mut T,
    ) -> (u64, bool) {
        self.drain_prefetches(now, tracer);
        let line = self.dcache.line_of(addr);
        // A line still in flight from a prefetch: wait for it.
        if let Some(ready) = self.pfq.consume(line, now) {
            if self.dcache.install(line).is_some() {
                self.bus_free_at = self.bus_free_at.max(now) + self.cfg.writeback_occupancy;
                tracer.mem(now, MemEvent::Writeback);
            }
            // Mark hit/dirty state via a (now free) access.
            let _ = self.dcache.access(addr, write);
            let stall = ready.saturating_sub(now);
            self.stats.d_late_covered += 1;
            self.stats.d_stall_cycles += stall;
            tracer.mem(now, MemEvent::DLateCovered { addr, stall });
            return (stall, false);
        }
        let out = self.dcache.access(addr, write);
        if out.hit {
            self.stats.d_hits += 1;
            tracer.mem(now, MemEvent::DHit { addr });
            (0, true)
        } else {
            self.stats.d_misses += 1;
            if out.writeback.is_some() {
                self.bus_free_at = self.bus_free_at.max(now) + self.cfg.writeback_occupancy;
                tracer.mem(now, MemEvent::Writeback);
            }
            let ready = self.schedule_fill(now);
            let stall = ready - now;
            self.stats.d_stall_cycles += stall;
            tracer.mem(now, MemEvent::DMiss { addr, stall });
            (stall, false)
        }
    }

    /// Rejects accesses the hardware could never perform, *before* any
    /// timing state is touched: a rejected access perturbs no counters.
    #[inline(always)]
    fn check_access(&self, addr: u32, size: u32) -> Result<(), MemError> {
        if !matches!(size, 1 | 2 | 4) {
            return Err(MemError::UnsupportedSize { size });
        }
        if u64::from(addr) + u64::from(size) > u64::from(self.ram.size()) {
            return Err(MemError::OutOfRange { addr, size });
        }
        Ok(())
    }

    /// Timed load of `size` ∈ {1, 2, 4} bytes at `addr`, `now` being the
    /// current machine cycle.
    ///
    /// # Errors
    ///
    /// Returns [`MemError`] on an unsupported size or an out-of-range
    /// address; the timing state is untouched in that case.
    #[inline(always)]
    pub fn read(&mut self, addr: u32, size: u32, now: u64) -> Result<Access, MemError> {
        self.read_traced(addr, size, now, &mut NullTracer)
    }

    /// [`MemorySystem::read`], emitting cache events into `tracer`.
    ///
    /// # Errors
    ///
    /// Returns [`MemError`] on an unsupported size or an out-of-range
    /// address; the timing state is untouched in that case.
    #[inline(always)]
    pub fn read_traced<T: Tracer + ?Sized>(
        &mut self,
        addr: u32,
        size: u32,
        now: u64,
        tracer: &mut T,
    ) -> Result<Access, MemError> {
        self.check_access(addr, size)?;
        self.stats.loads += 1;
        let (stall, hit) = self.access_timed(addr, now, false, tracer);
        let value = match size {
            1 => u32::from(self.ram.load8(addr)),
            2 => u32::from(self.ram.load16(addr)),
            _ => self.ram.load32(addr),
        };
        Ok(Access { value, stall, hit })
    }

    /// Timed store (write-allocate): the line is fetched on a miss.
    ///
    /// # Errors
    ///
    /// Returns [`MemError`] on an unsupported size or an out-of-range
    /// address; the timing state is untouched in that case.
    #[inline(always)]
    pub fn write(
        &mut self,
        addr: u32,
        size: u32,
        value: u32,
        now: u64,
    ) -> Result<Access, MemError> {
        self.write_traced(addr, size, value, now, &mut NullTracer)
    }

    /// [`MemorySystem::write`], emitting cache events into `tracer`.
    ///
    /// # Errors
    ///
    /// Returns [`MemError`] on an unsupported size or an out-of-range
    /// address; the timing state is untouched in that case.
    #[inline(always)]
    pub fn write_traced<T: Tracer + ?Sized>(
        &mut self,
        addr: u32,
        size: u32,
        value: u32,
        now: u64,
        tracer: &mut T,
    ) -> Result<Access, MemError> {
        self.check_access(addr, size)?;
        self.stats.stores += 1;
        let (stall, hit) = self.access_timed(addr, now, true, tracer);
        match size {
            1 => self.ram.store8(addr, value as u8),
            2 => self.ram.store16(addr, value as u16),
            _ => self.ram.store32(addr, value),
        }
        Ok(Access { value, stall, hit })
    }

    /// Non-blocking prefetch of the line containing `addr`. Returns the
    /// cycle the line will be available, or `None` when the request was
    /// redundant or dropped.
    pub fn prefetch(&mut self, addr: u32, now: u64) -> Option<u64> {
        self.prefetch_traced(addr, now, &mut NullTracer)
    }

    /// [`MemorySystem::prefetch`], emitting prefetch events into `tracer`.
    pub fn prefetch_traced<T: Tracer + ?Sized>(
        &mut self,
        addr: u32,
        now: u64,
        tracer: &mut T,
    ) -> Option<u64> {
        self.drain_prefetches(now, tracer);
        let line = self.dcache.line_of(addr);
        if self.dcache.probe(line) || self.pfq.pending_ready_at(line).is_some() {
            self.pfq.redundant += 1;
            tracer.mem(now, MemEvent::PrefetchRedundant { line });
            return None;
        }
        if self.pfq.is_full() {
            self.pfq.dropped += 1;
            tracer.mem(now, MemEvent::PrefetchDropped { line });
            return None;
        }
        let ready = self.schedule_fill(now);
        self.pfq.push(line, ready);
        tracer.mem(
            now,
            MemEvent::PrefetchIssued {
                line,
                ready_at: ready,
            },
        );
        Some(ready)
    }

    /// Instruction fetch for the bundle at byte address `addr`; returns
    /// stall cycles (0 on a hit).
    #[inline]
    pub fn ifetch(&mut self, addr: u32, now: u64) -> u64 {
        self.ifetch_traced(addr, now, &mut NullTracer)
    }

    /// [`MemorySystem::ifetch`], emitting icache-miss events into `tracer`.
    #[inline]
    pub fn ifetch_traced<T: Tracer + ?Sized>(
        &mut self,
        addr: u32,
        now: u64,
        tracer: &mut T,
    ) -> u64 {
        let out = self.icache.access(addr, false);
        if out.hit {
            0
        } else {
            self.stats.i_misses += 1;
            let stall = self.cfg.fill_latency;
            self.stats.i_stall_cycles += stall;
            tracer.mem(now, MemEvent::IMiss { addr, stall });
            stall
        }
    }

    /// Accounts stall cycles caused by waiting on memory outside the
    /// load/store path (e.g. the RFU waiting on an in-flight line-buffer
    /// fill). They are part of the paper's "cache stalls".
    pub fn account_stall(&mut self, cycles: u64) {
        self.stats.d_stall_cycles += cycles;
    }

    /// Invalidates both caches and the prefetch buffer (statistics kept).
    pub fn flush_caches(&mut self) {
        self.dcache.flush();
        self.icache.flush();
        self.pfq.flush();
        self.bus_free_at = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys() -> MemorySystem {
        MemorySystem::new(MemConfig::default())
    }

    #[test]
    fn cold_miss_costs_fill_latency() {
        let mut m = sys();
        let a = m.ram.alloc(64, 64);
        let acc = m.read(a, 4, 0).unwrap();
        assert_eq!(acc.stall, m.config().fill_latency);
        assert!(!acc.hit);
        let acc2 = m.read(a + 4, 4, 100).unwrap();
        assert_eq!(acc2.stall, 0);
        assert!(acc2.hit);
    }

    #[test]
    fn functional_value_correct_even_on_miss() {
        let mut m = sys();
        let a = m.ram.alloc(64, 64);
        m.ram.store32(a + 8, 1234);
        assert_eq!(m.read(a + 8, 4, 0).unwrap().value, 1234);
    }

    #[test]
    fn prefetch_hides_latency_when_early() {
        let mut m = sys();
        let a = m.ram.alloc(256, 64);
        let ready = m.prefetch(a, 0).unwrap();
        assert_eq!(ready, m.config().fill_latency);
        // Access long after arrival: free.
        let acc = m.read(a, 4, ready + 10).unwrap();
        assert_eq!(acc.stall, 0);
        let s = m.stats();
        assert_eq!(s.pf_useful, 1);
        assert_eq!(s.d_misses, 0);
    }

    #[test]
    fn late_prefetch_pays_partial_stall() {
        let mut m = sys();
        let a = m.ram.alloc(256, 64);
        let ready = m.prefetch(a, 0).unwrap();
        // Access halfway through the fill.
        let now = ready - 10;
        let acc = m.read(a, 4, now).unwrap();
        assert_eq!(acc.stall, 10);
        let s = m.stats();
        assert_eq!(s.pf_late, 1);
        assert_eq!(s.d_late_covered, 1);
    }

    #[test]
    fn bus_serializes_fills() {
        let mut m = sys();
        let a = m.ram.alloc(1024, 64);
        let r1 = m.prefetch(a, 0).unwrap();
        let r2 = m.prefetch(a + 64, 0).unwrap();
        assert_eq!(r2 - r1, m.config().bus_occupancy);
    }

    #[test]
    fn redundant_prefetch_of_cached_line() {
        let mut m = sys();
        let a = m.ram.alloc(64, 64);
        let _ = m.read(a, 4, 0).unwrap();
        assert!(m.prefetch(a, 10).is_none());
        assert_eq!(m.stats().pf_redundant, 1);
    }

    #[test]
    fn prefetch_buffer_capacity_drops() {
        let mut m = sys();
        let a = m.ram.alloc(64 * 64, 64);
        let mut dropped = 0;
        for i in 0..10u32 {
            if m.prefetch(a + i * 64, 0).is_none() {
                dropped += 1;
            }
        }
        // 8-entry buffer: two of ten dropped.
        assert_eq!(dropped, 2);
        assert_eq!(m.stats().pf_dropped, 2);
    }

    #[test]
    fn write_allocates_and_store_is_visible() {
        let mut m = sys();
        let a = m.ram.alloc(64, 64);
        let w = m.write(a, 4, 777, 0).unwrap();
        assert!(!w.hit);
        assert_eq!(m.read(a, 4, 50).unwrap().value, 777);
    }

    #[test]
    fn ifetch_miss_then_hit() {
        let mut m = sys();
        assert!(m.ifetch(0x1000, 0) > 0);
        assert_eq!(m.ifetch(0x1000, 1), 0);
        assert_eq!(m.stats().i_misses, 1);
    }

    #[test]
    fn stall_cycles_accumulate() {
        let mut m = sys();
        let a = m.ram.alloc(4096, 64);
        let mut now = 0;
        for i in 0..4u32 {
            let acc = m.read(a + i * 64, 4, now).unwrap();
            now += acc.stall + 1;
        }
        assert_eq!(m.stats().d_misses, 4);
        assert!(m.stats().d_stall_cycles >= 4 * m.config().fill_latency);
    }
}
