//! The [`Tracer`] trait and the two built-in sinks: [`NullTracer`]
//! (zero-cost disabled tracing) and [`CountingTracer`] (histogram-grade
//! counters).

use crate::event::{FaultEvent, MemEvent, RfuEvent, StallCause};

/// A sink for cycle-accurate simulation events.
///
/// Every hook has an empty default body, so implementors only override what
/// they observe. The simulator is *generic* over the tracer: with
/// [`NullTracer`] every hook monomorphizes to nothing and the issue loop
/// compiles exactly as it did before tracing existed — the zero-cost-when-
/// disabled contract guarded by the `sim_throughput` bench and the
/// allocation-free test.
pub trait Tracer {
    /// A bundle issued at `cycle` from bundle index `pc` with `ops`
    /// operations.
    #[inline]
    fn bundle(&mut self, cycle: u64, pc: usize, ops: usize) {
        let _ = (cycle, pc, ops);
    }

    /// The machine lost `cycles` at `cycle` while issuing bundle `pc`, for
    /// the given `cause`.
    #[inline]
    fn stall(&mut self, cycle: u64, pc: usize, cause: StallCause, cycles: u64) {
        let _ = (cycle, pc, cause, cycles);
    }

    /// A memory-hierarchy event at `cycle`.
    #[inline]
    fn mem(&mut self, cycle: u64, event: MemEvent) {
        let _ = (cycle, event);
    }

    /// An RFU event at `cycle`.
    #[inline]
    fn rfu(&mut self, cycle: u64, event: RfuEvent) {
        let _ = (cycle, event);
    }

    /// An injected fault fired at `cycle`. Zero-fault runs never call
    /// this hook.
    #[inline]
    fn fault(&mut self, cycle: u64, event: FaultEvent) {
        let _ = (cycle, event);
    }

    /// Whether every hook of this tracer is a no-op, so a simulator may
    /// take an event-free fast path without losing observations. Only
    /// [`NullTracer`] answers `true`; implementors whose hooks all discard
    /// their events may override this, and must never return `true` while
    /// any hook observes anything.
    #[inline]
    #[must_use]
    fn is_null(&self) -> bool {
        false
    }
}

/// The disabled tracer: every hook is a no-op that the optimizer erases.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullTracer;

impl Tracer for NullTracer {
    #[inline]
    fn is_null(&self) -> bool {
        true
    }
}

/// Fans every event out to two sinks, so a single deterministic run can
/// feed e.g. a [`crate::ChromeTracer`] and a [`CountingTracer`] at once.
#[derive(Debug)]
pub struct TeeTracer<'a, A: Tracer + ?Sized, B: Tracer + ?Sized> {
    /// The first sink; events reach it before `b`.
    pub a: &'a mut A,
    /// The second sink.
    pub b: &'a mut B,
}

impl<'a, A: Tracer + ?Sized, B: Tracer + ?Sized> TeeTracer<'a, A, B> {
    /// Wraps the two sinks.
    pub fn new(a: &'a mut A, b: &'a mut B) -> Self {
        TeeTracer { a, b }
    }
}

impl<A: Tracer + ?Sized, B: Tracer + ?Sized> Tracer for TeeTracer<'_, A, B> {
    #[inline]
    fn bundle(&mut self, cycle: u64, pc: usize, ops: usize) {
        self.a.bundle(cycle, pc, ops);
        self.b.bundle(cycle, pc, ops);
    }

    #[inline]
    fn stall(&mut self, cycle: u64, pc: usize, cause: StallCause, cycles: u64) {
        self.a.stall(cycle, pc, cause, cycles);
        self.b.stall(cycle, pc, cause, cycles);
    }

    #[inline]
    fn mem(&mut self, cycle: u64, event: MemEvent) {
        self.a.mem(cycle, event);
        self.b.mem(cycle, event);
    }

    #[inline]
    fn rfu(&mut self, cycle: u64, event: RfuEvent) {
        self.a.rfu(cycle, event);
        self.b.rfu(cycle, event);
    }

    #[inline]
    fn fault(&mut self, cycle: u64, event: FaultEvent) {
        self.a.fault(cycle, event);
        self.b.fault(cycle, event);
    }
}

/// Per-bundle-index counters accumulated by [`CountingTracer`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PcCounters {
    /// Bundles issued from this program counter.
    pub bundles: u64,
    /// Operations issued from this program counter.
    pub ops: u64,
    /// Total stall cycles attributed to this program counter.
    pub stall_cycles: u64,
}

/// A tracer that extends the end-of-run counters with per-PC and
/// per-stall-site histograms — the "why did this table cell move" view.
///
/// Totals are defined to bit-match the legacy counters: `bundles`/`ops`
/// equal `SimStats::{bundles, ops}`, and each entry of `stall_cycles_by_cause`
/// equals the corresponding `SimStats`/`MemStats` stall account (see the
/// parity test in `rvliw-core`).
#[derive(Debug, Clone, Default)]
pub struct CountingTracer {
    /// Bundles issued.
    pub bundles: u64,
    /// Operations issued.
    pub ops: u64,
    /// Stall cycles by [`StallCause::index`].
    pub stall_cycles_by_cause: [u64; StallCause::ALL.len()],
    /// Stall events by [`StallCause::index`].
    pub stall_events_by_cause: [u64; StallCause::ALL.len()],
    /// Per-PC issue/stall histogram, indexed by bundle index.
    pub per_pc: Vec<PcCounters>,
    /// Per-stall-site histogram: `per_pc_stalls[pc][cause.index()]` is the
    /// stall cycles bundle `pc` paid to that cause.
    pub per_pc_stalls: Vec<[u64; StallCause::ALL.len()]>,
    /// Data-cache hits observed.
    pub d_hits: u64,
    /// Data-cache demand misses observed.
    pub d_misses: u64,
    /// Demand accesses covered late by an in-flight prefetch.
    pub d_late_covered: u64,
    /// Machine stall cycles charged by the data side (demand misses, late
    /// coverage, and RFU line-buffer waits — the paper's "cache stalls").
    pub d_stall_cycles: u64,
    /// Instruction-cache misses observed.
    pub i_misses: u64,
    /// Dirty-line writebacks observed.
    pub writebacks: u64,
    /// Prefetches accepted.
    pub pf_issued: u64,
    /// Prefetches dropped (buffer full).
    pub pf_dropped: u64,
    /// Prefetches that were redundant.
    pub pf_redundant: u64,
    /// `RFUINIT`s observed.
    pub rfu_inits: u64,
    /// `RFUSEND`s observed.
    pub rfu_sends: u64,
    /// Short custom-instruction executions observed.
    pub rfu_short_execs: u64,
    /// Kernel-loop executions observed.
    pub rfu_loops: u64,
    /// Kernel-loop pipeline-stage advances (rows) observed.
    pub rfu_loop_rows: u64,
    /// Static busy cycles of all kernel loops.
    pub rfu_loop_busy_cycles: u64,
    /// Stall cycles inflicted by kernel loops.
    pub rfu_loop_stall_cycles: u64,
    /// Macroblock prefetch instructions observed.
    pub rfu_mb_prefetches: u64,
    /// Line Buffer A row gathers completed.
    pub lba_rows_done: u64,
    /// Line Buffer A row waits.
    pub lba_waits: u64,
    /// Cycles spent waiting on Line Buffer A rows.
    pub lba_wait_cycles: u64,
    /// Line Buffer B hits.
    pub lbb_hits: u64,
    /// Line Buffer B late (in-flight) reads.
    pub lbb_late: u64,
    /// Line Buffer B misses.
    pub lbb_misses: u64,
    /// Injected faults observed, in total (zero on a healthy run).
    pub faults_injected: u64,
    /// Injected extra-latency faults observed.
    pub fault_mem_latency: u64,
    /// Extra stall cycles injected by latency faults.
    pub fault_mem_latency_cycles: u64,
    /// Injected spurious cache flushes observed.
    pub fault_cache_flushes: u64,
    /// Injected line-buffer row delays observed.
    pub fault_lb_delays: u64,
    /// Injected stuck line-buffer rows observed.
    pub fault_lb_stuck: u64,
    /// Injected pixel bit flips observed.
    pub fault_bit_flips: u64,
}

impl CountingTracer {
    /// A fresh, all-zero tracer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn grow_to(&mut self, pc: usize) {
        if pc >= self.per_pc.len() {
            self.per_pc.resize(pc + 1, PcCounters::default());
            self.per_pc_stalls
                .resize(pc + 1, [0; StallCause::ALL.len()]);
        }
    }

    /// Total stall cycles attributed to `cause`.
    #[must_use]
    pub fn stall_cycles(&self, cause: StallCause) -> u64 {
        self.stall_cycles_by_cause[cause.index()]
    }

    /// Total stall cycles across every cause.
    #[must_use]
    pub fn total_stall_cycles(&self) -> u64 {
        self.stall_cycles_by_cause.iter().sum()
    }

    /// The `n` hottest program counters by attributed stall cycles, as
    /// `(pc, counters)` sorted hottest-first.
    #[must_use]
    pub fn hottest_stall_sites(&self, n: usize) -> Vec<(usize, PcCounters)> {
        let mut v: Vec<(usize, PcCounters)> = self
            .per_pc
            .iter()
            .copied()
            .enumerate()
            .filter(|(_, c)| c.stall_cycles > 0)
            .collect();
        v.sort_by(|a, b| b.1.stall_cycles.cmp(&a.1.stall_cycles).then(a.0.cmp(&b.0)));
        v.truncate(n);
        v
    }

    /// Renders the counters as a flat metrics JSON object (stable key
    /// order), including the per-cause stall histogram and the top stall
    /// sites.
    #[must_use]
    pub fn to_metrics_json(&self) -> String {
        let mut s = String::from("{\n");
        let field = |s: &mut String, k: &str, v: u64| {
            s.push_str(&format!("  \"{k}\": {v},\n"));
        };
        field(&mut s, "bundles", self.bundles);
        field(&mut s, "ops", self.ops);
        field(&mut s, "d_hits", self.d_hits);
        field(&mut s, "d_misses", self.d_misses);
        field(&mut s, "d_late_covered", self.d_late_covered);
        field(&mut s, "d_stall_cycles", self.d_stall_cycles);
        field(&mut s, "i_misses", self.i_misses);
        field(&mut s, "writebacks", self.writebacks);
        field(&mut s, "pf_issued", self.pf_issued);
        field(&mut s, "pf_dropped", self.pf_dropped);
        field(&mut s, "pf_redundant", self.pf_redundant);
        field(&mut s, "rfu_inits", self.rfu_inits);
        field(&mut s, "rfu_sends", self.rfu_sends);
        field(&mut s, "rfu_short_execs", self.rfu_short_execs);
        field(&mut s, "rfu_loops", self.rfu_loops);
        field(&mut s, "rfu_loop_rows", self.rfu_loop_rows);
        field(&mut s, "rfu_loop_busy_cycles", self.rfu_loop_busy_cycles);
        field(&mut s, "rfu_loop_stall_cycles", self.rfu_loop_stall_cycles);
        field(&mut s, "rfu_mb_prefetches", self.rfu_mb_prefetches);
        field(&mut s, "lba_rows_done", self.lba_rows_done);
        field(&mut s, "lba_waits", self.lba_waits);
        field(&mut s, "lba_wait_cycles", self.lba_wait_cycles);
        field(&mut s, "lbb_hits", self.lbb_hits);
        field(&mut s, "lbb_late", self.lbb_late);
        field(&mut s, "lbb_misses", self.lbb_misses);
        field(&mut s, "faults_injected", self.faults_injected);
        field(&mut s, "fault_mem_latency", self.fault_mem_latency);
        field(
            &mut s,
            "fault_mem_latency_cycles",
            self.fault_mem_latency_cycles,
        );
        field(&mut s, "fault_cache_flushes", self.fault_cache_flushes);
        field(&mut s, "fault_lb_delays", self.fault_lb_delays);
        field(&mut s, "fault_lb_stuck", self.fault_lb_stuck);
        field(&mut s, "fault_bit_flips", self.fault_bit_flips);
        s.push_str("  \"stalls\": {\n");
        for (i, cause) in StallCause::ALL.into_iter().enumerate() {
            let sep = if i + 1 == StallCause::ALL.len() {
                ""
            } else {
                ","
            };
            s.push_str(&format!(
                "    \"{}\": {{\"cycles\": {}, \"events\": {}}}{sep}\n",
                cause.label(),
                self.stall_cycles_by_cause[cause.index()],
                self.stall_events_by_cause[cause.index()],
            ));
        }
        s.push_str("  },\n  \"hot_stall_sites\": [\n");
        let hot = self.hottest_stall_sites(10);
        for (i, (pc, c)) in hot.iter().enumerate() {
            let sep = if i + 1 == hot.len() { "" } else { "," };
            s.push_str(&format!(
                "    {{\"pc\": {pc}, \"bundles\": {}, \"ops\": {}, \"stall_cycles\": {}}}{sep}\n",
                c.bundles, c.ops, c.stall_cycles
            ));
        }
        s.push_str("  ]\n}\n");
        s
    }
}

impl Tracer for CountingTracer {
    #[inline]
    fn bundle(&mut self, _cycle: u64, pc: usize, ops: usize) {
        self.bundles += 1;
        self.ops += ops as u64;
        self.grow_to(pc);
        let c = &mut self.per_pc[pc];
        c.bundles += 1;
        c.ops += ops as u64;
    }

    #[inline]
    fn stall(&mut self, _cycle: u64, pc: usize, cause: StallCause, cycles: u64) {
        self.stall_cycles_by_cause[cause.index()] += cycles;
        self.stall_events_by_cause[cause.index()] += 1;
        self.grow_to(pc);
        self.per_pc[pc].stall_cycles += cycles;
        self.per_pc_stalls[pc][cause.index()] += cycles;
    }

    #[inline]
    fn mem(&mut self, _cycle: u64, event: MemEvent) {
        match event {
            MemEvent::DHit { .. } => self.d_hits += 1,
            MemEvent::DMiss { stall, .. } => {
                self.d_misses += 1;
                self.d_stall_cycles += stall;
            }
            MemEvent::DLateCovered { stall, .. } => {
                self.d_late_covered += 1;
                self.d_stall_cycles += stall;
            }
            MemEvent::IMiss { .. } => self.i_misses += 1,
            MemEvent::PrefetchIssued { .. } => self.pf_issued += 1,
            MemEvent::PrefetchDropped { .. } => self.pf_dropped += 1,
            MemEvent::PrefetchRedundant { .. } => self.pf_redundant += 1,
            MemEvent::Writeback => self.writebacks += 1,
        }
    }

    #[inline]
    fn rfu(&mut self, _cycle: u64, event: RfuEvent) {
        match event {
            RfuEvent::Init { .. } => self.rfu_inits += 1,
            RfuEvent::Send { .. } => self.rfu_sends += 1,
            RfuEvent::ShortExec { .. } => self.rfu_short_execs += 1,
            RfuEvent::LoopRow { .. } => self.rfu_loop_rows += 1,
            RfuEvent::LoopDone { busy, stall, .. } => {
                self.rfu_loops += 1;
                self.rfu_loop_busy_cycles += busy;
                self.rfu_loop_stall_cycles += stall;
            }
            RfuEvent::MbPrefetch { .. } => self.rfu_mb_prefetches += 1,
            RfuEvent::LbaRowDone { .. } => self.lba_rows_done += 1,
            RfuEvent::LbaWait { wait, .. } => {
                self.lba_waits += 1;
                self.lba_wait_cycles += wait;
                self.d_stall_cycles += wait;
            }
            RfuEvent::LbbHit => self.lbb_hits += 1,
            RfuEvent::LbbLate { wait } => {
                self.lbb_late += 1;
                self.d_stall_cycles += wait;
            }
            RfuEvent::LbbMiss => self.lbb_misses += 1,
        }
    }

    #[inline]
    fn fault(&mut self, _cycle: u64, event: FaultEvent) {
        self.faults_injected += 1;
        match event {
            FaultEvent::MemLatency { extra, .. } => {
                self.fault_mem_latency += 1;
                self.fault_mem_latency_cycles += extra;
            }
            FaultEvent::CacheFlush => self.fault_cache_flushes += 1,
            FaultEvent::LbRowDelay { .. } => self.fault_lb_delays += 1,
            FaultEvent::LbRowStuck { .. } => self.fault_lb_stuck += 1,
            FaultEvent::BitFlip { .. } => self.fault_bit_flips += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_tracer_accumulates_and_ranks() {
        let mut t = CountingTracer::new();
        t.bundle(0, 3, 4);
        t.bundle(1, 3, 2);
        t.stall(2, 3, StallCause::Interlock, 5);
        t.stall(3, 7, StallCause::DCache, 50);
        t.mem(
            3,
            MemEvent::DMiss {
                addr: 0x100,
                stall: 50,
            },
        );
        assert_eq!(t.bundles, 2);
        assert_eq!(t.ops, 6);
        assert_eq!(t.stall_cycles(StallCause::Interlock), 5);
        assert_eq!(t.total_stall_cycles(), 55);
        assert_eq!(t.d_misses, 1);
        assert_eq!(t.d_stall_cycles, 50);
        let hot = t.hottest_stall_sites(2);
        assert_eq!(hot[0].0, 7);
        assert_eq!(hot[1].0, 3);
        assert_eq!(t.per_pc[3].bundles, 2);
        assert_eq!(t.per_pc_stalls[3][StallCause::Interlock.index()], 5);
    }

    #[test]
    fn metrics_json_is_emitted() {
        let mut t = CountingTracer::new();
        t.bundle(0, 0, 1);
        t.rfu(
            0,
            RfuEvent::LoopDone {
                cfg: 7,
                busy: 100,
                stall: 3,
            },
        );
        let json = t.to_metrics_json();
        assert!(json.contains("\"bundles\": 1"));
        assert!(json.contains("\"rfu_loops\": 1"));
        assert!(json.contains("\"interlock\""));
    }

    #[test]
    fn null_tracer_is_a_unit() {
        let mut t = NullTracer;
        t.bundle(0, 0, 1);
        t.stall(0, 0, StallCause::Ifetch, 1);
        assert_eq!(std::mem::size_of::<NullTracer>(), 0);
    }
}
