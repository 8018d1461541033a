//! The block-compiled execution backend: micro-trace compilation of
//! straight-line bundle runs.
//!
//! The interpreter driver ([`crate::substrate`]) pays per-bundle
//! bookkeeping every cycle: per-class statistics bumps, an
//! instruction-cache lookup per bundle, a scoreboard scan and deferred
//! write-back. This module compiles each *basic block* — a maximal
//! straight-line bundle run between control transfers, discovered by
//! [`rvliw_isa::block_leaders`] — into per-bundle issue templates
//! (scoreboard read set, RFU interlock flag, pre-resolved
//! instruction-fetch behaviour, in-place commit and stall-free proofs)
//! over the program's [`DecodedCode`]: the templates index its flat
//! micro-op and scoreboard-read arrays, they do not copy them. Executing a
//! block is then a tight loop parameterized only by dynamic inputs:
//! register values and memory/RFU response latencies.
//!
//! Each operation runs through the executor the interpreter uses,
//! `exec::exec`, inlined into the loop under a [`NullTracer`], so
//! both engines execute the same lowering with the same code.
//!
//! **Soundness.** The scoreboard outcome of a straight-line bundle
//! sequence is a pure function of entry state (register-ready times, cache
//! and RFU state), so precomputing the per-bundle templates changes the
//! *representation*, never the transition sequence: every cycle advance,
//! stall split, memory access and statistics delta is performed in the
//! same order with the same operands as the interpreter, and the
//! differential tests assert bit-identical
//! [`RunSummary`](crate::RunSummary)s. The backend only activates for
//! observation-free runs — no per-bundle trace hook, a
//! [`NullTracer`] (every event sink a no-op), and
//! an inert [`FaultPlan`](rvliw_fault::FaultPlan) — so there is no
//! observer whose view could distinguish the backends. Anything else, and
//! any control transfer into the middle of a block (a computed `return`
//! target), falls back to the interpreter mid-run.
//!
//! Compiled blocks are cached on the machine, keyed by the program's
//! 128-bit content address ([`Code::content_key`]) — the same
//! content-addressed identity discipline as `rvliw-cache` — so separately
//! scheduled but identical programs share one compilation and different
//! programs can never cross-serve.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};

use rvliw_asm::Code;
use rvliw_isa::{block_leaders, Dest, NUM_BRS, NUM_GPRS};
use rvliw_mem::MemorySystem;
use rvliw_trace::NullTracer;

use crate::decode::{DSrc, DecodedCode, MicroOp, ScoreRead, NUM_OP_CLASSES};
use crate::exec::{exec_bundle, Pending};
use crate::machine::{Machine, SimError};
use crate::BUNDLE_BYTES;

/// Which issue loop a [`Machine`] run uses.
///
/// There is no user-facing selection: the simulator picks the engine from
/// what the machine observes. The pin exists for the differential tests
/// and the host-time benchmark, which time the interpreter on its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecBackend {
    /// Always the pre-decoded interpreter.
    Interpreter,
    /// Block-compiled when safe, the interpreter otherwise: it falls back
    /// whenever its safety precondition fails (a per-bundle trace hook, a
    /// non-null tracer, a non-inert fault plan, a non-VLIW substrate) or a
    /// control transfer lands inside a block.
    #[default]
    Auto,
}

impl ExecBackend {
    /// Sets the process-wide default backend new [`Machine`]s start with,
    /// so the selection reaches every machine built behind the scenario
    /// runner without widening `Scenario` (the backend must never
    /// influence results, so it must never reach a scenario cache key).
    pub fn set_process_default(self) {
        PROCESS_DEFAULT.store(self as u8, Ordering::Relaxed);
    }

    /// The current process-wide default backend.
    #[must_use]
    pub fn process_default() -> ExecBackend {
        match PROCESS_DEFAULT.load(Ordering::Relaxed) {
            0 => ExecBackend::Interpreter,
            _ => ExecBackend::Auto,
        }
    }
}

static PROCESS_DEFAULT: AtomicU8 = AtomicU8::new(ExecBackend::Auto as u8);

/// Telemetry of the block-compiled backend: how runs were dispatched and
/// how the per-machine block cache behaved.
///
/// Deliberately **not** part of [`SimStats`](crate::SimStats) or
/// [`RunSummary`](crate::machine::RunSummary): backend choice must never
/// influence simulation results, so its telemetry must never reach the
/// result structs the scenario cache stores and the tables regress on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BackendStats {
    /// Runs that started on the block-compiled backend.
    pub block_runs: u64,
    /// Runs that used the interpreter from the start (backend forced off,
    /// tracing active, or fault injection armed).
    pub interp_runs: u64,
    /// Mid-run falls from block execution back to the interpreter
    /// (control transfer into the middle of a block).
    pub fallbacks: u64,
    /// Block-cache lookups (one per block-backend run).
    pub compile_lookups: u64,
    /// Block-cache misses (program compiled on this lookup).
    pub compile_misses: u64,
    /// Cycles simulated under block execution.
    pub block_cycles: u64,
}

impl BackendStats {
    /// Block-cache hit rate over [`BackendStats::compile_lookups`], in
    /// `0.0..=1.0` (`1.0` when there were no lookups).
    #[must_use]
    pub fn block_cache_hit_rate(&self) -> f64 {
        if self.compile_lookups == 0 {
            1.0
        } else {
            1.0 - self.compile_misses as f64 / self.compile_lookups as f64
        }
    }
}

/// Process-wide [`BackendStats`] totals over every finished machine. Each
/// machine counts into its own [`BackendStats`] and adds them here once,
/// when it is dropped, so the run path never touches a cache line shared
/// between worker threads, and binaries can still report backend
/// telemetry without threading per-machine state through the
/// (result-shape-frozen) runner and cache layers. Sums of relaxed atomic
/// adds: thread-count independent.
static T_BLOCK_RUNS: AtomicU64 = AtomicU64::new(0);
static T_INTERP_RUNS: AtomicU64 = AtomicU64::new(0);
static T_FALLBACKS: AtomicU64 = AtomicU64::new(0);
static T_LOOKUPS: AtomicU64 = AtomicU64::new(0);
static T_MISSES: AtomicU64 = AtomicU64::new(0);
static T_BLOCK_CYCLES: AtomicU64 = AtomicU64::new(0);

/// The process-wide backend telemetry totals (see [`BackendStats`]) of
/// every **finished** machine: a machine's runs are counted when it is
/// dropped, not as they happen, so a machine still alive contributes
/// nothing yet. Capture once before and once after a region whose
/// machines are all dropped inside it (a runner pass builds one machine
/// per scenario and drops it) and diff to scope it.
#[must_use]
pub fn backend_totals() -> BackendStats {
    BackendStats {
        block_runs: T_BLOCK_RUNS.load(Ordering::Relaxed),
        interp_runs: T_INTERP_RUNS.load(Ordering::Relaxed),
        fallbacks: T_FALLBACKS.load(Ordering::Relaxed),
        compile_lookups: T_LOOKUPS.load(Ordering::Relaxed),
        compile_misses: T_MISSES.load(Ordering::Relaxed),
        block_cycles: T_BLOCK_CYCLES.load(Ordering::Relaxed),
    }
}

/// Adds a finished machine's telemetry to [`backend_totals`].
pub(crate) fn add_to_totals(s: &BackendStats) {
    for (total, n) in [
        (&T_BLOCK_RUNS, s.block_runs),
        (&T_INTERP_RUNS, s.interp_runs),
        (&T_FALLBACKS, s.fallbacks),
        (&T_LOOKUPS, s.compile_lookups),
        (&T_MISSES, s.compile_misses),
        (&T_BLOCK_CYCLES, s.block_cycles),
    ] {
        total.fetch_add(n, Ordering::Relaxed);
    }
}

/// Per-bundle issue template of a compiled block.
#[derive(Debug, Clone, Copy)]
struct BundleTpl {
    ops_start: u32,
    reads_start: u32,
    ops_len: u8,
    reads_len: u16,
    /// Wait for the RFU to be free before issuing.
    has_rfu: bool,
    /// Whether this bundle's fetch must consult the instruction cache.
    /// `false` only when the previous bundle in the block fetched the same
    /// (direct-mapped) line: then this fetch is a guaranteed hit and only
    /// the hit counters are bumped ([`Cache::note_repeat_hit`]).
    ifetch: bool,
    /// Fetch byte address of this bundle.
    ifetch_addr: u32,
    /// Whether the exec phase may commit this bundle's register writes in
    /// place instead of through the deferred write-back scratch (see
    /// [`bundle_all_direct`]).
    all_direct: bool,
    /// Statically proven to never interlock *provided the block's live-in
    /// registers were ready at block entry*: every read is fed by an
    /// in-block producer of known latency that completes within the issue
    /// distance, and the bundle does not touch the RFU. Lets the hot path
    /// skip the scoreboard scan entirely.
    no_stall: bool,
}

/// One compiled basic block: bundle templates indexing the program's
/// [`DecodedCode`] operation and scoreboard-read arrays.
#[derive(Debug)]
struct Block {
    first_pc: u32,
    bundles: Vec<BundleTpl>,
    /// Operations issued by the whole block, per class (added in one shot
    /// when the block completes).
    total_classes: [u64; NUM_OP_CLASSES],
    /// Registers read before any in-block write — the only entry state the
    /// scoreboard outcome depends on. When all of them are ready at block
    /// entry, every [`BundleTpl::no_stall`] bundle is issue-exact without
    /// scanning its read set.
    live_ins: Vec<ScoreRead>,
}

/// A whole program compiled to micro-traces, cached per machine under the
/// program's content key.
#[derive(Debug)]
pub(crate) struct CompiledBlocks {
    blocks: Vec<Block>,
    /// Bundle index -> block index, `NOT_A_LEADER` for mid-block bundles.
    leader_of: Vec<u32>,
    nbundles: usize,
    /// Whether instruction fetches may be batched (direct-mapped icache;
    /// see [`CompiledBlocks::compile`]). Gates both the same-line repeat
    /// shortcut and the per-block residency memo.
    ifetch_batched: bool,
}

const NOT_A_LEADER: u32 = u32::MAX;

/// How block execution left off.
pub(crate) enum BlockExit {
    /// The program halted; counters are fully flushed.
    Halted,
    /// Control transferred to a bundle that is not a block leader; the
    /// interpreter must continue from this pc.
    Fallback(usize),
}

impl CompiledBlocks {
    /// Compiles every basic block of `code`.
    ///
    /// `icache_line_shift` is `Some(log2(line_size))` when the machine's
    /// instruction cache is direct-mapped — only then may same-line repeat
    /// fetches skip the lookup (set-associative LRU state would drift).
    pub(crate) fn compile(
        code: &Code,
        decoded: &DecodedCode,
        icache_line_shift: Option<u32>,
    ) -> CompiledBlocks {
        let leaders = block_leaders(code.bundles());
        let n = leaders.len();
        let mut blocks = Vec::new();
        let mut leader_of = vec![NOT_A_LEADER; n];
        let mut pc = 0usize;
        while pc < n {
            debug_assert!(leaders[pc]);
            let first_pc = pc;
            let mut end = pc + 1;
            // Extend until the next leader; a control op already forces
            // the following bundle to be a leader, so blocks end at (and
            // include) their control bundle.
            while end < n && !leaders[end] {
                end += 1;
            }
            leader_of[first_pc] = blocks.len() as u32;
            blocks.push(compile_block(first_pc, end, decoded, icache_line_shift));
            pc = end;
        }
        CompiledBlocks {
            blocks,
            leader_of,
            nbundles: n,
            ifetch_batched: icache_line_shift.is_some(),
        }
    }

    /// Number of compiled blocks.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.blocks.len()
    }
}

fn compile_block(
    first_pc: usize,
    end: usize,
    decoded: &DecodedCode,
    icache_line_shift: Option<u32>,
) -> Block {
    let mut bundles = Vec::with_capacity(end - first_pc);
    let mut total_classes = [0u64; NUM_OP_CLASSES];
    // Symbolic scoreboard: the latest in-block writer of each register as
    // `(bundle offset, Some(latency))`, or `None` latency for writes whose
    // ready time the compiler cannot see (RFU results, the link register).
    let mut gpr_w: [Option<(usize, Option<u64>)>; NUM_GPRS] = [None; NUM_GPRS];
    let mut br_w: [Option<(usize, Option<u64>)>; NUM_BRS] = [None; NUM_BRS];
    let mut live_ins: Vec<ScoreRead> = Vec::new();
    for pc in first_pc..end {
        let k = pc - first_pc;
        let meta = decoded.meta(pc);
        for (total, &c) in total_classes.iter_mut().zip(decoded.class_counts_of(pc)) {
            *total += u64::from(c);
        }
        // Reads observe pre-bundle state (deferred write-back), so this
        // runs before the bundle's own writes are recorded. A bundle is
        // `no_stall` when every read is fed early enough: a producer of
        // known latency `lat` at offset `p` is ready by offset `k`
        // whenever `lat <= k - p` (issue advances at least one cycle per
        // bundle and whole-machine stalls only push consumers later, never
        // producers). Live-in reads are covered by the entry check.
        let mut no_stall = !meta.has_rfu;
        for &r in decoded.reads_of(pc) {
            let writer = match r {
                ScoreRead::Gpr(i) => gpr_w[i as usize],
                ScoreRead::Br(i) => br_w[i as usize],
            };
            match writer {
                None => {
                    if !live_ins.contains(&r) {
                        live_ins.push(r);
                    }
                }
                Some((p, Some(lat))) => {
                    if lat > (k - p) as u64 {
                        no_stall = false;
                    }
                }
                Some((_, None)) => no_stall = false,
            }
        }
        for op in decoded.ops_of(pc) {
            match op.write() {
                Some((Dest::Gpr(g), lat)) if !g.is_zero() => {
                    gpr_w[g.index() as usize] = Some((k, lat));
                }
                Some((Dest::Br(b), lat)) => br_w[b.index() as usize] = Some((k, lat)),
                _ => {}
            }
        }
        let addr = pc as u32 * BUNDLE_BYTES;
        let ifetch = match icache_line_shift {
            // First bundle always consults the cache; later bundles only
            // when they cross into a new line.
            Some(shift) => pc == first_pc || (addr >> shift) != (addr - BUNDLE_BYTES) >> shift,
            None => true,
        };
        bundles.push(BundleTpl {
            ops_start: meta.ops_start,
            reads_start: meta.reads_start,
            ops_len: meta.ops_len,
            reads_len: meta.reads_len,
            has_rfu: meta.has_rfu,
            ifetch,
            ifetch_addr: addr,
            all_direct: bundle_all_direct(decoded.ops_of(pc)),
            no_stall,
        });
    }
    Block {
        first_pc: first_pc as u32,
        bundles,
        total_classes,
        live_ins,
    }
}

/// Whether a bundle's register writes may be committed in place during
/// the exec phase instead of going through the deferred write-back
/// scratch. Sound exactly when the scratch is unobservable:
///
/// - no operation reads a register an earlier op of the same bundle
///   wrote, so every source still observes pre-bundle state;
/// - no fallible operation (memory access, RFU operation) follows a
///   register write — an error aborts the bundle with its pending writes
///   discarded, and in-place commits could not be undone.
///
/// In-place writes then land in issue order — the same order the
/// write-back loop would apply them. Bundles with a `call`, `return`,
/// prefetch, unresolved-target or undecodable operation always take the
/// scratch.
fn bundle_all_direct(mops: &[MicroOp]) -> bool {
    use MicroOp::*;
    let (mut gw, mut bw) = (0u64, 0u64);
    let mut wrote = false;
    for mop in mops {
        let mut rg = 0u64;
        let mut rb = 0u64;
        let mut read = |s: &DSrc| match *s {
            DSrc::Gpr(i) => rg |= 1u64 << i,
            DSrc::Br(i) => rb |= 1u64 << i,
            DSrc::Imm(_) => {}
        };
        let g = DSrc::Gpr;
        let fallible = match mop {
            AddGG { a, b, .. }
            | OrGG { a, b, .. }
            | SllGG { a, b, .. }
            | SrlGG { a, b, .. }
            | Sad4GG { a, b, .. }
            | Avg4rGG { a, b, .. }
            | Hadd2GGI { a, b, .. }
            | Pack4GG { a, b, .. } => {
                read(&g(*a));
                read(&g(*b));
                false
            }
            AddGI { a, .. }
            | SubGI { a, .. }
            | SllGI { a, .. }
            | SrlGI { a, .. }
            | ExtbuGI { a, .. }
            | MovG { a, .. }
            | Rnd2G { a, .. }
            | CmpNeGI { a, .. } => {
                read(&g(*a));
                false
            }
            Pure { srcs, .. } => {
                srcs.iter().for_each(&mut read);
                false
            }
            LoadW { base, .. } => {
                read(&g(*base));
                true
            }
            Load { addr, .. } => {
                addr.iter().for_each(&mut read);
                true
            }
            Store { val, addr, .. } => {
                read(val);
                addr.iter().for_each(&mut read);
                true
            }
            BrCond { cond, target, .. } => {
                if target.is_none() {
                    return false;
                }
                read(cond);
                false
            }
            RfuSend { srcs, .. } | RfuExec { srcs, .. } => {
                srcs.iter().for_each(&mut read);
                true
            }
            RfuPref { addr, .. } => {
                read(addr);
                true
            }
            RfuInit { .. } => true,
            Goto { .. } | Halt | Nop => false,
            Call { .. } | Ret { .. } | Pft { .. } | Unresolved | Undecodable { .. } => {
                return false
            }
        };
        if rg & gw != 0 || rb & bw != 0 || (fallible && wrote) {
            return false;
        }
        match mop.write() {
            Some((Dest::Gpr(g), _)) if !g.is_zero() => {
                gw |= 1u64 << g.index();
                wrote = true;
            }
            Some((Dest::Br(b), _)) => {
                bw |= 1u64 << b.index();
                wrote = true;
            }
            _ => {}
        }
    }
    true
}

/// Whether `mem`'s instruction cache admits the same-line repeat-fetch
/// shortcut (direct-mapped only; see [`BundleTpl::ifetch`]).
pub(crate) fn icache_line_shift(mem: &MemorySystem) -> Option<u32> {
    let geom = mem.icache.geometry();
    (geom.ways == 1).then(|| geom.line_size.trailing_zeros())
}

/// Statistics deltas accumulated locally during block execution and
/// flushed into [`SimStats`](crate::SimStats) in one shot at every exit,
/// so the hot loop performs no per-bundle stats stores.
#[derive(Default)]
struct Agg {
    bundles: u64,
    ops: u64,
    classes: [u64; NUM_OP_CLASSES],
    ifetch_stalls: u64,
    interlock_stalls: u64,
    rfu_busy_stalls: u64,
    branches_taken: u64,
    branch_stalls: u64,
    /// Instruction fetches resolved without consulting the cache (same-line
    /// repeats and proven-resident lines); accounted in one
    /// [`Cache::note_repeat_hits`](rvliw_mem::Cache::note_repeat_hits) call
    /// at flush. Non-zero only under a direct-mapped icache.
    icache_hits: u64,
}

impl Agg {
    fn flush(&self, m: &mut Machine, cyc: u64, entry_cyc: u64) {
        m.cycle = cyc;
        m.stats.bundles += self.bundles;
        m.stats.ops += self.ops;
        for (total, &c) in m.stats.ops_by_class.iter_mut().zip(&self.classes) {
            *total += c;
        }
        m.stats.ifetch_stall_cycles += self.ifetch_stalls;
        m.stats.interlock_stalls += self.interlock_stalls;
        m.stats.rfu_busy_stalls += self.rfu_busy_stalls;
        m.stats.branches_taken += self.branches_taken;
        m.stats.branch_stall_cycles += self.branch_stalls;
        if self.icache_hits > 0 {
            m.mem.icache.note_repeat_hits(self.icache_hits);
        }
        m.backend_stats.block_cycles += cyc - entry_cyc;
    }
}

/// Executes `blocks` from bundle 0 until halt, a non-leader control
/// transfer (interpreter fallback) or an error. All counters — including
/// on the error paths — are left exactly as the interpreter would leave
/// them.
pub(crate) fn run_blocks(
    m: &mut Machine,
    blocks: &CompiledBlocks,
    decoded: &DecodedCode,
    limit: u64,
) -> Result<BlockExit, SimError> {
    debug_assert_eq!(blocks.nbundles, decoded.len());
    let mut pc = 0usize;
    let mut cyc = m.cycle;
    let entry_cyc = cyc;
    let penalty = m.branch_taken_penalty;
    let mut agg = Agg::default();
    let mut out = Pending::new();
    'blocks: loop {
        if pc >= blocks.nbundles {
            agg.flush(m, cyc, entry_cyc);
            return Err(SimError::FellOffEnd { pc });
        }
        let bi = blocks.leader_of[pc];
        if bi == NOT_A_LEADER {
            agg.flush(m, cyc, entry_cyc);
            return Ok(BlockExit::Fallback(pc));
        }
        let blk = &blocks.blocks[bi as usize];
        let nbundles = blk.bundles.len();
        // Residency memo: when this exact block last completed a full pass
        // with every line already cached — and nothing has been evicted
        // since ([`Cache::contents_gen`]) — every fetch is a guaranteed
        // hit and the per-line lookups are batch-accounted at flush.
        let blk_ptr = std::ptr::from_ref(blk) as usize;
        let icache_gen = m.mem.icache.contents_gen();
        let fast_ifetch = blocks.ifetch_batched && m.icache_resident == (blk_ptr, icache_gen);
        let entry_misses = m.mem.icache.misses;
        // Entry-settled: every live-in register is ready now (`cyc` only
        // grows, so this holds at every later bundle too). Then each
        // `no_stall` bundle skips its scoreboard scan outright.
        let settled = blk.live_ins.iter().all(|&r| {
            let ready = match r {
                ScoreRead::Gpr(i) => m.gpr_ready[i as usize],
                ScoreRead::Br(i) => m.br_ready[i as usize],
            };
            ready <= cyc
        });
        let mut i = 0usize;
        while i < nbundles {
            let bt = &blk.bundles[i];
            if cyc >= limit {
                // The interpreter charges nothing for the bundle it never
                // issued: only the issued prefix counts.
                partial_flush(m, &mut agg, decoded, blk, i, cyc, entry_cyc);
                return Err(SimError::CycleLimit {
                    limit: m.cycle_limit,
                });
            }

            // Instruction fetch. Same-line repeats and proven-resident
            // lines are guaranteed hits, deferred to the flush batch.
            if fast_ifetch || !bt.ifetch {
                agg.icache_hits += 1;
            } else {
                let istall = m.mem.ifetch(bt.ifetch_addr, cyc);
                cyc += istall;
                agg.ifetch_stalls += istall;
            }

            // Scoreboard interlock, split exactly as the interpreter
            // does. Bundles statically proven stall-free (given a settled
            // entry) skip the scan.
            if !(settled && bt.no_stall) {
                let reads = &decoded.reads[bt.reads_start as usize..][..bt.reads_len as usize];
                let mut ready_at = cyc;
                for &r in reads {
                    ready_at = ready_at.max(match r {
                        ScoreRead::Gpr(idx) => m.gpr_ready[idx as usize],
                        ScoreRead::Br(idx) => m.br_ready[idx as usize],
                    });
                }
                if bt.has_rfu {
                    ready_at = ready_at.max(m.rfu_busy_until);
                }
                let wait = ready_at - cyc;
                if wait > 0 {
                    let rfu_wait = m.rfu_busy_until.saturating_sub(cyc).min(wait);
                    agg.rfu_busy_stalls += rfu_wait;
                    agg.interlock_stalls += wait - rfu_wait;
                    cyc += wait;
                }
            }

            // Execute phase, through the executor the interpreter uses.
            // Bundles statically proven free of intra-bundle hazards
            // ([`bundle_all_direct`]) commit their writes in place as they
            // execute; the rest defer them to the write-back below, so
            // sources observe pre-bundle register state.
            let ops = &decoded.ops[bt.ops_start as usize..][..bt.ops_len as usize];
            agg.ops += ops.len() as u64;
            out.reset();
            let pc_abs = blk.first_pc as usize + i;
            let r = if bt.all_direct {
                exec_bundle::<true, _>(m, ops, pc_abs, &mut cyc, &mut out, &mut NullTracer)
            } else {
                exec_bundle::<false, _>(m, ops, pc_abs, &mut cyc, &mut out, &mut NullTracer)
            };
            if let Err(e) = r {
                partial_flush(m, &mut agg, decoded, blk, i + 1, cyc, entry_cyc);
                return Err(e);
            }
            out.write_back(m);

            agg.bundles += 1;
            cyc += 1;

            if out.halted {
                for (total, &c) in agg.classes.iter_mut().zip(&blk.total_classes) {
                    *total += c;
                }
                note_resident(m, blocks, fast_ifetch, entry_misses, blk_ptr, icache_gen);
                agg.flush(m, cyc, entry_cyc);
                return Ok(BlockExit::Halted);
            }
            if let Some(t) = out.next_pc {
                agg.branches_taken += 1;
                cyc += penalty;
                agg.branch_stalls += penalty;
                for (total, &c) in agg.classes.iter_mut().zip(&blk.total_classes) {
                    *total += c;
                }
                note_resident(m, blocks, fast_ifetch, entry_misses, blk_ptr, icache_gen);
                pc = t;
                continue 'blocks;
            }
            i += 1;
        }
        // Fell through the block into the next leader.
        for (total, &c) in agg.classes.iter_mut().zip(&blk.total_classes) {
            *total += c;
        }
        note_resident(m, blocks, fast_ifetch, entry_misses, blk_ptr, icache_gen);
        pc = blk.first_pc as usize + nbundles;
    }
}

/// Records the just-completed block as fully icache-resident when its
/// pass produced no new fill. Control operations always end their block,
/// so every successful exit is a full pass: each of the block's lines was
/// either looked up (hitting) this pass or covered by an earlier memo that
/// is still valid (the generation stamp has not moved).
#[inline]
fn note_resident(
    m: &mut Machine,
    blocks: &CompiledBlocks,
    fast_ifetch: bool,
    entry_misses: u64,
    blk_ptr: usize,
    icache_gen: u64,
) {
    if blocks.ifetch_batched && !fast_ifetch && m.mem.icache.misses == entry_misses {
        m.icache_resident = (blk_ptr, icache_gen);
    }
}

/// Cold exits from inside a block: flushes the counters with the classes
/// of the block's first `issued` bundles. The interpreter counts a bundle's
/// ops and classes when it issues, so an error inside bundle `i` counts
/// `i + 1` bundles' classes (but not the bundle itself), and the cycle
/// limit, hit before bundle `i` issues, counts `i`.
#[cold]
#[inline(never)]
fn partial_flush(
    m: &mut Machine,
    agg: &mut Agg,
    decoded: &DecodedCode,
    blk: &Block,
    issued: usize,
    cyc: u64,
    entry_cyc: u64,
) {
    let first = blk.first_pc as usize;
    for pc in first..first + issued {
        for (total, &c) in agg.classes.iter_mut().zip(decoded.class_counts_of(pc)) {
            *total += u64::from(c);
        }
    }
    agg.flush(m, cyc, entry_cyc);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvliw_asm::Builder;
    use rvliw_isa::{Gpr, MachineConfig};

    fn compile(b: Builder) -> Code {
        rvliw_asm::schedule_st200(&b.build()).unwrap()
    }

    #[test]
    fn straight_line_program_compiles_to_one_block() {
        let mut b = Builder::new("t");
        b.movi(Gpr::new(1), 20);
        b.addi(Gpr::new(2), Gpr::new(1), 22);
        b.halt();
        let code = compile(b);
        let decoded = DecodedCode::new(&code, &MachineConfig::st200());
        let blocks = CompiledBlocks::compile(&code, &decoded, Some(6));
        assert_eq!(blocks.len(), 1);
        assert_eq!(blocks.nbundles, code.bundles().len());
    }

    #[test]
    fn loop_program_splits_at_the_back_edge() {
        let mut b = Builder::new("t");
        let (i, acc) = (Gpr::new(1), Gpr::new(2));
        let c = rvliw_isa::Br::new(0);
        b.movi(i, 10);
        b.movi(acc, 0);
        let top = b.label();
        b.bind(top);
        b.add(acc, acc, i);
        b.subi(i, i, 1);
        b.cmpne_br(c, i, 0);
        b.br(c, top);
        b.halt();
        let code = compile(b);
        let decoded = DecodedCode::new(&code, &MachineConfig::st200());
        let blocks = CompiledBlocks::compile(&code, &decoded, Some(6));
        // At least: preamble block, loop-body block, epilogue block.
        assert!(blocks.len() >= 3, "{} blocks", blocks.len());
        // Every bundle belongs to exactly one block.
        let covered: usize = blocks.blocks.iter().map(|b| b.bundles.len()).sum();
        assert_eq!(covered, code.bundles().len());
    }

    #[test]
    fn hit_rate_on_empty_stats_is_one() {
        assert!((BackendStats::default().block_cache_hit_rate() - 1.0).abs() < 1e-12);
    }
}
