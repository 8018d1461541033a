//! The block-compiled execution backend: micro-trace compilation of
//! straight-line bundle runs.
//!
//! The pre-decoded interpreter ([`Machine::run`](crate::Machine::run))
//! still pays per-bundle bookkeeping every cycle: per-class statistics
//! bumps, issue-scratch reinitialization, an instruction-cache lookup per
//! bundle, and a wide `ExecKind` match per operation. This module compiles
//! each *basic block* — a maximal straight-line bundle run between control
//! transfers, discovered by [`rvliw_isa::block_leaders`] — into a flat
//! **micro-trace**: per-bundle issue templates (scoreboard read set, RFU
//! interlock flag, pre-resolved instruction-fetch behaviour) plus a
//! contiguous array of [`MicroOp`]s with the per-operation decisions
//! (evaluator function, operand indices, latency) baked in. Executing a
//! block is then a tight loop parameterized only by dynamic inputs:
//! register values and memory/RFU response latencies.
//!
//! **Soundness.** The scoreboard outcome of a straight-line bundle
//! sequence is a pure function of entry state (register-ready times, cache
//! and RFU state), so precomputing the per-bundle templates changes the
//! *representation*, never the transition sequence: every cycle advance,
//! stall split, memory access and statistics delta is performed in the
//! same order with the same operands as the interpreter, and the
//! differential tests assert bit-identical [`RunSummary`]s. The backend
//! only activates for observation-free runs — no per-bundle trace hook, a
//! [`NullTracer`] (every event sink a no-op), and an inert
//! [`FaultPlan`](rvliw_fault::FaultPlan) — so there is no observer whose
//! view could distinguish the backends. Anything else, and any control
//! transfer into the middle of a block (a computed `return` target), falls
//! back to the interpreter mid-run.
//!
//! Compiled blocks are cached on the machine, keyed by the program's
//! 128-bit content address ([`Code::content_key`]) — the same
//! content-addressed identity discipline as `rvliw-cache` — so separately
//! scheduled but identical programs share one compilation and different
//! programs can never cross-serve.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};

use rvliw_asm::Code;
use rvliw_isa::{block_leaders, Dest, Gpr, NUM_BRS, NUM_GPRS};
use rvliw_mem::MemorySystem;

use crate::decode::{DSrc, DecodedCode, DecodedOp, ExecKind, ScoreRead, NUM_OP_CLASSES};
use crate::exec::PureFn;
use crate::machine::{Machine, SimError, MAX_ISSUE};
use crate::BUNDLE_BYTES;

/// Which issue loop a [`Machine`](crate::Machine) run uses.
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

/// One operation of a micro-trace, with the operand-shape decisions taken
/// at compile time so the hot loop never re-matches [`DSrc`] patterns.
/// Shapes the compiler does not specialize fall back to [`MicroOp::Gen`],
/// which re-enters the interpreter's exec phase for that operation only.
#[derive(Debug, Clone)]
enum MicroOp {
    /// Pure op over two register sources (`$r0` encodes as index 0, whose
    /// array slot is never written and stays 0).
    PureGG {
        f: PureFn,
        a: u8,
        b: u8,
        dest: Dest,
        lat: u64,
    },
    /// Pure op over a register and an immediate, in that order.
    PureGI {
        f: PureFn,
        a: u8,
        imm: u32,
        dest: Dest,
        lat: u64,
    },
    /// Pure op over one register source.
    PureG {
        f: PureFn,
        a: u8,
        dest: Dest,
        lat: u64,
    },
    /// Pure op over one immediate (e.g. `movi`).
    PureI {
        f: PureFn,
        imm: u32,
        dest: Dest,
        lat: u64,
    },
    /// Load from `gpr[base] + off`.
    Load {
        base: u8,
        off: u32,
        size: u8,
        sext_from: u8,
        dest: Dest,
        lat: u64,
    },
    /// Store `gpr[val]` to `gpr[base] + off`.
    Store {
        val: u8,
        base: u8,
        off: u32,
        size: u8,
    },
    /// Conditional branch on a branch register, resolved target.
    BrCondB {
        breg: u8,
        on_true: bool,
        target: u32,
    },
    /// Conditional branch on a general register, resolved target.
    BrCondG {
        greg: u8,
        on_true: bool,
        target: u32,
    },
    /// Unconditional jump, resolved target.
    Goto { target: u32 },
    /// Stop the run.
    Halt,
    /// No operation.
    Nop,
    /// Any other shape: executed through the interpreter's exec phase.
    Gen(Box<DecodedOp>),
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

/// One compiled basic block: bundle templates plus the flat micro-op and
/// scoreboard-read arrays they index.
#[derive(Debug)]
struct Block {
    first_pc: u32,
    bundles: Vec<BundleTpl>,
    ops: Vec<MicroOp>,
    reads: Vec<ScoreRead>,
    /// Operations issued by the whole block, per class (added in one shot
    /// when the block completes).
    total_classes: [u64; NUM_OP_CLASSES],
    /// Per-bundle per-class issue counts, kept out of the hot
    /// [`BundleTpl`] array: only the cold exits (cycle limit, errors
    /// inside a block) reconstruct partial-pass statistics from them.
    class_counts: Vec<[u8; NUM_OP_CLASSES]>,
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
    let mut ops = Vec::new();
    let mut reads = Vec::new();
    let mut total_classes = [0u64; NUM_OP_CLASSES];
    let mut class_counts = Vec::with_capacity(end - first_pc);
    // Symbolic scoreboard: the latest in-block writer of each register as
    // `(bundle offset, Some(latency))`, or `None` latency for writes whose
    // ready time the compiler cannot see (RFU results, the link register).
    let mut gpr_w: [Option<(usize, Option<u64>)>; NUM_GPRS] = [None; NUM_GPRS];
    let mut br_w: [Option<(usize, Option<u64>)>; NUM_BRS] = [None; NUM_BRS];
    let mut live_ins: Vec<ScoreRead> = Vec::new();
    for pc in first_pc..end {
        let k = pc - first_pc;
        let ops_start = ops.len() as u32;
        let reads_start = reads.len() as u32;
        for op in decoded.ops_of(pc) {
            ops.push(lower(op));
        }
        reads.extend_from_slice(decoded.reads_of(pc));
        class_counts.push(*decoded.class_counts_of(pc));
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
        let mut no_stall = !decoded.has_rfu(pc);
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
            // Pure and load results complete `lat` after the cycle that
            // issued them (a load's post-stall cycle only pushes the
            // ready time *and* every later bundle equally). Everything
            // else that writes does so on a schedule the compiler cannot
            // see; record the destination with unknown latency.
            let lat = match op.kind {
                ExecKind::Pure(_) | ExecKind::Load { .. } => Some(op.lat),
                _ => None,
            };
            match op.dest {
                Dest::Gpr(g) => {
                    if !g.is_zero() {
                        gpr_w[g.index() as usize] = Some((k, lat));
                    }
                }
                Dest::Br(b) => br_w[b.index() as usize] = Some((k, lat)),
                Dest::None => {}
            }
            if matches!(op.kind, ExecKind::Call { .. }) {
                // `call` writes the link register as a side effect.
                gpr_w[Gpr::LINK.index() as usize] = Some((k, None));
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
            ops_start,
            reads_start,
            ops_len: decoded.ops_of(pc).len() as u8,
            reads_len: decoded.reads_of(pc).len() as u16,
            has_rfu: decoded.has_rfu(pc),
            ifetch,
            ifetch_addr: addr,
            all_direct: bundle_all_direct(&ops[ops_start as usize..]),
            no_stall,
        });
    }
    Block {
        first_pc: first_pc as u32,
        bundles,
        ops,
        reads,
        total_classes,
        class_counts,
        live_ins,
    }
}

/// Whether a bundle's register writes may be committed in place during
/// the exec phase instead of going through the deferred write-back
/// scratch. Sound exactly when the scratch is unobservable:
///
/// - no operation reads a register an earlier op of the same bundle
///   wrote, so every source still observes pre-bundle state;
/// - no fallible operation (memory access, interpreter-executed op)
///   follows a register write — a memory error aborts the bundle with its
///   pending writes discarded, and in-place commits could not be undone;
/// - no interpreter-executed ([`MicroOp::Gen`]) op participates (the
///   interpreter's exec phase expects the scratch).
///
/// In-place writes then land in issue order — the same order the
/// write-back loop would apply them.
fn bundle_all_direct(mops: &[MicroOp]) -> bool {
    let (mut gw, mut bw) = (0u64, 0u64);
    let mut wrote = false;
    for mop in mops {
        let (rg, rb, fallible, dest) = match *mop {
            MicroOp::PureGG { a, b, dest, .. } => (1u64 << a | 1u64 << b, 0, false, dest),
            MicroOp::PureGI { a, dest, .. } | MicroOp::PureG { a, dest, .. } => {
                (1u64 << a, 0, false, dest)
            }
            MicroOp::PureI { dest, .. } => (0, 0, false, dest),
            MicroOp::Load { base, dest, .. } => (1u64 << base, 0, true, dest),
            MicroOp::Store { val, base, .. } => (1u64 << val | 1u64 << base, 0, true, Dest::None),
            MicroOp::BrCondB { breg, .. } => (0, 1u64 << breg, false, Dest::None),
            MicroOp::BrCondG { greg, .. } => (1u64 << greg, 0, false, Dest::None),
            MicroOp::Goto { .. } | MicroOp::Halt | MicroOp::Nop => (0, 0, false, Dest::None),
            MicroOp::Gen(_) => return false,
        };
        if rg & gw != 0 || rb & bw != 0 || (fallible && wrote) {
            return false;
        }
        match dest {
            Dest::Gpr(g) if !g.is_zero() => {
                gw |= 1u64 << g.index();
                wrote = true;
            }
            Dest::Br(b) => {
                bw |= 1u64 << b.index();
                wrote = true;
            }
            _ => {}
        }
    }
    true
}

/// Lowers one decoded operation to its micro-trace form.
fn lower(op: &DecodedOp) -> MicroOp {
    // `$r0` reads as array slot 0, which no write-back ever touches.
    let gidx = |s: &DSrc| match *s {
        DSrc::Gpr(i) => Some(i),
        DSrc::Zero => Some(0),
        DSrc::Br(_) | DSrc::Imm(_) => None,
    };
    let gen = || MicroOp::Gen(Box::new(op.clone()));
    match op.kind {
        ExecKind::Pure(f) => match op.srcs() {
            [a, b] => match (gidx(a), gidx(b), b) {
                (Some(a), Some(b), _) => MicroOp::PureGG {
                    f,
                    a,
                    b,
                    dest: op.dest,
                    lat: op.lat,
                },
                (Some(a), None, DSrc::Imm(imm)) => MicroOp::PureGI {
                    f,
                    a,
                    imm: *imm,
                    dest: op.dest,
                    lat: op.lat,
                },
                _ => gen(),
            },
            [a] => match (gidx(a), a) {
                (Some(a), _) => MicroOp::PureG {
                    f,
                    a,
                    dest: op.dest,
                    lat: op.lat,
                },
                (None, DSrc::Imm(imm)) => MicroOp::PureI {
                    f,
                    imm: *imm,
                    dest: op.dest,
                    lat: op.lat,
                },
                _ => gen(),
            },
            _ => gen(),
        },
        ExecKind::Load { size, sext_from } => {
            let (base, off) = match op.srcs() {
                [a] => match (gidx(a), a) {
                    (Some(a), _) => (a, 0),
                    (None, DSrc::Imm(v)) => (0, *v),
                    _ => return gen(),
                },
                [a, DSrc::Imm(v)] => match gidx(a) {
                    Some(a) => (a, *v),
                    None => return gen(),
                },
                _ => return gen(),
            };
            MicroOp::Load {
                base,
                off,
                size: size as u8,
                sext_from,
                dest: op.dest,
                lat: op.lat,
            }
        }
        ExecKind::Store { size } => match op.srcs() {
            [v, a] => match (gidx(v), gidx(a)) {
                (Some(val), Some(base)) => MicroOp::Store {
                    val,
                    base,
                    off: 0,
                    size: size as u8,
                },
                _ => gen(),
            },
            [v, a, DSrc::Imm(off)] => match (gidx(v), gidx(a)) {
                (Some(val), Some(base)) => MicroOp::Store {
                    val,
                    base,
                    off: *off,
                    size: size as u8,
                },
                _ => gen(),
            },
            _ => gen(),
        },
        ExecKind::BrCond {
            on_true,
            target: Some(target),
        } => match op.srcs() {
            [DSrc::Br(b)] => MicroOp::BrCondB {
                breg: *b,
                on_true,
                target,
            },
            [DSrc::Gpr(g)] => MicroOp::BrCondG {
                greg: *g,
                on_true,
                target,
            },
            _ => gen(),
        },
        ExecKind::Goto {
            target: Some(target),
        } => MicroOp::Goto { target },
        ExecKind::Halt => MicroOp::Halt,
        ExecKind::Nop => MicroOp::Nop,
        _ => gen(),
    }
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
    limit: u64,
) -> Result<BlockExit, SimError> {
    let mut pc = 0usize;
    let mut cyc = m.cycle;
    let entry_cyc = cyc;
    let penalty = m.branch_taken_penalty;
    let mut agg = Agg::default();
    // The issue scratch lives outside the loop and is never reinitialized:
    // only `..nwrites` is ever read back.
    let mut writes: [(Dest, u32, u64); MAX_ISSUE] = [(Dest::None, 0, 0); MAX_ISSUE];
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
                // issued; reconstruct the classes of the issued prefix.
                for cc in &blk.class_counts[..i] {
                    for (total, &c) in agg.classes.iter_mut().zip(cc) {
                        *total += u64::from(c);
                    }
                }
                agg.flush(m, cyc, entry_cyc);
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
                let reads = &blk.reads[bt.reads_start as usize..][..bt.reads_len as usize];
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

            // Execute phase. Sources observe pre-bundle register state
            // (write-back is deferred), exactly as the interpreter.
            // Bundles statically proven free of intra-bundle hazards
            // ([`bundle_all_direct`]) commit their writes in place as they
            // execute; the rest stage them in the issue scratch and apply
            // them in the write-back phase below.
            let ops = &blk.ops[bt.ops_start as usize..][..bt.ops_len as usize];
            agg.ops += ops.len() as u64;
            let mut nwrites = 0usize;
            let mut next_pc: Option<usize> = None;
            let mut halted = false;
            let pc_abs = blk.first_pc as usize + i;
            // Stage a write in the issue scratch (applied at write-back).
            macro_rules! defer_write {
                ($d:expr, $v:expr, $r:expr) => {{
                    writes[nwrites] = ($d, $v, $r);
                    nwrites += 1;
                }};
            }
            // Commit a write in place, exactly as write-back would.
            macro_rules! direct_write {
                ($d:expr, $v:expr, $r:expr) => {
                    match $d {
                        Dest::None => {}
                        Dest::Gpr(g) => {
                            if !g.is_zero() {
                                m.gpr[g.index() as usize] = $v;
                                m.gpr_ready[g.index() as usize] = $r;
                            }
                        }
                        Dest::Br(b) => {
                            m.br[b.index() as usize] = $v != 0;
                            m.br_ready[b.index() as usize] = $r;
                        }
                    }
                };
            }
            // The exec loop, parameterized by the write-commit policy.
            macro_rules! exec_ops {
                ($commit:ident) => {
                    for op in ops {
                        match *op {
                            MicroOp::PureGG { f, a, b, dest, lat } => {
                                let v = f(&[m.gpr[a as usize], m.gpr[b as usize]]);
                                $commit!(dest, v, cyc + lat);
                            }
                            MicroOp::PureGI {
                                f,
                                a,
                                imm,
                                dest,
                                lat,
                            } => {
                                let v = f(&[m.gpr[a as usize], imm]);
                                $commit!(dest, v, cyc + lat);
                            }
                            MicroOp::PureG { f, a, dest, lat } => {
                                let v = f(&[m.gpr[a as usize]]);
                                $commit!(dest, v, cyc + lat);
                            }
                            MicroOp::PureI { f, imm, dest, lat } => {
                                let v = f(&[imm]);
                                $commit!(dest, v, cyc + lat);
                            }
                            MicroOp::Load {
                                base,
                                off,
                                size,
                                sext_from,
                                dest,
                                lat,
                            } => {
                                let addr = m.gpr[base as usize].wrapping_add(off);
                                let acc = match m.mem.read(addr, u32::from(size), cyc) {
                                    Ok(acc) => acc,
                                    Err(e) => {
                                        exec_error_flush(m, &mut agg, blk, i, cyc, entry_cyc);
                                        return Err(SimError::Mem(e));
                                    }
                                };
                                // Whole-machine stall on a miss.
                                cyc += acc.stall;
                                let v = match sext_from {
                                    16 => acc.value as u16 as i16 as i32 as u32,
                                    8 => acc.value as u8 as i8 as i32 as u32,
                                    _ => acc.value,
                                };
                                $commit!(dest, v, cyc + lat);
                            }
                            MicroOp::Store {
                                val,
                                base,
                                off,
                                size,
                            } => {
                                let addr = m.gpr[base as usize].wrapping_add(off);
                                let value = m.gpr[val as usize];
                                let acc = match m.mem.write(addr, u32::from(size), value, cyc) {
                                    Ok(acc) => acc,
                                    Err(e) => {
                                        exec_error_flush(m, &mut agg, blk, i, cyc, entry_cyc);
                                        return Err(SimError::Mem(e));
                                    }
                                };
                                cyc += acc.stall;
                            }
                            MicroOp::BrCondB {
                                breg,
                                on_true,
                                target,
                            } => {
                                if m.br[breg as usize] == on_true {
                                    next_pc = Some(target as usize);
                                }
                            }
                            MicroOp::BrCondG {
                                greg,
                                on_true,
                                target,
                            } => {
                                if (m.gpr[greg as usize] != 0) == on_true {
                                    next_pc = Some(target as usize);
                                }
                            }
                            MicroOp::Goto { target } => next_pc = Some(target as usize),
                            MicroOp::Halt => halted = true,
                            MicroOp::Nop => {}
                            MicroOp::Gen(ref dop) => {
                                // The interpreter's exec phase for this
                                // operation: gather sources, sync the cycle
                                // counter across the call (it may stall),
                                // restore it after. Its writes always go
                                // through the scratch (`bundle_all_direct`
                                // is false for bundles containing one).
                                let mut slot = [0u32; rvliw_isa::MAX_SRCS];
                                let nsrcs = dop.srcs().len();
                                for (s, v) in dop.srcs().iter().zip(slot.iter_mut()) {
                                    *v = match *s {
                                        DSrc::Gpr(idx) => m.gpr[idx as usize],
                                        DSrc::Zero => 0,
                                        DSrc::Br(idx) => u32::from(m.br[idx as usize]),
                                        DSrc::Imm(imm) => imm,
                                    };
                                }
                                m.cycle = cyc;
                                let r = m.exec_op(
                                    dop,
                                    &slot[..nsrcs],
                                    &mut writes,
                                    &mut nwrites,
                                    &mut next_pc,
                                    &mut halted,
                                    pc_abs,
                                    &mut rvliw_trace::NullTracer,
                                );
                                cyc = m.cycle;
                                if let Err(e) = r {
                                    exec_error_flush(m, &mut agg, blk, i, cyc, entry_cyc);
                                    return Err(e);
                                }
                            }
                        }
                    }
                };
            }
            if bt.all_direct {
                exec_ops!(direct_write);
            } else {
                exec_ops!(defer_write);
            }

            // Write-back phase (no-op for all-direct bundles).
            for &(dest, value, ready) in &writes[..nwrites] {
                match dest {
                    Dest::None => {}
                    Dest::Gpr(r) => {
                        if !r.is_zero() {
                            m.gpr[r.index() as usize] = value;
                            m.gpr_ready[r.index() as usize] = ready;
                        }
                    }
                    Dest::Br(b) => {
                        m.br[b.index() as usize] = value != 0;
                        m.br_ready[b.index() as usize] = ready;
                    }
                }
            }

            agg.bundles += 1;
            cyc += 1;

            if halted {
                for (total, &c) in agg.classes.iter_mut().zip(&blk.total_classes) {
                    *total += c;
                }
                note_resident(m, blocks, fast_ifetch, entry_misses, blk_ptr, icache_gen);
                agg.flush(m, cyc, entry_cyc);
                return Ok(BlockExit::Halted);
            }
            if let Some(t) = next_pc {
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

/// Cold path: an error escaped the exec phase of bundle `i`. The
/// interpreter had already counted that bundle's ops and classes (but not
/// the bundle itself); reconstruct the same totals before flushing.
fn exec_error_flush(
    m: &mut Machine,
    agg: &mut Agg,
    blk: &Block,
    i: usize,
    cyc: u64,
    entry_cyc: u64,
) {
    for cc in &blk.class_counts[..=i] {
        for (total, &c) in agg.classes.iter_mut().zip(cc) {
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
