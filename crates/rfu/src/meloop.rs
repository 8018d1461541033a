//! The long-latency motion-estimation kernel-loop instruction.
//!
//! Functional semantics (exact MPEG-4 half-sample interpolation + SAD) and
//! the timed walk over the memory system: the RFU autonomously fetches the
//! predictor rows at the configured bandwidth while the reference macroblock
//! streams from Line Buffer A; with the two-line-buffer scheme the predictor
//! rows come from Line Buffer B and the cache is touched only on misses.

use std::borrow::Cow;

use rvliw_mem::{MemError, MemorySystem};
use rvliw_trace::{RfuEvent, Tracer};

use crate::config::{MeLoopCfg, SadApprox};
use crate::line_buffer::{LineBufferA, LineBufferB};
use crate::stats::RfuStats;
use crate::unit::RfuError;
use crate::{LB_DEADLOCK_LIMIT, MB_SIZE};

/// Half-sample interpolation mode of a candidate predictor, selected by the
/// sub-pixel components of the motion vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum InterpMode {
    /// Integer-pixel candidate: no interpolation.
    #[default]
    None,
    /// Horizontal half-sample.
    H,
    /// Vertical half-sample.
    V,
    /// Diagonal half-sample (both components).
    Diag,
}

impl InterpMode {
    /// Encodes the mode into the 2-bit field carried by RFU instruction
    /// operands.
    #[must_use]
    pub fn to_bits(self) -> u32 {
        match self {
            InterpMode::None => 0,
            InterpMode::H => 1,
            InterpMode::V => 2,
            InterpMode::Diag => 3,
        }
    }

    /// Decodes the 2-bit operand field.
    #[must_use]
    pub fn from_bits(bits: u32) -> Self {
        match bits & 3 {
            0 => InterpMode::None,
            1 => InterpMode::H,
            2 => InterpMode::V,
            _ => InterpMode::Diag,
        }
    }

    /// Whether the predictor needs pixel column 16 (one past the block).
    #[must_use]
    pub fn needs_extra_col(self) -> bool {
        matches!(self, InterpMode::H | InterpMode::Diag)
    }

    /// Whether the predictor needs pixel row 16 (one below the block).
    #[must_use]
    pub fn needs_extra_row(self) -> bool {
        matches!(self, InterpMode::V | InterpMode::Diag)
    }
}

/// Exact MPEG-4 half-sample interpolation of one predictor pixel
/// (rounding control 0).
#[must_use]
pub fn interp_pixel(p00: u8, p01: u8, p10: u8, p11: u8, mode: InterpMode) -> u8 {
    let (a, b, c, d) = (
        u16::from(p00),
        u16::from(p01),
        u16::from(p10),
        u16::from(p11),
    );
    (match mode {
        InterpMode::None => a,
        InterpMode::H => (a + b + 1) >> 1,
        InterpMode::V => (a + c + 1) >> 1,
        InterpMode::Diag => (a + b + c + d + 2) >> 2,
    }) as u8
}

/// Golden SAD between the (interpolated) predictor at `cand_addr` and the
/// 16×16 reference at `ref_addr`, both laid out with row `stride`, reading
/// bytes functionally from RAM.
#[must_use]
pub fn golden_sad(
    ram: &rvliw_mem::Ram,
    ref_addr: u32,
    cand_addr: u32,
    stride: u32,
    mode: InterpMode,
) -> u32 {
    golden_sad_approx(ram, ref_addr, cand_addr, stride, mode, SadApprox::Exact)
}

/// [`golden_sad`] under an approximate datapath: the same interpolation,
/// with the mode's pixel mask, row subsampling and early-exit cutoff
/// applied exactly as the encoder-side reference does.
///
/// Reads only the mode's footprint: 16×16 predictor pixels for an
/// integer-pel candidate, one more column for horizontal and one more row
/// for vertical interpolation, both for diagonal.
#[must_use]
pub fn golden_sad_approx(
    ram: &rvliw_mem::Ram,
    ref_addr: u32,
    cand_addr: u32,
    stride: u32,
    mode: InterpMode,
    approx: SadApprox,
) -> u32 {
    sad_rows(ram, cand_addr, stride, mode, approx, |y| {
        ram.read_bytes(ref_addr + y * stride, MB_SIZE as u32)
    })
}

/// The SAD accumulation shared by [`golden_sad_approx`] and
/// [`sad_via_lba`]: candidate rows come from RAM, reference row `y` from
/// `reference(y)`.
fn sad_rows<'a>(
    ram: &rvliw_mem::Ram,
    cand_addr: u32,
    stride: u32,
    mode: InterpMode,
    approx: SadApprox,
    reference: impl Fn(u32) -> Cow<'a, [u8]>,
) -> u32 {
    let cols = MB_SIZE as u32 + u32::from(mode.needs_extra_col());
    let mask = approx.pixel_mask();
    let mut sad = 0u32;
    let mut y = 0;
    while y < MB_SIZE as u32 {
        let row = cand_addr + y * stride;
        let below = if mode.needs_extra_row() {
            ram.read_bytes(row + stride, cols)
        } else {
            Cow::Borrowed(&[][..])
        };
        sad += row_sad(
            mode,
            &ram.read_bytes(row, cols),
            &below,
            &reference(y),
            mask,
        );
        if let SadApprox::EarlyExit { threshold } = approx {
            if sad > threshold {
                return sad;
            }
        }
        y += approx.row_step();
    }
    sad
}

/// SAD of one row: the 16 predictor pixels interpolated from candidate
/// row `c0` (and `c1`, the row below, for vertical and diagonal modes)
/// against reference row `r`, every pixel masked by `mask`. Same
/// arithmetic as [`interp_pixel`], one loop per mode. The rows are copied
/// into fixed-size arrays first so the loops compile to a few SIMD
/// instructions.
#[inline]
fn row_sad(mode: InterpMode, c0: &[u8], c1: &[u8], r: &[u8], mask: u8) -> u32 {
    const N: usize = MB_SIZE;
    let mut pred: [u8; N] = row(c0);
    match mode {
        InterpMode::None => {}
        InterpMode::H => {
            let a: [u8; N + 1] = row(c0);
            for x in 0..N {
                pred[x] = ((u16::from(a[x]) + u16::from(a[x + 1]) + 1) >> 1) as u8;
            }
        }
        InterpMode::V => {
            let b: [u8; N] = row(c1);
            for x in 0..N {
                pred[x] = ((u16::from(pred[x]) + u16::from(b[x]) + 1) >> 1) as u8;
            }
        }
        InterpMode::Diag => {
            let (a, b): ([u8; N + 1], [u8; N + 1]) = (row(c0), row(c1));
            for x in 0..N {
                let s =
                    u16::from(a[x]) + u16::from(a[x + 1]) + u16::from(b[x]) + u16::from(b[x + 1]);
                pred[x] = ((s + 2) >> 2) as u8;
            }
        }
    }
    let r: [u8; N] = row(r);
    let mut sad = 0u32;
    for x in 0..N {
        sad += u32::from((pred[x] & mask).abs_diff(r[x] & mask));
    }
    sad
}

/// The first `M` bytes of `pixels` as an array.
#[inline]
fn row<const M: usize>(pixels: &[u8]) -> [u8; M] {
    let mut out = [0; M];
    out.copy_from_slice(&pixels[..M]);
    out
}

/// Outcome of a timed kernel-loop execution (internal to the crate; the
/// public wrapper is [`crate::ExecOutcome`]).
pub(crate) struct LoopRun {
    pub sad: u32,
    pub busy: u64,
    pub stall: u64,
}

/// Executes the ME kernel loop: timed memory walk + functional SAD.
///
/// # Errors
///
/// [`RfuError::Mem`] when a macroblock footprint reaches outside simulated
/// memory, [`RfuError::LineBufferDeadlock`] when a line-buffer row's `Done`
/// flag is further than [`LB_DEADLOCK_LIMIT`] cycles away (only reachable
/// under injected faults).
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_me_loop<T: Tracer + ?Sized>(
    cfg: &MeLoopCfg,
    cand_addr: u32,
    ref_addr: u32,
    mode: InterpMode,
    lb_a: &LineBufferA,
    lb_b: &mut LineBufferB,
    mem: &mut MemorySystem,
    now: u64,
    stats: &mut RfuStats,
    tracer: &mut T,
) -> Result<LoopRun, RfuError> {
    let ii = cfg.initiation_interval();
    let stride = cfg.stride;
    let mut stall: u64 = 0;
    let pred_rows = MB_SIZE as u32 + u32::from(mode.needs_extra_row());
    let pred_cols = MB_SIZE as u32 + u32::from(mode.needs_extra_col());

    // Validate both macroblock footprints before the timed walk so the
    // functional byte reads below can never index outside RAM.
    let ram_size = u64::from(mem.ram.size());
    let cand_end =
        u64::from(cand_addr) + u64::from(pred_rows - 1) * u64::from(stride) + u64::from(pred_cols);
    if cand_end > ram_size {
        return Err(RfuError::Mem(MemError::OutOfRange {
            addr: cand_addr,
            size: pred_cols,
        }));
    }
    let ref_end = u64::from(ref_addr) + (MB_SIZE as u64 - 1) * u64::from(stride) + MB_SIZE as u64;
    if ref_end > ram_size {
        return Err(RfuError::Mem(MemError::OutOfRange {
            addr: ref_addr,
            size: MB_SIZE as u32,
        }));
    }

    // The rows the walk actually touches: all of them in the exact modes,
    // only the sampled rows (plus the row below each, for vertical and
    // diagonal interpolation) under row subsampling. Early exit does not
    // shorten the walk — the loop latency is compiler-visible and fixed.
    let row_step = cfg.approx.row_step();
    let sampled = |y: u32| y < MB_SIZE as u32 && y.is_multiple_of(row_step);
    let touched = (0..pred_rows)
        .filter(|&r| sampled(r) || (mode.needs_extra_row() && r > 0 && sampled(r - 1)));
    for (i, r) in touched.enumerate() {
        let offset = cfg.prologue + i as u64 * ii;
        // --- predictor row: cache lines [row_addr, row_addr + cols) -------
        let row_addr = cand_addr + r * stride;
        let first_line = mem.dcache.line_of(row_addr);
        let last_line = mem.dcache.line_of(row_addr + pred_cols - 1);
        let mut line = first_line;
        loop {
            let eff = now + offset + stall;
            if cfg.use_line_buffer_b {
                match lb_b.read(line, eff) {
                    Some(0) => {
                        stats.lbb_hits += 1;
                        tracer.rfu(eff, RfuEvent::LbbHit);
                    }
                    Some(extra) => {
                        if extra > LB_DEADLOCK_LIMIT {
                            return Err(RfuError::LineBufferDeadlock {
                                row: r,
                                waited: extra,
                            });
                        }
                        stats.lbb_late += 1;
                        stall += extra;
                        mem.account_stall(extra);
                        tracer.rfu(eff, RfuEvent::LbbLate { wait: extra });
                    }
                    None => {
                        stats.lbb_misses += 1;
                        tracer.rfu(eff, RfuEvent::LbbMiss);
                        let acc = mem.read_traced(line, 4, eff, tracer)?;
                        stall += acc.stall;
                    }
                }
            } else {
                let acc = mem.read_traced(line.max(row_addr), 4, eff, tracer)?;
                stall += acc.stall;
            }
            if line == last_line {
                break;
            }
            line += mem.dcache.geometry().line_size;
        }
        // --- reference row from Line Buffer A -----------------------------
        // Only sampled rows difference against the reference; the +1 rows
        // of a subsampled walk feed interpolation only.
        if sampled(r) {
            let eff = now + offset + stall;
            if lb_a.base() == Some(ref_addr) {
                let ready = lb_a.row_ready_at(r as usize);
                if ready == u64::MAX {
                    // Gather was dropped: the RFU stalls the processor and
                    // issues the corresponding cache accesses.
                    let row_addr = ref_addr + r * stride;
                    let acc = mem.read_traced(row_addr, 4, eff, tracer)?;
                    stall += acc.stall;
                } else if ready > eff {
                    let wait = ready - eff;
                    if wait > LB_DEADLOCK_LIMIT {
                        // The row's Done flag is unreachably far away — a
                        // stuck gather (fault injection), not a slow one.
                        return Err(RfuError::LineBufferDeadlock {
                            row: r,
                            waited: wait,
                        });
                    }
                    stats.lba_waits += 1;
                    stats.lba_wait_cycles += wait;
                    stall += wait;
                    mem.account_stall(wait);
                    tracer.rfu(eff, RfuEvent::LbaWait { row: r, wait });
                }
            } else {
                // No gathered reference: plain cache accesses.
                let row_addr = ref_addr + r * stride;
                let acc = mem.read_traced(row_addr, 4, eff, tracer)?;
                stall += acc.stall;
            }
        }
        tracer.rfu(
            now + offset,
            RfuEvent::LoopRow {
                row: r,
                stall_so_far: stall,
            },
        );
    }

    // Reference pixels come from Line Buffer A when it holds the gathered
    // macroblock — under fault-free operation the rows are bit-identical
    // copies of RAM, but an injected bit flip in the gather must surface in
    // the SAD the scenario observes.
    let sad = if lb_a.base() == Some(ref_addr) {
        sad_via_lba(
            lb_a, &mem.ram, ref_addr, cand_addr, stride, mode, cfg.approx,
        )
    } else {
        golden_sad_approx(&mem.ram, ref_addr, cand_addr, stride, mode, cfg.approx)
    };
    let busy = cfg.static_latency();
    stats.loops += 1;
    stats.loop_busy_cycles += busy;
    stats.loop_stall_cycles += stall;
    Ok(LoopRun { sad, busy, stall })
}

/// SAD with reference pixels sourced from Line Buffer A's gathered rows
/// (dropped rows fall back to RAM, mirroring the timed walk above).
fn sad_via_lba(
    lb_a: &LineBufferA,
    ram: &rvliw_mem::Ram,
    ref_addr: u32,
    cand_addr: u32,
    stride: u32,
    mode: InterpMode,
    approx: SadApprox,
) -> u32 {
    sad_rows(ram, cand_addr, stride, mode, approx, |y| {
        if lb_a.row_ready_at(y as usize) == u64::MAX {
            ram.read_bytes(ref_addr + y * stride, MB_SIZE as u32)
        } else {
            Cow::Borrowed(lb_a.row(y as usize))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interp_modes_match_mpeg4_rounding() {
        assert_eq!(interp_pixel(10, 11, 20, 21, InterpMode::None), 10);
        assert_eq!(interp_pixel(10, 11, 20, 21, InterpMode::H), 11); // (21+1)/2
        assert_eq!(interp_pixel(10, 11, 20, 21, InterpMode::V), 15); // (30+1)/2
        assert_eq!(interp_pixel(10, 11, 20, 21, InterpMode::Diag), 16); // (62+2)/4
    }

    #[test]
    fn interp_bits_roundtrip() {
        for m in [
            InterpMode::None,
            InterpMode::H,
            InterpMode::V,
            InterpMode::Diag,
        ] {
            assert_eq!(InterpMode::from_bits(m.to_bits()), m);
        }
    }

    #[test]
    fn extra_row_col_requirements() {
        assert!(!InterpMode::None.needs_extra_col());
        assert!(InterpMode::H.needs_extra_col());
        assert!(!InterpMode::H.needs_extra_row());
        assert!(InterpMode::Diag.needs_extra_col());
        assert!(InterpMode::Diag.needs_extra_row());
    }

    #[test]
    fn golden_sad_zero_for_identical_blocks() {
        let mut ram = rvliw_mem::Ram::new(1 << 16);
        let stride = 64;
        let a = ram.alloc(stride * 32, 32);
        for i in 0..stride * 20 {
            ram.store8(a + i, (i * 7 % 251) as u8);
        }
        assert_eq!(golden_sad(&ram, a, a, stride, InterpMode::None), 0);
    }

    #[test]
    fn golden_sad_counts_differences() {
        let mut ram = rvliw_mem::Ram::new(1 << 16);
        let stride = 64;
        let r = ram.alloc(stride * 20, 32);
        let c = ram.alloc(stride * 20, 32);
        // reference all 10, candidate all 13 ⇒ SAD = 3 * 256
        for y in 0..17 {
            for x in 0..17 {
                ram.store8(r + y * stride + x, 10);
                ram.store8(c + y * stride + x, 13);
            }
        }
        assert_eq!(golden_sad(&ram, r, c, stride, InterpMode::None), 3 * 256);
        // flat field: every interpolation yields the same value
        assert_eq!(golden_sad(&ram, r, c, stride, InterpMode::Diag), 3 * 256);
    }
}
