//! Property tests on the RFU model: functional exactness of the custom
//! interpolation instructions, timing monotonicity of the kernel loop,
//! Line Buffer B against a list-based reference model, and the kernel
//! loop's SAD at the very end of simulated memory.

use proptest::prelude::*;

use rvliw::mem::{MemConfig, MemError, MemorySystem};
use rvliw::mpeg4::sad::{self, InterpKind};
use rvliw::mpeg4::Plane;
use rvliw::rfu::{cfgs, unit, InterpMode, LineBufferB, MeLoopCfg, Rfu, RfuBandwidth, RfuError};

/// Scalar reference for the diagonal interpolation of one pixel.
fn diag_ref(p00: u8, p01: u8, p10: u8, p11: u8) -> u8 {
    ((u16::from(p00) + u16::from(p01) + u16::from(p10) + u16::from(p11) + 2) >> 2) as u8
}

proptest! {
    /// `diag4` equals the scalar reference for every alignment and window.
    #[test]
    fn diag4_is_exact(words in proptest::array::uniform4(any::<u32>()), align in 0u32..4) {
        let out = unit::diag4(words, align).to_le_bytes();
        let row = |w0: u32, w1: u32| {
            let mut b = [0u8; 8];
            b[..4].copy_from_slice(&w0.to_le_bytes());
            b[4..].copy_from_slice(&w1.to_le_bytes());
            b
        };
        let y = row(words[0], words[1]);
        let y1 = row(words[2], words[3]);
        let a = align as usize;
        for i in 0..4 {
            prop_assert_eq!(out[i], diag_ref(y[a + i], y[a + i + 1], y1[a + i], y1[a + i + 1]));
        }
    }

    /// `diag16` agrees with four `diag4` windows over the same rows.
    #[test]
    fn diag16_decomposes_into_diag4(
        y in proptest::array::uniform5(any::<u32>()),
        y1 in proptest::array::uniform5(any::<u32>()),
        align in 0u32..4,
    ) {
        let full = unit::diag16(y, y1, align);
        for g in 0..4usize {
            let part = unit::diag4([y[g], y[g + 1], y1[g], y1[g + 1]], align);
            prop_assert_eq!(full[g], part, "group {}", g);
        }
    }

    /// Static latency is monotone in β and anti-monotone in bandwidth, and
    /// the β=1→5 increase is the paper's fixed 12 cycles for every
    /// bandwidth.
    #[test]
    fn static_latency_monotonicity(beta in 1u64..6, stride in 64u32..512) {
        let lats: Vec<u64> = RfuBandwidth::all()
            .into_iter()
            .map(|bw| MeLoopCfg::new(bw, beta, stride).static_latency())
            .collect();
        prop_assert!(lats[0] > lats[1] && lats[1] > lats[2]);
        for bw in RfuBandwidth::all() {
            let l1 = MeLoopCfg::new(bw, 1, stride).static_latency();
            let l5 = MeLoopCfg::new(bw, 5, stride).static_latency();
            prop_assert_eq!(l5 - l1, 12);
            let lb = MeLoopCfg::new(bw, beta, stride).static_latency();
            let lb_next = MeLoopCfg::new(bw, beta + 1, stride).static_latency();
            prop_assert!(lb_next > lb);
        }
    }

    /// The ME loop's functional SAD never depends on timing state: cold
    /// caches, warm caches and prefetched line buffers all return the same
    /// value.
    #[test]
    fn meloop_sad_is_timing_independent(
        seed in any::<u32>(),
        cand_off in 0u32..80,
        interp in 0u32..4,
    ) {
        let stride = 176u32;
        let fill = |m: &mut MemorySystem| -> (u32, u32) {
            let frame = m.ram.alloc(stride * 120, 32);
            for i in 0..stride * 80 {
                let v = i.wrapping_mul(2_654_435_761).wrapping_add(seed);
                m.ram.store8(frame + i, (v >> 24) as u8);
            }
            (frame + 32 * stride + 48, frame + 20 * stride + 16 + cand_off)
        };
        let run = |prefetch: bool| -> u32 {
            let mut m = MemorySystem::new(MemConfig::st200_loop_level());
            let (ref_addr, cand) = fill(&mut m);
            let mut rfu = Rfu::with_case_study_configs(
                MeLoopCfg::new(RfuBandwidth::B1x32, 1, stride).with_line_buffer_b(),
            );
            if prefetch {
                rfu.pref(cfgs::PREF_REF, ref_addr, &mut m, 0).unwrap();
                rfu.pref(cfgs::PREF_CAND_LBB, cand, &mut m, 0).unwrap();
            }
            rfu.exec(cfgs::ME_LOOP, &[cand, interp, ref_addr], &mut m, 500)
                .unwrap()
                .value
        };
        prop_assert_eq!(run(true), run(false));
    }

    /// Differential test against the scalar golden model: for every RFU
    /// bandwidth, technology scaling β and interpolation mode (including
    /// all three half-sample paths), the kernel loop's SAD equals
    /// `mpeg4::sad::get_sad` on the same pixels — with the plain cache
    /// path and with the Line Buffer B path.
    #[test]
    fn meloop_sad_matches_scalar_golden_model(
        seed in any::<u32>(),
        rx in 0usize..160,
        ry in 0usize..79,
        cx in 0usize..159,
        cy in 0usize..79,
        interp in 0u32..4,
    ) {
        let stride = 176usize;
        let height = 96usize;
        let kind = match interp {
            0 => InterpKind::None,
            1 => InterpKind::H,
            2 => InterpKind::V,
            _ => InterpKind::Diag,
        };
        let mut plane = Plane::new(stride, height);
        for y in 0..height {
            for x in 0..stride {
                let i = (y * stride + x) as u32;
                let v = i.wrapping_mul(2_654_435_761).wrapping_add(seed);
                plane.set(x, y, (v >> 24) as u8);
            }
        }
        let golden = sad::get_sad(&plane, rx, ry, &plane, cx, cy, kind);

        // One memory image shared by every configuration: the SAD is
        // functional, so cache state carried between runs cannot matter
        // (`meloop_sad_is_timing_independent` guards that separately).
        let mut m = MemorySystem::new(MemConfig::st200_loop_level());
        let frame = m.ram.alloc((stride * height) as u32, 32);
        for (i, &b) in plane.data().iter().enumerate() {
            m.ram.store8(frame + i as u32, b);
        }
        let ref_addr = frame + (ry * stride + rx) as u32;
        let cand = frame + (cy * stride + cx) as u32;

        for bw in RfuBandwidth::all() {
            for beta in [1u64, 5] {
                for use_lbb in [false, true] {
                    let cfg = MeLoopCfg::new(bw, beta, stride as u32);
                    let cfg = if use_lbb { cfg.with_line_buffer_b() } else { cfg };
                    let mut rfu = Rfu::with_case_study_configs(cfg);
                    rfu.pref(cfgs::PREF_REF, ref_addr, &mut m, 0).unwrap();
                    let pref_cfg = if use_lbb { cfgs::PREF_CAND_LBB } else { cfgs::PREF_CAND };
                    rfu.pref(pref_cfg, cand, &mut m, 0).unwrap();
                    let got = rfu
                        .exec(cfgs::ME_LOOP, &[cand, interp, ref_addr], &mut m, 400)
                        .unwrap()
                        .value;
                    prop_assert_eq!(
                        got, golden,
                        "bw {:?} beta {} lbb {} interp {:?}", bw, beta, use_lbb, kind
                    );
                }
            }
        }
    }

    /// Prefetching a candidate never increases the loop's stall cycles.
    #[test]
    fn prefetch_never_hurts(seed in any::<u32>(), cand_off in 0u32..60) {
        let stride = 176u32;
        let run = |prefetch: bool| -> u64 {
            let mut m = MemorySystem::new(MemConfig::st200_loop_level());
            let frame = m.ram.alloc(stride * 120, 32);
            for i in 0..stride * 60 {
                m.ram.store8(frame + i, (i.wrapping_add(seed) % 251) as u8);
            }
            let ref_addr = frame + 32 * stride + 48;
            let cand = frame + 10 * stride + 16 + cand_off;
            let mut rfu = Rfu::with_case_study_configs(MeLoopCfg::new(
                RfuBandwidth::B1x32,
                1,
                stride,
            ));
            rfu.pref(cfgs::PREF_REF, ref_addr, &mut m, 0).unwrap();
            if prefetch {
                rfu.pref(cfgs::PREF_CAND, cand, &mut m, 0).unwrap();
            }
            rfu.exec(
                cfgs::ME_LOOP,
                &[cand, InterpMode::Diag.to_bits(), ref_addr],
                &mut m,
                10_000,
            )
            .unwrap()
            .stall
        };
        prop_assert!(run(true) <= run(false));
    }
}

/// Reference model of Line Buffer B: two banks of `(tag, ready)` entries
/// searched front to back, bank 0 first — the buffer as first specified.
struct ListLbbModel {
    banks: [Vec<(u32, u64)>; 2],
    fill_bank: usize,
    capacity: usize,
    hits: u64,
    misses: u64,
    late: u64,
    dedup: u64,
}

impl ListLbbModel {
    fn new(capacity: usize) -> Self {
        ListLbbModel {
            banks: [Vec::new(), Vec::new()],
            fill_bank: 0,
            capacity,
            hits: 0,
            misses: 0,
            late: 0,
            dedup: 0,
        }
    }

    fn swap_banks(&mut self) {
        self.fill_bank ^= 1;
        self.banks[self.fill_bank].clear();
    }

    fn probe(&self, line: u32) -> Option<u64> {
        self.banks
            .iter()
            .flatten()
            .find(|e| e.0 == line)
            .map(|e| e.1)
    }

    fn allocate(&mut self, line: u32, ready_at: u64) -> bool {
        let bank = &self.banks[self.fill_bank];
        let room = bank.len() < self.capacity;
        if let Some(prev) = self.probe(line) {
            self.dedup += 1;
            if !self.banks[self.fill_bank].iter().any(|e| e.0 == line) && room {
                self.banks[self.fill_bank].push((line, prev));
            }
            return true;
        }
        if room {
            self.banks[self.fill_bank].push((line, ready_at));
        }
        false
    }

    fn read(&mut self, line: u32, now: u64) -> Option<u64> {
        match self.probe(line) {
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

    fn len(&self) -> usize {
        self.banks[0].len() + self.banks[1].len()
    }
}

proptest! {
    /// Line Buffer B is a drop-in for the list model: same return values,
    /// occupancy and counters for any mix of allocations (the whole
    /// operation or its `inherit`/`insert` halves, as a candidate prefetch
    /// issues them), reads, probes and bank swaps.
    #[test]
    fn line_buffer_b_matches_list_model(
        capacity in 8usize..=68,
        ops in proptest::collection::vec((0u8..7, 0u32..96, 0u64..200), 1..300),
    ) {
        let mut lbb = LineBufferB::with_bank_capacity(capacity);
        let mut model = ListLbbModel::new(capacity);
        for (op, line, t) in ops {
            let line = line * 32;
            match op {
                0 | 1 => prop_assert_eq!(lbb.allocate(line, t), model.allocate(line, t)),
                2 => {
                    // A candidate prefetch: dedup first, a new request only
                    // for an untracked line.
                    let tracked = model.probe(line).is_some();
                    prop_assert_eq!(lbb.inherit(line), tracked);
                    if !tracked {
                        lbb.insert(line, t);
                    }
                    prop_assert_eq!(model.allocate(line, t), tracked);
                }
                3 | 4 => prop_assert_eq!(lbb.read(line, t), model.read(line, t)),
                5 => prop_assert_eq!(lbb.probe(line), model.probe(line)),
                _ => {
                    lbb.swap_banks();
                    model.swap_banks();
                }
            }
            prop_assert_eq!(lbb.len(), model.len());
            prop_assert_eq!(
                (lbb.hits, lbb.misses, lbb.late, lbb.dedup),
                (model.hits, model.misses, model.late, model.dedup)
            );
        }
    }
}

/// Scalar reference SAD reading only the pixels the mode interpolates.
fn reference_sad(m: &MemorySystem, ref_addr: u32, cand: u32, stride: u32, mode: InterpMode) -> u32 {
    let p = |x: u32, y: u32| u16::from(m.ram.load8(cand + y * stride + x));
    let mut total = 0;
    for y in 0..16 {
        for x in 0..16 {
            let pix = match mode {
                InterpMode::None => p(x, y),
                InterpMode::H => (p(x, y) + p(x + 1, y) + 1) >> 1,
                InterpMode::V => (p(x, y) + p(x, y + 1) + 1) >> 1,
                InterpMode::Diag => {
                    (p(x, y) + p(x + 1, y) + p(x, y + 1) + p(x + 1, y + 1) + 2) >> 2
                }
            };
            let r = u16::from(m.ram.load8(ref_addr + y * stride + x));
            total += u32::from(pix.abs_diff(r));
        }
    }
    total
}

/// A candidate whose footprint (16×16 pixels, plus a column for
/// horizontal and a row for vertical interpolation) ends exactly at the
/// end of simulated memory is a valid operand; one byte further is a
/// typed memory error. Holds with and without a gathered reference
/// macroblock, and with either line-buffer scheme.
#[test]
fn meloop_candidate_at_end_of_ram() {
    let stride = 176u32;
    for mode in [
        InterpMode::None,
        InterpMode::H,
        InterpMode::V,
        InterpMode::Diag,
    ] {
        for (use_lbb, gather) in [(false, false), (false, true), (true, true)] {
            let mut m = MemorySystem::new(MemConfig::st200_loop_level());
            let size = m.ram.size();
            let ref_addr = m.ram.alloc(stride * 16, 32);
            for i in 0..stride * 16 {
                m.ram.store8(ref_addr + i, (i * 13 % 251) as u8);
            }
            for i in 1..=stride * 18 {
                m.ram.store8(size - i, (i * 7 % 253) as u8);
            }
            let rows = 16 + u32::from(mode.needs_extra_row());
            let cols = 16 + u32::from(mode.needs_extra_col());
            let cand = size - ((rows - 1) * stride + cols);
            let cfg = MeLoopCfg::new(RfuBandwidth::B1x32, 1, stride);
            let mut rfu = Rfu::with_case_study_configs(if use_lbb {
                cfg.with_line_buffer_b()
            } else {
                cfg
            });
            if gather {
                rfu.pref(cfgs::PREF_REF, ref_addr, &mut m, 0).unwrap();
                let pref = if use_lbb {
                    cfgs::PREF_CAND_LBB
                } else {
                    cfgs::PREF_CAND
                };
                rfu.pref(pref, cand, &mut m, 0).unwrap();
            }
            let label = format!("{mode:?} lbb={use_lbb} gather={gather}");
            let out = rfu
                .exec(
                    cfgs::ME_LOOP,
                    &[cand, mode.to_bits(), ref_addr],
                    &mut m,
                    1000,
                )
                .unwrap_or_else(|e| panic!("{label}: footprint ending at the end of RAM: {e:?}"));
            assert_eq!(
                out.value,
                reference_sad(&m, ref_addr, cand, stride, mode),
                "{label}"
            );
            let err = rfu
                .exec(
                    cfgs::ME_LOOP,
                    &[cand + 1, mode.to_bits(), ref_addr],
                    &mut m,
                    2000,
                )
                .unwrap_err();
            assert!(
                matches!(err, RfuError::Mem(MemError::OutOfRange { .. })),
                "{label}: one byte past the end of RAM gave {err:?}"
            );
        }
    }
}
