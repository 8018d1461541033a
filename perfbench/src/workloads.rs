//! The three benchmark workloads and the inputs they are built from.

use std::time::{Duration, Instant};

use mpeg4_enc::{ApproxSad, Encoder, EncoderConfig, SyntheticSequence};
use rvliw_core::explore::{EngineChoice, ExploreSpace, ExploreSpec, ExploreStrategy};
use rvliw_core::{DcacheSpec, ExperimentSpec, Substrate, SweepAxes, Workload};
use rvliw_rfu::RfuBandwidth;

use crate::spans::{Trace, NO_ID};

/// The paper's sequence seed (`"FRMN"`), the default workload seed.
pub const PAPER_SEED: u64 = 0x4652_4d4e;

/// QCIF frames every workload encodes (the paper's sequence length).
pub const FRAMES: usize = 25;

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The 12 paper scenarios at 1 thread, no cache.
    PaperGrid,
    /// A 40-point loop-level sweep at 2 threads, no cache.
    RfuLoop,
    /// A budgeted exploration at 2 threads over a partly warm cache, with
    /// a journal.
    ExploreMixed,
}

impl Kind {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Kind; 3] = [Kind::PaperGrid, Kind::RfuLoop, Kind::ExploreMixed];

    /// The workload's command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Kind::PaperGrid => "paper_grid",
            Kind::RfuLoop => "rfu_loop",
            Kind::ExploreMixed => "explore_mixed",
        }
    }

    /// Parses a command-line name.
    #[must_use]
    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// Worker threads the workload's runner uses.
    #[must_use]
    pub fn threads(self) -> usize {
        match self {
            Kind::PaperGrid => 1,
            Kind::RfuLoop | Kind::ExploreMixed => 2,
        }
    }
}

/// A host-encoded workload plus how long each set-up step took.
#[derive(Debug)]
pub struct Built {
    /// The workload the scenarios replay.
    pub workload: Workload,
    /// `SyntheticSequence::generate`.
    pub generate: Duration,
    /// `Encoder::encode` of the base workload.
    pub encode: Duration,
}

/// Generates `frames` QCIF frames from `seed` and host-encodes them with
/// the paper's encoder configuration, timing both steps and recording
/// them as `mpeg4.generate` and `mpeg4.encode` spans under `parent`.
/// Equal to [`Workload::from_sequence`] (and to [`Workload::paper`] at
/// [`PAPER_SEED`] and 25 frames).
#[must_use]
pub fn build_workload(seed: u64, frames: usize, trace: &mut Trace, parent: Option<usize>) -> Built {
    let span = trace.open("mpeg4.generate", NO_ID, parent);
    let t0 = Instant::now();
    let source = SyntheticSequence::new(176, 144, frames, seed).generate();
    let generate = t0.elapsed();
    trace.close(span);
    let span = trace.open("mpeg4.encode", NO_ID, parent);
    let t1 = Instant::now();
    let report = Encoder::new(EncoderConfig::default()).encode(&source);
    let encode = t1.elapsed();
    trace.close(span);
    let stride = u32::try_from(source[0].width()).expect("QCIF width fits u32");
    Built {
        workload: Workload {
            frames: source,
            report,
            stride,
            quality: None,
        },
        generate,
        encode,
    }
}

/// `rfu_loop`: {1x32, 1x64, 2x64} × β 1..8 with one line buffer, plus
/// the two-line-buffer scheme × β 1..8 × Line Buffer B bank lines
/// {17, 34 (the default)} — 40 loop-level points.
#[must_use]
pub fn rfu_loop_spec(frames: usize) -> ExperimentSpec {
    let betas: Vec<u64> = (1..=8).collect();
    let mut two_lb = SweepAxes::loop_two_lb(betas.clone());
    if let SweepAxes::Loop { lbb_bank_lines, .. } = &mut two_lb {
        *lbb_bank_lines = vec![Some(17), None];
    }
    let mut spec = ExperimentSpec::new("rfu_loop")
        .sweep(SweepAxes::loop_grid(RfuBandwidth::all().to_vec(), betas))
        .sweep(two_lb);
    spec.frames = frames;
    spec
}

/// `explore_mixed`: coordinate descent with budget 40 over engine ×
/// β {1, 3, 5} × LBB lines {default, 17} × prefetch {default, 64} ×
/// D$ {default, 16k/2w} × approx {exact, rows/2, bits/2} × substrate
/// {vliw4, scalar}.
#[must_use]
pub fn explore_spec(frames: usize) -> ExploreSpec {
    let mut space = ExploreSpace::new(EngineChoice::all().to_vec(), vec![1, 3, 5]);
    space.lbb_bank_lines = vec![None, Some(17)];
    space.prefetch = vec![None, Some(64)];
    space.dcache = vec![
        None,
        Some(DcacheSpec {
            capacity_kb: 16,
            ways: 2,
        }),
    ];
    space.approx = vec![
        ApproxSad::Exact,
        ApproxSad::SubsampledRows { step: 2 },
        ApproxSad::ReducedPrecision { bits: 2 },
    ];
    space.substrate = vec![Substrate::Vliw4, Substrate::ScalarInOrder];
    let mut spec = ExploreSpec::new(
        "explore_mixed",
        ExploreStrategy::CoordinateDescent,
        40,
        space,
    );
    spec.frames = frames;
    spec
}

/// The `explore_mixed` search seed. Fixed rather than tied to `--seed`,
/// which varies the sequence: with the search seed following `--seed` the
/// trajectory — and with it the share of cache hits and derived encodes a
/// pass pays — changed with every seed (hits 16–31 of 40, pass time
/// 1.4–3.6 s over seeds 1–8).
pub const EXPLORE_SEED: u64 = PAPER_SEED;

/// The search seed of the untimed fixture that pre-warms the cache: the
/// same spec explored from another start.
pub const FIXTURE_SEED: u64 = EXPLORE_SEED ^ 0x5eed_f1c5;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_round_trip() {
        for k in Kind::ALL {
            assert_eq!(Kind::parse(k.name()), Some(k));
        }
        assert_eq!(Kind::parse("nope"), None);
    }

    #[test]
    fn rfu_loop_has_forty_loop_level_points() {
        let scenarios = rfu_loop_spec(FRAMES).scenarios().unwrap();
        assert_eq!(scenarios.len(), 40);
        assert!(scenarios.iter().all(|sc| sc.driver_kind().is_some()));
        assert_eq!(
            scenarios
                .iter()
                .filter(|sc| sc.lbb_bank_lines == Some(17))
                .count(),
            8
        );
    }

    #[test]
    fn explore_space_is_the_documented_one() {
        let spec = explore_spec(FRAMES);
        assert_eq!(spec.space.size(), 4 * 3 * 2 * 2 * 2 * 3 * 2);
        assert_eq!(spec.budget, 40);
        // The spec is valid: it survives its own JSON round trip.
        assert_eq!(
            ExploreSpec::from_json_str(&spec.to_json_string()).unwrap(),
            spec
        );
        assert_ne!(FIXTURE_SEED, EXPLORE_SEED);
    }

    #[test]
    fn built_workload_equals_the_library_constructor() {
        let mut trace = Trace::new(Instant::now());
        let built = build_workload(7, 3, &mut trace, None);
        assert_eq!(trace.spans().len(), 2);
        let lib = Workload::from_sequence(
            &SyntheticSequence::new(176, 144, 3, 7),
            EncoderConfig::default(),
        );
        assert_eq!(
            rvliw_core::workload_digest(&built.workload),
            rvliw_core::workload_digest(&lib)
        );
    }
}
