//! The golden full-search encode behind `Workload::derived` is encoded
//! without its `GetSad` trace (`Encoder::encode_untraced`) and memoized
//! as its score: the two numbers `QualityMetrics` reads. These tests pin
//! the lean path to the traced encode it stands for: the same vectors,
//! reconstructions, PSNRs and bits, the same score, and bit-equal
//! `QualityMetrics` for every kind of approximation the sweeps and the
//! explorer derive.
//!
//! An untraced exact search also stops summing a candidate once its
//! running SAD reaches the best so far, so the first test covers every
//! search algorithm, with and without half-sample refinement, under the
//! exact SAD (where that early exit runs) and an approximate one (where
//! it does not).
//!
//! This file rides in the no-panic clippy gate: no `unwrap`/`expect`.

use std::sync::Arc;

use rvliw::exp::workload::{golden_config, Workload};
use rvliw::mpeg4::me::{MotionSearch, SearchAlgorithm};
use rvliw::mpeg4::quality::motion_field_cost;
use rvliw::mpeg4::types::{Frame, Mv};
use rvliw::mpeg4::SyntheticSequence;
use rvliw::mpeg4::{ApproxSad, EncodeReport, Encoder, EncoderConfig, QualityMetrics};

const SEEDS: [u64; 2] = [1, 7];

fn workload(seed: u64) -> Workload {
    Workload::from_sequence(
        &SyntheticSequence::new(64, 48, 4, seed),
        EncoderConfig::default(),
    )
}

/// Everything of an encode but its trace: per-macroblock vectors, the
/// reconstructions, per-frame PSNR bit patterns and bits, total bits.
type View = (
    Vec<(usize, usize, Mv)>,
    Vec<Frame>,
    Vec<(u64, usize)>,
    usize,
);

fn view(r: &EncodeReport) -> View {
    (
        r.frames
            .iter()
            .flat_map(|f| f.motion.iter().map(|m| (m.mbx, m.mby, m.mv)))
            .collect(),
        r.recon.clone(),
        r.frames
            .iter()
            .map(|f| (f.psnr_y.to_bits(), f.bits))
            .collect(),
        r.total_bits,
    )
}

/// Every search algorithm, with and without half-sample refinement,
/// under the exact SAD and one approximate mode.
fn search_configs() -> Vec<EncoderConfig> {
    let algorithms = [
        SearchAlgorithm::Full { range: 8 },
        SearchAlgorithm::Full { range: 20 },
        SearchAlgorithm::ThreeStep,
        SearchAlgorithm::Diamond,
        SearchAlgorithm::Spiral {
            range: 8,
            threshold: 256,
        },
    ];
    let mut configs = vec![golden_config(), EncoderConfig::default()];
    for algorithm in algorithms {
        for half_sample in [true, false] {
            for approx in [ApproxSad::Exact, ApproxSad::SubsampledRows { step: 2 }] {
                configs.push(EncoderConfig {
                    search: MotionSearch {
                        algorithm,
                        half_sample,
                        approx,
                    },
                    ..EncoderConfig::default()
                });
            }
        }
    }
    configs
}

#[test]
fn untraced_encode_equals_the_traced_encode_but_the_trace() {
    for seed in SEEDS {
        let w = workload(seed);
        for config in search_configs() {
            let traced = Encoder::new(config).encode(&w.frames);
            let untraced = Encoder::new(config).encode_untraced(&w.frames);
            assert!(traced.num_sad_calls() > 0, "seed {seed}: empty trace");
            assert_eq!(untraced.num_sad_calls(), 0, "seed {seed}: trace recorded");
            assert!(
                view(&untraced) == view(&traced),
                "seed {seed}, {config:?}: untraced encode diverges"
            );
        }
    }
}

#[test]
fn memoized_golden_score_equals_a_traced_golden() {
    for seed in SEEDS {
        let w = workload(seed);
        let score = w.golden_score();
        let traced = Encoder::new(golden_config()).encode(&w.frames);
        assert!(traced.num_sad_calls() > 0, "seed {seed}: empty trace");
        assert_eq!(
            score.cost,
            motion_field_cost(&w.frames, &traced),
            "seed {seed}: golden motion-field cost"
        );
        assert_eq!(
            score.mean_psnr_y.to_bits(),
            traced.mean_psnr_y().to_bits(),
            "seed {seed}: golden mean PSNR"
        );
        assert!(
            Arc::ptr_eq(&score, &w.golden_score()),
            "seed {seed}: golden score not memoized"
        );
    }
}

#[test]
fn derived_quality_is_bit_equal_against_a_traced_golden() {
    let points = [
        (ApproxSad::SubsampledRows { step: 2 }, None),
        (ApproxSad::ReducedPrecision { bits: 2 }, None),
        (ApproxSad::EarlyExit { threshold: 4096 }, None),
        (ApproxSad::Exact, Some(SearchAlgorithm::ThreeStep)),
    ];
    for seed in SEEDS {
        let w = workload(seed);
        let golden = Encoder::new(golden_config()).encode(&w.frames);
        for (approx, search) in points {
            let mut config = EncoderConfig::default();
            config.search.approx = approx;
            if let Some(algorithm) = search {
                config.search.algorithm = algorithm;
            }
            let report = Encoder::new(config).encode(&w.frames);
            let expected = QualityMetrics::compare(&w.frames, &report, &golden);
            let derived = w.derived(approx, search);
            let Some(q) = derived.quality else {
                panic!("seed {seed}, {approx:?}/{search:?}: derived workload has no quality");
            };
            let label = format!("seed {seed}, {approx:?}/{search:?}");
            assert_eq!(
                q.sad_inflation.to_bits(),
                expected.sad_inflation.to_bits(),
                "{label}: SAD inflation"
            );
            assert_eq!(
                q.psnr_delta_db.to_bits(),
                expected.psnr_delta_db.to_bits(),
                "{label}: PSNR delta"
            );
            // The derived workload itself keeps its full trace: the
            // simulator replays it.
            assert!(
                format!("{:?}", derived.report) == format!("{report:?}"),
                "{label}: derived report differs from a traced encode"
            );
        }
    }
}
