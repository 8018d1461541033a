//! Property tests for the declarative experiment-spec layer.
//!
//! 1. Every representable [`ExperimentSpec`] round-trips through its JSON
//!    serialization: `parse(serialize(spec)) == spec`.
//! 2. Sweep expansion counts are the cross-product of the axes.
//! 3. Arbitrary malformed spec JSON — printable junk and mangled
//!    fragments of the real schema alike — yields a typed `SpecError`,
//!    never a panic, from both the sweep and the exploration parser (the
//!    pattern of `proptest_asm_parse.rs`).
//! 4. Every expanded scenario rebuilds from its cache descriptor to an
//!    equal scenario with an equal cache key, so `rvliw cache verify` can
//!    re-simulate every spec-expressible entry.

use proptest::prelude::*;

use rvliw::cache::KeyBuilder;
use rvliw::exp::cache::{scenario_desc, scenario_from_desc, scenario_key};
use rvliw::exp::explore::ExploreSpec;
use rvliw::exp::{DcacheSpec, ExperimentSpec, ReconfigSpec, SpecError, Substrate, SweepAxes};
use rvliw::fault::FaultProfile;
use rvliw::kernels::Variant;
use rvliw::mpeg4::me::SearchAlgorithm;
use rvliw::mpeg4::ApproxSad;
use rvliw::rfu::RfuBandwidth;

fn arb_name() -> impl Strategy<Value = String> {
    proptest::collection::vec(
        prop_oneof![
            (97u8..123).prop_map(|b| b as char),
            (48u8..58).prop_map(|b| b as char),
            Just('-'),
            Just('_'),
            Just(' '),
            Just('"'),
            Just('\\'),
        ],
        1..16,
    )
    .prop_map(|v| v.into_iter().collect())
}

fn arb_variants() -> impl Strategy<Value = Vec<Variant>> {
    proptest::collection::vec(
        prop_oneof![
            Just(Variant::Orig),
            Just(Variant::A1),
            Just(Variant::A2),
            Just(Variant::A3),
        ],
        1..5,
    )
}

fn arb_reconfig() -> impl Strategy<Value = ReconfigSpec> {
    (0u64..500, 1usize..5, any::<bool>()).prop_map(|(penalty, contexts, prefetch_hiding)| {
        ReconfigSpec {
            penalty,
            contexts,
            prefetch_hiding,
        }
    })
}

fn arb_approx_axis() -> impl Strategy<Value = Vec<ApproxSad>> {
    proptest::collection::vec(
        prop_oneof![
            Just(ApproxSad::Exact),
            (2u8..5).prop_map(|step| ApproxSad::SubsampledRows { step }),
            (1u8..5).prop_map(|bits| ApproxSad::ReducedPrecision { bits }),
            (0u32..10_000).prop_map(|threshold| ApproxSad::EarlyExit { threshold }),
        ],
        1..3,
    )
}

fn arb_search_axis() -> impl Strategy<Value = Vec<Option<SearchAlgorithm>>> {
    proptest::collection::vec(
        prop_oneof![
            Just(None),
            Just(Some(SearchAlgorithm::Diamond)),
            Just(Some(SearchAlgorithm::ThreeStep)),
            (1i16..12).prop_map(|range| Some(SearchAlgorithm::Full { range })),
            (1i16..12, 0u32..2_000)
                .prop_map(|(range, threshold)| Some(SearchAlgorithm::Spiral { range, threshold })),
        ],
        1..3,
    )
}

fn arb_substrate_axis() -> impl Strategy<Value = Vec<Substrate>> {
    prop_oneof![
        Just(vec![Substrate::Vliw4]),
        Just(vec![Substrate::ScalarInOrder]),
        Just(vec![Substrate::Vliw4, Substrate::ScalarInOrder]),
    ]
}

fn arb_prefetch_axis() -> impl Strategy<Value = Vec<Option<usize>>> {
    proptest::collection::vec(prop_oneof![Just(None), (1usize..256).prop_map(Some)], 1..3)
}

fn arb_dcache_axis() -> impl Strategy<Value = Vec<Option<DcacheSpec>>> {
    proptest::collection::vec(
        prop_oneof![
            Just(None),
            (0u32..8, 0u32..5).prop_map(|(cap, ways)| Some(DcacheSpec {
                capacity_kb: 1 << cap,
                ways: 1 << ways,
            })),
        ],
        1..3,
    )
}

fn arb_axes() -> impl Strategy<Value = SweepAxes> {
    prop_oneof![
        (
            arb_variants(),
            (arb_prefetch_axis(), arb_dcache_axis()),
            (arb_approx_axis(), arb_search_axis(), arb_substrate_axis()),
        )
            .prop_map(
                |(variants, (prefetch, dcache), (approx, search, substrate))| {
                    SweepAxes::Instruction {
                        variants,
                        prefetch,
                        dcache,
                        approx,
                        search,
                        substrate,
                    }
                }
            ),
        (
            proptest::collection::vec(
                prop_oneof![
                    Just(RfuBandwidth::B1x32),
                    Just(RfuBandwidth::B1x64),
                    Just(RfuBandwidth::B2x64),
                ],
                1..4,
            ),
            proptest::collection::vec(1u64..9, 1..4),
            proptest::collection::vec(any::<bool>(), 1..3),
            proptest::collection::vec(prop_oneof![Just(None), (1usize..64).prop_map(Some)], 1..3),
            proptest::collection::vec(arb_reconfig(), 1..3),
            (arb_prefetch_axis(), arb_dcache_axis()),
            (arb_approx_axis(), arb_search_axis(), arb_substrate_axis()),
        )
            .prop_map(
                |(
                    mut bandwidths,
                    betas,
                    two_line_buffers,
                    lbb_bank_lines,
                    reconfig,
                    (prefetch, dcache),
                    (approx, search, substrate),
                )| {
                    // The two-line-buffer scheme runs at 1x32 only.
                    if two_line_buffers.contains(&true) {
                        bandwidths = vec![RfuBandwidth::B1x32];
                    }
                    SweepAxes::Loop {
                        bandwidths,
                        betas,
                        two_line_buffers,
                        lbb_bank_lines,
                        reconfig,
                        prefetch,
                        dcache,
                        approx,
                        search,
                        substrate,
                    }
                }
            ),
    ]
}

fn arb_spec() -> impl Strategy<Value = ExperimentSpec> {
    (
        arb_name(),
        proptest::option::of(arb_name()),
        1usize..50,
        proptest::option::of(arb_name()),
        prop_oneof![
            Just(FaultProfile::None),
            Just(FaultProfile::Latency),
            Just(FaultProfile::Chaos),
        ],
        any::<u64>(),
        proptest::option::of(1u64..1_000_000_000),
        proptest::collection::vec(arb_axes(), 1..4),
    )
        .prop_map(
            |(name, title, frames, baseline, fault_profile, fault_seed, cycle_limit, sweeps)| {
                let mut spec = ExperimentSpec::new(&name);
                spec.title = title;
                spec.frames = frames;
                spec.baseline = baseline;
                spec.fault_profile = fault_profile;
                spec.fault_seed = fault_seed;
                spec.cycle_limit = cycle_limit;
                spec.sweeps = sweeps;
                spec
            },
        )
}

/// Feeds `text` to both spec parsers (and expands what parses): each
/// must return a typed error or a value, never panic.
fn parse_both(text: &str) {
    if let Ok(spec) = ExperimentSpec::from_json_str(text) {
        let _ = spec.scenarios();
    }
    if let Ok(spec) = ExploreSpec::from_json_str(text) {
        let _ = spec.point_spec(&[0; rvliw::exp::explore::AXES]);
    }
}

/// Arbitrary printable text (plus newlines and tabs).
fn arb_text() -> impl Strategy<Value = String> {
    proptest::collection::vec(
        prop_oneof![Just('\n'), Just('\t'), (32u8..127).prop_map(|b| b as char)],
        0..400,
    )
    .prop_map(|v| v.into_iter().collect())
}

proptest! {
    /// parse(serialize(spec)) == spec for every representable spec, both
    /// pretty-printed and compact.
    #[test]
    fn spec_json_roundtrip(spec in arb_spec()) {
        let pretty = spec.to_json_string();
        let back = ExperimentSpec::from_json_str(&pretty).expect("own output parses");
        prop_assert_eq!(&back, &spec, "pretty round-trip\n{}", pretty);
        let compact = spec.to_json().to_string();
        let back = ExperimentSpec::from_json_str(&compact).expect("compact output parses");
        prop_assert_eq!(&back, &spec, "compact round-trip\n{}", compact);
    }

    /// A sweep's scenario count is the cross-product of its axes (when no
    /// labels collide, expansion yields exactly the sum over sweeps).
    #[test]
    fn expansion_counts_match_cross_product(spec in arb_spec()) {
        let expected: usize = spec.sweeps.iter().map(SweepAxes::len).sum();
        match spec.scenarios() {
            Ok(scenarios) => prop_assert_eq!(scenarios.len(), expected),
            Err(SpecError::DuplicateLabel { .. }) => {
                // Colliding axes are rejected, not silently deduplicated.
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
    }

    /// Arbitrary printable input never panics the spec parser: it returns
    /// a typed `SpecError` or parses cleanly.
    #[test]
    fn malformed_spec_json_errors_never_panic(text in arb_text()) {
        parse_both(&text);
    }

    /// Mangled mixtures of real schema fragments never panic either — this
    /// biases the fuzzing toward inputs that get deep into the schema
    /// checks (unknown keys, wrong types, out-of-range values).
    #[test]
    fn mangled_spec_fragments_error_never_panic(
        lines in proptest::collection::vec(
            prop_oneof![
                Just("{\"name\": \"x\",".to_owned()),
                Just("\"sweeps\": [".to_owned()),
                Just("{\"kind\": \"loop\",".to_owned()),
                Just("{\"kind\": \"instruction\",".to_owned()),
                Just("\"variants\": [\"Orig\", \"A9\"]".to_owned()),
                Just("\"bandwidths\": [\"1x32\"],".to_owned()),
                Just("\"betas\": [0, 1, -2],".to_owned()),
                Just("\"reconfig\": [{\"penalty\": 1e99}]".to_owned()),
                Just("\"lbb_bank_lines\": [null, 0],".to_owned()),
                Just("\"frames\": 999999999999999999999999,".to_owned()),
                Just("\"dcache\": [\"16k/3w\", null],".to_owned()),
                Just("\"prefetch\": [0],".to_owned()),
                Just("\"engine\": [\"2lb\", \"9x9\"],".to_owned()),
                Just("\"approx\": [\"rows/1\"],".to_owned()),
                Just("\"space\": {".to_owned()),
                Just("{\"name\": \"x\", \"budget\": 3, \"strategy\": \"generational\",".to_owned()),
                Just("}]".to_owned()),
                Just("}".to_owned()),
                Just(",".to_owned()),
                arb_text(),
            ],
            0..16,
        )
    ) {
        parse_both(&lines.join("\n"));
    }

    /// Every scenario a spec expands to rebuilds from its cache
    /// descriptor to an equal scenario with an equal cache key.
    #[test]
    fn expanded_scenarios_rebuild_from_their_descriptors(spec in arb_spec()) {
        let workload = KeyBuilder::new("workload", 1).finish();
        if let Ok(scenarios) = spec.scenarios() {
            for sc in scenarios {
                let back = scenario_from_desc(&scenario_desc(&sc));
                prop_assert_eq!(back.as_ref(), Some(&sc), "{}", sc.label);
                if let Some(back) = back {
                    prop_assert_eq!(scenario_key(&back, workload), scenario_key(&sc, workload));
                }
            }
        }
    }
}
