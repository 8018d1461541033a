//! Property tests for the content-addressed scenario result cache.
//!
//! 1. Keys are a pure function of scenario content: equal scenarios hash
//!    equal, distinct scenarios hash distinct — and the key for a pinned
//!    scenario is byte-identical when computed in a *separate process*
//!    (no pointer, allocation-order or per-process hash-seed leakage).
//! 2. Sensitivity: perturbing any single scenario field — including every
//!    fault-plan knob and the fetch/issue substrate — changes the key.
//! 3. Robustness: corrupted or truncated cache files are treated as
//!    misses with a warning, never a panic and never a wrong result.
//! 4. A word field hashed from an iterator (as the workload digest hashes
//!    its motion trace) keys exactly like the same words from a slice.

use std::path::PathBuf;
use std::sync::OnceLock;

use proptest::prelude::*;

use rvliw::cache::{CacheKey, KeyBuilder};
use rvliw::exp::{
    run_me, scenario_key, workload_digest, MeResult, Scenario, ScenarioCache, Substrate, Workload,
};
use rvliw::fault::{FaultPlan, FaultProfile};
use rvliw::kernels::Variant;
use rvliw::mpeg4::me::SearchAlgorithm;
use rvliw::mpeg4::ApproxSad;
use rvliw::rfu::RfuBandwidth;

/// The tiny workload's digest, computed once (encoding is deterministic,
/// so every test and every process sees the same digest).
fn tiny_digest() -> CacheKey {
    static DIGEST: OnceLock<CacheKey> = OnceLock::new();
    *DIGEST.get_or_init(|| workload_digest(&Workload::tiny()))
}

/// A pinned, fully loaded scenario for the cross-process probe.
fn probe_scenario() -> Scenario {
    Scenario::loop_two_lb(5)
        .with_lbb_bank_lines(17)
        .with_cycle_limit(123_456)
        .with_fault_plan(FaultPlan::from_profile(FaultProfile::Chaos, 9))
}

/// Prints the probe key when invoked as the key-probe child process
/// (`keys_are_stable_across_processes` re-runs this test binary with
/// `RVLIW_KEY_PROBE=1`); a no-op in a normal test run.
#[test]
fn key_probe() {
    if std::env::var("RVLIW_KEY_PROBE").is_err() {
        return;
    }
    println!(
        "probe-key={}",
        scenario_key(&probe_scenario(), tiny_digest()).hex()
    );
}

/// The same scenario hashed in a freshly spawned process yields the same
/// key: nothing process-local (addresses, allocation order, randomized
/// hasher state) leaks into the hash. This is what makes on-disk entries
/// reusable across invocations at all.
#[test]
fn keys_are_stable_across_processes() {
    let here = scenario_key(&probe_scenario(), tiny_digest()).hex();
    let exe = std::env::current_exe().expect("test binary path");
    let out = std::process::Command::new(exe)
        .args(["key_probe", "--exact", "--nocapture", "--test-threads=1"])
        .env("RVLIW_KEY_PROBE", "1")
        .output()
        .expect("spawn key-probe child");
    assert!(out.status.success(), "child failed: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    // libtest may print the key on the same line as its `test … ` header,
    // so match the marker anywhere in the line.
    let there = stdout
        .lines()
        .find_map(|l| {
            l.split("probe-key=")
                .nth(1)
                .map(|k| k.trim().trim_end_matches(" ok"))
        })
        .unwrap_or_else(|| {
            panic!(
                "child printed no probe key:\n--- stdout\n{stdout}\n--- stderr\n{}",
                String::from_utf8_lossy(&out.stderr)
            )
        });
    assert_eq!(there, here, "cache keys differ across processes");
}

// ---- strategies ----------------------------------------------------------

fn arb_fault_plan() -> impl Strategy<Value = FaultPlan> {
    (
        any::<u64>(),
        0u32..1000,
        0u64..50,
        0u32..1000,
        (0u32..1000, 0u64..50, 0u32..1000, 0u32..1000),
    )
        .prop_map(
            |(
                seed,
                mem_latency_ppm,
                mem_latency_max,
                flush_ppm,
                (lb_delay_ppm, lb_delay_max, lb_stuck_ppm, bitflip_ppm),
            )| {
                FaultPlan {
                    seed,
                    mem_latency_ppm,
                    mem_latency_max,
                    flush_ppm,
                    lb_delay_ppm,
                    lb_delay_max,
                    lb_stuck_ppm,
                    bitflip_ppm,
                }
            },
        )
}

fn arb_approx() -> impl Strategy<Value = ApproxSad> {
    prop_oneof![
        Just(ApproxSad::Exact),
        (2u8..5).prop_map(|step| ApproxSad::SubsampledRows { step }),
        (1u8..5).prop_map(|bits| ApproxSad::ReducedPrecision { bits }),
        (0u32..10_000).prop_map(|threshold| ApproxSad::EarlyExit { threshold }),
    ]
}

fn arb_search() -> impl Strategy<Value = SearchAlgorithm> {
    prop_oneof![
        Just(SearchAlgorithm::Diamond),
        Just(SearchAlgorithm::ThreeStep),
        (1i16..12).prop_map(|range| SearchAlgorithm::Full { range }),
        (1i16..12, 0u32..2_000)
            .prop_map(|(range, threshold)| SearchAlgorithm::Spiral { range, threshold }),
    ]
}

fn arb_scenario() -> impl Strategy<Value = Scenario> {
    let base = prop_oneof![
        prop_oneof![
            Just(Variant::Orig),
            Just(Variant::A1),
            Just(Variant::A2),
            Just(Variant::A3),
        ]
        .prop_map(Scenario::instruction),
        (
            prop_oneof![
                Just(RfuBandwidth::B1x32),
                Just(RfuBandwidth::B1x64),
                Just(RfuBandwidth::B2x64),
            ],
            1u64..9,
        )
            .prop_map(|(bw, beta)| Scenario::loop_level(bw, beta)),
        (1u64..9).prop_map(Scenario::loop_two_lb),
    ];
    (
        base,
        proptest::option::of(1usize..64),
        proptest::option::of(1u64..1_000_000),
        arb_fault_plan(),
        arb_approx(),
        proptest::option::of(arb_search()),
        any::<bool>(),
    )
        .prop_map(|(mut sc, lbb, limit, fault, approx, search, scalar)| {
            if let Some(lines) = lbb {
                sc = sc.with_lbb_bank_lines(lines);
            }
            if let Some(limit) = limit {
                sc = sc.with_cycle_limit(limit);
            }
            sc = sc.with_approx(approx);
            if let Some(search) = search {
                sc = sc.with_search(search);
            }
            if scalar {
                sc = sc.with_substrate(Substrate::ScalarInOrder);
            }
            sc.with_fault_plan(fault)
        })
}

proptest! {
    /// Keys are content-addressed: equal scenarios (built independently)
    /// collide, unequal scenarios do not.
    #[test]
    fn equal_scenarios_hash_equal_distinct_ones_distinct(
        a in arb_scenario(),
        b in arb_scenario(),
    ) {
        let (ka, kb) = (scenario_key(&a, tiny_digest()), scenario_key(&b, tiny_digest()));
        if a == b {
            prop_assert_eq!(ka, kb, "equal scenarios must share a key");
        } else {
            prop_assert_ne!(ka, kb, "distinct scenarios must not collide:\n{:?}\n{:?}", a, b);
        }
    }

    /// Every single-field perturbation of a scenario — label, budget,
    /// line-buffer capacity, substrate, and each of the eight fault-plan
    /// knobs — produces a different key.
    #[test]
    fn any_single_field_perturbation_changes_the_key(base in arb_scenario()) {
        let digest = tiny_digest();
        let key = scenario_key(&base, digest);
        let mut variants: Vec<(&str, Scenario)> = Vec::new();

        let mut sc = base.clone();
        sc.label.push('\'');
        variants.push(("label", sc));
        let mut sc = base.clone();
        sc.cycle_limit = Some(sc.cycle_limit.map_or(1, |l| l + 1));
        variants.push(("cycle_limit", sc));
        let mut sc = base.clone();
        sc.lbb_bank_lines = Some(sc.lbb_bank_lines.map_or(1, |l| l + 1));
        variants.push(("lbb_bank_lines", sc));

        // Toggling the approximation on/off changes the key…
        let mut sc = base.clone();
        sc.approx = match sc.approx {
            ApproxSad::Exact => ApproxSad::SubsampledRows { step: 2 },
            _ => ApproxSad::Exact,
        };
        variants.push(("approx", sc));
        // …and so does nudging the parameter of an active approximation.
        let bumped = match base.approx {
            ApproxSad::Exact => None,
            ApproxSad::SubsampledRows { step } => Some(ApproxSad::SubsampledRows { step: step + 1 }),
            ApproxSad::ReducedPrecision { bits } => {
                Some(ApproxSad::ReducedPrecision { bits: bits + 1 })
            }
            ApproxSad::EarlyExit { threshold } => Some(ApproxSad::EarlyExit {
                threshold: threshold.wrapping_add(1),
            }),
        };
        if let Some(approx) = bumped {
            let mut sc = base.clone();
            sc.approx = approx;
            variants.push(("approx.param", sc));
        }
        let mut sc = base.clone();
        sc.search = match sc.search {
            None => Some(SearchAlgorithm::Diamond),
            Some(SearchAlgorithm::Diamond) => Some(SearchAlgorithm::ThreeStep),
            Some(_) => None,
        };
        variants.push(("search", sc));
        let mut sc = base.clone();
        sc.machine.substrate = match sc.machine.substrate {
            Substrate::Vliw4 => Substrate::ScalarInOrder,
            Substrate::ScalarInOrder => Substrate::Vliw4,
        };
        variants.push(("substrate", sc));

        let bump_u32 = |v: u32| v.wrapping_add(1);
        let bump_u64 = |v: u64| v.wrapping_add(1);
        for (name, perturb) in [
            ("fault.seed", Box::new(|p: &mut FaultPlan| p.seed = bump_u64(p.seed)) as Box<dyn Fn(&mut FaultPlan)>),
            ("fault.mem_latency_ppm", Box::new(|p| p.mem_latency_ppm = bump_u32(p.mem_latency_ppm))),
            ("fault.mem_latency_max", Box::new(|p| p.mem_latency_max = bump_u64(p.mem_latency_max))),
            ("fault.flush_ppm", Box::new(|p| p.flush_ppm = bump_u32(p.flush_ppm))),
            ("fault.lb_delay_ppm", Box::new(|p| p.lb_delay_ppm = bump_u32(p.lb_delay_ppm))),
            ("fault.lb_delay_max", Box::new(|p| p.lb_delay_max = bump_u64(p.lb_delay_max))),
            ("fault.lb_stuck_ppm", Box::new(|p| p.lb_stuck_ppm = bump_u32(p.lb_stuck_ppm))),
            ("fault.bitflip_ppm", Box::new(|p| p.bitflip_ppm = bump_u32(p.bitflip_ppm))),
        ] {
            let mut sc = base.clone();
            perturb(&mut sc.fault);
            variants.push((name, sc));
        }

        for (field, perturbed) in variants {
            prop_assert_ne!(
                scenario_key(&perturbed, digest),
                key,
                "perturbing `{}` did not change the key", field
            );
        }
        // A different workload digest also yields a different key.
        let other = CacheKey::from_hex(&format!("{:032x}", 0xdead_beefu128)).expect("valid hex");
        prop_assert_ne!(scenario_key(&base, other), key);
    }
}

proptest! {
    /// `field_words_iter` absorbs the same bytes in the same order as
    /// `field_words`: tag, tag length, each word, then the word count,
    /// whether the words come from a slice or are produced lazily in
    /// pieces.
    #[test]
    fn iterated_word_fields_key_like_sliced_ones(
        tag in proptest::collection::vec(b'a'..=b'z', 0..12),
        words in proptest::collection::vec(any::<u32>(), 0..300),
        piece in 1usize..9,
        after in any::<u64>(),
    ) {
        let tag = String::from_utf8(tag).unwrap();
        let mut sliced = KeyBuilder::new("words", 1);
        sliced.field_words(&tag, &words).field_u64("after", after);
        let mut iterated = KeyBuilder::new("words", 1);
        iterated
            .field_words_iter(&tag, words.chunks(piece).flat_map(|c| c.iter().copied()))
            .field_u64("after", after);
        prop_assert_eq!(iterated.finish(), sliced.finish());
    }
}

// ---- corruption robustness -----------------------------------------------

/// One valid on-disk entry (scenario, measured result, file bytes),
/// simulated once and shared by every corruption case.
struct ValidEntry {
    scenario: Scenario,
    result: MeResult,
    file: Vec<u8>,
    file_name: String,
}

fn valid_entry() -> &'static ValidEntry {
    static ENTRY: OnceLock<ValidEntry> = OnceLock::new();
    ENTRY.get_or_init(|| {
        let w = Workload::tiny();
        let scenario = Scenario::orig();
        let result = run_me(&scenario, &w).expect("tiny ORIG run completes");
        let dir = tmpdir("seed");
        let cache = ScenarioCache::open(&dir, &w, "tiny").expect("cache opens");
        cache.record(&scenario, &result);
        let file_name = format!("{}.json", cache.key_for(&scenario).hex());
        let file = std::fs::read(dir.join(&file_name)).expect("entry was published");
        ValidEntry {
            scenario,
            result,
            file,
            file_name,
        }
    })
}

fn tmpdir(tag: &str) -> PathBuf {
    static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "rvliw-proptest-cache-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

proptest! {
    /// Truncating a valid entry anywhere, or splicing arbitrary bytes
    /// into it, never panics the lookup and never produces a wrong
    /// result: the lookup either still returns the original measurement
    /// (the mutation preserved the envelope) or misses.
    #[test]
    fn corrupted_entries_are_misses_never_panics_or_wrong_results(
        cut in 0usize..4096,
        splice_at in 0usize..4096,
        junk in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let entry = valid_entry();
        let mut bytes = entry.file.clone();
        bytes.truncate(cut.min(bytes.len()));
        let at = splice_at.min(bytes.len());
        bytes.splice(at..at, junk);

        let dir = tmpdir("corrupt");
        std::fs::write(dir.join(&entry.file_name), &bytes).expect("write mutated entry");
        let w = Workload::tiny();
        let cache = ScenarioCache::open(&dir, &w, "tiny").expect("cache opens");
        match cache.lookup(&entry.scenario) {
            // The mutation happened to preserve a valid envelope (e.g. a
            // zero-length splice after truncating nothing).
            Some(r) => prop_assert_eq!(r, entry.result.clone()),
            None => {
                let counts = cache.counts();
                prop_assert_eq!(counts.hits, 0);
                prop_assert_eq!(
                    counts.stale + counts.misses, 1,
                    "a corrupt entry is a (stale) miss"
                );
            }
        }
    }
}
