//! `Json::parse` never panics and never overflows the stack: every input
//! ends in a value or an `Err`.
//!
//! 1. Arbitrary bytes (read through `from_utf8_lossy`), weighted toward
//!    JSON punctuation so the parser gets past the first byte.
//! 2. Truncations and splices of real documents: the checked-in specs, a
//!    golden frontier and a cache-entry-shaped envelope.
//! 3. Nesting far past [`MAX_DEPTH`], parsed on a spawned thread with the
//!    default stack (where recursion dies first): 20,000 levels of arrays,
//!    objects and both, balanced or not.
//!
//! Whatever parses prints back to text that parses to the same value.
//!
//! This file rides in the no-panic clippy gate, so it has no `unwrap`.

use proptest::prelude::*;

use rvliw::trace::json::MAX_DEPTH;
use rvliw::trace::Json;

/// Valid documents of the shapes this project reads.
const DOCS: [&str; 4] = [
    include_str!("../specs/approx_sweep.json"),
    include_str!("../specs/explore_rfu.json"),
    include_str!("../specs/explore_rfu_frontier.json"),
    r#"{"schema": 1, "key": "00ff", "payload": {"result": {"label": "A1 é\"",
       "me_cycles": 18446744073709551615, "quality": {"x": -2.5e-3}},
       "flags": [true, false, null, [], {}]}}"#,
];

/// Parses `text`, and checks that a parsed value survives a print/parse
/// round trip.
fn check(text: &str) -> Result<(), String> {
    if let Ok(v) = Json::parse(text) {
        let again = Json::parse(&v.to_string())
            .map_err(|e| format!("printed value does not parse: {e}"))?;
        if again != v {
            return Err(format!("round trip changed {v:?} into {again:?}"));
        }
    }
    Ok(())
}

fn arb_bytes() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(
        prop_oneof![
            2 => any::<u8>(),
            3 => (0usize..24).prop_map(|i| b"[]{}\":,\\ 0123456789-.eEu"[i]),
            1 => (0usize..9).prop_map(|i| b"truefalsn"[i]),
        ],
        0..200,
    )
}

fn doc(i: usize) -> &'static [u8] {
    DOCS[i % DOCS.len()].as_bytes()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in arb_bytes()) {
        let text = String::from_utf8_lossy(&bytes);
        prop_assert_eq!(check(&text), Ok(()));
    }

    #[test]
    fn truncated_documents_never_panic(d in 0usize..DOCS.len(), cut in any::<u64>()) {
        let bytes = doc(d);
        let cut = (cut % (bytes.len() as u64 + 1)) as usize;
        let text = String::from_utf8_lossy(&bytes[..cut]);
        prop_assert_eq!(check(&text), Ok(()));
    }

    #[test]
    fn spliced_documents_never_panic(
        a in 0usize..DOCS.len(),
        b in 0usize..DOCS.len(),
        i in any::<u64>(),
        j in any::<u64>(),
    ) {
        let (a, b) = (doc(a), doc(b));
        let i = (i % (a.len() as u64 + 1)) as usize;
        let j = (j % (b.len() as u64 + 1)) as usize;
        let mut bytes = a[..i].to_vec();
        bytes.extend_from_slice(&b[j..]);
        let text = String::from_utf8_lossy(&bytes);
        prop_assert_eq!(check(&text), Ok(()));
    }
}

#[test]
fn whole_documents_parse() {
    for (i, text) in DOCS.iter().enumerate() {
        assert!(Json::parse(text).is_ok(), "document {i} must parse");
        assert_eq!(check(text), Ok(()), "document {i}");
    }
}

#[test]
fn deep_nesting_is_an_error_on_a_default_stack() {
    const LEVELS: usize = 20_000;
    let inputs = [
        "[".repeat(LEVELS),
        format!("{}{}", "[".repeat(LEVELS), "]".repeat(LEVELS)),
        "{\"a\":".repeat(LEVELS),
        "[{\"k\":".repeat(LEVELS / 2),
    ];
    for (i, text) in inputs.into_iter().enumerate() {
        // A default-sized spawned stack overflows between 8,000 and
        // 10,000 recursive levels, so an unbounded parser aborts here.
        let parsed = std::thread::spawn(move || Json::parse(&text).map(|_| ()));
        match parsed.join() {
            Ok(Err(e)) => assert!(e.contains("nesting deeper than"), "input {i}: {e}"),
            Ok(Ok(())) => panic!("input {i}: {LEVELS} levels parsed"),
            Err(_) => panic!("input {i}: the parser panicked"),
        }
    }
}

#[test]
fn nesting_is_capped_at_max_depth() {
    let text = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
    assert!(Json::parse(&text).is_ok());
    let text = format!("[{text}]");
    assert!(Json::parse(&text).is_err(), "{} levels", MAX_DEPTH + 1);
    let text = format!("{}1{}", "{\"a\":".repeat(MAX_DEPTH), "}".repeat(MAX_DEPTH));
    assert_eq!(check(&text), Ok(()));
    assert!(Json::parse(&text).is_ok());
}
