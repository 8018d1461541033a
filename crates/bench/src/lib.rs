#![warn(missing_docs)]
//! # rvliw-bench
//!
//! The reproduction binary for every table and figure of the paper.
//!
//! * `cargo run --release -p rvliw-bench --bin tables` — runs the full
//!   25-frame QCIF case study and prints Tables 1–7, the paper-vs-measured
//!   comparison, the cycle breakdown and Figures 1–2. With `--write` that
//!   output replaces the generated block of `EXPERIMENTS.md`
//!   ([`splice_generated`]); the prose around it is edited by hand.
//!
//! Host-time measurement lives in the separate `perfbench/` package and
//! the ablation studies are checked-in sweep specs (`specs/ablation_*.json`,
//! run with `rvliw sweep`). The library part hosts the paper's reference
//! numbers ([`paper`]) and the `EXPERIMENTS.md` splice.

pub mod paper;

/// Opens the block of `EXPERIMENTS.md` that `tables --write` regenerates.
pub const BEGIN_GENERATED: &str =
    "<!-- BEGIN GENERATED by `cargo run --release -p rvliw-bench --bin tables -- --write`; edit outside these markers -->";

/// Closes the block of `EXPERIMENTS.md` that `tables --write` regenerates.
pub const END_GENERATED: &str = "<!-- END GENERATED -->";

/// Replaces the text between the [`BEGIN_GENERATED`] and [`END_GENERATED`]
/// marker lines of `doc` with `block`, keeping every byte outside them.
///
/// # Errors
///
/// A marker that is missing or appears more than once, or an end marker
/// before the begin marker.
pub fn splice_generated(doc: &str, block: &str) -> Result<String, String> {
    let find_once = |marker: &str, name: &str| {
        let mut hits = doc.match_indices(marker).map(|(i, _)| i);
        match (hits.next(), hits.next()) {
            (Some(i), None) => Ok(i),
            (None, _) => Err(format!("no {name} marker `{marker}`")),
            (Some(_), Some(_)) => Err(format!("more than one {name} marker")),
        }
    };
    let begin = find_once(BEGIN_GENERATED, "begin")? + BEGIN_GENERATED.len();
    let end = find_once(END_GENERATED, "end")?;
    if end < begin {
        return Err("the end marker precedes the begin marker".to_owned());
    }
    let newline = if block.ends_with('\n') { "" } else { "\n" };
    Ok(format!(
        "{}\n{block}{newline}{}",
        &doc[..begin],
        &doc[end..]
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_constants_are_self_consistent() {
        // Speedups must increase with bandwidth at β = 1.
        let s: Vec<f64> = paper::T2_SPEEDUP_B1.iter().map(|&(_, v)| v).collect();
        assert!(s[0] < s[1] && s[1] < s[2]);
        // β = 5 is slower than β = 1 for 1×32.
        assert!(paper::T2_SPEEDUP_1X32_B5 < s[0]);
        // Table 7 dominates Table 2 at matching β.
        assert!(paper::T7_SPEEDUP[0].1 > s[2]);
        assert!((paper::INITIAL_GETSAD_SHARE - 0.256).abs() < 1e-12);
    }

    fn doc(inner: &str) -> String {
        format!("intro\n\n{BEGIN_GENERATED}\n{inner}{END_GENERATED}\n\n## Prose\n\ntail")
    }

    #[test]
    fn splicing_twice_equals_splicing_once() {
        let once = splice_generated(&doc("old\n"), "# Run\n\ntable\n").unwrap();
        assert_eq!(once, doc("# Run\n\ntable\n"));
        assert_eq!(splice_generated(&once, "# Run\n\ntable\n").unwrap(), once);
        // A block without a trailing newline still leaves the end marker
        // on a line of its own.
        assert_eq!(splice_generated(&once, "x").unwrap(), doc("x\n"));
    }

    #[test]
    fn bytes_outside_the_markers_are_preserved() {
        let original = format!(
            "  lead\r\n{BEGIN_GENERATED} trailing words\nstale\n{END_GENERATED}no newline ünïcode"
        );
        let out = splice_generated(&original, "fresh\n").unwrap();
        assert_eq!(
            out,
            format!("  lead\r\n{BEGIN_GENERATED}\nfresh\n{END_GENERATED}no newline ünïcode")
        );
        let (before, after) = original.split_at(original.find(BEGIN_GENERATED).unwrap());
        assert!(out.starts_with(before));
        assert!(out.ends_with(&after[after.find(END_GENERATED).unwrap()..]));
    }

    #[test]
    fn missing_or_misordered_markers_are_errors() {
        let no_end = format!("a\n{BEGIN_GENERATED}\nb\n");
        let no_begin = format!("a\n{END_GENERATED}\nb\n");
        let reversed = format!("a\n{END_GENERATED}\nb\n{BEGIN_GENERATED}\nc\n");
        let doubled = format!("{}{}", doc(""), doc(""));
        for bad in [&no_end, &no_begin, &reversed, &doubled, &String::new()] {
            assert!(splice_generated(bad, "x\n").is_err(), "{bad:?}");
        }
        let err = splice_generated(&no_end, "x\n").unwrap_err();
        assert!(err.contains("end marker"), "{err}");
    }
}
