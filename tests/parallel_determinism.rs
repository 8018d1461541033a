//! The parallel case-study runner must be bit-identical to the serial
//! one: scenario fan-out only changes wall-clock, never cycle counts.

use std::sync::Mutex;

use rvliw::exp::{CaseStudy, Workload};

#[test]
fn parallel_case_study_matches_serial_bit_for_bit() {
    let w = Workload::tiny();
    let grid = CaseStudy::scenarios();
    let serial = CaseStudy::run_scenarios(&grid, &w, 1, |_| {});

    let labels = Mutex::new(Vec::new());
    let parallel = CaseStudy::run_scenarios(&grid, &w, 4, |label| {
        labels.lock().unwrap().push(label.to_string());
    });

    assert_eq!(serial.stride, parallel.stride);
    assert_eq!(serial.calls, parallel.calls);
    assert_eq!(serial.orig, parallel.orig);
    assert_eq!(serial.instr, parallel.instr);
    assert_eq!(serial.loops, parallel.loops);
    assert_eq!(serial.two_lb, parallel.two_lb);

    // Every scenario reported progress exactly once (order is up to the
    // thread scheduler, so compare as a multiset).
    let mut seen = labels.into_inner().unwrap();
    seen.sort();
    let mut expected: Vec<String> = serial
        .results()
        .map(|r| r.as_ref().expect("scenario succeeded").label.clone())
        .collect();
    expected.sort();
    assert_eq!(seen, expected);
}

#[test]
fn thread_count_env_override_parses() {
    // `default_threads` is process-global state; only assert the invariant
    // that it is at least one without mutating the environment.
    assert!(rvliw::exp::default_threads() >= 1);
}
