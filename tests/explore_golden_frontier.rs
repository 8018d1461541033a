//! The committed exploration frontier is a golden artifact:
//! `rvliw explore --spec specs/explore_rfu.json --seed 7` must print
//! `specs/explore_rfu_frontier.json` byte for byte. Its quality numbers
//! come from the host encoder's derived and golden full-search encodes,
//! so any drift in `GetSad`, the DCT or the search shows up here. The run
//! goes through the same flag parser, workload and supervisor set-up as
//! the command, with no cache, at one and two worker threads.
//!
//! This file rides in the no-panic clippy gate: no `unwrap`/`expect`.

use std::fmt::Display;
use std::path::Path;

use rvliw::exp::{run_explore, ExploreSpec, RunFlags};

fn ok<T, E: Display>(what: &str, r: Result<T, E>) -> T {
    match r {
        Ok(v) => v,
        Err(e) => panic!("{what}: {e}"),
    }
}

#[test]
fn explore_rfu_seed_7_prints_the_golden_frontier() {
    let specs = Path::new(env!("CARGO_MANIFEST_DIR")).join("specs");
    let read = |name: &str| ok(name, std::fs::read_to_string(specs.join(name)));
    let spec = ok(
        "parse explore_rfu.json",
        ExploreSpec::from_json_str(&read("explore_rfu.json")),
    );
    let golden = read("explore_rfu_frontier.json");
    for threads in ["1", "2"] {
        let args = ["--no-cache", "--threads", threads].map(String::from);
        let flags = ok("run flags", RunFlags::parse(&args, |_, _| Ok(false)));
        let (workload, cache) = ok("open workload", flags.open_workload(spec.frames));
        assert!(cache.is_none(), "--no-cache must open no cache");
        let config = ok("supervisor", flags.supervisor());
        let outcome = run_explore(&spec, 7, &workload, flags.threads, |_| {}, None, &config);
        assert!(
            outcome.to_json_string() == golden,
            "{threads} thread(s): the seed-7 frontier differs from \
             specs/explore_rfu_frontier.json:\n{}",
            outcome.to_json_string()
        );
    }
}
