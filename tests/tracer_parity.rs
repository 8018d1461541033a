//! Parity between the tracing subsystem and the legacy counters: a
//! [`CountingTracer`] attached to a full scenario replay must bit-match
//! `SimStats`/`MemStats`/`RfuStats`, and attaching any tracer must not
//! perturb the simulation itself.
//!
//! This is what lets the `--metrics-out` envelopes report the runs' own
//! counters instead of re-running under a tracer, and what makes
//! `rvliw run --metrics-out` trustworthy: the tracer is an independent
//! observer wired through different code paths (per-event emission
//! instead of end-of-run counters), so agreement here cross-checks both
//! accountings.

use rvliw_core::{run_me, run_me_with_tracer, CaseStudy, Workload};
use rvliw_trace::{CountingTracer, StallCause};

#[test]
fn counting_tracer_bit_matches_legacy_stats_on_every_scenario() {
    let w = Workload::tiny();
    for scenario in CaseStudy::scenarios() {
        let mut t = CountingTracer::new();
        let r = run_me_with_tracer(&scenario, &w, &mut t).expect("traced replay succeeds");
        let l = &r.label;

        // Tracing must not perturb the simulation: the traced replay
        // returns the exact result of the untraced one.
        let baseline = run_me(&scenario, &w).expect("untraced replay succeeds");
        assert_eq!(r, baseline, "{l}: tracer perturbed the simulation");

        // Issue counters.
        assert_eq!(t.bundles, r.core.bundles, "{l}: bundles");
        assert_eq!(t.ops, r.core.ops, "{l}: ops");

        // Core stall causes, one for one.
        assert_eq!(
            t.stall_cycles(StallCause::Ifetch),
            r.core.ifetch_stall_cycles,
            "{l}: ifetch stalls"
        );
        assert_eq!(
            t.stall_cycles(StallCause::Interlock),
            r.core.interlock_stalls,
            "{l}: interlock stalls"
        );
        assert_eq!(
            t.stall_cycles(StallCause::RfuBusy),
            r.core.rfu_busy_stalls,
            "{l}: rfu-busy stalls"
        );
        assert_eq!(
            t.stall_cycles(StallCause::BranchBubble),
            r.core.branch_stall_cycles,
            "{l}: branch bubbles"
        );
        assert_eq!(
            t.stall_cycles(StallCause::Reconfig),
            r.rfu.reconfig_penalty_cycles,
            "{l}: reconfig penalty"
        );

        // Data-side stalls: the tracer's own event-derived account and its
        // cause histogram must both equal the memory system's counter.
        assert_eq!(t.d_stall_cycles, r.mem.d_stall_cycles, "{l}: d-stalls");
        assert_eq!(
            t.stall_cycles(StallCause::DCache) + t.stall_cycles(StallCause::RfuLoop),
            r.mem.d_stall_cycles,
            "{l}: d-stall attribution"
        );

        // Memory traffic.
        assert_eq!(t.d_hits, r.mem.d_hits, "{l}: d-hits");
        assert_eq!(t.d_misses, r.mem.d_misses, "{l}: d-misses");
        assert_eq!(t.d_late_covered, r.mem.d_late_covered, "{l}: late-covered");
        assert_eq!(t.i_misses, r.mem.i_misses, "{l}: i-misses");
        assert_eq!(t.writebacks, r.mem.writebacks, "{l}: writebacks");
        assert_eq!(t.pf_issued, r.mem.pf_issued, "{l}: prefetches issued");
        assert_eq!(t.pf_dropped, r.mem.pf_dropped, "{l}: prefetches dropped");
        assert_eq!(
            t.pf_redundant, r.mem.pf_redundant,
            "{l}: redundant prefetches"
        );

        // RFU protocol activity.
        assert_eq!(t.rfu_inits, r.rfu.inits, "{l}: RFUINITs");
        assert_eq!(t.rfu_sends, r.rfu.sends, "{l}: RFUSENDs");
        assert_eq!(t.rfu_short_execs, r.rfu.execs, "{l}: short RFUEXECs");
        assert_eq!(
            t.rfu_loops,
            r.rfu.loops + r.rfu.dct_loops,
            "{l}: kernel loops"
        );
        assert_eq!(
            t.rfu_mb_prefetches, r.rfu.mb_prefetches,
            "{l}: MB prefetches"
        );
        assert_eq!(t.lba_waits, r.rfu.lba_waits, "{l}: LbA waits");
        assert_eq!(
            t.lba_wait_cycles, r.rfu.lba_wait_cycles,
            "{l}: LbA wait cycles"
        );
        assert_eq!(t.lbb_hits, r.rfu.lbb_hits, "{l}: LbB hits");
        assert_eq!(t.lbb_late, r.rfu.lbb_late, "{l}: LbB late");
        assert_eq!(t.lbb_misses, r.rfu.lbb_misses, "{l}: LbB misses");

        // The per-PC histogram partitions the totals.
        assert_eq!(
            t.per_pc.iter().map(|c| c.bundles).sum::<u64>(),
            t.bundles,
            "{l}: per-PC bundles partition"
        );
        assert_eq!(
            t.per_pc.iter().map(|c| c.stall_cycles).sum::<u64>(),
            t.total_stall_cycles(),
            "{l}: per-PC stalls partition"
        );
    }
}
