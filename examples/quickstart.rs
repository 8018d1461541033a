//! Quickstart: the case study in one page.
//!
//! Builds a small synthetic workload, replays its motion-estimation trace
//! against the ORIG kernel, the A3 instruction-level RFU kernel and the
//! loop-level RFU instruction, and prints the speedups — the paper's
//! headline comparison on a laptop-sized input.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use rvliw::exp::{arch, run_me, Scenario, Workload};
use rvliw::isa::MachineConfig;
use rvliw::mem::MemConfig;
use rvliw::rfu::RfuBandwidth;

fn main() -> Result<(), rvliw::exp::ScenarioError> {
    println!(
        "{}\n",
        arch::describe(&MachineConfig::st200(), &MemConfig::st200())
    );

    // A reduced workload (QCIF, 3 frames) keeps this example under a
    // second; the full experiments use 25 frames (`rvliw tables`).
    println!("encoding the workload on the host …");
    let workload = Workload::qcif_frames(3);
    println!(
        "  {} GetSad calls, {:.1}% diagonal interpolation\n",
        workload.num_calls(),
        workload.diag_share() * 100.0
    );

    println!("replaying the ME trace on the simulated machine …");
    let orig = run_me(&Scenario::orig(), &workload)?;
    println!(
        "  ORIG     : {:>9} cycles  (scalar diagonal interpolation)",
        orig.me_cycles
    );

    let a3 = run_me(&Scenario::a3(), &workload)?;
    println!(
        "  A3       : {:>9} cycles  ({:.2}x — 16-pixel RFUEXEC interpolation)",
        a3.me_cycles,
        a3.speedup_vs(&orig)
    );

    let lp = run_me(&Scenario::loop_level(RfuBandwidth::B1x32, 1), &workload)?;
    println!(
        "  loop 1x32: {:>9} cycles  ({:.2}x — whole kernel loop as one RFU instruction)",
        lp.me_cycles,
        lp.speedup_vs(&orig)
    );

    let lb = run_me(&Scenario::loop_two_lb(1), &workload)?;
    println!(
        "  loop +LBB: {:>9} cycles  ({:.2}x — plus double-buffered candidate line buffer)",
        lb.me_cycles,
        lb.speedup_vs(&orig)
    );

    println!(
        "\nthe paper's conclusion, reproduced: extending the ISA buys ~1.2-1.4x,\n\
         mapping the whole kernel loop to the RFU buys {:.1}-{:.1}x.",
        lp.speedup_vs(&orig),
        lb.speedup_vs(&orig)
    );
    Ok(())
}
