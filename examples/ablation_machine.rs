//! Ablation: core configuration — the Lx/ST200 scalability claim.
//!
//! The Lx platform is pitched as customizable ("its scalability and
//! customizability reflect in the multi-cluster organization"). This
//! ablation re-schedules and re-runs the ORIG kernel on narrower and wider
//! single-cluster datapaths, and shrinks the instruction cache to verify
//! the paper's assumption that 128 KB makes I-stalls negligible. Issue
//! width and I-cache size are not sweep axes, so this is an example rather
//! than a spec under `specs/`.
//!
//! ```text
//! cargo run --release --example ablation_machine
//! ```

use rvliw::exp::{run_me, Scenario, ScenarioError, Workload};
use rvliw::isa::MachineConfig;
use rvliw::mem::CacheGeometry;

fn issue_width(width: usize) -> MachineConfig {
    let base = MachineConfig::st200();
    match width {
        2 => MachineConfig {
            issue_width: 2,
            num_alus: 2,
            num_muls: 1,
            ..base
        },
        8 => MachineConfig {
            issue_width: 8,
            num_alus: 8,
            num_muls: 4,
            num_mem_units: 2,
            ..base
        },
        _ => base,
    }
}

fn main() -> Result<(), ScenarioError> {
    let workload = Workload::qcif_frames(4);
    let mut points = Vec::new();
    for width in [2usize, 4, 8] {
        let mut sc = Scenario::orig();
        sc.machine = issue_width(width);
        sc.label = format!("{width}-issue");
        points.push(sc);
    }
    for icache_kb in [2u32, 8, 128] {
        let mut sc = Scenario::orig();
        sc.mem.icache = CacheGeometry {
            capacity: icache_kb * 1024,
            ..CacheGeometry::st200_icache()
        };
        sc.label = format!("I$ {icache_kb}KB");
        points.push(sc);
    }

    println!("Core-configuration ablation (ORIG kernel, 4 QCIF frames):");
    println!(
        "{:>18} {:>12} {:>8} {:>10}",
        "config", "Cycles", "IPC", "I$ stalls"
    );
    for sc in &points {
        let r = run_me(sc, &workload)?;
        println!(
            "{:>18} {:>12} {:>8.2} {:>10}",
            sc.label,
            r.me_cycles,
            r.core.ipc(),
            r.core.ifetch_stall_cycles
        );
    }
    Ok(())
}
