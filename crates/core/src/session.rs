//! [`SimSession`]: the single place a runnable [`Machine`] is assembled.
//!
//! Every consumer — the scenario runner, the `rvliw` CLI, the tables
//! binary, kernel test drivers and the examples — describes *what* machine
//! it wants (core and memory configuration, RFU program, reconfiguration
//! model, line-buffer geometry, fault plan, cycle budget) and lets
//! [`SimSession::build`] apply the pieces in the one correct order:
//!
//! 1. core + memory configuration ([`Machine::new`] — the only call site
//!    outside `sim`-internal tests),
//! 2. RFU installation (before anything that mutates the RFU),
//! 3. reconfiguration model and Line Buffer B geometry overrides,
//! 4. fault injectors (after the RFU is in place, so the injectors land in
//!    the unit that actually runs),
//! 5. the per-run cycle budget.
//!
//! Hand-assembled `Machine::new(...)` call sites used to repeat this
//! ordering by convention; the builder makes it structural.

use rvliw_fault::FaultPlan;
use rvliw_isa::{MachineConfig, Substrate};
use rvliw_mem::MemConfig;
use rvliw_rfu::{LineBufferB, MeLoopCfg, ReconfigModel, Rfu};
use rvliw_sim::Machine;

/// Builder assembling machine, memory, RFU, fault and budget configuration
/// into a runnable [`Machine`].
///
/// ```
/// use rvliw_core::SimSession;
///
/// let m = SimSession::st200().cycle_limit(1_000_000).build();
/// assert_eq!(m.cycle_limit, 1_000_000);
/// ```
#[derive(Debug, Clone)]
pub struct SimSession {
    machine: MachineConfig,
    mem: MemConfig,
    me_loop: Option<MeLoopCfg>,
    reconfig: Option<ReconfigModel>,
    lbb_bank_lines: Option<usize>,
    fault: FaultPlan,
    salt: String,
    cycle_limit: Option<u64>,
}

impl SimSession {
    /// A session from explicit core and memory configurations.
    #[must_use]
    pub fn with_configs(machine: MachineConfig, mem: MemConfig) -> Self {
        SimSession {
            machine,
            mem,
            me_loop: None,
            reconfig: None,
            lbb_bank_lines: None,
            fault: FaultPlan::none(),
            salt: String::new(),
            cycle_limit: None,
        }
    }

    /// The baseline ST200 core with the baseline memory configuration
    /// (8-entry prefetch buffer).
    #[must_use]
    pub fn st200() -> Self {
        Self::with_configs(MachineConfig::st200(), MemConfig::st200())
    }

    /// The ST200 core with the loop-level memory configuration (64-entry
    /// prefetch buffer, as the paper's loop-level scenarios use).
    #[must_use]
    pub fn st200_loop_level() -> Self {
        Self::with_configs(MachineConfig::st200(), MemConfig::st200_loop_level())
    }

    /// Overrides the core configuration.
    #[must_use]
    pub fn machine_config(mut self, cfg: MachineConfig) -> Self {
        self.machine = cfg;
        self
    }

    /// Overrides the memory configuration.
    #[must_use]
    pub fn mem_config(mut self, cfg: MemConfig) -> Self {
        self.mem = cfg;
        self
    }

    /// Selects the fetch/issue substrate the built machine runs on
    /// (mutates the core configuration — the substrate lives in
    /// [`MachineConfig`], which is the single source of truth).
    #[must_use]
    pub fn substrate(mut self, substrate: Substrate) -> Self {
        self.machine.substrate = substrate;
        self
    }

    /// Installs the case-study RFU with `cfg` as its ME-loop
    /// configuration (plus the instruction-level configurations). Without
    /// this, the machine keeps an empty default RFU — what the plain CLI
    /// `run`/`trace` path wants.
    #[must_use]
    pub fn me_loop(mut self, cfg: MeLoopCfg) -> Self {
        self.me_loop = Some(cfg);
        self
    }

    /// Overrides the RFU reconfiguration model (the paper's baseline is
    /// zero penalty; ablations pay per-load penalties).
    #[must_use]
    pub fn reconfig(mut self, model: ReconfigModel) -> Self {
        self.reconfig = Some(model);
        self
    }

    /// Overrides Line Buffer B's per-bank capacity (line-buffer geometry
    /// ablations; the paper uses 34 lines per bank).
    #[must_use]
    pub fn lbb_bank_lines(mut self, lines: usize) -> Self {
        self.lbb_bank_lines = Some(lines);
        self
    }

    /// Installs a fault-injection plan. `salt` names the run (typically
    /// the scenario label or the program path) so distinct runs under the
    /// same seed draw independent perturbation substreams.
    #[must_use]
    pub fn fault_plan(mut self, plan: FaultPlan, salt: &str) -> Self {
        self.fault = plan;
        self.salt = salt.to_owned();
        self
    }

    /// Caps every simulated run at `limit` cycles; exceeding it surfaces
    /// as a typed cycle-limit error instead of a hang.
    #[must_use]
    pub fn cycle_limit(mut self, limit: u64) -> Self {
        self.cycle_limit = Some(limit);
        self
    }

    /// Assembles the machine. The session is reusable: each call builds a
    /// fresh, independent machine, which is what makes parallel scenario
    /// fan-out trivially sound.
    #[must_use]
    pub fn build(&self) -> Machine {
        let mut m = Machine::new(self.machine.clone(), self.mem.clone());
        if let Some(me) = self.me_loop {
            m.rfu = Rfu::with_case_study_configs(me);
        }
        if let Some(rc) = self.reconfig.clone() {
            m.rfu.set_reconfig_model(rc);
        }
        if let Some(lines) = self.lbb_bank_lines {
            m.rfu.lb_b = LineBufferB::with_bank_capacity(lines);
        }
        // After the RFU is in place: fault injectors, then the budget.
        m.set_fault_plan(&self.fault, &self.salt);
        if let Some(limit) = self.cycle_limit {
            m.cycle_limit = limit;
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvliw_rfu::RfuBandwidth;

    #[test]
    fn cycle_limit_override_applies() {
        let default_limit = SimSession::st200().build().cycle_limit;
        let m = SimSession::st200().cycle_limit(1234).build();
        assert_eq!(m.cycle_limit, 1234);
        assert_ne!(default_limit, 1234);
    }

    #[test]
    fn substrate_reaches_the_built_machine() {
        let m = SimSession::st200()
            .substrate(Substrate::ScalarInOrder)
            .build();
        assert_eq!(m.config().substrate, Substrate::ScalarInOrder);
        let d = SimSession::st200().build();
        assert_eq!(d.config().substrate, Substrate::Vliw4);
    }

    #[test]
    fn builds_are_independent() {
        let session =
            SimSession::st200_loop_level().me_loop(MeLoopCfg::new(RfuBandwidth::B1x32, 1, 176));
        let mut a = session.build();
        let mut b = session.build();
        let addr = a.mem.ram.alloc(64, 32);
        a.mem.ram.store8(addr, 7);
        // A second build starts from fresh state: same alloc cursor.
        assert_eq!(b.mem.ram.alloc(64, 32), addr);
    }
}
