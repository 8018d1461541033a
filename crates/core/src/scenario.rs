//! Architecture scenarios: the points of the paper's design space.

use std::fmt;

use mpeg4_enc::me::SearchAlgorithm;
use mpeg4_enc::ApproxSad;
use rvliw_fault::FaultPlan;
use rvliw_isa::{MachineConfig, Substrate};
use rvliw_kernels::{DriverKind, Variant};
use rvliw_mem::MemConfig;
use rvliw_rfu::{MeLoopCfg, ReconfigModel, RfuBandwidth, SadApprox};

use crate::session::SimSession;

/// Maps the host encoder's SAD approximation onto the RFU's mirror enum
/// (the RFU crate cannot depend on the encoder crate).
#[must_use]
pub fn sad_approx_to_rfu(approx: ApproxSad) -> SadApprox {
    match approx {
        ApproxSad::Exact => SadApprox::Exact,
        ApproxSad::SubsampledRows { step } => SadApprox::SubsampledRows { step },
        ApproxSad::ReducedPrecision { bits } => SadApprox::ReducedPrecision { bits },
        ApproxSad::EarlyExit { threshold } => SadApprox::EarlyExit { threshold },
    }
}

/// Compact token for an approximation mode, used by spec axes and cache
/// descriptors: `exact`, `rows/2`, `bits/3`, `early/4096`.
#[must_use]
pub fn approx_token(approx: ApproxSad) -> String {
    match approx {
        ApproxSad::Exact => "exact".to_owned(),
        ApproxSad::SubsampledRows { step } => format!("rows/{step}"),
        ApproxSad::ReducedPrecision { bits } => format!("bits/{bits}"),
        ApproxSad::EarlyExit { threshold } => format!("early/{threshold}"),
    }
}

/// Parses an [`approx_token`] back; `None` for unknown shapes.
#[must_use]
pub fn parse_approx(s: &str) -> Option<ApproxSad> {
    if s == "exact" {
        return Some(ApproxSad::Exact);
    }
    let (name, arg) = s.split_once('/')?;
    match name {
        "rows" => {
            let step: u8 = arg.parse().ok()?;
            (step >= 2).then_some(ApproxSad::SubsampledRows { step })
        }
        "bits" => {
            let bits: u8 = arg.parse().ok()?;
            (1..=7)
                .contains(&bits)
                .then_some(ApproxSad::ReducedPrecision { bits })
        }
        "early" => Some(ApproxSad::EarlyExit {
            threshold: arg.parse().ok()?,
        }),
        _ => None,
    }
}

/// Compact token for a search algorithm: `diamond`, `three-step`,
/// `full/8`, `spiral/8/256`.
#[must_use]
pub fn search_token(search: SearchAlgorithm) -> String {
    match search {
        SearchAlgorithm::Diamond => "diamond".to_owned(),
        SearchAlgorithm::ThreeStep => "three-step".to_owned(),
        SearchAlgorithm::Full { range } => format!("full/{range}"),
        SearchAlgorithm::Spiral { range, threshold } => format!("spiral/{range}/{threshold}"),
    }
}

/// Parses a [`search_token`] back; `None` for unknown shapes.
#[must_use]
pub fn parse_search(s: &str) -> Option<SearchAlgorithm> {
    match s {
        "diamond" => return Some(SearchAlgorithm::Diamond),
        "three-step" => return Some(SearchAlgorithm::ThreeStep),
        _ => {}
    }
    let (name, rest) = s.split_once('/')?;
    match name {
        "full" => {
            let range: i16 = rest.parse().ok()?;
            (range > 0).then_some(SearchAlgorithm::Full { range })
        }
        "spiral" => {
            let (range, threshold) = rest.split_once('/')?;
            let range: i16 = range.parse().ok()?;
            (range > 0).then_some(SearchAlgorithm::Spiral {
                range,
                threshold: threshold.parse().ok()?,
            })
        }
        _ => None,
    }
}

/// What runs on the machine for one experiment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Kind {
    /// Instruction-level: a `GetSad` kernel variant runs on the core
    /// (Table 1).
    Instruction(Variant),
    /// Loop-level: the whole kernel loop is one RFU instruction
    /// (Tables 2–7).
    Loop {
        /// RFU data bandwidth.
        bandwidth: RfuBandwidth,
        /// Technology-scaling factor β.
        beta: u64,
        /// Two-line-buffer scheme (Table 7).
        two_line_buffers: bool,
    },
}

/// One architecture point: the kind plus machine/memory configuration and
/// the reconfiguration model.
#[derive(Clone, PartialEq)]
pub struct Scenario {
    /// Scenario kind.
    pub kind: Kind,
    /// Core configuration.
    pub machine: MachineConfig,
    /// Memory configuration (loop-level scenarios extend the prefetch
    /// buffer to 64 entries, as in the paper).
    pub mem: MemConfig,
    /// Reconfiguration model (zero penalty unless an ablation overrides
    /// it).
    pub reconfig: ReconfigModel,
    /// Override of Line Buffer B's per-bank capacity (ablations; `None` =
    /// the paper's 34 lines).
    pub lbb_bank_lines: Option<usize>,
    /// Deterministic fault-injection plan. The default plan is inert: it
    /// never draws from its RNG, so fault-free runs are bit-identical to
    /// builds without the fault layer.
    pub fault: FaultPlan,
    /// Per-scenario cycle-budget override for each simulated kernel run
    /// (`None` = the machine's default watchdog limit).
    pub cycle_limit: Option<u64>,
    /// Human-readable label.
    pub label: String,
    /// SAD approximation applied end to end: the host encoder computes its
    /// motion trace with this approximation and the simulated kernel (or
    /// RFU loop) reproduces it bit-exactly.
    pub approx: ApproxSad,
    /// Motion-search algorithm override. `None` keeps the workload's own
    /// (full-quality) search; `Some` re-encodes the workload's frames with
    /// the given algorithm before replaying its trace.
    pub search: Option<SearchAlgorithm>,
}

// The cache canonicalizes a scenario by hashing its `Debug` string
// (`cache::scenario_key`). This manual impl renders exactly what the old
// `#[derive(Debug)]` rendered when the approximation axis is at its
// defaults, so every pre-existing cache key — and the golden-invariance
// fixtures built on them — stays byte-identical. The two new fields are
// appended only when they deviate from the defaults.
impl fmt::Debug for Scenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Exhaustive destructure: adding a Scenario field without deciding
        // how it feeds the cache key is a compile error here.
        let Scenario {
            kind,
            machine,
            mem,
            reconfig,
            lbb_bank_lines,
            fault,
            cycle_limit,
            label,
            approx,
            search,
        } = self;
        let mut d = f.debug_struct("Scenario");
        d.field("kind", kind)
            .field("machine", machine)
            .field("mem", mem)
            .field("reconfig", reconfig)
            .field("lbb_bank_lines", lbb_bank_lines)
            .field("fault", fault)
            .field("cycle_limit", cycle_limit)
            .field("label", label);
        if !approx.is_exact() {
            d.field("approx", approx);
        }
        if search.is_some() {
            d.field("search", search);
        }
        d.finish()
    }
}

impl Scenario {
    /// Instruction-level scenario for a kernel variant.
    #[must_use]
    pub fn instruction(variant: Variant) -> Self {
        Scenario {
            kind: Kind::Instruction(variant),
            machine: MachineConfig::st200(),
            mem: MemConfig::st200(),
            reconfig: ReconfigModel::zero_penalty(),
            lbb_bank_lines: None,
            fault: FaultPlan::none(),
            cycle_limit: None,
            label: variant.name().to_owned(),
            approx: ApproxSad::Exact,
            search: None,
        }
    }

    /// The ORIG baseline.
    #[must_use]
    pub fn orig() -> Self {
        Scenario::instruction(Variant::Orig)
    }

    /// Scenario A1.
    #[must_use]
    pub fn a1() -> Self {
        Scenario::instruction(Variant::A1)
    }

    /// Scenario A2.
    #[must_use]
    pub fn a2() -> Self {
        Scenario::instruction(Variant::A2)
    }

    /// Scenario A3.
    #[must_use]
    pub fn a3() -> Self {
        Scenario::instruction(Variant::A3)
    }

    /// Loop-level scenario with one line buffer.
    #[must_use]
    pub fn loop_level(bandwidth: RfuBandwidth, beta: u64) -> Self {
        Scenario {
            kind: Kind::Loop {
                bandwidth,
                beta,
                two_line_buffers: false,
            },
            machine: MachineConfig::st200(),
            mem: MemConfig::st200_loop_level(),
            reconfig: ReconfigModel::zero_penalty(),
            lbb_bank_lines: None,
            fault: FaultPlan::none(),
            cycle_limit: None,
            label: format!("{} b={beta}", bandwidth.label()),
            approx: ApproxSad::Exact,
            search: None,
        }
    }

    /// Loop-level scenario with two line buffers (Table 7).
    #[must_use]
    pub fn loop_two_lb(beta: u64) -> Self {
        Scenario {
            kind: Kind::Loop {
                bandwidth: RfuBandwidth::B1x32,
                beta,
                two_line_buffers: true,
            },
            machine: MachineConfig::st200(),
            mem: MemConfig::st200_loop_level(),
            reconfig: ReconfigModel::zero_penalty(),
            lbb_bank_lines: None,
            fault: FaultPlan::none(),
            cycle_limit: None,
            label: format!("2LB b={beta}"),
            approx: ApproxSad::Exact,
            search: None,
        }
    }

    /// The preset scenario of a kind: [`Scenario::instruction`],
    /// [`Scenario::loop_level`] or [`Scenario::loop_two_lb`] (which runs
    /// at 1x32 whatever bandwidth `kind` names).
    #[must_use]
    pub fn preset(kind: &Kind) -> Self {
        match *kind {
            Kind::Instruction(variant) => Scenario::instruction(variant),
            Kind::Loop {
                beta,
                two_line_buffers: true,
                ..
            } => Scenario::loop_two_lb(beta),
            Kind::Loop {
                bandwidth, beta, ..
            } => Scenario::loop_level(bandwidth, beta),
        }
    }

    /// The ME-loop configuration of a loop-level scenario (for a given
    /// frame stride).
    ///
    /// # Panics
    ///
    /// Panics when called on an instruction-level scenario.
    #[must_use]
    pub fn me_loop_cfg(&self, stride: u32) -> MeLoopCfg {
        match self.kind {
            Kind::Loop {
                bandwidth,
                beta,
                two_line_buffers,
            } => {
                let cfg = MeLoopCfg::new(bandwidth, beta, stride)
                    .with_approx(sad_approx_to_rfu(self.approx));
                if two_line_buffers {
                    cfg.with_line_buffer_b()
                } else {
                    cfg
                }
            }
            Kind::Instruction(_) => panic!("not a loop-level scenario"),
        }
    }

    /// The loop-level driver kind, if applicable.
    #[must_use]
    pub fn driver_kind(&self) -> Option<DriverKind> {
        match self.kind {
            Kind::Loop {
                two_line_buffers, ..
            } => Some(if two_line_buffers {
                DriverKind::DoubleLineBuffer
            } else {
                DriverKind::SingleLineBuffer
            }),
            Kind::Instruction(_) => None,
        }
    }

    /// Overrides the reconfiguration model (ablations).
    #[must_use]
    pub fn with_reconfig(mut self, model: ReconfigModel) -> Self {
        self.reconfig = model;
        self
    }

    /// Overrides Line Buffer B's per-bank capacity (ablations).
    #[must_use]
    pub fn with_lbb_bank_lines(mut self, lines: usize) -> Self {
        self.lbb_bank_lines = Some(lines);
        self
    }

    /// Installs a fault-injection plan (robustness experiments). The
    /// injector substreams are salted with the scenario label, so the same
    /// plan perturbs each scenario independently but deterministically.
    #[must_use]
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault = plan;
        self
    }

    /// Caps every simulated kernel run at `limit` cycles; exceeding it
    /// fails the scenario with a cycle-limit error instead of hanging the
    /// case study.
    #[must_use]
    pub fn with_cycle_limit(mut self, limit: u64) -> Self {
        self.cycle_limit = Some(limit);
        self
    }

    /// Selects the fetch/issue substrate the scenario's machine runs on
    /// (cross-substrate sweeps). The substrate lives in the machine
    /// configuration, so it reaches the cache key through the `machine`
    /// field and the built machine through [`Scenario::session`].
    #[must_use]
    pub fn with_substrate(mut self, substrate: Substrate) -> Self {
        self.machine.substrate = substrate;
        self
    }

    /// The fetch/issue substrate this scenario runs on.
    #[must_use]
    pub fn substrate(&self) -> Substrate {
        self.machine.substrate
    }

    /// Selects a SAD approximation for both the host encoder and the
    /// simulated kernel (speed-vs-quality sweeps).
    #[must_use]
    pub fn with_approx(mut self, approx: ApproxSad) -> Self {
        self.approx = approx;
        self
    }

    /// Overrides the motion-search algorithm the workload is encoded with
    /// (adaptive-search sweeps).
    #[must_use]
    pub fn with_search(mut self, search: SearchAlgorithm) -> Self {
        self.search = Some(search);
        self
    }

    /// Whether this scenario needs a derived workload: its trace must be
    /// re-encoded with a non-default approximation or search algorithm
    /// before replay.
    #[must_use]
    pub fn needs_derived_workload(&self) -> bool {
        !self.approx.is_exact() || self.search.is_some()
    }

    /// The [`SimSession`] this scenario describes (for a given frame
    /// stride): core + memory configuration, the case-study RFU (with the
    /// scenario's ME-loop configuration for loop-level points, the shared
    /// instruction-level configurations otherwise), reconfiguration model,
    /// line-buffer geometry, fault plan (salted with the scenario label)
    /// and cycle budget. `session(stride).build()` is the one way a
    /// scenario becomes a machine.
    #[must_use]
    pub fn session(&self, stride: u32) -> SimSession {
        let me = match self.kind {
            // Instruction-level scenarios still carry the case-study RFU
            // (its instruction-level configurations); the ME-loop slot is
            // the 1x32 default and never invoked.
            Kind::Instruction(_) => MeLoopCfg::new(RfuBandwidth::B1x32, 1, stride),
            Kind::Loop { .. } => self.me_loop_cfg(stride),
        };
        let mut session = SimSession::with_configs(self.machine.clone(), self.mem.clone())
            .me_loop(me)
            .reconfig(self.reconfig.clone())
            .fault_plan(self.fault, &self.label);
        if let Some(lines) = self.lbb_bank_lines {
            session = session.lbb_bank_lines(lines);
        }
        if let Some(limit) = self.cycle_limit {
            session = session.cycle_limit(limit);
        }
        session
    }

    /// The static loop latency of a loop-level scenario (Table 2's `Lat`).
    ///
    /// # Panics
    ///
    /// Panics when called on an instruction-level scenario.
    #[must_use]
    pub fn static_latency(&self, stride: u32) -> u64 {
        self.me_loop_cfg(stride).static_latency()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loop_scenarios_extend_prefetch_buffer() {
        assert_eq!(Scenario::orig().mem.prefetch_entries, 8);
        assert_eq!(
            Scenario::loop_level(RfuBandwidth::B1x32, 1)
                .mem
                .prefetch_entries,
            64
        );
    }

    #[test]
    fn static_latencies_ordered_by_bandwidth() {
        let s = 176;
        let l32 = Scenario::loop_level(RfuBandwidth::B1x32, 1).static_latency(s);
        let l64 = Scenario::loop_level(RfuBandwidth::B1x64, 1).static_latency(s);
        let l2x = Scenario::loop_level(RfuBandwidth::B2x64, 1).static_latency(s);
        let lb = Scenario::loop_two_lb(1).static_latency(s);
        assert!(l32 > l64 && l64 > l2x && l2x > lb);
    }

    #[test]
    #[should_panic(expected = "not a loop-level")]
    fn instruction_scenario_has_no_loop_cfg() {
        let _ = Scenario::orig().me_loop_cfg(176);
    }

    #[test]
    fn approx_and_search_tokens_round_trip() {
        for approx in [
            ApproxSad::Exact,
            ApproxSad::SubsampledRows { step: 2 },
            ApproxSad::ReducedPrecision { bits: 3 },
            ApproxSad::EarlyExit { threshold: 4096 },
        ] {
            assert_eq!(parse_approx(&approx_token(approx)), Some(approx));
        }
        for search in [
            SearchAlgorithm::Diamond,
            SearchAlgorithm::ThreeStep,
            SearchAlgorithm::Full { range: 8 },
            SearchAlgorithm::Spiral {
                range: 8,
                threshold: 256,
            },
        ] {
            assert_eq!(parse_search(&search_token(search)), Some(search));
        }
        assert_eq!(parse_approx("rows/1"), None);
        assert_eq!(parse_approx("bits/8"), None);
        assert_eq!(parse_search("full/0"), None);
        assert_eq!(parse_search("mystery"), None);
    }

    #[test]
    fn debug_string_appends_approx_fields_only_when_set() {
        let base = format!("{:?}", Scenario::a3());
        assert!(
            !base.contains("approx") && !base.contains("search"),
            "{base}"
        );
        let ap = Scenario::a3().with_approx(ApproxSad::SubsampledRows { step: 2 });
        assert!(format!("{ap:?}").contains("approx"));
        let se = Scenario::a3().with_search(SearchAlgorithm::Diamond);
        assert!(format!("{se:?}").contains("search"));
    }

    #[test]
    fn substrate_reaches_the_debug_string_through_the_machine_field() {
        let base = format!("{:?}", Scenario::a3());
        assert!(!base.contains("substrate"), "{base}");
        let scalar = Scenario::a3().with_substrate(Substrate::ScalarInOrder);
        assert!(format!("{scalar:?}").contains("substrate: ScalarInOrder"));
        assert_eq!(scalar.substrate(), Substrate::ScalarInOrder);
        assert_eq!(Scenario::a3().substrate(), Substrate::Vliw4);
        // And into the built machine.
        let m = scalar.session(176).build();
        assert_eq!(m.config().substrate, Substrate::ScalarInOrder);
    }

    #[test]
    fn approx_scenarios_thread_the_loop_cfg() {
        let sc = Scenario::loop_level(RfuBandwidth::B1x32, 1)
            .with_approx(ApproxSad::SubsampledRows { step: 2 });
        assert_eq!(
            sc.me_loop_cfg(176).approx,
            SadApprox::SubsampledRows { step: 2 }
        );
        assert!(sc.needs_derived_workload());
        assert!(!Scenario::orig().needs_derived_workload());
    }

    #[test]
    fn driver_kind_mapping() {
        assert_eq!(Scenario::orig().driver_kind(), None);
        assert_eq!(
            Scenario::loop_two_lb(1).driver_kind(),
            Some(DriverKind::DoubleLineBuffer)
        );
    }
}
