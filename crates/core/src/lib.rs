#![warn(missing_docs)]
//! # rvliw-core
//!
//! The experiment driver reproducing the DATE 2002 reconfigurable-VLIW case
//! study end to end: it composes the MPEG-4 workload (`mpeg4-enc`), the
//! `GetSad` kernels (`rvliw-kernels`) and the RFU-augmented machine
//! (`rvliw-sim`) into the scenarios the paper evaluates, and regenerates
//! every table.
//!
//! * [`Workload`] — a synthetic QCIF sequence encoded on the host; its
//!   per-macroblock `GetSad` traces are what the simulator replays.
//! * [`Scenario`] — one architecture point: ORIG / A1 / A2 / A3
//!   (instruction level) or a loop-level configuration (bandwidth ×
//!   technology scaling β × one or two line buffers).
//! * [`run_me`] — replays the whole trace against the simulated kernel of a
//!   scenario and measures cycles, stalls and prefetch behaviour.
//! * [`AppModel`] — folds measured ME cycles into whole-application cycles
//!   using the paper's initial profile (`GetSad` = 25.6 % of execution in
//!   ORIG), which the %Rel column of Table 7 is defined against.
//! * [`SimSession`] — the single builder assembling core, memory, RFU,
//!   reconfiguration, line-buffer, fault and cycle-budget configuration
//!   into a runnable machine.
//! * [`ExperimentSpec`] / [`Sweep`] — declarative, JSON-serializable
//!   descriptions of a scenario grid plus the engine that expands and runs
//!   them; the paper's tables are seven checked-in specs under `specs/`.
//! * [`tables`] — Tables 1–7 as typed, printable structures.
//! * [`arch`] — the Figure 1 block diagram of the modified ST200.

pub mod app_model;
pub mod arch;
pub mod breakdown;
pub mod cache;
pub mod explore;
pub mod metrics;
pub mod runner;
pub mod scenario;
pub mod session;
pub mod spec;
pub mod supervisor;
pub mod sweep;
pub mod tables;
pub mod threads;
pub mod workload;

pub use app_model::AppModel;
pub use breakdown::CycleBreakdown;
pub use cache::{
    default_cache_dir, scenario_key, verify_cache, workload_digest, ScenarioCache, VerifyReport,
};
pub use explore::{
    run_explore, EngineChoice, ExploreOutcome, ExploreSpace, ExploreSpec, ExploreStrategy,
    FrontierPoint, Objective, ParetoArchive,
};
pub use metrics::{quality_json, RunMetrics, TablesSnapshot};
pub use runner::{run_me, run_me_with_tracer, MeResult, ScenarioError};
pub use rvliw_isa::Substrate;
pub use scenario::Scenario;
pub use session::SimSession;
pub use spec::{DcacheSpec, ExperimentSpec, ReconfigSpec, SpecError, SweepAxes};
pub use supervisor::{
    run_scenario_list_supervised, run_summary, HealthReport, Journal, SupervisorConfig,
};
pub use sweep::{
    run_scenario_list, Pareto, ParetoPoint, ScenarioResult, SubstrateRatio, Sweep, SweepOutcome,
    SweepRow,
};
pub use tables::CaseStudy;
pub use threads::{auto_threads, default_threads, flag_parse, flag_value, parse_threads, RunFlags};
pub use workload::Workload;

/// The paper's initial profile: share of total execution time spent in
/// `GetSad` with the ORIG code.
pub const GETSAD_SHARE_ORIG: f64 = 0.256;
