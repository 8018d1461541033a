#![warn(missing_docs)]
//! # rvliw-trace
//!
//! Structured, cycle-accurate tracing for the rvliw simulator stack.
//!
//! The paper's whole argument rests on cycle-level accounting (cycles,
//! stalls, RFU pipeline occupancy, line-buffer hits). This crate defines
//! the event vocabulary and the [`Tracer`] trait that `rvliw-mem`,
//! `rvliw-rfu` and `rvliw-sim` emit into, plus the sinks:
//!
//! * [`NullTracer`] — disabled tracing. The simulator is generic over the
//!   tracer, so this monomorphizes to nothing: the hot issue loop compiles
//!   exactly as it did before tracing existed.
//! * [`CountingTracer`] — per-PC and per-stall-site histograms on top of
//!   the legacy end-of-run totals; its totals bit-match `SimStats`/
//!   `MemStats`/`RfuStats`.
//! * [`ChromeTracer`] — Chrome `trace_event` JSON for `chrome://tracing`
//!   or <https://ui.perfetto.dev> (one cycle = 1 µs).
//! * [`TeeTracer`] — fans one deterministic run out to two sinks (e.g. a
//!   Chrome trace plus counting metrics).
//!
//! The [`json`] module carries the minimal JSON reader/writer the exporters
//! and the `rvliw tables --check` regression gate share (the build environment is
//! offline; there is no serde).
//!
//! ```
//! use rvliw_trace::{CountingTracer, StallCause, Tracer};
//!
//! let mut t = CountingTracer::new();
//! t.bundle(0, 0, 4);
//! t.stall(1, 0, StallCause::DCache, 143);
//! assert_eq!(t.stall_cycles(StallCause::DCache), 143);
//! ```

pub mod chrome;
pub mod event;
pub mod json;
pub mod tracer;

pub use chrome::ChromeTracer;
pub use event::{FaultEvent, MemEvent, RfuEvent, StallCause};
pub use json::Json;
pub use tracer::{CountingTracer, NullTracer, PcCounters, TeeTracer, Tracer};
