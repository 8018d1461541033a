//! Chrome `trace_event` exporter: load the output in `chrome://tracing` or
//! <https://ui.perfetto.dev> to see bundles, stalls, memory traffic and RFU
//! pipeline occupancy on a shared cycle timeline.
//!
//! One simulated cycle maps to one microsecond of trace time. Events land
//! on three tracks (Chrome "threads") of one process: `core`, `mem`, `rfu`.

use crate::event::{FaultEvent, MemEvent, RfuEvent, StallCause};
use crate::json::escape_json;
use crate::tracer::Tracer;

/// Track id of the core issue pipeline.
const TID_CORE: u32 = 1;
/// Track id of the memory hierarchy.
const TID_MEM: u32 = 2;
/// Track id of the RFU.
const TID_RFU: u32 = 3;
/// Track id of the fault-injection layer.
const TID_FAULT: u32 = 4;

/// A [`Tracer`] that records Chrome `trace_event` JSON.
///
/// Bundle issues and stalls become complete (`"ph": "X"`) slices on the
/// core track; cache misses and prefetches become instant events on the
/// memory track; kernel loops become slices on the RFU track whose duration
/// is the loop's busy latency.
#[derive(Debug, Clone)]
pub struct ChromeTracer {
    events: Vec<String>,
    /// Cap on recorded events, guarding against multi-gigabyte traces on
    /// long runs (the default is [`ChromeTracer::DEFAULT_MAX_EVENTS`]).
    max_events: usize,
    /// Events dropped after the event cap was reached.
    pub dropped: u64,
    record_bundles: bool,
}

impl Default for ChromeTracer {
    fn default() -> Self {
        Self::new()
    }
}

impl ChromeTracer {
    /// Default event cap (~100 MB of JSON at worst).
    pub const DEFAULT_MAX_EVENTS: usize = 2_000_000;

    /// A tracer recording every event kind, including per-bundle slices.
    #[must_use]
    pub fn new() -> Self {
        ChromeTracer {
            events: Vec::new(),
            max_events: Self::DEFAULT_MAX_EVENTS,
            dropped: 0,
            record_bundles: true,
        }
    }

    /// A tracer that skips per-bundle slices (stalls, memory and RFU events
    /// only) — appropriate for multi-million-cycle runs.
    #[must_use]
    pub fn without_bundles() -> Self {
        ChromeTracer {
            record_bundles: false,
            ..Self::new()
        }
    }

    /// Overrides the event cap.
    #[must_use]
    pub fn with_max_events(mut self, max: usize) -> Self {
        self.max_events = max;
        self
    }

    /// Events recorded so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    fn push(&mut self, ev: String) {
        if self.events.len() >= self.max_events {
            self.dropped += 1;
        } else {
            self.events.push(ev);
        }
    }

    /// A complete ("X") slice.
    fn slice(&mut self, tid: u32, name: &str, ts: u64, dur: u64, args: &str) {
        self.push(format!(
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{ts},\"dur\":{dur}{args}}}",
            escape_json(name)
        ));
    }

    /// An instant ("i") event.
    fn instant(&mut self, tid: u32, name: &str, ts: u64, args: &str) {
        self.push(format!(
            "{{\"name\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":{tid},\"ts\":{ts}{args}}}",
            escape_json(name)
        ));
    }

    /// Serializes the recorded trace as a Chrome `trace_event` JSON object
    /// (the `{"traceEvents": [...]}` envelope Perfetto and `chrome://tracing`
    /// both accept).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\"traceEvents\":[\n");
        // Track-name metadata first.
        for (tid, name) in [
            (TID_CORE, "core"),
            (TID_MEM, "mem"),
            (TID_RFU, "rfu"),
            (TID_FAULT, "fault"),
        ] {
            s.push_str(&format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"args\":{{\"name\":\"{name}\"}}}},\n"
            ));
        }
        for (i, ev) in self.events.iter().enumerate() {
            s.push_str(ev);
            if i + 1 != self.events.len() {
                s.push(',');
            }
            s.push('\n');
        }
        s.push_str("],\"displayTimeUnit\":\"ms\"}\n");
        s
    }
}

impl Tracer for ChromeTracer {
    fn bundle(&mut self, cycle: u64, pc: usize, ops: usize) {
        if self.record_bundles {
            self.slice(
                TID_CORE,
                "bundle",
                cycle,
                1,
                &format!(",\"args\":{{\"pc\":{pc},\"ops\":{ops}}}"),
            );
        }
    }

    fn stall(&mut self, cycle: u64, pc: usize, cause: StallCause, cycles: u64) {
        self.slice(
            TID_CORE,
            cause.label(),
            cycle,
            cycles.max(1),
            &format!(",\"args\":{{\"pc\":{pc}}}"),
        );
    }

    fn mem(&mut self, cycle: u64, event: MemEvent) {
        match event {
            MemEvent::DHit { .. } => {} // too frequent to be useful as events
            MemEvent::DMiss { addr, stall } => self.slice(
                TID_MEM,
                "d-miss",
                cycle,
                stall.max(1),
                &format!(",\"args\":{{\"addr\":{addr}}}"),
            ),
            MemEvent::DLateCovered { addr, stall } => self.slice(
                TID_MEM,
                "d-late-covered",
                cycle,
                stall.max(1),
                &format!(",\"args\":{{\"addr\":{addr}}}"),
            ),
            MemEvent::IMiss { addr, stall } => self.slice(
                TID_MEM,
                "i-miss",
                cycle,
                stall.max(1),
                &format!(",\"args\":{{\"addr\":{addr}}}"),
            ),
            MemEvent::PrefetchIssued { line, ready_at } => self.slice(
                TID_MEM,
                "prefetch",
                cycle,
                ready_at.saturating_sub(cycle).max(1),
                &format!(",\"args\":{{\"line\":{line}}}"),
            ),
            MemEvent::PrefetchDropped { line } => self.instant(
                TID_MEM,
                "prefetch-dropped",
                cycle,
                &format!(",\"args\":{{\"line\":{line}}}"),
            ),
            MemEvent::PrefetchRedundant { .. } => {}
            MemEvent::Writeback => self.instant(TID_MEM, "writeback", cycle, ""),
        }
    }

    fn rfu(&mut self, cycle: u64, event: RfuEvent) {
        match event {
            RfuEvent::Init { cfg, penalty } => self.instant(
                TID_RFU,
                "rfu-init",
                cycle,
                &format!(",\"args\":{{\"cfg\":{cfg},\"penalty\":{penalty}}}"),
            ),
            RfuEvent::Send { .. } | RfuEvent::LbbHit => {}
            RfuEvent::ShortExec { cfg } => self.slice(
                TID_RFU,
                "rfu-exec",
                cycle,
                1,
                &format!(",\"args\":{{\"cfg\":{cfg}}}"),
            ),
            RfuEvent::LoopRow { row, stall_so_far } => self.instant(
                TID_RFU,
                "loop-row",
                cycle,
                &format!(",\"args\":{{\"row\":{row},\"stall_so_far\":{stall_so_far}}}"),
            ),
            RfuEvent::LoopDone { cfg, busy, stall } => self.slice(
                TID_RFU,
                "kernel-loop",
                cycle,
                busy + stall,
                &format!(",\"args\":{{\"cfg\":{cfg},\"busy\":{busy},\"stall\":{stall}}}"),
            ),
            RfuEvent::MbPrefetch { cfg, addr } => self.instant(
                TID_RFU,
                "mb-prefetch",
                cycle,
                &format!(",\"args\":{{\"cfg\":{cfg},\"addr\":{addr}}}"),
            ),
            RfuEvent::LbaRowDone { row, ready_at } => {
                if ready_at != u64::MAX {
                    self.slice(
                        TID_RFU,
                        "lba-row-gather",
                        cycle,
                        ready_at.saturating_sub(cycle).max(1),
                        &format!(",\"args\":{{\"row\":{row}}}"),
                    );
                }
            }
            RfuEvent::LbaWait { row, wait } => self.slice(
                TID_RFU,
                "lba-wait",
                cycle,
                wait.max(1),
                &format!(",\"args\":{{\"row\":{row}}}"),
            ),
            RfuEvent::LbbLate { wait } => self.slice(TID_RFU, "lbb-late", cycle, wait.max(1), ""),
            RfuEvent::LbbMiss => self.instant(TID_RFU, "lbb-miss", cycle, ""),
        }
    }

    fn fault(&mut self, cycle: u64, event: FaultEvent) {
        match event {
            FaultEvent::MemLatency { addr, extra } => self.slice(
                TID_FAULT,
                "fault-mem-latency",
                cycle,
                extra.max(1),
                &format!(",\"args\":{{\"addr\":{addr},\"extra\":{extra}}}"),
            ),
            FaultEvent::CacheFlush => self.instant(TID_FAULT, "fault-cache-flush", cycle, ""),
            FaultEvent::LbRowDelay { row, extra } => self.slice(
                TID_FAULT,
                "fault-lb-row-delay",
                cycle,
                extra.max(1),
                &format!(",\"args\":{{\"row\":{row},\"extra\":{extra}}}"),
            ),
            FaultEvent::LbRowStuck { row } => self.instant(
                TID_FAULT,
                "fault-lb-row-stuck",
                cycle,
                &format!(",\"args\":{{\"row\":{row}}}"),
            ),
            FaultEvent::BitFlip { row, byte, mask } => self.instant(
                TID_FAULT,
                "fault-bit-flip",
                cycle,
                &format!(",\"args\":{{\"row\":{row},\"byte\":{byte},\"mask\":{mask}}}"),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn trace_json_is_valid_and_carries_events() {
        let mut t = ChromeTracer::new();
        t.bundle(0, 0, 4);
        t.stall(1, 0, StallCause::DCache, 12);
        t.mem(
            1,
            MemEvent::DMiss {
                addr: 256,
                stall: 12,
            },
        );
        t.rfu(
            20,
            RfuEvent::LoopDone {
                cfg: 32,
                busy: 104,
                stall: 0,
            },
        );
        let json = t.to_json();
        let parsed = Json::parse(&json).expect("valid JSON");
        let events = parsed
            .get("traceEvents")
            .and_then(Json::as_array)
            .expect("traceEvents array");
        // 4 metadata + 4 recorded.
        assert_eq!(events.len(), 8);
        assert!(json.contains("\"dcache-stall\""));
        assert!(json.contains("\"kernel-loop\""));
    }

    #[test]
    fn fault_events_land_on_their_own_track() {
        let mut t = ChromeTracer::new();
        t.fault(10, FaultEvent::MemLatency { addr: 64, extra: 7 });
        t.fault(20, FaultEvent::CacheFlush);
        t.fault(
            30,
            FaultEvent::BitFlip {
                row: 3,
                byte: 5,
                mask: 0x10,
            },
        );
        let json = t.to_json();
        assert!(Json::parse(&json).is_ok());
        assert!(json.contains("\"fault-mem-latency\""));
        assert!(json.contains("\"fault-cache-flush\""));
        assert!(json.contains("\"fault-bit-flip\""));
        assert!(json.contains("\"args\":{\"name\":\"fault\"}"));
    }

    #[test]
    fn event_cap_drops_rather_than_grows() {
        let mut t = ChromeTracer::new().with_max_events(2);
        for i in 0..5 {
            t.bundle(i, 0, 1);
        }
        assert_eq!(t.len(), 2);
        assert_eq!(t.dropped, 3);
        assert!(Json::parse(&t.to_json()).is_ok());
    }

    #[test]
    fn without_bundles_skips_issue_slices() {
        let mut t = ChromeTracer::without_bundles();
        t.bundle(0, 0, 4);
        assert!(t.is_empty());
        t.stall(0, 0, StallCause::Interlock, 2);
        assert_eq!(t.len(), 1);
    }
}
