//! Host-time spans recorded by the benchmark around its own calls into
//! the layers.
//!
//! A [`Trace`] holds spans (name, scenario id, parent, start, end) in
//! memory and writes them out as JSON lines when the run ends. Calls too
//! frequent to keep one span each — `Machine::run`, once per `GetSad`
//! call — are *folded*: the trace keeps one leaf per (parent, name) with
//! a count and a summed duration. Folded leaves run sequentially inside
//! their parent on one thread, so their sum is exactly the part of the
//! parent they cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Scenario id of spans that belong to no scenario (set-up, passes).
pub const NO_ID: u64 = u64::MAX;

/// One recorded span. Times are nanoseconds since the trace origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary name, e.g. `session.build`.
    pub name: &'static str,
    /// Scenario id shared by every span of one scenario ([`NO_ID`] when
    /// none).
    pub id: u64,
    /// Index of the enclosing span in the same trace.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the trace origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the trace origin (`start_ns` until
    /// closed).
    pub end_ns: u64,
}

/// Many short sequential calls under one parent, kept as a count and a
/// summed duration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Folded {
    /// Layer boundary name, e.g. `sim.run`.
    pub name: &'static str,
    /// Index of the enclosing span.
    pub parent: usize,
    /// Calls folded in.
    pub count: u64,
    /// Summed call durations in nanoseconds.
    pub total_ns: u64,
}

/// An in-memory span recorder for one thread.
#[derive(Debug, Clone)]
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
    folded: Vec<Folded>,
}

impl Trace {
    /// An empty trace whose times count from `origin`. Traces recorded on
    /// several threads share one origin so they can be merged.
    #[must_use]
    pub fn new(origin: Instant) -> Self {
        Trace {
            origin,
            spans: Vec::new(),
            folded: Vec::new(),
        }
    }

    /// Nanoseconds since the origin.
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span now and returns its index for [`Trace::close`].
    pub fn open(&mut self, name: &'static str, id: u64, parent: Option<usize>) -> usize {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            id,
            parent,
            start_ns: now,
            end_ns: now,
        });
        self.spans.len() - 1
    }

    /// Closes the span at `idx` now.
    pub fn close(&mut self, idx: usize) {
        let now = self.now_ns();
        if let Some(span) = self.spans.get_mut(idx) {
            span.end_ns = now;
        }
    }

    /// Adds a span with given times (tests build trees with known times).
    #[cfg(test)]
    fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Folds one call of `dur_ns` nanoseconds named `name` under `parent`.
    pub fn fold(&mut self, parent: usize, name: &'static str, dur_ns: u64) {
        match self
            .folded
            .iter_mut()
            .rev()
            .find(|f| f.parent == parent && f.name == name)
        {
            Some(f) => {
                f.count += 1;
                f.total_ns += dur_ns;
            }
            None => self.folded.push(Folded {
                name,
                parent,
                count: 1,
                total_ns: dur_ns,
            }),
        }
    }

    /// The recorded spans.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends `other`'s spans and folded leaves, re-indexing parents;
    /// `other`'s top-level spans become children of `root`.
    pub fn merge(&mut self, other: Trace, root: Option<usize>) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base).or(root);
            s
        }));
        self.folded.extend(other.folded.into_iter().map(|mut f| {
            f.parent += base;
            f
        }));
    }

    /// Self time per span name, in seconds: each span's duration minus
    /// the part of it covered by its child spans and folded leaves,
    /// summed over spans of the same name. Folded leaves are reported
    /// under their own name with their summed duration.
    #[must_use]
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        let mut folded_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for f in &self.folded {
            folded_ns[f.parent] += f.total_ns;
            *out.entry(f.name).or_default() += f.total_ns as f64 * 1e-9;
        }
        for (i, s) in self.spans.iter().enumerate() {
            let own = self_time_ns((s.start_ns, s.end_ns), &children[i], folded_ns[i]);
            *out.entry(s.name).or_default() += own as f64 * 1e-9;
        }
        out
    }

    /// The trace as JSON lines: one `span` object per span and one
    /// `folded` object per folded leaf.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let id = if s.id == NO_ID {
                "null".to_owned()
            } else {
                s.id.to_string()
            };
            let _ = writeln!(
                out,
                "{{\"kind\":\"span\",\"index\":{i},\"name\":\"{}\",\"id\":{id},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        for f in &self.folded {
            let _ = writeln!(
                out,
                "{{\"kind\":\"folded\",\"name\":\"{}\",\"parent\":{},\"count\":{},\"total_ns\":{}}}",
                f.name, f.parent, f.count, f.total_ns
            );
        }
        out
    }
}

/// Self time of a span over `parent = (start, end)`: its duration minus
/// the union of its `children` intervals (clipped to the parent; children
/// on other threads may overlap each other) and minus `folded_ns` of
/// folded sequential leaves.
#[must_use]
pub fn self_time_ns(parent: (u64, u64), children: &[(u64, u64)], folded_ns: u64) -> u64 {
    let (start, end) = parent;
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0u64;
    let mut cursor = start;
    for (s, e) in clipped {
        let s = s.max(cursor);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    end.saturating_sub(start)
        .saturating_sub(covered)
        .saturating_sub(folded_ns)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            id: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Disjoint children.
        assert_eq!(self_time_ns((0, 100), &[(10, 20), (30, 50)], 0), 70);
        // Overlapping children (two worker threads) count once.
        assert_eq!(self_time_ns((0, 100), &[(10, 60), (40, 80)], 0), 30);
        // A child poking out of its parent is clipped to it.
        assert_eq!(self_time_ns((50, 100), &[(40, 60), (90, 120)], 0), 30);
        // Nested duplicates and folded leaves.
        assert_eq!(
            self_time_ns((0, 100), &[(10, 30), (10, 30), (15, 20)], 25),
            55
        );
        // Never negative.
        assert_eq!(self_time_ns((0, 10), &[(0, 10)], 5), 0);
    }

    #[test]
    fn self_times_on_a_synthetic_span_tree() {
        let mut t = Trace::new(Instant::now());
        // pass [0, 1000]
        //   scenario [100, 600]
        //     session.build [100, 150]
        //     sim.replay [200, 600], with 3 folded sim.run calls of 100 ns
        //   scenario [600, 1000]
        //     session.build [600, 700]
        let pass = t.push(span("pass", None, 0, 1000));
        let sc0 = t.push(span("scenario", Some(pass), 100, 600));
        t.push(span("session.build", Some(sc0), 100, 150));
        let replay = t.push(span("sim.replay", Some(sc0), 200, 600));
        for _ in 0..3 {
            t.fold(replay, "sim.run", 100);
        }
        let sc1 = t.push(span("scenario", Some(pass), 600, 1000));
        t.push(span("session.build", Some(sc1), 600, 700));

        let st = t.self_times();
        let ns = |name: &str| (st[name] * 1e9).round() as u64;
        assert_eq!(ns("pass"), 100);
        assert_eq!(ns("scenario"), 50 + 300);
        assert_eq!(ns("session.build"), 150);
        assert_eq!(ns("sim.replay"), 100);
        assert_eq!(ns("sim.run"), 300);
        // Self times partition the root span.
        let total: u64 = ["pass", "scenario", "session.build", "sim.replay", "sim.run"]
            .iter()
            .map(|n| ns(n))
            .sum();
        assert_eq!(total, 1000);
    }

    #[test]
    fn merge_reindexes_parents_and_folds() {
        let origin = Instant::now();
        let mut a = Trace::new(origin);
        a.push(span("pass", None, 0, 10));
        let mut b = Trace::new(origin);
        let root = b.push(span("scenario", None, 0, 10));
        b.push(span("session.build", Some(root), 0, 5));
        b.fold(root, "sim.run", 2);
        a.merge(b, Some(0));
        assert_eq!(a.spans()[1].parent, Some(0));
        assert_eq!(a.spans()[2].parent, Some(1));
        let st = a.self_times();
        assert!((st["scenario"] - 3e-9).abs() < 1e-15);
        assert!(st["pass"].abs() < 1e-15);
        let lines = a.to_jsonl();
        assert_eq!(lines.lines().count(), 4);
        for line in lines.lines() {
            assert!(rvliw_trace::Json::parse(line).is_ok(), "{line}");
        }
    }

    #[test]
    fn open_and_close_measure_real_time() {
        let mut t = Trace::new(Instant::now());
        let i = t.open("outer", NO_ID, None);
        let j = t.open("inner", 7, Some(i));
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.close(j);
        t.close(i);
        let s = &t.spans()[j];
        assert!(s.end_ns - s.start_ns >= 2_000_000);
        assert!(t.spans()[i].end_ns >= s.end_ns);
    }
}
