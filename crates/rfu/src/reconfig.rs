//! Reconfiguration-overhead management.
//!
//! The paper's baseline assumes **zero reconfiguration penalty** ("this gives
//! an upper-bound performance assessment"), to be approached in real designs
//! through multi-context configuration memories and configuration caches
//! with prefetch. This module provides both the zero-penalty
//! assumption and a parameterized penalty model used by the ablation bench
//! (`ablation_reconfig`) to quantify how much of the loop-level speedup
//! survives realistic reconfiguration costs.

/// Multi-context reconfiguration model.
///
/// The RFU holds up to `contexts` configurations resident (multi-context
/// configuration memory). Activating a non-resident configuration costs
/// `penalty` cycles (loading from the configuration cache/memory) and evicts
/// the least recently activated context.
///
/// ```
/// use rvliw_rfu::ReconfigModel;
///
/// let mut m = ReconfigModel::with_penalty(100, 2);
/// assert_eq!(m.activate(1, 0), 100); // first load pays
/// assert_eq!(m.activate(1, 0), 0);   // resident: free
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReconfigModel {
    penalty: u64,
    contexts: usize,
    /// Most recently used last.
    resident: Vec<u16>,
    /// Configuration prefetch: the controller starts loading the next
    /// configuration in the background as soon as the current one is
    /// activated, hiding up to `now - last_activation` cycles of the
    /// penalty (the management technique the paper defers to future work).
    prefetch_hiding: bool,
    last_activation: u64,
}

impl ReconfigModel {
    /// The paper's baseline: reconfiguration is free.
    #[must_use]
    pub fn zero_penalty() -> Self {
        ReconfigModel {
            penalty: 0,
            contexts: usize::MAX,
            resident: Vec::new(),
            prefetch_hiding: false,
            last_activation: 0,
        }
    }

    /// A penalty model with `contexts` resident configurations and
    /// `penalty` cycles per configuration load.
    ///
    /// # Panics
    ///
    /// Panics if `contexts` is zero.
    #[must_use]
    pub fn with_penalty(penalty: u64, contexts: usize) -> Self {
        assert!(contexts > 0, "at least one resident context");
        ReconfigModel {
            penalty,
            contexts,
            resident: Vec::new(),
            prefetch_hiding: false,
            last_activation: 0,
        }
    }

    /// Enables configuration prefetch: time elapsed since the previous
    /// activation hides an equal share of the next load's penalty
    /// ("smart reconfiguration strategies, based on configuration prefetch
    /// and management, to hide the reconfiguration penalties").
    #[must_use]
    pub fn with_prefetch_hiding(mut self) -> Self {
        self.prefetch_hiding = true;
        self
    }

    /// Activates `cfg` at machine cycle `now`; returns the stall cycles
    /// paid (0 for resident contexts; partially or fully hidden when
    /// configuration prefetch is enabled).
    pub fn activate(&mut self, cfg: u16, now: u64) -> u64 {
        if let Some(pos) = self.resident.iter().position(|&c| c == cfg) {
            // Touch for LRU.
            self.resident.remove(pos);
            self.resident.push(cfg);
            self.last_activation = now;
            return 0;
        }
        if self.resident.len() >= self.contexts && self.contexts != usize::MAX {
            self.resident.remove(0);
        }
        if self.contexts != usize::MAX || self.resident.len() < 1024 {
            self.resident.push(cfg);
        }
        let visible = if self.prefetch_hiding {
            let hidden = now.saturating_sub(self.last_activation);
            self.penalty.saturating_sub(hidden)
        } else {
            self.penalty
        };
        self.last_activation = now;
        visible
    }

    /// The per-load penalty.
    #[must_use]
    pub fn penalty(&self) -> u64 {
        self.penalty
    }

    /// The number of resident configuration contexts (`usize::MAX` for
    /// the zero-penalty baseline).
    #[must_use]
    pub fn contexts(&self) -> usize {
        self.contexts
    }

    /// Whether configuration prefetch hides idle time behind loads.
    #[must_use]
    pub fn prefetch_hiding(&self) -> bool {
        self.prefetch_hiding
    }

    /// Resident contexts, least recently used first.
    #[must_use]
    pub fn resident(&self) -> &[u16] {
        &self.resident
    }
}

impl Default for ReconfigModel {
    fn default() -> Self {
        ReconfigModel::zero_penalty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_penalty_is_always_free() {
        let mut m = ReconfigModel::zero_penalty();
        for cfg in 0..100u16 {
            assert_eq!(m.activate(cfg, 0), 0);
        }
    }

    #[test]
    fn penalty_paid_on_first_activation_only() {
        let mut m = ReconfigModel::with_penalty(100, 2);
        assert_eq!(m.activate(1, 0), 100);
        assert_eq!(m.activate(1, 0), 0);
        assert_eq!(m.activate(2, 0), 100);
        assert_eq!(m.activate(1, 0), 0); // still resident
    }

    #[test]
    fn lru_eviction_under_pressure() {
        let mut m = ReconfigModel::with_penalty(100, 2);
        m.activate(1, 0);
        m.activate(2, 0);
        m.activate(1, 0); // touch 1 ⇒ 2 becomes LRU
        assert_eq!(m.activate(3, 0), 100); // evicts 2
        assert_eq!(m.activate(1, 0), 0);
        assert_eq!(m.activate(2, 0), 100); // was evicted
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_contexts_rejected() {
        let _ = ReconfigModel::with_penalty(1, 0);
    }

    #[test]
    fn prefetch_hiding_absorbs_idle_time() {
        let mut m = ReconfigModel::with_penalty(100, 1).with_prefetch_hiding();
        assert_eq!(m.activate(1, 0), 100); // nothing to hide behind yet
                                           // 2 evicts 1; 60 idle cycles hide 60 of the 100-cycle load.
        assert_eq!(m.activate(2, 60), 40);
        // A long gap hides the whole load.
        assert_eq!(m.activate(1, 1000), 0);
        // Back-to-back switches pay almost everything.
        assert_eq!(m.activate(2, 1001), 99);
    }
}
