//! The benchmark workload: a synthetic sequence encoded on the host, with
//! the full `GetSad` call trace.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use mpeg4_enc::me::{MotionSearch, SearchAlgorithm};
use mpeg4_enc::{
    ApproxSad, EncodeReport, EncodeScore, Encoder, EncoderConfig, Frame, QualityMetrics,
    SyntheticSequence,
};

/// An encoded sequence plus everything the simulator needs to replay its
/// motion-estimation work.
#[derive(Debug, Clone)]
pub struct Workload {
    /// The source frames.
    pub frames: Vec<Frame>,
    /// The host encoding run (reconstructions + `GetSad` traces).
    pub report: EncodeReport,
    /// Luma row stride in bytes.
    pub stride: u32,
    /// Speed-vs-quality metrics against the golden full-search encode.
    /// `None` for base workloads; populated by [`Workload::derived`].
    pub quality: Option<QualityMetrics>,
}

/// FNV-1a over the workload's source luma planes: a cheap process-local
/// fingerprint used only to memoize derived encodes (never persisted).
fn frames_fingerprint(frames: &[Frame]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |byte: u8| {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for f in frames {
        for &b in &(f.y.width() as u64).to_le_bytes() {
            eat(b);
        }
        for &b in &(f.y.height() as u64).to_le_bytes() {
            eat(b);
        }
        for &b in f.y.data() {
            eat(b);
        }
    }
    h
}

/// The golden encoder configuration every quality number is measured
/// against: exhaustive full search (range 8) with exact SAD and
/// half-sample refinement.
#[must_use]
pub fn golden_config() -> EncoderConfig {
    EncoderConfig {
        search: MotionSearch {
            algorithm: SearchAlgorithm::Full { range: 8 },
            half_sample: true,
            approx: ApproxSad::Exact,
        },
        ..EncoderConfig::default()
    }
}

/// A process-wide memo: one write-once cell per key.
type Memo<K, V> = Mutex<HashMap<K, Arc<OnceLock<Arc<V>>>>>;

/// The value of `key` in `memo`, computed by `compute` on first use. The
/// key's cell is fetched under the map lock and filled outside it, so
/// distinct keys compute in parallel, while callers racing on one key wait
/// for a single computation and all receive the same [`Arc`].
fn memoized<K: Eq + Hash, V>(memo: &Memo<K, V>, key: K, compute: impl FnOnce() -> V) -> Arc<V> {
    let cell = Arc::clone(
        memo.lock()
            .unwrap_or_else(PoisonError::into_inner)
            .entry(key)
            .or_default(),
    );
    Arc::clone(cell.get_or_init(|| Arc::new(compute())))
}

/// The score of the golden full-search exact encode of `frames` (whose
/// [`frames_fingerprint`] is `fingerprint`), memoized per frame set so
/// every approximate scenario over the same frames shares one reference
/// (about 0.1 s for the paper sequence in a release build). The encode
/// records no `GetSad` trace (see [`Encoder::encode_untraced`]) and is
/// dropped once scored: [`QualityMetrics::from_scores`] reads two numbers
/// of it, not its reconstructed frames.
fn golden_score(fingerprint: u64, frames: &[Frame]) -> Arc<EncodeScore> {
    static GOLDEN: OnceLock<Memo<u64, EncodeScore>> = OnceLock::new();
    memoized(GOLDEN.get_or_init(Memo::default), fingerprint, || {
        EncodeScore::of(
            frames,
            &Encoder::new(golden_config()).encode_untraced(frames),
        )
    })
}

/// How many finished derived workloads [`Workload::derived`] keeps, in
/// least-recently-used order. Above the distinct approximation points of
/// every checked-in spec (at most five), so a sweep that revisits a point
/// from several machine configurations derives it once.
pub const DERIVED_MEMO_BOUND: usize = 8;

/// What identifies a derived workload: the source frames' fingerprint and
/// the approximation knobs.
type DeriveKey = (u64, ApproxSad, Option<SearchAlgorithm>);

/// A write-once cell that every caller deriving one key waits on.
type DeriveCell = Arc<OnceLock<Arc<Workload>>>;

/// The process-wide derive memo.
#[derive(Default)]
struct DeriveMemo {
    /// Finished derives, least recently used first; at most
    /// [`DERIVED_MEMO_BOUND`]. Strong handles: a point stays memoized
    /// between two uses even when no caller holds it.
    done: Vec<(DeriveKey, Arc<Workload>)>,
    /// Derives in flight.
    pending: Vec<(DeriveKey, DeriveCell)>,
}

impl DeriveMemo {
    fn lock() -> MutexGuard<'static, DeriveMemo> {
        static DERIVED: OnceLock<Mutex<DeriveMemo>> = OnceLock::new();
        DERIVED
            .get_or_init(Mutex::default)
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// The finished workload of `key`, now the most recently used, or
    /// else the cell its derive fills.
    fn lookup(&mut self, key: DeriveKey) -> Result<Arc<Workload>, DeriveCell> {
        if let Some(i) = self.done.iter().position(|(k, _)| *k == key) {
            let entry = self.done.remove(i);
            let found = Arc::clone(&entry.1);
            self.done.push(entry);
            return Ok(found);
        }
        if let Some((_, cell)) = self.pending.iter().find(|(k, _)| *k == key) {
            return Err(Arc::clone(cell));
        }
        let cell = DeriveCell::default();
        self.pending.push((key, Arc::clone(&cell)));
        Err(cell)
    }

    /// Moves the finished derive of `key` from in flight to most recently
    /// used, evicting the least recently used beyond the bound. Of the
    /// callers that waited on one cell, only the first to get here finds
    /// it in flight.
    fn finish(&mut self, key: DeriveKey, derived: &Arc<Workload>) {
        if let Some(i) = self.pending.iter().position(|(k, _)| *k == key) {
            self.pending.swap_remove(i);
            self.done.push((key, Arc::clone(derived)));
            if self.done.len() > DERIVED_MEMO_BOUND {
                self.done.remove(0);
            }
        }
    }
}

impl Workload {
    /// The paper's workload: 25 synthetic QCIF frames, diamond search with
    /// half-sample refinement, Q = 10.
    #[must_use]
    pub fn paper() -> Self {
        Workload::from_sequence(&SyntheticSequence::qcif_25(), EncoderConfig::default())
    }

    /// The paper's workload, host-encoded at most once per process and
    /// shared behind an [`Arc`]. Generating and encoding the 25-frame
    /// sequence takes about 0.2 s in a release build (several times that
    /// in a debug build); everything downstream only reads the workload,
    /// so repeated callers (`rvliw tables`, tests) should prefer this.
    #[must_use]
    pub fn paper_shared() -> Arc<Workload> {
        static PAPER: OnceLock<Arc<Workload>> = OnceLock::new();
        Arc::clone(PAPER.get_or_init(|| Arc::new(Workload::paper())))
    }

    /// A reduced workload for unit tests and doc-tests (64×48, 3 frames).
    #[must_use]
    pub fn tiny() -> Self {
        Workload::from_sequence(
            &SyntheticSequence::new(64, 48, 3, 7),
            EncoderConfig::default(),
        )
    }

    /// The paper's QCIF sequence cut to `frames` frames (specs, examples).
    #[must_use]
    pub fn qcif_frames(frames: usize) -> Self {
        Workload::from_sequence(
            &SyntheticSequence::new(176, 144, frames, 0x4652_4d4e),
            EncoderConfig::default(),
        )
    }

    /// Encodes `seq` with `config` and captures the traces.
    #[must_use]
    pub fn from_sequence(seq: &SyntheticSequence, config: EncoderConfig) -> Self {
        let frames = seq.generate();
        let report = Encoder::new(config).encode(&frames);
        let stride = frames[0].width() as u32;
        Workload {
            frames,
            report,
            stride,
            quality: None,
        }
    }

    /// Re-encodes this workload's source frames with an approximate SAD
    /// and/or a different search algorithm, attaching speed-vs-quality
    /// metrics measured against the golden full-search encode of the same
    /// frames. The derived workload shares the source planes of the
    /// workload that first derived it (see [`mpeg4_enc::Plane`]).
    ///
    /// Derived workloads are memoized process-wide (keyed by the source
    /// frames and the approximation knobs): a sweep visiting the same
    /// approximate point from several bandwidth scenarios encodes it once,
    /// even when its workers ask for it at the same time. The memo keeps
    /// the [`DERIVED_MEMO_BOUND`] most recently used points.
    #[must_use]
    pub fn derived(&self, approx: ApproxSad, search: Option<SearchAlgorithm>) -> Arc<Workload> {
        let fingerprint = frames_fingerprint(&self.frames);
        let key = (fingerprint, approx, search);
        let found = DeriveMemo::lock().lookup(key);
        let cell = match found {
            Ok(derived) => return derived,
            Err(cell) => cell,
        };
        let derived =
            Arc::clone(cell.get_or_init(|| Arc::new(self.derive(fingerprint, approx, search))));
        DeriveMemo::lock().finish(key, &derived);
        derived
    }

    /// The unmemoized body of [`Workload::derived`]. The golden score
    /// comes first, so its encode is gone before the approximate one
    /// starts.
    fn derive(
        &self,
        fingerprint: u64,
        approx: ApproxSad,
        search: Option<SearchAlgorithm>,
    ) -> Workload {
        let golden = golden_score(fingerprint, &self.frames);
        let mut config = EncoderConfig::default();
        config.search.approx = approx;
        if let Some(algorithm) = search {
            config.search.algorithm = algorithm;
        }
        let report = Encoder::new(config).encode(&self.frames);
        let score = EncodeScore::of(&self.frames, &report);
        Workload {
            frames: self.frames.clone(),
            report,
            stride: self.stride,
            quality: Some(QualityMetrics::from_scores(score, *golden)),
        }
    }

    /// How many finished derived workloads the process-wide memo holds
    /// (at most [`DERIVED_MEMO_BOUND`]).
    #[must_use]
    pub fn derived_memo_len() -> usize {
        DeriveMemo::lock().done.len()
    }

    /// The score of the golden full-search encode of this workload's
    /// source frames that [`Workload::derived`] measures against,
    /// memoized per frame set.
    #[must_use]
    pub fn golden_score(&self) -> Arc<EncodeScore> {
        golden_score(frames_fingerprint(&self.frames), &self.frames)
    }

    /// Total `GetSad` calls in the trace.
    #[must_use]
    pub fn num_calls(&self) -> usize {
        self.report.num_sad_calls()
    }

    /// Share of diagonal-interpolation calls (the paper's sequence: ≈18 %).
    #[must_use]
    pub fn diag_share(&self) -> f64 {
        self.report.interp_shares().3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_workload_has_traces() {
        let w = Workload::tiny();
        assert!(w.num_calls() > 0);
        assert_eq!(w.stride, 64);
        assert!(w.quality.is_none());
    }

    #[test]
    fn paper_workload_diag_share_near_18_percent() {
        // This is the property the synthetic sequence is tuned for. It is
        // moderately expensive (~1 s release, a few seconds debug), but it
        // guards the central workload assumption.
        let w = Workload::paper();
        let d = w.diag_share();
        assert!((0.12..=0.24).contains(&d), "diagonal share {d:.3}");
        assert_eq!(w.frames.len(), 25);
    }

    #[test]
    fn derived_workloads_carry_quality_and_memoize() {
        let w = Workload::tiny();
        let d = w.derived(ApproxSad::SubsampledRows { step: 2 }, None);
        let q = d.quality.expect("derived workloads carry quality");
        assert!(q.sad_inflation >= 0.0);
        // Second request hits the memo: same allocation.
        let again = w.derived(ApproxSad::SubsampledRows { step: 2 }, None);
        assert!(Arc::ptr_eq(&d, &again));
        // The golden configuration itself scores exactly zero.
        let exact = w.derived(ApproxSad::Exact, Some(SearchAlgorithm::Full { range: 8 }));
        let gq = exact.quality.expect("golden-config derivation has quality");
        assert_eq!(gq.sad_inflation, 0.0);
        assert_eq!(gq.psnr_delta_db, 0.0);
    }

    #[test]
    fn racing_derives_share_one_encode() {
        use std::sync::Barrier;
        let w = Workload::tiny();
        let approx = ApproxSad::ReducedPrecision { bits: 3 };
        let barrier = Barrier::new(4);
        let results: Vec<Arc<Workload>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        w.derived(approx, Some(SearchAlgorithm::ThreeStep))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("derive thread panicked"))
                .collect()
        });
        assert!(results.iter().all(|r| Arc::ptr_eq(r, &results[0])));
    }
}
