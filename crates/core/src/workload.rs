//! The benchmark workload: a synthetic sequence encoded on the host, with
//! the full `GetSad` call trace.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use mpeg4_enc::me::{MotionSearch, SearchAlgorithm};
use mpeg4_enc::{
    ApproxSad, EncodeReport, Encoder, EncoderConfig, Frame, QualityMetrics, SyntheticSequence,
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
        for y in 0..f.y.height() {
            for &b in f.y.row(y) {
                eat(b);
            }
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

/// Golden full-search exact encode of `frames` (whose
/// [`frames_fingerprint`] is `fingerprint`), memoized per frame set so
/// every approximate scenario over the same frames shares one reference
/// (about 0.1 s for the paper sequence in a release build). It is encoded
/// untraced: [`QualityMetrics::compare`] reads its vectors,
/// reconstructions and PSNRs, never its `GetSad` calls, which for the
/// paper sequence number over half a million.
fn golden_report(fingerprint: u64, frames: &[Frame]) -> Arc<EncodeReport> {
    static GOLDEN: OnceLock<Memo<u64, EncodeReport>> = OnceLock::new();
    memoized(GOLDEN.get_or_init(Memo::default), fingerprint, || {
        Encoder::new(golden_config()).encode_untraced(frames)
    })
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
    /// frames.
    ///
    /// Derived workloads are memoized process-wide (keyed by the source
    /// frames and the approximation knobs): a sweep visiting the same
    /// approximate point from several bandwidth scenarios encodes it once,
    /// even when its workers ask for it at the same time.
    #[must_use]
    pub fn derived(&self, approx: ApproxSad, search: Option<SearchAlgorithm>) -> Arc<Workload> {
        type Key = (u64, ApproxSad, Option<SearchAlgorithm>);
        static DERIVED: OnceLock<Memo<Key, Workload>> = OnceLock::new();
        let fingerprint = frames_fingerprint(&self.frames);
        let key = (fingerprint, approx, search);
        memoized(DERIVED.get_or_init(Memo::default), key, || {
            let mut config = EncoderConfig::default();
            config.search.approx = approx;
            if let Some(algorithm) = search {
                config.search.algorithm = algorithm;
            }
            let report = Encoder::new(config).encode(&self.frames);
            let golden = golden_report(fingerprint, &self.frames);
            let quality = QualityMetrics::compare(&self.frames, &report, &golden);
            Workload {
                frames: self.frames.clone(),
                report,
                stride: self.stride,
                quality: Some(quality),
            }
        })
    }

    /// The golden full-search encode of this workload's source frames that
    /// [`Workload::derived`] scores against, memoized per frame set. It
    /// carries no `GetSad` trace (see [`Encoder::encode_untraced`]).
    #[must_use]
    pub fn golden(&self) -> Arc<EncodeReport> {
        golden_report(frames_fingerprint(&self.frames), &self.frames)
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
