#![warn(missing_docs)]
//! # rvliw-cache
//!
//! A content-addressed, versioned, on-disk result cache for deterministic
//! simulation outputs.
//!
//! Scenario results in this workspace are pure functions of (kernel program
//! bytes, machine/memory/RFU configuration, workload, fault plan). That
//! makes them cacheable by content address: hash every input into a
//! [`CacheKey`], store the result JSON under `<key>.json`, and on the next
//! sweep look the key up before simulating.
//!
//! The crate is deliberately policy-free: it knows how to hash tagged byte
//! fields ([`KeyBuilder`]), how to read and write envelope files atomically
//! ([`ResultCache`]), and how to count what happened ([`CacheStats`]). What
//! goes *into* a key — the canonicalized scenario, encoded program words,
//! workload digest — is decided by the caller (`rvliw-core`).
//!
//! Robustness rules, enforced here and exercised by the workspace proptests:
//!
//! * a missing entry is a **miss**;
//! * a corrupt, truncated, wrong-schema or wrong-key entry is **stale**:
//!   it is treated as a miss (with a stderr warning), never a panic and
//!   never a wrong result;
//! * writes go to a unique temp file in the cache directory and are
//!   published with `rename`, so concurrent sweeps sharing a cache
//!   directory never observe half-written entries;
//! * a bad entry discovered at lookup (or routed in by `verify`) is
//!   **quarantined**: moved into a `quarantine/` subdirectory next to a
//!   `.reason` file instead of being left in place to degrade every
//!   future sweep, and counted so `cache stats` can surface it.

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

use rvliw_trace::Json;

/// Version of the on-disk envelope and of the key derivation in this crate.
///
/// Bump whenever the envelope layout or [`KeyBuilder`] byte encoding
/// changes; old entries then read back as stale and are re-simulated.
pub const SCHEMA_VERSION: u64 = 1;

/// A 128-bit content address, rendered as 32 lowercase hex digits.
///
/// Derived from two independent 64-bit FNV-1a streams over the same input
/// bytes (different offset bases), which keeps the implementation
/// dependency-free while making accidental collisions across a sweep grid
/// implausible.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CacheKey {
    hi: u64,
    lo: u64,
}

impl CacheKey {
    /// The key as a 32-character lowercase hex string (also the cache file
    /// stem).
    #[must_use]
    pub fn hex(&self) -> String {
        format!("{:016x}{:016x}", self.hi, self.lo)
    }

    /// Parses a 32-character hex string back into a key.
    #[must_use]
    pub fn from_hex(s: &str) -> Option<CacheKey> {
        if s.len() != 32 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        let hi = u64::from_str_radix(&s[..16], 16).ok()?;
        let lo = u64::from_str_radix(&s[16..], 16).ok()?;
        Some(CacheKey { hi, lo })
    }
}

impl fmt::Display for CacheKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}{:016x}", self.hi, self.lo)
    }
}

/// FNV-1a, 64-bit. The standard offset basis and prime, plus an alternate
/// basis for the second half of a [`CacheKey`].
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
/// Alternate offset basis for the second 64-bit stream (arbitrary odd
/// constant, distinct from `FNV_BASIS`).
const FNV_BASIS_ALT: u64 = 0x6b4f_9a3e_12d7_c581;

/// Accumulates tagged, length-prefixed byte fields into a [`CacheKey`].
///
/// Every field is written as `tag-bytes · len(tag) · payload-bytes ·
/// len(payload)` (lengths as little-endian u64), which makes the encoding
/// prefix-free: no two distinct field sequences serialize to the same byte
/// stream, so "field moved" or "field concatenation" ambiguities cannot
/// produce key collisions.
#[derive(Debug, Clone)]
pub struct KeyBuilder {
    a: u64,
    b: u64,
}

impl KeyBuilder {
    /// Starts a new key over the given domain (e.g. `"scenario-result"`)
    /// and schema version. Domain separation means keys from different
    /// subsystems can never alias even over identical payloads.
    #[must_use]
    pub fn new(domain: &str, schema: u64) -> KeyBuilder {
        let mut kb = KeyBuilder {
            a: FNV_BASIS,
            b: FNV_BASIS_ALT,
        };
        kb.field_bytes("domain", domain.as_bytes());
        kb.field_u64("schema", schema);
        kb
    }

    fn absorb(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.a = (self.a ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
            self.b = (self.b ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
        }
    }

    /// Adds a tagged byte-string field.
    pub fn field_bytes(&mut self, tag: &str, bytes: &[u8]) -> &mut Self {
        self.absorb(tag.as_bytes());
        self.absorb(&(tag.len() as u64).to_le_bytes());
        self.absorb(bytes);
        self.absorb(&(bytes.len() as u64).to_le_bytes());
        self
    }

    /// Adds a tagged string field.
    pub fn field_str(&mut self, tag: &str, s: &str) -> &mut Self {
        self.field_bytes(tag, s.as_bytes())
    }

    /// Adds a tagged integer field.
    pub fn field_u64(&mut self, tag: &str, v: u64) -> &mut Self {
        self.field_bytes(tag, &v.to_le_bytes())
    }

    /// Adds a tagged `u32`-word-sequence field (e.g. encoded program
    /// words).
    pub fn field_words(&mut self, tag: &str, words: &[u32]) -> &mut Self {
        self.field_words_iter(tag, words.iter().copied())
    }

    /// [`KeyBuilder::field_words`] over words produced one at a time, so
    /// a large field is hashed without being collected first. The same
    /// words give the same key either way.
    pub fn field_words_iter(
        &mut self,
        tag: &str,
        words: impl IntoIterator<Item = u32>,
    ) -> &mut Self {
        self.absorb(tag.as_bytes());
        self.absorb(&(tag.len() as u64).to_le_bytes());
        let mut count = 0u64;
        for w in words {
            self.absorb(&w.to_le_bytes());
            count += 1;
        }
        self.absorb(&count.to_le_bytes());
        self
    }

    /// Finishes the key. The builder can keep absorbing afterwards; each
    /// call returns the key over everything absorbed so far.
    #[must_use]
    pub fn finish(&self) -> CacheKey {
        CacheKey {
            hi: self.a,
            lo: self.b,
        }
    }
}

/// Typed cache failure, used by `open`/`clear`/`verify`-style operations
/// (lookups never fail — a bad entry is just a stale miss).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CacheError {
    /// Filesystem operation failed.
    Io {
        /// Path the operation touched.
        path: PathBuf,
        /// The underlying error, as text.
        message: String,
    },
    /// An entry exists but its envelope does not parse.
    Corrupt {
        /// Path of the entry.
        path: PathBuf,
        /// What failed to parse.
        message: String,
    },
    /// An entry was written by a different schema version.
    Schema {
        /// Path of the entry.
        path: PathBuf,
        /// Schema version found in the envelope.
        found: u64,
        /// Schema version this build expects.
        want: u64,
    },
    /// An entry's embedded key does not match its filename (rename or
    /// tamper).
    KeyMismatch {
        /// Path of the entry.
        path: PathBuf,
    },
    /// `verify` re-simulated an entry and the fresh result differs from
    /// the cached one.
    Divergence {
        /// Scenario label of the divergent entry.
        label: String,
        /// Content key of the divergent entry.
        key: String,
        /// Human-readable description of the difference.
        detail: String,
    },
}

impl fmt::Display for CacheError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CacheError::Io { path, message } => {
                write!(f, "cache I/O error at {}: {message}", path.display())
            }
            CacheError::Corrupt { path, message } => {
                write!(f, "corrupt cache entry {}: {message}", path.display())
            }
            CacheError::Schema { path, found, want } => write!(
                f,
                "cache entry {} has schema {found}, this build expects {want}",
                path.display()
            ),
            CacheError::KeyMismatch { path } => write!(
                f,
                "cache entry {} embeds a key different from its filename",
                path.display()
            ),
            CacheError::Divergence { label, key, detail } => {
                write!(f, "cache divergence for `{label}` (key {key}): {detail}")
            }
        }
    }
}

impl std::error::Error for CacheError {}

/// Monotonic counters for one cache handle's lifetime. Thread-safe: the
/// deterministic parallel runner probes the cache from worker threads.
#[derive(Debug, Default)]
pub struct CacheStats {
    hits: AtomicU64,
    misses: AtomicU64,
    stale: AtomicU64,
    writes: AtomicU64,
    write_errors: AtomicU64,
    quarantined: AtomicU64,
}

impl CacheStats {
    fn count_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }
    fn count_miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }
    fn count_stale(&self) {
        self.stale.fetch_add(1, Ordering::Relaxed);
    }
    fn count_write(&self) {
        self.writes.fetch_add(1, Ordering::Relaxed);
    }
    fn count_write_error(&self) {
        self.write_errors.fetch_add(1, Ordering::Relaxed);
    }
    fn count_quarantined(&self) {
        self.quarantined.fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time snapshot of the counters.
    #[must_use]
    pub fn snapshot(&self) -> CacheCounts {
        CacheCounts {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            stale: self.stale.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            write_errors: self.write_errors.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
        }
    }
}

/// A snapshot of [`CacheStats`], plain values for reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounts {
    /// Lookups served from disk.
    pub hits: u64,
    /// Lookups with no entry on disk.
    pub misses: u64,
    /// Lookups that found an unusable entry (corrupt / truncated / wrong
    /// schema / key mismatch) and fell back to simulation.
    pub stale: u64,
    /// Entries successfully published.
    pub writes: u64,
    /// Entry writes that failed (counted, warned, never fatal).
    pub write_errors: u64,
    /// Bad entries moved into the `quarantine/` subdirectory by this
    /// handle.
    pub quarantined: u64,
}

impl CacheCounts {
    /// The machine-greppable one-line summary printed by sweeps
    /// (`cache: hits=H misses=M stale=S writes=W quarantined=Q`).
    #[must_use]
    pub fn summary_line(&self) -> String {
        format!(
            "cache: hits={} misses={} stale={} writes={} quarantined={}",
            self.hits, self.misses, self.stale, self.writes, self.quarantined
        )
    }

    /// The counters as a JSON object (for `--metrics-out`).
    #[must_use]
    pub fn to_json(&self) -> Json {
        counts_to_json(self)
    }

    /// Parses the [`Self::to_json`] object back into counters. Returns
    /// `None` when any counter is missing or not an unsigned integer, so
    /// `CacheCounts::from_json(&c.to_json()) == Some(c)` for every value.
    #[must_use]
    pub fn from_json(j: &Json) -> Option<Self> {
        counts_from_json(j)
    }
}

rvliw_trace::json_codec!(
    counts_to_json,
    counts_from_json,
    CacheCounts {
        hits,
        misses,
        stale,
        writes,
        write_errors,
        quarantined,
    }
);

/// One decoded cache entry, as returned by [`ResultCache::entries`].
#[derive(Debug, Clone)]
pub struct CacheEntry {
    /// The content key (from the filename, cross-checked with the
    /// envelope).
    pub key: CacheKey,
    /// The caller-supplied payload.
    pub payload: Json,
    /// Path of the backing file.
    pub path: PathBuf,
}

/// Process-unique counter for temp-file names; combined with the pid this
/// keeps concurrent writers (threads and processes) from colliding.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// The on-disk cache: one directory, one JSON envelope file per key.
///
/// Envelope layout:
///
/// ```json
/// {"schema": 1, "key": "<32 hex digits>", "payload": { ... }}
/// ```
#[derive(Debug)]
pub struct ResultCache {
    dir: PathBuf,
    stats: CacheStats,
    /// Keys (file stems) this handle moved to quarantine, for the health
    /// report.
    quarantine_log: Mutex<Vec<String>>,
}

impl ResultCache {
    /// Opens (and creates, if needed) a cache directory.
    ///
    /// # Errors
    ///
    /// [`CacheError::Io`] when the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> Result<ResultCache, CacheError> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| CacheError::Io {
            path: dir.clone(),
            message: e.to_string(),
        })?;
        Ok(ResultCache {
            dir,
            stats: CacheStats::default(),
            quarantine_log: Mutex::new(Vec::new()),
        })
    }

    /// The cache directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Lifetime counters for this handle.
    #[must_use]
    pub fn counts(&self) -> CacheCounts {
        self.stats.snapshot()
    }

    fn entry_path(&self, key: &CacheKey) -> PathBuf {
        self.dir.join(format!("{}.json", key.hex()))
    }

    /// The `quarantine/` subdirectory bad entries are moved into.
    #[must_use]
    pub fn quarantine_dir(&self) -> PathBuf {
        self.dir.join("quarantine")
    }

    /// Keys (file stems) this handle has quarantined, in quarantine order.
    #[must_use]
    pub fn quarantined_keys(&self) -> Vec<String> {
        self.quarantine_log
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Moves the entry file at `path` into `quarantine/` and writes a
    /// sibling `<stem>.reason` file explaining why. Returns `true` when
    /// the entry was moved. Failures degrade to a stderr warning — the
    /// entry is then deleted instead, so a bad entry never survives in
    /// the hot directory either way.
    pub fn quarantine_path(&self, path: &Path, reason: &str) -> bool {
        let Some(name) = path.file_name().map(std::ffi::OsStr::to_owned) else {
            return false;
        };
        let qdir = self.quarantine_dir();
        let moved = fs::create_dir_all(&qdir)
            .and_then(|()| fs::rename(path, qdir.join(&name)))
            .is_ok();
        if moved {
            let stem = path
                .file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or("entry")
                .to_owned();
            let _ = fs::write(qdir.join(format!("{stem}.reason")), format!("{reason}\n"));
            self.stats.count_quarantined();
            self.quarantine_log
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(stem);
        } else {
            eprintln!(
                "warning: could not quarantine cache entry {}; removing it instead",
                path.display()
            );
            let _ = fs::remove_file(path);
        }
        moved
    }

    /// [`Self::quarantine_path`] addressed by content key. Returns `false`
    /// when no entry exists under that key.
    pub fn quarantine_key(&self, key: &CacheKey, reason: &str) -> bool {
        let path = self.entry_path(key);
        path.exists() && self.quarantine_path(&path, reason)
    }

    /// Entry files currently sitting in `quarantine/` (empty when the
    /// subdirectory does not exist), sorted, for `cache stats`.
    #[must_use]
    pub fn quarantined_entries(&self) -> Vec<PathBuf> {
        let Ok(rd) = fs::read_dir(self.quarantine_dir()) else {
            return Vec::new();
        };
        let mut found: Vec<PathBuf> = rd
            .filter_map(Result::ok)
            .map(|de| de.path())
            .filter(|p| Self::is_entry_file(p))
            .collect();
        found.sort();
        found
    }

    /// Reads and validates one envelope file. Shared by `lookup` (which
    /// degrades errors to stale-misses) and `entries`/`verify` (which
    /// report them).
    fn read_entry(path: &Path, want_key: Option<&CacheKey>) -> Result<CacheEntry, CacheError> {
        let text = fs::read_to_string(path).map_err(|e| CacheError::Io {
            path: path.to_path_buf(),
            message: e.to_string(),
        })?;
        let env = Json::parse(&text).map_err(|message| CacheError::Corrupt {
            path: path.to_path_buf(),
            message,
        })?;
        let schema =
            env.get("schema")
                .and_then(Json::as_u64)
                .ok_or_else(|| CacheError::Corrupt {
                    path: path.to_path_buf(),
                    message: "missing `schema`".to_owned(),
                })?;
        if schema != SCHEMA_VERSION {
            return Err(CacheError::Schema {
                path: path.to_path_buf(),
                found: schema,
                want: SCHEMA_VERSION,
            });
        }
        let embedded = env
            .get("key")
            .and_then(Json::as_str)
            .and_then(CacheKey::from_hex)
            .ok_or_else(|| CacheError::Corrupt {
                path: path.to_path_buf(),
                message: "missing or malformed `key`".to_owned(),
            })?;
        let stem_key = path
            .file_stem()
            .and_then(|s| s.to_str())
            .and_then(CacheKey::from_hex);
        let filename_matches = stem_key.is_none_or(|k| k == embedded);
        let wanted_matches = want_key.is_none_or(|k| *k == embedded);
        if !filename_matches || !wanted_matches {
            return Err(CacheError::KeyMismatch {
                path: path.to_path_buf(),
            });
        }
        let payload = env
            .get("payload")
            .cloned()
            .ok_or_else(|| CacheError::Corrupt {
                path: path.to_path_buf(),
                message: "missing `payload`".to_owned(),
            })?;
        Ok(CacheEntry {
            key: embedded,
            payload,
            path: path.to_path_buf(),
        })
    }

    /// Looks up `key`. `Some(payload)` on a valid hit; `None` on a miss
    /// (no file) or a stale entry (unreadable / corrupt / wrong schema /
    /// key mismatch — warned on stderr, counted as stale).
    #[must_use]
    pub fn lookup(&self, key: &CacheKey) -> Option<Json> {
        self.lookup_map(key, |payload| Some(payload.clone()))
    }

    /// [`Self::lookup`], decoding the payload through `parse`. A payload
    /// `parse` rejects counts as stale (the envelope was valid but the
    /// content was not decodable by this build) and the lookup degrades to
    /// a miss — never a panic, never a wrong result.
    pub fn lookup_map<T>(
        &self,
        key: &CacheKey,
        parse: impl FnOnce(&Json) -> Option<T>,
    ) -> Option<T> {
        let path = self.entry_path(key);
        if !path.exists() {
            self.stats.count_miss();
            return None;
        }
        match Self::read_entry(&path, Some(key)) {
            Ok(entry) => match parse(&entry.payload) {
                Some(v) => {
                    self.stats.count_hit();
                    Some(v)
                }
                None => {
                    eprintln!(
                        "warning: treating cache entry as miss: payload of {} does not \
                         decode under this build",
                        path.display()
                    );
                    self.stats.count_stale();
                    self.quarantine_path(&path, "payload does not decode under this build");
                    None
                }
            },
            Err(e) => {
                eprintln!("warning: treating cache entry as miss: {e}");
                self.stats.count_stale();
                // An I/O failure may be transient (permissions, races);
                // everything else is a structurally bad entry that would
                // degrade every future sweep — move it out of the way.
                if !matches!(e, CacheError::Io { .. }) {
                    self.quarantine_path(&path, &e.to_string());
                }
                None
            }
        }
    }

    /// Publishes `payload` under `key`, atomically: the envelope is
    /// written to a unique temp file in the cache directory and moved
    /// into place with `rename`, so readers only ever see complete
    /// entries. Write failures are warned and counted, never fatal — the
    /// cache is an accelerator, not a dependency.
    pub fn store(&self, key: &CacheKey, payload: &Json) {
        let mut env = BTreeMap::new();
        env.insert("schema".to_owned(), Json::Num(SCHEMA_VERSION.to_string()));
        env.insert("key".to_owned(), Json::Str(key.hex()));
        env.insert("payload".to_owned(), payload.clone());
        let text = Json::Obj(env).to_string();
        let tmp = self.dir.join(format!(
            "{}.{}.{}.tmp",
            key.hex(),
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let publish = fs::write(&tmp, text).and_then(|()| fs::rename(&tmp, self.entry_path(key)));
        match publish {
            Ok(()) => self.stats.count_write(),
            Err(e) => {
                let _ = fs::remove_file(&tmp);
                eprintln!("warning: cache write failed for {}: {e}", key.hex());
                self.stats.count_write_error();
            }
        }
    }

    /// All valid entries in the cache directory, sorted by key. Unusable
    /// files are returned separately as errors so `stats`/`verify` can
    /// report them.
    ///
    /// # Errors
    ///
    /// [`CacheError::Io`] when the directory itself cannot be read.
    pub fn entries(&self) -> Result<(Vec<CacheEntry>, Vec<CacheError>), CacheError> {
        let mut good = Vec::new();
        let mut bad = Vec::new();
        let rd = fs::read_dir(&self.dir).map_err(|e| CacheError::Io {
            path: self.dir.clone(),
            message: e.to_string(),
        })?;
        for de in rd {
            let de = de.map_err(|e| CacheError::Io {
                path: self.dir.clone(),
                message: e.to_string(),
            })?;
            let path = de.path();
            if !Self::is_entry_file(&path) {
                continue;
            }
            match Self::read_entry(&path, None) {
                Ok(entry) => good.push(entry),
                Err(e) => bad.push(e),
            }
        }
        good.sort_by_key(|e| e.key);
        Ok((good, bad))
    }

    /// True for `<32 hex digits>.json` — the only files the cache owns
    /// besides its `*.tmp` staging files.
    fn is_entry_file(path: &Path) -> bool {
        path.extension().and_then(|e| e.to_str()) == Some("json")
            && path
                .file_stem()
                .and_then(|s| s.to_str())
                .and_then(CacheKey::from_hex)
                .is_some()
    }

    /// Deletes every cache entry and leftover temp file in the directory.
    /// Files with other names are left alone.
    ///
    /// # Errors
    ///
    /// [`CacheError::Io`] on the first file that cannot be removed.
    pub fn clear(&self) -> Result<u64, CacheError> {
        let mut removed = 0;
        let rd = fs::read_dir(&self.dir).map_err(|e| CacheError::Io {
            path: self.dir.clone(),
            message: e.to_string(),
        })?;
        for de in rd {
            let de = de.map_err(|e| CacheError::Io {
                path: self.dir.clone(),
                message: e.to_string(),
            })?;
            let path = de.path();
            let is_tmp = path.extension().and_then(|e| e.to_str()) == Some("tmp");
            if Self::is_entry_file(&path) || is_tmp {
                fs::remove_file(&path).map_err(|e| CacheError::Io {
                    path: path.clone(),
                    message: e.to_string(),
                })?;
                removed += 1;
            }
        }
        Ok(removed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "rvliw-cache-test-{tag}-{}-{}",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn payload(n: u64) -> Json {
        let mut m = BTreeMap::new();
        m.insert("cycles".to_owned(), Json::Num(n.to_string()));
        Json::Obj(m)
    }

    #[test]
    fn key_hex_roundtrips() {
        let k = KeyBuilder::new("t", 1).finish();
        assert_eq!(CacheKey::from_hex(&k.hex()), Some(k));
        assert_eq!(k.hex().len(), 32);
        assert!(CacheKey::from_hex("xyz").is_none());
        assert!(CacheKey::from_hex(&"a".repeat(31)).is_none());
    }

    #[test]
    fn keys_are_order_and_boundary_sensitive() {
        let mut a = KeyBuilder::new("t", 1);
        a.field_str("x", "ab").field_str("y", "c");
        let mut b = KeyBuilder::new("t", 1);
        b.field_str("x", "a").field_str("y", "bc");
        let mut c = KeyBuilder::new("t", 1);
        c.field_str("y", "c").field_str("x", "ab");
        assert_ne!(a.finish(), b.finish());
        assert_ne!(a.finish(), c.finish());
        assert_ne!(
            KeyBuilder::new("t", 1).finish(),
            KeyBuilder::new("t", 2).finish()
        );
        assert_ne!(
            KeyBuilder::new("t", 1).finish(),
            KeyBuilder::new("u", 1).finish()
        );
    }

    #[test]
    fn store_then_lookup_hits() {
        let dir = tmpdir("hit");
        let cache = ResultCache::open(&dir).unwrap();
        let key = KeyBuilder::new("t", 1).finish();
        assert_eq!(cache.lookup(&key), None);
        cache.store(&key, &payload(42));
        assert_eq!(cache.lookup(&key), Some(payload(42)));
        let c = cache.counts();
        assert_eq!((c.hits, c.misses, c.stale, c.writes), (1, 1, 0, 1));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_entries_are_stale_misses() {
        let dir = tmpdir("corrupt");
        let cache = ResultCache::open(&dir).unwrap();
        let key = KeyBuilder::new("t", 1).finish();
        // Truncated JSON.
        fs::write(dir.join(format!("{}.json", key.hex())), "{\"schema\": 1,").unwrap();
        assert_eq!(cache.lookup(&key), None);
        // Wrong schema.
        fs::write(
            dir.join(format!("{}.json", key.hex())),
            format!(
                "{{\"schema\": 999, \"key\": \"{}\", \"payload\": {{}}}}",
                key.hex()
            ),
        )
        .unwrap();
        assert_eq!(cache.lookup(&key), None);
        // Key mismatch (entry renamed onto the wrong filename).
        let other = KeyBuilder::new("t", 2).finish();
        fs::write(
            dir.join(format!("{}.json", key.hex())),
            format!(
                "{{\"schema\": 1, \"key\": \"{}\", \"payload\": {{}}}}",
                other.hex()
            ),
        )
        .unwrap();
        assert_eq!(cache.lookup(&key), None);
        assert_eq!(cache.counts().stale, 3);
        // Every bad entry was quarantined, not left to rot in place.
        assert_eq!(cache.counts().quarantined, 3);
        assert!(!dir.join(format!("{}.json", key.hex())).exists());
        assert!(cache
            .quarantine_dir()
            .join(format!("{}.json", key.hex()))
            .exists());
        assert!(cache
            .quarantine_dir()
            .join(format!("{}.reason", key.hex()))
            .exists());
        // A second lookup is a plain miss: the entry is gone.
        assert_eq!(cache.lookup(&key), None);
        assert_eq!(cache.counts().misses, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn quarantine_is_keyed_logged_and_invisible_to_entries() {
        let dir = tmpdir("quarantine");
        let cache = ResultCache::open(&dir).unwrap();
        let good = KeyBuilder::new("t", 1).finish();
        let bad = KeyBuilder::new("t", 2).finish();
        cache.store(&good, &payload(1));
        cache.store(&bad, &payload(2));
        assert!(cache.quarantine_key(&bad, "diverged under re-simulation"));
        // Quarantining an absent key reports false.
        assert!(!cache.quarantine_key(&bad, "again"));
        let (entries, errors) = cache.entries().unwrap();
        assert_eq!(entries.len(), 1);
        assert!(errors.is_empty());
        assert_eq!(cache.quarantined_keys(), vec![bad.hex()]);
        assert_eq!(cache.quarantined_entries().len(), 1);
        let reason =
            fs::read_to_string(cache.quarantine_dir().join(format!("{}.reason", bad.hex())))
                .unwrap();
        assert!(reason.contains("diverged"));
        // The quarantined entry reads back as a miss, and `clear` leaves
        // the quarantine subdirectory alone.
        assert_eq!(cache.lookup(&bad), None);
        assert_eq!(cache.clear().unwrap(), 1);
        assert_eq!(cache.quarantined_entries().len(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn entries_and_clear_see_only_cache_files() {
        let dir = tmpdir("clear");
        let cache = ResultCache::open(&dir).unwrap();
        let k1 = KeyBuilder::new("t", 1).finish();
        let k2 = KeyBuilder::new("t", 2).finish();
        cache.store(&k1, &payload(1));
        cache.store(&k2, &payload(2));
        fs::write(dir.join("README.txt"), "not a cache entry").unwrap();
        fs::write(dir.join("stray.tmp"), "leftover").unwrap();
        let (good, bad) = cache.entries().unwrap();
        assert_eq!(good.len(), 2);
        assert!(bad.is_empty());
        assert_eq!(cache.clear().unwrap(), 3); // two entries + the stray tmp
        assert!(dir.join("README.txt").exists());
        let (good, _) = cache.entries().unwrap();
        assert!(good.is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn summary_line_is_greppable() {
        let c = CacheCounts {
            hits: 3,
            misses: 2,
            stale: 1,
            writes: 2,
            write_errors: 0,
            quarantined: 1,
        };
        assert_eq!(
            c.summary_line(),
            "cache: hits=3 misses=2 stale=1 writes=2 quarantined=1"
        );
        let j = c.to_json();
        assert_eq!(j.get("hits").unwrap().as_u64(), Some(3));
        assert_eq!(j.get("quarantined").unwrap().as_u64(), Some(1));
    }

    #[test]
    fn cache_counts_round_trip_through_json() {
        let c = CacheCounts {
            hits: 7,
            misses: 11,
            stale: 2,
            writes: 9,
            write_errors: 1,
            quarantined: 3,
        };
        // Serialize, re-parse the printed text, and decode: identity.
        let parsed = Json::parse(&c.to_json().to_string()).unwrap();
        assert_eq!(CacheCounts::from_json(&parsed), Some(c));
        // Missing or mistyped counters decode to None, never panic.
        assert_eq!(CacheCounts::from_json(&Json::Null), None);
        let mut m = BTreeMap::new();
        m.insert("hits".to_owned(), Json::Str("three".to_owned()));
        assert_eq!(CacheCounts::from_json(&Json::Obj(m)), None);
    }
}
