//! Worker-thread configuration and the run flags the `rvliw` run
//! commands share.
//!
//! `rvliw tables`, `rvliw sweep` and `rvliw explore` parse their
//! common flags through one strict parser, [`RunFlags::parse`], which also
//! assembles what those flags describe: the workload, the result cache and
//! the [`SupervisorConfig`]. `--threads` and `RVLIW_THREADS` go through
//! [`parse_threads`], so the convention is defined once: a positive
//! integer is an explicit worker count, and `0` means "auto" — the
//! machine's available parallelism.

use std::collections::BTreeMap;
use std::fmt::Display;
use std::path::PathBuf;
use std::str::FromStr;
use std::sync::Arc;
use std::time::Duration;

use crate::cache::{default_cache_dir, ScenarioCache};
use crate::supervisor::{Journal, SupervisorConfig};
use crate::workload::Workload;

/// The machine's available parallelism (at least 1).
#[must_use]
pub fn auto_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The default worker-thread count: the `RVLIW_THREADS` environment
/// variable when set to a valid count (`0` means auto), otherwise the
/// machine's available parallelism. An invalid value produces a stderr
/// warning and falls back to auto-detection instead of being silently
/// ignored.
#[must_use]
pub fn default_threads() -> usize {
    if let Ok(v) = std::env::var("RVLIW_THREADS") {
        match parse_threads(&v) {
            Ok(n) => return n,
            Err(e) => eprintln!("warning: RVLIW_THREADS: {e}; using available parallelism"),
        }
    }
    auto_threads()
}

/// Parses a worker-thread count (the `--threads` flag, the
/// `RVLIW_THREADS` variable): a non-negative integer, where `0` resolves
/// to [`auto_threads`].
///
/// # Errors
///
/// A human-readable message when `s` is not a non-negative integer.
pub fn parse_threads(s: &str) -> Result<usize, String> {
    match s.trim().parse::<usize>() {
        Ok(0) => Ok(auto_threads()),
        Ok(n) => Ok(n),
        Err(_) => Err(format!(
            "invalid thread count `{s}` (want a non-negative integer; 0 means auto)"
        )),
    }
}

/// The value following `flag` on the command line.
///
/// # Errors
///
/// A message naming `flag` when the arguments end before its value.
pub fn flag_value<'a>(
    flag: &str,
    args: &mut std::slice::Iter<'a, String>,
) -> Result<&'a str, String> {
    args.next()
        .map(String::as_str)
        .ok_or_else(|| format!("{flag} needs a value"))
}

/// The value following `flag`, parsed as a `T`.
///
/// # Errors
///
/// A message naming `flag` when the value is missing or does not parse.
pub fn flag_parse<T>(flag: &str, args: &mut std::slice::Iter<'_, String>) -> Result<T, String>
where
    T: FromStr,
    T::Err: Display,
{
    let v = flag_value(flag, args)?;
    v.parse()
        .map_err(|e| format!("{flag}: invalid value `{v}`: {e}"))
}

/// The run flags shared by `rvliw tables`, `rvliw sweep` and `rvliw explore`:
/// `--threads N`, `--frames N`, `--cache-dir DIR`, `--no-cache`,
/// `--journal FILE`, `--resume FILE`, `--max-retries N` and
/// `--timeout-secs N`.
#[derive(Debug, Clone)]
pub struct RunFlags {
    /// Worker threads: `--threads`, else [`default_threads`].
    pub threads: usize,
    /// The `--frames` workload-length override (at least 1).
    pub frames: Option<usize>,
    cache_dir: Option<PathBuf>,
    no_cache: bool,
    journal: Option<PathBuf>,
    resume: Option<PathBuf>,
    max_retries: u32,
    timeout_secs: Option<u64>,
}

impl RunFlags {
    /// Parses `args` strictly. The run flags are handled here; every other
    /// argument goes to `other` with the remaining arguments (to take a
    /// value from, through [`flag_value`] or [`flag_parse`]), which
    /// returns `Ok(false)` for an argument it does not know.
    ///
    /// # Errors
    ///
    /// A message naming the offending flag: an unknown argument, a missing
    /// value, a value that does not parse, `--frames 0` or
    /// `--timeout-secs 0`, or any error `other` returns.
    pub fn parse<'a>(
        args: &'a [String],
        mut other: impl FnMut(&'a str, &mut std::slice::Iter<'a, String>) -> Result<bool, String>,
    ) -> Result<RunFlags, String> {
        let mut threads = None;
        let mut flags = RunFlags {
            threads: 0,
            frames: None,
            cache_dir: default_cache_dir(),
            no_cache: false,
            journal: None,
            resume: None,
            max_retries: 0,
            timeout_secs: None,
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let arg = arg.as_str();
            match arg {
                "--threads" => {
                    let v = flag_value(arg, &mut it)?;
                    threads = Some(parse_threads(v).map_err(|e| format!("{arg}: {e}"))?);
                }
                "--frames" => match flag_parse(arg, &mut it)? {
                    0 => return Err(format!("{arg}: must be at least 1")),
                    n => flags.frames = Some(n),
                },
                "--cache-dir" => flags.cache_dir = Some(flag_value(arg, &mut it)?.into()),
                "--no-cache" => flags.no_cache = true,
                "--journal" => flags.journal = Some(flag_value(arg, &mut it)?.into()),
                "--resume" => flags.resume = Some(flag_value(arg, &mut it)?.into()),
                "--max-retries" => flags.max_retries = flag_parse(arg, &mut it)?,
                "--timeout-secs" => match flag_parse(arg, &mut it)? {
                    0 => return Err(format!("{arg}: must be at least 1")),
                    n => flags.timeout_secs = Some(n),
                },
                _ if other(arg, &mut it)? => {}
                _ => return Err(format!("unknown argument `{arg}`")),
            }
        }
        flags.threads = threads.unwrap_or_else(default_threads);
        Ok(flags)
    }

    /// The workload of `frames` QCIF frames and its result cache. The
    /// 25-frame paper workload is shared process-wide (cache kind
    /// `"paper"`); any other length is encoded for this run (`"qcif"`).
    /// The cache directory is `--cache-dir`, else `RVLIW_CACHE_DIR`, and
    /// `--no-cache` turns caching off regardless.
    ///
    /// # Errors
    ///
    /// A message naming the cache directory when it cannot be opened.
    pub fn open_workload(
        &self,
        frames: usize,
    ) -> Result<(Arc<Workload>, Option<ScenarioCache>), String> {
        let (workload, kind) = if frames == 25 {
            (Workload::paper_shared(), "paper")
        } else {
            (Arc::new(Workload::qcif_frames(frames)), "qcif")
        };
        let cache = match self.cache_dir.as_ref().filter(|_| !self.no_cache) {
            Some(dir) => Some(
                ScenarioCache::open(dir, &workload, kind)
                    .map_err(|e| format!("--cache-dir {}: {e}", dir.display()))?,
            ),
            None => None,
        };
        Ok((workload, cache))
    }

    /// The supervision policy the flags ask for: `--max-retries`,
    /// `--timeout-secs`, the `--journal` to append to and the `--resume`
    /// journal to replay. Without those flags this is
    /// [`SupervisorConfig::default`].
    ///
    /// # Errors
    ///
    /// A message naming the flag when the journal cannot be opened or the
    /// resume journal cannot be read.
    pub fn supervisor(&self) -> Result<SupervisorConfig, String> {
        Ok(SupervisorConfig {
            max_retries: self.max_retries,
            timeout: self.timeout_secs.map(Duration::from_secs),
            journal: match &self.journal {
                Some(p) => {
                    Some(Journal::open(p).map_err(|e| format!("--journal {}: {e}", p.display()))?)
                }
                None => None,
            },
            resume: match &self.resume {
                Some(p) => {
                    Journal::load(p).map_err(|e| format!("--resume {}: {e}", p.display()))?
                }
                None => BTreeMap::new(),
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_threads_accepts_positive_integers() {
        assert_eq!(parse_threads("1"), Ok(1));
        assert_eq!(parse_threads(" 16 "), Ok(16));
    }

    #[test]
    fn zero_means_auto_in_every_cli_entry_point() {
        // The shared contract for `--threads 0` (and RVLIW_THREADS=0):
        // resolve to the machine's available parallelism, never reject,
        // never 0.
        let auto = auto_threads();
        assert!(auto >= 1);
        assert_eq!(parse_threads("0"), Ok(auto));
        assert_eq!(parse_threads(" 0 "), Ok(auto));
    }

    #[test]
    fn parse_threads_rejects_junk() {
        for bad in ["-3", "many", "1.5", ""] {
            assert!(parse_threads(bad).is_err(), "`{bad}` should be rejected");
        }
    }
}
