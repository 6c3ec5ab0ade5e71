//! Content-addressed on-disk result cache.
//!
//! Every cache entry is one [`Scenario`]'s [`SimReport`], stored under
//! the scenario's 128-bit content hash in an engine-versioned
//! directory:
//!
//! ```text
//! <root>/v<ENGINE_VERSION>/<32-hex-digit hash>.report
//! ```
//!
//! The entry embeds the scenario hash again in its header, so a file
//! renamed or copied to the wrong key is rejected rather than replayed.
//! Every failure mode — missing file, truncated write, corrupt header,
//! malformed report — degrades to a cache *miss*; the engine then
//! simulates and rewrites the entry. Writes go through a temp file and
//! an atomic rename so a crashed run can never leave a half-written
//! entry behind. Entries are never rewritten in place, which is what
//! lets [`ResultCache::link_entry`] share one between two caches (a run
//! journal's store mirrors cache hits that way) by hard link.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use heb_core::{Scenario, SimReport};

/// Version of the simulation engine the cached reports were produced
/// by. Bump whenever a change to the simulator (or the report codec)
/// alters what a scenario's run produces: old entries then live in a
/// different directory and are simply never consulted again.
pub const ENGINE_VERSION: u32 = 1;

/// Header line opening every cache entry.
const MAGIC: &str = "heb-cache v1";

/// Distinguishes concurrent writers of temp files within one process.
static TEMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Why a cache read produced no usable entry (beyond a plain miss).
///
/// [`ResultCache::load`] folds every failure into a miss; the
/// degradation layer uses [`ResultCache::try_load`] instead so it can
/// tell a healthy miss from a cache directory that is actively failing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CacheReadError {
    /// The entry exists but could not be read (permissions, I/O).
    Io(std::io::ErrorKind),
    /// The entry was read but is not a valid report for this scenario
    /// (bad magic, transplanted key, truncated or garbage body).
    Corrupt,
}

impl std::fmt::Display for CacheReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CacheReadError::Io(kind) => write!(f, "cache read failed: {kind}"),
            CacheReadError::Corrupt => write!(f, "cache entry corrupt"),
        }
    }
}

/// A content-addressed store of simulation reports.
#[derive(Debug, Clone)]
pub struct ResultCache {
    dir: PathBuf,
}

impl ResultCache {
    /// Opens (without touching the filesystem) a cache rooted at
    /// `root`; entries live in the engine-versioned subdirectory.
    #[must_use]
    pub fn new(root: impl Into<PathBuf>) -> Self {
        Self {
            dir: root.into().join(format!("v{ENGINE_VERSION}")),
        }
    }

    /// The engine-versioned directory entries are stored in.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The path a scenario's entry lives at.
    #[must_use]
    pub fn entry_path(&self, scenario: &Scenario) -> PathBuf {
        self.hash_path(&scenario.hash_hex())
    }

    /// The path the entry keyed by `hash` (32 hex digits) lives at.
    fn hash_path(&self, hash: &str) -> PathBuf {
        self.dir.join(format!("{hash}.report"))
    }

    /// Loads the cached report for `scenario`, or `None` on any miss
    /// (absent, truncated, corrupt, or keyed to a different scenario).
    #[must_use]
    pub fn load(&self, scenario: &Scenario) -> Option<SimReport> {
        self.try_load(scenario).ok().flatten()
    }

    /// Loads the cached report for `scenario`, distinguishing a healthy
    /// miss (`Ok(None)`) from a failing cache.
    ///
    /// # Errors
    ///
    /// [`CacheReadError::Io`] when the entry exists but cannot be read;
    /// [`CacheReadError::Corrupt`] when it reads but does not decode to
    /// a report keyed to this scenario. Both are safe to treat as a
    /// miss — the caller re-simulates — but let the degradation layer
    /// count genuine failures.
    pub fn try_load(&self, scenario: &Scenario) -> Result<Option<SimReport>, CacheReadError> {
        let hash = scenario.hash_hex();
        let body = match fs::read_to_string(self.hash_path(&hash)) {
            Ok(body) => body,
            Err(err) if err.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(err) => return Err(CacheReadError::Io(err.kind())),
        };
        let mut lines = body.splitn(3, '\n');
        if lines.next() != Some(MAGIC) {
            return Err(CacheReadError::Corrupt);
        }
        let keyed_to = lines
            .next()
            .and_then(|line| line.strip_prefix("scenario = "))
            .ok_or(CacheReadError::Corrupt)?;
        if keyed_to != hash {
            return Err(CacheReadError::Corrupt);
        }
        let record = lines.next().ok_or(CacheReadError::Corrupt)?;
        SimReport::from_record(record)
            .map(Some)
            .map_err(|_| CacheReadError::Corrupt)
    }

    /// Whether `scenario` has a *valid* warm entry: the entry exists,
    /// decodes, and is keyed to this scenario. A dry-run probe for
    /// `heb_fleet --list` and the capacity-advisor service — it never
    /// simulates and never writes.
    #[must_use]
    pub fn probe(&self, scenario: &Scenario) -> bool {
        matches!(self.try_load(scenario), Ok(Some(_)))
    }

    /// Removes temp files left behind in the cache directory by
    /// crashed runs, returning how many were reclaimed.
    ///
    /// The temp-file-then-rename write scheme ([`ResultCache::store`])
    /// cleans up after itself on every path except a process that dies
    /// between the write and the rename; those orphans would otherwise
    /// accumulate forever. Called when the engine attaches a cache.
    /// A temp file belonging to a *concurrently writing* process is
    /// also swept — that writer's rename then fails and it re-cleans;
    /// the cost is one lost cache write, never a corrupt entry.
    pub fn sweep_stale_tmp(&self) -> usize {
        let Ok(entries) = fs::read_dir(&self.dir) else {
            return 0;
        };
        let mut reclaimed = 0;
        for entry in entries.flatten() {
            let path = entry.path();
            let is_tmp = path
                .file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.contains(".tmp."));
            if is_tmp && fs::remove_file(&path).is_ok() {
                reclaimed += 1;
            }
        }
        reclaimed
    }

    /// Stores `report` as the result of `scenario`. Best-effort: I/O
    /// errors are reported but never corrupt an existing entry, because
    /// the entry is written to a temp file first and renamed into
    /// place atomically.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error, which callers may ignore —
    /// a failed store only costs a future re-simulation.
    pub fn store(&self, scenario: &Scenario, report: &SimReport) -> std::io::Result<()> {
        fs::create_dir_all(&self.dir)?;
        let hash = scenario.hash_hex();
        let body = format!("{MAGIC}\nscenario = {hash}\n{}", report.to_record());
        let tmp = self.tmp_path(&hash);
        fs::write(&tmp, body)?;
        // A freshly written temp file is a new inode, so a successful
        // rename always consumes its name; only a failed one leaves it.
        fs::rename(&tmp, self.hash_path(&hash)).inspect_err(|_| {
            let _ = fs::remove_file(&tmp);
        })
    }

    /// Makes `source`'s entry for `scenario` this cache's entry too, by
    /// hard link: no decode, no encode, no data written. The link is
    /// made straight under the entry's name, which `link(2)` makes
    /// appear atomically with complete contents; only when an entry
    /// already sits there is the link made under a temp name and
    /// renamed over it, so an existing entry is replaced atomically,
    /// exactly as [`ResultCache::store`] replaces it. The new name is
    /// its own directory entry: evicting or deleting `source`
    /// afterwards leaves this cache's entry whole.
    ///
    /// # Errors
    ///
    /// Fails when the link cannot be made — `source` has no entry (it
    /// was evicted), the two caches sit on different filesystems, or
    /// the filesystem has no hard links. Callers fall back to
    /// [`ResultCache::store`].
    pub fn link_entry(&self, source: &ResultCache, scenario: &Scenario) -> std::io::Result<()> {
        fs::create_dir_all(&self.dir)?;
        let hash = scenario.hash_hex();
        let (from, to) = (source.hash_path(&hash), self.hash_path(&hash));
        match fs::hard_link(&from, &to) {
            Err(err) if err.kind() == std::io::ErrorKind::AlreadyExists => {}
            done => return done,
        }
        let tmp = self.tmp_path(&hash);
        fs::hard_link(&from, &tmp)?;
        let result = fs::rename(&tmp, &to);
        // A rename onto a hard link of the same file is a no-op that
        // POSIX defines to leave the temp name behind.
        let _ = fs::remove_file(&tmp);
        result
    }

    /// A fresh temp-file name for `hash`'s entry, unique per process
    /// and per write.
    fn tmp_path(&self, hash: &str) -> PathBuf {
        self.dir.join(format!(
            "{hash}.tmp.{}.{}",
            std::process::id(),
            TEMP_COUNTER.fetch_add(1, Ordering::Relaxed)
        ))
    }

    /// Removes `scenario`'s entry if present. Used by tests and by
    /// `--no-cache` runs that want to invalidate a stale result.
    pub fn evict(&self, scenario: &Scenario) {
        let _ = fs::remove_file(self.entry_path(scenario));
    }

    /// Number of entries currently on disk (non-recursive).
    #[must_use]
    pub fn len(&self) -> usize {
        fs::read_dir(&self.dir)
            .map(|entries| {
                entries
                    .flatten()
                    .filter(|e| e.path().extension().is_some_and(|x| x == "report"))
                    .count()
            })
            .unwrap_or(0)
    }

    /// Whether the cache directory holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heb_core::SimConfig;
    use heb_workload::Archetype;

    fn temp_cache(tag: &str) -> ResultCache {
        let root =
            std::env::temp_dir().join(format!("heb-fleet-cache-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        ResultCache::new(root)
    }

    fn scenario() -> Scenario {
        Scenario::new(
            "cache-test",
            SimConfig::prototype(),
            &[Archetype::WebSearch],
            0.05,
            7,
        )
    }

    #[test]
    fn round_trips_bit_exactly() {
        let cache = temp_cache("round-trip");
        let s = scenario();
        assert!(cache.load(&s).is_none(), "cold cache must miss");
        let report = s.run_expect();
        cache.store(&s, &report).unwrap();
        let replayed = cache.load(&s).expect("warm cache must hit");
        assert_eq!(replayed, report);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn rejects_entry_keyed_to_a_different_scenario() {
        let cache = temp_cache("wrong-key");
        let s = scenario();
        let other = s.clone().with_seed(8);
        let report = s.run_expect();
        cache.store(&s, &report).unwrap();
        // Copy the entry under the other scenario's key, as a buggy
        // sync tool might.
        fs::copy(cache.entry_path(&s), cache.entry_path(&other)).unwrap();
        assert!(
            cache.load(&other).is_none(),
            "embedded hash must reject a transplanted entry"
        );
    }

    #[test]
    fn corruption_degrades_to_a_miss() {
        let cache = temp_cache("corrupt");
        let s = scenario();
        cache.store(&s, &s.run_expect()).unwrap();
        let path = cache.entry_path(&s);
        let body = fs::read_to_string(&path).unwrap();
        fs::write(&path, &body[..body.len() / 2]).unwrap();
        assert!(cache.load(&s).is_none(), "truncated entry must miss");
        fs::write(&path, "not a cache entry at all").unwrap();
        assert!(cache.load(&s).is_none(), "garbage entry must miss");
    }

    #[test]
    fn try_load_classifies_misses_and_corruption() {
        let cache = temp_cache("classify");
        let s = scenario();
        assert_eq!(cache.try_load(&s), Ok(None), "absent entry is a clean miss");
        assert!(!cache.probe(&s), "probe reports cold");
        cache.store(&s, &s.run_expect()).unwrap();
        assert!(matches!(cache.try_load(&s), Ok(Some(_))));
        assert!(cache.probe(&s), "probe reports warm");
        fs::write(cache.entry_path(&s), "garbage").unwrap();
        assert_eq!(cache.try_load(&s), Err(CacheReadError::Corrupt));
        assert!(cache.load(&s).is_none(), "load still degrades to a miss");
        assert!(!cache.probe(&s), "probe treats corruption as cold");
    }

    #[test]
    fn sweep_reclaims_stale_tmp_files_only() {
        let cache = temp_cache("sweep");
        let s = scenario();
        cache.store(&s, &s.run_expect()).unwrap();
        // Orphans a crashed writer would leave behind.
        fs::write(cache.dir().join("deadbeef.tmp.999.0"), "half-written").unwrap();
        fs::write(cache.dir().join("deadbeef.tmp.999.1"), "half-written").unwrap();
        assert_eq!(cache.sweep_stale_tmp(), 2);
        assert_eq!(cache.len(), 1, "real entries survive the sweep");
        assert!(cache.load(&s).is_some());
        assert_eq!(cache.sweep_stale_tmp(), 0, "second sweep finds nothing");
    }

    fn tmp_names(cache: &ResultCache) -> Vec<String> {
        fs::read_dir(cache.dir())
            .unwrap()
            .flatten()
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.contains(".tmp."))
            .collect()
    }

    #[test]
    fn link_entry_links_fresh_and_replaces_existing_entries() {
        let source = temp_cache("link-source");
        let dest = temp_cache("link-dest");
        let s = scenario();
        let report = s.run_expect();
        source.store(&s, &report).unwrap();
        assert!(
            tmp_names(&source).is_empty(),
            "store consumes its temp name"
        );

        // Into an empty cache: the link lands straight on the entry.
        dest.link_entry(&source, &s).unwrap();
        assert_eq!(dest.load(&s), Some(report.clone()));
        assert!(tmp_names(&dest).is_empty());

        // Onto a hard link of the same file: the rename is a no-op and
        // the temp name must still go.
        dest.link_entry(&source, &s).unwrap();
        assert_eq!(dest.load(&s), Some(report.clone()));
        assert!(tmp_names(&dest).is_empty());

        // Onto a different, stale entry: the link replaces it.
        fs::remove_file(dest.entry_path(&s)).unwrap();
        fs::write(dest.entry_path(&s), "stale entry").unwrap();
        assert!(dest.load(&s).is_none());
        dest.link_entry(&source, &s).unwrap();
        assert_eq!(dest.load(&s), Some(report));
        assert_eq!(
            fs::read(dest.entry_path(&s)).unwrap(),
            fs::read(source.entry_path(&s)).unwrap()
        );
        assert!(tmp_names(&dest).is_empty());
        assert_eq!(dest.len(), 1);

        // A source with no entry fails and leaves nothing behind.
        source.evict(&s);
        dest.evict(&s);
        assert!(dest.link_entry(&source, &s).is_err());
        assert!(dest.is_empty());
        assert!(tmp_names(&dest).is_empty());
    }

    #[test]
    fn evict_removes_the_entry() {
        let cache = temp_cache("evict");
        let s = scenario();
        cache.store(&s, &s.run_expect()).unwrap();
        assert!(!cache.is_empty());
        cache.evict(&s);
        assert!(cache.load(&s).is_none());
        assert!(cache.is_empty());
    }
}
