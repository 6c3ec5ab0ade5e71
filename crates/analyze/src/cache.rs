//! The incremental on-disk analysis cache under
//! `results/analyze-cache/`.
//!
//! Each entry is one file's full [`FileAnalysis`] (raw findings,
//! directives, item index), serialized by [`crate::index::encode`] and
//! keyed by a 128-bit FNV-1a hash of the cache format version, the
//! file's context (crate, role, repo-relative path), and the file's
//! *content*. Content-addressing makes invalidation trivial: an edited
//! file hashes to a new key and simply misses. Suppression application
//! and the cross-file rules always run fresh — they depend on *other*
//! files — so a warm cache can never produce different findings than a
//! cold one, only skip the per-file parse.
//!
//! Every failure mode (unreadable dir, torn write, garbage entry)
//! degrades to a cache miss, never to a wrong answer: writes go to a
//! temp file first and `rename` into place, and
//! [`crate::index::decode`] rejects malformed text.

use crate::rules::{FileAnalysis, FileContext, Role};
use std::path::{Path, PathBuf};

/// Bump when the serialization format or rule semantics change: old
/// entries become unreachable (different keys) instead of misparsed.
const CACHE_VERSION: &str = "heb-analyze-cache-v3";

/// A directory of content-addressed [`FileAnalysis`] entries.
#[derive(Debug)]
pub struct AnalysisCache {
    dir: PathBuf,
}

impl AnalysisCache {
    /// Opens (and best-effort creates) the cache directory.
    #[must_use]
    pub fn new(dir: &Path) -> Self {
        let _ = std::fs::create_dir_all(dir);
        Self {
            dir: dir.to_path_buf(),
        }
    }

    /// Looks up an entry; any read or decode irregularity is a miss.
    #[must_use]
    pub fn load(&self, key: &str, path: &str) -> Option<FileAnalysis> {
        let text = std::fs::read_to_string(self.dir.join(key)).ok()?;
        crate::index::decode(&text, path)
    }

    /// Stores an entry (best-effort: tmp write + rename, so concurrent
    /// writers and crashes can only lose the entry, not corrupt it).
    pub fn store(&self, key: &str, fa: &FileAnalysis) {
        let tmp = self.dir.join(format!(".tmp-{key}"));
        if std::fs::write(&tmp, crate::index::encode(fa)).is_ok() {
            let _ = std::fs::rename(&tmp, self.dir.join(key));
        }
    }
}

/// The cache key for one file: version + context + content, hashed.
#[must_use]
pub fn key(source: &str, ctx: &FileContext) -> String {
    let role = match ctx.role {
        Role::Lib => "lib",
        Role::Bin => "bin",
        Role::Test => "test",
        Role::Bench => "bench",
        Role::Example => "example",
    };
    let h = fnv1a128(&[CACHE_VERSION, &ctx.crate_name, role, &ctx.path, source]);
    format!("{h:032x}")
}

/// 128-bit FNV-1a over the parts, with a separator fold between parts
/// so `("ab", "c")` and `("a", "bc")` hash differently.
fn fnv1a128(parts: &[&str]) -> u128 {
    const OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
    const PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;
    let mut h = OFFSET;
    for part in parts {
        for &b in part.as_bytes() {
            h ^= u128::from(b);
            h = h.wrapping_mul(PRIME);
        }
        h ^= 0x1f;
        h = h.wrapping_mul(PRIME);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::analyze_file;

    fn ctx() -> FileContext {
        FileContext::lib("core", "crates/core/src/x.rs")
    }

    #[test]
    fn key_depends_on_content_and_context() {
        let a = key("fn f() {}\n", &ctx());
        assert_ne!(a, key("fn g() {}\n", &ctx()), "content");
        let mut other = ctx();
        other.path = "crates/core/src/y.rs".to_string();
        assert_ne!(a, key("fn f() {}\n", &other), "path");
        let mut bin = ctx();
        bin.role = Role::Bin;
        assert_ne!(a, key("fn f() {}\n", &bin), "role");
        assert_eq!(a, key("fn f() {}\n", &ctx()), "stable");
    }

    #[test]
    fn separator_fold_distinguishes_part_boundaries() {
        assert_ne!(fnv1a128(&["ab", "c"]), fnv1a128(&["a", "bc"]));
    }

    #[test]
    fn store_then_load_round_trips() {
        let dir =
            std::env::temp_dir().join(format!("heb-analyze-cache-test-{}", std::process::id()));
        let cache = AnalysisCache::new(&dir);
        let src = "pub fn f() { x.unwrap(); }\n";
        let fa = analyze_file(src, &ctx());
        let k = key(src, &ctx());
        assert!(cache.load(&k, &ctx().path).is_none(), "cold miss");
        cache.store(&k, &fa);
        let back = cache.load(&k, &ctx().path).expect("warm hit");
        assert_eq!(fa.raw, back.raw);
        assert_eq!(fa.index, back.index);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
