//! Content-addressed result cache.
//!
//! A cache entry memoizes the complete observable outcome of one
//! verification command: the stdout bytes, the exit code, and any file
//! artifacts (quotient `.aut`/`.dot` exports). The key is a canonical
//! configuration string built by the caller from everything that
//! determines the result — model content hash, bound, equivalence,
//! reduce/refine modes, budget caps, and the format version — and
//! explicitly *excluding* the retired `--jobs` (a run at `--jobs 4` hits
//! the entry a `--jobs 1` run stored).
//! Replaying a hit is byte-identical by construction: the stored stdout is
//! printed verbatim and the stored artifacts are written verbatim.
//!
//! Entries are one frame-file each, named by the FNV-64 of the key
//! (`<hex>.bbc`), written atomically. Corruption of any kind — checksum,
//! truncation, version skew, or the seeded `cache-read` fault — is counted
//! (`persist.cache_corrupt`) and treated as a miss; nothing in the cache
//! path can panic a verification run.

use crate::atomic::write_atomic;
use crate::format::{frame, peek_version, unframe, Dec, Enc, FORMAT_VERSION};
use bb_lts::snapshot::fnv1a;
use std::io;
use std::path::{Path, PathBuf};

/// Extension of cache entry files.
const ENTRY_EXT: &str = "bbc";

/// A memoized command outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheEntry {
    /// The canonical key string (stored for `verify` and collision checks).
    pub key: String,
    /// Full stdout of the command, replayed verbatim on a hit.
    pub stdout: String,
    /// Process exit code of the command.
    pub exit_code: i32,
    /// Named artifact files (e.g. `aut`, `dot`), written verbatim on a hit.
    pub artifacts: Vec<(String, Vec<u8>)>,
}

impl CacheEntry {
    fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.str(&self.key);
        e.i32(self.exit_code);
        e.str(&self.stdout);
        e.u32(self.artifacts.len() as u32);
        for (name, bytes) in &self.artifacts {
            e.str(name);
            e.bytes(bytes);
        }
        frame(&e.0)
    }

    fn decode(bytes: &[u8]) -> Option<CacheEntry> {
        let payload = unframe(bytes)?;
        let mut d = Dec::new(payload);
        let key = d.str()?;
        let exit_code = d.i32()?;
        let stdout = d.str()?;
        let count = d.u32()?;
        let mut artifacts = Vec::new();
        for _ in 0..count {
            let name = d.str()?;
            let bytes = d.bytes()?.to_vec();
            artifacts.push((name, bytes));
        }
        d.finish()?;
        Some(CacheEntry {
            key,
            stdout,
            exit_code,
            artifacts,
        })
    }
}

/// Aggregate numbers for `bbv cache stats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Readable, current-version entries.
    pub entries: usize,
    /// Total bytes of all entry files (including unreadable ones).
    pub bytes: u64,
    /// Files that failed to decode (corrupt or old-version).
    pub corrupt: usize,
}

impl CacheStats {
    /// Renders the stats as one JSON object (schema `bb-cache/v1`) —
    /// consumed by `bbv cache stats --json` and embedded verbatim in the
    /// bb-serve daemon's `stats` reply.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"schema\": \"bb-cache/v1\", \"entries\": {}, \"bytes\": {}, \"corrupt\": {}}}",
            self.entries, self.bytes, self.corrupt
        )
    }
}

/// A cache directory handle.
#[derive(Debug, Clone)]
pub struct Cache {
    dir: PathBuf,
}

impl Cache {
    /// Opens (creating if needed) the cache at `dir`.
    pub fn open(dir: &Path) -> io::Result<Cache> {
        std::fs::create_dir_all(dir)?;
        Ok(Cache { dir: dir.to_path_buf() })
    }

    /// The entry file path for `key`.
    fn path_of(&self, key: &str) -> PathBuf {
        self.dir.join(format!("{:016x}.{ENTRY_EXT}", fnv1a(0, key.as_bytes())))
    }

    /// Looks `key` up. Any unreadable entry — including one sabotaged by
    /// the `cache-read` fault — counts as corrupt and misses.
    pub fn lookup(&self, key: &str) -> Option<CacheEntry> {
        let path = self.path_of(key);
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(_) => {
                bb_obs::hot::CACHE_MISSES.incr();
                return None;
            }
        };
        let sabotaged = bb_obs::fault::enabled() && bb_obs::fault::hit("cache-read");
        let entry = if sabotaged { None } else { CacheEntry::decode(&bytes) };
        // The FNV file name can collide for distinct keys; the stored key
        // string disambiguates (a collision is a plain miss).
        let entry = entry.filter(|e| e.key == key);
        match entry {
            Some(e) => {
                bb_obs::hot::CACHE_HITS.incr();
                Some(e)
            }
            None => {
                bb_obs::hot::CACHE_CORRUPT.incr();
                bb_obs::hot::CACHE_MISSES.incr();
                bb_obs::diag!("persist: corrupt cache entry {}, recomputing", path.display());
                None
            }
        }
    }

    /// Stores `entry` (atomically; concurrent writers race benignly — both
    /// write the same bytes for the same key).
    pub fn store(&self, entry: &CacheEntry) -> io::Result<()> {
        write_atomic(&self.path_of(&entry.key), &entry.encode())
    }

    /// All entry files in the cache, sorted by name for deterministic
    /// iteration.
    fn entry_files(&self) -> Vec<PathBuf> {
        let mut files: Vec<PathBuf> = std::fs::read_dir(&self.dir)
            .into_iter()
            .flatten()
            .flatten()
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == ENTRY_EXT))
            .collect();
        files.sort();
        files
    }

    /// Scans the whole cache for `bbv cache stats`.
    pub fn stats(&self) -> CacheStats {
        let mut s = CacheStats::default();
        for path in self.entry_files() {
            let Ok(bytes) = std::fs::read(&path) else {
                s.corrupt += 1;
                continue;
            };
            s.bytes += bytes.len() as u64;
            match CacheEntry::decode(&bytes) {
                Some(_) => s.entries += 1,
                None => s.corrupt += 1,
            }
        }
        s
    }

    /// Re-checks every entry's checksum; returns `(ok, corrupt)` file
    /// lists for `bbv cache verify`.
    pub fn verify(&self) -> (Vec<PathBuf>, Vec<PathBuf>) {
        let mut ok = Vec::new();
        let mut corrupt = Vec::new();
        for path in self.entry_files() {
            let readable = std::fs::read(&path)
                .ok()
                .and_then(|b| CacheEntry::decode(&b))
                .is_some();
            if readable {
                ok.push(path);
            } else {
                corrupt.push(path);
            }
        }
        (ok, corrupt)
    }

    /// Removes corrupt and old-format entries; returns how many files were
    /// deleted. Current-version, intact entries are kept (`bbv cache gc`).
    ///
    /// Safe against concurrent writers: the temp-file sweep spares
    /// in-flight `*.tmp` files younger than the grace window (deleting one
    /// would fail the writer's pending rename), and an unreadable or
    /// stale-looking entry modified within the window is left alone — the
    /// bytes we judged may already have been replaced by a just-renamed
    /// intact entry, which must never be deleted.
    pub fn gc(&self) -> usize {
        crate::atomic::sweep_temp_files(&self.dir);
        let mut removed = 0;
        for path in self.entry_files() {
            let keep = std::fs::read(&path)
                .ok()
                .filter(|b| peek_version(b) == Some(FORMAT_VERSION))
                .and_then(|b| CacheEntry::decode(&b))
                .is_some();
            if keep || crate::atomic::modified_within(&path, crate::atomic::TEMP_GRACE) {
                continue;
            }
            if std::fs::remove_file(&path).is_ok() {
                removed += 1;
            }
        }
        removed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(tag: &str) -> Cache {
        let dir = std::env::temp_dir().join(format!("bb-cache-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Cache::open(&dir).unwrap()
    }

    fn entry(key: &str) -> CacheEntry {
        CacheEntry {
            key: key.into(),
            stdout: "verdict: PROVED\n".into(),
            exit_code: 0,
            artifacts: vec![("aut".into(), b"des (0, 1, 2)\n".to_vec())],
        }
    }

    #[test]
    fn store_lookup_roundtrip() {
        let c = cache("roundtrip");
        let e = entry("algo=lin;case=treiber;bound=2,1;fmt=1");
        c.store(&e).unwrap();
        assert_eq!(c.lookup(&e.key), Some(e.clone()));
        assert_eq!(c.lookup("some-other-key"), None);
        let _ = std::fs::remove_dir_all(&c.dir);
    }

    #[test]
    fn corrupt_entry_is_a_miss_and_counted() {
        let c = cache("corrupt");
        let e = entry("k1");
        c.store(&e).unwrap();
        let path = c.path_of("k1");
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(c.lookup("k1"), None, "corrupt entry must miss, not panic");
        // A later intact store of the same key recovers the slot.
        c.store(&e).unwrap();
        assert_eq!(c.lookup("k1"), Some(e));
        let _ = std::fs::remove_dir_all(&c.dir);
    }

    /// Backdates `path` past the gc grace window (a long-dead writer).
    fn age_past_grace(path: &std::path::Path) {
        let f = std::fs::File::options().write(true).open(path).unwrap();
        f.set_modified(std::time::SystemTime::now() - crate::atomic::TEMP_GRACE * 2)
            .unwrap();
    }

    #[test]
    fn stats_verify_and_gc() {
        let c = cache("gc");
        c.store(&entry("a")).unwrap();
        c.store(&entry("b")).unwrap();
        // One corrupt file and one old-version file, both long dead.
        std::fs::write(c.dir.join("0000000000000bad.bbc"), b"garbage").unwrap();
        age_past_grace(&c.dir.join("0000000000000bad.bbc"));
        let mut old = entry("old").encode();
        old[4..8].copy_from_slice(&0u32.to_le_bytes());
        std::fs::write(c.dir.join("0000000000000o1d.bbc"), &old).unwrap();
        age_past_grace(&c.dir.join("0000000000000o1d.bbc"));
        let s = c.stats();
        assert_eq!(s.entries, 2);
        assert_eq!(s.corrupt, 2);
        let (ok, corrupt) = c.verify();
        assert_eq!(ok.len(), 2);
        assert_eq!(corrupt.len(), 2);
        assert_eq!(c.gc(), 2);
        let s = c.stats();
        assert_eq!((s.entries, s.corrupt), (2, 0));
        let _ = std::fs::remove_dir_all(&c.dir);
    }

    #[test]
    fn gc_spares_in_flight_writes() {
        let c = cache("gc-race");
        // A concurrent writer mid-store: temp file written, rename pending.
        let tmp = c.dir.join(".deadbeefdeadbeef.bbc.tmp.999");
        std::fs::write(&tmp, entry("in-flight").encode()).unwrap();
        // And a freshly-rewritten slot whose bytes we might have judged
        // corrupt a moment ago (e.g. after a sabotaged read): its mtime is
        // inside the grace window, so gc must not touch it even though the
        // current content looks like garbage.
        let fresh = c.dir.join("00000000000f0e5h.bbc");
        std::fs::write(&fresh, b"mid-overwrite garbage").unwrap();
        assert_eq!(c.gc(), 0, "gc must spare in-flight writer state");
        assert!(tmp.exists(), "pending temp file deleted under the writer");
        assert!(fresh.exists(), "just-(re)written entry deleted");
        // The writer completes: the rename lands an intact entry and a
        // later lookup hits it.
        let e = entry("in-flight");
        std::fs::rename(&tmp, c.path_of(&e.key)).unwrap();
        std::fs::write(c.path_of(&e.key), e.encode()).unwrap();
        assert_eq!(c.lookup(&e.key), Some(e));
        // Once the garbage slot ages out, gc reclaims it.
        age_past_grace(&fresh);
        assert_eq!(c.gc(), 1);
        assert!(!fresh.exists());
        let _ = std::fs::remove_dir_all(&c.dir);
    }

    #[test]
    fn filename_collisions_fall_back_to_miss() {
        let c = cache("collide");
        let e = entry("key-one");
        c.store(&e).unwrap();
        // Force a colliding file name by copying the entry over the slot of
        // a different key: the stored key string must reject the hit.
        std::fs::copy(c.path_of("key-one"), c.path_of("key-two")).unwrap();
        assert_eq!(c.lookup("key-two"), None);
        let _ = std::fs::remove_dir_all(&c.dir);
    }
}
