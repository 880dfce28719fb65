//! Warm-start for the characterized component library.
//!
//! [`build_library`] is the single most expensive deterministic step of
//! the whole flow at paper scale (tens of thousands of circuits, each
//! characterized over up to 2^20 operand assignments), yet its output is a
//! pure function of [`LibraryConfig`]. [`load_or_build_library`] gives it
//! a content-addressed disk cache: the key hashes every config field plus
//! the store format version, the value is the sealed, checksummed library
//! blob.

use crate::cache::{CacheKey, CacheMode, KeyHasher, Loaded, Store};
use crate::circuit_codec::{put_library, take_library};
use crate::codec::{Decoder, Encoder};
use crate::StoreError;
use autoax_circuit::charlib::{build_library, ComponentLibrary, LibraryConfig};
use std::path::Path;
use std::time::{Duration, Instant};

/// Container tag of library blobs.
pub const LIBRARY_TAG: [u8; 4] = *b"ALIB";

/// The content-address of a library configuration.
pub fn library_key(cfg: &LibraryConfig) -> CacheKey {
    let mut h = KeyHasher::new("component-library");
    for n in [
        cfg.counts.add8,
        cfg.counts.add9,
        cfg.counts.add16,
        cfg.counts.sub10,
        cfg.counts.sub16,
        cfg.counts.mul8,
    ] {
        h.write_u64(n as u64);
    }
    h.write_u64(cfg.seed);
    h.write_u64(cfg.char_samples as u64);
    h.write_u64(cfg.max_exhaustive_bits as u64);
    h.write_f64(cfg.max_wce_frac);
    h.write_f64(cfg.mutant_frac);
    h.finish()
}

/// Encodes a library into a standalone payload (unsealed).
pub fn encode_library(lib: &ComponentLibrary) -> Vec<u8> {
    let mut e = Encoder::new();
    put_library(&mut e, lib);
    e.into_bytes()
}

/// Decodes a library payload written by [`encode_library`].
pub fn decode_library(payload: &[u8]) -> Result<ComponentLibrary, StoreError> {
    let mut d = Decoder::new(payload);
    let lib = take_library(&mut d)?;
    d.finish()?;
    Ok(lib)
}

/// What [`load_or_build_library`] did, with timings for reporting.
#[derive(Debug)]
pub struct LibraryOutcome {
    /// The characterized library (loaded or freshly built).
    pub lib: ComponentLibrary,
    /// True when the library came from the cache.
    pub cache_hit: bool,
    /// Time spent loading + decoding (zero on a miss).
    pub load_time: Duration,
    /// Time spent building + characterizing (zero on a hit).
    pub build_time: Duration,
}

/// Loads the characterized library for `cfg` from `dir`, or builds and
/// (in read-write mode) persists it.
///
/// Corrupt or version-mismatched cache files are silently treated as
/// misses — the library is rebuilt and, in read-write mode, the bad entry
/// is replaced. With `dir = None` or [`CacheMode::Off`] this is exactly
/// [`build_library`].
pub fn load_or_build_library(
    cfg: &LibraryConfig,
    dir: Option<&Path>,
    mode: CacheMode,
) -> LibraryOutcome {
    let store = dir
        .filter(|_| mode.reads() || mode.writes())
        .map(|d| (Store::new(d), library_key(cfg)));
    if let Some((store, key)) = &store {
        if mode.reads() {
            let t = Instant::now();
            if let Loaded::Hit(payload) = store.load("library", *key, LIBRARY_TAG) {
                if let Ok(lib) = decode_library(&payload) {
                    return LibraryOutcome {
                        lib,
                        cache_hit: true,
                        load_time: t.elapsed(),
                        build_time: Duration::ZERO,
                    };
                }
            }
        }
    }
    let t = Instant::now();
    let lib = build_library(cfg);
    let build_time = t.elapsed();
    if let Some((store, key)) = &store {
        if mode.writes() {
            // best-effort: a failed write must not fail the run
            let _ = store.save("library", *key, LIBRARY_TAG, encode_library(&lib));
        }
    }
    LibraryOutcome {
        lib,
        cache_hit: false,
        load_time: Duration::ZERO,
        build_time,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "autoax-libcache-test-{}-{name}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn cold_then_warm_yields_identical_library() {
        let dir = temp_dir("warm");
        let cfg = LibraryConfig::tiny();
        let cold = load_or_build_library(&cfg, Some(&dir), CacheMode::ReadWrite);
        assert!(!cold.cache_hit);
        let warm = load_or_build_library(&cfg, Some(&dir), CacheMode::ReadWrite);
        assert!(warm.cache_hit, "second run must hit the cache");
        assert_eq!(cold.lib.total_size(), warm.lib.total_size());
        for sig in cold.lib.signatures() {
            for (a, b) in cold.lib.class(sig).iter().zip(warm.lib.class(sig)) {
                assert_eq!(a.behavior, b.behavior);
                assert_eq!(a.label, b.label);
                assert_eq!(a.hw.area.to_bits(), b.hw.area.to_bits());
                assert_eq!(a.err.mae.to_bits(), b.err.mae.to_bits());
            }
        }
    }

    /// Pins the tiny library byte for byte, and the store keys of the
    /// tiny and default configurations: a change to generation,
    /// characterization or the codec shows here, not only in an
    /// end-to-end front digest.
    #[test]
    fn tiny_library_bytes_and_keys_are_pinned() {
        let bytes = encode_library(&build_library(&LibraryConfig::tiny()));
        assert_eq!(bytes.len(), 39_777);
        assert_eq!(
            format!("{:016x}", crate::container::fnv1a64(&bytes)),
            "16d58280eca423cf"
        );
        assert_eq!(
            library_key(&LibraryConfig::tiny()).hex(),
            "ab8dbe64ed0a1f91231ad532433c87f7"
        );
        assert_eq!(
            library_key(&LibraryConfig::default()).hex(),
            "b887029856264055ae45723c94c430b3"
        );
    }

    #[test]
    fn different_configs_get_different_keys() {
        let a = library_key(&LibraryConfig::tiny());
        let b = library_key(&LibraryConfig {
            seed: 43,
            ..LibraryConfig::tiny()
        });
        assert_ne!(a, b);
        let c = library_key(&LibraryConfig {
            char_samples: 4096,
            ..LibraryConfig::tiny()
        });
        assert_ne!(a, c);
    }

    #[test]
    fn corrupt_library_blob_falls_back_to_rebuild() {
        let dir = temp_dir("corrupt");
        let cfg = LibraryConfig::tiny();
        let cold = load_or_build_library(&cfg, Some(&dir), CacheMode::ReadWrite);
        let store = Store::new(&dir);
        let path = store.entry_path("library", library_key(&cfg));
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 3;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, bytes).unwrap();
        let recovered = load_or_build_library(&cfg, Some(&dir), CacheMode::ReadWrite);
        assert!(!recovered.cache_hit, "corrupt entry must not hit");
        assert_eq!(cold.lib.total_size(), recovered.lib.total_size());
        // read-write mode replaced the corrupt entry
        let warm = load_or_build_library(&cfg, Some(&dir), CacheMode::Read);
        assert!(warm.cache_hit);
    }

    #[test]
    fn off_mode_never_touches_disk() {
        let dir = temp_dir("off");
        let cfg = LibraryConfig::tiny();
        let out = load_or_build_library(&cfg, Some(&dir), CacheMode::Off);
        assert!(!out.cache_hit);
        assert!(!dir.exists(), "off mode must not create the cache dir");
    }
}
