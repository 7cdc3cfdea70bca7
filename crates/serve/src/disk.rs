//! Optional disk tier for the `results` cache shard.
//!
//! Result frames evicted from (or never admitted to) the in-memory
//! shard survive here as checksummed `vrl-snap` envelopes, one file per
//! spec hash (`<dir>/<spec_hash:016x>.art`, tagged [`ARTIFACT_TAG`]),
//! written with [`vrl_snap::write_atomic_tagged`] so a crash mid-store
//! never leaves torn bytes. The load path is paranoid by construction:
//! a missing file is a miss, and a file that is truncated, bit-flipped,
//! foreign, or not the frame its name promises is **quarantined** —
//! renamed `*.quar`, counted, surfaced as
//! [`EventKind::ArtifactQuarantined`](vrl_obs::event::EventKind::ArtifactQuarantined)
//! by the server — and reported as a miss so the artifact is rebuilt
//! deterministically. Corrupt bytes are never served.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use vrl_snap::SnapError;

/// Subsystem tag of on-disk artifact envelopes.
pub const ARTIFACT_TAG: [u8; 4] = *b"SRVA";

/// The outcome of a disk-tier lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DiskLoad {
    /// A checksum-clean frame whose `spec_hash` matches its file name.
    Hit(String),
    /// No file for this key.
    Miss,
    /// The file existed but failed verification; it was renamed
    /// `*.quar` and the caller must rebuild. Carries the failure
    /// rendered for logs.
    Quarantined(String),
}

/// A directory of checksummed result-frame envelopes.
#[derive(Debug)]
pub struct DiskTier {
    dir: PathBuf,
    stores: AtomicU64,
    hits: AtomicU64,
    quarantined: AtomicU64,
}

impl DiskTier {
    /// Opens (creating if needed) the artifact directory.
    ///
    /// # Errors
    ///
    /// Returns [`SnapError::Io`] if the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> Result<DiskTier, SnapError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(DiskTier {
            dir,
            stores: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
        })
    }

    /// The envelope path for a spec hash.
    pub fn path(&self, key: u64) -> PathBuf {
        self.dir.join(format!("{key:016x}.art"))
    }

    /// Atomically persists a result frame under `key`. Failures are
    /// returned, not fatal — the disk tier is an accelerator; results
    /// stay correct without it.
    ///
    /// # Errors
    ///
    /// Returns [`SnapError::Io`] if the atomic write fails.
    pub fn store(&self, key: u64, frame: &str) -> Result<(), SnapError> {
        vrl_snap::write_atomic_tagged(&self.path(key), ARTIFACT_TAG, frame.as_bytes())?;
        self.stores.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Loads the frame for `key`, verifying the envelope checksum, the
    /// UTF-8 payload, and that the frame embeds the spec hash its file
    /// name claims. Anything short of that is quarantined.
    pub fn load(&self, key: u64) -> DiskLoad {
        let path = self.path(key);
        let bytes = match std::fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return DiskLoad::Miss,
            Err(e) => return self.quarantine(&path, format!("unreadable artifact: {e}")),
        };
        let payload = match vrl_snap::open_tagged(ARTIFACT_TAG, &bytes) {
            Ok(payload) => payload,
            Err(e) => return self.quarantine(&path, format!("damaged envelope: {e}")),
        };
        let frame = match std::str::from_utf8(payload) {
            Ok(frame) => frame.to_owned(),
            Err(e) => return self.quarantine(&path, format!("non-UTF-8 payload: {e}")),
        };
        // Belt and braces: the frame must be the result its name
        // promises (a valid envelope copied over the wrong name is
        // still wrong).
        let want = format!("\"spec_hash\":\"{key:016x}\"");
        if !frame.starts_with("{\"type\":\"result\"") || !frame.contains(&want) {
            return self.quarantine(&path, "frame does not match its spec hash".to_owned());
        }
        self.hits.fetch_add(1, Ordering::Relaxed);
        DiskLoad::Hit(frame)
    }

    fn quarantine(&self, path: &Path, why: String) -> DiskLoad {
        self.quarantined.fetch_add(1, Ordering::Relaxed);
        match vrl_snap::quarantine(path) {
            Ok(quar) => DiskLoad::Quarantined(format!("{why} (moved to {})", quar.display())),
            Err(e) => DiskLoad::Quarantined(format!("{why} (quarantine rename failed: {e})")),
        }
    }

    /// Frames persisted.
    pub fn stores(&self) -> u64 {
        self.stores.load(Ordering::Relaxed)
    }

    /// Frames served from disk.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Files quarantined on load.
    pub fn quarantined(&self) -> u64 {
        self.quarantined.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_tier(name: &str) -> (PathBuf, DiskTier) {
        let dir = std::env::temp_dir().join(format!("vrl-serve-disk-{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        let tier = DiskTier::open(&dir).unwrap();
        (dir, tier)
    }

    fn frame_for(key: u64) -> String {
        format!("{{\"type\":\"result\",\"spec_hash\":\"{key:016x}\",\"stats\":{{}}}}")
    }

    #[test]
    fn stored_frames_round_trip() {
        let (dir, tier) = temp_tier("roundtrip");
        assert_eq!(tier.load(7), DiskLoad::Miss);
        tier.store(7, &frame_for(7)).unwrap();
        assert_eq!(tier.load(7), DiskLoad::Hit(frame_for(7)));
        assert_eq!((tier.stores(), tier.hits(), tier.quarantined()), (1, 1, 0));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
