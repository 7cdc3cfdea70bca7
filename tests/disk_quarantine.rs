//! Corrupt bytes are never served: the result cache's disk tier
//! quarantines any artifact that is bit-flipped, truncated or holds
//! another spec's frame, and reports it as a rebuild instead of a hit.

use std::path::PathBuf;

use vrl_serve::disk::{DiskLoad, DiskTier, ARTIFACT_TAG};

fn temp_tier(name: &str) -> (PathBuf, DiskTier) {
    let dir = std::env::temp_dir().join(format!("vrl-disk-quarantine-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    let tier = DiskTier::open(&dir).unwrap();
    (dir, tier)
}

fn frame_for(key: u64) -> String {
    format!("{{\"type\":\"result\",\"spec_hash\":\"{key:016x}\",\"stats\":{{}}}}")
}

#[test]
fn bit_flips_are_quarantined_never_served() {
    let (dir, tier) = temp_tier("bitflip");
    tier.store(9, &frame_for(9)).unwrap();
    let path = tier.path(9);
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&path, &bytes).unwrap();

    assert!(matches!(tier.load(9), DiskLoad::Quarantined(_)));
    assert_eq!(tier.quarantined(), 1);
    assert!(!path.exists(), "the damaged file must be moved aside");
    let quar = dir.join(format!("{:016x}.art.quar", 9));
    assert!(quar.exists(), "the damaged bytes are preserved");
    // The name is free again: a rebuild stores and serves cleanly.
    tier.store(9, &frame_for(9)).unwrap();
    assert_eq!(tier.load(9), DiskLoad::Hit(frame_for(9)));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn truncation_and_misnamed_frames_are_quarantined() {
    let (dir, tier) = temp_tier("truncate");
    tier.store(3, &frame_for(3)).unwrap();
    let path = tier.path(3);
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
    assert!(matches!(tier.load(3), DiskLoad::Quarantined(_)));

    // A checksum-valid envelope holding the wrong spec's frame.
    vrl_snap::write_atomic_tagged(&tier.path(4), ARTIFACT_TAG, frame_for(5).as_bytes()).unwrap();
    assert!(matches!(tier.load(4), DiskLoad::Quarantined(_)));
    assert_eq!(tier.quarantined(), 2);
    std::fs::remove_dir_all(&dir).unwrap();
}
