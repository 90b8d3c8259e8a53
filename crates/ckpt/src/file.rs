//! Atomic on-disk persistence with one-deep rotation.
//!
//! A save writes `<path>.tmp`, fsyncs it, rotates any existing snapshot to
//! `<path>.prev`, then renames the temp file into place. A process killed
//! at *any* instant therefore leaves either the old snapshot, the new one,
//! or (between the two renames) only `<path>.prev` — never a half-written
//! file under the primary name. [`load_with_fallback`] makes the recovery
//! policy explicit: try the primary, and on any typed failure fall back to
//! the previous good snapshot.

use crate::format::{RestoreError, Snapshot, Writer};
use std::fs::{self, File};
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// The temp-file name a save stages through (`<path>.tmp`).
pub fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_owned();
    name.push(".tmp");
    PathBuf::from(name)
}

/// Where the previous good snapshot is rotated to (`<path>.prev`).
pub fn prev_path(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_owned();
    name.push(".prev");
    PathBuf::from(name)
}

/// Atomically persist a [`Writer`]'s snapshot to `path` (write temp →
/// fsync → rotate old → rename). Returns the byte count written.
pub fn save_atomic(path: &Path, writer: &Writer) -> std::io::Result<u64> {
    let bytes = writer.to_bytes();
    let tmp = tmp_path(path);
    {
        let mut f = File::create(&tmp)?;
        f.write_all(&bytes)?;
        f.sync_all()?;
    }
    if path.exists() {
        fs::rename(path, prev_path(path))?;
    }
    fs::rename(&tmp, path)?;
    Ok(bytes.len() as u64)
}

/// Load and verify the snapshot at `path`.
pub fn load(path: &Path) -> Result<Snapshot, RestoreError> {
    Snapshot::from_bytes(&fs::read(path)?)
}

/// Load `path`; on any failure fall back to the rotated `<path>.prev`.
/// Returns the snapshot and whether the fallback was taken. When both
/// fail, the *primary* error is returned (it names the fresher fault).
pub fn load_with_fallback(path: &Path) -> Result<(Snapshot, bool), RestoreError> {
    match load(path) {
        Ok(snap) => Ok((snap, false)),
        Err(primary) => match load(&prev_path(path)) {
            Ok(snap) => Ok((snap, true)),
            Err(_) => Err(primary),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ckpt-file-{tag}-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn snapshot_with(step: u64) -> Writer {
        let mut w = Writer::new();
        w.section("STEP").put_u64(step);
        w
    }

    fn step_of(snap: &Snapshot) -> u64 {
        snap.section("STEP").unwrap().get_u64().unwrap()
    }

    #[test]
    fn save_load_round_trip() {
        let dir = scratch_dir("roundtrip");
        let path = dir.join("a.vpck");
        let n = save_atomic(&path, &snapshot_with(42)).unwrap();
        assert!(n > 0);
        assert_eq!(step_of(&load(&path).unwrap()), 42);
        assert!(!tmp_path(&path).exists(), "temp file must not survive a save");
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn second_save_rotates_the_previous_snapshot() {
        let dir = scratch_dir("rotate");
        let path = dir.join("a.vpck");
        save_atomic(&path, &snapshot_with(1)).unwrap();
        save_atomic(&path, &snapshot_with(2)).unwrap();
        assert_eq!(step_of(&load(&path).unwrap()), 2);
        assert_eq!(step_of(&load(&prev_path(&path)).unwrap()), 1);
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn corrupt_primary_falls_back_to_previous() {
        let dir = scratch_dir("fallback");
        let path = dir.join("a.vpck");
        save_atomic(&path, &snapshot_with(1)).unwrap();
        save_atomic(&path, &snapshot_with(2)).unwrap();
        // corrupt the primary in place (bit flip mid-file)
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        fs::write(&path, &bytes).unwrap();
        let (snap, fell_back) = load_with_fallback(&path).unwrap();
        assert!(fell_back);
        assert_eq!(step_of(&snap), 1);
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn missing_primary_and_previous_reports_the_primary_error() {
        let dir = scratch_dir("missing");
        let path = dir.join("never-written.vpck");
        match load_with_fallback(&path) {
            Err(RestoreError::Io(_)) => {}
            other => panic!("expected Io error, got {other:?}"),
        }
        fs::remove_dir_all(dir).unwrap();
    }
}
