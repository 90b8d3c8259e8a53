//! Atomic on-disk persistence with one-deep rotation.
//!
//! A save writes `<path>.tmp`, fsyncs it, rotates any existing snapshot to
//! `<path>.prev`, then renames the temp file into place. A process killed
//! at *any* instant therefore leaves either the old snapshot, the new one,
//! or (between the two renames) only `<path>.prev` — never a half-written
//! file under the primary name. The recovery policy — try the primary,
//! and on any typed failure fall back to `<path>.prev` — lives with the
//! contents it validates (`vpic-core`'s `Simulation::restore_from_path`).

use crate::format::Writer;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::Snapshot;

    fn read_back(path: &Path) -> Snapshot {
        Snapshot::from_bytes(&fs::read(path).unwrap()).unwrap()
    }

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
        assert_eq!(step_of(&read_back(&path)), 42);
        assert!(!tmp_path(&path).exists(), "temp file must not survive a save");
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn second_save_rotates_the_previous_snapshot() {
        let dir = scratch_dir("rotate");
        let path = dir.join("a.vpck");
        save_atomic(&path, &snapshot_with(1)).unwrap();
        save_atomic(&path, &snapshot_with(2)).unwrap();
        assert_eq!(step_of(&read_back(&path)), 2);
        assert_eq!(step_of(&read_back(&prev_path(&path))), 1);
        fs::remove_dir_all(dir).unwrap();
    }
}
