//! Fault injection for the checkpoint/restart contract.
//!
//! Each injector produces one of the failure modes a production run can
//! hit — a snapshot cut short, silent media bit rot, a process killed
//! mid-write — or, with [`rewritten`], a CRC-valid container whose one
//! section says something else, so tests can assert the invariant
//! directly: every fault yields a typed [`RestoreError`] (and a fallback
//! to the previous good snapshot), or a bit-identical resume. Never a
//! silently diverging `Ok`.
//!
//! [`RestoreError`]: crate::format::RestoreError

use crate::file::tmp_path;
use crate::format::{SectionBuf, SectionReader, Snapshot, Writer};
use std::path::Path;

/// A copy of `bytes` truncated to its first `keep` bytes (clamped).
pub fn truncated(bytes: &[u8], keep: usize) -> Vec<u8> {
    bytes[..keep.min(bytes.len())].to_vec()
}

/// `bytes` rebuilt section by section — CRC-valid, like every container
/// [`Writer`] makes — with section `name` replaced by what `rewrite`
/// writes from a reader over its old payload. Every other section is
/// copied verbatim, so the decoder behind `name` is what a restore of
/// the result exercises.
///
/// # Panics
///
/// When `bytes` is not a valid snapshot.
pub fn rewritten(
    bytes: &[u8],
    name: &str,
    mut rewrite: impl FnMut(&mut SectionReader<'_>, &mut SectionBuf),
) -> Vec<u8> {
    let snap = Snapshot::from_bytes(bytes).expect("only a valid snapshot can be rewritten");
    let mut w = Writer::new();
    for section in snap.section_names() {
        let mut r = snap.section(section).expect("a listed section");
        let out = w.section(section);
        if section == name {
            rewrite(&mut r, out);
        } else {
            out.put_raw(r.take_rest());
        }
    }
    w.to_bytes()
}

/// A copy of `bytes` with one bit flipped at `byte` (clamped) : `bit`.
pub fn with_bit_flipped(bytes: &[u8], byte: usize, bit: u8) -> Vec<u8> {
    let mut out = bytes.to_vec();
    if let Some(b) = out.get_mut(byte.min(bytes.len().saturating_sub(1))) {
        *b ^= 1 << (bit % 8);
    }
    out
}

/// Reproduce what a process killed mid-save leaves on disk: a truncated
/// `<path>.tmp` staged next to `path`, with `path` itself untouched.
/// Because [`crate::file::save_atomic`] renames only after a full
/// fsync, the primary (or its `.prev` rotation) stays loadable.
pub fn crash_mid_write(path: &Path, bytes: &[u8], keep: usize) -> std::io::Result<()> {
    std::fs::write(tmp_path(path), truncated(bytes, keep))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::{Snapshot, Writer};

    fn sample_bytes() -> Vec<u8> {
        let mut w = Writer::new();
        w.section("A").put_f32s(&[1.0, 2.0, 3.0]);
        w.section("B").put_u64(99);
        w.to_bytes()
    }

    #[test]
    fn truncation_injector_produces_typed_errors() {
        let bytes = sample_bytes();
        for keep in [0, 3, 7, bytes.len() / 2, bytes.len() - 1] {
            let cut = truncated(&bytes, keep);
            assert_eq!(cut.len(), keep);
            assert!(Snapshot::from_bytes(&cut).is_err(), "keep={keep}");
        }
        // keeping everything is not a fault
        assert!(Snapshot::from_bytes(&truncated(&bytes, bytes.len())).is_ok());
    }

    #[test]
    fn bitflip_injector_produces_typed_errors() {
        let bytes = sample_bytes();
        for byte in [0, 5, 11, bytes.len() - 2] {
            let bad = with_bit_flipped(&bytes, byte, 3);
            assert_ne!(bad, bytes);
            assert!(Snapshot::from_bytes(&bad).is_err(), "byte={byte}");
        }
    }
}
