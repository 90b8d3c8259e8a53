//! Fault injection for the checkpoint/restart contract.
//!
//! Each injector produces one of the failure modes a production run can
//! hit — a snapshot cut short, silent media bit rot, a process killed
//! mid-write, a worker thread dying mid-step — or, with [`rewritten`], a
//! CRC-valid container whose one section says something else, so tests
//! can assert the
//! invariant directly: every fault yields a typed [`RestoreError`] (and a
//! fallback to the previous good snapshot), or a bit-identical resume.
//! Never a silently diverging `Ok`.

use crate::file::tmp_path;
use crate::format::{SectionBuf, SectionReader, Snapshot, Writer};
use pk::pool::{DispatchPanic, WorkerPool};
use std::io::Write;
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

/// An `io::Write` that accepts `budget` bytes and then fails — the
/// in-memory version of a process dying (or a disk filling) mid-write.
#[derive(Debug)]
pub struct FailingWriter {
    /// Bytes accepted so far.
    pub written: Vec<u8>,
    budget: usize,
}

impl FailingWriter {
    /// A writer that dies after `budget` bytes.
    pub fn new(budget: usize) -> Self {
        Self { written: Vec::new(), budget }
    }
}

impl Write for FailingWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let room = self.budget - self.written.len();
        if room == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::BrokenPipe,
                "injected mid-write failure",
            ));
        }
        let n = buf.len().min(room);
        self.written.extend_from_slice(&buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Kill one dispatch on `pool`: panic the lane `at_lane` (mod the lane
/// count) inside a pooled task and return the typed [`DispatchPanic`] the
/// pool surfaces. The pool stays usable afterwards — this is the
/// "worker died at step k, restore from the last snapshot" fault.
pub fn kill_dispatch(pool: &WorkerPool, at_lane: usize) -> DispatchPanic {
    let victim = at_lane % pool.lanes();
    pool.try_run(&|lane| {
        if lane == victim {
            panic!("ckpt::faults injected worker kill on lane {lane}");
        }
    })
    .expect_err("the injected panic must surface as a DispatchPanic")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::{RestoreError, Snapshot, Writer};

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

    #[test]
    fn failing_writer_dies_on_budget() {
        let bytes = sample_bytes();
        let mut w = FailingWriter::new(10);
        let err = w.write_all(&bytes).expect_err("budget exceeded");
        assert_eq!(err.kind(), std::io::ErrorKind::BrokenPipe);
        assert_eq!(w.written.len(), 10);
        // the partial write is itself a typed restore failure
        assert!(matches!(
            Snapshot::from_bytes(&w.written),
            Err(RestoreError::Truncated | RestoreError::SchemaDrift(_))
        ));
    }

    #[test]
    fn kill_dispatch_surfaces_a_typed_panic_and_pool_survives() {
        let pool = WorkerPool::new(3);
        let dp = kill_dispatch(&pool, 1);
        assert_eq!(dp.panicked_lanes, 1);
        // caller-lane kills are typed too
        let dp0 = kill_dispatch(&pool, 0);
        assert_eq!(dp0.panicked_lanes, 1);
        // and the pool still dispatches cleanly
        pool.try_run(&|_| {}).unwrap();
    }
}
