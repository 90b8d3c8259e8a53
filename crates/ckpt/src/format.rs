//! The `VPCK` snapshot container: a versioned header followed by named,
//! length-prefixed, CRC-checked sections.
//!
//! ```text
//! magic  "VPCK"                     4 bytes
//! version u32 LE                    4 bytes
//! section_count u32 LE              4 bytes
//! per section:
//!   name_len u16 LE + name bytes
//!   payload_len u64 LE + payload bytes
//!   crc32 u32 LE                    over name bytes + payload bytes
//! ```
//!
//! The reader consumes the *entire* byte stream strictly: a short stream
//! is [`RestoreError::Truncated`], a corrupted section is
//! [`RestoreError::BadCrc`], an unknown version is
//! [`RestoreError::VersionMismatch`], and anything else that does not
//! parse — bad magic, trailing bytes, duplicate or missing sections, a
//! payload that decodes to the wrong length — is
//! [`RestoreError::SchemaDrift`]. Between them those four arms cover every
//! possible corruption of a well-formed snapshot: no input maps to a
//! silently-wrong `Ok`.
//!
//! All scalars are little-endian; floats travel as their IEEE-754 bit
//! patterns so a checkpoint→restore round trip is bit-exact by
//! construction.

use crate::crc32::crc32;
use std::fmt;

/// Leading magic of every snapshot.
pub const MAGIC: [u8; 4] = *b"VPCK";

/// Current snapshot format version. Bump on any layout change; readers
/// reject other versions with [`RestoreError::VersionMismatch`] rather
/// than guessing.
const VERSION: u32 = 1;

/// Why a snapshot could not be restored. Every injected fault — byte
/// truncation, bit flips, interrupted writes — maps to exactly one of
/// these; restore never silently diverges.
#[derive(Debug)]
pub enum RestoreError {
    /// The byte stream ends before the announced content does.
    Truncated,
    /// A section's stored CRC-32 does not match its content.
    BadCrc {
        /// Name of the failing section (possibly garbled by the fault).
        section: String,
    },
    /// The snapshot was written by a different format version.
    VersionMismatch {
        /// Version found in the header.
        found: u32,
        /// Version this reader understands.
        expected: u32,
    },
    /// The bytes parse but do not describe the expected schema: bad
    /// magic, trailing bytes, duplicate/missing/misshapen sections, or a
    /// decoded value that is out of range for the state being restored.
    SchemaDrift(String),
    /// The underlying reader/writer failed.
    Io(std::io::Error),
}

impl fmt::Display for RestoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RestoreError::Truncated => write!(f, "snapshot truncated"),
            RestoreError::BadCrc { section } => {
                write!(f, "CRC mismatch in section {section:?}")
            }
            RestoreError::VersionMismatch { found, expected } => {
                write!(f, "snapshot version {found} (reader supports {expected})")
            }
            RestoreError::SchemaDrift(what) => write!(f, "schema drift: {what}"),
            RestoreError::Io(e) => write!(f, "snapshot I/O: {e}"),
        }
    }
}

impl std::error::Error for RestoreError {}

impl From<std::io::Error> for RestoreError {
    fn from(e: std::io::Error) -> Self {
        RestoreError::Io(e)
    }
}

/// One section's payload being built. Scalars append little-endian;
/// floats append as IEEE bit patterns; slices are length-prefixed.
#[derive(Debug, Default)]
pub struct SectionBuf {
    buf: Vec<u8>,
}

impl SectionBuf {
    /// Append one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a bool as one byte.
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Append a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `usize` as `u64`.
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Append an `f32` as its bit pattern (bit-exact round trip).
    pub fn put_f32(&mut self, v: f32) {
        self.put_u32(v.to_bits());
    }

    /// Append an `f64` as its bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Append a length-prefixed `f32` slice.
    pub fn put_f32s(&mut self, v: &[f32]) {
        self.put_u64(v.len() as u64);
        for &x in v {
            self.put_u32(x.to_bits());
        }
    }

    /// Append a length-prefixed `f64` slice.
    pub fn put_f64s(&mut self, v: &[f64]) {
        self.put_u64(v.len() as u64);
        for &x in v {
            self.put_u64(x.to_bits());
        }
    }

    /// Append a length-prefixed `u32` slice.
    pub fn put_u32s(&mut self, v: &[u32]) {
        self.put_u64(v.len() as u64);
        for &x in v {
            self.put_u32(x);
        }
    }

    /// Append raw bytes verbatim (no length prefix). For re-encoding a
    /// section payload unchanged — e.g. fault harnesses building a
    /// container with one section tampered and the rest intact.
    pub fn put_raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }
}

/// Builds one snapshot: named sections in insertion order.
#[derive(Debug, Default)]
pub struct Writer {
    sections: Vec<(String, SectionBuf)>,
}

impl Writer {
    /// An empty snapshot writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Start (and return) a new section. Names must be unique per
    /// snapshot; the reader rejects duplicates.
    pub fn section(&mut self, name: &str) -> &mut SectionBuf {
        debug_assert!(
            self.sections.iter().all(|(n, _)| n != name),
            "duplicate checkpoint section {name:?}"
        );
        self.sections.push((name.to_string(), SectionBuf::default()));
        &mut self.sections.last_mut().expect("just pushed").1
    }

    /// Serialize the snapshot to a byte vector.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(
            12 + self.sections.iter().map(|(n, s)| 18 + n.len() + s.buf.len()).sum::<usize>(),
        );
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&(self.sections.len() as u32).to_le_bytes());
        for (name, sec) in &self.sections {
            out.extend_from_slice(&(name.len() as u16).to_le_bytes());
            out.extend_from_slice(name.as_bytes());
            out.extend_from_slice(&(sec.buf.len() as u64).to_le_bytes());
            out.extend_from_slice(&sec.buf);
            let mut crc_input = Vec::with_capacity(name.len() + sec.buf.len());
            crc_input.extend_from_slice(name.as_bytes());
            crc_input.extend_from_slice(&sec.buf);
            out.extend_from_slice(&crc32(&crc_input).to_le_bytes());
        }
        out
    }
}

/// A parsed, CRC-verified snapshot.
#[derive(Debug)]
pub struct Snapshot {
    /// Format version found in the header (always `VERSION` today).
    pub version: u32,
    sections: Vec<(String, Vec<u8>)>,
}

/// Strict little-endian cursor over the raw container bytes.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], RestoreError> {
        let end = self.pos.checked_add(n).ok_or(RestoreError::Truncated)?;
        if end > self.bytes.len() {
            return Err(RestoreError::Truncated);
        }
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u16(&mut self) -> Result<u16, RestoreError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2 bytes")))
    }

    fn u32(&mut self) -> Result<u32, RestoreError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, RestoreError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }
}

impl Snapshot {
    /// Parse and CRC-verify a snapshot from raw bytes. Strict: trailing
    /// bytes after the last section are rejected.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, RestoreError> {
        let mut c = Cursor { bytes, pos: 0 };
        let magic = c.take(4)?;
        if magic != MAGIC {
            return Err(RestoreError::SchemaDrift(format!("bad magic {magic:02x?}")));
        }
        let version = c.u32()?;
        if version != VERSION {
            return Err(RestoreError::VersionMismatch { found: version, expected: VERSION });
        }
        let count = c.u32()? as usize;
        let mut sections: Vec<(String, Vec<u8>)> = Vec::new();
        for _ in 0..count {
            let name_len = c.u16()? as usize;
            let name_bytes = c.take(name_len)?;
            let payload_len = usize::try_from(c.u64()?).map_err(|_| RestoreError::Truncated)?;
            let payload = c.take(payload_len)?;
            let stored_crc = c.u32()?;
            let mut crc_input = Vec::with_capacity(name_len + payload_len);
            crc_input.extend_from_slice(name_bytes);
            crc_input.extend_from_slice(payload);
            let name = String::from_utf8_lossy(name_bytes).into_owned();
            if crc32(&crc_input) != stored_crc {
                return Err(RestoreError::BadCrc { section: name });
            }
            if sections.iter().any(|(n, _)| *n == name) {
                return Err(RestoreError::SchemaDrift(format!("duplicate section {name:?}")));
            }
            sections.push((name, payload.to_vec()));
        }
        if c.pos != bytes.len() {
            return Err(RestoreError::SchemaDrift(format!(
                "{} trailing byte(s) after the last section",
                bytes.len() - c.pos
            )));
        }
        Ok(Snapshot { version, sections })
    }

    /// Section names, in stored order.
    pub fn section_names(&self) -> impl Iterator<Item = &str> {
        self.sections.iter().map(|(n, _)| n.as_str())
    }

    /// True when the snapshot carries the named section.
    pub fn has_section(&self, name: &str) -> bool {
        self.sections.iter().any(|(n, _)| n == name)
    }

    /// Open the named section for strict decoding. A missing section is
    /// [`RestoreError::SchemaDrift`].
    pub fn section<'a>(&'a self, name: &str) -> Result<SectionReader<'a>, RestoreError> {
        self.sections
            .iter()
            .find(|(n, _)| n == name)
            .map(|(n, payload)| SectionReader { name: n, buf: payload, pos: 0 })
            .ok_or_else(|| RestoreError::SchemaDrift(format!("missing section {name:?}")))
    }
}

/// Strict decoder over one section's payload. Every getter fails with
/// [`RestoreError::SchemaDrift`] when the payload runs short, and
/// [`SectionReader::finish`] fails when bytes are left over — so a
/// payload either decodes completely or reports a typed error.
pub struct SectionReader<'a> {
    name: &'a str,
    buf: &'a [u8],
    pos: usize,
}

impl SectionReader<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], RestoreError> {
        let end = self.pos.checked_add(n);
        match end {
            Some(end) if end <= self.buf.len() => {
                let s = &self.buf[self.pos..end];
                self.pos = end;
                Ok(s)
            }
            _ => Err(RestoreError::SchemaDrift(format!(
                "section {:?} exhausted at byte {} (wanted {n} more)",
                self.name, self.pos
            ))),
        }
    }

    /// Decode one byte.
    pub fn get_u8(&mut self) -> Result<u8, RestoreError> {
        Ok(self.take(1)?[0])
    }

    /// Decode a bool; bytes other than 0/1 are schema drift.
    pub fn get_bool(&mut self) -> Result<bool, RestoreError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(self.drift(format!("invalid bool byte {v}"))),
        }
    }

    /// Decode a `u32`.
    pub fn get_u32(&mut self) -> Result<u32, RestoreError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    /// Decode a `u64`.
    pub fn get_u64(&mut self) -> Result<u64, RestoreError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// Decode a `usize` (stored as `u64`); values beyond the platform's
    /// range are schema drift.
    pub fn get_usize(&mut self) -> Result<usize, RestoreError> {
        let v = self.get_u64()?;
        usize::try_from(v).map_err(|_| self.drift(format!("usize out of range: {v}")))
    }

    /// Decode an `f32` from its bit pattern.
    pub fn get_f32(&mut self) -> Result<f32, RestoreError> {
        Ok(f32::from_bits(self.get_u32()?))
    }

    /// Decode an `f64` from its bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, RestoreError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Decode a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, RestoreError> {
        let len = self.get_u32()? as usize;
        let name = self.name;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| RestoreError::SchemaDrift(format!("section {name:?}: non-UTF-8 string")))
    }

    /// Decode a length-prefixed `f32` slice.
    pub fn get_f32s(&mut self) -> Result<Vec<f32>, RestoreError> {
        let len = self.checked_len(4)?;
        (0..len).map(|_| self.get_f32()).collect()
    }

    /// Decode a length-prefixed `f64` slice.
    pub fn get_f64s(&mut self) -> Result<Vec<f64>, RestoreError> {
        let len = self.checked_len(8)?;
        (0..len).map(|_| self.get_f64()).collect()
    }

    /// Decode a length-prefixed `u32` slice.
    pub fn get_u32s(&mut self) -> Result<Vec<u32>, RestoreError> {
        let len = self.checked_len(4)?;
        (0..len).map(|_| self.get_u32()).collect()
    }

    /// A slice length that provably fits in the remaining payload — so a
    /// corrupt length fails fast instead of attempting a huge allocation.
    fn checked_len(&mut self, elem_size: usize) -> Result<usize, RestoreError> {
        let len = self.get_usize()?;
        let remaining = self.buf.len() - self.pos;
        if len.checked_mul(elem_size).is_none_or(|bytes| bytes > remaining) {
            return Err(self.drift(format!("slice length {len} exceeds payload")));
        }
        Ok(len)
    }

    /// Take every remaining payload byte verbatim. Pairs with
    /// [`SectionBuf::put_raw`] for re-encoding a section unchanged.
    pub fn take_rest(&mut self) -> &[u8] {
        let rest = &self.buf[self.pos..];
        self.pos = self.buf.len();
        rest
    }

    /// Assert the payload was fully consumed.
    pub fn finish(self) -> Result<(), RestoreError> {
        if self.pos != self.buf.len() {
            return Err(RestoreError::SchemaDrift(format!(
                "section {:?}: {} undecoded byte(s)",
                self.name,
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }

    fn drift(&self, what: String) -> RestoreError {
        RestoreError::SchemaDrift(format!("section {:?}: {what}", self.name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Writer {
        let mut w = Writer::new();
        let s = w.section("GRID");
        s.put_u64(8);
        s.put_f32(0.125);
        let s = w.section("DATA");
        s.put_f32s(&[1.0, -2.5, f32::NAN]);
        s.put_u32s(&[7, 11]);
        s.put_str("electron");
        w
    }

    #[test]
    fn round_trip_is_bit_exact() {
        let bytes = sample().to_bytes();
        let snap = Snapshot::from_bytes(&bytes).unwrap();
        assert_eq!(snap.version, VERSION);
        assert_eq!(snap.section_names().collect::<Vec<_>>(), ["GRID", "DATA"]);
        let mut g = snap.section("GRID").unwrap();
        assert_eq!(g.get_u64().unwrap(), 8);
        assert_eq!(g.get_f32().unwrap().to_bits(), 0.125f32.to_bits());
        g.finish().unwrap();
        let mut d = snap.section("DATA").unwrap();
        let f = d.get_f32s().unwrap();
        assert_eq!(f.len(), 3);
        assert_eq!(f[2].to_bits(), f32::NAN.to_bits(), "NaN payload preserved bit-exactly");
        assert_eq!(d.get_u32s().unwrap(), vec![7, 11]);
        assert_eq!(d.get_str().unwrap(), "electron");
        d.finish().unwrap();
    }

    #[test]
    fn every_truncation_point_is_a_typed_error() {
        let bytes = sample().to_bytes();
        for keep in 0..bytes.len() {
            let err = Snapshot::from_bytes(&bytes[..keep])
                .expect_err("truncated snapshot must not parse");
            assert!(
                matches!(err, RestoreError::Truncated | RestoreError::SchemaDrift(_)),
                "keep={keep}: unexpected {err}"
            );
        }
    }

    #[test]
    fn every_single_bit_flip_is_a_typed_error() {
        let bytes = sample().to_bytes();
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut bad = bytes.clone();
                bad[byte] ^= 1 << bit;
                assert!(
                    Snapshot::from_bytes(&bad).is_err(),
                    "flip at {byte}:{bit} parsed as Ok — silent divergence"
                );
            }
        }
    }

    #[test]
    fn version_bump_is_rejected_explicitly() {
        let mut bytes = sample().to_bytes();
        bytes[4..8].copy_from_slice(&(VERSION + 1).to_le_bytes());
        match Snapshot::from_bytes(&bytes) {
            Err(RestoreError::VersionMismatch { found, expected }) => {
                assert_eq!(found, VERSION + 1);
                assert_eq!(expected, VERSION);
            }
            other => panic!("expected VersionMismatch, got {other:?}"),
        }
    }

    #[test]
    fn trailing_bytes_are_schema_drift() {
        let mut bytes = sample().to_bytes();
        bytes.push(0);
        assert!(matches!(
            Snapshot::from_bytes(&bytes),
            Err(RestoreError::SchemaDrift(_))
        ));
    }

    #[test]
    fn leftover_payload_bytes_are_schema_drift() {
        let bytes = sample().to_bytes();
        let snap = Snapshot::from_bytes(&bytes).unwrap();
        let mut g = snap.section("GRID").unwrap();
        let _ = g.get_u64().unwrap();
        // the f32 is still unread
        assert!(matches!(g.finish(), Err(RestoreError::SchemaDrift(_))));
    }

    #[test]
    fn oversized_slice_length_fails_without_allocating() {
        let mut w = Writer::new();
        w.section("S").put_u64(u64::MAX); // slice length prefix, no elements
        let snap = Snapshot::from_bytes(&w.to_bytes()).unwrap();
        let mut s = snap.section("S").unwrap();
        assert!(s.get_f32s().is_err());
    }

    #[test]
    fn missing_section_is_schema_drift() {
        let snap = Snapshot::from_bytes(&sample().to_bytes()).unwrap();
        assert!(matches!(
            snap.section("NOPE"),
            Err(RestoreError::SchemaDrift(_))
        ));
        assert!(snap.has_section("GRID"));
        assert!(!snap.has_section("NOPE"));
    }
}
