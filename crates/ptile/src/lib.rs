//! Lossless particle-tile codec.
//!
//! A cell-sorted SoA tile is highly structured: the `cell` array is
//! non-decreasing (tiny deltas), particle ids assigned at load time are
//! near-sequential, and the f32 bit patterns of neighboring particles
//! share high bytes (positions live in `[-1, 1]`, momenta in a thermal
//! band). The codec exploits exactly that structure while staying
//! *bitwise* lossless — every f32 travels as its raw bit pattern, so
//! NaN payloads, `-0.0`, and subnormals round-trip exactly. That is a
//! hard requirement: decompressing a tile, stepping it, and comparing
//! against an untiled run must be bit-identical.
//!
//! ## Container format (`PTL1`)
//!
//! ```text
//! magic  b"PTL1"            4 bytes
//! flags  u8                 bit 0: packed (else raw little-endian arrays)
//! n      u64 LE             particle count
//! body   ...                per-array sections, fixed order:
//!                           cell, dx, dy, dz, ux, uy, uz, w, id
//! ```
//!
//! * **raw** — each array dumped as little-endian words. `raw_size(n)`
//!   bytes of body; the fallback when packing would not help.
//! * **packed** — `cell` and `id` as zigzag-varint deltas; each f32
//!   array as bit patterns (positions raw, momenta/weight XOR'd with
//!   the previous element) split into 4 byte-planes, each plane stored
//!   RLE or raw, whichever is smaller.
//!
//! Decoding is strict: bad magic, unknown flags, truncation, or
//! trailing bytes are typed [`DecodeError`]s, never partial tiles.

/// Typed decode failures. The codec never returns partial tiles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Input shorter than the section being read claimed.
    Truncated,
    /// Magic bytes are not `PTL1`.
    BadMagic,
    /// Flag bits this version does not understand.
    BadFlags(u8),
    /// A plane or run header carried an impossible tag or length.
    Corrupt,
    /// Bytes left over after the last section.
    TrailingBytes(usize),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "tile blob truncated"),
            DecodeError::BadMagic => write!(f, "bad tile magic (want PTL1)"),
            DecodeError::BadFlags(b) => write!(f, "unknown tile flags {b:#04x}"),
            DecodeError::Corrupt => write!(f, "corrupt tile section"),
            DecodeError::TrailingBytes(n) => write!(f, "{n} trailing bytes after tile"),
        }
    }
}

impl std::error::Error for DecodeError {}

const MAGIC: &[u8; 4] = b"PTL1";
const FLAG_PACKED: u8 = 0b1;
/// Bytes per particle in the uncompressed SoA: 7×f32 + u32 cell + u64 id.
pub const RAW_PARTICLE_BYTES: usize = 7 * 4 + 4 + 8;
const HEADER_BYTES: usize = 4 + 1 + 8;

/// Size in bytes of a raw-mode blob for `n` particles (header included).
pub fn raw_size(n: usize) -> usize {
    HEADER_BYTES + n * RAW_PARTICLE_BYTES
}

// ── varint / zigzag ────────────────────────────────────────────────────

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            return;
        }
        out.push(b | 0x80);
    }
}

fn get_varint(buf: &[u8], pos: &mut usize) -> Result<u64, DecodeError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let b = *buf.get(*pos).ok_or(DecodeError::Truncated)?;
        *pos += 1;
        if shift >= 64 {
            return Err(DecodeError::Corrupt);
        }
        v |= ((b & 0x7f) as u64) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

// ── byte planes with per-plane RLE-or-raw ─────────────────────────────

/// Encode one byte plane: tag 0 = raw bytes, tag 1 = RLE (varint run
/// length + byte, repeated). Picks whichever is smaller.
fn put_plane(out: &mut Vec<u8>, plane: &[u8]) {
    let mut rle = Vec::with_capacity(plane.len() / 2 + 8);
    let mut i = 0;
    while i < plane.len() {
        let b = plane[i];
        let mut run = 1usize;
        while i + run < plane.len() && plane[i + run] == b {
            run += 1;
        }
        put_varint(&mut rle, run as u64);
        rle.push(b);
        i += run;
    }
    if rle.len() < plane.len() {
        out.push(1);
        out.extend_from_slice(&rle);
    } else {
        out.push(0);
        out.extend_from_slice(plane);
    }
}

fn get_plane(buf: &[u8], pos: &mut usize, n: usize, plane: &mut Vec<u8>) -> Result<(), DecodeError> {
    plane.clear();
    let tag = *buf.get(*pos).ok_or(DecodeError::Truncated)?;
    *pos += 1;
    match tag {
        0 => {
            let end = pos.checked_add(n).ok_or(DecodeError::Corrupt)?;
            let bytes = buf.get(*pos..end).ok_or(DecodeError::Truncated)?;
            plane.extend_from_slice(bytes);
            *pos = end;
        }
        1 => {
            while plane.len() < n {
                let run = get_varint(buf, pos)? as usize;
                if run == 0 || plane.len() + run > n {
                    return Err(DecodeError::Corrupt);
                }
                let b = *buf.get(*pos).ok_or(DecodeError::Truncated)?;
                *pos += 1;
                plane.resize(plane.len() + run, b);
            }
        }
        _ => return Err(DecodeError::Corrupt),
    }
    Ok(())
}

/// Encode a u32 array (f32 bit patterns or cells) as 4 byte planes.
/// `xor_delta` first replaces each word with `w[i] ^ w[i-1]` — momenta
/// of neighboring sorted particles share high bytes, so the planes
/// collapse to near-zero runs.
fn put_u32_planes(out: &mut Vec<u8>, words: &[u32], xor_delta: bool, scratch: &mut Vec<u8>) {
    for shift in [0u32, 8, 16, 24] {
        scratch.clear();
        let mut prev = 0u32;
        for &w in words {
            let v = if xor_delta { w ^ prev } else { w };
            scratch.push((v >> shift) as u8);
            if xor_delta {
                prev = w;
            }
        }
        put_plane(out, scratch);
    }
}

fn get_u32_planes(
    buf: &[u8],
    pos: &mut usize,
    n: usize,
    xor_delta: bool,
    planes: &mut [Vec<u8>; 4],
) -> Result<Vec<u32>, DecodeError> {
    for plane in planes.iter_mut() {
        get_plane(buf, pos, n, plane)?;
    }
    let mut words = Vec::with_capacity(n);
    let mut prev = 0u32;
    for i in 0..n {
        let mut v = 0u32;
        for (b, plane) in planes.iter().enumerate() {
            v |= (plane[i] as u32) << (8 * b as u32);
        }
        if xor_delta {
            v ^= prev;
            prev = v;
        }
        words.push(v);
    }
    Ok(words)
}

// ── encode ─────────────────────────────────────────────────────────────

/// Which of the seven `f32` columns are XOR-delta'd before their byte
/// planes: the momenta and the weight, not the positions.
const XOR_DELTA: [bool; 7] = [false, false, false, true, true, true, true];

/// Encode a tile given as its columns: `cell`, the seven `f32` arrays
/// in the order `dx, dy, dz, ux, uy, uz, w`, and `id`. With `compress`
/// false the blob is the raw-mode dump (`raw_size(len)` bytes); with
/// `compress` true the packed encoding is used unless it would be larger
/// than raw, in which case the raw blob is returned (the flags byte
/// records which happened).
///
/// Round-trip through [`decode`] is bitwise lossless in both modes.
///
/// # Panics
/// If the columns disagree on length.
pub fn encode(cell: &[u32], floats: [&[f32]; 7], id: &[u64], compress: bool) -> Vec<u8> {
    let n = cell.len();
    assert!(floats.iter().all(|a| a.len() == n) && id.len() == n, "ragged tile SoA");
    if !compress {
        return encode_raw(cell, floats, id);
    }
    let mut out = Vec::with_capacity(raw_size(n) / 2);
    out.extend_from_slice(MAGIC);
    out.push(FLAG_PACKED);
    out.extend_from_slice(&(n as u64).to_le_bytes());
    // cell: sorted tiles have tiny non-negative deltas → 1-byte varints
    let mut prev = 0i64;
    for &c in cell {
        put_varint(&mut out, zigzag(c as i64 - prev));
        prev = c as i64;
    }
    // id: near-sequential at load time, arbitrary after migration
    // (wrapping deltas — full-range u64 ids reduce modulo 2^64)
    let mut prev = 0i64;
    for &id in id {
        put_varint(&mut out, zigzag((id as i64).wrapping_sub(prev)));
        prev = id as i64;
    }
    let mut scratch = Vec::with_capacity(n);
    // positions: raw bit patterns by byte plane (exponent/sign planes
    // are low-entropy for offsets in [-1, 1]); momenta + weight:
    // XOR-delta then byte planes
    for (arr, xor_delta) in floats.into_iter().zip(XOR_DELTA) {
        let words: Vec<u32> = arr.iter().map(|v| v.to_bits()).collect();
        put_u32_planes(&mut out, &words, xor_delta, &mut scratch);
    }
    if out.len() >= raw_size(n) {
        return encode_raw(cell, floats, id);
    }
    out
}

fn encode_raw(cell: &[u32], floats: [&[f32]; 7], id: &[u64]) -> Vec<u8> {
    let n = cell.len();
    let mut out = Vec::with_capacity(raw_size(n));
    out.extend_from_slice(MAGIC);
    out.push(0);
    out.extend_from_slice(&(n as u64).to_le_bytes());
    for &c in cell {
        out.extend_from_slice(&c.to_le_bytes());
    }
    for arr in floats {
        for &v in arr {
            out.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    }
    for &id in id {
        out.extend_from_slice(&id.to_le_bytes());
    }
    out
}

// ── decode ─────────────────────────────────────────────────────────────

/// A decoded tile's columns, in [`encode`]'s argument order.
pub type Columns = (Vec<u32>, [Vec<f32>; 7], Vec<u64>);

/// Decode a blob produced by [`encode`] into fresh columns. Strict: any
/// malformed input is a typed [`DecodeError`].
pub fn decode(buf: &[u8]) -> Result<Columns, DecodeError> {
    let (mut cell, mut floats, mut id): Columns = Default::default();
    decode_into(buf, &mut cell, floats.each_mut(), &mut id)?;
    Ok((cell, floats, id))
}

/// Decode into existing columns, reusing their allocations — the tile
/// pool's steady-state path (no alloc once capacities warm up).
pub fn decode_into(
    buf: &[u8],
    cell: &mut Vec<u32>,
    mut floats: [&mut Vec<f32>; 7],
    id: &mut Vec<u64>,
) -> Result<(), DecodeError> {
    if buf.len() < HEADER_BYTES {
        return Err(DecodeError::Truncated);
    }
    if &buf[..4] != MAGIC {
        return Err(DecodeError::BadMagic);
    }
    let flags = buf[4];
    if flags & !FLAG_PACKED != 0 {
        return Err(DecodeError::BadFlags(flags));
    }
    let n = u64::from_le_bytes(buf[5..13].try_into().unwrap()) as usize;
    let mut pos = HEADER_BYTES;
    cell.clear();
    floats.iter_mut().for_each(|arr| arr.clear());
    id.clear();
    if flags & FLAG_PACKED == 0 {
        if buf.len() != raw_size(n) {
            return Err(if buf.len() < raw_size(n) {
                DecodeError::Truncated
            } else {
                DecodeError::TrailingBytes(buf.len() - raw_size(n))
            });
        }
        let mut word = || {
            let w = u32::from_le_bytes(buf[pos..pos + 4].try_into().unwrap());
            pos += 4;
            w
        };
        cell.extend((0..n).map(|_| word()));
        for arr in floats {
            arr.extend((0..n).map(|_| f32::from_bits(word())));
        }
        let ids = buf[pos..].chunks_exact(8);
        id.extend(ids.map(|b| u64::from_le_bytes(b.try_into().unwrap())));
        return Ok(());
    }
    // packed
    let mut prev = 0i64;
    for _ in 0..n {
        let d = unzigzag(get_varint(buf, &mut pos)?);
        let c = prev.wrapping_add(d);
        if !(0..=u32::MAX as i64).contains(&c) {
            return Err(DecodeError::Corrupt);
        }
        cell.push(c as u32);
        prev = c;
    }
    let mut prev = 0i64;
    for _ in 0..n {
        let d = unzigzag(get_varint(buf, &mut pos)?);
        let next = prev.wrapping_add(d);
        id.push(next as u64);
        prev = next;
    }
    let mut planes: [Vec<u8>; 4] = Default::default();
    for (arr, xor_delta) in floats.into_iter().zip(XOR_DELTA) {
        let words = get_u32_planes(buf, &mut pos, n, xor_delta, &mut planes)?;
        arr.extend(words.into_iter().map(f32::from_bits));
    }
    if pos != buf.len() {
        return Err(DecodeError::TrailingBytes(buf.len() - pos));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `encode` over owned columns.
    fn enc(t: &Columns, compress: bool) -> Vec<u8> {
        encode(&t.0, t.1.each_ref().map(Vec::as_slice), &t.2, compress)
    }

    fn sample(n: usize, seed: u64) -> Columns {
        // deterministic LCG: tests must not depend on external RNG crates
        let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut t = Columns::default();
        let mut cell = 0u32;
        for i in 0..n {
            cell += (next() % 3) as u32;
            t.0.push(cell);
            for arr in &mut t.1[..3] {
                arr.push((next() % 2001) as f32 / 1000.0 - 1.0);
            }
            for arr in &mut t.1[3..6] {
                arr.push(((next() % 401) as f32 / 1000.0 - 0.2) * 0.5);
            }
            t.1[6].push(1.0);
            t.2.push(i as u64 * 7 + seed);
        }
        t
    }

    fn assert_bits_eq(a: &Columns, b: &Columns) {
        assert_eq!(a.0, b.0);
        assert_eq!(a.2, b.2);
        for (x, y) in a.1.iter().zip(&b.1) {
            assert!(x.iter().map(|v| v.to_bits()).eq(y.iter().map(|v| v.to_bits())));
        }
    }

    #[test]
    fn raw_round_trip() {
        let t = sample(257, 3);
        let blob = enc(&t, false);
        assert_eq!(blob.len(), raw_size(t.0.len()));
        assert_bits_eq(&decode(&blob).unwrap(), &t);
    }

    #[test]
    fn packed_round_trip_and_compresses_sorted_data() {
        let t = sample(4096, 9);
        let blob = enc(&t, true);
        assert!(blob.len() < raw_size(t.0.len()), "{} vs {}", blob.len(), raw_size(t.0.len()));
        assert_bits_eq(&decode(&blob).unwrap(), &t);
    }

    #[test]
    fn special_bit_patterns_survive() {
        let mut t = Columns::default();
        let specials = [
            f32::NAN,
            f32::from_bits(0x7fc0_dead), // NaN payload
            f32::from_bits(0xffc0_0001), // negative quiet NaN
            -0.0,
            0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MIN_POSITIVE / 2.0, // subnormal
            f32::from_bits(1),       // smallest subnormal
            1.0,
        ];
        for (i, &v) in specials.iter().enumerate() {
            t.0.push(i as u32);
            for (k, arr) in t.1.iter_mut().enumerate() {
                arr.push(if k == 1 || k == 5 { -v } else { v }); // dy and uz negated
            }
            t.2.push(u64::MAX - i as u64);
        }
        for compress in [false, true] {
            assert_bits_eq(&decode(&enc(&t, compress)).unwrap(), &t);
        }
    }

    #[test]
    fn empty_tile_round_trips() {
        let t = Columns::default();
        for compress in [false, true] {
            assert_bits_eq(&decode(&enc(&t, compress)).unwrap(), &t);
        }
    }

    #[test]
    fn decode_into_reuses_capacity() {
        let big = sample(1000, 1);
        let small = sample(10, 2);
        let mut t = Columns::default();
        let decode_to = |blob: &[u8], t: &mut Columns| {
            decode_into(blob, &mut t.0, t.1.each_mut(), &mut t.2).unwrap();
        };
        decode_to(&enc(&big, true), &mut t);
        let caps = |t: &Columns| (t.0.capacity(), t.1[0].capacity(), t.2.capacity());
        let warm = caps(&t);
        decode_to(&enc(&small, true), &mut t);
        assert_bits_eq(&t, &small);
        assert_eq!(caps(&t), warm);
    }

    #[test]
    fn truncation_and_garbage_are_typed_errors() {
        let t = sample(100, 5);
        for compress in [false, true] {
            let blob = enc(&t, compress);
            for cut in [0, 3, 5, 12, blob.len() / 2, blob.len() - 1] {
                assert!(decode(&blob[..cut]).is_err(), "cut at {cut} must fail");
            }
            let mut trailing = blob.clone();
            trailing.push(0);
            assert!(decode(&trailing).is_err());
        }
        assert_eq!(decode(b"nope"), Err(DecodeError::Truncated));
        assert_eq!(decode(b"XXXX\0\0\0\0\0\0\0\0\0"), Err(DecodeError::BadMagic));
        let mut badflags = enc(&t, false);
        badflags[4] = 0x80;
        assert_eq!(decode(&badflags), Err(DecodeError::BadFlags(0x80)));
    }

    #[test]
    fn varint_zigzag_round_trip() {
        for v in [0i64, 1, -1, 127, -128, 300, -300, i64::MAX, i64::MIN] {
            let mut buf = Vec::new();
            put_varint(&mut buf, zigzag(v));
            let mut pos = 0;
            assert_eq!(unzigzag(get_varint(&buf, &mut pos).unwrap()), v);
            assert_eq!(pos, buf.len());
        }
    }
}
