//! Codecs for persisting edit sequences.
//!
//! Two formats are provided:
//!
//! * a **compact binary format** (`encode`/`decode`) — what the storage
//!   engine writes into its blob pages. A typical 5-op sequence encodes to
//!   well under 200 bytes, which is the space saving that motivates storing
//!   edited images as operations in the first place (§2);
//! * a **line-oriented text format** (`to_text`/`from_text`) — a
//!   human-readable script form for examples, debugging and golden tests.
//!
//! [`Reader`] is the bounds-checked little-endian reader the binary decoder
//! is written with; the catalog, WAL-record and index-file decoders above
//! this crate read through it too.

use crate::ids::ImageId;
use crate::matrix::Matrix3;
use crate::ops::EditOp;
use crate::sequence::EditSequence;
use crate::{EditError, Result};
use mmdb_imaging::{Rect, Rgb};

const MAGIC: &[u8; 4] = b"EDSQ";
const VERSION: u8 = 1;

const TAG_DEFINE: u8 = 0;
const TAG_COMBINE: u8 = 1;
const TAG_MODIFY: u8 = 2;
const TAG_MUTATE: u8 = 3;
const TAG_MERGE_NULL: u8 = 4;
const TAG_MERGE_TARGET: u8 = 5;

/// A read past the end of encoded input: what was being decoded, and the
/// field that was cut short.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Truncated {
    /// What the [`Reader`] was decoding ("catalog", "WAL record", …).
    pub context: &'static str,
    /// The field that did not fit in the remaining bytes.
    pub field: &'static str,
}

impl std::fmt::Display for Truncated {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "truncated {}: {}", self.context, self.field)
    }
}

impl std::error::Error for Truncated {}

impl From<Truncated> for std::io::Error {
    fn from(t: Truncated) -> Self {
        std::io::Error::new(std::io::ErrorKind::InvalidData, t)
    }
}

impl From<Truncated> for EditError {
    fn from(t: Truncated) -> Self {
        EditError::Codec(t.to_string())
    }
}

type Read<T> = std::result::Result<T, Truncated>;

/// A little-endian reader over encoded bytes, consuming from the front.
/// Every read is bounds-checked and names the field it reads, so input cut
/// at any byte decodes to a [`Truncated`] error, never a panic.
#[derive(Clone, Copy, Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    context: &'static str,
}

impl<'a> Reader<'a> {
    /// A reader over `bytes`; `context` says what they encode, for errors.
    pub fn new(bytes: &'a [u8], context: &'static str) -> Self {
        Reader { bytes, context }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len()
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize, field: &'static str) -> Read<&'a [u8]> {
        if n > self.bytes.len() {
            return Err(Truncated {
                context: self.context,
                field,
            });
        }
        let (head, rest) = self.bytes.split_at(n);
        self.bytes = rest;
        Ok(head)
    }

    fn array<const N: usize>(&mut self, field: &'static str) -> Read<[u8; N]> {
        Ok(self
            .take(N, field)?
            .try_into()
            .expect("take returned N bytes"))
    }

    /// One byte.
    pub fn u8(&mut self, field: &'static str) -> Read<u8> {
        Ok(self.array::<1>(field)?[0])
    }

    /// A little-endian `u16`.
    pub fn u16(&mut self, field: &'static str) -> Read<u16> {
        self.array(field).map(u16::from_le_bytes)
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self, field: &'static str) -> Read<u32> {
        self.array(field).map(u32::from_le_bytes)
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self, field: &'static str) -> Read<u64> {
        self.array(field).map(u64::from_le_bytes)
    }

    /// A little-endian `i64`.
    pub fn i64(&mut self, field: &'static str) -> Read<i64> {
        self.array(field).map(i64::from_le_bytes)
    }

    /// A little-endian `f32`.
    pub fn f32(&mut self, field: &'static str) -> Read<f32> {
        self.array(field).map(f32::from_le_bytes)
    }

    /// A little-endian `f64`.
    pub fn f64(&mut self, field: &'static str) -> Read<f64> {
        self.array(field).map(f64::from_le_bytes)
    }
}

/// Encodes a sequence into the compact binary format.
pub fn encode(seq: &EditSequence) -> Vec<u8> {
    let mut buf = Vec::with_capacity(16 + seq.ops.len() * 40);
    let put_i64s = |buf: &mut Vec<u8>, values: &[i64]| {
        for v in values {
            buf.extend_from_slice(&v.to_le_bytes());
        }
    };
    buf.extend_from_slice(MAGIC);
    buf.push(VERSION);
    buf.extend_from_slice(&seq.base.raw().to_le_bytes());
    buf.extend_from_slice(&(seq.ops.len() as u32).to_le_bytes());
    for op in &seq.ops {
        match op {
            EditOp::Define { region } => {
                buf.push(TAG_DEFINE);
                put_i64s(&mut buf, &[region.x0, region.y0, region.x1, region.y1]);
            }
            EditOp::Combine { weights } => {
                buf.push(TAG_COMBINE);
                for w in weights {
                    buf.extend_from_slice(&w.to_le_bytes());
                }
            }
            EditOp::Modify { from, to } => {
                buf.push(TAG_MODIFY);
                buf.extend_from_slice(&from.channels());
                buf.extend_from_slice(&to.channels());
            }
            EditOp::Mutate { matrix } => {
                buf.push(TAG_MUTATE);
                for v in matrix.flatten() {
                    buf.extend_from_slice(&v.to_le_bytes());
                }
            }
            EditOp::Merge {
                target: None,
                xp,
                yp,
            } => {
                buf.push(TAG_MERGE_NULL);
                put_i64s(&mut buf, &[*xp, *yp]);
            }
            EditOp::Merge {
                target: Some(id),
                xp,
                yp,
            } => {
                buf.push(TAG_MERGE_TARGET);
                buf.extend_from_slice(&id.raw().to_le_bytes());
                put_i64s(&mut buf, &[*xp, *yp]);
            }
        }
    }
    buf
}

/// Decodes the compact binary format.
pub fn decode(bytes: &[u8]) -> Result<EditSequence> {
    let mut r = Reader::new(bytes, "edit sequence");
    let magic = r.take(MAGIC.len(), "magic")?;
    if magic != MAGIC {
        return Err(EditError::Codec(format!("bad magic {magic:?}")));
    }
    let version = r.u8("version")?;
    if version != VERSION {
        return Err(EditError::Codec(format!("unsupported version {version}")));
    }
    let base = ImageId::new(r.u64("base id")?);
    let count = r.u32("op count")? as usize;
    // Each op is at least 7 bytes (tag + modify payload); reject counts the
    // remaining buffer cannot possibly satisfy before allocating.
    if count > r.remaining() {
        return Err(EditError::Codec(format!(
            "op count {count} exceeds remaining payload"
        )));
    }
    let mut ops = Vec::with_capacity(count);
    for i in 0..count {
        let op = match r.u8("op tag")? {
            TAG_DEFINE => EditOp::Define {
                region: Rect::new(
                    r.i64("define x0")?,
                    r.i64("define y0")?,
                    r.i64("define x1")?,
                    r.i64("define y1")?,
                ),
            },
            TAG_COMBINE => {
                let mut weights = [0.0f32; 9];
                for w in &mut weights {
                    *w = r.f32("combine weight")?;
                }
                EditOp::Combine { weights }
            }
            TAG_MODIFY => {
                let c = r.take(6, "modify colors")?;
                EditOp::Modify {
                    from: Rgb::new(c[0], c[1], c[2]),
                    to: Rgb::new(c[3], c[4], c[5]),
                }
            }
            TAG_MUTATE => {
                let mut v = [0.0f64; 9];
                for x in &mut v {
                    *x = r.f64("mutate matrix")?;
                }
                EditOp::Mutate {
                    matrix: Matrix3::from_flat(v),
                }
            }
            TAG_MERGE_NULL => EditOp::Merge {
                target: None,
                xp: r.i64("merge xp")?,
                yp: r.i64("merge yp")?,
            },
            TAG_MERGE_TARGET => EditOp::Merge {
                target: Some(ImageId::new(r.u64("merge target")?)),
                xp: r.i64("merge xp")?,
                yp: r.i64("merge yp")?,
            },
            other => {
                return Err(EditError::Codec(format!(
                    "unknown op tag {other} at op {i}"
                )));
            }
        };
        ops.push(op);
    }
    Ok(EditSequence::new(base, ops))
}

/// Renders a sequence as a line-oriented script.
pub fn to_text(seq: &EditSequence) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(out, "base {}", seq.base.raw());
    for op in &seq.ops {
        match op {
            EditOp::Define { region } => {
                let _ = writeln!(
                    out,
                    "define {} {} {} {}",
                    region.x0, region.y0, region.x1, region.y1
                );
            }
            EditOp::Combine { weights } => {
                let ws: Vec<String> = weights.iter().map(|w| format!("{w}")).collect();
                let _ = writeln!(out, "combine {}", ws.join(" "));
            }
            EditOp::Modify { from, to } => {
                let _ = writeln!(out, "modify {from:?} {to:?}");
            }
            EditOp::Mutate { matrix } => {
                let vs: Vec<String> = matrix.flatten().iter().map(|v| format!("{v}")).collect();
                let _ = writeln!(out, "mutate {}", vs.join(" "));
            }
            EditOp::Merge { target, xp, yp } => match target {
                None => {
                    let _ = writeln!(out, "merge null {xp} {yp}");
                }
                Some(id) => {
                    let _ = writeln!(out, "merge {} {xp} {yp}", id.raw());
                }
            },
        }
    }
    out
}

/// Parses the line-oriented script format produced by [`to_text`]. Blank
/// lines and `//` comments are skipped (`#` is reserved for hex colors).
pub fn from_text(text: &str) -> Result<EditSequence> {
    let mut base: Option<ImageId> = None;
    let mut ops = Vec::new();
    for (lineno, raw_line) in text.lines().enumerate() {
        let line = raw_line.split("//").next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        let head = parts.next().expect("non-empty line has a token");
        let rest: Vec<&str> = parts.collect();
        let err = |msg: &str| EditError::Codec(format!("line {}: {msg}", lineno + 1));
        match head {
            "base" => {
                let id = rest
                    .first()
                    .and_then(|s| s.parse::<u64>().ok())
                    .ok_or_else(|| err("expected `base <id>`"))?;
                base = Some(ImageId::new(id));
            }
            "define" => {
                if rest.len() != 4 {
                    return Err(err("expected `define x0 y0 x1 y1`"));
                }
                let v: Vec<i64> = rest
                    .iter()
                    .map(|s| s.parse::<i64>())
                    .collect::<std::result::Result<_, _>>()
                    .map_err(|_| err("non-integer define coordinate"))?;
                ops.push(EditOp::Define {
                    region: Rect::new(v[0], v[1], v[2], v[3]),
                });
            }
            "combine" => {
                if rest.len() != 9 {
                    return Err(err("expected 9 combine weights"));
                }
                let mut weights = [0.0f32; 9];
                for (slot, s) in weights.iter_mut().zip(&rest) {
                    *slot = s.parse().map_err(|_| err("non-numeric combine weight"))?;
                }
                ops.push(EditOp::Combine { weights });
            }
            "modify" => {
                if rest.len() != 2 {
                    return Err(err("expected `modify #from #to`"));
                }
                let from = Rgb::from_hex(rest[0]).ok_or_else(|| err("bad `from` color"))?;
                let to = Rgb::from_hex(rest[1]).ok_or_else(|| err("bad `to` color"))?;
                ops.push(EditOp::Modify { from, to });
            }
            "mutate" => {
                if rest.len() != 9 {
                    return Err(err("expected 9 mutate matrix values"));
                }
                let mut v = [0.0f64; 9];
                for (slot, s) in v.iter_mut().zip(&rest) {
                    *slot = s.parse().map_err(|_| err("non-numeric matrix value"))?;
                }
                ops.push(EditOp::Mutate {
                    matrix: Matrix3::from_flat(v),
                });
            }
            "merge" => {
                if rest.len() != 3 {
                    return Err(err("expected `merge <target|null> xp yp`"));
                }
                let target = if rest[0].eq_ignore_ascii_case("null") {
                    None
                } else {
                    Some(ImageId::new(
                        rest[0]
                            .parse::<u64>()
                            .map_err(|_| err("bad merge target"))?,
                    ))
                };
                let xp = rest[1].parse::<i64>().map_err(|_| err("bad xp"))?;
                let yp = rest[2].parse::<i64>().map_err(|_| err("bad yp"))?;
                ops.push(EditOp::Merge { target, xp, yp });
            }
            other => return Err(err(&format!("unknown directive {other:?}"))),
        }
    }
    let base = base.ok_or_else(|| EditError::Codec("missing `base <id>` line".into()))?;
    Ok(EditSequence::new(base, ops))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> EditSequence {
        EditSequence::builder(ImageId::new(17))
            .define(Rect::new(1, 2, 30, 40))
            .modify(Rgb::new(250, 0, 10), Rgb::new(0, 128, 255))
            .combine([1.0, 2.0, 1.0, 2.0, 4.0, 2.0, 1.0, 2.0, 1.0])
            .mutate(Matrix3::rotation_about(0.5, 16.0, 16.0))
            .crop_to_region()
            .merge_into(ImageId::new(99), -3, 7)
            .build()
    }

    #[test]
    fn reader_reads_little_endian_and_refuses_to_overrun() {
        let mut buf = vec![7u8];
        buf.extend_from_slice(&0xBEEFu16.to_le_bytes());
        buf.extend_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
        buf.extend_from_slice(&42u64.to_le_bytes());
        buf.extend_from_slice(&(-42i64).to_le_bytes());
        buf.extend_from_slice(&0.25f32.to_le_bytes());
        buf.extend_from_slice(&1.5f64.to_le_bytes());
        buf.extend_from_slice(b"xy");
        let mut r = Reader::new(&buf, "sample");
        assert_eq!(r.u8("a"), Ok(7));
        assert_eq!(r.u16("b"), Ok(0xBEEF));
        assert_eq!(r.u32("c"), Ok(0xDEAD_BEEF));
        assert_eq!(r.u64("d"), Ok(42));
        assert_eq!(r.i64("e"), Ok(-42));
        assert_eq!(r.f32("f"), Ok(0.25));
        assert_eq!(r.f64("g"), Ok(1.5));
        assert_eq!(r.remaining(), 2);
        // A read that does not fit consumes nothing and names its field.
        let short = r.u32("trailer").unwrap_err();
        assert_eq!(short.to_string(), "truncated sample: trailer");
        assert_eq!(r.take(2, "tail"), Ok(&b"xy"[..]));
        assert_eq!(r.remaining(), 0);
        assert!(r.u8("past the end").is_err());
        assert_eq!(r.take(0, "nothing"), Ok(&[][..]));
    }

    #[test]
    fn binary_roundtrip() {
        let seq = sample();
        let bytes = encode(&seq);
        let back = decode(&bytes).unwrap();
        assert_eq!(seq, back);
    }

    #[test]
    fn binary_is_compact() {
        let bytes = encode(&sample());
        assert!(bytes.len() < 250, "encoded size {}", bytes.len());
    }

    #[test]
    fn binary_rejects_corruption() {
        let bytes = encode(&sample());
        // Bad magic.
        let mut bad = bytes.to_vec();
        bad[0] = b'X';
        assert!(decode(&bad).is_err());
        // Bad version.
        let mut bad = bytes.to_vec();
        bad[4] = 9;
        assert!(decode(&bad).is_err());
        // Truncation at every prefix must error, never panic.
        for cut in 0..bytes.len() {
            assert!(decode(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        // Unknown tag.
        let mut bad = bytes.to_vec();
        bad[17] = 200;
        assert!(decode(&bad).is_err());
    }

    #[test]
    fn binary_rejects_huge_count() {
        let mut buf = Vec::new();
        buf.extend_from_slice(b"EDSQ");
        buf.push(1);
        buf.extend_from_slice(&7u64.to_le_bytes());
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode(&buf).is_err());
    }

    #[test]
    fn empty_sequence_roundtrip() {
        let seq = EditSequence::new(ImageId::new(3), vec![]);
        assert_eq!(decode(&encode(&seq)).unwrap(), seq);
    }

    #[test]
    fn text_roundtrip() {
        let seq = sample();
        let text = to_text(&seq);
        let back = from_text(&text).unwrap();
        assert_eq!(seq, back);
    }

    #[test]
    fn text_parses_comments_and_blanks() {
        let text = "\n// a script\nbase 5\n\ndefine 0 0 4 4  // select\nmodify #ff0000 #00ff00\nmerge null 0 0\n";
        let seq = from_text(text).unwrap();
        assert_eq!(seq.base, ImageId::new(5));
        assert_eq!(seq.len(), 3);
    }

    #[test]
    fn text_errors_are_line_numbered() {
        let err = from_text("base 1\ndefine 1 2 3\n").unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
        assert!(from_text("define 0 0 1 1\n").is_err(), "missing base");
        assert!(from_text("base 1\nfrobnicate\n").is_err());
        assert!(from_text("base 1\nmodify red green\n").is_err());
        assert!(from_text("base 1\nmerge x 0 0\n").is_err());
        assert!(from_text("base 1\ncombine 1 2 3\n").is_err());
    }

    #[test]
    fn text_merge_null_case_insensitive() {
        let seq = from_text("base 1\nmerge NULL 2 3\n").unwrap();
        assert_eq!(
            seq.ops[0],
            EditOp::Merge {
                target: None,
                xp: 2,
                yp: 3
            }
        );
    }
}
