//! An LZ77-family compression codec.
//!
//! Blobs are stored compressed (the paper's measured CPU peak includes
//! "decompressing the file from the database"). The format is a simple
//! byte-oriented LZ with hash-chain matching — think "mini LZ4": a stream
//! of tokens, each a literal run and/or a back-reference.
//!
//! ## Format
//!
//! ```text
//! stream  := header token*
//! header  := u32_le original_len
//! token   := tag lit_ext? literals (off_lo off_hi len_ext?)?
//! tag     := high nibble = literal count (15 = extended),
//!            low  nibble = match length - MIN_MATCH (15 = extended, 0b1111
//!            only valid when a match follows; a tag low nibble of 0 with
//!            no trailing bytes ends the stream after its literals)
//! ```
//!
//! Extended lengths use LEB-style 255-continuation bytes (as in LZ4).
//! Matches are 4..=64 KiB offsets, minimum length 4.

use std::fmt;

/// Decode failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// Input ended inside a token.
    Truncated,
    /// A back-reference points before the start of the output.
    BadOffset,
    /// Decompressed size disagrees with the header.
    LengthMismatch {
        /// Length promised by the header.
        expected: usize,
        /// Length actually produced, or, for a stream that runs past the
        /// header, the length its first overrunning token would reach.
        actual: usize,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "compressed stream truncated"),
            CodecError::BadOffset => write!(f, "back-reference before stream start"),
            CodecError::LengthMismatch { expected, actual } => {
                write!(f, "length mismatch: header {expected}, decoded {actual}")
            }
        }
    }
}

impl std::error::Error for CodecError {}

const MIN_MATCH: usize = 4;
const MAX_OFFSET: usize = 65_535;
const HASH_BITS: u32 = 15;

#[inline]
fn hash4(b: &[u8]) -> usize {
    let v = u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
    (v.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
}

fn write_varlen(out: &mut Vec<u8>, mut extra: usize) {
    while extra >= 255 {
        out.push(255);
        extra -= 255;
    }
    out.push(extra as u8);
}

fn read_varlen(inp: &[u8], pos: &mut usize) -> Result<usize, CodecError> {
    let mut total = 0usize;
    loop {
        let b = *inp.get(*pos).ok_or(CodecError::Truncated)?;
        *pos += 1;
        total += b as usize;
        if b != 255 {
            return Ok(total);
        }
    }
}

/// Compress `data`. Always succeeds; incompressible input grows by a few
/// bytes per 15-literal run plus the 4-byte header.
pub fn compress(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() / 2 + 16);
    out.extend_from_slice(&(data.len() as u32).to_le_bytes());
    if data.is_empty() {
        return out;
    }
    let mut head = vec![u32::MAX; 1 << HASH_BITS];
    let mut pos = 0usize;
    let mut lit_start = 0usize;

    while pos + MIN_MATCH <= data.len() {
        let h = hash4(&data[pos..]);
        let candidate = head[h];
        head[h] = pos as u32;
        let mut match_len = 0usize;
        let mut match_off = 0usize;
        if candidate != u32::MAX {
            let cand = candidate as usize;
            let off = pos - cand;
            if off <= MAX_OFFSET && data[cand..cand + MIN_MATCH] == data[pos..pos + MIN_MATCH] {
                // extend
                let mut len = MIN_MATCH;
                while pos + len < data.len() && data[cand + len] == data[pos + len] {
                    len += 1;
                }
                match_len = len;
                match_off = off;
            }
        }
        if match_len >= MIN_MATCH {
            emit_token(
                &mut out,
                &data[lit_start..pos],
                Some((match_off, match_len)),
            );
            // index the skipped region sparsely (every other byte) to keep
            // compression fast while still finding later overlaps
            let end = pos + match_len;
            let mut p = pos + 1;
            while p + MIN_MATCH <= data.len() && p < end {
                head[hash4(&data[p..])] = p as u32;
                p += 2;
            }
            pos = end;
            lit_start = pos;
        } else {
            pos += 1;
        }
    }
    // trailing literals (omitted when the last match consumed the tail, so
    // no stream has a redundant empty final token)
    if lit_start < data.len() {
        emit_token(&mut out, &data[lit_start..], None);
    }
    out
}

fn emit_token(out: &mut Vec<u8>, literals: &[u8], m: Option<(usize, usize)>) {
    // Long literal runs are split: every token carries ≤ its encodable
    // amount, only the final carries the match.
    let lit_nibble = literals.len().min(15);
    let (match_nibble, match_extra) = match m {
        Some((_, len)) => {
            let stored = len - MIN_MATCH;
            (stored.min(14) + 1, stored.saturating_sub(14))
        }
        None => (0, 0),
    };
    out.push(((lit_nibble as u8) << 4) | match_nibble as u8);
    if lit_nibble == 15 {
        write_varlen(out, literals.len() - 15);
    }
    out.extend_from_slice(literals);
    if let Some((off, _)) = m {
        out.extend_from_slice(&(off as u16).to_le_bytes());
        if match_nibble == 15 {
            write_varlen(out, match_extra);
        }
    }
}

/// Upper bound on what a stream body can decode to: no body byte stands
/// for more output than one 255-continuation byte of an extended length.
fn max_decoded_len(body: &[u8]) -> usize {
    body.len().saturating_mul(255)
}

/// Decompress a stream produced by [`compress`].
///
/// The header length bounds the work done on hostile input: the initial
/// reservation never exceeds what the body could decode to, and a literal
/// run or match that would take the output past the header length is
/// rejected before it is copied.
pub fn decompress(input: &[u8]) -> Result<Vec<u8>, CodecError> {
    if input.len() < 4 {
        return Err(CodecError::Truncated);
    }
    let expected = u32::from_le_bytes([input[0], input[1], input[2], input[3]]) as usize;
    let overrun = |actual| CodecError::LengthMismatch { expected, actual };
    let mut out = Vec::with_capacity(expected.min(max_decoded_len(&input[4..])));
    let mut pos = 4usize;
    while pos < input.len() {
        let tag = input[pos];
        pos += 1;
        let mut lit = (tag >> 4) as usize;
        if lit == 15 {
            lit += read_varlen(input, &mut pos)?;
        }
        if pos + lit > input.len() {
            return Err(CodecError::Truncated);
        }
        if out.len() + lit > expected {
            return Err(overrun(out.len() + lit));
        }
        out.extend_from_slice(&input[pos..pos + lit]);
        pos += lit;
        let mnib = (tag & 0x0f) as usize;
        if mnib == 0 {
            continue; // literal-only token (end or long-run split)
        }
        if pos + 2 > input.len() {
            return Err(CodecError::Truncated);
        }
        let off = u16::from_le_bytes([input[pos], input[pos + 1]]) as usize;
        pos += 2;
        let mut len = MIN_MATCH + (mnib - 1);
        if mnib == 15 {
            len += read_varlen(input, &mut pos)?;
        }
        if off == 0 || off > out.len() {
            return Err(CodecError::BadOffset);
        }
        if out.len() + len > expected {
            return Err(overrun(out.len() + len));
        }
        let start = out.len() - off;
        // overlapping copies are the whole point of LZ — copy byte-wise
        for i in 0..len {
            let b = out[start + i];
            out.push(b);
        }
    }
    if out.len() != expected {
        return Err(CodecError::LengthMismatch {
            expected,
            actual: out.len(),
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8]) {
        let c = compress(data);
        let d = decompress(&c).expect("decompress");
        assert_eq!(d, data, "roundtrip failed for {} bytes", data.len());
    }

    #[test]
    fn empty_and_tiny() {
        roundtrip(b"");
        roundtrip(b"a");
        roundtrip(b"ab");
        roundtrip(b"abc");
        roundtrip(b"abcd");
    }

    #[test]
    fn repetitive_compresses_well() {
        let data: Vec<u8> = b"hello world! ".iter().copied().cycle().take(100_000).collect();
        let c = compress(&data);
        assert!(c.len() < data.len() / 10, "ratio: {}/{}", c.len(), data.len());
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn zeros_compress_extremely() {
        let data = vec![0u8; 1_000_000];
        let c = compress(&data);
        assert!(c.len() < 10_000, "{} bytes", c.len());
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn incompressible_grows_bounded() {
        // pseudo-random bytes
        let mut x: u64 = 0x2545F4914F6CDD1D;
        let data: Vec<u8> = (0..100_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        let c = compress(&data);
        assert!(c.len() < data.len() + data.len() / 10 + 64);
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn overlapping_match_run() {
        // 'aaaa...' forces overlapping copies (offset 1)
        roundtrip(&vec![b'a'; 5000]);
        // period-3 pattern, offset 3 overlap
        let data: Vec<u8> = b"xyz".iter().copied().cycle().take(10_001).collect();
        roundtrip(&data);
    }

    #[test]
    fn structured_text_roundtrip() {
        let text = include_str!("codec.rs");
        roundtrip(text.as_bytes());
        let c = compress(text.as_bytes());
        assert!(c.len() < text.len(), "source code should compress");
    }

    #[test]
    fn long_literal_runs_split_correctly() {
        // all-distinct bytes > 15 forces extended literal encoding
        let data: Vec<u8> = (0..=255u8).collect();
        roundtrip(&data);
        let data: Vec<u8> = (0..1000).map(|i| (i % 251) as u8).collect();
        roundtrip(&data);
    }

    #[test]
    fn truncated_stream_errors() {
        let c = compress(b"hello hello hello hello");
        for cut in 0..c.len() {
            let r = decompress(&c[..cut]);
            assert!(r.is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn corrupt_offset_errors() {
        // token claiming a match at offset 999 with no prior output
        let mut bad = Vec::new();
        bad.extend_from_slice(&10u32.to_le_bytes());
        bad.push(0x01); // 0 literals, match nibble 1 (len 4)
        bad.extend_from_slice(&999u16.to_le_bytes());
        assert_eq!(decompress(&bad), Err(CodecError::BadOffset));
    }

    #[test]
    fn length_mismatch_detected() {
        let mut c = compress(b"abcdefgh");
        // lie about the original length
        c[0] = 99;
        assert!(matches!(
            decompress(&c),
            Err(CodecError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn huge_header_alone_is_rejected_without_reserving_it() {
        // a bare header promising 4 GiB: the reservation is capped by the
        // empty body, and the empty body fails the length check
        assert_eq!(max_decoded_len(&[]), 0);
        let r = decompress(&[0xff, 0xff, 0xff, 0xff]);
        assert_eq!(
            r,
            Err(CodecError::LengthMismatch {
                expected: u32::MAX as usize,
                actual: 0
            })
        );
    }

    #[test]
    fn reservation_cap_holds_for_the_densest_streams() {
        // all-zero input is the codec's best ratio: long matches carried
        // almost entirely by 255-continuation bytes
        for n in [1usize, 5, 19, 300, 70_000, 1_000_000] {
            let c = compress(&vec![0u8; n]);
            assert!(max_decoded_len(&c[4..]) >= n, "{n} bytes from {}", c.len());
        }
    }

    #[test]
    fn stream_longer_than_header_stops_at_the_overrunning_token() {
        // header says 10 bytes; one literal, then a match of length
        // 4 + 14 + 1000 * 255 + 3 = 255_021 at offset 1
        let mut bad = Vec::new();
        bad.extend_from_slice(&10u32.to_le_bytes());
        bad.push(0x1f); // 1 literal, extended match length
        bad.push(b'a');
        bad.extend_from_slice(&1u16.to_le_bytes());
        bad.extend(std::iter::repeat_n(255u8, 1000));
        bad.push(3);
        // a dangling match token after the overrun: a decoder that copied
        // the overrunning match first would report it as truncated
        bad.push(0x01);
        assert_eq!(
            decompress(&bad),
            Err(CodecError::LengthMismatch {
                expected: 10,
                actual: 255_022
            })
        );
        // the same overrun as a literal run
        let mut lits = Vec::new();
        lits.extend_from_slice(&10u32.to_le_bytes());
        lits.push(0xb0); // 11 literals, no match
        lits.extend_from_slice(b"hello world");
        lits.push(0x01);
        assert!(matches!(
            decompress(&lits),
            Err(CodecError::LengthMismatch {
                expected: 10,
                actual: 11
            })
        ));
    }

    #[test]
    fn large_mixed_payload() {
        let mut data = Vec::new();
        for i in 0..2000u32 {
            data.extend_from_slice(format!("record-{i}: value={} ", i * 7 % 13).as_bytes());
            if i % 5 == 0 {
                data.extend_from_slice(&i.to_le_bytes());
            }
        }
        roundtrip(&data);
    }
}
