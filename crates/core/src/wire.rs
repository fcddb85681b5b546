//! Wire format for accumulator state.
//!
//! RSUM was introduced in an MPI context (§III-D: local summation +
//! `MPI_Reduce`); a database engine likewise ships partial aggregates
//! between operators, sockets and machines. Because [`ReproSum`]'s merge
//! is exact and associative, shipping the *state* (not the rounded value)
//! preserves bit-reproducibility across any distribution topology.
//!
//! The format is fixed-size, little-endian and versioned:
//!
//! ```text
//! [0]      magic 0x52 ('R')
//! [1]      version (1)
//! [2]      scalar kind (4 = f32, 8 = f64)
//! [3]      level count L
//! [4]      special state (0..=3)
//! [5..8]   top rung (u24, little-endian — NUM_BINS < 2^8 in practice)
//! then L × (scalar sum as f64 bits, carry as i64), both little-endian.
//! ```

use crate::float::ReproFloat;
use crate::repro::{ReproSum, Special};

/// Errors when decoding accumulator state or a wire frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Buffer too short or wrong magic/version.
    Malformed,
    /// Scalar type or level count does not match the target type.
    TypeMismatch,
    /// Field value out of range (corrupt or adversarial input).
    OutOfRange,
    /// A frame ended mid-way (stream cut or buffer shorter than its
    /// length prefix promises).
    Truncated,
    /// A frame's length prefix exceeds [`MAX_FRAME_LEN`]. Detected
    /// *before* any allocation, so adversarial prefixes cannot make the
    /// decoder over-allocate.
    FrameTooLarge {
        /// The length the prefix claimed.
        len: u32,
    },
}

impl core::fmt::Display for WireError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            WireError::Malformed => write!(f, "malformed accumulator state"),
            WireError::TypeMismatch => write!(f, "accumulator state for a different type"),
            WireError::OutOfRange => write!(f, "accumulator state field out of range"),
            WireError::Truncated => write!(f, "wire frame truncated"),
            WireError::FrameTooLarge { len } => {
                write!(
                    f,
                    "wire frame length {len} exceeds the {MAX_FRAME_LEN}-byte cap"
                )
            }
        }
    }
}

impl std::error::Error for WireError {}

const MAGIC: u8 = 0x52;
const VERSION: u8 = 1;

/// Sanity cap on a frame's length prefix (1 MiB). Large enough for any
/// query text or result the service ships, small enough that a corrupt or
/// adversarial prefix cannot drive an allocation.
pub const MAX_FRAME_LEN: u32 = 1 << 20;

/// A length-prefixed message envelope: the unit the query service ships
/// over sockets. Layout, all little-endian:
///
/// ```text
/// [0..4]  u32 length of the rest (= 1 + payload length), capped at
///         MAX_FRAME_LEN
/// [4]     kind tag (meaning assigned by the protocol layer)
/// [5..]   payload
/// ```
///
/// The envelope is deliberately dumb — a tag byte plus opaque bytes — so
/// the decoder here can be hardened once (length cap, truncation checks,
/// no input-driven allocation before validation) and every protocol built
/// on it inherits that hardening.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    /// Protocol-assigned message tag.
    pub kind: u8,
    /// Opaque message body.
    pub payload: Vec<u8>,
}

impl Frame {
    /// Byte length of the length prefix.
    pub const HEADER: usize = 4;

    /// Builds a frame; panics if the payload would overflow the length cap
    /// (the protocol layer keeps messages far below it).
    pub fn new(kind: u8, payload: Vec<u8>) -> Frame {
        assert!(
            payload.len() < MAX_FRAME_LEN as usize,
            "frame payload of {} bytes exceeds MAX_FRAME_LEN",
            payload.len()
        );
        Frame { kind, payload }
    }

    /// Serializes the frame: length prefix, kind tag, payload.
    pub fn encode(&self) -> Vec<u8> {
        let len = 1 + self.payload.len() as u32;
        let mut out = Vec::with_capacity(Self::HEADER + len as usize);
        out.extend_from_slice(&len.to_le_bytes());
        out.push(self.kind);
        out.extend_from_slice(&self.payload);
        out
    }

    /// Decodes one frame from the front of `buf`, returning it and the
    /// number of bytes consumed. Pure (no I/O) so it can be property-tested
    /// against arbitrary byte soup: every outcome is a typed [`WireError`],
    /// never a panic, and the length prefix is validated against
    /// [`MAX_FRAME_LEN`] *before* any payload is copied.
    pub fn decode(buf: &[u8]) -> Result<(Frame, usize), WireError> {
        if buf.len() < Self::HEADER {
            return Err(WireError::Truncated);
        }
        let len = u32::from_le_bytes(buf[..4].try_into().expect("length checked"));
        if len == 0 {
            return Err(WireError::Malformed); // no room for the kind tag
        }
        if len > MAX_FRAME_LEN {
            return Err(WireError::FrameTooLarge { len });
        }
        let total = Self::HEADER + len as usize;
        if buf.len() < total {
            return Err(WireError::Truncated);
        }
        Ok((
            Frame {
                kind: buf[4],
                payload: buf[5..total].to_vec(),
            },
            total,
        ))
    }

    /// Reads one frame from a stream. `Ok(None)` is a clean close (EOF
    /// exactly at a frame boundary); EOF mid-frame surfaces as an
    /// `UnexpectedEof` error wrapping [`WireError::Truncated`], and an
    /// oversized length prefix as `InvalidData` wrapping
    /// [`WireError::FrameTooLarge`] — again before any allocation.
    pub fn read_from<R: std::io::Read>(r: &mut R) -> std::io::Result<Option<Frame>> {
        let mut header = [0u8; Self::HEADER];
        let mut got = 0;
        while got < header.len() {
            match r.read(&mut header[got..])? {
                0 if got == 0 => return Ok(None),
                0 => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        WireError::Truncated,
                    ))
                }
                n => got += n,
            }
        }
        let len = u32::from_le_bytes(header);
        if len == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                WireError::Malformed,
            ));
        }
        if len > MAX_FRAME_LEN {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                WireError::FrameTooLarge { len },
            ));
        }
        let mut body = vec![0u8; len as usize];
        r.read_exact(&mut body).map_err(|e| {
            if e.kind() == std::io::ErrorKind::UnexpectedEof {
                std::io::Error::new(std::io::ErrorKind::UnexpectedEof, WireError::Truncated)
            } else {
                e
            }
        })?;
        Ok(Some(Frame {
            kind: body[0],
            payload: body.split_off(1),
        }))
    }

    /// Writes the frame to a stream.
    pub fn write_to<W: std::io::Write>(&self, w: &mut W) -> std::io::Result<()> {
        w.write_all(&self.encode())
    }
}

impl<T: ReproFloat, const L: usize> ReproSum<T, L> {
    /// Size in bytes of the serialized state.
    pub const WIRE_SIZE: usize = 8 + L * 16;

    /// Serializes the canonical state (propagates carries first so equal
    /// multisets always serialize to equal bytes).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut canon = self.clone();
        canon.propagate_carries();
        let (top, sums, carries) = canon.canonical_state();
        let mut out = Vec::with_capacity(Self::WIRE_SIZE);
        out.push(MAGIC);
        out.push(VERSION);
        out.push(core::mem::size_of::<T>() as u8);
        out.push(L as u8);
        out.push(canon.special() as u8);
        let t = top.to_le_bytes();
        out.extend_from_slice(&t[..3]);
        for l in 0..L {
            out.extend_from_slice(&sums[l].to_le_bytes());
            out.extend_from_slice(&carries[l].to_le_bytes());
        }
        out
    }

    /// The largest carry count any state of at most 2^64 deposits can
    /// hold (see [`from_bytes`](Self::from_bytes)).
    const MAX_CARRY: i64 = 1 << (65 + T::W - T::MANTISSA_BITS);

    /// Decodes a state previously produced by [`to_bytes`](Self::to_bytes)
    /// for the same `T` and `L`.
    ///
    /// Rejects with [`WireError::OutOfRange`] every state `to_bytes`
    /// cannot produce from at most 2^64 deposits: a rung off the ladder;
    /// a level sum that is not finite, `−0.0`, not a `T`, not a multiple
    /// of its rung's ulp, or beyond half a carry unit (`to_bytes`
    /// propagates carries first); anything non-zero in a level below the
    /// ladder's bottom rung; and a carry count beyond `2^(65 + W − m)`,
    /// which is `2^53` for `f64` and `2^60` for `f32`. That bound: a
    /// deposit adds at most `2^(W−1)` ulps of a level's rung to it — the
    /// deposit limit at level 0, half the ulp of the rung above deeper
    /// down — and a carry unit is `2^(m−2)` ulps, so 2^64 deposits add at
    /// most `2^(65 + W − m)` carry units to any one rung, whatever the
    /// merges and promotions between them. Two such counts add without
    /// overflowing an `i64`, so what this accepts merges and rounds
    /// without overflowing a counter.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, WireError> {
        if bytes.len() != Self::WIRE_SIZE || bytes[0] != MAGIC || bytes[1] != VERSION {
            return Err(WireError::Malformed);
        }
        if bytes[2] as usize != core::mem::size_of::<T>() || bytes[3] as usize != L {
            return Err(WireError::TypeMismatch);
        }
        let special = match bytes[4] {
            0 => Special::Finite,
            1 => Special::PosInf,
            2 => Special::NegInf,
            3 => Special::Nan,
            _ => return Err(WireError::OutOfRange),
        };
        let top = u32::from_le_bytes([bytes[5], bytes[6], bytes[7], 0]);
        if top as usize >= T::NUM_BINS {
            return Err(WireError::OutOfRange);
        }
        let mut sums = [T::ZERO; L];
        let mut carries = [0i64; L];
        for l in 0..L {
            let off = 8 + l * 16;
            let raw = f64::from_bits(u64::from_le_bytes(
                bytes[off..off + 8].try_into().expect("length checked"),
            ));
            let sum = T::from_f64(raw);
            let carry =
                i64::from_le_bytes(bytes[off + 8..off + 16].try_into().expect("length checked"));
            // A level sum is a finite `T` on its rung's grid, within half a
            // carry unit of zero; levels below the ladder stay empty.
            let bin = top as usize + l;
            let valid = if bin < T::NUM_BINS {
                let ulp = T::exp2i(T::bin_exp(bin) - T::MANTISSA_BITS);
                let steps = sum / ulp;
                raw.is_finite()
                    && raw.to_bits() != (-0.0f64).to_bits()
                    && sum.to_f64() == raw
                    && sum.abs() <= T::carry_unit(bin) * T::from_f64(0.5)
                    && steps.round_ties_even_() == steps
                    && carry.unsigned_abs() <= Self::MAX_CARRY as u64
            } else {
                raw == 0.0 && carry == 0
            };
            if !valid {
                return Err(WireError::OutOfRange);
            }
            sums[l] = sum;
            carries[l] = carry;
        }
        Ok(ReproSum::from_raw_state(top, sums, carries, special))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_preserves_bits() {
        let mut acc = ReproSum::<f64, 3>::new();
        for i in 0..10_000 {
            acc.add((i as f64).sin() * 10f64.powi(i % 7 - 3));
        }
        let bytes = acc.to_bytes();
        assert_eq!(bytes.len(), ReproSum::<f64, 3>::WIRE_SIZE);
        let back = ReproSum::<f64, 3>::from_bytes(&bytes).unwrap();
        assert_eq!(acc.value().to_bits(), back.value().to_bits());
        assert_eq!(acc.canonical_state(), back.canonical_state());
    }

    #[test]
    fn equal_multisets_serialize_identically() {
        let values: Vec<f64> = (0..500).map(|i| (i as f64) * 0.37 - 90.0).collect();
        let mut a = ReproSum::<f64, 2>::new();
        a.add_all(&values);
        let rev: Vec<f64> = values.iter().rev().copied().collect();
        let mut b = ReproSum::<f64, 2>::new();
        b.add_all(&rev);
        assert_eq!(a.to_bytes(), b.to_bytes());
    }

    #[test]
    fn cross_machine_merge() {
        // Simulate a scatter/gather: shards serialized, shipped, merged.
        let values: Vec<f64> = (0..9000).map(|i| 1.0 / (i as f64 + 1.0)).collect();
        let shards: Vec<Vec<u8>> = values
            .chunks(1000)
            .map(|c| {
                let mut acc = ReproSum::<f64, 2>::new();
                acc.add_all(c);
                acc.to_bytes()
            })
            .collect();
        let mut merged = ReproSum::<f64, 2>::new();
        for s in &shards {
            merged.merge(&ReproSum::from_bytes(s).unwrap());
        }
        let mut whole = ReproSum::<f64, 2>::new();
        whole.add_all(&values);
        assert_eq!(whole.value().to_bits(), merged.value().to_bits());
    }

    #[test]
    fn specials_survive() {
        let mut acc = ReproSum::<f32, 2>::new();
        acc.add(f32::INFINITY);
        let back = ReproSum::<f32, 2>::from_bytes(&acc.to_bytes()).unwrap();
        assert_eq!(back.value(), f32::INFINITY);
    }

    #[test]
    fn frame_roundtrip_and_chaining() {
        let a = Frame::new(7, b"SELECT 1".to_vec());
        let b = Frame::new(0, vec![]);
        let mut buf = a.encode();
        buf.extend_from_slice(&b.encode());
        let (da, used) = Frame::decode(&buf).unwrap();
        assert_eq!(da, a);
        let (db, used2) = Frame::decode(&buf[used..]).unwrap();
        assert_eq!(db, b);
        assert_eq!(used + used2, buf.len());
    }

    #[test]
    fn frame_decode_rejects_truncation_and_oversize() {
        assert_eq!(Frame::decode(&[]), Err(WireError::Truncated));
        assert_eq!(Frame::decode(&[1, 0, 0]), Err(WireError::Truncated));
        assert_eq!(Frame::decode(&[0, 0, 0, 0]), Err(WireError::Malformed));
        // Length prefix promises more than the buffer holds.
        assert_eq!(
            Frame::decode(&[5, 0, 0, 0, 1, 2]),
            Err(WireError::Truncated)
        );
        // Oversized length prefix is rejected before any allocation.
        let huge = u32::MAX.to_le_bytes();
        assert_eq!(
            Frame::decode(&huge),
            Err(WireError::FrameTooLarge { len: u32::MAX })
        );
    }

    #[test]
    fn frame_stream_io() {
        let frames = [Frame::new(1, vec![0xAB; 100]), Frame::new(2, vec![])];
        let mut stream = Vec::new();
        for f in &frames {
            f.write_to(&mut stream).unwrap();
        }
        let mut r = &stream[..];
        assert_eq!(Frame::read_from(&mut r).unwrap(), Some(frames[0].clone()));
        assert_eq!(Frame::read_from(&mut r).unwrap(), Some(frames[1].clone()));
        // Clean close at a frame boundary.
        assert_eq!(Frame::read_from(&mut r).unwrap(), None);
        // EOF mid-frame is a typed truncation.
        let mut cut = &stream[..stream.len() / 2];
        let err = Frame::read_from(&mut cut).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
        let inner = err.get_ref().unwrap().downcast_ref::<WireError>().unwrap();
        assert_eq!(*inner, WireError::Truncated);
    }

    #[test]
    fn rejects_garbage() {
        assert!(matches!(
            ReproSum::<f64, 2>::from_bytes(&[]),
            Err(WireError::Malformed)
        ));
        let mut bytes = ReproSum::<f64, 2>::new().to_bytes();
        bytes[0] = 0xFF;
        assert!(matches!(
            ReproSum::<f64, 2>::from_bytes(&bytes),
            Err(WireError::Malformed)
        ));
        // Wrong L.
        let bytes = ReproSum::<f64, 3>::new().to_bytes();
        assert!(matches!(
            ReproSum::<f64, 2>::from_bytes(&bytes),
            Err(WireError::Malformed) // size differs -> malformed
        ));
        // Wrong scalar type, same size: f32 L4 vs f64 L... sizes differ by
        // construction; check the explicit type byte with matched sizes.
        let mut bytes = ReproSum::<f64, 2>::new().to_bytes();
        bytes[2] = 4; // claim f32
        assert!(matches!(
            ReproSum::<f64, 2>::from_bytes(&bytes),
            Err(WireError::TypeMismatch)
        ));
        // Out-of-range rung.
        let mut bytes = ReproSum::<f64, 2>::new().to_bytes();
        bytes[5] = 0xFF;
        assert!(matches!(
            ReproSum::<f64, 2>::from_bytes(&bytes),
            Err(WireError::OutOfRange)
        ));
    }

    /// A state frame of `ReproSum<f64, 2>` with the given fields.
    fn frame(top: u32, sums: [f64; 2], carries: [i64; 2]) -> Vec<u8> {
        let mut bytes = ReproSum::<f64, 2>::new().to_bytes();
        bytes[5..8].copy_from_slice(&top.to_le_bytes()[..3]);
        for l in 0..2 {
            let off = 8 + l * 16;
            bytes[off..off + 8].copy_from_slice(&sums[l].to_bits().to_le_bytes());
            bytes[off + 8..off + 16].copy_from_slice(&carries[l].to_le_bytes());
        }
        bytes
    }

    /// The rung is an index into the format's tables: the last rung
    /// decodes, the first past it does not, in either format.
    #[test]
    fn rejects_a_rung_past_the_ladder() {
        fn check<T: ReproFloat>() {
            for (top, ok) in [
                (T::NUM_BINS - 1, true),
                (T::NUM_BINS, false),
                (1 << 23, false),
            ] {
                let mut bytes = ReproSum::<T, 3>::new().to_bytes();
                bytes[5..8].copy_from_slice(&(top as u32).to_le_bytes()[..3]);
                let got = ReproSum::<T, 3>::from_bytes(&bytes);
                assert_eq!(got.is_ok(), ok, "rung {top}: {got:?}");
            }
        }
        check::<f64>();
        check::<f32>();
    }

    /// Frames no sequence of deposits produces: each once decoded `Ok`
    /// and then broke a later merge or rounding.
    #[test]
    fn rejects_states_no_deposits_produce() {
        let bottom = (f64::NUM_BINS - 1) as u32;
        for (what, bytes) in [
            // 1.0 is not a multiple of rung 20's ulp, 2^166.
            ("a level sum off its grid", frame(20, [1.0, 0.0], [0, 0])),
            // Merged with itself, the counter overflowed.
            ("a carry of i64::MAX", frame(20, [0.0, 0.0], [i64::MAX, 0])),
            // Propagating it into the bottom rung's carry overflowed.
            (
                "a sum far past its carry unit",
                frame(bottom, [1e300, 0.0], [0, 0]),
            ),
            ("a negative zero sum", frame(20, [-0.0, 0.0], [0, 0])),
            (
                "a sum in a level below the ladder",
                frame(bottom, [0.0, 5e-324], [0, 0]),
            ),
            (
                "a carry in a level below the ladder",
                frame(bottom, [0.0, 0.0], [0, 1]),
            ),
        ] {
            assert_eq!(
                ReproSum::<f64, 2>::from_bytes(&bytes).unwrap_err(),
                WireError::OutOfRange,
                "{what}"
            );
        }
        // The limits themselves decode, and merge without overflow.
        let max = ReproSum::<f64, 2>::MAX_CARRY;
        let unit = f64::carry_unit(20);
        let half = [unit / 2.0, -f64::carry_unit(21) / 2.0];
        let mut acc = ReproSum::<f64, 2>::from_bytes(&frame(20, half, [max, -max])).unwrap();
        acc.merge(&acc.clone());
        assert_eq!(acc.canonical_state().2, [2 * max + 1, -2 * max - 1]);
        assert!(acc.value().is_finite());
        for past in [
            frame(20, [0.0, 0.0], [max + 1, 0]),
            frame(20, [0.0, 0.0], [0, -max - 1]),
            frame(
                20,
                [unit / 2.0 + f64::exp2i(f64::bin_exp(20) - 52), 0.0],
                [0, 0],
            ),
        ] {
            assert!(ReproSum::<f64, 2>::from_bytes(&past).is_err());
        }
    }
}
