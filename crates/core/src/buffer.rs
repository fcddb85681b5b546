//! Summation buffers (paper §V-A, Figure 5).
//!
//! The scalar `repro` deposit costs ~an order of magnitude more than a
//! plain `+=`, which is what makes naïve reproducible GROUPBY slow
//! (Figure 4). The paper's remedy: store a *buffer* of raw input values
//! next to each group's accumulator and delay their aggregation until the
//! buffer fills, at which point the whole buffer is summed with the
//! vectorized kernel ([`crate::simd::add_slice`]) whose per-element cost
//! approaches a memory-bound copy.
//!
//! The buffer size trades amortization against cache footprint; see
//! [`crate::tuning`] for the paper's model (Eq. 4).
//!
//! This module provides the standalone [`SummationBuffer`] value type
//! (one accumulator + one buffer). Aggregation operators with thousands of
//! groups use the arena-based layout in `rfa-agg` instead, which stores all
//! buffers contiguously — same algorithm, denser memory.

use crate::float::ReproFloat;
use crate::repro::ReproSum;
use crate::simd;

/// A reproducible accumulator with a value buffer in front (the
/// intermediate-aggregate layout of Figure 5).
///
/// `push` is a single store + counter update in the common case; every
/// `capacity` pushes the buffer is flushed through the vectorized summation
/// kernel. Results are bit-identical to unbuffered accumulation.
///
/// ```
/// use rfa_core::{ReproSum, SummationBuffer};
/// let values: Vec<f64> = (0..10_000).map(|i| (i as f64) * 0.1 - 3.0).collect();
/// let mut buffered = SummationBuffer::<f64, 2>::new(256);
/// let mut plain = ReproSum::<f64, 2>::new();
/// for &v in &values {
///     buffered.push(v);
///     plain.add(v);
/// }
/// assert_eq!(buffered.finalize().to_bits(), plain.finalize().to_bits());
/// ```
#[derive(Clone, Debug)]
pub struct SummationBuffer<T: ReproFloat, const L: usize> {
    acc: ReproSum<T, L>,
    buf: Box<[T]>,
    /// Offset of the next free slot (the paper's `next`).
    len: u32,
}

impl<T: ReproFloat, const L: usize> SummationBuffer<T, L> {
    /// Creates a buffer of `capacity` values (`bsz` in the paper).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0 && capacity <= u32::MAX as usize);
        SummationBuffer {
            acc: ReproSum::new(),
            buf: vec![T::ZERO; capacity].into_boxed_slice(),
            len: 0,
        }
    }

    /// Buffer capacity (`bsz`).
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// Appends a value, flushing through the vectorized kernel when full.
    #[inline]
    pub fn push(&mut self, v: T) {
        self.buf[self.len as usize] = v;
        self.len += 1;
        if self.len as usize == self.buf.len() {
            self.flush();
        }
    }

    /// Appends a whole batch. Bit-identical to pushing the values one by
    /// one (every flush boundary is exact — §III-D), but whole buffers'
    /// worth of input bypass the staging copy and go straight through the
    /// vectorized block kernel; only the partial tail is buffered.
    pub fn push_slice(&mut self, values: &[T]) {
        let cap = self.buf.len();
        let mut v = values;
        let len = self.len as usize;
        if len > 0 {
            // Top the current fill up to a flush boundary first.
            let take = v.len().min(cap - len);
            self.buf[len..len + take].copy_from_slice(&v[..take]);
            self.len += take as u32;
            v = &v[take..];
            if self.len as usize == cap {
                self.flush();
            }
            if v.is_empty() {
                return;
            }
        }
        // Buffer is now empty: bulk-sum everything except a partial
        // buffer's worth of tail, which stays staged for later pushes.
        let tail_len = v.len() % cap;
        let (bulk, tail) = v.split_at(v.len() - tail_len);
        if !bulk.is_empty() {
            simd::add_slice(&mut self.acc, bulk);
        }
        self.buf[..tail_len].copy_from_slice(tail);
        self.len = tail_len as u32;
    }

    /// Aggregates all buffered values into the accumulator.
    pub fn flush(&mut self) {
        let len = core::mem::take(&mut self.len) as usize;
        // Split borrows: the buffer and accumulator are separate fields.
        let (acc, buf) = (&mut self.acc, &self.buf[..len]);
        simd::add_slice(acc, buf);
    }

    /// Merges another buffered accumulator (flushes both sides; exact and
    /// associative like [`ReproSum::merge`]).
    pub fn merge(&mut self, other: &mut Self) {
        self.flush();
        other.flush();
        self.acc.merge(&other.acc);
    }

    /// Flushes and returns a reference to the inner accumulator.
    pub fn accumulator(&mut self) -> &ReproSum<T, L> {
        self.flush();
        &self.acc
    }

    /// Flushes and rounds to the scalar type.
    pub fn finalize(mut self) -> T {
        self.flush();
        self.acc.finalize()
    }

    /// Flushes and rounds without consuming.
    pub fn value(&mut self) -> T {
        self.flush();
        self.acc.value()
    }
}

impl<T: ReproFloat, const L: usize> core::ops::AddAssign<T> for SummationBuffer<T, L> {
    #[inline]
    fn add_assign(&mut self, rhs: T) {
        self.push(rhs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| ((i as u64).wrapping_mul(0xA24B_AED4_963E_E407) >> 11) as f64 / 4e15 - 1.0)
            .collect()
    }

    #[test]
    fn buffered_matches_unbuffered_for_all_sizes() {
        let values = data(10_000);
        let mut reference = ReproSum::<f64, 2>::new();
        reference.add_all(&values);
        for bsz in [1, 2, 16, 64, 255, 256, 1024] {
            let mut buf = SummationBuffer::<f64, 2>::new(bsz);
            for &v in &values {
                buf.push(v);
            }
            assert_eq!(
                buf.finalize().to_bits(),
                reference.value().to_bits(),
                "bsz {bsz}"
            );
        }
    }

    #[test]
    fn push_slice_matches_per_value_pushes() {
        let values = data(10_000);
        let mut reference = SummationBuffer::<f64, 2>::new(256);
        for &v in &values {
            reference.push(v);
        }
        let expected = reference.finalize().to_bits();
        for bsz in [1usize, 3, 64, 256] {
            for chunk in [1usize, 5, 63, 64, 65, 1000, 4096] {
                let mut buf = SummationBuffer::<f64, 2>::new(bsz);
                for c in values.chunks(chunk) {
                    buf.push_slice(c);
                }
                assert_eq!(
                    buf.finalize().to_bits(),
                    expected,
                    "bsz {bsz} chunk {chunk}"
                );
            }
        }
    }

    #[test]
    fn merge_matches_sequential() {
        let values = data(5000);
        let mut a = SummationBuffer::<f64, 3>::new(128);
        let mut b = SummationBuffer::<f64, 3>::new(64);
        for &v in &values[..2500] {
            a.push(v);
        }
        for &v in &values[2500..] {
            b.push(v);
        }
        a.merge(&mut b);
        let mut whole = SummationBuffer::<f64, 3>::new(256);
        for &v in &values {
            whole.push(v);
        }
        assert_eq!(a.finalize().to_bits(), whole.finalize().to_bits());
    }

    #[test]
    fn partial_flush_is_idempotent() {
        let mut buf = SummationBuffer::<f32, 2>::new(100);
        buf.push(1.5);
        buf.push(-0.25);
        assert_eq!(buf.value(), 1.25);
        assert_eq!(buf.value(), 1.25); // flushed twice: no double counting
        buf.push(2.0);
        assert_eq!(buf.finalize(), 3.25);
    }

    #[test]
    fn specials_pass_through() {
        let mut buf = SummationBuffer::<f64, 2>::new(8);
        buf.push(1.0);
        buf.push(f64::NAN);
        assert!(buf.finalize().is_nan());
    }
}
