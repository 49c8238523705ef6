//! Minimal, API-compatible shim for the subset of the `rand` crate this
//! workspace uses: the [`RngCore`] / [`SeedableRng`] plumbing traits and the
//! [`Rng`] extension trait (`gen`, `gen_range`, `gen_bool`).
//!
//! The workspace's own generator (`dcm_sim::rng`) implements these traits;
//! this shim exists so the repository builds fully offline with no registry
//! access. Uniform sampling here uses Lemire-style widening multiplication,
//! which is unbiased enough for simulation use and — critically — fully
//! deterministic and pinned in-tree.

use std::fmt;
use std::ops::{Range, RangeInclusive};

/// Error type mirroring `rand::Error` (never produced by in-tree RNGs).
#[derive(Debug)]
pub struct Error;

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("rng error")
    }
}

impl std::error::Error for Error {}

/// Core random-number generation trait (mirrors `rand::RngCore`).
pub trait RngCore {
    /// Next 32 random bits.
    fn next_u32(&mut self) -> u32;
    /// Next 64 random bits.
    fn next_u64(&mut self) -> u64;
    /// Fills `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]);
    /// Fallible fill (infallible for all in-tree generators).
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), Error>;
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        (**self).fill_bytes(dest)
    }
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), Error> {
        (**self).try_fill_bytes(dest)
    }
}

/// Seedable construction (mirrors `rand::SeedableRng`).
pub trait SeedableRng: Sized {
    /// The seed byte-array type.
    type Seed;
    /// Builds a generator from a full seed.
    fn from_seed(seed: Self::Seed) -> Self;
    /// Builds a generator from a `u64` convenience seed.
    fn seed_from_u64(state: u64) -> Self;
}

/// Types producible by [`Rng::gen`] (stand-in for the `Standard`
/// distribution).
pub trait Standard: Sized {
    /// Draws one value.
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

macro_rules! impl_standard_int {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}

impl_standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Standard for u128 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (u128::from(rng.next_u64()) << 64) | u128::from(rng.next_u64())
    }
}

impl Standard for bool {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for f64 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

/// Ranges usable with [`Rng::gen_range`] (stand-in for `SampleRange`).
pub trait SampleRange<T> {
    /// Draws a value uniformly from the range.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! impl_sample_range_uint {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty range in gen_range");
                let span = (self.end - self.start) as u64;
                let draw = ((u128::from(rng.next_u64()) * u128::from(span)) >> 64) as u64;
                self.start + draw as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range in gen_range");
                let span = (hi - lo) as u64;
                if span == u64::MAX {
                    return lo + rng.next_u64() as $t;
                }
                let draw = ((u128::from(rng.next_u64()) * (u128::from(span) + 1)) >> 64) as u64;
                lo + draw as $t
            }
        }
    )*};
}

impl_sample_range_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_sample_range_sint {
    ($($t:ty => $u:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty range in gen_range");
                let span = (self.end as $u).wrapping_sub(self.start as $u) as u64;
                let draw = ((u128::from(rng.next_u64()) * u128::from(span)) >> 64) as u64;
                (self.start as $u).wrapping_add(draw as $u) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range in gen_range");
                let span = (hi as $u).wrapping_sub(lo as $u) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                let draw = ((u128::from(rng.next_u64()) * (u128::from(span) + 1)) >> 64) as u64;
                (lo as $u).wrapping_add(draw as $u) as $t
            }
        }
    )*};
}

impl_sample_range_sint!(i8 => u8, i16 => u16, i32 => u32, i64 => u64, isize => usize);

macro_rules! impl_sample_range_float {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty range in gen_range");
                let unit = <$t as Standard>::sample_standard(rng);
                self.start + unit * (self.end - self.start)
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range in gen_range");
                let unit = <$t as Standard>::sample_standard(rng);
                lo + unit * (hi - lo)
            }
        }
    )*};
}

impl_sample_range_float!(f32, f64);

/// User-facing convenience methods (mirrors `rand::Rng`).
pub trait Rng: RngCore {
    /// Draws a value of type `T` from its standard distribution.
    fn gen<T: Standard>(&mut self) -> T {
        T::sample_standard(self)
    }

    /// Draws uniformly from `range`.
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_from(self)
    }

    /// Returns `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "p={p} out of [0,1]");
        <f64 as Standard>::sample_standard(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Prelude mirroring `rand::prelude`.
pub mod prelude {
    pub use crate::{Rng, RngCore, SeedableRng};
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Counter(u64);

    impl RngCore for Counter {
        fn next_u32(&mut self) -> u32 {
            (self.next_u64() >> 32) as u32
        }
        fn next_u64(&mut self) -> u64 {
            // SplitMix64 so draws look uniform.
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
        fn fill_bytes(&mut self, dest: &mut [u8]) {
            for chunk in dest.chunks_mut(8) {
                let bytes = self.next_u64().to_le_bytes();
                chunk.copy_from_slice(&bytes[..chunk.len()]);
            }
        }
        fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), Error> {
            self.fill_bytes(dest);
            Ok(())
        }
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = Counter(7);
        for _ in 0..10_000 {
            let a: usize = rng.gen_range(0..13);
            assert!(a < 13);
            let b: u32 = rng.gen_range(1..=6);
            assert!((1..=6).contains(&b));
            let c: f64 = rng.gen_range(-2.5..7.5);
            assert!((-2.5..7.5).contains(&c));
            let d: i64 = rng.gen_range(-10..10);
            assert!((-10..10).contains(&d));
        }
    }

    #[test]
    fn gen_bool_extremes() {
        let mut rng = Counter(3);
        assert!(!rng.gen_bool(0.0));
        assert!((0..64).any(|_| rng.gen_bool(0.5)));
    }

    #[test]
    fn standard_draws_cover_types() {
        let mut rng = Counter(1);
        let _: u64 = rng.gen();
        let x: f64 = rng.gen();
        assert!((0.0..1.0).contains(&x));
        let _: bool = rng.gen();
    }
}
