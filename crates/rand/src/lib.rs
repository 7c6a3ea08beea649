//! Offline API-compatible stand-in for the [`rand`] crate.
//!
//! The build environment for this repository has no access to crates.io,
//! so this vendored crate provides the (small) subset of the `rand 0.8`
//! API the workspace actually uses — [`rngs::StdRng`], [`SeedableRng`],
//! and the [`Rng`] extension methods `gen`, `gen_range` and `gen_bool` —
//! with **zero** external dependencies.
//!
//! The generator is a [SplitMix64](https://prng.di.unimi.it/splitmix64.c)
//! stream: fully deterministic under a seed, statistically strong enough
//! for workload generation and tests, and *not* a cryptographic RNG. The
//! output stream differs from the real `rand::rngs::StdRng` (ChaCha12),
//! so seeds produce different — but equally deterministic — workloads.
//!
//! See `DESIGN.md` § dependencies and `crates/proptest` for the sibling
//! stand-in.
//!
//! [`rand`]: https://docs.rs/rand/0.8

/// Random number generators (stand-in for `rand::rngs`).
pub mod rngs {
    /// A seeded deterministic generator (SplitMix64 stream).
    ///
    /// Stand-in for `rand::rngs::StdRng`; construct it with
    /// [`SeedableRng::seed_from_u64`](crate::SeedableRng::seed_from_u64).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        pub(crate) state: u64,
    }
}

use rngs::StdRng;

/// Seedable construction (stand-in for `rand::SeedableRng`).
pub trait SeedableRng: Sized {
    /// Creates a generator whose entire output stream is a deterministic
    /// function of `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

impl SeedableRng for StdRng {
    fn seed_from_u64(seed: u64) -> StdRng {
        // Pre-scramble so that small seeds (0, 1, 2, …) do not produce
        // correlated first draws.
        let mut rng = StdRng { state: seed };
        let _ = rng.next_u64();
        rng
    }
}

impl StdRng {
    /// The raw 64-bit SplitMix64 step.
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// A type samplable from the uniform "standard" distribution via
/// [`Rng::gen`].
pub trait Standard: Sized {
    /// Draws one value.
    fn sample(draw: &mut dyn FnMut() -> u64) -> Self;
}

impl Standard for f64 {
    fn sample(draw: &mut dyn FnMut() -> u64) -> f64 {
        // 53 uniform mantissa bits in [0, 1).
        (draw() >> 11) as f64 * (1.0 / ((1u64 << 53) as f64))
    }
}

impl Standard for bool {
    fn sample(draw: &mut dyn FnMut() -> u64) -> bool {
        draw() & 1 == 1
    }
}

impl Standard for u64 {
    fn sample(draw: &mut dyn FnMut() -> u64) -> u64 {
        draw()
    }
}

/// An integer type [`Rng::gen_range`] can sample uniformly (stand-in for
/// `rand::distributions::uniform::SampleUniform`).
pub trait SampleUniform: Copy {
    /// Widens to `i128` (lossless for all supported integer types).
    fn to_i128(self) -> i128;
    /// Narrows back from `i128` (the caller guarantees the value fits).
    fn from_i128(v: i128) -> Self;
}

macro_rules! impl_sample_uniform {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn to_i128(self) -> i128 { self as i128 }
            fn from_i128(v: i128) -> $t { v as $t }
        }
    )*};
}

impl_sample_uniform!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// A range usable with [`Rng::gen_range`], sampling values of type `T`.
///
/// A single blanket impl per range shape (mirroring the real crate) so
/// that type inference can flow from the call site's expected type back
/// into the range literal, e.g. `let n: usize = 1 + rng.gen_range(0..2);`.
pub trait SampleRange<T> {
    /// Draws one value uniformly from the range.
    fn sample(self, draw: &mut dyn FnMut() -> u64) -> T;
}

impl<T: SampleUniform> SampleRange<T> for core::ops::Range<T> {
    fn sample(self, draw: &mut dyn FnMut() -> u64) -> T {
        let (lo, hi) = (self.start.to_i128(), self.end.to_i128());
        assert!(lo < hi, "gen_range over an empty range");
        let offset = (u128::from(draw()) % (hi - lo) as u128) as i128;
        T::from_i128(lo + offset)
    }
}

impl<T: SampleUniform> SampleRange<T> for core::ops::RangeInclusive<T> {
    fn sample(self, draw: &mut dyn FnMut() -> u64) -> T {
        let (lo, hi) = (self.start().to_i128(), self.end().to_i128());
        assert!(lo <= hi, "gen_range over an empty range");
        let offset = (u128::from(draw()) % ((hi - lo) as u128 + 1)) as i128;
        T::from_i128(lo + offset)
    }
}

/// The user-facing generator methods (stand-in for `rand::Rng`).
pub trait Rng {
    /// One raw 64-bit draw (the primitive all other methods build on).
    fn next_u64(&mut self) -> u64;

    /// Samples from the standard distribution of `T` (e.g. `f64` in
    /// `[0, 1)`).
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        let mut draw = || self.next_u64();
        T::sample(&mut draw)
    }

    /// Samples uniformly from an integer range (`a..b` or `a..=b`).
    fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T
    where
        Self: Sized,
    {
        let mut draw = || self.next_u64();
        range.sample(&mut draw)
    }

    /// `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        self.gen::<f64>() < p
    }
}

impl Rng for StdRng {
    fn next_u64(&mut self) -> u64 {
        StdRng::next_u64(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_under_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(8);
        assert_ne!(StdRng::seed_from_u64(7).next_u64(), c.next_u64());
    }

    #[test]
    fn gen_range_stays_in_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            let v = rng.gen_range(0..3);
            assert!((0..3).contains(&v));
            let w: i64 = rng.gen_range(-5i64..5);
            assert!((-5..5).contains(&w));
            let x = rng.gen_range(2u8..=2);
            assert_eq!(x, 2);
        }
    }

    #[test]
    fn f64_in_unit_interval_with_spread() {
        let mut rng = StdRng::seed_from_u64(42);
        let draws: Vec<f64> = (0..1000).map(|_| rng.gen::<f64>()).collect();
        assert!(draws.iter().all(|v| (0.0..1.0).contains(v)));
        let mean = draws.iter().sum::<f64>() / draws.len() as f64;
        assert!((mean - 0.5).abs() < 0.05, "mean {mean} far from 0.5");
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = StdRng::seed_from_u64(3);
        let hits = (0..2000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((400..600).contains(&hits), "got {hits} for p=0.25");
    }
}
