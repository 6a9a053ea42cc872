//! Offline shim for the subset of the `rand` 0.8 API this workspace uses.
//!
//! The container building this repository has no access to crates.io, so the
//! workload generators depend on this path crate instead of the real `rand`.
//! It implements `StdRng::seed_from_u64`, `Rng::{gen_range, gen_bool, gen}`
//! and `SliceRandom::shuffle` over a SplitMix64 generator. The streams are
//! deterministic per seed (which is all the seeded generators need) but do
//! **not** reproduce the byte streams of the real crate.

#![forbid(unsafe_code)]

use std::ops::Range;

/// Low-level source of randomness.
pub trait RngCore {
    /// Returns the next 64 uniformly distributed bits.
    fn next_u64(&mut self) -> u64;

    /// Returns the next 32 uniformly distributed bits.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

/// Seedable generators (only the `seed_from_u64` entry point is provided).
pub trait SeedableRng: Sized {
    /// Creates a generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types that can be sampled uniformly from a `Range`.
pub trait SampleUniform: PartialOrd + Copy {
    /// Samples uniformly from `[low, high)`.
    fn sample_range<R: RngCore + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self;
}

macro_rules! impl_sample_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_range<R: RngCore + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self {
                assert!(low < high, "gen_range called with an empty range");
                let span = (high as i128 - low as i128) as u128;
                let v = (rng.next_u64() as u128) % span;
                (low as i128 + v as i128) as $t
            }
        }
    )*};
}

impl_sample_int!(i8, i16, i32, i64, isize, u8, u16, u32, u64, usize);

impl SampleUniform for f64 {
    fn sample_range<R: RngCore + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self {
        assert!(low < high, "gen_range called with an empty range");
        let unit = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        low + unit * (high - low)
    }
}

impl SampleUniform for f32 {
    fn sample_range<R: RngCore + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self {
        f64::sample_range(rng, low as f64, high as f64) as f32
    }
}

/// High-level sampling helpers, blanket-implemented for every [`RngCore`].
pub trait Rng: RngCore {
    /// Samples uniformly from a half-open range.
    fn gen_range<T: SampleUniform>(&mut self, range: Range<T>) -> T {
        T::sample_range(self, range.start, range.end)
    }

    /// Returns `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool called with p outside [0, 1]");
        ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64) < p
    }

    /// Returns a uniformly distributed value of the output type.
    fn gen<T: Generable>(&mut self) -> T {
        T::generate(self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Types producible by [`Rng::gen`].
pub trait Generable {
    /// Draws one value from the generator.
    fn generate<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Generable for u64 {
    fn generate<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Generable for u32 {
    fn generate<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32()
    }
}

impl Generable for f64 {
    fn generate<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

impl Generable for bool {
    fn generate<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// Concrete generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// SplitMix64: tiny, fast, and statistically fine for synthetic workloads.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        state: u64,
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            StdRng { state: seed }
        }
    }
}

/// Slice helpers (`shuffle`, `choose`).
pub mod seq {
    use super::{Rng, RngCore};

    /// The subset of `rand::seq::SliceRandom` this workspace uses.
    pub trait SliceRandom {
        /// The element type.
        type Item;

        /// Fisher–Yates shuffle in place.
        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R);

        /// Uniformly chooses one element, or `None` if the slice is empty.
        fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = rng.gen_range(0..i + 1);
                self.swap(i, j);
            }
        }

        fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                Some(&self[rng.gen_range(0..self.len())])
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::seq::SliceRandom;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.gen_range(0..1000usize), b.gen_range(0..1000usize));
        }
    }

    #[test]
    fn ranges_are_respected() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let v = rng.gen_range(10..20);
            assert!((10..20).contains(&v));
            let f = rng.gen_range(1.0..2.0);
            assert!((1.0..2.0).contains(&f));
        }
    }

    #[test]
    fn gen_bool_extremes() {
        let mut rng = StdRng::seed_from_u64(7);
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
    }

    #[test]
    fn shuffle_permutes() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut v: Vec<usize> = (0..50).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert!(v.as_slice().choose(&mut rng).is_some());
        assert!(Vec::<usize>::new().as_slice().choose(&mut rng).is_none());
    }
}
