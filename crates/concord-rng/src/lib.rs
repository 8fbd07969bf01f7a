//! First-party deterministic PRNG for the workspace.
//!
//! The simulator, workload generators, and RTT models need seeded,
//! reproducible randomness: the same seed must yield the same arrival
//! sequence on every platform and build so that experiment results and
//! regression seeds stay replayable. Rather than depend on an external
//! crate for ~200 lines of arithmetic, the generator lives here.
//!
//! The API deliberately keeps the shape of `rand` 0.8's ([`Rng`],
//! [`SeedableRng`], [`SmallRng`]) so the call sites read idiomatically,
//! and the algorithms match what `rand` 0.8 ships — xoshiro256++ for
//! [`SmallRng`] on 64-bit targets, the rand_core 0.6 PCG32 expansion for
//! [`SeedableRng::seed_from_u64`], 53-bit multiply for `gen::<f64>()`,
//! and widening-multiply rejection for `gen_range` — so seeded streams
//! recorded in `results/` stay bit-stable if the workspace ever moves to
//! the real crate.
//!
//! This is NOT a cryptographic generator and must never gate anything
//! security-relevant; it exists for simulation and test-case generation
//! only.

use std::ops::{Range, RangeInclusive};

/// Low-level generator interface: raw 32/64-bit draws.
pub trait RngCore {
    fn next_u32(&mut self) -> u32;
    fn next_u64(&mut self) -> u64;
    fn fill_bytes(&mut self, dest: &mut [u8]);
}

/// Construction from seeds, with the rand_core 0.6 `seed_from_u64`
/// expansion (PCG32 over the 64-bit state) reproduced exactly.
pub trait SeedableRng: Sized {
    type Seed: Sized + Default + AsMut<[u8]>;

    fn from_seed(seed: Self::Seed) -> Self;

    fn seed_from_u64(mut state: u64) -> Self {
        fn pcg32(state: &mut u64) -> [u8; 4] {
            const MUL: u64 = 6364136223846793005;
            const INC: u64 = 11634580027462260723;
            *state = state.wrapping_mul(MUL).wrapping_add(INC);
            let s = *state;
            let xorshifted = (((s >> 18) ^ s) >> 27) as u32;
            let rot = (s >> 59) as u32;
            xorshifted.rotate_right(rot).to_le_bytes()
        }
        let mut seed = Self::Seed::default();
        for chunk in seed.as_mut().chunks_mut(4) {
            let x = pcg32(&mut state);
            chunk.copy_from_slice(&x[..chunk.len()]);
        }
        Self::from_seed(seed)
    }
}

/// Types drawable from the "standard" distribution: uniform over the
/// full domain for integers, uniform in `[0, 1)` for floats.
pub trait StandardSample: Sized {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl StandardSample for f64 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 high bits scaled into [0, 1), as rand 0.8's Standard.
        let value = rng.next_u64() >> 11;
        value as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl StandardSample for f32 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        let value = rng.next_u32() >> 8;
        value as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

macro_rules! std_int {
    ($($t:ty, $m:ident);*) => {$(
        impl StandardSample for $t {
            fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.$m() as $t
            }
        }
    )*};
}
std_int!(u8, next_u32; u16, next_u32; u32, next_u32; u64, next_u64; usize, next_u64;
         i8, next_u32; i16, next_u32; i32, next_u32; i64, next_u64; isize, next_u64);

impl StandardSample for bool {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32() & 1 == 1
    }
}

/// Integer types usable with `gen_range` (widening-multiply with zone
/// rejection, i.e. unbiased — rand 0.8's `sample_single` method).
pub trait UniformInt: Copy + PartialOrd {
    fn sample_below<R: RngCore + ?Sized>(rng: &mut R, low: Self, range_u64: u64) -> Self;
    fn delta(low: Self, high: Self) -> u64;
}

macro_rules! uniform_int {
    ($($t:ty),*) => {$(
        impl UniformInt for $t {
            fn delta(low: Self, high: Self) -> u64 {
                (high as i128 - low as i128) as u64
            }
            fn sample_below<R: RngCore + ?Sized>(rng: &mut R, low: Self, range: u64) -> Self {
                if range == 0 {
                    // `range` wrapped: the span covers the full u64 domain.
                    return rng.next_u64() as $t;
                }
                let zone = (range << range.leading_zeros()).wrapping_sub(1);
                loop {
                    let v = rng.next_u64();
                    let m = (v as u128) * (range as u128);
                    let (hi, lo) = ((m >> 64) as u64, m as u64);
                    if lo <= zone {
                        return ((low as i128) + (hi as i128)) as $t;
                    }
                }
            }
        }
    )*};
}
uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Ranges acceptable to [`Rng::gen_range`].
pub trait SampleRange<T> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: UniformInt> SampleRange<T> for Range<T> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        assert!(self.start < self.end, "empty range in gen_range");
        T::sample_below(rng, self.start, T::delta(self.start, self.end))
    }
}

impl<T: UniformInt> SampleRange<T> for RangeInclusive<T> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (lo, hi) = self.into_inner();
        assert!(lo <= hi, "empty range in gen_range");
        T::sample_below(rng, lo, T::delta(lo, hi).wrapping_add(1))
    }
}

impl SampleRange<f64> for Range<f64> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        self.start + (self.end - self.start) * f64::sample_standard(rng)
    }
}

/// High-level typed draws, blanket-implemented for every [`RngCore`].
pub trait Rng: RngCore {
    fn gen<T: StandardSample>(&mut self) -> T {
        T::sample_standard(self)
    }

    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_from(self)
    }

    fn gen_bool(&mut self, p: f64) -> bool {
        f64::sample_standard(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

pub mod rngs {
    //! Concrete generators.

    use super::{RngCore, SeedableRng};

    /// Xoshiro256++ (Blackman & Vigna) — the same algorithm `rand` 0.8
    /// uses for its `SmallRng` on 64-bit targets. Fast, 256-bit state,
    /// passes BigCrush; not cryptographic.
    #[derive(Clone, Debug)]
    pub struct SmallRng {
        s: [u64; 4],
    }

    impl RngCore for SmallRng {
        fn next_u32(&mut self) -> u32 {
            self.next_u64() as u32
        }

        fn next_u64(&mut self) -> u64 {
            let result = self.s[0]
                .wrapping_add(self.s[3])
                .rotate_left(23)
                .wrapping_add(self.s[0]);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }

        fn fill_bytes(&mut self, dest: &mut [u8]) {
            for chunk in dest.chunks_mut(8) {
                let x = self.next_u64().to_le_bytes();
                chunk.copy_from_slice(&x[..chunk.len()]);
            }
        }
    }

    impl SeedableRng for SmallRng {
        type Seed = [u8; 32];

        fn from_seed(seed: Self::Seed) -> Self {
            let mut s = [0u64; 4];
            for (i, w) in s.iter_mut().enumerate() {
                let mut b = [0u8; 8];
                b.copy_from_slice(&seed[i * 8..(i + 1) * 8]);
                *w = u64::from_le_bytes(b);
            }
            if s == [0, 0, 0, 0] {
                // Xoshiro must never be seeded all-zero (it would stay zero).
                s = [
                    0x9e3779b97f4a7c15,
                    0xbf58476d1ce4e5b9,
                    0x94d049bb133111eb,
                    0xfe5a0ce45cadf9d7,
                ];
            }
            Self { s }
        }
    }
}

pub use rngs::SmallRng;

pub mod prelude {
    pub use crate::rngs::SmallRng;
    pub use crate::{Rng, RngCore, SeedableRng};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SmallRng::seed_from_u64(42);
        let mut b = SmallRng::seed_from_u64(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SmallRng::seed_from_u64(1);
        let mut b = SmallRng::seed_from_u64(2);
        let av: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let bv: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(av, bv);
    }

    #[test]
    fn xoshiro_reference_vector() {
        // Reference output of xoshiro256++ from the canonical C source
        // (https://prng.di.unimi.it/xoshiro256plusplus.c) seeded with the
        // raw state [1, 2, 3, 4] — pins the algorithm, not just determinism.
        let mut seed = [0u8; 32];
        seed[0] = 1;
        seed[8] = 2;
        seed[16] = 3;
        seed[24] = 4;
        let mut rng = SmallRng::from_seed(seed);
        let expected: [u64; 6] = [
            41943041,
            58720359,
            3588806011781223,
            3591011842654386,
            9228616714210784205,
            9973669472204895162,
        ];
        for (i, &want) in expected.iter().enumerate() {
            assert_eq!(rng.next_u64(), want, "draw {i}");
        }
    }

    #[test]
    fn zero_seed_is_escaped() {
        let mut rng = SmallRng::from_seed([0u8; 32]);
        assert_ne!(rng.next_u64(), 0, "all-zero xoshiro state must be remapped");
    }

    #[test]
    fn gen_range_stays_in_bounds() {
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let v = rng.gen_range(10u64..20);
            assert!((10..20).contains(&v));
            let w = rng.gen_range(-5i32..=5);
            assert!((-5..=5).contains(&w));
            let f = rng.gen_range(0.25f64..0.75);
            assert!((0.25..0.75).contains(&f));
        }
        assert_eq!(
            rng.gen_range(9usize..=9),
            9,
            "degenerate range is the point"
        );
    }

    #[test]
    fn unit_float_in_half_open_interval() {
        let mut rng = SmallRng::seed_from_u64(11);
        for _ in 0..10_000 {
            let f: f64 = rng.gen();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn gen_range_is_roughly_uniform() {
        let mut rng = SmallRng::seed_from_u64(13);
        let mut buckets = [0u32; 10];
        let n = 100_000;
        for _ in 0..n {
            buckets[rng.gen_range(0usize..10)] += 1;
        }
        for (i, &b) in buckets.iter().enumerate() {
            let expect = n / 10;
            assert!(
                (b as i64 - expect as i64).unsigned_abs() < expect as u64 / 10,
                "bucket {i} far from uniform: {b} vs {expect}"
            );
        }
    }

    #[test]
    fn fill_bytes_matches_next_u64_stream() {
        let mut a = SmallRng::seed_from_u64(5);
        let mut b = SmallRng::seed_from_u64(5);
        let mut buf = [0u8; 24];
        a.fill_bytes(&mut buf);
        for chunk in buf.chunks(8) {
            assert_eq!(chunk, &b.next_u64().to_le_bytes());
        }
    }
}
