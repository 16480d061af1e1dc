//! Deterministic pseudo-random numbers for generators and preprocessing.
//!
//! xoshiro256++ seeded through SplitMix64 — the same construction the
//! reference Graph500 generators use for reproducible inputs. Implemented
//! in-repo so the whole workspace builds with zero external dependencies
//! (the experiment environment is fully offline); every generator taking a
//! `seed: u64` routes through this.

/// A small, fast, deterministic PRNG (xoshiro256++).
#[derive(Clone, Debug)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Seed the full 256-bit state from one u64 via SplitMix64, as
    /// recommended by the xoshiro authors (avoids correlated lanes for
    /// nearby seeds).
    pub fn seed_from_u64(seed: u64) -> Rng {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        Rng {
            s: [next(), next(), next(), next()],
        }
    }

    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let out = self.s[0]
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
        out
    }

    /// Uniform in [0, 1) with 53 bits of precision.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in [0, n). Lemire's multiply-shift; the small modulo bias of
    /// the rejection-free variant is irrelevant for test inputs.
    #[inline]
    pub fn below_u64(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    #[inline]
    pub fn below_u32(&mut self, n: u32) -> u32 {
        self.below_u64(n as u64) as u32
    }

    #[inline]
    pub fn below_usize(&mut self, n: usize) -> usize {
        self.below_u64(n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below_usize(i + 1);
            xs.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = Rng::seed_from_u64(7);
        let mut b = Rng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Rng::seed_from_u64(8);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Rng::seed_from_u64(1);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let x = r.f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean} far from 0.5");
    }

    #[test]
    fn below_covers_range_uniformly() {
        let mut r = Rng::seed_from_u64(3);
        let mut counts = [0u32; 8];
        for _ in 0..8000 {
            counts[r.below_usize(8)] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!((700..1300).contains(&c), "bucket {i} count {c}");
        }
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = Rng::seed_from_u64(5);
        let mut v: Vec<u32> = (0..100).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<u32>>());
        assert_ne!(v, sorted, "astronomically unlikely identity shuffle");
    }
}
