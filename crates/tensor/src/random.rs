//! The workspace's one random-number generator, and deterministic random
//! tensors drawn from it for tests and examples.

use crate::{Shape, Tensor};

/// The golden-ratio increment of the SplitMix64 state.
const GAMMA: u64 = 0x9e3779b97f4a7c15;

/// SplitMix64 (Steele, Lea and Flood, 2014): a 64-bit counter stepped by
/// the golden-ratio `GAMMA` and hashed through two multiply-xorshift
/// rounds. Every random stream in the workspace is drawn from it: random
/// tensors, seeded churn scripts, retry jitter and the randomised tests, so
/// each replays bit-identically from its seed.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A stream starting at the raw `state`; callers mix their seed into it
    /// as they see fit, and equal states yield equal streams.
    pub fn new(state: u64) -> SplitMix64 {
        SplitMix64 { state }
    }

    /// The next 64-bit word.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GAMMA);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    /// A value in `[0, n)`, as `next_u64() % n` (`n` must be positive).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// A value in `[lo, hi)` from the top 24 bits of the next word, so the
    /// fraction is exactly below 1; a draw that rounds up to `hi` returns
    /// `lo`.
    pub(crate) fn uniform(&mut self, lo: f32, hi: f32) -> f32 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        let u = (self.next_u64() >> 40) as f32 / (1u64 << 24) as f32;
        let v = lo + (hi - lo) * u;
        if v >= hi {
            lo
        } else {
            v
        }
    }
}

/// The global seed offset mixed into every [`Tensor::random`] call.
///
/// Reads the `TOFU_SEED` environment variable once (first use wins); unset or
/// unparsable values fall back to `0`, which leaves historical streams
/// untouched. Setting `TOFU_SEED=n` shifts every random tensor in the
/// process deterministically, so a concurrency test that only fails for some
/// data can be replayed bit-for-bit (`TOFU_SEED=7 cargo test ...`).
fn global_seed() -> u64 {
    use std::sync::OnceLock;
    static SEED: OnceLock<u64> = OnceLock::new();
    *SEED.get_or_init(|| {
        std::env::var("TOFU_SEED").ok().and_then(|s| s.trim().parse().ok()).unwrap_or(0)
    })
}

impl Tensor {
    /// Creates a tensor with elements drawn uniformly from `[-scale, scale)`
    /// using a fixed seed, so validation runs are reproducible.
    ///
    /// The effective stream mixes `seed` with `TOFU_SEED`, read once per
    /// process: with the environment variable unset the historical streams
    /// are unchanged, and with it set the whole process shifts to a new
    /// deterministic draw.
    pub fn random(shape: Shape, seed: u64, scale: f32) -> Tensor {
        let mut rng = SplitMix64::new((seed ^ global_seed().rotate_left(17)).wrapping_add(GAMMA));
        let data = (0..shape.volume()).map(|_| rng.uniform(-scale, scale)).collect();
        Tensor::from_vec(shape, data).expect("volume matches by construction")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_is_deterministic_per_seed() {
        let a = Tensor::random(Shape::new(vec![4, 4]), 1, 1.0);
        let b = Tensor::random(Shape::new(vec![4, 4]), 1, 1.0);
        let c = Tensor::random(Shape::new(vec![4, 4]), 2, 1.0);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn random_respects_scale() {
        let t = Tensor::random(Shape::new(vec![100]), 3, 0.5);
        assert!(t.data().iter().all(|&v| (-0.5..0.5).contains(&v)));
    }

    /// The stream every random tensor is drawn from, pinned word for word:
    /// a change to the generator moves every golden value hash, so it fails
    /// here first, naming the words instead of a hash.
    #[test]
    fn stream_is_pinned() {
        let pins: [(u64, [u64; 4], [u32; 4]); 2] = [
            (
                0,
                [0x6e789e6aa1b965f4, 0x06c45d188009454f, 0xf88bb8a8724c81ec, 0x1b39896a51a8749b],
                [0xbe0c3b10, 0xbf727746, 0x3f711770, 0xbf498cee],
            ),
            (
                0xC0FFEE,
                [0xece45babce870479, 0x87be93a4a16a73cb, 0x5a71c08957a50d44, 0xc345d6e168ad2c78],
                [0x3f59c8b6, 0x3d77d260, 0xbe963900, 0x3f068bac],
            ),
        ];
        for (seed, words, draws) in pins {
            let mut r = SplitMix64::new(seed.wrapping_add(GAMMA));
            assert_eq!((0..4).map(|_| r.next_u64()).collect::<Vec<_>>(), words);
            let mut r = SplitMix64::new(seed.wrapping_add(GAMMA));
            let got: Vec<u32> = (0..4).map(|_| r.uniform(-1.0, 1.0).to_bits()).collect();
            assert_eq!(got, draws, "seed {seed:#x}");
        }
    }

    #[test]
    fn draws_stay_in_range() {
        let mut r = SplitMix64::new(3);
        for _ in 0..1000 {
            assert!((-0.5..0.5).contains(&r.uniform(-0.5, 0.5)));
            assert!(r.below(7) < 7);
        }
    }

    #[test]
    fn global_seed_is_stable_within_a_process() {
        assert_eq!(global_seed(), global_seed());
    }
}
