//! Deterministic random tensor construction for tests and examples.

use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::{Shape, Tensor};

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
        let mut rng = StdRng::seed_from_u64(seed ^ global_seed().rotate_left(17));
        let data = (0..shape.volume()).map(|_| rng.gen_range(-scale..scale)).collect();
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

    #[test]
    fn global_seed_is_stable_within_a_process() {
        assert_eq!(global_seed(), global_seed());
    }
}
